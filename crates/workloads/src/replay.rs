//! Materialized op traces and the shared trace cache.
//!
//! The op stream of a workload is a pure function of `(name, ScaleParams)` —
//! policies only decide *where* data lives, never *which* operations run —
//! so benchmark matrices that sweep policies over one workload column
//! regenerate the identical trace once per cell. [`TraceCache`] hoists that
//! cost out of the per-cell path: the first request for a key materializes
//! the per-core op vectors once ([`CachedTrace`]), every later request gets
//! the same `Arc` and replays it through per-core cursors ([`OpLanes`]).
//!
//! Faithfulness: [`OpSource`] implementations own all per-core state, so a
//! trace generated core-by-core is element-identical to the lazily pulled,
//! arbitrarily interleaved sequence the simulator would otherwise see —
//! replay cannot perturb simulated results, only wall-clock time. The cache
//! is `Sync`; concurrent requests for one key block on a single generation
//! (no duplicate work) while requests for different keys proceed in
//! parallel.
//!
//! Each materialized op occupies one `u64` ([`PackedOps`]): a 2-bit kind,
//! then for `Mem` the write bit, the 9-bit sid and a 52-bit element index,
//! for `RawMem` the write bit and a 61-bit address, for `Compute` the
//! `u32` cycle count. The encoding is a bijection on every op that fits
//! those widths; [`CachedTrace::materialize`] rejects any other op, so a
//! replay returns exactly the op the generator produced.
//!
//! The simulator reads every op, replayed or live, through [`OpLanes`]:
//! each core's packed words and a cursor, unpacked inline. A replay's
//! lanes share the trace's words; a live generator's lanes hold one chunk
//! per core, which the generator refills through one
//! [`OpSource::pack`] call per chunk.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ndpx_stream::{StreamId, StreamTable};

use crate::registry;
use crate::trace::{MemRef, Op, OpSource, ScaleParams, Workload};

/// Everything the trace of one workload instance depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceKey {
    /// Workload name (from [`crate::ALL_WORKLOADS`]).
    pub workload: &'static str,
    /// Core count the trace is partitioned across.
    pub cores: usize,
    /// Data footprint in bytes.
    pub footprint: u64,
    /// Synthetic-data RNG seed.
    pub seed: u64,
    /// Materialized ops per core.
    pub ops_per_core: u64,
}

impl TraceKey {
    /// The key of `workload` at `params` for `ops_per_core`-op runs.
    pub fn new(workload: &'static str, params: &ScaleParams, ops_per_core: u64) -> Self {
        TraceKey {
            workload,
            cores: params.cores,
            footprint: params.footprint,
            seed: params.seed,
            ops_per_core,
        }
    }

    fn params(&self) -> ScaleParams {
        ScaleParams { cores: self.cores, footprint: self.footprint, seed: self.seed }
    }

    /// Approximate bytes a materialization of this key will occupy (used
    /// against the cache byte budget before any generation happens).
    pub fn approx_bytes(&self) -> u64 {
        self.cores as u64 * self.ops_per_core * std::mem::size_of::<u64>() as u64
    }
}

// The packed op layout (see the module docs). Bits 0-1 hold the kind, bit 2
// the write flag of `Mem` and `RawMem`.
const KIND_MASK: u64 = 0b11;
const COMPUTE: u64 = 0;
const MEM: u64 = 1;
const RAW_MEM: u64 = 2;
const WRITE: u64 = 1 << 2;
const SID_SHIFT: u32 = 3;
const SID_BITS: u32 = 9;
const ELEM_SHIFT: u32 = SID_SHIFT + SID_BITS;
const ADDR_SHIFT: u32 = 3;
const CYCLES_SHIFT: u32 = 32;

/// Largest `MemRef::elem` a trace can hold (52 bits).
pub const MAX_TRACE_ELEM: u64 = u64::MAX >> ELEM_SHIFT;
/// Largest `RawMem` address a trace can hold (61 bits).
pub const MAX_TRACE_ADDR: u64 = u64::MAX >> ADDR_SHIFT;

// Every sid a `StreamTable` hands out fits the sid field.
const _: () = assert!(StreamId::MAX_STREAMS == 1 << SID_BITS);

/// `op` in its 8-byte trace form, or `None` if a field is too wide.
pub(crate) fn pack(op: Op) -> Option<u64> {
    let write = |w: bool| if w { WRITE } else { 0 };
    match op {
        Op::Compute(cycles) => Some(COMPUTE | u64::from(cycles) << CYCLES_SHIFT),
        Op::Mem(m) => (m.sid.index() < StreamId::MAX_STREAMS && m.elem <= MAX_TRACE_ELEM)
            .then(|| MEM | write(m.write) | u64::from(m.sid.0) << SID_SHIFT | m.elem << ELEM_SHIFT),
        Op::RawMem { addr, write: w } => {
            (addr <= MAX_TRACE_ADDR).then(|| RAW_MEM | write(w) | addr << ADDR_SHIFT)
        }
    }
}

/// The op `word` was packed from.
#[inline(always)]
fn unpack(word: u64) -> Op {
    let write = word & WRITE != 0;
    match word & KIND_MASK {
        COMPUTE => Op::Compute((word >> CYCLES_SHIFT) as u32),
        MEM => Op::Mem(MemRef {
            sid: StreamId((word >> SID_SHIFT) as u16 & ((1 << SID_BITS) - 1)),
            elem: word >> ELEM_SHIFT,
            write,
        }),
        // RAW_MEM: kind 3 is never packed.
        _ => Op::RawMem { addr: word >> ADDR_SHIFT, write },
    }
}

/// The error of `workload`'s op `k` of `core`, `op`, which does not fit
/// the encoding.
fn unfit(workload: &str, core: usize, k: u64, op: Op) -> String {
    format!("workload {workload}: core {core} op {k} {op:?} does not fit the 8-byte trace encoding")
}

/// Pulls `ops_per_core` ops per core from `wl` and packs them.
///
/// # Errors
///
/// A message naming the workload if an op does not fit the encoding (a
/// sid of 512 or more, an element index above [`MAX_TRACE_ELEM`] or a raw
/// address above [`MAX_TRACE_ADDR`]).
fn pack_ops(wl: &mut Workload, ops_per_core: u64) -> Result<Vec<PackedOps>, String> {
    (0..wl.cores)
        .map(|core| {
            let mut words = zeroed(ops_per_core);
            let out = Arc::get_mut(&mut words).expect("a new slice is unshared");
            wl.source.pack(core, out).map_err(|(k, op)| unfit(wl.name, core, k as u64, op))?;
            Ok(PackedOps(words))
        })
        .collect()
}

/// `n` zero words. Collected from an exact-length iterator, so the slice
/// is allocated once, in place, and never copied from a `Vec`.
fn zeroed(n: u64) -> Arc<[u64]> {
    (0..n).map(|_| 0).collect()
}

/// One core's materialized op sequence, 8 bytes per op. The words are
/// shared, never copied, with every replay's [`OpLanes`].
#[derive(Debug)]
pub struct PackedOps(Arc<[u64]>);

impl PackedOps {
    /// Number of ops.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the sequence holds no op.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The ops in order.
    pub fn iter(&self) -> impl Iterator<Item = OpView> + '_ {
        self.0.iter().map(|&w| OpView(unpack(w)))
    }
}

/// A decoded op of a [`PackedOps`]; dereferences to the [`Op`].
#[derive(Debug, Clone, Copy)]
pub struct OpView(Op);

impl Deref for OpView {
    type Target = Op;

    fn deref(&self) -> &Op {
        &self.0
    }
}

/// An immutable, fully materialized workload trace.
#[derive(Debug)]
pub struct CachedTrace {
    /// Workload name.
    pub name: &'static str,
    /// The pristine stream annotations (cloned per run — runs mutate the
    /// read-only bits).
    pub table: StreamTable,
    /// Per-core operation sequences, `ops[core]` = the ops of `core`.
    pub ops: Vec<PackedOps>,
    /// Wall-clock cost of the generation (what every cache hit saves).
    pub gen_wall: Duration,
}

impl CachedTrace {
    /// Builds the workload and pulls `key.ops_per_core` ops per core.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload names, construction errors, or an op
    /// that does not fit the 8-byte encoding (the message names the
    /// workload) — trace requests come from static benchmark matrices.
    pub fn materialize(key: &TraceKey) -> Self {
        // ndpx-lint: allow(det-wallclock): gen_wall is cache-saving telemetry; it never reaches a digest or registry dump
        let t0 = Instant::now();
        let mut wl = registry::build(key.workload, &key.params())
            .expect("workload name is known")
            .expect("workload constructs");
        let ops = pack_ops(&mut wl, key.ops_per_core).unwrap_or_else(|e| panic!("{e}"));
        CachedTrace { name: wl.name, table: wl.table, ops, gen_wall: t0.elapsed() }
    }

    /// A runnable [`Workload`] that replays this trace.
    pub fn workload(self: &Arc<Self>) -> Workload {
        Workload {
            name: self.name,
            table: self.table.clone(),
            cores: self.ops.len(),
            source: Box::new(ReplaySource::new(Arc::clone(self))),
        }
    }
}

/// Ops a live lane packs per refill: 4 KiB of words per core.
const LIVE_CHUNK: u64 = 512;

/// One core's packed op words and the cursor of its next op.
#[derive(Debug, Clone)]
struct Lane {
    words: Arc<[u64]>,
    at: usize,
}

/// A live generator feeding [`OpLanes`] chunk by chunk.
struct Live {
    source: Box<dyn OpSource>,
    /// The workload's name, for the error of an op that does not fit.
    name: &'static str,
    /// Ops packed so far, per core.
    packed: Vec<u64>,
}

/// Every core's ops as packed 8-byte words read through a per-core cursor:
/// the one way the simulator fetches ops.
///
/// [`next_op`](Self::next_op) reads the word under the core's cursor and
/// unpacks it inline; only at the end of a lane does it call out of line,
/// to refill it. A replay's lanes are the [`CachedTrace`]'s own words, and
/// past the materialized horizon the cursor wraps to the start of the
/// core's trace (runs bounded by the key's `ops_per_core` never reach the
/// wrap). A live generator's lanes hold one chunk per core, which the
/// refill packs through one [`OpSource::pack`] call; per-core sequences do
/// not depend on the interleaving of cores, so packing ahead is exact.
pub struct OpLanes {
    lanes: Vec<Lane>,
    /// The generator refilling the lanes; `None` for a replay.
    live: Option<Live>,
}

impl std::fmt::Debug for OpLanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpLanes")
            .field("cores", &self.lanes.len())
            .field("live", &self.live.as_ref().map(|l| l.name))
            .finish()
    }
}

impl OpLanes {
    /// The lanes of `source`, a workload named `name` on `cores` cores:
    /// its materialized words if it replays a trace
    /// ([`OpSource::materialized`]), else chunks packed live.
    pub fn new(source: Box<dyn OpSource>, name: &'static str, cores: usize) -> Self {
        if let Some(lanes) = source.materialized() {
            return lanes;
        }
        // Each lane owns its chunk, empty until the first fetch refills it.
        let lanes = (0..cores)
            .map(|_| Lane { words: zeroed(LIVE_CHUNK), at: LIVE_CHUNK as usize })
            .collect();
        OpLanes { lanes, live: Some(Live { source, name, packed: vec![0; cores] }) }
    }

    /// A replay of `trace` with every cursor at the start.
    fn replay(trace: &CachedTrace) -> Self {
        let lanes = trace.ops.iter().map(|p| Lane { words: Arc::clone(&p.0), at: 0 }).collect();
        OpLanes { lanes, live: None }
    }

    /// The next op of `core`.
    ///
    /// # Panics
    ///
    /// Panics with [`CachedTrace::materialize`]'s message if a live
    /// generator's op does not fit the 8-byte encoding, and on a replayed
    /// core whose trace holds no op.
    #[inline(always)]
    pub fn next_op(&mut self, core: usize) -> Op {
        let lane = &mut self.lanes[core];
        // Both arms yield the word, unpacked once: an `Op` returned by the
        // out-of-line refill would pass through memory on every fetch.
        let word = match lane.words.get(lane.at) {
            Some(&word) => {
                lane.at += 1;
                word
            }
            None => self.refill(core),
        };
        unpack(word)
    }

    /// Refills the lane of `core` (wraps a replay, packs a live chunk) and
    /// returns its first word.
    #[cold]
    #[inline(never)]
    fn refill(&mut self, core: usize) -> u64 {
        let lane = &mut self.lanes[core];
        if let Some(live) = self.live.as_mut() {
            let out = Arc::get_mut(&mut lane.words).expect("a live lane's chunk is unshared");
            let done = live.packed[core];
            if let Err((k, op)) = live.source.pack(core, out) {
                panic!("{}", unfit(live.name, core, done + k as u64, op));
            }
            live.packed[core] = done + out.len() as u64;
        }
        lane.at = 1;
        lane.words[0]
    }
}

/// Replays a [`CachedTrace`] through per-core cursors ([`OpLanes`]).
///
/// Sources never exhaust, so past the materialized horizon the cursor wraps
/// to the start of the core's trace; runs bounded by the key's
/// `ops_per_core` never reach the wrap. The simulator does not call
/// `next_op`: it takes the lanes over ([`OpSource::materialized`]).
#[derive(Debug)]
pub struct ReplaySource(OpLanes);

impl ReplaySource {
    /// A replay of `trace` with all cursors at the start.
    pub fn new(trace: Arc<CachedTrace>) -> Self {
        ReplaySource(OpLanes::replay(&trace))
    }
}

impl OpSource for ReplaySource {
    // Small enough to inline into a static caller, as `OpLanes::next_op`
    // inlines into the front end.
    #[inline]
    fn next_op(&mut self, core: usize) -> Op {
        self.0.next_op(core)
    }

    fn materialized(&self) -> Option<OpLanes> {
        Some(OpLanes { lanes: self.0.lanes.clone(), live: None })
    }
}

/// Counters describing how much work a [`TraceCache`] absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCacheStats {
    /// Requests served from an already materialized trace.
    pub hits: u64,
    /// Requests that materialized a new trace.
    pub misses: u64,
    /// Requests that bypassed the cache (disabled or over budget).
    pub bypasses: u64,
    /// Total generation time the hits avoided, in nanoseconds.
    pub saved_nanos: u64,
    /// Bytes currently held by materialized traces.
    pub resident_bytes: u64,
}

impl TraceCacheStats {
    /// Generation time the hits avoided.
    pub fn saved(&self) -> Duration {
        Duration::from_nanos(self.saved_nanos)
    }
}

/// Default byte budget for materialized traces (8 GiB, about a billion
/// ops); beyond it new keys fall back to live generation. The bench
/// binaries override it with `NDPX_TRACE_CACHE_BYTES`.
pub const DEFAULT_CACHE_BYTES: u64 = 8 << 30;

/// One generation slot: requests for the same key block on a single
/// materialization instead of duplicating it.
type TraceSlot = Arc<OnceLock<Arc<CachedTrace>>>;

/// A shared, thread-safe cache of materialized workload traces.
pub struct TraceCache {
    /// `None` disables caching entirely ([`TraceCache::disabled`]).
    slots: Option<Mutex<BTreeMap<TraceKey, TraceSlot>>>,
    budget_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: AtomicU64,
    saved_nanos: AtomicU64,
    resident_bytes: AtomicU64,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("TraceCache")
            .field("enabled", &self.slots.is_some())
            .field("stats", &s)
            .finish()
    }
}

impl Default for TraceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCache {
    /// An enabled cache with the default byte budget.
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_CACHE_BYTES)
    }

    /// An enabled cache that stops materializing new keys once resident
    /// traces exceed `budget_bytes` (requests past the budget fall back to
    /// live generation — identical results, no caching).
    pub fn with_budget(budget_bytes: u64) -> Self {
        TraceCache {
            slots: Some(Mutex::new(BTreeMap::new())),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            saved_nanos: AtomicU64::new(0),
            resident_bytes: AtomicU64::new(0),
        }
    }

    /// A pass-through cache: every request builds the workload live, exactly
    /// as if no cache existed.
    pub fn disabled() -> Self {
        TraceCache { slots: None, ..Self::with_budget(0) }
    }

    /// The materialized trace for `key`, generating it on first request.
    /// Returns `None` when the cache is disabled or the key would exceed the
    /// byte budget (callers then build the workload live).
    pub fn get(&self, key: &TraceKey) -> Option<Arc<CachedTrace>> {
        let Some(slots) = self.slots.as_ref() else {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let slot = {
            let mut map = slots.lock().expect("trace cache lock");
            if let Some(slot) = map.get(key) {
                Arc::clone(slot)
            } else {
                // Budget check before inserting the slot, so an over-budget
                // key never blocks other requesters on a generation that is
                // not going to be shared.
                if self.resident_bytes.load(Ordering::Relaxed) + key.approx_bytes()
                    > self.budget_bytes
                {
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
                let slot = Arc::new(OnceLock::new());
                map.insert(*key, Arc::clone(&slot));
                slot
            }
        };
        let mut generated = false;
        let trace = slot.get_or_init(|| {
            generated = true;
            let trace = Arc::new(CachedTrace::materialize(key));
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.resident_bytes.fetch_add(key.approx_bytes(), Ordering::Relaxed);
            trace
        });
        if !generated {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.saved_nanos.fetch_add(trace.gen_wall.as_nanos() as u64, Ordering::Relaxed);
        }
        Some(Arc::clone(trace))
    }

    /// A runnable workload for `(workload, params, ops_per_core)`: a replay
    /// of the cached trace when available, a live generator otherwise.
    ///
    /// # Panics
    ///
    /// Panics on unknown workload names or construction errors — bench
    /// inputs are static.
    pub fn workload(
        &self,
        workload: &'static str,
        params: &ScaleParams,
        ops_per_core: u64,
    ) -> Workload {
        let key = TraceKey::new(workload, params, ops_per_core);
        match self.get(&key) {
            Some(trace) => trace.workload(),
            None => registry::build(workload, params)
                .expect("workload name is known")
                .expect("workload constructs"),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            saved_nanos: self.saved_nanos.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ScaleParams {
        ScaleParams { cores: 4, footprint: 4 << 20, seed: 0xFEED }
    }

    #[test]
    fn cache_types_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceCache>();
        assert_send_sync::<Arc<CachedTrace>>();
        fn assert_send<T: Send>() {}
        assert_send::<ReplaySource>();
        assert_send::<Workload>();
    }

    #[test]
    fn replay_matches_live_generation() {
        let p = params();
        let key = TraceKey::new("pr", &p, 500);
        let trace = Arc::new(CachedTrace::materialize(&key));
        let mut live = registry::build("pr", &p).unwrap().unwrap();
        let mut replay = ReplaySource::new(trace);
        // Interleave cores in a non-generation order: per-core sequences
        // must be interleaving-invariant.
        for k in 0..500 {
            for core in (0..p.cores).rev() {
                assert_eq!(replay.next_op(core), live.source.next_op(core), "core {core} op {k}");
            }
        }
    }

    #[test]
    fn packing_round_trips_every_op_within_the_widths() {
        let mut rng = ndpx_sim::rng::Xoshiro256::seed_from(0x00BA_C4ED);
        let sid = StreamId((StreamId::MAX_STREAMS - 1) as u16);
        let mut ops = vec![
            Op::Compute(0),
            Op::Compute(u32::MAX),
            Op::Mem(MemRef::write(sid, MAX_TRACE_ELEM)),
            Op::Mem(MemRef::read(StreamId(0), 0)),
            Op::RawMem { addr: MAX_TRACE_ADDR, write: true },
            Op::RawMem { addr: 0, write: false },
        ];
        for _ in 0..10_000 {
            let write = rng.below(2) == 1;
            ops.push(match rng.below(3) {
                0 => Op::Compute(rng.below(1 << 32) as u32),
                1 => Op::Mem(MemRef {
                    sid: StreamId(rng.below(StreamId::MAX_STREAMS as u64) as u16),
                    elem: rng.below(MAX_TRACE_ELEM + 1),
                    write,
                }),
                _ => Op::RawMem { addr: rng.below(MAX_TRACE_ADDR + 1), write },
            });
        }
        for op in ops {
            let word = pack(op).unwrap_or_else(|| panic!("{op:?} fits"));
            assert_eq!(unpack(word), op);
        }
        // One past each bound is rejected, never truncated.
        for op in [
            Op::Mem(MemRef::read(StreamId(0), MAX_TRACE_ELEM + 1)),
            Op::Mem(MemRef::read(StreamId(StreamId::MAX_STREAMS as u16), 0)),
            Op::RawMem { addr: MAX_TRACE_ADDR + 1, write: false },
        ] {
            assert_eq!(pack(op), None, "{op:?}");
        }
    }

    #[test]
    fn packing_names_the_workload_of_an_op_that_does_not_fit() {
        struct Wide;
        impl OpSource for Wide {
            fn next_op(&mut self, _core: usize) -> Op {
                Op::RawMem { addr: MAX_TRACE_ADDR + 1, write: false }
            }
        }
        let mut wl =
            Workload { name: "wide", table: StreamTable::new(), cores: 2, source: Box::new(Wide) };
        let err = pack_ops(&mut wl, 4).expect_err("a 62-bit address does not fit");
        assert!(err.starts_with("workload wide: core 0 op 0"), "{err}");
    }

    #[test]
    fn live_lanes_name_the_workload_of_an_op_that_does_not_fit() {
        // Fits for one chunk and a half, then one op does not.
        struct Widening(u64);
        impl OpSource for Widening {
            fn next_op(&mut self, _core: usize) -> Op {
                self.0 += 1;
                let addr = if self.0 > LIVE_CHUNK * 3 / 2 { MAX_TRACE_ADDR + 1 } else { 0 };
                Op::RawMem { addr, write: false }
            }
        }
        let mut lanes = OpLanes::new(Box::new(Widening(0)), "wide", 1);
        for _ in 0..LIVE_CHUNK {
            lanes.next_op(0);
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| lanes.next_op(0)))
            .expect_err("the second chunk holds an op that does not fit");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        let k = LIVE_CHUNK * 3 / 2;
        assert!(msg.starts_with(&format!("workload wide: core 0 op {k} ")), "{msg}");
    }

    #[test]
    fn live_and_replayed_lanes_match_live_generation() {
        // Several chunks per core, read in a non-generation order, and a
        // replay read on past its horizon, where it wraps.
        let p = params();
        let n = LIVE_CHUNK * 2 + 100;
        let trace = Arc::new(CachedTrace::materialize(&TraceKey::new("bfs", &p, n)));
        let wl = registry::build("bfs", &p).unwrap().unwrap();
        let mut lanes = OpLanes::new(wl.source, wl.name, wl.cores);
        let mut replayed = OpLanes::new(Box::new(ReplaySource::new(Arc::clone(&trace))), "bfs", 4);
        let mut live = registry::build("bfs", &p).unwrap().unwrap();
        for k in 0..n {
            for core in (0..p.cores).rev() {
                let op = live.source.next_op(core);
                assert_eq!(lanes.next_op(core), op, "live lane: core {core} op {k}");
                assert_eq!(replayed.next_op(core), op, "replayed lane: core {core} op {k}");
            }
        }
        for core in 0..p.cores {
            let first: Vec<Op> = trace.ops[core].iter().take(3).map(|op| *op).collect();
            let wrapped: Vec<Op> = (0..3).map(|_| replayed.next_op(core)).collect();
            assert_eq!(wrapped, first, "core {core} wraps to the start of its trace");
        }
    }

    #[test]
    fn replay_lanes_share_the_trace_words() {
        let trace = Arc::new(CachedTrace::materialize(&TraceKey::new("mv", &params(), 64)));
        let lanes = ReplaySource::new(Arc::clone(&trace)).materialized().expect("a replay");
        for (lane, ops) in lanes.lanes.iter().zip(&trace.ops) {
            assert!(Arc::ptr_eq(&lane.words, &ops.0), "lanes must not copy the trace");
        }
    }

    #[test]
    fn same_key_shares_one_arc() {
        let cache = TraceCache::new();
        let key = TraceKey::new("mv", &params(), 200);
        let a = cache.get(&key).expect("enabled");
        let b = cache.get(&key).expect("enabled");
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (1, 1));
        assert!(s.saved_nanos > 0, "hits record saved generation time");
        assert_eq!(s.resident_bytes, key.approx_bytes());
    }

    #[test]
    fn different_keys_generate_separately() {
        let cache = TraceCache::new();
        let a = cache.get(&TraceKey::new("mv", &params(), 200)).unwrap();
        let b = cache.get(&TraceKey::new("mv", &params(), 300)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disabled_cache_builds_live() {
        let cache = TraceCache::disabled();
        assert!(cache.get(&TraceKey::new("mv", &params(), 100)).is_none());
        let wl = cache.workload("mv", &params(), 100);
        assert_eq!(wl.cores, params().cores);
        assert_eq!(cache.stats().bypasses, 2);
    }

    #[test]
    fn budget_overflow_falls_back_to_live() {
        let cache = TraceCache::with_budget(1);
        let key = TraceKey::new("mv", &params(), 100);
        assert!(cache.get(&key).is_none(), "over-budget key is not materialized");
        assert_eq!(cache.stats().bypasses, 1);
        let wl = cache.workload("mv", &params(), 100);
        assert_eq!(wl.cores, params().cores);
    }

    #[test]
    fn workload_replays_pristine_table() {
        let cache = TraceCache::new();
        let p = params();
        let a = cache.workload("backprop", &p, 300);
        let fresh = registry::build("backprop", &p).unwrap().unwrap();
        assert_eq!(a.table.len(), fresh.table.len());
        // Every cached handout starts read-only even if a previous run
        // marked streams written on its own clone.
        for (s, f) in a.table.iter().zip(fresh.table.iter()) {
            assert_eq!(s.read_only, f.read_only);
        }
    }
}
