//! The run loop shared by [`NdpSystem`](crate::system::NdpSystem) and
//! [`HostSystem`](crate::host::HostSystem), and the core front end they
//! share.
//!
//! Both systems model the same in-order core with a private L1D, so each
//! holds one [`FrontEnd`]: it fetches and decodes ops from per-core lanes
//! of packed words ([`OpLanes`]), computes stream addresses, probes the
//! L1 through the op's stream memo slot and counts its hits, and the loop
//! below runs compute ops and L1 hits through it. A system sees only an L1
//! miss ([`Simulated::miss`]). The per-op observers live here too: the
//! post-L1 latency histogram (which also feeds the NDP system's epoch SLO
//! percentiles) and the trace sink, which gets every memory op's
//! `engine`/`mem_op` event from the loop.
//!
//! Cores are scheduled through one [`EventQueue`] with the core index as
//! the equal-time rank (lower core first). When a core is popped at time
//! `t` the loop first applies the system's boundary actions due at `t`
//! (epochs and chaos events on the NDP system), snapshots a due timeline
//! window, and then *runs ahead* of the queue over two horizons:
//!
//! - the **shared window** `W`: the queue's minimum pending time and the
//!   system's boundaries (next epoch, chaos event, timeline boundary). No
//!   other core and no boundary action can come before an op issued below
//!   `W`, so such ops run through the full access path in exactly the
//!   per-op order;
//! - the **private horizon** `P ≥ W`: the same bound without the queue,
//!   shut to `W` while a trace is attached (the trace ring keeps insertion
//!   order). An op issued in `[W, P)` runs at once only if it
//!   touches nothing but the core's own state — compute, or an L1 hit (L1s
//!   belong to their core, op lanes keep per-core cursors, and
//!   everything a hit updates is an order-free integer sum). Any other op
//!   is parked in the core's pending slot and the core re-enters the queue
//!   at the op's issue time, where the per-op loop would have it; the
//!   parked op runs first, through the full path, when that event pops.
//!
//! A batch also ends by exhausting the core's ops or at [`BATCH_CAP`] (a
//! liveness bound for the watchdog). Results are bit-identical to the
//! per-op loop, which batching off selects; the queue round trip,
//! boundary checks and watchdog observation are simply amortized over the
//! batch.

use ndpx_cache::setassoc::{Outcome, SetAssocCache};
use ndpx_sim::engine::{BatchStats, EventQueue, ProgressWatchdog, QueueStats, BATCH_CAP};
use ndpx_sim::stats::Histogram;
use ndpx_sim::telemetry::{StatRegistry, TimelineConfig, TimelineSampler, TraceSink};
use ndpx_sim::time::{Freq, Time};
use ndpx_sim::{ndpx_info, ndpx_warn};
use ndpx_workloads::trace::{MemRef, Op};
use ndpx_workloads::OpLanes;

use crate::desc::StreamDesc;
use crate::stats::{Breakdown, LatComponent};

/// The core side both systems share, up to and including the L1: op
/// fetch and decode, stream addresses, the per-core L1s and their hit
/// accounting, the per-op observers (latency histogram, trace sink) and
/// the run-loop state. A system sees only the ops that miss L1 ([`Simulated::miss`]).
pub(crate) struct FrontEnd {
    /// The workload's ops: per core, packed words and a cursor, read
    /// inline.
    ops: OpLanes,
    /// Per-stream address descriptors, indexed by `StreamId`; immutable
    /// for a run.
    pub(crate) descs: Vec<StreamDesc>,
    /// Per-core L1 data caches.
    pub(crate) l1s: Vec<SetAssocCache>,
    /// `log2` of the L1 line size (a power of two).
    line_shift: u32,
    /// Core clock of compute ops.
    freq: Freq,
    /// L1 hit/probe latency.
    pub(crate) l1_lat: Time,
    /// Memory ops issued, hits included.
    pub(crate) mem_ops: u64,
    /// Memory ops that hit L1.
    pub(crate) l1_hits: u64,
    /// Latency distribution of the memory ops that miss L1;
    /// [`access_latency`](Self::access_latency) adds the hits.
    access_latency: Histogram,
    /// Run-ahead batching enabled (on unless a differential test turns it
    /// off through `set_batching`). Purely a performance switch: results
    /// are bit-identical either way.
    pub(crate) batch: bool,
    /// Run-loop batch telemetry (`engine.batch.*`).
    batch_stats: BatchStats,
    /// Progress-watchdog stall diagnostics observed during the run.
    stalls: u64,
    /// Opt-in windowed timeline sampler; `None` costs one branch per
    /// scheduler pop.
    timeline: Option<Box<TimelineSampler>>,
    /// Opt-in Chrome-trace exporter; `None` costs one branch per op on the
    /// full path. The system records its own legs and boundary events into
    /// it; while it is attached no op runs ahead of the queue.
    pub(crate) trace: Option<Box<TraceSink>>,
}

/// A memory op as [`FrontEnd::decode`] hands it to the L1 probe.
struct Access {
    /// The stream reference; `None` for a raw op.
    mem: Option<MemRef>,
    /// The op's physical address.
    addr: u64,
    /// True for stores.
    write: bool,
    /// The L1 way-memo hint: the stream id, so each of the core's
    /// interleaved streams keeps its own memo line; 0 for a raw op.
    memo: usize,
}

/// An op that missed L1, as [`run`] hands it to [`Simulated::miss`]. The
/// L1 has already filled `line`.
pub(crate) struct Miss {
    /// The stream reference; `None` for a raw op.
    pub(crate) mem: Option<MemRef>,
    /// The op's physical address.
    pub(crate) addr: u64,
    /// Its L1 line, `addr >> line_shift`.
    pub(crate) line: u64,
    /// True for stores.
    pub(crate) write: bool,
    /// The L1 victim and whether it was dirty.
    pub(crate) evicted: Option<(u64, bool)>,
}

/// Which view of the stats [`FrontEnd::register`] and
/// [`Simulated::register`] publish.
pub(crate) enum EngineScope<'a> {
    /// One timeline window closing at `now`: the live queue depth and the
    /// counters that are a pure function of simulated event order.
    Window { queue_depth: usize, now: Time },
    /// The end-of-run dump: simulated time, queue totals, stalls, the
    /// batch summary, the access-latency histogram and the run-only keys.
    Run(&'a RunTotals),
}

impl FrontEnd {
    /// A front end over `l1s` (one per core) with `line_bytes`-byte lines
    /// and hits of `l1_lat`; batching on, no stalls, and a sampler if
    /// `timeline` configures one.
    pub(crate) fn new(
        ops: OpLanes,
        descs: Vec<StreamDesc>,
        l1s: Vec<SetAssocCache>,
        line_bytes: u64,
        freq: Freq,
        l1_lat: Time,
        timeline: Option<&TimelineConfig>,
    ) -> Self {
        debug_assert!(line_bytes.is_power_of_two());
        FrontEnd {
            ops,
            descs,
            l1s,
            line_shift: line_bytes.trailing_zeros(),
            freq,
            l1_lat,
            mem_ops: 0,
            l1_hits: 0,
            access_latency: Histogram::new(),
            batch: true,
            batch_stats: BatchStats::default(),
            stalls: 0,
            timeline: timeline.map(|c| Box::new(TimelineSampler::new(c.clone()))),
            trace: None,
        }
    }

    /// Latency distribution of every memory op: the recorded post-L1
    /// accesses plus the L1 hits, each `l1_lat` long.
    pub(crate) fn access_latency(&self) -> Histogram {
        let mut h = self.access_latency.clone();
        h.record_n(self.l1_lat, self.l1_hits);
        h
    }

    /// `system`'s latency breakdown plus the L1 share of every miss: each
    /// op that missed L1 spent `l1_lat` in it first.
    pub(crate) fn breakdown(&self, mut system: Breakdown) -> Breakdown {
        system.add(LatComponent::CoreL1, self.l1_lat * (self.mem_ops - self.l1_hits));
        system
    }

    /// A memory op's decoded access; `Err` carries a compute op's
    /// completion when issued at `t`.
    #[inline(always)]
    fn decode(&self, op: Op, t: Time) -> Result<Access, Time> {
        match op {
            Op::Compute(c) => Err(t + self.freq.cycles_to_time(u64::from(c))),
            Op::Mem(m) => {
                let addr = self.descs[m.sid.index()].addr_of_elem(m.elem);
                Ok(Access { mem: Some(m), addr, write: m.write, memo: m.sid.index() })
            }
            Op::RawMem { addr, write } => Ok(Access { mem: None, addr, write, memo: 0 }),
        }
    }

    /// Counts an L1 hit issued at `t`; returns its completion. Hits are
    /// counted, not recorded: every one takes `l1_lat`, so the latency
    /// histograms add them in bulk from `l1_hits`.
    #[inline(always)]
    fn hit(&mut self, t: Time) -> Time {
        self.mem_ops += 1;
        self.l1_hits += 1;
        t + self.l1_lat
    }

    /// Publishes the `engine.*` scope and the front end's `core.*`
    /// counters. Timeline windows carry only values that are a pure
    /// function of simulated event order, so timelines are byte-identical
    /// at any thread count.
    pub(crate) fn register(&self, reg: &mut StatRegistry, view: &EngineScope<'_>) {
        {
            let mut core = reg.scope("core");
            core.count("mem_ops", self.mem_ops);
            core.count("l1_hits", self.l1_hits);
            if let EngineScope::Run(_) = view {
                core.hist("access_latency", &self.access_latency());
            }
        }
        let b = &self.batch_stats;
        let mut engine = reg.scope("engine");
        match view {
            EngineScope::Window { queue_depth, .. } => {
                engine.gauge("queue.depth", *queue_depth as f64);
            }
            EngineScope::Run(totals) => {
                // Ops executed by the loop are `engine.batch.ops`: one queue
                // event can carry a whole run-ahead batch, so the raw queue
                // traffic stays under `engine.queue.*`.
                engine.count("sim_ps", totals.makespan.as_ps());
                engine.count("stalls", self.stalls);
                let q = &totals.queue;
                let mut queue = engine.scope("queue");
                queue.count("scheduled", q.scheduled);
                queue.count("processed", q.processed);
                queue.count("peak_depth", q.peak_depth);
            }
        }
        let mut batch = engine.scope("batch");
        batch.count("batches", b.batches);
        batch.count("ops", b.ops);
        batch.count("fast_hits", b.fast_hits);
        batch.gauge("fast_hit_ratio", b.fast_hit_ratio());
        if let EngineScope::Run(_) = view {
            batch.count("enabled", u64::from(self.batch));
            batch.count("max_len", b.max_len);
            batch.gauge("mean_len", b.mean_len());
            for (i, &n) in b.len_hist.iter().enumerate() {
                batch.count(&format!("len_c{i}"), n);
            }
        }
    }
}

/// What a system plugs into [`run`]: its front end, its path past the L1,
/// its boundary actions and its stats.
pub(crate) trait Simulated {
    /// The shared core front end.
    fn front(&self) -> &FrontEnd;
    /// The shared core front end, mutably.
    fn front_mut(&mut self) -> &mut FrontEnd;
    /// Serves an op of `core` that missed L1, leaving the L1 at `now`.
    /// Returns its completion; the front end has counted it in `mem_ops`,
    /// and records its latency and trace event itself.
    fn miss(&mut self, core: usize, miss: Miss, now: Time) -> Time;
    /// Applies the boundary actions due at `t`, before the popped core
    /// runs. An action that kills cores zeroes their `remaining` ops.
    fn boundaries(&mut self, _t: Time, _remaining: &mut [u64]) {}
    /// The next boundary action's time: no op may run ahead past it.
    fn boundary_horizon(&self) -> Time {
        Time::MAX
    }
    /// Publishes the system's own stats under `view` (see [`registry`]).
    fn register(&self, reg: &mut StatRegistry, view: &EngineScope<'_>);
    /// Stable label naming the timeline file.
    fn timeline_label(&self) -> String;
    /// What the run is, for diagnostics.
    fn run_label(&self) -> String;
}

/// Runs `op` of `core`, issued at `t`, through the full path; returns its
/// completion. Out of line, so the run-ahead path below stays small enough
/// for the L1 probe of a private hit to inline into the run loop.
#[inline(never)]
fn execute<S: Simulated>(sys: &mut S, core: usize, op: Op, t: Time) -> Time {
    let fe = sys.front_mut();
    let Access { mem, addr, write, memo } = match fe.decode(op, t) {
        Ok(access) => access,
        Err(done) => return done,
    };
    let line = addr >> fe.line_shift;
    let done = match fe.l1s[core].access_hinted(line, write, memo) {
        Outcome::Hit => fe.hit(t),
        Outcome::Miss { evicted } => {
            fe.mem_ops += 1;
            let now = t + fe.l1_lat;
            let done = sys.miss(core, Miss { mem, addr, line, write, evicted }, now);
            sys.front_mut().access_latency.record(done - t);
            done
        }
    };
    // A miss's event follows the events of its legs past the L1.
    if let Some(tr) = sys.front_mut().trace.as_deref_mut() {
        tr.complete("engine", "mem_op", core as u32, t, done - t);
    }
    done
}

/// Runs `op` only if it touches nothing but `core`'s private state —
/// compute, or an L1 hit — and returns its completion; returns `None`
/// with all state untouched otherwise.
///
/// Never called while a trace is attached: the trace shuts the private
/// horizon to the shared window (see [`horizons`]), so every memory op's
/// event is emitted by [`execute`] and this path needs no trace test.
#[inline(always)]
fn execute_private<S: Simulated>(sys: &mut S, core: usize, op: Op, t: Time) -> Option<Time> {
    let fe = sys.front_mut();
    debug_assert!(fe.trace.is_none(), "an op ran ahead of the queue with a trace attached");
    let a = match fe.decode(op, t) {
        Ok(access) => access,
        Err(done) => return Some(done),
    };
    if !fe.l1s[core].access_if_hit(a.addr >> fe.line_shift, a.write, a.memo) {
        return None;
    }
    Some(fe.hit(t))
}

/// What [`run`] hands back for the system's report.
pub(crate) struct RunTotals {
    /// Completion time of the last op.
    pub(crate) makespan: Time,
    /// Ops executed.
    pub(crate) ops: u64,
    /// The event queue's telemetry.
    pub(crate) queue: QueueStats,
}

/// Runs `ops_per_core` ops on every core of `sys` (see the module docs),
/// then closes and writes the timeline, if one is attached.
pub(crate) fn run<S: Simulated>(
    sys: &mut S,
    ops_per_core: u64,
    mut watchdog: ProgressWatchdog,
) -> RunTotals {
    let cores = sys.front().l1s.len();
    let mut queue: EventQueue<usize> = EventQueue::new();
    let mut remaining: Vec<u64> = vec![ops_per_core; cores];
    // Per-core pending slot: an op fetched past the shared window that
    // needs shared state, waiting for its core's event to pop.
    let mut pending: Vec<Option<Op>> = vec![None; cores];
    for c in 0..cores {
        queue.push_ranked(Time::ZERO, c as u64, c);
    }
    let mut makespan = Time::ZERO;
    let mut total_ops = 0u64;

    let mut next = queue.pop();
    while let Some((mut t, core)) = next {
        if let Some(stall) = watchdog.observe(t, queue.len()) {
            sys.front_mut().stalls += 1;
            ndpx_warn!(
                "engine deadlock suspected in {} while serving core {core}: {stall}",
                sys.run_label()
            );
        }
        sys.boundaries(t, &mut remaining);
        // A core killed by a boundary action surfaces here with no ops
        // left: retire it without touching its op lane (its trace was
        // aborted). Boundaries clamp the private horizon, so none strands
        // a parked op.
        if remaining[core] == 0 {
            debug_assert!(pending[core].is_none(), "a boundary action retired a parked op");
            next = queue.pop();
            continue;
        }
        // Timeline boundary: snapshot the cumulative state strictly before
        // processing the first event at or past it. Sim-order only, so
        // timelines are identical at any thread count.
        if sys.front().timeline.as_deref().is_some_and(|tl| tl.due(t)) {
            let snap = registry(sys, &EngineScope::Window { queue_depth: queue.len(), now: t });
            if let Some(tl) = sys.front_mut().timeline.as_deref_mut() {
                tl.record(t, snap);
            }
        }
        let (window, horizon) = horizons(sys, queue.peek_time());
        let fast0 = sys.front().l1_hits;
        let mut batch_len = 0u64;
        let op = pending[core].take().unwrap_or_else(|| sys.front_mut().ops.next_op(core));
        let mut done = execute(sys, core, op, t);
        loop {
            batch_len += 1;
            makespan = makespan.max(done);
            remaining[core] -= 1;
            if remaining[core] == 0 {
                next = queue.pop();
                break;
            }
            t = done;
            if batch_len < BATCH_CAP && t < horizon {
                let op = sys.front_mut().ops.next_op(core);
                let ran = if t < window {
                    Some(execute(sys, core, op, t))
                } else {
                    execute_private(sys, core, op, t)
                };
                if let Some(d) = ran {
                    done = d;
                    continue;
                }
                pending[core] = Some(op);
            }
            next = Some(queue.push_pop_ranked(t, core as u64, core));
            break;
        }
        total_ops += batch_len;
        let fe = sys.front_mut();
        let fast = fe.l1_hits - fast0;
        fe.batch_stats.record(batch_len, fast);
    }

    // Close the trailing timeline window on the end-of-run state and write
    // the file under a stable per-cell name.
    if sys.front().timeline.is_some() {
        let snap = registry(sys, &EngineScope::Window { queue_depth: queue.len(), now: makespan });
        if let Some(mut tl) = sys.front_mut().timeline.take() {
            tl.finish(snap);
            let label = sys.timeline_label();
            match tl.write(&label) {
                Ok(path) => ndpx_info!("timeline for {label} written to {}", path.display()),
                Err(e) => ndpx_warn!("failed to write timeline for {label}: {e}"),
            }
        }
    }
    RunTotals { makespan, ops: total_ops, queue: queue.stats() }
}

/// The run-ahead horizons `(W, P)`, `W ≤ P`, given the queue's next pending
/// event at `peek`. Both are [`Time::ZERO`] with batching off, which is the
/// per-op loop.
#[inline]
fn horizons<S: Simulated>(sys: &S, peek: Option<Time>) -> (Time, Time) {
    let fe = sys.front();
    if !fe.batch {
        return (Time::ZERO, Time::ZERO);
    }
    // Boundary actions and timeline windows: no reconfiguration, failure
    // or snapshot may see an op from its future.
    let mut horizon = sys.boundary_horizon();
    if let Some(tl) = fe.timeline.as_deref() {
        horizon = horizon.min(tl.next_boundary());
    }
    let window = peek.map_or(horizon, |m| m.min(horizon));
    // The trace ring keeps insertion order, so while a trace is attached
    // no op may run ahead of the queue: `P` shuts to `W`.
    (window, if fe.trace.is_some() { window } else { horizon })
}

/// The front end's and the system's stats under `view`: a timeline
/// window's cumulative snapshot, or the end-of-run dump.
pub(crate) fn registry<S: Simulated>(sys: &S, view: &EngineScope<'_>) -> StatRegistry {
    let mut reg = StatRegistry::new();
    sys.front().register(&mut reg, view);
    sys.register(&mut reg, view);
    reg
}
