//! Discrete-event scheduling.
//!
//! The simulator advances by always processing the earliest pending event.
//! [`EventQueue`] is a time-ordered priority queue with a deterministic
//! tiebreak (FIFO among equal timestamps), which keeps whole-system runs
//! reproducible bit-for-bit.
//!
//! Two implementations sit behind the one [`EventQueue`] front:
//!
//! * [`QueueImpl::Wheel`] (default) — a hierarchical time-wheel (calendar
//!   queue): fixed-tick buckets over a near horizon with a 256-bit
//!   occupancy bitmap, a `BTreeMap` overflow tree for far-future events,
//!   and slab/arena event slots with generation counters so no event ever
//!   takes a per-push allocation once the slab is warm.
//! * [`QueueImpl::Heap`] — the reference `BinaryHeap` implementation,
//!   retained for one release behind `NDPX_QUEUE=heap` as a differential
//!   oracle and escape hatch.
//!
//! Both produce the exact same pop order for any push sequence (pinned by
//! the differential property test in `tests/prop_sim.rs`), so switching
//! implementations can never change a simulated result.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::OnceLock;

use crate::time::Time;

struct Entry<T> {
    time: Time,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which queue implementation backs an [`EventQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueImpl {
    /// Hierarchical time-wheel with arena event slots (default).
    Wheel,
    /// Reference `BinaryHeap` (the pre-time-wheel implementation).
    Heap,
}

impl QueueImpl {
    /// The implementation selected by `NDPX_QUEUE` (`heap` selects the
    /// reference heap; anything else — including unset — selects the
    /// wheel). The choice is read once per process.
    pub fn from_env() -> Self {
        static CHOICE: OnceLock<QueueImpl> = OnceLock::new();
        *CHOICE.get_or_init(|| Self::parse(crate::knobs::QUEUE.raw().as_deref()))
    }

    /// Pure form of the `NDPX_QUEUE` parse for tests.
    pub fn parse(v: Option<&str>) -> Self {
        match v.map(str::trim) {
            Some(s) if s.eq_ignore_ascii_case("heap") => QueueImpl::Heap,
            _ => QueueImpl::Wheel,
        }
    }

    /// Short stable name for reports (`"wheel"` / `"heap"`).
    pub fn name(self) -> &'static str {
        match self {
            QueueImpl::Wheel => "wheel",
            QueueImpl::Heap => "heap",
        }
    }
}

/// Maximum ops a run loop may execute per run-ahead batch before it
/// returns to the queue. Purely a liveness bound: it keeps the progress
/// watchdog (which observes once per batch) firing within a bounded
/// number of ops when simulated time freezes, and it cannot change
/// results — a batch cut short re-enters the queue at the issue time of
/// its next op with the core as the equal-time rank, exactly where the
/// per-op loop would have it. That holds for both run-ahead horizons the
/// system loops use: the shared window below the queue's next pending
/// event, and the private horizon past it, in which only ops that touch
/// the core's own state (compute and L1 hits) run.
pub const BATCH_CAP: u64 = 1024;

/// Number of log2 batch-length classes tracked in [`BatchStats`]
/// (`1, 2–3, 4–7, …, ≥128`).
pub const BATCH_CLASSES: usize = 8;

/// Telemetry for a run loop's run-ahead batches.
///
/// A batch is the ops one core executes per queue event; length 1 means
/// the loop degenerated to the historical per-op behaviour (and with
/// batching disabled every batch has length 1). Fast hits count ops that
/// completed through the inlined L1-hit fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Batches executed (outer run-loop iterations).
    pub batches: u64,
    /// Total ops across all batches.
    pub ops: u64,
    /// Ops that completed through the inlined L1-hit fast path.
    pub fast_hits: u64,
    /// Longest batch observed.
    pub max_len: u64,
    /// Log2 batch-length histogram: class `i` counts batches of length
    /// `2^i ..= 2^(i+1) - 1` (the last class saturates).
    pub len_hist: [u64; BATCH_CLASSES],
}

impl BatchStats {
    /// Records one completed batch of `len` ops, `fast` of which took the
    /// fast path.
    #[inline]
    pub fn record(&mut self, len: u64, fast: u64) {
        self.batches += 1;
        self.ops += len;
        self.fast_hits += fast;
        if len > self.max_len {
            self.max_len = len;
        }
        let class = (63 - len.max(1).leading_zeros() as usize).min(BATCH_CLASSES - 1);
        self.len_hist[class] += 1;
    }

    /// Mean ops per batch (0 when nothing ran).
    pub fn mean_len(&self) -> f64 {
        if self.batches > 0 {
            self.ops as f64 / self.batches as f64
        } else {
            0.0
        }
    }

    /// Fraction of ops that completed through the fast path.
    pub fn fast_hit_ratio(&self) -> f64 {
        if self.ops > 0 {
            self.fast_hits as f64 / self.ops as f64
        } else {
            0.0
        }
    }
}

/// Snapshot of an [`EventQueue`]'s telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Implementation name (`"wheel"` / `"heap"`).
    pub impl_name: &'static str,
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Total events ever processed.
    pub processed: u64,
    /// High-water mark of pending events.
    pub peak_depth: u64,
    /// Events that went through the far-future overflow tree (wheel only).
    pub overflow_scheduled: u64,
    /// Bucket-occupancy histogram: `bucket_occupancy[i]` counts near-wheel
    /// inserts that brought their bucket to `i + 1` resident events (the
    /// last class saturates). All zero under the heap implementation.
    pub bucket_occupancy: [u64; OCC_CLASSES],
}

/// Number of bucket-occupancy classes tracked in [`QueueStats`].
pub const OCC_CLASSES: usize = 8;

/// Sentinel slot index for "no slot".
const NIL: u32 = u32::MAX;
/// log2 of the wheel tick in picoseconds (512 ps per bucket). Ticks are
/// deliberately finer than the shortest simulated latency so that the
/// handful of in-flight events (one per core) land in *distinct* buckets:
/// the min scan then walks a one-element chain instead of sorting through
/// a shared bucket on every pop.
const TICK_SHIFT: u32 = 9;
/// Number of near-horizon buckets (horizon = `BUCKETS << TICK_SHIFT` ≈ 1 µs).
const BUCKETS: usize = 2048;
/// Occupancy bitmap words.
const WORDS: usize = BUCKETS / 64;

/// One arena slot. Free slots are chained through `next` on the free list;
/// live slots are chained through `next` within their bucket (or an
/// overflow duplicate chain). `gen` counts reuses of the slot, guarding
/// stale-index bugs in debug builds.
struct Slot<T> {
    time: Time,
    seq: u64,
    next: u32,
    gen: u32,
    payload: Option<T>,
}

/// Hierarchical time-wheel (calendar queue) keyed by `(time, seq)`.
///
/// Near-future events (within `BUCKETS` ticks of the wheel base) live in
/// fixed-tick buckets: intrusive singly-linked chains through the slot
/// arena, with a bitmap marking non-empty buckets. Far-future events live
/// in an overflow `BTreeMap` keyed by `(time_ps, seq)` and cascade into
/// the buckets when the wheel advances past the current horizon. Events
/// earlier than the wheel base (legal, if unusual) clamp into bucket 0,
/// which is always scanned first.
///
/// Determinism contract: `pop` returns the minimum `(time, seq)` key;
/// among exact duplicates, insertion order (FIFO). The per-bucket min scan
/// uses `<=` so the oldest of equal keys — deepest in the head-inserted
/// chain — wins.
struct TimeWheel<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    /// Head slot of each bucket chain (`NIL` when empty).
    buckets: [u32; BUCKETS],
    /// Resident events per bucket, saturating (stats only).
    bucket_len: [u8; BUCKETS],
    /// One bit per non-empty bucket.
    occ: [u64; WORDS],
    /// Lower bound on the first occupied word of `occ`: words below it are
    /// known empty. Advanced by the min scan (a `Cell` so the `&self` scan
    /// can record progress), pulled back by out-of-order inserts, reset on
    /// rebase. Makes repeated min scans O(1) amortized as the wheel drains
    /// front to back.
    scan_from: std::cell::Cell<usize>,
    /// Memoized [`find_min`](Self::find_min) result, so a `peek_time`
    /// followed by a fused `push_pop` costs one chain scan, not two.
    /// Invalidated on removal; kept coherent across inserts (a strictly
    /// smaller key replaces it, a head insert into its bucket fixes
    /// `prev`). A `Cell` so the `&self` scan can memoize.
    cached_min: std::cell::Cell<Option<FoundMin>>,
    /// Tick index (`time_ps >> TICK_SHIFT`) of bucket 0.
    base: u64,
    near_len: usize,
    overflow: BTreeMap<(u64, u64), u32>,
    overflow_len: usize,
}

/// Location of the minimum-key event in the near wheel.
#[derive(Clone, Copy)]
struct FoundMin {
    bucket: usize,
    idx: u32,
    /// Predecessor in the bucket chain (`NIL` if `idx` is the head).
    prev: u32,
    time: Time,
    seq: u64,
}

impl<T> TimeWheel<T> {
    fn new() -> Self {
        TimeWheel {
            slots: Vec::new(),
            free_head: NIL,
            buckets: [NIL; BUCKETS],
            bucket_len: [0; BUCKETS],
            occ: [0; WORDS],
            scan_from: std::cell::Cell::new(0),
            cached_min: std::cell::Cell::new(None),
            base: 0,
            near_len: 0,
            overflow: BTreeMap::new(),
            overflow_len: 0,
        }
    }

    fn len(&self) -> usize {
        self.near_len + self.overflow_len
    }

    /// Takes a slot from the free list (or grows the arena) and fills it.
    fn alloc(&mut self, time: Time, seq: u64, payload: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            self.free_head = slot.next;
            slot.time = time;
            slot.seq = seq;
            slot.next = NIL;
            slot.payload = Some(payload);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot { time, seq, next: NIL, gen: 0, payload: Some(payload) });
            idx
        }
    }

    /// Returns a slot to the free list, bumping its generation, and takes
    /// the payload out.
    fn free(&mut self, idx: u32) -> (Time, T) {
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.payload.is_some(), "freeing an empty slot (stale index?)");
        let payload = slot.payload.take().expect("live slot has a payload");
        let time = slot.time;
        slot.gen = slot.gen.wrapping_add(1);
        slot.next = self.free_head;
        self.free_head = idx;
        (time, payload)
    }

    /// Inserts an already-allocated slot. Returns the occupancy class of
    /// the receiving bucket (`OCC_CLASSES` for overflow inserts) so the
    /// caller can update stats.
    fn insert_slot(&mut self, idx: u32) -> usize {
        let (time, seq) = {
            let s = &self.slots[idx as usize];
            (s.time, s.seq)
        };
        let tick = time.as_ps() >> TICK_SHIFT;
        if self.near_len == 0 && self.overflow.is_empty() {
            // Empty queue: rebase for free so the event lands in-range.
            self.base = tick;
            self.scan_from.set(0);
        }
        let rel = tick.saturating_sub(self.base);
        if rel >= BUCKETS as u64 {
            self.insert_overflow(idx, time, seq);
            return OCC_CLASSES;
        }
        let b = rel as usize;
        self.slots[idx as usize].next = self.buckets[b];
        self.buckets[b] = idx;
        self.occ[b / 64] |= 1u64 << (b % 64);
        if b / 64 < self.scan_from.get() {
            self.scan_from.set(b / 64);
        }
        self.bucket_len[b] = self.bucket_len[b].saturating_add(1);
        self.near_len += 1;
        match self.cached_min.get() {
            Some(c) if (time, seq) < (c.time, c.seq) => {
                // Strictly smaller key: the new head of bucket `b` is now
                // the min. (On an exact tie the resident event keeps
                // winning — FIFO — so the cache stays as-is.)
                self.cached_min.set(Some(FoundMin { bucket: b, idx, prev: NIL, time, seq }));
            }
            Some(c) if b == c.bucket && c.prev == NIL => {
                // Head insert in front of the cached min: it gained a
                // predecessor. Deeper nodes keep their `prev` unchanged.
                self.cached_min.set(Some(FoundMin { prev: idx, ..c }));
            }
            None if self.near_len == 1 => {
                // First near event is trivially the min.
                self.cached_min.set(Some(FoundMin { bucket: b, idx, prev: NIL, time, seq }));
            }
            _ => {}
        }
        (usize::from(self.bucket_len[b]) - 1).min(OCC_CLASSES - 1)
    }

    fn insert_overflow(&mut self, idx: u32, time: Time, seq: u64) {
        let key = (time.as_ps(), seq);
        match self.overflow.get_mut(&key) {
            None => {
                self.overflow.insert(key, idx);
            }
            Some(head) => {
                // Exact-duplicate key: append at the chain tail so the
                // chain stays oldest-first (FIFO on cascade).
                let mut cur = *head;
                loop {
                    let next = self.slots[cur as usize].next;
                    if next == NIL {
                        break;
                    }
                    cur = next;
                }
                self.slots[cur as usize].next = idx;
            }
        }
        self.overflow_len += 1;
    }

    /// Moves the earliest overflow window into the near buckets. Returns
    /// false when the whole queue is empty.
    fn refill(&mut self) -> bool {
        debug_assert_eq!(self.near_len, 0, "refill with resident near events");
        let Some((&(first_ps, _), _)) = self.overflow.first_key_value() else {
            return false;
        };
        self.base = first_ps >> TICK_SHIFT;
        self.scan_from.set(0);
        let limit_ps = (self.base + BUCKETS as u64) << TICK_SHIFT;
        let rest = self.overflow.split_off(&(limit_ps, 0));
        let drained = std::mem::replace(&mut self.overflow, rest);
        for (_, head) in drained {
            let mut cur = head;
            while cur != NIL {
                let next = self.slots[cur as usize].next;
                self.slots[cur as usize].next = NIL;
                self.overflow_len -= 1;
                self.insert_slot(cur);
                cur = next;
            }
        }
        debug_assert!(self.near_len > 0, "refill produced no near events");
        true
    }

    /// Locates the minimum `(time, seq)` event in the near wheel.
    /// Requires `near_len > 0`.
    fn find_min(&self) -> FoundMin {
        debug_assert!(self.near_len > 0, "find_min on an empty wheel");
        if let Some(m) = self.cached_min.get() {
            return m;
        }
        let mut b = 0usize;
        for (w, &word) in self.occ.iter().enumerate().skip(self.scan_from.get()) {
            if word != 0 {
                b = w * 64 + word.trailing_zeros() as usize;
                self.scan_from.set(w);
                break;
            }
        }
        let head = self.buckets[b];
        debug_assert_ne!(head, NIL, "occupancy bit set on an empty bucket");
        let mut best = FoundMin {
            bucket: b,
            idx: head,
            prev: NIL,
            time: self.slots[head as usize].time,
            seq: self.slots[head as usize].seq,
        };
        let mut prev = head;
        let mut cur = self.slots[head as usize].next;
        while cur != NIL {
            let s = &self.slots[cur as usize];
            // `<=` so the last of exact-duplicate keys wins: chains insert
            // at the head, so the deepest duplicate is the oldest (FIFO).
            if (s.time, s.seq) <= (best.time, best.seq) {
                best.idx = cur;
                best.prev = prev;
                best.time = s.time;
                best.seq = s.seq;
            }
            prev = cur;
            cur = s.next;
        }
        self.cached_min.set(Some(best));
        best
    }

    /// The minimum pending key without mutation, or `None` when empty.
    /// Near events always precede overflow events in key order.
    fn min_key(&self) -> Option<(Time, u64)> {
        if self.near_len > 0 {
            let m = self.find_min();
            Some((m.time, m.seq))
        } else {
            self.overflow.first_key_value().map(|(&(ps, seq), _)| (Time::from_ps(ps), seq))
        }
    }

    /// Unlinks a located min from its bucket chain and frees the slot.
    fn remove(&mut self, m: &FoundMin) -> (Time, T) {
        self.cached_min.set(None);
        let next = self.slots[m.idx as usize].next;
        if m.prev == NIL {
            self.buckets[m.bucket] = next;
        } else {
            self.slots[m.prev as usize].next = next;
        }
        if self.buckets[m.bucket] == NIL {
            self.occ[m.bucket / 64] &= !(1u64 << (m.bucket % 64));
        }
        self.bucket_len[m.bucket] = self.bucket_len[m.bucket].saturating_sub(1);
        self.near_len -= 1;
        self.free(m.idx)
    }

    fn pop(&mut self) -> Option<(Time, T)> {
        if self.near_len == 0 && !self.refill() {
            return None;
        }
        let m = self.find_min();
        Some(self.remove(&m))
    }
}

/// A deterministic time-ordered event queue.
///
/// Events with equal timestamps pop in insertion order.
///
/// # Examples
///
/// ```
/// use ndpx_sim::engine::EventQueue;
/// use ndpx_sim::time::Time;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_ns(5), "late");
/// q.push(Time::from_ns(1), "early");
/// assert_eq!(q.pop(), Some((Time::from_ns(1), "early")));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    core: QueueCore<T>,
    next_seq: u64,
    scheduled: u64,
    processed: u64,
    peak_len: usize,
    overflow_scheduled: u64,
    occ_hist: [u64; OCC_CLASSES],
    /// Tiebreak space in use; guards the documented footgun that mixing
    /// `push` (FIFO seq) and `push_ranked` (caller rank) interleaves two
    /// incompatible tiebreak spaces. Checked under `debug_assertions`.
    mode: Option<TiebreakMode>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TiebreakMode {
    Fifo,
    Ranked,
}

enum QueueCore<T> {
    // Boxed: the wheel's inline bucket arrays are ~10 kB, far larger than
    // the heap variant, and a queue moves by value at construction.
    Wheel(Box<TimeWheel<T>>),
    Heap(BinaryHeap<Entry<T>>),
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue backed by the process-wide implementation
    /// choice ([`QueueImpl::from_env`]).
    pub fn new() -> Self {
        Self::with_impl(QueueImpl::from_env())
    }

    /// Creates an empty queue backed by a specific implementation. Both
    /// implementations are observably identical; this exists for
    /// differential tests and micro-benchmarks.
    pub fn with_impl(choice: QueueImpl) -> Self {
        let core = match choice {
            QueueImpl::Wheel => QueueCore::Wheel(Box::new(TimeWheel::new())),
            QueueImpl::Heap => QueueCore::Heap(BinaryHeap::new()),
        };
        EventQueue {
            core,
            next_seq: 0,
            scheduled: 0,
            processed: 0,
            peak_len: 0,
            overflow_scheduled: 0,
            occ_hist: [0; OCC_CLASSES],
            mode: None,
        }
    }

    /// The implementation backing this queue.
    pub fn impl_kind(&self) -> QueueImpl {
        match self.core {
            QueueCore::Wheel(_) => QueueImpl::Wheel,
            QueueCore::Heap(_) => QueueImpl::Heap,
        }
    }

    #[inline]
    fn note_depth(&mut self) {
        let len = self.len();
        if len > self.peak_len {
            self.peak_len = len;
        }
    }

    #[inline]
    fn note_mode(&mut self, mode: TiebreakMode) {
        if cfg!(debug_assertions) {
            debug_assert!(
                self.mode
                    != Some(match mode {
                        TiebreakMode::Fifo => TiebreakMode::Ranked,
                        TiebreakMode::Ranked => TiebreakMode::Fifo,
                    }),
                "EventQueue tiebreak modes mixed: push (FIFO seq) and push_ranked \
                 (explicit rank) interleave incompatible tiebreak spaces in one queue"
            );
            self.mode = Some(mode);
        }
    }

    #[inline]
    fn insert(&mut self, time: Time, seq: u64, payload: T) {
        match &mut self.core {
            QueueCore::Wheel(w) => {
                let idx = w.alloc(time, seq, payload);
                let class = w.insert_slot(idx);
                if class == OCC_CLASSES {
                    self.overflow_scheduled += 1;
                } else {
                    self.occ_hist[class] += 1;
                }
            }
            QueueCore::Heap(h) => h.push(Entry { time, seq, payload }),
        }
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: Time, payload: T) {
        self.note_mode(TiebreakMode::Fifo);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.insert(time, seq, payload);
        self.note_depth();
    }

    /// Schedules `payload` at `time` with an explicit equal-time tiebreak
    /// `rank` (lower pops first) in place of the insertion-order sequence
    /// number. Use when events carry a natural priority — e.g. a core
    /// index — that must be stable regardless of insertion interleaving.
    /// Mixing ranked and FIFO pushes in one queue is not meaningful and
    /// panics in debug builds.
    pub fn push_ranked(&mut self, time: Time, rank: u64, payload: T) {
        self.note_mode(TiebreakMode::Ranked);
        self.scheduled += 1;
        self.insert(time, rank, payload);
        self.note_depth();
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let out = match &mut self.core {
            QueueCore::Wheel(w) => w.pop(),
            QueueCore::Heap(h) => h.pop().map(|e| (e.time, e.payload)),
        };
        self.processed += out.is_some() as u64;
        out
    }

    /// [`push`](Self::push) fused with [`pop`](Self::pop): schedules the
    /// event and returns the earliest pending one.
    ///
    /// Equivalent to `push(time, payload)` followed by `pop().unwrap()`,
    /// but when the new event pops right back out it never touches the
    /// queue structure. This is the hot operation of a run loop where each
    /// completed event immediately schedules its successor.
    pub fn push_pop(&mut self, time: Time, payload: T) -> (Time, T) {
        self.note_mode(TiebreakMode::Fifo);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_pop_keyed(time, seq, payload)
    }

    /// [`push_ranked`](Self::push_ranked) fused with [`pop`](Self::pop),
    /// with the same fast path as [`push_pop`](Self::push_pop).
    pub fn push_pop_ranked(&mut self, time: Time, rank: u64, payload: T) -> (Time, T) {
        self.note_mode(TiebreakMode::Ranked);
        self.push_pop_keyed(time, rank, payload)
    }

    fn push_pop_keyed(&mut self, time: Time, seq: u64, payload: T) -> (Time, T) {
        self.scheduled += 1;
        self.processed += 1;
        // Neither arm below changes the queue length, so the peak depth
        // cannot move here.
        match &mut self.core {
            QueueCore::Wheel(w) => {
                if w.near_len == 0 && w.overflow_len > 0 {
                    // Pull the overflow window in so min comparison and a
                    // possible removal both work on the near wheel.
                    w.refill();
                }
                if w.near_len > 0 {
                    let m = w.find_min();
                    // Ties go to the pending min — its (time, seq) is
                    // lower or equal.
                    if (m.time, m.seq) <= (time, seq) {
                        let out = w.remove(&m);
                        let idx = w.alloc(time, seq, payload);
                        let class = w.insert_slot(idx);
                        if class == OCC_CLASSES {
                            self.overflow_scheduled += 1;
                        } else {
                            self.occ_hist[class] += 1;
                        }
                        return out;
                    }
                }
                // The new event is the earliest: it would pop immediately.
                (time, payload)
            }
            QueueCore::Heap(h) => {
                let e = Entry { time, seq, payload };
                match h.peek_mut() {
                    // The pending top pops before the new event: replace it
                    // in place (`PeekMut` sifts the replacement down on
                    // drop). Ties go to the top — its (time, seq) is lower
                    // or equal.
                    Some(mut top) if (top.time, top.seq) <= (e.time, e.seq) => {
                        let out = std::mem::replace(&mut *top, e);
                        (out.time, out.payload)
                    }
                    // The new event is the earliest: it would pop immediately.
                    _ => (e.time, e.payload),
                }
            }
        }
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        match &self.core {
            QueueCore::Wheel(w) => w.min_key().map(|(t, _)| t),
            QueueCore::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.core {
            QueueCore::Wheel(w) => w.len(),
            QueueCore::Heap(h) => h.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (fused push-pops included).
    pub fn scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events ever processed (fused push-pops included).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// High-water mark of pending events.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Snapshot of all telemetry counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            impl_name: self.impl_kind().name(),
            scheduled: self.scheduled,
            processed: self.processed,
            peak_depth: self.peak_len as u64,
            overflow_scheduled: self.overflow_scheduled,
            bucket_occupancy: self.occ_hist,
        }
    }
}

/// Diagnostic emitted by [`ProgressWatchdog`] when the run loop spins
/// without making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stall {
    /// The frozen simulated time.
    pub at: Time,
    /// Consecutive loop iterations with neither time nor depth moving.
    pub iterations: u64,
    /// The frozen pending-event depth.
    pub queue_depth: usize,
}

impl std::fmt::Display for Stall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no progress for {} iterations: sim time frozen at {} with {} pending events",
            self.iterations, self.at, self.queue_depth
        )
    }
}

/// A no-progress detector for event-driven run loops.
///
/// A healthy run loop either advances simulated time or changes the pending
/// queue depth on (almost) every iteration. A loop that pops and re-pushes
/// events at a frozen timestamp with a frozen depth for a very large number
/// of iterations is livelocked — e.g. a component rescheduling itself at
/// `now` forever. The watchdog observes `(time, depth)` each iteration and
/// fires a structured [`Stall`] once when the freeze exceeds the limit; it
/// never touches simulation state, so enabling it cannot change results.
///
/// # Examples
///
/// ```
/// use ndpx_sim::engine::ProgressWatchdog;
/// use ndpx_sim::time::Time;
///
/// let mut dog = ProgressWatchdog::new(3);
/// let t = Time::from_ns(5);
/// assert!(dog.observe(t, 4).is_none());
/// assert!(dog.observe(t, 4).is_none());
/// assert!(dog.observe(t, 4).is_none());
/// let stall = dog.observe(t, 4).expect("limit exceeded");
/// assert_eq!(stall.iterations, 3);
/// ```
#[derive(Debug, Clone)]
pub struct ProgressWatchdog {
    limit: u64,
    last: Option<(Time, usize)>,
    frozen: u64,
    fired: bool,
}

impl ProgressWatchdog {
    /// Iteration limit used by [`from_env`](Self::from_env) when
    /// `NDPX_STALL_ITERS` is unset. Far above any legitimate same-time
    /// event burst at the scales the harness runs.
    pub const DEFAULT_LIMIT: u64 = 4_000_000;

    /// Creates a watchdog firing after `limit` frozen iterations.
    /// A limit of zero disables it.
    pub fn new(limit: u64) -> Self {
        ProgressWatchdog { limit, last: None, frozen: 0, fired: false }
    }

    /// Creates a watchdog from `NDPX_STALL_ITERS` (`0` disables; unset or
    /// unparsable uses [`DEFAULT_LIMIT`](Self::DEFAULT_LIMIT)).
    pub fn from_env() -> Self {
        Self::new(Self::parse_limit(crate::knobs::STALL_ITERS.raw().as_deref()))
    }

    /// Pure form of the `NDPX_STALL_ITERS` parse for tests.
    pub fn parse_limit(v: Option<&str>) -> u64 {
        v.and_then(|s| s.trim().parse().ok()).unwrap_or(Self::DEFAULT_LIMIT)
    }

    /// Records one loop iteration at simulated time `now` with `depth`
    /// pending events. Returns a [`Stall`] exactly once, the first time the
    /// freeze limit is exceeded.
    #[inline]
    pub fn observe(&mut self, now: Time, depth: usize) -> Option<Stall> {
        if self.limit == 0 || self.fired {
            return None;
        }
        if self.last == Some((now, depth)) {
            self.frozen += 1;
            if self.frozen >= self.limit {
                self.fired = true;
                return Some(Stall { at: now, iterations: self.frozen, queue_depth: depth });
            }
        } else {
            self.last = Some((now, depth));
            self.frozen = 0;
        }
        None
    }

    /// True once the stall diagnostic has fired.
    pub fn fired(&self) -> bool {
        self.fired
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("impl", &self.impl_kind().name())
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [EventQueue<i32>; 2] {
        [EventQueue::with_impl(QueueImpl::Wheel), EventQueue::with_impl(QueueImpl::Heap)]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.push(Time::from_ns(30), 3);
            q.push(Time::from_ns(10), 1);
            q.push(Time::from_ns(20), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, vec![1, 2, 3]);
        }
    }

    #[test]
    fn equal_times_are_fifo() {
        for mut q in both() {
            let t = Time::from_ns(7);
            for i in 0..100 {
                q.push(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        for mut q in both() {
            // Spread far beyond the near horizon (≈1 µs): exercises the
            // overflow tree and the cascade back into the buckets.
            q.push(Time::from_us(50), 5);
            q.push(Time::from_ns(1), 1);
            q.push(Time::from_us(5), 3);
            q.push(Time::from_us(5) + Time::from_ps(1), 4);
            q.push(Time::from_ns(900), 2);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
            assert_eq!(order, vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn push_pop_matches_push_then_pop() {
        use crate::rng::Xoshiro256;
        for choice in [QueueImpl::Wheel, QueueImpl::Heap] {
            let mut rng = Xoshiro256::seed_from(0xE0E0);
            for _ in 0..64 {
                let mut fast = EventQueue::with_impl(choice);
                let mut slow = EventQueue::with_impl(choice);
                // Random pre-population, including duplicate timestamps.
                for i in 0..(1 + rng.below(20)) {
                    let t = Time::from_ns(rng.below(16));
                    fast.push(t, i);
                    slow.push(t, i);
                }
                for i in 100..150 {
                    let t = Time::from_ns(rng.below(16));
                    let a = fast.push_pop(t, i);
                    slow.push(t, i);
                    let b = slow.pop().expect("non-empty");
                    assert_eq!(a, b);
                }
                // Drain both: the remaining contents must agree too.
                loop {
                    match (fast.pop(), slow.pop()) {
                        (None, None) => break,
                        (a, b) => assert_eq!(a, b),
                    }
                }
            }
        }
    }

    #[test]
    fn ranked_pushes_order_by_rank_not_insertion() {
        for mut q in
            [EventQueue::with_impl(QueueImpl::Wheel), EventQueue::with_impl(QueueImpl::Heap)]
        {
            let t = Time::from_ns(5);
            q.push_ranked(t, 7, "late");
            q.push_ranked(t, 2, "early");
            q.push_ranked(Time::from_ns(1), 9, "first");
            assert_eq!(q.pop(), Some((Time::from_ns(1), "first")));
            assert_eq!(q.pop(), Some((t, "early")));
            assert_eq!(q.pop(), Some((t, "late")));
        }
    }

    #[test]
    fn push_pop_ranked_matches_ranked_push_then_pop() {
        use crate::rng::Xoshiro256;
        for choice in [QueueImpl::Wheel, QueueImpl::Heap] {
            let mut rng = Xoshiro256::seed_from(0x0A3B);
            for _ in 0..64 {
                let mut fast = EventQueue::with_impl(choice);
                let mut slow = EventQueue::with_impl(choice);
                // Model the run loops: each rank (core) has one pending event.
                let ranks = 1 + rng.below(12);
                for r in 0..ranks {
                    let t = Time::from_ns(rng.below(8));
                    fast.push_ranked(t, r, r);
                    slow.push_ranked(t, r, r);
                }
                let (mut tf, mut rf) = fast.pop().expect("non-empty");
                let (ts, rs) = slow.pop().expect("non-empty");
                assert_eq!((tf, rf), (ts, rs));
                for _ in 0..200 {
                    let t = tf + Time::from_ns(rng.below(8));
                    let a = fast.push_pop_ranked(t, rf, rf);
                    slow.push_ranked(t, rf, rf);
                    let b = slow.pop().expect("non-empty");
                    assert_eq!(a, b);
                    (tf, rf) = a;
                }
            }
        }
    }

    #[test]
    fn push_pop_on_empty_returns_the_event() {
        for choice in [QueueImpl::Wheel, QueueImpl::Heap] {
            let mut q: EventQueue<u8> = EventQueue::with_impl(choice);
            assert_eq!(q.push_pop(Time::from_ns(3), 1), (Time::from_ns(3), 1));
            assert!(q.is_empty());
        }
    }

    #[test]
    fn telemetry_counters() {
        for mut q in both() {
            q.push(Time::from_ns(1), 1);
            q.push(Time::from_ns(2), 2);
            q.push(Time::from_ns(3), 3);
            assert_eq!(q.peak_len(), 3);
            q.pop();
            // Fused ops count as one scheduled and one processed each.
            q.push_pop(Time::from_ns(4), 4);
            assert_eq!(q.scheduled(), 4);
            assert_eq!(q.processed(), 2);
            assert_eq!(q.peak_len(), 3);
            let stats = q.stats();
            assert_eq!(stats.scheduled, 4);
            assert_eq!(stats.processed, 2);
            assert_eq!(stats.peak_depth, 3);
        }
    }

    #[test]
    fn wheel_records_bucket_occupancy() {
        let mut q = EventQueue::with_impl(QueueImpl::Wheel);
        // Same tick: occupancy classes 1, 2, 3.
        q.push(Time::from_ps(1), 1);
        q.push(Time::from_ps(2), 2);
        q.push(Time::from_ps(3), 3);
        // Far future: overflow.
        q.push(Time::from_us(100), 4);
        let stats = q.stats();
        assert_eq!(stats.impl_name, "wheel");
        assert_eq!(stats.bucket_occupancy[0], 1);
        assert_eq!(stats.bucket_occupancy[1], 1);
        assert_eq!(stats.bucket_occupancy[2], 1);
        assert_eq!(stats.overflow_scheduled, 1);
        // Heap reports no occupancy.
        let h = EventQueue::<i32>::with_impl(QueueImpl::Heap);
        assert_eq!(h.stats().impl_name, "heap");
        assert_eq!(h.stats().bucket_occupancy, [0; OCC_CLASSES]);
    }

    #[test]
    fn queue_impl_parse() {
        assert_eq!(QueueImpl::parse(None), QueueImpl::Wheel);
        assert_eq!(QueueImpl::parse(Some("heap")), QueueImpl::Heap);
        assert_eq!(QueueImpl::parse(Some(" HEAP ")), QueueImpl::Heap);
        assert_eq!(QueueImpl::parse(Some("wheel")), QueueImpl::Wheel);
        assert_eq!(QueueImpl::parse(Some("garbage")), QueueImpl::Wheel);
        assert_eq!(QueueImpl::Wheel.name(), "wheel");
        assert_eq!(QueueImpl::Heap.name(), "heap");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tiebreak modes mixed")]
    fn mixing_push_and_push_ranked_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(1), 1);
        q.push_ranked(Time::from_ns(2), 0, 2);
    }

    #[test]
    fn arena_slots_are_reused() {
        let mut q = EventQueue::with_impl(QueueImpl::Wheel);
        for round in 0..1000u64 {
            // Steady-state run-loop shape: depth stays at 4, slots recycle.
            q.push(Time::from_ns(round), round as i32);
            if round >= 4 {
                q.pop().expect("non-empty");
            }
        }
        let QueueCore::Wheel(w) = &q.core else { panic!("wheel queue expected") };
        assert!(w.slots.len() <= 8, "arena grew to {} slots for depth 4", w.slots.len());
        // Recycled slots carry advanced generations.
        assert!(w.slots.iter().any(|s| s.gen > 0), "no slot was ever reused");
    }

    #[test]
    fn watchdog_fires_once_on_frozen_progress() {
        let mut dog = ProgressWatchdog::new(5);
        let t = Time::from_ns(3);
        for _ in 0..5 {
            assert!(dog.observe(t, 2).is_none());
        }
        let stall = dog.observe(t, 2).expect("frozen past limit");
        assert_eq!(stall, Stall { at: t, iterations: 5, queue_depth: 2 });
        assert!(dog.fired());
        // Fires exactly once, even if the freeze continues.
        assert!(dog.observe(t, 2).is_none());
        let msg = stall.to_string();
        assert!(msg.contains("no progress"), "unhelpful diagnostic: {msg}");
    }

    #[test]
    fn watchdog_resets_on_any_progress() {
        let mut dog = ProgressWatchdog::new(3);
        let t = Time::from_ns(1);
        for i in 0..100u64 {
            // Either time or depth moves every other iteration.
            assert!(dog.observe(t + Time::from_ps(i / 2), (i % 2) as usize).is_none());
        }
        // Zero limit disables entirely.
        let mut off = ProgressWatchdog::new(0);
        for _ in 0..10 {
            assert!(off.observe(t, 1).is_none());
        }
        assert!(!off.fired());
    }

    #[test]
    fn watchdog_limit_parse() {
        assert_eq!(ProgressWatchdog::parse_limit(None), ProgressWatchdog::DEFAULT_LIMIT);
        assert_eq!(ProgressWatchdog::parse_limit(Some("123")), 123);
        assert_eq!(ProgressWatchdog::parse_limit(Some("0")), 0);
        assert_eq!(ProgressWatchdog::parse_limit(Some("bad")), ProgressWatchdog::DEFAULT_LIMIT);
    }

    #[test]
    fn batch_stats_histogram_and_ratios() {
        let mut b = BatchStats::default();
        b.record(1, 1);
        b.record(3, 0);
        b.record(8, 4);
        b.record(1 << 20, 0); // saturates into the last class
        assert_eq!(b.batches, 4);
        assert_eq!(b.ops, 12 + (1 << 20));
        assert_eq!(b.max_len, 1 << 20);
        assert_eq!(b.len_hist[0], 1); // len 1
        assert_eq!(b.len_hist[1], 1); // len 2-3
        assert_eq!(b.len_hist[3], 1); // len 8-15
        assert_eq!(b.len_hist[BATCH_CLASSES - 1], 1);
        assert!((b.mean_len() - b.ops as f64 / 4.0).abs() < 1e-9);
        assert!((b.fast_hit_ratio() - 5.0 / b.ops as f64).abs() < 1e-12);
        let empty = BatchStats::default();
        assert_eq!(empty.mean_len(), 0.0);
        assert_eq!(empty.fast_hit_ratio(), 0.0);
    }

    #[test]
    fn peek_and_len() {
        for choice in [QueueImpl::Wheel, QueueImpl::Heap] {
            let mut q = EventQueue::with_impl(choice);
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.push(Time::from_ns(2), ());
            q.push(Time::from_ns(1), ());
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
        }
    }

    #[test]
    fn peek_sees_overflow_only_queue() {
        let mut q = EventQueue::with_impl(QueueImpl::Wheel);
        q.push(Time::from_ns(1), 1);
        q.push(Time::from_us(100), 2);
        q.pop();
        // Only the overflow event remains; peek must see through to it.
        assert_eq!(q.peek_time(), Some(Time::from_us(100)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Time::from_us(100), 2)));
    }
}
