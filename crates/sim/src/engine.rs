//! Discrete-event scheduling.
//!
//! The simulator advances by always processing the earliest pending event.
//! [`EventQueue`] is a time-ordered priority queue over
//! `std::collections::BinaryHeap` with one deterministic key,
//! `(time, rank, insertion seq)`: ranks decide equal times, and equal
//! `(time, rank)` pairs pop in insertion order. That keeps whole-system runs
//! reproducible bit-for-bit.
//!
//! The run loop keeps exactly one pending event per core, so the queue's
//! depth is the core count (16 at test scale, at most 128 at paper scale).
//! At that depth a binary heap with a replace-top fast path for the fused
//! [`EventQueue::push_pop_ranked`] measured fastest (DESIGN.md §8).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

struct Entry<T> {
    time: Time,
    rank: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (Time, u64, u64) {
        (self.time, self.rank, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key().cmp(&self.key())
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
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Total events ever processed.
    pub processed: u64,
    /// High-water mark of pending events.
    pub peak_depth: u64,
}

/// A deterministic time-ordered event queue.
///
/// Events pop in `(time, rank, insertion seq)` order: the caller's rank
/// (a core index, in the run loops) breaks equal times, and events with
/// equal time and rank pop in insertion order.
///
/// # Examples
///
/// ```
/// use ndpx_sim::engine::EventQueue;
/// use ndpx_sim::time::Time;
///
/// let mut q = EventQueue::new();
/// q.push_ranked(Time::from_ns(5), 0, "late");
/// q.push_ranked(Time::from_ns(1), 1, "early");
/// q.push_ranked(Time::from_ns(1), 0, "earliest");
/// assert_eq!(q.pop(), Some((Time::from_ns(1), "earliest")));
/// assert_eq!(q.pop(), Some((Time::from_ns(1), "early")));
/// assert_eq!(q.pop(), Some((Time::from_ns(5), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    scheduled: u64,
    processed: u64,
    peak_len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, scheduled: 0, processed: 0, peak_len: 0 }
    }

    /// Keys a new event: the next insertion seq keeps equal `(time, rank)`
    /// pairs FIFO.
    #[inline]
    fn entry(&mut self, time: Time, rank: u64, payload: T) -> Entry<T> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        Entry { time, rank, seq, payload }
    }

    /// Schedules `payload` at `time` with the equal-time tiebreak `rank`
    /// (lower pops first). Use a natural priority — e.g. a core index —
    /// so the order is stable regardless of insertion interleaving.
    pub fn push_ranked(&mut self, time: Time, rank: u64, payload: T) {
        let e = self.entry(time, rank, payload);
        self.heap.push(e);
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Time, T)> {
        let out = self.heap.pop().map(|e| (e.time, e.payload));
        self.processed += out.is_some() as u64;
        out
    }

    /// [`push_ranked`](Self::push_ranked) fused with [`pop`](Self::pop):
    /// schedules the event and returns the earliest pending one.
    ///
    /// When the new event is the earliest it pops right back out without
    /// touching the heap; otherwise it replaces the top in place, one
    /// sift-down instead of a push and a pop. This is the hot operation of
    /// a run loop where each completed event immediately schedules its
    /// successor. The queue length cannot change here, so neither can the
    /// peak depth.
    pub fn push_pop_ranked(&mut self, time: Time, rank: u64, payload: T) -> (Time, T) {
        let e = self.entry(time, rank, payload);
        self.processed += 1;
        match self.heap.peek_mut() {
            // The pending top pops first: its key is smaller (on equal
            // time and rank, its seq is). `PeekMut` sifts the replacement
            // down on drop.
            Some(mut top) if top.key() < e.key() => {
                let out = std::mem::replace(&mut *top, e);
                (out.time, out.payload)
            }
            // The new event is the earliest: it would pop immediately.
            _ => (e.time, e.payload),
        }
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
            scheduled: self.scheduled,
            processed: self.processed,
            peak_depth: self.peak_len as u64,
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
    /// Iteration limit of the systems' `run`. Far above any legitimate
    /// same-time event burst at the scales the harness runs.
    pub const DEFAULT_LIMIT: u64 = 4_000_000;

    /// Creates a watchdog firing after `limit` frozen iterations.
    /// A limit of zero disables it.
    pub fn new(limit: u64) -> Self {
        ProgressWatchdog { limit, last: None, frozen: 0, fired: false }
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
            .field("len", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push_ranked(Time::from_ns(30), 0, 3);
        q.push_ranked(Time::from_ns(10), 0, 1);
        q.push_ranked(Time::from_ns(20), 0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(7);
        for i in 0..100 {
            q.push_ranked(t, 0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        // Times spread from nanoseconds to tens of microseconds order
        // exactly like close ones.
        let mut q = EventQueue::new();
        q.push_ranked(Time::from_us(50), 0, 5);
        q.push_ranked(Time::from_ns(1), 0, 1);
        q.push_ranked(Time::from_us(5), 0, 3);
        q.push_ranked(Time::from_us(5) + Time::from_ps(1), 0, 4);
        q.push_ranked(Time::from_ns(900), 0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn push_pop_matches_push_then_pop() {
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from(0xE0E0);
        for _ in 0..64 {
            let mut fast = EventQueue::new();
            let mut slow = EventQueue::new();
            // Random pre-population from few times and ranks, so equal
            // `(time, rank)` pairs (FIFO among themselves) are common.
            for i in 0..(1 + rng.below(20)) {
                let (t, r) = (Time::from_ns(rng.below(16)), rng.below(3));
                fast.push_ranked(t, r, i);
                slow.push_ranked(t, r, i);
            }
            for i in 100..150 {
                let (t, r) = (Time::from_ns(rng.below(16)), rng.below(3));
                let a = fast.push_pop_ranked(t, r, i);
                slow.push_ranked(t, r, i);
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

    #[test]
    fn ranked_pushes_order_by_rank_not_insertion() {
        let mut q = EventQueue::new();
        let t = Time::from_ns(5);
        q.push_ranked(t, 7, "late");
        q.push_ranked(t, 2, "early");
        q.push_ranked(Time::from_ns(1), 9, "first");
        assert_eq!(q.pop(), Some((Time::from_ns(1), "first")));
        assert_eq!(q.pop(), Some((t, "early")));
        assert_eq!(q.pop(), Some((t, "late")));
    }

    #[test]
    fn push_pop_ranked_matches_ranked_push_then_pop() {
        use crate::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from(0x0A3B);
        for _ in 0..64 {
            let mut fast = EventQueue::new();
            let mut slow = EventQueue::new();
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

    #[test]
    fn push_pop_on_empty_returns_the_event() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.push_pop_ranked(Time::from_ns(3), 0, 1), (Time::from_ns(3), 1));
        assert!(q.is_empty());
    }

    #[test]
    fn telemetry_counters() {
        let mut q = EventQueue::new();
        q.push_ranked(Time::from_ns(1), 0, 1);
        q.push_ranked(Time::from_ns(2), 0, 2);
        q.push_ranked(Time::from_ns(3), 0, 3);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        // Fused ops count as one scheduled and one processed each.
        q.push_pop_ranked(Time::from_ns(4), 0, 4);
        assert_eq!(q.scheduled(), 4);
        assert_eq!(q.processed(), 2);
        assert_eq!(q.peak_len(), 3);
        assert_eq!(q.stats(), QueueStats { scheduled: 4, processed: 2, peak_depth: 3 });
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
    fn watchdog_limit_zero_disables() {
        let t = Time::from_ns(5);
        let mut off = ProgressWatchdog::new(0);
        assert!((0..1_000).all(|_| off.observe(t, 4).is_none()));
        assert!(!off.fired());
        let mut dog = ProgressWatchdog::new(ProgressWatchdog::DEFAULT_LIMIT);
        assert!(
            (0..1_000).all(|_| dog.observe(t, 4).is_none()),
            "the default is far above a burst"
        );
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
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push_ranked(Time::from_ns(2), 0, ());
        q.push_ranked(Time::from_ns(1), 1, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ns(1)));
    }
}
