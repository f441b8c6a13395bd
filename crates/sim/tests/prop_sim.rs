//! Randomized property tests for the simulation substrate: time arithmetic,
//! event ordering, and RNG range guarantees.
//!
//! Cases are driven by the crate's own seeded [`Xoshiro256`] so the suite is
//! deterministic and needs no external property-testing framework (the
//! workspace builds fully offline).

use ndpx_sim::engine::EventQueue;
use ndpx_sim::rng::{hash_range, Xoshiro256};
use ndpx_sim::time::{Freq, Time};

const CASES: u64 = 256;

/// A random event time mixing scales: mostly nanoseconds, sometimes tens
/// of microseconds, with repeated values so equal-time ties occur.
fn mixed_time(rng: &mut Xoshiro256, base: Time) -> Time {
    let t = match rng.below(8) {
        0..=4 => Time::from_ns(rng.below(64)),
        5 => Time::from_ns(rng.below(4)), // dense ties
        6 => Time::from_us(1 + rng.below(40)),
        _ => Time::from_ps(rng.below(1 << 30)),
    };
    base + t
}

/// Linear-scan reference model of [`EventQueue`]: every pop scans for the
/// minimum `(time, rank, insertion seq)`.
#[derive(Default)]
struct Model {
    events: Vec<(Time, u64, u64, u64)>,
    seq: u64,
}

impl Model {
    fn push(&mut self, t: Time, rank: u64, payload: u64) {
        self.events.push((t, rank, self.seq, payload));
        self.seq += 1;
    }

    fn min(&self) -> Option<usize> {
        (0..self.events.len()).min_by_key(|&i| self.events[i])
    }

    fn pop(&mut self) -> Option<(Time, u64)> {
        let (t, _, _, payload) = self.events.remove(self.min()?);
        Some((t, payload))
    }

    fn peek_time(&self) -> Option<Time> {
        self.min().map(|i| self.events[i].0)
    }
}

#[test]
fn time_addition_is_commutative_and_monotonic() {
    let mut rng = Xoshiro256::seed_from(0xA11CE);
    for _ in 0..CASES {
        let a = rng.below(1 << 40);
        let b = rng.below(1 << 40);
        let ta = Time::from_ps(a);
        let tb = Time::from_ps(b);
        assert_eq!(ta + tb, tb + ta);
        assert!(ta + tb >= ta);
        assert_eq!((ta + tb) - tb, ta);
        assert_eq!(ta.max(tb).min(ta), ta.min(tb).max(ta));
    }
}

#[test]
fn saturating_sub_never_underflows() {
    let mut rng = Xoshiro256::seed_from(0xB0B);
    for _ in 0..CASES {
        let a = rng.below(1 << 40);
        let b = rng.below(1 << 40);
        let d = Time::from_ps(a).saturating_sub(Time::from_ps(b));
        assert_eq!(d.as_ps(), a.saturating_sub(b));
    }
}

#[test]
fn cycle_conversions_round_trip() {
    let mut rng = Xoshiro256::seed_from(0xC1C);
    for _ in 0..CASES {
        let mhz = 1 + rng.below(4999);
        let cycles = rng.below(1 << 24);
        let f = Freq::from_mhz(mhz);
        let t = f.cycles_to_time(cycles);
        assert_eq!(f.time_to_cycles(t), cycles);
    }
}

#[test]
fn event_queue_pops_sorted_and_stable() {
    let mut rng = Xoshiro256::seed_from(0xE7E);
    for _ in 0..64 {
        let n = 1 + rng.below(200) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push_ranked(Time::from_ns(rng.below(1000)), 0, i);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt, "events out of time order");
                if t == lt {
                    assert!(i > li, "equal-time events must be FIFO");
                }
            }
            last = Some((t, i));
        }
    }
}

/// Differential check against the reference model: random `push_ranked`
/// / `push_pop_ranked` / `pop` sequences drawn from few ranks, so equal
/// `(time, rank)` pairs (FIFO among themselves) are common, including
/// equal-time ties and µs-scale times.
#[test]
fn queue_matches_reference_with_equal_keys() {
    let mut rng = Xoshiro256::seed_from(0xD1FF);
    for _ in 0..96 {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let mut now = Time::ZERO;
        let mut payload = 0u64;
        for _ in 0..400 {
            let rank = rng.below(3);
            match rng.below(4) {
                0 | 1 => {
                    let t = mixed_time(&mut rng, now);
                    queue.push_ranked(t, rank, payload);
                    model.push(t, rank, payload);
                    payload += 1;
                }
                2 => {
                    let t = mixed_time(&mut rng, now);
                    let a = queue.push_pop_ranked(t, rank, payload);
                    model.push(t, rank, payload);
                    assert_eq!(Some(a), model.pop(), "push_pop_ranked diverged");
                    payload += 1;
                    now = now.max(a.0);
                }
                _ => {
                    let a = queue.pop();
                    assert_eq!(a, model.pop(), "pop diverged");
                    if let Some((t, _)) = a {
                        now = now.max(t);
                    }
                }
            }
            assert_eq!(queue.len(), model.events.len());
        }
        assert_eq!(queue.peek_time(), model.peek_time());
        loop {
            match (queue.pop(), model.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b, "drain diverged"),
            }
        }
        assert_eq!(queue.scheduled(), model.seq);
    }
}

/// `peek_time` checked after every mutation. The run-ahead window reads
/// `peek_time` once per batch — a wrong answer would silently widen or
/// shrink the window, changing simulated interleavings.
#[test]
fn peek_time_stays_coherent_under_churn() {
    let mut rng = Xoshiro256::seed_from(0x9EEC);
    for _ in 0..96 {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let mut now = Time::ZERO;
        let mut payload = 0u64;
        for _ in 0..300 {
            let rank = rng.below(4);
            match rng.below(5) {
                0 | 1 => {
                    let t = mixed_time(&mut rng, now);
                    queue.push_ranked(t, rank, payload);
                    model.push(t, rank, payload);
                    payload += 1;
                }
                2 => {
                    let t = mixed_time(&mut rng, now);
                    let a = queue.push_pop_ranked(t, rank, payload);
                    model.push(t, rank, payload);
                    assert_eq!(Some(a), model.pop(), "push_pop_ranked diverged");
                    payload += 1;
                    now = now.max(a.0);
                }
                _ => {
                    let a = queue.pop();
                    assert_eq!(a, model.pop(), "pop diverged");
                    if let Some((t, _)) = a {
                        now = now.max(t);
                    }
                }
            }
            assert_eq!(queue.peek_time(), model.peek_time(), "peek diverged mid-churn");
        }
        // Drain: every peek must equal the time the next pop returns, and
        // peeking must never perturb pop order.
        while let Some(pt) = queue.peek_time() {
            let (t, p) = queue.pop().expect("peek said non-empty");
            assert_eq!(pt, t, "peek disagreed with pop");
            assert_eq!(Some((t, p)), model.pop(), "drain diverged");
        }
        assert!(model.pop().is_none());
    }
}

/// The run-loop shape: one pending event per rank, each pop re-pushed
/// under its own rank, with times drawn so equal-time rank ties are
/// common. `push_pop_ranked`'s replace-top fast path must pop exactly what
/// the reference model does.
#[test]
fn queue_matches_reference_ranked_sequences() {
    let mut rng = Xoshiro256::seed_from(0xAB1E);
    for _ in 0..96 {
        let mut queue = EventQueue::new();
        let mut model = Model::default();
        let ranks = 2 + rng.below(14);
        for r in 0..ranks {
            let t = mixed_time(&mut rng, Time::ZERO);
            queue.push_ranked(t, r, r);
            model.push(t, r, r);
        }
        let (mut now, mut rank) = queue.pop().expect("non-empty");
        assert_eq!(Some((now, rank)), model.pop());
        for _ in 0..500 {
            let t = mixed_time(&mut rng, now);
            let a = queue.push_pop_ranked(t, rank, rank);
            model.push(t, rank, rank);
            assert_eq!(Some(a), model.pop(), "push_pop_ranked diverged");
            (now, rank) = a;
        }
        loop {
            match (queue.pop(), model.pop()) {
                (None, None) => break,
                (a, b) => assert_eq!(a, b, "ranked drain diverged"),
            }
        }
    }
}

#[test]
fn hash_range_is_deterministic_and_bounded() {
    let mut rng = Xoshiro256::seed_from(0x44A);
    for _ in 0..CASES {
        let x = rng.next_u64();
        let n = 1 + rng.below((1 << 32) - 1);
        let h = hash_range(x, n);
        assert!(h < n);
        assert_eq!(h, hash_range(x, n));
    }
}

#[test]
fn rng_below_and_powerlaw_bounded() {
    let mut meta = Xoshiro256::seed_from(0x9999);
    for _ in 0..64 {
        let seed = meta.next_u64();
        let n = 1 + meta.below((1 << 20) - 1);
        let mut rng = Xoshiro256::seed_from(seed);
        for _ in 0..32 {
            assert!(rng.below(n) < n);
        }
        let n2 = n.max(2);
        for _ in 0..32 {
            assert!(rng.powerlaw_below(n2, 1.8) < n2);
        }
    }
}

#[test]
fn same_seed_same_stream() {
    let mut meta = Xoshiro256::seed_from(0x5EED);
    for _ in 0..64 {
        let seed = meta.next_u64();
        let mut a = Xoshiro256::seed_from(seed);
        let mut b = Xoshiro256::seed_from(seed);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
