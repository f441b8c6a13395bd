//! Randomized property tests for the simulation substrate: time arithmetic,
//! event ordering, RNG range guarantees, and the power-law draw table.
//!
//! Cases are driven by the crate's own seeded [`Xoshiro256`] so the suite is
//! deterministic and needs no external property-testing framework (the
//! workspace builds fully offline).

use ndpx_sim::engine::EventQueue;
use ndpx_sim::rng::{hash_range, PowerlawSampler, Xoshiro256};
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

/// Every `(rows, alpha)` / `(vertices, alpha)` a registry workload samples
/// at `NDPX_SCALE=test` and `small`, across all figures' sweep points and
/// the host baseline: recsys rows at 1.7, gnn and GAP graphs at 1.8.
const REGISTRY_POWERLAWS: [(u64, f64); 45] = [
    // test
    (1024, 1.7),
    (9830, 1.7),
    (19_660, 1.7),
    (32_768, 1.7),
    (78_643, 1.7),
    (157_286, 1.7),
    (17_476, 1.8),
    (20_971, 1.8),
    (109_416, 1.8),
    (264_903, 1.8),
    (279_620, 1.8),
    (314_572, 1.8),
    (335_544, 1.8),
    (364_722, 1.8),
    (559_240, 1.8),
    (671_088, 1.8),
    (883_011, 1.8),
    (932_067, 1.8),
    (1_048_576, 1.8),
    (1_118_481, 1.8),
    (2_236_962, 1.8),
    (2_684_354, 1.8),
    (4_473_924, 1.8),
    (5_368_709, 1.8),
    // small
    (2457, 1.7),
    (78_643, 1.7),
    (314_572, 1.7),
    (629_145, 1.7),
    (1_048_576, 1.7),
    (69_905, 1.8),
    (83_886, 1.8),
    (2_236_962, 1.8),
    (2_684_354, 1.8),
    (3_501_332, 1.8),
    (8_476_909, 1.8),
    (8_947_848, 1.8),
    (10_066_329, 1.8),
    (10_737_418, 1.8),
    (11_671_106, 1.8),
    (17_895_697, 1.8),
    (21_474_836, 1.8),
    (28_256_363, 1.8),
    (29_826_161, 1.8),
    (33_554_432, 1.8),
    (35_791_394, 1.8),
];

/// The per-draw `powf` inverse CDF over `[0, n)`, written out as the
/// generators used it (parameter-only terms hoisted).
fn powf_draw(n: u64, alpha: f64) -> impl Fn(f64) -> u64 {
    let trunc = 1.0 - (n as f64).powf(1.0 - alpha);
    let inv_exp = 1.0 / (1.0 - alpha);
    move |u| (((1.0 - u * trunc).powf(inv_exp)) as u64).min(n - 1)
}

/// Checks a sampler against the `powf` oracle at every bucket edge and its
/// neighbours, on `draws` uniform draws through both `sample` and
/// `from_uniform`, and on a short stream paired with
/// [`Xoshiro256::powerlaw_below`]; checks that `skip` leaves the generator
/// where the `draws` samples did; returns the draws compared.
fn check_sampler(n: u64, alpha: f64, draws: u64, seed: u64) -> u64 {
    let sampler = PowerlawSampler::new(n, alpha);
    let oracle = powf_draw(n, alpha);
    let mut checked = 0;
    for b in 0..=4096u64 {
        let edge = b as f64 / 4096.0;
        for u in [edge.next_down(), edge, edge.next_up()] {
            if (0.0..=1.0).contains(&u) {
                assert_eq!(sampler.from_uniform(u), oracle(u), "n={n} alpha={alpha} u={u:e}");
                checked += 1;
            }
        }
    }
    let (mut table_rng, mut uniform_rng) =
        (Xoshiro256::seed_from(seed), Xoshiro256::seed_from(seed));
    for _ in 0..draws {
        let u = uniform_rng.next_f64();
        let want = oracle(u);
        assert_eq!(sampler.sample(&mut table_rng), want, "n={n} alpha={alpha} u={u:e}");
        assert_eq!(sampler.from_uniform(u), want, "n={n} alpha={alpha} u={u:e}");
    }
    // Every draw, on the table or the `powf` path, consumes one `next_u64`.
    let mut skipped = Xoshiro256::seed_from(seed);
    sampler.skip(&mut skipped, draws);
    assert_eq!(skipped, table_rng, "n={n} alpha={alpha}: skip drifted from sample");
    let (mut table_rng, mut powf_rng) =
        (Xoshiro256::seed_from(!seed), Xoshiro256::seed_from(!seed));
    for _ in 0..1000 {
        assert_eq!(sampler.sample(&mut table_rng), powf_rng.powerlaw_below(n, alpha));
    }
    checked + draws + 1000
}

#[test]
fn powerlaw_table_matches_powf_on_ten_million_draws() {
    let mut total = 0;
    for (i, &(n, alpha)) in REGISTRY_POWERLAWS.iter().enumerate() {
        total += check_sampler(n, alpha, 150_000, 0x9_0000 + i as u64);
    }
    let mut meta = Xoshiro256::seed_from(0x70DE);
    for i in 0..64 {
        let n = 1 + meta.below((1 << 32) - 1);
        // (1, 3]: `1 - next_f64()` lies in (0, 1].
        let alpha = 1.0 + 2.0 * (1.0 - meta.next_f64());
        total += check_sampler(n, alpha, 60_000, 0xA_0000 + i);
    }
    assert!(total >= 10_000_000, "only {total} draws compared");
}

#[test]
fn powerlaw_table_edge_cases() {
    let top = ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64;
    for (n, alpha) in [(1, 1.8), (2, 1.8), (2, 1.01), (3, 3.0), (1 << 40, 1.7), (u64::MAX, 2.0)] {
        let (sampler, oracle) = (PowerlawSampler::new(n, alpha), powf_draw(n, alpha));
        // `next_f64`'s extremes (m = 0 and m = 2^53 - 1), the gather's
        // reachable 1.0, and inputs outside [0, 1).
        for u in [0.0, top, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(sampler.from_uniform(u), oracle(u), "n={n} u={u}");
        }
        check_sampler(n, alpha, 10_000, n);
    }
    assert_eq!(PowerlawSampler::new(1, 1.8).slow_share(), 1.0 / 4096.0);
    // Registry shapes settle all but a few percent of the interval.
    let share = PowerlawSampler::new(35_791_394, 1.8).slow_share();
    assert!(share > 0.0 && share < 0.1, "slow share {share}");
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
