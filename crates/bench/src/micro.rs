//! Component micro-benchmarks for the perf gauge (`NDPX_GAUGE_MICRO=1`).
//!
//! Times the raw hot kernels the full-matrix gauge exercises indirectly:
//! event-queue scheduling ([`EventQueue`]), the miss-curve sampler's
//! observe path, the Algorithm 1 solver, consistent-hash bucket-table construction,
//! and power-law graph generation. Results land in `BENCH_PERF.json` under
//! `"micro"` so a CI artifact records where a wall-clock regression came
//! from without re-profiling the whole matrix.
//!
//! These are wall-clock measurements, not digest-gated simulation: they
//! exist to explain performance, never to define correctness.

use std::hint::black_box;
use std::time::Instant;

use ndpx_core::layout::Group;
use ndpx_core::runtime::configure::{allocate_ndpext, ConfigCtx, StreamDemand};
use ndpx_core::runtime::sampler::{capacity_points, MissCurve, SetSampler};
use ndpx_sim::engine::EventQueue;
use ndpx_sim::rng::Xoshiro256;
use ndpx_sim::time::Time;
use ndpx_workloads::graph::CsrGraph;

/// One micro-benchmark measurement.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Kernel label (stable across report versions).
    pub name: &'static str,
    /// Operations timed.
    pub iters: u64,
    /// Nanoseconds per operation.
    pub ns_per_iter: f64,
}

impl MicroResult {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.ns_per_iter > 0.0 {
            1e9 / self.ns_per_iter
        } else {
            0.0
        }
    }
}

/// True when the environment requests the micro-bench pass (unified
/// boolean grammar; off by default).
pub fn enabled_from_env() -> bool {
    ndpx_sim::knobs::GAUGE_MICRO.bool_or(false)
}

fn timed(name: &'static str, iters: u64, f: impl FnOnce()) -> MicroResult {
    let t0 = Instant::now();
    f();
    let ns = t0.elapsed().as_nanos() as f64;
    MicroResult { name, iters, ns_per_iter: ns / iters as f64 }
}

/// The simulator's scheduling pattern: one pending event per core, each pop
/// immediately re-pushed a short random delta ahead (`push_pop_ranked`).
fn queue_fused(name: &'static str, iters: u64) -> MicroResult {
    let mut q: EventQueue<usize> = EventQueue::new();
    let cores = 16u64;
    for c in 0..cores {
        q.push_ranked(Time::ZERO, c, c as usize);
    }
    let mut rng = Xoshiro256::seed_from(0x51ED);
    let (mut now, mut core) = q.pop().expect("non-empty");
    timed(name, iters, || {
        for _ in 0..iters {
            let dt = Time::from_ps(100 + rng.below(8000));
            (now, core) = q.push_pop_ranked(now + dt, core as u64, core);
        }
        black_box(now);
    })
}

/// The run-ahead batching pattern from the system run loops: the popped
/// core advances through consecutive op completions while each stays
/// strictly below the queue's pending minimum ([`EventQueue::peek_time`]),
/// touching the queue once per batch instead of once per op. Cores are
/// staggered so the window admits a few ops per batch, matching the
/// heterogeneous-latency phases where batching pays.
fn queue_run_ahead(name: &'static str, iters: u64) -> MicroResult {
    let mut q: EventQueue<usize> = EventQueue::new();
    let cores = 16u64;
    for c in 0..cores {
        q.push_ranked(Time::from_ps(c * 4000), c, c as usize);
    }
    let mut rng = Xoshiro256::seed_from(0xBA7C);
    let (mut now, mut core) = q.pop().expect("non-empty");
    timed(name, iters, || {
        let mut done = 0u64;
        while done < iters {
            let window = q.peek_time().unwrap_or(Time::MAX);
            let mut t = now + Time::from_ps(100 + rng.below(900));
            done += 1;
            while t < window && done < iters {
                t += Time::from_ps(100 + rng.below(900));
                done += 1;
            }
            (now, core) = q.push_pop_ranked(t, core as u64, core);
        }
        black_box((now, core));
    })
}

/// Bursty schedule: fill a batch of future events, then drain it — a
/// deep queue, unlike the run loops' one event per core.
fn queue_churn(name: &'static str, iters: u64) -> MicroResult {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Xoshiro256::seed_from(0xC0DE);
    let batch = 256u64;
    let rounds = iters / (2 * batch);
    let mut now = Time::ZERO;
    timed(name, rounds * 2 * batch, || {
        for _ in 0..rounds {
            for i in 0..batch {
                // Mostly sub-200 ns ahead, occasionally microseconds.
                let dt = if rng.below(64) == 0 {
                    Time::from_us(1 + rng.below(4))
                } else {
                    Time::from_ps(rng.below(200_000))
                };
                q.push_ranked(now + dt, i, i);
            }
            for _ in 0..batch {
                if let Some((t, v)) = q.pop() {
                    now = t;
                    black_box(v);
                }
            }
        }
        black_box(now);
    })
}

/// The sampler observe path: 64 capacity cases per access, as assigned
/// samplers see on every post-L1 reference.
fn sampler_observe(iters: u64) -> MicroResult {
    let caps = capacity_points(32 << 10, 256 << 20, 64);
    let mut s = SetSampler::new(&caps, 64, 32);
    let mut rng = Xoshiro256::seed_from(0x0B5E);
    timed("sampler_observe", iters, || {
        for _ in 0..iters {
            s.observe(rng.below(1 << 20));
        }
        black_box(s.observed());
    })
}

/// Algorithm 1 (`allocate_ndpext`) on the test profile's 16-unit shape:
/// three read-only streams touched by every unit start fully replicated
/// (16 groups each) next to one read-write stream, and the cache holds half
/// of their data, so the solve extends and merges groups as the
/// reconfiguring runs' epochs do (each replicated stream ends as one group
/// over 4–10 units). One solve per iteration.
fn configure_ndpext(iters: u64) -> MicroResult {
    let units = 16usize;
    let hops = |u: usize, v: usize| (u % 4).abs_diff(v % 4) + (u / 4).abs_diff(v / 4);
    let ctx = ConfigCtx {
        units,
        unit_capacity: 64 << 10,
        affine_cap: 16 << 10,
        attenuation: (0..units)
            .map(|u| (0..units).map(|v| 1.0 / (1.0 + hops(u, v) as f64 * 0.2)).collect())
            .collect(),
        dram_lat_ps: 45_000.0,
        miss_extra_ps: 466_000.0,
        dead: vec![false; units],
    };
    let mut rng = Xoshiro256::seed_from(0xA1C1);
    let demands: Vec<StreamDemand> = (0..4)
        .map(|s| {
            let total = 20_000 + rng.below(80_000);
            let pts = (1..=16).map(|k| (k << 15, total as f64 / (1.0 + k as f64))).collect();
            StreamDemand {
                curve: MissCurve::from_samples(total as f64, pts),
                acc_units: (0..units).map(|u| (u, 100 + rng.below(1000))).collect(),
                read_only: s != 0,
                affine: false,
                grain: 64,
                total_accesses: total,
                footprint: 512 << 10,
            }
        })
        .collect();
    timed("configure_ndpext", iters, || {
        for _ in 0..iters {
            black_box(allocate_ndpext(black_box(&demands), black_box(&ctx)));
        }
    })
}

/// Consistent-hash group construction: one full 1024-bucket weighted
/// rendezvous rehash per iteration (the reconfiguration kernel).
fn bucket_table(iters: u64) -> MicroResult {
    let units = 16usize;
    let mut rng = Xoshiro256::seed_from(0xB0C1);
    timed("consistent_rehash", iters, || {
        for _ in 0..iters {
            let shares: Vec<u64> = (0..units).map(|_| rng.below(4096)).collect();
            black_box(Group::new(shares, true).total_slots());
        }
    })
}

/// Raw power-law graph generation (the inverse-CDF `powf` kernel the
/// process-wide graph cache exists to amortize); measured per edge.
fn graph_powerlaw() -> MicroResult {
    let (vertices, avg_degree) = (20_000u32, 12u32);
    let g = CsrGraph::powerlaw(vertices, avg_degree, 0x6EAF);
    let edges = g.edge_count().max(1);
    black_box(g.vertices());
    let t0 = Instant::now();
    let g2 = CsrGraph::powerlaw(vertices, avg_degree, 0x6EB0);
    let ns = t0.elapsed().as_nanos() as f64;
    let edges2 = g2.edge_count().max(edges);
    black_box(g2.vertices());
    MicroResult { name: "powerlaw_edge_gen", iters: edges2, ns_per_iter: ns / edges2 as f64 }
}

/// Runs the full micro-bench suite (a few hundred milliseconds).
pub fn run_all() -> Vec<MicroResult> {
    vec![
        queue_fused("queue_push_pop_ranked", 2_000_000),
        queue_run_ahead("run_ahead", 2_000_000),
        queue_churn("queue_batch_churn", 1_000_000),
        sampler_observe(300_000),
        configure_ndpext(500),
        bucket_table(2_000),
        graph_powerlaw(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micro_suite_produces_sane_rates() {
        // Tiny iteration counts: this guards plumbing, not performance.
        let rs = [
            queue_fused("q", 4_000),
            queue_run_ahead("r", 4_000),
            queue_churn("c", 8_192),
            sampler_observe(2_000),
            configure_ndpext(2),
            bucket_table(8),
        ];
        for r in rs {
            assert!(r.iters > 0, "{}: no iterations", r.name);
            assert!(r.ns_per_iter.is_finite() && r.ns_per_iter >= 0.0, "{}: bad rate", r.name);
        }
    }

    #[test]
    fn env_gate_defaults_off() {
        // The gauge only runs micros when explicitly asked.
        if ndpx_sim::knobs::GAUGE_MICRO.raw().is_none() {
            assert!(!enabled_from_env());
        }
    }
}
