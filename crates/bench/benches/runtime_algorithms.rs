//! Micro-benchmarks of the NDPExt host-runtime algorithms: the max-flow
//! sampler assignment (Fig. 4b's subject), the configuration algorithm
//! (Algorithm 1), miss-curve sampling, and consistent-hash group
//! construction. These are the host-side costs the paper argues are small
//! enough to run every epoch.
//!
//! Hand-rolled timing (median-of-runs over a fixed wall-clock budget) keeps
//! the workspace free of external dependencies so it builds offline.

use ndpx_core::layout::Group;
use ndpx_core::runtime::configure::{allocate_ndpext, ConfigCtx, StreamDemand};
use ndpx_core::runtime::maxflow::assign_samplers;
use ndpx_core::runtime::sampler::{capacity_points, MissCurve, SetSampler};
use ndpx_sim::rng::Xoshiro256;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` repeatedly for ~200 ms and reports the median per-call time.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warmup.
    let warm_until = Instant::now() + Duration::from_millis(50);
    while Instant::now() < warm_until {
        f();
    }
    let mut samples = Vec::new();
    let until = Instant::now() + Duration::from_millis(200);
    while Instant::now() < until && samples.len() < 10_000 {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed());
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    println!("{name:<40} {median:>12.2?}  ({} samples)", samples.len());
}

fn bench_maxflow() {
    for &streams in &[64usize, 256, 512] {
        let mut rng = Xoshiro256::seed_from(7);
        let accessed: Vec<Vec<usize>> =
            (0..64).map(|_| (0..streams).filter(|_| rng.chance(0.25)).collect()).collect();
        bench(&format!("maxflow_assignment/{streams}"), || {
            black_box(assign_samplers(black_box(&accessed), streams, 4));
        });
    }
}

fn synthetic_demands(streams: usize, units: usize) -> (Vec<StreamDemand>, ConfigCtx) {
    let mut rng = Xoshiro256::seed_from(3);
    let demands = (0..streams)
        .map(|i| {
            let total = 10_000.0 + rng.below(100_000) as f64;
            let pts: Vec<(u64, f64)> =
                (1..=16).map(|k| ((k as u64) << 16, total / (1.0 + k as f64))).collect();
            let mut acc: Vec<(usize, u64)> = Vec::new();
            for u in 0..units {
                if rng.chance(0.3) {
                    acc.push((u, 100 + rng.below(1000)));
                }
            }
            let acc = if acc.is_empty() { vec![(i % units, 100)] } else { acc };
            StreamDemand {
                curve: MissCurve::from_samples(total, pts),
                acc_units: acc,
                read_only: i % 2 == 0,
                affine: i % 3 == 0,
                grain: 64,
                total_accesses: total as u64,
                footprint: 16 << 16,
            }
        })
        .collect();
    let attenuation = (0..units)
        .map(|u| (0..units).map(|v| 1.0 / (1.0 + u.abs_diff(v) as f64 * 0.1)).collect())
        .collect();
    let ctx = ConfigCtx {
        units,
        unit_capacity: 1 << 22,
        affine_cap: 1 << 20,
        attenuation,
        dram_lat_ps: 45_000.0,
        miss_extra_ps: 466_000.0,
        dead: vec![false; units],
    };
    (demands, ctx)
}

fn bench_configure() {
    for &streams in &[16usize, 64, 256] {
        let (demands, ctx) = synthetic_demands(streams, 64);
        bench(&format!("configuration_algorithm/{streams}"), || {
            black_box(allocate_ndpext(black_box(&demands), black_box(&ctx)));
        });
    }
}

fn bench_sampler() {
    let caps = capacity_points(32 << 10, 256 << 20, 64);
    let mut s = SetSampler::new(&caps, 64, 32);
    let mut key = 0u64;
    bench("sampler_observe_x1000", || {
        for _ in 0..1000 {
            key = key.wrapping_add(0x9E37_79B9);
            s.observe(black_box(key % 100_000));
        }
    });
}

fn bench_consistent_groups() {
    let shares: Vec<u64> = (0..128).map(|u| 1000 + u as u64).collect();
    bench("consistent_group_build_128u", || {
        black_box(Group::new(black_box(shares.clone()), true));
    });
    let g = Group::new((0..128).map(|u| 1000 + u as u64).collect(), true);
    let mut key = 0u64;
    bench("consistent_group_locate", || {
        key += 1;
        black_box(g.locate(black_box(key)));
    });
}

fn main() {
    bench_maxflow();
    bench_configure();
    bench_sampler();
    bench_consistent_groups();
}
