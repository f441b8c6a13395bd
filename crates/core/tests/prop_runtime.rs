//! Randomized property tests for the runtime: miss curves, the sampler,
//! max-flow assignment (bounds, and the implicit matcher against the old
//! flow network), the configuration algorithm's capacity invariants,
//! the incremental Algorithm 1 solver (fresh and reused across solves)
//! against its from-scratch oracle, and the indexed sampler (shapes shared
//! between samplers) against its per-case oracle.
//!
//! Cases are driven by the workspace's seeded [`Xoshiro256`] so the suite is
//! deterministic and needs no external property-testing framework.

use std::sync::Arc;

use ndpx_core::config::PolicyKind;
use ndpx_core::runtime::configure::{
    allocate_baseline, allocate_ndpext, ConfigCtx, Solver, StreamDemand,
};
use ndpx_core::runtime::maxflow::assign_samplers;
use ndpx_core::runtime::sampler::{capacity_points, MissCurve, SamplerShape, SetSampler};
use ndpx_sim::rng::Xoshiro256;

mod oracle;

fn random_curve(rng: &mut Xoshiro256) -> MissCurve {
    let total = 1_000.0 + rng.next_f64() * 1e6;
    let n = rng.below(12) as usize;
    let pts: Vec<(u64, f64)> =
        (0..n).map(|_| (64 + rng.below((1 << 22) - 64), rng.next_f64() * 1e6)).collect();
    MissCurve::from_samples(total, pts)
}

#[test]
fn miss_curves_are_monotone_non_increasing() {
    let mut rng = Xoshiro256::seed_from(0x30B0);
    for _ in 0..64 {
        let curve = random_curve(&mut rng);
        let n = 2 + rng.below(18) as usize;
        let mut caps: Vec<u64> = (0..n).map(|_| rng.below(1 << 23)).collect();
        caps.sort_unstable();
        for w in caps.windows(2) {
            assert!(
                curve.misses_at(w[0]) >= curve.misses_at(w[1]) - 1e-9,
                "misses increased from {} to {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn next_segment_always_improves() {
    let mut rng = Xoshiro256::seed_from(0x5E6);
    for _ in 0..128 {
        let curve = random_curve(&mut rng);
        let cap = rng.below(1 << 22);
        if let Some((target, slope)) = curve.next_segment(cap) {
            assert!(target > cap);
            assert!(slope > 0.0);
            assert!(curve.misses_at(target) <= curve.misses_at(cap));
        }
    }
}

#[test]
fn sampler_curve_is_bounded_by_access_count() {
    let mut rng = Xoshiro256::seed_from(0x5A3);
    for _ in 0..32 {
        let n = 1 + rng.below(499) as usize;
        let keys: Vec<u64> = (0..n).map(|_| rng.below(5000)).collect();
        let caps = capacity_points(1 << 10, 1 << 20, 16);
        let mut s = SetSampler::new(&caps, 64, 8);
        for &k in &keys {
            s.observe(k);
        }
        let total = keys.len() as u64;
        let curve = s.curve(total);
        for &(c, m) in curve.points() {
            assert!(m <= total as f64 + 1e-9, "misses {m} exceed accesses {total} at cap {c}");
            assert!(m >= 0.0);
        }
    }
}

#[test]
fn packed_sampler_matches_the_per_case_oracle() {
    let mut rng = Xoshiro256::seed_from(0x5E7_5A3);
    for round in 0..96 {
        let grain = 1 + rng.below(4096);
        let k = if round % 4 == 2 { 2 + rng.below(63) } else { 1 + rng.below(64) } as usize;
        // Four shape families, in turn: random capacities (up to 150
        // cases); stride-1 cases (`k ≤ slots < 2k`, every slot monitored
        // by one of `k` sets); `k > slots` (fewer slots than sets); and
        // 65–200 cases, so the candidate index has several words per
        // bucket. Unsorted and duplicated capacities are allowed.
        let (n, slot_range) = match round % 4 {
            0 => (1 + rng.below(150) as usize, None),
            1 => (1 + rng.below(64) as usize, Some((k as u64, 2 * k as u64))),
            2 => (1 + rng.below(64) as usize, Some((1, k as u64))),
            _ => (65 + rng.below(136) as usize, None),
        };
        let caps: Vec<u64> = (0..n)
            .map(|_| match slot_range {
                Some((lo, hi)) => (lo + rng.below(hi - lo)) * grain,
                None => {
                    let bits = 6 + rng.below(24);
                    1 + rng.below(1 << bits)
                }
            })
            .collect();
        // Two samplers share one shape, as a system's samplers of one
        // grain do; each is checked against its own oracle, across four
        // epochs of `reset_counters` with warm sets.
        let shape = Arc::new(SamplerShape::new(&caps, grain, k));
        let mut packed =
            [SetSampler::with_shape(Arc::clone(&shape)), SetSampler::with_shape(shape)];
        let mut per_case = [
            oracle::sampler::SetSampler::new(&caps, grain, k),
            oracle::sampler::SetSampler::new(&caps, grain, k),
        ];
        for _ in 0..4 {
            let bits = 4 + rng.below(20);
            let range = 1 + rng.below(1 << bits);
            let total = rng.below(2_000);
            for _ in 0..total {
                let key = rng.below(range);
                let s = (key & 1) as usize;
                packed[s].observe(key);
                per_case[s].observe(key);
            }
            for (packed, per_case) in packed.iter_mut().zip(&mut per_case) {
                let ctx = format!("caps {caps:?} grain {grain} k {k}");
                assert_eq!(packed.observed(), per_case.observed(), "{ctx}");
                assert_eq!(packed.curve(total), per_case.curve(total), "{ctx}");
                packed.reset_counters();
                per_case.reset_counters();
            }
        }
    }
}

#[test]
fn maxflow_coverage_is_bounded() {
    let mut rng = Xoshiro256::seed_from(0xF10);
    for _ in 0..64 {
        let units = 1 + rng.below(9) as usize;
        let samplers = 1 + rng.below(4) as usize;
        let accessed: Vec<Vec<usize>> =
            (0..units).map(|_| (0..12).filter(|_| rng.chance(0.5)).collect()).collect();
        let touched: std::collections::BTreeSet<usize> =
            accessed.iter().flatten().copied().collect();
        let a = assign_samplers(&accessed, 12, samplers);
        assert!(a.covered <= touched.len());
        assert!(a.covered <= accessed.len() * samplers);
        // Every assignment is legal: the unit really accessed the stream.
        for (s, unit) in a.unit_for_stream.iter().enumerate() {
            if let Some(u) = unit {
                assert!(accessed[*u].contains(&s));
            }
        }
        // Per-unit sampler budgets hold.
        for u in 0..accessed.len() {
            let used = a.unit_for_stream.iter().filter(|x| **x == Some(u)).count();
            assert!(used <= samplers);
        }
    }
}

/// Per-unit stream lists for the matcher-vs-network check: each unit
/// accesses each of `streams` with its own probability, listed in ascending
/// order (as both callers build them) or shuffled.
fn random_lists(rng: &mut Xoshiro256, units: usize, streams: usize) -> Vec<Vec<usize>> {
    (0..units)
        .map(|_| {
            let density = rng.next_f64();
            let mut list: Vec<usize> = (0..streams).filter(|_| rng.chance(density)).collect();
            if rng.chance(0.5) {
                for i in (1..list.len()).rev() {
                    list.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
            list
        })
        .collect()
}

#[test]
fn matcher_equals_the_flow_network_oracle() {
    let mut rng = Xoshiro256::seed_from(0x3A7C);
    let mut cases = 0;
    let mut long_paths = 0;
    for _ in 0..10_000 {
        let units = 1 + rng.below(70) as usize;
        let samplers = 1 + rng.below(5) as usize;
        // Mostly small networks, with a thin tail out to 512 streams: the
        // oracle's cost grows with flow × edges.
        let span = 1 << rng.below(10).min(rng.below(10));
        let streams = 1 + rng.below(span) as usize;
        let accessed = random_lists(&mut rng, units, streams);
        let want = oracle::maxflow::assign_samplers(&accessed, streams, samplers);
        let got = assign_samplers(&accessed, streams, samplers);
        assert_eq!(got, want, "units {units} S {samplers} streams {streams}: {accessed:?}");
        // A greedy pass alone leaves a path the network still augments.
        let mut greedy = vec![samplers; units];
        let mut owned = vec![false; streams];
        let mut greedy_covered = 0;
        for (u, list) in accessed.iter().enumerate() {
            for &s in list {
                if greedy[u] > 0 && !owned[s] {
                    owned[s] = true;
                    greedy[u] -= 1;
                    greedy_covered += 1;
                }
            }
        }
        long_paths += usize::from(want.covered > greedy_covered);
        cases += 1;
    }
    // Fig. 4b's shapes: 64 units, 4 samplers, ~25% density, as `fig04`
    // draws them.
    for streams in [32usize, 64, 128, 256, 512] {
        let mut rng = Xoshiro256::seed_from(42);
        let accessed: Vec<Vec<usize>> =
            (0..64).map(|_| (0..streams).filter(|_| rng.chance(0.25)).collect()).collect();
        let want = oracle::maxflow::assign_samplers(&accessed, streams, 4);
        assert_eq!(assign_samplers(&accessed, streams, 4), want, "fig 4b, {streams} streams");
        cases += 1;
    }
    assert!(cases >= 10_000);
    assert!(long_paths >= 100, "only {long_paths} cases needed a path longer than 3");
}

#[test]
fn allocators_never_oversubscribe() {
    let mut rng = Xoshiro256::seed_from(0xA110);
    for _ in 0..24 {
        let streams = 1 + rng.below(11) as usize;
        let cap = (1 + rng.below(63)) << 12;
        let units = 6usize;
        let attenuation: Vec<Vec<f64>> = (0..units)
            .map(|u| (0..units).map(|v| 1.0 / (1.0 + u.abs_diff(v) as f64 * 0.2)).collect())
            .collect();
        let ctx = ConfigCtx {
            units,
            unit_capacity: cap,
            affine_cap: cap / 4,
            attenuation,
            dram_lat_ps: 45_000.0,
            miss_extra_ps: 466_000.0,
            dead: vec![false; units],
        };
        let demands: Vec<StreamDemand> = (0..streams)
            .map(|i| {
                let fp = 64 + rng.below((1 << 16) - 64);
                let flags = rng.below(4) as u8;
                StreamDemand {
                    curve: MissCurve::from_samples(10_000.0, vec![(fp, 100.0)]),
                    acc_units: vec![(i % units, 500), ((i + 2) % units, 300)],
                    read_only: flags & 1 == 1,
                    affine: flags & 2 == 2,
                    grain: 64,
                    total_accesses: 10_000,
                    footprint: fp / 64 * 64 + 64,
                }
            })
            .collect();
        for policy in PolicyKind::ALL {
            let a = if policy == PolicyKind::NdpExt {
                allocate_ndpext(&demands, &ctx)
            } else {
                allocate_baseline(policy, &demands, &ctx, 2)
            };
            let mut used = vec![0u64; units];
            for gs in &a.streams {
                for g in gs {
                    for &(u, b) in &g.unit_bytes {
                        used[u] += b;
                    }
                }
            }
            for (u, &x) in used.iter().enumerate() {
                assert!(x <= cap, "{policy:?} oversubscribed unit {u}: {x} > {cap}");
            }
        }
    }
}

/// A random mesh: `units` on a `w`-wide grid, attenuation decaying with hop
/// count, so many unit pairs tie on distance.
fn mesh_ctx(rng: &mut Xoshiro256, units: usize) -> ConfigCtx {
    let w = (units as f64).sqrt().ceil() as usize;
    let per_hop = [0.1, 0.2, 0.35][rng.below(3) as usize];
    let hops = |u: usize, v: usize| (u % w).abs_diff(v % w) + (u / w).abs_diff(v / w);
    let attenuation = (0..units)
        .map(|u| (0..units).map(|v| 1.0 / (1.0 + hops(u, v) as f64 * per_hop)).collect())
        .collect();
    // Capacity from starved to roomy relative to the footprints below.
    let unit_capacity = (1 + rng.below(48)) << 12;
    // Affine budget from tight (1/8 of a unit) to the whole unit.
    let affine_cap = unit_capacity / [8, 4, 2, 1][rng.below(4) as usize];
    let mut dead = vec![false; units];
    if rng.chance(0.3) {
        for _ in 0..=units / 4 {
            dead[rng.below(units as u64) as usize] = true;
        }
    }
    ConfigCtx {
        units,
        unit_capacity,
        affine_cap,
        attenuation,
        dram_lat_ps: 45_000.0,
        miss_extra_ps: 466_000.0,
        dead,
    }
}

/// Random demands. With `ties`, every stream shares one curve, one access
/// pattern, and one grain, so weighted slopes coincide across streams and
/// across read-only replicas and the heap's tie order decides.
fn random_demands(rng: &mut Xoshiro256, units: usize, ties: bool) -> Vec<StreamDemand> {
    let streams = 1 + rng.below(8) as usize;
    let draw = |rng: &mut Xoshiro256| {
        let footprint = (1 + rng.below(256)) << 10;
        let total = 1_000 + rng.below(100_000);
        let n = 1 + rng.below(10) as usize;
        let pts: Vec<(u64, f64)> = (0..n)
            .map(|_| (64 + rng.below(footprint * 3 / 2), rng.next_f64() * total as f64))
            .collect();
        let curve = MissCurve::from_samples(total as f64, pts);
        // Distinct accessing units; sometimes none (an idle stream).
        let k = rng.below(units as u64 + 1) as usize;
        let mut acc: Vec<(usize, u64)> = Vec::new();
        for u in 0..units {
            if rng.below(units as u64) < k as u64 {
                acc.push((u, if ties { 100 } else { 1 + rng.below(1000) }));
            }
        }
        let grain = [64, 256, 4096][rng.below(3) as usize];
        (curve, acc, grain, total, footprint)
    };
    let shared = draw(rng);
    (0..streams)
        .map(|_| {
            let (curve, acc_units, grain, total, footprint) =
                if ties { shared.clone() } else { draw(rng) };
            StreamDemand {
                curve,
                acc_units,
                read_only: rng.chance(0.5),
                affine: rng.chance(0.3),
                grain,
                total_accesses: total,
                footprint,
            }
        })
        .collect()
}

#[test]
fn incremental_solver_matches_the_from_scratch_oracle() {
    let mut rng = Xoshiro256::seed_from(0x0A1C);
    // How often each solver path was reached, judged from the oracle's
    // output: counted per stream, dead units per case.
    let (mut extended, mut replicated, mut merged, mut dead, mut affine) = (0, 0, 0, 0, 0);
    for case in 0..600 {
        // A few cases span more than one 64-unit bitset word.
        let units =
            if case % 50 == 0 { 65 + rng.below(16) as usize } else { 2 + rng.below(15) as usize };
        let ctx = mesh_ctx(&mut rng, units);
        let ties = rng.chance(0.25);
        let demands = random_demands(&mut rng, units, ties);
        let want = oracle::allocate_ndpext_oracle(&demands, &ctx);
        let got = allocate_ndpext(&demands, &ctx);
        assert_eq!(got.streams, want.streams, "case {case}: allocations differ");

        dead += usize::from(ctx.dead.contains(&true));
        for (d, gs) in demands.iter().zip(&want.streams) {
            let accessed = |u: usize| d.acc_units.iter().any(|&(a, _)| a == u);
            if gs.iter().flat_map(|g| &g.unit_bytes).any(|&(u, _)| !accessed(u)) {
                extended += 1;
            }
            if d.read_only && gs.len() > 1 {
                replicated += 1;
            }
            if d.read_only && !gs.is_empty() && gs.len() < d.acc_units.len() {
                merged += 1;
            }
            if d.affine && !gs.is_empty() {
                affine += 1;
            }
        }
    }
    for (path, hits) in [
        ("extend", extended),
        ("replication", replicated),
        ("merge", merged),
        ("dead units", dead),
        ("affine", affine),
    ] {
        assert!(hits >= 20, "{path} reached only {hits} times");
    }
}

/// Replica-heavy demands: three to five read-only streams accessed by every
/// unit share one 64-point curve on the samplers' capacity points, so each
/// stream's replicas walk one lookahead memo and the merge index churns as
/// replicas merge; a few random streams ride along.
fn replica_heavy_demands(rng: &mut Xoshiro256, ctx: &ConfigCtx) -> Vec<StreamDemand> {
    let units = ctx.units;
    let global = ctx.unit_capacity * units as u64;
    let total = 10_000 + rng.below(100_000);
    let footprint = global / 4 + rng.below(global);
    let pts = capacity_points((global / 16384).max(64), global, 64)
        .into_iter()
        .map(|c| {
            let covered = (c as f64 / footprint as f64).min(1.0);
            (c, total as f64 * (1.0 - 0.9 * covered.sqrt()))
        })
        .collect();
    let curve = MissCurve::from_samples(total as f64, pts);
    let replicated = 3 + rng.below(3) as usize;
    let mut demands: Vec<StreamDemand> = (0..replicated)
        .map(|_| StreamDemand {
            curve: curve.clone(),
            acc_units: (0..units).map(|u| (u, 1 + rng.below(1000))).collect(),
            read_only: true,
            affine: rng.chance(0.3),
            grain: 64,
            total_accesses: total,
            footprint,
        })
        .collect();
    demands.extend(random_demands(rng, units, false).into_iter().take(3));
    demands
}

#[test]
fn reused_solver_matches_the_from_scratch_oracle() {
    let mut rng = Xoshiro256::seed_from(0x5E05);
    let mut solver = Solver::default();
    let mut merged = 0;
    for case in 0..64 {
        // One reused solver across unit counts whose member bitsets take
        // one, two, and three words, random dead-unit masks, and stream
        // counts that grow and shrink between solves.
        let units = [16, 70, 130, 16][case % 4];
        let ctx = mesh_ctx(&mut rng, units);
        // Replica-heavy cases at the bfs cell's 16 units (hundreds of
        // replicas would make the from-scratch oracle slow).
        let replica_heavy = units == 16;
        let demands = if replica_heavy {
            replica_heavy_demands(&mut rng, &ctx)
        } else {
            let ties = rng.chance(0.25);
            random_demands(&mut rng, units, ties)
        };
        let want = oracle::allocate_ndpext_oracle(&demands, &ctx);
        let got = solver.solve(&demands, &ctx);
        assert_eq!(got.streams, want.streams, "case {case}: reused solver differs");
        if replica_heavy {
            merged += demands
                .iter()
                .zip(&want.streams)
                .filter(|(d, gs)| d.read_only && !gs.is_empty() && gs.len() < d.acc_units.len())
                .count();
        }
    }
    assert!(merged >= 20, "replica merges reached only {merged} times");
}
