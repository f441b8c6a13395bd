//! Component micro-benchmarks for the perf gauge (`NDPX_GAUGE_MICRO=1`).
//!
//! Times the raw hot kernels the full-matrix gauge exercises indirectly:
//! event-queue scheduling ([`EventQueue`]), the miss-curve sampler's
//! observe path (also per slot grain: 8 B, 64 B, 1 KB), the Algorithm 1
//! solver (a small shape and the bfs reconfiguration cell's shape),
//! consistent-hash bucket-table construction and lookup, the
//! reconfiguration tag transfer, power-law graph generation, single
//! power-law draws, the L1 access (a stream walk's sequential lines, three
//! interleaved walks through their stream memo slots, and random keys),
//! the divide-free element address of a 1-D stream, and the core front
//! end's op fetch and decode over a replayed trace.
//! Results land in `BENCH_PERF.json` under `"micro"` so a CI artifact
//! records where a wall-clock regression came from without re-profiling
//! the whole matrix.
//!
//! These are wall-clock measurements, not digest-gated simulation: they
//! exist to explain performance, never to define correctness.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ndpx_cache::setassoc::SetAssocCache;
use ndpx_cache::tagarray::TagArray;
use ndpx_core::desc::{DescParams, StreamDesc};
use ndpx_core::layout::Group;
use ndpx_core::runtime::configure::{allocate_ndpext, ConfigCtx, Solver, StreamDemand};
use ndpx_core::runtime::sampler::{capacity_points, MissCurve, SetSampler};
use ndpx_sim::engine::EventQueue;
use ndpx_sim::rng::{PowerlawSampler, Xoshiro256};
use ndpx_sim::time::Time;
use ndpx_stream::{AffineShape, DimOrder, StreamConfig, StreamId, StreamKind};
use ndpx_workloads::graph::CsrGraph;
use ndpx_workloads::replay::ReplaySource;
use ndpx_workloads::{CachedTrace, Op, OpLanes, ScaleParams, TraceKey};

/// One micro-benchmark measurement.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Kernel label (stable across report versions).
    pub name: &'static str,
    /// Operations timed.
    pub iters: u64,
    /// Nanoseconds per operation.
    pub ns_per_iter: f64,
    /// Share of operations that take the kernel's slow path, for kernels
    /// that have one.
    pub slow_share: Option<f64>,
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
    crate::knobs::GAUGE_MICRO.bool_or(false)
}

fn timed(name: &'static str, iters: u64, f: impl FnOnce()) -> MicroResult {
    let t0 = Instant::now();
    f();
    let ns = t0.elapsed().as_nanos() as f64;
    MicroResult { name, iters, ns_per_iter: ns / iters as f64, slow_share: None }
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

/// The observe path at one slot grain, on the capacity points of a
/// 16-unit × 1 MB system (`global / 16384` to `global`, 64 points, k = 32),
/// as the reconfiguring cells' samplers see it. The grain sets how many
/// cases can take an access: at 8 B few do, at 1 KB the smallest cases
/// monitor every slot and take them all.
fn sampler_observe_at(name: &'static str, grain: u64, iters: u64) -> MicroResult {
    let global = 16u64 << 20;
    let caps = capacity_points(global / 16384, global, 64);
    let mut s = SetSampler::new(&caps, grain, 32);
    let mut rng = Xoshiro256::seed_from(0x0B5E ^ grain);
    timed(name, iters, || {
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

/// Algorithm 1 on the shape of the bfs reconfiguration cell's solves: 16
/// units of 1 MB, two read-only streams touched by 15 units each (30
/// replica groups) next to two read-write streams over all units, with
/// 65-point curves on the samplers' capacity points. The streams' data is
/// twice the cache, so each solve extends and merges groups. One reused
/// [`Solver`] runs every iteration, as a reconfiguring system's does.
fn configure_ndpext_bfs(iters: u64) -> MicroResult {
    let units = 16usize;
    let unit_capacity = 1u64 << 20;
    let global = unit_capacity * units as u64;
    let caps = capacity_points(global / 16384, global, 64);
    let hops = |u: usize, v: usize| (u % 4).abs_diff(v % 4) + (u / 4).abs_diff(v / 4);
    let ctx = ConfigCtx {
        units,
        unit_capacity,
        affine_cap: unit_capacity / 4,
        attenuation: (0..units)
            .map(|u| (0..units).map(|v| 1.0 / (1.0 + hops(u, v) as f64 * 0.2)).collect())
            .collect(),
        dram_lat_ps: 45_000.0,
        miss_extra_ps: 466_000.0,
        dead: vec![false; units],
    };
    let mut rng = Xoshiro256::seed_from(0xBF51);
    let demands: Vec<StreamDemand> = (0..4)
        .map(|s| {
            let read_only = s < 2;
            let footprint: u64 = if read_only { 12 << 20 } else { 4 << 20 };
            let total = 50_000 + rng.below(100_000);
            // Misses fall as the cache covers more of the footprint.
            let pts = caps
                .iter()
                .map(|&c| {
                    let covered = (c as f64 / footprint as f64).min(1.0);
                    (c, total as f64 * (1.0 - 0.9 * covered.sqrt()))
                })
                .collect();
            StreamDemand {
                curve: MissCurve::from_samples(total as f64, pts),
                acc_units: (0..units)
                    .filter(|&u| !read_only || u != s)
                    .map(|u| (u, 100 + rng.below(2000)))
                    .collect(),
                read_only,
                affine: false,
                grain: 64,
                total_accesses: total,
                footprint,
            }
        })
        .collect();
    let mut solver = Solver::default();
    timed("configure_ndpext_bfs", iters, || {
        for _ in 0..iters {
            black_box(solver.solve(black_box(&demands), black_box(&ctx)));
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

/// Consistent-hash lookup: one [`Group::locate`] per iteration on a
/// 16-unit consistent group, over scattered keys (the key-to-unit step of
/// every access that misses L1).
fn layout_locate(iters: u64) -> MicroResult {
    let mut rng = Xoshiro256::seed_from(0x10CA);
    let group = Group::new((0..16).map(|_| 1024 + rng.below(4096)).collect(), true);
    let mut key = 0u64;
    timed("layout_locate", iters, || {
        let mut acc = 0u64;
        for _ in 0..iters {
            key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
            if let Some((unit, slot)) = group.locate(black_box(key)) {
                acc = acc.wrapping_add(unit as u64 ^ slot);
            }
        }
        black_box(acc);
    })
}

/// The reconfiguration tag transfer (`apply_allocation`): collect the
/// resident entries of a 1M-slot direct-mapped array holding ~1k keys,
/// `reset` it in place, and reinstall them. One transfer per iteration; the
/// cost tracks the resident set, not the slot count.
fn tag_transfer(iters: u64) -> MicroResult {
    let slots = 1u64 << 20;
    let mut tags = TagArray::new(slots, 1);
    let mut rng = Xoshiro256::seed_from(0x7A65);
    for _ in 0..1024 {
        let key = rng.below(1 << 30);
        tags.access(key % slots, key, key.is_multiple_of(4));
    }
    let mut moving = Vec::new();
    timed("tag_transfer", iters, || {
        for _ in 0..iters {
            moving.clear();
            moving.extend(tags.entries());
            tags.reset(slots, 1);
            for &(key, dirty) in &moving {
                tags.install_if_free(key % slots, key, dirty);
            }
        }
        black_box(tags.occupancy());
    })
}

/// Raw power-law graph generation: the degree pass plus every edge chunk
/// (one power-law draw per edge); measured per edge. Workloads generate
/// only the chunks their traces read.
fn graph_powerlaw() -> MicroResult {
    let (vertices, avg_degree) = (20_000u32, 12u32);
    let generate_all = |seed| {
        let g = CsrGraph::powerlaw(vertices, avg_degree, seed);
        let edges: usize = (0..vertices).map(|v| g.neighbors(v).len()).sum();
        black_box(edges as u64)
    };
    generate_all(0x6EAF);
    let t0 = Instant::now();
    let edges = generate_all(0x6EB0).max(1);
    let ns = t0.elapsed().as_nanos() as f64;
    MicroResult {
        name: "powerlaw_edge_gen",
        iters: edges,
        ns_per_iter: ns / edges as f64,
        slow_share: None,
    }
}

/// One power-law draw from a [`PowerlawSampler`] over the largest `small`
/// registry range at `alpha` (recsys rows at 1.7, graph vertices at 1.8);
/// the slow-path share is the interval share the draw table leaves to
/// `powf`.
fn powerlaw_draw(name: &'static str, n: u64, alpha: f64, iters: u64) -> MicroResult {
    let sampler = PowerlawSampler::new(n, alpha);
    let mut rng = Xoshiro256::seed_from(0x9D12);
    let mut r = timed(name, iters, || {
        let mut acc = 0u64;
        for _ in 0..iters {
            acc = acc.wrapping_add(sampler.sample(&mut rng));
        }
        black_box(acc);
    });
    r.slow_share = Some(sampler.slow_share());
    r
}

/// One L1 access per iteration on the paper's L1D (64 KB, 64 B lines,
/// 4 ways), over 512 lines (half the cache, so nearly every access hits)
/// warmed first. `sequential` walks 8-byte elements, so eight accesses in
/// a row touch one line and the way memo answers seven of them; otherwise
/// the keys are random, so nearly every access hashes and scans its set.
fn l1_access(name: &'static str, sequential: bool, iters: u64) -> MicroResult {
    let mut l1 = SetAssocCache::with_capacity(64 << 10, 64, 4);
    let mut rng = Xoshiro256::seed_from(0x11AC);
    let keys: Vec<u64> = if sequential {
        (0..iters).map(|i| i / 8 % 512).collect()
    } else {
        (0..iters).map(|_| rng.below(512)).collect()
    };
    for &k in &keys {
        l1.access(k, false);
    }
    timed(name, iters, || {
        let mut hits = 0u64;
        for &k in &keys {
            hits += u64::from(l1.access(black_box(k), false).is_hit());
        }
        black_box(hits);
    })
}

/// One L1 probe per iteration on the paper's L1D: three sequential walks of
/// 8-byte elements over disjoint 160-line ranges (480 lines, warmed, so
/// every probe hits), interleaved one access each, as a core interleaves
/// its streams. Each walk passes its index as the memo hint, as the front
/// end passes the stream id, so each keeps its own memo line and seven of
/// eight probes skip the set scan.
fn l1_access_interleaved(iters: u64) -> MicroResult {
    let mut l1 = SetAssocCache::with_capacity(64 << 10, 64, 4);
    let accesses: Vec<(u64, usize)> =
        (0..iters).map(|i| ((i % 3) * 160 + i / 3 / 8 % 160, (i % 3) as usize)).collect();
    for &(k, s) in &accesses {
        l1.access_hinted(k, false, s);
    }
    timed("l1_access_interleaved", iters, || {
        let mut hits = 0u64;
        for &(k, s) in &accesses {
            hits += u64::from(l1.access_if_hit(black_box(k), false, s));
        }
        black_box(hits);
    })
}

/// The core front end's fetch and decode per op: one op from a replayed
/// trace's lanes ([`OpLanes::next_op`]), and for a stream op its address
/// ([`StreamDesc::addr_of_elem`]). The trace is mv's at `ops` ops on each
/// of 16 cores, read in runs of 8 ops per core as run-ahead batches read
/// it, wrapping past its end.
fn op_fetch_replay(ops: u64, iters: u64) -> MicroResult {
    let p = ScaleParams { cores: 16, footprint: 32 << 20, seed: 0xF37C };
    let trace = Arc::new(CachedTrace::materialize(&TraceKey::new("mv", &p, ops)));
    let line = DescParams { stream_grain: false, affine_block: 64, line_bytes: 64 };
    let descs: Vec<StreamDesc> = trace.table.iter().map(|s| StreamDesc::build(*s, line)).collect();
    let mut lanes = OpLanes::new(Box::new(ReplaySource::new(Arc::clone(&trace))), "mv", p.cores);
    timed("op_fetch_replay", iters, || {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(match lanes.next_op((i / 8) as usize % p.cores) {
                Op::Compute(c) => u64::from(c),
                Op::Mem(m) => descs[m.sid.index()].addr_of_elem(m.elem),
                Op::RawMem { addr, .. } => addr,
            });
        }
        black_box(acc);
    })
}

/// One element address per iteration on a 1-D affine stream of 8-byte
/// elements, walked in order (every affine stream of the tc, bfs, recsys
/// and hotspot traces has this shape).
fn addr_of_elem_1d(iters: u64) -> MicroResult {
    let elems = 1u64 << 20;
    let shape = AffineShape {
        lengths: [elems, 1, 1],
        strides: [8, 8 * elems, 8 * elems],
        order: DimOrder::D012,
    };
    let cfg = StreamConfig {
        sid: StreamId(0),
        kind: StreamKind::Affine(shape),
        base: 1 << 30,
        size: elems * 8,
        elem_size: 8,
        read_only: true,
    };
    let desc = StreamDesc::build(
        cfg,
        DescParams { stream_grain: false, affine_block: 64, line_bytes: 64 },
    );
    timed("addr_of_elem_1d", iters, || {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_add(desc.addr_of_elem(black_box(i % elems)));
        }
        black_box(acc);
    })
}

/// Runs the full micro-bench suite (a few hundred milliseconds).
pub fn run_all() -> Vec<MicroResult> {
    vec![
        queue_fused("queue_push_pop_ranked", 2_000_000),
        queue_run_ahead("run_ahead", 2_000_000),
        queue_churn("queue_batch_churn", 1_000_000),
        sampler_observe(300_000),
        sampler_observe_at("sampler_observe_8", 8, 300_000),
        sampler_observe_at("sampler_observe_64", 64, 300_000),
        sampler_observe_at("sampler_observe_1k", 1 << 10, 300_000),
        configure_ndpext(500),
        configure_ndpext_bfs(500),
        bucket_table(2_000),
        layout_locate(2_000_000),
        tag_transfer(2_000),
        graph_powerlaw(),
        powerlaw_draw("powerlaw_draw_a17", 1 << 20, 1.7, 4_000_000),
        powerlaw_draw("powerlaw_draw_a18", 35_791_394, 1.8, 4_000_000),
        l1_access("l1_access_seq", true, 4_000_000),
        l1_access("l1_access_rand", false, 4_000_000),
        l1_access_interleaved(4_000_000),
        addr_of_elem_1d(4_000_000),
        op_fetch_replay(20_000, 4_000_000),
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
            sampler_observe_at("s8", 8, 2_000),
            sampler_observe_at("s64", 64, 2_000),
            sampler_observe_at("s1k", 1 << 10, 2_000),
            configure_ndpext(2),
            configure_ndpext_bfs(2),
            bucket_table(8),
            layout_locate(1_000),
            tag_transfer(4),
            powerlaw_draw("p17", 1 << 20, 1.7, 1_000),
            l1_access("l1s", true, 1_000),
            l1_access("l1r", false, 1_000),
            l1_access_interleaved(1_000),
            addr_of_elem_1d(1_000),
            op_fetch_replay(100, 2_000),
        ];
        for r in rs {
            assert!(r.iters > 0, "{}: no iterations", r.name);
            assert!(r.ns_per_iter.is_finite() && r.ns_per_iter >= 0.0, "{}: bad rate", r.name);
        }
    }

    #[test]
    fn env_gate_defaults_off() {
        // The gauge only runs micros when explicitly asked.
        if crate::knobs::GAUGE_MICRO.raw().is_none() {
            assert!(!enabled_from_env());
        }
    }
}
