//! Layer costs measured from outside the simulator.
//!
//! Three ingredients, all taken through public functions:
//!
//! * [`Micro`]: per-operation host cost of each layer's hot entry point
//!   (`OpSource::next_op`, `EventQueue::push_pop_ranked`,
//!   `SetAssocCache::access`, `Network::send`, `DramDevice::access`,
//!   `ExtendedMemory::access`) and of the host runtime's kernels
//!   (`allocate_ndpext`, `assign_samplers`, `Group::new`,
//!   `SetSampler::observe`), timed at the workload's own geometry;
//! * [`Counts`]: the deterministic counters a run publishes in its
//!   [`RunReport`] and stat registry, summed over a workload's cells;
//! * [`attribute`]: count × per-op cost for each layer, next to the
//!   measured run time, leaving an explicit residual.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ndpx_cache::setassoc::SetAssocCache;
use ndpx_core::config::SystemConfig;
use ndpx_core::layout::Group;
use ndpx_core::runtime::configure::{allocate_ndpext, ConfigCtx, StreamDemand};
use ndpx_core::runtime::maxflow::assign_samplers;
use ndpx_core::runtime::sampler::{capacity_points, MissCurve, SetSampler};
use ndpx_core::stats::RunReport;
use ndpx_cxl::ExtendedMemory;
use ndpx_mem::device::DramDevice;
use ndpx_noc::network::Network;
use ndpx_noc::topology::UnitId;
use ndpx_sim::engine::EventQueue;
use ndpx_sim::rng::Xoshiro256;
use ndpx_sim::telemetry::{StatRegistry, StatValue};
use ndpx_sim::time::Time;
use ndpx_stream::StreamKind;
use ndpx_workloads::replay::ReplaySource;
use ndpx_workloads::{CachedTrace, Op, OpSource};

use crate::spans::Recorder;

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median over `batches` runs of `f(iters)`, as nanoseconds per iteration.
fn ns_per_op(batches: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut v: Vec<f64> = (0..batches)
        .map(|_| {
            let t0 = Instant::now();
            f(iters);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut v)
}

/// Host-runtime kernel costs at one trace's stream × unit shape.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeShape {
    /// Streams in the trace.
    pub streams: usize,
    /// `allocate_ndpext` (Algorithm 1), milliseconds per call.
    pub allocate_ms: f64,
    /// `assign_samplers` (max-flow), microseconds per call.
    pub assign_us: f64,
}

/// Per-operation costs of every layer, measured outside the simulator.
#[derive(Debug, Clone)]
pub struct Micro {
    /// `ReplaySource::next_op`, ns.
    pub replay_ns: f64,
    /// `EventQueue::push_pop_ranked` with one pending event per core, ns.
    pub queue_ns: f64,
    /// `SetAssocCache::access` at the L1 geometry, ns.
    pub l1_ns: f64,
    /// `SetAssocCache::access` at the SLB geometry, ns.
    pub slb_ns: f64,
    /// `SetAssocCache::access` at the metadata-cache geometry, ns.
    pub meta_ns: f64,
    /// `Network::send`, ns.
    pub noc_ns: f64,
    /// `DramDevice::access` on an NDP unit's DRAM, ns.
    pub mem_ns: f64,
    /// `ExtendedMemory::access` (CXL port plus DDR backend), ns.
    pub cxl_ns: f64,
    /// `SetSampler::observe` at the system's capacity points, ns.
    pub observe_ns: f64,
    /// `Group::new` over every unit, µs.
    pub rehash_us: f64,
    /// `assign_samplers` at Fig. 4b's 512 streams × 64 units, µs.
    pub assign_fig4b_us: f64,
    /// Runtime kernels at each NDP trace's shape, in trace order.
    pub shapes: Vec<RuntimeShape>,
}

impl Micro {
    /// The runtime shape for a trace with `streams` streams.
    pub fn shape(&self, streams: usize) -> RuntimeShape {
        *self.shapes.iter().find(|s| s.streams == streams).expect("shape measured for every trace")
    }
}

/// `(address, stream index)` of one core's memory references, for the
/// cache micros; raw (stream-less) references have no stream index.
fn mem_refs(trace: &CachedTrace) -> Vec<(u64, Option<u64>)> {
    trace.ops[0]
        .iter()
        .filter_map(|op| match *op {
            Op::Mem(m) => {
                Some((trace.table.get(m.sid).addr_of(m.elem), Some(m.sid.index() as u64)))
            }
            Op::RawMem { addr, .. } => Some((addr, None)),
            Op::Compute(_) => None,
        })
        .collect()
}

/// `SetAssocCache::access` on `cache`, cycling through `keys`, ns per call.
fn access_ns(mut cache: SetAssocCache, keys: &[u64]) -> f64 {
    let mut at = 0usize;
    ns_per_op(5, 1 << 20, |n| {
        for _ in 0..n {
            at = if at + 1 < keys.len() { at + 1 } else { 0 };
            black_box(cache.access(keys[at], false));
        }
    })
}

/// Synthetic per-stream demands shaped like `trace`'s table (its stream
/// kinds, read-only bits and sizes) with seeded miss curves and access
/// sets, plus the configuration context of `cfg`'s topology. The demands a
/// run derives at its epochs are not public, so the Algorithm 1 cost timed
/// on these is a model of the run's, not a measurement of it.
fn demands(trace: &CachedTrace, cfg: &SystemConfig, seed: u64) -> (Vec<StreamDemand>, ConfigCtx) {
    let units = cfg.units();
    let mut rng = Xoshiro256::seed_from(seed ^ 0xA110C);
    let demands = trace
        .table
        .iter()
        .map(|s| {
            let total = 10_000.0 + rng.below(100_000) as f64;
            let pts: Vec<(u64, f64)> =
                (1..=16).map(|k| ((k as u64) << 16, total / (1.0 + k as f64))).collect();
            let mut acc: Vec<(usize, u64)> = Vec::new();
            for u in 0..units {
                if rng.chance(0.3) {
                    acc.push((u, 100 + rng.below(1000)));
                }
            }
            if acc.is_empty() {
                acc.push((s.sid.index() % units, 100));
            }
            StreamDemand {
                curve: MissCurve::from_samples(total, pts),
                acc_units: acc,
                read_only: s.read_only,
                affine: matches!(s.kind, StreamKind::Affine(_)),
                grain: cfg.line_bytes,
                total_accesses: total as u64,
                footprint: s.size,
            }
        })
        .collect();
    // Attenuation as the system derives it: DRAM latency over DRAM latency
    // plus the NoC distance between the two units.
    let (intra, inter) = cfg.link_params();
    let net = Network::new(cfg.topology, intra, inter);
    let dram_lat = cfg.dram_config().timing.row_empty().as_ps() as f64;
    let attenuation = (0..units)
        .map(|u| {
            (0..units)
                .map(|v| {
                    let d = net.base_latency(UnitId(u), UnitId(v), 64).as_ps() as f64;
                    dram_lat / (dram_lat + d)
                })
                .collect()
        })
        .collect();
    let ctx = ConfigCtx {
        units,
        unit_capacity: cfg.unit_capacity,
        affine_cap: cfg.affine_cap.min(cfg.unit_capacity),
        attenuation,
        dram_lat_ps: dram_lat,
        miss_extra_ps: 2.0 * cfg.cxl.link_latency.as_ps() as f64
            + ndpx_mem::timing::DramTiming::ddr5_4800().row_empty().as_ps() as f64,
        dead: vec![false; units],
    };
    (demands, ctx)
}

/// Unit access sets in which each unit touches a random quarter of the
/// streams (the Fig. 4b input shape).
fn access_sets(units: usize, streams: usize, rng: &mut Xoshiro256) -> Vec<Vec<usize>> {
    (0..units).map(|_| (0..streams).filter(|_| rng.chance(0.25)).collect()).collect()
}

/// Measures every layer's per-op cost. `traces` are the workload's NDP
/// traces (the first also feeds the replay and cache micros); `cfg` is the
/// NDP configuration the cells run.
pub fn measure(
    rec: &mut Recorder,
    label: &str,
    cfg: &SystemConfig,
    traces: &[Arc<CachedTrace>],
    seed: u64,
) -> Micro {
    let units = cfg.units();
    let mut rng = Xoshiro256::seed_from(seed ^ 0x05EE_DB0B);
    let first = &traces[0];

    let replay_ns = rec.span("workloads", "next_op", label, || {
        let cores = first.ops.len();
        let mut src = ReplaySource::new(Arc::clone(first));
        ns_per_op(5, 1 << 20, |n| {
            for i in 0..n {
                black_box(src.next_op(i as usize % cores));
            }
        })
    });

    let queue_ns = rec.span("engine", "push_pop_ranked", label, || {
        let mut q: EventQueue<usize> = EventQueue::new();
        for c in 0..units {
            q.push_ranked(Time::ZERO, c as u64, c);
        }
        let (mut now, mut core) = q.pop().expect("non-empty");
        ns_per_op(5, 1 << 20, |n| {
            for _ in 0..n {
                // Mostly core/L1-scale deltas, with a tail of miss-scale ones.
                let dt = if rng.below(10) == 0 {
                    50_000 + rng.below(450_000)
                } else {
                    500 + rng.below(3_500)
                };
                (now, core) = q.push_pop_ranked(now + Time::from_ps(dt), core as u64, core);
            }
            black_box((now, core));
        })
    });

    // Each on-unit cache at its own geometry and with the keys the system
    // gives it: lines (L1), stream ids (SLB), metadata regions (metadata
    // cache).
    let refs = mem_refs(first);
    let l1_ns = rec.span("cache", "access_l1", label, || {
        let keys: Vec<u64> = refs.iter().map(|&(a, _)| a / cfg.line_bytes).collect();
        access_ns(SetAssocCache::with_capacity(cfg.l1_bytes, cfg.line_bytes, cfg.l1_ways), &keys)
    });
    let slb_ns = rec.span("cache", "access_slb", label, || {
        let keys: Vec<u64> = refs.iter().filter_map(|&(_, sid)| sid).collect();
        access_ns(SetAssocCache::new(1, cfg.slb_entries), &keys)
    });
    let meta_ns = rec.span("cache", "access_meta", label, || {
        let keys: Vec<u64> = refs.iter().map(|&(a, _)| a / cfg.metadata_block).collect();
        access_ns(SetAssocCache::with_capacity(cfg.metadata_cache_bytes, 8, 8), &keys)
    });

    let noc_ns = rec.span("noc", "send", label, || {
        let (intra, inter) = cfg.link_params();
        let mut net = Network::new(cfg.topology, intra, inter);
        let pairs: Vec<(usize, usize)> = (0..4096)
            .map(|_| (rng.below(units as u64) as usize, rng.below(units as u64) as usize))
            .collect();
        let mut now = Time::ZERO;
        ns_per_op(5, 1 << 18, |n| {
            for i in 0..n as usize {
                let (s, d) = pairs[i % pairs.len()];
                now += Time::from_ps(2_000);
                black_box(net.send(UnitId(s), UnitId(d), 64, now));
            }
        })
    });

    let addrs: Vec<u64> = (0..4096).map(|_| rng.next_u64()).collect();
    let mem_ns = rec.span("mem", "access", label, || {
        let mut dram = DramDevice::new(cfg.dram_config());
        let mut now = Time::ZERO;
        ns_per_op(5, 1 << 18, |n| {
            for i in 0..n as usize {
                now += Time::from_ps(5_000);
                let addr = (addrs[i % addrs.len()] % cfg.unit_capacity) & !63;
                black_box(dram.access(addr, 64, false, now));
            }
        })
    });

    let cxl_ns = rec.span("cxl", "access", label, || {
        let mut ext = ExtendedMemory::new(cfg.cxl, cfg.ext_capacity);
        let mut now = Time::ZERO;
        ns_per_op(5, 1 << 18, |n| {
            for i in 0..n as usize {
                now += Time::from_ps(20_000);
                let addr = (addrs[i % addrs.len()] % cfg.ext_capacity) & !63;
                black_box(ext.access(addr, 64, false, now));
            }
        })
    });

    let observe_ns = rec.span("runtime", "observe", label, || {
        let global = cfg.unit_capacity * units as u64;
        let caps =
            capacity_points((global / 16384).max(cfg.line_bytes), global, cfg.sampler_points);
        let mut s = SetSampler::new(&caps, cfg.line_bytes, cfg.sampler_sets);
        ns_per_op(5, 1 << 16, |n| {
            for i in 0..n as usize {
                s.observe(addrs[i % addrs.len()] >> 20);
            }
            black_box(s.observed());
        })
    });

    let rehash_us = rec.span("runtime", "rehash", label, || {
        let shares: Vec<u64> = (0..units).map(|_| 1 + rng.below(4096)).collect();
        ns_per_op(5, 16, |n| {
            for _ in 0..n {
                black_box(Group::new(black_box(shares.clone()), true).total_slots());
            }
        }) / 1e3
    });

    let assign_fig4b_us = rec.span("runtime", "assign_fig4b", label, || {
        let accessed = access_sets(64, 512, &mut Xoshiro256::seed_from(42));
        ns_per_op(5, 2, |n| {
            for _ in 0..n {
                black_box(assign_samplers(black_box(&accessed), 512, 4));
            }
        }) / 1e3
    });

    let mut shapes: Vec<RuntimeShape> = Vec::new();
    for trace in traces {
        let streams = trace.table.len();
        if shapes.iter().any(|s| s.streams == streams) {
            continue;
        }
        let (demands, ctx) = demands(trace, cfg, seed);
        let allocate_ms = rec.span("runtime", "allocate_ndpext", trace.name, || {
            ns_per_op(3, 1, |_| {
                black_box(allocate_ndpext(black_box(&demands), black_box(&ctx)));
            }) / 1e6
        });
        let accessed = access_sets(units, streams, &mut rng);
        let assign_us = rec.span("runtime", "assign_samplers", trace.name, || {
            ns_per_op(5, 4, |n| {
                for _ in 0..n {
                    black_box(assign_samplers(
                        black_box(&accessed),
                        streams,
                        cfg.samplers_per_unit,
                    ));
                }
            }) / 1e3
        });
        shapes.push(RuntimeShape { streams, allocate_ms, assign_us });
    }

    Micro {
        replay_ns,
        queue_ns,
        l1_ns,
        slb_ns,
        meta_ns,
        noc_ns,
        mem_ns,
        cxl_ns,
        observe_ns,
        rehash_us,
        assign_fig4b_us,
        shapes,
    }
}

fn count(reg: &StatRegistry, path: &str) -> u64 {
    reg.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

/// Deterministic counters summed over a workload's cells. `core.*` fields
/// come from NDP cells only; the layer fields (engine, cache, noc, mem,
/// cxl) include the host cell's devices too.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub ndp_ops: u64,
    pub all_ops: u64,
    pub mem_ops: u64,
    pub l1_hits: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub local_hits: u64,
    pub slb_misses: u64,
    pub metadata_dram: u64,
    pub reconfigs: u64,
    pub migrations: u64,
    pub invalidations: u64,
    pub sim_ps: u64,
    pub queue_processed: u64,
    pub queue_overflow: u64,
    pub batches: u64,
    pub batch_ops: u64,
    pub fast_hits: u64,
    pub l1_accesses: u64,
    pub slb_accesses: u64,
    pub meta_accesses: u64,
    pub meta_hits: u64,
    pub llc_accesses: u64,
    pub noc_messages: u64,
    pub intra_hops: u64,
    pub inter_hops: u64,
    pub link_busy_ps: u64,
    pub peak_wait_ps: u64,
    pub dram_accesses: u64,
    pub dram_row_hits: u64,
    pub dram_activates: u64,
    pub cxl_requests: u64,
    pub cxl_latency_ps: u64,
    pub cxl_latency_n: u64,
    pub cxl_ddr_accesses: u64,
    pub cxl_ddr_row_hits: u64,
}

impl Counts {
    /// Adds one run's counters; `host` marks a `HostSystem` report.
    pub fn add(&mut self, r: &RunReport, host: bool) {
        let reg = &r.registry;
        self.all_ops += r.ops;
        self.queue_processed += count(reg, "engine.queue.processed");
        self.queue_overflow += count(reg, "engine.queue.overflow_scheduled");
        self.batches += count(reg, "engine.batch.batches");
        self.batch_ops += count(reg, "engine.batch.ops");
        self.fast_hits += count(reg, "engine.batch.fast_hits");
        self.noc_messages += count(reg, "noc.messages");
        self.intra_hops += count(reg, "noc.intra_hops");
        self.inter_hops += count(reg, "noc.inter_hops");
        for (path, v) in reg.iter() {
            let Some(link) = path.strip_prefix("noc.link.") else { continue };
            let v = v.as_count().unwrap_or(0);
            if link.ends_with(".busy_ps") {
                self.link_busy_ps += v;
            } else if link.ends_with(".peak_wait_ps") {
                self.peak_wait_ps = self.peak_wait_ps.max(v);
            }
        }
        if host {
            // The host publishes no per-core L1 scope: every memory op
            // probes its L1 once, and each L1 miss probes one LLC bank.
            self.l1_accesses += r.mem_ops;
            self.llc_accesses += count(reg, "core.llc_hits") + count(reg, "core.llc_misses");
            self.dram_accesses += count(reg, "mem.reads") + count(reg, "mem.writes");
            self.dram_row_hits += count(reg, "mem.row_hits");
            self.dram_activates += count(reg, "mem.activates");
            return;
        }
        self.ndp_ops += r.ops;
        self.mem_ops += r.mem_ops;
        self.l1_hits += r.l1_hits;
        self.cache_hits += r.cache_hits;
        self.cache_misses += r.cache_misses;
        self.local_hits += r.local_hits;
        self.slb_misses += r.slb_misses;
        self.metadata_dram += r.metadata_dram;
        self.reconfigs += r.reconfigs;
        self.migrations += r.migrations;
        self.invalidations += r.invalidations;
        self.sim_ps += r.sim_time.as_ps();
        self.cxl_requests += count(reg, "cxl.requests");
        if let Some(StatValue::Latency { total_ps, count }) = reg.get("cxl.latency") {
            self.cxl_latency_ps += total_ps;
            self.cxl_latency_n += count;
        }
        self.cxl_ddr_accesses += count(reg, "cxl.ddr.reads") + count(reg, "cxl.ddr.writes");
        self.cxl_ddr_row_hits += count(reg, "cxl.ddr.row_hits");
        for (path, v) in reg.iter() {
            let Some((_, leaf)) = path.strip_prefix("unit").and_then(|p| p.split_once('.')) else {
                continue;
            };
            let v = v.as_count().unwrap_or(0);
            match leaf {
                "l1.hits" | "l1.misses" => self.l1_accesses += v,
                "slb.hits" | "slb.misses" => self.slb_accesses += v,
                "meta.hits" => {
                    self.meta_accesses += v;
                    self.meta_hits += v;
                }
                "meta.misses" => self.meta_accesses += v,
                "dram.reads" | "dram.writes" => self.dram_accesses += v,
                "dram.row_hits" => self.dram_row_hits += v,
                "dram.activates" => self.dram_activates += v,
                _ => {}
            }
        }
    }

    /// Post-L1 stream accesses: each one feeds the stream's sampler.
    pub fn post_l1(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runtime work one NDP cell did, for the runtime attribution.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeWork {
    /// Streams in the cell's trace (selects the measured shape).
    pub streams: usize,
    /// Epoch boundaries crossed: each re-runs the sampler assignment.
    pub epochs: u64,
    /// Whether the policy runs Algorithm 1 at each epoch.
    pub reconfigures: bool,
    /// Post-L1 accesses observed by samplers.
    pub observed: u64,
}

/// Modelled host seconds per layer: `(layer, seconds)` in display order.
///
/// The runtime is charged only for what it does at every epoch: sampler
/// assignment, Algorithm 1 when the policy reconfigures, and one sampler
/// observation per post-L1 access. Rehash and migration happen only at
/// epochs whose allocation clears the system's hysteresis, a count no
/// report publishes, so they are left to the residual; the traced run's
/// paired figure (a reconfiguring cell against its NDPExt-static twin)
/// measures them instead.
pub fn attribute(c: &Counts, m: &Micro, work: &[RuntimeWork]) -> Vec<(&'static str, f64)> {
    let runtime_us: f64 = work
        .iter()
        .map(|w| {
            let shape = m.shape(w.streams);
            let mut us = w.epochs as f64 * shape.assign_us + w.observed as f64 * m.observe_ns / 1e3;
            if w.reconfigures {
                us += w.epochs as f64 * shape.allocate_ms * 1e3;
            }
            us
        })
        .sum();
    // Host LLC banks are L1-sized, so their probes are charged at the L1 cost.
    let cache_ns = (c.l1_accesses + c.llc_accesses) as f64 * m.l1_ns
        + c.slb_accesses as f64 * m.slb_ns
        + c.meta_accesses as f64 * m.meta_ns;
    vec![
        ("engine", c.queue_processed as f64 * m.queue_ns * 1e-9),
        ("cache", cache_ns * 1e-9),
        ("noc", c.noc_messages as f64 * m.noc_ns * 1e-9),
        ("mem", c.dram_accesses as f64 * m.mem_ns * 1e-9),
        ("cxl", c.cxl_requests as f64 * m.cxl_ns * 1e-9),
        ("replay", c.all_ops as f64 * m.replay_ns * 1e-9),
        ("runtime", runtime_us * 1e-6),
    ]
}
