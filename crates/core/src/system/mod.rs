//! The full NDP-with-extended-memory system simulator.
//!
//! [`NdpSystem`] assembles the substrates — per-unit DRAM devices, the
//! two-level interconnect, the CXL extended memory, per-core L1s — under one
//! cache-management policy, runs a workload's op streams on the in-order NDP
//! cores, and reports latency/energy breakdowns.
//!
//! ## Access path
//!
//! A memory op from core `c` (co-located with unit `c`):
//!
//! 1. **L1** — hit ends the access.
//! 2. **Metadata** — stream-grain policies probe the SLB (host-refilled on
//!    miss); cacheline-grain baselines probe the SRAM metadata cache and, on
//!    miss, read the in-DRAM tags at the line's home unit (the paper's extra
//!    metadata traffic).
//! 3. **Placement** — the stream's layout maps the key to a replication
//!    group (the one serving this unit) and a `(unit, slot)`.
//! 4. **Data** — affine streams check the SRAM ATA then read DRAM on a hit;
//!    indirect streams read DRAM tag-with-data directly; misses fetch from
//!    extended memory through the serving stack's CXL port and install.
//!
//! ## Control plane
//!
//! Every epoch the runtime assigns samplers (max-flow), reads the sampled
//! miss curves, runs the configuration algorithm for the active policy, and
//! applies the new layout with bulk invalidation or consistent-hash
//! transfer (§V-D). Samplers exist only when the policy reconfigures or a
//! chaos plan can force a re-placement; otherwise nothing reads them.

mod access;
mod chaos;
mod reconfig;
mod telemetry;

use std::sync::Arc;

use ndpx_cache::setassoc::SetAssocCache;
use ndpx_cache::tagarray::TagArray;
use ndpx_cxl::{CxlFault, ExtendedMemory};
use ndpx_mem::device::{DramDevice, MemFault};
use ndpx_noc::network::{Network, NocFault};
use ndpx_sim::chaos::ChaosPlan;
use ndpx_sim::energy::Power;
use ndpx_sim::engine::ProgressWatchdog;
use ndpx_sim::fastdiv::Divisor;
use ndpx_sim::fault::domain;
use ndpx_sim::stats::Histogram;
use ndpx_sim::telemetry::log::{enabled, Level};
use ndpx_sim::telemetry::{Phase, PhaseProfiler, StatRegistry, TraceSink};
use ndpx_sim::time::Time;
use ndpx_sim::{ndpx_info, ndpx_warn};
use ndpx_stream::StreamTable;
use ndpx_workloads::trace::{Op, Workload};

use crate::config::{PolicyKind, SystemConfig};
use crate::desc::{DescParams, StreamDesc};
use crate::driver::{self, Engine, Simulated};
use crate::layout::StreamLayout;
use crate::runtime::configure::{allocate_baseline, Solver};
use crate::runtime::sampler::{MissCurve, SamplerShape};
use crate::stats::{Breakdown, RunReport};

use chaos::ChaosState;
use reconfig::SamplerSlot;
use telemetry::SloTracker;

/// L1 hit/probe latency, core cycles.
const L1_CYCLES: u64 = 2;
/// SLB probe latency, core cycles.
const SLB_CYCLES: u64 = 1;
/// ATA / metadata-cache SRAM probe latency, core cycles.
const SRAM_TAG_CYCLES: u64 = 2;
/// Core restart after a memory response, cycles.
const RESTART_CYCLES: u64 = 1;
/// Penalty charged to the writing core when a read-only stream transitions
/// to read-write (host exception + replica invalidation, §IV-B).
const RO_TRANSITION_PENALTY: Time = Time::from_us(5);
/// Static power per in-order NDP core (logic-die share).
const CORE_STATIC: Power = Power::from_mw(50.0);
/// Request message size on the NoC.
const REQ_BYTES: u32 = 16;
/// Response/data message size granularity.
const LINE_BYTES: u32 = 64;

/// The NDP system simulator.
pub struct NdpSystem {
    cfg: SystemConfig,
    table: StreamTable,
    source: Box<dyn ndpx_workloads::trace::OpSource>,
    workload_name: &'static str,
    net: Network,
    ext: ExtendedMemory,
    // Hot per-unit device state in struct-of-arrays form: each access-path
    // stage walks exactly one of these parallel vectors (all indexed by
    // unit), instead of striding over one wide per-unit struct and dragging
    // the cold members through the cache with it.
    /// Per-unit DRAM devices.
    drams: Vec<DramDevice>,
    /// Per-core L1 data caches.
    l1s: Vec<SetAssocCache>,
    /// Per-unit SLBs: fully-associative over stream IDs.
    slbs: Vec<SetAssocCache>,
    /// Baselines' per-unit SRAM metadata caches over 512 B regions.
    metas: Vec<SetAssocCache>,
    /// Per-(stream, unit) tag arrays for each unit's DRAM cache region,
    /// stream-major: `tags[si * units + u]`, so one stream's arrays across
    /// all units are one contiguous row.
    tags: Vec<Option<TagArray>>,
    layouts: Vec<StreamLayout>,
    /// Per-stream hot-path descriptors, indexed by `StreamId`; immutable
    /// for a run (grain/key/fetch math depends only on the stream config
    /// and the policy).
    descs: Vec<StreamDesc>,
    attenuation: Vec<Vec<f64>>,
    /// Uncontended unit-to-unit latency in picoseconds (64 B message),
    /// row-major flat: `distance[src * units + dst]`.
    distance: Vec<u64>,
    /// Per unit pair: `(intra_weight, total_weight)` picosecond hop-time
    /// weights for splitting a NoC duration between the intra/inter
    /// latency components without re-deriving hop counts. Row-major flat,
    /// same indexing as `distance`.
    noc_weights: Vec<(u64, u64)>,
    // Epoch state.
    next_epoch: Time,
    /// Per-(stream, unit) access counts for the current epoch, stream-major
    /// flat: `acc_counts[si * units + u]`.
    acc_counts: Vec<u64>,
    /// Exponentially-weighted access history (halved each epoch, current
    /// counts added): smooths phase behaviour that is shorter than an epoch
    /// so the allocator keeps capacity for streams between their bursts.
    /// Same flat layout as `acc_counts`.
    acc_history: Vec<u64>,
    samplers: Vec<Option<SamplerSlot>>,
    /// Every sampler shape built so far, shared by all samplers of that
    /// shape across streams and reassignments (one candidate index each).
    sampler_shapes: Vec<Arc<SamplerShape>>,
    prev_curves: Vec<Option<MissCurve>>,
    /// Algorithm 1's solver, reused by every epoch and forced re-placement.
    solver: Solver,
    // Statistics.
    mem_ops: u64,
    l1_hits: u64,
    cache_hits: u64,
    cache_misses: u64,
    local_hits: u64,
    bypass: u64,
    slb_misses: u64,
    metadata_dram: u64,
    breakdown: Breakdown,
    reconfigs: u64,
    invalidations: u64,
    migrations: u64,
    /// Poisoned-data stream aborts: cached-copy invalidation + refetch
    /// events triggered by uncorrectable ECC errors.
    stream_aborts: u64,
    replicated_fraction: f64,
    /// End-to-end latency distribution of post-L1 memory accesses.
    access_latency: Histogram,
    /// Run-loop state: batching switch, batch and stall telemetry, and
    /// the opt-in timeline sampler.
    engine: Engine,
    /// Strength-reduced `/ cfg.line_bytes` (every op computes its line).
    line_div: Divisor,
    /// Strength-reduced `/ cfg.metadata_block` (per line-grain miss).
    meta_div: Divisor,
    /// Log-facade gates cached at construction so the hot paths pay one
    /// boolean test instead of an atomic load per access.
    trace_noc: bool,
    trace_alloc: bool,
    /// Opt-in Chrome-trace exporter (`cfg.telemetry.trace`); `None` costs
    /// one branch per recording site.
    trace: Option<Box<TraceSink>>,
    /// Opt-in sim-phase profiler (`cfg.telemetry.profile`); phase
    /// boundaries are per-epoch, so the hot path never sees it.
    profile: Option<Box<PhaseProfiler>>,
    /// Epoch SLO stats; active only while a time-resolved consumer is
    /// attached (see [`SloTracker`]).
    slo: SloTracker,
    /// Hard-failure escalation state (`cfg.chaos`); `None` whenever the
    /// schedule is empty, keeping chaos-off runs byte-identical.
    chaos: Option<Box<ChaosState>>,
}

impl NdpSystem {
    /// Builds the system for one workload.
    ///
    /// # Errors
    ///
    /// Returns a message if the configuration is invalid or the workload was
    /// generated for a different core count.
    pub fn new(cfg: SystemConfig, workload: Workload) -> Result<Self, String> {
        cfg.validate()?;
        if workload.cores != cfg.units() {
            return Err(format!(
                "workload built for {} cores but system has {} units",
                workload.cores,
                cfg.units()
            ));
        }
        let units_n = cfg.units();
        let (intra, inter) = cfg.link_params();
        let net = Network::new(cfg.topology, intra, inter);

        let desc_params = DescParams {
            stream_grain: cfg.policy.is_stream_grain(),
            affine_block: cfg.affine_block,
            line_bytes: cfg.line_bytes,
        };
        // Tag arrays store key + 1 in 32 bits; checked once here so the hot
        // path needs only a debug assertion.
        if let Some((s, key)) = workload
            .table
            .iter()
            .map(|s| (s, crate::desc::max_key(s, desc_params)))
            .find(|&(_, key)| key >= u64::from(u32::MAX))
        {
            return Err(format!(
                "workload {}: stream {} reaches cache key {key}, past the 32-bit tag range",
                workload.name, s.sid
            ));
        }
        let descs: Vec<StreamDesc> =
            workload.table.iter().map(|s| StreamDesc::build(*s, desc_params)).collect();

        let stream_count = workload.table.len();
        let drams = (0..units_n).map(|_| DramDevice::new(cfg.dram_config())).collect();
        let l1s = (0..units_n)
            .map(|_| SetAssocCache::with_capacity(cfg.l1_bytes, cfg.line_bytes, cfg.l1_ways))
            .collect();
        let slbs = (0..units_n).map(|_| SetAssocCache::new(1, cfg.slb_entries)).collect();
        let metas = (0..units_n)
            .map(|_| SetAssocCache::with_capacity(cfg.metadata_cache_bytes, 8, 8))
            .collect();
        let tags = (0..stream_count * units_n).map(|_| None).collect();

        let mut sys = NdpSystem {
            ext: ExtendedMemory::new(cfg.cxl, cfg.ext_capacity),
            net,
            drams,
            l1s,
            slbs,
            metas,
            tags,
            layouts: Vec::new(),
            descs,
            attenuation: Vec::new(),
            distance: Vec::new(),
            noc_weights: Vec::new(),
            next_epoch: cfg.epoch(),
            acc_counts: vec![0; stream_count * units_n],
            acc_history: vec![0; stream_count * units_n],
            samplers: (0..stream_count).map(|_| None).collect(),
            sampler_shapes: Vec::new(),
            prev_curves: vec![None; stream_count],
            solver: Solver::default(),
            table: workload.table,
            source: workload.source,
            workload_name: workload.name,
            line_div: Divisor::new(cfg.line_bytes.max(1)),
            meta_div: Divisor::new(cfg.metadata_block.max(1)),
            mem_ops: 0,
            l1_hits: 0,
            cache_hits: 0,
            cache_misses: 0,
            local_hits: 0,
            bypass: 0,
            slb_misses: 0,
            metadata_dram: 0,
            breakdown: Breakdown::default(),
            reconfigs: 0,
            invalidations: 0,
            migrations: 0,
            stream_aborts: 0,
            replicated_fraction: 0.0,
            access_latency: Histogram::new(),
            engine: Engine::new(cfg.telemetry.timeline.as_ref()),
            trace_noc: enabled(Level::Trace),
            trace_alloc: enabled(Level::Debug),
            trace: cfg.telemetry.trace.clone().map(|c| Box::new(TraceSink::new(c))),
            profile: cfg.telemetry.profile.then(Box::default),
            slo: SloTracker::default(),
            chaos: None,
            cfg,
        };
        sys.slo.enabled = sys.engine.timeline.is_some() || sys.profile.is_some();
        sys.rebuild_noc_matrices();
        // Hard-failure schedule: a sim-time cursor over the validated chaos
        // plan. With no events scheduled the option stays `None` and every
        // hot path keeps its ideal shape.
        if sys.cfg.chaos.enabled() {
            sys.chaos = Some(Box::new(ChaosState::new(ChaosPlan::new(&sys.cfg.chaos), units_n)));
        }
        // Deterministic fault injection: each device derives an independent
        // decision plan from (master seed, domain, instance), so schedules
        // are reproducible regardless of harness thread count. With the
        // seed unset every `plan` is `None` and all devices keep the ideal
        // fault-free path bit-for-bit.
        let fcfg = sys.cfg.fault;
        sys.ext.set_fault(fcfg.plan(domain::CXL, 0).map(|p| CxlFault::new(p, fcfg.cxl_ber)));
        sys.net.set_fault(fcfg.plan(domain::NOC, 0).map(|p| NocFault::new(p, fcfg.noc_fer)));
        for (u, dram) in sys.drams.iter_mut().enumerate() {
            dram.set_fault(
                fcfg.plan(domain::MEM, u as u64)
                    .map(|p| MemFault::new(p, fcfg.mem_ce, fcfg.mem_ue)),
            );
        }
        // Warmup configuration: every policy starts from the equal static
        // allocation and (if it reconfigures) adapts at the first epoch.
        // ndpx-lint: allow(det-wallclock): profiler wall span; dumps carry sim time only
        let warmup_start = std::time::Instant::now();
        let demands = sys.collect_demands(true);
        let alloc = allocate_baseline(
            if sys.cfg.policy.is_stream_grain() {
                PolicyKind::NdpExtStatic
            } else {
                sys.cfg.policy.pick_warmup()
            },
            &demands,
            &sys.config_ctx(),
            sys.cfg.nexus_degree,
        );
        sys.apply_allocation(&alloc, Time::ZERO);
        sys.assign_epoch_samplers();
        if let Some(p) = sys.profile.as_deref_mut() {
            p.add(Phase::Warmup, warmup_start.elapsed(), Time::ZERO);
        }
        Ok(sys)
    }

    /// Attributes an externally timed phase (e.g. trace generation in the
    /// bench harness) to this system's profiler, if one is attached.
    pub fn record_phase(&mut self, phase: Phase, wall: std::time::Duration) {
        if let Some(p) = self.profile.as_deref_mut() {
            p.add(phase, wall, Time::ZERO);
        }
    }

    /// Enables or disables run-ahead batching for this system. Batching is
    /// on by default and bit-identical to the per-op loop (see
    /// [`run`](Self::run)); switching it off exists so differential tests
    /// can compare both paths, the per-op loop being the oracle.
    pub fn set_batching(&mut self, on: bool) {
        self.engine.batch = on;
    }

    /// Runs `ops_per_core` trace operations on every core; returns the
    /// report. Can be called once per system.
    ///
    /// Scheduling and run-ahead batching are the shared driver's (the
    /// private `driver` module, DESIGN.md §9). This system adds epoch
    /// reconfigurations and chaos events as boundary actions, and the open
    /// trace window as a private-horizon clamp.
    pub fn run(&mut self, ops_per_core: u64) -> RunReport {
        self.run_with_watchdog(ops_per_core, ProgressWatchdog::new(ProgressWatchdog::DEFAULT_LIMIT))
    }

    /// [`run`](Self::run) with an explicit progress watchdog (tests inject
    /// small limits).
    pub fn run_with_watchdog(
        &mut self,
        ops_per_core: u64,
        watchdog: ProgressWatchdog,
    ) -> RunReport {
        // ndpx-lint: allow(det-wallclock): profiler wall span; dumps carry sim time only
        let run_start = std::time::Instant::now();
        let totals = driver::run(self, ops_per_core, watchdog);
        if let Some(p) = self.profile.as_deref_mut() {
            p.add(Phase::Run, run_start.elapsed(), totals.makespan);
        }
        let report = self.report(&totals);
        if let Some(mut tr) = self.trace.take() {
            if let Some(p) = self.profile.as_deref() {
                p.export_trace(&mut tr, 0, totals.makespan);
            }
            let label = self.run_label();
            match tr.write(&label) {
                Ok(path) => ndpx_info!("trace for {label} written to {}", path.display()),
                Err(e) => ndpx_warn!("failed to write trace for {label}: {e}"),
            }
        }
        report
    }
}

impl Simulated for NdpSystem {
    #[inline]
    fn engine(&self) -> &Engine {
        &self.engine
    }

    #[inline]
    fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn cores(&self) -> usize {
        self.cfg.units()
    }

    #[inline]
    fn next_op(&mut self, core: usize) -> Op {
        self.source.next_op(core)
    }

    #[inline]
    fn execute(&mut self, core: usize, op: Op, t: Time) -> Time {
        let done = match op {
            Op::Compute(cycles) => return t + self.cycles(u64::from(cycles)),
            Op::Mem(m) => self.process_mem(core, m, t),
            Op::RawMem { addr, write } => self.process_raw(core, addr, write, t),
        };
        self.record_access(core, t, done);
        done
    }

    #[inline]
    fn execute_private(&mut self, core: usize, op: Op, t: Time) -> Option<Time> {
        let (addr, write) = match op {
            Op::Compute(cycles) => return Some(t + self.cycles(u64::from(cycles))),
            Op::Mem(m) => (self.descs[m.sid.index()].addr_of_elem(m.elem), m.write),
            Op::RawMem { addr, write } => (addr, write),
        };
        if !self.l1s[core].access_if_hit(self.line_div.div(addr), write) {
            return None;
        }
        let done = self.l1_hit(t);
        self.record_access(core, t, done);
        Some(done)
    }

    /// Boundary actions in simulated-time order: due chaos events (and
    /// restores of windowed failures) interleave with epoch
    /// reconfigurations. Ties go to chaos so a failure landing exactly on
    /// an epoch boundary escalates before the regular reconfiguration
    /// runs; with no chaos configured this loop is exactly the historical
    /// epoch advance.
    #[inline]
    fn boundaries(&mut self, t: Time, remaining: &mut [u64]) {
        loop {
            let due_chaos = self.chaos_next_at().filter(|&c| c <= t && c <= self.next_epoch);
            if let Some(c) = due_chaos {
                self.apply_next_chaos(c, remaining);
            } else if t >= self.next_epoch {
                let at = self.next_epoch;
                // The profiler rides outside `self` so `reconfigure` can
                // time its sub-phases while the rest of the system is
                // mutably borrowed.
                let mut profile = self.profile.take();
                self.reconfigure(at, profile.as_deref_mut());
                self.profile = profile;
                self.next_epoch = at + self.cfg.epoch();
            } else {
                break;
            }
        }
    }

    /// The next epoch or chaos boundary: no reconfiguration or failure may
    /// see an op from its future.
    fn boundary_horizon(&self) -> Time {
        self.chaos_next_at().map_or(self.next_epoch, |c| c.min(self.next_epoch))
    }

    /// The trace ring keeps insertion order, so private ops may not run
    /// ahead while a trace is attached.
    fn private_bound(&self, t: Time) -> Time {
        if self.trace.is_some() {
            t
        } else {
            Time::MAX
        }
    }

    #[inline]
    fn l1_hits(&self) -> u64 {
        self.l1_hits
    }

    /// Restricted to values that are a pure function of simulated event
    /// order, so timelines are byte-identical at any thread count.
    fn timeline_stats(&self, reg: &mut StatRegistry, now: Time) {
        {
            let mut core = reg.scope("core");
            core.count("mem_ops", self.mem_ops);
            core.count("l1_hits", self.l1_hits);
            core.count("cache_hits", self.cache_hits);
            core.count("cache_misses", self.cache_misses);
            core.count("reconfigs", self.reconfigs);
            core.count("invalidations", self.invalidations);
            core.count("migrations", self.migrations);
        }
        self.net.register_stats(&mut reg.scope("noc"));
        {
            let mut cxl = reg.scope("cxl");
            self.ext.register_stats(&mut cxl);
            cxl.gauge("degradation", self.ext.degradation());
        }
        self.register_fault_scope(reg);
        self.register_chaos_scope(reg, now);
        if self.slo.enabled {
            let mut slo = reg.scope("slo");
            self.slo.register(&mut slo, now);
            slo.count("streams.poisoned", self.table.poisoned_streams());
            slo.count("streams.refetched", self.table.poison_events());
        }
    }

    /// Memory kind, policy, workload: one timeline file per bench-matrix
    /// cell.
    fn timeline_label(&self) -> String {
        format!("{:?}-{:?}-{}", self.cfg.mem_kind, self.cfg.policy, self.workload_name)
    }

    fn run_label(&self) -> String {
        format!("{:?}/{}", self.cfg.policy, self.workload_name)
    }
}

impl PolicyKind {
    /// The allocator used for the warmup epoch: equal static shares for
    /// stream-grain policies; the policy itself if it is already static;
    /// plain interleaving for the adaptive baselines (they have no curves
    /// yet).
    fn pick_warmup(self) -> PolicyKind {
        match self {
            PolicyKind::NdpExt | PolicyKind::NdpExtStatic => PolicyKind::NdpExtStatic,
            _ => PolicyKind::StaticInterleave,
        }
    }
}
#[cfg(test)]
mod tests;
