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
//! transfer (§V-D).

use ndpx_cache::setassoc::SetAssocCache;
use ndpx_cache::tagarray::TagArray;
use ndpx_cxl::{CxlFault, ExtendedMemory};
use ndpx_mem::device::{DramDevice, EccOutcome, MemFault};
use ndpx_noc::network::{Network, NocFault};
use ndpx_noc::topology::UnitId;
use ndpx_sim::chaos::{ChaosEvent, ChaosKind, ChaosPlan};
use ndpx_sim::energy::Power;
use ndpx_sim::engine::ProgressWatchdog;
use ndpx_sim::fastdiv::Divisor;
use ndpx_sim::fault::domain;
use ndpx_sim::stats::Histogram;
use ndpx_sim::telemetry::log::{enabled, Level};
use ndpx_sim::telemetry::{
    Phase, PhaseProfiler, ProfileSpan, StatRegistry, StatScope, TimelineSampler, TraceSink,
};
use ndpx_sim::time::Time;
use ndpx_sim::{ndpx_debug, ndpx_info, ndpx_trace, ndpx_warn};
use ndpx_stream::{StreamId, StreamTable};
use ndpx_workloads::trace::{MemRef, Op, Workload};

use crate::config::{PolicyKind, ReconfigTransfer, SystemConfig};
use crate::desc::{DescParams, StreamDesc};
use crate::driver::{self, Engine, EngineScope, RunTotals, Simulated};
use crate::layout::{Group, StreamLayout};
use crate::runtime::configure::{
    allocate_baseline, allocate_ndpext, Allocation, ConfigCtx, StreamDemand,
};
use crate::runtime::maxflow::assign_samplers;
use crate::runtime::sampler::{capacity_points, MissCurve, SetSampler};
use crate::stats::{Breakdown, EnergyBreakdown, LatComponent, RunReport};

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

struct SamplerSlot {
    unit: usize,
    sampler: SetSampler,
}

/// Epoch-level service telemetry: per-epoch access-latency percentiles,
/// placement staleness, and reconfiguration downtime (the `slo.*` scope).
///
/// Tracking is active only while the system has a time-resolved consumer
/// attached (timeline sampler or phase profiler). Otherwise [`record`]
/// (Self::record) is one dead branch per memory op and the `slo.*` scope is
/// absent from registry dumps, so default runs stay byte-identical.
#[derive(Debug, Default)]
struct SloTracker {
    enabled: bool,
    /// Access-latency distribution of the epoch in progress.
    epoch_hist: Histogram,
    /// Epochs closed so far.
    epochs: u64,
    /// Percentiles of the last closed epoch (bucket floors).
    last_p50: Time,
    last_p95: Time,
    last_p99: Time,
    /// Worst per-epoch p99 over the run.
    worst_p99: Time,
    /// Staleness measured at the last epoch boundary.
    last_staleness: Time,
    /// Worst placement staleness observed at any epoch boundary.
    worst_staleness: Time,
    /// Simulated time of the last *applied* reconfiguration.
    last_applied: Time,
    /// Cumulative migration-drain span across applied reconfigurations.
    downtime: Time,
}

impl SloTracker {
    /// Feeds one post-L1 access latency into the current epoch.
    #[inline]
    fn record(&mut self, lat: Time) {
        if self.enabled {
            self.epoch_hist.record(lat);
        }
    }

    /// Closes the epoch ending at `t`: captures the percentiles and the
    /// placement staleness (time since the last applied reconfiguration),
    /// then resets the per-epoch histogram.
    fn close_epoch(&mut self, t: Time) {
        self.epochs += 1;
        self.last_p50 = self.epoch_hist.p50();
        self.last_p95 = self.epoch_hist.p95();
        self.last_p99 = self.epoch_hist.p99();
        self.worst_p99 = self.worst_p99.max(self.last_p99);
        self.last_staleness = t.saturating_sub(self.last_applied);
        self.worst_staleness = self.worst_staleness.max(self.last_staleness);
        self.epoch_hist = Histogram::new();
    }

    /// Records an applied reconfiguration at `t` whose migration traffic
    /// drains over `drain`.
    fn applied(&mut self, t: Time, drain: Time) {
        self.last_applied = t;
        self.downtime += drain;
    }

    /// Publishes the `slo.*` nodes; `now` anchors the staleness gauge.
    fn register(&self, scope: &mut StatScope<'_>, now: Time) {
        scope.count("epochs", self.epochs);
        scope.gauge("epoch_p50_ns", self.last_p50.as_ns() as f64);
        scope.gauge("epoch_p95_ns", self.last_p95.as_ns() as f64);
        scope.gauge("epoch_p99_ns", self.last_p99.as_ns() as f64);
        scope.gauge("worst_p99_ns", self.worst_p99.as_ns() as f64);
        scope.gauge("staleness_ns", now.saturating_sub(self.last_applied).as_ns() as f64);
        scope.gauge("worst_staleness_ns", self.worst_staleness.as_ns() as f64);
        scope.count("downtime_ns", self.downtime.as_ns());
    }
}

/// Per-event recovery record (`fault.recovery.e##.*`). `applied` guards
/// registration: events the run never reached publish nothing.
#[derive(Debug, Clone, Default)]
struct RecoveryRecord {
    applied: bool,
    /// Simulated time the failure hit.
    at: Time,
    /// Time-to-recover: from the failure hitting until the escalation
    /// completed — the forced re-placement's migration drain for permanent
    /// losses, the full loss window plus the restore's drain for windowed
    /// ones, the outage window for CXL link-down.
    ttr: Time,
    /// Streams whose cached data the event destroyed (poisoned and
    /// re-placed on the survivors).
    streams_migrated: u64,
    /// Trace ops aborted on the dead cores.
    ops_aborted: u64,
}

/// Chaos escalation state; allocated only when the configuration schedules
/// at least one hard failure, so chaos-off runs keep every hot path's ideal
/// shape.
#[derive(Debug)]
struct ChaosState {
    plan: ChaosPlan,
    /// Pending restores of windowed failures, sorted by (time, event id).
    restores: Vec<(Time, usize, ChaosKind)>,
    /// Per-unit death mask, mirrored into [`ConfigCtx::dead`] so the
    /// placement algorithms see zero capacity on lost stacks.
    dead_units: Vec<bool>,
    records: Vec<RecoveryRecord>,
    applied: u64,
    restored: u64,
    ops_aborted: u64,
    streams_poisoned: u64,
    forced_reconfigs: u64,
    /// Integral of the dead-unit count over sim time (unit·ps), feeding the
    /// availability gauge.
    dead_unit_ps: u64,
    /// When the death mask last changed (closes the integral).
    mask_changed: Time,
}

impl ChaosState {
    fn new(plan: ChaosPlan, units: usize) -> Self {
        ChaosState {
            records: vec![RecoveryRecord::default(); plan.len()],
            plan,
            restores: Vec::new(),
            dead_units: vec![false; units],
            applied: 0,
            restored: 0,
            ops_aborted: 0,
            streams_poisoned: 0,
            forced_reconfigs: 0,
            dead_unit_ps: 0,
            mask_changed: Time::ZERO,
        }
    }

    fn dead_count(&self) -> u64 {
        self.dead_units.iter().filter(|&&d| d).count() as u64
    }

    /// Closes the dead-unit integral at `now`; call before mutating the
    /// death mask.
    fn integrate_to(&mut self, now: Time) {
        let span = now.saturating_sub(self.mask_changed);
        self.dead_unit_ps += self.dead_count() * span.as_ps();
        self.mask_changed = now;
    }

    /// Fraction of unit·time lost to dead units up to `now` (0.0 healthy).
    fn unavailability(&self, now: Time) -> f64 {
        let denom = (self.dead_units.len() as u64).saturating_mul(now.as_ps());
        if denom == 0 {
            return 0.0;
        }
        let open = self.dead_count() * now.saturating_sub(self.mask_changed).as_ps();
        (self.dead_unit_ps + open) as f64 / denom as f64
    }
}

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
    prev_curves: Vec<Option<MissCurve>>,
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
    /// Opt-in Chrome-trace exporter (`NDPX_TRACE`); `None` costs one branch
    /// per recording site.
    trace: Option<Box<TraceSink>>,
    /// Opt-in sim-phase profiler (`NDPX_PROFILE`); phase boundaries are
    /// per-epoch, so the hot path never sees it.
    profile: Option<Box<PhaseProfiler>>,
    /// Epoch SLO stats; active only while a time-resolved consumer is
    /// attached (see [`SloTracker`]).
    slo: SloTracker,
    /// Hard-failure escalation state (`NDPX_CHAOS`); `None` whenever the
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
            prev_curves: vec![None; stream_count],
            table: workload.table,
            source: workload.source,
            workload_name: workload.name,
            line_div: Divisor::new(cfg.line_bytes.max(1)),
            meta_div: Divisor::new(cfg.metadata_block.max(1)),
            cfg,
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
            engine: Engine::from_env(),
            trace_noc: enabled(Level::Trace),
            trace_alloc: enabled(Level::Debug),
            trace: TraceSink::from_env().map(Box::new),
            profile: PhaseProfiler::from_env().map(Box::new),
            slo: SloTracker::default(),
            chaos: None,
        };
        sys.slo.enabled = sys.engine.timeline.is_some() || sys.profile.is_some();
        sys.rebuild_noc_matrices();
        // Hard-failure schedule: a sim-time cursor over the validated chaos
        // plan. With no events scheduled the option stays `None` and every
        // hot path keeps its ideal shape.
        if sys.cfg.chaos.enabled() {
            sys.ext.set_outage_retry(sys.cfg.chaos.retry);
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

    /// Attaches (or, with `None`, detaches) a Chrome-trace exporter,
    /// overriding whatever `NDPX_TRACE` configured at construction. Lets
    /// tests and embedders enable tracing without touching the process
    /// environment.
    pub fn set_trace(&mut self, cfg: Option<ndpx_sim::telemetry::TraceConfig>) {
        self.trace = cfg.map(|c| Box::new(TraceSink::new(c)));
    }

    /// Attaches (or, with `None`, detaches) a windowed timeline sampler,
    /// overriding whatever `NDPX_TIMELINE` configured at construction. Also
    /// switches epoch SLO tracking, which feeds the timeline's `slo.*`
    /// series.
    pub fn set_timeline(&mut self, cfg: Option<ndpx_sim::telemetry::TimelineConfig>) {
        self.engine.timeline = cfg.map(|c| Box::new(TimelineSampler::new(c)));
        self.sync_slo();
    }

    /// Enables or disables the sim-phase profiler, overriding whatever
    /// `NDPX_PROFILE` configured at construction. Phases that already ran
    /// (warmup happens inside [`new`](Self::new)) are not retroactively
    /// attributed.
    pub fn set_profile(&mut self, on: bool) {
        self.profile = on.then(|| Box::new(PhaseProfiler::new()));
        self.sync_slo();
    }

    /// Attributes an externally timed phase (e.g. trace generation in the
    /// bench harness) to this system's profiler, if one is attached.
    pub fn record_phase(&mut self, phase: Phase, wall: std::time::Duration) {
        if let Some(p) = self.profile.as_deref_mut() {
            p.add(phase, wall, Time::ZERO);
        }
    }

    fn sync_slo(&mut self) {
        self.slo.enabled = self.engine.timeline.is_some() || self.profile.is_some();
    }

    fn config_ctx(&self) -> ConfigCtx {
        let dram_lat = self.cfg.dram_config().timing.row_empty().as_ps() as f64;
        let mut ext_lat = 2.0 * self.cfg.cxl.link_latency.as_ps() as f64
            + ndpx_mem::timing::DramTiming::ddr5_4800().row_empty().as_ps() as f64;
        if self.ext.fault_enabled() || self.chaos.is_some() {
            // Placement feedback: CRC replays, retrains, and chaos outage
            // stalls raise the effective miss penalty, so the configuration
            // algorithm shifts streams toward stack-local DRAM while the
            // link is degraded. `degradation()` is exactly 1.0 with nothing
            // degraded, so a chaos run allocates identically to the healthy
            // path until its first event fires.
            ext_lat *= self.ext.degradation();
        }
        ConfigCtx {
            units: self.cfg.units(),
            unit_capacity: self.cfg.unit_capacity,
            affine_cap: self.cfg.affine_cap.min(self.cfg.unit_capacity),
            attenuation: self.attenuation.clone(),
            dram_lat_ps: dram_lat,
            miss_extra_ps: ext_lat,
            dead: self
                .chaos
                .as_deref()
                .map_or_else(|| vec![false; self.cfg.units()], |cs| cs.dead_units.clone()),
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
        self.run_with_watchdog(ops_per_core, ProgressWatchdog::from_env())
    }

    /// [`run`](Self::run) with an explicit progress watchdog (tests inject
    /// small limits; the environment default is `NDPX_STALL_ITERS`).
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

    /// Bookkeeping of an L1 hit issued at `t`; returns its completion.
    #[inline]
    fn l1_hit(&mut self, t: Time) -> Time {
        self.mem_ops += 1;
        self.l1_hits += 1;
        t + self.cycles(L1_CYCLES)
    }

    /// Records a memory op issued at `t` and completing at `done`.
    #[inline]
    fn record_access(&mut self, core: usize, t: Time, done: Time) {
        let lat = done.saturating_sub(t);
        self.access_latency.record(lat);
        self.slo.record(lat);
        if let Some(tr) = self.trace.as_deref_mut() {
            if tr.in_window(t) {
                tr.complete("engine", "mem_op", core as u32, t, lat);
            }
        }
    }

    fn cycles(&self, n: u64) -> Time {
        self.cfg.core_freq.cycles_to_time(n)
    }

    /// Index into the flat stream-major `(stream × unit)` matrices
    /// (`tags`, `acc_counts`, `acc_history`).
    #[inline]
    fn su(&self, si: usize, unit: usize) -> usize {
        si * self.l1s.len() + unit
    }

    /// Splits a NoC duration between the intra/inter components by the
    /// uncontended hop-time ratio (weights precomputed per unit pair).
    fn charge_noc(&mut self, src: usize, dst: usize, dur: Time) {
        if dur.is_zero() || src == dst {
            return;
        }
        if self.trace_noc {
            Self::trace_slow_leg(src, dst, dur);
        }
        let (iw, total_w) = self.noc_weights[src * self.l1s.len() + dst];
        let intra_part = Time::from_ps(dur.as_ps() * iw / total_w);
        self.breakdown.add(LatComponent::NocIntra, intra_part);
        self.breakdown.add(LatComponent::NocInter, dur - intra_part);
    }

    #[cold]
    fn trace_slow_leg(src: usize, dst: usize, dur: Time) {
        if dur > Time::from_ns(500) {
            ndpx_trace!("slow noc leg {src}->{dst}: {dur}");
        }
    }

    #[cold]
    fn trace_msg(kind: &str, unit: usize, port: usize, t: Time) {
        ndpx_trace!("msg {kind} {unit}->{port} at {t}");
    }

    /// The CXL port unit of `unit`'s stack (multi-headed device: one head
    /// per stack at local index 0).
    fn port_of(&self, unit: usize) -> usize {
        self.cfg.topology.stack_of(UnitId(unit)) * self.cfg.topology.units_per_stack()
    }

    /// Accesses extended memory from `unit` at `t`; returns the response
    /// time at `unit`. NoC legs are charged to the NoC components, the CXL
    /// round trip to `ExtMem`.
    fn ext_access(&mut self, unit: usize, addr: u64, bytes: u32, write: bool, t: Time) -> Time {
        let port = self.port_of(unit);
        if self.trace_noc {
            Self::trace_msg("ext_req", unit, port, t);
        }
        let t1 = self.net.send(UnitId(unit), UnitId(port), REQ_BYTES, t);
        self.charge_noc(unit, port, t1 - t);
        let t2 = self.ext.access(addr, bytes, write, t1);
        self.breakdown.add(LatComponent::ExtMem, t2 - t1);
        let t3 = self.net.send(UnitId(port), UnitId(unit), bytes.max(REQ_BYTES), t2);
        self.charge_noc(port, unit, t3 - t2);
        if let Some(tr) = self.trace.as_deref_mut() {
            if tr.in_window(t) {
                tr.complete("noc", "ext_req", unit as u32, t, t1 - t);
                tr.complete("cxl", "ext_access", port as u32, t1, t2 - t1);
                tr.complete("noc", "ext_rsp", port as u32, t2, t3 - t2);
            }
        }
        t3
    }

    /// Non-blocking extended-memory write (writebacks): reserves resources
    /// without delaying the caller.
    fn ext_writeback(&mut self, unit: usize, addr: u64, bytes: u32, t: Time) {
        let port = self.port_of(unit);
        if self.trace_noc {
            Self::trace_msg("ext_wb", unit, port, t);
        }
        let t1 = self.net.send(UnitId(unit), UnitId(port), bytes.max(REQ_BYTES), t);
        self.ext.access(addr, bytes, true, t1);
    }

    fn process_raw(&mut self, core: usize, addr: u64, write: bool, t: Time) -> Time {
        let line = self.line_div.div(addr);
        if self.l1s[core].access(line, write).is_hit() {
            return self.l1_hit(t);
        }
        self.mem_ops += 1;
        let t = t + self.cycles(L1_CYCLES);
        self.breakdown.add(LatComponent::CoreL1, self.cycles(L1_CYCLES));
        // Not a stream: bypass the DRAM cache (§IV-C).
        self.bypass += 1;
        let done = self.ext_access(core, addr, LINE_BYTES, write, t);
        done + self.cycles(RESTART_CYCLES)
    }

    /// One memory op. The body is only the slim L1 probe — the common
    /// L1-hit case returns after a cache lookup and two counter bumps, and
    /// inlines into the run loop's batch so a hit never pays a call or the
    /// general dispatch below. Everything past the L1 lives out-of-line in
    /// [`process_mem_miss`](Self::process_mem_miss), in exactly the
    /// historical order (so the split cannot move a single shared-state
    /// mutation).
    #[inline]
    fn process_mem(&mut self, core: usize, m: MemRef, t: Time) -> Time {
        let addr = self.descs[m.sid.index()].addr_of_elem(m.elem);

        // L1.
        let line = self.line_div.div(addr);
        match self.l1s[core].access(line, m.write) {
            ndpx_cache::setassoc::Outcome::Hit => self.l1_hit(t),
            ndpx_cache::setassoc::Outcome::Miss { evicted } => {
                self.mem_ops += 1;
                // Copy out the cached descriptor only on the miss path:
                // everything it needs (grain, key math, fetch size)
                // without re-consulting the table, while the dominant hit
                // path above stays copy-free.
                let desc = self.descs[m.sid.index()];
                let now = t + self.cycles(L1_CYCLES);
                self.process_mem_miss(core, m, desc, addr, evicted, now)
            }
        }
    }

    /// The post-L1 continuation of [`process_mem`](Self::process_mem):
    /// metadata, placement, and data paths.
    #[inline(never)]
    fn process_mem_miss(
        &mut self,
        core: usize,
        m: MemRef,
        desc: StreamDesc,
        addr: u64,
        evicted: Option<(u64, bool)>,
        mut now: Time,
    ) -> Time {
        self.breakdown.add(LatComponent::CoreL1, self.cycles(L1_CYCLES));
        if let Some((victim_line, true)) = evicted {
            // Dirty L1 writeback: fire-and-forget store into the
            // cache hierarchy.
            let victim_addr = victim_line * self.cfg.line_bytes;
            self.writeback_line(core, victim_addr, now);
        }

        // Epoch accounting + sampling happen at DRAM-cache level.
        let key = desc.key_of(m.elem, addr);
        let su = self.su(m.sid.index(), core);
        self.acc_counts[su] += 1;
        if let Some(slot) = &mut self.samplers[m.sid.index()] {
            // The sampler monitors sets of the distributed cache, which see
            // the whole system's (hashed) access mix — not just accesses
            // issued by the sampler's own unit (§V-A: sampled misses are
            // scaled by K/k over the stream's *total* sets).
            slot.sampler.observe(key);
        }

        // Read-only → read-write transition (§IV-B).
        if m.write && self.table.get(m.sid).read_only && self.table.mark_written(m.sid) {
            now += self.handle_ro_transition(m.sid);
        }

        // Metadata path.
        let sid_i = m.sid.index();
        let located = self.layouts[sid_i].locate(core, key);
        if self.cfg.policy.is_stream_grain() {
            now += self.cycles(SLB_CYCLES);
            self.breakdown.add(LatComponent::Metadata, self.cycles(SLB_CYCLES));
            if !self.slbs[core].access(sid_i as u64, false).is_hit() {
                self.slb_misses += 1;
                now += self.cfg.slb_miss_penalty;
                self.breakdown.add(LatComponent::Metadata, self.cfg.slb_miss_penalty);
            }
        } else {
            now += self.cycles(SRAM_TAG_CYCLES);
            self.breakdown.add(LatComponent::Metadata, self.cycles(SRAM_TAG_CYCLES));
            let region = self.meta_div.div(addr);
            if !self.metas[core].access(region, false).is_hit() {
                // In-DRAM tag read at the line's home unit.
                self.metadata_dram += 1;
                if let Some((home, slot)) = located {
                    let t1 = self.net.send(UnitId(core), UnitId(home), REQ_BYTES, now);
                    let daddr = self.layouts[sid_i].slot_addr(home, slot);
                    let t2 = self.drams[home].access(daddr, LINE_BYTES, false, t1);
                    let t3 = self.net.send(UnitId(home), UnitId(core), LINE_BYTES, t2);
                    self.breakdown.add(LatComponent::Metadata, t3 - now);
                    now = t3;
                }
            }
        }

        // Data path.
        let Some((target, slot)) = located else {
            // Stream has no cache capacity: serve from extended memory.
            self.cache_misses += 1;
            let done = self.ext_access(core, addr, desc.fetch_bytes, m.write, now);
            return done + self.cycles(RESTART_CYCLES);
        };

        // Route to the serving unit.
        let t_req = self.net.send(UnitId(core), UnitId(target), REQ_BYTES, now);
        self.charge_noc(core, target, t_req - now);
        now = t_req;

        let affine_stream = desc.affine;
        let stream_grain = self.cfg.policy.is_stream_grain();
        let grain = desc.grain;
        let daddr = self.layouts[sid_i].slot_addr(target, slot);
        let tag_at = self.su(sid_i, target);

        // Set when a data-path DRAM read returns uncorrectable (poisoned)
        // ECC data; a poisoned hit aborts the stream's cached copy at the
        // serving unit and refetches from extended memory.
        let mut poisoned = false;
        let outcome = if stream_grain && affine_stream {
            // ATA probe (SRAM) decides before touching DRAM.
            let tag_lat = self.cycles(SRAM_TAG_CYCLES);
            now += tag_lat;
            self.breakdown.add(LatComponent::Metadata, tag_lat);
            let tags = self.tags[tag_at].as_mut().expect("located implies allocated");
            tags.access(slot, key, m.write)
        } else if stream_grain {
            // Indirect: one DRAM access returns tag + data.
            let (t2, ecc) = self.drams[target].access_checked(daddr, LINE_BYTES, m.write, now);
            poisoned = ecc == EccOutcome::Poisoned;
            self.breakdown.add(LatComponent::DramCache, t2 - now);
            now = t2;
            let tags = self.tags[tag_at].as_mut().expect("allocated");
            tags.access(slot, key, m.write)
        } else {
            // Line grain: tag state came with the metadata read.
            let tags = self.tags[tag_at].as_mut().expect("located implies allocated");
            tags.access(slot, key, m.write)
        };

        let hit = outcome.is_hit();
        if let ndpx_cache::setassoc::Outcome::Miss { evicted: Some((victim, true)) } = outcome {
            // Dirty victim: write back to extended memory.
            let vaddr = desc.addr_of_key(victim);
            self.ext_writeback(target, vaddr, grain.min(u64::from(u32::MAX)) as u32, now);
        }

        if hit {
            self.cache_hits += 1;
            if target == core {
                self.local_hits += 1;
            }
            // Stream-grain indirect hits are served straight from the
            // element slot; everything else pays the DRAM-cache row access.
            if !stream_grain || affine_stream {
                let (t2, ecc) = self.drams[target].access_checked(daddr, LINE_BYTES, m.write, now);
                poisoned = ecc == EccOutcome::Poisoned;
                self.breakdown.add(LatComponent::DramCache, t2 - now);
                if let Some(tr) = self.trace.as_deref_mut() {
                    if tr.in_window(now) {
                        tr.complete("dram", "cache_hit", target as u32, now, t2 - now);
                    }
                }
                now = t2;
            }
            if poisoned {
                now = self.abort_poisoned_stream(m.sid, target, &desc, key, daddr, now);
            }
        } else {
            self.cache_misses += 1;
            let fetch = desc.fetch_bytes;
            let base_addr = desc.addr_of_key(key);
            let done = self.ext_access(target, base_addr, fetch, false, now);
            now = done;
            // Install into the DRAM cache without blocking the response.
            self.drams[target].access(daddr, fetch, true, now);
        }

        // Data response back to the requester.
        let t_rsp = self.net.send(UnitId(target), UnitId(core), LINE_BYTES, now);
        self.charge_noc(target, core, t_rsp - now);
        t_rsp + self.cycles(RESTART_CYCLES)
    }

    /// Uncorrectable ECC data came back from a stream's DRAM-cache copy at
    /// `unit`: poison the stream, drop its cached replica there (every
    /// resident line is untrusted once the array has returned poison), and
    /// refetch the requested element from extended memory.
    fn abort_poisoned_stream(
        &mut self,
        sid: StreamId,
        unit: usize,
        desc: &StreamDesc,
        key: u64,
        daddr: u64,
        now: Time,
    ) -> Time {
        self.stream_aborts += 1;
        if self.table.mark_poisoned(sid) {
            ndpx_warn!(
                "uncorrectable ECC poison on stream {} at unit {unit}: aborting cached copy",
                sid.index()
            );
        }
        let tag_at = self.su(sid.index(), unit);
        if let Some(tags) = self.tags[tag_at].as_mut() {
            let (valid, _) = tags.invalidate_all();
            self.invalidations += valid;
        }
        let done = self.ext_access(unit, desc.addr_of_key(key), desc.fetch_bytes, false, now);
        // Reinstall the clean copy without blocking the response.
        self.drams[unit].access(daddr, desc.fetch_bytes, true, done);
        done
    }

    /// Fire-and-forget store of an evicted dirty L1 line into the hierarchy.
    fn writeback_line(&mut self, core: usize, addr: u64, t: Time) {
        let Some((sid, elem)) = self.table.lookup(addr) else {
            self.ext_writeback(core, addr, LINE_BYTES, t);
            return;
        };
        let key = self.descs[sid.index()].key_of(elem, addr);
        let sid_i = sid.index();
        if let Some((target, slot)) = self.layouts[sid_i].locate(core, key) {
            let t1 = self.net.send(UnitId(core), UnitId(target), LINE_BYTES, t);
            let daddr = self.layouts[sid_i].slot_addr(target, slot);
            let tag_at = self.su(sid_i, target);
            if let Some(tags) = self.tags[tag_at].as_mut() {
                if tags.probe(slot, key) {
                    tags.access(slot, key, true);
                    self.drams[target].access(daddr, LINE_BYTES, true, t1);
                    return;
                }
            }
            self.ext_writeback(target, addr, LINE_BYTES, t1);
        } else {
            self.ext_writeback(core, addr, LINE_BYTES, t);
        }
    }

    /// Collapses a stream's replication groups into one on the first write.
    fn handle_ro_transition(&mut self, sid: StreamId) -> Time {
        let sid_i = sid.index();
        if self.layouts[sid_i].groups.len() <= 1 {
            return Time::ZERO;
        }
        // Invalidate every cached copy (clean by construction: no writebacks
        // needed, §IV-B). The stream's tag arrays are one contiguous row of
        // the flat stream-major matrix.
        let units_n = self.cfg.units();
        let mut invalidated = 0;
        for slot in &mut self.tags[sid_i * units_n..(sid_i + 1) * units_n] {
            if let Some(tags) = slot.as_mut() {
                let (valid, _) = tags.invalidate_all();
                invalidated += valid;
            }
        }
        self.invalidations += invalidated;
        // Merge all groups: per-unit shares summed, one group.
        let mut shares = vec![0u64; units_n];
        for g in &self.layouts[sid_i].groups {
            for (total, &s) in shares.iter_mut().zip(&g.shares) {
                *total += s;
            }
        }
        let consistent = self.cfg.transfer == ReconfigTransfer::ConsistentHash;
        let grain = self.layouts[sid_i].grain;
        let mut layout = StreamLayout::empty(units_n, grain);
        layout.unit_base = self.layouts[sid_i].unit_base.clone();
        layout.groups.push(Group::new(shares, consistent));
        layout.finalize_offsets(units_n);
        let dist = &self.distance;
        layout.assign_nearest(units_n, |a, b| dist[a * units_n + b]);
        self.layouts[sid_i] = layout;
        RO_TRANSITION_PENALTY
    }

    /// Collects per-stream demands from this epoch's counters and samplers.
    fn collect_demands(&mut self, warmup: bool) -> Vec<StreamDemand> {
        let units_n = self.cfg.units();
        (0..self.table.len())
            .map(|si| {
                let sid = StreamId(si as u16);
                let s = self.table.get(sid);
                let grain = self.descs[si].grain;
                let mut acc_units: Vec<(usize, u64)> = if warmup {
                    // Nothing observed yet: assume every unit touches every
                    // stream equally so the warmup allocation hands all
                    // streams capacity.
                    (0..units_n).map(|u| (u, 1)).collect()
                } else {
                    self.acc_history[si * units_n..(si + 1) * units_n]
                        .iter()
                        .enumerate()
                        .filter(|(_, &a)| a > 0)
                        .map(|(u, &a)| (u, a))
                        .collect()
                };
                let mut speculative = false;
                if acc_units.is_empty() {
                    // Never-yet-accessed stream (e.g. a phase that has not
                    // reached it): keep it competing at minimal weight so
                    // leftover capacity is not stranded and its first burst
                    // does not start from an empty cache.
                    acc_units = (0..self.cfg.units()).map(|u| (u, 1)).collect();
                    speculative = true;
                }
                let total: u64 = acc_units.iter().map(|&(_, a)| a).sum();
                let curve = if warmup {
                    // No observations yet: assume misses fall linearly until
                    // the stream's footprint fits.
                    let guess = total.max(1) as f64;
                    MissCurve::from_samples(guess, vec![(s.size, guess * 0.05)])
                } else if let Some(slot) = &self.samplers[si] {
                    if slot.sampler.observed() > 0 {
                        let c = slot.sampler.curve(total);
                        self.prev_curves[si] = Some(c.clone());
                        c
                    } else {
                        self.prev_curves[si]
                            .clone()
                            .unwrap_or_else(|| MissCurve::flat(total as f64))
                    }
                } else {
                    self.prev_curves[si].clone().unwrap_or_else(|| {
                        MissCurve::from_samples(total as f64, vec![(s.size, total as f64 * 0.05)])
                    })
                };
                StreamDemand {
                    curve,
                    acc_units,
                    // Speculative streams get one shared group: replicating
                    // data nobody has touched wastes space and churns.
                    read_only: s.read_only && !speculative && self.cfg.allow_replication,
                    affine: s.kind.is_affine(),
                    grain,
                    total_accesses: total,
                    footprint: s.size,
                }
            })
            .collect()
    }

    /// Applies a new allocation: builds layouts, transfers or invalidates
    /// cached contents, rebuilds tag arrays. Returns the simulated span over
    /// which migration traffic drains (zero when nothing migrates) — the
    /// reconfiguration "downtime" reported under `slo.*`.
    fn apply_allocation(&mut self, alloc: &Allocation, t: Time) -> Time {
        let mut drain = Time::ZERO;
        let units_n = self.cfg.units();
        let consistent = self.cfg.transfer == ReconfigTransfer::ConsistentHash;
        self.replicated_fraction = alloc.replicated_fraction();

        if self.trace_alloc {
            ndpx_debug!(
                "== apply_allocation at {t} total={}MB repl={:.2}",
                alloc.total_bytes() >> 20,
                alloc.replicated_fraction()
            );
            for (si, gs) in alloc.streams.iter().enumerate() {
                if gs.is_empty() {
                    continue;
                }
                let total: u64 = gs.iter().map(crate::runtime::configure::AllocGroup::total).sum();
                let sizes: Vec<u64> = gs.iter().map(|g| g.total() >> 10).collect();
                ndpx_debug!(
                    "alloc s{si} ro={} affine={} groups={} totalKB={} sizesKB={:?}",
                    self.table.get(StreamId(si as u16)).read_only,
                    self.table.get(StreamId(si as u16)).kind.is_affine(),
                    gs.len(),
                    total >> 10,
                    sizes
                );
            }
        }
        let mut unit_offsets = vec![0u64; units_n];
        let mut new_layouts = Vec::with_capacity(self.table.len());
        for si in 0..self.table.len() {
            let grain = self.descs[si].grain;
            // Per-group slot shares; a group without a whole slot is dropped.
            let shares: Vec<Vec<u64>> = alloc
                .streams
                .get(si)
                .map_or(&[][..], |v| &v[..])
                .iter()
                .map(|g| {
                    let mut shares = vec![0u64; units_n];
                    for &(u, bytes) in &g.unit_bytes {
                        shares[u] = bytes / grain;
                    }
                    shares
                })
                .filter(|shares| shares.iter().any(|&s| s > 0))
                .collect();
            // Hysteresis: sampling noise makes successive allocations jitter;
            // rebuilding (and invalidating) a stream's cache for a <25% size
            // change costs more than the size change is worth. Keep the old
            // layout when the new one is structurally similar — decided from
            // the shares alone, before any placement table is built.
            if let Some(old) = self.layouts.get(si) {
                let old_total = old.total_slots() * old.grain;
                let new_total = shares.iter().flatten().sum::<u64>() * grain;
                let similar = old.groups.len() == shares.len()
                    && old.grain == grain
                    && old_total > 0
                    && new_total.abs_diff(old_total) * 4 < old_total;
                // Chaos gate: never keep a layout that still holds shares on
                // a dead unit, however small the delta looks. Always true on
                // a healthy system.
                if similar && self.chaos_layout_clean(old) {
                    new_layouts.push(old.clone());
                    continue;
                }
            }
            let mut layout = StreamLayout::empty(units_n, grain);
            layout.groups = shares.into_iter().map(|s| Group::new(s, consistent)).collect();
            let per_unit = layout.finalize_offsets(units_n);
            layout.unit_base.copy_from_slice(&unit_offsets);
            for (off, &per) in unit_offsets.iter_mut().zip(&per_unit) {
                *off += per * grain;
            }
            let dist = &self.distance;
            layout.assign_nearest(units_n, |a, b| dist[a * units_n + b]);
            new_layouts.push(layout);
        }

        // Build new tag arrays, transferring contents per the configured
        // policy. Streams whose layout is unchanged keep their tags — only
        // reassigned space is invalidated (paper §V-D).
        for (si, new_layout) in new_layouts.iter().enumerate() {
            let sid = StreamId(si as u16);
            let ways = self.tag_ways(sid);
            if let Some(old_layout) = self.layouts.get(si) {
                // Identical shares mean identical placement: keep the tags.
                // (A shifted DRAM base only renames rows; contents and
                // placement are untouched.)
                let same_groups = old_layout.groups.len() == new_layout.groups.len()
                    && old_layout
                        .groups
                        .iter()
                        .zip(&new_layout.groups)
                        .all(|(a, b)| a.shares == b.shares);
                if same_groups {
                    continue;
                }
            }
            // Per-unit slot totals under the new layout.
            let mut per_unit = vec![0u64; units_n];
            for g in &new_layout.groups {
                for (total, &s) in per_unit.iter_mut().zip(&g.shares) {
                    *total += s;
                }
            }
            // Take the old arrays, build fresh ones. The stream's row of
            // the flat tag matrix is contiguous.
            let row = si * units_n;
            let old_arrays: Vec<Option<TagArray>> =
                self.tags[row..row + units_n].iter_mut().map(Option::take).collect();
            for (u, per) in per_unit.iter().enumerate() {
                if *per > 0 {
                    self.tags[row + u] = Some(TagArray::new(*per, ways));
                }
            }
            if consistent {
                // Consistent-hash transfer (§V-D): re-place every resident
                // entry under the new layout; entries that land on their old
                // unit are kept in place, entries that move units count as
                // migrations (and consume NoC bandwidth), entries with no
                // home any more are invalidated.
                let mut migrated_bytes_from: Vec<u64> = vec![0; units_n];
                for (u, old) in old_arrays.into_iter().enumerate() {
                    let Some(old) = old else { continue };
                    for (key, dirty) in old.entries() {
                        match new_layout.locate(u, key) {
                            Some((target, slot)) => {
                                let installed = self.tags[row + target]
                                    .as_mut()
                                    .is_some_and(|t| t.install_if_free(slot, key, dirty));
                                if !installed {
                                    self.invalidations += 1;
                                } else if target == u {
                                    // Kept in place: free.
                                } else {
                                    self.migrations += 1;
                                    migrated_bytes_from[u] += new_layout.grain;
                                }
                            }
                            None => self.invalidations += 1,
                        }
                    }
                }
                // Migration traffic drains in the background over the start
                // of the epoch (the paper reports it at ~1.3% of requests).
                for (u, bytes) in migrated_bytes_from.iter().enumerate() {
                    if *bytes == 0 {
                        continue;
                    }
                    let neighbor = (u + 1) % units_n;
                    let chunks = bytes.div_ceil(4096).min(64);
                    let spacing = Time::from_ps(self.cfg.epoch().as_ps() / (4 * chunks.max(1)));
                    for i in 0..chunks {
                        self.net.send(UnitId(u), UnitId(neighbor), 4096, t + spacing * i);
                    }
                    drain = drain.max(spacing * chunks);
                }
            } else {
                for old in old_arrays.into_iter().flatten() {
                    self.invalidations += old.occupancy();
                }
            }
        }
        self.layouts = new_layouts;
        drain
    }

    fn tag_ways(&self, sid: StreamId) -> usize {
        if self.cfg.policy.is_stream_grain() {
            if self.descs[sid.index()].affine {
                4
            } else {
                self.cfg.indirect_ways
            }
        } else {
            1
        }
    }

    /// Epoch boundary: derive and apply the next configuration. `prof`, when
    /// present, receives the sampler-solve / rehash / reconfig sub-phase
    /// timings.
    fn reconfigure(&mut self, t: Time, mut prof: Option<&mut PhaseProfiler>) {
        self.reconfigs += 1;
        if self.slo.enabled {
            self.slo.close_epoch(t);
            if let Some(tr) = self.trace.as_deref_mut() {
                tr.counter("slo", "slo.epoch_p50_ns", 0, t, self.slo.last_p50.as_ns() as f64);
                tr.counter("slo", "slo.epoch_p99_ns", 0, t, self.slo.last_p99.as_ns() as f64);
                tr.counter("slo", "slo.staleness_ns", 0, t, self.slo.last_staleness.as_ns() as f64);
            }
        }
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.instant("core", "reconfigure", 0, t);
        }
        // Decay the flat (stream × unit) history matrix in 4-wide chunks
        // the compiler lowers to vector shift-adds; integer lanes are
        // independent, so this is bit-identical to the scalar loop.
        let mut hist = self.acc_history.chunks_exact_mut(4);
        let mut cur = self.acc_counts.chunks_exact(4);
        for (h4, c4) in hist.by_ref().zip(cur.by_ref()) {
            for i in 0..4 {
                h4[i] = h4[i] / 2 + c4[i];
            }
        }
        for (h, &c) in hist.into_remainder().iter_mut().zip(cur.remainder()) {
            *h = *h / 2 + c;
        }
        let within_budget = self.cfg.max_reconfigs.is_none_or(|m| self.reconfigs <= m);
        if self.cfg.policy.reconfigures() && within_budget {
            let alloc = {
                let _span = ProfileSpan::enter_opt(prof.as_deref_mut(), Phase::SamplerSolve);
                let demands = self.collect_demands(false);
                let ctx = self.config_ctx();
                if self.cfg.policy == PolicyKind::NdpExt {
                    allocate_ndpext(&demands, &ctx)
                } else {
                    allocate_baseline(self.cfg.policy, &demands, &ctx, self.cfg.nexus_degree)
                }
            };
            // Skip immaterial reconfigurations outright: sampling noise
            // produces small deltas every epoch, and applying them costs
            // invalidations and migrations worth more than the delta.
            let moved: u64 = alloc
                .streams
                .iter()
                .enumerate()
                .map(|(si, gs)| {
                    let new_total: u64 =
                        gs.iter().map(crate::runtime::configure::AllocGroup::total).sum();
                    let old_total = self.layouts.get(si).map_or(0, |l| l.total_slots() * l.grain);
                    new_total.abs_diff(old_total)
                })
                .sum();
            let capacity = self.cfg.unit_capacity * self.cfg.units() as u64;
            if moved * 100 >= capacity * 15 {
                let drain = {
                    let _span = ProfileSpan::enter_opt(prof.as_deref_mut(), Phase::Rehash);
                    self.apply_allocation(&alloc, t)
                };
                // The Reconfig phase carries the simulated drain window; the
                // host-side work is already under Rehash.
                if let Some(p) = prof {
                    p.add(Phase::Reconfig, std::time::Duration::ZERO, drain);
                }
                if self.slo.enabled {
                    self.slo.applied(t, drain);
                    if let Some(tr) = self.trace.as_deref_mut() {
                        tr.counter("slo", "slo.reconfig_drain_ns", 0, t, drain.as_ns() as f64);
                    }
                }
            }
        }
        self.assign_epoch_samplers();
        self.acc_counts.fill(0);
    }

    /// (Re)derives the distance, attenuation, and NoC-split weight matrices
    /// from the network's current routes. Called at construction and after a
    /// chaos NoC link death or restore, so the placement signal
    /// (`attenuation` feeds Algorithm 1, exactly like `degradation()` does
    /// for the CXL link) tracks reroutes. While every link is healthy the
    /// routes equal the XY baseline and this reproduces the construction
    /// matrices bit-for-bit. The intra/inter split weights stay
    /// topology-derived — they only attribute a duration between the two
    /// NoC components.
    fn rebuild_noc_matrices(&mut self) {
        let units_n = self.cfg.units();
        let dram_lat = self.cfg.dram_config().timing.row_empty().as_ps() as f64;
        let (intra_l, inter_l) = self.cfg.link_params();
        let mut distance = vec![0u64; units_n * units_n];
        let mut attenuation = vec![vec![1.0; units_n]; units_n];
        let mut noc_weights = vec![(0u64, 1u64); units_n * units_n];
        for (u, att) in attenuation.iter_mut().enumerate() {
            let row = u * units_n;
            for v in 0..units_n {
                let d = self.net.base_latency(UnitId(u), UnitId(v), LINE_BYTES).as_ps();
                distance[row + v] = d;
                let iw = self.cfg.topology.intra_hops(UnitId(u), UnitId(v)) as u64
                    * intra_l.hop_latency.as_ps();
                let xw = self.cfg.topology.inter_hops(UnitId(u), UnitId(v)) as u64
                    * inter_l.hop_latency.as_ps();
                noc_weights[row + v] = (iw, (iw + xw).max(1));
            }
            // Attenuation derives elementwise from the distance row:
            // computed as a second chunked pass the compiler can lower to
            // 4-wide vector divides (each lane independent, so the result
            // is bit-identical to the scalar loop).
            let mut dc = distance[row..row + units_n].chunks_exact(4);
            let mut ac = att.chunks_exact_mut(4);
            for (d4, a4) in dc.by_ref().zip(ac.by_ref()) {
                for i in 0..4 {
                    a4[i] = dram_lat / (dram_lat + d4[i] as f64);
                }
            }
            for (d, a) in dc.remainder().iter().zip(ac.into_remainder()) {
                *a = dram_lat / (dram_lat + *d as f64);
            }
        }
        self.distance = distance;
        self.attenuation = attenuation;
        self.noc_weights = noc_weights;
    }

    /// Earliest unconsumed chaos boundary — next scheduled failure or
    /// pending restore. Run-ahead windows clamp to it so no batch skips one.
    fn chaos_next_at(&self) -> Option<Time> {
        let cs = self.chaos.as_deref()?;
        let event = cs.plan.next_at();
        let restore = cs.restores.first().map(|r| r.0);
        match (event, restore) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn chaos_mut(&mut self) -> &mut ChaosState {
        self.chaos.as_deref_mut().expect("chaos state engaged")
    }

    /// Applies the single earliest chaos boundary due at `now`. Restores win
    /// ties against new failures (capacity comes back before more is taken
    /// away); the run loop re-polls until nothing is due, so simultaneous
    /// boundaries apply in a deterministic order at any thread count.
    fn apply_next_chaos(&mut self, now: Time, remaining: &mut [u64]) {
        enum Due {
            Restore(Time, usize, ChaosKind),
            Event(usize, ChaosEvent),
        }
        let due = {
            let Some(cs) = self.chaos.as_deref_mut() else { return };
            let restore_due = cs.restores.first().map(|r| r.0).filter(|&r| r <= now);
            let event_due = cs.plan.next_at().filter(|&e| e <= now);
            match (restore_due, event_due) {
                (Some(r), Some(e)) if e < r => {
                    let (idx, ev) = cs.plan.pop_due(now).expect("event due");
                    Due::Event(idx, ev)
                }
                (Some(_), _) => {
                    let (at, idx, kind) = cs.restores.remove(0);
                    Due::Restore(at, idx, kind)
                }
                (None, Some(_)) => {
                    let (idx, ev) = cs.plan.pop_due(now).expect("event due");
                    Due::Event(idx, ev)
                }
                (None, None) => return,
            }
        };
        match due {
            Due::Restore(at, idx, kind) => self.apply_chaos_restore(idx, kind, at),
            Due::Event(idx, ev) => self.apply_chaos_event(idx, ev, remaining),
        }
    }

    /// Escalates one scheduled hard failure through the existing recovery
    /// machinery: poison → re-fetch, capacity zeroing → re-placement on the
    /// survivors, epoch-style reconfiguration → migration drain.
    fn apply_chaos_event(&mut self, idx: usize, e: ChaosEvent, remaining: &mut [u64]) {
        let at = e.at;
        ndpx_warn!("chaos: {} hits at {at}", e.kind.label());
        match e.kind {
            ChaosKind::CxlDown => {
                let restore = e.restore_at().expect("validated: cxl-down is windowed");
                // Ext accesses stall behind bounded retry probes until the
                // link restores; the outage expires inside `ExtendedMemory`,
                // so no scheduled restore is queued here.
                self.ext.begin_outage(restore);
                let cs = self.chaos_mut();
                cs.applied += 1;
                let r = &mut cs.records[idx];
                r.applied = true;
                r.at = at;
                r.ttr = restore.saturating_sub(at);
            }
            ChaosKind::StackDown { stack } => {
                let units_n = self.cfg.units();
                let ups = self.cfg.topology.units_per_stack();
                let (lo, hi) = (stack * ups, (stack + 1) * ups);
                // The stack's DRAM ranks go dark: every cached line on them
                // is lost, so every stream resident there is poisoned and
                // re-fetches from extended memory (the same escalation path
                // an uncorrectable ECC error takes).
                let resident: Vec<StreamId> = (0..self.table.len())
                    .filter(|&si| {
                        self.layouts[si]
                            .groups
                            .iter()
                            .any(|g| g.shares[lo..hi].iter().any(|&s| s > 0))
                    })
                    .map(|si| StreamId(si as u16))
                    .collect();
                let poisoned = self.table.mark_poisoned_many(resident.iter().copied());
                self.chaos_mut().integrate_to(at);
                let mut invalidated = 0u64;
                let mut aborted = 0u64;
                // `u` indexes four parallel arrays; an iterator over just
                // `remaining` would obscure that.
                #[allow(clippy::needless_range_loop)]
                for u in lo..hi {
                    self.drams[u].set_offline(at);
                    for si in 0..self.table.len() {
                        let slot = si * units_n + u;
                        if let Some(tags) = self.tags[slot].as_mut() {
                            let (valid, _) = tags.invalidate_all();
                            invalidated += valid;
                        }
                        self.tags[slot] = None;
                        // Dead units stop contributing demand: their access
                        // history would otherwise keep attracting capacity.
                        self.acc_counts[slot] = 0;
                        self.acc_history[slot] = 0;
                    }
                    // Abort the dead cores' remaining trace ops; in-flight
                    // work on a lost stack cannot be replayed.
                    aborted += remaining[u];
                    remaining[u] = 0;
                    self.chaos_mut().dead_units[u] = true;
                }
                self.invalidations += invalidated;
                // Zero capacity plus poisoned streams: the forced
                // re-placement moves everything onto the survivors.
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.applied += 1;
                cs.ops_aborted += aborted;
                cs.streams_poisoned += poisoned;
                let r = &mut cs.records[idx];
                r.applied = true;
                r.at = at;
                r.ttr = drain;
                r.streams_migrated = resident.len() as u64;
                r.ops_aborted = aborted;
                if let Some(restore) = e.restore_at() {
                    self.chaos_schedule_restore(restore, idx, e.kind);
                }
            }
            ChaosKind::NocLinkDown { src, dst } => {
                let killed = self.net.set_link_dead(src, dst, true);
                debug_assert!(killed, "validated: grid-adjacent stacks");
                // Deterministic reroute, then refreshed distance/attenuation
                // matrices feed the placement algorithm the escalated path
                // costs — the same signal shape as `degradation()`.
                self.rebuild_noc_matrices();
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.applied += 1;
                let r = &mut cs.records[idx];
                r.applied = true;
                r.at = at;
                r.ttr = drain;
                if let Some(restore) = e.restore_at() {
                    self.chaos_schedule_restore(restore, idx, e.kind);
                }
            }
        }
    }

    /// Applies a windowed failure's restore: the resource returns (empty)
    /// and a forced re-placement spreads capacity back over it. The record's
    /// time-to-recover widens to cover the whole loss window plus the
    /// restore's own drain.
    fn apply_chaos_restore(&mut self, idx: usize, kind: ChaosKind, at: Time) {
        ndpx_info!("chaos: {} restores at {at}", kind.label());
        match kind {
            // CXL outages expire inside `ExtendedMemory`; nothing is queued.
            ChaosKind::CxlDown => {}
            ChaosKind::StackDown { stack } => {
                let ups = self.cfg.topology.units_per_stack();
                let (lo, hi) = (stack * ups, (stack + 1) * ups);
                self.chaos_mut().integrate_to(at);
                for u in lo..hi {
                    self.drams[u].set_online(at);
                    self.chaos_mut().dead_units[u] = false;
                }
                // The dead cores' traces were aborted, not suspended: the
                // restored stack returns as cache capacity only.
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.restored += 1;
                let r = &mut cs.records[idx];
                r.ttr = (at + drain).saturating_sub(r.at);
            }
            ChaosKind::NocLinkDown { src, dst } => {
                self.net.set_link_dead(src, dst, false);
                self.rebuild_noc_matrices();
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.restored += 1;
                let r = &mut cs.records[idx];
                r.ttr = (at + drain).saturating_sub(r.at);
            }
        }
    }

    /// Queues a windowed failure's restore, keeping the queue sorted by
    /// (time, event id) so simultaneous restores apply in schedule order.
    fn chaos_schedule_restore(&mut self, at: Time, idx: usize, kind: ChaosKind) {
        let cs = self.chaos_mut();
        cs.restores.push((at, idx, kind));
        cs.restores.sort_by_key(|&(t, i, _)| (t, i));
    }

    /// Chaos escalation: re-runs the configuration algorithm immediately,
    /// bypassing both the moved-bytes hysteresis threshold and the
    /// `max_reconfigs` budget — after a hard failure the placement *must*
    /// move off the dead resources. Cached state drains through the same
    /// `apply_allocation` path as an epoch reconfiguration. Returns the
    /// migration drain span.
    fn force_reconfigure(&mut self, t: Time) -> Time {
        self.reconfigs += 1;
        self.chaos_mut().forced_reconfigs += 1;
        let demands = self.collect_demands(false);
        let ctx = self.config_ctx();
        let alloc = if self.cfg.policy == PolicyKind::NdpExt {
            allocate_ndpext(&demands, &ctx)
        } else {
            allocate_baseline(self.cfg.policy, &demands, &ctx, self.cfg.nexus_degree)
        };
        let drain = self.apply_allocation(&alloc, t);
        if self.slo.enabled {
            self.slo.applied(t, drain);
        }
        drain
    }

    /// With chaos active, a hysteresis-kept layout must hold zero shares on
    /// dead units. Trivially true when chaos is off (healthy path keeps its
    /// exact historical shape).
    fn chaos_layout_clean(&self, layout: &StreamLayout) -> bool {
        match self.chaos.as_deref() {
            None => true,
            Some(cs) => layout
                .groups
                .iter()
                .all(|g| g.shares.iter().zip(&cs.dead_units).all(|(&s, &dead)| s == 0 || !dead)),
        }
    }

    /// Streams whose current layout still holds capacity on a dead unit —
    /// the acceptance gate: zero after a stack-down escalates.
    fn dead_resident_streams(&self) -> u64 {
        let Some(cs) = self.chaos.as_deref() else { return 0 };
        self.layouts
            .iter()
            .filter(|l| {
                l.groups
                    .iter()
                    .any(|g| g.shares.iter().zip(&cs.dead_units).any(|(&s, &dead)| dead && s > 0))
            })
            .count() as u64
    }

    /// Publishes the `chaos.*` scope and the per-event `fault.recovery.*`
    /// records when a hard-failure schedule is configured; completely absent
    /// otherwise, so chaos-off registry dumps stay byte-identical.
    fn register_chaos_scope(&self, registry: &mut StatRegistry, now: Time) {
        let Some(cs) = self.chaos.as_deref() else { return };
        {
            let mut chaos = registry.scope("chaos");
            chaos.count("events", cs.plan.len() as u64);
            chaos.count("applied", cs.applied);
            chaos.count("restores", cs.restored);
            chaos.count("ops_aborted", cs.ops_aborted);
            chaos.count("streams_poisoned", cs.streams_poisoned);
            chaos.count("forced_reconfigs", cs.forced_reconfigs);
            chaos.count("dead_units", cs.dead_count());
            chaos.count("dead_links", self.net.dead_link_count());
            chaos.count("dead_resident_streams", self.dead_resident_streams());
            chaos.gauge("availability", 1.0 - cs.unavailability(now));
            self.ext.register_outage_stats(&mut chaos.scope("cxl"));
        }
        // Per-event recovery SLOs. The registry is a flat path map, so this
        // `fault.` prefix merges cleanly with the transient-fault scope when
        // both are active.
        let mut fault = registry.scope("fault");
        let mut rec = fault.scope("recovery");
        for (i, r) in cs.records.iter().enumerate() {
            if !r.applied {
                continue;
            }
            let mut e = rec.scope(&format!("e{i:02}"));
            e.count("at_ps", r.at.as_ps());
            e.count("ttr_ps", r.ttr.as_ps());
            e.count("streams_migrated", r.streams_migrated);
            e.count("ops_aborted", r.ops_aborted);
        }
    }

    /// Runs the max-flow sampler assignment on this epoch's access bitvector
    /// and instantiates fresh samplers.
    fn assign_epoch_samplers(&mut self) {
        let units_n = self.cfg.units();
        let nothing_observed = self.acc_counts.iter().all(|&a| a == 0);
        let accessed: Vec<Vec<usize>> = if nothing_observed {
            // First epoch: no bitvectors yet. Spread streams round-robin so
            // sampling starts immediately.
            (0..units_n)
                .map(|u| (0..self.table.len()).filter(|si| si % units_n == u).collect())
                .collect()
        } else {
            (0..units_n)
                .map(|u| {
                    (0..self.table.len())
                        .filter(|&si| self.acc_counts[si * units_n + u] > 0)
                        .collect()
                })
                .collect()
        };
        let assignment = assign_samplers(&accessed, self.table.len(), self.cfg.samplers_per_unit);
        // The paper samples up to the per-unit capacity (256 MB), which
        // dwarfs any hot set. At scaled-down capacities a stream's hot set
        // can exceed one unit, so we extend the range to the global cache
        // size; storage per sampler is unchanged (k sets per case).
        let global = self.cfg.unit_capacity * units_n as u64;
        let min_cap = (global / 16384).max(self.cfg.line_bytes);
        let caps = capacity_points(min_cap, global, self.cfg.sampler_points);
        for si in 0..self.table.len() {
            let target = assignment.unit_for_stream[si];
            let grain = self.descs[si].grain;
            // Keep a warm sampler when the assignment is stable — resetting
            // the shadow sets every epoch would make short epochs look
            // cold-start-bound.
            match (&mut self.samplers[si], target) {
                (Some(slot), Some(unit)) if slot.unit == unit => slot.sampler.reset_counters(),
                (slot, Some(unit)) => {
                    *slot = Some(SamplerSlot {
                        unit,
                        sampler: SetSampler::new(&caps, grain, self.cfg.sampler_sets),
                    });
                }
                (slot, None) => *slot = None,
            }
        }
    }

    /// Gathers the hierarchical stat dump from every subsystem. Built from
    /// single-threaded post-run state, so it is identical no matter how many
    /// harness worker threads surround the run.
    fn build_registry(&self, totals: &RunTotals) -> StatRegistry {
        let makespan = totals.makespan;
        let mut registry = StatRegistry::new();
        self.engine.register(&mut registry, EngineScope::Run(&totals.queue));
        {
            let mut core = registry.scope("core");
            core.count("mem_ops", self.mem_ops);
            core.count("l1_hits", self.l1_hits);
            core.count("cache_hits", self.cache_hits);
            core.count("cache_misses", self.cache_misses);
            core.count("local_hits", self.local_hits);
            core.count("bypass", self.bypass);
            core.count("slb_misses", self.slb_misses);
            core.count("metadata_dram", self.metadata_dram);
            core.count("reconfigs", self.reconfigs);
            core.count("invalidations", self.invalidations);
            core.count("migrations", self.migrations);
            core.gauge("replicated_fraction", self.replicated_fraction);
            core.hist("access_latency", &self.access_latency);
        }
        self.net.register_stats(&mut registry.scope("noc"));
        {
            let mut cxl = registry.scope("cxl");
            self.ext.register_stats(&mut cxl);
            cxl.gauge("degradation", self.ext.degradation());
        }
        self.table.register_stats(&mut registry.scope("stream_table"));
        self.register_fault_scope(&mut registry);
        self.register_chaos_scope(&mut registry, makespan);
        if self.slo.enabled {
            // Epoch service stats ride only on time-resolved runs, so the
            // scope is absent (and dumps unchanged) by default — same
            // contract as `fault.*`.
            let mut slo = registry.scope("slo");
            self.slo.register(&mut slo, makespan);
            slo.count("streams.poisoned", self.table.poisoned_streams());
            slo.count("streams.refetched", self.table.poison_events());
        }
        if let Some(p) = self.profile.as_deref() {
            p.register(&mut registry);
        }
        for i in 0..self.drams.len() {
            let mut scope = registry.scope(&format!("unit{i:03}"));
            self.drams[i].register_stats(&mut scope.scope("dram"));
            self.l1s[i].register_stats(&mut scope.scope("l1"));
            self.slbs[i].register_stats(&mut scope.scope("slb"));
            self.metas[i].register_stats(&mut scope.scope("meta"));
        }
        registry
    }

    /// Publishes the `fault.*` scope when fault injection is configured.
    /// Injection counters live under one scope so smoke tests and manifests
    /// can assert on them in one place; the whole scope is absent from
    /// fault-free dumps.
    fn register_fault_scope(&self, registry: &mut StatRegistry) {
        if !self.cfg.fault.enabled() {
            return;
        }
        let mut fault = registry.scope("fault");
        self.ext.register_fault_stats(&mut fault.scope("cxl"));
        {
            let mut mem = fault.scope("mem");
            let (mut ce, mut ue, mut scrub_ps, mut rolls) = (0u64, 0u64, 0u64, 0u64);
            for dram in &self.drams {
                if let Some(s) = dram.fault_stats() {
                    ce += s.ce;
                    ue += s.ue;
                    scrub_ps += s.scrub_time.as_ps();
                }
                rolls += dram.fault_rolls().unwrap_or(0);
            }
            mem.count("ce", ce);
            mem.count("ue", ue);
            mem.count("scrub_ps", scrub_ps);
            mem.count("rolls", rolls);
        }
        self.net.register_fault_stats(&mut fault.scope("noc"));
        fault.scope("stream").count("aborts", self.stream_aborts);
    }

    fn report(&self, totals: &RunTotals) -> RunReport {
        let (makespan, ops) = (totals.makespan, totals.ops);
        let mut energy = EnergyBreakdown::default();
        for dram in &self.drams {
            energy.dram += dram.dynamic_energy();
            energy.static_ += dram.background_energy(makespan);
        }
        energy.static_ += (CORE_STATIC * self.cfg.units() as f64).over(makespan);
        energy.static_ += self.ext.background_energy(makespan);
        energy.dram += self.ext.dynamic_energy() - self.ext.link_energy();
        energy.noc = self.net.dynamic_energy();
        energy.cxl = self.ext.link_energy();

        RunReport {
            policy: self.cfg.policy,
            workload: self.workload_name.to_string(),
            sim_time: makespan,
            ops,
            mem_ops: self.mem_ops,
            l1_hits: self.l1_hits,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            local_hits: self.local_hits,
            bypass: self.bypass,
            slb_misses: self.slb_misses,
            metadata_dram: self.metadata_dram,
            breakdown: self.breakdown,
            energy,
            reconfigs: self.reconfigs,
            invalidations: self.invalidations,
            migrations: self.migrations,
            replicated_fraction: self.replicated_fraction,
            access_latency: self.access_latency.clone(),
            // Ops executed by the engine loop (see `engine.events` in the
            // registry): one queue event can carry a whole run-ahead
            // batch, so raw queue traffic would under-count under batching
            // and break comparability with pre-batching baselines.
            engine_events: ops,
            peak_queue_depth: totals.queue.peak_depth,
            registry: self.build_registry(totals),
        }
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
    /// ahead into (or inside) its capture window.
    fn private_bound(&self, t: Time) -> Time {
        self.trace.as_deref().map_or(Time::MAX, |tr| tr.reorder_bound(t))
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
mod tests {
    use super::*;
    use ndpx_workloads::trace::ScaleParams;

    fn run_one(policy: PolicyKind, workload: &str, ops: u64) -> RunReport {
        let cfg = SystemConfig::test(policy);
        let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build(workload, &p).expect("known").expect("builds");
        let mut sys = NdpSystem::new(cfg, wl).expect("valid");
        sys.run(ops)
    }

    #[test]
    fn system_is_send() {
        // Parallel bench orchestration moves whole systems (and the
        // workloads inside them) across worker threads; nothing in the
        // simulator may regress to thread-bound state (`Rc`, `RefCell`
        // over shared globals, raw pointers).
        fn assert_send<T: Send>() {}
        assert_send::<NdpSystem>();
        assert_send::<RunReport>();
        assert_send::<SystemConfig>();
    }

    #[test]
    fn system_runs_and_reports() {
        let r = run_one(PolicyKind::NdpExt, "pr", 3000);
        assert!(r.sim_time > Time::ZERO);
        assert_eq!(r.ops, 3000 * 16);
        assert!(r.mem_ops > 0);
        assert!(r.cache_hits + r.cache_misses > 0);
        assert!(r.energy.total().as_pj() > 0.0);
    }

    #[test]
    fn all_policies_run_pagerank() {
        for policy in PolicyKind::ALL {
            let r = run_one(policy, "pr", 1500);
            assert!(r.sim_time > Time::ZERO, "{policy:?} made no progress");
            assert!(r.miss_rate() <= 1.0);
        }
    }

    #[test]
    fn determinism() {
        let a = run_one(PolicyKind::NdpExt, "mv", 2000);
        let b = run_one(PolicyKind::NdpExt, "mv", 2000);
        assert_eq!(a.sim_time, b.sim_time);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.energy.total(), b.energy.total());
    }

    #[test]
    fn stream_grain_has_no_metadata_dram_traffic() {
        let r = run_one(PolicyKind::NdpExt, "pr", 2000);
        assert_eq!(r.metadata_dram, 0);
        let b = run_one(PolicyKind::Nexus, "pr", 2000);
        assert!(b.metadata_dram > 0, "baselines must pay in-DRAM metadata accesses");
    }

    #[test]
    fn bypass_traffic_is_tiny() {
        let r = run_one(PolicyKind::NdpExt, "cc", 4000);
        let frac = r.bypass as f64 / r.mem_ops as f64;
        assert!(frac < 0.002, "bypass fraction {frac}");
    }

    #[test]
    fn reconfiguration_happens() {
        let r = run_one(PolicyKind::NdpExt, "pr", 40_000);
        assert!(r.reconfigs > 0, "expected at least one epoch boundary");
    }

    #[test]
    fn backprop_transitions_read_only_streams() {
        let r = run_one(PolicyKind::NdpExt, "backprop", 20_000);
        // The adjust phase writes the weights: replicas must be dropped at
        // least once (invalidation traffic recorded).
        assert!(r.sim_time > Time::ZERO);
    }

    fn run_faulty(tweak: impl FnOnce(&mut ndpx_sim::fault::FaultConfig), ops: u64) -> RunReport {
        let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
        cfg.fault = ndpx_sim::fault::FaultConfig::with_seed(42);
        tweak(&mut cfg.fault);
        let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build("pr", &p).expect("known").expect("builds");
        let mut sys = NdpSystem::new(cfg, wl).expect("valid");
        sys.run(ops)
    }

    #[test]
    fn disabled_faults_leave_registry_clean() {
        let r = run_one(PolicyKind::NdpExt, "pr", 1500);
        assert!(r.registry.get("fault.mem.rolls").is_none());
        assert!(r.registry.get("fault.cxl.rolls").is_none());
        assert!(r.registry.get("fault.noc.rolls").is_none());
        assert!(r.registry.get("stream_table.poisoned").is_none());
    }

    #[test]
    fn fault_injection_is_deterministic_and_counted() {
        let tweak = |f: &mut ndpx_sim::fault::FaultConfig| {
            f.mem_ce = 1e-2;
            f.mem_ue = 0.0;
            f.cxl_ber = 1e-7;
            f.noc_fer = 1e-4;
        };
        let a = run_faulty(tweak, 3000);
        let b = run_faulty(tweak, 3000);
        assert_eq!(a.sim_time, b.sim_time, "same seed must replay identically");
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.registry.to_json(), b.registry.to_json());
        let rolls = a.registry.get("fault.mem.rolls").expect("fault scope present");
        assert!(rolls.as_count().expect("count") > 0, "DRAM reads must draw ECC decisions");
        assert!(a.registry.get("fault.noc.rolls").is_some());
        assert!(a.registry.get("fault.cxl.rolls").is_some());
        let ce = a.registry.get("fault.mem.ce").expect("present").as_count().expect("count");
        assert!(ce > 0, "1% CE rate over thousands of reads must inject");
    }

    #[test]
    fn poison_aborts_streams_and_refetches() {
        let r = run_faulty(
            |f| {
                f.mem_ce = 0.0;
                f.mem_ue = 0.05;
                f.cxl_ber = 0.0;
                f.noc_fer = 0.0;
            },
            3000,
        );
        let aborts =
            r.registry.get("fault.stream.aborts").expect("present").as_count().expect("count");
        assert!(aborts > 0, "5% UE rate must trigger at least one abort");
        assert!(
            r.registry.get("stream_table.poisoned").expect("present").as_count().expect("count")
                > 0,
            "aborted streams must be marked poisoned"
        );
        assert!(r.sim_time > Time::ZERO, "poison storms must not wedge the run");
    }

    #[test]
    fn degraded_link_slows_runs_and_feeds_back() {
        let clean = run_faulty(
            |f| {
                f.cxl_ber = 0.0;
                f.mem_ce = 0.0;
                f.mem_ue = 0.0;
                f.noc_fer = 0.0;
            },
            3000,
        );
        let degraded = run_faulty(
            |f| {
                f.cxl_ber = 1e-4;
                f.mem_ce = 0.0;
                f.mem_ue = 0.0;
                f.noc_fer = 0.0;
            },
            3000,
        );
        assert!(
            degraded
                .registry
                .get("fault.cxl.crc_retries")
                .expect("present")
                .as_count()
                .expect("count")
                > 0,
            "a lossy link must replay frames"
        );
        assert!(
            degraded.sim_time > clean.sim_time,
            "CRC replays and retrains must cost simulated time"
        );
    }

    #[test]
    fn zero_rate_fault_plans_change_nothing() {
        // Installed-but-all-zero injectors must reproduce the ideal timing:
        // rolls are drawn (counters advance) yet no fault ever fires.
        let ideal = run_one(PolicyKind::NdpExt, "pr", 2000);
        let zeroed = run_faulty(
            |f| {
                f.cxl_ber = 0.0;
                f.mem_ce = 0.0;
                f.mem_ue = 0.0;
                f.noc_fer = 0.0;
            },
            2000,
        );
        assert_eq!(ideal.sim_time, zeroed.sim_time);
        assert_eq!(ideal.cache_hits, zeroed.cache_hits);
        assert_eq!(ideal.energy.total(), zeroed.energy.total());
        assert_eq!(
            zeroed.registry.get("fault.mem.ce").expect("present").as_count().expect("count"),
            0
        );
        assert_eq!(
            zeroed.registry.get("fault.stream.aborts").expect("present").as_count().expect("count"),
            0
        );
    }

    #[test]
    fn rejects_mismatched_core_count() {
        let cfg = SystemConfig::test(PolicyKind::NdpExt);
        let p = ScaleParams { cores: cfg.units() + 1, footprint: 1 << 20, seed: 1 };
        let wl = ndpx_workloads::build("pr", &p).unwrap().unwrap();
        assert!(NdpSystem::new(cfg, wl).is_err());
    }

    #[test]
    fn zero_sized_structures_fail_construction_without_panicking() {
        // A zero-set sampler or a zero-entry SLB would panic in the
        // constructor and a zero epoch would spin the boundary loop, so
        // validation must reject each before anything is built.
        let tweaks: [fn(&mut SystemConfig); 3] =
            [|c| c.sampler_sets = 0, |c| c.slb_entries = 0, |c| c.epoch_cycles = 0];
        for tweak in tweaks {
            let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
            tweak(&mut cfg);
            let p = ScaleParams { cores: cfg.units(), footprint: 1 << 20, seed: 1 };
            let wl = ndpx_workloads::build("pr", &p).unwrap().unwrap();
            let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                NdpSystem::new(cfg, wl).map(|_| ())
            }));
            assert!(matches!(built, Ok(Err(_))), "expected an error, not a panic or a system");
        }
    }

    #[test]
    fn slo_and_profile_scopes_are_opt_in() {
        let cfg = SystemConfig::test(PolicyKind::NdpExt);
        let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build("pr", &p).unwrap().unwrap();
        let mut sys = NdpSystem::new(cfg, wl).expect("valid");
        sys.set_profile(true);
        let on = sys.run(40_000);
        assert!(on.reconfigs > 0, "need at least one epoch for SLO stats");
        let epochs = on.registry.get("slo.epochs").expect("slo scope").as_count().expect("count");
        assert!(epochs > 0);
        assert!(on.registry.get("slo.downtime_ns").is_some());
        assert!(on.registry.get("slo.streams.poisoned").is_some());
        assert!(on.registry.get("profile.run").is_some(), "run phase always recorded");
        assert!(on.registry.get("profile.sampler_solve").is_some(), "epochs solve demands");

        // Identical run with telemetry off: no slo.*/profile.* keys, and the
        // rest of the registry is unchanged key-for-key.
        let off = run_one(PolicyKind::NdpExt, "pr", 40_000);
        assert!(off
            .registry
            .iter()
            .all(|(k, _)| !k.starts_with("slo.") && !k.starts_with("profile.")));
        assert_eq!(on.sim_time, off.sim_time, "profiling must not perturb results");
        let strip = |r: &RunReport| {
            let mut reg = StatRegistry::new();
            for (k, v) in r.registry.iter() {
                if !k.starts_with("slo.") && !k.starts_with("profile.") {
                    reg.publish(k, v.clone());
                }
            }
            reg.to_json()
        };
        assert_eq!(strip(&on), strip(&off));
    }

    fn run_chaos(policy: PolicyKind, spec: &str, workload: &str, ops: u64) -> RunReport {
        let mut cfg = SystemConfig::test(policy);
        cfg.chaos = ndpx_sim::chaos::ChaosConfig::parse(Some(spec), None).expect("valid spec");
        let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build(workload, &p).expect("known").expect("builds");
        let mut sys = NdpSystem::new(cfg, wl).expect("valid");
        sys.run(ops)
    }

    fn count(r: &RunReport, k: &str) -> u64 {
        r.registry.get(k).unwrap_or_else(|| panic!("{k} missing")).as_count().expect("count")
    }

    #[test]
    fn chaos_off_runs_carry_no_chaos_keys() {
        let r = run_one(PolicyKind::NdpExt, "pr", 1500);
        assert!(r
            .registry
            .iter()
            .all(|(k, _)| !k.starts_with("chaos.") && !k.starts_with("fault.recovery.")));
    }

    #[test]
    fn empty_chaos_schedule_changes_nothing() {
        let ideal = run_one(PolicyKind::NdpExt, "pr", 2000);
        let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
        cfg.chaos = ndpx_sim::chaos::ChaosConfig::disabled();
        let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build("pr", &p).expect("known").expect("builds");
        let mut sys = NdpSystem::new(cfg, wl).expect("valid");
        let r = sys.run(2000);
        assert_eq!(ideal.sim_time, r.sim_time);
        assert_eq!(ideal.registry.to_json(), r.registry.to_json());
    }

    #[test]
    fn stack_loss_re_places_streams_and_reports_recovery() {
        let r = run_chaos(PolicyKind::NdpExt, "stack-down@20us:1", "pr", 20_000);
        assert!(r.sim_time > Time::ZERO, "stack loss must not wedge the run");
        assert_eq!(count(&r, "chaos.applied"), 1, "the event must fire mid-run");
        assert!(count(&r, "chaos.forced_reconfigs") >= 1);
        assert!(count(&r, "chaos.streams_poisoned") > 0, "resident streams must poison");
        assert!(count(&r, "chaos.ops_aborted") > 0, "dead cores lose their remaining ops");
        assert_eq!(
            count(&r, "chaos.dead_resident_streams"),
            0,
            "no stream may stay placed on the dead stack"
        );
        let ups = SystemConfig::test(PolicyKind::NdpExt).topology.units_per_stack() as u64;
        assert_eq!(count(&r, "chaos.dead_units"), ups);
        // Recovery record: event 0 applied, with a finite time-to-recover.
        assert!(count(&r, "fault.recovery.e00.ttr_ps") > 0);
        assert_eq!(count(&r, "fault.recovery.e00.at_ps"), Time::from_us(20).as_ps());
        assert!(count(&r, "fault.recovery.e00.streams_migrated") > 0);
        let avail = r.registry.get("chaos.availability").expect("gauge").as_gauge().expect("f64");
        assert!(avail > 0.0 && avail < 1.0, "partial-loss availability in (0,1): {avail}");
        // Determinism: an identical schedule replays byte-identically.
        let again = run_chaos(PolicyKind::NdpExt, "stack-down@20us:1", "pr", 20_000);
        assert_eq!(r.registry.to_json(), again.registry.to_json());
    }

    #[test]
    fn windowed_stack_loss_restores_capacity() {
        let r = run_chaos(PolicyKind::NdpExt, "stack-down@20us+30us:0", "pr", 40_000);
        assert_eq!(count(&r, "chaos.applied"), 1);
        assert_eq!(count(&r, "chaos.restores"), 1, "the loss window must expire mid-run");
        assert_eq!(count(&r, "chaos.dead_units"), 0, "all units back after restore");
        assert!(
            count(&r, "fault.recovery.e00.ttr_ps") >= Time::from_us(30).as_ps(),
            "windowed TTR covers at least the loss window"
        );
        assert!(r.sim_time > Time::ZERO);
    }

    #[test]
    fn cxl_outage_stalls_and_recovers() {
        let clean = run_one(PolicyKind::NdpExt, "pr", 6000);
        let r = run_chaos(PolicyKind::NdpExt, "cxl-down@10us+40us", "pr", 6000);
        assert_eq!(count(&r, "chaos.applied"), 1);
        assert_eq!(count(&r, "chaos.cxl.outages"), 1);
        assert!(count(&r, "chaos.cxl.probes") > 0, "stalled accesses must retry");
        assert!(count(&r, "chaos.cxl.stall_ps") > 0);
        assert!(r.sim_time > clean.sim_time, "an outage must cost simulated time");
        assert_eq!(count(&r, "fault.recovery.e00.ttr_ps"), Time::from_us(40).as_ps());
    }

    #[test]
    fn noc_link_loss_reroutes_and_restores() {
        let r = run_chaos(PolicyKind::NdpExt, "noc-down@10us+50us:0-1", "pr", 40_000);
        assert_eq!(count(&r, "chaos.applied"), 1);
        assert_eq!(count(&r, "chaos.restores"), 1);
        assert_eq!(count(&r, "chaos.dead_links"), 0, "link back up after the window");
        assert!(count(&r, "chaos.forced_reconfigs") >= 2, "loss and restore each re-place");
        assert!(r.sim_time > Time::ZERO);
    }

    #[test]
    fn timeline_writes_windows_without_perturbing_results() {
        use ndpx_sim::telemetry::TimelineConfig;

        let base = run_one(PolicyKind::NdpExt, "mv", 4000);

        let cfg = SystemConfig::test(PolicyKind::NdpExt);
        let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build("mv", &p).unwrap().unwrap();
        let mut sys = NdpSystem::new(cfg, wl).expect("valid");
        let dir = std::env::temp_dir();
        let stem = dir.join("ndpx-core-test-timeline.json");
        let mut tc = TimelineConfig::to_path(&stem);
        tc.window = Time::from_ns(2_000);
        sys.set_timeline(Some(tc));
        let r = sys.run(4000);

        assert_eq!(r.sim_time, base.sim_time, "sampling must not perturb results");
        assert_eq!(r.cache_hits, base.cache_hits);
        let label = format!(
            "{:?}-{:?}-mv",
            SystemConfig::test(PolicyKind::NdpExt).mem_kind,
            PolicyKind::NdpExt
        );
        let path = dir.join(format!("ndpx-core-test-timeline.{label}.json"));
        let text = std::fs::read_to_string(&path).expect("timeline file written");
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"ndpx-timeline-v1\""));
        assert!(text.contains("\"engine.queue.depth\""));
        assert!(text.contains("\"slo.epochs\""), "timeline runs carry the slo series");
        assert!(text.contains("\"noc."), "per-link NoC series present");
        ndpx_sim::telemetry::Json::parse(&text).expect("timeline is valid JSON");
    }
}
