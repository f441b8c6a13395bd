//! Run telemetry: epoch SLO tracking, the hierarchical stat registry, and
//! the final run report.

use ndpx_sim::stats::Histogram;
use ndpx_sim::telemetry::{StatRegistry, StatScope};
use ndpx_sim::time::Time;

use super::{NdpSystem, CORE_STATIC};
use crate::driver::{EngineScope, RunTotals};
use crate::stats::{EnergyBreakdown, RunReport};

/// Epoch-level service telemetry: per-epoch access-latency percentiles,
/// placement staleness, and reconfiguration downtime (the `slo.*` scope).
///
/// Tracking is active only while the system has a time-resolved consumer
/// attached (timeline sampler or phase profiler). Otherwise [`record`]
/// (Self::record) is one dead branch per memory op and the `slo.*` scope is
/// absent from registry dumps, so default runs stay byte-identical.
#[derive(Debug, Default)]
pub(super) struct SloTracker {
    pub(super) enabled: bool,
    /// Access-latency distribution of the epoch in progress.
    epoch_hist: Histogram,
    /// Epochs closed so far.
    epochs: u64,
    /// Percentiles of the last closed epoch (bucket floors).
    pub(super) last_p50: Time,
    last_p95: Time,
    pub(super) last_p99: Time,
    /// Worst per-epoch p99 over the run.
    worst_p99: Time,
    /// Staleness measured at the last epoch boundary.
    pub(super) last_staleness: Time,
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
    pub(super) fn record(&mut self, lat: Time) {
        if self.enabled {
            self.epoch_hist.record(lat);
        }
    }

    /// Closes the epoch ending at `t`: captures the percentiles and the
    /// placement staleness (time since the last applied reconfiguration),
    /// then resets the per-epoch histogram.
    pub(super) fn close_epoch(&mut self, t: Time) {
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
    pub(super) fn applied(&mut self, t: Time, drain: Time) {
        self.last_applied = t;
        self.downtime += drain;
    }

    /// Publishes the `slo.*` nodes; `now` anchors the staleness gauge.
    pub(super) fn register(&self, scope: &mut StatScope<'_>, now: Time) {
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

impl NdpSystem {
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
    pub(super) fn register_fault_scope(&self, registry: &mut StatRegistry) {
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

    pub(super) fn report(&self, totals: &RunTotals) -> RunReport {
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
            peak_queue_depth: totals.queue.peak_depth,
            registry: self.build_registry(totals),
        }
    }
}
