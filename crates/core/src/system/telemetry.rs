//! Run telemetry: epoch SLO tracking, the fault scope, and the final run
//! report.

use ndpx_sim::stats::Histogram;
use ndpx_sim::telemetry::{StatRegistry, StatScope};
use ndpx_sim::time::Time;

use super::{NdpSystem, CORE_STATIC};
use crate::driver::{self, EngineScope, RunTotals};
use crate::stats::{EnergyBreakdown, RunReport};

/// Epoch-level service telemetry: per-epoch access-latency percentiles,
/// placement staleness, and reconfiguration downtime (the `slo.*` scope).
///
/// An epoch's latency distribution is the front end's cumulative one minus
/// the copy taken when the previous epoch closed, so the access path
/// records nothing here. Tracking is active only while the system has a
/// time-resolved consumer attached (timeline sampler or phase profiler);
/// otherwise epochs close nothing and the `slo.*` scope is absent from
/// registry dumps, so default runs stay byte-identical.
#[derive(Debug, Default)]
pub(super) struct SloTracker {
    pub(super) enabled: bool,
    /// The front end's cumulative access-latency histogram when the last
    /// epoch closed.
    closed: Histogram,
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
    /// Closes the epoch ending at `t`, given the front end's cumulative
    /// access-latency histogram: captures the percentiles of the samples
    /// since the last close and the placement staleness (time since the
    /// last applied reconfiguration), then keeps `cumulative` as the next
    /// epoch's base.
    pub(super) fn close_epoch(&mut self, t: Time, cumulative: Histogram) {
        let epoch = cumulative.since(&self.closed);
        self.closed = cumulative;
        self.epochs += 1;
        self.last_p50 = epoch.p50();
        self.last_p95 = epoch.p95();
        self.last_p99 = epoch.p99();
        self.worst_p99 = self.worst_p99.max(self.last_p99);
        self.last_staleness = t.saturating_sub(self.last_applied);
        self.worst_staleness = self.worst_staleness.max(self.last_staleness);
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
            mem_ops: self.front.mem_ops,
            l1_hits: self.front.l1_hits,
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            local_hits: self.local_hits,
            bypass: self.bypass,
            slb_misses: self.slb_misses,
            metadata_dram: self.metadata_dram,
            breakdown: self.front.breakdown(self.breakdown),
            energy,
            reconfigs: self.reconfigs,
            invalidations: self.invalidations,
            migrations: self.migrations,
            replicated_fraction: self.replicated_fraction,
            access_latency: self.front.access_latency(),
            registry: driver::registry(self, &EngineScope::Run(totals)),
        }
    }
}
