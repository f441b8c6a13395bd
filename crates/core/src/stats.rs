//! Run-level statistics: latency breakdowns, energy breakdowns, and the
//! report the bench harness consumes.

use ndpx_sim::energy::Energy;
use ndpx_sim::stats::Histogram;
use ndpx_sim::telemetry::StatRegistry;
use ndpx_sim::time::Time;

use crate::config::PolicyKind;

/// Components of memory-access latency (the paper's Fig. 2a categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatComponent {
    /// Core pipeline and L1 access.
    CoreL1,
    /// Metadata: SLB, ATA, metadata cache, and in-DRAM tag accesses.
    Metadata,
    /// DRAM cache data access at the serving unit.
    DramCache,
    /// Intra-stack network.
    NocIntra,
    /// Inter-stack network.
    NocInter,
    /// Extended memory: CXL link plus DDR backend.
    ExtMem,
}

impl LatComponent {
    /// All components in display order.
    pub const ALL: [LatComponent; 6] = [
        LatComponent::CoreL1,
        LatComponent::Metadata,
        LatComponent::DramCache,
        LatComponent::NocIntra,
        LatComponent::NocInter,
        LatComponent::ExtMem,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LatComponent::CoreL1 => "core+l1",
            LatComponent::Metadata => "metadata",
            LatComponent::DramCache => "dram-cache",
            LatComponent::NocIntra => "noc-intra",
            LatComponent::NocInter => "noc-inter",
            LatComponent::ExtMem => "ext-mem",
        }
    }
}

/// Accumulated time per latency component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    parts: [Time; 6],
}

impl Breakdown {
    /// Adds `t` to one component.
    #[inline]
    pub fn add(&mut self, c: LatComponent, t: Time) {
        self.parts[c as usize] += t;
    }

    /// The accumulated time of one component.
    pub fn get(&self, c: LatComponent) -> Time {
        self.parts[c as usize]
    }

    /// Sum over all components.
    pub fn total(&self) -> Time {
        self.parts.iter().copied().sum()
    }

    /// Fraction of the total attributed to `c` (0 if empty).
    pub fn fraction(&self, c: LatComponent) -> f64 {
        let total = self.total().as_ps();
        if total == 0 {
            0.0
        } else {
            self.get(c).as_ps() as f64 / total as f64
        }
    }

    /// Merges another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (a, b) in self.parts.iter_mut().zip(other.parts.iter()) {
            *a += *b;
        }
    }
}

/// Energy by source (the paper's Fig. 6 categories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Background/leakage energy (follows execution time).
    pub static_: Energy,
    /// DRAM dynamic energy (NDP cache + extended DDR).
    pub dram: Energy,
    /// Intra- and inter-stack interconnect energy.
    pub noc: Energy,
    /// CXL link energy.
    pub cxl: Energy,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.static_ + self.dram + self.noc + self.cxl
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy simulated.
    pub policy: PolicyKind,
    /// Workload name.
    pub workload: String,
    /// Makespan: the time the last core finished its op quota.
    pub sim_time: Time,
    /// Operations executed (all kinds).
    pub ops: u64,
    /// Memory operations issued to the hierarchy.
    pub mem_ops: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// DRAM cache hits (any unit).
    pub cache_hits: u64,
    /// DRAM cache misses (served by extended memory).
    pub cache_misses: u64,
    /// Hits served by the requester's own unit.
    pub local_hits: u64,
    /// Accesses that bypassed the cache (non-stream addresses).
    pub bypass: u64,
    /// SLB misses (stream-grain policies).
    pub slb_misses: u64,
    /// Metadata-cache misses that required an in-DRAM tag access
    /// (cacheline-grain baselines).
    pub metadata_dram: u64,
    /// Latency breakdown over post-L1 accesses.
    pub breakdown: Breakdown,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Reconfigurations performed.
    pub reconfigs: u64,
    /// Cache entries invalidated at reconfigurations and read-only
    /// transitions.
    pub invalidations: u64,
    /// Cache entries migrated between units at reconfigurations.
    pub migrations: u64,
    /// Fraction of cache capacity spent on replicas in the last epoch.
    pub replicated_fraction: f64,
    /// End-to-end latency distribution of every memory op, L1 hits
    /// included (each at the L1 hit latency; the systems count them and
    /// add them here in bulk).
    ///
    /// This field and the registry below are telemetry, deliberately *not*
    /// mixed into the bench digest (`ndpx-bench`'s `report_digest` enumerates fields explicitly),
    /// so observability changes can never shift a perf baseline.
    pub access_latency: Histogram,
    /// Hierarchical stat dump gathered from every subsystem after the run.
    pub registry: StatRegistry,
}

impl RunReport {
    /// DRAM-cache miss rate over post-L1 stream accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_misses as f64 / total as f64
        }
    }

    /// L1 hit rate.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.mem_ops == 0 {
            0.0
        } else {
            self.l1_hits as f64 / self.mem_ops as f64
        }
    }

    /// Mean interconnect (intra + inter) latency per post-L1 access.
    pub fn avg_interconnect(&self) -> Time {
        let accesses = self.cache_hits + self.cache_misses;
        if accesses == 0 {
            return Time::ZERO;
        }
        let noc =
            self.breakdown.get(LatComponent::NocIntra) + self.breakdown.get(LatComponent::NocInter);
        Time::from_ps(noc.as_ps() / accesses)
    }

    /// Throughput proxy: operations per simulated microsecond.
    pub fn ops_per_us(&self) -> f64 {
        if self.sim_time.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.sim_time.as_us_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(sim_ps: u64) -> RunReport {
        RunReport {
            policy: PolicyKind::NdpExt,
            workload: "test".into(),
            sim_time: Time::from_ps(sim_ps),
            ops: 1000,
            mem_ops: 800,
            l1_hits: 600,
            cache_hits: 150,
            cache_misses: 50,
            local_hits: 100,
            bypass: 1,
            slb_misses: 2,
            metadata_dram: 0,
            breakdown: Breakdown::default(),
            energy: EnergyBreakdown::default(),
            reconfigs: 3,
            invalidations: 10,
            migrations: 5,
            replicated_fraction: 0.2,
            access_latency: Histogram::new(),
            registry: StatRegistry::new(),
        }
    }

    #[test]
    fn breakdown_accumulates_and_fractions() {
        let mut b = Breakdown::default();
        b.add(LatComponent::CoreL1, Time::from_ns(10));
        b.add(LatComponent::ExtMem, Time::from_ns(30));
        assert_eq!(b.total().as_ns(), 40);
        assert!((b.fraction(LatComponent::ExtMem) - 0.75).abs() < 1e-12);
        let mut c = Breakdown::default();
        c.add(LatComponent::CoreL1, Time::from_ns(10));
        c.merge(&b);
        assert_eq!(c.get(LatComponent::CoreL1).as_ns(), 20);
    }

    #[test]
    fn report_rates() {
        let r = report(1_000_000);
        assert!((r.miss_rate() - 0.25).abs() < 1e-12);
        assert!((r.l1_hit_rate() - 0.75).abs() < 1e-12);
        assert!((r.ops_per_us() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let b = Breakdown::default();
        assert_eq!(b.fraction(LatComponent::Metadata), 0.0);
        assert_eq!(Breakdown::default().total(), Time::ZERO);
    }

    #[test]
    fn energy_total_sums_parts() {
        let e = EnergyBreakdown {
            static_: Energy::from_pj(1.0),
            dram: Energy::from_pj(2.0),
            noc: Energy::from_pj(3.0),
            cxl: Energy::from_pj(4.0),
        };
        assert!((e.total().as_pj() - 10.0).abs() < 1e-12);
    }
}
