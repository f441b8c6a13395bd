//! System configuration (paper Table II) and scale profiles.

use ndpx_cxl::CxlParams;
use ndpx_mem::device::DramConfig;
use ndpx_noc::network::LinkParams;
use ndpx_noc::topology::{IntraKind, Topology};
use ndpx_sim::chaos::{ChaosConfig, ChaosKind};
use ndpx_sim::fault::FaultConfig;
use ndpx_sim::telemetry::{TimelineConfig, TraceConfig};
use ndpx_sim::time::{Freq, Time};

/// Which 3D memory family backs the NDP stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// HBM3-style stacks: one logic die per stack behind a crossbar, so each
    /// stack is one NUCA node.
    Hbm,
    /// HMC-style stacks: per-vault NDP units on an internal mesh.
    Hmc,
}

/// The cache-management policy under evaluation (paper §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// NDPExt: stream caches + the co-optimizing configuration runtime.
    NdpExt,
    /// NDPExt hardware with equal static allocation and no reconfiguration.
    NdpExtStatic,
    /// Jigsaw \[6\] adapted to the DRAM cache: cacheline grain, utility-sized
    /// partitions gathered at each partition's centre of mass.
    Jigsaw,
    /// Whirlpool \[56\]: cacheline grain, per-data-structure partitions spread
    /// proportionally to per-unit access intensity.
    Whirlpool,
    /// Nexus \[71\]: Whirlpool placement plus a uniform global replication
    /// degree for read-only data.
    Nexus,
    /// Static cacheline interleaving across all units (Fig. 2's strawman).
    StaticInterleave,
}

impl PolicyKind {
    /// All policies compared in Fig. 5, in plotting order.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::StaticInterleave,
        PolicyKind::Jigsaw,
        PolicyKind::Whirlpool,
        PolicyKind::Nexus,
        PolicyKind::NdpExtStatic,
        PolicyKind::NdpExt,
    ];

    /// Short label used by the bench harness.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::NdpExt => "NDPExt",
            PolicyKind::NdpExtStatic => "NDPExt-static",
            PolicyKind::Jigsaw => "Jigsaw",
            PolicyKind::Whirlpool => "Whirlpool",
            PolicyKind::Nexus => "Nexus",
            PolicyKind::StaticInterleave => "Static",
        }
    }

    /// True for the two policies that use stream-grain metadata (no per-line
    /// metadata access).
    pub fn is_stream_grain(self) -> bool {
        matches!(self, PolicyKind::NdpExt | PolicyKind::NdpExtStatic)
    }

    /// True if the runtime reconfigures the cache every epoch.
    pub fn reconfigures(self) -> bool {
        !matches!(self, PolicyKind::NdpExtStatic | PolicyKind::StaticInterleave)
    }
}

/// How reconfiguration treats data cached under the previous configuration
/// (paper §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigTransfer {
    /// Invalidate all cached data of streams whose allocation changed.
    BulkInvalidate,
    /// Consistent hashing: keep entries whose placement survives, migrate
    /// the rest where possible.
    ConsistentHash,
}

/// The observers a run attaches. None by default; they read simulated
/// state and never change it, so no digest depends on them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryConfig {
    /// Chrome trace-event export.
    pub trace: Option<TraceConfig>,
    /// Windowed timeline of the stat registry.
    pub timeline: Option<TimelineConfig>,
    /// Sim-phase profiler (`profile.*` registry scope).
    pub profile: bool,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// NDP memory family.
    pub mem_kind: MemKind,
    /// Stack/unit geometry.
    pub topology: Topology,
    /// DRAM cache bytes per NDP unit.
    pub unit_capacity: u64,
    /// Extended-memory capacity.
    pub ext_capacity: u64,
    /// CXL link parameters.
    pub cxl: CxlParams,
    /// NDP core clock (Table II: 2 GHz, in-order).
    pub core_freq: Freq,
    /// L1 data cache size (Table II: 64 kB).
    pub l1_bytes: u64,
    /// L1 associativity (Table II: 4-way).
    pub l1_ways: usize,
    /// Cacheline size (64 B).
    pub line_bytes: u64,
    /// Affine stream cache block size (paper §IV-C: 1 kB).
    pub affine_block: u64,
    /// Total affine cache space per unit (paper §IV-C: 16 MB); `u64::MAX`
    /// disables the restriction (Fig. 9c's ideal case).
    pub affine_cap: u64,
    /// Indirect stream cache associativity (paper: direct-mapped; Fig. 9a
    /// sweeps higher).
    pub indirect_ways: usize,
    /// SLB entries per unit (paper: 32).
    pub slb_entries: usize,
    /// Latency charged on an SLB miss (host walks the stream remap table).
    pub slb_miss_penalty: Time,
    /// Miss-curve samplers per unit (paper §V-A: 4).
    pub samplers_per_unit: usize,
    /// Sampled sets per capacity point (paper: k = 32).
    pub sampler_sets: usize,
    /// Capacity points per sampler (paper: c = 64).
    pub sampler_points: usize,
    /// Reconfiguration epoch in core cycles (paper: 50 M).
    pub epoch_cycles: u64,
    /// Stop reconfiguring after this many epochs (Fig. 9e's "partial" mode);
    /// `None` reconfigures for the whole run.
    pub max_reconfigs: Option<u64>,
    /// Policy under test.
    pub policy: PolicyKind,
    /// Reconfiguration data handling.
    pub transfer: ReconfigTransfer,
    /// Nexus's uniform replication degree.
    pub nexus_degree: usize,
    /// Allow NDPExt to form replication groups (ablation knob; the paper's
    /// design always allows it for read-only streams).
    pub allow_replication: bool,
    /// Per-unit SRAM metadata cache for cacheline-grain baselines
    /// (paper §VI: 128 kB).
    pub metadata_cache_bytes: u64,
    /// Metadata block coverage of the dual-granularity metadata cache
    /// (Bi-Modal style: 512 B regions).
    pub metadata_block: u64,
    /// Fault-injection configuration. Disabled by default, in which case
    /// every device keeps the ideal fault-free path.
    pub fault: FaultConfig,
    /// Hard-failure schedule (device and link loss). Disabled (no events)
    /// by default, in which case no escalation machinery engages and runs
    /// are byte-identical to the ideal path.
    pub chaos: ChaosConfig,
    /// Observers attached to the run; none by default.
    pub telemetry: TelemetryConfig,
}

impl SystemConfig {
    /// The paper's full-scale configuration (Table II): 8 stacks × 16 units.
    ///
    /// Note: Table II lists 16 GB total NDP memory and 256 MB/unit, which is
    /// inconsistent with 128 units; we follow the 16 GB total (128 MB/unit).
    pub fn paper(mem_kind: MemKind, policy: PolicyKind) -> Self {
        let intra = match mem_kind {
            MemKind::Hbm => IntraKind::Crossbar,
            MemKind::Hmc => IntraKind::Mesh,
        };
        SystemConfig {
            mem_kind,
            topology: Topology::paper_default(intra),
            unit_capacity: 128 << 20,
            ext_capacity: 512 << 30,
            cxl: CxlParams::paper_default(),
            core_freq: Freq::from_ghz(2.0),
            l1_bytes: 64 << 10,
            l1_ways: 4,
            line_bytes: 64,
            affine_block: 1 << 10,
            affine_cap: 16 << 20,
            indirect_ways: 1,
            slb_entries: 32,
            slb_miss_penalty: Time::from_us(1),
            samplers_per_unit: 4,
            sampler_sets: 32,
            sampler_points: 64,
            epoch_cycles: 50_000_000,
            max_reconfigs: None,
            policy,
            transfer: ReconfigTransfer::ConsistentHash,
            nexus_degree: 4,
            allow_replication: true,
            metadata_cache_bytes: 128 << 10,
            metadata_block: 512,
            fault: FaultConfig::disabled(),
            chaos: ChaosConfig::disabled(),
            telemetry: TelemetryConfig::default(),
        }
    }

    /// A scaled-down profile for unit and integration tests: 4 stacks of 4
    /// units, 1 MB per unit, short epochs. All capacity *ratios* follow the
    /// paper profile.
    pub fn test(policy: PolicyKind) -> Self {
        let mut cfg = Self::paper(MemKind::Hbm, policy);
        cfg.topology = Topology {
            stacks_x: 2,
            stacks_y: 2,
            units_x: 2,
            units_y: 2,
            intra: IntraKind::Crossbar,
        };
        cfg.unit_capacity = 1 << 20;
        cfg.ext_capacity = 1 << 30;
        cfg.l1_bytes = 8 << 10;
        cfg.affine_cap = 128 << 10;
        cfg.metadata_cache_bytes = 16 << 10;
        cfg.epoch_cycles = 200_000;
        cfg
    }

    /// The mid-size profile used by the bench harness: the paper's topology
    /// shape at 1/16 capacity so full sweeps finish in minutes.
    pub fn bench(mem_kind: MemKind, policy: PolicyKind) -> Self {
        let mut cfg = Self::paper(mem_kind, policy);
        cfg.unit_capacity = 4 << 20;
        cfg.ext_capacity = 8 << 30;
        cfg.affine_cap = 512 << 10;
        cfg.epoch_cycles = 2_000_000;
        cfg
    }

    /// Number of NDP units (== cores).
    pub fn units(&self) -> usize {
        self.topology.units()
    }

    /// The per-unit DRAM device configuration.
    pub fn dram_config(&self) -> DramConfig {
        match self.mem_kind {
            MemKind::Hbm => DramConfig::hbm3_unit(self.unit_capacity),
            MemKind::Hmc => DramConfig::hmc2_unit(self.unit_capacity),
        }
    }

    /// Intra- and inter-stack link parameters (Table II).
    pub fn link_params(&self) -> (LinkParams, LinkParams) {
        (LinkParams::intra_stack(), LinkParams::inter_stack())
    }

    /// Epoch length as simulated time.
    pub fn epoch(&self) -> Time {
        self.core_freq.cycles_to_time(self.epoch_cycles)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        if self.unit_capacity == 0 {
            return Err("unit capacity must be positive".into());
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err("line size must be a positive power of two".into());
        }
        if self.affine_block < self.line_bytes {
            return Err("affine block must be at least one line".into());
        }
        if self.indirect_ways == 0 || self.l1_ways == 0 {
            return Err("associativities must be positive".into());
        }
        if self.nexus_degree == 0 {
            return Err("nexus degree must be positive".into());
        }
        if self.sampler_points < 2 {
            return Err("need at least two sampler capacity points".into());
        }
        if self.sampler_sets == 0 {
            return Err("samplers need at least one monitored set".into());
        }
        if self.slb_entries == 0 {
            return Err("the SLB needs at least one entry".into());
        }
        if self.epoch_cycles == 0 {
            return Err("epoch length must be positive".into());
        }
        self.fault.validate().map_err(str::to_string)?;
        self.chaos.validate()?;
        let stacks = self.topology.stacks();
        for e in &self.chaos.events {
            match e.kind {
                ChaosKind::CxlDown => {}
                ChaosKind::StackDown { stack } => {
                    if stack >= stacks {
                        return Err(format!(
                            "chaos stack-down target {stack} out of range (stacks: {stacks})"
                        ));
                    }
                }
                ChaosKind::NocLinkDown { src, dst } => {
                    if src >= stacks || dst >= stacks {
                        return Err(format!(
                            "chaos noc-down target {src}-{dst} out of range (stacks: {stacks})"
                        ));
                    }
                    let sx = self.topology.stacks_x;
                    let (ax, ay) = (src % sx, src / sx);
                    let (bx, by) = (dst % sx, dst / sx);
                    if ax.abs_diff(bx) + ay.abs_diff(by) != 1 {
                        return Err(format!(
                            "chaos noc-down target {src}-{dst} is not a grid-adjacent \
                             stack pair"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_table2() {
        let cfg = SystemConfig::paper(MemKind::Hbm, PolicyKind::NdpExt);
        cfg.validate().unwrap();
        assert_eq!(cfg.units(), 128);
        assert_eq!(cfg.units() as u64 * cfg.unit_capacity, 16 << 30);
        assert_eq!(cfg.core_freq.cycle().as_ps(), 500);
        assert_eq!(cfg.slb_entries, 32);
        assert_eq!(cfg.samplers_per_unit, 4);
        assert_eq!(cfg.sampler_sets, 32);
        assert_eq!(cfg.sampler_points, 64);
        assert_eq!(cfg.epoch_cycles, 50_000_000);
        assert_eq!(cfg.affine_cap, 16 << 20);
    }

    #[test]
    fn hmc_uses_mesh_hbm_uses_crossbar() {
        let hbm = SystemConfig::paper(MemKind::Hbm, PolicyKind::NdpExt);
        let hmc = SystemConfig::paper(MemKind::Hmc, PolicyKind::NdpExt);
        assert_eq!(hbm.topology.intra, IntraKind::Crossbar);
        assert_eq!(hmc.topology.intra, IntraKind::Mesh);
    }

    #[test]
    fn test_profile_is_small_and_valid() {
        let cfg = SystemConfig::test(PolicyKind::Nexus);
        cfg.validate().unwrap();
        assert!(cfg.units() <= 16);
        assert!(cfg.unit_capacity <= 2 << 20);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
        cfg.unit_capacity = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
        cfg.affine_block = 32;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
        cfg.line_bytes = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fault_rates_are_validated() {
        let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
        cfg.fault = FaultConfig::with_seed(1);
        cfg.fault.mem_ce = 7.0;
        assert!(cfg.validate().is_err());
        cfg.fault.mem_ce = 0.5;
        cfg.validate().unwrap();
    }

    #[test]
    fn chaos_targets_are_validated_against_the_topology() {
        // Test profile: 2×2 stacks.
        let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
        cfg.chaos = ChaosConfig::parse(Some("stack-down@10us:1")).unwrap();
        cfg.validate().unwrap();
        cfg.chaos = ChaosConfig::parse(Some("stack-down@10us:4")).unwrap();
        assert!(cfg.validate().is_err(), "stack index past the grid must be rejected");
        cfg.chaos = ChaosConfig::parse(Some("noc-down@10us:0-1")).unwrap();
        cfg.validate().unwrap();
        // Stacks 0 and 3 are diagonal on the 2×2 grid: no direct link.
        cfg.chaos = ChaosConfig::parse(Some("noc-down@10us:0-3")).unwrap();
        assert!(cfg.validate().is_err(), "non-adjacent link must be rejected");
        cfg.chaos = ChaosConfig::parse(Some("cxl-down@10us")).unwrap();
        assert!(cfg.validate().is_err(), "permanent CXL outage must be rejected");
    }

    #[test]
    fn policy_helpers() {
        assert!(PolicyKind::NdpExt.is_stream_grain());
        assert!(!PolicyKind::Nexus.is_stream_grain());
        assert!(PolicyKind::NdpExt.reconfigures());
        assert!(!PolicyKind::StaticInterleave.reconfigures());
        assert_eq!(PolicyKind::ALL.len(), 6);
    }
}
