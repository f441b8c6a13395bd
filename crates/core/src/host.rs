//! The non-NDP host baseline (paper §VI).
//!
//! A conventional chip multi-processor: 64 cores with private L1s and a
//! 32 MB NUCA last-level cache of 64 banks on an on-chip mesh (Fig. 2's NUCA
//! parameters: 9-cycle bank access, 3-cycle routing per hop), backed by
//! DDR5-4800 main memory. Fig. 5 normalizes every NDP configuration to this
//! system.

use ndpx_cache::setassoc::SetAssocCache;
use ndpx_mem::device::{DramConfig, DramDevice};
use ndpx_noc::network::{LinkParams, Network};
use ndpx_noc::topology::{IntraKind, Topology, UnitId};
use ndpx_sim::energy::Power;
use ndpx_sim::engine::ProgressWatchdog;
use ndpx_sim::rng::hash_range;
use ndpx_sim::telemetry::{StatRegistry, TimelineConfig};
use ndpx_sim::time::{Freq, Time};
use ndpx_workloads::trace::Workload;
use ndpx_workloads::OpLanes;

use crate::config::PolicyKind;
use crate::desc::{DescParams, StreamDesc};
use crate::driver::{self, EngineScope, FrontEnd, Miss, RunTotals, Simulated};
use crate::stats::{Breakdown, EnergyBreakdown, LatComponent, RunReport};

/// Host system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Core count (paper: 64).
    pub cores: usize,
    /// Core clock.
    pub freq: Freq,
    /// L1 data cache bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Total LLC bytes (paper: 32 MB over 64 banks).
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC bank access latency, cycles (Fig. 2: 9).
    pub bank_cycles: u64,
    /// Mesh hop latency, cycles (Fig. 2: 3).
    pub hop_cycles: u64,
    /// Main-memory capacity.
    pub mem_capacity: u64,
    /// Windowed timeline of the run's stat registry; none by default.
    pub timeline: Option<TimelineConfig>,
}

impl HostConfig {
    /// The paper's host: 64 cores, 32 MB LLC, DDR5.
    pub fn paper() -> Self {
        HostConfig {
            cores: 64,
            freq: Freq::from_ghz(2.0),
            l1_bytes: 64 << 10,
            l1_ways: 4,
            llc_bytes: 32 << 20,
            llc_ways: 16,
            bank_cycles: 9,
            hop_cycles: 3,
            mem_capacity: 512 << 30,
            timeline: None,
        }
    }

    /// A scaled-down host matching [`crate::SystemConfig::test`] ratios.
    pub fn test(cores: usize) -> Self {
        HostConfig { cores, l1_bytes: 8 << 10, llc_bytes: 256 << 10, ..Self::paper() }
    }

    /// Checks that every structure the host builds is non-empty.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first zero-sized parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("the host needs at least one core".into());
        }
        if self.l1_ways == 0 || self.llc_ways == 0 {
            return Err("associativities must be positive".into());
        }
        Ok(())
    }

    fn mesh_dim(&self) -> usize {
        (self.cores as f64).sqrt().ceil() as usize
    }
}

/// The host simulator.
pub struct HostSystem {
    cfg: HostConfig,
    table: ndpx_stream::StreamTable,
    /// The core front end, with stream descriptors at line grain (the
    /// host reads only their element addresses).
    front: FrontEnd,
    workload_name: &'static str,
    banks: Vec<SetAssocCache>,
    net: Network,
    mem: DramDevice,
    breakdown: Breakdown,
    llc_hits: u64,
    llc_misses: u64,
}

/// L1 hit latency of a host core, cycles.
const L1_CYCLES: u64 = 2;

/// Static power of one host core (wider than an NDP core).
const HOST_CORE_STATIC: Power = Power::from_mw(500.0);

impl HostSystem {
    /// Builds the host for one workload (which must target `cfg.cores`).
    ///
    /// # Errors
    ///
    /// Returns a message on an invalid configuration (see
    /// [`HostConfig::validate`]) or a core-count mismatch.
    pub fn new(cfg: HostConfig, workload: Workload) -> Result<Self, String> {
        cfg.validate()?;
        if workload.cores != cfg.cores {
            return Err(format!(
                "workload built for {} cores but host has {}",
                workload.cores, cfg.cores
            ));
        }
        let dim = cfg.mesh_dim();
        let topo = Topology {
            stacks_x: 1,
            stacks_y: 1,
            units_x: dim,
            units_y: dim,
            intra: IntraKind::Mesh,
        };
        // On-chip mesh: hop latency from cycles, on-chip energy.
        let hop = cfg.freq.cycles_to_time(cfg.hop_cycles);
        let intra = LinkParams { hop_latency: hop, bytes_per_ns: 64.0, pj_per_bit: 0.1 };
        let net = Network::new(topo, intra, LinkParams::inter_stack());
        let banks = (0..cfg.cores)
            .map(|_| {
                SetAssocCache::with_capacity(cfg.llc_bytes / cfg.cores as u64, 64, cfg.llc_ways)
            })
            .collect();
        let l1s = (0..cfg.cores)
            .map(|_| SetAssocCache::with_capacity(cfg.l1_bytes, 64, cfg.l1_ways))
            .collect();
        let line_grain = DescParams { stream_grain: false, affine_block: 64, line_bytes: 64 };
        let descs = workload.table.iter().map(|s| StreamDesc::build(*s, line_grain)).collect();
        let l1_lat = cfg.freq.cycles_to_time(L1_CYCLES);
        let ops = OpLanes::new(workload.source, workload.name, workload.cores);
        let front = FrontEnd::new(ops, descs, l1s, 64, cfg.freq, l1_lat, cfg.timeline.as_ref());
        Ok(HostSystem {
            front,
            mem: DramDevice::new(DramConfig::ddr5_extended(cfg.mem_capacity)),
            net,
            banks,
            table: workload.table,
            workload_name: workload.name,
            breakdown: Breakdown::default(),
            llc_hits: 0,
            llc_misses: 0,
            cfg,
        })
    }

    /// Enables or disables run-ahead batching for this host. Bit-identical
    /// either way; switching it off exists for differential tests (see
    /// [`crate::system::NdpSystem::set_batching`]).
    pub fn set_batching(&mut self, on: bool) {
        self.front.batch = on;
    }

    /// Runs `ops_per_core` operations per core; returns the report.
    ///
    /// Scheduling and run-ahead batching are the shared driver's, as for
    /// [`crate::system::NdpSystem::run`]. The host has no epochs or chaos,
    /// so only a timeline boundary bounds the private horizon.
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
        let totals = driver::run(self, ops_per_core, watchdog);
        self.report(&totals)
    }

    fn report(&self, totals: &RunTotals) -> RunReport {
        let (makespan, ops) = (totals.makespan, totals.ops);
        let energy = EnergyBreakdown {
            static_: (HOST_CORE_STATIC * self.cfg.cores as f64).over(makespan)
                + self.mem.background_energy(makespan),
            dram: self.mem.dynamic_energy(),
            noc: self.net.dynamic_energy(),
            ..EnergyBreakdown::default()
        };
        RunReport {
            policy: PolicyKind::StaticInterleave,
            workload: format!("{}(host)", self.workload_name),
            sim_time: makespan,
            ops,
            mem_ops: self.front.mem_ops,
            l1_hits: self.front.l1_hits,
            cache_hits: self.llc_hits,
            cache_misses: self.llc_misses,
            local_hits: 0,
            bypass: 0,
            slb_misses: 0,
            metadata_dram: 0,
            breakdown: self.front.breakdown(self.breakdown),
            energy,
            reconfigs: 0,
            invalidations: 0,
            migrations: 0,
            replicated_fraction: 0.0,
            access_latency: self.front.access_latency(),
            registry: driver::registry(self, &EngineScope::Run(totals)),
        }
    }
}

impl Simulated for HostSystem {
    #[inline]
    fn front(&self) -> &FrontEnd {
        &self.front
    }

    #[inline]
    fn front_mut(&mut self) -> &mut FrontEnd {
        &mut self.front
    }

    /// The NUCA bank and DRAM path of an L1 miss; the L1 victim is not
    /// written back.
    #[inline(never)]
    fn miss(&mut self, core: usize, miss: Miss, mut now: Time) -> Time {
        let Miss { addr, line, write, .. } = miss;

        // Static line interleaving across banks.
        let bank = hash_range(line, self.cfg.cores as u64) as usize;
        let t1 = self.net.send(UnitId(core), UnitId(bank), 16, now);
        self.breakdown.add(LatComponent::NocIntra, t1 - now);
        now = t1 + self.cfg.freq.cycles_to_time(self.cfg.bank_cycles);
        self.breakdown
            .add(LatComponent::DramCache, self.cfg.freq.cycles_to_time(self.cfg.bank_cycles));

        if self.banks[bank].access(line, write).is_hit() {
            self.llc_hits += 1;
        } else {
            self.llc_misses += 1;
            let t2 = self.mem.access(addr, 64, false, now);
            self.breakdown.add(LatComponent::ExtMem, t2 - now);
            now = t2;
        }
        let t3 = self.net.send(UnitId(bank), UnitId(core), 64, now);
        self.breakdown.add(LatComponent::NocIntra, t3 - now);
        t3 + self.cfg.freq.cycle()
    }

    /// The LLC counters, the mesh and main memory in every view; the
    /// stream table only at the end of the run.
    fn register(&self, reg: &mut StatRegistry, view: &EngineScope<'_>) {
        {
            let mut core = reg.scope("core");
            core.count("llc_hits", self.llc_hits);
            core.count("llc_misses", self.llc_misses);
        }
        self.net.register_stats(&mut reg.scope("noc"));
        self.mem.register_stats(&mut reg.scope("mem"));
        if let EngineScope::Run(_) = view {
            self.table.register_stats(&mut reg.scope("stream_table"));
        }
    }

    fn timeline_label(&self) -> String {
        format!("Host-{}", self.workload_name)
    }

    fn run_label(&self) -> String {
        format!("host/{}", self.workload_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpx_workloads::trace::ScaleParams;

    fn run_host(workload: &str, cores: usize, ops: u64) -> RunReport {
        let cfg = HostConfig::test(cores);
        let p = ScaleParams { cores, footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build(workload, &p).unwrap().unwrap();
        HostSystem::new(cfg, wl).unwrap().run(ops)
    }

    #[test]
    fn host_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<HostSystem>();
    }

    #[test]
    fn host_runs_and_reports() {
        let r = run_host("pr", 16, 2000);
        assert!(r.sim_time > Time::ZERO);
        assert!(r.cache_hits + r.cache_misses > 0);
        assert!(r.energy.total().as_pj() > 0.0);
    }

    #[test]
    fn host_is_deterministic() {
        let a = run_host("mv", 8, 2000);
        let b = run_host("mv", 8, 2000);
        assert_eq!(a.sim_time, b.sim_time);
    }

    #[test]
    fn small_llc_misses_more_than_ndp_cache_would() {
        // The host LLC is tiny relative to the footprint: high miss rate.
        let r = run_host("pr", 8, 4000);
        assert!(r.miss_rate() > 0.2, "expected llc pressure, miss rate {}", r.miss_rate());
    }

    #[test]
    fn host_timeline_writes_and_stays_bit_identical() {
        let base = run_host("mv", 8, 1500);
        let stem = std::env::temp_dir().join("ndpx-host-test-timeline.json");
        let mut tc = TimelineConfig::to_path(&stem);
        tc.window = Time::from_ns(2_000);
        let cfg = HostConfig { timeline: Some(tc), ..HostConfig::test(8) };
        let p = ScaleParams { cores: 8, footprint: 8 << 20, seed: 42 };
        let wl = ndpx_workloads::build("mv", &p).unwrap().unwrap();
        let r = HostSystem::new(cfg, wl).unwrap().run(1500);
        assert_eq!(r.sim_time, base.sim_time, "sampling must not perturb results");
        let path = std::env::temp_dir().join("ndpx-host-test-timeline.Host-mv.json");
        let text = std::fs::read_to_string(&path).expect("timeline written");
        std::fs::remove_file(&path).ok();
        assert!(text.contains("\"ndpx-timeline-v1\""));
        assert!(text.contains("\"core.mem_ops\""));
    }

    #[test]
    fn rejects_core_mismatch() {
        let cfg = HostConfig::test(8);
        let p = ScaleParams { cores: 4, footprint: 1 << 20, seed: 1 };
        let wl = ndpx_workloads::build("pr", &p).unwrap().unwrap();
        assert!(HostSystem::new(cfg, wl).is_err());
    }

    #[test]
    fn zero_ways_fail_construction_without_panicking() {
        let p = ScaleParams { cores: 4, footprint: 1 << 20, seed: 1 };
        for cfg in [
            HostConfig { l1_ways: 0, ..HostConfig::test(4) },
            HostConfig { llc_ways: 0, ..HostConfig::test(4) },
        ] {
            let wl = ndpx_workloads::build("pr", &p).unwrap().unwrap();
            assert!(HostSystem::new(cfg, wl).is_err());
        }
        assert!(HostConfig { cores: 0, ..HostConfig::test(4) }.validate().is_err());
    }
}
