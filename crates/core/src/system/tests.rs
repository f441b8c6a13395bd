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
    let aborts = r.registry.get("fault.stream.aborts").expect("present").as_count().expect("count");
    assert!(aborts > 0, "5% UE rate must trigger at least one abort");
    assert!(
        r.registry.get("stream_table.poisoned").expect("present").as_count().expect("count") > 0,
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
        degraded.registry.get("fault.cxl.crc_retries").expect("present").as_count().expect("count")
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
    assert_eq!(zeroed.registry.get("fault.mem.ce").expect("present").as_count().expect("count"), 0);
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
fn rejects_a_stream_whose_keys_overflow_the_32_bit_tags() {
    struct Idle;
    impl ndpx_workloads::OpSource for Idle {
        fn next_op(&mut self, _core: usize) -> ndpx_workloads::Op {
            ndpx_workloads::Op::Compute(1)
        }
    }
    // Metadata only: a 2^32-element indirect stream allocates nothing.
    let workload = |elems: u64| {
        let mut table = ndpx_stream::StreamTable::new();
        let spec = ndpx_stream::table::StreamSpec::indirect(2 << 20, elems * 4, 4, None);
        table.configure(spec).expect("fits the 48-bit size field");
        let cores = SystemConfig::test(PolicyKind::NdpExt).units();
        Workload { name: "huge", table, cores, source: Box::new(Idle) }
    };
    let err = NdpSystem::new(SystemConfig::test(PolicyKind::NdpExt), workload(1 << 32))
        .map(|_| ())
        .expect_err("element keys reach 2^32 - 1");
    assert!(err.contains("huge") && err.contains("stream s0"), "{err}");
    // One element fewer fits; at line grain the same stream's keys are
    // 16x smaller.
    assert!(NdpSystem::new(SystemConfig::test(PolicyKind::NdpExt), workload((1 << 32) - 1)).is_ok());
    assert!(
        NdpSystem::new(SystemConfig::test(PolicyKind::StaticInterleave), workload(1 << 32)).is_ok()
    );
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
    let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
    cfg.telemetry.profile = true;
    let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
    let wl = ndpx_workloads::build("pr", &p).unwrap().unwrap();
    let on = NdpSystem::new(cfg, wl).expect("valid").run(40_000);
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
    assert!(off.registry.iter().all(|(k, _)| !k.starts_with("slo.") && !k.starts_with("profile.")));
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

/// Sampler slots a system holds after construction and after a short run
/// that crosses epoch boundaries.
fn sampler_slots(policy: PolicyKind, chaos: Option<&str>) -> (usize, usize) {
    let mut cfg = SystemConfig::test(policy);
    cfg.epoch_cycles /= 10;
    if let Some(spec) = chaos {
        cfg.chaos = ndpx_sim::chaos::ChaosConfig::parse(Some(spec), None).expect("valid spec");
    }
    let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
    let wl = ndpx_workloads::build("pr", &p).expect("known").expect("builds");
    let mut sys = NdpSystem::new(cfg, wl).expect("valid");
    let held = |sys: &NdpSystem| sys.samplers.iter().flatten().count();
    let built = held(&sys);
    let r = sys.run(4000);
    assert!(r.reconfigs > 0, "{policy:?}: no epoch fired");
    (built, held(&sys))
}

#[test]
fn samplers_exist_only_where_a_decision_reads_them() {
    for policy in [PolicyKind::NdpExtStatic, PolicyKind::StaticInterleave] {
        assert_eq!(sampler_slots(policy, None), (0, 0), "{policy:?} never reads its samples");
    }
    let (built, after) = sampler_slots(PolicyKind::NdpExt, None);
    assert!(built > 0 && after > 0, "NDPExt reconfigures from its samples");
    // A chaos plan forces re-placements, but the static allocators ignore
    // miss curves, so a static policy still builds no sampler.
    for policy in [PolicyKind::NdpExtStatic, PolicyKind::StaticInterleave] {
        let slots = sampler_slots(policy, Some("noc-down@1ms:0-1"));
        assert_eq!(slots, (0, 0), "{policy:?}'s forced re-placement reads no samples");
    }
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

    let dir = std::env::temp_dir();
    let stem = dir.join("ndpx-core-test-timeline.json");
    let mut tc = TimelineConfig::to_path(&stem);
    tc.window = Time::from_ns(2_000);
    let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
    cfg.telemetry.timeline = Some(tc);
    let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
    let wl = ndpx_workloads::build("mv", &p).unwrap().unwrap();
    let r = NdpSystem::new(cfg, wl).expect("valid").run(4000);

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
