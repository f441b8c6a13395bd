//! Differential tests for run-ahead batching.
//!
//! The batched run loop (the default) may only move the wall clock: every
//! simulated fact — the full [`RunReport`], including the telemetry
//! registry dump — must be byte-identical to the per-op loop, which
//! `set_batching(false)` selects and which serves as the oracle. The
//! batched loop runs ahead over two horizons: the shared window below the
//! queue's next event, and the private horizon past it (compute and L1
//! hits only), clamped by epochs, chaos events, timeline boundaries and
//! the trace window. The tests sweep random workloads, seeds, policies and
//! footprints, then cover each clamp with a case that actually crosses it,
//! and pin that the run-ahead engages at all.

use std::path::{Path, PathBuf};

use ndpx_core::config::{PolicyKind, SystemConfig, TelemetryConfig};
use ndpx_core::{HostConfig, HostSystem, NdpSystem, RunReport};
use ndpx_sim::chaos::ChaosConfig;
use ndpx_sim::engine::ProgressWatchdog;
use ndpx_sim::rng::Xoshiro256;
use ndpx_sim::telemetry::{StatValue, TimelineConfig, TraceConfig};
use ndpx_sim::time::Time;
use ndpx_workloads::trace::ScaleParams;
use ndpx_workloads::{build, Workload, REPRESENTATIVE_WORKLOADS};

/// Everything a run produced, as one comparable string: the derived Debug
/// of the report (truncated before the inline registry) covers every
/// counter and breakdown, and the registry JSON pins the full stat dump.
/// The `engine.batch.*` and `engine.queue.*` scopes are excluded — they
/// describe the shape of the run loop itself (batch lengths, raw queue
/// traffic), which batching changes on purpose — except the queue's
/// high-water mark, `engine.queue.peak_depth`, which both loops must reach
/// alike; everything simulated must match to the bit.
fn fingerprint(r: &RunReport) -> String {
    let debug = format!("{r:?}");
    let head = debug.split(", registry:").next().unwrap_or(&debug).to_string();
    let stats: String = r
        .registry
        .iter()
        .filter(|(path, _)| {
            *path == "engine.queue.peak_depth"
                || (!path.starts_with("engine.batch.") && !path.starts_with("engine.queue."))
        })
        .map(|(path, value)| format!("{path}: {value:?}\n"))
        .collect();
    format!("{head}\n{stats}")
}

/// A random representative workload spec; `build` is deterministic in the
/// spec, so both loops get byte-identical traces from a fresh build each.
fn random_spec(rng: &mut Xoshiro256, cores: usize) -> (&'static str, ScaleParams) {
    let name = REPRESENTATIVE_WORKLOADS[rng.below(REPRESENTATIVE_WORKLOADS.len() as u64) as usize];
    let p = ScaleParams { cores, footprint: (4 << 20) + rng.below(12 << 20), seed: rng.next_u64() };
    (name, p)
}

fn build_wl(name: &str, p: &ScaleParams) -> Workload {
    build(name, p).expect("known").expect("builds")
}

#[test]
fn ndp_batched_run_is_bit_identical_to_per_op_loop() {
    let mut rng = Xoshiro256::seed_from(0x000B_A7C4_D1FF);
    for case in 0..6 {
        let policy = PolicyKind::ALL[rng.below(PolicyKind::ALL.len() as u64) as usize];
        let cfg = SystemConfig::test(policy);
        let (name, p) = random_spec(&mut rng, cfg.units());
        let ops = 2_000 + rng.below(6_000);

        let mut batched = NdpSystem::new(cfg.clone(), build_wl(name, &p)).expect("valid");
        batched.set_batching(true);
        let rb = batched.run(ops);

        let mut serial = NdpSystem::new(cfg, build_wl(name, &p)).expect("valid");
        serial.set_batching(false);
        let rs = serial.run(ops);

        assert_eq!(
            fingerprint(&rb),
            fingerprint(&rs),
            "case {case}: {policy:?}/{name} at {ops} ops diverged between loops"
        );
    }
}

#[test]
fn host_batched_run_is_bit_identical_to_per_op_loop() {
    let mut rng = Xoshiro256::seed_from(0x0000_5775_D1FF);
    for case in 0..4 {
        let cfg = HostConfig::test(8);
        let (name, p) = random_spec(&mut rng, 8);
        let ops = 2_000 + rng.below(6_000);

        let mut batched = HostSystem::new(cfg.clone(), build_wl(name, &p)).expect("valid");
        batched.set_batching(true);
        let rb = batched.run(ops);

        let mut serial = HostSystem::new(cfg, build_wl(name, &p)).expect("valid");
        serial.set_batching(false);
        let rs = serial.run(ops);

        assert_eq!(
            fingerprint(&rb),
            fingerprint(&rs),
            "case {case}: host/{name} at {ops} ops diverged between loops"
        );
    }
}

#[test]
fn watchdog_still_fires_with_fast_path_active() {
    // Every core starts at Time::ZERO, so the first pops repeat the same
    // (time, depth) observation; a tiny iteration limit makes that burst
    // trip the watchdog. Batching hoists the observation to once per batch
    // — the point of this test is that the hoist cannot hoist it away.
    let cfg = SystemConfig::test(PolicyKind::NdpExt);
    let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 7 };
    let wl = build("pr", &p).expect("known").expect("builds");
    let mut sys = NdpSystem::new(cfg, wl).expect("valid");
    sys.set_batching(true);
    let r = sys.run_with_watchdog(4_000, ProgressWatchdog::new(4));
    let stalls = r.registry.get("engine.stalls").and_then(|v| v.as_count()).unwrap_or(0);
    assert!(stalls >= 1, "watchdog did not fire under the batched loop");
}

#[test]
fn watchdog_observations_match_across_loops() {
    // The stall verdict itself must be loop-invariant: same limit, same
    // workload, same number of recorded stalls either way.
    let stalls_with = |batch: bool| {
        let cfg = SystemConfig::test(PolicyKind::NdpExt);
        let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 11 };
        let wl = build("mv", &p).expect("known").expect("builds");
        let mut sys = NdpSystem::new(cfg, wl).expect("valid");
        sys.set_batching(batch);
        let r = sys.run_with_watchdog(3_000, ProgressWatchdog::new(4));
        r.registry.get("engine.stalls").and_then(|v| v.as_count()).unwrap_or(0)
    };
    assert_eq!(stalls_with(true), stalls_with(false));
}

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

fn mean_len(r: &RunReport) -> f64 {
    r.registry.get("engine.batch.mean_len").and_then(StatValue::as_gauge).unwrap_or(0.0)
}

/// Runs `cfg` on `name` once per loop (run-ahead first, then the per-op
/// oracle), letting `attach` set each run's telemetry; returns both
/// reports after asserting their fingerprints match.
fn ndp_both(
    cfg: &SystemConfig,
    name: &str,
    p: &ScaleParams,
    ops: u64,
    attach: impl Fn(&mut TelemetryConfig, bool),
) -> (RunReport, RunReport) {
    let run = |batch: bool| {
        let mut cfg = cfg.clone();
        attach(&mut cfg.telemetry, batch);
        let mut sys = NdpSystem::new(cfg, build_wl(name, p)).expect("valid");
        sys.set_batching(batch);
        sys.run(ops)
    };
    let (ahead, oracle) = (run(true), run(false));
    assert_eq!(
        fingerprint(&ahead),
        fingerprint(&oracle),
        "{:?}/{name} at {ops} ops diverged between loops",
        cfg.policy
    );
    (ahead, oracle)
}

/// A fresh, empty temporary directory for one test's telemetry files.
fn fresh_temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ndpx-batching-diff-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The one file a run wrote into `dir`, read and removed with its dir.
fn take_only_file(dir: &Path) -> String {
    let files: Vec<PathBuf> =
        std::fs::read_dir(dir).expect("dir").map(|e| e.expect("entry").path()).collect();
    assert_eq!(files.len(), 1, "expected one file in {}", dir.display());
    let text = std::fs::read_to_string(&files[0]).expect("readable");
    std::fs::remove_dir_all(dir).ok();
    text
}

#[test]
fn run_ahead_stops_at_epoch_boundaries_that_reconfigure() {
    // NDPExt with a tenfold shorter epoch: every run reconfigures and
    // migrates, so private ops run right up to boundaries that move
    // placement. The profiler switches on the per-epoch latency
    // percentiles (`slo.*`), the one series that sees which epoch an L1
    // hit landed in; pathfinder's percentiles shift when hits cross an
    // epoch boundary, so it catches a horizon that ignores epochs.
    let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
    cfg.epoch_cycles /= 10;
    for name in ["bfs", "recsys", "pathfinder"] {
        let p = ScaleParams { cores: cfg.units(), footprint: 20 << 20, seed: 0xBEEF };
        let (r, _) = ndp_both(&cfg, name, &p, 4_000, |t, _| t.profile = true);
        assert!(count(&r, "slo.epochs") > 0, "{name}: no epoch percentiles recorded");
        assert!(r.reconfigs > 0, "{name}: no epoch fired");
        assert!(r.migrations > 0, "{name}: no entry migrated");
    }
}

#[test]
fn run_ahead_stops_at_chaos_events() {
    let mut cfg = SystemConfig::test(PolicyKind::NdpExt);
    cfg.chaos =
        ChaosConfig::parse(Some("cxl-down@5us+20us;stack-down@20us:1")).expect("valid chaos spec");
    let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 42 };
    let (r, _) = ndp_both(&cfg, "pr", &p, 6_000, |_, _| {});
    assert_eq!(count(&r, "chaos.applied"), 2, "both failures must fire mid-run");
    assert!(count(&r, "chaos.ops_aborted") > 0, "the dead stack's cores lose ops");
}

#[test]
fn run_ahead_stops_at_timeline_boundaries() {
    let cfg = SystemConfig::test(PolicyKind::NdpExt);
    let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 5 };
    let dirs = [fresh_temp_dir("timeline-ahead"), fresh_temp_dir("timeline-oracle")];
    ndp_both(&cfg, "mv", &p, 3_000, |t, batch| {
        let mut tc = TimelineConfig::to_path(dirs[usize::from(!batch)].join("tl.json"));
        tc.window = Time::from_ns(700);
        t.timeline = Some(tc);
    });
    // The `engine.batch.*` series describe the loop's shape and differ on
    // purpose; every other line must match.
    let strip = |text: String| -> String {
        text.lines().filter(|l| !l.contains("\"engine.batch.")).collect::<Vec<_>>().join("\n")
    };
    let [ahead, oracle] = dirs.map(|d| strip(take_only_file(&d)));
    assert!(ahead.matches("\"start_ns\"").count() > 10, "expected many windows");
    assert_eq!(ahead, oracle, "timelines diverged between loops");
}

#[test]
fn run_ahead_keeps_the_trace_ring_order() {
    // The ring wraps many times over the run, so both which events survive
    // and their order depend on recording order.
    let cfg = SystemConfig::test(PolicyKind::NdpExtStatic);
    let p = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 9 };
    let dirs = [fresh_temp_dir("trace-ahead"), fresh_temp_dir("trace-oracle")];
    ndp_both(&cfg, "tc", &p, 3_000, |t, batch| {
        let mut tc = TraceConfig::to_path(dirs[usize::from(!batch)].join("trace.json"));
        tc.capacity = 512;
        t.trace = Some(tc);
    });
    let [ahead, oracle] = dirs.map(|d| take_only_file(&d));
    assert!(ahead.matches("\"mem_op\"").count() > 100, "the ring must record ops");
    assert!(!ahead.contains("\"dropped_events\": 0}"), "the ring must wrap");
    assert_eq!(ahead, oracle, "trace rings diverged between loops");
}

#[test]
fn host_run_ahead_matches_with_a_timeline() {
    let cfg = HostConfig::test(16);
    let p = ScaleParams { cores: 16, footprint: 8 << 20, seed: 3 };
    let dirs = [fresh_temp_dir("host-tl-ahead"), fresh_temp_dir("host-tl-oracle")];
    let mut reports = Vec::new();
    for (dir, batch) in dirs.iter().zip([true, false]) {
        let mut tc = TimelineConfig::to_path(dir.join("tl.json"));
        tc.window = Time::from_ns(2_000);
        let cfg = HostConfig { timeline: Some(tc), ..cfg.clone() };
        let mut sys = HostSystem::new(cfg, build_wl("hotspot", &p)).expect("valid");
        sys.set_batching(batch);
        reports.push(sys.run(3_000));
    }
    assert_eq!(fingerprint(&reports[0]), fingerprint(&reports[1]));
    let strip = |text: String| -> String {
        text.lines().filter(|l| !l.contains("\"engine.batch.")).collect::<Vec<_>>().join("\n")
    };
    let [ahead, oracle] = dirs.map(|d| strip(take_only_file(&d)));
    assert_eq!(ahead, oracle, "host timelines diverged between loops");
}

#[test]
fn host_watchdog_fires_under_the_run_ahead_loop() {
    // All cores start at Time::ZERO, so the first pops repeat one
    // (time, depth) observation; a limit of 4 must trip on that burst.
    let p = ScaleParams { cores: 8, footprint: 8 << 20, seed: 7 };
    let mut sys = HostSystem::new(HostConfig::test(8), build_wl("pr", &p)).expect("valid");
    let r = sys.run_with_watchdog(2_000, ProgressWatchdog::new(4));
    assert!(count(&r, "engine.stalls") >= 1, "watchdog did not fire on the host loop");
    assert!(mean_len(&r) > 1.0, "the run-ahead loop must be the one under test");
}

#[test]
fn run_ahead_engages_on_l1_resident_workloads() {
    // Pinned engagement: anything that silently disables the private
    // horizon drops the mean batch length back to about one op.
    let cfg = SystemConfig::test(PolicyKind::NdpExtStatic);
    let cache = cfg.units() as u64 * cfg.unit_capacity;
    let p = ScaleParams { cores: cfg.units(), footprint: cache * 6 / 5, seed: 0xBEEF };
    let mut sys = NdpSystem::new(cfg, build_wl("tc", &p)).expect("valid");
    let ndp = sys.run(4_000);
    assert!(mean_len(&ndp) >= 10.0, "tc/NDPExt-static mean batch {}", mean_len(&ndp));

    let p = ScaleParams { cores: 16, footprint: cache * 4, seed: 0xBEEF };
    let mut host = HostSystem::new(HostConfig::test(16), build_wl("hotspot", &p)).expect("valid");
    let r = host.run(4_000);
    assert!(mean_len(&r) >= 10.0, "hotspot/host mean batch {}", mean_len(&r));
}
