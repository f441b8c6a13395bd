//! The telemetry-off contract (PR 8 satellite): with no timeline, profiler,
//! or trace configured, a run is indistinguishable from the seed — the
//! committed `BENCH_PERF.json` digests reproduce exactly and the registry
//! carries no `slo.*` / `profile.*` keys. Turning the full telemetry stack
//! ON must not move a single digest either: sampling reads simulated state,
//! it never schedules into it.

mod common;

use std::path::Path;
use std::time::Instant;

use common::run_fresh;
use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::{cell_key, gauge_ops};
use ndpx_bench::runner::{BenchScale, RunSpec};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind, TelemetryConfig};
use ndpx_sim::telemetry::TimelineConfig;
use ndpx_sim::Time;

/// One workload per memory family, every policy (12 cells) — the same
/// slice `fault_determinism` pins against the committed digests.
fn specs() -> Vec<RunSpec> {
    let ops = gauge_ops(BenchScale::Test);
    [(MemKind::Hbm, "pr"), (MemKind::Hmc, "mv")]
        .iter()
        .flat_map(|&(mem, workload)| {
            PolicyKind::ALL.iter().map(move |&policy| RunSpec {
                ops_per_core: ops,
                ..RunSpec::new(mem, policy, workload, BenchScale::Test)
            })
        })
        .collect()
}

#[test]
fn telemetry_off_matches_committed_digests_and_omits_scopes() {
    let committed = common::committed_digests();
    let specs = specs();
    let reports = run_fresh(4, TraceCache::new(), &specs);
    for (spec, report) in specs.iter().zip(&reports) {
        let key = cell_key(spec);
        let baseline = committed
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("BENCH_PERF.json has no cell {key}"))
            .1;
        assert_eq!(
            report_digest(report),
            baseline,
            "{key}: the telemetry-off path must be bit-identical to the committed baseline"
        );
        for (path, _) in report.registry.iter() {
            assert!(
                !path.starts_with("slo.") && !path.starts_with("profile."),
                "{key}: telemetry-off registries must omit {path}"
            );
        }
    }
}

#[test]
fn full_telemetry_does_not_move_a_digest() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("disabled_path_tl");
    std::fs::create_dir_all(&dir).expect("create timeline dir");
    let specs = specs();
    let mut tl = TimelineConfig::to_path(dir.join("timeline.json"));
    tl.window = Time::from_ns(2_000);
    let telemetry = TelemetryConfig { timeline: Some(tl), profile: true, ..Default::default() };
    let traced: Vec<RunSpec> = specs
        .iter()
        .map(|spec| {
            let telemetry = telemetry.clone();
            spec.clone().with_tweak(move |cfg| cfg.telemetry = telemetry.clone())
        })
        .collect();

    let t_off = Instant::now();
    let off = run_fresh(1, TraceCache::new(), &specs);
    let wall_off = t_off.elapsed();

    let t_on = Instant::now();
    let on = run_fresh(1, TraceCache::new(), &traced);
    let wall_on = t_on.elapsed();

    for ((spec, a), b) in specs.iter().zip(&off).zip(&on) {
        let key = cell_key(spec);
        assert_eq!(
            report_digest(a),
            report_digest(b),
            "{key}: timelines + profiler enabled must not move the digest"
        );
        assert_eq!(a.sim_time, b.sim_time, "{key}: simulated time moved");
        assert!(b.registry.get("profile.run").is_some(), "{key}: profiler scope recorded");
    }

    // Overhead stays modest. The 2% budget is a release-build target; a
    // debug build under a loaded CI runner needs a lenient ceiling — this
    // gate exists to catch algorithmic blowups (per-op sampling), not to
    // benchmark.
    let ratio = wall_on.as_secs_f64() / wall_off.as_secs_f64().max(1e-9);
    eprintln!("telemetry-on / telemetry-off wall ratio: {ratio:.3}");
    assert!(ratio < 3.0, "telemetry overhead blew up: {ratio:.2}x");

    let _ = std::fs::remove_dir_all(&dir);
}
