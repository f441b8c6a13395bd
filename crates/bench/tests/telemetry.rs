//! Determinism and validity gates for the telemetry layer (ISSUE 3).
//!
//! * Registry dumps must be byte-identical at any `NDPX_THREADS` width —
//!   they are built from single-threaded simulation state, so the pool may
//!   only move wall clock, never a stat.
//! * Run-manifest simulated fields (sim time, ops, events, queue depth)
//!   must likewise be thread-count-invariant.
//! * A trace written by a real simulation run must parse against the
//!   Chrome trace-event schema.
//!
//! Pools and trace sinks are configured through their APIs, never the
//! process environment (parallel tests race on env vars).

use ndpx_bench::gauge::{cell_key, gauge_specs};
use ndpx_bench::manifest::{registry_dump_json, RunManifest};
use ndpx_bench::pool::{expect_ok, CellPool, CellTask};
use ndpx_bench::runner::{run_ndp_cached, BenchScale, RunSpec};
use ndpx_bench::{CellResult, TraceCache};
use ndpx_core::stats::RunReport;
use ndpx_core::system::NdpSystem;
use ndpx_sim::telemetry::{validate_chrome_trace, TraceConfig};
use ndpx_workloads::trace::ScaleParams;

/// A reduced matrix — every policy once, both memory families — keeps the
/// debug-build runtime in seconds while still exercising each registry
/// shape.
fn small_matrix() -> Vec<RunSpec> {
    gauge_specs(BenchScale::Test, 500).into_iter().step_by(3).collect()
}

fn run_matrix(pool: CellPool, specs: &[RunSpec]) -> Vec<CellResult<RunReport>> {
    let cache = TraceCache::new();
    let cache = &cache;
    let tasks: Vec<CellTask<'_, RunReport>> = specs
        .iter()
        .map(|spec| Box::new(move || run_ndp_cached(spec, cache)) as CellTask<'_, RunReport>)
        .collect();
    expect_ok(pool.run_cells(None, tasks))
}

#[test]
fn registry_dump_is_byte_identical_across_thread_counts() {
    let specs = small_matrix();
    let names: Vec<String> = specs.iter().map(cell_key).collect();
    let serial = run_matrix(CellPool::with_threads(1), &specs);
    let pooled = run_matrix(CellPool::with_threads(4), &specs);

    let serial_reports: Vec<&RunReport> = serial.iter().map(|r| &r.value).collect();
    let pooled_reports: Vec<&RunReport> = pooled.iter().map(|r| &r.value).collect();
    let dump1 = registry_dump_json("telemetry_test", &names, &serial_reports);
    let dump4 = registry_dump_json("telemetry_test", &names, &pooled_reports);
    assert!(!dump1.is_empty() && dump1.contains("ndpx-registry-dump-v1"));
    assert_eq!(dump1, dump4, "registry dumps must not depend on pool width");

    // Per-cell registry JSON is also individually deterministic.
    for (name, (a, b)) in names.iter().zip(serial_reports.iter().zip(&pooled_reports)) {
        assert_eq!(a.registry.to_json(), b.registry.to_json(), "{name}");
        assert!(!a.registry.is_empty(), "{name}: registry must have stats");
    }
}

#[test]
fn manifest_simulated_fields_are_thread_count_invariant() {
    let specs = small_matrix();
    let names: Vec<String> = specs.iter().map(cell_key).collect();
    let serial = run_matrix(CellPool::with_threads(1), &specs);
    let pooled = run_matrix(CellPool::with_threads(4), &specs);
    let m1 = RunManifest::collect("t", 1, &names, &serial, None);
    let m4 = RunManifest::collect("t", 4, &names, &pooled, None);
    for (a, b) in m1.cells.iter().zip(&m4.cells) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.sim_us, b.sim_us, "{}: simulated time moved", a.name);
        assert_eq!(a.ops, b.ops, "{}", a.name);
        assert_eq!(a.engine_events, b.engine_events, "{}", a.name);
        assert_eq!(a.peak_queue_depth, b.peak_queue_depth, "{}", a.name);
        assert!(a.engine_events >= a.ops, "{}: every op is an engine event", a.name);
        assert!(a.peak_queue_depth > 0, "{}", a.name);
    }
    assert_eq!(m1.events_total(), m4.events_total());
    assert_eq!(m1.peak_queue_depth(), m4.peak_queue_depth());
}

#[test]
fn emitted_trace_is_valid_chrome_trace_json() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ndpx_trace_test");
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let requested = dir.join("trace.json");

    let cfg = ndpx_core::SystemConfig::test(ndpx_core::config::PolicyKind::NdpExt);
    let params = ScaleParams { cores: cfg.units(), footprint: 4 << 20, seed: 7 };
    let wl = ndpx_workloads::build("pr", &params).unwrap().unwrap();
    let mut sys = NdpSystem::new(cfg, wl).unwrap();
    sys.set_trace(Some(TraceConfig::to_path(&requested)));
    let report = sys.run(2000);
    assert!(report.ops > 0);

    // The sink sequences its output path for parallel-cell uniqueness, so
    // scan the directory instead of assuming the requested name.
    let written: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("read trace dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("trace")))
        .collect();
    assert!(!written.is_empty(), "simulation with tracing enabled must write a trace file");
    let json = std::fs::read_to_string(&written[0]).expect("read trace");
    let events = validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("trace must satisfy the Chrome trace-event schema: {e}"));
    assert!(events > 1, "trace should contain real events, got {events}");
    for p in written {
        let _ = std::fs::remove_file(p);
    }
}
