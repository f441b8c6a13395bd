//! Determinism and validity gates for the telemetry layer.
//!
//! * The `cells` object of a run document (`ndpx_bench::manifest`) must be
//!   identical at any `NDPX_THREADS` width: stats are built from
//!   single-threaded simulation state, so the pool may only move wall
//!   clock, never a stat.
//! * Every cell's `engine.sim_ps` is its report's simulated time, on the
//!   NDP system and on the host, and its memory ops are conserved: every
//!   one is counted once in `core.mem_ops` and once in
//!   `core.access_latency`, and the L1 hits are the run loop's fast hits.
//! * A panicking cell is listed under `failed`, its message escaped, and
//!   its sibling keeps its stats under `cells`.
//! * A trace written by a real simulation run must parse against the
//!   Chrome trace-event schema.
//!
//! Pools and trace sinks are configured through their APIs and the cell
//! configuration, never the process environment (parallel tests race on
//! env vars).

use ndpx_bench::gauge::{cell_key, gauge_specs};
use ndpx_bench::manifest::{emit, render};
use ndpx_bench::pool::{CellPool, CellTask};
use ndpx_bench::runner::{run_host_cached, run_ndp_cached, BenchScale, RunSpec};
use ndpx_bench::{CellResult, TraceCache};
use ndpx_core::stats::RunReport;
use ndpx_core::system::NdpSystem;
use ndpx_core::SystemConfig;
use ndpx_sim::telemetry::{validate_chrome_trace, Json, StatValue, TraceConfig};
use ndpx_workloads::trace::ScaleParams;
use ndpx_workloads::TraceCacheStats;

/// Past the workloads' raw-op period (one raw op every 2048 ops per core),
/// so every cell also serves raw misses.
const OPS: u64 = 2_100;

type Outcomes = Vec<CellResult<Result<RunReport, String>>>;

/// A reduced matrix (every policy once, both memory families) plus one
/// host cell: debug-build runtime stays in seconds while every registry
/// shape is exercised.
fn run_matrix(pool: CellPool) -> (Vec<String>, Outcomes) {
    let specs: Vec<RunSpec> = gauge_specs(BenchScale::Test, OPS).into_iter().step_by(3).collect();
    let cache = TraceCache::new();
    let cache = &cache;
    let mut names: Vec<String> = specs.iter().map(cell_key).collect();
    let mut tasks: Vec<CellTask<'_, RunReport>> = specs
        .iter()
        .map(|spec| Box::new(move || run_ndp_cached(spec, cache)) as CellTask<'_, RunReport>)
        .collect();
    names.push("host/pr".to_string());
    tasks.push(Box::new(move || run_host_cached("pr", BenchScale::Test, OPS, None, cache)));
    (names, pool.run_cells(None, tasks))
}

fn cells(document: &str) -> Json {
    let doc = Json::parse(document).expect("the run document is JSON");
    doc.get("cells").cloned().expect("cells object")
}

fn count(stats: &Json, path: &str) -> u64 {
    stats.get(path).and_then(Json::as_f64).unwrap_or_else(|| panic!("{path} missing")) as u64
}

/// A count leaf of the report's registry, or a histogram leaf's sample
/// count.
fn registry_count(report: &RunReport, path: &str) -> u64 {
    match report.registry.get(path) {
        Some(StatValue::Count(n) | StatValue::Hist { count: n, .. }) => *n,
        other => panic!("{path} is not a count: {other:?}"),
    }
}

#[test]
fn registry_dump_is_byte_identical_across_thread_counts() {
    let (names, serial) = run_matrix(CellPool::with_threads(1));
    let (_, pooled) = run_matrix(CellPool::with_threads(4));
    let doc1 = render("telemetry_test", 1, &names, &serial, TraceCacheStats::default());
    let doc4 = render("telemetry_test", 4, &names, &pooled, TraceCacheStats::default());
    assert_eq!(cells(&doc1), cells(&doc4), "cell stats must not depend on pool width");
    assert_eq!(cells(&doc1).as_object().map(<[_]>::len), Some(names.len()));
    // Everything before `threads` is the simulated part, byte for byte.
    let simulated =
        |doc: &str| doc[..doc.find("\n  \"threads\"").expect("threads key")].to_string();
    assert_eq!(simulated(&doc1), simulated(&doc4));
    for (name, r) in names.iter().zip(&serial) {
        let report = r.value.as_ref().expect("no cell fails");
        assert!(!report.registry.is_empty(), "{name}: registry must have stats");
    }
}

#[test]
fn manifest_simulated_fields_are_thread_count_invariant() {
    for threads in [1, 4] {
        let (names, results) = run_matrix(CellPool::with_threads(threads));
        let doc = cells(&render("t", threads, &names, &results, TraceCacheStats::default()));
        for (name, r) in names.iter().zip(&results) {
            let report = r.value.as_ref().expect("no cell fails");
            let stats = doc.get(name).unwrap_or_else(|| panic!("{name} listed"));
            let case = format!("{name} at {threads} threads");
            assert_eq!(count(stats, "engine.sim_ps"), report.sim_time.as_ps(), "{case}");
            assert_eq!(count(stats, "engine.batch.ops"), report.ops, "{case}");
            assert!(count(stats, "engine.queue.peak_depth") > 0, "{case}");
            let mem_ops = registry_count(report, "core.mem_ops");
            let l1_hits = registry_count(report, "core.l1_hits");
            assert_eq!(registry_count(report, "core.access_latency"), mem_ops, "{case}");
            assert_eq!(registry_count(report, "engine.batch.fast_hits"), l1_hits, "{case}");
            assert!(l1_hits <= mem_ops, "{case}: {l1_hits} hits of {mem_ops} memory ops");
            if !name.starts_with("host/") {
                assert!(registry_count(report, "core.bypass") > 0, "{case}: no raw miss");
            }
        }
        assert!(names.iter().any(|n| n.starts_with("host/")), "the host cell carries sim_ps");
    }
}

#[test]
fn failed_cell_is_listed_and_its_sibling_keeps_stats() {
    let spec = RunSpec {
        ops_per_core: OPS,
        ..RunSpec::new(
            ndpx_core::config::MemKind::Hbm,
            ndpx_core::config::PolicyKind::NdpExt,
            "pr",
            BenchScale::Test,
        )
    };
    let message = "cell \"b\" died\nhere";
    let names = vec![cell_key(&spec), "smoke/\"panic\"".to_string()];
    let cache = TraceCache::new();
    let tasks: Vec<CellTask<'_, RunReport>> = vec![
        Box::new(|| run_ndp_cached(&spec, &cache)),
        Box::new(move || -> RunReport { panic!("{message}") }),
    ];
    let results = CellPool::with_threads(2).run_cells(None, tasks);

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("run_document_failed");
    let _ = std::fs::remove_dir_all(&dir);
    emit(Some(&dir), "with/failure", 2, &names, &results, cache.stats());
    let written: Vec<String> = std::fs::read_dir(&dir)
        .expect("emit creates the directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(written, ["with-failure.cells.json"], "one document per run");
    let text = std::fs::read_to_string(dir.join(&written[0])).expect("read the document");
    let doc = Json::parse(&text).expect("an escaped panic message keeps the document JSON");
    let failed = doc.get("failed").and_then(Json::as_object).expect("failed object");
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].0, names[1]);
    assert_eq!(failed[0].1.as_str(), Some(message));
    let cells = doc.get("cells").and_then(Json::as_object).expect("cells object");
    assert_eq!(cells.len(), 1, "the failed cell carries no stats");
    let report = results[0].value.as_ref().expect("the sibling survives");
    assert_eq!(cells[0].0, names[0]);
    assert_eq!(count(&cells[0].1, "engine.sim_ps"), report.sim_time.as_ps());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn emitted_trace_is_valid_chrome_trace_json() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ndpx_trace_test");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create trace dir");
    let requested = dir.join("trace.json");

    let mut cfg = SystemConfig::test(ndpx_core::config::PolicyKind::NdpExt);
    cfg.telemetry.trace = Some(TraceConfig::to_path(&requested));
    let params = ScaleParams { cores: cfg.units(), footprint: 4 << 20, seed: 7 };
    let wl = ndpx_workloads::build("pr", &params).unwrap().unwrap();
    let report = NdpSystem::new(cfg, wl).unwrap().run(2000);
    assert!(report.ops > 0);

    // The sink splices the cell's label into the requested name, as a
    // timeline does, so the file can be matched to its cell.
    let written: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("read trace dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.file_name().is_some_and(|n| n.to_string_lossy().starts_with("trace")))
        .collect();
    assert_eq!(written, [dir.join("trace.Hbm-NdpExt-pr.json")], "one trace, named by its cell");
    let json = std::fs::read_to_string(&written[0]).expect("read trace");
    let events = validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("trace must satisfy the Chrome trace-event schema: {e}"));
    assert!(events > 1, "trace should contain real events, got {events}");
    for p in written {
        let _ = std::fs::remove_file(p);
    }
}
