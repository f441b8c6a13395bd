//! Determinism gates for the windowed timeline sampler (PR 8 tentpole).
//!
//! Timelines snapshot simulated state at simulated-time boundaries, so
//! their bytes are a pure function of the run: identical at any pool width
//! and under seeded fault injection.
//!
//! Timelines and the profiler are set in each cell's configuration, never
//! the environment: parallel tests race on env vars.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use ndpx_bench::gauge::gauge_specs;
use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{BenchScale, Cell, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::config::TelemetryConfig;
use ndpx_core::stats::RunReport;
use ndpx_sim::fault::FaultConfig;
use ndpx_sim::telemetry::TimelineConfig;
use ndpx_sim::Time;

/// Every policy once, both memory families (12 of the 36 cells) — the same
/// reduced matrix the telemetry gates use.
fn small_matrix() -> Vec<RunSpec> {
    gauge_specs(BenchScale::Test, 500).into_iter().step_by(3).collect()
}

/// Runs the matrix on a fresh session of `threads`, each cell writing its
/// timeline under `dir` and attributing phases, and returns the reports.
fn run_with_timelines(
    threads: usize,
    dir: &Path,
    specs: &[RunSpec],
    fault: bool,
) -> Vec<RunReport> {
    std::fs::create_dir_all(dir).expect("create timeline dir");
    let mut tl = TimelineConfig::to_path(dir.join("timeline.json"));
    tl.window = Time::from_ns(2_000);
    let cells = specs.iter().map(|spec| {
        let tl = tl.clone();
        let spec = spec.clone().with_tweak(move |cfg| {
            if fault {
                let mut f = FaultConfig::with_seed(42);
                f.cxl_ber = 1e-7;
                f.mem_ce = 1e-2;
                f.mem_ue = 1e-5;
                f.noc_fer = 1e-5;
                cfg.fault = f;
            }
            cfg.telemetry =
                TelemetryConfig { timeline: Some(tl.clone()), profile: true, ..Default::default() };
        });
        Cell::ndp("", spec)
    });
    let pool = CellPool::with_threads(threads);
    Session::new(BenchScale::Test, pool, TraceCache::new())
        .run("timelines", cells)
        .expect("valid cells")
        .into_iter()
        .map(|r| r.value)
        .collect()
}

/// All timeline files under `dir`, keyed by file name.
fn timeline_files(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .expect("read timeline dir")
        .filter_map(|e| {
            let path: PathBuf = e.ok()?.path();
            let name = path.file_name()?.to_string_lossy().to_string();
            let body = std::fs::read_to_string(&path).ok()?;
            Some((name, body))
        })
        .collect()
}

fn assert_dirs_identical(d1: &Path, d4: &Path, specs: usize, what: &str) {
    let (f1, f4) = (timeline_files(d1), timeline_files(d4));
    assert_eq!(f1.len(), specs, "{what}: one timeline file per cell");
    assert_eq!(
        f1.keys().collect::<Vec<_>>(),
        f4.keys().collect::<Vec<_>>(),
        "{what}: cell labels must not depend on pool width"
    );
    for (name, body1) in &f1 {
        let body4 = &f4[name];
        assert_eq!(body1, body4, "{what}: {name} must be byte-identical at 1 and 4 threads");
        assert!(body1.contains("ndpx-timeline-v1"), "{name}: schema tag");
        assert!(body1.contains("engine.queue.depth"), "{name}: queue-depth series");
        assert!(body1.contains("slo.epochs"), "{name}: SLO series");
    }
}

#[test]
fn timelines_are_byte_identical_across_thread_counts() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tl_threads");
    let (d1, d4) = (base.join("t1"), base.join("t4"));
    let specs = small_matrix();
    let r1 = run_with_timelines(1, &d1, &specs, false);
    let r4 = run_with_timelines(4, &d4, &specs, false);
    assert_dirs_identical(&d1, &d4, specs.len(), "fault-off");
    // The profiler's registry view (sim time only, by contract) is equally
    // thread-invariant; wall time stays out of the registry.
    for (a, b) in r1.iter().zip(&r4) {
        assert_eq!(a.registry.to_json(), b.registry.to_json());
        assert!(a.registry.get("profile.run").is_some(), "profiler scope present");
        assert!(a.registry.get("slo.epochs").is_some(), "SLO scope present");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn seeded_fault_timelines_are_thread_invariant() {
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tl_fault");
    let (d1, d4) = (base.join("t1"), base.join("t4"));
    let specs = small_matrix();
    let _ = run_with_timelines(1, &d1, &specs, true);
    let _ = run_with_timelines(4, &d4, &specs, true);
    assert_dirs_identical(&d1, &d4, specs.len(), "fault-on");
    // Injection actually fired somewhere — otherwise invariance is vacuous.
    let any_faults = timeline_files(&d1).values().any(|body| body.contains("\"fault."));
    assert!(any_faults, "seeded runs must surface fault counters in some window");
    let _ = std::fs::remove_dir_all(&base);
}
