//! The run document: one `<run>.cells.json` per monitored run.
//!
//! When `NDPX_METRICS=<dir>` is set, every monitored bench run writes one
//! `ndpx-run-v1` document into `<dir>`, with its keys in this order:
//!
//! * `schema`, `run`;
//! * `cells`: every cell that succeeded, in submission order, mapped to its
//!   hierarchical stat registry
//!   ([`StatRegistry::write_stats_object`](ndpx_sim::telemetry::StatRegistry::write_stats_object));
//! * `failed`: every cell that panicked, mapped to its panic message;
//! * `threads` and `trace_cache` (`hits`, `misses`, `saved_seconds`);
//! * `wall`: every submitted cell mapped to `{worker, wall_ms}`.
//!
//! Everything from `schema` through `failed` is a pure function of the
//! simulation, so it is byte-identical at any `NDPX_THREADS`; the rest is
//! scheduling and wall clock. A cell's op count is `engine.batch.ops`, its
//! simulated time `engine.sim_ps` and its event-queue high-water mark
//! `engine.queue.peak_depth`.
//!
//! A [`crate::runner::Session`] run lists only the cells it simulated, so
//! each cell appears once, under the first figure of the session that ran
//! it; its trace-cache totals are the session's so far.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ndpx_core::stats::RunReport;
use ndpx_sim::telemetry::registry::write_json_string;
use ndpx_workloads::TraceCacheStats;

use crate::pool::CellResult;

/// Writes `"key": {` and one `"name": value` member per item, indented for
/// a top-level section of the run document, then the closing brace.
fn write_section<'a, T>(
    s: &mut String,
    key: &str,
    items: impl Iterator<Item = (&'a String, T)>,
    mut value: impl FnMut(&mut String, T),
) {
    let _ = write!(s, "  \"{key}\": {{");
    let mut empty = true;
    for (name, item) in items {
        s.push_str(if empty { "\n    " } else { ",\n    " });
        write_json_string(s, name);
        s.push_str(": ");
        value(s, item);
        empty = false;
    }
    s.push_str(if empty { "}" } else { "\n  }" });
}

/// Renders the run document (`ndpx-run-v1`, see the module docs) of one
/// finished run. `names` parallels `results`, both in submission order.
///
/// # Panics
///
/// Panics if `names` and `results` disagree in length.
pub fn render(
    run: &str,
    threads: usize,
    names: &[String],
    results: &[CellResult<Result<RunReport, String>>],
    trace_cache: TraceCacheStats,
) -> String {
    assert_eq!(names.len(), results.len(), "one name per cell");
    let cells = || names.iter().zip(results);
    let mut s = String::from("{\n  \"schema\": \"ndpx-run-v1\",\n  \"run\": ");
    write_json_string(&mut s, run);
    s.push_str(",\n");
    let ok = cells().filter_map(|(name, r)| Some((name, r.value.as_ref().ok()?)));
    write_section(&mut s, "cells", ok, |s, report| report.registry.write_stats_object(s, 4));
    s.push_str(",\n");
    let failed = cells().filter_map(|(name, r)| Some((name, r.value.as_ref().err()?)));
    write_section(&mut s, "failed", failed, |s, message| write_json_string(s, message));
    let _ = writeln!(s, ",\n  \"threads\": {threads},");
    let _ = writeln!(
        s,
        "  \"trace_cache\": {{\"hits\": {}, \"misses\": {}, \"saved_seconds\": {:.3}}},",
        trace_cache.hits,
        trace_cache.misses,
        trace_cache.saved().as_secs_f64()
    );
    write_section(&mut s, "wall", cells(), |s, r| {
        let _ = write!(s, "{{\"worker\": {}, \"wall_ms\": {:.1}}}", r.worker, r.wall_s * 1e3);
    });
    s.push_str("\n}\n");
    s
}

/// The run-document directory: `NDPX_METRICS` when set and non-empty.
pub fn metrics_dir() -> Option<PathBuf> {
    crate::knobs::METRICS.path().map(PathBuf::from)
}

/// A run label safe to embed in a file name: every byte outside
/// `[A-Za-z0-9._-]` becomes `-`.
pub fn sanitize(run: &str) -> String {
    run.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect()
}

/// The one-call hook every monitored run uses: when `dir` is set (usually
/// [`metrics_dir`]), writes the run document to `<dir>/<run>.cells.json`,
/// creating `dir` if needed, and is written before a failed cell escalates,
/// so partial results survive a lost cell. Logs the destination at info
/// level, failed cells and any filesystem error at warn level: the
/// document is observability, never part of the result. A no-op (no
/// allocation, no I/O) when `dir` is `None`.
///
/// # Panics
///
/// Panics if `names` and `results` disagree in length.
pub fn emit(
    dir: Option<&Path>,
    run: &str,
    threads: usize,
    names: &[String],
    results: &[CellResult<Result<RunReport, String>>],
    trace_cache: TraceCacheStats,
) {
    assert_eq!(names.len(), results.len(), "one name per cell");
    let Some(dir) = dir else { return };
    let path = dir.join(format!("{}.cells.json", sanitize(run)));
    let doc = render(run, threads, names, results, trace_cache);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => ndpx_sim::ndpx_info!("{run}: wrote {}", path.display()),
        Err(e) => ndpx_sim::ndpx_warn!("{run}: cannot write {}: {e}", path.display()),
    }
    let failed = results.iter().filter(|r| r.value.is_err()).count();
    if failed > 0 {
        ndpx_sim::ndpx_warn!(
            "{run}: {failed} of {} cells failed; listed under \"failed\" in {}",
            results.len(),
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpx_core::config::PolicyKind;
    use ndpx_sim::telemetry::Json;
    use ndpx_sim::time::Time;

    fn ok(ops: u64, worker: usize) -> CellResult<Result<RunReport, String>> {
        let mut report = RunReport {
            policy: PolicyKind::NdpExt,
            workload: "test".into(),
            sim_time: Time::from_ns(ops),
            ops,
            mem_ops: 0,
            l1_hits: 0,
            cache_hits: 0,
            cache_misses: 0,
            local_hits: 0,
            bypass: 0,
            slb_misses: 0,
            metadata_dram: 0,
            breakdown: Default::default(),
            energy: Default::default(),
            reconfigs: 0,
            invalidations: 0,
            migrations: 0,
            replicated_fraction: 0.0,
            access_latency: Default::default(),
            registry: Default::default(),
        };
        report.registry.scope("engine").scope("batch").count("ops", ops);
        CellResult { value: Ok(report), worker, wall_s: 0.5 }
    }

    fn failed(message: &str) -> CellResult<Result<RunReport, String>> {
        CellResult { value: Err(message.to_string()), worker: 1, wall_s: 0.1 }
    }

    fn keys(doc: &Json, section: &str) -> Vec<String> {
        let fields = doc.get(section).and_then(Json::as_object).expect("section object");
        fields.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn document_keys_follow_the_schema_order() {
        let names = vec!["a \"quoted\" cell".to_string()];
        let stats =
            TraceCacheStats { hits: 3, misses: 2, saved_nanos: 2_000_000, ..Default::default() };
        let text = render("fig\\run", 4, &names, &[ok(200, 1)], stats);
        let doc = Json::parse(&text).expect("the document is JSON");
        let top: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(top, ["schema", "run", "cells", "failed", "threads", "trace_cache", "wall"]);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some("ndpx-run-v1"));
        assert_eq!(doc.get("run").and_then(Json::as_str), Some("fig\\run"), "names are escaped");
        assert_eq!(keys(&doc, "cells"), names);
        assert_eq!(doc.get("threads").and_then(Json::as_f64), Some(4.0));
        let cache = doc.get("trace_cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_f64), Some(3.0));
        assert_eq!(cache.get("misses").and_then(Json::as_f64), Some(2.0));
        assert_eq!(cache.get("saved_seconds").and_then(Json::as_f64), Some(0.002));
        let wall = doc.get("wall").and_then(|w| w.get(&names[0])).expect("wall entry");
        assert_eq!(wall.get("worker").and_then(Json::as_f64), Some(1.0));
        assert_eq!(wall.get("wall_ms").and_then(Json::as_f64), Some(500.0));
    }

    #[test]
    fn registry_dump_nests_cells_in_order() {
        let names = vec!["y".to_string(), "x".to_string()];
        let text = render("fig", 1, &names, &[ok(600, 0), ok(200, 0)], TraceCacheStats::default());
        let doc = Json::parse(&text).expect("the document is JSON");
        assert_eq!(keys(&doc, "cells"), names, "cells render in submission order");
        let ops = |cell: &str| {
            doc.get("cells").and_then(|c| c.get(cell)).and_then(|r| r.get("engine.batch.ops"))
        };
        assert_eq!(ops("y").and_then(Json::as_f64), Some(600.0));
        assert_eq!(ops("x").and_then(Json::as_f64), Some(200.0));
        assert!(text.contains("\"failed\": {},"), "an empty section stays one line");
    }

    #[test]
    fn failure_manifest_lists_failed_cells_only() {
        let names = vec!["hbm/NdpExt/pr".to_string(), "hbm/NdpExt/mv".to_string()];
        let results = [ok(200, 0), failed("tag \"x\" died\nhere")];
        let doc = Json::parse(&render("fig", 2, &names, &results, TraceCacheStats::default()))
            .expect("an escaped panic message keeps the document JSON");
        assert_eq!(keys(&doc, "cells"), ["hbm/NdpExt/pr"], "failed cells carry no stats");
        assert_eq!(keys(&doc, "failed"), ["hbm/NdpExt/mv"], "successful cells stay out");
        let message = doc.get("failed").and_then(|f| f.get("hbm/NdpExt/mv"));
        assert_eq!(message.and_then(Json::as_str), Some("tag \"x\" died\nhere"));
        assert_eq!(keys(&doc, "wall"), names, "every submitted cell has a wall clock");
    }

    #[test]
    fn sanitize_keeps_safe_chars_only() {
        assert_eq!(sanitize("fig05_overall"), "fig05_overall");
        assert_eq!(sanitize("ablation/no-replication"), "ablation-no-replication");
        assert_eq!(sanitize("a b\"c"), "a-b-c");
    }
}
