//! Per-run telemetry sidecars: a `metrics.json` manifest and a hierarchical
//! registry dump.
//!
//! When `NDPX_METRICS=<dir>` is set, every monitored bench run writes two
//! deterministic-by-construction documents into `<dir>`:
//!
//! * `<run>.metrics.json` — one record per cell in canonical submission
//!   order: wall clock, worker id, simulated time, ops, events processed,
//!   events per wall-second, and the event-queue high-water mark, plus the
//!   shared trace-cache hit/miss totals.
//! * `<run>.registry.json` — the full hierarchical stat registry of every
//!   cell, nested under its cell key.
//!
//! A [`crate::runner::Session`] run lists only the cells it simulated, so
//! each cell appears once, under the first figure of the session that ran
//! it; its trace-cache totals are the session's so far.
//!
//! Simulated fields (sim time, ops, events, queue depth, registries) are
//! byte-identical at any `NDPX_THREADS`; only wall-clock, worker, and the
//! derived events-per-second rates vary run to run.

use std::borrow::Borrow;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use ndpx_core::stats::RunReport;
use ndpx_workloads::TraceCacheStats;

use crate::pool::CellResult;

/// The telemetry of one finished cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMetrics {
    /// Cell key (`mem/policy/workload` or `host/workload`).
    pub name: String,
    /// Worker thread that executed the cell.
    pub worker: usize,
    /// Wall-clock seconds on that worker.
    pub wall_s: f64,
    /// Simulated makespan, microseconds.
    pub sim_us: f64,
    /// Operations executed.
    pub ops: u64,
    /// Events processed by the cell's event queue.
    pub engine_events: u64,
    /// Event-queue high-water mark.
    pub peak_queue_depth: u64,
}

impl CellMetrics {
    /// Extracts the metrics of one pooled cell result. Engine events are
    /// completed ops: one queue event can carry a whole run-ahead batch.
    pub fn from_result(name: impl Into<String>, r: &CellResult<impl Borrow<RunReport>>) -> Self {
        let report = r.value.borrow();
        CellMetrics {
            name: name.into(),
            worker: r.worker,
            wall_s: r.wall_s,
            sim_us: report.sim_time.as_us_f64(),
            ops: report.ops,
            engine_events: report.ops,
            peak_queue_depth: report.peak_queue_depth,
        }
    }

    /// Events processed per wall-clock second (0 when the clock is zero).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.engine_events as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// The manifest of one bench run: every cell's metrics plus pool and
/// trace-cache totals.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Run label (usually the binary name).
    pub run: String,
    /// Pool width the run used.
    pub threads: usize,
    /// Per-cell metrics in canonical submission order.
    pub cells: Vec<CellMetrics>,
    /// Shared trace-cache totals, when a cache was in play.
    pub trace_cache: Option<TraceCacheStats>,
}

impl RunManifest {
    /// Builds a manifest from pooled results. `names` must parallel
    /// `results` (both in submission order).
    ///
    /// # Panics
    ///
    /// Panics if `names` and `results` disagree in length.
    pub fn collect(
        run: impl Into<String>,
        threads: usize,
        names: &[String],
        results: &[CellResult<impl Borrow<RunReport>>],
        trace_cache: Option<TraceCacheStats>,
    ) -> Self {
        assert_eq!(names.len(), results.len(), "one name per cell");
        let cells = names
            .iter()
            .zip(results)
            .map(|(name, r)| CellMetrics::from_result(name.clone(), r))
            .collect();
        RunManifest { run: run.into(), threads, cells, trace_cache }
    }

    /// Total wall-clock seconds summed over cells.
    pub fn wall_total_s(&self) -> f64 {
        self.cells.iter().map(|c| c.wall_s).sum()
    }

    /// Total events processed over all cells.
    pub fn events_total(&self) -> u64 {
        self.cells.iter().map(|c| c.engine_events).sum()
    }

    /// Largest event-queue high-water mark over all cells.
    pub fn peak_queue_depth(&self) -> u64 {
        self.cells.iter().map(|c| c.peak_queue_depth).max().unwrap_or(0)
    }

    /// Aggregate events per wall-second over the whole run.
    pub fn events_per_sec(&self) -> f64 {
        let wall = self.wall_total_s();
        if wall > 0.0 {
            self.events_total() as f64 / wall
        } else {
            0.0
        }
    }

    /// Renders the manifest (`ndpx-run-manifest-v1`). Hand-rolled like every
    /// other report in the workspace: no JSON dependency.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"ndpx-run-manifest-v1\",");
        let _ = writeln!(s, "  \"run\": \"{}\",", self.run);
        let _ = writeln!(s, "  \"threads\": {},", self.threads);
        let _ = writeln!(s, "  \"wall_seconds_total\": {:.3},", self.wall_total_s());
        let _ = writeln!(s, "  \"events_total\": {},", self.events_total());
        let _ = writeln!(s, "  \"events_per_sec\": {:.1},", self.events_per_sec());
        let _ = writeln!(s, "  \"peak_queue_depth\": {},", self.peak_queue_depth());
        if let Some(tc) = &self.trace_cache {
            let _ = writeln!(
                s,
                "  \"trace_cache\": {{\"hits\": {}, \"misses\": {}, \"saved_seconds\": {:.3}}},",
                tc.hits,
                tc.misses,
                tc.saved().as_secs_f64()
            );
        }
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"cell\": \"{}\", \"worker\": {}, \"wall_ms\": {:.1}, \"sim_us\": {:.3}, \
                 \"ops\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \"peak_queue_depth\": {}}}{comma}",
                c.name,
                c.worker,
                c.wall_s * 1e3,
                c.sim_us,
                c.ops,
                c.engine_events,
                c.events_per_sec(),
                c.peak_queue_depth
            );
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Renders the registry dump (`ndpx-registry-dump-v1`): every cell's
/// hierarchical stat registry nested under its key, in submission order.
/// A pure function of simulated state, so byte-identical at any thread
/// count.
///
/// # Panics
///
/// Panics if `names` and `reports` disagree in length.
pub fn registry_dump_json(run: &str, names: &[String], reports: &[&RunReport]) -> String {
    assert_eq!(names.len(), reports.len(), "one name per cell");
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"ndpx-registry-dump-v1\",");
    let _ = writeln!(s, "  \"run\": \"{run}\",");
    s.push_str("  \"cells\": {");
    for (i, (name, report)) in names.iter().zip(reports).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n    \"{name}\": ");
        report.registry.write_stats_object(&mut s, 4);
    }
    if !names.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("}\n}\n");
    s
}

/// One failed cell, for the failure manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Cell key (`mem/policy/workload` or `host/workload`).
    pub name: String,
    /// Worker thread the cell ran on.
    pub worker: usize,
    /// The panic payload.
    pub message: String,
}

/// Extracts the failed cells from a completed matrix. `names` must parallel
/// `results` (both in submission order).
pub fn collect_failures<T>(
    names: &[String],
    results: &[CellResult<Result<T, String>>],
) -> Vec<CellFailure> {
    names
        .iter()
        .zip(results)
        .filter_map(|(name, r)| {
            let message = r.value.as_ref().err()?;
            Some(CellFailure { name: name.clone(), worker: r.worker, message: message.clone() })
        })
        .collect()
}

/// Renders the failure manifest (`ndpx-failure-manifest-v2`): every cell
/// that panicked, in submission order, with the total cell count for
/// context.
pub fn failure_manifest_json(run: &str, total_cells: usize, failures: &[CellFailure]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"ndpx-failure-manifest-v2\",");
    let _ = writeln!(s, "  \"run\": \"{run}\",");
    let _ = writeln!(s, "  \"cells_total\": {total_cells},");
    let _ = writeln!(s, "  \"cells_failed\": {},", failures.len());
    s.push_str("  \"failures\": [\n");
    for (i, f) in failures.iter().enumerate() {
        let comma = if i + 1 < failures.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"cell\": \"{}\", \"worker\": {}, \"message\": \"{}\"}}{comma}",
            f.name,
            f.worker,
            escape(&f.message)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Escapes a message for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The sidecar output directory: `NDPX_METRICS` when set and non-empty.
pub fn metrics_dir() -> Option<PathBuf> {
    ndpx_sim::knobs::METRICS.path().map(PathBuf::from)
}

/// A run label safe to embed in a file name: every byte outside
/// `[A-Za-z0-9._-]` becomes `-`.
pub fn sanitize(run: &str) -> String {
    run.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect()
}

/// Writes `<run>.metrics.json` and `<run>.registry.json` into `dir`,
/// creating it if needed. Returns the manifest path.
///
/// # Errors
///
/// Propagates filesystem errors (callers downgrade them to warnings: the
/// sidecars are observability, never part of the result).
pub fn write_sidecars(
    dir: &Path,
    manifest: &RunManifest,
    names: &[String],
    reports: &[&RunReport],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let base = sanitize(&manifest.run);
    let metrics_path = dir.join(format!("{base}.metrics.json"));
    std::fs::write(&metrics_path, manifest.to_json())?;
    let dump = registry_dump_json(&manifest.run, names, reports);
    std::fs::write(dir.join(format!("{base}.registry.json")), dump)?;
    Ok(metrics_path)
}

/// The one-call sidecar hook every monitored run uses: when `dir` is set
/// (usually [`metrics_dir`]), writes the metrics and registry sidecars over
/// the cells that succeeded (so partial results survive a lost cell) and,
/// when any cell failed, a `<run>.failures.json` failure manifest alongside
/// them. Logs each destination at info level and any filesystem failure at
/// warn level. A no-op (no allocation, no I/O) when `dir` is `None`.
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
    trace_cache: Option<TraceCacheStats>,
) {
    assert_eq!(names.len(), results.len(), "one name per cell");
    let Some(dir) = dir else { return };
    let (ok_names, ok): (Vec<String>, Vec<CellResult<&RunReport>>) = names
        .iter()
        .zip(results)
        .filter_map(|(name, r)| {
            let value = r.value.as_ref().ok()?;
            Some((name.clone(), CellResult { value, worker: r.worker, wall_s: r.wall_s }))
        })
        .unzip();
    let manifest = RunManifest::collect(run, threads, &ok_names, &ok, trace_cache);
    let reports: Vec<&RunReport> = ok.iter().map(|r| r.value).collect();
    match write_sidecars(dir, &manifest, &ok_names, &reports) {
        Ok(path) => ndpx_sim::ndpx_info!("{run}: wrote {}", path.display()),
        Err(e) => ndpx_sim::ndpx_warn!("{run}: cannot write metrics under {}: {e}", dir.display()),
    }
    let failures = collect_failures(names, results);
    if !failures.is_empty() {
        let path = dir.join(format!("{}.failures.json", sanitize(run)));
        let doc = failure_manifest_json(run, results.len(), &failures);
        match std::fs::write(&path, doc) {
            Ok(()) => ndpx_sim::ndpx_warn!(
                "{run}: {} of {} cells failed; manifest at {}",
                failures.len(),
                results.len(),
                path.display()
            ),
            Err(e) => {
                ndpx_sim::ndpx_warn!(
                    "{run}: cannot write failure manifest at {}: {e}",
                    path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpx_core::config::PolicyKind;
    use ndpx_sim::time::Time;

    fn result(sim_us: u64, events: u64, peak: u64, wall_s: f64) -> CellResult<RunReport> {
        let mut report = RunReport {
            policy: PolicyKind::NdpExt,
            workload: "test".into(),
            sim_time: Time::from_ns(sim_us * 1000),
            ops: events,
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
            peak_queue_depth: peak,
            registry: Default::default(),
        };
        report.registry.scope("engine").count("events", events);
        CellResult { value: report, worker: 1, wall_s }
    }

    #[test]
    fn manifest_aggregates_and_renders() {
        let results = vec![result(10, 200, 16, 0.5), result(20, 600, 32, 0.5)];
        let names = vec!["a/b/c".to_string(), "a/b/d".to_string()];
        let m = RunManifest::collect("fig", 4, &names, &results, None);
        assert_eq!(m.events_total(), 800);
        assert_eq!(m.peak_queue_depth(), 32);
        assert!((m.events_per_sec() - 800.0).abs() < 1e-9);
        let json = m.to_json();
        assert!(json.contains("\"schema\": \"ndpx-run-manifest-v1\""));
        assert!(json.contains("\"cell\": \"a/b/d\""));
        assert!(json.contains("\"peak_queue_depth\": 32"));
    }

    #[test]
    fn registry_dump_nests_cells_in_order() {
        let results = [result(10, 200, 16, 0.5), result(20, 600, 32, 0.5)];
        let names = vec!["x".to_string(), "y".to_string()];
        let reports: Vec<&RunReport> = results.iter().map(|r| &r.value).collect();
        let dump = registry_dump_json("fig", &names, &reports);
        assert!(dump.contains("\"schema\": \"ndpx-registry-dump-v1\""));
        let x = dump.find("\"x\": {").expect("first cell");
        let y = dump.find("\"y\": {").expect("second cell");
        assert!(x < y, "cells render in submission order");
        assert!(dump.contains("\"engine.events\": 200"));
        assert!(dump.contains("\"engine.events\": 600"));
    }

    #[test]
    fn failure_manifest_lists_failed_cells_only() {
        let ok = result(10, 200, 16, 0.5);
        let results = vec![
            CellResult { value: Ok(ok.value), worker: 0, wall_s: 0.5 },
            CellResult { value: Err("tag \"x\" died".to_string()), worker: 1, wall_s: 0.1 },
        ];
        let names = vec!["hbm/NdpExt/pr".to_string(), "hbm/NdpExt/mv".to_string()];
        let failures = collect_failures(&names, &results);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].name, "hbm/NdpExt/mv");
        assert_eq!(failures[0].worker, 1);
        let doc = failure_manifest_json("fig", results.len(), &failures);
        assert!(doc.contains("\"schema\": \"ndpx-failure-manifest-v2\""));
        assert!(doc.contains("\"cells_total\": 2"));
        assert!(doc.contains("\"cells_failed\": 1"));
        assert!(doc.contains("\"cell\": \"hbm/NdpExt/mv\", \"worker\": 1, \"message\""));
        assert!(!doc.contains("attempts"), "v2 has no attempts field");
        assert!(doc.contains("tag \\\"x\\\" died"), "messages are JSON-escaped");
        assert!(!doc.contains("hbm/NdpExt/pr\", \"worker"), "successful cells stay out");
    }

    #[test]
    fn sanitize_keeps_safe_chars_only() {
        assert_eq!(sanitize("fig05_overall"), "fig05_overall");
        assert_eq!(sanitize("ablation/no-replication"), "ablation-no-replication");
        assert_eq!(sanitize("a b\"c"), "a-b-c");
    }
}
