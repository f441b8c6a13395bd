//! Run-diff reporting: compare two perf-gauge reports (and optionally two
//! timelines or registry dumps) and render a markdown trend report.
//!
//! This is the library half of the `ndpx_report` binary. The comparison is
//! split by signal quality:
//!
//! * **Digests** are deterministic — any mismatch means simulated results
//!   changed and is always a hard failure.
//! * **Throughput aggregates** (`sim_ops_per_sec`, the serial rate, the
//!   event rate, per-policy rates) are wall-clock measurements on shared CI
//!   runners, so they regress *advisorily*: the report lists them and the
//!   caller decides whether to enforce (`ndpx_report --strict`).
//! * **Per-cell rates** are the noisiest; they are reported as the biggest
//!   movers but never drive the exit status on their own.
//!
//! Everything is parsed with [`Json`], the dependency-free telemetry
//! parser, so any line-format drift between gauge schema versions
//! (v1 … v6) is absorbed by real parsing instead of line scans.

use std::fmt::Write as _;

use ndpx_sim::telemetry::Json;

/// One run's worth of perf-gauge output, reduced to the fields the diff
/// needs. Missing fields (older schemas) parse as zero / empty rather than
/// failing, so v1 baselines still compare.
#[derive(Debug, Clone, Default)]
pub struct PerfRun {
    /// Schema tag (`ndpx-perf-gauge-vN`).
    pub schema: String,
    /// Scale profile name (`micro`, `small`, …).
    pub scale: String,
    /// Pool width of the measured (cached) phase.
    pub threads: u64,
    /// CPUs visible to the run.
    pub host_cpus: u64,
    /// Aggregate cached-phase throughput.
    pub sim_ops_per_sec: f64,
    /// Serial-phase throughput (the historical baseline path).
    pub serial_sim_ops_per_sec: f64,
    /// Aggregate event rate.
    pub events_per_sec: f64,
    /// Cached-phase wall-clock speedup over the serial phase.
    pub speedup_vs_serial: f64,
    /// v6: the sub-1.0-speedup-on-1-CPU case, named.
    pub pool_overhead: bool,
    /// Per-policy throughput, in report order.
    pub per_policy: Vec<(String, f64)>,
    /// Per-cell results, in report order.
    pub cells: Vec<CellPerf>,
}

/// One cell of a perf-gauge report.
#[derive(Debug, Clone, Default)]
pub struct CellPerf {
    /// Cell key (`mem/policy/workload`).
    pub key: String,
    /// Cell throughput.
    pub ops_per_sec: f64,
    /// Cell wall time in milliseconds.
    pub wall_ms: f64,
    /// Report digest as the 16-hex-digit string the gauge wrote.
    pub digest: String,
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn text(doc: &Json, key: &str) -> String {
    doc.get(key).and_then(Json::as_str).unwrap_or("").to_string()
}

/// Parses a perf-gauge report (any schema version).
///
/// # Errors
///
/// Returns the parser's message when `source` is not valid JSON or has no
/// top-level object.
pub fn parse_perf(source: &str) -> Result<PerfRun, String> {
    let doc = Json::parse(source)?;
    if doc.as_object().is_none() {
        return Err("perf report is not a JSON object".into());
    }
    let per_policy = doc
        .get("per_policy")
        .and_then(Json::as_object)
        .map(|fields| {
            fields
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|r| (k.clone(), r)))
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .map(|c| CellPerf {
                    key: text(c, "cell"),
                    ops_per_sec: num(c, "ops_per_sec"),
                    wall_ms: num(c, "wall_ms"),
                    digest: text(c, "digest"),
                })
                .collect::<Vec<_>>()
        })
        .unwrap_or_default();
    Ok(PerfRun {
        schema: text(&doc, "schema"),
        scale: text(&doc, "scale"),
        threads: num(&doc, "threads") as u64,
        host_cpus: num(&doc, "host_cpus") as u64,
        sim_ops_per_sec: num(&doc, "sim_ops_per_sec"),
        serial_sim_ops_per_sec: num(&doc, "serial_sim_ops_per_sec"),
        events_per_sec: num(&doc, "events_per_sec"),
        speedup_vs_serial: num(&doc, "parallel_speedup_vs_serial"),
        pool_overhead: doc.get("pool_overhead").and_then(Json::as_bool).unwrap_or(false),
        per_policy,
        cells,
    })
}

/// One metric compared across the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Metric name as shown in the report.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
}

impl Delta {
    /// `current / baseline`; 1.0 when the baseline is zero (no signal).
    pub fn ratio(&self) -> f64 {
        if self.baseline > 0.0 {
            self.current / self.baseline
        } else {
            1.0
        }
    }

    /// Signed percentage change.
    pub fn pct(&self) -> f64 {
        (self.ratio() - 1.0) * 100.0
    }
}

/// The full diff of two perf runs.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Regression threshold as a fraction (0.10 = flag drops past 10%).
    pub threshold: f64,
    /// Every tracked aggregate, in report order.
    pub aggregates: Vec<Delta>,
    /// The aggregates whose ratio fell below `1 - threshold`.
    pub regressions: Vec<Delta>,
    /// Cells whose digests differ — simulated results changed.
    pub digest_mismatches: Vec<String>,
    /// Cells present in only one of the runs.
    pub missing_cells: Vec<String>,
    /// Per-cell throughput deltas (report order), advisory only.
    pub cell_deltas: Vec<Delta>,
}

impl Comparison {
    /// True when nothing deterministic changed (digests and cell sets
    /// agree). Throughput regressions do *not* make a comparison unclean.
    pub fn is_clean(&self) -> bool {
        self.digest_mismatches.is_empty() && self.missing_cells.is_empty()
    }
}

/// Compares `cur` against `base` at `threshold` (a fraction; 0.10 flags
/// throughput drops beyond 10%).
pub fn compare(base: &PerfRun, cur: &PerfRun, threshold: f64) -> Comparison {
    let mut aggregates = vec![
        Delta {
            name: "sim_ops_per_sec".into(),
            baseline: base.sim_ops_per_sec,
            current: cur.sim_ops_per_sec,
        },
        Delta {
            name: "serial_sim_ops_per_sec".into(),
            baseline: base.serial_sim_ops_per_sec,
            current: cur.serial_sim_ops_per_sec,
        },
        Delta {
            name: "events_per_sec".into(),
            baseline: base.events_per_sec,
            current: cur.events_per_sec,
        },
    ];
    for (policy, rate) in &cur.per_policy {
        let baseline =
            base.per_policy.iter().find(|(p, _)| p == policy).map(|(_, r)| *r).unwrap_or(0.0);
        aggregates.push(Delta { name: format!("policy/{policy}"), baseline, current: *rate });
    }
    let regressions = aggregates.iter().filter(|d| d.ratio() < 1.0 - threshold).cloned().collect();

    let mut digest_mismatches = Vec::new();
    let mut missing_cells = Vec::new();
    let mut cell_deltas = Vec::new();
    for cell in &cur.cells {
        match base.cells.iter().find(|c| c.key == cell.key) {
            Some(b) => {
                if !b.digest.is_empty() && b.digest != cell.digest {
                    digest_mismatches.push(cell.key.clone());
                }
                cell_deltas.push(Delta {
                    name: cell.key.clone(),
                    baseline: b.ops_per_sec,
                    current: cell.ops_per_sec,
                });
            }
            None => missing_cells.push(cell.key.clone()),
        }
    }
    for cell in &base.cells {
        if !cur.cells.iter().any(|c| c.key == cell.key) {
            missing_cells.push(cell.key.clone());
        }
    }
    Comparison { threshold, aggregates, regressions, digest_mismatches, missing_cells, cell_deltas }
}

fn fmt_rate(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.1}")
    }
}

/// Renders the markdown report. `sections` are pre-rendered extra blocks
/// (timeline / registry diffs) appended verbatim after the perf tables.
pub fn render_markdown(
    base: &PerfRun,
    cur: &PerfRun,
    cmp: &Comparison,
    sections: &[String],
) -> String {
    let mut s = String::new();
    s.push_str("# ndpx run diff\n\n");
    let _ = writeln!(
        s,
        "| | baseline | current |\n|---|---|---|\n| schema | {} | {} |\n| scale | {} | {} |\n| threads | {} | {} |\n| host cpus | {} | {} |",
        base.schema, cur.schema, base.scale, cur.scale,
        base.threads, cur.threads, base.host_cpus, cur.host_cpus
    );
    s.push('\n');

    let verdict = if !cmp.is_clean() {
        "**DIGEST CHANGE** — simulated results differ between the runs."
    } else if !cmp.regressions.is_empty() {
        "**Throughput regression** beyond threshold (advisory; wall-clock noise is expected on shared runners)."
    } else {
        "Clean: digests identical, throughput within threshold."
    };
    let _ = writeln!(s, "{verdict}\n");
    if cur.pool_overhead {
        s.push_str(
            "Note: current run reports `pool_overhead` — sub-1.0 parallel speedup on a \
             1-CPU host is thread-pool cost, not a simulator regression.\n\n",
        );
    }

    s.push_str("## Aggregates\n\n| metric | baseline | current | Δ% |\n|---|---:|---:|---:|\n");
    for d in &cmp.aggregates {
        let flag = if cmp.regressions.contains(d) { " ⚠" } else { "" };
        let _ = writeln!(
            s,
            "| {} | {} | {} | {:+.1}%{flag} |",
            d.name,
            fmt_rate(d.baseline),
            fmt_rate(d.current),
            d.pct()
        );
    }
    s.push('\n');

    if !cmp.digest_mismatches.is_empty() {
        s.push_str("## Digest mismatches\n\n");
        for key in &cmp.digest_mismatches {
            let _ = writeln!(s, "- `{key}`");
        }
        s.push('\n');
    }
    if !cmp.missing_cells.is_empty() {
        s.push_str("## Cells in only one run\n\n");
        for key in &cmp.missing_cells {
            let _ = writeln!(s, "- `{key}`");
        }
        s.push('\n');
    }

    // Biggest per-cell movers, both directions. Advisory: at micro scale a
    // cell runs for a few milliseconds and scheduling noise dominates.
    let mut movers: Vec<&Delta> = cmp.cell_deltas.iter().filter(|d| d.baseline > 0.0).collect();
    movers.sort_by(|a, b| {
        a.pct().abs().partial_cmp(&b.pct().abs()).unwrap_or(std::cmp::Ordering::Equal).reverse()
    });
    if !movers.is_empty() {
        s.push_str(
            "## Biggest cell movers\n\n| cell | baseline | current | Δ% |\n|---|---:|---:|---:|\n",
        );
        for d in movers.iter().take(8) {
            let _ = writeln!(
                s,
                "| `{}` | {} | {} | {:+.1}% |",
                d.name,
                fmt_rate(d.baseline),
                fmt_rate(d.current),
                d.pct()
            );
        }
        s.push('\n');
    }

    for sec in sections {
        s.push_str(sec);
        if !sec.ends_with('\n') {
            s.push('\n');
        }
        s.push('\n');
    }
    s
}

/// Reduces one stat value (as timeline / registry JSON renders it) to a
/// scalar: numbers pass through; latency/hist/mean objects contribute their
/// `count`; anything else is zero.
fn scalar_of(v: &Json) -> f64 {
    match v {
        Json::Number(n) => *n,
        Json::Object(_) => v.get("count").and_then(Json::as_f64).unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Diffs two `ndpx-timeline-v1` documents and renders a markdown section:
/// per-series totals across all windows plus the single worst-diverging
/// window. Series whose totals agree exactly are collapsed into a count.
///
/// # Errors
///
/// Returns the parse error if either document is malformed or missing its
/// `windows` array.
pub fn diff_timelines(a_src: &str, b_src: &str, top: usize) -> Result<String, String> {
    /// One window, reduced: (end_ns, flattened scalar stats).
    type Window = (f64, Vec<(String, f64)>);
    let a = Json::parse(a_src)?;
    let b = Json::parse(b_src)?;
    let windows = |doc: &Json| -> Result<Vec<Window>, String> {
        doc.get("windows")
            .and_then(Json::as_array)
            .ok_or_else(|| "timeline has no windows array".to_string())
            .map(|ws| {
                ws.iter()
                    .map(|w| {
                        let end = num(w, "end_ns");
                        let stats = w
                            .get("stats")
                            .and_then(Json::as_object)
                            .map(|fields| {
                                fields
                                    .iter()
                                    .map(|(k, v)| (k.clone(), scalar_of(v)))
                                    .collect::<Vec<_>>()
                            })
                            .unwrap_or_default();
                        (end, stats)
                    })
                    .collect()
            })
    };
    let (wa, wb) = (windows(&a)?, windows(&b)?);

    // Union of series keys, a-side order first.
    let mut keys: Vec<String> = Vec::new();
    for (_, stats) in wa.iter().chain(wb.iter()) {
        for (k, _) in stats {
            if !keys.contains(k) {
                keys.push(k.clone());
            }
        }
    }
    struct Series {
        key: String,
        total_a: f64,
        total_b: f64,
        worst_end_ns: f64,
        worst_gap: f64,
    }
    let val = |stats: &[(String, f64)], key: &str| {
        stats.iter().find(|(k, _)| k == key).map(|(_, v)| *v).unwrap_or(0.0)
    };
    let mut series: Vec<Series> = Vec::new();
    for key in keys {
        let mut s = Series { key, total_a: 0.0, total_b: 0.0, worst_end_ns: 0.0, worst_gap: 0.0 };
        for (end, stats) in &wa {
            let va = val(stats, &s.key);
            let vb = wb
                .iter()
                .find(|(e, _)| e == end)
                .map(|(_, stats)| val(stats, &s.key))
                .unwrap_or(0.0);
            s.total_a += va;
            s.total_b += vb;
            if (va - vb).abs() > s.worst_gap {
                s.worst_gap = (va - vb).abs();
                s.worst_end_ns = *end;
            }
        }
        for (end, stats) in &wb {
            if !wa.iter().any(|(e, _)| e == end) {
                let vb = val(stats, &s.key);
                s.total_b += vb;
                if vb.abs() > s.worst_gap {
                    s.worst_gap = vb.abs();
                    s.worst_end_ns = *end;
                }
            }
        }
        series.push(s);
    }
    let identical = series.iter().filter(|s| s.worst_gap == 0.0).count();
    let mut moved: Vec<&Series> = series.iter().filter(|s| s.worst_gap > 0.0).collect();
    moved
        .sort_by(|x, y| y.worst_gap.partial_cmp(&x.worst_gap).unwrap_or(std::cmp::Ordering::Equal));

    let label = |doc: &Json| doc.get("label").and_then(Json::as_str).unwrap_or("?").to_string();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "## Timeline diff: `{}` vs `{}`\n\n{} windows vs {}; {} of {} series identical.\n",
        label(&a),
        label(&b),
        wa.len(),
        wb.len(),
        identical,
        series.len()
    );
    if !moved.is_empty() {
        s.push_str(
            "| series | Σ baseline | Σ current | worst window (end ns) | gap |\n|---|---:|---:|---:|---:|\n",
        );
        for m in moved.iter().take(top) {
            let _ = writeln!(
                s,
                "| `{}` | {} | {} | {} | {} |",
                m.key,
                fmt_rate(m.total_a),
                fmt_rate(m.total_b),
                m.worst_end_ns,
                fmt_rate(m.worst_gap)
            );
        }
        if moved.len() > top {
            let _ = writeln!(s, "\n… and {} more diverging series.", moved.len() - top);
        }
    }
    Ok(s)
}

/// Diffs the `profile.*` and `slo.*` scopes of two `ndpx-registry-dump-v1`
/// documents cell by cell, rendering a markdown section of per-phase sim
/// time and SLO movement. Cells or scopes absent from both sides are
/// skipped, so profiler-off dumps produce an empty section.
///
/// # Errors
///
/// Returns the parse error if either document is malformed or missing its
/// `cells` object.
pub fn diff_registry_phases(a_src: &str, b_src: &str) -> Result<String, String> {
    let a = Json::parse(a_src)?;
    let b = Json::parse(b_src)?;
    let cells = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        doc.get("cells")
            .and_then(Json::as_object)
            .map(|fields| fields.to_vec())
            .ok_or_else(|| "registry dump has no cells object".to_string())
    };
    let (ca, cb) = (cells(&a)?, cells(&b)?);
    let mut s = String::new();
    let mut any = false;
    for (name, stats_a) in &ca {
        let Some((_, stats_b)) = cb.iter().find(|(n, _)| n == name) else { continue };
        let fields_a = stats_a.as_object().unwrap_or(&[]);
        let mut rows = Vec::new();
        for (path, va) in fields_a {
            if !path.starts_with("profile.") && !path.starts_with("slo.") {
                continue;
            }
            let a_val = scalar_of(va);
            let b_val = stats_b.get(path).map(scalar_of).unwrap_or(0.0);
            rows.push((path.clone(), a_val, b_val));
        }
        if rows.is_empty() {
            continue;
        }
        if !any {
            s.push_str("## Per-phase / SLO deltas\n");
            any = true;
        }
        let _ = writeln!(s, "\n### `{name}`\n\n| stat | baseline | current |\n|---|---:|---:|");
        for (path, a_val, b_val) in rows {
            let _ = writeln!(s, "| `{path}` | {} | {} |", fmt_rate(a_val), fmt_rate(b_val));
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(schema: &str, rate: f64, digest: &str) -> String {
        format!(
            "{{\n  \"schema\": \"{schema}\",\n  \"scale\": \"micro\",\n  \"queue_impl\": \"wheel\",\n  \
             \"threads\": 4,\n  \"host_cpus\": 4,\n  \"sim_ops_per_sec\": {rate},\n  \
             \"serial_sim_ops_per_sec\": 900.0,\n  \"events_per_sec\": 1800.0,\n  \
             \"parallel_speedup_vs_serial\": 1.5,\n  \
             \"per_policy\": {{\"ndpext\": {rate}}},\n  \
             \"cells\": [{{\"cell\": \"hbm/ndpext/pr\", \"ops\": 10, \"wall_ms\": 1.0, \
             \"ops_per_sec\": {rate}, \"digest\": \"{digest}\"}}]\n}}\n"
        )
    }

    #[test]
    fn parse_reads_aggregates_policies_and_cells() {
        let run = parse_perf(&sample("ndpx-perf-gauge-v6", 1000.0, "00ff")).unwrap();
        assert_eq!(run.schema, "ndpx-perf-gauge-v6");
        assert_eq!(run.threads, 4);
        assert_eq!(run.sim_ops_per_sec, 1000.0);
        assert_eq!(run.per_policy, vec![("ndpext".to_string(), 1000.0)]);
        assert_eq!(run.cells.len(), 1);
        assert_eq!(run.cells[0].digest, "00ff");
        assert!(!run.pool_overhead);
    }

    #[test]
    fn identical_runs_compare_clean() {
        let run = parse_perf(&sample("ndpx-perf-gauge-v6", 1000.0, "00ff")).unwrap();
        let cmp = compare(&run, &run, 0.10);
        assert!(cmp.is_clean());
        assert!(cmp.regressions.is_empty());
        assert_eq!(cmp.aggregates.len(), 4, "three aggregates + one policy");
    }

    #[test]
    fn throughput_drop_past_threshold_is_flagged_but_stays_clean() {
        let base = parse_perf(&sample("ndpx-perf-gauge-v5", 1000.0, "00ff")).unwrap();
        let cur = parse_perf(&sample("ndpx-perf-gauge-v6", 800.0, "00ff")).unwrap();
        let cmp = compare(&base, &cur, 0.10);
        assert!(cmp.is_clean(), "throughput noise never dirties the diff");
        let names: Vec<&str> = cmp.regressions.iter().map(|d| d.name.as_str()).collect();
        assert!(names.contains(&"sim_ops_per_sec"));
        assert!(names.contains(&"policy/ndpext"));
        assert!(!names.contains(&"serial_sim_ops_per_sec"), "unchanged rate not flagged");
    }

    #[test]
    fn digest_change_is_a_hard_mismatch() {
        let base = parse_perf(&sample("ndpx-perf-gauge-v6", 1000.0, "00ff")).unwrap();
        let cur = parse_perf(&sample("ndpx-perf-gauge-v6", 1000.0, "beef")).unwrap();
        let cmp = compare(&base, &cur, 0.10);
        assert!(!cmp.is_clean());
        assert_eq!(cmp.digest_mismatches, vec!["hbm/ndpext/pr".to_string()]);
        let md = render_markdown(&base, &cur, &cmp, &[]);
        assert!(md.contains("DIGEST CHANGE"));
        assert!(md.contains("hbm/ndpext/pr"));
    }

    #[test]
    fn cell_less_baseline_is_not_clean() {
        // A baseline the parser accepts but that names no cell must not
        // vouch for the current run's digests.
        let base =
            parse_perf("{\"schema\": \"ndpx-perf-gauge-v6\", \"sim_ops_per_sec\": 1.0}").unwrap();
        let cur = parse_perf(&sample("ndpx-perf-gauge-v6", 1000.0, "00ff")).unwrap();
        let cmp = compare(&base, &cur, 0.10);
        assert!(!cmp.is_clean());
        assert_eq!(cmp.missing_cells, vec!["hbm/ndpext/pr".to_string()]);
    }

    #[test]
    fn markdown_includes_aggregate_table_and_sections() {
        let base = parse_perf(&sample("ndpx-perf-gauge-v5", 1000.0, "00ff")).unwrap();
        let cur = parse_perf(&sample("ndpx-perf-gauge-v6", 1200.0, "00ff")).unwrap();
        let cmp = compare(&base, &cur, 0.10);
        let md = render_markdown(&base, &cur, &cmp, &["## extra\ncustom".to_string()]);
        assert!(md.starts_with("# ndpx run diff"));
        assert!(md.contains("| sim_ops_per_sec | 1000 | 1200 | +20.0% |"));
        assert!(md.contains("## extra"));
        assert!(md.contains("Clean: digests identical"));
    }

    #[test]
    fn timeline_diff_finds_diverging_series() {
        let tl = |flits: u64| {
            format!(
                "{{\n  \"schema\": \"ndpx-timeline-v1\",\n  \"label\": \"t\",\n  \
                 \"window_ns\": 10000,\n  \"evicted_windows\": 0,\n  \"windows\": [\n    \
                 {{\"start_ns\": 0, \"end_ns\": 10000, \"stats\": {{\n      \
                 \"core.mem_ops\": 50,\n      \"noc.bytes\": {flits}\n    }}}}\n  ]\n}}\n"
            )
        };
        let md = diff_timelines(&tl(100), &tl(140), 10).unwrap();
        assert!(md.contains("1 of 2 series identical"));
        assert!(md.contains("`noc.bytes`"));
        assert!(!md.contains("`core.mem_ops`"), "identical series are collapsed");
        let same = diff_timelines(&tl(100), &tl(100), 10).unwrap();
        assert!(same.contains("2 of 2 series identical"));
    }

    #[test]
    fn registry_phase_diff_reports_profile_and_slo_only() {
        let dump = |run_ps: u64| {
            format!(
                "{{\n  \"schema\": \"ndpx-registry-dump-v1\",\n  \"run\": \"t\",\n  \"cells\": {{\n    \
                 \"hbm/ndpext/pr\": {{\n      \"core.mem_ops\": 5,\n      \
                 \"profile.run\": {{\"mean_ps\": {run_ps}, \"total_ps\": {run_ps}, \"count\": 1}},\n      \
                 \"slo.epochs\": 3\n    }}\n  }}\n}}\n"
            )
        };
        let md = diff_registry_phases(&dump(100), &dump(200)).unwrap();
        assert!(md.contains("Per-phase / SLO deltas"));
        assert!(md.contains("`profile.run`"));
        assert!(md.contains("`slo.epochs`"));
        assert!(!md.contains("core.mem_ops"));
        // Dumps without profile/slo scopes produce an empty section.
        let bare = "{\"schema\": \"ndpx-registry-dump-v1\", \"run\": \"t\", \"cells\": {\"c\": {\"core.mem_ops\": 5}}}";
        assert_eq!(diff_registry_phases(bare, bare).unwrap(), "");
    }
}
