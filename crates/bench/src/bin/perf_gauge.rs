//! Wall-clock performance gauge for the simulator itself.
//!
//! Runs the fixed 36-cell `(mem, policy, workload)` matrix (see
//! [`ndpx_bench::gauge`]) once at the `NDPX_SCALE` profile, on the
//! [`ndpx_bench::pool::CellPool`] with the shared trace cache, and writes
//! `BENCH_PERF.json`. Perf optimisations must keep every digest
//! byte-identical — only the wall clock may move. That serial, pooled and
//! uncached execution agree is the `pool_determinism` test's job, not the
//! gauge's.
//!
//! Usage:
//!   perf_gauge                      # measure, write BENCH_PERF.json
//!   perf_gauge --check OLD.json     # measure and assert every cell of
//!                                   # OLD.json is present with the same
//!                                   # digest; writes a report only when
//!                                   # NDPX_PERF_OUT is set
//!   NDPX_THREADS=n perf_gauge       # pool width
//!   NDPX_PERF_OUT=path perf_gauge   # write somewhere else
//!   NDPX_METRICS=dir perf_gauge     # also write the perf_gauge.cells.json
//!                                   # run document (see ndpx_bench::manifest)
//!   NDPX_GAUGE_MICRO=1 perf_gauge   # also run component micro-benchmarks
//!                                   # (queue ops, vectorized kernels) and
//!                                   # record them under "micro"
//!   NDPX_TIMELINE=path perf_gauge   # cells additionally write windowed
//!                                   # timelines (ndpx_sim::telemetry); the
//!                                   # report records telemetry as active
//!   NDPX_PROFILE=1 perf_gauge       # cells attribute wall/sim time to
//!                                   # phases (profile.* registry scope)
//!
//! The scale, thread, trace-cache, fault, chaos and telemetry knobs are
//! parsed once at start-up ([`BenchEnv`]); a bad value exits 2 before any
//! cell runs.
//!
//! Every distinct trace is materialized before the timed pass, so a cell's
//! wall clock is its run alone. The report records the process's peak
//! resident set (`VmHWM`) after the matrix as `peak_rss_mb`.
//!
//! `--check` exits 1 on any digest mismatch against the baseline file or
//! on a cell present in only one of the runs, and 2 when the baseline
//! cannot be read or parsed, so the CI smoke run doubles as a regression
//! gate for simulated results at every thread count. The baseline is
//! compared by [`ndpx_bench::report::compare`], the rule `ndpx_report`
//! applies.

use std::fmt::Write as _;
use std::time::Instant;

use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::{cell_key, gauge_ops, gauge_specs, peak_rss_mb, scale_name};
use ndpx_bench::manifest;
use ndpx_bench::micro::{self, MicroResult};
use ndpx_bench::pool::{expect_ok, CellTask, MonitorConfig, ThreadPlan};
use ndpx_bench::report::{compare, parse_perf, PerfRun};
use ndpx_bench::runner::{run_ndp_cached, BenchEnv, BenchScale, RunSpec};
use ndpx_core::config::{PolicyKind, TelemetryConfig};
use ndpx_core::stats::RunReport;
use ndpx_sim::telemetry::StatRegistry;
use ndpx_workloads::{TraceCache, TraceCacheStats, TraceKey};

struct Cell {
    key: String,
    policy: PolicyKind,
    ops: u64,
    wall_s: f64,
    worker: usize,
    /// Event-queue high-water mark (`engine.queue.peak_depth`).
    peak_queue_depth: u64,
    batch: BatchCell,
    digest: u64,
}

impl Cell {
    fn ops_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Per-cell `engine.batch.*` registry readout (run-ahead batching
/// telemetry); all zeros when the cell predates the scope or batching is
/// disabled.
#[derive(Debug, Default, Clone, Copy)]
struct BatchCell {
    enabled: bool,
    batches: u64,
    ops: u64,
    fast_hits: u64,
    max_len: u64,
}

impl BatchCell {
    fn from_registry(reg: &StatRegistry) -> Self {
        let count = |path: &str| reg.get(path).and_then(|v| v.as_count()).unwrap_or(0);
        BatchCell {
            enabled: count("engine.batch.enabled") != 0,
            batches: count("engine.batch.batches"),
            ops: count("engine.batch.ops"),
            fast_hits: count("engine.batch.fast_hits"),
            max_len: count("engine.batch.max_len"),
        }
    }

    fn mean_len(&self) -> f64 {
        if self.batches > 0 {
            self.ops as f64 / self.batches as f64
        } else {
            0.0
        }
    }

    fn fast_hit_ratio(&self) -> f64 {
        if self.ops > 0 {
            self.fast_hits as f64 / self.ops as f64
        } else {
            0.0
        }
    }

    fn sum(cells: &[Cell]) -> BatchCell {
        cells.iter().map(|c| c.batch).fold(BatchCell::default(), |a, c| BatchCell {
            enabled: a.enabled || c.enabled,
            batches: a.batches + c.batches,
            ops: a.ops + c.ops,
            fast_hits: a.fast_hits + c.fast_hits,
            max_len: a.max_len.max(c.max_len),
        })
    }
}

/// The timed pass over the whole matrix.
struct Matrix {
    cells: Vec<Cell>,
    wall_s: f64,
    /// Peak resident set of the process once the matrix has run, MB.
    peak_rss_mb: Option<f64>,
}

impl Matrix {
    fn ops_total(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    fn peak_queue_depth(&self) -> u64 {
        self.cells.iter().map(|c| c.peak_queue_depth).max().unwrap_or(0)
    }

    fn rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops_total() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Materializes each distinct trace of the matrix into the trace cache
/// before the timed pass, so no cell's wall clock pays for generation. A
/// trace the cache does not keep (cache off, or past its budget) is not
/// generated here: its cells generate it inside their own runs.
fn warm_traces(specs: &[RunSpec], cache: &TraceCache) {
    let mut warmed = Vec::new();
    for spec in specs {
        let key =
            TraceKey::new(spec.workload, &spec.scale.workload(&spec.config()), spec.ops_per_core);
        if !warmed.contains(&key) {
            cache.get(&key);
            warmed.push(key);
        }
    }
}

/// Runs the matrix once on the pool with heartbeat and watchdog attached,
/// and writes the `NDPX_METRICS` run document before a failed cell
/// escalates.
fn run_matrix(specs: &[RunSpec], plan: ThreadPlan, cache: &TraceCache) -> Matrix {
    let pool = plan.pool();
    let monitor = MonitorConfig::new("perf_gauge", specs.iter().map(cell_key).collect());
    let t0 = Instant::now();
    let tasks: Vec<CellTask<'_, RunReport>> = specs
        .iter()
        .map(|spec| Box::new(move || run_ndp_cached(spec, cache)) as CellTask<'_, RunReport>)
        .collect();
    let results = pool.run_cells(Some(&monitor), tasks);
    let wall_s = t0.elapsed().as_secs_f64();
    let (dir, stats) = (manifest::metrics_dir(), cache.stats());
    manifest::emit(dir.as_deref(), "perf_gauge", pool.threads(), &monitor.names, &results, stats);
    let cells = specs
        .iter()
        .zip(expect_ok(results))
        .map(|(spec, r)| Cell {
            key: cell_key(spec),
            policy: spec.policy,
            ops: r.value.ops,
            wall_s: r.wall_s,
            worker: r.worker,
            peak_queue_depth: r
                .value
                .registry
                .get("engine.queue.peak_depth")
                .and_then(|v| v.as_count())
                .expect("engine.queue.peak_depth in every cell registry"),
            batch: BatchCell::from_registry(&r.value.registry),
            digest: report_digest(&r.value),
        })
        .collect();
    Matrix { cells, wall_s, peak_rss_mb: peak_rss_mb() }
}

fn main() {
    let env = BenchEnv::from_env();
    let (scale, plan, overrides) = (env.scale, env.threads, &env.overrides);
    let args: Vec<String> = std::env::args().collect();
    let baseline = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| read_baseline(args.get(i + 1).expect("--check needs a path")));
    let specs: Vec<RunSpec> =
        gauge_specs(scale, gauge_ops(scale)).into_iter().map(|s| overrides.onto(s)).collect();
    let cache = env.trace_cache();
    warm_traces(&specs, &cache);
    let matrix = run_matrix(&specs, plan, &cache);

    for c in &matrix.cells {
        eprintln!(
            "{:<28} {:>9.0} ops/s  worker {:>2}  digest {:016x}",
            c.key,
            c.ops_per_sec(),
            c.worker,
            c.digest
        );
    }
    let cache_stats = cache.stats();
    eprintln!(
        "threads={} {:.3}s; trace cache {} hits / {} misses, {:.3}s generation saved",
        plan.requested,
        matrix.wall_s,
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.saved().as_secs_f64()
    );

    // Optional component micro-benchmarks: raw queue ops plus the
    // vectorized analytic kernels, recorded in the
    // report so CI artifacts can attribute wall-clock movement.
    let micros = if micro::enabled_from_env() {
        let rs = micro::run_all();
        for r in &rs {
            let slow = r.slow_share.map_or(String::new(), |s| format!(", {:.1}% slow", s * 100.0));
            eprintln!(
                "micro {:<28} {:>12.1} ops/s  ({:.1} ns/op{slow})",
                r.name,
                r.ops_per_sec(),
                r.ns_per_iter
            );
        }
        rs
    } else {
        Vec::new()
    };

    let json = render_json(scale, &matrix, plan, &cache_stats, &micros, &overrides.telemetry);
    if let Some(base) = &baseline {
        check(base, &json);
    }
    // A check writes only where asked to, never over its own baseline.
    let out_path = ndpx_bench::knobs::PERF_OUT
        .path()
        .or_else(|| baseline.is_none().then(|| "BENCH_PERF.json".to_string()));
    let dest = match out_path {
        Some(path) => {
            std::fs::write(&path, json).expect("write the perf report");
            format!("-> {path}")
        }
        None => format!("(no report written: set {})", ndpx_bench::knobs::PERF_OUT.name),
    };
    println!(
        "{:.0} simulated ops/sec over {} cells at {} thread(s) {dest}",
        matrix.rate(),
        matrix.cells.len(),
        plan.requested
    );
}

/// Renders the report (`ndpx-perf-gauge-v8`: v7 plus `peak_rss_mb`, `null`
/// where the host does not report it, minus `requested_threads`, which
/// always equalled `threads`). Hand-rolled: the workspace has no JSON
/// dependency; [`parse_perf`] reads every version back.
fn render_json(
    scale: BenchScale,
    matrix: &Matrix,
    plan: ThreadPlan,
    cache_stats: &TraceCacheStats,
    micros: &[MicroResult],
    telemetry: &TelemetryConfig,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"ndpx-perf-gauge-v8\",");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale_name(scale));
    let _ = writeln!(s, "  \"threads\": {},", plan.requested);
    let _ = writeln!(s, "  \"host_cpus\": {},", plan.host_cpus);
    let _ = writeln!(s, "  \"oversubscribed\": {},", plan.oversubscribed());
    let _ = writeln!(s, "  \"ops_total\": {},", matrix.ops_total());
    let _ = writeln!(s, "  \"wall_seconds\": {:.3},", matrix.wall_s);
    let _ = writeln!(s, "  \"sim_ops_per_sec\": {:.1},", matrix.rate());
    let _ = writeln!(s, "  \"peak_queue_depth\": {},", matrix.peak_queue_depth());
    let rss = matrix.peak_rss_mb.map_or("null".to_string(), |mb| format!("{mb:.1}"));
    let _ = writeln!(s, "  \"peak_rss_mb\": {rss},");
    let _ = writeln!(
        s,
        "  \"telemetry\": {{\"timeline\": {}, \"profile\": {}}},",
        telemetry.timeline.is_some(),
        telemetry.profile
    );
    let _ = writeln!(
        s,
        "  \"trace_cache\": {{\"hits\": {}, \"misses\": {}, \"saved_seconds\": {:.3}}},",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.saved().as_secs_f64()
    );
    let b = BatchCell::sum(&matrix.cells);
    let _ = writeln!(
        s,
        "  \"batch\": {{\"enabled\": {}, \"batches\": {}, \"ops\": {}, \"fast_hits\": {}, \"max_len\": {}, \"mean_len\": {:.3}, \"fast_hit_ratio\": {:.4}}},",
        b.enabled,
        b.batches,
        b.ops,
        b.fast_hits,
        b.max_len,
        b.mean_len(),
        b.fast_hit_ratio()
    );
    if !micros.is_empty() {
        s.push_str("  \"micro\": [\n");
        for (i, m) in micros.iter().enumerate() {
            let comma = if i + 1 < micros.len() { "," } else { "" };
            let slow = m.slow_share.map_or(String::new(), |s| format!(", \"slow_share\": {s:.4}"));
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"iters\": {}, \"ns_per_iter\": {:.2}, \"ops_per_sec\": {:.1}{slow}}}{comma}",
                m.name,
                m.iters,
                m.ns_per_iter,
                m.ops_per_sec()
            );
        }
        s.push_str("  ],\n");
    }
    s.push_str("  \"per_policy\": {\n");
    for (i, policy) in PolicyKind::ALL.iter().enumerate() {
        let (ops, wall): (u64, f64) = matrix
            .cells
            .iter()
            .filter(|c| c.policy == *policy)
            .fold((0, 0.0), |(o, w), c| (o + c.ops, w + c.wall_s));
        let rate = if wall > 0.0 { ops as f64 / wall } else { 0.0 };
        let comma = if i + 1 < PolicyKind::ALL.len() { "," } else { "" };
        let _ = writeln!(s, "    \"{}\": {rate:.1}{comma}", policy.label());
    }
    s.push_str("  },\n");
    s.push_str("  \"cells\": [\n");
    for (i, c) in matrix.cells.iter().enumerate() {
        let comma = if i + 1 < matrix.cells.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"cell\": \"{}\", \"ops\": {}, \"wall_ms\": {:.1}, \"ops_per_sec\": {:.1}, \"worker\": {}, \"peak_queue_depth\": {}, \"batch_mean_len\": {:.3}, \"batch_fast_hit_ratio\": {:.4}, \"digest\": \"{:016x}\"}}{comma}",
            c.key,
            c.ops,
            c.wall_s * 1e3,
            c.ops_per_sec(),
            c.worker,
            c.peak_queue_depth,
            c.batch.mean_len(),
            c.batch.fast_hit_ratio(),
            c.digest
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Reads and parses the `--check` baseline; exits 2 when either fails.
fn read_baseline(path: &str) -> PerfRun {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(2);
    });
    parse_perf(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse baseline {path}: {e}");
        std::process::exit(2);
    })
}

/// `--check`: this run's report against the baseline. Exits 1 unless the
/// comparison is clean — every cell in both runs, with equal digests.
fn check(base: &PerfRun, report: &str) {
    let cur = parse_perf(report).expect("the gauge parses its own report");
    // The threshold only flags throughput regressions, which never gate.
    let cmp = compare(base, &cur, 0.0);
    let digest = |run: &PerfRun, key: &str| {
        run.cells.iter().find(|c| c.key == key).map_or(String::new(), |c| c.digest.clone())
    };
    for key in &cmp.digest_mismatches {
        eprintln!(
            "DIGEST MISMATCH {key}: baseline {} != current {}",
            digest(base, key),
            digest(&cur, key)
        );
    }
    for key in &cmp.missing_cells {
        eprintln!("CELL IN ONLY ONE RUN {key}");
    }
    if !cmp.is_clean() {
        eprintln!(
            "{} digest mismatch(es), {} cell(s) in only one run: the baseline does not vouch for this run",
            cmp.digest_mismatches.len(),
            cmp.missing_cells.len()
        );
        std::process::exit(1);
    }
    eprintln!("digests unchanged ({} cells)", cur.cells.len());
}
