//! Wall-clock performance gauge for the simulator itself.
//!
//! Runs the fixed 36-cell `(mem, policy, workload)` matrix (see
//! [`ndpx_bench::gauge`]) twice at the `NDPX_SCALE` profile: once serial
//! with live trace generation (the historical baseline path) and once on
//! the [`CellPool`] with the shared trace cache (the optimized path), then
//! asserts the two phases produced byte-identical report digests before
//! writing `BENCH_PERF.json`. Perf optimisations must keep every digest
//! byte-identical — only the wall clock may move.
//!
//! Usage:
//!   perf_gauge                      # measure, write BENCH_PERF.json
//!   perf_gauge --check OLD.json     # additionally assert every cell of
//!                                   # OLD.json is present with the same
//!                                   # digest, and report the speedup
//!   NDPX_THREADS=n perf_gauge       # pool width of the optimized phase
//!   NDPX_PERF_OUT=path perf_gauge   # write somewhere else
//!   NDPX_METRICS=dir perf_gauge     # also write metrics.json + registry
//!                                   # dump sidecars (see ndpx_bench::manifest)
//!   NDPX_GAUGE_MICRO=1 perf_gauge   # also run component micro-benchmarks
//!                                   # (queue ops, vectorized kernels) and
//!                                   # record them under "micro"
//!   NDPX_TIMELINE=path perf_gauge   # cells additionally write windowed
//!                                   # timelines (ndpx_sim::telemetry); the
//!                                   # report records telemetry as active
//!   NDPX_PROFILE=1 perf_gauge       # cells attribute wall/sim time to
//!                                   # phases (profile.* registry scope)
//!
//! `--check` exits 1 on any digest mismatch (against the baseline file or
//! between the two phases) or on a cell present in only one of the runs,
//! and 2 when the baseline cannot be read or parsed, so the CI smoke run
//! doubles as a regression gate for simulated results at every thread
//! count. The baseline is compared by [`ndpx_bench::report::compare`], the
//! rule `ndpx_report` applies.

use std::fmt::Write as _;
use std::time::Instant;

use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::{cell_key, gauge_ops, gauge_specs, scale_name};
use ndpx_bench::manifest::{self, RunManifest};
use ndpx_bench::micro::{self, MicroResult};
use ndpx_bench::pool::{expect_ok, CellPool, CellResult, CellTask, MonitorConfig, ThreadPlan};
use ndpx_bench::report::{compare, parse_perf, PerfRun};
use ndpx_bench::runner::{run_ndp_cached, BenchScale, RunSpec};
use ndpx_core::config::PolicyKind;
use ndpx_core::stats::RunReport;
use ndpx_sim::telemetry::StatRegistry;
use ndpx_workloads::TraceCache;

struct Cell {
    key: String,
    policy: PolicyKind,
    ops: u64,
    wall_s: f64,
    worker: usize,
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

    fn sum(cells: &[BatchCell]) -> BatchCell {
        cells.iter().fold(BatchCell::default(), |a, c| BatchCell {
            enabled: a.enabled || c.enabled,
            batches: a.batches + c.batches,
            ops: a.ops + c.ops,
            fast_hits: a.fast_hits + c.fast_hits,
            max_len: a.max_len.max(c.max_len),
        })
    }
}

/// One timed pass over the whole matrix.
struct Phase {
    threads: usize,
    cached: bool,
    cells: Vec<Cell>,
    wall_s: f64,
}

impl Phase {
    fn ops_total(&self) -> u64 {
        self.cells.iter().map(|c| c.ops).sum()
    }

    fn rate(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ops_total() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Runs the matrix once. With a monitor the pool emits heartbeat/watchdog
/// lines and the run writes its `NDPX_METRICS` sidecars (failure manifest
/// included) before a failed cell escalates; without one (the serial
/// baseline) results are only digested.
fn run_matrix(
    specs: &[RunSpec],
    pool: CellPool,
    cache: &TraceCache,
    monitor: Option<&MonitorConfig>,
) -> (Phase, Vec<CellResult<RunReport>>) {
    let t0 = Instant::now();
    let tasks: Vec<CellTask<'_, RunReport>> = specs
        .iter()
        .map(|spec| Box::new(move || run_ndp_cached(spec, cache)) as CellTask<'_, RunReport>)
        .collect();
    let results = pool.run_cells(monitor, tasks);
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(m) = monitor {
        manifest::emit("perf_gauge", pool.threads(), &m.names, &results, Some(cache.stats()));
    }
    let results = expect_ok(results);
    let cells = specs
        .iter()
        .zip(&results)
        .map(|(spec, r)| Cell {
            key: cell_key(spec),
            policy: spec.policy,
            ops: r.value.ops,
            wall_s: r.wall_s,
            worker: r.worker,
            digest: report_digest(&r.value),
        })
        .collect();
    (Phase { threads: pool.threads(), cached: cache.is_enabled(), cells, wall_s }, results)
}

fn main() {
    let scale = BenchScale::from_env();
    let args: Vec<String> = std::env::args().collect();
    let baseline = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| read_baseline(args.get(i + 1).expect("--check needs a path")));
    let ops = gauge_ops(scale);
    let specs = gauge_specs(scale, ops);
    let names: Vec<String> = specs.iter().map(cell_key).collect();

    // Phase 1: the historical path — serial, every cell generates its own
    // trace. This is the in-report speedup denominator.
    let (serial, _) = run_matrix(&specs, CellPool::with_threads(1), &TraceCache::disabled(), None);

    // Phase 2: the optimized path — pool at the environment's width, traces
    // shared across cells, heartbeat + watchdog attached. The plan keeps
    // the requested-vs-host distinction for the report: explicit widths
    // past the host are honored but flagged as oversubscribed.
    let plan = ThreadPlan::from_env();
    let pool = plan.pool();
    let cache = TraceCache::from_env();
    let monitor = MonitorConfig::from_env("perf_gauge", names);
    let (parallel, parallel_results) = run_matrix(&specs, pool, &cache, Some(&monitor));

    // The two phases must agree cell for cell before anything is reported:
    // parallelism and replay may only move the wall clock.
    let mut phase_mismatches = 0;
    for (s, p) in serial.cells.iter().zip(parallel.cells.iter()) {
        if s.digest != p.digest {
            eprintln!(
                "PHASE MISMATCH {}: serial {:016x} != threads={} {:016x}",
                s.key, s.digest, parallel.threads, p.digest
            );
            phase_mismatches += 1;
        }
    }
    if phase_mismatches > 0 {
        eprintln!("{phase_mismatches} cell(s) differ between serial and pooled execution");
        std::process::exit(1);
    }

    for c in &parallel.cells {
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
        "serial {:.3}s -> threads={} cached {:.3}s ({:.2}x); trace cache {} hits / {} misses, {:.3}s generation saved",
        serial.wall_s,
        parallel.threads,
        parallel.wall_s,
        serial.wall_s / parallel.wall_s.max(1e-9),
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.saved().as_secs_f64()
    );

    // The run manifest feeds the v3 report fields below.
    let run_manifest = RunManifest::collect(
        "perf_gauge",
        parallel.threads,
        &monitor.names,
        &parallel_results,
        Some(cache_stats),
    );
    // Run-ahead batch telemetry, read out of each cell's registry before
    // the reports are dropped.
    let batch_cells: Vec<BatchCell> =
        parallel_results.iter().map(|r| BatchCell::from_registry(&r.value.registry)).collect();
    drop(parallel_results);

    // Optional component micro-benchmarks: raw queue ops plus the
    // vectorized analytic kernels, recorded in the
    // report so CI artifacts can attribute wall-clock movement.
    let micros = if micro::enabled_from_env() {
        let rs = micro::run_all();
        for r in &rs {
            eprintln!(
                "micro {:<28} {:>12.1} ops/s  ({:.1} ns/op)",
                r.name,
                r.ops_per_sec(),
                r.ns_per_iter
            );
        }
        rs
    } else {
        Vec::new()
    };

    let phases = [serial, parallel];
    let (serial, parallel) = (&phases[0], &phases[1]);

    let agg = parallel.rate();
    let baseline_agg = baseline.as_ref().map(|b| b.sim_ops_per_sec).filter(|&r| r > 0.0);
    let speedup = serial.wall_s / parallel.wall_s.max(1e-9);
    if plan.host_cpus == 1 && speedup < 1.0 {
        eprintln!(
            "note: speedup {speedup:.3}x < 1.0 on a 1-CPU host — pool overhead, not a simulator regression"
        );
    }

    let out_path = ndpx_sim::knobs::PERF_OUT.raw().unwrap_or_else(|| "BENCH_PERF.json".to_string());
    let json = render_json(
        scale,
        &phases,
        plan,
        &cache_stats,
        baseline_agg,
        &run_manifest,
        &micros,
        &batch_cells,
    );
    if let Some(base) = &baseline {
        check(base, &json);
    }
    std::fs::write(&out_path, json).expect("write BENCH_PERF.json");
    println!(
        "{agg:.0} simulated ops/sec over {} cells at {} thread(s) ({:.2}x vs serial) -> {out_path}",
        parallel.cells.len(),
        parallel.threads,
        serial.wall_s / parallel.wall_s.max(1e-9)
    );
}

/// Renders the report (`ndpx-perf-gauge-v6`: v5 plus the telemetry line —
/// whether windowed timelines and the phase profiler were active during the
/// measured run — and an explicit `pool_overhead` flag for sub-1.0 speedups
/// on single-CPU hosts). Hand-rolled: the workspace has no JSON dependency;
/// [`parse_perf`] reads every version back.
#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: BenchScale,
    phases: &[Phase],
    plan: ThreadPlan,
    cache_stats: &ndpx_workloads::TraceCacheStats,
    baseline_agg: Option<f64>,
    run_manifest: &RunManifest,
    micros: &[MicroResult],
    batch_cells: &[BatchCell],
) -> String {
    let (serial, parallel) = (&phases[0], &phases[1]);
    let agg = parallel.rate();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"ndpx-perf-gauge-v6\",");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale_name(scale));
    let _ = writeln!(s, "  \"threads\": {},", parallel.threads);
    let _ = writeln!(s, "  \"requested_threads\": {},", plan.requested);
    let _ = writeln!(s, "  \"host_cpus\": {},", plan.host_cpus);
    let _ = writeln!(s, "  \"oversubscribed\": {},", plan.oversubscribed());
    let _ = writeln!(s, "  \"ops_total\": {},", parallel.ops_total());
    let _ = writeln!(s, "  \"wall_seconds\": {:.3},", parallel.wall_s);
    let _ = writeln!(s, "  \"sim_ops_per_sec\": {agg:.1},");
    let _ = writeln!(s, "  \"events_total\": {},", run_manifest.events_total());
    let _ = writeln!(s, "  \"events_per_sec\": {:.1},", run_manifest.events_per_sec());
    let _ = writeln!(s, "  \"peak_queue_depth\": {},", run_manifest.peak_queue_depth());
    let _ = writeln!(s, "  \"serial_wall_seconds\": {:.3},", serial.wall_s);
    let _ = writeln!(s, "  \"serial_sim_ops_per_sec\": {:.1},", serial.rate());
    // `engine.events` is defined as completed ops (one queue event can
    // carry a whole run-ahead batch), so the serial event rate IS the
    // serial op rate; written explicitly so trend tooling need not know
    // that equivalence.
    let _ = writeln!(s, "  \"serial_events_per_sec\": {:.1},", serial.rate());
    let speedup = serial.wall_s / parallel.wall_s.max(1e-9);
    let _ = writeln!(s, "  \"parallel_speedup_vs_serial\": {speedup:.3},");
    // On a 1-CPU host the pool cannot win: the cached phase pays thread
    // spawn + channel overhead on the same core the serial phase had to
    // itself. Name that case rather than letting the sub-1.0 speedup read
    // as a simulator regression.
    let _ = writeln!(s, "  \"pool_overhead\": {},", plan.host_cpus == 1 && speedup < 1.0);
    let _ = writeln!(
        s,
        "  \"telemetry\": {{\"timeline\": {}, \"profile\": {}}},",
        timeline_active(),
        profile_active()
    );
    let _ = writeln!(
        s,
        "  \"trace_cache\": {{\"hits\": {}, \"misses\": {}, \"saved_seconds\": {:.3}}},",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.saved().as_secs_f64()
    );
    if let Some(b) = baseline_agg {
        let _ = writeln!(s, "  \"baseline_sim_ops_per_sec\": {b:.1},");
        let _ = writeln!(s, "  \"speedup_over_baseline\": {:.3},", agg / b);
    }
    let b = BatchCell::sum(batch_cells);
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
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"iters\": {}, \"ns_per_iter\": {:.2}, \"ops_per_sec\": {:.1}}}{comma}",
                m.name,
                m.iters,
                m.ns_per_iter,
                m.ops_per_sec()
            );
        }
        s.push_str("  ],\n");
    }
    s.push_str("  \"runs\": [\n");
    for (i, p) in phases.iter().enumerate() {
        let comma = if i + 1 < phases.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"threads\": {}, \"host_cpus\": {}, \"oversubscribed\": {}, \"trace_cache\": {}, \"wall_seconds\": {:.3}, \"sim_ops_per_sec\": {:.1}}}{comma}",
            p.threads,
            plan.host_cpus,
            p.threads > plan.host_cpus,
            p.cached,
            p.wall_s,
            p.rate()
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"per_policy\": {\n");
    for (i, policy) in PolicyKind::ALL.iter().enumerate() {
        let (ops, wall): (u64, f64) = parallel
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
    for (i, (c, m)) in parallel.cells.iter().zip(&run_manifest.cells).enumerate() {
        let comma = if i + 1 < parallel.cells.len() { "," } else { "" };
        let bc = batch_cells.get(i).copied().unwrap_or_default();
        let _ = writeln!(
            s,
            "    {{\"cell\": \"{}\", \"ops\": {}, \"wall_ms\": {:.1}, \"ops_per_sec\": {:.1}, \"worker\": {}, \"events_per_sec\": {:.1}, \"peak_queue_depth\": {}, \"batch_mean_len\": {:.3}, \"batch_fast_hit_ratio\": {:.4}, \"digest\": \"{:016x}\"}}{comma}",
            c.key,
            c.ops,
            c.wall_s * 1e3,
            c.ops_per_sec(),
            c.worker,
            m.events_per_sec(),
            m.peak_queue_depth,
            bc.mean_len(),
            bc.fast_hit_ratio(),
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
    if base.sim_ops_per_sec > 0.0 {
        eprintln!(
            "digests unchanged; speedup over baseline: {:.2}x",
            cur.sim_ops_per_sec / base.sim_ops_per_sec
        );
    } else {
        eprintln!("digests unchanged ({} cells)", cur.cells.len());
    }
}

/// True when `NDPX_TIMELINE` pointed the run at a timeline output path.
fn timeline_active() -> bool {
    ndpx_sim::knobs::TIMELINE.path().is_some()
}

/// True when `NDPX_PROFILE` enabled the sim-phase profiler.
fn profile_active() -> bool {
    ndpx_sim::knobs::PROFILE.bool_or(false)
}
