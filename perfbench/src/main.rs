//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <hit-path|miss-path|reconfig> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Every workload runs on the bench harness's `test` profile (16 NDP units
//! on 4 stacks, 1 MB per unit, 200k-cycle epochs, 20k trace ops per core)
//! in one process and one thread. The seed feeds `ScaleParams::seed`, so it
//! alone decides the generated traces.
//!
//! With `--trace 0` the benchmark sets the workload up (trace generation
//! plus system construction), runs every cell once untimed as a warm-up,
//! then runs whole rounds of cells for about `--seconds`, setting up again
//! at even intervals. It reports simulated ops per host second over each
//! cell's fastest timed `run` call, the median set-up time (`setup_s`) and
//! the process's peak RSS. Rounds rotate over the allowed CPUs
//! (`affinity`), and both times are scaled to a reference machine speed by
//! a fixed probe kernel run after every round (`probe`); the raw figures
//! are printed beside them.
//!
//! With `--trace 1` it sets up once, runs each cell in rounds of an
//! untraced and a traced run (plus, for a reconfiguring cell, a run of its
//! NDPExt-static twin), times each layer's public entry points in
//! isolation, and attributes the run time to layers as counter × per-op
//! cost. Spans are kept in memory and written to `--spans` at exit.
//!
//! Every run is checked (op conservation, a repeatable digest, and whether
//! the cell reconfigured as its workload requires); a run that fails a
//! check counts as a failed operation. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod affinity;
mod layers;
mod probe;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use ndpx_bench::digest::report_digest;
use ndpx_bench::runner::BenchScale;
use ndpx_core::config::{MemKind, PolicyKind, SystemConfig};
use ndpx_core::host::{HostConfig, HostSystem};
use ndpx_core::stats::RunReport;
use ndpx_core::system::NdpSystem;
use ndpx_workloads::{CachedTrace, ScaleParams, TraceKey};

use layers::{median, ratio, Counts, RuntimeWork};
use spans::Recorder;

/// The bench harness profile every workload runs at. At `test` a cell's
/// run lasts tens of milliseconds, so a timed region holds hundreds of runs
/// and its fastest ones fall between the bursts of outside interference
/// that slow a shared virtual machine for seconds at a time; a `small` run
/// lasts seconds and rarely escapes them (see README.md).
const SCALE: BenchScale = BenchScale::Test;
/// Set-ups per measuring run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Rounds of timed runs per cell in the traced run.
const TRACE_ROUNDS: usize = 15;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 0xBEEF, seconds: 10.0, trace: false, spans: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            "--spans" => args.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What a cell simulates on.
enum Machine {
    Ndp(Box<SystemConfig>),
    Host(HostConfig),
}

/// One simulation of a workload: a trace on a machine.
struct Cell {
    label: String,
    /// Index into the workload's trace list.
    trace: usize,
    machine: Machine,
    ops_per_core: u64,
}

/// A constructed, not yet run, system.
enum Sys {
    Ndp(Box<NdpSystem>),
    Host(Box<HostSystem>),
}

impl Sys {
    fn run(&mut self, ops_per_core: u64) -> RunReport {
        match self {
            Sys::Ndp(s) => s.run(ops_per_core),
            Sys::Host(s) => s.run(ops_per_core),
        }
    }
}

impl Cell {
    fn is_host(&self) -> bool {
        matches!(self.machine, Machine::Host(_))
    }

    /// Span layer of the cell's system (`core` or `host`).
    fn layer(&self) -> &'static str {
        if self.is_host() {
            "host"
        } else {
            "core"
        }
    }

    fn reconfigures(&self) -> bool {
        matches!(&self.machine, Machine::Ndp(c) if c.policy.reconfigures())
    }

    fn cores(&self) -> usize {
        match &self.machine {
            Machine::Ndp(c) => c.units(),
            Machine::Host(c) => c.cores,
        }
    }

    /// For a reconfiguring NDP cell, the same cell under NDPExt-static.
    fn static_twin(&self) -> Option<Cell> {
        let Machine::Ndp(cfg) = &self.machine else { return None };
        if !cfg.policy.reconfigures() {
            return None;
        }
        let mut cfg = cfg.clone();
        cfg.policy = PolicyKind::NdpExtStatic;
        let trace_name = self.label.split('/').next().unwrap_or_default();
        Some(Cell {
            label: format!("{trace_name}/{} twin", cfg.policy.label()),
            trace: self.trace,
            machine: Machine::Ndp(cfg),
            ops_per_core: self.ops_per_core,
        })
    }

    fn build(&self, trace: &Arc<CachedTrace>) -> Sys {
        match &self.machine {
            Machine::Ndp(cfg) => {
                let sys =
                    NdpSystem::new((**cfg).clone(), trace.workload()).expect("consistent cell");
                Sys::Ndp(Box::new(sys))
            }
            Machine::Host(cfg) => {
                let sys = HostSystem::new(cfg.clone(), trace.workload()).expect("consistent cell");
                Sys::Host(Box::new(sys))
            }
        }
    }
}

/// A workload: the traces it generates and the cells that replay them.
struct Plan {
    /// The NDP configuration the layer micro-benchmarks mirror.
    ndp: SystemConfig,
    traces: Vec<TraceKey>,
    cells: Vec<Cell>,
}

/// The profile's NDP configuration under `policy`, epochs cut by `epoch_div`.
fn ndp_config(policy: PolicyKind, epoch_div: u64) -> SystemConfig {
    let mut cfg = SCALE.system(MemKind::Hbm, policy);
    cfg.epoch_cycles /= epoch_div;
    cfg
}

fn plan(workload: &str, seed: u64) -> Option<Plan> {
    let ndp = SCALE.system(MemKind::Hbm, PolicyKind::NdpExt);
    let ops_per_core = SCALE.ops_per_core();
    let ndp_params = ScaleParams { seed, ..SCALE.workload(&ndp) };
    let ndp_trace = |name| TraceKey::new(name, &ndp_params, ops_per_core);
    let ndp_cell = |trace: usize, name: &str, policy: PolicyKind, epoch_div: u64| Cell {
        label: format!("{name}/{}", policy.label()),
        trace,
        machine: Machine::Ndp(Box::new(ndp_config(policy, epoch_div))),
        ops_per_core,
    };
    let (traces, cells) = match workload {
        "hit-path" => {
            // Host sizing as `ndpx_bench::runner::run_host_cached` does it
            // at the `test` profile (it does not expose the sizing on its
            // own): one host core per NDP unit running the same op count,
            // the LLC scaled with the NDP cache at the paper's 1:512 ratio
            // (floored at 256 KB), and a footprint of 4x that cache.
            let cache = ndp.units() as u64 * ndp.unit_capacity;
            let cores = ndp.units();
            let host_ops = ops_per_core;
            let host_params = ScaleParams { cores, footprint: cache * 4, seed };
            let host =
                HostConfig { llc_bytes: (cache / 512).max(256 << 10), ..HostConfig::test(cores) };
            (
                vec![ndp_trace("tc"), TraceKey::new("hotspot", &host_params, host_ops)],
                vec![
                    ndp_cell(0, "tc", PolicyKind::NdpExtStatic, 1),
                    Cell {
                        label: "hotspot/host".to_string(),
                        trace: 1,
                        machine: Machine::Host(host),
                        ops_per_core: host_ops,
                    },
                ],
            )
        }
        "miss-path" => (
            vec![ndp_trace("bfs")],
            vec![
                ndp_cell(0, "bfs", PolicyKind::NdpExtStatic, 1),
                ndp_cell(0, "bfs", PolicyKind::StaticInterleave, 1),
            ],
        ),
        "reconfig" => (
            vec![ndp_trace("bfs"), ndp_trace("recsys")],
            vec![
                ndp_cell(0, "bfs", PolicyKind::NdpExt, 10),
                ndp_cell(1, "recsys", PolicyKind::NdpExt, 10),
            ],
        ),
        _ => return None,
    };
    Some(Plan { ndp, traces, cells })
}

/// Generated traces plus one freshly constructed system per cell.
struct Built {
    traces: Vec<Arc<CachedTrace>>,
    systems: Vec<Sys>,
}

/// Generates every trace (graph included) and constructs every system.
fn set_up(plan: &Plan, rec: &mut Recorder) -> Built {
    let traces: Vec<Arc<CachedTrace>> = plan
        .traces
        .iter()
        .map(|k| {
            rec.span("workloads", "materialize", k.workload, || {
                Arc::new(CachedTrace::materialize(k))
            })
        })
        .collect();
    let systems = plan
        .cells
        .iter()
        .map(|c| rec.span(c.layer(), "new", &c.label, || c.build(&traces[c.trace])))
        .collect();
    Built { traces, systems }
}

/// Per-run correctness checks; a run failing any of them is a failed op.
struct Checker {
    digests: Vec<Option<u64>>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(cells: usize) -> Self {
        Checker { digests: vec![None; cells], attempted: 0, failed: 0 }
    }

    fn check(&mut self, i: usize, cell: &Cell, r: &RunReport) {
        self.attempted += 1;
        let mut errs: Vec<String> = Vec::new();
        let want = cell.cores() as u64 * cell.ops_per_core;
        if r.ops != want {
            errs.push(format!("ops {} != cores x ops_per_core {want}", r.ops));
        }
        let d = report_digest(r);
        match self.digests[i] {
            None => self.digests[i] = Some(d),
            Some(first) if first != d => errs.push(format!("digest {d:016x} != {first:016x}")),
            Some(_) => {}
        }
        if cell.reconfigures() {
            if r.reconfigs == 0 || r.migrations == 0 {
                errs.push(format!(
                    "expected reconfiguration, got {} reconfigs / {} migrations",
                    r.reconfigs, r.migrations
                ));
            }
        } else if r.migrations != 0 {
            errs.push(format!("non-reconfiguring cell migrated {} entries", r.migrations));
        }
        if !errs.is_empty() {
            self.failed += 1;
            eprintln!("perfbench: check failed for {}: {}", cell.label, errs.join("; "));
        }
    }
}

/// One reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Appends `<layer>.<leaf>`. Names are joined at run time because a literal
/// such as `"core.run_s"` would be judged a stat-registry path, and
/// rejected, by `ndpx-lint`'s stat-path rule.
fn put(out: &mut Vec<Metric>, layer: &str, leaf: &str, value: f64, unit: &'static str) {
    out.push((format!("{layer}.{leaf}"), value, unit));
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times one set-up repetition into `times`.
fn timed_set_up(plan: &Plan, rec: &mut Recorder, times: &mut Vec<f64>) -> Built {
    let t0 = Instant::now();
    let built = set_up(plan, rec);
    times.push(t0.elapsed().as_secs_f64());
    eprintln!("perfbench: set-up {}: {:.3} s", times.len() - 1, times[times.len() - 1]);
    built
}

/// The untraced measuring run: end-to-end metrics only.
fn measure(plan: &Plan, args: &Args) -> (Checker, Vec<Metric>) {
    let mut rec = Recorder::new(false);
    let mut checker = Checker::new(plan.cells.len());
    let mut setups: Vec<f64> = Vec::new();
    let Built { mut traces, systems } = timed_set_up(plan, &mut rec, &mut setups);

    // Warm-up round on the systems of the first set-up. The first run of a
    // cell in a process pays for a cold allocator and first-touch page
    // faults; that cost is checked but counted in neither metric.
    for (i, (cell, mut sys)) in plan.cells.iter().zip(systems).enumerate() {
        let t0 = Instant::now();
        let r = sys.run(cell.ops_per_core);
        eprintln!(
            "perfbench: warm-up {}: {:.3} s, {} reconfigs, {} migrations",
            cell.label,
            t0.elapsed().as_secs_f64(),
            r.reconfigs,
            r.migrations
        );
        checker.check(i, cell, &r);
    }
    // Peak memory of one set-up plus one run of every cell. Read here: the
    // later set-ups reuse freed memory, and whether the allocator's reuse
    // raises the high-water mark varies from process to process.
    let peak_rss = peak_rss_mb();

    // Timed region: whole rounds of every cell, so each cell contributes the
    // same number of runs, while the next round is expected (from the last
    // one) to end within `--seconds`. Only `run` is timed; constructing each
    // round's fresh systems is not. Every round of a cell does identical
    // work (the digest check proves it), so what varies between rounds is
    // interference from outside the process, which only ever adds time: a
    // cell's time is its fastest round. One probe run closes each round;
    // the region's fastest probe run scales both end-to-end times.
    //
    // Rounds go to each allowed CPU in turn (`affinity`), so a CPU that is
    // slow for the whole region does not set the fastest round.
    //
    // The other set-up repetitions are spread evenly over the region, so
    // their median spans the region's speed phases rather than its first
    // second, each on the CPU with the fastest round so far. Each replaces
    // the traces the rounds replay (identical ones: the digest check covers
    // every round), and the old set-up is dropped first, so each allocates
    // afresh and no two are alive at once.
    let cpus = affinity::allowed();
    let mut cpu_best = vec![f64::INFINITY; cpus.len()];
    let pin_best = |cpu_best: &[f64]| {
        let best = (0..cpus.len()).min_by(|&a, &b| cpu_best[a].total_cmp(&cpu_best[b]));
        if let Some(i) = best.filter(|&i| cpu_best[i].is_finite()) {
            affinity::pin(cpus[i]);
        }
    };
    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); plan.cells.len()];
    let mut ops = vec![0u64; plan.cells.len()];
    let mut probe_s = f64::INFINITY;
    let (mut rounds, mut last_round) = (0u32, 0.0f64);
    while rounds == 0 || start.elapsed().as_secs_f64() + last_round <= args.seconds {
        let due = setups.len() as f64 * args.seconds / SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            pin_best(&cpu_best);
            drop(std::mem::take(&mut traces));
            traces = timed_set_up(plan, &mut rec, &mut setups).traces;
        }
        let slot = (!cpus.is_empty()).then(|| rounds as usize % cpus.len());
        if let Some(slot) = slot {
            affinity::pin(cpus[slot]);
        }
        let round_start = Instant::now();
        let mut round_run = 0.0;
        for (i, cell) in plan.cells.iter().enumerate() {
            let mut sys = cell.build(&traces[cell.trace]);
            let t0 = Instant::now();
            let r = sys.run(cell.ops_per_core);
            let dt = t0.elapsed().as_secs_f64();
            eprintln!("perfbench: round {rounds} {}: {dt:.4} s", cell.label);
            times[i].push(dt);
            round_run += dt;
            ops[i] = r.ops;
            checker.check(i, cell, &r);
        }
        if let Some(slot) = slot {
            cpu_best[slot] = cpu_best[slot].min(round_run);
        }
        let p = probe::run();
        eprintln!("perfbench: round {rounds} probe: {:.3} ms", p * 1e3);
        probe_s = probe_s.min(p);
        last_round = round_start.elapsed().as_secs_f64();
        rounds += 1;
    }
    pin_best(&cpu_best);
    while setups.len() < SETUP_REPS {
        drop(std::mem::take(&mut traces));
        traces = timed_set_up(plan, &mut rec, &mut setups).traces;
    }
    let round_ops: u64 = ops.iter().sum();
    let round_s: f64 = times.iter().map(|t| t.iter().copied().fold(f64::INFINITY, f64::min)).sum();
    let raw_ops_per_s = round_ops as f64 / round_s;
    let raw_setup_s = median(&mut setups);
    eprintln!("perfbench: {rounds} timed rounds; {round_ops} ops in {round_s:.4} s (fastest runs)");
    // Raw figures, for reading next to the scaled metrics; not reported.
    println!(
        "raw: sim_ops_per_s {raw_ops_per_s:.0}, setup_s {raw_setup_s:.4}; fastest probe run {:.4} ms; \
         fastest round per CPU {cpus:?}: {:.1?} ms",
        probe_s * 1e3,
        cpu_best.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );

    let metrics = vec![
        ("sim_ops_per_s".to_string(), raw_ops_per_s * probe_s / probe::REF_S, "1/s"),
        ("setup_s".to_string(), raw_setup_s * probe::REF_S / probe_s, "s"),
        ("peak_rss_mb".to_string(), peak_rss, "MB"),
    ];
    (checker, metrics)
}

/// The traced run: per-layer metrics and the attribution.
fn trace(plan: &Plan, args: &Args) -> (Checker, Vec<Metric>, Recorder) {
    let mut rec = Recorder::new(true);
    // Checker slots: one per cell, then one per cell's NDPExt-static twin.
    let n = plan.cells.len();
    let mut checker = Checker::new(2 * n);
    rec.enter("perfbench", "workload", &args.workload);
    rec.enter("perfbench", "setup", &args.workload);
    let Built { traces, systems } = set_up(plan, &mut rec);
    rec.exit();

    // Per cell: an untimed warm-up on the set-up's system, then rounds of an
    // untraced run, a traced run and, for a reconfiguring cell, a run of its
    // NDPExt-static twin: the same trace and initial placement without
    // reconfiguration, so the difference in run time is what the runtime and
    // its migrations cost, measured rather than modelled. Each kind's time
    // is its fastest run, as in the measuring run.
    let mut counts = Counts::default();
    let mut work: Vec<RuntimeWork> = Vec::new();
    let (mut core_run, mut host_run, mut plain_run) = (0.0f64, 0.0f64, 0.0f64);
    // Reconfiguring cells: untraced time, and that of their static twins.
    let (mut reconf_run, mut twin_run) = (0.0f64, 0.0f64);
    let mut digest = 0u64;
    for (i, (cell, mut sys)) in plan.cells.iter().zip(systems).enumerate() {
        let trace = &traces[cell.trace];
        let warm = sys.run(cell.ops_per_core);
        checker.check(i, cell, &warm);

        let timed = |cell: &Cell, rec: Option<&mut Recorder>| {
            let mut sys = cell.build(trace);
            let t0 = Instant::now();
            let r = match rec {
                Some(rec) => {
                    rec.span(cell.layer(), "run", &cell.label, || sys.run(cell.ops_per_core))
                }
                None => sys.run(cell.ops_per_core),
            };
            (r, t0.elapsed().as_secs_f64())
        };
        let twin = cell.static_twin();
        let (mut plain_s, mut traced, mut twin_s) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        let mut r = warm;
        for _ in 0..TRACE_ROUNDS {
            let (a, a_s) = timed(cell, None);
            checker.check(i, cell, &a);
            plain_s = plain_s.min(a_s);
            let (t, t_s) = timed(cell, Some(&mut rec));
            checker.check(i, cell, &t);
            traced = traced.min(t_s);
            r = t;
            if let Some(twin) = &twin {
                let (x, x_s) = timed(twin, None);
                checker.check(n + i, twin, &x);
                twin_s = twin_s.min(x_s);
            }
        }
        plain_run += plain_s;
        if twin.is_some() {
            reconf_run += plain_s;
            twin_run += twin_s;
        }

        counts.add(&r, cell.is_host());
        digest = digest.rotate_left(17) ^ report_digest(&r);
        if cell.is_host() {
            host_run += traced;
        } else {
            core_run += traced;
            work.push(RuntimeWork {
                streams: trace.table.len(),
                epochs: r.reconfigs,
                reconfigures: cell.reconfigures(),
                observed: r.cache_hits + r.cache_misses,
            });
        }
    }

    let ndp_traces: Vec<Arc<CachedTrace>> =
        plan.cells.iter().filter(|c| !c.is_host()).map(|c| Arc::clone(&traces[c.trace])).collect();
    rec.enter("perfbench", "micro", &args.workload);
    let micro = layers::measure(&mut rec, &args.workload, &plan.ndp, &ndp_traces, args.seed);
    rec.exit();
    rec.exit();

    let span_sum = |layer: &str, name: &str| -> f64 {
        rec.spans().iter().filter(|s| s.layer == layer && s.name == name).map(|s| s.secs()).sum()
    };
    let c = &counts;
    let mut m: Vec<Metric> = Vec::new();
    put(&mut m, "workloads", "gen_s", span_sum("workloads", "materialize"), "s");
    let trace_bytes: u64 = plan.traces.iter().map(TraceKey::approx_bytes).sum();
    put(&mut m, "workloads", "trace_mb", trace_bytes as f64 / 1e6, "MB");
    put(&mut m, "workloads", "replay_ns_per_op", micro.replay_ns, "ns");
    put(&mut m, "core", "new_s", span_sum("core", "new") + span_sum("host", "new"), "s");
    put(&mut m, "core", "run_s", core_run, "s");
    put(&mut m, "host", "run_s", host_run, "s");
    put(&mut m, "core", "ops", c.ndp_ops as f64, "count");
    put(&mut m, "core", "mem_ops", c.mem_ops as f64, "count");
    put(&mut m, "core", "l1_hit_ratio", ratio(c.l1_hits, c.mem_ops), "ratio");
    put(&mut m, "core", "dram_cache_hit_ratio", ratio(c.cache_hits, c.post_l1()), "ratio");
    put(&mut m, "core", "local_hit_ratio", ratio(c.local_hits, c.cache_hits), "ratio");
    put(&mut m, "core", "slb_misses", c.slb_misses as f64, "count");
    put(&mut m, "core", "metadata_dram", c.metadata_dram as f64, "count");
    put(&mut m, "core", "reconfigs", c.reconfigs as f64, "count");
    put(&mut m, "core", "migrations", c.migrations as f64, "count");
    put(&mut m, "core", "invalidations", c.invalidations as f64, "count");
    put(&mut m, "core", "sim_us", c.sim_ps as f64 / 1e6, "us");
    // An identity of the simulated results, not a quantity with a better
    // direction, so it is printed rather than reported as a metric.
    println!("core.digest {digest:016x}");
    put(&mut m, "engine", "queue.processed", c.queue_processed as f64, "count");
    put(&mut m, "engine", "queue.overflow_scheduled", c.queue_overflow as f64, "count");
    put(&mut m, "engine", "batch.mean_len", ratio(c.batch_ops, c.batches), "ops");
    put(&mut m, "engine", "batch.fast_hit_ratio", ratio(c.fast_hits, c.batch_ops), "ratio");
    put(&mut m, "engine", "queue_ns_per_op", micro.queue_ns, "ns");
    put(&mut m, "cache", "l1.accesses", c.l1_accesses as f64, "count");
    put(&mut m, "cache", "slb.accesses", c.slb_accesses as f64, "count");
    put(&mut m, "cache", "meta.accesses", c.meta_accesses as f64, "count");
    put(&mut m, "cache", "meta.hit_ratio", ratio(c.meta_hits, c.meta_accesses), "ratio");
    put(&mut m, "cache", "access_ns", micro.l1_ns, "ns");
    put(&mut m, "cache", "slb_access_ns", micro.slb_ns, "ns");
    put(&mut m, "cache", "meta_access_ns", micro.meta_ns, "ns");
    put(&mut m, "noc", "messages", c.noc_messages as f64, "count");
    put(&mut m, "noc", "intra_hops", c.intra_hops as f64, "count");
    put(&mut m, "noc", "inter_hops", c.inter_hops as f64, "count");
    put(&mut m, "noc", "link_busy_ps", c.link_busy_ps as f64, "ps");
    put(&mut m, "noc", "peak_wait_ps", c.peak_wait_ps as f64, "ps");
    put(&mut m, "noc", "send_ns", micro.noc_ns, "ns");
    put(&mut m, "mem", "dram.accesses", c.dram_accesses as f64, "count");
    put(&mut m, "mem", "dram.row_hit_ratio", ratio(c.dram_row_hits, c.dram_accesses), "ratio");
    put(&mut m, "mem", "dram.activates", c.dram_activates as f64, "count");
    put(&mut m, "mem", "access_ns", micro.mem_ns, "ns");
    put(&mut m, "cxl", "requests", c.cxl_requests as f64, "count");
    let cxl_lat = ratio(c.cxl_latency_ps, c.cxl_latency_n) / 1e3;
    put(&mut m, "cxl", "mean_latency_ns", cxl_lat, "ns");
    let ddr_hits = ratio(c.cxl_ddr_row_hits, c.cxl_ddr_accesses);
    put(&mut m, "cxl", "ddr.row_hit_ratio", ddr_hits, "ratio");
    put(&mut m, "cxl", "access_ns", micro.cxl_ns, "ns");
    let shapes = micro.shapes.len() as f64;
    let allocate_ms = micro.shapes.iter().map(|s| s.allocate_ms).sum::<f64>() / shapes;
    let assign_us = micro.shapes.iter().map(|s| s.assign_us).sum::<f64>() / shapes;
    put(&mut m, "runtime", "allocate_ms", allocate_ms, "ms");
    put(&mut m, "runtime", "assign_us", assign_us, "us");
    put(&mut m, "runtime", "assign_fig4b_us", micro.assign_fig4b_us, "us");
    put(&mut m, "runtime", "rehash_us", micro.rehash_us, "us");
    put(&mut m, "runtime", "observe_ns", micro.observe_ns, "ns");
    let paired = reconf_run - twin_run;
    put(&mut m, "runtime", "paired_s", paired, "s");
    let paired_share = if reconf_run > 0.0 { paired / reconf_run } else { 0.0 };
    put(&mut m, "runtime", "paired_share", paired_share, "ratio");

    let measured = core_run + host_run;
    let attrib = layers::attribute(c, &micro, &work);
    let modelled: f64 = attrib.iter().map(|(_, s)| s).sum();
    for (layer, secs) in &attrib {
        put(&mut m, "attrib", &format!("{layer}_s"), *secs, "s");
    }
    let share = |names: &[&str]| -> f64 {
        attrib.iter().filter(|(l, _)| names.contains(l)).map(|(_, s)| s).sum::<f64>() / measured
    };
    put(&mut m, "attrib", "runtime_share", share(&["runtime"]), "ratio");
    put(&mut m, "attrib", "noc_mem_cxl_share", share(&["noc", "mem", "cxl"]), "ratio");
    put(&mut m, "attrib", "residual_s", measured - modelled, "s");
    put(&mut m, "attrib", "residual_share", (measured - modelled) / measured, "ratio");
    put(&mut m, "trace", "overhead_ratio", measured / plain_run, "ratio");
    (checker, m, rec)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = plan(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (hit-path, miss-path, reconfig)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let (checker, metrics) = if args.trace {
        let (checker, metrics, rec) = trace(&plan, &args);
        println!("{:<12} {:>6} {:>10} {:>10}", "span layer", "spans", "total_s", "self_s");
        for (layer, n, total, own) in rec.layer_table() {
            println!("{layer:<12} {n:>6} {total:>10.4} {own:>10.4}");
        }
        if let Some(path) = &args.spans {
            if let Err(e) = rec.write_json(path) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
        (checker, metrics)
    } else {
        measure(&plan, &args)
    };

    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    let correct = checker.failed == 0 && checker.attempted > 0;
    println!(
        "checks: {} of {} runs passed ({})",
        checker.attempted - checker.failed,
        checker.attempted,
        if correct { "correct" } else { "FAILED" }
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
