//! Shared bench-harness machinery: scale selection, run execution, and
//! result formatting.
//!
//! All figure binaries accept the `NDPX_SCALE` environment variable:
//! `test` (seconds, CI-sized), `small` (default, minutes), or `paper`
//! (the full Table II geometry; long). Runs at one scale are directly
//! comparable: every policy executes the identical op stream.
//!
//! The simulator crates read no environment. The fault, chaos and
//! telemetry knobs reach a run only through [`Overrides`], which the
//! harness parses once at start-up.

use ndpx_core::config::{MemKind, PolicyKind, SystemConfig, TelemetryConfig};
use ndpx_core::host::{HostConfig, HostSystem};
use ndpx_core::stats::RunReport;
use ndpx_core::system::NdpSystem;
use ndpx_sim::chaos::ChaosConfig;
use ndpx_sim::fault::{self, FaultConfig};
use ndpx_sim::telemetry::log::{self, Level};
use ndpx_sim::telemetry::{TimelineConfig, TraceConfig};
use ndpx_sim::time::Time;
use ndpx_workloads::replay::DEFAULT_CACHE_BYTES;
use ndpx_workloads::trace::ScaleParams;
use ndpx_workloads::TraceCache;

use crate::knobs::{self, Knob};
use crate::pool::{expect_ok, CellPool, CellResult, CellTask, MonitorConfig, ThreadPlan};

/// Benchmark scale profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// Tiny: 16 units, small footprints; for smoke runs and CI.
    Test,
    /// Default: the paper's 128-unit topology at reduced capacity.
    Small,
    /// Full Table II geometry and capacities (slow).
    Paper,
}

impl BenchScale {
    /// Parses a scale name; `None` and the empty string map to the default
    /// ([`BenchScale::Small`]), any other unknown name is an error naming
    /// the allowed values. Pure so tests need not touch the (process
    /// global, racy) environment.
    ///
    /// # Errors
    ///
    /// Returns a message if `value` is set to an unknown name.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value {
            None | Some("" | "small") => Ok(BenchScale::Small),
            Some("test") => Ok(BenchScale::Test),
            Some("paper") => Ok(BenchScale::Paper),
            Some(other) => Err(format!(
                "{}={other:?} is not a scale; use one of test, small, paper",
                knobs::SCALE.name
            )),
        }
    }

    /// The NDP system configuration at this scale.
    pub fn system(self, mem: MemKind, policy: PolicyKind) -> SystemConfig {
        match self {
            BenchScale::Test => {
                let mut cfg = SystemConfig::test(policy);
                cfg.mem_kind = mem;
                cfg
            }
            BenchScale::Small => SystemConfig::bench(mem, policy),
            BenchScale::Paper => SystemConfig::paper(mem, policy),
        }
    }

    /// Workload scale parameters for a system with `cores` cores. The
    /// footprint is sized at 1.2× the NDP cache: the paper runs workload
    /// processes "until the total footprint exceeds the NDP memory", i.e.
    /// the cache holds most but not all of the data.
    pub fn workload(self, cfg: &SystemConfig) -> ScaleParams {
        let cache = cfg.units() as u64 * cfg.unit_capacity;
        ScaleParams { cores: cfg.units(), footprint: cache * 6 / 5, seed: 0xBEEF }
    }

    /// Trace operations per core for headline runs.
    pub fn ops_per_core(self) -> u64 {
        match self {
            BenchScale::Test => 20_000,
            BenchScale::Small => 30_000,
            BenchScale::Paper => 400_000,
        }
    }
}

/// Unwraps a start-up parse, or prints the error and ends the process with
/// exit status 2: a bad knob must stop the run before any cell simulates.
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Everything a bench binary reads from its environment at start-up,
/// checked before any cell runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEnv {
    /// `NDPX_SCALE`.
    pub scale: BenchScale,
    /// `NDPX_THREADS`.
    pub threads: ThreadPlan,
    /// `NDPX_TRACE_CACHE_BYTES`; `0` sends every trace request to live
    /// generation.
    pub trace_budget: u64,
    /// The fault, chaos and telemetry knobs.
    pub overrides: Overrides,
    /// `NDPX_LOG`: the stderr log level (`None` logs nothing).
    pub log: Option<Level>,
}

impl BenchEnv {
    /// Reads the knobs from the process environment and sets the log
    /// level; a bad value ends the process with exit status 2, naming the
    /// knob.
    pub fn from_env() -> Self {
        let env = or_exit(Self::parse(|k| k.raw()));
        log::set_max_level(env.log);
        env
    }

    /// Parses the knobs, reading each through `lookup`. A chaos schedule is
    /// also checked against the scale's topology of both memory families,
    /// so a target outside it stops the run here rather than in a cell.
    ///
    /// # Errors
    ///
    /// A message naming the first knob whose value is unusable.
    pub fn parse(lookup: impl Fn(&Knob) -> Option<String>) -> Result<Self, String> {
        let get = |knob: &Knob| lookup(knob).filter(|v| !v.trim().is_empty());
        let scale = BenchScale::parse(get(&knobs::SCALE).as_deref())?;
        let threads = ThreadPlan::parse(get(&knobs::THREADS).as_deref())?;
        let trace_budget =
            knob_value(get(&knobs::TRACE_CACHE_BYTES), &knobs::TRACE_CACHE_BYTES, |v| {
                v.parse::<u64>().map_err(|_| "not a byte count".to_string())
            })?
            .unwrap_or(DEFAULT_CACHE_BYTES);
        let log = knob_value(get(&knobs::LOG), &knobs::LOG, log::parse_level)?
            .unwrap_or(Some(Level::Warn));
        let overrides = Overrides::parse(&lookup)?;
        for (mem, _) in crate::gauge::GAUGE_MEMS {
            let mut cfg = scale.system(mem, PolicyKind::NdpExt);
            overrides.apply(&mut cfg);
            knob_value(get(&knobs::CHAOS), &knobs::CHAOS, |_| cfg.validate())?;
        }
        Ok(BenchEnv { scale, threads, trace_budget, overrides, log })
    }

    /// A trace cache at the budget.
    pub fn trace_cache(&self) -> TraceCache {
        TraceCache::with_budget(self.trace_budget)
    }
}

/// The fault, chaos and telemetry settings the harness applies to every
/// cell of a run, before the cell's own tweak. The default overrides
/// nothing: every field equals the configuration profiles' own.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overrides {
    /// `NDPX_FAULT_SEED` and the `NDPX_FAULT_*` rates.
    pub fault: FaultConfig,
    /// `NDPX_CHAOS` and `NDPX_CHAOS_RETRY_NS`.
    pub chaos: ChaosConfig,
    /// `NDPX_TRACE*`, `NDPX_TIMELINE*` and `NDPX_PROFILE`.
    pub telemetry: TelemetryConfig,
}

impl Overrides {
    /// Parses the knobs, reading each through `lookup`. A value that trims
    /// to empty counts as unset, as for `NDPX_SCALE`.
    ///
    /// # Errors
    ///
    /// A message naming the first knob whose value does not parse, is out
    /// of range, or (for `NDPX_CHAOS`) describes an inconsistent schedule.
    pub fn parse(lookup: impl Fn(&Knob) -> Option<String>) -> Result<Self, String> {
        let get = |knob: &Knob| lookup(knob).filter(|v| !v.trim().is_empty());
        let rate = |knob: &Knob, default: f64| -> Result<f64, String> {
            Ok(knob_value(get(knob), knob, fault::parse_rate)?.unwrap_or(default))
        };
        let count = |knob: &Knob| knob_value(get(knob), knob, positive);
        let fault = FaultConfig {
            seed: knob_value(get(&knobs::FAULT_SEED), &knobs::FAULT_SEED, fault::parse_seed)?,
            cxl_ber: rate(&knobs::FAULT_CXL_BER, fault::DEFAULT_CXL_BER)?,
            mem_ce: rate(&knobs::FAULT_MEM_CE, fault::DEFAULT_MEM_CE)?,
            mem_ue: rate(&knobs::FAULT_MEM_UE, fault::DEFAULT_MEM_UE)?,
            noc_fer: rate(&knobs::FAULT_NOC_FER, fault::DEFAULT_NOC_FER)?,
        };
        let retry_ns = count(&knobs::CHAOS_RETRY_NS)?;
        let chaos = knob_value(get(&knobs::CHAOS), &knobs::CHAOS, |spec| {
            let chaos = ChaosConfig::parse(Some(spec), retry_ns)?;
            chaos.validate().map(|()| chaos)
        })?
        .unwrap_or_default();

        let us = |knob: &Knob| {
            knob_value(get(knob), knob, |v| match v.parse::<f64>() {
                Ok(us) if us.is_finite() && us >= 0.0 => Ok(Time::from_ns_f64(us * 1e3)),
                _ => Err("not a non-negative number of microseconds".to_string()),
            })
        };
        let (start, stop) = (us(&knobs::TRACE_START)?, us(&knobs::TRACE_STOP)?);
        let trace_cap = count(&knobs::TRACE_CAP)?;
        let trace = get(&knobs::TRACE).map(|path| TraceConfig {
            start: start.unwrap_or(Time::ZERO),
            stop: stop.unwrap_or(Time::MAX),
            capacity: trace_cap.map_or(TraceConfig::DEFAULT_CAPACITY, |c| c as usize),
            ..TraceConfig::to_path(path)
        });
        let (window_ns, timeline_cap) =
            (count(&knobs::TIMELINE_WINDOW_NS)?, count(&knobs::TIMELINE_CAP)?);
        let timeline = get(&knobs::TIMELINE).map(|path| TimelineConfig {
            window: Time::from_ns(window_ns.unwrap_or(TimelineConfig::DEFAULT_WINDOW_NS)),
            capacity: timeline_cap.map_or(TimelineConfig::DEFAULT_CAPACITY, |c| c as usize),
            ..TimelineConfig::to_path(path)
        });
        let profile = knobs::parse_bool(get(&knobs::PROFILE).as_deref(), false);
        Ok(Overrides { fault, chaos, telemetry: TelemetryConfig { trace, timeline, profile } })
    }

    /// Sets the overridden fields of `cfg`.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        cfg.fault = self.fault;
        cfg.chaos = self.chaos.clone();
        cfg.telemetry = self.telemetry.clone();
    }

    /// `spec` with these overrides applied to its scale's configuration
    /// before its own tweak; unchanged when nothing is overridden.
    pub fn onto(&self, spec: RunSpec) -> RunSpec {
        if *self == Overrides::default() {
            return spec;
        }
        let (overrides, tweak) = (self.clone(), spec.tweak.clone());
        spec.with_tweak(move |cfg| {
            overrides.apply(cfg);
            if let Some(tweak) = &tweak {
                tweak(cfg);
            }
        })
    }
}

/// Parses a set knob's value, naming the knob in the error.
fn knob_value<T>(
    value: Option<String>,
    knob: &Knob,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    value.map(|v| parse(v.trim()).map_err(|e| format!("{}={v:?}: {e}", knob.name))).transpose()
}

/// Parses a positive integer.
fn positive(v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("not a positive integer".to_string()),
    }
}

/// A configuration mutation applied before a run (shared across threads).
pub type ConfigTweak = std::sync::Arc<dyn Fn(&mut SystemConfig) + Send + Sync>;

/// One simulation request.
#[derive(Clone)]
pub struct RunSpec {
    /// Memory family.
    pub mem: MemKind,
    /// Policy.
    pub policy: PolicyKind,
    /// Workload name.
    pub workload: &'static str,
    /// Scale profile.
    pub scale: BenchScale,
    /// Ops per core (defaults to the scale's headline count).
    pub ops_per_core: u64,
    /// Optional config tweak applied before the run.
    pub tweak: Option<ConfigTweak>,
}

impl std::fmt::Debug for RunSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunSpec")
            .field("mem", &self.mem)
            .field("policy", &self.policy)
            .field("workload", &self.workload)
            .field("ops_per_core", &self.ops_per_core)
            .field("tweaked", &self.tweak.is_some())
            .finish()
    }
}

impl RunSpec {
    /// Applies a configuration tweak (builder style).
    pub fn with_tweak(mut self, f: impl Fn(&mut SystemConfig) + Send + Sync + 'static) -> Self {
        self.tweak = Some(std::sync::Arc::new(f));
        self
    }

    /// A spec with the scale's default op count and no tweak.
    pub fn new(
        mem: MemKind,
        policy: PolicyKind,
        workload: &'static str,
        scale: BenchScale,
    ) -> Self {
        RunSpec { mem, policy, workload, scale, ops_per_core: scale.ops_per_core(), tweak: None }
    }

    /// The configuration the run simulates: the scale's, then the tweak.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = self.scale.system(self.mem, self.policy);
        if let Some(tweak) = &self.tweak {
            tweak(&mut cfg);
        }
        cfg
    }
}

/// Executes one NDP run with the workload trace served from `cache`
/// (generated live when the cache is disabled or over budget).
///
/// # Panics
///
/// Panics on unknown workloads or invalid configurations — bench inputs are
/// static.
pub fn run_ndp_cached(spec: &RunSpec, cache: &TraceCache) -> RunReport {
    let cfg = spec.config();
    let params = spec.scale.workload(&cfg);
    let trace_gen_start = std::time::Instant::now();
    let wl = cache.workload(spec.workload, &params, spec.ops_per_core);
    let trace_gen = trace_gen_start.elapsed();
    let mut sys = NdpSystem::new(cfg, wl).expect("config and workload are consistent");
    // Attributed post-hoc: the profiler (if the config asks for one) only
    // exists once the system does.
    sys.record_phase(ndpx_core::Phase::TraceGen, trace_gen);
    sys.run(spec.ops_per_core)
}

/// Executes the non-NDP host baseline on the same workload and op count,
/// with the trace served from `cache` and, if given, a timeline attached.
///
/// The host always uses 64 cores at `Small`/`Paper` scale and the NDP unit
/// count at `Test` scale (so the tiny profile stays comparable).
///
/// # Panics
///
/// Panics on unknown workloads — bench inputs are static.
pub fn run_host_cached(
    workload: &'static str,
    scale: BenchScale,
    ops_per_core: u64,
    timeline: Option<TimelineConfig>,
    cache: &TraceCache,
) -> RunReport {
    let ndp_cfg = scale.system(MemKind::Hbm, PolicyKind::NdpExt);
    let cores = match scale {
        BenchScale::Test => ndp_cfg.units(),
        _ => 64,
    };
    let mut host_cfg = match scale {
        BenchScale::Test => HostConfig::test(cores),
        _ => HostConfig::paper(),
    };
    host_cfg.cores = cores;
    host_cfg.timeline = timeline;
    // Scale the host LLC with the NDP cache, preserving the paper's
    // 32 MB : 16 GB (1:512) capacity ratio.
    let ndp_cache = ndp_cfg.units() as u64 * ndp_cfg.unit_capacity;
    host_cfg.llc_bytes = (ndp_cache / 512).max(256 << 10);
    let cache_bytes = ndp_cfg.units() as u64 * ndp_cfg.unit_capacity;
    let params = ScaleParams { cores, footprint: cache_bytes * 4, seed: 0xBEEF };
    // Equalize total work: the host runs the same total op count.
    let total_ops = ops_per_core * ndp_cfg.units() as u64;
    let host_ops = total_ops / cores as u64;
    let wl = cache.workload(workload, &params, host_ops);
    HostSystem::new(host_cfg, wl).expect("consistent").run(host_ops)
}

/// One named cell of a [`Session::run`] submission.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The cell's name in log lines and run documents: its sweep point, then
    /// `mem/policy/workload` or `host/workload`.
    pub name: String,
    sim: Sim,
}

/// What a cell simulates.
#[derive(Debug, Clone)]
enum Sim {
    Ndp(RunSpec),
    /// The host baseline on a workload at this many ops per core.
    Host(&'static str, u64),
}

/// Everything a cell's report depends on, compared field by field: two
/// cells with equal keys simulate the same run.
#[derive(Clone, PartialEq)]
enum CellKey {
    /// Workload, ops per core and the effective (post-tweak) configuration.
    Ndp(&'static str, u64, Box<SystemConfig>),
    Host(&'static str, u64, BenchScale),
}

impl Cell {
    /// An NDP cell named `<point><mem>/<policy>/<workload>`; `point` names
    /// the sweep point (e.g. `"bulk/"`) and is empty at a figure's default.
    pub fn ndp(point: &str, spec: RunSpec) -> Self {
        Cell { name: format!("{point}{}", crate::gauge::cell_key(&spec)), sim: Sim::Ndp(spec) }
    }

    /// The host baseline of `workload` ([`run_host_cached`] at the
    /// session's scale), named `host/<workload>`.
    pub fn host(workload: &'static str, ops_per_core: u64) -> Self {
        Cell { name: format!("host/{workload}"), sim: Sim::Host(workload, ops_per_core) }
    }

    fn key(&self, scale: BenchScale) -> CellKey {
        match &self.sim {
            Sim::Ndp(spec) => {
                CellKey::Ndp(spec.workload, spec.ops_per_core, Box::new(spec.config()))
            }
            Sim::Host(workload, ops) => CellKey::Host(workload, *ops, scale),
        }
    }
}

/// One evaluation session: the scale, pool and trace cache that every
/// figure of a process shares, and a memo of each cell it has simulated, so
/// a cell that several figures read runs once.
pub struct Session {
    /// Scale of the figures' specs and of the host cells.
    pub scale: BenchScale,
    pool: CellPool,
    /// Traces shared by every cell of the session.
    pub cache: TraceCache,
    /// Where each submission writes its run document (`NDPX_METRICS` by
    /// default; see [`crate::manifest`]).
    pub metrics: Option<std::path::PathBuf>,
    /// Applied to every NDP cell before its tweak; the host cells take the
    /// timeline.
    pub overrides: Overrides,
    memo: Vec<(CellKey, RunReport)>,
}

impl Session {
    /// A session with an empty memo and no overrides.
    pub fn new(scale: BenchScale, pool: CellPool, cache: TraceCache) -> Self {
        Session {
            scale,
            pool,
            cache,
            metrics: crate::manifest::metrics_dir(),
            overrides: Overrides::default(),
            memo: Vec::new(),
        }
    }

    /// A session at `NDPX_SCALE`, `NDPX_THREADS` and
    /// `NDPX_TRACE_CACHE_BYTES`, with the [`Overrides`] the environment
    /// sets ([`BenchEnv::from_env`]). A bad value ends the process with
    /// exit status 2.
    pub fn from_env() -> Self {
        let env = BenchEnv::from_env();
        let session = Self::new(env.scale, env.threads.pool(), env.trace_cache());
        Session { overrides: env.overrides, ..session }
    }

    /// How many distinct cells the session has simulated.
    pub fn simulated(&self) -> usize {
        self.memo.len()
    }

    fn recall(&self, key: &CellKey) -> Option<&RunReport> {
        self.memo.iter().find(|(k, _)| k == key).map(|(_, r)| r)
    }

    /// Returns one report per cell, in cell order. Only the cells the
    /// session has not simulated yet are submitted, each once, on the pool
    /// with heartbeats and the slow-cell watchdog; the run document named
    /// `run` lists exactly those cells. A cell never aborts its siblings:
    /// the document, which names every failed cell under `failed`, is
    /// written and the others memoized before a failure is escalated.
    ///
    /// # Errors
    ///
    /// A message naming the first new cell whose effective configuration
    /// is invalid, such as a chaos target outside its sweep point's
    /// topology; no cell runs then.
    ///
    /// # Panics
    ///
    /// If two distinct new cells share a name, or, once the submission has
    /// run, if any cell panicked.
    pub fn run(
        &mut self,
        run: &str,
        cells: impl IntoIterator<Item = Cell>,
    ) -> Result<Vec<RunReport>, String> {
        let cells: Vec<Cell> = cells
            .into_iter()
            .map(|cell| match cell.sim {
                Sim::Ndp(spec) => Cell { sim: Sim::Ndp(self.overrides.onto(spec)), ..cell },
                Sim::Host(..) => cell,
            })
            .collect();
        let keys: Vec<CellKey> = cells.iter().map(|c| c.key(self.scale)).collect();
        let mut fresh: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if self.recall(key).is_none() && !fresh.iter().any(|&j| keys[j] == *key) {
                let name = &cells[i].name;
                assert!(!fresh.iter().any(|&j| cells[j].name == *name), "{run}: two cells {name}");
                fresh.push(i);
            }
        }
        for &i in &fresh {
            if let CellKey::Ndp(_, _, cfg) = &keys[i] {
                cfg.validate().map_err(|e| {
                    // The chaos override is the one knob whose validity
                    // depends on a sweep point's topology.
                    let knob = if cfg.chaos == self.overrides.chaos && !cfg.chaos.events.is_empty()
                    {
                        format!("{}: ", knobs::CHAOS.name)
                    } else {
                        String::new()
                    };
                    format!("{knob}{run}: cell {}: {e}", cells[i].name)
                })?;
            }
        }
        let (scale, cache) = (self.scale, &self.cache);
        let timeline = &self.overrides.telemetry.timeline;
        let tasks: Vec<CellTask<'_, RunReport>> = fresh
            .iter()
            .map(|&i| match &cells[i].sim {
                Sim::Ndp(spec) => Box::new(move || run_ndp_cached(spec, cache)) as CellTask<'_, _>,
                Sim::Host(workload, ops) => Box::new(move || {
                    run_host_cached(workload, scale, *ops, timeline.clone(), cache)
                }),
            })
            .collect();
        let names = fresh.iter().map(|&i| cells[i].name.clone()).collect();
        let monitor = MonitorConfig::new(run, names);
        let results = self.pool.run_cells(Some(&monitor), tasks);
        let (dir, threads) = (self.metrics.as_deref(), self.pool.threads());
        crate::manifest::emit(dir, run, threads, &monitor.names, &results, cache.stats());
        let outcomes: Vec<_> = fresh
            .iter()
            .zip(results)
            .map(|(&i, r)| CellResult {
                value: r.value.map(|report| self.memo.push((keys[i].clone(), report))),
                worker: r.worker,
                wall_s: r.wall_s,
            })
            .collect();
        expect_ok(outcomes);
        Ok(keys.iter().map(|key| self.recall(key).expect("memoized above").clone()).collect())
    }
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        debug_assert!(v > 0.0, "geomean requires positive values");
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// Prints a Markdown-ish table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> =
        cells.iter().zip(widths.iter()).map(|(c, w)| format!("{c:>w$}")).collect();
    println!("{}", line.join("  "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_constants() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn scale_parse_names() {
        // The pure parser is tested instead of `from_env`: mutating the
        // process environment races against parallel tests.
        assert_eq!(BenchScale::parse(None), Ok(BenchScale::Small));
        assert_eq!(BenchScale::parse(Some("")), Ok(BenchScale::Small), "empty counts as unset");
        assert_eq!(BenchScale::parse(Some("test")), Ok(BenchScale::Test));
        assert_eq!(BenchScale::parse(Some("small")), Ok(BenchScale::Small));
        assert_eq!(BenchScale::parse(Some("paper")), Ok(BenchScale::Paper));
        // A typo is an error naming the allowed values, never a silent
        // fallback to another scale.
        let err = BenchScale::parse(Some("bogus")).expect_err("unknown scale");
        assert!(err.contains("bogus") && err.contains("test, small, paper"), "{err}");
    }

    /// A knob lookup over (knob, value) pairs.
    fn lookup<'a>(env: &'a [(&'a Knob, &'a str)]) -> impl Fn(&Knob) -> Option<String> + 'a {
        |k| env.iter().find(|(e, _)| e.name == k.name).map(|(_, v)| v.to_string())
    }

    /// Parses `env` (knob name, value) pairs through the lookup closure.
    fn overrides(env: &[(&Knob, &str)]) -> Result<Overrides, String> {
        Overrides::parse(lookup(env))
    }

    #[test]
    fn overrides_parse_every_knob_or_name_the_bad_one() {
        use knobs::*;
        assert_eq!(overrides(&[]), Ok(Overrides::default()), "unset overrides nothing");
        assert_eq!(overrides(&[(&FAULT_SEED, " "), (&CHAOS, "")]), Ok(Overrides::default()));

        let set = overrides(&[
            (&FAULT_SEED, "0x2A"),
            (&FAULT_MEM_CE, "1e-2"),
            (&CHAOS, "cxl-down@5us+20us;stack-down@20us:1"),
            (&CHAOS_RETRY_NS, "250"),
            (&TRACE, "t.json"),
            (&TRACE_START, "1.5"),
            (&TRACE_CAP, "64"),
            (&TIMELINE, "tl.json"),
            (&TIMELINE_WINDOW_NS, "5000"),
            (&PROFILE, "1"),
        ])
        .expect("valid values");
        assert_eq!(set.fault.seed, Some(42));
        assert_eq!(set.fault.mem_ce, 1e-2);
        assert_eq!(set.fault.cxl_ber, fault::DEFAULT_CXL_BER);
        assert_eq!(set.chaos.events.len(), 2);
        assert_eq!(set.chaos.retry, Time::from_ns(250));
        let trace = set.telemetry.trace.expect("trace path set");
        assert_eq!((trace.start, trace.stop, trace.capacity), (Time::from_ns(1500), Time::MAX, 64));
        let timeline = set.telemetry.timeline.expect("timeline path set");
        assert_eq!(timeline.window, Time::from_ns(5000));
        assert_eq!(timeline.capacity, TimelineConfig::DEFAULT_CAPACITY);
        assert!(set.telemetry.profile);

        // Each bad value is an error naming its knob, never a fallback.
        let bad: [(&Knob, &str); 12] = [
            (&FAULT_SEED, "nope"),
            (&FAULT_CXL_BER, "x"),
            (&FAULT_MEM_CE, "2"),
            (&FAULT_MEM_UE, "-1"),
            (&FAULT_NOC_FER, "NaN"),
            (&CHAOS, "bogus"),
            (&CHAOS, "cxl-down@10us"),
            (&CHAOS_RETRY_NS, "0"),
            (&TRACE_START, "-3"),
            (&TRACE_CAP, "many"),
            (&TIMELINE_WINDOW_NS, "0"),
            (&TIMELINE_CAP, "1.5"),
        ];
        for (knob, value) in bad {
            let err = overrides(&[(knob, value)]).expect_err(value);
            assert!(err.starts_with(&format!("{}=", knob.name)), "{err}");
        }
    }

    #[test]
    fn start_up_knobs_reject_typos_before_any_cell_runs() {
        use knobs::*;
        let env = |pairs: &[(&Knob, &str)]| BenchEnv::parse(lookup(pairs));
        let unset = env(&[]).expect("defaults");
        assert_eq!(unset.scale, BenchScale::Small);
        assert_eq!(unset.threads.requested, crate::pool::host_cpus());
        assert_eq!(unset.trace_budget, DEFAULT_CACHE_BYTES);
        assert_eq!(unset.overrides, Overrides::default());
        assert_eq!(unset.log, Some(Level::Warn));

        let set = env(&[
            (&SCALE, "test"),
            (&THREADS, "3"),
            (&TRACE_CACHE_BYTES, "0"),
            (&CHAOS, "stack-down@10us:3"),
            (&LOG, "debug"),
        ])
        .expect("valid values");
        assert_eq!((set.scale, set.threads.requested, set.trace_budget), (BenchScale::Test, 3, 0));
        assert_eq!(set.overrides.chaos.events.len(), 1);
        assert_eq!(set.log, Some(Level::Debug));
        assert_eq!(env(&[(&LOG, "off")]).map(|e| e.log), Ok(None));

        // The test topology has 4 stacks: target 9 names none of them.
        let bad: [(&Knob, &str); 7] = [
            (&SCALE, "tset"),
            (&THREADS, "abc"),
            (&TRACE_CACHE_BYTES, "abc"),
            (&TRACE_CACHE_BYTES, "-1"),
            (&CHAOS, "stack-down@10us:9"),
            (&FAULT_SEED, "nope"),
            (&LOG, "verbose"),
        ];
        for (knob, value) in bad {
            let err = env(&[(knob, value), (&SCALE, "test")]).expect_err(value);
            assert!(err.starts_with(&format!("{}=", knob.name)), "{err}");
        }

        let policies =
            |v: &str| crate::figures::sanity_policies(lookup(&[(&POLICY, v)])(&POLICY).as_deref());
        assert_eq!(policies(""), Ok(PolicyKind::ALL.to_vec()));
        assert_eq!(policies("NDPExt-static"), Ok(vec![PolicyKind::NdpExtStatic]));
        let err = policies("Bogus").expect_err("no such policy");
        assert!(err.starts_with(&format!("{}=", POLICY.name)), "{err}");
        assert!(err.contains("NDPExt-static"), "{err}");
    }

    #[test]
    fn overrides_come_before_the_tweak() {
        let o = Overrides { fault: FaultConfig::with_seed(7), ..Overrides::default() };
        let spec = RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, "pr", BenchScale::Test);
        assert_eq!(o.onto(spec.clone()).config().fault.seed, Some(7));
        let tweaked = spec.with_tweak(|cfg| cfg.fault = FaultConfig::disabled());
        assert_eq!(o.onto(tweaked).config().fault.seed, None, "the cell's tweak has the last word");
    }

    #[test]
    fn test_scale_runs_quickly() {
        let spec = RunSpec {
            ops_per_core: 1000,
            ..RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, "pr", BenchScale::Test)
        };
        let r = run_ndp_cached(&spec, &TraceCache::disabled());
        assert!(r.ops > 0);
    }
}
