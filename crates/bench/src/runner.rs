//! Shared bench-harness machinery: scale selection, run execution, and
//! result formatting.
//!
//! All figure binaries accept the `NDPX_SCALE` environment variable:
//! `test` (seconds, CI-sized), `small` (default, minutes), or `paper`
//! (the full Table II geometry; long). Runs at one scale are directly
//! comparable: every policy executes the identical op stream.

use ndpx_core::config::{MemKind, PolicyKind, SystemConfig};
use ndpx_core::host::{HostConfig, HostSystem};
use ndpx_core::stats::RunReport;
use ndpx_core::system::NdpSystem;
use ndpx_workloads::trace::ScaleParams;
use ndpx_workloads::TraceCache;

use crate::pool::{expect_ok, CellPool, CellTask, MonitorConfig};

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
    /// Reads `NDPX_SCALE` (defaults to [`BenchScale::Small`]). A value
    /// that names no scale ends the process with exit status 2: a typo must
    /// not silently run a different geometry.
    pub fn from_env() -> Self {
        Self::parse(ndpx_sim::knobs::SCALE.raw().as_deref()).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        })
    }

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
                ndpx_sim::knobs::SCALE.name
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
}

/// Executes one NDP run with the workload trace served from `cache`
/// (generated live when the cache is disabled or over budget).
///
/// # Panics
///
/// Panics on unknown workloads or invalid configurations — bench inputs are
/// static.
pub fn run_ndp_cached(spec: &RunSpec, cache: &TraceCache) -> RunReport {
    let mut cfg = spec.scale.system(spec.mem, spec.policy);
    if let Some(tweak) = &spec.tweak {
        tweak(&mut cfg);
    }
    let params = spec.scale.workload(&cfg);
    let trace_gen_start = std::time::Instant::now();
    let wl = cache.workload(spec.workload, &params, spec.ops_per_core);
    let trace_gen = trace_gen_start.elapsed();
    let mut sys = NdpSystem::new(cfg, wl).expect("config and workload are consistent");
    // Attributed post-hoc: the profiler (if `NDPX_PROFILE` enabled one)
    // only exists once the system does.
    sys.record_phase(ndpx_core::Phase::TraceGen, trace_gen);
    sys.run(spec.ops_per_core)
}

/// Executes one NDP run with a live (uncached) workload trace.
///
/// # Panics
///
/// Panics on unknown workloads or invalid configurations — bench inputs are
/// static.
pub fn run_ndp(spec: &RunSpec) -> RunReport {
    run_ndp_cached(spec, &TraceCache::disabled())
}

/// Executes the non-NDP host baseline on the same workload and op count,
/// with the trace served from `cache`.
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

/// One unmonitored NDP task per spec, each served from `cache`.
fn spec_tasks<'a>(specs: &'a [RunSpec], cache: &'a TraceCache) -> Vec<CellTask<'a, RunReport>> {
    specs
        .iter()
        .map(|spec| Box::new(move || run_ndp_cached(spec, cache)) as CellTask<'_, RunReport>)
        .collect()
}

/// Runs many independent specs on `pool`, sharing `cache` across cells, and
/// returns reports in spec order regardless of thread count.
///
/// # Panics
///
/// After the whole matrix has run, if any cell panicked.
pub fn run_many_with(pool: CellPool, cache: &TraceCache, specs: &[RunSpec]) -> Vec<RunReport> {
    expect_ok(pool.run_cells(None, spec_tasks(specs, cache))).into_iter().map(|r| r.value).collect()
}

/// Runs report-producing `tasks` (named by `names`, in submission order) on
/// `pool` inside the full telemetry envelope: heartbeat lines and the
/// slow-cell watchdog via a monitored [`CellPool::run_cells`], and the
/// `metrics.json` + registry-dump sidecars under `NDPX_METRICS` (see
/// [`crate::manifest`]). `run_name` labels log lines and sidecar files.
///
/// Cells are panic-isolated: a failed cell never aborts its siblings, and
/// the sidecars plus a `<run>.failures.json` manifest are written *before*
/// the failure is escalated, so a partial sweep is never lost.
///
/// # Panics
///
/// After the whole matrix has run and every manifest is on disk, if any
/// cell panicked.
pub fn run_tasks_monitored(
    run_name: &str,
    pool: CellPool,
    cache: &TraceCache,
    names: Vec<String>,
    tasks: Vec<CellTask<'_, RunReport>>,
) -> Vec<RunReport> {
    let monitor = MonitorConfig::from_env(run_name, names);
    let results = pool.run_cells(Some(&monitor), tasks);
    crate::manifest::emit(run_name, pool.threads(), &monitor.names, &results, Some(cache.stats()));
    expect_ok(results).into_iter().map(|r| r.value).collect()
}

/// [`run_many_with`] inside the telemetry envelope of
/// [`run_tasks_monitored`], with cells named by [`crate::gauge::cell_key`].
///
/// # Panics
///
/// After the whole matrix has run and every manifest is on disk, if any
/// cell panicked.
pub fn run_many_monitored(
    run_name: &str,
    pool: CellPool,
    cache: &TraceCache,
    specs: &[RunSpec],
) -> Vec<RunReport> {
    let names = specs.iter().map(crate::gauge::cell_key).collect();
    run_tasks_monitored(run_name, pool, cache, names, spec_tasks(specs, cache))
}

/// The current binary's name, for run labels (`"bench"` as a fallback).
pub fn run_label() -> String {
    std::env::args()
        .next()
        .as_deref()
        .and_then(|p| std::path::Path::new(p).file_stem()?.to_str().map(str::to_string))
        .unwrap_or_else(|| "bench".to_string())
}

/// Runs many specs with the environment's thread count (`NDPX_THREADS`), a
/// trace cache shared across the whole matrix (`NDPX_TRACE_CACHE`), and the
/// monitored-run telemetry envelope labeled with the binary's name.
pub fn run_many(specs: Vec<RunSpec>) -> Vec<RunReport> {
    run_many_monitored(&run_label(), CellPool::from_env(), &TraceCache::from_env(), &specs)
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

    #[test]
    fn test_scale_runs_quickly() {
        let spec = RunSpec {
            ops_per_core: 1000,
            ..RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, "pr", BenchScale::Test)
        };
        let r = run_ndp(&spec);
        assert!(r.ops > 0);
    }
}
