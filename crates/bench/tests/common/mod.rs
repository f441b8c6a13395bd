//! Helpers shared by the bench integration tests. Each test binary uses
//! its own subset of them.
#![allow(dead_code)]

use ndpx_bench::pool::CellPool;
use ndpx_bench::report::parse_perf;
use ndpx_bench::runner::{BenchScale, Cell, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::stats::RunReport;

/// The `(cell, digest)` pairs of the committed `BENCH_PERF.json`, read by
/// [`parse_perf`], the reader behind `perf_gauge --check` and `ndpx_report`.
pub fn committed_digests() -> Vec<(String, u64)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PERF.json");
    let json = std::fs::read_to_string(path).expect("committed BENCH_PERF.json");
    let run = parse_perf(&json).expect("BENCH_PERF.json parses");
    assert!(!run.cells.is_empty(), "BENCH_PERF.json must hold cell digests");
    run.cells
        .into_iter()
        .map(|c| {
            let digest = u64::from_str_radix(&c.digest, 16)
                .unwrap_or_else(|e| panic!("{}: digest {:?}: {e}", c.key, c.digest));
            (c.key, digest)
        })
        .collect()
}

/// Runs `specs` on a fresh session, so every cell simulates even when
/// another call ran it; cell `i` is named `<i>/<mem>/<policy>/<workload>`.
pub fn run_fresh(threads: usize, cache: TraceCache, specs: &[RunSpec]) -> Vec<RunReport> {
    let cells = specs.iter().enumerate().map(|(i, s)| Cell::ndp(&format!("{i}/"), s.clone()));
    Session::new(BenchScale::Test, CellPool::with_threads(threads), cache)
        .run("test", cells)
        .expect("valid cells")
        .into_iter()
        .map(|r| r.value)
        .collect()
}
