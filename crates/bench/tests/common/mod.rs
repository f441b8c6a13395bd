//! Helpers shared by the bench integration tests.

use ndpx_bench::report::parse_perf;

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
