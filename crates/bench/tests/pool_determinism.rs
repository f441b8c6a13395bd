//! Determinism gate for the parallel orchestrator (ISSUE satellite 2).
//!
//! Runs the perf-gauge 36-cell matrix at one and at four worker threads —
//! and with the trace cache both off and shared — and asserts every
//! per-cell report digest is identical. Output order is canonical by
//! construction ([`CellPool::run`] returns submission order), so digest
//! equality here means `BENCH_PERF.json` and every figure table are
//! byte-identical at any `NDPX_THREADS` setting.

use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::{cell_key, gauge_specs};
use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{BenchScale, Cell, Session};
use ndpx_bench::TraceCache;

/// Debug builds are slow; a reduced op count still exercises every policy's
/// steady state (reconfigure epochs included at test scale).
const OPS_PER_CORE: u64 = 750;

/// Each call has its own session, so every leg simulates every cell.
fn digests(pool: CellPool, cache: TraceCache) -> (Vec<(String, u64)>, TraceCache) {
    let specs = gauge_specs(BenchScale::Test, OPS_PER_CORE);
    let mut session = Session::new(BenchScale::Test, pool, cache);
    let reports = session
        .run("pool_determinism", specs.iter().map(|s| Cell::ndp("", s.clone())))
        .expect("valid cells");
    let digests =
        specs.iter().zip(&reports).map(|(s, r)| (cell_key(s), report_digest(&r.value))).collect();
    (digests, session.cache)
}

#[test]
fn all_36_digests_identical_across_thread_counts_and_caching() {
    let (serial_uncached, _) = digests(CellPool::with_threads(1), TraceCache::disabled());
    assert_eq!(serial_uncached.len(), 36);

    let (serial_cached, _) = digests(CellPool::with_threads(1), TraceCache::new());
    let (pooled, shared) = digests(CellPool::with_threads(4), TraceCache::new());

    for (((key, base), (_, cached)), (_, par)) in
        serial_uncached.iter().zip(&serial_cached).zip(&pooled)
    {
        assert_eq!(base, cached, "{key}: trace replay changed the result");
        assert_eq!(base, par, "{key}: 4-thread execution changed the result");
    }
    // The shared cache must have deduplicated generation: 6 unique
    // (workload × mem-geometry) keys serve all 36 cells.
    let stats = shared.stats();
    assert!(stats.misses <= 6, "expected ≤6 unique trace keys, got {}", stats.misses);
    assert_eq!(stats.hits + stats.misses, 36);
}
