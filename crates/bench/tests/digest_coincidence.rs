//! Pins the expected cross-policy digest coincidences in `BENCH_PERF.json`.
//!
//! At the gauge's "test" scale, runs are shorter than one placement epoch:
//! `core.reconfigs` is zero in every cell, so every policy remains on its
//! warmup placement for the whole run. That collapses the matrix into two
//! behavioral families — the line-grain baselines (Static, Jigsaw,
//! Whirlpool, Nexus) share one warmup interleave and the stream-grain
//! variants (NDPExt-static, NDPExt) share the other — so e.g.
//! `hbm/Static/pr` and `hbm/Jigsaw/pr` legitimately record the same digest.
//! This is a property of the scale, not broken cell wiring: the families
//! always differ from each other, and once the run is long enough for
//! epochs to fire the policies inside a family diverge too.

use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::gauge_ops;
use ndpx_bench::runner::{run_ndp_cached, BenchScale, RunSpec};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};

const LINE_GRAIN: [PolicyKind; 4] =
    [PolicyKind::StaticInterleave, PolicyKind::Jigsaw, PolicyKind::Whirlpool, PolicyKind::Nexus];

fn digest_at(policy: PolicyKind, ops: u64) -> (u64, u64) {
    let spec =
        RunSpec { ops_per_core: ops, ..RunSpec::new(MemKind::Hbm, policy, "pr", BenchScale::Test) };
    let r = run_ndp_cached(&spec, &TraceCache::disabled());
    (report_digest(&r), r.reconfigs)
}

#[test]
fn line_grain_policies_coincide_at_test_scale() {
    // The exact cells the gauge runs: same scale, same per-core op count.
    let ops = gauge_ops(BenchScale::Test);
    let runs: Vec<(u64, u64)> = LINE_GRAIN.iter().map(|&p| digest_at(p, ops)).collect();
    for (policy, &(_, reconfigs)) in LINE_GRAIN.iter().zip(&runs) {
        assert_eq!(reconfigs, 0, "{policy:?}: test scale must end before the first epoch");
    }
    let first = runs[0].0;
    assert!(
        runs.iter().all(|&(d, _)| d == first),
        "line-grain digests must coincide while no epoch fires: {runs:x?}"
    );
}

#[test]
fn placement_families_always_differ() {
    // Even with zero epochs, stream-grain warmup placement is a different
    // machine than the line-grain interleave — the coincidence never
    // crosses the family boundary.
    let ops = gauge_ops(BenchScale::Test);
    let (line, _) = digest_at(PolicyKind::StaticInterleave, ops);
    let (stream, _) = digest_at(PolicyKind::NdpExt, ops);
    assert_ne!(line, stream, "line-grain and stream-grain cells must never coincide");
}

#[test]
fn policies_diverge_once_epochs_fire() {
    // Long enough for epoch boundaries: the reconfiguring baselines leave
    // the warmup placement and split from Static, proving the gauge's cell
    // wiring applies a distinct policy per cell.
    let ops = 40_000;
    let (static_d, _) = digest_at(PolicyKind::StaticInterleave, ops);
    let (jigsaw_d, jigsaw_rec) = digest_at(PolicyKind::Jigsaw, ops);
    assert!(jigsaw_rec > 0, "expected epoch boundaries at {ops} ops/core");
    assert_ne!(static_d, jigsaw_d, "Jigsaw must diverge from Static once epochs fire");
}
