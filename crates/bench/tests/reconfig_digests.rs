//! Pins the digests of cells whose epochs actually fire.
//!
//! The 36 `BENCH_PERF.json` cells end before their first epoch
//! (`digest_coincidence.rs`), so no digest there depends on what Algorithm 1
//! (`allocate_ndpext`) decides or on how `apply_allocation` migrates cached
//! contents. These cells cut the epoch tenfold — the benchmark's `reconfig`
//! workload at its default seed — so every run reconfigures and migrates,
//! and one of them also loses a stack mid-run, which re-runs Algorithm 1
//! with dead units. Any change to the solver's output, to the migration
//! path, or to their order of operations moves these digests.

use ndpx_bench::digest::report_digest;
use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{run_many_with, BenchScale, RunSpec};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::chaos::ChaosConfig;
use ndpx_sim::telemetry::StatValue;

/// Epoch shortening of the benchmark's `reconfig` workload.
const EPOCH_DIV: u64 = 10;

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

/// An NDPExt cell at test scale with a tenfold shorter epoch. Chaos is
/// forced explicitly so an environment schedule cannot reach the cell.
fn spec(workload: &'static str, chaos: Option<&'static str>) -> RunSpec {
    RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, workload, BenchScale::Test).with_tweak(
        move |cfg| {
            cfg.epoch_cycles /= EPOCH_DIV;
            cfg.chaos = match chaos {
                Some(s) => ChaosConfig::parse(Some(s), None).expect("valid chaos spec"),
                None => ChaosConfig::disabled(),
            };
        },
    )
}

#[test]
fn reconfiguring_cells_keep_their_digests() {
    // (name, spec, pinned digest); the stack loss lands about halfway
    // through the bfs run (~650us of simulated time).
    let cells = [
        ("bfs", spec("bfs", None), 0x4897_b852_6d1f_615c_u64),
        ("recsys", spec("recsys", None), 0x9155_b161_d090_37e9),
        ("bfs+stack-down", spec("bfs", Some("stack-down@300us:1")), 0xb0f8_be47_cfd9_f605),
    ];
    let specs: Vec<RunSpec> = cells.iter().map(|(_, s, _)| s.clone()).collect();
    let reports = run_many_with(CellPool::with_threads(1), &TraceCache::new(), &specs);
    for ((name, _, want), r) in cells.iter().zip(&reports) {
        assert!(r.reconfigs > 0, "{name}: no epoch fired");
        assert!(r.migrations > 0, "{name}: no entry migrated");
        let got = report_digest(r);
        assert_eq!(got, *want, "{name}: digest moved to {got:016x}");
    }
    let chaos = &reports[2];
    assert_eq!(count(chaos, "chaos.applied"), 1, "the stack loss must fire mid-run");
    assert!(count(chaos, "chaos.forced_reconfigs") >= 1, "the loss must re-place streams");
    assert_eq!(count(chaos, "chaos.dead_resident_streams"), 0, "no stream left on the dead stack");
}
