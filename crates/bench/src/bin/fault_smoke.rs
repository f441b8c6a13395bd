//! CI fault-smoke: end-to-end proof that the fault stack behaves.
//!
//! Requires `NDPX_FAULT_SEED` plus at least one nonzero `NDPX_FAULT_*`
//! rate in the environment (the CI job sets aggressive rates) and then:
//!
//! 1. runs a 6-cell matrix (every policy on HBM/pagerank) twice — serial
//!    and on a 4-wide [`CellPool`] — asserting byte-identical digests and
//!    registry dumps, i.e. the seeded injection schedule is thread-count
//!    invariant;
//! 2. asserts the run actually injected faults (nonzero `fault.*`
//!    counters), so a silently-disabled injector cannot pass;
//! 3. re-runs one cell next to a deliberately panicking cell through the
//!    panic-isolated [`CellPool::run_cells`] path and [`manifest::emit`],
//!    asserting the sweep completes with partial results and (under
//!    `NDPX_METRICS`) a failure manifest.
//!
//! Exit codes: 0 on success, 2 on missing/zeroed fault environment, 1 on
//! any assertion failure (via panic).

use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::cell_key;
use ndpx_bench::manifest;
use ndpx_bench::pool::{CellPool, CellTask};
use ndpx_bench::runner::{run_many_with, run_ndp_cached, BenchScale, RunSpec};
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::fault::FaultConfig;
use ndpx_sim::telemetry::StatValue;
use ndpx_workloads::TraceCache;

const SMOKE_OPS: u64 = 750;

fn specs() -> Vec<RunSpec> {
    PolicyKind::ALL
        .iter()
        .map(|&policy| RunSpec {
            ops_per_core: SMOKE_OPS,
            ..RunSpec::new(MemKind::Hbm, policy, "pr", BenchScale::Test)
        })
        .collect()
}

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

fn injected(r: &RunReport) -> u64 {
    count(r, "fault.mem.ce")
        + count(r, "fault.mem.ue")
        + count(r, "fault.cxl.crc_errors")
        + count(r, "fault.noc.retransmits")
}

fn main() {
    let fcfg = FaultConfig::from_env();
    if fcfg.seed.is_none() {
        eprintln!(
            "fault_smoke: {} is unset; nothing to smoke-test",
            ndpx_sim::knobs::FAULT_SEED.name
        );
        std::process::exit(2);
    }
    if fcfg.cxl_ber <= 0.0 && fcfg.mem_ce <= 0.0 && fcfg.mem_ue <= 0.0 && fcfg.noc_fer <= 0.0 {
        eprintln!(
            "fault_smoke: all fault rates are zero; set at least one (e.g. {}=1e-2)",
            ndpx_sim::knobs::FAULT_MEM_CE.name
        );
        std::process::exit(2);
    }

    // Phase 1: thread-count invariance of the seeded schedule. The fault
    // config reaches every cell through the environment (SystemConfig
    // inherits FaultConfig::from_env()).
    let matrix = specs();
    let serial = run_many_with(CellPool::with_threads(1), &TraceCache::disabled(), &matrix);
    let pooled = run_many_with(CellPool::with_threads(4), &TraceCache::new(), &matrix);
    for ((spec, a), b) in matrix.iter().zip(&serial).zip(&pooled) {
        let key = cell_key(spec);
        assert_eq!(
            report_digest(a),
            report_digest(b),
            "{key}: digest differs between 1 and 4 threads under a fixed fault seed"
        );
        assert_eq!(
            a.registry.to_json(),
            b.registry.to_json(),
            "{key}: registry dump differs between 1 and 4 threads under a fixed fault seed"
        );
    }
    println!("fault_smoke: {} cells thread-invariant under seeded faults", matrix.len());

    // Phase 2: the configured rates must actually inject.
    let total_injected: u64 = serial.iter().map(injected).sum();
    let total_rolls: u64 = serial
        .iter()
        .map(|r| {
            count(r, "fault.mem.rolls") + count(r, "fault.cxl.rolls") + count(r, "fault.noc.rolls")
        })
        .sum();
    assert!(total_rolls > 0, "fault plans drew no decisions; injectors look disabled");
    assert!(
        total_injected > 0,
        "no faults injected across the matrix; raise the configured fault rates"
    );
    println!("fault_smoke: {total_injected} faults injected over {total_rolls} decisions");

    // Phase 3: panic isolation. One real cell and one deliberately
    // panicking cell run through the outcome-carrying pool path; the sweep
    // must complete, keep the real result, and (under NDPX_METRICS) leave
    // a failure manifest naming the lost cell.
    let demo_spec = matrix[0].clone();
    let cache = TraceCache::new();
    let names = vec![cell_key(&demo_spec), "smoke/deliberate-panic".to_string()];
    let tasks: Vec<CellTask<'_, RunReport>> = vec![
        Box::new({
            let cache = &cache;
            let spec = demo_spec.clone();
            move || run_ndp_cached(&spec, cache)
        }),
        Box::new(|| -> RunReport { panic!("deliberate fault_smoke panic") }),
    ];
    let results = CellPool::with_threads(2).run_cells(None, tasks);
    manifest::emit("fault_smoke", 2, &names, &results, Some(cache.stats()));
    let failed: Vec<&String> =
        names.iter().zip(&results).filter(|(_, r)| r.value.is_err()).map(|(n, _)| n).collect();
    assert_eq!(
        failed,
        vec!["smoke/deliberate-panic"],
        "exactly the deliberate panic cell must fail; siblings must survive"
    );
    assert!(
        results[0].value.is_ok(),
        "the healthy cell must produce a report despite its panicking sibling"
    );
    println!("fault_smoke: panic-isolated sweep completed with partial results");
    println!("fault_smoke: OK");
}
