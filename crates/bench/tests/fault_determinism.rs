//! Determinism gates for the fault-injection subsystem (ISSUE satellite 3).
//!
//! Two properties are pinned here:
//!
//! 1. **Thread invariance** — with a fixed `NDPX_FAULT_SEED`, the injection
//!    schedule is a pure function of (seed, domain, instance, decision
//!    index), so report digests *and* full registry dumps are byte-identical
//!    at one and at four worker threads.
//! 2. **Fault-off fidelity** — with the seed unset (the default
//!    [`ndpx_sim::fault::FaultConfig`]), every injector compiles down to the
//!    ideal path: the committed `BENCH_PERF.json` digests reproduce exactly.

mod common;

use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::{cell_key, gauge_ops};
use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{BenchScale, Cell, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::fault::FaultConfig;
use ndpx_sim::telemetry::StatValue;

/// A 6-cell faulty matrix: every policy on HBM/pagerank with an aggressive
/// seeded fault configuration, small enough for debug-build CI.
fn faulty_specs(ops: u64) -> Vec<RunSpec> {
    PolicyKind::ALL
        .iter()
        .map(|&policy| {
            RunSpec {
                ops_per_core: ops,
                ..RunSpec::new(MemKind::Hbm, policy, "pr", BenchScale::Test)
            }
            .with_tweak(|cfg| {
                let mut f = FaultConfig::with_seed(42);
                f.cxl_ber = 1e-7;
                f.mem_ce = 1e-2;
                f.mem_ue = 1e-5;
                f.noc_fer = 1e-5;
                cfg.fault = f;
            })
        })
        .collect()
}

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

/// Runs `specs` on a fresh session, so every cell simulates even when
/// another call ran it; cell `i` is named `<i>/<mem>/<policy>/<workload>`.
fn run_fresh(threads: usize, cache: TraceCache, specs: &[RunSpec]) -> Vec<RunReport> {
    let cells = specs.iter().enumerate().map(|(i, s)| Cell::ndp(&format!("{i}/"), s.clone()));
    Session::new(BenchScale::Test, CellPool::with_threads(threads), cache)
        .run("test", cells)
        .expect("valid cells")
}

#[test]
fn fixed_seed_injection_is_thread_invariant() {
    let specs = faulty_specs(750);
    let serial = run_fresh(1, TraceCache::disabled(), &specs);
    let pooled = run_fresh(4, TraceCache::new(), &specs);
    assert_eq!(serial.len(), 6);
    for ((spec, a), b) in specs.iter().zip(&serial).zip(&pooled) {
        let key = cell_key(spec);
        assert_eq!(
            report_digest(a),
            report_digest(b),
            "{key}: seeded injection must replay identically at 4 threads"
        );
        assert_eq!(
            a.registry.to_json(),
            b.registry.to_json(),
            "{key}: registry dumps (fault counters included) must be byte-identical"
        );
    }
    // The schedule actually drew decisions and injected faults — otherwise
    // the invariance above would be vacuous.
    let rolls: u64 = serial
        .iter()
        .map(|r| {
            count(r, "fault.mem.rolls") + count(r, "fault.cxl.rolls") + count(r, "fault.noc.rolls")
        })
        .sum();
    assert!(rolls > 0, "seeded runs must draw fault decisions");
    let injected: u64 = serial.iter().map(|r| count(r, "fault.mem.ce")).sum();
    assert!(injected > 0, "a 1e-2 CE rate over thousands of reads must inject");
}

#[test]
fn seed_unset_reproduces_committed_perf_digests() {
    let committed = common::committed_digests();
    // One workload per memory family covers both DRAM configs without
    // re-running the full 36-cell matrix in a debug build.
    let ops = gauge_ops(BenchScale::Test);
    let specs: Vec<RunSpec> = [(MemKind::Hbm, "pr"), (MemKind::Hmc, "mv")]
        .iter()
        .flat_map(|&(mem, workload)| {
            PolicyKind::ALL.iter().map(move |&policy| RunSpec {
                ops_per_core: ops,
                ..RunSpec::new(mem, policy, workload, BenchScale::Test)
            })
        })
        .collect();
    let reports = run_fresh(4, TraceCache::new(), &specs);
    for (spec, report) in specs.iter().zip(&reports) {
        let key = cell_key(spec);
        let baseline = committed
            .iter()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("BENCH_PERF.json has no cell {key}"))
            .1;
        assert_eq!(
            report_digest(report),
            baseline,
            "{key}: with {} unset the fault-off path must be bit-identical to main",
            ndpx_bench::knobs::FAULT_SEED.name
        );
        assert!(
            report.registry.get("fault.mem.rolls").is_none(),
            "{key}: fault-off registries must omit the fault scope"
        );
    }
}
