//! Determinism and recovery gates for the chaos schedule layer (ISSUE 10).
//!
//! Two properties are pinned at the bench level, above the core unit tests:
//!
//! 1. **Chaos-off fidelity** — with no schedule configured, the committed
//!    `BENCH_PERF.json` digests reproduce exactly and the registry carries
//!    no `chaos.` scope: the layer is free when unused.
//! 2. **Recovery under escalation** — a CXL outage and a mid-run stack
//!    loss across every policy complete without deadlock, leave zero
//!    streams resident on the dead stack, publish a recovery record for
//!    every applied event, and replay byte-identically at one and at four
//!    worker threads.

mod common;

use common::run_fresh;
use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::{cell_key, gauge_ops};
use ndpx_bench::runner::{BenchScale, RunSpec};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::chaos::ChaosConfig;
use ndpx_sim::telemetry::StatValue;

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

#[test]
fn chaos_off_reproduces_committed_perf_digests() {
    let committed = common::committed_digests();
    // One workload row covers every policy without re-running the full
    // 36-cell matrix in a debug build.
    let ops = gauge_ops(BenchScale::Test);
    let specs: Vec<RunSpec> = PolicyKind::ALL
        .iter()
        .map(|&policy| RunSpec {
            ops_per_core: ops,
            ..RunSpec::new(MemKind::Hbm, policy, "pr", BenchScale::Test)
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
            "{key}: with no schedule the chaos-off path must be bit-identical to main"
        );
        assert!(
            !report.registry.iter().any(|(path, _)| path.starts_with("chaos.")),
            "{key}: chaos-off registries must omit the chaos scope"
        );
        assert!(
            !report.registry.iter().any(|(path, _)| path.starts_with("fault.recovery.")),
            "{key}: chaos-off registries must omit recovery records"
        );
    }
}

#[test]
fn stack_loss_recovers_and_is_thread_invariant() {
    // The CXL link is down from 5us to 25us and stack 1 dies permanently at
    // 20us, mid-run for a 20k-op cell at test scale. Every policy must ride
    // out the outage, drain its dead-stack streams and finish.
    let specs: Vec<RunSpec> = PolicyKind::ALL
        .iter()
        .map(|&policy| {
            RunSpec {
                ops_per_core: 20_000,
                ..RunSpec::new(MemKind::Hbm, policy, "pr", BenchScale::Test)
            }
            .with_tweak(|cfg| {
                cfg.chaos = ChaosConfig::parse(Some("cxl-down@5us+20us;stack-down@20us:1"))
                    .expect("valid chaos spec")
            })
        })
        .collect();
    let serial = run_fresh(1, TraceCache::disabled(), &specs);
    let pooled = run_fresh(4, TraceCache::new(), &specs);
    for ((spec, a), b) in specs.iter().zip(&serial).zip(&pooled) {
        let key = cell_key(spec);
        assert!(a.sim_time.as_ps() > 0, "{key}: run must complete under stack loss");
        assert_eq!(count(a, "chaos.applied"), 2, "{key}: both scheduled failures must fire");
        assert!(
            count(a, "chaos.forced_reconfigs") >= 1,
            "{key}: the loss must force a re-placement"
        );
        assert_eq!(
            count(a, "chaos.dead_resident_streams"),
            0,
            "{key}: no stream may end the run resident on the dead stack"
        );
        for e in 0..count(a, "chaos.applied") {
            // Windowed failures report their outage as TTR; permanent ones
            // report the re-placement drain, which a policy with nothing to
            // move may finish in zero time, so the record's presence is
            // asserted, not its magnitude.
            let ttr = format!("fault.recovery.e{e:02}.ttr_ps");
            assert!(a.registry.get(&ttr).is_some(), "{key}: applied event {e} has no {ttr}");
        }
        assert_eq!(
            a.registry.to_json(),
            b.registry.to_json(),
            "{key}: the chaos run must replay identically at 4 threads"
        );
        assert_eq!(
            report_digest(a),
            report_digest(b),
            "{key}: chaos digests must be thread-count invariant"
        );
    }
}
