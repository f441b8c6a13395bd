//! CI chaos-smoke: end-to-end proof that scheduled hard failures degrade
//! gracefully instead of wedging or diverging.
//!
//! Requires `NDPX_CHAOS` in the environment (the CI job sets a schedule
//! that includes a mid-run stack loss) and then:
//!
//! 1. runs a 6-cell matrix (every policy on HBM/pagerank) twice — serial
//!    and on a 4-wide [`CellPool`] — asserting byte-identical digests and
//!    registry dumps, i.e. the sim-time chaos schedule is thread-count
//!    invariant;
//! 2. asserts the schedule actually fired (`chaos.applied > 0`), forced
//!    reconfigurations re-placed work onto survivors
//!    (`chaos.forced_reconfigs > 0`, `chaos.dead_resident_streams == 0`),
//!    and every applied event carries a recovery record
//!    (`fault.recovery.e##.ttr_ps`), so a silently-ignored schedule cannot
//!    pass.
//!
//! Each leg runs on its own [`Session`], so both legs simulate every cell;
//! the pooled leg's run document lands under `NDPX_METRICS` as
//! `chaos_smoke.cells.json` for artifact upload.
//!
//! Exit codes: 0 on success, 2 on missing/empty `NDPX_CHAOS`, 1 on any
//! assertion failure (via panic).

use ndpx_bench::digest::report_digest;
use ndpx_bench::gauge::cell_key;
use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{BenchScale, Cell, RunSpec, Session};
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::chaos::ChaosConfig;
use ndpx_sim::telemetry::StatValue;
use ndpx_workloads::TraceCache;

const SMOKE_OPS: u64 = 20_000;

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

fn main() {
    let ccfg = ChaosConfig::from_env();
    if !ccfg.enabled() {
        eprintln!(
            "chaos_smoke: {} is unset or empty; nothing to smoke-test",
            ndpx_sim::knobs::CHAOS.name
        );
        std::process::exit(2);
    }
    println!("chaos_smoke: schedule has {} event(s)", ccfg.events.len());

    // Phase 1: thread-count invariance. The schedule reaches every cell
    // through the environment (SystemConfig inherits ChaosConfig::from_env())
    // and is keyed on sim time, so worker count must not matter.
    let matrix = specs();
    let leg = |run, threads, cache| {
        let cells = matrix.iter().map(|spec| Cell::ndp("", spec.clone()));
        Session::new(BenchScale::Test, CellPool::with_threads(threads), cache).run(run, cells)
    };
    let serial = leg("chaos_smoke_serial", 1, TraceCache::disabled());
    let pooled = leg("chaos_smoke", 4, TraceCache::new());
    for ((spec, a), b) in matrix.iter().zip(&serial).zip(&pooled) {
        let key = cell_key(spec);
        assert_eq!(
            report_digest(a),
            report_digest(b),
            "{key}: digest differs between 1 and 4 threads under a fixed chaos schedule"
        );
        assert_eq!(
            a.registry.to_json(),
            b.registry.to_json(),
            "{key}: registry dump differs between 1 and 4 threads under a fixed chaos schedule"
        );
    }
    println!("chaos_smoke: {} cells thread-invariant under the chaos schedule", matrix.len());

    // Phase 2: the schedule must actually escalate and recover. Every
    // applied event leaves a recovery record; no stream may stay resident
    // on a dead stack; the engine must have drained to completion (the
    // runs returning at all rules out a deadlock).
    for (spec, r) in matrix.iter().zip(&serial) {
        let key = cell_key(spec);
        assert!(r.sim_time.as_ps() > 0, "{key}: run must complete under chaos");
        let applied = count(r, "chaos.applied");
        assert!(applied > 0, "{key}: the chaos schedule never fired; check event times");
        assert!(
            count(r, "chaos.forced_reconfigs") > 0,
            "{key}: failures must force re-placement onto survivors"
        );
        assert_eq!(
            count(r, "chaos.dead_resident_streams"),
            0,
            "{key}: no stream may end the run resident on a dead unit"
        );
        for e in 0..applied {
            // Windowed failures report their outage as TTR; permanent ones
            // report the re-placement drain, which a policy with nothing to
            // move may legitimately finish in zero time — so assert the
            // record exists, not a particular magnitude.
            let ttr = format!("fault.recovery.e{e:02}.ttr_ps");
            assert!(
                r.registry.get(&ttr).is_some(),
                "{key}: applied event {e} must carry a recovery record"
            );
        }
    }
    let total_applied: u64 = serial.iter().map(|r| count(r, "chaos.applied")).sum();
    let total_aborted: u64 = serial.iter().map(|r| count(r, "chaos.ops_aborted")).sum();
    println!("chaos_smoke: {total_applied} events applied, {total_aborted} ops aborted in flight");
    println!("chaos_smoke: OK");
}
