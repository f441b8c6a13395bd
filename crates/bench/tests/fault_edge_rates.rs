//! Edge-rate robustness for the fault injectors (ISSUE 10 satellite):
//! every `NDPX_FAULT_*` rate knob is exercised at exactly 0.0 and exactly
//! 1.0. Rate 0.0 must be decision-drawing but inert; rate 1.0 must drive
//! every bounded-escalation path (CRC replay → retrain, UE poison →
//! re-fetch, flit retransmit) without panicking, wedging, or producing
//! non-finite degradation feedback.

use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{BenchScale, Cell, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::fault::FaultConfig;
use ndpx_sim::telemetry::StatValue;

/// Which injector a case drives, so assertions name the right counters.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Knob {
    CxlBer,
    MemCe,
    MemUe,
    NocFer,
}

fn spec_with_rate(knob: Knob, rate: f64) -> RunSpec {
    RunSpec {
        ops_per_core: 750,
        ..RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, "pr", BenchScale::Test)
    }
    .with_tweak(move |cfg| {
        let mut f = FaultConfig::with_seed(42);
        match knob {
            Knob::CxlBer => f.cxl_ber = rate,
            Knob::MemCe => f.mem_ce = rate,
            Knob::MemUe => f.mem_ue = rate,
            Knob::NocFer => f.noc_fer = rate,
        }
        cfg.fault = f;
    })
}

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

const ALL_KNOBS: [Knob; 4] = [Knob::CxlBer, Knob::MemCe, Knob::MemUe, Knob::NocFer];

/// Runs `specs` on a fresh session, so every cell simulates even when
/// another call ran it; cell `i` is named `<i>/<mem>/<policy>/<workload>`.
fn run_fresh(threads: usize, cache: TraceCache, specs: &[RunSpec]) -> Vec<RunReport> {
    let cells = specs.iter().enumerate().map(|(i, s)| Cell::ndp(&format!("{i}/"), s.clone()));
    Session::new(BenchScale::Test, CellPool::with_threads(threads), cache)
        .run("test", cells)
        .expect("valid cells")
}

#[test]
fn zero_rates_draw_decisions_but_inject_nothing() {
    let specs: Vec<RunSpec> = ALL_KNOBS.iter().map(|&k| spec_with_rate(k, 0.0)).collect();
    let reports = run_fresh(1, TraceCache::disabled(), &specs);
    for (knob, r) in ALL_KNOBS.iter().zip(&reports) {
        assert!(r.sim_time.as_ps() > 0, "{knob:?}@0.0 must complete");
        // Seeded injectors are installed, so the fault scope is present and
        // the decision counters advanced — but no fault ever fired.
        let rolls =
            count(r, "fault.mem.rolls") + count(r, "fault.cxl.rolls") + count(r, "fault.noc.rolls");
        assert!(rolls > 0, "{knob:?}@0.0: installed injectors must draw decisions");
        assert_eq!(count(r, "fault.mem.ce"), 0, "{knob:?}@0.0");
        assert_eq!(count(r, "fault.mem.ue"), 0, "{knob:?}@0.0");
        assert_eq!(count(r, "fault.cxl.crc_errors"), 0, "{knob:?}@0.0");
        assert_eq!(count(r, "fault.noc.retransmits"), 0, "{knob:?}@0.0");
        assert_eq!(count(r, "fault.stream.aborts"), 0, "{knob:?}@0.0");
    }
}

#[test]
fn unit_rates_escalate_boundedly() {
    let specs: Vec<RunSpec> = ALL_KNOBS.iter().map(|&k| spec_with_rate(k, 1.0)).collect();
    // `run_fresh` returning at all proves no rate-1.0 escalation loop
    // (CRC replay, retrain, poison storm, retransmit) diverges.
    let reports = run_fresh(1, TraceCache::disabled(), &specs);
    for (knob, r) in ALL_KNOBS.iter().zip(&reports) {
        assert!(r.sim_time.as_ps() > 0, "{knob:?}@1.0 must still make progress");
        match knob {
            Knob::CxlBer => {
                // Every frame corrupts: the replay bound must force
                // retrains instead of spinning on retries forever.
                assert!(count(r, "fault.cxl.crc_errors") > 0, "all frames corrupt");
                assert!(count(r, "fault.cxl.retrains") > 0, "retry bound must trip");
            }
            Knob::MemCe => {
                let reads = count(r, "fault.mem.rolls");
                let ce = count(r, "fault.mem.ce");
                assert!(ce > 0, "every read must take a correctable hit");
                assert!(ce <= reads, "CE count monotone and bounded by decisions");
                assert_eq!(count(r, "fault.mem.ue"), 0, "CE-only runs never see UEs");
                assert_eq!(count(r, "fault.stream.aborts"), 0, "CEs never poison");
            }
            Knob::MemUe => {
                assert!(count(r, "fault.mem.ue") > 0, "every read must poison");
                assert!(count(r, "fault.stream.aborts") > 0, "UEs abort cached copies");
            }
            Knob::NocFer => {
                assert!(count(r, "fault.noc.retransmits") > 0, "every message retransmits");
            }
        }
        // Degradation feedback must stay finite and sane for Algorithm 1
        // even when every decision injects.
        let degradation =
            r.registry.get("cxl.degradation").and_then(StatValue::as_gauge).unwrap_or(1.0);
        assert!(degradation.is_finite() && degradation >= 1.0, "{knob:?}@1.0: {degradation}");
    }
}

#[test]
fn edge_rates_replay_deterministically() {
    // The 1.0 corner exercises escalation paths ordinary rates rarely hit;
    // pin that the worst case is as replayable as the common one.
    let specs: Vec<RunSpec> = ALL_KNOBS.iter().map(|&k| spec_with_rate(k, 1.0)).collect();
    let a = run_fresh(1, TraceCache::disabled(), &specs);
    let b = run_fresh(4, TraceCache::new(), &specs);
    for ((knob, x), y) in ALL_KNOBS.iter().zip(&a).zip(&b) {
        assert_eq!(
            x.registry.to_json(),
            y.registry.to_json(),
            "{knob:?}@1.0 must be thread-invariant"
        );
    }
}
