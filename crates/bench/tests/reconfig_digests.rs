//! Pins the digests of cells whose epochs actually fire.
//!
//! The 36 `BENCH_PERF.json` cells end before their first epoch
//! (`digest_coincidence.rs`), so no digest there depends on what Algorithm 1
//! (a system's reused `Solver`) decides or on how `apply_allocation`
//! migrates cached contents. These cells cut the epoch tenfold — the
//! benchmark's `reconfig` workload at its default seed — so every run
//! reconfigures and migrates, and one of them also loses a stack mid-run,
//! which re-runs Algorithm 1 with dead units. Any change to the solver's
//! output, to the migration path, or to their order of operations moves
//! these digests.
//!
//! Two NDPExt-static cells lose a stack or an inter-stack link mid-run. A
//! static policy never reconfigures at an epoch and its allocator reads no
//! miss curve, so it builds no sampler even under chaos; these cells pin
//! its forced re-placement.
//!
//! Two more cells pin the other two ways a reconfiguration rebuilds tag
//! arrays: NDPExt under bulk invalidation, which counts what each changed
//! stream held and empties its arrays instead of moving entries, and the
//! line-grain Jigsaw baseline on pr, whose direct-mapped arrays over 64 B
//! slots both keep and drop lines when consistent hashing re-places them.
//!
//! The last test runs all seven pins again with the sim-phase profiler and
//! a timeline attached through each cell's configuration: observing a run
//! must not move its digest.

mod common;

use std::path::Path;

use common::run_fresh;
use ndpx_bench::digest::report_digest;
use ndpx_bench::runner::{BenchScale, RunSpec};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind, ReconfigTransfer};
use ndpx_core::stats::RunReport;
use ndpx_sim::chaos::ChaosConfig;
use ndpx_sim::telemetry::{StatValue, TimelineConfig};

/// Epoch shortening of the benchmark's `reconfig` workload.
const EPOCH_DIV: u64 = 10;

fn count(r: &RunReport, path: &str) -> u64 {
    r.registry.get(path).and_then(StatValue::as_count).unwrap_or(0)
}

/// A cell at test scale with a tenfold shorter epoch.
fn spec(policy: PolicyKind, workload: &'static str, chaos: Option<&'static str>) -> RunSpec {
    spec_with(policy, workload, chaos, ReconfigTransfer::ConsistentHash)
}

/// [`spec`] with an explicit reconfiguration transfer policy.
fn spec_with(
    policy: PolicyKind,
    workload: &'static str,
    chaos: Option<&'static str>,
    transfer: ReconfigTransfer,
) -> RunSpec {
    RunSpec::new(MemKind::Hbm, policy, workload, BenchScale::Test).with_tweak(move |cfg| {
        cfg.epoch_cycles /= EPOCH_DIV;
        cfg.transfer = transfer;
        if let Some(s) = chaos {
            cfg.chaos = ChaosConfig::parse(Some(s)).expect("valid chaos spec");
        }
    })
}

/// The cells whose epochs or chaos events reconfigure: (name, spec,
/// pinned digest, migrates). The chaos events land about halfway through
/// the bfs run (~650us of simulated time). The static cells migrate
/// nothing: equal shares on the surviving units are unchanged, so
/// consistent hashing keeps every surviving entry in place.
fn epoch_pins() -> Vec<(&'static str, RunSpec, u64, bool)> {
    use PolicyKind::{NdpExt, NdpExtStatic};
    vec![
        ("bfs", spec(NdpExt, "bfs", None), 0x4897_b852_6d1f_615c, true),
        ("recsys", spec(NdpExt, "recsys", None), 0x9155_b161_d090_37e9, true),
        (
            "bfs+stack-down",
            spec(NdpExt, "bfs", Some("stack-down@300us:1")),
            0xb0f8_be47_cfd9_f605,
            true,
        ),
        (
            "static bfs+stack-down",
            spec(NdpExtStatic, "bfs", Some("stack-down@300us:1")),
            0x75e8_7283_1048_be2c,
            false,
        ),
        (
            "static bfs+noc-down",
            spec(NdpExtStatic, "bfs", Some("noc-down@300us:0-1")),
            0x8d48_b507_8021_260d,
            false,
        ),
    ]
}

/// The cells pinning the other two ways a reconfiguration rebuilds tag
/// arrays: (name, spec, pinned digest). NDPExt empties every changed
/// stream's arrays and counts their occupancy; Jigsaw re-places 64 B lines
/// through direct-mapped arrays under consistent hashing. (Jigsaw on bfs
/// finds a free slot for every line it moves, so it would not pin the
/// dropped-line path; pr does.)
fn transfer_pins() -> Vec<(&'static str, RunSpec, u64)> {
    vec![
        (
            "bfs bulk-invalidate",
            spec_with(PolicyKind::NdpExt, "bfs", None, ReconfigTransfer::BulkInvalidate),
            0x1d1c_c732_b8d1_4fa7,
        ),
        ("jigsaw pr", spec(PolicyKind::Jigsaw, "pr", None), 0x8489_3c1b_9ad3_28b7),
    ]
}

#[test]
fn reconfiguring_cells_keep_their_digests() {
    let cells = epoch_pins();
    let specs: Vec<RunSpec> = cells.iter().map(|(_, s, _, _)| s.clone()).collect();
    let reports = run_fresh(1, TraceCache::new(), &specs);
    for ((name, _, want, migrates), r) in cells.iter().zip(&reports) {
        assert!(r.reconfigs > 0, "{name}: no epoch fired");
        if *migrates {
            assert!(r.migrations > 0, "{name}: no entry migrated");
        }
        let got = report_digest(r);
        assert_eq!(got, *want, "{name}: digest moved to {got:016x}");
    }
    for (name, chaos) in cells.iter().map(|c| c.0).zip(&reports).skip(2) {
        assert_eq!(count(chaos, "chaos.applied"), 1, "{name}: the loss must fire mid-run");
        assert!(count(chaos, "chaos.forced_reconfigs") >= 1, "{name}: the loss must re-place");
        assert_eq!(count(chaos, "chaos.dead_resident_streams"), 0, "{name}: stream left dead");
    }
}

#[test]
fn bulk_invalidate_and_line_grain_cells_keep_their_digests() {
    let cells = transfer_pins();
    let specs: Vec<RunSpec> = cells.iter().map(|(_, s, _)| s.clone()).collect();
    let reports = run_fresh(1, TraceCache::new(), &specs);
    for ((name, _, want), r) in cells.iter().zip(&reports) {
        assert!(r.reconfigs > 0, "{name}: no epoch fired");
        assert!(r.invalidations > 0, "{name}: no entry invalidated");
        let got = report_digest(r);
        assert_eq!(got, *want, "{name}: digest moved to {got:016x}");
    }
}

#[test]
fn pins_hold_with_the_profiler_and_timelines_on() {
    // The SamplerSolve/Rehash profiler spans and the slo.* epoch stats wrap
    // the reused solver and apply_allocation, healthy and under chaos:
    // telemetry must not move these digests either.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("reconfig_digests_tl");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the timeline directory");
    let pins: Vec<(&str, RunSpec, u64)> = epoch_pins()
        .into_iter()
        .map(|(name, spec, digest, _)| (name, spec, digest))
        .chain(transfer_pins())
        .collect();
    assert_eq!(pins.len(), 7);
    let specs: Vec<RunSpec> = pins
        .iter()
        .enumerate()
        .map(|(i, (_, spec, _))| {
            let tweak = spec.tweak.clone().expect("every pin is tweaked");
            let timeline = TimelineConfig::to_path(dir.join(format!("pin{i}.json")));
            spec.clone().with_tweak(move |cfg| {
                tweak(cfg);
                cfg.telemetry.timeline = Some(timeline.clone());
                cfg.telemetry.profile = true;
            })
        })
        .collect();
    let reports = run_fresh(1, TraceCache::new(), &specs);
    for ((name, _, want), r) in pins.iter().zip(&reports) {
        let got = report_digest(r);
        assert_eq!(got, *want, "{name}: telemetry moved the digest to {got:016x}");
        let has = |scope: &str| r.registry.iter().any(|(path, _)| path.starts_with(scope));
        assert!(has("profile.") && has("slo."), "{name}: profile.* and slo.* must be recorded");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
