//! The session memo and its sidecars.
//!
//! A [`Session`] simulates each distinct cell once, keyed on the effective
//! (post-tweak) configuration, the workload and the ops per core, and each
//! run's `<run>.cells.json` document lists each simulated cell once under
//! its own name. The session's overrides reach every cell it runs, and a
//! submission with an invalid cell runs none of them.

use std::path::Path;

use ndpx_bench::digest::report_digest;
use ndpx_bench::knobs;
use ndpx_bench::pool::{CellPool, CellResult};
use ndpx_bench::runner::{run_ndp_cached, BenchScale, Cell, Overrides, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind, ReconfigTransfer};
use ndpx_core::stats::RunReport;
use ndpx_noc::topology::{IntraKind, Topology};
use ndpx_sim::telemetry::{Json, StatValue};

const OPS: u64 = 750;

fn spec(policy: PolicyKind, workload: &'static str) -> RunSpec {
    RunSpec { ops_per_core: OPS, ..RunSpec::new(MemKind::Hbm, policy, workload, BenchScale::Test) }
}

#[test]
fn memo_simulates_each_effective_config_once() {
    let a = spec(PolicyKind::NdpExt, "pr");
    let default_ways = a.config().indirect_ways;
    let cells = [
        ("", a.clone()),
        // A tweak that leaves the configuration as it was is the same cell.
        ("ways/", a.clone().with_tweak(move |c| c.indirect_ways = default_ways)),
        ("", spec(PolicyKind::Nexus, "pr")),
        ("half-block/", a.with_tweak(|c| c.affine_block /= 2)),
    ];
    let mut session = Session::new(BenchScale::Test, CellPool::with_threads(2), TraceCache::new());
    let reports = session
        .run("memo", cells.iter().map(|(p, s)| Cell::ndp(p, s.clone())))
        .expect("valid cells");
    assert_eq!(session.simulated(), 3, "the default-valued tweak must hit the memo");
    for (i, ((_, spec), r)) in cells.iter().zip(&reports).enumerate() {
        let fresh = run_ndp_cached(spec, &TraceCache::disabled());
        assert_eq!(report_digest(&r.value), report_digest(&fresh), "cell {i} differs");
    }
    let digest = |i: usize| report_digest(&reports[i].value);
    assert_ne!(digest(0), digest(3), "the block tweak is a cell");
    let run = |r: &CellResult<RunReport>| (report_digest(&r.value), r.worker, r.wall_s);
    assert_eq!(run(&reports[1]), run(&reports[0]), "a memo hit is the one simulation's run");

    // A later submission reads every cell from the memo.
    let again =
        session.run("memo_again", [Cell::ndp("", cells[0].1.clone())]).expect("valid cells");
    assert_eq!(session.simulated(), 3);
    assert_eq!(run(&again[0]), run(&reports[0]));
}

/// The `cells` names of a run document, in file order, duplicates kept.
fn dump_keys(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("run document written");
    let doc = Json::parse(&text).expect("run document is JSON");
    let cells = doc.get("cells").and_then(Json::as_object).expect("cells object");
    cells.iter().map(|(k, _)| k.clone()).collect()
}

#[test]
fn registry_dump_lists_each_simulated_cell_once() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("session_sidecars");
    let _ = std::fs::remove_dir_all(&dir);
    let mut session = Session::new(BenchScale::Test, CellPool::with_threads(2), TraceCache::new());
    session.metrics = Some(dir.clone());
    // Bulk and consistent cells share `hbm/NDPExt/pr`: only the sweep
    // point tells them apart. The consistent cell is also the default one,
    // so its second listing is the same cell.
    let transfer = |point, t| {
        Cell::ndp(point, spec(PolicyKind::NdpExt, "pr").with_tweak(move |c| c.transfer = t))
    };
    let cells = [
        transfer("bulk/", ReconfigTransfer::BulkInvalidate),
        transfer("consistent/", ReconfigTransfer::ConsistentHash),
        Cell::ndp("", spec(PolicyKind::NdpExt, "pr")),
        Cell::host("pr", OPS),
    ];
    session.run("first", cells).expect("valid cells");
    let keys = dump_keys(&dir.join("first.cells.json"));
    assert_eq!(keys, ["bulk/hbm/NDPExt/pr", "consistent/hbm/NDPExt/pr", "host/pr"]);

    // A second figure lists only the cells it simulated.
    let cells = [Cell::host("pr", OPS), Cell::ndp("", spec(PolicyKind::Nexus, "pr"))];
    session.run("second", cells).expect("valid cells");
    assert_eq!(dump_keys(&dir.join("second.cells.json")), ["hbm/Nexus/pr"]);
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("read the metrics directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["first.cells.json", "second.cells.json"], "one file per run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overrides_reach_ndp_and_host_cells() {
    // The knobs as `Session::from_env` would read them, through a lookup
    // table instead of the (process-global, racy) environment.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("session_overrides");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the timeline directory");
    let timeline = dir.join("timeline.json").to_string_lossy().into_owned();
    let env = [
        (knobs::FAULT_SEED.name, "42".to_string()),
        (knobs::FAULT_MEM_CE.name, "1e-2".to_string()),
        (knobs::TIMELINE.name, timeline),
    ];
    let mut session = Session::new(BenchScale::Test, CellPool::with_threads(2), TraceCache::new());
    session.overrides =
        Overrides::parse(|k| env.iter().find(|(n, _)| *n == k.name).map(|(_, v)| v.clone()))
            .expect("valid overrides");
    let cells = [Cell::ndp("", spec(PolicyKind::NdpExt, "pr")), Cell::host("pr", OPS)];
    let reports = session.run("overrides", cells).expect("valid cells");
    let count =
        |path| reports[0].value.registry.get(path).and_then(StatValue::as_count).unwrap_or(0);
    assert!(count("fault.mem.rolls") > 0, "the fault seed must reach the NDP cell");
    assert!(count("fault.mem.ce") > 0, "a 1e-2 CE rate must inject");
    let written: Vec<String> = std::fs::read_dir(&dir)
        .expect("timelines written")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(written.len(), 2, "one timeline per cell, the host's included: {written:?}");
    assert!(written.iter().any(|n| n.contains("Host")), "{written:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_chaos_target_outside_a_sweep_point_stops_the_submission() {
    // The test topology has 4 stacks, so `BenchEnv` accepts target 3; a
    // sweep point with one stack has no stack 3.
    let env = [(knobs::CHAOS.name, "stack-down@10us:3".to_string())];
    let mut session = Session::new(BenchScale::Test, CellPool::with_threads(2), TraceCache::new());
    session.metrics = None;
    session.overrides =
        Overrides::parse(|k| env.iter().find(|(n, _)| *n == k.name).map(|(_, v)| v.clone()))
            .expect("valid overrides");
    let one =
        Topology { stacks_x: 1, stacks_y: 1, units_x: 1, units_y: 1, intra: IntraKind::Crossbar };
    let cells = [
        Cell::ndp("", spec(PolicyKind::NdpExt, "pr")),
        Cell::ndp("1x1/", spec(PolicyKind::NdpExt, "pr").with_tweak(move |c| c.topology = one)),
    ];
    let err = session.run("chaos", cells).expect_err("stack 3 is outside the 1x1 topology");
    assert!(err.starts_with(knobs::CHAOS.name), "{err}");
    assert!(err.contains("1x1/hbm/NDPExt/pr"), "the error names the sweep point: {err}");
    assert_eq!(session.simulated(), 0, "no cell runs, the valid one included");
}
