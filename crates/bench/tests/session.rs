//! The session memo and its sidecars.
//!
//! A [`Session`] simulates each distinct cell once, keyed on the effective
//! (post-tweak) configuration, the workload and the ops per core, and each
//! run's `<run>.cells.json` document lists each simulated cell once under
//! its own name.

use std::path::Path;

use ndpx_bench::digest::report_digest;
use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{run_ndp_cached, BenchScale, Cell, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind, ReconfigTransfer};
use ndpx_sim::telemetry::Json;

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
    let reports = session.run("memo", cells.iter().map(|(p, s)| Cell::ndp(p, s.clone())));
    assert_eq!(session.simulated(), 3, "the default-valued tweak must hit the memo");
    for (i, ((_, spec), r)) in cells.iter().zip(&reports).enumerate() {
        let fresh = run_ndp_cached(spec, &TraceCache::disabled());
        assert_eq!(report_digest(r), report_digest(&fresh), "cell {i} differs from a fresh run");
    }
    assert_ne!(report_digest(&reports[0]), report_digest(&reports[3]), "the block tweak is a cell");

    // A later submission reads every cell from the memo.
    let again = session.run("memo_again", [Cell::ndp("", cells[0].1.clone())]);
    assert_eq!(session.simulated(), 3);
    assert_eq!(report_digest(&again[0]), report_digest(&reports[0]));
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
    session.run("first", cells);
    let keys = dump_keys(&dir.join("first.cells.json"));
    assert_eq!(keys, ["bulk/hbm/NDPExt/pr", "consistent/hbm/NDPExt/pr", "host/pr"]);

    // A second figure lists only the cells it simulated.
    let cells = [Cell::host("pr", OPS), Cell::ndp("", spec(PolicyKind::Nexus, "pr"))];
    session.run("second", cells);
    assert_eq!(dump_keys(&dir.join("second.cells.json")), ["hbm/Nexus/pr"]);
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("read the metrics directory")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(written, ["first.cells.json", "second.cells.json"], "one file per run");
    let _ = std::fs::remove_dir_all(&dir);
}
