//! Pins the stats that no digest covers: `core.access_latency` and the
//! `slo.*` epoch leaves.
//!
//! `report_digest` leaves the access-latency histogram out on purpose, and
//! `slo.*` exists only on time-resolved runs, so a change to how memory ops
//! are counted into them would pass every digest gate. These cells pin both
//! at test scale: tc under NDPExt-static and the hotspot host baseline (the
//! benchmark's `hit-path` pair, nearly all L1 hits) and bfs under NDPExt
//! with a tenfold shorter epoch (the `reconfig` workload's cell, whose
//! epochs close and fold their L1 hits into the SLO percentiles), run with
//! the phase profiler on so the `slo.*` scope is published.

use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{BenchScale, Cell, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::telemetry::StatValue;

/// `(count, total_ps, buckets)` of a `core.access_latency` leaf.
type Hist = (u64, u64, &'static [(u64, u64)]);

fn access_latency(r: &RunReport) -> (u64, u64, Vec<(u64, u64)>) {
    match r.registry.get("core.access_latency") {
        Some(StatValue::Hist { count, total_ps, buckets, .. }) => {
            (*count, *total_ps, buckets.clone())
        }
        other => panic!("core.access_latency is not a histogram: {other:?}"),
    }
}

fn assert_hist(name: &str, r: &RunReport, want: Hist) {
    let got = access_latency(r);
    assert_eq!(
        (got.0, got.1, got.2.as_slice()),
        want,
        "{name}: core.access_latency moved to {got:?}"
    );
    // The report's histogram is the registry's.
    let h = &r.access_latency;
    assert_eq!((h.count(), h.total().as_ps()), (got.0, got.1), "{name}: report histogram");
    assert_eq!(h.iter().collect::<Vec<_>>(), got.2, "{name}: report buckets");
}

#[test]
fn access_latency_and_slo_leaves_keep_their_values() {
    let scale = BenchScale::Test;
    let tc = RunSpec::new(MemKind::Hbm, PolicyKind::NdpExtStatic, "tc", scale);
    let bfs = RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, "bfs", scale).with_tweak(|cfg| {
        cfg.epoch_cycles /= 10;
        cfg.telemetry.profile = true;
    });
    let cells =
        [Cell::ndp("", tc), Cell::host("hotspot", scale.ops_per_core()), Cell::ndp("", bfs)];
    let reports: Vec<RunReport> = Session::new(scale, CellPool::with_threads(1), TraceCache::new())
        .run("test", cells)
        .expect("valid cells")
        .into_iter()
        .map(|r| r.value)
        .collect();

    assert_hist("tc", &reports[0], TC);
    assert_hist("host hotspot", &reports[1], HOTSPOT);
    assert_hist("bfs", &reports[2], BFS);

    let slo: Vec<String> = reports[2]
        .registry
        .iter()
        .filter(|(path, _)| path.starts_with("slo."))
        .map(|(path, v)| format!("{path} {v:?}"))
        .collect();
    assert_eq!(slo, BFS_SLO, "bfs: slo.* moved");
}

// Recorded on the simulator before L1 hits were counted in bulk.
const TC: Hist = (
    300_772,
    932_974_876,
    &[
        (0, 296_270),
        (16, 788),
        (32, 1658),
        (64, 1336),
        (128, 96),
        (256, 149),
        (512, 390),
        (1024, 85),
    ],
);
const HOTSPOT: Hist = (
    280_032,
    1_244_229_932,
    &[(0, 267_549), (8, 14), (16, 83), (32, 2161), (64, 9991), (128, 234)],
);
const BFS: Hist = (
    238_590,
    9_502_890_499,
    &[
        (0, 216_198),
        (16, 2128),
        (32, 3359),
        (64, 3968),
        (128, 624),
        (256, 1641),
        (512, 9495),
        (1024, 1106),
        (2048, 71),
    ],
);
const BFS_SLO: &[&str] = &[
    "slo.downtime_ns Count(20000)",
    "slo.epoch_p50_ns Gauge(0.0)",
    "slo.epoch_p95_ns Gauge(64.0)",
    "slo.epoch_p99_ns Gauge(512.0)",
    "slo.epochs Count(65)",
    "slo.staleness_ns Gauge(22688.0)",
    "slo.streams.poisoned Count(0)",
    "slo.streams.refetched Count(0)",
    "slo.worst_p99_ns Gauge(1024.0)",
    "slo.worst_staleness_ns Gauge(320000.0)",
];
