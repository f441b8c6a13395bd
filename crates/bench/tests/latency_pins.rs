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
//! the phase profiler on so the `slo.*` scope is published. The bfs cell
//! runs once more with a timeline whose window is its epoch, which pins
//! every epoch's percentiles, not only the last one's.

use ndpx_bench::pool::CellPool;
use ndpx_bench::runner::{BenchScale, Cell, RunSpec, Session};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_sim::telemetry::{Json, StatValue, TimelineConfig};
use ndpx_sim::Time;

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
    let cells =
        [Cell::ndp("", tc), Cell::host("hotspot", scale.ops_per_core()), Cell::ndp("", bfs(None))];
    let reports = run(cells);

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

#[test]
fn every_epoch_keeps_its_slo_percentiles() {
    let dir = std::env::temp_dir().join(format!("ndpx-latency-pins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create timeline dir");
    let tl = TimelineConfig::to_path(dir.join("timeline.json"));
    assert_eq!(tl.window, Time::from_us(10), "the default window is the cell's epoch");
    let report = run([Cell::ndp("", bfs(Some(tl)))]).remove(0);
    let path = dir.join("timeline.Hbm-NdpExt-bfs.json");
    let text = std::fs::read_to_string(&path).expect("timeline written");
    std::fs::remove_dir_all(&dir).ok();
    assert_hist("bfs with a timeline", &report, BFS);

    let doc = Json::parse(&text).expect("timeline is JSON");
    let windows = doc.get("windows").and_then(Json::as_array).expect("windows");
    let leaf = |stats: &Json, name: &str| {
        stats.get(name).and_then(Json::as_f64).unwrap_or_else(|| panic!("no {name}")) as u64
    };
    let mut epochs = Vec::new();
    for w in windows {
        let stats = w.get("stats").expect("stats");
        let closed = leaf(stats, "slo.epochs");
        assert!(closed <= 1, "a window closed {closed} epochs, hiding some");
        if closed == 1 {
            epochs.push((
                leaf(stats, "slo.epoch_p50_ns"),
                leaf(stats, "slo.epoch_p95_ns"),
                leaf(stats, "slo.epoch_p99_ns"),
            ));
        }
    }
    assert_eq!(epochs, BFS_EPOCHS, "bfs: per-epoch (p50, p95, p99) moved");
}

/// The bfs cell under NDPExt with a tenfold shorter epoch (10 µs at test)
/// and the profiler on, plus `timeline` if given.
fn bfs(timeline: Option<TimelineConfig>) -> RunSpec {
    RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, "bfs", BenchScale::Test).with_tweak(move |cfg| {
        cfg.epoch_cycles /= 10;
        cfg.telemetry.profile = true;
        cfg.telemetry.timeline = timeline.clone();
    })
}

fn run<const N: usize>(cells: [Cell; N]) -> Vec<RunReport> {
    Session::new(BenchScale::Test, CellPool::with_threads(1), TraceCache::new())
        .run("test", cells)
        .expect("valid cells")
        .into_iter()
        .map(|r| r.value)
        .collect()
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

// Recorded on the simulator whose NDP miss path fed the SLO epochs through
// a histogram of its own.
#[rustfmt::skip]
const BFS_EPOCHS: &[(u64, u64, u64)] = &[
    (0, 1024, 1024), (0, 512, 1024), (0, 512, 1024), (0, 256, 512),
    (0, 512, 512), (0, 512, 512), (0, 256, 512), (0, 256, 512),
    (0, 128, 512), (0, 64, 512), (0, 128, 512), (0, 256, 512),
    (0, 256, 512), (0, 64, 512), (0, 256, 512), (0, 256, 512),
    (0, 256, 512), (0, 128, 512), (0, 128, 512), (0, 64, 512),
    (0, 128, 512), (0, 64, 512), (0, 64, 512), (0, 256, 512),
    (0, 256, 512), (0, 256, 512), (0, 256, 512), (0, 128, 512),
    (0, 128, 512), (0, 256, 512), (0, 128, 512), (0, 256, 512),
    (0, 128, 512), (0, 256, 512), (0, 512, 512), (0, 64, 512),
    (0, 512, 512), (0, 512, 512), (0, 64, 512), (0, 256, 512),
    (0, 512, 512), (0, 512, 1024), (0, 256, 512), (0, 256, 512),
    (0, 256, 512), (0, 128, 512), (0, 256, 512), (0, 256, 512),
    (0, 256, 512), (0, 256, 512), (0, 128, 512), (0, 256, 512),
    (0, 256, 512), (0, 256, 512), (0, 512, 512), (0, 256, 512),
    (0, 256, 512), (0, 64, 512), (0, 64, 512), (0, 64, 512),
    (0, 512, 1024), (0, 64, 512), (0, 64, 512), (0, 256, 512),
    (0, 64, 512),
];
