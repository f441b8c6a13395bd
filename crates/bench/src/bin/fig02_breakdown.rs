//! Figure 2(a): access-latency breakdown, NDP vs conventional NUCA, both
//! under static cacheline interleaving, running PageRank.
//!
//! Expected shape (paper): the NDP system spends a much larger share of
//! access latency on the interconnect than the NUCA host (32% vs 13%) and a
//! visible share on metadata, while achieving a much higher cache hit rate
//! (70% vs 47%) and thus a smaller next-level-memory share.

use ndpx_bench::pool::{expect_ok, CellPool, CellTask};
use ndpx_bench::runner::{run_host_cached, run_ndp_cached, BenchScale, RunSpec};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::{LatComponent, RunReport};

fn print_breakdown(label: &str, r: &ndpx_core::stats::RunReport) {
    let parts: Vec<String> = LatComponent::ALL
        .iter()
        .map(|&c| format!("{}={:.1}%", c.label(), r.breakdown.fraction(c) * 100.0))
        .collect();
    println!("{label:<10} hit-rate={:.2}  {}", 1.0 - r.miss_rate(), parts.join("  "));
}

fn main() {
    let scale = BenchScale::from_env();
    println!("# Fig 2a: latency breakdown under static interleaving, PageRank");

    let spec = RunSpec::new(MemKind::Hbm, PolicyKind::StaticInterleave, "pr", scale);
    let cache = TraceCache::from_env();
    let (spec, cache) = (&spec, &cache);
    let tasks: Vec<CellTask<'_, RunReport>> = vec![
        Box::new(move || run_ndp_cached(spec, cache)),
        Box::new(move || run_host_cached("pr", scale, scale.ops_per_core(), cache)),
    ];
    let mut reports: Vec<RunReport> = expect_ok(CellPool::from_env().run_cells(None, tasks))
        .into_iter()
        .map(|r| r.value)
        .collect();
    let host = reports.pop().expect("two tasks");
    let ndp = reports.pop().expect("two tasks");

    print_breakdown("NUCA", &host);
    print_breakdown("NDP", &ndp);

    let noc = |r: &ndpx_core::stats::RunReport| {
        r.breakdown.fraction(LatComponent::NocIntra) + r.breakdown.fraction(LatComponent::NocInter)
    };
    println!(
        "\ninterconnect share: NDP {:.1}% vs NUCA {:.1}% (paper: 32% vs 13%)",
        noc(&ndp) * 100.0,
        noc(&host) * 100.0
    );
    println!(
        "cache hit rate:     NDP {:.2} vs NUCA {:.2} (paper: 0.70 vs 0.47)",
        1.0 - ndp.miss_rate(),
        1.0 - host.miss_rate()
    );
}
