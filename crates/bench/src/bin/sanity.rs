//! Quick trend sanity check: NDPExt vs baselines vs host on one workload,
//! with each policy's Fig 2a latency breakdown.
//!
//! All runs (host included) go through the [`CellPool`], so the check
//! parallelizes under `NDPX_THREADS`; printing happens after collection, in
//! canonical policy order, so the output is identical at any width.
use ndpx_bench::pool::{CellPool, CellTask};
use ndpx_bench::runner::{
    run_host_cached, run_ndp_cached, run_tasks_monitored, BenchScale, RunSpec,
};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::{LatComponent, RunReport};

fn main() {
    let scale = BenchScale::from_env();
    let workload: &'static str = std::env::args().nth(1).map(|s| &*s.leak()).unwrap_or("pr");
    let ops = scale.ops_per_core();
    let filter = ndpx_sim::knobs::POLICY.raw();
    let policies: Vec<PolicyKind> = PolicyKind::ALL
        .into_iter()
        .filter(|p| filter.as_deref().is_none_or(|f| p.label() == f))
        .collect();

    let cache = TraceCache::from_env();
    let cache = &cache;
    let tasks: Vec<CellTask<'_, RunReport>> =
        std::iter::once(
            Box::new(move || run_host_cached(workload, scale, ops, cache)) as CellTask<'_, _>
        )
        .chain(policies.iter().map(|&policy| {
            Box::new(move || {
                let spec = RunSpec {
                    ops_per_core: ops,
                    ..RunSpec::new(MemKind::Hbm, policy, workload, scale)
                };
                run_ndp_cached(&spec, cache)
            }) as CellTask<'_, RunReport>
        }))
        .collect();
    let names: Vec<String> = std::iter::once(format!("host/{workload}"))
        .chain(policies.iter().map(|p| format!("hbm/{}/{workload}", p.label())))
        .collect();
    let mut reports = run_tasks_monitored("sanity", CellPool::from_env(), cache, names, tasks);
    let rest = reports.split_off(1);
    let host = reports.pop().expect("host task ran");

    println!(
        "host      : time {:>12}  miss {:.3}  ops/us {:.1}",
        host.sim_time.to_string(),
        host.miss_rate(),
        host.ops_per_us()
    );
    for (policy, r) in policies.iter().zip(&rest) {
        println!(
            "{:<10}: time {:>12}  miss {:.3}  l1 {:.2}  local {:.2}  icn {:>9}  slbm {}  metaD {}  inv {}  repl {:.2}  vs-host {:.2}x",
            policy.label(), r.sim_time.to_string(), r.miss_rate(), r.l1_hit_rate(),
            r.local_hits as f64 / (r.cache_hits.max(1)) as f64,
            r.avg_interconnect().to_string(), r.slb_misses, r.metadata_dram, r.invalidations,
            r.replicated_fraction,
            host.sim_time.as_ps() as f64 / r.sim_time.as_ps() as f64 * (r.ops as f64 / host.ops as f64),
        );
        // The Fig 2a latency breakdown of the same run, indented under it.
        let parts: Vec<String> = LatComponent::ALL
            .iter()
            .map(|&c| format!("{}={:.2}", c.label(), r.breakdown.fraction(c)))
            .collect();
        println!("    breakdown: {} total={}", parts.join(" "), r.breakdown.total());
    }
}
