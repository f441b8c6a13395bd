//! Figure 5: overall performance comparison.
//!
//! Prints, for every workload and policy, the speedup over the non-NDP host
//! (the paper normalizes all NDP configurations to host execution). Run with
//! `--mem hbm` (Fig. 5a, default) or `--mem hmc` (Fig. 5b).
//!
//! Expected shape (paper): NDP ≫ host (4.3–7.3×); NDPExt best overall,
//! ≈1.41× (HBM) / 1.48× (HMC) over Nexus on average, up to ≈2.43× on recsys;
//! NDPExt-static between the baselines and NDPExt.

use ndpx_bench::gauge::cell_key;
use ndpx_bench::pool::{CellPool, CellTask};
use ndpx_bench::runner::{
    geomean, run_host_cached, run_ndp_cached, run_tasks_monitored, BenchScale, RunSpec,
};
use ndpx_bench::TraceCache;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_core::stats::RunReport;
use ndpx_workloads::ALL_WORKLOADS;

fn main() {
    let mem = match std::env::args().skip_while(|a| a != "--mem").nth(1).as_deref() {
        Some("hmc") => MemKind::Hmc,
        _ => MemKind::Hbm,
    };
    let scale = BenchScale::from_env();
    println!(
        "# Fig 5{}: speedup over non-NDP host ({} scale)",
        if mem == MemKind::Hmc { "b (HMC)" } else { "a (HBM)" },
        format!("{scale:?}").to_lowercase()
    );

    let specs: Vec<RunSpec> = ALL_WORKLOADS
        .iter()
        .flat_map(|&w| PolicyKind::ALL.iter().map(move |&p| RunSpec::new(mem, p, w, scale)))
        .collect();
    // One pooled submission covers the NDP matrix and the per-workload host
    // baselines, so host runs overlap with NDP cells instead of serializing
    // after them.
    let cache = TraceCache::from_env();
    let cache = &cache;
    let tasks: Vec<CellTask<'_, RunReport>> = specs
        .iter()
        .map(|spec| Box::new(move || run_ndp_cached(spec, cache)) as CellTask<'_, RunReport>)
        .chain(ALL_WORKLOADS.iter().map(|&w| {
            Box::new(move || run_host_cached(w, scale, scale.ops_per_core(), cache))
                as CellTask<'_, RunReport>
        }))
        .collect();
    let names: Vec<String> = specs
        .iter()
        .map(cell_key)
        .chain(ALL_WORKLOADS.iter().map(|&w| format!("host/{w}")))
        .collect();
    let run_name = format!("fig05_overall_{}", if mem == MemKind::Hmc { "hmc" } else { "hbm" });
    let mut reports = run_tasks_monitored(&run_name, CellPool::from_env(), cache, names, tasks);
    let hosts = reports.split_off(specs.len());

    let header: Vec<String> = std::iter::once("workload".to_string())
        .chain(PolicyKind::ALL.iter().map(|p| p.label().to_string()))
        .collect();
    let widths = [12usize, 8, 8, 10, 8, 14, 8];
    ndpx_bench::runner::print_row(&header, &widths);

    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); PolicyKind::ALL.len()];
    for (wi, &w) in ALL_WORKLOADS.iter().enumerate() {
        let host = &hosts[wi];
        // Same total op count on both systems: speedup is the makespan
        // ratio scaled by the op-count ratio.
        let mut cells = vec![w.to_string()];
        for (pi, _) in PolicyKind::ALL.iter().enumerate() {
            let r = &reports[wi * PolicyKind::ALL.len() + pi];
            let speedup = (host.sim_time.as_ps() as f64 / r.sim_time.as_ps() as f64)
                * (r.ops as f64 / host.ops as f64);
            per_policy[pi].push(speedup);
            cells.push(format!("{speedup:.2}"));
        }
        ndpx_bench::runner::print_row(&cells, &widths);
    }
    let mut cells = vec!["geomean".to_string()];
    for vals in &per_policy {
        cells.push(format!("{:.2}", geomean(vals.iter().copied())));
    }
    ndpx_bench::runner::print_row(&cells, &widths);

    // The paper's headline: NDPExt over the second-best baseline (Nexus).
    let nexus_i = PolicyKind::ALL.iter().position(|&p| p == PolicyKind::Nexus).expect("listed");
    let ndpx_i = PolicyKind::ALL.iter().position(|&p| p == PolicyKind::NdpExt).expect("listed");
    let ratios: Vec<f64> =
        per_policy[ndpx_i].iter().zip(&per_policy[nexus_i]).map(|(a, b)| a / b).collect();
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nNDPExt over Nexus: geomean {:.2}x, max {:.2}x (paper: 1.41x avg, 2.43x max)",
        geomean(ratios.iter().copied()),
        max
    );
}
