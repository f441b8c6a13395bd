//! The fixed perf-gauge cell matrix.
//!
//! One canonical definition of the 36-cell `(mem, policy, workload)` matrix
//! that `perf_gauge` measures and `BENCH_PERF.json` records, shared with the
//! determinism tests so a matrix change cannot silently decouple the gauge
//! from its regression gate.

use ndpx_core::config::{MemKind, PolicyKind};

use crate::runner::{BenchScale, RunSpec};

/// One workload per pattern class: dense affine, graph, skewed indirect.
pub const GAUGE_WORKLOADS: [&str; 3] = ["mv", "pr", "recsys"];

/// Both memory families with their report labels.
pub const GAUGE_MEMS: [(MemKind, &str); 2] = [(MemKind::Hbm, "hbm"), (MemKind::Hmc, "hmc")];

/// Report label of a memory family.
pub fn mem_name(mem: MemKind) -> &'static str {
    match mem {
        MemKind::Hbm => "hbm",
        MemKind::Hmc => "hmc",
    }
}

/// Report label of a scale profile.
pub fn scale_name(scale: BenchScale) -> &'static str {
    match scale {
        BenchScale::Test => "test",
        BenchScale::Small => "small",
        BenchScale::Paper => "paper",
    }
}

/// The gauge's per-core op count at `scale` (a divisor keeps the 36-cell
/// matrix fast relative to headline runs).
pub fn gauge_ops(scale: BenchScale) -> u64 {
    (scale.ops_per_core() / 4).max(1000)
}

/// The 36 cells in canonical order: mems × policies × workloads.
pub fn gauge_specs(scale: BenchScale, ops_per_core: u64) -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for (mem, _) in GAUGE_MEMS {
        for policy in PolicyKind::ALL {
            for workload in GAUGE_WORKLOADS {
                specs.push(RunSpec { ops_per_core, ..RunSpec::new(mem, policy, workload, scale) });
            }
        }
    }
    specs
}

/// The `"cell"` key a spec is recorded under in `BENCH_PERF.json`.
pub fn cell_key(spec: &RunSpec) -> String {
    format!("{}/{}/{}", mem_name(spec.mem), spec.policy.label(), spec.workload)
}

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`), or `None` where the host does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok().map(|kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_36_unique_cells() {
        let specs = gauge_specs(BenchScale::Test, 100);
        assert_eq!(specs.len(), 36);
        let mut keys: Vec<String> = specs.iter().map(cell_key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 36, "cell keys must be unique");
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }

    #[test]
    fn labels_match_the_mems_table() {
        for (mem, name) in GAUGE_MEMS {
            assert_eq!(mem_name(mem), name);
        }
    }
}
