//! Workload registry: construct any of the paper's 13 workloads by name.

use std::sync::Arc;

use ndpx_stream::StreamError;

use crate::trace::{ScaleParams, Workload};
use crate::{gap, rodinia, tensor};

/// The names of all evaluated workloads, in the paper's grouping order:
/// tensor, Rodinia, GAP.
pub const ALL_WORKLOADS: [&str; 13] = [
    "recsys",
    "mv",
    "gnn",
    "backprop",
    "hotspot",
    "lavaMD",
    "lud",
    "pathfinder",
    "bfs",
    "pr",
    "cc",
    "bc",
    "tc",
];

/// A representative subset used by latency/miss-rate figures (Fig. 7).
pub const REPRESENTATIVE_WORKLOADS: [&str; 6] =
    ["recsys", "mv", "hotspot", "pathfinder", "pr", "tc"];

/// Constructs the named workload.
///
/// # Errors
///
/// Returns `None` for unknown names; propagates stream-configuration errors.
pub fn build(name: &str, p: &ScaleParams) -> Option<Result<Workload, StreamError>> {
    Some(match name {
        "recsys" => tensor::recsys(p),
        "mv" => tensor::mv(p),
        "gnn" => tensor::gnn(p),
        "backprop" => rodinia::backprop(p),
        "hotspot" => rodinia::hotspot(p),
        "lavaMD" => rodinia::lavamd(p),
        "lud" => rodinia::lud(p),
        "pathfinder" => rodinia::pathfinder(p),
        other => return gap::build(other, p, Arc::new(gap::graph(other, p)?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_builds() {
        let p = ScaleParams { cores: 2, footprint: 4 << 20, seed: 9 };
        for name in ALL_WORKLOADS {
            let w = build(name, &p).expect("known name").expect("constructs");
            assert_eq!(w.name, name);
            assert!(w.table.len() >= 3);
        }
    }

    #[test]
    fn unknown_name_is_none() {
        let p = ScaleParams::test_default();
        assert!(build("nope", &p).is_none());
    }

    #[test]
    fn representative_subset_is_subset() {
        for name in REPRESENTATIVE_WORKLOADS {
            assert!(ALL_WORKLOADS.contains(&name));
        }
    }

    #[test]
    fn stream_counts_span_the_paper_range() {
        // The paper reports 4 to 256 streams across workloads.
        let p = ScaleParams { cores: 2, footprint: 4 << 20, seed: 9 };
        let counts: Vec<usize> =
            ALL_WORKLOADS.iter().map(|n| build(n, &p).unwrap().unwrap().table.len()).collect();
        assert!(counts.iter().any(|&c| c <= 8), "some workload should have few streams");
        assert!(counts.iter().any(|&c| c >= 32), "some workload should have many streams");
    }
}
