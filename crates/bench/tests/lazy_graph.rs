//! Trace generation reads few of a power-law graph's edge chunks.
//!
//! A GAP kernel partitions its vertices across cores and replays a fixed
//! number of ops per core, so a `test`-profile trace walks the first few
//! vertices of each core's range. A lazy [`CsrGraph`] generates only the
//! chunks those vertices fall in. This test fails if a change makes graph
//! construction (or trace generation) draw every edge again.

use std::sync::Arc;

use ndpx_bench::runner::BenchScale;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_workloads::gap;
use ndpx_workloads::graph::CsrGraph;

#[test]
fn test_scale_traces_generate_few_edge_chunks() {
    let scale = BenchScale::Test;
    let params = scale.workload(&scale.system(MemKind::Hbm, PolicyKind::NdpExt));
    for name in ["tc", "pr", "cc"] {
        // The kernel reads the graph held here, so its chunks show what a
        // trace of the scale's op count generates.
        let g: Arc<CsrGraph> = Arc::new(gap::graph(name, &params).expect("a GAP kernel"));
        let mut wl = gap::build(name, &params, Arc::clone(&g)).expect("a GAP kernel").unwrap();
        for core in 0..wl.cores {
            for _ in 0..scale.ops_per_core() {
                wl.source.next_op(core);
            }
        }
        let (resident, total) = (g.resident_chunks(), g.chunk_count());
        eprintln!("{name}: {resident} of {total} edge chunks generated");
        assert!(resident > 0, "{name}: no chunk generated; does the kernel read this graph?");
        assert!(
            resident * 100 <= total * 15,
            "{name}: {resident} of {total} edge chunks generated, above 15%"
        );
    }
}
