//! Trace materialization reads few of a power-law graph's edge chunks.
//!
//! A GAP kernel partitions its vertices across cores and replays a fixed
//! number of ops per core, so a `test`-profile trace walks the first few
//! vertices of each core's range. A lazy [`CsrGraph`] generates only the
//! chunks those vertices fall in. This test fails if a change makes graph
//! construction (or trace generation) draw every edge again.

use ndpx_bench::runner::BenchScale;
use ndpx_core::config::{MemKind, PolicyKind};
use ndpx_stream::StreamId;
use ndpx_workloads::graph::CsrGraph;
use ndpx_workloads::{CachedTrace, TraceKey};

/// Average out-degree of the GAP kernels' graphs.
const GAP_AVG_DEGREE: u32 = 12;

#[test]
fn test_scale_traces_generate_few_edge_chunks() {
    let scale = BenchScale::Test;
    let params = scale.workload(&scale.system(MemKind::Hbm, PolicyKind::NdpExt));
    // tc and cc size the same graph: cc's count includes tc's chunks.
    for name in ["tc", "pr", "cc"] {
        let trace = CachedTrace::materialize(&TraceKey::new(name, &params, scale.ops_per_core()));
        // The offsets stream, a GAP kernel's first, has one element per
        // vertex plus one.
        let vertices = trace.table.get(StreamId(0)).elems() - 1;
        // The kernel's graph, from the process-wide graph cache.
        let g = CsrGraph::powerlaw_shared(vertices as u32, GAP_AVG_DEGREE, params.seed);
        let (resident, total) = (g.resident_chunks(), g.chunk_count());
        eprintln!("{name}: {resident} of {total} edge chunks generated");
        assert!(resident > 0, "{name}: no chunk generated; is the graph cache off?");
        assert!(
            resident * 100 <= total * 15,
            "{name}: {resident} of {total} edge chunks generated, above 15%"
        );
    }
}
