//! GAP benchmark suite kernels (paper §VI: bfs, pr, cc, bc, tc).
//!
//! Each kernel runs over a synthetic power-law graph sized so the total
//! footprint matches [`ScaleParams::footprint`], with the same stream
//! decomposition the paper annotates: the CSR offsets and edge list are
//! affine streams, while destination-indexed arrays (ranks, labels, visited
//! flags, …) are indirect streams driven by the edge list.

use std::sync::Arc;

use ndpx_stream::StreamError;

use crate::engines::{
    EdgeAction, GraphKernel, GraphKernelSpec, PingPong, VertexWrite, Visit, WithRareRaw,
};
use crate::graph::CsrGraph;
use crate::layout::AddressSpace;
use crate::trace::{ScaleParams, Workload};

/// Average out-degree of the synthetic graphs.
const AVG_DEGREE: u32 = 12;
/// Period of injected non-stream (bypass) accesses.
const RAW_PERIOD: u32 = 2048;

/// A kernel's constructor over its graph.
type Kernel = fn(&ScaleParams, Arc<CsrGraph>) -> Result<Workload, StreamError>;

/// Each kernel by name, with the footprint bytes per vertex that its own
/// arrays add to the CSR arrays.
const KERNELS: [(&str, u64, Kernel); 5] =
    [("bfs", 8, bfs), ("pr", 16, pagerank), ("cc", 4, cc), ("bc", 20, bc), ("tc", 4, tc)];

fn kernel(name: &str) -> Option<&'static (&'static str, u64, Kernel)> {
    KERNELS.iter().find(|(n, ..)| *n == name)
}

/// The graph GAP kernel `name` reads at `p`, sized so its offsets, edges
/// and per-vertex arrays fill about the footprint; `None` for a name
/// outside GAP.
pub fn graph(name: &str, p: &ScaleParams) -> Option<CsrGraph> {
    let &(_, aux_bytes_per_vertex, _) = kernel(name)?;
    let bytes_per_vertex = 8 + 4 * u64::from(AVG_DEGREE) + aux_bytes_per_vertex;
    let vertices = (p.footprint / bytes_per_vertex).clamp(1024, u32::MAX as u64 / 2) as u32;
    Some(CsrGraph::powerlaw(vertices, AVG_DEGREE, p.seed))
}

/// Builds GAP kernel `name` over `g`, which the registry takes from
/// [`graph`]; `None` for a name outside GAP.
///
/// # Errors
///
/// Propagates stream-configuration failures (cannot happen for valid scale
/// parameters).
pub fn build(
    name: &str,
    p: &ScaleParams,
    g: Arc<CsrGraph>,
) -> Option<Result<Workload, StreamError>> {
    let &(_, _, kernel) = kernel(name)?;
    Some(kernel(p, g))
}

struct GraphStreams {
    space: AddressSpace,
    offsets: ndpx_stream::StreamId,
    edges: ndpx_stream::StreamId,
}

/// Allocates the CSR streams shared by all GAP kernels.
fn graph_streams(g: &CsrGraph) -> Result<GraphStreams, StreamError> {
    let mut space = AddressSpace::new();
    let (offsets, _) = space.alloc_affine(u64::from(g.vertices() + 1) * 8, 8)?;
    let (edges, _) = space.alloc_affine(g.edge_count().max(1) * 4, 4)?;
    Ok(GraphStreams { space, offsets, edges })
}

fn finish(
    name: &'static str,
    p: &ScaleParams,
    space: AddressSpace,
    kernel: GraphKernel,
) -> Workload {
    let mut space = space;
    let raw_base = space.alloc_raw(p.cores as u64 * 4096);
    Workload {
        name,
        table: space.into_table(),
        source: Box::new(WithRareRaw::new(kernel, raw_base, RAW_PERIOD, p.cores)),
        cores: p.cores,
    }
}

/// PageRank: full edge scans, indirect rank reads, ping-pong rank arrays.
fn pagerank(p: &ScaleParams, g: Arc<CsrGraph>) -> Result<Workload, StreamError> {
    let mut gs = graph_streams(&g)?;
    let v = u64::from(g.vertices());
    let (rank_a, _) = gs.space.alloc_indirect(v * 8, 8, Some(gs.edges))?;
    let (rank_b, _) = gs.space.alloc_indirect(v * 8, 8, Some(gs.edges))?;
    let kernel = GraphKernel::new(
        g,
        p.cores,
        GraphKernelSpec {
            offsets: gs.offsets,
            edges: gs.edges,
            vertex_reads: vec![],
            hot_reads: vec![],
            edge_actions: vec![EdgeAction::DstScaled {
                sid: PingPong(rank_a, rank_b),
                elems: 1,
                write: false,
            }],
            vertex_writes: vec![VertexWrite { sid: PingPong(rank_b, rank_a), elems: 1 }],
            compute_per_edge: 1,
            compute_per_vertex: 2,
            visit: Visit::All,
        },
    );
    Ok(finish("pr", p, gs.space, kernel))
}

/// Breadth-first search: frontier-wave visits, visited-flag updates.
fn bfs(p: &ScaleParams, g: Arc<CsrGraph>) -> Result<Workload, StreamError> {
    let mut gs = graph_streams(&g)?;
    let v = u64::from(g.vertices());
    let (visited, _) = gs.space.alloc_indirect(v * 4, 4, Some(gs.edges))?;
    let (parent, _) = gs.space.alloc_indirect(v * 4, 4, Some(gs.edges))?;
    let kernel = GraphKernel::new(
        g,
        p.cores,
        GraphKernelSpec {
            offsets: gs.offsets,
            edges: gs.edges,
            vertex_reads: vec![],
            hot_reads: vec![],
            edge_actions: vec![
                EdgeAction::DstScaled { sid: PingPong::fixed(visited), elems: 1, write: false },
                EdgeAction::DstScaled { sid: PingPong::fixed(parent), elems: 1, write: true },
            ],
            vertex_writes: vec![VertexWrite { sid: PingPong::fixed(visited), elems: 1 }],
            compute_per_edge: 1,
            compute_per_vertex: 1,
            visit: Visit::FrontierWave,
        },
    );
    Ok(finish("bfs", p, gs.space, kernel))
}

/// Connected components (label propagation).
fn cc(p: &ScaleParams, g: Arc<CsrGraph>) -> Result<Workload, StreamError> {
    let mut gs = graph_streams(&g)?;
    let v = u64::from(g.vertices());
    let (labels, _) = gs.space.alloc_indirect(v * 4, 4, Some(gs.edges))?;
    let kernel = GraphKernel::new(
        g,
        p.cores,
        GraphKernelSpec {
            offsets: gs.offsets,
            edges: gs.edges,
            vertex_reads: vec![],
            hot_reads: vec![],
            edge_actions: vec![EdgeAction::DstScaled {
                sid: PingPong::fixed(labels),
                elems: 1,
                write: false,
            }],
            vertex_writes: vec![VertexWrite { sid: PingPong::fixed(labels), elems: 1 }],
            compute_per_edge: 1,
            compute_per_vertex: 1,
            visit: Visit::All,
        },
    );
    Ok(finish("cc", p, gs.space, kernel))
}

/// Betweenness centrality: frontier traversal reading per-vertex path counts
/// and depths, accumulating dependencies.
fn bc(p: &ScaleParams, g: Arc<CsrGraph>) -> Result<Workload, StreamError> {
    let mut gs = graph_streams(&g)?;
    let v = u64::from(g.vertices());
    let (sigma, _) = gs.space.alloc_indirect(v * 8, 8, Some(gs.edges))?;
    let (depth, _) = gs.space.alloc_indirect(v * 4, 4, Some(gs.edges))?;
    let (delta, _) = gs.space.alloc_indirect(v * 8, 8, Some(gs.edges))?;
    let kernel = GraphKernel::new(
        g,
        p.cores,
        GraphKernelSpec {
            offsets: gs.offsets,
            edges: gs.edges,
            vertex_reads: vec![],
            hot_reads: vec![],
            edge_actions: vec![
                EdgeAction::DstScaled { sid: PingPong::fixed(sigma), elems: 1, write: false },
                EdgeAction::DstScaled { sid: PingPong::fixed(depth), elems: 1, write: false },
            ],
            vertex_writes: vec![VertexWrite { sid: PingPong::fixed(delta), elems: 1 }],
            compute_per_edge: 2,
            compute_per_vertex: 2,
            visit: Visit::FrontierWave,
        },
    );
    Ok(finish("bc", p, gs.space, kernel))
}

/// Triangle counting: per-edge intersection walks of the destination's
/// adjacency list (heavy irregular re-reads of the edge stream).
fn tc(p: &ScaleParams, g: Arc<CsrGraph>) -> Result<Workload, StreamError> {
    let mut gs = graph_streams(&g)?;
    let v = u64::from(g.vertices());
    let (counts, _) = gs.space.alloc_indirect(v * 4, 4, Some(gs.edges))?;
    let kernel = GraphKernel::new(
        g,
        p.cores,
        GraphKernelSpec {
            offsets: gs.offsets,
            edges: gs.edges,
            vertex_reads: vec![],
            hot_reads: vec![],
            edge_actions: vec![EdgeAction::DstEdges { cap: 16 }],
            vertex_writes: vec![VertexWrite { sid: PingPong::fixed(counts), elems: 1 }],
            compute_per_edge: 2,
            compute_per_vertex: 1,
            visit: Visit::All,
        },
    );
    Ok(finish("tc", p, gs.space, kernel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    fn small() -> ScaleParams {
        ScaleParams { cores: 4, footprint: 4 << 20, seed: 1 }
    }

    fn built(name: &str, p: &ScaleParams) -> Workload {
        crate::registry::build(name, p).expect("a GAP kernel").expect("constructs")
    }

    #[test]
    fn all_kernels_construct_and_generate() {
        for (name, ..) in KERNELS {
            let mut w = built(name, &small());
            assert!(w.table.len() >= 3, "{} has too few streams", w.name);
            let mut mem = 0;
            for _ in 0..1000 {
                if let Op::Mem(m) = w.source.next_op(0) {
                    // Every reference must resolve to a real element.
                    let cfg = w.table.get(m.sid);
                    assert!(m.elem < cfg.elems(), "{}: elem out of range", w.name);
                    mem += 1;
                }
            }
            assert!(mem > 500, "{} produced too few memory ops", w.name);
        }
    }

    #[test]
    fn pagerank_ping_pongs_ranks() {
        // Tiny graph, one core, so the op budget spans several iterations.
        let mut w = built("pr", &ScaleParams { cores: 1, footprint: 128 << 10, seed: 1 });
        let mut sids = std::collections::BTreeSet::new();
        for _ in 0..400_000 {
            if let Op::Mem(m) = w.source.next_op(0) {
                if m.write {
                    sids.insert(m.sid);
                }
            }
        }
        // Writes alternate between the two rank arrays across iterations.
        assert!(sids.len() >= 2, "expected ping-pong writes, saw {sids:?}");
    }

    #[test]
    fn footprint_scales_with_params() {
        let small_g = built("pr", &small());
        let big = ScaleParams { footprint: 16 << 20, ..small() };
        let big_g = built("pr", &big);
        let sum = |w: &Workload| -> u64 { w.table.iter().map(|s| s.size).sum() };
        assert!(sum(&big_g) > sum(&small_g) * 2);
    }

    #[test]
    fn bypass_accesses_are_rare_but_present() {
        let mut w = built("cc", &small());
        let mut raw = 0;
        let mut total = 0;
        for _ in 0..10_000 {
            total += 1;
            if let Op::RawMem { .. } = w.source.next_op(1) {
                raw += 1;
            }
        }
        assert!(raw > 0);
        assert!((raw as f64) / (total as f64) < 0.001 * 2.0);
    }
}
