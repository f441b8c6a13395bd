//! Tensor workloads (paper §VI: mv, gnn, recsys).
//!
//! * `mv` — blocked matrix-vector multiplication: the matrix is split into
//!   many affine chunk streams (the paper notes mv has the most affine
//!   streams), the input vector is a small hot read-only stream (a prime
//!   replication candidate), the output is written once per row.
//! * `gnn` — graph convolution as sparse-dense products: CSR traversal
//!   gathering 64 B feature rows (indirect) plus heavily reused weight
//!   chunks.
//! * `recsys` — DLRM-style inference: many embedding-table streams with
//!   power-law row popularity plus a small dense MLP. The paper's largest
//!   NDPExt win (up to 2.43×).

use std::sync::Arc;

use ndpx_stream::{StreamError, StreamId};

use crate::engines::{
    EdgeAction, Gather, GatherSpec, GraphKernel, GraphKernelSpec, PingPong, ScanReuse,
    ScanReuseSpec, VertexWrite, Visit, WithRareRaw,
};
use crate::graph::CsrGraph;
use crate::layout::AddressSpace;
use crate::trace::{ScaleParams, Workload};

const RAW_PERIOD: u32 = 2048;

/// Number of matrix chunk streams in `mv`.
const MV_CHUNKS: usize = 64;

/// Matrix-vector multiplication with a blocked matrix.
///
/// # Errors
///
/// Propagates stream-configuration failures.
pub fn mv(p: &ScaleParams) -> Result<Workload, StreamError> {
    let mut space = AddressSpace::new();
    let cols: u64 = 4096;
    let rows = (p.footprint / (4 * cols)).max(64);
    let chunk_elems = (rows * cols).div_ceil(MV_CHUNKS as u64);
    let chunks: Vec<StreamId> = (0..MV_CHUNKS)
        .map(|_| space.alloc_affine(chunk_elems * 4, 4).map(|(sid, _)| sid))
        .collect::<Result<_, _>>()?;
    let (x, _) = space.alloc_affine(cols * 4, 4)?;
    let (y, _) = space.alloc_affine(rows * 4, 4)?;
    let engine = ScanReuse::new(
        p.cores,
        ScanReuseSpec {
            rows,
            cols,
            matrix_chunks: chunks,
            hot: Some(x),
            hot_moving: false,
            out: Some(y),
            compute_per_elem: 1,
            alternating_writes: false,
        },
    );
    let raw_base = space.alloc_raw(p.cores as u64 * 4096);
    Ok(Workload {
        name: "mv",
        table: space.into_table(),
        source: Box::new(WithRareRaw::new(engine, raw_base, RAW_PERIOD, p.cores)),
        cores: p.cores,
    })
}

/// Feature-row width of `gnn`, in 4-byte elements (64 B rows).
const GNN_FEATURE_ELEMS: u32 = 16;
/// Weight chunk streams in `gnn`.
const GNN_WEIGHT_CHUNKS: usize = 4;

/// Graph convolution: gather neighbour features, multiply by shared weights.
///
/// # Errors
///
/// Propagates stream-configuration failures.
pub fn gnn(p: &ScaleParams) -> Result<Workload, StreamError> {
    let avg_degree = 12u32;
    // Footprint per vertex: offsets 8 + edges 48 + feature row 64 + out 64.
    let vertices = (p.footprint / 184).clamp(1024, u32::MAX as u64 / 2) as u32;
    let g = Arc::new(CsrGraph::powerlaw(vertices, avg_degree, p.seed));
    let v = u64::from(g.vertices());

    let mut space = AddressSpace::new();
    let (offsets, _) = space.alloc_affine((v + 1) * 8, 8)?;
    let (edges, _) = space.alloc_affine(g.edge_count().max(1) * 4, 4)?;
    let feat_bytes = v * u64::from(GNN_FEATURE_ELEMS) * 4;
    let (features, _) = space.alloc_indirect(feat_bytes, 4, Some(edges))?;
    let (out, _) = space.alloc_affine(feat_bytes, 4)?;
    let weight_elems = 4096u64;
    let weights: Vec<(StreamId, u64, u32)> = (0..GNN_WEIGHT_CHUNKS)
        .map(|_| space.alloc_affine(weight_elems * 4, 4).map(|(sid, _)| (sid, weight_elems, 4)))
        .collect::<Result<_, _>>()?;

    let kernel = GraphKernel::new(
        g,
        p.cores,
        GraphKernelSpec {
            offsets,
            edges,
            vertex_reads: vec![],
            hot_reads: weights,
            edge_actions: vec![EdgeAction::DstScaled {
                sid: PingPong::fixed(features),
                elems: GNN_FEATURE_ELEMS,
                write: false,
            }],
            vertex_writes: vec![VertexWrite {
                sid: PingPong::fixed(out),
                elems: GNN_FEATURE_ELEMS,
            }],
            compute_per_edge: 4,
            compute_per_vertex: 8,
            visit: Visit::All,
        },
    );
    let raw_base = space.alloc_raw(p.cores as u64 * 4096);
    Ok(Workload {
        name: "gnn",
        table: space.into_table(),
        source: Box::new(WithRareRaw::new(kernel, raw_base, RAW_PERIOD, p.cores)),
        cores: p.cores,
    })
}

/// Embedding tables in `recsys`.
const RECSYS_TABLES: usize = 32;
/// Elements (4 B) per embedding row: 64 B rows.
const RECSYS_ROW_ELEMS: u32 = 16;

/// DLRM-style recommendation inference.
///
/// # Errors
///
/// Propagates stream-configuration failures.
pub fn recsys(p: &ScaleParams) -> Result<Workload, StreamError> {
    let mut space = AddressSpace::new();
    let row_bytes = u64::from(RECSYS_ROW_ELEMS) * 4;
    let rows_per_table = (p.footprint / (RECSYS_TABLES as u64 * row_bytes)).max(1024);
    let tables: Vec<StreamId> = (0..RECSYS_TABLES)
        .map(|_| space.alloc_indirect(rows_per_table * row_bytes, 4, None).map(|(sid, _)| sid))
        .collect::<Result<_, _>>()?;
    let mlp: Vec<StreamId> = (0..4)
        .map(|_| space.alloc_affine(64 << 10, 4).map(|(sid, _)| sid))
        .collect::<Result<_, _>>()?;
    let out_elems = 1u64 << 16;
    let (out, _) = space.alloc_affine(out_elems * 4, 4)?;

    let engine = Gather::new(
        p.cores,
        GatherSpec {
            tables,
            rows_per_table,
            elems_per_row: RECSYS_ROW_ELEMS,
            lookups: 4,
            alpha: 1.7,
            mlp,
            mlp_elems: 64,
            out,
            out_elems,
            compute_per_request: 32,
        },
    );
    let raw_base = space.alloc_raw(p.cores as u64 * 4096);
    Ok(Workload {
        name: "recsys",
        table: space.into_table(),
        source: Box::new(WithRareRaw::new(engine, raw_base, RAW_PERIOD, p.cores)),
        cores: p.cores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Op;

    fn small() -> ScaleParams {
        ScaleParams { cores: 4, footprint: 8 << 20, seed: 2 }
    }

    #[test]
    fn mv_has_many_affine_streams() {
        let w = mv(&small()).unwrap();
        assert!(w.table.len() >= MV_CHUNKS + 2);
        let affine = w.table.iter().filter(|s| s.kind.is_affine()).count();
        assert_eq!(affine, w.table.len());
    }

    #[test]
    fn gnn_mixes_affine_and_indirect() {
        let w = gnn(&small()).unwrap();
        let affine = w.table.iter().filter(|s| s.kind.is_affine()).count();
        let indirect = w.table.len() - affine;
        assert!(affine >= 2 && indirect >= 1);
    }

    #[test]
    fn recsys_has_a_stream_per_table() {
        let w = recsys(&small()).unwrap();
        assert!(w.table.len() >= RECSYS_TABLES + 5);
    }

    #[test]
    fn generators_stay_in_range() {
        for ctor in [mv, gnn, recsys] {
            let mut w = ctor(&small()).unwrap();
            for core in 0..w.cores {
                for _ in 0..2000 {
                    if let Op::Mem(m) = w.source.next_op(core) {
                        let cfg = w.table.get(m.sid);
                        assert!(
                            m.elem < cfg.elems(),
                            "{}: {} elem {} out of range",
                            w.name,
                            m.sid,
                            m.elem
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mv_reuses_x_heavily() {
        let mut w = mv(&small()).unwrap();
        // x is the stream right after the 64 chunks: sid 64.
        let mut x_reads = 0u64;
        let mut mat_reads = 0u64;
        for _ in 0..50_000 {
            if let Op::Mem(m) = w.source.next_op(0) {
                if m.sid.index() == MV_CHUNKS {
                    x_reads += 1;
                } else if m.sid.index() < MV_CHUNKS {
                    mat_reads += 1;
                }
            }
        }
        assert!(x_reads > 0);
        // One x read per matrix element.
        assert!((x_reads as f64 / mat_reads as f64 - 1.0).abs() < 0.1);
    }
}
