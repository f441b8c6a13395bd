//! Synthetic power-law graphs in CSR form.
//!
//! The paper's graph workloads run GAP kernels on large real graphs; we
//! substitute a seeded R-MAT-flavoured generator whose degree skew drives the
//! same indirect-stream locality behaviour (hot high-degree vertices are
//! cache-friendly; the cold tail misses). See DESIGN.md §3.

use std::fmt;
use std::sync::OnceLock;

use ndpx_sim::rng::{PowerlawSampler, Xoshiro256};

/// Vertices per edge chunk, the unit in which a power-law graph generates
/// its edges on first read (DESIGN.md §16).
const CHUNK_VERTICES: usize = 256;

/// A directed graph in compressed-sparse-row form.
///
/// The edge list is held in chunks of 256 consecutive vertices. A
/// power-law graph fills a chunk the first time one of its vertices'
/// neighbours is read, from the generator state recorded at the chunk's
/// first vertex; the result is the same edge list an eager generator would
/// build. A lattice fills every chunk at construction.
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes the edges of vertex `v`.
    offsets: Vec<u64>,
    /// Destinations of the edges of chunk `c`'s vertices, in edge order.
    chunks: Box<[OnceLock<Box<[u32]>>]>,
    /// Generates unfilled chunks; `None` when every chunk is filled.
    source: Option<PowerlawEdges>,
}

/// What a power-law graph needs to generate a chunk's edges.
struct PowerlawEdges {
    dst: PowerlawSampler,
    avg_degree: u32,
    /// The generator state at the first vertex of each chunk.
    checkpoints: Vec<Xoshiro256>,
}

/// Out-degree draw of vertex `v` of an `n`-vertex power-law graph: hubs
/// (the lowest 1% of IDs) emit up to 8× more edges. One `next_u64`.
fn draw_degree(rng: &mut Xoshiro256, v: usize, n: usize, avg_degree: u32) -> u64 {
    let deg_scale = if v < n / 100 + 1 { 8 } else { 1 };
    let deg = 1 + rng.below(u64::from(avg_degree) * 2 * deg_scale - 1);
    deg.min(n as u64 - 1)
}

impl CsrGraph {
    /// Generates a power-law graph of `vertices` vertices and roughly
    /// `vertices * avg_degree` edges. Low vertex IDs are high-degree hubs.
    ///
    /// Only the degrees are drawn here; each chunk's edges are drawn on the
    /// first [`neighbors`](Self::neighbors) call that reads it.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or `avg_degree` is zero.
    pub fn powerlaw(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        assert!(vertices > 0, "graph must have vertices");
        assert!(avg_degree > 0, "graph must have edges");
        let mut rng = Xoshiro256::seed_from(seed);
        let n = vertices as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut checkpoints = Vec::with_capacity(n.div_ceil(CHUNK_VERTICES));
        offsets.push(0);
        // Out-degree is skewed: hubs emit many edges. Destination choice is
        // also skewed toward hubs (preferential attachment flavour).
        let dst = PowerlawSampler::new(u64::from(vertices), 1.8);
        let mut edges = 0;
        for v in 0..n {
            if v.is_multiple_of(CHUNK_VERTICES) {
                checkpoints.push(rng.clone());
            }
            let deg = draw_degree(&mut rng, v, n, avg_degree);
            dst.skip(&mut rng, deg);
            edges += deg;
            offsets.push(edges);
        }
        let chunks = (0..checkpoints.len()).map(|_| OnceLock::new()).collect();
        CsrGraph { offsets, chunks, source: Some(PowerlawEdges { dst, avg_degree, checkpoints }) }
    }

    /// Generates a 3D lattice of `dim³` cells where each cell's neighbours
    /// are the (up to) 26 adjacent cells — the box-neighbourhood structure of
    /// molecular-dynamics kernels such as lavaMD.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn lattice3d(dim: u32) -> Self {
        assert!(dim > 0, "lattice must be non-empty");
        let n = (dim * dim * dim) as usize;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut chunks = Vec::with_capacity(n.div_ceil(CHUNK_VERTICES));
        let mut edges = Vec::new();
        offsets.push(0);
        let lim = i64::from(dim);
        for v in 0..n as u32 {
            let (x, y, z) = (v % dim, v / dim % dim, v / (dim * dim));
            let before = edges.len();
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 && dz == 0 {
                            continue;
                        }
                        let (nx, ny, nz) =
                            (i64::from(x) + dx, i64::from(y) + dy, i64::from(z) + dz);
                        if (0..lim).contains(&nx)
                            && (0..lim).contains(&ny)
                            && (0..lim).contains(&nz)
                        {
                            edges.push((nz as u32 * dim + ny as u32) * dim + nx as u32);
                        }
                    }
                }
            }
            offsets.push(offsets[v as usize] + (edges.len() - before) as u64);
            let v = v as usize + 1;
            if v.is_multiple_of(CHUNK_VERTICES) || v == n {
                chunks.push(OnceLock::from(std::mem::take(&mut edges).into_boxed_slice()));
            }
        }
        CsrGraph { offsets, chunks: chunks.into_boxed_slice(), source: None }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of edges.
    pub fn edge_count(&self) -> u64 {
        self.offsets[self.offsets.len() - 1]
    }

    /// The half-open edge index range of `v`.
    #[inline]
    pub fn edge_range(&self, v: u32) -> (u64, u64) {
        (self.offsets[v as usize], self.offsets[v as usize + 1])
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u64 {
        let (s, e) = self.edge_range(v);
        e - s
    }

    /// Destinations of `v`'s edges, in edge order; generates `v`'s chunk
    /// on its first read.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let c = v as usize / CHUNK_VERTICES;
        let chunk = self.chunks[c].get_or_init(|| self.generate_chunk(c));
        let base = self.offsets[c * CHUNK_VERTICES];
        let (s, e) = self.edge_range(v);
        &chunk[(s - base) as usize..(e - base) as usize]
    }

    /// Edge chunks, each of 256 vertices (the last may hold fewer).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Edge chunks whose edges are resident: generated by a read, or
    /// filled at construction.
    pub fn resident_chunks(&self) -> usize {
        self.chunks.iter().filter(|c| c.get().is_some()).count()
    }

    /// Replays the power-law generator from chunk `c`'s checkpoint: the same
    /// draws, in the same order, as the degree pass skipped.
    #[cold]
    fn generate_chunk(&self, c: usize) -> Box<[u32]> {
        let src = self.source.as_ref().expect("only power-law graphs have unfilled chunks");
        let n = self.offsets.len() - 1;
        let (vb, ve) = (c * CHUNK_VERTICES, ((c + 1) * CHUNK_VERTICES).min(n));
        let mut rng = src.checkpoints[c].clone();
        let mut edges = Vec::with_capacity((self.offsets[ve] - self.offsets[vb]) as usize);
        for v in vb..ve {
            let deg = draw_degree(&mut rng, v, n, src.avg_degree);
            debug_assert_eq!(deg, self.offsets[v + 1] - self.offsets[v], "replayed degree drifted");
            edges.extend((0..deg).map(|_| src.dst.sample(&mut rng) as u32));
        }
        edges.into_boxed_slice()
    }
}

impl PartialEq for CsrGraph {
    /// Graphs are equal when their offsets and every neighbour list are;
    /// comparing generates every chunk of both.
    fn eq(&self, other: &Self) -> bool {
        self.offsets == other.offsets
            && (0..self.vertices()).all(|v| self.neighbors(v) == other.neighbors(v))
    }
}

impl Eq for CsrGraph {}

impl fmt::Debug for CsrGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CsrGraph")
            .field("vertices", &self.vertices())
            .field("edges", &self.edge_count())
            .field("chunks", &self.chunk_count())
            .field("resident_chunks", &self.resident_chunks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = CsrGraph::powerlaw(1000, 8, 42);
        let b = CsrGraph::powerlaw(1000, 8, 42);
        assert_eq!(a, b);
        let c = CsrGraph::powerlaw(1000, 8, 43);
        assert_ne!(a, c);
    }

    /// One hash over a graph's CSR arrays.
    fn csr_hash(g: &CsrGraph) -> u64 {
        let offsets = g.offsets.iter().copied();
        let edges = (0..g.vertices()).flat_map(|v| g.neighbors(v)).map(|&e| u64::from(e));
        offsets.chain(edges).fold(0, |h, x| ndpx_sim::rng::mix64(h ^ x))
    }

    #[test]
    fn powerlaw_graphs_match_pinned_hashes() {
        // Recorded from the per-edge `powf` generator; the table sampler
        // must reproduce every edge. The largest graph reaches the dense
        // tail of the destination distribution.
        let pins = [
            ((1500, 6, 0xCAFE), 0xfd51_8d8b_0d83_9e0a),
            ((20_000, 12, 0xBEEF), 0x9e09_7fb8_03d4_1813),
            ((300_000, 12, 0xBEEF), 0x852e_5c79_3503_6774),
        ];
        for ((vertices, avg_degree, seed), pin) in pins {
            let g = CsrGraph::powerlaw(vertices, avg_degree, seed);
            assert_eq!(csr_hash(&g), pin, "powerlaw({vertices}, {avg_degree}, {seed:#x}) moved");
        }
    }

    #[test]
    fn csr_invariants() {
        let g = CsrGraph::powerlaw(500, 6, 7);
        assert_eq!(g.vertices(), 500);
        assert!(g.edge_count() > 0);
        let mut total = 0;
        for v in 0..g.vertices() {
            let (s, e) = g.edge_range(v);
            assert!(s <= e);
            total += e - s;
            assert_eq!(g.neighbors(v).len() as u64, e - s);
            assert!(g.neighbors(v).iter().all(|&d| d < g.vertices()));
        }
        assert_eq!(total, g.edge_count());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = CsrGraph::powerlaw(10_000, 8, 9);
        // In-degree of hubs (low IDs) should dominate: count edge targets.
        let hot = (0..g.vertices()).flat_map(|v| g.neighbors(v)).filter(|&&d| d < 100).count();
        let frac = hot as f64 / g.edge_count() as f64;
        assert!(frac > 0.2, "top-1% vertices draw only {frac} of edges");
    }

    #[test]
    fn lattice_chunks_are_filled_at_construction() {
        // 7³ = 343 cells: one full chunk and a partial one.
        let g = CsrGraph::lattice3d(7);
        assert_eq!((g.chunk_count(), g.resident_chunks()), (2, 2));
        assert_eq!(g.neighbors(0), [1, 7, 8, 49, 50, 56, 57]);
        let centre = (3 * 7 + 3) * 7 + 3;
        assert_eq!(g.neighbors(centre).len(), 26);
        assert_eq!(g.neighbors(342), [285, 286, 292, 293, 334, 335, 341]);
    }

    #[test]
    fn average_degree_near_target() {
        let g = CsrGraph::powerlaw(2000, 10, 1);
        let avg = g.edge_count() as f64 / f64::from(g.vertices());
        assert!(avg > 5.0 && avg < 25.0, "avg degree {avg}");
    }
}
