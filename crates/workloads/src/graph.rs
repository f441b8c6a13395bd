//! Synthetic power-law graphs in CSR form.
//!
//! The paper's graph workloads run GAP kernels on large real graphs; we
//! substitute a seeded R-MAT-flavoured generator whose degree skew drives the
//! same indirect-stream locality behaviour (hot high-degree vertices are
//! cache-friendly; the cold tail misses). See DESIGN.md §3.

use std::sync::{Arc, Mutex, OnceLock};

use ndpx_sim::rng::{PowerlawSampler, Xoshiro256};

/// A directed graph in compressed-sparse-row form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `edges` for vertex `v`.
    offsets: Vec<u64>,
    /// Destination vertex of each edge.
    edges: Vec<u32>,
}

/// Cache key: the full generator parameter tuple `(vertices, avg_degree,
/// seed)`. Generation is a pure function of this key.
type GraphKey = (u32, u32, u64);

/// Most-recently-generated power-law graphs. Sharing one immutable `Arc`
/// across workload constructions is observationally identical to
/// regenerating — but skips one power-law draw per edge (a table load for
/// most, a `powf` for ~5%) and the CSR build when a bench matrix builds the
/// same workload for many policy cells. Bounded so paper-scale sweeps
/// cannot hoard memory.
static POWERLAW_CACHE: Mutex<Vec<(GraphKey, Arc<CsrGraph>)>> = Mutex::new(Vec::new());
/// Distinct graphs kept alive by the cache.
const POWERLAW_CACHE_CAP: usize = 6;

fn powerlaw_cache_enabled() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| ndpx_sim::knobs::GRAPH_CACHE.bool_or(true))
}

impl CsrGraph {
    /// Generates a power-law graph of `vertices` vertices and roughly
    /// `vertices * avg_degree` edges. Low vertex IDs are high-degree hubs.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or `avg_degree` is zero.
    pub fn powerlaw(vertices: u32, avg_degree: u32, seed: u64) -> Self {
        assert!(vertices > 0, "graph must have vertices");
        assert!(avg_degree > 0, "graph must have edges");
        let mut rng = Xoshiro256::seed_from(seed);
        let n = vertices as usize;
        // Vertices are generated in order, so the CSR arrays build directly.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(n * avg_degree as usize);
        offsets.push(0);
        // Out-degree is skewed: hubs emit many edges. Destination choice is
        // also skewed toward hubs (preferential attachment flavour).
        let dst = PowerlawSampler::new(u64::from(vertices), 1.8);
        for v in 0..n {
            let deg_scale = if v < n / 100 + 1 { 8 } else { 1 };
            let deg = 1 + rng.below(u64::from(avg_degree) * 2 * deg_scale - 1) as usize;
            let deg = deg.min(n - 1);
            for _ in 0..deg {
                edges.push(dst.sample(&mut rng) as u32);
            }
            offsets.push(edges.len() as u64);
        }
        CsrGraph { offsets, edges }
    }

    /// [`powerlaw`](Self::powerlaw) behind the process-wide graph cache:
    /// returns a shared immutable graph, generating it only on first use.
    /// Workload constructors go through this so a bench matrix that builds
    /// the same `(workload, footprint, seed)` cell under many policies pays
    /// the skewed-edge generation once per process instead of once per
    /// cell. Set `NDPX_GRAPH_CACHE=0` to regenerate every time.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is zero or `avg_degree` is zero.
    pub fn powerlaw_shared(vertices: u32, avg_degree: u32, seed: u64) -> Arc<Self> {
        if !powerlaw_cache_enabled() {
            return Arc::new(Self::powerlaw(vertices, avg_degree, seed));
        }
        let key = (vertices, avg_degree, seed);
        {
            let cache = POWERLAW_CACHE.lock().expect("graph cache poisoned");
            if let Some((_, g)) = cache.iter().find(|(k, _)| *k == key) {
                return Arc::clone(g);
            }
        }
        // Generate outside the lock: construction takes tens of
        // milliseconds at bench scales and workers may race here. A racing
        // duplicate insert is harmless (both Arcs hold identical graphs).
        let g = Arc::new(Self::powerlaw(vertices, avg_degree, seed));
        let mut cache = POWERLAW_CACHE.lock().expect("graph cache poisoned");
        if !cache.iter().any(|(k, _)| *k == key) {
            if cache.len() >= POWERLAW_CACHE_CAP {
                cache.remove(0);
            }
            cache.push((key, Arc::clone(&g)));
        }
        g
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
        let mut edges = Vec::new();
        offsets.push(0);
        for z in 0..dim {
            for y in 0..dim {
                for x in 0..dim {
                    for dz in -1i64..=1 {
                        for dy in -1i64..=1 {
                            for dx in -1i64..=1 {
                                if dx == 0 && dy == 0 && dz == 0 {
                                    continue;
                                }
                                let (nx, ny, nz) =
                                    (i64::from(x) + dx, i64::from(y) + dy, i64::from(z) + dz);
                                let lim = i64::from(dim);
                                if (0..lim).contains(&nx)
                                    && (0..lim).contains(&ny)
                                    && (0..lim).contains(&nz)
                                {
                                    edges.push((nz as u32 * dim + ny as u32) * dim + nx as u32);
                                }
                            }
                        }
                    }
                    offsets.push(edges.len() as u64);
                }
            }
        }
        CsrGraph { offsets, edges }
    }

    /// Number of vertices.
    pub fn vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of edges.
    pub fn edge_count(&self) -> u64 {
        self.edges.len() as u64
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

    /// Destination of edge index `e`.
    #[inline]
    pub fn edge_dst(&self, e: u64) -> u32 {
        self.edges[e as usize]
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

    #[test]
    fn shared_generation_matches_direct() {
        let direct = CsrGraph::powerlaw(1500, 6, 0xCAFE);
        let shared = CsrGraph::powerlaw_shared(1500, 6, 0xCAFE);
        assert_eq!(*shared, direct, "cache must be observationally identical");
        let again = CsrGraph::powerlaw_shared(1500, 6, 0xCAFE);
        assert!(Arc::ptr_eq(&shared, &again), "second lookup must share the Arc");
        let other = CsrGraph::powerlaw_shared(1500, 6, 0xCAFF);
        assert_ne!(*other, direct);
    }

    /// One hash over a graph's CSR arrays.
    fn csr_hash(g: &CsrGraph) -> u64 {
        let offsets = g.offsets.iter().copied();
        let edges = g.edges.iter().map(|&e| u64::from(e));
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
            for i in s..e {
                assert!(g.edge_dst(i) < g.vertices());
            }
        }
        assert_eq!(total, g.edge_count());
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = CsrGraph::powerlaw(10_000, 8, 9);
        // In-degree of hubs (low IDs) should dominate: count edge targets.
        let mut hot = 0u64;
        for i in 0..g.edge_count() {
            if g.edge_dst(i) < 100 {
                hot += 1;
            }
        }
        let frac = hot as f64 / g.edge_count() as f64;
        assert!(frac > 0.2, "top-1% vertices draw only {frac} of edges");
    }

    #[test]
    fn average_degree_near_target() {
        let g = CsrGraph::powerlaw(2000, 10, 1);
        let avg = g.edge_count() as f64 / f64::from(g.vertices());
        assert!(avg > 5.0 && avg < 25.0, "avg degree {avg}");
    }
}
