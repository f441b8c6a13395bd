//! Property suite: a lazily generated power-law graph must be
//! indistinguishable from eager generation.
//!
//! [`CsrGraph::powerlaw`] draws only the degrees up front and generates a
//! chunk's edges from a recorded generator state on first read. The suite
//! rebuilds each graph with an independent eager generator (the loop the
//! lazy one replays) and checks, for random `(vertices, avg_degree, seed)`,
//! that offsets and every neighbour list agree when chunks are read in a
//! random order, by two threads at once.

use std::sync::Barrier;

use ndpx_sim::rng::{PowerlawSampler, Xoshiro256};
use ndpx_workloads::graph::CsrGraph;

/// The eager power-law CSR build: degree and edges of each vertex drawn in
/// vertex order from one generator.
fn eager_powerlaw(vertices: u32, avg_degree: u32, seed: u64) -> (Vec<u64>, Vec<u32>) {
    let mut rng = Xoshiro256::seed_from(seed);
    let n = vertices as usize;
    let dst = PowerlawSampler::new(u64::from(vertices), 1.8);
    let (mut offsets, mut edges) = (vec![0u64], Vec::new());
    for v in 0..n {
        let deg_scale = if v < n / 100 + 1 { 8 } else { 1 };
        let deg = 1 + rng.below(u64::from(avg_degree) * 2 * deg_scale - 1) as usize;
        for _ in 0..deg.min(n - 1) {
            edges.push(dst.sample(&mut rng) as u32);
        }
        offsets.push(edges.len() as u64);
    }
    (offsets, edges)
}

/// A random permutation of `0..n`.
fn shuffled(n: u32, rng: &mut Xoshiro256) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

#[test]
fn lazy_generation_matches_eager_in_any_read_order() {
    let mut meta = Xoshiro256::seed_from(0x1A2E_6A4F);
    for round in 0..24 {
        // 1 to 3000 vertices: single partial chunks, exact chunk multiples
        // and ragged tails all occur.
        let vertices = match round {
            0 => 1,
            1 => 256,
            2 => 512,
            _ => 1 + meta.below(3000) as u32,
        };
        let avg_degree = 1 + meta.below(20) as u32;
        let seed = meta.next_u64();
        let (offsets, edges) = eager_powerlaw(vertices, avg_degree, seed);
        let lazy = CsrGraph::powerlaw(vertices, avg_degree, seed);
        let label = format!("powerlaw({vertices}, {avg_degree}, {seed:#x})");
        assert_eq!(lazy.vertices(), vertices, "{label}");
        assert_eq!(lazy.edge_count(), edges.len() as u64, "{label}");
        for v in 0..vertices {
            let (s, e) = (offsets[v as usize], offsets[v as usize + 1]);
            assert_eq!(lazy.edge_range(v), (s, e), "{label}: offsets of {v}");
        }
        assert_eq!(lazy.resident_chunks(), 0, "{label}: the degree pass drew edges");

        let orders = [shuffled(vertices, &mut meta), shuffled(vertices, &mut meta)];
        let start = Barrier::new(2);
        std::thread::scope(|scope| {
            for order in &orders {
                let (lazy, offsets, edges, start, label) =
                    (&lazy, &offsets, &edges, &start, &label);
                scope.spawn(move || {
                    start.wait();
                    for &v in order {
                        let (s, e) =
                            (offsets[v as usize] as usize, offsets[v as usize + 1] as usize);
                        assert_eq!(lazy.neighbors(v), &edges[s..e], "{label}: edges of {v}");
                    }
                });
            }
        });
        assert_eq!(lazy.resident_chunks(), lazy.chunk_count(), "{label}");
    }
}
