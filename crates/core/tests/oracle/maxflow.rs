//! The previous sampler assignment, kept verbatim as a test oracle.
//!
//! `assign_samplers` used to build an explicit flow network (edge list,
//! interleaved reverse edges, per-node adjacency) and run Edmonds–Karp on
//! it. The production matcher walks the implicit network through per-unit
//! free-sampler counts and per-stream owners and must return exactly the
//! same assignment; `prop_runtime.rs` compares the two on seeded random
//! cases. Apart from this header and the `SamplerAssignment` import, the
//! code below is the old module without its unit tests.

use std::collections::VecDeque;

use ndpx_core::runtime::maxflow::SamplerAssignment;

/// A directed flow network on dense node indices.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    nodes: usize,
    /// Edge list: (to, capacity); reverse edges interleaved at `i ^ 1`.
    edges: Vec<(usize, i64)>,
    /// Adjacency: node → edge indices.
    adj: Vec<Vec<usize>>,
}

impl FlowNetwork {
    /// Creates a network with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> Self {
        FlowNetwork { nodes, edges: Vec::new(), adj: vec![Vec::new(); nodes] }
    }

    /// Adds a directed edge `from → to` with the given capacity; returns the
    /// edge index (use `flow_on` to read its final flow).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: i64) -> usize {
        assert!(from < self.nodes && to < self.nodes, "edge endpoint out of range");
        let id = self.edges.len();
        self.edges.push((to, capacity));
        self.edges.push((from, 0));
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        id
    }

    /// Runs Edmonds–Karp from `source` to `sink`; returns the max flow.
    /// Capacities are consumed in place.
    pub fn max_flow(&mut self, source: usize, sink: usize) -> i64 {
        let mut total = 0;
        // BFS state, reset (not reallocated) for every augmenting path.
        let mut parent_edge = vec![usize::MAX; self.nodes];
        let mut queue = VecDeque::new();
        loop {
            // BFS for a shortest augmenting path.
            parent_edge.fill(usize::MAX);
            queue.clear();
            queue.push_back(source);
            let mut found = false;
            'bfs: while let Some(u) = queue.pop_front() {
                for &eid in &self.adj[u] {
                    let (v, cap) = self.edges[eid];
                    if cap > 0 && parent_edge[v] == usize::MAX && v != source {
                        parent_edge[v] = eid;
                        if v == sink {
                            found = true;
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
            }
            if !found {
                return total;
            }
            // Find the bottleneck and augment.
            let mut bottleneck = i64::MAX;
            let mut v = sink;
            while v != source {
                let eid = parent_edge[v];
                bottleneck = bottleneck.min(self.edges[eid].1);
                v = self.edges[eid ^ 1].0;
            }
            let mut v = sink;
            while v != source {
                let eid = parent_edge[v];
                self.edges[eid].1 -= bottleneck;
                self.edges[eid ^ 1].1 += bottleneck;
                v = self.edges[eid ^ 1].0;
            }
            total += bottleneck;
        }
    }

    /// Flow pushed through edge `id` (its consumed capacity).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.edges[id ^ 1].1
    }
}

/// Assigns up to `samplers_per_unit` streams to each unit, maximizing stream
/// coverage. `accessed[u]` lists the stream indices unit `u` touched this
/// epoch (the per-unit bitvector of §V-B).
pub fn assign_samplers(
    accessed: &[Vec<usize>],
    num_streams: usize,
    samplers_per_unit: usize,
) -> SamplerAssignment {
    let units = accessed.len();
    // Nodes: 0 = source, 1..=units, units+1..=units+num_streams, sink last.
    let source = 0;
    let sink = units + num_streams + 1;
    let mut net = FlowNetwork::new(sink + 1);
    for u in 0..units {
        net.add_edge(source, 1 + u, samplers_per_unit as i64);
    }
    let mut stream_unit_edges: Vec<(usize, usize, usize)> = Vec::new();
    for (u, streams) in accessed.iter().enumerate() {
        for &s in streams {
            debug_assert!(s < num_streams, "stream index out of range");
            let eid = net.add_edge(1 + u, 1 + units + s, 1);
            stream_unit_edges.push((eid, u, s));
        }
    }
    for s in 0..num_streams {
        net.add_edge(1 + units + s, sink, 1);
    }
    let covered = net.max_flow(source, sink) as usize;

    let mut unit_for_stream = vec![None; num_streams];
    for &(eid, u, s) in &stream_unit_edges {
        if net.flow_on(eid) > 0 {
            unit_for_stream[s] = Some(u);
        }
    }
    SamplerAssignment { unit_for_stream, covered }
}
