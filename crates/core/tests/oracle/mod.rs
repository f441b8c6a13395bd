//! The previous Algorithm 1 solver, kept verbatim as a test oracle.
//!
//! `allocate_ndpext` used to recompute every group total, utility, and
//! lookahead segment from scratch at every heap pop. The production solver
//! now keeps that state incrementally and must produce exactly the same
//! allocation; `prop_runtime.rs` compares the two on seeded random cases.
//! Apart from the two private `ConfigCtx` helpers becoming free functions,
//! the code below is the from-scratch solver unchanged.
//!
//! The previous `SetSampler` is the [`sampler`] submodule, the previous
//! flow-network sampler assignment the [`maxflow`] one.

pub mod maxflow;
pub mod sampler;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ndpx_core::runtime::configure::{AllocGroup, Allocation, ConfigCtx, StreamDemand};

/// Interconnect latency between `u` and `v`, picoseconds (derived from
/// the attenuation factor).
fn noc_ps(ctx: &ConfigCtx, u: usize, v: usize) -> f64 {
    ctx.dram_lat_ps * (1.0 / ctx.attenuation[u][v] - 1.0)
}

/// The unit nearest to `u` (highest attenuation) among candidates where
/// `pred` holds, never `u` itself.
fn nearest_where(ctx: &ConfigCtx, u: usize, mut pred: impl FnMut(usize) -> bool) -> Option<usize> {
    let mut best = None;
    let mut best_k = f64::NEG_INFINITY;
    for v in 0..ctx.units {
        if v == u || !pred(v) {
            continue;
        }
        let k = ctx.attenuation[u][v];
        if k > best_k {
            best_k = k;
            best = Some(v);
        }
    }
    best
}

#[derive(Debug, Clone)]
struct GroupState {
    cap: Vec<u64>,
    members: Vec<usize>,
    /// Anchor unit: the original (or highest-traffic) accessing unit.
    anchor: usize,
    /// This group's share of the stream's accesses.
    share: f64,
    alive: bool,
}

impl GroupState {
    fn total(&self) -> u64 {
        self.members.iter().map(|&u| self.cap[u]).sum()
    }

    /// Paper-style group utility: every member values every member's
    /// capacity, attenuated by distance.
    fn utility(&self, ctx: &ConfigCtx) -> f64 {
        let mut util = 0.0;
        for &u in &self.members {
            for &v in &self.members {
                util += self.cap[v] as f64 * ctx.attenuation[u][v];
            }
        }
        util
    }
}

struct Budget {
    free: Vec<u64>,
    affine_free: Vec<u64>,
}

impl Budget {
    fn available(&self, unit: usize, affine: bool) -> u64 {
        if affine {
            self.free[unit].min(self.affine_free[unit])
        } else {
            self.free[unit]
        }
    }

    fn take(&mut self, unit: usize, affine: bool, bytes: u64) {
        self.free[unit] -= bytes;
        if affine {
            self.affine_free[unit] -= bytes;
        }
    }

    fn give(&mut self, unit: usize, affine: bool, bytes: u64) {
        self.free[unit] += bytes;
        if affine {
            self.affine_free[unit] += bytes;
        }
    }
}

/// A heap entry: slope encoded as ordered bits (slopes are non-negative).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct HeapKey(u64, Reverse<usize>, Reverse<usize>);

fn slope_bits(slope: f64) -> u64 {
    debug_assert!(slope >= 0.0);
    slope.to_bits()
}

/// Runs the NDPExt configuration algorithm (Algorithm 1).
///
/// Returns a per-stream group allocation. Capacity is expressed in bytes and
/// already rounded to each stream's grain.
pub fn allocate_ndpext_oracle(demands: &[StreamDemand], ctx: &ConfigCtx) -> Allocation {
    let mut budget = Budget {
        free: (0..ctx.units).map(|u| ctx.capacity_of(u)).collect(),
        affine_free: (0..ctx.units).map(|u| ctx.affine_cap.min(ctx.capacity_of(u))).collect(),
    };

    // Initial groups: maximal replication for read-only streams, a single
    // shared group otherwise.
    let mut groups: Vec<Vec<GroupState>> = demands
        .iter()
        .map(|d| {
            if d.acc_units.is_empty() {
                return Vec::new();
            }
            let total: u64 = d.acc_units.iter().map(|&(_, a)| a).sum();
            if d.read_only {
                d.acc_units
                    .iter()
                    .map(|&(u, a)| GroupState {
                        cap: vec![0; ctx.units],
                        members: vec![u],
                        anchor: u,
                        share: a as f64 / total.max(1) as f64,
                        alive: true,
                    })
                    .collect()
            } else {
                let anchor = d.acc_units.iter().max_by_key(|&&(_, a)| a).expect("non-empty").0;
                vec![GroupState {
                    cap: vec![0; ctx.units],
                    members: d.acc_units.iter().map(|&(u, _)| u).collect(),
                    anchor,
                    share: 1.0,
                    alive: true,
                }]
            }
        })
        .collect();

    let mut heap: BinaryHeap<HeapKey> = BinaryHeap::new();
    let push = |heap: &mut BinaryHeap<HeapKey>,
                demands: &[StreamDemand],
                all: &[Vec<GroupState>],
                s: usize,
                g: usize| {
        let gs = &all[s][g];
        if let Some((_, slope)) = demands[s].curve.next_segment(gs.total()) {
            let weighted = slope * gs.share * replica_factor(&all[s], g, &demands[s], ctx);
            if weighted > 0.0 {
                heap.push(HeapKey(slope_bits(weighted), Reverse(s), Reverse(g)));
            }
        }
    };
    for s in 0..groups.len() {
        for g in 0..groups[s].len() {
            push(&mut heap, demands, &groups, s, g);
        }
    }

    while let Some(HeapKey(bits, Reverse(s), Reverse(g))) = heap.pop() {
        if !groups[s][g].alive {
            continue;
        }
        // Lazy heap: recompute and skip stale entries.
        let cur_total = groups[s][g].total();
        let Some((next_cap, slope)) = demands[s].curve.next_segment(cur_total) else {
            continue;
        };
        let weighted = slope * groups[s][g].share * replica_factor(&groups[s], g, &demands[s], ctx);
        if slope_bits(weighted) != bits {
            push(&mut heap, demands, &groups, s, g);
            continue;
        }

        let grain = demands[s].grain.max(1);
        // A group never needs more than one full copy of the stream.
        let room = demands[s].footprint.saturating_sub(cur_total);
        if room == 0 {
            continue;
        }
        let seg = ((next_cap - cur_total).min(room).div_ceil(grain)) * grain;
        let affine = demands[s].affine;

        // Try to place `seg` bytes within the group's members.
        let mut remaining = seg;
        let mut staged: Vec<(usize, u64)> = Vec::new();
        let mut member_order = groups[s][g].members.clone();
        member_order.sort_by_key(|&u| Reverse(budget.available(u, affine)));
        for &u in &member_order {
            if remaining == 0 {
                break;
            }
            let avail = (budget.available(u, affine) / grain) * grain;
            let take = avail.min(remaining);
            if take > 0 {
                staged.push((u, take));
                remaining -= take;
            }
        }

        if remaining > 0 {
            // Lines 9–21: extend the group or merge two groups.
            let anchor = groups[s][g].anchor;
            let members = groups[s][g].members.clone();
            let extend_unit = nearest_where(ctx, anchor, |v| {
                !members.contains(&v) && budget.available(v, affine) >= grain
            });
            let extend_gain = extend_unit.map(|v| {
                let mut trial = groups[s][g].clone();
                trial.members.push(v);
                let placeable = (budget.available(v, affine).min(remaining) / grain) * grain;
                trial.cap[v] += placeable;
                trial.utility(ctx) - groups[s][g].utility(ctx)
            });

            // Merge candidate: the lowest-utility group (any stream) with
            // capacity at a member unit of this group, merged into its
            // nearest sibling group.
            let mut merge_pick: Option<(usize, usize, usize, f64)> = None;
            for (s2, gs2) in groups.iter().enumerate() {
                if gs2.len() < 2 {
                    continue;
                }
                for (g2, st2) in gs2.iter().enumerate() {
                    // Only merging a group that holds capacity frees space.
                    if !st2.alive
                        || st2.total() == 0
                        || !st2.members.iter().any(|m| members.contains(m))
                    {
                        continue;
                    }
                    // Nearest sibling group of the same stream.
                    let sibling =
                        gs2.iter().enumerate().filter(|&(o, os)| o != g2 && os.alive).max_by(
                            |a, b| {
                                let ka = ctx.attenuation[st2.anchor][a.1.anchor];
                                let kb = ctx.attenuation[st2.anchor][b.1.anchor];
                                ka.partial_cmp(&kb).expect("attenuations are finite")
                            },
                        );
                    if let Some((g3, _)) = sibling {
                        let u = st2.utility(ctx);
                        if merge_pick.is_none_or(|(.., best_u)| u < best_u) {
                            merge_pick = Some((s2, g2, g3, u));
                        }
                    }
                }
            }

            let do_merge = match (extend_gain, merge_pick) {
                (None, None) => {
                    // Nothing helps: this group is done.
                    continue;
                }
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(eg), Some((s2, g2, g3, _))) => {
                    // Merge gain: freed capacity enables this allocation; its
                    // utility cost is the dropped replica's utility drop.
                    let freed = groups[s2][g2].total() as f64;
                    let merged_cost = groups[s2][g2].utility(ctx)
                        - groups[s2][g2].total() as f64
                            * ctx.attenuation[groups[s2][g2].anchor][groups[s2][g3].anchor];
                    freed - merged_cost > eg
                }
            };

            if do_merge {
                let (s2, g2, g3, _) = merge_pick.expect("checked above");
                // Drop replica g2: free its capacity, fold its members into
                // g3 (they are now served remotely).
                let (cap2, members2, share2, anchor2);
                {
                    let st2 = &mut groups[s2][g2];
                    st2.alive = false;
                    cap2 = st2.cap.clone();
                    members2 = st2.members.clone();
                    share2 = st2.share;
                    anchor2 = st2.anchor;
                    for u in 0..ctx.units {
                        if st2.cap[u] > 0 {
                            budget.give(u, demands[s2].affine, st2.cap[u]);
                            st2.cap[u] = 0;
                        }
                    }
                }
                let _ = (cap2, anchor2);
                let st3 = &mut groups[s2][g3];
                for m in members2 {
                    if !st3.members.contains(&m) {
                        st3.members.push(m);
                    }
                }
                st3.share += share2;
                // The surviving group's slope improved (more share); requeue.
                push(&mut heap, demands, &groups, s2, g3);
            } else if let Some(v) = extend_unit {
                if !groups[s][g].members.contains(&v) {
                    groups[s][g].members.push(v);
                }
            }
            // Retry this group next round.
            push(&mut heap, demands, &groups, s, g);
            continue;
        }

        // Commit the staged allocation.
        for (u, b) in staged {
            budget.take(u, affine, b);
            groups[s][g].cap[u] += b;
        }
        push(&mut heap, demands, &groups, s, g);
    }

    // Leftover fill: sampled curves flatten into noise long before capacity
    // runs out; a real cache still uses the space. Hand each unit's free
    // space to the streams that access it (weighted by access count).
    // Capacity goes into each stream's *largest* group — growing one shared
    // copy rather than inflating replication — and is capped by the stream's
    // footprint across all groups.
    for u in 0..ctx.units {
        let mut cands: Vec<(usize, usize, u64)> = Vec::new();
        for (s, d) in demands.iter().enumerate() {
            let Some(&(_, acc)) = d.acc_units.iter().find(|&&(au, _)| au == u) else {
                continue;
            };
            let Some(g) = (0..groups[s].len())
                .filter(|&g| groups[s][g].alive)
                .max_by_key(|&g| groups[s][g].total())
            else {
                continue;
            };
            let have: u64 = groups[s].iter().filter(|g| g.alive).map(GroupState::total).sum();
            if have < d.footprint {
                cands.push((s, g, acc));
            }
        }
        let total_w: u64 = cands.iter().map(|&(.., w)| w).sum();
        if total_w == 0 {
            continue;
        }
        let free_u = budget.available(u, false);
        for (s, g, w) in cands {
            let d = &demands[s];
            let grain = d.grain.max(1);
            let share = free_u * w / total_w;
            let have: u64 = groups[s].iter().filter(|g| g.alive).map(GroupState::total).sum();
            let room = d.footprint.saturating_sub(have);
            // Keep the filled capacity spatially spread: no unit holds more
            // than ~2× the stream's fair per-unit share (hot-spotting one
            // unit concentrates traffic and lengthens average hops).
            let fair = (d.footprint / ctx.units as u64).max(grain) * 2;
            let at_u = groups[s][g].cap[u];
            let add =
                (share.min(room).min(fair.saturating_sub(at_u)).min(budget.available(u, d.affine))
                    / grain)
                    * grain;
            if add > 0 {
                budget.take(u, d.affine, add);
                groups[s][g].cap[u] += add;
                if !groups[s][g].members.contains(&u) {
                    groups[s][g].members.push(u);
                }
            }
        }
    }

    // Consolidation pass: replication trades hit latency for hit rate
    // (§V-C). For each read-only stream, merge replica groups while the
    // estimated access time improves: a merge pools capacity (fewer misses
    // to slow extended memory) at the cost of remote hits on the NoC.
    for (s, d) in demands.iter().enumerate() {
        loop {
            let alive: Vec<usize> = (0..groups[s].len()).filter(|&g| groups[s][g].alive).collect();
            if alive.len() < 2 {
                break;
            }
            // Merge the two smallest groups (the least capacity-efficient
            // replicas) if that lowers expected access time.
            let mut by_size = alive.clone();
            by_size.sort_by_key(|&g| groups[s][g].total());
            let (a, b) = (by_size[0], by_size[1]);
            let before = group_time(&groups[s][a], d, ctx) + group_time(&groups[s][b], d, ctx);
            let mut merged = groups[s][a].clone();
            for &m in &groups[s][b].members {
                if !merged.members.contains(&m) {
                    merged.members.push(m);
                }
            }
            for u in 0..ctx.units {
                merged.cap[u] += groups[s][b].cap[u];
            }
            merged.share += groups[s][b].share;
            let after = group_time(&merged, d, ctx);
            if after < before {
                groups[s][b].alive = false;
                groups[s][a] = merged;
            } else {
                break;
            }
        }
    }

    to_allocation(&groups, ctx.units)
}

/// Discounts a replica group's marginal utility: if the stream already has
/// a larger group covering its accesses, an extra copy only converts
/// *remote hits* into *local hits* — worth the interconnect saving, not the
/// full miss penalty (the paper's hit-rate vs hit-latency tradeoff, §V-C).
fn replica_factor(gs: &[GroupState], g: usize, d: &StreamDemand, ctx: &ConfigCtx) -> f64 {
    // The stream's primary copy (largest group, lowest index on ties) earns
    // full miss-curve credit; every other group is a replica.
    let Some(other) = gs
        .iter()
        .enumerate()
        .filter(|&(i, st)| {
            i != g
                && st.alive
                && (st.total() > gs[g].total() || (st.total() == gs[g].total() && i < g))
        })
        .max_by(|a, b| a.1.total().cmp(&b.1.total()).then(b.0.cmp(&a.0)))
        .map(|(_, st)| st)
    else {
        return 1.0;
    };
    // Fraction of accesses the larger group would serve as hits.
    let total = d.total_accesses.max(1) as f64;
    let covered = (1.0 - d.curve.misses_at(other.total()) / total).clamp(0.0, 1.0);
    // Value of localizing a covered access: the interconnect saving relative
    // to the full miss penalty an uncovered access pays.
    let noc = noc_ps(ctx, gs[g].anchor, other.anchor).max(0.0);
    let latency_value = (noc / (ctx.dram_lat_ps + ctx.miss_extra_ps)).min(1.0);
    covered * latency_value + (1.0 - covered)
}

/// Estimated time this group's accesses spend in the memory system per
/// epoch: misses pay the extended-memory penalty, hits pay DRAM plus the
/// average intra-group NoC distance.
fn group_time(g: &GroupState, d: &StreamDemand, ctx: &ConfigCtx) -> f64 {
    let acc = d.total_accesses as f64 * g.share;
    if acc <= 0.0 {
        return 0.0;
    }
    let misses = d.curve.misses_at(g.total()) * g.share;
    let hits = (acc - misses).max(0.0);
    // Average NoC distance within the group, capacity-weighted.
    let total_cap = g.total().max(1) as f64;
    let mut avg_noc = 0.0;
    if g.members.len() > 1 {
        for &u in &g.members {
            let mut from_u = 0.0;
            for &v in &g.members {
                from_u += g.cap[v] as f64 / total_cap * noc_ps(ctx, u, v);
            }
            avg_noc += from_u / g.members.len() as f64;
        }
    }
    misses * (ctx.dram_lat_ps + ctx.miss_extra_ps) + hits * (ctx.dram_lat_ps + avg_noc)
}

fn to_allocation(groups: &[Vec<GroupState>], units: usize) -> Allocation {
    Allocation {
        streams: groups
            .iter()
            .map(|gs| {
                gs.iter()
                    .filter(|st| st.alive && st.total() > 0)
                    .map(|st| AllocGroup {
                        unit_bytes: (0..units)
                            .filter(|&u| st.cap[u] > 0)
                            .map(|u| (u, st.cap[u]))
                            .collect(),
                    })
                    .collect()
            })
            .collect(),
    }
}
