//! Cache configuration policies (paper §V-C, Algorithm 1) and the adapted
//! baseline allocators.
//!
//! Given per-stream miss curves and per-unit access counts, the allocators
//! decide how many bytes of every unit's DRAM cache each stream receives and
//! how those bytes form replication groups:
//!
//! * [`allocate_ndpext`] — the paper's Algorithm 1: greedy lookahead over
//!   miss-curve slopes that *co-optimizes* sizing, spatial placement, and
//!   per-stream replication. Streams start maximally replicated (one group
//!   per accessing unit); when space runs out the algorithm either extends a
//!   group to a nearby unit or merges two groups (reducing replication),
//!   choosing by attenuation-weighted utility.
//! * [`allocate_baseline`] — Jigsaw / Whirlpool / Nexus / static-interleave
//!   and NDPExt-static, each with the paper's described placement rule.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::PolicyKind;
use crate::runtime::sampler::MissCurve;

/// Per-stream demand information collected over an epoch.
#[derive(Debug, Clone)]
pub struct StreamDemand {
    /// Miss curve (absolute misses vs. capacity).
    pub curve: MissCurve,
    /// Units that accessed the stream, with access counts (each unit at
    /// most once).
    pub acc_units: Vec<(usize, u64)>,
    /// Replication is only legal for read-only streams (§IV-B).
    pub read_only: bool,
    /// True for affine streams (which are capped by the affine budget).
    pub affine: bool,
    /// Slot granularity in bytes.
    pub grain: u64,
    /// Total accesses this epoch.
    pub total_accesses: u64,
    /// The stream's data footprint in bytes (caching beyond this is
    /// pointless).
    pub footprint: u64,
}

/// One replication group's allocation: bytes per unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AllocGroup {
    /// `(unit, bytes)` pairs with positive bytes.
    pub unit_bytes: Vec<(usize, u64)>,
}

impl AllocGroup {
    /// Total bytes in the group.
    pub fn total(&self) -> u64 {
        self.unit_bytes.iter().map(|&(_, b)| b).sum()
    }
}

/// The allocator output: per stream, its replication groups.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// `streams[s]` lists stream `s`'s groups (empty = nothing cached).
    pub streams: Vec<Vec<AllocGroup>>,
}

impl Allocation {
    /// Total bytes allocated across all streams and groups (replicas count).
    pub fn total_bytes(&self) -> u64 {
        self.streams.iter().flatten().map(AllocGroup::total).sum()
    }

    /// Fraction of allocated bytes beyond each stream's largest group —
    /// i.e. capacity spent on replication.
    pub fn replicated_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let primary: u64 =
            self.streams.iter().map(|gs| gs.iter().map(AllocGroup::total).max().unwrap_or(0)).sum();
        (total - primary) as f64 / total as f64
    }
}

/// Static inputs to the allocators.
#[derive(Debug, Clone)]
pub struct ConfigCtx {
    /// Number of NDP units.
    pub units: usize,
    /// DRAM cache bytes per unit.
    pub unit_capacity: u64,
    /// Affine budget per unit (§IV-C).
    pub affine_cap: u64,
    /// `attenuation[u][v]` = DRAM latency / (DRAM + interconnect(u→v))
    /// (paper §V-C); 1.0 on the diagonal, smaller for farther units.
    pub attenuation: Vec<Vec<f64>>,
    /// DRAM-cache hit latency at the serving unit, picoseconds.
    pub dram_lat_ps: f64,
    /// Extra latency of a miss to extended memory (beyond a local hit),
    /// picoseconds.
    pub miss_extra_ps: f64,
    /// Per-unit death mask (chaos stack loss): dead units contribute zero
    /// cache capacity and are excluded from every spread. All-false on a
    /// healthy system.
    pub dead: Vec<bool>,
}

impl ConfigCtx {
    /// Whether unit `u` is alive (can hold cache capacity).
    pub fn alive(&self, u: usize) -> bool {
        !self.dead.get(u).copied().unwrap_or(false)
    }

    /// DRAM cache bytes unit `u` can offer: `unit_capacity`, or zero when the
    /// unit is dead.
    pub fn capacity_of(&self, u: usize) -> u64 {
        if self.alive(u) {
            self.unit_capacity
        } else {
            0
        }
    }

    /// Interconnect latency between `u` and `v`, picoseconds (derived from
    /// the attenuation factor).
    fn noc_ps(&self, u: usize, v: usize) -> f64 {
        self.dram_lat_ps * (1.0 / self.attenuation[u][v] - 1.0)
    }

    /// The unit nearest to `u` (highest attenuation) among candidates where
    /// `pred` holds; never `u` itself. Ties go to the lowest unit index.
    fn nearest_where(&self, u: usize, mut pred: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut best = None;
        let mut best_k = f64::NEG_INFINITY;
        for v in 0..self.units {
            if v == u || !pred(v) {
                continue;
            }
            let k = self.attenuation[u][v];
            if k > best_k {
                best_k = k;
                best = Some(v);
            }
        }
        best
    }
}

/// A lookahead segment `(target capacity, slope)`, if the curve has one.
type Segment = Option<(u64, f64)>;

/// One replication group's solver state.
///
/// Algorithm 1 pops hundreds of heap entries per solve and needs the
/// group's total, utility, and lookahead segment at each, so they are kept
/// incrementally (DESIGN.md §11) — exactly, so every f64 the solver
/// compares equals a from-scratch recomputation: `total` is an integer sum
/// updated at each `cap`/`members` change, `util` is recomputed in member
/// order after such a change, and `seg` is keyed on the total it was
/// computed for.
#[derive(Debug, Clone)]
struct GroupState {
    cap: Vec<u64>,
    /// Member units in insertion order; utility and access-time sums
    /// iterate this order, so it is part of every f64 result.
    members: Vec<usize>,
    /// `members` as a per-unit bitset.
    member_bits: Vec<u64>,
    /// `Σ cap[m]` over `members`.
    total: u64,
    /// Memoized [`GroupState::utility`]; cleared when `cap` or `members`
    /// change.
    util: Cell<Option<f64>>,
    /// Memoized `curve.next_segment(total)` as `(total, result)`; the curve
    /// is fixed for the whole solve.
    seg: Cell<Option<(u64, Segment)>>,
    /// Anchor unit: the original (or highest-traffic) accessing unit.
    anchor: usize,
    /// This group's share of the stream's accesses.
    share: f64,
    alive: bool,
}

impl GroupState {
    /// An empty group over `units` units; `members` must be distinct.
    fn new(units: usize, members: Vec<usize>, anchor: usize, share: f64) -> Self {
        let mut member_bits = vec![0u64; units.div_ceil(64)];
        for &u in &members {
            debug_assert_eq!(member_bits[u / 64] >> (u % 64) & 1, 0, "duplicate member {u}");
            member_bits[u / 64] |= 1 << (u % 64);
        }
        GroupState {
            cap: vec![0; units],
            members,
            member_bits,
            total: 0,
            util: Cell::new(None),
            seg: Cell::new(None),
            anchor,
            share,
            alive: true,
        }
    }

    fn is_member(&self, u: usize) -> bool {
        self.member_bits[u / 64] >> (u % 64) & 1 == 1
    }

    /// Whether the two groups share a member unit.
    fn overlaps(&self, other: &GroupState) -> bool {
        self.member_bits.iter().zip(&other.member_bits).any(|(a, b)| a & b != 0)
    }

    /// Appends `u` to the members unless it already is one.
    fn add_member(&mut self, u: usize) {
        if !self.is_member(u) {
            self.members.push(u);
            self.member_bits[u / 64] |= 1 << (u % 64);
            self.total += self.cap[u];
            self.util.set(None);
        }
    }

    fn add_cap(&mut self, u: usize, bytes: u64) {
        self.cap[u] += bytes;
        if self.is_member(u) {
            self.total += bytes;
        }
        self.util.set(None);
    }

    /// Returns all capacity to `budget`.
    fn release(&mut self, budget: &mut Budget, affine: bool) {
        for (u, c) in self.cap.iter_mut().enumerate() {
            if *c > 0 {
                budget.give(u, affine, *c);
                *c = 0;
            }
        }
        self.total = 0;
        self.util.set(None);
    }

    /// Paper-style group utility: every member values every member's
    /// capacity, attenuated by distance.
    fn utility(&self, ctx: &ConfigCtx) -> f64 {
        if let Some(u) = self.util.get() {
            return u;
        }
        let util = pair_utility(self.members.iter().copied(), |v| self.cap[v], ctx);
        self.util.set(Some(util));
        util
    }

    /// The utility this group would have with non-member `v` appended to
    /// its members and `bytes` placed there — the extend trial of lines
    /// 9–21, scored without cloning the group.
    fn utility_extended(&self, v: usize, bytes: u64, ctx: &ConfigCtx) -> f64 {
        debug_assert!(!self.is_member(v));
        let members = self.members.iter().copied().chain(std::iter::once(v));
        pair_utility(members, |w| if w == v { self.cap[w] + bytes } else { self.cap[w] }, ctx)
    }

    /// `curve.next_segment(self.total)`, memoized.
    fn next_segment(&self, curve: &MissCurve) -> Segment {
        match self.seg.get() {
            Some((at, seg)) if at == self.total => seg,
            _ => {
                let seg = curve.next_segment(self.total);
                self.seg.set(Some((self.total, seg)));
                seg
            }
        }
    }
}

/// `Σ_u Σ_v cap(v) · attenuation[u][v]` over `members` (both loops in
/// iteration order).
fn pair_utility(
    members: impl Iterator<Item = usize> + Clone,
    cap: impl Fn(usize) -> u64,
    ctx: &ConfigCtx,
) -> f64 {
    let mut util = 0.0;
    for u in members.clone() {
        let row = &ctx.attenuation[u];
        for v in members.clone() {
            util += cap(v) as f64 * row[v];
        }
    }
    util
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
pub fn allocate_ndpext(demands: &[StreamDemand], ctx: &ConfigCtx) -> Allocation {
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
                    .map(|&(u, a)| {
                        GroupState::new(ctx.units, vec![u], u, a as f64 / total.max(1) as f64)
                    })
                    .collect()
            } else {
                let anchor = d.acc_units.iter().max_by_key(|&&(_, a)| a).expect("non-empty").0;
                let members = d.acc_units.iter().map(|&(u, _)| u).collect();
                vec![GroupState::new(ctx.units, members, anchor, 1.0)]
            }
        })
        .collect();
    // Live groups per stream: a merge needs a live sibling to fold into.
    let mut alive_count: Vec<usize> = groups.iter().map(Vec::len).collect();
    let mut primary: Vec<Option<Primary>> =
        groups.iter().zip(demands).map(|(gs, d)| Primary::of(gs, d)).collect();

    // A dead group's entry would only be popped and skipped, so dead groups
    // are never queued.
    let mut heap: BinaryHeap<HeapKey> = BinaryHeap::new();
    let push = |heap: &mut BinaryHeap<HeapKey>,
                all: &[Vec<GroupState>],
                primary: &[Option<Primary>],
                s: usize,
                g: usize| {
        if !all[s][g].alive {
            return;
        }
        if let Some((_, weighted)) = weighted_segment(&all[s], g, primary[s], &demands[s], ctx) {
            if weighted > 0.0 {
                heap.push(HeapKey(slope_bits(weighted), Reverse(s), Reverse(g)));
            }
        }
    };
    for s in 0..groups.len() {
        for g in 0..groups[s].len() {
            push(&mut heap, &groups, &primary, s, g);
        }
    }

    let mut staged: Vec<(usize, u64)> = Vec::new();
    let mut member_order: Vec<usize> = Vec::new();
    while let Some(HeapKey(bits, Reverse(s), Reverse(g))) = heap.pop() {
        if !groups[s][g].alive {
            continue;
        }
        // Lazy heap: recompute and skip stale entries.
        let cur_total = groups[s][g].total;
        let Some((next_cap, weighted)) =
            weighted_segment(&groups[s], g, primary[s], &demands[s], ctx)
        else {
            continue;
        };
        if slope_bits(weighted) != bits {
            push(&mut heap, &groups, &primary, s, g);
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
        staged.clear();
        member_order.clear();
        member_order.extend_from_slice(&groups[s][g].members);
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
            let st = &groups[s][g];
            let extend_unit = ctx.nearest_where(st.anchor, |v| {
                !st.is_member(v) && budget.available(v, affine) >= grain
            });
            let merge_pick = merge_candidate(&groups, &alive_count, st, ctx);

            let do_merge = match (extend_unit, merge_pick) {
                (None, None) => {
                    // Nothing helps: this group is done.
                    continue;
                }
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(v), Some((s2, g2, g3))) => {
                    // Extend gain: the utility the nearest free unit adds.
                    let placeable = (budget.available(v, affine).min(remaining) / grain) * grain;
                    let eg = st.utility_extended(v, placeable, ctx) - st.utility(ctx);
                    // Merge gain: freed capacity enables this allocation; its
                    // utility cost is the dropped replica's utility drop.
                    let st2 = &groups[s2][g2];
                    let freed = st2.total as f64;
                    let merged_cost = st2.utility(ctx)
                        - st2.total as f64 * ctx.attenuation[st2.anchor][groups[s2][g3].anchor];
                    freed - merged_cost > eg
                }
            };

            if do_merge {
                let (s2, g2, g3) = merge_pick.expect("checked above");
                // Drop replica g2: free its capacity, fold its members into
                // g3 (they are now served remotely).
                let st2 = &mut groups[s2][g2];
                st2.alive = false;
                st2.release(&mut budget, demands[s2].affine);
                let members2 = st2.members.clone();
                let share2 = st2.share;
                alive_count[s2] -= 1;
                if primary[s2].is_some_and(|p| p.group == g2) {
                    primary[s2] = Primary::of(&groups[s2], &demands[s2]);
                }
                let st3 = &mut groups[s2][g3];
                for m in members2 {
                    st3.add_member(m);
                }
                st3.share += share2;
                Primary::grown(&mut primary[s2], &groups[s2], g3, &demands[s2]);
                // The surviving group's slope improved (more share); requeue.
                push(&mut heap, &groups, &primary, s2, g3);
            } else if let Some(v) = extend_unit {
                groups[s][g].add_member(v);
                Primary::grown(&mut primary[s], &groups[s], g, &demands[s]);
            }
            // Retry this group next round.
            push(&mut heap, &groups, &primary, s, g);
            continue;
        }

        // Commit the staged allocation.
        for &(u, b) in &staged {
            budget.take(u, affine, b);
            groups[s][g].add_cap(u, b);
        }
        Primary::grown(&mut primary[s], &groups[s], g, &demands[s]);
        push(&mut heap, &groups, &primary, s, g);
    }

    // Leftover fill: sampled curves flatten into noise long before capacity
    // runs out; a real cache still uses the space. Hand each unit's free
    // space to the streams that access it (weighted by access count).
    // Capacity goes into each stream's *largest* group — growing one shared
    // copy rather than inflating replication — and is capped by the stream's
    // footprint across all groups.
    let alive_total =
        |gs: &[GroupState]| -> u64 { gs.iter().filter(|g| g.alive).map(|g| g.total).sum() };
    for u in 0..ctx.units {
        let mut cands: Vec<(usize, usize, u64)> = Vec::new();
        for (s, d) in demands.iter().enumerate() {
            let Some(&(_, acc)) = d.acc_units.iter().find(|&&(au, _)| au == u) else {
                continue;
            };
            let Some(g) = (0..groups[s].len())
                .filter(|&g| groups[s][g].alive)
                .max_by_key(|&g| groups[s][g].total)
            else {
                continue;
            };
            if alive_total(&groups[s]) < d.footprint {
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
            let room = d.footprint.saturating_sub(alive_total(&groups[s]));
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
                groups[s][g].add_cap(u, add);
                groups[s][g].add_member(u);
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
            by_size.sort_by_key(|&g| groups[s][g].total);
            let (a, b) = (by_size[0], by_size[1]);
            let before = group_time(&groups[s][a], d, ctx) + group_time(&groups[s][b], d, ctx);
            let mut merged = groups[s][a].clone();
            for &m in &groups[s][b].members {
                merged.add_member(m);
            }
            for (u, &c) in groups[s][b].cap.iter().enumerate() {
                if c > 0 {
                    merged.add_cap(u, c);
                }
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

/// A stream's primary copy — its largest live group, lowest index on ties —
/// which earns full miss-curve credit; every other group is a replica (see
/// [`replica_factor`]). Kept per stream during the heap loop, where group
/// totals only grow until a merge kills a group.
#[derive(Debug, Clone, Copy)]
struct Primary {
    group: usize,
    /// Fraction of the stream's accesses the primary serves as hits.
    covered: f64,
}

impl Primary {
    /// Scans the stream's live groups.
    fn of(gs: &[GroupState], d: &StreamDemand) -> Option<Primary> {
        let (group, _) = gs
            .iter()
            .enumerate()
            .filter(|(_, st)| st.alive)
            .max_by(|a, b| a.1.total.cmp(&b.1.total).then(b.0.cmp(&a.0)))?;
        Some(Primary::at(gs, group, d))
    }

    fn at(gs: &[GroupState], group: usize, d: &StreamDemand) -> Primary {
        let total = d.total_accesses.max(1) as f64;
        let covered = (1.0 - d.curve.misses_at(gs[group].total) / total).clamp(0.0, 1.0);
        Primary { group, covered }
    }

    /// Updates `primary` after live group `g`'s total grew.
    fn grown(primary: &mut Option<Primary>, gs: &[GroupState], g: usize, d: &StreamDemand) {
        let takes_over = primary.is_none_or(|p| {
            let (mine, theirs) = (gs[g].total, gs[p.group].total);
            p.group == g || mine > theirs || (mine == theirs && g < p.group)
        });
        if takes_over {
            *primary = Some(Primary::at(gs, g, d));
        }
    }
}

/// The group's next lookahead segment: `(target capacity, slope weighted by
/// the group's access share and replica factor)`.
fn weighted_segment(
    gs: &[GroupState],
    g: usize,
    primary: Option<Primary>,
    d: &StreamDemand,
    ctx: &ConfigCtx,
) -> Option<(u64, f64)> {
    debug_assert_eq!(primary.map(|p| p.group), Primary::of(gs, d).map(|p| p.group));
    let (next_cap, slope) = gs[g].next_segment(&d.curve)?;
    Some((next_cap, slope * gs[g].share * replica_factor(gs, g, primary, ctx)))
}

/// The merge candidate of lines 9–21 for a group that ran out of room:
/// the lowest-utility live group (any stream, first on ties) that holds
/// capacity at a member unit of `of`, with the nearest live sibling group
/// of its stream to fold into, as `(stream, group, sibling)`.
///
/// A candidate has a sibling exactly when its stream has another live
/// group, so the sibling search runs for the winner only.
fn merge_candidate(
    groups: &[Vec<GroupState>],
    alive_count: &[usize],
    of: &GroupState,
    ctx: &ConfigCtx,
) -> Option<(usize, usize, usize)> {
    let mut best: Option<(usize, usize, f64)> = None;
    for (s2, gs2) in groups.iter().enumerate() {
        if alive_count[s2] < 2 {
            continue;
        }
        for (g2, st2) in gs2.iter().enumerate() {
            // Only merging a group that holds capacity frees space.
            if !st2.alive || st2.total == 0 || !st2.overlaps(of) {
                continue;
            }
            let u = st2.utility(ctx);
            if best.is_none_or(|(.., best_u)| u < best_u) {
                best = Some((s2, g2, u));
            }
        }
    }
    let (s2, g2, _) = best?;
    let anchor2 = groups[s2][g2].anchor;
    let (g3, _) =
        groups[s2].iter().enumerate().filter(|&(o, os)| o != g2 && os.alive).max_by(|a, b| {
            let ka = ctx.attenuation[anchor2][a.1.anchor];
            let kb = ctx.attenuation[anchor2][b.1.anchor];
            ka.partial_cmp(&kb).expect("attenuations are finite")
        })?;
    Some((s2, g2, g3))
}

/// Discounts a replica group's marginal utility: if the stream already has
/// a larger group covering its accesses, an extra copy only converts
/// *remote hits* into *local hits* — worth the interconnect saving, not the
/// full miss penalty (the paper's hit-rate vs hit-latency tradeoff, §V-C).
fn replica_factor(gs: &[GroupState], g: usize, primary: Option<Primary>, ctx: &ConfigCtx) -> f64 {
    // The stream's primary copy earns full miss-curve credit; every other
    // group is a replica.
    debug_assert!(gs[g].alive, "dead groups are never scored");
    let Some(Primary { group: other, covered }) = primary.filter(|p| p.group != g) else {
        return 1.0;
    };
    // Value of localizing a covered access: the interconnect saving relative
    // to the full miss penalty an uncovered access pays.
    let noc = ctx.noc_ps(gs[g].anchor, gs[other].anchor).max(0.0);
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
    let misses = d.curve.misses_at(g.total) * g.share;
    let hits = (acc - misses).max(0.0);
    // Average NoC distance within the group, capacity-weighted.
    let total_cap = g.total.max(1) as f64;
    let mut avg_noc = 0.0;
    if g.members.len() > 1 {
        for &u in &g.members {
            let mut from_u = 0.0;
            for &v in &g.members {
                from_u += g.cap[v] as f64 / total_cap * ctx.noc_ps(u, v);
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
                    .filter(|st| st.alive && st.total > 0)
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

/// Runs one of the baseline allocators.
///
/// # Panics
///
/// Panics if called with `PolicyKind::NdpExt` (use [`allocate_ndpext`]).
pub fn allocate_baseline(
    policy: PolicyKind,
    demands: &[StreamDemand],
    ctx: &ConfigCtx,
    nexus_degree: usize,
) -> Allocation {
    match policy {
        PolicyKind::NdpExt => panic!("use allocate_ndpext for the NDPExt policy"),
        PolicyKind::NdpExtStatic => allocate_equal(demands, ctx),
        PolicyKind::StaticInterleave => allocate_interleave(demands, ctx),
        PolicyKind::Jigsaw | PolicyKind::Whirlpool | PolicyKind::Nexus => {
            allocate_lookahead(policy, demands, ctx, nexus_degree)
        }
    }
}

/// NDPExt-static: the cache space is equally allocated to every stream on
/// every unit (paper §VI), one global group per stream.
fn allocate_equal(demands: &[StreamDemand], ctx: &ConfigCtx) -> Allocation {
    let active = demands.iter().filter(|d| d.total_accesses > 0).count().max(1) as u64;
    let streams = demands
        .iter()
        .map(|d| {
            if d.total_accesses == 0 {
                return Vec::new();
            }
            let per_unit_raw = ctx.unit_capacity / active;
            let per_unit_cap =
                if d.affine { per_unit_raw.min(ctx.affine_cap / active) } else { per_unit_raw };
            let per_unit = (per_unit_cap / d.grain.max(1)) * d.grain.max(1);
            if per_unit == 0 {
                return Vec::new();
            }
            vec![AllocGroup {
                unit_bytes: (0..ctx.units)
                    .filter(|&u| ctx.alive(u))
                    .map(|u| (u, per_unit))
                    .collect(),
            }]
        })
        .collect();
    Allocation { streams }
}

/// Static interleaving: one shared, unmanaged cache. Capacity divides
/// between streams proportional to access intensity (how an unpartitioned
/// direct-mapped cache settles), spread uniformly over all surviving units.
fn allocate_interleave(demands: &[StreamDemand], ctx: &ConfigCtx) -> Allocation {
    let total_acc: u64 = demands.iter().map(|d| d.total_accesses).sum();
    let alive: Vec<usize> = (0..ctx.units).filter(|&u| ctx.alive(u)).collect();
    if total_acc == 0 || alive.is_empty() {
        return Allocation { streams: demands.iter().map(|_| Vec::new()).collect() };
    }
    let streams = demands
        .iter()
        .map(|d| {
            if d.total_accesses == 0 {
                return Vec::new();
            }
            let stream_bytes =
                (ctx.unit_capacity as f64 * alive.len() as f64 * d.total_accesses as f64
                    / total_acc as f64) as u64;
            let per_unit = ((stream_bytes / alive.len() as u64) / d.grain.max(1)) * d.grain.max(1);
            if per_unit == 0 {
                return Vec::new();
            }
            vec![AllocGroup { unit_bytes: alive.iter().map(|&u| (u, per_unit)).collect() }]
        })
        .collect();
    Allocation { streams }
}

/// Jigsaw / Whirlpool / Nexus: lookahead sizing with policy-specific
/// placement.
fn allocate_lookahead(
    policy: PolicyKind,
    demands: &[StreamDemand],
    ctx: &ConfigCtx,
    nexus_degree: usize,
) -> Allocation {
    let mut free: Vec<u64> = (0..ctx.units).map(|u| ctx.capacity_of(u)).collect();

    // Per stream: the ordered unit preference list. Jigsaw gathers each
    // partition at its centre of mass; Whirlpool and Nexus place capacity at
    // the accessing units first (access-intensity order).
    let prefs: Vec<Vec<usize>> = demands
        .iter()
        .map(|d| {
            if policy == PolicyKind::Jigsaw {
                placement_order(d, ctx)
            } else {
                intensity_order(d, ctx)
            }
        })
        .collect();
    // Nexus: cluster accessing units into `nexus_degree` groups by unit
    // index (stack contiguity).
    let clusters: Vec<Vec<Vec<usize>>> = demands
        .iter()
        .map(|d| {
            if policy == PolicyKind::Nexus && d.read_only && !d.acc_units.is_empty() {
                let mut units: Vec<usize> = d.acc_units.iter().map(|&(u, _)| u).collect();
                units.sort_unstable();
                let degree = nexus_degree.min(units.len()).max(1);
                let per = units.len().div_ceil(degree);
                units.chunks(per).map(<[usize]>::to_vec).collect()
            } else {
                Vec::new()
            }
        })
        .collect();

    let mut alloc: Vec<Vec<AllocGroup>> = demands
        .iter()
        .enumerate()
        .map(|(s, d)| {
            if d.total_accesses == 0 {
                Vec::new()
            } else if clusters[s].is_empty() {
                vec![AllocGroup::default()]
            } else {
                clusters[s].iter().map(|_| AllocGroup::default()).collect()
            }
        })
        .collect();
    let mut totals: Vec<u64> = vec![0; demands.len()];

    let mut heap: BinaryHeap<HeapKey> = BinaryHeap::new();
    for (s, d) in demands.iter().enumerate() {
        if let Some((_, slope)) = d.curve.next_segment(0) {
            if slope > 0.0 && d.total_accesses > 0 {
                heap.push(HeapKey(slope_bits(slope), Reverse(s), Reverse(0)));
            }
        }
    }

    while let Some(HeapKey(bits, Reverse(s), Reverse(_))) = heap.pop() {
        let d = &demands[s];
        let Some((next_cap, slope)) = d.curve.next_segment(totals[s]) else {
            continue;
        };
        if slope_bits(slope) != bits {
            heap.push(HeapKey(slope_bits(slope), Reverse(s), Reverse(0)));
            continue;
        }
        let grain = d.grain.max(1);
        let room = d.footprint.saturating_sub(totals[s]);
        if room == 0 {
            continue;
        }
        let seg = (next_cap - totals[s]).min(room).div_ceil(grain) * grain;

        let replicas = alloc[s].len().max(1);
        let mut placed_any = false;
        for r in 0..replicas {
            let order: &[usize] = if clusters[s].is_empty() { &prefs[s] } else { &clusters[s][r] };
            let mut remaining = seg;
            // Whirlpool/Nexus spread each increment across the accessing
            // units proportionally to access intensity; Jigsaw fills from
            // the centre of mass outward.
            if policy != PolicyKind::Jigsaw && clusters[s].is_empty() && !d.acc_units.is_empty() {
                let total_acc: u64 = d.acc_units.iter().map(|&(_, a)| a).sum();
                for &(u, acc) in &d.acc_units {
                    let want = (seg * acc / total_acc.max(1)).min(remaining);
                    let take = ((free[u].min(want)) / grain) * grain;
                    if take > 0 {
                        free[u] -= take;
                        remaining -= take;
                        add_bytes(&mut alloc[s][r], u, take);
                        placed_any = true;
                    }
                }
            }
            for &u in order {
                if remaining == 0 {
                    break;
                }
                let take = ((free[u] / grain) * grain).min(remaining);
                if take > 0 {
                    free[u] -= take;
                    remaining -= take;
                    add_bytes(&mut alloc[s][r], u, take);
                    placed_any = true;
                }
            }
            // Overflow beyond the preferred order spills anywhere with space
            // (the paper's "suboptimal positions, incurring extra hops").
            if remaining > 0 {
                for (u, avail) in free.iter_mut().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    let take = ((*avail / grain) * grain).min(remaining);
                    if take > 0 {
                        *avail -= take;
                        remaining -= take;
                        add_bytes(&mut alloc[s][r], u, take);
                        placed_any = true;
                    }
                }
            }
        }
        if !placed_any {
            continue; // Out of space for this stream.
        }
        totals[s] = next_cap;
        heap.push(HeapKey(
            slope_bits(d.curve.next_segment(totals[s]).map_or(0.0, |(_, sl)| sl)),
            Reverse(s),
            Reverse(0),
        ));
    }

    // Leftover fill (see allocate_ndpext): unused capacity goes to streams
    // accessing each unit, weighted by access count, into their first group.
    for (u, avail) in free.iter_mut().enumerate() {
        let mut cands: Vec<(usize, u64)> = Vec::new();
        for (s, d) in demands.iter().enumerate() {
            if alloc[s].is_empty() {
                continue;
            }
            let Some(&(_, acc)) = d.acc_units.iter().find(|&&(au, _)| au == u) else {
                continue;
            };
            let have: u64 = alloc[s].iter().map(AllocGroup::total).sum();
            if have < d.footprint {
                cands.push((s, acc));
            }
        }
        let total_w: u64 = cands.iter().map(|&(_, w)| w).sum();
        if total_w == 0 {
            continue;
        }
        let free_u = *avail;
        for (s, w) in cands {
            let d = &demands[s];
            let grain = d.grain.max(1);
            let have: u64 = alloc[s].iter().map(AllocGroup::total).sum();
            let room = d.footprint.saturating_sub(have);
            let add = ((free_u * w / total_w).min(room).min(*avail) / grain) * grain;
            if add > 0 {
                *avail -= add;
                add_bytes(&mut alloc[s][0], u, add);
            }
        }
    }

    // Drop empty groups.
    for gs in &mut alloc {
        gs.retain(|g| g.total() > 0);
    }
    Allocation { streams: alloc }
}

fn add_bytes(group: &mut AllocGroup, unit: usize, bytes: u64) {
    if let Some(e) = group.unit_bytes.iter_mut().find(|(u, _)| *u == unit) {
        e.1 += bytes;
    } else {
        group.unit_bytes.push((unit, bytes));
    }
}

/// Whirlpool/Nexus placement: accessing units first, by access intensity,
/// then the rest by proximity to the hottest accessor.
fn intensity_order(d: &StreamDemand, ctx: &ConfigCtx) -> Vec<usize> {
    if d.acc_units.is_empty() {
        return (0..ctx.units).collect();
    }
    let mut accessing = d.acc_units.clone();
    accessing.sort_by_key(|&(_, a)| Reverse(a));
    let hottest = accessing[0].0;
    let mut order: Vec<usize> = accessing.iter().map(|&(u, _)| u).collect();
    let mut rest: Vec<usize> = (0..ctx.units).filter(|u| !order.contains(u)).collect();
    rest.sort_by(|&a, &b| {
        ctx.attenuation[hottest][b]
            .partial_cmp(&ctx.attenuation[hottest][a])
            .expect("finite attenuation")
    });
    order.extend(rest);
    order
}

/// Jigsaw placement: gather every partition at its centre of mass.
fn placement_order(d: &StreamDemand, ctx: &ConfigCtx) -> Vec<usize> {
    if d.acc_units.is_empty() {
        return (0..ctx.units).collect();
    }
    // Centre of mass: the unit with the highest attenuation-weighted access
    // sum.
    let com = (0..ctx.units)
        .max_by(|&a, &b| {
            let score = |u: usize| -> f64 {
                d.acc_units.iter().map(|&(v, acc)| acc as f64 * ctx.attenuation[u][v]).sum()
            };
            score(a).partial_cmp(&score(b)).expect("finite scores")
        })
        .expect("units > 0");
    let mut order: Vec<usize> = (0..ctx.units).collect();
    order.sort_by(|&a, &b| {
        ctx.attenuation[com][b].partial_cmp(&ctx.attenuation[com][a]).expect("finite attenuation")
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(units: usize, cap: u64) -> ConfigCtx {
        // Line topology: attenuation decays with distance.
        let attenuation = (0..units)
            .map(|u| (0..units).map(|v| 1.0 / (1.0 + u.abs_diff(v) as f64 * 0.2)).collect())
            .collect();
        ConfigCtx {
            units,
            unit_capacity: cap,
            affine_cap: cap,
            attenuation,
            dram_lat_ps: 45_000.0,
            miss_extra_ps: 500_000.0,
            dead: vec![false; units],
        }
    }

    fn demand(
        curve_pts: Vec<(u64, f64)>,
        total: f64,
        acc: Vec<(usize, u64)>,
        ro: bool,
    ) -> StreamDemand {
        // Footprint = the largest sampled capacity: beyond it more cache
        // cannot help, matching real stream sizes.
        let footprint = curve_pts.iter().map(|&(c, _)| c).max().unwrap_or(64);
        StreamDemand {
            curve: MissCurve::from_samples(total, curve_pts),
            acc_units: acc,
            read_only: ro,
            affine: false,
            grain: 64,
            total_accesses: total as u64,
            footprint,
        }
    }

    #[test]
    fn ndpext_replicates_hot_read_only_stream() {
        // One hot RO stream accessed by both units; plenty of space: each
        // unit should get its own replica (two groups).
        let d = vec![demand(vec![(1024, 0.0)], 10_000.0, vec![(0, 5000), (1, 5000)], true)];
        let a = allocate_ndpext(&d, &ctx(2, 1 << 20));
        assert_eq!(a.streams[0].len(), 2, "expected two replicas, got {:?}", a.streams[0]);
        assert!(a.replicated_fraction() > 0.4);
    }

    #[test]
    fn ndpext_does_not_replicate_read_write() {
        let d = vec![demand(vec![(1024, 0.0)], 10_000.0, vec![(0, 5000), (1, 5000)], false)];
        let a = allocate_ndpext(&d, &ctx(2, 1 << 20));
        assert_eq!(a.streams[0].len(), 1);
    }

    #[test]
    fn ndpext_reduces_replication_under_pressure() {
        // Capacity for only ~one copy: groups must merge.
        let units = 4;
        let cap = 4096u64;
        let d = vec![demand(
            vec![(8192, 0.0)],
            100_000.0,
            (0..units).map(|u| (u, 1000u64)).collect(),
            true,
        )];
        let a = allocate_ndpext(&d, &ctx(units, cap));
        let total: u64 = a.streams[0].iter().map(AllocGroup::total).sum();
        assert!(total <= cap * units as u64);
        assert!(
            a.streams[0].len() < units,
            "under pressure replication should drop below max: {:?}",
            a.streams[0]
        );
    }

    #[test]
    fn ndpext_prefers_steeper_curves() {
        // Stream 0 gains a lot from cache; stream 1 gains nothing.
        let d = vec![
            demand(vec![(4096, 100.0)], 100_000.0, vec![(0, 1000)], false),
            demand(vec![(4096, 99_000.0)], 100_000.0, vec![(1, 1000)], false),
        ];
        let a = allocate_ndpext(&d, &ctx(2, 2048));
        let t0: u64 = a.streams[0].iter().map(AllocGroup::total).sum();
        let t1: u64 = a.streams[1].iter().map(AllocGroup::total).sum();
        assert!(t0 > t1, "steep stream got {t0}, flat stream got {t1}");
    }

    #[test]
    fn equal_allocation_splits_capacity() {
        let d = vec![
            demand(vec![(4096, 0.0)], 100.0, vec![(0, 100)], true),
            demand(vec![(4096, 0.0)], 100.0, vec![(1, 100)], true),
        ];
        let c = ctx(2, 8192);
        let a = allocate_baseline(PolicyKind::NdpExtStatic, &d, &c, 2);
        for gs in &a.streams {
            assert_eq!(gs.len(), 1);
            // Each stream gets half of each unit.
            for &(_, b) in &gs[0].unit_bytes {
                assert_eq!(b, 4096);
            }
        }
    }

    #[test]
    fn jigsaw_gathers_whirlpool_spreads() {
        // A stream accessed only at the two ends of a 6-unit line.
        let acc = vec![(0usize, 1000u64), (5, 1000)];
        let d = vec![demand(vec![(64 * 600, 0.0)], 10_000.0, acc, false)];
        let c = ctx(6, 64 * 100);
        let jig = allocate_baseline(PolicyKind::Jigsaw, &d, &c, 2);
        let whirl = allocate_baseline(PolicyKind::Whirlpool, &d, &c, 2);
        let spread = |a: &Allocation| a.streams[0][0].unit_bytes.len();
        // Jigsaw fills from the centre of mass outward; Whirlpool puts
        // capacity at the accessing units first.
        let whirl_units: Vec<usize> =
            whirl.streams[0][0].unit_bytes.iter().map(|&(u, _)| u).collect();
        assert!(whirl_units.contains(&0) && whirl_units.contains(&5), "{whirl_units:?}");
        assert!(spread(&jig) >= 1);
    }

    #[test]
    fn nexus_replicates_read_only_with_global_degree() {
        let acc: Vec<(usize, u64)> = (0..6).map(|u| (u, 100u64)).collect();
        let d = vec![demand(vec![(4096, 0.0)], 10_000.0, acc, true)];
        let c = ctx(6, 1 << 20);
        let a = allocate_baseline(PolicyKind::Nexus, &d, &c, 3);
        assert_eq!(a.streams[0].len(), 3, "nexus should build 3 replicas");
    }

    #[test]
    fn interleave_weights_by_access_intensity() {
        let d = vec![
            demand(vec![(4096, 0.0)], 9000.0, vec![(0, 9000)], false),
            demand(vec![(4096, 0.0)], 1000.0, vec![(1, 1000)], false),
        ];
        let c = ctx(2, 64 * 1000);
        let a = allocate_baseline(PolicyKind::StaticInterleave, &d, &c, 2);
        let t0: u64 = a.streams[0].iter().map(AllocGroup::total).sum();
        let t1: u64 = a.streams[1].iter().map(AllocGroup::total).sum();
        assert!(t0 > t1 * 5);
    }

    #[test]
    fn allocations_never_exceed_capacity() {
        let units = 4;
        let cap = 64 * 64;
        let demands: Vec<StreamDemand> = (0..8)
            .map(|i| {
                demand(
                    vec![(64 * 128, 10.0)],
                    10_000.0,
                    vec![(i % units, 500), ((i + 1) % units, 300)],
                    i % 2 == 0,
                )
            })
            .collect();
        let c = ctx(units, cap as u64);
        for policy in PolicyKind::ALL {
            let a = if policy == PolicyKind::NdpExt {
                allocate_ndpext(&demands, &c)
            } else {
                allocate_baseline(policy, &demands, &c, 2)
            };
            let mut per_unit = vec![0u64; units];
            for gs in &a.streams {
                for g in gs {
                    for &(u, b) in &g.unit_bytes {
                        per_unit[u] += b;
                    }
                }
            }
            for (u, &used) in per_unit.iter().enumerate() {
                assert!(used <= cap as u64, "{policy:?} overflows unit {u}: {used} > {cap}");
            }
        }
    }

    #[test]
    fn dead_units_receive_no_capacity_under_any_policy() {
        let units = 4;
        let cap = 64 * 64;
        let demands: Vec<StreamDemand> = (0..6)
            .map(|i| {
                demand(
                    vec![(64 * 128, 10.0)],
                    10_000.0,
                    vec![(i % units, 500), ((i + 1) % units, 300)],
                    i % 2 == 0,
                )
            })
            .collect();
        let mut c = ctx(units, cap as u64);
        c.dead[1] = true;
        for policy in PolicyKind::ALL {
            let a = if policy == PolicyKind::NdpExt {
                allocate_ndpext(&demands, &c)
            } else {
                allocate_baseline(policy, &demands, &c, 2)
            };
            let mut placed_anywhere = 0u64;
            for gs in &a.streams {
                for g in gs {
                    for &(u, b) in &g.unit_bytes {
                        assert!(u != 1 || b == 0, "{policy:?} placed {b} bytes on dead unit 1");
                        placed_anywhere += b;
                    }
                }
            }
            assert!(placed_anywhere > 0, "{policy:?} placed nothing on survivors");
        }
    }

    #[test]
    fn all_alive_mask_matches_the_healthy_allocation() {
        let units = 4;
        let cap = 64 * 64;
        let demands: Vec<StreamDemand> = (0..6)
            .map(|i| {
                demand(
                    vec![(64 * 128, 10.0)],
                    10_000.0,
                    vec![(i % units, 500), ((i + 1) % units, 300)],
                    i % 2 == 0,
                )
            })
            .collect();
        let c = ctx(units, cap as u64);
        for policy in PolicyKind::ALL {
            let run = |ctx: &ConfigCtx| {
                if policy == PolicyKind::NdpExt {
                    allocate_ndpext(&demands, ctx)
                } else {
                    allocate_baseline(policy, &demands, ctx, 2)
                }
            };
            let healthy = run(&c);
            let again = run(&c);
            assert_eq!(healthy.streams, again.streams, "{policy:?} not deterministic");
        }
    }
}
