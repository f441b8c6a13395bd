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

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

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
}

/// A lookahead segment `(target capacity, slope)`, if the curve has one.
type Segment = Option<(u64, f64)>;

/// One stop on a stream's capacity walk: a group total the heap loop
/// reaches, with the curve's misses and lookahead segment there.
///
/// Inside the heap loop a group's total changes only at a commit, which
/// adds exactly the segment that the stream's curve, grain, and footprint
/// derive from the current total. So every group of a stream — all of a
/// read-only stream's replicas — walks the same sequence of totals: the
/// solver computes each stop once per stream ([`Solver::walks`]) and a
/// group keeps its position on the walk and a copy of the stop there.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    total: u64,
    /// `curve.misses_at(total)`.
    misses: f64,
    /// `curve.next_segment(total)`.
    seg: Segment,
}

/// One replication group's solver state; its capacity row and member
/// bitset live in the solver's flat arena ([`Solver::cap`],
/// [`Solver::bits`]).
///
/// Algorithm 1 pops hundreds of heap entries per solve and needs the
/// group's total, utility, and lookahead segment at each, so they are kept
/// incrementally (DESIGN.md §11) — exactly, so every f64 the solver
/// compares equals a from-scratch recomputation: `total` is an integer sum
/// updated at each capacity or member change, `util` is recomputed in
/// member order after such a change, and the segment and misses are the
/// stream's walk stop at `step`.
#[derive(Debug, Clone, Default)]
struct Group {
    stream: usize,
    /// Member units in insertion order; utility and access-time sums
    /// iterate this order, so it is part of every f64 result.
    members: Vec<usize>,
    /// `Σ cap[m]` over `members`.
    total: u64,
    /// Memoized [`Solver::utility`]; cleared when capacity or members
    /// change.
    util: Option<f64>,
    /// Position of `total` on the stream's walk, and the stop there
    /// (heap loop only).
    step: usize,
    at: Step,
    /// Anchor unit: the original (or highest-traffic) accessing unit.
    anchor: usize,
    /// This group's share of the stream's accesses.
    share: f64,
    alive: bool,
}

/// `Σ_u Σ_v cap(v) · attenuation[u][v]` over the `(unit, cap)` terms
/// (both loops in slice order).
fn pair_utility(terms: &[(usize, f64)], ctx: &ConfigCtx) -> f64 {
    let mut util = 0.0;
    for &(u, _) in terms {
        let row = &ctx.attenuation[u];
        for &(v, cap) in terms {
            util += cap * row[v];
        }
    }
    util
}

#[derive(Debug, Default)]
struct Budget {
    free: Vec<u64>,
    affine_free: Vec<u64>,
}

impl Budget {
    fn reset(&mut self, ctx: &ConfigCtx) {
        self.free.clear();
        self.free.extend((0..ctx.units).map(|u| ctx.capacity_of(u)));
        self.affine_free.clear();
        self.affine_free.extend((0..ctx.units).map(|u| ctx.affine_cap.min(ctx.capacity_of(u))));
    }

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

/// A heap entry: the slope's bits above the complemented index, so the
/// max-heap pops the steepest slope first and, on ties, the lowest index.
/// Slopes are non-negative, so their bits order like their values; group
/// indices are stream-major, so the order equals `(slope, Reverse(stream),
/// Reverse(group))`.
fn heap_key(slope: f64, index: usize) -> u128 {
    debug_assert!(slope >= 0.0);
    (u128::from(slope.to_bits()) << 64) | u128::from(!(index as u64))
}

/// Replaces the heap's top entry by group `g` at `slope`, or pops it when
/// `slope` is not positive: the heap then holds what a pop followed by
/// [`Solver::push`] leaves, after one sift instead of two.
fn requeue(mut top: PeekMut<'_, u128>, slope: f64, g: usize) {
    if slope > 0.0 {
        *top = heap_key(slope, g);
    } else {
        PeekMut::pop(top);
    }
}

/// The index a [`heap_key`] was built from.
fn key_index(key: u128) -> usize {
    !(key as u64) as usize
}

/// A stream's primary copy — its largest live group, lowest index on ties —
/// which earns full miss-curve credit; every other group is a replica (see
/// [`Solver::replica_factor`]). Kept per stream during the heap loop, where
/// group totals only grow until a merge kills a group.
#[derive(Debug, Clone, Copy)]
struct Primary {
    group: usize,
    /// Fraction of the stream's accesses the primary serves as hits.
    covered: f64,
}

/// The NDPExt configuration algorithm (Algorithm 1) with all of its
/// scratch: the group arena, the heap, the per-stream lookahead memo, the
/// merge index, and the placement buffers. A caller that solves every
/// epoch keeps one solver and reuses its buffers; every solve starts from
/// a full reset, so a reused solver returns exactly what a fresh one does.
#[derive(Debug, Default)]
pub struct Solver {
    units: usize,
    /// `u64` words per member bitset.
    words: usize,
    budget: Budget,
    /// The group arena, stream-major: stream `s` owns groups
    /// `first[s]..first[s + 1]`. Entries past the last stream's end are
    /// left over from larger solves.
    groups: Vec<Group>,
    first: Vec<usize>,
    /// Per-group bytes per unit: `cap[g * units + u]`.
    cap: Vec<u64>,
    /// Per-group member bitsets: `bits[g * words..][..words]`.
    bits: Vec<u64>,
    /// Live groups per stream: a merge needs a live sibling to fold into.
    alive_count: Vec<usize>,
    primary: Vec<Option<Primary>>,
    /// Per-stream lookahead memo: the stream's capacity walk ([`Step`]).
    walks: Vec<Vec<Step>>,
    /// The merge index: every group a merge may drop — alive, holding
    /// capacity, in a stream with another live group — ascending, with its
    /// member bitset inline in `mergeable_bits`.
    mergeable: Vec<usize>,
    mergeable_bits: Vec<u64>,
    /// The merge index entries sharing a unit with the group being placed.
    overlapping: Vec<usize>,
    heap: BinaryHeap<u128>,
    staged: Vec<(usize, u64)>,
    /// `(available bytes, unit)` per member of the group being placed.
    member_order: Vec<(u64, usize)>,
    /// Per anchor unit `a`, the other units nearest first (attenuation
    /// descending, index ascending on ties) at `nearest[a * (units - 1)..]`,
    /// sorted on first use and kept while the attenuation matrix stays
    /// equal to `attenuation`.
    nearest: Vec<usize>,
    nearest_ready: Vec<bool>,
    attenuation: Vec<Vec<f64>>,
    /// Per anchor pair `a * units + b`, the replica latency value, computed
    /// on first use.
    latency_value: Vec<Option<f64>>,
    /// Leftover fill: each stream's access count per unit, `acc_at[s *
    /// units + u]`; each stream's receiving group and live total; the
    /// current unit's candidates.
    acc_at: Vec<Option<u64>>,
    fill_to: Vec<Option<(usize, u64)>>,
    cands: Vec<(usize, u64)>,
    /// Group and member lists for the consolidation pass.
    scratch: Vec<usize>,
    /// `(unit, capacity)` terms of the utility being summed.
    terms: Vec<(usize, f64)>,
}

impl Solver {
    /// Runs Algorithm 1 on `demands`: a per-stream group allocation with
    /// capacity in bytes, already rounded to each stream's grain. Equal to
    /// [`allocate_ndpext`]; only the buffers are reused.
    pub fn solve(&mut self, demands: &[StreamDemand], ctx: &ConfigCtx) -> Allocation {
        self.reset(demands, ctx);
        self.run_heap(demands, ctx);
        self.fill_leftover(demands, ctx);
        self.consolidate(demands, ctx);
        self.allocation(demands.len())
    }

    /// Builds the initial groups — maximal replication for read-only
    /// streams, a single shared group otherwise — and clears every memo
    /// and index.
    fn reset(&mut self, demands: &[StreamDemand], ctx: &ConfigCtx) {
        let units = ctx.units;
        self.units = units;
        self.words = units.div_ceil(64);
        self.budget.reset(ctx);

        self.first.clear();
        self.first.push(0);
        let mut n = 0;
        for d in demands {
            n += match (d.acc_units.len(), d.read_only) {
                (0, _) => 0,
                (k, true) => k,
                (_, false) => 1,
            };
            self.first.push(n);
        }
        if self.groups.len() < n {
            self.groups.resize_with(n, Group::default);
        }
        self.cap.clear();
        self.cap.resize(n * units, 0);
        self.bits.clear();
        self.bits.resize(n * self.words, 0);
        for (s, d) in demands.iter().enumerate() {
            let g = self.first[s];
            if d.acc_units.is_empty() {
                continue;
            }
            if d.read_only {
                let total: u64 = d.acc_units.iter().map(|&(_, a)| a).sum();
                for (i, &(u, a)) in d.acc_units.iter().enumerate() {
                    self.init_group(g + i, s, [u], u, a as f64 / total.max(1) as f64);
                }
            } else {
                let anchor = d.acc_units.iter().max_by_key(|&&(_, a)| a).expect("non-empty").0;
                self.init_group(g, s, d.acc_units.iter().map(|&(u, _)| u), anchor, 1.0);
            }
        }
        self.alive_count.clear();
        self.alive_count.extend(self.first.windows(2).map(|w| w[1] - w[0]));

        if self.walks.len() < demands.len() {
            self.walks.resize_with(demands.len(), Vec::new);
        }
        self.walks.iter_mut().for_each(Vec::clear);
        self.primary.clear();
        for (s, d) in demands.iter().enumerate() {
            for g in self.first[s]..self.first[s + 1] {
                self.arrive(g, d);
            }
            let p = self.primary_of(s, d);
            self.primary.push(p);
        }
        self.mergeable.clear();
        self.mergeable_bits.clear();
        self.heap.clear();
        if self.attenuation != ctx.attenuation {
            self.attenuation.clone_from(&ctx.attenuation);
            self.nearest.resize(units * units.saturating_sub(1), 0);
            self.nearest_ready.clear();
            self.nearest_ready.resize(units, false);
        }
        self.latency_value.clear();
        self.latency_value.resize(units * units, None);
    }

    /// Resets arena slot `g` to an empty live group; `members` must be
    /// distinct.
    fn init_group(
        &mut self,
        g: usize,
        stream: usize,
        members: impl IntoIterator<Item = usize>,
        anchor: usize,
        share: f64,
    ) {
        let st = &mut self.groups[g];
        st.members.clear();
        for u in members {
            let word = &mut self.bits[g * self.words + u / 64];
            debug_assert_eq!(*word >> (u % 64) & 1, 0, "duplicate member {u}");
            *word |= 1 << (u % 64);
            st.members.push(u);
        }
        st.stream = stream;
        st.total = 0;
        st.util = None;
        st.step = 0;
        st.anchor = anchor;
        st.share = share;
        st.alive = true;
    }

    fn cap_row(&self, g: usize) -> &[u64] {
        &self.cap[g * self.units..(g + 1) * self.units]
    }

    fn is_member(&self, g: usize, u: usize) -> bool {
        self.bits[g * self.words + u / 64] >> (u % 64) & 1 == 1
    }

    /// Appends `u` to `g`'s members unless it already is one.
    fn add_member(&mut self, g: usize, u: usize) {
        if !self.is_member(g, u) {
            self.bits[g * self.words + u / 64] |= 1 << (u % 64);
            let st = &mut self.groups[g];
            st.members.push(u);
            st.total += self.cap[g * self.units + u];
            st.util = None;
        }
    }

    fn add_cap(&mut self, g: usize, u: usize, bytes: u64) {
        self.cap[g * self.units + u] += bytes;
        let member = self.is_member(g, u);
        let st = &mut self.groups[g];
        if member {
            st.total += bytes;
        }
        st.util = None;
    }

    /// Kills `g` and returns all its capacity to the budget.
    fn release(&mut self, g: usize, affine: bool) {
        let row = &mut self.cap[g * self.units..(g + 1) * self.units];
        for (u, c) in row.iter_mut().enumerate() {
            if *c > 0 {
                self.budget.give(u, affine, *c);
                *c = 0;
            }
        }
        let st = &mut self.groups[g];
        st.alive = false;
        st.total = 0;
        st.util = None;
    }

    /// Paper-style group utility: every member values every member's
    /// capacity, attenuated by distance.
    fn utility(&mut self, g: usize, ctx: &ConfigCtx) -> f64 {
        if let Some(u) = self.groups[g].util {
            return u;
        }
        let cap = &self.cap[g * self.units..(g + 1) * self.units];
        self.terms.clear();
        self.terms.extend(self.groups[g].members.iter().map(|&v| (v, cap[v] as f64)));
        let util = pair_utility(&self.terms, ctx);
        self.groups[g].util = Some(util);
        util
    }

    /// The utility `g` would have with non-member `v` appended to its
    /// members and `bytes` placed there — the extend trial of lines 9–21,
    /// scored without copying the group.
    fn utility_extended(&mut self, g: usize, v: usize, bytes: u64, ctx: &ConfigCtx) -> f64 {
        debug_assert!(!self.is_member(g, v));
        let cap = &self.cap[g * self.units..(g + 1) * self.units];
        self.terms.clear();
        self.terms.extend(self.groups[g].members.iter().map(|&w| (w, cap[w] as f64)));
        self.terms.push((v, (cap[v] + bytes) as f64));
        pair_utility(&self.terms, ctx)
    }

    /// Loads the walk stop at `g`'s position into `g.at`; the first group
    /// of its stream to reach a stop computes it.
    fn arrive(&mut self, g: usize, d: &StreamDemand) {
        let st = &mut self.groups[g];
        let walk = &mut self.walks[st.stream];
        if st.step == walk.len() {
            let misses = d.curve.misses_at(st.total);
            let seg = d.curve.segment_from(st.total, misses);
            walk.push(Step { total: st.total, misses, seg });
        }
        st.at = walk[st.step];
        debug_assert_eq!(st.at.total, st.total, "group {g} left its stream's walk");
    }

    /// Stream `s`'s largest live group, lowest index on ties.
    fn largest_alive(&self, s: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for g in self.first[s]..self.first[s + 1] {
            let st = &self.groups[g];
            if st.alive && best.is_none_or(|b| st.total > self.groups[b].total) {
                best = Some(g);
            }
        }
        best
    }

    fn primary_at(&self, g: usize, d: &StreamDemand) -> Primary {
        let total = d.total_accesses.max(1) as f64;
        let covered = (1.0 - self.groups[g].at.misses / total).clamp(0.0, 1.0);
        Primary { group: g, covered }
    }

    fn primary_of(&self, s: usize, d: &StreamDemand) -> Option<Primary> {
        let g = self.largest_alive(s)?;
        Some(self.primary_at(g, d))
    }

    /// Updates the primary of `g`'s stream after live group `g`'s total
    /// grew.
    fn grown(&mut self, g: usize, d: &StreamDemand) {
        let s = self.groups[g].stream;
        let takes_over = self.primary[s].is_none_or(|p| {
            let (mine, theirs) = (self.groups[g].total, self.groups[p.group].total);
            p.group == g || mine > theirs || (mine == theirs && g < p.group)
        });
        if takes_over {
            self.primary[s] = Some(self.primary_at(g, d));
        }
    }

    /// Discounts a replica group's marginal utility: if the stream already
    /// has a larger group covering its accesses, an extra copy only converts
    /// *remote hits* into *local hits* — worth the interconnect saving, not
    /// the full miss penalty (the paper's hit-rate vs hit-latency tradeoff,
    /// §V-C).
    fn replica_factor(&mut self, g: usize, ctx: &ConfigCtx) -> f64 {
        // The stream's primary copy earns full miss-curve credit; every
        // other group is a replica.
        let st = &self.groups[g];
        debug_assert!(st.alive, "dead groups are never scored");
        let Some(Primary { group: other, covered }) =
            self.primary[st.stream].filter(|p| p.group != g)
        else {
            return 1.0;
        };
        // Value of localizing a covered access: the interconnect saving
        // relative to the full miss penalty an uncovered access pays.
        let (a, b) = (st.anchor, self.groups[other].anchor);
        let latency_value = *self.latency_value[a * self.units + b].get_or_insert_with(|| {
            let noc = ctx.noc_ps(a, b).max(0.0);
            (noc / (ctx.dram_lat_ps + ctx.miss_extra_ps)).min(1.0)
        });
        covered * latency_value + (1.0 - covered)
    }

    /// The group's next lookahead segment: `(target capacity, slope
    /// weighted by the group's access share and replica factor)`.
    fn weighted_segment(&mut self, g: usize, ctx: &ConfigCtx) -> Option<(u64, f64)> {
        debug_assert_eq!(
            self.primary[self.groups[g].stream].map(|p| p.group),
            self.largest_alive(self.groups[g].stream)
        );
        let (next_cap, slope) = self.groups[g].at.seg?;
        let shared = slope * self.groups[g].share;
        Some((next_cap, shared * self.replica_factor(g, ctx)))
    }

    /// Queues live group `g` at its current weighted slope, if positive.
    fn push(&mut self, heap: &mut BinaryHeap<u128>, g: usize, ctx: &ConfigCtx) {
        if !self.groups[g].alive {
            return;
        }
        if let Some((_, weighted)) = self.weighted_segment(g, ctx) {
            if weighted > 0.0 {
                heap.push(heap_key(weighted, g));
            }
        }
    }

    /// The greedy loop: pops the steepest weighted segment and places it
    /// within its group's members, or extends or merges groups when the
    /// members are out of room.
    fn run_heap(&mut self, demands: &[StreamDemand], ctx: &ConfigCtx) {
        let mut heap = std::mem::take(&mut self.heap);
        // A dead group's entry would only be popped and skipped, so dead
        // groups are never queued.
        for g in 0..self.first[demands.len()] {
            self.push(&mut heap, g, ctx);
        }
        loop {
            let Some(top) = heap.peek_mut() else { break };
            let g = key_index(*top);
            if !self.groups[g].alive {
                PeekMut::pop(top);
                continue;
            }
            let d = &demands[self.groups[g].stream];
            // Lazy heap: recompute, and requeue a stale entry.
            let cur_total = self.groups[g].total;
            let Some((next_cap, weighted)) = self.weighted_segment(g, ctx) else {
                PeekMut::pop(top);
                continue;
            };
            if heap_key(weighted, g) != *top {
                requeue(top, weighted, g);
                continue;
            }

            let grain = d.grain.max(1);
            // A group never needs more than one full copy of the stream.
            let room = d.footprint.saturating_sub(cur_total);
            if room == 0 {
                PeekMut::pop(top);
                continue;
            }
            let seg = ((next_cap - cur_total).min(room).div_ceil(grain)) * grain;
            let remaining = self.stage(g, seg, grain, d.affine);
            if remaining > 0 {
                PeekMut::pop(top);
                // Lines 9–21: extend the group or merge two groups, then
                // retry this group next round.
                if self.extend_or_merge(&mut heap, g, remaining, demands, ctx) {
                    self.push(&mut heap, g, ctx);
                }
                continue;
            }
            self.commit(g, d);
            let next = self.weighted_segment(g, ctx).map_or(0.0, |(_, w)| w);
            requeue(top, next, g);
        }
        self.heap = heap;
    }

    /// Stages `seg` bytes on `g`'s members, most available space first
    /// (member order on ties). Returns the bytes that do not fit.
    ///
    /// When the members' grain-rounded space falls short, every member
    /// gives all of it in any order, so only the shortfall is returned.
    /// Otherwise members are picked by repeated first-maximum selection —
    /// the order a stable descending sort gives — until `seg` is placed.
    fn stage(&mut self, g: usize, seg: u64, grain: u64, affine: bool) -> u64 {
        self.staged.clear();
        self.member_order.clear();
        let mut room = 0u64;
        for &u in &self.groups[g].members {
            let avail = self.budget.available(u, affine);
            room = room.saturating_add((avail / grain) * grain);
            self.member_order.push((avail, u));
        }
        if room < seg {
            return seg - room;
        }
        let mut remaining = seg;
        while remaining > 0 {
            let mut pick = 0;
            for (i, &(avail, _)) in self.member_order.iter().enumerate().skip(1) {
                if avail > self.member_order[pick].0 {
                    pick = i;
                }
            }
            let (avail, u) = self.member_order[pick];
            let take = ((avail / grain) * grain).min(remaining);
            self.staged.push((u, take));
            remaining -= take;
            self.member_order[pick].0 = 0;
        }
        0
    }

    /// Moves the staged bytes from the budget into `g`, one walk step on.
    fn commit(&mut self, g: usize, d: &StreamDemand) {
        let was_empty = self.groups[g].total == 0;
        for i in 0..self.staged.len() {
            let (u, b) = self.staged[i];
            self.budget.take(u, d.affine, b);
            self.add_cap(g, u, b);
        }
        self.groups[g].step += 1;
        self.arrive(g, d);
        if was_empty && self.alive_count[self.groups[g].stream] >= 2 {
            self.index_insert(g);
        }
        self.grown(g, d);
    }

    /// Lines 9–21 for group `g`, whose members lack room for `remaining`
    /// bytes of its next segment: extends it to the nearest unit
    /// with space or merges the best candidate replica into its sibling,
    /// whichever gains more. Returns false when neither is possible.
    fn extend_or_merge(
        &mut self,
        heap: &mut BinaryHeap<u128>,
        g: usize,
        remaining: u64,
        demands: &[StreamDemand],
        ctx: &ConfigCtx,
    ) -> bool {
        let d = &demands[self.groups[g].stream];
        let (grain, affine) = (d.grain.max(1), d.affine);
        let extend_unit = self.nearest_free(g, grain, affine);
        let merge_pick = self.merge_candidate(g, ctx);
        let do_merge = match (extend_unit, merge_pick) {
            // Nothing helps: this group is done.
            (None, None) => return false,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(v), Some((g2, g3))) => {
                // Extend gain: the utility the nearest free unit adds.
                let placeable = (self.budget.available(v, affine).min(remaining) / grain) * grain;
                let eg = self.utility_extended(g, v, placeable, ctx) - self.utility(g, ctx);
                // Merge gain: freed capacity enables this allocation; its
                // utility cost is the dropped replica's utility drop.
                let util2 = self.utility(g2, ctx);
                let (st2, st3) = (&self.groups[g2], &self.groups[g3]);
                let freed = st2.total as f64;
                let merged_cost =
                    util2 - st2.total as f64 * ctx.attenuation[st2.anchor][st3.anchor];
                freed - merged_cost > eg
            }
        };
        if do_merge {
            let (g2, g3) = merge_pick.expect("checked above");
            self.merge(heap, g2, g3, demands, ctx);
        } else if let Some(v) = extend_unit {
            self.add_member(g, v);
            self.index_sync(g);
        }
        true
    }

    /// Drops replica `g2`: frees its capacity and folds its members into
    /// its sibling `g3` (they are now served remotely).
    fn merge(
        &mut self,
        heap: &mut BinaryHeap<u128>,
        g2: usize,
        g3: usize,
        demands: &[StreamDemand],
        ctx: &ConfigCtx,
    ) {
        let s = self.groups[g2].stream;
        let d = &demands[s];
        self.release(g2, d.affine);
        self.index_remove(g2);
        self.alive_count[s] -= 1;
        if self.alive_count[s] == 1 {
            // `g3` is the stream's last live group: nothing to fold it into.
            self.index_remove(g3);
        }
        if self.primary[s].is_some_and(|p| p.group == g2) {
            self.primary[s] = self.primary_of(s, d);
        }
        let members2 = std::mem::take(&mut self.groups[g2].members);
        for &m in &members2 {
            self.add_member(g3, m);
        }
        self.groups[g2].members = members2;
        self.groups[g3].share += self.groups[g2].share;
        self.index_sync(g3);
        // The surviving group's slope improved (more share); requeue.
        self.push(heap, g3, ctx);
    }

    /// The unit nearest `g`'s anchor (highest attenuation, lowest index on
    /// ties) that is not a member and has a grain of space: the first such
    /// unit in the anchor's nearest-first order. Never the anchor itself,
    /// which is always a member.
    fn nearest_free(&mut self, g: usize, grain: u64, affine: bool) -> Option<usize> {
        if self.groups[g].members.len() == self.units {
            return None;
        }
        let a = self.groups[g].anchor;
        let n = self.units - 1;
        let order = &mut self.nearest[a * n..(a + 1) * n];
        if !self.nearest_ready[a] {
            for (slot, v) in order.iter_mut().zip((0..self.units).filter(|&v| v != a)) {
                *slot = v;
            }
            // Stable: equally near units stay in index order.
            let row = &self.attenuation[a];
            order.sort_by(|&x, &y| row[y].partial_cmp(&row[x]).expect("attenuations are finite"));
            self.nearest_ready[a] = true;
        }
        self.nearest[a * n..(a + 1) * n]
            .iter()
            .copied()
            .find(|&v| !self.is_member(g, v) && self.budget.available(v, affine) >= grain)
    }

    /// The merge candidate of lines 9–21 for a group that ran out of room:
    /// the lowest-utility group of the merge index (first on ties) that
    /// shares a member unit with `of`, and the nearest live sibling group
    /// of its stream to fold into, as `(group, sibling)`.
    fn merge_candidate(&mut self, of: usize, ctx: &ConfigCtx) -> Option<(usize, usize)> {
        let w = self.words;
        let of_bits = &self.bits[of * w..(of + 1) * w];
        self.overlapping.clear();
        for (&g2, bits2) in self.mergeable.iter().zip(self.mergeable_bits.chunks_exact(w)) {
            if bits2.iter().zip(of_bits).any(|(a, b)| a & b != 0) {
                self.overlapping.push(g2);
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.overlapping.len() {
            let g2 = self.overlapping[i];
            let u = self.utility(g2, ctx);
            if best.is_none_or(|(_, best_u)| u < best_u) {
                best = Some((g2, u));
            }
        }
        let (g2, _) = best?;
        let st2 = &self.groups[g2];
        let near = &ctx.attenuation[st2.anchor];
        let (g3, _) = (self.first[st2.stream]..self.first[st2.stream + 1])
            .map(|o| (o, &self.groups[o]))
            .filter(|&(o, os)| o != g2 && os.alive)
            .max_by(|a, b| {
                near[a.1.anchor].partial_cmp(&near[b.1.anchor]).expect("attenuations are finite")
            })?;
        Some((g2, g3))
    }

    /// Adds `g`, which just became mergeable, to the merge index.
    fn index_insert(&mut self, g: usize) {
        let w = self.words;
        let Err(at) = self.mergeable.binary_search(&g) else {
            unreachable!("group {g} is already indexed");
        };
        self.mergeable.insert(at, g);
        self.mergeable_bits.splice(at * w..at * w, self.bits[g * w..(g + 1) * w].iter().copied());
    }

    /// Drops `g` from the merge index, if it is there.
    fn index_remove(&mut self, g: usize) {
        let w = self.words;
        if let Ok(at) = self.mergeable.binary_search(&g) {
            self.mergeable.remove(at);
            self.mergeable_bits.drain(at * w..(at + 1) * w);
        }
    }

    /// Refreshes `g`'s inline member bits after its members changed.
    fn index_sync(&mut self, g: usize) {
        let w = self.words;
        if let Ok(at) = self.mergeable.binary_search(&g) {
            self.mergeable_bits[at * w..(at + 1) * w]
                .copy_from_slice(&self.bits[g * w..(g + 1) * w]);
        }
    }

    /// Leftover fill: sampled curves flatten into noise long before
    /// capacity runs out; a real cache still uses the space. Hands each
    /// unit's free space to the streams that access it (weighted by access
    /// count). Capacity goes into each stream's *largest* live group (the
    /// last on ties) — growing one shared copy rather than inflating
    /// replication — and is capped by the stream's footprint across all
    /// groups. Only that group grows, so it stays the largest throughout.
    fn fill_leftover(&mut self, demands: &[StreamDemand], ctx: &ConfigCtx) {
        let units = self.units;
        self.acc_at.clear();
        self.acc_at.resize(demands.len() * units, None);
        self.fill_to.clear();
        for (s, d) in demands.iter().enumerate() {
            for &(u, acc) in &d.acc_units {
                self.acc_at[s * units + u].get_or_insert(acc);
            }
            let (mut to, mut alive_total) = (None, 0);
            for g in self.first[s]..self.first[s + 1] {
                let st = &self.groups[g];
                if st.alive {
                    alive_total += st.total;
                    if to.is_none_or(|t: usize| st.total >= self.groups[t].total) {
                        to = Some(g);
                    }
                }
            }
            self.fill_to.push(to.map(|g| (g, alive_total)));
        }
        for u in 0..units {
            self.cands.clear();
            for (s, d) in demands.iter().enumerate() {
                let (Some(acc), Some((_, have))) = (self.acc_at[s * units + u], self.fill_to[s])
                else {
                    continue;
                };
                if have < d.footprint {
                    self.cands.push((s, acc));
                }
            }
            let total_w: u64 = self.cands.iter().map(|&(_, w)| w).sum();
            if total_w == 0 {
                continue;
            }
            let free_u = self.budget.available(u, false);
            for i in 0..self.cands.len() {
                let (s, w) = self.cands[i];
                let d = &demands[s];
                let (g, have) = self.fill_to[s].expect("candidates have a group");
                let grain = d.grain.max(1);
                let share = free_u * w / total_w;
                let room = d.footprint.saturating_sub(have);
                // Keep the filled capacity spatially spread: no unit holds
                // more than ~2× the stream's fair per-unit share
                // (hot-spotting one unit concentrates traffic and lengthens
                // average hops).
                let fair = (d.footprint / ctx.units as u64).max(grain) * 2;
                let at_u = self.cap[g * units + u];
                let add = (share
                    .min(room)
                    .min(fair.saturating_sub(at_u))
                    .min(self.budget.available(u, d.affine))
                    / grain)
                    * grain;
                if add > 0 {
                    self.budget.take(u, d.affine, add);
                    self.add_cap(g, u, add);
                    self.add_member(g, u);
                    self.fill_to[s] = Some((g, have + add));
                }
            }
        }
    }

    /// Consolidation pass: replication trades hit latency for hit rate
    /// (§V-C). For each read-only stream, merges replica groups while the
    /// estimated access time improves: a merge pools capacity (fewer misses
    /// to slow extended memory) at the cost of remote hits on the NoC.
    fn consolidate(&mut self, demands: &[StreamDemand], ctx: &ConfigCtx) {
        for (s, d) in demands.iter().enumerate() {
            loop {
                let groups = &self.groups;
                self.scratch.clear();
                self.scratch
                    .extend((self.first[s]..self.first[s + 1]).filter(|&g| groups[g].alive));
                if self.scratch.len() < 2 {
                    break;
                }
                // Merge the two smallest groups (the least capacity-efficient
                // replicas) if that lowers expected access time.
                self.scratch.sort_by_key(|&g| groups[g].total);
                let (a, b) = (self.scratch[0], self.scratch[1]);
                let before = self.group_time(a, d, ctx) + self.group_time(b, d, ctx);
                // The merged group's members: `a`'s, then `b`'s others.
                self.scratch.clear();
                self.scratch.extend_from_slice(&self.groups[a].members);
                for &m in &self.groups[b].members {
                    if !self.is_member(a, m) {
                        self.scratch.push(m);
                    }
                }
                let (cap_a, cap_b) = (self.cap_row(a), self.cap_row(b));
                let (st_a, st_b) = (&self.groups[a], &self.groups[b]);
                let after = group_time(
                    &self.scratch,
                    |v| cap_a[v] + cap_b[v],
                    st_a.total + st_b.total,
                    st_a.share + st_b.share,
                    d,
                    ctx,
                );
                if after < before {
                    self.fold(a, b);
                } else {
                    break;
                }
            }
        }
    }

    /// Folds group `b` into `a` (members, capacity, share) and kills `b`.
    fn fold(&mut self, a: usize, b: usize) {
        let members_b = std::mem::take(&mut self.groups[b].members);
        for &m in &members_b {
            self.add_member(a, m);
        }
        self.groups[b].members = members_b;
        for u in 0..self.units {
            let c = self.cap[b * self.units + u];
            if c > 0 {
                self.add_cap(a, u, c);
            }
        }
        self.groups[a].share += self.groups[b].share;
        self.groups[b].alive = false;
    }

    fn group_time(&self, g: usize, d: &StreamDemand, ctx: &ConfigCtx) -> f64 {
        let (st, cap) = (&self.groups[g], self.cap_row(g));
        group_time(&st.members, |v| cap[v], st.total, st.share, d, ctx)
    }

    fn allocation(&self, streams: usize) -> Allocation {
        Allocation {
            streams: (0..streams)
                .map(|s| {
                    (self.first[s]..self.first[s + 1])
                        .filter(|&g| self.groups[g].alive && self.groups[g].total > 0)
                        .map(|g| AllocGroup {
                            unit_bytes: self
                                .cap_row(g)
                                .iter()
                                .enumerate()
                                .filter(|&(_, &c)| c > 0)
                                .map(|(u, &c)| (u, c))
                                .collect(),
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

/// Estimated time a group's accesses spend in the memory system per epoch:
/// misses pay the extended-memory penalty, hits pay DRAM plus the average
/// intra-group NoC distance. The group is given by its members (in
/// order), per-unit capacity, total, and access share.
fn group_time(
    members: &[usize],
    cap: impl Fn(usize) -> u64,
    total: u64,
    share: f64,
    d: &StreamDemand,
    ctx: &ConfigCtx,
) -> f64 {
    let acc = d.total_accesses as f64 * share;
    if acc <= 0.0 {
        return 0.0;
    }
    let misses = d.curve.misses_at(total) * share;
    let hits = (acc - misses).max(0.0);
    // Average NoC distance within the group, capacity-weighted.
    let total_cap = total.max(1) as f64;
    let mut avg_noc = 0.0;
    if members.len() > 1 {
        for &u in members {
            let mut from_u = 0.0;
            for &v in members {
                from_u += cap(v) as f64 / total_cap * ctx.noc_ps(u, v);
            }
            avg_noc += from_u / members.len() as f64;
        }
    }
    misses * (ctx.dram_lat_ps + ctx.miss_extra_ps) + hits * (ctx.dram_lat_ps + avg_noc)
}

/// Runs the NDPExt configuration algorithm (Algorithm 1) on a fresh
/// [`Solver`].
///
/// Returns a per-stream group allocation. Capacity is expressed in bytes and
/// already rounded to each stream's grain.
pub fn allocate_ndpext(demands: &[StreamDemand], ctx: &ConfigCtx) -> Allocation {
    Solver::default().solve(demands, ctx)
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

    let mut heap: BinaryHeap<u128> = BinaryHeap::new();
    for (s, d) in demands.iter().enumerate() {
        if let Some((_, slope)) = d.curve.next_segment(0) {
            if slope > 0.0 && d.total_accesses > 0 {
                heap.push(heap_key(slope, s));
            }
        }
    }

    while let Some(key) = heap.pop() {
        let s = key_index(key);
        let d = &demands[s];
        let Some((next_cap, slope)) = d.curve.next_segment(totals[s]) else {
            continue;
        };
        if heap_key(slope, s) != key {
            heap.push(heap_key(slope, s));
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
        heap.push(heap_key(d.curve.next_segment(totals[s]).map_or(0.0, |(_, sl)| sl), s));
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
