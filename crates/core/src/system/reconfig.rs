//! The epoch control plane: demand collection, allocation, layout and
//! tag-array transfer, sampler assignment, and the NoC-derived matrices
//! the placement algorithms read.

use std::sync::Arc;

use ndpx_cache::tagarray::TagArray;
use ndpx_noc::topology::UnitId;
use ndpx_sim::ndpx_debug;
use ndpx_sim::telemetry::{Phase, PhaseProfiler, ProfileSpan};
use ndpx_sim::time::Time;
use ndpx_stream::StreamId;

use super::{NdpSystem, LINE_BYTES};
use crate::config::{PolicyKind, ReconfigTransfer};
use crate::layout::{Group, StreamLayout};
use crate::runtime::configure::{allocate_baseline, Allocation, ConfigCtx, StreamDemand};
use crate::runtime::maxflow::assign_samplers;
use crate::runtime::sampler::{capacity_points, MissCurve, SamplerShape, SetSampler};

pub(super) struct SamplerSlot {
    pub(super) unit: usize,
    pub(super) sampler: SetSampler,
}

impl NdpSystem {
    pub(super) fn config_ctx(&self) -> ConfigCtx {
        let dram_lat = self.cfg.dram_config().timing.row_empty().as_ps() as f64;
        let mut ext_lat = 2.0 * self.cfg.cxl.link_latency.as_ps() as f64
            + ndpx_mem::timing::DramTiming::ddr5_4800().row_empty().as_ps() as f64;
        if self.ext.fault_enabled() || self.chaos.is_some() {
            // Placement feedback: CRC replays, retrains, and chaos outage
            // stalls raise the effective miss penalty, so the configuration
            // algorithm shifts streams toward stack-local DRAM while the
            // link is degraded. `degradation()` is exactly 1.0 with nothing
            // degraded, so a chaos run allocates identically to the healthy
            // path until its first event fires.
            ext_lat *= self.ext.degradation();
        }
        ConfigCtx {
            units: self.cfg.units(),
            unit_capacity: self.cfg.unit_capacity,
            affine_cap: self.cfg.affine_cap.min(self.cfg.unit_capacity),
            attenuation: self.attenuation.clone(),
            dram_lat_ps: dram_lat,
            miss_extra_ps: ext_lat,
            dead: self
                .chaos
                .as_deref()
                .map_or_else(|| vec![false; self.cfg.units()], |cs| cs.dead_units.clone()),
        }
    }

    /// Collects per-stream demands from this epoch's counters and samplers.
    pub(super) fn collect_demands(&mut self, warmup: bool) -> Vec<StreamDemand> {
        let units_n = self.cfg.units();
        (0..self.table.len())
            .map(|si| {
                let sid = StreamId(si as u16);
                let s = self.table.get(sid);
                let grain = self.front.descs[si].grain;
                let mut acc_units: Vec<(usize, u64)> = if warmup {
                    // Nothing observed yet: assume every unit touches every
                    // stream equally so the warmup allocation hands all
                    // streams capacity.
                    (0..units_n).map(|u| (u, 1)).collect()
                } else {
                    self.acc_history[si * units_n..(si + 1) * units_n]
                        .iter()
                        .enumerate()
                        .filter(|(_, &a)| a > 0)
                        .map(|(u, &a)| (u, a))
                        .collect()
                };
                let mut speculative = false;
                if acc_units.is_empty() {
                    // Never-yet-accessed stream (e.g. a phase that has not
                    // reached it): keep it competing at minimal weight so
                    // leftover capacity is not stranded and its first burst
                    // does not start from an empty cache.
                    acc_units = (0..self.cfg.units()).map(|u| (u, 1)).collect();
                    speculative = true;
                }
                let total: u64 = acc_units.iter().map(|&(_, a)| a).sum();
                let curve = if warmup {
                    // No observations yet: assume misses fall linearly until
                    // the stream's footprint fits.
                    let guess = total.max(1) as f64;
                    MissCurve::from_samples(guess, vec![(s.size, guess * 0.05)])
                } else if let Some(slot) = &self.samplers[si] {
                    if slot.sampler.observed() > 0 {
                        let c = slot.sampler.curve(total);
                        self.prev_curves[si] = Some(c.clone());
                        c
                    } else {
                        self.prev_curves[si]
                            .clone()
                            .unwrap_or_else(|| MissCurve::flat(total as f64))
                    }
                } else {
                    self.prev_curves[si].clone().unwrap_or_else(|| {
                        MissCurve::from_samples(total as f64, vec![(s.size, total as f64 * 0.05)])
                    })
                };
                StreamDemand {
                    curve,
                    acc_units,
                    // Speculative streams get one shared group: replicating
                    // data nobody has touched wastes space and churns.
                    read_only: s.read_only && !speculative && self.cfg.allow_replication,
                    affine: s.kind.is_affine(),
                    grain,
                    total_accesses: total,
                    footprint: s.size,
                }
            })
            .collect()
    }

    /// Applies a new allocation: builds layouts, transfers or invalidates
    /// cached contents, rebuilds tag arrays. Returns the simulated span over
    /// which migration traffic drains (zero when nothing migrates) — the
    /// reconfiguration "downtime" reported under `slo.*`.
    pub(super) fn apply_allocation(&mut self, alloc: &Allocation, t: Time) -> Time {
        let mut drain = Time::ZERO;
        let units_n = self.cfg.units();
        let consistent = self.cfg.transfer == ReconfigTransfer::ConsistentHash;
        self.replicated_fraction = alloc.replicated_fraction();

        if self.trace_alloc {
            ndpx_debug!(
                "== apply_allocation at {t} total={}MB repl={:.2}",
                alloc.total_bytes() >> 20,
                alloc.replicated_fraction()
            );
            for (si, gs) in alloc.streams.iter().enumerate() {
                if gs.is_empty() {
                    continue;
                }
                let total: u64 = gs.iter().map(crate::runtime::configure::AllocGroup::total).sum();
                let sizes: Vec<u64> = gs.iter().map(|g| g.total() >> 10).collect();
                ndpx_debug!(
                    "alloc s{si} ro={} affine={} groups={} totalKB={} sizesKB={:?}",
                    self.table.get(StreamId(si as u16)).read_only,
                    self.table.get(StreamId(si as u16)).kind.is_affine(),
                    gs.len(),
                    total >> 10,
                    sizes
                );
            }
        }
        let mut unit_offsets = vec![0u64; units_n];
        let mut new_layouts = Vec::with_capacity(self.table.len());
        for si in 0..self.table.len() {
            let grain = self.front.descs[si].grain;
            // Per-group slot shares; a group without a whole slot is dropped.
            let shares: Vec<Vec<u64>> = alloc
                .streams
                .get(si)
                .map_or(&[][..], |v| &v[..])
                .iter()
                .map(|g| {
                    let mut shares = vec![0u64; units_n];
                    for &(u, bytes) in &g.unit_bytes {
                        shares[u] = bytes / grain;
                    }
                    shares
                })
                .filter(|shares| shares.iter().any(|&s| s > 0))
                .collect();
            // Hysteresis: sampling noise makes successive allocations jitter;
            // rebuilding (and invalidating) a stream's cache for a <25% size
            // change costs more than the size change is worth. Keep the old
            // layout when the new one is structurally similar — decided from
            // the shares alone, before any placement table is built.
            if let Some(old) = self.layouts.get(si) {
                let old_total = old.total_slots() * old.grain;
                let new_total = shares.iter().flatten().sum::<u64>() * grain;
                let similar = old.groups.len() == shares.len()
                    && old.grain == grain
                    && old_total > 0
                    && new_total.abs_diff(old_total) * 4 < old_total;
                // Chaos gate: never keep a layout that still holds shares on
                // a dead unit, however small the delta looks. Always true on
                // a healthy system.
                if similar && self.chaos_layout_clean(old) {
                    new_layouts.push(old.clone());
                    continue;
                }
            }
            let mut layout = StreamLayout::empty(units_n, grain);
            layout.groups = shares.into_iter().map(|s| Group::new(s, consistent)).collect();
            let per_unit = layout.finalize_offsets(units_n);
            layout.unit_base.copy_from_slice(&unit_offsets);
            for (off, &per) in unit_offsets.iter_mut().zip(&per_unit) {
                *off += per * grain;
            }
            let dist = &self.distance;
            layout.assign_nearest(units_n, |a, b| dist[a * units_n + b]);
            new_layouts.push(layout);
        }

        // Rebuild tag arrays, transferring contents per the configured
        // policy. Streams whose layout is unchanged keep their tags — only
        // reassigned space is invalidated (paper §V-D).
        let mut moving: Vec<(usize, u64, bool)> = Vec::new();
        for (si, new_layout) in new_layouts.iter().enumerate() {
            let sid = StreamId(si as u16);
            let ways = self.tag_ways(sid);
            if let Some(old_layout) = self.layouts.get(si) {
                // Identical shares mean identical placement: keep the tags.
                // (A shifted DRAM base only renames rows; contents and
                // placement are untouched.)
                let same_groups = old_layout.groups.len() == new_layout.groups.len()
                    && old_layout
                        .groups
                        .iter()
                        .zip(&new_layout.groups)
                        .all(|(a, b)| a.shares == b.shares);
                if same_groups {
                    continue;
                }
            }
            // Per-unit slot totals under the new layout.
            let mut per_unit = vec![0u64; units_n];
            for g in &new_layout.groups {
                for (total, &s) in per_unit.iter_mut().zip(&g.shares) {
                    *total += s;
                }
            }
            // Re-size the stream's arrays in place: its row of the flat tag
            // matrix is contiguous. Consistent hashing first collects the
            // resident entries (unit, then slot order) so the old buffers can
            // be emptied and reused; bulk invalidation only counts them.
            let row = si * units_n;
            moving.clear();
            for (u, old) in self.tags[row..row + units_n].iter().enumerate() {
                let Some(old) = old else { continue };
                if consistent {
                    moving.extend(old.entries().map(|(key, dirty)| (u, key, dirty)));
                } else {
                    self.invalidations += old.occupancy();
                }
            }
            for (tags, &per) in self.tags[row..row + units_n].iter_mut().zip(&per_unit) {
                match tags {
                    _ if per == 0 => *tags = None,
                    Some(t) => t.reset(per, ways),
                    None => *tags = Some(TagArray::new(per, ways)),
                }
            }
            if consistent {
                // Consistent-hash transfer (§V-D): re-place every resident
                // entry under the new layout; entries that land on their old
                // unit are kept in place, entries that move units count as
                // migrations (and consume NoC bandwidth), entries with no
                // home any more are invalidated.
                let mut migrated_bytes_from: Vec<u64> = vec![0; units_n];
                for &(u, key, dirty) in &moving {
                    match new_layout.locate(u, key) {
                        Some((target, slot)) => {
                            let installed = self.tags[row + target]
                                .as_mut()
                                .is_some_and(|t| t.install_if_free(slot, key, dirty));
                            if !installed {
                                self.invalidations += 1;
                            } else if target == u {
                                // Kept in place: free.
                            } else {
                                self.migrations += 1;
                                migrated_bytes_from[u] += new_layout.grain;
                            }
                        }
                        None => self.invalidations += 1,
                    }
                }
                // Migration traffic drains in the background over the start
                // of the epoch (the paper reports it at ~1.3% of requests).
                for (u, bytes) in migrated_bytes_from.iter().enumerate() {
                    if *bytes == 0 {
                        continue;
                    }
                    let neighbor = (u + 1) % units_n;
                    let chunks = bytes.div_ceil(4096).min(64);
                    let spacing = Time::from_ps(self.cfg.epoch().as_ps() / (4 * chunks.max(1)));
                    for i in 0..chunks {
                        self.net.send(UnitId(u), UnitId(neighbor), 4096, t + spacing * i);
                    }
                    drain = drain.max(spacing * chunks);
                }
            }
        }
        self.layouts = new_layouts;
        drain
    }

    fn tag_ways(&self, sid: StreamId) -> usize {
        if self.cfg.policy.is_stream_grain() {
            if self.front.descs[sid.index()].affine {
                4
            } else {
                self.cfg.indirect_ways
            }
        } else {
            1
        }
    }

    /// The next allocation from this epoch's demands: Algorithm 1 under
    /// NDPExt, the policy's own allocator otherwise.
    pub(super) fn allocate(&mut self) -> Allocation {
        let demands = self.collect_demands(false);
        let ctx = self.config_ctx();
        if self.cfg.policy == PolicyKind::NdpExt {
            self.solver.solve(&demands, &ctx)
        } else {
            allocate_baseline(self.cfg.policy, &demands, &ctx, self.cfg.nexus_degree)
        }
    }

    /// Epoch boundary: derive and apply the next configuration. `prof`, when
    /// present, receives the sampler-solve / rehash / reconfig sub-phase
    /// timings.
    pub(super) fn reconfigure(&mut self, t: Time, mut prof: Option<&mut PhaseProfiler>) {
        self.reconfigs += 1;
        if self.slo.enabled {
            self.slo.close_epoch(t, self.front.access_latency());
            if let Some(tr) = self.front.trace.as_deref_mut() {
                tr.counter("slo", "slo.epoch_p50_ns", 0, t, self.slo.last_p50.as_ns() as f64);
                tr.counter("slo", "slo.epoch_p99_ns", 0, t, self.slo.last_p99.as_ns() as f64);
                tr.counter("slo", "slo.staleness_ns", 0, t, self.slo.last_staleness.as_ns() as f64);
            }
        }
        if let Some(tr) = self.front.trace.as_deref_mut() {
            tr.instant("core", "reconfigure", 0, t);
        }
        // Decay the flat (stream × unit) history matrix in 4-wide chunks
        // the compiler lowers to vector shift-adds; integer lanes are
        // independent, so this is bit-identical to the scalar loop.
        let mut hist = self.acc_history.chunks_exact_mut(4);
        let mut cur = self.acc_counts.chunks_exact(4);
        for (h4, c4) in hist.by_ref().zip(cur.by_ref()) {
            for i in 0..4 {
                h4[i] = h4[i] / 2 + c4[i];
            }
        }
        for (h, &c) in hist.into_remainder().iter_mut().zip(cur.remainder()) {
            *h = *h / 2 + c;
        }
        let within_budget = self.cfg.max_reconfigs.is_none_or(|m| self.reconfigs <= m);
        if self.cfg.policy.reconfigures() && within_budget {
            let alloc = {
                let _span = ProfileSpan::enter_opt(prof.as_deref_mut(), Phase::SamplerSolve);
                self.allocate()
            };
            // Skip immaterial reconfigurations outright: sampling noise
            // produces small deltas every epoch, and applying them costs
            // invalidations and migrations worth more than the delta.
            let moved: u64 = alloc
                .streams
                .iter()
                .enumerate()
                .map(|(si, gs)| {
                    let new_total: u64 =
                        gs.iter().map(crate::runtime::configure::AllocGroup::total).sum();
                    let old_total = self.layouts.get(si).map_or(0, |l| l.total_slots() * l.grain);
                    new_total.abs_diff(old_total)
                })
                .sum();
            let capacity = self.cfg.unit_capacity * self.cfg.units() as u64;
            if moved * 100 >= capacity * 15 {
                let drain = {
                    let _span = ProfileSpan::enter_opt(prof.as_deref_mut(), Phase::Rehash);
                    self.apply_allocation(&alloc, t)
                };
                // The Reconfig phase carries the simulated drain window; the
                // host-side work is already under Rehash.
                if let Some(p) = prof {
                    p.add(Phase::Reconfig, std::time::Duration::ZERO, drain);
                }
                if self.slo.enabled {
                    self.slo.applied(t, drain);
                    if let Some(tr) = self.front.trace.as_deref_mut() {
                        tr.counter("slo", "slo.reconfig_drain_ns", 0, t, drain.as_ns() as f64);
                    }
                }
            }
        }
        self.assign_epoch_samplers();
        self.acc_counts.fill(0);
    }

    /// (Re)derives the distance, attenuation, and NoC-split weight matrices
    /// from the network's current routes. Called at construction and after a
    /// chaos NoC link death or restore, so the placement signal
    /// (`attenuation` feeds Algorithm 1, exactly like `degradation()` does
    /// for the CXL link) tracks reroutes. While every link is healthy the
    /// routes equal the XY baseline and this reproduces the construction
    /// matrices bit-for-bit. The intra/inter split weights stay
    /// topology-derived — they only attribute a duration between the two
    /// NoC components.
    pub(super) fn rebuild_noc_matrices(&mut self) {
        let units_n = self.cfg.units();
        let dram_lat = self.cfg.dram_config().timing.row_empty().as_ps() as f64;
        let (intra_l, inter_l) = self.cfg.link_params();
        let mut distance = vec![0u64; units_n * units_n];
        let mut attenuation = vec![vec![1.0; units_n]; units_n];
        let mut noc_weights = vec![(0u64, 1u64); units_n * units_n];
        for (u, att) in attenuation.iter_mut().enumerate() {
            let row = u * units_n;
            for v in 0..units_n {
                let d = self.net.base_latency(UnitId(u), UnitId(v), LINE_BYTES).as_ps();
                distance[row + v] = d;
                let iw = self.cfg.topology.intra_hops(UnitId(u), UnitId(v)) as u64
                    * intra_l.hop_latency.as_ps();
                let xw = self.cfg.topology.inter_hops(UnitId(u), UnitId(v)) as u64
                    * inter_l.hop_latency.as_ps();
                noc_weights[row + v] = (iw, (iw + xw).max(1));
            }
            // Attenuation derives elementwise from the distance row:
            // computed as a second chunked pass the compiler can lower to
            // 4-wide vector divides (each lane independent, so the result
            // is bit-identical to the scalar loop).
            let mut dc = distance[row..row + units_n].chunks_exact(4);
            let mut ac = att.chunks_exact_mut(4);
            for (d4, a4) in dc.by_ref().zip(ac.by_ref()) {
                for i in 0..4 {
                    a4[i] = dram_lat / (dram_lat + d4[i] as f64);
                }
            }
            for (d, a) in dc.remainder().iter().zip(ac.into_remainder()) {
                *a = dram_lat / (dram_lat + *d as f64);
            }
        }
        self.distance = distance;
        self.attenuation = attenuation;
        self.noc_weights = noc_weights;
    }

    /// Runs the max-flow sampler assignment on this epoch's access bitvector
    /// and instantiates fresh samplers; a no-op when nothing reads them.
    pub(super) fn assign_epoch_samplers(&mut self) {
        // Only the reconfiguring policies' allocators read miss curves, at
        // epochs and at a chaos event's forced re-placement alike; the
        // static allocators (`allocate_equal`, `allocate_interleave`) never
        // do. Without a reader no sampler is built, so the access path
        // skips `observe` and epochs skip the max-flow assignment.
        if !self.cfg.policy.reconfigures() {
            return;
        }
        let units_n = self.cfg.units();
        let nothing_observed = self.acc_counts.iter().all(|&a| a == 0);
        let accessed: Vec<Vec<usize>> = if nothing_observed {
            // First epoch: no bitvectors yet. Spread streams round-robin so
            // sampling starts immediately.
            (0..units_n)
                .map(|u| (0..self.table.len()).filter(|si| si % units_n == u).collect())
                .collect()
        } else {
            (0..units_n)
                .map(|u| {
                    (0..self.table.len())
                        .filter(|&si| self.acc_counts[si * units_n + u] > 0)
                        .collect()
                })
                .collect()
        };
        let assignment = assign_samplers(&accessed, self.table.len(), self.cfg.samplers_per_unit);
        // The paper samples up to the per-unit capacity (256 MB), which
        // dwarfs any hot set. At scaled-down capacities a stream's hot set
        // can exceed one unit, so we extend the range to the global cache
        // size; storage per sampler is unchanged (k sets per case).
        let global = self.cfg.unit_capacity * units_n as u64;
        let min_cap = (global / 16384).max(self.cfg.line_bytes);
        let caps = capacity_points(min_cap, global, self.cfg.sampler_points);
        let k = self.cfg.sampler_sets;
        for si in 0..self.table.len() {
            let target = assignment.unit_for_stream[si];
            let grain = self.front.descs[si].grain;
            // Keep a warm sampler when the assignment is stable — resetting
            // the shadow sets every epoch would make short epochs look
            // cold-start-bound.
            match (&mut self.samplers[si], target) {
                (Some(slot), Some(unit)) if slot.unit == unit => slot.sampler.reset_counters(),
                (slot, Some(unit)) => {
                    // Samplers are re-created at every reassignment, so
                    // each shape's candidate index is built once per
                    // system and shared.
                    let shapes = &mut self.sampler_shapes;
                    let shape = match shapes.iter().find(|s| s.matches(&caps, grain, k)) {
                        Some(shape) => Arc::clone(shape),
                        None => {
                            let shape = Arc::new(SamplerShape::new(&caps, grain, k));
                            shapes.push(Arc::clone(&shape));
                            shape
                        }
                    };
                    *slot = Some(SamplerSlot { unit, sampler: SetSampler::with_shape(shape) });
                }
                (slot, None) => *slot = None,
            }
        }
    }
}
