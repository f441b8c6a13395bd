//! The access hot path: L1, metadata, placement, and data legs of one
//! memory op, plus the writeback and read-only-transition side paths.

use ndpx_mem::device::EccOutcome;
use ndpx_noc::topology::UnitId;
use ndpx_sim::time::Time;
use ndpx_sim::{ndpx_trace, ndpx_warn};
use ndpx_stream::StreamId;
use ndpx_workloads::trace::MemRef;

use super::{
    NdpSystem, L1_CYCLES, LINE_BYTES, REQ_BYTES, RESTART_CYCLES, RO_TRANSITION_PENALTY, SLB_CYCLES,
    SRAM_TAG_CYCLES,
};
use crate::config::ReconfigTransfer;
use crate::desc::StreamDesc;
use crate::layout::{Group, StreamLayout};
use crate::stats::LatComponent;

impl NdpSystem {
    /// Bookkeeping of an L1 hit issued at `t`; returns its completion.
    #[inline]
    pub(super) fn l1_hit(&mut self, t: Time) -> Time {
        self.mem_ops += 1;
        self.l1_hits += 1;
        t + self.cycles(L1_CYCLES)
    }

    /// Records a memory op issued at `t` and completing at `done`.
    #[inline]
    pub(super) fn record_access(&mut self, core: usize, t: Time, done: Time) {
        let lat = done.saturating_sub(t);
        self.access_latency.record(lat);
        self.slo.record(lat);
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.complete("engine", "mem_op", core as u32, t, lat);
        }
    }

    pub(super) fn cycles(&self, n: u64) -> Time {
        self.cfg.core_freq.cycles_to_time(n)
    }

    /// Index into the flat stream-major `(stream × unit)` matrices
    /// (`tags`, `acc_counts`, `acc_history`).
    #[inline]
    fn su(&self, si: usize, unit: usize) -> usize {
        si * self.l1s.len() + unit
    }

    /// Splits a NoC duration between the intra/inter components by the
    /// uncontended hop-time ratio (weights precomputed per unit pair).
    fn charge_noc(&mut self, src: usize, dst: usize, dur: Time) {
        if dur.is_zero() || src == dst {
            return;
        }
        if self.trace_noc {
            Self::trace_slow_leg(src, dst, dur);
        }
        let (iw, total_w) = self.noc_weights[src * self.l1s.len() + dst];
        let intra_part = Time::from_ps(dur.as_ps() * iw / total_w);
        self.breakdown.add(LatComponent::NocIntra, intra_part);
        self.breakdown.add(LatComponent::NocInter, dur - intra_part);
    }

    #[cold]
    fn trace_slow_leg(src: usize, dst: usize, dur: Time) {
        if dur > Time::from_ns(500) {
            ndpx_trace!("slow noc leg {src}->{dst}: {dur}");
        }
    }

    #[cold]
    fn trace_msg(kind: &str, unit: usize, port: usize, t: Time) {
        ndpx_trace!("msg {kind} {unit}->{port} at {t}");
    }

    /// The CXL port unit of `unit`'s stack (multi-headed device: one head
    /// per stack at local index 0).
    fn port_of(&self, unit: usize) -> usize {
        self.net.stack_of(UnitId(unit)) * self.cfg.topology.units_per_stack()
    }

    /// Accesses extended memory from `unit` at `t`; returns the response
    /// time at `unit`. NoC legs are charged to the NoC components, the CXL
    /// round trip to `ExtMem`.
    fn ext_access(&mut self, unit: usize, addr: u64, bytes: u32, write: bool, t: Time) -> Time {
        let port = self.port_of(unit);
        if self.trace_noc {
            Self::trace_msg("ext_req", unit, port, t);
        }
        let t1 = self.net.send(UnitId(unit), UnitId(port), REQ_BYTES, t);
        self.charge_noc(unit, port, t1 - t);
        let t2 = self.ext.access(addr, bytes, write, t1);
        self.breakdown.add(LatComponent::ExtMem, t2 - t1);
        let t3 = self.net.send(UnitId(port), UnitId(unit), bytes.max(REQ_BYTES), t2);
        self.charge_noc(port, unit, t3 - t2);
        if let Some(tr) = self.trace.as_deref_mut() {
            tr.complete("noc", "ext_req", unit as u32, t, t1 - t);
            tr.complete("cxl", "ext_access", port as u32, t1, t2 - t1);
            tr.complete("noc", "ext_rsp", port as u32, t2, t3 - t2);
        }
        t3
    }

    /// Non-blocking extended-memory write (writebacks): reserves resources
    /// without delaying the caller.
    fn ext_writeback(&mut self, unit: usize, addr: u64, bytes: u32, t: Time) {
        let port = self.port_of(unit);
        if self.trace_noc {
            Self::trace_msg("ext_wb", unit, port, t);
        }
        let t1 = self.net.send(UnitId(unit), UnitId(port), bytes.max(REQ_BYTES), t);
        self.ext.access(addr, bytes, true, t1);
    }

    pub(super) fn process_raw(&mut self, core: usize, addr: u64, write: bool, t: Time) -> Time {
        let line = self.line_div.div(addr);
        if self.l1s[core].access(line, write).is_hit() {
            return self.l1_hit(t);
        }
        self.mem_ops += 1;
        let t = t + self.cycles(L1_CYCLES);
        self.breakdown.add(LatComponent::CoreL1, self.cycles(L1_CYCLES));
        // Not a stream: bypass the DRAM cache (§IV-C).
        self.bypass += 1;
        let done = self.ext_access(core, addr, LINE_BYTES, write, t);
        done + self.cycles(RESTART_CYCLES)
    }

    /// One memory op. The body is only the slim L1 probe — the common
    /// L1-hit case returns after a cache lookup and two counter bumps, and
    /// inlines into the run loop's batch so a hit never pays a call or the
    /// general dispatch below. Everything past the L1 lives out-of-line in
    /// [`process_mem_miss`](Self::process_mem_miss), in exactly the
    /// historical order (so the split cannot move a single shared-state
    /// mutation).
    #[inline]
    pub(super) fn process_mem(&mut self, core: usize, m: MemRef, t: Time) -> Time {
        let addr = self.descs[m.sid.index()].addr_of_elem(m.elem);

        // L1.
        let line = self.line_div.div(addr);
        match self.l1s[core].access(line, m.write) {
            ndpx_cache::setassoc::Outcome::Hit => self.l1_hit(t),
            ndpx_cache::setassoc::Outcome::Miss { evicted } => {
                self.mem_ops += 1;
                // Copy out the cached descriptor only on the miss path:
                // everything it needs (grain, key math, fetch size)
                // without re-consulting the table, while the dominant hit
                // path above stays copy-free.
                let desc = self.descs[m.sid.index()];
                let now = t + self.cycles(L1_CYCLES);
                self.process_mem_miss(core, m, desc, addr, evicted, now)
            }
        }
    }

    /// The post-L1 continuation of [`process_mem`](Self::process_mem):
    /// metadata, placement, and data paths.
    #[inline(never)]
    fn process_mem_miss(
        &mut self,
        core: usize,
        m: MemRef,
        desc: StreamDesc,
        addr: u64,
        evicted: Option<(u64, bool)>,
        mut now: Time,
    ) -> Time {
        self.breakdown.add(LatComponent::CoreL1, self.cycles(L1_CYCLES));
        if let Some((victim_line, true)) = evicted {
            // Dirty L1 writeback: fire-and-forget store into the
            // cache hierarchy.
            let victim_addr = victim_line * self.cfg.line_bytes;
            self.writeback_line(core, victim_addr, now);
        }

        // Epoch accounting + sampling happen at DRAM-cache level.
        let key = desc.key_of(m.elem, addr);
        let su = self.su(m.sid.index(), core);
        self.acc_counts[su] += 1;
        if let Some(slot) = &mut self.samplers[m.sid.index()] {
            // The sampler monitors sets of the distributed cache, which see
            // the whole system's (hashed) access mix — not just accesses
            // issued by the sampler's own unit (§V-A: sampled misses are
            // scaled by K/k over the stream's *total* sets).
            slot.sampler.observe(key);
        }

        // Read-only → read-write transition (§IV-B).
        if m.write && self.table.get(m.sid).read_only && self.table.mark_written(m.sid) {
            now += self.handle_ro_transition(m.sid);
        }

        // Metadata path.
        let sid_i = m.sid.index();
        let located = self.layouts[sid_i].locate(core, key);
        if self.cfg.policy.is_stream_grain() {
            now += self.cycles(SLB_CYCLES);
            self.breakdown.add(LatComponent::Metadata, self.cycles(SLB_CYCLES));
            if !self.slbs[core].access(sid_i as u64, false).is_hit() {
                self.slb_misses += 1;
                now += self.cfg.slb_miss_penalty;
                self.breakdown.add(LatComponent::Metadata, self.cfg.slb_miss_penalty);
            }
        } else {
            now += self.cycles(SRAM_TAG_CYCLES);
            self.breakdown.add(LatComponent::Metadata, self.cycles(SRAM_TAG_CYCLES));
            let region = self.meta_div.div(addr);
            if !self.metas[core].access(region, false).is_hit() {
                // In-DRAM tag read at the line's home unit.
                self.metadata_dram += 1;
                if let Some((home, slot)) = located {
                    let t1 = self.net.send(UnitId(core), UnitId(home), REQ_BYTES, now);
                    let daddr = self.layouts[sid_i].slot_addr(home, slot);
                    let t2 = self.drams[home].access(daddr, LINE_BYTES, false, t1);
                    let t3 = self.net.send(UnitId(home), UnitId(core), LINE_BYTES, t2);
                    self.breakdown.add(LatComponent::Metadata, t3 - now);
                    now = t3;
                }
            }
        }

        // Data path.
        let Some((target, slot)) = located else {
            // Stream has no cache capacity: serve from extended memory.
            self.cache_misses += 1;
            let done = self.ext_access(core, addr, desc.fetch_bytes, m.write, now);
            return done + self.cycles(RESTART_CYCLES);
        };

        // Route to the serving unit.
        let t_req = self.net.send(UnitId(core), UnitId(target), REQ_BYTES, now);
        self.charge_noc(core, target, t_req - now);
        now = t_req;

        let affine_stream = desc.affine;
        let stream_grain = self.cfg.policy.is_stream_grain();
        let grain = desc.grain;
        let daddr = self.layouts[sid_i].slot_addr(target, slot);
        let tag_at = self.su(sid_i, target);

        // Set when a data-path DRAM read returns uncorrectable (poisoned)
        // ECC data; a poisoned hit aborts the stream's cached copy at the
        // serving unit and refetches from extended memory.
        let mut poisoned = false;
        let outcome = if stream_grain && affine_stream {
            // ATA probe (SRAM) decides before touching DRAM.
            let tag_lat = self.cycles(SRAM_TAG_CYCLES);
            now += tag_lat;
            self.breakdown.add(LatComponent::Metadata, tag_lat);
            let tags = self.tags[tag_at].as_mut().expect("located implies allocated");
            tags.access(slot, key, m.write)
        } else if stream_grain {
            // Indirect: one DRAM access returns tag + data.
            let (t2, ecc) = self.drams[target].access_checked(daddr, LINE_BYTES, m.write, now);
            poisoned = ecc == EccOutcome::Poisoned;
            self.breakdown.add(LatComponent::DramCache, t2 - now);
            now = t2;
            let tags = self.tags[tag_at].as_mut().expect("allocated");
            tags.access(slot, key, m.write)
        } else {
            // Line grain: tag state came with the metadata read.
            let tags = self.tags[tag_at].as_mut().expect("located implies allocated");
            tags.access(slot, key, m.write)
        };

        let hit = outcome.is_hit();
        if let ndpx_cache::setassoc::Outcome::Miss { evicted: Some((victim, true)) } = outcome {
            // Dirty victim: write back to extended memory.
            let vaddr = desc.addr_of_key(victim);
            self.ext_writeback(target, vaddr, grain.min(u64::from(u32::MAX)) as u32, now);
        }

        if hit {
            self.cache_hits += 1;
            if target == core {
                self.local_hits += 1;
            }
            // Stream-grain indirect hits are served straight from the
            // element slot; everything else pays the DRAM-cache row access.
            if !stream_grain || affine_stream {
                let (t2, ecc) = self.drams[target].access_checked(daddr, LINE_BYTES, m.write, now);
                poisoned = ecc == EccOutcome::Poisoned;
                self.breakdown.add(LatComponent::DramCache, t2 - now);
                if let Some(tr) = self.trace.as_deref_mut() {
                    tr.complete("dram", "cache_hit", target as u32, now, t2 - now);
                }
                now = t2;
            }
            if poisoned {
                now = self.abort_poisoned_stream(m.sid, target, &desc, key, daddr, now);
            }
        } else {
            self.cache_misses += 1;
            let fetch = desc.fetch_bytes;
            let base_addr = desc.addr_of_key(key);
            let done = self.ext_access(target, base_addr, fetch, false, now);
            now = done;
            // Install into the DRAM cache without blocking the response.
            self.drams[target].access(daddr, fetch, true, now);
        }

        // Data response back to the requester.
        let t_rsp = self.net.send(UnitId(target), UnitId(core), LINE_BYTES, now);
        self.charge_noc(target, core, t_rsp - now);
        t_rsp + self.cycles(RESTART_CYCLES)
    }

    /// Uncorrectable ECC data came back from a stream's DRAM-cache copy at
    /// `unit`: poison the stream, drop its cached replica there (every
    /// resident line is untrusted once the array has returned poison), and
    /// refetch the requested element from extended memory.
    fn abort_poisoned_stream(
        &mut self,
        sid: StreamId,
        unit: usize,
        desc: &StreamDesc,
        key: u64,
        daddr: u64,
        now: Time,
    ) -> Time {
        self.stream_aborts += 1;
        if self.table.mark_poisoned(sid) {
            ndpx_warn!(
                "uncorrectable ECC poison on stream {} at unit {unit}: aborting cached copy",
                sid.index()
            );
        }
        let tag_at = self.su(sid.index(), unit);
        if let Some(tags) = self.tags[tag_at].as_mut() {
            let (valid, _) = tags.invalidate_all();
            self.invalidations += valid;
        }
        let done = self.ext_access(unit, desc.addr_of_key(key), desc.fetch_bytes, false, now);
        // Reinstall the clean copy without blocking the response.
        self.drams[unit].access(daddr, desc.fetch_bytes, true, done);
        done
    }

    /// Fire-and-forget store of an evicted dirty L1 line into the hierarchy.
    fn writeback_line(&mut self, core: usize, addr: u64, t: Time) {
        let Some((sid, elem)) = self.table.lookup(addr) else {
            self.ext_writeback(core, addr, LINE_BYTES, t);
            return;
        };
        let key = self.descs[sid.index()].key_of(elem, addr);
        let sid_i = sid.index();
        if let Some((target, slot)) = self.layouts[sid_i].locate(core, key) {
            let t1 = self.net.send(UnitId(core), UnitId(target), LINE_BYTES, t);
            let daddr = self.layouts[sid_i].slot_addr(target, slot);
            let tag_at = self.su(sid_i, target);
            if let Some(tags) = self.tags[tag_at].as_mut() {
                if tags.probe(slot, key) {
                    tags.access(slot, key, true);
                    self.drams[target].access(daddr, LINE_BYTES, true, t1);
                    return;
                }
            }
            self.ext_writeback(target, addr, LINE_BYTES, t1);
        } else {
            self.ext_writeback(core, addr, LINE_BYTES, t);
        }
    }

    /// Collapses a stream's replication groups into one on the first write.
    fn handle_ro_transition(&mut self, sid: StreamId) -> Time {
        let sid_i = sid.index();
        if self.layouts[sid_i].groups.len() <= 1 {
            return Time::ZERO;
        }
        // Invalidate every cached copy (clean by construction: no writebacks
        // needed, §IV-B). The stream's tag arrays are one contiguous row of
        // the flat stream-major matrix.
        let units_n = self.cfg.units();
        let mut invalidated = 0;
        for slot in &mut self.tags[sid_i * units_n..(sid_i + 1) * units_n] {
            if let Some(tags) = slot.as_mut() {
                let (valid, _) = tags.invalidate_all();
                invalidated += valid;
            }
        }
        self.invalidations += invalidated;
        // Merge all groups: per-unit shares summed, one group.
        let mut shares = vec![0u64; units_n];
        for g in &self.layouts[sid_i].groups {
            for (total, &s) in shares.iter_mut().zip(&g.shares) {
                *total += s;
            }
        }
        let consistent = self.cfg.transfer == ReconfigTransfer::ConsistentHash;
        let grain = self.layouts[sid_i].grain;
        let mut layout = StreamLayout::empty(units_n, grain);
        layout.unit_base = self.layouts[sid_i].unit_base.clone();
        layout.groups.push(Group::new(shares, consistent));
        layout.finalize_offsets(units_n);
        let dist = &self.distance;
        layout.assign_nearest(units_n, |a, b| dist[a * units_n + b]);
        self.layouts[sid_i] = layout;
        RO_TRANSITION_PENALTY
    }
}
