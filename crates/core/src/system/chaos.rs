//! Hard-failure escalation (`cfg.chaos`): scheduled stack, link, and CXL
//! outages, their restores, forced re-placement, and the `chaos.*` and
//! `fault.recovery.*` stats.

use ndpx_sim::chaos::{ChaosEvent, ChaosKind, ChaosPlan};
use ndpx_sim::telemetry::StatRegistry;
use ndpx_sim::time::Time;
use ndpx_sim::{ndpx_info, ndpx_warn};
use ndpx_stream::StreamId;

use super::NdpSystem;
use crate::layout::StreamLayout;

/// Per-event recovery record (`fault.recovery.e##.*`). `applied` guards
/// registration: events the run never reached publish nothing.
#[derive(Debug, Clone, Default)]
struct RecoveryRecord {
    applied: bool,
    /// Simulated time the failure hit.
    at: Time,
    /// Time-to-recover: from the failure hitting until the escalation
    /// completed — the forced re-placement's migration drain for permanent
    /// losses, the full loss window plus the restore's drain for windowed
    /// ones, the outage window for CXL link-down.
    ttr: Time,
    /// Streams whose cached data the event destroyed (poisoned and
    /// re-placed on the survivors).
    streams_migrated: u64,
    /// Trace ops aborted on the dead cores.
    ops_aborted: u64,
}

/// Chaos escalation state; allocated only when the configuration schedules
/// at least one hard failure, so chaos-off runs keep every hot path's ideal
/// shape.
#[derive(Debug)]
pub(super) struct ChaosState {
    plan: ChaosPlan,
    /// Pending restores of windowed failures, sorted by (time, event id).
    restores: Vec<(Time, usize, ChaosKind)>,
    /// Per-unit death mask, mirrored into [`ConfigCtx::dead`] so the
    /// placement algorithms see zero capacity on lost stacks.
    pub(super) dead_units: Vec<bool>,
    records: Vec<RecoveryRecord>,
    applied: u64,
    restored: u64,
    ops_aborted: u64,
    streams_poisoned: u64,
    forced_reconfigs: u64,
    /// Integral of the dead-unit count over sim time (unit·ps), feeding the
    /// availability gauge.
    dead_unit_ps: u64,
    /// When the death mask last changed (closes the integral).
    mask_changed: Time,
}

impl ChaosState {
    pub(super) fn new(plan: ChaosPlan, units: usize) -> Self {
        ChaosState {
            records: vec![RecoveryRecord::default(); plan.len()],
            plan,
            restores: Vec::new(),
            dead_units: vec![false; units],
            applied: 0,
            restored: 0,
            ops_aborted: 0,
            streams_poisoned: 0,
            forced_reconfigs: 0,
            dead_unit_ps: 0,
            mask_changed: Time::ZERO,
        }
    }

    fn dead_count(&self) -> u64 {
        self.dead_units.iter().filter(|&&d| d).count() as u64
    }

    /// Closes the dead-unit integral at `now`; call before mutating the
    /// death mask.
    fn integrate_to(&mut self, now: Time) {
        let span = now.saturating_sub(self.mask_changed);
        self.dead_unit_ps += self.dead_count() * span.as_ps();
        self.mask_changed = now;
    }

    /// Fraction of unit·time lost to dead units up to `now` (0.0 healthy).
    fn unavailability(&self, now: Time) -> f64 {
        let denom = (self.dead_units.len() as u64).saturating_mul(now.as_ps());
        if denom == 0 {
            return 0.0;
        }
        let open = self.dead_count() * now.saturating_sub(self.mask_changed).as_ps();
        (self.dead_unit_ps + open) as f64 / denom as f64
    }
}

impl NdpSystem {
    /// Earliest unconsumed chaos boundary — next scheduled failure or
    /// pending restore. Run-ahead windows clamp to it so no batch skips one.
    pub(super) fn chaos_next_at(&self) -> Option<Time> {
        let cs = self.chaos.as_deref()?;
        let event = cs.plan.next_at();
        let restore = cs.restores.first().map(|r| r.0);
        match (event, restore) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn chaos_mut(&mut self) -> &mut ChaosState {
        self.chaos.as_deref_mut().expect("chaos state engaged")
    }

    /// Applies the single earliest chaos boundary due at `now`. Restores win
    /// ties against new failures (capacity comes back before more is taken
    /// away); the run loop re-polls until nothing is due, so simultaneous
    /// boundaries apply in a deterministic order at any thread count.
    pub(super) fn apply_next_chaos(&mut self, now: Time, remaining: &mut [u64]) {
        enum Due {
            Restore(Time, usize, ChaosKind),
            Event(usize, ChaosEvent),
        }
        let due = {
            let Some(cs) = self.chaos.as_deref_mut() else { return };
            let restore_due = cs.restores.first().map(|r| r.0).filter(|&r| r <= now);
            let event_due = cs.plan.next_at().filter(|&e| e <= now);
            match (restore_due, event_due) {
                (Some(r), Some(e)) if e < r => {
                    let (idx, ev) = cs.plan.pop_due(now).expect("event due");
                    Due::Event(idx, ev)
                }
                (Some(_), _) => {
                    let (at, idx, kind) = cs.restores.remove(0);
                    Due::Restore(at, idx, kind)
                }
                (None, Some(_)) => {
                    let (idx, ev) = cs.plan.pop_due(now).expect("event due");
                    Due::Event(idx, ev)
                }
                (None, None) => return,
            }
        };
        match due {
            Due::Restore(at, idx, kind) => self.apply_chaos_restore(idx, kind, at),
            Due::Event(idx, ev) => self.apply_chaos_event(idx, ev, remaining),
        }
    }

    /// Escalates one scheduled hard failure through the existing recovery
    /// machinery: poison → re-fetch, capacity zeroing → re-placement on the
    /// survivors, epoch-style reconfiguration → migration drain.
    fn apply_chaos_event(&mut self, idx: usize, e: ChaosEvent, remaining: &mut [u64]) {
        let at = e.at;
        ndpx_warn!("chaos: {} hits at {at}", e.kind.label());
        match e.kind {
            ChaosKind::CxlDown => {
                let restore = e.restore_at().expect("validated: cxl-down is windowed");
                // Ext accesses stall behind bounded retry probes until the
                // link restores; the outage expires inside `ExtendedMemory`,
                // so no scheduled restore is queued here.
                self.ext.begin_outage(restore);
                let cs = self.chaos_mut();
                cs.applied += 1;
                let r = &mut cs.records[idx];
                r.applied = true;
                r.at = at;
                r.ttr = restore.saturating_sub(at);
            }
            ChaosKind::StackDown { stack } => {
                let units_n = self.cfg.units();
                let ups = self.cfg.topology.units_per_stack();
                let (lo, hi) = (stack * ups, (stack + 1) * ups);
                // The stack's DRAM ranks go dark: every cached line on them
                // is lost, so every stream resident there is poisoned and
                // re-fetches from extended memory (the same escalation path
                // an uncorrectable ECC error takes).
                let resident: Vec<StreamId> = (0..self.table.len())
                    .filter(|&si| {
                        self.layouts[si]
                            .groups
                            .iter()
                            .any(|g| g.shares[lo..hi].iter().any(|&s| s > 0))
                    })
                    .map(|si| StreamId(si as u16))
                    .collect();
                let poisoned = self.table.mark_poisoned_many(resident.iter().copied());
                self.chaos_mut().integrate_to(at);
                let mut invalidated = 0u64;
                let mut aborted = 0u64;
                // `u` indexes four parallel arrays; an iterator over just
                // `remaining` would obscure that.
                #[allow(clippy::needless_range_loop)]
                for u in lo..hi {
                    self.drams[u].set_offline(at);
                    for si in 0..self.table.len() {
                        let slot = si * units_n + u;
                        if let Some(tags) = self.tags[slot].as_mut() {
                            let (valid, _) = tags.invalidate_all();
                            invalidated += valid;
                        }
                        self.tags[slot] = None;
                        // Dead units stop contributing demand: their access
                        // history would otherwise keep attracting capacity.
                        self.acc_counts[slot] = 0;
                        self.acc_history[slot] = 0;
                    }
                    // Abort the dead cores' remaining trace ops; in-flight
                    // work on a lost stack cannot be replayed.
                    aborted += remaining[u];
                    remaining[u] = 0;
                    self.chaos_mut().dead_units[u] = true;
                }
                self.invalidations += invalidated;
                // Zero capacity plus poisoned streams: the forced
                // re-placement moves everything onto the survivors.
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.applied += 1;
                cs.ops_aborted += aborted;
                cs.streams_poisoned += poisoned;
                let r = &mut cs.records[idx];
                r.applied = true;
                r.at = at;
                r.ttr = drain;
                r.streams_migrated = resident.len() as u64;
                r.ops_aborted = aborted;
                if let Some(restore) = e.restore_at() {
                    self.chaos_schedule_restore(restore, idx, e.kind);
                }
            }
            ChaosKind::NocLinkDown { src, dst } => {
                let killed = self.net.set_link_dead(src, dst, true);
                debug_assert!(killed, "validated: grid-adjacent stacks");
                // Deterministic reroute, then refreshed distance/attenuation
                // matrices feed the placement algorithm the escalated path
                // costs — the same signal shape as `degradation()`.
                self.rebuild_noc_matrices();
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.applied += 1;
                let r = &mut cs.records[idx];
                r.applied = true;
                r.at = at;
                r.ttr = drain;
                if let Some(restore) = e.restore_at() {
                    self.chaos_schedule_restore(restore, idx, e.kind);
                }
            }
        }
    }

    /// Applies a windowed failure's restore: the resource returns (empty)
    /// and a forced re-placement spreads capacity back over it. The record's
    /// time-to-recover widens to cover the whole loss window plus the
    /// restore's own drain.
    fn apply_chaos_restore(&mut self, idx: usize, kind: ChaosKind, at: Time) {
        ndpx_info!("chaos: {} restores at {at}", kind.label());
        match kind {
            // CXL outages expire inside `ExtendedMemory`; nothing is queued.
            ChaosKind::CxlDown => {}
            ChaosKind::StackDown { stack } => {
                let ups = self.cfg.topology.units_per_stack();
                let (lo, hi) = (stack * ups, (stack + 1) * ups);
                self.chaos_mut().integrate_to(at);
                for u in lo..hi {
                    self.drams[u].set_online(at);
                    self.chaos_mut().dead_units[u] = false;
                }
                // The dead cores' traces were aborted, not suspended: the
                // restored stack returns as cache capacity only.
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.restored += 1;
                let r = &mut cs.records[idx];
                r.ttr = (at + drain).saturating_sub(r.at);
            }
            ChaosKind::NocLinkDown { src, dst } => {
                self.net.set_link_dead(src, dst, false);
                self.rebuild_noc_matrices();
                let drain = self.force_reconfigure(at);
                let cs = self.chaos_mut();
                cs.restored += 1;
                let r = &mut cs.records[idx];
                r.ttr = (at + drain).saturating_sub(r.at);
            }
        }
    }

    /// Queues a windowed failure's restore, keeping the queue sorted by
    /// (time, event id) so simultaneous restores apply in schedule order.
    fn chaos_schedule_restore(&mut self, at: Time, idx: usize, kind: ChaosKind) {
        let cs = self.chaos_mut();
        cs.restores.push((at, idx, kind));
        cs.restores.sort_by_key(|&(t, i, _)| (t, i));
    }

    /// Chaos escalation: re-runs the configuration algorithm immediately,
    /// bypassing both the moved-bytes hysteresis threshold and the
    /// `max_reconfigs` budget — after a hard failure the placement *must*
    /// move off the dead resources. Cached state drains through the same
    /// `apply_allocation` path as an epoch reconfiguration. Returns the
    /// migration drain span.
    fn force_reconfigure(&mut self, t: Time) -> Time {
        self.reconfigs += 1;
        self.chaos_mut().forced_reconfigs += 1;
        let alloc = self.allocate();
        let drain = self.apply_allocation(&alloc, t);
        if self.slo.enabled {
            self.slo.applied(t, drain);
        }
        drain
    }

    /// With chaos active, a hysteresis-kept layout must hold zero shares on
    /// dead units. Trivially true when chaos is off (healthy path keeps its
    /// exact historical shape).
    pub(super) fn chaos_layout_clean(&self, layout: &StreamLayout) -> bool {
        match self.chaos.as_deref() {
            None => true,
            Some(cs) => layout
                .groups
                .iter()
                .all(|g| g.shares.iter().zip(&cs.dead_units).all(|(&s, &dead)| s == 0 || !dead)),
        }
    }

    /// Streams whose current layout still holds capacity on a dead unit —
    /// the acceptance gate: zero after a stack-down escalates.
    fn dead_resident_streams(&self) -> u64 {
        let Some(cs) = self.chaos.as_deref() else { return 0 };
        self.layouts
            .iter()
            .filter(|l| {
                l.groups
                    .iter()
                    .any(|g| g.shares.iter().zip(&cs.dead_units).any(|(&s, &dead)| dead && s > 0))
            })
            .count() as u64
    }

    /// Publishes the `chaos.*` scope and the per-event `fault.recovery.*`
    /// records when a hard-failure schedule is configured; completely absent
    /// otherwise, so chaos-off registry dumps stay byte-identical.
    pub(super) fn register_chaos_scope(&self, registry: &mut StatRegistry, now: Time) {
        let Some(cs) = self.chaos.as_deref() else { return };
        {
            let mut chaos = registry.scope("chaos");
            chaos.count("events", cs.plan.len() as u64);
            chaos.count("applied", cs.applied);
            chaos.count("restores", cs.restored);
            chaos.count("ops_aborted", cs.ops_aborted);
            chaos.count("streams_poisoned", cs.streams_poisoned);
            chaos.count("forced_reconfigs", cs.forced_reconfigs);
            chaos.count("dead_units", cs.dead_count());
            chaos.count("dead_links", self.net.dead_link_count());
            chaos.count("dead_resident_streams", self.dead_resident_streams());
            chaos.gauge("availability", 1.0 - cs.unavailability(now));
            self.ext.register_outage_stats(&mut chaos.scope("cxl"));
        }
        // Per-event recovery SLOs. The registry is a flat path map, so this
        // `fault.` prefix merges cleanly with the transient-fault scope when
        // both are active.
        let mut fault = registry.scope("fault");
        let mut rec = fault.scope("recovery");
        for (i, r) in cs.records.iter().enumerate() {
            if !r.applied {
                continue;
            }
            let mut e = rec.scope(&format!("e{i:02}"));
            e.count("at_ps", r.at.as_ps());
            e.count("ttr_ps", r.ttr.as_ps());
            e.count("streams_migrated", r.streams_migrated);
            e.count("ops_aborted", r.ops_aborted);
        }
    }
}
