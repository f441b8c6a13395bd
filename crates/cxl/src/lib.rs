//! # ndpx-cxl
//!
//! CXL.mem extended-memory model for the NDPExt reproduction.
//!
//! The paper attaches a multi-headed CXL Type-3 memory expander to the NDP
//! stacks through a central CXL controller (Fig. 1). [`ExtendedMemory`]
//! models that device: a full-duplex link with a fixed propagation latency
//! (Table II: 200 ns, 16 lanes, 11.4 pJ/bit) in front of a DDR5-4800 backend
//! from [`ndpx_mem`].
//!
//! # Examples
//!
//! ```
//! use ndpx_cxl::{CxlParams, ExtendedMemory};
//! use ndpx_sim::time::Time;
//!
//! let mut ext = ExtendedMemory::new(CxlParams::paper_default(), 1 << 30);
//! let done = ext.access(0x4000, 64, false, Time::ZERO);
//! // Two link traversals dominate: ≥ 400 ns end to end.
//! assert!(done >= Time::from_ns(400));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ndpx_mem::device::{DramConfig, DramDevice};
use ndpx_sim::energy::Energy;
use ndpx_sim::fault::FaultPlan;
use ndpx_sim::stats::{Counter, LatencyStat};
use ndpx_sim::time::Time;

/// CXL link parameters (Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CxlParams {
    /// One-way link propagation latency (excluding DRAM access).
    pub link_latency: Time,
    /// Number of lanes.
    pub lanes: u32,
    /// Serialization bandwidth per lane, bytes per nanosecond.
    pub bytes_per_ns_per_lane: f64,
    /// Link energy per bit transferred.
    pub pj_per_bit: f64,
}

impl CxlParams {
    /// The paper's default: 16 lanes, 200 ns link latency, 11.4 pJ/bit,
    /// 4 B/ns/lane (≈ 64 GB/s per direction).
    pub fn paper_default() -> Self {
        CxlParams {
            link_latency: Time::from_ns(200),
            lanes: 16,
            bytes_per_ns_per_lane: 4.0,
            pj_per_bit: 11.4,
        }
    }

    /// Same link with a different propagation latency (Fig. 8b sweeps
    /// 50–400 ns).
    pub fn with_latency(self, link_latency: Time) -> Self {
        CxlParams { link_latency, ..self }
    }

    /// Aggregate serialization bandwidth, bytes per nanosecond.
    pub fn bytes_per_ns(&self) -> f64 {
        self.bytes_per_ns_per_lane * f64::from(self.lanes)
    }

    /// Serialization delay for `bytes`.
    pub fn serialization(&self, bytes: u32) -> Time {
        Time::from_ns_f64(f64::from(bytes) / self.bytes_per_ns())
    }
}

/// Statistics for the extended memory path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CxlStats {
    /// Requests served.
    pub requests: Counter,
    /// Payload bytes moved over the link (both directions).
    pub bytes: Counter,
    /// End-to-end latency of served requests.
    pub latency: LatencyStat,
}

/// Counters for the link fault model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CxlFaultStats {
    /// CRC errors detected on the link (every detection triggers a replay
    /// attempt or, past the retry bound, a retrain).
    pub crc_errors: u64,
    /// Link-layer replay retries performed.
    pub crc_retries: u64,
    /// Link retraining events (retry bound exhausted).
    pub retrains: u64,
    /// Total time requests spent stalled behind an in-progress retrain.
    pub retrain_wait: Time,
}

/// Transient-fault model for the CXL link: CRC errors recovered by
/// link-layer replay with bounded exponential backoff; a burst that exhausts
/// the retry bound forces a link retrain, stalling the link for
/// [`retrain_stall`](CxlFault::new) and delaying every request issued while
/// the retrain is in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct CxlFault {
    plan: FaultPlan,
    /// Bit-error rate: probability of a CRC error per transferred bit.
    ber: f64,
    /// Replay attempts before the link gives up and retrains.
    max_retries: u32,
    /// Duration of a link retrain.
    retrain_stall: Time,
    /// The link is retraining (unusable) until this time.
    retrain_until: Time,
    stats: CxlFaultStats,
}

impl CxlFault {
    /// Default replay bound before a retrain.
    pub const DEFAULT_MAX_RETRIES: u32 = 4;
    /// Default retrain duration (order of the CXL spec's recovery budget).
    pub const DEFAULT_RETRAIN_STALL: Time = Time::from_us(2);

    /// Creates the model from a derived decision [`FaultPlan`] and a
    /// per-bit error rate.
    pub fn new(plan: FaultPlan, ber: f64) -> Self {
        CxlFault {
            plan,
            ber,
            max_retries: Self::DEFAULT_MAX_RETRIES,
            retrain_stall: Self::DEFAULT_RETRAIN_STALL,
            retrain_until: Time::ZERO,
            stats: CxlFaultStats::default(),
        }
    }

    /// Injection counters.
    pub fn stats(&self) -> &CxlFaultStats {
        &self.stats
    }

    /// Decisions drawn so far (pins the exact schedule length in tests).
    pub fn rolls(&self) -> u64 {
        self.plan.rolls()
    }
}

/// Counters for scheduled hard link outages (chaos plans, not the seeded
/// transient-fault model — the two compose but are independently enabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutageStats {
    /// Scheduled outage windows the link entered.
    pub outages: u64,
    /// Retry probes spent by accesses waiting out an outage.
    pub probes: u64,
    /// Total time accesses stalled behind outage windows.
    pub stall: Time,
}

/// A CXL-attached memory expander: link + DDR5 backend.
#[derive(Debug, Clone)]
pub struct ExtendedMemory {
    params: CxlParams,
    ddr: DramDevice,
    /// Next-free times of the request and response directions.
    req_free: Time,
    rsp_free: Time,
    stats: CxlStats,
    link_energy: Energy,
    fault: Option<CxlFault>,
    /// The link is hard-down (scheduled outage) until this time.
    outage_until: Time,
    outage: OutageStats,
}

/// Size of a CXL.mem request header flit, bytes.
const REQUEST_BYTES: u32 = 16;

/// Base backoff of the outage retry loop (doubles per probe).
const OUTAGE_RETRY: Time = Time::from_ns(500);

impl ExtendedMemory {
    /// Creates an expander of `capacity` bytes behind the given link.
    pub fn new(params: CxlParams, capacity: u64) -> Self {
        ExtendedMemory {
            params,
            ddr: DramDevice::new(DramConfig::ddr5_extended(capacity)),
            req_free: Time::ZERO,
            rsp_free: Time::ZERO,
            stats: CxlStats::default(),
            link_energy: Energy::ZERO,
            fault: None,
            outage_until: Time::ZERO,
            outage: OutageStats::default(),
        }
    }

    /// Installs (or clears) the link fault model.
    pub fn set_fault(&mut self, fault: Option<CxlFault>) {
        self.fault = fault;
    }

    /// The installed fault model, if any.
    pub fn fault(&self) -> Option<&CxlFault> {
        self.fault.as_ref()
    }

    /// True when a fault model is installed.
    pub fn fault_enabled(&self) -> bool {
        self.fault.is_some()
    }

    /// Takes the link hard-down until `until`: every access issued while
    /// the outage is active spins on bounded doubling retry/backoff and
    /// proceeds at its first probe past the restore. Overlapping outages
    /// extend the window.
    pub fn begin_outage(&mut self, until: Time) {
        self.outage.outages += 1;
        self.outage_until = self.outage_until.max(until);
    }

    /// True while a scheduled outage window is active at `now`.
    pub fn outage_active(&self, now: Time) -> bool {
        now < self.outage_until
    }

    /// Scheduled-outage counters.
    pub fn outage_stats(&self) -> &OutageStats {
        &self.outage
    }

    /// The link parameters.
    pub fn params(&self) -> &CxlParams {
        &self.params
    }

    /// The DDR backend (for statistics).
    pub fn ddr(&self) -> &DramDevice {
        &self.ddr
    }

    /// Performs one access of `bytes` at `addr`, issued from an NDP stack at
    /// `now`. Returns the time the response (data or write ack) arrives back.
    pub fn access(&mut self, addr: u64, bytes: u32, write: bool, now: Time) -> Time {
        let issued = now;
        // A request issued during a hard outage spins on bounded doubling
        // retry/backoff: probes fail until the restore, and the access
        // proceeds at its first probe past it. The doubling caps at 256x
        // the base (mirroring the CRC replay cap) so even a long outage's
        // first success lands close behind the restore.
        let now = if now < self.outage_until {
            let mut probe = now;
            let mut exp = 0u32;
            while probe < self.outage_until {
                probe += OUTAGE_RETRY * (1u64 << exp.min(8));
                exp += 1;
                self.outage.probes += 1;
            }
            self.outage.stall += probe - now;
            probe
        } else {
            now
        };
        // A request issued while the link is retraining waits it out.
        let now = match &mut self.fault {
            Some(f) if now < f.retrain_until => {
                f.stats.retrain_wait += f.retrain_until - now;
                f.retrain_until
            }
            _ => now,
        };
        // Request direction: header (+ data when writing).
        let req_payload = if write { REQUEST_BYTES + bytes } else { REQUEST_BYTES };
        let req_ser = self.params.serialization(req_payload);
        let req_start = now.max(self.req_free);
        self.req_free = req_start + req_ser;
        let at_device = req_start + req_ser + self.params.link_latency;

        let ddr_done = self.ddr.access(addr, bytes, write, at_device);

        // Response direction: data (+ header) for reads, ack for writes.
        let rsp_payload = if write { REQUEST_BYTES } else { REQUEST_BYTES + bytes };
        let rsp_ser = self.params.serialization(rsp_payload);
        let rsp_start = ddr_done.max(self.rsp_free);
        self.rsp_free = rsp_start + rsp_ser;
        let mut done = rsp_start + rsp_ser + self.params.link_latency;

        let moved = u64::from(req_payload + rsp_payload);
        if let Some(f) = &mut self.fault {
            let bits = moved * 8;
            // CRC covers the whole transfer: per-access error probability
            // scales with the bits moved.
            let p = (f.ber * bits as f64).min(1.0);
            // One replay = re-serializing the payload plus a round trip.
            let replay = self.params.serialization((moved).min(u64::from(u32::MAX)) as u32)
                + self.params.link_latency * 2;
            let mut attempt = 0u32;
            while f.plan.roll(p) {
                attempt += 1;
                f.stats.crc_errors += 1;
                if attempt > f.max_retries {
                    // Retry bound exhausted: the link retrains and every
                    // request issued meanwhile stalls behind it.
                    f.stats.retrains += 1;
                    f.retrain_until = done + f.retrain_stall;
                    done = f.retrain_until;
                    break;
                }
                f.stats.crc_retries += 1;
                // Replayed bits burn link energy again.
                self.link_energy += Energy::from_pj(self.params.pj_per_bit * bits as f64);
                // Bounded exponential backoff between replays.
                done += replay * (1u64 << (attempt - 1).min(8));
            }
        }
        self.stats.requests.inc();
        self.stats.bytes.add(moved);
        self.stats.latency.record(done - issued);
        self.link_energy += Energy::from_pj(self.params.pj_per_bit * moved as f64 * 8.0);
        done
    }

    /// A placement-feedback multiplier for the extended path: `1.0` on a
    /// healthy link, growing with the observed replay and retrain rates so
    /// the runtime's capacity model sees the degraded effective latency and
    /// shifts streams toward stack-local DRAM.
    pub fn degradation(&self) -> f64 {
        let req = self.stats.requests.get();
        if req == 0 {
            return 1.0;
        }
        let mut d = 1.0;
        if let Some(f) = &self.fault {
            let retry_rate = f.stats.crc_retries as f64 / req as f64;
            let retrain_rate = f.stats.retrains as f64 / req as f64;
            d += 2.0 * retry_rate + 50.0 * retrain_rate;
        }
        // Hard outages feed the same signal: accesses that had to probe a
        // dead link out-weigh transient replays.
        d += 10.0 * (self.outage.probes as f64 / req as f64);
        d
    }

    /// Publishes fault counters under `scope` (no-op without a fault model,
    /// so disabled runs keep their registry dumps byte-identical).
    pub fn register_fault_stats(&self, scope: &mut ndpx_sim::telemetry::StatScope<'_>) {
        if let Some(f) = &self.fault {
            scope.count("crc_errors", f.stats.crc_errors);
            scope.count("crc_retries", f.stats.crc_retries);
            scope.count("retrains", f.stats.retrains);
            scope.count("retrain_wait_ps", f.stats.retrain_wait.as_ps());
            scope.count("rolls", f.plan.rolls());
        }
    }

    /// Publishes scheduled-outage counters under `scope`. Callers gate this
    /// on a configured chaos plan, so chaos-off registry dumps stay
    /// byte-identical.
    pub fn register_outage_stats(&self, scope: &mut ndpx_sim::telemetry::StatScope<'_>) {
        scope.count("outages", self.outage.outages);
        scope.count("probes", self.outage.probes);
        scope.count("stall_ps", self.outage.stall.as_ps());
    }

    /// Statistics for the link.
    pub fn stats(&self) -> &CxlStats {
        &self.stats
    }

    /// Publishes port counters under `scope`, with the DDR backend nested at
    /// `…​.ddr`.
    pub fn register_stats(&self, scope: &mut ndpx_sim::telemetry::StatScope<'_>) {
        scope.count("requests", self.stats.requests.get());
        scope.count("bytes", self.stats.bytes.get());
        scope.latency("latency", &self.stats.latency);
        scope.gauge("link_pj", self.link_energy.as_pj());
        self.ddr.register_stats(&mut scope.scope("ddr"));
    }

    /// Dynamic energy: link traversal plus DDR access energy.
    pub fn dynamic_energy(&self) -> Energy {
        self.link_energy + self.ddr.dynamic_energy()
    }

    /// Link-only dynamic energy.
    pub fn link_energy(&self) -> Energy {
        self.link_energy
    }

    /// Background energy of the DDR backend over `elapsed`.
    pub fn background_energy(&self, elapsed: Time) -> Energy {
        self.ddr.background_energy(elapsed)
    }

    /// Clears link and DRAM state (statistics are preserved).
    pub fn reset_state(&mut self) {
        self.req_free = Time::ZERO;
        self.rsp_free = Time::ZERO;
        self.outage_until = Time::ZERO;
        if let Some(f) = &mut self.fault {
            f.retrain_until = Time::ZERO;
        }
        self.ddr.reset_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext() -> ExtendedMemory {
        ExtendedMemory::new(CxlParams::paper_default(), 1 << 26)
    }

    #[test]
    fn read_pays_two_link_traversals_plus_dram() {
        let mut e = ext();
        let done = e.access(0, 64, false, Time::ZERO);
        let dram = e.ddr.config().timing.row_empty();
        let ser =
            e.params.serialization(REQUEST_BYTES) + e.params.serialization(REQUEST_BYTES + 64);
        assert_eq!(done, Time::from_ns(400) + dram + ser);
    }

    #[test]
    fn latency_scales_with_link_latency() {
        let mut fast = ExtendedMemory::new(
            CxlParams::paper_default().with_latency(Time::from_ns(50)),
            1 << 26,
        );
        let mut slow = ext();
        let f = fast.access(0, 64, false, Time::ZERO);
        let s = slow.access(0, 64, false, Time::ZERO);
        assert_eq!(s - f, Time::from_ns(300));
    }

    #[test]
    fn response_direction_contends() {
        let mut e = ext();
        let a = e.access(0, 4096, false, Time::ZERO);
        let b = e.access(1 << 20, 4096, false, Time::ZERO);
        // Different DDR banks, but the 4 kB responses share the link.
        assert!(b > a);
    }

    #[test]
    fn write_moves_data_on_request_direction() {
        let mut e = ext();
        e.access(0, 64, true, Time::ZERO);
        // 16+64 request + 16 ack.
        assert_eq!(e.stats().bytes.get(), 96);
    }

    #[test]
    fn outage_stalls_accesses_behind_bounded_backoff() {
        let mut e = ext();
        e.begin_outage(Time::from_us(10));
        assert!(e.outage_active(Time::ZERO));
        assert!(!e.outage_active(Time::from_us(10)));
        let done = e.access(0, 64, false, Time::ZERO);
        // Doubling probes from the 500 ns base land at 500, 1500, 3500,
        // 7500, 15500 ns: the fifth probe is the first past the restore.
        assert_eq!(e.outage_stats().probes, 5);
        assert_eq!(e.outage_stats().stall, Time::from_ns(15_500));
        assert!(done > Time::from_us(10), "the access may not complete inside the outage");
        assert!(e.degradation() > 1.0, "outage probes must feed the placement signal");
        // After the restore the link is healthy again: no new probes.
        e.access(0, 64, false, Time::from_us(20));
        assert_eq!(e.outage_stats().probes, 5);
        assert_eq!(e.outage_stats().outages, 1);
    }

    #[test]
    fn overlapping_outages_extend_the_window() {
        let mut e = ext();
        e.begin_outage(Time::from_us(10));
        e.begin_outage(Time::from_us(5));
        assert!(e.outage_active(Time::from_us(9)));
        assert!(!e.outage_active(Time::from_us(10)));
        assert_eq!(e.outage_stats().outages, 2);
    }

    #[test]
    fn energy_matches_bytes_moved() {
        let mut e = ext();
        e.access(0, 64, false, Time::ZERO);
        let moved = (REQUEST_BYTES + REQUEST_BYTES + 64) as f64;
        assert!((e.link_energy().as_pj() - 11.4 * moved * 8.0).abs() < 1e-6);
        assert!(e.dynamic_energy() > e.link_energy());
    }

    #[test]
    fn stats_record_latency() {
        let mut e = ext();
        e.access(0, 64, false, Time::ZERO);
        assert_eq!(e.stats().requests.get(), 1);
        assert!(e.stats().latency.mean() >= Time::from_ns(400));
    }

    fn faulty(ber: f64) -> ExtendedMemory {
        use ndpx_sim::fault::{domain, FaultPlan};
        let mut e = ext();
        e.set_fault(Some(CxlFault::new(FaultPlan::derive(7, domain::CXL, 0), ber)));
        e
    }

    #[test]
    fn no_fault_model_is_the_ideal_link() {
        let mut ideal = ext();
        let mut off = ext();
        off.set_fault(None);
        assert!(!off.fault_enabled());
        assert_eq!(off.degradation(), 1.0);
        for i in 0..64 {
            let t = Time::from_ns(i * 10);
            assert_eq!(
                ideal.access(i << 8, 64, i % 3 == 0, t),
                off.access(i << 8, 64, i % 3 == 0, t)
            );
        }
    }

    #[test]
    fn zero_ber_changes_no_timing() {
        let mut ideal = ext();
        let mut f = faulty(0.0);
        for i in 0..64 {
            let t = Time::from_ns(i * 10);
            assert_eq!(ideal.access(i << 8, 64, false, t), f.access(i << 8, 64, false, t));
        }
        // Decisions were drawn but none injected.
        let stats = *f.fault().expect("installed").stats();
        assert_eq!(stats, CxlFaultStats::default());
        assert_eq!(f.fault().expect("installed").rolls(), 64);
    }

    #[test]
    fn crc_errors_retry_and_delay() {
        let mut ideal = ext();
        let mut f = faulty(1e-4); // ~7% per 64 B read: retries, no retrain streak
        let mut slower = false;
        for i in 0..2000u64 {
            let t = Time::from_ns(i * 1000);
            let a = ideal.access(i << 8, 64, false, t);
            let b = f.access(i << 8, 64, false, t);
            assert!(b >= a);
            slower |= b > a;
        }
        let stats = *f.fault().expect("installed").stats();
        assert!(slower, "no injected CRC error slowed any access");
        assert!(stats.crc_errors > 0);
        assert!(stats.crc_retries > 0);
        assert!(f.degradation() > 1.0);
    }

    #[test]
    fn retry_exhaustion_retrains_and_stalls_followers() {
        let mut f = faulty(1.0); // every roll fails: immediate retry exhaustion
        let a = f.access(0, 64, false, Time::ZERO);
        let stats = *f.fault().expect("installed").stats();
        assert_eq!(stats.retrains, 1);
        assert_eq!(stats.crc_retries, CxlFault::DEFAULT_MAX_RETRIES as u64);
        assert!(a >= CxlFault::DEFAULT_RETRAIN_STALL);
        // A request issued mid-retrain waits for the link to come back.
        f.access(1 << 20, 64, false, Time::ZERO);
        let stats = *f.fault().expect("installed").stats();
        assert!(stats.retrain_wait > Time::ZERO);
        assert!(f.degradation() > 1.0);
        // reset_state clears the retrain window.
        f.reset_state();
        assert_eq!(f.fault().map(|x| x.retrain_until), Some(Time::ZERO));
    }

    #[test]
    fn fault_stats_register_only_when_enabled() {
        use ndpx_sim::telemetry::StatRegistry;
        let mut reg = StatRegistry::new();
        ext().register_fault_stats(&mut reg.scope("fault.cxl"));
        assert!(reg.is_empty());
        let mut f = faulty(1.0);
        f.access(0, 64, false, Time::ZERO);
        f.register_fault_stats(&mut reg.scope("fault.cxl"));
        assert!(reg.get("fault.cxl.crc_errors").is_some());
        assert!(reg.get("fault.cxl.rolls").is_some());
    }
}
