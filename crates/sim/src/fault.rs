//! Deterministic, seeded fault injection.
//!
//! Every fault model in the workspace (CXL CRC errors, DRAM ECC events, NoC
//! flit corruption) draws its injection decisions from a [`FaultPlan`]. A
//! plan is derived by SplitMix64 from the master seed plus a domain tag and
//! an instance index, and each decision is a pure counter-indexed hash of
//! that derived seed — never a shared sequential generator. The injection
//! schedule of a device is therefore a function of `(master seed, domain,
//! instance, decision index)` alone: bit-reproducible across runs and
//! invariant to how many harness threads (`NDPX_THREADS`) drive the sweep.
//!
//! With no master seed configured ([`FaultConfig::disabled`]), every model
//! keeps its injector as `None` and the simulated machine is the existing
//! ideal one: the fault path costs a single branch and all digests stay
//! byte-identical.

use crate::rng::{mix64, splitmix64};

/// Domain tags separating the per-subsystem decision streams.
pub mod domain {
    /// CXL link CRC errors (`crates/cxl`).
    pub const CXL: u64 = 0x4358_4C00;
    /// DRAM ECC events (`crates/mem`); instance = unit index.
    pub const MEM: u64 = 0x4D45_4D00;
    /// NoC flit corruption (`crates/noc`).
    pub const NOC: u64 = 0x4E4F_4300;
}

/// Default CXL link bit-error rate when faults are enabled.
pub const DEFAULT_CXL_BER: f64 = 1e-7;
/// Default DRAM correctable-error probability per access.
pub const DEFAULT_MEM_CE: f64 = 1e-4;
/// Default DRAM uncorrectable-error probability per access.
pub const DEFAULT_MEM_UE: f64 = 2e-6;
/// Default NoC flit-error rate per link traversal.
pub const DEFAULT_NOC_FER: f64 = 1e-5;

/// Master fault-injection configuration.
///
/// `seed: None` disables injection entirely; the models then take the exact
/// ideal code path. Rates are probabilities (per bit for the CXL link, per
/// access for DRAM, per flit for the NoC).
///
/// # Examples
///
/// ```
/// use ndpx_sim::fault::{domain, FaultConfig};
///
/// let off = FaultConfig::disabled();
/// assert!(!off.enabled());
/// assert!(off.plan(domain::CXL, 0).is_none());
///
/// let on = FaultConfig::with_seed(42);
/// let mut a = on.plan(domain::MEM, 3).expect("enabled");
/// let mut b = on.plan(domain::MEM, 3).expect("enabled");
/// assert_eq!(a.roll(0.5), b.roll(0.5)); // same schedule, every time
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed; `None` disables all injection.
    pub seed: Option<u64>,
    /// CXL link bit-error rate (probability per transferred bit).
    pub cxl_ber: f64,
    /// DRAM correctable-error probability per access.
    pub mem_ce: f64,
    /// DRAM uncorrectable-error probability per access.
    pub mem_ue: f64,
    /// NoC flit-error rate per link traversal.
    pub noc_fer: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

impl FaultConfig {
    /// Injection disabled: the ideal machine.
    pub const fn disabled() -> Self {
        FaultConfig {
            seed: None,
            cxl_ber: DEFAULT_CXL_BER,
            mem_ce: DEFAULT_MEM_CE,
            mem_ue: DEFAULT_MEM_UE,
            noc_fer: DEFAULT_NOC_FER,
        }
    }

    /// Injection enabled with `seed` and the default rates.
    pub const fn with_seed(seed: u64) -> Self {
        FaultConfig { seed: Some(seed), ..FaultConfig::disabled() }
    }

    /// True when a master seed is configured.
    pub const fn enabled(&self) -> bool {
        self.seed.is_some()
    }

    /// Derives the decision stream for `(domain, instance)`, or `None` when
    /// injection is disabled.
    pub fn plan(&self, domain: u64, instance: u64) -> Option<FaultPlan> {
        self.seed.map(|s| FaultPlan::derive(s, domain, instance))
    }

    /// Validates that every rate is a probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns the offending knob name.
    pub fn validate(&self) -> Result<(), &'static str> {
        let ok = |r: f64| r.is_finite() && (0.0..=1.0).contains(&r);
        if !ok(self.cxl_ber) {
            return Err("cxl_ber must be in [0, 1]");
        }
        if !ok(self.mem_ce) {
            return Err("mem_ce must be in [0, 1]");
        }
        if !ok(self.mem_ue) {
            return Err("mem_ue must be in [0, 1]");
        }
        if !ok(self.noc_fer) {
            return Err("noc_fer must be in [0, 1]");
        }
        Ok(())
    }
}

/// Parses a master seed: decimal (`42`) or `0x`-prefixed hex (`0x2A`),
/// surrounding space ignored.
///
/// # Errors
///
/// Anything else, so a typo cannot silently turn injection off.
pub fn parse_seed(v: &str) -> Result<u64, String> {
    let v = v.trim();
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|_| "not a seed; use a decimal or 0x-prefixed hex integer".to_string())
}

/// Parses a fault rate: a probability in `[0, 1]`.
///
/// # Errors
///
/// A value that is not a number, or is one outside `[0, 1]`.
pub fn parse_rate(v: &str) -> Result<f64, String> {
    match v.trim().parse::<f64>() {
        Ok(r) if (0.0..=1.0).contains(&r) => Ok(r),
        _ => Err("not a probability in [0, 1]".to_string()),
    }
}

/// One domain's deterministic injection decision stream.
///
/// `roll(p)` answers "does decision number `counter` inject a fault?" by
/// hashing the derived seed with the counter — no state beyond the counter,
/// so the schedule cannot depend on sibling domains, harness threads, or
/// anything else that varies between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    counter: u64,
}

impl FaultPlan {
    /// Derives the plan for `(domain, instance)` from the master seed.
    pub fn derive(master: u64, domain: u64, instance: u64) -> Self {
        let mut s = master;
        let base = splitmix64(&mut s);
        let d = base ^ mix64(domain).rotate_left(13) ^ mix64(instance).rotate_left(29);
        FaultPlan { seed: mix64(d), counter: 0 }
    }

    /// Draws the next decision: inject with probability `p`.
    ///
    /// Always consumes exactly one counter step, so a schedule is stable
    /// even across rate changes.
    #[inline]
    pub fn roll(&mut self, p: f64) -> bool {
        let draw = mix64(self.seed ^ self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.counter += 1;
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((draw >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Number of decisions drawn so far.
    ///
    /// Published to the telemetry registry so determinism checks can pin
    /// the exact decision count, not just the injected-fault tallies.
    pub fn rolls(&self) -> u64 {
        self.counter
    }

    /// The first `n` decisions of the `(master, domain, instance)` schedule
    /// at rate `p`, as a pure function — the property tests compare these
    /// against live runs.
    pub fn preview(master: u64, domain: u64, instance: u64, p: f64, n: usize) -> Vec<bool> {
        let mut plan = FaultPlan::derive(master, domain, instance);
        (0..n).map(|_| plan.roll(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_has_no_plans() {
        let cfg = FaultConfig::disabled();
        assert!(!cfg.enabled());
        assert!(cfg.plan(domain::CXL, 0).is_none());
        assert!(cfg.plan(domain::MEM, 7).is_none());
    }

    #[test]
    fn plans_are_reproducible_and_distinct() {
        let cfg = FaultConfig::with_seed(0xBEEF);
        let a = FaultPlan::preview(0xBEEF, domain::MEM, 0, 0.3, 256);
        let b = FaultPlan::preview(0xBEEF, domain::MEM, 0, 0.3, 256);
        assert_eq!(a, b);
        // Different instances and domains get different schedules.
        let c = FaultPlan::preview(0xBEEF, domain::MEM, 1, 0.3, 256);
        let d = FaultPlan::preview(0xBEEF, domain::NOC, 0, 0.3, 256);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // The live plan agrees with the pure preview.
        let mut live = cfg.plan(domain::MEM, 0).expect("enabled");
        let live_seq: Vec<bool> = (0..256).map(|_| live.roll(0.3)).collect();
        assert_eq!(live_seq, a);
        assert_eq!(live.rolls(), 256);
    }

    #[test]
    fn roll_rate_is_roughly_calibrated() {
        let mut plan = FaultPlan::derive(1, domain::CXL, 0);
        let hits = (0..100_000).filter(|_| plan.roll(0.1)).count();
        assert!((8_000..12_000).contains(&hits), "rate miscalibrated: {hits}");
    }

    #[test]
    fn roll_extremes_still_advance_counter() {
        let mut plan = FaultPlan::derive(9, domain::NOC, 0);
        assert!(!plan.roll(0.0));
        assert!(plan.roll(1.0));
        assert!(!plan.roll(-1.0));
        assert_eq!(plan.rolls(), 3);
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed("0x2A"), Ok(42));
        assert_eq!(parse_seed(" 7 "), Ok(7));
        // A typo is an error, never a silently disabled injector.
        for bad in ["nope", "", "-1", "0x", "4 2"] {
            assert!(parse_seed(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn rate_parsing_rejects_bad_values() {
        assert_eq!(parse_rate("1e-3"), Ok(1e-3));
        assert_eq!(parse_rate(" 0 "), Ok(0.0));
        assert_eq!(parse_rate("1"), Ok(1.0));
        // Out of range or not a number is an error, never the default.
        for bad in ["2.0", "2", "-1", "x", "", "NaN", "inf"] {
            assert!(parse_rate(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(FaultConfig::with_seed(1).validate().is_ok());
        let bad = FaultConfig { mem_ce: 2.0, ..FaultConfig::disabled() };
        assert!(bad.validate().is_err());
    }
}
