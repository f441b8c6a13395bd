//! Deterministic hard-failure schedules ("chaos plans").
//!
//! [`fault`](crate::fault) models *transient* faults — CRC replays, ECC
//! scrubs, flit retransmits — drawn from a seeded per-decision hash. This
//! module models *hard* failures: whole devices or links going away at a
//! scheduled simulated time, optionally coming back after a window. The
//! schedule is parsed from a spec string (the bench harness reads it from
//! the `NDPX_CHAOS` knob) and is a pure function of that string, so chaos
//! runs replay byte-identically at any worker-thread count, exactly like
//! [`FaultPlan`](crate::fault::FaultPlan) schedules do.
//!
//! # Spec grammar
//!
//! A spec is a semicolon-separated list of events, each
//! `kind@time[+duration][:target]`:
//!
//! * `cxl-down@10us+5us` — the CXL link to extended memory goes down at
//!   t = 10 µs and restores at 15 µs; ext accesses issued meanwhile stall
//!   behind bounded doubling retry/backoff until the restore. The duration
//!   is mandatory: a permanent link-down would starve every miss to
//!   extended memory.
//! * `stack-down@20us:1` — NDP stack 1 (all of its units, cores, and DRAM
//!   ranks) dies at t = 20 µs. With `+duration` the stack restores (empty)
//!   after the window; without, the loss is permanent.
//! * `noc-down@15us:0-1` — the directed inter-stack NoC link from stack 0
//!   to stack 1 dies at t = 15 µs, forcing route recomputation. Optional
//!   `+duration` restores it.
//!
//! Times are unsigned integers with an `ns`, `us`, or `ms` suffix (a bare
//! number reads as nanoseconds). Events may be given in any order; the
//! plan applies them in simulated-time order (ties keep spec order).

use crate::time::Time;

/// What fails (and, for directed failures, where).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// The CXL link to extended memory is down for the event's window.
    CxlDown,
    /// An entire NDP stack (units, cores, DRAM) is lost.
    StackDown {
        /// Index of the stack that dies.
        stack: usize,
    },
    /// A directed inter-stack NoC link is lost.
    NocLinkDown {
        /// Source stack of the dead directed link.
        src: usize,
        /// Destination stack of the dead directed link.
        dst: usize,
    },
}

impl ChaosKind {
    /// Stable label used in logs and recovery manifests.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosKind::CxlDown => "cxl-down",
            ChaosKind::StackDown { .. } => "stack-down",
            ChaosKind::NocLinkDown { .. } => "noc-down",
        }
    }
}

/// One scheduled hard failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// What fails.
    pub kind: ChaosKind,
    /// Simulated time the failure hits.
    pub at: Time,
    /// Window length until the resource restores; `None` is permanent.
    pub duration: Option<Time>,
}

impl ChaosEvent {
    /// The restore time, if the failure is windowed.
    pub fn restore_at(&self) -> Option<Time> {
        self.duration.map(|d| self.at + d)
    }
}

/// Parsed chaos configuration. The default ([`ChaosConfig::disabled`]) has
/// no events and leaves every device on its ideal path; a populated config
/// drives the escalation machinery in `ndpx-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Scheduled failures, sorted by time (ties keep spec order).
    pub events: Vec<ChaosEvent>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl ChaosConfig {
    /// The disabled configuration: no scheduled failures.
    pub const fn disabled() -> Self {
        ChaosConfig { events: Vec::new() }
    }

    /// True when at least one failure is scheduled.
    pub fn enabled(&self) -> bool {
        !self.events.is_empty()
    }

    /// Pure parse of the spec grammar (see the module docs). `None` or an
    /// empty spec is the disabled configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed event.
    pub fn parse(spec: Option<&str>) -> Result<Self, String> {
        let mut cfg = ChaosConfig::disabled();
        let Some(spec) = spec else { return Ok(cfg) };
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            cfg.events.push(parse_event(part)?);
        }
        // Stable: simultaneous events keep their spec order.
        cfg.events.sort_by_key(|e| e.at);
        Ok(cfg)
    }

    /// Validates the schedule's internal consistency (target bounds are
    /// checked by the system config, which knows the topology).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        for e in &self.events {
            if let ChaosKind::CxlDown = e.kind {
                if e.duration.is_none() {
                    return Err("cxl-down needs a +duration (a permanent CXL outage \
                                would starve every extended-memory access)"
                        .into());
                }
            }
            if let ChaosKind::NocLinkDown { src, dst } = e.kind {
                if src == dst {
                    return Err(format!("noc-down target {src}-{dst} is a self-loop"));
                }
            }
            if e.duration == Some(Time::ZERO) {
                return Err(format!("{} at {}ps has a zero-length window", e.kind.label(), {
                    e.at.as_ps()
                }));
            }
        }
        Ok(())
    }
}

/// A runtime cursor over a [`ChaosConfig`]'s schedule: events are consumed
/// in time order, once each, as the simulation clock passes them.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
    next: usize,
}

impl ChaosPlan {
    /// A cursor at the start of `cfg`'s schedule.
    pub fn new(cfg: &ChaosConfig) -> Self {
        ChaosPlan { events: cfg.events.clone(), next: 0 }
    }

    /// Simulated time of the next unconsumed event, if any. Run loops clamp
    /// their run-ahead window to this so no batch skips past a failure.
    pub fn next_at(&self) -> Option<Time> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Consumes and returns the next event if it is due at `now`, together
    /// with its schedule index (stable event id for recovery stats).
    pub fn pop_due(&mut self, now: Time) -> Option<(usize, ChaosEvent)> {
        let e = *self.events.get(self.next)?;
        if e.at > now {
            return None;
        }
        let idx = self.next;
        self.next += 1;
        Some((idx, e))
    }

    /// Total scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Parses one `kind@time[+duration][:target]` event.
fn parse_event(part: &str) -> Result<ChaosEvent, String> {
    let (kind_str, rest) =
        part.split_once('@').ok_or_else(|| format!("event {part:?} is missing '@time'"))?;
    // Target first (it follows the time fields).
    let (times, target) = match rest.split_once(':') {
        Some((t, tgt)) => (t, Some(tgt)),
        None => (rest, None),
    };
    let (at_str, dur_str) = match times.split_once('+') {
        Some((a, d)) => (a, Some(d)),
        None => (times, None),
    };
    let at = parse_time(at_str)?;
    let duration = dur_str.map(parse_time).transpose()?;
    let kind = match kind_str.trim() {
        "cxl-down" => {
            if target.is_some() {
                return Err(format!("cxl-down takes no target, got {part:?}"));
            }
            ChaosKind::CxlDown
        }
        "stack-down" => {
            let tgt = target.ok_or_else(|| format!("stack-down needs ':stack', got {part:?}"))?;
            let stack = tgt
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("stack-down target {tgt:?} is not a stack index"))?;
            ChaosKind::StackDown { stack }
        }
        "noc-down" => {
            let tgt = target.ok_or_else(|| format!("noc-down needs ':src-dst', got {part:?}"))?;
            let (s, d) = tgt
                .split_once('-')
                .ok_or_else(|| format!("noc-down target {tgt:?} is not 'src-dst'"))?;
            let src = s
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("noc-down source {s:?} is not a stack index"))?;
            let dst = d
                .trim()
                .parse::<usize>()
                .map_err(|_| format!("noc-down destination {d:?} is not a stack index"))?;
            ChaosKind::NocLinkDown { src, dst }
        }
        other => {
            return Err(format!("unknown chaos kind {other:?} (cxl-down|stack-down|noc-down)"))
        }
    };
    Ok(ChaosEvent { kind, at, duration })
}

/// Parses an unsigned duration with an optional `ns`/`us`/`ms` suffix
/// (bare numbers read as nanoseconds).
fn parse_time(s: &str) -> Result<Time, String> {
    let s = s.trim();
    let (digits, mult_ns) = if let Some(d) = s.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = s.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = s.strip_suffix("ms") {
        (d, 1_000_000)
    } else {
        (s, 1)
    };
    let n = digits
        .trim()
        .parse::<u64>()
        .map_err(|_| format!("time {s:?} is not an unsigned integer with ns/us/ms"))?;
    Ok(Time::from_ns(n.saturating_mul(mult_ns)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &str) -> ChaosConfig {
        ChaosConfig::parse(Some(spec)).expect("valid spec")
    }

    #[test]
    fn disabled_by_default() {
        let cfg = ChaosConfig::parse(None).unwrap();
        assert!(!cfg.enabled());
        assert_eq!(cfg, ChaosConfig::disabled());
        assert!(ChaosConfig::parse(Some("  ")).unwrap().events.is_empty());
        cfg.validate().unwrap();
    }

    #[test]
    fn parses_every_kind_and_suffix() {
        let cfg = parse("cxl-down@10us+5us; stack-down@20us:1; noc-down@15000ns+1ms:0-1");
        assert_eq!(cfg.events.len(), 3);
        // Sorted by time: cxl @10us, noc @15us, stack @20us.
        assert_eq!(cfg.events[0].kind, ChaosKind::CxlDown);
        assert_eq!(cfg.events[0].at, Time::from_us(10));
        assert_eq!(cfg.events[0].restore_at(), Some(Time::from_us(15)));
        assert_eq!(cfg.events[1].kind, ChaosKind::NocLinkDown { src: 0, dst: 1 });
        assert_eq!(cfg.events[1].at, Time::from_us(15));
        assert_eq!(cfg.events[1].duration, Some(Time::from_us(1000)));
        assert_eq!(cfg.events[2].kind, ChaosKind::StackDown { stack: 1 });
        assert_eq!(cfg.events[2].duration, None);
        assert_eq!(cfg.events[2].restore_at(), None);
        cfg.validate().unwrap();
    }

    #[test]
    fn bare_numbers_read_as_nanoseconds() {
        let cfg = parse("stack-down@750:0");
        assert_eq!(cfg.events[0].at, Time::from_ns(750));
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "stack-down",            // no @time
            "stack-down@10us",       // no target
            "stack-down@10us:x",     // non-numeric target
            "noc-down@10us:3",       // not a src-dst pair
            "cxl-down@10us:1",       // cxl takes no target
            "meteor-strike@10us",    // unknown kind
            "stack-down@-3us:0",     // negative time
            "stack-down@1.5us:0",    // fractional time
            "stack-down@10parsec:0", // unknown suffix
        ] {
            assert!(ChaosConfig::parse(Some(bad)).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn validation_rejects_inconsistent_events() {
        // Permanent CXL outage.
        let cfg = parse("cxl-down@10us+5us");
        cfg.validate().unwrap();
        let mut cfg = cfg;
        cfg.events[0].duration = None;
        assert!(cfg.validate().is_err());
        // Self-loop link.
        assert!(parse("noc-down@1us:2-2").validate().is_err());
        // Zero-length window.
        assert!(parse("stack-down@1us+0ns:0").validate().is_err());
    }

    #[test]
    fn plan_consumes_events_in_time_order_once() {
        let cfg = parse("stack-down@20us:1; cxl-down@10us+5us");
        let mut plan = ChaosPlan::new(&cfg);
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.next_at(), Some(Time::from_us(10)));
        assert!(plan.pop_due(Time::from_us(9)).is_none());
        let (idx, e) = plan.pop_due(Time::from_us(10)).unwrap();
        assert_eq!((idx, e.kind), (0, ChaosKind::CxlDown));
        assert_eq!(plan.next_at(), Some(Time::from_us(20)));
        // Far-future clock drains the rest, exactly once.
        let (idx, e) = plan.pop_due(Time::from_us(1000)).unwrap();
        assert_eq!((idx, e.kind), (1, ChaosKind::StackDown { stack: 1 }));
        assert!(plan.pop_due(Time::from_us(2000)).is_none());
        assert_eq!(plan.next_at(), None);
    }

    #[test]
    fn simultaneous_events_keep_spec_order() {
        let cfg = parse("noc-down@5us:0-1; stack-down@5us:2");
        let mut plan = ChaosPlan::new(&cfg);
        let (_, first) = plan.pop_due(Time::from_us(5)).unwrap();
        let (_, second) = plan.pop_due(Time::from_us(5)).unwrap();
        assert_eq!(first.kind, ChaosKind::NocLinkDown { src: 0, dst: 1 });
        assert_eq!(second.kind, ChaosKind::StackDown { stack: 2 });
    }
}
