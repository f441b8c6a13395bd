//! Lightweight sim-phase profiler.
//!
//! A [`PhaseProfiler`] attributes wall time and simulated time to the
//! coarse phases of a run (trace generation, warmup placement, the run loop,
//! and the per-epoch sampler-solve / rehash / reconfiguration steps).
//! Phase totals land in two places with different determinism contracts:
//!
//! * the stat registry gets `profile.<phase>` nodes carrying **simulated
//!   time and counts only** — a pure function of the simulation, so registry
//!   dumps stay byte-identical across thread counts and machines;
//! * the Chrome trace sink gets `profile.<phase>.wall_us` / `.sim_us`
//!   counter tracks, where wall time is allowed because trace files are
//!   diagnostic artifacts, never compared byte-for-byte.
//!
//! Profiling is off unless a run's configuration asks for a profiler;
//! disabled runs pay one `Option` branch per phase
//! boundary — phase boundaries are per-epoch, not per-op, so the hot path
//! never sees the profiler at all.

use std::time::{Duration, Instant};

use super::registry::{StatRegistry, StatValue};
use super::trace::TraceSink;
use crate::time::Time;

/// A coarse run phase the profiler attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Synthetic trace generation / trace-cache fill (host-side, sim time 0).
    TraceGen,
    /// Initial demand collection + placement before the first event.
    Warmup,
    /// The main event loop.
    Run,
    /// Per-epoch sampler demand solve (demand collection + allocation).
    SamplerSolve,
    /// Consistent-hash rehash deciding which lines move.
    Rehash,
    /// Applying a reconfiguration: migration drain window.
    Reconfig,
}

impl Phase {
    /// Every phase, in registry order.
    pub const ALL: [Phase; 6] = [
        Phase::TraceGen,
        Phase::Warmup,
        Phase::Run,
        Phase::SamplerSolve,
        Phase::Rehash,
        Phase::Reconfig,
    ];

    /// Stable lower-case label used in registry paths and counter tracks.
    pub fn label(self) -> &'static str {
        match self {
            Phase::TraceGen => "trace_gen",
            Phase::Warmup => "warmup",
            Phase::Run => "run",
            Phase::SamplerSolve => "sampler_solve",
            Phase::Rehash => "rehash",
            Phase::Reconfig => "reconfig",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulates per-phase wall time, simulated time, and span counts.
///
/// # Examples
///
/// ```
/// use ndpx_sim::telemetry::{Phase, PhaseProfiler, ProfileSpan};
/// use ndpx_sim::time::Time;
///
/// let mut prof = PhaseProfiler::new();
/// {
///     let mut span = ProfileSpan::enter(&mut prof, Phase::Rehash);
///     span.attribute_sim(Time::from_ns(30));
/// }
/// assert_eq!(prof.count(Phase::Rehash), 1);
/// assert_eq!(prof.sim(Phase::Rehash), Time::from_ns(30));
/// ```
#[derive(Debug, Default)]
pub struct PhaseProfiler {
    wall: [Duration; 6],
    sim_ps: [u64; 6],
    count: [u64; 6],
}

impl PhaseProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes one completed span to `phase`.
    pub fn add(&mut self, phase: Phase, wall: Duration, sim: Time) {
        let i = phase.index();
        self.wall[i] += wall;
        self.sim_ps[i] = self.sim_ps[i].saturating_add(sim.as_ps());
        self.count[i] += 1;
    }

    /// Total wall time attributed to `phase`.
    pub fn wall(&self, phase: Phase) -> Duration {
        self.wall[phase.index()]
    }

    /// Total simulated time attributed to `phase`.
    pub fn sim(&self, phase: Phase) -> Time {
        Time::from_ps(self.sim_ps[phase.index()])
    }

    /// Number of spans attributed to `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.count[phase.index()]
    }

    /// Publishes `profile.<phase>` nodes for every phase that recorded at
    /// least one span. Only simulated time and span counts are published —
    /// wall time would break the registry's byte-identity contract.
    pub fn register(&self, reg: &mut StatRegistry) {
        let mut scope = reg.scope("profile");
        for phase in Phase::ALL {
            let i = phase.index();
            if self.count[i] > 0 {
                scope.publish(
                    phase.label(),
                    StatValue::Latency { total_ps: self.sim_ps[i], count: self.count[i] },
                );
            }
        }
    }

    /// Emits `profile.<phase>.wall_us` / `.sim_us` counter samples at
    /// simulated time `at` (normally the makespan, so the totals sit at the
    /// right edge of the trace) for every recorded phase.
    pub fn export_trace(&self, sink: &mut TraceSink, track: u32, at: Time) {
        for phase in Phase::ALL {
            let i = phase.index();
            if self.count[i] == 0 {
                continue;
            }
            let wall_us = self.wall[i].as_secs_f64() * 1e6;
            sink.counter(
                "profile",
                format!("profile.{}.wall_us", phase.label()),
                track,
                at,
                wall_us,
            );
            sink.counter(
                "profile",
                format!("profile.{}.sim_us", phase.label()),
                track,
                at,
                Time::from_ps(self.sim_ps[i]).as_us_f64(),
            );
        }
    }
}

/// RAII span: measures wall time from construction to drop and attributes it
/// (plus any simulated time set via [`attribute_sim`](Self::attribute_sim))
/// to a phase.
#[derive(Debug)]
pub struct ProfileSpan<'a> {
    prof: &'a mut PhaseProfiler,
    phase: Phase,
    started: Instant,
    sim: Time,
}

impl<'a> ProfileSpan<'a> {
    /// Starts a span; the wall clock runs until the span is dropped.
    pub fn enter(prof: &'a mut PhaseProfiler, phase: Phase) -> Self {
        ProfileSpan { prof, phase, started: Instant::now(), sim: Time::ZERO }
    }

    /// Starts a span against an optional profiler, the common shape at call
    /// sites where profiling is opt-in.
    pub fn enter_opt(prof: Option<&'a mut PhaseProfiler>, phase: Phase) -> Option<Self> {
        prof.map(|p| Self::enter(p, phase))
    }

    /// Sets the simulated time this span will attribute on drop.
    pub fn attribute_sim(&mut self, sim: Time) {
        self.sim = sim;
    }
}

impl Drop for ProfileSpan<'_> {
    fn drop(&mut self) {
        self.prof.add(self.phase, self.started.elapsed(), self.sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::trace::{validate_chrome_trace, TraceConfig};

    #[test]
    fn spans_accumulate_per_phase() {
        let mut prof = PhaseProfiler::new();
        prof.add(Phase::Run, Duration::from_millis(2), Time::from_ns(500));
        prof.add(Phase::Run, Duration::from_millis(1), Time::from_ns(250));
        prof.add(Phase::Rehash, Duration::ZERO, Time::ZERO);
        assert_eq!(prof.count(Phase::Run), 2);
        assert_eq!(prof.sim(Phase::Run), Time::from_ns(750));
        assert!(prof.wall(Phase::Run) >= Duration::from_millis(3));
        assert_eq!(prof.count(Phase::Warmup), 0);
    }

    #[test]
    fn registry_gets_sim_time_only_for_recorded_phases() {
        let mut prof = PhaseProfiler::new();
        prof.add(Phase::Reconfig, Duration::from_millis(9), Time::from_ns(100));
        let mut reg = StatRegistry::new();
        prof.register(&mut reg);
        let json = reg.to_json();
        assert!(json.contains("\"profile.reconfig\""));
        assert!(json.contains("\"total_ps\": 100000"));
        assert!(!json.contains("profile.run"), "unrecorded phases stay absent");
        assert!(!json.contains("wall"), "wall time must not leak into the registry");
    }

    #[test]
    fn trace_export_emits_valid_counter_tracks() {
        let mut prof = PhaseProfiler::new();
        prof.add(Phase::Run, Duration::from_millis(5), Time::from_us(2));
        let mut sink = TraceSink::new(TraceConfig::to_path("/tmp/t.json"));
        prof.export_trace(&mut sink, 0, Time::from_us(2));
        let json = sink.render_json("t");
        assert!(json.contains("profile.run.wall_us"));
        assert!(json.contains("profile.run.sim_us"));
        assert!(validate_chrome_trace(&json).is_ok());
    }

    #[test]
    fn raii_span_attributes_on_drop() {
        let mut prof = PhaseProfiler::new();
        {
            let mut span = ProfileSpan::enter(&mut prof, Phase::SamplerSolve);
            span.attribute_sim(Time::from_ns(12));
        }
        assert_eq!(prof.count(Phase::SamplerSolve), 1);
        assert_eq!(prof.sim(Phase::SamplerSolve), Time::from_ns(12));
        assert!(ProfileSpan::enter_opt(None, Phase::Run).is_none());
    }
}
