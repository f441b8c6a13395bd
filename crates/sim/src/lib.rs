//! # ndpx-sim
//!
//! Deterministic discrete-event simulation substrate for the NDPExt
//! reproduction.
//!
//! This crate provides the primitives shared by every architectural model in
//! the workspace:
//!
//! * [`time`] — picosecond-resolution simulated time and clock frequencies;
//! * [`engine`] — a deterministic time-ordered event queue;
//! * [`stats`] — counters, latency accumulators, and histograms;
//! * [`telemetry`] — hierarchical stat registry, Chrome-trace event export,
//!   and a levelled logging facade;
//! * [`rng`] — seeded pseudo-random generation and placement hashing;
//! * [`fault`] — deterministic, seeded fault-injection plans;
//! * [`chaos`] — scheduled hard-failure plans (device and link loss);
//! * [`knobs`] — the central registry of every `NDPX_*` environment knob.
//!
//! Everything is single-threaded and allocation-light: a simulation run is a
//! pure function of its configuration and seed.
//!
//! # Examples
//!
//! ```
//! use ndpx_sim::engine::EventQueue;
//! use ndpx_sim::stats::LatencyStat;
//! use ndpx_sim::time::Time;
//!
//! let mut queue = EventQueue::new();
//! queue.push_ranked(Time::from_ns(10), 0, "memory response");
//! let mut lat = LatencyStat::new();
//! while let Some((at, _event)) = queue.pop() {
//!     lat.record(at);
//! }
//! assert_eq!(lat.mean().as_ns(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod energy;
pub mod engine;
pub mod fastdiv;
pub mod fault;
pub mod knobs;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use chaos::{ChaosConfig, ChaosEvent, ChaosKind, ChaosPlan};
pub use energy::{Energy, Power};
pub use engine::{EventQueue, ProgressWatchdog, Stall};
pub use fault::{FaultConfig, FaultPlan};
pub use stats::{Counter, Histogram, LatencyStat, LogHistogram, MeanAcc};
pub use telemetry::{StatRegistry, TraceSink};
pub use time::{Freq, Time};
