//! # ndpx-core
//!
//! NDPExt: stream-based data placement for near-data processing with
//! extended memory — the paper's primary contribution, plus the baseline
//! NUCA policies it is evaluated against.
//!
//! * [`config`] — Table II system configurations and scale profiles;
//! * [`layout`] — the materialized stream remap table (RShares / RRowBase /
//!   RGroups) with hashed or consistent-hash placement;
//! * [`runtime`] — samplers, max-flow sampler assignment, and the
//!   configuration algorithm (Algorithm 1);
//! * [`system`] — the full NDP-with-extended-memory simulator (data plane +
//!   epoch control plane) under any [`config::PolicyKind`];
//! * [`host`] — the conventional chip-multiprocessor baseline;
//! * `driver` (private) — the event-queue run loop both systems share;
//! * [`stats`] — latency/energy breakdowns and the run report.
//!
//! # Examples
//!
//! ```no_run
//! use ndpx_core::config::{PolicyKind, SystemConfig};
//! use ndpx_core::system::NdpSystem;
//! use ndpx_workloads::trace::ScaleParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = SystemConfig::test(PolicyKind::NdpExt);
//! let params = ScaleParams { cores: cfg.units(), footprint: 8 << 20, seed: 1 };
//! let workload = ndpx_workloads::build("pr", &params).expect("known")?;
//! let report = NdpSystem::new(cfg, workload)?.run(10_000);
//! println!("{} (miss {:.2})", report.sim_time, report.miss_rate());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod desc;
mod driver;
pub mod layout;
pub mod runtime;

pub use config::{MemKind, PolicyKind, ReconfigTransfer, SystemConfig, TelemetryConfig};

pub mod stats;
pub mod system;

pub use ndpx_sim::telemetry::Phase;
pub use stats::{Breakdown, EnergyBreakdown, LatComponent, RunReport};
pub use system::NdpSystem;

pub mod host;

pub use host::{HostConfig, HostSystem};
