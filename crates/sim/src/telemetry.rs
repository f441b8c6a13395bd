//! Full-stack telemetry: hierarchical stat registry, windowed metric
//! timelines, a sim-phase profiler, Chrome-trace event export, and a
//! levelled logging facade.
//!
//! The pieces are independent but share one design rule: **nothing here
//! may perturb simulation results**. Stats are read out of the models after a
//! run completes, timeline snapshots and traces are keyed to simulated
//! timestamps only, and the log facade defaults to warnings-only so default
//! runs stay silent.
//!
//! * [`registry`] — [`StatRegistry`]: subsystems publish named
//!   `Counter`/`MeanAcc`/`Histogram` nodes under hierarchical dotted paths
//!   (`noc.link.s00-s01.flits`), serialized deterministically to JSON.
//! * [`timeline`] — [`TimelineSampler`]: opt-in registry snapshots in fixed
//!   sim-time windows rendered as per-window delta series; byte-identical at
//!   any thread count.
//! * [`profile`] — [`PhaseProfiler`]: per-phase wall/sim time attribution
//!   (trace-gen, warmup, run, sampler-solve, rehash, reconfig); sim time
//!   goes to the registry, wall time to the trace.
//! * [`trace`] — [`TraceSink`]: an opt-in bounded ring buffer of simulation
//!   events written as Chrome trace-event JSON (loadable in Perfetto or
//!   `chrome://tracing`).
//! * [`json`] — [`Json`]: the dependency-free JSON parser backing the trace
//!   validator and the `ndpx_report` run-diff tool.
//! * [`log`] — a tiny levelled `eprintln!` switchboard (`NDPX_LOG=debug`)
//!   replacing ad-hoc debug prints in the system models.
//!
//! A run attaches the timeline, profiler and trace sink its configuration
//! names; the models read no environment for them.

pub mod json;
pub mod log;
pub mod profile;
pub mod registry;
pub mod timeline;
pub mod trace;

pub use json::Json;
pub use profile::{Phase, PhaseProfiler, ProfileSpan};
pub use registry::{StatRegistry, StatScope, StatValue};
pub use timeline::{TimelineConfig, TimelineSampler};
pub use trace::{validate_chrome_trace, TraceConfig, TraceSink};
