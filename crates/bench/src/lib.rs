//! # ndpx-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! NDPExt paper. Each `fig*` binary prints the rows/series of one figure;
//! [`runner`] provides the shared machinery (scale profiles, parallel run
//! execution, normalized-speedup tables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod gauge;
pub mod manifest;
pub mod micro;
pub mod pool;
pub mod report;
pub mod runner;

pub use manifest::{CellFailure, CellMetrics, RunManifest};
pub use ndpx_workloads::TraceCache;
pub use pool::{expect_ok, CellPool, CellResult, CellTask, MonitorConfig};
pub use runner::{
    geomean, run_host_cached, run_many, run_many_monitored, run_many_with, run_ndp, run_ndp_cached,
    run_tasks_monitored, BenchScale, RunSpec,
};
