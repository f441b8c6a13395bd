//! # ndpx-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! NDPExt paper. [`figures`] holds one function per figure or table; each
//! `fig*` binary prints one of them and `reproduce` prints them all.
//! [`runner`] provides the shared machinery: scale profiles and the
//! [`Session`] that runs each distinct cell once. [`knobs`] declares every
//! `NDPX_*` environment knob; the harness is the only crate that reads
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod figures;
pub mod gauge;
pub mod knobs;
pub mod manifest;
pub mod micro;
pub mod pool;
pub mod report;
pub mod runner;

pub use ndpx_workloads::TraceCache;
pub use pool::{expect_ok, CellPool, CellResult, CellTask, MonitorConfig};
pub use runner::{geomean, run_host_cached, run_ndp_cached, BenchScale, Cell, RunSpec, Session};
