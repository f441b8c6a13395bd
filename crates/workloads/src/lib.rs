//! # ndpx-workloads
//!
//! The paper's 13 evaluated workloads as stream-annotated trace generators.
//!
//! Each workload couples a [`ndpx_stream::StreamTable`] (the
//! `configure_stream` annotations the paper inserts into each program) with
//! an infinite, deterministic, O(1)-per-op generator of per-core memory
//! operations. Synthetic datasets substitute the paper's inputs while
//! preserving the access structure that drives the evaluation — see
//! DESIGN.md §3 for the substitution argument.
//!
//! * [`trace`] — the `Op`/`OpSource`/`Workload` interface to the simulator;
//! * [`layout`] — physical address-space allocation for data structures;
//! * [`graph`] — synthetic power-law and lattice graphs in CSR form;
//! * [`engines`] — the four parametrized access-pattern engines;
//! * [`gap`], [`tensor`], [`rodinia`] — the 13 workload constructors;
//! * [`registry`] — lookup by name;
//! * [`replay`] — materialized traces, the shared [`replay::TraceCache`],
//!   and the per-core op lanes ([`replay::OpLanes`]) the simulator reads.
//!
//! # Examples
//!
//! ```
//! use ndpx_workloads::registry;
//! use ndpx_workloads::trace::{Op, ScaleParams};
//!
//! let params = ScaleParams { cores: 4, footprint: 4 << 20, seed: 7 };
//! let mut wl = registry::build("pr", &params).expect("known")?;
//! match wl.source.next_op(0) {
//!     Op::Mem(m) => assert!(wl.table.get(m.sid).contains(wl.table.get(m.sid).addr_of(m.elem))),
//!     Op::Compute(_) | Op::RawMem { .. } => {}
//! }
//! # Ok::<(), ndpx_stream::StreamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engines;
pub mod gap;
pub mod graph;
pub mod layout;
pub mod registry;
pub mod replay;
pub mod rodinia;
pub mod tensor;
pub mod trace;

pub use registry::{build, ALL_WORKLOADS, REPRESENTATIVE_WORKLOADS};
pub use replay::{CachedTrace, OpLanes, TraceCache, TraceCacheStats, TraceKey};
pub use trace::{MemRef, Op, OpSource, ScaleParams, Workload};
