//! # ndpx-stream
//!
//! Software-defined data streams — the coarse-grained abstraction at the
//! heart of NDPExt (paper §II-C, §IV-A).
//!
//! A stream couples a physical address range with its expected access
//! pattern. **Affine** streams have statically determined addresses (up to
//! three dimensions, optionally iterated in a non-storage order); **indirect**
//! streams are driven by the contents of another stream (`addr = s[i]`).
//!
//! * [`config`] — per-stream metadata with the paper's Table I field widths,
//!   and the access-index ↔ address math;
//! * [`table`] — the centralized stream table behind `configure_stream`.
//!
//! # Examples
//!
//! ```
//! use ndpx_stream::table::{StreamSpec, StreamTable};
//!
//! let mut table = StreamTable::new();
//! // Vertex array: 1k elements of 8 bytes, dense affine.
//! let vertices = table.configure(StreamSpec::affine_linear(0x10_0000, 8192, 8))?;
//! // Rank scores accessed through the edge list: indirect.
//! let ranks = table.configure(StreamSpec::indirect(0x20_0000, 4096, 4, Some(vertices)))?;
//! assert_eq!(table.lookup(0x20_0008), Some((ranks, 2)));
//! # Ok::<(), ndpx_stream::config::StreamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod table;

pub use config::{AffineShape, DimOrder, StreamConfig, StreamError, StreamId, StreamKind};
pub use table::{StreamSpec, StreamTable};
