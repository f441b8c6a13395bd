//! # ndpx-cache
//!
//! Cache structures for the NDPExt reproduction.
//!
//! * [`setassoc`] — a generic set-associative LRU cache used for per-core L1
//!   data caches, the baselines' SRAM metadata caches, and NDPExt's affine
//!   tag array;
//! * [`placement`] — share-based hashed placement of keys across NDP units
//!   (the substrate of both RShares and partitioned baseline caches);
//! * [`tagarray`] — externally-indexed tag arrays recording DRAM-cache
//!   contents at arbitrary granularity and associativity.
//!
//! # Examples
//!
//! ```
//! use ndpx_cache::placement::SharePlacement;
//! use ndpx_cache::tagarray::TagArray;
//!
//! // A stream gets 8 and 6 slots on two units; keys hash across both.
//! let place = SharePlacement::new(vec![8, 6]);
//! let mut unit0 = TagArray::new(8, 1);
//! let (unit, slot) = place.locate(44).unwrap();
//! if unit == 0 {
//!     assert!(!unit0.access(slot, 44, false).is_hit());
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod placement;
pub mod setassoc;
pub mod tagarray;

pub use placement::SharePlacement;
pub use setassoc::{CacheStats, Outcome, SetAssocCache};
pub use tagarray::TagArray;
