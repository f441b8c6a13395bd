//! The trace interface between workloads and the simulator.
//!
//! A workload is an annotated program: a [`StreamTable`] describing its data
//! structures (the paper's `configure_stream` calls) plus one infinite
//! per-core operation source. The simulator pulls [`Op`]s and charges compute
//! time or drives the memory hierarchy; generators are O(1) per op so
//! billions of operations can stream without materializing traces.

use ndpx_stream::{StreamId, StreamTable};

use crate::replay::OpLanes;

/// One memory reference, in stream coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// The stream being accessed.
    pub sid: StreamId,
    /// Access-order element index within the stream.
    pub elem: u64,
    /// True for stores.
    pub write: bool,
}

impl MemRef {
    /// A read of `elem` in `sid`.
    pub const fn read(sid: StreamId, elem: u64) -> Self {
        MemRef { sid, elem, write: false }
    }

    /// A write of `elem` in `sid`.
    pub const fn write(sid: StreamId, elem: u64) -> Self {
        MemRef { sid, elem, write: true }
    }
}

/// One operation executed by an NDP core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Busy the core for this many core cycles.
    Compute(u32),
    /// Issue a memory reference to a configured stream.
    Mem(MemRef),
    /// Issue a memory reference outside any stream (rare; exercises the
    /// bypass-to-extended-memory path of §IV-C).
    RawMem {
        /// Physical address.
        addr: u64,
        /// True for stores.
        write: bool,
    },
}

/// An infinite per-core operation generator.
///
/// Implementations own all per-core state; `next_op(core)` must be
/// deterministic given the construction seed, and per-core sequences must
/// be independent of the interleaving of calls across cores (this is what
/// lets [`crate::replay`] materialize traces core-by-core, lets
/// [`OpLanes`] pack a chunk of one core's ops ahead of the others, and
/// lets whole workloads move across threads).
pub trait OpSource: Send {
    /// The next operation for `core`. Sources never exhaust — kernels repeat
    /// their outer iteration — and the simulator bounds the run.
    fn next_op(&mut self, core: usize) -> Op;

    /// Fills `out` with `core`'s next `out.len()` ops in their 8-byte trace
    /// form ([`crate::replay`]): one call per chunk, in which `next_op` is
    /// a static call.
    ///
    /// # Errors
    ///
    /// The position in `out` and the op that does not fit the encoding;
    /// the ops before it are packed.
    fn pack(&mut self, core: usize, out: &mut [u64]) -> Result<(), (usize, Op)> {
        for (i, word) in out.iter_mut().enumerate() {
            let op = self.next_op(core);
            *word = crate::replay::pack(op).ok_or((i, op))?;
        }
        Ok(())
    }

    /// The lanes of a source that replays materialized words
    /// ([`ReplaySource`](crate::replay::ReplaySource)), handed over at its
    /// cursors without copying the words; `None`, the default, for a
    /// generator, which [`OpLanes::new`] then packs chunk by chunk.
    fn materialized(&self) -> Option<OpLanes> {
        None
    }
}

/// Scaling knobs shared by all workload constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleParams {
    /// Number of NDP cores the workload is partitioned across.
    pub cores: usize,
    /// Approximate total data footprint in bytes. Constructors size their
    /// datasets so the footprint *exceeds* the NDP cache (the paper runs
    /// multiple processes until it does).
    pub footprint: u64,
    /// RNG seed for synthetic data.
    pub seed: u64,
}

impl ScaleParams {
    /// A small profile for unit/integration tests: 16 cores, 32 MB.
    pub fn test_default() -> Self {
        ScaleParams { cores: 16, footprint: 32 << 20, seed: 0xA11CE }
    }
}

/// A fully constructed workload: stream annotations plus the op source.
pub struct Workload {
    /// Human-readable workload name (e.g. `"pr"`).
    pub name: &'static str,
    /// All configured streams (the paper's few-lines-per-workload
    /// annotations).
    pub table: StreamTable,
    /// The operation generator.
    pub source: Box<dyn OpSource>,
    /// Number of cores the generator produces ops for.
    pub cores: usize,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("streams", &self.table.len())
            .field("cores", &self.cores)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_constructors() {
        let r = MemRef::read(StreamId(3), 7);
        assert!(!r.write);
        let w = MemRef::write(StreamId(3), 7);
        assert!(w.write);
        assert_eq!(r.sid, w.sid);
    }

    #[test]
    fn scale_default_is_multi_core() {
        let s = ScaleParams::test_default();
        assert!(s.cores >= 2);
        assert!(s.footprint > 1 << 20);
    }
}
