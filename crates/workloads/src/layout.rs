//! Physical address-space layout for workload data structures.
//!
//! Workloads place each data structure at a distinct, page-aligned physical
//! range before configuring it as a stream. [`AddressSpace`] is a simple bump
//! allocator over the extended-memory physical space.

use ndpx_stream::{StreamError, StreamId, StreamSpec, StreamTable};

/// Alignment of every allocation (a 2 MB huge page).
pub const ALLOC_ALIGN: u64 = 2 << 20;

/// A bump allocator handing out disjoint physical ranges and registering
/// them as streams.
///
/// # Examples
///
/// ```
/// use ndpx_workloads::layout::AddressSpace;
///
/// let mut space = AddressSpace::new();
/// let (sid, base) = space.alloc_affine(1 << 20, 8)?;
/// assert_eq!(base % (2 << 20), 0);
/// assert_eq!(space.table().get(sid).elem_size, 8);
/// # Ok::<(), ndpx_stream::StreamError>(())
/// ```
#[derive(Debug, Default)]
pub struct AddressSpace {
    table: StreamTable,
    next: u64,
}

impl AddressSpace {
    /// An empty address space starting at the first aligned address.
    pub fn new() -> Self {
        AddressSpace { table: StreamTable::new(), next: ALLOC_ALIGN }
    }

    fn bump(&mut self, size: u64) -> u64 {
        let base = self.next;
        self.next = (base + size).div_ceil(ALLOC_ALIGN) * ALLOC_ALIGN;
        base
    }

    /// Allocates a dense 1-D affine stream of `size` bytes.
    ///
    /// # Errors
    ///
    /// Propagates stream-configuration failures.
    pub fn alloc_affine(
        &mut self,
        size: u64,
        elem_size: u32,
    ) -> Result<(StreamId, u64), StreamError> {
        let base = self.bump(size);
        let sid = self.table.configure(StreamSpec::affine_linear(base, size, elem_size))?;
        Ok((sid, base))
    }

    /// Allocates an indirect stream of `size` bytes driven by `source`.
    ///
    /// # Errors
    ///
    /// Propagates stream-configuration failures.
    pub fn alloc_indirect(
        &mut self,
        size: u64,
        elem_size: u32,
        source: Option<StreamId>,
    ) -> Result<(StreamId, u64), StreamError> {
        let base = self.bump(size);
        let sid = self.table.configure(StreamSpec::indirect(base, size, elem_size, source))?;
        Ok((sid, base))
    }

    /// Reserves a non-stream range (exercises the bypass path) and returns
    /// its base address.
    pub fn alloc_raw(&mut self, size: u64) -> u64 {
        self.bump(size)
    }

    /// The accumulated stream table.
    pub fn table(&self) -> &StreamTable {
        &self.table
    }

    /// Consumes the space, yielding the table.
    pub fn into_table(self) -> StreamTable {
        self.table
    }

    /// Total bytes allocated so far (including alignment padding).
    pub fn footprint(&self) -> u64 {
        self.next - ALLOC_ALIGN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_disjoint_and_aligned() {
        let mut s = AddressSpace::new();
        let (_, a) = s.alloc_affine(100, 4).unwrap();
        let (_, b) = s.alloc_affine(100, 4).unwrap();
        assert_ne!(a, b);
        assert_eq!(a % ALLOC_ALIGN, 0);
        assert_eq!(b % ALLOC_ALIGN, 0);
        assert!(b >= a + 100);
    }

    #[test]
    fn raw_ranges_are_not_streams() {
        let mut s = AddressSpace::new();
        let raw = s.alloc_raw(4096);
        let (_, aff) = s.alloc_affine(4096, 8).unwrap();
        assert_eq!(s.table().lookup(raw), None);
        assert!(s.table().lookup(aff).is_some());
    }

    #[test]
    fn footprint_tracks_allocations() {
        let mut s = AddressSpace::new();
        assert_eq!(s.footprint(), 0);
        s.alloc_affine(1, 1).unwrap();
        assert_eq!(s.footprint(), ALLOC_ALIGN);
    }
}
