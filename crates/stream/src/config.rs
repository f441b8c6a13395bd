//! Stream configuration metadata (paper Table I).
//!
//! A *stream* describes one data structure's memory range plus its expected
//! access pattern. NDPExt distinguishes **affine** streams (statically
//! determined addresses, up to 3 dimensions with a reordered iteration order)
//! from **indirect** streams (addresses determined by the contents of another
//! stream). The metadata widths follow Table I of the paper: 9-bit stream
//! IDs, 48-bit base/size, 3-bit dimension order.

/// Identifies a configured stream. At most [`StreamId::MAX_STREAMS`] streams
/// exist at a time (Table I: 9-bit `sid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u16);

impl StreamId {
    /// The 9-bit sid field supports 512 simultaneous streams.
    pub const MAX_STREAMS: usize = 512;

    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Errors from stream configuration and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// More than [`StreamId::MAX_STREAMS`] streams configured.
    TableFull,
    /// A field exceeds its Table I bit width.
    FieldOverflow {
        /// The offending field name.
        field: &'static str,
    },
    /// Element size is zero or does not divide the stream size.
    BadElementSize,
    /// Affine dimension lengths do not match the element count.
    BadShape,
    /// The new stream's address range overlaps an existing stream.
    Overlap {
        /// The already-configured stream it overlaps.
        with: StreamId,
    },
    /// Strides overlap, so addresses would not decompose uniquely.
    OverlappingStrides,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::TableFull => {
                write!(f, "stream table full (max {})", StreamId::MAX_STREAMS)
            }
            StreamError::FieldOverflow { field } => {
                write!(f, "stream field `{field}` exceeds its bit width")
            }
            StreamError::BadElementSize => {
                write!(f, "element size must be positive and divide the stream size")
            }
            StreamError::BadShape => {
                write!(f, "affine dimension lengths do not cover the element count")
            }
            StreamError::Overlap { with } => {
                write!(f, "stream range overlaps existing stream {with}")
            }
            StreamError::OverlappingStrides => {
                write!(f, "affine strides overlap; addresses are ambiguous")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Iteration order of an affine stream's (up to three) dimensions.
///
/// Dimension 0 is the storage-contiguous dimension. The order lists
/// dimensions from fastest-varying to slowest-varying during *access*; the
/// canonical row-major traversal is [`DimOrder::D012`]. Encoded in the 3-bit
/// `order` field of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DimOrder {
    /// dim0 fastest (storage order).
    #[default]
    D012,
    /// dim0, dim2, dim1.
    D021,
    /// dim1 fastest (e.g. column-major walk of a row-major matrix).
    D102,
    /// dim1, dim2, dim0.
    D120,
    /// dim2 fastest.
    D201,
    /// dim2, dim1, dim0.
    D210,
}

impl DimOrder {
    /// All six orders, indexed by their 3-bit encoding.
    pub const ALL: [DimOrder; 6] = [
        DimOrder::D012,
        DimOrder::D021,
        DimOrder::D102,
        DimOrder::D120,
        DimOrder::D201,
        DimOrder::D210,
    ];

    /// The dimension permutation, fastest first.
    #[inline]
    pub const fn perm(self) -> [usize; 3] {
        match self {
            DimOrder::D012 => [0, 1, 2],
            DimOrder::D021 => [0, 2, 1],
            DimOrder::D102 => [1, 0, 2],
            DimOrder::D120 => [1, 2, 0],
            DimOrder::D201 => [2, 0, 1],
            DimOrder::D210 => [2, 1, 0],
        }
    }

    /// The 3-bit hardware encoding.
    #[inline]
    pub const fn encoding(self) -> u8 {
        match self {
            DimOrder::D012 => 0,
            DimOrder::D021 => 1,
            DimOrder::D102 => 2,
            DimOrder::D120 => 3,
            DimOrder::D201 => 4,
            DimOrder::D210 => 5,
        }
    }

    /// Decodes the 3-bit hardware encoding.
    pub fn from_encoding(code: u8) -> Option<DimOrder> {
        Self::ALL.get(code as usize).copied()
    }
}

/// Shape of an affine stream: up to three dimensions with byte strides and an
/// access order.
///
/// Storage offset of coordinates `(c0, c1, c2)` is
/// `c0 * strides[0] + c1 * strides[1] + c2 * strides[2]` bytes. Unused
/// dimensions have length 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffineShape {
    /// Per-dimension element counts (Table I: `length` along Y/Z; X derived).
    pub lengths: [u64; 3],
    /// Per-dimension byte strides (Table I: `stride` along X/Y/Z).
    pub strides: [u64; 3],
    /// Access-order permutation (Table I: `order`).
    pub order: DimOrder,
}

impl AffineShape {
    /// A dense 1-D shape of `n` elements of `elem_size` bytes.
    pub fn linear(n: u64, elem_size: u32) -> Self {
        AffineShape {
            lengths: [n, 1, 1],
            strides: [u64::from(elem_size), n * u64::from(elem_size), n * u64::from(elem_size)],
            order: DimOrder::D012,
        }
    }

    /// A dense 2-D row-major matrix of `rows × cols` elements, accessed in
    /// the given order.
    pub fn matrix(rows: u64, cols: u64, elem_size: u32, order: DimOrder) -> Self {
        let es = u64::from(elem_size);
        AffineShape { lengths: [cols, rows, 1], strides: [es, cols * es, rows * cols * es], order }
    }

    /// Total element count.
    pub fn elems(&self) -> u64 {
        self.lengths.iter().product()
    }

    /// Converts an access-order index `k` to storage coordinates.
    #[inline]
    pub fn access_to_coords(&self, k: u64) -> [u64; 3] {
        let p = self.order.perm();
        let mut c = [0u64; 3];
        c[p[0]] = k % self.lengths[p[0]];
        let k1 = k / self.lengths[p[0]];
        c[p[1]] = k1 % self.lengths[p[1]];
        c[p[2]] = k1 / self.lengths[p[1]];
        c
    }

    /// Byte offset of storage coordinates.
    #[inline]
    pub fn coords_to_offset(&self, c: [u64; 3]) -> u64 {
        c[0] * self.strides[0] + c[1] * self.strides[1] + c[2] * self.strides[2]
    }

    /// Decomposes a byte offset back to coordinates; `None` for offsets
    /// inside stride padding or out of range.
    pub fn offset_to_coords(&self, off: u64, elem_size: u32) -> Option<[u64; 3]> {
        // Peel dimensions from largest stride to smallest; strides are
        // validated non-overlapping so the decomposition is unique.
        // Length-1 dimensions always contribute coordinate 0 and their
        // strides carry no information, so they are skipped.
        // The dimensions go into a fixed array by stable insertion, so
        // equal strides keep index order as a stable sort would.
        let mut idx = [0usize; 3];
        let mut n = 0;
        for i in (0..3).filter(|&i| self.lengths[i] > 1) {
            let mut at = n;
            while at > 0 && self.strides[idx[at - 1]] < self.strides[i] {
                idx[at] = idx[at - 1];
                at -= 1;
            }
            idx[at] = i;
            n += 1;
        }
        let mut rem = off;
        let mut c = [0u64; 3];
        for &i in &idx[..n] {
            let v = rem / self.strides[i];
            if v >= self.lengths[i] {
                return None;
            }
            c[i] = v;
            rem %= self.strides[i];
        }
        // `rem` is a sub-element byte offset; any residue beyond the element
        // is padding.
        if rem >= u64::from(elem_size) {
            return None;
        }
        Some(c)
    }

    /// Converts storage coordinates to the access-order index.
    #[inline]
    pub fn coords_to_access(&self, c: [u64; 3]) -> u64 {
        let p = self.order.perm();
        c[p[0]] + self.lengths[p[0]] * (c[p[1]] + self.lengths[p[1]] * c[p[2]])
    }

    /// Validates that strides do not overlap (unique decomposition).
    pub fn validate(&self, elem_size: u32) -> Result<(), StreamError> {
        if self.lengths.contains(&0) {
            return Err(StreamError::BadShape);
        }
        let mut dims: Vec<usize> = (0..3).filter(|&i| self.lengths[i] > 1).collect();
        dims.sort_by_key(|&i| self.strides[i]);
        let mut min_next = u64::from(elem_size);
        for &i in &dims {
            if self.strides[i] < min_next {
                return Err(StreamError::OverlappingStrides);
            }
            min_next = self.strides[i] * self.lengths[i];
        }
        Ok(())
    }
}

/// The stream's kind: affine or indirect (paper §II-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Addresses follow an affine function of the iteration index.
    Affine(AffineShape),
    /// Addresses are determined by data in another stream
    /// (`addr = s[i]`); the index stream is recorded when known.
    Indirect {
        /// The stream whose values drive this stream's access order.
        source: Option<StreamId>,
    },
}

impl StreamKind {
    /// True for affine streams.
    pub const fn is_affine(&self) -> bool {
        matches!(self, StreamKind::Affine(_))
    }
}

/// Full per-stream metadata, as configured by `configure_stream` (Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Stream ID (assigned by the table).
    pub sid: StreamId,
    /// Affine or indirect.
    pub kind: StreamKind,
    /// Base physical address (48 bits).
    pub base: u64,
    /// Total stream size in bytes (48 bits).
    pub size: u64,
    /// Element size in bytes.
    pub elem_size: u32,
    /// Read-only flag, initialized true and cleared on the first write
    /// (paper §IV-B).
    pub read_only: bool,
}

const ADDR_BITS: u32 = 48;

impl StreamConfig {
    /// Number of elements in the stream.
    pub fn elems(&self) -> u64 {
        self.size / u64::from(self.elem_size)
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// True if `addr` falls inside the stream's range.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Storage address of the element at *access-order* index `elem`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `elem` is out of range.
    pub fn addr_of(&self, elem: u64) -> u64 {
        debug_assert!(elem < self.elems(), "element {elem} out of range for {}", self.sid);
        match &self.kind {
            StreamKind::Affine(shape) => {
                let c = shape.access_to_coords(elem);
                self.base + shape.coords_to_offset(c)
            }
            StreamKind::Indirect { .. } => self.base + elem * u64::from(self.elem_size),
        }
    }

    /// Access-order element index containing `addr`, or `None` if the
    /// address is outside the stream (or in stride padding).
    pub fn elem_of(&self, addr: u64) -> Option<u64> {
        if !self.contains(addr) {
            return None;
        }
        let off = addr - self.base;
        match &self.kind {
            StreamKind::Affine(shape) => {
                let c = shape.offset_to_coords(off, self.elem_size)?;
                Some(shape.coords_to_access(c))
            }
            StreamKind::Indirect { .. } => Some(off / u64::from(self.elem_size)),
        }
    }

    /// Validates all Table I field widths and shape consistency.
    ///
    /// # Errors
    ///
    /// See [`StreamError`].
    pub fn validate(&self) -> Result<(), StreamError> {
        if self.sid.index() >= StreamId::MAX_STREAMS {
            return Err(StreamError::FieldOverflow { field: "sid" });
        }
        if self.base >= (1 << ADDR_BITS) || self.end() > (1 << ADDR_BITS) {
            return Err(StreamError::FieldOverflow { field: "base" });
        }
        if self.size >= (1 << ADDR_BITS) {
            return Err(StreamError::FieldOverflow { field: "size" });
        }
        if self.elem_size == 0 || !self.size.is_multiple_of(u64::from(self.elem_size)) {
            return Err(StreamError::BadElementSize);
        }
        if let StreamKind::Affine(shape) = &self.kind {
            shape.validate(self.elem_size)?;
            if shape.elems() != self.elems() {
                return Err(StreamError::BadShape);
            }
            for (i, &s) in shape.strides.iter().enumerate() {
                if s >= (1 << ADDR_BITS) {
                    return Err(StreamError::FieldOverflow {
                        field: ["stride.x", "stride.y", "stride.z"][i],
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The allocating decomposition `offset_to_coords` replaced: a `Vec`
    /// of the non-unit dimensions, stably sorted by descending stride.
    fn offset_to_coords_by_sort(s: &AffineShape, off: u64, elem_size: u32) -> Option<[u64; 3]> {
        let mut idx: Vec<usize> = (0..3).filter(|&i| s.lengths[i] > 1).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(s.strides[i]));
        let mut rem = off;
        let mut c = [0u64; 3];
        for &i in &idx {
            let v = rem / s.strides[i];
            if v >= s.lengths[i] {
                return None;
            }
            c[i] = v;
            rem %= s.strides[i];
        }
        (rem < u64::from(elem_size)).then_some(c)
    }

    #[test]
    fn offset_to_coords_matches_the_sorting_decomposition() {
        let mut rng = ndpx_sim::rng::Xoshiro256::seed_from(0x0FF5);
        for _ in 0..2_000 {
            // Small strides and lengths, unvalidated, so equal and
            // overlapping strides occur.
            let lengths = [1 + rng.below(6), 1 + rng.below(6), 1 + rng.below(6)];
            let strides = [1 + rng.below(40), 1 + rng.below(40), 1 + rng.below(40)];
            let order = DimOrder::ALL[rng.below(6) as usize];
            let shape = AffineShape { lengths, strides, order };
            let elem_size = 1 + rng.below(8) as u32;
            for off in 0..300 {
                assert_eq!(
                    shape.offset_to_coords(off, elem_size),
                    offset_to_coords_by_sort(&shape, off, elem_size),
                    "{shape:?} off {off} elem {elem_size}"
                );
            }
        }
    }

    fn linear_stream(n: u64, elem: u32) -> StreamConfig {
        StreamConfig {
            sid: StreamId(0),
            kind: StreamKind::Affine(AffineShape::linear(n, elem)),
            base: 0x1000,
            size: n * u64::from(elem),
            elem_size: elem,
            read_only: true,
        }
    }

    #[test]
    fn linear_round_trip() {
        let s = linear_stream(100, 8);
        s.validate().unwrap();
        for e in [0u64, 1, 50, 99] {
            let a = s.addr_of(e);
            assert_eq!(s.elem_of(a), Some(e));
        }
        assert_eq!(s.addr_of(0), 0x1000);
        assert_eq!(s.elem_of(0xFFF), None);
        assert_eq!(s.elem_of(s.end()), None);
    }

    #[test]
    fn column_major_access_of_row_major_matrix() {
        // 4 rows x 8 cols, 4-byte elements, accessed column-major (dim 1 =
        // rows varies fastest).
        let shape = AffineShape::matrix(4, 8, 4, DimOrder::D102);
        let s = StreamConfig {
            sid: StreamId(1),
            kind: StreamKind::Affine(shape),
            base: 0,
            size: 4 * 8 * 4,
            elem_size: 4,
            read_only: true,
        };
        s.validate().unwrap();
        // Access index 0 -> (row 0, col 0), index 1 -> (row 1, col 0).
        assert_eq!(s.addr_of(0), 0);
        assert_eq!(s.addr_of(1), 8 * 4); // next row, same column
        assert_eq!(s.addr_of(4), 4); // column 1, row 0
                                     // Round trip across all elements.
        for k in 0..32 {
            assert_eq!(s.elem_of(s.addr_of(k)), Some(k));
        }
    }

    #[test]
    fn padded_matrix_detects_padding() {
        // 2 rows of 3 elements, but rows padded to 4 elements (stride 16).
        let shape = AffineShape { lengths: [3, 2, 1], strides: [4, 16, 32], order: DimOrder::D012 };
        let s = StreamConfig {
            sid: StreamId(2),
            kind: StreamKind::Affine(shape),
            base: 0,
            size: 6 * 4,
            elem_size: 4,
            read_only: true,
        };
        // Offset 12 is the padding element of row 0.
        assert_eq!(shape.offset_to_coords(12, 4), None);
        assert_eq!(shape.offset_to_coords(16, 4), Some([0, 1, 0]));
        assert_eq!(s.elem_of(16), Some(3));
    }

    #[test]
    fn overlapping_strides_rejected() {
        let shape =
            AffineShape { lengths: [8, 8, 1], strides: [4, 16, 256], order: DimOrder::D012 };
        assert_eq!(shape.validate(4), Err(StreamError::OverlappingStrides));
    }

    #[test]
    fn indirect_addressing_is_linear() {
        let s = StreamConfig {
            sid: StreamId(3),
            kind: StreamKind::Indirect { source: Some(StreamId(1)) },
            base: 0x100,
            size: 64,
            elem_size: 4,
            read_only: true,
        };
        s.validate().unwrap();
        assert_eq!(s.addr_of(3), 0x10C);
        assert_eq!(s.elem_of(0x10C), Some(3));
        assert_eq!(s.elems(), 16);
    }

    #[test]
    fn validation_catches_field_overflow() {
        let mut s = linear_stream(4, 8);
        s.base = 1 << 48;
        assert_eq!(s.validate(), Err(StreamError::FieldOverflow { field: "base" }));
        let mut s = linear_stream(4, 8);
        s.elem_size = 0;
        assert_eq!(s.validate(), Err(StreamError::BadElementSize));
        let mut s = linear_stream(4, 8);
        s.size = 33; // not a multiple of 8
        assert_eq!(s.validate(), Err(StreamError::BadElementSize));
    }

    #[test]
    fn dim_order_encodings_round_trip() {
        for o in DimOrder::ALL {
            assert_eq!(DimOrder::from_encoding(o.encoding()), Some(o));
            assert!(o.encoding() < 8, "order must fit in 3 bits");
        }
        assert_eq!(DimOrder::from_encoding(6), None);
        // Each permutation is a permutation of {0,1,2}.
        for o in DimOrder::ALL {
            let mut p = o.perm();
            p.sort_unstable();
            assert_eq!(p, [0, 1, 2]);
        }
    }

    #[test]
    fn three_dim_order_round_trip() {
        let es = 2u32;
        let shape = AffineShape { lengths: [4, 3, 5], strides: [2, 8, 24], order: DimOrder::D210 };
        let s = StreamConfig {
            sid: StreamId(4),
            kind: StreamKind::Affine(shape),
            base: 0x2000,
            size: 4 * 3 * 5 * u64::from(es),
            elem_size: es,
            read_only: true,
        };
        s.validate().unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..60 {
            let a = s.addr_of(k);
            assert!(seen.insert(a), "duplicate address {a:#x}");
            assert_eq!(s.elem_of(a), Some(k));
        }
    }
}
