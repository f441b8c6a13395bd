//! Cached per-stream descriptors for the simulation hot path.
//!
//! The access path needs a stream's caching grain, cache-key mapping, miss
//! fetch size, and key→address mapping on every reference. All four are
//! pure functions of the stream's configuration and the active policy —
//! both immutable for a run — yet the original helpers re-derived them per
//! access through a stream-table lookup plus policy branching.
//! [`StreamDesc`] precomputes them once at system construction, indexed by
//! [`StreamId`](ndpx_stream::StreamId); the free functions remain as the
//! uncached reference implementations the property tests compare against.

use ndpx_sim::fastdiv::Divisor;
use ndpx_stream::{StreamConfig, StreamKind};

/// The policy-dependent constants a descriptor is built from.
#[derive(Debug, Clone, Copy)]
pub struct DescParams {
    /// Whether the active policy caches at stream grain.
    pub stream_grain: bool,
    /// Affine-block bytes (stream-grain policies).
    pub affine_block: u64,
    /// Cache-line bytes (line-grain policies).
    pub line_bytes: u64,
}

/// Reference: caching grain (slot bytes) of a stream under the policy.
pub fn grain_of(s: &StreamConfig, p: DescParams) -> u64 {
    if p.stream_grain {
        match s.kind {
            StreamKind::Affine(_) => p.affine_block,
            // Tag stored with the element, padded to 8 B (§IV-C).
            StreamKind::Indirect { .. } => (u64::from(s.elem_size) + 4).next_multiple_of(8),
        }
    } else {
        p.line_bytes
    }
}

/// Reference: cache key of element `elem` at address `addr`.
pub fn key_of(s: &StreamConfig, p: DescParams, elem: u64, addr: u64) -> u64 {
    if p.stream_grain {
        match s.kind {
            StreamKind::Affine(_) => {
                let epb = (p.affine_block / u64::from(s.elem_size)).max(1);
                elem / epb
            }
            StreamKind::Indirect { .. } => elem,
        }
    } else {
        addr / p.line_bytes
    }
}

/// The largest cache key any reference to `s` can yield under the policy:
/// the last element's key at stream grain, the line of the stream's last
/// byte at line grain (a bound; element addresses lie below
/// [`StreamConfig::end`]).
pub fn max_key(s: &StreamConfig, p: DescParams) -> u64 {
    if p.stream_grain {
        key_of(s, p, s.elems() - 1, 0)
    } else {
        (s.end() - 1) / p.line_bytes
    }
}

/// Reference: bytes fetched from extended memory on a miss.
pub fn fetch_bytes(s: &StreamConfig, p: DescParams) -> u32 {
    if p.stream_grain && s.kind.is_affine() {
        p.affine_block as u32
    } else {
        p.line_bytes as u32
    }
}

/// Reference: physical address of a cache key (for extended-memory access).
pub fn addr_of_key(s: &StreamConfig, p: DescParams, key: u64) -> u64 {
    if p.stream_grain {
        match s.kind {
            StreamKind::Affine(_) => {
                let epb = (p.affine_block / u64::from(s.elem_size)).max(1);
                s.addr_of((key * epb).min(s.elems() - 1))
            }
            StreamKind::Indirect { .. } => s.addr_of(key.min(s.elems() - 1)),
        }
    } else {
        key * p.line_bytes
    }
}

/// What [`StreamDesc::addr_of_elem`]'s fast path reads: an element below
/// `lp0` sits at `base + elem * sp0`. 32-byte aligned and at most 32 bytes
/// long, so in a `Vec<StreamDesc>` it lies within one 64-byte cache line
/// for every stream id (see the layout asserts below).
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Walk {
    /// Stream base address.
    base: u64,
    /// Length of the first access-order dimension: elements below it sit
    /// at `base + elem * sp0`. `u64::MAX` for an indirect stream, whose
    /// elements are all one stride apart.
    lp0: u64,
    /// Byte stride of the first access-order dimension; an indirect
    /// stream's element size.
    sp0: u64,
}

/// Precomputed per-stream facts for the access path.
#[derive(Debug, Clone, Copy)]
pub struct StreamDesc {
    /// Caching grain (slot bytes) under the active policy: the line size
    /// under a line-grain policy.
    pub grain: u64,
    /// Bytes fetched from extended memory on a miss.
    pub fetch_bytes: u32,
    /// Elements per affine block (1 for indirect streams).
    epb: u64,
    /// `elems() - 1`: clamp bound for key→address mapping.
    last_elem: u64,
    /// Stream-grain policy active.
    stream_grain: bool,
    /// Affine stream.
    pub affine: bool,
    /// Base, first dimension and first stride: the divide-free address.
    walk: Walk,
    /// Strength-reduced `/ epb` for affine stream-grain keys.
    epb_div: Divisor,
    /// Strength-reduced first/second access-order dimension lengths of an
    /// affine shape (the two divides of `access_to_coords`).
    lp0_div: Divisor,
    lp1_div: Divisor,
    /// Byte strides of the second and third access-order dimensions
    /// (`strides[perm[1]]`, `strides[perm[2]]`); zero for an indirect
    /// stream.
    sp12: [u64; 2],
}

// `Walk` never straddles a 64-byte line: a `Vec<StreamDesc>` is aligned to
// `StreamDesc`'s alignment, its stride (the size) is a multiple of it, and
// `walk` starts at a multiple of 32 and ends within the same 32 bytes.
const _: () = {
    use std::mem::{align_of, offset_of, size_of};
    assert!(size_of::<Walk>() == 32 && align_of::<Walk>() == 32);
    assert!(align_of::<StreamDesc>() == 32 && size_of::<StreamDesc>().is_multiple_of(32));
    assert!(offset_of!(StreamDesc, walk).is_multiple_of(32));
    assert!(offset_of!(StreamDesc, walk.base) / 64 == (offset_of!(StreamDesc, walk.sp0) + 7) / 64);
};

impl StreamDesc {
    /// Builds the descriptor; agrees with the reference functions by
    /// construction (and by the property suite).
    pub fn build(cfg: StreamConfig, p: DescParams) -> Self {
        let epb = (p.affine_block / u64::from(cfg.elem_size)).max(1);
        // Access-order walk constants: the two dimension lengths
        // `access_to_coords` divides by, and the strides permuted so the
        // offset sum indexes them directly.
        let (lp0, lp1, sp) = match &cfg.kind {
            StreamKind::Affine(shape) => {
                let perm = shape.order.perm();
                (
                    shape.lengths[perm[0]],
                    shape.lengths[perm[1]],
                    [shape.strides[perm[0]], shape.strides[perm[1]], shape.strides[perm[2]]],
                )
            }
            StreamKind::Indirect { .. } => (u64::MAX, 1, [u64::from(cfg.elem_size), 0, 0]),
        };
        StreamDesc {
            grain: grain_of(&cfg, p),
            fetch_bytes: fetch_bytes(&cfg, p),
            epb,
            last_elem: cfg.elems() - 1,
            stream_grain: p.stream_grain,
            affine: cfg.kind.is_affine(),
            walk: Walk { base: cfg.base, lp0, sp0: sp[0] },
            epb_div: Divisor::new(epb),
            lp0_div: Divisor::new(lp0.max(1)),
            lp1_div: Divisor::new(lp1.max(1)),
            sp12: [sp[1], sp[2]],
        }
    }

    /// Physical address of element `elem` — [`StreamConfig::addr_of`]
    /// with the coordinate divides strength-reduced through the
    /// precomputed dimension divisors. An element inside the first
    /// access-order dimension (every element of a 1-D shape or an
    /// indirect stream) has coordinates `(elem, 0, 0)` and needs no divide.
    #[inline]
    pub fn addr_of_elem(&self, elem: u64) -> u64 {
        let w = &self.walk;
        if elem < w.lp0 {
            w.base + elem * w.sp0
        } else {
            self.addr_past_lp0(elem)
        }
    }

    /// [`addr_of_elem`](Self::addr_of_elem) past the first dimension: the
    /// two divides of `access_to_coords`. Out of line so the divide-free
    /// case inlines into the run loop.
    #[inline(never)]
    fn addr_past_lp0(&self, elem: u64) -> u64 {
        let (k1, c0) = self.lp0_div.divmod(elem);
        let (c2, c1) = self.lp1_div.divmod(k1);
        let w = &self.walk;
        w.base + c0 * w.sp0 + c1 * self.sp12[0] + c2 * self.sp12[1]
    }

    /// Cache key of element `elem` on line `line` (its address divided by
    /// the policy's line bytes, which is the line-grain key).
    #[inline]
    pub fn key_of(&self, elem: u64, line: u64) -> u64 {
        if self.stream_grain {
            if self.affine {
                self.epb_div.div(elem)
            } else {
                elem
            }
        } else {
            line
        }
    }

    /// Physical address of a cache key.
    #[inline]
    pub fn addr_of_key(&self, key: u64) -> u64 {
        if self.stream_grain {
            if self.affine {
                self.addr_of_elem((key * self.epb).min(self.last_elem))
            } else {
                self.addr_of_elem(key.min(self.last_elem))
            }
        } else {
            key * self.grain
        }
    }
}
