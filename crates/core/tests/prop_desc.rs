//! Property suite: the cached [`StreamDesc`] must agree with the uncached
//! reference functions in [`ndpx_core::desc`] on randomized streams.
//!
//! The descriptor is what the access hot path reads; the free functions are
//! the original per-access derivations kept as the specification. Any
//! divergence here would silently change placement (and therefore every
//! figure), so the suite sweeps both stream kinds, all dimension orders,
//! and both policy grains.

use ndpx_core::desc::{self, DescParams, StreamDesc};
use ndpx_sim::rng::Xoshiro256;
use ndpx_stream::{AffineShape, DimOrder, StreamConfig, StreamId, StreamKind};

/// Builds a random but well-formed stream configuration.
fn random_stream(rng: &mut Xoshiro256) -> StreamConfig {
    let elem_size = [4u32, 8, 16, 32, 64][rng.below(5) as usize];
    let base = rng.below(1 << 30) * 64;
    if rng.chance(0.5) {
        // Affine: random (possibly padded) 3-D shape in a random order.
        let lengths = [1 + rng.below(8), 1 + rng.below(8), 1 + rng.below(8)];
        let s0 = u64::from(elem_size) * (1 + rng.below(2));
        let s1 = lengths[0] * s0 * (1 + rng.below(2));
        let s2 = lengths[1] * s1 * (1 + rng.below(2));
        let order = DimOrder::ALL[rng.below(6) as usize];
        let shape = AffineShape { lengths, strides: [s0, s1, s2], order };
        let elems = shape.elems();
        StreamConfig {
            sid: StreamId(0),
            kind: StreamKind::Affine(shape),
            base,
            size: elems * u64::from(elem_size),
            elem_size,
            read_only: rng.chance(0.5),
        }
    } else {
        let elems = 1 + rng.below(4096);
        StreamConfig {
            sid: StreamId(0),
            kind: StreamKind::Indirect { source: None },
            base,
            size: elems * u64::from(elem_size),
            elem_size,
            read_only: rng.chance(0.5),
        }
    }
}

/// Builds random policy parameters covering both grains.
fn random_params(rng: &mut Xoshiro256) -> DescParams {
    DescParams {
        stream_grain: rng.chance(0.5),
        affine_block: [256u64, 512, 1024, 4096][rng.below(4) as usize],
        line_bytes: [64u64, 128][rng.below(2) as usize],
    }
}

#[test]
fn cached_descriptor_agrees_with_reference_on_random_streams() {
    let mut rng = Xoshiro256::seed_from(0xDE5C);
    for _ in 0..500 {
        let cfg = random_stream(&mut rng);
        let p = random_params(&mut rng);
        let d = StreamDesc::build(cfg, p);

        assert_eq!(d.grain, desc::grain_of(&cfg, p), "grain: {cfg:?} {p:?}");
        assert_eq!(d.fetch_bytes, desc::fetch_bytes(&cfg, p), "fetch: {cfg:?} {p:?}");
        assert_eq!(d.affine, cfg.kind.is_affine());

        // Key mapping over in-range elements (with their real addresses).
        for _ in 0..64 {
            let elem = rng.below(cfg.elems());
            let addr = cfg.addr_of(elem);
            assert_eq!(
                d.key_of(elem, addr / p.line_bytes),
                desc::key_of(&cfg, p, elem, addr),
                "key_of({elem}, {addr:#x}): {cfg:?} {p:?}"
            );
        }

        // Key -> address mapping, including keys past the end (the
        // reference clamps; the cache must clamp identically).
        let last_key = desc::key_of(&cfg, p, cfg.elems() - 1, cfg.addr_of(cfg.elems() - 1));
        for _ in 0..64 {
            let key = rng.below(last_key + 4);
            assert_eq!(
                d.addr_of_key(key),
                desc::addr_of_key(&cfg, p, key),
                "addr_of_key({key}): {cfg:?} {p:?}"
            );
        }
    }
}

#[test]
fn descriptor_grain_divides_consistently() {
    // Sanity on the derived quantities the allocator relies on: a positive
    // grain, and fetch bytes equal to the grain for affine stream-grain
    // placement (one block per miss).
    let mut rng = Xoshiro256::seed_from(0xB10C);
    for _ in 0..200 {
        let cfg = random_stream(&mut rng);
        let p = random_params(&mut rng);
        let d = StreamDesc::build(cfg, p);
        assert!(d.grain > 0);
        if p.stream_grain && cfg.kind.is_affine() {
            assert_eq!(u64::from(d.fetch_bytes), p.affine_block);
        }
        if !p.stream_grain {
            assert_eq!(d.grain, p.line_bytes);
            assert_eq!(u64::from(d.fetch_bytes), p.line_bytes);
        }
    }
}

/// An affine stream of `lengths` walked in `order`; with `padded`, each
/// outer stride skips one element of padding, so the address of the first
/// element past a dimension differs from one more step of the inner
/// stride.
fn affine_stream(lengths: [u64; 3], order: DimOrder, padded: bool, elem_size: u32) -> StreamConfig {
    let pad = u64::from(padded) * u64::from(elem_size);
    let s0 = u64::from(elem_size);
    let s1 = lengths[0] * s0 + pad;
    let s2 = lengths[1] * s1 + pad;
    let shape = AffineShape { lengths, strides: [s0, s1, s2], order };
    StreamConfig {
        sid: StreamId(0),
        kind: StreamKind::Affine(shape),
        base: 0x4000_0000,
        size: lengths[2] * s2,
        elem_size,
        read_only: true,
    }
}

#[test]
fn addr_of_elem_agrees_with_the_stream_for_every_element() {
    // Every element of every shape, so both sides of the first
    // access-order dimension's end (elements `lp0 - 1` and `lp0`) are
    // checked wherever the shape has them. `debug_assert` inside
    // `addr_of_elem` is compiled out in release; this comparison is not.
    let mut rng = Xoshiro256::seed_from(0xADD1);
    let mut shapes: Vec<([u64; 3], bool)> = Vec::new();
    for n in [1, 2, 7, 64, 300] {
        // 1-D: the one long dimension in every position.
        shapes.extend([([n, 1, 1], false), ([1, n, 1], false), ([1, 1, n], false)]);
    }
    for _ in 0..40 {
        let lengths = [1 + rng.below(9), 1 + rng.below(9), 1 + rng.below(9)];
        shapes.push((lengths, rng.chance(0.5)));
    }
    let p = DescParams { stream_grain: true, affine_block: 1024, line_bytes: 64 };
    let mut crossings = 0;
    for &(lengths, padded) in &shapes {
        for order in DimOrder::ALL {
            let cfg = affine_stream(lengths, order, padded, [4, 8, 64][rng.below(3) as usize]);
            let d = StreamDesc::build(cfg, p);
            for elem in 0..cfg.elems() {
                assert_eq!(d.addr_of_elem(elem), cfg.addr_of(elem), "elem {elem}: {cfg:?}");
            }
            // The element at `lp0` starts the next access-order dimension:
            // with padding it is not one more step of the first stride.
            let StreamKind::Affine(shape) = cfg.kind else { unreachable!("affine") };
            let first = order.perm()[0];
            let (lp0, sp0) = (shape.lengths[first], shape.strides[first]);
            if lp0 < cfg.elems() && cfg.addr_of(lp0) != cfg.base + lp0 * sp0 {
                crossings += 1;
            }
        }
    }
    assert!(crossings >= 50, "only {crossings} shapes cross a padded dimension end");
    // Indirect streams: every element one element size apart.
    for elems in [1u64, 2, 1000] {
        let cfg = StreamConfig {
            sid: StreamId(0),
            kind: StreamKind::Indirect { source: None },
            base: 0x1000,
            size: elems * 12,
            elem_size: 12,
            read_only: false,
        };
        let d = StreamDesc::build(cfg, p);
        for elem in 0..elems {
            assert_eq!(d.addr_of_elem(elem), cfg.addr_of(elem), "indirect elem {elem}");
        }
    }
}
