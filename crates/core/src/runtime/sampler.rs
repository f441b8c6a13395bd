//! Set-based miss-curve samplers (paper §V-A).
//!
//! NDPExt's DRAM caches are set-partitioned (direct-mapped within a share),
//! so way-based utility monitors do not apply: set partitioning lacks the
//! stack property. Instead each hardware sampler shadows `c` capacity cases
//! simultaneously; for each case it monitors `k` hashed sample sets (4 bytes
//! of address each) and counts hits/misses. Scaling the sampled miss rate by
//! the stream's total access count yields the absolute miss curve.

use std::sync::Arc;

use ndpx_sim::fastdiv::{Divisor, MultipleTest};
use ndpx_sim::rng::mix64;

/// A miss curve: estimated misses per epoch at increasing capacities.
///
/// Point 0 is always `(0, total_accesses)` — with no cache everything
/// misses. Capacities are strictly increasing; misses are non-increasing
/// (enforced at construction).
#[derive(Debug, Clone, PartialEq)]
pub struct MissCurve {
    points: Vec<(u64, f64)>,
}

impl MissCurve {
    /// Builds a curve from raw `(capacity_bytes, misses)` samples plus the
    /// zero-capacity anchor. Samples are sorted and monotonicity is enforced
    /// by running minimum (sampling noise can make a larger cache look
    /// worse; the paper interpolates the same way).
    pub fn from_samples(total_accesses: f64, mut samples: Vec<(u64, f64)>) -> Self {
        samples.sort_by_key(|&(c, _)| c);
        let mut points = Vec::with_capacity(samples.len() + 1);
        points.push((0, total_accesses));
        let mut floor = total_accesses;
        for (c, m) in samples {
            if c == 0 {
                continue;
            }
            floor = floor.min(m);
            points.push((c, floor));
        }
        MissCurve { points }
    }

    /// A degenerate curve for an unsampled stream: assumes no capacity helps
    /// beyond a token amount (the runtime treats such streams
    /// conservatively).
    pub fn flat(total_accesses: f64) -> Self {
        MissCurve { points: vec![(0, total_accesses)] }
    }

    /// The `(capacity, misses)` points, ascending capacity.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Estimated misses at `capacity` (linear interpolation between points;
    /// flat beyond the last point).
    pub fn misses_at(&self, capacity: u64) -> f64 {
        match self.points.binary_search_by_key(&capacity, |&(c, _)| c) {
            Ok(i) => self.points[i].1,
            Err(0) => self.points[0].1,
            Err(i) if i == self.points.len() => self.points[i - 1].1,
            Err(i) => {
                let (c0, m0) = self.points[i - 1];
                let (c1, m1) = self.points[i];
                let t = (capacity - c0) as f64 / (c1 - c0) as f64;
                m0 + (m1 - m0) * t
            }
        }
    }

    /// The *lookahead* segment beyond `capacity`: among all larger curve
    /// points, the one with the steepest average slope (misses saved per
    /// byte) from the current position — the classic UCP/Jigsaw lookahead
    /// rule, which steps over convex plateaus that a next-point-only search
    /// would stall on.
    pub fn next_segment(&self, capacity: u64) -> Option<(u64, f64)> {
        self.segment_from(capacity, self.misses_at(capacity))
    }

    /// [`MissCurve::next_segment`] given `cur = self.misses_at(capacity)`.
    pub(crate) fn segment_from(&self, capacity: u64, cur: f64) -> Option<(u64, f64)> {
        let beyond = self.points.partition_point(|&(c, _)| c <= capacity);
        let mut best: Option<(u64, f64)> = None;
        for &(c, m) in &self.points[beyond..] {
            let slope = (cur - m).max(0.0) / (c - capacity) as f64;
            if best.is_none_or(|(_, bs)| slope > bs) {
                best = Some((c, slope));
            }
        }
        best.filter(|&(_, slope)| slope > 0.0)
    }
}

/// Geometric capacity points from `min_cap` to `max_cap` (paper: 64 points
/// from 32 kB to the full per-unit space, factor ≈1.16).
pub fn capacity_points(min_cap: u64, max_cap: u64, count: usize) -> Vec<u64> {
    assert!(count >= 2, "need at least two capacity points");
    let min_cap = min_cap.max(1).min(max_cap);
    let ratio = (max_cap as f64 / min_cap as f64).powf(1.0 / (count - 1) as f64);
    let mut points: Vec<u64> =
        (0..count).map(|i| (min_cap as f64 * ratio.powi(i as i32)).round() as u64).collect();
    points.dedup();
    if let Some(last) = points.last_mut() {
        *last = max_cap;
    }
    points
}

/// Bits of `mix64(key)` that pick a candidate-index bucket.
const BUCKET_BITS: u32 = 12;
/// Buckets in a candidate index.
const BUCKETS: usize = 1 << BUCKET_BITS;

/// One capacity case's fixed parameters: `slots` is its slot count,
/// `stride` the divisibility test of its monitoring stride
/// `(slots / monitored).max(1)`, and its `monitored` sets start at `base`
/// in [`SetSampler::sets`].
#[derive(Debug, Clone, Copy)]
struct Case {
    slots: u64,
    stride: MultipleTest,
    monitored: u64,
    base: usize,
}

impl Case {
    /// The case's slot for a mixed key: multiply-shift range reduction.
    #[inline]
    fn slot_of(&self, mixed: u64) -> u64 {
        ((u128::from(mixed) * u128::from(self.slots)) >> 64) as u64
    }

    /// The monitored set a mixed key lands in, or `None` when the case
    /// does not sample it. A sampled slot is a multiple of the stride, and
    /// the divisibility test's rotated product is then the exact quotient
    /// `slot / stride`, which is below `2 · monitored` (the stride is
    /// `⌊slots / monitored⌋`), so one conditional subtraction reduces it
    /// mod `monitored`.
    #[inline]
    fn set_of(&self, mixed: u64) -> Option<usize> {
        let q = self.stride.quotient(self.slot_of(mixed))?;
        debug_assert!(q < 2 * self.monitored, "quotient {q} of {self:?}");
        let set = if q >= self.monitored { q - self.monitored } else { q };
        Some(self.base + set as usize)
    }
}

/// The smallest mixed key whose slot among `slots` is at least `j`
/// (`j ≤ slots`): `⌈j · 2⁶⁴ / slots⌉`, so `2⁶⁴` for `j = slots`.
fn first_mixed_of_slot(j: u64, slots: u64) -> u128 {
    ((u128::from(j) << 64) + u128::from(slots - 1)) / u128::from(slots)
}

/// Everything about a sampler that its capacity points, slot grain and
/// set count fix: the cases and the candidate index. Samplers of one
/// shape share it (see [`SetSampler::with_shape`]); only their counters
/// and set contents are their own.
///
/// The candidate index lists, for each of the `2¹²` buckets of the top
/// bits of `mix64(key)`, every case that samples some key in the bucket,
/// as one mask word per 64 cases. A case samples the keys whose slot is a
/// multiple of its stride; each such slot is one interval of mixed keys,
/// and there are at most `2 · monitored` of them, so the index is built
/// from interval bounds in integer arithmetic. The index is a simulator
/// cache (32 KB per 64 cases), not modelled hardware storage.
#[derive(Debug)]
pub struct SamplerShape {
    capacities: Vec<u64>,
    grain: u64,
    k: usize,
    cases: Vec<Case>,
    /// Total monitored sets over all cases.
    sets: usize,
    /// Mask words per bucket (`⌈cases / 64⌉`).
    words: usize,
    /// Bucket-major candidate masks: bit `i % 64` of word
    /// `bucket · words + i / 64` is set iff case `i` samples some key in
    /// the bucket.
    index: Vec<u64>,
}

impl SamplerShape {
    /// The shape of a sampler over `capacities` for a stream cached at
    /// `grain` bytes per slot, monitoring up to `k` sets per case.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `grain` is zero.
    pub fn new(capacities: &[u64], grain: u64, k: usize) -> Self {
        assert!(k > 0, "need at least one sample set");
        assert!(grain > 0, "slot granularity must be positive");
        let words = capacities.len().div_ceil(64);
        let mut index = vec![0u64; BUCKETS * words];
        let mut cases = Vec::with_capacity(capacities.len());
        let mut base = 0;
        for (i, &capacity) in capacities.iter().enumerate() {
            let slots = (capacity / grain).max(1);
            let monitored = k.min(slots as usize) as u64;
            let stride = (slots / monitored).max(1);
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            for j in (0..slots).step_by(stride as usize) {
                let first = (first_mixed_of_slot(j, slots) >> (64 - BUCKET_BITS)) as usize;
                let last = ((first_mixed_of_slot(j + 1, slots) - 1) >> (64 - BUCKET_BITS)) as usize;
                for bucket in first..=last {
                    index[bucket * words + word] |= bit;
                }
            }
            cases.push(Case {
                slots,
                stride: Divisor::new(stride).multiple_test(),
                monitored,
                base,
            });
            base += monitored as usize;
        }
        SamplerShape { capacities: capacities.to_vec(), grain, k, cases, sets: base, words, index }
    }

    /// Whether this is the shape `SamplerShape::new(capacities, grain, k)`
    /// would build.
    pub fn matches(&self, capacities: &[u64], grain: u64, k: usize) -> bool {
        self.grain == grain && self.k == k && self.capacities == capacities
    }

    /// The candidate masks of the bucket a mixed key falls in.
    #[inline]
    fn candidates(&self, mixed: u64) -> &[u64] {
        let bucket = (mixed >> (64 - BUCKET_BITS)) as usize;
        &self.index[bucket * self.words..(bucket + 1) * self.words]
    }
}

/// Hit and miss counts of one capacity case.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    hits: u64,
    misses: u64,
}

/// One hardware sampler, watching one stream at one unit.
///
/// Storage per the paper: `k` sets × `c` cases × 4 B ≈ 8 kB, held here
/// as one contiguous set buffer, case-major. The hardware checks its `c`
/// cases in parallel; [`SetSampler::observe`] visits only the cases the
/// shape's candidate index lists for the access's bucket.
#[derive(Debug, Clone)]
pub struct SetSampler {
    shape: Arc<SamplerShape>,
    counts: Vec<Counts>,
    /// Sampled-set contents of every case, case-major: key + 1 per
    /// monitored set (0 = empty).
    sets: Vec<u64>,
}

impl SetSampler {
    /// Creates a sampler over the given capacity points for a stream whose
    /// caching granularity is `grain` bytes per slot.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or `grain` is zero.
    pub fn new(capacities: &[u64], grain: u64, k: usize) -> Self {
        Self::with_shape(Arc::new(SamplerShape::new(capacities, grain, k)))
    }

    /// Creates an empty sampler of a shared shape.
    pub fn with_shape(shape: Arc<SamplerShape>) -> Self {
        SetSampler {
            counts: vec![Counts::default(); shape.cases.len()],
            sets: vec![0; shape.sets],
            shape,
        }
    }

    /// Observes one access to the stream (key = slot-granularity index).
    ///
    /// One hashed draw serves every capacity case: `hash_range(key, n)` is
    /// a multiply-shift range reduction of `mix64(key)`, so hoisting the
    /// mix leaves each case a single widening multiply, and the candidate
    /// index narrows the cases to those that can sample the draw's bucket.
    /// The index may list a case that does not sample this very key; the
    /// case's own filter decides, exactly as if every case were tested.
    pub fn observe(&mut self, key: u64) {
        let mixed = mix64(key);
        let tag = key + 1;
        let shape = &*self.shape;
        for (word, &mask) in shape.candidates(mixed).iter().enumerate() {
            let mut mask = mask;
            while mask != 0 {
                let i = word * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let Some(idx) = shape.cases[i].set_of(mixed) else { continue };
                // Branch-free: whether a sampled access hits is data, and
                // a hit rewrites the tag it matched.
                let hit = self.sets[idx] == tag;
                self.sets[idx] = tag;
                let counts = &mut self.counts[i];
                counts.hits += u64::from(hit);
                counts.misses += u64::from(!hit);
            }
        }
    }

    /// Zeroes hit/miss counters while keeping the shadow-set contents, so a
    /// new epoch's curve is not dominated by cold-start misses.
    pub fn reset_counters(&mut self) {
        self.counts.fill(Counts::default());
    }

    /// Total observations at the smallest-capacity case (every case sees a
    /// k/slots fraction; this is a health metric, not a rate).
    pub fn observed(&self) -> u64 {
        self.counts.first().map_or(0, |c| c.hits + c.misses)
    }

    /// Builds the absolute miss curve, scaling sampled miss *rates* by the
    /// stream's total epoch access count.
    pub fn curve(&self, total_accesses: u64) -> MissCurve {
        let samples = self
            .shape
            .capacities
            .iter()
            .zip(&self.counts)
            .map(|(&capacity, c)| {
                let seen = c.hits + c.misses;
                let rate = if seen == 0 { 1.0 } else { c.misses as f64 / seen as f64 };
                (capacity, rate * total_accesses as f64)
            })
            .collect();
        MissCurve::from_samples(total_accesses as f64, samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpx_sim::rng::Xoshiro256;

    #[test]
    fn capacity_points_are_geometric() {
        let pts = capacity_points(32 << 10, 256 << 20, 64);
        assert!(pts.len() >= 2);
        assert_eq!(*pts.first().unwrap(), 32 << 10);
        assert_eq!(*pts.last().unwrap(), 256 << 20);
        // Paper's factor: 63rd root of 8192 ≈ 1.154.
        let ratio = pts[1] as f64 / pts[0] as f64;
        assert!((ratio - 1.154).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn curve_interpolates_monotonically() {
        let c = MissCurve::from_samples(1000.0, vec![(100, 600.0), (200, 200.0), (400, 250.0)]);
        assert_eq!(c.misses_at(0), 1000.0);
        assert_eq!(c.misses_at(100), 600.0);
        assert_eq!(c.misses_at(150), 400.0);
        // Monotonicity enforced: the noisy 250 at 400 is floored to 200.
        assert_eq!(c.misses_at(400), 200.0);
        assert_eq!(c.misses_at(1 << 20), 200.0);
    }

    #[test]
    fn next_segment_reports_slopes() {
        let c = MissCurve::from_samples(1000.0, vec![(100, 500.0), (200, 400.0)]);
        let (cap, slope) = c.next_segment(0).unwrap();
        assert_eq!(cap, 100);
        assert!((slope - 5.0).abs() < 1e-9);
        let (cap2, slope2) = c.next_segment(100).unwrap();
        assert_eq!(cap2, 200);
        assert!((slope2 - 1.0).abs() < 1e-9);
        assert_eq!(c.next_segment(200), None);
    }

    #[test]
    fn sampler_detects_working_set_size() {
        // A working set of 64 keys, each 64 B: fits in ≥4 kB.
        let caps = vec![1 << 10, 4 << 10, 16 << 10];
        let mut s = SetSampler::new(&caps, 64, 16);
        let mut rng = Xoshiro256::seed_from(1);
        for _ in 0..60_000 {
            s.observe(rng.below(64));
        }
        let curve = s.curve(60_000);
        let small = curve.misses_at(1 << 10);
        let big = curve.misses_at(16 << 10);
        assert!(small > big * 3.0, "1 kB should miss much more than 16 kB: {small} vs {big}");
        // With ample capacity, almost everything hits after warmup.
        assert!(big < 6_000.0, "16 kB misses too high: {big}");
    }

    #[test]
    fn sampler_scales_to_absolute_misses() {
        let mut s = SetSampler::new(&[1 << 10], 64, 8);
        // A scanning pattern never re-hits: miss rate ~1.
        for key in 0..10_000u64 {
            s.observe(key);
        }
        let curve = s.curve(1_000_000);
        assert!(curve.misses_at(1 << 10) > 900_000.0);
    }

    #[test]
    fn unsampled_stream_yields_flat_curve() {
        let c = MissCurve::flat(500.0);
        assert_eq!(c.misses_at(0), 500.0);
        assert_eq!(c.misses_at(1 << 30), 500.0);
        assert_eq!(c.next_segment(0), None);
    }

    /// Whether case `i` of `shape` samples a mixed key, by plain `%`.
    fn takes(shape: &SamplerShape, i: usize, mixed: u64) -> bool {
        let case = &shape.cases[i];
        let stride = (case.slots / case.monitored).max(1);
        case.slot_of(mixed).is_multiple_of(stride)
    }

    /// Whether the candidate index lists case `i` for a mixed key.
    fn listed(shape: &SamplerShape, i: usize, mixed: u64) -> bool {
        shape.candidates(mixed)[i / 64] & (1 << (i % 64)) != 0
    }

    #[test]
    fn every_taken_key_lands_in_a_bucket_listing_its_case() {
        let mut rng = Xoshiro256::seed_from(0x1DE7);
        for round in 0..40 {
            let n = 1 + rng.below(if round % 2 == 0 { 64 } else { 150 }) as usize;
            let caps: Vec<u64> = (0..n)
                .map(|_| {
                    let bits = 4 + rng.below(28);
                    1 + rng.below(1 << bits)
                })
                .collect();
            let grain = 1 + rng.below(2048);
            let k = 1 + rng.below(64) as usize;
            let shape = SamplerShape::new(&caps, grain, k);
            for i in 0..n {
                let case = shape.cases[i];
                let stride = (case.slots / case.monitored).max(1);
                // The ends of every sampled slot's interval of mixed keys,
                // the keys next to them, and random keys.
                let mut mixed: Vec<u64> = (0..case.slots)
                    .step_by(stride as usize)
                    .flat_map(|j| {
                        let first = first_mixed_of_slot(j, case.slots);
                        let last = first_mixed_of_slot(j + 1, case.slots) - 1;
                        [first, first.saturating_sub(1), last, last + 1]
                    })
                    .filter_map(|m| u64::try_from(m).ok())
                    .collect();
                mixed.extend((0..2_000).map(|key| mix64(rng.next_u64() ^ key)));
                for m in mixed {
                    if takes(&shape, i, m) {
                        assert!(listed(&shape, i, m), "case {i} of {caps:?} grain {grain} k {k}");
                        assert!(case.set_of(m).is_some());
                    } else {
                        assert_eq!(case.set_of(m), None);
                    }
                }
            }
            // A case whose every slot is monitored is listed everywhere.
            for (i, case) in shape.cases.iter().enumerate() {
                if case.slots / case.monitored <= 1 {
                    assert!((0..BUCKETS as u64).all(|b| listed(&shape, i, b << 52)));
                }
            }
        }
    }

    #[test]
    fn sampler_storage_matches_paper() {
        // k = 32 sets × c = 64 cases × 4 B = 8 kB per sampler.
        let caps = capacity_points(32 << 10, 256 << 20, 64);
        let s = SetSampler::new(&caps, 64, 32);
        let bytes = s.sets.len() * 4;
        assert!(bytes <= 8 << 10, "sampler storage {bytes} exceeds 8 kB");
    }
}
