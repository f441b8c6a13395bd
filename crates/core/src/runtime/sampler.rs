//! Set-based miss-curve samplers (paper §V-A).
//!
//! NDPExt's DRAM caches are set-partitioned (direct-mapped within a share),
//! so way-based utility monitors do not apply: set partitioning lacks the
//! stack property. Instead each hardware sampler shadows `c` capacity cases
//! simultaneously; for each case it monitors `k` hashed sample sets (4 bytes
//! of address each) and counts hits/misses. Scaling the sampled miss rate by
//! the stream's total access count yields the absolute miss curve.

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

/// The per-case test every access runs: `slots` is the case's slot count,
/// `stride` the divisibility test of its monitoring stride
/// `(slots / monitored).max(1)`. Packed apart from the rest of the case so
/// the loop in [`SetSampler::observe`] streams through 32 bytes per case.
#[derive(Debug, Clone, Copy)]
struct Filter {
    slots: u64,
    stride: MultipleTest,
}

impl Filter {
    /// The case's slot for a mixed key: multiply-shift range reduction.
    #[inline]
    fn slot_of(&self, mixed: u64) -> u64 {
        ((u128::from(mixed) * u128::from(self.slots)) >> 64) as u64
    }
}

/// The per-case state read only when a case's filter passes.
#[derive(Debug, Clone)]
struct CapCase {
    capacity: u64,
    /// Strength-reduced monitoring stride (a hardware divide per passing
    /// case would serialize the loop).
    stride_div: Divisor,
    /// Strength-reduced monitored-set count, for the set index.
    monitored_div: Divisor,
    /// Start of this case's monitored sets in [`SetSampler::sets`].
    base: usize,
    hits: u64,
    misses: u64,
}

/// One hardware sampler, watching one stream at one unit.
///
/// Storage per the paper: `k` sets × `c` cases × 4 B ≈ 8 kB. The cases
/// are laid out as parallel arrays over one contiguous set buffer: every
/// access walks only the packed `filters`, and touches a case's divisors,
/// counters and sets only when its filter passes.
#[derive(Debug, Clone)]
pub struct SetSampler {
    filters: Vec<Filter>,
    cases: Vec<CapCase>,
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
        assert!(k > 0, "need at least one sample set");
        assert!(grain > 0, "slot granularity must be positive");
        let mut filters = Vec::with_capacity(capacities.len());
        let mut cases = Vec::with_capacity(capacities.len());
        let mut base = 0;
        for &capacity in capacities {
            let slots = (capacity / grain).max(1);
            let monitored = k.min(slots as usize) as u64;
            let stride_div = Divisor::new((slots / monitored).max(1));
            filters.push(Filter { slots, stride: stride_div.multiple_test() });
            cases.push(CapCase {
                capacity,
                stride_div,
                monitored_div: Divisor::new(monitored),
                base,
                hits: 0,
                misses: 0,
            });
            base += monitored as usize;
        }
        SetSampler { filters, cases, sets: vec![0; base] }
    }

    /// Observes one access to the stream (key = slot-granularity index).
    ///
    /// One hashed draw serves every capacity case: `hash_range(key, n)` is
    /// a multiply-shift range reduction of `mix64(key)`, so hoisting the
    /// mix out of the loop leaves each case a single widening multiply —
    /// the same bits `hash_range` would produce per case, at a fraction of
    /// the cost (the mix is three xor-shift-multiply rounds, and a sampled
    /// stream pays it per capacity point per access).
    pub fn observe(&mut self, key: u64) {
        let mixed = mix64(key);
        let tag = key + 1;
        for (chunk, filters) in self.filters.chunks(64).enumerate() {
            // Straight-line pass listing the cases whose filter takes this
            // access. Few do, so only those pay for the set lookup.
            let mut taken = [0u8; 64];
            let mut n = 0;
            for (i, f) in filters.iter().enumerate() {
                taken[n] = i as u8;
                n += usize::from(f.stride.is_multiple(f.slot_of(mixed)));
            }
            for &i in &taken[..n] {
                let i = chunk * 64 + usize::from(i);
                let case = &mut self.cases[i];
                let slot = self.filters[i].slot_of(mixed);
                let idx = case.base + case.monitored_div.rem(case.stride_div.div(slot)) as usize;
                if self.sets[idx] == tag {
                    case.hits += 1;
                } else {
                    case.misses += 1;
                    self.sets[idx] = tag;
                }
            }
        }
    }

    /// Zeroes hit/miss counters while keeping the shadow-set contents, so a
    /// new epoch's curve is not dominated by cold-start misses.
    pub fn reset_counters(&mut self) {
        for case in &mut self.cases {
            case.hits = 0;
            case.misses = 0;
        }
    }

    /// Total observations at the smallest-capacity case (every case sees a
    /// k/slots fraction; this is a health metric, not a rate).
    pub fn observed(&self) -> u64 {
        self.cases.first().map_or(0, |c| c.hits + c.misses)
    }

    /// Builds the absolute miss curve, scaling sampled miss *rates* by the
    /// stream's total epoch access count.
    pub fn curve(&self, total_accesses: u64) -> MissCurve {
        let samples = self
            .cases
            .iter()
            .map(|c| {
                let seen = c.hits + c.misses;
                let rate = if seen == 0 { 1.0 } else { c.misses as f64 / seen as f64 };
                (c.capacity, rate * total_accesses as f64)
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

    #[test]
    fn sampler_storage_matches_paper() {
        // k = 32 sets × c = 64 cases × 4 B = 8 kB per sampler.
        let caps = capacity_points(32 << 10, 256 << 20, 64);
        let s = SetSampler::new(&caps, 64, 32);
        let bytes = s.sets.len() * 4;
        assert!(bytes <= 8 << 10, "sampler storage {bytes} exceeds 8 kB");
    }
}
