//! The previous `SetSampler`, kept verbatim as a test oracle.
//!
//! Each capacity case used to own its shadow sets as a separate heap
//! vector next to two full divisors, and every access tested every case.
//! The production sampler keeps one contiguous set buffer, tests only the
//! cases its candidate index lists for the access, and takes the set index
//! from the divisibility test's quotient; it must count exactly the same
//! hits and misses, and `prop_runtime.rs` compares the two on seeded random
//! streams.

use ndpx_core::runtime::sampler::MissCurve;
use ndpx_sim::fastdiv::Divisor;
use ndpx_sim::rng::mix64;

#[derive(Debug, Clone)]
struct CapCase {
    capacity: u64,
    slots: u64,
    /// Strength-reduced monitoring stride `(slots / sets.len()).max(1)` —
    /// the per-access filter is the dominant cost of a sampled stream, and
    /// a hardware divide per case per access serializes the whole case
    /// loop.
    stride_div: Divisor,
    /// Strength-reduced `sets.len()` for the monitored-set index.
    monitored_div: Divisor,
    /// Sampled-set contents: key + 1 per monitored set (0 = empty).
    sets: Vec<u64>,
    hits: u64,
    misses: u64,
}

/// One hardware sampler, watching one stream at one unit.
///
/// Storage per the paper: `k` sets × `c` cases × 4 B ≈ 8 kB.
#[derive(Debug, Clone)]
pub struct SetSampler {
    cases: Vec<CapCase>,
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
        let cases = capacities
            .iter()
            .map(|&capacity| {
                let slots = (capacity / grain).max(1);
                let monitored = k.min(slots as usize) as u64;
                let stride = (slots / monitored).max(1);
                CapCase {
                    capacity,
                    slots,
                    stride_div: Divisor::new(stride),
                    monitored_div: Divisor::new(monitored),
                    sets: vec![0; monitored as usize],
                    hits: 0,
                    misses: 0,
                }
            })
            .collect();
        SetSampler { cases }
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
        for case in &mut self.cases {
            let slot = ((u128::from(mixed) * u128::from(case.slots)) >> 64) as u64;
            if !case.stride_div.is_multiple(slot) {
                continue;
            }
            let idx = case.monitored_div.rem(case.stride_div.div(slot)) as usize;
            if case.sets[idx] == tag {
                case.hits += 1;
            } else {
                case.misses += 1;
                case.sets[idx] = tag;
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
