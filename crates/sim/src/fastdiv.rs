//! Exact strength-reduced division by runtime-constant divisors.
//!
//! The run loop's per-op cost is dominated by a handful of integer
//! divisions whose divisors are fixed at construction (line bytes, DRAM
//! row/bank geometry, affine-shape dimension lengths, sampler strides). A
//! hardware 64-bit divide is ~20–40 cycles and serializes; [`Divisor`]
//! precomputes the divisor's shape once and answers `div`/`rem`/
//! `is_multiple` with shifts and multiplies instead.
//!
//! Exactness contract: every operation returns *bit-identical* results to
//! the plain `/`, `%`, and `is_multiple_of` it replaces, for every input —
//! this is load-bearing for the simulator's digest stability. Power-of-two
//! divisors reduce to shift/mask (always exact); other divisors use a
//! Lemire magic multiply, which is proven exact for dividends below 2³²,
//! with an automatic fallback to the hardware divide above that (the
//! fallback branch compares against a constant and predicts perfectly in
//! the simulator, where dividends are element indices and addresses that
//! rarely cross 2³²). Divisibility testing uses the modular-inverse trick
//! (Hacker's Delight 10-17), exact for all 64-bit inputs.

/// A divisor with precomputed reduction constants.
///
/// # Examples
///
/// ```
/// use ndpx_sim::fastdiv::Divisor;
///
/// let d = Divisor::new(12);
/// assert_eq!(d.div(145), 145 / 12);
/// assert_eq!(d.rem(145), 145 % 12);
/// assert!(d.is_multiple(144));
/// assert!(!d.is_multiple(145));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Divisor {
    d: u64,
    kind: Kind,
    multiple: MultipleTest,
}

/// The divisibility test of a [`Divisor`] on its own: half the divisor's
/// size, for loops that test many divisors per input and divide only on
/// the rare multiple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultipleTest {
    /// Modular inverse of the odd part of `d` (mod 2⁶⁴).
    odd_inv: u64,
    /// `u64::MAX / d`: multiples of `d` map at or below this bound.
    limit: u64,
    /// Trailing zero bits of `d` (the power-of-two part).
    tz: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// `d` is a power of two: shift and mask.
    Pow2(u32),
    /// Lemire magic `ceil(2⁶⁴ / d)`: exact for dividends `< 2³²`.
    Magic(u64),
    /// Divisor too large for the 32-bit-dividend magic: hardware divide.
    Plain,
}

impl Divisor {
    /// Precomputes constants for divisor `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero divisor");
        let kind = if d.is_power_of_two() {
            Kind::Pow2(d.trailing_zeros())
        } else if d <= u64::from(u32::MAX) {
            // ceil(2^64 / d) for non-power-of-two d, computed without u128.
            Kind::Magic(u64::MAX / d + 1)
        } else {
            Kind::Plain
        };
        let tz = d.trailing_zeros();
        let odd = d >> tz;
        let multiple = MultipleTest { odd_inv: mod_inverse(odd), limit: u64::MAX / d, tz };
        Divisor { d, kind, multiple }
    }

    /// The divisor value.
    pub fn get(&self) -> u64 {
        self.d
    }

    /// `n / d`, exactly.
    #[inline]
    pub fn div(&self, n: u64) -> u64 {
        match self.kind {
            Kind::Pow2(s) => n >> s,
            Kind::Magic(m) => {
                if n > u64::from(u32::MAX) {
                    return n / self.d;
                }
                (((u128::from(m)) * u128::from(n)) >> 64) as u64
            }
            Kind::Plain => n / self.d,
        }
    }

    /// `n % d`, exactly.
    #[inline]
    pub fn rem(&self, n: u64) -> u64 {
        match self.kind {
            Kind::Pow2(s) => n & ((1u64 << s) - 1),
            _ => n - self.div(n) * self.d,
        }
    }

    /// `(n / d, n % d)` in one reduction.
    #[inline]
    pub fn divmod(&self, n: u64) -> (u64, u64) {
        match self.kind {
            Kind::Pow2(s) => (n >> s, n & ((1u64 << s) - 1)),
            _ => {
                let q = self.div(n);
                (q, n - q * self.d)
            }
        }
    }

    /// `n % d == 0`, exactly, for all 64-bit `n`; see
    /// [`MultipleTest::is_multiple`].
    #[inline]
    pub fn is_multiple(&self, n: u64) -> bool {
        self.multiple.is_multiple(n)
    }

    /// This divisor's divisibility test alone.
    pub fn multiple_test(&self) -> MultipleTest {
        self.multiple
    }
}

impl MultipleTest {
    /// `n % d == 0`, exactly, for all 64-bit `n` (no 2³² restriction):
    /// `d = odd · 2^k` divides `n` iff `n · odd⁻¹ (mod 2⁶⁴)` rotated right
    /// by `k` is at most `⌊(2⁶⁴−1)/d⌋` (Hacker's Delight 10-17). A set
    /// low bit of `n` rotates into the top `k` bits, above the bound. One
    /// multiply, one rotate, one compare, and no branch.
    #[inline]
    pub fn is_multiple(&self, n: u64) -> bool {
        self.quotient(n).is_some()
    }

    /// `Some(n / d)` if `d` divides `n`, else `None`, for all 64-bit `n`.
    /// For `n = q · d` the product `n · odd⁻¹` is `q · 2^k` (no wrap, as
    /// `q · 2^k ≤ n`), so the rotated value [`is_multiple`](Self::is_multiple)
    /// compares is the quotient itself.
    #[inline]
    pub fn quotient(&self, n: u64) -> Option<u64> {
        let q = n.wrapping_mul(self.odd_inv).rotate_right(self.tz);
        (q <= self.limit).then_some(q)
    }
}

/// Multiplicative inverse of odd `a` modulo 2⁶⁴ (Newton iteration).
fn mod_inverse(a: u64) -> u64 {
    debug_assert!(a & 1 == 1, "inverse needs an odd argument");
    // 5 Newton steps double the valid bits each time: 4 → 64.
    let mut x = a; // correct to 4 bits for odd a
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    #[test]
    fn matches_hardware_division_exhaustively() {
        let mut rng = Xoshiro256::seed_from(0xD1F_D1F);
        let mut divisors = vec![1, 2, 3, 4, 5, 6, 7, 8, 12, 63, 64, 65, 100, 4096, 1 << 20];
        divisors.extend((0..50).map(|_| rng.next_u64() % (1 << 34) + 1));
        divisors.extend((0..10).map(|_| rng.next_u64() | 1)); // huge odd
        for d in divisors {
            let fd = Divisor::new(d);
            let mut inputs =
                vec![0, 1, d - 1, d, d.wrapping_add(1), d.wrapping_mul(3), u64::MAX, u64::MAX - 1];
            inputs.extend((0..200).map(|_| rng.next_u64()));
            inputs.extend((0..200).map(|_| rng.next_u64() % (1 << 32)));
            inputs.extend((0..50).map(|i| d.wrapping_mul(i)));
            for n in inputs {
                assert_eq!(fd.div(n), n / d, "div n={n} d={d}");
                assert_eq!(fd.rem(n), n % d, "rem n={n} d={d}");
                assert_eq!(fd.divmod(n), (n / d, n % d), "divmod n={n} d={d}");
                assert_eq!(fd.is_multiple(n), n % d == 0, "is_multiple n={n} d={d}");
                let quotient = fd.multiple_test().quotient(n);
                assert_eq!(quotient, (n % d == 0).then_some(n / d), "quotient n={n} d={d}");
            }
        }
    }

    #[test]
    fn mod_inverse_is_exact() {
        let mut rng = Xoshiro256::seed_from(7);
        for _ in 0..1000 {
            let a = rng.next_u64() | 1;
            assert_eq!(a.wrapping_mul(mod_inverse(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero divisor")]
    fn zero_divisor_panics() {
        let _ = Divisor::new(0);
    }
}
