//! Simulated time.
//!
//! All simulated time in the workspace is expressed in integer **picoseconds**
//! wrapped in the [`Time`] newtype. Picosecond resolution lets the models mix
//! a 2 GHz core clock (500 ps), sub-nanosecond DRAM clocks (HBM3-1600:
//! 625 ps), and NoC hop latencies (1.5 ns) without rounding error.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in picoseconds.
///
/// `Time` is used both as an absolute timestamp and as a duration; the
/// arithmetic is identical and the simulator never needs a wall-clock epoch.
///
/// # Examples
///
/// ```
/// use ndpx_sim::time::Time;
///
/// let hop = Time::from_ns(10);
/// let t = Time::ZERO + hop * 3;
/// assert_eq!(t.as_ns(), 30);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Time zero (the beginning of the simulation, or an empty duration).
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000_000)
    }

    /// Creates a time from fractional nanoseconds, rounding to picoseconds
    /// (half away from zero; see [`round_to_u64`]).
    ///
    /// Handy for datasheet values such as "1.5 ns per hop".
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0, "negative durations are not representable");
        Time(round_to_u64(ns * 1_000.0))
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - other`, or [`Time::ZERO`] if negative.
    #[inline]
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// True if this is [`Time::ZERO`].
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `x.round() as u64` for every `f64`, including the cast's saturation
/// (negative and NaN give 0, at or above 2⁶⁴ gives `u64::MAX`), without
/// `f64::round`, which the baseline x86-64 target lowers to a library
/// call. Below 2⁵³ the truncating cast to `i64` (one instruction) is
/// exact and so is `x - whole`: it is the fraction, and rounding half away
/// from zero adds one when the fraction is at least one half.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    if (0.0..TWO_POW_53).contains(&x) {
        let whole = x as i64;
        (whole + i64::from(x - whole as f64 >= 0.5)) as u64
    } else {
        // Integral from 2⁵³ up, so the cast is the rounding. A negative
        // input rounds to 0 or below and NaN stays NaN; the cast
        // saturates both to 0.
        x as u64
    }
}

/// 2⁵³: every `f64` from here up is an integer.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "time underflow: {self:?} - {rhs:?}");
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        debug_assert!(self.0 >= rhs.0, "time underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A clock frequency, used to convert between cycles and [`Time`].
///
/// # Examples
///
/// ```
/// use ndpx_sim::time::Freq;
///
/// let core = Freq::from_ghz(2.0);
/// assert_eq!(core.cycle().as_ps(), 500);
/// assert_eq!(core.cycles_to_time(4).as_ns(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    cycle_ps: u64,
}

impl Freq {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero.
    pub const fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "frequency must be positive");
        Freq { cycle_ps: 1_000_000 / mhz }
    }

    /// Creates a frequency from gigahertz (rounded to a picosecond period).
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive");
        Freq { cycle_ps: (1_000.0 / ghz).round() as u64 }
    }

    /// The duration of one clock cycle.
    #[inline]
    pub const fn cycle(self) -> Time {
        Time(self.cycle_ps)
    }

    /// Converts a cycle count to a duration.
    #[inline]
    pub const fn cycles_to_time(self, cycles: u64) -> Time {
        Time(self.cycle_ps * cycles)
    }

    /// Converts a duration to whole cycles (truncating).
    #[inline]
    pub const fn time_to_cycles(self, t: Time) -> u64 {
        t.as_ps() / self.cycle_ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Time::from_ns(3).as_ps(), 3_000);
        assert_eq!(Time::from_us(2).as_ns(), 2_000);
        assert_eq!(Time::from_ns_f64(1.5).as_ps(), 1_500);
        assert_eq!(Time::from_ps(123).as_ns(), 0);
    }

    #[test]
    fn rounding_matches_f64_round() {
        use crate::rng::Xoshiro256;
        let two52 = 4_503_599_627_370_496.0;
        let two64 = 18_446_744_073_709_551_616.0;
        let mut inputs = vec![
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            -0.4,
            -0.5,
            -0.6,
            -1.5,
            -1e300,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            two52 * 2.0 - 1.0,
            two52 * 2.0,
            two52 * 2.0 + 2.0,
            two64 - 2048.0,
            two64,
            two64 * 2.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let mut rng = Xoshiro256::seed_from(0x0B0D);
        for _ in 0..10_000 {
            let k = rng.below(1 << 40) as f64;
            let x = f64::from_bits(rng.next_u64());
            inputs.extend([k + 0.5, k - 0.5, k + 0.49999999999999994, x, -x, rng.next_f64() * 1e6]);
            let half = k + 0.5;
            inputs.extend([f64::from_bits(half.to_bits() - 1), f64::from_bits(half.to_bits() + 1)]);
        }
        for x in inputs {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e} ({:#x})", x.to_bits());
        }
        assert_eq!(Time::from_ns_f64(0.0015).as_ps(), 2);
        assert_eq!(Time::from_ns_f64(1e300), Time::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!((a + b).as_ns(), 14);
        assert_eq!((a - b).as_ns(), 6);
        assert_eq!((a * 3).as_ns(), 30);
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [1u64, 2, 3].iter().map(|&n| Time::from_ns(n)).sum();
        assert_eq!(total.as_ns(), 6);
    }

    #[test]
    fn freq_conversions() {
        let hbm = Freq::from_mhz(1600);
        assert_eq!(hbm.cycle().as_ps(), 625);
        assert_eq!(hbm.cycles_to_time(24).as_ps(), 15_000);
        let core = Freq::from_ghz(2.0);
        assert_eq!(core.time_to_cycles(Time::from_ns(10)), 20);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Time::from_ps(5).to_string(), "5ps");
        assert_eq!(Time::from_ns(5).to_string(), "5.000ns");
        assert_eq!(Time::from_us(5).to_string(), "5.000us");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "time underflow")]
    fn sub_underflow_panics_in_debug() {
        let _ = Time::from_ns(1) - Time::from_ns(2);
    }
}
