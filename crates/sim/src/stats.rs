//! Statistics primitives: counters, mean accumulators, and histograms.
//!
//! The system models accumulate into these small value types and the bench
//! harness reads them out at the end of a run; nothing here is thread-shared.

use crate::time::Time;

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use ndpx_sim::stats::Counter;
///
/// let mut hits = Counter::default();
/// hits.inc();
/// hits.add(2);
/// assert_eq!(hits.get(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// This counter as a fraction of `total` (0.0 if `total` is zero).
    pub fn ratio_of(self, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            self.0 as f64 / total as f64
        }
    }
}

/// Accumulates a total duration and a sample count; reports the mean.
///
/// # Examples
///
/// ```
/// use ndpx_sim::stats::LatencyStat;
/// use ndpx_sim::time::Time;
///
/// let mut s = LatencyStat::default();
/// s.record(Time::from_ns(10));
/// s.record(Time::from_ns(30));
/// assert_eq!(s.mean().as_ns(), 20);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyStat {
    total: Time,
    count: u64,
}

impl LatencyStat {
    /// Creates an empty statistic.
    pub const fn new() -> Self {
        LatencyStat { total: Time::ZERO, count: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, t: Time) {
        self.total += t;
        self.count += 1;
    }

    /// Sum of all samples.
    pub const fn total(&self) -> Time {
        self.total
    }

    /// Number of samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value ([`Time::ZERO`] when empty).
    pub fn mean(&self) -> Time {
        match self.total.as_ps().checked_div(self.count) {
            Some(ps) => Time::from_ps(ps),
            None => Time::ZERO,
        }
    }

    /// Merges another statistic into this one.
    pub fn merge(&mut self, other: &LatencyStat) {
        self.total += other.total;
        self.count += other.count;
    }
}

/// Accumulates a running sum and count of dimensionless samples; reports the
/// mean. The unit-agnostic sibling of [`LatencyStat`], used by the stat
/// registry for ratios, occupancies, and other non-time means.
///
/// # Examples
///
/// ```
/// use ndpx_sim::stats::MeanAcc;
///
/// let mut m = MeanAcc::default();
/// m.record(1.0);
/// m.record(3.0);
/// assert_eq!(m.mean(), 2.0);
/// assert_eq!(MeanAcc::default().mean(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanAcc {
    sum: f64,
    count: u64,
}

impl MeanAcc {
    /// Creates an empty accumulator.
    pub const fn new() -> Self {
        MeanAcc { sum: 0.0, count: 0 }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.sum += v;
        self.count += 1;
    }

    /// Sum of all samples.
    pub const fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value (`0.0` when empty — an empty accumulator never
    /// reports NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &MeanAcc) {
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A base-2 logarithmic latency histogram with percentile readout.
///
/// Bucket `i` covers latencies in `[2^i, 2^(i+1))` nanoseconds, with bucket 0
/// also absorbing sub-nanosecond samples. Alongside the buckets the histogram
/// tracks the exact sample count and total, so the mean is exact while the
/// percentiles are bucket-floor approximations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: Time,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Buckets cover up to 2^31 ns (~2 s), far beyond any access latency.
    const BUCKETS: usize = 32;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { buckets: vec![0; Self::BUCKETS], total: Time::ZERO }
    }

    /// Records one duration.
    #[inline]
    pub fn record(&mut self, t: Time) {
        self.record_n(t, 1);
    }

    /// Records `n` samples of the same duration: the same histogram as `n`
    /// calls of [`record`](Self::record).
    #[inline]
    pub fn record_n(&mut self, t: Time, n: u64) {
        let ns = t.as_ns();
        let idx =
            if ns == 0 { 0 } else { (63 - ns.leading_zeros() as usize).min(Self::BUCKETS - 1) };
        self.buckets[idx] += n;
        self.total += t * n;
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of all samples.
    pub const fn total(&self) -> Time {
        self.total
    }

    /// Exact mean sample value ([`Time::ZERO`] when empty).
    pub fn mean(&self) -> Time {
        match self.total.as_ps().checked_div(self.count()) {
            Some(ps) => Time::from_ps(ps),
            None => Time::ZERO,
        }
    }

    /// Iterator of `(bucket_floor_ns, count)` for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The samples recorded since `earlier`, an earlier copy of this
    /// histogram: every bucket count and the total minus `earlier`'s. Exact,
    /// since both are integers.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `earlier` holds a sample this histogram
    /// does not.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        Histogram {
            buckets: self.buckets.iter().zip(&earlier.buckets).map(|(a, b)| a - b).collect(),
            total: self.total - earlier.total,
        }
    }

    /// An approximate percentile (by bucket floor). `p` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Time {
        assert!((0.0..=1.0).contains(&p), "percentile must be within [0, 1]");
        let total = self.count();
        if total == 0 {
            return Time::ZERO;
        }
        let target = (p * total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let floor_ns = if i == 0 { 0 } else { 1u64 << i };
                return Time::from_ns(floor_ns);
            }
        }
        Time::from_ns(1 << (Self::BUCKETS - 1))
    }

    /// Median latency (bucket floor).
    pub fn p50(&self) -> Time {
        self.percentile(0.50)
    }

    /// 95th-percentile latency (bucket floor).
    pub fn p95(&self) -> Time {
        self.percentile(0.95)
    }

    /// 99th-percentile latency (bucket floor).
    pub fn p99(&self) -> Time {
        self.percentile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert!((c.ratio_of(40) - 0.25).abs() < 1e-12);
        assert_eq!(c.ratio_of(0), 0.0);
    }

    #[test]
    fn latency_mean_and_merge() {
        let mut a = LatencyStat::new();
        a.record(Time::from_ns(4));
        let mut b = LatencyStat::new();
        b.record(Time::from_ns(8));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().as_ns(), 6);
        assert_eq!(LatencyStat::new().mean(), Time::ZERO);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(Time::from_ns(2));
        }
        for _ in 0..10 {
            h.record(Time::from_ns(1024));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.5).as_ns(), 2);
        assert_eq!(h.percentile(0.99).as_ns(), 1024);
        let buckets: Vec<_> = h.iter().collect();
        assert_eq!(buckets, vec![(2, 90), (1024, 10)]);
    }

    #[test]
    fn record_n_equals_n_records() {
        // Sub-ns, bucket-interior, power-of-two and top-bucket durations,
        // each on top of a prior sample so the totals add.
        for ps in [0, 999, 1500, 2_000, 64_000, 4_000_000_000_000] {
            for n in [0u64, 1, 2, 7, 1000] {
                let t = Time::from_ps(ps);
                let (mut bulk, mut one_by_one) = (Histogram::new(), Histogram::new());
                bulk.record(Time::from_ns(3));
                one_by_one.record(Time::from_ns(3));
                bulk.record_n(t, n);
                for _ in 0..n {
                    one_by_one.record(t);
                }
                assert_eq!(bulk, one_by_one, "{ps} ps x {n}");
            }
        }
    }

    #[test]
    fn since_equals_a_histogram_of_the_later_samples() {
        let early = [0, 999, 1500, 64_000];
        let late = [2_000, 999, 4_000_000_000_000, 0, 1500];
        let mut cumulative = Histogram::new();
        for ps in early {
            cumulative.record(Time::from_ps(ps));
        }
        let closed = cumulative.clone();
        let mut only_late = Histogram::new();
        for ps in late {
            cumulative.record(Time::from_ps(ps));
            only_late.record(Time::from_ps(ps));
        }
        cumulative.record_n(Time::from_ns(3), 1000);
        only_late.record_n(Time::from_ns(3), 1000);
        assert_eq!(cumulative.since(&closed), only_late);
        assert_eq!(cumulative.since(&cumulative), Histogram::new(), "nothing since itself");
        assert_eq!(cumulative.since(&Histogram::new()), cumulative);
    }

    #[test]
    fn histogram_zero_and_huge() {
        let mut h = Histogram::new();
        h.record(Time::ZERO);
        h.record(Time::from_us(4_000_000)); // 4s, clamps to top bucket
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::new();
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.percentile(p), Time::ZERO);
        }
        assert_eq!(h.mean(), Time::ZERO);
        assert_eq!(h.iter().count(), 0, "empty histogram exposes no buckets");
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(Time::from_ns(300)); // bucket [256, 512)
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p).as_ns(), 256, "p={p}");
        }
        // p=0 has target 0, which the very first (empty) bucket satisfies —
        // the 0th percentile is the distribution's floor, not a sample.
        assert_eq!(h.percentile(0.0), Time::ZERO);
        assert_eq!(h.mean().as_ns(), 300, "mean is exact, not bucket-floored");
    }

    #[test]
    fn all_equal_samples_collapse_to_one_bucket() {
        let mut h = Histogram::new();
        for _ in 0..10_000 {
            h.record(Time::from_ns(47)); // bucket [32, 64)
        }
        assert_eq!(h.p50().as_ns(), 32);
        assert_eq!(h.p95().as_ns(), 32);
        assert_eq!(h.p99().as_ns(), 32);
        assert_eq!(h.mean().as_ns(), 47);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(32, 10_000)]);
    }

    #[test]
    fn top_bucket_saturation_reports_top_floor() {
        let mut h = Histogram::new();
        // Everything at or above 2^31 ns lands in the last bucket, including
        // durations whose log2 exceeds the bucket range.
        h.record(Time::from_ns(1 << 31));
        h.record(Time::from_ns(u64::MAX >> 12));
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50().as_ns(), 1 << 31);
        assert_eq!(h.percentile(1.0).as_ns(), 1 << 31);
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![(1 << 31, 2)]);
        // A mix stays monotone: p50 in a low bucket, p99 saturated at top.
        let mut m = Histogram::new();
        for _ in 0..99 {
            m.record(Time::from_ns(8));
        }
        m.record(Time::from_ns(u64::MAX >> 12));
        assert_eq!(m.p50().as_ns(), 8);
        assert_eq!(m.p99().as_ns(), 8);
        assert_eq!(m.percentile(1.0).as_ns(), 1 << 31);
    }
}
