//! Counters, gauges and log₂-bucketed histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing named counter. Handles are cheap clones
/// of one shared atomic; [`Counter::add`] is a single relaxed
/// fetch-add.
#[derive(Debug, Clone)]
pub struct Counter(pub(crate) Arc<AtomicU64>);

impl Counter {
    pub(crate) fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named instantaneous level. Counters are monotonic by contract;
/// quantities that go *down* again — queue depth, damper slot occupancy,
/// in-flight cells — need set/add/sub semantics, which is exactly what a
/// gauge is. Handles are cheap clones of one shared atomic.
#[derive(Debug, Clone)]
pub struct Gauge(pub(crate) Arc<AtomicI64>);

impl Gauge {
    pub(crate) fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Overwrites the level.
    #[inline]
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: values 0, 1, 2–3, 4–7, … up to `u64::MAX`.
pub const BUCKETS: usize = 65;

#[derive(Debug)]
pub(crate) struct HistogramInner {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
}

/// A log₂-bucketed histogram of `u64` samples (bucket *i* holds values
/// whose bit length is *i*, i.e. `[2^(i-1), 2^i)`, with bucket 0 for
/// zero). Good enough to read off medians and tails of durations and
/// queue depths without per-sample storage.
#[derive(Debug, Clone)]
pub struct Histogram(pub(crate) Arc<HistogramInner>);

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The lower bound of bucket `i` (inclusive).
    pub fn bucket_floor(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, value: u64) {
        self.0.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Folds samples a caller counted locally into this histogram,
    /// zeroes the locals and returns how many samples it added:
    /// `buckets[i]` samples fell into bucket `i` (see
    /// [`Histogram::bucket_of`]) and `sum` is their total. A hot loop
    /// that counts into a plain array and calls this once per batch
    /// pays a few relaxed RMWs per batch instead of three per sample;
    /// the result is the same as observing each sample.
    pub fn add_counts(&self, buckets: &mut [u64; BUCKETS], sum: &mut u64) -> u64 {
        let mut count = 0;
        for (mine, local) in self.0.buckets.iter().zip(buckets.iter_mut()) {
            if *local > 0 {
                mine.fetch_add(*local, Ordering::Relaxed);
                count += std::mem::take(local);
            }
        }
        self.0.count.fetch_add(count, Ordering::Relaxed);
        self.0.sum.fetch_add(std::mem::take(sum), Ordering::Relaxed);
        count
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Mean sample, or 0 with no samples.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Non-empty `(bucket_floor, count)` pairs, in value order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (Self::bucket_floor(i), c))
            })
            .collect()
    }

    /// A free-standing histogram owned by the caller rather than the
    /// global registry. [`Histogram::observe`] always records, so this
    /// lets a harness measure one hot path without enabling global
    /// observability (which would also time every damper charge).
    pub fn standalone() -> Self {
        Histogram::new()
    }

    /// The interpolated `p`-th percentile (0 < p ≤ 100) of the
    /// recorded samples; see [`percentile_from_buckets`]. Returns 0
    /// with no samples.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_from_buckets(&self.nonzero_buckets(), p)
    }

    /// Folds another histogram's samples into this one, bucket by
    /// bucket. Log₂ buckets are position-aligned across all histograms,
    /// so the merge is exact: the result is indistinguishable from
    /// having observed every sample on `self` directly. This is how
    /// per-shard latency histograms combine into one cross-shard
    /// distribution.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c > 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.0
            .count
            .fetch_add(other.0.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.0
            .sum
            .fetch_add(other.0.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// The interpolated `p`-th percentile of a log₂-bucketed sample set,
/// given its non-empty `(bucket_floor, count)` pairs in value order.
///
/// The rank `p/100 × n` (clamped to at least the first sample) is
/// located by cumulative count, then interpolated linearly inside its
/// bucket. A bucket with floor `f` covers `[f, 2f)`, so the
/// interpolated value is `f + frac × f`; the zero bucket is a point.
/// The result is exact when the bucket holds one distinct value edge
/// and otherwise within a factor of two, which is the resolution the
/// histogram stores in the first place.
pub fn percentile_from_buckets(buckets: &[(u64, u64)], p: f64) -> f64 {
    let n: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if n == 0 {
        return 0.0;
    }
    let target = (p / 100.0 * n as f64).max(1.0);
    let mut cum = 0u64;
    for &(floor, count) in buckets {
        let next = cum + count;
        if (next as f64) >= target {
            if floor == 0 {
                return 0.0;
            }
            let frac = (target - cum as f64) / count as f64;
            return floor as f64 + frac * floor as f64;
        }
        cum = next;
    }
    // p > 100 or float round-off: report the top of the last bucket.
    buckets.last().map_or(0.0, |&(floor, _)| 2.0 * floor as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 11, "clones share the cell");
    }

    #[test]
    fn gauge_sets_adds_and_subs() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0);
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), -5, "gauges may go negative");
        let g2 = g.clone();
        g2.set(3);
        assert_eq!(g.get(), 3, "clones share the cell");
    }

    #[test]
    fn merge_from_is_exact() {
        let a = Histogram::standalone();
        let b = Histogram::standalone();
        let direct = Histogram::standalone();
        for v in [0u64, 1, 7, 1000] {
            a.observe(v);
            direct.observe(v);
        }
        for v in [3u64, 7, 2048] {
            b.observe(v);
            direct.observe(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), direct.count());
        assert_eq!(a.sum(), direct.sum());
        assert_eq!(a.nonzero_buckets(), direct.nonzero_buckets());
        assert_eq!(a.percentile(50.0), direct.percentile(50.0));
        assert_eq!(a.percentile(99.0), direct.percentile(99.0));
        // Exact expected shape: 0→1, 1→1, [2,4)→1, [4,8)→2, [512,1024)→1,
        // [2048,4096)→1.
        assert_eq!(
            a.nonzero_buckets(),
            vec![(0, 1), (1, 1), (2, 1), (4, 2), (512, 1), (2048, 1)]
        );
        assert_eq!(a.count(), 7);
        assert_eq!(a.sum(), 3066);
    }

    #[test]
    fn add_counts_matches_observing_and_zeroes_the_locals() {
        let direct = Histogram::standalone();
        let counted = Histogram::standalone();
        counted.observe(5);
        direct.observe(5);
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        for v in [0u64, 1, 7, 7, 1000, u64::MAX / 2] {
            direct.observe(v);
            buckets[Histogram::bucket_of(v)] += 1;
            sum = sum.wrapping_add(v);
        }
        assert_eq!(counted.add_counts(&mut buckets, &mut sum), 6);
        assert_eq!(counted.count(), direct.count());
        assert_eq!(counted.sum(), direct.sum());
        assert_eq!(counted.nonzero_buckets(), direct.nonzero_buckets());
        assert_eq!(buckets, [0; BUCKETS]);
        assert_eq!(sum, 0);
        // Flushing empty locals changes nothing.
        assert_eq!(counted.add_counts(&mut buckets, &mut sum), 0);
        assert_eq!(counted.count(), direct.count());
        assert_eq!(counted.sum(), direct.sum());
    }

    #[test]
    fn merge_from_empty_is_identity() {
        let a = Histogram::standalone();
        a.observe(42);
        let before = a.nonzero_buckets();
        a.merge_from(&Histogram::standalone());
        assert_eq!(a.nonzero_buckets(), before);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(3), 4);
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        // Four samples, one per bucket: floors 1, 2, 4, 8.
        let buckets = [(1u64, 1u64), (2, 1), (4, 1), (8, 1)];
        assert_eq!(percentile_from_buckets(&buckets, 25.0), 2.0);
        assert_eq!(percentile_from_buckets(&buckets, 50.0), 4.0);
        assert_eq!(percentile_from_buckets(&buckets, 75.0), 8.0);
        // p99: rank 3.96 lands 0.96 of the way through [8, 16).
        assert!((percentile_from_buckets(&buckets, 99.0) - 15.68).abs() < 1e-9);
        // Two samples in one bucket: rank 1 is halfway through [4, 8).
        assert_eq!(percentile_from_buckets(&[(4, 2)], 50.0), 6.0);
        assert_eq!(percentile_from_buckets(&[(4, 2)], 100.0), 8.0);
    }

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile_from_buckets(&[], 50.0), 0.0);
        // The zero bucket is the point value 0.
        assert_eq!(percentile_from_buckets(&[(0, 3)], 99.0), 0.0);
        // Tiny p still clamps to rank 1 (halfway through a 2-sample
        // bucket), never to rank 0.
        assert_eq!(percentile_from_buckets(&[(4, 2), (8, 2)], 0.001), 6.0);
        // p beyond 100 saturates at the top of the last bucket.
        assert_eq!(percentile_from_buckets(&[(4, 1)], 150.0), 8.0);
    }

    #[test]
    fn histogram_percentile_matches_hand_computation() {
        let h = Histogram::standalone();
        for v in [100u64, 200, 400, 800] {
            h.observe(v);
        }
        // Buckets hit: floors 64, 128, 256, 512 with one sample each.
        assert_eq!(h.percentile(50.0), 256.0);
        assert!((h.percentile(99.0) - 1003.52).abs() < 1e-9);
        assert_eq!(Histogram::standalone().percentile(50.0), 0.0, "empty");
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert!((h.mean() - 201.2).abs() < 1e-9);
        let nz = h.nonzero_buckets();
        assert_eq!(nz[0], (0, 1));
        assert_eq!(nz[1], (1, 1));
        assert_eq!(nz[2], (2, 2));
        assert_eq!(nz[3], (512, 1));
    }
}
