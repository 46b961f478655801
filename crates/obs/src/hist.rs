//! Log-bucketed latency histograms.
//!
//! A histogram owns 65 power-of-two buckets: bucket `0` holds the value
//! `0`, bucket `i` (1 ≤ i ≤ 63) holds values in `[2^(i-1), 2^i - 1]`, and
//! bucket `64` holds everything from `2^63` up to and including
//! `u64::MAX`. Percentiles are derived from cumulative bucket counts and
//! clamped to the largest value actually observed, so `p100` is exact and
//! lower quantiles are conservative (never reported below the true value's
//! bucket, never above the observed maximum).
//!
//! Every operation on the hot path is a relaxed atomic add on cells owned
//! by the recording thread — no locks, no CAS loops (except `max`, which
//! uses `fetch_max`).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Number of buckets: one for zero, one per bit position, one saturating.
pub const NUM_BUCKETS: usize = 65;

/// Bucket index for a recorded value: `0` for zero, otherwise the bit
/// width of the value (`64 - leading_zeros`), saturating at 64.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of a bucket: `0`, `2^i - 1`, or `u64::MAX` for
/// the saturating bucket.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// The atomic cell block behind one histogram handle.
#[derive(Debug)]
pub(crate) struct HistCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    /// Wrapping sum of observed values (documented: overflows wrap; the
    /// bucket counts, not the sum, are the source of truth for tails).
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCore {
    pub(crate) fn new() -> HistCore {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    pub(crate) fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// A new cell block holding this one's current values.
    pub(crate) fn copy(&self) -> HistCore {
        let copy = HistCore::new();
        for (to, from) in copy.buckets.iter().zip(&self.buckets) {
            to.store(from.load(Relaxed), Relaxed);
        }
        copy.count.store(self.count.load(Relaxed), Relaxed);
        copy.sum.store(self.sum.load(Relaxed), Relaxed);
        copy.max.store(self.max.load(Relaxed), Relaxed);
        copy
    }

    /// Folds this cell block into a snapshot accumulator.
    pub(crate) fn fold_into(&self, snap: &mut HistSnapshot) {
        for (i, b) in self.buckets.iter().enumerate() {
            snap.buckets[i] += b.load(Relaxed);
        }
        snap.count += self.count.load(Relaxed);
        snap.sum = snap.sum.wrapping_add(self.sum.load(Relaxed));
        snap.max = snap.max.max(self.max.load(Relaxed));
    }
}

/// A histogram handle. Each handle owns its own cell block (register one
/// per worker thread); cloning shares the block. Scrapes fold all blocks
/// registered under the same instrument name + labels.
#[derive(Debug, Clone)]
pub struct Histogram {
    pub(crate) core: Arc<HistCore>,
}

impl Histogram {
    /// A histogram not attached to any registry — observations are kept
    /// but only reachable through [`Histogram::snapshot`]. Useful for
    /// standalone measurement (benches) without a full [`crate::Obs`] hub.
    pub fn standalone() -> Histogram {
        Histogram { core: Arc::new(HistCore::new()) }
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.core.observe(v);
    }

    /// Times a closure and records the elapsed nanoseconds.
    #[inline]
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = std::time::Instant::now();
        let out = f();
        self.observe(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        out
    }

    /// A point-in-time copy of this handle's cell block only (not the
    /// whole instrument).
    pub fn snapshot(&self) -> HistSnapshot {
        let mut snap = HistSnapshot::empty();
        self.core.fold_into(&mut snap);
        snap
    }
}

/// A folded, immutable view of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket counts (not cumulative), indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Wrapping sum of all observed values.
    pub sum: u64,
    /// Largest value observed (0 when empty).
    pub max: u64,
}

impl HistSnapshot {
    pub fn empty() -> HistSnapshot {
        HistSnapshot { buckets: vec![0; NUM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) estimated from bucket upper
    /// bounds, clamped to the observed maximum. `None` when the histogram
    /// is empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// `(p50, p95, p99, max)` — `None` when empty.
    pub fn summary(&self) -> Option<(u64, u64, u64, u64)> {
        Some((self.percentile(0.50)?, self.percentile(0.95)?, self.percentile(0.99)?, self.max))
    }

    /// Non-zero buckets as `(index, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets.iter().enumerate().filter(|(_, n)| **n > 0).map(|(i, n)| (i, *n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // Every bucket's upper bound maps back into that bucket.
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "bucket {i}");
        }
        // And one past the bound maps into the next bucket (except MAX).
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_bound(i) + 1), i + 1, "bucket {i}");
        }
    }

    #[test]
    fn saturating_bucket_holds_u64_max() {
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_index(1u64 << 63), 64);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        let h = Histogram::standalone();
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.buckets[64], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let s = Histogram::standalone().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.percentile(0.99), None);
        assert_eq!(s.summary(), None);
    }

    #[test]
    fn percentiles_clamp_to_observed_max() {
        let h = Histogram::standalone();
        // 9 values of 5 (bucket 3, bound 7) and one of 6.
        for _ in 0..9 {
            h.observe(5);
        }
        h.observe(6);
        let s = h.snapshot();
        // Bucket bound is 7, but nothing above 6 was ever seen.
        assert_eq!(s.percentile(0.5), Some(6));
        assert_eq!(s.percentile(0.99), Some(6));
        assert_eq!(s.max, 6);
    }

    #[test]
    fn percentile_walks_cumulative_counts() {
        let h = Histogram::standalone();
        for v in [0u64, 1, 2, 4, 8, 16, 32, 64, 128, 256] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        // 10th percentile: the first observation (0).
        assert_eq!(s.percentile(0.10), Some(0));
        // Median: 5th of 10 sorted values is 8 → bucket bound 15,
        // clamped only by max (256), so 15.
        assert_eq!(s.percentile(0.50), Some(15));
        assert_eq!(s.percentile(1.0), Some(256));
    }

    #[test]
    fn zero_values_count() {
        let h = Histogram::standalone();
        h.observe(0);
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, 0);
        assert_eq!(s.percentile(0.99), Some(0));
        assert_eq!(s.nonzero_buckets(), vec![(0, 2)]);
    }

    #[test]
    fn clone_shares_cells() {
        let h = Histogram::standalone();
        let h2 = h.clone();
        h.observe(10);
        h2.observe(20);
        assert_eq!(h.snapshot().count, 2);
    }
}
