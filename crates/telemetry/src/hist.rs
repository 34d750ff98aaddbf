//! Log-scaled latency histograms: fixed power-of-two buckets, lock-free
//! recording, windowed snapshots, and exact merging across shards.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per bit width of a `u64` value. Bucket 0 counts
/// values `0..=1`; bucket `b` (for `b >= 1`) counts `2^b ..= 2^(b+1)-1`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket index a value lands in.
fn bucket_of(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `b` — the value a quantile read
/// reports, so quantiles over-approximate (never flatter a latency).
fn bucket_ceiling(bucket: usize) -> u64 {
    let shift = 63usize.saturating_sub(bucket) as u32;
    u64::MAX >> shift
}

/// A log-scaled histogram of `u64` samples (microseconds, by convention).
///
/// Recording is one relaxed `fetch_add` into a fixed bucket array — no
/// locks, no allocation — so it can sit on the request path. A second
/// baseline array makes window resets lock-free too: `reset_window` copies
/// the live counters into the baseline, and snapshots report the
/// difference, so no increment is ever lost to a reset.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    baseline: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    sum_baseline: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            baseline: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
            sum_baseline: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(bucket_of(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of the current window (samples recorded
    /// since the last [`Histogram::reset_window`]).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut out = HistogramSnapshot::default();
        for (i, dst) in out.buckets.iter_mut().enumerate() {
            let live = self.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed));
            let base = self
                .baseline
                .get(i)
                .map_or(0, |b| b.load(Ordering::Relaxed));
            *dst = live.saturating_sub(base);
        }
        out.sum = self
            .sum
            .load(Ordering::Relaxed)
            .saturating_sub(self.sum_baseline.load(Ordering::Relaxed));
        out
    }

    /// Starts a new window: every counter's current value becomes its
    /// baseline. Lock-free — recordings racing the reset land in either
    /// the old or the new window, never nowhere.
    pub fn reset_window(&self) {
        for (live, base) in self.buckets.iter().zip(self.baseline.iter()) {
            base.store(live.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.sum_baseline
            .store(self.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A plain-data copy of a [`Histogram`] window; mergeable across shards.
#[derive(Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values (for the mean).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count())
            .field("mean", &self.mean())
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish_non_exhaustive()
    }
}

impl PartialEq for HistogramSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.sum == other.sum && self.buckets == other.buckets
    }
}

impl Eq for HistogramSnapshot {}

impl HistogramSnapshot {
    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether the window recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`), reported as the inclusive upper
    /// bound of the bucket the quantile falls in — an over-approximation,
    /// exact to within the bucket's factor-of-two width. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bucket, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_ceiling(bucket);
            }
        }
        bucket_ceiling(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, n)| **n > 0)
            .map(|(bucket, _)| bucket_ceiling(bucket))
            .unwrap_or(0)
    }

    /// Merges another snapshot in. Bucket-exact: merging per-shard
    /// snapshots equals one snapshot of the union of their samples.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_ceiling(0), 1);
        assert_eq!(bucket_ceiling(1), 3);
        assert_eq!(bucket_ceiling(10), 2047);
        assert_eq!(bucket_ceiling(63), u64::MAX);
    }

    #[test]
    fn record_snapshot_quantiles() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 101_106);
        assert_eq!(s.mean(), 101_106 / 6);
        assert!(s.quantile(0.5) >= 3);
        assert!(s.quantile(1.0) >= 100_000);
        assert!(s.max() >= 100_000);
        assert_eq!(s.quantile(0.0), 1); // rank clamps to the first sample
    }

    #[test]
    fn window_reset_subtracts_baseline() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.snapshot().count(), 2);
        h.reset_window();
        assert!(h.snapshot().is_empty());
        assert_eq!(h.snapshot().mean(), 0);
        h.record(40);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.sum, 40);
    }

    #[test]
    fn merge_equals_union() {
        let a = Histogram::new();
        let b = Histogram::new();
        let union = Histogram::new();
        for v in 0..100u64 {
            if v % 3 == 0 {
                a.record(v * 7)
            } else {
                b.record(v * 7)
            }
            union.record(v * 7);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, union.snapshot());
    }
}
