//! The metric primitives: monotonic counters, gauges and duration
//! histograms (which [`crate::Span`]s feed). All state is relaxed atomics, so
//! concurrent recording from worker threads merges without locks and a
//! snapshot is a plain load of every cell.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 histogram buckets: bucket `i` counts observations
/// shorter than `2^i` nanoseconds (the last bucket is open-ended). 40
/// buckets span 1 ns to ~9 minutes, ample for any phase or fit.
pub const HIST_BUCKETS: usize = 40;

/// A monotonic event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub(crate) fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one. No-op while collection is disabled.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. No-op while collection is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub(crate) fn new() -> Gauge {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    /// Set the gauge. No-op while collection is disabled.
    #[inline]
    pub fn set(&self, value: f64) {
        if crate::enabled() {
            self.0.store(value.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    pub(crate) fn reset(&self) {
        self.0.store(0f64.to_bits(), Ordering::Relaxed);
    }
}

/// A wall-clock duration histogram: count, sum, min, max and log2
/// buckets, all relaxed atomics so threads merge their observations
/// without coordination.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

/// Bucket index for a duration: the smallest `i` with `ns < 2^i`,
/// clamped to the open-ended last bucket.
fn bucket_index(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Upper bound of bucket `i` in seconds (`+Inf` conceptually for the
/// last bucket; callers special-case it).
pub(crate) fn bucket_upper_seconds(i: usize) -> f64 {
    (1u64 << i) as f64 * 1e-9
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one duration. No-op while collection is disabled.
    pub fn observe(&self, d: Duration) {
        if !crate::enabled() {
            return;
        }
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of every cell.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum_seconds: self.sum_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            min_seconds: if count == 0 { 0.0 } else { min as f64 * 1e-9 },
            max_seconds: self.max_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Frozen histogram state, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Total observed wall time.
    pub sum_seconds: f64,
    /// Shortest observation (0 when empty).
    pub min_seconds: f64,
    /// Longest observation.
    pub max_seconds: f64,
    /// Log2 bucket counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistogramSnapshot {
    /// Mean observation in seconds (0 when empty).
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_seconds / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_clamped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let mut prev = 0;
        for ns in [0u64, 1, 5, 999, 1_000_000, 1 << 45, u64::MAX] {
            let i = bucket_index(ns);
            assert!(i >= prev, "bucket index must not decrease with duration");
            prev = i;
        }
    }

    #[test]
    fn bucket_bounds_cover_nanos_to_minutes() {
        assert!(bucket_upper_seconds(0) < 1e-8);
        assert!(bucket_upper_seconds(HIST_BUCKETS - 1) > 300.0);
    }
}
