//! Lock-free metrics primitives: atomic counters, gauges, and log-bucketed
//! latency histograms.
//!
//! Built for the serving layer's hot path: every operation is a handful of
//! relaxed atomic instructions, nothing blocks, and — the property the
//! daemon's throughput depends on — **nothing allocates, ever**: each
//! primitive is a fixed block of atomics created once at registry
//! construction. Readers take point-in-time snapshots that may tear across
//! *different* primitives (a request can land between reading two
//! counters); per-primitive reads are individually consistent enough for
//! monitoring, which is all this is for.
//!
//! The histogram buckets by the bit length of the recorded value
//! (microseconds, in the daemon's usage): bucket `i` holds values in
//! `[2^(i-1), 2^i)`, bucket 0 holds zero. Quantiles come back as the upper
//! bound of the bucket the quantile falls in, clamped to the exact max —
//! within 2× of the true value, which is the standard trade of
//! log-bucketed histograms, and never above the largest sample.
//!
//! # Examples
//!
//! ```
//! use af_core::obs::metrics::{Counter, Histogram};
//!
//! let requests = Counter::new();
//! let latency = Histogram::new();
//! requests.inc();
//! latency.record(130); // µs
//! assert_eq!(requests.get(), 1);
//! assert_eq!(latency.snapshot().count, 1);
//! assert!(latency.snapshot().p99 >= 130);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 63 absorbs everything from `2^62`
/// up, so any `u64` value records without range checks beyond a `min`.
const BUCKETS: usize = 64;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` — for gauges maintained transactionally (charge on
    /// acquire, [`Gauge::sub`] on release) instead of recomputed.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero: a release racing a concurrent
    /// reset can at worst under-report, never wrap to `u64::MAX`.
    pub fn sub(&self, n: u64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free histogram over `u64` samples with power-of-two buckets.
///
/// `record` is three relaxed atomic adds plus one relaxed `fetch_max`;
/// concurrent recorders never contend on anything but cache lines.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A point-in-time read of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (mean = `sum / count`).
    pub sum: u64,
    /// Largest sample recorded (exact, not bucketed).
    pub max: u64,
    /// Median, as the upper bound of its bucket clamped to `max` (0 when
    /// empty).
    pub p50: u64,
    /// 90th percentile, bucket upper bound clamped to `max`.
    pub p90: u64,
    /// 99th percentile, bucket upper bound clamped to `max`.
    pub p99: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    /// The bucket a value lands in: its bit length (0 for 0).
    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Self::bucket(v).min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Upper bound of bucket `i`: the largest value that buckets there
    /// (the last bucket absorbs every clamped over-range sample, so its
    /// bound is `u64::MAX`).
    fn bucket_upper(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Takes a point-in-time snapshot with approximate quantiles.
    ///
    /// The bucket array is copied to the stack first, so the quantiles are
    /// internally consistent (and `count` is derived from that copy —
    /// under concurrent recording it may trail the live counter by the
    /// in-flight samples).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; BUCKETS];
        let mut total = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            counts[i] = bucket.load(Ordering::Relaxed);
            total += counts[i];
        }
        let mut snap = HistogramSnapshot {
            count: total,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: 0,
            p90: 0,
            p99: 0,
        };
        if total == 0 {
            return snap;
        }
        // Rank of quantile q = ceil(q * count), 1-based; one cumulative
        // walk resolves all three.
        let wide = u128::from(total);
        let ranks = [
            total.div_ceil(2),
            ((wide * 9).div_ceil(10)) as u64,
            ((wide * 99).div_ceil(100)) as u64,
        ];
        let mut out = [0u64; 3];
        let mut cumulative = 0u64;
        let mut next = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            cumulative += c;
            while next < ranks.len() && cumulative >= ranks[next] {
                // A bucket's upper bound can overshoot every sample in it;
                // the exact max is a tighter bound on the top buckets.
                out[next] = Self::bucket_upper(i).min(snap.max);
                next += 1;
            }
            if next == ranks.len() {
                break;
            }
        }
        (snap.p50, snap.p90, snap.p99) = (out[0], out[1], out[2]);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        g.add(10);
        assert_eq!(g.get(), 13);
        g.sub(5);
        assert_eq!(g.get(), 8);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_snapshot_quantiles_bound_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert_eq!(s.max, 1000);
        // Log-bucketed quantiles overestimate by at most 2x, and never
        // past the exact max.
        assert!(s.p50 >= 500 && s.p50 < 1024, "p50 = {}", s.p50);
        assert!(s.p90 >= 900 && s.p90 <= 1000, "p90 = {}", s.p90);
        assert_eq!(s.p99, 1000);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);

        // Skewed inputs, where the top bucket's upper bound overshoots
        // the max by up to 2x: the quantiles stay ordered and under it.
        for samples in [
            vec![42u64; 9],
            vec![5_084_072],
            [vec![3u64; 95], vec![63u64; 4], vec![65]].concat(),
            [vec![1u64; 50], vec![1025u64; 50]].concat(),
            (0..1000u64).map(|i| i * i * i).collect(),
        ] {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let s = h.snapshot();
            assert_eq!(s.max, samples.iter().copied().max().unwrap());
            assert!(
                s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max,
                "{s:?} on {} samples",
                samples.len()
            );
        }
    }

    #[test]
    fn histogram_empty_and_zero_samples() {
        let h = Histogram::new();
        assert_eq!(
            h.snapshot(),
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p90: 0,
                p99: 0
            }
        );
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (1, 0, 0));
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn histogram_giant_values_clamp_into_the_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p50, u64::MAX);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 7 + i % 100);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 40_000);
    }
}
