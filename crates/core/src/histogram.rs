//! Log-bucketed latency histogram with lock-free recording.
//!
//! The serving path records one latency sample per request; a
//! multi-hour `qgx serve` run at thousands of requests per second
//! would grow an exact sample `Vec` without bound. [`LatencyHistogram`]
//! holds **constant memory** (a fixed array of `AtomicU64` buckets)
//! and records with a single relaxed `fetch_add` — no lock, no
//! allocation — so concurrent workers never contend on it.
//!
//! Buckets are logarithmic: [`BUCKETS_PER_OCTAVE`] sub-buckets per
//! power of two of microseconds, so the relative quantization error of
//! a reported percentile is bounded by `2^(1/8) − 1 ≈ 9.1%` at any
//! magnitude — microseconds and minutes are resolved equally well.
//! Percentiles are nearest-rank over the cumulative bucket counts and
//! report the bucket's **upper bound** (clamped to the exact observed
//! maximum), so a histogram-mode tail figure never under-states the
//! tail. Mean and max are tracked exactly (nanosecond integer sum /
//! `fetch_max`).
//!
//! `GET /statz` reports its percentiles from these histograms
//! (`core::http::server::StatzSnapshot`).

use std::sync::atomic::{AtomicU64, Ordering};

/// Log-bucket resolution: sub-buckets per factor-of-two in value.
pub(crate) const BUCKETS_PER_OCTAVE: usize = 8;

/// Octaves covered above 1 µs: `2^40` µs ≈ 12.7 days, far past any
/// deadline this server can serve. Larger samples clamp into the top
/// bucket.
const OCTAVES: usize = 40;

/// Bucket 0 holds sub-microsecond samples; buckets `1..` are the log
/// grid.
const NUM_BUCKETS: usize = 1 + OCTAVES * BUCKETS_PER_OCTAVE;

/// Fixed-memory, lock-free histogram of latency samples in
/// microseconds. Share behind `Arc` (or a field of a shared stats
/// struct); every method takes `&self`.
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Total samples recorded.
    count: AtomicU64,
    /// Exact maximum, in integer nanoseconds.
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

/// The bucket index a microsecond sample lands in.
fn bucket_index(us: f64) -> usize {
    if us.is_nan() || us < 1.0 {
        // Sub-microsecond, zero, or NaN: the underflow bucket.
        return 0;
    }
    // `us >= 1.0` and non-NaN here, so `idx` is never NaN (log2 of
    // +∞ is +∞, which the top-bucket guard catches).
    let idx = (us.log2() * BUCKETS_PER_OCTAVE as f64).floor();
    // Past the grid (or infinite): the top bucket, whose reported
    // value is the exact max rather than a bucket bound.
    if idx >= (NUM_BUCKETS - 2) as f64 {
        return NUM_BUCKETS - 1;
    }
    1 + idx as usize
}

/// The exclusive upper bound (µs) of bucket `i` — what percentiles
/// report, so quantization can only over-state, never hide, the tail.
fn bucket_upper_us(i: usize) -> f64 {
    if i == 0 {
        return 1.0;
    }
    2f64.powf(i as f64 / BUCKETS_PER_OCTAVE as f64)
}

impl LatencyHistogram {
    /// Record one sample (microseconds). Lock-free; negative or NaN
    /// samples land in the underflow bucket rather than panicking.
    pub(crate) fn record(&self, us: f64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let ns = if us.is_finite() && us > 0.0 {
            (us * 1e3).round() as u64
        } else {
            0
        };
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters, cheap to take while
    /// recording continues (per-bucket reads are relaxed; a snapshot
    /// concurrent with recording may be at most a few samples skewed,
    /// never structurally wrong).
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }
}

/// An owned copy of a [`LatencyHistogram`]'s state; all summary math
/// happens here so the live histogram is never locked.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    max_ns: u64,
}

impl HistogramSnapshot {
    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum sample, microseconds (0 when empty).
    pub(crate) fn max_us(&self) -> f64 {
        self.max_ns as f64 / 1e3
    }

    /// Nearest-rank percentile (`p` in 0..=100), reported as the
    /// holding bucket's upper bound clamped to the exact observed max
    /// — within +9.1% of the true value, never below it for tail
    /// percentiles. 0 when empty.
    pub(crate) fn percentile_us(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The top bucket is open-ended (samples past the grid
                // clamp into it), so its honest value is the exact max.
                if i + 1 == self.buckets.len() {
                    return self.max_us();
                }
                return bucket_upper_us(i).min(self.max_us());
            }
        }
        self.max_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::default();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.percentile_us(50.0), 0.0);
        assert_eq!(s.percentile_us(99.9), 0.0);
        assert_eq!(s.max_us(), 0.0);
    }

    #[test]
    fn percentiles_are_within_one_bucket_of_exact() {
        let h = LatencyHistogram::default();
        let samples: Vec<f64> = (1..=10_000).map(|i| i as f64).collect();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10_000);
        // Exact nearest-rank values for this sample set.
        for (p, exact) in [(50.0, 5000.0), (99.0, 9900.0), (99.9, 9990.0)] {
            let got = snap.percentile_us(p);
            assert!(
                got >= exact && got <= exact * 1.0915,
                "p{p}: got {got}, exact {exact}"
            );
        }
        assert_eq!(snap.max_us(), 10_000.0);
    }

    #[test]
    fn tail_is_never_understated() {
        let h = LatencyHistogram::default();
        for _ in 0..999 {
            h.record(100.0);
        }
        h.record(50_000.0); // one outlier = the p99.9+ tail
        let snap = h.snapshot();
        assert_eq!(snap.percentile_us(100.0), 50_000.0);
        assert!(snap.percentile_us(99.9) >= 50_000.0 * 0.999);
        assert!(snap.percentile_us(50.0) >= 100.0);
        assert!(snap.percentile_us(50.0) <= 100.0 * 1.0915);
    }

    #[test]
    fn degenerate_samples_do_not_panic() {
        let h = LatencyHistogram::default();
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(0.3);
        h.record(f64::INFINITY); // clamps into the top bucket
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        // Sub-µs and degenerate samples report ≤ the underflow bound.
        assert!(snap.percentile_us(50.0) <= 1.0);
    }

    #[test]
    fn memory_is_bounded_regardless_of_sample_count() {
        // The whole point: size is a compile-time constant.
        assert_eq!(
            std::mem::size_of::<LatencyHistogram>(),
            (NUM_BUCKETS + 2) * 8
        );
        let h = LatencyHistogram::default();
        for i in 0..100_000u64 {
            h.record((i % 977) as f64 + 0.5);
        }
        assert_eq!(h.snapshot().count(), 100_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::default());
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record((t * 10_000 + i) as f64 / 7.0);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count(), 80_000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 0.25f64;
        while v < 1e13 {
            let i = bucket_index(v);
            assert!(i >= last, "bucket index must be monotone in the value");
            assert!(i < NUM_BUCKETS);
            assert!(
                i == 0 || i == NUM_BUCKETS - 1 || bucket_upper_us(i) >= v,
                "upper bound must cover the value: {v} -> bucket {i}"
            );
            last = i;
            v *= 1.07;
        }
    }
}
