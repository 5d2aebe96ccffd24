//! Log-bucketed latency histograms.
//!
//! Values below 16 are recorded exactly; above that, each power-of-two
//! octave is split into 16 linear sub-buckets, bounding the relative
//! quantization error at ~6 % while keeping the bucket array small enough
//! to register per metric key. Percentile queries use the same
//! nearest-rank rule as [`svt_stats::percentile`], so the exact percentile
//! always falls inside the reported bucket — the property the cross-check
//! test in `tests/` relies on.

/// A log-linear histogram of `u64` values (latencies in picoseconds or
/// nanoseconds — the histogram is unit-agnostic).
///
/// # Examples
///
/// ```
/// use svt_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let (lo, hi) = h.percentile_bounds(50.0);
/// assert!(lo <= 500 && 500 <= hi);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

svt_sim::snap_fields! { LogHistogram { buckets, count, sum, min, max } }

const LINEAR_MAX: u64 = 16;
const SUB_BUCKETS: u64 = 16;

/// Bucket index for a value.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // exp >= 4
    let sub = (v >> (exp - 4)) & (SUB_BUCKETS - 1);
    (LINEAR_MAX + (exp - 4) * SUB_BUCKETS + sub) as usize
}

/// Inclusive value range `[lo, hi]` covered by a bucket.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < LINEAR_MAX {
        return (idx, idx);
    }
    let rel = idx - LINEAR_MAX;
    let exp = rel / SUB_BUCKETS + 4;
    let sub = rel % SUB_BUCKETS;
    let lo = (1u64 << exp) + (sub << (exp - 4));
    let width = 1u64 << (exp - 4);
    (lo, lo + width - 1)
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded value.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn min(&self) -> u64 {
        assert!(self.count > 0, "min of empty histogram");
        self.min
    }

    /// Largest recorded value.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn max(&self) -> u64 {
        assert!(self.count > 0, "max of empty histogram");
        self.max
    }

    /// Mean of recorded values (exact — the sum is kept alongside the
    /// buckets).
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn mean(&self) -> f64 {
        assert!(self.count > 0, "mean of empty histogram");
        self.sum as f64 / self.count as f64
    }

    /// The bucket holding the nearest-rank `p`-th percentile, as an
    /// inclusive `[lo, hi]` value range. Uses `rank = ceil(p/100 · n)`,
    /// matching `svt_stats::percentile`, so the exact percentile of the
    /// recorded values is guaranteed to lie within the returned range.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is outside `[0, 100]`.
    pub fn percentile_bounds(&self, p: f64) -> (u64, u64) {
        assert!(self.count > 0, "percentile of empty histogram");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(idx);
                // Tighten with the observed extremes.
                return (lo.max(self.min), hi.min(self.max));
            }
        }
        unreachable!("rank {rank} beyond recorded count {}", self.count);
    }

    /// Point estimate of the `p`-th percentile: the upper bound of the
    /// bucket holding the nearest-rank sample.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty or `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        self.percentile_bounds(p).1
    }

    /// The standard report quartet: p50, p90, p99, p99.9.
    ///
    /// # Panics
    ///
    /// Panics if the histogram is empty.
    pub fn summary(&self) -> [u64; 4] {
        [
            self.percentile(50.0),
            self.percentile(90.0),
            self.percentile(99.0),
            self.percentile(99.9),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            let rank_p = (v + 1) as f64 / 16.0 * 100.0;
            let (lo, hi) = h.percentile_bounds(rank_p);
            assert_eq!((lo, hi), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_invert_bucket_index() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            1 << 40,
            u64::MAX / 2,
        ] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn buckets_partition_the_value_space() {
        // Consecutive buckets tile the number line without gaps or overlap.
        let mut prev_hi = None;
        for idx in 0..400usize {
            let (lo, hi) = bucket_bounds(idx);
            if let Some(p) = prev_hi {
                assert_eq!(lo, p + 1, "gap or overlap at bucket {idx}");
            }
            assert!(lo <= hi);
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LogHistogram::new();
        h.record(1_000_000);
        let (lo, hi) = h.percentile_bounds(50.0);
        assert!(lo <= 1_000_000 && 1_000_000 <= hi);
        // One sub-bucket of the containing octave: ~6.25% wide.
        assert!((hi - lo) as f64 / 1_000_000.0 < 0.07);
    }

    #[test]
    fn summary_is_monotone() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 7 % 10_000 + 1);
        }
        let [p50, p90, p99, p999] = h.summary();
        assert!(p50 <= p90 && p90 <= p99 && p99 <= p999);
        assert!(p999 <= h.max());
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LogHistogram::new();
        for v in [5u64, 10, 15] {
            h.record(v);
        }
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 15);
        assert_eq!(h.mean(), 10.0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    #[should_panic(expected = "empty histogram")]
    fn empty_percentile_panics() {
        LogHistogram::new().percentile(50.0);
    }
}
