//! Percentiles and latency distributions.
//!
//! The memcached experiment (Fig. 8) reports average and 99th-percentile
//! latency under load; [`LatencyRecorder`] collects per-request latencies
//! and answers exact percentile queries.

/// Exact percentile of a sample set using the nearest-rank method.
///
/// # Panics
///
/// Panics if `samples` is empty or `p` is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// use svt_stats::percentile;
///
/// let v: Vec<f64> = (1..=100).map(f64::from).collect();
/// assert_eq!(percentile(&v, 99.0), 99.0);
/// assert_eq!(percentile(&v, 50.0), 50.0);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample set");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

/// Accumulates request latencies (in nanoseconds) and answers summary
/// queries; used by the application benchmarks.
///
/// # Examples
///
/// ```
/// use svt_stats::LatencyRecorder;
///
/// let mut r = LatencyRecorder::new();
/// for i in 1..=100 {
///     r.record(i as f64 * 1_000.0);
/// }
/// assert_eq!(r.p99(), 99_000.0);
/// assert_eq!(r.mean(), 50_500.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<f64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one latency sample (nanoseconds).
    pub fn record(&mut self, ns: f64) {
        self.samples.push(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn mean(&self) -> f64 {
        assert!(!self.samples.is_empty(), "no samples recorded");
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// 99th-percentile latency.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded.
    pub fn p99(&self) -> f64 {
        percentile(&self.samples, 99.0)
    }

    /// Arbitrary percentile.
    ///
    /// # Panics
    ///
    /// Panics if no samples were recorded or `p` is out of range.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.samples, p)
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Discards all samples (e.g. after a warm-up phase).
    pub fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = vec![15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 0.0), 15.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = vec![9.0, 1.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        let _ = percentile(&[], 50.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_bad_p() {
        let _ = percentile(&[1.0], 101.0);
    }

    #[test]
    fn recorder_round_trip() {
        let mut r = LatencyRecorder::new();
        assert!(r.is_empty());
        r.record(5.0);
        r.record(15.0);
        assert_eq!(r.len(), 2);
        assert_eq!(r.mean(), 10.0);
        assert_eq!(r.pct(50.0), 5.0);
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn p99_ignores_bulk() {
        let mut r = LatencyRecorder::new();
        for _ in 0..980 {
            r.record(100.0);
        }
        for _ in 0..20 {
            r.record(900.0);
        }
        assert_eq!(r.p99(), 900.0);
        assert!(r.mean() < 120.0);
    }
}
