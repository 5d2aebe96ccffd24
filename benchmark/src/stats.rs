//! Order statistics and span arithmetic used to reduce timed samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the value is one or two outliers.
pub const MIN_TAIL: usize = 10;

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `q · n` samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// [`nearest_rank`], or `None` unless at least [`MIN_TAIL`] samples lie
/// beyond the rank.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, q) >= MIN_TAIL).then(|| sorted[rank(n, q) - 1])
}

/// Ascending copy of `values` (total order; NaN sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 0.5)
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the default "exclusive"
/// method), so a spread printed here matches one computed from the same
/// values in Python. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    const N: usize = 4;
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..N).zip(out.iter_mut()) {
        let j = (i * m / N).clamp(1, ld - 1);
        // `delta` may be negative after clamping; Python keeps it signed.
        let delta = (i * m) as f64 - (j * N) as f64;
        *q = (data[j - 1] * (N as f64 - delta) + data[j] * delta) / N as f64;
    }
    Some(out)
}

/// Host nanoseconds of `span` not covered by any of `children`: the
/// span's duration minus the union of the children's intervals, each
/// clipped to the span. Intervals are half-open `[start, end)`.
pub fn self_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    parts.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in parts {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    hi.saturating_sub(lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_q() {
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.9), 90.0);
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&ramp(5), 0.5), 3.0);
        assert_eq!(nearest_rank(&ramp(4), 0.5), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: rank 90, ten beyond.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        // 99 samples: rank ceil(89.1) = 90, nine beyond.
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        assert_eq!(tail_percentile(&ramp(150), 0.9), Some(135.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
        // The median needs only 20 samples.
        assert_eq!(tail_percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([5, 1, 9, 7], n=4) == [2.0, 6.0, 8.5]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 7.0]), Some([2.0, 6.0, 8.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Back-to-back children leave only the gaps.
        assert_eq!(self_ns((0, 100), &[(0, 30), (30, 60), (70, 90)]), 20);
        // Overlapping children are not double-counted.
        assert_eq!(self_ns((0, 100), &[(10, 50), (20, 40), (45, 60)]), 50);
        // Children are clipped to the parent's interval.
        assert_eq!(self_ns((50, 100), &[(0, 60), (90, 200)]), 30);
        // Unsorted input, an empty child and a child outside the span.
        assert_eq!(self_ns((0, 10), &[(6, 8), (5, 5), (1, 3), (20, 30)]), 6);
        assert_eq!(self_ns((0, 10), &[]), 10);
        assert_eq!(self_ns((0, 10), &[(0, 10), (2, 4)]), 0);
    }
}
