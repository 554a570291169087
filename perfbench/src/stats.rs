//! Order statistics the benchmark reports.
//!
//! Latencies may be infinite (a failed job misses every limit), so the
//! percentiles use the nearest-rank definition, which never interpolates
//! between an infinite and a finite sample.

/// Percentiles the tail rule may pick, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs`: the middle sample, or the mean of the middle pair.
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample with at
/// least `p`% of the samples at or below it. `None` when `xs` is empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    Some(s[rank(p, s.len()).clamp(1, s.len()) - 1])
}

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps `0.999 * 10000` from rounding up past 9990.
fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`TAIL_SAMPLES`] samples strictly beyond its nearest rank, with its
/// value. `None` when even the median has fewer than that beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    LADDER.iter().find_map(|&p| {
        let r = rank(p, n);
        (r >= 1 && n - r >= TAIL_SAMPLES).then(|| (p, percentile(xs, p).unwrap_or(0.0)))
    })
}

/// The 95th percentile of a normal distribution fitted robustly to the
/// sequence `xs`: the median plus 1.645 standard deviations. The deviation
/// comes from the median absolute difference between neighbours, scaled by
/// 1.4826 / √2, so a slow drift of the host across the sequence does not
/// count as spread. For a handful of samples, where the nearest-rank p95
/// is simply the largest, this follows all of them instead of one outlier.
/// `None` when `xs` is empty or holds a non-finite sample.
pub fn normal_p95(xs: &[f64]) -> Option<f64> {
    if xs.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let m = median(xs)?;
    let steps: Vec<f64> = xs.windows(2).map(|w| (w[1] - w[0]).abs()).collect();
    let sigma = median(&steps).map_or(0.0, |d| 1.4826 * d / 2f64.sqrt());
    Some(m + 1.645 * sigma)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_never_interpolates_infinity() {
        let xs = [1.0, 2.0, f64::INFINITY, f64::INFINITY];
        assert_eq!(percentile(&xs, 50.0), Some(2.0));
        assert_eq!(percentile(&xs, 75.0), Some(f64::INFINITY));
        assert_eq!(percentile(&[5.0], 95.0), Some(5.0));
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 200 samples: p95 has exactly 10 beyond it, p99 only 2.
        assert_eq!(tail(&xs(200)), Some((95.0, 190.0)));
        // 199 samples: p95 leaves 9 beyond, so p90 is the answer.
        assert_eq!(tail(&xs(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&xs(1000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&xs(10_000)).map(|t| t.0), Some(99.9));
        assert_eq!(tail(&xs(20)).map(|t| t.0), Some(50.0));
        assert_eq!(tail(&xs(19)), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn normal_p95_ignores_one_outlier_and_drift() {
        // Median 11; neighbour steps 1, 2, 1, 48, whose median is 1.5.
        let xs = [10.0, 9.0, 11.0, 12.0, 60.0];
        let want = 11.0 + 1.645 * 1.4826 * 1.5 / 2f64.sqrt();
        assert!((normal_p95(&xs).unwrap() - want).abs() < 1e-12);
        // One step of the host's speed is not spread between calls.
        assert_eq!(
            normal_p95(&[10.0, 10.0, 10.0, 20.0, 20.0, 20.0]),
            Some(15.0)
        );
        assert_eq!(normal_p95(&[7.0]), Some(7.0));
        assert_eq!(normal_p95(&[]), None);
        assert_eq!(normal_p95(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn tail_counts_infinite_failures() {
        let mut xs: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        for x in xs.iter_mut().take(20) {
            *x = f64::INFINITY;
        }
        assert_eq!(tail(&xs), Some((95.0, f64::INFINITY)));
    }
}
