//! Order statistics over timing samples.

/// Fewest samples that must lie beyond a percentile before it is reported.
pub const MIN_TAIL: usize = 10;

/// The `p`-th percentile (nearest rank) of `samples`, or `None` when fewer
/// than [`MIN_TAIL`] samples lie beyond it, so a reported tail always rests
/// on at least ten observations.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if n == 0 || n - rank.min(n) < MIN_TAIL {
        return None;
    }
    nearest_rank(samples, p)
}

/// The `p`-th percentile (nearest rank) of `samples` however few lie
/// beyond it; `None` when empty.
#[must_use]
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (mean of the middle pair for even counts); `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Geometric mean of positive values; `None` when empty.
#[must_use]
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Geometric mean over series of each series' median: one figure for a set
/// of kernels whose times differ by orders of magnitude.
#[must_use]
pub fn geomean_of_medians(series: &[Vec<f64>]) -> Option<f64> {
    let medians: Option<Vec<f64>> = series.iter().map(|s| median(s)).collect();
    geomean(&medians?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(percentile(&hundred, 95.0), None, "only five samples beyond p95");
        assert_eq!(percentile(&hundred, 99.0), None);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        assert_eq!(percentile(&thousand[..999], 99.0), None, "nine samples beyond p99");
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&hundred[..19], 50.0), None);
        assert_eq!(percentile(&hundred[..20], 50.0), Some(10.0));
        assert_eq!(nearest_rank(&hundred, 99.0), Some(99.0), "no tail rule");
        assert_eq!(nearest_rank(&[], 99.0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_of_medians_combines_per_series_medians() {
        // Medians 2 and 8: geometric mean 4.
        let series = vec![vec![1.0, 2.0, 100.0], vec![8.0, 8.0, 7.0, 9.0]];
        let g = geomean_of_medians(&series).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean_of_medians(&[vec![1.0], vec![]]), None);
        assert_eq!(geomean(&[]), None);
    }
}
