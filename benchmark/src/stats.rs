//! Exact-sample statistics: percentiles over the recorded latencies, the
//! median over fixed windows, and the quartiles `compare` reports.

/// The `q`-quantile (`0 <= q <= 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Returns `None` for an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method); needs
/// at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // Position i*(n+1)/4 on a 1-based scale; like Python, the pair of
        // neighbours is clamped into the samples but the weight is not, so
        // small samples extrapolate.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    Some(out)
}

/// Population coefficient of variation (standard deviation over mean).
pub fn coefficient_of_variation(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return None;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    Some(var.sqrt() / mean)
}

/// Splits samples stamped with an end time into consecutive windows of
/// `window_ns` starting at 0 and returns, per *complete* window, the
/// samples' values. The trailing partial window is dropped: it would
/// understate a rate and carries too few samples for a median.
pub fn windows(samples: &[(u64, u64)], window_ns: u64, total_ns: u64) -> Vec<Vec<u64>> {
    let complete = (total_ns / window_ns) as usize;
    let mut out = vec![Vec::new(); complete];
    for &(end_ns, value) in samples {
        let index = (end_ns / window_ns) as usize;
        if let Some(window) = out.get_mut(index) {
            window.push(value);
        }
    }
    out
}

/// Median over windows of each window's median sample. Windows without
/// samples are skipped.
pub fn window_median_of_p50(mut per_window: Vec<Vec<u64>>) -> Option<f64> {
    let medians: Vec<f64> = per_window
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            w.sort_unstable();
            percentile_sorted(w, 0.5).unwrap_or(0) as f64
        })
        .collect();
    median(&medians)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_exact_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.5), Some(50));
        assert_eq!(percentile_sorted(&sorted, 0.99), Some(99));
        assert_eq!(percentile_sorted(&sorted, 1.0), Some(100));
        assert_eq!(percentile_sorted(&sorted, 0.0), Some(1));
        assert_eq!(percentile_sorted(&[7], 0.99), Some(7));
        assert_eq!(percentile_sorted(&[], 0.5), None);
        // Three samples: the median is the middle one, not an interpolation.
        assert_eq!(percentile_sorted(&[1, 10, 1000], 0.5), Some(10));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 30.0, 20.0, 40.0]),
            Some([15.0, 30.0, 45.0])
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn window_median_ignores_a_slow_window_and_the_partial_tail() {
        // Four complete 10-unit windows; the third is disturbed, the tail
        // (t >= 40) is partial and dropped.
        let mut samples = Vec::new();
        for t in 0..45u64 {
            let value = if (20..30).contains(&t) {
                900
            } else {
                100 + t % 3
            };
            samples.push((t, value));
        }
        let per_window = windows(&samples, 10, 45);
        assert_eq!(per_window.len(), 4);
        assert!(per_window.iter().all(|w| w.len() == 10));
        assert_eq!(window_median_of_p50(per_window), Some(101.0));
    }

    #[test]
    fn coefficient_of_variation_of_constant_series_is_zero() {
        assert_eq!(coefficient_of_variation(&[5.0, 5.0, 5.0]), Some(0.0));
        assert!(coefficient_of_variation(&[1.0, 3.0]).unwrap() > 0.49);
    }
}
