//! Order statistics: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them, and percentiles that
//! respect the sample-count rule.

/// A percentile is only reported when at least this many samples lie
/// beyond it; otherwise the highest percentile that satisfies the rule is
/// reported in its place.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sorts ascending; NaNs (never produced by a timer) sort last.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// Median of an ascending slice (mean of the middle pair when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn median(values: &[f64]) -> f64 {
    median_sorted(&sorted(values.to_vec()))
}

/// First and third quartile by Python's default ("exclusive") method, so
/// the spread this program prints is the spread the acceptance rule takes.
/// Fewer than two values have no spread: both quartiles are the value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values.to_vec());
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let cut = |i: usize| {
        let n = 4;
        let j = (i * (ld + 1) / n).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile `p` (0 < p < 1) of an ascending slice under the
/// sample-count rule. Returns the value and the percentile actually used,
/// which is lower than `p` when fewer than [`MIN_SAMPLES_BEYOND`] samples
/// lie beyond `p`; `None` when there are not even that many samples.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= MIN_SAMPLES_BEYOND {
        return None;
    }
    let supported = 1.0 - MIN_SAMPLES_BEYOND as f64 / n as f64;
    let used = p.min(supported);
    let rank = ((used * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], used))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        // 2000 samples: 20 lie beyond p99, so p99 stands.
        assert_eq!(percentile_sorted(&v, 0.99), Some((1980.0, 0.99)));
        assert_eq!(percentile_sorted(&v, 0.5), Some((1000.0, 0.5)));
        // 500 samples: only 5 lie beyond p99; the rule lowers it to p98.
        let (value, used) = percentile_sorted(&v[..500], 0.99).unwrap();
        assert_eq!(used, 0.98);
        assert_eq!(value, 490.0);
        // Too few samples to report anything.
        assert_eq!(percentile_sorted(&v[..10], 0.5), None);
    }
}
