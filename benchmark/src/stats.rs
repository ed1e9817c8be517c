//! Order statistics over timing samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(v, n=4)`
//! (the exclusive method), because that is what the acceptance check of
//! this benchmark is computed with.

/// Sorted copy of `v` (total order; samples are never NaN).
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile (exclusive method). With fewer than two
/// samples both equal the median.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let m = median(v);
        return (m, m);
    }
    let at = |q: usize| {
        let m = n + 1;
        let j = (q * m / 4).clamp(1, n - 1);
        // Signed: at the ends of a short sample Python extrapolates.
        let delta = (q * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m.abs()
}

/// The highest percentile of `v` that still has at least ten samples
/// beyond it, as `(percentile, value)`; `None` with fewer than eleven
/// samples, where no percentile qualifies.
pub fn highest_valid_percentile(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 11 {
        return None;
    }
    let s = sorted(v);
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(highest_valid_percentile(&ten), None);
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        // 40 samples: the 30th smallest has exactly ten beyond it.
        assert_eq!(highest_valid_percentile(&v), Some((75.0, 30.0)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(highest_valid_percentile(&eleven).unwrap().1, 1.0);
    }
}
