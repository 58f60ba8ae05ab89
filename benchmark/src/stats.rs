//! Order statistics shared by the runs and `compare`.

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile `p` (0–100] of `values` (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if p == 50.0 && sorted.len().is_multiple_of(2) {
        let mid = sorted.len() / 2;
        return (sorted[mid - 1] + sorted[mid]) / 2.0;
    }
    // The epsilon keeps 0.999 × 10000 from rounding up past rank 9990.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads recorded here match what a reader recomputes from the raw runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        let x = d.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // Taken after the clamp, as Python does: it may leave [0, 4).
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest of the reported percentiles that has at least ten samples
/// beyond it in a sample of `n`; the median when none has.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        for n in [100, 1_000, 5_000, 10_000, 50_000] {
            let p = tail_percentile(n);
            let sample: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let beyond = sample
                .iter()
                .filter(|&&x| x > percentile(&sample, p))
                .count();
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(percentile(&v, 90.0), 9.0);
    }
}
