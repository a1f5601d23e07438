//! Statistics over raw samples: exact nearest-rank percentiles (no
//! histogram buckets, so a p50 and a p99 can only coincide when the
//! samples do), the "ten samples beyond" support rule, and the quartile
//! spread the driver uses to decide whether a metric is steady.

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (any order); 0 when empty. The
/// rank rule is the simulator's own (`stellar_sim::percentile`).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    stellar_sim::percentile(&sorted, p)
}

/// Conventional median (mean of the two middle samples when the count is
/// even), as Python's `statistics.median`.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples strictly beyond the nearest-rank position of percentile `p`
/// among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest whole percentile of `n` samples that still leaves
/// [`MIN_BEYOND`] samples beyond it (50 at the least).
pub fn highest_supported(n: usize) -> f64 {
    (50..=99)
        .rev()
        .map(f64::from)
        .find(|p| supported(n, *p))
        .unwrap_or(50.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Position k(n+1)/4, 1-based; the index is clamped to the data
        // and the fraction is not, exactly as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Ratio that is 0 when the denominator is.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_raw_samples() {
        let data: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&data, 50.0), 50.0);
        assert_eq!(percentile(&data, 95.0), 95.0);
        assert_eq!(percentile(&data, 99.0), 99.0);
        assert_eq!(percentile(&data, 100.0), 100.0);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Raw samples, not log2 buckets: neighbours in one power-of-two
        // bucket stay distinct.
        let close = [3945.0, 3946.0, 3947.0, 3999.0];
        assert_ne!(percentile(&close, 50.0), percentile(&close, 99.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(supported(200, 95.0));
        assert!(!supported(199, 95.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert_eq!(samples_beyond(70, 85.0), 10);
        assert_eq!(highest_supported(70), 85.0);
        assert_eq!(highest_supported(300), 96.0);
        assert_eq!(highest_supported(5), 50.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q3) = quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
