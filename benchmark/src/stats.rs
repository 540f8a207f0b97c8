//! Order statistics over the samples of one run.

/// Sorts a copy of `samples` ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th quantile (`0.0..=1.0`) of `sorted`, interpolating
/// linearly between the two samples around position `p * (n - 1)`.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "a quantile needs at least one sample");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The highest whole percentile whose position still leaves at least
/// ten samples beyond it, or 50 when none above the median does:
/// median only up to n = 21, p66 at n = 31, p90 at n = 101.
pub fn high_percentile(n: usize) -> u32 {
    (51..=99u32)
        .rev()
        .find(|&p| {
            let reached = (p as usize * n.saturating_sub(1)).div_ceil(100);
            n.saturating_sub(1 + reached) >= 10
        })
        .unwrap_or(50)
}

/// The median, the value at [`high_percentile`], and that percentile.
pub fn median_and_high(samples: &[f64]) -> (f64, f64, u32) {
    let v = sorted(samples);
    let p = high_percentile(v.len());
    (quantile(&v, 0.5), quantile(&v, f64::from(p) / 100.0), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(high_percentile(31), 66);
        assert_eq!(high_percentile(21), 50, "median only at n = 21");
        assert_eq!(high_percentile(22), 52);
        assert_eq!(high_percentile(1), 50);
        assert_eq!(high_percentile(101), 90);
        assert_eq!(high_percentile(1001), 99);
        for n in 23..400usize {
            let p = high_percentile(n) as usize;
            let reached = (p * (n - 1)).div_ceil(100);
            assert!(n - 1 - reached >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn median_and_quantiles_interpolate() {
        let v: Vec<f64> = (1..=31).map(f64::from).collect();
        assert_eq!(median(&v), 16.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let (m, hi, p) = median_and_high(&v);
        assert_eq!((m, p), (16.0, 66));
        // Position 0.66 * 30 = 19.8: between the 20th and 21st sample.
        assert!((hi - 20.8).abs() < 1e-9, "{hi}");
        assert_eq!(quantile(&v, 1.0), 31.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }
}
