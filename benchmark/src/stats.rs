//! Order statistics over timing samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Interquartile range as a share of the median (0 below four samples).
pub fn iqr_share(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.len() < 4 || m == 0.0 {
        return 0.0;
    }
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.9), 9.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 10.0);
        assert!((iqr_share(&s) - 5.0 / 5.5).abs() < 1e-12);
    }
}
