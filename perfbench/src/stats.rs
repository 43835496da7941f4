//! Order statistics for host timings.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50)
}

/// The `pct`-th percentile by linear interpolation between the two
/// closest ranks (rank `pct/100 · (n − 1)` of the sorted samples).
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(pct <= 100, "percentile {pct} out of range");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = pct as f64 / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Smallest sample count that leaves at least [`MIN_TAIL_SAMPLES`]
/// samples beyond the `pct`-th percentile (200 for p95).
pub fn min_samples_for(pct: u32) -> usize {
    assert!(pct < 100, "no samples lie beyond p{pct}");
    (MIN_TAIL_SAMPLES * 100).div_ceil(100 - pct as usize)
}

/// Samples strictly greater than the `pct`-th percentile.
pub fn samples_beyond(values: &[f64], pct: u32) -> usize {
    let p = percentile(values, pct);
    values.iter().filter(|&&x| x > p).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 95), 96.0);
        assert_eq!(percentile(&v, 0), 1.0);
        assert_eq!(percentile(&v, 100), 101.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
    }

    #[test]
    fn p95_needs_200_samples_for_ten_beyond_it() {
        assert_eq!(min_samples_for(95), 200);
        assert_eq!(min_samples_for(50), 20);
        let at_rule: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(samples_beyond(&at_rule, 95), MIN_TAIL_SAMPLES);
        let short: Vec<f64> = (1..=180).map(f64::from).collect();
        assert!(samples_beyond(&short, 95) < MIN_TAIL_SAMPLES);
    }
}
