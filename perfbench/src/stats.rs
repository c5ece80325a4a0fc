//! Order statistics over host-time samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`; 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest whole percentile of `xs` that still has at least ten
/// samples above it, with its value: `None` when there are too few samples
/// for any percentile to have ten beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    let pct = (1..100u32).rev().find(|&p| {
        let rank = (p as usize * n).div_ceil(100);
        rank >= 1 && n - rank >= 10
    })?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct as usize * n).div_ceil(100);
    Some((pct, v[rank - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        // p50 is rank 10, leaving exactly ten samples above it.
        assert_eq!(tail_percentile(&xs), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90, 90.0)));
    }
}
