//! Order statistics over measured samples.

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`: the
/// smallest sample with at least a `q` share of the samples at or below
/// it. `None` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0);
    // `rank` is a whole number in 1..=len; the float-to-int `as` saturates.
    let index = (rank as usize).min(sorted.len()) - 1;
    Some(sorted[index])
}

/// Samples a reported tail quantile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile of `samples`, capped at the highest quantile that
/// leaves [`TAIL_SAMPLES`] samples beyond it (never below the median),
/// with the quantile actually used. A p99 needs 1000 samples; from fewer
/// it would be the maximum, a single sample.
pub fn tail_quantile(samples: &[f64], q: f64) -> (f64, f64) {
    let n = samples.len().max(1) as f64;
    let used = q.min(1.0 - TAIL_SAMPLES as f64 / n).max(0.5);
    (quantile(samples, used).unwrap_or(0.0), used)
}

/// The median of `samples`, averaging the middle pair of an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The arithmetic mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(quantile(&xs, 0.99), Some(99.0));
        assert_eq!(quantile(&[3.0], 0.99), Some(3.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
