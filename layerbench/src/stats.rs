//! Order statistics for the step-time summaries.

/// A tail percentile and the number of samples that lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile's value (nearest rank).
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// Samples a tail percentile must have beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q` percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(values: &[f64], q: f64) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Tail { value: v[rank - 1], beyond })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        let ninety: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&ninety, 0.9), None, "99 samples leave only 9 beyond p90");
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&hundred, 0.9).expect("100 samples leave 10 beyond p90");
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 89.0);
        assert!(hundred.iter().filter(|&&x| x > t.value).count() >= MIN_BEYOND);
    }
}
