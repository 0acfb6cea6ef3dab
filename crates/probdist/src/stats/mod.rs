//! Statistics used to estimate and report simulation results.
//!
//! The paper reports every simulation measure "at 95 % confidence level,
//! with intervals" (Section 5). This module provides the machinery to do
//! the same:
//!
//! * [`RunningStats`] — a numerically stable (Welford) streaming accumulator
//!   for mean and variance.
//! * [`ConfidenceInterval`] / [`confidence_interval`] — Student-t based
//!   intervals on the mean of independent replications.
//! * [`StoppingRule`] / [`run_to_precision`] — the one replication loop:
//!   run batches until every tracked CI is narrower than a relative
//!   half-width target, or exactly `n` replications
//!   ([`StoppingRule::fixed`]).

mod confidence;
mod running;
mod stopping;

pub use confidence::{confidence_interval, ConfidenceInterval};
pub use running::RunningStats;
pub use stopping::{run_to_precision, StoppingRule};

/// Convenience function: sample mean of a slice.
///
/// Returns `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        0.0
    } else {
        data.iter().sum::<f64>() / data.len() as f64
    }
}

/// Convenience function: unbiased sample variance (n−1 denominator) of a
/// slice. Returns `0.0` for slices with fewer than two elements.
pub fn variance(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (data.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn mean_and_variance_hand_checked() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data) - 5.0).abs() < 1e-12);
        assert!((variance(&data) - 32.0 / 7.0).abs() < 1e-12);
    }
}
