use serde::{Deserialize, Serialize};

/// Numerically stable streaming accumulator for count, mean, variance,
/// minimum and maximum (Welford's algorithm).
///
/// Used by the simulation engine to accumulate reward observations across
/// replications without storing every sample.
///
/// # Non-finite observations
///
/// A NaN or ±inf observation would silently corrupt every statistic the
/// accumulator reports (one NaN makes the mean, variance, and any
/// confidence interval NaN forever). The accumulator therefore **rejects**
/// non-finite observations: [`RunningStats::push`] counts the rejection
/// and leaves the moments untouched, and
/// [`confidence_interval`](crate::stats::confidence_interval) refuses to
/// produce an interval from a poisoned accumulator, returning a typed
/// [`DistError::NonFiniteObservation`](crate::DistError::NonFiniteObservation).
///
/// # Example
///
/// ```
/// use probdist::stats::RunningStats;
///
/// let mut acc = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 4);
/// assert_eq!(acc.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    /// Non-finite observations rejected (not folded into the moments).
    non_finite: u64,
}

impl Default for RunningStats {
    fn default() -> Self {
        RunningStats::new()
    }
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite: 0,
        }
    }

    /// Adds one observation. A non-finite observation is **not** folded
    /// into the statistics; it is counted instead, which marks the
    /// accumulator poisoned for confidence-interval purposes.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction of
    /// per-thread accumulators).
    pub fn merge(&mut self, other: &RunningStats) {
        self.non_finite += other.non_finite;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let non_finite = self.non_finite;
            *self = *other;
            self.non_finite = non_finite;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean = new_mean;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations accumulated so far (finite ones only).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of non-finite observations rejected so far. A non-zero count
    /// poisons the accumulator:
    /// [`confidence_interval`](crate::stats::confidence_interval) returns
    /// [`crate::DistError::NonFiniteObservation`] instead of an interval
    /// computed from an incomplete sample.
    pub(crate) fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Sample mean. Returns `0.0` before any observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n−1 denominator). Returns `0.0` with fewer
    /// than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean (`s / sqrt(n)`).
    pub(crate) fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest observation seen (`+inf` before any observation).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation seen (`-inf` before any observation).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = RunningStats::new();
        acc.extend(iter);
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, variance};
    use proptest::prelude::*;

    #[test]
    fn empty_accumulator_defaults() {
        let acc = RunningStats::new();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.variance(), 0.0);
        assert_eq!(acc.std_error(), 0.0);
    }

    #[test]
    fn matches_batch_formulas() {
        let data = [3.1, 4.1, 5.9, 2.6, 5.3, 5.8, 9.7, 9.3];
        let acc: RunningStats = data.iter().copied().collect();
        assert_eq!(acc.count(), data.len() as u64);
        assert!((acc.mean() - mean(&data)).abs() < 1e-12);
        assert!((acc.variance() - variance(&data)).abs() < 1e-12);
        assert_eq!(acc.min(), 2.6);
        assert_eq!(acc.max(), 9.7);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() + 2.0).collect();
        let sequential: RunningStats = data.iter().copied().collect();
        let a: RunningStats = data[..37].iter().copied().collect();
        let b: RunningStats = data[37..].iter().copied().collect();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), sequential.count());
        assert!((merged.mean() - sequential.mean()).abs() < 1e-12);
        assert!((merged.variance() - sequential.variance()).abs() < 1e-10);
    }

    #[test]
    fn non_finite_observations_are_rejected_not_folded_in() {
        let mut acc = RunningStats::new();
        acc.push(1.0);
        acc.push(f64::NAN);
        acc.push(f64::INFINITY);
        acc.push(3.0);
        acc.push(f64::NEG_INFINITY);
        // The finite statistics are exactly those of [1, 3].
        assert_eq!(acc.count(), 2);
        assert_eq!(acc.mean(), 2.0);
        assert_eq!(acc.min(), 1.0);
        assert_eq!(acc.max(), 3.0);
        assert!(acc.variance().is_finite());
        // ...and the rejections are visible, as a typed error from the
        // interval.
        assert_eq!(acc.non_finite_count(), 3);
        let err = crate::stats::confidence_interval(&acc, 0.95).unwrap_err();
        assert_eq!(err, crate::DistError::NonFiniteObservation { count: 3 });
        assert!(err.to_string().contains("3 non-finite observations"), "{err}");
    }

    #[test]
    fn merge_carries_the_poison_flag() {
        let mut poisoned = RunningStats::new();
        poisoned.push(f64::NAN);
        let mut clean: RunningStats = [1.0, 2.0].iter().copied().collect();
        clean.merge(&poisoned);
        assert_eq!(clean.non_finite_count(), 1);
        assert_eq!(clean.count(), 2);

        // Merging into an empty accumulator keeps both sides' rejections.
        let mut empty = RunningStats::new();
        empty.push(f64::INFINITY);
        let data: RunningStats = [1.0, 2.0].iter().copied().collect();
        empty.merge(&data);
        assert_eq!(empty.non_finite_count(), 1);
        assert_eq!(empty.count(), 2);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let data = [1.0, 2.0, 3.0];
        let mut acc: RunningStats = data.iter().copied().collect();
        let before = acc;
        acc.merge(&RunningStats::new());
        assert_eq!(acc, before);

        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    proptest! {
        #[test]
        fn welford_matches_naive(data in proptest::collection::vec(-1e3..1e3_f64, 2..200)) {
            let acc: RunningStats = data.iter().copied().collect();
            prop_assert!((acc.mean() - mean(&data)).abs() < 1e-9);
            prop_assert!((acc.variance() - variance(&data)).abs() < 1e-6);
        }

        #[test]
        fn merge_associative(data in proptest::collection::vec(-1e3..1e3_f64, 3..100), split in 1..99usize) {
            let k = split.min(data.len() - 1);
            let whole: RunningStats = data.iter().copied().collect();
            let mut left: RunningStats = data[..k].iter().copied().collect();
            let right: RunningStats = data[k..].iter().copied().collect();
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert!((left.mean() - whole.mean()).abs() < 1e-9);
        }
    }
}
