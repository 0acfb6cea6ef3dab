use serde::{Deserialize, Serialize};

use crate::{DistError, Distribution, SimRng};

/// Empirical distribution that resamples from an observed data set
/// (bootstrap resampling). The CDF is the step function of the
/// observations; only the quantile function interpolates linearly between
/// order statistics.
///
/// This is how measured repair durations from the failure-log analysis can
/// be plugged straight into the simulation model without committing to a
/// parametric family — e.g. the ten outage durations of Table 1.
///
/// # Example
///
/// ```
/// use probdist::{Distribution, Empirical};
///
/// # fn main() -> Result<(), probdist::DistError> {
/// // Table 1 outage durations in hours.
/// let outages = Empirical::new(vec![
///     12.95, 18.18, 8.12, 1.67, 15.5, 12.42, 3.47, 3.36, 0.4, 1.93,
/// ])?;
/// assert!(outages.mean() > 7.0 && outages.mean() < 8.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Empirical {
    /// Observations sorted in ascending order.
    sorted: Vec<f64>,
}

impl Empirical {
    /// Creates an empirical distribution from a set of observations.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::EmptyData`] if `data` is empty and
    /// [`DistError::NonFiniteParameter`] /
    /// [`DistError::NonPositiveParameter`] if any observation is not finite
    /// or negative.
    pub fn new(data: Vec<f64>) -> Result<Self, DistError> {
        if data.is_empty() {
            return Err(DistError::EmptyData);
        }
        for &x in &data {
            DistError::check_non_negative("observation", x)?;
        }
        let mut sorted = data;
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("observations are finite"));
        Ok(Empirical { sorted })
    }

    /// Number of observations backing the distribution.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution has no observations (never true for a
    /// successfully constructed value; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The observations in ascending order.
    pub fn observations(&self) -> &[f64] {
        &self.sorted
    }

    /// The smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// The largest observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sorted[rng.uniform_index(self.sorted.len())]
    }

    fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    fn variance(&self) -> f64 {
        if self.sorted.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        self.sorted.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (self.sorted.len() - 1) as f64
    }

    fn cdf(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        let below = self.sorted.partition_point(|&v| v <= x);
        below as f64 / n as f64
    }

    fn pdf(&self, _x: f64) -> f64 {
        // A discrete empirical distribution has no density; see the trait
        // documentation.
        0.0
    }

    fn quantile(&self, p: f64) -> Result<f64, DistError> {
        let p = DistError::check_probability(p)?;
        let n = self.sorted.len();
        if n == 1 {
            return Ok(self.sorted[0]);
        }
        // Linear interpolation between order statistics (type-7 quantile).
        let h = p * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        let frac = h - lo as f64;
        Ok(self.sorted[lo] * (1.0 - frac) + self.sorted[hi.min(n - 1)] * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_empty_and_invalid_data() {
        assert_eq!(Empirical::new(vec![]), Err(DistError::EmptyData));
        assert!(Empirical::new(vec![1.0, f64::NAN]).is_err());
        assert!(Empirical::new(vec![1.0, -2.0]).is_err());
    }

    #[test]
    fn mean_and_variance_match_hand_computation() {
        let e = Empirical::new(vec![2.0, 4.0, 6.0, 8.0]).unwrap();
        assert_eq!(e.mean(), 5.0);
        // sample variance with n-1 denominator: (9+1+1+9)/3
        assert!((e.variance() - 20.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_step_function_over_observations() {
        let e = Empirical::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(100.0), 1.0);
    }

    #[test]
    fn quantile_interpolates() {
        let e = Empirical::new(vec![0.0, 10.0]).unwrap();
        assert_eq!(e.quantile(0.0).unwrap(), 0.0);
        assert_eq!(e.quantile(0.5).unwrap(), 5.0);
        assert_eq!(e.quantile(1.0).unwrap(), 10.0);
    }

    #[test]
    fn samples_come_from_data() {
        let data = vec![1.5, 2.5, 9.0];
        let e = Empirical::new(data.clone()).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..100 {
            let s = e.sample(&mut rng);
            assert!(data.contains(&s));
        }
    }

    #[test]
    fn min_max_and_len() {
        let e = Empirical::new(vec![3.0, 1.0, 2.0]).unwrap();
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 3.0);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    proptest! {
        #[test]
        fn cdf_monotone(mut data in proptest::collection::vec(0.0..1e3_f64, 1..50), a in 0.0..1e3_f64, b in 0.0..1e3_f64) {
            data.iter_mut().for_each(|x| *x = x.abs());
            let e = Empirical::new(data).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(e.cdf(lo) <= e.cdf(hi) + 1e-15);
        }

        #[test]
        fn quantile_within_observed_range(data in proptest::collection::vec(0.0..1e3_f64, 1..50), p in 0.0..1.0_f64) {
            let e = Empirical::new(data).unwrap();
            let q = e.quantile(p).unwrap();
            prop_assert!(q >= e.min() - 1e-12 && q <= e.max() + 1e-12);
        }
    }
}
