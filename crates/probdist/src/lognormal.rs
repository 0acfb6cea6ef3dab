use serde::{Deserialize, Serialize};

use crate::special::{std_normal_cdf, std_normal_quantile};
use crate::{DistError, Distribution, SimRng};

/// Log-normal distribution parameterised by the mean `μ` and standard
/// deviation `σ` of the underlying normal.
///
/// Repair-time data from large installations is frequently heavy-tailed;
/// the log-normal is provided as a heavy-tailed alternative to
/// deterministic and exponential repair-time models (the paper's Table 5
/// gives only mean repair times).
///
/// # Example
///
/// ```
/// use probdist::{Distribution, LogNormal};
///
/// # fn main() -> Result<(), probdist::DistError> {
/// let repair = LogNormal::from_mean_and_cv(4.0, 1.0)?;
/// assert!((repair.mean() - 4.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution with normal-scale parameters `mu`
    /// and `sigma`.
    ///
    /// # Errors
    ///
    /// Returns an error if `mu` is not finite or `sigma` is not finite and
    /// strictly positive.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::NonFiniteParameter { name: "mu", value: mu });
        }
        Ok(LogNormal { mu, sigma: DistError::check_positive("sigma", sigma)? })
    }

    /// Creates a log-normal distribution with the given mean and coefficient
    /// of variation (`cv = std_dev / mean`).
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` or `cv` is not finite and strictly
    /// positive.
    pub fn from_mean_and_cv(mean: f64, cv: f64) -> Result<Self, DistError> {
        let mean = DistError::check_positive("mean", mean)?;
        let cv = DistError::check_positive("cv", cv)?;
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        LogNormal::new(mu, sigma2.sqrt())
    }

    /// The location parameter `μ` of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter `σ` of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        ((s2).exp_m1()) * (2.0 * self.mu + s2).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn quantile(&self, p: f64) -> Result<f64, DistError> {
        let p = DistError::check_probability(p)?;
        if p == 0.0 {
            return Ok(0.0);
        }
        if p == 1.0 {
            return Ok(f64::INFINITY);
        }
        Ok((self.mu + self.sigma * std_normal_quantile(p)).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructor_validation() {
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::from_mean_and_cv(0.0, 1.0).is_err());
        assert!(LogNormal::from_mean_and_cv(4.0, 0.0).is_err());
    }

    #[test]
    fn from_mean_and_cv_recovers_moments() {
        let d = LogNormal::from_mean_and_cv(10.0, 0.5).unwrap();
        assert!((d.mean() - 10.0).abs() < 1e-9);
        assert!((d.std_dev() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_median_at_exp_mu() {
        let d = LogNormal::new(1.0, 0.7).unwrap();
        let median = 1.0_f64.exp();
        assert!((d.cdf(median) - 0.5).abs() < 1e-6);
        assert!((d.quantile(0.5).unwrap() - median).abs() / median < 1e-6);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // heavy sampling loop
    fn sample_mean_converges() {
        let d = LogNormal::from_mean_and_cv(4.0, 0.8).unwrap();
        let mut rng = SimRng::seed_from_u64(13);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = LogNormal::new(0.5, 1.2).unwrap();
        for p in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let x = d.quantile(p).unwrap();
            assert!((d.cdf(x) - p).abs() < 1e-5, "p={p}");
        }
    }

    proptest! {
        #[test]
        fn samples_positive(mu in -2.0..5.0_f64, sigma in 0.1..2.0_f64, seed in any::<u64>()) {
            let d = LogNormal::new(mu, sigma).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..16 {
                prop_assert!(d.sample(&mut rng) > 0.0);
            }
        }

        #[test]
        fn cdf_monotone(mu in -2.0..5.0_f64, sigma in 0.1..2.0_f64, a in 0.0..100.0_f64, b in 0.0..100.0_f64) {
            let d = LogNormal::new(mu, sigma).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(d.cdf(lo) <= d.cdf(hi) + 1e-12);
        }
    }
}
