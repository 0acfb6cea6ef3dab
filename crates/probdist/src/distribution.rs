use serde::{Deserialize, Serialize};

use crate::{Deterministic, DistError, Empirical, Exponential, SimRng, Uniform, Weibull};

/// Common interface of all continuous, non-negative lifetime distributions
/// used by the dependability models.
///
/// Every distribution in this crate models a duration in **hours** (failure
/// inter-arrival times, repair times, rebuild times). All methods are cheap;
/// sampling never allocates.
///
/// # Example
///
/// ```
/// use probdist::{Distribution, Exponential, SimRng};
///
/// # fn main() -> Result<(), probdist::DistError> {
/// let repair = Exponential::from_mean(4.0)?; // 4-hour mean repair time
/// let mut rng = SimRng::seed_from_u64(1);
/// let t = repair.sample(&mut rng);
/// assert!(t >= 0.0);
/// assert!((repair.mean() - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub trait Distribution {
    /// Draws one sample from the distribution.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The mean (expected value) of the distribution.
    fn mean(&self) -> f64;

    /// The variance of the distribution.
    fn variance(&self) -> f64;

    /// Cumulative distribution function `P(X <= x)`.
    ///
    /// Values of `x` below the support return `0.0`.
    fn cdf(&self, x: f64) -> f64;

    /// Probability density function at `x`.
    ///
    /// Point-mass distributions (e.g. [`Deterministic`]) return `0.0`
    /// everywhere except at the atom, where the density is undefined; callers
    /// that need a likelihood should use [`Distribution::cdf`] differences.
    fn pdf(&self, x: f64) -> f64;

    /// Survival function `P(X > x) = 1 - cdf(x)`.
    fn survival(&self, x: f64) -> f64 {
        (1.0 - self.cdf(x)).clamp(0.0, 1.0)
    }

    /// Hazard (instantaneous failure) rate `pdf(x) / survival(x)`.
    ///
    /// Returns `f64::INFINITY` when the survival probability underflows to
    /// zero while the density is still positive.
    fn hazard(&self, x: f64) -> f64 {
        let s = self.survival(x);
        let f = self.pdf(x);
        if s <= 0.0 {
            if f > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            f / s
        }
    }

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidProbability`] if `p` is not in `[0, 1]`.
    fn quantile(&self, p: f64) -> Result<f64, DistError>;

    /// Standard deviation, `sqrt(variance)`.
    fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// A closed enum over every distribution in the crate, allowing models to be
/// configured with heterogeneous distributions without trait objects.
///
/// `Dist` implements [`Distribution`] by delegation and is serialisable so
/// experiment configurations (Table 5 parameter sweeps) can be stored and
/// replayed.
///
/// # Example
///
/// ```
/// use probdist::{Dist, Distribution, Weibull, Deterministic, SimRng};
///
/// # fn main() -> Result<(), probdist::DistError> {
/// let failure: Dist = Weibull::from_shape_and_mean(0.7, 300_000.0)?.into();
/// let repair: Dist = Deterministic::new(4.0)?.into();
/// let mut rng = SimRng::seed_from_u64(3);
/// assert!(failure.sample(&mut rng) >= 0.0);
/// assert_eq!(repair.mean(), 4.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Dist {
    /// Exponential (memoryless) distribution.
    Exponential(Exponential),
    /// Weibull distribution.
    Weibull(Weibull),
    /// Deterministic (fixed delay) distribution.
    Deterministic(Deterministic),
    /// Continuous uniform distribution.
    Uniform(Uniform),
    /// Empirical distribution resampling observed data.
    Empirical(Empirical),
}

macro_rules! delegate {
    ($self:ident, $inner:ident => $body:expr) => {
        match $self {
            Dist::Exponential($inner) => $body,
            Dist::Weibull($inner) => $body,
            Dist::Deterministic($inner) => $body,
            Dist::Uniform($inner) => $body,
            Dist::Empirical($inner) => $body,
        }
    };
}

impl Distribution for Dist {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        delegate!(self, d => d.sample(rng))
    }

    fn mean(&self) -> f64 {
        delegate!(self, d => d.mean())
    }

    fn variance(&self) -> f64 {
        delegate!(self, d => d.variance())
    }

    fn cdf(&self, x: f64) -> f64 {
        delegate!(self, d => d.cdf(x))
    }

    fn pdf(&self, x: f64) -> f64 {
        delegate!(self, d => d.pdf(x))
    }

    fn quantile(&self, p: f64) -> Result<f64, DistError> {
        delegate!(self, d => d.quantile(p))
    }
}

impl Dist {
    /// Short human-readable name of the underlying distribution family.
    pub fn family(&self) -> &'static str {
        match self {
            Dist::Exponential(_) => "exponential",
            Dist::Weibull(_) => "weibull",
            Dist::Deterministic(_) => "deterministic",
            Dist::Uniform(_) => "uniform",
            Dist::Empirical(_) => "empirical",
        }
    }
}

impl From<Exponential> for Dist {
    fn from(d: Exponential) -> Self {
        Dist::Exponential(d)
    }
}

impl From<Weibull> for Dist {
    fn from(d: Weibull) -> Self {
        Dist::Weibull(d)
    }
}

impl From<Deterministic> for Dist {
    fn from(d: Deterministic) -> Self {
        Dist::Deterministic(d)
    }
}

impl From<Uniform> for Dist {
    fn from(d: Uniform) -> Self {
        Dist::Uniform(d)
    }
}

impl From<Empirical> for Dist {
    fn from(d: Empirical) -> Self {
        Dist::Empirical(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_enum_delegates() {
        let exp = Exponential::from_mean(2.0).unwrap();
        let d: Dist = exp.into();
        assert_eq!(d.mean(), exp.mean());
        assert_eq!(d.variance(), exp.variance());
        assert_eq!(d.cdf(1.0), exp.cdf(1.0));
        assert_eq!(d.pdf(1.0), exp.pdf(1.0));
        assert_eq!(d.quantile(0.5).unwrap(), exp.quantile(0.5).unwrap());
        assert_eq!(d.family(), "exponential");
    }

    #[test]
    fn dist_enum_samples_match_inner_with_same_rng_state() {
        let w = Weibull::new(0.7, 1000.0).unwrap();
        let d: Dist = w.into();
        let mut r1 = SimRng::seed_from_u64(10);
        let mut r2 = SimRng::seed_from_u64(10);
        assert_eq!(w.sample(&mut r1), d.sample(&mut r2));
    }

    #[test]
    fn family_names_cover_all_variants() {
        let variants: Vec<Dist> = vec![
            Exponential::from_mean(1.0).unwrap().into(),
            Weibull::new(1.0, 1.0).unwrap().into(),
            Deterministic::new(1.0).unwrap().into(),
            Uniform::new(0.0, 1.0).unwrap().into(),
            Empirical::new(vec![1.0, 2.0]).unwrap().into(),
        ];
        let names: Vec<&str> = variants.iter().map(super::Dist::family).collect();
        assert_eq!(names, vec!["exponential", "weibull", "deterministic", "uniform", "empirical"]);
    }

    #[test]
    fn survival_plus_cdf_is_one() {
        let d: Dist = Exponential::from_mean(3.0).unwrap().into();
        for x in [0.0, 0.5, 1.0, 10.0] {
            assert!((d.survival(x) + d.cdf(x) - 1.0).abs() < 1e-12);
        }
    }
}
