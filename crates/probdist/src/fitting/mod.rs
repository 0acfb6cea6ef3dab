//! Lifetime-distribution fitting.
//!
//! The paper estimates its disk-failure model from the ABE replacement log
//! (Table 4): "Survival analysis of the disk failures (n = 480) using
//! Weibull regression … gives the shape parameter as 0.696 with standard
//! deviation of 0.192", and then uses simulation to pick the scale
//! parameter (MTBF = 300 000 h / AFR = 2.92 %) that matches the observed
//! replacement rate.
//!
//! This module provides the same estimators, operating on right-censored
//! lifetime samples:
//!
//! * [`Lifetime`] — an observation that is either an observed failure or a
//!   censored survival time (disks still alive at the end of the log).
//! * [`fit_weibull`] — maximum-likelihood Weibull fit with right-censoring
//!   (profile likelihood in the scale, Newton/bisection in the shape) and
//!   asymptotic standard errors.

mod weibull_mle;

pub use weibull_mle::{fit_weibull, WeibullFit};

use serde::{Deserialize, Serialize};

use crate::DistError;

/// A single right-censored lifetime observation, in hours.
///
/// # Example
///
/// ```
/// use probdist::fitting::Lifetime;
///
/// let failed = Lifetime::failure(1200.0).unwrap();
/// let survived = Lifetime::censored(2000.0).unwrap();
/// assert!(failed.is_failure());
/// assert!(!survived.is_failure());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Lifetime {
    time: f64,
    failed: bool,
}

impl Lifetime {
    /// An observed failure at `time` hours.
    ///
    /// # Errors
    ///
    /// Returns an error unless `time` is finite and strictly positive.
    pub fn failure(time: f64) -> Result<Self, DistError> {
        Ok(Lifetime { time: DistError::check_positive("time", time)?, failed: true })
    }

    /// A right-censored observation: the unit was still working when
    /// observation stopped at `time` hours.
    ///
    /// # Errors
    ///
    /// Returns an error unless `time` is finite and strictly positive.
    pub fn censored(time: f64) -> Result<Self, DistError> {
        Ok(Lifetime { time: DistError::check_positive("time", time)?, failed: false })
    }

    /// The observation time in hours.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Whether the observation ends in a failure (`true`) or censoring
    /// (`false`).
    pub fn is_failure(&self) -> bool {
        self.failed
    }
}

/// Validates a lifetime data set for fitting: non-empty and containing at
/// least `min_failures` observed failures.
pub(crate) fn validate_lifetimes(
    data: &[Lifetime],
    min_failures: usize,
) -> Result<usize, DistError> {
    if data.is_empty() {
        return Err(DistError::EmptyData);
    }
    let failures = data.iter().filter(|l| l.is_failure()).count();
    if failures < min_failures {
        return Err(DistError::DegenerateData {
            reason: "too few observed failures (data is almost entirely censored)",
        });
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_constructors_validate() {
        assert!(Lifetime::failure(0.0).is_err());
        assert!(Lifetime::censored(-1.0).is_err());
        assert!(Lifetime::failure(f64::NAN).is_err());
        let l = Lifetime::failure(10.0).unwrap();
        assert_eq!(l.time(), 10.0);
        assert!(l.is_failure());
    }

    #[test]
    fn validate_lifetimes_counts_failures() {
        let data = vec![
            Lifetime::failure(1.0).unwrap(),
            Lifetime::censored(2.0).unwrap(),
            Lifetime::failure(3.0).unwrap(),
        ];
        assert_eq!(validate_lifetimes(&data, 2).unwrap(), 2);
        assert!(validate_lifetimes(&data, 3).is_err());
        assert!(validate_lifetimes(&[], 0).is_err());
    }
}
