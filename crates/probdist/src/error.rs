use std::error::Error;
use std::fmt;

/// Error type returned by constructors and fitting routines in this crate.
///
/// All variants carry enough context to diagnose which parameter was
/// rejected and why, so that model-construction errors surface with a
/// meaningful message rather than a `NaN` deep inside a simulation run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DistError {
    /// A distribution parameter was not strictly positive.
    NonPositiveParameter {
        /// Human-readable name of the offending parameter (e.g. `"shape"`).
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A distribution parameter was not finite (NaN or infinite).
    NonFiniteParameter {
        /// Human-readable name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A probability argument was outside `[0, 1]`.
    InvalidProbability {
        /// The rejected value.
        value: f64,
    },
    /// An interval `[lo, hi]` had `lo > hi` (or equal where forbidden).
    InvalidInterval {
        /// Lower bound supplied.
        lo: f64,
        /// Upper bound supplied.
        hi: f64,
    },
    /// An empirical distribution or a fitting routine was given no samples.
    EmptyData,
    /// A fitting routine was given data it cannot fit (e.g. all samples
    /// censored, or all observations identical where spread is required).
    DegenerateData {
        /// Explanation of why the data is unusable.
        reason: &'static str,
    },
    /// An iterative estimator (e.g. Weibull MLE Newton–Raphson) failed to
    /// converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// A sequential stopping rule was malformed (e.g. fewer than two
    /// minimum replications, or a minimum above the maximum).
    InvalidStoppingRule {
        /// Explanation of the rejected combination.
        reason: String,
    },
    /// A streaming statistics accumulator was offered a non-finite
    /// observation (NaN or ±inf), or an estimate was requested from an
    /// accumulator that has rejected at least one — a poisoned accumulator
    /// reports how many contributions it refused instead of silently
    /// corrupting every downstream confidence interval.
    NonFiniteObservation {
        /// Number of non-finite observations rejected by the accumulator.
        count: u64,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NonPositiveParameter { name, value } => {
                write!(f, "parameter `{name}` must be > 0, got {value}")
            }
            DistError::NonFiniteParameter { name, value } => {
                write!(f, "parameter `{name}` must be finite, got {value}")
            }
            DistError::InvalidProbability { value } => {
                write!(f, "probability must lie in [0, 1], got {value}")
            }
            DistError::InvalidInterval { lo, hi } => {
                write!(f, "invalid interval: lower bound {lo} exceeds upper bound {hi}")
            }
            DistError::EmptyData => write!(f, "no data points provided"),
            DistError::DegenerateData { reason } => {
                write!(f, "data cannot be fitted: {reason}")
            }
            DistError::NoConvergence { iterations } => {
                write!(f, "estimator failed to converge after {iterations} iterations")
            }
            DistError::InvalidStoppingRule { reason } => {
                write!(f, "invalid stopping rule: {reason}")
            }
            DistError::NonFiniteObservation { count } => {
                write!(
                    f,
                    "accumulator rejected {count} non-finite observation{} (NaN or ±inf); \
                     its estimates are unavailable",
                    if *count == 1 { "" } else { "s" }
                )
            }
        }
    }
}

impl Error for DistError {}

impl DistError {
    /// Validates that `value` is finite and strictly positive, returning it
    /// on success.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonFiniteParameter`] or
    /// [`DistError::NonPositiveParameter`] when the check fails.
    pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64, DistError> {
        if !value.is_finite() {
            return Err(DistError::NonFiniteParameter { name, value });
        }
        if value <= 0.0 {
            return Err(DistError::NonPositiveParameter { name, value });
        }
        Ok(value)
    }

    /// Validates that `value` is finite and non-negative, returning it on
    /// success.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::NonFiniteParameter`] or
    /// [`DistError::NonPositiveParameter`] when the check fails.
    pub(crate) fn check_non_negative(name: &'static str, value: f64) -> Result<f64, DistError> {
        if !value.is_finite() {
            return Err(DistError::NonFiniteParameter { name, value });
        }
        if value < 0.0 {
            return Err(DistError::NonPositiveParameter { name, value });
        }
        Ok(value)
    }

    /// Validates that `p` is a probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`DistError::InvalidProbability`] when `p` is outside the
    /// unit interval or not finite.
    pub(crate) fn check_probability(p: f64) -> Result<f64, DistError> {
        if !p.is_finite() || !(0.0..=1.0).contains(&p) {
            return Err(DistError::InvalidProbability { value: p });
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_positive_accepts_positive() {
        assert_eq!(DistError::check_positive("x", 1.5), Ok(1.5));
    }

    #[test]
    fn check_positive_rejects_zero_and_negative() {
        assert!(matches!(
            DistError::check_positive("x", 0.0),
            Err(DistError::NonPositiveParameter { name: "x", .. })
        ));
        assert!(matches!(
            DistError::check_positive("x", -3.0),
            Err(DistError::NonPositiveParameter { .. })
        ));
    }

    #[test]
    fn check_positive_rejects_nan_and_inf() {
        assert!(matches!(
            DistError::check_positive("x", f64::NAN),
            Err(DistError::NonFiniteParameter { .. })
        ));
        assert!(matches!(
            DistError::check_positive("x", f64::INFINITY),
            Err(DistError::NonFiniteParameter { .. })
        ));
    }

    #[test]
    fn check_non_negative_accepts_zero() {
        assert_eq!(DistError::check_non_negative("x", 0.0), Ok(0.0));
    }

    #[test]
    fn check_probability_bounds() {
        assert_eq!(DistError::check_probability(0.0), Ok(0.0));
        assert_eq!(DistError::check_probability(1.0), Ok(1.0));
        assert!(DistError::check_probability(1.0001).is_err());
        assert!(DistError::check_probability(-0.1).is_err());
        assert!(DistError::check_probability(f64::NAN).is_err());
    }

    #[test]
    fn display_is_informative() {
        let err = DistError::NonPositiveParameter { name: "shape", value: -1.0 };
        let msg = err.to_string();
        assert!(msg.contains("shape"));
        assert!(msg.contains("-1"));
    }
}
