use serde::{Deserialize, Serialize};

use crate::fitting::{validate_lifetimes, Lifetime};
use crate::{DistError, Weibull};

/// Result of a maximum-likelihood Weibull fit to right-censored lifetimes.
///
/// This mirrors the paper's Table 4 analysis: "Survival analysis of the
/// disk failures (n = 480) using Weibull regression … gives the shape
/// parameter as 0.696 with standard deviation of 0.192".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeibullFit {
    /// Estimated shape parameter `β`.
    pub shape: f64,
    /// Estimated scale parameter `η` (hours).
    pub scale: f64,
    /// Asymptotic standard error of the shape estimate.
    pub shape_std_error: f64,
    /// Number of observed failures used in the fit.
    pub failures: usize,
    /// Number of censored observations.
    pub censored: usize,
    /// Maximised log-likelihood value.
    pub log_likelihood: f64,
}

impl WeibullFit {
    /// The fitted distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if the fitted parameters are degenerate (should not
    /// happen for a successful fit).
    pub fn distribution(&self) -> Result<Weibull, DistError> {
        Weibull::new(self.shape, self.scale)
    }
}

/// Fits a Weibull distribution to right-censored lifetimes by maximum
/// likelihood.
///
/// The scale parameter is profiled out analytically: for a fixed shape `β`,
/// the MLE of `η^β` is `Σ tᵢ^β / r` where `r` is the number of observed
/// failures. The remaining one-dimensional score equation in `β` is solved
/// by bisection (guaranteed convergence since the profile score is
/// monotone decreasing in `β` for valid data).
///
/// # Errors
///
/// * [`DistError::EmptyData`] if `data` is empty.
/// * [`DistError::DegenerateData`] if fewer than two failures are observed
///   or all observed failure times are identical.
/// * [`DistError::NoConvergence`] if the bisection cannot bracket a root
///   (pathological data).
pub fn fit_weibull(data: &[Lifetime]) -> Result<WeibullFit, DistError> {
    let failures = validate_lifetimes(data, 2)?;
    let censored = data.len() - failures;

    let failure_times: Vec<f64> =
        data.iter().filter(|l| l.is_failure()).map(super::Lifetime::time).collect();
    let first = failure_times[0];
    if failure_times.iter().all(|&t| (t - first).abs() < 1e-12) {
        return Err(DistError::DegenerateData {
            reason: "all observed failure times are identical",
        });
    }

    // Profile score function in the shape parameter.
    let score = |beta: f64| -> f64 {
        let mut sum_tb = 0.0;
        let mut sum_tb_ln = 0.0;
        for l in data {
            let tb = l.time().powf(beta);
            sum_tb += tb;
            sum_tb_ln += tb * l.time().ln();
        }
        let mean_ln_fail: f64 = failure_times.iter().map(|t| t.ln()).sum::<f64>() / failures as f64;
        sum_tb_ln / sum_tb - 1.0 / beta - mean_ln_fail
    };

    // Bracket the root: score(β) is increasing in β towards a positive
    // limit and tends to -inf as β -> 0+, so scan until the sign changes.
    // The `t^β` terms can overflow to infinity for extreme observation
    // times, turning the score into NaN — treat that as non-convergence
    // rather than bisecting on garbage.
    let mut lo = 0.01;
    let mut hi = 0.1;
    let mut iterations = 0usize;
    loop {
        let s = score(hi);
        if !s.is_finite() {
            return Err(DistError::NoConvergence { iterations });
        }
        if s >= 0.0 {
            break;
        }
        lo = hi;
        hi *= 2.0;
        iterations += 1;
        if iterations > 60 {
            return Err(DistError::NoConvergence { iterations });
        }
    }

    // Bisection.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if score(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-10 * hi {
            break;
        }
    }
    let shape = 0.5 * (lo + hi);

    // Profile MLE of the scale.
    let sum_tb: f64 = data.iter().map(|l| l.time().powf(shape)).sum();
    let scale = (sum_tb / failures as f64).powf(1.0 / shape);

    let log_likelihood = weibull_log_likelihood(data, shape, scale);

    // Asymptotic standard error of the shape from the observed information
    // (numerical second derivative of the profile log-likelihood).
    let h = shape * 1e-4;
    let ll = |b: f64| -> f64 {
        let stb: f64 = data.iter().map(|l| l.time().powf(b)).sum();
        let sc = (stb / failures as f64).powf(1.0 / b);
        weibull_log_likelihood(data, b, sc)
    };
    let d2 = (ll(shape + h) - 2.0 * log_likelihood + ll(shape - h)) / (h * h);
    let shape_std_error = if d2 < 0.0 { (-1.0 / d2).sqrt() } else { f64::NAN };

    Ok(WeibullFit { shape, scale, shape_std_error, failures, censored, log_likelihood })
}

/// Log-likelihood of right-censored data under `Weibull(shape, scale)`.
fn weibull_log_likelihood(data: &[Lifetime], shape: f64, scale: f64) -> f64 {
    let mut ll = 0.0;
    for l in data {
        let z = l.time() / scale;
        if l.is_failure() {
            ll += shape.ln() - scale.ln() + (shape - 1.0) * z.ln() - z.powf(shape);
        } else {
            ll -= z.powf(shape);
        }
    }
    ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Distribution, SimRng};

    fn simulate_lifetimes(
        shape: f64,
        scale: f64,
        n: usize,
        censor_at: f64,
        seed: u64,
    ) -> Vec<Lifetime> {
        let w = Weibull::new(shape, scale).unwrap();
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let t = w.sample(&mut rng);
                if t < censor_at {
                    Lifetime::failure(t).unwrap()
                } else {
                    Lifetime::censored(censor_at).unwrap()
                }
            })
            .collect()
    }

    #[test]
    fn recovers_parameters_without_censoring() {
        let data = simulate_lifetimes(1.5, 100.0, 4000, f64::INFINITY, 1);
        let fit = fit_weibull(&data).unwrap();
        assert!((fit.shape - 1.5).abs() < 0.08, "shape {}", fit.shape);
        assert!((fit.scale - 100.0).abs() / 100.0 < 0.05, "scale {}", fit.scale);
        assert_eq!(fit.censored, 0);
        assert_eq!(fit.failures, 4000);
    }

    #[test]
    fn recovers_infant_mortality_shape_with_heavy_censoring() {
        // This mirrors the disk study: Weibull(0.7) lifetimes with mean
        // 300 000 h observed for only ~2000 h, so almost all units are
        // censored — exactly the situation of Table 4.
        let w = Weibull::from_shape_and_mean(0.7, 300_000.0).unwrap();
        let data = simulate_lifetimes(0.7, w.scale(), 20_000, 2_000.0, 2);
        let fit = fit_weibull(&data).unwrap();
        assert!(fit.censored > fit.failures, "most units should be censored");
        assert!((fit.shape - 0.7).abs() < 0.1, "shape {}", fit.shape);
    }

    #[test]
    fn shape_std_error_is_finite_and_positive() {
        let data = simulate_lifetimes(0.9, 500.0, 500, 800.0, 3);
        let fit = fit_weibull(&data).unwrap();
        assert!(fit.shape_std_error.is_finite());
        assert!(fit.shape_std_error > 0.0);
    }

    #[test]
    fn errors_on_degenerate_data() {
        assert!(matches!(fit_weibull(&[]), Err(DistError::EmptyData)));
        let one = vec![Lifetime::failure(5.0).unwrap()];
        assert!(matches!(fit_weibull(&one), Err(DistError::DegenerateData { .. })));
        let identical = vec![Lifetime::failure(5.0).unwrap(), Lifetime::failure(5.0).unwrap()];
        assert!(matches!(fit_weibull(&identical), Err(DistError::DegenerateData { .. })));
        let censored_only =
            vec![Lifetime::censored(5.0).unwrap(), Lifetime::censored(6.0).unwrap()];
        assert!(matches!(fit_weibull(&censored_only), Err(DistError::DegenerateData { .. })));
        // One failure among censored observations is still too few to fit
        // both parameters.
        let one_failure = vec![Lifetime::failure(5.0).unwrap(), Lifetime::censored(9.0).unwrap()];
        assert!(matches!(fit_weibull(&one_failure), Err(DistError::DegenerateData { .. })));
    }

    #[test]
    fn overflowing_observation_times_are_a_typed_error_not_garbage() {
        // `t^β` overflows during root bracketing for times near f64::MAX,
        // which used to make the score NaN and silently terminate the
        // bracket scan on an arbitrary interval.
        // Nearly identical huge failure times: the profile score stays
        // negative (≈ −1/β) until far beyond the β at which t^β overflows.
        let data = vec![Lifetime::failure(9.99e307).unwrap(), Lifetime::failure(1e308).unwrap()];
        assert!(matches!(fit_weibull(&data), Err(DistError::NoConvergence { .. })));
    }

    #[test]
    fn exponential_data_gives_shape_near_one() {
        let data = simulate_lifetimes(1.0, 50.0, 3000, f64::INFINITY, 4);
        let fit = fit_weibull(&data).unwrap();
        assert!((fit.shape - 1.0).abs() < 0.06, "shape {}", fit.shape);
        assert!((fit.distribution().unwrap().mean() - 50.0).abs() / 50.0 < 0.06);
    }

    #[test]
    fn distribution_roundtrip() {
        let data = simulate_lifetimes(1.2, 10.0, 1000, f64::INFINITY, 5);
        let fit = fit_weibull(&data).unwrap();
        let d = fit.distribution().unwrap();
        assert!((d.shape() - fit.shape).abs() < 1e-12);
        assert!((d.scale() - fit.scale).abs() < 1e-12);
    }

    #[test]
    fn log_likelihood_is_maximised_at_fit() {
        let data = simulate_lifetimes(0.8, 200.0, 800, 500.0, 6);
        let fit = fit_weibull(&data).unwrap();
        let ll_at_fit = fit.log_likelihood;
        for delta in [-0.1, 0.1] {
            let ll_off = weibull_log_likelihood(&data, fit.shape + delta, fit.scale);
            assert!(ll_off <= ll_at_fit, "perturbed shape should not improve likelihood");
        }
    }
}
