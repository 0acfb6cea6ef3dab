//! Special mathematical functions needed by the distributions, fitting
//! routines and confidence intervals: log-gamma, the gamma function, the
//! error function, and the standard normal CDF and quantile.
//!
//! The gamma functions are accurate to roughly 1e-10 relative error over
//! the ranges used by the simulator (Weibull shapes in `[0.1, 50]`).

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9 coefficients).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut acc = COEFFS[0];
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }
}

/// The gamma function `Γ(x)` for `x > 0`.
pub(crate) fn gamma_fn(x: f64) -> f64 {
    ln_gamma(x).exp()
}

/// Error function `erf(x)`, accurate to about 1.2e-7 (Abramowitz & Stegun
/// 7.1.26 rational approximation), sufficient for CDF evaluations in tests
/// and reward summaries.
pub(crate) fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub(crate) fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse of the standard normal CDF (probit function).
///
/// Acklam's rational approximation, refined with one Newton step against the
/// erf-based CDF; absolute error is below about 1e-6 over `(0, 1)`, which is
/// ample for confidence-interval critical values.
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub(crate) fn std_normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit requires p in (0,1), got {p}");
    // Coefficients for Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley/Newton refinement step using the accurate erf-based CDF.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let cases = [(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (4.0, 6.0), (5.0, 24.0), (6.0, 120.0)];
        for (x, expected) in cases {
            assert!((ln_gamma(x).exp() - expected).abs() / expected < 1e-10, "Γ({x})");
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(π)
        let g = gamma_fn(0.5);
        assert!((g - std::f64::consts::PI.sqrt()).abs() < 1e-10);
        // Γ(3/2) = sqrt(π)/2
        assert!((gamma_fn(1.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-10);
    }

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn std_normal_cdf_symmetry() {
        for x in [0.0_f64, 0.5, 1.0, 2.0] {
            assert!((std_normal_cdf(x) + std_normal_cdf(-x) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn probit_inverts_cdf() {
        for p in [0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999] {
            let x = std_normal_quantile(p);
            assert!((std_normal_cdf(x) - p).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn probit_known_quantiles() {
        assert!(std_normal_quantile(0.5).abs() < 1e-6);
        assert!((std_normal_quantile(0.975) - 1.959_964).abs() < 1e-4);
        assert!((std_normal_quantile(0.025) + 1.959_964).abs() < 1e-4);
    }
}
