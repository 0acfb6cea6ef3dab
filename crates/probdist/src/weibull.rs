use serde::{Deserialize, Serialize, Value};

use crate::special::gamma_fn;
use crate::{DistError, Distribution, SimRng};

/// Relative widening of [`WithinLimit`]'s uniform cutoff over the computed
/// `F(limit)`. It absorbs the rounding of `F(limit)` and of
/// [`Weibull::lifetime_at`], which stay within a few ulps (a relative
/// 1e-15), so no uniform whose lifetime ends by the limit lies above it.
const CUTOFF_GUARD: f64 = 1e-9;

/// Weibull distribution with shape `β` and scale `η` (hours).
///
/// The paper's disk-failure analysis (Table 4) fits ABE's scratch-partition
/// disk replacements to a Weibull distribution with shape `β ≈ 0.7`,
/// capturing infant mortality (`β < 1` means a decreasing hazard rate).
/// The scale parameter is chosen so that the mean matches the estimated
/// MTBF of 300 000 hours (AFR ≈ 2.92 %).
///
/// Parameterisation: CDF `F(x) = 1 - exp(-(x/η)^β)`.
///
/// # Example
///
/// ```
/// use probdist::{Distribution, Weibull};
///
/// # fn main() -> Result<(), probdist::DistError> {
/// let disk = Weibull::from_shape_and_mean(0.7, 300_000.0)?;
/// assert!((disk.mean() - 300_000.0).abs() < 1e-6);
/// assert!((disk.shape() - 0.7).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
    /// Precomputed `1/β` so the sampling hot path multiplies instead of
    /// dividing before every `powf`.
    inv_shape: f64,
}

impl Weibull {
    /// Creates a Weibull distribution from shape `β` and scale `η`.
    ///
    /// # Errors
    ///
    /// Returns an error if either parameter is not finite and strictly
    /// positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        let shape = DistError::check_positive("shape", shape)?;
        Ok(Weibull {
            shape,
            scale: DistError::check_positive("scale", scale)?,
            inv_shape: 1.0 / shape,
        })
    }

    /// Creates a Weibull distribution with the given shape whose *mean*
    /// equals `mean`.
    ///
    /// This is the parameterisation used throughout the paper: the shape is
    /// estimated from survival analysis and the scale is then chosen so the
    /// mean time between failures matches the observed replacement rate.
    ///
    /// # Errors
    ///
    /// Returns an error if `shape` or `mean` is not finite and strictly
    /// positive.
    pub fn from_shape_and_mean(shape: f64, mean: f64) -> Result<Self, DistError> {
        let shape = DistError::check_positive("shape", shape)?;
        let mean = DistError::check_positive("mean", mean)?;
        // mean = η Γ(1 + 1/β)  =>  η = mean / Γ(1 + 1/β)
        let scale = mean / gamma_fn(1.0 + 1.0 / shape);
        Weibull::new(shape, scale)
    }

    /// The shape parameter `β`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `η` in hours.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Whether the distribution exhibits infant mortality (`β < 1`,
    /// decreasing hazard rate).
    pub fn has_infant_mortality(&self) -> bool {
        self.shape < 1.0
    }

    /// The lifetime the inverse CDF maps the open uniform `u` to,
    /// `η (−ln(1 − u))^(1/β)`: exactly the bits [`Distribution::sample`]
    /// returns when its draw is `u`.
    ///
    /// `β = 1` is exactly the exponential, so the `powf` (a no-op by IEEE
    /// 754 semantics for `powf(x, 1.0)`) is skipped outright; other shapes
    /// use the precomputed `1/β`. Both paths are value-identical to the
    /// textbook formula — pinned by tests below.
    pub(crate) fn lifetime_at(&self, u: f64) -> f64 {
        let neg_ln = -(1.0 - u).ln();
        if self.shape == 1.0 {
            self.scale * neg_ln
        } else {
            self.scale * neg_ln.powf(self.inv_shape)
        }
    }

    /// Draws of this lifetime that matter only when they end by `limit`,
    /// such as first failures within a mission horizon (see
    /// [`WithinLimit`]).
    pub fn within(&self, limit: f64) -> WithinLimit {
        // F(limit) = 1 − exp(−(limit/η)^β), with `exp_m1` so that a small
        // probability keeps its relative precision.
        let cdf = -(-(limit / self.scale).powf(self.shape)).exp_m1();
        WithinLimit { lifetime: *self, limit, cutoff: cdf * (1.0 + CUTOFF_GUARD) }
    }
}

/// A [`Weibull`] lifetime drawn against a fixed limit.
///
/// [`WithinLimit::sample`] consumes one uniform per draw, exactly as
/// [`Distribution::sample`] does, and returns the lifetime only when it
/// ends by the limit. A uniform above the cutoff `F(limit)`, widened by a
/// relative 1e-9, provably maps past the limit, so it is consumed without
/// evaluating its `ln` and `powf`. That is the common case when the limit
/// is short against the scale: a one-year horizon against a 100 000-hour
/// disk mean skips about three draws in four.
#[derive(Debug, Clone, Copy)]
pub struct WithinLimit {
    lifetime: Weibull,
    limit: f64,
    /// Every uniform above it maps past `limit`.
    cutoff: f64,
}

impl WithinLimit {
    /// Draws one lifetime: `Some(x)` exactly when [`Distribution::sample`]
    /// on the same generator would return `x <= limit`, with the same
    /// bits, and `None` otherwise. Either way the generator advances as
    /// it would under `sample`.
    pub fn sample(&self, rng: &mut SimRng) -> Option<f64> {
        let u = rng.uniform_open01();
        if u > self.cutoff {
            return None;
        }
        let x = self.lifetime.lifetime_at(u);
        (x <= self.limit).then_some(x)
    }
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF on the open uniform, so that 1 − U never reaches 0.
        self.lifetime_at(rng.uniform_open01())
    }

    fn mean(&self) -> f64 {
        self.scale * gamma_fn(1.0 + 1.0 / self.shape)
    }

    fn variance(&self) -> f64 {
        let g1 = gamma_fn(1.0 + 1.0 / self.shape);
        let g2 = gamma_fn(1.0 + 2.0 / self.shape);
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = x / self.scale;
        (self.shape / self.scale) * z.powf(self.shape - 1.0) * (-z.powf(self.shape)).exp()
    }

    fn hazard(&self, x: f64) -> f64 {
        // Closed form avoids 0/0 issues in the tails:
        // h(x) = (β/η) (x/η)^(β-1)
        if x <= 0.0 {
            if self.shape < 1.0 {
                f64::INFINITY
            } else if self.shape > 1.0 {
                0.0
            } else {
                1.0 / self.scale
            }
        } else {
            (self.shape / self.scale) * (x / self.scale).powf(self.shape - 1.0)
        }
    }

    fn quantile(&self, p: f64) -> Result<f64, DistError> {
        let p = DistError::check_probability(p)?;
        if p >= 1.0 {
            return Ok(f64::INFINITY);
        }
        Ok(self.scale * (-(1.0 - p).ln()).powf(self.inv_shape))
    }
}

// `inv_shape` is derived state: serialisation carries only the parameters,
// exactly as the former derived form did.
impl Serialize for Weibull {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("shape".to_string(), self.shape.to_value()),
            ("scale".to_string(), self.scale.to_value()),
        ])
    }
}

impl Deserialize for Weibull {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constructor_validation() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, 0.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
        assert!(Weibull::from_shape_and_mean(0.7, -1.0).is_err());
    }

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(1.0, 100.0).unwrap();
        // CDF matches exponential with mean 100.
        for x in [1.0, 50.0, 100.0, 500.0] {
            let expected = 1.0 - (-x / 100.0_f64).exp();
            assert!((w.cdf(x) - expected).abs() < 1e-12);
        }
        assert!((w.mean() - 100.0).abs() < 1e-9);
        assert!((w.variance() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn from_shape_and_mean_recovers_mean() {
        for shape in [0.6, 0.7, 0.9, 1.0, 1.5, 3.0] {
            let w = Weibull::from_shape_and_mean(shape, 300_000.0).unwrap();
            assert!(
                (w.mean() - 300_000.0).abs() / 300_000.0 < 1e-10,
                "shape {shape} mean {}",
                w.mean()
            );
        }
    }

    #[test]
    fn infant_mortality_hazard_is_decreasing() {
        let w = Weibull::new(0.7, 300_000.0).unwrap();
        assert!(w.has_infant_mortality());
        let h1 = w.hazard(10.0);
        let h2 = w.hazard(1_000.0);
        let h3 = w.hazard(100_000.0);
        assert!(h1 > h2 && h2 > h3);
    }

    #[test]
    fn wear_out_hazard_is_increasing() {
        let w = Weibull::new(2.0, 1_000.0).unwrap();
        assert!(!w.has_infant_mortality());
        assert!(w.hazard(10.0) < w.hazard(100.0));
        assert!(w.hazard(100.0) < w.hazard(1_000.0));
    }

    #[test]
    fn quantile_inverts_cdf() {
        let w = Weibull::new(0.7, 300_000.0).unwrap();
        for p in [0.001, 0.1, 0.5, 0.9, 0.999] {
            let x = w.quantile(p).unwrap();
            assert!((w.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // heavy sampling loop
    fn sample_mean_converges() {
        let w = Weibull::from_shape_and_mean(0.7, 1_000.0).unwrap();
        let mut rng = SimRng::seed_from_u64(21);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| w.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1_000.0).abs() / 1_000.0 < 0.02, "sample mean {mean}");
    }

    #[test]
    fn powf_by_one_is_the_identity() {
        // The IEEE 754 guarantee the shape == 1 fast path leans on:
        // powf(x, 1.0) returns x exactly, so skipping it changes nothing.
        for x in [1e-300, 0.3, 1.0, 2.5, 6.9e3, 1.7e17, f64::MAX] {
            assert_eq!(x.powf(1.0), x);
        }
    }

    #[test]
    fn sample_fast_paths_are_value_identical_to_the_textbook_formula() {
        for shape in [0.6, 0.7, 1.0, 1.5, 3.0] {
            let w = Weibull::new(shape, 300_000.0).unwrap();
            let mut fast_rng = SimRng::seed_from_u64(99);
            let mut slow_rng = SimRng::seed_from_u64(99);
            for _ in 0..1_000 {
                let fast = w.sample(&mut fast_rng);
                let u = slow_rng.uniform_open01();
                let slow = w.scale() * (-(1.0 - u).ln()).powf(1.0 / w.shape());
                assert_eq!(fast.to_bits(), slow.to_bits(), "shape {shape}");
            }
        }
    }

    #[test]
    fn quantile_is_value_identical_to_the_textbook_formula() {
        for shape in [0.6, 0.7, 1.0, 1.5, 3.0] {
            let w = Weibull::new(shape, 300_000.0).unwrap();
            for p in [0.001, 0.1, 0.5, 0.9, 0.999] {
                let fast = w.quantile(p).unwrap();
                let slow = w.scale() * (-(1.0 - p).ln()).powf(1.0 / w.shape());
                assert_eq!(fast.to_bits(), slow.to_bits(), "shape {shape} p {p}");
            }
        }
    }

    #[test]
    fn serialisation_carries_only_the_parameters() {
        let w = Weibull::new(0.7, 300_000.0).unwrap();
        assert_eq!(serde::to_json(&w), "{\"shape\":0.7,\"scale\":300000}");
    }

    #[test]
    fn pdf_integrates_to_cdf() {
        // trapezoidal integration of the pdf approximates the cdf
        let w = Weibull::new(1.5, 10.0).unwrap();
        let mut acc = 0.0;
        let dx = 0.001;
        let mut x = 0.0;
        while x < 20.0 {
            acc += 0.5 * (w.pdf(x) + w.pdf(x + dx)) * dx;
            x += dx;
        }
        assert!((acc - w.cdf(20.0)).abs() < 1e-3);
    }

    proptest! {
        #[test]
        fn samples_non_negative(shape in 0.3..4.0_f64, scale in 0.1..1e6_f64, seed in any::<u64>()) {
            let w = Weibull::new(shape, scale).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..16 {
                prop_assert!(w.sample(&mut rng) >= 0.0);
            }
        }

        #[test]
        fn cdf_monotone(shape in 0.3..4.0_f64, scale in 0.1..1e6_f64, a in 0.0..1e6_f64, b in 0.0..1e6_f64) {
            let w = Weibull::new(shape, scale).unwrap();
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(w.cdf(lo) <= w.cdf(hi) + 1e-15);
        }

        #[test]
        fn quantile_roundtrip(shape in 0.3..4.0_f64, scale in 1.0..1e5_f64, p in 0.01..0.99_f64) {
            let w = Weibull::new(shape, scale).unwrap();
            let x = w.quantile(p).unwrap();
            prop_assert!((w.cdf(x) - p).abs() < 1e-8);
        }

        #[test]
        fn within_limit_returns_exactly_the_samples_that_end_by_the_limit(
            shape in 0.3..4.0_f64,
            exponential in any::<bool>(),
            scale in 0.1..1e6_f64,
            log10_ratio in -6.0..3.0_f64,
            seed in any::<u64>(),
        ) {
            let w = Weibull::new(if exponential { 1.0 } else { shape }, scale).unwrap();
            let limit = scale * 10f64.powf(log10_ratio);
            let within = w.within(limit);
            let mut cutoff_rng = SimRng::seed_from_u64(seed);
            let mut sample_rng = SimRng::seed_from_u64(seed);
            for _ in 0..256 {
                let x = w.sample(&mut sample_rng);
                let expected = (x <= limit).then_some(x.to_bits());
                prop_assert_eq!(within.sample(&mut cutoff_rng).map(f64::to_bits), expected);
            }
            prop_assert_eq!(cutoff_rng.next_u64(), sample_rng.next_u64());
        }

        // Walks the uniforms `SimRng` can draw (multiples of 2^-53) a few
        // steps either side of the unwidened `F(limit)`, where the last
        // uniform that ends by the limit lies, and of the cutoff.
        #[test]
        fn no_uniform_that_ends_by_the_limit_lies_above_the_cutoff(
            shape in 0.3..4.0_f64,
            exponential in any::<bool>(),
            scale in 0.1..1e6_f64,
            log10_ratio in -6.0..3.0_f64,
        ) {
            let w = Weibull::new(if exponential { 1.0 } else { shape }, scale).unwrap();
            let limit = scale * 10f64.powf(log10_ratio);
            let within = w.within(limit);
            let step = 1.0 / (1u64 << 53) as f64;
            for centre in [within.cutoff / (1.0 + CUTOFF_GUARD), within.cutoff] {
                let index = (centre / step).floor();
                for offset in -8..=8 {
                    let u = (index + f64::from(offset)) * step;
                    if u > 0.0 && u < 1.0 && w.lifetime_at(u) <= limit {
                        prop_assert!(u <= within.cutoff, "u {u} > cutoff {}", within.cutoff);
                    }
                }
            }
        }
    }
}
