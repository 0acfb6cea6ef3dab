//! Rare-event estimation: the crate-neutral statistics of multilevel
//! splitting.
//!
//! The paper's headline measures — data-loss probability and
//! unavailability of a petascale file system over a year — are *rare
//! events*: at realistic failure and repair rates a plain Monte-Carlo study
//! burns millions of replications before it sees a single loss, so its
//! relative confidence-interval half-width never converges. Multilevel
//! splitting (RESTART-style, fixed effort) fixes that: the rare event is
//! factored through a chain of intermediate levels (`exposure depth 1, 2,
//! …, loss`), each stage restarting trials from the states that reached
//! the previous level, so the overall probability is the product of
//! per-level conditional passage probabilities that are each *not* rare.
//! [`splitting_probability`] combines the per-level [`LevelPassage`]
//! counts into a [`RareEventEstimate`] using the standard
//! independent-stages relative-variance approximation. The simulator side
//! lives in `raidsim::splitting`.
//!
//! [`naive_replications_for`] closes the loop: it projects how many plain
//! Monte-Carlo replications a probability would need to reach a relative
//! half-width target, which is the baseline the reported
//! [`RareEventEstimate::variance_reduction_factor`] is measured against.

use crate::special::std_normal_quantile;
use crate::stats::ConfidenceInterval;
use crate::DistError;

/// The result of a rare-event estimate: the probability with its
/// confidence interval, how much statistical information it rests on, and
/// how it compares against naive Monte Carlo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareEventEstimate {
    /// Confidence interval on the estimated probability.
    pub interval: ConfidenceInterval,
    /// Effective sample size behind the estimate: the naive-equivalent
    /// sample count, i.e. how many plain Bernoulli samples would give the
    /// same relative variance.
    pub effective_sample_size: f64,
    /// Splitting trials actually spent, summed over every level (and, for
    /// an adaptive run, every round).
    pub replications: usize,
    /// Trials that reached the final level.
    pub hits: u64,
    /// Measured variance-reduction factor: how many times more replications
    /// naive Monte Carlo would need to reach the same precision. `0.0` when
    /// the estimate is degenerate (no hits).
    pub variance_reduction_factor: f64,
}

impl RareEventEstimate {
    /// Relative half-width `half_width / point`, `f64::INFINITY` for a zero
    /// point estimate — the quantity precision targets are expressed in.
    pub fn relative_error(&self) -> f64 {
        self.interval.relative_half_width()
    }
}

/// Projects the number of naive Monte-Carlo replications needed to estimate
/// a probability to the given relative half-width at the given confidence
/// level: `z² (1 − p) / (p · rhw²)` — the Bernoulli-variance sample-size
/// formula. This is the baseline rare-event estimates are measured
/// against: at `p = 10⁻⁸` and ±10 % it is ~3.8 × 10¹⁰ replications.
///
/// # Errors
///
/// Returns [`DistError::InvalidProbability`] for `probability` outside
/// `(0, 1)` or a level outside `(0, 1)`, and
/// [`DistError::NonPositiveParameter`] for a non-positive relative
/// half-width.
pub fn naive_replications_for(
    probability: f64,
    relative_half_width: f64,
    level: f64,
) -> Result<f64, DistError> {
    if !(probability > 0.0 && probability < 1.0 && probability.is_finite()) {
        return Err(DistError::InvalidProbability { value: probability });
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(DistError::InvalidProbability { value: level });
    }
    DistError::check_positive("relative_half_width", relative_half_width)?;
    let z = std_normal_quantile(0.5 + level / 2.0);
    Ok(z * z * (1.0 - probability) / (probability * relative_half_width * relative_half_width))
}

/// One stage of a multilevel-splitting run: how many of the stage's trials
/// reached the next level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelPassage {
    /// Trials that reached the next level.
    pub hits: usize,
    /// Trials executed at this stage.
    pub trials: usize,
}

/// Combines per-level passage counts of a fixed-effort splitting run into a
/// [`RareEventEstimate`]: the probability is the product of the per-level
/// conditional passage fractions `p̂ₖ = hitsₖ / trialsₖ`, and the interval
/// uses the standard independent-stages relative-variance approximation
/// `δ² ≈ Σₖ (1 − p̂ₖ) / (trialsₖ · p̂ₖ)` (normal interval `p̂ · (1 ± z·δ)`).
///
/// The effective sample size reported is the *naive-equivalent* count: the
/// number of plain Bernoulli(p) samples that would produce the same
/// relative variance, `(1 − p̂) / (p̂ · δ²)`; the variance-reduction factor
/// is that count divided by the trials actually spent.
///
/// A run whose final level recorded zero hits yields a **zero point
/// estimate with a one-sided upper bound in `half_width`**: the product of
/// the resolved stage fractions times the "rule of three" bound `3/N` of
/// the first zero-hit stage (deeper, unobserved stages are bounded by 1).
/// The relative error of such an estimate is infinite, so a stopping rule
/// never declares it met (see
/// [`StoppingRule::met_by`](crate::stats::StoppingRule::met_by)) — the
/// caller sees "below ~`upper` at 95 %, not resolved at this effort",
/// never a vacuous claim of precision. ESS and the variance-reduction
/// factor are zero.
///
/// # Errors
///
/// Returns [`DistError::EmptyData`] for an empty level list,
/// [`DistError::InvalidProbability`] for a level outside `(0, 1)`, and
/// [`DistError::DegenerateData`] if any stage has zero trials or more hits
/// than trials.
pub fn splitting_probability(
    levels: &[LevelPassage],
    level: f64,
) -> Result<RareEventEstimate, DistError> {
    if levels.is_empty() {
        return Err(DistError::EmptyData);
    }
    if !(level > 0.0 && level < 1.0) {
        return Err(DistError::InvalidProbability { value: level });
    }
    let mut probability = 1.0_f64;
    let mut relative_variance = 0.0_f64;
    let mut replications = 0usize;
    for stage in levels {
        if stage.trials == 0 || stage.hits > stage.trials {
            return Err(DistError::DegenerateData {
                reason: "splitting stage needs 0 <= hits <= trials with trials > 0",
            });
        }
        replications += stage.trials;
        let p_k = stage.hits as f64 / stage.trials as f64;
        probability *= p_k;
        if p_k > 0.0 {
            relative_variance += (1.0 - p_k) / (stage.trials as f64 * p_k);
        }
    }
    let hits = levels.last().map_or(0, |s| s.hits as u64);
    if probability == 0.0 {
        // One-sided upper bound: resolved stages contribute their point
        // fractions, the first zero-hit stage its rule-of-three bound. At
        // tiny trial counts the product can exceed 1; a probability bound
        // above 1 carries no information, so clamp there.
        let mut upper = 1.0;
        for stage in levels {
            if stage.hits == 0 {
                upper *= 3.0 / stage.trials as f64;
                break;
            }
            upper *= stage.hits as f64 / stage.trials as f64;
        }
        return Ok(RareEventEstimate {
            interval: ConfidenceInterval {
                point: 0.0,
                half_width: upper.min(1.0),
                level,
                samples: replications as u64,
            },
            effective_sample_size: 0.0,
            replications,
            hits,
            variance_reduction_factor: 0.0,
        });
    }
    let z = std_normal_quantile(0.5 + level / 2.0);
    let delta = relative_variance.sqrt();
    // The normal interval around a probability is clipped at 1: the upper
    // endpoint of a probability estimate can never meaningfully exceed it
    // (the interval stays honest in winner selections that minimise the
    // upper bound).
    let interval = ConfidenceInterval {
        point: probability,
        half_width: (z * probability * delta).min(1.0 - probability),
        level,
        samples: replications as u64,
    };
    let (effective_sample_size, variance_reduction_factor) = if relative_variance > 0.0 {
        let naive_equivalent = (1.0 - probability) / (probability * relative_variance);
        (naive_equivalent, naive_equivalent / replications as f64)
    } else {
        // Every stage passed with certainty: the estimate is exact.
        (replications as f64, 1.0)
    };
    Ok(RareEventEstimate {
        interval,
        effective_sample_size,
        replications,
        hits,
        variance_reduction_factor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_replication_projection_matches_the_formula() {
        // p = 1e-4, ±10 % at 95 %: 1.96² · (1 − 1e-4) / (1e-4 · 0.01).
        let n = naive_replications_for(1e-4, 0.1, 0.95).unwrap();
        let z = std_normal_quantile(0.975);
        assert!((n - z * z * (1.0 - 1e-4) / (1e-4 * 0.01)).abs() / n < 1e-12);
        assert!(n > 3.8e6 && n < 3.9e6, "projection {n}");

        // The 1e-8 regime the subsystem exists for needs ~10¹⁰ naive runs.
        let deep = naive_replications_for(1e-8, 0.1, 0.95).unwrap();
        assert!(deep > 3.8e10, "projection {deep}");

        assert!(naive_replications_for(0.0, 0.1, 0.95).is_err());
        assert!(naive_replications_for(1.0, 0.1, 0.95).is_err());
        assert!(naive_replications_for(f64::NAN, 0.1, 0.95).is_err());
        assert!(naive_replications_for(1e-4, 0.0, 0.95).is_err());
        assert!(naive_replications_for(1e-4, 0.1, 1.0).is_err());
    }

    #[test]
    fn splitting_combines_level_passages() {
        // Three stages at 1/10 each: p = 1e-3 from 3000 trials.
        let levels = [
            LevelPassage { hits: 100, trials: 1000 },
            LevelPassage { hits: 100, trials: 1000 },
            LevelPassage { hits: 100, trials: 1000 },
        ];
        let estimate = splitting_probability(&levels, 0.95).unwrap();
        assert!((estimate.interval.point - 1e-3).abs() < 1e-15);
        assert_eq!(estimate.replications, 3000);
        assert_eq!(estimate.hits, 100);
        // δ² = 3 · 0.9 / 100 = 0.027; half-width = 1.96 · p · δ.
        let delta = (3.0 * 0.9 / 100.0_f64).sqrt();
        let z = std_normal_quantile(0.975);
        assert!((estimate.interval.half_width - z * 1e-3 * delta).abs() < 1e-12);
        // Naive equivalent: (1 − p)/(p δ²) ≈ 37 000 samples from 3000
        // trials — a >10x variance reduction.
        assert!(estimate.effective_sample_size > 30_000.0);
        assert!(estimate.variance_reduction_factor > 10.0);
    }

    #[test]
    fn splitting_zero_hits_reports_an_upper_bound_not_a_confident_zero() {
        let levels =
            [LevelPassage { hits: 50, trials: 100 }, LevelPassage { hits: 0, trials: 100 }];
        let estimate = splitting_probability(&levels, 0.95).unwrap();
        assert_eq!(estimate.interval.point, 0.0);
        // Rule of three through the resolved stage: 0.5 · 3/100.
        assert!((estimate.interval.half_width - 0.5 * 0.03).abs() < 1e-15);
        assert_eq!(estimate.effective_sample_size, 0.0);
        assert_eq!(estimate.variance_reduction_factor, 0.0);
        assert_eq!(estimate.hits, 0);
        assert_eq!(estimate.replications, 200);
        assert_eq!(estimate.relative_error(), f64::INFINITY);
        // And the stopping machinery refuses to call this precise.
        let rule = crate::stats::StoppingRule::new(0.1, 2, 10).unwrap();
        assert!(!rule.met_by(&estimate.interval));

        // A zero-hit *first* stage bounds deeper unobserved stages by 1.
        let first = [LevelPassage { hits: 0, trials: 300 }, LevelPassage { hits: 0, trials: 300 }];
        let estimate = splitting_probability(&first, 0.95).unwrap();
        assert!((estimate.interval.half_width - 0.01).abs() < 1e-15);
    }

    /// Regression: the reported bounds are probabilities — at minimal
    /// trial counts neither the rule-of-three bound nor the normal upper
    /// endpoint may exceed 1.
    #[test]
    fn splitting_bounds_never_exceed_one() {
        // Zero-hit branch: 2/2 then 0/2 would give 1.0 · 3/2 = 1.5 raw.
        let zero = [LevelPassage { hits: 2, trials: 2 }, LevelPassage { hits: 0, trials: 2 }];
        let estimate = splitting_probability(&zero, 0.95).unwrap();
        assert_eq!(estimate.interval.point, 0.0);
        assert_eq!(estimate.interval.half_width, 1.0);

        // Resolved branch: 2/2 then 1/2 gives p = 0.5 with a raw normal
        // half-width of ~0.69.
        let wide = [LevelPassage { hits: 2, trials: 2 }, LevelPassage { hits: 1, trials: 2 }];
        let estimate = splitting_probability(&wide, 0.95).unwrap();
        assert!(estimate.interval.upper() <= 1.0, "upper {}", estimate.interval.upper());
        assert_eq!(estimate.interval.upper(), 1.0);
    }

    #[test]
    fn splitting_certain_passage_is_exact() {
        let levels = [LevelPassage { hits: 64, trials: 64 }];
        let estimate = splitting_probability(&levels, 0.95).unwrap();
        assert_eq!(estimate.interval.point, 1.0);
        assert_eq!(estimate.interval.half_width, 0.0);
        assert_eq!(estimate.variance_reduction_factor, 1.0);
    }

    #[test]
    fn splitting_validates_inputs() {
        assert!(matches!(splitting_probability(&[], 0.95), Err(DistError::EmptyData)));
        let bad_trials = [LevelPassage { hits: 0, trials: 0 }];
        assert!(matches!(
            splitting_probability(&bad_trials, 0.95),
            Err(DistError::DegenerateData { .. })
        ));
        let bad_hits = [LevelPassage { hits: 5, trials: 2 }];
        assert!(matches!(
            splitting_probability(&bad_hits, 0.95),
            Err(DistError::DegenerateData { .. })
        ));
        let ok = [LevelPassage { hits: 1, trials: 2 }];
        assert!(splitting_probability(&ok, 0.0).is_err());
        assert!(splitting_probability(&ok, 1.0).is_err());
    }
}
