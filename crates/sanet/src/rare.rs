//! Importance sampling with failure biasing: exponential rate tilting of
//! failure activities, with the likelihood ratio accumulated event by event
//! through the compiled reward table.
//!
//! # Why
//!
//! The dependability measures this crate exists for — unavailability and
//! loss probabilities of highly redundant systems — are rare events: the
//! failure activities fire orders of magnitude more slowly than the repair
//! activities, so an unbiased simulation almost never reaches the states
//! the measure depends on. Failure biasing fixes that by simulating a
//! *tilted* model in which the designated failure activities fire at
//! `factor ×` their true rate, and weighting every replication by the
//! likelihood ratio `W = dP/dP′` of its sample path so the weighted
//! statistics still estimate the *original* model exactly.
//!
//! # How the likelihood ratio is accumulated
//!
//! For exponential activities the tilted model is a change of intensity,
//! and the Girsanov likelihood ratio of a path over `[0, T]` factors into
//! per-event terms:
//!
//! ```text
//! ln W = −ln(factor) · N_T  +  (factor − 1) · ∫₀ᵀ Λ_T(m_t) dt
//! ```
//!
//! where `N_T` counts completions of tilted activities and `Λ_T(m)` is the
//! total *original* rate of the tilted activities enabled in marking `m`.
//! Both pieces are exactly what the engine's compiled reward table already
//! accumulates event by event: `N_T` is an impulse reward bucketed on each
//! tilted activity, and the integral is an accumulated rate reward walked
//! between events. [`BiasedModel`] therefore needs **no kernel hooks at
//! all** — it registers two hidden reward families alongside the user's
//! rewards, and both execution kernels (event calendar and the naive
//! reference) support importance sampling identically, with the engine's
//! worker-count-invariant determinism intact.
//!
//! The tilt is exact for activities whose firing time is exponential —
//! fixed-rate [`Timing::Timed`] or marking-dependent [`Timing::TimedFn`]
//! (the memoryless property makes the keep-or-resample policy
//! law-equivalent, so the instantaneous intensity really is `rate(m_t)`).
//! [`FailureBias`] validation rejects non-exponential targets; a
//! marking-dependent target is probed on the initial marking and must
//! return an exponential for **every** reachable marking — the same style
//! of declared soundness contract as
//! [`enabling_reads`](crate::ActivityBuilder::enabling_reads).
//!
//! # Estimation
//!
//! [`BiasedExperiment`] runs replications of the tilted model and feeds
//! each reward observation with its weight `e^{ln W}` into a
//! [`WeightedRunning`] accumulator: the unbiased weighted mean is the
//! estimate, the Kish effective sample size diagnoses weight degeneracy,
//! and [`BiasedExperiment::run`] drives the ordinary [`StoppingRule`]
//! batch schedule (a fixed count is [`StoppingRule::fixed`]) with the
//! relative-half-width-on-the-weighted-mean criterion — refusing to stop
//! before the rule's minimum non-zero-observation support is reached
//! ([`StoppingRule::met_by_support`]).
//!
//! # Example
//!
//! ```
//! use probdist::stats::StoppingRule;
//! use probdist::Exponential;
//! use sanet::rare::{BiasedExperiment, FailureBias};
//! use sanet::reward::RewardSpec;
//! use sanet::ModelBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A unit that fails once per 100 000 hours: P(fail by 100 h) ≈ 1e-3.
//! let mut b = ModelBuilder::new("unit");
//! let up = b.add_place("up", 1)?;
//! let down = b.add_place("down", 0)?;
//! b.timed_activity("fail", Exponential::from_mean(100_000.0)?)?
//!     .input_arc(up, 1)
//!     .output_arc(down, 1)
//!     .build()?;
//! let model = b.build()?;
//!
//! // Bias the failure 200x and estimate with likelihood-ratio weights.
//! let bias = FailureBias::new(200.0, ["fail"])?;
//! let mut experiment = BiasedExperiment::new(&model, bias, 100.0)?;
//! experiment.add_reward(RewardSpec::instant_of_time("failed", move |m| {
//!     m.tokens(down) as f64
//! }));
//! let summary = experiment.run(&StoppingRule::fixed(400)?, 7)?;
//! let estimate = summary.reward("failed")?;
//! let exact = 1.0 - (-100.0_f64 / 100_000.0).exp();
//! assert!(estimate.interval.contains(exact));
//! # Ok(())
//! # }
//! ```

use probdist::stats::{run_to_precision, ConfidenceInterval, StoppingRule, WeightedRunning};
use probdist::{Dist, Exponential};

use crate::model::{Activity, DistFn};
use crate::reward::RewardSpec;
use crate::{ActivityId, Experiment, Model, RunResult, SanError, Timing};

/// Name of the hidden accumulated-rate reward carrying the integral term of
/// the log-likelihood ratio.
const LOG_LR_EXPOSURE: &str = "__rare/log_lr_exposure";

/// Name prefix of the hidden impulse rewards counting tilted-activity
/// completions (one per target, weighted by `−ln factor`).
const LOG_LR_FIRINGS: &str = "__rare/log_lr_firings/";

/// A failure-biasing specification: the named activities whose exponential
/// rates are tilted, and the common tilt factor.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureBias {
    factor: f64,
    activities: Vec<String>,
}

impl FailureBias {
    /// Creates a bias that multiplies the rate of every listed activity by
    /// `factor`. Factors above 1 make failures common (the rare-event use
    /// case); any positive factor is a valid change of measure.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidExperiment`] for a non-finite or
    /// non-positive factor, or an empty activity list.
    pub fn new<I, S>(factor: f64, activities: I) -> Result<Self, SanError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(SanError::InvalidExperiment {
                reason: format!("failure-bias factor must be positive and finite, got {factor}"),
            });
        }
        let activities: Vec<String> = activities.into_iter().map(Into::into).collect();
        if activities.is_empty() {
            return Err(SanError::InvalidExperiment {
                reason: "failure bias needs at least one target activity".into(),
            });
        }
        Ok(FailureBias { factor, activities })
    }

    /// The tilt factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The targeted activity names.
    pub fn activities(&self) -> &[String] {
        &self.activities
    }
}

/// How a target activity's original rate is recovered in a given marking,
/// for the exposure integral `Λ_T(m)`.
enum RateEval {
    /// Fixed exponential rate.
    Fixed(f64),
    /// Marking-dependent distribution; must return an exponential in every
    /// reachable marking (validated on the initial marking at build time).
    Marked(DistFn),
}

/// A model with tilted failure rates plus the hidden likelihood-ratio
/// rewards that reconstruct `ln W` from any [`RunResult`].
pub struct BiasedModel {
    tilted: Model,
    factor: f64,
    targets: Vec<ActivityId>,
    lr_rewards: Vec<RewardSpec>,
}

impl std::fmt::Debug for BiasedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BiasedModel")
            .field("model", &self.tilted.name())
            .field("factor", &self.factor)
            .field("targets", &self.targets.len())
            .finish()
    }
}

impl BiasedModel {
    /// Builds the tilted model and its likelihood-ratio reward set.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownId`] for a target name that does not
    /// exist and [`SanError::InvalidExperiment`] for a target that is
    /// instantaneous or not exponentially timed (a marking-dependent
    /// target is probed on the initial marking).
    pub fn build(model: &Model, bias: &FailureBias) -> Result<BiasedModel, SanError> {
        let factor = bias.factor();
        let initial = model.initial_marking();
        let mut targets = Vec::with_capacity(bias.activities().len());
        let mut tilted_timings = Vec::with_capacity(bias.activities().len());
        let mut evaluators: Vec<(Activity, RateEval)> = Vec::with_capacity(targets.capacity());

        for name in bias.activities() {
            let id = model
                .activity(name)
                .ok_or_else(|| SanError::UnknownId { what: format!("bias target `{name}`") })?;
            let activity = model.activity_ref(id);
            let (tilted_timing, evaluator) = match &activity.timing {
                Timing::Timed(Dist::Exponential(exp)) => {
                    let tilted = Exponential::new(factor * exp.rate()).map_err(|e| {
                        SanError::InvalidExperiment {
                            reason: format!("tilting `{name}` by {factor}: {e}"),
                        }
                    })?;
                    (Timing::Timed(Dist::Exponential(tilted)), RateEval::Fixed(exp.rate()))
                }
                Timing::Timed(other) => {
                    return Err(SanError::InvalidExperiment {
                        reason: format!(
                            "bias target `{name}` has {} timing; rate tilting requires an \
                             exponential firing distribution",
                            other.family()
                        ),
                    });
                }
                Timing::TimedFn(dist_fn) => {
                    // Probe the marking-dependent distribution once; the
                    // declared contract is that it is exponential in every
                    // reachable marking.
                    match dist_fn(&initial) {
                        Dist::Exponential(_) => {}
                        other => {
                            return Err(SanError::InvalidExperiment {
                                reason: format!(
                                    "bias target `{name}` has a marking-dependent {} timing; \
                                     rate tilting requires an exponential in every marking",
                                    other.family()
                                ),
                            });
                        }
                    }
                    let original = dist_fn.clone();
                    let wrapper: DistFn = std::sync::Arc::new(move |m| match original(m) {
                        Dist::Exponential(exp) => {
                            // A valid exponential rate is positive and
                            // finite, so the tilt can only fail by
                            // overflowing to infinity; clamp to a finite
                            // rate instead of panicking a worker thread
                            // (at ~1e308/hour the firing is instantaneous
                            // either way).
                            let tilted = (factor * exp.rate()).min(f64::MAX / 2.0);
                            Dist::Exponential(
                                Exponential::new(tilted).expect("clamped rate is positive finite"),
                            )
                        }
                        other => other,
                    });
                    (Timing::TimedFn(wrapper), RateEval::Marked(dist_fn.clone()))
                }
                Timing::Instantaneous => {
                    return Err(SanError::InvalidExperiment {
                        reason: format!(
                            "bias target `{name}` is instantaneous; only timed exponential \
                             activities can be rate-tilted"
                        ),
                    });
                }
            };
            targets.push(id);
            tilted_timings.push((id, tilted_timing));
            evaluators.push((activity.clone(), evaluator));
        }

        let tilted = model.clone_with_timings(tilted_timings.into_iter());

        // The integral term: (factor − 1) · Σ over enabled targets of the
        // *original* rate, accumulated over simulated time by the engine's
        // ordinary rate-reward walk.
        let mut lr_rewards = vec![RewardSpec::accumulated_rate(LOG_LR_EXPOSURE, move |m| {
            let mut total = 0.0;
            for (activity, rate) in &evaluators {
                if activity.is_enabled(m) {
                    total += match rate {
                        RateEval::Fixed(r) => *r,
                        RateEval::Marked(f) => match f(m) {
                            Dist::Exponential(exp) => exp.rate(),
                            // Contract violation surfaces as NaN weights,
                            // not silently wrong estimates.
                            _ => f64::NAN,
                        },
                    };
                }
            }
            (factor - 1.0) * total
        })];
        // The per-completion term: each tilted firing multiplies W by
        // 1/factor, i.e. adds −ln(factor) to ln W.
        for &id in &targets {
            lr_rewards.push(RewardSpec::impulse_total(
                format!("{LOG_LR_FIRINGS}{}", id.index()),
                id,
                -factor.ln(),
            ));
        }

        Ok(BiasedModel { tilted, factor, targets, lr_rewards })
    }

    /// The tilted model (failure rates multiplied by the bias factor).
    pub fn model(&self) -> &Model {
        &self.tilted
    }

    /// The tilt factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The hidden reward specifications that must be registered alongside
    /// the user's rewards for [`BiasedModel::log_likelihood_ratio`] to
    /// work. [`BiasedExperiment`] does this automatically.
    pub fn likelihood_ratio_rewards(&self) -> &[RewardSpec] {
        &self.lr_rewards
    }

    /// Reconstructs `ln W = ln dP/dP′` of one replication from its run
    /// result — the sum of the hidden exposure and firing rewards (their
    /// names were interned once at build time; this is called per
    /// replication on the adaptive hot path and must not allocate).
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownReward`] if the hidden rewards were not
    /// registered for the run.
    pub fn log_likelihood_ratio(&self, result: &RunResult) -> Result<f64, SanError> {
        let mut log_weight = 0.0;
        for spec in &self.lr_rewards {
            log_weight += result.reward(spec.name())?;
        }
        Ok(log_weight)
    }
}

/// The canonical rare-event benchmark model: a fail-over pair whose
/// members fail at `lambda` (aggregate marking-dependent rate `n·λ`) and
/// are repaired one at a time at `mu`, with a latch place that records
/// whether both members were ever down simultaneously — the *hitting*
/// event whose probability within a finite horizon is the cross-validation
/// measure of the importance-sampling subsystem.
///
/// The matching analytic oracle is [`failover_pair_hitting_oracle`]: the
/// 3-state absorbing CTMC (`both up → one down → hit`) solved by
/// [`SparseCtmc::transient`](crate::ctmc::SparseCtmc::transient)
/// uniformization. The tests, benches, and examples that pin the
/// subsystem all build the pair through this one constructor so the SAN
/// and its oracle cannot drift apart.
#[derive(Debug, Clone)]
pub struct FailoverPair {
    /// The SAN model (activities `fail`, `repair`, instantaneous `latch`).
    pub model: Model,
    /// The latch place: holds one token once both members have been down
    /// simultaneously.
    pub latched: crate::PlaceId,
}

impl FailoverPair {
    /// The instant-of-time reward reading the latch: `P(hit by horizon)`
    /// under replication. Registered under the name `"hit"`.
    pub fn hit_reward(&self) -> RewardSpec {
        let latched = self.latched;
        RewardSpec::instant_of_time("hit", move |m| m.tokens(latched) as f64)
    }
}

/// Builds the [`FailoverPair`] benchmark model.
///
/// # Errors
///
/// Returns [`SanError::InvalidExperiment`] for non-positive rates.
pub fn failover_pair(lambda: f64, mu: f64) -> Result<FailoverPair, SanError> {
    let mut b = crate::ModelBuilder::new("failover_pair");
    let working = b.add_place("working", 2)?;
    let failed = b.add_place("failed", 0)?;
    let armed = b.add_place("armed", 1)?;
    let latched = b.add_place("latched", 0)?;
    Exponential::new(lambda).map_err(|e| SanError::InvalidExperiment {
        reason: format!("fail-over pair failure rate: {e}"),
    })?;
    b.timed_activity_fn("fail", move |m: &crate::Marking| {
        let n = m.tokens(working).max(1) as f64;
        Dist::Exponential(Exponential::new(n * lambda).expect("validated rate"))
    })?
    .input_arc(working, 1)
    .output_arc(failed, 1)
    .build()?;
    b.timed_activity(
        "repair",
        Exponential::new(mu).map_err(|e| SanError::InvalidExperiment {
            reason: format!("fail-over pair repair rate: {e}"),
        })?,
    )?
    .input_arc(failed, 1)
    .output_arc(working, 1)
    .build()?;
    b.instant_activity("latch")?
        .input_arc(armed, 1)
        .enabling_predicate(move |m| m.tokens(failed) >= 2)
        .output_arc(latched, 1)
        .build()?;
    Ok(FailoverPair { model: b.build()?, latched })
}

/// The exact hitting probability of the [`failover_pair`] model: the
/// absorbing 3-state CTMC (`0` both up, `1` one down, `2` hit) solved by
/// [`SparseCtmc::transient`](crate::ctmc::SparseCtmc::transient)
/// uniformization — `π₂(horizon)` starting from both up.
///
/// Lumping the SAN's latched markings into one absorbing state is exact
/// because latching is irreversible; `reach_oracle.rs` checks the
/// assembled five-state generator against this chain to 1e-10.
///
/// # Errors
///
/// Propagates CTMC construction and transient-solve errors.
pub fn failover_pair_hitting_oracle(lambda: f64, mu: f64, horizon: f64) -> Result<f64, SanError> {
    let mut chain = crate::ctmc::SparseCtmc::new(3)?;
    chain.add_transition(0, 1, 2.0 * lambda)?;
    chain.add_transition(1, 0, mu)?;
    chain.add_transition(1, 2, lambda)?;
    Ok(chain.transient(0, horizon)?[2])
}

/// Point estimate of one reward under the original law, reconstructed from
/// likelihood-ratio-weighted replications of the tilted model.
#[derive(Debug, Clone)]
pub struct WeightedEstimate {
    /// The reward's name.
    pub name: String,
    /// Student-t interval on the unbiased weighted mean.
    pub interval: ConfidenceInterval,
    /// The raw weighted accumulator (weighted mean/variance, effective
    /// sample size, non-zero support count).
    pub stats: WeightedRunning,
}

impl WeightedEstimate {
    /// Kish effective sample size of the weighted replications.
    pub fn effective_sample_size(&self) -> f64 {
        self.stats.effective_sample_size()
    }
}

/// Results of a replicated importance-sampled experiment.
#[derive(Debug, Clone)]
pub struct WeightedSummary {
    estimates: Vec<WeightedEstimate>,
    /// Replications actually executed.
    pub replications: usize,
    /// Simulation horizon of each replication (hours).
    pub horizon: f64,
    /// Total activity completions across all replications (of the tilted
    /// model — biased runs are busier than unbiased ones by design).
    pub total_events: u64,
}

impl WeightedSummary {
    /// The estimate for the named reward.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownReward`] if no reward with that name was
    /// registered.
    pub fn reward(&self, name: &str) -> Result<&WeightedEstimate, SanError> {
        self.estimates
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| SanError::UnknownReward { name: name.to_string() })
    }

    /// All reward estimates, in registration order.
    pub fn rewards(&self) -> &[WeightedEstimate] {
        &self.estimates
    }
}

/// A replicated importance-sampling experiment: an [`Experiment`] on the
/// tilted model whose reward estimates are reconstructed under the
/// original law through per-replication likelihood-ratio weights.
///
/// Replication `i` draws from the stream derived from `(seed, i)` exactly
/// like an unbiased [`Experiment`], so weighted results are bit-identical
/// at any worker count, and an adaptive [`BiasedExperiment::run`] that
/// stops at `n` replications matches a fixed run of `n`.
pub struct BiasedExperiment {
    experiment: Experiment,
    biased: BiasedModel,
    user_rewards: Vec<String>,
    confidence_level: f64,
}

impl std::fmt::Debug for BiasedExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BiasedExperiment")
            .field("biased", &self.biased)
            .field("rewards", &self.user_rewards.len())
            .field("confidence_level", &self.confidence_level)
            .finish()
    }
}

impl BiasedExperiment {
    /// Creates an importance-sampling experiment on `model` under `bias`
    /// with the given simulation horizon (hours).
    ///
    /// # Errors
    ///
    /// Propagates [`BiasedModel::build`] validation errors.
    pub fn new(model: &Model, bias: FailureBias, horizon: f64) -> Result<Self, SanError> {
        let biased = BiasedModel::build(model, &bias)?;
        let mut experiment = Experiment::new(biased.model().clone(), horizon);
        for reward in biased.likelihood_ratio_rewards() {
            experiment.add_reward(reward.clone());
        }
        Ok(BiasedExperiment {
            experiment,
            biased,
            user_rewards: Vec::new(),
            confidence_level: 0.95,
        })
    }

    /// Registers a reward variable to estimate (under the original law).
    pub fn add_reward(&mut self, reward: RewardSpec) -> &mut Self {
        self.user_rewards.push(reward.name().to_string());
        self.experiment.add_reward(reward);
        self
    }

    /// Sets the confidence level of reported intervals (default 0.95).
    pub fn set_confidence_level(&mut self, level: f64) -> &mut Self {
        self.confidence_level = level;
        self
    }

    /// Sets the worker-thread count for the replication fan-out (`0` =
    /// auto, `1` = serial; any value yields bit-identical statistics).
    pub fn set_workers(&mut self, workers: usize) -> &mut Self {
        self.experiment.set_workers(workers);
        self
    }

    /// The tilted model being simulated.
    pub fn biased_model(&self) -> &BiasedModel {
        &self.biased
    }

    /// Runs replication batches of the tilted model under `rule` and
    /// summarises every reward with likelihood-ratio weights: exactly `n`
    /// replications for [`StoppingRule::fixed`], otherwise batches until
    /// every registered reward's weighted interval satisfies `rule` —
    /// including its minimum non-zero support
    /// ([`StoppingRule::met_by_support`]), so an estimate cannot stop on a
    /// handful of lucky hits — or the cap is reached. Batches extend one
    /// index sequence, so an adaptive run of `n` replications is
    /// bit-identical to a fixed run of `n`.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidExperiment`] if a replication's weight
    /// overflows (a catastrophically mis-chosen tilt), and propagates
    /// simulation and statistics errors.
    pub fn run(&self, rule: &StoppingRule, seed: u64) -> Result<WeightedSummary, SanError> {
        let results = run_to_precision(
            rule,
            |range| self.experiment.run_raw(range, seed, None),
            |results: &[RunResult]| {
                for name in &self.user_rewards {
                    let acc = self.accumulate(name, results)?;
                    let Ok(interval) = acc.confidence_interval(self.confidence_level) else {
                        return Ok(false);
                    };
                    if !rule.met_by_support(&interval, acc.nonzero_count()) {
                        return Ok(false);
                    }
                }
                Ok(true)
            },
        )?;
        self.summarise(&results)
    }

    /// Accumulates one reward's weighted observations across results.
    fn accumulate(&self, name: &str, results: &[RunResult]) -> Result<WeightedRunning, SanError> {
        let mut acc = WeightedRunning::new();
        for result in results {
            let log_weight = self.biased.log_likelihood_ratio(result)?;
            let weight = log_weight.exp();
            if !weight.is_finite() {
                return Err(SanError::InvalidExperiment {
                    reason: format!(
                        "likelihood-ratio weight overflowed (ln W = {log_weight}); the bias \
                         factor {} is catastrophically mis-chosen for this model",
                        self.biased.factor()
                    ),
                });
            }
            acc.push(result.reward(name)?, weight);
        }
        Ok(acc)
    }

    fn summarise(&self, results: &[RunResult]) -> Result<WeightedSummary, SanError> {
        let mut estimates = Vec::with_capacity(self.user_rewards.len());
        for name in &self.user_rewards {
            let stats = self.accumulate(name, results)?;
            let interval = stats.confidence_interval(self.confidence_level).map_err(|e| {
                SanError::InvalidExperiment { reason: format!("weighted interval: {e}") }
            })?;
            estimates.push(WeightedEstimate { name: name.clone(), interval, stats });
        }
        Ok(WeightedSummary {
            estimates,
            replications: results.len(),
            horizon: results.first().map_or(0.0, |r| r.end_time),
            total_events: results.iter().map(|r| r.events).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Marking, ModelBuilder};
    use probdist::rare::{naive_replications_for, weighted_probability};
    use probdist::SimRng;

    fn fixed(replications: usize) -> StoppingRule {
        StoppingRule::fixed(replications).unwrap()
    }

    fn single_unit(mean_fail: f64) -> (Model, crate::PlaceId) {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", Exponential::from_mean(mean_fail).unwrap())
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        (b.build().unwrap(), down)
    }

    /// The shared fail-over-pair fixture, unwrapped for test brevity.
    fn pair(lambda: f64, mu: f64) -> (Model, crate::PlaceId) {
        let fixture = failover_pair(lambda, mu).unwrap();
        (fixture.model, fixture.latched)
    }

    fn pair_hitting_probability(lambda: f64, mu: f64, horizon: f64) -> f64 {
        failover_pair_hitting_oracle(lambda, mu, horizon).unwrap()
    }

    #[test]
    fn bias_validation_rejects_bad_specifications() {
        assert!(FailureBias::new(0.0, ["fail"]).is_err());
        assert!(FailureBias::new(-2.0, ["fail"]).is_err());
        assert!(FailureBias::new(f64::NAN, ["fail"]).is_err());
        assert!(FailureBias::new(f64::INFINITY, ["fail"]).is_err());
        assert!(FailureBias::new(10.0, Vec::<String>::new()).is_err());
        let bias = FailureBias::new(10.0, ["fail"]).unwrap();
        assert_eq!(bias.factor(), 10.0);
        assert_eq!(bias.activities(), ["fail".to_string()]);
    }

    #[test]
    fn biased_model_rejects_unknown_and_untiltable_targets() {
        let (model, _down) = single_unit(1000.0);
        let unknown = FailureBias::new(10.0, ["nope"]).unwrap();
        assert!(matches!(BiasedModel::build(&model, &unknown), Err(SanError::UnknownId { .. })));

        // Deterministic timing cannot be rate-tilted.
        let mut b = ModelBuilder::new("det");
        let p = b.add_place("p", 1).unwrap();
        b.timed_activity("tick", probdist::Deterministic::new(5.0).unwrap())
            .unwrap()
            .input_arc(p, 1)
            .output_arc(p, 1)
            .build()
            .unwrap();
        let det = b.build().unwrap();
        let bias = FailureBias::new(10.0, ["tick"]).unwrap();
        let err = BiasedModel::build(&det, &bias).unwrap_err();
        assert!(err.to_string().contains("deterministic"), "{err}");

        // Instantaneous activities cannot be tilted either.
        let mut b = ModelBuilder::new("inst");
        let p = b.add_place("p", 1).unwrap();
        let q = b.add_place("q", 0).unwrap();
        b.instant_activity("go").unwrap().input_arc(p, 1).output_arc(q, 1).build().unwrap();
        b.timed_activity("tick", Exponential::new(1.0).unwrap())
            .unwrap()
            .input_arc(q, 1)
            .build()
            .unwrap();
        let inst = b.build().unwrap();
        let bias = FailureBias::new(10.0, ["go"]).unwrap();
        let err = BiasedModel::build(&inst, &bias).unwrap_err();
        assert!(err.to_string().contains("instantaneous"), "{err}");

        // A marking-dependent non-exponential is caught by the probe.
        let mut b = ModelBuilder::new("markdet");
        let p = b.add_place("p", 1).unwrap();
        b.timed_activity_fn("drift", |_m: &Marking| {
            Dist::Deterministic(probdist::Deterministic::new(1.0).unwrap())
        })
        .unwrap()
        .input_arc(p, 1)
        .output_arc(p, 1)
        .build()
        .unwrap();
        let markdet = b.build().unwrap();
        let bias = FailureBias::new(10.0, ["drift"]).unwrap();
        assert!(BiasedModel::build(&markdet, &bias).is_err());
    }

    /// Exactness on a closed-form measure: P(single unit fails within T)
    /// is `1 − e^{−λT}`; the biased estimator must reproduce it within its
    /// own interval, and the mean likelihood-ratio weight must be ~1 (the
    /// unbiasedness identity `E′[W] = 1`).
    #[test]
    fn biased_estimate_matches_closed_form_failure_probability() {
        let (model, down) = single_unit(100_000.0);
        let horizon = 100.0;
        let exact = 1.0 - (-horizon / 100_000.0_f64).exp(); // ≈ 1e-3

        let bias = FailureBias::new(300.0, ["fail"]).unwrap();
        let mut experiment = BiasedExperiment::new(&model, bias, horizon).unwrap();
        experiment
            .add_reward(RewardSpec::instant_of_time("failed", move |m| m.tokens(down) as f64));
        experiment.add_reward(RewardSpec::instant_of_time("one", |_m| 1.0));
        let summary = experiment.run(&fixed(2000), 11).unwrap();

        let estimate = summary.reward("failed").unwrap();
        assert!(
            estimate.interval.contains(exact),
            "interval {} must contain exact {exact}",
            estimate.interval
        );
        assert!(estimate.interval.relative_half_width() < 0.25);
        assert!(estimate.effective_sample_size() > 10.0);

        // E′[W] = 1: the weighted mean of the constant-1 reward is the
        // sample mean of the weights.
        let ones = summary.reward("one").unwrap();
        assert!(
            (ones.stats.mean_product() - 1.0).abs() < 0.2,
            "mean weight {} must be ~1",
            ones.stats.mean_product()
        );
        assert!(summary.reward("missing").is_err());
        assert_eq!(summary.replications, 2000);
        assert!(summary.total_events > 0);
        assert_eq!(summary.rewards().len(), 2);
    }

    /// The acceptance-criterion cross-validation: on the fail-over pair,
    /// the importance-sampled hitting probability agrees with the exact
    /// `sanet::ctmc` transient solution within its reported 95 % interval.
    #[test]
    fn failover_pair_estimate_agrees_with_ctmc_within_its_interval() {
        let (lambda, mu, horizon) = (1e-3, 1.0, 10.0);
        let (model, latched) = pair(lambda, mu);
        let exact = pair_hitting_probability(lambda, mu, horizon);
        assert!(exact > 1e-6 && exact < 1e-4, "rare but resolvable: {exact}");

        let bias = FailureBias::new(60.0, ["fail"]).unwrap();
        let mut experiment = BiasedExperiment::new(&model, bias, horizon).unwrap();
        experiment
            .add_reward(RewardSpec::instant_of_time("hit", move |m| m.tokens(latched) as f64));
        let summary = experiment.run(&fixed(4000), 2024).unwrap();
        let estimate = summary.reward("hit").unwrap();
        assert!(
            estimate.interval.contains(exact),
            "interval {} must contain exact {exact}",
            estimate.interval
        );
        assert!(
            estimate.stats.nonzero_count() > 50,
            "the tilt must actually produce hits, got {}",
            estimate.stats.nonzero_count()
        );
    }

    /// The acceptance-criterion efficiency claim: the adaptive biased run
    /// reaches a 10 % relative half-width with ≥ 100x fewer replications
    /// than naive Monte Carlo would need for the same target.
    #[test]
    fn biased_estimator_beats_naive_by_two_orders_of_magnitude() {
        let (lambda, mu, horizon) = (1e-3, 1.0, 10.0);
        let (model, latched) = pair(lambda, mu);
        let exact = pair_hitting_probability(lambda, mu, horizon);

        let bias = FailureBias::new(60.0, ["fail"]).unwrap();
        let mut experiment = BiasedExperiment::new(&model, bias, horizon).unwrap();
        experiment
            .add_reward(RewardSpec::instant_of_time("hit", move |m| m.tokens(latched) as f64));
        let rule = StoppingRule::new(0.1, 500, 100_000).unwrap();
        let summary = experiment.run(&rule, 9).unwrap();
        let estimate = summary.reward("hit").unwrap();
        assert!(
            estimate.interval.relative_half_width() <= 0.1,
            "target precision must be reached, got {}",
            estimate.interval.relative_half_width()
        );
        assert!(estimate.interval.contains(exact), "{} vs {exact}", estimate.interval);

        let naive = naive_replications_for(exact, 0.1, 0.95).unwrap();
        let factor = naive / summary.replications as f64;
        assert!(
            factor >= 100.0,
            "IS used {} replications, naive needs {naive:.0}: factor {factor:.0} must be ≥ 100",
            summary.replications
        );

        // The probdist-level estimate agrees and reports the same story.
        let rare = weighted_probability(&estimate.stats, 0.95).unwrap();
        assert!((rare.interval.point - estimate.interval.point).abs() < 1e-12);
        assert!(rare.variance_reduction_factor > 100.0);
    }

    /// Adaptive runs are bit-identical to fixed runs of the same length,
    /// and worker counts do not change the statistics.
    #[test]
    fn biased_runs_are_deterministic_and_worker_invariant() {
        let (model, latched) = pair(1e-3, 1.0);
        let bias = FailureBias::new(60.0, ["fail"]).unwrap();
        let mut experiment = BiasedExperiment::new(&model, bias.clone(), 10.0).unwrap();
        experiment
            .add_reward(RewardSpec::instant_of_time("hit", move |m| m.tokens(latched) as f64));
        experiment.set_workers(1);
        let serial = experiment.run(&fixed(256), 5).unwrap();
        experiment.set_workers(4);
        let parallel = experiment.run(&fixed(256), 5).unwrap();
        assert_eq!(
            serial.reward("hit").unwrap().stats,
            parallel.reward("hit").unwrap().stats,
            "weighted statistics must be bit-identical at any worker count"
        );

        let rule = StoppingRule::new(0.5, 64, 256).unwrap().with_min_nonzero(1);
        let adaptive = experiment.run(&rule, 5).unwrap();
        let fixed = experiment.run(&fixed(adaptive.replications), 5).unwrap();
        assert_eq!(
            adaptive.reward("hit").unwrap().stats,
            fixed.reward("hit").unwrap().stats,
            "adaptive ≡ fixed at equal replication counts"
        );
    }

    /// The zero-hit stopping-rule fix end to end: with a tilt too weak to
    /// produce hits, the adaptive run must refuse to stop early on the
    /// vacuous 0 ± 0 interval and run to its cap.
    #[test]
    fn zero_hit_measures_run_to_the_cap() {
        let (model, latched) = pair(1e-9, 1.0);
        let bias = FailureBias::new(1.0 + 1e-9, ["fail"]).unwrap();
        let mut experiment = BiasedExperiment::new(&model, bias, 1.0).unwrap();
        experiment
            .add_reward(RewardSpec::instant_of_time("hit", move |m| m.tokens(latched) as f64));
        let rule = StoppingRule::new(0.1, 8, 64).unwrap();
        let summary = experiment.run(&rule, 3).unwrap();
        assert_eq!(
            summary.replications, 64,
            "an all-zero rare-event measure must exhaust the cap, not stop vacuously"
        );
        assert_eq!(summary.reward("hit").unwrap().interval.point, 0.0);
    }

    /// Importance sampling leaves the weighted estimate invariant across
    /// tilt factors (different factors, same answer — the change of
    /// measure is exact, not an approximation).
    #[test]
    fn different_tilts_estimate_the_same_probability() {
        let (model, down) = single_unit(10_000.0);
        let horizon = 50.0;
        let exact = 1.0 - (-horizon / 10_000.0_f64).exp(); // ≈ 5e-3
        for factor in [20.0, 80.0] {
            let bias = FailureBias::new(factor, ["fail"]).unwrap();
            let mut experiment = BiasedExperiment::new(&model, bias, horizon).unwrap();
            experiment
                .add_reward(RewardSpec::instant_of_time("failed", move |m| m.tokens(down) as f64));
            let summary = experiment.run(&fixed(3000), 17).unwrap();
            let estimate = summary.reward("failed").unwrap();
            assert!(
                estimate.interval.contains(exact),
                "factor {factor}: {} vs {exact}",
                estimate.interval
            );
        }
    }

    /// Both kernels accumulate the same likelihood ratio: the biased model
    /// run through the calendar and reference kernels yields identical LR
    /// rewards (the whole point of routing the LR through the compiled
    /// reward table instead of kernel hooks).
    #[test]
    fn likelihood_ratio_is_kernel_independent() {
        let (model, latched) = pair(0.01, 0.5);
        let bias = FailureBias::new(10.0, ["fail"]).unwrap();
        let biased = BiasedModel::build(&model, &bias).unwrap();
        let mut rewards: Vec<RewardSpec> = biased.likelihood_ratio_rewards().to_vec();
        rewards.push(RewardSpec::instant_of_time("hit", move |m| m.tokens(latched) as f64));
        let sim = crate::Simulator::new(biased.model());
        let calendar = {
            let mut rng = SimRng::seed_from_u64(77);
            sim.run_traced(&rewards, 500.0, 0.0, &mut rng).unwrap().0
        };
        let reference = {
            let mut rng = SimRng::seed_from_u64(77);
            sim.run_reference(&rewards, 500.0, 0.0, &mut rng).unwrap()
        };
        assert_eq!(calendar, reference);
        let lr = biased.log_likelihood_ratio(&calendar).unwrap();
        assert!(lr.is_finite());
        assert_eq!(lr, biased.log_likelihood_ratio(&reference).unwrap());
    }
}
