//! [`RunSpec`]: the validated, named-field description of *how* to run an
//! evaluation — simulation horizon, replication policy (a fixed count or
//! an adaptive [`PrecisionTarget`]), base seed, confidence level, and
//! worker-thread count.
//!
//! `RunSpec` replaces the positional-argument convention
//! (`evaluate_cluster(config, horizon, reps, seed)`) that made call sites
//! easy to get wrong: every knob is set by name, every value is validated
//! in one place, and the same spec drives a single configuration, a
//! [`crate::scenario::Scenario`], or a whole [`crate::study::Study`].

use probdist::stats::StoppingRule;
use probdist::telemetry::TelemetryConfig;
use serde::{Deserialize, Serialize};

use crate::CfsError;

/// Hard cap on the fixed replication count ([`RunSpec::with_replications`]):
/// beyond this a run is almost certainly a mis-typed argument (a swapped
/// replication count and seed, which a numeric environment knob such as
/// `CFS_BENCH_REPLICATIONS` still makes easy). Precision targets and
/// splitting efforts are not capped, so an adaptive study can spend as
/// many replications as its target needs.
pub(crate) const MAX_REPLICATIONS: usize = 100_000;

/// Hard cap on the worker count ([`RunSpec::with_workers`]): the study's
/// pool spawns one OS thread per worker beyond the first and cannot run
/// on when a spawn fails, so a count beyond this is almost certainly a
/// mis-typed argument (a swapped worker count and seed, which a numeric
/// environment knob such as `CFS_BENCH_WORKERS` still makes easy).
pub(crate) const MAX_WORKERS: usize = 1024;

/// Execution parameters shared by every scenario of a study.
///
/// Build one with the fluent constructors and pass it by reference;
/// validation happens once in [`RunSpec::validate`] (called by every
/// consumer) rather than ad hoc at each driver.
///
/// # Example
///
/// ```
/// use cfs_model::RunSpec;
///
/// let spec = RunSpec::new()
///     .with_horizon_hours(8760.0)
///     .with_replications(32)
///     .with_base_seed(42)
///     .with_confidence_level(0.95)
///     .with_workers(4);
/// assert!(spec.validate().is_ok());
/// assert_eq!(spec.replications(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    horizon_hours: f64,
    replications: usize,
    base_seed: u64,
    confidence_level: f64,
    workers: usize,
    precision: Option<PrecisionTarget>,
    rare_event: Option<RareEventPolicy>,
    failure_policy: FailurePolicy,
    checkpoint: Option<CheckpointPolicy>,
    deadline_seconds: Option<f64>,
    telemetry: Option<TelemetryConfig>,
}

/// What a [`crate::study::Study`] does when one of its scenarios fails —
/// panics during evaluation or returns an error.
///
/// Either way the failure is contained at the scenario boundary: the worker
/// pool survives, sibling scenarios already running are unaffected, and the
/// panic payload is captured as text rather than unwinding the process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailurePolicy {
    /// Stop scheduling further scenarios and return the first failure as a
    /// [`CfsError`]. In-flight scenarios finish but their outputs are
    /// discarded. This is the default: a study is usually a paper artefact
    /// where a missing scenario invalidates the comparison.
    #[default]
    Abort,
    /// Keep evaluating the remaining scenarios and record every failure as
    /// a [`crate::report::ScenarioFailure`] in the report, alongside the
    /// outputs of the scenarios that succeeded.
    ContinueAndReport,
}

/// Where and how often an evaluation persists completed replications so an
/// interrupted study can resume without redoing them.
///
/// Set with [`RunSpec::with_checkpoint`]. The file is versioned and
/// checksummed (see [`crate::checkpoint`]); because replication `i` always
/// draws from the stream derived from `(base seed, i)`, a resumed run is
/// bit-identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Path of the checkpoint file (shared by every scenario of a study;
    /// entries are keyed by scenario name and base seed).
    pub path: String,
    /// Persist after every `every_n` completed replications (≥ 1).
    pub every_n: usize,
}

/// A rare-event estimation policy: how scenarios whose headline measure is
/// a tail probability (data loss, total unavailability) should reach the
/// 10⁻⁶..10⁻¹⁰ regime that plain replication cannot resolve.
///
/// Set with [`RunSpec::with_rare_event`]; honoured by rare-event-aware
/// scenarios such as [`crate::workloads::UltraReliableSweep`] (scenarios
/// whose measures are not rare ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RareEventPolicy {
    /// Fixed-effort multilevel splitting over exposure depth (see
    /// `raidsim::splitting`): restart trials from the states that reached
    /// each intermediate exposure level.
    MultilevelSplitting {
        /// Trials per exposure level (per adaptive round, when the spec
        /// also carries a precision target); at least 2.
        trials_per_level: usize,
    },
}

/// An adaptive replication policy: instead of a fixed replication count,
/// run batches until every Monte-Carlo measure's confidence interval is
/// narrower than `relative_half_width` (relative to its point estimate),
/// bounded by `[min_replications, max_replications]`.
///
/// Built by [`RunSpec::with_precision_target`]; converted to a validated
/// [`probdist::stats::StoppingRule`] when a scenario runs. The cap is not
/// bounded by the fixed-count cap of 100 000 replications.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionTarget {
    /// Target relative CI half-width (e.g. `0.01` for ±1 %).
    pub relative_half_width: f64,
    /// Replications to run before the first precision check.
    pub min_replications: usize,
    /// Hard cap on the number of replications.
    pub max_replications: usize,
}

impl Default for RunSpec {
    /// One simulated year, 16 replications, seed 42, 95 % confidence,
    /// auto-sized worker pool, fixed (non-adaptive) replication count.
    fn default() -> Self {
        RunSpec {
            horizon_hours: 8760.0,
            replications: 16,
            base_seed: 42,
            confidence_level: 0.95,
            workers: 0,
            precision: None,
            rare_event: None,
            failure_policy: FailurePolicy::Abort,
            checkpoint: None,
            deadline_seconds: None,
            telemetry: None,
        }
    }
}

impl RunSpec {
    /// Creates a spec with the default parameters (see [`RunSpec::default`]).
    pub fn new() -> Self {
        RunSpec::default()
    }

    /// Sets the simulation horizon per replication, in hours.
    pub fn with_horizon_hours(mut self, hours: f64) -> Self {
        self.horizon_hours = hours;
        self
    }

    /// Sets the number of independent replications.
    pub fn with_replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// Sets the base seed. Replication `i` of any evaluation draws from the
    /// RNG stream derived from this seed and `i`, so results are
    /// reproducible and independent of execution order or parallelism.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Sets the confidence level for reported intervals (e.g. `0.95`).
    pub fn with_confidence_level(mut self, level: f64) -> Self {
        self.confidence_level = level;
        self
    }

    /// Sets the number of worker threads the study's global work-stealing
    /// pool schedules scenario×replication work units across. `0` (the
    /// default) uses the machine's available parallelism; `1` forces
    /// serial execution. Any value yields bit-identical statistics.
    /// [`RunSpec::validate`] rejects more than `MAX_WORKERS` (1024).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Switches the spec to adaptive, precision-targeted replication: every
    /// Monte-Carlo evaluation runs batches until each of its measures has a
    /// relative CI half-width of at most `relative_half_width`, running at
    /// least `min_replications` and at most `max_replications`. The
    /// replication count actually used is recorded per scenario in the
    /// [`crate::report::Report`].
    ///
    /// An adaptive run that stops after `n` replications is bit-identical
    /// to a fixed run with `n` replications and the same base seed —
    /// replication `i` always draws from the stream derived from
    /// `(base seed, i)`.
    pub fn with_precision_target(
        mut self,
        relative_half_width: f64,
        min_replications: usize,
        max_replications: usize,
    ) -> Self {
        self.precision =
            Some(PrecisionTarget { relative_half_width, min_replications, max_replications });
        self
    }

    /// Sets the rare-event estimation policy rare-event-aware scenarios
    /// honour (multilevel splitting). Composes with
    /// [`RunSpec::with_precision_target`]: an adaptive spec drives the
    /// splitting estimator's own stopping loop (relative half-width on the
    /// splitting estimate, with the minimum non-zero support the stopping
    /// rule demands).
    pub fn with_rare_event(mut self, policy: RareEventPolicy) -> Self {
        self.rare_event = Some(policy);
        self
    }

    /// Sets what a study does when a scenario fails (panics or errors):
    /// abort with the first failure (the default) or keep going and record
    /// every failure in the report. See [`FailurePolicy`].
    pub fn with_failure_policy(mut self, policy: FailurePolicy) -> Self {
        self.failure_policy = policy;
        self
    }

    /// Persists completed replications to the checkpoint file at `path`
    /// after every `every_n` replications, so an interrupted run can resume
    /// from the last persisted prefix instead of starting over. A resumed
    /// run is bit-identical to an uninterrupted one (replication `i` always
    /// draws from the stream derived from the base seed and `i`).
    pub fn with_checkpoint(mut self, path: impl Into<String>, every_n: usize) -> Self {
        self.checkpoint = Some(CheckpointPolicy { path: path.into(), every_n });
        self
    }

    /// Clears the checkpoint policy.
    pub fn without_checkpoint(mut self) -> Self {
        self.checkpoint = None;
        self
    }

    /// Sets a soft wall-clock deadline for the whole run. Only cluster-model
    /// evaluations ([`crate::analysis::evaluate`]) observe it: when it
    /// expires, their in-flight replications finish, no new ones start, and
    /// each returns valid statistics over the contiguous prefix of
    /// replications that completed — reports flag the affected scenarios as
    /// truncated and record the replication count actually used. A cluster
    /// evaluation that completes fewer than two replications fails with
    /// [`CfsError::DeadlineExpired`] instead (recorded as a failure, never
    /// aborting the study). Storage Monte-Carlo runs, multilevel splitting
    /// and the Beowulf sweep are handed no token and always run to
    /// completion.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline_seconds = Some(deadline.as_secs_f64());
        self
    }

    /// Opts the run into telemetry: metric recording is enabled for the
    /// duration of [`crate::study::Study::run`] and a
    /// [`probdist::telemetry::TelemetrySnapshot`] covering exactly this
    /// run's work is attached to the [`crate::report::Report`] (rendered
    /// by all three sinks). The config's options add a live stderr
    /// progress line and a Prometheus-style exposition file. Telemetry
    /// never touches an RNG stream or the merge order: statistics are
    /// bit-identical with telemetry on or off, at any worker count.
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// Clears the telemetry config.
    pub fn without_telemetry(mut self) -> Self {
        self.telemetry = None;
        self
    }

    /// The simulation horizon per replication, hours.
    pub fn horizon_hours(&self) -> f64 {
        self.horizon_hours
    }

    /// The number of replications.
    pub fn replications(&self) -> usize {
        self.replications
    }

    /// The base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The confidence level for reported intervals.
    pub fn confidence_level(&self) -> f64 {
        self.confidence_level
    }

    /// The worker-thread count (`0` = auto).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The adaptive precision target, if one is set.
    pub(crate) fn precision_target(&self) -> Option<&PrecisionTarget> {
        self.precision.as_ref()
    }

    /// The rare-event estimation policy, if one is set.
    pub(crate) fn rare_event(&self) -> Option<&RareEventPolicy> {
        self.rare_event.as_ref()
    }

    /// The failure policy ([`FailurePolicy::Abort`] by default).
    pub(crate) fn failure_policy(&self) -> FailurePolicy {
        self.failure_policy
    }

    /// The checkpoint policy, if one is set.
    pub fn checkpoint(&self) -> Option<&CheckpointPolicy> {
        self.checkpoint.as_ref()
    }

    /// The telemetry config, if one is set.
    pub fn telemetry(&self) -> Option<&TelemetryConfig> {
        self.telemetry.as_ref()
    }

    /// The wall-clock deadline, if one is set. A malformed (non-positive or
    /// non-finite) deadline yields `None` here; [`RunSpec::validate`]
    /// reports it as an error.
    pub fn deadline(&self) -> Option<std::time::Duration> {
        self.deadline_seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .map(std::time::Duration::from_secs_f64)
    }

    /// The validated stopping rule of the spec's replication policy: the
    /// precision target's adaptive rule when one is set, otherwise a
    /// [`StoppingRule::fixed`] rule of [`RunSpec::replications`]. Every
    /// Monte-Carlo evaluation runs under this rule.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] naming the offending parameter
    /// when the precision target is malformed (non-positive or non-finite
    /// half-width, `min < 2`, `min > max`), and
    /// [`CfsError::Distribution`] for a fixed count below two.
    pub(crate) fn stopping_rule(&self) -> Result<StoppingRule, CfsError> {
        match self.precision {
            Some(p) => {
                StoppingRule::new(p.relative_half_width, p.min_replications, p.max_replications)
                    .map_err(|e| CfsError::InvalidConfig {
                        reason: format!("run spec: invalid precision target: {e}"),
                    })
            }
            None => Ok(StoppingRule::fixed(self.replications)?),
        }
    }

    /// A copy of this spec with the base seed offset by `offset` — used by
    /// sweep scenarios so every sweep point gets a well-separated seed while
    /// remaining a pure function of the study's base seed.
    pub(crate) fn offset_seed(&self, offset: u64) -> Self {
        let mut spec = self.clone();
        spec.base_seed = self.base_seed.wrapping_add(offset);
        spec
    }

    /// Checks every parameter, returning a [`CfsError::InvalidConfig`] that
    /// names the offending field.
    ///
    /// # Errors
    ///
    /// Rejects a non-finite or non-positive horizon, a fixed count of fewer
    /// than 2 or more than `MAX_REPLICATIONS` (100 000) replications, more
    /// than `MAX_WORKERS` (1024) workers, a malformed precision target, and
    /// a confidence level outside the open interval (0, 1).
    pub fn validate(&self) -> Result<(), CfsError> {
        if !(self.horizon_hours.is_finite() && self.horizon_hours > 0.0) {
            return Err(CfsError::InvalidConfig {
                reason: format!(
                    "run spec: horizon must be positive and finite, got {}",
                    self.horizon_hours
                ),
            });
        }
        if self.replications < 2 {
            return Err(CfsError::InvalidConfig {
                reason: format!(
                    "run spec: at least two replications are required for a confidence interval, got {}",
                    self.replications
                ),
            });
        }
        if self.replications > MAX_REPLICATIONS {
            return Err(CfsError::InvalidConfig {
                reason: format!(
                    "run spec: {} replications exceeds the {} cap — this is usually a swapped \
                     replications/seed argument",
                    self.replications, MAX_REPLICATIONS
                ),
            });
        }
        if self.workers > MAX_WORKERS {
            return Err(CfsError::InvalidConfig {
                reason: format!(
                    "run spec: {} workers exceeds the {} cap — this is usually a swapped \
                     workers/seed argument",
                    self.workers, MAX_WORKERS
                ),
            });
        }
        if !(self.confidence_level > 0.0 && self.confidence_level < 1.0) {
            return Err(CfsError::InvalidConfig {
                reason: format!(
                    "run spec: confidence level must be in (0, 1), got {}",
                    self.confidence_level
                ),
            });
        }
        if self.precision.is_some() {
            self.stopping_rule()?;
        }
        if let Some(policy) = &self.checkpoint {
            if policy.path.is_empty() {
                return Err(CfsError::InvalidConfig {
                    reason: "run spec: checkpoint path must not be empty".into(),
                });
            }
            if policy.every_n == 0 {
                return Err(CfsError::InvalidConfig {
                    reason: "run spec: checkpoint interval must be at least one replication, got 0"
                        .into(),
                });
            }
        }
        if let Some(seconds) = self.deadline_seconds {
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err(CfsError::InvalidConfig {
                    reason: format!(
                        "run spec: deadline must be positive and finite, got {seconds} seconds"
                    ),
                });
            }
        }
        if let Some(telemetry) = &self.telemetry {
            telemetry.validate().map_err(|reason| CfsError::InvalidConfig {
                reason: format!("run spec: {reason}"),
            })?;
        }
        match self.rare_event {
            Some(RareEventPolicy::MultilevelSplitting { trials_per_level })
                if trials_per_level < 2 =>
            {
                Err(CfsError::InvalidConfig {
                    reason: format!(
                        "run spec: splitting needs at least 2 trials per level, got \
                         {trials_per_level}"
                    ),
                })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        assert!(RunSpec::default().validate().is_ok());
        assert_eq!(RunSpec::new(), RunSpec::default());
    }

    #[test]
    fn builder_sets_every_field() {
        let spec = RunSpec::new()
            .with_horizon_hours(100.0)
            .with_replications(8)
            .with_base_seed(7)
            .with_confidence_level(0.9)
            .with_workers(3);
        assert_eq!(spec.horizon_hours(), 100.0);
        assert_eq!(spec.replications(), 8);
        assert_eq!(spec.base_seed(), 7);
        assert_eq!(spec.confidence_level(), 0.9);
        assert_eq!(spec.workers(), 3);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(RunSpec::new().with_horizon_hours(0.0).validate().is_err());
        assert!(RunSpec::new().with_horizon_hours(f64::NAN).validate().is_err());
        assert!(RunSpec::new().with_horizon_hours(f64::INFINITY).validate().is_err());
        assert!(RunSpec::new().with_replications(1).validate().is_err());
        assert!(RunSpec::new().with_replications(MAX_REPLICATIONS + 1).validate().is_err());
        assert!(RunSpec::new().with_confidence_level(0.0).validate().is_err());
        assert!(RunSpec::new().with_confidence_level(1.0).validate().is_err());
        assert!(RunSpec::new().with_replications(MAX_REPLICATIONS).validate().is_ok());
    }

    #[test]
    fn replication_cap_error_mentions_the_footgun() {
        let err = RunSpec::new().with_replications(20_080_625).validate().unwrap_err();
        assert!(err.to_string().contains("swapped"), "{err}");
    }

    /// The cap is checked before any pool exists: these specs are only
    /// validated, never run.
    #[test]
    fn worker_cap_names_the_field_and_the_footgun() {
        assert!(RunSpec::new().with_workers(MAX_WORKERS).validate().is_ok());
        for workers in [MAX_WORKERS + 1, 20_080_625] {
            let err = RunSpec::new().with_workers(workers).validate().unwrap_err();
            assert!(matches!(err, CfsError::InvalidConfig { .. }), "{err}");
            let text = err.to_string();
            assert!(text.contains("workers") && text.contains("swapped"), "{text}");
        }
    }

    #[test]
    fn precision_target_round_trips_and_validates() {
        let spec = RunSpec::new().with_precision_target(0.02, 8, 128);
        assert!(spec.validate().is_ok());
        let target = spec.precision_target().unwrap();
        assert_eq!(target.relative_half_width, 0.02);
        assert_eq!(target.min_replications, 8);
        assert_eq!(target.max_replications, 128);
        let rule = spec.stopping_rule().unwrap();
        assert_eq!(rule.min_replications(), 8);
        assert_eq!(rule.max_replications(), 128);

        // Fixed specs carry a fixed rule of their replication count.
        let fixed = RunSpec::new().with_replications(24).stopping_rule().unwrap();
        assert_eq!((fixed.min_replications(), fixed.max_replications()), (24, 24));
        assert!(RunSpec::new().precision_target().is_none());
    }

    #[test]
    fn malformed_precision_targets_are_rejected() {
        assert!(RunSpec::new().with_precision_target(0.0, 8, 128).validate().is_err());
        assert!(RunSpec::new().with_precision_target(-0.1, 8, 128).validate().is_err());
        assert!(RunSpec::new().with_precision_target(f64::NAN, 8, 128).validate().is_err());
        assert!(RunSpec::new().with_precision_target(0.01, 1, 128).validate().is_err());
        assert!(RunSpec::new().with_precision_target(0.01, 64, 8).validate().is_err());
        // The fixed-count cap does not bound an adaptive target's cap.
        assert!(RunSpec::new()
            .with_precision_target(0.01, 8, MAX_REPLICATIONS + 1)
            .validate()
            .is_ok());
        let err = RunSpec::new().with_precision_target(0.01, 64, 8).validate().unwrap_err();
        assert!(err.to_string().contains("precision target"), "{err}");
    }

    #[test]
    fn rare_event_policy_round_trips_and_validates() {
        let splitting = RunSpec::new()
            .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 256 });
        assert!(splitting.validate().is_ok());
        assert_eq!(
            splitting.rare_event(),
            Some(&RareEventPolicy::MultilevelSplitting { trials_per_level: 256 })
        );
        assert!(RunSpec::new().rare_event().is_none());

        // Invalid policies are named in the error.
        let large = RareEventPolicy::MultilevelSplitting { trials_per_level: MAX_REPLICATIONS + 1 };
        assert!(RunSpec::new().with_rare_event(large).validate().is_ok());
        for bad in [0, 1] {
            let err = RunSpec::new()
                .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: bad })
                .validate()
                .unwrap_err();
            assert!(err.to_string().contains("trials"), "{err}");
        }
    }

    #[test]
    fn failure_policy_defaults_to_abort_and_round_trips() {
        assert_eq!(RunSpec::new().failure_policy(), FailurePolicy::Abort);
        let spec = RunSpec::new().with_failure_policy(FailurePolicy::ContinueAndReport);
        assert_eq!(spec.failure_policy(), FailurePolicy::ContinueAndReport);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn checkpoint_policy_round_trips_and_validates() {
        assert!(RunSpec::new().checkpoint().is_none());
        let spec = RunSpec::new().with_checkpoint("study.ckpt", 4);
        let policy = spec.checkpoint().unwrap();
        assert_eq!(policy.path, "study.ckpt");
        assert_eq!(policy.every_n, 4);
        assert!(spec.validate().is_ok());
        assert!(spec.clone().without_checkpoint().checkpoint().is_none());

        let err = RunSpec::new().with_checkpoint("", 4).validate().unwrap_err();
        assert!(err.to_string().contains("checkpoint path"), "{err}");
        let err = RunSpec::new().with_checkpoint("study.ckpt", 0).validate().unwrap_err();
        assert!(err.to_string().contains("checkpoint interval"), "{err}");
    }

    #[test]
    fn deadline_round_trips_and_validates() {
        use std::time::Duration;
        assert!(RunSpec::new().deadline().is_none());
        let spec = RunSpec::new().with_deadline(Duration::from_millis(1500));
        assert_eq!(spec.deadline(), Some(Duration::from_millis(1500)));
        assert!(spec.validate().is_ok());

        let err = RunSpec::new().with_deadline(Duration::from_secs(0)).validate().unwrap_err();
        assert!(err.to_string().contains("deadline"), "{err}");
    }

    #[test]
    fn telemetry_config_round_trips_and_validates() {
        assert!(RunSpec::new().telemetry().is_none());
        let spec = RunSpec::new().with_telemetry(TelemetryConfig::new().with_progress());
        assert!(spec.telemetry().unwrap().progress);
        assert!(spec.validate().is_ok());
        assert!(spec.clone().without_telemetry().telemetry().is_none());

        let err = RunSpec::new()
            .with_telemetry(TelemetryConfig::new().with_progress_interval_ms(0))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("progress_interval_ms"), "{err}");
    }

    #[test]
    fn offset_seed_only_changes_the_seed() {
        let spec = RunSpec::new().with_base_seed(10).with_replications(4);
        let shifted = spec.offset_seed(5);
        assert_eq!(shifted.base_seed(), 15);
        assert_eq!(shifted.replications(), 4);
        assert_eq!(shifted.horizon_hours(), spec.horizon_hours());
    }
}
