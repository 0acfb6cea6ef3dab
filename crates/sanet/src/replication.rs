//! Replicated simulation experiments: a thin adapter that binds the SAN
//! engine's per-replication runs to the crate-neutral execution machinery
//! in [`probdist`] — the work-stealing fan-out of
//! [`probdist::parallel::replicate_with`] and the stopping of
//! [`probdist::stats::StoppingRule`] / [`run_to_precision`]. All
//! scheduling and stopping policy lives there; this module only knows how
//! to run one SAN replication and how to summarise reward estimates.
//!
//! An [`Experiment`] has two entry points: [`Experiment::run`] runs under a
//! stopping rule (a fixed count is [`StoppingRule::fixed`]) and summarises
//! every reward, and [`Experiment::run_raw`] runs one batch of replication
//! indices and returns the raw per-replication results, for callers that
//! combine rewards per replication or drive their own stopping loop.

use std::ops::Range;

use probdist::parallel::CancelToken;
use probdist::stats::{confidence_interval, run_to_precision, ConfidenceInterval, RunningStats};
use probdist::SimRng;

use crate::reward::RewardSpec;
use crate::{Model, SanError, Simulator};

pub use probdist::stats::StoppingRule;

/// Point estimate and confidence interval for one reward across
/// replications.
#[derive(Debug, Clone, PartialEq)]
pub struct RewardEstimate {
    /// The reward's name.
    pub name: String,
    /// Student-t confidence interval over the replication estimates.
    pub interval: ConfidenceInterval,
    /// The raw accumulator (count, mean, variance, min, max) across
    /// replications.
    pub stats: RunningStats,
}

/// Results of a replicated simulation experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    estimates: Vec<RewardEstimate>,
    /// Number of replications actually executed (for an adaptive run, the
    /// count at which the stopping rule was satisfied or capped).
    pub replications: usize,
    /// Simulation horizon of each replication (hours).
    pub horizon: f64,
    /// Total number of activity completions across all replications.
    pub total_events: u64,
}

impl RunSummary {
    /// The estimate for the named reward.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownReward`] if no reward with that name was
    /// registered.
    pub fn reward(&self, name: &str) -> Result<&RewardEstimate, SanError> {
        self.estimates
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| SanError::UnknownReward { name: name.to_string() })
    }

    /// All reward estimates, in registration order.
    pub fn rewards(&self) -> &[RewardEstimate] {
        &self.estimates
    }
}

/// A replicated simulation experiment: a model, a horizon, a set of reward
/// variables, and a replication policy.
///
/// The paper's Möbius experiments are exactly this shape: simulate the
/// composed CFS model for a long horizon, repeat with independent streams,
/// and report each reward at the 95 % confidence level.
///
/// Replications run on the kernel [`Simulator::run`] would pick, behind
/// the same debug-build lint gate.
pub struct Experiment {
    model: Model,
    horizon: f64,
    rewards: Vec<RewardSpec>,
    confidence_level: f64,
    workers: usize,
}

impl std::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiment")
            .field("model", &self.model.name())
            .field("horizon", &self.horizon)
            .field("rewards", &self.rewards.len())
            .field("confidence_level", &self.confidence_level)
            .field("workers", &self.workers)
            .finish()
    }
}

impl Experiment {
    /// Creates an experiment on `model` with the given simulation horizon in
    /// hours. Replications run on an auto-sized worker pool by default.
    pub fn new(model: Model, horizon: f64) -> Self {
        Experiment { model, horizon, rewards: Vec::new(), confidence_level: 0.95, workers: 0 }
    }

    /// Sets the confidence level used for reported intervals (default 0.95).
    pub fn set_confidence_level(&mut self, level: f64) -> &mut Self {
        self.confidence_level = level;
        self
    }

    /// Sets the number of worker threads replications are fanned out across.
    /// `0` (the default) uses the machine's available parallelism; `1` forces
    /// serial execution. When an ambient [`probdist::parallel::Pool`] is
    /// installed (the experiment runs inside a `Study`), replications draw
    /// from that shared worker budget instead. Because every replication
    /// draws from its own index-derived RNG stream and results are collected
    /// in index order, the statistics are bit-identical for any worker count.
    pub fn set_workers(&mut self, workers: usize) -> &mut Self {
        self.workers = workers;
        self
    }

    /// Registers a reward variable to estimate.
    pub fn add_reward(&mut self, reward: RewardSpec) -> &mut Self {
        self.rewards.push(reward);
        self
    }

    /// The model under experiment.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Runs replication batches under `rule` and summarises every reward:
    /// exactly `n` replications for [`StoppingRule::fixed`], otherwise
    /// batches until every registered reward's interval meets the rule's
    /// relative target, or its cap is reached.
    ///
    /// Replication `i` uses the RNG stream derived from `seed` and `i`, so
    /// results are reproducible and independent of execution order or
    /// parallelism, and an adaptive run that stops after `n` replications
    /// is bit-identical to a fixed run of `n`. The summary's `replications`
    /// field records the count actually used.
    ///
    /// # Errors
    ///
    /// Propagates any simulation or statistics error.
    pub fn run(&self, rule: &StoppingRule, seed: u64) -> Result<RunSummary, SanError> {
        let results = run_to_precision(
            rule,
            |range| self.run_raw(range, seed, None),
            |results: &[crate::RunResult]| {
                for spec in &self.rewards {
                    let stats: RunningStats =
                        results.iter().map(|r| r.reward(spec.name()).unwrap_or(0.0)).collect();
                    let interval = confidence_interval(&stats, self.confidence_level)?;
                    if !rule.met_by(&interval) {
                        return Ok(false);
                    }
                }
                Ok(true)
            },
        )?;
        self.summarise(results)
    }

    /// Runs the replications of `range` (by stream index) and returns their
    /// raw results — the batch primitive [`Experiment::run`] drives, and
    /// the one callers use when rewards must be combined per replication
    /// (e.g. a derived measure such as cluster utility) before confidence
    /// intervals are computed. Replication `i` always draws from the stream
    /// derived from `(seed, i)`, so consecutive ranges extend one
    /// deterministic sequence, bit-identical for any worker count.
    ///
    /// With a `cancel` token, claiming stops once it fires (manually or by
    /// its deadline), in-flight replications finish, and the call returns
    /// the **contiguous prefix** of the range that completed — shorter
    /// than `range` exactly when the run was truncated, and bit-identical
    /// to the first replications of an uninterrupted run.
    ///
    /// In debug builds the model passes the same pre-simulation lint as
    /// [`Simulator::run`] before the first replication; the verdict is
    /// memoised per model, so later batches pay nothing, and release
    /// builds skip it.
    ///
    /// # Errors
    ///
    /// Propagates any simulation error, and (debug builds only)
    /// [`SanError::LintRejected`] if the pre-simulation lint fails.
    pub fn run_raw(
        &self,
        range: Range<usize>,
        seed: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<crate::RunResult>, SanError> {
        self.model.debug_lint()?;
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanReplicate);
        let root = SimRng::seed_from_u64(seed);
        let sim = Simulator::new(&self.model);
        // Compile the reward set once per batch: every replication then
        // shares the interned name table (one `Arc` clone per result) and
        // the partitioned accumulator layout instead of re-deriving them.
        let table = crate::reward::RewardTable::compile(&self.model, &self.rewards)?;
        // Each worker owns one `RunScratch`, so the kernel's working buffers
        // are allocated once per worker rather than once per replication.
        probdist::parallel::replicate_with(
            range,
            &root,
            self.workers,
            cancel,
            crate::engine::RunScratch::new,
            |index, rng, scratch| {
                sim.run_with_table_scratch(&table, self.horizon, rng, scratch)
                    .map(|result| apply_chaos(index, result))
            },
        )
        .into_iter()
        .collect()
    }

    fn summarise(&self, results: Vec<crate::RunResult>) -> Result<RunSummary, SanError> {
        let replications = results.len();
        let total_events = results.iter().map(|r| r.events).sum();
        let mut estimates = Vec::with_capacity(self.rewards.len());
        for spec in &self.rewards {
            let mut stats = RunningStats::new();
            for r in &results {
                stats.push(r.reward(spec.name())?);
            }
            let interval = confidence_interval(&stats, self.confidence_level)?;
            estimates.push(RewardEstimate { name: spec.name().to_string(), interval, stats });
        }
        Ok(RunSummary { estimates, replications, horizon: self.horizon, total_events })
    }
}

/// Routes one replication's reward values through the chaos fault registry:
/// with the `chaos` feature enabled and a scope active, each value may be
/// corrupted to NaN at the scope's configured probability (a deterministic
/// function of the chaos seed, the replication index, and the reward slot).
/// With the feature off this is an identity the compiler erases.
#[cfg(feature = "chaos")]
fn apply_chaos(index: usize, mut result: crate::RunResult) -> crate::RunResult {
    if probdist::chaos::is_active() {
        for (slot, value) in result.values.iter_mut().enumerate() {
            *value = probdist::chaos::corrupt_reward(index as u64, slot, *value);
        }
    }
    result
}

#[cfg(not(feature = "chaos"))]
#[inline(always)]
fn apply_chaos(_index: usize, result: crate::RunResult) -> crate::RunResult {
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardSpec;
    use crate::ModelBuilder;
    use probdist::Exponential;

    fn fixed(replications: usize) -> StoppingRule {
        StoppingRule::fixed(replications).unwrap()
    }

    fn repairable_unit(mean_fail: f64, mean_repair: f64) -> (Model, crate::PlaceId) {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", Exponential::from_mean(mean_fail).unwrap())
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", Exponential::from_mean(mean_repair).unwrap())
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        (b.build().unwrap(), up)
    }

    fn availability_reward(up: crate::PlaceId) -> RewardSpec {
        RewardSpec::time_averaged_rate("avail", move |m| if m.tokens(up) > 0 { 1.0 } else { 0.0 })
    }

    #[test]
    fn replications_estimate_analytic_availability() {
        let (model, up) = repairable_unit(1000.0, 10.0);
        let mut exp = Experiment::new(model, 100_000.0);
        exp.add_reward(availability_reward(up));
        let summary = exp.run(&fixed(32), 7).unwrap();
        let est = summary.reward("avail").unwrap();
        let expected = 1000.0 / 1010.0;
        assert!(
            est.interval.contains(expected) || (est.interval.point - expected).abs() < 0.005,
            "interval {} vs expected {expected}",
            est.interval
        );
        assert_eq!(summary.replications, 32);
        assert!(summary.total_events > 0);
        assert!(summary.reward("nope").is_err());
        assert_eq!(summary.rewards().len(), 1);
    }

    /// The debug-build lint gate guards the replication path too: a
    /// 5-activity model, large enough for the calendar kernel, whose
    /// `fail` gate reads `blocker` but declares only `down` (`SAN001`,
    /// Error) is rejected by `Experiment::run` before any replication.
    #[cfg(debug_assertions)]
    #[test]
    fn replications_run_behind_the_debug_lint() {
        let delay = |mean| Exponential::from_mean(mean).unwrap();
        let mut b = ModelBuilder::new("undeclared-gate");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        let blocker = b.add_place("blocker", 0).unwrap();
        let spare_up = b.add_place("spare_up", 1).unwrap();
        let spare_down = b.add_place("spare_down", 0).unwrap();
        b.timed_activity("fail", delay(100.0))
            .unwrap()
            .input_arc(up, 1)
            .enabling_predicate(move |m| m.tokens(blocker) == 0)
            .enabling_reads(&[down])
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", delay(10.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .output_arc(blocker, 1)
            .build()
            .unwrap();
        b.timed_activity("clear", delay(5.0)).unwrap().input_arc(blocker, 1).build().unwrap();
        for (name, from, to) in
            [("spare_fail", spare_up, spare_down), ("spare_repair", spare_down, spare_up)]
        {
            b.timed_activity(name, delay(50.0))
                .unwrap()
                .input_arc(from, 1)
                .output_arc(to, 1)
                .build()
                .unwrap();
        }
        let model = b.build().unwrap();
        assert!(model.num_activities() >= crate::engine::NAIVE_KERNEL_MAX_ACTIVITIES);
        let mut exp = Experiment::new(model, 1_000.0);
        exp.add_reward(availability_reward(up));
        match exp.run(&fixed(4), 1) {
            Err(SanError::LintRejected { details, .. }) => {
                assert!(details.contains("SAN001"), "expected SAN001 in: {details}");
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
    }

    #[test]
    fn serial_and_parallel_runs_agree_exactly() {
        let (model, up) = repairable_unit(200.0, 4.0);
        let mut exp = Experiment::new(model, 20_000.0);
        exp.add_reward(availability_reward(up));
        exp.set_workers(1);
        let serial = exp.run(&fixed(16), 11).unwrap();
        exp.set_workers(0);
        let parallel = exp.run(&fixed(16), 11).unwrap();
        assert_eq!(
            serial.reward("avail").unwrap().interval.point,
            parallel.reward("avail").unwrap().interval.point
        );
        assert_eq!(serial.total_events, parallel.total_events);
    }

    #[test]
    fn run_requires_at_least_two_replications() {
        // A fixed count below two cannot even be expressed as a rule.
        assert!(StoppingRule::fixed(1).is_err());
        assert!(StoppingRule::fixed(0).is_err());
    }

    #[test]
    fn run_until_stops_when_precise() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 50_000.0);
        exp.add_reward(availability_reward(up));
        let rule = StoppingRule::new(0.01, 8, 64).unwrap();
        let summary = exp.run(&rule, 3).unwrap();
        assert!(summary.replications >= 8 && summary.replications <= 64);
        let ci = &summary.reward("avail").unwrap().interval;
        // Either precision was reached or we hit the cap.
        assert!(ci.relative_half_width() <= 0.01 || summary.replications == 64);
    }

    #[test]
    fn adaptive_run_matches_fixed_run_of_the_same_count() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 50_000.0);
        exp.add_reward(availability_reward(up));
        let rule = StoppingRule::new(0.05, 8, 32).unwrap();
        let adaptive = exp.run(&rule, 5).unwrap();
        let fixed = exp.run(&fixed(adaptive.replications), 5).unwrap();
        assert_eq!(
            adaptive.reward("avail").unwrap().interval.point,
            fixed.reward("avail").unwrap().interval.point,
            "adaptive and fixed runs of the same length must be bit-identical"
        );
        assert_eq!(adaptive.total_events, fixed.total_events);
    }

    #[test]
    fn stopping_rule_is_validated_at_construction() {
        assert!(StoppingRule::new(0.1, 1, 10).is_err());
        assert!(StoppingRule::new(0.1, 10, 5).is_err());
        assert!(StoppingRule::new(0.0, 2, 10).is_err());
        assert!(StoppingRule::new(0.1, 2, 10).is_ok());
    }

    #[test]
    fn run_raw_returns_per_replication_results() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 5_000.0);
        exp.add_reward(availability_reward(up));
        assert!(exp.run_raw(0..0, 1, None).unwrap().is_empty());
        let raw = exp.run_raw(0..8, 21, None).unwrap();
        assert_eq!(raw.len(), 8);
        // Every replication reports the registered reward, and the mean of
        // the raw values matches the summarising run with the same seed.
        let mean: f64 = raw.iter().map(|r| r.reward("avail").unwrap()).sum::<f64>() / 8.0;
        let summary = exp.run(&fixed(8), 21).unwrap();
        assert!((mean - summary.reward("avail").unwrap().interval.point).abs() < 1e-12);
    }

    #[test]
    fn run_raw_range_extends_the_same_sequence() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 5_000.0);
        exp.add_reward(availability_reward(up));
        let full = exp.run_raw(0..8, 33, None).unwrap();
        let head = exp.run_raw(0..4, 33, None).unwrap();
        let tail = exp.run_raw(4..8, 33, None).unwrap();
        for (a, b) in full.iter().zip(head.iter().chain(tail.iter())) {
            assert_eq!(a.reward("avail").unwrap(), b.reward("avail").unwrap());
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn interruptible_range_without_cancellation_matches_the_plain_runner() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 5_000.0);
        exp.add_reward(availability_reward(up));
        let plain = exp.run_raw(0..8, 33, None).unwrap();
        let token = CancelToken::new();
        let interruptible = exp.run_raw(0..8, 33, Some(&token)).unwrap();
        assert_eq!(plain, interruptible, "an unfired token must not change a single bit");
    }

    #[test]
    fn pre_cancelled_range_truncates_to_an_empty_prefix() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 5_000.0);
        exp.add_reward(availability_reward(up));
        let token = CancelToken::new();
        token.cancel();
        let results = exp.run_raw(0..8, 33, Some(&token)).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn run_result_round_trips_through_named_values() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 5_000.0);
        exp.add_reward(availability_reward(up));
        let original = exp.run_raw(0..2, 9, None).unwrap().remove(0);
        let pairs: Vec<(String, f64)> = original.iter().map(|(n, v)| (n.to_string(), v)).collect();
        let restored =
            crate::RunResult::from_named_values(pairs, original.events, original.end_time);
        assert_eq!(
            restored.reward("avail").unwrap().to_bits(),
            original.reward("avail").unwrap().to_bits()
        );
        assert_eq!(restored.events, original.events);
        assert_eq!(restored.end_time, original.end_time);
        assert!(restored.reward("missing").is_err());
        assert_eq!(
            restored.iter().collect::<Vec<_>>(),
            original.iter().collect::<Vec<_>>(),
            "registration order survives the round trip"
        );
    }

    #[test]
    fn default_stopping_rule_is_sane() {
        let rule = StoppingRule::default();
        assert!(rule.min_replications() >= 2);
        assert!(rule.max_replications() >= rule.min_replications());
        assert!(rule.relative_half_width() > 0.0);
    }

    #[test]
    fn experiment_accessors_and_debug() {
        let (model, up) = repairable_unit(100.0, 1.0);
        let mut exp = Experiment::new(model, 1000.0);
        exp.add_reward(availability_reward(up)).set_confidence_level(0.9);
        assert_eq!(exp.model().name(), "unit");
        let dbg = format!("{exp:?}");
        assert!(dbg.contains("unit"));
        assert!(dbg.contains("1000"));
    }
}
