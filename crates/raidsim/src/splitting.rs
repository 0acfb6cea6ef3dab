//! Fixed-effort multilevel splitting (RESTART-style) for data-loss
//! probabilities.
//!
//! A redundancy scheme loses data only when `L` exposure windows overlap —
//! `replicas` concurrently exposed disks in a replicated store, or
//! `parity + 1` concurrent failures inside one RAID tier. At realistic
//! rates the joint event is in the 10⁻⁶..10⁻¹⁰ regime, so plain
//! Monte-Carlo missions essentially never observe it. Splitting factors
//! the rare event through the *exposure depth* level function
//! `max_t (concurrent exposures at t)`, which climbs to `L` one step at a
//! time:
//!
//! ```text
//! P(loss) = P(peak ≥ 1) · P(peak ≥ 2 | peak ≥ 1) · … · P(peak ≥ L | peak ≥ L−1)
//! ```
//!
//! Each conditional factor is *not* rare, so each is estimated by ordinary
//! sampling: stage `k` runs a fixed number of trials, every trial starting
//! from a state snapshot taken the moment a stage-`k−1` trial first
//! reached depth `k−1` (stage 1 starts fresh missions), and counts how
//! many reach depth `k` before the mission ends. The per-level passage
//! fractions combine through
//! [`probdist::rare::splitting_probability`] into a [`RareEventEstimate`]
//! with the independent-stages confidence interval, the naive-equivalent
//! effective sample size, and the measured variance-reduction factor.
//!
//! Restarting from a snapshot is statistically sound because a mission of
//! the storage engine, under either [`Layout`](crate::Layout), carries the
//! full Markov state of the event-driven kernel — including the
//! already-drawn future event times in its calendar — so a continuation
//! with a fresh RNG stream is an exact conditional sample of the remaining
//! mission. The calendar carries those times only for events due within
//! the horizon: a later one can never fire, so it is not part of the state
//! a continuation can observe, and a snapshot does not clone it.
//!
//! # Determinism
//!
//! Trial `i` of level `k` always draws from the stream derived from the
//! root seed and `(k, i)`, and start snapshots are assigned by trial index
//! in collection order, so the whole estimate is a pure function of
//! `(simulator, horizon, trials, seed)` — bit-identical at any worker
//! count, pinned by the workspace determinism suite.
//!
//! # Effort
//!
//! The entry point,
//! [`crate::StorageSimulator::splitting_loss_probability`],
//! runs under a [`StoppingRule`] over the per-level trial count: a fixed rule
//! ([`StoppingRule::fixed`]) runs exactly one round of `n` trials per
//! level; an adaptive rule reruns the estimate with a doubling trial count
//! until the relative target (with the rule's minimum final-level support)
//! is met or the cap is reached.
//!
//! # Example
//!
//! ```
//! use probdist::stats::StoppingRule;
//! use raidsim::{DiskModel, ReplicationConfig, StorageSimulator};
//!
//! # fn main() -> Result<(), raidsim::RaidError> {
//! let disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 200_000.0, capacity_gb: 250.0 };
//! let config = ReplicationConfig::for_usable_capacity(12.0, 3, disk);
//! let sim = StorageSimulator::new(config)?;
//! // One year of a 3-way store with fast re-replication: deep sub-ppm.
//! let trials = StoppingRule::fixed(200)?;
//! let result = sim.splitting_loss_probability(8760.0, &trials, 42, 0.95, 1)?;
//! assert!(result.estimate.interval.point < 1e-4);
//! # Ok(())
//! # }
//! ```

use probdist::rare::{splitting_probability, LevelPassage, RareEventEstimate};
use probdist::stats::StoppingRule;
use probdist::SimRng;

use crate::storage::{validate_run, LayoutRules, Mission};
use crate::RaidError;

/// Result of a multilevel-splitting estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittingResult {
    /// The combined probability estimate (interval, effective sample size,
    /// total trials, variance-reduction factor vs naive Monte Carlo).
    pub estimate: RareEventEstimate,
    /// Conditional passage probability per level, in level order
    /// (`P(peak ≥ k | peak ≥ k−1)`); shorter than `loss_level` when a
    /// stage recorded zero passages and estimation stopped.
    pub level_probabilities: Vec<f64>,
    /// Trials per level of the final (or only) round.
    pub trials_per_level: usize,
    /// The exposure depth that constitutes data loss.
    pub loss_level: u32,
}

/// The fixed-effort splitting driver: estimates
/// `P(exposure peak ≥ loss level within the mission horizon)`.
///
/// Stage 1 primes a fresh copy of the unprimed `template` per trial. Trial
/// `i` of level `k` draws from `seed`-derived stream `(k, i)`; stage
/// `k > 1` restarts trial `i` from snapshot `i mod (number of snapshots)`
/// of the previous stage.
fn estimate_loss_probability<L: LayoutRules>(
    template: &Mission<L>,
    horizon_hours: f64,
    trials_per_level: usize,
    seed: u64,
    confidence_level: f64,
    workers: usize,
) -> Result<SplittingResult, RaidError> {
    let loss_level = template.loss_level();
    if loss_level == 0 {
        return Err(RaidError::InvalidRun {
            reason: "splitting needs a loss level of at least 1".into(),
        });
    }
    let mut passages: Vec<LevelPassage> = Vec::with_capacity(loss_level as usize);
    let mut snapshots: Vec<Mission<L>> = Vec::new();
    for level in 1..=loss_level {
        // Per-level root stream: trial i then derives (root, i) inside
        // `replicate_with`, so every (level, trial) pair is well separated
        // and the batch is worker-count invariant.
        let root = SimRng::seed_from_u64(seed).derive_stream(level as u64);
        let keep_states = level < loss_level;
        let outcomes: Vec<(bool, Option<Mission<L>>)> = probdist::parallel::replicate_with(
            0..trials_per_level,
            &root,
            workers,
            None,
            || (),
            |i, rng, ()| {
                let mut mission = if level == 1 {
                    let mut fresh = template.clone();
                    fresh.reprime(horizon_hours, rng);
                    fresh
                } else {
                    snapshots[i % snapshots.len()].clone()
                };
                let reached = mission.advance(rng, Some(level));
                debug_assert!(!reached || mission.exposure_peak() >= level);
                (reached, (reached && keep_states).then_some(mission))
            },
        );
        let hits = outcomes.iter().filter(|(reached, _)| *reached).count();
        probdist::telemetry::counter_add(
            probdist::telemetry::MetricId::SplittingLevelHits,
            hits as u64,
        );
        passages.push(LevelPassage { hits, trials: trials_per_level });
        if hits == 0 {
            // No trial passed: the product estimate is zero and deeper
            // stages have no start states.
            break;
        }
        if keep_states {
            snapshots = outcomes.into_iter().filter_map(|(_, m)| m).collect();
        }
    }

    let estimate = splitting_probability(&passages, confidence_level)
        .map_err(|e| RaidError::InvalidRun { reason: format!("splitting estimate: {e}") })?;
    Ok(SplittingResult {
        level_probabilities: passages.iter().map(|p| p.hits as f64 / p.trials as f64).collect(),
        estimate,
        trials_per_level,
        loss_level,
    })
}

/// The stopping loop over fixed-effort rounds: reruns the estimate with a
/// doubling per-level trial count until the relative half-width target
/// (and the minimum non-zero final-level support of
/// [`StoppingRule::met_by_support`]) is met or the per-level cap is
/// reached — a fixed rule (minimum = cap) runs exactly one round. Each
/// round is deterministic, so the whole loop is a pure function of
/// `(rule, seed)`; the returned estimate's `replications` records the total
/// trials spent across *all* rounds — the honest cost the
/// variance-reduction factor is recomputed against.
pub(crate) fn estimate_until<L: LayoutRules>(
    template: &Mission<L>,
    horizon_hours: f64,
    rule: &StoppingRule,
    seed: u64,
    confidence_level: f64,
    workers: usize,
) -> Result<SplittingResult, RaidError> {
    validate_run(horizon_hours, confidence_level)?;
    let mut trials = rule.min_replications();
    let mut spent = 0usize;
    loop {
        let mut result = estimate_loss_probability(
            template,
            horizon_hours,
            trials,
            seed,
            confidence_level,
            workers,
        )?;
        spent += result.estimate.replications;
        let met = rule.met_by_support(&result.estimate.interval, result.estimate.hits);
        if met || trials >= rule.max_replications() {
            // Account the full spend and rescale the variance-reduction
            // factor to it (naive-equivalent ESS is unchanged).
            result.estimate.replications = spent;
            if result.estimate.effective_sample_size > 0.0 {
                result.estimate.variance_reduction_factor =
                    result.estimate.effective_sample_size / spent as f64;
            }
            return Ok(result);
        }
        trials = (trials * 2).min(rule.max_replications());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, RaidGeometry, ReplicationConfig, StorageConfig, StorageSimulator};
    use probdist::{Distribution, Weibull};

    fn fixed(replications: usize) -> StoppingRule {
        StoppingRule::fixed(replications).unwrap()
    }

    fn exponential_disk(mtbf_hours: f64) -> DiskModel {
        DiskModel { weibull_shape: 1.0, mtbf_hours, capacity_gb: 250.0 }
    }

    /// Level 1 of a 1-way store is plain "any disk fails before the
    /// horizon", whose probability is the closed form
    /// `1 − S(T)^disks` — a known-answer check of the whole driver.
    #[test]
    fn single_level_matches_first_failure_closed_form() {
        let disk = exponential_disk(50_000.0);
        let config = ReplicationConfig {
            disks: 8,
            replicas: 1,
            disk,
            re_replication_hours: 2.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let horizon = 2_000.0;
        let result = sim.splitting_loss_probability(horizon, &fixed(4000), 7, 0.95, 1).unwrap();
        let lifetime = Weibull::from_shape_and_mean(1.0, 50_000.0).unwrap();
        let exact = 1.0 - lifetime.survival(horizon).powi(8);
        assert_eq!(result.loss_level, 1);
        assert_eq!(result.level_probabilities.len(), 1);
        assert!(
            result.estimate.interval.contains(exact)
                || (result.estimate.interval.point - exact).abs() / exact < 0.05,
            "estimate {} vs exact {exact}",
            result.estimate.interval
        );
    }

    /// Splitting agrees with plain Monte Carlo on a config where the loss
    /// probability is large enough for both to resolve.
    #[test]
    fn splitting_agrees_with_naive_monte_carlo_when_both_can_see_the_event() {
        let disk = exponential_disk(4_000.0);
        let config = ReplicationConfig {
            disks: 20,
            replicas: 2,
            disk,
            re_replication_hours: 24.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let horizon = 500.0;

        let split = sim.splitting_loss_probability(horizon, &fixed(2000), 3, 0.95, 1).unwrap();
        // Naive estimate of the same probability from many missions.
        let summary = sim.run(horizon, &fixed(4000), 11, 0.95, 0).unwrap();
        let naive = summary.prob_any_data_loss;
        assert!(naive > 0.01, "config must be naive-resolvable, got {naive}");
        let diff = (split.estimate.interval.point - naive).abs();
        assert!(
            diff < 3.0 * split.estimate.interval.half_width + 0.02,
            "splitting {} vs naive {naive}",
            split.estimate.interval
        );
        assert!(split.estimate.variance_reduction_factor > 0.0);
    }

    /// The regime the subsystem exists for: a 3-way store whose loss
    /// probability is far below anything 4000 naive missions could see,
    /// resolved with a finite relative error.
    #[test]
    fn splitting_resolves_probabilities_naive_sampling_cannot() {
        let disk = exponential_disk(20_000.0);
        let config = ReplicationConfig {
            disks: 24,
            replicas: 3,
            disk,
            re_replication_hours: 4.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let result = sim.splitting_loss_probability(2190.0, &fixed(6000), 5, 0.95, 0).unwrap();
        let p = result.estimate.interval.point;
        assert!(p > 0.0, "the estimator must resolve the event");
        assert!(p < 1e-3, "this regime is rare, got {p}");
        assert_eq!(result.level_probabilities.len(), 3);
        assert!(result.estimate.relative_error() < 0.5);
        assert!(
            result.estimate.variance_reduction_factor > 1.0,
            "VRF {} must beat naive",
            result.estimate.variance_reduction_factor
        );
    }

    #[test]
    fn raid_splitting_levels_track_parity() {
        let mut config = StorageConfig::abe_scratch();
        config.controllers = None;
        config.geometry = RaidGeometry::raid6_8p2();
        config.tiers = 24;
        config.disk = exponential_disk(30_000.0);
        let sim = StorageSimulator::new(config).unwrap();
        let result = sim.splitting_loss_probability(8760.0, &fixed(400), 9, 0.95, 0).unwrap();
        assert_eq!(result.loss_level, 3, "8+2 loses data at 3 concurrent failures");
        assert!(result.estimate.interval.point < 0.5);
        // More parity pushes the loss level (and rarity) up.
        let mut plus3 = StorageConfig::abe_scratch();
        plus3.controllers = None;
        plus3.geometry = RaidGeometry::raid_8p3();
        plus3.tiers = 24;
        plus3.disk = exponential_disk(30_000.0);
        let sim3 = StorageSimulator::new(plus3).unwrap();
        let result3 = sim3.splitting_loss_probability(8760.0, &fixed(400), 9, 0.95, 0).unwrap();
        assert_eq!(result3.loss_level, 4);
        assert!(
            result3.estimate.interval.point <= result.estimate.interval.point,
            "8+3 {} must not lose more than 8+2 {}",
            result3.estimate.interval.point,
            result.estimate.interval.point
        );
    }

    #[test]
    fn splitting_is_deterministic_and_worker_invariant() {
        let disk = exponential_disk(20_000.0);
        let config = ReplicationConfig {
            disks: 30,
            replicas: 3,
            disk,
            re_replication_hours: 24.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let serial = sim.splitting_loss_probability(4380.0, &fixed(300), 21, 0.95, 1).unwrap();
        let parallel = sim.splitting_loss_probability(4380.0, &fixed(300), 21, 0.95, 4).unwrap();
        assert_eq!(serial, parallel, "splitting must be bit-identical at any worker count");

        let mut raid = StorageConfig::abe_scratch();
        raid.controllers = None;
        raid.tiers = 12;
        raid.disk = exponential_disk(20_000.0);
        let rsim = StorageSimulator::new(raid).unwrap();
        let a = rsim.splitting_loss_probability(4380.0, &fixed(200), 33, 0.95, 1).unwrap();
        let b = rsim.splitting_loss_probability(4380.0, &fixed(200), 33, 0.95, 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_splitting_respects_rule_bounds() {
        let disk = exponential_disk(3_000.0);
        let config = ReplicationConfig {
            disks: 24,
            replicas: 2,
            disk,
            re_replication_hours: 24.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let rule = StoppingRule::new(0.2, 100, 3200).unwrap();
        let result = sim.splitting_loss_probability(2000.0, &rule, 13, 0.95, 0).unwrap();
        assert!(result.trials_per_level <= 3200);
        assert!(result.estimate.replications >= result.trials_per_level);
        assert!(
            result.estimate.relative_error() <= 0.2 || result.trials_per_level == 3200,
            "either the target is met or the cap was hit: {} @ {}",
            result.estimate.relative_error(),
            result.trials_per_level
        );
        // Deterministic: the adaptive loop replays identically.
        let again = sim.splitting_loss_probability(2000.0, &rule, 13, 0.95, 2).unwrap();
        assert_eq!(result, again);
    }

    #[test]
    fn splitting_validates_parameters() {
        let sim = StorageSimulator::new(ReplicationConfig::for_usable_capacity(
            1.0,
            2,
            exponential_disk(10_000.0),
        ))
        .unwrap();
        assert!(sim.splitting_loss_probability(0.0, &fixed(100), 1, 0.95, 1).is_err());
        assert!(StoppingRule::fixed(1).is_err());
        assert!(sim.splitting_loss_probability(100.0, &fixed(100), 1, 1.5, 1).is_err());
        let rule = StoppingRule::new(0.2, 16, 64).unwrap();
        assert!(sim.splitting_loss_probability(0.0, &rule, 1, 0.95, 1).is_err());
    }

    /// An impossible-to-reach deep level reports "zero with zero
    /// information", never a confident zero.
    #[test]
    fn unreachable_levels_report_zero_without_confidence() {
        let disk = exponential_disk(1e9);
        let config = ReplicationConfig {
            disks: 3,
            replicas: 3,
            disk,
            re_replication_hours: 0.1,
            replacement_hours: 0.1,
            data_loss_recovery_hours: 1.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let result = sim.splitting_loss_probability(10.0, &fixed(50), 3, 0.95, 1).unwrap();
        assert_eq!(result.estimate.interval.point, 0.0);
        assert_eq!(result.estimate.relative_error(), f64::INFINITY);
        let rule = StoppingRule::new(0.1, 2, 10).unwrap();
        assert!(!rule.met_by(&result.estimate.interval));
    }
}
