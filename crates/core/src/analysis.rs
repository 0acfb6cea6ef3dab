//! Running the composed cluster model and summarising its dependability.

use std::cell::Cell;
use std::ops::Range;

use probdist::parallel::{current_cancel_token, CancelToken};
use probdist::stats::{confidence_interval, run_to_precision, ConfidenceInterval, RunningStats};
use serde::{Deserialize, Serialize};

use sanet::{Experiment, RunResult};

use crate::checkpoint::{self, StoredRun};
use crate::config::ClusterConfig;
use crate::model::build_cluster_model;
use crate::rewards::{
    cluster_utility, standard_rewards, CFS_AVAILABILITY, DISK_REPLACEMENTS, LOST_NODE_HOURS,
    MEAN_OSS_PAIRS_DOWN, STORAGE_AVAILABILITY,
};
use crate::run::RunSpec;
use crate::CfsError;

/// Dependability measures of a cluster configuration, each with a 95 %
/// confidence interval across simulation replications.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterDependability {
    /// Name of the evaluated configuration.
    pub config_name: String,
    /// CFS availability (Section 4.2).
    pub cfs_availability: ConfidenceInterval,
    /// Storage (RAID subsystem) availability.
    pub storage_availability: ConfidenceInterval,
    /// Cluster utility (CU).
    pub cluster_utility: ConfidenceInterval,
    /// Disk replacements per week.
    pub disk_replacements_per_week: ConfidenceInterval,
    /// Time-averaged number of OSS pairs simultaneously down.
    pub mean_oss_pairs_down: ConfidenceInterval,
    /// Number of replications actually run (for an adaptive spec, the
    /// count at which the precision target was met or capped).
    pub replications: usize,
    /// Simulation horizon of each replication, hours.
    pub horizon_hours: f64,
    /// Whether a run deadline expired before the replication budget was
    /// spent: every statistic is still valid, but covers only the
    /// contiguous prefix of replications that completed.
    pub truncated: bool,
}

/// The five dependability measures of one evaluation, accumulated across
/// replications in index order.
struct MeasureStats {
    cfs: RunningStats,
    storage: RunningStats,
    cu: RunningStats,
    replacements: RunningStats,
    oss_down: RunningStats,
}

impl MeasureStats {
    /// Reduces raw per-replication results into the five measures,
    /// rejecting any non-finite reward (which would otherwise silently
    /// poison every statistic).
    fn from_runs(
        config: &ClusterConfig,
        horizon_hours: f64,
        runs: &[RunResult],
    ) -> Result<MeasureStats, CfsError> {
        let mut cfs = RunningStats::new();
        let mut storage = RunningStats::new();
        let mut cu = RunningStats::new();
        let mut replacements = RunningStats::new();
        let mut oss_down = RunningStats::new();
        for (index, run) in runs.iter().enumerate() {
            let availability = run.reward(CFS_AVAILABILITY)?;
            let lost = run.reward(LOST_NODE_HOURS)?;
            let storage_availability = run.reward(STORAGE_AVAILABILITY)?;
            let disk_replacements = run.reward(DISK_REPLACEMENTS)?;
            let pairs_down = run.reward(MEAN_OSS_PAIRS_DOWN)?;
            for (name, value) in [
                (CFS_AVAILABILITY, availability),
                (LOST_NODE_HOURS, lost),
                (STORAGE_AVAILABILITY, storage_availability),
                (DISK_REPLACEMENTS, disk_replacements),
                (MEAN_OSS_PAIRS_DOWN, pairs_down),
            ] {
                if !value.is_finite() {
                    return Err(CfsError::InvalidConfig {
                        reason: format!(
                            "replication {index} of '{}' produced a non-finite value {value} for \
                             reward '{name}' — the configuration drives the model outside its \
                             numeric range",
                            config.name
                        ),
                    });
                }
            }
            cfs.push(availability);
            storage.push(storage_availability);
            cu.push(cluster_utility(availability, lost, config.compute_nodes, horizon_hours));
            replacements.push(disk_replacements / (horizon_hours / 168.0));
            oss_down.push(pairs_down);
        }
        Ok(MeasureStats { cfs, storage, cu, replacements, oss_down })
    }
}

/// Per-evaluation checkpoint state: the file and interval from the spec's
/// [`crate::run::CheckpointPolicy`], this evaluation's entry key, and the
/// stored replication prefix loaded when the session opened. As new
/// replications complete they are appended to `stored` and the whole
/// prefix is re-persisted, so the file always holds a contiguous
/// `0..stored.len()` prefix.
struct CheckpointSession {
    path: String,
    every_n: usize,
    key: String,
    stored: Vec<StoredRun>,
}

impl CheckpointSession {
    /// Opens the spec's checkpoint (if it carries one), loading any
    /// previously persisted prefix for this `(config, base seed)` pair.
    ///
    /// Every replication ends at its horizon, so a stored run whose end
    /// time differs was simulated under another horizon: serving it would
    /// pass its rewards off as this run's. Such a prefix is refused.
    fn open(config: &ClusterConfig, spec: &RunSpec) -> Result<Option<CheckpointSession>, CfsError> {
        let Some(policy) = spec.checkpoint() else {
            return Ok(None);
        };
        let key = checkpoint::entry_key(&config.name, spec.base_seed());
        let data = checkpoint::load(&policy.path)?;
        let stored = data.entry(&key).map(<[StoredRun]>::to_vec).unwrap_or_default();
        if let Some(run) = stored.iter().find(|run| run.end_time != spec.horizon_hours()) {
            return Err(CfsError::Checkpoint {
                path: policy.path.clone(),
                reason: format!(
                    "entry `{key}` holds replications of a {} h horizon, but this run's \
                     horizon is {} h",
                    run.end_time,
                    spec.horizon_hours()
                ),
            });
        }
        Ok(Some(CheckpointSession {
            path: policy.path.clone(),
            every_n: policy.every_n,
            key,
            stored,
        }))
    }

    fn persist(&self) -> Result<(), CfsError> {
        checkpoint::update(&self.path, &self.key, self.stored.clone())
    }
}

fn restore_run(run: &StoredRun) -> RunResult {
    RunResult::from_named_values(run.rewards.clone(), run.events, run.end_time)
}

fn capture_run(run: &RunResult) -> StoredRun {
    StoredRun {
        rewards: run.iter().map(|(name, value)| (name.to_string(), value)).collect(),
        events: run.events,
        end_time: run.end_time,
    }
}

/// Runs replications `range` of `experiment`: indices already in the
/// checkpoint prefix are restored without simulating, the remainder runs
/// in chunks of the checkpoint interval (persisting after every chunk),
/// and the cancel token truncates the range cooperatively. Returns the
/// contiguous completed prefix of the range and whether cancellation cut
/// it short.
///
/// A panic inside a chunk (a poisoned replication, injected or real)
/// propagates *before* that chunk is persisted, so the checkpoint file
/// only ever holds fully completed replications.
fn run_range(
    experiment: &Experiment,
    seed: u64,
    range: Range<usize>,
    session: &mut Option<CheckpointSession>,
    token: Option<&CancelToken>,
) -> Result<(Vec<RunResult>, bool), CfsError> {
    let mut results: Vec<RunResult> = Vec::with_capacity(range.len());
    let mut next = range.start;

    // Serve the stored prefix first — bit-identical to re-simulating,
    // because replication `i` is a pure function of `(seed, i)`.
    if let Some(session) = session.as_ref() {
        let available = session.stored.len().min(range.end);
        let mut resumed = 0u64;
        while next < available {
            results.push(restore_run(&session.stored[next]));
            next += 1;
            resumed += 1;
        }
        probdist::telemetry::counter_add(
            probdist::telemetry::MetricId::CheckpointResumeHits,
            resumed,
        );
    }

    while next < range.end {
        if token.is_some_and(CancelToken::is_cancelled) {
            return Ok((results, true));
        }
        let chunk_len = match session.as_ref() {
            Some(session) => session.every_n.min(range.end - next),
            None => range.end - next,
        };
        let chunk = experiment.run_raw(next..next + chunk_len, seed, token)?;
        let cut = chunk.len() < chunk_len;
        if let Some(session) = session.as_mut() {
            debug_assert_eq!(session.stored.len(), next, "checkpoint prefix out of step");
            session.stored.extend(chunk.iter().map(capture_run));
            session.persist()?;
        }
        next += chunk.len();
        results.extend(chunk);
        if cut {
            return Ok((results, true));
        }
    }
    Ok((results, false))
}

/// Builds the composed model for `config`, simulates it under the spec's
/// replication policy — a fixed count, or precision-targeted batches when
/// [`RunSpec::with_precision_target`] is set — and returns every reward
/// measure with confidence intervals at the spec's level. Replications are
/// scheduled through the work-stealing executor (the study's global pool
/// when one is ambient), each drawing from its own index-derived RNG
/// stream, so the result is a pure function of `(config, spec)`.
///
/// Two resilience policies thread through here. With
/// [`RunSpec::with_checkpoint`], completed replications persist to a
/// checksummed file and a rerun restores them instead of re-simulating —
/// bit-identically. With [`RunSpec::with_deadline`] (or inside a study
/// that installed an ambient cancellation token), an expired deadline
/// stops claiming new replications, and the result covers the contiguous
/// completed prefix with `truncated` set.
///
/// The returned `replications` field records the count actually used,
/// which for an adaptive run is where the stopping rule was satisfied (or
/// its cap), and for a truncated run the completed prefix length.
///
/// # Errors
///
/// Returns [`CfsError::InvalidConfig`] for an invalid configuration or run
/// spec, or when a replication produces a non-finite reward;
/// [`CfsError::Checkpoint`] for a corrupt or unwritable checkpoint file;
/// [`CfsError::DeadlineExpired`] when fewer than two replications finished
/// before the deadline; and propagates simulation errors.
pub fn evaluate(config: &ClusterConfig, spec: &RunSpec) -> Result<ClusterDependability, CfsError> {
    spec.validate()?;
    let horizon_hours = spec.horizon_hours();
    let level = spec.confidence_level();

    let cluster = {
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanModelBuild);
        build_cluster_model(config)?
    };
    let rewards = standard_rewards(&cluster);
    let mut experiment = Experiment::new(cluster.model.clone(), horizon_hours);
    experiment.set_workers(spec.workers());
    for reward in rewards {
        experiment.add_reward(reward);
    }

    // A study installs one study-wide token ambiently (covering every
    // scenario it schedules); a standalone evaluation derives its own from
    // the spec's deadline.
    let token = current_cancel_token().or_else(|| spec.deadline().map(CancelToken::with_deadline));
    let mut session = CheckpointSession::open(config, spec)?;

    let truncated = Cell::new(false);
    let rule = spec.stopping_rule()?;
    let runs = run_to_precision(
        &rule,
        |range| -> Result<Vec<RunResult>, CfsError> {
            let (batch, cut) =
                run_range(&experiment, spec.base_seed(), range, &mut session, token.as_ref())?;
            if cut {
                truncated.set(true);
            }
            Ok(batch)
        },
        |runs| {
            if truncated.get() {
                // The deadline fired: accept the completed prefix as final
                // instead of scheduling further batches.
                return Ok(true);
            }
            let m = MeasureStats::from_runs(config, horizon_hours, runs)?;
            for stats in [&m.cfs, &m.storage, &m.cu, &m.replacements, &m.oss_down] {
                if !rule.met_by(&confidence_interval(stats, level)?) {
                    return Ok(false);
                }
            }
            Ok(true)
        },
    )?;

    if truncated.get() && runs.len() < 2 {
        return Err(CfsError::DeadlineExpired {
            scenario: config.name.clone(),
            completed: runs.len(),
        });
    }

    let m = MeasureStats::from_runs(config, horizon_hours, &runs)?;
    Ok(ClusterDependability {
        config_name: config.name.clone(),
        cfs_availability: confidence_interval(&m.cfs, level)?,
        storage_availability: confidence_interval(&m.storage, level)?,
        cluster_utility: confidence_interval(&m.cu, level)?,
        disk_replacements_per_week: confidence_interval(&m.replacements, level)?,
        mean_oss_pairs_down: confidence_interval(&m.oss_down, level)?,
        replications: runs.len(),
        horizon_hours,
        truncated: truncated.get(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const YEAR: f64 = 8760.0;

    fn spec(replications: usize, seed: u64) -> RunSpec {
        RunSpec::new().with_horizon_hours(YEAR).with_replications(replications).with_base_seed(seed)
    }

    #[test]
    fn run_parameters_are_validated() {
        let abe = ClusterConfig::abe();
        assert!(evaluate(&abe, &spec(1, 1)).is_err());
        assert!(evaluate(&abe, &spec(8, 1).with_horizon_hours(0.0)).is_err());
        assert!(evaluate(&abe, &spec(8, 1).with_horizon_hours(-1.0)).is_err());
        assert!(evaluate(&abe, &spec(100_001, 1)).is_err());
    }

    #[test]
    fn adaptive_evaluation_stops_within_bounds() {
        let abe = ClusterConfig::abe();
        // A loose target on a low-variance configuration stops well before
        // the cap; the result records the count actually used.
        let loose = spec(4, 9).with_precision_target(0.5, 4, 64);
        let result = evaluate(&abe, &loose).unwrap();
        assert!(
            result.replications >= 4 && result.replications <= 64,
            "used {} replications",
            result.replications
        );

        // An unreachable target runs to the cap.
        let tight = spec(4, 9).with_horizon_hours(2000.0).with_precision_target(1e-9, 4, 8);
        let capped = evaluate(&abe, &tight).unwrap();
        assert_eq!(capped.replications, 8);
    }

    #[test]
    fn adaptive_run_matches_fixed_run_of_the_same_count() {
        let abe = ClusterConfig::abe();
        let adaptive = evaluate(
            &abe,
            &spec(4, 9).with_horizon_hours(2000.0).with_precision_target(0.5, 4, 64),
        )
        .unwrap();
        let fixed =
            evaluate(&abe, &spec(adaptive.replications, 9).with_horizon_hours(2000.0)).unwrap();
        assert_eq!(adaptive, fixed, "same seed + same count must be bit-identical");
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let abe = ClusterConfig::abe();
        let mut path = std::env::temp_dir();
        path.push(format!("cfs-analysis-ckpt-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let plain = evaluate(&abe, &spec(6, 21).with_horizon_hours(1000.0)).unwrap();
        let checkpointed =
            spec(6, 21).with_horizon_hours(1000.0).with_checkpoint(path.to_str().unwrap(), 2);
        // The first run populates the checkpoint while matching the plain
        // run bit for bit…
        let first = evaluate(&abe, &checkpointed).unwrap();
        assert_eq!(plain, first);
        // …and a rerun restores every replication from the file (the
        // stored f64s round-trip exactly) instead of re-simulating.
        let second = evaluate(&abe, &checkpointed).unwrap();
        assert_eq!(first, second);
        let data = crate::checkpoint::load(&path).unwrap();
        assert_eq!(data.entry(&crate::checkpoint::entry_key("ABE", 21)).unwrap().len(), 6);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_of_another_horizon_is_refused() {
        let abe = ClusterConfig::abe();
        let mut path = std::env::temp_dir();
        path.push(format!("cfs-analysis-horizon-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let at =
            |hours| spec(4, 9).with_horizon_hours(hours).with_checkpoint(path.to_str().unwrap(), 2);

        evaluate(&abe, &at(500.0)).unwrap();
        match evaluate(&abe, &at(4000.0)) {
            Err(CfsError::Checkpoint { reason, .. }) => {
                assert!(reason.contains("500 h") && reason.contains("4000 h"), "{reason}");
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
        // The matching horizon still resumes from the same file.
        assert_eq!(evaluate(&abe, &at(500.0)).unwrap().replications, 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_expired_deadline_is_a_typed_starvation_error() {
        let starved =
            spec(8, 3).with_horizon_hours(500.0).with_deadline(std::time::Duration::from_nanos(1));
        let err = evaluate(&ClusterConfig::abe(), &starved).unwrap_err();
        match err {
            CfsError::DeadlineExpired { scenario, completed } => {
                assert_eq!(scenario, "ABE");
                assert_eq!(completed, 0);
            }
            other => panic!("expected DeadlineExpired, got {other}"),
        }
    }

    #[test]
    fn abe_availability_matches_the_measured_band() {
        // The paper measures ABE CFS availability at about 0.97 (Table 1 /
        // Figure 4 first point) and storage availability ≈ 1.
        let result = evaluate(&ClusterConfig::abe(), &spec(24, 7)).unwrap();
        let a = result.cfs_availability.point;
        assert!(a > 0.955 && a < 0.99, "ABE CFS availability {a}");
        assert!(result.storage_availability.point > 0.9999);
        // CU is below CFS availability (transient errors) but not by much at
        // ABE scale.
        assert!(result.cluster_utility.point < a);
        assert!(result.cluster_utility.point > a - 0.05);
        // 0-2 disk replacements per week.
        let per_week = result.disk_replacements_per_week.point;
        assert!(per_week > 0.1 && per_week < 3.0, "replacements {per_week}");
        assert_eq!(result.replications, 24);
    }

    #[test]
    fn petascale_availability_drops_toward_the_paper_value() {
        // Figure 4: CFS availability falls from ≈0.97 to ≈0.91 as the system
        // scales to petaflop-petabyte; CU falls further.
        let result = evaluate(&ClusterConfig::petascale(), &spec(16, 11)).unwrap();
        let a = result.cfs_availability.point;
        assert!(a > 0.85 && a < 0.945, "petascale CFS availability {a}");
        assert!(result.storage_availability.point > 0.999);
        assert!(
            result.cluster_utility.point < a - 0.02,
            "CU should fall well below CFS availability"
        );
    }

    #[test]
    fn spare_oss_improves_petascale_availability() {
        let base = evaluate(&ClusterConfig::petascale(), &spec(16, 13)).unwrap();
        let spared = evaluate(&ClusterConfig::petascale().with_spare_oss(), &spec(16, 13)).unwrap();
        let gain = spared.cfs_availability.point - base.cfs_availability.point;
        assert!(gain > 0.005, "spare OSS should improve availability, gain {gain}");
        assert!(gain < 0.12, "gain should stay in a plausible range, gain {gain}");
    }

    #[test]
    fn multipath_network_improves_cluster_utility() {
        let base = evaluate(&ClusterConfig::petascale(), &spec(12, 17)).unwrap();
        let multi =
            evaluate(&ClusterConfig::petascale().with_multipath_network(), &spec(12, 17)).unwrap();
        assert!(
            multi.cluster_utility.point > base.cluster_utility.point,
            "multipath {} vs base {}",
            multi.cluster_utility.point,
            base.cluster_utility.point
        );
    }
}
