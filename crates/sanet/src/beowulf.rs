//! Composed Beowulf-cluster performability model, after Kirsal & Ever's
//! *"Approximate Solution Approach and Performability Evaluation of Large
//! Scale Beowulf Clusters"*.
//!
//! A Beowulf cluster is a head node dispatching work to `N` identical
//! worker nodes. Both fail and are repaired; service degrades gracefully
//! with the number of operational workers and stops entirely while the
//! head node is down (workers cannot receive work). The *performability*
//! measure is the time-averaged fraction of nominal capacity actually
//! delivered — the reward-weighted availability Kirsal & Ever solve
//! approximately and this module estimates by simulating the composed SAN:
//!
//! * `head_up` / `head_down` — the head node's fail/repair cycle
//!   (exponential failures with mean [`BeowulfConfig::head_mtbf_hours`],
//!   repairs of mean [`BeowulfConfig::head_repair_hours`]).
//! * `workers_up` / `workers_down` — the worker population. Worker
//!   failures are modelled as one aggregate activity whose exponential
//!   rate is `workers_up · λ` (marking-dependent timing, declared via
//!   [`crate::ActivityBuilder::timing_reads`]); repairs as an aggregate
//!   activity of rate `min(workers_down, repair_crews) · μ` — the limited
//!   repair-crew queue of the Kirsal & Ever model. Repairs are dispatched
//!   from the head node, so the repair activity carries a gate enabled
//!   only while `head_up` holds (declared via
//!   [`crate::ActivityBuilder::enabling_reads`]).
//!
//! Every activity declares its enabling and timing read sets, which makes
//! the model eligible for the event-calendar kernel's incidence-driven
//! fast path (an event re-examines only the activities whose declared
//! reads it wrote) and pins those declarations sound via the in-crate
//! differential test. Note that at its 4-activity size
//! [`crate::Simulator::run`] auto-selects the naive kernel — the
//! small-model crossover — so the calendar fast path is exercised by
//! [`crate::Simulator::run_traced`], the differential suite, and any
//! larger composition embedding this model, not by plain production runs.
//!
//! The parameter axes (all units in hours or counts):
//!
//! | parameter | meaning | unit |
//! |---|---|---|
//! | `workers` | worker-node count `N` | nodes |
//! | `head_mtbf_hours` | mean time between head-node failures | h |
//! | `head_repair_hours` | mean head-node repair time | h |
//! | `worker_mtbf_hours` | mean time between failures of one worker | h |
//! | `worker_repair_hours` | mean repair time of one worker | h |
//! | `repair_crews` | simultaneous worker repairs | crews |

use probdist::{Dist, Exponential};
use serde::{Deserialize, Serialize};

use crate::reward::RewardSpec;
use crate::{Marking, Model, ModelBuilder, PlaceId, SanError};

/// Parameters of a Beowulf head-plus-workers cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BeowulfConfig {
    /// Number of worker nodes (`N`).
    pub workers: u32,
    /// Mean time between head-node failures, hours.
    pub head_mtbf_hours: f64,
    /// Mean head-node repair time, hours.
    pub head_repair_hours: f64,
    /// Mean time between failures of a single worker, hours.
    pub worker_mtbf_hours: f64,
    /// Mean repair time of a single worker (one crew working), hours.
    pub worker_repair_hours: f64,
    /// Number of repair crews: at most this many workers are repaired
    /// simultaneously (the queueing bottleneck of the Kirsal & Ever model).
    pub repair_crews: u32,
}

impl Default for BeowulfConfig {
    /// A mid-size commodity cluster: 64 workers with 5 000-hour MTBF and
    /// 12-hour repairs from one crew; a sturdier head node (10 000-hour
    /// MTBF, 8-hour repair).
    fn default() -> Self {
        BeowulfConfig {
            workers: 64,
            head_mtbf_hours: 10_000.0,
            head_repair_hours: 8.0,
            worker_mtbf_hours: 5_000.0,
            worker_repair_hours: 12.0,
            repair_crews: 1,
        }
    }
}

impl BeowulfConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidExperiment`] naming the offending
    /// parameter: zero workers or crews, or a non-positive/non-finite
    /// MTBF or repair time.
    pub fn validate(&self) -> Result<(), SanError> {
        if self.workers == 0 {
            return Err(SanError::InvalidExperiment {
                reason: "Beowulf cluster needs at least one worker".into(),
            });
        }
        if self.repair_crews == 0 {
            return Err(SanError::InvalidExperiment {
                reason: "Beowulf cluster needs at least one repair crew".into(),
            });
        }
        for (name, value) in [
            ("head_mtbf_hours", self.head_mtbf_hours),
            ("head_repair_hours", self.head_repair_hours),
            ("worker_mtbf_hours", self.worker_mtbf_hours),
            ("worker_repair_hours", self.worker_repair_hours),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(SanError::InvalidExperiment {
                    reason: format!("Beowulf {name} must be positive and finite, got {value}"),
                });
            }
        }
        Ok(())
    }
}

/// The built Beowulf model: the SAN plus the place handles rewards read.
#[derive(Debug, Clone)]
pub struct BeowulfModel {
    /// The underlying stochastic activity network.
    pub model: Model,
    /// Head node operational (1) or not (0).
    pub head_up: PlaceId,
    /// Number of operational workers.
    pub workers_up: PlaceId,
    /// Number of failed workers (repair queue length).
    pub workers_down: PlaceId,
    /// The configuration the model was built from.
    pub config: BeowulfConfig,
}

/// Reward name: delivered fraction of nominal capacity (performability).
pub const PERFORMABILITY: &str = "performability";
/// Reward name: service availability (head up and at least one worker up).
pub const SERVICE_AVAILABILITY: &str = "service_availability";
/// Reward name: head-node availability.
pub const HEAD_AVAILABILITY: &str = "head_availability";
/// Reward name: time-averaged number of operational workers.
pub const MEAN_WORKERS_UP: &str = "mean_workers_up";

impl BeowulfModel {
    /// The standard reward set of the performability analysis:
    ///
    /// * [`PERFORMABILITY`] — time-averaged `workers_up / N` while the head
    ///   is up, `0` otherwise: the delivered fraction of nominal capacity.
    /// * [`SERVICE_AVAILABILITY`] — time-averaged indicator of "the
    ///   cluster serves at all" (head up, ≥ 1 worker up).
    /// * [`HEAD_AVAILABILITY`] — time-averaged head-up indicator.
    /// * [`MEAN_WORKERS_UP`] — time-averaged operational worker count.
    pub fn rewards(&self) -> Vec<RewardSpec> {
        let head = self.head_up;
        let up = self.workers_up;
        let nominal = self.config.workers as f64;
        vec![
            RewardSpec::time_averaged_rate(PERFORMABILITY, move |m: &Marking| {
                if m.tokens(head) > 0 {
                    m.tokens(up) as f64 / nominal
                } else {
                    0.0
                }
            }),
            RewardSpec::time_averaged_rate(SERVICE_AVAILABILITY, move |m: &Marking| {
                if m.tokens(head) > 0 && m.tokens(up) > 0 {
                    1.0
                } else {
                    0.0
                }
            }),
            RewardSpec::time_averaged_rate(HEAD_AVAILABILITY, move |m: &Marking| {
                if m.tokens(head) > 0 {
                    1.0
                } else {
                    0.0
                }
            }),
            RewardSpec::time_averaged_rate(MEAN_WORKERS_UP, move |m: &Marking| m.tokens(up) as f64),
        ]
    }
}

/// Builds the composed head-plus-workers SAN for `config`.
///
/// # Errors
///
/// Returns [`SanError::InvalidExperiment`] for an invalid configuration and
/// propagates model-construction errors.
pub fn build_beowulf_model(config: &BeowulfConfig) -> Result<BeowulfModel, SanError> {
    config.validate()?;
    let mut b = ModelBuilder::new(format!("beowulf/{}workers", config.workers));

    let head_up = b.add_place("head_up", 1)?;
    let head_down = b.add_place("head_down", 0)?;
    let workers_up = b.add_place("workers_up", config.workers as u64)?;
    let workers_down = b.add_place("workers_down", 0)?;

    // Head-node fail/repair cycle. Plain input-arc enabling — the arc reads
    // are structural, so the calendar engine already knows them.
    b.timed_activity("head_fail", Exponential::from_mean(config.head_mtbf_hours)?)?
        .input_arc(head_up, 1)
        .output_arc(head_down, 1)
        .build()?;
    b.timed_activity("head_repair", Exponential::from_mean(config.head_repair_hours)?)?
        .input_arc(head_down, 1)
        .output_arc(head_up, 1)
        .build()?;

    // Aggregate worker failures: exponential with rate `workers_up · λ`.
    // The distribution reads only `workers_up`, and per-worker lifetimes
    // are memoryless, so declaring the timing read keeps the sampled delay
    // valid until the worker population itself changes — the calendar
    // fast path.
    let worker_rate = 1.0 / config.worker_mtbf_hours;
    b.timed_activity_fn("worker_fail", move |m: &Marking| {
        let n = m.tokens(workers_up).max(1) as f64;
        Dist::Exponential(Exponential::new(n * worker_rate).expect("positive rate"))
    })?
    .timing_reads(&[workers_up])
    .input_arc(workers_up, 1)
    .output_arc(workers_down, 1)
    .build()?;

    // Aggregate worker repairs: at most `repair_crews` crews work in
    // parallel, each at rate μ, and repairs are dispatched from the head
    // node — the gate (with its declared read set) keeps the repair queue
    // frozen while the head is down.
    let repair_rate = 1.0 / config.worker_repair_hours;
    let crews = config.repair_crews as u64;
    b.timed_activity_fn("worker_repair", move |m: &Marking| {
        let busy = m.tokens(workers_down).min(crews).max(1) as f64;
        Dist::Exponential(Exponential::new(busy * repair_rate).expect("positive rate"))
    })?
    .timing_reads(&[workers_down])
    .enabling_predicate(move |m: &Marking| m.tokens(head_up) > 0)
    .enabling_reads(&[head_up])
    .input_arc(workers_down, 1)
    .output_arc(workers_up, 1)
    .build()?;

    let model = b.build()?;
    Ok(BeowulfModel { model, head_up, workers_up, workers_down, config: *config })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, StoppingRule};

    fn fixed(replications: usize) -> StoppingRule {
        StoppingRule::fixed(replications).unwrap()
    }

    #[test]
    fn config_validation_names_the_offending_parameter() {
        assert!(BeowulfConfig::default().validate().is_ok());
        let c = BeowulfConfig { workers: 0, ..BeowulfConfig::default() };
        assert!(c.validate().is_err());
        let c = BeowulfConfig { repair_crews: 0, ..BeowulfConfig::default() };
        assert!(c.validate().is_err());
        let c = BeowulfConfig { worker_mtbf_hours: 0.0, ..BeowulfConfig::default() };
        let err = c.validate().unwrap_err();
        assert!(err.to_string().contains("worker_mtbf_hours"), "{err}");
        let c = BeowulfConfig { head_repair_hours: f64::NAN, ..BeowulfConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn model_structure_matches_the_config() {
        let config = BeowulfConfig { workers: 16, ..BeowulfConfig::default() };
        let bw = build_beowulf_model(&config).unwrap();
        assert_eq!(bw.model.num_activities(), 4);
        let marking = bw.model.initial_marking();
        assert_eq!(marking.tokens(bw.head_up), 1);
        assert_eq!(marking.tokens(bw.workers_up), 16);
        assert_eq!(marking.tokens(bw.workers_down), 0);
        assert!(bw.model.activity("worker_fail").is_some());
        assert!(bw.model.activity("head_repair").is_some());
    }

    #[test]
    fn performability_approaches_the_birth_death_steady_state() {
        // With an always-up head (huge MTBF) and one repair crew, the
        // worker population is an M/M/1-repair birth–death chain. For
        // λ = 1/1000, μ = 1/10 and N = 8 the utilisation is high enough
        // that E[workers up]/N lands near 1 − Nλ/μ·(1/N)… rather than
        // derive the closed form, pin against a tight numeric band
        // obtained from long-run simulation.
        let config = BeowulfConfig {
            workers: 8,
            head_mtbf_hours: 1e12,
            head_repair_hours: 1.0,
            worker_mtbf_hours: 1000.0,
            worker_repair_hours: 10.0,
            repair_crews: 8,
        };
        let bw = build_beowulf_model(&config).unwrap();
        let mut experiment = Experiment::new(bw.model.clone(), 200_000.0);
        for reward in bw.rewards() {
            experiment.add_reward(reward);
        }
        let summary = experiment.run(&fixed(16), 7).unwrap();
        // With as many crews as workers each node is an independent
        // two-state unit: availability 1000/1010.
        let expected = 1000.0 / 1010.0;
        let perf = summary.reward(PERFORMABILITY).unwrap().interval.point;
        assert!((perf - expected).abs() < 0.005, "performability {perf} vs {expected}");
        let head = summary.reward(HEAD_AVAILABILITY).unwrap().interval.point;
        assert!((head - 1.0).abs() < 1e-9);
        let mean_up = summary.reward(MEAN_WORKERS_UP).unwrap().interval.point;
        assert!((mean_up - 8.0 * expected).abs() < 0.05, "mean workers up {mean_up}");
    }

    #[test]
    fn head_downtime_suppresses_performability_below_worker_availability() {
        // A fragile head (10 % downtime) caps performability even with
        // perfect workers.
        let config = BeowulfConfig {
            workers: 4,
            head_mtbf_hours: 90.0,
            head_repair_hours: 10.0,
            worker_mtbf_hours: 1e12,
            worker_repair_hours: 1.0,
            repair_crews: 1,
        };
        let bw = build_beowulf_model(&config).unwrap();
        let mut experiment = Experiment::new(bw.model.clone(), 100_000.0);
        for reward in bw.rewards() {
            experiment.add_reward(reward);
        }
        let summary = experiment.run(&fixed(12), 3).unwrap();
        let perf = summary.reward(PERFORMABILITY).unwrap().interval.point;
        let head = summary.reward(HEAD_AVAILABILITY).unwrap().interval.point;
        assert!((head - 0.9).abs() < 0.02, "head availability {head}");
        assert!((perf - head).abs() < 0.02, "performability {perf} tracks head availability");
        let service = summary.reward(SERVICE_AVAILABILITY).unwrap().interval.point;
        assert!((service - head).abs() < 0.02);
    }

    #[test]
    fn fewer_repair_crews_degrade_performability() {
        let base = BeowulfConfig {
            workers: 32,
            head_mtbf_hours: 1e12,
            head_repair_hours: 1.0,
            worker_mtbf_hours: 200.0,
            worker_repair_hours: 20.0,
            repair_crews: 1,
        };
        let many = BeowulfConfig { repair_crews: 16, ..base };
        let run = |config: &BeowulfConfig| {
            let bw = build_beowulf_model(config).unwrap();
            let mut experiment = Experiment::new(bw.model.clone(), 50_000.0);
            for reward in bw.rewards() {
                experiment.add_reward(reward);
            }
            experiment.run(&fixed(8), 13).unwrap().reward(PERFORMABILITY).unwrap().interval.point
        };
        let one_crew = run(&base);
        let many_crews = run(&many);
        assert!(
            many_crews > one_crew + 0.05,
            "16 crews ({many_crews}) should clearly beat 1 crew ({one_crew})"
        );
    }

    /// The declared read sets must be sound. This used to be pinned by an
    /// 8-seed trace differential against the reference kernel; the linter
    /// now machine-checks the same property directly (and the linter
    /// itself is pinned against the kernels by the retained differential
    /// in `tests/engine_differential.rs`).
    #[test]
    fn declared_reads_lint_clean() {
        let config = BeowulfConfig {
            workers: 12,
            head_mtbf_hours: 500.0,
            head_repair_hours: 24.0,
            worker_mtbf_hours: 100.0,
            worker_repair_hours: 30.0,
            repair_crews: 2,
        };
        let bw = build_beowulf_model(&config).unwrap();
        let report = bw.model.lint_with(&crate::lint::LintConfig::default(), &bw.rewards());
        report.deny(crate::lint::Severity::Warning).unwrap_or_else(|e| panic!("{e}"));
        // The pair structure is certified, not just observed: both the
        // head and the worker pool carry a P-invariant.
        assert!(report.has_code(crate::lint::codes::PLACE_INVARIANT));
    }
}
