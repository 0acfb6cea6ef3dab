//! Non-paper workload families built on [`crate::sweep::evaluate`]: the
//! cross-system design questions the ROADMAP calls the `Scenario` trait's
//! extension point.
//!
//! * [`ReplicationVsRaid`] — the GFS/HDFS/MinIO question (Dubeyko's
//!   comparative analysis of distributed file systems' internal
//!   techniques): at *equal usable capacity* and identical disk hardware,
//!   does `n+k` RAID reconstruction or `r`-way object replication with
//!   background re-replication deliver better storage dependability, and
//!   at what raw-capacity overhead?
//! * [`BeowulfPerformabilitySweep`] — the Kirsal & Ever question: how does
//!   the delivered fraction of a Beowulf cluster's nominal capacity
//!   (performability) scale with the worker count and the number of repair
//!   crews?
//! * [`UltraReliableSweep`] — the regime the plain Monte-Carlo sweeps
//!   cannot resolve: replication factors and RAID `n+k` widths whose
//!   data-loss probabilities live at 10⁻⁶..10⁻¹⁰, estimated by
//!   fixed-effort multilevel splitting over exposure depth
//!   (`raidsim::splitting`) under the spec's
//!   [`RareEventPolicy`].
//!
//! Each one's [`Scenario::evaluate`] builds a [`DesignSpace`] over the
//! interesting axes and sweeps it with a point evaluator that builds the
//! matching simulator, runs it under the spec's stopping rule (fixed count
//! or precision-targeted adaptive stopping, per point), and reports named
//! metrics for the winner selection.

use probdist::rare::naive_replications_for;
use probdist::stats::StoppingRule;
use raidsim::{
    DiskModel, Layout, RaidGeometry, ReplicationConfig, StorageConfig, StorageSimulator,
};
use sanet::beowulf::{
    build_beowulf_model, BeowulfConfig, HEAD_AVAILABILITY, MEAN_WORKERS_UP, PERFORMABILITY,
    SERVICE_AVAILABILITY,
};
use sanet::Experiment;

use crate::run::{RareEventPolicy, RunSpec};
use crate::scenario::{run_storage, Scenario, ScenarioOutput};
use crate::sweep::{self, DesignPoint, DesignSpace, Objective, PointOutcome};
use crate::CfsError;

/// One redundancy scheme of the [`ReplicationVsRaid`] comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RedundancyScheme {
    /// `n+k` RAID tiers with single-spindle reconstruction.
    Raid(RaidGeometry),
    /// `r`-way object replication with background re-replication.
    Replication {
        /// Copies kept of every object.
        replicas: u32,
    },
}

impl RedundancyScheme {
    /// Short label used in tables, e.g. `"raid 8+2"` or `"3-way repl"`.
    pub fn label(&self) -> String {
        match self {
            RedundancyScheme::Raid(geometry) => format!("raid {}", geometry.label()),
            RedundancyScheme::Replication { replicas } => format!("{replicas}-way repl"),
        }
    }

    /// Raw bytes stored per usable byte.
    pub fn storage_overhead(&self) -> f64 {
        match self {
            RedundancyScheme::Raid(g) => g.disks_per_tier() as f64 / g.data_disks as f64,
            RedundancyScheme::Replication { replicas } => *replicas as f64,
        }
    }

    /// The scheme provisioned to `usable_tb` terabytes of usable capacity
    /// on `disk`. RAID gets one logical DDN enclosure of
    /// `⌈usable / (data disks · capacity)⌉` tiers, replication
    /// [`ReplicationConfig::for_usable_capacity`]; both assume 4 h to swap
    /// a drive and 24 h to restore lost data.
    pub fn layout(&self, usable_tb: f64, disk: DiskModel) -> Layout {
        match *self {
            RedundancyScheme::Raid(geometry) => {
                let tier_usable_tb = geometry.data_disks as f64 * disk.capacity_gb / 1000.0;
                let tiers = (usable_tb / tier_usable_tb).ceil().max(1.0) as u32;
                Layout::Raid(StorageConfig {
                    ddn_units: 1,
                    tiers,
                    geometry,
                    disk,
                    replacement_hours: 4.0,
                    rebuild_hours: 6.0,
                    data_loss_recovery_hours: 24.0,
                    controllers: None,
                })
            }
            RedundancyScheme::Replication { replicas } => Layout::Replicated(
                ReplicationConfig::for_usable_capacity(usable_tb, replicas, disk),
            ),
        }
    }
}

/// Sweeps `schemes × axis` at `usable_capacity_tb`, minimising
/// `objective_metric`, and names the winning scheme's storage overhead: the
/// frame both redundancy-scheme sweeps share.
fn sweep_schemes(
    name: &str,
    schemes: &[RedundancyScheme],
    usable_capacity_tb: f64,
    (axis, values): (&str, &[f64]),
    objective_metric: &str,
    spec: &RunSpec,
    evaluate_point: impl Fn(&DesignPoint, &RunSpec) -> Result<PointOutcome, CfsError>,
) -> Result<ScenarioOutput, CfsError> {
    if !(usable_capacity_tb.is_finite() && usable_capacity_tb > 0.0) {
        return Err(CfsError::InvalidConfig {
            reason: format!(
                "sweep '{name}': usable capacity must be positive, got {usable_capacity_tb} TB"
            ),
        });
    }
    let scheme_axis: Vec<f64> = (0..schemes.len()).map(|i| i as f64).collect();
    let space = DesignSpace::new().with_axis("scheme", scheme_axis).with_axis(axis, values);
    let mut output =
        sweep::evaluate(name, &space, objective_metric, Objective::Minimize, spec, evaluate_point)?;
    if let Some(index) = output.metric("winner_scheme") {
        output = output
            .with_metric("winner_storage_overhead", schemes[index as usize].storage_overhead());
    }
    Ok(output)
}

/// Replication-vs-RAID design-space sweep: every redundancy scheme is
/// provisioned to the same usable capacity with the same disk model, then
/// simulated under the study's [`RunSpec`] (with per-point adaptive
/// stopping when the spec carries a precision target).
///
/// Axes of the underlying [`DesignSpace`]:
///
/// * `scheme` — index into [`ReplicationVsRaid::schemes`] (categorical
///   choices are encoded as axis indices; the table rows carry the
///   human-readable label).
/// * `afr_percent` — disk annualised failure rate, percent per year
///   (sweeps the hardware-quality dimension; the ABE disk is 2.92 %).
///
/// Reported per point: storage availability and replacements/week (with
/// confidence half-widths), the probability of any data loss over the
/// mission, expected data-loss events, the raw disk count, and the
/// raw-per-usable storage overhead. The winner minimises
/// `prob_any_data_loss` — the durability question these systems are
/// actually provisioned for; availability stays in the table for the
/// trade-off reading.
#[derive(Debug, Clone)]
pub struct ReplicationVsRaid {
    /// Usable capacity every scheme must provide, terabytes.
    pub usable_capacity_tb: f64,
    /// The candidate redundancy schemes.
    pub schemes: Vec<RedundancyScheme>,
    /// Disk AFR sweep, percent per year.
    pub afr_percents: Vec<f64>,
}

impl Default for ReplicationVsRaid {
    /// The ABE-scale comparison: 96 TB usable; RAID (8+1)/(8+2)/(8+3)
    /// against 2- and 3-way replication; ABE's 2.92 % AFR plus a
    /// pessimistic 8.76 % disk.
    fn default() -> Self {
        ReplicationVsRaid {
            usable_capacity_tb: 96.0,
            schemes: vec![
                RedundancyScheme::Raid(RaidGeometry::raid5_8p1()),
                RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
                RedundancyScheme::Raid(RaidGeometry::raid_8p3()),
                RedundancyScheme::Replication { replicas: 2 },
                RedundancyScheme::Replication { replicas: 3 },
            ],
            afr_percents: vec![2.92, 8.76],
        }
    }
}

impl ReplicationVsRaid {
    fn evaluate_point(
        &self,
        point: &DesignPoint,
        spec: &RunSpec,
    ) -> Result<PointOutcome, CfsError> {
        let scheme_index = point.value("scheme").expect("scheme axis always present") as usize;
        let scheme = self.schemes[scheme_index];
        let afr = point.value("afr_percent").expect("afr axis always present");
        let disk = DiskModel::with_afr(afr, DiskModel::abe_sata_250gb().weibull_shape)?;

        let layout = scheme.layout(self.usable_capacity_tb, disk);
        let raw_disks = layout.total_disks();
        let summary = run_storage(layout, spec, spec.base_seed())?;

        Ok(PointOutcome::new()
            .with_label(format!("{} @{afr}% AFR", scheme.label()))
            .with_metric("prob_any_data_loss", summary.prob_any_data_loss)
            .with_metric_ci("availability", &summary.availability)
            .with_metric_ci("replacements_per_week", &summary.replacements_per_week)
            .with_metric_ci("data_loss_events", &summary.data_loss_events)
            .with_metric("raw_disks", raw_disks as f64)
            .with_metric("storage_overhead", scheme.storage_overhead())
            .with_replications_used(summary.replications))
    }
}

impl Scenario for ReplicationVsRaid {
    fn name(&self) -> &str {
        "replication_vs_raid"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        sweep_schemes(
            self.name(),
            &self.schemes,
            self.usable_capacity_tb,
            ("afr_percent", &self.afr_percents),
            "prob_any_data_loss",
            spec,
            |point, spec| self.evaluate_point(point, spec),
        )
    }
}

/// Beowulf performability design-space sweep (Kirsal & Ever): the composed
/// head-plus-workers SAN of [`sanet::beowulf`] evaluated over a grid of
/// worker counts and repair-crew counts.
///
/// Axes of the underlying [`DesignSpace`]:
///
/// * `workers` — worker-node count `N` (nodes).
/// * `repair_crews` — simultaneous worker repairs (crews).
///
/// Reported per point: performability (delivered fraction of nominal
/// capacity, in `[0, 1]`), service availability (head up and ≥ 1 worker
/// up), head availability, and the time-averaged operational worker count
/// — each with confidence half-widths. The winner maximises
/// performability; since nominal capacity scales with `N`, the sweep reads
/// as "how many repair crews does each scale need to stay near 1.0".
#[derive(Debug, Clone)]
pub struct BeowulfPerformabilitySweep {
    /// Worker-count axis (nodes).
    pub worker_counts: Vec<u32>,
    /// Repair-crew axis (crews).
    pub repair_crews: Vec<u32>,
    /// Per-node and head-node reliability parameters; the `workers` and
    /// `repair_crews` fields of this base are overridden per point.
    pub base: BeowulfConfig,
}

impl Default for BeowulfPerformabilitySweep {
    /// 32–256 workers under 1 or 4 repair crews, with harsher-than-default
    /// node reliability (1 000-hour worker MTBF) so the repair queue
    /// actually bites at scale.
    fn default() -> Self {
        BeowulfPerformabilitySweep {
            worker_counts: vec![32, 64, 128, 256],
            repair_crews: vec![1, 4],
            base: BeowulfConfig {
                worker_mtbf_hours: 1_000.0,
                worker_repair_hours: 12.0,
                ..BeowulfConfig::default()
            },
        }
    }
}

impl BeowulfPerformabilitySweep {
    fn evaluate_point(
        &self,
        point: &DesignPoint,
        spec: &RunSpec,
    ) -> Result<PointOutcome, CfsError> {
        let config = BeowulfConfig {
            workers: point.value("workers").expect("workers axis always present") as u32,
            repair_crews: point.value("repair_crews").expect("crews axis always present") as u32,
            ..self.base
        };
        let beowulf = build_beowulf_model(&config)?;
        let mut experiment = Experiment::new(beowulf.model.clone(), spec.horizon_hours());
        experiment.set_confidence_level(spec.confidence_level());
        experiment.set_workers(spec.workers());
        for reward in beowulf.rewards() {
            experiment.add_reward(reward);
        }
        let summary = experiment.run(&spec.stopping_rule()?, spec.base_seed())?;
        let mut outcome = PointOutcome::new();
        for name in [PERFORMABILITY, SERVICE_AVAILABILITY, HEAD_AVAILABILITY, MEAN_WORKERS_UP] {
            outcome = outcome.with_metric_ci(name, &summary.reward(name)?.interval);
        }
        Ok(outcome.with_replications_used(summary.replications))
    }
}

impl Scenario for BeowulfPerformabilitySweep {
    fn name(&self) -> &str {
        "beowulf_performability"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let axis = |counts: &[u32]| counts.iter().map(|&n| n as f64).collect::<Vec<_>>();
        let space = DesignSpace::new()
            .with_axis("workers", axis(&self.worker_counts))
            .with_axis("repair_crews", axis(&self.repair_crews));
        sweep::evaluate(
            self.name(),
            &space,
            PERFORMABILITY,
            Objective::Maximize,
            spec,
            |point, spec| self.evaluate_point(point, spec),
        )
    }
}

/// Default splitting effort when the spec carries no
/// [`RareEventPolicy::MultilevelSplitting`] and no precision target.
const DEFAULT_TRIALS_PER_LEVEL: usize = 256;

/// Ultra-reliable design-space sweep: replication factors and RAID `n+k`
/// widths provisioned to equal usable capacity on identical disks, with
/// the data-loss probability estimated by **fixed-effort multilevel
/// splitting** over exposure depth — the estimator that resolves the
/// 10⁻⁶..10⁻¹⁰ regime where the plain [`ReplicationVsRaid`] Monte-Carlo
/// sweep reports only zeros.
///
/// Axes of the underlying [`DesignSpace`]:
///
/// * `scheme` — index into [`UltraReliableSweep::schemes`].
/// * `mtbf_khours` — disk MTBF in thousands of hours (the hardware-quality
///   dimension of the ultra-reliable regime).
///
/// Reported per point: the estimated loss probability with its splitting
/// confidence half-width, the 95 % upper bound `loss_probability_upper`
/// (point + half-width; for a point whose deepest level recorded zero
/// hits, the rule-of-three bound through the resolved stages), the
/// achieved relative error, the naive-equivalent effective sample size,
/// the measured variance-reduction factor, the projected naive
/// replication count for the same precision, the final-level hit count,
/// the splitting trials spent, and the scheme's raw-capacity overhead.
///
/// The winner minimises `loss_probability_upper` — the honest objective
/// in this regime: a design whose loss was *not observed* competes on its
/// proven bound, never on a vacuous zero, and an unresolved point
/// (infinite relative error, rendered as an empty `relative_error` cell,
/// `hits = 0`) stays distinguishable from a resolved low one. Raise the
/// splitting effort to tighten the bounds of the candidates you care
/// about.
///
/// The replication policy comes from the spec: a
/// [`precision target`](RunSpec::with_precision_target) drives the
/// adaptive splitting loop (the target's min/max bound the *per-level*
/// trial count); otherwise
/// [`RareEventPolicy::MultilevelSplitting`] fixes the per-level effort,
/// with a default of 256 trials.
#[derive(Debug, Clone)]
pub struct UltraReliableSweep {
    /// Usable capacity every scheme must provide, terabytes.
    pub usable_capacity_tb: f64,
    /// The candidate redundancy schemes.
    pub schemes: Vec<RedundancyScheme>,
    /// Disk MTBF axis, thousands of hours.
    pub mtbf_khours: Vec<f64>,
}

impl Default for UltraReliableSweep {
    /// A 24 TB comparison of (8+2)/(8+3) RAID against 2- and 3-way
    /// replication on 300k-hour and 1M-hour disks — loss probabilities
    /// from ~10⁻⁴ down past 10⁻⁸.
    fn default() -> Self {
        UltraReliableSweep {
            usable_capacity_tb: 24.0,
            schemes: vec![
                RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
                RedundancyScheme::Raid(RaidGeometry::raid_8p3()),
                RedundancyScheme::Replication { replicas: 2 },
                RedundancyScheme::Replication { replicas: 3 },
            ],
            mtbf_khours: vec![300.0, 1_000.0],
        }
    }
}

/// The splitting stopping rule under the spec: the precision target's
/// adaptive rule when one is set, otherwise a fixed effort of the per-level
/// trial count from the spec's [`RareEventPolicy`] or the default.
fn splitting_rule(spec: &RunSpec) -> Result<StoppingRule, CfsError> {
    if spec.precision_target().is_some() {
        return spec.stopping_rule();
    }
    let trials = match spec.rare_event() {
        Some(RareEventPolicy::MultilevelSplitting { trials_per_level }) => *trials_per_level,
        None => DEFAULT_TRIALS_PER_LEVEL,
    };
    Ok(StoppingRule::fixed(trials)?)
}

impl UltraReliableSweep {
    fn evaluate_point(
        &self,
        point: &DesignPoint,
        spec: &RunSpec,
    ) -> Result<PointOutcome, CfsError> {
        let scheme_index = point.value("scheme").expect("scheme axis always present") as usize;
        let scheme = self.schemes[scheme_index];
        let mtbf_hours = point.value("mtbf_khours").expect("mtbf axis always present") * 1000.0;
        let disk = DiskModel {
            mtbf_hours,
            weibull_shape: DiskModel::abe_sata_250gb().weibull_shape,
            capacity_gb: DiskModel::abe_sata_250gb().capacity_gb,
        };

        let rule = splitting_rule(spec)?;
        let (horizon, seed) = (spec.horizon_hours(), spec.base_seed());
        let (level, workers) = (spec.confidence_level(), spec.workers());
        // The same equal-capacity provisioning as the Monte-Carlo sweep, so
        // the two sweeps describe the same hardware.
        let layout = scheme.layout(self.usable_capacity_tb, disk);
        let raw_disks = layout.total_disks();
        let result = StorageSimulator::new(layout)?
            .splitting_loss_probability(horizon, &rule, seed, level, workers)?;
        let estimate = &result.estimate;
        let mut outcome = PointOutcome::new()
            .with_label(format!("{} @{mtbf_hours:.0}h MTBF", scheme.label()))
            .with_metric_ci("loss_probability", &estimate.interval)
            .with_metric("loss_probability_upper", estimate.interval.upper())
            .with_metric("effective_sample_size", estimate.effective_sample_size)
            .with_metric("variance_reduction_factor", estimate.variance_reduction_factor)
            .with_metric("hits", estimate.hits as f64)
            .with_metric("raw_disks", raw_disks as f64)
            .with_metric("storage_overhead", scheme.storage_overhead())
            .with_replications_used(estimate.replications);
        // Infinite values would poison the JSON report, so the precision
        // metrics are emitted only for resolved points (the table renders
        // an empty cell for unresolved ones).
        if estimate.relative_error().is_finite() {
            outcome = outcome.with_metric("relative_error", estimate.relative_error());
        }
        let p = estimate.interval.point;
        if p > 0.0 && p < 1.0 && estimate.relative_error().is_finite() {
            let naive = naive_replications_for(
                p,
                estimate.relative_error().max(1e-6),
                spec.confidence_level(),
            )
            .map_err(|e| CfsError::InvalidConfig {
                reason: format!("naive replication projection: {e}"),
            })?;
            outcome = outcome.with_metric("naive_replications_projected", naive);
        }
        Ok(outcome)
    }
}

impl Scenario for UltraReliableSweep {
    fn name(&self) -> &str {
        "ultra_reliable_sweep"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        sweep_schemes(
            self.name(),
            &self.schemes,
            self.usable_capacity_tb,
            ("mtbf_khours", &self.mtbf_khours),
            "loss_probability_upper",
            spec,
            |point, spec| self.evaluate_point(point, spec),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::Study;

    fn quick_spec() -> RunSpec {
        RunSpec::new().with_horizon_hours(2000.0).with_replications(4).with_base_seed(7)
    }

    #[test]
    fn scheme_labels_and_overheads() {
        assert_eq!(RedundancyScheme::Raid(RaidGeometry::raid6_8p2()).label(), "raid 8+2");
        assert_eq!(RedundancyScheme::Replication { replicas: 3 }.label(), "3-way repl");
        assert!(
            (RedundancyScheme::Raid(RaidGeometry::raid6_8p2()).storage_overhead() - 1.25).abs()
                < 1e-12
        );
        assert_eq!(RedundancyScheme::Replication { replicas: 2 }.storage_overhead(), 2.0);
    }

    #[test]
    fn replication_vs_raid_reports_every_scheme_at_equal_capacity() {
        let sweep = ReplicationVsRaid {
            usable_capacity_tb: 24.0,
            schemes: vec![
                RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
                RedundancyScheme::Replication { replicas: 2 },
            ],
            afr_percents: vec![2.92],
        };
        let output = sweep.evaluate(&quick_spec()).unwrap();
        assert_eq!(output.scenario, "replication_vs_raid");
        assert_eq!(output.tables.len(), 1);
        assert_eq!(output.tables[0].len(), 2, "one row per design point");
        // Equal usable capacity: RAID 8+2 needs 24 TB / 2 TB-per-tier = 12
        // tiers × 10 disks; 2-way replication needs 24·2 TB / 250 GB.
        let rows = output.tables[0].rows();
        assert!(rows[0].iter().any(|c| c == "120.000000"), "raid raw disks: {rows:?}");
        assert!(rows[1].iter().any(|c| c == "192.000000"), "replication raw disks: {rows:?}");
        assert!(output.metric("winner_index").is_some());
        assert!(output.metric("winner_prob_any_data_loss").is_some());
        assert!(output.metric("winner_storage_overhead").is_some());
        assert!(output.replications_used.is_some());
    }

    #[test]
    fn replication_vs_raid_validates_its_configuration() {
        let mut sweep = ReplicationVsRaid::default();
        sweep.schemes.clear();
        assert!(sweep.evaluate(&quick_spec()).is_err());

        let sweep = ReplicationVsRaid { usable_capacity_tb: 0.0, ..ReplicationVsRaid::default() };
        assert!(sweep.evaluate(&quick_spec()).is_err());

        let mut sweep = ReplicationVsRaid::default();
        sweep.afr_percents.clear();
        assert!(sweep.evaluate(&quick_spec()).is_err());
    }

    #[test]
    fn beowulf_sweep_prefers_more_repair_crews() {
        let sweep = BeowulfPerformabilitySweep {
            worker_counts: vec![64],
            repair_crews: vec![1, 8],
            base: BeowulfConfig {
                worker_mtbf_hours: 200.0,
                worker_repair_hours: 24.0,
                ..BeowulfConfig::default()
            },
        };
        let output = sweep.evaluate(&quick_spec().with_horizon_hours(20_000.0)).unwrap();
        assert_eq!(output.scenario, "beowulf_performability");
        // With a 24-hour repair monopolising one crew, 8 crews must win.
        assert_eq!(output.metric("winner_repair_crews"), Some(8.0));
        let perf = output.metric("winner_performability").unwrap();
        assert!(perf > 0.0 && perf <= 1.0, "performability {perf}");
        assert_eq!(output.tables[0].len(), 2);
    }

    #[test]
    fn beowulf_sweep_validates_its_configuration() {
        let mut sweep = BeowulfPerformabilitySweep::default();
        sweep.worker_counts.clear();
        assert!(sweep.evaluate(&quick_spec()).is_err());

        let sweep = BeowulfPerformabilitySweep {
            repair_crews: vec![0],
            ..BeowulfPerformabilitySweep::default()
        };
        assert!(sweep.evaluate(&quick_spec()).is_err(), "zero crews must be rejected");
    }

    fn tiny_ultra_sweep() -> UltraReliableSweep {
        UltraReliableSweep {
            usable_capacity_tb: 1.0,
            schemes: vec![
                RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
                RedundancyScheme::Replication { replicas: 2 },
            ],
            mtbf_khours: vec![5.0],
        }
    }

    #[test]
    fn ultra_reliable_sweep_reports_rare_event_statistics() {
        let sweep = tiny_ultra_sweep();
        let spec = quick_spec()
            .with_horizon_hours(8760.0)
            .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 400 });
        let output = sweep.evaluate(&spec).unwrap();
        assert_eq!(output.scenario, "ultra_reliable_sweep");
        assert_eq!(output.tables[0].len(), 2, "one row per design point");
        // Every rare-event statistic the report promises is present.
        assert!(output.metric("winner_index").is_some());
        assert!(output.metric("winner_loss_probability_upper").is_some());
        assert!(output.metric("winner_storage_overhead").is_some());
        let headers = output.tables[0].headers().join(",");
        for column in [
            "loss_probability",
            "relative_error",
            "effective_sample_size",
            "variance_reduction_factor",
            "hits",
        ] {
            assert!(headers.contains(column), "missing column {column}: {headers}");
        }
        assert!(output.replications_used.is_some());
        // Unreliable 20k-hour disks at a one-year horizon: both schemes
        // resolve a non-zero loss probability at this effort.
        let winner = output.metric("winner_loss_probability_upper").unwrap();
        assert!(winner.is_finite() && winner >= 0.0);
    }

    #[test]
    fn ultra_reliable_sweep_honours_precision_targets() {
        let sweep = UltraReliableSweep {
            schemes: vec![RedundancyScheme::Replication { replicas: 2 }],
            ..tiny_ultra_sweep()
        };
        let spec = quick_spec().with_horizon_hours(8760.0).with_precision_target(0.5, 100, 800);
        let output = sweep.evaluate(&spec).unwrap();
        let used = output.replications_used.unwrap();
        assert!(used >= 100, "adaptive splitting must spend at least the minimum, used {used}");
    }

    #[test]
    fn ultra_reliable_sweep_validates_its_configuration() {
        let mut sweep = tiny_ultra_sweep();
        sweep.schemes.clear();
        assert!(sweep.evaluate(&quick_spec()).is_err());

        let sweep = UltraReliableSweep { usable_capacity_tb: 0.0, ..tiny_ultra_sweep() };
        assert!(sweep.evaluate(&quick_spec()).is_err());

        let mut sweep = tiny_ultra_sweep();
        sweep.mtbf_khours.clear();
        assert!(sweep.evaluate(&quick_spec()).is_err());

        // An invalid rare-event policy is rejected by spec validation.
        let bad = quick_spec()
            .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 1 });
        assert!(tiny_ultra_sweep().evaluate(&bad).is_err());
    }

    #[test]
    fn both_workloads_run_under_a_study_with_adaptive_stopping() {
        let spec = quick_spec().with_precision_target(0.5, 4, 16).with_workers(2);
        let report = Study::new()
            .with(ReplicationVsRaid {
                usable_capacity_tb: 12.0,
                schemes: vec![
                    RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
                    RedundancyScheme::Replication { replicas: 3 },
                ],
                afr_percents: vec![2.92],
            })
            .with(BeowulfPerformabilitySweep {
                worker_counts: vec![16, 32],
                repair_crews: vec![1],
                base: BeowulfConfig::default(),
            })
            .run(&spec)
            .unwrap();
        assert_eq!(report.outputs.len(), 2);
        for output in &report.outputs {
            let used = output.replications_used.expect("Monte-Carlo sweeps record replications");
            assert!((4..=16).contains(&(used as usize)), "{}: used {used}", output.scenario);
        }
        // All three report formats render the sweep tables.
        let text = report.to_text();
        assert!(text.contains("replication_vs_raid"), "{text}");
        assert!(text.contains("beowulf_performability"), "{text}");
        assert!(report.to_csv().contains("winner_index"));
        assert!(report.to_json().contains("beowulf_performability"));
    }
}
