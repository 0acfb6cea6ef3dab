//! Ablations of the design choices the paper's Section 5 argues at
//! petascale: RAID parity width, disk replacement time, a standby spare
//! OSS, and the correlated-failure probability.

use probdist::stats::ConfidenceInterval;
use raidsim::scaling::{config_from_plan, plan_for_capacity};
use raidsim::{DiskModel, RaidGeometry, StorageConfig, StorageSummary};

use super::{run_storage, Scenario, ScenarioOutput};
use crate::analysis::evaluate;
use crate::config::ClusterConfig;
use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// An ablation's output as its configurations are evaluated: per
/// configuration, one table row plus an availability metric and a
/// secondary metric, and the largest replication count any used. The
/// cluster-side ablations mark `output` truncated when any of their
/// evaluations was.
struct Ablation {
    output: ScenarioOutput,
    table: TextTable,
    replications: usize,
}

impl Ablation {
    fn new(name: &str, title: &str) -> Self {
        Ablation {
            output: ScenarioOutput::new(name),
            table: TextTable::new(
                format!("Ablation: {title}"),
                &["Configuration", "Availability", "Secondary measure"],
            ),
            replications: 0,
        }
    }

    /// Records one configuration: the availability the ablation tracks
    /// (storage availability for storage-side ablations, CFS availability
    /// for cluster-side ones) and a labelled secondary measure.
    fn with_point(
        mut self,
        label: &str,
        availability: &ConfidenceInterval,
        (measure, value): (&str, f64),
        replications: usize,
    ) -> Self {
        let secondary = format!("{measure} = {value:.4}");
        self.table.add_row(&[label.to_string(), fmt_ci(availability, 5), secondary]);
        self.output = self
            .output
            .with_metric_ci(format!("availability {label}"), availability)
            .with_metric(format!("{measure} {label}"), value);
        self.replications = self.replications.max(replications);
        self
    }

    fn finish(self) -> ScenarioOutput {
        self.output.with_table(self.table).with_replications_used(self.replications)
    }
}

/// Runs the storage-side ablations' configuration at the spec's base seed:
/// pessimistic disks (Weibull 0.6, AFR 8.76 %) at 12 PB.
fn pessimistic_petascale_storage(
    geometry: RaidGeometry,
    replacement_hours: f64,
    spec: &RunSpec,
) -> Result<StorageSummary, CfsError> {
    let disk = DiskModel { weibull_shape: 0.6, mtbf_hours: 100_000.0, capacity_gb: 250.0 };
    let template =
        StorageConfig { geometry, disk, replacement_hours, ..StorageConfig::abe_scratch() };
    let plan = plan_for_capacity(12_288.0, disk.capacity_gb, geometry)?;
    run_storage(config_from_plan(&plan, &template)?, spec, spec.base_seed())
}

/// Ablation: RAID parity width (8+1 / 8+2 / 8+3) at petascale with
/// pessimistic disks — the Blue Waters design argument.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaidParityAblation;

impl Scenario for RaidParityAblation {
    fn name(&self) -> &str {
        "ablation_raid_parity"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let mut ablation =
            Ablation::new(self.name(), "RAID parity width at petascale (0.6, 8.76% AFR)");
        for geometry in
            [RaidGeometry::raid5_8p1(), RaidGeometry::raid6_8p2(), RaidGeometry::raid_8p3()]
        {
            let summary = pessimistic_petascale_storage(geometry, 4.0, spec)?;
            ablation = ablation.with_point(
                &geometry.label(),
                &summary.availability,
                ("data-loss events", summary.data_loss_events.point),
                summary.replications,
            );
        }
        Ok(ablation.finish())
    }
}

/// Ablation: disk replacement time (1 h / 4 h / 12 h) at petascale with
/// pessimistic disks — the Table 5 "average time to replace disks" sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairTimeAblation;

impl Scenario for RepairTimeAblation {
    fn name(&self) -> &str {
        "ablation_repair_time"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let mut ablation =
            Ablation::new(self.name(), "Disk replacement time at petascale (8+2, 0.6, 8.76% AFR)");
        for hours in [1.0, 4.0, 12.0] {
            let summary = pessimistic_petascale_storage(RaidGeometry::raid6_8p2(), hours, spec)?;
            ablation = ablation.with_point(
                &format!("replacement = {hours} h"),
                &summary.availability,
                ("data-loss events", summary.data_loss_events.point),
                summary.replications,
            );
        }
        Ok(ablation.finish())
    }
}

/// Ablation: standby spare OSS on/off at petascale (the Section 5.2
/// mitigation).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpareOssAblation;

impl Scenario for SpareOssAblation {
    fn name(&self) -> &str {
        "ablation_spare_oss"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let mut ablation = Ablation::new(self.name(), "Standby spare OSS at petascale");
        let base = ClusterConfig::petascale();
        for config in [base.clone(), base.with_spare_oss()] {
            let result = evaluate(&config, spec)?;
            ablation.output.truncated |= result.truncated;
            ablation = ablation.with_point(
                &config.name,
                &result.cfs_availability,
                ("cluster utility", result.cluster_utility.point),
                result.replications,
            );
        }
        Ok(ablation.finish())
    }
}

/// Ablation: correlated-failure propagation probability `p` (Section 4.3)
/// at petascale.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorrelationAblation;

impl Scenario for CorrelationAblation {
    fn name(&self) -> &str {
        "ablation_correlation"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let mut ablation =
            Ablation::new(self.name(), "Correlated-failure probability at petascale");
        for p in [0.0, 0.0075, 0.03] {
            let mut config = ClusterConfig::petascale();
            config.params.correlation_probability = p;
            config.name = format!("p = {p}");
            let result = evaluate(&config, spec)?;
            ablation.output.truncated |= result.truncated;
            ablation = ablation.with_point(
                &config.name,
                &result.cfs_availability,
                ("mean OSS pairs down", result.mean_oss_pairs_down.point),
                result.replications,
            );
        }
        Ok(ablation.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(replications: usize, seed: u64) -> RunSpec {
        RunSpec::new()
            .with_horizon_hours(4380.0)
            .with_replications(replications)
            .with_base_seed(seed)
    }

    /// The tracked availability of every configuration, in sweep order.
    fn availabilities(output: &ScenarioOutput) -> Vec<f64> {
        output
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("availability "))
            .map(|m| m.value)
            .collect()
    }

    #[test]
    fn raid_parity_ablation_orders_geometries() {
        let output = RaidParityAblation.evaluate(&spec(8, 3)).unwrap();
        assert_eq!(output.tables[0].len(), 3);
        let avail = availabilities(&output);
        assert_eq!(avail.len(), 3);
        // 8+1 <= 8+2 <= 8+3 (allowing tiny Monte-Carlo noise).
        assert!(avail[0] <= avail[1] + 1e-6);
        assert!(avail[1] <= avail[2] + 1e-6);
        assert!(output.tables[0].render().contains("8+3"));
    }

    #[test]
    fn repair_time_ablation_prefers_fast_replacement() {
        let avail = availabilities(&RepairTimeAblation.evaluate(&spec(8, 5)).unwrap());
        let (one_hour, twelve_hours) = (avail[0], avail[2]);
        assert!(one_hour >= twelve_hours - 1e-6);
    }

    #[test]
    fn correlation_ablation_shows_monotone_damage() {
        let avail = availabilities(&CorrelationAblation.evaluate(&spec(6, 7)).unwrap());
        let (none, high) = (avail[0], avail[2]);
        assert!(none > high, "correlation should reduce availability: {none} vs {high}");
    }

    #[test]
    fn spare_oss_ablation_reports_both_configurations() {
        let output = SpareOssAblation.evaluate(&spec(6, 9)).unwrap();
        assert_eq!(output.tables[0].len(), 2);
        let avail = availabilities(&output);
        assert_eq!(avail.len(), 2);
        assert!(avail[1] >= avail[0] - 0.01);
        assert!(output.tables[0].render().contains("spare"));
    }
}
