//! [`Scenario`]: the uniform evaluation interface every paper artefact —
//! Tables 1–5, Figures 2–4, the four ablations, and raw
//! [`ClusterConfig`] evaluation — implements.
//!
//! A scenario turns a [`RunSpec`] into a [`ScenarioOutput`]: one or more
//! presentation tables plus a flat list of named [`Metric`]s. That single
//! shape is what lets a [`crate::study::Study`] execute any mix of
//! workloads through one entry point and render them through one
//! [`crate::report::Report`] sink. Each paper artefact runs its points and
//! builds its table and metrics in its own `evaluate`:
//!
//! | Paper artefact | Scenario |
//! |---|---|
//! | Table 1 (outages / SAN availability) | [`Table1Outages`] |
//! | Table 2 (mount failures per day) | [`Table2MountFailures`] |
//! | Table 3 (job statistics) | [`Table3Jobs`] |
//! | Table 4 (disk failures, Weibull fit) | [`Table4DiskWeibull`] |
//! | Table 5 (model parameters) | [`Table5Parameters`] |
//! | Figure 2 (storage availability vs scale) | [`Figure2StorageAvailability`] |
//! | Figure 3 (disk replacements per week) | [`Figure3DiskReplacements`] |
//! | Figure 4 (CFS availability and CU vs scale) | [`Figure4CfsAvailability`] |
//! | Section 5 design choices at petascale | [`RaidParityAblation`], [`RepairTimeAblation`], [`SpareOssAblation`], [`CorrelationAblation`] |
//!
//! Monte-Carlo scenarios honour the spec's replication policy — a fixed
//! count, or precision-targeted batches when
//! [`RunSpec::with_precision_target`] is set — and record the largest
//! replication count any of their points used.

mod ablations;
mod fig2;
mod fig3;
mod fig4;
mod tables;

use serde::{Deserialize, Serialize};

use probdist::stats::ConfidenceInterval;
use raidsim::{Layout, StorageSimulator, StorageSummary};

use crate::analysis::evaluate;
use crate::config::ClusterConfig;
use crate::report::TextTable;
use crate::run::RunSpec;
use crate::CfsError;

pub use ablations::{
    CorrelationAblation, RaidParityAblation, RepairTimeAblation, SpareOssAblation,
};
pub use fig2::Figure2StorageAvailability;
pub use fig3::Figure3DiskReplacements;
pub use fig4::Figure4CfsAvailability;
pub use tables::{
    Table1Outages, Table2MountFailures, Table3Jobs, Table4DiskWeibull, Table5Parameters,
};

/// One named result value of a scenario, with an optional confidence
/// half-width for Monte-Carlo estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The metric's name, e.g. `"cfs_availability"`.
    pub name: String,
    /// The point estimate.
    pub value: f64,
    /// Confidence half-width, when the value is a replicated estimate.
    pub half_width: Option<f64>,
}

/// The uniform result of evaluating one scenario: presentation tables plus
/// machine-readable headline metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioOutput {
    /// Name of the scenario that produced this output.
    pub scenario: String,
    /// Rendered tables, mirroring the paper's presentation.
    pub tables: Vec<TextTable>,
    /// Headline metrics in a flat, machine-readable form.
    pub metrics: Vec<Metric>,
    /// Monte-Carlo replications actually executed (the maximum across the
    /// scenario's evaluation points), recorded so adaptive
    /// precision-targeted runs surface how much work the stopping rule
    /// spent. `None` for purely analytic scenarios.
    pub replications_used: Option<u64>,
    /// Whether a run deadline expired before the full replication budget
    /// was spent: the statistics are valid but cover only the contiguous
    /// prefix of replications that completed (see
    /// [`RunSpec::with_deadline`]).
    pub truncated: bool,
    /// Wall-clock seconds the scenario took to evaluate, attached by
    /// [`crate::study::Study::run`]. `None` for outputs built outside a
    /// study. Nondeterministic by nature — strip it with
    /// [`ScenarioOutput::without_wall_clock`] before comparing outputs of
    /// separate runs bit for bit.
    pub elapsed_seconds: Option<f64>,
}

impl ScenarioOutput {
    /// Creates an empty output for the named scenario.
    pub fn new(scenario: impl Into<String>) -> Self {
        ScenarioOutput {
            scenario: scenario.into(),
            tables: Vec::new(),
            metrics: Vec::new(),
            replications_used: None,
            truncated: false,
            elapsed_seconds: None,
        }
    }

    /// Records the number of replications actually executed.
    pub(crate) fn with_replications_used(mut self, replications: usize) -> Self {
        self.replications_used = Some(replications as u64);
        self
    }

    /// Marks whether a deadline truncated the scenario's replication
    /// budget.
    pub(crate) fn with_truncated(mut self, truncated: bool) -> Self {
        self.truncated = truncated;
        self
    }

    /// Records the wall-clock seconds the evaluation took.
    pub(crate) fn with_elapsed_seconds(mut self, seconds: f64) -> Self {
        self.elapsed_seconds = Some(seconds);
        self
    }

    /// Drops the wall-clock timing, leaving only the deterministic
    /// statistics — outputs of two runs with the same seed and count then
    /// compare equal even though their timings differ.
    pub fn without_wall_clock(mut self) -> Self {
        self.elapsed_seconds = None;
        self
    }

    /// Appends a presentation table.
    pub(crate) fn with_table(mut self, table: TextTable) -> Self {
        self.tables.push(table);
        self
    }

    /// Appends a point metric.
    pub(crate) fn with_metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push(Metric { name: name.into(), value, half_width: None });
        self
    }

    /// Appends a metric carrying a confidence interval.
    pub(crate) fn with_metric_ci(
        mut self,
        name: impl Into<String>,
        interval: &ConfidenceInterval,
    ) -> Self {
        self.metrics.push(Metric {
            name: name.into(),
            value: interval.point,
            half_width: Some(interval.half_width),
        });
        self
    }

    /// Looks up a metric's point value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// A named, uniformly-evaluable workload: the single interface through
/// which every paper artefact (and any new workload) is executed.
///
/// Implementations must be [`Send`] + [`Sync`] so a
/// [`crate::study::Study`] can evaluate scenarios from worker threads.
pub trait Scenario: Send + Sync {
    /// A stable, human-readable scenario name (used for report sections and
    /// result lookup).
    fn name(&self) -> &str;

    /// Evaluates the scenario under the given run spec.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] for an invalid spec or
    /// configuration and propagates simulation errors.
    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError>;
}

/// Raw cluster evaluation: any [`ClusterConfig`] is itself a scenario whose
/// output is its [`crate::analysis::ClusterDependability`] measures.
impl Scenario for ClusterConfig {
    fn name(&self) -> &str {
        &self.name
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let result = evaluate(self, spec)?;
        let mut table = TextTable::new(
            format!("Cluster dependability: {}", self.name),
            &["Measure", "Estimate", "±", "Level"],
        );
        for (label, interval) in [
            ("CFS availability", &result.cfs_availability),
            ("Storage availability", &result.storage_availability),
            ("Cluster utility (CU)", &result.cluster_utility),
            ("Disk replacements/week", &result.disk_replacements_per_week),
            ("Mean OSS pairs down", &result.mean_oss_pairs_down),
        ] {
            table.add_row(&[
                label.to_string(),
                format!("{:.5}", interval.point),
                format!("{:.5}", interval.half_width),
                format!("{:.0}%", interval.level * 100.0),
            ]);
        }
        Ok(ScenarioOutput::new(&self.name)
            .with_table(table)
            .with_replications_used(result.replications)
            .with_truncated(result.truncated)
            .with_metric_ci("cfs_availability", &result.cfs_availability)
            .with_metric_ci("storage_availability", &result.storage_availability)
            .with_metric_ci("cluster_utility", &result.cluster_utility)
            .with_metric_ci("disk_replacements_per_week", &result.disk_replacements_per_week)
            .with_metric_ci("mean_oss_pairs_down", &result.mean_oss_pairs_down))
    }
}

/// Runs one storage Monte-Carlo point under the spec's stopping rule (a
/// fixed count, or precision-targeted batches) at the given seed — the
/// spec-to-run mapping every storage-side scenario shares.
pub(crate) fn run_storage(
    layout: impl Into<Layout>,
    spec: &RunSpec,
    seed: u64,
) -> Result<StorageSummary, CfsError> {
    let simulator = StorageSimulator::new(layout)?;
    let rule = spec.stopping_rule()?;
    Ok(simulator.run(spec.horizon_hours(), &rule, seed, spec.confidence_level(), spec.workers())?)
}

/// The indices of a sweep's two endpoints, each once: the first point, and
/// the last unless it repeats the first one's value.
fn sweep_endpoints<T: PartialEq>(values: &[T]) -> Vec<usize> {
    match values {
        [] => Vec::new(),
        [first, .., last] if first != last => vec![0, values.len() - 1],
        _ => vec![0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> RunSpec {
        RunSpec::new().with_horizon_hours(2000.0).with_replications(4).with_base_seed(3)
    }

    #[test]
    fn cluster_config_is_a_scenario() {
        let abe = ClusterConfig::abe();
        assert_eq!(Scenario::name(&abe), "ABE");
        let output = Scenario::evaluate(&abe, &quick_spec()).unwrap();
        assert_eq!(output.scenario, "ABE");
        assert_eq!(output.tables.len(), 1);
        let availability = output.metric("cfs_availability").unwrap();
        assert!(availability > 0.8 && availability <= 1.0);
        assert!(output.metric("nonexistent").is_none());
        // CI-carrying metrics report their half-width.
        assert!(output.metrics.iter().any(|m| m.half_width.is_some()));
    }

    #[test]
    fn table_scenarios_produce_tables_and_metrics() {
        let spec = quick_spec();
        let scenarios: Vec<Box<dyn Scenario>> = vec![
            Box::new(Table1Outages),
            Box::new(Table2MountFailures),
            Box::new(Table3Jobs),
            Box::new(Table4DiskWeibull),
            Box::new(Table5Parameters),
        ];
        for scenario in &scenarios {
            let output = scenario.evaluate(&spec).unwrap();
            assert_eq!(output.scenario, scenario.name());
            assert!(!output.tables.is_empty(), "{}", scenario.name());
            assert!(!output.metrics.is_empty(), "{}", scenario.name());
        }
    }

    #[test]
    fn sweep_scenarios_honour_overrides() {
        let spec = quick_spec();
        let fig2 = Figure2StorageAvailability { capacities_tb: vec![96.0] };
        let output = fig2.evaluate(&spec).unwrap();
        // One availability metric and one data-loss metric per series.
        assert_eq!(output.metrics.len(), 10);
        assert!(output.metrics.iter().all(|m| m.name.contains("8+")));

        let fig3 = Figure3DiskReplacements { disk_counts: vec![480] };
        let output = fig3.evaluate(&spec).unwrap();
        assert_eq!(output.metrics.len(), 8);

        let fig4 = Figure4CfsAvailability { capacities_tb: vec![96.0] };
        let output = fig4.evaluate(&spec).unwrap();
        assert!(output.metric("cfs_availability_first").is_some());
    }

    #[test]
    fn scenario_outputs_serialise_to_json() {
        let output = Table5Parameters.evaluate(&quick_spec()).unwrap();
        let json = serde::to_json(&output);
        assert!(json.contains("\"scenario\":\"table5_parameters\""));
        assert!(json.contains("\"metrics\""));
        assert!(json.contains("\"tables\""));
    }

    #[test]
    fn invalid_specs_are_rejected_by_every_scenario() {
        let bad = RunSpec::new().with_replications(1);
        assert!(Table1Outages.evaluate(&bad).is_err());
        assert!(Figure2StorageAvailability::default().evaluate(&bad).is_err());
        assert!(RaidParityAblation.evaluate(&bad).is_err());
        assert!(Scenario::evaluate(&ClusterConfig::abe(), &bad).is_err());
    }
}
