//! Tables 1–5: the log-analysis tables (from the synthetic ABE failure log)
//! and the model-parameter table.

use faultlog::analysis::{
    DiskReplacementAnalysis, JobAnalysis, MountFailureAnalysis, OutageAnalysis,
};
use faultlog::generator::{LogGenConfig, LogGenerator};
use faultlog::FailureLog;

use super::{Scenario, ScenarioOutput};
use crate::params::{ModelParameters, ParameterTable};
use crate::report::TextTable;
use crate::run::RunSpec;
use crate::CfsError;

/// Validates the spec, then generates the calibrated synthetic ABE failure
/// log Tables 1–4 analyse from its base seed.
fn abe_failure_log(spec: &RunSpec) -> Result<FailureLog, CfsError> {
    spec.validate()?;
    Ok(LogGenerator::new(LogGenConfig::abe_calibrated()).generate(spec.base_seed())?)
}

/// A two-column `Measure | Value` table.
fn measure_table<'a>(title: &str, rows: impl IntoIterator<Item = (&'a str, String)>) -> TextTable {
    let mut table = TextTable::new(title, &["Measure", "Value"]);
    for (measure, value) in rows {
        table.add_row(&[measure.to_string(), value]);
    }
    table
}

/// Table 1: user-visible Lustre-FS outages and the SAN availability they
/// imply.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table1Outages;

impl Scenario for Table1Outages {
    fn name(&self) -> &str {
        "table1_outages"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let analysis = OutageAnalysis::from_log(&abe_failure_log(spec)?)?;
        // SAN availability over the window (paper: 0.97–0.98).
        let availability = analysis.availability();
        let mut table = TextTable::new(
            "Table 1. User notification of outage of the Lustre-FS (synthetic log)",
            &["Cause of Failure", "Start time", "End time", "Hours"],
        );
        for row in analysis.rows() {
            table.add_row(&[
                row.cause.clone(),
                row.start.to_string(),
                row.end.to_string(),
                format!("{:.2}", row.hours),
            ]);
        }
        table.add_row(&[
            "SAN availability".into(),
            String::new(),
            String::new(),
            format!("{availability:.4}"),
        ]);
        Ok(ScenarioOutput::new(self.name())
            .with_table(table)
            .with_metric("san_availability", availability)
            .with_metric("outages", analysis.rows().len() as f64))
    }
}

/// Table 2: Lustre mount failures reported by compute nodes, per day.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table2MountFailures;

impl Scenario for Table2MountFailures {
    fn name(&self) -> &str {
        "table2_mount_failures"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let analysis = MountFailureAnalysis::from_log(&abe_failure_log(spec)?)?;
        let mut table = TextTable::new(
            "Table 2. Lustre mount failure notification by compute nodes (synthetic log)",
            &["Date", "Nodes reporting"],
        );
        for day in analysis.days() {
            table.add_row(&[day.date.to_string(), day.nodes.to_string()]);
        }
        Ok(ScenarioOutput::new(self.name())
            .with_table(table)
            .with_metric("storm_days", analysis.days().len() as f64)
            .with_metric("peak_day_nodes", analysis.peak_day_nodes() as f64))
    }
}

/// Table 3: job execution statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table3Jobs;

impl Scenario for Table3Jobs {
    fn name(&self) -> &str {
        "table3_jobs"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let jobs = JobAnalysis::from_log(&abe_failure_log(spec)?)?;
        let table = measure_table(
            "Table 3. Job execution statistics for the ABE cluster (synthetic log)",
            [
                ("Total jobs submitted", jobs.total_jobs.to_string()),
                ("Failures due to transient network errors", jobs.transient_failures.to_string()),
                ("Failures due to other/file system errors", jobs.other_failures.to_string()),
                (
                    "Transient : other failure ratio",
                    format!("{:.2}", jobs.transient_to_other_ratio()),
                ),
                ("Job submissions per hour", format!("{:.1}", jobs.jobs_per_hour())),
            ],
        );
        Ok(ScenarioOutput::new(self.name())
            .with_table(table)
            .with_metric("total_jobs", jobs.total_jobs as f64)
            .with_metric("transient_to_other_ratio", jobs.transient_to_other_ratio())
            .with_metric("jobs_per_hour", jobs.jobs_per_hour()))
    }
}

/// Table 4: disk failures and their Weibull survival analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table4DiskWeibull;

impl Scenario for Table4DiskWeibull {
    fn name(&self) -> &str {
        "table4_disk_weibull"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        let log = abe_failure_log(spec)?;
        let analysis =
            DiskReplacementAnalysis::from_log(&log, LogGenConfig::abe_calibrated().disks)?;
        // Paper: β ≈ 0.70, σ ≈ 0.19, and 0–2 replacements per week.
        let weibull = analysis.weibull_fit(&log)?;
        let mean_per_week = analysis.mean_per_week();
        let table = measure_table(
            "Table 4. Disk failure log and Weibull survival analysis (synthetic log)",
            [
                ("Total disk replacements", analysis.total_replacements().to_string()),
                ("Mean replacements per week", format!("{mean_per_week:.2}")),
                ("Weibull shape (beta)", format!("{:.3}", weibull.shape)),
                ("Shape standard error", format!("{:.3}", weibull.shape_std_error)),
                ("Observed failures", weibull.failures.to_string()),
                ("Censored observations", weibull.censored.to_string()),
            ],
        );
        Ok(ScenarioOutput::new(self.name())
            .with_table(table)
            .with_metric("weibull_shape", weibull.shape)
            .with_metric("weibull_shape_std_error", weibull.shape_std_error)
            .with_metric("mean_replacements_per_week", mean_per_week))
    }
}

/// Table 5: the simulation model parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Table5Parameters;

impl Scenario for Table5Parameters {
    fn name(&self) -> &str {
        "table5_parameters"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let mut table = TextTable::new(
            "Table 5. ABE cluster's simulation model parameters",
            &["Model parameter", "Values (range)", "ABE value", "Source"],
        );
        for row in ParameterTable::new(&ModelParameters::abe()).rows() {
            table.add_row(&[
                row.name.to_string(),
                row.range.to_string(),
                row.abe_value.clone(),
                row.source.label().to_string(),
            ]);
        }
        let parameters = table.len() as f64;
        Ok(ScenarioOutput::new(self.name()).with_table(table).with_metric("parameters", parameters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluate(scenario: &dyn Scenario, seed: u64) -> ScenarioOutput {
        scenario.evaluate(&RunSpec::new().with_base_seed(seed)).unwrap()
    }

    #[test]
    fn table1_availability_is_in_band_and_renders() {
        let output = evaluate(&Table1Outages, 1);
        let availability = output.metric("san_availability").unwrap();
        assert!(availability > 0.94 && availability < 1.0);
        let text = output.tables[0].render();
        assert!(text.contains("I/O hardware") || text.contains("File system"));
        assert!(text.contains("SAN availability"));
    }

    #[test]
    fn table2_has_storm_days() {
        let output = evaluate(&Table2MountFailures, 2);
        let days = output.metric("storm_days").unwrap();
        assert!(days > 0.0);
        assert!(output.tables[0].len() as f64 >= days);
    }

    #[test]
    fn table3_ratio_matches_paper_shape() {
        let output = evaluate(&Table3Jobs, 3);
        assert!(output.metric("total_jobs").unwrap() > 40_000.0);
        let ratio = output.metric("transient_to_other_ratio").unwrap();
        assert!(ratio > 3.0 && ratio < 12.0);
        assert!(output.tables[0].render().contains("Total jobs submitted"));
    }

    #[test]
    fn table4_recovers_infant_mortality() {
        let output = evaluate(&Table4DiskWeibull, 4);
        // Small sample (≈ a dozen failures): accept a generous band around
        // the paper's 0.696 +/- 0.19.
        let shape = output.metric("weibull_shape").unwrap();
        assert!(shape > 0.3 && shape < 1.3, "shape {shape}");
        let per_week = output.metric("mean_replacements_per_week").unwrap();
        assert!(per_week > 0.1 && per_week < 3.5);
        assert!(output.tables[0].render().contains("Weibull shape"));
    }

    #[test]
    fn table5_lists_all_parameters() {
        let output = evaluate(&Table5Parameters, 5);
        assert_eq!(output.tables[0].len(), 14);
        assert_eq!(output.metric("parameters"), Some(14.0));
        let text = output.tables[0].render();
        assert!(text.contains("Disk MTBF"));
        assert!(text.contains("OSS Units"));
    }
}
