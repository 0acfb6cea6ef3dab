//! Figure 3: average number of disks that must be replaced per week to
//! sustain availability, as the scratch partition grows from ABE's 480
//! disks to 4800 disks, for four disk AFRs (0.88 %, 2.92 %, 4.38 %,
//! 8.76 %) at Weibull shape 0.7.
//!
//! Each point is simulated on its own seed. The analytic column beside it
//! is the Weibull renewal expectation, which depends on the disk model and
//! the horizon but not on the disk count: one [`ReplacementCurve`] per AFR
//! is solved before the disk-count loop, so the figure pays four renewal
//! solves, not one per point.

use raidsim::replacement::ReplacementCurve;
use raidsim::scaling::{figure3_disk_counts, FIGURE3_AFRS};
use raidsim::{DiskModel, StorageConfig};

use super::{run_storage, sweep_endpoints, Scenario, ScenarioOutput};
use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// Figure 3: disk replacements per week versus scale. An empty
/// `disk_counts` runs the paper's 480 → 4800 sweep.
#[derive(Debug, Clone, Default)]
pub struct Figure3DiskReplacements {
    /// Disk-count sweep override.
    pub disk_counts: Vec<u32>,
}

impl Scenario for Figure3DiskReplacements {
    fn name(&self) -> &str {
        "figure3_disk_replacements"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let horizon_hours = spec.horizon_hours();
        let counts = if self.disk_counts.is_empty() {
            figure3_disk_counts()
        } else {
            self.disk_counts.clone()
        };
        if let Some(disks) = counts.iter().find(|&&disks| disks == 0 || disks % 10 != 0) {
            return Err(CfsError::InvalidConfig {
                reason: format!(
                    "disk count {disks} must be a positive multiple of the 10-disk tier size"
                ),
            });
        }

        // One curve per AFR: (simulated, analytic) replacements per week per
        // disk count, each point on its own seed, the analytic values all
        // read off one renewal solve.
        let mut curves = Vec::new();
        let mut replications = 0;
        for (series_idx, &afr) in FIGURE3_AFRS.iter().enumerate() {
            let disk = DiskModel::with_afr(afr, 0.7)?;
            let analytic = ReplacementCurve::new(&disk, horizon_hours)?;
            let mut curve = Vec::new();
            for (count_idx, &disks) in counts.iter().enumerate() {
                let storage = StorageConfig {
                    tiers: disks / 10,
                    ddn_units: 1,
                    disk,
                    ..StorageConfig::abe_scratch()
                };
                let seed = spec.base_seed().wrapping_add((series_idx * 100 + count_idx) as u64);
                let summary = run_storage(storage, spec, seed)?;
                replications = replications.max(summary.replications);
                curve.push((summary.replacements_per_week, analytic.per_week(disks)));
            }
            curves.push(curve);
        }

        let labels = FIGURE3_AFRS.map(|afr| format!("(0.7,{afr},8+2,4)"));
        let mut headers = vec!["Disks".to_string()];
        for label in &labels {
            headers.push(format!("{label} sim"));
            headers.push(format!("{label} analytic"));
        }
        let mut table = TextTable::new(
            "Figure 3. Average number of disks that need to be replaced per week",
            &headers,
        );
        for (i, disks) in counts.iter().enumerate() {
            let mut row = vec![disks.to_string()];
            for (simulated, analytic) in curves.iter().map(|curve| &curve[i]) {
                row.push(fmt_ci(simulated, 2));
                row.push(format!("{analytic:.2}"));
            }
            table.add_row(&row);
        }

        let mut output =
            ScenarioOutput::new(self.name()).with_table(table).with_replications_used(replications);
        for (label, curve) in labels.iter().zip(&curves) {
            // Both sweep endpoints: the 480-disk end is the paper's ABE
            // 0–2/week claim, the top end is the scaling cost argument.
            for i in sweep_endpoints(&counts) {
                let at = format!("{label} @{} disks", counts[i]);
                let (simulated, analytic) = &curve[i];
                output = output
                    .with_metric_ci(format!("replacements_per_week {at}"), simulated)
                    .with_metric(format!("analytic_per_week {at}"), *analytic);
            }
        }
        Ok(output)
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

    fn evaluate(disk_counts: &[u32], spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        Figure3DiskReplacements { disk_counts: disk_counts.to_vec() }.evaluate(spec)
    }

    #[test]
    fn rejects_invalid_disk_counts() {
        assert!(evaluate(&[0], &spec(4, 1)).is_err());
        assert!(evaluate(&[487], &spec(4, 1)).is_err());
    }

    #[test]
    fn abe_point_matches_the_observed_replacement_rate() {
        // 480 disks at AFR 2.92 % should give the paper's 0–2 replacements
        // per week.
        let output = evaluate(&[480], &spec(8, 5)).unwrap();
        let simulated = output.metric("replacements_per_week (0.7,2.92,8+2,4) @480 disks").unwrap();
        let analytic = output.metric("analytic_per_week (0.7,2.92,8+2,4) @480 disks").unwrap();
        assert!(simulated > 0.2 && simulated < 3.0, "simulated {simulated}");
        assert!((analytic - simulated).abs() < 1.0);
    }

    #[test]
    fn replacements_grow_with_disks_and_afr() {
        let output = evaluate(&[480, 2400], &spec(8, 9)).unwrap();
        let at = |measure: &str, afr: f64, disks: u32| {
            output.metric(&format!("{measure} (0.7,{afr},8+2,4) @{disks} disks")).unwrap()
        };
        for afr in FIGURE3_AFRS {
            for measure in ["replacements_per_week", "analytic_per_week"] {
                assert!(at(measure, afr, 2400) > at(measure, afr, 480), "{measure} at {afr}%");
            }
        }
        // Higher AFR → more replacements at the same scale.
        assert!(
            at("replacements_per_week", 8.76, 2400) > at("replacements_per_week", 0.88, 2400) * 3.0
        );

        let table = &output.tables[0];
        assert_eq!(table.len(), 2);
        assert!(table.render().contains("(0.7,8.76,8+2,4)"));
    }
}
