//! Figure 2: availability of the storage hardware (RAID6 tiers and their
//! controllers, in isolation from the rest of the SAN) as the file system is
//! scaled from ABE's 96 TB to the 12 PB of a petascale machine.
//!
//! Each series is labelled with the tuple the paper uses:
//! `(Weibull shape β, AFR %, RAID configuration, disk replacement hours)`.

use raidsim::scaling::{config_from_plan, figure2_capacity_points_tb, plan_for_capacity};
use raidsim::{DiskModel, RaidGeometry, StorageConfig};

use super::{run_storage, sweep_endpoints, Scenario, ScenarioOutput};
use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// One storage-reliability configuration (one curve of Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fig2Config {
    /// Weibull shape parameter of disk lifetimes.
    weibull_shape: f64,
    /// Disk annualized failure rate, percent.
    afr_percent: f64,
    /// RAID geometry of every tier.
    geometry: RaidGeometry,
    /// Disk replacement time, hours.
    replacement_hours: f64,
}

impl Fig2Config {
    /// The tuple label used in the paper's legend, e.g. `(0.7,2.92,8+2,4)`.
    fn label(&self) -> String {
        format!(
            "({},{},{},{})",
            self.weibull_shape,
            self.afr_percent,
            self.geometry.label(),
            self.replacement_hours
        )
    }

    /// The configurations plotted in the paper's Figure 2, plus the (8+3)
    /// Blue Waters variant discussed in the text. Every one replaces a
    /// failed disk in 4 hours.
    fn paper_series() -> [Fig2Config; 5] {
        let series = |weibull_shape, afr_percent, geometry| Fig2Config {
            weibull_shape,
            afr_percent,
            geometry,
            replacement_hours: 4.0,
        };
        [
            series(0.6, 8.76, RaidGeometry::raid6_8p2()),
            series(0.6, 4.38, RaidGeometry::raid6_8p2()),
            series(0.7, 8.76, RaidGeometry::raid6_8p2()),
            // The ABE baseline.
            series(0.7, 2.92, RaidGeometry::raid6_8p2()),
            // The Blue Waters (8+3) design point under pessimistic disks.
            series(0.6, 8.76, RaidGeometry::raid_8p3()),
        ]
    }

    /// Builds the storage configuration for a given usable capacity.
    fn storage_for_capacity(&self, capacity_tb: f64) -> Result<StorageConfig, CfsError> {
        let disk = DiskModel {
            weibull_shape: self.weibull_shape,
            mtbf_hours: probdist::Afr::new(self.afr_percent)?.to_mtbf().hours(),
            capacity_gb: 250.0,
        };
        let template = StorageConfig {
            geometry: self.geometry,
            disk,
            replacement_hours: self.replacement_hours,
            rebuild_hours: 6.0,
            ..StorageConfig::abe_scratch()
        };
        let plan = plan_for_capacity(capacity_tb, disk.capacity_gb, self.geometry)?;
        Ok(config_from_plan(&plan, &template)?)
    }
}

/// Figure 2: storage availability versus scale for the paper's
/// configuration tuples. An empty `capacities_tb` runs the paper's
/// 96 TB → 12 PB sweep.
#[derive(Debug, Clone, Default)]
pub struct Figure2StorageAvailability {
    /// Capacity sweep override, terabytes.
    pub capacities_tb: Vec<f64>,
}

impl Scenario for Figure2StorageAvailability {
    fn name(&self) -> &str {
        "figure2_storage_availability"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let capacities = if self.capacities_tb.is_empty() {
            figure2_capacity_points_tb()
        } else {
            self.capacities_tb.clone()
        };
        let series = Fig2Config::paper_series();

        // One curve per configuration: (total disks, storage summary) per
        // capacity, each point on its own seed.
        let mut curves = Vec::new();
        let mut replications = 0;
        for (series_idx, config) in series.iter().enumerate() {
            let mut curve = Vec::new();
            for (cap_idx, &capacity_tb) in capacities.iter().enumerate() {
                let storage = config.storage_for_capacity(capacity_tb)?;
                let total_disks = storage.total_disks();
                let seed = spec.base_seed().wrapping_add((series_idx * 1000 + cap_idx) as u64);
                let summary = run_storage(storage, spec, seed)?;
                replications = replications.max(summary.replications);
                curve.push((total_disks, summary));
            }
            curves.push(curve);
        }

        let mut headers = vec!["TB".to_string(), "Disks".to_string()];
        headers.extend(series.iter().map(Fig2Config::label));
        let mut table = TextTable::new(
            "Figure 2. Availability of storage with respect to disk failures",
            &headers,
        );
        for (i, capacity_tb) in capacities.iter().enumerate() {
            let mut row = vec![format!("{capacity_tb:.0}"), curves[0][i].0.to_string()];
            row.extend(curves.iter().map(|curve| fmt_ci(&curve[i].1.availability, 5)));
            table.add_row(&row);
        }

        let mut output =
            ScenarioOutput::new(self.name()).with_table(table).with_replications_used(replications);
        for (config, curve) in series.iter().zip(&curves) {
            // Both sweep endpoints: the small end is the ABE validation
            // point, the large end is the petascale claim.
            for i in sweep_endpoints(&capacities) {
                let at = format!("{} @{:.0}TB", config.label(), capacities[i]);
                let summary = &curve[i].1;
                output = output
                    .with_metric_ci(format!("availability {at}"), &summary.availability)
                    .with_metric(format!("prob_any_data_loss {at}"), summary.prob_any_data_loss);
            }
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_the_paper_legend() {
        let series = Fig2Config::paper_series();
        let labels: Vec<String> = series.iter().map(super::Fig2Config::label).collect();
        assert!(labels.contains(&"(0.7,2.92,8+2,4)".to_string()));
        assert!(labels.contains(&"(0.6,8.76,8+2,4)".to_string()));
        assert!(labels.iter().any(|l| l.contains("8+3")));
    }

    #[test]
    fn storage_for_capacity_scales_disk_count() {
        let abe = Fig2Config::paper_series()[3];
        let small = abe.storage_for_capacity(96.0).unwrap();
        let large = abe.storage_for_capacity(768.0).unwrap();
        assert_eq!(small.total_disks(), 480);
        assert_eq!(large.total_disks(), 3840);
        assert!((small.disk.mtbf_hours - 300_000.0).abs() < 1.0);
    }

    #[test]
    fn small_sweep_preserves_the_figure_shape() {
        // Small replication count and two capacities keep the test quick
        // while still checking the headline observations: ABE-scale
        // availability ≈ 1 for every configuration, and the ABE disk
        // configuration stays ≥ the pessimistic one at the larger scale.
        let spec = RunSpec::new().with_horizon_hours(4380.0).with_replications(8).with_base_seed(3);
        let figure = Figure2StorageAvailability { capacities_tb: vec![96.0, 1536.0] };
        let output = figure.evaluate(&spec).unwrap();
        for config in Fig2Config::paper_series() {
            let label = config.label();
            let small = output.metric(&format!("availability {label} @96TB")).unwrap();
            assert!(small > 0.999, "{label}");
            assert!(output.metric(&format!("availability {label} @1536TB")).is_some(), "{label}");
        }
        let abe = output.metric("availability (0.7,2.92,8+2,4) @1536TB").unwrap();
        let pessimistic = output.metric("availability (0.6,8.76,8+2,4) @1536TB").unwrap();
        assert!(abe >= pessimistic - 1e-6);
        let table = &output.tables[0];
        assert_eq!(table.len(), 2);
        assert_eq!(table.headers().len(), 2 + 5, "one column per series");
        assert!(table.render().contains("(0.7,2.92,8+2,4)"));
    }
}
