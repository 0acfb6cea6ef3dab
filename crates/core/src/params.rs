//! The Table 5 model parameters: values, valid ranges, and provenance.
//!
//! Table 5 of the paper consolidates every parameter of the simulation
//! model, along with where it came from (log-file analysis, hardware
//! specifications, or discussions with the NCSA administrators).
//! [`ModelParameters`] carries the per-experiment values;
//! `ParameterTable` reproduces the table itself, including the ranges
//! swept across experiments.

use serde::{Deserialize, Serialize};

use probdist::{Afr, Mtbf};

use crate::CfsError;

/// Where a parameter value came from (the superscripts of Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ParameterSource {
    /// Estimated from the failure-log analysis.
    LogAnalysis,
    /// Taken from hardware data sheets / literature.
    Specification,
    /// Reported by the NCSA cluster administrators.
    Administrators,
}

impl ParameterSource {
    /// Short label matching the table footnote.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ParameterSource::LogAnalysis => "log file analysis",
            ParameterSource::Specification => "data specification / literature",
            ParameterSource::Administrators => "cluster administrators",
        }
    }
}

/// One row of the Table 5 parameter table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ParameterRow {
    /// Parameter name as printed in the paper.
    pub name: &'static str,
    /// The range swept across experiments, as printed in the paper.
    pub range: &'static str,
    /// The value used for the ABE baseline in this reproduction.
    pub abe_value: String,
    /// Provenance of the value.
    pub source: ParameterSource,
}

/// The dependability parameters of the cluster model (Table 5), with ABE
/// defaults.
///
/// All rates are per hour, all durations in hours.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParameters {
    /// Disk MTBF, hours (Table 5: 100 000 – 3 000 000).
    pub disk_mtbf_hours: f64,
    /// Weibull shape parameter of disk lifetimes (Table 5: 0.6 – 1.0).
    pub disk_weibull_shape: f64,
    /// Average time to replace a failed disk, hours (Table 5: 1 – 12).
    pub disk_replacement_hours: f64,
    /// Average time to replace failed hardware (OSS node, controller,
    /// network port), hours (Table 5: 12 – 36).
    pub hardware_repair_hours: f64,
    /// Average time to fix a software failure (fsck, Lustre restart), hours
    /// (Table 5: 2 – 6).
    pub software_repair_hours: f64,
    /// Hardware failure rate per fail-over pair (OSS pair, controller pair,
    /// network-path pair), per hour (Table 5: 1 – 2 per 720 h).
    pub hardware_failure_rate_per_pair: f64,
    /// Software failure rate for the cluster file system as a whole, per
    /// hour (Table 5: 1 – 2 per 720 h).
    pub software_failure_rate: f64,
    /// Rate of system-level hardware incidents that are *not* masked by
    /// fail-over (the user-visible I/O-hardware outages of Table 1), per
    /// hour.
    pub unmasked_hardware_incident_rate: f64,
    /// Mean duration of an unmasked hardware incident, hours (Table 1 rows:
    /// 8 – 18 h).
    pub unmasked_hardware_outage_hours: f64,
    /// Probability that a failure propagates to a causally or spatially
    /// connected component (the correlated-failure parameter *p* of
    /// Section 4.3).
    pub correlation_probability: f64,
    /// Rate of transient network error storms per hour at ABE scale
    /// (estimated from the Table 2 / Table 3 log analysis).
    pub transient_storm_rate: f64,
    /// Mean fraction of compute nodes affected by one transient storm.
    pub transient_storm_node_fraction: f64,
    /// Mean compute-node work lost per affected node per storm, hours
    /// (failed jobs must be re-run from their last checkpoint).
    pub transient_work_loss_hours: f64,
    /// Job submissions per hour (Table 5: 12 – 15).
    pub job_rate_per_hour: f64,
    /// Time for a standby spare OSS to take over a failed pair, hours (only
    /// used when the spare-OSS mitigation is enabled).
    pub spare_oss_takeover_hours: f64,
}

impl Default for ModelParameters {
    fn default() -> Self {
        ModelParameters::abe()
    }
}

impl ModelParameters {
    /// The ABE baseline parameters used throughout Section 5.
    pub fn abe() -> Self {
        ModelParameters {
            disk_mtbf_hours: 300_000.0,
            disk_weibull_shape: 0.7,
            disk_replacement_hours: 4.0,
            hardware_repair_hours: 24.0,
            software_repair_hours: 4.0,
            hardware_failure_rate_per_pair: 1.0 / 720.0,
            software_failure_rate: 1.5 / 720.0,
            unmasked_hardware_incident_rate: 2.5 / 3480.0,
            unmasked_hardware_outage_hours: 13.0,
            correlation_probability: 0.0075,
            transient_storm_rate: 12.0 / 2232.0,
            transient_storm_node_fraction: 0.16,
            transient_work_loss_hours: 6.0,
            job_rate_per_hour: 13.0,
            spare_oss_takeover_hours: 1.0,
        }
    }

    /// The disk AFR implied by the MTBF.
    pub(crate) fn disk_afr(&self) -> Afr {
        Mtbf::new(self.disk_mtbf_hours).expect("positive mtbf").to_afr()
    }

    /// Validates every parameter against its Table 5 range (with a small
    /// tolerance beyond the printed ranges so sensitivity sweeps can explore
    /// slightly outside them).
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] naming the first out-of-range
    /// parameter.
    pub fn validate(&self) -> Result<(), CfsError> {
        let checks: [(&str, f64, f64, f64); 10] = [
            ("disk_mtbf_hours", self.disk_mtbf_hours, 10_000.0, 10_000_000.0),
            ("disk_weibull_shape", self.disk_weibull_shape, 0.3, 2.0),
            ("disk_replacement_hours", self.disk_replacement_hours, 0.5, 48.0),
            ("hardware_repair_hours", self.hardware_repair_hours, 1.0, 168.0),
            ("software_repair_hours", self.software_repair_hours, 0.5, 48.0),
            ("hardware_failure_rate_per_pair", self.hardware_failure_rate_per_pair, 1e-6, 0.1),
            ("software_failure_rate", self.software_failure_rate, 1e-6, 0.1),
            ("unmasked_hardware_incident_rate", self.unmasked_hardware_incident_rate, 0.0, 0.1),
            ("transient_storm_rate", self.transient_storm_rate, 0.0, 1.0),
            ("job_rate_per_hour", self.job_rate_per_hour, 0.1, 1000.0),
        ];
        for (name, value, lo, hi) in checks {
            if !value.is_finite() || value < lo || value > hi {
                return Err(CfsError::InvalidConfig {
                    reason: format!("parameter `{name}` = {value} outside sane range [{lo}, {hi}]"),
                });
            }
        }
        for (name, value) in [
            ("correlation_probability", self.correlation_probability),
            ("transient_storm_node_fraction", self.transient_storm_node_fraction),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(CfsError::InvalidConfig {
                    reason: format!("parameter `{name}` = {value} must be a probability"),
                });
            }
        }
        if self.transient_work_loss_hours < 0.0 || self.spare_oss_takeover_hours <= 0.0 {
            return Err(CfsError::InvalidConfig {
                reason: "work-loss and spare-takeover durations must be non-negative/positive"
                    .into(),
            });
        }
        Ok(())
    }
}

/// The rendered Table 5 parameter table.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub(crate) struct ParameterTable {
    rows: Vec<ParameterRow>,
}

impl ParameterTable {
    /// Builds the table for a given parameter set.
    pub(crate) fn new(params: &ModelParameters) -> Self {
        use ParameterSource::*;
        let rows = vec![
            ParameterRow {
                name: "Disk MTBF",
                range: "100000-3000000 hours",
                abe_value: format!("{:.0} hours", params.disk_mtbf_hours),
                source: Specification,
            },
            ParameterRow {
                name: "Annualized Failure Rate (AFR)",
                range: "0.40%-8.6%",
                abe_value: format!("{:.2}%", params.disk_afr().percent()),
                source: Specification,
            },
            ParameterRow {
                name: "Weibull distribution's shape parameter",
                range: "0.6-1.0",
                abe_value: format!("{:.2}", params.disk_weibull_shape),
                source: LogAnalysis,
            },
            ParameterRow {
                name: "Number of DDN",
                range: "2-20",
                abe_value: "2".into(),
                source: LogAnalysis,
            },
            ParameterRow {
                name: "Number of compute nodes",
                range: "1200-32000",
                abe_value: "1200".into(),
                source: LogAnalysis,
            },
            ParameterRow {
                name: "Average time to replace disks",
                range: "1-12 hours",
                abe_value: format!("{:.0} hours", params.disk_replacement_hours),
                source: Administrators,
            },
            ParameterRow {
                name: "Average time to replace hardware",
                range: "12-36 hours",
                abe_value: format!("{:.0} hours", params.hardware_repair_hours),
                source: Administrators,
            },
            ParameterRow {
                name: "Average time to fix software",
                range: "2-6 hours",
                abe_value: format!("{:.0} hours", params.software_repair_hours),
                source: Administrators,
            },
            ParameterRow {
                name: "Job request per hour",
                range: "12-15 per hour",
                abe_value: format!("{:.0} per hour", params.job_rate_per_hour),
                source: LogAnalysis,
            },
            ParameterRow {
                name: "Hardware failure rate",
                range: "1-2 per 720 hours",
                abe_value: format!(
                    "{:.1} per 720 hours",
                    params.hardware_failure_rate_per_pair * 720.0
                ),
                source: LogAnalysis,
            },
            ParameterRow {
                name: "Software failure rate",
                range: "1-2 per 720 hours",
                abe_value: format!("{:.1} per 720 hours", params.software_failure_rate * 720.0),
                source: LogAnalysis,
            },
            ParameterRow {
                name: "Annual growth rate of disk capacity",
                range: "33%",
                abe_value: "33%".into(),
                source: Specification,
            },
            ParameterRow {
                name: "DDN Units",
                range: "2-20",
                abe_value: "2".into(),
                source: LogAnalysis,
            },
            ParameterRow {
                name: "OSS Units",
                range: "8-80",
                abe_value: "8".into(),
                source: LogAnalysis,
            },
        ];
        ParameterTable { rows }
    }

    /// The table rows.
    pub(crate) fn rows(&self) -> &[ParameterRow] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abe_defaults_are_inside_table5_ranges() {
        let p = ModelParameters::abe();
        assert!(p.validate().is_ok());
        assert!((100_000.0..=3_000_000.0).contains(&p.disk_mtbf_hours));
        assert!((0.6..=1.0).contains(&p.disk_weibull_shape));
        assert!((1.0..=12.0).contains(&p.disk_replacement_hours));
        assert!((12.0..=36.0).contains(&p.hardware_repair_hours));
        assert!((2.0..=6.0).contains(&p.software_repair_hours));
        let hw_per_720 = p.hardware_failure_rate_per_pair * 720.0;
        assert!((1.0..=2.0).contains(&hw_per_720));
        let sw_per_720 = p.software_failure_rate * 720.0;
        assert!((1.0..=2.0).contains(&sw_per_720));
        assert!((12.0..=15.0).contains(&p.job_rate_per_hour));
        assert!((2.8..=3.0).contains(&p.disk_afr().percent()));
    }

    #[test]
    fn default_is_abe() {
        assert_eq!(ModelParameters::default(), ModelParameters::abe());
    }

    #[test]
    fn validation_rejects_out_of_range_values() {
        let mut p = ModelParameters::abe();
        p.disk_mtbf_hours = 1.0;
        assert!(p.validate().is_err());

        let mut p = ModelParameters::abe();
        p.correlation_probability = 1.5;
        assert!(p.validate().is_err());

        let mut p = ModelParameters::abe();
        p.disk_weibull_shape = -0.7;
        assert!(p.validate().is_err());

        let mut p = ModelParameters::abe();
        p.spare_oss_takeover_hours = 0.0;
        assert!(p.validate().is_err());

        let mut p = ModelParameters::abe();
        p.transient_storm_node_fraction = 2.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn parameter_table_covers_every_table5_row() {
        let table = ParameterTable::new(&ModelParameters::abe());
        assert_eq!(table.rows().len(), 14);
        let names: Vec<&str> = table.rows().iter().map(|r| r.name).collect();
        assert!(names.contains(&"Disk MTBF"));
        assert!(names.contains(&"OSS Units"));
        assert!(names.contains(&"Annual growth rate of disk capacity"));
        // Every row carries a provenance label.
        for row in table.rows() {
            assert!(!row.source.label().is_empty());
            assert!(!row.abe_value.is_empty());
        }
    }
}
