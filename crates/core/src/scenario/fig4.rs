//! Figure 4: availability and utility of the ABE cluster as it is scaled to
//! a petaflop–petabyte system — four curves: storage availability, CFS
//! availability, cluster utility (CU), and CFS availability with a standby
//! spare OSS.

use super::{Scenario, ScenarioOutput};
use crate::analysis::evaluate;
use crate::config::ClusterConfig;
use crate::report::{fmt_ci, TextTable};
use crate::run::RunSpec;
use crate::CfsError;

/// The default capacity sweep, terabytes: a subset of the Figure 2 sweep,
/// since each point simulates the full composed model.
const FIGURE4_CAPACITIES_TB: [f64; 5] = [96.0, 384.0, 1536.0, 6144.0, 12_288.0];

/// Figure 4: CFS availability and cluster utility as the ABE design scales
/// to a petaflop–petabyte system. An empty `capacities_tb` runs the default
/// five-point sweep.
#[derive(Debug, Clone, Default)]
pub struct Figure4CfsAvailability {
    /// Capacity sweep override, terabytes.
    pub capacities_tb: Vec<f64>,
}

impl Scenario for Figure4CfsAvailability {
    fn name(&self) -> &str {
        "figure4_cfs_availability"
    }

    fn evaluate(&self, spec: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        spec.validate()?;
        let capacities = if self.capacities_tb.is_empty() {
            FIGURE4_CAPACITIES_TB.to_vec()
        } else {
            self.capacities_tb.clone()
        };

        let mut table = TextTable::new(
            "Figure 4. Availability and utility of the ABE cluster when scaled to a petaflop-petabyte system",
            &[
                "TB",
                "Nodes",
                "OSS",
                "DDN",
                "Storage-availability",
                "CFS-Availability",
                "CU",
                "CFS-Availability-spare-OSS",
            ],
        );
        // (without, with) a standby spare OSS at every scale point.
        let mut points = Vec::new();
        let mut replications = 0;
        let mut truncated = false;
        for (idx, &capacity_tb) in capacities.iter().enumerate() {
            let config = ClusterConfig::scaled_to_capacity(capacity_tb)?;
            let base = evaluate(&config, &spec.offset_seed(idx as u64))?;
            let spared =
                evaluate(&config.clone().with_spare_oss(), &spec.offset_seed(1000 + idx as u64))?;
            replications = replications.max(base.replications).max(spared.replications);
            truncated |= base.truncated || spared.truncated;
            table.add_row(&[
                format!("{capacity_tb:.0}"),
                config.compute_nodes.to_string(),
                config.oss_pairs.to_string(),
                config.storage.ddn_units.to_string(),
                fmt_ci(&base.storage_availability, 4),
                fmt_ci(&base.cfs_availability, 4),
                fmt_ci(&base.cluster_utility, 4),
                fmt_ci(&spared.cfs_availability, 4),
            ]);
            points.push((base, spared));
        }

        let mut output = ScenarioOutput::new(self.name())
            .with_table(table)
            .with_replications_used(replications)
            .with_truncated(truncated);
        if let (Some((first, _)), Some((last, last_spared))) = (points.first(), points.last()) {
            output = output
                .with_metric_ci("cfs_availability_first", &first.cfs_availability)
                .with_metric_ci("cfs_availability_last", &last.cfs_availability)
                .with_metric_ci("cluster_utility_last", &last.cluster_utility)
                .with_metric(
                    "spare_oss_gain_last",
                    last_spared.cfs_availability.point - last.cfs_availability.point,
                );
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The point estimate of a `fmt_ci` cell of the figure's table.
    fn cell(output: &ScenarioOutput, row: usize, column: &str) -> f64 {
        let table = &output.tables[0];
        let column = table.headers().iter().position(|h| h == column).unwrap();
        table.rows()[row][column].split(' ').next().unwrap().parse().unwrap()
    }

    #[test]
    fn two_point_sweep_reproduces_the_figure_shape() {
        // ABE endpoint and the petascale endpoint with a modest replication
        // count: CFS availability declines with scale, storage availability
        // stays ≈ 1, CU sits below CFS availability, and the spare OSS
        // recovers part of the loss at petascale.
        let spec =
            RunSpec::new().with_horizon_hours(8760.0).with_replications(12).with_base_seed(7);
        let figure = Figure4CfsAvailability { capacities_tb: vec![96.0, 12_288.0] };
        let output = figure.evaluate(&spec).unwrap();
        assert_eq!(output.tables[0].len(), 2);
        let abe = output.metric("cfs_availability_first").unwrap();
        let peta = output.metric("cfs_availability_last").unwrap();

        assert!(abe > 0.95, "ABE availability {abe}");
        assert!(
            peta < abe - 0.02,
            "petascale availability {peta} should be clearly below ABE {abe}"
        );
        // Storage availability has no metric; its cells carry 4 decimals.
        assert!(cell(&output, 0, "Storage-availability") > 0.999);
        assert!(cell(&output, 1, "Storage-availability") > 0.999);
        assert!(output.metric("cluster_utility_last").unwrap() < peta);
        assert!(
            output.metric("spare_oss_gain_last").unwrap() > 0.0,
            "spare OSS should help at petascale"
        );
        assert!(output.tables[0].render().contains("CFS-Availability-spare-OSS"));
    }
}
