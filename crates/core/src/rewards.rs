//! The paper's reward variables (Section 4.2), defined on the composed
//! cluster model.
//!
//! * **CFS availability** — the fraction of time all file-server nodes
//!   (OSSes), the DDN, and the interconnect between them are working, i.e.
//!   the fraction of time the shared `cfs_down_conditions` counter is zero.
//! * **Storage availability** — the fraction of time no RAID tier is in
//!   unrecoverable-failure recovery.
//! * **Disk replacement rate** — disks replaced per week.
//! * **Cluster utility (CU)** — `1 − Σ_nodes unavailable-time / (N · T)`,
//!   the availability perceived by the compute nodes: CFS downtime counts
//!   for every node, and transient network errors additionally waste the
//!   work of the jobs they kill even though the CFS itself has not failed.
//!   CU is assembled per replication from the `cfs_availability` and
//!   `lost_node_hours` rewards by [`crate::analysis`].

use sanet::reward::RewardSpec;

use crate::model::ClusterModel;

/// Reward name: CFS availability.
pub(crate) const CFS_AVAILABILITY: &str = "cfs_availability";
/// Reward name: storage (RAID subsystem) availability.
pub(crate) const STORAGE_AVAILABILITY: &str = "storage_availability";
/// Reward name: accumulated lost compute node-hours from transient errors.
pub(crate) const LOST_NODE_HOURS: &str = "lost_node_hours";
/// Reward name: total disk replacements over the observation window.
pub(crate) const DISK_REPLACEMENTS: &str = "disk_replacements";
/// Reward name: number of OSS pairs simultaneously down, time-averaged.
pub(crate) const MEAN_OSS_PAIRS_DOWN: &str = "mean_oss_pairs_down";

/// Builds the standard reward set for a cluster model.
pub fn standard_rewards(model: &ClusterModel) -> Vec<RewardSpec> {
    let places = model.places;
    vec![
        RewardSpec::time_averaged_rate(CFS_AVAILABILITY, move |m| {
            if m.tokens(places.cfs_down_conditions) == 0 {
                1.0
            } else {
                0.0
            }
        }),
        RewardSpec::time_averaged_rate(STORAGE_AVAILABILITY, move |m| {
            if m.tokens(places.storage_down_tiers) == 0 {
                1.0
            } else {
                0.0
            }
        }),
        RewardSpec::instant_of_time(LOST_NODE_HOURS, move |m| {
            m.tokens(places.lost_node_hours) as f64
        }),
        RewardSpec::impulse_total(DISK_REPLACEMENTS, model.activities.disk_replacement, 1.0),
        RewardSpec::time_averaged_rate(MEAN_OSS_PAIRS_DOWN, move |m| {
            m.tokens(places.oss_pairs_down) as f64
        }),
    ]
}

/// Derives the cluster utility of one replication from its CFS availability
/// and lost node-hours.
pub fn cluster_utility(
    cfs_availability: f64,
    lost_node_hours: f64,
    compute_nodes: u32,
    horizon_hours: f64,
) -> f64 {
    let transient_loss = lost_node_hours / (compute_nodes as f64 * horizon_hours);
    (cfs_availability - transient_loss).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::model::build_cluster_model;

    #[test]
    fn standard_rewards_cover_all_measures() {
        let cm = build_cluster_model(&ClusterConfig::abe()).unwrap();
        let rewards = standard_rewards(&cm);
        let names: Vec<&str> = rewards.iter().map(sanet::RewardSpec::name).collect();
        assert_eq!(
            names,
            vec![
                CFS_AVAILABILITY,
                STORAGE_AVAILABILITY,
                LOST_NODE_HOURS,
                DISK_REPLACEMENTS,
                MEAN_OSS_PAIRS_DOWN
            ]
        );
    }

    #[test]
    fn cluster_utility_subtracts_transient_losses() {
        // 1200 nodes for 100 hours = 120 000 node-hours; losing 12 000 of
        // them costs 0.1 of utility.
        let cu = cluster_utility(0.97, 12_000.0, 1200, 100.0);
        assert!((cu - 0.87).abs() < 1e-12);
        // Utility never goes negative and never exceeds availability.
        assert_eq!(cluster_utility(0.5, 1e12, 1200, 100.0), 0.0);
        assert_eq!(cluster_utility(1.0, 0.0, 1200, 100.0), 1.0);
    }
}
