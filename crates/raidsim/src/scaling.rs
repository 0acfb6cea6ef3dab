//! Capacity planning: translating a target usable capacity into disk, tier,
//! and DDN-unit counts.
//!
//! Figure 2 scales "the ABE cluster … by storage size in terabytes" from
//! 96 TB to 12 PB, and Table 5 lists an annual disk-capacity growth rate of
//! 33 % — by the time a petascale system is deployed, individual disks are
//! larger, so the petabyte system does not need 125× ABE's disk count.
//! These helpers implement the naive scaling (same disks, more of them);
//! a growth-adjusted plan passes the grown disk size to
//! [`plan_for_capacity`].

use serde::{Deserialize, Serialize};

use crate::{DiskModel, RaidError, RaidGeometry, StorageConfig};

/// A storage scaling plan: how many tiers/disks/DDN units serve a target
/// usable capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalePlan {
    /// Target usable capacity, terabytes.
    pub usable_tb: f64,
    /// Capacity of each disk used in the plan, gigabytes.
    pub disk_capacity_gb: f64,
    /// Number of RAID tiers required.
    pub tiers: u32,
    /// Total number of disks (data + parity).
    pub total_disks: u32,
    /// Number of DDN units (one per 24 tiers, as on ABE's S2A9550s).
    pub ddn_units: u32,
}

/// Tiers hosted by a single DDN unit on ABE (each S2A9550 serves 8 FC ports
/// × 3 tiers).
pub(crate) const TIERS_PER_DDN_UNIT: u32 = 24;

/// Plans a storage system for `usable_tb` terabytes of usable capacity using
/// disks of `disk_capacity_gb`, with `geometry` tiers.
///
/// # Errors
///
/// Returns [`RaidError::InvalidConfig`] if the capacity or disk size is not
/// positive or the geometry is invalid.
pub fn plan_for_capacity(
    usable_tb: f64,
    disk_capacity_gb: f64,
    geometry: RaidGeometry,
) -> Result<ScalePlan, RaidError> {
    geometry.validate()?;
    if usable_tb <= 0.0 || disk_capacity_gb <= 0.0 {
        return Err(RaidError::InvalidConfig {
            reason: format!(
                "capacity ({usable_tb} TB) and disk size ({disk_capacity_gb} GB) must be positive"
            ),
        });
    }
    let tb_per_tier = geometry.data_disks as f64 * disk_capacity_gb / 1000.0;
    let tiers = (usable_tb / tb_per_tier).ceil() as u32;
    let tiers = tiers.max(1);
    let ddn_units = tiers.div_ceil(TIERS_PER_DDN_UNIT);
    Ok(ScalePlan {
        usable_tb,
        disk_capacity_gb,
        tiers,
        total_disks: tiers * geometry.disks_per_tier(),
        ddn_units,
    })
}

/// Builds a [`StorageConfig`] from a scale plan, inheriting every
/// non-capacity parameter (disk reliability, repair times, controllers) from
/// `template`.
///
/// # Errors
///
/// Returns [`RaidError::InvalidConfig`] if the resulting configuration is
/// invalid.
pub fn config_from_plan(
    plan: &ScalePlan,
    template: &StorageConfig,
) -> Result<StorageConfig, RaidError> {
    // Keep tiers divisible by DDN units by rounding tiers up.
    let tiers = plan.tiers.div_ceil(plan.ddn_units) * plan.ddn_units;
    let config = StorageConfig {
        ddn_units: plan.ddn_units,
        tiers,
        geometry: template.geometry,
        disk: DiskModel { capacity_gb: plan.disk_capacity_gb, ..template.disk },
        replacement_hours: template.replacement_hours,
        rebuild_hours: template.rebuild_hours,
        data_loss_recovery_hours: template.data_loss_recovery_hours,
        controllers: template.controllers,
    };
    config.validate()?;
    Ok(config)
}

/// The capacity sweep of Figure 2: 96 TB (ABE) doubling up to 12 288 TB
/// (12 PB, the Blue Waters target).
pub fn figure2_capacity_points_tb() -> Vec<f64> {
    let mut points = Vec::new();
    let mut tb = 96.0;
    while tb <= 12_288.0 {
        points.push(tb);
        tb *= 2.0;
    }
    points
}

/// The disk AFRs (percent per year) of Figure 3's four curves, each at
/// Weibull shape 0.7.
pub const FIGURE3_AFRS: [f64; 4] = [8.76, 2.92, 4.38, 0.88];

/// The disk-count sweep of Figure 3: 480 (ABE) to 4800 disks in steps of
/// 480.
pub fn figure3_disk_counts() -> Vec<u32> {
    (1..=10).map(|i| i * 480).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abe_plan_reproduces_the_real_deployment() {
        let plan = plan_for_capacity(96.0, 250.0, RaidGeometry::raid6_8p2()).unwrap();
        assert_eq!(plan.tiers, 48);
        assert_eq!(plan.total_disks, 480);
        assert_eq!(plan.ddn_units, 2);
    }

    #[test]
    fn petabyte_plan_with_same_disks_needs_125x_more() {
        let plan = plan_for_capacity(12_288.0, 250.0, RaidGeometry::raid6_8p2()).unwrap();
        assert_eq!(plan.tiers, 6144);
        assert_eq!(plan.total_disks, 61_440);
        assert_eq!(plan.ddn_units, 256);
    }

    #[test]
    fn plan_validation() {
        assert!(plan_for_capacity(0.0, 250.0, RaidGeometry::raid6_8p2()).is_err());
        assert!(plan_for_capacity(96.0, 0.0, RaidGeometry::raid6_8p2()).is_err());
        assert!(plan_for_capacity(96.0, 250.0, RaidGeometry { data_disks: 0, parity_disks: 1 })
            .is_err());
    }

    #[test]
    fn config_from_plan_inherits_template_parameters() {
        let template = StorageConfig::abe_scratch();
        let plan = plan_for_capacity(768.0, 250.0, template.geometry).unwrap();
        let config = config_from_plan(&plan, &template).unwrap();
        assert_eq!(config.geometry, template.geometry);
        assert_eq!(config.replacement_hours, template.replacement_hours);
        assert!(config.tiers >= plan.tiers);
        assert_eq!(config.tiers % config.ddn_units, 0);
        assert!(config.usable_capacity_tb() >= 768.0 - 1e-9);
    }

    #[test]
    fn small_capacities_round_up_to_one_tier() {
        let plan = plan_for_capacity(0.5, 250.0, RaidGeometry::raid6_8p2()).unwrap();
        assert_eq!(plan.tiers, 1);
        assert_eq!(plan.ddn_units, 1);
    }

    #[test]
    fn figure_sweeps_match_the_paper_axes() {
        let caps = figure2_capacity_points_tb();
        assert_eq!(caps[0], 96.0);
        assert!(*caps.last().unwrap() <= 12_288.0);
        assert!(caps.len() >= 7, "96 TB doubling to 12 PB has at least 8 points");

        let disks = figure3_disk_counts();
        assert_eq!(disks[0], 480);
        assert_eq!(*disks.last().unwrap(), 4800);
        assert_eq!(disks.len(), 10);
    }
}
