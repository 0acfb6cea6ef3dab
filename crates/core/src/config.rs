//! Cluster configurations: the ABE baseline, the petascale target, and the
//! interpolated scale points used on the x-axes of Figures 2–4.

use serde::{Deserialize, Serialize};

use raidsim::scaling::{config_from_plan, plan_for_capacity};
use raidsim::StorageConfig;

use crate::params::ModelParameters;
use crate::CfsError;

/// ABE's scratch-partition capacity in terabytes.
pub(crate) const ABE_CAPACITY_TB: f64 = 96.0;
/// The petascale (Blue Waters class) scratch capacity in terabytes (12 PB).
pub(crate) const PETASCALE_CAPACITY_TB: f64 = 12_288.0;

/// A complete cluster configuration: compute side, file-server side, storage
/// hardware, mitigation options, and model parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Human-readable name used in reports ("ABE", "petascale", …).
    pub name: String,
    /// Number of compute nodes (1200 on ABE, 32 000 at petascale).
    pub compute_nodes: u32,
    /// Number of file-serving OSS fail-over pairs (8 on ABE, 80 at
    /// petascale).
    pub oss_pairs: u32,
    /// Number of metadata-server fail-over pairs (1 on ABE).
    pub metadata_pairs: u32,
    /// Storage hardware configuration (DDN units, tiers, disks).
    pub storage: StorageConfig,
    /// Whether a standby spare OSS can take over a fully failed OSS pair
    /// (the mitigation evaluated in Section 5.2, ≈ +3 % availability).
    pub spare_oss: bool,
    /// Whether multiple network paths connect compute nodes to the CFS
    /// (mitigates transient errors, Section 5.2).
    pub multipath_network: bool,
    /// Model parameters (Table 5).
    pub params: ModelParameters,
}

impl ClusterConfig {
    /// The ABE baseline: 1200 nodes, 8 scratch OSS pairs + 1 metadata pair,
    /// 2 DDN units with 48 tiers of (8+2), no mitigations.
    pub fn abe() -> Self {
        ClusterConfig {
            name: "ABE".to_string(),
            compute_nodes: 1200,
            oss_pairs: 8,
            metadata_pairs: 1,
            storage: StorageConfig::abe_scratch(),
            spare_oss: false,
            multipath_network: false,
            params: ModelParameters::abe(),
        }
    }

    /// The petaflop–petabyte target: 32 000 nodes, 80 OSS pairs, 20 DDN
    /// units, 12 PB of scratch.
    pub fn petascale() -> Self {
        ClusterConfig::scaled_to_capacity(PETASCALE_CAPACITY_TB)
            .expect("the petascale design point is a valid configuration")
    }

    /// A cluster scaled so its scratch partition provides `capacity_tb`
    /// terabytes. Compute nodes, OSS pairs, and DDN units are interpolated
    /// geometrically between the ABE and petascale design points; the
    /// storage layout is planned with [`raidsim::scaling`].
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] if `capacity_tb` is not positive.
    pub fn scaled_to_capacity(capacity_tb: f64) -> Result<Self, CfsError> {
        if !(capacity_tb.is_finite() && capacity_tb > 0.0) {
            return Err(CfsError::InvalidConfig {
                reason: format!("capacity must be positive, got {capacity_tb} TB"),
            });
        }
        let abe = ClusterConfig::abe();
        // Geometric interpolation exponent in [0, 1] over the 96 TB → 12 PB
        // range (clamped outside it).
        let frac = ((capacity_tb / ABE_CAPACITY_TB).ln()
            / (PETASCALE_CAPACITY_TB / ABE_CAPACITY_TB).ln())
        .clamp(0.0, 1.5);

        let compute_nodes = (1200.0 * (32_000.0_f64 / 1200.0).powf(frac)).round() as u32;
        let oss_pairs = (8.0 * 10.0_f64.powf(frac)).round().max(1.0) as u32;
        let ddn_units = (2.0 * 10.0_f64.powf(frac)).round().max(1.0) as u32;

        // Plan the storage with the same 250 GB disks as ABE so the disk
        // count scales with capacity (Figure 2's x-axis); experiments that
        // want capacity growth swap the disk model afterwards.
        let mut plan =
            plan_for_capacity(capacity_tb, abe.storage.disk.capacity_gb, abe.storage.geometry)?;
        // Use the interpolated DDN-unit count, but never more units than
        // there are tiers to spread across them.
        plan.ddn_units = ddn_units.min(plan.tiers).max(1);
        let storage = config_from_plan(&plan, &abe.storage)?;

        Ok(ClusterConfig {
            name: format!("{capacity_tb:.0}TB"),
            compute_nodes,
            oss_pairs,
            metadata_pairs: 1,
            storage,
            spare_oss: false,
            multipath_network: false,
            params: abe.params,
        })
    }

    /// Returns a copy with the spare-OSS mitigation enabled.
    pub fn with_spare_oss(mut self) -> Self {
        self.spare_oss = true;
        self.name = format!("{}+spare-OSS", self.name);
        self
    }

    /// Returns a copy with multi-path networking between compute nodes and
    /// the CFS.
    pub fn with_multipath_network(mut self) -> Self {
        self.multipath_network = true;
        self.name = format!("{}+multipath", self.name);
        self
    }

    /// Total number of OSS fail-over pairs (file serving + metadata).
    pub fn total_oss_pairs(&self) -> u32 {
        self.oss_pairs + self.metadata_pairs
    }

    /// The scratch partition's usable capacity in terabytes.
    pub fn capacity_tb(&self) -> f64 {
        self.storage.usable_capacity_tb()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] (or a wrapped storage/parameter
    /// error) describing the first problem found.
    pub fn validate(&self) -> Result<(), CfsError> {
        if self.compute_nodes == 0 {
            return Err(CfsError::InvalidConfig {
                reason: "compute_nodes must be at least 1".into(),
            });
        }
        if self.oss_pairs == 0 {
            return Err(CfsError::InvalidConfig { reason: "oss_pairs must be at least 1".into() });
        }
        if self.metadata_pairs == 0 {
            return Err(CfsError::InvalidConfig {
                reason: "metadata_pairs must be at least 1".into(),
            });
        }
        self.storage.validate()?;
        self.params.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abe_matches_the_paper_description() {
        let abe = ClusterConfig::abe();
        assert!(abe.validate().is_ok());
        assert_eq!(abe.compute_nodes, 1200);
        assert_eq!(abe.oss_pairs, 8);
        assert_eq!(abe.total_oss_pairs(), 9);
        assert_eq!(abe.storage.ddn_units, 2);
        assert_eq!(abe.storage.total_disks(), 480);
        assert!((abe.capacity_tb() - 96.0).abs() < 1e-9);
        assert!(!abe.spare_oss && !abe.multipath_network);
    }

    #[test]
    fn petascale_matches_table5_upper_bounds() {
        let p = ClusterConfig::petascale();
        assert!(p.validate().is_ok());
        assert_eq!(p.compute_nodes, 32_000);
        assert_eq!(p.oss_pairs, 80);
        assert_eq!(p.storage.ddn_units, 20);
        assert!(p.capacity_tb() >= 12_288.0 - 1e-6);
        assert!(p.storage.total_disks() > 60_000);
    }

    #[test]
    fn scaling_is_monotone_between_the_endpoints() {
        let points = [96.0, 384.0, 1536.0, 6144.0, 12_288.0];
        let mut last_nodes = 0;
        let mut last_oss = 0;
        let mut last_ddn = 0;
        for tb in points {
            let c = ClusterConfig::scaled_to_capacity(tb).unwrap();
            assert!(c.validate().is_ok(), "{tb} TB");
            assert!(c.compute_nodes >= last_nodes);
            assert!(c.oss_pairs >= last_oss);
            assert!(c.storage.ddn_units >= last_ddn);
            last_nodes = c.compute_nodes;
            last_oss = c.oss_pairs;
            last_ddn = c.storage.ddn_units;
        }
    }

    #[test]
    fn scaled_to_abe_capacity_reproduces_abe_shape() {
        let c = ClusterConfig::scaled_to_capacity(96.0).unwrap();
        assert_eq!(c.compute_nodes, 1200);
        assert_eq!(c.oss_pairs, 8);
        assert_eq!(c.storage.ddn_units, 2);
        assert_eq!(c.storage.total_disks(), 480);
    }

    #[test]
    fn invalid_capacity_is_rejected() {
        assert!(ClusterConfig::scaled_to_capacity(0.0).is_err());
        assert!(ClusterConfig::scaled_to_capacity(-5.0).is_err());
        assert!(ClusterConfig::scaled_to_capacity(f64::NAN).is_err());
    }

    #[test]
    fn mitigation_builders_set_flags_and_names() {
        let c = ClusterConfig::abe().with_spare_oss();
        assert!(c.spare_oss);
        assert!(c.name.contains("spare"));
        let c = ClusterConfig::abe().with_multipath_network();
        assert!(c.multipath_network);
        assert!(c.name.contains("multipath"));
    }

    #[test]
    fn validation_catches_zeroed_fields() {
        let mut c = ClusterConfig::abe();
        c.compute_nodes = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::abe();
        c.oss_pairs = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::abe();
        c.metadata_pairs = 0;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::abe();
        c.storage.tiers = 0;
        assert!(c.validate().is_err());
    }
}
