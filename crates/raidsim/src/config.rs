use serde::{Deserialize, Serialize};

use probdist::{Afr, Mtbf, Weibull};

use crate::RaidError;

/// RAID group geometry: `data + parity` disks per tier.
///
/// The tier survives as long as at most `parity` of its disks are failed at
/// the same time; one more concurrent failure loses the tier's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RaidGeometry {
    /// Number of data disks per tier (8 for the S2A9550).
    pub data_disks: u32,
    /// Number of parity/spare-capacity disks per tier (2 for RAID6 8+2,
    /// 3 for the Blue Waters 8+3 design).
    pub parity_disks: u32,
}

impl RaidGeometry {
    /// The ABE S2A9550 geometry: RAID6 (8+2).
    pub fn raid6_8p2() -> Self {
        RaidGeometry { data_disks: 8, parity_disks: 2 }
    }

    /// The Blue Waters design point: (8+3).
    pub fn raid_8p3() -> Self {
        RaidGeometry { data_disks: 8, parity_disks: 3 }
    }

    /// RAID5-style single parity (8+1), used as a pessimistic baseline.
    pub fn raid5_8p1() -> Self {
        RaidGeometry { data_disks: 8, parity_disks: 1 }
    }

    /// Total disks per tier.
    pub fn disks_per_tier(&self) -> u32 {
        self.data_disks + self.parity_disks
    }

    /// Short label used in figure legends, e.g. `"8+2"`.
    pub fn label(&self) -> String {
        format!("{}+{}", self.data_disks, self.parity_disks)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] if either count is zero.
    pub fn validate(&self) -> Result<(), RaidError> {
        if self.data_disks == 0 || self.parity_disks == 0 {
            return Err(RaidError::InvalidConfig {
                reason: format!("RAID geometry needs data and parity disks, got {}", self.label()),
            });
        }
        Ok(())
    }
}

/// Reliability model of an individual disk.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskModel {
    /// Weibull shape parameter of the lifetime distribution (β ≈ 0.7 on
    /// ABE; 1.0 gives exponential lifetimes; values below 1 model infant
    /// mortality).
    pub weibull_shape: f64,
    /// Mean lifetime (MTBF), hours.
    pub mtbf_hours: f64,
    /// Usable capacity per disk, gigabytes (250 GB on ABE in 2007).
    pub capacity_gb: f64,
}

impl DiskModel {
    /// The ABE scratch-partition disk: Weibull(0.7) with a 300 000-hour MTBF
    /// (AFR ≈ 2.92 %), 250 GB.
    pub fn abe_sata_250gb() -> Self {
        DiskModel { weibull_shape: 0.7, mtbf_hours: 300_000.0, capacity_gb: 250.0 }
    }

    /// Same disk with a different annualized failure rate, keeping the ABE
    /// Weibull shape. Used for the AFR sweeps of Figures 2 and 3.
    ///
    /// # Errors
    ///
    /// Returns an error if `afr_percent` is not a valid AFR.
    pub fn with_afr(afr_percent: f64, weibull_shape: f64) -> Result<Self, RaidError> {
        let afr = Afr::new(afr_percent)?;
        Ok(DiskModel { weibull_shape, mtbf_hours: afr.to_mtbf().hours(), capacity_gb: 250.0 })
    }

    /// The disk's AFR implied by its MTBF.
    pub fn afr(&self) -> Afr {
        Mtbf::new(self.mtbf_hours).expect("validated mtbf").to_afr()
    }

    /// The lifetime distribution.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameters are not positive.
    pub fn lifetime(&self) -> Result<Weibull, RaidError> {
        Ok(Weibull::from_shape_and_mean(self.weibull_shape, self.mtbf_hours)?)
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] for non-positive parameters.
    pub fn validate(&self) -> Result<(), RaidError> {
        if self.weibull_shape <= 0.0 || self.mtbf_hours <= 0.0 || self.capacity_gb <= 0.0 {
            return Err(RaidError::InvalidConfig {
                reason: format!(
                    "disk model parameters must be positive (shape {}, mtbf {}, capacity {})",
                    self.weibull_shape, self.mtbf_hours, self.capacity_gb
                ),
            });
        }
        Ok(())
    }
}

/// RAID-controller fail-over pair model (one pair per DDN unit).
///
/// The controllers of a pair fail independently at `failure_rate_per_hour`;
/// while *both* are failed the unit's tiers are unavailable (but no data is
/// lost). Repairs take `repair_hours` because parts must be shipped from the
/// vendor (12–36 h per Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerModel {
    /// Failure rate of a single controller, per hour.
    pub failure_rate_per_hour: f64,
    /// Repair time of a failed controller, hours.
    pub repair_hours: f64,
}

impl ControllerModel {
    /// The ABE controller model: roughly two failures per controller per
    /// year, repaired in 24 hours on average (within the 12–36 h hardware
    /// repair range of Table 5). The Table 5 "1–2 per 720 h" hardware rate
    /// covers *all* SAN hardware (OSS nodes, network ports, controllers);
    /// only a small share of those events are RAID-controller failures.
    pub fn abe_default() -> Self {
        ControllerModel { failure_rate_per_hour: 2.0 / 8760.0, repair_hours: 24.0 }
    }

    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] for non-positive parameters.
    pub fn validate(&self) -> Result<(), RaidError> {
        if self.failure_rate_per_hour <= 0.0 || self.repair_hours <= 0.0 {
            return Err(RaidError::InvalidConfig {
                reason: "controller failure rate and repair time must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Configuration of a complete scratch-partition storage system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Number of DDN units (S2A9550s); tiers are split evenly across them.
    pub ddn_units: u32,
    /// Total number of RAID tiers across all DDN units.
    pub tiers: u32,
    /// RAID geometry of every tier.
    pub geometry: RaidGeometry,
    /// Disk reliability model.
    pub disk: DiskModel,
    /// Time to physically replace a failed disk, hours (1–12 h sweep in the
    /// paper; 4 h nominal).
    pub replacement_hours: f64,
    /// Additional time to rebuild the replaced disk's contents, hours.
    pub rebuild_hours: f64,
    /// Time to restore a tier after an unrecoverable (data-loss) failure,
    /// hours. The tier and its dependants are unavailable for this long.
    pub data_loss_recovery_hours: f64,
    /// Optional RAID-controller fail-over pairs (one pair per DDN unit).
    pub controllers: Option<ControllerModel>,
}

impl StorageConfig {
    /// The ABE scratch partition: 2 S2A9550 units, 48 tiers of (8+2)
    /// 250 GB SATA disks (480 disks, 96 TB usable), 4-hour disk
    /// replacement.
    ///
    /// Controller fail-over pairs are *not* included here: Figure 2
    /// evaluates "the RAID6 tiers and the RAID controllers in isolation from
    /// failures of other components of the SAN", and in this reproduction
    /// the controller/OSS/network hardware is modelled by the composed CFS
    /// model (`cfs-model` crate). Set `controllers` to include the
    /// controller overlay in the storage simulation itself.
    pub fn abe_scratch() -> Self {
        StorageConfig {
            ddn_units: 2,
            tiers: 48,
            geometry: RaidGeometry::raid6_8p2(),
            disk: DiskModel::abe_sata_250gb(),
            replacement_hours: 4.0,
            rebuild_hours: 6.0,
            data_loss_recovery_hours: 24.0,
            controllers: None,
        }
    }

    /// Total number of disks in the system.
    pub fn total_disks(&self) -> u32 {
        self.tiers * self.geometry.disks_per_tier()
    }

    /// Usable capacity in terabytes (data disks only).
    pub fn usable_capacity_tb(&self) -> f64 {
        self.tiers as f64 * self.geometry.data_disks as f64 * self.disk.capacity_gb / 1000.0
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), RaidError> {
        if self.ddn_units == 0 {
            return Err(RaidError::InvalidConfig {
                reason: "at least one DDN unit is required".into(),
            });
        }
        if self.tiers == 0 {
            return Err(RaidError::InvalidConfig {
                reason: "at least one tier is required".into(),
            });
        }
        if !self.tiers.is_multiple_of(self.ddn_units) {
            return Err(RaidError::InvalidConfig {
                reason: format!(
                    "{} tiers cannot be split evenly across {} DDN units",
                    self.tiers, self.ddn_units
                ),
            });
        }
        self.geometry.validate()?;
        self.disk.validate()?;
        if self.replacement_hours <= 0.0
            || self.rebuild_hours < 0.0
            || self.data_loss_recovery_hours <= 0.0
        {
            return Err(RaidError::InvalidConfig {
                reason: "replacement, rebuild, and recovery times must be positive".into(),
            });
        }
        if let Some(c) = &self.controllers {
            c.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_presets_and_labels() {
        assert_eq!(RaidGeometry::raid6_8p2().disks_per_tier(), 10);
        assert_eq!(RaidGeometry::raid_8p3().disks_per_tier(), 11);
        assert_eq!(RaidGeometry::raid6_8p2().label(), "8+2");
        assert_eq!(RaidGeometry::raid5_8p1().label(), "8+1");
        assert!(RaidGeometry::raid6_8p2().validate().is_ok());
        assert!(RaidGeometry { data_disks: 0, parity_disks: 2 }.validate().is_err());
        assert!(RaidGeometry { data_disks: 8, parity_disks: 0 }.validate().is_err());
    }

    #[test]
    fn abe_disk_model_matches_paper_parameters() {
        let d = DiskModel::abe_sata_250gb();
        assert!((d.afr().percent() - 2.92).abs() < 0.01);
        assert!(d.lifetime().unwrap().has_infant_mortality());
        assert!(d.validate().is_ok());
    }

    #[test]
    fn with_afr_constructs_matching_mtbf() {
        let d = DiskModel::with_afr(8.76, 0.7).unwrap();
        assert!((d.mtbf_hours - 100_000.0).abs() < 1.0);
        assert!(DiskModel::with_afr(0.0, 0.7).is_err());
        assert!(DiskModel::with_afr(150.0, 0.7).is_err());
    }

    #[test]
    fn disk_model_validation_rejects_bad_values() {
        let mut d = DiskModel::abe_sata_250gb();
        d.weibull_shape = 0.0;
        assert!(d.validate().is_err());
        let mut d = DiskModel::abe_sata_250gb();
        d.capacity_gb = -1.0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn abe_scratch_config_matches_section_3_2() {
        let c = StorageConfig::abe_scratch();
        assert_eq!(c.total_disks(), 480);
        assert!((c.usable_capacity_tb() - 96.0).abs() < 1e-9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn storage_config_validation() {
        let mut c = StorageConfig::abe_scratch();
        c.tiers = 0;
        assert!(c.validate().is_err());

        let mut c = StorageConfig::abe_scratch();
        c.ddn_units = 0;
        assert!(c.validate().is_err());

        let mut c = StorageConfig::abe_scratch();
        c.tiers = 49; // not divisible by 2 DDN units
        assert!(c.validate().is_err());

        let mut c = StorageConfig::abe_scratch();
        c.replacement_hours = 0.0;
        assert!(c.validate().is_err());

        let mut c = StorageConfig::abe_scratch();
        c.controllers = Some(ControllerModel { failure_rate_per_hour: 0.0, repair_hours: 1.0 });
        assert!(c.validate().is_err());
    }

    #[test]
    fn controller_model_default_rate_is_a_fraction_of_table5_hardware_rate() {
        let c = ControllerModel::abe_default();
        // Table 5's hardware rate (1-2 per 720 h) covers all SAN hardware;
        // the controller share must be a small fraction of it but non-zero.
        let per_720 = c.failure_rate_per_hour * 720.0;
        assert!(per_720 > 0.0 && per_720 < 1.0, "per 720h {per_720}");
        assert!((12.0..=36.0).contains(&c.repair_hours));
        assert!(c.validate().is_ok());
    }
}
