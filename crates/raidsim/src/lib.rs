//! RAID tier, controller, and DDN storage-unit reliability models.
//!
//! The ABE cluster's scratch partition is served by two DataDirect Networks
//! S2A9550 units; each FC port connects three tiers of (8+2) SATA disks in
//! RAID6, for a total of 480 × 250 GB disks (Section 3.2 of the paper).
//! Disk lifetimes follow a Weibull distribution with shape ≈ 0.7 (Table 4),
//! failed disks are replaced within 1–12 hours, and the tier rebuilds onto
//! the replacement. A tier loses data only when more disks than the parity
//! count fail concurrently; the Blue Waters design moves from (8+2) to
//! (8+3) to push that probability down further.
//!
//! This crate provides:
//!
//! * [`StorageSimulator`] — one event-driven Monte-Carlo mission engine
//!   for a storage system under a redundancy [`Layout`], producing storage
//!   availability, data-loss probability, and disk-replacement rates with
//!   confidence intervals ([`StorageSummary`]). Its two layouts:
//!   * [`StorageConfig`] — an entire scratch partition (any number of DDN
//!     units × tiers × disks, any `n+k` RAID geometry, optional
//!     RAID-controller fail-over pairs). This is the engine behind
//!     Figures 2 and 3.
//!   * [`ReplicationConfig`] — an n-way object-replication store
//!     (GFS/HDFS/MinIO style: background re-replication instead of RAID
//!     reconstruction; see [`replication`]), so redundancy schemes
//!     compare at equal usable capacity.
//!
//!   A mission's calendar holds only events due within its horizon. Every
//!   disk's first lifetime is drawn, one uniform per disk in disk order,
//!   but one that ends after the horizon is neither evaluated nor queued
//!   ([`probdist::WithinLimit`]): at petascale that is most of them.
//! * [`splitting`] — multilevel splitting for data-loss probabilities too
//!   rare for plain missions, on either layout
//!   ([`StorageSimulator::splitting_loss_probability`]).
//! * [`analytic`] — closed-form MTTDL (mean time to data loss)
//!   approximations for `n+k` redundancy with exponential failures, used to
//!   cross-check the simulation.
//! * [`replacement`] — expected replacement-rate calculations (renewal
//!   approximation plus the early-life correction implied by Weibull infant
//!   mortality).
//! * [`scaling`] — capacity planning helpers that translate a target usable
//!   capacity (96 TB … 12 PB) into disk, tier, and DDN-unit counts,
//!   accounting for the 33 % annual disk-capacity growth assumed in
//!   Table 5.
//!
//! # Example
//!
//! ```
//! use probdist::stats::StoppingRule;
//! use raidsim::{StorageConfig, StorageSimulator};
//!
//! # fn main() -> Result<(), raidsim::RaidError> {
//! // ABE's scratch partition: 48 tiers of (8+2) disks. 32 one-year
//! // missions at 95 % confidence, on an auto-sized worker pool.
//! let sim = StorageSimulator::new(StorageConfig::abe_scratch())?;
//! let summary = sim.run(8760.0, &StoppingRule::fixed(32)?, 7, 0.95, 0)?;
//! // RAID6 keeps ABE-scale storage essentially always available.
//! assert!(summary.availability.point > 0.999);
//!
//! // The same missions run until availability and replacements/week are
//! // both within ±5 %, between 16 and 256 missions.
//! let adaptive = sim.run(8760.0, &StoppingRule::new(0.05, 16, 256)?, 7, 0.95, 0)?;
//! assert!((16..=256).contains(&adaptive.replications));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod config;
mod error;
pub mod replacement;
pub mod replication;
pub mod scaling;
pub mod splitting;
mod storage;

pub use config::{ControllerModel, DiskModel, RaidGeometry, StorageConfig};
pub use error::RaidError;
pub use replication::ReplicationConfig;
pub use storage::{Layout, StorageRunStats, StorageSimulator, StorageSummary};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StorageConfig>();
        assert_send_sync::<StorageSummary>();
        assert_send_sync::<RaidError>();
    }
}
