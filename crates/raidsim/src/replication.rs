//! n-way object replication: the GFS/HDFS/MinIO-style alternative to RAID
//! reconstruction.
//!
//! Instead of grouping disks into parity tiers, replicated object stores
//! keep `r` full copies of every object, scattered across the cluster.
//! When a disk fails its objects are *re-replicated in the background*:
//! every surviving disk holding a lost replica streams it to a different
//! disk, so redundancy is restored by the whole cluster in parallel —
//! typically minutes to a few hours, far faster than a single-spindle RAID
//! rebuild — while the physical replacement of the failed drive proceeds
//! independently and only restores raw capacity.
//!
//! # Model
//!
//! A cluster of [`ReplicationConfig::disks`] disks holds objects with
//! [`ReplicationConfig::replicas`] copies under random placement. The
//! Monte-Carlo kernel tracks, per mission:
//!
//! * **Disk failures** — Weibull lifetimes from the shared [`DiskModel`]
//!   (the same infant-mortality model the RAID layout uses, so
//!   comparisons hold the hardware fixed). Every failure is one disk
//!   replacement; the disk rejoins with a fresh lifetime after
//!   [`ReplicationConfig::replacement_hours`].
//! * **Re-replication** — a failed disk's objects are *exposed* (one
//!   replica short) until the background copy completes after
//!   [`ReplicationConfig::re_replication_hours`].
//! * **Data loss** — with many objects under random placement, losing `r`
//!   disks whose exposure windows overlap loses the objects that had all
//!   `r` replicas on exactly those disks; this kernel applies the standard
//!   pessimistic approximation that *any* `replicas` concurrently-exposed
//!   failures lose some object. Recovery (restore from a cold tier /
//!   re-ingest) takes [`ReplicationConfig::data_loss_recovery_hours`],
//!   during which the store is unavailable. Short of that, failures are
//!   masked by the surviving replicas and cost no availability.
//!
//! A replicated store is the [`Layout::Replicated`](crate::Layout) of the
//! one [`StorageSimulator`](crate::StorageSimulator): the mission engine
//! and statistics pipeline that run RAID tiers run it too, and it reports
//! the same [`StorageSummary`](crate::StorageSummary), so
//! replication-vs-RAID comparisons (at equal *usable* capacity — see
//! [`ReplicationConfig::for_usable_capacity`]) reduce to comparing
//! summaries.
//!
//! # Example
//!
//! ```
//! use probdist::stats::StoppingRule;
//! use raidsim::{DiskModel, ReplicationConfig, StorageSimulator};
//!
//! # fn main() -> Result<(), raidsim::RaidError> {
//! // 96 TB usable under 3-way replication with ABE's disks: 16 one-year
//! // missions at 95 % confidence on an auto-sized worker pool.
//! let config = ReplicationConfig::for_usable_capacity(96.0, 3, DiskModel::abe_sata_250gb());
//! let sim = StorageSimulator::new(config)?;
//! let summary = sim.run(8760.0, &StoppingRule::fixed(16)?, 7, 0.95, 0)?;
//! assert!(summary.availability.point > 0.999);
//! # Ok(())
//! # }
//! ```

use probdist::{Distribution, SimRng};
use serde::{Deserialize, Serialize};

use crate::storage::{Core, LayoutRules};
use crate::{DiskModel, RaidError};

/// Configuration of an n-way replicated object store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// Total number of disks in the cluster.
    pub disks: u32,
    /// Copies kept of every object (`r`); the store tolerates `r − 1`
    /// overlapping exposure windows without data loss.
    pub replicas: u32,
    /// Reliability model of each disk.
    pub disk: DiskModel,
    /// Hours until a failed disk's objects are fully re-replicated by the
    /// surviving cluster (the redundancy-restoration window; minutes to a
    /// few hours for a distributed store).
    pub re_replication_hours: f64,
    /// Hours to physically replace the failed drive (restores raw
    /// capacity; does not gate redundancy).
    pub replacement_hours: f64,
    /// Hours to restore lost objects from a cold tier after a data-loss
    /// event, during which the store is unavailable.
    pub data_loss_recovery_hours: f64,
}

impl ReplicationConfig {
    /// A cluster sized to `usable_tb` terabytes of usable capacity under
    /// `replicas`-way replication: raw capacity is `replicas ×` usable, so
    /// the disk count is `⌈usable · replicas / disk capacity⌉`.
    ///
    /// Defaults mirror the ABE operational assumptions: 4-hour drive
    /// replacement, 2-hour distributed re-replication, 24-hour data-loss
    /// recovery.
    pub fn for_usable_capacity(usable_tb: f64, replicas: u32, disk: DiskModel) -> Self {
        let disks = (usable_tb * 1000.0 * replicas as f64 / disk.capacity_gb).ceil() as u32;
        ReplicationConfig {
            disks: disks.max(replicas),
            replicas,
            disk,
            re_replication_hours: 2.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        }
    }

    /// Usable capacity in terabytes (raw capacity divided by the
    /// replication factor).
    pub fn usable_capacity_tb(&self) -> f64 {
        self.disks as f64 * self.disk.capacity_gb / self.replicas as f64 / 1000.0
    }

    /// Storage overhead: raw bytes stored per usable byte (`r` for `r`-way
    /// replication; compare `(n+k)/n` for RAID).
    pub fn storage_overhead(&self) -> f64 {
        self.replicas as f64
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] describing the first problem
    /// found: fewer disks than replicas, a replication factor of zero, an
    /// invalid disk model, or non-positive repair windows.
    pub fn validate(&self) -> Result<(), RaidError> {
        if self.replicas == 0 {
            return Err(RaidError::InvalidConfig {
                reason: "replication factor must be at least 1".into(),
            });
        }
        if self.disks < self.replicas {
            return Err(RaidError::InvalidConfig {
                reason: format!(
                    "{} disks cannot host {}-way replication (need at least one disk per replica)",
                    self.disks, self.replicas
                ),
            });
        }
        self.disk.validate()?;
        if self.re_replication_hours <= 0.0
            || self.replacement_hours <= 0.0
            || self.data_loss_recovery_hours <= 0.0
        {
            return Err(RaidError::InvalidConfig {
                reason: "re-replication, replacement, and recovery times must be positive".into(),
            });
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// A disk's lifetime expired.
    DiskFailure { disk: u32, generation: u32 },
    /// One exposure window closed: a failed disk's objects regained full
    /// redundancy. Stamped with the store generation (not a disk) because
    /// a data-loss recovery closes every open window collectively.
    ReReplicated { store_generation: u32 },
    /// The replaced drive rejoined the cluster with a fresh lifetime.
    DiskReplaced { disk: u32, generation: u32 },
    /// Lost objects were restored from the cold tier.
    StoreRecovered { store_generation: u32 },
}

/// The replicated-store layout: the whole store is one redundancy group
/// whose exposure depth is the count of disks currently one replica short.
/// The store is in data-loss recovery exactly while the mission has a down
/// condition, since a recovery is the only one this layout raises.
#[derive(Debug, Clone)]
pub(crate) struct ReplicatedStore {
    config: ReplicationConfig,
    /// Disks whose objects are currently one replica short.
    exposed: u32,
    store_generation: u32,
}

impl ReplicatedStore {
    pub(crate) fn new(config: ReplicationConfig) -> Self {
        ReplicatedStore { config, exposed: 0, store_generation: 0 }
    }
}

impl LayoutRules for ReplicatedStore {
    type Kind = EventKind;

    fn disk_failure(disk: u32, generation: u32) -> EventKind {
        EventKind::DiskFailure { disk, generation }
    }

    fn disk_count(&self) -> u32 {
        self.config.disks
    }

    fn loss_level(&self) -> u32 {
        self.config.replicas
    }

    fn prime(&mut self, _core: &mut Core<EventKind>, _rng: &mut SimRng) {
        self.exposed = 0;
        self.store_generation = 0;
    }

    fn apply(&mut self, core: &mut Core<EventKind>, kind: EventKind, t: f64, rng: &mut SimRng) {
        let cfg = self.config;
        let in_recovery = core.down_conditions > 0;
        match kind {
            EventKind::DiskFailure { disk, generation: g } => {
                if g != core.generation[disk as usize] || core.failed[disk as usize] || in_recovery
                {
                    // Failures popping during a recovery window need no
                    // reschedule: StoreRecovered restarts *every* disk
                    // with a fresh lifetime and a bumped generation.
                    return;
                }
                core.failed[disk as usize] = true;
                core.replacements += 1;
                self.exposed += 1;
                core.exposure_peak = core.exposure_peak.max(self.exposed);
                core.schedule(
                    t + cfg.replacement_hours,
                    EventKind::DiskReplaced { disk, generation: g },
                );
                if self.exposed >= cfg.replicas {
                    // Pessimistic random-placement approximation: r
                    // overlapping exposure windows lose some object.
                    core.data_loss_events += 1;
                    core.down_conditions += 1;
                    self.store_generation += 1;
                    // The recovery restores full redundancy for every
                    // open window; bumping the store generation
                    // invalidates their pending ReReplicated events.
                    self.exposed = 0;
                    core.schedule(
                        t + cfg.data_loss_recovery_hours,
                        EventKind::StoreRecovered { store_generation: self.store_generation },
                    );
                } else {
                    core.schedule(
                        t + cfg.re_replication_hours,
                        EventKind::ReReplicated { store_generation: self.store_generation },
                    );
                }
            }
            EventKind::ReReplicated { store_generation: g } => {
                // A stale stamp means a data-loss recovery already
                // closed this window (and every other) collectively.
                if g != self.store_generation {
                    return;
                }
                // The window closes regardless of where the drive is in
                // the replacement pipeline — redundancy lives in the
                // surviving cluster, not in the replaced hardware.
                self.exposed = self.exposed.saturating_sub(1);
            }
            EventKind::DiskReplaced { disk, generation: g } => {
                if g != core.generation[disk as usize] || !core.failed[disk as usize] {
                    return;
                }
                core.failed[disk as usize] = false;
                core.schedule(
                    t + core.lifetime.sample(rng),
                    EventKind::DiskFailure { disk, generation: g },
                );
            }
            EventKind::StoreRecovered { store_generation: g } => {
                if g != self.store_generation || !in_recovery {
                    return;
                }
                core.down_conditions -= 1;
                // The recovery re-ingested the store's objects; every
                // disk — failed or healthy — restarts a fresh lifetime
                // cycle (the same freeze-and-reset the RAID layout
                // applies per tier). The generation bump invalidates
                // all pending per-disk events, including failures of
                // healthy disks that were dropped during the window.
                for disk in 0..cfg.disks {
                    core.failed[disk as usize] = false;
                    core.generation[disk as usize] += 1;
                    core.schedule(
                        t + core.lifetime.sample(rng),
                        EventKind::DiskFailure { disk, generation: core.generation[disk as usize] },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StorageSimulator;
    use probdist::stats::StoppingRule;

    fn fixed(replications: usize) -> StoppingRule {
        StoppingRule::fixed(replications).unwrap()
    }

    fn quick_config() -> ReplicationConfig {
        ReplicationConfig::for_usable_capacity(96.0, 3, DiskModel::abe_sata_250gb())
    }

    #[test]
    fn capacity_sizing_matches_the_replication_factor() {
        let c = quick_config();
        // 96 TB usable × 3 replicas / 250 GB per disk = 1152 disks.
        assert_eq!(c.disks, 1152);
        assert!((c.usable_capacity_tb() - 96.0).abs() < 0.25);
        assert_eq!(c.storage_overhead(), 3.0);
        assert!(c.validate().is_ok());

        // Tiny usable capacities still allocate one disk per replica.
        let tiny = ReplicationConfig::for_usable_capacity(0.001, 3, DiskModel::abe_sata_250gb());
        assert!(tiny.disks >= 3);
        assert!(tiny.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = quick_config();
        c.replicas = 0;
        assert!(c.validate().is_err());

        let mut c = quick_config();
        c.disks = 2;
        assert!(c.validate().is_err());

        let mut c = quick_config();
        c.re_replication_hours = 0.0;
        assert!(c.validate().is_err());

        let mut c = quick_config();
        c.disk.mtbf_hours = -1.0;
        assert!(StorageSimulator::new(c).is_err());
    }

    #[test]
    fn run_validates_parameters() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        assert!(sim.run(0.0, &fixed(8), 1, 0.95, 0).is_err());
        assert!(sim.run(-10.0, &fixed(8), 1, 0.95, 0).is_err());
        assert!(StoppingRule::fixed(1).is_err());
        assert!(sim.run(100.0, &fixed(8), 1, 1.5, 1).is_err());
    }

    #[test]
    fn three_way_replication_is_essentially_always_available() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        let summary = sim.run(8760.0, &fixed(16), 3, 0.95, 0).unwrap();
        // Infant-mortality burn-in (all 1152 disks start at age 0) makes a
        // rare triple-overlap possible, so "essentially" is > 99.9 %, not
        // five nines.
        assert!(summary.availability.point > 0.999, "availability {}", summary.availability.point);
        assert!(summary.prob_any_data_loss < 0.5);
        // ~1152 disks at a 300k-hour MTBF: a few replacements a week.
        assert!(summary.replacements_per_week.point > 0.5);
        assert!(summary.replacements_per_week.point < 10.0);
    }

    #[test]
    fn fewer_replicas_lose_more_data() {
        // Stress the redundancy dimension at a *fixed disk count* (equal
        // capacity would give the 3-way store proportionally more disks
        // and wash out the comparison): unreliable disks with a slow
        // re-replication pipeline, identical hardware either side.
        let disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 5_000.0, capacity_gb: 250.0 };
        let base = ReplicationConfig {
            disks: 100,
            replicas: 2,
            disk,
            re_replication_hours: 48.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let two = base;
        let three = ReplicationConfig { replicas: 3, ..base };

        let s2 = StorageSimulator::new(two).unwrap().run(8760.0, &fixed(16), 11, 0.95, 0).unwrap();
        let s3 =
            StorageSimulator::new(three).unwrap().run(8760.0, &fixed(16), 11, 0.95, 0).unwrap();
        assert!(
            s2.data_loss_events.point > s3.data_loss_events.point,
            "2-way {} vs 3-way {}",
            s2.data_loss_events.point,
            s3.data_loss_events.point
        );
        assert!(s2.availability.point <= s3.availability.point + 1e-12);
    }

    #[test]
    fn faster_re_replication_narrows_the_exposure_window() {
        let disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 2_000.0, capacity_gb: 250.0 };
        let mut slow = ReplicationConfig::for_usable_capacity(24.0, 2, disk);
        slow.re_replication_hours = 96.0;
        let mut fast = slow;
        fast.re_replication_hours = 0.5;

        let s = StorageSimulator::new(slow).unwrap().run(8760.0, &fixed(16), 5, 0.95, 0).unwrap();
        let f = StorageSimulator::new(fast).unwrap().run(8760.0, &fixed(16), 5, 0.95, 0).unwrap();
        assert!(
            f.data_loss_events.point < s.data_loss_events.point,
            "fast {} vs slow {}",
            f.data_loss_events.point,
            s.data_loss_events.point
        );
    }

    /// Regression: a healthy disk whose failure event lands inside a
    /// data-loss recovery window used to become immortal (the event was
    /// consumed without a reschedule and `StoreRecovered` only restarted
    /// disks marked failed). Failure activity must be sustained across
    /// many recoveries.
    #[test]
    fn disks_keep_failing_after_data_loss_recoveries() {
        let disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 10.0, capacity_gb: 250.0 };
        let config = ReplicationConfig {
            disks: 2,
            replicas: 2,
            disk,
            // Windows far longer than lifetimes: every second failure
            // overlaps and triggers a recovery.
            re_replication_hours: 1000.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let summary = sim.run(5000.0, &fixed(8), 3, 0.95, 0).unwrap();
        // With ~10-hour lifetimes the loss/recover cycle repeats for the
        // whole mission; the immortal-disk bug froze it after the first
        // few events.
        assert!(
            summary.data_loss_events.point > 20.0,
            "recoveries must repeat all mission long, got {}",
            summary.data_loss_events.point
        );
        assert!(
            summary.replacements_per_week.point > 3.0,
            "failure activity must be sustained, got {} replacements/week",
            summary.replacements_per_week.point
        );
    }

    /// Regression: with `replacement_hours < re_replication_hours` the
    /// exposure counter used to leak (+1 per failure, never closed once
    /// the drive was replaced), manufacturing data-loss events from
    /// failures whose windows never overlapped.
    #[test]
    fn non_overlapping_exposure_windows_never_lose_data() {
        let disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 50_000.0, capacity_gb: 250.0 };
        let config = ReplicationConfig {
            disks: 6,
            replicas: 3,
            disk,
            re_replication_hours: 48.0,
            replacement_hours: 1.0, // drive back long before the window closes
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let summary = sim.run(30_000.0, &fixed(16), 9, 0.95, 0).unwrap();
        // ~3.6 failures per mission, ~50k hours apart on average, 48-hour
        // windows: a genuine triple overlap is essentially impossible, but
        // the leak made `exposed` hit 3 after any three lifetime failures.
        assert!(
            summary.data_loss_events.point < 0.1,
            "no data loss without overlapping windows, got {}",
            summary.data_loss_events.point
        );
        assert!(summary.replacements_per_week.point > 0.0);
    }

    #[test]
    fn results_are_deterministic_and_worker_invariant() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        let a = sim.run(4380.0, &fixed(8), 21, 0.95, 1).unwrap();
        let b = sim.run(4380.0, &fixed(8), 21, 0.95, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_run_stops_within_bounds_and_matches_fixed() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        let rule = StoppingRule::new(0.25, 4, 32).unwrap();
        let adaptive = sim.run(8760.0, &rule, 9, 0.95, 2).unwrap();
        assert!(
            adaptive.replications >= 4 && adaptive.replications <= 32,
            "used {} replications",
            adaptive.replications
        );
        let fixed = sim.run(8760.0, &fixed(adaptive.replications), 9, 0.95, 1).unwrap();
        assert_eq!(adaptive, fixed);
        assert!(sim.run(0.0, &rule, 9, 0.95, 1).is_err());
    }
}
