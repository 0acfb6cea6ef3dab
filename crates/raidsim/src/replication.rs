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
//!   (the same infant-mortality model the RAID simulator uses, so
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
//! The results are reported as the same [`StorageSummary`] the RAID
//! simulator produces, through the same statistics pipeline, so
//! replication-vs-RAID comparisons (at equal *usable* capacity — see
//! [`ReplicationConfig::for_usable_capacity`]) reduce to comparing
//! summaries.
//!
//! # Example
//!
//! ```
//! use probdist::stats::StoppingRule;
//! use raidsim::{DiskModel, ReplicationConfig, ReplicationSimulator};
//!
//! # fn main() -> Result<(), raidsim::RaidError> {
//! // 96 TB usable under 3-way replication with ABE's disks: 16 one-year
//! // missions at 95 % confidence on an auto-sized worker pool.
//! let config = ReplicationConfig::for_usable_capacity(96.0, 3, DiskModel::abe_sata_250gb());
//! let sim = ReplicationSimulator::new(config)?;
//! let summary = sim.run(8760.0, &StoppingRule::fixed(16)?, 7, 0.95, 0)?;
//! assert!(summary.availability.point > 0.999);
//! # Ok(())
//! # }
//! ```

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use probdist::stats::StoppingRule;
use probdist::{Distribution, SimRng, Weibull};
use serde::{Deserialize, Serialize};

use crate::storage::run_missions;
use crate::{DiskModel, RaidError, StorageRunStats, StorageSummary};

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

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
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

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    kind: EventKind,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse the time ordering so BinaryHeap pops the earliest event.
        other.time.total_cmp(&self.time)
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Event-driven Monte-Carlo simulator of an n-way replicated object store.
///
/// See the module documentation for the modelled failure, re-replication,
/// and data-loss behaviour.
#[derive(Debug, Clone)]
pub struct ReplicationSimulator {
    config: ReplicationConfig,
    lifetime: Weibull,
}

impl ReplicationSimulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: ReplicationConfig) -> Result<Self, RaidError> {
        config.validate()?;
        let lifetime = config.disk.lifetime()?;
        Ok(ReplicationSimulator { config, lifetime })
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &ReplicationConfig {
        &self.config
    }

    /// Runs missions of `horizon_hours` each under `rule` and aggregates
    /// them at `confidence_level` — the same mission driver and contract
    /// as [`crate::StorageSimulator::run`]: a fixed rule runs exactly `n`
    /// missions, an adaptive one stops when availability and replacements
    /// per week meet its target, and any worker count yields bit-identical
    /// statistics.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidRun`] for a non-positive horizon or a
    /// confidence level outside `(0, 1)`.
    pub fn run(
        &self,
        horizon_hours: f64,
        rule: &StoppingRule,
        seed: u64,
        confidence_level: f64,
        workers: usize,
    ) -> Result<StorageSummary, RaidError> {
        run_missions(horizon_hours, rule, seed, confidence_level, workers, |rng, slot| {
            self.run_once_reusing(horizon_hours, rng, slot)
        })
    }

    /// Runs a single mission and returns its raw statistics.
    pub fn run_once(&self, horizon_hours: f64, rng: &mut SimRng) -> StorageRunStats {
        let mut mission = self.start_mission(horizon_hours, rng);
        mission.advance(rng, None);
        let stats = mission.finish();
        super::storage::record_mission(&stats);
        stats
    }

    /// Runs a single mission, reusing the mission in `slot` as scratch when
    /// present (and stashing a fresh one there otherwise). Re-priming draws
    /// initial lifetimes in exactly the order
    /// [`ReplicationSimulator::start_mission`] does, so the statistics are
    /// bit-identical to [`ReplicationSimulator::run_once`] with the same RNG
    /// stream — only the allocations differ.
    pub fn run_once_reusing(
        &self,
        horizon_hours: f64,
        rng: &mut SimRng,
        slot: &mut Option<ReplicationMission>,
    ) -> StorageRunStats {
        match slot {
            Some(mission) => mission.reprime(horizon_hours, rng),
            None => *slot = Some(self.start_mission(horizon_hours, rng)),
        }
        let mission = slot.as_mut().expect("mission was just initialised");
        mission.advance(rng, None);
        let stats = mission.stats();
        super::storage::record_mission(&stats);
        stats
    }

    /// Starts a mission in resumable form: the initial lifetimes are drawn
    /// and the event calendar is primed, but no event has been processed.
    /// [`ReplicationMission::advance`] then runs it — to the horizon, or
    /// only until an exposure-depth level is first reached, which is the
    /// primitive the multilevel-splitting estimator
    /// ([`crate::splitting`]) restarts trials from.
    pub fn start_mission(&self, horizon_hours: f64, rng: &mut SimRng) -> ReplicationMission {
        let disks = self.config.disks;
        let mut queue: BinaryHeap<Event> = BinaryHeap::with_capacity(disks as usize + 8);
        prime_events(&self.lifetime, disks, &mut queue, rng);
        ReplicationMission {
            config: self.config,
            lifetime: self.lifetime,
            horizon_hours,
            queue,
            generation: vec![0u32; disks as usize],
            failed: vec![false; disks as usize],
            exposed: 0,
            exposure_peak: 0,
            store_generation: 0,
            in_recovery: false,
            last_time: 0.0,
            downtime: 0.0,
            data_loss_events: 0,
            replacements: 0,
        }
    }
}

/// Primes a mission's event calendar: one lifetime draw per disk. The draw
/// order here *is* the RNG contract shared by
/// [`ReplicationSimulator::start_mission`] and
/// [`ReplicationMission::reprime`]; keep both call sites on this single
/// helper so they cannot drift apart.
fn prime_events(lifetime: &Weibull, disks: u32, queue: &mut BinaryHeap<Event>, rng: &mut SimRng) {
    for disk in 0..disks {
        queue.push(Event {
            time: lifetime.sample(rng),
            kind: EventKind::DiskFailure { disk, generation: 0 },
        });
    }
}

/// One replication-store mission in resumable form: the full Markov state
/// of the event-driven kernel (pending events, per-disk state, exposure
/// and recovery bookkeeping, and the downtime accumulators).
///
/// A mission is `Clone`, so the multilevel-splitting estimator can
/// snapshot it the moment an exposure level is first reached and restart
/// many continuation trials from the same state, each with its own RNG
/// stream — the cloned calendar carries the already-drawn future event
/// times (part of the Markov state), while everything sampled after the
/// snapshot comes from the continuation's stream.
#[derive(Debug, Clone)]
pub struct ReplicationMission {
    config: ReplicationConfig,
    lifetime: Weibull,
    horizon_hours: f64,
    queue: BinaryHeap<Event>,
    generation: Vec<u32>,
    failed: Vec<bool>,
    /// Disks whose objects are currently one replica short.
    exposed: u32,
    /// Highest concurrent exposure count seen so far (monotone — the
    /// splitting level function).
    exposure_peak: u32,
    store_generation: u32,
    in_recovery: bool,
    last_time: f64,
    downtime: f64,
    data_loss_events: u64,
    replacements: u64,
}

impl ReplicationMission {
    /// Highest concurrent exposure depth reached so far: `replicas`
    /// concurrently exposed disks is the data-loss level.
    pub fn exposure_peak(&self) -> u32 {
        self.exposure_peak
    }

    /// Data-loss events recorded so far.
    pub fn data_loss_events(&self) -> u64 {
        self.data_loss_events
    }

    /// The exposure depth at which this mission's store loses data.
    pub fn loss_level(&self) -> u32 {
        self.config.replicas
    }

    /// Processes events forward. With `stop_at_exposure = Some(level)` the
    /// mission pauses right after the event that first lifts the exposure
    /// peak to `level`, returning `true`; otherwise it runs to the horizon
    /// and returns `false`. A paused mission resumes with a later call.
    pub fn advance(&mut self, rng: &mut SimRng, stop_at_exposure: Option<u32>) -> bool {
        if let Some(level) = stop_at_exposure {
            if self.exposure_peak >= level {
                return true;
            }
        }
        let cfg = self.config;
        let disks = cfg.disks;
        let replicas = cfg.replicas;
        while let Some(event) = self.queue.pop() {
            let t = event.time;
            if t > self.horizon_hours {
                // Leave the popped event discarded, exactly as the
                // non-resumable kernel did: the mission is over.
                break;
            }
            if self.in_recovery {
                self.downtime += t - self.last_time;
            }
            self.last_time = t;

            match event.kind {
                EventKind::DiskFailure { disk, generation: g } => {
                    if g != self.generation[disk as usize]
                        || self.failed[disk as usize]
                        || self.in_recovery
                    {
                        // Failures popping during a recovery window need no
                        // reschedule: StoreRecovered restarts *every* disk
                        // with a fresh lifetime and a bumped generation.
                        continue;
                    }
                    self.failed[disk as usize] = true;
                    self.replacements += 1;
                    self.exposed += 1;
                    self.exposure_peak = self.exposure_peak.max(self.exposed);
                    self.queue.push(Event {
                        time: t + cfg.replacement_hours,
                        kind: EventKind::DiskReplaced { disk, generation: g },
                    });
                    if self.exposed >= replicas {
                        // Pessimistic random-placement approximation: r
                        // overlapping exposure windows lose some object.
                        self.data_loss_events += 1;
                        self.in_recovery = true;
                        self.store_generation += 1;
                        // The recovery restores full redundancy for every
                        // open window; bumping the store generation
                        // invalidates their pending ReReplicated events.
                        self.exposed = 0;
                        self.queue.push(Event {
                            time: t + cfg.data_loss_recovery_hours,
                            kind: EventKind::StoreRecovered {
                                store_generation: self.store_generation,
                            },
                        });
                    } else {
                        self.queue.push(Event {
                            time: t + cfg.re_replication_hours,
                            kind: EventKind::ReReplicated {
                                store_generation: self.store_generation,
                            },
                        });
                    }
                    if let Some(level) = stop_at_exposure {
                        if self.exposure_peak >= level {
                            return true;
                        }
                    }
                }
                EventKind::ReReplicated { store_generation: g } => {
                    // A stale stamp means a data-loss recovery already
                    // closed this window (and every other) collectively.
                    if g != self.store_generation {
                        continue;
                    }
                    // The window closes regardless of where the drive is in
                    // the replacement pipeline — redundancy lives in the
                    // surviving cluster, not in the replaced hardware.
                    self.exposed = self.exposed.saturating_sub(1);
                }
                EventKind::DiskReplaced { disk, generation: g } => {
                    if g != self.generation[disk as usize] || !self.failed[disk as usize] {
                        continue;
                    }
                    self.failed[disk as usize] = false;
                    self.queue.push(Event {
                        time: t + self.lifetime.sample(rng),
                        kind: EventKind::DiskFailure { disk, generation: g },
                    });
                }
                EventKind::StoreRecovered { store_generation: g } => {
                    if g != self.store_generation || !self.in_recovery {
                        continue;
                    }
                    self.in_recovery = false;
                    // The recovery re-ingested the store's objects; every
                    // disk — failed or healthy — restarts a fresh lifetime
                    // cycle (the same freeze-and-reset the RAID simulator
                    // applies per tier). The generation bump invalidates
                    // all pending per-disk events, including failures of
                    // healthy disks that were dropped during the window.
                    for disk in 0..disks {
                        self.failed[disk as usize] = false;
                        self.generation[disk as usize] += 1;
                        self.queue.push(Event {
                            time: t + self.lifetime.sample(rng),
                            kind: EventKind::DiskFailure {
                                disk,
                                generation: self.generation[disk as usize],
                            },
                        });
                    }
                }
            }
        }
        false
    }

    /// Resets this mission in place to the state
    /// [`ReplicationSimulator::start_mission`] would produce for the same
    /// configuration, reusing the event queue and per-disk buffers.
    fn reprime(&mut self, horizon_hours: f64, rng: &mut SimRng) {
        let disks = self.config.disks;
        self.horizon_hours = horizon_hours;
        self.queue.clear();
        self.generation.clear();
        self.generation.resize(disks as usize, 0);
        self.failed.clear();
        self.failed.resize(disks as usize, false);
        self.exposed = 0;
        self.exposure_peak = 0;
        self.store_generation = 0;
        self.in_recovery = false;
        self.last_time = 0.0;
        self.downtime = 0.0;
        self.data_loss_events = 0;
        self.replacements = 0;
        let ReplicationMission { lifetime, queue, .. } = self;
        prime_events(lifetime, disks, queue, rng);
    }

    /// Raw statistics of the mission so far, with the open interval since
    /// the last event closed up to the horizon. Call after
    /// [`ReplicationMission::advance`] ran to the horizon.
    pub fn stats(&self) -> StorageRunStats {
        let mut downtime = self.downtime;
        // Close the interval up to the horizon.
        if self.in_recovery {
            downtime += self.horizon_hours - self.last_time;
        }
        StorageRunStats {
            downtime_hours: downtime,
            data_loss_events: self.data_loss_events,
            disk_replacements: self.replacements,
            controller_downtime_hours: 0.0,
            horizon_hours: self.horizon_hours,
        }
    }

    /// Closes the mission and returns its raw statistics. Call after
    /// [`ReplicationMission::advance`] ran to the horizon.
    pub fn finish(self) -> StorageRunStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(ReplicationSimulator::new(c).is_err());
    }

    #[test]
    fn run_validates_parameters() {
        let sim = ReplicationSimulator::new(quick_config()).unwrap();
        assert!(sim.run(0.0, &fixed(8), 1, 0.95, 0).is_err());
        assert!(sim.run(-10.0, &fixed(8), 1, 0.95, 0).is_err());
        assert!(StoppingRule::fixed(1).is_err());
        assert!(sim.run(100.0, &fixed(8), 1, 1.5, 1).is_err());
    }

    #[test]
    fn three_way_replication_is_essentially_always_available() {
        let sim = ReplicationSimulator::new(quick_config()).unwrap();
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

        let s2 =
            ReplicationSimulator::new(two).unwrap().run(8760.0, &fixed(16), 11, 0.95, 0).unwrap();
        let s3 =
            ReplicationSimulator::new(three).unwrap().run(8760.0, &fixed(16), 11, 0.95, 0).unwrap();
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

        let s =
            ReplicationSimulator::new(slow).unwrap().run(8760.0, &fixed(16), 5, 0.95, 0).unwrap();
        let f =
            ReplicationSimulator::new(fast).unwrap().run(8760.0, &fixed(16), 5, 0.95, 0).unwrap();
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
        let sim = ReplicationSimulator::new(config).unwrap();
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
        let sim = ReplicationSimulator::new(config).unwrap();
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
        let sim = ReplicationSimulator::new(quick_config()).unwrap();
        let a = sim.run(4380.0, &fixed(8), 21, 0.95, 1).unwrap();
        let b = sim.run(4380.0, &fixed(8), 21, 0.95, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adaptive_run_stops_within_bounds_and_matches_fixed() {
        let sim = ReplicationSimulator::new(quick_config()).unwrap();
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
