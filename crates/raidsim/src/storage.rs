use std::cmp::Ordering;
use std::collections::BinaryHeap;

use probdist::stats::{
    confidence_interval, run_to_precision, ConfidenceInterval, RunningStats, StoppingRule,
};
use probdist::{Distribution, Exponential, SimRng, Weibull};
use serde::{Deserialize, Serialize};

use crate::{RaidError, StorageConfig};

/// Hours per week, used for replacement-rate normalisation.
const HOURS_PER_WEEK: f64 = 168.0;

/// Raw statistics of a single Monte-Carlo replication.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageRunStats {
    /// Hours during which the storage system was unavailable (a tier in
    /// data-loss recovery or a DDN controller pair entirely failed).
    pub downtime_hours: f64,
    /// Number of unrecoverable tier failures (more concurrent disk failures
    /// than parity).
    pub data_loss_events: u64,
    /// Number of disk replacements performed.
    pub disk_replacements: u64,
    /// Hours during which at least one controller pair was entirely failed.
    pub controller_downtime_hours: f64,
    /// Length of the simulated mission, hours.
    pub horizon_hours: f64,
}

impl StorageRunStats {
    /// Availability over the mission: `1 − downtime / horizon`.
    pub fn availability(&self) -> f64 {
        (1.0 - self.downtime_hours / self.horizon_hours).clamp(0.0, 1.0)
    }

    /// Disk replacements per week.
    pub fn replacements_per_week(&self) -> f64 {
        self.disk_replacements as f64 / (self.horizon_hours / HOURS_PER_WEEK)
    }
}

/// Aggregated results over many replications, reported with 95 % confidence
/// intervals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageSummary {
    /// Storage availability.
    pub availability: ConfidenceInterval,
    /// Average disk replacements per week.
    pub replacements_per_week: ConfidenceInterval,
    /// Average number of data-loss events per mission.
    pub data_loss_events: ConfidenceInterval,
    /// Fraction of replications that suffered at least one data-loss event.
    pub prob_any_data_loss: f64,
    /// Number of replications run.
    pub replications: usize,
    /// Mission length, hours.
    pub horizon_hours: f64,
}

/// Validates the shared run parameters of both storage Monte-Carlo
/// engines (the RAID simulator and [`crate::replication`]) and their
/// splitting estimators: a positive finite horizon and a confidence level
/// in `(0, 1)`.
pub(crate) fn validate_run(horizon_hours: f64, confidence_level: f64) -> Result<(), RaidError> {
    if !(horizon_hours.is_finite() && horizon_hours > 0.0) {
        return Err(RaidError::InvalidRun {
            reason: format!("horizon must be positive, got {horizon_hours}"),
        });
    }
    if !(confidence_level > 0.0 && confidence_level < 1.0) {
        return Err(RaidError::InvalidRun {
            reason: format!("confidence level must be in (0, 1), got {confidence_level}"),
        });
    }
    Ok(())
}

/// Telemetry flush for one completed mission: one mission counted, its
/// data-loss events added. Called by both storage kernels' `run_once` /
/// `run_once_reusing` — the replication-path entry points — so the counts
/// are a pure function of the executed replication set.
pub(crate) fn record_mission(stats: &StorageRunStats) {
    use probdist::telemetry::{counter_add, counter_inc, MetricId};
    counter_inc(MetricId::RaidMissions);
    counter_add(MetricId::RaidLossEvents, stats.data_loss_events);
}

/// The mission driver both storage simulators run through: validates the
/// run parameters, fans replications out with one mission per worker as
/// scratch (after its first replication, later missions re-prime the same
/// event queue and per-disk state in place instead of allocating afresh),
/// stops under `rule` on availability and replacements per week, and
/// summarises.
///
/// Data-loss events are not tracked by the rule: a rare-event count has a
/// near-zero mean, so its *relative* width is ill-defined and would force
/// every run to the cap. Replication `i` draws from the stream derived from
/// `(seed, i)` and results reduce in index order, so the summary is
/// bit-identical for any worker count, and an adaptive run of `n`
/// replications is bit-identical to a fixed run of `n`.
pub(crate) fn run_missions<M>(
    horizon_hours: f64,
    rule: &StoppingRule,
    seed: u64,
    confidence_level: f64,
    workers: usize,
    mission: impl Fn(&mut SimRng, &mut Option<M>) -> StorageRunStats + Sync,
) -> Result<StorageSummary, RaidError> {
    validate_run(horizon_hours, confidence_level)?;
    let root = SimRng::seed_from_u64(seed);
    let runs = run_to_precision(
        rule,
        |range| -> Result<Vec<StorageRunStats>, RaidError> {
            Ok(probdist::parallel::replicate_with(
                range,
                &root,
                workers,
                None,
                || None,
                |_, rng, slot| mission(rng, slot),
            ))
        },
        |runs: &[StorageRunStats]| -> Result<bool, RaidError> {
            let availability: RunningStats =
                runs.iter().map(StorageRunStats::availability).collect();
            let per_week: RunningStats =
                runs.iter().map(StorageRunStats::replacements_per_week).collect();
            for stats in [&availability, &per_week] {
                if !rule.met_by(&confidence_interval(stats, confidence_level)?) {
                    return Ok(false);
                }
            }
            Ok(true)
        },
    )?;
    summarise_runs(&runs, horizon_hours, confidence_level)
}

/// Aggregates raw replication results into a [`StorageSummary`] at the
/// given confidence level.
fn summarise_runs(
    runs: &[StorageRunStats],
    horizon_hours: f64,
    confidence_level: f64,
) -> Result<StorageSummary, RaidError> {
    let availability: RunningStats = runs.iter().map(StorageRunStats::availability).collect();
    let per_week: RunningStats = runs.iter().map(StorageRunStats::replacements_per_week).collect();
    let losses: RunningStats = runs.iter().map(|r| r.data_loss_events as f64).collect();
    let any_loss = runs.iter().filter(|r| r.data_loss_events > 0).count();

    Ok(StorageSummary {
        availability: confidence_interval(&availability, confidence_level)?,
        replacements_per_week: confidence_interval(&per_week, confidence_level)?,
        data_loss_events: confidence_interval(&losses, confidence_level)?,
        prob_any_data_loss: any_loss as f64 / runs.len() as f64,
        replications: runs.len(),
        horizon_hours,
    })
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    DiskFailure { disk: u32, generation: u32 },
    DiskRestored { disk: u32, generation: u32 },
    TierRecovered { tier: u32, generation: u32 },
    ControllerFailure { unit: u32, slot: u8 },
    ControllerRepaired { unit: u32, slot: u8 },
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

/// Event-driven Monte-Carlo simulator of a scratch-partition storage system.
///
/// See the crate-level documentation for the modelled failure and recovery
/// behaviour.
#[derive(Debug, Clone)]
pub struct StorageSimulator {
    config: StorageConfig,
    lifetime: Weibull,
}

impl StorageSimulator {
    /// Creates a simulator for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(config: StorageConfig) -> Result<Self, RaidError> {
        config.validate()?;
        let lifetime = config.disk.lifetime()?;
        Ok(StorageSimulator { config, lifetime })
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Runs missions of `horizon_hours` each under `rule` — exactly `n`
    /// for [`StoppingRule::fixed`], otherwise batches until availability
    /// and replacements per week both meet the rule's relative target or
    /// its cap is reached — and aggregates them at `confidence_level`.
    /// `workers == 0` uses the machine's available parallelism; `1` forces
    /// serial execution. Any worker count yields bit-identical statistics,
    /// and the summary's `replications` field records the count used.
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
        record_mission(&stats);
        stats
    }

    /// Runs a single mission, reusing the mission in `slot` as scratch when
    /// present (and stashing a fresh one there otherwise). Re-priming draws
    /// initial lifetimes in exactly the order [`StorageSimulator::start_mission`]
    /// does, so the statistics are bit-identical to [`StorageSimulator::run_once`]
    /// with the same RNG stream — only the allocations differ.
    pub fn run_once_reusing(
        &self,
        horizon_hours: f64,
        rng: &mut SimRng,
        slot: &mut Option<StorageMission>,
    ) -> StorageRunStats {
        match slot {
            Some(mission) => mission.reprime(horizon_hours, rng),
            None => *slot = Some(self.start_mission(horizon_hours, rng)),
        }
        let mission = slot.as_mut().expect("mission was just initialised");
        mission.advance(rng, None);
        let stats = mission.stats();
        record_mission(&stats);
        stats
    }

    /// Starts a mission in resumable form: initial disk lifetimes (and
    /// controller failure times, when configured) are drawn and the event
    /// calendar is primed, but no event has been processed.
    /// [`StorageMission::advance`] then runs it — to the horizon, or only
    /// until an exposure-depth level (concurrent failed disks within one
    /// tier) is first reached, the restart primitive of the
    /// multilevel-splitting estimator ([`crate::splitting`]).
    pub fn start_mission(&self, horizon_hours: f64, rng: &mut SimRng) -> StorageMission {
        let cfg = &self.config;
        let total_disks = cfg.total_disks();
        let mut queue: BinaryHeap<Event> = BinaryHeap::with_capacity(total_disks as usize + 8);
        let controller_dist = cfg
            .controllers
            .map(|c| Exponential::new(c.failure_rate_per_hour).expect("validated controller rate"));
        prime_events(&self.lifetime, controller_dist.as_ref(), cfg, &mut queue, rng);
        StorageMission {
            config: self.config.clone(),
            lifetime: self.lifetime,
            controller_dist,
            horizon_hours,
            queue,
            disk_generation: vec![0u32; total_disks as usize],
            disk_failed: vec![false; total_disks as usize],
            tier_failed_count: vec![0u32; cfg.tiers as usize],
            tier_in_recovery: vec![false; cfg.tiers as usize],
            tier_generation: vec![0u32; cfg.tiers as usize],
            controller_failed: vec![[false, false]; cfg.ddn_units as usize],
            exposure_peak: 0,
            down_conditions: 0,
            controller_down_units: 0,
            last_time: 0.0,
            downtime: 0.0,
            controller_downtime: 0.0,
            data_loss_events: 0,
            replacements: 0,
        }
    }
}

/// Primes a mission's event calendar: one lifetime draw per disk, then one
/// failure draw per controller slot. The draw order here *is* the RNG
/// contract shared by [`StorageSimulator::start_mission`] and
/// [`StorageMission::reprime`]; keep the two call sites on this single
/// helper so they cannot drift apart.
fn prime_events(
    lifetime: &Weibull,
    controller_dist: Option<&Exponential>,
    cfg: &StorageConfig,
    queue: &mut BinaryHeap<Event>,
    rng: &mut SimRng,
) {
    for disk in 0..cfg.total_disks() {
        queue.push(Event {
            time: lifetime.sample(rng),
            kind: EventKind::DiskFailure { disk, generation: 0 },
        });
    }
    if let Some(dist) = controller_dist {
        for unit in 0..cfg.ddn_units {
            for slot in 0..2u8 {
                queue.push(Event {
                    time: dist.sample(rng),
                    kind: EventKind::ControllerFailure { unit, slot },
                });
            }
        }
    }
}

/// One RAID-storage mission in resumable form: the full Markov state of
/// the event-driven kernel (pending events, per-disk and per-tier state,
/// controller pairs, and the downtime accumulators).
///
/// A mission is `Clone`, so the multilevel-splitting estimator can
/// snapshot it the moment an exposure level — concurrent failed disks
/// within a single tier — is first reached and restart many continuation
/// trials from the same state, each with its own RNG stream.
#[derive(Debug, Clone)]
pub struct StorageMission {
    config: StorageConfig,
    lifetime: Weibull,
    controller_dist: Option<Exponential>,
    horizon_hours: f64,
    queue: BinaryHeap<Event>,
    disk_generation: Vec<u32>,
    disk_failed: Vec<bool>,
    tier_failed_count: Vec<u32>,
    tier_in_recovery: Vec<bool>,
    tier_generation: Vec<u32>,
    controller_failed: Vec<[bool; 2]>,
    /// Highest concurrent failed-disk count seen in any single tier
    /// (monotone — the splitting level function).
    exposure_peak: u32,
    down_conditions: u32,
    controller_down_units: u32,
    last_time: f64,
    downtime: f64,
    controller_downtime: f64,
    data_loss_events: u64,
    replacements: u64,
}

impl StorageMission {
    /// Highest concurrent failed-disk count reached in any single tier:
    /// `parity + 1` is the data-loss level.
    pub fn exposure_peak(&self) -> u32 {
        self.exposure_peak
    }

    /// Data-loss events recorded so far.
    pub fn data_loss_events(&self) -> u64 {
        self.data_loss_events
    }

    /// The exposure depth at which a tier loses data (`parity + 1`).
    pub fn loss_level(&self) -> u32 {
        self.config.geometry.parity_disks + 1
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
        let disks_per_tier = self.config.geometry.disks_per_tier();
        let parity = self.config.geometry.parity_disks;
        let repair_time = self.config.replacement_hours + self.config.rebuild_hours;

        while let Some(event) = self.queue.pop() {
            let t = event.time;
            if t > self.horizon_hours {
                break;
            }
            // Accumulate downtime since the previous event.
            if self.down_conditions > 0 {
                self.downtime += t - self.last_time;
            }
            if self.controller_down_units > 0 {
                self.controller_downtime += t - self.last_time;
            }
            self.last_time = t;

            match event.kind {
                EventKind::DiskFailure { disk, generation } => {
                    if generation != self.disk_generation[disk as usize]
                        || self.disk_failed[disk as usize]
                    {
                        continue;
                    }
                    let tier = disk / disks_per_tier;
                    if self.tier_in_recovery[tier as usize] {
                        continue;
                    }
                    self.disk_failed[disk as usize] = true;
                    self.tier_failed_count[tier as usize] += 1;
                    self.exposure_peak =
                        self.exposure_peak.max(self.tier_failed_count[tier as usize]);
                    self.replacements += 1;

                    if self.tier_failed_count[tier as usize] > parity {
                        // Unrecoverable tier failure.
                        self.data_loss_events += 1;
                        self.tier_in_recovery[tier as usize] = true;
                        self.tier_generation[tier as usize] += 1;
                        self.down_conditions += 1;
                        // Invalidate every pending event of this tier's disks
                        // and clear their state; they come back fresh when the
                        // tier is restored.
                        let first = tier * disks_per_tier;
                        for d in first..first + disks_per_tier {
                            self.disk_generation[d as usize] += 1;
                            self.disk_failed[d as usize] = false;
                        }
                        self.tier_failed_count[tier as usize] = 0;
                        self.queue.push(Event {
                            time: t + self.config.data_loss_recovery_hours,
                            kind: EventKind::TierRecovered {
                                tier,
                                generation: self.tier_generation[tier as usize],
                            },
                        });
                    } else {
                        self.queue.push(Event {
                            time: t + repair_time,
                            kind: EventKind::DiskRestored { disk, generation },
                        });
                    }
                    if let Some(level) = stop_at_exposure {
                        if self.exposure_peak >= level {
                            return true;
                        }
                    }
                }
                EventKind::DiskRestored { disk, generation } => {
                    if generation != self.disk_generation[disk as usize]
                        || !self.disk_failed[disk as usize]
                    {
                        continue;
                    }
                    let tier = disk / disks_per_tier;
                    self.disk_failed[disk as usize] = false;
                    self.tier_failed_count[tier as usize] -= 1;
                    self.queue.push(Event {
                        time: t + self.lifetime.sample(rng),
                        kind: EventKind::DiskFailure { disk, generation },
                    });
                }
                EventKind::TierRecovered { tier, generation } => {
                    if generation != self.tier_generation[tier as usize]
                        || !self.tier_in_recovery[tier as usize]
                    {
                        continue;
                    }
                    self.tier_in_recovery[tier as usize] = false;
                    self.down_conditions -= 1;
                    // All disks in the tier start fresh.
                    let first = tier * disks_per_tier;
                    for d in first..first + disks_per_tier {
                        self.queue.push(Event {
                            time: t + self.lifetime.sample(rng),
                            kind: EventKind::DiskFailure {
                                disk: d,
                                generation: self.disk_generation[d as usize],
                            },
                        });
                    }
                }
                EventKind::ControllerFailure { unit, slot } => {
                    let pair = &mut self.controller_failed[unit as usize];
                    if pair[slot as usize] {
                        continue;
                    }
                    pair[slot as usize] = true;
                    if pair[0] && pair[1] {
                        self.controller_down_units += 1;
                        self.down_conditions += 1;
                    }
                    let repair = self
                        .config
                        .controllers
                        .expect("controller events only exist when configured")
                        .repair_hours;
                    self.queue.push(Event {
                        time: t + repair,
                        kind: EventKind::ControllerRepaired { unit, slot },
                    });
                }
                EventKind::ControllerRepaired { unit, slot } => {
                    let pair = &mut self.controller_failed[unit as usize];
                    if !pair[slot as usize] {
                        continue;
                    }
                    let was_double = pair[0] && pair[1];
                    pair[slot as usize] = false;
                    if was_double {
                        self.controller_down_units -= 1;
                        self.down_conditions -= 1;
                    }
                    if let Some(dist) = &self.controller_dist {
                        self.queue.push(Event {
                            time: t + dist.sample(rng),
                            kind: EventKind::ControllerFailure { unit, slot },
                        });
                    }
                }
            }
        }
        false
    }

    /// Resets this mission in place to the state
    /// [`StorageSimulator::start_mission`] would produce for the same
    /// configuration, reusing the event queue and per-disk/per-tier buffers.
    fn reprime(&mut self, horizon_hours: f64, rng: &mut SimRng) {
        let total_disks = self.config.total_disks() as usize;
        let tiers = self.config.tiers as usize;
        self.horizon_hours = horizon_hours;
        self.queue.clear();
        self.disk_generation.clear();
        self.disk_generation.resize(total_disks, 0);
        self.disk_failed.clear();
        self.disk_failed.resize(total_disks, false);
        self.tier_failed_count.clear();
        self.tier_failed_count.resize(tiers, 0);
        self.tier_in_recovery.clear();
        self.tier_in_recovery.resize(tiers, false);
        self.tier_generation.clear();
        self.tier_generation.resize(tiers, 0);
        self.controller_failed.clear();
        self.controller_failed.resize(self.config.ddn_units as usize, [false, false]);
        self.exposure_peak = 0;
        self.down_conditions = 0;
        self.controller_down_units = 0;
        self.last_time = 0.0;
        self.downtime = 0.0;
        self.controller_downtime = 0.0;
        self.data_loss_events = 0;
        self.replacements = 0;
        let StorageMission { config, lifetime, controller_dist, queue, .. } = self;
        prime_events(lifetime, controller_dist.as_ref(), config, queue, rng);
    }

    /// Raw statistics of the mission so far, with the open interval since
    /// the last event closed up to the horizon. Call after
    /// [`StorageMission::advance`] ran to the horizon.
    pub fn stats(&self) -> StorageRunStats {
        let mut downtime = self.downtime;
        let mut controller_downtime = self.controller_downtime;
        // Close the interval up to the horizon.
        if self.down_conditions > 0 {
            downtime += self.horizon_hours - self.last_time;
        }
        if self.controller_down_units > 0 {
            controller_downtime += self.horizon_hours - self.last_time;
        }
        StorageRunStats {
            downtime_hours: downtime,
            data_loss_events: self.data_loss_events,
            disk_replacements: self.replacements,
            controller_downtime_hours: controller_downtime,
            horizon_hours: self.horizon_hours,
        }
    }

    /// Closes the mission and returns its raw statistics. Call after
    /// [`StorageMission::advance`] ran to the horizon.
    pub fn finish(self) -> StorageRunStats {
        self.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiskModel, RaidGeometry};

    fn fixed(replications: usize) -> StoppingRule {
        StoppingRule::fixed(replications).unwrap()
    }

    fn quick_config() -> StorageConfig {
        let mut c = StorageConfig::abe_scratch();
        c.controllers = None;
        c
    }

    #[test]
    fn run_validates_parameters() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        assert!(sim.run(0.0, &fixed(8), 1, 0.95, 0).is_err());
        assert!(sim.run(-10.0, &fixed(8), 1, 0.95, 0).is_err());
        assert!(StoppingRule::fixed(1).is_err());
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut c = quick_config();
        c.tiers = 0;
        assert!(StorageSimulator::new(c).is_err());
    }

    #[test]
    fn abe_scale_availability_is_essentially_one() {
        // Figure 2, first data point: every configuration at ABE scale has
        // nearly 100 % storage availability.
        let sim = StorageSimulator::new(quick_config()).unwrap();
        let summary = sim.run(8760.0, &fixed(24), 3, 0.95, 0).unwrap();
        assert!(summary.availability.point > 0.9999, "availability {}", summary.availability.point);
        assert!(summary.prob_any_data_loss < 0.1);
    }

    #[test]
    fn abe_replacement_rate_is_zero_to_two_per_week() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        let summary = sim.run(8760.0, &fixed(24), 5, 0.95, 0).unwrap();
        let per_week = summary.replacements_per_week.point;
        assert!(per_week > 0.2 && per_week < 3.0, "replacements per week {per_week}");
    }

    #[test]
    fn replacement_rate_scales_linearly_with_disk_count() {
        let mut small = quick_config();
        small.tiers = 48;
        let mut large = quick_config();
        large.tiers = 480;
        let s = StorageSimulator::new(small).unwrap().run(4380.0, &fixed(16), 7, 0.95, 0).unwrap();
        let l = StorageSimulator::new(large).unwrap().run(4380.0, &fixed(16), 7, 0.95, 0).unwrap();
        let ratio = l.replacements_per_week.point / s.replacements_per_week.point;
        assert!((ratio - 10.0).abs() < 2.5, "ratio {ratio}");
    }

    #[test]
    fn weaker_redundancy_loses_more_data() {
        // RAID5 (8+1) with a very unreliable disk and slow replacement should
        // show clearly lower availability than RAID6 (8+2) at the same scale.
        let mut raid5 = quick_config();
        raid5.geometry = RaidGeometry::raid5_8p1();
        raid5.tiers = 480;
        raid5.ddn_units = 20;
        raid5.disk = DiskModel { weibull_shape: 0.7, mtbf_hours: 20_000.0, capacity_gb: 250.0 };
        raid5.replacement_hours = 24.0;
        raid5.rebuild_hours = 24.0;

        let mut raid6 = raid5.clone();
        raid6.geometry = RaidGeometry::raid6_8p2();

        let a5 =
            StorageSimulator::new(raid5).unwrap().run(8760.0, &fixed(16), 11, 0.95, 0).unwrap();
        let a6 =
            StorageSimulator::new(raid6).unwrap().run(8760.0, &fixed(16), 11, 0.95, 0).unwrap();
        assert!(a5.data_loss_events.point > a6.data_loss_events.point);
        assert!(a5.availability.point <= a6.availability.point + 1e-12);
    }

    #[test]
    fn more_parity_helps_at_petascale() {
        // (8+3) should be at least as available as (8+2) on a pessimistic
        // petascale configuration — the Blue Waters design argument.
        let mut base = quick_config();
        base.tiers = 960;
        base.ddn_units = 20;
        base.disk = DiskModel { weibull_shape: 0.6, mtbf_hours: 50_000.0, capacity_gb: 250.0 };
        base.replacement_hours = 12.0;
        base.rebuild_hours = 24.0;

        let mut plus3 = base.clone();
        plus3.geometry = RaidGeometry::raid_8p3();

        let a2 = StorageSimulator::new(base).unwrap().run(8760.0, &fixed(16), 13, 0.95, 0).unwrap();
        let a3 =
            StorageSimulator::new(plus3).unwrap().run(8760.0, &fixed(16), 13, 0.95, 0).unwrap();
        assert!(a3.availability.point >= a2.availability.point - 1e-6);
        assert!(a3.data_loss_events.point <= a2.data_loss_events.point + 1e-9);
    }

    #[test]
    fn controller_double_faults_cause_downtime_but_no_data_loss() {
        let mut c = quick_config();
        // Make controller failures frequent and repairs slow so double faults
        // are common, while disks are extremely reliable.
        c.controllers = Some(crate::ControllerModel {
            failure_rate_per_hour: 1.0 / 100.0,
            repair_hours: 100.0,
        });
        c.disk = DiskModel { weibull_shape: 1.0, mtbf_hours: 1e9, capacity_gb: 250.0 };
        let sim = StorageSimulator::new(c).unwrap();
        let summary = sim.run(8760.0, &fixed(16), 17, 0.95, 0).unwrap();
        assert!(summary.availability.point < 0.999, "controller faults should cause downtime");
        assert!(summary.data_loss_events.point < 1e-9);
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
        // Bit-identical to a fixed run of the same length and seed.
        let fixed = sim.run(8760.0, &fixed(adaptive.replications), 9, 0.95, 1).unwrap();
        assert_eq!(adaptive, fixed);
    }

    #[test]
    fn adaptive_run_validates_parameters() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        let rule = StoppingRule::new(0.25, 4, 32).unwrap();
        assert!(sim.run(0.0, &rule, 1, 0.95, 1).is_err());
        assert!(sim.run(100.0, &rule, 1, 1.5, 1).is_err());
    }

    #[test]
    fn results_are_deterministic_for_a_seed() {
        let sim = StorageSimulator::new(quick_config()).unwrap();
        let a = sim.run(4380.0, &fixed(8), 21, 0.95, 0).unwrap();
        let b = sim.run(4380.0, &fixed(8), 21, 0.95, 0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_stats_accessors() {
        let stats = StorageRunStats {
            downtime_hours: 87.36,
            data_loss_events: 1,
            disk_replacements: 52,
            controller_downtime_hours: 0.0,
            horizon_hours: 8736.0, // exactly 52 weeks
        };
        assert!((stats.availability() - 0.99).abs() < 1e-12);
        assert!((stats.replacements_per_week() - 1.0).abs() < 1e-9);
    }
}
