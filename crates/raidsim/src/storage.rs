use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use probdist::stats::{
    confidence_interval, run_to_precision, ConfidenceInterval, RunningStats, StoppingRule,
};
use probdist::telemetry::{counter_add, counter_inc, MetricId};
use probdist::{Distribution, Exponential, SimRng, Weibull};
use serde::{Deserialize, Serialize};

use crate::replication::ReplicatedStore;
use crate::splitting::{estimate_until, SplittingResult};
use crate::{RaidError, ReplicationConfig, StorageConfig};

/// Hours per week, used for replacement-rate normalisation.
const HOURS_PER_WEEK: f64 = 168.0;

/// Raw statistics of a single Monte-Carlo replication.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageRunStats {
    /// Hours during which the storage system was unavailable (a redundancy
    /// group in data-loss recovery or a DDN controller pair entirely
    /// failed).
    pub downtime_hours: f64,
    /// Number of unrecoverable group failures (more concurrent disk
    /// failures than the layout tolerates).
    pub data_loss_events: u64,
    /// Number of disk replacements performed.
    pub disk_replacements: u64,
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

/// The redundancy layout a [`StorageSimulator`] runs: which disks form a
/// redundancy group, when a group loses data, and how it recovers.
#[derive(Debug, Clone, PartialEq)]
pub enum Layout {
    /// `n+k` RAID tiers rebuilt onto replacement disks, with optional
    /// RAID-controller fail-over pairs (see the crate-level documentation).
    Raid(StorageConfig),
    /// An `r`-way replicated object store with background re-replication
    /// (see [`crate::replication`]).
    Replicated(ReplicationConfig),
}

impl Layout {
    /// Raw disks the layout provisions.
    pub fn total_disks(&self) -> u32 {
        match self {
            Layout::Raid(config) => config.total_disks(),
            Layout::Replicated(config) => config.disks,
        }
    }
}

impl From<StorageConfig> for Layout {
    fn from(config: StorageConfig) -> Self {
        Layout::Raid(config)
    }
}

impl From<ReplicationConfig> for Layout {
    fn from(config: ReplicationConfig) -> Self {
        Layout::Replicated(config)
    }
}

/// Event-driven Monte-Carlo simulator of a storage system under one
/// redundancy [`Layout`].
///
/// See the crate-level documentation for the modelled RAID behaviour and
/// [`crate::replication`] for the replicated store. Both layouts report
/// through the same statistics pipeline, so their summaries compare
/// directly.
#[derive(Debug, Clone)]
pub struct StorageSimulator {
    engine: Engine,
}

/// The simulator's unprimed template mission, one variant per layout.
/// Every entry point matches on it once and then runs that layout's
/// monomorphised engine throughout.
#[derive(Debug, Clone)]
enum Engine {
    Raid(Mission<RaidTiers>),
    Replicated(Mission<ReplicatedStore>),
}

impl StorageSimulator {
    /// Creates a simulator for a layout: a RAID [`StorageConfig`], a
    /// [`ReplicationConfig`], or a [`Layout`] holding either.
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn new(layout: impl Into<Layout>) -> Result<Self, RaidError> {
        let engine = match layout.into() {
            Layout::Raid(config) => {
                config.validate()?;
                let lifetime = config.disk.lifetime()?;
                Engine::Raid(Mission::new(RaidTiers::new(config), lifetime))
            }
            Layout::Replicated(config) => {
                config.validate()?;
                let lifetime = config.disk.lifetime()?;
                Engine::Replicated(Mission::new(ReplicatedStore::new(config), lifetime))
            }
        };
        Ok(StorageSimulator { engine })
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
        match &self.engine {
            Engine::Raid(template) => {
                run_missions(template, horizon_hours, rule, seed, confidence_level, workers)
            }
            Engine::Replicated(template) => {
                run_missions(template, horizon_hours, rule, seed, confidence_level, workers)
            }
        }
    }

    /// Runs a single mission and returns its raw statistics.
    pub fn run_once(&self, horizon_hours: f64, rng: &mut SimRng) -> StorageRunStats {
        match &self.engine {
            Engine::Raid(template) => template.clone().run_to_horizon(horizon_hours, rng),
            Engine::Replicated(template) => template.clone().run_to_horizon(horizon_hours, rng),
        }
    }

    /// Estimates the probability of any data loss within `horizon_hours`
    /// by multilevel splitting over exposure depth — the concurrent
    /// failed-disk count within a single RAID tier (levels
    /// `1..=parity + 1`), or the concurrently exposed disks of a
    /// replicated store (levels `1..=replicas`) — with the per-level trial
    /// count under `rule` (see [`crate::splitting`]).
    ///
    /// # Errors
    ///
    /// Returns [`RaidError::InvalidRun`] for a non-positive horizon or a
    /// confidence level outside `(0, 1)`.
    pub fn splitting_loss_probability(
        &self,
        horizon_hours: f64,
        rule: &StoppingRule,
        seed: u64,
        confidence_level: f64,
        workers: usize,
    ) -> Result<SplittingResult, RaidError> {
        match &self.engine {
            Engine::Raid(template) => {
                estimate_until(template, horizon_hours, rule, seed, confidence_level, workers)
            }
            Engine::Replicated(template) => {
                estimate_until(template, horizon_hours, rule, seed, confidence_level, workers)
            }
        }
    }
}

/// Validates the shared run parameters of every storage Monte-Carlo run
/// and splitting estimate: a positive finite horizon and a confidence level
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

/// The mission driver: validates the run parameters, fans replications out
/// with one clone of `template` per worker as scratch (after its first
/// replication, later missions re-prime the same calendar and per-disk
/// state in place instead of allocating afresh), stops under `rule` on
/// availability and replacements per week, and summarises. Every mission
/// draws under [`Mission::reprime`]'s RNG contract: one uniform per disk in
/// disk order, then the layout's initial events.
///
/// Data-loss events are not tracked by the rule: a rare-event count has a
/// near-zero mean, so its *relative* width is ill-defined and would force
/// every run to the cap. Replication `i` draws from the stream derived from
/// `(seed, i)` and results reduce in index order, so the summary is
/// bit-identical for any worker count, and an adaptive run of `n`
/// replications is bit-identical to a fixed run of `n`.
fn run_missions<L: LayoutRules>(
    template: &Mission<L>,
    horizon_hours: f64,
    rule: &StoppingRule,
    seed: u64,
    confidence_level: f64,
    workers: usize,
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
                |_, rng, slot: &mut Option<Mission<L>>| {
                    slot.get_or_insert_with(|| template.clone()).run_to_horizon(horizon_hours, rng)
                },
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

/// One calendar entry: a layout event of kind `K`, due at `time`.
#[derive(Debug, Clone, Copy)]
struct Event<K> {
    time: f64,
    kind: K,
}

impl<K> PartialEq for Event<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<K> Eq for Event<K> {}

impl<K> Ord for Event<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse the time ordering so BinaryHeap pops the earliest event.
        other.time.total_cmp(&self.time)
    }
}

impl<K> PartialOrd for Event<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A redundancy layout's half of a mission: its group state and its event
/// rules. The engine ([`Mission`]) owns everything the layouts share.
///
/// The rules stay per layout because the recovery semantics differ in a
/// way that consumes random draws: a RAID tier resets its disks at the
/// moment of loss, while a replicated store lets replacements already in
/// flight draw lifetimes until the store recovers.
pub(crate) trait LayoutRules: Clone + Debug + Send + Sync {
    /// The layout's events; the calendar orders them by time alone.
    type Kind: Copy + Debug + Send + Sync;

    /// The event of `disk`'s lifetime in `generation` running out.
    fn disk_failure(disk: u32, generation: u32) -> Self::Kind;

    /// Disks the layout simulates, one lifetime draw each when primed.
    fn disk_count(&self) -> u32;

    /// The exposure depth at which a redundancy group loses data.
    fn loss_level(&self) -> u32;

    /// Resets the group state to a fresh mission's and schedules the
    /// layout's own initial events. Runs after every disk's first lifetime
    /// is drawn.
    fn prime(&mut self, core: &mut Core<Self::Kind>, rng: &mut SimRng);

    /// Applies one event due at `t`, ignoring it when it is stale.
    fn apply(&mut self, core: &mut Core<Self::Kind>, kind: Self::Kind, t: f64, rng: &mut SimRng);
}

/// The layout-independent state of a mission: the event calendar, the
/// per-disk generation and failure flags, and the accumulators behind
/// [`StorageRunStats`]. Layout rules read and update it.
///
/// The calendar holds only events due within the horizon, in two parts:
/// the disks' first failures, drawn and sorted once when the mission is
/// primed, and a heap of every event scheduled later. At petascale most
/// first lifetimes end past a one-year horizon, so neither part ever holds
/// them, and a splitting snapshot does not clone them.
#[derive(Debug, Clone)]
pub(crate) struct Core<K> {
    pub(crate) lifetime: Weibull,
    horizon_hours: f64,
    /// First failures due within the horizon, latest first, so that the
    /// next one pops from the end.
    first_failures: Vec<Event<K>>,
    /// Restores, renewals, recoveries and controller events.
    queue: BinaryHeap<Event<K>>,
    /// Per-disk generation; an event stamped with an older one is stale.
    pub(crate) generation: Vec<u32>,
    pub(crate) failed: Vec<bool>,
    /// Highest exposure depth reached so far (monotone — the splitting
    /// level function).
    pub(crate) exposure_peak: u32,
    /// Conditions currently making the storage unavailable: groups in
    /// data-loss recovery and entirely failed controller pairs.
    pub(crate) down_conditions: u32,
    last_time: f64,
    downtime: f64,
    pub(crate) data_loss_events: u64,
    pub(crate) replacements: u64,
}

impl<K> Core<K> {
    /// Schedules an event of kind `kind` at `time`. An event due after the
    /// horizon can never fire, so it is dropped here rather than queued.
    pub(crate) fn schedule(&mut self, time: f64, kind: K) {
        if time <= self.horizon_hours {
            self.queue.push(Event { time, kind });
        }
    }

    /// Removes and returns the earliest pending event.
    fn pop(&mut self) -> Option<Event<K>> {
        match (self.first_failures.last(), self.queue.peek()) {
            (Some(first), Some(queued)) if queued.time < first.time => self.queue.pop(),
            (Some(_), _) => self.first_failures.pop(),
            (None, _) => self.queue.pop(),
        }
    }
}

/// One storage mission in resumable form: the full Markov state of the
/// event-driven kernel, the layout's group state plus the shared [`Core`].
///
/// A mission is `Clone`, so the multilevel-splitting estimator can
/// snapshot it the moment an exposure level is first reached and restart
/// many continuation trials from the same state, each with its own RNG
/// stream: the cloned calendar carries the already-drawn future event
/// times due within the horizon (the part of the Markov state that can
/// still fire), while everything sampled after the snapshot comes from the
/// continuation's stream.
#[derive(Debug, Clone)]
pub(crate) struct Mission<L: LayoutRules> {
    layout: L,
    core: Core<L::Kind>,
}

impl<L: LayoutRules> Mission<L> {
    /// An unprimed mission with empty buffers, the template every run
    /// clones; [`Mission::reprime`] starts it.
    fn new(layout: L, lifetime: Weibull) -> Self {
        Mission {
            layout,
            core: Core {
                lifetime,
                horizon_hours: 0.0,
                first_failures: Vec::new(),
                queue: BinaryHeap::new(),
                generation: Vec::new(),
                failed: Vec::new(),
                exposure_peak: 0,
                down_conditions: 0,
                last_time: 0.0,
                downtime: 0.0,
                data_loss_events: 0,
                replacements: 0,
            },
        }
    }

    /// The exposure depth at which the layout loses data.
    pub(crate) fn loss_level(&self) -> u32 {
        self.layout.loss_level()
    }

    /// Highest exposure depth reached so far.
    pub(crate) fn exposure_peak(&self) -> u32 {
        self.core.exposure_peak
    }

    /// Starts the mission afresh over `horizon_hours`, reusing its calendar
    /// and per-disk and per-group buffers. It draws one uniform per disk in
    /// disk order for the disk's first lifetime, then the layout's own
    /// initial events: that draw order is the RNG contract every fresh and
    /// reused mission shares. A first lifetime that ends past the horizon
    /// still consumes its uniform, but is neither evaluated nor queued
    /// ([`Weibull::within`]).
    pub(crate) fn reprime(&mut self, horizon_hours: f64, rng: &mut SimRng) {
        let disks = self.layout.disk_count();
        let core = &mut self.core;
        core.horizon_hours = horizon_hours;
        core.first_failures.clear();
        core.queue.clear();
        core.generation.clear();
        core.generation.resize(disks as usize, 0);
        core.failed.clear();
        core.failed.resize(disks as usize, false);
        core.exposure_peak = 0;
        core.down_conditions = 0;
        core.last_time = 0.0;
        core.downtime = 0.0;
        core.data_loss_events = 0;
        core.replacements = 0;
        let first_lifetime = core.lifetime.within(horizon_hours);
        for disk in 0..disks {
            if let Some(time) = first_lifetime.sample(rng) {
                core.first_failures.push(Event { time, kind: L::disk_failure(disk, 0) });
            }
        }
        // `Event` orders later times first, so this sorts latest first.
        core.first_failures.sort_unstable();
        self.layout.prime(core, rng);
    }

    /// Processes events forward. With `stop_at_exposure = Some(level)` the
    /// mission pauses right after the event that first lifts the exposure
    /// peak to `level`, returning `true`; otherwise it runs to the horizon
    /// and returns `false`. A paused mission resumes with a later call.
    pub(crate) fn advance(&mut self, rng: &mut SimRng, stop_at_exposure: Option<u32>) -> bool {
        let reached = |peak: u32| stop_at_exposure.is_some_and(|level| peak >= level);
        let core = &mut self.core;
        if reached(core.exposure_peak) {
            return true;
        }
        while let Some(event) = core.pop() {
            let t = event.time;
            // Accumulate downtime since the previous event.
            if core.down_conditions > 0 {
                core.downtime += t - core.last_time;
            }
            core.last_time = t;
            self.layout.apply(core, event.kind, t, rng);
            if reached(core.exposure_peak) {
                return true;
            }
        }
        false
    }

    /// Raw statistics of the mission so far, with the open interval since
    /// the last event closed up to the horizon. Call after
    /// [`Mission::advance`] ran to the horizon.
    fn stats(&self) -> StorageRunStats {
        let core = &self.core;
        let mut downtime = core.downtime;
        if core.down_conditions > 0 {
            downtime += core.horizon_hours - core.last_time;
        }
        StorageRunStats {
            downtime_hours: downtime,
            data_loss_events: core.data_loss_events,
            disk_replacements: core.replacements,
            horizon_hours: core.horizon_hours,
        }
    }

    /// Runs one whole mission of `horizon_hours` from a fresh start and
    /// returns its statistics. Telemetry counts the mission and its
    /// data-loss events here, on the replication path only, so the counts
    /// are a pure function of the executed replication set.
    fn run_to_horizon(&mut self, horizon_hours: f64, rng: &mut SimRng) -> StorageRunStats {
        self.reprime(horizon_hours, rng);
        self.advance(rng, None);
        let stats = self.stats();
        counter_inc(MetricId::RaidMissions);
        counter_add(MetricId::RaidLossEvents, stats.data_loss_events);
        stats
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    DiskFailure { disk: u32, generation: u32 },
    DiskRestored { disk: u32, generation: u32 },
    TierRecovered { tier: u32, generation: u32 },
    ControllerFailure { unit: u32, slot: u8 },
    ControllerRepaired { unit: u32, slot: u8 },
}

/// The RAID layout: `n+k` tiers whose exposure depth is the concurrent
/// failed-disk count within one tier, plus the DDN controller pairs.
#[derive(Debug, Clone)]
struct RaidTiers {
    config: StorageConfig,
    controller_dist: Option<Exponential>,
    tier_failed_count: Vec<u32>,
    tier_in_recovery: Vec<bool>,
    tier_generation: Vec<u32>,
    controller_failed: Vec<[bool; 2]>,
}

impl RaidTiers {
    fn new(config: StorageConfig) -> Self {
        let controller_dist = config
            .controllers
            .map(|c| Exponential::new(c.failure_rate_per_hour).expect("validated controller rate"));
        RaidTiers {
            config,
            controller_dist,
            tier_failed_count: Vec::new(),
            tier_in_recovery: Vec::new(),
            tier_generation: Vec::new(),
            controller_failed: Vec::new(),
        }
    }
}

impl LayoutRules for RaidTiers {
    type Kind = EventKind;

    fn disk_failure(disk: u32, generation: u32) -> EventKind {
        EventKind::DiskFailure { disk, generation }
    }

    fn disk_count(&self) -> u32 {
        self.config.total_disks()
    }

    fn loss_level(&self) -> u32 {
        self.config.geometry.parity_disks + 1
    }

    fn prime(&mut self, core: &mut Core<EventKind>, rng: &mut SimRng) {
        let tiers = self.config.tiers as usize;
        self.tier_failed_count.clear();
        self.tier_failed_count.resize(tiers, 0);
        self.tier_in_recovery.clear();
        self.tier_in_recovery.resize(tiers, false);
        self.tier_generation.clear();
        self.tier_generation.resize(tiers, 0);
        self.controller_failed.clear();
        self.controller_failed.resize(self.config.ddn_units as usize, [false, false]);
        if let Some(dist) = &self.controller_dist {
            for unit in 0..self.config.ddn_units {
                for slot in 0..2u8 {
                    core.schedule(dist.sample(rng), EventKind::ControllerFailure { unit, slot });
                }
            }
        }
    }

    fn apply(&mut self, core: &mut Core<EventKind>, kind: EventKind, t: f64, rng: &mut SimRng) {
        let disks_per_tier = self.config.geometry.disks_per_tier();
        match kind {
            EventKind::DiskFailure { disk, generation } => {
                if generation != core.generation[disk as usize] || core.failed[disk as usize] {
                    return;
                }
                let tier = disk / disks_per_tier;
                if self.tier_in_recovery[tier as usize] {
                    return;
                }
                core.failed[disk as usize] = true;
                self.tier_failed_count[tier as usize] += 1;
                core.exposure_peak = core.exposure_peak.max(self.tier_failed_count[tier as usize]);
                core.replacements += 1;

                if self.tier_failed_count[tier as usize] > self.config.geometry.parity_disks {
                    // Unrecoverable tier failure.
                    core.data_loss_events += 1;
                    self.tier_in_recovery[tier as usize] = true;
                    self.tier_generation[tier as usize] += 1;
                    core.down_conditions += 1;
                    // Invalidate every pending event of this tier's disks
                    // and clear their state; they come back fresh when the
                    // tier is restored.
                    let first = tier * disks_per_tier;
                    for d in first..first + disks_per_tier {
                        core.generation[d as usize] += 1;
                        core.failed[d as usize] = false;
                    }
                    self.tier_failed_count[tier as usize] = 0;
                    core.schedule(
                        t + self.config.data_loss_recovery_hours,
                        EventKind::TierRecovered {
                            tier,
                            generation: self.tier_generation[tier as usize],
                        },
                    );
                } else {
                    let repair_time = self.config.replacement_hours + self.config.rebuild_hours;
                    core.schedule(t + repair_time, EventKind::DiskRestored { disk, generation });
                }
            }
            EventKind::DiskRestored { disk, generation } => {
                if generation != core.generation[disk as usize] || !core.failed[disk as usize] {
                    return;
                }
                let tier = disk / disks_per_tier;
                core.failed[disk as usize] = false;
                self.tier_failed_count[tier as usize] -= 1;
                core.schedule(
                    t + core.lifetime.sample(rng),
                    EventKind::DiskFailure { disk, generation },
                );
            }
            EventKind::TierRecovered { tier, generation } => {
                if generation != self.tier_generation[tier as usize]
                    || !self.tier_in_recovery[tier as usize]
                {
                    return;
                }
                self.tier_in_recovery[tier as usize] = false;
                core.down_conditions -= 1;
                // All disks in the tier start fresh.
                let first = tier * disks_per_tier;
                for d in first..first + disks_per_tier {
                    core.schedule(
                        t + core.lifetime.sample(rng),
                        EventKind::DiskFailure { disk: d, generation: core.generation[d as usize] },
                    );
                }
            }
            EventKind::ControllerFailure { unit, slot } => {
                let pair = &mut self.controller_failed[unit as usize];
                if pair[slot as usize] {
                    return;
                }
                pair[slot as usize] = true;
                if pair[0] && pair[1] {
                    core.down_conditions += 1;
                }
                let repair = self
                    .config
                    .controllers
                    .expect("controller events only exist when configured")
                    .repair_hours;
                core.schedule(t + repair, EventKind::ControllerRepaired { unit, slot });
            }
            EventKind::ControllerRepaired { unit, slot } => {
                let pair = &mut self.controller_failed[unit as usize];
                if !pair[slot as usize] {
                    return;
                }
                let was_double = pair[0] && pair[1];
                pair[slot as usize] = false;
                if was_double {
                    core.down_conditions -= 1;
                }
                if let Some(dist) = &self.controller_dist {
                    core.schedule(
                        t + dist.sample(rng),
                        EventKind::ControllerFailure { unit, slot },
                    );
                }
            }
        }
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
            horizon_hours: 8736.0, // exactly 52 weeks
        };
        assert!((stats.availability() - 0.99).abs() < 1e-12);
        assert!((stats.replacements_per_week() - 1.0).abs() < 1e-9);
    }

    /// Asserts each value matches its recorded one to a relative 1e-12: a
    /// last-bit libm difference passes, a reordered draw does not.
    fn assert_recorded(actual: &[f64], recorded: &[f64]) {
        assert_eq!(actual.len(), recorded.len());
        for (a, r) in actual.iter().zip(recorded) {
            assert!((a - r).abs() <= 1e-12 * r.abs(), "got {a}, recorded {r}");
        }
    }

    /// Checks a summary's counts exactly and its estimates against the
    /// recorded values.
    fn assert_summary(summary: &StorageSummary, replications: usize, recorded: [f64; 7]) {
        assert_eq!(summary.replications, replications);
        let actual = [
            summary.availability.point,
            summary.availability.half_width,
            summary.replacements_per_week.point,
            summary.replacements_per_week.half_width,
            summary.data_loss_events.point,
            summary.data_loss_events.half_width,
            summary.prob_any_data_loss,
        ];
        assert_recorded(&actual, &recorded);
    }

    /// Checks a splitting result's counts exactly and its estimates
    /// against the recorded values.
    fn assert_splitting(
        result: &SplittingResult,
        counts: (usize, u64, usize, u32),
        recorded: [f64; 4],
        level_probabilities: &[f64],
    ) {
        let estimate = &result.estimate;
        let actual_counts =
            (estimate.replications, estimate.hits, result.trials_per_level, result.loss_level);
        assert_eq!(actual_counts, counts, "replications, hits, trials per level, loss level");
        let actual = [
            estimate.interval.point,
            estimate.interval.half_width,
            estimate.effective_sample_size,
            estimate.variance_reduction_factor,
        ];
        assert_recorded(&actual, &recorded);
        assert_recorded(&result.level_probabilities, level_probabilities);
    }

    /// Pins the RAID layout's sample paths, controllers and losses
    /// included, against values recorded before the RAID and replication
    /// kernels shared one engine: the priming draw order (disk lifetimes,
    /// then controller failures) and every event rule feed them. The second
    /// input, recorded before the calendar dropped events due past the
    /// horizon, is a 6240-disk system whose first lifetimes mostly end
    /// after its one-year missions.
    #[test]
    fn raid_sample_paths_match_recorded_history() {
        let config = StorageConfig {
            ddn_units: 2,
            tiers: 24,
            disk: DiskModel { weibull_shape: 0.7, mtbf_hours: 6_000.0, capacity_gb: 250.0 },
            replacement_hours: 24.0,
            rebuild_hours: 24.0,
            controllers: Some(crate::ControllerModel {
                failure_rate_per_hour: 1.0 / 500.0,
                repair_hours: 48.0,
            }),
            ..StorageConfig::abe_scratch()
        };
        let sim = StorageSimulator::new(config).unwrap();
        let summary = sim.run(2000.0, &fixed(8), 2008, 0.95, 1).unwrap();
        assert_summary(
            &summary,
            8,
            [
                0.9719227897068661,
                0.01575308373957785,
                11.875499999999999,
                0.7059838523313705,
                1.375,
                0.7656691161115652,
                0.875,
            ],
        );
        let split = sim.splitting_loss_probability(300.0, &fixed(64), 2008, 0.95, 1).unwrap();
        assert_splitting(
            &split,
            (192, 24, 64, 3),
            [0.375, 0.11860786400417443, 64.0, 0.3333333333333333],
            &[1.0, 1.0, 0.375],
        );

        let petascale = StorageConfig {
            ddn_units: 26,
            tiers: 624,
            disk: DiskModel { weibull_shape: 0.6, mtbf_hours: 100_000.0, capacity_gb: 250.0 },
            replacement_hours: 12.0,
            rebuild_hours: 24.0,
            controllers: Some(crate::ControllerModel::abe_default()),
            ..StorageConfig::abe_scratch()
        };
        let sim = StorageSimulator::new(petascale).unwrap();
        let summary = sim.run(8760.0, &fixed(4), 2008, 0.95, 1).unwrap();
        assert_summary(
            &summary,
            4,
            [
                0.9973995634440884,
                0.002704614104200106,
                37.43561643835616,
                2.1245967137789616,
                0.25,
                0.7897474067863239,
                0.25,
            ],
        );
        let split = sim.splitting_loss_probability(8760.0, &fixed(64), 2008, 0.95, 1).unwrap();
        assert_splitting(
            &split,
            (192, 17, 64, 3),
            [0.265625, 0.10820597881616877, 64.0, 0.3333333333333333],
            &[1.0, 1.0, 0.265625],
        );
    }

    /// Pins the replicated layout's sample paths, data-loss recoveries
    /// included, against values recorded before the RAID and replication
    /// kernels shared one engine. The second input, recorded before the
    /// calendar dropped events due past the horizon, is a 1200-disk store
    /// of ABE disks, about nine in ten of whose first lifetimes end after
    /// its one-year missions.
    #[test]
    fn replicated_sample_paths_match_recorded_history() {
        let config = ReplicationConfig {
            disks: 40,
            replicas: 2,
            disk: DiskModel { weibull_shape: 0.8, mtbf_hours: 4_000.0, capacity_gb: 250.0 },
            re_replication_hours: 60.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(config).unwrap();
        let summary = sim.run(2000.0, &fixed(8), 2008, 0.95, 1).unwrap();
        assert_summary(
            &summary,
            8,
            [
                0.8470000000000001,
                0.03160172887065243,
                2.7405,
                0.38805786653963104,
                12.75,
                2.6334774058877044,
                1.0,
            ],
        );
        let split = sim.splitting_loss_probability(300.0, &fixed(64), 2008, 0.95, 1).unwrap();
        assert_splitting(
            &split,
            (128, 55, 64, 2),
            [0.845947265625, 0.0878101473921666, 64.92604501607717, 0.5072347266881029],
            &[0.984375, 0.859375],
        );

        let abe_store = ReplicationConfig {
            disks: 1200,
            replicas: 3,
            disk: DiskModel::abe_sata_250gb(),
            re_replication_hours: 6.0,
            replacement_hours: 4.0,
            data_loss_recovery_hours: 24.0,
        };
        let sim = StorageSimulator::new(abe_store).unwrap();
        let summary = sim.run(8760.0, &fixed(8), 2008, 0.95, 1).unwrap();
        assert_summary(
            &summary,
            8,
            [
                0.9982876712328766,
                0.0020977236057851205,
                2.483561643835616,
                0.424332349345519,
                0.625,
                0.7656691161115652,
                0.375,
            ],
        );
        let split = sim.splitting_loss_probability(8760.0, &fixed(64), 2008, 0.95, 1).unwrap();
        assert_splitting(
            &split,
            (192, 38, 64, 3),
            [0.59375, 0.12032513028418196, 64.0, 0.3333333333333333],
            &[1.0, 1.0, 0.59375],
        );
    }
}
