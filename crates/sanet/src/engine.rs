//! The simulation front end shared by both execution kernels.
//!
//! Two kernels implement the same Möbius-style execution semantics:
//!
//! * [`crate::calendar`] — the production event-calendar engine: an indexed
//!   binary min-heap keyed by `(firing time, activity index)` selects the
//!   next completion in `O(log A)`, and a precomputed place→activity
//!   incidence index plus the marking's dirty-place change log re-examines
//!   only the activities whose enabling could actually have changed, so the
//!   per-event cost is `O(log A + affected)`.
//! * [`crate::reference`] — the retained naive kernel: a full `O(A)` scan
//!   for next-event selection, instantaneous firing, and schedule refresh
//!   after every event, with per-reward scans (`O(R)`) for accumulation.
//!   It is the semantics oracle: differential tests pin the calendar engine
//!   bit-identical to it (same rewards, event counts, traces, and RNG draw
//!   sequence), which also catches unsound
//!   [`enabling_reads`](crate::ActivityBuilder::enabling_reads)
//!   declarations.
//!
//! Both kernels share this module's primitives — activity firing (through
//! [`Activity::complete`]), the compiled [`RewardTable`] accumulators, and
//! result finalisation — so they cannot drift apart in reward arithmetic.

use std::sync::Arc;

use probdist::SimRng;

use crate::model::Activity;
use crate::reward::{Finalise, RewardNames, RewardSpec, RewardTable};
use crate::{ActivityId, Marking, Model, SanError};

/// Maximum number of zero-delay firings processed at a single time point
/// before the simulator concludes the model has an unstable loop of
/// instantaneous activities.
pub(crate) const MAX_INSTANT_FIRINGS: usize = 100_000;

/// Models with fewer activities than this run on the naive full-rescan
/// kernel even through [`Simulator::run`]: below the crossover the
/// calendar's constant per-event bookkeeping (heap maintenance, the dirty
/// place change log) costs more than the rescan it avoids. The crossover
/// was measured when `run` still took the calendar for every model: on
/// the 2-activity repairable unit the naive kernel did ~24.6M events/s
/// against the calendar's ~16.2M, on the 4-activity Beowulf model it was
/// still ~1.35x ahead (traced vs traced, 2.5M events over 50×100k-hour
/// runs), and on the 34-activity ABE composition the calendar was already
/// 1.7x ahead. With this fallback `run` never reaches the calendar on
/// the unit, so the BENCH.json rows time the two kernels there through
/// `run_traced` and `run_reference`:
/// `san_engine_one_year_repairable_unit_calendar_traced` read 7.7M
/// events/s against `san_engine_one_year_repairable_unit_ref`'s 10.3M in
/// the run that recorded them. The trace push per event counts against
/// the calendar arm, so the ledger's gap is an upper bound on the
/// untraced one. The two kernels are pinned bit-identical by the
/// differential suites (`calendar_differential.rs`,
/// `engine_differential.rs`) and `tests/san_sample_paths.rs`, so the
/// selection is observably pure.
pub(crate) const NAIVE_KERNEL_MAX_ACTIVITIES: usize = 5;

/// The estimated reward values produced by a single simulation replication.
///
/// Values are stored as a dense vector over the run's compiled reward table,
/// with the reward names interned once per run and shared by every
/// replication through an `Arc` — a replication allocates one `Vec<f64>`,
/// not a map of owned strings.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub(crate) names: Arc<RewardNames>,
    pub(crate) values: Vec<f64>,
    /// Number of activity completions processed.
    pub events: u64,
    /// Simulated time at which the run ended (the horizon).
    pub end_time: f64,
}

impl RunResult {
    /// The value of the named reward.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::UnknownReward`] if the reward was not registered
    /// for the run.
    pub fn reward(&self, name: &str) -> Result<f64, SanError> {
        self.names
            .index
            .get(name)
            .map(|&slot| self.values[slot])
            .ok_or_else(|| SanError::UnknownReward { name: name.to_string() })
    }

    /// Iterates over `(name, value)` pairs in reward registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.names.names.iter().map(String::as_str).zip(self.values.iter().copied())
    }

    /// Reconstructs a result from `(name, value)` pairs in slot order — the
    /// inverse of [`RunResult::iter`]. The study checkpoint layer uses this
    /// to restore persisted replications: a restored result answers
    /// [`RunResult::reward`] exactly like the original, so statistics
    /// reduced from a stored prefix are bit-identical to a fresh run's.
    pub fn from_named_values(rewards: Vec<(String, f64)>, events: u64, end_time: f64) -> RunResult {
        let names: Vec<String> = rewards.iter().map(|(name, _)| name.clone()).collect();
        let index = names.iter().enumerate().map(|(slot, name)| (name.clone(), slot)).collect();
        let values = rewards.into_iter().map(|(_, value)| value).collect();
        RunResult { names: Arc::new(RewardNames { names, index }), values, events, end_time }
    }
}

/// One entry of a simulation trace (activity completion).
///
/// Only the [`ActivityId`] is stored — resolve the name through
/// [`Model::activity_name`] when rendering or asserting, so tracing does not
/// allocate a `String` per event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time of the completion (hours).
    pub time: f64,
    /// The activity that completed.
    pub activity: ActivityId,
    /// Index of the probabilistic case chosen.
    pub case: usize,
}

/// Reusable per-worker scratch for the simulation kernels.
///
/// One replication of either kernel needs a marking, a reward accumulator,
/// and (for the calendar kernel) a future-event heap plus several
/// dirty-tracking buffers — eight-odd heap allocations per run. A
/// `RunScratch` owns all of them; the kernels reset it at the start of
/// every replication, so a worker that runs thousands of replications
/// allocates once and the per-replication hot path is allocation-free
/// (the returned [`RunResult`]'s value vector is the single remaining
/// allocation). [`Experiment`](crate::Experiment) threads one scratch per
/// pool worker through `probdist::parallel::replicate_with`.
///
/// Scratch state never carries information between replications — every
/// buffer is cleared or overwritten on reset — so results are bit-identical
/// whether a scratch is fresh or reused (the parallel determinism suites
/// pin this).
#[derive(Debug, Default)]
pub(crate) struct RunScratch {
    /// Per-slot reward accumulator (`RewardTable` layout).
    pub(crate) acc: Vec<f64>,
    /// The reusable marking; `None` until the first replication.
    pub(crate) marking: Option<Marking>,
    /// Event-calendar kernel state (heap, schedules, dirty sets).
    pub(crate) calendar: crate::calendar::CalendarScratch,
    /// Naive-kernel state (schedule scan, written flags).
    pub(crate) reference: crate::reference::ReferenceScratch,
}

impl RunScratch {
    /// Creates an empty scratch; buffers are sized lazily by the first
    /// replication that uses it.
    pub(crate) fn new() -> Self {
        RunScratch::default()
    }
}

/// Resets (or lazily creates) the scratch marking to the model's initial
/// marking and returns it.
pub(crate) fn prepare_marking<'s>(slot: &'s mut Option<Marking>, model: &Model) -> &'s mut Marking {
    match slot {
        Some(marking) => model.reset_marking(marking),
        None => *slot = Some(model.initial_marking()),
    }
    slot.as_mut().expect("marking was just initialised")
}

/// Discrete-event simulator for a [`Model`].
///
/// The execution semantics follow Möbius' simulator:
///
/// * Instantaneous activities complete immediately and have priority over
///   timed activities; a bounded cascade of them is processed at each time
///   point, lowest activity index first.
/// * A timed activity samples its firing delay when it becomes enabled
///   (activation). If it becomes disabled before firing, the sample is
///   discarded. If the marking changes while it stays enabled, the sample is
///   kept unless the activity has a marking-dependent distribution (see
///   [`ActivityBuilder::timing_reads`](crate::ActivityBuilder::timing_reads)).
/// * Rate rewards are integrated between events over the whole window
///   `[0, horizon]`; impulse rewards accumulate on activity completion.
///
/// [`Simulator::run`] executes on the event-calendar kernel;
/// [`Simulator::run_reference`] executes the same semantics on the retained
/// naive full-scan kernel for differential testing and benchmarking.
#[derive(Debug, Clone)]
pub struct Simulator<'m> {
    model: &'m Model,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator bound to `model`.
    pub fn new(model: &'m Model) -> Self {
        Simulator { model }
    }

    /// Runs one replication until `horizon` hours and returns the reward
    /// values.
    ///
    /// Executes on the event-calendar kernel, except for tiny models
    /// (fewer than `NAIVE_KERNEL_MAX_ACTIVITIES` = 5 activities) where the
    /// naive full-rescan kernel is measurably faster and the two kernels
    /// are bit-identical, so the selection never changes a result.
    ///
    /// In debug builds the model is statically analysed first
    /// ([`Model::lint`]) and rejected if the lint reports Error-level
    /// diagnostics — under-declared gate or timing reads would otherwise
    /// silently corrupt calendar-kernel results. The verdict is memoised
    /// per model, and release builds skip the check entirely.
    /// [`Experiment::run_raw`](crate::Experiment::run_raw), the replication
    /// path, passes the same gate; the other run methods here skip it.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidExperiment`] for a non-positive horizon,
    /// [`SanError::UnknownId`] if a reward references an activity that does
    /// not belong to the model,
    /// [`SanError::UnstableInstantaneousLoop`] if instantaneous activities
    /// never stabilise, and (debug builds only) [`SanError::LintRejected`]
    /// if the pre-simulation lint fails.
    pub fn run(
        &self,
        rewards: &[RewardSpec],
        horizon: f64,
        rng: &mut SimRng,
    ) -> Result<RunResult, SanError> {
        self.run_on(Kernel::BySize, rewards, horizon, rng, None)
    }

    /// Like [`Simulator::run`], but also records every activity completion.
    ///
    /// Intended for debugging and for tests that assert on event orderings;
    /// tracing allocates per event, so do not use it for production
    /// experiments. Unlike [`Simulator::run`], this always executes the
    /// event-calendar kernel — never the small-model naive fallback — so
    /// differential tests that trace tiny handcrafted models really do pin
    /// the calendar engine against [`Simulator::run_reference_traced`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], bar the debug-build lint.
    pub fn run_traced(
        &self,
        rewards: &[RewardSpec],
        horizon: f64,
        rng: &mut SimRng,
    ) -> Result<(RunResult, Vec<TraceEvent>), SanError> {
        let mut trace = Vec::new();
        let result = self.run_on(Kernel::Calendar, rewards, horizon, rng, Some(&mut trace))?;
        Ok((result, trace))
    }

    /// Runs one replication on the retained naive full-scan kernel.
    ///
    /// The reference kernel re-examines every activity after every event and
    /// selects the next completion with a linear scan — `O(A)` per event. It
    /// exists so differential tests (and benches) can pin the event-calendar
    /// engine against an independent implementation of the same semantics:
    /// for any model and seed, the rewards, event counts, and RNG draw
    /// sequence are bit-identical. Because it ignores
    /// [`enabling_reads`](crate::ActivityBuilder::enabling_reads)
    /// declarations, a divergence also flags an unsound declaration.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], bar the debug-build lint.
    pub fn run_reference(
        &self,
        rewards: &[RewardSpec],
        horizon: f64,
        rng: &mut SimRng,
    ) -> Result<RunResult, SanError> {
        self.run_on(Kernel::Reference, rewards, horizon, rng, None)
    }

    /// Like [`Simulator::run_reference`], but also records every activity
    /// completion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulator::run`], bar the debug-build lint.
    pub fn run_reference_traced(
        &self,
        rewards: &[RewardSpec],
        horizon: f64,
        rng: &mut SimRng,
    ) -> Result<(RunResult, Vec<TraceEvent>), SanError> {
        let mut trace = Vec::new();
        let result = self.run_on(Kernel::Reference, rewards, horizon, rng, Some(&mut trace))?;
        Ok((result, trace))
    }

    /// The four public run methods: validates the horizon, lints the model
    /// on the production path (debug builds only), compiles the rewards and
    /// runs one replication on `kernel` with a fresh scratch.
    fn run_on(
        &self,
        kernel: Kernel,
        rewards: &[RewardSpec],
        horizon: f64,
        rng: &mut SimRng,
        trace: Option<&mut Vec<TraceEvent>>,
    ) -> Result<RunResult, SanError> {
        validate_horizon(horizon)?;
        if kernel == Kernel::BySize {
            self.model.debug_lint()?;
        }
        let table = RewardTable::compile(self.model, rewards)?;
        kernel.run(self.model, &table, horizon, rng, trace, &mut RunScratch::new())
    }

    /// Runs one replication against an already-compiled reward table,
    /// reusing a caller-owned [`RunScratch`] — the allocation-free
    /// replication hot path. The replication manager lints the model and
    /// compiles the table once per batch, and passes one scratch per pool
    /// worker.
    pub(crate) fn run_with_table_scratch(
        &self,
        table: &RewardTable,
        horizon: f64,
        rng: &mut SimRng,
        scratch: &mut RunScratch,
    ) -> Result<RunResult, SanError> {
        validate_horizon(horizon)?;
        Kernel::BySize.run(self.model, table, horizon, rng, None, scratch)
    }
}

/// The kernel a replication executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The faster kernel for the model's size (see
    /// [`NAIVE_KERNEL_MAX_ACTIVITIES`]).
    BySize,
    /// Always the event calendar.
    Calendar,
    /// Always the naive full-rescan kernel.
    Reference,
}

impl Kernel {
    fn run(
        self,
        model: &Model,
        table: &RewardTable,
        horizon: f64,
        rng: &mut SimRng,
        trace: Option<&mut Vec<TraceEvent>>,
        scratch: &mut RunScratch,
    ) -> Result<RunResult, SanError> {
        let naive = match self {
            Kernel::BySize => model.num_activities() < NAIVE_KERNEL_MAX_ACTIVITIES,
            Kernel::Calendar => false,
            Kernel::Reference => true,
        };
        if naive {
            crate::reference::run(model, table, horizon, rng, trace, scratch)
        } else {
            crate::calendar::run(model, table, horizon, rng, trace, scratch)
        }
    }
}

/// Validates the observation window `[0, horizon]`.
fn validate_horizon(horizon: f64) -> Result<(), SanError> {
    if horizon.is_finite() && horizon > 0.0 {
        Ok(())
    } else {
        Err(SanError::InvalidExperiment {
            reason: format!("simulation horizon must be positive and finite, got {horizon}"),
        })
    }
}

/// Integrates every time-averaged rate reward over `[from, to]`.
pub(crate) fn accumulate_rate_rewards(
    table: &RewardTable,
    marking: &Marking,
    from: f64,
    to: f64,
    acc: &mut [f64],
) {
    if to <= from {
        return;
    }
    let dt = to - from;
    for (slot, function) in &table.integrated {
        acc[*slot as usize] += function(marking) * dt;
    }
}

/// Adds the impulse amounts bucketed on the completed activity.
#[inline]
pub(crate) fn credit_impulses(table: &RewardTable, completed: usize, acc: &mut [f64]) {
    for &(slot, amount) in &table.impulses[completed] {
        acc[slot as usize] += amount;
    }
}

/// Turns the per-slot accumulators into the reported reward values at the
/// end of the window, `end_time` (the horizon).
///
/// Reads the (scratch-owned, reusable) accumulator slice and builds the
/// result's value vector fresh — the one allocation a replication keeps,
/// since the [`RunResult`] outlives the scratch.
pub(crate) fn finalise(
    table: &RewardTable,
    acc: &[f64],
    marking: &Marking,
    events: u64,
    end_time: f64,
) -> RunResult {
    let values = table
        .finals
        .iter()
        .enumerate()
        .map(|(slot, rule)| match rule {
            Finalise::TimeAveraged => acc[slot] / end_time,
            Finalise::Total => acc[slot],
            Finalise::Instant(function) => function(marking),
        })
        .collect();
    RunResult { names: Arc::clone(&table.names), values, events, end_time }
}

/// Draws the case of one activity completion, applies its marking changes
/// and returns the chosen case index.
pub(crate) fn fire_activity(
    model: &Model,
    id: ActivityId,
    marking: &mut Marking,
    rng: &mut SimRng,
) -> usize {
    let activity = model.activity_ref(id);
    let case_idx = if activity.cases.len() == 1 {
        0
    } else {
        let u = rng.uniform01();
        let mut acc = 0.0;
        let mut chosen = activity.cases.len() - 1;
        for (i, case) in activity.cases.iter().enumerate() {
            acc += case.probability;
            if u < acc {
                chosen = i;
                break;
            }
        }
        chosen
    };
    let underflow = activity.complete(case_idx, marking);
    // An *enabled* activity always has every input arc covered; an
    // underflow means the model fired with stale enabling (or two arcs
    // drain the same place) — a modelling error that
    // `Marking::remove_tokens` would otherwise silently saturate away.
    debug_assert!(
        underflow.is_none(),
        "firing enabled activity `{}` underflowed place `{}`",
        activity.name,
        underflow.map_or("", |place| model.place_name(place)),
    );
    case_idx
}

/// Samples a firing delay for a timed activity in the current marking.
///
/// # Panics
///
/// Panics if called for an instantaneous activity.
#[inline]
pub(crate) fn sample_delay(activity: &Activity, marking: &Marking, rng: &mut SimRng) -> f64 {
    use probdist::Distribution;
    match &activity.timing {
        crate::model::Timing::Timed(dist) => dist.sample(rng),
        crate::model::Timing::TimedFn(f) => f(marking).sample(rng),
        crate::model::Timing::Instantaneous => {
            unreachable!("instantaneous activities are not scheduled")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::RewardSpec;
    use crate::ModelBuilder;
    use probdist::{Deterministic, Dist, Exponential};

    fn exp(mean: f64) -> Exponential {
        Exponential::from_mean(mean).unwrap()
    }

    fn det(v: f64) -> Deterministic {
        Deterministic::new(v).unwrap()
    }

    /// A single repairable unit: deterministic failure at 10 h, deterministic
    /// repair taking 2 h. Over a 24-hour horizon the unit is down during
    /// [10, 12) and [22, 24), i.e. availability 20/24; the second repair
    /// completes exactly at the horizon and is still counted.
    #[test]
    fn deterministic_failure_repair_cycle_availability() {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", det(10.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        let repair = b
            .timed_activity("repair", det(2.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();

        let rewards = vec![
            RewardSpec::time_averaged_rate(
                "avail",
                move |m| if m.tokens(up) > 0 { 1.0 } else { 0.0 },
            ),
            RewardSpec::impulse_total("repairs", repair, 1.0),
            RewardSpec::instant_of_time("up_at_end", move |m| m.tokens(up) as f64),
        ];
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        let result = sim.run(&rewards, 24.0, &mut rng).unwrap();

        assert!((result.reward("avail").unwrap() - 20.0 / 24.0).abs() < 1e-9);
        assert_eq!(result.reward("repairs").unwrap(), 2.0);
        assert_eq!(result.reward("up_at_end").unwrap(), 1.0);
        assert_eq!(result.end_time, 24.0);
        assert!(result.reward("missing").is_err());
        assert!(result.iter().count() == 3);
    }

    #[test]
    fn run_result_iterates_in_registration_order() {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        b.timed_activity("fail", det(50.0)).unwrap().input_arc(up, 1).build().unwrap();
        let model = b.build().unwrap();
        let rewards = vec![
            RewardSpec::instant_of_time("z_last", |_m| 2.0),
            RewardSpec::instant_of_time("a_first", |_m| 1.0),
        ];
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        let result = sim.run(&rewards, 10.0, &mut rng).unwrap();
        let names: Vec<&str> = result.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["z_last", "a_first"]);
    }

    #[test]
    fn trace_records_event_sequence() {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", det(5.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", det(1.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        let (result, trace) = sim.run_traced(&[], 13.0, &mut rng).unwrap();
        // fail@5, repair@6, fail@11, repair@12 -> 4 events
        assert_eq!(result.events, 4);
        let names: Vec<&str> = trace.iter().map(|e| model.activity_name(e.activity)).collect();
        assert_eq!(names, vec!["fail", "repair", "fail", "repair"]);
        assert!((trace[0].time - 5.0).abs() < 1e-12);
        assert!((trace[3].time - 12.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_availability_matches_analytic_steady_state() {
        // Availability of an M/M/1-style repairable unit:
        // A = mu / (lambda + mu) with failure rate lambda and repair rate mu.
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", exp(100.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", exp(10.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let rewards =
            vec![RewardSpec::time_averaged_rate(
                "avail",
                move |m| if m.tokens(up) > 0 { 1.0 } else { 0.0 },
            )];
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(99);
        let mut total = 0.0;
        let reps = 40;
        for _ in 0..reps {
            total += sim.run(&rewards, 50_000.0, &mut rng).unwrap().reward("avail").unwrap();
        }
        let avail = total / reps as f64;
        let expected = 100.0 / 110.0;
        assert!((avail - expected).abs() < 0.01, "avail {avail}, expected {expected}");
    }

    #[test]
    fn instantaneous_activities_fire_with_priority_and_cases() {
        // A timed source deposits a token; an instantaneous router moves it
        // to one of two sinks with probability 0.3 / 0.7.
        let mut b = ModelBuilder::new("router");
        let pending = b.add_place("pending", 0).unwrap();
        let sink_a = b.add_place("sink_a", 0).unwrap();
        let sink_b = b.add_place("sink_b", 0).unwrap();
        let idle = b.add_place("idle", 1).unwrap();
        b.timed_activity("arrive", det(1.0))
            .unwrap()
            .input_arc(idle, 1)
            .output_arc(pending, 1)
            .output_arc(idle, 1)
            .build()
            .unwrap();
        b.instant_activity("route")
            .unwrap()
            .input_arc(pending, 1)
            .case(0.3)
            .output_arc(sink_a, 1)
            .case(0.7)
            .output_arc(sink_b, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let rewards = vec![
            RewardSpec::instant_of_time("a", move |m| m.tokens(sink_a) as f64),
            RewardSpec::instant_of_time("b", move |m| m.tokens(sink_b) as f64),
            RewardSpec::instant_of_time("pending", move |m| m.tokens(pending) as f64),
        ];
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(7);
        let result = sim.run(&rewards, 10_000.5, &mut rng).unwrap();
        let a = result.reward("a").unwrap();
        let b_count = result.reward("b").unwrap();
        // Every arrival must have been routed immediately.
        assert_eq!(result.reward("pending").unwrap(), 0.0);
        assert_eq!(a + b_count, 10_000.0);
        let frac_a = a / 10_000.0;
        assert!((frac_a - 0.3).abs() < 0.02, "case probability estimate {frac_a}");
    }

    #[test]
    fn unstable_instantaneous_loop_is_detected() {
        let mut b = ModelBuilder::new("loop");
        let p = b.add_place("p", 1).unwrap();
        let q = b.add_place("q", 0).unwrap();
        b.instant_activity("pq").unwrap().input_arc(p, 1).output_arc(q, 1).build().unwrap();
        b.instant_activity("qp").unwrap().input_arc(q, 1).output_arc(p, 1).build().unwrap();
        let model = b.build().unwrap();
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        let err = sim.run(&[], 10.0, &mut rng).unwrap_err();
        assert!(matches!(err, SanError::UnstableInstantaneousLoop { .. }));
        let mut rng = SimRng::seed_from_u64(1);
        let err = sim.run_reference(&[], 10.0, &mut rng).unwrap_err();
        assert!(matches!(err, SanError::UnstableInstantaneousLoop { .. }));
    }

    #[test]
    fn marking_dependent_rate_scales_with_population() {
        // N independent units each failing at rate lambda, modelled as a
        // single aggregate activity with rate N(t) * lambda. Count failures
        // over a horizon with instantaneous repair (tokens return), so the
        // expected number of failures is N * lambda * T.
        let mut b = ModelBuilder::new("aggregate");
        let working = b.add_place("working", 50).unwrap();
        let fail = b
            .timed_activity_fn("fail", move |m: &Marking| {
                let n = m.tokens(working).max(1) as f64;
                Dist::Exponential(Exponential::new(n * 0.01).unwrap())
            })
            .unwrap()
            .input_arc(working, 1)
            .output_arc(working, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let rewards = vec![RewardSpec::impulse_total("failures", fail, 1.0)];
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(11);
        let mut total = 0.0;
        let reps = 30;
        for _ in 0..reps {
            total += sim.run(&rewards, 1000.0, &mut rng).unwrap().reward("failures").unwrap();
        }
        let mean_failures = total / reps as f64;
        let expected = 50.0 * 0.01 * 1000.0;
        assert!(
            (mean_failures - expected).abs() / expected < 0.05,
            "mean {mean_failures}, expected {expected}"
        );
    }

    #[test]
    fn invalid_horizons_are_rejected() {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        b.timed_activity("fail", exp(1.0)).unwrap().input_arc(up, 1).build().unwrap();
        let model = b.build().unwrap();
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(sim.run(&[], 0.0, &mut rng).is_err());
        assert!(sim.run(&[], -5.0, &mut rng).is_err());
        assert!(sim.run(&[], f64::INFINITY, &mut rng).is_err());
        assert!(sim.run(&[], f64::NAN, &mut rng).is_err());
        assert!(sim.run_reference(&[], 0.0, &mut rng).is_err());
    }

    #[test]
    fn impulse_reward_with_bad_activity_reference_errors() {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        b.timed_activity("fail", exp(1.0)).unwrap().input_arc(up, 1).build().unwrap();
        let model = b.build().unwrap();
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        let bogus = RewardSpec::impulse_total("x", ActivityId(42), 1.0);
        assert!(matches!(sim.run(&[bogus], 10.0, &mut rng), Err(SanError::UnknownId { .. })));
    }

    /// The small-model fallback must be observably pure: on a model below
    /// the crossover threshold `run` (naive kernel), `run_traced` (always
    /// the calendar kernel), and `run_reference` must all produce the same
    /// result bit for bit.
    #[test]
    fn tiny_model_kernel_selection_is_observably_pure() {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", exp(70.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", exp(6.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        assert!(model.num_activities() < NAIVE_KERNEL_MAX_ACTIVITIES);
        let rewards =
            vec![RewardSpec::time_averaged_rate(
                "avail",
                move |m| if m.tokens(up) > 0 { 1.0 } else { 0.0 },
            )];
        let sim = Simulator::new(&model);
        let auto = sim.run(&rewards, 30_000.0, &mut SimRng::seed_from_u64(41)).unwrap();
        let (calendar, _) =
            sim.run_traced(&rewards, 30_000.0, &mut SimRng::seed_from_u64(41)).unwrap();
        let reference =
            sim.run_reference(&rewards, 30_000.0, &mut SimRng::seed_from_u64(41)).unwrap();
        assert_eq!(auto, calendar);
        assert_eq!(auto, reference);
    }

    #[test]
    fn identical_seeds_give_identical_results() {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", exp(50.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", exp(5.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let rewards =
            vec![RewardSpec::time_averaged_rate(
                "avail",
                move |m| if m.tokens(up) > 0 { 1.0 } else { 0.0 },
            )];
        let sim = Simulator::new(&model);
        let r1 = sim.run(&rewards, 10_000.0, &mut SimRng::seed_from_u64(3)).unwrap();
        let r2 = sim.run(&rewards, 10_000.0, &mut SimRng::seed_from_u64(3)).unwrap();
        assert_eq!(r1, r2);
    }

    /// A model that passes the enabling check but underflows when fired:
    /// two input arcs drain the same place holding a single token. The
    /// enabled check covers each arc independently, so the activity would
    /// fire.
    fn underflow_model() -> Model {
        let mut b = ModelBuilder::new("underflow");
        let p = b.add_place("p", 1).unwrap();
        b.timed_activity("drain", det(1.0))
            .unwrap()
            .input_arc(p, 1)
            .input_arc(p, 1)
            .build()
            .unwrap();
        b.build().unwrap()
    }

    /// Debug runs never reach the firing: the pre-simulation lint flags
    /// the duplicate-arc hazard statically (`SAN012`) and rejects the
    /// model up front.
    #[cfg(debug_assertions)]
    #[test]
    fn underflow_hazard_is_rejected_by_the_debug_lint() {
        let model = underflow_model();
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        match sim.run(&[], 10.0, &mut rng) {
            Err(SanError::LintRejected { details, .. }) => {
                assert!(details.contains("SAN012"), "expected SAN012 in: {details}");
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
    }

    /// The runtime debug assertion stays as the last line of defence on
    /// the unlinted reference-kernel path: firing with stale enabling
    /// still aborts instead of silently saturating.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "underflowed")]
    fn firing_underflow_is_caught_in_debug_builds() {
        let model = underflow_model();
        let sim = Simulator::new(&model);
        let mut rng = SimRng::seed_from_u64(1);
        let _ = sim.run_reference(&[], 10.0, &mut rng);
    }
}
