//! The retained naive full-scan simulation kernel.
//!
//! This is the original `O(A)`-per-event engine, kept as the semantics
//! oracle for the event-calendar kernel ([`crate::calendar`]): next-event
//! selection is a linear scan over every activity's scheduled firing,
//! instantaneous firing rescans all activities from index zero, and the
//! schedule refresh after each event re-examines the whole model. It is
//! deliberately independent of the incidence index and of
//! [`enabling_reads`](crate::ActivityBuilder::enabling_reads) declarations,
//! so a differential run against the calendar kernel catches both engine
//! bugs and unsound declarations. Reward accumulation goes through the same
//! compiled [`RewardTable`] primitives, so the arithmetic cannot drift.

use probdist::SimRng;

use crate::engine::{
    accumulate_rate_rewards, credit_impulses, finalise, fire_activity, prepare_marking,
    sample_delay, RunResult, RunScratch, TraceEvent, MAX_INSTANT_FIRINGS,
};
use crate::model::Timing;
use crate::reward::RewardTable;
use crate::{ActivityId, Marking, Model, SanError};

/// Reusable working state for one reference-kernel run, owned per worker by
/// [`RunScratch`](crate::engine::RunScratch). The marking and reward accumulator are
/// shared with the calendar kernel's scratch; these two buffers are the
/// reference kernel's own.
#[derive(Debug, Default)]
pub(crate) struct ReferenceScratch {
    /// Scheduled firing time per timed activity.
    schedule: Vec<Option<f64>>,
    /// Per-place "written during this event" flags.
    written: Vec<bool>,
}

/// Runs one replication with full rescans after every event.
pub(crate) fn run(
    model: &Model,
    table: &RewardTable,
    horizon: f64,
    rng: &mut SimRng,
    mut trace: Option<&mut Vec<TraceEvent>>,
    scratch: &mut RunScratch,
) -> Result<RunResult, SanError> {
    let marking = prepare_marking(&mut scratch.marking, model);
    // Track writes so declared timing reads can be honoured (naively): a
    // marking-dependent activity with declared reads resamples only when
    // one of them was written during the event.
    marking.enable_tracking();
    let mut now = 0.0_f64;
    let mut events = 0u64;
    // Telemetry tallies: plain locals on the hot path, flushed with one
    // sharded atomic add per counter at the end of the replication.
    let mut reexamined = 0u64;
    let mut restarts = 0u64;
    let acc = &mut scratch.acc;
    acc.clear();
    acc.resize(table.len(), 0.0);
    let ReferenceScratch { schedule, written } = &mut scratch.reference;
    written.clear();
    written.resize(model.num_places(), false);
    schedule.clear();
    schedule.resize(model.num_activities(), None);

    // Fire any instantaneous activities enabled in the initial marking,
    // then schedule timed activities.
    fire_instantaneous(model, marking, rng, &mut trace, &mut events, now, table, acc)?;
    marking.clear_log();
    refresh_schedule(
        model,
        marking,
        schedule,
        rng,
        now,
        true,
        written,
        &mut reexamined,
        &mut restarts,
    );

    loop {
        // Find the earliest scheduled completion by scanning every slot.
        let next = schedule
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|t| (t, i)))
            .min_by(|a, b| a.partial_cmp(b).expect("firing times are finite"));

        let (fire_time, activity_idx) = match next {
            Some((t, i)) if t <= horizon => (t, i),
            _ => {
                // No more events before the horizon: accumulate rewards
                // for the remaining interval and stop.
                accumulate_rate_rewards(table, marking, now, horizon, acc);
                now = horizon;
                break;
            }
        };

        // Integrate rate rewards over [now, fire_time].
        accumulate_rate_rewards(table, marking, now, fire_time, acc);
        now = fire_time;

        // Fire the activity.
        let activity_id = ActivityId(activity_idx);
        let case = fire_activity(model, activity_id, marking, rng);
        schedule[activity_idx] = None;
        events += 1;
        credit_impulses(table, activity_idx, acc);
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEvent { time: now, activity: activity_id, case });
        }

        // Process any instantaneous cascade triggered by the firing.
        fire_instantaneous(model, marking, rng, &mut trace, &mut events, now, table, acc)?;

        // Update the timed-activity schedule after the marking change.
        for &p in marking.log() {
            written[p as usize] = true;
        }
        refresh_schedule(
            model,
            marking,
            schedule,
            rng,
            now,
            false,
            written,
            &mut reexamined,
            &mut restarts,
        );
        for &p in marking.log() {
            written[p as usize] = false;
        }
        marking.clear_log();
    }

    {
        use probdist::telemetry::{counter_add, MetricId};
        counter_add(MetricId::SanEventsFired, events);
        counter_add(MetricId::SanReexaminations, reexamined);
        counter_add(MetricId::SanRestarts, restarts);
    }
    Ok(finalise(table, acc, marking, events, now))
}

/// Fires enabled instantaneous activities until none remain enabled,
/// rescanning all activities from index zero each time, and returning an
/// error if the cascade does not stabilise.
#[allow(clippy::too_many_arguments)]
fn fire_instantaneous(
    model: &Model,
    marking: &mut Marking,
    rng: &mut SimRng,
    trace: &mut Option<&mut Vec<TraceEvent>>,
    events: &mut u64,
    now: f64,
    table: &RewardTable,
    acc: &mut [f64],
) -> Result<(), SanError> {
    let mut firings = 0usize;
    loop {
        let next = model
            .activities()
            .iter()
            .enumerate()
            .find(|(_, a)| matches!(a.timing, Timing::Instantaneous) && a.is_enabled(marking))
            .map(|(i, _)| i);
        let Some(idx) = next else { return Ok(()) };
        let id = ActivityId(idx);
        let case = fire_activity(model, id, marking, rng);
        *events += 1;
        credit_impulses(table, idx, acc);
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEvent { time: now, activity: id, case });
        }
        firings += 1;
        if firings > MAX_INSTANT_FIRINGS {
            return Err(SanError::UnstableInstantaneousLoop { firings });
        }
    }
}

/// Brings the timed-activity schedule in line with the current marking:
/// disabled activities lose their sample, newly enabled activities sample a
/// delay, and enabled activities with marking-dependent timing resample —
/// always, or only when one of their declared timing-read places is in the
/// event's `written` set.
#[allow(clippy::too_many_arguments)]
fn refresh_schedule(
    model: &Model,
    marking: &Marking,
    schedule: &mut [Option<f64>],
    rng: &mut SimRng,
    now: f64,
    initial: bool,
    written: &[bool],
    reexamined: &mut u64,
    restarts: &mut u64,
) {
    for (i, activity) in model.activities().iter().enumerate() {
        if matches!(activity.timing, Timing::Instantaneous) {
            continue;
        }
        *reexamined += 1;
        if !activity.is_enabled(marking) {
            schedule[i] = None;
            continue;
        }
        let resample = !initial
            && activity.resamples()
            && match &activity.timing_reads {
                None => true,
                Some(reads) => reads.iter().any(|p| written[p.index()]),
            };
        if schedule[i].is_none() || resample {
            // A live sample being redrawn is a restart, mirroring the
            // calendar kernel's accounting.
            if schedule[i].is_some() {
                *restarts += 1;
            }
            schedule[i] = Some(now + sample_delay(activity, marking, rng));
        }
    }
}
