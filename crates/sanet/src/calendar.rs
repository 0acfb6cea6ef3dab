//! The event-calendar simulation kernel.
//!
//! Executes one replication in `O(log A + affected)` per event instead of
//! the reference kernel's `O(A + R)`:
//!
//! * **Next-event selection** — stable timed activities (those that keep
//!   their sampled firing time across marking changes) live in an indexed
//!   binary min-heap keyed by `(firing time, activity index)`; the index
//!   tie-break reproduces the reference kernel's linear-scan ordering for
//!   simultaneous firings exactly. Volatile activities (marking-dependent
//!   timing without declared timing reads) redraw their delay after
//!   *every* event by definition, so they bypass the heap: their fresh
//!   minimum falls out of the per-event refresh walk for free, and the next
//!   event is the smaller of the two minima.
//! * **Enabling updates** — after each firing, the marking's dirty-place
//!   change log is joined with the model's precomputed place→activity
//!   incidence index ([`crate::model::Incidence`]) to find the activities
//!   whose enabling could actually have changed. Gate-bearing activities
//!   without declared reads are revisited unconditionally (conservative),
//!   as are all volatile activities — which keeps every RNG draw in the
//!   same order as a full ascending-index rescan, and therefore every
//!   statistic bit-identical to [`crate::reference`].
//! * **Reward accumulation** — impulse rewards are credited through the
//!   compiled [`RewardTable`]'s per-activity buckets (`O(1)` per event)
//!   and rate rewards through its dense integrated slice.

use std::collections::BTreeSet;

use probdist::SimRng;

use crate::engine::{
    accumulate_rate_rewards, credit_impulses, finalise, fire_activity, prepare_marking,
    sample_delay, RunResult, RunScratch, TraceEvent, MAX_INSTANT_FIRINGS,
};
use crate::model::Timing;
use crate::model::{Incidence, META_SCAN_RESIDENT, RESAMPLE_BIT};
use crate::reward::RewardTable;
use crate::{ActivityId, Marking, Model, SanError};

/// Sentinel for "no scheduled event".
const NO_EVENT: (f64, u32) = (f64::INFINITY, u32::MAX);

/// Lexicographic `(time, activity index)` ordering — the heap key and the
/// tie-break that keeps simultaneous firings in ascending index order, like
/// the reference kernel's linear scan.
#[inline]
fn earlier(a: (f64, u32), b: (f64, u32)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Runs one replication on the event calendar.
///
/// All working memory comes from `scratch`, reset here at the start of the
/// run — a reused scratch makes the whole replication allocation-free.
pub(crate) fn run(
    model: &Model,
    table: &RewardTable,
    horizon: f64,
    rng: &mut SimRng,
    mut trace: Option<&mut Vec<TraceEvent>>,
    scratch: &mut RunScratch,
) -> Result<RunResult, SanError> {
    let acts = model.activities();
    let inc = model.incidence();
    let n = acts.len();

    let marking = prepare_marking(&mut scratch.marking, model);
    marking.enable_tracking();
    let mut now = 0.0_f64;
    let mut events = 0u64;
    // Telemetry tallies: plain locals on the hot path, flushed with one
    // sharded atomic add per counter at the end of the replication.
    let mut reexamined = 0u64;
    let mut heap_ops = 0u64;
    let mut restarts = 0u64;
    let acc = &mut scratch.acc;
    acc.clear();
    acc.resize(table.len(), 0.0);

    // Future-event list. Activities whose sample survives marking changes
    // (fixed timing, or marking-dependent timing with declared timing reads)
    // are heap members; conservative resamplers ("scan residents") redraw
    // after every event anyway, so they only occupy `time_of`, with their
    // minimum recomputed during each refresh walk.
    let CalendarScratch {
        time_of,
        heap,
        dirty_places,
        place_seen,
        revisit,
        act_seen,
        resample_due,
    } = &mut scratch.calendar;
    time_of.clear();
    time_of.resize(n, f64::INFINITY);
    heap.reset(n);
    dirty_places.clear();
    place_seen.clear();
    place_seen.resize(model.num_places(), false);
    revisit.clear();
    act_seen.clear();
    act_seen.resize(n, false);
    resample_due.clear();
    resample_due.resize(n, false);
    let mut vol_min = NO_EVENT;

    // Instantaneous activities currently enabled, by ascending index.
    let has_instants = !inc.instants.is_empty();
    let mut instant_enabled: BTreeSet<u32> = BTreeSet::new();
    for &i in &inc.instants {
        if inc.enabled_fast(i as usize, acts, marking.as_slice(), marking) {
            instant_enabled.insert(i);
        }
    }

    // Fire any instantaneous activities enabled in the initial marking.
    cascade(model, marking, rng, &mut instant_enabled, table, acc, &mut events, now, &mut trace)?;
    marking.clear_log();

    // Initial schedule: every enabled timed activity samples a delay in
    // ascending index order (the RNG draw order of a full rescan).
    for (i, activity) in acts.iter().enumerate() {
        if matches!(activity.timing, Timing::Instantaneous) || !activity.is_enabled(marking) {
            continue;
        }
        let t = now + sample_delay(activity, marking, rng);
        time_of[i] = t;
        if inc.meta[i].flags & META_SCAN_RESIDENT != 0 {
            if earlier((t, i as u32), vol_min) {
                vol_min = (t, i as u32);
            }
        } else {
            heap.push(i as u32, t);
            heap_ops += 1;
        }
    }

    loop {
        // The next completion is the smaller of the stable-heap top and the
        // volatile minimum.
        let mut next = vol_min;
        if let Some(top) = heap.peek() {
            if earlier(top, next) {
                next = top;
            }
        }
        let (fire_time, idx) = next;
        // `fire_time` is +inf when nothing is scheduled, so this single
        // comparison covers both "past the horizon" and "no more events".
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(fire_time <= horizon) {
            // No more events before the horizon: accumulate rewards for the
            // remaining interval and stop.
            accumulate_rate_rewards(table, marking, now, horizon, acc);
            now = horizon;
            break;
        }

        // Integrate rate rewards over [now, fire_time], then fire.
        accumulate_rate_rewards(table, marking, now, fire_time, acc);
        now = fire_time;
        let i = idx as usize;
        let id = ActivityId(i);
        // Clear the fired activity's schedule slot. Its heap entry (if any)
        // is left stale on purpose: the refresh walk below always revisits
        // the fired activity and either re-keys the entry in place (still
        // enabled — one sift instead of a remove + push) or evicts it.
        let case = fire_activity(model, id, marking, rng);
        time_of[i] = f64::INFINITY;
        events += 1;
        credit_impulses(table, i, acc);
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEvent { time: now, activity: id, case });
        }

        // Process the instantaneous cascade triggered by the firing (reads
        // the change log the firing just appended).
        if has_instants {
            cascade(
                model,
                marking,
                rng,
                &mut instant_enabled,
                table,
                acc,
                &mut events,
                now,
                &mut trace,
            )?;
        }

        // Collect the timed activities whose enabling could have changed or
        // whose sampled delay a write invalidated: the incidence lists of
        // every dirtied place, plus the fired activity itself (its schedule
        // slot was cleared above).
        dirty_places.clear();
        for &p in marking.log() {
            if !place_seen[p as usize] {
                place_seen[p as usize] = true;
                dirty_places.push(p);
            }
        }
        revisit.clear();
        act_seen[i] = true;
        revisit.push(idx);
        for &p in &*dirty_places {
            place_seen[p as usize] = false;
            for &entry in &inc.timed_by_place[p as usize] {
                let a = entry & !RESAMPLE_BIT;
                if entry & RESAMPLE_BIT != 0 {
                    resample_due[a as usize] = true;
                }
                if !act_seen[a as usize] {
                    act_seen[a as usize] = true;
                    revisit.push(a);
                }
            }
        }
        if revisit.len() > 1 {
            revisit.sort_unstable();
        }
        marking.clear_log();

        // Merge-walk `revisit` with the always-revisited set in ascending
        // index order — the reference kernel's RNG draw order — refreshing
        // schedules and recomputing the volatile minimum.
        vol_min = NO_EVENT;
        let (mut ri, mut ai) = (0usize, 0usize);
        loop {
            let a = match (revisit.get(ri), inc.always_revisit.get(ai)) {
                (Some(&r), Some(&v)) => {
                    if r < v {
                        ri += 1;
                        r
                    } else {
                        if r == v {
                            ri += 1;
                        }
                        ai += 1;
                        v
                    }
                }
                (Some(&r), None) => {
                    ri += 1;
                    r
                }
                (None, Some(&v)) => {
                    ai += 1;
                    v
                }
                (None, None) => break,
            };
            let ia = a as usize;
            act_seen[ia] = false;
            let due = resample_due[ia];
            resample_due[ia] = false;
            let flags = inc.meta[ia].flags;
            debug_assert!(!matches!(acts[ia].timing, Timing::Instantaneous));
            let scan_resident = flags & META_SCAN_RESIDENT != 0;
            reexamined += 1;
            if !inc.enabled_fast(ia, acts, marking.as_slice(), marking) {
                time_of[ia] = f64::INFINITY;
                if !scan_resident {
                    heap.remove(a);
                    heap_ops += 1;
                }
                continue;
            }
            // Draw a delay when newly enabled, always for a scan resident,
            // and when the event wrote a declared timing read (`due`; only
            // marking-dependent activities register one).
            if time_of[ia].is_infinite() || scan_resident || due {
                // A finite slot being redrawn is a restart: the previous
                // sample was invalidated by a marking change.
                if time_of[ia].is_finite() {
                    restarts += 1;
                }
                let t = now + sample_delay(&acts[ia], marking, rng);
                time_of[ia] = t;
                if !scan_resident {
                    heap.upsert(a, t);
                    heap_ops += 1;
                }
            }
            if scan_resident && earlier((time_of[ia], a), vol_min) {
                vol_min = (time_of[ia], a);
            }
        }
    }

    {
        use probdist::telemetry::{counter_add, MetricId};
        counter_add(MetricId::SanEventsFired, events);
        counter_add(MetricId::SanReexaminations, reexamined);
        counter_add(MetricId::SanHeapOps, heap_ops);
        counter_add(MetricId::SanRestarts, restarts);
    }
    Ok(finalise(table, acc, marking, events, now))
}

/// Re-checks the enabling of one instantaneous activity and updates the
/// enabled set.
#[inline]
fn update_instant(
    enabled: &mut BTreeSet<u32>,
    inc: &Incidence,
    acts: &[crate::model::Activity],
    marking: &Marking,
    idx: u32,
) {
    if inc.enabled_fast(idx as usize, acts, marking.as_slice(), marking) {
        enabled.insert(idx);
    } else {
        enabled.remove(&idx);
    }
}

/// Fires enabled instantaneous activities (lowest index first) until none
/// remain, keeping the enabled set in sync through the change log, and
/// returning an error if the cascade does not stabilise.
#[allow(clippy::too_many_arguments)]
fn cascade(
    model: &Model,
    marking: &mut Marking,
    rng: &mut SimRng,
    enabled: &mut BTreeSet<u32>,
    table: &RewardTable,
    acc: &mut [f64],
    events: &mut u64,
    now: f64,
    trace: &mut Option<&mut Vec<TraceEvent>>,
) -> Result<(), SanError> {
    let inc = model.incidence();
    if inc.instants.is_empty() {
        return Ok(());
    }
    let acts = model.activities();
    let mut checkpoint = 0usize;
    let mut firings = 0usize;
    loop {
        // Fold writes since the last iteration (initially: the writes of
        // the timed firing that triggered this cascade) into the enabled
        // set, then re-check the conservative (undeclared gate) instants.
        let log_len = marking.log_len();
        for li in checkpoint..log_len {
            let p = marking.log()[li] as usize;
            for &a in &inc.instant_by_place[p] {
                update_instant(enabled, inc, acts, marking, a);
            }
        }
        checkpoint = log_len;
        for &a in &inc.instant_conservative {
            update_instant(enabled, inc, acts, marking, a);
        }

        let Some(&idx) = enabled.iter().next() else { return Ok(()) };
        let id = ActivityId(idx as usize);
        let case = fire_activity(model, id, marking, rng);
        *events += 1;
        credit_impulses(table, idx as usize, acc);
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(TraceEvent { time: now, activity: id, case });
        }
        // The fired activity's own writes are in the log, but a firing that
        // writes nothing (no arcs, no-op output gates) must still be
        // re-checked — the reference kernel rescans it either way.
        update_instant(enabled, inc, acts, marking, idx);
        firings += 1;
        if firings > MAX_INSTANT_FIRINGS {
            return Err(SanError::UnstableInstantaneousLoop { firings });
        }
    }
}

/// Reusable working state for one calendar-kernel run. Owned per worker by
/// [`RunScratch`](crate::engine::RunScratch) so a replication re-primes these buffers
/// in place instead of allocating them afresh.
#[derive(Debug, Default)]
pub(crate) struct CalendarScratch {
    time_of: Vec<f64>,
    heap: IndexedHeap,
    dirty_places: Vec<u32>,
    place_seen: Vec<bool>,
    revisit: Vec<u32>,
    act_seen: Vec<bool>,
    resample_due: Vec<bool>,
}

/// An indexed binary min-heap over `(firing time, activity index)` keys with
/// `O(log n)` insert and remove-by-activity. `pos` maps each activity to its
/// current slot so disabled activities can be evicted without a scan.
#[derive(Debug, Default)]
struct IndexedHeap {
    entries: Vec<(f64, u32)>,
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl IndexedHeap {
    #[cfg(test)]
    fn new(n: usize) -> IndexedHeap {
        IndexedHeap { entries: Vec::with_capacity(n), pos: vec![ABSENT; n] }
    }

    /// Empties the heap and re-sizes the position map for a model with `n`
    /// activities, keeping both allocations.
    fn reset(&mut self, n: usize) {
        self.entries.clear();
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    #[inline]
    fn peek(&self) -> Option<(f64, u32)> {
        self.entries.first().copied()
    }

    fn push(&mut self, activity: u32, time: f64) {
        debug_assert_eq!(self.pos[activity as usize], ABSENT, "activity already scheduled");
        let slot = self.entries.len();
        self.entries.push((time, activity));
        self.pos[activity as usize] = slot as u32;
        self.sift_up(slot);
    }

    /// Inserts the activity, or re-keys it in place if already present (a
    /// resample or the re-schedule of a just-fired activity) — one sift
    /// instead of a remove + push.
    fn upsert(&mut self, activity: u32, time: f64) {
        let slot = self.pos[activity as usize];
        if slot == ABSENT {
            self.push(activity, time);
            return;
        }
        let slot = slot as usize;
        self.entries[slot].0 = time;
        // Only one direction can apply; sift_up is a no-op unless sift_down
        // was (the element that sift_down leaves at `slot` is always a
        // former descendant, already ≥ the parent).
        self.sift_down(slot);
        self.sift_up(slot);
    }

    fn remove(&mut self, activity: u32) {
        let slot = self.pos[activity as usize];
        if slot == ABSENT {
            return;
        }
        let slot = slot as usize;
        let last = self.entries.len() - 1;
        self.entries.swap(slot, last);
        self.pos[self.entries[slot].1 as usize] = slot as u32;
        self.entries.pop();
        self.pos[activity as usize] = ABSENT;
        if slot < self.entries.len() {
            self.sift_down(slot);
            self.sift_up(slot);
        }
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if !earlier(self.entries[slot], self.entries[parent]) {
                break;
            }
            self.entries.swap(slot, parent);
            self.pos[self.entries[slot].1 as usize] = slot as u32;
            self.pos[self.entries[parent].1 as usize] = parent as u32;
            slot = parent;
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let left = 2 * slot + 1;
            let right = left + 1;
            let mut smallest = slot;
            if left < self.entries.len() && earlier(self.entries[left], self.entries[smallest]) {
                smallest = left;
            }
            if right < self.entries.len() && earlier(self.entries[right], self.entries[smallest]) {
                smallest = right;
            }
            if smallest == slot {
                break;
            }
            self.entries.swap(slot, smallest);
            self.pos[self.entries[slot].1 as usize] = slot as u32;
            self.pos[self.entries[smallest].1 as usize] = smallest as u32;
            slot = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(heap: &mut IndexedHeap) -> Vec<(f64, u32)> {
        let mut out = Vec::new();
        while let Some(top) = heap.peek() {
            out.push(top);
            heap.remove(top.1);
        }
        out
    }

    #[test]
    fn heap_orders_by_time_then_index() {
        let mut heap = IndexedHeap::new(6);
        heap.push(3, 5.0);
        heap.push(0, 7.0);
        heap.push(5, 5.0);
        heap.push(1, 5.0);
        heap.push(2, 1.0);
        assert_eq!(
            drain(&mut heap),
            vec![(1.0, 2), (5.0, 1), (5.0, 3), (5.0, 5), (7.0, 0)],
            "ties must break by ascending activity index"
        );
    }

    #[test]
    fn heap_remove_by_activity_keeps_invariants() {
        let mut heap = IndexedHeap::new(8);
        for (a, t) in [(0, 9.0), (1, 2.0), (2, 7.0), (3, 4.0), (4, 6.0), (5, 3.0)] {
            heap.push(a, t);
        }
        heap.remove(1); // current minimum
        heap.remove(4); // interior node
        heap.remove(7); // absent: no-op
        assert_eq!(drain(&mut heap), vec![(3.0, 5), (4.0, 3), (7.0, 2), (9.0, 0)]);
    }

    #[test]
    fn heap_reinsertion_after_removal() {
        let mut heap = IndexedHeap::new(4);
        heap.push(2, 10.0);
        heap.remove(2);
        heap.push(2, 1.0);
        heap.push(0, 5.0);
        assert_eq!(drain(&mut heap), vec![(1.0, 2), (5.0, 0)]);
    }

    #[test]
    fn heap_upsert_rekeys_in_place() {
        let mut heap = IndexedHeap::new(6);
        for (a, t) in [(0, 4.0), (1, 2.0), (2, 9.0), (3, 6.0)] {
            heap.push(a, t);
        }
        heap.upsert(1, 12.0); // min moves to the bottom
        heap.upsert(2, 1.0); // interior moves to the top
        heap.upsert(5, 3.0); // absent: plain insert
        assert_eq!(drain(&mut heap), vec![(1.0, 2), (3.0, 5), (4.0, 0), (6.0, 3), (12.0, 1)]);
    }
}
