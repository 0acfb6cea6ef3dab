use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize, Value};

/// Identifier of a place within a [`Model`](crate::Model).
///
/// Place ids are handed out by [`ModelBuilder::add_place`](crate::ModelBuilder::add_place)
/// and are valid only for the model they were created for (and for models
/// composed from it without renumbering — see [`crate::compose`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlaceId(pub(crate) usize);

impl PlaceId {
    /// The raw index of the place in the model's place table.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// The state of a stochastic activity network: a token count per place.
///
/// Token counts are unsigned; gate functions that would drive a count
/// negative saturate at zero (and this is considered a modelling error to be
/// caught in tests, not silently relied upon).
///
/// # Change log
///
/// While the simulation engine runs, the marking records every *written*
/// place (whether or not the token count actually changed) in an internal
/// change log. The event-calendar scheduler drains that log after each
/// event to re-examine only the activities whose enabling could have been
/// affected, instead of rescanning the whole model. Tracking is off for
/// markings created outside the engine, so reward functions and tests pay
/// nothing for it.
#[derive(Clone)]
pub struct Marking {
    tokens: Vec<u64>,
    /// Indices of places written since the last [`Marking::clear_log`]
    /// (possibly with duplicates); only populated while `tracking` is set.
    log: Vec<u32>,
    tracking: bool,
    /// Read recorder attached by the lint probe harness; `None` (the only
    /// state the engine ever sees) costs one predictable branch per read.
    reads: Option<Arc<ReadRecorder>>,
}

/// Shared log of place reads, attached to probe markings by
/// [`crate::lint`] to infer the true read footprint of gate predicates,
/// timing functions, and reward functions.
///
/// Interior mutability keeps `Marking: Send + Sync` while letting reads be
/// recorded through the `&Marking` the closures receive.
#[derive(Debug, Default)]
pub(crate) struct ReadRecorder {
    log: Mutex<Vec<u32>>,
}

impl ReadRecorder {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(ReadRecorder::default())
    }

    fn record(&self, place: usize) {
        self.log.lock().expect("read recorder lock").push(place as u32);
    }

    /// Drains and returns the reads recorded since the last call.
    pub(crate) fn take(&self) -> Vec<u32> {
        std::mem::take(&mut *self.log.lock().expect("read recorder lock"))
    }
}

impl Marking {
    /// Creates a marking with the given token counts (indexed by place id).
    pub fn new(tokens: Vec<u64>) -> Self {
        Marking { tokens, log: Vec::new(), tracking: false, reads: None }
    }

    /// Creates a probe marking whose reads are recorded into `recorder`
    /// (lint use only).
    pub(crate) fn with_read_recorder(tokens: Vec<u64>, recorder: Arc<ReadRecorder>) -> Self {
        Marking { tokens, log: Vec::new(), tracking: false, reads: Some(recorder) }
    }

    /// Resets this marking in place to the state [`Marking::new`] would
    /// produce from `tokens`, reusing the existing allocations. Used by the
    /// kernels' per-worker scratch so a replication never reallocates the
    /// marking.
    pub(crate) fn reset_from(&mut self, tokens: impl Iterator<Item = u64>) {
        self.tokens.clear();
        self.tokens.extend(tokens);
        self.log.clear();
        self.tracking = false;
        self.reads = None;
    }

    /// Number of places in the marking.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the marking covers no places.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Tokens currently in `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this marking's model.
    pub fn tokens(&self, place: PlaceId) -> u64 {
        self.record_read(place.0);
        self.tokens[place.0]
    }

    /// Sets the token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this marking's model.
    pub fn set_tokens(&mut self, place: PlaceId, count: u64) {
        self.record_write(place);
        self.tokens[place.0] = count;
    }

    /// Adds `count` tokens to `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this marking's model.
    pub fn add_tokens(&mut self, place: PlaceId, count: u64) {
        self.record_write(place);
        self.tokens[place.0] += count;
    }

    /// Removes up to `count` tokens from `place`, saturating at zero.
    /// Returns the number actually removed.
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to this marking's model.
    pub fn remove_tokens(&mut self, place: PlaceId, count: u64) -> u64 {
        self.record_write(place);
        let available = self.tokens[place.0];
        let removed = available.min(count);
        self.tokens[place.0] = available - removed;
        removed
    }

    /// Whether `place` holds at least `count` tokens.
    pub(crate) fn has_at_least(&self, place: PlaceId, count: u64) -> bool {
        self.record_read(place.0);
        self.tokens[place.0] >= count
    }

    /// Total number of tokens across all places.
    pub fn total_tokens(&self) -> u64 {
        self.record_read_all();
        self.tokens.iter().sum()
    }

    /// Raw access to the token vector (for reward functions that want to
    /// iterate).
    pub fn as_slice(&self) -> &[u64] {
        self.record_read_all();
        &self.tokens
    }

    #[inline]
    fn record_write(&mut self, place: PlaceId) {
        if self.tracking {
            self.log.push(place.0 as u32);
        }
    }

    #[inline]
    fn record_read(&self, place: usize) {
        if let Some(recorder) = &self.reads {
            recorder.record(place);
        }
    }

    #[inline]
    fn record_read_all(&self) {
        if let Some(recorder) = &self.reads {
            for place in 0..self.tokens.len() {
                recorder.record(place);
            }
        }
    }

    /// Turns on write tracking (engine use only).
    pub(crate) fn enable_tracking(&mut self) {
        self.tracking = true;
        self.log.clear();
    }

    /// Place indices written since the last [`Marking::clear_log`], in write
    /// order and possibly with duplicates.
    pub(crate) fn log(&self) -> &[u32] {
        &self.log
    }

    /// Current length of the change log, for incremental consumers that
    /// process `log()[checkpoint..]`.
    pub(crate) fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Clears the change log (start of a new event).
    pub(crate) fn clear_log(&mut self) {
        self.log.clear();
    }
}

// The change log is scratch state owned by the engine: equality, ordering,
// formatting, and serialisation all consider token counts only.

impl PartialEq for Marking {
    fn eq(&self, other: &Self) -> bool {
        self.tokens == other.tokens
    }
}

impl Eq for Marking {}

impl std::fmt::Debug for Marking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Marking").field("tokens", &self.tokens).finish()
    }
}

impl Serialize for Marking {
    fn to_value(&self) -> Value {
        Value::Object(vec![("tokens".to_string(), self.tokens.to_value())])
    }
}

impl Deserialize for Marking {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_accounting() {
        let mut m = Marking::new(vec![2, 0, 5]);
        let p0 = PlaceId(0);
        let p1 = PlaceId(1);
        let p2 = PlaceId(2);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.tokens(p0), 2);
        assert!(m.has_at_least(p2, 5));
        assert!(!m.has_at_least(p1, 1));

        m.add_tokens(p1, 3);
        assert_eq!(m.tokens(p1), 3);
        assert_eq!(m.remove_tokens(p1, 2), 2);
        assert_eq!(m.tokens(p1), 1);
        // Saturating removal.
        assert_eq!(m.remove_tokens(p1, 10), 1);
        assert_eq!(m.tokens(p1), 0);

        m.set_tokens(p0, 7);
        assert_eq!(m.total_tokens(), 7 + 5);
        assert_eq!(m.as_slice(), &[7, 0, 5]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_place_panics() {
        let m = Marking::new(vec![1]);
        let _ = m.tokens(PlaceId(3));
    }

    #[test]
    fn place_id_exposes_index() {
        assert_eq!(PlaceId(4).index(), 4);
    }

    #[test]
    fn change_log_records_writes_only_while_tracking() {
        let mut m = Marking::new(vec![1, 1]);
        // Writes before tracking leave no log.
        m.add_tokens(PlaceId(0), 1);
        assert!(m.log().is_empty());

        m.enable_tracking();
        m.set_tokens(PlaceId(1), 0);
        m.remove_tokens(PlaceId(0), 1);
        // A no-op write is still logged: the engine is conservative about
        // which writes *could* have changed an enabling condition.
        m.remove_tokens(PlaceId(0), 0);
        assert_eq!(m.log(), &[1, 0, 0]);
        assert_eq!(m.log_len(), 3);

        m.clear_log();
        assert!(m.log().is_empty());
    }

    #[test]
    fn read_recorder_captures_reads_through_shared_ref() {
        let recorder = ReadRecorder::new();
        let m = Marking::with_read_recorder(vec![1, 2, 3], Arc::clone(&recorder));
        let _ = m.tokens(PlaceId(2));
        let _ = m.has_at_least(PlaceId(0), 1);
        assert_eq!(recorder.take(), vec![2, 0]);
        // `take` drains.
        assert!(recorder.take().is_empty());
        // Whole-marking reads record every place.
        let _ = m.total_tokens();
        assert_eq!(recorder.take(), vec![0, 1, 2]);
        let _ = m.as_slice();
        assert_eq!(recorder.take(), vec![0, 1, 2]);
        // Plain markings record nothing and carry no recorder.
        let plain = Marking::new(vec![1]);
        let _ = plain.tokens(PlaceId(0));
        assert!(recorder.take().is_empty());
    }

    #[test]
    fn equality_and_serialisation_ignore_the_log() {
        let mut a = Marking::new(vec![3, 4]);
        let b = Marking::new(vec![3, 4]);
        a.enable_tracking();
        a.set_tokens(PlaceId(0), 3);
        assert_eq!(a, b);
        assert_eq!(serde::to_json(&a), serde::to_json(&b));
        assert_eq!(serde::to_json(&b), "{\"tokens\":[3,4]}");
        assert_eq!(format!("{a:?}"), "Marking { tokens: [3, 4] }");
    }
}
