use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use probdist::Dist;

use crate::{Marking, PlaceId, SanError};

/// Identifier of an activity within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) usize);

impl ActivityId {
    /// The raw index of the activity in the model's activity table.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A predicate over the current marking (input-gate enabling condition).
pub(crate) type Predicate = Arc<dyn Fn(&Marking) -> bool + Send + Sync>;

/// A marking transformation (output-gate function).
pub(crate) type MarkingFn = Arc<dyn Fn(&mut Marking) + Send + Sync>;

/// A marking-dependent firing distribution.
pub(crate) type DistFn = Arc<dyn Fn(&Marking) -> Dist + Send + Sync>;

/// How an activity samples its firing delay.
#[derive(Clone)]
pub(crate) enum Timing {
    /// The activity completes immediately (zero delay) once enabled.
    /// Instantaneous activities have priority over all timed activities.
    Instantaneous,
    /// The activity completes after a delay drawn from a fixed distribution.
    Timed(Dist),
    /// The activity completes after a delay drawn from a distribution that
    /// depends on the marking at activation time (e.g. an aggregate failure
    /// rate proportional to the number of working units).
    TimedFn(DistFn),
}

impl fmt::Debug for Timing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Timing::Instantaneous => write!(f, "Instantaneous"),
            Timing::Timed(d) => write!(f, "Timed({})", d.family()),
            Timing::TimedFn(_) => write!(f, "TimedFn(<marking-dependent>)"),
        }
    }
}

/// One probabilistic case of an activity (its output side): the arcs that
/// deposit tokens and the gate functions applied after them.
#[derive(Clone)]
pub(crate) struct Case {
    pub(crate) probability: f64,
    pub(crate) output_arcs: Vec<(PlaceId, u64)>,
    pub(crate) output_gates: Vec<MarkingFn>,
}

/// An activity (transition) of the network.
#[derive(Clone)]
pub(crate) struct Activity {
    pub(crate) name: String,
    pub(crate) timing: Timing,
    pub(crate) input_arcs: Vec<(PlaceId, u64)>,
    /// Input-gate predicates: the activity is enabled only while all hold.
    pub(crate) input_gates: Vec<Predicate>,
    pub(crate) cases: Vec<Case>,
    /// Places the activity's input-gate predicates read, when declared via
    /// [`ActivityBuilder::enabling_reads`]. `None` with gates present means
    /// the reads are unknown and the scheduler must treat the enabling as
    /// depending on every place.
    pub(crate) declared_reads: Option<Vec<PlaceId>>,
    /// Places the activity's timing distribution reads, when declared via
    /// [`ActivityBuilder::timing_reads`]. For a marking-dependent timing,
    /// `Some` refines the restart policy: the sampled delay is kept unless
    /// one of these places is written. `None` keeps the conservative policy
    /// (resample after every marking change).
    pub(crate) timing_reads: Option<Vec<PlaceId>>,
}

impl Activity {
    /// Whether a marking change may redraw the activity's sampled delay:
    /// exactly when its timing is marking-dependent ([`Timing::TimedFn`]),
    /// since a kept sample would reflect a stale rate. A fixed distribution
    /// keeps its sample until the activity fires or is disabled.
    pub(crate) fn resamples(&self) -> bool {
        matches!(self.timing, Timing::TimedFn(_))
    }

    /// Whether the activity must redraw its firing delay after *every*
    /// marking change (conservative restart policy): it resamples but has
    /// not declared which places its timing reads. Such activities bypass
    /// the calendar heap — their schedule is refreshed (and their minimum
    /// recomputed) on every event anyway.
    pub(crate) fn scan_resident(&self) -> bool {
        self.resamples() && self.timing_reads.is_none()
    }
}

impl fmt::Debug for Activity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Activity")
            .field("name", &self.name)
            .field("timing", &self.timing)
            .field("input_arcs", &self.input_arcs)
            .field("input_gates", &self.input_gates.len())
            .field("cases", &self.cases.len())
            .finish()
    }
}

impl Activity {
    /// Whether the activity is enabled in the given marking: every input arc
    /// is covered and every input-gate predicate holds.
    pub(crate) fn is_enabled(&self, marking: &Marking) -> bool {
        self.input_arcs.iter().all(|&(p, n)| marking.has_at_least(p, n))
            && self.input_gates.iter().all(|gate| gate(marking))
    }

    /// Applies one completion through case `case`: the input arcs consume
    /// their tokens, the case's output arcs deposit theirs, then its output
    /// gates run. Both kernels, the reachability explorer and trace replay
    /// all fire through here; the kernels draw the case first.
    ///
    /// Returns the first input place that held fewer tokens than its arc
    /// consumes. An enabled activity never underflows unless two arcs drain
    /// one place (lint `SAN012`): the kernels assert against it in debug
    /// builds, while the explorer takes the saturated marking.
    #[inline]
    pub(crate) fn complete(&self, case: usize, marking: &mut Marking) -> Option<PlaceId> {
        let mut underflow = None;
        for &(place, tokens) in &self.input_arcs {
            if marking.remove_tokens(place, tokens) < tokens && underflow.is_none() {
                underflow = Some(place);
            }
        }
        let case = &self.cases[case];
        for &(place, tokens) in &case.output_arcs {
            marking.add_tokens(place, tokens);
        }
        for gate in &case.output_gates {
            gate(marking);
        }
        underflow
    }
}

#[derive(Debug, Clone)]
pub(crate) struct PlaceInfo {
    pub(crate) name: String,
    pub(crate) initial_tokens: u64,
}

/// Precomputed enabling-dependency index of a model, built once in
/// [`ModelBuilder::build`] and consulted by the event-calendar scheduler
/// after every marking change.
///
/// An activity's enabling is a pure function of the places it reads: its
/// input-arc places plus whatever its input-gate predicates inspect. Arc
/// reads are known from the structure; gate reads are known only when the
/// model declares them ([`ActivityBuilder::enabling_reads`]), otherwise the
/// activity is registered conservatively (re-examined after every event).
/// Marking-dependent timings ([`Timing::TimedFn`]) without declared timing
/// reads must redraw their firing delay after *every* marking change
/// regardless, so they are always revisited — that keeps the RNG draw
/// sequence bit-identical to a full rescan.
/// Bit set on a [`Incidence::timed_by_place`] entry whose write also
/// invalidates the activity's sampled delay (a declared timing read).
pub(crate) const RESAMPLE_BIT: u32 = 1 << 31;

/// Activity-meta flag: the activity has input gates (the flat arc check must
/// fall back to the gate predicates).
pub(crate) const META_HAS_GATES: u8 = 1 << 0;
/// Activity-meta flag: conservative resampler (redraws after every event and
/// bypasses the calendar heap).
pub(crate) const META_SCAN_RESIDENT: u8 = 1 << 1;

/// Compact per-activity scheduling metadata: policy flags plus a span into
/// the model's flattened input-arc table. The event-calendar kernel's hot
/// paths (enabling checks, the refresh walk) read these two dense arrays
/// instead of chasing pointers through each [`Activity`]'s own vectors.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActivityMeta {
    pub(crate) arc_start: u32,
    pub(crate) arc_len: u16,
    pub(crate) flags: u8,
}

#[derive(Debug, Clone, Default)]
pub(crate) struct Incidence {
    /// place index → timed activities registered on it, ascending by
    /// activity index; an entry is the activity index, with [`RESAMPLE_BIT`]
    /// set when a write to the place must additionally redraw the
    /// activity's sampled delay (declared timing read).
    pub(crate) timed_by_place: Vec<Vec<u32>>,
    /// place index → instantaneous activities whose enabling may depend on
    /// it (ascending activity index).
    pub(crate) instant_by_place: Vec<Vec<u32>>,
    /// Timed activities revisited after every event: conservative
    /// resamplers (marking-dependent timing without declared timing reads)
    /// and gate-bearing activities without declared enabling reads
    /// (ascending).
    pub(crate) always_revisit: Vec<u32>,
    /// Instantaneous activities with undeclared gate reads, re-checked after
    /// every firing (ascending).
    pub(crate) instant_conservative: Vec<u32>,
    /// Every instantaneous activity (ascending).
    pub(crate) instants: Vec<u32>,
    /// Per-activity scheduling metadata (flags + flat-arc span).
    pub(crate) meta: Vec<ActivityMeta>,
    /// Every activity's input arcs as `(place index, tokens)`, flattened in
    /// activity order; indexed through [`ActivityMeta`].
    pub(crate) arcs: Vec<(u32, u64)>,
}

impl Incidence {
    fn build(places: usize, activities: &[Activity]) -> Incidence {
        let mut inc = Incidence {
            timed_by_place: vec![Vec::new(); places],
            instant_by_place: vec![Vec::new(); places],
            always_revisit: Vec::new(),
            instant_conservative: Vec::new(),
            instants: Vec::new(),
            meta: Vec::with_capacity(activities.len()),
            arcs: Vec::new(),
        };
        let mut dep_seen = vec![usize::MAX; places];
        let mut dep_slot = vec![0usize; places];
        for (i, activity) in activities.iter().enumerate() {
            let idx = i as u32;
            let instant = matches!(activity.timing, Timing::Instantaneous);

            let arc_start = inc.arcs.len() as u32;
            inc.arcs.extend(activity.input_arcs.iter().map(|&(p, n)| (p.0 as u32, n)));
            let mut flags = 0u8;
            if !activity.input_gates.is_empty() {
                flags |= META_HAS_GATES;
            }
            if activity.scan_resident() {
                flags |= META_SCAN_RESIDENT;
            }
            inc.meta.push(ActivityMeta {
                arc_start,
                arc_len: activity.input_arcs.len().try_into().expect("fewer than 65536 arcs"),
                flags,
            });

            if instant {
                inc.instants.push(idx);
            }
            let gates_conservative =
                !activity.input_gates.is_empty() && activity.declared_reads.is_none();
            if instant {
                if gates_conservative {
                    inc.instant_conservative.push(idx);
                }
            } else if gates_conservative || activity.scan_resident() {
                inc.always_revisit.push(idx);
            }

            // Register enabling dependencies (arc places plus declared gate
            // reads) unless conservative, and — for marking-dependent timed
            // activities — declared timing reads, OR-ing the resample bit
            // into an existing entry for the same place.
            let mut register = |place: PlaceId, bit: u32, list: &mut Vec<Vec<u32>>| {
                if dep_seen[place.0] == i {
                    list[place.0][dep_slot[place.0]] |= bit;
                } else {
                    dep_seen[place.0] = i;
                    dep_slot[place.0] = list[place.0].len();
                    list[place.0].push(idx | bit);
                }
            };
            if instant {
                if !gates_conservative {
                    for &(place, _) in &activity.input_arcs {
                        register(place, 0, &mut inc.instant_by_place);
                    }
                    for &place in activity.declared_reads.iter().flatten() {
                        register(place, 0, &mut inc.instant_by_place);
                    }
                }
            } else {
                if !gates_conservative {
                    for &(place, _) in &activity.input_arcs {
                        register(place, 0, &mut inc.timed_by_place);
                    }
                    for &place in activity.declared_reads.iter().flatten() {
                        register(place, 0, &mut inc.timed_by_place);
                    }
                }
                if activity.resamples() {
                    for &place in activity.timing_reads.iter().flatten() {
                        register(place, RESAMPLE_BIT, &mut inc.timed_by_place);
                    }
                }
            }
        }
        inc
    }

    /// Fast enabling check through the flat arc table, falling back to the
    /// activity's gate predicates only when it has gates. Equivalent to
    /// [`Activity::is_enabled`] by construction.
    #[inline]
    pub(crate) fn enabled_fast(
        &self,
        idx: usize,
        activities: &[Activity],
        tokens: &[u64],
        marking: &Marking,
    ) -> bool {
        let meta = &self.meta[idx];
        let span = meta.arc_start as usize..meta.arc_start as usize + meta.arc_len as usize;
        for &(place, need) in &self.arcs[span] {
            if tokens[place as usize] < need {
                return false;
            }
        }
        meta.flags & META_HAS_GATES == 0
            || activities[idx].input_gates.iter().all(|gate| gate(marking))
    }
}

/// An immutable stochastic activity network, ready to simulate.
///
/// Build one with [`ModelBuilder`]. A `Model` is cheap to clone (all gate
/// closures are reference-counted) and can be shared across threads for
/// parallel replications.
#[derive(Debug, Clone)]
pub struct Model {
    name: String,
    places: Vec<PlaceInfo>,
    activities: Vec<Activity>,
    place_index: HashMap<String, PlaceId>,
    activity_index: HashMap<String, ActivityId>,
    incidence: Incidence,
    /// Memoised outcome of the debug-build pre-simulation lint; shared by
    /// clones (same structure, same verdict).
    lint_gate: Arc<OnceLock<Option<SanError>>>,
}

impl Model {
    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of places.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of activities.
    pub fn num_activities(&self) -> usize {
        self.activities.len()
    }

    /// The initial marking of the network.
    pub fn initial_marking(&self) -> Marking {
        Marking::new(self.places.iter().map(|p| p.initial_tokens).collect())
    }

    /// Resets `marking` in place to this model's initial marking, reusing
    /// its allocations (the scratch-based kernels call this once per
    /// replication instead of [`Model::initial_marking`]).
    pub(crate) fn reset_marking(&self, marking: &mut Marking) {
        marking.reset_from(self.places.iter().map(|p| p.initial_tokens));
    }

    /// Looks up a place by (fully scoped) name.
    pub fn place(&self, name: &str) -> Option<PlaceId> {
        self.place_index.get(name).copied()
    }

    /// Looks up an activity by (fully scoped) name.
    pub fn activity(&self, name: &str) -> Option<ActivityId> {
        self.activity_index.get(name).copied()
    }

    /// Name of the given place.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    pub(crate) fn place_name(&self, id: PlaceId) -> &str {
        &self.places[id.0].name
    }

    /// Name of the given activity.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    pub fn activity_name(&self, id: ActivityId) -> &str {
        &self.activities[id.0].name
    }

    /// All place names in id order.
    pub(crate) fn place_names(&self) -> impl Iterator<Item = &str> {
        self.places.iter().map(|p| p.name.as_str())
    }

    pub(crate) fn activities(&self) -> &[Activity] {
        &self.activities
    }

    pub(crate) fn activity_ref(&self, id: ActivityId) -> &Activity {
        &self.activities[id.0]
    }

    pub(crate) fn incidence(&self) -> &Incidence {
        &self.incidence
    }

    /// Statically analyses the model with the default probe configuration
    /// and no rewards; see [`crate::lint`] for the diagnostic code table.
    pub fn lint(&self) -> crate::lint::LintReport {
        self.lint_with(&crate::lint::LintConfig::default(), &[])
    }

    /// Statically analyses the model, probing its gate, timing, and reward
    /// closures over a fuzzed marking corpus; see [`crate::lint`].
    pub fn lint_with(
        &self,
        config: &crate::lint::LintConfig,
        rewards: &[crate::RewardSpec],
    ) -> crate::lint::LintReport {
        crate::lint::lint_model(self, config, rewards)
    }

    /// Explores the reachable marking graph under the default budget and
    /// classifies boundedness, ergodicity, timing, and solver
    /// admissibility; see [`crate::reach`].
    pub fn analyze(&self) -> crate::reach::ReachReport {
        self.analyze_with(&crate::reach::ReachConfig::default())
    }

    /// Explores the reachable marking graph under `config`; see
    /// [`crate::reach`] for the exploration semantics and the `SAN04x`
    /// diagnostics derived from the report.
    pub fn analyze_with(&self, config: &crate::reach::ReachConfig) -> crate::reach::ReachReport {
        crate::reach::explore(self, config)
    }

    /// Debug-build guard run by [`Simulator::run`](crate::Simulator::run)
    /// and [`Experiment::run_raw`](crate::Experiment::run_raw): rejects
    /// models with Error-level lint diagnostics before the first
    /// replication. Memoised per model so repeated runs pay nothing; a
    /// no-op in release builds (`cfg!` rather than `#[cfg]` so both
    /// profiles compile the same code, the optimiser erases the branch).
    ///
    /// # Errors
    ///
    /// Returns [`SanError::LintRejected`] when the lint finds Error-level
    /// diagnostics.
    pub(crate) fn debug_lint(&self) -> Result<(), SanError> {
        if !cfg!(debug_assertions) {
            return Ok(());
        }
        let verdict = self.lint_gate.get_or_init(|| {
            let config = crate::lint::LintConfig { probes: 64, ..Default::default() };
            self.lint_with(&config, &[]).deny(crate::lint::Severity::Error).err()
        });
        verdict.clone().map_or(Ok(()), Err)
    }
}

/// Builder for [`Model`]: declare places, then activities with their arcs,
/// gates and cases, then call [`ModelBuilder::build`].
///
/// Submodels are composed by writing functions that take `&mut ModelBuilder`
/// plus the shared [`PlaceId`]s and add their own scoped places and
/// activities; see [`crate::compose`].
pub struct ModelBuilder {
    name: String,
    places: Vec<PlaceInfo>,
    activities: Vec<Activity>,
    place_index: HashMap<String, PlaceId>,
    activity_index: HashMap<String, ActivityId>,
    scope: Vec<String>,
}

impl fmt::Debug for ModelBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelBuilder")
            .field("name", &self.name)
            .field("places", &self.places.len())
            .field("activities", &self.activities.len())
            .field("scope", &self.scope)
            .finish()
    }
}

impl ModelBuilder {
    /// Creates an empty builder for a model called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ModelBuilder {
            name: name.into(),
            places: Vec::new(),
            activities: Vec::new(),
            place_index: HashMap::new(),
            activity_index: HashMap::new(),
            scope: Vec::new(),
        }
    }

    fn scoped_name(&self, name: &str) -> String {
        if self.scope.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.scope.join("/"), name)
        }
    }

    /// Pushes a naming scope; subsequent places and activities are named
    /// `scope/…`. Scopes nest.
    pub(crate) fn push_scope(&mut self, scope: impl Into<String>) {
        self.scope.push(scope.into());
    }

    /// Pops the innermost naming scope.
    pub(crate) fn pop_scope(&mut self) {
        self.scope.pop();
    }

    /// Adds a place with an initial token count, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicateName`] if a place with the same scoped
    /// name already exists.
    pub fn add_place(&mut self, name: &str, initial_tokens: u64) -> Result<PlaceId, SanError> {
        let full = self.scoped_name(name);
        if self.place_index.contains_key(&full) {
            return Err(SanError::DuplicateName { name: full });
        }
        let id = PlaceId(self.places.len());
        self.places.push(PlaceInfo { name: full.clone(), initial_tokens });
        self.place_index.insert(full, id);
        Ok(id)
    }

    /// Looks up a place previously added under the given *fully scoped*
    /// name.
    pub fn place(&self, full_name: &str) -> Option<PlaceId> {
        self.place_index.get(full_name).copied()
    }

    /// Starts a timed activity with a fixed firing distribution.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicateName`] if an activity with the same
    /// scoped name already exists.
    pub fn timed_activity(
        &mut self,
        name: &str,
        dist: impl Into<Dist>,
    ) -> Result<ActivityBuilder<'_>, SanError> {
        self.activity_builder(name, Timing::Timed(dist.into()))
    }

    /// Starts a timed activity whose firing distribution is computed from
    /// the marking. Its sampled delay is redrawn after every marking change
    /// while it stays enabled, or — once [`ActivityBuilder::timing_reads`]
    /// declares the places the distribution reads — after each change that
    /// writes one of them.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicateName`] if an activity with the same
    /// scoped name already exists.
    pub fn timed_activity_fn(
        &mut self,
        name: &str,
        dist_fn: impl Fn(&Marking) -> Dist + Send + Sync + 'static,
    ) -> Result<ActivityBuilder<'_>, SanError> {
        self.activity_builder(name, Timing::TimedFn(Arc::new(dist_fn)))
    }

    /// Starts an instantaneous (zero-delay) activity.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::DuplicateName`] if an activity with the same
    /// scoped name already exists.
    pub fn instant_activity(&mut self, name: &str) -> Result<ActivityBuilder<'_>, SanError> {
        self.activity_builder(name, Timing::Instantaneous)
    }

    fn activity_builder(
        &mut self,
        name: &str,
        timing: Timing,
    ) -> Result<ActivityBuilder<'_>, SanError> {
        let full = self.scoped_name(name);
        if self.activity_index.contains_key(&full) {
            return Err(SanError::DuplicateName { name: full });
        }
        Ok(ActivityBuilder {
            builder: self,
            activity: Activity {
                name: full,
                timing,
                input_arcs: Vec::new(),
                input_gates: Vec::new(),
                cases: vec![Case {
                    probability: 1.0,
                    output_arcs: Vec::new(),
                    output_gates: Vec::new(),
                }],
                declared_reads: None,
                timing_reads: None,
            },
            explicit_cases: false,
        })
    }

    /// Finalises the model.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidExperiment`] if the model has no
    /// activities (nothing to simulate).
    pub fn build(self) -> Result<Model, SanError> {
        if self.activities.is_empty() {
            return Err(SanError::InvalidExperiment { reason: "model has no activities".into() });
        }
        let incidence = Incidence::build(self.places.len(), &self.activities);
        Ok(Model {
            name: self.name,
            places: self.places,
            activities: self.activities,
            place_index: self.place_index,
            activity_index: self.activity_index,
            incidence,
            lint_gate: Arc::new(OnceLock::new()),
        })
    }

    /// Number of places added so far.
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of activities added so far.
    pub fn num_activities(&self) -> usize {
        self.activities.len()
    }
}

/// Builder for a single activity; created by the `*_activity` methods on
/// [`ModelBuilder`] and committed with [`ActivityBuilder::build`].
pub struct ActivityBuilder<'a> {
    builder: &'a mut ModelBuilder,
    activity: Activity,
    explicit_cases: bool,
}

impl fmt::Debug for ActivityBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivityBuilder").field("activity", &self.activity).finish()
    }
}

impl<'a> ActivityBuilder<'a> {
    /// Adds an input arc: the activity requires (and consumes) `tokens`
    /// tokens from `place`.
    pub fn input_arc(mut self, place: PlaceId, tokens: u64) -> Self {
        self.activity.input_arcs.push((place, tokens));
        self
    }

    /// Adds an input gate: an enabling condition the marking must satisfy
    /// (on top of the input arcs) for the activity to be enabled.
    pub fn enabling_predicate(
        mut self,
        predicate: impl Fn(&Marking) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.activity.input_gates.push(Arc::new(predicate));
        self
    }

    /// Starts a new probabilistic case with the given probability. Output
    /// arcs and gates added after this call belong to the new case.
    ///
    /// If `case` is never called, the activity has a single implicit case
    /// with probability one.
    pub fn case(mut self, probability: f64) -> Self {
        if !self.explicit_cases {
            // Replace the implicit always-case with the first explicit one.
            self.activity.cases.clear();
            self.explicit_cases = true;
        }
        self.activity.cases.push(Case {
            probability,
            output_arcs: Vec::new(),
            output_gates: Vec::new(),
        });
        self
    }

    /// Adds an output arc to the current case: `tokens` tokens are deposited
    /// into `place` when the activity completes (and this case is chosen).
    pub fn output_arc(mut self, place: PlaceId, tokens: u64) -> Self {
        self.activity
            .cases
            .last_mut()
            .expect("at least one case always exists")
            .output_arcs
            .push((place, tokens));
        self
    }

    /// Adds an output gate to the current case.
    pub fn output_gate(mut self, function: impl Fn(&mut Marking) + Send + Sync + 'static) -> Self {
        self.activity
            .cases
            .last_mut()
            .expect("at least one case always exists")
            .output_gates
            .push(Arc::new(function));
        self
    }

    /// Declares that the activity's input-gate predicates read *only* the
    /// given places (in addition to its input-arc places, which are always
    /// known). Repeated calls accumulate.
    ///
    /// This is a scheduling hint for the event-calendar engine: a
    /// gate-bearing activity without a declaration must be re-examined after
    /// every event (its predicate could read any place), whereas a declared
    /// activity is re-examined only when one of its read places is written.
    /// The declaration is a soundness contract — it must cover **every**
    /// place any of the activity's predicates can read in any marking.
    /// Under-declaring makes the simulator silently miss enabling changes;
    /// the retained reference engine
    /// ([`Simulator::run_reference`](crate::Simulator::run_reference)), which
    /// ignores declarations, exists to catch exactly that in differential
    /// tests. Declarations never change which places a gate may *write*:
    /// writes are tracked exactly at run time through the marking's change
    /// log.
    pub fn enabling_reads(mut self, places: &[PlaceId]) -> Self {
        self.activity.declared_reads.get_or_insert_with(Vec::new).extend_from_slice(places);
        self
    }

    /// Declares that the activity's timing distribution reads *only* the
    /// given places, refining the restart policy of a marking-dependent
    /// activity ([`ModelBuilder::timed_activity_fn`]): its sampled firing
    /// delay is kept across marking changes unless one of the declared
    /// places is *written* during an event, in which case the delay is
    /// redrawn from the (possibly changed) distribution. Repeated calls
    /// accumulate. Without a declaration the conservative policy applies —
    /// the delay is redrawn after every event. On a fixed distribution the
    /// declaration is inert (lint `SAN003`).
    ///
    /// Like [`ActivityBuilder::enabling_reads`], this is a soundness
    /// contract: the declaration must cover every place the distribution
    /// function can read in any marking. It also sharpens the stochastic
    /// semantics — keeping a sample whose distribution did not change is the
    /// standard Möbius reactivation rule and is law-equivalent to the
    /// conservative resample for memoryless (exponential) timings, but for
    /// non-memoryless distributions the two policies define different
    /// processes, so declare reads only when "keep unless my inputs
    /// changed" is the semantics you mean. The retained reference kernel
    /// honours declarations identically, keeping differential runs
    /// bit-identical.
    pub fn timing_reads(mut self, places: &[PlaceId]) -> Self {
        self.activity.timing_reads.get_or_insert_with(Vec::new).extend_from_slice(places);
        self
    }

    /// Commits the activity to the model, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::InvalidActivity`] if the activity has neither
    /// inputs nor outputs, or if explicit case probabilities do not sum to
    /// one (within 1e-9) or any probability is negative.
    pub fn build(self) -> Result<ActivityId, SanError> {
        let a = &self.activity;
        let has_effect = !a.input_arcs.is_empty()
            || !a.input_gates.is_empty()
            || a.cases.iter().any(|c| !c.output_arcs.is_empty() || !c.output_gates.is_empty());
        if !has_effect {
            return Err(SanError::InvalidActivity {
                name: a.name.clone(),
                reason: "activity has no input arcs, gates, or outputs".into(),
            });
        }
        for (reads, what) in
            [(&a.declared_reads, "an enabling read"), (&a.timing_reads, "a timing read")]
        {
            if let Some(place) = reads.iter().flatten().find(|p| p.0 >= self.builder.places.len()) {
                return Err(SanError::UnknownId {
                    what: format!("place #{} declared as {what} of activity `{}`", place.0, a.name),
                });
            }
        }
        if self.explicit_cases {
            let total: f64 = a.cases.iter().map(|c| c.probability).sum();
            if a.cases.iter().any(|c| c.probability < 0.0) || (total - 1.0).abs() > 1e-9 {
                return Err(SanError::InvalidActivity {
                    name: a.name.clone(),
                    reason: format!(
                        "case probabilities must be non-negative and sum to 1, got {total}"
                    ),
                });
            }
        }
        let id = ActivityId(self.builder.activities.len());
        self.builder.activity_index.insert(self.activity.name.clone(), id);
        self.builder.activities.push(self.activity);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdist::{Deterministic, Exponential};

    fn exp(mean: f64) -> Exponential {
        Exponential::from_mean(mean).unwrap()
    }

    #[test]
    fn build_simple_two_place_model() {
        let mut b = ModelBuilder::new("failure-repair");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", exp(100.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", Deterministic::new(4.0).unwrap())
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let m = b.build().unwrap();
        assert_eq!(m.num_places(), 2);
        assert_eq!(m.num_activities(), 2);
        assert_eq!(m.place("up"), Some(up));
        assert_eq!(m.place_name(down), "down");
        assert_eq!(m.activity_name(m.activity("fail").unwrap()), "fail");
        assert_eq!(m.initial_marking().tokens(up), 1);
        assert_eq!(m.place_names().count(), 2);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = ModelBuilder::new("dup");
        b.add_place("p", 0).unwrap();
        assert!(matches!(b.add_place("p", 1), Err(SanError::DuplicateName { .. })));
        let p = b.place("p").unwrap();
        b.timed_activity("a", exp(1.0)).unwrap().input_arc(p, 1).build().unwrap();
        assert!(matches!(b.timed_activity("a", exp(1.0)), Err(SanError::DuplicateName { .. })));
    }

    #[test]
    fn scoped_names_nest() {
        let mut b = ModelBuilder::new("scoped");
        b.push_scope("oss");
        b.push_scope("pair0");
        let p = b.add_place("up", 1).unwrap();
        b.pop_scope();
        b.pop_scope();
        assert_eq!(b.place("oss/pair0/up"), Some(p));
        assert_eq!(b.place("up"), None);
    }

    #[test]
    fn empty_activity_is_rejected() {
        let mut b = ModelBuilder::new("bad");
        let _p = b.add_place("p", 0).unwrap();
        let res = b.timed_activity("noop", exp(1.0)).unwrap().build();
        assert!(matches!(res, Err(SanError::InvalidActivity { .. })));
    }

    #[test]
    fn case_probabilities_must_sum_to_one() {
        let mut b = ModelBuilder::new("cases");
        let p = b.add_place("p", 1).unwrap();
        let q = b.add_place("q", 0).unwrap();
        let bad = b
            .timed_activity("branch", exp(1.0))
            .unwrap()
            .input_arc(p, 1)
            .case(0.5)
            .output_arc(q, 1)
            .case(0.2)
            .output_arc(p, 1)
            .build();
        assert!(matches!(bad, Err(SanError::InvalidActivity { .. })));

        let ok = b
            .timed_activity("branch2", exp(1.0))
            .unwrap()
            .input_arc(p, 1)
            .case(0.5)
            .output_arc(q, 1)
            .case(0.5)
            .output_arc(p, 1)
            .build();
        assert!(ok.is_ok());
    }

    #[test]
    fn model_with_no_activities_is_rejected() {
        let mut b = ModelBuilder::new("empty");
        b.add_place("p", 1).unwrap();
        assert!(matches!(b.build(), Err(SanError::InvalidExperiment { .. })));
    }

    #[test]
    fn enabling_predicate_and_gates_control_enabling() {
        let mut b = ModelBuilder::new("gates");
        let p = b.add_place("p", 2).unwrap();
        let guard = b.add_place("guard", 0).unwrap();
        let a = b
            .timed_activity("consume", exp(1.0))
            .unwrap()
            .input_arc(p, 1)
            .enabling_predicate(move |m| m.tokens(guard) == 0)
            .build()
            .unwrap();
        let m = b.build().unwrap();
        let activity = m.activity_ref(a);
        let mut marking = m.initial_marking();
        assert!(activity.is_enabled(&marking));
        marking.add_tokens(guard, 1);
        assert!(!activity.is_enabled(&marking));
        marking.set_tokens(guard, 0);
        marking.set_tokens(p, 0);
        assert!(!activity.is_enabled(&marking));
    }

    #[test]
    fn timing_debug_formats() {
        assert_eq!(format!("{:?}", Timing::Instantaneous), "Instantaneous");
        let t = Timing::Timed(exp(1.0).into());
        assert!(format!("{t:?}").contains("exponential"));
    }
}
