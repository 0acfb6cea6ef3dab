//! Reachability and solver-admissibility analysis: the semantic
//! static-analysis tier over compiled models.
//!
//! [`lint`](crate::lint) answers *declaration and structure* questions
//! (are the closure read sets sound, is an activity dead, do the arcs
//! conserve tokens); this module answers *state-space* questions by
//! exhaustively exploring the reachable marking graph from the initial
//! marking under a configurable budget ([`ReachConfig`]):
//!
//! * **Boundedness** — the maximum token count observed per place, plus
//!   budget-exhaustion reporting naming the fastest-growing places when
//!   the model looks unbounded (diagnostic `SAN040`).
//! * **Ergodicity** — strongly-connected-component condensation of the
//!   marking graph classifying terminal (recurrent) classes, transient
//!   markings, and absorbing dead ends (`SAN041`, `SAN043`).
//! * **Timing classification** — whether every timed activity is
//!   exponential in every reachable marking (marking-dependent timings are
//!   evaluated per tangible marking), with the offenders named (`SAN042`) —
//!   the reason a model is simulation-only, not just the verdict.
//! * **Sparse generator assembly** — for admissible models, the exact CTMC
//!   generator over the tangible markings (vanishing markings eliminated
//!   through their instantaneous-case probabilities) as a
//!   [`SparseCtmc`], ready for
//!   `steady_state`/`transient` solving without simulation.
//!
//! Entry points: [`Model::analyze`](crate::Model::analyze) /
//! [`Model::analyze_with`](crate::Model::analyze_with) return a
//! [`ReachReport`]; [`ReachReport::to_lint_report`] renders the `SAN04x`
//! diagnostics through the standard [`LintReport`] machinery; and
//! [`ReachReport::assemble_generator`] builds the solvable chain.
//!
//! # Exploration semantics
//!
//! The engine gives instantaneous activities priority over timed ones and
//! fires an enabled cascade lowest activity index first. The explorer
//! mirrors this exactly: a marking with any enabled instantaneous activity
//! is *vanishing* and expands only through the lowest-indexed enabled
//! instantaneous activity (one successor per positive-probability case);
//! a *tangible* marking expands through **every** enabled timed activity
//! in ascending index order. Expanding every timed activity ignores the
//! timing race, so the computed set is a superset of any single run's
//! visited markings — exact for reachability (any enabled activity can win
//! the race with positive probability under exponential timings), and safe
//! (never under-approximating) for boundedness and containment checks.
//! Cases with probability `0` are not expanded: the engine's cumulative
//! scan cannot select them outside a `≤ 1e-9` rounding gap.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};

use probdist::Dist;

use crate::ctmc::{condense, SparseCtmc};
use crate::engine::TraceEvent;
use crate::error::SanError;
use crate::lint::{codes, Diagnostic, LintReport, Severity};
use crate::marking::Marking;
use crate::model::{Activity, Model, Timing};

/// Budget and policy knobs for [`Model::analyze_with`](crate::Model::analyze_with).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachConfig {
    /// Maximum number of distinct markings to intern before declaring the
    /// exploration incomplete (`SAN040`).
    pub max_states: usize,
    /// Maximum number of marking-graph edges to record before declaring
    /// the exploration incomplete.
    pub max_transitions: usize,
    /// Whether the analysis should treat non-ergodic structure (transient
    /// markings or multiple terminal classes) as a warning (`SAN041` at
    /// [`Severity::Warning`]) instead of an informational note. Set it when
    /// a steady-state reward over the whole space is the intended use.
    pub assume_ergodic: bool,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig { max_states: 20_000, max_transitions: 250_000, assume_ergodic: false }
    }
}

/// Whether a model can be handed to the analytic (CTMC) solver tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverAdmissibility {
    /// The reachable state space is finite (fully explored), every timed
    /// activity is exponential in every reachable marking, the
    /// instantaneous activities form no cycle, and exactly one terminal
    /// class exists — the generator can be assembled and solved exactly.
    Analytic,
    /// The model must be simulated; each reason names what blocks the
    /// analytic path (budget exhaustion, the offending non-exponential
    /// activities, vanishing loops, or multi-class structure).
    SimulationOnly(Vec<String>),
}

impl SolverAdmissibility {
    /// Whether the analytic tier applies.
    pub fn is_analytic(&self) -> bool {
        matches!(self, SolverAdmissibility::Analytic)
    }

    /// The simulation-only reasons (empty for [`SolverAdmissibility::Analytic`]).
    pub fn reasons(&self) -> &[String] {
        match self {
            SolverAdmissibility::Analytic => &[],
            SolverAdmissibility::SimulationOnly(reasons) => reasons,
        }
    }
}

/// A timed activity that is not exponential in some reachable marking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingOffender {
    /// Activity name.
    pub activity: String,
    /// Distribution family observed (`"weibull"`, `"deterministic"`, …) or
    /// `"panicked"` if the timing closure panicked during evaluation.
    pub family: String,
    /// Rendered marking the non-exponential distribution was observed in,
    /// for marking-dependent timings (`None` for fixed distributions).
    pub marking: Option<String>,
}

/// SCC/condensation classification of a completely explored marking graph.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SccSummary {
    /// Number of strongly connected components.
    components: usize,
    /// Number of terminal (no outgoing inter-component edge) classes.
    terminal_classes: usize,
    /// Number of markings outside every terminal class.
    transient_states: usize,
    /// Whether the instantaneous activities form a cycle of vanishing
    /// markings.
    instant_loop: bool,
}

/// The eliminated (tangible-only) generator, retained when the model is
/// admissible so [`ReachReport::assemble_generator`] does not re-explore.
#[derive(Debug, Clone)]
struct GeneratorData {
    /// Tangible markings in CTMC state order.
    states: Vec<Vec<u64>>,
    /// Aggregated `(from, to, rate)` entries, self-loops eliminated.
    triplets: Vec<(usize, usize, f64)>,
    /// Distribution over tangible states the initial marking resolves to.
    initial: Vec<(usize, f64)>,
}

/// The statically assembled analytic form of an admissible model.
#[derive(Debug, Clone)]
pub struct GeneratorAssembly {
    /// The sparse CTMC over the tangible markings.
    pub ctmc: SparseCtmc,
    /// Tangible markings (token vectors) in CTMC state order.
    pub states: Vec<Vec<u64>>,
    /// Initial distribution over CTMC states: the initial marking itself
    /// when tangible, or the case-probability-weighted tangible successors
    /// of its instantaneous cascade when vanishing.
    pub initial: Vec<(usize, f64)>,
}

impl GeneratorAssembly {
    /// Index of the tangible marking equal to `tokens`, if reachable.
    pub fn state_index(&self, tokens: &[u64]) -> Option<usize> {
        self.states.iter().position(|s| s == tokens)
    }
}

/// One marking-graph edge (successor plus weight).
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    /// Case probability for edges out of vanishing markings; `rate × case
    /// probability` for edges out of tangible markings (NaN when the
    /// source activity is not exponential — such graphs are never
    /// assembled).
    weight: f64,
}

/// The result of exploring a model's reachable marking graph.
///
/// Self-contained: place/activity names are captured at analysis time, so
/// the report can be rendered, serialised, and queried without the model.
#[derive(Debug, Clone)]
pub struct ReachReport {
    model: String,
    config: ReachConfig,
    place_names: Vec<String>,
    markings: Vec<Vec<u64>>,
    index: HashMap<Vec<u64>, u32>,
    vanishing: Vec<bool>,
    transitions: usize,
    complete: bool,
    place_bounds: Vec<u64>,
    dead_ends: Vec<u32>,
    offenders: Vec<TimingOffender>,
    scc: Option<SccSummary>,
    admissibility: SolverAdmissibility,
    generator: Option<GeneratorData>,
}

impl ReachReport {
    /// Name of the analysed model.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The budget the analysis ran under.
    pub fn config(&self) -> &ReachConfig {
        &self.config
    }

    /// Number of distinct reachable markings discovered (tangible plus
    /// vanishing; a lower bound when the exploration is incomplete).
    pub fn num_states(&self) -> usize {
        self.markings.len()
    }

    /// Number of tangible (timed-expansion) markings discovered.
    pub fn num_tangible(&self) -> usize {
        self.vanishing.iter().filter(|&&v| !v).count()
    }

    /// Number of vanishing (instantaneous-priority) markings discovered.
    pub fn num_vanishing(&self) -> usize {
        self.vanishing.iter().filter(|&&v| v).count()
    }

    /// Number of marking-graph edges recorded.
    pub fn num_transitions(&self) -> usize {
        self.transitions
    }

    /// Whether the exploration visited the entire reachable set (`false`
    /// when a [`ReachConfig`] budget was exhausted).
    pub fn complete(&self) -> bool {
        self.complete
    }

    /// Maximum observed token count per place, indexed like the model.
    pub fn place_bounds(&self) -> &[u64] {
        &self.place_bounds
    }

    /// Number of reachable dead-end markings (no activity enabled at all).
    pub fn num_dead_ends(&self) -> usize {
        self.dead_ends.len()
    }

    /// The timed activities that are not exponential in some reachable
    /// marking, deduplicated by activity.
    pub fn timing_offenders(&self) -> &[TimingOffender] {
        &self.offenders
    }

    /// Whether every timed activity is exponential in every explored
    /// tangible marking.
    pub fn all_exponential(&self) -> bool {
        self.offenders.is_empty()
    }

    /// Whether the marking graph is irreducible (one strongly connected
    /// component — ergodic under exponential timings). `false` when the
    /// exploration is incomplete.
    pub fn is_ergodic(&self) -> bool {
        self.scc.as_ref().is_some_and(|s| s.components == 1)
    }

    /// Number of terminal (recurrent) classes, when fully explored.
    pub fn terminal_classes(&self) -> Option<usize> {
        self.scc.as_ref().map(|s| s.terminal_classes)
    }

    /// The solver-admissibility verdict with its reasons.
    pub fn admissibility(&self) -> &SolverAdmissibility {
        &self.admissibility
    }

    /// Whether `tokens` is one of the explored reachable markings.
    pub fn contains_tokens(&self, tokens: &[u64]) -> bool {
        self.index.contains_key(tokens)
    }

    /// Whether `marking` is one of the explored reachable markings.
    pub fn contains(&self, marking: &Marking) -> bool {
        self.contains_tokens(marking.as_slice())
    }

    /// The explored markings as token vectors, in discovery (BFS) order;
    /// index 0 is the initial marking.
    pub fn markings(&self) -> impl Iterator<Item = &[u64]> {
        self.markings.iter().map(Vec::as_slice)
    }

    /// Builds the sparse CTMC generator over the tangible markings.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::NotAnalytic`] (with the same reasons as
    /// [`ReachReport::admissibility`]) unless the verdict is
    /// [`SolverAdmissibility::Analytic`].
    pub fn assemble_generator(&self) -> Result<GeneratorAssembly, SanError> {
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanGeneratorAssembly);
        let Some(data) = &self.generator else {
            return Err(SanError::NotAnalytic {
                model: self.model.clone(),
                reasons: self.admissibility.reasons().to_vec(),
            });
        };
        let mut ctmc = SparseCtmc::new(data.states.len())?;
        for &(from, to, rate) in &data.triplets {
            ctmc.add_transition(from, to, rate)?;
        }
        Ok(GeneratorAssembly { ctmc, states: data.states.clone(), initial: data.initial.clone() })
    }

    /// Renders the `SAN04x` diagnostics as a standard [`LintReport`]
    /// (sorted, deniable, serialisable like every other lint result).
    ///
    /// Severity policy: `SAN044` (size report) is always Info. `SAN040`
    /// (budget exhausted / suspected unbounded) is a Warning only when the
    /// model is otherwise all-exponential — i.e. when unboundedness is the
    /// one thing blocking an analytic solve — and Info when simulation is
    /// required anyway. `SAN041` (non-ergodic structure) is a Warning only
    /// under [`ReachConfig::assume_ergodic`]. `SAN042` names each
    /// non-exponential activity at Info: general distributions are a
    /// deliberate modelling choice, and the simulation tier handles them.
    /// `SAN043` (reachable dead-end marking) is always a Warning.
    pub fn to_lint_report(&self) -> LintReport {
        let mut diagnostics = Vec::new();

        let exploration = if self.complete {
            "exploration complete".to_string()
        } else {
            format!(
                "budget exhausted (max_states {}, max_transitions {})",
                self.config.max_states, self.config.max_transitions
            )
        };
        diagnostics.push(Diagnostic::new(
            codes::STATE_SPACE_SIZE,
            Severity::Info,
            "state-space",
            format!(
                "{} marking(s) ({} tangible, {} vanishing), {} transition(s); {exploration}",
                self.num_states(),
                self.num_tangible(),
                self.num_vanishing(),
                self.transitions,
            ),
        ));

        if !self.complete {
            let severity =
                if self.offenders.is_empty() { Severity::Warning } else { Severity::Info };
            let mut growing: Vec<(usize, u64)> =
                self.place_bounds.iter().copied().enumerate().collect();
            growing.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let suspects: Vec<String> = growing
                .iter()
                .take(3)
                .filter(|&&(_, bound)| bound >= 2)
                .map(|&(p, bound)| format!("{}={bound}", self.place_names[p]))
                .collect();
            let element =
                growing.first().map_or("state-space", |&(p, _)| self.place_names[p].as_str());
            diagnostics.push(Diagnostic::new(
                codes::UNBOUNDED_SUSPECT,
                severity,
                element,
                format!(
                    "exploration stopped at {} marking(s) without exhausting the reachable set; \
                     the model may be unbounded — largest observed place bounds: {}",
                    self.num_states(),
                    suspects.join(", "),
                ),
            ));
        }

        if let Some(scc) = &self.scc {
            if scc.components > 1 {
                let severity =
                    if self.config.assume_ergodic { Severity::Warning } else { Severity::Info };
                diagnostics.push(Diagnostic::new(
                    codes::NON_ERGODIC,
                    severity,
                    "state-space",
                    format!(
                        "non-ergodic structure: {} terminal class(es), {} transient marking(s) — \
                         steady-state measures ignore the transient part{}",
                        scc.terminal_classes,
                        scc.transient_states,
                        if scc.terminal_classes > 1 {
                            " and depend on the initial marking"
                        } else {
                            ""
                        },
                    ),
                ));
            }
        }

        for offender in &self.offenders {
            let context = offender
                .marking
                .as_ref()
                .map_or_else(String::new, |m| format!(" (observed in marking {m})"));
            diagnostics.push(Diagnostic::new(
                codes::NON_EXPONENTIAL_TIMING,
                Severity::Info,
                &offender.activity,
                format!(
                    "{} timing blocks analytic solving{context}; the model is simulation-only",
                    offender.family,
                ),
            ));
        }

        for &state in self.dead_ends.iter().take(5) {
            diagnostics.push(Diagnostic::new(
                codes::DEAD_END_MARKING,
                Severity::Warning,
                render_marking(&self.place_names, &self.markings[state as usize]),
                "reachable dead-end marking: no activity is enabled, the model halts here",
            ));
        }
        if self.dead_ends.len() > 5 {
            diagnostics.push(Diagnostic::new(
                codes::DEAD_END_MARKING,
                Severity::Warning,
                "state-space",
                format!("{} further dead-end marking(s) elided", self.dead_ends.len() - 5),
            ));
        }

        LintReport::from_parts(self.model.clone(), 0, diagnostics)
    }
}

/// Renders the non-zero places of a marking compactly: `working=2, armed=1`
/// (or `<empty>` for the all-zero marking).
fn render_marking(place_names: &[String], tokens: &[u64]) -> String {
    let parts: Vec<String> = tokens
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(p, &n)| format!("{}={n}", place_names[p]))
        .collect();
    if parts.is_empty() {
        "<empty>".to_string()
    } else {
        parts.join(", ")
    }
}

/// Deterministically replays a recorded trace from the model's initial
/// marking, returning every visited marking as a token vector — the
/// initial marking first, then the marking after each completion
/// (instantaneous firings included, since [`Simulator::run_traced`]
/// records them).
///
/// Used by the differential suites: every replayed marking must be
/// contained in a complete [`ReachReport`] of the same model.
///
/// [`Simulator::run_traced`]: crate::Simulator::run_traced
pub fn replay_markings(model: &Model, trace: &[TraceEvent]) -> Vec<Vec<u64>> {
    let mut marking = model.initial_marking();
    let mut visited = Vec::with_capacity(trace.len() + 1);
    visited.push(marking.as_slice().to_vec());
    for event in trace {
        model.activity_ref(event.activity).complete(event.case, &mut marking);
        visited.push(marking.as_slice().to_vec());
    }
    visited
}

/// Evaluates the firing rate of a timed activity in `marking`, recording a
/// [`TimingOffender`] (once per activity) when it is not exponential.
fn classify_rate(
    activity: &Activity,
    marking: &Marking,
    place_names: &[String],
    offenders: &mut HashMap<String, TimingOffender>,
) -> f64 {
    let record = |offenders: &mut HashMap<String, TimingOffender>,
                  family: String,
                  context: Option<String>| {
        offenders.entry(activity.name.clone()).or_insert_with(|| TimingOffender {
            activity: activity.name.clone(),
            family,
            marking: context,
        });
    };
    match &activity.timing {
        Timing::Instantaneous => f64::NAN,
        Timing::Timed(Dist::Exponential(e)) => e.rate(),
        Timing::Timed(dist) => {
            record(offenders, dist.family().to_string(), None);
            f64::NAN
        }
        Timing::TimedFn(timing) => match catch_unwind(AssertUnwindSafe(|| timing(marking))) {
            Ok(Dist::Exponential(e)) => e.rate(),
            Ok(dist) => {
                record(
                    offenders,
                    format!("marking-dependent {}", dist.family()),
                    Some(render_marking(place_names, marking.as_slice())),
                );
                f64::NAN
            }
            Err(_) => {
                record(
                    offenders,
                    "panicking marking-dependent".to_string(),
                    Some(render_marking(place_names, marking.as_slice())),
                );
                f64::NAN
            }
        },
    }
}

/// Classifies a completely explored marking graph through the crate's one
/// condensation: terminal classes and transient markings from the whole
/// graph, and the vanishing-cycle verdict from the vanishing-only subgraph
/// (a cycle exists iff some edge joins two vanishing markings of one
/// component there).
fn classify(edges: &[Vec<Edge>], vanishing: &[bool]) -> SccSummary {
    let successors = |state: usize| edges[state].iter().map(|edge| edge.to as usize);
    let (component, terminal) = condense(edges.len(), successors);
    let instant = move |state: usize| {
        successors(state).filter(move |&next| vanishing[state] && vanishing[next])
    };
    let (instant_component, _) = condense(edges.len(), instant);
    SccSummary {
        components: terminal.len(),
        terminal_classes: terminal.iter().filter(|&&t| t).count(),
        transient_states: component.iter().filter(|&&c| !terminal[c]).count(),
        instant_loop: (0..edges.len()).any(|state| {
            instant(state).any(|next| instant_component[next] == instant_component[state])
        }),
    }
}

/// Eliminates the vanishing markings: resolves each to its distribution
/// over tangible markings through the instantaneous-case probabilities,
/// then aggregates the tangible-to-tangible rates. Fails on a vanishing
/// cycle (which [`classify`] should already have caught).
fn eliminate_vanishing(
    markings: &[Vec<u64>],
    vanishing: &[bool],
    edges: &[Vec<Edge>],
) -> Result<GeneratorData, String> {
    // Tangible states keep discovery order.
    let mut tangible_index = vec![usize::MAX; markings.len()];
    let mut states = Vec::new();
    for (s, tokens) in markings.iter().enumerate() {
        if !vanishing[s] {
            tangible_index[s] = states.len();
            states.push(tokens.clone());
        }
    }

    // Memoized resolution of a vanishing state to tangible probabilities.
    let mut resolved: HashMap<u32, Vec<(usize, f64)>> = HashMap::new();
    fn resolve(
        state: u32,
        vanishing: &[bool],
        edges: &[Vec<Edge>],
        tangible_index: &[usize],
        resolved: &mut HashMap<u32, Vec<(usize, f64)>>,
        on_stack: &mut Vec<u32>,
    ) -> Result<Vec<(usize, f64)>, String> {
        if let Some(hit) = resolved.get(&state) {
            return Ok(hit.clone());
        }
        if on_stack.contains(&state) {
            return Err("instantaneous activities form a cycle of vanishing markings".to_string());
        }
        on_stack.push(state);
        let mut acc: HashMap<usize, f64> = HashMap::new();
        for edge in &edges[state as usize] {
            let target = edge.to as usize;
            if vanishing[target] {
                for (t, p) in
                    resolve(edge.to, vanishing, edges, tangible_index, resolved, on_stack)?
                {
                    *acc.entry(t).or_insert(0.0) += edge.weight * p;
                }
            } else {
                *acc.entry(tangible_index[target]).or_insert(0.0) += edge.weight;
            }
        }
        on_stack.pop();
        let mut dist: Vec<(usize, f64)> = acc.into_iter().collect();
        dist.sort_unstable_by_key(|&(t, _)| t);
        resolved.insert(state, dist.clone());
        Ok(dist)
    }

    let mut rates: HashMap<(usize, usize), f64> = HashMap::new();
    for (s, out) in edges.iter().enumerate() {
        if vanishing[s] {
            continue;
        }
        let from = tangible_index[s];
        for edge in out {
            let target = edge.to as usize;
            if vanishing[target] {
                for (t, p) in resolve(
                    edge.to,
                    vanishing,
                    edges,
                    &tangible_index,
                    &mut resolved,
                    &mut Vec::new(),
                )? {
                    if t != from {
                        *rates.entry((from, t)).or_insert(0.0) += edge.weight * p;
                    }
                }
            } else if tangible_index[target] != from {
                *rates.entry((from, tangible_index[target])).or_insert(0.0) += edge.weight;
            }
        }
    }
    let mut triplets: Vec<(usize, usize, f64)> =
        rates.into_iter().map(|((f, t), r)| (f, t, r)).collect();
    triplets.sort_unstable_by_key(|&(f, t, _)| (f, t));

    let initial = if vanishing[0] {
        resolve(0, vanishing, edges, &tangible_index, &mut resolved, &mut Vec::new())?
    } else {
        vec![(tangible_index[0], 1.0)]
    };

    Ok(GeneratorData { states, triplets, initial })
}

/// Explores the reachable marking graph of `model` under `config` — the
/// implementation behind [`Model::analyze_with`](crate::Model::analyze_with).
pub(crate) fn explore(model: &Model, config: &ReachConfig) -> ReachReport {
    let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanReachExplore);
    let activities = model.activities();
    let place_names: Vec<String> = model.place_names().map(str::to_string).collect();
    let instants: Vec<usize> = (0..activities.len())
        .filter(|&a| matches!(activities[a].timing, Timing::Instantaneous))
        .collect();
    let timed: Vec<usize> = (0..activities.len())
        .filter(|&a| !matches!(activities[a].timing, Timing::Instantaneous))
        .collect();

    let initial = model.initial_marking().as_slice().to_vec();
    let mut place_bounds = initial.clone();
    let mut markings = vec![initial.clone()];
    let mut index = HashMap::from([(initial, 0u32)]);
    let mut vanishing = vec![false];
    let mut edges: Vec<Vec<Edge>> = vec![Vec::new()];
    let mut frontier = VecDeque::from([0u32]);
    let mut transitions = 0usize;
    let mut complete = true;
    let mut dead_ends = Vec::new();
    let mut offender_map: HashMap<String, TimingOffender> = HashMap::new();

    'explore: while let Some(state) = frontier.pop_front() {
        let marking = Marking::new(markings[state as usize].clone());

        // Instantaneous priority: a vanishing marking expands only through
        // the lowest-indexed enabled instantaneous activity, a tangible one
        // through every enabled timed activity.
        let instant = instants.iter().copied().find(|&a| activities[a].is_enabled(&marking));
        vanishing[state as usize] = instant.is_some();
        let expanded: Vec<usize> = match instant {
            Some(a) => vec![a],
            None => timed.iter().copied().filter(|&a| activities[a].is_enabled(&marking)).collect(),
        };
        if expanded.is_empty() {
            dead_ends.push(state);
        }
        let mut successors: Vec<Edge> = Vec::new();
        for a in expanded {
            let activity = &activities[a];
            // An edge weighs its case probability out of a vanishing
            // marking, rate × case probability out of a tangible one.
            let rate = match instant {
                Some(_) => 1.0,
                None => classify_rate(activity, &marking, &place_names, &mut offender_map),
            };
            for (case, spec) in activity.cases.iter().enumerate() {
                if spec.probability <= 0.0 {
                    continue;
                }
                let mut next = marking.clone();
                activity.complete(case, &mut next);
                match intern(
                    next.as_slice(),
                    &mut markings,
                    &mut index,
                    &mut vanishing,
                    &mut edges,
                    &mut place_bounds,
                    &mut frontier,
                    config,
                ) {
                    Some(id) => successors.push(Edge { to: id, weight: rate * spec.probability }),
                    None => {
                        complete = false;
                        break 'explore;
                    }
                }
            }
        }

        if transitions + successors.len() > config.max_transitions {
            complete = false;
            break;
        }
        transitions += successors.len();
        edges[state as usize] = successors;
    }

    let mut offenders: Vec<TimingOffender> = offender_map.into_values().collect();
    offenders.sort_by(|a, b| a.activity.cmp(&b.activity));

    let scc = complete.then(|| classify(&edges, &vanishing));

    // Admissibility verdict, then (only for admissible models) the
    // eliminated generator.
    let mut reasons = Vec::new();
    if !complete {
        reasons.push(format!(
            "state-space exploration exhausted its budget ({} markings, {} transitions explored)",
            markings.len(),
            transitions,
        ));
    }
    for offender in offenders.iter().take(8) {
        let context =
            offender.marking.as_ref().map_or_else(String::new, |m| format!(" in marking {m}"));
        reasons.push(format!(
            "activity '{}' has {} timing{context}",
            offender.activity, offender.family,
        ));
    }
    if offenders.len() > 8 {
        reasons.push(format!("{} further non-exponential activities", offenders.len() - 8));
    }
    if let Some(summary) = &scc {
        if summary.instant_loop {
            reasons.push("instantaneous activities form a cycle of vanishing markings".to_string());
        }
        if summary.terminal_classes != 1 {
            reasons.push(format!(
                "{} terminal classes — the steady state depends on the initial marking",
                summary.terminal_classes,
            ));
        }
    }

    let mut generator = None;
    let admissibility = if reasons.is_empty() {
        match eliminate_vanishing(&markings, &vanishing, &edges) {
            Ok(data) => {
                generator = Some(data);
                SolverAdmissibility::Analytic
            }
            Err(reason) => SolverAdmissibility::SimulationOnly(vec![reason]),
        }
    } else {
        SolverAdmissibility::SimulationOnly(reasons)
    };

    ReachReport {
        model: model.name().to_string(),
        config: config.clone(),
        place_names,
        markings,
        index,
        vanishing,
        transitions,
        complete,
        place_bounds,
        dead_ends,
        offenders,
        scc,
        admissibility,
        generator,
    }
}

/// Interns a marking, growing the state tables and enqueuing new states
/// onto the exploration frontier; returns `None` when the state budget is
/// exhausted.
#[allow(clippy::too_many_arguments)]
fn intern(
    tokens: &[u64],
    markings: &mut Vec<Vec<u64>>,
    index: &mut HashMap<Vec<u64>, u32>,
    vanishing: &mut Vec<bool>,
    edges: &mut Vec<Vec<Edge>>,
    place_bounds: &mut [u64],
    frontier: &mut VecDeque<u32>,
    config: &ReachConfig,
) -> Option<u32> {
    match index.entry(tokens.to_vec()) {
        Entry::Occupied(hit) => Some(*hit.get()),
        Entry::Vacant(slot) => {
            if markings.len() >= config.max_states {
                return None;
            }
            let id = markings.len() as u32;
            slot.insert(id);
            markings.push(tokens.to_vec());
            vanishing.push(false);
            edges.push(Vec::new());
            for (bound, &count) in place_bounds.iter_mut().zip(tokens) {
                *bound = (*bound).max(count);
            }
            frontier.push_back(id);
            Some(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::Severity;
    use crate::{ModelBuilder, Simulator};
    use probdist::{Exponential, SimRng, Weibull};
    use proptest::prelude::*;

    /// A plain repairable unit: up --fail--> down --repair--> up.
    fn repairable_unit(fail_rate: f64, repair_rate: f64) -> Model {
        let mut b = ModelBuilder::new("unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", Exponential::new(fail_rate).unwrap())
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", Exponential::new(repair_rate).unwrap())
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn repairable_unit_is_fully_explored_and_analytic() {
        let model = repairable_unit(0.01, 0.5);
        let report = model.analyze();
        assert_eq!(report.num_states(), 2);
        assert_eq!(report.num_tangible(), 2);
        assert_eq!(report.num_vanishing(), 0);
        assert_eq!(report.num_transitions(), 2);
        assert!(report.complete());
        assert!(report.is_ergodic());
        assert_eq!(report.terminal_classes(), Some(1));
        assert_eq!(report.scc.as_ref().map(|s| s.transient_states), Some(0));
        assert!(report.all_exponential());
        assert!(report.admissibility().is_analytic());
        assert_eq!(report.place_bounds(), &[1, 1]);
        assert!(report.contains_tokens(&[1, 0]));
        assert!(report.contains_tokens(&[0, 1]));
        assert!(!report.contains_tokens(&[1, 1]));
    }

    #[test]
    fn assembled_generator_matches_the_closed_form() {
        let (lambda, mu) = (0.002, 0.1);
        let model = repairable_unit(lambda, mu);
        let assembly = model.analyze().assemble_generator().unwrap();
        assert_eq!(assembly.states.len(), 2);
        let up = assembly.state_index(&[1, 0]).unwrap();
        let pi = assembly.ctmc.steady_state().unwrap();
        assert!((pi[up] - mu / (lambda + mu)).abs() < 1e-12, "pi_up {}", pi[up]);
        assert_eq!(assembly.initial, vec![(up, 1.0)]);
    }

    #[test]
    fn vanishing_markings_are_eliminated_through_case_probabilities() {
        // up --fail--> triage (instant, 60% repairable / 40% replace);
        // both paths lead back up at different rates.
        let mut b = ModelBuilder::new("triage");
        let up = b.add_place("up", 1).unwrap();
        let hit = b.add_place("hit", 0).unwrap();
        let fix = b.add_place("fix", 0).unwrap();
        let swap = b.add_place("swap", 0).unwrap();
        b.timed_activity("fail", Exponential::new(0.01).unwrap())
            .unwrap()
            .input_arc(up, 1)
            .output_arc(hit, 1)
            .build()
            .unwrap();
        b.instant_activity("triage")
            .unwrap()
            .input_arc(hit, 1)
            .case(0.6)
            .output_arc(fix, 1)
            .case(0.4)
            .output_arc(swap, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", Exponential::new(0.5).unwrap())
            .unwrap()
            .input_arc(fix, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        b.timed_activity("replace", Exponential::new(0.05).unwrap())
            .unwrap()
            .input_arc(swap, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let report = model.analyze();
        assert!(report.complete());
        assert_eq!(report.num_vanishing(), 1);
        assert_eq!(report.num_tangible(), 3);
        assert!(report.admissibility().is_analytic(), "{:?}", report.admissibility());

        let assembly = report.assemble_generator().unwrap();
        // Tangible chain: up -> fix at 0.01*0.6, up -> swap at 0.01*0.4.
        let up_state = assembly.state_index(&[1, 0, 0, 0]).unwrap();
        let fix_state = assembly.state_index(&[0, 0, 1, 0]).unwrap();
        let swap_state = assembly.state_index(&[0, 0, 0, 1]).unwrap();
        let rate = |f: usize, t: usize| -> f64 {
            assembly
                .ctmc
                .transitions()
                .filter(|&(from, to, _)| from == f && to == t)
                .map(|(_, _, r)| r)
                .sum()
        };
        assert!((rate(up_state, fix_state) - 0.006).abs() < 1e-15);
        assert!((rate(up_state, swap_state) - 0.004).abs() < 1e-15);
        assert!((rate(fix_state, up_state) - 0.5).abs() < 1e-15);
        assert!((rate(swap_state, up_state) - 0.05).abs() < 1e-15);

        // Balance equations of the 3-state chain: π_fix · 0.5 = π_up · 0.006
        // and π_swap · 0.05 = π_up · 0.004.
        let pi = assembly.ctmc.steady_state().unwrap();
        let pi_up = 1.0 / (1.0 + 0.006 / 0.5 + 0.004 / 0.05);
        assert!((pi[up_state] - pi_up).abs() < 1e-10, "pi_up {}", pi[up_state]);
        assert!((pi[fix_state] - pi_up * 0.006 / 0.5).abs() < 1e-10);
        assert!((pi[swap_state] - pi_up * 0.004 / 0.05).abs() < 1e-10);
    }

    #[test]
    fn unbounded_models_exhaust_the_budget_and_warn() {
        // Each firing consumes one token and mints two: unbounded growth.
        let mut b = ModelBuilder::new("minting");
        let p = b.add_place("pile", 1).unwrap();
        b.timed_activity("mint", Exponential::new(1.0).unwrap())
            .unwrap()
            .input_arc(p, 1)
            .output_arc(p, 2)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let config = ReachConfig { max_states: 10, ..ReachConfig::default() };
        let report = model.analyze_with(&config);
        assert!(!report.complete());
        assert_eq!(report.num_states(), 10);
        assert!(report.place_bounds()[0] >= 9);
        assert!(!report.admissibility().is_analytic());
        let reasons = report.admissibility().reasons().join("; ");
        assert!(reasons.contains("budget"), "{reasons}");

        // All-exponential, so suspected unboundedness is the one thing
        // blocking the analytic path: SAN040 is a Warning.
        let lint = report.to_lint_report();
        assert!(lint.has_code(codes::UNBOUNDED_SUSPECT));
        assert!(lint.has_code(codes::STATE_SPACE_SIZE));
        let san040 =
            lint.diagnostics().iter().find(|d| d.code() == codes::UNBOUNDED_SUSPECT).unwrap();
        assert_eq!(san040.severity(), Severity::Warning);
        assert_eq!(san040.element(), "pile");
        assert!(lint.deny(Severity::Warning).is_err());
    }

    #[test]
    fn transition_budget_is_honoured() {
        let model = repairable_unit(0.01, 0.5);
        let config = ReachConfig { max_transitions: 1, ..ReachConfig::default() };
        let report = model.analyze_with(&config);
        assert!(!report.complete());
        assert!(report.num_transitions() <= 1);
    }

    #[test]
    fn dead_ends_are_flagged_and_absorbing() {
        // One-shot unit: up --fail--> down, no repair.
        let mut b = ModelBuilder::new("one-shot");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", Exponential::new(0.1).unwrap())
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let report = model.analyze();
        assert!(report.complete());
        assert_eq!(report.num_dead_ends(), 1);
        assert!(!report.is_ergodic());
        assert_eq!(report.terminal_classes(), Some(1));
        assert_eq!(report.scc.as_ref().map(|s| s.transient_states), Some(1));
        // A single terminal class keeps the model analytic: the steady
        // state is the point mass on the absorbing marking.
        assert!(report.admissibility().is_analytic());
        let assembly = report.assemble_generator().unwrap();
        let pi = assembly.ctmc.steady_state().unwrap();
        let down_state = assembly.state_index(&[0, 1]).unwrap();
        assert!((pi[down_state] - 1.0).abs() < 1e-12);

        let lint = report.to_lint_report();
        let san043 =
            lint.diagnostics().iter().find(|d| d.code() == codes::DEAD_END_MARKING).unwrap();
        assert_eq!(san043.severity(), Severity::Warning);
        assert_eq!(san043.element(), "down=1");
    }

    #[test]
    fn non_exponential_timings_are_named() {
        let mut b = ModelBuilder::new("weibull-unit");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("wear_out", Weibull::from_shape_and_mean(1.5, 1000.0).unwrap())
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", Exponential::new(0.1).unwrap())
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let report = model.analyze();
        assert!(report.complete());
        assert!(!report.all_exponential());
        assert_eq!(report.timing_offenders().len(), 1);
        assert_eq!(report.timing_offenders()[0].activity, "wear_out");
        assert_eq!(report.timing_offenders()[0].family, "weibull");
        let reasons = report.admissibility().reasons().join("; ");
        assert!(reasons.contains("wear_out") && reasons.contains("weibull"), "{reasons}");
        assert!(report.assemble_generator().is_err());

        let lint = report.to_lint_report();
        let san042 =
            lint.diagnostics().iter().find(|d| d.code() == codes::NON_EXPONENTIAL_TIMING).unwrap();
        assert_eq!(san042.severity(), Severity::Info);
        assert_eq!(san042.element(), "wear_out");
        // Info-only: a deliberately general-distribution model still
        // passes the CI deny-warning gate.
        assert!(lint.deny(Severity::Warning).is_ok());
    }

    #[test]
    fn marking_dependent_exponentials_stay_analytic() {
        // The aggregate-rate idiom: rate n·λ read from the marking.
        let mut b = ModelBuilder::new("aggregate");
        let working = b.add_place("working", 2).unwrap();
        let failed = b.add_place("failed", 0).unwrap();
        b.timed_activity_fn("fail", move |m: &Marking| {
            let n = m.tokens(working).max(1) as f64;
            Dist::Exponential(probdist::Exponential::new(n * 0.01).unwrap())
        })
        .unwrap()
        .timing_reads(&[working])
        .input_arc(working, 1)
        .output_arc(failed, 1)
        .build()
        .unwrap();
        b.timed_activity("repair", Exponential::new(0.2).unwrap())
            .unwrap()
            .input_arc(failed, 1)
            .output_arc(working, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let report = model.analyze();
        assert!(report.all_exponential());
        assert!(report.admissibility().is_analytic());
        let assembly = report.assemble_generator().unwrap();
        // Birth-death chain with failure rates 2λ then λ.
        let s0 = assembly.state_index(&[2, 0]).unwrap();
        let s1 = assembly.state_index(&[1, 1]).unwrap();
        let rate: f64 = assembly
            .ctmc
            .transitions()
            .filter(|&(f, t, _)| f == s0 && t == s1)
            .map(|(_, _, r)| r)
            .sum();
        assert!((rate - 0.02).abs() < 1e-15, "aggregate rate {rate}");
    }

    #[test]
    fn instantaneous_cycles_are_rejected() {
        let mut b = ModelBuilder::new("ping-pong");
        let ping = b.add_place("ping", 1).unwrap();
        let pong = b.add_place("pong", 0).unwrap();
        b.instant_activity("a").unwrap().input_arc(ping, 1).output_arc(pong, 1).build().unwrap();
        b.instant_activity("b").unwrap().input_arc(pong, 1).output_arc(ping, 1).build().unwrap();
        let model = b.build().unwrap();
        let report = model.analyze();
        assert!(report.complete());
        assert!(!report.admissibility().is_analytic());
        let reasons = report.admissibility().reasons().join("; ");
        assert!(reasons.contains("cycle"), "{reasons}");
    }

    #[test]
    fn multiple_terminal_classes_block_the_steady_state() {
        // A probabilistic case latches into one of two absorbing markings.
        let mut b = ModelBuilder::new("forked");
        let start = b.add_place("start", 1).unwrap();
        let left = b.add_place("left", 0).unwrap();
        let right = b.add_place("right", 0).unwrap();
        b.timed_activity("fork", Exponential::new(1.0).unwrap())
            .unwrap()
            .input_arc(start, 1)
            .case(0.5)
            .output_arc(left, 1)
            .case(0.5)
            .output_arc(right, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let report = model.analyze();
        assert!(report.complete());
        assert_eq!(report.terminal_classes(), Some(2));
        assert!(!report.admissibility().is_analytic());
        let err = report.assemble_generator().unwrap_err();
        assert!(matches!(err, SanError::NotAnalytic { .. }), "{err}");
        assert!(err.to_string().contains("terminal classes"), "{err}");
    }

    #[test]
    fn assume_ergodic_escalates_non_ergodic_structure() {
        let mut b = ModelBuilder::new("one-shot");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", Exponential::new(0.1).unwrap())
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();

        let relaxed = model.analyze().to_lint_report();
        let info = relaxed.diagnostics().iter().find(|d| d.code() == codes::NON_ERGODIC).unwrap();
        assert_eq!(info.severity(), Severity::Info);

        let config = ReachConfig { assume_ergodic: true, ..ReachConfig::default() };
        let strict = model.analyze_with(&config).to_lint_report();
        let warn = strict.diagnostics().iter().find(|d| d.code() == codes::NON_ERGODIC).unwrap();
        assert_eq!(warn.severity(), Severity::Warning);
    }

    #[test]
    fn traced_runs_stay_inside_the_reachable_set() {
        // A model with instants and probabilistic cases, long horizon.
        let mut b = ModelBuilder::new("traced");
        let up = b.add_place("up", 2).unwrap();
        let hit = b.add_place("hit", 0).unwrap();
        let fix = b.add_place("fix", 0).unwrap();
        b.timed_activity_fn("fail", move |m: &Marking| {
            let n = m.tokens(up).max(1) as f64;
            Dist::Exponential(probdist::Exponential::new(n * 0.05).unwrap())
        })
        .unwrap()
        .timing_reads(&[up])
        .input_arc(up, 1)
        .output_arc(hit, 1)
        .build()
        .unwrap();
        b.instant_activity("triage")
            .unwrap()
            .input_arc(hit, 1)
            .case(0.7)
            .output_arc(fix, 1)
            .case(0.3)
            .output_arc(up, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", Exponential::new(0.5).unwrap())
            .unwrap()
            .input_arc(fix, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let report = model.analyze();
        assert!(report.complete());

        let sim = Simulator::new(&model);
        for seed in 0..8 {
            let mut rng = SimRng::seed_from_u64(seed);
            let (_, trace) = sim.run_traced(&[], 5_000.0, &mut rng).unwrap();
            assert!(!trace.is_empty());
            for tokens in replay_markings(&model, &trace) {
                assert!(
                    report.contains_tokens(&tokens),
                    "seed {seed}: visited marking {tokens:?} outside the reachable set"
                );
            }
        }
    }

    /// Transitive closure by Floyd–Warshall: `closure[u][v]` iff a path of
    /// at least one edge leads from `u` to `v`.
    fn closure(adjacency: &[Vec<usize>]) -> Vec<Vec<bool>> {
        let n = adjacency.len();
        let mut reach = vec![vec![false; n]; n];
        for (from, out) in adjacency.iter().enumerate() {
            for &to in out {
                reach[from][to] = true;
            }
        }
        for via in 0..n {
            let onward = reach[via].clone();
            for row in reach.iter_mut().filter(|row| row[via]) {
                for (cell, &step) in row.iter_mut().zip(&onward) {
                    *cell |= step;
                }
            }
        }
        reach
    }

    // The shared condensation against a closure oracle on random digraphs
    // with self-loops, duplicate edges and a random vanishing mask: the
    // partition, the terminal flags and the vanishing-cycle verdict.
    proptest! {
        #[test]
        fn condensation_matches_the_closure_oracle(seed in any::<u64>()) {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
            let n = 1 + pick(12);
            let mut adjacency = vec![Vec::new(); n];
            for _ in 0..pick(3 * n + 1) {
                adjacency[pick(n)].push(pick(n));
            }
            let vanishing: Vec<bool> = (0..n).map(|_| pick(2) == 0).collect();

            let reach = closure(&adjacency);
            let same = |u: usize, v: usize| u == v || (reach[u][v] && reach[v][u]);
            let (component, terminal) = condense(n, |state| adjacency[state].iter().copied());
            for u in 0..n {
                for v in 0..n {
                    assert_eq!(component[u] == component[v], same(u, v), "{adjacency:?}: {u}, {v}");
                }
                let closed = (0..n).all(|v| !reach[u][v] || same(u, v));
                assert_eq!(terminal[component[u]], closed, "{adjacency:?}: terminal {u}");
            }

            let instant: Vec<Vec<usize>> = adjacency
                .iter()
                .enumerate()
                .map(|(u, out)| out.iter().copied().filter(|&v| vanishing[u] && vanishing[v]).collect())
                .collect();
            let instant_reach = closure(&instant);
            let edges: Vec<Vec<Edge>> = adjacency
                .iter()
                .map(|out| out.iter().map(|&to| Edge { to: to as u32, weight: 1.0 }).collect())
                .collect();
            let summary = classify(&edges, &vanishing);
            assert_eq!(summary.instant_loop, (0..n).any(|v| instant_reach[v][v]), "{adjacency:?}");
            assert_eq!(summary.components, terminal.len());
            assert_eq!(summary.terminal_classes, terminal.iter().filter(|&&t| t).count());
            let transient = (0..n).filter(|&u| !terminal[component[u]]).count();
            assert_eq!(summary.transient_states, transient);
        }
    }
}
