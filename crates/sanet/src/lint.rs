//! Static analysis of compiled SAN models: declaration soundness,
//! structural checks, and reward/config linting.
//!
//! The whole method of the paper rests on the models being *structurally
//! right* before any simulation runs, and the event-calendar kernel's
//! correctness silently depends on authors declaring
//! [`enabling_reads`](crate::ActivityBuilder::enabling_reads) and
//! [`timing_reads`](crate::ActivityBuilder::timing_reads) truthfully: an
//! under-declared gate read makes the scheduler skip re-examining an
//! activity whose enabling just changed, which silently corrupts results.
//! [`Model::lint`](crate::Model::lint) machine-checks exactly that class of
//! bug (plus a set of structural and reward checks) and reports typed
//! diagnostics.
//!
//! # How it works
//!
//! Gate predicates, timing functions, and reward functions are opaque
//! closures, so their read footprints cannot be recovered syntactically.
//! The linter instead *probes* them: it evaluates each closure against a
//! deterministic fuzzed corpus of markings whose reads are captured by an
//! instrumented recording [`Marking`], and compares the observed footprint
//! against the declarations. Probing follows engine semantics — gates are
//! only evaluated on markings whose input arcs are covered, timing
//! functions only on fully enabled markings — and closure panics are
//! caught and reported instead of aborting the lint.
//!
//! Because the corpus is finite the analysis is a *sound alarm, not a
//! proof*: every reported undeclared read was actually observed (no false
//! positives for `SAN001`/`SAN002`), while a read hidden behind a branch
//! the corpus never hit can escape. The default corpus makes that
//! vanishingly unlikely for the token ranges real models use.
//!
//! # Diagnostic codes
//!
//! | Code | Severity | Meaning |
//! |------|----------|---------|
//! | `SAN001` | Error | gate predicate read a place missing from `enabling_reads` |
//! | `SAN002` | Error | timing function read a place missing from `timing_reads` |
//! | `SAN003` | Info | declared read never observed (possible over-declaration), or an inert declaration |
//! | `SAN004` | Error | timing function panicked while being probed |
//! | `SAN005` | Error | gate predicate or gate function panicked while being probed |
//! | `SAN006` | Info | gates or marking-dependent timing without declarations (conservative, correct but slow) |
//! | `SAN010` | Warning | dead activity: never enabled over the probe corpus |
//! | `SAN011` | Warning | disconnected place: no arc, gate, declaration, or reward touches it |
//! | `SAN012` | Error | underflow hazard: one activity drains the same place through several input arcs |
//! | `SAN013` | Error | input arc demands more tokens than a P-invariant bound allows: provably dead |
//! | `SAN014` | Info | certified token-conservation P-invariant (with its value at the initial marking) |
//! | `SAN020` | Error | impulse reward references an activity outside the model |
//! | `SAN021` | Warning | impulse reward attached to a dead activity |
//! | `SAN022` | Error | reward function panicked while being probed |
//! | `SAN023` | Warning | reward function produced a non-finite value |
//! | `SAN040` | Warning/Info | state budget exhausted: the model may be unbounded (reported by [`reach`](crate::reach)) |
//! | `SAN041` | Info/Warning | non-ergodic structure: absorbing/terminal classes plus transient markings |
//! | `SAN042` | Info | non-exponential timing blocks analytic solving (offending activity named) |
//! | `SAN043` | Warning | reachable dead-end marking: no activity enabled |
//! | `SAN044` | Info | state-space size report (markings, tangible/vanishing split, transitions) |
//!
//! The `SAN04x` block comes from the semantic tier in [`reach`](crate::reach)
//! ([`Model::analyze`](crate::Model::analyze)): exhaustive state-space
//! exploration rather than corpus probing, rendered through the same
//! [`LintReport`] machinery by [`ReachReport::to_lint_report`](crate::reach::ReachReport::to_lint_report).
//!
//! P-invariants are extracted by integer (Farkas) elimination on the arc
//! incidence matrix, restricted to places no gate function was observed to
//! write — so every reported invariant is genuinely conserved by the
//! model, and the bound check behind `SAN013` is sound.

use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use probdist::SimRng;
use serde::{Serialize, Value};

use crate::marking::ReadRecorder;
use crate::model::Timing;
use crate::reward::RewardVariant;
use crate::{Marking, Model, RewardSpec, SanError};

/// Severity of a [`Diagnostic`], ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: nothing is wrong, but the fact is worth surfacing
    /// (certified invariants, conservative declarations).
    Info,
    /// Probably a modelling mistake, but the simulation stays correct.
    Warning,
    /// The model is broken or would silently corrupt simulation results.
    Error,
}

impl Severity {
    /// Parses a severity name (`error`/`warning`/`info`, case-insensitive).
    pub fn parse(name: &str) -> Option<Severity> {
        match name.to_ascii_lowercase().as_str() {
            "error" => Some(Severity::Error),
            "warning" | "warn" => Some(Severity::Warning),
            "info" => Some(Severity::Info),
            _ => None,
        }
    }

    /// The lowercase name of the severity.
    pub fn name(&self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The diagnostic codes emitted by the linter, documented in the
/// [module-level table](self).
pub mod codes {
    /// Gate predicate read a place missing from `enabling_reads`.
    pub const UNDECLARED_ENABLING_READ: &str = "SAN001";
    /// Timing function read a place missing from `timing_reads`.
    pub const UNDECLARED_TIMING_READ: &str = "SAN002";
    /// Declared read never observed, or an inert declaration.
    pub const UNOBSERVED_DECLARED_READ: &str = "SAN003";
    /// Timing function panicked while being probed.
    pub const TIMING_PANICKED: &str = "SAN004";
    /// Gate predicate or gate function panicked while being probed.
    pub const GATE_PANICKED: &str = "SAN005";
    /// Gates or marking-dependent timing without declarations.
    pub const CONSERVATIVE_DECLARATIONS: &str = "SAN006";
    /// Activity never enabled over the probe corpus.
    pub const DEAD_ACTIVITY: &str = "SAN010";
    /// Place not referenced by any arc, gate, declaration, or reward.
    pub const DISCONNECTED_PLACE: &str = "SAN011";
    /// One activity drains the same place through several input arcs.
    pub const UNDERFLOW_HAZARD: &str = "SAN012";
    /// Input arc demands more tokens than a P-invariant bound allows.
    pub const INVARIANT_STARVED_ARC: &str = "SAN013";
    /// Certified token-conservation P-invariant.
    pub const PLACE_INVARIANT: &str = "SAN014";
    /// Impulse reward references an activity outside the model.
    pub const UNKNOWN_REWARD_TARGET: &str = "SAN020";
    /// Impulse reward attached to a dead activity.
    pub const IMPULSE_ON_DEAD_ACTIVITY: &str = "SAN021";
    /// Reward function panicked while being probed.
    pub const REWARD_PANICKED: &str = "SAN022";
    /// Reward function produced a non-finite value.
    pub const NON_FINITE_REWARD: &str = "SAN023";
    /// Reachability budget exhausted; the model may be unbounded.
    pub const UNBOUNDED_SUSPECT: &str = "SAN040";
    /// Non-ergodic marking graph (terminal classes plus transient states).
    pub const NON_ERGODIC: &str = "SAN041";
    /// Non-exponential timing blocks the analytic solver tier.
    pub const NON_EXPONENTIAL_TIMING: &str = "SAN042";
    /// Reachable dead-end marking (no activity enabled).
    pub const DEAD_END_MARKING: &str = "SAN043";
    /// State-space size report from the reachability explorer.
    pub const STATE_SPACE_SIZE: &str = "SAN044";
}

/// One typed finding of the linter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    code: &'static str,
    severity: Severity,
    element: String,
    message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub(crate) fn new(
        code: &'static str,
        severity: Severity,
        element: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic { code, severity, element: element.into(), message: message.into() }
    }

    /// The `SAN0xx` code (see [`codes`]).
    pub fn code(&self) -> &'static str {
        self.code
    }

    /// The severity.
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// The model element the diagnostic is about (activity, place, or
    /// reward).
    pub fn element(&self) -> &str {
        &self.element
    }

    /// The human-readable explanation.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}: {}", self.code, self.severity, self.element, self.message)
    }
}

impl Serialize for Diagnostic {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("code".to_string(), Value::String(self.code.to_string())),
            ("severity".to_string(), Value::String(self.severity.name().to_string())),
            ("element".to_string(), Value::String(self.element.clone())),
            ("message".to_string(), Value::String(self.message.clone())),
        ])
    }
}

/// Configuration of the probe corpus behind
/// [`Model::lint_with`](crate::Model::lint_with).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintConfig {
    /// Number of fuzzed markings to probe closures with (the initial
    /// marking is always included). More probes reduce the chance of a
    /// conditional read or a rarely-enabled activity escaping the lint.
    pub probes: usize,
    /// Seed of the deterministic fuzzing stream.
    pub seed: u64,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig { probes: 192, seed: 0x5A17 }
    }
}

/// The outcome of linting one model: the typed diagnostics plus rendering
/// and deny-level helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    model: String,
    probes: usize,
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Assembles a report from pre-computed diagnostics, applying the
    /// standard ordering (severity descending, then code). Used by the
    /// reachability tier ([`crate::reach`]), whose `SAN04x` diagnostics
    /// derive from state-space exploration rather than the probe corpus —
    /// `probes` is `0` there.
    pub(crate) fn from_parts(
        model: String,
        probes: usize,
        mut diagnostics: Vec<Diagnostic>,
    ) -> LintReport {
        diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.code.cmp(b.code)));
        LintReport { model, probes, diagnostics }
    }

    /// Name of the linted model.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// Number of probe markings the closures were evaluated against.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// All diagnostics, most severe first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Whether the lint produced no diagnostics at all (not even Info).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The highest severity present, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(Diagnostic::severity).max()
    }

    /// Whether any diagnostic carries the given code.
    pub fn has_code(&self, code: &str) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Number of diagnostics at or above `level`.
    pub fn count_at_or_above(&self, level: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity >= level).count()
    }

    /// Fails with [`SanError::LintRejected`] if any diagnostic is at or
    /// above `level`.
    ///
    /// # Errors
    ///
    /// Returns [`SanError::LintRejected`] listing the offending
    /// diagnostics.
    pub fn deny(&self, level: Severity) -> Result<(), SanError> {
        let offending: Vec<&Diagnostic> =
            self.diagnostics.iter().filter(|d| d.severity >= level).collect();
        if offending.is_empty() {
            return Ok(());
        }
        let details =
            offending.iter().map(std::string::ToString::to_string).collect::<Vec<_>>().join("\n");
        Err(SanError::LintRejected {
            model: self.model.clone(),
            rejected: offending.len(),
            details,
        })
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint of `{}` ({} probes): {} diagnostic(s)",
            self.model,
            self.probes,
            self.diagnostics.len()
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl Serialize for LintReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("model".to_string(), Value::String(self.model.clone())),
            ("probes".to_string(), Value::UInt(self.probes as u64)),
            ("clean".to_string(), Value::Bool(self.is_clean())),
            (
                "max_severity".to_string(),
                match self.max_severity() {
                    Some(s) => Value::String(s.name().to_string()),
                    None => Value::Null,
                },
            ),
            ("diagnostics".to_string(), self.diagnostics.to_value()),
        ])
    }
}

/// Per-activity evidence accumulated over the probe corpus.
struct ActivityProbe {
    gate_reads: BTreeSet<usize>,
    timing_reads: BTreeSet<usize>,
    gate_writes: BTreeSet<usize>,
    ever_enabled: bool,
    ever_gates_probed: bool,
    gate_panic: Option<String>,
    timing_panic: Option<String>,
}

/// A certified place invariant: `sum(weight_p * tokens_p) == value` in
/// every reachable marking.
struct Invariant {
    /// Sparse `(place, weight)` support, weights positive.
    weights: Vec<(usize, u64)>,
    /// The conserved value, fixed by the initial marking.
    value: u64,
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn fuzzed_tokens(initial: u64, rng: &mut SimRng) -> u64 {
    match rng.uniform_index(8) {
        0 => 0,
        1 => 1,
        2 => 2,
        3 | 4 => initial,
        5 => initial + 1,
        6 => initial.saturating_sub(1),
        _ => rng.uniform_index(usize::try_from(initial).unwrap_or(usize::MAX).max(3) + 2) as u64,
    }
}

fn probe_corpus(initial: &[u64], config: &LintConfig) -> Vec<Vec<u64>> {
    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut corpus = Vec::with_capacity(config.probes.max(1));
    corpus.push(initial.to_vec());
    while corpus.len() < config.probes.max(1) {
        corpus.push(initial.iter().map(|&init| fuzzed_tokens(init, &mut rng)).collect());
    }
    corpus
}

fn place_list(model: &Model, places: impl IntoIterator<Item = usize>) -> String {
    places
        .into_iter()
        .map(|p| format!("`{}`", model.place_name(crate::PlaceId(p))))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Runs the full lint; called through [`Model::lint_with`].
pub(crate) fn lint_model(model: &Model, config: &LintConfig, rewards: &[RewardSpec]) -> LintReport {
    use probdist::telemetry::{span, MetricId};

    let _lint_span = span(MetricId::SpanLint);
    let declaration_span = span(MetricId::SpanLintDeclaration);
    let initial: Vec<u64> = model.initial_marking().as_slice().to_vec();
    let corpus = probe_corpus(&initial, config);
    let recorder = ReadRecorder::new();
    let activities = model.activities();

    let mut probes: Vec<ActivityProbe> = activities
        .iter()
        .map(|_| ActivityProbe {
            gate_reads: BTreeSet::new(),
            timing_reads: BTreeSet::new(),
            gate_writes: BTreeSet::new(),
            ever_enabled: false,
            ever_gates_probed: false,
            gate_panic: None,
            timing_panic: None,
        })
        .collect();

    // ---- Probe pass: evaluate every closure over the corpus. -----------
    for tokens in &corpus {
        let probe = Marking::with_read_recorder(tokens.clone(), std::sync::Arc::clone(&recorder));
        for (ai, activity) in activities.iter().enumerate() {
            // Mirror engine semantics: gates are only consulted once the
            // input arcs are covered, timing only once fully enabled.
            if !activity.input_arcs.iter().all(|&(p, n)| tokens[p.index()] >= n) {
                continue;
            }
            let state = &mut probes[ai];
            let mut enabled = true;
            if !activity.input_gates.is_empty() {
                state.ever_gates_probed = true;
                let verdict = catch_unwind(AssertUnwindSafe(|| {
                    activity.input_gates.iter().all(|g| (g.predicate)(&probe))
                }));
                state.gate_reads.extend(recorder.take().into_iter().map(|p| p as usize));
                match verdict {
                    Ok(satisfied) => enabled = satisfied,
                    Err(payload) => {
                        if state.gate_panic.is_none() {
                            state.gate_panic = Some(panic_text(payload));
                        }
                        enabled = false;
                    }
                }
            }
            if !enabled {
                continue;
            }
            state.ever_enabled = true;
            if let Timing::TimedFn(sample) = &activity.timing {
                let verdict = catch_unwind(AssertUnwindSafe(|| {
                    let _ = sample(&probe);
                }));
                state.timing_reads.extend(recorder.take().into_iter().map(|p| p as usize));
                if let Err(payload) = verdict {
                    if state.timing_panic.is_none() {
                        state.timing_panic = Some(panic_text(payload));
                    }
                }
            }
            // Probe a firing of every case to observe which places the
            // gate *functions* write (arc updates are structural and run
            // untracked; only gate writes land in the change log).
            for case in &activity.cases {
                let mut fired = Marking::new(tokens.clone());
                for &(p, n) in &activity.input_arcs {
                    fired.remove_tokens(p, n);
                }
                fired.enable_tracking();
                let verdict = catch_unwind(AssertUnwindSafe(|| {
                    for gate in &activity.input_gates {
                        (gate.function)(&mut fired);
                    }
                    fired.set_tracking(false);
                    for &(p, n) in &case.output_arcs {
                        fired.add_tokens(p, n);
                    }
                    fired.set_tracking(true);
                    for gate in &case.output_gates {
                        (gate.function)(&mut fired);
                    }
                }));
                state.gate_writes.extend(fired.log().iter().map(|&p| p as usize));
                if let Err(payload) = verdict {
                    if state.gate_panic.is_none() {
                        state.gate_panic = Some(panic_text(payload));
                    }
                }
            }
        }
        // Drain any reads left by a panicking closure so they are not
        // attributed to the next activity.
        let _ = recorder.take();
    }

    let mut diagnostics = Vec::new();

    // ---- Pass 1: declaration soundness. --------------------------------
    for (activity, state) in activities.iter().zip(&probes) {
        let arc_places: BTreeSet<usize> =
            activity.input_arcs.iter().map(|&(p, _)| p.index()).collect();
        if let Some(declared) = &activity.declared_reads {
            let declared_set: BTreeSet<usize> =
                declared.iter().map(super::marking::PlaceId::index).collect();
            let undeclared: Vec<usize> = state
                .gate_reads
                .iter()
                .copied()
                .filter(|p| !arc_places.contains(p) && !declared_set.contains(p))
                .collect();
            if !undeclared.is_empty() {
                diagnostics.push(Diagnostic::new(
                    codes::UNDECLARED_ENABLING_READ,
                    Severity::Error,
                    &activity.name,
                    format!(
                        "gate predicate reads {} but `enabling_reads` does not declare \
                         {}; the calendar kernel would miss enabling changes",
                        place_list(model, undeclared.iter().copied()),
                        if undeclared.len() == 1 { "it" } else { "them" },
                    ),
                ));
            }
            if state.ever_gates_probed {
                let unobserved: Vec<usize> = declared_set
                    .iter()
                    .copied()
                    .filter(|p| !state.gate_reads.contains(p) && !arc_places.contains(p))
                    .collect();
                if !unobserved.is_empty() {
                    diagnostics.push(Diagnostic::new(
                        codes::UNOBSERVED_DECLARED_READ,
                        Severity::Info,
                        &activity.name,
                        format!(
                            "`enabling_reads` declares {} but no probe observed the gates \
                             reading {} ({} probes); possible over-declaration",
                            place_list(model, unobserved.iter().copied()),
                            if unobserved.len() == 1 { "it" } else { "them" },
                            corpus.len(),
                        ),
                    ));
                }
            }
        } else if !activity.input_gates.is_empty() {
            diagnostics.push(Diagnostic::new(
                codes::CONSERVATIVE_DECLARATIONS,
                Severity::Info,
                &activity.name,
                "has input gates but no `enabling_reads` declaration; the scheduler \
                 re-examines it after every event (correct but conservative)"
                    .to_string(),
            ));
        }

        let timing_dependent = matches!(activity.timing, Timing::TimedFn(_));
        match &activity.timing_reads {
            Some(declared) if activity.resample_on_change && timing_dependent => {
                let declared_set: BTreeSet<usize> =
                    declared.iter().map(super::marking::PlaceId::index).collect();
                let undeclared: Vec<usize> = state
                    .timing_reads
                    .iter()
                    .copied()
                    .filter(|p| !declared_set.contains(p))
                    .collect();
                if !undeclared.is_empty() {
                    diagnostics.push(Diagnostic::new(
                        codes::UNDECLARED_TIMING_READ,
                        Severity::Error,
                        &activity.name,
                        format!(
                            "timing function reads {} but `timing_reads` does not declare \
                             {}; the sampled delay would not be refreshed when {} written",
                            place_list(model, undeclared.iter().copied()),
                            if undeclared.len() == 1 { "it" } else { "them" },
                            if undeclared.len() == 1 { "it is" } else { "they are" },
                        ),
                    ));
                }
                if state.ever_enabled {
                    let unobserved: Vec<usize> = declared_set
                        .iter()
                        .copied()
                        .filter(|p| !state.timing_reads.contains(p))
                        .collect();
                    if !unobserved.is_empty() {
                        diagnostics.push(Diagnostic::new(
                            codes::UNOBSERVED_DECLARED_READ,
                            Severity::Info,
                            &activity.name,
                            format!(
                                "`timing_reads` declares {} but no probe observed the \
                                 timing function reading {} ({} probes); possible \
                                 over-declaration",
                                place_list(model, unobserved.iter().copied()),
                                if unobserved.len() == 1 { "it" } else { "them" },
                                corpus.len(),
                            ),
                        ));
                    }
                }
            }
            Some(_) => {
                diagnostics.push(Diagnostic::new(
                    codes::UNOBSERVED_DECLARED_READ,
                    Severity::Info,
                    &activity.name,
                    "`timing_reads` is declared but inert: the activity either has a \
                     fixed timing distribution or does not resample on marking changes"
                        .to_string(),
                ));
            }
            None if activity.resample_on_change && timing_dependent => {
                diagnostics.push(Diagnostic::new(
                    codes::CONSERVATIVE_DECLARATIONS,
                    Severity::Info,
                    &activity.name,
                    "marking-dependent timing without a `timing_reads` declaration; \
                     the sampled delay is redrawn after every event (correct but \
                     conservative)"
                        .to_string(),
                ));
            }
            None => {}
        }

        if let Some(text) = &state.gate_panic {
            diagnostics.push(Diagnostic::new(
                codes::GATE_PANICKED,
                Severity::Error,
                &activity.name,
                format!("a gate predicate or gate function panicked while being probed: {text}"),
            ));
        }
        if let Some(text) = &state.timing_panic {
            diagnostics.push(Diagnostic::new(
                codes::TIMING_PANICKED,
                Severity::Error,
                &activity.name,
                format!("the timing function panicked while being probed: {text}"),
            ));
        }
    }

    // ---- Pass 2: structural analysis. ----------------------------------
    drop(declaration_span);
    let structural_span = span(MetricId::SpanLintStructural);
    for activity in activities {
        let mut seen = BTreeSet::new();
        let mut duplicated = BTreeSet::new();
        for &(p, _) in &activity.input_arcs {
            if !seen.insert(p.index()) {
                duplicated.insert(p.index());
            }
        }
        if !duplicated.is_empty() {
            diagnostics.push(Diagnostic::new(
                codes::UNDERFLOW_HAZARD,
                Severity::Error,
                &activity.name,
                format!(
                    "drains {} through multiple input arcs; enabling checks each arc \
                     independently, so a firing can underflow the place",
                    place_list(model, duplicated.iter().copied()),
                ),
            ));
        }
    }

    let invariants = farkas_invariants(model, &probes);
    let starved = starved_activities(model, &invariants, &mut diagnostics);

    for (ai, (activity, state)) in activities.iter().zip(&probes).enumerate() {
        if !state.ever_enabled && !starved.contains(&ai) {
            diagnostics.push(Diagnostic::new(
                codes::DEAD_ACTIVITY,
                Severity::Warning,
                &activity.name,
                format!(
                    "never enabled over {} probe markings; the activity may be dead",
                    corpus.len(),
                ),
            ));
        }
    }

    // A place is connected if anything structural or observed touches it:
    // arcs, declarations, probed gate reads/writes, timing reads, or (when
    // rewards are provided) a reward function read.
    let mut touched: BTreeSet<usize> = BTreeSet::new();
    for (activity, state) in activities.iter().zip(&probes) {
        touched.extend(activity.input_arcs.iter().map(|&(p, _)| p.index()));
        for case in &activity.cases {
            touched.extend(case.output_arcs.iter().map(|&(p, _)| p.index()));
        }
        touched
            .extend(activity.declared_reads.iter().flatten().map(super::marking::PlaceId::index));
        touched.extend(activity.timing_reads.iter().flatten().map(super::marking::PlaceId::index));
        touched.extend(state.gate_reads.iter().copied());
        touched.extend(state.timing_reads.iter().copied());
        touched.extend(state.gate_writes.iter().copied());
    }

    // ---- Pass 3: reward linting. ----------------------------------------
    drop(structural_span);
    let _reward_span = span(MetricId::SpanLintReward);
    let mut dead: BTreeSet<usize> =
        probes.iter().enumerate().filter(|(_, s)| !s.ever_enabled).map(|(i, _)| i).collect();
    dead.extend(starved.iter().copied());
    for spec in rewards {
        match &spec.variant {
            RewardVariant::Impulse { activity, .. } => {
                if activity.index() >= activities.len() {
                    diagnostics.push(Diagnostic::new(
                        codes::UNKNOWN_REWARD_TARGET,
                        Severity::Error,
                        spec.name(),
                        format!(
                            "impulse reward targets activity #{} but the model has only \
                             {} activities",
                            activity.index(),
                            activities.len(),
                        ),
                    ));
                } else if dead.contains(&activity.index()) {
                    diagnostics.push(Diagnostic::new(
                        codes::IMPULSE_ON_DEAD_ACTIVITY,
                        Severity::Warning,
                        spec.name(),
                        format!(
                            "impulse reward targets `{}`, which never fires over the \
                             probe corpus; the reward would always be zero",
                            model.activity_name(crate::ActivityId(activity.index())),
                        ),
                    ));
                }
            }
            RewardVariant::Rate { function, .. } => {
                let mut panicked = None;
                let mut non_finite = false;
                for tokens in corpus.iter().take(32) {
                    let probe = Marking::with_read_recorder(
                        tokens.clone(),
                        std::sync::Arc::clone(&recorder),
                    );
                    match catch_unwind(AssertUnwindSafe(|| function(&probe))) {
                        Ok(v) if !v.is_finite() => non_finite = true,
                        Ok(_) => {}
                        Err(payload) => {
                            if panicked.is_none() {
                                panicked = Some(panic_text(payload));
                            }
                        }
                    }
                    touched.extend(recorder.take().into_iter().map(|p| p as usize));
                }
                if let Some(text) = panicked {
                    diagnostics.push(Diagnostic::new(
                        codes::REWARD_PANICKED,
                        Severity::Error,
                        spec.name(),
                        format!(
                            "rate reward panicked while being probed (usually a place id \
                             from another model): {text}"
                        ),
                    ));
                }
                if non_finite {
                    diagnostics.push(Diagnostic::new(
                        codes::NON_FINITE_REWARD,
                        Severity::Warning,
                        spec.name(),
                        "rate reward produced a non-finite value on a probe marking".to_string(),
                    ));
                }
            }
        }
    }

    for p in 0..model.num_places() {
        if !touched.contains(&p) {
            diagnostics.push(Diagnostic::new(
                codes::DISCONNECTED_PLACE,
                Severity::Warning,
                model.place_name(crate::PlaceId(p)),
                "no arc, gate, declaration, or reward references this place".to_string(),
            ));
        }
    }

    diagnostics.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.code.cmp(b.code)));

    LintReport { model: model.name().to_string(), probes: corpus.len(), diagnostics }
}

/// Extracts certified P-invariants by Farkas-style integer elimination on
/// the arc incidence matrix, restricted to places no probed gate function
/// writes (so the certificates survive gate behaviour, not only arcs).
fn farkas_invariants(model: &Model, probes: &[ActivityProbe]) -> Vec<Invariant> {
    const MAX_CANDIDATES: usize = 512;
    let places = model.num_places();
    let gate_written: BTreeSet<usize> =
        probes.iter().flat_map(|s| s.gate_writes.iter().copied()).collect();

    // Start from one unit candidate per gate-free place.
    let mut candidates: Vec<Vec<i64>> = (0..places)
        .filter(|p| !gate_written.contains(p))
        .map(|p| {
            let mut y = vec![0i64; places];
            y[p] = 1;
            y
        })
        .collect();

    // Gate writes already disqualified their places from every candidate's
    // support, so the columns below can consist of arc effects alone.
    for activity in model.activities() {
        for case in &activity.cases {
            // Net effect of firing this case, as a dense column.
            let mut column: Vec<i64> = vec![0; places];
            for &(p, n) in &activity.input_arcs {
                column[p.index()] -= i64::try_from(n).unwrap_or(i64::MAX);
            }
            for &(p, n) in &case.output_arcs {
                column[p.index()] += i64::try_from(n).unwrap_or(i64::MAX);
            }
            if column.iter().all(|&v| v == 0) {
                continue;
            }
            let dots: Vec<i64> = candidates
                .iter()
                .map(|y| y.iter().zip(&column).map(|(&a, &b)| a * b).sum())
                .collect();
            let mut next: Vec<Vec<i64>> = Vec::new();
            for (y, &d) in candidates.iter().zip(&dots) {
                if d == 0 {
                    next.push(y.clone());
                }
            }
            'combine: for (i, &di) in dots.iter().enumerate() {
                if di <= 0 {
                    continue;
                }
                for (j, &dj) in dots.iter().enumerate() {
                    if dj >= 0 {
                        continue;
                    }
                    if next.len() >= MAX_CANDIDATES {
                        break 'combine;
                    }
                    // y = di * y_j + (-dj) * y_i annihilates the column.
                    let mut y: Vec<i64> = candidates[j]
                        .iter()
                        .zip(&candidates[i])
                        .map(|(&yj, &yi)| {
                            di.saturating_mul(yj).saturating_add((-dj).saturating_mul(yi))
                        })
                        .collect();
                    let g = y.iter().fold(0u64, |g, &v| gcd(g, v.unsigned_abs()));
                    if g > 1 {
                        for v in &mut y {
                            *v /= i64::try_from(g).unwrap_or(1);
                        }
                    }
                    if !next.contains(&y) {
                        next.push(y);
                    }
                }
            }
            // Keep only support-minimal candidates: a vector whose support
            // strictly contains another's is a redundant combination.
            let supports: Vec<BTreeSet<usize>> = next
                .iter()
                .map(|y| y.iter().enumerate().filter(|(_, &v)| v != 0).map(|(p, _)| p).collect())
                .collect();
            let keep: Vec<bool> = supports
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    !supports
                        .iter()
                        .enumerate()
                        .any(|(j, t)| i != j && t.is_subset(s) && (t.len() < s.len() || j < i))
                })
                .collect();
            candidates = next.into_iter().zip(keep).filter(|(_, k)| *k).map(|(y, _)| y).collect();
        }
    }

    let initial = model.initial_marking();
    candidates
        .into_iter()
        .filter(|y| y.iter().any(|&v| v != 0))
        .map(|y| {
            let weights: Vec<(usize, u64)> = y
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0)
                .map(|(p, &v)| (p, v.unsigned_abs()))
                .collect();
            let value = weights.iter().map(|&(p, w)| w * initial.tokens(crate::PlaceId(p))).sum();
            Invariant { weights, value }
        })
        .collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Reports the certified invariants (`SAN014`) and flags input arcs whose
/// demand exceeds an invariant bound derived from the initial marking
/// (`SAN013`); returns the indices of provably starved activities.
fn starved_activities(
    model: &Model,
    invariants: &[Invariant],
    diagnostics: &mut Vec<Diagnostic>,
) -> BTreeSet<usize> {
    const MAX_REPORTED: usize = 8;
    for invariant in invariants.iter().take(MAX_REPORTED) {
        let formula = invariant
            .weights
            .iter()
            .map(|&(p, w)| {
                let name = model.place_name(crate::PlaceId(p));
                if w == 1 {
                    format!("`{name}`")
                } else {
                    format!("{w}*`{name}`")
                }
            })
            .collect::<Vec<_>>()
            .join(" + ");
        let element = model.place_name(crate::PlaceId(invariant.weights[0].0)).to_string();
        diagnostics.push(Diagnostic::new(
            codes::PLACE_INVARIANT,
            Severity::Info,
            element,
            format!("P-invariant: {formula} = {} in every reachable marking", invariant.value),
        ));
    }
    if invariants.len() > MAX_REPORTED {
        diagnostics.push(Diagnostic::new(
            codes::PLACE_INVARIANT,
            Severity::Info,
            model.name(),
            format!("{} further P-invariants not listed", invariants.len() - MAX_REPORTED),
        ));
    }

    // The fuzzed corpus visits unreachable markings, so `ever_enabled` says
    // nothing about reachability here: the invariant certificate alone
    // proves the bound, and the bound alone proves the starvation.
    let mut starved = BTreeSet::new();
    for (ai, activity) in model.activities().iter().enumerate() {
        for &(p, need) in &activity.input_arcs {
            for invariant in invariants {
                let Some(&(_, weight)) = invariant.weights.iter().find(|&&(q, _)| q == p.index())
                else {
                    continue;
                };
                if weight * need > invariant.value {
                    diagnostics.push(Diagnostic::new(
                        codes::INVARIANT_STARVED_ARC,
                        Severity::Error,
                        &activity.name,
                        format!(
                            "input arc demands {need} token(s) from `{}`, but a P-invariant \
                             bounds it by {} from the initial marking; the activity can \
                             never fire",
                            model.place_name(p),
                            invariant.value / weight,
                        ),
                    ));
                    starved.insert(ai);
                    break;
                }
            }
            if starved.contains(&ai) {
                break;
            }
        }
    }
    starved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelBuilder;
    use probdist::{Dist, Exponential};

    fn exp(mean: f64) -> Exponential {
        Exponential::from_mean(mean).unwrap()
    }

    /// A sound two-place repairable component with declared reads.
    fn clean_model() -> crate::Model {
        let mut b = ModelBuilder::new("clean");
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
            .enabling_predicate(move |m| m.tokens(up) == 0)
            .enabling_reads(&[up])
            .output_arc(up, 1)
            .build()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn clean_model_lints_clean_and_certifies_the_invariant() {
        let report = clean_model().lint();
        report.deny(Severity::Warning).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.has_code(codes::PLACE_INVARIANT));
        let invariant =
            report.diagnostics().iter().find(|d| d.code() == codes::PLACE_INVARIANT).unwrap();
        assert!(invariant.message().contains("`up` + `down` = 1"), "{}", invariant.message());
        assert_eq!(report.max_severity(), Some(Severity::Info));
    }

    #[test]
    fn undeclared_gate_read_is_an_error() {
        let mut b = ModelBuilder::new("undeclared-gate");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        let blocker = b.add_place("blocker", 0).unwrap();
        b.timed_activity("fail", exp(100.0))
            .unwrap()
            .input_arc(up, 1)
            // Reads `blocker` but declares only `down`.
            .enabling_predicate(move |m| m.tokens(blocker) == 0)
            .enabling_reads(&[down])
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("repair", exp(10.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .output_arc(blocker, 1)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        assert!(report.has_code(codes::UNDECLARED_ENABLING_READ), "{report}");
        assert!(report.deny(Severity::Error).is_err());
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == codes::UNDECLARED_ENABLING_READ)
            .unwrap();
        assert_eq!(d.element(), "fail");
        assert!(d.message().contains("`blocker`"), "{}", d.message());
        // The declared-but-never-read `down` is also surfaced, as Info.
        assert!(report.has_code(codes::UNOBSERVED_DECLARED_READ));
    }

    #[test]
    fn undeclared_timing_read_is_an_error() {
        let mut b = ModelBuilder::new("undeclared-timing");
        let up = b.add_place("up", 2).unwrap();
        let down = b.add_place("down", 0).unwrap();
        let load = b.add_place("load", 1).unwrap();
        b.timed_activity_fn("fail", move |m: &Marking| {
            let n = (m.tokens(up) + m.tokens(load)).max(1) as f64;
            Dist::Exponential(Exponential::new(n * 0.01).unwrap())
        })
        .unwrap()
        .input_arc(up, 1)
        // Reads `load` too, but declares only `up`.
        .timing_reads(&[up])
        .output_arc(down, 1)
        .build()
        .unwrap();
        b.timed_activity("repair", exp(10.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        b.timed_activity("shed", exp(50.0))
            .unwrap()
            .input_arc(load, 1)
            .output_arc(load, 1)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == codes::UNDECLARED_TIMING_READ)
            .unwrap_or_else(|| panic!("expected SAN002 in {report}"));
        assert_eq!(d.element(), "fail");
        assert!(d.message().contains("`load`"), "{}", d.message());
    }

    #[test]
    fn conservative_gates_and_timings_are_reported_as_info() {
        let mut b = ModelBuilder::new("conservative");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity_fn("fail", move |m: &Marking| {
            Dist::Exponential(Exponential::new(m.tokens(up).max(1) as f64 * 0.01).unwrap())
        })
        .unwrap()
        .input_arc(up, 1)
        .output_arc(down, 1)
        .build()
        .unwrap();
        b.timed_activity("repair", exp(10.0))
            .unwrap()
            .input_arc(down, 1)
            .enabling_predicate(move |m| m.tokens(up) == 0)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        assert_eq!(
            report
                .diagnostics()
                .iter()
                .filter(|d| d.code() == codes::CONSERVATIVE_DECLARATIONS)
                .count(),
            2,
            "{report}"
        );
        // Conservative is sound: nothing at Warning or above.
        report.deny(Severity::Warning).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn panicking_closures_are_reported_not_propagated() {
        let mut b = ModelBuilder::new("panicky");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity_fn("fail", move |m: &Marking| {
            // Panics whenever `up` is empty — the classic rate-zero bug.
            Dist::Exponential(Exponential::new(m.tokens(up) as f64).unwrap())
        })
        .unwrap()
        .input_arc(up, 1)
        .enabling_predicate(move |m| {
            assert!(m.tokens(down) < 2, "too many failures");
            true
        })
        .output_arc(down, 1)
        .build()
        .unwrap();
        b.timed_activity("repair", exp(10.0))
            .unwrap()
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        // The timing function only runs on enabled markings (up >= 1), so
        // it never panics; the predicate runs on fuzzed markings and does.
        assert!(report.has_code(codes::GATE_PANICKED), "{report}");
        assert!(!report.has_code(codes::TIMING_PANICKED), "{report}");
    }

    #[test]
    fn dead_activity_and_disconnected_place_are_warnings() {
        let mut b = ModelBuilder::new("structural");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        let _orphan = b.add_place("orphan", 3).unwrap();
        b.timed_activity("fail", exp(100.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("never", exp(1.0))
            .unwrap()
            .input_arc(down, 1)
            .enabling_predicate(|_| false)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        let dead = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == codes::DEAD_ACTIVITY)
            .unwrap_or_else(|| panic!("expected SAN010 in {report}"));
        assert_eq!(dead.element(), "never");
        let disconnected = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == codes::DISCONNECTED_PLACE)
            .unwrap_or_else(|| panic!("expected SAN011 in {report}"));
        assert_eq!(disconnected.element(), "orphan");
        assert_eq!(report.max_severity(), Some(Severity::Warning));
        assert!(report.deny(Severity::Warning).is_err());
        report.deny(Severity::Error).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn duplicate_input_arcs_are_an_underflow_hazard() {
        let mut b = ModelBuilder::new("dup-arcs");
        let p = b.add_place("p", 1).unwrap();
        let q = b.add_place("q", 0).unwrap();
        b.timed_activity("drain", exp(1.0))
            .unwrap()
            .input_arc(p, 1)
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        b.timed_activity("refill", exp(1.0))
            .unwrap()
            .input_arc(q, 1)
            .output_arc(p, 2)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == codes::UNDERFLOW_HAZARD)
            .unwrap_or_else(|| panic!("expected SAN012 in {report}"));
        assert_eq!(d.element(), "drain");
        assert_eq!(d.severity(), Severity::Error);
    }

    #[test]
    fn invariant_bound_proves_starved_activities_dead() {
        let mut b = ModelBuilder::new("starved");
        // A conservative cycle holding zero tokens: provably dead, not
        // merely unobserved-dead.
        let a = b.add_place("a", 0).unwrap();
        let c = b.add_place("c", 0).unwrap();
        b.timed_activity("forward", exp(1.0))
            .unwrap()
            .input_arc(a, 1)
            .output_arc(c, 1)
            .build()
            .unwrap();
        b.timed_activity("backward", exp(1.0))
            .unwrap()
            .input_arc(c, 1)
            .output_arc(a, 1)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        assert!(report.has_code(codes::INVARIANT_STARVED_ARC), "{report}");
        // SAN013 subsumes the corpus-level dead-activity warning.
        assert!(!report.has_code(codes::DEAD_ACTIVITY), "{report}");
        assert_eq!(
            report.diagnostics().iter().filter(|d| d.severity() == Severity::Error).count(),
            2,
            "both ends of the cycle are starved: {report}"
        );
    }

    #[test]
    fn reward_lints_catch_dangling_dead_and_panicking_targets() {
        let model = clean_model();
        let up = model.place("up").unwrap();
        let rewards = vec![
            // Fine.
            crate::RewardSpec::time_averaged_rate("availability", move |m| {
                f64::from(u8::from(m.tokens(up) > 0))
            }),
            // Dangling: the model has 2 activities.
            crate::RewardSpec::impulse_total("dangling", crate::ActivityId(9), 1.0),
            // Panics: reads a place id from a larger model.
            crate::RewardSpec::instant_of_time("oob", |m| m.tokens(crate::PlaceId(40)) as f64),
            // Non-finite on every marking.
            crate::RewardSpec::instant_of_time("nan", |_| f64::NAN),
        ];
        let report = model.lint_with(&LintConfig::default(), &rewards);
        let by_code = |code: &str| {
            report
                .diagnostics()
                .iter()
                .find(|d| d.code() == code)
                .unwrap_or_else(|| panic!("expected {code} in {report}"))
                .element()
                .to_string()
        };
        assert_eq!(by_code(codes::UNKNOWN_REWARD_TARGET), "dangling");
        assert_eq!(by_code(codes::REWARD_PANICKED), "oob");
        assert_eq!(by_code(codes::NON_FINITE_REWARD), "nan");
    }

    #[test]
    fn impulse_on_a_dead_activity_is_a_warning() {
        let mut b = ModelBuilder::new("dead-impulse");
        let up = b.add_place("up", 1).unwrap();
        let down = b.add_place("down", 0).unwrap();
        b.timed_activity("fail", exp(100.0))
            .unwrap()
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build()
            .unwrap();
        b.timed_activity("never", exp(1.0))
            .unwrap()
            .input_arc(down, 1)
            .enabling_predicate(|_| false)
            .output_arc(up, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let never = model.activity("never").unwrap();
        let rewards = vec![crate::RewardSpec::impulse_total("repairs", never, 1.0)];
        let report = model.lint_with(&LintConfig::default(), &rewards);
        let d = report
            .diagnostics()
            .iter()
            .find(|d| d.code() == codes::IMPULSE_ON_DEAD_ACTIVITY)
            .unwrap_or_else(|| panic!("expected SAN021 in {report}"));
        assert_eq!(d.element(), "repairs");
    }

    #[test]
    fn reports_are_deterministic_and_ordered_by_severity() {
        let mut b = ModelBuilder::new("ordering");
        let p = b.add_place("p", 1).unwrap();
        let orphan = b.add_place("orphan", 0).unwrap();
        let hidden = b.add_place("hidden", 0).unwrap();
        b.timed_activity("spin", exp(1.0))
            .unwrap()
            .input_arc(p, 1)
            .enabling_predicate(move |m| m.tokens(hidden) == 0)
            .enabling_reads(&[])
            .output_arc(p, 1)
            .build()
            .unwrap();
        let model = b.build().unwrap();
        let _ = orphan;
        let first = model.lint();
        let second = model.lint();
        assert_eq!(first, second);
        let severities: Vec<Severity> =
            first.diagnostics().iter().map(Diagnostic::severity).collect();
        let mut sorted = severities.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(severities, sorted, "most severe first: {first}");
        assert!(first.has_code(codes::UNDECLARED_ENABLING_READ));
        assert!(first.has_code(codes::DISCONNECTED_PLACE));
    }

    #[test]
    fn severity_parses_and_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        assert_eq!(Severity::parse("ERROR"), Some(Severity::Error));
        assert_eq!(Severity::parse("warn"), Some(Severity::Warning));
        assert_eq!(Severity::parse("info"), Some(Severity::Info));
        assert_eq!(Severity::parse("fatal"), None);
        assert_eq!(Severity::Error.name(), "error");
    }

    #[test]
    fn reports_serialise_with_a_stable_schema() {
        let report = clean_model().lint();
        let json = serde::to_json(&report);
        for key in ["\"model\"", "\"probes\"", "\"clean\"", "\"max_severity\"", "\"diagnostics\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let d = &report.diagnostics()[0];
        let dj = serde::to_json(d);
        for key in ["\"code\"", "\"severity\"", "\"element\"", "\"message\""] {
            assert!(dj.contains(key), "missing {key} in {dj}");
        }
        assert!(format!("{d}").starts_with(d.code()));
    }

    #[test]
    fn deny_reports_the_offending_diagnostics() {
        let mut b = ModelBuilder::new("deny");
        let p = b.add_place("p", 1).unwrap();
        let q = b.add_place("q", 0).unwrap();
        b.timed_activity("drain", exp(1.0))
            .unwrap()
            .input_arc(p, 1)
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build()
            .unwrap();
        b.timed_activity("refill", exp(1.0))
            .unwrap()
            .input_arc(q, 1)
            .output_arc(p, 2)
            .build()
            .unwrap();
        let report = b.build().unwrap().lint();
        match report.deny(Severity::Error) {
            Err(SanError::LintRejected { model, rejected, details }) => {
                assert_eq!(model, "deny");
                // The duplicate arc is a hazard, and the invariant
                // `p + 2*q = 1` proves `refill` (which needs q >= 1) dead.
                assert_eq!(rejected, 2);
                assert!(details.contains("SAN012"), "{details}");
                assert!(details.contains("SAN013"), "{details}");
            }
            other => panic!("expected LintRejected, got {other:?}"),
        }
    }

    #[test]
    fn the_fuzzed_corpus_is_seeded_and_bounded() {
        let corpus = probe_corpus(&[5, 0, 1], &LintConfig { probes: 100, seed: 7 });
        assert_eq!(corpus.len(), 100);
        assert_eq!(corpus[0], vec![5, 0, 1]);
        let again = probe_corpus(&[5, 0, 1], &LintConfig { probes: 100, seed: 7 });
        assert_eq!(corpus, again);
        let other = probe_corpus(&[5, 0, 1], &LintConfig { probes: 100, seed: 8 });
        assert_ne!(corpus, other);
        // Zero probes still yields the initial marking.
        let minimal = probe_corpus(&[2], &LintConfig { probes: 0, seed: 7 });
        assert_eq!(minimal, vec![vec![2]]);
    }
}
