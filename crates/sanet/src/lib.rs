//! A stochastic activity network (SAN) formalism and discrete-event
//! simulation engine, modelled after the Möbius tool used in the paper.
//!
//! The paper builds its cluster-file-system dependability model as a
//! replicate/join composition of stochastic activity networks and solves it
//! by simulation, reporting reward variables (availability, cluster utility,
//! disk-replacement rate) with 95 % confidence intervals. This crate
//! provides the same building blocks:
//!
//! * [`ModelBuilder`] / [`Model`] — places (integer markings), timed and
//!   instantaneous activities with general or marking-dependent firing
//!   distributions, input gates (enabling predicates), output gates
//!   (marking transformations), and probabilistic cases.
//! * [`compose`] — replicate/join helpers that merge submodels while
//!   sharing selected places, mirroring Möbius' composed-model tree
//!   (Figure 1 of the paper).
//! * [`beowulf`] — a ready-made composed workload: the Kirsal & Ever
//!   Beowulf head-plus-workers performability model, with declared
//!   dependency read sets (pinned sound by its differential test; being a
//!   4-activity model, plain runs auto-select the naive kernel).
//! * [`Simulator`] — a discrete-event executor over the window
//!   `[0, horizon]` from the initial marking; an activity's sampled delay
//!   is redrawn on a marking change exactly when its distribution is
//!   marking-dependent.
//! * [`reward`] — rate rewards (time-averaged or instant-of-time) and
//!   impulse totals (per activity completion).
//! * [`Experiment`] — replication manager that runs independent
//!   replications on the shared worker pool under a [`StoppingRule`] — a
//!   fixed count ([`StoppingRule::fixed`]) or a relative-precision target
//!   — and reports each reward with a Student-t confidence interval.
//! * [`rare`] — the fail-over pair, the rare-event benchmark model, with
//!   its exact hitting-probability oracle.
//! * [`lint`] — static analysis of compiled models ([`Model::lint`]):
//!   declaration-soundness probing of gate and timing closures against a
//!   recording marking, structural checks (dead activities, disconnected
//!   places, underflow hazards, P-invariants by integer elimination), and
//!   reward linting, reported as typed `SAN0xx` diagnostics with a
//!   configurable deny level. Debug builds run it automatically before
//!   [`Simulator::run`].
//! * [`reach`] — the semantic static-analysis tier ([`Model::analyze`]):
//!   exhaustive reachable-marking-graph exploration under a budget,
//!   classifying boundedness, ergodicity (SCC condensation), and timing
//!   (all-exponential or the named offenders), with a typed
//!   [`reach::SolverAdmissibility`] verdict and — for admissible models — exact
//!   sparse generator assembly into a [`ctmc::SparseCtmc`] solvable
//!   without simulation.
//! * [`ctmc`] — the one CTMC solver, [`ctmc::SparseCtmc`]: steady state by
//!   power iteration inside the single terminal class, transient
//!   distributions by uniformization. It solves the assembled generators,
//!   the k-out-of-n redundancy group and the fail-over pair's
//!   hitting-probability oracle, and shares its graph condensation with
//!   [`reach`].
//!
//! # The event-calendar engine
//!
//! [`Simulator::run`] executes on an event-calendar kernel whose per-event
//! cost is `O(log A + affected)` in the number of activities `A`, instead
//! of the `O(A + R)` full rescan of early versions (retained as
//! [`Simulator::run_reference`] for differential testing):
//!
//! * The future-event list is an indexed binary min-heap keyed by
//!   `(firing time, activity index)`; the index tie-break reproduces the
//!   linear scan's ordering for simultaneous firings exactly.
//! * A place→activity incidence index, built once per model, combined with
//!   the marking's dirty-place change log, re-examines after each event
//!   only the activities whose enabling (or sampled delay) the event's
//!   writes could actually have affected — in ascending index order, so the
//!   RNG draw sequence and therefore every statistic is bit-identical to
//!   the full rescan.
//! * Reward specifications are compiled once per run into a partitioned
//!   table (impulse rewards bucketed by activity, rate rewards as a dense
//!   slice, names interned into one shared `Arc`), so a replication's
//!   [`RunResult`] is a plain `Vec<f64>`.
//!
//! Gate predicates and marking-dependent distributions are opaque closures,
//! so by default the scheduler treats them conservatively (re-examined
//! after every event — exactly the legacy behaviour, bit for bit). Models
//! can sharpen this with two declarations on
//! [`ActivityBuilder`]: [`ActivityBuilder::enabling_reads`] (which places
//! the gate predicates read) and [`ActivityBuilder::timing_reads`] (which
//! places the timing distribution reads; also refines the restart policy to
//! "keep the sampled delay unless one of these places is written" — the
//! standard reactivation rule, law-equivalent for exponential timings).
//! Both kernels honour declarations identically, and gate *writes* never
//! need declaring — they are tracked exactly through the marking change
//! log.
//!
//! # Example: a single repairable component
//!
//! ```
//! use sanet::{ModelBuilder, Experiment, StoppingRule, reward::RewardSpec};
//! use probdist::{Exponential, Deterministic};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModelBuilder::new("component");
//! let up = b.add_place("up", 1)?;
//! let down = b.add_place("down", 0)?;
//!
//! // Fail after an exponential delay with a 1000-hour mean.
//! b.timed_activity("fail", Exponential::from_mean(1000.0)?)?
//!     .input_arc(up, 1)
//!     .output_arc(down, 1)
//!     .build()?;
//! // Deterministic 10-hour repair.
//! b.timed_activity("repair", Deterministic::new(10.0)?)?
//!     .input_arc(down, 1)
//!     .output_arc(up, 1)
//!     .build()?;
//!
//! let model = b.build()?;
//! let availability = RewardSpec::time_averaged_rate("availability", move |m| {
//!     if m.tokens(up) > 0 { 1.0 } else { 0.0 }
//! });
//!
//! let mut experiment = Experiment::new(model, 8760.0); // one year
//! experiment.add_reward(availability);
//! let summary = experiment.run(&StoppingRule::fixed(64)?, 42)?;
//! let a = summary.reward("availability")?.interval.point;
//! assert!(a > 0.95 && a < 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beowulf;
mod calendar;
pub mod compose;
pub mod ctmc;
mod engine;
mod error;
pub mod lint;
mod marking;
mod model;
pub mod rare;
pub mod reach;
mod reference;
mod replication;
pub mod reward;

pub use engine::{RunResult, Simulator, TraceEvent};
pub use error::SanError;
pub use lint::{Diagnostic, LintReport, Severity};
pub use marking::{Marking, PlaceId};
pub use model::{ActivityBuilder, ActivityId, Model, ModelBuilder};
pub use reach::{ReachConfig, ReachReport};
pub use replication::{Experiment, RewardEstimate, RunSummary, StoppingRule};
pub use reward::RewardSpec;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Model>();
        assert_send_sync::<Marking>();
        assert_send_sync::<SanError>();
        assert_send_sync::<RunResult>();
    }
}
