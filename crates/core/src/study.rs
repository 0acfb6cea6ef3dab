//! [`Study`]: the single entry point that executes any set of
//! [`Scenario`]s under one [`RunSpec`] and collects the results into a
//! [`Report`].
//!
//! # Scheduling model
//!
//! A study run creates **one global work-stealing pool**
//! ([`probdist::parallel::Pool`]) sized by [`RunSpec::workers`] and
//! schedules every scenario×replication work unit of the whole study onto
//! it. Scenarios are claimed from a shared counter (the calling thread is
//! itself a worker), and each scenario's replications fan out through the
//! same pool's permit budget, so:
//!
//! * the process never runs more than `workers` busy threads, no matter
//!   how scenarios and replications nest (nested-pool arbitration);
//! * a fast scenario that drains early releases its workers to the
//!   replications of the scenarios still running — wall-clock time is
//!   bounded by the total work, not by the slowest scenario's slowest
//!   fixed chunk.
//!
//! # Determinism
//!
//! Scheduling never touches the statistics: replication `i` of any
//! evaluation always draws from the RNG stream derived from the base seed
//! and `i`, results reduce in index order, and scenario outputs are
//! collected in registration order. Serial (`workers = 1`) and parallel
//! runs — and adaptive runs that stop at the same replication count —
//! therefore produce bit-identical reports, the property the determinism
//! integration tests pin down.

use probdist::parallel::{cancel_scope, panic_message, CancelToken, WorkUnitPanic};

use crate::report::{Report, ScenarioFailure};
use crate::run::{FailurePolicy, RunSpec};
use crate::scenario::{
    CorrelationAblation, Figure2StorageAvailability, Figure3DiskReplacements,
    Figure4CfsAvailability, RaidParityAblation, RepairTimeAblation, Scenario, SpareOssAblation,
    Table1Outages, Table2MountFailures, Table3Jobs, Table4DiskWeibull, Table5Parameters,
};
use crate::CfsError;

/// An ordered collection of scenarios that run under one spec.
///
/// # Example
///
/// ```no_run
/// use cfs_model::{ClusterConfig, RunSpec, Study};
///
/// # fn main() -> Result<(), cfs_model::CfsError> {
/// let spec = RunSpec::new().with_replications(8).with_workers(4);
/// let report = Study::new()
///     .with(ClusterConfig::abe())
///     .with(ClusterConfig::petascale())
///     .run(&spec)?;
/// println!("{}", report.to_text());
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Study {
    scenarios: Vec<Box<dyn Scenario>>,
}

impl std::fmt::Debug for Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study").field("scenarios", &self.names()).finish()
    }
}

impl Study {
    /// Creates an empty study.
    pub fn new() -> Self {
        Study::default()
    }

    /// Appends a scenario (builder style).
    pub fn with(mut self, scenario: impl Scenario + 'static) -> Self {
        self.scenarios.push(Box::new(scenario));
        self
    }

    /// Appends an already-boxed scenario.
    pub fn add(&mut self, scenario: Box<dyn Scenario>) -> &mut Self {
        self.scenarios.push(scenario);
        self
    }

    /// Appends every scenario of `other`, preserving order — the way to
    /// compose the preset studies (e.g. `Study::figures().and(Study::ablations())`).
    pub fn and(mut self, other: Study) -> Self {
        self.scenarios.extend(other.scenarios);
        self
    }

    /// The log-analysis tables of the paper (Tables 1–5).
    pub fn tables() -> Self {
        Study::new()
            .with(Table1Outages)
            .with(Table2MountFailures)
            .with(Table3Jobs)
            .with(Table4DiskWeibull)
            .with(Table5Parameters)
    }

    /// The simulation figures of the paper (Figures 2–4).
    pub fn figures() -> Self {
        Study::new()
            .with(Figure2StorageAvailability::default())
            .with(Figure3DiskReplacements::default())
            .with(Figure4CfsAvailability::default())
    }

    /// The four design-choice ablations.
    pub fn ablations() -> Self {
        Study::new()
            .with(RaidParityAblation)
            .with(RepairTimeAblation)
            .with(SpareOssAblation)
            .with(CorrelationAblation)
    }

    /// Every paper artefact: Tables 1–5, Figures 2–4, and the four
    /// ablations, in presentation order.
    pub fn paper_artefacts() -> Self {
        Study::tables().and(Study::figures()).and(Study::ablations())
    }

    /// The number of scenarios registered.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the study has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// The registered scenario names, in execution order.
    pub fn names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name()).collect()
    }

    /// Runs every scenario under `spec` — scheduling all
    /// scenario×replication work units onto one global work-stealing pool
    /// of [`RunSpec::workers`] threads — and collects the outputs into a
    /// [`Report`] in registration order.
    ///
    /// The report is a pure function of `(scenarios, spec)` — re-running
    /// with the same inputs, serially or in parallel, reproduces it bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] for an invalid spec, an empty
    /// study, or duplicate scenario names (the report is keyed by name, so
    /// duplicates would silently shadow each other in every lookup).
    ///
    /// Scenario failures — errors *and panics*, both contained at the
    /// scenario boundary without harming the pool or sibling scenarios —
    /// follow the spec's [`FailurePolicy`]. Under the default
    /// [`FailurePolicy::Abort`], once any scenario fails, unstarted
    /// scenarios are skipped (fail-fast), in-flight ones finish, and the
    /// earliest-registered failure is returned (a panic as
    /// [`CfsError::ScenarioPanic`]). Under
    /// [`FailurePolicy::ContinueAndReport`], every scenario still runs and
    /// each failure is recorded as a [`ScenarioFailure`] in the report.
    /// A [`CfsError::DeadlineExpired`] is always recorded as a failure
    /// rather than aborting — truncation is the expected behaviour of
    /// [`RunSpec::with_deadline`], not a defect of the study.
    pub fn run(&self, spec: &RunSpec) -> Result<Report, CfsError> {
        spec.validate()?;
        if self.scenarios.is_empty() {
            return Err(CfsError::InvalidConfig { reason: "study has no scenarios to run".into() });
        }
        let mut seen = std::collections::HashSet::new();
        for scenario in &self.scenarios {
            if !seen.insert(scenario.name()) {
                return Err(CfsError::InvalidConfig {
                    reason: format!(
                        "study contains two scenarios named '{}' — report lookups are keyed by \
                         name, so one would shadow the other; rename one (for a ClusterConfig, \
                         set a distinct `name`)",
                        scenario.name()
                    ),
                });
            }
        }
        // Telemetry scope: when the spec carries a config, enable the
        // sharded accumulators for the duration of the run and snapshot a
        // baseline so the report's attachment covers only this run's
        // activity (global counters persist across runs in one process).
        let telemetry = spec.telemetry();
        let _telemetry_guard = telemetry.map(|_| probdist::telemetry::enable_scoped());
        let baseline = telemetry.map(|_| probdist::telemetry::snapshot());
        let progress = telemetry.filter(|config| config.progress).map(|config| {
            probdist::telemetry::start_progress(
                std::time::Duration::from_millis(config.progress_interval_ms),
                spec.deadline(),
            )
        });
        // The cached process-wide pool: repeated studies reuse the same
        // worker threads instead of spawning a fresh crew per run.
        let pool = probdist::parallel::Pool::global(spec.workers());
        let abort = spec.failure_policy() == FailurePolicy::Abort;
        // One study-wide cancellation token covers every scenario: when the
        // deadline fires, each evaluation stops claiming replications and
        // returns its completed prefix.
        let token = spec.deadline().map(CancelToken::with_deadline);
        let failed = std::sync::atomic::AtomicBool::new(false);
        // The scenario fan-out itself takes no token: every scenario runs,
        // and each one observes the deadline inside its own evaluation.
        let results = pool.run_indexed_with(
            self.scenarios.len(),
            None,
            || (),
            |index, ()| {
                if failed.load(std::sync::atomic::Ordering::Relaxed) {
                    return None;
                }
                let start = std::time::Instant::now();
                // Contain panics here, at the scenario boundary: the pool never
                // sees the unwind, so a poisoned scenario cannot take down its
                // siblings or leave the global pool unusable.
                let evaluated =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &token {
                        Some(token) => cancel_scope(token, || self.scenarios[index].evaluate(spec)),
                        None => self.scenarios[index].evaluate(spec),
                    }));
                let elapsed_seconds = start.elapsed().as_secs_f64();
                let outcome = match evaluated {
                    Ok(result) => ScenarioOutcome::Finished(result),
                    Err(payload) => ScenarioOutcome::Panicked {
                        replication: payload
                            .downcast_ref::<WorkUnitPanic>()
                            .map(|wrapped| wrapped.index() as u64),
                        message: panic_message(payload.as_ref()),
                    },
                };
                if abort && outcome.is_fatal() {
                    failed.store(true, std::sync::atomic::Ordering::Relaxed);
                }
                Some((outcome, elapsed_seconds))
            },
        );
        let mut outputs = Vec::with_capacity(results.len());
        let mut failures = Vec::new();
        for (index, result) in results.into_iter().enumerate() {
            let scenario = self.scenarios[index].name();
            match result {
                // Skipped after an earlier abort-policy failure — that
                // failure is in the results and returns below.
                None => {}
                Some((ScenarioOutcome::Finished(Ok(output)), elapsed_seconds)) => {
                    outputs.push(output.with_elapsed_seconds(elapsed_seconds));
                }
                Some((ScenarioOutcome::Finished(Err(error)), elapsed_seconds)) => {
                    // Deadline starvation is never fatal: the deadline is a
                    // study-wide policy doing exactly what it was asked to.
                    if abort && !matches!(error, CfsError::DeadlineExpired { .. }) {
                        return Err(error);
                    }
                    failures.push(ScenarioFailure {
                        scenario: scenario.to_string(),
                        replication: None,
                        message: error.to_string(),
                        elapsed_seconds,
                    });
                }
                Some((ScenarioOutcome::Panicked { replication, message }, elapsed_seconds)) => {
                    if abort {
                        return Err(CfsError::ScenarioPanic {
                            scenario: scenario.to_string(),
                            replication,
                            message,
                        });
                    }
                    failures.push(ScenarioFailure {
                        scenario: scenario.to_string(),
                        replication,
                        message,
                        elapsed_seconds,
                    });
                }
            }
        }
        // Stop the progress line before taking the final snapshot so its
        // last repaint cannot interleave with report rendering.
        drop(progress);
        let mut report = Report::new(spec.clone(), outputs).with_failures(failures);
        if let (Some(config), Some(baseline)) = (telemetry, baseline) {
            let snapshot = probdist::telemetry::snapshot().delta_since(&baseline);
            if let Some(path) = &config.exposition_path {
                snapshot.write_prometheus(path).map_err(|e| CfsError::InvalidConfig {
                    reason: format!("cannot write telemetry exposition file '{path}': {e}"),
                })?;
            }
            report = report.with_telemetry(snapshot);
        }
        Ok(report)
    }
}

/// What one scenario task produced: a normal result, or a contained panic
/// with the replication index (when the unwind carried a
/// [`WorkUnitPanic`]) and its payload as text.
enum ScenarioOutcome {
    Finished(Result<crate::scenario::ScenarioOutput, CfsError>),
    Panicked { replication: Option<u64>, message: String },
}

impl ScenarioOutcome {
    /// Whether this outcome trips the abort policy's fail-fast flag.
    /// Deadline starvation never does — truncation is requested behaviour.
    fn is_fatal(&self) -> bool {
        match self {
            ScenarioOutcome::Finished(Ok(_)) => false,
            ScenarioOutcome::Finished(Err(CfsError::DeadlineExpired { .. })) => false,
            ScenarioOutcome::Finished(Err(_)) | ScenarioOutcome::Panicked { .. } => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::scenario::ScenarioOutput;

    fn quick_spec() -> RunSpec {
        RunSpec::new().with_horizon_hours(2000.0).with_replications(4).with_base_seed(11)
    }

    #[test]
    fn empty_study_is_rejected() {
        assert!(Study::new().run(&quick_spec()).is_err());
        assert!(Study::new().is_empty());
    }

    #[test]
    fn duplicate_scenario_names_are_rejected() {
        let study = Study::new().with(ClusterConfig::petascale()).with(ClusterConfig::petascale());
        let err = study.run(&quick_spec()).unwrap_err();
        assert!(err.to_string().contains("two scenarios named"), "{err}");

        // Distinct names for the same base configuration are fine.
        let mut renamed = ClusterConfig::petascale();
        renamed.name = "petascale-variant".into();
        let study = Study::new().with(ClusterConfig::petascale()).with(renamed);
        assert!(study.run(&quick_spec()).is_ok());
    }

    #[test]
    fn invalid_spec_is_rejected_before_any_work() {
        let study = Study::new().with(ClusterConfig::abe());
        assert!(study.run(&RunSpec::new().with_replications(0)).is_err());
    }

    #[test]
    fn failing_scenario_error_propagates_through_the_pool() {
        struct Failing;
        impl crate::scenario::Scenario for Failing {
            fn name(&self) -> &str {
                "always-fails"
            }
            fn evaluate(&self, _: &RunSpec) -> Result<ScenarioOutput, CfsError> {
                Err(CfsError::InvalidConfig { reason: "deliberate test failure".into() })
            }
        }
        let study = Study::new().with(Failing).with(ClusterConfig::abe());
        for workers in [1, 4] {
            let err = study.run(&quick_spec().with_workers(workers)).unwrap_err();
            assert!(err.to_string().contains("deliberate test failure"), "{err}");
        }
    }

    struct Panicking;
    impl crate::scenario::Scenario for Panicking {
        fn name(&self) -> &str {
            "always-panics"
        }
        fn evaluate(&self, _: &RunSpec) -> Result<ScenarioOutput, CfsError> {
            panic!("deliberate test panic");
        }
    }

    #[test]
    fn panicking_scenario_becomes_a_typed_error_under_abort() {
        let study = Study::new().with(Panicking).with(ClusterConfig::abe());
        for workers in [1, 4] {
            let err = study.run(&quick_spec().with_workers(workers)).unwrap_err();
            match &err {
                CfsError::ScenarioPanic { scenario, message, .. } => {
                    assert_eq!(scenario, "always-panics");
                    assert!(message.contains("deliberate test panic"), "{message}");
                }
                other => panic!("expected ScenarioPanic, got {other}"),
            }
        }
        // The global pool survives the contained panic: the same study
        // minus the poison runs to completion afterwards.
        let report =
            Study::new().with(ClusterConfig::abe()).run(&quick_spec().with_workers(4)).unwrap();
        assert_eq!(report.outputs.len(), 1);
    }

    #[test]
    fn continue_and_report_records_failures_and_keeps_siblings() {
        let study = Study::new().with(Panicking).with(ClusterConfig::abe());
        let spec = quick_spec().with_failure_policy(FailurePolicy::ContinueAndReport);
        let report = study.run(&spec).unwrap();
        assert_eq!(report.outputs.len(), 1, "the healthy scenario still reports");
        assert_eq!(report.outputs[0].scenario, "ABE");
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.scenario, "always-panics");
        assert!(failure.message.contains("deliberate test panic"), "{}", failure.message);
        assert!(failure.elapsed_seconds >= 0.0);
        // Every sink renders the failure.
        assert!(report.to_text().contains("contained failures"));
        assert!(report.to_csv().contains("deliberate test panic"));
        assert!(report.to_json().contains("deliberate test panic"));
    }

    #[test]
    fn deadline_starvation_is_reported_not_aborted() {
        struct Starved;
        impl crate::scenario::Scenario for Starved {
            fn name(&self) -> &str {
                "starved"
            }
            fn evaluate(&self, _: &RunSpec) -> Result<ScenarioOutput, CfsError> {
                Err(CfsError::DeadlineExpired { scenario: "starved".into(), completed: 1 })
            }
        }
        // Even under the default abort policy, deadline starvation is a
        // recorded failure: the study still returns the healthy outputs.
        let report =
            Study::new().with(Starved).with(ClusterConfig::abe()).run(&quick_spec()).unwrap();
        assert_eq!(report.outputs.len(), 1);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].message.contains("deadline expired"));
    }

    #[test]
    fn preset_studies_cover_the_paper() {
        assert_eq!(Study::tables().len(), 5);
        assert_eq!(Study::figures().len(), 3);
        assert_eq!(Study::ablations().len(), 4);
        let all = Study::paper_artefacts();
        assert_eq!(all.len(), 12);
        let names = all.names();
        assert!(names.contains(&"table1_outages"));
        assert!(names.contains(&"figure4_cfs_availability"));
        assert!(names.contains(&"ablation_correlation"));
        assert!(format!("{all:?}").contains("table1_outages"));
    }

    #[test]
    fn study_runs_scenarios_in_order_and_reports_each() {
        let report = Study::new()
            .with(ClusterConfig::abe())
            .with(Table5Parameters)
            .run(&quick_spec())
            .unwrap();
        assert_eq!(report.outputs.len(), 2);
        assert_eq!(report.outputs[0].scenario, "ABE");
        assert_eq!(report.outputs[1].scenario, "table5_parameters");
        assert!(report.output("ABE").is_some());
        assert!(report.output("missing").is_none());
    }
}
