//! The three workloads — what each runs and at which size — and the timed
//! passes and output checks the benchmark builds from them.

use std::path::{Path, PathBuf};
use std::time::Instant;

use cfs_model::scenario::{
    CorrelationAblation, Figure2StorageAvailability, Figure3DiskReplacements,
    Figure4CfsAvailability, RaidParityAblation, RepairTimeAblation, SpareOssAblation,
    Table1Outages, Table2MountFailures, Table3Jobs, Table4DiskWeibull, Table5Parameters,
};
use cfs_model::{
    BeowulfPerformabilitySweep, CfsError, ClusterConfig, FailurePolicy, RareEventPolicy,
    ReplicationVsRaid, Report, ReportFormat, RunSpec, Scenario, ScenarioOutput, Study,
    TelemetryConfig, TelemetrySnapshot, UltraReliableSweep,
};

use crate::process;

/// Simulated horizon of every replication: one year.
const HORIZON_HOURS: f64 = 8760.0;

/// Relative confidence half-width the precision-targeted workloads aim
/// for, and the bar `targets_met` measures every workload against.
pub const TARGET: f64 = 0.05;

/// Replications of each precision-targeted evaluation before its first
/// precision check.
const MIN_REPLICATIONS: usize = 16;

/// Replication cap of the paper artefacts.
const PAPER_CAP: usize = 4096;

/// Replication (per-level trial) cap of the design-space sweeps.
const DESIGN_CAP: usize = 16_000;

/// Fixed replications of each checkpointed cluster evaluation. Every
/// checkpoint update re-reads and re-parses the whole file, so the cost
/// grows faster than quadratically with this count.
const CHECKPOINT_REPLICATIONS: usize = 200;

/// Completed replications between checkpoint updates.
const CHECKPOINT_EVERY: usize = 25;

/// Replications of the set-up pilot run.
const PILOT_REPLICATIONS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper artefact to a ±5% precision target.
    PaperArtefacts,
    /// The three design-space sweeps under multilevel splitting.
    DesignSpace,
    /// Checkpointed ABE and petascale evaluations: write, then resume.
    CheckpointResume,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::PaperArtefacts, Workload::DesignSpace, Workload::CheckpointResume];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperArtefacts => "paper-artefacts",
            Workload::DesignSpace => "design-space",
            Workload::CheckpointResume => "checkpoint-resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's scenarios, freshly built, in study order.
    fn scenarios(self) -> Vec<Box<dyn Scenario>> {
        match self {
            Workload::PaperArtefacts => vec![
                Box::new(Table1Outages),
                Box::new(Table2MountFailures),
                Box::new(Table3Jobs),
                Box::new(Table4DiskWeibull),
                Box::new(Table5Parameters),
                Box::new(Figure2StorageAvailability::default()),
                Box::new(Figure3DiskReplacements::default()),
                Box::new(Figure4CfsAvailability::default()),
                Box::new(RaidParityAblation),
                Box::new(RepairTimeAblation),
                Box::new(SpareOssAblation),
                Box::new(CorrelationAblation),
            ],
            Workload::DesignSpace => vec![
                Box::new(ReplicationVsRaid::default()),
                Box::new(BeowulfPerformabilitySweep::default()),
                Box::new(UltraReliableSweep::default()),
            ],
            Workload::CheckpointResume => {
                vec![Box::new(ClusterConfig::abe()), Box::new(ClusterConfig::petascale())]
            }
        }
    }

    pub fn scenario_names(self) -> Vec<String> {
        self.scenarios().iter().map(|s| s.name().to_string()).collect()
    }

    /// The study one step of a pass runs. The paper artefacts go through
    /// the library's own preset; its scenario list is pinned by a test.
    fn study(self) -> Study {
        match self {
            Workload::PaperArtefacts => Study::paper_artefacts(),
            _ => study_of(self.scenarios()),
        }
    }

    /// Steps of one pass: checkpoint-resume writes a fresh file, then
    /// resumes from it; the others run their study once.
    fn steps(self) -> usize {
        match self {
            Workload::CheckpointResume => 2,
            _ => 1,
        }
    }
}

fn study_of(scenarios: Vec<Box<dyn Scenario>>) -> Study {
    let mut study = Study::new();
    for scenario in scenarios {
        study.add(scenario);
    }
    study
}

/// Counts attempted and failed scenario evaluations and output checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one output check, reporting a failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Records one evaluation per scenario of `study`; those without an
    /// output in `report` failed.
    fn evaluations(&mut self, study: &Study, report: &Report) {
        self.attempted += study.len() as u64;
        self.failed += study.len().saturating_sub(report.outputs.len()) as u64;
        for failure in &report.failures {
            eprintln!("perfbench: scenario '{}' failed: {}", failure.scenario, failure.message);
        }
    }
}

/// One timed `Study::run` plus rendering through the three sinks.
pub struct Step {
    pub wall_s: f64,
    /// Render times through the text, CSV and JSON sinks.
    pub render_s: [f64; 3],
    pub report: Report,
}

/// One pass over the workload at a fixed worker count.
pub struct Pass {
    pub steps: Vec<Step>,
    /// Process CPU seconds the pass used, across every thread.
    pub cpu_s: f64,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.steps.iter().map(|step| step.wall_s).sum()
    }
}

/// A scenario run alone in a traced study at workers 1.
pub struct ScenarioTrace {
    pub name: String,
    pub wall_s: f64,
    pub telemetry: TelemetrySnapshot,
    /// The scenario's output without wall-clock values.
    pub output: Option<ScenarioOutput>,
}

/// The report's deterministic content as bytes: the three renderings with
/// wall-clock values, the worker count and the telemetry option removed.
/// Two reports of the same work must agree on it byte for byte.
pub fn fingerprint(report: &Report) -> String {
    let mut stripped = report.clone().without_wall_clock();
    stripped.spec = stripped.spec.with_workers(0).without_telemetry();
    stripped.to_text() + &stripped.to_csv() + &stripped.to_json()
}

fn timed_run(study: &Study, spec: &RunSpec) -> Result<Step, CfsError> {
    let start = Instant::now();
    let report = study.run(spec)?;
    let mut render_s = [0.0; 3];
    for (slot, format) in
        render_s.iter_mut().zip([ReportFormat::Text, ReportFormat::Csv, ReportFormat::Json])
    {
        let render = Instant::now();
        std::hint::black_box(report.render(format));
        *slot = render.elapsed().as_secs_f64();
    }
    Ok(Step { wall_s: start.elapsed().as_secs_f64(), render_s, report })
}

/// A workload bound to its checkpoint location.
pub struct Bench {
    pub workload: Workload,
    checkpoint: PathBuf,
    pilot_checkpoint: PathBuf,
}

impl Bench {
    pub fn new(workload: Workload, scratch: &Path) -> Bench {
        Bench {
            workload,
            checkpoint: scratch.join("study.ckpt.json"),
            pilot_checkpoint: scratch.join("pilot.ckpt.json"),
        }
    }

    /// The checkpoint file the last full pass left behind.
    pub fn checkpoint_path(&self) -> &Path {
        &self.checkpoint
    }

    /// The spec of a full pass (or of the set-up pilot) at `workers`.
    fn spec(&self, seed: u64, workers: usize, pilot: bool) -> RunSpec {
        let base = RunSpec::new()
            .with_horizon_hours(HORIZON_HOURS)
            .with_base_seed(seed)
            .with_workers(workers)
            .with_failure_policy(FailurePolicy::ContinueAndReport);
        match (self.workload, pilot) {
            (Workload::PaperArtefacts, false) => {
                base.with_precision_target(TARGET, MIN_REPLICATIONS, PAPER_CAP)
            }
            // Under a precision target the splitting loop doubles its
            // per-level trials up to the cap; the policy's own count is
            // then unused.
            (Workload::DesignSpace, false) => base
                .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 256 })
                .with_precision_target(TARGET, MIN_REPLICATIONS, DESIGN_CAP),
            (Workload::CheckpointResume, false) => base
                .with_replications(CHECKPOINT_REPLICATIONS)
                .with_checkpoint(path_text(&self.checkpoint), CHECKPOINT_EVERY),
            (Workload::PaperArtefacts, true) => base.with_replications(PILOT_REPLICATIONS),
            (Workload::DesignSpace, true) => base
                .with_rare_event(RareEventPolicy::MultilevelSplitting {
                    trials_per_level: PILOT_REPLICATIONS,
                })
                .with_replications(PILOT_REPLICATIONS),
            (Workload::CheckpointResume, true) => base
                .with_replications(PILOT_REPLICATIONS)
                .with_checkpoint(path_text(&self.pilot_checkpoint), 1),
        }
    }

    /// One set-up: build the studies and specs, take both worker pools,
    /// and run every step once at pilot size — the fixed cost of a study
    /// run, paid before anything is timed.
    pub fn setup(&self, seed: u64, tally: &mut Tally) -> Result<(), CfsError> {
        for workers in [1, 2] {
            self.run_pass(&self.spec(seed, workers, true), tally)?;
        }
        Ok(())
    }

    /// One timed pass at `workers`, with telemetry when `traced`.
    pub fn pass(
        &self,
        seed: u64,
        workers: usize,
        traced: bool,
        tally: &mut Tally,
    ) -> Result<Pass, CfsError> {
        let spec = self.spec(seed, workers, false);
        let spec = if traced { spec.with_telemetry(TelemetryConfig::new()) } else { spec };
        self.run_pass(&spec, tally)
    }

    fn run_pass(&self, spec: &RunSpec, tally: &mut Tally) -> Result<Pass, CfsError> {
        fresh_checkpoint(spec)?;
        let cpu_start = process::cpu_seconds();
        let mut steps = Vec::with_capacity(self.workload.steps());
        for _ in 0..self.workload.steps() {
            let study = self.workload.study();
            let step = timed_run(&study, spec)?;
            tally.evaluations(&study, &step.report);
            steps.push(step);
        }
        let cpu_s = process::cpu_seconds() - cpu_start;
        if let [write, resume] = steps.as_slice() {
            tally.check(fingerprint(&write.report) == fingerprint(&resume.report), || {
                format!("resumed report differs from the fresh one at workers {}", spec.workers())
            });
        }
        Ok(Pass { steps, cpu_s })
    }

    /// The workers-1 pass again, each scenario alone in a traced study, so
    /// every counter and span is attributed to one scenario.
    pub fn traced_by_scenario(
        &self,
        seed: u64,
        tally: &mut Tally,
    ) -> Result<Vec<ScenarioTrace>, CfsError> {
        let spec = self.spec(seed, 1, false).with_telemetry(TelemetryConfig::new());
        fresh_checkpoint(&spec)?;
        let mut traces = Vec::new();
        for _ in 0..self.workload.steps() {
            for scenario in self.workload.scenarios() {
                let name = scenario.name().to_string();
                let study = study_of(vec![scenario]);
                let step = timed_run(&study, &spec)?;
                tally.evaluations(&study, &step.report);
                let output =
                    step.report.outputs.first().cloned().map(ScenarioOutput::without_wall_clock);
                let telemetry =
                    step.report.telemetry.expect("a traced study attaches its telemetry");
                traces.push(ScenarioTrace { name, wall_s: step.wall_s, telemetry, output });
            }
        }
        Ok(traces)
    }
}

/// Removes the spec's checkpoint file so the pass writes a fresh one.
fn fresh_checkpoint(spec: &RunSpec) -> Result<(), CfsError> {
    let Some(policy) = spec.checkpoint() else { return Ok(()) };
    match std::fs::remove_file(&policy.path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(CfsError::Checkpoint {
            path: policy.path.clone(),
            reason: format!("cannot remove the previous checkpoint: {e}"),
        }),
        _ => Ok(()),
    }
}

fn path_text(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
            assert!(crate::metrics::valid_name(workload.name()));
        }
        assert_eq!(Workload::parse("paper"), None);
    }

    #[test]
    fn paper_scenarios_match_the_library_preset() {
        let preset = Study::paper_artefacts();
        assert_eq!(Workload::PaperArtefacts.scenario_names(), preset.names());
        for workload in Workload::ALL {
            assert_eq!(workload.study().names(), workload.scenario_names());
        }
    }

    /// A tiny end-to-end pass: Table 5 and a short ABE evaluation at
    /// workers 1 and 2 must fingerprint identically, and the derivations
    /// over the report must be finite.
    #[test]
    fn tiny_passes_agree_across_worker_counts() {
        let study = || Study::new().with(Table5Parameters).with(ClusterConfig::abe());
        let spec = RunSpec::new().with_horizon_hours(500.0).with_replications(4).with_base_seed(9);
        let w1 = timed_run(&study(), &spec.clone().with_workers(1)).unwrap();
        let w2 = timed_run(&study(), &spec.with_workers(2)).unwrap();
        assert_eq!(fingerprint(&w1.report), fingerprint(&w2.report));
        let scaling = crate::metrics::scaling(w1.wall_s, w2.wall_s);
        assert!(scaling.is_finite() && scaling > 0.0);
        let met =
            crate::metrics::targets_met(w1.report.outputs.iter().flat_map(|o| &o.metrics), TARGET)
                .unwrap();
        assert!((0.0..=1.0).contains(&met));
        assert_eq!(w1.report.output("ABE").unwrap().replications_used, Some(4));
    }
}
