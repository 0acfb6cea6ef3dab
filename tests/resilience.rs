//! Integration tests for the resilience layer: panic containment at the
//! scenario boundary, checkpoint/resume bit-identity at several worker
//! counts, deadline-driven graceful degradation, and the failure policies
//! that govern them.
//!
//! The central guarantees pinned here:
//!
//! * a panicking scenario never takes down the process, the global worker
//!   pool, or its sibling scenarios — it becomes a typed
//!   `CfsError::ScenarioPanic` (abort policy) or a `ScenarioFailure`
//!   record (continue policy);
//! * a run killed after `k` replications and resumed from its checkpoint
//!   produces byte-identical reports to an uninterrupted run, at any
//!   worker count, because replication `i` is a pure function of
//!   `(base seed, i)` and the stored f64s round-trip exactly;
//! * when a deadline expires, completed replications still yield valid
//!   statistics and the report flags the truncation.

use std::time::Duration;

use petascale_cfs::prelude::*;

fn temp_file(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("cfs-resilience-{}-{tag}.json", std::process::id()));
    path
}

fn quick_spec() -> RunSpec {
    RunSpec::new().with_horizon_hours(2000.0).with_replications(4).with_base_seed(31)
}

struct Panicking;
impl Scenario for Panicking {
    fn name(&self) -> &str {
        "poison"
    }
    fn evaluate(&self, _: &RunSpec) -> Result<ScenarioOutput, CfsError> {
        panic!("injected poison");
    }
}

/// A poisoned fan-out must leave `Pool::global` fully usable: after a
/// study aborts on a contained panic, subsequent studies on the same
/// process-wide pool complete normally at every worker count.
#[test]
fn global_pool_survives_poisoned_scenarios() {
    for workers in [1, 2, 8] {
        let spec = quick_spec().with_workers(workers);
        let err = Study::new().with(Panicking).with(ClusterConfig::abe()).run(&spec).unwrap_err();
        assert!(
            matches!(err, CfsError::ScenarioPanic { .. }),
            "worker count {workers}: expected ScenarioPanic, got {err}"
        );
        // The pool the panic crossed is the one this study reuses.
        let report = Study::new().with(ClusterConfig::abe()).run(&spec).unwrap();
        assert_eq!(report.outputs.len(), 1, "worker count {workers}");
        assert!(report.failures.is_empty());
    }
}

/// Under `ContinueAndReport` the poisoned scenario is a report record and
/// every sibling still contributes its output — rendered identically at
/// any worker count.
#[test]
fn continue_and_report_is_deterministic_across_worker_counts() {
    let render = |workers: usize| {
        let spec = quick_spec()
            .with_workers(workers)
            .with_failure_policy(FailurePolicy::ContinueAndReport);
        let report = Study::new()
            .with(Panicking)
            .with(ClusterConfig::abe())
            .with(ClusterConfig::petascale())
            .run(&spec)
            .unwrap();
        assert_eq!(report.outputs.len(), 2);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].scenario, "poison");
        // Elapsed time is wall-clock noise, and the spec embeds the worker
        // count: zero the former and re-wrap under a common spec before
        // comparing renders across worker counts.
        let mut failures = report.failures;
        failures[0].elapsed_seconds = 0.0;
        let stable =
            Report::new(quick_spec(), report.outputs).with_failures(failures).without_wall_clock();
        (stable.to_text(), stable.to_csv(), stable.to_json())
    };
    let serial = render(1);
    assert_eq!(serial, render(2));
    assert_eq!(serial, render(8));
}

/// Checkpoint kill-at-k/resume determinism: run the first `k`
/// replications into a checkpoint (simulating a run killed at `k`), then
/// resume the full budget from that file. The resumed report must be
/// byte-identical to an uninterrupted run — at workers 1, 2, and 8.
#[test]
fn killed_and_resumed_runs_render_byte_identical_reports() {
    let scenario = || ClusterConfig::petascale();
    let common = RunSpec::new().with_horizon_hours(1500.0).with_replications(8).with_base_seed(77);

    for workers in [1usize, 2, 8] {
        let path = temp_file(&format!("resume-w{workers}"));
        let _ = std::fs::remove_file(&path);
        let base = common.clone().with_workers(workers);

        // The uninterrupted reference run (no checkpoint at all). Strip the
        // wall-clock timings: they are the one legitimately nondeterministic
        // part of a report.
        let fresh = Study::new().with(scenario()).run(&base).unwrap().without_wall_clock();

        // "Kill at k": a run with the same seed but only k replications,
        // checkpointing every 2 — the file now holds the k-replication
        // prefix an interrupted full run would have persisted.
        let k = 5;
        let killed = base.clone().with_replications(k).with_checkpoint(path.to_str().unwrap(), 2);
        Study::new().with(scenario()).run(&killed).unwrap();

        // Resume the full budget from the checkpoint.
        let resumed_spec = base.clone().with_checkpoint(path.to_str().unwrap(), 2);
        let resumed =
            Study::new().with(scenario()).run(&resumed_spec).unwrap().without_wall_clock();

        // The spec differs only by the checkpoint policy, which is not a
        // statistic: compare the outputs re-wrapped under a common spec.
        assert_eq!(fresh.outputs, resumed.outputs, "workers {workers}");
        let fresh_report = Report::new(common.clone(), fresh.outputs);
        let resumed_report = Report::new(common.clone(), resumed.outputs);
        assert_eq!(fresh_report.to_text(), resumed_report.to_text(), "workers {workers}");
        assert_eq!(fresh_report.to_csv(), resumed_report.to_csv(), "workers {workers}");
        assert_eq!(fresh_report.to_json(), resumed_report.to_json(), "workers {workers}");

        std::fs::remove_file(&path).unwrap();
    }
}

/// The stored values are actually *used* on resume (not silently
/// re-simulated): tampering with one persisted reward changes the resumed
/// result.
#[test]
fn resume_reads_the_stored_values_not_the_simulator() {
    use petascale_cfs::cfs_model::checkpoint;

    let path = temp_file("tamper");
    let _ = std::fs::remove_file(&path);
    let spec = RunSpec::new()
        .with_horizon_hours(1000.0)
        .with_replications(4)
        .with_base_seed(5)
        .with_checkpoint(path.to_str().unwrap(), 4);
    let abe = ClusterConfig::abe();
    let honest = evaluate(&abe, &spec).unwrap();

    // Rewrite replication 0's rewards through the checkpoint API (keeping
    // the checksum valid) and re-evaluate.
    let mut data = checkpoint::load(&path).unwrap();
    let key = checkpoint::entry_key("ABE", 5);
    let mut runs = data.entry(&key).unwrap().to_vec();
    for (_, value) in &mut runs[0].rewards {
        *value *= 0.5;
    }
    data.set_entry(&key, runs);
    checkpoint::store(&path, &data).unwrap();

    let tampered = evaluate(&abe, &spec).unwrap();
    assert_ne!(honest, tampered, "resume must consume the stored prefix");
    std::fs::remove_file(&path).unwrap();
}

/// A corrupt checkpoint file is a typed error, not a panic and not a
/// silent restart.
#[test]
fn corrupt_checkpoint_is_a_typed_error() {
    let path = temp_file("corrupt");
    std::fs::write(&path, "{\"format\": \"cfs-study-chec").unwrap();
    let spec = quick_spec().with_checkpoint(path.to_str().unwrap(), 2);
    let err = evaluate(&ClusterConfig::abe(), &spec).unwrap_err();
    assert!(matches!(err, CfsError::Checkpoint { .. }), "{err}");
    std::fs::remove_file(&path).unwrap();
}

/// Deadline-driven graceful degradation: an expired deadline mid-run
/// yields valid statistics over the completed prefix, with the report
/// flagging the truncation and the replication count actually used.
#[test]
fn expired_deadline_truncates_to_a_valid_prefix() {
    // A deadline that can fit a handful of replications but not 10 000 of
    // them. In-flight batches finish, so the evaluation returns whatever
    // contiguous prefix completed before the clock ran out. The test
    // profile is optimised: 10 000 replications take about 0.25 s at two
    // workers on a 2-vCPU host, so the deadline sits well below that.
    let spec = RunSpec::new()
        .with_horizon_hours(8760.0)
        .with_replications(10_000)
        .with_base_seed(13)
        .with_workers(2)
        .with_deadline(Duration::from_millis(30));
    match evaluate(&ClusterConfig::abe(), &spec) {
        Ok(result) => {
            assert!(result.truncated, "10k replications cannot finish in 30 ms");
            assert!(result.replications >= 2);
            assert!(result.replications < 10_000);
            assert!(result.cfs_availability.point > 0.9);

            // The scenario layer propagates the flag into the report.
            let output = ClusterConfig::abe().evaluate(&spec).unwrap();
            assert!(output.truncated);
            let report = Report::new(spec.clone(), vec![output]);
            assert!(report.to_text().contains("TRUNCATED"));
            assert!(report.to_csv().contains("truncated,true"));
        }
        // On a pathologically slow machine fewer than two replications
        // may finish: that is the typed starvation error, not a panic.
        Err(err) => assert!(matches!(err, CfsError::DeadlineExpired { .. }), "{err}"),
    }
}

/// A study whose deadline starves some scenario still reports the healthy
/// ones: starvation is a recorded failure even under the abort policy.
#[test]
fn deadline_starved_study_still_reports_completed_scenarios() {
    let spec = quick_spec()
        .with_workers(2)
        .with_replications(10_000)
        .with_horizon_hours(8760.0)
        .with_deadline(Duration::from_millis(200));
    let report = Study::new()
        .with(ClusterConfig::abe())
        .with(ClusterConfig::petascale())
        .run(&spec)
        .unwrap();
    // Every scenario either produced a (possibly truncated) output or a
    // DeadlineExpired failure — never an abort, never a panic.
    assert_eq!(report.outputs.len() + report.failures.len(), 2);
    for failure in &report.failures {
        assert!(failure.message.contains("deadline expired"), "{}", failure.message);
    }
    for output in &report.outputs {
        assert!(output.replications_used.is_some());
    }
}
