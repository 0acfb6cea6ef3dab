//! Chaos-harness integration tests (`cargo test --features chaos`):
//! deterministic, seeded fault injection driven through the full
//! study/report stack.
//!
//! Every scenario here runs with injected panics, stalls, or corrupted
//! (non-finite) rewards, and the suite pins the resilience contract:
//! under `ContinueAndReport` the study always completes, every injected
//! failure surfaces as a *typed* record — never an unwound process, never
//! a wedged worker pool — and a run killed by an injected panic at
//! replication `k` resumes from its checkpoint bit-identically.

#![cfg(feature = "chaos")]

use petascale_cfs::prelude::*;
use petascale_cfs::probdist::chaos;

/// The chaos plan is process-wide, so one test's chaos-off runs must not
/// overlap another test's injection scope: every test holds this lock.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn temp_file(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("cfs-chaos-{}-{tag}.json", std::process::id()));
    path
}

/// Kill-at-k via injected panic, then resume: the checkpoint holds only
/// fully persisted chunks below `k`, and the resumed run renders byte-
/// identical reports to an uninterrupted one, at workers 1, 2, and 8.
#[test]
fn injected_kill_at_k_resumes_bit_identically() {
    let _serial = serial();
    let common = RunSpec::new().with_horizon_hours(1200.0).with_replications(8).with_base_seed(41);

    for workers in [1usize, 2, 8] {
        let path = temp_file(&format!("kill-w{workers}"));
        let _ = std::fs::remove_file(&path);
        let base = common.clone().with_workers(workers);
        let checkpointed = base.clone().with_checkpoint(path.to_str().unwrap(), 2);

        // Uninterrupted reference, no chaos, no checkpoint. Wall-clock
        // timings are stripped — they are nondeterministic by nature.
        let fresh =
            Study::new().with(ClusterConfig::abe()).run(&base).unwrap().without_wall_clock();

        // The "kill": replication 5 panics by injection. The study
        // contains it as a typed error carrying the replication index;
        // the checkpoint keeps the complete chunks persisted before the
        // poisoned one.
        {
            let _chaos = chaos::scoped(chaos::ChaosConfig::new(99).with_panic_on_index(5));
            let err = Study::new().with(ClusterConfig::abe()).run(&checkpointed).unwrap_err();
            match &err {
                CfsError::ScenarioPanic { replication, .. } => {
                    assert_eq!(*replication, Some(5), "workers {workers}");
                }
                other => panic!("expected ScenarioPanic, got {other}"),
            }
        }
        let stored = petascale_cfs::cfs_model::checkpoint::load(&path).unwrap();
        let key = petascale_cfs::cfs_model::checkpoint::entry_key("ABE", 41);
        let prefix = stored.entry(&key).map_or(0, <[_]>::len);
        assert!(prefix < 8, "the poisoned run must not have finished");

        // Resume with chaos off: the stored prefix is served verbatim,
        // the rest simulates, and the report matches the fresh run byte
        // for byte.
        let resumed = Study::new()
            .with(ClusterConfig::abe())
            .run(&checkpointed)
            .unwrap()
            .without_wall_clock();
        assert_eq!(fresh.outputs, resumed.outputs, "workers {workers}");
        let fresh_report = Report::new(common.clone(), fresh.outputs);
        let resumed_report = Report::new(common.clone(), resumed.outputs);
        assert_eq!(fresh_report.to_json(), resumed_report.to_json(), "workers {workers}");
        assert_eq!(fresh_report.to_text(), resumed_report.to_text(), "workers {workers}");
        assert_eq!(fresh_report.to_csv(), resumed_report.to_csv(), "workers {workers}");

        std::fs::remove_file(&path).unwrap();
    }
}

/// Under `ContinueAndReport`, a study riddled with injected panics and
/// stalls still completes: every scenario either reports an output or a
/// typed failure, and the worker pool stays usable afterwards.
#[test]
fn continue_and_report_completes_under_injected_faults() {
    let _serial = serial();
    let spec = RunSpec::new()
        .with_horizon_hours(1500.0)
        .with_replications(6)
        .with_base_seed(17)
        .with_workers(4)
        .with_failure_policy(FailurePolicy::ContinueAndReport);
    let scenario_count = 3;
    let report = {
        let _chaos = chaos::scoped(
            chaos::ChaosConfig::new(7)
                .with_panic_probability(0.25)
                .with_stall(0.1, std::time::Duration::from_millis(1)),
        );
        Study::new()
            .with(ClusterConfig::abe())
            .with(ClusterConfig::petascale())
            .with(ClusterConfig::scaled_to_capacity(500.0).unwrap())
            .run(&spec)
            .unwrap()
    };
    assert_eq!(report.outputs.len() + report.failures.len(), scenario_count);
    for failure in &report.failures {
        assert!(!failure.message.is_empty());
        assert!(failure.replication.is_some(), "injected panics carry their index");
    }
    // The chaos decisions are a pure function of (seed, site, index), so
    // the same scoped config reproduces the same failure set.
    let replay = {
        let _chaos = chaos::scoped(
            chaos::ChaosConfig::new(7)
                .with_panic_probability(0.25)
                .with_stall(0.1, std::time::Duration::from_millis(1)),
        );
        Study::new()
            .with(ClusterConfig::abe())
            .with(ClusterConfig::petascale())
            .with(ClusterConfig::scaled_to_capacity(500.0).unwrap())
            .run(&spec)
            .unwrap()
    };
    assert_eq!(
        report.clone().without_wall_clock().outputs,
        replay.clone().without_wall_clock().outputs
    );
    assert_eq!(
        report.failures.iter().map(|f| (&f.scenario, f.replication)).collect::<Vec<_>>(),
        replay.failures.iter().map(|f| (&f.scenario, f.replication)).collect::<Vec<_>>()
    );
    // Pool still healthy with chaos off.
    let clean = Study::new().with(ClusterConfig::abe()).run(&spec).unwrap();
    assert_eq!(clean.outputs.len(), 1);
    assert!(clean.failures.is_empty());
}

/// Injected non-finite rewards surface as a typed failure naming the
/// poisoned reward — the statistics layer refuses to average NaNs into a
/// silently-wrong report.
#[test]
fn corrupted_rewards_become_typed_failures() {
    let _serial = serial();
    let spec = RunSpec::new()
        .with_horizon_hours(1000.0)
        .with_replications(4)
        .with_base_seed(23)
        .with_failure_policy(FailurePolicy::ContinueAndReport);
    let report = {
        let _chaos = chaos::scoped(chaos::ChaosConfig::new(3).with_nan_probability(1.0));
        Study::new().with(ClusterConfig::abe()).run(&spec).unwrap()
    };
    assert!(report.outputs.is_empty());
    assert_eq!(report.failures.len(), 1);
    let failure = &report.failures[0];
    assert!(failure.message.contains("non-finite"), "{}", failure.message);
    // And the report sinks render the failure without choking on it.
    assert!(report.to_json().contains("non-finite"));
    assert!(report.to_csv().contains("non-finite"));
}
