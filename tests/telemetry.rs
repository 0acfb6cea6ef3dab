//! Integration tests for the telemetry layer: deterministic counters are
//! worker-count-invariant, statistics are bit-identical with telemetry on
//! or off, the report carries and renders the snapshot in every sink, and
//! (in release builds) the enabled-telemetry kernel throughput stays
//! within 2 % of the uninstrumented baseline.

use std::sync::{Mutex, MutexGuard, PoisonError};

use petascale_cfs::cfs_model::{ClusterConfig, Report, RunSpec, Study, TelemetryConfig};
use petascale_cfs::probdist::telemetry;

/// Telemetry state is process-global: every test that enables it (directly
/// or through a spec's [`TelemetryConfig`]) serialises on this lock so
/// concurrent test threads cannot bleed counters into each other's deltas.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn telemetry_lock() -> MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spec(workers: usize) -> RunSpec {
    RunSpec::new()
        .with_horizon_hours(2000.0)
        .with_replications(6)
        .with_base_seed(20_080_625)
        .with_workers(workers)
        .with_telemetry(TelemetryConfig::new())
}

/// The deterministic subset of a report's telemetry attachment: every
/// sample whose schema tags it `deterministic`, in registry order.
fn deterministic_samples(report: &Report) -> Vec<(String, f64)> {
    report
        .telemetry
        .as_ref()
        .expect("telemetry-enabled run attaches a snapshot")
        .samples
        .iter()
        .filter(|sample| sample.determinism == "deterministic")
        .map(|sample| (sample.name.clone(), sample.value))
        .collect()
}

/// The acceptance property: counters tagged deterministic — events fired,
/// re-examinations, restarts, missions, replication counts — are
/// bit-identical at workers 1, 2, and 8, because replication `i` is a pure
/// function of `(seed, i)` no matter which worker claims it.
#[test]
fn deterministic_counters_are_worker_count_invariant() {
    let _guard = telemetry_lock();
    let run = |workers| Study::new().with(ClusterConfig::abe()).run(&spec(workers)).unwrap();
    let serial = run(1);
    let reference = deterministic_samples(&serial);
    assert!(!reference.is_empty());
    let snapshot = serial.telemetry.as_ref().unwrap();
    let events = snapshot.get("san_events_fired_total").unwrap().value;
    assert!(events > 0.0, "the kernel must have recorded fired events");
    let completed = snapshot.get("replications_completed_total").unwrap().value;
    assert!(completed >= 6.0, "all replications must be counted, got {completed}");
    for workers in [2, 8] {
        let parallel = run(workers);
        assert_eq!(reference, deterministic_samples(&parallel), "workers {workers}");
    }
}

/// Telemetry never touches the statistics: the same study produces
/// bit-identical outputs with the instrumentation enabled or disabled, at
/// every worker count.
#[test]
fn statistics_are_bit_identical_with_telemetry_on_or_off() {
    let _guard = telemetry_lock();
    for workers in [1, 2, 8] {
        let on = Study::new().with(ClusterConfig::abe()).run(&spec(workers)).unwrap();
        let off = Study::new()
            .with(ClusterConfig::abe())
            .run(&spec(workers).without_telemetry())
            .unwrap();
        assert!(on.telemetry.is_some());
        assert!(off.telemetry.is_none());
        assert_eq!(
            on.without_wall_clock().outputs,
            off.without_wall_clock().outputs,
            "workers {workers}"
        );
    }
}

/// The snapshot rides the report through all three sinks, and the
/// per-scenario elapsed time renders alongside it.
#[test]
fn report_renders_telemetry_and_elapsed_in_every_sink() {
    let _guard = telemetry_lock();
    let report = Study::new().with(ClusterConfig::abe()).run(&spec(2)).unwrap();

    let text = report.to_text();
    assert!(text.contains("==== telemetry ===="), "{text}");
    assert!(text.contains("san_events_fired_total"), "{text}");
    assert!(text.contains("elapsed: "), "{text}");

    let csv = report.to_csv();
    assert!(csv.contains("_telemetry,san_events_fired_total"), "{csv}");
    assert!(csv.contains(",elapsed_seconds,"), "{csv}");

    let json = report.to_json();
    assert!(json.contains("\"telemetry\""), "missing telemetry key");
    assert!(json.contains("san_events_fired_total"), "missing samples");
    assert!(json.contains("\"elapsed_seconds\""), "missing elapsed field");

    // Stripping the wall-clock artefacts removes all of it.
    let stripped = report.without_wall_clock();
    assert!(stripped.telemetry.is_none());
    assert!(stripped.outputs.iter().all(|o| o.elapsed_seconds.is_none()));
}

/// `exposition_path` writes a Prometheus-style text file atomically at the
/// end of the run.
#[test]
fn exposition_path_writes_a_prometheus_file() {
    let _guard = telemetry_lock();
    let mut path = std::env::temp_dir();
    path.push(format!("cfs-telemetry-expo-{}.prom", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let config = TelemetryConfig::new().with_exposition_path(path.to_str().unwrap());
    let report =
        Study::new().with(ClusterConfig::abe()).run(&spec(2).with_telemetry(config)).unwrap();
    assert!(report.telemetry.is_some());
    let body = std::fs::read_to_string(&path).unwrap();
    assert!(body.contains("# TYPE"), "{body}");
    assert!(body.contains("replications_completed_total"), "{body}");
    std::fs::remove_file(&path).unwrap();
}

/// Without a spec-level config the instrumentation is a functional no-op:
/// a full study run moves no counter at all.
#[test]
fn disabled_telemetry_records_nothing() {
    let _guard = telemetry_lock();
    let before = telemetry::counter_value(telemetry::MetricId::SanEventsFired);
    let report = Study::new().with(ClusterConfig::abe()).run(&spec(2).without_telemetry()).unwrap();
    assert!(report.telemetry.is_none());
    let after = telemetry::counter_value(telemetry::MetricId::SanEventsFired);
    assert_eq!(before, after, "disabled telemetry must record nothing");
}

/// Best-of-N kernel throughput (events simulated per second) for one fixed
/// workload, with the telemetry accumulators enabled or disabled.
#[cfg(not(debug_assertions))]
fn kernel_events_per_sec(telemetry_on: bool, trials: usize) -> f64 {
    use petascale_cfs::sanet::Experiment;

    let built = petascale_cfs::cfs_model::build_built_in("abe").unwrap();
    let experiment = Experiment::new(built.model, 4000.0);
    let guard = telemetry_on.then(telemetry::enable_scoped);
    let mut best = 0.0f64;
    for _ in 0..trials {
        let start = std::time::Instant::now();
        let runs = experiment.run_raw(0..16, 11, None).unwrap();
        let events: u64 = runs.iter().map(|r| r.events).sum();
        best = best.max(events as f64 / start.elapsed().as_secs_f64());
    }
    drop(guard);
    best
}

/// The release-mode overhead gate: with telemetry enabled, the kernel's
/// best-of-N events/s stays within 2 % of the uninstrumented baseline.
/// (Debug builds skip the gate — unoptimised counters are not the shipped
/// configuration.)
#[cfg(not(debug_assertions))]
#[test]
fn enabled_telemetry_overhead_stays_under_two_percent() {
    let _guard = telemetry_lock();
    // Warm both paths first so neither side pays one-time costs (thread
    // shard registration, page faults) inside the measured window.
    kernel_events_per_sec(true, 1);
    kernel_events_per_sec(false, 1);
    let off = kernel_events_per_sec(false, 5);
    let on = kernel_events_per_sec(true, 5);
    assert!(
        on >= off * 0.98,
        "telemetry overhead exceeds 2%: {off:.0} events/s disabled vs {on:.0} enabled"
    );
}
