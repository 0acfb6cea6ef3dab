//! Telemetry smoke: the metrics layer enabled end to end at scale.
//!
//! Two arms, both asserted:
//!
//! 1. A **million-replication** repairable-unit experiment through
//!    [`sanet::Experiment`] with the sharded accumulators live — the
//!    deterministic counters must account for every replication.
//! 2. A full [`Study`] run with a spec-level [`TelemetryConfig`]: live
//!    progress on stderr, the snapshot attached to the report, and the
//!    Prometheus exposition file written at quiesce.
//!
//! Writes `telemetry.json` (snapshot document) and `telemetry.prom`
//! (exposition) into the working directory; CI archives both as the
//! telemetry artifact. `CFS_SMOKE_REPLICATIONS` scales the first arm down
//! for quick local runs.
//!
//! Run with `cargo run --release --example telemetry_smoke`.

use petascale_cfs::prelude::*;
use petascale_cfs::probdist::telemetry;
use petascale_cfs::sanet::RewardSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- arm 1: million-replication kernel smoke ---------------------
    let replications: usize = std::env::var("CFS_SMOKE_REPLICATIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(1_000_000);

    let mut builder = ModelBuilder::new("unit");
    let up = builder.add_place("up", 1)?;
    let down = builder.add_place("down", 0)?;
    builder
        .timed_activity("fail", Exponential::from_mean(1_000.0)?)?
        .input_arc(up, 1)
        .output_arc(down, 1)
        .build()?;
    builder
        .timed_activity("repair", Exponential::from_mean(10.0)?)?
        .input_arc(down, 1)
        .output_arc(up, 1)
        .build()?;
    let model = builder.build()?;

    let mut experiment = Experiment::new(model, 10_000.0);
    experiment.add_reward(RewardSpec::time_averaged_rate("avail", move |m| {
        if m.tokens(up) > 0 {
            1.0
        } else {
            0.0
        }
    }));
    experiment.set_workers(0); // ambient pool / available parallelism

    let guard = telemetry::enable_scoped();
    let baseline = telemetry::snapshot();
    let start = std::time::Instant::now();
    let summary = experiment.run(&StoppingRule::fixed(replications)?, 20_080_625)?;
    let elapsed = start.elapsed().as_secs_f64();
    let delta = telemetry::snapshot().delta_since(&baseline);
    drop(guard);

    assert_eq!(summary.replications, replications);
    let completed = delta.get("replications_completed_total").expect("counter registered").value;
    assert!(
        (completed - replications as f64).abs() < 0.5,
        "every replication must be counted: {completed} vs {replications}"
    );
    let events = delta.get("san_events_fired_total").expect("counter registered").value;
    assert!(events > 0.0, "the kernel must record fired events");
    println!(
        "telemetry smoke arm 1: {replications} replications in {elapsed:.2} s \
         ({:.0} replications/s), {events:.0} kernel events counted",
        replications as f64 / elapsed
    );

    // ---- arm 2: study pipeline with progress + exposition ------------
    let config = TelemetryConfig::new()
        .with_progress()
        .with_progress_interval_ms(250)
        .with_exposition_path("telemetry.prom");
    let spec = RunSpec::new()
        .with_horizon_hours(8760.0)
        .with_replications(2_000)
        .with_base_seed(42)
        .with_workers(4)
        .with_telemetry(config);
    let report = Study::new().with(ClusterConfig::abe()).run(&spec)?;
    let snapshot = report.telemetry.as_ref().expect("telemetry-enabled run attaches a snapshot");
    assert!(snapshot.get("replications_completed_total").is_some());

    std::fs::write("telemetry.json", snapshot.to_json())?;
    let exposition = std::fs::read_to_string("telemetry.prom")?;
    assert!(exposition.contains("# TYPE"), "exposition file must be Prometheus-style");
    println!(
        "telemetry smoke arm 2: study attached {} samples; wrote telemetry.json and \
         telemetry.prom",
        snapshot.samples.len()
    );
    Ok(())
}
