//! Integration tests for rare-event estimation: multilevel splitting
//! (`raidsim::splitting`) running as an ordinary study scenario must
//! produce bit-identical statistics at workers 1, 2, and 8 and surface the
//! rare-event columns in every report format.

use petascale_cfs::prelude::*;

/// A small but real rare-event sweep study: two redundancy schemes whose
/// loss probabilities only splitting can resolve at this effort.
fn rare_study() -> Study {
    Study::new().with(UltraReliableSweep {
        usable_capacity_tb: 1.0,
        schemes: vec![
            RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
            RedundancyScheme::Replication { replicas: 2 },
        ],
        mtbf_khours: vec![5.0],
    })
}

fn splitting_spec(workers: usize) -> RunSpec {
    RunSpec::new()
        .with_horizon_hours(4380.0)
        .with_base_seed(20_080_625)
        .with_workers(workers)
        .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 300 })
}

/// The acceptance property: rare-event studies are bit-identical at
/// workers 1, 2, and 8, in every report format.
#[test]
fn rare_event_studies_are_bit_identical_at_any_worker_count() {
    // Wall-clock timings are stripped — only the statistics must match.
    let serial = rare_study().run(&splitting_spec(1)).unwrap().without_wall_clock();
    for workers in [2, 8] {
        let parallel = rare_study().run(&splitting_spec(workers)).unwrap().without_wall_clock();
        assert_eq!(serial.outputs, parallel.outputs, "workers = {workers}");
        assert_eq!(serial.to_csv(), parallel.to_csv(), "workers = {workers}");
        // The rendered report embeds the spec, whose worker count
        // legitimately differs — re-wrap the parallel outputs with the
        // serial spec and the text/JSON must match bit for bit.
        let rewrapped = Report::new(splitting_spec(1), parallel.outputs);
        assert_eq!(serial.to_text(), rewrapped.to_text(), "workers = {workers}");
        assert_eq!(serial.to_json(), rewrapped.to_json(), "workers = {workers}");
    }
}

/// Adaptive splitting under a precision target is also worker-invariant,
/// and the spent trials are surfaced like any replication count.
#[test]
fn adaptive_rare_event_studies_are_worker_invariant() {
    let spec = |workers: usize| {
        RunSpec::new()
            .with_horizon_hours(4380.0)
            .with_base_seed(7)
            .with_workers(workers)
            .with_precision_target(0.5, 100, 800)
    };
    let study = || {
        Study::new().with(UltraReliableSweep {
            usable_capacity_tb: 1.0,
            schemes: vec![RedundancyScheme::Replication { replicas: 2 }],
            mtbf_khours: vec![5.0],
        })
    };
    let serial = study().run(&spec(1)).unwrap().without_wall_clock();
    for workers in [2, 8] {
        let parallel = study().run(&spec(workers)).unwrap().without_wall_clock();
        assert_eq!(serial.outputs, parallel.outputs, "workers = {workers}");
    }
    let used = serial.outputs[0].replications_used.expect("splitting records trials");
    assert!(used >= 100, "at least the minimum effort is spent, used {used}");
}

/// The report carries the full rare-event vocabulary: estimated
/// probability, relative error, effective sample size, and
/// variance-reduction factor, in all three formats.
#[test]
fn reports_surface_rare_event_statistics() {
    let report = rare_study().run(&splitting_spec(2)).unwrap();
    let output = report.output("ultra_reliable_sweep").unwrap();
    assert!(output.metric("winner_loss_probability_upper").is_some());
    assert!(output.metric("winner_storage_overhead").is_some());

    let text = report.render(ReportFormat::Text);
    for column in
        ["loss_probability", "relative_error", "effective_sample_size", "variance_reduction"]
    {
        assert!(text.contains(column), "text report must mention {column}: {text}");
    }
    let csv = report.render(ReportFormat::Csv);
    assert!(csv.contains("ultra_reliable_sweep,winner_loss_probability_upper"), "{csv}");
    let json = report.render(ReportFormat::Json);
    assert!(json.contains("\"ultra_reliable_sweep\""), "{json}");
    assert!(json.contains("loss_probability"), "{json}");
}
