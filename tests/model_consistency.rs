//! Integration test: cross-crate consistency between the analytic RAID
//! model, the Monte-Carlo storage simulator, the SAN-engine cluster model,
//! and the statistics layer.

use petascale_cfs::prelude::*;
use petascale_cfs::raidsim::analytic::{system_data_loss_probability, tier_mttdl};
use petascale_cfs::raidsim::replacement::{steady_state_replacements_per_week, ReplacementCurve};
use petascale_cfs::sanet::reward::RewardSpec;
use petascale_cfs::sanet::Experiment;

fn fixed(replications: usize) -> StoppingRule {
    StoppingRule::fixed(replications).unwrap()
}

/// The SAN engine and a hand-built analytic result must agree: a single
/// repairable component with exponential failure/repair has availability
/// μ/(λ+μ).
#[test]
fn san_engine_matches_birth_death_availability() {
    let mut builder = ModelBuilder::new("unit");
    let up = builder.add_place("up", 1).unwrap();
    let down = builder.add_place("down", 0).unwrap();
    builder
        .timed_activity("fail", Exponential::from_mean(500.0).unwrap())
        .unwrap()
        .input_arc(up, 1)
        .output_arc(down, 1)
        .build()
        .unwrap();
    builder
        .timed_activity("repair", Exponential::from_mean(20.0).unwrap())
        .unwrap()
        .input_arc(down, 1)
        .output_arc(up, 1)
        .build()
        .unwrap();
    let model = builder.build().unwrap();

    let mut experiment = Experiment::new(model, 200_000.0);
    experiment.add_reward(RewardSpec::time_averaged_rate("avail", move |m| {
        if m.tokens(up) > 0 {
            1.0
        } else {
            0.0
        }
    }));
    let summary = experiment.run(&fixed(32), 99).unwrap();
    let expected = 500.0 / 520.0;
    let estimate = summary.reward("avail").unwrap();
    assert!(
        (estimate.interval.point - expected).abs() < 0.005,
        "simulated {} vs analytic {expected}",
        estimate.interval.point
    );
}

/// The Monte-Carlo storage simulator and the closed-form MTTDL agree on the
/// probability of any data loss for exponential disks.
#[test]
fn storage_monte_carlo_matches_analytic_data_loss_probability() {
    let geometry = RaidGeometry { data_disks: 4, parity_disks: 1 };
    let mtbf = 5_000.0;
    let repair = 48.0;
    let tiers = 200;
    let mission = 8760.0;

    let config = StorageConfig {
        ddn_units: 1,
        tiers,
        geometry,
        disk: DiskModel { weibull_shape: 1.0, mtbf_hours: mtbf, capacity_gb: 250.0 },
        replacement_hours: repair,
        rebuild_hours: 0.0,
        data_loss_recovery_hours: 24.0,
        controllers: None,
    };
    let summary =
        StorageSimulator::new(config).unwrap().run(mission, &fixed(48), 7, 0.95, 0).unwrap();
    let analytic = system_data_loss_probability(tiers, geometry, mtbf, repair, mission).unwrap();
    assert!(
        (summary.prob_any_data_loss - analytic).abs() < 0.15,
        "monte carlo {} vs analytic {analytic}",
        summary.prob_any_data_loss
    );
    // And the per-tier MTTDL must be far larger than a tier's disk MTBF.
    assert!(tier_mttdl(geometry, mtbf, repair).unwrap() > mtbf);
}

/// The analytic replacement-rate model, the storage Monte-Carlo, and the
/// long-run renewal rate all tell the same story for the ABE configuration.
#[test]
fn replacement_rate_models_agree_for_abe() {
    let config = StorageConfig::abe_scratch();
    let disk = config.disk;
    let disks = config.total_disks();
    let mission = 8760.0;

    let simulated =
        StorageSimulator::new(config).unwrap().run(mission, &fixed(24), 13, 0.95, 0).unwrap();
    let analytic = ReplacementCurve::new(&disk, mission).unwrap().per_week(disks);
    let steady = steady_state_replacements_per_week(disks, &disk).unwrap();

    // Renewal analysis sits above the long-run rate (infant mortality) and
    // close to the Monte-Carlo estimate.
    assert!(analytic >= steady);
    assert!(
        (simulated.replacements_per_week.point - analytic).abs() < 0.6,
        "monte carlo {} vs renewal {analytic}",
        simulated.replacements_per_week.point
    );
}

/// The composed cluster model's storage-availability reward agrees with the
/// dedicated storage simulator for the ABE configuration (both ≈ 1).
#[test]
fn cluster_model_and_raidsim_agree_on_abe_storage_availability() {
    let cluster = evaluate(
        &ClusterConfig::abe(),
        &RunSpec::new().with_horizon_hours(8760.0).with_replications(12).with_base_seed(31),
    )
    .unwrap();
    let storage = StorageSimulator::new(StorageConfig::abe_scratch())
        .unwrap()
        .run(8760.0, &fixed(12), 31, 0.95, 0)
        .unwrap();
    assert!(cluster.storage_availability.point > 0.9999);
    assert!(storage.availability.point > 0.9999);
    assert!((cluster.storage_availability.point - storage.availability.point).abs() < 1e-3);
}
