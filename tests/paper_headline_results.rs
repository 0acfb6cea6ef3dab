//! Integration test: the paper's headline quantitative claims, checked
//! end-to-end through the public API of the umbrella crate.
//!
//! These are *shape* checks (who wins, in which direction, by roughly what
//! factor), not exact number matches — the substrate is a reimplemented
//! simulator, not the authors' Möbius models or the NCSA testbed.

use petascale_cfs::cfs_model::scenario::{Figure2StorageAvailability, Figure4CfsAvailability};
use petascale_cfs::prelude::*;

const YEAR_HOURS: f64 = 8760.0;

fn fixed(replications: usize) -> StoppingRule {
    StoppingRule::fixed(replications).unwrap()
}

fn spec(replications: usize, seed: u64) -> RunSpec {
    RunSpec::new()
        .with_horizon_hours(YEAR_HOURS)
        .with_replications(replications)
        .with_base_seed(seed)
}

/// Section 5.1 / Figure 2: at ABE scale every disk configuration yields
/// essentially 100 % storage availability, and RAID6 keeps the ABE
/// configuration near-perfect even at petascale.
#[test]
fn figure2_shape_raid6_masks_disk_failures() {
    let output = Figure2StorageAvailability { capacities_tb: vec![96.0, 12_288.0] }
        .evaluate(&spec(10, 11))
        .expect("figure 2 sweep runs");
    let abe_scale: Vec<&Metric> = output
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("availability ") && m.name.ends_with(" @96TB"))
        .collect();
    assert_eq!(abe_scale.len(), 5, "one ABE-scale point per series");
    for metric in abe_scale {
        assert!(metric.value > 0.999, "ABE-scale availability must be ~1 for {}", metric.name);
    }
    // The ABE configuration (0.7, 2.92 %) stays above the pessimistic
    // (0.6, 8.76 %) configuration at petascale.
    let abe = output.metric("availability (0.7,2.92,8+2,4) @12288TB").unwrap();
    let pessimistic = output.metric("availability (0.6,8.76,8+2,4) @12288TB").unwrap();
    assert!(abe >= pessimistic, "better disks must not be worse at petascale");
}

/// Section 5.1: the (8+3) Blue Waters geometry loses no more data than
/// (8+2) under identical pessimistic disks at petascale.
#[test]
fn eight_plus_three_is_at_least_as_good_as_eight_plus_two() {
    let disk = DiskModel { weibull_shape: 0.6, mtbf_hours: 60_000.0, capacity_gb: 250.0 };
    let mut base = StorageConfig::abe_scratch();
    base.tiers = 960;
    base.ddn_units = 20;
    base.disk = disk;
    base.replacement_hours = 12.0;
    let mut plus3 = base.clone();
    plus3.geometry = RaidGeometry::raid_8p3();

    let a2 = StorageSimulator::new(base).unwrap().run(YEAR_HOURS, &fixed(12), 3, 0.95, 0).unwrap();
    let a3 = StorageSimulator::new(plus3).unwrap().run(YEAR_HOURS, &fixed(12), 3, 0.95, 0).unwrap();
    assert!(a3.data_loss_events.point <= a2.data_loss_events.point);
    assert!(a3.availability.point >= a2.availability.point - 1e-6);
}

/// Section 5.2 / Figure 4: CFS availability declines as the system scales
/// (0.972 → 0.909 in the paper), storage availability stays ≈ 1, CU sits
/// below CFS availability, and a standby spare OSS recovers part of the
/// loss.
#[test]
fn figure4_shape_cfs_availability_declines_with_scale() {
    let output = Figure4CfsAvailability { capacities_tb: vec![96.0, 12_288.0] }
        .evaluate(&spec(12, 19))
        .expect("figure 4 sweep runs");
    let abe = output.metric("cfs_availability_first").unwrap();
    let peta = output.metric("cfs_availability_last").unwrap();
    // Storage availability and the ABE-scale CU have no metric; read the
    // table's 4-decimal `point ±half-width` cells.
    let table = &output.tables[0];
    let cell = |row: usize, column: &str| -> f64 {
        let column = table.headers().iter().position(|h| h == column).unwrap();
        table.rows()[row][column].split(' ').next().unwrap().parse().unwrap()
    };

    assert!(abe > 0.95 && abe < 0.995);
    assert!(peta < abe - 0.03);
    assert!(peta > 0.85);
    assert!(cell(0, "Storage-availability") > 0.999 && cell(1, "Storage-availability") > 0.999);
    assert!(cell(0, "CU") <= cell(0, "CFS-Availability"));
    assert!(output.metric("cluster_utility_last").unwrap() < peta);
    assert!(output.metric("spare_oss_gain_last").unwrap() > 0.005);
}

/// Table 1 + Section 5.2: the simulated ABE CFS availability matches the
/// availability measured from the (synthetic) outage log within a couple of
/// percentage points — the calibration argument the paper uses to trust its
/// petascale extrapolation.
#[test]
fn simulated_abe_availability_matches_log_measurement() {
    let log = LogGenerator::new(LogGenConfig::abe_calibrated()).generate(3).unwrap();
    let measured = OutageAnalysis::from_log(&log).unwrap().availability();
    let simulated = evaluate(&ClusterConfig::abe(), &spec(16, 23)).unwrap();
    assert!(
        (simulated.cfs_availability.point - measured).abs() < 0.03,
        "simulated {} vs measured {}",
        simulated.cfs_availability.point,
        measured
    );
}

/// Table 4 / Section 5.1: the ABE configuration replaces 0–2 disks per week,
/// and the replacement rate grows roughly linearly when the system is scaled
/// up (the cost argument of Figure 3).
#[test]
fn disk_replacement_rate_is_small_at_abe_and_grows_linearly() {
    let abe = StorageSimulator::new(StorageConfig::abe_scratch())
        .unwrap()
        .run(YEAR_HOURS, &fixed(16), 29, 0.95, 0)
        .unwrap();
    assert!(abe.replacements_per_week.point > 0.2 && abe.replacements_per_week.point < 3.0);

    let mut ten_times = StorageConfig::abe_scratch();
    ten_times.tiers = 480;
    ten_times.ddn_units = 20;
    let big =
        StorageSimulator::new(ten_times).unwrap().run(YEAR_HOURS, &fixed(16), 29, 0.95, 0).unwrap();
    let ratio = big.replacements_per_week.point / abe.replacements_per_week.point;
    assert!(ratio > 6.0 && ratio < 14.0, "10x disks should give ~10x replacements, got {ratio}");
}
