//! Petascale scaling study (the Figure 4 experiment): how CFS availability
//! and cluster utility degrade as the ABE design is scaled to a
//! petaflop-petabyte system, and how much the spare-OSS and multi-path
//! mitigations recover.
//!
//! Run with `cargo run --release --example petascale_scaling`.

use petascale_cfs::cfs_model::scenario::Figure4CfsAvailability;
use petascale_cfs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = RunSpec::new().with_horizon_hours(8760.0).with_replications(24).with_base_seed(7);

    // The Figure 4 sweep: ABE (96 TB) up to the 12 PB petascale target.
    let fig4 = Figure4CfsAvailability { capacities_tb: vec![96.0, 768.0, 3072.0, 12_288.0] }
        .evaluate(&spec)?;
    println!("{}", fig4.tables[0].render());

    let metric = |name| fig4.metric(name).expect("figure 4 reports its sweep endpoints");
    println!(
        "CFS availability declines from {:.3} to {:.3} (paper: 0.972 -> 0.909)",
        metric("cfs_availability_first"),
        metric("cfs_availability_last")
    );
    println!(
        "A standby spare OSS recovers {:+.3} at petascale (paper: ~+3%)",
        metric("spare_oss_gain_last")
    );

    // The second mitigation discussed in Section 5.2: multiple network paths
    // between the compute nodes and the CFS to absorb transient errors.
    let mitigation_spec = spec.with_base_seed(11);
    let base = evaluate(&ClusterConfig::petascale(), &mitigation_spec)?;
    let multipath =
        evaluate(&ClusterConfig::petascale().with_multipath_network(), &mitigation_spec)?;
    println!();
    println!("Cluster utility at petascale:           {}", base.cluster_utility);
    println!("Cluster utility with multi-path fabric: {}", multipath.cluster_utility);
    Ok(())
}
