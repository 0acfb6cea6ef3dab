//! RAID design-space exploration (the Figure 2 / Figure 3 experiments):
//! storage availability and disk-replacement cost across RAID geometries,
//! disk AFRs, and system scale — the data a storage architect needs to pick
//! between (8+2), (8+3), and better disks.
//!
//! Run with `cargo run --release --example raid_design_space`.

use petascale_cfs::cfs_model::scenario::{Figure2StorageAvailability, Figure3DiskReplacements};
use petascale_cfs::prelude::*;
use petascale_cfs::raidsim::analytic::tier_mttdl;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = RunSpec::new().with_horizon_hours(8760.0).with_replications(16);

    // Figure 2: storage availability from ABE scale to petascale for the
    // paper's configuration tuples (reduced capacity sweep for a quick run).
    let fig2 = Figure2StorageAvailability { capacities_tb: vec![96.0, 768.0, 3072.0, 12_288.0] };
    println!("{}", fig2.evaluate(&spec.clone().with_base_seed(3))?.tables[0].render());

    // Figure 3: the operational cost side — disks replaced per week.
    let fig3 = Figure3DiskReplacements { disk_counts: vec![480, 1440, 2880, 4800] };
    println!("{}", fig3.evaluate(&spec.with_base_seed(5))?.tables[0].render());

    // Analytic cross-check: mean time to data loss per tier for the two
    // geometries the paper compares, with ABE's disks.
    let disk = DiskModel::abe_sata_250gb();
    for geometry in [RaidGeometry::raid6_8p2(), RaidGeometry::raid_8p3()] {
        let mttdl = tier_mttdl(geometry, disk.mtbf_hours, 10.0)?;
        println!(
            "Analytic MTTDL of one {} tier with {:.0}h-MTBF disks: {:.2e} hours",
            geometry.label(),
            disk.mtbf_hours,
            mttdl
        );
    }
    Ok(())
}
