//! Cross-workload design-space sweeps: the two non-paper workload families
//! built on the generic `DesignSpace` sweep.
//!
//! * **Replication vs RAID** — at equal usable capacity and identical disk
//!   hardware, compare `n+k` RAID reconstruction against `r`-way object
//!   replication with background re-replication (the GFS/HDFS/MinIO
//!   design), across two disk-quality points.
//! * **Beowulf performability** — the Kirsal & Ever question: what
//!   fraction of a head-plus-workers cluster's nominal capacity is
//!   actually delivered, as the worker count and the repair-crew count
//!   scale.
//!
//! Both run as ordinary scenarios of one `Study` under a single adaptive
//! (precision-targeted) `RunSpec`, and render through the unified report
//! sink. Run with `cargo run --release --example design_space_sweep`.

use petascale_cfs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One simulated year per replication; every sweep point runs its own
    // adaptive stopping loop targeting ±10 % relative CI half-width within
    // 8..64 replications. Each point draws from a well-separated seed
    // stream, so the whole report is reproducible bit for bit at any
    // worker count.
    let spec = RunSpec::new()
        .with_horizon_hours(8760.0)
        .with_base_seed(2008)
        .with_precision_target(0.10, 8, 64);

    let report = Study::new()
        .with(ReplicationVsRaid::default())
        .with(BeowulfPerformabilitySweep::default())
        .run(&spec)?;

    println!("{}", report.to_text());

    // The machine-readable companion: every sweep point's objective plus
    // the winner metrics, one tidy CSV.
    println!("{}", report.to_csv());
    Ok(())
}
