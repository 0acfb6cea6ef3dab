//! Rare-event estimation end to end: multilevel splitting resolving
//! measures plain Monte Carlo cannot see.
//!
//! The `UltraReliableSweep` workload compares RAID `n+k` widths against
//! `r`-way replication in the regime where data-loss probabilities live at
//! 10⁻⁶ and below, estimated by fixed-effort RESTART-style splitting over
//! exposure depth (`raidsim::splitting`) under a `RareEventPolicy` carried
//! by the `RunSpec`.
//!
//! Run with `cargo run --release --example rare_event_loss`.

use petascale_cfs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 2000 trials per exposure level resolve every scheme's loss
    // probability — down to ~10⁻⁵, where ~500 naive year-long missions
    // would essentially never see a loss; every trial draws from a level-
    // and index-derived seed stream, so the report is bit-identical at any
    // worker count.
    let spec = RunSpec::new()
        .with_horizon_hours(8760.0)
        .with_base_seed(2008)
        .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 2000 });

    let report = Study::new()
        .with(UltraReliableSweep {
            usable_capacity_tb: 4.0,
            schemes: vec![
                RedundancyScheme::Raid(RaidGeometry::raid6_8p2()),
                RedundancyScheme::Raid(RaidGeometry::raid_8p3()),
                RedundancyScheme::Replication { replicas: 3 },
                RedundancyScheme::Replication { replicas: 4 },
            ],
            mtbf_khours: vec![10.0],
        })
        .run(&spec)?;
    println!("{}", report.to_text());
    Ok(())
}
