//! Rare-event estimation end to end: the two variance-reduction families
//! resolving measures plain Monte Carlo cannot see.
//!
//! * **Multilevel splitting** — the `UltraReliableSweep` workload compares
//!   RAID `n+k` widths against `r`-way replication in the regime where
//!   data-loss probabilities live at 10⁻⁶ and below, estimated by
//!   fixed-effort RESTART-style splitting over exposure depth
//!   (`raidsim::splitting`) under a `RareEventPolicy` carried by the
//!   `RunSpec`.
//! * **Importance sampling with failure biasing** — a fail-over pair's
//!   probability of total failure within a maintenance window, estimated
//!   by exponential rate tilting with likelihood-ratio weights
//!   (`sanet::rare`) and cross-checked against the exact CTMC transient
//!   solution (`sanet::ctmc`, uniformization).
//!
//! Run with `cargo run --release --example rare_event_loss`.

use petascale_cfs::prelude::*;
use sanet::rare::{failover_pair, failover_pair_hitting_oracle};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Multilevel splitting: the ultra-reliable design sweep. --------
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

    // ---- Importance sampling: fail-over pair vs the exact CTMC. --------
    // A pair with 1000-hour member MTBF and 1-hour repairs: P(both down
    // within a 10-hour maintenance window) ≈ 2·(1e-3)²·10 ≈ 2e-5 — one
    // hit per ~50 000 naive replications.
    let (lambda, mu, horizon) = (1e-3, 1.0, 10.0);
    let pair = failover_pair(lambda, mu)?;

    // Tilt failures 60x and run adaptively to a ±10 % weighted interval.
    let bias = FailureBias::new(60.0, ["fail"])?;
    let mut experiment = BiasedExperiment::new(&pair.model, bias, horizon)?;
    experiment.add_reward(pair.hit_reward());
    let rule = StoppingRule::new(0.10, 1_000, 200_000)?;
    let summary = experiment.run(&rule, 2008)?;
    let estimate = summary.reward("hit")?;

    // The analytic oracle: the matching absorbing 3-state CTMC solved by
    // uniformization.
    let exact = failover_pair_hitting_oracle(lambda, mu, horizon)?;

    let naive = naive_replications_for(exact, estimate.interval.relative_half_width(), 0.95)?;
    println!("==== importance-sampled fail-over pair ====");
    println!("P(total failure within {horizon} h):");
    println!("  importance sampled   {}", estimate.interval);
    println!("  exact (CTMC)         {exact:.6e}");
    println!("  effective samples    {:.0}", estimate.effective_sample_size());
    println!("  replications spent   {}", summary.replications);
    println!("  naive MC projection  {naive:.0} replications for the same precision");
    println!("  speedup              {:.0}x", naive / summary.replications as f64);
    assert!(
        estimate.interval.contains(exact),
        "importance-sampled estimate must cover the analytic value"
    );
    Ok(())
}
