//! Bit-for-bit pins of SAN sample paths.
//!
//! Each model below runs at three seeds through the simulator's three
//! public entry points: `run` (the event calendar for the ABE
//! composition, the naive kernel for the two small models), `run_traced`
//! (always the event calendar) and `run_reference` (always the naive
//! kernel). Every reward is compared by its bits, together with the event
//! count and the end time, against values recorded from an earlier build.
//! A change to the kernels, the firing routine or the reward arithmetic
//! that moves one draw or one rounding fails here, where the statistical
//! suites and `pinned_outputs.rs` (relative 1e-12) would let it pass.

use petascale_cfs::cfs_model::model::build_cluster_model;
use petascale_cfs::cfs_model::rewards::standard_rewards;
use petascale_cfs::cfs_model::ClusterConfig;
use petascale_cfs::probdist::SimRng;
use petascale_cfs::sanet::beowulf::{build_beowulf_model, BeowulfConfig};
use petascale_cfs::sanet::rare::failover_pair;
use petascale_cfs::sanet::{Model, RewardSpec, Simulator};

/// One pinned replication: the seed, the number of activity completions,
/// and every reward's `f64` bits in registration order.
type Pin = (u64, u64, &'static [u64]);

/// Runs `model` through every entry point at each pin's seed and asserts
/// the recorded rewards, event count and end time bit for bit.
fn assert_pinned(model: &Model, rewards: &[RewardSpec], horizon: f64, pins: &[Pin]) {
    let sim = Simulator::new(model);
    for &(seed, events, bits) in pins {
        let rng = || SimRng::seed_from_u64(seed);
        for (method, result) in [
            ("run", sim.run(rewards, horizon, &mut rng())),
            ("run_traced", sim.run_traced(rewards, horizon, &mut rng()).map(|(r, _)| r)),
            ("run_reference", sim.run_reference(rewards, horizon, &mut rng())),
        ] {
            let result = result.unwrap_or_else(|e| panic!("{method}, seed {seed}: {e}"));
            let got: Vec<u64> = result.iter().map(|(_, value)| value.to_bits()).collect();
            assert_eq!(got, bits, "{} {method}, seed {seed}: reward bits", model.name());
            assert_eq!(result.events, events, "{} {method}, seed {seed}: events", model.name());
            assert_eq!(
                result.end_time.to_bits(),
                horizon.to_bits(),
                "{} {method}, seed {seed}: end time",
                model.name()
            );
        }
    }
}

#[test]
fn abe_cluster_sample_paths_are_pinned() {
    #[rustfmt::skip]
    const PINS: [Pin; 3] = [
        (1, 355, &[0x3fef39f240032a83, 0x3ff0000000000000, 0x40e8c0c000000000, 0x4026000000000000, 0x3f848e509d434d9e]),
        (2, 392, &[0x3fef43fa89a607b3, 0x3ff0000000000000, 0x40eb828000000000, 0x4034000000000000, 0x3f65d495d1cc12b4]),
        (3, 368, &[0x3fef142113bd5730, 0x3ff0000000000000, 0x40e6e48000000000, 0x402e000000000000, 0x3f7cfd9abcb51200]),
    ];
    let cluster = build_cluster_model(&ClusterConfig::abe()).unwrap();
    assert_pinned(&cluster.model, &standard_rewards(&cluster), 8760.0, &PINS);
}

#[test]
fn beowulf_sample_paths_are_pinned() {
    #[rustfmt::skip]
    const PINS: [Pin; 3] = [
        (1, 516, &[0x3fefe72f81700e1d, 0x3feffce0620bb455, 0x3feffce0620bb455, 0x404fea4f1f6459c9]),
        (2, 508, &[0x3fefe615c5db624e, 0x3ff0000000000000, 0x3ff0000000000000, 0x404fe615c5db624e]),
        (3, 481, &[0x3fefdc79d8ca9702, 0x3feff4751becaedb, 0x3feff4751becaedb, 0x404fe804bcdde829]),
    ];
    let beowulf = build_beowulf_model(&BeowulfConfig::default()).unwrap();
    assert!(beowulf.model.num_activities() < 5, "`run` must take the naive kernel");
    assert_pinned(&beowulf.model, &beowulf.rewards(), 20_000.0, &PINS);
}

/// The fail-over pair's failure activity is marking-dependent without
/// declared timing reads, so it redraws after every event: the calendar's
/// scan-resident path. Its rewards cover all three kinds.
#[test]
fn failover_pair_sample_paths_are_pinned() {
    #[rustfmt::skip]
    const PINS: [Pin; 3] = [
        (1, 66, &[0x0000000000000000, 0x3fff69a7587fe2e9, 0x4040800000000000]),
        (2, 85, &[0x3ff0000000000000, 0x3fff3def2bfca38f, 0x4045000000000000]),
        (3, 78, &[0x0000000000000000, 0x3fff8497b0698e37, 0x4043800000000000]),
    ];
    let pair = failover_pair(0.01, 0.5).unwrap();
    assert!(pair.model.num_activities() < 5, "`run` must take the naive kernel");
    let working = pair.model.place("working").unwrap();
    let repair = pair.model.activity("repair").unwrap();
    let rewards = vec![
        pair.hit_reward(),
        RewardSpec::time_averaged_rate("working", move |m| m.tokens(working) as f64),
        RewardSpec::impulse_total("repairs", repair, 1.0),
    ];
    assert_pinned(&pair.model, &rewards, 2_000.0, &PINS);
}
