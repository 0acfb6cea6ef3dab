//! Cross-validation of the statically assembled sparse generator against
//! the dense Gaussian-elimination oracle, closed forms, and simulation: the
//! acceptance oracle for the reachability/admissibility tier.

mod common;

use common::gaussian_steady_state;
use sanet::rare::{failover_pair, failover_pair_hitting_oracle};
use sanet::reward::RewardSpec;
use sanet::{beowulf, Experiment, StoppingRule};

#[test]
fn failover_pair_is_analytic_and_matches_the_dense_solver() {
    let pair = failover_pair(0.05, 0.5).unwrap();
    let report = pair.model.analyze();
    assert!(report.complete());
    assert!(report.all_exponential(), "{:?}", report.timing_offenders());
    // The unlatched markings are transient (the latch is a one-way door),
    // the three latched markings form the single recurrent class.
    assert_eq!(report.terminal_classes(), Some(1));
    assert_eq!(report.num_vanishing(), 1);
    assert!(report.admissibility().is_analytic(), "{:?}", report.admissibility());

    let assembly = report.assemble_generator().unwrap();
    assert_eq!(assembly.states.len(), 5, "5 tangible markings");
    let sparse_pi = assembly.ctmc.steady_state().unwrap();
    let dense_pi = gaussian_steady_state(&assembly.ctmc);
    for (s, d) in sparse_pi.iter().zip(&dense_pi) {
        assert!((s - d).abs() < 1e-10, "sparse {s} vs dense {d}");
    }

    // Birth-death closed form over the latched class (working = 2, 1, 0
    // members; failure rate n·λ, repair rate μ): π(n) ∝ (2λ/μ)^k terms.
    let (lambda, mu) = (0.05, 0.5);
    let r = lambda / mu;
    let z = 1.0 + 2.0 * r + 2.0 * r * r;
    // Place order: working, failed, armed, latched.
    let latched2 = assembly.state_index(&[2, 0, 0, 1]).unwrap();
    let latched1 = assembly.state_index(&[1, 1, 0, 1]).unwrap();
    let latched0 = assembly.state_index(&[0, 2, 0, 1]).unwrap();
    assert!((sparse_pi[latched2] - 1.0 / z).abs() < 1e-10);
    assert!((sparse_pi[latched1] - 2.0 * r / z).abs() < 1e-10);
    assert!((sparse_pi[latched0] - 2.0 * r * r / z).abs() < 1e-10);
    // Transient (unlatched) markings carry no steady-state mass.
    let unlatched = assembly.state_index(&[2, 0, 1, 0]).unwrap();
    assert!(sparse_pi[unlatched].abs() < 1e-10);
}

#[test]
fn sparse_transient_matches_the_hitting_oracle_and_simulation() {
    let (lambda, mu, horizon) = (0.05, 0.5, 40.0);
    let pair = failover_pair(lambda, mu).unwrap();
    let assembly = pair.model.analyze().assemble_generator().unwrap();

    // The initial marking (both up, armed) is tangible.
    let initial = assembly.state_index(&[2, 0, 1, 0]).unwrap();
    assert_eq!(assembly.initial, vec![(initial, 1.0)]);

    // P(hit by horizon) = transient mass over the latched markings; the
    // 3-state lumped oracle agrees because latching is irreversible.
    let pi_t = assembly.ctmc.transient(initial, horizon).unwrap();
    let hit: f64 = assembly
        .states
        .iter()
        .enumerate()
        .filter(|(_, tokens)| tokens[3] > 0)
        .map(|(i, _)| pi_t[i])
        .sum();
    let oracle = failover_pair_hitting_oracle(lambda, mu, horizon).unwrap();
    assert!((hit - oracle).abs() < 1e-10, "assembled {hit} vs lumped oracle {oracle}");

    // And simulation of the SAN lands within its 95 % interval of the
    // statically computed probability.
    let mut experiment = Experiment::new(pair.model.clone(), horizon);
    experiment.add_reward(pair.hit_reward());
    let summary = experiment.run(&StoppingRule::fixed(4_000).unwrap(), 11).unwrap();
    let estimate = summary.reward("hit").unwrap();
    assert!(
        (estimate.interval.point - hit).abs() <= estimate.interval.half_width,
        "simulated {} ± {} vs analytic {hit}",
        estimate.interval.point,
        estimate.interval.half_width
    );
}

#[test]
fn beowulf_is_analytic_and_sparse_matches_dense_and_simulation() {
    // A small cluster keeps the state space tiny and the simulation fast.
    let config = beowulf::BeowulfConfig {
        workers: 3,
        head_mtbf_hours: 400.0,
        head_repair_hours: 8.0,
        worker_mtbf_hours: 200.0,
        worker_repair_hours: 12.0,
        repair_crews: 1,
    };
    let built = beowulf::build_beowulf_model(&config).unwrap();
    let report = built.model.analyze();
    assert!(report.complete());
    assert!(report.all_exponential(), "{:?}", report.timing_offenders());
    assert!(report.is_ergodic());
    assert!(report.admissibility().is_analytic(), "{:?}", report.admissibility());
    assert!(report.to_lint_report().deny(sanet::Severity::Warning).is_ok());

    let assembly = report.assemble_generator().unwrap();
    let sparse_pi = assembly.ctmc.steady_state().unwrap();
    let dense_pi = gaussian_steady_state(&assembly.ctmc);
    for (s, d) in sparse_pi.iter().zip(&dense_pi) {
        assert!((s - d).abs() < 1e-10, "sparse {s} vs dense {d}");
    }

    // Steady-state head availability from the assembled chain versus the
    // long-run time-averaged estimate from simulation, within its 95 % CI.
    let head_place = built.head_up;
    let analytic_head_up: f64 = assembly
        .states
        .iter()
        .enumerate()
        .filter(|(_, tokens)| tokens[head_place.index()] > 0)
        .map(|(i, _)| sparse_pi[i])
        .sum();
    let mut experiment = Experiment::new(built.model.clone(), 50_000.0);
    experiment.add_reward(RewardSpec::time_averaged_rate("head_up", move |m| {
        if m.tokens(head_place) > 0 {
            1.0
        } else {
            0.0
        }
    }));
    let summary = experiment.run(&StoppingRule::fixed(96).unwrap(), 7).unwrap();
    let estimate = summary.reward("head_up").unwrap();
    assert!(
        (estimate.interval.point - analytic_head_up).abs() <= estimate.interval.half_width,
        "simulated {} ± {} vs analytic {analytic_head_up}",
        estimate.interval.point,
        estimate.interval.half_width
    );
}
