//! Property tests of the reachability explorer over randomly generated
//! token-conserving SANs.
//!
//! The generator draws models whose activities each move exactly one token
//! between places (possibly splitting probabilistically across cases), so
//! the total token count is invariant and the reachable state space is
//! finite by construction — at most `C(T + P - 1, P - 1)` markings for `T`
//! tokens over `P` places. Three properties pin the explorer, whatever
//! structure the generator draws:
//!
//! * **Completeness** — exploration finishes under the default budget and
//!   the computed bounds respect the conservation law.
//! * **Containment** — every marking visited by a traced simulation run is
//!   inside the computed reachable set (the explorer never
//!   under-approximates).
//! * **Solver agreement** — whenever the model is admissible, the
//!   statically assembled sparse generator and the dense Gaussian solver
//!   agree on the steady state to 1e-10.

mod common;

use proptest::prelude::*;

use probdist::{Dist, Exponential, SimRng};
use sanet::{Marking, Model, ModelBuilder, PlaceId, Simulator};

/// Builds a random token-conserving SAN: 2–5 places sharing 2–6 tokens, a
/// ring of unit-token moves (so no marking is a dead end), plus random
/// chord activities — some with marking-dependent exponential rates, some
/// splitting their output across two probabilistic cases.
fn random_conserving_model(structure: u64) -> Model {
    let mut g = SimRng::seed_from_u64(structure);
    let mut pick = |n: u64| -> u64 { g.next_u64() % n };

    let mut b = ModelBuilder::new("random-reach");
    let num_places = 2 + pick(4) as usize;
    let places: Vec<PlaceId> = (0..num_places)
        .map(|i| b.add_place(&format!("p{i}"), u64::from(i == 0) * (2 + pick(5))).unwrap())
        .collect();

    // The ring guarantees strong connectivity of the token moves.
    for i in 0..num_places {
        let next = places[(i + 1) % num_places];
        b.timed_activity(
            &format!("ring{i}"),
            Exponential::from_mean(1.0 + pick(9) as f64).unwrap(),
        )
        .unwrap()
        .input_arc(places[i], 1)
        .output_arc(next, 1)
        .build()
        .unwrap();
    }

    let num_chords = pick(4) as usize;
    for c in 0..num_chords {
        let src = places[pick(places.len() as u64) as usize];
        let name = format!("chord{c}");
        let builder = if pick(2) == 0 {
            let watched = places[pick(places.len() as u64) as usize];
            b.timed_activity_fn(&name, move |m: &Marking| {
                let n = m.tokens(watched).max(1) as f64;
                Dist::Exponential(Exponential::new(0.05 * n).unwrap())
            })
            .unwrap()
            .timing_reads(&[watched])
        } else {
            b.timed_activity(&name, Exponential::from_mean(2.0 + pick(9) as f64).unwrap()).unwrap()
        };
        let builder = builder.input_arc(src, 1);
        if pick(2) == 0 {
            // Split the moved token across two destinations.
            let a = places[pick(places.len() as u64) as usize];
            let b2 = places[pick(places.len() as u64) as usize];
            builder.case(0.3).output_arc(a, 1).case(0.7).output_arc(b2, 1).build().unwrap();
        } else {
            let dst = places[pick(places.len() as u64) as usize];
            builder.output_arc(dst, 1).build().unwrap();
        }
    }

    b.build().unwrap()
}

/// `C(t + p - 1, p - 1)`: the number of ways to distribute `t` identical
/// tokens over `p` places — an upper bound on the reachable set.
fn compositions(t: u64, p: u64) -> u64 {
    let n = t + p - 1;
    let k = (p - 1).min(t);
    let mut out = 1u64;
    for i in 1..=k {
        out = out * (n - k + i) / i;
    }
    out
}

proptest! {
    #[test]
    fn random_conserving_sans_explore_completely(structure in any::<u64>()) {
        let model = random_conserving_model(structure);
        let report = model.analyze();
        prop_assert!(report.complete(), "conserving model must fit the default budget");
        let total: u64 = report.place_bounds().len() as u64;
        let tokens: u64 = model.initial_marking().total_tokens();
        prop_assert!(report.num_states() as u64 <= compositions(tokens, total));
        for bound in report.place_bounds() {
            prop_assert!(*bound <= tokens, "bound {bound} exceeds the conserved total {tokens}");
        }
        prop_assert_eq!(report.num_dead_ends(), 0, "the ring keeps every marking live");
    }

    #[test]
    fn traced_runs_stay_inside_the_computed_set(structure in any::<u64>()) {
        let model = random_conserving_model(structure);
        let report = model.analyze();
        prop_assert!(report.complete());
        let sim = Simulator::new(&model);
        for seed in 0..3u64 {
            let mut rng = SimRng::seed_from_u64(structure ^ seed);
            let (_, trace) = sim.run_traced(&[], 500.0, &mut rng).unwrap();
            for tokens in sanet::reach::replay_markings(&model, &trace) {
                prop_assert!(
                    report.contains_tokens(&tokens),
                    "visited marking {:?} outside the computed reachable set",
                    tokens
                );
            }
        }
    }

    #[test]
    fn admissible_models_agree_with_the_dense_solver(structure in any::<u64>()) {
        let model = random_conserving_model(structure);
        let report = model.analyze();
        prop_assert!(report.complete());
        // The ring makes every token redistribution reversible, so the
        // marking graph is irreducible and — being all-exponential with no
        // instantaneous activities — always analytically admissible.
        prop_assert!(report.is_ergodic());
        prop_assert!(report.admissibility().is_analytic(), "{:?}", report.admissibility());
        let assembly = report.assemble_generator().unwrap();
        let sparse_pi = assembly.ctmc.steady_state().unwrap();
        let dense_pi = common::gaussian_steady_state(&assembly.ctmc);
        for (s, d) in sparse_pi.iter().zip(&dense_pi) {
            prop_assert!((s - d).abs() < 1e-10, "sparse {} vs dense {}", s, d);
        }
    }
}
