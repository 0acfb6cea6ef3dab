//! Differential validation of the reachability explorer against the
//! simulation engine, over the full built-in registry: every marking a
//! traced run visits must lie inside the statically computed reachable
//! set. The explorer over-approximates single runs by expanding every
//! enabled activity (ignoring the timing race), so containment is the
//! soundness direction — a marking the simulator can reach but the
//! explorer misses would silently corrupt boundedness and admissibility
//! verdicts.
//!
//! The bounded models are checked against a *complete* exploration; the
//! unbounded cluster models (abe, petascale) are checked against a
//! budget-limited exploration plus the `SAN040` unboundedness report the
//! CI gate relies on.

use petascale_cfs::cfs_model::lint::{build_built_in, BUILT_IN_MODELS};
use petascale_cfs::probdist::SimRng;
use petascale_cfs::sanet::lint::codes;
use petascale_cfs::sanet::reach::replay_markings;
use petascale_cfs::sanet::{ReachConfig, Simulator};

#[test]
fn bounded_built_ins_contain_every_traced_marking() {
    for name in ["beowulf", "failover-pair"] {
        let built = build_built_in(name).unwrap();
        let report = built.model.analyze();
        assert!(report.complete(), "{name} must explore completely");

        let sim = Simulator::new(&built.model);
        for seed in 0..4u64 {
            let mut rng = SimRng::seed_from_u64(0xACE0 + seed);
            let (_, trace) = sim.run_traced(&[], 20_000.0, &mut rng).unwrap();
            for tokens in replay_markings(&built.model, &trace) {
                assert!(
                    report.contains_tokens(&tokens),
                    "{name} seed {seed}: visited {tokens:?} outside the computed set"
                );
            }
        }
    }
}

#[test]
fn unbounded_built_ins_report_exhaustion_and_contain_the_prefix() {
    // A small budget keeps the test quick; the point is the verdict, not
    // the frontier size.
    let config = ReachConfig { max_states: 2_000, max_transitions: 40_000, ..Default::default() };
    for name in ["abe", "abe-spare", "petascale", "petascale-mitigated"] {
        let built = build_built_in(name).unwrap();
        let report = built.model.analyze_with(&config);
        assert!(!report.complete(), "{name} is unbounded and must exhaust the budget");
        assert!(!report.admissibility().is_analytic());
        let lint = report.to_lint_report();
        assert!(lint.has_code(codes::UNBOUNDED_SUSPECT), "{name}: {lint}");
        // The initial marking is always interned first.
        let initial = built.model.initial_marking();
        assert!(report.contains(&initial), "{name}: initial marking must be in the set");
    }
}

#[test]
fn every_built_in_registry_entry_analyzes() {
    let config = ReachConfig { max_states: 500, max_transitions: 10_000, ..Default::default() };
    for name in BUILT_IN_MODELS {
        let built = build_built_in(name).unwrap();
        let report = built.model.analyze_with(&config);
        assert!(report.num_states() > 0, "{name} must intern at least the initial marking");
        assert_eq!(report.model(), built.model.name(), "{name}: report names its model");
    }
}
