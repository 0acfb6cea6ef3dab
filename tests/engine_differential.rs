//! Declaration soundness of the paper's composed cluster models.
//!
//! The `enabling_reads` / `timing_reads` declarations in `cfs_model::model`
//! are scheduling contracts: an under-declared gate read makes the
//! event-calendar kernel skip re-examining an activity whose enabling just
//! changed, silently corrupting results. Two independent instruments pin
//! them sound:
//!
//! * The **differential oracle** — the full ABE model traced step by step
//!   on both kernels. The reference kernel ignores declarations, so an
//!   under-declared read desynchronises the RNG stream and shows up as a
//!   diverging trace. This is also the oracle *for the linter itself*: a
//!   model the differential proves sound must lint clean, so a lint
//!   failure here while the differential passes means the linter (not the
//!   model) regressed.
//! * The **static linter** — `Model::lint` probes every gate and timing
//!   closure over a fuzzed marking corpus and flags undeclared reads
//!   directly (`SAN001`/`SAN002`). The remaining configurations ride this
//!   much cheaper check; the small random-SAN differentials in
//!   `crates/sanet/tests/calendar_differential.rs` keep cross-checking the
//!   kernels themselves.

use petascale_cfs::prelude::*;
use petascale_cfs::sanet::lint::{codes, LintConfig, Severity};
use petascale_cfs::sanet::Simulator;

use cfs_model::model::build_cluster_model;
use cfs_model::rewards::standard_rewards;

fn assert_engines_agree_on(config: &ClusterConfig, horizon: f64, seeds: std::ops::Range<u64>) {
    let cluster = build_cluster_model(config).unwrap();
    let rewards = standard_rewards(&cluster);
    let sim = Simulator::new(&cluster.model);
    for seed in seeds {
        let (cal, cal_trace) =
            sim.run_traced(&rewards, horizon, &mut SimRng::seed_from_u64(seed)).unwrap();
        let (reference, ref_trace) =
            sim.run_reference_traced(&rewards, horizon, &mut SimRng::seed_from_u64(seed)).unwrap();
        assert_eq!(
            cal, reference,
            "calendar and reference kernels diverged on '{}' (seed {seed})",
            config.name
        );
        assert_eq!(cal_trace, ref_trace, "traces diverged on '{}' (seed {seed})", config.name);
        assert!(cal.events > 0, "the horizon must be long enough to exercise the model");
    }
}

/// Lints a configuration with its standard rewards and denies at Warning:
/// no undeclared reads, no dead activities, no dangling rewards.
fn assert_lints_clean(config: &ClusterConfig) {
    let cluster = build_cluster_model(config).unwrap();
    let rewards = standard_rewards(&cluster);
    let report = cluster.model.lint_with(&LintConfig::default(), &rewards);
    report
        .deny(Severity::Warning)
        .unwrap_or_else(|e| panic!("'{}' must lint clean: {e}", config.name));
    // The linter must specifically certify the declarations: no undeclared
    // enabling or timing reads anywhere in the composed model.
    for code in [codes::UNDECLARED_ENABLING_READ, codes::UNDECLARED_TIMING_READ] {
        assert!(!report.has_code(code), "'{}' has {code}", config.name);
    }
}

#[test]
fn abe_model_is_bit_identical_across_kernels() {
    assert_engines_agree_on(&ClusterConfig::abe(), 4_380.0, 0..6);
}

/// The linter's oracle: the configuration the differential above proves
/// sound must also lint clean.
#[test]
fn abe_model_lints_clean_matching_the_differential_oracle() {
    assert_lints_clean(&ClusterConfig::abe());
}

#[test]
fn abe_with_spare_oss_lints_clean() {
    assert_lints_clean(&ClusterConfig::abe().with_spare_oss());
}

#[test]
fn petascale_model_lints_clean() {
    assert_lints_clean(&ClusterConfig::petascale());
}

#[test]
fn petascale_with_mitigations_lints_clean() {
    assert_lints_clean(&ClusterConfig::petascale().with_spare_oss().with_multipath_network());
}
