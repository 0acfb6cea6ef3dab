//! Static-analysis driver over the built-in models: the library behind the
//! `sanlint` binary and the CI lint gate.
//!
//! [`sanet::lint`] knows how to analyse *one* compiled [`sanet::Model`];
//! this module adds the registry of models this crate ships ([`BUILT_IN_MODELS`]),
//! builds each with its standard reward set, and aggregates the per-model
//! [`LintReport`]s into a [`LintSummary`] renderable as an aligned
//! [`TextTable`], plain text, or JSON — the same presentation machinery the
//! experiment reports use.
//!
//! The deny policy mirrors the per-model [`LintReport::deny`]: a summary is
//! *clean* when no model carries a diagnostic at or above the deny level.
//! CI runs `sanlint --deny warning` over every built-in model, so the
//! shipped models are pinned free of errors *and* warnings; informational
//! diagnostics (certified invariants, conservative declarations) are
//! expected and reported.

use sanet::beowulf::{build_beowulf_model, BeowulfConfig};
use sanet::lint::{LintConfig, LintReport, Severity};
use sanet::rare;
use sanet::reward::RewardSpec;
use sanet::Model;
use serde::{Serialize, Value};

use crate::config::ClusterConfig;
use crate::model::build_cluster_model;
use crate::report::TextTable;
use crate::rewards::standard_rewards;
use crate::CfsError;

/// Names of the models `sanlint` can analyse, in report order:
///
/// * `abe` — the paper's ABE cluster (Section 4) with the standard rewards.
/// * `abe-spare` — ABE with the warm-spare OSS mitigation (Section 5.1).
/// * `petascale` — the extrapolated petascale configuration (Section 5).
/// * `petascale-mitigated` — petascale with spare OSS and multi-path
///   networking (Section 5.2).
/// * `beowulf` — the Kirsal & Ever Beowulf performability model.
/// * `failover-pair` — the rare-event fail-over pair of [`sanet::rare`].
pub const BUILT_IN_MODELS: &[&str] =
    &["abe", "abe-spare", "petascale", "petascale-mitigated", "beowulf", "failover-pair"];

/// A built-in model resolved by name: the compiled SAN plus the standard
/// reward set the analyses probe it with.
#[derive(Debug, Clone)]
pub struct BuiltIn {
    /// The compiled model.
    pub model: Model,
    /// The rewards the model ships with (the ones CI lints against).
    pub rewards: Vec<RewardSpec>,
}

/// Levenshtein edit distance, used for the "did you mean" suggestion on
/// unknown model names.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitution = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substitution.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

/// The registry entry closest to `unknown`, when it is close enough (edit
/// distance at most half the typed name's length) to be a plausible typo.
fn closest_model(unknown: &str) -> Option<&'static str> {
    BUILT_IN_MODELS
        .iter()
        .map(|name| (edit_distance(unknown, name), *name))
        .min()
        .filter(|&(distance, _)| distance <= unknown.len().div_ceil(2))
        .map(|(_, name)| name)
}

/// The error for a model name outside [`BUILT_IN_MODELS`]: lists the
/// registry and suggests the closest entry for plausible typos.
pub(crate) fn unknown_model_error(unknown: &str) -> CfsError {
    let suggestion =
        closest_model(unknown).map(|name| format!(" (did you mean '{name}'?)")).unwrap_or_default();
    CfsError::InvalidConfig {
        reason: format!(
            "unknown model '{unknown}'{suggestion}; built-in models are: {}",
            BUILT_IN_MODELS.join(", ")
        ),
    }
}

/// Builds the named built-in model with its standard reward set.
///
/// # Errors
///
/// Returns [`CfsError::InvalidConfig`] for an unknown name (listing the
/// known ones and suggesting the closest for plausible typos) and
/// propagates model-construction errors.
pub fn build_built_in(name: &str) -> Result<BuiltIn, CfsError> {
    let cluster = |cfg: ClusterConfig| -> Result<BuiltIn, CfsError> {
        let cm = build_cluster_model(&cfg)?;
        let rewards = standard_rewards(&cm);
        Ok(BuiltIn { model: cm.model, rewards })
    };
    match name {
        "abe" => cluster(ClusterConfig::abe()),
        "abe-spare" => cluster(ClusterConfig::abe().with_spare_oss()),
        "petascale" => cluster(ClusterConfig::petascale()),
        "petascale-mitigated" => {
            cluster(ClusterConfig::petascale().with_spare_oss().with_multipath_network())
        }
        "beowulf" => {
            let bw = build_beowulf_model(&BeowulfConfig::default())?;
            let rewards = bw.rewards();
            Ok(BuiltIn { model: bw.model, rewards })
        }
        "failover-pair" => {
            // The rare-event benchmark pair: λ = 1e-4/h failures, 0.1/h
            // repairs, so both members are rarely down at once.
            let pair = rare::failover_pair(1e-4, 0.1)?;
            let rewards = vec![pair.hit_reward()];
            Ok(BuiltIn { model: pair.model, rewards })
        }
        unknown => Err(unknown_model_error(unknown)),
    }
}

/// Builds the named built-in model with its standard reward set and lints
/// it under `config`.
///
/// # Errors
///
/// Returns [`CfsError::InvalidConfig`] for an unknown name (listing the
/// known ones) and propagates model-construction errors. Lint findings are
/// *not* errors — they are diagnostics inside the returned report; apply
/// [`LintReport::deny`] to turn them into one.
pub(crate) fn lint_built_in(name: &str, config: &LintConfig) -> Result<LintReport, CfsError> {
    let built = build_built_in(name)?;
    Ok(built.model.lint_with(config, &built.rewards))
}

/// Lints every model in [`BUILT_IN_MODELS`] under one deny policy.
///
/// # Errors
///
/// Propagates model-construction errors; lint findings land in the summary.
pub fn lint_all(config: &LintConfig, deny: Severity) -> Result<LintSummary, CfsError> {
    lint_models(BUILT_IN_MODELS, config, deny)
}

/// Lints a chosen subset of the built-in models under one deny policy.
///
/// # Errors
///
/// Returns [`CfsError::InvalidConfig`] for an unknown model name and
/// propagates construction errors.
pub fn lint_models(
    names: &[&str],
    config: &LintConfig,
    deny: Severity,
) -> Result<LintSummary, CfsError> {
    let mut reports = Vec::with_capacity(names.len());
    for name in names {
        reports.push(lint_built_in(name, config)?);
    }
    Ok(LintSummary { deny, reports })
}

/// The aggregated result of linting a set of models under one deny level.
#[derive(Debug, Clone)]
pub struct LintSummary {
    deny: Severity,
    reports: Vec<LintReport>,
}

impl LintSummary {
    /// Aggregates per-model reports under one deny level. Used by the
    /// reachability driver ([`crate::reach`]) to render `SAN04x`
    /// diagnostics through the same presentation machinery.
    pub(crate) fn new(deny: Severity, reports: Vec<LintReport>) -> LintSummary {
        LintSummary { deny, reports }
    }

    /// The deny level the summary was produced under.
    pub fn deny_level(&self) -> Severity {
        self.deny
    }

    /// The per-model reports, in lint order.
    pub fn reports(&self) -> &[LintReport] {
        &self.reports
    }

    /// Whether every model is free of diagnostics at or above the deny
    /// level.
    pub fn is_clean(&self) -> bool {
        self.reports.iter().all(|r| r.count_at_or_above(self.deny) == 0)
    }

    /// Total diagnostics at or above the deny level, across all models.
    pub fn rejections(&self) -> usize {
        self.reports.iter().map(|r| r.count_at_or_above(self.deny)).sum()
    }

    /// One table row per diagnostic (`model | code | severity | element |
    /// message`); clean models contribute a single `clean` row so every
    /// linted model is visible in the output.
    pub(crate) fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(
            format!("sanlint: {} model(s), deny level {}", self.reports.len(), self.deny.name()),
            &["model", "code", "severity", "element", "message"],
        );
        for report in &self.reports {
            if report.diagnostics().is_empty() {
                table.add_row(&[
                    report.model().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("clean ({} probes)", report.probes()),
                ]);
                continue;
            }
            for d in report.diagnostics() {
                table.add_row(&[
                    report.model().to_string(),
                    d.code().to_string(),
                    d.severity().to_string(),
                    d.element().to_string(),
                    d.message().to_string(),
                ]);
            }
        }
        table
    }

    /// Renders the diagnostics table plus a per-model verdict footer.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;

        let mut out = self.to_table().render();
        for report in &self.reports {
            let at_or_above = report.count_at_or_above(self.deny);
            let _ = writeln!(
                out,
                "{}: {} diagnostic(s), {} at or above {}",
                report.model(),
                report.diagnostics().len(),
                at_or_above,
                self.deny.name(),
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.is_clean() {
                "clean".to_string()
            } else {
                format!("{} rejection(s)", self.rejections())
            }
        );
        out
    }

    /// Renders the summary as indented JSON:
    /// `{"deny_level": ..., "clean": ..., "models": [<per-model reports>]}`.
    pub fn to_json(&self) -> String {
        serde::to_json_pretty(self)
    }

    /// Applies the deny policy: `Err` if any model carries a diagnostic at
    /// or above the deny level.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] naming every rejected model and
    /// embedding its offending diagnostics.
    pub fn deny(&self) -> Result<(), CfsError> {
        let mut failures = Vec::new();
        for report in &self.reports {
            if let Err(e) = report.deny(self.deny) {
                failures.push(e.to_string());
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(CfsError::InvalidConfig { reason: failures.join("\n") })
        }
    }
}

impl Serialize for LintSummary {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("deny_level".into(), Value::String(self.deny.name().into())),
            ("clean".into(), Value::Bool(self.is_clean())),
            ("rejections".into(), Value::UInt(self.rejections() as u64)),
            ("models".into(), Value::Array(self.reports.iter().map(Serialize::to_value).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-probe config keeping the unit tests quick; the full-corpus
    /// run is the CI `sanlint` step.
    fn quick() -> LintConfig {
        LintConfig { probes: 48, ..LintConfig::default() }
    }

    #[test]
    fn every_built_in_model_is_known_and_lints_without_errors() {
        for name in BUILT_IN_MODELS {
            let report = lint_built_in(name, &quick()).unwrap_or_else(|e| panic!("{name}: {e}"));
            report
                .deny(Severity::Warning)
                .unwrap_or_else(|e| panic!("built-in '{name}' must lint clean: {e}"));
        }
    }

    #[test]
    fn unknown_model_names_are_rejected_with_the_known_list() {
        let err = lint_built_in("no-such-model", &quick()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("no-such-model"), "{text}");
        assert!(text.contains("petascale"), "should list the registry: {text}");
    }

    #[test]
    fn plausible_typos_get_a_did_you_mean_suggestion() {
        let err = lint_built_in("beowolf", &quick()).unwrap_err();
        assert!(err.to_string().contains("did you mean 'beowulf'?"), "{err}");
        let err = lint_built_in("petascale-mitigatd", &quick()).unwrap_err();
        assert!(err.to_string().contains("did you mean 'petascale-mitigated'?"), "{err}");
        // Nothing plausibly close: the registry is listed without a guess.
        let err = lint_built_in("kalamazoo-cluster-nine", &quick()).unwrap_err();
        assert!(!err.to_string().contains("did you mean"), "{err}");
    }

    #[test]
    fn edit_distance_is_symmetric_and_grounded() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abe", "abe"), 0);
        assert_eq!(edit_distance("abe", ""), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("sitting", "kitten"), 3);
        assert_eq!(edit_distance("beowolf", "beowulf"), 1);
    }

    #[test]
    fn summary_aggregates_reports_and_applies_the_deny_policy() {
        let summary =
            lint_models(&["failover-pair", "beowulf"], &quick(), Severity::Warning).unwrap();
        assert_eq!(summary.reports().len(), 2);
        assert_eq!(summary.deny_level(), Severity::Warning);
        assert!(summary.is_clean(), "{}", summary.to_text());
        assert_eq!(summary.rejections(), 0);
        summary.deny().unwrap();

        // At deny level Info the conservative-declaration notes of the
        // fail-over pair become rejections.
        let strict = lint_models(&["failover-pair"], &quick(), Severity::Info).unwrap();
        assert!(!strict.is_clean());
        assert!(strict.rejections() > 0);
        let err = strict.deny().unwrap_err();
        assert!(err.to_string().contains("failover"), "{err}");
    }

    #[test]
    fn text_rendering_names_every_model_and_the_verdict() {
        let summary =
            lint_models(&["failover-pair", "beowulf"], &quick(), Severity::Warning).unwrap();
        let text = summary.to_text();
        assert!(text.contains("failover"), "{text}");
        assert!(text.contains("beowulf"), "{text}");
        assert!(text.contains("verdict: clean"), "{text}");
        // The fail-over pair's conservative declarations appear as rows.
        assert!(text.contains("SAN006"), "{text}");
    }

    #[test]
    fn json_rendering_has_a_stable_schema() {
        let summary = lint_models(&["failover-pair"], &quick(), Severity::Warning).unwrap();
        let json = summary.to_json();
        for key in [
            "\"deny_level\"",
            "\"clean\"",
            "\"rejections\"",
            "\"models\"",
            "\"diagnostics\"",
            "\"model\"",
            "\"probes\"",
            "\"max_severity\"",
            "\"code\"",
            "\"severity\"",
            "\"element\"",
            "\"message\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"deny_level\": \"warning\""), "{json}");
        assert!(json.contains("\"clean\": true"), "{json}");
    }
}
