//! Reachability/admissibility driver over the built-in models: the library
//! behind `sanlint --reach` and the CI state-space gate.
//!
//! [`sanet::reach`] explores *one* compiled model; this module runs the
//! exploration over the [`BUILT_IN_MODELS`](crate::BUILT_IN_MODELS)
//! registry, aggregates the per-model [`ReachReport`]s into a
//! [`ReachSummary`], and renders them two ways in one output: a state-space
//! table (states, tangible/vanishing split, transitions, completeness,
//! terminal classes, solver admissibility) plus the `SAN04x` diagnostics
//! through the same [`LintSummary`] machinery the structural linter uses —
//! so `--reach` honours `--deny` and the JSON schema CI already parses.
//!
//! Built-ins are *expected* to split: the fail-over pair and Beowulf
//! models are analytically admissible (their exact sparse generators
//! assemble), while the ABE and petascale cluster models are
//! simulation-only — unbounded log-accumulator places and non-exponential
//! timings, each named in the report rather than silently assumed.

use sanet::lint::Severity;
use sanet::{ReachConfig, ReachReport};
use serde::{Serialize, Value};

use crate::lint::{build_built_in, LintSummary};
use crate::report::TextTable;
use crate::CfsError;

/// Builds the named built-in model and explores its reachable marking
/// graph under `config`.
///
/// # Errors
///
/// Returns [`CfsError::InvalidConfig`] for an unknown name (listing the
/// registry and suggesting the closest entry for plausible typos) and
/// propagates model-construction errors. Analysis findings are *not*
/// errors — they are diagnostics inside the returned report.
pub(crate) fn analyze_built_in(name: &str, config: &ReachConfig) -> Result<ReachReport, CfsError> {
    let built = build_built_in(name)?;
    Ok(built.model.analyze_with(config))
}

/// Analyzes a chosen subset of the built-in models under one budget and
/// deny policy.
///
/// # Errors
///
/// Returns [`CfsError::InvalidConfig`] for an unknown model name and
/// propagates construction errors.
pub fn analyze_models(
    names: &[&str],
    config: &ReachConfig,
    deny: Severity,
) -> Result<ReachSummary, CfsError> {
    let mut reports = Vec::with_capacity(names.len());
    for name in names {
        reports.push(analyze_built_in(name, config)?);
    }
    Ok(ReachSummary::new(deny, reports))
}

/// The aggregated result of reachability-analyzing a set of models under
/// one deny level.
#[derive(Debug, Clone)]
pub struct ReachSummary {
    reports: Vec<ReachReport>,
    /// The `SAN04x` diagnostics of every report, aggregated through the
    /// standard lint presentation (deny policy, table, JSON).
    lint: LintSummary,
}

impl ReachSummary {
    fn new(deny: Severity, reports: Vec<ReachReport>) -> ReachSummary {
        let lint =
            LintSummary::new(deny, reports.iter().map(ReachReport::to_lint_report).collect());
        ReachSummary { reports, lint }
    }

    /// The deny level the summary was produced under.
    pub fn deny_level(&self) -> Severity {
        self.lint.deny_level()
    }

    /// The per-model reachability reports, in registry order.
    pub fn reports(&self) -> &[ReachReport] {
        &self.reports
    }

    /// Whether every model is free of diagnostics at or above the deny
    /// level.
    pub fn is_clean(&self) -> bool {
        self.lint.is_clean()
    }

    /// Total diagnostics at or above the deny level, across all models.
    pub fn rejections(&self) -> usize {
        self.lint.rejections()
    }

    /// One row per model: state-space size (tangible + vanishing split),
    /// transition count, completeness under the budget, terminal-class
    /// count, and the solver-admissibility verdict.
    pub(crate) fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(
            format!("sanlint --reach: {} model(s)", self.reports.len()),
            &["model", "states", "tangible", "transitions", "complete", "classes", "solver"],
        );
        for report in &self.reports {
            let classes =
                report.terminal_classes().map_or_else(|| "-".into(), |classes| classes.to_string());
            let solver = if report.admissibility().is_analytic() {
                "analytic".into()
            } else {
                format!("simulation-only ({} reason(s))", report.admissibility().reasons().len())
            };
            table.add_row(&[
                report.model().to_string(),
                report.num_states().to_string(),
                report.num_tangible().to_string(),
                report.num_transitions().to_string(),
                if report.complete() { "yes".into() } else { "budget".into() },
                classes,
                solver,
            ]);
        }
        table
    }

    /// Renders the state-space table, each model's simulation-only reasons,
    /// and the `SAN04x` diagnostics with the standard lint verdict footer.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;

        let mut out = self.to_table().render();
        for report in &self.reports {
            for reason in report.admissibility().reasons() {
                let _ = writeln!(out, "{}: {reason}", report.model());
            }
        }
        out.push('\n');
        out.push_str(&self.lint.to_text());
        out
    }

    /// Renders the summary as indented JSON: the lint schema (`deny_level`,
    /// `clean`, `rejections`, `models`) plus a `reach` array with one
    /// state-space object per model.
    pub fn to_json(&self) -> String {
        serde::to_json_pretty(self)
    }

    /// Applies the deny policy to the `SAN04x` diagnostics: `Err` if any
    /// model carries one at or above the deny level.
    ///
    /// # Errors
    ///
    /// Returns [`CfsError::InvalidConfig`] naming every rejected model and
    /// embedding its offending diagnostics.
    pub fn deny(&self) -> Result<(), CfsError> {
        self.lint.deny()
    }
}

impl Serialize for ReachSummary {
    fn to_value(&self) -> Value {
        let reach = self
            .reports
            .iter()
            .map(|report| {
                let admissibility = report.admissibility();
                Value::Object(vec![
                    ("model".into(), Value::String(report.model().into())),
                    ("states".into(), Value::UInt(report.num_states() as u64)),
                    ("tangible".into(), Value::UInt(report.num_tangible() as u64)),
                    ("vanishing".into(), Value::UInt(report.num_vanishing() as u64)),
                    ("transitions".into(), Value::UInt(report.num_transitions() as u64)),
                    ("complete".into(), Value::Bool(report.complete())),
                    (
                        "terminal_classes".into(),
                        report
                            .terminal_classes()
                            .map_or(Value::Null, |classes| Value::UInt(classes as u64)),
                    ),
                    ("analytic".into(), Value::Bool(admissibility.is_analytic())),
                    (
                        "reasons".into(),
                        Value::Array(
                            admissibility
                                .reasons()
                                .iter()
                                .map(|reason| Value::String(reason.clone()))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let mut fields = match self.lint.to_value() {
            Value::Object(fields) => fields,
            other => vec![("lint".into(), other)],
        };
        fields.push(("reach".into(), Value::Array(reach)));
        Value::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::BUILT_IN_MODELS;

    /// A budget big enough for the bounded built-ins yet quick for the
    /// unbounded ones.
    fn quick() -> ReachConfig {
        ReachConfig { max_states: 3_000, max_transitions: 60_000, ..ReachConfig::default() }
    }

    #[test]
    fn the_analytic_built_ins_assemble_their_generators() {
        for name in ["failover-pair", "beowulf"] {
            let report = analyze_built_in(name, &quick()).unwrap();
            assert!(report.complete(), "{name} must fit the budget");
            assert!(report.admissibility().is_analytic(), "{name}: {:?}", report.admissibility());
            let assembly = report.assemble_generator().unwrap();
            let pi = assembly.ctmc.steady_state().unwrap();
            assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{name} mass {pi:?}");
        }
    }

    #[test]
    fn the_cluster_built_ins_are_simulation_only_with_named_reasons() {
        for name in ["abe", "petascale"] {
            let report = analyze_built_in(name, &quick()).unwrap();
            assert!(!report.admissibility().is_analytic(), "{name} must be simulation-only");
            let reasons = report.admissibility().reasons().join("; ");
            assert!(!reasons.is_empty(), "{name} must say why");
            assert!(report.assemble_generator().is_err());
        }
    }

    #[test]
    fn every_built_in_is_clean_at_deny_warning() {
        let summary = analyze_models(BUILT_IN_MODELS, &quick(), Severity::Warning).unwrap();
        assert_eq!(summary.reports().len(), BUILT_IN_MODELS.len());
        assert!(summary.is_clean(), "{}", summary.to_text());
        summary.deny().unwrap();
        // SAN044 (state-space size) is always reported at Info, so deny
        // level Info is guaranteed to reject — the CLI test relies on it.
        let strict = analyze_models(BUILT_IN_MODELS, &quick(), Severity::Info).unwrap();
        assert!(!strict.is_clean());
        assert!(strict.deny().is_err());
    }

    #[test]
    fn unknown_names_get_the_registry_and_a_suggestion() {
        let err = analyze_built_in("beowolf", &quick()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("did you mean 'beowulf'?"), "{text}");
        assert!(text.contains("failover-pair"), "{text}");
    }

    #[test]
    fn text_rendering_shows_the_table_and_the_verdicts() {
        let summary =
            analyze_models(&["failover-pair", "abe"], &quick(), Severity::Warning).unwrap();
        let text = summary.to_text();
        assert!(text.contains("failover_pair"), "{text}");
        assert!(text.contains("analytic"), "{text}");
        assert!(text.contains("simulation-only"), "{text}");
        assert!(text.contains("SAN044"), "{text}");
        assert!(text.contains("verdict: clean"), "{text}");
    }

    #[test]
    fn json_rendering_has_a_stable_schema() {
        let summary = analyze_models(&["failover-pair"], &quick(), Severity::Warning).unwrap();
        let json = summary.to_json();
        for key in [
            "\"deny_level\"",
            "\"clean\"",
            "\"rejections\"",
            "\"models\"",
            "\"reach\"",
            "\"states\"",
            "\"tangible\"",
            "\"vanishing\"",
            "\"transitions\"",
            "\"complete\"",
            "\"terminal_classes\"",
            "\"analytic\"",
            "\"reasons\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.contains("\"analytic\": true"), "{json}");
        assert!(json.contains("\"clean\": true"), "{json}");
    }
}
