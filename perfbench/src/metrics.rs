//! The benchmark's metric schema and the pure derivations behind its
//! numbers, kept free of I/O and timing so they can be tested at tiny
//! sizes.

use cfs_model::Metric;
use serde::{json, Value};

/// The interaction map: every metric's name, unit and direction, plus the
/// layer, reproducibility tag and end-to-end effect of each per-layer one.
pub const INTERACTION_MAP: &str = include_str!("../interaction_map.json");

/// One declared metric: what the result line prints it as.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
}

/// The metrics a run prints: every end-to-end one with `--trace 0`, every
/// per-layer one with `--trace 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

impl Schema {
    /// Reads the `end_to_end` and `per_layer` lists of a JSON document
    /// shaped like `interaction_map.json` (or `BENCHMARK.json`).
    pub fn parse(text: &str) -> Result<Schema, String> {
        let document = json::parse(text).map_err(|e| format!("metric schema: {e}"))?;
        let list = |key: &str| -> Result<Vec<MetricDecl>, String> {
            let entries = document
                .get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("metric schema has no '{key}' list"))?;
            entries
                .iter()
                .map(|entry| {
                    let field =
                        |name: &str| {
                            entry.get(name).and_then(Value::as_str).map(str::to_string).ok_or_else(
                                || format!("a '{key}' entry has no string field '{name}'"),
                            )
                        };
                    let name = field("name")?;
                    if !valid_name(&name) {
                        return Err(format!("metric name '{name}' is not [A-Za-z0-9_.-]"));
                    }
                    Ok(MetricDecl { name, unit: field("unit")?, better: field("better")? })
                })
                .collect()
        };
        Ok(Schema { end_to_end: list("end_to_end")?, per_layer: list("per_layer")? })
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The per-layer metric names that attribute time and replications to one
/// scenario of a workload.
pub fn scenario_metric_names(scenario: &str) -> [String; 2] {
    [format!("scenario.{scenario}.s"), format!("scenario.{scenario}.replications")]
}

/// The median of `values`; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `scaling_w2`: how many times faster the workers-2 pass is than the
/// workers-1 pass.
pub fn scaling(wall_w1_s: f64, wall_w2_s: f64) -> f64 {
    wall_w1_s / wall_w2_s
}

/// `targets_met`: the fraction of confidence-interval metrics whose
/// relative half-width is at most `target`. A zero estimate meets the
/// target only with a zero half-width. `None` when no metric carries an
/// interval.
pub fn targets_met<'a>(metrics: impl IntoIterator<Item = &'a Metric>, target: f64) -> Option<f64> {
    let (mut met, mut total) = (0usize, 0usize);
    for metric in metrics {
        if let Some(half_width) = metric.half_width {
            total += 1;
            if half_width <= target * metric.value.abs() {
                met += 1;
            }
        }
    }
    (total > 0).then(|| met as f64 / total as f64)
}

/// `pool.utilisation_w2`: the share of `workers` cores the process kept
/// busy over `wall_s` seconds in which it used `cpu_s` CPU seconds.
pub fn utilisation(cpu_s: f64, workers: usize, wall_s: f64) -> f64 {
    cpu_s / (workers as f64 * wall_s)
}

/// `numerator / denominator`, or 0 when the layer did no work (the
/// denominator is zero), so every per-layer metric prints on every
/// workload.
pub fn ratio_or_zero(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric as `{"value": .., "unit": ..}`, in `decls` order.
///
/// # Errors
///
/// Names the first declared metric that has no value or a non-finite one.
pub fn result_line(
    attempted: u64,
    failed: u64,
    decls: &[MetricDecl],
    value_of: impl Fn(&str) -> Option<f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(decls.len());
    for decl in decls {
        let value = value_of(&decl.name).ok_or_else(|| format!("no value for '{}'", decl.name))?;
        if !value.is_finite() {
            return Err(format!("metric '{}' is not finite: {value}", decl.name));
        }
        metrics.push((
            decl.name.clone(),
            Value::Object(vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::String(decl.unit.clone())),
            ]),
        ));
    }
    Ok(Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ])
    .to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn ci(name: &str, value: f64, half_width: f64) -> Metric {
        Metric { name: name.to_string(), value, half_width: Some(half_width) }
    }

    #[test]
    fn scaling_is_the_ratio_of_the_two_walls() {
        assert_eq!(scaling(6.0, 3.0), 2.0);
        assert_eq!(scaling(4.0, 5.0), 0.8);
    }

    #[test]
    fn targets_met_counts_only_interval_metrics() {
        let metrics = [
            ci("tight", 0.97, 0.001),
            ci("loose", 2.0, 0.5),
            ci("edge", 1.0, 0.05),
            ci("zero-exact", 0.0, 0.0),
            ci("zero-noisy", 0.0, 0.01),
            Metric { name: "point".to_string(), value: 3.0, half_width: None },
        ];
        assert_eq!(targets_met(&metrics, 0.05), Some(3.0 / 5.0));
        assert_eq!(targets_met(&metrics[5..], 0.05), None);
        assert_eq!(targets_met(&metrics[..1], 0.0001), Some(0.0));
    }

    #[test]
    fn utilisation_is_cpu_over_the_core_budget() {
        assert_eq!(utilisation(3.0, 2, 2.0), 0.75);
        assert_eq!(utilisation(2.0, 1, 2.0), 1.0);
        assert_eq!(ratio_or_zero(5.0, 0.0), 0.0);
        assert_eq!(ratio_or_zero(5.0, 2.0), 2.5);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn name_charset_is_enforced() {
        for good in ["setup_s", "pool.utilisation_w2", "scenario.12288TB.s", "paper-artefacts"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/ed", "ümlaut", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn per_scenario_metric_names_cover_every_workload_scenario() {
        let schema = Schema::parse(INTERACTION_MAP).unwrap();
        let per_layer: Vec<&str> = schema.per_layer.iter().map(|m| m.name.as_str()).collect();
        for workload in Workload::ALL {
            for scenario in workload.scenario_names() {
                for name in scenario_metric_names(&scenario) {
                    assert!(valid_name(&name), "{name}");
                    assert!(per_layer.contains(&name.as_str()), "{name} is not declared");
                }
            }
        }
        assert_eq!(
            scenario_metric_names("ABE"),
            ["scenario.ABE.s".to_string(), "scenario.ABE.replications".to_string()]
        );
    }

    #[test]
    fn schema_names_are_valid_unique_and_match_benchmark_json() {
        let schema = Schema::parse(INTERACTION_MAP).unwrap();
        let mut names: Vec<&str> = schema
            .end_to_end
            .iter()
            .chain(&schema.per_layer)
            .map(|m| {
                assert!(valid_name(&m.name), "{}", m.name);
                assert!(matches!(m.better.as_str(), "higher" | "lower"), "{}", m.name);
                m.name.as_str()
            })
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "metric names must be unique");
        assert!(schema.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));

        let declared = Schema::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(declared, schema, "BENCHMARK.json and interaction_map.json disagree");
    }

    #[test]
    fn result_line_prints_every_declared_metric_with_its_unit() {
        let decls = [
            MetricDecl { name: "a_s".into(), unit: "s".into(), better: "lower".into() },
            MetricDecl { name: "b".into(), unit: "count".into(), better: "higher".into() },
        ];
        let line =
            result_line(7, 0, &decls, |name| Some(if name == "a_s" { 1.25 } else { 3.0 })).unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\"a_s\":{\"value\":1.25,\
             \"unit\":\"s\"},\"b\":{\"value\":3,\"unit\":\"count\"}}}"
        );
        assert!(result_line(7, 1, &decls, |_| Some(1.0)).unwrap().contains("\"correct\":false"));
        assert!(result_line(1, 0, &decls, |_| None).is_err());
        assert!(result_line(1, 0, &decls, |_| Some(f64::NAN)).is_err());
    }
}
