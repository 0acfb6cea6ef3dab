//! CI bench-regression guard.
//!
//! Usage: `bench_guard <baseline BENCH.json> <fresh BENCH.json>`
//!
//! Compares a fresh `BENCH.json` from the microbench with the committed
//! baseline. Every row holds one number as `{name, layer, unit, value,
//! workers}`, and the row's unit alone picks the rule its fresh value must
//! meet:
//!
//! | unit | fresh value |
//! |---|---|
//! | `count` | equal to the baseline: work done at a fixed seed repeats exactly |
//! | `ratio`, `events/s`, `states/s` | at least 0.75 × the baseline |
//! | `percent` | at most the baseline + 2 points |
//! | `ns/iter` | anything: reported, never fails |
//!
//! Rows pair across the two files by `(name, unit, workers)`; no rule looks
//! at a row's name. A baseline row the fresh run lacks is a
//! [`GuardError::MissingRows`]: a row leaves the baseline in the change
//! that stops measuring it. A fresh row without a baseline is reported as
//! new.
//!
//! Exit status: 0 when every row meets its rule, 1 when one does not, and
//! 2 for a usage error or a [`GuardError`]. Every failure mode — a missing
//! or truncated `BENCH.fresh.json`, a document that is not the row shape
//! (the retired seven-field rows included), an unknown unit, missing
//! baseline rows — is a typed [`GuardError`] naming the offending file,
//! never a panic, so a broken bench run produces an actionable CI message
//! instead of a backtrace.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::process::ExitCode;

use cfs_bench::Unit;
use serde::{json, Value};

/// Everything that stops the guard from comparing two ledgers: each
/// variant names the offending file so CI output points straight at the
/// problem.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GuardError {
    /// The file could not be read (missing `BENCH.fresh.json` after a bench
    /// run that died, unreadable baseline, …).
    Io {
        /// Path that failed to read.
        path: String,
        /// The underlying I/O error as text.
        reason: String,
    },
    /// The file exists but is not valid JSON (typically truncated by a
    /// killed bench run).
    Parse {
        /// Path of the malformed document.
        path: String,
        /// Byte offset the parser stopped at.
        offset: usize,
        /// What the parser expected.
        message: String,
    },
    /// The document is valid JSON but not a ledger of five-key rows.
    Schema {
        /// Path of the off-schema document.
        path: String,
        /// Which expectation the document broke.
        reason: String,
    },
    /// Baseline rows the fresh ledger lacks.
    MissingRows {
        /// Path of the fresh ledger.
        path: String,
        /// The missing rows, as `name [unit, Nw]`.
        rows: Vec<String>,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::Io { path, reason } => write!(f, "cannot read {path}: {reason}"),
            GuardError::Parse { path, offset, message } => write!(
                f,
                "{path} is not valid JSON (byte {offset}: {message}) — \
                 usually a bench run that died mid-write"
            ),
            GuardError::Schema { path, reason } => {
                write!(f, "{path} is not a BENCH.json ledger: {reason}")
            }
            GuardError::MissingRows { path, rows } => write!(
                f,
                "{path} lacks {} baseline row(s): {} — a change that stops measuring a row \
                 also drops it from the committed BENCH.json",
                rows.len(),
                rows.join(", ")
            ),
        }
    }
}

impl Error for GuardError {}

/// The keys of every ledger row.
const ROW_KEYS: [&str; 5] = ["name", "layer", "unit", "value", "workers"];

/// The fraction of its baseline a `ratio`, `events/s` or `states/s` row
/// may fall to.
const RELATIVE_FLOOR: f64 = 0.75;

/// The percentage points a `percent` row may grow by.
const PERCENT_HEADROOM_POINTS: f64 = 2.0;

/// A row's identity across runs: name, unit, worker count.
type RowKey = (String, Unit, u64);

/// Whether a row of `unit` meets its rule with `fresh` against `baseline`.
fn passes(unit: Unit, baseline: f64, fresh: f64) -> bool {
    match unit {
        Unit::Count => fresh == baseline,
        Unit::Ratio | Unit::EventsPerSec | Unit::StatesPerSec => fresh >= RELATIVE_FLOOR * baseline,
        Unit::Percent => fresh <= baseline + PERCENT_HEADROOM_POINTS,
        Unit::NsPerIter => true,
    }
}

/// The rule of `unit`, as the report states it.
fn rule(unit: Unit) -> String {
    match unit {
        Unit::Count => "must equal the baseline".to_string(),
        Unit::Ratio | Unit::EventsPerSec | Unit::StatesPerSec => {
            format!("floor {RELATIVE_FLOOR} x baseline")
        }
        Unit::Percent => format!("ceiling baseline + {PERCENT_HEADROOM_POINTS} points"),
        Unit::NsPerIter => "reported only".to_string(),
    }
}

fn label((name, unit, workers): &RowKey) -> String {
    format!("{name} [{}, {workers}w]", unit.label())
}

/// Reads and parses one BENCH.json into its rows, wrapping each failure
/// mode in its typed error.
fn load_rows(path: &str) -> Result<BTreeMap<RowKey, f64>, GuardError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| GuardError::Io { path: path.to_string(), reason: e.to_string() })?;
    let doc = json::parse(&text).map_err(|e| GuardError::Parse {
        path: path.to_string(),
        offset: e.offset,
        message: e.message,
    })?;
    rows(path, &doc)
}

/// Extracts `(name, unit, workers) -> value` from a parsed BENCH.json.
fn rows(path: &str, doc: &Value) -> Result<BTreeMap<RowKey, f64>, GuardError> {
    let schema_error = |reason: String| GuardError::Schema { path: path.to_string(), reason };
    let records = doc.as_array().ok_or_else(|| schema_error("root must be an array".into()))?;
    let mut rows = BTreeMap::new();
    for (index, record) in records.iter().enumerate() {
        let Value::Object(fields) = record else {
            return Err(schema_error(format!("row {index} is not an object")));
        };
        if fields.len() != ROW_KEYS.len() || ROW_KEYS.iter().any(|key| record.get(key).is_none()) {
            let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
            return Err(schema_error(format!(
                "row {index} has keys {keys:?}; every row has exactly {ROW_KEYS:?}"
            )));
        }
        let text = |key| record.get(key).and_then(Value::as_str);
        let (Some(name), Some(_layer), Some(unit), Some(value), Some(workers)) = (
            text("name"),
            text("layer"),
            text("unit"),
            record.get("value").and_then(Value::as_f64),
            record.get("workers").and_then(Value::as_u64),
        ) else {
            return Err(schema_error(format!(
                "row {index}: name, layer and unit must be strings, value a finite number, \
                 workers a non-negative integer"
            )));
        };
        let Some(unit) = Unit::parse(unit) else {
            let known: Vec<&str> = Unit::ALL.iter().map(|unit| unit.label()).collect();
            return Err(schema_error(format!(
                "row {index} (`{name}`) has unknown unit '{unit}'; the units are {known:?}"
            )));
        };
        let key = (name.to_string(), unit, workers);
        if rows.contains_key(&key) {
            return Err(schema_error(format!("row {index} repeats {}", label(&key))));
        }
        rows.insert(key, value);
    }
    Ok(rows)
}

fn run(baseline_path: &str, fresh_path: &str) -> Result<bool, GuardError> {
    let baseline = load_rows(baseline_path)?;
    let fresh = load_rows(fresh_path)?;
    let missing: Vec<String> =
        baseline.keys().filter(|key| !fresh.contains_key(*key)).map(label).collect();
    if !missing.is_empty() {
        return Err(GuardError::MissingRows { path: fresh_path.to_string(), rows: missing });
    }

    let mut ok = true;
    for (key, &base) in &baseline {
        let new = fresh[key];
        let pass = passes(key.1, base, new);
        ok &= pass;
        println!(
            "guard: {} {}: {new:.4} vs baseline {base:.4} ({})",
            if pass { "ok  " } else { "FAIL" },
            label(key),
            rule(key.1)
        );
    }
    for key in fresh.keys().filter(|key| !baseline.contains_key(*key)) {
        println!("guard: new  {} (no baseline yet)", label(key));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline, fresh] = &args[..] else {
        eprintln!("usage: bench_guard <baseline BENCH.json> <fresh BENCH.json>");
        return ExitCode::from(2);
    };
    match run(baseline, fresh) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench guard failed: a row broke its unit's rule");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("bench guard error: {error}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a baseline and a fresh ledger to files unique to `tag` and
    /// runs the guard over them.
    fn run_on(tag: &str, baseline: &str, fresh: &str) -> Result<bool, GuardError> {
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let baseline_path = dir.join(format!("bench-guard-{tag}-base-{id}.json"));
        let fresh_path = dir.join(format!("bench-guard-{tag}-fresh-{id}.json"));
        std::fs::write(&baseline_path, baseline).unwrap();
        std::fs::write(&fresh_path, fresh).unwrap();
        let result = run(baseline_path.to_str().unwrap(), fresh_path.to_str().unwrap());
        std::fs::remove_file(&baseline_path).unwrap();
        std::fs::remove_file(&fresh_path).unwrap();
        result
    }

    fn row(name: &str, unit: &str, value: f64, workers: u64) -> String {
        format!(
            r#"{{"name": "{name}", "layer": "sanet", "unit": "{unit}", "value": {value}, "workers": {workers}}}"#
        )
    }

    #[test]
    fn parses_the_bench_schema() {
        let doc = json::parse(&format!(
            "[{}, {}, {}]",
            row("san_abe_model_calendar", "events/s", 6.5e6, 1),
            row("study_million_replications_speedup", "ratio", 1.9, 2),
            row("reach_states_per_sec", "states/s", 4.0e4, 1),
        ))
        .unwrap();
        let rows = rows("test.json", &doc).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[&("san_abe_model_calendar".to_string(), Unit::EventsPerSec, 1)], 6.5e6);
        assert_eq!(rows[&("study_million_replications_speedup".to_string(), Unit::Ratio, 2)], 1.9);
        assert_eq!(rows[&("reach_states_per_sec".to_string(), Unit::StatesPerSec, 1)], 4.0e4);
    }

    #[test]
    fn count_rows_must_equal_the_baseline() {
        assert!(passes(Unit::Count, 16_000.0, 16_000.0));
        assert!(!passes(Unit::Count, 16_000.0, 16_001.0));
        // Less work is a change of algorithm too: it fails until the
        // baseline is regenerated.
        assert!(!passes(Unit::Count, 16_000.0, 15_999.0));
    }

    #[test]
    fn ratio_and_throughput_rows_may_fall_to_three_quarters() {
        for unit in [Unit::Ratio, Unit::EventsPerSec, Unit::StatesPerSec] {
            assert!(passes(unit, 2.0, 1.5), "{unit:?}");
            assert!(!passes(unit, 2.0, 1.49), "{unit:?}");
            assert!(passes(unit, 2.0, 40.0), "{unit:?}: improvements never fail");
        }
    }

    #[test]
    fn overhead_rows_are_guarded_absolutely() {
        // Inside the 2-point headroom, beyond it, and an improvement (less
        // overhead, even negative), which never fails.
        assert!(passes(Unit::Percent, 0.8, 2.7));
        assert!(!passes(Unit::Percent, 0.8, 2.9));
        assert!(passes(Unit::Percent, 0.8, -1.0));
    }

    #[test]
    fn unguarded_rows_are_ignored() {
        // ns/iter rows are reported but never fail, however far they move.
        assert!(passes(Unit::NsPerIter, 27.0, 1e9));
        let baseline = format!("[{}]", row("weibull_sample", "ns/iter", 27.0, 1));
        let fresh = format!("[{}]", row("weibull_sample", "ns/iter", 2.7e9, 1));
        assert_eq!(run_on("unguarded", &baseline, &fresh), Ok(true));
    }

    #[test]
    fn a_row_that_breaks_its_rule_fails_the_run() {
        let baseline = format!(
            "[{}, {}]",
            row("san_abe_model_events", "count", 196_348.0, 1),
            row("san_abe_model_calendar", "events/s", 4.0e6, 1)
        );
        let fresh = format!(
            "[{}, {}, {}]",
            row("san_abe_model_calendar", "events/s", 3.9e6, 1),
            row("san_abe_model_events", "count", 196_349.0, 1),
            row("a_new_row", "count", 1.0, 1)
        );
        assert_eq!(run_on("regressed", &baseline, &fresh), Ok(false));
        assert_eq!(run_on("clean", &baseline, &baseline), Ok(true));
    }

    #[test]
    fn a_baseline_row_missing_from_the_fresh_run_is_a_typed_error() {
        let baseline = format!(
            "[{}, {}]",
            row("study_million_replications_speedup", "ratio", 1.9, 2),
            row("telemetry_overhead_pct", "percent", 0.3, 1)
        );
        // Same name, other worker count: still not the baseline's row.
        let fresh = format!(
            "[{}, {}]",
            row("study_million_replications_speedup", "ratio", 1.9, 4),
            row("telemetry_overhead_pct", "percent", 0.3, 1)
        );
        match run_on("missing", &baseline, &fresh).unwrap_err() {
            GuardError::MissingRows { rows, .. } => {
                assert_eq!(rows, ["study_million_replications_speedup [ratio, 2w]"]);
            }
            other => panic!("expected MissingRows, got {other}"),
        }
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = run("/nonexistent/baseline.json", "/nonexistent/fresh.json").unwrap_err();
        match &err {
            GuardError::Io { path, .. } => assert_eq!(path, "/nonexistent/baseline.json"),
            other => panic!("expected Io error, got {other}"),
        }
        assert!(err.to_string().contains("cannot read"), "{err}");
    }

    #[test]
    fn truncated_fresh_file_is_a_typed_parse_error() {
        // A bench run killed mid-write leaves a truncated document.
        let err = run_on("truncated", "[]", r#"[{"name": "san_abe_model_calendar", "unit": "ev"#)
            .unwrap_err();
        match &err {
            GuardError::Parse { path, .. } => assert!(path.contains("truncated-fresh"), "{path}"),
            other => panic!("expected Parse error, got {other}"),
        }
        assert!(err.to_string().contains("not valid JSON"), "{err}");
    }

    #[test]
    fn off_schema_documents_are_typed_schema_errors() {
        let schema_error = |doc: &str| match rows("test.json", &json::parse(doc).unwrap()) {
            Err(GuardError::Schema { reason, .. }) => reason,
            other => panic!("expected a Schema error for {doc}, got {other:?}"),
        };
        assert!(schema_error(r#"{"not": "an array"}"#).contains("array"));
        assert!(schema_error(r#"[{"unit": "events/s"}]"#).contains("exactly"));
        // The retired seven-field row shape.
        let old = r#"[{"name": "san_abe_model_calendar", "unit": "events/s", "workers": null,
                       "ns_per_iter": 100.5, "events_per_sec": 6.5e6, "speedup": 1.8,
                       "replications_to_target": null}]"#;
        assert!(schema_error(old).contains("exactly"));
        let unknown = format!("[{}]", row("sweep_replication_vs_raid", "points/s", 4.0, 1));
        let reason = schema_error(&unknown);
        assert!(reason.contains("unknown unit 'points/s'"), "{reason}");
        let null_value = r#"[{"name": "x", "layer": "sanet", "unit": "count", "value": null,
                              "workers": 1}]"#;
        assert!(schema_error(null_value).contains("finite number"));
        let twice = format!("[{0}, {0}]", row("x", "count", 1.0, 1));
        assert!(schema_error(&twice).contains("repeats"));
    }
}
