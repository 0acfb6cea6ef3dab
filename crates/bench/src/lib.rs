//! The benchmark harness of the paper's evaluation.
//!
//! * `abe-tables` and `abe-figures` regenerate Tables 1–5, Figures 2–4 and
//!   the ablations through the [`cfs_model::Study`] API under
//!   [`study_spec`], then print the report and, after it, one `paper:`
//!   line per published value of [`PAPER_VALUES`] whose artefact ran.
//!   Replication counts default to values that finish in
//!   seconds-to-minutes on a laptop and can be overridden with the
//!   `CFS_BENCH_REPLICATIONS`, `CFS_BENCH_HORIZON_HOURS`, and
//!   `CFS_BENCH_WORKERS` environment variables for higher-precision runs;
//!   a set value that does not parse stops the run.
//! * The microbench (`cargo bench -p cfs-bench --bench microbench`) times
//!   the simulation substrates into the `BENCH.json` ledger, one
//!   [`BenchRecord`] per number, and `bench_guard` checks a fresh ledger
//!   against the committed one by each row's [`Unit`]. The microbench
//!   reads none of the variables above: it measures fixed work, so a CI
//!   run and the committed baseline compare like with like.

#![forbid(unsafe_code)]

use std::ffi::OsString;
use std::fmt::Write as _;
use std::time::Instant;

use cfs_model::{Report, RunSpec};
use serde::{Serialize, Value};

/// The unit of a [`BenchRecord`]'s value. `bench_guard` takes each row's
/// rule from its unit alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Work done at a fixed seed, which repeats exactly from run to run.
    Count,
    /// A dimensionless, higher-is-better ratio: a speedup or a
    /// variance-reduction factor.
    Ratio,
    /// A lower-is-better overhead in percentage points.
    Percent,
    /// Simulation events per second.
    EventsPerSec,
    /// Reachable markings interned per second.
    StatesPerSec,
    /// Mean wall-clock nanoseconds per iteration.
    NsPerIter,
}

impl Unit {
    /// Every unit, in declaration order.
    pub const ALL: [Unit; 6] = [
        Unit::Count,
        Unit::Ratio,
        Unit::Percent,
        Unit::EventsPerSec,
        Unit::StatesPerSec,
        Unit::NsPerIter,
    ];

    /// The unit's label in `BENCH.json`.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Count => "count",
            Unit::Ratio => "ratio",
            Unit::Percent => "percent",
            Unit::EventsPerSec => "events/s",
            Unit::StatesPerSec => "states/s",
            Unit::NsPerIter => "ns/iter",
        }
    }

    /// The unit a `BENCH.json` label names, if any.
    pub fn parse(label: &str) -> Option<Unit> {
        Unit::ALL.into_iter().find(|unit| unit.label() == label)
    }
}

impl Serialize for Unit {
    fn to_value(&self) -> Value {
        Value::String(self.label().to_string())
    }
}

/// One row of the `BENCH.json` ledger: one number, the layer it measures,
/// its unit, and the worker-thread count it was measured at. A row is
/// identified across runs by `(name, unit, workers)`.
#[derive(Debug, Clone, Serialize)]
pub struct BenchRecord {
    /// What the number measures. Bare: the unit belongs in
    /// [`BenchRecord::unit`].
    pub name: String,
    /// The module whose work the number measures (e.g. `"sanet"`,
    /// `"probdist::parallel"`).
    pub layer: &'static str,
    /// The unit of [`BenchRecord::value`].
    pub unit: Unit,
    /// The measured number.
    pub value: f64,
    /// Worker threads the measurement ran on.
    pub workers: u64,
}

impl BenchRecord {
    /// A row measured on one thread.
    pub fn new(name: impl Into<String>, layer: &'static str, unit: Unit, value: f64) -> Self {
        BenchRecord { name: name.into(), layer, unit, value, workers: 1 }
    }

    /// Sets the worker-thread count the row was measured at.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers as u64;
        self
    }
}

/// Path the microbench writes its JSON results to: `CFS_BENCH_JSON` if set,
/// else `BENCH.json` at the workspace root.
///
/// Cargo runs bench binaries with the *crate* directory as working
/// directory, which would otherwise bury the artifact under
/// `crates/bench/` — so a **relative** `CFS_BENCH_JSON` is also anchored
/// at the workspace root, matching where `bench_guard` (invoked from the
/// root) looks for it. An absolute override is used verbatim.
pub fn bench_json_path() -> std::path::PathBuf {
    let workspace_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| std::path::PathBuf::from("."), std::path::Path::to_path_buf);
    if let Some(path) = std::env::var_os("CFS_BENCH_JSON") {
        let path = std::path::PathBuf::from(path);
        return if path.is_absolute() { path } else { workspace_root.join(path) };
    }
    workspace_root.join("BENCH.json")
}

/// Writes the collected records as a JSON array to [`bench_json_path`] and
/// returns the path written.
///
/// # Errors
///
/// Propagates the I/O error if the file cannot be written.
pub fn write_bench_json(records: &[BenchRecord]) -> std::io::Result<std::path::PathBuf> {
    let path = bench_json_path();
    std::fs::write(&path, serde::to_json_pretty(records))?;
    Ok(path)
}

/// Default number of simulation replications per experiment point.
pub const DEFAULT_REPLICATIONS: usize = 16;

/// Default simulation horizon (hours) per replication: one year.
pub const DEFAULT_HORIZON_HOURS: f64 = 8760.0;

/// Default seed used by the harness, so published numbers are reproducible.
pub const DEFAULT_SEED: u64 = 20080625;

/// The harness's run spec: the `CFS_BENCH_REPLICATIONS`,
/// `CFS_BENCH_HORIZON_HOURS` and `CFS_BENCH_WORKERS` (`0` = auto, at most
/// 1024) overrides applied on top of the reproducible defaults. An unset
/// variable keeps its default. A set one is passed on as parsed, so an
/// out-of-range value reaches [`RunSpec::validate`], which names it when
/// the run starts.
///
/// # Panics
///
/// If a set variable does not parse; the message names the variable and
/// its value.
pub fn study_spec() -> RunSpec {
    spec_from(|name| std::env::var_os(name)).unwrap_or_else(|message| panic!("{message}"))
}

/// [`study_spec`] over any variable lookup, so the parsing can be tested
/// without touching the process environment.
fn spec_from(lookup: impl Fn(&str) -> Option<OsString>) -> Result<RunSpec, String> {
    let horizon = env_override(&lookup, "CFS_BENCH_HORIZON_HOURS", DEFAULT_HORIZON_HOURS)?;
    let replications = env_override(&lookup, "CFS_BENCH_REPLICATIONS", DEFAULT_REPLICATIONS)?;
    let workers = env_override(&lookup, "CFS_BENCH_WORKERS", 0)?;
    Ok(RunSpec::new()
        .with_horizon_hours(horizon)
        .with_replications(replications)
        .with_base_seed(DEFAULT_SEED)
        .with_workers(workers))
}

/// The value of variable `name`: `default` when it is unset, its parsed
/// value when it is set, and an error naming the variable and its value
/// when a set value does not parse.
fn env_override<T: std::str::FromStr>(
    lookup: &impl Fn(&str) -> Option<OsString>,
    name: &str,
    default: T,
) -> Result<T, String> {
    let Some(value) = lookup(name) else { return Ok(default) };
    value
        .to_str()
        .and_then(|text| text.parse().ok())
        .ok_or_else(|| format!("{name}={value:?} does not parse as {}", std::any::type_name::<T>()))
}

/// Runs a closure, printing a banner, its result table, and the elapsed
/// time. Panics (failing the bench run) if the experiment errors, which is
/// the desired behaviour for a regression harness.
pub fn run_and_print<T, E: std::fmt::Display>(
    name: &str,
    run: impl FnOnce() -> Result<T, E>,
    render: impl FnOnce(&T) -> String,
) -> T {
    println!("==== {name} ====");
    let start = Instant::now();
    let result = match run() {
        Ok(r) => r,
        Err(e) => panic!("{name} failed: {e}"),
    };
    let elapsed = start.elapsed();
    println!("{}", render(&result));
    println!("[{name}] regenerated in {:.2} s\n", elapsed.as_secs_f64());
    result
}

/// One of the paper's published values, beside the report metrics that
/// reproduce it.
#[derive(Debug, Clone, Copy)]
pub struct PaperValue {
    /// The artefact that states the value, as the paper numbers it.
    pub artefact: &'static str,
    /// The scenario whose output carries the metrics.
    pub scenario: &'static str,
    /// The value as published.
    pub published: &'static str,
    /// The reproducing metrics, each with the decimals it prints at.
    pub metrics: &'static [(&'static str, usize)],
}

/// The paper's published values, one row per artefact that states one.
pub const PAPER_VALUES: [PaperValue; 6] = [
    PaperValue {
        artefact: "Table 1",
        scenario: "table1_outages",
        published: "SAN availability 0.97-0.98",
        metrics: &[("san_availability", 4), ("outages", 0)],
    },
    PaperValue {
        artefact: "Table 2",
        scenario: "table2_mount_failures",
        published: "12 storm days, peak 591 nodes",
        metrics: &[("storm_days", 0), ("peak_day_nodes", 0)],
    },
    PaperValue {
        artefact: "Table 3",
        scenario: "table3_jobs",
        published: "transient:other job-failure ratio ~6.7 (1234/184)",
        metrics: &[("transient_to_other_ratio", 2)],
    },
    PaperValue {
        artefact: "Table 4",
        scenario: "table4_disk_weibull",
        published: "Weibull shape 0.696 (sd 0.192), 0-2 replacements/week",
        metrics: &[
            ("weibull_shape", 3),
            ("weibull_shape_std_error", 3),
            ("mean_replacements_per_week", 2),
        ],
    },
    PaperValue {
        artefact: "Figure 3",
        scenario: "figure3_disk_replacements",
        published: "ABE configuration 0-2 replacements/week",
        metrics: &[("replacements_per_week (0.7,2.92,8+2,4) @480 disks", 2)],
    },
    PaperValue {
        artefact: "Figure 4",
        scenario: "figure4_cfs_availability",
        published: "CFS availability 0.972 -> 0.909, spare OSS +3%",
        metrics: &[
            ("cfs_availability_first", 3),
            ("cfs_availability_last", 3),
            ("spare_oss_gain_last", 3),
        ],
    },
];

/// One `paper:` line per [`PAPER_VALUES`] row whose scenario `report`
/// ran: the value as published, then each reproducing metric as measured.
///
/// # Panics
///
/// If a scenario that ran lacks a metric the table names: the scenario
/// renamed it without this table following.
pub fn paper_lines(report: &Report) -> String {
    let mut lines = String::new();
    for value in &PAPER_VALUES {
        let Some(output) = report.output(value.scenario) else { continue };
        let measured: Vec<String> = value
            .metrics
            .iter()
            .map(|&(name, decimals)| {
                let Some(measured) = output.metric(name) else {
                    panic!("{} reports no metric '{name}'", value.scenario)
                };
                format!("{name} {measured:.decimals$}")
            })
            .collect();
        let _ = writeln!(
            lines,
            "paper: {} | {} | measured: {}",
            value.artefact,
            value.published,
            measured.join(", ")
        );
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lookup over a fixed variable list instead of the environment.
    fn lookup(vars: &[(&'static str, &'static str)]) -> impl Fn(&str) -> Option<OsString> {
        let vars = vars.to_vec();
        move |name| vars.iter().find(|(var, _)| *var == name).map(|(_, value)| (*value).into())
    }

    #[test]
    fn defaults_are_sane() {
        let spec = spec_from(lookup(&[])).unwrap();
        assert_eq!(spec.replications(), DEFAULT_REPLICATIONS);
        assert_eq!(spec.horizon_hours(), DEFAULT_HORIZON_HOURS);
        assert_eq!(spec.workers(), 0);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.base_seed(), DEFAULT_SEED);
    }

    #[test]
    fn set_overrides_apply_as_parsed() {
        let spec = spec_from(lookup(&[
            ("CFS_BENCH_REPLICATIONS", "4"),
            ("CFS_BENCH_HORIZON_HOURS", "2000"),
            ("CFS_BENCH_WORKERS", "2"),
        ]))
        .unwrap();
        assert_eq!((spec.replications(), spec.horizon_hours(), spec.workers()), (4, 2000.0, 2));
    }

    #[test]
    fn unparsable_overrides_name_the_variable_and_its_value() {
        for (var, value) in [
            ("CFS_BENCH_REPLICATIONS", "4x"),
            ("CFS_BENCH_REPLICATIONS", "1.5"),
            ("CFS_BENCH_HORIZON_HOURS", "a year"),
            ("CFS_BENCH_WORKERS", "two"),
            ("CFS_BENCH_WORKERS", "-1"),
        ] {
            let err = spec_from(lookup(&[(var, value)])).unwrap_err();
            assert!(err.contains(var) && err.contains(value), "{err}");
        }
    }

    /// Out-of-range values are not replaced by defaults: they reach
    /// `RunSpec::validate`, which names them.
    #[test]
    fn out_of_range_overrides_fail_validation() {
        for (var, value, expected) in [
            ("CFS_BENCH_REPLICATIONS", "1", "at least two replications"),
            ("CFS_BENCH_REPLICATIONS", "20080625", "swapped replications/seed"),
            ("CFS_BENCH_HORIZON_HOURS", "-5", "horizon must be positive"),
            ("CFS_BENCH_HORIZON_HOURS", "inf", "horizon must be positive and finite"),
            ("CFS_BENCH_WORKERS", "20080625", "swapped workers/seed"),
        ] {
            let spec = spec_from(lookup(&[(var, value)])).unwrap();
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.contains(expected), "{var}={value}: {err}");
        }
    }

    #[test]
    fn run_and_print_returns_the_result() {
        let value = run_and_print("test", || Ok::<_, String>(41 + 1), |v| format!("value = {v}"));
        assert_eq!(value, 42);
    }

    #[test]
    #[should_panic(expected = "boom failed")]
    fn run_and_print_panics_on_error() {
        let _ = run_and_print(
            "boom",
            || Err::<i32, _>("nope".to_string()),
            std::string::ToString::to_string,
        );
    }

    #[test]
    fn bench_records_serialise_with_stable_field_names() {
        let records = [
            BenchRecord::new("plain", "probdist", Unit::NsPerIter, 12.5),
            BenchRecord::new("engine", "sanet", Unit::EventsPerSec, 2.0e6),
            BenchRecord::new("pool", "probdist::parallel", Unit::Ratio, 1.5).with_workers(2),
        ];
        let json = serde::to_json(&records[..]);
        assert_eq!(
            json,
            "[{\"name\":\"plain\",\"layer\":\"probdist\",\"unit\":\"ns/iter\",\
             \"value\":12.5,\"workers\":1},\
             {\"name\":\"engine\",\"layer\":\"sanet\",\"unit\":\"events/s\",\
             \"value\":2000000,\"workers\":1},\
             {\"name\":\"pool\",\"layer\":\"probdist::parallel\",\"unit\":\"ratio\",\
             \"value\":1.5,\"workers\":2}]"
        );
        for unit in Unit::ALL {
            assert_eq!(Unit::parse(unit.label()), Some(unit));
        }
        assert_eq!(Unit::parse("replications/s"), None);
    }

    #[test]
    fn every_published_value_names_a_metric_the_report_renders() {
        // A short run is enough: the table checks metric names, not values.
        let spec = RunSpec::new()
            .with_horizon_hours(500.0)
            .with_replications(2)
            .with_base_seed(DEFAULT_SEED);
        let report =
            cfs_model::Study::tables().and(cfs_model::Study::figures()).run(&spec).unwrap();
        for value in &PAPER_VALUES {
            let output = report.output(value.scenario).unwrap_or_else(|| {
                panic!("{} names scenario '{}', which did not run", value.artefact, value.scenario)
            });
            for (name, _) in value.metrics {
                assert!(
                    output.metric(name).is_some(),
                    "{} names metric '{name}', which {} does not report",
                    value.artefact,
                    value.scenario
                );
            }
        }
        let lines = paper_lines(&report);
        assert_eq!(lines.lines().count(), PAPER_VALUES.len(), "{lines}");
        assert!(lines.lines().all(|line| line.starts_with("paper: ")), "{lines}");
    }

    #[test]
    fn bench_json_path_defaults_to_workspace_root() {
        // Without the env override the artifact must land at the workspace
        // root (not inside crates/bench, cargo's bench working directory).
        if std::env::var_os("CFS_BENCH_JSON").is_none() {
            let path = bench_json_path();
            assert!(path.ends_with("BENCH.json"));
            assert!(path.parent().is_some_and(|p| p.join("Cargo.lock").exists()));
        }
    }

    #[test]
    fn relative_env_override_is_anchored_at_the_workspace_root() {
        // A relative CFS_BENCH_JSON must resolve the same way for the
        // microbench (cwd = crates/bench) and bench_guard (cwd = root);
        // anchoring both at the workspace root is what guarantees the
        // guard finds the file the bench just wrote. Exercised through the
        // same resolution logic rather than by mutating the process
        // environment (tests share it).
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap();
        assert!(root.join("Cargo.lock").exists(), "ancestor walk found the workspace root");
        if let Some(path) = std::env::var_os("CFS_BENCH_JSON") {
            let resolved = bench_json_path();
            if std::path::PathBuf::from(&path).is_relative() {
                assert_eq!(resolved, root.join(path));
            }
        }
    }
}
