//! The unified report sink: aligned text tables, CSV, and JSON rendering
//! for every scenario result.
//!
//! Every [`crate::scenario::Scenario`] renders its results as
//! [`TextTable`]s inside its [`ScenarioOutput`]; a [`Report`] collects the
//! outputs of a [`crate::study::Study`] run and renders them all in any
//! [`ReportFormat`].

pub mod csv;

use std::fmt::Write as _;

use serde::Serialize;

use crate::run::RunSpec;
use crate::scenario::ScenarioOutput;

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[impl AsRef<str>]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|h| h.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are padded with empty
    /// cells; longer rows are truncated.
    pub(crate) fn add_row(&mut self, cells: &[String]) {
        let mut row: Vec<String> = cells.iter().take(self.headers.len()).cloned().collect();
        while row.len() < self.headers.len() {
            row.push(String::new());
        }
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as CSV (headers plus data rows, RFC-4180 quoting).
    /// This is the generic replacement for the per-figure CSV exporters in
    /// [`csv`].
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&csv::record(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&csv::record(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let columns = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }

        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let separator: String =
            widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("+");
        let _ = writeln!(out, "{separator}");
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!(" {:<width$} ", h, width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header_line.join("|"));
        let _ = writeln!(out, "{separator}");
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("|"));
        }
        let _ = writeln!(out, "{separator}");
        out
    }
}

/// Formats a point estimate with its confidence half-width, e.g.
/// `0.9721 ±0.0012`.
pub(crate) fn fmt_ci(interval: &probdist::stats::ConfidenceInterval, decimals: usize) -> String {
    format!("{:.prec$} ±{:.prec$}", interval.point, interval.half_width, prec = decimals)
}

/// Output format of a [`Report`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Aligned plain-text tables plus a metrics summary.
    Text,
    /// One tidy CSV of every scenario's metrics
    /// (`scenario,metric,value,ci_half_width`).
    Csv,
    /// The full report (spec, tables, and metrics) as indented JSON.
    Json,
}

impl ReportFormat {
    /// Parses a format name (`text` / `csv` / `json`), case-insensitively
    /// and ignoring surrounding whitespace (names typically arrive from
    /// command lines and environment variables).
    pub fn parse(name: &str) -> Option<ReportFormat> {
        match name.trim().to_ascii_lowercase().as_str() {
            "text" | "txt" => Some(ReportFormat::Text),
            "csv" => Some(ReportFormat::Csv),
            "json" => Some(ReportFormat::Json),
            _ => None,
        }
    }

    /// The canonical lower-case name, the inverse of [`ReportFormat::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            ReportFormat::Text => "text",
            ReportFormat::Csv => "csv",
            ReportFormat::Json => "json",
        }
    }
}

/// A scenario failure contained by a fault-tolerant study run: the
/// scenario panicked or returned an error, the study kept the worker pool
/// and its sibling scenarios intact, and the failure is reported here
/// instead of unwinding the process (see
/// [`crate::run::FailurePolicy::ContinueAndReport`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioFailure {
    /// Name of the failed scenario.
    pub scenario: String,
    /// The replication index that panicked, when the failure originated in
    /// a replication fan-out (`None` for failures outside it).
    pub replication: Option<u64>,
    /// The panic payload or error rendered as text.
    pub message: String,
    /// Wall-clock seconds the scenario ran before failing.
    pub elapsed_seconds: f64,
}

/// The unified result sink of a [`crate::study::Study`] run: the spec the
/// study ran under, every scenario's output, and — under a fault-tolerant
/// failure policy — every contained failure, renderable as text, CSV, or
/// JSON through one interface.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// The run spec every scenario was evaluated under.
    pub spec: RunSpec,
    /// Scenario outputs, in study execution order.
    pub outputs: Vec<ScenarioOutput>,
    /// Failures contained by [`crate::run::FailurePolicy::ContinueAndReport`],
    /// in study execution order. Always empty under the default abort
    /// policy (the first failure surfaces as a [`crate::CfsError`] instead).
    pub failures: Vec<ScenarioFailure>,
    /// The telemetry delta of the run that produced this report, attached
    /// when the spec carried [`crate::run::RunSpec::with_telemetry`].
    pub telemetry: Option<probdist::telemetry::TelemetrySnapshot>,
}

impl Report {
    /// Creates a report from a spec and the outputs it produced, with no
    /// contained failures.
    pub fn new(spec: RunSpec, outputs: Vec<ScenarioOutput>) -> Self {
        Report { spec, outputs, failures: Vec::new(), telemetry: None }
    }

    /// Attaches the failures a fault-tolerant run contained.
    pub fn with_failures(mut self, failures: Vec<ScenarioFailure>) -> Self {
        self.failures = failures;
        self
    }

    /// Attaches the telemetry snapshot of the run.
    pub fn with_telemetry(mut self, snapshot: probdist::telemetry::TelemetrySnapshot) -> Self {
        self.telemetry = Some(snapshot);
        self
    }

    /// Drops every wall-clock artefact — per-scenario timings and the
    /// telemetry attachment — leaving only the deterministic statistics.
    /// Two runs with the same seed and replication count then render byte
    /// for byte identically, the form the determinism and resume tests
    /// compare.
    pub fn without_wall_clock(mut self) -> Self {
        self.outputs = self.outputs.into_iter().map(ScenarioOutput::without_wall_clock).collect();
        self.telemetry = None;
        self
    }

    /// Looks up a scenario's output by name.
    pub fn output(&self, scenario: &str) -> Option<&ScenarioOutput> {
        self.outputs.iter().find(|o| o.scenario == scenario)
    }

    /// Renders the report in the requested format.
    pub fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Text => self.to_text(),
            ReportFormat::Csv => self.to_csv(),
            ReportFormat::Json => self.to_json(),
        }
    }

    /// Renders every scenario's tables and metrics as aligned plain text.
    /// Adaptive specs report their precision target in the header, and each
    /// Monte-Carlo scenario reports the replication count it actually used.
    pub fn to_text(&self) -> String {
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanReportRender);
        let mut out = String::new();
        let replication_policy = match self.spec.precision_target() {
            Some(target) => format!(
                "precision ±{:.2}% ({}..{} replications)",
                target.relative_half_width * 100.0,
                target.min_replications,
                target.max_replications
            ),
            None => format!("{} replications", self.spec.replications()),
        };
        let _ = writeln!(
            out,
            "Study report: {} scenario(s), horizon {} h, {}, seed {}, {:.0}% CI",
            self.outputs.len(),
            self.spec.horizon_hours(),
            replication_policy,
            self.spec.base_seed(),
            self.spec.confidence_level() * 100.0,
        );
        for output in &self.outputs {
            let _ = writeln!(out, "\n==== {} ====", output.scenario);
            for table in &output.tables {
                let _ = writeln!(out, "{}", table.render());
            }
            for metric in &output.metrics {
                match metric.half_width {
                    Some(half_width) => {
                        let _ = writeln!(out, "{}: {} ±{}", metric.name, metric.value, half_width);
                    }
                    None => {
                        let _ = writeln!(out, "{}: {}", metric.name, metric.value);
                    }
                }
            }
            if let Some(used) = output.replications_used {
                let _ = writeln!(out, "replications used: {used}");
            }
            if let Some(elapsed) = output.elapsed_seconds {
                let _ = writeln!(out, "elapsed: {elapsed:.3} s");
            }
            if output.truncated {
                let _ = writeln!(
                    out,
                    "TRUNCATED: the deadline expired; statistics cover the completed \
                     replication prefix only"
                );
            }
        }
        if !self.failures.is_empty() {
            let _ = writeln!(out, "\n==== contained failures ====");
            for failure in &self.failures {
                let location = match failure.replication {
                    Some(index) => format!(" (replication {index})"),
                    None => String::new(),
                };
                let _ = writeln!(
                    out,
                    "{}{location}: {} [after {:.3} s]",
                    failure.scenario, failure.message, failure.elapsed_seconds
                );
            }
        }
        if let Some(telemetry) = &self.telemetry {
            let _ = writeln!(out, "\n==== telemetry ====");
            out.push_str(&telemetry.to_text());
        }
        out
    }

    /// Renders every scenario's metrics as one tidy CSV
    /// (`scenario,metric,value,ci_half_width`), the machine-readable
    /// companion to the presentation tables (render those individually with
    /// [`TextTable::to_csv`]). Monte-Carlo scenarios append a
    /// `replications_used` row recording the count the replication policy
    /// actually spent.
    pub fn to_csv(&self) -> String {
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanReportRender);
        let mut out = String::from("scenario,metric,value,ci_half_width\n");
        for output in &self.outputs {
            for metric in &output.metrics {
                out.push_str(&csv::record(&[
                    output.scenario.clone(),
                    metric.name.clone(),
                    format!("{}", metric.value),
                    metric.half_width.map(|h| format!("{h}")).unwrap_or_default(),
                ]));
                out.push('\n');
            }
            if let Some(used) = output.replications_used {
                out.push_str(&csv::record(&[
                    output.scenario.clone(),
                    "replications_used".to_string(),
                    format!("{used}"),
                    String::new(),
                ]));
                out.push('\n');
            }
            if output.truncated {
                out.push_str(&csv::record(&[
                    output.scenario.clone(),
                    "truncated".to_string(),
                    "true".to_string(),
                    String::new(),
                ]));
                out.push('\n');
            }
            if let Some(elapsed) = output.elapsed_seconds {
                out.push_str(&csv::record(&[
                    output.scenario.clone(),
                    "elapsed_seconds".to_string(),
                    format!("{elapsed}"),
                    String::new(),
                ]));
                out.push('\n');
            }
        }
        for failure in &self.failures {
            // RFC-4180 quoting keeps arbitrary panic text (commas, quotes,
            // newlines) inside one cell.
            out.push_str(&csv::record(&[
                failure.scenario.clone(),
                "failure".to_string(),
                failure.message.clone(),
                failure.replication.map(|i| format!("replication {i}")).unwrap_or_default(),
            ]));
            out.push('\n');
        }
        if let Some(telemetry) = &self.telemetry {
            // The telemetry delta rides along in the same tidy schema under
            // the reserved scenario name `_telemetry`.
            for sample in &telemetry.samples {
                out.push_str(&csv::record(&[
                    "_telemetry".to_string(),
                    sample.name.clone(),
                    format!("{}", sample.value),
                    String::new(),
                ]));
                out.push('\n');
            }
        }
        out
    }

    /// Renders the full report — spec, tables, metrics, and any telemetry
    /// attachment — as indented JSON via serde.
    pub fn to_json(&self) -> String {
        let _span = probdist::telemetry::span(probdist::telemetry::MetricId::SpanReportRender);
        serde::to_json_pretty(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probdist::stats::ConfidenceInterval;

    #[test]
    fn render_aligns_columns_and_includes_all_rows() {
        let mut t = TextTable::new("Table X. Example", &["Cause", "Hours"]);
        t.add_row(&["I/O hardware".into(), "12.95".into()]);
        t.add_row(&["Network".into(), "3.36".into()]);
        let text = t.render();
        assert!(text.contains("Table X. Example"));
        assert!(text.contains("I/O hardware"));
        assert!(text.contains("Network"));
        assert!(text.contains("Cause"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        // Every data line has the same width.
        let lines: Vec<&str> = text.lines().filter(|l| l.contains('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn short_rows_are_padded_and_long_rows_truncated() {
        let mut t = TextTable::new("t", &["a", "b", "c"]);
        t.add_row(&["1".into()]);
        t.add_row(&["1".into(), "2".into(), "3".into(), "4".into()]);
        let text = t.render();
        assert_eq!(t.len(), 2);
        assert!(!text.contains('4'));
    }

    #[test]
    fn report_format_parse_round_trips() {
        for format in [ReportFormat::Text, ReportFormat::Csv, ReportFormat::Json] {
            assert_eq!(ReportFormat::parse(format.name()), Some(format));
            // Case and whitespace variants all resolve to the same format.
            assert_eq!(ReportFormat::parse(&format.name().to_ascii_uppercase()), Some(format));
            assert_eq!(ReportFormat::parse(&format!("  {}\t\n", format.name())), Some(format));
        }
        assert_eq!(ReportFormat::parse("TXT"), Some(ReportFormat::Text));
        assert_eq!(ReportFormat::parse(" Json "), Some(ReportFormat::Json));
        for unknown in ["", "  ", "yaml", "cs v", "json5", "text,csv"] {
            assert_eq!(ReportFormat::parse(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn json_report_escapes_hostile_scenario_names() {
        use crate::scenario::ScenarioOutput;

        let name = "weird \"scenario\"\\with\ncontrol\u{1}chars";
        let output = ScenarioOutput::new(name).with_metric("m", 1.0);
        let report = Report::new(RunSpec::new(), vec![output]);
        let json = report.to_json();
        // Quotes, backslashes, and control characters must be escaped so
        // the document stays valid JSON.
        assert!(json.contains("weird \\\"scenario\\\"\\\\with\\ncontrol\\u0001chars"), "{json}");
        assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n' && c != ' '), "{json}");
        // And the report still round-trips through the named lookup.
        assert!(report.output(name).is_some());
    }

    #[test]
    fn display_rows_and_ci_formatting() {
        let ci =
            ConfidenceInterval { point: 0.97218, half_width: 0.00123, level: 0.95, samples: 32 };
        assert_eq!(fmt_ci(&ci, 4), "0.9722 ±0.0012");
    }
}
