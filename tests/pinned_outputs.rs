//! Integration test: every paper artefact and every design-space sweep
//! reproduces the tables, metrics and replication counts recorded in
//! `tests/data/pinned_outputs.txt`, at a small fixed size (2 replications
//! of 500 hours, 32 splitting trials per level, one worker).
//!
//! Rendered tables and replication counts must match exactly. Metric
//! values and half-widths must match to a relative 1e-12: a last-bit libm
//! difference passes, a reordered draw or a moved seed does not.

use std::fmt::Write as _;

use petascale_cfs::prelude::*;

/// For each scenario: a `== name replications_used=…` line, its rendered
/// tables, then one tab-separated `metric` line per metric holding the
/// name, the value and the half-width (`-` for none) in shortest
/// round-trip form.
const RECORDED: &str = include_str!("data/pinned_outputs.txt");

fn snapshot(report: &Report) -> String {
    let mut out = String::new();
    for output in &report.outputs {
        let _ = writeln!(
            out,
            "== {} replications_used={:?}",
            output.scenario, output.replications_used
        );
        for table in &output.tables {
            out.push_str(&table.render());
        }
        for metric in &output.metrics {
            let half_width =
                metric.half_width.map_or_else(|| "-".to_string(), |h| format!("{h:?}"));
            let _ = writeln!(out, "metric\t{}\t{:?}\t{half_width}", metric.name, metric.value);
        }
    }
    out
}

/// Asserts one recorded number: `-` only matches `-`, anything else must
/// parse and lie within a relative 1e-12 of the recorded value.
fn assert_number(got: &str, want: &str, line: usize) {
    if want == "-" {
        assert_eq!(got, want, "line {line}");
        return;
    }
    let got: f64 = got.parse().unwrap_or_else(|_| panic!("line {line}: `{got}` is not a number"));
    let want: f64 = want.parse().expect("recorded numbers parse");
    assert!((got - want).abs() <= 1e-12 * want.abs(), "line {line}: got {got}, recorded {want}");
}

#[test]
fn paper_artefacts_and_design_sweeps_match_recorded_outputs() {
    let spec = RunSpec::new()
        .with_horizon_hours(500.0)
        .with_replications(2)
        .with_base_seed(20_080_625)
        .with_workers(1)
        .with_rare_event(RareEventPolicy::MultilevelSplitting { trials_per_level: 32 });
    let report = Study::paper_artefacts()
        .with(ReplicationVsRaid::default())
        .with(BeowulfPerformabilitySweep::default())
        .with(UltraReliableSweep::default())
        .run(&spec)
        .expect("every scenario runs");

    let actual = snapshot(&report);
    for (index, (got, want)) in actual.lines().zip(RECORDED.lines()).enumerate() {
        let line = index + 1;
        match (got.strip_prefix("metric\t"), want.strip_prefix("metric\t")) {
            (Some(got), Some(want)) => {
                let got: Vec<&str> = got.split('\t').collect();
                let want: Vec<&str> = want.split('\t').collect();
                assert_eq!(got.len(), 3, "line {line}: {got:?}");
                assert_eq!(got[0], want[0], "line {line}: metric name");
                assert_number(got[1], want[1], line);
                assert_number(got[2], want[2], line);
            }
            _ => assert_eq!(got, want, "line {line}"),
        }
    }
    assert_eq!(actual.lines().count(), RECORDED.lines().count(), "snapshot length");
}
