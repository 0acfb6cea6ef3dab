//! Line-oriented text serialisation of failure logs.
//!
//! The format is intentionally simple so that externally collected logs can
//! be converted into it with a few lines of shell:
//!
//! ```text
//! # faultlog v1 origin=2007-07-01T00:00 window_hours=3480
//! OUTAGE io_hardware 503.0500 516.0000
//! MOUNTFAIL 50.2500 713
//! JOB 10.0000 completed
//! DISK 1571.0000 42
//! ```
//!
//! Timestamps are hours since the window origin, with four decimal places
//! (sub-second precision).

use crate::event::{
    DiskReplacement, EventKind, FailureLog, JobOutcome, JobRecord, LogEvent, MountFailure,
    OutageCause, OutageRecord,
};
use crate::{LogError, SimDate};

/// Serialises a log to the text format.
pub fn to_text(log: &FailureLog) -> String {
    let origin = log.origin();
    let mut out = String::new();
    out.push_str(&format!(
        "# faultlog v1 origin={:04}-{:02}-{:02}T{:02}:{:02} window_hours={}\n",
        origin.year(),
        origin.month(),
        origin.day(),
        origin.hour(),
        origin.minute(),
        log.window_hours()
    ));
    for event in log.events() {
        match &event.kind {
            EventKind::Outage(o) => out.push_str(&format!(
                "OUTAGE {} {:.4} {:.4}\n",
                cause_token(o.cause),
                o.start_hours,
                o.end_hours
            )),
            EventKind::MountFailure(m) => {
                out.push_str(&format!("MOUNTFAIL {:.4} {}\n", m.time_hours, m.node_id));
            }
            EventKind::Job(j) => {
                out.push_str(&format!("JOB {:.4} {}\n", j.submit_hours, outcome_token(j.outcome)));
            }
            EventKind::DiskReplacement(d) => {
                out.push_str(&format!("DISK {:.4} {}\n", d.time_hours, d.disk_id));
            }
        }
    }
    out
}

/// Parses a log from the text format.
///
/// # Errors
///
/// Returns [`LogError::Parse`] with the 1-based line number of the first
/// malformed line, or [`LogError::InvalidConfig`] if the header declares an
/// invalid window.
pub fn from_text(text: &str) -> Result<FailureLog, LogError> {
    let mut lines = text.lines().enumerate();

    let (_, header) =
        lines.next().ok_or(LogError::Parse { line: 1, reason: "empty input".into() })?;
    let (origin, window_hours) = parse_header(header)?;
    let mut log = FailureLog::new(origin, window_hours)?;

    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("non-empty line has a first token");
        let event = match tag {
            "OUTAGE" => {
                let cause = parse_cause(next_field(&mut parts, line_no, "cause")?, line_no)?;
                let start = parse_f64(next_field(&mut parts, line_no, "start")?, line_no)?;
                let end = parse_f64(next_field(&mut parts, line_no, "end")?, line_no)?;
                EventKind::Outage(OutageRecord { cause, start_hours: start, end_hours: end })
            }
            "MOUNTFAIL" => {
                let t = parse_f64(next_field(&mut parts, line_no, "time")?, line_no)?;
                let node = parse_u32(next_field(&mut parts, line_no, "node")?, line_no)?;
                EventKind::MountFailure(MountFailure { time_hours: t, node_id: node })
            }
            "JOB" => {
                let t = parse_f64(next_field(&mut parts, line_no, "time")?, line_no)?;
                let outcome = parse_outcome(next_field(&mut parts, line_no, "outcome")?, line_no)?;
                EventKind::Job(JobRecord { submit_hours: t, outcome })
            }
            "DISK" => {
                let t = parse_f64(next_field(&mut parts, line_no, "time")?, line_no)?;
                let disk = parse_u32(next_field(&mut parts, line_no, "disk")?, line_no)?;
                EventKind::DiskReplacement(DiskReplacement { time_hours: t, disk_id: disk })
            }
            other => {
                return Err(LogError::Parse {
                    line: line_no,
                    reason: format!("unknown record type `{other}`"),
                })
            }
        };
        log.push(LogEvent::new(event));
    }
    log.sort();
    Ok(log)
}

fn cause_token(cause: OutageCause) -> &'static str {
    match cause {
        OutageCause::IoHardware => "io_hardware",
        OutageCause::BatchSystem => "batch_system",
        OutageCause::Network => "network",
        OutageCause::FileSystem => "file_system",
    }
}

fn outcome_token(outcome: JobOutcome) -> &'static str {
    match outcome {
        JobOutcome::Completed => "completed",
        JobOutcome::FailedTransientNetwork => "failed_transient_network",
        JobOutcome::FailedOther => "failed_other",
    }
}

fn parse_cause(token: &str, line: usize) -> Result<OutageCause, LogError> {
    match token {
        "io_hardware" => Ok(OutageCause::IoHardware),
        "batch_system" => Ok(OutageCause::BatchSystem),
        "network" => Ok(OutageCause::Network),
        "file_system" => Ok(OutageCause::FileSystem),
        other => Err(LogError::Parse { line, reason: format!("unknown outage cause `{other}`") }),
    }
}

fn parse_outcome(token: &str, line: usize) -> Result<JobOutcome, LogError> {
    match token {
        "completed" => Ok(JobOutcome::Completed),
        "failed_transient_network" => Ok(JobOutcome::FailedTransientNetwork),
        "failed_other" => Ok(JobOutcome::FailedOther),
        other => Err(LogError::Parse { line, reason: format!("unknown job outcome `{other}`") }),
    }
}

fn next_field<'a>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<&'a str, LogError> {
    parts.next().ok_or_else(|| LogError::Parse { line, reason: format!("missing field `{what}`") })
}

/// Parses an event time, which must be finite: `str::parse` also accepts
/// `NaN` and `inf`, which no analysis can order or bucket.
fn parse_f64(token: &str, line: usize) -> Result<f64, LogError> {
    token.parse::<f64>().ok().filter(|t| t.is_finite()).ok_or_else(|| LogError::Parse {
        line,
        reason: format!("`{token}` is not a finite number"),
    })
}

fn parse_u32(token: &str, line: usize) -> Result<u32, LogError> {
    token
        .parse::<u32>()
        .map_err(|_| LogError::Parse { line, reason: format!("`{token}` is not an integer id") })
}

fn parse_header(header: &str) -> Result<(SimDate, f64), LogError> {
    let err = |reason: &str| LogError::Parse { line: 1, reason: reason.to_string() };
    if !header.starts_with("# faultlog v1") {
        return Err(err("missing `# faultlog v1` header"));
    }
    let mut origin = None;
    let mut window = None;
    for token in header.split_whitespace() {
        if let Some(value) = token.strip_prefix("origin=") {
            origin = Some(parse_origin(value).ok_or_else(|| err("malformed origin timestamp"))?);
        } else if let Some(value) = token.strip_prefix("window_hours=") {
            window = Some(value.parse::<f64>().map_err(|_| err("malformed window_hours"))?);
        }
    }
    match (origin, window) {
        (Some(o), Some(w)) => Ok((o, w)),
        _ => Err(err("header must declare origin= and window_hours=")),
    }
}

fn parse_origin(value: &str) -> Option<SimDate> {
    // Format: YYYY-MM-DDTHH:MM
    let (date, time) = value.split_once('T')?;
    let mut d = date.split('-');
    let year: i32 = d.next()?.parse().ok()?;
    let month: u8 = d.next()?.parse().ok()?;
    let day: u8 = d.next()?.parse().ok()?;
    let (h, m) = time.split_once(':')?;
    Some(SimDate::new(year, month, day, h.parse().ok()?, m.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{LogGenConfig, LogGenerator};

    #[test]
    fn roundtrip_preserves_generated_log() {
        let mut cfg = LogGenConfig::abe_calibrated();
        cfg.window_hours = 500.0; // keep the text small
        let log = LogGenerator::new(cfg).generate(11).unwrap();
        let text = to_text(&log);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.len(), log.len());
        assert_eq!(parsed.origin(), log.origin());
        assert_eq!(parsed.window_hours(), log.window_hours());
        assert_eq!(parsed.outages().len(), log.outages().len());
        assert_eq!(parsed.jobs().len(), log.jobs().len());
        // Times survive with 4-decimal precision.
        for (a, b) in parsed.events().iter().zip(log.events()) {
            assert!((a.time_hours - b.time_hours).abs() < 1e-3);
        }
    }

    #[test]
    fn parses_hand_written_log() {
        let text = "\
# faultlog v1 origin=2007-07-01T00:00 window_hours=100
OUTAGE io_hardware 10.0 22.95
MOUNTFAIL 5.5 3
JOB 1.0 completed
JOB 2.0 failed_transient_network

# trailing comment
DISK 60.0 17
";
        let log = from_text(text).unwrap();
        assert_eq!(log.len(), 5);
        assert_eq!(log.outages()[0].cause, OutageCause::IoHardware);
        assert_eq!(log.jobs()[1].outcome, JobOutcome::FailedTransientNetwork);
        assert_eq!(log.disk_replacements()[0].disk_id, 17);
        assert_eq!(log.window_hours(), 100.0);
    }

    #[test]
    fn reports_line_numbers_for_errors() {
        let text = "\
# faultlog v1 origin=2007-07-01T00:00 window_hours=100
OUTAGE io_hardware 10.0 22.95
BOGUS 1 2 3
";
        let err = from_text(text).unwrap_err();
        assert!(matches!(err, LogError::Parse { line: 3, .. }), "{err:?}");

        let text = "\
# faultlog v1 origin=2007-07-01T00:00 window_hours=100
JOB not_a_number completed
";
        assert!(matches!(from_text(text).unwrap_err(), LogError::Parse { line: 2, .. }));

        let text = "\
# faultlog v1 origin=2007-07-01T00:00 window_hours=100
JOB 5.0 exploded
";
        assert!(matches!(from_text(text).unwrap_err(), LogError::Parse { line: 2, .. }));

        let text = "\
# faultlog v1 origin=2007-07-01T00:00 window_hours=100
OUTAGE io_hardware 10.0
";
        assert!(matches!(from_text(text).unwrap_err(), LogError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_non_finite_event_times() {
        for time in ["NaN", "inf", "-inf", "infinity"] {
            let text = format!(
                "# faultlog v1 origin=2007-07-01T00:00 window_hours=100\nJOB {time} completed\nJOB 1.0 completed\n"
            );
            let err = from_text(&text).unwrap_err();
            assert!(matches!(err, LogError::Parse { line: 2, .. }), "{time}: {err:?}");
        }
    }

    #[test]
    fn rejects_a_window_too_long_to_bucket_by_week() {
        let text = "# faultlog v1 origin=2007-07-01T00:00 window_hours=1e300\nDISK 1.0 3\n";
        assert!(matches!(from_text(text).unwrap_err(), LogError::InvalidConfig { .. }));
    }

    #[test]
    fn rejects_bad_headers() {
        assert!(from_text("").is_err());
        assert!(from_text("not a header\n").is_err());
        assert!(from_text("# faultlog v1 window_hours=10\n").is_err());
        assert!(from_text("# faultlog v1 origin=2007-07-01T00:00\n").is_err());
        assert!(from_text("# faultlog v1 origin=garbage window_hours=10\n").is_err());
        assert!(from_text("# faultlog v1 origin=2007-07-01T00:00 window_hours=-5\n").is_err());
    }

    #[test]
    fn all_cause_and_outcome_tokens_roundtrip() {
        for cause in OutageCause::all() {
            let token = cause_token(cause);
            assert_eq!(parse_cause(token, 1).unwrap(), cause);
        }
        for outcome in
            [JobOutcome::Completed, JobOutcome::FailedTransientNetwork, JobOutcome::FailedOther]
        {
            assert_eq!(parse_outcome(outcome_token(outcome), 1).unwrap(), outcome);
        }
    }
}
