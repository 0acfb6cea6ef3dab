//! Property tests of the log text format: a generated log round-trips
//! through `to_text`/`from_text`, random edits of its text parse or fail
//! with a typed [`LogError`], and whatever parses runs through all four
//! Table 1–4 analyses without a panic.

use faultlog::analysis::{
    DiskReplacementAnalysis, JobAnalysis, MountFailureAnalysis, OutageAnalysis,
};
use faultlog::generator::{LogGenConfig, LogGenerator};
use faultlog::parser::{from_text, to_text};
use faultlog::{EventKind, FailureLog, LogError};
use probdist::SimRng;
use proptest::prelude::*;

/// Disk slots of the generated logs.
const DISKS: u32 = 48;

/// Edited variants of each generated log.
const VARIANTS: usize = 32;

/// Tokens spliced into a log's text, or put in place of one of its
/// whitespace-separated tokens, to steer edits into the parser's branches:
/// non-finite and extreme numbers, ids past `u32`, record tags (known and
/// unknown), a header key, and separators.
const TOKENS: &[&str] = &[
    "NaN",
    "nan",
    "inf",
    "-inf",
    "infinity",
    "1e300",
    "-1e300",
    "1e-300",
    "-1",
    "0",
    "-0",
    "4294967296",
    "OUTAGE",
    "MOUNTFAIL",
    "JOB",
    "DISK",
    "BOGUS",
    "window_hours=",
    "completed",
    "io_hardware",
    "#",
    " ",
    "\n",
];

/// A small log with every record type: outages and mount-failure storms a
/// few times per window, a job every two hours, and short-lived disks.
fn generated(seed: u64, window_hours: f64) -> FailureLog {
    let mut config = LogGenConfig::abe_calibrated();
    config.window_hours = window_hours;
    for cause in &mut config.outages {
        cause.mean_interarrival_hours = window_hours / 3.0;
    }
    config.storm_mean_interarrival_hours = window_hours / 3.0;
    config.job_mean_interarrival_hours = 2.0;
    config.disks = DISKS;
    config.disk_mtbf_hours = 2_000.0;
    LogGenerator::new(config).generate(seed).expect("a valid generator configuration")
}

/// The text of `log` after one to eleven random edits: a byte deleted, a
/// raw byte or a token inserted, a whitespace-separated token replaced (the
/// value only, for a `key=value` token), or the rest cut off. A quarter of
/// the edits land in the header line. The result goes through a lossy
/// UTF-8 conversion, as the parser takes a `&str`.
fn edited_text(log: &FailureLog, rng: &mut SimRng) -> String {
    let mut bytes = to_text(log).into_bytes();
    let header = bytes.iter().position(|&b| b == b'\n').unwrap_or(bytes.len());
    for _ in 0..1 + rng.next_u64() % 11 {
        let edit = rng.next_u64();
        let span = if edit & 0x30 == 0 { header.min(bytes.len()) } else { bytes.len() };
        let at = ((edit >> 8) % (span as u64 + 1)) as usize;
        let token = TOKENS[(edit >> 40) as usize % TOKENS.len()];
        match edit % 8 {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, (edit >> 48) as u8),
            2 => {
                bytes.splice(at..at, token.bytes());
            }
            3 if edit >> 61 == 0 => bytes.truncate(at),
            _ => {
                let start =
                    bytes[..at].iter().rposition(u8::is_ascii_whitespace).map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(u8::is_ascii_whitespace)
                    .map_or(bytes.len(), |i| at + i);
                let start = bytes[start..end]
                    .iter()
                    .position(|&b| b == b'=')
                    .map_or(start, |i| start + i + 1);
                bytes.splice(start..end, token.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs the four Table 1–4 analyses and everything they derive, so that a
/// panic anywhere in them fails the property; typed errors are fine.
fn analyse(log: &FailureLog) {
    if let Ok(outages) = OutageAnalysis::from_log(log) {
        let _ = (outages.availability(), outages.cfs_availability(), outages.rows());
    }
    if let Ok(mounts) = MountFailureAnalysis::from_log(log) {
        let _ = (mounts.days(), mounts.peak_day_nodes());
    }
    if let Ok(jobs) = JobAnalysis::from_log(log) {
        let _ = (jobs.transient_to_other_ratio(), jobs.jobs_per_hour());
    }
    if let Ok(disks) = DiskReplacementAnalysis::from_log(log, DISKS) {
        let _ = (disks.mean_per_week(), disks.weekly_counts(), disks.weibull_fit(log));
    }
}

proptest! {
    #[test]
    fn generated_logs_round_trip_through_the_text_format(
        seed in any::<u64>(),
        window_hours in 24.0..600.0_f64,
    ) {
        let log = generated(seed, window_hours);
        let parsed = from_text(&to_text(&log)).unwrap();
        prop_assert_eq!(parsed.origin(), log.origin());
        prop_assert_eq!(parsed.window_hours(), log.window_hours());
        prop_assert_eq!(parsed.len(), log.len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-4;
        for (a, b) in parsed.events().iter().zip(log.events()) {
            prop_assert!(close(a.time_hours, b.time_hours), "{a:?} vs {b:?}");
            let same = match (&a.kind, &b.kind) {
                (EventKind::Outage(x), EventKind::Outage(y)) => {
                    x.cause == y.cause
                        && close(x.start_hours, y.start_hours)
                        && close(x.end_hours, y.end_hours)
                }
                (EventKind::MountFailure(x), EventKind::MountFailure(y)) => x.node_id == y.node_id,
                (EventKind::Job(x), EventKind::Job(y)) => x.outcome == y.outcome,
                (EventKind::DiskReplacement(x), EventKind::DiskReplacement(y)) => {
                    x.disk_id == y.disk_id
                }
                _ => false,
            };
            prop_assert!(same, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn edited_logs_parse_or_fail_typed(seed in any::<u64>(), window_hours in 24.0..600.0_f64) {
        let log = generated(seed, window_hours);
        let mut rng = SimRng::seed_from_u64(!seed);
        for _ in 0..VARIANTS {
            let result = from_text(&edited_text(&log, &mut rng));
            prop_assert!(
                matches!(result, Ok(_) | Err(LogError::Parse { .. } | LogError::InvalidConfig { .. })),
                "{result:?}"
            );
        }
    }

    #[test]
    fn parsed_edited_logs_run_through_every_analysis(
        seed in any::<u64>(),
        window_hours in 24.0..600.0_f64,
    ) {
        let log = generated(seed, window_hours);
        let mut rng = SimRng::seed_from_u64(!seed);
        for _ in 0..VARIANTS {
            if let Ok(edited) = from_text(&edited_text(&log, &mut rng)) {
                analyse(&edited);
            }
        }
    }
}
