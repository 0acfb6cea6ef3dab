use serde::{Deserialize, Serialize};

use crate::{LogError, SimDate};

/// Cause categories used in the paper's outage notifications (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OutageCause {
    /// Failure of SAN I/O hardware (RAID controllers, FC ports, shelves).
    IoHardware,
    /// Batch / scheduling system failure.
    BatchSystem,
    /// Network failure between compute nodes and the CFS.
    Network,
    /// Lustre / file-system software failure.
    FileSystem,
}

impl OutageCause {
    /// Human-readable label matching Table 1's "Cause of Failure" column.
    pub fn label(&self) -> &'static str {
        match self {
            OutageCause::IoHardware => "I/O hardware",
            OutageCause::BatchSystem => "Batch system",
            OutageCause::Network => "Network",
            OutageCause::FileSystem => "File system",
        }
    }

    /// All cause categories.
    pub fn all() -> [OutageCause; 4] {
        [
            OutageCause::IoHardware,
            OutageCause::BatchSystem,
            OutageCause::Network,
            OutageCause::FileSystem,
        ]
    }
}

impl std::fmt::Display for OutageCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A user-visible CFS outage window (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageRecord {
    /// Cause of the outage.
    pub cause: OutageCause,
    /// Outage start, hours since the start of the observation window.
    pub start_hours: f64,
    /// Outage end, hours since the start of the observation window.
    pub end_hours: f64,
}

impl OutageRecord {
    /// Duration of the outage in hours.
    pub fn duration(&self) -> f64 {
        (self.end_hours - self.start_hours).max(0.0)
    }
}

/// A Lustre mount failure reported by one compute node (the raw events
/// behind Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MountFailure {
    /// Event time, hours since the start of the observation window.
    pub time_hours: f64,
    /// Identifier of the compute node that reported the failure.
    pub node_id: u32,
}

/// Outcome of a batch job (Table 3 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobOutcome {
    /// The job ran to completion.
    Completed,
    /// The job failed because of a transient network error (compute node ↔
    /// CFS or compute node ↔ login node connectivity).
    FailedTransientNetwork,
    /// The job failed because of any other error (software error, CFS
    /// failure, …).
    FailedOther,
}

impl JobOutcome {
    /// Whether the job failed.
    pub fn is_failure(&self) -> bool {
        !matches!(self, JobOutcome::Completed)
    }
}

/// A batch-job record (the raw events behind Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Submission time, hours since the start of the observation window.
    pub submit_hours: f64,
    /// Outcome of the job.
    pub outcome: JobOutcome,
}

/// A disk failure/replacement event (the raw events behind Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiskReplacement {
    /// Event time, hours since the start of the observation window.
    pub time_hours: f64,
    /// Index of the failed disk within the scratch partition (0-based).
    pub disk_id: u32,
}

/// Kinds of events a failure log can contain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EventKind {
    /// A CFS outage window.
    Outage(OutageRecord),
    /// A per-node Lustre mount failure.
    MountFailure(MountFailure),
    /// A batch-job record.
    Job(JobRecord),
    /// A disk failure/replacement.
    DiskReplacement(DiskReplacement),
}

/// One timestamped log event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogEvent {
    /// Event time, hours since the start of the observation window. For
    /// outages this is the start of the outage.
    pub time_hours: f64,
    /// The event payload.
    pub kind: EventKind,
}

impl LogEvent {
    /// Creates an event, using the payload's own timestamp.
    pub fn new(kind: EventKind) -> Self {
        let time_hours = match &kind {
            EventKind::Outage(o) => o.start_hours,
            EventKind::MountFailure(m) => m.time_hours,
            EventKind::Job(j) => j.submit_hours,
            EventKind::DiskReplacement(d) => d.time_hours,
        };
        LogEvent { time_hours, kind }
    }
}

/// The longest observation window a log may declare, hours (about 114
/// years): far beyond any real log, and short enough that the weekly
/// buckets of the disk-replacement analysis stay few.
const MAX_WINDOW_HOURS: f64 = 1.0e6;

/// A complete failure log: an observation window plus a time-ordered list of
/// events.
///
/// The window is described both in relative hours (used by every analysis)
/// and by its calendar origin (used only for rendering paper-style tables).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureLog {
    origin: SimDate,
    window_hours: f64,
    events: Vec<LogEvent>,
}

impl FailureLog {
    /// Creates an empty log covering `window_hours` hours starting at
    /// `origin`.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::InvalidConfig`] unless the window is strictly
    /// positive and at most 10⁶ hours.
    pub fn new(origin: SimDate, window_hours: f64) -> Result<Self, LogError> {
        if !(window_hours > 0.0 && window_hours <= MAX_WINDOW_HOURS) {
            return Err(LogError::InvalidConfig {
                reason: format!(
                    "observation window must be positive and at most {MAX_WINDOW_HOURS} h, got {window_hours} h"
                ),
            });
        }
        Ok(FailureLog { origin, window_hours, events: Vec::new() })
    }

    /// Calendar timestamp of the start of the observation window.
    pub fn origin(&self) -> SimDate {
        self.origin
    }

    /// Length of the observation window in hours.
    pub fn window_hours(&self) -> f64 {
        self.window_hours
    }

    /// Appends an event. Push events in time order: the parser and the
    /// generator sort the logs they return, and a caller building a log by
    /// hand keeps that order itself.
    pub fn push(&mut self, event: LogEvent) {
        self.events.push(event);
    }

    /// Sorts events by time.
    pub(crate) fn sort(&mut self) {
        self.events.sort_by(|a, b| {
            a.time_hours.partial_cmp(&b.time_hours).expect("event times are finite")
        });
    }

    /// All events in the log.
    pub fn events(&self) -> &[LogEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All outage records, in time order.
    pub fn outages(&self) -> Vec<OutageRecord> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Outage(o) => Some(o),
                _ => None,
            })
            .collect()
    }

    /// All mount-failure events, in time order.
    pub(crate) fn mount_failures(&self) -> Vec<MountFailure> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MountFailure(m) => Some(m),
                _ => None,
            })
            .collect()
    }

    /// All job records, in time order.
    pub fn jobs(&self) -> Vec<JobRecord> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Job(j) => Some(j),
                _ => None,
            })
            .collect()
    }

    /// All disk replacements, in time order.
    pub fn disk_replacements(&self) -> Vec<DiskReplacement> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::DiskReplacement(d) => Some(d),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> FailureLog {
        let mut log = FailureLog::new(SimDate::new(2007, 7, 1, 0, 0), 2000.0).unwrap();
        log.push(LogEvent::new(EventKind::Outage(OutageRecord {
            cause: OutageCause::IoHardware,
            start_hours: 503.05,
            end_hours: 516.0,
        })));
        log.push(LogEvent::new(EventKind::MountFailure(MountFailure {
            time_hours: 50.0,
            node_id: 7,
        })));
        log.push(LogEvent::new(EventKind::Job(JobRecord {
            submit_hours: 10.0,
            outcome: JobOutcome::Completed,
        })));
        log.push(LogEvent::new(EventKind::DiskReplacement(DiskReplacement {
            time_hours: 1571.0,
            disk_id: 42,
        })));
        log
    }

    #[test]
    fn window_must_be_positive() {
        assert!(FailureLog::new(SimDate::new(2007, 1, 1, 0, 0), 0.0).is_err());
        assert!(FailureLog::new(SimDate::new(2007, 1, 1, 0, 0), -5.0).is_err());
        assert!(FailureLog::new(SimDate::new(2007, 1, 1, 0, 0), f64::NAN).is_err());
    }

    #[test]
    fn events_are_filtered_by_kind() {
        let log = sample_log();
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
        assert_eq!(log.outages().len(), 1);
        assert_eq!(log.mount_failures().len(), 1);
        assert_eq!(log.jobs().len(), 1);
        assert_eq!(log.disk_replacements().len(), 1);
        assert_eq!(log.mount_failures()[0].node_id, 7);
    }

    #[test]
    fn sort_orders_events_by_time() {
        let mut log = sample_log();
        log.sort();
        let times: Vec<f64> = log.events().iter().map(|e| e.time_hours).collect();
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(times, sorted);
    }

    #[test]
    fn log_event_takes_time_from_payload() {
        let e = LogEvent::new(EventKind::Job(JobRecord {
            submit_hours: 99.5,
            outcome: JobOutcome::FailedOther,
        }));
        assert_eq!(e.time_hours, 99.5);
    }

    #[test]
    fn outage_duration_and_cause_labels() {
        let o =
            OutageRecord { cause: OutageCause::IoHardware, start_hours: 10.0, end_hours: 22.95 };
        assert!((o.duration() - 12.95).abs() < 1e-12);
        assert_eq!(OutageCause::IoHardware.to_string(), "I/O hardware");
        assert_eq!(OutageCause::all().len(), 4);
        // Reversed interval clamps to zero rather than producing negative downtime.
        let bad = OutageRecord { cause: OutageCause::Network, start_hours: 5.0, end_hours: 4.0 };
        assert_eq!(bad.duration(), 0.0);
    }

    #[test]
    fn job_outcome_failure_flag() {
        assert!(!JobOutcome::Completed.is_failure());
        assert!(JobOutcome::FailedTransientNetwork.is_failure());
        assert!(JobOutcome::FailedOther.is_failure());
    }

    #[test]
    fn date_of_uses_origin() {
        let log = sample_log();
        let d = log.origin().plus_hours(24.0);
        assert_eq!((d.month(), d.day()), (7, 2));
        assert_eq!(log.origin(), SimDate::new(2007, 7, 1, 0, 0));
        assert_eq!(log.window_hours(), 2000.0);
    }
}
