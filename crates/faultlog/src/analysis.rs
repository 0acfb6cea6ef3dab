//! Analyses that turn a failure log into the dependability measures and
//! model parameters the paper derives from the ABE logs (Tables 1–4).

use serde::{Deserialize, Serialize};

use probdist::fitting::{fit_weibull, Lifetime, WeibullFit};

use crate::event::{FailureLog, JobOutcome, OutageRecord};
use crate::filter::{coalesce_mount_failures, coalesce_outages, is_cfs_outage, MountStorm};
use crate::{LogError, SimDate};

/// Number of hours in one week, used for per-week replacement rates.
pub const HOURS_PER_WEEK: f64 = 168.0;

// ---------------------------------------------------------------------------
// Table 1: outages and availability
// ---------------------------------------------------------------------------

/// One rendered row of a Table-1 style outage report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageRow {
    /// Cause label ("I/O hardware", …).
    pub cause: String,
    /// Calendar start time.
    pub start: SimDate,
    /// Calendar end time.
    pub end: SimDate,
    /// Duration in hours.
    pub hours: f64,
}

/// Availability analysis of the user-visible outage notifications
/// (reproduces Table 1 and the 0.97–0.98 SAN availability estimate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageAnalysis {
    outages: Vec<OutageRecord>,
    window_hours: f64,
    origin: SimDate,
}

impl OutageAnalysis {
    /// Builds the analysis from a log, coalescing same-cause notifications
    /// that are less than one hour apart into single incidents.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::EmptyLog`] if the log contains no outage records.
    pub fn from_log(log: &FailureLog) -> Result<Self, LogError> {
        let raw = log.outages();
        if raw.is_empty() {
            return Err(LogError::EmptyLog { analysis: "outage" });
        }
        let outages = coalesce_outages(&raw, 1.0);
        Ok(OutageAnalysis { outages, window_hours: log.window_hours(), origin: log.origin() })
    }

    /// The coalesced outage incidents.
    pub fn outages(&self) -> &[OutageRecord] {
        &self.outages
    }

    /// Total downtime over the observation window, hours.
    pub(crate) fn total_downtime_hours(&self) -> f64 {
        self.outages.iter().map(super::event::OutageRecord::duration).sum()
    }

    /// Availability of the storage system over the window:
    /// `1 − downtime / window`.
    pub fn availability(&self) -> f64 {
        (1.0 - self.total_downtime_hours() / self.window_hours).clamp(0.0, 1.0)
    }

    /// Availability counting only CFS-attributable outages (I/O hardware and
    /// file-system causes) — the measure the CFS availability reward of the
    /// simulation model is compared against.
    pub fn cfs_availability(&self) -> f64 {
        let downtime: f64 = self
            .outages
            .iter()
            .filter(|o| is_cfs_outage(o.cause))
            .map(super::event::OutageRecord::duration)
            .sum();
        (1.0 - downtime / self.window_hours).clamp(0.0, 1.0)
    }

    /// Renders the outages as Table-1 style rows with calendar timestamps.
    pub fn rows(&self) -> Vec<OutageRow> {
        self.outages
            .iter()
            .map(|o| OutageRow {
                cause: o.cause.label().to_string(),
                start: self.origin.plus_hours(o.start_hours),
                end: self.origin.plus_hours(o.end_hours),
                hours: o.duration(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Table 2: mount failures per day
// ---------------------------------------------------------------------------

/// One rendered row of a Table-2 style mount-failure report: a calendar day
/// and the number of compute nodes that reported a Lustre mount failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MountFailureDay {
    /// The calendar day (time-of-day fields are zero).
    pub date: SimDate,
    /// Number of distinct nodes that reported a mount failure that day.
    pub nodes: usize,
}

/// Mount-failure analysis (reproduces Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MountFailureAnalysis {
    days: Vec<MountFailureDay>,
    storms: Vec<MountStorm>,
    total_reports: usize,
}

impl MountFailureAnalysis {
    /// Builds the analysis from a log. Days with no mount failures are
    /// omitted, matching the paper's presentation.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::EmptyLog`] if the log contains no mount-failure
    /// records.
    pub fn from_log(log: &FailureLog) -> Result<Self, LogError> {
        let failures = log.mount_failures();
        if failures.is_empty() {
            return Err(LogError::EmptyLog { analysis: "mount failure" });
        }
        let storms = coalesce_mount_failures(&failures, 1.0);
        let origin = log.origin();

        // Aggregate distinct nodes per calendar day.
        let mut per_day: std::collections::BTreeMap<i64, std::collections::BTreeSet<u32>> =
            std::collections::BTreeMap::new();
        for f in &failures {
            let day = origin.plus_hours(f.time_hours).day_index_since(origin);
            per_day.entry(day).or_default().insert(f.node_id);
        }
        let days = per_day
            .into_iter()
            .map(|(day, nodes)| MountFailureDay {
                date: origin.plus_hours(day as f64 * 24.0),
                nodes: nodes.len(),
            })
            .collect();

        Ok(MountFailureAnalysis { days, storms, total_reports: failures.len() })
    }

    /// Per-day counts of nodes reporting mount failures (only days with at
    /// least one report).
    pub fn days(&self) -> &[MountFailureDay] {
        &self.days
    }

    /// The coalesced mount-failure storms.
    pub fn storms(&self) -> &[MountStorm] {
        &self.storms
    }

    /// The largest single-day node count (591 in the paper's Table 2).
    pub fn peak_day_nodes(&self) -> usize {
        self.days.iter().map(|d| d.nodes).max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Table 3: job statistics
// ---------------------------------------------------------------------------

/// Job execution statistics (reproduces Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobAnalysis {
    /// Total number of jobs submitted during the window.
    pub total_jobs: usize,
    /// Jobs that failed because of transient network errors.
    pub transient_failures: usize,
    /// Jobs that failed because of other/file-system errors.
    pub other_failures: usize,
    /// Observation window, hours.
    pub window_hours: f64,
}

impl JobAnalysis {
    /// Builds the analysis from a log.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::EmptyLog`] if the log contains no job records.
    pub fn from_log(log: &FailureLog) -> Result<Self, LogError> {
        let jobs = log.jobs();
        if jobs.is_empty() {
            return Err(LogError::EmptyLog { analysis: "job" });
        }
        Ok(JobAnalysis {
            total_jobs: jobs.len(),
            transient_failures: jobs
                .iter()
                .filter(|j| j.outcome == JobOutcome::FailedTransientNetwork)
                .count(),
            other_failures: jobs.iter().filter(|j| j.outcome == JobOutcome::FailedOther).count(),
            window_hours: log.window_hours(),
        })
    }

    /// Jobs that completed successfully.
    pub fn completed(&self) -> usize {
        self.total_jobs - self.transient_failures - self.other_failures
    }

    /// Ratio of transient-network failures to other failures (≈5 in the
    /// paper).
    pub fn transient_to_other_ratio(&self) -> f64 {
        if self.other_failures == 0 {
            f64::INFINITY
        } else {
            self.transient_failures as f64 / self.other_failures as f64
        }
    }

    /// Average job submissions per hour (the "Job request per hour" row of
    /// Table 5, 12–15 for ABE).
    pub fn jobs_per_hour(&self) -> f64 {
        self.total_jobs as f64 / self.window_hours
    }
}

// ---------------------------------------------------------------------------
// Table 4: disk replacements and Weibull survival analysis
// ---------------------------------------------------------------------------

/// Disk-replacement analysis (reproduces Table 4): weekly replacement
/// counts, a Weibull survival fit of the underlying lifetimes, and MTBF
/// estimation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiskReplacementAnalysis {
    weekly_counts: Vec<usize>,
    total_replacements: usize,
    disks: u32,
    window_hours: f64,
}

impl DiskReplacementAnalysis {
    /// Builds the analysis from a log, given the number of disk slots in the
    /// partition (480 for ABE's scratch partition).
    ///
    /// # Errors
    ///
    /// Returns [`LogError::EmptyLog`] if the log contains no disk
    /// replacements and [`LogError::InvalidConfig`] if `disks` is zero.
    pub fn from_log(log: &FailureLog, disks: u32) -> Result<Self, LogError> {
        if disks == 0 {
            return Err(LogError::InvalidConfig { reason: "disk count must be positive".into() });
        }
        let replacements = log.disk_replacements();
        if replacements.is_empty() {
            return Err(LogError::EmptyLog { analysis: "disk replacement" });
        }
        let weeks = (log.window_hours() / HOURS_PER_WEEK).ceil() as usize;
        let mut weekly_counts = vec![0usize; weeks.max(1)];
        for r in &replacements {
            let week = ((r.time_hours / HOURS_PER_WEEK) as usize).min(weekly_counts.len() - 1);
            weekly_counts[week] += 1;
        }
        Ok(DiskReplacementAnalysis {
            weekly_counts,
            total_replacements: replacements.len(),
            disks,
            window_hours: log.window_hours(),
        })
    }

    /// Replacement counts per calendar week of the observation window.
    pub fn weekly_counts(&self) -> &[usize] {
        &self.weekly_counts
    }

    /// Total number of replacements.
    pub fn total_replacements(&self) -> usize {
        self.total_replacements
    }

    /// Mean replacements per week (0–2 for ABE).
    pub fn mean_per_week(&self) -> f64 {
        self.total_replacements as f64 / (self.window_hours / HOURS_PER_WEEK)
    }

    /// Converts the replacement log into right-censored lifetimes: each
    /// replacement is an observed failure at its slot's age, and every slot
    /// contributes a final censored observation for the disk still running
    /// at the end of the window.
    pub(crate) fn to_lifetimes(&self, log: &FailureLog) -> Vec<Lifetime> {
        let mut last_replacement = vec![0.0_f64; self.disks as usize];
        let mut lifetimes = Vec::new();
        for r in log.disk_replacements() {
            let slot = r.disk_id as usize % self.disks as usize;
            let age = r.time_hours - last_replacement[slot];
            if age > 0.0 {
                lifetimes.push(Lifetime::failure(age).expect("positive age"));
            }
            last_replacement[slot] = r.time_hours;
        }
        for &since in &last_replacement {
            let censored_age = self.window_hours - since;
            if censored_age > 0.0 {
                lifetimes.push(Lifetime::censored(censored_age).expect("positive age"));
            }
        }
        lifetimes
    }

    /// Weibull survival fit of the disk lifetimes (the paper: shape ≈ 0.70,
    /// standard deviation ≈ 0.19).
    ///
    /// # Errors
    ///
    /// Propagates estimation errors (e.g. fewer than two observed failures).
    pub fn weibull_fit(&self, log: &FailureLog) -> Result<WeibullFit, LogError> {
        Ok(fit_weibull(&self.to_lifetimes(log))?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        DiskReplacement, EventKind, LogEvent, MountFailure, OutageCause, OutageRecord,
    };
    use crate::generator::{LogGenConfig, LogGenerator};

    fn abe_log(seed: u64) -> FailureLog {
        LogGenerator::new(LogGenConfig::abe_calibrated()).generate(seed).unwrap()
    }

    #[test]
    fn outage_availability_is_in_the_published_band() {
        // Average over several seeds so one unlucky draw does not dominate.
        let mut availability = 0.0;
        let runs = 6;
        for seed in 0..runs {
            availability += OutageAnalysis::from_log(&abe_log(seed)).unwrap().availability();
        }
        availability /= runs as f64;
        // The paper estimates 0.97–0.98; the synthetic logs should land near
        // that band (give a small margin for sampling noise).
        assert!(availability > 0.955 && availability < 0.995, "availability {availability}");
    }

    #[test]
    fn outage_rows_and_cause_breakdown_are_consistent() {
        let log = abe_log(1);
        let a = OutageAnalysis::from_log(&log).unwrap();
        let rows = a.rows();
        assert_eq!(rows.len(), a.outages().len());
        let total_from_rows: f64 = rows.iter().map(|r| r.hours).sum();
        assert!((total_from_rows - a.total_downtime_hours()).abs() < 1e-9);
        assert!(a.cfs_availability() >= a.availability());
    }

    #[test]
    fn handcrafted_outage_availability() {
        let mut log = FailureLog::new(SimDate::new(2007, 7, 1, 0, 0), 1000.0).unwrap();
        log.push(LogEvent::new(EventKind::Outage(OutageRecord {
            cause: OutageCause::IoHardware,
            start_hours: 100.0,
            end_hours: 110.0,
        })));
        log.push(LogEvent::new(EventKind::Outage(OutageRecord {
            cause: OutageCause::Network,
            start_hours: 500.0,
            end_hours: 510.0,
        })));
        let a = OutageAnalysis::from_log(&log).unwrap();
        assert!((a.total_downtime_hours() - 20.0).abs() < 1e-12);
        assert!((a.availability() - 0.98).abs() < 1e-12);
        // Only the I/O hardware outage counts against the CFS.
        assert!((a.cfs_availability() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn empty_logs_are_rejected_by_every_analysis() {
        let log = FailureLog::new(SimDate::new(2007, 7, 1, 0, 0), 100.0).unwrap();
        assert!(OutageAnalysis::from_log(&log).is_err());
        assert!(MountFailureAnalysis::from_log(&log).is_err());
        assert!(JobAnalysis::from_log(&log).is_err());
        assert!(DiskReplacementAnalysis::from_log(&log, 480).is_err());
    }

    #[test]
    fn mount_failure_days_count_distinct_nodes() {
        let mut log = FailureLog::new(SimDate::new(2007, 7, 1, 0, 0), 100.0).unwrap();
        // Three reports on day 0 from two distinct nodes, one report on day 2.
        for (t, node) in [(1.0, 5), (1.1, 5), (2.0, 9), (49.0, 3)] {
            log.push(LogEvent::new(EventKind::MountFailure(MountFailure {
                time_hours: t,
                node_id: node,
            })));
        }
        let a = MountFailureAnalysis::from_log(&log).unwrap();
        assert_eq!(a.days().len(), 2);
        assert_eq!(a.days()[0].nodes, 2);
        assert_eq!(a.days()[1].nodes, 1);
        assert_eq!(a.peak_day_nodes(), 2);
        assert!(!a.storms().is_empty());
    }

    #[test]
    fn mount_failure_analysis_on_generated_log_matches_table2_shape() {
        let a = MountFailureAnalysis::from_log(&abe_log(2)).unwrap();
        // Table 2 has 12 storm days over the window with sizes 2..591.
        assert!(!a.days().is_empty());
        assert!(a.peak_day_nodes() <= 1200);
        assert!(a.peak_day_nodes() >= 2);
    }

    #[test]
    fn job_analysis_reproduces_table3_shape() {
        let a = JobAnalysis::from_log(&abe_log(3)).unwrap();
        assert!(a.total_jobs > 40_000);
        assert_eq!(a.completed() + a.transient_failures + a.other_failures, a.total_jobs);
        let ratio = a.transient_to_other_ratio();
        assert!(ratio > 3.0 && ratio < 12.0, "ratio {ratio}");
        assert!(a.jobs_per_hour() > 11.0 && a.jobs_per_hour() < 16.0);
    }

    #[test]
    fn job_ratio_handles_zero_other_failures() {
        let mut log = FailureLog::new(SimDate::new(2007, 7, 1, 0, 0), 10.0).unwrap();
        log.push(LogEvent::new(EventKind::Job(crate::event::JobRecord {
            submit_hours: 1.0,
            outcome: JobOutcome::FailedTransientNetwork,
        })));
        let a = JobAnalysis::from_log(&log).unwrap();
        assert_eq!(a.transient_to_other_ratio(), f64::INFINITY);
    }

    #[test]
    fn disk_replacement_rate_and_weekly_histogram() {
        let log = abe_log(4);
        let a = DiskReplacementAnalysis::from_log(&log, 480).unwrap();
        assert_eq!(a.weekly_counts().iter().sum::<usize>(), a.total_replacements());
        assert!(
            a.mean_per_week() > 0.0 && a.mean_per_week() < 4.0,
            "per week {}",
            a.mean_per_week()
        );
    }

    #[test]
    fn lifetimes_cover_every_slot_and_replacement() {
        let mut log = FailureLog::new(SimDate::new(2007, 9, 5, 0, 0), 1000.0).unwrap();
        for (t, id) in [(100.0, 0), (400.0, 0), (250.0, 3)] {
            log.push(LogEvent::new(EventKind::DiskReplacement(DiskReplacement {
                time_hours: t,
                disk_id: id,
            })));
        }
        log.sort();
        let a = DiskReplacementAnalysis::from_log(&log, 4).unwrap();
        let lifetimes = a.to_lifetimes(&log);
        // 3 observed failures + 4 censored slots.
        assert_eq!(lifetimes.len(), 7);
        assert_eq!(lifetimes.iter().filter(|l| l.is_failure()).count(), 3);
        // Slot 0 failed at 100 and again 300 hours later.
        let failure_ages: Vec<f64> = lifetimes
            .iter()
            .filter(|l| l.is_failure())
            .map(probdist::fitting::Lifetime::time)
            .collect();
        assert!(failure_ages.contains(&100.0));
        assert!(failure_ages.contains(&300.0));
    }

    #[test]
    fn weibull_fit_recovers_infant_mortality_shape_on_large_population() {
        // Use a larger synthetic population so the fit has enough observed
        // failures to be stable, mirroring the n = 480 survival analysis.
        let mut cfg = LogGenConfig::abe_calibrated();
        cfg.disks = 20_000;
        cfg.window_hours = 2000.0;
        let log = LogGenerator::new(cfg).generate(5).unwrap();
        let a = DiskReplacementAnalysis::from_log(&log, 20_000).unwrap();
        let fit = a.weibull_fit(&log).unwrap();
        assert!((fit.shape - 0.7).abs() < 0.12, "shape {}", fit.shape);
    }
}
