//! Synthetic failure-log generation calibrated to the ABE cluster's
//! published statistics.
//!
//! The real NCSA logs are not available; this generator substitutes them
//! with statistically equivalent synthetic logs (the crate documentation
//! names the two log sets they stand in for). Every
//! published summary statistic of Tables 1–4 maps onto a generator
//! parameter:
//!
//! | Paper statistic | Config parameter |
//! |---|---|
//! | 10 outages in ≈2900 h, availability 0.97–0.98 (Table 1) | per-cause outage rates and duration ranges |
//! | mount-failure storms of 2–591 nodes on 12 days (Table 2) | storm rate and storm-size distribution |
//! | 44 085 jobs, 1234 transient vs 184 other failures (Table 3) | job arrival rate and failure probabilities |
//! | ≈11 disk replacements in 84 days from 480 disks, Weibull β≈0.7 (Table 4) | disk count, Weibull shape, disk MTBF |

use probdist::{Dist, Distribution, Empirical, Exponential, SimRng, Uniform, Weibull};
use serde::{Deserialize, Serialize};

use crate::event::{
    DiskReplacement, EventKind, FailureLog, JobOutcome, JobRecord, LogEvent, MountFailure,
    OutageCause, OutageRecord,
};
use crate::{LogError, SimDate};

/// Rate and duration model for one outage cause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutageCauseConfig {
    /// The cause being configured.
    pub cause: OutageCause,
    /// Mean time between outages of this cause, hours.
    pub mean_interarrival_hours: f64,
    /// Minimum outage duration, hours.
    pub min_duration_hours: f64,
    /// Maximum outage duration, hours.
    pub max_duration_hours: f64,
}

/// Full configuration of the synthetic log generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogGenConfig {
    /// Calendar start of the observation window.
    pub origin: SimDate,
    /// Length of the observation window, hours.
    pub window_hours: f64,
    /// Number of compute nodes (1200 for ABE).
    pub compute_nodes: u32,
    /// Number of disks in the scratch partition (480 for ABE).
    pub disks: u32,
    /// Outage processes, one per cause.
    pub outages: Vec<OutageCauseConfig>,
    /// Mean time between mount-failure storms, hours.
    pub storm_mean_interarrival_hours: f64,
    /// Observed storm sizes (number of nodes reporting) to resample from.
    pub storm_sizes: Vec<f64>,
    /// Mean job inter-arrival time, hours (ABE: ≈ 0.077 h, i.e. 13 jobs/h).
    pub job_mean_interarrival_hours: f64,
    /// Probability that a job fails due to a transient network error.
    pub p_job_transient_failure: f64,
    /// Probability that a job fails due to any other error.
    pub p_job_other_failure: f64,
    /// Weibull shape parameter of disk lifetimes (0.7 for ABE).
    pub disk_weibull_shape: f64,
    /// Mean disk lifetime (MTBF), hours (300 000 for ABE).
    pub disk_mtbf_hours: f64,
}

impl LogGenConfig {
    /// The configuration calibrated to the ABE cluster's published
    /// statistics (Tables 1–5): the SAN observation window of roughly five
    /// months starting 2007-07-01, 1200 compute nodes, 480 scratch disks,
    /// ten outages spread over four causes, twelve mount-failure storm days,
    /// ≈13 job submissions per hour with a 5:1 transient:other failure
    /// ratio, and Weibull(0.7) disk lifetimes with a 300 000-hour MTBF.
    pub fn abe_calibrated() -> Self {
        let window_hours = 3480.0; // ~145 days: 2007-07-01 .. 2007-11-22
        LogGenConfig {
            origin: SimDate::new(2007, 7, 1, 0, 0),
            window_hours,
            compute_nodes: 1200,
            disks: 480,
            outages: vec![
                OutageCauseConfig {
                    cause: OutageCause::IoHardware,
                    // 6 I/O-hardware outages over the window.
                    mean_interarrival_hours: window_hours / 6.0,
                    min_duration_hours: 8.0,
                    max_duration_hours: 18.5,
                },
                OutageCauseConfig {
                    cause: OutageCause::BatchSystem,
                    mean_interarrival_hours: window_hours / 1.0,
                    min_duration_hours: 2.0,
                    max_duration_hours: 4.0,
                },
                OutageCauseConfig {
                    cause: OutageCause::Network,
                    mean_interarrival_hours: window_hours / 1.0,
                    min_duration_hours: 2.0,
                    max_duration_hours: 4.0,
                },
                OutageCauseConfig {
                    cause: OutageCause::FileSystem,
                    mean_interarrival_hours: window_hours / 2.0,
                    min_duration_hours: 0.4,
                    max_duration_hours: 2.0,
                },
            ],
            // Twelve storm days over the ~93-day compute-log window.
            storm_mean_interarrival_hours: 2232.0 / 12.0,
            storm_sizes: vec![
                102.0, 258.0, 375.0, 591.0, 5.0, 2.0, 4.0, 3.0, 463.0, 477.0, 51.0, 35.0,
            ],
            // 44 085 jobs over ~3400 h ≈ 13 jobs/hour.
            job_mean_interarrival_hours: 1.0 / 13.0,
            p_job_transient_failure: 1234.0 / 44_085.0,
            p_job_other_failure: 184.0 / 44_085.0,
            disk_weibull_shape: 0.7,
            disk_mtbf_hours: 300_000.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::InvalidConfig`] describing the first problem
    /// found.
    pub fn validate(&self) -> Result<(), LogError> {
        let err = |reason: String| Err(LogError::InvalidConfig { reason });
        if !(self.window_hours.is_finite() && self.window_hours > 0.0) {
            return err(format!("window_hours must be positive, got {}", self.window_hours));
        }
        if self.compute_nodes == 0 {
            return err("compute_nodes must be at least 1".into());
        }
        if self.disks == 0 {
            return err("disks must be at least 1".into());
        }
        for o in &self.outages {
            if o.mean_interarrival_hours <= 0.0
                || o.min_duration_hours < 0.0
                || o.max_duration_hours < o.min_duration_hours
            {
                return err(format!("invalid outage configuration for {}", o.cause));
            }
        }
        if self.storm_mean_interarrival_hours <= 0.0 {
            return err("storm_mean_interarrival_hours must be positive".into());
        }
        if self.storm_sizes.is_empty() {
            return err("storm_sizes must not be empty".into());
        }
        if self.job_mean_interarrival_hours <= 0.0 {
            return err("job_mean_interarrival_hours must be positive".into());
        }
        let p_fail = self.p_job_transient_failure + self.p_job_other_failure;
        if !(0.0..=1.0).contains(&self.p_job_transient_failure)
            || !(0.0..=1.0).contains(&self.p_job_other_failure)
            || p_fail > 1.0
        {
            return err("job failure probabilities must be in [0,1] and sum to at most 1".into());
        }
        if self.disk_weibull_shape <= 0.0 || self.disk_mtbf_hours <= 0.0 {
            return err("disk lifetime parameters must be positive".into());
        }
        Ok(())
    }
}

/// Synthetic failure-log generator.
///
/// The generator is deterministic given a seed: the four event streams
/// (outages, mount-failure storms, jobs, disk replacements) use independent
/// derived RNG streams, so changing, say, the number of disks does not
/// perturb the job stream.
#[derive(Debug, Clone)]
pub struct LogGenerator {
    config: LogGenConfig,
}

impl LogGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: LogGenConfig) -> Self {
        LogGenerator { config }
    }

    /// The generator's configuration.
    pub fn config(&self) -> &LogGenConfig {
        &self.config
    }

    /// Generates a complete failure log.
    ///
    /// # Errors
    ///
    /// Returns [`LogError::InvalidConfig`] if the configuration fails
    /// validation.
    pub fn generate(&self, seed: u64) -> Result<FailureLog, LogError> {
        self.config.validate()?;
        let cfg = &self.config;
        let root = SimRng::seed_from_u64(seed);
        let mut log = FailureLog::new(cfg.origin, cfg.window_hours)?;

        self.generate_outages(&mut log, &mut root.derive_stream(1))?;
        self.generate_storms(&mut log, &mut root.derive_stream(2))?;
        self.generate_jobs(&mut log, &mut root.derive_stream(3))?;
        self.generate_disk_replacements(&mut log, &mut root.derive_stream(4))?;

        log.sort();
        Ok(log)
    }

    fn generate_outages(&self, log: &mut FailureLog, rng: &mut SimRng) -> Result<(), LogError> {
        for oc in &self.config.outages {
            let interarrival = Exponential::from_mean(oc.mean_interarrival_hours)?;
            let duration: Dist = if oc.max_duration_hours > oc.min_duration_hours {
                Uniform::new(oc.min_duration_hours, oc.max_duration_hours)?.into()
            } else {
                probdist::Deterministic::new(oc.min_duration_hours)?.into()
            };
            let mut t = interarrival.sample(rng);
            while t < self.config.window_hours {
                let d = duration.sample(rng);
                let end = (t + d).min(self.config.window_hours);
                log.push(LogEvent::new(EventKind::Outage(OutageRecord {
                    cause: oc.cause,
                    start_hours: t,
                    end_hours: end,
                })));
                t = end + interarrival.sample(rng);
            }
        }
        Ok(())
    }

    fn generate_storms(&self, log: &mut FailureLog, rng: &mut SimRng) -> Result<(), LogError> {
        let interarrival = Exponential::from_mean(self.config.storm_mean_interarrival_hours)?;
        let sizes = Empirical::new(self.config.storm_sizes.clone())?;
        let mut t = interarrival.sample(rng);
        while t < self.config.window_hours {
            let size = (sizes.sample(rng).round() as u32).clamp(1, self.config.compute_nodes);
            // Pick `size` distinct nodes; for storm sizes far below the node
            // count a simple rejection-free draw with wrap-around is fine.
            let start_node = rng.uniform_index(self.config.compute_nodes as usize) as u32;
            for k in 0..size {
                let node_id = (start_node + k) % self.config.compute_nodes;
                // Reports within a storm arrive over a few minutes.
                let jitter = rng.uniform01() * 0.5;
                log.push(LogEvent::new(EventKind::MountFailure(MountFailure {
                    time_hours: (t + jitter).min(self.config.window_hours),
                    node_id,
                })));
            }
            t += interarrival.sample(rng);
        }
        Ok(())
    }

    fn generate_jobs(&self, log: &mut FailureLog, rng: &mut SimRng) -> Result<(), LogError> {
        let interarrival = Exponential::from_mean(self.config.job_mean_interarrival_hours)?;
        let p_transient = self.config.p_job_transient_failure;
        let p_other = self.config.p_job_other_failure;
        let mut t = interarrival.sample(rng);
        while t < self.config.window_hours {
            let u = rng.uniform01();
            let outcome = if u < p_transient {
                JobOutcome::FailedTransientNetwork
            } else if u < p_transient + p_other {
                JobOutcome::FailedOther
            } else {
                JobOutcome::Completed
            };
            log.push(LogEvent::new(EventKind::Job(JobRecord { submit_hours: t, outcome })));
            t += interarrival.sample(rng);
        }
        Ok(())
    }

    fn generate_disk_replacements(
        &self,
        log: &mut FailureLog,
        rng: &mut SimRng,
    ) -> Result<(), LogError> {
        let lifetime = Weibull::from_shape_and_mean(
            self.config.disk_weibull_shape,
            self.config.disk_mtbf_hours,
        )?;
        for disk_id in 0..self.config.disks {
            // Each slot holds a disk; when it fails it is replaced with a new
            // one whose lifetime restarts, so a slot can fail more than once.
            let mut t = lifetime.sample(rng);
            while t < self.config.window_hours {
                log.push(LogEvent::new(EventKind::DiskReplacement(DiskReplacement {
                    time_hours: t,
                    disk_id,
                })));
                t += lifetime.sample(rng);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abe_calibrated_config_is_valid() {
        assert!(LogGenConfig::abe_calibrated().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = LogGenConfig::abe_calibrated();
        c.window_hours = 0.0;
        assert!(c.validate().is_err());

        let mut c = LogGenConfig::abe_calibrated();
        c.compute_nodes = 0;
        assert!(c.validate().is_err());

        let mut c = LogGenConfig::abe_calibrated();
        c.disks = 0;
        assert!(c.validate().is_err());

        let mut c = LogGenConfig::abe_calibrated();
        c.outages[0].max_duration_hours = 1.0;
        c.outages[0].min_duration_hours = 5.0;
        assert!(c.validate().is_err());

        let mut c = LogGenConfig::abe_calibrated();
        c.storm_sizes.clear();
        assert!(c.validate().is_err());

        let mut c = LogGenConfig::abe_calibrated();
        c.p_job_transient_failure = 0.9;
        c.p_job_other_failure = 0.4;
        assert!(c.validate().is_err());

        let mut c = LogGenConfig::abe_calibrated();
        c.disk_mtbf_hours = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = LogGenerator::new(LogGenConfig::abe_calibrated());
        let a = gen.generate(7).unwrap();
        let b = gen.generate(7).unwrap();
        assert_eq!(a, b);
        let c = gen.generate(8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_log_contains_all_event_kinds_and_is_sorted() {
        let gen = LogGenerator::new(LogGenConfig::abe_calibrated());
        let log = gen.generate(1).unwrap();
        assert!(!log.outages().is_empty());
        assert!(!log.mount_failures().is_empty());
        assert!(!log.jobs().is_empty());
        assert!(!log.disk_replacements().is_empty());
        let times: Vec<f64> = log.events().iter().map(|e| e.time_hours).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "events must be time ordered");
        assert!(times.iter().all(|&t| t >= 0.0 && t <= log.window_hours()));
    }

    #[test]
    fn job_volume_and_failure_ratio_match_calibration() {
        let gen = LogGenerator::new(LogGenConfig::abe_calibrated());
        let log = gen.generate(3).unwrap();
        let jobs = log.jobs();
        // ~13 jobs/hour over 3480 h ≈ 45 000 jobs.
        assert!(jobs.len() > 40_000 && jobs.len() < 51_000, "jobs {}", jobs.len());
        let transient =
            jobs.iter().filter(|j| j.outcome == JobOutcome::FailedTransientNetwork).count();
        let other = jobs.iter().filter(|j| j.outcome == JobOutcome::FailedOther).count();
        assert!(transient > other, "transient failures should dominate");
        let ratio = transient as f64 / other.max(1) as f64;
        assert!(ratio > 3.0 && ratio < 12.0, "ratio {ratio}");
    }

    #[test]
    fn disk_replacements_are_roughly_one_or_two_per_week() {
        let gen = LogGenerator::new(LogGenConfig::abe_calibrated());
        let mut total = 0usize;
        let runs = 8;
        for seed in 0..runs {
            total += gen.generate(seed).unwrap().disk_replacements().len();
        }
        let weeks = LogGenConfig::abe_calibrated().window_hours / 168.0;
        let per_week = total as f64 / runs as f64 / weeks;
        // The paper reports 0–2 replacements per week on ABE.
        assert!(per_week > 0.2 && per_week < 3.0, "replacements per week {per_week}");
    }

    #[test]
    fn outage_windows_are_clipped_to_observation_window() {
        let mut cfg = LogGenConfig::abe_calibrated();
        cfg.window_hours = 100.0;
        // Force frequent, long outages so clipping is exercised.
        for o in &mut cfg.outages {
            o.mean_interarrival_hours = 20.0;
            o.min_duration_hours = 30.0;
            o.max_duration_hours = 60.0;
        }
        let log = LogGenerator::new(cfg).generate(5).unwrap();
        for o in log.outages() {
            assert!(o.end_hours <= 100.0 + 1e-9);
            assert!(o.start_hours < o.end_hours);
        }
    }

    #[test]
    fn storm_sizes_never_exceed_node_count() {
        let mut cfg = LogGenConfig::abe_calibrated();
        cfg.compute_nodes = 50;
        cfg.storm_mean_interarrival_hours = 100.0;
        let log = LogGenerator::new(cfg).generate(9).unwrap();
        for m in log.mount_failures() {
            assert!(m.node_id < 50);
        }
    }

    #[test]
    fn config_accessor_roundtrips() {
        let cfg = LogGenConfig::abe_calibrated();
        let gen = LogGenerator::new(cfg.clone());
        assert_eq!(gen.config(), &cfg);
    }
}
