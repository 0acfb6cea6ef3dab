//! Dependability model of the NCSA ABE cluster file system, scaled to
//! petascale — the primary contribution of *"Scaling File Systems to Support
//! Petascale Clusters: A Dependability Analysis to Support Informed Design
//! Choices"* (Gaonkar, Rozier, Tong, Sanders).
//!
//! The crate assembles the substrates into the paper's composed model
//! (Figure 1) and its evaluation (Section 5):
//!
//! * [`params`] — the Table 5 model parameters with ABE defaults, valid
//!   ranges, and provenance.
//! * [`config`] — cluster configurations: the ABE baseline, the
//!   petaflop–petabyte target, and interpolated scale points, including the
//!   spare-OSS and multi-path mitigation options evaluated in Section 5.2.
//! * [`model`] — the stochastic activity network of the cluster: CLIENT,
//!   OSS (metadata + file-server fail-over pairs), OSS_SAN_NW, SAN, and
//!   DDN_UNITS submodels joined over shared places, built on the
//!   [`sanet`] engine.
//! * [`rewards`] — the paper's reward variables: CFS availability, storage
//!   availability, cluster utility (CU), and disk-replacement rate.
//! * [`analysis`] — runs the composed model and returns the reward
//!   estimates with confidence intervals.
//! * [`run`] — the [`RunSpec`] builder: horizon, replication policy (a
//!   fixed count or an adaptive [`PrecisionTarget`]), base seed,
//!   confidence level, and worker-thread count for any evaluation.
//! * [`scenario`] — the [`Scenario`] trait and every paper artefact
//!   (Tables 1–5, Figures 2–4, the four ablations), each of which runs its
//!   points and builds its tables and metrics in its own `evaluate`; raw
//!   [`ClusterConfig`] evaluation is a scenario too.
//! * [`study`] — the [`Study`] runner: schedules every
//!   scenario×replication work unit of a scenario set onto one global
//!   work-stealing pool, with bit-identical serial/parallel statistics.
//! * [`sweep`] — design-space sweeps: cartesian parameter grids
//!   ([`sweep::DesignSpace`]) and the function [`sweep::evaluate`], which a
//!   sweep workload's `evaluate` calls to run every point with per-point
//!   adaptive stopping and select the winner.
//! * [`workloads`] — non-paper workload families built on that function:
//!   the replication-vs-RAID redundancy comparison, the Beowulf
//!   performability sweep, and the ultra-reliable sweep that reaches
//!   10⁻⁶..10⁻¹⁰ data-loss probabilities by multilevel splitting under a
//!   [`RareEventPolicy`].
//! * [`report`] — the unified [`Report`] sink: aligned text tables, CSV,
//!   and JSON rendering for every result, including the contained
//!   [`ScenarioFailure`]s of a fault-tolerant run.
//! * [`checkpoint`] — versioned, checksummed persistence of completed
//!   replications, so a killed study resumes bit-identically via
//!   [`RunSpec::with_checkpoint`].
//!
//! # Example
//!
//! Evaluate one configuration directly, then every paper artefact through
//! the single `Study` entry point:
//!
//! ```no_run
//! use cfs_model::{analysis, ClusterConfig, ReportFormat, RunSpec, Study};
//!
//! # fn main() -> Result<(), cfs_model::CfsError> {
//! let spec = RunSpec::new()
//!     .with_horizon_hours(8760.0)
//!     .with_replications(32)
//!     .with_base_seed(42)
//!     .with_workers(4);
//!
//! // A single configuration…
//! let result = analysis::evaluate(&ClusterConfig::abe(), &spec)?;
//! println!("CFS availability: {}", result.cfs_availability);
//!
//! // …or any mix of scenarios, rendered through one report sink.
//! let report = Study::paper_artefacts().run(&spec)?;
//! println!("{}", report.render(ReportFormat::Text));
//! println!("{}", report.render(ReportFormat::Json));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod checkpoint;
pub mod config;
mod error;
pub mod lint;
pub mod model;
pub mod params;
pub mod reach;
pub mod report;
pub mod rewards;
pub mod run;
pub mod scenario;
pub mod study;
pub mod sweep;
pub mod workloads;

pub use config::ClusterConfig;
pub use error::CfsError;
pub use lint::{build_built_in, lint_all, BUILT_IN_MODELS};
pub use params::ModelParameters;
pub use probdist::telemetry::{TelemetryConfig, TelemetrySnapshot};
pub use report::{Report, ReportFormat, ScenarioFailure};
pub use run::{CheckpointPolicy, FailurePolicy, PrecisionTarget, RareEventPolicy, RunSpec};
pub use scenario::{Metric, Scenario, ScenarioOutput};
pub use study::Study;
pub use workloads::{BeowulfPerformabilitySweep, ReplicationVsRaid, UltraReliableSweep};

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterConfig>();
        assert_send_sync::<ModelParameters>();
        assert_send_sync::<CfsError>();
        assert_send_sync::<analysis::ClusterDependability>();
    }
}
