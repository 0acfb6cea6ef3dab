//! `petascale-cfs` — umbrella crate for the dependability analysis of
//! petascale cluster file systems.
//!
//! This crate re-exports the workspace's five libraries under one roof so
//! downstream users (and the bundled examples and integration tests) need a
//! single dependency:
//!
//! * [`probdist`] — lifetime distributions, statistics, and lifetime
//!   fitting.
//! * [`sanet`] — the stochastic activity network formalism and
//!   discrete-event simulation engine (a Möbius work-alike).
//! * [`faultlog`] — synthetic failure-log generation, parsing, filtering,
//!   and analysis calibrated to the published ABE statistics.
//! * [`raidsim`] — RAID tier / controller / DDN storage reliability models.
//! * [`cfs_model`] — the composed ABE cluster-file-system dependability
//!   model, its reward measures, and the `RunSpec`/`Scenario`/`Study` API
//!   that regenerates every table and figure of the paper.
//!
//! # Quickstart
//!
//! Describe *how* to run once with a [`cfs_model::RunSpec`], then evaluate
//! anything — a single configuration, or every paper artefact — through the
//! [`cfs_model::Study`] entry point:
//!
//! ```no_run
//! use petascale_cfs::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One simulated year, 32 replications, fanned across 4 worker threads.
//! // Replication i always draws from the stream derived from (seed, i), so
//! // serial and parallel runs produce bit-identical statistics.
//! let spec = RunSpec::new()
//!     .with_horizon_hours(8760.0)
//!     .with_replications(32)
//!     .with_base_seed(42)
//!     .with_workers(4);
//!
//! // Evaluate the ABE baseline directly…
//! let result = evaluate(&ClusterConfig::abe(), &spec)?;
//! println!("CFS availability: {}", result.cfs_availability);
//!
//! // …compare design points by running them as one study…
//! let report = Study::new()
//!     .with(ClusterConfig::abe())
//!     .with(ClusterConfig::petascale())
//!     .with(ClusterConfig::petascale().with_spare_oss())
//!     .run(&spec)?;
//! println!("{}", report.to_text());
//!
//! // …or regenerate every paper artefact and export it as JSON/CSV.
//! let report = Study::paper_artefacts().run(&spec)?;
//! println!("{}", report.render(ReportFormat::Json));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cfs_model;
pub use faultlog;
pub use probdist;
pub use raidsim;
pub use sanet;

/// The most commonly used items, importable with
/// `use petascale_cfs::prelude::*`.
pub mod prelude {
    pub use cfs_model::analysis::evaluate;
    pub use cfs_model::config::ClusterConfig;
    pub use cfs_model::scenario::{Metric, Scenario, ScenarioOutput};
    pub use cfs_model::sweep::{DesignPoint, DesignSpace, Objective, PointOutcome};
    pub use cfs_model::workloads::{
        BeowulfPerformabilitySweep, RedundancyScheme, ReplicationVsRaid, UltraReliableSweep,
    };
    pub use cfs_model::{
        CfsError, CheckpointPolicy, FailurePolicy, ModelParameters, PrecisionTarget,
        RareEventPolicy, Report, ReportFormat, RunSpec, ScenarioFailure, Study, TelemetryConfig,
        TelemetrySnapshot,
    };
    pub use faultlog::analysis::{
        DiskReplacementAnalysis, JobAnalysis, MountFailureAnalysis, OutageAnalysis,
    };
    pub use faultlog::generator::{LogGenConfig, LogGenerator};
    pub use probdist::rare::{naive_replications_for, RareEventEstimate};
    pub use probdist::stats::StoppingRule;
    pub use probdist::{Distribution, Exponential, SimRng, Weibull};
    pub use raidsim::{
        DiskModel, Layout, RaidGeometry, ReplicationConfig, StorageConfig, StorageSimulator,
    };
    pub use sanet::beowulf::BeowulfConfig;
    pub use sanet::{Experiment, ModelBuilder};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_entry_points() {
        use crate::prelude::*;
        let abe = ClusterConfig::abe();
        assert_eq!(abe.compute_nodes, 1200);
        let storage = StorageConfig::abe_scratch();
        assert_eq!(storage.total_disks(), 480);
        let _params = ModelParameters::abe();
        let spec = RunSpec::new().with_replications(4);
        assert!(spec.validate().is_ok());
        assert_eq!(Study::paper_artefacts().len(), 12);
    }
}
