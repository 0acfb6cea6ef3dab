//! Experiment drivers: one per table and figure of the paper's evaluation,
//! plus the ablations called out in DESIGN.md.
//!
//! Every driver takes a [`crate::run::RunSpec`], returns a structured
//! result, and can render itself as a [`crate::report::TextTable`] whose
//! rows mirror the paper's presentation. These are the functions the
//! [`crate::scenario::Scenario`] implementations wrap; run them through a
//! [`crate::study::Study`] unless you need the raw result structs.
//! Monte-Carlo drivers honour the spec's replication policy — a fixed
//! count, or precision-targeted batches when
//! [`crate::run::RunSpec::with_precision_target`] is set — and record the
//! replication count actually used in their results.
//!
//! | Paper artefact | Driver |
//! |---|---|
//! | Table 1 (outages / SAN availability) | [`tables::table1_outages`] |
//! | Table 2 (mount failures per day) | [`tables::table2_mount_failures`] |
//! | Table 3 (job statistics) | [`tables::table3_jobs`] |
//! | Table 4 (disk failures, Weibull fit) | [`tables::table4_disk_failures`] |
//! | Table 5 (model parameters) | [`tables::table5_parameters`] |
//! | Figure 2 (storage availability vs scale) | [`fig2::figure2_storage_availability_with`] |
//! | Figure 3 (disk replacements per week) | [`fig3::figure3_disk_replacements_with`] |
//! | Figure 4 (CFS availability and CU vs scale) | [`fig4::figure4_cfs_availability_with`] |
//! | Ablations (§6 of DESIGN.md) | [`ablations`] |

pub mod ablations;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod tables;

pub use ablations::{
    ablation_correlation_with, ablation_raid_parity_with, ablation_repair_time_with,
    ablation_spare_oss_with, AblationPoint, AblationResult,
};
pub use fig2::{figure2_storage_availability_with, Fig2Config, Fig2Point, Fig2Result, Fig2Series};
pub use fig3::{figure3_disk_replacements_with, Fig3Point, Fig3Result, Fig3Series};
pub use fig4::{figure4_cfs_availability_with, Fig4Point, Fig4Result};
pub use tables::{
    table1_outages, table2_mount_failures, table3_jobs, table4_disk_failures, table5_parameters,
    Table1Result, Table2Result, Table3Result, Table4Result,
};

use crate::run::RunSpec;
use crate::CfsError;
use raidsim::{StorageSimulator, StorageSummary};

/// Runs one storage Monte-Carlo point under the spec's stopping rule (a
/// fixed count, or precision-targeted batches) at the given seed — the
/// spec-to-run mapping every storage-side driver shares.
pub(crate) fn run_storage(
    simulator: &StorageSimulator,
    spec: &RunSpec,
    seed: u64,
) -> Result<StorageSummary, CfsError> {
    let rule = spec.stopping_rule()?;
    Ok(simulator.run(spec.horizon_hours(), &rule, seed, spec.confidence_level(), spec.workers())?)
}
