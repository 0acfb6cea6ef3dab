//! Prints the reproductions of Figures 2–4 and the ablation studies,
//! through the unified `Study` API, followed by the `paper:` lines of the
//! published values the selected figures reproduce.
//!
//! Usage:
//! `cargo run --release -p cfs-bench --bin abe-figures [fig2|fig3|fig4|ablations|all] [text|csv|json]`
//!
//! Replication counts, horizons, and worker-thread counts honour the
//! `CFS_BENCH_REPLICATIONS`, `CFS_BENCH_HORIZON_HOURS`, and
//! `CFS_BENCH_WORKERS` environment variables.

use cfs_bench::{paper_lines, run_and_print, study_spec};
use cfs_model::scenario::{
    Figure2StorageAvailability, Figure3DiskReplacements, Figure4CfsAvailability,
};
use cfs_model::{ReportFormat, Study};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let format = std::env::args().nth(2).map_or(ReportFormat::Text, |name| {
        ReportFormat::parse(&name).expect("format must be text, csv, or json")
    });
    let spec = study_spec();

    let study = match which.as_str() {
        "fig2" => Study::new().with(Figure2StorageAvailability::default()),
        "fig3" => Study::new().with(Figure3DiskReplacements::default()),
        "fig4" => Study::new().with(Figure4CfsAvailability::default()),
        "ablations" => Study::ablations(),
        "all" => Study::figures().and(Study::ablations()),
        other => panic!("unknown selection '{other}': use fig2, fig3, fig4, ablations, or all"),
    };

    let report = run_and_print(
        &format!("Figures and ablations ({which})"),
        || study.run(&spec),
        |r| r.render(format),
    );
    print!("{}", paper_lines(&report));
}
