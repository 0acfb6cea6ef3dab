//! Prints the reproductions of Tables 1–5 of the paper from the calibrated
//! synthetic ABE failure log, through the unified `Study` API, followed by
//! the `paper:` lines of the published values the tables reproduce.
//!
//! Usage: `cargo run -p cfs-bench --bin abe-tables [seed] [text|csv|json]`

use cfs_bench::{paper_lines, run_and_print, study_spec};
use cfs_model::{ReportFormat, Study};

fn main() {
    // Both arguments are optional and distinguishable by shape, so accept
    // them in any order: a number is the seed, a known name is the format.
    let mut spec = study_spec();
    let mut format = ReportFormat::Text;
    for arg in std::env::args().skip(1) {
        if let Ok(seed) = arg.parse::<u64>() {
            spec = spec.with_base_seed(seed);
        } else if let Some(parsed) = ReportFormat::parse(&arg) {
            format = parsed;
        } else {
            panic!("unrecognised argument '{arg}': expected a numeric seed or text|csv|json");
        }
    }

    let report = run_and_print(
        "Tables 1-5 (synthetic ABE failure log)",
        || Study::tables().run(&spec),
        |r| r.render(format),
    );
    print!("{}", paper_lines(&report));
}
