//! CSV encoding primitives shared by the report sink.
//!
//! Any experiment table renders as CSV through
//! [`crate::report::TextTable::to_csv`], and a whole study through
//! [`crate::report::Report::to_csv`]; both return the full file contents
//! as a `String` and leave filesystem decisions to the caller.

/// Escapes one CSV cell (quotes cells containing commas, quotes, or
/// either line-break character — RFC 4180 treats a bare `\r` exactly like
/// `\n`, so both must trigger quoting).
pub(crate) fn escape(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Joins cells into one CSV record.
pub(crate) fn record(cells: &[String]) -> String {
    cells.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_escaping_follows_csv_rules() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(record(&["a".into(), "b,c".into()]), "a,\"b,c\"");
    }

    #[test]
    fn line_break_characters_trigger_quoting() {
        // RFC 4180: a record ends at CRLF, CR, or LF — a cell containing a
        // bare carriage return must be quoted just like one with a newline.
        assert_eq!(escape("a\nb"), "\"a\nb\"");
        assert_eq!(escape("a\rb"), "\"a\rb\"");
        assert_eq!(escape("a\r\nb"), "\"a\r\nb\"");
        assert_eq!(record(&["x".into(), "y\rz".into()]), "x,\"y\rz\"");
    }

    #[test]
    fn quoted_series_labels_survive_a_table_round_trip() {
        use crate::run::RunSpec;
        use crate::scenario::{Figure2StorageAvailability, Scenario};

        let spec = RunSpec::new().with_horizon_hours(2000.0).with_replications(4).with_base_seed(1);
        let figure = Figure2StorageAvailability { capacities_tb: vec![96.0] };
        let csv = figure.evaluate(&spec).unwrap().tables[0].to_csv();
        // The series labels contain commas and must therefore be quoted.
        assert!(csv.contains("\"(0.6,8.76,8+2,4)\""), "{csv}");
        assert_eq!(csv.lines().count(), 2, "header plus the single capacity row");
    }
}
