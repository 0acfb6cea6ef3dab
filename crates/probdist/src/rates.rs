//! Failure-rate arithmetic: conversions between MTBF (hours) and
//! annualized failure rate (AFR, percent per year).
//!
//! The paper's Table 5 parameterises disk reliability both as "Disk MTBF
//! 100 000–3 000 000 hours" and as "Annualized Failure Rate 0.40 %–8.6 %",
//! and the figure labels use AFR while the simulation uses MTBF hours.
//! These newtypes keep the two conventions from being mixed up
//! (C-NEWTYPE).

use serde::{Deserialize, Serialize};

use crate::DistError;

/// Number of hours in one year, used for AFR ↔ MTBF conversions (365 days,
/// the convention used by disk vendors and by the paper: an MTBF of
/// 100 000 h is quoted as AFR 8.76 %, and 300 000 h as 2.92 %).
pub(crate) const HOURS_PER_YEAR: f64 = 8760.0;

/// Mean time between failures, in hours.
///
/// # Example
///
/// ```
/// use probdist::{Mtbf, Afr};
///
/// # fn main() -> Result<(), probdist::DistError> {
/// let mtbf = Mtbf::new(300_000.0)?;
/// let afr = mtbf.to_afr();
/// assert!((afr.percent() - 2.92).abs() < 0.01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Mtbf(f64);

impl Mtbf {
    /// Creates an MTBF value from hours.
    ///
    /// # Errors
    ///
    /// Returns an error unless `hours` is finite and strictly positive.
    pub fn new(hours: f64) -> Result<Self, DistError> {
        Ok(Mtbf(DistError::check_positive("mtbf_hours", hours)?))
    }

    /// MTBF in hours.
    pub fn hours(&self) -> f64 {
        self.0
    }

    /// The corresponding annualized failure rate, using the vendor (and
    /// paper) convention `AFR = hours-per-year / MTBF`. This is the expected
    /// number of failures per unit-year, quoted as a percentage; it matches
    /// the figure labels of the paper exactly (100 000 h ↔ 8.76 %,
    /// 200 000 h ↔ 4.38 %, 300 000 h ↔ 2.92 %, 1 000 000 h ↔ 0.88 %).
    pub fn to_afr(&self) -> Afr {
        Afr(100.0 * HOURS_PER_YEAR / self.0)
    }
}

/// Annualized failure rate, stored in **percent** per year (e.g. `2.92`
/// means 2.92 % of the population fails per year).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Afr(f64);

impl Afr {
    /// Creates an AFR from a percentage in `(0, 100)`.
    ///
    /// # Errors
    ///
    /// Returns an error if `percent` is not finite, not strictly positive,
    /// or at least 100 (a population cannot lose 100 % per year under an
    /// exponential model with finite rate).
    pub fn new(percent: f64) -> Result<Self, DistError> {
        let percent = DistError::check_positive("afr_percent", percent)?;
        if percent >= 100.0 {
            return Err(DistError::InvalidProbability { value: percent / 100.0 });
        }
        Ok(Afr(percent))
    }

    /// The AFR as a percentage per year.
    pub fn percent(&self) -> f64 {
        self.0
    }

    /// The AFR as a probability (fraction failing per year).
    pub fn fraction(&self) -> f64 {
        self.0 / 100.0
    }

    /// The corresponding MTBF: `MTBF = hours-per-year / (AFR / 100)`.
    pub fn to_mtbf(&self) -> Mtbf {
        Mtbf(HOURS_PER_YEAR / self.fraction())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mtbf_300k_hours_is_about_2_92_percent_afr() {
        // This is the paper's headline disk parameter: MTBF = 300 000 h
        // "or annualized failure rate (AFR) = 2.92 %".
        let afr = Mtbf::new(300_000.0).unwrap().to_afr();
        assert!((afr.percent() - 2.92).abs() < 0.02, "afr = {}", afr.percent());
    }

    #[test]
    fn afr_roundtrips_through_mtbf() {
        for pct in [0.4, 0.88, 2.92, 4.38, 8.6, 8.76] {
            let afr = Afr::new(pct).unwrap();
            let back = afr.to_mtbf().to_afr();
            assert!((back.percent() - pct).abs() < 1e-9, "pct {pct}");
        }
    }

    #[test]
    fn table5_mtbf_range_maps_into_afr_range() {
        // Table 5: MTBF 100 000–3 000 000 h corresponds to AFR 8.76 %–0.29 %;
        // the figure labels quote 8.76 % for the pessimistic end.
        let high = Mtbf::new(100_000.0).unwrap().to_afr().percent();
        let low = Mtbf::new(3_000_000.0).unwrap().to_afr().percent();
        assert!((high - 8.76).abs() < 1e-9, "high {high}");
        assert!((low - 0.292).abs() < 1e-9, "low {low}");
    }

    #[test]
    fn figure_label_afrs_match_round_mtbfs() {
        // The tuples in Figures 2 and 3 use AFRs 8.76, 4.38, 2.92, 0.88 —
        // i.e. MTBFs of 100k, 200k, 300k and ~1M hours.
        for (mtbf, afr) in
            [(100_000.0, 8.76), (200_000.0, 4.38), (300_000.0, 2.92), (1_000_000.0, 0.876)]
        {
            let got = Mtbf::new(mtbf).unwrap().to_afr().percent();
            assert!((got - afr).abs() < 0.005, "mtbf {mtbf}: got {got}, want {afr}");
        }
    }

    #[test]
    fn constructors_reject_bad_input() {
        assert!(Mtbf::new(0.0).is_err());
        assert!(Afr::new(0.0).is_err());
        assert!(Afr::new(100.0).is_err());
        assert!(Afr::new(150.0).is_err());
    }
}
