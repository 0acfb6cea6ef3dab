use serde::{Deserialize, Serialize};

/// A calendar timestamp (minute precision) used to render log events in the
/// same `MM/DD/YY HH:MM` style as the paper's tables.
///
/// Internally every log stores event times as *hours since the start of the
/// observation window*; `SimDate` converts between that representation and
/// calendar dates given the window's origin. The conversion uses the
/// proleptic Gregorian calendar (days-from-civil algorithm), which is exact
/// for the 2007-era dates in the paper and for any other modern date.
///
/// # Example
///
/// ```
/// use faultlog::SimDate;
///
/// let origin = SimDate::new(2007, 7, 21, 23, 3);
/// let later = origin.plus_hours(12.95);
/// assert_eq!(later.to_string(), "07/22/07 12:00");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SimDate {
    year: i32,
    month: u8,
    day: u8,
    hour: u8,
    minute: u8,
}

impl SimDate {
    /// Creates a date. Values are taken as given (month 1–12, day 1–31,
    /// hour 0–23, minute 0–59); out-of-range inputs are clamped.
    pub fn new(year: i32, month: u8, day: u8, hour: u8, minute: u8) -> Self {
        SimDate {
            year,
            month: month.clamp(1, 12),
            day: day.clamp(1, 31),
            hour: hour.min(23),
            minute: minute.min(59),
        }
    }

    /// The calendar year.
    pub fn year(&self) -> i32 {
        self.year
    }

    /// The calendar month (1–12).
    pub fn month(&self) -> u8 {
        self.month
    }

    /// The day of month (1–31).
    pub fn day(&self) -> u8 {
        self.day
    }

    /// The hour of day (0–23).
    pub fn hour(&self) -> u8 {
        self.hour
    }

    /// The minute (0–59).
    pub(crate) fn minute(&self) -> u8 {
        self.minute
    }

    /// Days since the civil epoch 1970-01-01 (may be negative), ignoring the
    /// time of day.
    fn days_from_civil(&self) -> i64 {
        // Howard Hinnant's days_from_civil algorithm.
        let y = if self.month <= 2 { self.year - 1 } else { self.year } as i64;
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400;
        let m = self.month as i64;
        let d = self.day as i64;
        let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1;
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
        era * 146_097 + doe - 719_468
    }

    fn from_days_from_civil(z: i64) -> (i32, u8, u8) {
        let z = z + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097;
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
        let mp = (5 * doy + 2) / 153;
        let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
        let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8;
        let y = if m <= 2 { y + 1 } else { y } as i32;
        (y, m, d)
    }

    /// Hours since the civil epoch, at minute precision.
    pub(crate) fn as_hours_since_epoch(&self) -> f64 {
        self.days_from_civil() as f64 * 24.0 + self.hour as f64 + self.minute as f64 / 60.0
    }

    /// The date `hours` hours after `self` (rounded down to the minute).
    pub fn plus_hours(&self, hours: f64) -> SimDate {
        let total_minutes = (self.as_hours_since_epoch() * 60.0 + hours * 60.0).round() as i64;
        let days = total_minutes.div_euclid(24 * 60);
        let rem = total_minutes.rem_euclid(24 * 60);
        let (year, month, day) = SimDate::from_days_from_civil(days);
        SimDate { year, month, day, hour: (rem / 60) as u8, minute: (rem % 60) as u8 }
    }

    /// Day index (0-based) of `self` relative to `origin`, i.e. which
    /// calendar day of the observation window the timestamp falls in.
    pub(crate) fn day_index_since(&self, origin: SimDate) -> i64 {
        self.days_from_civil() - origin.days_from_civil()
    }
}

impl std::fmt::Display for SimDate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:02}/{:02}/{:02} {:02}:{:02}",
            self.month,
            self.day,
            self.year.rem_euclid(100),
            self.hour,
            self.minute
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_like_the_paper_tables() {
        let d = SimDate::new(2007, 7, 21, 23, 3);
        assert_eq!(d.to_string(), "07/21/07 23:03");
    }

    #[test]
    fn plus_hours_crosses_midnight_and_months() {
        // Table 1 row 1: outage from 07/21/07 23:03 lasting 12.95 h ends
        // 07/22/07 12:00 (the paper rounds; we land at 11:59/12:00).
        let start = SimDate::new(2007, 7, 21, 23, 3);
        let end = start.plus_hours(12.95);
        assert_eq!(end.month(), 7);
        assert_eq!(end.day(), 22);
        assert!(end.hour() == 11 || end.hour() == 12);

        // Month boundary: 08/31 + 48 h = 09/02.
        let d = SimDate::new(2007, 8, 31, 0, 0).plus_hours(48.0);
        assert_eq!((d.month(), d.day()), (9, 2));

        // Year boundary.
        let d = SimDate::new(2007, 12, 31, 23, 0).plus_hours(2.0);
        assert_eq!((d.year(), d.month(), d.day(), d.hour()), (2008, 1, 1, 1));
    }

    #[test]
    fn hours_since_is_inverse_of_plus_hours() {
        let origin = SimDate::new(2007, 5, 3, 0, 0);
        for h in [0.0, 1.5, 26.75, 1000.25, 3672.0] {
            let d = origin.plus_hours(h);
            let since = d.as_hours_since_epoch() - origin.as_hours_since_epoch();
            assert!((since - h).abs() < 1.0 / 60.0 + 1e-9, "h = {h}");
        }
    }

    #[test]
    fn leap_year_is_handled() {
        let d = SimDate::new(2008, 2, 28, 12, 0).plus_hours(24.0);
        assert_eq!((d.month(), d.day()), (2, 29));
        let d = SimDate::new(2007, 2, 28, 12, 0).plus_hours(24.0);
        assert_eq!((d.month(), d.day()), (3, 1));
    }

    #[test]
    fn day_index_counts_calendar_days() {
        let origin = SimDate::new(2007, 7, 1, 12, 0);
        assert_eq!(origin.day_index_since(origin), 0);
        assert_eq!(SimDate::new(2007, 7, 2, 0, 5).day_index_since(origin), 1);
        assert_eq!(SimDate::new(2007, 8, 1, 23, 0).day_index_since(origin), 31);
    }

    #[test]
    fn out_of_range_components_are_clamped() {
        let d = SimDate::new(2007, 13, 40, 30, 90);
        assert_eq!(d.month(), 12);
        assert_eq!(d.day(), 31);
        assert_eq!(d.hour(), 23);
        assert_eq!(d.minute(), 59);
    }

    #[test]
    fn ordering_follows_chronology() {
        let a = SimDate::new(2007, 7, 21, 23, 3);
        let b = SimDate::new(2007, 7, 22, 1, 0);
        assert!(a < b);
    }
}
