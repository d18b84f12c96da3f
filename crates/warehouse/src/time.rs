//! Civil-calendar helpers over Unix timestamps.
//!
//! XDMoD aggregates facts by day, month, quarter, and year ("aggregation
//! periods"). The warehouse carries timestamps as epoch seconds; this
//! module provides the proleptic-Gregorian conversions needed to bin them,
//! using Howard Hinnant's `days_from_civil` algorithm. All arithmetic is
//! UTC; XDMoD instances are assumed to normalize to UTC at ingest time.

use std::fmt;

/// Seconds per day.
pub const SECS_PER_DAY: i64 = 86_400;

/// A civil (year, month, day) date, UTC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CivilDate {
    /// Gregorian year (may be negative, proleptic).
    pub year: i32,
    /// Month, 1-12.
    pub month: u8,
    /// Day of month, 1-31.
    pub day: u8,
}

impl CivilDate {
    /// Construct a date; panics on out-of-range month/day (programmer error).
    pub fn new(year: i32, month: u8, day: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day out of range: {year}-{month}-{day}"
        );
        CivilDate { year, month, day }
    }

    /// Days since the Unix epoch (1970-01-01 is day 0).
    pub fn to_days(self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Epoch seconds at 00:00:00 UTC of this date.
    pub fn to_epoch(self) -> i64 {
        self.to_days() * SECS_PER_DAY
    }

    /// The date `n` days later (or earlier for negative `n`).
    pub fn plus_days(self, n: i64) -> Self {
        civil_from_days(self.to_days() + n)
    }

    /// Quarter of the year, 1-4.
    pub fn quarter(self) -> u8 {
        (self.month - 1) / 3 + 1
    }
}

impl fmt::Display for CivilDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// True for Gregorian leap years.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year`.
///
/// Out-of-range months (0, 13, ...) yield 0 rather than panicking: every
/// validation site compares `day <= days_in_month(..)`, so a bad month
/// makes *all* days invalid — the parse or constructor rejects the input
/// instead of tearing the process down on untrusted data. Use
/// [`checked_days_in_month`] when the caller wants the error surfaced.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Like [`days_in_month`] but returns an error for out-of-range months.
pub fn checked_days_in_month(year: i32, month: u8) -> Result<u8, crate::error::WarehouseError> {
    if (1..=12).contains(&month) {
        Ok(days_in_month(year, month))
    } else {
        Err(crate::error::WarehouseError::InvalidTime(format!(
            "month out of range: {month}"
        )))
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's algorithm).
pub fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m as i32 + 9) % 12); // [0, 11], Mar=0
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for days since 1970-01-01 (inverse of [`days_from_civil`]).
pub fn civil_from_days(z: i64) -> CivilDate {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    CivilDate {
        year: (y + i64::from(m <= 2)) as i32,
        month: m,
        day: d,
    }
}

/// Civil date of an epoch timestamp (UTC midnight flooring).
pub fn date_of_epoch(epoch_secs: i64) -> CivilDate {
    civil_from_days(epoch_secs.div_euclid(SECS_PER_DAY))
}

/// Aggregation periods XDMoD materializes ("every day, aggregation
/// processes run against newly ingested data ... binning numeric data in
/// aggregation tables", paper §II-C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Period {
    /// Calendar day.
    Day,
    /// Calendar month.
    Month,
    /// Calendar quarter.
    Quarter,
    /// Calendar year.
    Year,
}

impl Period {
    /// All periods, smallest to largest.
    pub const ALL: [Period; 4] = [Period::Day, Period::Month, Period::Quarter, Period::Year];

    /// Lowercase identifier used in aggregate-table names
    /// (e.g. `jobfact_by_month`).
    pub fn ident(self) -> &'static str {
        match self {
            Period::Day => "day",
            Period::Month => "month",
            Period::Quarter => "quarter",
            Period::Year => "year",
        }
    }

    /// The canonical bucket id of `epoch_secs` under this period.
    ///
    /// Bucket ids are dense, ordered integers: days since epoch for `Day`,
    /// `year*12+month0` for `Month`, `year*4+quarter0` for `Quarter`, and
    /// the year itself for `Year`.
    pub fn bucket_of(self, epoch_secs: i64) -> i64 {
        let date = date_of_epoch(epoch_secs);
        match self {
            Period::Day => epoch_secs.div_euclid(SECS_PER_DAY),
            Period::Month => i64::from(date.year) * 12 + i64::from(date.month - 1),
            Period::Quarter => i64::from(date.year) * 4 + i64::from(date.quarter() - 1),
            Period::Year => i64::from(date.year),
        }
    }

    /// Epoch seconds of the inclusive start of bucket `id`.
    pub fn bucket_start(self, id: i64) -> i64 {
        match self {
            Period::Day => id * SECS_PER_DAY,
            Period::Month => {
                let year = id.div_euclid(12) as i32;
                let month = (id.rem_euclid(12) + 1) as u8;
                CivilDate::new(year, month, 1).to_epoch()
            }
            Period::Quarter => {
                let year = id.div_euclid(4) as i32;
                let month = (id.rem_euclid(4) * 3 + 1) as u8;
                CivilDate::new(year, month, 1).to_epoch()
            }
            Period::Year => CivilDate::new(id as i32, 1, 1).to_epoch(),
        }
    }

    /// Epoch seconds of the exclusive end of bucket `id`.
    pub fn bucket_end(self, id: i64) -> i64 {
        match self {
            Period::Day => (id + 1) * SECS_PER_DAY,
            Period::Month | Period::Quarter | Period::Year => self.bucket_start(id + 1),
        }
    }

    /// Human label of bucket `id`, e.g. `2017-03`, `2017Q2`, `2017`.
    pub fn bucket_label(self, id: i64) -> String {
        match self {
            Period::Day => date_of_epoch(self.bucket_start(id)).to_string(),
            Period::Month => {
                let year = id.div_euclid(12);
                let month = id.rem_euclid(12) + 1;
                format!("{year:04}-{month:02}")
            }
            Period::Quarter => {
                let year = id.div_euclid(4);
                let q = id.rem_euclid(4) + 1;
                format!("{year:04}Q{q}")
            }
            Period::Year => format!("{id:04}"),
        }
    }
}

/// Parse an ISO-8601-style UTC datetime `YYYY-MM-DDTHH:MM:SS` (the format
/// SLURM's `sacct` emits) into epoch seconds. Returns `None` on malformed
/// input or out-of-range fields.
pub fn parse_iso_datetime(s: &str) -> Option<i64> {
    let bytes = s.as_bytes();
    if bytes.len() != 19
        || bytes[4] != b'-'
        || bytes[7] != b'-'
        || bytes[10] != b'T'
        || bytes[13] != b':'
        || bytes[16] != b':'
    {
        return None;
    }
    let num = |range: std::ops::Range<usize>| -> Option<i64> {
        let part = &s[range];
        if part.bytes().all(|b| b.is_ascii_digit()) {
            part.parse().ok()
        } else {
            None
        }
    };
    let year = num(0..4)? as i32;
    let month = num(5..7)?;
    let day = num(8..10)?;
    let hour = num(11..13)?;
    let min = num(14..16)?;
    let sec = num(17..19)?;
    if !(1..=12).contains(&month) {
        return None;
    }
    let month = month as u8;
    if day < 1 || day > i64::from(days_in_month(year, month)) {
        return None;
    }
    if hour > 23 || min > 59 || sec > 59 {
        return None;
    }
    let days = days_from_civil(year, month, day as u8);
    Some(days * SECS_PER_DAY + hour * 3600 + min * 60 + sec)
}

/// Format epoch seconds as `YYYY-MM-DDTHH:MM:SS` UTC (inverse of
/// [`parse_iso_datetime`]).
pub fn format_iso_datetime(epoch_secs: i64) -> String {
    let date = date_of_epoch(epoch_secs);
    let tod = epoch_secs.rem_euclid(SECS_PER_DAY);
    format!(
        "{date}T{:02}:{:02}:{:02}",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso_parse_known_value() {
        assert_eq!(
            parse_iso_datetime("2017-01-01T00:00:00"),
            Some(1_483_228_800)
        );
        assert_eq!(
            parse_iso_datetime("2017-06-15T12:30:45"),
            Some(CivilDate::new(2017, 6, 15).to_epoch() + 12 * 3600 + 30 * 60 + 45)
        );
    }

    #[test]
    fn iso_parse_rejects_malformed() {
        for bad in [
            "2017-01-01",
            "2017/01/01T00:00:00",
            "2017-13-01T00:00:00",
            "2017-02-30T00:00:00",
            "2017-01-01T24:00:00",
            "2017-01-01T00:60:00",
            "2017-01-01T00:00:0x",
            "",
        ] {
            assert_eq!(parse_iso_datetime(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn iso_round_trip() {
        for t in [0, 1_483_228_800, 1_500_000_123, -86_400] {
            assert_eq!(parse_iso_datetime(&format_iso_datetime(t)), Some(t));
        }
    }

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), CivilDate::new(1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // 2017-01-01 00:00:00 UTC = 1483228800.
        assert_eq!(CivilDate::new(2017, 1, 1).to_epoch(), 1_483_228_800);
        // 2000-03-01 follows the century leap day.
        assert_eq!(
            civil_from_days(days_from_civil(2000, 2, 29) + 1),
            CivilDate::new(2000, 3, 1)
        );
    }

    #[test]
    fn round_trip_across_decades() {
        for days in (-20_000..40_000).step_by(37) {
            let d = civil_from_days(days);
            assert_eq!(d.to_days(), days, "round trip failed at {d}");
        }
    }

    #[test]
    fn out_of_range_month_is_rejected_not_panicking() {
        // days_in_month saturates to 0 days, so no day validates.
        assert_eq!(days_in_month(2017, 0), 0);
        assert_eq!(days_in_month(2017, 13), 0);
        assert_eq!(days_in_month(2017, 255), 0);
        // The checked variant surfaces the error.
        assert!(matches!(
            checked_days_in_month(2017, 13),
            Err(crate::error::WarehouseError::InvalidTime(_))
        ));
        assert_eq!(checked_days_in_month(2016, 2), Ok(29));
        // Parsing a datetime with a bad month still cleanly returns None
        // (month is range-checked before the day lookup).
        assert_eq!(parse_iso_datetime("2017-00-01T00:00:00"), None);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(is_leap_year(2016));
        assert!(!is_leap_year(2017));
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2017, 2), 28);
    }

    #[test]
    fn month_buckets_cover_2017() {
        let jan = CivilDate::new(2017, 1, 15).to_epoch();
        let dec = CivilDate::new(2017, 12, 31).to_epoch();
        let b_jan = Period::Month.bucket_of(jan);
        let b_dec = Period::Month.bucket_of(dec);
        assert_eq!(b_dec - b_jan, 11);
        assert_eq!(Period::Month.bucket_label(b_jan), "2017-01");
        assert_eq!(Period::Month.bucket_label(b_dec), "2017-12");
    }

    #[test]
    fn bucket_start_end_bracket_timestamps() {
        let t = CivilDate::new(2017, 6, 17).to_epoch() + 12_345;
        for p in Period::ALL {
            let b = p.bucket_of(t);
            assert!(p.bucket_start(b) <= t, "{p:?} start");
            assert!(t < p.bucket_end(b), "{p:?} end");
            // Bucket ids are monotone in time.
            assert!(p.bucket_of(p.bucket_end(b)) == b + 1 || p.bucket_of(p.bucket_end(b)) > b);
        }
    }

    #[test]
    fn quarter_boundaries() {
        assert_eq!(CivilDate::new(2017, 3, 31).quarter(), 1);
        assert_eq!(CivilDate::new(2017, 4, 1).quarter(), 2);
        let q = Period::Quarter.bucket_of(CivilDate::new(2017, 7, 1).to_epoch());
        assert_eq!(Period::Quarter.bucket_label(q), "2017Q3");
    }

    #[test]
    fn negative_epochs_floor_correctly() {
        // 1969-12-31 23:59:59 is the day before the epoch.
        assert_eq!(date_of_epoch(-1), CivilDate::new(1969, 12, 31));
        assert_eq!(Period::Day.bucket_of(-1), -1);
    }

    #[test]
    fn plus_days_wraps_months_and_years() {
        let d = CivilDate::new(2016, 12, 31).plus_days(1);
        assert_eq!(d, CivilDate::new(2017, 1, 1));
        let d = CivilDate::new(2016, 2, 28).plus_days(1);
        assert_eq!(d, CivilDate::new(2016, 2, 29));
    }
}
