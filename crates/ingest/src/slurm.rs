//! SLURM `sacct`-style accounting-log shredder.
//!
//! "XDMoD mines log files from resource managers such as SLURM ... to
//! provide a wide array of job metrics." (§I-D). This parser consumes the
//! pipe-delimited export format of `sacct --parsable2`:
//!
//! ```text
//! JobID|User|Account|Partition|NNodes|NCPUS|Submit|Start|End|State|AllocGPUs
//! 101|alice|physics|normal|2|56|2017-01-05T08:00:00|2017-01-05T09:00:00|2017-01-05T13:30:00|COMPLETED|0
//! ```
//!
//! Timestamps are UTC `YYYY-MM-DDTHH:MM:SS`. Only *ended* jobs
//! (`COMPLETED`, `FAILED`, `TIMEOUT`, `CANCELLED`, `NODE_FAIL`) are
//! ingested; running/pending jobs are skipped with a warning, mirroring
//! production shredder behaviour. XD SU charges are applied at ingest
//! time through the instance's [`SuConverter`] (§II-C6).

use crate::report::{IngestError, IngestReport, Result};
use xdmod_realms::su::SuConverter;
use xdmod_warehouse::time::parse_iso_datetime;
use xdmod_warehouse::{Row, Value};

/// Expected header of a sacct export, pipe-delimited.
pub const HEADER: &str =
    "JobID|User|Account|Partition|NNodes|NCPUS|Submit|Start|End|State|AllocGPUs";

/// Job states that mean the job has ended and should be ingested.
pub const ENDED_STATES: [&str; 5] = ["COMPLETED", "FAILED", "TIMEOUT", "CANCELLED", "NODE_FAIL"];

/// One parsed accounting record.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Numeric job id.
    pub job_id: i64,
    /// Submitting user.
    pub user: String,
    /// Account / PI.
    pub account: String,
    /// Partition / queue.
    pub partition: String,
    /// Nodes allocated.
    pub nodes: i64,
    /// Cores allocated.
    pub cores: i64,
    /// Submit time, epoch seconds.
    pub submit: i64,
    /// Start time, epoch seconds.
    pub start: i64,
    /// End time, epoch seconds.
    pub end: i64,
    /// Final state string.
    pub state: String,
    /// GPUs allocated (0 when none).
    pub gpus: i64,
}

impl JobRecord {
    /// Wall time in hours.
    pub fn wall_hours(&self) -> f64 {
        (self.end - self.start) as f64 / 3600.0
    }

    /// Queue wait time in hours.
    pub fn wait_hours(&self) -> f64 {
        (self.start - self.submit) as f64 / 3600.0
    }

    /// CPU-hours consumed (cores × wall hours).
    pub fn cpu_hours(&self) -> f64 {
        self.cores as f64 * self.wall_hours()
    }

    /// Convert into a `jobfact` row for `resource`, charging XD SUs
    /// through `su`.
    pub fn to_fact_row(&self, resource: &str, su: &SuConverter) -> Row {
        vec![
            Value::Int(self.job_id),
            Value::Str(resource.to_owned()),
            Value::Str(self.user.clone()),
            Value::Str(self.account.clone()),
            Value::Str(self.partition.clone()),
            Value::Int(self.nodes),
            Value::Int(self.cores),
            Value::Time(self.submit),
            Value::Time(self.start),
            Value::Time(self.end),
            Value::Float(self.wall_hours()),
            Value::Float(self.wait_hours()),
            Value::Float(self.cpu_hours()),
            Value::Float(su.xdsu(resource, self.cpu_hours())),
            Value::Str(self.state.clone()),
            Value::Int(self.gpus),
        ]
    }
}

/// Parse one data line (no header) into a [`JobRecord`].
pub fn parse_line(line: &str, lineno: usize) -> Result<JobRecord> {
    let fields: Vec<&str> = line.split('|').collect();
    if fields.len() != 11 {
        return Err(IngestError::at(
            lineno,
            format!("expected 11 fields, found {}", fields.len()),
        ));
    }
    let int = |idx: usize, name: &str| -> Result<i64> {
        fields[idx]
            .parse::<i64>()
            .map_err(|_| IngestError::at(lineno, format!("bad {name}: {:?}", fields[idx])))
    };
    let time = |idx: usize, name: &str| -> Result<i64> {
        parse_iso_datetime(fields[idx])
            .ok_or_else(|| IngestError::at(lineno, format!("bad {name}: {:?}", fields[idx])))
    };
    let rec = JobRecord {
        job_id: int(0, "JobID")?,
        user: fields[1].to_owned(),
        account: fields[2].to_owned(),
        partition: fields[3].to_owned(),
        nodes: int(4, "NNodes")?,
        cores: int(5, "NCPUS")?,
        submit: time(6, "Submit")?,
        start: time(7, "Start")?,
        end: time(8, "End")?,
        state: fields[9].to_owned(),
        gpus: int(10, "AllocGPUs")?,
    };
    if rec.user.is_empty() {
        return Err(IngestError::at(lineno, "empty User field"));
    }
    if rec.nodes < 1 || rec.cores < 1 {
        return Err(IngestError::at(lineno, "NNodes/NCPUS must be positive"));
    }
    if ENDED_STATES.contains(&rec.state.as_str()) {
        if rec.start < rec.submit {
            return Err(IngestError::at(lineno, "Start precedes Submit"));
        }
        if rec.end < rec.start {
            return Err(IngestError::at(lineno, "End precedes Start"));
        }
    }
    Ok(rec)
}

/// Parse a full sacct export. The header line is optional but verified
/// when present; blank lines and `#` comments are ignored. Returns the
/// ended-job records plus an [`IngestReport`] noting skipped rows.
pub fn parse_log(log: &str) -> Result<(Vec<JobRecord>, IngestReport)> {
    let mut records = Vec::new();
    let mut report = IngestReport::default();
    for (i, raw) in log.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with("JobID|") {
            if line != HEADER {
                return Err(IngestError::at(lineno, "unrecognized sacct header"));
            }
            continue;
        }
        let rec = parse_line(line, lineno)?;
        if ENDED_STATES.contains(&rec.state.as_str()) {
            report.ingested += 1;
            records.push(rec);
        } else {
            report.skip(format!(
                "line {lineno}: job {} in state {} not yet ended",
                rec.job_id, rec.state
            ));
        }
    }
    Ok((records, report))
}

/// Parse a log and convert directly to `jobfact` rows.
pub fn shred(log: &str, resource: &str, su: &SuConverter) -> Result<(Vec<Row>, IngestReport)> {
    let (records, report) = parse_log(log)?;
    let rows = records
        .iter()
        .map(|r| r.to_fact_row(resource, su))
        .collect();
    Ok((rows, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "101|alice|physics|normal|2|56|2017-01-05T08:00:00|2017-01-05T09:00:00|2017-01-05T13:30:00|COMPLETED|0";

    #[test]
    fn parse_single_line() {
        let rec = parse_line(GOOD, 1).unwrap();
        assert_eq!(rec.job_id, 101);
        assert_eq!(rec.user, "alice");
        assert_eq!(rec.cores, 56);
        assert_eq!(rec.wall_hours(), 4.5);
        assert_eq!(rec.wait_hours(), 1.0);
        assert_eq!(rec.cpu_hours(), 56.0 * 4.5);
    }

    #[test]
    fn header_blank_and_comments_skipped() {
        let log = format!("{HEADER}\n\n# comment\n{GOOD}\n");
        let (recs, report) = parse_log(&log).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(report.ingested, 1);
        assert_eq!(report.skipped, 0);
    }

    #[test]
    fn running_jobs_are_skipped_with_warning() {
        let running = GOOD.replace("COMPLETED", "RUNNING");
        let log = format!("{GOOD}\n{running}\n");
        let (recs, report) = parse_log(&log).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(report.skipped, 1);
        assert!(report.warnings[0].contains("RUNNING"));
    }

    #[test]
    fn failed_and_timeout_jobs_are_ingested() {
        for state in ["FAILED", "TIMEOUT", "CANCELLED", "NODE_FAIL"] {
            let line = GOOD.replace("COMPLETED", state);
            let (recs, _) = parse_log(&line).unwrap();
            assert_eq!(recs.len(), 1, "state {state} should ingest");
        }
    }

    #[test]
    fn malformed_lines_error_with_line_numbers() {
        let cases = [
            ("101|alice|physics", "expected 11 fields"),
            (&GOOD.replace("56", "many") as &str, "bad NCPUS"),
            (
                &GOOD.replace("2017-01-05T09:00:00", "notatime") as &str,
                "bad Start",
            ),
        ];
        for (line, want) in cases {
            let err = parse_line(line, 7).unwrap_err();
            assert_eq!(err.line, Some(7));
            assert!(err.message.contains(want), "{err}");
        }
    }

    #[test]
    fn time_ordering_enforced_for_ended_jobs() {
        // End before start.
        let bad = "101|alice|physics|normal|2|56|2017-01-05T08:00:00|2017-01-05T09:00:00|2017-01-05T08:30:00|COMPLETED|0";
        assert!(parse_line(bad, 1).unwrap_err().message.contains("End"));
        // Start before submit.
        let bad = "101|alice|physics|normal|2|56|2017-01-05T08:00:00|2017-01-05T07:00:00|2017-01-05T08:30:00|COMPLETED|0";
        assert!(parse_line(bad, 1).unwrap_err().message.contains("Start"));
    }

    #[test]
    fn zero_core_jobs_rejected() {
        let bad = GOOD.replace("|2|56|", "|2|0|");
        assert!(parse_line(&bad, 1).is_err());
    }

    #[test]
    fn wrong_header_is_an_error() {
        let log = "JobID|User|Bogus\n";
        assert!(parse_log(log).is_err());
    }

    #[test]
    fn fact_row_matches_jobs_schema() {
        let schema = xdmod_realms::jobs::fact_schema();
        let mut su = SuConverter::new();
        su.set_factor("comet", 2.0);
        let rec = parse_line(GOOD, 1).unwrap();
        let row = rec.to_fact_row("comet", &su);
        let checked = schema.check_row(row).unwrap();
        let su_idx = schema.column_index("su_charged").unwrap();
        assert_eq!(checked[su_idx], Value::Float(2.0 * 56.0 * 4.5));
    }

    #[test]
    fn shred_end_to_end() {
        let log = format!("{HEADER}\n{GOOD}\n");
        let (rows, report) = shred(&log, "comet", &SuConverter::new()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(report.ingested, 1);
        assert_eq!(rows[0].len(), xdmod_realms::jobs::fact_schema().arity());
    }
}
