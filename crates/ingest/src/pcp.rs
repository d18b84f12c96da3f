//! PCP / TACC Stats-style performance-archive shredder (SUPReMM realm).
//!
//! "Several of these tools (PCP, TACC Stats, Ganglia) form important
//! parts of the data pipeline for XDMoD by providing raw system-level
//! performance data." (§I-B). This module parses a line-oriented archive
//! of per-job performance samples into the SUPReMM realm's three tables:
//! the per-job summary fact, the heavyweight per-job timeseries, and the
//! job script (§II-C5 lists all three as what makes performance data too
//! storage-intensive to federate raw).
//!
//! # Archive format
//!
//! ```text
//! job <job_id> <resource> <user> <end_epoch>
//! ts <epoch> <metric> <value>        # repeated, any of the nine metrics
//! script <single-line script, \n-escaped>
//! end
//! ```

use crate::report::{IngestError, IngestReport, Result};
use xdmod_realms::supremm::TIMESERIES_METRICS;
use xdmod_warehouse::{Row, Value};

/// One job's worth of performance data.
#[derive(Debug, Clone, PartialEq)]
pub struct SupremmJob {
    /// Job id (matches the Jobs realm `job_id`).
    pub job_id: i64,
    /// Resource the job ran on.
    pub resource: String,
    /// Owning user.
    pub user: String,
    /// Job end time, epoch seconds.
    pub end_time: i64,
    /// Raw samples: (timestamp, metric name, value).
    pub samples: Vec<(i64, String, f64)>,
    /// The job's batch script (may be empty).
    pub script: String,
}

impl SupremmJob {
    /// Mean of a metric's samples, or 0.0 when absent.
    pub fn mean(&self, metric: &str) -> f64 {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|(_, m, _)| m == metric)
            .map(|(_, _, v)| *v)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Max of a metric's samples, or 0.0 when absent (peak memory).
    pub fn max(&self, metric: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(_, m, _)| m == metric)
            .map(|(_, _, v)| *v)
            .fold(0.0, f64::max)
    }

    /// Summary row for `supremm_jobfact`.
    pub fn fact_row(&self) -> Row {
        vec![
            Value::Int(self.job_id),
            Value::Str(self.resource.clone()),
            Value::Str(self.user.clone()),
            Value::Time(self.end_time),
            Value::Float(self.mean("cpu_user")),
            Value::Float(self.mean("flops")),
            Value::Float(self.max("memory_used")),
            Value::Float(self.mean("memory_bandwidth")),
            Value::Float(self.mean("io_read")),
            Value::Float(self.mean("io_write")),
            Value::Float(self.mean("block_read")),
            Value::Float(self.mean("block_write")),
        ]
    }

    /// Rows for `supremm_timeseries` (one per sample).
    pub fn timeseries_rows(&self) -> Vec<Row> {
        self.samples
            .iter()
            .map(|(ts, metric, value)| {
                vec![
                    Value::Int(self.job_id),
                    Value::Time(*ts),
                    Value::Str(metric.clone()),
                    Value::Float(*value),
                ]
            })
            .collect()
    }

    /// Row for `supremm_jobscript`.
    pub fn script_row(&self) -> Row {
        vec![Value::Int(self.job_id), Value::Str(self.script.clone())]
    }
}

/// Parse a full archive into jobs plus a report. Unknown metric names are
/// skipped with a warning (forward compatibility with newer collectors);
/// structural errors (missing `job` header, bad numbers) abort.
pub fn parse_archive(text: &str) -> Result<(Vec<SupremmJob>, IngestReport)> {
    let mut jobs = Vec::new();
    let mut report = IngestReport::default();
    let mut current: Option<SupremmJob> = None;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "job" => {
                if current.is_some() {
                    return Err(IngestError::at(lineno, "nested job block (missing end?)"));
                }
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 4 {
                    return Err(IngestError::at(lineno, "job header needs 4 fields"));
                }
                current = Some(SupremmJob {
                    job_id: parts[0]
                        .parse()
                        .map_err(|_| IngestError::at(lineno, "bad job id"))?,
                    resource: parts[1].to_owned(),
                    user: parts[2].to_owned(),
                    end_time: parts[3]
                        .parse()
                        .map_err(|_| IngestError::at(lineno, "bad end epoch"))?,
                    samples: Vec::new(),
                    script: String::new(),
                });
            }
            "ts" => {
                let job = current
                    .as_mut()
                    .ok_or_else(|| IngestError::at(lineno, "ts outside job block"))?;
                let parts: Vec<&str> = rest.split_whitespace().collect();
                if parts.len() != 3 {
                    return Err(IngestError::at(lineno, "ts needs 3 fields"));
                }
                let ts: i64 = parts[0]
                    .parse()
                    .map_err(|_| IngestError::at(lineno, "bad ts epoch"))?;
                let metric = parts[1];
                let value: f64 = parts[2]
                    .parse()
                    .map_err(|_| IngestError::at(lineno, "bad sample value"))?;
                if !value.is_finite() {
                    return Err(IngestError::at(lineno, "non-finite sample value"));
                }
                if TIMESERIES_METRICS.contains(&metric) {
                    job.samples.push((ts, metric.to_owned(), value));
                } else {
                    report.skip(format!("line {lineno}: unknown metric {metric}"));
                }
            }
            "script" => {
                let job = current
                    .as_mut()
                    .ok_or_else(|| IngestError::at(lineno, "script outside job block"))?;
                job.script = rest.replace("\\n", "\n");
            }
            "end" => {
                let job = current
                    .take()
                    .ok_or_else(|| IngestError::at(lineno, "end without job"))?;
                report.ingested += 1;
                jobs.push(job);
            }
            other => {
                return Err(IngestError::at(
                    lineno,
                    format!("unknown directive {other}"),
                ));
            }
        }
    }
    if current.is_some() {
        return Err(IngestError::whole("archive ends inside a job block"));
    }
    Ok((jobs, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ARCHIVE: &str = "\
job 101 comet alice 1483700000
ts 1483690000 cpu_user 0.9
ts 1483690030 cpu_user 0.7
ts 1483690000 memory_used 10.0
ts 1483690030 memory_used 14.0
ts 1483690000 memory_bandwidth 25.0
script #!/bin/bash\\nsrun ./app
end
job 102 comet bob 1483700500
ts 1483690100 cpu_user 0.5
end
";

    #[test]
    fn parse_two_jobs() {
        let (jobs, report) = parse_archive(ARCHIVE).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(report.ingested, 2);
        assert_eq!(jobs[0].job_id, 101);
        assert_eq!(jobs[0].samples.len(), 5);
        assert_eq!(jobs[0].script, "#!/bin/bash\nsrun ./app");
        assert!(jobs[1].script.is_empty());
    }

    #[test]
    fn summary_statistics() {
        let (jobs, _) = parse_archive(ARCHIVE).unwrap();
        let j = &jobs[0];
        assert!((j.mean("cpu_user") - 0.8).abs() < 1e-12);
        assert_eq!(j.max("memory_used"), 14.0); // peak, not mean
        assert_eq!(j.mean("flops"), 0.0); // absent metric
    }

    #[test]
    fn fact_row_matches_schema() {
        let (jobs, _) = parse_archive(ARCHIVE).unwrap();
        let schema = xdmod_realms::supremm::fact_schema();
        let row = schema.check_row(jobs[0].fact_row()).unwrap();
        let mem_idx = schema.column_index("memory_gb").unwrap();
        assert_eq!(row[mem_idx], Value::Float(14.0));
    }

    #[test]
    fn timeseries_rows_match_schema() {
        let (jobs, _) = parse_archive(ARCHIVE).unwrap();
        let schema = xdmod_realms::supremm::timeseries_schema();
        let rows = jobs[0].timeseries_rows();
        assert_eq!(rows.len(), 5);
        for row in rows {
            schema.check_row(row).unwrap();
        }
    }

    #[test]
    fn script_row_matches_schema() {
        let (jobs, _) = parse_archive(ARCHIVE).unwrap();
        let schema = xdmod_realms::supremm::jobscript_schema();
        schema.check_row(jobs[0].script_row()).unwrap();
    }

    #[test]
    fn unknown_metrics_warn_but_continue() {
        let text = "job 1 r u 100\nts 90 quantum_flux 3.0\nts 91 cpu_user 0.5\nend\n";
        let (jobs, report) = parse_archive(text).unwrap();
        assert_eq!(jobs[0].samples.len(), 1);
        assert_eq!(report.skipped, 1);
        assert!(report.warnings[0].contains("quantum_flux"));
    }

    #[test]
    fn structural_errors_abort() {
        for (text, want) in [
            ("ts 90 cpu_user 0.5\n", "ts outside job"),
            ("job 1 r u 100\njob 2 r u 100\n", "nested job"),
            ("end\n", "end without job"),
            ("job 1 r u 100\n", "ends inside"),
            ("job 1 r u 100\nts 90 cpu_user xyz\nend\n", "bad sample"),
            ("job 1 r u 100\nts 90 cpu_user inf\nend\n", "non-finite"),
            ("wibble 3\n", "unknown directive"),
        ] {
            let err = parse_archive(text).unwrap_err();
            assert!(err.message.contains(want), "{text:?} → {err}");
        }
    }
}
