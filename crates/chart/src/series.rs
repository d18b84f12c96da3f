//! Chart datasets: named series over shared category labels.
//!
//! Every XDMoD figure in the paper is one of two shapes: a **timeseries**
//! (Fig. 1: monthly XD SUs per resource; Fig. 6: monthly file count and
//! usage) or an **aggregate** grouped by a dimension (Fig. 7: core hours
//! per VM by memory bin). [`Dataset`] models both: shared x-axis labels,
//! one or more named series of numeric points (with `None` for absent
//! values — a resource that didn't exist yet plots as a gap, exactly like
//! Stampede2's early 2017).

use std::collections::BTreeMap;
use xdmod_warehouse::{Period, ResultSet, Value};

/// One named series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// One value per x label; `None` plots as a gap.
    pub values: Vec<Option<f64>>,
}

/// A chartable dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Chart title.
    pub title: String,
    /// Y-axis unit.
    pub unit: String,
    /// Shared x-axis labels.
    pub labels: Vec<String>,
    /// The series.
    pub series: Vec<Series>,
}

impl Dataset {
    /// Empty dataset.
    pub fn new(title: &str, unit: &str) -> Self {
        Dataset {
            title: title.to_owned(),
            unit: unit.to_owned(),
            labels: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Number of x positions.
    pub fn width(&self) -> usize {
        self.labels.len()
    }

    /// Find a series by name.
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Total of a series, ignoring gaps.
    pub fn series_total(&self, name: &str) -> Option<f64> {
        Some(
            self.series_named(name)?
                .values
                .iter()
                .flatten()
                .sum::<f64>(),
        )
    }

    /// Greatest finite value across all series (used for axis scaling).
    pub fn max_value(&self) -> f64 {
        self.series
            .iter()
            .flat_map(|s| s.values.iter().flatten())
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// Build a **timeseries dataset** from a query result grouped by
    /// `(period bucket, series dimension)`.
    ///
    /// * `bucket_col` — output column holding period bucket ids
    ///   (`Value::Int`), as produced by `group_by_period`;
    /// * `series_col` — optional output column naming the series (e.g.
    ///   `resource`); `None` produces a single series named `metric_col`;
    /// * `metric_col` — the aggregate to plot.
    ///
    /// Buckets are densified: every period between the first and last
    /// observed bucket gets a label, and series missing a bucket get a
    /// gap.
    pub fn timeseries(
        title: &str,
        unit: &str,
        rs: &ResultSet,
        period: Period,
        bucket_col: &str,
        series_col: Option<&str>,
        metric_col: &str,
    ) -> Result<Dataset, String> {
        let b_idx = rs
            .column_index(bucket_col)
            .ok_or_else(|| format!("no column {bucket_col}"))?;
        let m_idx = rs
            .column_index(metric_col)
            .ok_or_else(|| format!("no column {metric_col}"))?;
        let s_idx = match series_col {
            Some(c) => Some(rs.column_index(c).ok_or_else(|| format!("no column {c}"))?),
            None => None,
        };
        if rs.rows.is_empty() {
            return Ok(Dataset::new(title, unit));
        }
        let buckets: Vec<i64> = rs
            .rows
            .iter()
            .map(|r| r[b_idx].as_i64().ok_or_else(|| "NULL bucket".to_owned()))
            .collect::<Result<_, _>>()?;
        let lo = *buckets.iter().min().expect("non-empty"); // xc-allow: empty row set returned early above
        let hi = *buckets.iter().max().expect("non-empty"); // xc-allow: empty row set returned early above
        let n = usize::try_from(hi - lo + 1).map_err(|_| "bucket range overflow".to_owned())?;
        if n > 100_000 {
            return Err(format!("bucket range too wide: {n}"));
        }
        let labels: Vec<String> = (lo..=hi).map(|b| period.bucket_label(b)).collect();

        let mut series: BTreeMap<String, Vec<Option<f64>>> = BTreeMap::new();
        for (row, bucket) in rs.rows.iter().zip(&buckets) {
            let name = match s_idx {
                Some(i) => match &row[i] {
                    Value::Null => "(null)".to_owned(),
                    v => v.to_string(),
                },
                None => metric_col.to_owned(),
            };
            let slot = series.entry(name).or_insert_with(|| vec![None; n]);
            let pos = usize::try_from(bucket - lo).expect("in range"); // xc-allow: bucket >= lo by min() above
            slot[pos] = row[m_idx].as_f64();
        }
        Ok(Dataset {
            title: title.to_owned(),
            unit: unit.to_owned(),
            labels,
            series: series
                .into_iter()
                .map(|(name, values)| Series { name, values })
                .collect(),
        })
    }

    /// Build an **aggregate dataset** (one series) from a query result
    /// grouped by a categorical column: each group is an x label.
    pub fn aggregate(
        title: &str,
        unit: &str,
        rs: &ResultSet,
        label_col: &str,
        metric_col: &str,
    ) -> Result<Dataset, String> {
        let l_idx = rs
            .column_index(label_col)
            .ok_or_else(|| format!("no column {label_col}"))?;
        let m_idx = rs
            .column_index(metric_col)
            .ok_or_else(|| format!("no column {metric_col}"))?;
        let mut labels = Vec::with_capacity(rs.rows.len());
        let mut values = Vec::with_capacity(rs.rows.len());
        for row in &rs.rows {
            labels.push(row[l_idx].to_string());
            values.push(row[m_idx].as_f64());
        }
        Ok(Dataset {
            title: title.to_owned(),
            unit: unit.to_owned(),
            labels,
            series: vec![Series {
                name: metric_col.to_owned(),
                values,
            }],
        })
    }

    /// Add a series by hand (lengths must match the label count).
    pub fn push_series(&mut self, name: &str, values: Vec<Option<f64>>) -> Result<(), String> {
        if values.len() != self.labels.len() {
            return Err(format!(
                "series {name} has {} values for {} labels",
                values.len(),
                self.labels.len()
            ));
        }
        self.series.push(Series {
            name: name.to_owned(),
            values,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_warehouse::{AggFn, Aggregate, CivilDate, ColumnType, Query, SchemaBuilder, Table};

    fn monthly_result() -> ResultSet {
        let mut t = Table::new(
            SchemaBuilder::new("f")
                .required("resource", ColumnType::Str)
                .required("su", ColumnType::Float)
                .required("end_time", ColumnType::Time)
                .build()
                .unwrap(),
        );
        let mk = |res: &str, su: f64, month: u8| {
            vec![
                Value::Str(res.into()),
                Value::Float(su),
                Value::Time(CivilDate::new(2017, month, 10).to_epoch()),
            ]
        };
        t.insert_batch(vec![
            mk("comet", 10.0, 1),
            mk("comet", 20.0, 3),
            mk("stampede2", 5.0, 3),
        ])
        .unwrap();
        Query::new()
            .group_by_period("end_time", Period::Month)
            .group_by_column("resource")
            .aggregate(Aggregate::of(AggFn::Sum, "su", "total_su"))
            .run(&t)
            .unwrap()
    }

    #[test]
    fn timeseries_densifies_buckets_and_gaps() {
        let rs = monthly_result();
        let ds = Dataset::timeseries(
            "SUs",
            "XD SU",
            &rs,
            Period::Month,
            "end_time_month",
            Some("resource"),
            "total_su",
        )
        .unwrap();
        assert_eq!(ds.labels, vec!["2017-01", "2017-02", "2017-03"]);
        let comet = ds.series_named("comet").unwrap();
        assert_eq!(comet.values, vec![Some(10.0), None, Some(20.0)]);
        let s2 = ds.series_named("stampede2").unwrap();
        assert_eq!(s2.values, vec![None, None, Some(5.0)]);
    }

    #[test]
    fn single_series_timeseries_without_series_column() {
        let rs = monthly_result();
        let ds = Dataset::timeseries(
            "SUs",
            "XD SU",
            &rs,
            Period::Month,
            "end_time_month",
            None,
            "total_su",
        )
        .unwrap();
        assert_eq!(ds.series.len(), 1);
        assert_eq!(ds.series[0].name, "total_su");
    }

    #[test]
    fn aggregate_dataset_from_grouped_result() {
        let rs = ResultSet {
            columns: vec!["memory_gb_bin".into(), "avg".into()],
            rows: vec![
                vec![Value::Str("<1 GB".into()), Value::Float(25.0)],
                vec![Value::Str("1-2 GB".into()), Value::Float(30.0)],
            ],
        };
        let ds = Dataset::aggregate("t", "hours", &rs, "memory_gb_bin", "avg").unwrap();
        assert_eq!(ds.labels, vec!["<1 GB", "1-2 GB"]);
        assert_eq!(ds.series[0].values, vec![Some(25.0), Some(30.0)]);
    }

    #[test]
    fn missing_columns_are_reported() {
        let rs = monthly_result();
        assert!(
            Dataset::timeseries("t", "u", &rs, Period::Month, "nope", None, "total_su").is_err()
        );
        assert!(Dataset::aggregate("t", "u", &rs, "resource", "nope").is_err());
    }

    #[test]
    fn empty_result_yields_empty_dataset() {
        let rs = ResultSet {
            columns: vec!["end_time_month".into(), "total_su".into()],
            rows: vec![],
        };
        let ds = Dataset::timeseries(
            "t",
            "u",
            &rs,
            Period::Month,
            "end_time_month",
            None,
            "total_su",
        )
        .unwrap();
        assert_eq!(ds.width(), 0);
        assert!(ds.series.is_empty());
    }

    #[test]
    fn series_totals_and_max() {
        let rs = monthly_result();
        let ds = Dataset::timeseries(
            "SUs",
            "XD SU",
            &rs,
            Period::Month,
            "end_time_month",
            Some("resource"),
            "total_su",
        )
        .unwrap();
        assert_eq!(ds.series_total("comet"), Some(30.0));
        assert_eq!(ds.series_total("missing"), None);
        assert_eq!(ds.max_value(), 20.0);
    }

    #[test]
    fn push_series_validates_length() {
        let mut ds = Dataset::new("t", "u");
        ds.labels = vec!["a".into(), "b".into()];
        assert!(ds.push_series("ok", vec![Some(1.0), None]).is_ok());
        assert!(ds.push_series("bad", vec![Some(1.0)]).is_err());
    }
}
