//! The group-by/filter query engine.
//!
//! Every XDMoD chart is "a metric, aggregated, grouped by a dimension,
//! over a time range, with optional filters" — this module executes
//! exactly that against warehouse tables. Grouping supports plain
//! columns, calendar periods (timeseries view), and numeric bins
//! (aggregation levels). [`Query::run`] is the serial fold; the same plan
//! and accumulators run sharded on a worker pool in [`crate::parallel`].

use crate::bins::Bins;
use crate::error::{Result, WarehouseError};
use crate::schema::TableSchema;
use crate::table::Table;
use crate::time::Period;
use crate::value::{Row, Value};
use std::collections::{HashMap, HashSet};

/// Row filter applied before grouping.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Column equals value.
    Eq(String, Value),
    /// Column differs from value (NULLs are excluded, SQL-style).
    Ne(String, Value),
    /// Column is one of the listed values.
    In(String, Vec<Value>),
    /// Numeric column within `[min, max)`; `None` edges are unbounded.
    Range {
        /// Column to test (must be numeric or time).
        column: String,
        /// Inclusive lower bound.
        min: Option<f64>,
        /// Exclusive upper bound.
        max: Option<f64>,
    },
    /// Timestamp column within `[start, end)` epoch seconds.
    TimeRange {
        /// Column to test.
        column: String,
        /// Inclusive start.
        start: i64,
        /// Exclusive end.
        end: i64,
    },
    /// String column is not NULL and starts with the given prefix.
    StrPrefix(String, String),
}

impl Predicate {
    fn column(&self) -> &str {
        match self {
            Predicate::Eq(c, _)
            | Predicate::Ne(c, _)
            | Predicate::In(c, _)
            | Predicate::Range { column: c, .. }
            | Predicate::TimeRange { column: c, .. }
            | Predicate::StrPrefix(c, _) => c,
        }
    }

    fn matches(&self, v: &Value) -> bool {
        match self {
            Predicate::Eq(_, want) => v == want,
            Predicate::Ne(_, want) => !v.is_null() && v != want,
            Predicate::In(_, set) => set.contains(v),
            Predicate::Range { min, max, .. } => match v.as_f64() {
                Some(x) => min.is_none_or(|m| x >= m) && max.is_none_or(|m| x < m),
                None => false,
            },
            Predicate::TimeRange { start, end, .. } => match v.as_i64() {
                Some(t) => t >= *start && t < *end,
                None => false,
            },
            Predicate::StrPrefix(_, prefix) => {
                v.as_str().is_some_and(|s| s.starts_with(prefix.as_str()))
            }
        }
    }
}

/// How to derive a group key component from a row.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupKey {
    /// Group by the raw column value.
    Column(String),
    /// Group a timestamp column by calendar period (timeseries view).
    /// The key value is the period's bucket id as `Value::Int`.
    PeriodOf(String, Period),
    /// Group a numeric column through bins (aggregation levels). The key
    /// value is the bin label as `Value::Str`.
    Binned(String, Bins),
}

impl GroupKey {
    /// The column this key reads.
    pub fn column(&self) -> &str {
        match self {
            GroupKey::Column(c) | GroupKey::PeriodOf(c, _) | GroupKey::Binned(c, _) => c,
        }
    }

    /// Output column name in the result set.
    pub fn output_name(&self) -> String {
        match self {
            GroupKey::Column(c) => c.clone(),
            GroupKey::PeriodOf(c, p) => format!("{c}_{}", p.ident()),
            GroupKey::Binned(c, _) => format!("{c}_bin"),
        }
    }

    fn extract(&self, v: &Value) -> Value {
        match self {
            GroupKey::Column(_) => v.clone(),
            GroupKey::PeriodOf(_, period) => match v.as_i64() {
                Some(t) => Value::Int(period.bucket_of(t)),
                None => Value::Null,
            },
            GroupKey::Binned(_, bins) => match v.as_f64() {
                Some(x) => Value::Str(bins.label_of(x).to_owned()),
                None => Value::Null,
            },
        }
    }
}

/// Aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Row count (column ignored).
    Count,
    /// Sum of a numeric column (NULLs skipped).
    Sum,
    /// Mean of a numeric column (NULLs skipped).
    Avg,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
    /// Number of distinct non-NULL values.
    CountDistinct,
    /// Sum of `column * weight_column` divided by sum of weights — the
    /// paper's "Average Cores Reserved: Weighted by Wall Hours" style
    /// cloud metric (§III-B footnote 3).
    WeightedAvg,
}

/// One aggregate output: function, input column, output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Function to apply.
    pub func: AggFn,
    /// Input column; `None` only for `Count`.
    pub column: Option<String>,
    /// Weight column; only for `WeightedAvg`.
    pub weight: Option<String>,
    /// Output column name.
    pub alias: String,
}

impl Aggregate {
    /// `COUNT(*) AS alias`.
    pub fn count(alias: &str) -> Self {
        Aggregate {
            func: AggFn::Count,
            column: None,
            weight: None,
            alias: alias.to_owned(),
        }
    }

    /// `func(column) AS alias`.
    pub fn of(func: AggFn, column: &str, alias: &str) -> Self {
        Aggregate {
            func,
            column: Some(column.to_owned()),
            weight: None,
            alias: alias.to_owned(),
        }
    }

    /// `SUM(column*weight)/SUM(weight) AS alias`.
    pub fn weighted_avg(column: &str, weight: &str, alias: &str) -> Self {
        Aggregate {
            func: AggFn::WeightedAvg,
            column: Some(column.to_owned()),
            weight: Some(weight.to_owned()),
            alias: alias.to_owned(),
        }
    }
}

/// Per-group accumulator state for one aggregate.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(u64),
    Sum(f64),
    Avg { sum: f64, n: u64 },
    Min(Option<f64>),
    Max(Option<f64>),
    Distinct(HashSet<Value>),
    Weighted { num: f64, den: f64 },
}

impl Acc {
    fn new(func: AggFn) -> Acc {
        match func {
            AggFn::Count => Acc::Count(0),
            AggFn::Sum => Acc::Sum(0.0),
            AggFn::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFn::Min => Acc::Min(None),
            AggFn::Max => Acc::Max(None),
            AggFn::CountDistinct => Acc::Distinct(HashSet::new()),
            AggFn::WeightedAvg => Acc::Weighted { num: 0.0, den: 0.0 },
        }
    }

    fn update(&mut self, value: Option<&Value>, weight: Option<&Value>) {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(s) => {
                if let Some(x) = value.and_then(Value::as_f64) {
                    *s += x;
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(x) = value.and_then(Value::as_f64) {
                    *sum += x;
                    *n += 1;
                }
            }
            Acc::Min(m) => {
                if let Some(x) = value.and_then(Value::as_f64) {
                    *m = Some(m.map_or(x, |cur| cur.min(x)));
                }
            }
            Acc::Max(m) => {
                if let Some(x) = value.and_then(Value::as_f64) {
                    *m = Some(m.map_or(x, |cur| cur.max(x)));
                }
            }
            Acc::Distinct(set) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        set.insert(v.clone());
                    }
                }
            }
            Acc::Weighted { num, den } => {
                if let (Some(x), Some(w)) = (
                    value.and_then(Value::as_f64),
                    weight.and_then(Value::as_f64),
                ) {
                    *num += x * w;
                    *den += w;
                }
            }
        }
    }

    fn merge(&mut self, other: &Acc) {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::Sum(a), Acc::Sum(b)) => *a += b,
            (Acc::Avg { sum, n }, Acc::Avg { sum: s2, n: n2 }) => {
                *sum += s2;
                *n += n2;
            }
            (Acc::Min(a), Acc::Min(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    (x, y) => x.or(y),
                }
            }
            (Acc::Max(a), Acc::Max(b)) => {
                *a = match (*a, *b) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    (x, y) => x.or(y),
                }
            }
            (Acc::Distinct(a), Acc::Distinct(b)) => a.extend(b.iter().cloned()),
            (Acc::Weighted { num, den }, Acc::Weighted { num: n2, den: d2 }) => {
                *num += n2;
                *den += d2;
            }
            _ => unreachable!("mismatched accumulator variants"),
        }
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n as i64),
            Acc::Sum(s) => Value::Float(s),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Min(m) => m.map_or(Value::Null, Value::Float),
            Acc::Max(m) => m.map_or(Value::Null, Value::Float),
            Acc::Distinct(set) => Value::Int(set.len() as i64),
            Acc::Weighted { num, den } => {
                if den == 0.0 {
                    Value::Null
                } else {
                    Value::Float(num / den)
                }
            }
        }
    }
}

/// Sort order of the result set.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderBy {
    /// Ascending by the group key columns (default; deterministic).
    KeyAsc,
    /// Descending by a named output column (e.g. "top resources by SUs").
    ColumnDesc(String),
    /// Ascending by a named output column.
    ColumnAsc(String),
}

/// A query against one table.
#[derive(Debug, Clone)]
pub struct Query {
    filters: Vec<Predicate>,
    group_by: Vec<GroupKey>,
    aggregates: Vec<Aggregate>,
    order_by: OrderBy,
    limit: Option<usize>,
}

impl Query {
    /// New query with no filters, no grouping, no aggregates.
    pub fn new() -> Self {
        Query {
            filters: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            order_by: OrderBy::KeyAsc,
            limit: None,
        }
    }

    /// Add a filter.
    pub fn filter(mut self, p: Predicate) -> Self {
        self.filters.push(p);
        self
    }

    /// Add a group key.
    pub fn group(mut self, k: GroupKey) -> Self {
        self.group_by.push(k);
        self
    }

    /// Shorthand: group by a raw column.
    pub fn group_by_column(self, column: &str) -> Self {
        self.group(GroupKey::Column(column.to_owned()))
    }

    /// Shorthand: group a time column by calendar period.
    pub fn group_by_period(self, column: &str, period: Period) -> Self {
        self.group(GroupKey::PeriodOf(column.to_owned(), period))
    }

    /// Shorthand: group a numeric column through bins.
    pub fn group_by_bins(self, column: &str, bins: Bins) -> Self {
        self.group(GroupKey::Binned(column.to_owned(), bins))
    }

    /// Add an aggregate output.
    pub fn aggregate(mut self, a: Aggregate) -> Self {
        self.aggregates.push(a);
        self
    }

    /// Set the result ordering.
    pub fn order(mut self, o: OrderBy) -> Self {
        self.order_by = o;
        self
    }

    /// Keep only the first `n` result rows after ordering.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Execute against a table: one serial fold over its rows, in stored
    /// order, so float sums are bit-deterministic run to run (callers that
    /// want parallelism use [`crate::parallel::run_sharded`]).
    ///
    /// Paged tables are folded one page at a time (pin → fault-in →
    /// fold → release), so the scan's memory footprint stays bounded by
    /// the residency budget plus the one pinned page.
    pub fn run(&self, table: &Table) -> Result<ResultSet> {
        let plan = AggPlan::resolve(self, table.schema())?;
        let mut groups = Groups::new();
        table.for_each_chunk(usize::MAX, &mut |rows| {
            rows.for_each(|row| plan.fold_row(&mut groups, row))
        })?;
        plan.finish(groups)
    }

    /// Stable in-process fingerprint over the query's full shape
    /// (filters, grouping, aggregates, ordering, limit). Together with a
    /// binlog cursor this identifies a retained result: the fingerprint
    /// says *what* was asked, the cursor says *of which data*.
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the Debug representation; the derived Debug output
        // covers every field and is stable within a build.
        let repr = format!("{self:?}");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in repr.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// The time column to shard on, when the query names one: the first
    /// calendar-period group key, else the first time-range filter.
    pub(crate) fn shard_hint(&self) -> Option<&str> {
        self.group_by
            .iter()
            .find_map(|k| match k {
                GroupKey::PeriodOf(c, _) => Some(c.as_str()),
                _ => None,
            })
            .or_else(|| {
                self.filters.iter().find_map(|p| match p {
                    Predicate::TimeRange { column, .. } => Some(column.as_str()),
                    _ => None,
                })
            })
    }
}

/// Per-group accumulator map shared by the serial and sharded engines.
pub(crate) type Groups = HashMap<Vec<Value>, Vec<Acc>>;

/// A query with every column reference resolved against one schema —
/// the shared machinery behind [`Query::run`] and the sharded engine in
/// [`crate::parallel`].
pub(crate) struct AggPlan<'q> {
    query: &'q Query,
    filter_idx: Vec<usize>,
    key_idx: Vec<usize>,
    agg_idx: Vec<Option<usize>>,
    weight_idx: Vec<Option<usize>>,
}

impl<'q> AggPlan<'q> {
    /// Resolve all column references once, up front.
    pub(crate) fn resolve(query: &'q Query, schema: &TableSchema) -> Result<Self> {
        if query.aggregates.is_empty() {
            return Err(WarehouseError::InvalidQuery(
                "query needs at least one aggregate".into(),
            ));
        }
        let filter_idx: Vec<usize> = query
            .filters
            .iter()
            .map(|p| schema.column_index(p.column()))
            .collect::<Result<_>>()?;
        let key_idx: Vec<usize> = query
            .group_by
            .iter()
            .map(|k| schema.column_index(k.column()))
            .collect::<Result<_>>()?;
        let agg_idx: Vec<Option<usize>> = query
            .aggregates
            .iter()
            .map(|a| match (&a.column, a.func) {
                (None, AggFn::Count) => Ok(None),
                (None, _) => Err(WarehouseError::InvalidQuery(format!(
                    "aggregate {} requires a column",
                    a.alias
                ))),
                (Some(c), _) => schema.column_index(c).map(Some),
            })
            .collect::<Result<_>>()?;
        let weight_idx: Vec<Option<usize>> = query
            .aggregates
            .iter()
            .map(|a| match (a.func, &a.weight) {
                (AggFn::WeightedAvg, Some(w)) => schema.column_index(w).map(Some),
                (AggFn::WeightedAvg, None) => Err(WarehouseError::InvalidQuery(format!(
                    "weighted aggregate {} requires a weight column",
                    a.alias
                ))),
                _ => Ok(None),
            })
            .collect::<Result<_>>()?;
        Ok(AggPlan {
            query,
            filter_idx,
            key_idx,
            agg_idx,
            weight_idx,
        })
    }

    /// Filter one row and, if it passes, fold it into its group.
    pub(crate) fn fold_row(&self, groups: &mut Groups, row: &Row) {
        for (p, &idx) in self.query.filters.iter().zip(&self.filter_idx) {
            if !p.matches(&row[idx]) {
                return;
            }
        }
        let key: Vec<Value> = self
            .query
            .group_by
            .iter()
            .zip(&self.key_idx)
            .map(|(k, &idx)| k.extract(&row[idx]))
            .collect();
        let accs = groups.entry(key).or_insert_with(|| {
            self.query
                .aggregates
                .iter()
                .map(|a| Acc::new(a.func))
                .collect::<Vec<_>>()
        });
        for ((acc, col), w) in accs.iter_mut().zip(&self.agg_idx).zip(&self.weight_idx) {
            acc.update(col.map(|i| &row[i]), w.map(|i| &row[i]));
        }
    }

    /// Merge `src` into `dst`. Per key, `dst`'s accumulator absorbs
    /// `src`'s; the map iteration order does not affect the outcome
    /// because keys are disjoint state.
    pub(crate) fn merge_groups(dst: &mut Groups, src: &Groups) {
        for (key, accs) in src {
            match dst.entry(key.clone()) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    for (d, s) in e.get_mut().iter_mut().zip(accs) {
                        d.merge(s);
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(accs.clone());
                }
            }
        }
    }

    /// Materialize groups into the final, deterministically ordered
    /// result set.
    pub(crate) fn finish(&self, mut groups: Groups) -> Result<ResultSet> {
        let query = self.query;
        // SQL semantics: an aggregate with no GROUP BY always yields one
        // row, even over an empty table (COUNT = 0, SUM = 0, AVG = NULL).
        if query.group_by.is_empty() && groups.is_empty() {
            groups.insert(
                Vec::new(),
                query.aggregates.iter().map(|a| Acc::new(a.func)).collect(),
            );
        }

        // Materialize, sort deterministically, then apply ordering/limit.
        let mut rows: Vec<Row> = groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.into_iter().map(Acc::finish));
                key
            })
            .collect();
        let key_len = query.group_by.len();
        rows.sort_by(|a, b| a[..key_len].cmp(&b[..key_len]));

        let mut columns: Vec<String> = query.group_by.iter().map(GroupKey::output_name).collect();
        columns.extend(query.aggregates.iter().map(|a| a.alias.clone()));

        match &query.order_by {
            OrderBy::KeyAsc => {}
            OrderBy::ColumnDesc(name) | OrderBy::ColumnAsc(name) => {
                let idx = columns.iter().position(|c| c == name).ok_or_else(|| {
                    WarehouseError::InvalidQuery(format!("order-by column {name} not in output"))
                })?;
                rows.sort_by(|a, b| a[idx].cmp(&b[idx]));
                if matches!(query.order_by, OrderBy::ColumnDesc(_)) {
                    rows.reverse();
                }
            }
        }
        if let Some(n) = query.limit {
            rows.truncate(n);
        }
        Ok(ResultSet { columns, rows })
    }
}

impl Default for Query {
    fn default() -> Self {
        Query::new()
    }
}

/// A query result: named columns and data rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names: group keys first, then aggregate aliases.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Index of an output column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Values of an output column.
    pub fn column(&self, name: &str) -> Option<Vec<Value>> {
        let idx = self.column_index(name)?;
        Some(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single numeric value of a one-row result column (convenience
    /// for scalar queries like a global SUM).
    pub fn scalar_f64(&self, name: &str) -> Option<f64> {
        if self.rows.len() != 1 {
            return None;
        }
        let idx = self.column_index(name)?;
        self.rows[0][idx].as_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::Bin;
    use crate::schema::SchemaBuilder;
    use crate::time::CivilDate;
    use crate::value::ColumnType;

    fn jobs_table() -> Table {
        let mut t = Table::new(
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .required("wall_hours", ColumnType::Float)
                .required("end_time", ColumnType::Time)
                .nullable("user", ColumnType::Str)
                .build()
                .unwrap(),
        );
        let jan = CivilDate::new(2017, 1, 10).to_epoch();
        let feb = CivilDate::new(2017, 2, 10).to_epoch();
        t.insert_batch(vec![
            vec![
                "comet".into(),
                Value::Float(10.0),
                Value::Float(2.0),
                Value::Time(jan),
                "alice".into(),
            ],
            vec![
                "comet".into(),
                Value::Float(30.0),
                Value::Float(6.0),
                Value::Time(feb),
                "bob".into(),
            ],
            vec![
                "stampede".into(),
                Value::Float(5.0),
                Value::Float(0.5),
                Value::Time(jan),
                "alice".into(),
            ],
            vec![
                "stampede".into(),
                Value::Float(15.0),
                Value::Float(40.0),
                Value::Time(feb),
                Value::Null,
            ],
        ])
        .unwrap();
        t
    }

    #[test]
    fn global_aggregates_without_grouping() {
        let rs = Query::new()
            .aggregate(Aggregate::count("jobs"))
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total_cpu"))
            .aggregate(Aggregate::of(AggFn::Avg, "cpu_hours", "avg_cpu"))
            .aggregate(Aggregate::of(AggFn::Min, "cpu_hours", "min_cpu"))
            .aggregate(Aggregate::of(AggFn::Max, "cpu_hours", "max_cpu"))
            .run(&jobs_table())
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.scalar_f64("jobs"), Some(4.0));
        assert_eq!(rs.scalar_f64("total_cpu"), Some(60.0));
        assert_eq!(rs.scalar_f64("avg_cpu"), Some(15.0));
        assert_eq!(rs.scalar_f64("min_cpu"), Some(5.0));
        assert_eq!(rs.scalar_f64("max_cpu"), Some(30.0));
    }

    #[test]
    fn group_by_column_sorted_by_key() {
        let rs = Query::new()
            .group_by_column("resource")
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"))
            .run(&jobs_table())
            .unwrap();
        assert_eq!(rs.columns, vec!["resource", "total"]);
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Str("comet".into()));
        assert_eq!(rs.rows[0][1], Value::Float(40.0));
        assert_eq!(rs.rows[1][0], Value::Str("stampede".into()));
        assert_eq!(rs.rows[1][1], Value::Float(20.0));
    }

    #[test]
    fn filters_apply_before_grouping() {
        let rs = Query::new()
            .filter(Predicate::Eq("resource".into(), "comet".into()))
            .aggregate(Aggregate::count("jobs"))
            .run(&jobs_table())
            .unwrap();
        assert_eq!(rs.scalar_f64("jobs"), Some(2.0));
    }

    #[test]
    fn time_range_filter_half_open() {
        let feb1 = CivilDate::new(2017, 2, 1).to_epoch();
        let mar1 = CivilDate::new(2017, 3, 1).to_epoch();
        let rs = Query::new()
            .filter(Predicate::TimeRange {
                column: "end_time".into(),
                start: feb1,
                end: mar1,
            })
            .aggregate(Aggregate::count("jobs"))
            .run(&jobs_table())
            .unwrap();
        assert_eq!(rs.scalar_f64("jobs"), Some(2.0));
    }

    #[test]
    fn group_by_period_gives_timeseries() {
        let rs = Query::new()
            .group_by_period("end_time", Period::Month)
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"))
            .run(&jobs_table())
            .unwrap();
        assert_eq!(rs.columns, vec!["end_time_month", "total"]);
        assert_eq!(rs.rows.len(), 2);
        let jan_bucket = Period::Month.bucket_of(CivilDate::new(2017, 1, 1).to_epoch());
        assert_eq!(rs.rows[0][0], Value::Int(jan_bucket));
        assert_eq!(rs.rows[0][1], Value::Float(15.0));
        assert_eq!(rs.rows[1][1], Value::Float(45.0));
    }

    #[test]
    fn group_by_bins_applies_aggregation_levels() {
        let bins = Bins::new(vec![
            Bin::new("0-1 hours", 0.0, 1.0),
            Bin::new("1-10 hours", 1.0, 10.0),
        ])
        .unwrap();
        let rs = Query::new()
            .group_by_bins("wall_hours", bins)
            .aggregate(Aggregate::count("jobs"))
            .run(&jobs_table())
            .unwrap();
        // 0.5 -> 0-1; 2,6 -> 1-10; 40 -> other.
        let labels: Vec<String> = rs
            .rows
            .iter()
            .map(|r| r[0].as_str().unwrap().to_owned())
            .collect();
        assert!(labels.contains(&"0-1 hours".to_owned()));
        assert!(labels.contains(&"1-10 hours".to_owned()));
        assert!(labels.contains(&"other".to_owned()));
        let idx = rs
            .rows
            .iter()
            .position(|r| r[0].as_str() == Some("1-10 hours"))
            .unwrap();
        assert_eq!(rs.rows[idx][1], Value::Int(2));
    }

    #[test]
    fn count_distinct_skips_nulls() {
        let rs = Query::new()
            .aggregate(Aggregate::of(AggFn::CountDistinct, "user", "users"))
            .run(&jobs_table())
            .unwrap();
        assert_eq!(rs.scalar_f64("users"), Some(2.0)); // alice, bob
    }

    #[test]
    fn weighted_avg() {
        // cpu_hours weighted by wall_hours:
        // (10*2 + 30*6 + 5*0.5 + 15*40) / (2+6+0.5+40)
        let rs = Query::new()
            .aggregate(Aggregate::weighted_avg("cpu_hours", "wall_hours", "w"))
            .run(&jobs_table())
            .unwrap();
        let expect = (10.0 * 2.0 + 30.0 * 6.0 + 5.0 * 0.5 + 15.0 * 40.0) / 48.5;
        assert!((rs.scalar_f64("w").unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn order_desc_with_limit_selects_top_n() {
        let rs = Query::new()
            .group_by_column("resource")
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"))
            .order(OrderBy::ColumnDesc("total".into()))
            .limit(1)
            .run(&jobs_table())
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Str("comet".into()));
    }

    #[test]
    fn unknown_columns_error() {
        let t = jobs_table();
        assert!(Query::new()
            .aggregate(Aggregate::of(AggFn::Sum, "nope", "x"))
            .run(&t)
            .is_err());
        assert!(Query::new()
            .group_by_column("nope")
            .aggregate(Aggregate::count("n"))
            .run(&t)
            .is_err());
        assert!(Query::new()
            .filter(Predicate::Eq("nope".into(), Value::Null))
            .aggregate(Aggregate::count("n"))
            .run(&t)
            .is_err());
    }

    #[test]
    fn no_aggregates_is_invalid() {
        assert!(matches!(
            Query::new().run(&jobs_table()),
            Err(WarehouseError::InvalidQuery(_))
        ));
    }

    #[test]
    fn order_by_unknown_output_column_errors() {
        let err = Query::new()
            .aggregate(Aggregate::count("n"))
            .order(OrderBy::ColumnDesc("missing".into()))
            .run(&jobs_table())
            .unwrap_err();
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn empty_table_yields_empty_grouped_result() {
        let t = Table::new(
            SchemaBuilder::new("empty")
                .required("k", ColumnType::Str)
                .required("v", ColumnType::Float)
                .build()
                .unwrap(),
        );
        let rs = Query::new()
            .group_by_column("k")
            .aggregate(Aggregate::of(AggFn::Sum, "v", "s"))
            .run(&t)
            .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn ne_and_in_and_prefix_predicates() {
        let t = jobs_table();
        let rs = Query::new()
            .filter(Predicate::Ne("user".into(), "alice".into()))
            .aggregate(Aggregate::count("n"))
            .run(&t)
            .unwrap();
        // bob only: NULL user is excluded by Ne.
        assert_eq!(rs.scalar_f64("n"), Some(1.0));

        let rs = Query::new()
            .filter(Predicate::In(
                "resource".into(),
                vec!["comet".into(), "gordon".into()],
            ))
            .aggregate(Aggregate::count("n"))
            .run(&t)
            .unwrap();
        assert_eq!(rs.scalar_f64("n"), Some(2.0));

        let rs = Query::new()
            .filter(Predicate::StrPrefix("resource".into(), "stam".into()))
            .aggregate(Aggregate::count("n"))
            .run(&t)
            .unwrap();
        assert_eq!(rs.scalar_f64("n"), Some(2.0));
    }

    #[test]
    fn folding_in_two_passes_matches_single_pass_recompute() {
        use crate::parallel::ShardedPartials;
        let t = jobs_table();
        let query = Query::new()
            .group_by_column("resource")
            .aggregate(Aggregate::count("jobs"))
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"))
            .aggregate(Aggregate::of(AggFn::Avg, "wall_hours", "avg_wall"))
            .aggregate(Aggregate::of(AggFn::CountDistinct, "user", "users"));
        let rows = t.rows().unwrap();
        for split in 0..=rows.len() {
            let mut partial = ShardedPartials::new(1);
            partial
                .fold_batch(&query, t.schema(), &rows[..split])
                .unwrap();
            partial
                .fold_batch(&query, t.schema(), &rows[split..])
                .unwrap();
            let folded = partial.finalize(&query, t.schema()).unwrap();
            assert_eq!(folded, query.run(&t).unwrap(), "split at {split}");
        }
    }

    #[test]
    fn range_predicate_unbounded_edges() {
        let t = jobs_table();
        let rs = Query::new()
            .filter(Predicate::Range {
                column: "cpu_hours".into(),
                min: Some(10.0),
                max: None,
            })
            .aggregate(Aggregate::count("n"))
            .run(&t)
            .unwrap();
        assert_eq!(rs.scalar_f64("n"), Some(3.0));
        let rs = Query::new()
            .filter(Predicate::Range {
                column: "cpu_hours".into(),
                min: None,
                max: Some(10.0),
            })
            .aggregate(Aggregate::count("n"))
            .run(&t)
            .unwrap();
        assert_eq!(rs.scalar_f64("n"), Some(1.0));
    }
}
