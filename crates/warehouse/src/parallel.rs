//! Parallel partitioned aggregation: day-bucket sharding, a scoped
//! worker pool, and deterministic shard-order merging.
//!
//! The engine partitions a fact table's rows into shards — by calendar
//! day bucket when the query names a time column, round-robin otherwise —
//! folds each shard into its own group map on a pool of
//! `std::thread::scope` workers, and merges the shards in ascending
//! order. Workers only *race for shards*, never for merge position, so
//! the result is identical for any worker count: `run_sharded` with one
//! worker is the serial reference the differential oracle compares
//! against.
//!
//! The per-shard state is a value, [`ShardedPartials`]: [`crate::delta`]
//! retains one per (table, query) and keeps folding the binlog's delta
//! into it, and [`ShardedPartials::finish_all`] merges several tables'
//! into one answer. [`run_sharded`] builds one and finalizes it — the
//! stateless reference the oracles hold the retained path to.

use crate::error::{Result, WarehouseError};
use crate::query::{AggPlan, Groups, Query, ResultSet};
use crate::schema::TableSchema;
use crate::table::Table;
use crate::time::Period;
use crate::value::Row;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};
use xdmod_telemetry::MetricsRegistry;

/// Sizing of the aggregation worker pool and the shard partition.
///
/// Zero means "auto": workers default to `available_parallelism`, shards
/// default to the (resolved) worker count. Shards beyond the worker
/// count queue on the pool; workers beyond the shard count idle — the
/// pre-flight analyzer flags that misconfiguration as `XC0011`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    workers: usize,
    shards: usize,
}

impl PoolConfig {
    /// Fully automatic sizing (the default).
    pub fn auto() -> Self {
        PoolConfig {
            workers: 0,
            shards: 0,
        }
    }

    /// Pool with an explicit worker count (0 = auto).
    pub fn new(workers: usize) -> Self {
        PoolConfig { workers, shards: 0 }
    }

    /// Single-worker pool: the serial reference execution.
    pub fn serial() -> Self {
        PoolConfig::new(1)
    }

    /// Override the shard count (0 = one shard per worker).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Effective worker count: configured, else `available_parallelism`.
    pub fn workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    /// Effective shard count: configured, else the worker count.
    pub fn shards(&self) -> usize {
        if self.shards == 0 {
            self.workers()
        } else {
            self.shards
        }
    }

    /// Raw configured worker count (0 = auto), for introspection.
    pub fn configured_workers(&self) -> usize {
        self.workers
    }

    /// Raw configured shard count (0 = auto), for introspection.
    pub fn configured_shards(&self) -> usize {
        self.shards
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::auto()
    }
}

/// Shard assignment for one row: stable under any pool size.
fn shard_of(row: &Row, time_idx: Option<usize>, index: usize, shards: usize) -> usize {
    match time_idx {
        Some(idx) => match row[idx].as_i64() {
            // Same-day rows land on the same shard, so period groups are
            // built from few partials; NULL times collect on shard 0.
            Some(t) => Period::Day.bucket_of(t).rem_euclid(shards as i64) as usize,
            None => 0,
        },
        None => index % shards,
    }
}

/// The column index a query's rows are sharded on, if it names a time
/// column the table has.
fn time_index(query: &Query, schema: &TableSchema) -> Option<usize> {
    query.shard_hint().and_then(|c| schema.column_index(c).ok())
}

/// Execute a query with the partitioned engine, statelessly: shard, fold
/// each shard ([`ShardedPartials::build`]), merge in ascending shard
/// order, finish. No production path calls it; it is the reference the
/// differential oracles and soaks compare retained answers against.
///
/// `label` attributes the per-shard timing histogram
/// (`warehouse_shard_aggregation_seconds{table=..}`) and the
/// pool-saturation gauge (`warehouse_aggpool_saturation`).
pub fn run_sharded(
    query: &Query,
    table: &Table,
    pool: PoolConfig,
    telemetry: &MetricsRegistry,
    label: &str,
) -> Result<ResultSet> {
    ShardedPartials::build(query, table, pool, telemetry, label)?.finalize(query, table.schema())
}

/// Partition `rows` into day-bucket shards and fold each shard on the
/// worker pool, returning per-shard group maps in ascending shard order.
/// Within a shard rows fold in table order, so the per-shard accumulator
/// state is bitwise identical to a serial fold of that shard — the
/// property that lets [`ShardedPartials`] retain the result and continue
/// folding deltas into it later.
fn fold_shards_pooled(
    plan: &AggPlan<'_>,
    rows: &[Row],
    time_idx: Option<usize>,
    pool: PoolConfig,
    telemetry: &MetricsRegistry,
    label: &str,
) -> Result<Vec<Groups>> {
    let n_shards = pool.shards().max(1);
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
    for (i, row) in rows.iter().enumerate() {
        shards[shard_of(row, time_idx, i, n_shards)].push(i);
    }

    let workers = pool.workers().clamp(1, n_shards);
    if telemetry.is_enabled() {
        // Fraction of the configured pool that shard count keeps busy;
        // < 1.0 means wasted workers (the XC0011 condition at runtime).
        telemetry
            .gauge("warehouse_aggpool_saturation", &[])
            .set(workers as f64 / pool.workers().max(1) as f64);
    }

    let fold_shard = |shard: &[usize]| -> Groups {
        let span = telemetry.span("warehouse_shard_aggregation_seconds", &[("table", label)]);
        let mut groups = Groups::new();
        for &ri in shard {
            plan.fold_row(&mut groups, &rows[ri]);
        }
        span.finish();
        groups
    };

    let mut partials: Vec<(usize, Groups)> = Vec::with_capacity(n_shards);
    if workers == 1 {
        for (i, shard) in shards.iter().enumerate() {
            partials.push((i, fold_shard(shard)));
        }
    } else {
        let next = AtomicUsize::new(0);
        let joined: Result<Vec<Vec<(usize, Groups)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n_shards {
                                break;
                            }
                            done.push((i, fold_shard(&shards[i])));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .map_err(|_| WarehouseError::Io("aggregation worker panicked".to_owned()))
                })
                .collect()
        });
        for worker_out in joined? {
            partials.extend(worker_out);
        }
    }

    partials.sort_by_key(|(i, _)| *i);
    Ok(partials.into_iter().map(|(_, groups)| groups).collect())
}

/// Per-shard partial state for one query over one fact table: what
/// [`run_sharded`] folds and what the delta-fold engine retains.
///
/// A cold [`ShardedPartials::build`] folds every live row, leaving each
/// shard exactly the accumulator state a serial fold of that shard would
/// produce. [`ShardedPartials::fold_batch`] then routes appended rows to
/// the same day-bucket shards and continues each shard's accumulator
/// sequence in arrival order, so finalizing after any number of delta
/// folds yields the same bytes as a full recompute over the grown table
/// (exactly for counts/min/max/distinct, and for float sums whenever the
/// inputs are exactly representable; over a dense table the per-shard
/// addition *sequence* matches too). Only shards that receive delta rows
/// are touched — quiet shards carry their state forward untouched.
#[derive(Debug, Clone, Default)]
pub struct ShardedPartials {
    shards: Vec<Groups>,
    rows_folded: usize,
}

impl ShardedPartials {
    /// Empty state partitioned into `shards` day-bucket shards (clamped
    /// to at least one).
    pub fn new(shards: usize) -> Self {
        ShardedPartials {
            shards: vec![Groups::new(); shards.max(1)],
            rows_folded: 0,
        }
    }

    /// Cold build: fold every row of `table`. A dense table is
    /// partitioned and folded on the worker pool, each shard in table
    /// order. A paged table folds one page at a time — pin, fault in,
    /// route the page's rows to their shards, release — so the scan
    /// stays inside the residency budget plus one pinned page and no row
    /// is copied out; a shard then sees its rows page-major, each page in
    /// insertion order. Shard routing uses the row's insertion sequence
    /// either way.
    pub fn build(
        query: &Query,
        table: &Table,
        pool: PoolConfig,
        telemetry: &MetricsRegistry,
        label: &str,
    ) -> Result<Self> {
        let plan = AggPlan::resolve(query, table.schema())?;
        let time_idx = time_index(query, table.schema());
        let shards = if table.is_paged() {
            let n_shards = pool.shards().max(1);
            let mut shards = vec![Groups::new(); n_shards];
            table.scan_pages(&mut |rows| {
                let span =
                    telemetry.span("warehouse_shard_aggregation_seconds", &[("table", label)]);
                for (seq, row) in rows {
                    let s = shard_of(row, time_idx, *seq as usize, n_shards);
                    plan.fold_row(&mut shards[s], row);
                }
                span.finish();
                Ok(())
            })?;
            shards
        } else {
            fold_shards_pooled(&plan, &table.rows()?, time_idx, pool, telemetry, label)?
        };
        Ok(ShardedPartials {
            shards,
            rows_folded: table.len(),
        })
    }

    /// Number of shards the state is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total rows folded so far (cold build plus every delta batch);
    /// keeps round-robin routing stable for queries with no time column.
    pub fn rows_folded(&self) -> usize {
        self.rows_folded
    }

    /// Fold rows appended to the fact table since the last fold, in
    /// arrival order, routing each to its day-bucket shard. Returns the
    /// number of distinct shards dirtied.
    pub fn fold_batch<'a>(
        &mut self,
        query: &Query,
        schema: &TableSchema,
        rows: impl IntoIterator<Item = &'a Row>,
    ) -> Result<usize> {
        let plan = AggPlan::resolve(query, schema)?;
        let time_idx = time_index(query, schema);
        let n = self.shards.len();
        let mut dirty = vec![false; n];
        for row in rows {
            let s = shard_of(row, time_idx, self.rows_folded, n);
            plan.fold_row(&mut self.shards[s], row);
            dirty[s] = true;
            self.rows_folded += 1;
        }
        Ok(dirty.into_iter().filter(|d| *d).count())
    }

    /// Merge the shards into a new answer: the state itself is
    /// untouched, ready for the next delta.
    pub fn finalize(&self, query: &Query, schema: &TableSchema) -> Result<ResultSet> {
        merge_and_finish(self.shards.iter(), query, schema)
    }

    /// Finalize several tables' partials of one query, all of `schema`'s
    /// layout, as one answer over their union: merged in the order given,
    /// each one's shards in ascending order, and finished once. The
    /// partials are only borrowed. The federation hub's answer over its
    /// satellites, in join order.
    pub fn finish_all<P: Borrow<ShardedPartials>>(
        parts: impl IntoIterator<Item = P>,
        query: &Query,
        schema: &TableSchema,
    ) -> Result<ResultSet> {
        let parts: Vec<P> = parts.into_iter().collect();
        let shards = parts.iter().flat_map(|p| &p.borrow().shards);
        merge_and_finish(shards, query, schema)
    }
}

/// Merge shards in ascending order — deterministic, independent of which
/// worker folded which shard — and finish.
fn merge_and_finish<'a>(
    shards: impl Iterator<Item = &'a Groups>,
    query: &Query,
    schema: &TableSchema,
) -> Result<ResultSet> {
    let plan = AggPlan::resolve(query, schema)?;
    let mut merged = Groups::new();
    for groups in shards {
        AggPlan::merge_groups(&mut merged, groups);
    }
    plan.finish(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AggFn, Aggregate};
    use crate::schema::SchemaBuilder;
    use crate::time::CivilDate;
    use crate::value::{ColumnType, Value};

    fn facts(n: usize) -> Table {
        let mut t = Table::new(
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .required("end_time", ColumnType::Time)
                .build()
                .unwrap(),
        );
        let base = CivilDate::new(2017, 1, 1).to_epoch();
        t.insert_batch(
            (0..n)
                .map(|i| {
                    vec![
                        Value::Str(if i % 3 == 0 { "comet" } else { "gordon" }.into()),
                        Value::Float(i as f64 / 64.0),
                        Value::Time(base + (i as i64 % 40) * 86_400),
                    ]
                })
                .collect(),
        )
        .unwrap();
        t
    }

    fn q() -> Query {
        Query::new()
            .group_by_column("resource")
            .group_by_period("end_time", Period::Month)
            .aggregate(Aggregate::count("jobs"))
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"))
            .aggregate(Aggregate::of(AggFn::Avg, "cpu_hours", "avg"))
    }

    #[test]
    fn sharded_matches_the_serial_fold_for_any_pool() {
        let t = facts(500);
        let reg = MetricsRegistry::disabled();
        let reference = q().run(&t).unwrap();
        for (w, s) in [(1, 1), (1, 7), (2, 2), (3, 8), (8, 3), (16, 16)] {
            let pool = PoolConfig::new(w).with_shards(s);
            let rs = run_sharded(&q(), &t, pool, &reg, "jobfact").unwrap();
            assert_eq!(rs, reference, "workers={w} shards={s}");
        }
    }

    #[test]
    fn round_robin_sharding_when_no_time_hint() {
        let t = facts(101);
        let reg = MetricsRegistry::disabled();
        let query = Query::new()
            .group_by_column("resource")
            .aggregate(Aggregate::of(AggFn::Max, "cpu_hours", "peak"));
        let reference = query.run(&t).unwrap();
        let pool = PoolConfig::new(4).with_shards(5);
        assert_eq!(
            run_sharded(&query, &t, pool, &reg, "jobfact").unwrap(),
            reference
        );
    }

    #[test]
    fn empty_table_keeps_sql_one_row_semantics() {
        let t = Table::new(
            SchemaBuilder::new("empty")
                .required("v", ColumnType::Float)
                .build()
                .unwrap(),
        );
        let reg = MetricsRegistry::disabled();
        let query = Query::new().aggregate(Aggregate::count("n"));
        let rs = run_sharded(&query, &t, PoolConfig::new(4), &reg, "empty").unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.scalar_f64("n"), Some(0.0));
    }

    #[test]
    fn per_shard_timings_and_saturation_are_reported() {
        let t = facts(64);
        let reg = MetricsRegistry::new();
        let pool = PoolConfig::new(8).with_shards(4);
        run_sharded(&q(), &t, pool, &reg, "jobfact").unwrap();
        let snap = reg.snapshot();
        let hist = snap
            .histogram(
                "warehouse_shard_aggregation_seconds",
                &[("table", "jobfact")],
            )
            .expect("per-shard histogram");
        assert_eq!(hist.count, 4);
        // 8 workers over 4 shards: half the pool is wasted.
        assert_eq!(snap.gauge("warehouse_aggpool_saturation", &[]), Some(0.5));
    }

    #[test]
    fn sharded_partials_cold_build_matches_run_sharded() {
        let t = facts(300);
        let reg = MetricsRegistry::disabled();
        let pool = PoolConfig::new(3).with_shards(8);
        let reference = run_sharded(&q(), &t, pool, &reg, "jobfact").unwrap();
        let partials = ShardedPartials::build(&q(), &t, pool, &reg, "jobfact").unwrap();
        assert_eq!(partials.shard_count(), 8);
        assert_eq!(partials.rows_folded(), 300);
        assert_eq!(partials.finalize(&q(), t.schema()).unwrap(), reference);
    }

    #[test]
    fn delta_folds_match_full_recompute_at_every_step() {
        let reg = MetricsRegistry::disabled();
        let pool = PoolConfig::new(2).with_shards(5);
        let full = facts(256);
        let rows = full.rows().unwrap();

        // Cold-build over a prefix, then fold the rest in uneven batches,
        // checking against a from-scratch recompute after every batch.
        let mut grown = facts(64);
        let mut partials = ShardedPartials::build(&q(), &grown, pool, &reg, "jobfact").unwrap();
        let mut upto = 64;
        for batch in [1usize, 7, 40, 144] {
            let delta: Vec<_> = rows[upto..upto + batch].to_vec();
            grown.insert_batch(delta.clone()).unwrap();
            let dirty = partials.fold_batch(&q(), grown.schema(), &delta).unwrap();
            assert!(dirty >= 1 && dirty <= 5.min(batch));
            upto += batch;
            let recompute = run_sharded(&q(), &grown, pool, &reg, "jobfact").unwrap();
            assert_eq!(
                partials.finalize(&q(), grown.schema()).unwrap(),
                recompute,
                "after growing to {upto} rows"
            );
        }
        assert_eq!(partials.rows_folded(), 256);
    }

    #[test]
    fn empty_delta_batch_dirties_nothing() {
        let t = facts(32);
        let reg = MetricsRegistry::disabled();
        let mut partials =
            ShardedPartials::build(&q(), &t, PoolConfig::serial(), &reg, "jobfact").unwrap();
        let before = partials.finalize(&q(), t.schema()).unwrap();
        let nothing: &[Row] = &[];
        assert_eq!(partials.fold_batch(&q(), t.schema(), nothing).unwrap(), 0);
        assert_eq!(partials.finalize(&q(), t.schema()).unwrap(), before);
    }

    #[test]
    fn pool_config_resolution() {
        assert!(PoolConfig::auto().workers() >= 1);
        assert_eq!(PoolConfig::auto().workers(), PoolConfig::auto().shards());
        let p = PoolConfig::new(3).with_shards(12);
        assert_eq!((p.workers(), p.shards()), (3, 12));
        assert_eq!((p.configured_workers(), p.configured_shards()), (3, 12));
        assert_eq!(PoolConfig::serial().workers(), 1);
    }
}
