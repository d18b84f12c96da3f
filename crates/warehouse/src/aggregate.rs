//! Materialized aggregation tables.
//!
//! "Data aggregation is a key data processing step in which XDMoD pre-bins
//! raw dimension data, enabling the application to respond quickly to
//! complex user queries. Every day, aggregation processes run against
//! newly ingested data in the XDMoD data warehouse, binning numeric data
//! in aggregation tables." (§II-C3)
//!
//! An [`AggregationSpec`] declares, for one fact table: the time column,
//! the dimensions (raw or binned), and the measures. Materializing a spec
//! builds one table per [`Period`] named `{fact}_by_{period}`; rebuilding
//! after a config change is the paper's "re-aggregate all raw federation
//! data" operation.

use crate::bins::Bins;
use crate::database::Database;
use crate::delta::{CacheKey, RebuildTicket};
use crate::error::{Result, WarehouseError};
use crate::query::{AggFn, Aggregate, GroupKey, Query, ResultSet};
use crate::schema::{ColumnDef, TableSchema};
use crate::time::Period;
use crate::value::{ColumnType, Row, Value};

/// A dimension of an aggregation table.
#[derive(Debug, Clone, PartialEq)]
pub enum DimSpec {
    /// Group by the raw column value (e.g. `resource`, `user`).
    Column(String),
    /// Group a numeric column through configured bins — an XDMoD
    /// *aggregation level* (e.g. wall time in Table I).
    Binned {
        /// Source column.
        column: String,
        /// The configured levels.
        bins: Bins,
    },
}

impl DimSpec {
    /// Source column name.
    pub fn column(&self) -> &str {
        match self {
            DimSpec::Column(c) => c,
            DimSpec::Binned { column, .. } => column,
        }
    }

    /// Output column name in the aggregate table.
    pub fn output_name(&self) -> String {
        match self {
            DimSpec::Column(c) => c.clone(),
            DimSpec::Binned { column, .. } => format!("{column}_bin"),
        }
    }

    fn group_key(&self) -> GroupKey {
        match self {
            DimSpec::Column(c) => GroupKey::Column(c.clone()),
            DimSpec::Binned { column, bins } => GroupKey::Binned(column.clone(), bins.clone()),
        }
    }
}

/// Declarative description of an aggregation pipeline for one fact table.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationSpec {
    /// Fact table to aggregate.
    pub fact_table: String,
    /// Timestamp column used for period binning.
    pub time_column: String,
    /// Dimensions carried into the aggregate tables.
    pub dims: Vec<DimSpec>,
    /// Measures computed per (period, dims) group.
    pub measures: Vec<Aggregate>,
    /// Which calendar periods to materialize.
    pub periods: Vec<Period>,
    /// Optional override for the materialized tables' name stem. By
    /// default tables are named `{fact_table}_by_{period}`; a prefix lets
    /// several pipelines aggregate the same fact table without colliding
    /// (e.g. the SUPReMM *summary* pipeline next to the full one).
    pub table_prefix: Option<String>,
}

impl AggregationSpec {
    /// Name of the materialized table for `period`
    /// (e.g. `jobfact_by_month`).
    pub fn table_name(&self, period: Period) -> String {
        let stem = self.table_prefix.as_deref().unwrap_or(&self.fact_table);
        format!("{stem}_by_{}", period.ident())
    }

    /// Schema of the materialized table for `period`.
    ///
    /// Layout: `period_id: Int`, `period_start: Time`, one column per
    /// dimension, then one per measure.
    pub fn output_schema(&self, fact: &TableSchema, period: Period) -> Result<TableSchema> {
        let mut columns = vec![
            ColumnDef::required("period_id", ColumnType::Int),
            ColumnDef::required("period_start", ColumnType::Time),
        ];
        for d in &self.dims {
            let src = fact.column(d.column())?;
            let ty = match d {
                DimSpec::Column(_) => src.ty,
                DimSpec::Binned { .. } => ColumnType::Str,
            };
            columns.push(ColumnDef {
                name: d.output_name(),
                ty,
                nullable: true,
            });
        }
        for m in &self.measures {
            // Validate measure input columns exist up front.
            if let Some(c) = &m.column {
                fact.column(c)?;
            }
            if let Some(w) = &m.weight {
                fact.column(w)?;
            }
            let ty = match m.func {
                AggFn::Count | AggFn::CountDistinct => ColumnType::Int,
                _ => ColumnType::Float,
            };
            columns.push(ColumnDef {
                name: m.alias.clone(),
                ty,
                nullable: true,
            });
        }
        TableSchema::new(&self.table_name(period), columns)
    }

    /// The grouped query materializing one period's table: period bucket
    /// first, then the configured dimensions and measures.
    pub fn period_query(&self, period: Period) -> Query {
        let mut query = Query::new().group(GroupKey::PeriodOf(self.time_column.clone(), period));
        for d in &self.dims {
            query = query.group(d.group_key());
        }
        for m in &self.measures {
            query = query.aggregate(m.clone());
        }
        query
    }

    /// Transform query output (period bucket id first) into the
    /// aggregate-table layout (id + start + dims + measures).
    fn transform_rows(&self, period: Period, rs: ResultSet) -> Result<Vec<Row>> {
        rs.rows
            .into_iter()
            .map(|row| {
                let mut out = Vec::with_capacity(row.len() + 1);
                let bucket = row[0].as_i64().ok_or_else(|| {
                    WarehouseError::InvalidQuery(format!(
                        "NULL {} encountered while aggregating {}",
                        self.time_column, self.fact_table
                    ))
                })?;
                out.push(Value::Int(bucket));
                out.push(Value::Time(period.bucket_start(bucket)));
                out.extend(row.into_iter().skip(1));
                Ok(out)
            })
            .collect()
    }

    /// Write one period's rows: truncate the existing table (layout
    /// permitting) or create it, then insert.
    fn write_period_table(
        &self,
        db: &mut Database,
        schema: &str,
        out_schema: TableSchema,
        rows: Vec<Row>,
    ) -> Result<()> {
        let table_name = out_schema.name.clone();
        match db.table(schema, &table_name) {
            Ok(existing) => {
                if *existing.schema() != out_schema {
                    return Err(WarehouseError::SchemaMismatch(format!(
                        "aggregate table {schema}.{table_name} exists with a \
                         different layout; drop it before re-aggregating"
                    )));
                }
                db.truncate(schema, &table_name)?;
            }
            Err(_) => {
                db.create_table(schema, out_schema)?;
            }
        }
        db.insert(schema, &table_name, rows)?;
        Ok(())
    }

    /// The retained entry behind one period's table: the period query
    /// over the fact table.
    fn period_key(&self, schema: &str, period: Period) -> CacheKey {
        CacheKey::of(schema, &self.fact_table, &self.period_query(period))
    }

    /// Compute phase of a rebuild: answer every period's query through
    /// [`Database::query_reported`] — retained partials advanced by the
    /// binlog delta, or built cold on the worker pool — into staged
    /// per-period outputs, without writing anything. Runs under a shared
    /// borrow, so the hub can compute every satellite's aggregates
    /// concurrently under one read lock.
    ///
    /// When every period's retained entry still answers for the fact
    /// table *and* is marked installed in its period table, the outputs
    /// come back empty and [`AggregationSpec::apply_outputs`] is a no-op
    /// — a repeat aggregation run after no new ingest costs O(1).
    pub fn plan(&self, db: &Database, schema: &str) -> Result<AggregationOutputs> {
        let ticket = db.rebuild_ticket(schema, &self.fact_table);
        let telemetry = db.telemetry().clone();
        let installed = |period: Period| {
            let name = self.table_name(period);
            db.with_current_entry(&self.period_key(schema, period), |e| {
                e.installed_as.as_deref() == Some(&name)
            }) == Some(true)
        };
        if !self.periods.is_empty() && self.periods.iter().all(|&p| installed(p)) {
            if telemetry.is_enabled() {
                for &period in &self.periods {
                    telemetry
                        .counter(
                            "warehouse_aggcache_hits_total",
                            &[("table", &self.table_name(period))],
                        )
                        .inc();
                }
            }
            return Ok(AggregationOutputs {
                ticket,
                tables: Vec::new(),
                cached: true,
            });
        }
        let fact = db.table(schema, &self.fact_table)?;
        let mut tables = Vec::with_capacity(self.periods.len());
        for &period in &self.periods {
            let table_name = self.table_name(period);
            let span = telemetry.span("warehouse_aggregation_seconds", &[("table", &table_name)]);
            let out_schema = self.output_schema(fact.schema(), period)?;
            let (rs, _) = db.query_reported(
                schema,
                &self.fact_table,
                &self.period_query(period),
                &table_name,
            )?;
            let rows = self.transform_rows(period, rs)?;
            span.finish();
            tables.push((out_schema, rows));
        }
        Ok(AggregationOutputs {
            ticket,
            tables,
            cached: false,
        })
    }

    /// Apply phase of a rebuild, run under the exclusive borrow (write
    /// lock). Revalidates the outputs' [`RebuildTicket`] first: if the
    /// fact table was rewritten in between — ingest, or an external
    /// rebuild such as [`Replicator::resync_target`] bumping the rebuild
    /// generation — the stale outputs are discarded, the conflict is
    /// counted (`warehouse_aggregation_rebuild_conflicts_total`), and the
    /// aggregation is recomputed right here where nothing can interleave.
    /// On success every period's retained entry is marked installed so
    /// the next [`AggregationSpec::plan`] is a cache hit.
    ///
    /// [`Replicator::resync_target`]: ../../xdmod_replication/struct.Replicator.html#method.resync_target
    pub fn apply_outputs(
        &self,
        db: &mut Database,
        schema: &str,
        outputs: AggregationOutputs,
    ) -> Result<()> {
        if outputs.cached {
            return Ok(());
        }
        let mut outputs = outputs;
        if db.rebuild_ticket(schema, &self.fact_table) != outputs.ticket {
            db.telemetry()
                .counter(
                    "warehouse_aggregation_rebuild_conflicts_total",
                    &[("table", &self.fact_table)],
                )
                .inc();
            outputs = self.plan(db, schema)?;
            if outputs.cached {
                return Ok(());
            }
        }
        for (out_schema, rows) in outputs.tables {
            self.write_period_table(db, schema, out_schema, rows)?;
        }
        for &period in &self.periods {
            let name = self.table_name(period);
            db.with_current_entry(&self.period_key(schema, period), |e| {
                e.installed_as = Some(name)
            });
        }
        Ok(())
    }

    /// Build (or rebuild) every period's aggregate table for the fact
    /// table in `schema`: [`AggregationSpec::plan`] +
    /// [`AggregationSpec::apply_outputs`] in one call, for callers already
    /// holding exclusive access. Existing aggregate tables are truncated
    /// and repopulated — this is both the daily aggregation run and the
    /// "re-aggregate after changing levels" administrative action. The
    /// pool is [`Database::set_parallelism`]'s; serial is
    /// [`PoolConfig::serial`](crate::parallel::PoolConfig::serial).
    pub fn materialize(&self, db: &mut Database, schema: &str) -> Result<()> {
        let outputs = self.plan(db, schema)?;
        self.apply_outputs(db, schema, outputs)
    }
}

/// Staged output of [`AggregationSpec::plan`]: per-period table
/// schemas and rows, stamped with the fact table's data version at
/// compute time. Opaque by design — the only consumer is
/// [`AggregationSpec::apply_outputs`], which revalidates the stamp.
#[derive(Debug)]
pub struct AggregationOutputs {
    ticket: RebuildTicket,
    tables: Vec<(TableSchema, Vec<Row>)>,
    cached: bool,
}

impl AggregationOutputs {
    /// True when every period table was already installed and current
    /// (applying is a no-op).
    pub fn is_cached(&self) -> bool {
        self.cached
    }

    /// The fact-table data version these outputs were computed from.
    pub fn ticket(&self) -> RebuildTicket {
        self.ticket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bins::Bin;
    use crate::schema::SchemaBuilder;
    use crate::time::CivilDate;

    fn setup() -> (Database, AggregationSpec) {
        let mut db = Database::new();
        db.create_schema("xdmod_a").unwrap();
        db.create_table(
            "xdmod_a",
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("wall_hours", ColumnType::Float)
                .required("cpu_hours", ColumnType::Float)
                .required("end_time", ColumnType::Time)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mk = |res: &str, wall: f64, cpu: f64, month: u8, day: u8| {
            vec![
                Value::Str(res.into()),
                Value::Float(wall),
                Value::Float(cpu),
                Value::Time(CivilDate::new(2017, month, day).to_epoch() + 3600),
            ]
        };
        db.insert(
            "xdmod_a",
            "jobfact",
            vec![
                mk("comet", 0.5, 8.0, 1, 5),
                mk("comet", 3.0, 96.0, 1, 20),
                mk("comet", 4.5, 144.0, 2, 5),
                mk("gordon", 2.0, 32.0, 2, 10),
            ],
        )
        .unwrap();

        let spec = AggregationSpec {
            fact_table: "jobfact".into(),
            time_column: "end_time".into(),
            dims: vec![
                DimSpec::Column("resource".into()),
                DimSpec::Binned {
                    column: "wall_hours".into(),
                    bins: Bins::new(vec![
                        Bin::new("0-1 hours", 0.0, 1.0),
                        Bin::new("1-5 hours", 1.0, 5.0),
                    ])
                    .unwrap(),
                },
            ],
            measures: vec![
                Aggregate::count("job_count"),
                Aggregate::of(AggFn::Sum, "cpu_hours", "total_cpu_hours"),
            ],
            periods: vec![Period::Month, Period::Year],
            table_prefix: None,
        };
        (db, spec)
    }

    #[test]
    fn materialize_creates_period_tables() {
        let (mut db, spec) = setup();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let names = db.table_names("xdmod_a").unwrap();
        assert!(names.contains(&"jobfact_by_month"));
        assert!(names.contains(&"jobfact_by_year"));
    }

    #[test]
    fn monthly_rollup_is_correct() {
        let (mut db, spec) = setup();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let t = db.table("xdmod_a", "jobfact_by_month").unwrap();
        // Jan comet: two jobs in different wall bins -> two rows;
        // Feb comet + Feb gordon -> two rows. Total 4.
        assert_eq!(t.len(), 4);
        let schema = t.schema();
        let cpu_idx = schema.column_index("total_cpu_hours").unwrap();
        let rows = t.rows().unwrap();
        let total: f64 = rows.iter().map(|r| r[cpu_idx].as_f64().unwrap()).sum();
        assert_eq!(total, 8.0 + 96.0 + 144.0 + 32.0);
    }

    #[test]
    fn yearly_rollup_collapses_months() {
        let (mut db, spec) = setup();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let t = db.table("xdmod_a", "jobfact_by_year").unwrap();
        // comet: bins 0-1 (1 job) and 1-5 (2 jobs); gordon: 1-5 (1 job).
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn period_start_matches_bucket() {
        let (mut db, spec) = setup();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let t = db.table("xdmod_a", "jobfact_by_month").unwrap();
        let s = t.schema();
        let id_idx = s.column_index("period_id").unwrap();
        let start_idx = s.column_index("period_start").unwrap();
        for row in t.rows().unwrap().iter() {
            let id = row[id_idx].as_i64().unwrap();
            let start = row[start_idx].as_time().unwrap();
            assert_eq!(Period::Month.bucket_start(id), start);
        }
    }

    #[test]
    fn rematerialize_is_idempotent() {
        let (mut db, spec) = setup();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let before = db
            .table("xdmod_a", "jobfact_by_month")
            .unwrap()
            .content_checksum();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let after = db
            .table("xdmod_a", "jobfact_by_month")
            .unwrap()
            .content_checksum();
        assert_eq!(before, after);
    }

    #[test]
    fn rebinning_changes_layout_only_with_same_name_errors() {
        let (mut db, mut spec) = setup();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        // Changing bin *contents* keeps the layout: rebuild succeeds.
        spec.dims[1] = DimSpec::Binned {
            column: "wall_hours".into(),
            bins: Bins::new(vec![Bin::new("0-10 hours", 0.0, 10.0)]).unwrap(),
        };
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let t = db.table("xdmod_a", "jobfact_by_year").unwrap();
        // Now everything lands in one bin per resource.
        assert_eq!(t.len(), 2);

        // Changing the *layout* (adding a measure) must be rejected while
        // the old table exists.
        spec.measures
            .push(Aggregate::of(AggFn::Avg, "cpu_hours", "avg_cpu"));
        let err = spec.materialize(&mut db, "xdmod_a").unwrap_err();
        assert!(matches!(err, WarehouseError::SchemaMismatch(_)));
    }

    #[test]
    fn ingest_then_reaggregate_picks_up_new_rows() {
        let (mut db, spec) = setup();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        db.insert(
            "xdmod_a",
            "jobfact",
            vec![vec![
                Value::Str("comet".into()),
                Value::Float(0.2),
                Value::Float(1.0),
                Value::Time(CivilDate::new(2017, 3, 1).to_epoch()),
            ]],
        )
        .unwrap();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let t = db.table("xdmod_a", "jobfact_by_month").unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn missing_fact_table_errors() {
        let (mut db, mut spec) = setup();
        spec.fact_table = "nope".into();
        assert!(spec.materialize(&mut db, "xdmod_a").is_err());
    }

    #[test]
    fn materialize_times_each_period_table() {
        let (mut db, spec) = setup();
        let reg = xdmod_telemetry::MetricsRegistry::new();
        db.set_telemetry(reg.clone());
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let snap = reg.snapshot();
        for period in [Period::Month, Period::Year] {
            let name = spec.table_name(period);
            let h = snap
                .histogram("warehouse_aggregation_seconds", &[("table", &name)])
                .unwrap_or_else(|| panic!("no aggregation timing for {name}"));
            assert_eq!(h.count, 1);
        }
    }

    #[test]
    fn materialize_is_byte_identical_for_any_pool_and_to_the_serial_fold() {
        use crate::parallel::PoolConfig;
        let mut checksums = Vec::new();
        for pool in [PoolConfig::serial(), PoolConfig::new(4).with_shards(6)] {
            let (mut db, spec) = setup();
            db.set_parallelism(pool);
            spec.materialize(&mut db, "xdmod_a").unwrap();
            // Both pools against the reference: `Query::run` over the
            // fact table, laid out as the period table.
            let fact = db.table("xdmod_a", "jobfact").unwrap();
            let reference = spec.period_query(Period::Month).run(fact).unwrap();
            let rows = db
                .table("xdmod_a", "jobfact_by_month")
                .unwrap()
                .rows()
                .unwrap();
            assert_eq!(
                rows.to_vec(),
                spec.transform_rows(Period::Month, reference).unwrap(),
                "{pool:?}"
            );
            let month = db.table("xdmod_a", "jobfact_by_month").unwrap();
            checksums.push(month.content_checksum());
        }
        assert_eq!(checksums[0], checksums[1]);
    }

    #[test]
    fn materialization_after_ingest_rides_the_delta_and_matches_a_rebuild() {
        let extra = || {
            vec![
                vec![
                    Value::Str("gordon".into()),
                    Value::Float(0.25),
                    Value::Float(4.0),
                    Value::Time(CivilDate::new(2017, 3, 3).to_epoch() + 7200),
                ],
                vec![
                    Value::Str("comet".into()),
                    Value::Float(2.5),
                    Value::Float(80.0),
                    Value::Time(CivilDate::new(2017, 1, 28).to_epoch() + 60),
                ],
            ]
        };
        let pool = crate::parallel::PoolConfig::new(3).with_shards(5);

        // Cold build, ingest, delta-folded rebuild.
        let (mut db, spec) = setup();
        let reg = xdmod_telemetry::MetricsRegistry::new();
        db.set_telemetry(reg.clone());
        db.set_parallelism(pool);
        spec.materialize(&mut db, "xdmod_a").unwrap();
        db.insert("xdmod_a", "jobfact", extra()).unwrap();
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let snap = reg.snapshot();
        assert!(
            snap.counter_total("warehouse_delta_folds_total") > 0,
            "second materialization must ride the delta, not rebuild"
        );
        assert!(snap.counter_total("warehouse_delta_folded_records_total") > 0);

        // Same workload with every retained entry dropped before the
        // second run: full rebuilds only.
        let (mut db2, _) = setup();
        let reg2 = xdmod_telemetry::MetricsRegistry::new();
        db2.set_telemetry(reg2.clone());
        db2.set_parallelism(pool);
        spec.materialize(&mut db2, "xdmod_a").unwrap();
        db2.insert("xdmod_a", "jobfact", extra()).unwrap();
        db2.note_external_rebuild();
        spec.materialize(&mut db2, "xdmod_a").unwrap();
        assert_eq!(
            reg2.snapshot().counter_total("warehouse_delta_folds_total"),
            0
        );

        for table in ["jobfact_by_month", "jobfact_by_year"] {
            assert_eq!(
                db.table("xdmod_a", table).unwrap().content_checksum(),
                db2.table("xdmod_a", table).unwrap().content_checksum(),
                "{table}: delta-folded and rebuilt materializations diverged"
            );
        }
    }

    #[test]
    fn repeat_materialization_is_a_cache_hit() {
        let (mut db, spec) = setup();
        let reg = xdmod_telemetry::MetricsRegistry::new();
        db.set_telemetry(reg.clone());
        spec.materialize(&mut db, "xdmod_a").unwrap();
        let before = db
            .table("xdmod_a", "jobfact_by_month")
            .unwrap()
            .content_checksum();

        let outputs = spec.plan(&db, "xdmod_a").unwrap();
        assert!(outputs.is_cached());
        spec.apply_outputs(&mut db, "xdmod_a", outputs).unwrap();
        assert_eq!(
            db.table("xdmod_a", "jobfact_by_month")
                .unwrap()
                .content_checksum(),
            before
        );
        let snap = reg.snapshot();
        assert!(
            snap.counter(
                "warehouse_aggcache_hits_total",
                &[("table", "jobfact_by_month")]
            )
            .unwrap()
                > 0
        );

        // New ingest invalidates: the next plan recomputes.
        db.insert(
            "xdmod_a",
            "jobfact",
            vec![vec![
                Value::Str("comet".into()),
                Value::Float(1.0),
                Value::Float(2.0),
                Value::Time(CivilDate::new(2017, 4, 1).to_epoch()),
            ]],
        )
        .unwrap();
        let outputs = spec.plan(&db, "xdmod_a").unwrap();
        assert!(!outputs.is_cached());
    }

    #[test]
    fn a_plan_whose_apply_was_dropped_is_replanned_not_reported_cached() {
        let (mut db, spec) = setup();
        let reg = xdmod_telemetry::MetricsRegistry::new();
        db.set_telemetry(reg.clone());
        // Planned, never applied: the entries are retained but nothing
        // is installed, so the next plan must stage the tables again —
        // from the retained results, without re-reading the fact table.
        drop(spec.plan(&db, "xdmod_a").unwrap());
        assert!(db.table("xdmod_a", "jobfact_by_month").is_err());
        let outputs = spec.plan(&db, "xdmod_a").unwrap();
        assert!(!outputs.is_cached());
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("warehouse_delta_cold_builds_total"), 2);
        assert_eq!(snap.counter_total("warehouse_aggcache_hits_total"), 2);
        spec.apply_outputs(&mut db, "xdmod_a", outputs).unwrap();
        assert_eq!(db.table("xdmod_a", "jobfact_by_month").unwrap().len(), 4);
        assert!(spec.plan(&db, "xdmod_a").unwrap().is_cached());

        // A fold clears the marker with the entry it was set on: ingest,
        // plan (dropped), and the following plan is not cached either.
        db.insert(
            "xdmod_a",
            "jobfact",
            vec![vec![
                Value::Str("comet".into()),
                Value::Float(1.0),
                Value::Float(2.0),
                Value::Time(CivilDate::new(2017, 4, 1).to_epoch()),
            ]],
        )
        .unwrap();
        drop(spec.plan(&db, "xdmod_a").unwrap());
        let outputs = spec.plan(&db, "xdmod_a").unwrap();
        assert!(!outputs.is_cached());
        spec.apply_outputs(&mut db, "xdmod_a", outputs).unwrap();
        assert_eq!(db.table("xdmod_a", "jobfact_by_month").unwrap().len(), 5);
    }

    #[test]
    fn stale_outputs_trigger_guarded_recompute_on_apply() {
        let (mut db, spec) = setup();
        let reg = xdmod_telemetry::MetricsRegistry::new();
        db.set_telemetry(reg.clone());
        let outputs = spec.plan(&db, "xdmod_a").unwrap();

        // Facts change between compute and apply (the resync race).
        db.insert(
            "xdmod_a",
            "jobfact",
            vec![vec![
                Value::Str("gordon".into()),
                Value::Float(0.5),
                Value::Float(64.0),
                Value::Time(CivilDate::new(2017, 3, 15).to_epoch()),
            ]],
        )
        .unwrap();
        spec.apply_outputs(&mut db, "xdmod_a", outputs).unwrap();
        assert_eq!(
            reg.snapshot().counter(
                "warehouse_aggregation_rebuild_conflicts_total",
                &[("table", "jobfact")]
            ),
            Some(1)
        );
        // The applied aggregates include the late row, not the stale view.
        let t = db.table("xdmod_a", "jobfact_by_month").unwrap();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn external_rebuild_generation_staleness_is_guarded_too() {
        let (mut db, spec) = setup();
        let reg = xdmod_telemetry::MetricsRegistry::new();
        db.set_telemetry(reg.clone());
        let outputs = spec.plan(&db, "xdmod_a").unwrap();
        // A resync rewrote the schema wholesale without changing the
        // watermark bookkeeping it bypasses: only the generation moves.
        db.note_external_rebuild();
        spec.apply_outputs(&mut db, "xdmod_a", outputs).unwrap();
        assert_eq!(
            reg.snapshot().counter(
                "warehouse_aggregation_rebuild_conflicts_total",
                &[("table", "jobfact")]
            ),
            Some(1)
        );
        // Content still ends up correct (recomputed from current facts).
        let t = db.table("xdmod_a", "jobfact_by_month").unwrap();
        assert_eq!(t.len(), 4);
    }
}
