//! The federation hub.
//!
//! "Federation provides a combined, master view of job and performance
//! data collected from individual XDMoD instances. ... Once data is
//! ingested on the individual XDMoD instances, it undergoes live
//! replication to the central federation hub database, where it is then
//! aggregated as appropriate to the requirements of the whole collection"
//! (§II-A). The hub holds one warehouse schema per satellite (the
//! Tungsten rename-on-transfer convention), its **own** aggregation
//! levels (Table I's "Federation Hub" column), a multi-source SSO
//! gateway, and the federated identity map.

use crate::instance::XdmodInstance;
use crate::version::XdmodVersion;
use std::collections::HashMap;
use std::sync::Arc;
use xdmod_auth::{AuthMode, IdentityMap, InstanceAuth};
use xdmod_realms::levels::AggregationLevelsConfig;
use xdmod_realms::{cloud as cloud_realm, jobs, storage, supremm, RealmKind};
use xdmod_telemetry::MetricsRegistry;
use xdmod_warehouse::sync::Mutex;
use xdmod_warehouse::{
    run_sharded, shared, AggregationOutputs, Database, LogPosition, PoolConfig, Query, Result,
    ResultSet, SharedDatabase, Table, WarehouseError,
};

/// A memoized federated-query result. Valid only while every satellite's
/// fact-table watermark and the hub's rebuild generation are unchanged;
/// any ingest, resync, or restore shifts the vector and forces a
/// recompute.
struct FedCacheEntry {
    watermarks: Vec<Option<LogPosition>>,
    generation: u64,
    result: ResultSet,
}

/// The central federation hub.
pub struct FederationHub {
    name: String,
    version: XdmodVersion,
    db: SharedDatabase,
    levels: AggregationLevelsConfig,
    satellites: Vec<String>,
    identity: IdentityMap,
    auth: InstanceAuth,
    telemetry: MetricsRegistry,
    fed_cache: Mutex<HashMap<(String, u64), FedCacheEntry>>,
}

impl FederationHub {
    /// Stand up a hub at [`XdmodVersion::CURRENT`].
    pub fn new(name: &str) -> Self {
        Self::with_version(name, XdmodVersion::CURRENT)
    }

    /// Stand up a hub at a specific version.
    ///
    /// The hub is born with a **live** metrics registry wired into its
    /// warehouse: the hub is the operations center of the federation, so
    /// its self-monitoring is on by default (satellites may stay dark).
    /// Replication links attach to the same registry when they join.
    pub fn with_version(name: &str, version: XdmodVersion) -> Self {
        let telemetry = MetricsRegistry::new();
        let mut db = Database::new();
        db.set_telemetry(telemetry.clone());
        FederationHub {
            name: name.to_owned(),
            version,
            db: shared(db),
            levels: AggregationLevelsConfig::new(),
            satellites: Vec::new(),
            identity: IdentityMap::new(),
            // The hub's gateway allows multiple SSO sources: "a federated
            // core instance ... may consist of data originating from
            // multiple institutions that may use varied protocols"
            // (§II-D3).
            auth: InstanceAuth::new(name, AuthMode::ServiceProvider, true),
            telemetry,
            fed_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The hub's metrics registry: warehouse, replication links, and
    /// federated-query instrumentation all report here.
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// Swap the hub's registry (e.g. [`MetricsRegistry::disabled`] to
    /// turn self-monitoring off). The hub warehouse follows.
    pub fn set_telemetry(&mut self, telemetry: MetricsRegistry) {
        self.db.write().set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Rebuild the hub's warehouse on a durability backend, running crash
    /// recovery against whatever durable state the backend holds. Must be
    /// called before any members join (the recovered database *replaces*
    /// the current one — pool sizing is carried over, data is whatever
    /// the backend recovered).
    pub fn set_storage(&mut self, backend: Box<dyn xdmod_warehouse::StorageBackend>) -> Result<()> {
        let recovered = Database::open_with_telemetry(backend, self.telemetry.clone())?;
        let mut db = self.db.write();
        let pool = db.parallelism();
        *db = recovered;
        db.set_parallelism(pool);
        Ok(())
    }

    /// Auto-snapshot (and compact) the hub warehouse's binlog every
    /// `every` records. See
    /// [`xdmod_warehouse::Database::set_snapshot_policy`].
    pub fn set_snapshot_policy(&mut self, every: Option<u64>) {
        self.db.write().set_snapshot_policy(every);
    }

    /// Enable cold-shard paging on the hub warehouse: fact tables are
    /// striped into day-bucket pages, cold pages spill to disk when the
    /// working-set byte budget fills, and queries fault them back in
    /// transparently. See [`xdmod_warehouse::Database::enable_paging`].
    pub fn enable_paging(&mut self, config: xdmod_warehouse::PagingConfig) -> Result<()> {
        self.db.write().enable_paging(config)
    }

    /// Hub name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Hub XDMoD version (satellites must match exactly).
    pub fn version(&self) -> XdmodVersion {
        self.version
    }

    /// Shared handle to the hub database (replication targets this).
    pub fn database(&self) -> SharedDatabase {
        Arc::clone(&self.db)
    }

    /// Hub-side schema name for a satellite: `inst_<name>`.
    pub fn schema_for(name: &str) -> String {
        format!("inst_{}", name.replace(['-', '.'], "_"))
    }

    /// The hub's own aggregation levels (Table I, "Federation Hub").
    pub fn levels(&self) -> &AggregationLevelsConfig {
        &self.levels
    }

    /// Replace the hub's aggregation levels. Follow with
    /// [`aggregate_all`](Self::aggregate_all) to "re-aggregate all raw
    /// federation data" (§II-C3).
    pub fn set_levels(&mut self, levels: AggregationLevelsConfig) {
        self.levels = levels;
    }

    /// Configure the worker pool the hub's warehouse uses for partitioned
    /// parallel aggregation (see [`xdmod_warehouse::PoolConfig`]).
    /// Determinism does not depend on this: any pool produces the same
    /// bytes, only the wall-clock changes.
    pub fn set_parallelism(&mut self, pool: PoolConfig) {
        self.db.write().set_parallelism(pool);
    }

    /// The hub warehouse's current aggregation pool configuration.
    pub fn parallelism(&self) -> PoolConfig {
        self.db.read().parallelism()
    }

    /// Record a satellite as a member (called by the federation when a
    /// link is established).
    pub fn register_satellite(&mut self, name: &str) {
        if !self.satellites.iter().any(|s| s == name) {
            self.satellites.push(name.to_owned());
        }
    }

    /// Registered satellites, in join order.
    pub fn satellites(&self) -> &[String] {
        &self.satellites
    }

    /// The federated identity map (§II-D4's future work, implemented).
    pub fn identity_map(&self) -> &IdentityMap {
        &self.identity
    }

    /// Mutable identity map access.
    pub fn identity_map_mut(&mut self) -> &mut IdentityMap {
        &mut self.identity
    }

    /// The hub's authentication front door (multi-source SSO).
    pub fn auth(&self) -> &InstanceAuth {
        &self.auth
    }

    /// Mutable access to the hub's front door.
    pub fn auth_mut(&mut self) -> &mut InstanceAuth {
        &mut self.auth
    }

    // ------------------------------------------------------------------
    // Aggregation
    // ------------------------------------------------------------------

    /// Aggregate every satellite's replicated data under the **hub's**
    /// levels. Raw replicated rows are left untouched ("no data are lost
    /// or changed"); only `{fact}_by_{period}` tables are written into
    /// each satellite schema on the hub.
    ///
    /// Runs in two phases on the partitioned parallel engine: every
    /// satellite's rebuild is *planned* concurrently under a single read
    /// lock (one scoped worker per satellite, each folding its fact
    /// shards on the warehouse pool), then the planned outputs are
    /// *applied* under one write lock in stable satellite × spec order —
    /// so the result is byte-identical to a serial rebuild for any pool
    /// size. Satellites with no ingest since the last rebuild are
    /// skipped (their period tables are marked installed); the others
    /// fold only the binlog records replicated since.
    pub fn aggregate_all(&self) -> Result<()> {
        let specs = [
            jobs::aggregation_spec(&self.levels),
            supremm::aggregation_spec(),
            storage::aggregation_spec(),
            cloud_realm::aggregation_spec(&self.levels),
        ];
        // Phase 1: plan concurrently. Nothing is written, so readers
        // (charts, federated queries) stay unblocked during the fold.
        let db = self.db.read();
        let schemas: Vec<String> = self
            .satellites
            .iter()
            .map(|s| Self::schema_for(s))
            // Link established but nothing replicated yet: skip.
            .filter(|schema| db.has_schema(schema))
            .collect();
        let planned: Vec<Result<Vec<(usize, AggregationOutputs)>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = schemas
                .iter()
                .map(|schema| {
                    let db = &db;
                    let specs = &specs;
                    scope.spawn(move || -> Result<Vec<(usize, AggregationOutputs)>> {
                        let mut outs = Vec::new();
                        for (i, spec) in specs.iter().enumerate() {
                            // A replication filter may have excluded a
                            // realm's fact table entirely (e.g.
                            // SUPReMM); skip those.
                            if db.table(schema, &spec.fact_table).is_ok() {
                                outs.push((i, spec.plan(db, schema)?));
                            }
                        }
                        Ok(outs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(WarehouseError::Io(
                            "satellite aggregation planner panicked".to_owned(),
                        ))
                    })
                })
                .collect()
        });
        drop(db);
        // Phase 2: install under one write lock, in stable order. A
        // ticket gone stale between the phases (concurrent ingest or
        // resync) recomputes under the lock instead of installing the
        // stale view.
        let mut db = self.db.write();
        for (schema, outs) in schemas.iter().zip(planned) {
            for (i, outputs) in outs? {
                specs[i].apply_outputs(&mut db, schema, outputs)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Federated query
    // ------------------------------------------------------------------

    /// Run a query against one satellite's replicated fact table.
    ///
    /// Timed as `hub_satellite_query_seconds{satellite=..}` and served
    /// from the warehouse's retained partials: a repeat with no
    /// intervening ingest is a hit, counted under
    /// `warehouse_aggcache_hits_total`; after replication traffic only
    /// the new records are folded.
    pub fn query_instance(
        &self,
        satellite: &str,
        realm: RealmKind,
        query: &Query,
    ) -> Result<ResultSet> {
        let span = self
            .telemetry
            .span("hub_satellite_query_seconds", &[("satellite", satellite)]);
        let db = self.db.read();
        let out = db.query(
            &Self::schema_for(satellite),
            XdmodInstance::fact_table(realm),
            query,
        );
        span.finish();
        out
    }

    /// Run a query against the **union** of every satellite's fact table
    /// — "an integrated view of job and performance data collected from
    /// entirely independent XDMoD instances".
    ///
    /// Timed end-to-end as `hub_federated_query_seconds`; the per-satellite
    /// fan-out inside the union is broken out under
    /// `hub_satellite_query_seconds{satellite=..}`.
    ///
    /// Results are memoized against the vector of per-satellite fact
    /// watermarks plus the hub's rebuild generation: a repeat with no new
    /// replication traffic skips the union entirely (counted under
    /// `hub_query_cache_hits_total` / `hub_query_cache_misses_total`).
    pub fn federated_query(&self, realm: RealmKind, query: &Query) -> Result<ResultSet> {
        let span = self.telemetry.span("hub_federated_query_seconds", &[]);
        let fact = XdmodInstance::fact_table(realm);
        let key = (fact.to_owned(), query.fingerprint());
        let (watermarks, generation) = {
            let db = self.db.read();
            let marks = self
                .satellites
                .iter()
                .map(|s| db.table_watermark(&Self::schema_for(s), fact))
                .collect::<Vec<_>>();
            (marks, db.rebuild_generation())
        };
        // Clone the hit inside one statement so the cache guard drops at
        // the `;` — an `if let` scrutinee would hold it across the
        // telemetry counter (a cross-crate lock) until the end of the
        // whole construct.
        let hit = self.fed_cache.lock().get(&key).and_then(|entry| {
            (entry.watermarks == watermarks && entry.generation == generation)
                .then(|| entry.result.clone())
        });
        if let Some(result) = hit {
            self.telemetry
                .counter("hub_query_cache_hits_total", &[])
                .inc();
            span.finish();
            return Ok(result);
        }
        self.telemetry
            .counter("hub_query_cache_misses_total", &[])
            .inc();
        // A miss scans every satellite's rows: fold them on the warehouse
        // pool (deterministic for any pool size), not on this one thread.
        let pool = self.parallelism();
        let out = self
            .union_fact_table(realm)
            .and_then(|union| run_sharded(query, &union, pool, &self.telemetry, fact));
        span.finish();
        let out = out?;
        self.fed_cache.lock().insert(
            key,
            FedCacheEntry {
                watermarks,
                generation,
                result: out.clone(),
            },
        );
        Ok(out)
    }

    /// A version stamp for a realm's federated answers: an FNV-1a fold of
    /// every satellite's fact-table watermark plus the hub's rebuild
    /// generation — exactly the vector [`FederationHub::federated_query`]
    /// memoizes against. Two calls return the same stamp iff no
    /// replication traffic, resync, or restore touched the realm in
    /// between, so the serving tier can derive an `ETag` from it and
    /// answer `If-None-Match` revalidations with 304 without running the
    /// query.
    pub fn result_version(&self, realm: RealmKind) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |byte: u8| h = (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        let fact = XdmodInstance::fact_table(realm);
        for b in fact.bytes() {
            fold(b);
        }
        let db = self.db.read();
        for sat in &self.satellites {
            for b in sat.bytes() {
                fold(b);
            }
            match db.table_watermark(&Self::schema_for(sat), fact) {
                None => fold(0xff),
                Some(pos) => {
                    fold(0x01);
                    for b in u64::from(pos.epoch)
                        .to_le_bytes()
                        .iter()
                        .chain(pos.seqno.to_le_bytes().iter())
                    {
                        fold(*b);
                    }
                }
            }
        }
        for b in db.rebuild_generation().to_le_bytes() {
            fold(b);
        }
        drop(fold);
        h
    }

    /// Materialize the union of a realm's fact rows across satellites.
    fn union_fact_table(&self, realm: RealmKind) -> Result<Table> {
        let fact = XdmodInstance::fact_table(realm);
        let db = self.db.read();
        let mut union: Option<Table> = None;
        for sat in &self.satellites {
            let schema = Self::schema_for(sat);
            if !db.has_schema(&schema) {
                continue;
            }
            let Ok(table) = db.table(&schema, fact) else {
                continue; // realm not federated from this satellite
            };
            let span = self
                .telemetry
                .span("hub_satellite_query_seconds", &[("satellite", sat)]);
            match &mut union {
                None => {
                    let mut t = Table::new(table.schema().clone());
                    t.insert_checked(table.rows()?.into_vec());
                    union = Some(t);
                }
                Some(u) => {
                    if u.schema() != table.schema() {
                        return Err(WarehouseError::SchemaMismatch(format!(
                            "satellite {sat} has an incompatible {fact} layout"
                        )));
                    }
                    u.insert_checked(table.rows()?.into_vec());
                }
            }
            span.finish();
        }
        union.ok_or_else(|| {
            WarehouseError::InvalidQuery(format!(
                "no satellite has replicated {} data",
                realm.display_name()
            ))
        })
    }

    /// Total replicated fact rows of a realm across the federation.
    pub fn federated_fact_rows(&self, realm: RealmKind) -> usize {
        self.union_fact_table(realm).map(|t| t.len()).unwrap_or(0)
    }

    /// Export a satellite's replicated data as a dump renamed back to the
    /// satellite's own schema — the backup use case: "the hub itself
    /// could be used to regenerate the databases for the member
    /// instances" (§II-E4).
    pub fn regeneration_dump(&self, satellite: &str) -> Result<Vec<u8>> {
        let db = self.db.read();
        Ok(
            xdmod_warehouse::Snapshot::capture_schemas(&db, &[Self::schema_for(satellite)])?
                .into_renamed(&XdmodInstance::schema_name_of(satellite))?
                .to_bytes(),
        )
    }

    // ------------------------------------------------------------------
    // Self-monitoring: the hub watches the federation watching the
    // satellites. Telemetry is materialized into an internal warehouse
    // schema and rendered through the same report pipeline as any other
    // XDMoD realm — the monitoring system eats its own dog food.
    // ------------------------------------------------------------------

    /// Snapshot the hub's telemetry into the internal `xdmod_meta` schema
    /// (`ops_counters`, `ops_gauges`, `ops_histograms`, `ops_lag_samples`)
    /// and render the operations dashboard: replication-lag timeseries per
    /// link plus query/aggregation latency quantiles.
    ///
    /// The meta tables are rebuilt from scratch on every call, so the
    /// dashboard and the queryable tables always agree. Writing them does
    /// bump the hub's own binlog counters — by design: self-monitoring
    /// traffic is traffic — but the snapshot is taken *before* the write,
    /// so a report never counts its own materialization.
    pub fn ops_report(&self) -> Result<xdmod_chart::Report> {
        let snap = self.telemetry.snapshot();
        self.materialize_meta(&snap)?;

        use xdmod_chart::{Dataset, Report, Section};
        let applied = snap.counter_total("replication_events_applied_total");
        let appends = snap.counter_total("warehouse_binlog_appends_total");
        let errors = snap.counter_total("replication_apply_errors_total");
        let mut report = Report::new(&format!("{} operations", self.name))
            .section(Section::Heading("Federation health".into()))
            .section(Section::Text(format!(
                "{} satellite(s); {applied} replication event(s) applied, \
                 {errors} apply error(s); {appends} hub binlog append(s); \
                 registry up {} ms.",
                self.satellites.len(),
                self.telemetry.elapsed_ms(),
            )));

        // Durability posture: which storage backend the hub warehouse is
        // on, plus the recovery/compaction counters the disk layer bumps.
        let compactions = snap.counter_total("warehouse_compactions_total");
        let truncated = snap.counter_total("warehouse_recovery_truncated_records_total");
        let snap_failures = snap.counter_total("warehouse_snapshot_failures_total");
        report = report
            .section(Section::Heading("Durability".into()))
            .section(Section::Text(format!(
                "storage backend `{}`; {compactions} binlog compaction(s); \
                 {truncated} torn record(s) truncated during recovery; \
                 {snap_failures} auto-snapshot failure(s).",
                self.db.read().storage_name(),
            )));

        // Residency posture: only rendered when cold-shard paging is on.
        // The point-in-time stats come from the residency manager (budget,
        // resident/spilled/lost pages); the motion counters (fault-ins,
        // evictions, spill writes) from the telemetry registry.
        if let Some(stats) = self.db.read().residency_stats() {
            let fault_ins = snap.counter_total("warehouse_page_faultins_total");
            let evictions = snap.counter_total("warehouse_page_evictions_total");
            let spill_writes = snap.counter_total("warehouse_page_spill_writes_total");
            let lost = snap.counter_total("warehouse_page_spill_lost_total");
            report = report
                .section(Section::Heading("Residency".into()))
                .section(Section::Text(format!(
                    "paging enabled: {} of {} byte(s) resident; \
                     {} resident / {} spilled / {} lost page(s); \
                     {fault_ins} fault-in(s); {evictions} eviction(s); \
                     {spill_writes} spill write(s); {lost} spill file(s) lost.",
                    stats.resident_bytes,
                    stats.budget_bytes,
                    stats.resident_pages,
                    stats.spilled_pages,
                    stats.lost_pages,
                )));
        }

        // Incremental aggregation posture: how much materialization work
        // the delta-fold engine saved, and how often it had to bail out
        // to a full rebuild (and why — the reason label distinguishes
        // resyncs from compaction races from fact rewrites).
        let folds = snap.counter_total("warehouse_delta_folds_total");
        let folded = snap.counter_total("warehouse_delta_folded_records_total");
        let cold = snap.counter_total("warehouse_delta_cold_builds_total");
        let fallbacks = snap.counter_total("warehouse_delta_fallback_rebuilds_total");
        report = report
            .section(Section::Heading("Incremental aggregation".into()))
            .section(Section::Text(format!(
                "{folds} incremental fold(s) covering {folded} binlog \
                 record(s); {cold} cold/full rebuild(s); {fallbacks} \
                 fallback(s) to full rebuild.",
            )));

        // Replication lag over time, one series per link, from the
        // `replication.lag` events the live replicators emit.
        let lag_events = snap
            .events
            .iter()
            .filter(|e| e.kind == "replication.lag")
            .collect::<Vec<_>>();
        if lag_events.is_empty() {
            report = report.section(Section::Text("No replication lag samples recorded.".into()));
        } else {
            let mut ds = Dataset::new("Replication lag", "events behind");
            ds.labels = lag_events
                .iter()
                .map(|e| format!("{:.1}s", e.elapsed_ms as f64 / 1000.0))
                .collect();
            let mut links: Vec<&str> = lag_events.iter().map(|e| e.message.as_str()).collect();
            links.sort_unstable();
            links.dedup();
            for link in links {
                let values = lag_events
                    .iter()
                    .map(|e| (e.message == link).then(|| e.field("lag_events")).flatten())
                    .collect();
                ds.push_series(link, values)
                    .expect("lag series aligned with labels"); // xc-allow: series built from the labels vector above
            }
            report = report.section(Section::Chart(ds));
        }

        // Latency quantiles for every timing histogram the hub has seen.
        if !snap.histograms.is_empty() {
            let mut ds = Dataset::new("Operation latency quantiles", "seconds");
            ds.labels = snap.histograms.iter().map(|(id, _)| id.render()).collect();
            let hists = || snap.histograms.iter().map(|(_, h)| h);
            let columns: [(&str, Vec<Option<f64>>); 5] = [
                ("count", hists().map(|h| Some(h.count as f64)).collect()),
                ("p50", hists().map(|h| h.p50()).collect()),
                ("p95", hists().map(|h| h.p95()).collect()),
                ("p99", hists().map(|h| h.p99()).collect()),
                ("max", hists().map(|h| Some(h.max)).collect()),
            ];
            for (column, values) in columns {
                ds.push_series(column, values)
                    .expect("quantile series aligned with labels"); // xc-allow: series built from the labels vector above
            }
            report = report.section(Section::Table(ds));
        }
        Ok(report)
    }

    /// Rebuild `xdmod_meta` from a registry snapshot so telemetry is
    /// queryable through the ordinary warehouse `Query` machinery.
    fn materialize_meta(&self, snap: &xdmod_telemetry::RegistrySnapshot) -> Result<()> {
        use xdmod_warehouse::{ColumnType, SchemaBuilder, Value};
        const SCHEMA: &str = "xdmod_meta";
        let mut db = self.db.write();
        if !db.has_schema(SCHEMA) {
            db.create_schema(SCHEMA)?;
            db.create_table(
                SCHEMA,
                SchemaBuilder::new("ops_counters")
                    .required("metric", ColumnType::Str)
                    .required("value", ColumnType::Int)
                    .build()?,
            )?;
            db.create_table(
                SCHEMA,
                SchemaBuilder::new("ops_gauges")
                    .required("metric", ColumnType::Str)
                    .required("value", ColumnType::Float)
                    .build()?,
            )?;
            db.create_table(
                SCHEMA,
                SchemaBuilder::new("ops_histograms")
                    .required("metric", ColumnType::Str)
                    .required("count", ColumnType::Int)
                    .required("sum", ColumnType::Float)
                    .required("max", ColumnType::Float)
                    .required("p50", ColumnType::Float)
                    .required("p95", ColumnType::Float)
                    .required("p99", ColumnType::Float)
                    .build()?,
            )?;
            db.create_table(
                SCHEMA,
                SchemaBuilder::new("ops_lag_samples")
                    .required("seq", ColumnType::Int)
                    .required("elapsed_ms", ColumnType::Int)
                    .required("link", ColumnType::Str)
                    .required("lag_events", ColumnType::Float)
                    .required("lag_seconds", ColumnType::Float) // xc-allow: truncate's page-slot mutexes are leaves under the db write lock held here
                    .build()?,
            )?;
        } else {
            for t in [
                "ops_counters",
                "ops_gauges",
                "ops_histograms",
                "ops_lag_samples",
            ] {
                db.truncate(SCHEMA, t)?;
            }
        }

        let counter_rows: Vec<_> = snap
            .counters
            .iter()
            .map(|(id, v)| vec![Value::Str(id.render()), Value::Int(*v as i64)])
            .collect();
        if !counter_rows.is_empty() {
            db.insert(SCHEMA, "ops_counters", counter_rows)?;
        }
        let gauge_rows: Vec<_> = snap
            .gauges
            .iter()
            .map(|(id, v)| vec![Value::Str(id.render()), Value::Float(*v)])
            .collect();
        if !gauge_rows.is_empty() {
            db.insert(SCHEMA, "ops_gauges", gauge_rows)?;
        }
        let hist_rows: Vec<_> = snap
            .histograms
            .iter()
            .map(|(id, h)| {
                vec![
                    Value::Str(id.render()),
                    Value::Int(h.count as i64),
                    Value::Float(h.sum),
                    Value::Float(h.max),
                    Value::Float(h.p50().unwrap_or(0.0)),
                    Value::Float(h.p95().unwrap_or(0.0)),
                    Value::Float(h.p99().unwrap_or(0.0)),
                ]
            })
            .collect();
        if !hist_rows.is_empty() {
            db.insert(SCHEMA, "ops_histograms", hist_rows)?;
        }
        let lag_rows: Vec<_> = snap
            .events
            .iter()
            .filter(|e| e.kind == "replication.lag")
            .map(|e| {
                vec![
                    Value::Int(e.seq as i64),
                    Value::Int(e.elapsed_ms as i64),
                    Value::Str(e.message.clone()),
                    Value::Float(e.field("lag_events").unwrap_or(0.0)),
                    Value::Float(e.field("lag_seconds").unwrap_or(0.0)),
                ]
            })
            .collect();
        if !lag_rows.is_empty() {
            db.insert(SCHEMA, "ops_lag_samples", lag_rows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_warehouse::{AggFn, Aggregate, ColumnType, SchemaBuilder, Value};

    /// Manually stage replicated-looking data into the hub db.
    fn hub_with_two_satellites() -> FederationHub {
        let mut hub = FederationHub::new("federation-hub");
        hub.register_satellite("x");
        hub.register_satellite("y");
        let db = hub.database();
        let mut db = db.write();
        for (sat, hours) in [("x", 10.0), ("y", 20.0)] {
            let schema = FederationHub::schema_for(sat);
            db.create_schema(&schema).unwrap();
            db.create_table(
                &schema,
                SchemaBuilder::new("jobfact")
                    .required("resource", ColumnType::Str)
                    .required("cpu_hours", ColumnType::Float)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db.insert(
                &schema,
                "jobfact",
                vec![vec![Value::Str(format!("res-{sat}")), Value::Float(hours)]],
            )
            .unwrap();
        }
        drop(db);
        hub
    }

    #[test]
    fn federated_query_unions_satellites() {
        let hub = hub_with_two_satellites();
        let rs = hub
            .federated_query(
                RealmKind::Jobs,
                &Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total")),
            )
            .unwrap();
        assert_eq!(rs.scalar_f64("total"), Some(30.0));
        assert_eq!(hub.federated_fact_rows(RealmKind::Jobs), 2);
    }

    #[test]
    fn query_instance_scopes_to_one_satellite() {
        let hub = hub_with_two_satellites();
        let rs = hub
            .query_instance(
                "x",
                RealmKind::Jobs,
                &Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total")),
            )
            .unwrap();
        assert_eq!(rs.scalar_f64("total"), Some(10.0));
    }

    #[test]
    fn register_satellite_is_idempotent() {
        let mut hub = FederationHub::new("h");
        hub.register_satellite("x");
        hub.register_satellite("x");
        assert_eq!(hub.satellites(), &["x".to_owned()]);
    }

    #[test]
    fn federated_query_with_no_data_is_an_error() {
        let hub = FederationHub::new("h");
        let err = hub
            .federated_query(
                RealmKind::Jobs,
                &Query::new().aggregate(Aggregate::count("n")),
            )
            .unwrap_err();
        assert!(err.to_string().contains("HPC Jobs"));
        assert_eq!(hub.federated_fact_rows(RealmKind::Jobs), 0);
    }

    #[test]
    fn incompatible_satellite_layouts_are_detected() {
        let hub = hub_with_two_satellites();
        {
            let db = hub.database();
            let mut db = db.write();
            let schema = FederationHub::schema_for("z");
            db.create_schema(&schema).unwrap();
            db.create_table(
                &schema,
                SchemaBuilder::new("jobfact")
                    .required("different", ColumnType::Int)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db.insert(&schema, "jobfact", vec![vec![Value::Int(1)]])
                .unwrap();
        }
        let mut hub = hub;
        hub.register_satellite("z");
        let err = hub
            .federated_query(
                RealmKind::Jobs,
                &Query::new().aggregate(Aggregate::count("n")),
            )
            .unwrap_err();
        assert!(err.to_string().contains("incompatible"));
    }

    #[test]
    fn schema_for_sanitizes() {
        assert_eq!(FederationHub::schema_for("ccr-x.y"), "inst_ccr_x_y");
    }

    #[test]
    fn hub_queries_are_timed_per_satellite() {
        let hub = hub_with_two_satellites();
        let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
        hub.query_instance("x", RealmKind::Jobs, &q).unwrap();
        hub.federated_query(RealmKind::Jobs, &q).unwrap();
        let snap = hub.telemetry().snapshot();
        // query_instance + the fan-out inside federated_query both hit x.
        let x = snap
            .histogram("hub_satellite_query_seconds", &[("satellite", "x")])
            .expect("satellite x timed");
        assert_eq!(x.count, 2);
        let y = snap
            .histogram("hub_satellite_query_seconds", &[("satellite", "y")])
            .expect("satellite y timed");
        assert_eq!(y.count, 1);
        let fed = snap
            .histogram("hub_federated_query_seconds", &[])
            .expect("federated query timed");
        assert_eq!(fed.count, 1);
        // Staging data through the shared db counted binlog appends.
        assert!(snap.counter_total("warehouse_binlog_appends_total") > 0);
    }

    #[test]
    fn ops_report_materializes_meta_and_renders() {
        let hub = hub_with_two_satellites();
        let q = Query::new().aggregate(Aggregate::count("n"));
        hub.federated_query(RealmKind::Jobs, &q).unwrap();
        // Seed a lag sample the way a live replicator would.
        hub.telemetry().event_with(
            "replication.lag",
            "x",
            &[("lag_events", 3.0), ("lag_seconds", 0.25)],
        );
        let report = hub.ops_report().unwrap();
        let text = report.render();
        assert!(text.contains("federation-hub operations"));
        assert!(text.contains("Durability"));
        assert!(text.contains("storage backend `memory`"));
        assert!(text.contains("Incremental aggregation"));
        assert!(text.contains("incremental fold(s) covering"));
        assert!(text.contains("Replication lag"));
        assert!(text.contains("Operation latency quantiles"));

        let db = hub.database();
        let db = db.read();
        assert!(db.table("xdmod_meta", "ops_counters").unwrap().len() > 0);
        assert!(db.table("xdmod_meta", "ops_histograms").unwrap().len() > 0);
        assert_eq!(db.table("xdmod_meta", "ops_lag_samples").unwrap().len(), 1);
        drop(db);

        // Second call rebuilds the meta schema instead of duplicating rows.
        hub.ops_report().unwrap();
        let db = hub.database();
        let db = db.read();
        assert_eq!(db.table("xdmod_meta", "ops_lag_samples").unwrap().len(), 1);
    }

    #[test]
    fn ops_report_shows_residency_only_when_paging_is_on() {
        let dir = std::env::temp_dir().join(format!("xdmod-hub-paging-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut hub = hub_with_two_satellites();
        // Unpaged hub: no Residency section.
        assert!(!hub.ops_report().unwrap().render().contains("Residency"));
        hub.enable_paging(xdmod_warehouse::PagingConfig::new(&dir).budget_bytes(1))
            .unwrap();
        // Force page motion: a federated query scans (and, at a one-byte
        // budget, immediately evicts) every satellite fact page.
        let q = Query::new().aggregate(Aggregate::count("n"));
        hub.federated_query(RealmKind::Jobs, &q).unwrap();
        let text = hub.ops_report().unwrap().render();
        assert!(text.contains("Residency"), "got: {text}");
        assert!(text.contains("paging enabled"));
        assert!(text.contains("fault-in(s)"));
        assert!(text.contains("eviction(s)"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Stage two satellites with full Jobs-realm fact tables so
    /// `aggregate_all` has something period-shaped to chew on. Values are
    /// dyadic rationals so float folds are exact in any order.
    fn staged_jobs_hub(pool: xdmod_warehouse::PoolConfig) -> FederationHub {
        let mut hub = FederationHub::new("h");
        hub.set_parallelism(pool);
        hub.register_satellite("x");
        hub.register_satellite("y");
        let db = hub.database();
        let mut db = db.write();
        let base = xdmod_warehouse::CivilDate::new(2017, 1, 1).to_epoch();
        for sat in ["x", "y"] {
            let schema = FederationHub::schema_for(sat);
            db.create_schema(&schema).unwrap();
            db.create_table(&schema, xdmod_realms::jobs::fact_schema())
                .unwrap();
            let rows: Vec<_> = (0..32i64)
                .map(|i| {
                    let t = base + i * 86_400;
                    vec![
                        Value::Int(i),
                        Value::Str(format!("res-{}", i % 3)),
                        Value::Str("u".into()),
                        Value::Str("pi".into()),
                        Value::Str(format!("q{}", i % 2)),
                        Value::Int(1 + i % 4),
                        Value::Int(8),
                        Value::Time(t),
                        Value::Time(t),
                        Value::Time(t + 3_600),
                        Value::Float(i as f64 / 64.0),
                        Value::Float(0.0),
                        Value::Float(i as f64 / 32.0),
                        Value::Float(i as f64 / 16.0),
                        Value::Str("0".into()),
                        Value::Null,
                    ]
                })
                .collect();
            db.insert(&schema, "jobfact", rows).unwrap();
        }
        drop(db);
        hub
    }

    #[test]
    fn parallel_aggregate_all_matches_serial_and_caches() {
        let parallel = staged_jobs_hub(xdmod_warehouse::PoolConfig::new(4).with_shards(8));
        let serial = staged_jobs_hub(xdmod_warehouse::PoolConfig::serial());
        parallel.aggregate_all().unwrap();
        serial.aggregate_all().unwrap();

        let spec = jobs::aggregation_spec(parallel.levels());
        for sat in ["x", "y"] {
            let schema = FederationHub::schema_for(sat);
            for &period in &spec.periods {
                let name = spec.table_name(period);
                let pdb = parallel.database();
                let sdb = serial.database();
                let (pdb, sdb) = (pdb.read(), sdb.read());
                assert_eq!(
                    pdb.table(&schema, &name).unwrap().content_checksum(),
                    sdb.table(&schema, &name).unwrap().content_checksum(),
                    "{schema}.{name} must be byte-identical across pool sizes"
                );
            }
        }

        // No new ingest: the repeat rebuild is answered from the cache.
        parallel.aggregate_all().unwrap();
        let snap = parallel.telemetry().snapshot();
        assert!(snap.counter_total("warehouse_aggcache_hits_total") > 0);
    }

    #[test]
    fn incremental_aggregate_all_folds_deltas_and_matches_full_rebuild() {
        let pool = xdmod_warehouse::PoolConfig::new(4).with_shards(8);
        let incr = staged_jobs_hub(pool);
        let full = staged_jobs_hub(pool);
        incr.aggregate_all().unwrap();
        full.aggregate_all().unwrap();

        // A late day of jobs lands on satellite x; re-aggregate.
        let base = xdmod_warehouse::CivilDate::new(2017, 2, 10).to_epoch();
        let late_rows = || {
            (0..4i64)
                .map(|i| {
                    let t = base + i * 3_600;
                    vec![
                        Value::Int(100 + i),
                        Value::Str(format!("res-{}", i % 3)),
                        Value::Str("u".into()),
                        Value::Str("pi".into()),
                        Value::Str("q1".into()),
                        Value::Int(2),
                        Value::Int(8),
                        Value::Time(t),
                        Value::Time(t),
                        Value::Time(t + 1_800),
                        Value::Float(i as f64 / 64.0),
                        Value::Float(0.0),
                        Value::Float(i as f64 / 32.0),
                        Value::Float(i as f64 / 16.0),
                        Value::Str("0".into()),
                        Value::Null,
                    ]
                })
                .collect::<Vec<_>>()
        };
        for hub in [&incr, &full] {
            let db = hub.database();
            let mut db = db.write();
            db.insert(&FederationHub::schema_for("x"), "jobfact", late_rows())
                .unwrap();
        }
        // The invalidation a resync uses: every retained entry dropped,
        // so `full` rebuilds from scratch.
        full.database().write().note_external_rebuild();
        incr.aggregate_all().unwrap();
        full.aggregate_all().unwrap();

        // The incremental hub folded the late rows; the invalidated hub
        // rebuilt from scratch and never advanced a retained entry.
        let isnap = incr.telemetry().snapshot();
        assert!(isnap.counter_total("warehouse_delta_folds_total") > 0);
        assert!(isnap.counter_total("warehouse_delta_folded_records_total") > 0);
        let fsnap = full.telemetry().snapshot();
        assert_eq!(fsnap.counter_total("warehouse_delta_folds_total"), 0);

        // Either way the materialized aggregates are byte-identical.
        let spec = jobs::aggregation_spec(incr.levels());
        for sat in ["x", "y"] {
            let schema = FederationHub::schema_for(sat);
            for &period in &spec.periods {
                let name = spec.table_name(period);
                let idb = incr.database();
                let fdb = full.database();
                let (idb, fdb) = (idb.read(), fdb.read());
                assert_eq!(
                    idb.table(&schema, &name).unwrap().content_checksum(),
                    fdb.table(&schema, &name).unwrap().content_checksum(),
                    "{schema}.{name} diverged between incremental and full rebuild"
                );
            }
        }
    }

    #[test]
    fn federated_query_cache_invalidates_on_ingest() {
        let hub = hub_with_two_satellites();
        let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
        for _ in 0..2 {
            let rs = hub.federated_query(RealmKind::Jobs, &q).unwrap();
            assert_eq!(rs.scalar_f64("total"), Some(30.0));
        }
        let snap = hub.telemetry().snapshot();
        assert_eq!(snap.counter_total("hub_query_cache_hits_total"), 1);
        assert_eq!(snap.counter_total("hub_query_cache_misses_total"), 1);

        // New replicated rows move satellite x's watermark: recompute.
        {
            let db = hub.database();
            let mut db = db.write();
            db.insert(
                &FederationHub::schema_for("x"),
                "jobfact",
                vec![vec![Value::Str("res-x".into()), Value::Float(5.0)]],
            )
            .unwrap();
        }
        let rs = hub.federated_query(RealmKind::Jobs, &q).unwrap();
        assert_eq!(rs.scalar_f64("total"), Some(35.0));
        let snap = hub.telemetry().snapshot();
        assert_eq!(snap.counter_total("hub_query_cache_hits_total"), 1);
        assert_eq!(snap.counter_total("hub_query_cache_misses_total"), 2);
    }

    #[test]
    fn result_version_moves_with_watermarks_and_differs_per_realm() {
        let hub = hub_with_two_satellites();
        let v1 = hub.result_version(RealmKind::Jobs);
        assert_eq!(hub.result_version(RealmKind::Jobs), v1); // stable at rest
        assert_ne!(hub.result_version(RealmKind::Storage), v1);

        // New replicated rows move a watermark: the stamp must change.
        {
            let db = hub.database();
            let mut db = db.write();
            db.insert(
                &FederationHub::schema_for("x"),
                "jobfact",
                vec![vec![Value::Str("res-x".into()), Value::Float(5.0)]],
            )
            .unwrap();
        }
        let v2 = hub.result_version(RealmKind::Jobs);
        assert_ne!(v2, v1);
        assert_eq!(hub.result_version(RealmKind::Jobs), v2);
    }

    #[test]
    fn query_instance_serves_repeats_from_the_aggregate_cache() {
        let hub = hub_with_two_satellites();
        let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
        hub.query_instance("x", RealmKind::Jobs, &q).unwrap();
        let rs = hub.query_instance("x", RealmKind::Jobs, &q).unwrap();
        assert_eq!(rs.scalar_f64("total"), Some(10.0));
        let snap = hub.telemetry().snapshot();
        assert_eq!(
            snap.counter("warehouse_aggcache_hits_total", &[("table", "jobfact")]),
            Some(1)
        );
    }

    #[test]
    fn disabling_hub_telemetry_silences_everything() {
        let mut hub = hub_with_two_satellites();
        hub.set_telemetry(xdmod_telemetry::MetricsRegistry::disabled());
        let q = Query::new().aggregate(Aggregate::count("n"));
        hub.federated_query(RealmKind::Jobs, &q).unwrap();
        assert!(hub.telemetry().snapshot().histograms.is_empty());
        assert_eq!(hub.telemetry().prometheus_text(), "");
    }
}
