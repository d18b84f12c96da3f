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
use std::sync::Arc;
use xdmod_auth::{AuthMode, IdentityMap, InstanceAuth};
use xdmod_realms::levels::AggregationLevelsConfig;
use xdmod_realms::{cloud as cloud_realm, jobs, storage, supremm, RealmKind};
use xdmod_telemetry::MetricsRegistry;
use xdmod_warehouse::{
    shared, AggregationSpec, Database, Period, PoolConfig, Query, Result, ResultSet,
    ShardedPartials, SharedDatabase, Table, WarehouseError,
};

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

    /// Replace the hub's aggregation levels: the next
    /// [`aggregate`](Self::aggregate) re-bins all raw federation data
    /// under them ("re-aggregate all raw federation data", §II-C3).
    /// [`aggregate_all`](Self::aggregate_all) builds those answers ahead
    /// of the first read.
    ///
    /// Answers under the old levels are superseded, so this counts as an
    /// external rebuild ([`Database::note_external_rebuild`]): the
    /// [`result_version`](Self::result_version) of every realm moves and
    /// every retained entry is dropped.
    pub fn set_levels(&mut self, levels: AggregationLevelsConfig) {
        self.levels = levels;
        self.db.write().note_external_rebuild();
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

    /// The federated identity map (§II-D4's future work, implemented),
    /// for registering and resolving identities.
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

    /// The aggregation pipeline of a realm under the **hub's** levels
    /// (Table I's "Federation Hub" column).
    pub fn aggregation_spec(&self, realm: RealmKind) -> AggregationSpec {
        match realm {
            RealmKind::Jobs => jobs::aggregation_spec(&self.levels),
            RealmKind::Supremm => supremm::aggregation_spec(),
            RealmKind::Storage => storage::aggregation_spec(),
            RealmKind::Cloud => cloud_realm::aggregation_spec(&self.levels),
        }
    }

    /// A realm's aggregate for one period under the hub's levels: the
    /// spec's [`AggregationSpec::period_query`] answered over every
    /// satellite's replicated facts by
    /// [`federated_query`](Self::federated_query). Nothing is written;
    /// after [`aggregate_all`](Self::aggregate_all) each satellite's pass
    /// is a hit.
    pub fn aggregate(&self, realm: RealmKind, period: Period) -> Result<ResultSet> {
        self.federated_query(realm, &self.aggregation_spec(realm).period_query(period))
    }

    /// The paper's aggregation cycle on the hub: bring every satellite ×
    /// realm × period entry behind [`aggregate`](Self::aggregate) up to
    /// date with [`Database::partials`] — a hit, a fold of the records
    /// replicated since, or a cold build — under the hub's levels. Raw
    /// replicated rows are left untouched ("no data are lost or
    /// changed"), and nothing is written: no period table, no binlog
    /// record, no write lock.
    ///
    /// Runs under one read lock on the partitioned parallel engine: one
    /// scoped worker per satellite, each folding its fact shards on the
    /// warehouse pool. Each period is timed as
    /// `warehouse_aggregation_seconds{table=..}` under its
    /// `{fact}_by_{period}` name.
    pub fn aggregate_all(&self) -> Result<()> {
        let specs = RealmKind::ALL.map(|realm| self.aggregation_spec(realm));
        let telemetry = &self.telemetry;
        let db = self.db.read();
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .satellites
                .iter()
                .map(|sat| {
                    let (db, specs, schema) = (&db, &specs, Self::schema_for(sat));
                    scope.spawn(move || -> Result<()> {
                        // Nothing replicated yet, or a realm a replication
                        // filter excluded (e.g. SUPReMM): no fact table.
                        let present = specs
                            .iter()
                            .filter(|spec| db.table(&schema, &spec.fact_table).is_ok());
                        for spec in present {
                            for &period in &spec.periods {
                                let table = spec.table_name(period);
                                let span = telemetry
                                    .span("warehouse_aggregation_seconds", &[("table", &table)]);
                                db.partials(&schema, &spec.fact_table, &spec.period_query(period))?;
                                span.finish();
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            // Join every worker before reporting the first error.
            let panicked = || Err(WarehouseError::Io("aggregation worker panicked".to_owned()));
            let joined: Vec<Result<()>> = workers
                .into_iter()
                .map(|worker| worker.join().unwrap_or_else(|_| panicked()))
                .collect();
            joined.into_iter().collect()
        })
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
    /// No row is copied: each satellite that holds the realm's fact
    /// table, in join order, brings its own retained entry up to date
    /// ([`Database::partials`] — a hit, a delta fold of what replicated
    /// since, or a cold build), and the per-satellite partials merge
    /// satellite by satellite, shards ascending, into one answer. A
    /// satellite whose layout differs from the first one's is refused
    /// before anything folds.
    ///
    /// Timed end-to-end as `hub_federated_query_seconds`, each satellite's
    /// pass as `hub_satellite_query_seconds{satellite=..}`.
    pub fn federated_query(&self, realm: RealmKind, query: &Query) -> Result<ResultSet> {
        let span = self.telemetry.span("hub_federated_query_seconds", &[]);
        let fact = XdmodInstance::fact_table(realm);
        let db = self.db.read();
        let members: Vec<_> = self.fact_tables(&db, fact).collect();
        let Some((_, first)) = members.first() else {
            return Err(WarehouseError::InvalidQuery(format!(
                "no satellite has replicated {} data",
                realm.display_name()
            )));
        };
        if let Some((sat, _)) = members.iter().find(|(_, t)| t.schema() != first.schema()) {
            return Err(WarehouseError::SchemaMismatch(format!(
                "satellite {sat} has an incompatible {fact} layout"
            )));
        }
        let mut parts = Vec::with_capacity(members.len());
        for (sat, _) in &members {
            let pass = self
                .telemetry
                .span("hub_satellite_query_seconds", &[("satellite", sat)]);
            parts.push(db.partials(&Self::schema_for(sat), fact, query)?);
            pass.finish();
        }
        let out = ShardedPartials::finish_all(parts, query, first.schema());
        span.finish();
        out
    }

    /// A version stamp for a realm's federated answers: an FNV-1a fold of
    /// every satellite's fact-table watermark plus the hub's rebuild
    /// generation — the same data versions each satellite's retained
    /// entry is validated against when [`FederationHub::federated_query`]
    /// runs. Two calls return the same stamp iff no replication traffic,
    /// resync, or restore touched the realm in between, so the serving
    /// tier can derive an `ETag` from it and answer `If-None-Match`
    /// revalidations with 304 without running the query.
    pub fn result_version(&self, realm: RealmKind) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |bytes: &[u8]| {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
            }
        };
        let fact = XdmodInstance::fact_table(realm);
        fold(fact.as_bytes());
        let db = self.db.read();
        for sat in &self.satellites {
            fold(sat.as_bytes());
            match db.table_watermark(&Self::schema_for(sat), fact) {
                None => fold(&[0xff]),
                Some(pos) => {
                    fold(&[0x01]);
                    fold(&u64::from(pos.epoch).to_le_bytes());
                    fold(&pos.seqno.to_le_bytes());
                }
            }
        }
        fold(&db.rebuild_generation().to_le_bytes());
        h
    }

    /// Each satellite holding a realm's fact table, in join order.
    fn fact_tables<'a>(
        &'a self,
        db: &'a Database,
        fact: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a Table)> + 'a {
        self.satellites.iter().filter_map(move |sat| {
            let table = db.table(&Self::schema_for(sat), fact).ok()?;
            Some((sat.as_str(), table))
        })
    }

    /// Total replicated fact rows of a realm across the federation.
    pub fn federated_fact_rows(&self, realm: RealmKind) -> usize {
        let db = self.db.read();
        self.fact_tables(&db, XdmodInstance::fact_table(realm))
            .map(|(_, t)| t.len())
            .sum()
    }

    // ------------------------------------------------------------------
    // Self-monitoring: the hub watches the federation watching the
    // satellites.
    // ------------------------------------------------------------------

    /// Render the operations dashboard from one snapshot of the hub's
    /// registry: federation health, durability and residency posture,
    /// incremental aggregation, replication-lag timeseries per link and
    /// query/aggregation latency quantiles.
    ///
    /// A plain read: the storage backend and residency stats come from
    /// one read guard on the hub database, and nothing is written, so
    /// dashboard traffic appends no binlog record and forces no snapshot.
    pub fn ops_report(&self) -> xdmod_chart::Report {
        use xdmod_chart::{Dataset, Report, Section};
        let snap = self.telemetry.snapshot();
        let (storage, residency) = {
            let db = self.db.read();
            (db.storage_name(), db.residency_stats())
        };
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
                "storage backend `{storage}`; {compactions} binlog compaction(s); \
                 {truncated} torn record(s) truncated during recovery; \
                 {snap_failures} auto-snapshot failure(s).",
            )));

        // Residency posture: only rendered when cold-shard paging is on.
        // The point-in-time stats come from the residency manager (budget,
        // resident/spilled/lost pages); the motion counters (fault-ins,
        // evictions, spill writes) from the telemetry registry.
        if let Some(stats) = residency {
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
            report = report
                .section(Section::Heading("Operation latency quantiles".into()))
                .section(Section::Table(ds));
        }
        report
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
        assert!(matches!(err, WarehouseError::SchemaMismatch(_)), "{err}");
        assert!(err
            .to_string()
            .contains("satellite z has an incompatible jobfact layout"));
        // Refused before any satellite's partials were built.
        let snap = hub.telemetry().snapshot();
        assert_eq!(snap.counter_total("warehouse_delta_cold_builds_total"), 0);
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
    fn ops_report_renders_the_registry_snapshot() {
        let hub = hub_with_two_satellites();
        let q = Query::new().aggregate(Aggregate::count("n"));
        hub.federated_query(RealmKind::Jobs, &q).unwrap();
        // Seed a lag sample the way a live replicator would.
        hub.telemetry().event_with(
            "replication.lag",
            "x",
            &[("lag_events", 3.0), ("lag_seconds", 0.25)],
        );
        let report = hub.ops_report();
        let text = report.render();
        assert!(text.contains("federation-hub operations"));
        assert!(text.contains("Durability"));
        assert!(text.contains("storage backend `memory`"));
        assert!(text.contains("Incremental aggregation"));
        assert!(text.contains("incremental fold(s) covering"));
        assert!(text.contains("Replication lag"));
        assert!(text.contains("Operation latency quantiles"));

        // Everything the dashboard renders is in the registry snapshot.
        let snap = hub.telemetry().snapshot();
        assert!(!snap.counters.is_empty());
        assert!(!snap.histograms.is_empty());
        assert_eq!(hub.telemetry().events_of_kind("replication.lag").len(), 1);

        // A second report reads the same sample: rendering adds nothing.
        hub.ops_report();
        assert_eq!(hub.telemetry().events_of_kind("replication.lag").len(), 1);
    }

    #[test]
    fn ops_report_writes_nothing_to_the_hub_database() {
        let hub = hub_with_two_satellites();
        let db = hub.database();
        let state = || {
            let db = db.read();
            let schemas: Vec<String> = db.schema_names().into_iter().map(str::to_owned).collect();
            (db.binlog_position(), schemas)
        };
        let before = state();
        for _ in 0..3 {
            hub.ops_report();
        }
        assert_eq!(state(), before);
        assert_eq!(before.1, ["inst_x", "inst_y"]);
    }

    #[test]
    fn ops_report_shows_residency_only_when_paging_is_on() {
        let dir = std::env::temp_dir().join(format!("xdmod-hub-paging-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut hub = hub_with_two_satellites();
        // Unpaged hub: no Residency section.
        assert!(!hub.ops_report().render().contains("Residency"));
        hub.enable_paging(xdmod_warehouse::PagingConfig::new(&dir).budget_bytes(1))
            .unwrap();
        // Force page motion: a federated query scans (and, at a one-byte
        // budget, immediately evicts) every satellite fact page.
        let q = Query::new().aggregate(Aggregate::count("n"));
        hub.federated_query(RealmKind::Jobs, &q).unwrap();
        let text = hub.ops_report().render();
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

    /// A late day of jobs on one satellite, as its next sync applies it.
    fn replicate_late_jobs(hub: &FederationHub) {
        let base = xdmod_warehouse::CivilDate::new(2017, 2, 10).to_epoch();
        let rows = (0..4i64)
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
            .collect();
        hub.database()
            .write()
            .insert(&FederationHub::schema_for("x"), "jobfact", rows)
            .unwrap();
    }

    /// Every period's Jobs aggregate under the hub's levels.
    fn job_aggregates(hub: &FederationHub) -> Vec<ResultSet> {
        let spec = hub.aggregation_spec(RealmKind::Jobs);
        spec.periods
            .iter()
            .map(|&period| hub.aggregate(RealmKind::Jobs, period).unwrap())
            .collect()
    }

    #[test]
    fn parallel_aggregate_all_matches_serial_and_caches() {
        let parallel = staged_jobs_hub(xdmod_warehouse::PoolConfig::new(4).with_shards(8));
        let serial = staged_jobs_hub(xdmod_warehouse::PoolConfig::serial());
        parallel.aggregate_all().unwrap();
        serial.aggregate_all().unwrap();
        let count = |name: &str| parallel.telemetry().snapshot().counter_total(name);
        let (hits, misses) = (
            count("warehouse_aggcache_hits_total"),
            count("warehouse_aggcache_misses_total"),
        );

        let answers = job_aggregates(&parallel);
        assert_eq!(answers, job_aggregates(&serial), "pool sizes diverged");
        assert!(answers.iter().all(|rs| !rs.is_empty()));
        // Each answer read the entries the cycle built: every satellite's
        // pass of every period is a hit, counted under the fact table.
        let passes = 2 * answers.len() as u64;
        assert_eq!(count("warehouse_aggcache_hits_total"), hits + passes);
        assert_eq!(count("warehouse_aggcache_misses_total"), misses);

        // No new ingest: the repeat cycle is answered from the cache.
        parallel.aggregate_all().unwrap();
        assert_eq!(count("warehouse_aggcache_hits_total"), hits + 2 * passes);
        assert_eq!(count("warehouse_aggcache_misses_total"), misses);
    }

    #[test]
    fn incremental_aggregate_all_folds_deltas_and_matches_full_rebuild() {
        let pool = xdmod_warehouse::PoolConfig::new(4).with_shards(8);
        let incr = staged_jobs_hub(pool);
        let full = staged_jobs_hub(pool);
        incr.aggregate_all().unwrap();
        full.aggregate_all().unwrap();

        // A late day of jobs lands on satellite x; re-aggregate.
        replicate_late_jobs(&incr);
        replicate_late_jobs(&full);
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

        // Either way every period's answer is the same.
        assert_eq!(
            job_aggregates(&incr),
            job_aggregates(&full),
            "incremental and full rebuild diverged"
        );
    }

    #[test]
    fn aggregate_all_appends_nothing_to_the_hub_binlog() {
        let hub = staged_jobs_hub(xdmod_warehouse::PoolConfig::new(2).with_shards(4));
        let head = || hub.database().read().binlog_position();
        // Right after the facts replicated, then on a repeat.
        let synced = head();
        hub.aggregate_all().unwrap();
        assert_eq!(head(), synced);
        hub.aggregate_all().unwrap();
        assert_eq!(head(), synced);

        // New facts: the cycle folds them and still writes nothing.
        replicate_late_jobs(&hub);
        let synced = head();
        hub.aggregate_all().unwrap();
        assert_eq!(head(), synced);
        let snap = hub.telemetry().snapshot();
        assert!(snap.counter_total("warehouse_delta_folded_records_total") >= 4);
        let db = hub.database();
        let db = db.read();
        for sat in ["x", "y"] {
            let tables = db.table_names(&FederationHub::schema_for(sat)).unwrap();
            assert_eq!(tables, ["jobfact"], "{sat}");
        }
    }

    #[test]
    fn set_levels_moves_the_result_version_and_drops_retained_entries() {
        use xdmod_realms::levels::{
            hub_walltime, instance_a_walltime, instance_b_walltime, DIM_WALL_TIME,
        };
        let mut hub = staged_jobs_hub(xdmod_warehouse::PoolConfig::serial());
        let levels = |walltime| {
            let mut levels = AggregationLevelsConfig::new();
            levels.set(DIM_WALL_TIME, walltime);
            levels
        };
        hub.set_levels(levels(hub_walltime()));
        hub.aggregate(RealmKind::Jobs, Period::Month).unwrap();
        let db = hub.database();
        let retained = || db.read().delta_cache().len();
        let mut version = hub.result_version(RealmKind::Jobs);
        let entries = retained();
        assert_eq!(entries, 2, "one entry per satellite");

        // An unchanged stamp would let a client revalidate an answer
        // binned under the old levels.
        for walltime in [instance_a_walltime(), instance_b_walltime(), hub_walltime()] {
            hub.set_levels(levels(walltime));
            let next = hub.result_version(RealmKind::Jobs);
            assert_ne!(next, version);
            version = next;
            hub.aggregate(RealmKind::Jobs, Period::Month).unwrap();
            assert_eq!(retained(), entries);
        }
    }

    #[test]
    fn federated_query_folds_only_what_replicated_since() {
        let hub = hub_with_two_satellites();
        let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
        let count = |name: &str| hub.telemetry().snapshot().counter_total(name);
        let total = || {
            hub.federated_query(RealmKind::Jobs, &q)
                .unwrap()
                .scalar_f64("total")
        };
        assert_eq!(total(), Some(30.0));
        let (hits, misses) = (
            count("warehouse_aggcache_hits_total"),
            count("warehouse_aggcache_misses_total"),
        );
        let folded = count("warehouse_delta_folded_records_total");

        // A repeat folds nothing: each satellite's pass is a hit.
        assert_eq!(total(), Some(30.0));
        assert_eq!(count("warehouse_aggcache_hits_total"), hits + 2);
        assert_eq!(count("warehouse_aggcache_misses_total"), misses);
        assert_eq!(count("warehouse_delta_folded_records_total"), folded);

        // One replicated row on x: x folds exactly that row, y still hits.
        hub.database()
            .write()
            .insert(
                &FederationHub::schema_for("x"),
                "jobfact",
                vec![vec![Value::Str("res-x".into()), Value::Float(5.0)]],
            )
            .unwrap();
        assert_eq!(total(), Some(35.0));
        assert_eq!(count("warehouse_aggcache_hits_total"), hits + 3);
        assert_eq!(count("warehouse_aggcache_misses_total"), misses + 1);
        assert_eq!(count("warehouse_delta_folded_records_total"), folded + 1);
        assert_eq!(hub.federated_fact_rows(RealmKind::Jobs), 3);
    }

    #[test]
    fn result_version_moves_with_watermarks_and_differs_per_realm() {
        let hub = hub_with_two_satellites();
        let v1 = hub.result_version(RealmKind::Jobs);
        assert_eq!(hub.result_version(RealmKind::Jobs), v1); // stable at rest
        assert_ne!(hub.result_version(RealmKind::Storage), v1);
        // The stamp is a wire value (the gateway's ETag): pinned.
        assert_eq!(v1, 0x9536_1eef_fbb4_c6b2);
        assert_eq!(
            hub.result_version(RealmKind::Storage),
            0x0bdf_f8bc_89a7_ef4d
        );

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
