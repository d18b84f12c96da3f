//! A satellite XDMoD instance.
//!
//! One [`XdmodInstance`] is the paper's unit of deployment: a warehouse
//! database, the realm fact tables, ingestion pipelines for its monitored
//! resources, an aggregation configuration (including instance-local
//! aggregation levels, Table I), an SU converter, and an authentication
//! front door. "Users logging into a satellite XDMoD instance have access
//! to the standard functionality for all metrics on associated
//! resources" (§II-B) — the instance is fully functional standalone;
//! federation is additive.

use crate::version::XdmodVersion;
use std::sync::Arc;
use xdmod_auth::{AuthMode, InstanceAuth};
use xdmod_ingest::{cloud, pcp, slurm, storage_json, IngestReport};
use xdmod_realms::levels::AggregationLevelsConfig;
use xdmod_realms::{cloud as cloud_realm, jobs, storage, su::SuConverter, supremm, RealmKind};
use xdmod_telemetry::MetricsRegistry;
use xdmod_warehouse::{shared, Database, Query, Result, ResultSet, SharedDatabase, WarehouseError};

/// A complete satellite XDMoD installation.
pub struct XdmodInstance {
    name: String,
    version: XdmodVersion,
    db: SharedDatabase,
    levels: AggregationLevelsConfig,
    su: SuConverter,
    auth: InstanceAuth,
    telemetry: MetricsRegistry,
}

impl XdmodInstance {
    /// Stand up an instance: creates the instance schema and all four
    /// realms' tables.
    pub fn new(name: &str) -> Self {
        Self::with_version(name, XdmodVersion::CURRENT)
    }

    /// Stand up an instance at a specific XDMoD version (for testing the
    /// federation version gate).
    pub fn with_version(name: &str, version: XdmodVersion) -> Self {
        let mut db = Database::new();
        let schema = Self::schema_name_of(name);
        db.create_schema(&schema).expect("fresh database"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        db.create_table(&schema, jobs::fact_schema())
            .expect("fresh schema"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        db.create_table(&schema, supremm::fact_schema())
            .expect("fresh schema"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        db.create_table(&schema, supremm::timeseries_schema())
            .expect("fresh schema"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        db.create_table(&schema, supremm::jobscript_schema())
            .expect("fresh schema"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        db.create_table(&schema, storage::fact_schema())
            .expect("fresh schema"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        db.create_table(&schema, cloud_realm::fact_schema())
            .expect("fresh schema"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        db.create_table(&schema, cloud_realm::reservation_schema())
            .expect("fresh schema"); // xc-allow: fresh in-memory database, schema cannot pre-exist
        XdmodInstance {
            name: name.to_owned(),
            version,
            db: shared(db),
            levels: AggregationLevelsConfig::new(),
            su: SuConverter::new(),
            auth: InstanceAuth::new(name, AuthMode::ServiceProvider, false),
            // Satellites are born dark: metrics cost nothing until an
            // operator attaches a registry (their own, or the hub's for a
            // federation-wide view) via `set_telemetry`.
            telemetry: MetricsRegistry::disabled(),
        }
    }

    /// This instance's metrics registry (disabled unless attached).
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// Attach a metrics registry: ingest counters and warehouse timings
    /// report there. Attaching the hub's registry yields a single
    /// federation-wide view; satellite metrics stay distinguishable by
    /// label.
    pub fn set_telemetry(&mut self, telemetry: MetricsRegistry) {
        self.db.write().set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Running XDMoD version.
    pub fn version(&self) -> XdmodVersion {
        self.version
    }

    /// The warehouse schema holding this instance's realm tables.
    pub fn schema_name(&self) -> String {
        Self::schema_name_of(&self.name)
    }

    /// Schema naming convention: `xdmod_<instance>`.
    pub fn schema_name_of(name: &str) -> String {
        format!("xdmod_{}", name.replace(['-', '.'], "_"))
    }

    /// Shared handle to the instance database (what replication links
    /// tail).
    pub fn database(&self) -> SharedDatabase {
        Arc::clone(&self.db)
    }

    /// The instance's aggregation-levels configuration.
    pub fn levels(&self) -> &AggregationLevelsConfig {
        &self.levels
    }

    /// Replace the aggregation-levels configuration. Call
    /// [`aggregate`](Self::aggregate) afterwards to re-bin — the paper's
    /// "update the appropriate configuration file ... then re-aggregate"
    /// procedure.
    pub fn set_levels(&mut self, levels: AggregationLevelsConfig) {
        self.levels = levels;
    }

    /// The instance's SU converter.
    pub fn su_converter(&self) -> &SuConverter {
        &self.su
    }

    /// Register a resource's HPL-derived XD SU conversion factor.
    pub fn set_su_factor(&mut self, resource: &str, factor: f64) {
        self.su.set_factor(resource, factor);
    }

    /// The authentication front door.
    pub fn auth(&self) -> &InstanceAuth {
        &self.auth
    }

    /// Mutable access to the authentication front door.
    pub fn auth_mut(&mut self) -> &mut InstanceAuth {
        &mut self.auth
    }

    // ------------------------------------------------------------------
    // Ingestion
    // ------------------------------------------------------------------

    /// Ingest a SLURM `sacct` log for `resource` into the Jobs realm.
    pub fn ingest_sacct(&mut self, resource: &str, log: &str) -> Result<IngestReport> {
        let (rows, report) = slurm::shred(log, resource, &self.su)
            .map_err(|e| WarehouseError::SchemaMismatch(format!("sacct parse: {e}")))?;
        let schema = self.schema_name();
        self.db.write().insert(&schema, jobs::FACT_TABLE, rows)?;
        report.record_telemetry(&self.telemetry, "sacct");
        Ok(report)
    }

    /// Ingest a PCP-style performance archive into the SUPReMM realm
    /// (summary facts + per-job timeseries + job scripts).
    pub fn ingest_pcp(&mut self, archive: &str) -> Result<IngestReport> {
        let (jobs, report) = pcp::parse_archive(archive)
            .map_err(|e| WarehouseError::SchemaMismatch(format!("pcp parse: {e}")))?;
        let schema = self.schema_name();
        let mut db = self.db.write();
        db.insert(
            &schema,
            supremm::FACT_TABLE,
            jobs.iter().map(pcp::SupremmJob::fact_row).collect(),
        )?;
        db.insert(
            &schema,
            supremm::TIMESERIES_TABLE,
            jobs.iter()
                .flat_map(pcp::SupremmJob::timeseries_rows)
                .collect(),
        )?;
        db.insert(
            &schema,
            supremm::JOBSCRIPT_TABLE,
            jobs.iter().map(pcp::SupremmJob::script_row).collect(),
        )?;
        drop(db);
        report.record_telemetry(&self.telemetry, "pcp");
        Ok(report)
    }

    /// Ingest a validated storage JSON document into the Storage realm.
    pub fn ingest_storage_json(&mut self, document: &str) -> Result<IngestReport> {
        let (rows, report) = storage_json::shred(document)
            .map_err(|e| WarehouseError::SchemaMismatch(format!("storage json: {e}")))?;
        let schema = self.schema_name();
        self.db.write().insert(&schema, storage::FACT_TABLE, rows)?;
        report.record_telemetry(&self.telemetry, "storage_json");
        Ok(report)
    }

    /// Ingest a cloud lifecycle event feed into the Cloud realm,
    /// sessionizing up to the `as_of` horizon.
    pub fn ingest_cloud_feed(&mut self, feed: &str, as_of: i64) -> Result<IngestReport> {
        let (rows, report) = cloud::shred(feed, as_of)
            .map_err(|e| WarehouseError::SchemaMismatch(format!("cloud feed: {e}")))?;
        let schema = self.schema_name();
        self.db
            .write()
            .insert(&schema, cloud_realm::FACT_TABLE, rows)?;
        report.record_telemetry(&self.telemetry, "cloud");
        Ok(report)
    }

    /// Ingest a VM reservation (purchased capacity) feed — the Cloud
    /// realm's payment information (§III-B future release, implemented).
    pub fn ingest_cloud_reservations(&mut self, feed: &str) -> Result<IngestReport> {
        let (rows, report) = cloud::shred_reservations(feed)
            .map_err(|e| WarehouseError::SchemaMismatch(format!("reservation feed: {e}")))?;
        let schema = self.schema_name();
        self.db
            .write()
            .insert(&schema, cloud_realm::RESERVATION_TABLE, rows)?;
        report.record_telemetry(&self.telemetry, "cloud_reservations");
        Ok(report)
    }

    /// Run a query against the Cloud realm's reservation table.
    pub fn query_reservations(&self, query: &Query) -> Result<ResultSet> {
        self.db
            .read()
            .query(&self.schema_name(), cloud_realm::RESERVATION_TABLE, query)
    }

    // ------------------------------------------------------------------
    // Aggregation and query
    // ------------------------------------------------------------------

    /// Run the aggregation pipelines — the paper's daily "aggregation
    /// processes run against newly ingested data" — materializing
    /// `{fact}_by_{period}` tables for every realm under this instance's
    /// aggregation levels.
    pub fn aggregate(&self) -> Result<()> {
        let schema = self.schema_name();
        let specs = [
            jobs::aggregation_spec(&self.levels),
            supremm::aggregation_spec(),
            // The monthly summary pipeline — small enough to federate "in
            // a subsequent release" (§II-C5); satellites always build it.
            supremm::summary_spec(),
            storage::aggregation_spec(),
            cloud_realm::aggregation_spec(&self.levels),
        ];
        let mut db = self.db.write();
        for spec in specs {
            spec.materialize(&mut db, &schema)?;
        }
        Ok(())
    }

    /// Fact-table name of a realm.
    pub fn fact_table(realm: RealmKind) -> &'static str {
        match realm {
            RealmKind::Jobs => jobs::FACT_TABLE,
            RealmKind::Supremm => supremm::FACT_TABLE,
            RealmKind::Storage => storage::FACT_TABLE,
            RealmKind::Cloud => cloud_realm::FACT_TABLE,
        }
    }

    /// Run a query against one realm's fact table, timed under
    /// `warehouse_query_seconds{table=..}` when telemetry is attached.
    ///
    /// Served from the warehouse's retained partials: chart/explorer
    /// repeats with no intervening ingest are a hit, and after ingest only
    /// the new binlog records are folded.
    pub fn query(&self, realm: RealmKind, query: &Query) -> Result<ResultSet> {
        self.db
            .read()
            .query(&self.schema_name(), Self::fact_table(realm), query)
    }

    /// Rebuild this instance's database from a federation-hub dump — the
    /// backup/regeneration use case (§II-E4). The previous contents are
    /// discarded (binlog epoch rotates), the dump is applied, and any
    /// realm tables the federation filter had excluded from replication
    /// are recreated empty so the instance stays fully functional.
    pub fn restore_from_dump(&mut self, dump: &[u8]) -> Result<()> {
        let snapshot = xdmod_warehouse::Snapshot::from_bytes(dump)?;
        let schema = self.schema_name();
        if !snapshot.has_schema(&schema) {
            return Err(WarehouseError::Snapshot(format!(
                "dump does not contain schema {schema}"
            )));
        }
        let mut db = self.db.write();
        db.reset_for_restore()?;
        snapshot.apply(&mut db)?;
        for def in [
            jobs::fact_schema(),
            supremm::fact_schema(),
            supremm::timeseries_schema(),
            supremm::jobscript_schema(),
            storage::fact_schema(),
            cloud_realm::fact_schema(),
            cloud_realm::reservation_schema(),
        ] {
            db.ensure_table(&schema, def)?;
        }
        Ok(())
    }

    /// Rows currently in a realm's fact table (diagnostics).
    pub fn fact_rows(&self, realm: RealmKind) -> Result<usize> {
        let db = self.db.read();
        Ok(db
            .table(&self.schema_name(), Self::fact_table(realm))?
            .len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_realms::levels::{instance_a_walltime, DIM_WALL_TIME};
    use xdmod_warehouse::{AggFn, Aggregate};

    const SACCT: &str = "\
JobID|User|Account|Partition|NNodes|NCPUS|Submit|Start|End|State|AllocGPUs
1|alice|phys|normal|1|24|2017-01-05T08:00:00|2017-01-05T09:00:00|2017-01-05T11:00:00|COMPLETED|0
2|bob|chem|normal|2|48|2017-02-01T00:00:00|2017-02-01T01:00:00|2017-02-01T05:00:00|COMPLETED|0
";

    #[test]
    fn fresh_instance_has_all_realm_tables() {
        let inst = XdmodInstance::new("ccr");
        let db = inst.database();
        let db = db.read();
        let tables = db.table_names(&inst.schema_name()).unwrap();
        for t in [
            "jobfact",
            "supremm_jobfact",
            "supremm_timeseries",
            "supremm_jobscript",
            "storagefact",
            "cloudfact",
        ] {
            assert!(tables.contains(&t), "missing {t}");
        }
    }

    #[test]
    fn schema_name_sanitizes_punctuation() {
        assert_eq!(
            XdmodInstance::schema_name_of("ccr-xdmod.buffalo"),
            "xdmod_ccr_xdmod_buffalo"
        );
    }

    #[test]
    fn ingest_sacct_applies_su_conversion() {
        let mut inst = XdmodInstance::new("ccr");
        inst.set_su_factor("rush", 2.0);
        let report = inst.ingest_sacct("rush", SACCT).unwrap();
        assert_eq!(report.ingested, 2);
        let rs = inst
            .query(
                RealmKind::Jobs,
                &Query::new().aggregate(Aggregate::of(AggFn::Sum, "su_charged", "total_su")),
            )
            .unwrap();
        // job1: 24 cores × 2h × 2.0 = 96; job2: 48 × 4 × 2.0 = 384.
        assert_eq!(rs.scalar_f64("total_su"), Some(480.0));
    }

    #[test]
    fn aggregate_materializes_period_tables() {
        let mut inst = XdmodInstance::new("ccr");
        inst.ingest_sacct("rush", SACCT).unwrap();
        let mut levels = AggregationLevelsConfig::new();
        levels.set(DIM_WALL_TIME, instance_a_walltime());
        inst.set_levels(levels);
        inst.aggregate().unwrap();
        let db = inst.database();
        let db = db.read();
        let t = db.table(&inst.schema_name(), "jobfact_by_month").unwrap();
        assert_eq!(t.len(), 2); // one row per month
                                // Wall-time bin column present because levels were configured.
        assert!(t.schema().column_index("wall_hours_bin").is_ok());
    }

    #[test]
    fn reaggregation_after_level_change_rebins() {
        let mut inst = XdmodInstance::new("ccr");
        inst.ingest_sacct("rush", SACCT).unwrap();
        inst.aggregate().unwrap(); // no levels: no bin column
        {
            let db = inst.database();
            let db = db.read();
            let t = db.table(&inst.schema_name(), "jobfact_by_month").unwrap();
            assert!(t.schema().column_index("wall_hours_bin").is_err());
        }
        // Administrator updates the config file, then re-aggregates. The
        // aggregate layout changes, so the old tables must be dropped —
        // our warehouse refuses a silent layout change.
        let mut levels = AggregationLevelsConfig::new();
        levels.set(DIM_WALL_TIME, instance_a_walltime());
        inst.set_levels(levels);
        assert!(inst.aggregate().is_err());
    }

    #[test]
    fn ingest_pcp_populates_three_tables() {
        let mut inst = XdmodInstance::new("ccr");
        let archive =
            "job 1 rush alice 1483700000\nts 1483690000 cpu_user 0.9\nscript #!/bin/sh\nend\n";
        inst.ingest_pcp(archive).unwrap();
        let db = inst.database();
        let db = db.read();
        let schema = inst.schema_name();
        assert_eq!(db.table(&schema, "supremm_jobfact").unwrap().len(), 1);
        assert_eq!(db.table(&schema, "supremm_timeseries").unwrap().len(), 1);
        assert_eq!(db.table(&schema, "supremm_jobscript").unwrap().len(), 1);
    }

    #[test]
    fn parse_errors_surface_with_context() {
        let mut inst = XdmodInstance::new("ccr");
        let err = inst.ingest_sacct("rush", "JobID|nope\n").unwrap_err();
        assert!(err.to_string().contains("sacct"));
        let err = inst.ingest_storage_json("[{}]").unwrap_err();
        assert!(err.to_string().contains("storage json"));
        let err = inst.ingest_cloud_feed("bogus,line\n", 0).unwrap_err();
        assert!(err.to_string().contains("cloud feed"));
    }

    #[test]
    fn attached_telemetry_sees_ingest_and_queries() {
        let mut inst = XdmodInstance::new("ccr");
        assert!(!inst.telemetry().is_enabled());
        let reg = MetricsRegistry::new();
        inst.set_telemetry(reg.clone());
        inst.ingest_sacct("rush", SACCT).unwrap();
        inst.query(
            RealmKind::Jobs,
            &Query::new().aggregate(Aggregate::count("n")),
        )
        .unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("ingest_records_total", &[("format", "sacct")]),
            Some(2)
        );
        assert!(snap
            .histogram("warehouse_query_seconds", &[("table", "jobfact")])
            .is_some());
        // The ingest insert hit the binlog through the attached registry.
        assert!(snap.counter_total("warehouse_binlog_appends_total") > 0);
    }

    #[test]
    fn query_unknown_realm_table_is_error_free_but_empty_realms_query_fine() {
        let inst = XdmodInstance::new("ccr");
        let rs = inst
            .query(
                RealmKind::Cloud,
                &Query::new().aggregate(Aggregate::count("n")),
            )
            .unwrap();
        assert_eq!(rs.scalar_f64("n"), Some(0.0));
        assert_eq!(inst.fact_rows(RealmKind::Jobs).unwrap(), 0);
    }
}
