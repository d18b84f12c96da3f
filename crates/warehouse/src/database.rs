//! The warehouse database: named schemas of tables plus a binary log.
//!
//! One [`Database`] models one XDMoD instance's MySQL server. Satellite
//! instances keep their realm tables in a schema named after the instance;
//! the federation hub holds *one schema per satellite* (the Tungsten
//! rename-on-transfer pattern, §II-C1) plus its own aggregate schemas.

use crate::binlog::{Binlog, BinlogEvent, EventPayload, LogPosition, TailRepair};
use crate::delta::{
    CacheKey, DeltaEntry, DeltaFoldCache, DeltaOutcome, DeltaReport, FallbackReason, RebuildTicket,
};
use crate::error::{Result, WarehouseError};
use crate::parallel::{PoolConfig, ShardedPartials};
use crate::persist::Snapshot;
use crate::query::{Query, ResultSet};
use crate::resident::{PagingConfig, ResidencyManager, ResidencyStats};
use crate::schema::TableSchema;
use crate::storage::{CompactionReport, MemoryBackend, Recovery, StorageBackend};
use crate::table::Table;
use crate::value::Row;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use xdmod_chaos::{FaultInjector, FaultKind, FaultPoint};
use xdmod_telemetry::MetricsRegistry;

/// A database: an ordered map of schemas, each an ordered map of tables,
/// with every mutation recorded in an embedded binlog.
///
/// Durability is delegated to a pluggable [`StorageBackend`] with strict
/// **write-ahead ordering**: every mutator frames its binlog record, hands
/// it to the backend ([`StorageBackend::append`]), and only then admits it
/// to the in-memory log and mutates tables. A crash between the durable
/// append and the in-memory admit loses nothing (recovery replays the
/// frame); a failed append changes nothing.
#[derive(Debug)]
pub struct Database {
    schemas: BTreeMap<String, BTreeMap<String, Table>>,
    binlog: Binlog,
    /// Durability backend. [`MemoryBackend`] (the default) makes every
    /// call a no-op — the historical pure in-memory behaviour.
    backend: Box<dyn StorageBackend>,
    /// Auto-snapshot policy: write a snapshot (and compact) after this
    /// many records since the last snapshot. `None` disables.
    snapshot_every: Option<u64>,
    /// Seqno covered by the most recent snapshot this epoch.
    last_snapshot_seqno: u64,
    /// Disabled by default; [`Database::set_telemetry`] attaches a live
    /// registry (the hub/instance hands its own down at construction).
    telemetry: MetricsRegistry,
    /// Chaos fault injector plus the target label it is consulted under.
    /// `None` (the default) costs one branch per consultation point.
    chaos: Option<(FaultInjector, String)>,
    /// Position of the last binlog record that mutated each table —
    /// the per-table cache-invalidation watermark. Granular so aggregate
    /// rebuilds (which write *other* tables) don't invalidate retained
    /// results over untouched fact tables.
    watermarks: BTreeMap<(String, String), LogPosition>,
    /// Bumped by [`Database::note_external_rebuild`] when table contents
    /// are rewritten outside normal DML accounting (replication resync,
    /// restore). Part of every [`RebuildTicket`].
    rebuild_generation: u64,
    /// Worker/shard sizing for the partitioned aggregation engine.
    pool: PoolConfig,
    /// The one cache: retained per-shard partials and the result
    /// finalized from them, keyed by (schema, fact table, query
    /// fingerprint) with a per-entry binlog cursor
    /// ([`Database::query_reported`]).
    delta: DeltaFoldCache,
    /// Cold-shard paging runtime ([`Database::enable_paging`]): `None`
    /// keeps every table fully resident (the historical behaviour).
    paging: Option<PagingRuntime>,
}

/// Live paging state: the shared residency manager plus the config it
/// was built from (kept so [`Database::repair_paging`] can re-enable
/// paging identically after a WAL rebuild).
struct PagingRuntime {
    manager: Arc<ResidencyManager>,
    config: PagingConfig,
}

impl std::fmt::Debug for PagingRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagingRuntime")
            .field("config", &self.config)
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Database {
            schemas: BTreeMap::new(),
            binlog: Binlog::default(),
            backend: Box::new(MemoryBackend::new()),
            snapshot_every: None,
            last_snapshot_seqno: 0,
            telemetry: MetricsRegistry::default(),
            chaos: None,
            watermarks: BTreeMap::new(),
            rebuild_generation: 0,
            pool: PoolConfig::default(),
            delta: DeltaFoldCache::default(),
            paging: None,
        }
    }
}

impl Database {
    /// Empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Open a database on a durability backend, running crash recovery.
    ///
    /// The backend scans its durable state ([`StorageBackend::recover`]),
    /// truncating torn or corrupt tails rather than refusing to start; the
    /// surviving snapshot (if any) is restored and the validated binlog
    /// tail is replayed into tables. For a fresh backend this yields an
    /// empty database ready for writes.
    pub fn open(backend: Box<dyn StorageBackend>) -> Result<Database> {
        Database::open_with_telemetry(backend, MetricsRegistry::default())
    }

    /// [`Database::open`] with a live metrics registry attached *before*
    /// recovery, so `warehouse_recovery_ms` and the truncation counters
    /// observe the recovery itself.
    pub fn open_with_telemetry(
        mut backend: Box<dyn StorageBackend>,
        telemetry: MetricsRegistry,
    ) -> Result<Database> {
        let started = Instant::now();
        let rec = backend.recover()?;
        let mut db = Database {
            backend,
            telemetry,
            ..Database::default()
        };
        db.finish_recovery(rec, started)?;
        Ok(db)
    }

    /// Restore recovered durable state into this (empty) database: the
    /// snapshot's events, then the validated binlog tail's, through the
    /// one replay path ([`Database::apply_unlogged`]); then telemetry.
    fn finish_recovery(&mut self, rec: Recovery, started: Instant) -> Result<()> {
        let mut snapshot_pos = None;
        if let Some((pos, body)) = &rec.snapshot {
            // Snapshot contents sit *below* the recovered log's base
            // seqno: every event replays at the snapshot's own position,
            // its tables' watermark (conservative for cache invalidation).
            for payload in Snapshot::from_bytes(body)?.events() {
                self.apply_unlogged(payload?, *pos)?;
            }
            snapshot_pos = Some(*pos);
            self.last_snapshot_seqno = pos.seqno;
        }
        self.binlog
            .restore_frames(rec.epoch, rec.base_seqno, rec.tail)?;
        let replay_from = LogPosition {
            epoch: rec.epoch,
            seqno: rec.base_seqno,
        };
        let events = self.binlog.read_after(replay_from)?;
        let replayed = events.len();
        for ev in events {
            self.apply_unlogged(ev.payload, ev.position)?;
        }
        if self.telemetry.is_enabled() {
            let ms = started.elapsed().as_secs_f64() * 1e3;
            self.telemetry
                .histogram("warehouse_recovery_ms", &[])
                .observe(ms);
            if rec.truncated_records > 0 {
                self.telemetry
                    .counter("warehouse_recovery_truncated_records_total", &[])
                    .add(rec.truncated_records);
            }
            self.telemetry.event_with(
                "warehouse.recovered",
                &format!(
                    "recovered epoch {} to seqno {} ({} backend): snapshot at {}, {} tail records, {} truncated",
                    rec.epoch,
                    self.binlog.position().seqno,
                    self.backend.name(),
                    snapshot_pos.map_or_else(|| "none".to_owned(), |p| p.to_string()),
                    replayed,
                    rec.truncated_records,
                ),
                &[
                    ("tail_records", replayed as f64),
                    ("truncated_records", rec.truncated_records as f64),
                    ("truncated_bytes", rec.truncated_bytes as f64),
                    ("corrupt_snapshots", rec.corrupt_snapshots as f64),
                    ("segments_scanned", rec.segments_scanned as f64),
                ],
            );
        }
        Ok(())
    }

    /// Apply the record at `pos` to tables *without* logging it — the
    /// one place a mutation lands. The live mutators call it once their
    /// record is durable ([`Database::commit`]); recovery calls it for
    /// every snapshot and tail event (already logged, or below the log's
    /// base). Unknown tables are an error: mutators validate first, and a
    /// snapshot or a contiguous tail creates before it inserts.
    fn apply_unlogged(&mut self, payload: EventPayload, pos: LogPosition) -> Result<()> {
        match payload {
            EventPayload::CreateSchema { schema } => {
                self.schemas.entry(schema).or_default();
            }
            EventPayload::CreateTable { schema, def } => {
                let name = def.name.clone();
                if self.table(&schema, &name).is_err() {
                    let mut table = Table::new(def);
                    if let Some(p) = &self.paging {
                        table.enable_paging(&p.manager, p.config.pages_per_table);
                    }
                    let tables = self.schemas.entry(schema.clone()).or_default();
                    tables.insert(name.clone(), table);
                }
                self.watermarks.insert((schema, name), pos);
            }
            EventPayload::InsertBatch {
                schema,
                table,
                rows,
            } => {
                self.table_mut(&schema, &table)?.insert_checked(rows);
                self.watermarks.insert((schema, table), pos);
            }
            EventPayload::Truncate { schema, table } => {
                self.table_mut(&schema, &table)?.truncate();
                self.watermarks.insert((schema, table), pos);
            }
        }
        Ok(())
    }

    /// Attach a metrics registry. All binlog/query instrumentation becomes
    /// live; with the default (disabled) registry it costs one branch.
    pub fn set_telemetry(&mut self, telemetry: MetricsRegistry) {
        if let Some(p) = &self.paging {
            p.manager.set_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// The registry this database reports into (disabled unless
    /// [`Database::set_telemetry`] was called).
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// Attach a chaos fault injector, consulted on binlog reads
    /// ([`FaultPoint::BinlogRead`]) and replicated-event applies
    /// ([`FaultPoint::Apply`]) under `target` (conventionally the
    /// replication link name). The injector is also forwarded to the
    /// storage backend, which consults it at the disk-layer points
    /// ([`FaultPoint::SegmentAppend`], [`FaultPoint::SnapshotWrite`]).
    /// This is the chaos-harness wiring; production databases leave it
    /// unset and pay one branch.
    pub fn set_fault_injector(&mut self, injector: FaultInjector, target: impl Into<String>) {
        let target = target.into();
        self.backend.set_chaos(injector.clone(), target.clone());
        if let Some(p) = &self.paging {
            p.manager.set_chaos(injector.clone(), target.clone());
        }
        self.chaos = Some((injector, target));
    }

    /// Detach any chaos fault injector (warehouse and backend layers).
    pub fn clear_fault_injector(&mut self) {
        self.chaos = None;
        self.backend.clear_chaos();
        if let Some(p) = &self.paging {
            p.manager.clear_chaos();
        }
    }

    /// Consult the chaos injector (if any) at a fault point. Stalls are
    /// served in place; every error kind surfaces as a transient
    /// [`WarehouseError::Io`]. Physical binlog damage kinds are executed
    /// by the replication transport, which holds write access to the
    /// source database — if one reaches a warehouse consultation point
    /// it degrades to a transient I/O failure as well.
    fn injected_fault(&self, point: FaultPoint) -> Result<()> {
        let Some((injector, target)) = &self.chaos else {
            return Ok(());
        };
        match injector.next_fault(point, target) {
            None => Ok(()),
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                Ok(())
            }
            Some(kind) => Err(WarehouseError::Io(format!(
                "injected {kind} at {point} ({target})"
            ))),
        }
    }

    /// Write-ahead commit of an already-validated mutation: frame the
    /// record, make it durable through the storage backend, admit it to
    /// the in-memory binlog, and only then apply it to tables. On `Err`
    /// from the append nothing changed anywhere.
    fn commit(&mut self, payload: EventPayload) -> Result<LogPosition> {
        let (pos, frame) = self.binlog.encode_next(&payload);
        self.backend.append(pos, &frame)?;
        let framed_bytes = frame.len() as u64;
        self.binlog.push_frame(&frame);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("warehouse_binlog_appends_total", &[])
                .inc();
            self.telemetry
                .counter("warehouse_binlog_bytes_total", &[])
                .add(framed_bytes);
        }
        self.apply_unlogged(payload, pos)?;
        Ok(pos)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a schema (namespace). Errors if it already exists.
    pub fn create_schema(&mut self, name: &str) -> Result<LogPosition> {
        if self.schemas.contains_key(name) {
            return Err(WarehouseError::AlreadyExists(format!("schema {name}")));
        }
        self.commit(EventPayload::CreateSchema {
            schema: name.to_owned(),
        })
    }

    /// Create a schema if absent; no-op (and no binlog record) otherwise.
    pub fn ensure_schema(&mut self, name: &str) -> Result<()> {
        if !self.schemas.contains_key(name) {
            self.create_schema(name)?;
        }
        Ok(())
    }

    /// Create a table. Errors if the schema is missing or the table exists.
    pub fn create_table(&mut self, schema: &str, def: TableSchema) -> Result<LogPosition> {
        let tables = self
            .schemas
            .get(schema)
            .ok_or_else(|| WarehouseError::UnknownSchema(schema.to_owned()))?;
        if tables.contains_key(&def.name) {
            return Err(WarehouseError::AlreadyExists(format!(
                "table {schema}.{}",
                def.name
            )));
        }
        self.commit(EventPayload::CreateTable {
            schema: schema.to_owned(),
            def,
        })
    }

    /// Create a table if absent, verifying the definition matches when it
    /// already exists.
    pub fn ensure_table(&mut self, schema: &str, def: TableSchema) -> Result<()> {
        if let Ok(existing) = self.table(schema, &def.name) {
            if *existing.schema() != def {
                return Err(WarehouseError::SchemaMismatch(format!(
                    "table {schema}.{} exists with a different definition",
                    def.name
                )));
            }
            return Ok(());
        }
        self.create_table(schema, def)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    /// Insert a batch of rows, validating against the table schema. The
    /// batch is atomic: either all rows land (and one binlog record is
    /// written) or none do. Validation and coercion happen *before* the
    /// write-ahead append; the table is only mutated after the record is
    /// durable.
    pub fn insert(&mut self, schema: &str, table: &str, rows: Vec<Row>) -> Result<LogPosition> {
        if rows.is_empty() {
            // Nothing to do; return current position without logging an
            // empty batch.
            return Ok(self.binlog.position());
        }
        let rows = self.table(schema, table)?.check_batch(rows)?;
        let pos = self.commit(EventPayload::InsertBatch {
            schema: schema.to_owned(),
            table: table.to_owned(),
            rows,
        })?;
        self.maybe_snapshot();
        Ok(pos)
    }

    /// Delete all rows of a table (used when rebuilding aggregates).
    pub fn truncate(&mut self, schema: &str, table: &str) -> Result<LogPosition> {
        self.table(schema, table)?;
        let pos = self.commit(EventPayload::Truncate {
            schema: schema.to_owned(),
            table: table.to_owned(),
        })?;
        self.maybe_snapshot();
        Ok(pos)
    }

    /// Apply a replicated event to this database.
    ///
    /// This is the *apply* side of Tungsten-style replication: the event
    /// came from another database's binlog (possibly schema-renamed) and
    /// is re-executed here, which also re-logs it — enabling chained
    /// topologies (satellite → hub → backup hub, §II-C4).
    ///
    /// `CreateSchema`/`CreateTable` are idempotent on apply so a restarted
    /// replicator can safely replay from an older position.
    pub fn apply_event(&mut self, payload: EventPayload) -> Result<()> {
        self.injected_fault(FaultPoint::Apply)?;
        match payload {
            EventPayload::CreateSchema { schema } => {
                self.ensure_schema(&schema)?;
            }
            EventPayload::CreateTable { schema, def } => {
                self.ensure_schema(&schema)?;
                self.ensure_table(&schema, def)?;
            }
            EventPayload::InsertBatch {
                schema,
                table,
                rows,
            } => {
                self.insert(&schema, &table, rows)?;
            }
            EventPayload::Truncate { schema, table } => {
                self.truncate(&schema, &table)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Names of all schemas.
    pub fn schema_names(&self) -> Vec<&str> {
        self.schemas.keys().map(String::as_str).collect()
    }

    /// True if the schema exists.
    pub fn has_schema(&self, schema: &str) -> bool {
        self.schemas.contains_key(schema)
    }

    /// Names of all tables in a schema.
    pub fn table_names(&self, schema: &str) -> Result<Vec<&str>> {
        self.schemas
            .get(schema)
            .map(|t| t.keys().map(String::as_str).collect())
            .ok_or_else(|| WarehouseError::UnknownSchema(schema.to_owned()))
    }

    /// Describe every table in a schema: a point-in-time copy of the
    /// table definitions (names, column types, nullability), sorted by
    /// table name. This is the introspection surface the static
    /// pre-flight analyzer (`xdmod-check`) builds its federation model
    /// from — schema-drift and dangling-dimension checks compare these
    /// definitions across satellites without reading any rows.
    pub fn describe_schema(&self, schema: &str) -> Result<Vec<TableSchema>> {
        let tables = self
            .schemas
            .get(schema)
            .ok_or_else(|| WarehouseError::UnknownSchema(schema.to_owned()))?;
        // BTreeMap iteration: already name-sorted.
        Ok(tables.values().map(|t| t.schema().clone()).collect())
    }

    /// Borrow a table.
    pub fn table(&self, schema: &str, table: &str) -> Result<&Table> {
        self.schemas
            .get(schema)
            .ok_or_else(|| WarehouseError::UnknownSchema(schema.to_owned()))?
            .get(table)
            .ok_or_else(|| WarehouseError::UnknownTable {
                schema: schema.to_owned(),
                table: table.to_owned(),
            })
    }

    /// Answer `query` over `schema.table` — the one query entry.
    /// [`Database::query_reported`] under the table's own name, timed
    /// under `warehouse_query_seconds{table=..}` with the rows the pass
    /// actually folded counted in `warehouse_query_rows_scanned_total`.
    /// ([`Query::run`] on [`Database::table`] is the serial, untimed,
    /// stateless fold.)
    pub fn query(&self, schema: &str, table: &str, query: &Query) -> Result<ResultSet> {
        let span = self
            .telemetry
            .span("warehouse_query_seconds", &[("table", table)]);
        let answered = self.query_reported(schema, table, query, table);
        span.finish();
        let (result, report) = answered?;
        self.bump_counter(
            "warehouse_query_rows_scanned_total",
            ("table", table),
            report.rows_folded as u64,
        );
        Ok(result)
    }

    /// Configure the aggregation worker pool / shard partition.
    pub fn set_parallelism(&mut self, pool: PoolConfig) {
        self.pool = pool;
    }

    /// Current aggregation pool configuration.
    pub fn parallelism(&self) -> PoolConfig {
        self.pool
    }

    /// Position of the last binlog record that mutated this table, or
    /// `None` if it was never touched (or predates this epoch).
    pub fn table_watermark(&self, schema: &str, table: &str) -> Option<LogPosition> {
        self.watermarks
            .get(&(schema.to_owned(), table.to_owned()))
            .copied()
    }

    /// Current rebuild generation (see [`Database::note_external_rebuild`]).
    pub fn rebuild_generation(&self) -> u64 {
        self.rebuild_generation
    }

    /// Record that table contents were rewritten by an external actor
    /// (replication resync, restore): bumps the rebuild generation so
    /// every [`RebuildTicket`] issued before goes stale, and **drops every
    /// retained entry** — its partials were folded from pre-rewrite
    /// records and must never be served or advanced again. Also the way
    /// to force the next queries to rebuild from scratch. Returns the new
    /// generation.
    pub fn note_external_rebuild(&mut self) -> u64 {
        self.rebuild_generation += 1;
        let dropped = self.delta.clear();
        self.bump_counter(
            "warehouse_delta_fallback_rebuilds_total",
            ("reason", FallbackReason::ExternalRebuild.label()),
            dropped as u64,
        );
        self.rebuild_generation
    }

    /// Ticket capturing a table's current data version; what a retained
    /// entry is validated against.
    pub fn rebuild_ticket(&self, schema: &str, table: &str) -> RebuildTicket {
        RebuildTicket {
            watermark: self.table_watermark(schema, table),
            generation: self.rebuild_generation,
        }
    }

    // ------------------------------------------------------------------
    // The query path: hit, delta fold, or cold build
    // ------------------------------------------------------------------

    /// The retained query state (introspection: entry counts and
    /// cursors; tests prove cursors reset on resync through this).
    pub fn delta_cache(&self) -> &DeltaFoldCache {
        &self.delta
    }

    /// Add `n` to a one-label counter; nothing when `n` is zero or
    /// telemetry is off.
    fn bump_counter(&self, name: &str, label: (&str, &str), n: u64) {
        if n > 0 && self.telemetry.is_enabled() {
            self.telemetry.counter(name, &[label]).add(n);
        }
    }

    /// Run `f` on the retained entry for `key` if it already answers for
    /// the table as it stands ([`DeltaEntry::covers`]). `f` runs under
    /// the cache lock.
    pub(crate) fn with_current_entry<R>(
        &self,
        key: &CacheKey,
        f: impl FnOnce(&mut DeltaEntry) -> R,
    ) -> Option<R> {
        let ticket = self.rebuild_ticket(&key.schema, &key.table);
        let shards = self.pool.shards().max(1);
        self.delta
            .with_entry(key, |e| e.covers(ticket, shards).then(|| f(e)))
            .flatten()
    }

    /// Fold the binlog records that touched `key`'s table after `cursor`
    /// into `partials`, resolving the query once for the whole pass.
    /// `Ok(Err(reason))` when the delta cannot be folded and the state
    /// must be rebuilt; real log damage is not a fallback condition and
    /// surfaces as `Err`.
    fn fold_delta(
        &self,
        key: &CacheKey,
        query: &Query,
        table_schema: &TableSchema,
        cursor: LogPosition,
        partials: &mut ShardedPartials,
    ) -> Result<std::result::Result<(usize, usize), FallbackReason>> {
        let events = match self.binlog_for_table_after(cursor, &key.schema, &key.table) {
            Ok(events) => events,
            Err(WarehouseError::CompactedAway { .. }) => {
                return Ok(Err(FallbackReason::CompactedAway))
            }
            Err(WarehouseError::Io(_)) => return Ok(Err(FallbackReason::ReadError)),
            Err(e) => return Err(e),
        };
        let batches: Option<Vec<&Vec<Row>>> = events
            .iter()
            .map(|ev| match &ev.payload {
                EventPayload::InsertBatch { rows, .. } => Some(rows),
                // A truncate or re-create of the fact table is in the
                // delta: folded state cannot unfold removed rows.
                _ => None,
            })
            .collect();
        let Some(batches) = batches else {
            return Ok(Err(FallbackReason::FactRewrite));
        };
        let folded = batches.iter().map(|rows| rows.len()).sum();
        let dirty = partials.fold_batch(query, table_schema, batches.into_iter().flatten())?;
        Ok(Ok((folded, dirty)))
    }

    /// Answer `query` over `schema.table` from the retained partials for
    /// this (table, query) pair — a hit, a delta fold or a cold build —
    /// and say which way it went. The result is byte-identical to
    /// [`crate::parallel::run_sharded`] under the same pool geometry
    /// whenever float inputs are exactly representable: each shard folds
    /// the same rows and shards merge in ascending order either way.
    ///
    /// `label` attributes the telemetry this emits
    /// (`warehouse_aggcache_{hits,misses}_total{table=..}`,
    /// `warehouse_delta_{folds,folded_records,dirty_shards,cold_builds}_total{table=..}`
    /// and `warehouse_delta_fallback_rebuilds_total{reason=..}`).
    pub fn query_reported(
        &self,
        schema: &str,
        table: &str,
        query: &Query,
        label: &str,
    ) -> Result<(ResultSet, DeltaReport)> {
        let layout = self.table(schema, table)?.schema();
        // `retained` bumps the cache and delta counters under `label`.
        let (result, report) =
            self.retained(schema, table, query, label, |e| e.result(query, layout))?;
        Ok((result?, report))
    }

    /// The retained per-shard partials behind `query` over
    /// `schema.table`, brought up to date by the same hit / delta fold /
    /// cold build as [`Database::query_reported`] (counted under the
    /// table's own name) and left retained for the next pass. Merging
    /// several tables' partials with [`ShardedPartials::finish_all`]
    /// answers the query over their union without copying a row. A hit
    /// hands out the retained partials themselves, and a miss finalizes
    /// nothing.
    pub fn partials(
        &self,
        schema: &str,
        table: &str,
        query: &Query,
    ) -> Result<Arc<ShardedPartials>> {
        Ok(self
            .retained(schema, table, query, table, |e| Arc::clone(&e.partials))?
            .0)
    }

    /// The one retained-entry step: bring the entry for this (table,
    /// query) pair up to date and `read` it.
    ///
    /// - **hit** — the table has not been mutated since the entry's
    ///   cursor (same generation, same shard count): `read` runs on the
    ///   entry in place, so concurrent identical readers all hit.
    ///   Reported as an incremental pass of zero rows.
    /// - **delta fold** — after ingest, only the binlog records appended
    ///   since the cursor are folded into their day-bucket shards.
    /// - **cold build** — nothing retained, or the retained state cannot
    ///   be trusted: the rebuild generation moved (resync/restore),
    ///   snapshot compaction outran the cursor
    ///   ([`WarehouseError::CompactedAway`]), the fact table itself was
    ///   truncated or re-created, the shard geometry changed, or the
    ///   delta read failed transiently. [`ShardedPartials::build`] folds
    ///   the live table (page by page when it is paged).
    ///
    /// On a hit `read` runs under the cache lock, so it must not reach
    /// for another lock; on a miss it runs before the entry is stored.
    fn retained<R>(
        &self,
        schema: &str,
        table: &str,
        query: &Query,
        label: &str,
        mut read: impl FnMut(&mut DeltaEntry) -> R,
    ) -> Result<(R, DeltaReport)> {
        let t = self.table(schema, table)?;
        let key = CacheKey::of(schema, table, query);
        let by_table = ("table", label);
        if let Some(out) = self.with_current_entry(&key, &mut read) {
            self.bump_counter("warehouse_aggcache_hits_total", by_table, 1);
            let quiet = DeltaReport {
                outcome: DeltaOutcome::Incremental,
                rows_folded: 0,
                dirty_shards: 0,
            };
            return Ok((out, quiet));
        }
        self.bump_counter("warehouse_aggcache_misses_total", by_table, 1);

        let head = self.binlog.position();
        let generation = self.rebuild_generation;
        let shards_now = self.pool.shards().max(1);
        let mut advanced = None;
        let mut fallback = None;
        match self.delta.take(&key) {
            Some(e) if e.generation != generation => {
                fallback = Some(FallbackReason::ExternalRebuild);
            }
            Some(e) if e.partials.shard_count() != shards_now => {
                fallback = Some(FallbackReason::Resharded);
            }
            Some(mut e) => {
                let partials = Arc::make_mut(&mut e.partials);
                match self.fold_delta(&key, query, t.schema(), e.cursor, partials)? {
                    Ok(counts) => advanced = Some((e.partials, counts)),
                    Err(reason) => fallback = Some(reason),
                }
            }
            None => {}
        }

        let (partials, report) = match advanced {
            Some((partials, (rows_folded, dirty_shards))) => {
                self.bump_counter("warehouse_delta_folds_total", by_table, 1);
                self.bump_counter(
                    "warehouse_delta_folded_records_total",
                    by_table,
                    rows_folded as u64,
                );
                self.bump_counter(
                    "warehouse_delta_dirty_shards_total",
                    by_table,
                    dirty_shards as u64,
                );
                let report = DeltaReport {
                    outcome: DeltaOutcome::Incremental,
                    rows_folded,
                    dirty_shards,
                };
                (partials, report)
            }
            None => {
                let partials = ShardedPartials::build(query, t, self.pool, &self.telemetry, label)?;
                let partials = Arc::new(partials);
                self.bump_counter("warehouse_delta_cold_builds_total", by_table, 1);
                if let Some(reason) = fallback {
                    self.bump_counter(
                        "warehouse_delta_fallback_rebuilds_total",
                        ("reason", reason.label()),
                        1,
                    );
                }
                let report = DeltaReport {
                    outcome: fallback.map_or(DeltaOutcome::Cold, DeltaOutcome::Fallback),
                    rows_folded: t.len(),
                    dirty_shards: shards_now,
                };
                (partials, report)
            }
        };
        let mut entry = DeltaEntry {
            cursor: head,
            generation,
            partials,
            result: None,
            installed_as: None,
        };
        let out = read(&mut entry);
        self.delta.put(key, entry);
        Ok((out, report))
    }

    fn table_mut(&mut self, schema: &str, table: &str) -> Result<&mut Table> {
        self.schemas
            .get_mut(schema)
            .ok_or_else(|| WarehouseError::UnknownSchema(schema.to_owned()))?
            .get_mut(table)
            .ok_or_else(|| WarehouseError::UnknownTable {
                schema: schema.to_owned(),
                table: table.to_owned(),
            })
    }

    /// Total row count across every table (diagnostics).
    pub fn total_rows(&self) -> usize {
        self.schemas
            .values()
            .flat_map(|t| t.values())
            .map(Table::len)
            .sum()
    }

    // ------------------------------------------------------------------
    // Binlog access
    // ------------------------------------------------------------------

    /// Current binlog position (what a replicator saves as its watermark).
    pub fn binlog_position(&self) -> LogPosition {
        self.binlog.position()
    }

    /// All binlog records strictly after `after`.
    pub fn binlog_after(&self, after: LogPosition) -> Result<Vec<BinlogEvent>> {
        self.injected_fault(FaultPoint::BinlogRead)?;
        self.binlog.read_after(after)
    }

    /// Binlog records strictly after `after` touching `schema.table` —
    /// the delta the incremental aggregation engine folds. Subject to
    /// the same chaos fault point as [`Database::binlog_after`] and the
    /// same [`WarehouseError::CompactedAway`] horizon check.
    pub fn binlog_for_table_after(
        &self,
        after: LogPosition,
        schema: &str,
        table: &str,
    ) -> Result<Vec<BinlogEvent>> {
        self.injected_fault(FaultPoint::BinlogRead)?;
        self.binlog.read_table_after(after, schema, table)
    }

    /// Flip a byte in the last binlog frame — simulated disk corruption,
    /// executed by the chaos harness. Returns `false` on an empty log.
    pub fn corrupt_binlog_tail_byte(&mut self) -> bool {
        self.binlog.corrupt_tail_byte()
    }

    /// Chop raw bytes off the binlog tail — a simulated torn write.
    /// Returns the number of bytes removed.
    pub fn truncate_binlog_tail(&mut self, bytes: usize) -> usize {
        self.binlog.truncate_tail_bytes(bytes)
    }

    /// Validate the binlog and crash-consistently repair its tail (see
    /// [`Binlog::repair_tail`]): records before the first damaged frame
    /// survive, the damage and everything after it is dropped, and the
    /// repair is counted (`warehouse_binlog_tail_repairs_total`) and
    /// logged (`warehouse.binlog_repaired`) so it is visible on the Ops
    /// dashboard. A clean log is untouched and reports nothing.
    pub fn repair_binlog(&mut self) -> TailRepair {
        let repair = self.binlog.repair_tail();
        if !repair.is_clean() && self.telemetry.is_enabled() {
            self.telemetry
                .counter("warehouse_binlog_tail_repairs_total", &[])
                .inc();
            self.telemetry.event_with(
                "warehouse.binlog_repaired",
                &format!("binlog tail repaired: {repair}"),
                &[
                    ("dropped_records", repair.dropped_records as f64),
                    ("dropped_bytes", repair.dropped_bytes as f64),
                ],
            );
        }
        repair
    }

    /// Raw framed binlog bytes after `after`, the byte stream the crash
    /// and property tests compare a recovered log against.
    pub fn binlog_export(&self, after: LogPosition) -> Result<Vec<u8>> {
        self.binlog.export_after(after)
    }

    /// Number of records in the current binlog generation.
    pub fn binlog_len(&self) -> usize {
        self.binlog.len()
    }

    /// Wipe all data and start a new binlog generation. Used when a
    /// database is regenerated from the federation hub (backup use case,
    /// §II-E4). The storage backend drops durable state of older
    /// generations ([`StorageBackend::start_epoch`]).
    pub fn reset_for_restore(&mut self) -> Result<()> {
        self.schemas.clear();
        self.binlog.rotate_epoch();
        self.backend.start_epoch(self.binlog.position().epoch)?;
        self.last_snapshot_seqno = 0;
        // Every retained entry and in-flight rebuild ticket is now void.
        self.watermarks.clear();
        self.rebuild_generation += 1;
        self.delta.clear();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability: snapshots and compaction
    // ------------------------------------------------------------------

    /// Short name of the storage backend ("memory", "disk").
    pub fn storage_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Flush anything the backend buffers to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.backend.sync()
    }

    /// Auto-snapshot every `every` records (`None` disables). When the
    /// log grows `every` records past the last snapshot, the next DML
    /// call snapshots and compacts in-line; failures there are recorded
    /// (`warehouse_snapshot_failures_total`) but never fail the ingest
    /// that tripped the policy.
    pub fn set_snapshot_policy(&mut self, every: Option<u64>) {
        self.snapshot_every = every.filter(|e| *e > 0);
    }

    /// Write a snapshot of the full database through the storage backend,
    /// then compact: the backend deletes segments (and older snapshots)
    /// the new snapshot makes redundant, and the in-memory binlog drops
    /// the same prefix. The compaction horizon trails one snapshot behind
    /// (see [`CompactionReport::horizon`]) so a damaged latest snapshot
    /// can never strand recovery.
    pub fn snapshot_now(&mut self) -> Result<CompactionReport> {
        let pos = self.binlog.position();
        let bytes = Snapshot::capture(self)?.to_bytes();
        let report = self.backend.write_snapshot(pos, &bytes)?;
        self.last_snapshot_seqno = pos.seqno;
        let pruned = self.binlog.compact_before(report.horizon);
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("warehouse_compactions_total", &[])
                .inc();
            self.telemetry.event_with(
                "warehouse.compacted",
                &format!(
                    "snapshot at {pos}; horizon {}: {} segments deleted, {} log records dropped",
                    report.horizon, report.segments_deleted, pruned.dropped_records,
                ),
                &[
                    ("horizon", report.horizon as f64),
                    ("segments_deleted", report.segments_deleted as f64),
                    ("snapshots_deleted", report.snapshots_deleted as f64),
                    ("bytes_reclaimed", report.bytes_reclaimed as f64),
                    ("log_records_dropped", pruned.dropped_records as f64),
                    ("log_bytes_dropped", pruned.dropped_bytes as f64),
                ],
            );
        }
        Ok(report)
    }

    /// Fire the auto-snapshot policy if due. Failures don't propagate:
    /// the triggering ingest already committed, and the next DML retries.
    fn maybe_snapshot(&mut self) {
        let Some(every) = self.snapshot_every else {
            return;
        };
        let seqno = self.binlog.position().seqno;
        if seqno < self.last_snapshot_seqno.saturating_add(every) {
            return;
        }
        if let Err(err) = self.snapshot_now() {
            if self.telemetry.is_enabled() {
                self.telemetry
                    .counter("warehouse_snapshot_failures_total", &[])
                    .inc();
                self.telemetry.event_with(
                    "warehouse.snapshot_failed",
                    &format!("auto-snapshot at seqno {seqno} failed: {err}"),
                    &[("seqno", seqno as f64)],
                );
            }
        }
    }

    /// Lowest seqno still present in the in-memory binlog's current epoch
    /// (0 when nothing was compacted): reads at or below this are
    /// [`WarehouseError::CompactedAway`] and must resume from a snapshot.
    pub fn compaction_horizon(&self) -> u64 {
        self.binlog.base_seqno()
    }

    // ------------------------------------------------------------------
    // Paging: working-set residency
    // ------------------------------------------------------------------

    /// Enable the cold-shard paging engine: every current and future
    /// table's rows are partitioned into day-bucket pages managed by a
    /// shared [`ResidencyManager`] enforcing `config`'s byte budget —
    /// cold pages spill to CRC-framed files under `config.spill_dir` and
    /// fault back in transparently on the query path.
    ///
    /// Stale spill files in the directory (from a previous process) are
    /// deleted first: spill files are caches keyed by store ids this
    /// process will reuse, and the write-ahead log already holds every
    /// row durably.
    pub fn enable_paging(&mut self, config: PagingConfig) -> Result<()> {
        if let Ok(entries) = std::fs::read_dir(config.spill_path()) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".spl") {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let manager = ResidencyManager::new(&config, self.telemetry.clone());
        if let Some((injector, target)) = &self.chaos {
            manager.set_chaos(injector.clone(), target.clone());
        }
        let pages = config.pages_per_table;
        for tables in self.schemas.values_mut() {
            for table in tables.values_mut() {
                table.enable_paging(&manager, pages);
            }
        }
        self.paging = Some(PagingRuntime { manager, config });
        if self.telemetry.is_enabled() {
            if let Some(p) = &self.paging {
                self.telemetry.event_with(
                    "warehouse.paging_enabled",
                    &format!(
                        "paging enabled: budget {} bytes, {} pages per table",
                        p.config.budget_bytes, p.config.pages_per_table
                    ),
                    &[("budget_bytes", p.config.budget_bytes as f64)],
                );
            }
        }
        Ok(())
    }

    /// True if the paging engine is managing this database's tables.
    pub fn paging_enabled(&self) -> bool {
        self.paging.is_some()
    }

    /// The active paging configuration, if paging is enabled.
    pub fn paging_config(&self) -> Option<&PagingConfig> {
        self.paging.as_ref().map(|p| &p.config)
    }

    /// Point-in-time residency counters (budget, resident bytes, page
    /// states, fault-in/evict totals), or `None` when paging is off.
    pub fn residency_stats(&self) -> Option<ResidencyStats> {
        self.paging.as_ref().map(|p| p.manager.stats())
    }

    /// True if any paged table has a lost page (its spill file failed
    /// validation) and needs [`Database::repair_paging`].
    pub fn has_lost_pages(&self) -> bool {
        self.schemas
            .values()
            .flat_map(|t| t.values())
            .filter_map(Table::paged_store)
            .any(|s| s.has_lost_pages())
    }

    /// Rebuild every table from the write-ahead log after spill-file
    /// loss, then re-enable paging with the same configuration.
    ///
    /// Spill files are caches: the WAL ordering contract guarantees that
    /// every row of every page — lost or not — was durably appended
    /// before it was admitted to memory, so a full backend recovery
    /// (snapshot restore plus validated tail replay) reproduces the
    /// exact logical state with zero data loss. Requires a durable
    /// backend; with [`MemoryBackend`] there is no log to rebuild from.
    pub fn repair_paging(&mut self) -> Result<()> {
        let Some(runtime) = self.paging.take() else {
            return Ok(());
        };
        let config = runtime.config.clone();
        if self.backend.name() == "memory" {
            // Put the runtime back: the caller's tables are still
            // servable except for their lost pages.
            self.paging = Some(runtime);
            return Err(WarehouseError::Io(
                "repair_paging requires a durable storage backend".to_owned(),
            ));
        }
        drop(runtime);
        let started = Instant::now();
        // Dropping the tables drops their paged stores, which delete
        // their spill files — nothing stale survives the rebuild.
        self.schemas.clear();
        self.watermarks.clear();
        self.delta.clear();
        self.rebuild_generation += 1;
        self.binlog = Binlog::default();
        self.last_snapshot_seqno = 0;
        let rec = self.backend.recover()?;
        self.finish_recovery(rec, started)?;
        self.enable_paging(config)?;
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("warehouse_paging_repairs_total", &[])
                .inc();
            self.telemetry.event_with(
                "warehouse.paging_repaired",
                &format!(
                    "paged tables rebuilt from the log: {} rows restored",
                    self.total_rows()
                ),
                &[("rows", self.total_rows() as f64)],
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{ColumnType, Value};

    fn jobfact() -> TableSchema {
        SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .required("cpu_hours", ColumnType::Float)
            .build()
            .unwrap()
    }

    fn populated() -> Database {
        let mut db = Database::new();
        db.create_schema("xdmod_x").unwrap();
        db.create_table("xdmod_x", jobfact()).unwrap();
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("comet".into()), Value::Float(3.0)]],
        )
        .unwrap();
        db
    }

    #[test]
    fn describe_schema_returns_sorted_table_definitions() {
        let mut db = populated();
        db.create_table(
            "xdmod_x",
            SchemaBuilder::new("storagefact")
                .required("filesystem", ColumnType::Str)
                .build()
                .unwrap(),
        )
        .unwrap();
        let defs = db.describe_schema("xdmod_x").unwrap();
        assert_eq!(
            defs.iter().map(|d| d.name.as_str()).collect::<Vec<_>>(),
            vec!["jobfact", "storagefact"]
        );
        assert_eq!(defs[0].columns[0].name, "resource");
        assert_eq!(defs[0].columns[0].ty, ColumnType::Str);
        assert!(!defs[0].columns[0].nullable);
        assert!(matches!(
            db.describe_schema("ghost"),
            Err(WarehouseError::UnknownSchema(_))
        ));
    }

    #[test]
    fn ddl_and_dml_are_logged_in_order() {
        let db = populated();
        let events = db.binlog_after(LogPosition::START).unwrap();
        assert_eq!(events.len(), 3);
        assert!(matches!(
            events[0].payload,
            EventPayload::CreateSchema { .. }
        ));
        assert!(matches!(
            events[1].payload,
            EventPayload::CreateTable { .. }
        ));
        assert!(matches!(
            events[2].payload,
            EventPayload::InsertBatch { .. }
        ));
    }

    #[test]
    fn duplicate_ddl_rejected() {
        let mut db = populated();
        assert!(matches!(
            db.create_schema("xdmod_x"),
            Err(WarehouseError::AlreadyExists(_))
        ));
        assert!(matches!(
            db.create_table("xdmod_x", jobfact()),
            Err(WarehouseError::AlreadyExists(_))
        ));
    }

    #[test]
    fn ensure_table_checks_definition() {
        let mut db = populated();
        db.ensure_table("xdmod_x", jobfact()).unwrap(); // same def: ok
        let other = SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .build()
            .unwrap();
        assert!(db.ensure_table("xdmod_x", other).is_err());
    }

    #[test]
    fn insert_into_missing_table_errors() {
        let mut db = populated();
        assert!(db.insert("xdmod_x", "nope", vec![vec![]]).is_err());
        assert!(db.insert("nope", "jobfact", vec![vec![]]).is_err());
    }

    #[test]
    fn empty_insert_writes_no_log_record() {
        let mut db = populated();
        let before = db.binlog_len();
        db.insert("xdmod_x", "jobfact", vec![]).unwrap();
        assert_eq!(db.binlog_len(), before);
    }

    #[test]
    fn replaying_binlog_reproduces_database() {
        let src = populated();
        let mut dst = Database::new();
        for ev in src.binlog_after(LogPosition::START).unwrap() {
            dst.apply_event(ev.payload).unwrap();
        }
        assert_eq!(
            src.table("xdmod_x", "jobfact").unwrap().content_checksum(),
            dst.table("xdmod_x", "jobfact").unwrap().content_checksum()
        );
        // And the destination's own binlog re-logged everything, so a
        // second hop replays identically (chained topology).
        let mut third = Database::new();
        for ev in dst.binlog_after(LogPosition::START).unwrap() {
            third.apply_event(ev.payload).unwrap();
        }
        assert_eq!(
            src.table("xdmod_x", "jobfact").unwrap().content_checksum(),
            third
                .table("xdmod_x", "jobfact")
                .unwrap()
                .content_checksum()
        );
    }

    #[test]
    fn apply_event_is_idempotent_for_ddl() {
        let mut db = Database::new();
        let ev = EventPayload::CreateSchema { schema: "s".into() };
        db.apply_event(ev.clone()).unwrap();
        db.apply_event(ev).unwrap(); // replay tolerated
        let ev = EventPayload::CreateTable {
            schema: "s".into(),
            def: jobfact(),
        };
        db.apply_event(ev.clone()).unwrap();
        db.apply_event(ev).unwrap();
        assert_eq!(db.table_names("s").unwrap(), vec!["jobfact"]);
    }

    #[test]
    fn truncate_logs_and_clears() {
        let mut db = populated();
        db.truncate("xdmod_x", "jobfact").unwrap();
        assert!(db.table("xdmod_x", "jobfact").unwrap().is_empty());
        let events = db.binlog_after(LogPosition::START).unwrap();
        assert!(matches!(
            events.last().unwrap().payload,
            EventPayload::Truncate { .. }
        ));
    }

    #[test]
    fn reset_for_restore_rotates_epoch() {
        let mut db = populated();
        let old_pos = db.binlog_position();
        db.reset_for_restore().unwrap();
        assert!(db.schema_names().is_empty());
        let pos = db.binlog_position();
        assert_eq!(pos.epoch, old_pos.epoch + 1);
        assert_eq!(pos.seqno, 0);
    }

    #[test]
    fn telemetry_counts_binlog_appends_and_query_time() {
        use crate::query::Query;
        use xdmod_telemetry::MetricsRegistry;

        let reg = MetricsRegistry::new();
        let mut db = Database::new();
        db.set_telemetry(reg.clone());
        db.create_schema("xdmod_x").unwrap();
        db.create_table("xdmod_x", jobfact()).unwrap();
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("comet".into()), Value::Float(3.0)]],
        )
        .unwrap();

        let snap = reg.snapshot();
        assert_eq!(snap.counter("warehouse_binlog_appends_total", &[]), Some(3));
        assert!(snap.counter("warehouse_binlog_bytes_total", &[]).unwrap() > 0);

        let count = Query::new().aggregate(crate::query::Aggregate::count("n"));
        let rs = db.query("xdmod_x", "jobfact", &count).unwrap();
        assert_eq!(rs.len(), 1);
        let snap = reg.snapshot();
        assert_eq!(
            snap.histogram("warehouse_query_seconds", &[("table", "jobfact")])
                .unwrap()
                .count,
            1
        );
        assert_eq!(
            snap.counter(
                "warehouse_query_rows_scanned_total",
                &[("table", "jobfact")]
            ),
            Some(1)
        );
    }

    #[test]
    fn query_hits_until_table_mutates() {
        use crate::query::{AggFn, Aggregate, Query};
        use xdmod_telemetry::MetricsRegistry;

        let reg = MetricsRegistry::new();
        let mut db = populated();
        db.set_telemetry(reg.clone());
        let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));

        let first = db.query("xdmod_x", "jobfact", &q).unwrap();
        let second = db.query("xdmod_x", "jobfact", &q).unwrap();
        assert_eq!(first, second);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("warehouse_aggcache_hits_total", &[("table", "jobfact")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("warehouse_aggcache_misses_total", &[("table", "jobfact")]),
            Some(1)
        );

        // Ingest moves the watermark: the next call misses, and folds
        // the one new row instead of re-scanning the table.
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("comet".into()), Value::Float(4.0)]],
        )
        .unwrap();
        let third = db.query("xdmod_x", "jobfact", &q).unwrap();
        assert_eq!(third.scalar_f64("total"), Some(7.0));
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("warehouse_aggcache_misses_total", &[("table", "jobfact")]),
            Some(2)
        );
        assert_eq!(
            snap.counter(
                "warehouse_query_rows_scanned_total",
                &[("table", "jobfact")]
            ),
            Some(2),
            "one row for the cold build, none for the hit, one for the delta"
        );
    }

    #[test]
    fn retained_queries_survive_unrelated_table_writes() {
        use crate::query::Query;
        use xdmod_telemetry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut db = populated();
        db.set_telemetry(reg.clone());
        db.create_table(
            "xdmod_x",
            SchemaBuilder::new("storagefact")
                .required("filesystem", ColumnType::Str)
                .build()
                .unwrap(),
        )
        .unwrap();
        let q = Query::new().aggregate(crate::query::Aggregate::count("jobs"));
        let ticket = db.rebuild_ticket("xdmod_x", "jobfact");
        db.query("xdmod_x", "jobfact", &q).unwrap();
        // Writing a *different* table leaves the jobfact ticket intact.
        db.insert(
            "xdmod_x",
            "storagefact",
            vec![vec![Value::Str("/scratch".into())]],
        )
        .unwrap();
        assert_eq!(db.rebuild_ticket("xdmod_x", "jobfact"), ticket);
        // The log head moved past the entry's cursor, the table's
        // watermark did not: still a hit.
        let key = CacheKey::of("xdmod_x", "jobfact", &q);
        assert!(db.delta_cache().cursor_of(&key).unwrap() < db.binlog_position());
        db.query("xdmod_x", "jobfact", &q).unwrap();
        assert_eq!(
            reg.snapshot()
                .counter("warehouse_aggcache_hits_total", &[("table", "jobfact")]),
            Some(1)
        );
    }

    #[test]
    fn a_repeat_partials_hands_out_the_retained_shards() {
        let db = populated();
        let q = Query::new().aggregate(crate::query::Aggregate::count("jobs"));
        let key = CacheKey::of("xdmod_x", "jobfact", &q);
        let first = db.partials("xdmod_x", "jobfact", &q).unwrap();
        let repeat = db.partials("xdmod_x", "jobfact", &q).unwrap();
        let retained = db.with_current_entry(&key, |e| Arc::clone(&e.partials));
        assert!(Arc::ptr_eq(&first, &repeat));
        assert!(Arc::ptr_eq(&repeat, &retained.unwrap()));
    }

    #[test]
    fn a_partials_miss_finalizes_nothing() {
        let db = populated();
        let q = Query::new().aggregate(crate::query::Aggregate::count("jobs"));
        let key = CacheKey::of("xdmod_x", "jobfact", &q);
        db.partials("xdmod_x", "jobfact", &q).unwrap();
        let finalized = |db: &Database| db.with_current_entry(&key, |e| e.result.is_some());
        assert_eq!(finalized(&db), Some(false));
        // The first query over the same entry finalizes it, once.
        let (rs, report) = db
            .query_reported("xdmod_x", "jobfact", &q, "jobfact")
            .unwrap();
        assert_eq!(report.rows_folded, 0);
        assert_eq!(finalized(&db), Some(true));
        assert_eq!(db.query("xdmod_x", "jobfact", &q).unwrap(), rs);
    }

    #[test]
    fn note_external_rebuild_stales_every_ticket() {
        let mut db = populated();
        let ticket = db.rebuild_ticket("xdmod_x", "jobfact");
        let generation = db.note_external_rebuild();
        assert_eq!(generation, 1);
        assert_ne!(db.rebuild_ticket("xdmod_x", "jobfact"), ticket);
    }

    #[test]
    fn query_matches_the_serial_fold() {
        use crate::parallel::PoolConfig;
        use crate::query::{AggFn, Aggregate, Query};
        let mut db = populated();
        db.set_parallelism(PoolConfig::new(4).with_shards(8));
        let q = Query::new()
            .group_by_column("resource")
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
        assert_eq!(
            db.query("xdmod_x", "jobfact", &q).unwrap(),
            q.run(db.table("xdmod_x", "jobfact").unwrap()).unwrap()
        );
    }

    #[test]
    fn detached_database_reports_nothing() {
        use crate::query::Query;
        let db = populated();
        assert!(!db.telemetry().is_enabled());
        // Instrumented paths still work with telemetry off.
        let count = Query::new().aggregate(crate::query::Aggregate::count("n"));
        db.query("xdmod_x", "jobfact", &count).unwrap();
        assert_eq!(db.telemetry().prometheus_text(), "");
    }

    #[test]
    fn injected_transient_fault_surfaces_and_clears() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let mut db = populated();
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::BinlogRead,
            FaultKind::Transient,
            &[1],
        ));
        db.set_fault_injector(plan.injector(7), "link-x");
        let err = db.binlog_after(LogPosition::START).unwrap_err();
        assert!(matches!(err, WarehouseError::Io(_)), "got {err}");
        assert!(err.to_string().contains("transient"));
        // Second read (op 2) is past the schedule: succeeds.
        assert_eq!(db.binlog_after(LogPosition::START).unwrap().len(), 3);
        db.clear_fault_injector();
        assert_eq!(db.binlog_after(LogPosition::START).unwrap().len(), 3);
    }

    #[test]
    fn injected_apply_fault_blocks_replicated_event() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let mut db = Database::new();
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Apply,
            FaultKind::Transient,
            &[1],
        ));
        db.set_fault_injector(plan.injector(7), "link-x");
        let ev = EventPayload::CreateSchema { schema: "s".into() };
        assert!(db.apply_event(ev.clone()).is_err());
        // Retry succeeds and the event lands exactly once.
        db.apply_event(ev).unwrap();
        assert!(db.has_schema("s"));
    }

    #[test]
    fn repair_binlog_recovers_corrupt_tail_and_reports_telemetry() {
        use xdmod_telemetry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut db = populated();
        db.set_telemetry(reg.clone());
        assert!(db.corrupt_binlog_tail_byte());
        assert!(db.binlog_after(LogPosition::START).is_err());
        let repair = db.repair_binlog();
        assert_eq!(repair.dropped_records, 1);
        // The two intact records are readable again; the table rows are
        // untouched (only the log was damaged).
        assert_eq!(db.binlog_after(LogPosition::START).unwrap().len(), 2);
        assert_eq!(db.total_rows(), 1);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("warehouse_binlog_tail_repairs_total", &[]),
            Some(1)
        );
        assert_eq!(reg.events_of_kind("warehouse.binlog_repaired").len(), 1);
        // Repairing a clean log is a no-op and reports nothing further.
        assert!(db.repair_binlog().is_clean());
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("warehouse_binlog_tail_repairs_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn truncated_binlog_tail_repairs_without_panicking() {
        let mut db = populated();
        let removed = db.truncate_binlog_tail(3);
        assert_eq!(removed, 3);
        assert!(db.binlog_after(LogPosition::START).is_err());
        let repair = db.repair_binlog();
        assert_eq!(repair.dropped_records, 1);
        assert_eq!(db.binlog_after(LogPosition::START).unwrap().len(), 2);
        // New writes resume cleanly after the repair.
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("x".into()), Value::Float(1.0)]],
        )
        .unwrap();
        assert_eq!(db.binlog_after(LogPosition::START).unwrap().len(), 3);
    }

    /// A backend that fails every append after the first `ok` calls —
    /// exercises write-ahead ordering (nothing may mutate on a failed
    /// durable append).
    #[derive(Debug)]
    struct FailingBackend {
        ok: u64,
        appends: u64,
    }

    impl crate::storage::StorageBackend for FailingBackend {
        fn name(&self) -> &'static str {
            "failing"
        }
        fn append(&mut self, _pos: LogPosition, _frame: &[u8]) -> Result<()> {
            self.appends += 1;
            if self.appends > self.ok {
                return Err(WarehouseError::Io("injected append failure".into()));
            }
            Ok(())
        }
        fn write_snapshot(
            &mut self,
            _pos: LogPosition,
            _snapshot: &[u8],
        ) -> Result<crate::storage::CompactionReport> {
            Ok(crate::storage::CompactionReport::default())
        }
        fn start_epoch(&mut self, _epoch: u32) -> Result<()> {
            Ok(())
        }
        fn recover(&mut self) -> Result<crate::storage::Recovery> {
            Ok(crate::storage::Recovery::default())
        }
        fn sync(&mut self) -> Result<()> {
            Ok(())
        }
    }

    fn disk_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xdw-db-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn failed_durable_append_changes_nothing() {
        // Allow the 3 setup records through, then fail everything.
        let mut db = Database::open(Box::new(FailingBackend { ok: 3, appends: 0 })).unwrap();
        db.create_schema("xdmod_x").unwrap();
        db.create_table("xdmod_x", jobfact()).unwrap();
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("comet".into()), Value::Float(3.0)]],
        )
        .unwrap();
        let pos = db.binlog_position();
        let rows = db.table("xdmod_x", "jobfact").unwrap().len();

        // Every mutator now fails at the durable append — and must leave
        // tables, binlog, and watermarks exactly as they were.
        assert!(matches!(
            db.insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("gordon".into()), Value::Float(1.0)]],
            ),
            Err(WarehouseError::Io(_))
        ));
        assert!(matches!(
            db.truncate("xdmod_x", "jobfact"),
            Err(WarehouseError::Io(_))
        ));
        assert!(matches!(
            db.create_schema("xdmod_y"),
            Err(WarehouseError::Io(_))
        ));
        assert!(matches!(
            db.create_table(
                "xdmod_x",
                SchemaBuilder::new("other")
                    .required("x", ColumnType::Str)
                    .build()
                    .unwrap()
            ),
            Err(WarehouseError::Io(_))
        ));
        assert_eq!(db.binlog_position(), pos);
        assert_eq!(db.table("xdmod_x", "jobfact").unwrap().len(), rows);
        assert!(!db.has_schema("xdmod_y"));
        assert_eq!(db.binlog_after(LogPosition::START).unwrap().len(), 3);
    }

    #[test]
    fn snapshot_policy_compacts_in_memory_binlog() {
        let mut db = populated(); // 3 records in
        db.set_snapshot_policy(Some(2));
        // Records 4..: each insert may trip the policy. With the trailing
        // horizon, compaction starts on the *second* snapshot.
        for i in 0..6 {
            db.insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str(format!("r{i}")), Value::Float(1.0)]],
            )
            .unwrap();
        }
        assert!(db.compaction_horizon() > 0, "prefix should have compacted");
        assert!(db.binlog_len() < 9);
        // Reads from before the horizon are a typed error, not silence.
        let err = db.binlog_after(LogPosition::START).unwrap_err();
        assert!(
            matches!(err, WarehouseError::CompactedAway { .. }),
            "got {err}"
        );
        // Reads from the horizon onward still work.
        let horizon = LogPosition {
            epoch: db.binlog_position().epoch,
            seqno: db.compaction_horizon(),
        };
        db.binlog_after(horizon).unwrap();
        // All 7 rows are in the table regardless of log compaction.
        assert_eq!(db.table("xdmod_x", "jobfact").unwrap().len(), 7);
    }

    #[test]
    fn disk_backed_database_survives_reopen() {
        use crate::disk::{DiskBackend, DiskOptions};
        let dir = disk_dir("reopen");
        let opts = || DiskOptions::new(&dir).fsync(false);
        let checksum_before;
        {
            let mut db = Database::open(Box::new(DiskBackend::open(opts()).unwrap())).unwrap();
            db.create_schema("xdmod_x").unwrap();
            db.create_table("xdmod_x", jobfact()).unwrap();
            for i in 0..10 {
                db.insert(
                    "xdmod_x",
                    "jobfact",
                    vec![vec![Value::Str(format!("res-{i}")), Value::Float(i as f64)]],
                )
                .unwrap();
            }
            checksum_before = db.table("xdmod_x", "jobfact").unwrap().content_checksum();
            // No clean shutdown beyond Drop's best-effort sync.
        }
        let db = Database::open(Box::new(DiskBackend::open(opts()).unwrap())).unwrap();
        assert_eq!(db.storage_name(), "disk");
        assert_eq!(
            db.table("xdmod_x", "jobfact").unwrap().content_checksum(),
            checksum_before
        );
        assert_eq!(db.binlog_after(LogPosition::START).unwrap().len(), 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_backed_database_recovers_via_snapshot_and_tail() {
        use crate::disk::{DiskBackend, DiskOptions};
        use xdmod_telemetry::MetricsRegistry;
        let dir = disk_dir("snaptail");
        let opts = || DiskOptions::new(&dir).fsync(false).segment_max_bytes(256);
        let checksum_before;
        let horizon;
        {
            let mut db = Database::open(Box::new(DiskBackend::open(opts()).unwrap())).unwrap();
            db.set_snapshot_policy(Some(3));
            db.create_schema("xdmod_x").unwrap();
            db.create_table("xdmod_x", jobfact()).unwrap();
            for i in 0..12 {
                db.insert(
                    "xdmod_x",
                    "jobfact",
                    vec![vec![Value::Str(format!("res-{i}")), Value::Float(i as f64)]],
                )
                .unwrap();
            }
            assert!(db.compaction_horizon() > 0);
            horizon = db.compaction_horizon();
            checksum_before = db.table("xdmod_x", "jobfact").unwrap().content_checksum();
        }
        let reg = MetricsRegistry::new();
        let mut db = Database::open_with_telemetry(
            Box::new(DiskBackend::open(opts()).unwrap()),
            reg.clone(),
        )
        .unwrap();
        assert_eq!(
            db.table("xdmod_x", "jobfact").unwrap().content_checksum(),
            checksum_before
        );
        // Recovery resumes from the newest snapshot, so the horizon is at
        // least as far along as the pre-crash one.
        assert!(db.compaction_horizon() >= horizon);
        assert!(matches!(
            db.binlog_after(LogPosition::START),
            Err(WarehouseError::CompactedAway { .. })
        ));
        let snap = reg.snapshot();
        assert_eq!(
            snap.histogram("warehouse_recovery_ms", &[])
                .map(|h| h.count),
            Some(1)
        );
        // Clean recovery: nothing was truncated.
        assert_eq!(
            snap.counter("warehouse_recovery_truncated_records_total", &[]),
            None
        );
        // Writes resume seamlessly after recovery.
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("post".into()), Value::Float(1.0)]],
        )
        .unwrap();
        assert_eq!(db.table("xdmod_x", "jobfact").unwrap().len(), 13);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Snapshot + tail recovery is one replay path: whether the store
    /// was written dense or paged, and whether it is reopened dense or
    /// paged, the same events land in the same order. A paged store's
    /// snapshot is page-major, so against the *source* what survives is
    /// each day's row order — and with it every day-sharded float sum,
    /// bit for bit; the serial fold is bit-stable when the store reopens
    /// the way it was written.
    #[test]
    fn dense_and_paged_stores_restore_identically_from_snapshot_plus_tail() {
        use crate::disk::{DiskBackend, DiskOptions};
        use crate::query::{AggFn, Aggregate, Query};
        use crate::time::Period;
        let total = Query::new().aggregate(Aggregate::of(AggFn::Sum, "v", "total"));
        let by_day = total.clone().group_by_period("end_time", Period::Day);
        let of_day = |rows: &[Row], day: i64| -> Vec<Row> {
            let on = |r: &&Row| r[0].as_i64().map(|t| t / 86_400) == Some(day);
            rows.iter().filter(on).cloned().collect()
        };
        let timed = |name: &str| {
            SchemaBuilder::new(name)
                .required("end_time", ColumnType::Time)
                .required("v", ColumnType::Float)
                .build()
                .unwrap()
        };
        let rows = |from: i64, n: i64| -> Vec<Row> {
            (from..from + n)
                .map(|i| {
                    vec![
                        Value::Time((i % 7) * 86_400 + i),
                        Value::Float(i as f64 * 0.1), // sums depend on fold order
                    ]
                })
                .collect()
        };
        for paged_source in [false, true] {
            let dir = disk_dir(if paged_source {
                "restore-paged"
            } else {
                "restore-dense"
            });
            let open = || {
                Database::open(Box::new(
                    DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap(),
                ))
                .unwrap()
            };
            let paging = || {
                PagingConfig::new(dir.join("paging"))
                    .budget_bytes(1)
                    .pages_per_table(4)
            };

            let mut src = open();
            if paged_source {
                src.enable_paging(paging()).unwrap();
            }
            src.create_schema("s").unwrap();
            src.create_table("s", timed("t")).unwrap();
            src.create_table("s", timed("quiet")).unwrap();
            src.insert("s", "quiet", rows(500, 9)).unwrap();
            src.insert("s", "t", rows(0, 40)).unwrap();
            let snapshot_pos = src.binlog_position();
            src.snapshot_now().unwrap();
            src.insert("s", "t", rows(40, 25)).unwrap(); // the tail
            let head = src.binlog_position();
            let checksum = src.table("s", "t").unwrap().content_checksum();
            let source_rows = src.table("s", "t").unwrap().rows().unwrap().to_vec();
            let source_by_day = src.query("s", "t", &by_day).unwrap();
            let source_total = total.run(src.table("s", "t").unwrap()).unwrap();
            drop(src); // crash

            let dense = open();
            let mut paged = open();
            paged.enable_paging(paging()).unwrap();
            for db in [&dense, &paged] {
                assert_eq!(db.binlog_position(), head);
                assert_eq!(db.table("s", "t").unwrap().content_checksum(), checksum);
                assert_eq!(db.table("s", "t").unwrap().len(), 65);
                // Touched by the tail: its own record's position. Only in
                // the snapshot: conservatively, the snapshot's.
                assert_eq!(db.table_watermark("s", "t"), Some(head));
                assert_eq!(db.table_watermark("s", "quiet"), Some(snapshot_pos));
            }
            let dense_rows = dense.table("s", "t").unwrap().rows().unwrap().to_vec();
            assert_eq!(
                paged.table("s", "t").unwrap().rows().unwrap().to_vec(),
                dense_rows
            );
            if !paged_source {
                // A dense store's snapshot keeps insertion order outright.
                assert_eq!(dense_rows, source_rows);
            }
            for day in 0..7 {
                assert_eq!(of_day(&dense_rows, day), of_day(&source_rows, day));
            }
            for db in [&dense, &paged] {
                assert_eq!(db.query("s", "t", &by_day).unwrap(), source_by_day);
            }
            let same_mode = if paged_source { &paged } else { &dense };
            assert_eq!(
                total.run(same_mode.table("s", "t").unwrap()).unwrap(),
                source_total
            );
            drop((dense, paged));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn manual_snapshot_reports_compaction_telemetry() {
        use xdmod_telemetry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut db = populated();
        db.set_telemetry(reg.clone());
        db.snapshot_now().unwrap();
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("more".into()), Value::Float(2.0)]],
        )
        .unwrap();
        db.snapshot_now().unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("warehouse_compactions_total", &[]), Some(2));
        assert_eq!(reg.events_of_kind("warehouse.compacted").len(), 2);
        // Second snapshot's horizon = first snapshot's seqno: prefix gone.
        assert_eq!(db.compaction_horizon(), 3);
    }

    #[test]
    fn total_rows_counts_all_tables() {
        let mut db = populated();
        db.create_schema("xdmod_y").unwrap();
        db.create_table("xdmod_y", jobfact()).unwrap();
        db.insert(
            "xdmod_y",
            "jobfact",
            vec![
                vec![Value::Str("a".into()), Value::Float(1.0)],
                vec![Value::Str("b".into()), Value::Float(2.0)],
            ],
        )
        .unwrap();
        assert_eq!(db.total_rows(), 3);
    }

    // ------------------------------------------------------------------
    // Delta-fold engine
    // ------------------------------------------------------------------

    /// The stateless engine over the live table: what every retained
    /// answer must equal.
    fn recompute(db: &Database, q: &Query) -> ResultSet {
        let t = db.table("xdmod_x", "jobfact").unwrap();
        crate::parallel::run_sharded(q, t, db.parallelism(), db.telemetry(), "jobfact").unwrap()
    }

    fn delta_db() -> Database {
        let mut db = Database::new();
        db.set_parallelism(crate::parallel::PoolConfig::new(2).with_shards(4));
        db.create_schema("xdmod_x").unwrap();
        db.create_table(
            "xdmod_x",
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .nullable("end_time", ColumnType::Time)
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    }

    fn delta_rows(seed: u64, n: usize) -> Vec<crate::value::Row> {
        (0..n)
            .map(|i| {
                let k = seed.wrapping_mul(31).wrapping_add(i as u64);
                let resource = if k.is_multiple_of(3) { "comet" } else { "rush" };
                let time = if k.is_multiple_of(11) {
                    Value::Null
                } else {
                    Value::Time(86_400 * ((k % 9) as i64) + (k % 7_000) as i64)
                };
                vec![
                    Value::Str(resource.into()),
                    Value::Float(((k % 257) as f64) / 64.0),
                    time,
                ]
            })
            .collect()
    }

    fn delta_query() -> Query {
        use crate::query::{AggFn, Aggregate};
        use crate::time::Period;
        Query::new()
            .group_by_column("resource")
            .group_by_period("end_time", Period::Day)
            .aggregate(Aggregate::count("jobs"))
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"))
            .aggregate(Aggregate::of(AggFn::Avg, "cpu_hours", "avg"))
    }

    #[test]
    fn delta_fold_matches_full_recompute_across_ingest() {
        let mut db = delta_db();
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(1, 40)).unwrap();

        let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Cold);
        assert_eq!(report.rows_folded, 40);
        assert_eq!(rs, recompute(&db, &q));

        for (step, batch) in [1usize, 7, 16].into_iter().enumerate() {
            db.insert("xdmod_x", "jobfact", delta_rows(step as u64 + 2, batch))
                .unwrap();
            let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
            assert!(report.is_incremental(), "step {step}: {:?}", report.outcome);
            assert_eq!(report.rows_folded, batch, "step {step}");
            assert!(report.dirty_shards <= db.parallelism().shards());
            assert_eq!(rs, recompute(&db, &q), "step {step}");
        }
        // Cursor tracks the log head once folded through.
        let key = CacheKey::of("xdmod_x", "jobfact", &q);
        assert_eq!(db.delta_cache().cursor_of(&key), Some(db.binlog_position()));
        // No new records: a hit, reported as a fold of nothing.
        let (_, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert!(report.is_incremental());
        assert_eq!(report.rows_folded, 0);
        assert_eq!(report.dirty_shards, 0);
    }

    #[test]
    fn external_rebuild_resets_delta_cursors_and_counts_fallbacks() {
        use xdmod_telemetry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut db = delta_db();
        db.set_telemetry(reg.clone());
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(3, 24)).unwrap();
        db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(db.delta_cache().len(), 1);

        // A resync/restore rewrites tables outside DML accounting: every
        // retained cursor must die with it, counted as a fallback.
        db.note_external_rebuild();
        assert!(db.delta_cache().is_empty());
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(
                "warehouse_delta_fallback_rebuilds_total",
                &[("reason", "external-rebuild")]
            ),
            Some(1)
        );
        // The next pass rebuilds cold and still matches a recompute.
        let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Cold);
        assert_eq!(rs, recompute(&db, &q));
    }

    #[test]
    fn stale_generation_entry_is_discarded_not_served() {
        // Belt and braces: an entry *held out* across a generation bump
        // (the mid-fold resync race) is rejected on put-back... this
        // test drives the read-side guard by reinserting a pre-bump
        // entry and watching the query refuse to serve or advance it.
        let mut db = delta_db();
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(5, 12)).unwrap();
        db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        let key = CacheKey::of("xdmod_x", "jobfact", &q);
        let stale = db.delta_cache().take(&key).expect("retained entry");
        db.note_external_rebuild();
        db.delta_cache().put(key, stale);

        let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(
            report.fallback_reason(),
            Some(FallbackReason::ExternalRebuild)
        );
        assert_eq!(rs, recompute(&db, &q));
    }

    #[test]
    fn compaction_outrunning_the_cursor_forces_full_rebuild() {
        use xdmod_telemetry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut db = delta_db();
        db.set_telemetry(reg.clone());
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(8, 20)).unwrap();
        db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();

        // More ingest, then snapshots compact the log past the cursor
        // (the horizon trails one snapshot behind, so two are needed).
        db.insert("xdmod_x", "jobfact", delta_rows(9, 10)).unwrap();
        db.snapshot_now().unwrap();
        db.insert("xdmod_x", "jobfact", delta_rows(9, 3)).unwrap();
        db.snapshot_now().unwrap();
        assert!(db.compaction_horizon() > 3, "cursor seqno 3 must be gone");

        let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(
            report.fallback_reason(),
            Some(FallbackReason::CompactedAway)
        );
        assert_eq!(report.rows_folded, 33);
        assert_eq!(rs, recompute(&db, &q));
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(
                "warehouse_delta_fallback_rebuilds_total",
                &[("reason", "compacted")]
            ),
            Some(1)
        );
        // The rebuilt entry folds incrementally again.
        db.insert("xdmod_x", "jobfact", delta_rows(10, 5)).unwrap();
        let (_, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert!(report.is_incremental());
    }

    #[test]
    fn fact_truncate_in_the_delta_forces_full_rebuild() {
        let mut db = delta_db();
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(11, 16)).unwrap();
        db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();

        db.truncate("xdmod_x", "jobfact").unwrap();
        db.insert("xdmod_x", "jobfact", delta_rows(12, 6)).unwrap();

        let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(report.fallback_reason(), Some(FallbackReason::FactRewrite));
        assert_eq!(report.rows_folded, 6);
        assert_eq!(rs, recompute(&db, &q));
    }

    #[test]
    fn reshard_forces_full_rebuild_under_the_new_geometry() {
        let mut db = delta_db();
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(13, 32)).unwrap();
        db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();

        db.set_parallelism(crate::parallel::PoolConfig::new(3).with_shards(7));
        let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(report.fallback_reason(), Some(FallbackReason::Resharded));
        assert_eq!(report.dirty_shards, 7);
        assert_eq!(rs, recompute(&db, &q));
    }

    #[test]
    fn transient_delta_read_fault_falls_back_instead_of_failing() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let mut db = delta_db();
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(14, 18)).unwrap();
        db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        db.insert("xdmod_x", "jobfact", delta_rows(15, 4)).unwrap();

        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::BinlogRead,
            FaultKind::Transient,
            &[1],
        ));
        db.set_fault_injector(plan.injector(7), "link-x");
        let (rs, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(report.fallback_reason(), Some(FallbackReason::ReadError));
        db.clear_fault_injector();
        assert_eq!(rs, recompute(&db, &q));
    }

    #[test]
    fn delta_fold_telemetry_accounts_folded_rows_and_dirty_shards() {
        use xdmod_telemetry::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let mut db = delta_db();
        db.set_telemetry(reg.clone());
        let q = delta_query();
        db.insert("xdmod_x", "jobfact", delta_rows(17, 20)).unwrap();
        db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        db.insert("xdmod_x", "jobfact", delta_rows(18, 9)).unwrap();
        let (_, report) = db.query_reported("xdmod_x", "jobfact", &q, "agg").unwrap();
        assert!(report.is_incremental());

        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("warehouse_delta_cold_builds_total", &[("table", "agg")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("warehouse_delta_folds_total", &[("table", "agg")]),
            Some(1)
        );
        assert_eq!(
            snap.counter("warehouse_delta_folded_records_total", &[("table", "agg")]),
            Some(9)
        );
        assert_eq!(
            snap.counter("warehouse_delta_dirty_shards_total", &[("table", "agg")]),
            Some(report.dirty_shards as u64)
        );
    }
}
