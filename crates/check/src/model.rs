//! The analyzable projection of a federation.
//!
//! A [`FederationModel`] is everything the pre-flight analyzer needs to
//! know about a federation **without running replication**: the hub, the
//! per-satellite link topology and filters, the satellites' table
//! catalogs, the hub's registered aggregation pipelines, and the group-by
//! query surface of the hub's canned reports.
//!
//! [`FederationModel::from_json`] / [`FederationModel::from_value`] read
//! it from the federation document, so `xdmod-check` can vet a topology
//! before any instance exists. The model is also what a federation runs
//! from: `xdmod-core` stores one [`SatelliteModel`] per member — the
//! document's own for `Federation::from_config`, one converted from the
//! join intent for `join_tight`/`join_loose` — and refuses a declared
//! link id, schema or table selection it would not run. Its
//! `Federation::check_model()` clones those records, overlays each
//! satellite's live table catalog and job resources, and adds the hub's
//! live aggregates, group-bys, pool and alert rules and the document's
//! storage stanza. The few fields only construction reads (declared
//! realms, SUPReMM summaries, alert severities and stale ages, the
//! telemetry event capacity) ride along here for that reason.
//!
//! The model borrows the document's text. Every string it reads from the
//! document is a `Cow<'a, str>`: a string without an escape is
//! `Borrowed`, a slice of the input that stays valid once the parsed
//! tape is dropped; an escaped one is `Owned`, and so is a derived one
//! (the default `xdmod_<name>` and `inst_<name>` schemas, a type, mode or
//! backend that had to be lower-cased). Realm tables and the `"str"`
//! default type are borrowed `'static` data, and a link id defaults to a
//! copy of the satellite's name, borrowed when the name is.
//! [`FederationModel::into_owned`] detaches a model from its text; that
//! is what `xdmod-core` keeps, and `Federation::check_model()` builds
//! owned values.
//!
//! Satellites of one federation carry the same realm schemas, so a
//! satellite's tables are shared: each is an `Arc<TableModel>`, and a
//! table equal to one of the previous satellite's is that satellite's
//! `Arc`, not a copy. `from_value` reads a table document's columns once,
//! against the previous satellite's tables of that name, and allocates
//! only once they differ; `Federation::check_model()` shares each live
//! table it builds by the same rule ([`TableModel::share`]). Sharing
//! chains, so a federation of N equal satellites holds each table once.
//! The analyzer does its per-table work once per table identity; equal
//! tables that are not shared (a hand-built model) still compare by
//! value, so sharing changes no diagnostic.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::json::{JsonError, JsonValue};

/// One column of a table, in the analyzer's type vocabulary. Types are
/// carried as lower-case strings (`"int"`, `"float"`, `"str"`, `"time"`,
/// ...) so the model does not depend on the warehouse crate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnModel<'a> {
    /// Column name.
    pub name: Cow<'a, str>,
    /// Lower-case type name.
    pub ty: Cow<'a, str>,
    /// Whether nulls are accepted.
    pub nullable: bool,
}

impl ColumnModel<'_> {
    /// This column, detached from the text it borrows.
    fn into_owned(self) -> ColumnModel<'static> {
        ColumnModel {
            name: owned(self.name),
            ty: owned(self.ty),
            nullable: self.nullable,
        }
    }
}

/// One table of a satellite's source schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableModel<'a> {
    /// Table name.
    pub name: Cow<'a, str>,
    /// Ordered columns.
    pub columns: Vec<ColumnModel<'a>>,
}

impl<'a> TableModel<'a> {
    /// Find a column by name.
    pub fn column(&self, name: &str) -> Option<&ColumnModel<'a>> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// This table as the first of `previous` equal to it, shared, or else
    /// in an `Arc` of its own.
    pub fn share(self, previous: &[Arc<TableModel<'a>>]) -> Arc<TableModel<'a>> {
        match previous.iter().find(|table| ***table == self) {
            Some(table) => Arc::clone(table),
            None => Arc::new(self),
        }
    }

    /// This table, detached from the text it borrows.
    fn into_owned(self) -> TableModel<'static> {
        TableModel {
            name: owned(self.name),
            columns: self
                .columns
                .into_iter()
                .map(ColumnModel::into_owned)
                .collect(),
        }
    }
}

/// One replication link, satellite → hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkModel<'a> {
    /// Link id (labels metrics; must be unique across the federation).
    pub id: Cow<'a, str>,
    /// Satellite-side source schema.
    pub source_schema: Cow<'a, str>,
    /// Hub-side schema the link renames into.
    pub hub_schema: Cow<'a, str>,
    /// Coupling mode (`"tight"` live replication / `"loose"` batched),
    /// when the producer knows it. `None` = unspecified.
    pub mode: Option<Cow<'a, str>>,
    /// Configured fast-retry attempts for the link's live worker.
    /// `None` = policy default; `Some(0)` disables retries, which the
    /// analyzer flags on tight links (`XC0010`).
    pub retries: Option<u64>,
}

impl LinkModel<'_> {
    /// This link, detached from the text it borrows.
    fn into_owned(self) -> LinkModel<'static> {
        LinkModel {
            id: owned(self.id),
            source_schema: owned(self.source_schema),
            hub_schema: owned(self.hub_schema),
            mode: self.mode.map(owned),
            retries: self.retries,
        }
    }
}

/// One satellite member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SatelliteModel<'a> {
    /// Member name.
    pub name: Cow<'a, str>,
    /// Its replication link.
    pub link: LinkModel<'a>,
    /// Tables the replication filter passes. `None` = no table
    /// selection (everything replicates). A document without
    /// `"replicated_tables"` reads as its [`realm_selection`].
    pub replicated_tables: Option<Vec<Cow<'a, str>>>,
    /// Declared realms, as canonical idents (`"jobs"`, `"supremm"`,
    /// `"storage"`, `"cloud"`), in document order.
    pub realms: Vec<&'static str>,
    /// Tables the satellite's *declared realm selection* requires on the
    /// hub — the set registered aggregates and reports assume.
    pub expected_tables: Vec<Cow<'a, str>>,
    /// Resources excluded from replication (row routing).
    pub excluded_resources: Vec<Cow<'a, str>>,
    /// Catalog of the source schema. A table equal to one of the
    /// previous satellite's is shared with it (see the module doc).
    pub tables: Vec<Arc<TableModel<'a>>>,
    /// Distinct resource names appearing in job records.
    pub job_resources: Vec<Cow<'a, str>>,
    /// Resources with a configured SU conversion factor.
    pub su_factors: Vec<Cow<'a, str>>,
    /// Whether monthly SUPReMM summaries also replicate (§II-C5).
    pub supremm_summaries: bool,
}

impl<'a> SatelliteModel<'a> {
    /// Whether the filter lets `table` cross the link.
    pub fn replicates(&self, table: &str) -> bool {
        match &self.replicated_tables {
            None => true,
            Some(list) => list.iter().any(|t| t == table),
        }
    }

    /// Find a table in the source catalog.
    pub fn table(&self, name: &str) -> Option<&TableModel<'a>> {
        self.tables.iter().find(|t| t.name == name).map(Arc::as_ref)
    }

    /// This satellite, detached from the text it borrows. A table already
    /// in `converted`, keyed by the address of the `Arc` it came from, is
    /// that one; any other is converted and added.
    fn into_owned_sharing(
        self,
        converted: &mut HashMap<usize, Arc<TableModel<'static>>>,
    ) -> SatelliteModel<'static> {
        let tables = self
            .tables
            .into_iter()
            .map(|table| {
                let converted = converted
                    .entry(Arc::as_ptr(&table) as usize)
                    .or_insert_with(|| Arc::new(TableModel::clone(&table).into_owned()));
                Arc::clone(converted)
            })
            .collect();
        SatelliteModel {
            name: owned(self.name),
            link: self.link.into_owned(),
            replicated_tables: self.replicated_tables.map(owned_all),
            realms: self.realms,
            expected_tables: owned_all(self.expected_tables),
            excluded_resources: owned_all(self.excluded_resources),
            tables,
            job_resources: owned_all(self.job_resources),
            su_factors: owned_all(self.su_factors),
            supremm_summaries: self.supremm_summaries,
        }
    }
}

/// One registered hub aggregation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateModel<'a> {
    /// Pipeline name (e.g. the realm).
    pub name: Cow<'a, str>,
    /// Fact table it reads.
    pub fact_table: Cow<'a, str>,
    /// Time column used for period binning.
    pub time_column: Cow<'a, str>,
    /// Source columns of its dimensions.
    pub dimensions: Vec<Cow<'a, str>>,
    /// Source columns of its measures (pure counts carry none).
    pub measures: Vec<Cow<'a, str>>,
}

impl AggregateModel<'_> {
    /// This pipeline, detached from the text it borrows.
    fn into_owned(self) -> AggregateModel<'static> {
        AggregateModel {
            name: owned(self.name),
            fact_table: owned(self.fact_table),
            time_column: owned(self.time_column),
            dimensions: owned_all(self.dimensions),
            measures: owned_all(self.measures),
        }
    }
}

/// The hub's aggregation worker-pool sizing, when the producer knows it.
///
/// Mirrors `xdmod_warehouse::PoolConfig`: `workers` scoped threads fold
/// day-bucket `shards` partitions. `None` fields mean "unspecified";
/// the analyzer only reasons about values actually configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregationPoolModel {
    /// Configured worker threads.
    pub workers: Option<u64>,
    /// Configured day-bucket shard count.
    pub shards: Option<u64>,
}

/// The serving tier's worker-pool sizing, when the producer knows it.
///
/// Mirrors `xdmod_gateway::GatewayConfig`: `workers` request threads
/// drain the gateway's bounded accept queue. `None` means "unspecified";
/// the analyzer only reasons about values actually configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayModel {
    /// Configured HTTP request worker threads.
    pub workers: Option<u64>,
}

/// One alert rule, as configured.
///
/// Mirrors `xdmod_alerts::AlertRule`. `None` fields mean "family
/// default" — the analyzer substitutes the mirrored default windows
/// before comparing. The analyzer reads only the family and the two
/// windows; severity and stale age are for construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertRuleModel<'a> {
    /// Alert family the rule applies to.
    pub family: Cow<'a, str>,
    /// `info` / `warning` / `critical`, as written (`None` = default).
    pub severity: Option<Cow<'a, str>>,
    /// Flap-damping window (`None` = default).
    pub debounce_ms: Option<u64>,
    /// Auto-resolve timeout (`None` = default).
    pub resolve_timeout_ms: Option<u64>,
    /// Stale age (`None` = default).
    pub stale_ms: Option<u64>,
}

/// The alert engine's configuration, when the producer knows it.
///
/// Mirrors `xdmod_alerts::AlertRules`: a per-family rule table plus the
/// notification token-bucket sizing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlertsModel<'a> {
    /// Notification bucket burst capacity (`None` = unspecified).
    pub notify_capacity: Option<u64>,
    /// Notification bucket refill per second (`None` = unspecified).
    pub notify_refill_per_sec: Option<u64>,
    /// Configured rules.
    pub rules: Vec<AlertRuleModel<'a>>,
}

impl AlertsModel<'_> {
    /// This stanza, detached from the text it borrows.
    fn into_owned(self) -> AlertsModel<'static> {
        AlertsModel {
            notify_capacity: self.notify_capacity,
            notify_refill_per_sec: self.notify_refill_per_sec,
            rules: self
                .rules
                .into_iter()
                .map(|rule| AlertRuleModel {
                    family: owned(rule.family),
                    severity: rule.severity.map(owned),
                    debounce_ms: rule.debounce_ms,
                    resolve_timeout_ms: rule.resolve_timeout_ms,
                    stale_ms: rule.stale_ms,
                })
                .collect(),
        }
    }
}

/// The alert families any producer in the workspace emits. Mirrors
/// `xdmod_alerts::FAMILIES` (the analyzer is std-only by design, so the
/// list is duplicated here as data; `tests/alert_mirror.rs` pins the two
/// against each other).
pub fn alert_families() -> &'static [&'static str] {
    &[
        "gateway_saturation",
        "link_down",
        "preflight_refused",
        "quarantine",
        "replication_lag",
    ]
}

/// Default flap-damping window, mirroring
/// `xdmod_alerts::DEFAULT_DEBOUNCE_MS` (pinned by the same sync test as
/// [`alert_families`]).
pub const DEFAULT_ALERT_DEBOUNCE_MS: u64 = 5_000;

/// Default auto-resolve timeout, mirroring
/// `xdmod_alerts::DEFAULT_RESOLVE_TIMEOUT_MS`.
pub const DEFAULT_ALERT_RESOLVE_TIMEOUT_MS: u64 = 30_000;

/// The hub's durable-storage configuration, when the producer knows it.
///
/// The document's `storage` stanza: a backend selector plus the disk
/// backend's directory / segment sizing / snapshot cadence. `None` fields
/// mean "unspecified"; the analyzer only reasons about values actually
/// configured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageModel<'a> {
    /// Backend selector (`"memory"` or `"disk"`); `None` = unspecified.
    pub backend: Option<Cow<'a, str>>,
    /// Disk backend directory.
    pub dir: Option<Cow<'a, str>>,
    /// Maximum binlog segment size, in KiB.
    pub segment_max_kb: Option<u64>,
    /// Auto-snapshot (and compact) every N binlog records.
    pub snapshot_every_records: Option<u64>,
    /// Whether segment appends fsync.
    pub fsync: Option<bool>,
    /// Cold-shard paging stanza (`storage.paging`), when present.
    pub paging: Option<PagingModel<'a>>,
}

impl StorageModel<'_> {
    /// This stanza, detached from the text it borrows.
    fn into_owned(self) -> StorageModel<'static> {
        StorageModel {
            backend: self.backend.map(owned),
            dir: self.dir.map(owned),
            segment_max_kb: self.segment_max_kb,
            snapshot_every_records: self.snapshot_every_records,
            fsync: self.fsync,
            paging: self.paging.map(|paging| PagingModel {
                budget_mb: paging.budget_mb,
                pages_per_table: paging.pages_per_table,
                spill_dir: paging.spill_dir.map(owned),
                fsync: paging.fsync,
            }),
        }
    }
}

/// Budgets at or above this many MiB are treated as "unbounded": the
/// residency manager would never evict, so paging is pure bookkeeping
/// overhead. 1 TiB — far past any real working-set budget.
pub const PAGING_UNBOUNDED_BUDGET_MB: u64 = 1 << 20;

/// The `storage.paging` stanza: a working-set byte budget for the hub's
/// fact tables, with cold day-bucket shards spilled to disk and faulted
/// back in on demand.
///
/// `None` fields mean "unspecified, runtime default applies"; the
/// analyzer only reasons about values actually configured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PagingModel<'a> {
    /// Working-set budget in MiB.
    pub budget_mb: Option<u64>,
    /// Day-bucket pages per fact table.
    pub pages_per_table: Option<u64>,
    /// Spill directory override.
    pub spill_dir: Option<Cow<'a, str>>,
    /// Whether spill writes fsync.
    pub fsync: Option<bool>,
}

/// One group-by query the hub's canned reports issue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupByModel<'a> {
    /// Query/report section name.
    pub name: Cow<'a, str>,
    /// Fact table it reads (per satellite schema, then unioned).
    pub fact_table: Cow<'a, str>,
    /// Grouping columns.
    pub columns: Vec<Cow<'a, str>>,
}

/// The whole analyzable federation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FederationModel<'a> {
    /// Hub name.
    pub hub: Cow<'a, str>,
    /// Member satellites.
    pub satellites: Vec<SatelliteModel<'a>>,
    /// Registered aggregation pipelines.
    pub aggregates: Vec<AggregateModel<'a>>,
    /// Hub group-by query surface.
    pub group_bys: Vec<GroupByModel<'a>>,
    /// Aggregation pool sizing (`None` = unspecified).
    pub aggregation: Option<AggregationPoolModel>,
    /// Serving-tier (gateway) pool sizing (`None` = no gateway).
    pub gateway: Option<GatewayModel>,
    /// Alert engine configuration (`None` = engine defaults, always
    /// valid).
    pub alerts: Option<AlertsModel<'a>>,
    /// Durable-storage configuration (`None` = default memory backend,
    /// always valid).
    pub storage: Option<StorageModel<'a>>,
    /// Telemetry event-ring capacity (`telemetry.event_capacity`;
    /// `None` = the telemetry default).
    pub event_capacity: Option<u64>,
}

/// A string detached from the text it borrows.
fn owned(s: Cow<'_, str>) -> Cow<'static, str> {
    Cow::Owned(s.into_owned())
}

/// Each string of a list detached from the text it borrows.
fn owned_all(list: Vec<Cow<'_, str>>) -> Vec<Cow<'static, str>> {
    list.into_iter().map(owned).collect()
}

/// Sanitize a name the way the workspace's schema conventions do:
/// `-` and `.` become `_`.
pub fn sanitize(name: &str) -> String {
    name.replace(['-', '.'], "_")
}

/// Default satellite-side schema for an instance name (`xdmod_<name>`),
/// mirroring `XdmodInstance::schema_name_of`.
pub fn default_source_schema(name: &str) -> String {
    sanitized_with_prefix("xdmod_", name)
}

/// Default hub-side schema for an instance name (`inst_<name>`),
/// mirroring `FederationHub::schema_for`.
pub fn default_hub_schema(name: &str) -> String {
    sanitized_with_prefix("inst_", name)
}

/// `prefix` then `sanitize(name)`, in one allocation.
fn sanitized_with_prefix(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len());
    out.push_str(prefix);
    out.extend(
        name.chars()
            .map(|c| if matches!(c, '-' | '.') { '_' } else { c }),
    );
    out
}

/// The tables a declared realm requires on the hub, keyed by canonical
/// ident. Mirrors the realm constants in `xdmod-realms` (the analyzer is
/// std-only by design, so the mapping is duplicated here as data;
/// `realm_tables_in_sync_with_check_model` in the realms crate's tests
/// pins the two against each other).
const REALM_TABLES: [(&str, &[&str]); 4] = [
    ("jobs", &["jobfact"]),
    (
        "supremm",
        &["supremm_jobfact", "supremm_timeseries", "supremm_jobscript"],
    ),
    ("storage", &["storagefact"]),
    ("cloud", &["cloudfact", "cloud_reservation"]),
];

/// The table `"supremm_summaries"` adds to a satellite's replication:
/// the monthly SUPReMM summary (§II-C5). Pinned against the realms crate
/// like the realm tables above.
pub const SUPREMM_SUMMARY_TABLE: &str = "supremm_summary_by_month";

/// A realm name's canonical ident and tables (names match ASCII
/// case-insensitively).
fn realm_entry(realm: &str) -> Option<(&'static str, &'static [&'static str])> {
    REALM_TABLES
        .iter()
        .find(|(ident, _)| ident.eq_ignore_ascii_case(realm))
        .copied()
}

/// The tables a declared realm requires on the hub (`None` = unknown
/// realm).
pub fn realm_tables(realm: &str) -> Option<&'static [&'static str]> {
    realm_entry(realm).map(|(_, tables)| tables)
}

/// The table selection build replicates for a satellite with `realms`
/// (canonical idents): the realms' tables, plus
/// [`SUPREMM_SUMMARY_TABLE`] when `supremm_summaries` is set, sorted.
/// `None` — no selection, every table replicates — when that is empty.
/// What an absent `"replicated_tables"` means. The names are borrowed
/// `'static` data.
pub fn realm_selection(realms: &[&str], supremm_summaries: bool) -> Option<Vec<Cow<'static, str>>> {
    let mut tables: Vec<Cow<'static, str>> = realms
        .iter()
        .filter_map(|realm| realm_tables(realm))
        .flatten()
        .chain(supremm_summaries.then_some(&SUPREMM_SUMMARY_TABLE))
        .map(|t| Cow::Borrowed(*t))
        .collect();
    tables.sort_unstable();
    tables.dedup();
    (!tables.is_empty()).then_some(tables)
}

/// A config-file loading failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError(pub String);

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ModelError {}

impl From<JsonError> for ModelError {
    fn from(e: JsonError) -> Self {
        ModelError(format!("config is not valid JSON: {e}"))
    }
}

/// Counts are parsed as `f64`, which holds every integer up to 2^53
/// exactly and not all of them above.
const MAX_COUNT: f64 = (1u64 << 53) as f64;

/// A count member: absent or `null` is `None`; anything present must be
/// an integer in `0..=2^53`, or the load fails naming `key` (a `-1` or
/// `1.5` is not silently saturated into a value nobody wrote). `ctx` is
/// formatted only on failure.
fn opt_u64(
    value: Option<JsonValue>,
    key: &str,
    ctx: impl fmt::Display,
) -> Result<Option<u64>, ModelError> {
    match value.filter(|value| !value.is_null()) {
        None => Ok(None),
        Some(value) => match value.as_f64() {
            Some(n) if (0.0..=MAX_COUNT).contains(&n) && n.fract() == 0.0 => Ok(Some(n as u64)),
            _ => Err(ModelError(format!(
                "{ctx}: \"{key}\" must be an integer in 0..=2^53"
            ))),
        },
    }
}

/// Each element of an array member through `build`, in order; empty when
/// the member is absent or not an array. The first error stops the walk.
fn list_of<T>(
    value: Option<JsonValue>,
    mut build: impl FnMut(JsonValue) -> Result<T, ModelError>,
) -> Result<Vec<T>, ModelError> {
    let Some(items) = value.and_then(JsonValue::as_array) else {
        return Ok(Vec::new());
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(build(item)?);
    }
    Ok(out)
}

/// `s` in ASCII lower case: itself when it has no upper-case letter.
fn lowercase(s: Cow<'_, str>) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        s
    }
}

/// Whether a column document's members `name`, `ty` and `nullable` build
/// a column equal to `column`, read with the build's defaults and nothing
/// allocated. A column that would fail to build reads as none.
fn reads_as(
    column: &ColumnModel,
    name: Option<JsonValue>,
    ty: Option<JsonValue>,
    nullable: Option<JsonValue>,
) -> bool {
    name.is_some_and(|name| name.is_str(&column.name))
        // The build lower-cases a type; `column.ty` is such a one.
        && match ty.and_then(JsonValue::as_str) {
            Some(ty) => ty.eq_ignore_ascii_case(&column.ty),
            None => column.ty == "str",
        }
        && nullable.and_then(JsonValue::as_bool).unwrap_or(false) == column.nullable
}

/// The reader of one federation document: `text` is the input its values
/// were parsed from, which the model's strings borrow. The readers take a
/// member already looked up (by `JsonValue::fields`, one walk per object)
/// and its key, which only their messages use.
#[derive(Clone, Copy)]
struct Reader<'t> {
    text: &'t str,
}

impl<'t> Reader<'t> {
    /// A string member: borrowed from the text unless it has an escape.
    fn string(self, value: Option<JsonValue>) -> Option<Cow<'t, str>> {
        value.and_then(|value| value.str_of(self.text))
    }

    /// A string member that must be there. `ctx` names the object it
    /// sits in; it is formatted only when the member is missing.
    fn required(
        self,
        value: Option<JsonValue>,
        key: &str,
        ctx: impl fmt::Display,
    ) -> Result<Cow<'t, str>, ModelError> {
        self.string(value)
            .ok_or_else(|| ModelError(format!("{ctx}: missing string field \"{key}\"")))
    }

    /// A string member in lower case.
    fn lower(self, value: Option<JsonValue>) -> Option<Cow<'t, str>> {
        self.string(value).map(lowercase)
    }

    /// The strings of an array, in order, if this is an array. Elements
    /// that are not strings are skipped.
    fn string_list(self, value: JsonValue) -> Option<Vec<Cow<'t, str>>> {
        let items = value.as_array()?;
        let mut out = Vec::with_capacity(items.len());
        out.extend(items.filter_map(|item| item.str_of(self.text)));
        Some(out)
    }

    /// The strings of an array member, in order; empty when the member is
    /// absent or not an array.
    fn strings(self, value: Option<JsonValue>) -> Vec<Cow<'t, str>> {
        value
            .and_then(|value| self.string_list(value))
            .unwrap_or_default()
    }

    /// The whole document; see [`FederationModel::from_value`].
    fn federation(self, doc: JsonValue) -> Result<FederationModel<'t>, ModelError> {
        let [hub, satellites, aggregates, group_bys, aggregation, gateway, alerts, storage, telemetry] =
            doc.fields([
                "hub",
                "satellites",
                "aggregates",
                "group_bys",
                "aggregation",
                "gateway",
                "alerts",
                "storage",
                "telemetry",
            ]);
        let hub = self.required(hub, "hub", "config")?;

        // As `list_of` would, each satellite seeing the one before it.
        let entries = satellites.and_then(JsonValue::as_array);
        let mut satellites: Vec<SatelliteModel> =
            Vec::with_capacity(entries.as_ref().map_or(0, ExactSizeIterator::len));
        for entry in entries.into_iter().flatten() {
            let previous = satellites.last().map_or(&[][..], |sat| &sat.tables);
            let sat = self.satellite(entry, previous)?;
            satellites.push(sat);
        }

        let aggregates = list_of(aggregates, |entry| {
            let [name, fact_table, time_column, dimensions, measures] = entry.fields([
                "name",
                "fact_table",
                "time_column",
                "dimensions",
                "measures",
            ]);
            let name = self.required(name, "name", "aggregate")?;
            Ok(AggregateModel {
                fact_table: self.required(
                    fact_table,
                    "fact_table",
                    format_args!("aggregate {name}"),
                )?,
                time_column: self
                    .string(time_column)
                    .unwrap_or(Cow::Borrowed("end_time")),
                dimensions: self.strings(dimensions),
                measures: self.strings(measures),
                name,
            })
        })?;

        let group_bys = list_of(group_bys, |entry| {
            let [name, fact_table, columns] = entry.fields(["name", "fact_table", "columns"]);
            let name = self.required(name, "name", "group_by")?;
            Ok(GroupByModel {
                fact_table: self.required(
                    fact_table,
                    "fact_table",
                    format_args!("group_by {name}"),
                )?,
                columns: self.strings(columns),
                name,
            })
        })?;

        let aggregation = match aggregation {
            Some(entry) => {
                let [workers, shards] = entry.fields(["workers", "shards"]);
                Some(AggregationPoolModel {
                    workers: opt_u64(workers, "workers", "aggregation")?,
                    shards: opt_u64(shards, "shards", "aggregation")?,
                })
            }
            None => None,
        };

        let gateway = match gateway {
            Some(entry) => Some(GatewayModel {
                workers: opt_u64(entry.get("workers"), "workers", "gateway")?,
            }),
            None => None,
        };

        let alerts = match alerts {
            Some(entry) => Some(self.alerts(entry)?),
            None => None,
        };

        let storage = match storage {
            Some(entry) => Some(self.storage(entry)?),
            None => None,
        };

        let event_capacity = match telemetry {
            Some(entry) => opt_u64(entry.get("event_capacity"), "event_capacity", "telemetry")?,
            None => None,
        };

        Ok(FederationModel {
            hub,
            satellites,
            aggregates,
            group_bys,
            aggregation,
            gateway,
            alerts,
            storage,
            event_capacity,
        })
    }

    /// The `storage` stanza, with its `paging` stanza.
    fn storage(self, entry: JsonValue) -> Result<StorageModel<'t>, ModelError> {
        let [backend, dir, segment_max_kb, snapshot_every_records, fsync, paging] = entry.fields([
            "backend",
            "dir",
            "segment_max_kb",
            "snapshot_every_records",
            "fsync",
            "paging",
        ]);
        Ok(StorageModel {
            backend: self.lower(backend),
            dir: self.string(dir),
            segment_max_kb: opt_u64(segment_max_kb, "segment_max_kb", "storage")?,
            snapshot_every_records: opt_u64(
                snapshot_every_records,
                "snapshot_every_records",
                "storage",
            )?,
            fsync: fsync.and_then(JsonValue::as_bool),
            paging: match paging {
                Some(p) => {
                    let [budget_mb, pages_per_table, spill_dir, fsync] =
                        p.fields(["budget_mb", "pages_per_table", "spill_dir", "fsync"]);
                    Some(PagingModel {
                        budget_mb: opt_u64(budget_mb, "budget_mb", "storage.paging")?,
                        pages_per_table: opt_u64(
                            pages_per_table,
                            "pages_per_table",
                            "storage.paging",
                        )?,
                        spill_dir: self.string(spill_dir),
                        fsync: fsync.and_then(JsonValue::as_bool),
                    })
                }
                None => None,
            },
        })
    }

    /// The `alerts` stanza. A rule without a string `family` is skipped.
    fn alerts(self, entry: JsonValue) -> Result<AlertsModel<'t>, ModelError> {
        let [rule_list, notify_capacity, notify_refill_per_sec] =
            entry.fields(["rules", "notify_capacity", "notify_refill_per_sec"]);
        let mut rules = Vec::new();
        for rule in rule_list
            .and_then(JsonValue::as_array)
            .into_iter()
            .flatten()
        {
            let [family, severity, debounce_ms, resolve_timeout_ms, stale_ms] = rule.fields([
                "family",
                "severity",
                "debounce_ms",
                "resolve_timeout_ms",
                "stale_ms",
            ]);
            let Some(family) = self.string(family) else {
                continue;
            };
            let count = |value, key| opt_u64(value, key, format_args!("alert rule {family}"));
            rules.push(AlertRuleModel {
                severity: self.string(severity),
                debounce_ms: count(debounce_ms, "debounce_ms")?,
                resolve_timeout_ms: count(resolve_timeout_ms, "resolve_timeout_ms")?,
                stale_ms: count(stale_ms, "stale_ms")?,
                family,
            });
        }
        Ok(AlertsModel {
            notify_capacity: opt_u64(notify_capacity, "notify_capacity", "alerts")?,
            notify_refill_per_sec: opt_u64(
                notify_refill_per_sec,
                "notify_refill_per_sec",
                "alerts",
            )?,
            rules,
        })
    }

    /// A satellite; each table equal to one of `previous` (the previous
    /// satellite's) is that table, shared.
    fn satellite(
        self,
        entry: JsonValue,
        previous: &[Arc<TableModel<'t>>],
    ) -> Result<SatelliteModel<'t>, ModelError> {
        let [name, realm_list, extra_tables, summaries, replicated, table_list, link_id, source_schema, hub_schema, mode, retries, excluded_resources, job_resources, su_factors] =
            entry.fields([
                "name",
                "realms",
                "expected_tables",
                "supremm_summaries",
                "replicated_tables",
                "tables",
                "link_id",
                "source_schema",
                "hub_schema",
                "mode",
                "retries",
                "excluded_resources",
                "job_resources",
                "su_factors",
            ]);
        let name = self.required(name, "name", "satellite")?;

        let mut realms = Vec::new();
        let mut expected_tables: Vec<Cow<'t, str>> = Vec::new();
        for realm in realm_list
            .and_then(JsonValue::as_array)
            .into_iter()
            .flatten()
            .filter_map(JsonValue::as_str)
        {
            let (ident, tables) = realm_entry(realm).ok_or_else(|| {
                ModelError(format!("satellite {name}: unknown realm \"{realm}\""))
            })?;
            realms.push(ident);
            expected_tables.extend(tables.iter().map(|t| Cow::Borrowed(*t)));
        }
        // Explicit expected_tables add to (or replace) the realm-derived
        // list, for configs that track custom tables.
        expected_tables.extend(self.strings(extra_tables));
        expected_tables.sort_unstable();
        expected_tables.dedup();

        let supremm_summaries = summaries.and_then(JsonValue::as_bool).unwrap_or(false);
        // An absent list is the selection build derives, not "every table".
        let replicated_tables = replicated
            .and_then(|list| self.string_list(list))
            .or_else(|| realm_selection(&realms, supremm_summaries));

        let tables = list_of(table_list, |table| self.table(table, previous, &name))?;

        Ok(SatelliteModel {
            link: LinkModel {
                id: self.string(link_id).unwrap_or_else(|| name.clone()),
                source_schema: self
                    .string(source_schema)
                    .unwrap_or_else(|| Cow::Owned(default_source_schema(&name))),
                hub_schema: self
                    .string(hub_schema)
                    .unwrap_or_else(|| Cow::Owned(default_hub_schema(&name))),
                mode: self.lower(mode),
                retries: opt_u64(retries, "retries", format_args!("satellite {name}"))?,
            },
            replicated_tables,
            expected_tables,
            excluded_resources: self.strings(excluded_resources),
            tables,
            job_resources: self.strings(job_resources),
            su_factors: self.strings(su_factors),
            supremm_summaries,
            realms,
            name,
        })
    }

    /// A table of satellite `sat`, in one walk over its columns. While
    /// they read as the columns of a table of `previous` (the previous
    /// satellite's) with the same name and as many columns, nothing is
    /// built: a table equal to one of `previous` is that one, shared (the
    /// first such, should two be equal). Otherwise the columns matched so
    /// far are cloned and the rest built from the document. Any error is
    /// the one the build raises: a column that reads as another was built
    /// without one.
    fn table(
        self,
        entry: JsonValue,
        previous: &[Arc<TableModel<'t>>],
        sat: &str,
    ) -> Result<Arc<TableModel<'t>>, ModelError> {
        let [name, columns] = entry.fields(["name", "columns"]);
        let name = self.required(name, "name", format_args!("satellite {sat}"))?;
        let columns = columns.and_then(JsonValue::as_array);
        let len = columns.as_ref().map_or(0, ExactSizeIterator::len);
        let fresh = |prefix: &[ColumnModel<'t>]| {
            let mut built = Vec::with_capacity(len);
            built.extend_from_slice(prefix);
            built
        };
        let mut candidates = previous
            .iter()
            .filter(|t| t.name == name && t.columns.len() == len);
        // The first candidate whose first `n` columns the document's are.
        let mut matched = candidates.next();
        let mut built = if matched.is_some() {
            Vec::new()
        } else {
            fresh(&[])
        };
        for (n, col) in columns.into_iter().flatten().enumerate() {
            let [col_name, ty, nullable] = col.fields(["name", "type", "nullable"]);
            if let Some(table) = matched {
                let reads_on = |t: &TableModel| reads_as(&t.columns[n], col_name, ty, nullable);
                if reads_on(table) {
                    continue;
                }
                // A later one with the same first `n` columns may read on.
                matched = candidates.find(|t| t.columns[..n] == table.columns[..n] && reads_on(t));
                if matched.is_some() {
                    continue;
                }
                built = fresh(&table.columns[..n]);
            }
            built.push(ColumnModel {
                name: self.required(
                    col_name,
                    "name",
                    format_args!("satellite {sat} table {name}"),
                )?,
                ty: self.lower(ty).unwrap_or(Cow::Borrowed("str")),
                nullable: nullable.and_then(JsonValue::as_bool).unwrap_or(false),
            });
        }
        if let Some(table) = matched {
            return Ok(Arc::clone(table));
        }
        Ok(Arc::new(TableModel {
            name,
            columns: built,
        }))
    }
}

impl<'a> FederationModel<'a> {
    /// Load from the federation document's JSON text: parse, then
    /// [`FederationModel::from_value`]. The model borrows `text`, not the
    /// parsed document, which is dropped before this returns. See
    /// `examples/configs/` for worked documents.
    pub fn from_json(text: &'a str) -> Result<Self, ModelError> {
        Reader { text }.federation(crate::json::parse(text)?.root())
    }

    /// Load from a parsed federation document, borrowing its input text.
    /// Unknown realm names, structurally missing fields and counts that
    /// are not integers in `0..=2^53` are errors; everything else
    /// defaults to the workspace conventions. Unknown keys are ignored.
    pub fn from_value(doc: JsonValue<'a>) -> Result<Self, ModelError> {
        Reader { text: doc.input() }.federation(doc)
    }

    /// This model, detached from the text it borrows: every string owned.
    /// A table shared by several satellites is converted once and stays
    /// shared.
    pub fn into_owned(self) -> FederationModel<'static> {
        let mut converted = HashMap::new();
        FederationModel {
            hub: owned(self.hub),
            satellites: self
                .satellites
                .into_iter()
                .map(|sat| sat.into_owned_sharing(&mut converted))
                .collect(),
            aggregates: self
                .aggregates
                .into_iter()
                .map(AggregateModel::into_owned)
                .collect(),
            group_bys: self
                .group_bys
                .into_iter()
                .map(|gb| GroupByModel {
                    name: owned(gb.name),
                    fact_table: owned(gb.fact_table),
                    columns: owned_all(gb.columns),
                })
                .collect(),
            aggregation: self.aggregation,
            gateway: self.gateway,
            alerts: self.alerts.map(AlertsModel::into_owned),
            storage: self.storage.map(StorageModel::into_owned),
            event_capacity: self.event_capacity,
        }
    }
}

/// The integration tests' topologies, shared with the unit tests below.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    const MINIMAL: &str = r#"{
        "hub": "hub",
        "satellites": [
            {"name": "site-a", "realms": ["jobs"]}
        ]
    }"#;

    #[test]
    fn minimal_config_fills_defaults() {
        let m = FederationModel::from_json(MINIMAL).unwrap();
        assert_eq!(m.hub, "hub");
        assert_eq!(m.aggregation, None);
        assert_eq!(m.gateway, None);
        let s = &m.satellites[0];
        assert_eq!(s.link.id, "site-a");
        assert_eq!(s.link.source_schema, "xdmod_site_a");
        assert_eq!(s.link.hub_schema, "inst_site_a");
        assert_eq!(s.link.mode, None);
        assert_eq!(s.link.retries, None);
        assert_eq!(s.expected_tables, vec!["jobfact"]);
        // No list: the realms' selection, as build replicates it.
        assert_eq!(s.replicated_tables, Some(vec!["jobfact".into()]));
        assert!(s.replicates("jobfact"));
        assert!(!s.replicates("anything"));
    }

    #[test]
    fn an_absent_table_list_reads_as_the_realm_selection() {
        let tables = |realms: &str, summaries: bool| {
            let doc = format!(
                r#"{{"hub": "h", "satellites": [{{"name": "x", "realms": [{realms}],
                    "supremm_summaries": {summaries}}}]}}"#
            );
            let model = FederationModel::from_json(&doc).unwrap();
            let list = model.satellites[0].replicated_tables.as_ref();
            list.map(|tables| tables.iter().map(|t| t.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(tables("", false), None);
        assert_eq!(tables("", true), Some(vec![SUPREMM_SUMMARY_TABLE.into()]));
        assert_eq!(
            tables(r#""cloud", "jobs", "Jobs""#, true),
            Some(vec![
                "cloud_reservation".into(),
                "cloudfact".into(),
                "jobfact".into(),
                "supremm_summary_by_month".into(),
            ])
        );
        assert_eq!(
            realm_selection(&["storage"], false),
            Some(vec!["storagefact".into()])
        );
    }

    #[test]
    fn full_satellite_round_trip() {
        let m = FederationModel::from_json(
            r#"{
            "hub": "h",
            "satellites": [{
                "name": "x",
                "link_id": "link-x",
                "source_schema": "src",
                "hub_schema": "dst",
                "mode": "Tight",
                "retries": 0,
                "realms": ["jobs", "supremm"],
                "replicated_tables": ["jobfact"],
                "excluded_resources": ["secret"],
                "job_resources": ["open", "secret"],
                "su_factors": ["open"],
                "tables": [{
                    "name": "jobfact",
                    "columns": [
                        {"name": "resource", "type": "Str"},
                        {"name": "cpu_hours", "type": "float", "nullable": true}
                    ]
                }]
            }],
            "aggregates": [{
                "name": "jobs", "fact_table": "jobfact",
                "time_column": "end_time",
                "dimensions": ["resource"], "measures": ["cpu_hours"]
            }],
            "group_bys": [{
                "name": "usage", "fact_table": "jobfact", "columns": ["resource"]
            }]
        }"#,
        )
        .unwrap();
        let s = &m.satellites[0];
        assert_eq!(s.link.id, "link-x");
        assert_eq!(s.link.mode.as_deref(), Some("tight"));
        assert_eq!(s.link.retries, Some(0));
        assert!(s.replicates("jobfact"));
        assert!(!s.replicates("supremm_jobfact"));
        assert!(s.expected_tables.contains(&"supremm_timeseries".into()));
        let t = s.table("jobfact").unwrap();
        assert_eq!(t.column("resource").unwrap().ty, "str");
        assert!(t.column("cpu_hours").unwrap().nullable);
        assert_eq!(m.aggregates[0].measures, vec!["cpu_hours"]);
        assert_eq!(m.group_bys[0].columns, vec!["resource"]);
    }

    #[test]
    fn aggregation_pool_parses_partial_fields() {
        let m = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [], "aggregation": {"workers": 16}}"#,
        )
        .unwrap();
        assert_eq!(
            m.aggregation,
            Some(AggregationPoolModel {
                workers: Some(16),
                shards: None
            })
        );
        let m = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [],
                "aggregation": {"workers": 16, "shards": 4}}"#,
        )
        .unwrap();
        assert_eq!(
            m.aggregation,
            Some(AggregationPoolModel {
                workers: Some(16),
                shards: Some(4)
            })
        );
    }

    #[test]
    fn gateway_pool_parses() {
        let m = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [], "gateway": {"workers": 8}}"#,
        )
        .unwrap();
        assert_eq!(m.gateway, Some(GatewayModel { workers: Some(8) }));
        // An empty gateway object is "present but unsized".
        let m =
            FederationModel::from_json(r#"{"hub": "h", "satellites": [], "gateway": {}}"#).unwrap();
        assert_eq!(m.gateway, Some(GatewayModel { workers: None }));
    }

    #[test]
    fn alerts_section_parses() {
        let m = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [],
                "alerts": {
                    "notify_capacity": 0,
                    "rules": [
                        {"family": "link_down", "debounce_ms": 10000},
                        {"family": "replication_lag", "resolve_timeout_ms": 4000}
                    ]
                }}"#,
        )
        .unwrap();
        let alerts = m.alerts.unwrap();
        assert_eq!(alerts.notify_capacity, Some(0));
        assert_eq!(alerts.notify_refill_per_sec, None);
        assert_eq!(alerts.rules.len(), 2);
        assert_eq!(alerts.rules[0].family, "link_down");
        assert_eq!(alerts.rules[0].debounce_ms, Some(10_000));
        assert_eq!(alerts.rules[0].resolve_timeout_ms, None);
        assert_eq!(alerts.rules[1].resolve_timeout_ms, Some(4_000));
        // Absent section stays None.
        let m = FederationModel::from_json(MINIMAL).unwrap();
        assert_eq!(m.alerts, None);
    }

    #[test]
    fn storage_section_parses() {
        let m = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [],
                "storage": {
                    "backend": "Disk",
                    "dir": "/var/lib/xdmod/wal",
                    "segment_max_kb": 1024,
                    "snapshot_every_records": 5000,
                    "fsync": false
                }}"#,
        )
        .unwrap();
        let storage = m.storage.unwrap();
        assert_eq!(storage.backend.as_deref(), Some("disk"));
        assert_eq!(storage.dir.as_deref(), Some("/var/lib/xdmod/wal"));
        assert_eq!(storage.segment_max_kb, Some(1024));
        assert_eq!(storage.snapshot_every_records, Some(5000));
        assert_eq!(storage.fsync, Some(false));
        assert_eq!(storage.paging, None);
        // A paging stanza parses field-for-field.
        let m = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [], "storage": {
                "backend": "disk", "dir": "/wal",
                "paging": {"budget_mb": 64, "pages_per_table": 8,
                           "spill_dir": "/wal/paging", "fsync": true}}}"#,
        )
        .unwrap();
        let paging = m.storage.unwrap().paging.unwrap();
        assert_eq!(paging.budget_mb, Some(64));
        assert_eq!(paging.pages_per_table, Some(8));
        assert_eq!(paging.spill_dir.as_deref(), Some("/wal/paging"));
        assert_eq!(paging.fsync, Some(true));
        // An empty paging object is "present but unspecified".
        let m = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [], "storage": {"backend": "disk", "dir": "/wal", "paging": {}}}"#,
        )
        .unwrap();
        assert_eq!(m.storage.unwrap().paging, Some(PagingModel::default()));
        // An empty storage object is "present but unspecified".
        let m =
            FederationModel::from_json(r#"{"hub": "h", "satellites": [], "storage": {}}"#).unwrap();
        assert_eq!(m.storage, Some(StorageModel::default()));
        // Absent section stays None.
        let m = FederationModel::from_json(MINIMAL).unwrap();
        assert_eq!(m.storage, None);
    }

    #[test]
    fn alert_family_mirror_is_sorted_and_plausible() {
        let families = alert_families();
        let mut sorted = families.to_vec();
        sorted.sort_unstable();
        assert_eq!(families, &sorted[..]);
        assert!(families.contains(&"link_down"));
        const { assert!(DEFAULT_ALERT_RESOLVE_TIMEOUT_MS > DEFAULT_ALERT_DEBOUNCE_MS) };
    }

    #[test]
    fn unknown_realm_is_an_error() {
        let err = FederationModel::from_json(
            r#"{"hub": "h", "satellites": [{"name": "x", "realms": ["quantum"]}]}"#,
        )
        .unwrap_err();
        assert!(err.to_string().contains("quantum"));
    }

    #[test]
    fn load_errors_name_the_offender() {
        let err = |text: &str| FederationModel::from_json(text).unwrap_err().to_string();
        let cases = [
            (
                r#"{"hub": "h", "satellites": [{"realms": ["jobs"]}]}"#,
                r#"satellite: missing string field "name""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "tables": [{"columns": []}]}]}"#,
                r#"satellite x: missing string field "name""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x",
                    "tables": [{"name": "t", "columns": [{"name": "a"}, {"type": "int"}]}]}]}"#,
                r#"satellite x table t: missing string field "name""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "realms": ["jobs", "quantum"]}]}"#,
                r#"satellite x: unknown realm "quantum""#,
            ),
            (
                r#"{"hub": "h", "aggregates": [{"name": "jobs"}]}"#,
                r#"aggregate jobs: missing string field "fact_table""#,
            ),
            (
                r#"{"hub": "h", "group_bys": [{"name": "g", "fact_table": 3}]}"#,
                r#"group_by g: missing string field "fact_table""#,
            ),
            (
                r#"{"satellites": []}"#,
                r#"config: missing string field "hub""#,
            ),
            (
                r#"{"hub": }"#,
                "config is not valid JSON: expected a JSON value at byte 8",
            ),
            // Counts are read strictly: no saturating a negative, a
            // fraction or a string into a value nobody wrote.
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "retries": -1}]}"#,
                r#"satellite x: "retries" must be an integer in 0..=2^53"#,
            ),
            (
                r#"{"hub": "h", "aggregation": {"workers": 1.5}}"#,
                r#"aggregation: "workers" must be an integer in 0..=2^53"#,
            ),
            (
                r#"{"hub": "h", "storage": {"paging": {"budget_mb": "8"}}}"#,
                r#"storage.paging: "budget_mb" must be an integer in 0..=2^53"#,
            ),
            (
                r#"{"hub": "h", "alerts": {"rules": [{"family": "link_down", "stale_ms": 1e30}]}}"#,
                r#"alert rule link_down: "stale_ms" must be an integer in 0..=2^53"#,
            ),
        ];
        for (text, want) in cases {
            assert_eq!(err(text), want, "{text}");
        }
    }

    #[test]
    fn counts_accept_integers_up_to_2_pow_53_and_null() {
        let retries = |v: &str| {
            FederationModel::from_json(&format!(
                r#"{{"hub": "h", "satellites": [{{"name": "x", "retries": {v}}}]}}"#
            ))
            .map(|m| m.satellites[0].link.retries)
        };
        assert_eq!(retries("0"), Ok(Some(0)));
        assert_eq!(retries("3.0"), Ok(Some(3)));
        assert_eq!(retries("null"), Ok(None));
        assert_eq!(retries("9007199254740992"), Ok(Some(1 << 53)));
        assert!(retries("9007199254740994").is_err());
        assert!(retries("true").is_err());
    }

    #[test]
    fn construction_fields_parse() {
        let m = FederationModel::from_json(
            r#"{"hub": "h",
                "satellites": [{"name": "x", "realms": ["Cloud", "jobs"],
                                "supremm_summaries": true}],
                "telemetry": {"event_capacity": 128},
                "alerts": {"rules": [{"family": "link_down",
                                      "severity": "info", "stale_ms": 9000}]}}"#,
        )
        .unwrap();
        let s = &m.satellites[0];
        assert_eq!(s.realms, vec!["cloud", "jobs"]);
        assert!(s.supremm_summaries);
        assert_eq!(m.event_capacity, Some(128));
        let rule = &m.alerts.unwrap().rules[0];
        assert_eq!(rule.severity.as_deref(), Some("info"));
        assert_eq!(rule.stale_ms, Some(9_000));
        // Absent, they default.
        let m = FederationModel::from_json(MINIMAL).unwrap();
        assert!(!m.satellites[0].supremm_summaries);
        assert_eq!(m.event_capacity, None);
    }

    #[test]
    fn missing_hub_is_an_error() {
        assert!(FederationModel::from_json(r#"{"satellites": []}"#).is_err());
        assert!(FederationModel::from_json("not json").is_err());
    }

    #[test]
    fn realm_table_mapping_covers_all_realms() {
        for realm in ["jobs", "supremm", "storage", "cloud", "Jobs"] {
            assert!(realm_tables(realm).is_some(), "realm {realm}");
        }
        assert!(realm_tables("nope").is_none());
    }

    #[test]
    fn schema_defaults_sanitize_like_the_workspace() {
        assert_eq!(default_source_schema("ccr-x.y"), "xdmod_ccr_x_y");
        assert_eq!(default_hub_schema("ccr-x.y"), "inst_ccr_x_y");
    }

    /// The document `root` with its `satellites` replaced by `satellite`
    /// alone (or by none), as compact JSON text.
    fn with_satellites(root: JsonValue, satellite: Option<JsonValue>) -> String {
        let mut text = String::from("{");
        for (key, value) in root.members().into_iter().flatten() {
            if key != "satellites" {
                text += &format!("{}:{value},", json::escape(key));
            }
        }
        let satellite = satellite.map(|s| s.to_string()).unwrap_or_default();
        text + &format!("\"satellites\":[{satellite}]}}")
    }

    /// `text` built one satellite at a time, each from a document holding
    /// only it, so no table is shared; errors come in the order one
    /// document raises them.
    fn one_at_a_time(text: &str) -> Result<FederationModel<'static>, ModelError> {
        let doc = json::parse(text)?;
        let root = doc.root();
        let mut satellites = Vec::new();
        let entries = root.get("satellites").and_then(JsonValue::as_array);
        for entry in entries.into_iter().flatten() {
            let one = FederationModel::from_json(&with_satellites(root, Some(entry)))?.into_owned();
            satellites.extend(one.satellites);
        }
        let mut model = FederationModel::from_json(&with_satellites(root, None))?.into_owned();
        model.satellites = satellites;
        Ok(model)
    }

    /// Every table of satellite `i > 0` is the first equal table of
    /// satellite `i - 1` when it has one, and none of its tables otherwise.
    fn shared_with_the_predecessor(model: &FederationModel) -> usize {
        let mut shared = 0;
        for pair in model.satellites.windows(2) {
            for table in &pair[1].tables {
                let previous = &pair[0].tables;
                match previous.iter().find(|t| t == &table) {
                    Some(equal) => {
                        assert!(Arc::ptr_eq(equal, table), "{table:?}");
                        shared += 1;
                    }
                    None => assert!(!previous.iter().any(|t| Arc::ptr_eq(t, table))),
                }
            }
        }
        shared
    }

    /// `from_json` on `text` is, by value and by `Debug` text, the model
    /// (or the error) built one satellite at a time, shared as the rule
    /// says, and its detached twin. Returns the tables shared.
    fn builds_as_if_unshared(text: &str, what: &str) -> usize {
        let (got, want) = (FederationModel::from_json(text), one_at_a_time(text));
        assert_eq!(got, want, "{what}");
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        got.map_or(0, |model| {
            detaches_unchanged(&model, text, what);
            shared_with_the_predecessor(&model)
        })
    }

    /// Every string of `model` read from a document or derived from one,
    /// in a fixed order.
    fn strings<'m, 'a>(model: &'m FederationModel<'a>) -> Vec<&'m Cow<'a, str>> {
        let mut out = vec![&model.hub];
        for sat in &model.satellites {
            let link = &sat.link;
            out.extend([&sat.name, &link.id, &link.source_schema, &link.hub_schema]);
            out.extend(&link.mode);
            out.extend(sat.replicated_tables.iter().flatten());
            out.extend(&sat.expected_tables);
            out.extend(&sat.excluded_resources);
            for table in &sat.tables {
                out.push(&table.name);
                out.extend(table.columns.iter().flat_map(|c| [&c.name, &c.ty]));
            }
            out.extend(&sat.job_resources);
            out.extend(&sat.su_factors);
        }
        for agg in &model.aggregates {
            out.extend([&agg.name, &agg.fact_table, &agg.time_column]);
            out.extend(&agg.dimensions);
            out.extend(&agg.measures);
        }
        for gb in &model.group_bys {
            out.extend([&gb.name, &gb.fact_table]);
            out.extend(&gb.columns);
        }
        for rule in model.alerts.iter().flat_map(|a| &a.rules) {
            out.push(&rule.family);
            out.extend(&rule.severity);
        }
        if let Some(storage) = &model.storage {
            out.extend(&storage.backend);
            out.extend(&storage.dir);
            out.extend(storage.paging.iter().flat_map(|p| &p.spill_dir));
        }
        out
    }

    /// Whether `s` is a slice of `text`: an owned string never is.
    fn borrows(s: &str, text: &str) -> bool {
        text.as_bytes().as_ptr_range().contains(&s.as_ptr())
    }

    /// `model`, built from `text`, and `model.into_owned()` are equal by
    /// value and by `Debug` text; the twin owns every string and shares
    /// each table as `model` does.
    fn detaches_unchanged(model: &FederationModel, text: &str, what: &str) {
        let twin = model.clone().into_owned();
        assert_eq!(&twin, model, "{what}");
        assert_eq!(format!("{twin:?}"), format!("{model:?}"), "{what}");
        let strings = strings(&twin);
        assert!(strings.iter().all(|s| matches!(s, Cow::Owned(_))), "{what}");
        assert!(strings.iter().all(|s| !borrows(s, text)), "{what}");
        let tables = |m: &FederationModel| -> Vec<*const ()> {
            let all = m.satellites.iter().flat_map(|s| &s.tables);
            all.map(|t| Arc::as_ptr(t).cast()).collect()
        };
        let (theirs, mine) = (tables(model), tables(&twin));
        for (i, j) in (0..mine.len()).flat_map(|i| (0..i).map(move |j| (i, j))) {
            assert_eq!(mine[i] == mine[j], theirs[i] == theirs[j], "{what}");
        }
    }

    #[test]
    fn an_escape_free_topology_borrows_all_but_the_derived_schemas() {
        let text = common::topology(30);
        let model = FederationModel::from_json(&text).unwrap();
        for s in strings(&model) {
            // The realm tables the expected lists name are `'static`.
            let derived = s.starts_with("xdmod_") || s.starts_with("inst_");
            assert_eq!(matches!(s, Cow::Borrowed(_)), !derived, "{s:?}");
        }
        for sat in &model.satellites {
            assert!(borrows(&sat.name, &text) && borrows(&sat.link.id, &text));
            assert!(sat.job_resources.iter().all(|r| borrows(r, &text)));
        }
        // The parsed tape is gone; the text outlives the model.
        drop(text);
    }

    #[test]
    fn escaped_strings_build_the_model_their_unescaped_twin_builds() {
        // `-` written as `\u002d` and `/` as `\/` in names, link ids,
        // resources, table and column names and column types.
        let twin = r#"{"hub": "hub-1", "satellites": [
            {"name": "site-a", "link_id": "link/a", "realms": ["jobs"],
             "replicated_tables": ["job-fact"], "excluded_resources": ["res/x"],
             "job_resources": ["res-1", "res/x"], "su_factors": ["res-1"],
             "tables": [{"name": "job-fact", "columns": [
                 {"name": "res-ource", "type": "time/zone"},
                 {"name": "end_time", "type": "t-ime"}]}]},
            {"name": "site-b", "realms": ["jobs"],
             "tables": [{"name": "job-fact", "columns": [
                 {"name": "res-ource", "type": "time/zone"},
                 {"name": "end_time", "type": "t-ime"}]}]}],
            "group_bys": [{"name": "by res-ource", "fact_table": "job-fact",
                           "columns": ["res-ource"]}]}"#;
        let escaped = twin.replace('-', r"\u002d").replace('/', r"\/");
        let (want, got) = (
            FederationModel::from_json(twin).unwrap(),
            FederationModel::from_json(&escaped).unwrap(),
        );
        assert_eq!(got, want);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(got.satellites[1].link.id, "site-b");
        assert!(Arc::ptr_eq(
            &got.satellites[0].tables[0],
            &got.satellites[1].tables[0]
        ));
        let (mine, theirs) = (strings(&got), strings(&want));
        let mut escapes = 0;
        for (mine, theirs) in mine.into_iter().zip(theirs) {
            let derived = theirs.starts_with("xdmod_") || theirs.starts_with("inst_");
            if theirs.contains(['-', '/']) && !derived {
                assert!(matches!(mine, Cow::Owned(_)), "{mine:?}");
                assert!(borrows(theirs, twin), "{theirs:?}");
                escapes += 1;
            } else if !derived {
                assert!(matches!(mine, Cow::Borrowed(_)), "{mine:?}");
            }
        }
        assert_eq!(escapes, 21);
        detaches_unchanged(&got, &escaped, "escaped");
    }

    #[test]
    fn shared_tables_build_the_model_one_satellite_documents_build() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        let mut configs = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|ext| ext == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                builds_as_if_unshared(&text, &path.display().to_string());
                configs += 1;
            }
        }
        assert!(configs >= 6, "{configs}");
        for n in [3, 30, 300] {
            let shared = builds_as_if_unshared(&common::topology(n), &format!("topology({n})"));
            assert_eq!(shared, 2 * (n - 1));
        }
        // Satellites 2..N hold satellite 1's tables.
        let text = common::topology(300);
        let model = FederationModel::from_json(&text).unwrap();
        let first = model.satellites[0].tables[0].clone();
        assert_eq!(first.name, "jobfact");
        assert!(model
            .satellites
            .iter()
            .all(|s| Arc::ptr_eq(&s.tables[0], &first)));
    }

    /// A small seeded generator (an LCG), so the crate stays std-only.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// The two tables each generated satellite has, with their columns.
    const CATALOG: [(&str, &[(&str, &str)]); 2] = [
        (
            "jobfact",
            &[
                ("resource", "str"),
                ("end_time", "time"),
                ("cpu_hours", "float"),
            ],
        ),
        ("storagefact", &[("resource", "str"), ("bytes_used", "int")]),
    ];

    /// A table document, one mutation in two: one that builds an equal
    /// table from other text (`"STR"`, an absent or non-string type where
    /// `"str"` is meant, `nullable` absent or `false`) or one that builds
    /// another table (a name, a column order, a type, `nullable: true`,
    /// no `columns` array) or fails (a column without a name).
    fn table_doc(rng: &mut Lcg, name: &str, columns: &[(&str, &str)]) -> String {
        let mut cols: Vec<Vec<String>> = columns
            .iter()
            .map(|(n, ty)| vec![format!(r#""name": "{n}""#), format!(r#""type": "{ty}""#)])
            .collect();
        let mut name = name.to_owned();
        let mut list = None;
        let k = rng.below(cols.len());
        match rng.below(16) {
            0 => name.push('2'),
            1 => cols.swap(k, rng.below(columns.len())),
            2 => cols[k][1] = format!(r#""type": "{}""#, columns[k].1.to_uppercase()),
            3 => drop(cols[k].remove(1)),
            4 => {
                cols[k][1] =
                    [r#""type": 7"#, r#""type": null"#, r#""type": ["int"]"#][rng.below(3)].into()
            }
            5 => cols[k].push(
                [
                    r#""nullable": false"#,
                    r#""nullable": true"#,
                    r#""nullable": "yes""#,
                ][rng.below(3)]
                .into(),
            ),
            6 if rng.below(4) == 0 => drop(cols[k].remove(0)),
            7 => list = Some([r#"{}"#, r#""x""#, "null", "[]"][rng.below(4)].to_owned()),
            _ => {}
        }
        let list = list.unwrap_or_else(|| {
            let cols: Vec<String> = cols
                .iter()
                .map(|c| format!("{{{}}}", c.join(", ")))
                .collect();
            format!("[{}]", cols.join(", "))
        });
        format!(r#"{{"name": "{name}", "columns": {list}}}"#)
    }

    #[test]
    fn mutated_tables_share_only_what_builds_equal() {
        let mut rng = Lcg(0x7368_6172_6564);
        let (mut shared, mut tables, mut errors) = (0, 0, 0);
        for case in 0..2_000 {
            let satellites: Vec<String> = (0..1 + rng.below(8))
                .map(|i| {
                    let mut docs: Vec<String> = CATALOG
                        .iter()
                        .map(|(name, columns)| table_doc(&mut rng, name, columns))
                        .collect();
                    // A second table of one name, so a predecessor can
                    // hold two tables a document may equal.
                    if rng.below(3) == 0 {
                        let (name, columns) = CATALOG[0];
                        docs.insert(rng.below(3), table_doc(&mut rng, name, columns));
                    }
                    if rng.below(4) == 0 {
                        docs.reverse();
                    }
                    tables += docs.len();
                    format!(
                        r#"{{"name": "s{i}", "realms": ["jobs"], "tables": [{}]}}"#,
                        docs.join(", ")
                    )
                })
                .collect();
            let text = format!(
                r#"{{"hub": "h", "satellites": [{}]}}"#,
                satellites.join(", ")
            );
            shared += builds_as_if_unshared(&text, &format!("case {case}: {text}"));
            errors += usize::from(FederationModel::from_json(&text).is_err());
        }
        // Most tables were shared, and some documents failed.
        assert!(shared > tables / 3, "{shared} of {tables}");
        assert!((20..400).contains(&errors), "{errors}");
    }
}
