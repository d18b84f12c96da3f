//! The pre-flight analysis passes.
//!
//! Each check is a pure function over the [`FederationModel`] appending
//! to a [`Diagnostics`] collection; [`analyze`] runs them all in code
//! order. Every check detects, *before any data moves*, a
//! misconfiguration that today fails silently at runtime — see each
//! check's doc comment for the concrete runtime symptom it prevents.

use std::collections::HashMap;
use std::sync::Arc;

use crate::diag::{Code, Diagnostic, Diagnostics, Severity, Span};
use crate::model::{
    alert_families, ColumnModel, FederationModel, SatelliteModel, TableModel,
    DEFAULT_ALERT_DEBOUNCE_MS, DEFAULT_ALERT_RESOLVE_TIMEOUT_MS, PAGING_UNBOUNDED_BUDGET_MB,
};

/// Run every check over the model.
pub fn analyze(model: &FederationModel) -> Diagnostics {
    let mut diags = Diagnostics::new();
    check_hub_schema_collisions(model, &mut diags);
    check_self_replication(model, &mut diags);
    check_duplicate_link_ids(model, &mut diags);
    check_filtered_required_tables(model, &mut diags);
    check_group_by_replication(model, &mut diags);
    check_schema_drift(model, &mut diags);
    check_dangling_dimensions(model, &mut diags);
    check_su_factors(model, &mut diags);
    check_excluded_resources(model, &mut diags);
    check_zero_retry_tight_links(model, &mut diags);
    check_aggregation_pool(model, &mut diags);
    check_gateway_pool(model, &mut diags);
    check_alert_rules(model, &mut diags);
    check_storage_config(model, &mut diags);
    check_paging_config(model, &mut diags);
    diags
}

/// XC0001 — two satellites rename into the same hub schema.
///
/// Runtime symptom: both links apply into one schema; the second link's
/// DDL fails (or worse, compatible tables silently merge two sites'
/// rows), and every per-satellite hub query attributes one satellite's
/// data to the other. Easy to hit: the workspace's `schema_for` maps
/// `site-a` and `site.a` to the same `inst_site_a`.
fn check_hub_schema_collisions(model: &FederationModel, diags: &mut Diagnostics) {
    for (other, sat) in same_key_pairs(model, |s| &s.link.hub_schema) {
        diags.push(
            Diagnostic::new(
                Code::HubSchemaCollision,
                Span::satellite(&sat.name).in_schema(&sat.link.hub_schema),
                format!(
                    "satellites \"{}\" and \"{}\" both replicate into hub schema \
                     \"{}\"; their rows would merge or their DDL would conflict",
                    other.name, sat.name, sat.link.hub_schema
                ),
            )
            .with_help("rename one satellite or set a distinct hub-side schema for its link"),
        );
    }
}

/// Every `(earlier, later)` pair of satellites whose `key` is equal, in
/// all-pairs order: by the later satellite, then by the earlier one. The
/// cost is linear in satellites plus pairs: the satellites sharing a key
/// form a chain through `next`, and the map holds each key's first and
/// last link.
fn same_key_pairs<'m>(
    model: &'m FederationModel,
    key: impl Fn(&'m SatelliteModel) -> &'m str,
) -> Vec<(&'m SatelliteModel, &'m SatelliteModel)> {
    let sats = &model.satellites;
    let mut ends: HashMap<&str, (usize, usize)> = HashMap::with_capacity(sats.len());
    // `next[i]`: the next satellite with `i`'s key, once there is one.
    let mut next = vec![0; sats.len()];
    let mut pairs = Vec::new();
    for (i, sat) in sats.iter().enumerate() {
        let (first, last) = ends.entry(key(sat)).or_insert((i, i));
        if *last == i {
            continue;
        }
        let mut other = *first;
        loop {
            pairs.push((&sats[other], sat));
            if other == *last {
                break;
            }
            other = next[other];
        }
        next[*last] = i;
        *last = i;
    }
    pairs
}

/// XC0002 — a link whose hub schema equals its own source schema.
///
/// Runtime symptom: the replicator tails a binlog and applies the events
/// back into the schema it is tailing (loopback fan-in), re-emitting
/// them as new binlog events — an unbounded feedback loop.
fn check_self_replication(model: &FederationModel, diags: &mut Diagnostics) {
    for sat in &model.satellites {
        if sat.link.source_schema == sat.link.hub_schema {
            diags.push(
                Diagnostic::new(
                    Code::SelfReplication,
                    Span::satellite(&sat.name).in_schema(&sat.link.source_schema),
                    format!(
                        "satellite \"{}\" replicates schema \"{}\" into itself",
                        sat.name, sat.link.source_schema
                    ),
                )
                .with_help("set a hub-side rename (the hub convention is inst_<satellite>)"),
            );
        }
    }
}

/// XC0003 — duplicate link ids.
///
/// Runtime symptom: two links' metrics share one `link=..` label, so
/// lag/error attribution on the ops dashboard is wrong, and operator
/// actions (pause/resume by name) are ambiguous.
fn check_duplicate_link_ids(model: &FederationModel, diags: &mut Diagnostics) {
    for (other, sat) in same_key_pairs(model, |s| &s.link.id) {
        diags.push(
            Diagnostic::new(
                Code::DuplicateLinkId,
                Span::satellite(&sat.name),
                format!(
                    "link id \"{}\" is used by both \"{}\" and \"{}\"",
                    sat.link.id, other.name, sat.name
                ),
            )
            .with_help("give every replication link a unique id"),
        );
    }
}

/// XC0004 — the filter excludes a table the satellite's declared realms
/// require (and therefore a table registered aggregates read).
///
/// Runtime symptom: the paper's silent-empty failure. Replication runs
/// clean, the hub's aggregation pass skips the missing fact table, and
/// every downstream report for that realm is empty with no error
/// anywhere.
fn check_filtered_required_tables(model: &FederationModel, diags: &mut Diagnostics) {
    for sat in &model.satellites {
        for table in &sat.expected_tables {
            if !sat.replicates(table) {
                let consumers: Vec<&str> = model
                    .aggregates
                    .iter()
                    .filter(|a| &a.fact_table == table)
                    .map(|a| a.name.as_str())
                    .collect();
                let consumer_note = if consumers.is_empty() {
                    String::new()
                } else {
                    format!(
                        " (read by registered aggregate(s): {})",
                        consumers.join(", ")
                    )
                };
                diags.push(
                    Diagnostic::new(
                        Code::FilteredRequiredTable,
                        Span::satellite(&sat.name)
                            .in_schema(&sat.link.source_schema)
                            .at_table(table),
                        format!(
                            "satellite \"{}\" declares realms that require table \
                             \"{table}\", but its replication filter excludes it{consumer_note}",
                            sat.name
                        ),
                    )
                    .with_help(
                        "add the table to the filter's table list, or drop the realm \
                         from the satellite's federation config",
                    ),
                );
            }
        }
    }
}

/// XC0005 — a hub group-by query reads a fact table no satellite
/// replicates.
///
/// Runtime symptom: the canned federation report section renders empty
/// (or the federated query errors with "no satellite has replicated ..")
/// on every run, even though every link is healthy.
fn check_group_by_replication(model: &FederationModel, diags: &mut Diagnostics) {
    if model.satellites.is_empty() {
        return; // an empty federation is vacuously consistent
    }
    for gb in &model.group_bys {
        let replicated_anywhere = model.satellites.iter().any(|s| {
            // A satellite serves the query if its filter passes the table
            // and its catalog actually contains it.
            s.replicates(&gb.fact_table)
                && (s.tables.is_empty() || s.table(&gb.fact_table).is_some())
        });
        if !replicated_anywhere {
            diags.push(
                Diagnostic::new(
                    Code::GroupByFactTableUnreplicated,
                    Span::federation().at_table(&gb.fact_table),
                    format!(
                        "hub group-by \"{}\" reads \"{}\", which no satellite replicates",
                        gb.name, gb.fact_table
                    ),
                )
                .with_help(
                    "federate the owning realm from at least one satellite, or drop \
                     the report section",
                ),
            );
        }
    }
}

/// XC0006 — cross-satellite schema drift.
///
/// Runtime symptom: `FederationHub::federated_query` merges per-satellite
/// partials only over one fact-table layout, so every federated query of
/// the realm errors with "satellite .. has an incompatible .. layout"
/// before anything folds — at query time, long after both links
/// replicated "successfully".
fn check_schema_drift(model: &FederationModel, diags: &mut Diagnostics) {
    // A column layout's id: the exact `(name, ty, nullable)` sequence.
    // `layouts[id]` is one table with it. A shared table (see the model's
    // doc) is looked up by its address, so its columns are hashed once.
    let mut shared_ids: HashMap<*const TableModel, usize> = HashMap::new();
    let mut layout_ids: HashMap<&[ColumnModel], usize> = HashMap::new();
    let mut layouts: Vec<&TableModel> = Vec::new();
    // Per table name: each distinct layout among the earlier satellites
    // whose filter passes the table, with those satellites in ascending
    // order. A satellite counts with its first table of the name, the one
    // `SatelliteModel::table` returns.
    let mut holders: HashMap<&str, Vec<(usize, Vec<usize>)>> = HashMap::new();
    // Whether `table_drift(mine, theirs)` finds nothing, per layout pair.
    let mut clean: HashMap<(usize, usize), bool> = HashMap::new();
    // The layout id of each of the current satellite's tables that its
    // filter passes.
    let mut ids: Vec<Option<usize>> = Vec::new();
    // (earlier satellite, table of the current one) pairs that drift.
    let mut drifting: Vec<(usize, usize)> = Vec::new();
    for (i, sat) in model.satellites.iter().enumerate() {
        ids.clear();
        ids.extend(sat.tables.iter().map(|table| {
            sat.replicates(&table.name).then(|| {
                *shared_ids.entry(Arc::as_ptr(table)).or_insert_with(|| {
                    let next = layouts.len();
                    *layout_ids.entry(&table.columns).or_insert_with(|| {
                        layouts.push(table);
                        next
                    })
                })
            })
        }));
        drifting.clear();
        for (k, (table, id)) in sat.tables.iter().zip(&ids).enumerate() {
            let (Some(id), Some(groups)) = (*id, holders.get(table.name.as_str())) else {
                continue;
            };
            for (their_id, earlier) in groups {
                let is_clean = *clean.entry((id, *their_id)).or_insert_with(|| {
                    let mut scratch = Diagnostics::new();
                    table_drift(sat, layouts[id], sat, layouts[*their_id], &mut scratch);
                    scratch.is_empty()
                });
                if !is_clean {
                    drifting.extend(earlier.iter().map(|&j| (j, k)));
                }
            }
        }
        drifting.sort_unstable();
        for &(j, k) in &drifting {
            let (other, table) = (&model.satellites[j], &sat.tables[k]);
            if let Some(theirs) = other.table(&table.name) {
                table_drift(sat, table, other, theirs, diags);
            }
        }
        for (k, (table, id)) in sat.tables.iter().zip(&ids).enumerate() {
            let Some(id) = *id else {
                continue;
            };
            if sat.tables[..k].iter().any(|t| t.name == table.name) {
                continue;
            }
            let groups = holders.entry(&table.name).or_default();
            match groups.iter_mut().find(|(l, _)| *l == id) {
                Some((_, sats)) => sats.push(i),
                None => groups.push((id, vec![i])),
            }
        }
    }
}

/// The XC0006 findings for `sat`'s `table` against `other`'s table of the
/// same name, `theirs`.
fn table_drift(
    sat: &SatelliteModel,
    table: &TableModel,
    other: &SatelliteModel,
    theirs: &TableModel,
    diags: &mut Diagnostics,
) {
    // Columns `other` has that `sat` lacks (the mismatch arm
    // below covers the shared ones, walking sat's columns).
    for their_col in &theirs.columns {
        if table.column(&their_col.name).is_none() {
            diags.push(
                Diagnostic::new(
                    Code::SchemaDrift,
                    Span::satellite(&sat.name)
                        .at_table(&table.name)
                        .at_column(&their_col.name),
                    format!(
                        "table \"{}\" drifts across satellites: column \
                         \"{}\" exists on \"{}\" but not on \"{}\"",
                        table.name, their_col.name, other.name, sat.name
                    ),
                )
                .with_help("align the fact-table schemas before federating"),
            );
        }
    }
    for col in &table.columns {
        match theirs.column(&col.name) {
            None => diags.push(
                Diagnostic::new(
                    Code::SchemaDrift,
                    Span::satellite(&other.name)
                        .at_table(&table.name)
                        .at_column(&col.name),
                    format!(
                        "table \"{}\" drifts across satellites: column \
                         \"{}\" exists on \"{}\" but not on \"{}\"",
                        table.name, col.name, sat.name, other.name
                    ),
                )
                .with_help("align the fact-table schemas before federating"),
            ),
            Some(their_col) if their_col.ty != col.ty || their_col.nullable != col.nullable => {
                diags.push(
                    Diagnostic::new(
                        Code::SchemaDrift,
                        Span::satellite(&sat.name)
                            .at_table(&table.name)
                            .at_column(&col.name),
                        format!(
                            "table \"{}\" drifts across satellites: column \
                             \"{}\" is {}{} on \"{}\" but {}{} on \"{}\"",
                            table.name,
                            col.name,
                            if col.nullable { "nullable " } else { "" },
                            col.ty,
                            sat.name,
                            if their_col.nullable { "nullable " } else { "" },
                            their_col.ty,
                            other.name
                        ),
                    )
                    .with_help(
                        "the hub's union query will reject the second \
                         satellite's layout; align column types and nullability",
                    ),
                );
            }
            Some(_) => {}
        }
    }
}

/// XC0007 — dangling dimension references.
///
/// A hub group-by column or a registered aggregate's dimension / measure
/// / time column that does not exist in the fact table it reads, checked
/// against every satellite that replicates the table.
///
/// Runtime symptom: per-satellite aggregation (or the report query)
/// errors with "unknown column" only once that satellite has replicated
/// data — a latent failure that preflight surfaces immediately.
fn check_dangling_dimensions(model: &FederationModel, diags: &mut Diagnostics) {
    // (reader description, fact table, referenced columns)
    let mut readers: Vec<(String, &str, Vec<&str>)> = Vec::new();
    for gb in &model.group_bys {
        readers.push((
            format!("group-by \"{}\"", gb.name),
            &gb.fact_table,
            gb.columns.iter().map(String::as_str).collect(),
        ));
    }
    for agg in &model.aggregates {
        let mut cols: Vec<&str> = vec![&agg.time_column];
        cols.extend(agg.dimensions.iter().map(String::as_str));
        cols.extend(agg.measures.iter().map(String::as_str));
        readers.push((format!("aggregate \"{}\"", agg.name), &agg.fact_table, cols));
    }

    for sat in &model.satellites {
        for (reader, fact_table, columns) in &readers {
            if !sat.replicates(fact_table) {
                continue;
            }
            let Some(table) = sat.table(fact_table) else {
                continue; // absent tables are XC0004/XC0005 territory
            };
            for column in columns {
                if table.column(column).is_none() {
                    diags.push(
                        Diagnostic::new(
                            Code::DanglingDimension,
                            Span::satellite(&sat.name)
                                .at_table(fact_table)
                                .at_column(column),
                            format!(
                                "{reader} references column \"{column}\", which does not \
                                 exist in \"{fact_table}\" as replicated by \"{}\"",
                                sat.name
                            ),
                        )
                        .with_help(
                            "fix the dimension/measure name or add the column to the \
                             satellite's fact table",
                        ),
                    );
                }
            }
        }
    }
}

/// XC0008 — a resource with job records but no SU conversion factor.
///
/// Runtime symptom (paper §II-C6): the resource's CPU-hours enter
/// federation metrics unconverted (factor 1.0), so cross-site SU
/// comparisons are silently wrong — the paper's warning that "similar
/// care must be taken so that federation metrics make valid
/// comparisons".
fn check_su_factors(model: &FederationModel, diags: &mut Diagnostics) {
    for sat in &model.satellites {
        for resource in &sat.job_resources {
            if excluded(sat, resource) {
                continue; // never crosses the link, factor irrelevant
            }
            if !sat.su_factors.iter().any(|r| r == resource) {
                diags.push(
                    Diagnostic::new(
                        Code::MissingSuFactor,
                        Span::satellite(&sat.name).at_column(resource),
                        format!(
                            "resource \"{resource}\" on \"{}\" has job records but no SU \
                             conversion factor; its hours federate unconverted (factor 1.0)",
                            sat.name
                        ),
                    )
                    .with_help("register an HPL-derived factor with set_su_factor"),
                );
            }
        }
    }
}

/// XC0009 — an excluded resource that matches nothing.
///
/// Runtime symptom: none — which is the problem. A typo in an exclusion
/// (`"secert"`) silently excludes nothing, and the data the operator
/// meant to keep local replicates to the hub.
fn check_excluded_resources(model: &FederationModel, diags: &mut Diagnostics) {
    for sat in &model.satellites {
        if sat.job_resources.is_empty() {
            continue; // nothing ingested yet; can't vet exclusions
        }
        for excluded in &sat.excluded_resources {
            if !sat.job_resources.iter().any(|r| r == excluded) {
                diags.push(
                    Diagnostic::new(
                        Code::UnknownExcludedResource,
                        Span::satellite(&sat.name).at_column(excluded),
                        format!(
                            "excluded resource \"{excluded}\" matches no job record on \
                             \"{}\" — possible typo; the data it names still replicates",
                            sat.name
                        ),
                    )
                    .with_help("check the spelling against the satellite's resource names"),
                );
            }
        }
    }
}

/// XC0010 — a tight link with retries explicitly disabled.
///
/// Runtime symptom: a live (tight) link's driver steps surface every
/// transient fault straight to `member_last_error` instead of retrying
/// at a backoff, so a single dropped packet marks the member failing and
/// burns one of the supervisor's quarantine strikes. `retries: 0` is
/// harmless on loose links, which never go live: `sync` and each
/// supervision pass poll them, and a failed batch is retried on the
/// next call.
fn check_zero_retry_tight_links(model: &FederationModel, diags: &mut Diagnostics) {
    for sat in &model.satellites {
        if sat.link.mode.as_deref() == Some("tight") && sat.link.retries == Some(0) {
            diags.push(
                Diagnostic::new(
                    Code::ZeroRetryTightLink,
                    Span::satellite(&sat.name),
                    format!(
                        "tight link \"{}\" sets retries to 0; transient faults on the \
                         live link will not be retried and count toward quarantine",
                        sat.link.id
                    ),
                )
                .with_help(
                    "drop the explicit retries (the policy default fast-retries) or \
                     set a small positive count",
                ),
            );
        }
    }
}

/// XC0011 — the aggregation pool configures more workers than shards.
///
/// Runtime symptom: the partitioned engine hands each worker whole
/// day-bucket shards, so at most `shards` workers ever run; the surplus
/// threads are spawned (and clamped idle) on every rebuild, paying
/// thread start-up cost for zero extra throughput. The result is still
/// correct — sharded merges are deterministic for any pool size — which
/// is exactly why this misconfiguration survives unnoticed.
fn check_aggregation_pool(model: &FederationModel, diags: &mut Diagnostics) {
    let Some(pool) = &model.aggregation else {
        return;
    };
    if let (Some(workers), Some(shards)) = (pool.workers, pool.shards) {
        if workers > shards {
            diags.push(
                Diagnostic::new(
                    Code::OversizedAggregationPool,
                    Span::federation(),
                    format!(
                        "aggregation pool configures {workers} worker(s) over \
                         {shards} shard(s); {} worker(s) can never claim a shard",
                        workers - shards
                    ),
                )
                .with_help(
                    "lower workers to the shard count, or raise shards — \
                     determinism is unaffected either way",
                ),
            );
        }
    }
}

/// XC0012 — the gateway's HTTP worker pool is larger than the hub's
/// aggregation pool.
///
/// Runtime symptom: every cache-missing `/query` ultimately funnels into
/// the hub warehouse's aggregation pool, so at most `aggregation.workers`
/// requests make real progress at a time. Surplus gateway workers each
/// hold a socket, a queue slot, and an admission permit while blocked on
/// the same warehouse locks — latency rises and the accept queue fills
/// faster under load, with zero added throughput. The gateway still
/// *answers* correctly, which is why the misconfiguration survives
/// unnoticed until a saturation event.
fn check_gateway_pool(model: &FederationModel, diags: &mut Diagnostics) {
    let Some(gateway) = &model.gateway else {
        return;
    };
    let Some(pool) = &model.aggregation else {
        return;
    };
    if let (Some(gw_workers), Some(agg_workers)) = (gateway.workers, pool.workers) {
        if gw_workers > agg_workers {
            diags.push(
                Diagnostic::new(
                    Code::GatewayPoolExceedsAggregation,
                    Span::federation(),
                    format!(
                        "gateway configures {gw_workers} request worker(s) over an \
                         aggregation pool of {agg_workers}; under load the surplus \
                         {} worker(s) queue behind aggregation locks while holding \
                         sockets open",
                        gw_workers - agg_workers
                    ),
                )
                .with_help(
                    "size the gateway pool at or below the hub aggregation pool, \
                     or raise the aggregation pool to match the serving concurrency",
                ),
            );
        }
    }
}

/// XC0013 — an alert rule is unusable as configured.
///
/// Three classes, each a silent monitoring hole at runtime:
///
/// - **unknown family** — no producer ever emits it, so the rule never
///   fires and the operator believes a fault class is covered when it
///   is not;
/// - **resolve timeout within the debounce window** — the alert
///   auto-resolves inside its own flap-damping window, so every
///   recurrence opens (and notifies) afresh: exactly the alert storm
///   flap damping exists to prevent;
/// - **zero-capacity notification bucket** — every dispatch is
///   suppressed; alerts fire into a void.
///
/// `None` fields mean "engine default"; the check substitutes the
/// mirrored defaults so a half-specified rule (e.g. only `debounce_ms`
/// raised past the default resolve timeout) is still caught.
fn check_alert_rules(model: &FederationModel, diags: &mut Diagnostics) {
    let Some(alerts) = &model.alerts else {
        return;
    };
    if alerts.notify_capacity == Some(0) {
        diags.push(
            Diagnostic::new(
                Code::AlertRuleInvalid,
                Span::federation(),
                "alert notification bucket has zero capacity: every dispatch \
                 is suppressed and alerts fire into a void",
            )
            .with_help("set notify_capacity to at least 1 (default 8)"),
        );
    }
    for rule in &alerts.rules {
        if !alert_families().contains(&rule.family.as_str()) {
            diags.push(
                Diagnostic::new(
                    Code::AlertRuleInvalid,
                    Span::federation(),
                    format!(
                        "alert rule names unknown family {:?}: no producer emits \
                         it, so the rule can never fire (known families: {})",
                        rule.family,
                        alert_families().join(", ")
                    ),
                )
                .with_help("fix the family name or delete the rule"),
            );
        }
        let debounce = rule.debounce_ms.unwrap_or(DEFAULT_ALERT_DEBOUNCE_MS);
        let resolve = rule
            .resolve_timeout_ms
            .unwrap_or(DEFAULT_ALERT_RESOLVE_TIMEOUT_MS);
        if resolve <= debounce {
            diags.push(
                Diagnostic::new(
                    Code::AlertRuleInvalid,
                    Span::federation(),
                    format!(
                        "alert rule for {:?} auto-resolves after {resolve} ms, \
                         within its own {debounce} ms flap-damping window: every \
                         recurrence re-fires (and re-notifies) as a new episode",
                        rule.family
                    ),
                )
                .with_help("raise resolve_timeout_ms above debounce_ms"),
            );
        }
    }
}

/// XC0014 — the durable-storage stanza is unusable or self-defeating.
///
/// The hub's config loader degrades gracefully: a storage stanza it
/// cannot honor leaves the hub on the in-memory backend rather than
/// refusing to start. That is the right runtime behavior and exactly
/// why this check exists — the operator believes the warehouse is
/// durable while every record still lives only in RAM. Classes:
///
/// - **unknown backend** — neither `"memory"` nor `"disk"`; the loader
///   ignores the stanza entirely (error);
/// - **disk without a directory** — the one field the disk backend
///   cannot default; the loader stays on memory (error);
/// - **zero snapshot interval** — `snapshot_every_records: 0` silently
///   disables auto-snapshots, so the binlog grows without bound and
///   recovery replays it from the beginning (error);
/// - **snapshot interval of 1** — a full snapshot + compaction per
///   ingested record; durable, but pathological write amplification
///   (warning);
/// - **directory on the memory backend** — the directory is never
///   written; likely a half-edited stanza (warning).
fn check_storage_config(model: &FederationModel, diags: &mut Diagnostics) {
    let Some(storage) = &model.storage else {
        return;
    };
    let backend = storage.backend.as_deref();
    match backend {
        None | Some("memory") | Some("disk") => {}
        Some(other) => {
            diags.push(
                Diagnostic::new(
                    Code::StorageConfigInvalid,
                    Span::federation(),
                    format!(
                        "storage backend {other:?} is not a known backend: the hub \
                         ignores the stanza and keeps every record in RAM"
                    ),
                )
                .with_help("set backend to \"disk\" (durable) or \"memory\" (explicit default)"),
            );
        }
    }
    if backend == Some("disk") && storage.dir.is_none() {
        diags.push(
            Diagnostic::new(
                Code::StorageConfigInvalid,
                Span::federation(),
                "storage backend is \"disk\" but no directory is configured: the \
                 hub silently stays on the in-memory backend and nothing is durable",
            )
            .with_help("set storage.dir to the WAL directory the hub may create and own"),
        );
    }
    if backend != Some("disk") && storage.dir.is_some() {
        let mut d = Diagnostic::new(
            Code::StorageConfigInvalid,
            Span::federation(),
            format!(
                "storage.dir {:?} is configured but the backend is not \"disk\": \
                 the directory is never written (half-edited stanza?)",
                storage.dir.as_deref().unwrap_or_default()
            ),
        )
        .with_help("set backend to \"disk\", or drop the unused dir field");
        d.severity = Severity::Warning;
        diags.push(d);
    }
    match storage.snapshot_every_records {
        Some(0) => {
            diags.push(
                Diagnostic::new(
                    Code::StorageConfigInvalid,
                    Span::federation(),
                    "snapshot_every_records is 0: auto-snapshots are silently \
                     disabled, the binlog is never compacted, and recovery \
                     replays it from the first record",
                )
                .with_help("set a positive interval (thousands of records is typical)"),
            );
        }
        Some(1) => {
            let mut d = Diagnostic::new(
                Code::StorageConfigInvalid,
                Span::federation(),
                "snapshot_every_records is 1: every ingested record triggers a \
                 full snapshot and binlog compaction — durable, but pathological \
                 write amplification",
            )
            .with_help("raise the interval well above the typical ingest batch size");
            d.severity = Severity::Warning;
            diags.push(d);
        }
        _ => {}
    }
    if storage.segment_max_kb == Some(0) {
        let mut d = Diagnostic::new(
            Code::StorageConfigInvalid,
            Span::federation(),
            "segment_max_kb is 0: the disk backend clamps it to the minimum \
             viable segment, rolling a new file on nearly every append",
        )
        .with_help("size segments in the hundreds of KiB to low MiB range");
        d.severity = Severity::Warning;
        diags.push(d);
    }
}

/// XC0015 — the `storage.paging` stanza is unusable or self-defeating.
///
/// Paging makes the warehouse larger than RAM by spilling cold
/// day-bucket shards to disk. A spill file is a *cache*: when one is
/// lost or corrupt, the residency manager declares the shard Lost and
/// the only repair source is the durable write-ahead log. Classes:
///
/// - **paging without a durable disk backend** — a Lost shard could
///   never be rebuilt; the first evicted shard is one disk hiccup away
///   from permanent data loss (error);
/// - **zero working-set budget / zero pages** — a budget too small to
///   hold even one resident shard means every scan faults its shard in
///   and immediately evicts it again; nothing can stay resident (error);
/// - **unbounded budget** — at or above
///   [`PAGING_UNBOUNDED_BUDGET_MB`], the budget can never fill, no
///   shard ever spills, and paging is pure bookkeeping overhead
///   (warning).
fn check_paging_config(model: &FederationModel, diags: &mut Diagnostics) {
    let Some(storage) = model.storage.as_ref() else {
        return;
    };
    let Some(paging) = storage.paging.as_ref() else {
        return;
    };
    let durable = storage.backend.as_deref() == Some("disk") && storage.dir.is_some();
    if !durable {
        diags.push(
            Diagnostic::new(
                Code::PagingConfigInvalid,
                Span::federation(),
                "storage.paging is configured without a durable disk backend: a \
                 corrupt or missing spill file can only be repaired by replaying \
                 the write-ahead log, and the memory backend has none — the first \
                 evicted shard risks permanent loss",
            )
            .with_help("set storage.backend to \"disk\" with a dir, or drop the paging stanza"),
        );
    }
    if paging.budget_mb == Some(0) || paging.pages_per_table == Some(0) {
        diags.push(
            Diagnostic::new(
                Code::PagingConfigInvalid,
                Span::federation(),
                "storage.paging budget is smaller than a single shard: no page can \
                 stay resident, so every scan faults its shard in from disk and \
                 immediately evicts it again",
            )
            .with_help("budget at least a few shards' worth of MiB (and nonzero pages_per_table)"),
        );
    }
    if let Some(mb) = paging.budget_mb {
        if mb >= PAGING_UNBOUNDED_BUDGET_MB {
            let mut d = Diagnostic::new(
                Code::PagingConfigInvalid,
                Span::federation(),
                format!(
                    "storage.paging budget_mb {mb} is at or above the unbounded \
                     sentinel ({PAGING_UNBOUNDED_BUDGET_MB}): the budget can never \
                     fill, no shard ever spills, and paging is pure overhead"
                ),
            )
            .with_help("size the budget to the hub's real memory ceiling, or drop the stanza");
            d.severity = Severity::Warning;
            diags.push(d);
        }
    }
}

fn excluded(sat: &SatelliteModel, resource: &str) -> bool {
    sat.excluded_resources.iter().any(|r| r == resource)
}

/// The all-pairs XC0001, XC0003 and XC0006 checks as they were before the
/// keyed rewrite, kept as the oracle of the differential test.
#[cfg(test)]
mod reference {
    use super::*;

    /// [`analyze`](super::analyze) with the three reference checks.
    pub(super) fn analyze(model: &FederationModel) -> Diagnostics {
        let mut diags = Diagnostics::new();
        check_hub_schema_collisions(model, &mut diags);
        check_self_replication(model, &mut diags);
        check_duplicate_link_ids(model, &mut diags);
        check_filtered_required_tables(model, &mut diags);
        check_group_by_replication(model, &mut diags);
        check_schema_drift(model, &mut diags);
        check_dangling_dimensions(model, &mut diags);
        check_su_factors(model, &mut diags);
        check_excluded_resources(model, &mut diags);
        check_zero_retry_tight_links(model, &mut diags);
        check_aggregation_pool(model, &mut diags);
        check_gateway_pool(model, &mut diags);
        check_alert_rules(model, &mut diags);
        check_storage_config(model, &mut diags);
        check_paging_config(model, &mut diags);
        diags
    }

    fn check_hub_schema_collisions(model: &FederationModel, diags: &mut Diagnostics) {
        for (i, sat) in model.satellites.iter().enumerate() {
            for other in &model.satellites[..i] {
                if sat.link.hub_schema == other.link.hub_schema {
                    diags.push(
                        Diagnostic::new(
                            Code::HubSchemaCollision,
                            Span::satellite(&sat.name).in_schema(&sat.link.hub_schema),
                            format!(
                                "satellites \"{}\" and \"{}\" both replicate into hub schema \
                                 \"{}\"; their rows would merge or their DDL would conflict",
                                other.name, sat.name, sat.link.hub_schema
                            ),
                        )
                        .with_help(
                            "rename one satellite or set a distinct hub-side schema for its link",
                        ),
                    );
                }
            }
        }
    }

    fn check_duplicate_link_ids(model: &FederationModel, diags: &mut Diagnostics) {
        for (i, sat) in model.satellites.iter().enumerate() {
            for other in &model.satellites[..i] {
                if sat.link.id == other.link.id {
                    diags.push(
                        Diagnostic::new(
                            Code::DuplicateLinkId,
                            Span::satellite(&sat.name),
                            format!(
                                "link id \"{}\" is used by both \"{}\" and \"{}\"",
                                sat.link.id, other.name, sat.name
                            ),
                        )
                        .with_help("give every replication link a unique id"),
                    );
                }
            }
        }
    }

    fn check_schema_drift(model: &FederationModel, diags: &mut Diagnostics) {
        for (i, sat) in model.satellites.iter().enumerate() {
            for other in &model.satellites[..i] {
                for table in &sat.tables {
                    if !sat.replicates(&table.name) || !other.replicates(&table.name) {
                        continue;
                    }
                    let Some(theirs) = other.table(&table.name) else {
                        continue;
                    };
                    // Columns `other` has that `sat` lacks (the mismatch arm
                    // below covers the shared ones, walking sat's columns).
                    for their_col in &theirs.columns {
                        if table.column(&their_col.name).is_none() {
                            diags.push(
                                Diagnostic::new(
                                    Code::SchemaDrift,
                                    Span::satellite(&sat.name)
                                        .at_table(&table.name)
                                        .at_column(&their_col.name),
                                    format!(
                                        "table \"{}\" drifts across satellites: column \
                                         \"{}\" exists on \"{}\" but not on \"{}\"",
                                        table.name, their_col.name, other.name, sat.name
                                    ),
                                )
                                .with_help("align the fact-table schemas before federating"),
                            );
                        }
                    }
                    for col in &table.columns {
                        match theirs.column(&col.name) {
                            None => diags.push(
                                Diagnostic::new(
                                    Code::SchemaDrift,
                                    Span::satellite(&other.name)
                                        .at_table(&table.name)
                                        .at_column(&col.name),
                                    format!(
                                        "table \"{}\" drifts across satellites: column \
                                         \"{}\" exists on \"{}\" but not on \"{}\"",
                                        table.name, col.name, sat.name, other.name
                                    ),
                                )
                                .with_help("align the fact-table schemas before federating"),
                            ),
                            Some(their_col)
                                if their_col.ty != col.ty || their_col.nullable != col.nullable =>
                            {
                                diags.push(
                                    Diagnostic::new(
                                        Code::SchemaDrift,
                                        Span::satellite(&sat.name)
                                            .at_table(&table.name)
                                            .at_column(&col.name),
                                        format!(
                                            "table \"{}\" drifts across satellites: column \
                                             \"{}\" is {}{} on \"{}\" but {}{} on \"{}\"",
                                            table.name,
                                            col.name,
                                            if col.nullable { "nullable " } else { "" },
                                            col.ty,
                                            sat.name,
                                            if their_col.nullable { "nullable " } else { "" },
                                            their_col.ty,
                                            other.name
                                        ),
                                    )
                                    .with_help(
                                        "the hub's union query will reject the second \
                                         satellite's layout; align column types and nullability",
                                    ),
                                );
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AggregateModel, GroupByModel, LinkModel};

    fn jobfact() -> TableModel {
        TableModel {
            name: "jobfact".into(),
            columns: vec![
                ColumnModel {
                    name: "resource".into(),
                    ty: "str".into(),
                    nullable: false,
                },
                ColumnModel {
                    name: "end_time".into(),
                    ty: "time".into(),
                    nullable: false,
                },
                ColumnModel {
                    name: "cpu_hours".into(),
                    ty: "float".into(),
                    nullable: false,
                },
            ],
        }
    }

    fn satellite(name: &str) -> SatelliteModel {
        SatelliteModel {
            name: name.into(),
            link: LinkModel {
                id: name.into(),
                source_schema: crate::model::default_source_schema(name),
                hub_schema: crate::model::default_hub_schema(name),
                mode: None,
                retries: None,
            },
            replicated_tables: Some(vec!["jobfact".into()]),
            expected_tables: vec!["jobfact".into()],
            excluded_resources: vec![],
            tables: vec![Arc::new(jobfact())],
            job_resources: vec![format!("res-{name}")],
            su_factors: vec![format!("res-{name}")],
            realms: vec!["jobs"],
            supremm_summaries: false,
        }
    }

    fn clean_model() -> FederationModel {
        FederationModel {
            hub: "hub".into(),
            satellites: vec![satellite("a"), satellite("b")],
            aggregates: vec![AggregateModel {
                name: "jobs".into(),
                fact_table: "jobfact".into(),
                time_column: "end_time".into(),
                dimensions: vec!["resource".into()],
                measures: vec!["cpu_hours".into()],
            }],
            group_bys: vec![GroupByModel {
                name: "usage by resource".into(),
                fact_table: "jobfact".into(),
                columns: vec!["resource".into()],
            }],
            aggregation: None,
            gateway: None,
            alerts: None,
            storage: None,
            event_capacity: None,
        }
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

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }
    }

    const TABLES: [&str; 3] = ["jobfact", "storagefact", "custom"];
    const TYPES: [&str; 4] = ["int", "float", "str", "time"];

    fn column(name: &str, ty: &str) -> ColumnModel {
        ColumnModel {
            name: name.into(),
            ty: ty.into(),
            nullable: false,
        }
    }

    /// Table `name`'s base layout, each drift class applied with
    /// probability `1/drift`: a type or nullability change, a missing or
    /// extra column, two columns swapped, a duplicated column name.
    fn drifted_table(rng: &mut Lcg, name: &str, drift: usize) -> TableModel {
        let mut table = match name {
            "jobfact" => jobfact(),
            "storagefact" => TableModel {
                name: name.into(),
                columns: vec![column("resource", "str"), column("bytes_used", "int")],
            },
            _ => TableModel {
                name: name.into(),
                columns: vec![column("id", "int")],
            },
        };
        let cols = table.columns.len();
        if rng.one_in(drift) {
            table.columns[rng.below(cols)].ty = TYPES[rng.below(TYPES.len())].into();
        }
        if rng.one_in(drift) {
            table.columns[rng.below(cols)].nullable = true;
        }
        if rng.one_in(drift) {
            let (a, b) = (rng.below(cols), rng.below(cols));
            table.columns.swap(a, b);
        }
        if rng.one_in(drift) {
            let twin = table.columns[rng.below(cols)].name.clone();
            table
                .columns
                .push(column(&twin, TYPES[rng.below(TYPES.len())]));
        }
        if rng.one_in(drift) {
            table.columns.push(column("extra", "str"));
        }
        if rng.one_in(drift) {
            table.columns.remove(rng.below(table.columns.len()));
        }
        table
    }

    /// A model of 1-60 satellites mixing every input the pairwise checks
    /// read: sanitization twins, shared link ids, tables in one of three
    /// layouts (the base and two drifted ones), duplicate tables, and
    /// filters that drop tables or are absent. How often each occurs is
    /// itself drawn per model, so some models are clean.
    fn seeded_model(rng: &mut Lcg) -> FederationModel {
        let names = [12, 100, 10_000][rng.below(3)];
        let shared_ids = [6, 60, usize::MAX][rng.below(3)];
        let mixed = [5, 20, usize::MAX][rng.below(3)];
        let variants: Vec<[TableModel; 3]> = TABLES
            .iter()
            .map(|t| {
                [
                    drifted_table(rng, t, usize::MAX),
                    drifted_table(rng, t, 3),
                    drifted_table(rng, t, 2),
                ]
            })
            .collect();
        let mut m = clean_model();
        m.satellites = (0..1 + rng.below(60))
            .map(|_| {
                let name = format!("site{}{}", ["-", ".", "_"][rng.below(3)], rng.below(names));
                let mut sat = satellite(&name);
                if rng.one_in(shared_ids) {
                    sat.link.id = format!("shared-{}", rng.below(2));
                }
                sat.tables.clear();
                for layouts in &variants {
                    // Absent, present, or present twice (a duplicate table).
                    for _ in 0..[0, 1, 1, 1, 1, 1, 1, 2][rng.below(8)] {
                        let pick = if rng.one_in(mixed) { rng.below(3) } else { 0 };
                        sat.tables.push(Arc::new(layouts[pick].clone()));
                    }
                }
                sat.replicated_tables = (!rng.one_in(4)).then(|| {
                    TABLES
                        .iter()
                        .filter(|_| !rng.one_in(4))
                        .map(|t| (*t).to_owned())
                        .collect()
                });
                sat
            })
            .collect();
        m
    }

    /// `model` with each table replaced by the first equal table before
    /// it, in its own satellite or an earlier one, so equal tables are one
    /// `Arc`; and how many tables became another's.
    fn shared(model: &FederationModel) -> (FederationModel, usize) {
        let mut m = model.clone();
        let (mut seen, mut reused): (Vec<Arc<TableModel>>, usize) = (Vec::new(), 0);
        for table in m.satellites.iter_mut().flat_map(|sat| &mut sat.tables) {
            *table = TableModel::clone(table).share(&seen);
            if seen.iter().any(|t| Arc::ptr_eq(t, table)) {
                reused += 1;
            } else {
                seen.push(Arc::clone(table));
            }
        }
        (m, reused)
    }

    #[test]
    fn keyed_checks_match_the_pairwise_reference() {
        let mut rng = Lcg(0x7863_3030_3036);
        let mut fired = [0usize; 3];
        let mut reused = 0;
        for case in 0..500 {
            let model = seeded_model(&mut rng);
            let (got, want) = (analyze(&model), reference::analyze(&model));
            assert_eq!(got.render_text(), want.render_text(), "case {case}");
            assert_eq!(got.render_json(), want.render_json(), "case {case}");
            // Shared tables take the identity path; nothing else changes.
            let (twin, n) = shared(&model);
            assert_eq!(twin, model, "case {case}");
            reused += n;
            let diags = analyze(&twin);
            assert_eq!(diags.render_text(), want.render_text(), "case {case}");
            assert_eq!(diags.render_json(), want.render_json(), "case {case}");
            for (n, code) in fired.iter_mut().zip([
                Code::HubSchemaCollision,
                Code::DuplicateLinkId,
                Code::SchemaDrift,
            ]) {
                *n += usize::from(!got.with_code(code).is_empty());
            }
        }
        // Each check fired on many models and stayed quiet on others.
        for n in fired {
            assert!((50..450).contains(&n), "{fired:?}");
        }
        assert!(reused > 10_000, "{reused}");
    }

    #[test]
    fn two_thousand_satellites_report_exact_fault_counts() {
        let (n, twins, filtered, drifted) = (2_000, 40, 25, 3);
        let mut m = clean_model();
        m.satellites = (0..n).map(|i| satellite(&format!("site-{i:04}"))).collect();
        // The last satellites are renamed into dotted twins of the first
        // ones: `site-0007` and `site.0007` share `inst_site_0007`.
        for t in 0..twins {
            m.satellites[n - twins + t] = satellite(&format!("site.{t:04}"));
        }
        for sat in &mut m.satellites[100..100 + filtered] {
            sat.replicated_tables = Some(vec![]);
        }
        for sat in &mut m.satellites[500..500 + drifted] {
            Arc::make_mut(&mut sat.tables[0]).columns[2].ty = "int".into();
        }
        let diags = analyze(&m);
        let count = |code| diags.with_code(code).len();
        assert_eq!(count(Code::HubSchemaCollision), twins);
        assert_eq!(count(Code::FilteredRequiredTable), filtered);
        // One finding per drifted satellite and replicating other.
        let drift = drifted * (n - filtered - drifted);
        assert_eq!(count(Code::SchemaDrift), drift);
        assert_eq!(diags.len(), twins + filtered + drift);
    }

    #[test]
    fn clean_model_produces_no_diagnostics() {
        let diags = analyze(&clean_model());
        assert!(diags.is_empty(), "unexpected: {}", diags.render_text());
    }

    #[test]
    fn alert_rule_problems_are_flagged() {
        use crate::model::{AlertRuleModel, AlertsModel};
        let mut m = clean_model();
        m.alerts = Some(AlertsModel {
            notify_capacity: Some(0),
            notify_refill_per_sec: None,
            rules: vec![
                AlertRuleModel {
                    family: "disk_full".into(),
                    debounce_ms: None,
                    resolve_timeout_ms: None,
                    severity: None,
                    stale_ms: None,
                },
                AlertRuleModel {
                    family: "link_down".into(),
                    debounce_ms: Some(10_000),
                    resolve_timeout_ms: Some(10_000),
                    severity: None,
                    stale_ms: None,
                },
                // Half-specified: debounce raised past the *default*
                // resolve timeout.
                AlertRuleModel {
                    family: "quarantine".into(),
                    debounce_ms: Some(60_000),
                    resolve_timeout_ms: None,
                    severity: None,
                    stale_ms: None,
                },
            ],
        });
        let diags = analyze(&m);
        let findings = diags.with_code(Code::AlertRuleInvalid);
        assert_eq!(findings.len(), 4, "got: {}", diags.render_text());
        assert!(diags.has_errors());
        assert!(findings.iter().any(|d| d.message.contains("disk_full")));
        assert!(findings.iter().any(|d| d.message.contains("zero capacity")));
        assert!(findings
            .iter()
            .any(|d| d.message.contains("quarantine") && d.message.contains("30000 ms")));
    }

    #[test]
    fn valid_alert_rules_are_clean() {
        use crate::model::{AlertRuleModel, AlertsModel};
        let mut m = clean_model();
        m.alerts = Some(AlertsModel {
            notify_capacity: Some(8),
            notify_refill_per_sec: Some(1),
            rules: vec![AlertRuleModel {
                family: "replication_lag".into(),
                debounce_ms: Some(2_000),
                resolve_timeout_ms: Some(20_000),
                severity: None,
                stale_ms: None,
            }],
        });
        let diags = analyze(&m);
        assert!(diags.is_empty(), "unexpected: {}", diags.render_text());
    }

    #[test]
    fn storage_config_problems_are_flagged() {
        use crate::model::StorageModel;
        let mut m = clean_model();
        // Unknown backend + stray dir + zero snapshot interval.
        m.storage = Some(StorageModel {
            backend: Some("papyrus".into()),
            dir: Some("/tmp/wal".into()),
            segment_max_kb: Some(0),
            snapshot_every_records: Some(0),
            fsync: None,
            paging: None,
        });
        let diags = analyze(&m);
        let findings = diags.with_code(Code::StorageConfigInvalid);
        assert_eq!(findings.len(), 4, "got: {}", diags.render_text());
        assert!(diags.has_errors());
        assert!(findings.iter().any(|d| d.message.contains("papyrus")));
        assert!(findings
            .iter()
            .any(|d| d.message.contains("never written") && d.severity == Severity::Warning));
        assert!(findings
            .iter()
            .any(|d| d.message.contains("silently disabled")));
        assert!(findings
            .iter()
            .any(|d| d.message.contains("segment_max_kb") && d.severity == Severity::Warning));

        // Disk without a directory is the flagship silent-memory case.
        let mut m = clean_model();
        m.storage = Some(StorageModel {
            backend: Some("disk".into()),
            ..StorageModel::default()
        });
        let diags = analyze(&m);
        let findings = diags.with_code(Code::StorageConfigInvalid);
        assert_eq!(findings.len(), 1, "got: {}", diags.render_text());
        assert!(findings[0].message.contains("no directory"));
        assert_eq!(findings[0].severity, Severity::Error);

        // Snapshot-per-record is flagged, but only as a warning.
        let mut m = clean_model();
        m.storage = Some(StorageModel {
            backend: Some("disk".into()),
            dir: Some("/var/lib/xdmod/wal".into()),
            snapshot_every_records: Some(1),
            ..StorageModel::default()
        });
        let diags = analyze(&m);
        let findings = diags.with_code(Code::StorageConfigInvalid);
        assert_eq!(findings.len(), 1, "got: {}", diags.render_text());
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(!diags.has_errors());
    }

    #[test]
    fn valid_storage_config_is_clean() {
        use crate::model::StorageModel;
        let mut m = clean_model();
        m.storage = Some(StorageModel {
            backend: Some("disk".into()),
            dir: Some("/var/lib/xdmod/wal".into()),
            segment_max_kb: Some(1024),
            snapshot_every_records: Some(5000),
            fsync: Some(true),
            paging: None,
        });
        assert!(analyze(&m).is_empty());
        // Explicit memory backend with no stray fields is fine too.
        m.storage = Some(StorageModel {
            backend: Some("memory".into()),
            ..StorageModel::default()
        });
        assert!(analyze(&m).is_empty());
        // An empty stanza is "defaults everywhere" — also fine.
        m.storage = Some(StorageModel::default());
        assert!(analyze(&m).is_empty());
    }

    #[test]
    fn paging_config_problems_are_flagged() {
        use crate::model::{PagingModel, StorageModel, PAGING_UNBOUNDED_BUDGET_MB};
        // Paging over the memory backend: the flagship unrepairable case.
        let mut m = clean_model();
        m.storage = Some(StorageModel {
            paging: Some(PagingModel {
                budget_mb: Some(64),
                ..PagingModel::default()
            }),
            ..StorageModel::default()
        });
        let diags = analyze(&m);
        let findings = diags.with_code(Code::PagingConfigInvalid);
        assert_eq!(findings.len(), 1, "got: {}", diags.render_text());
        assert!(findings[0].message.contains("durable disk backend"));
        assert_eq!(findings[0].severity, Severity::Error);

        // Zero budget on a proper disk backend: nothing can stay resident.
        let mut m = clean_model();
        m.storage = Some(StorageModel {
            backend: Some("disk".into()),
            dir: Some("/var/lib/xdmod/wal".into()),
            paging: Some(PagingModel {
                budget_mb: Some(0),
                ..PagingModel::default()
            }),
            ..StorageModel::default()
        });
        let diags = analyze(&m);
        let findings = diags.with_code(Code::PagingConfigInvalid);
        assert_eq!(findings.len(), 1, "got: {}", diags.render_text());
        assert!(findings[0].message.contains("smaller than a single shard"));
        assert_eq!(findings[0].severity, Severity::Error);

        // Unbounded budget: flagged, but only as a warning.
        let mut m = clean_model();
        m.storage = Some(StorageModel {
            backend: Some("disk".into()),
            dir: Some("/var/lib/xdmod/wal".into()),
            paging: Some(PagingModel {
                budget_mb: Some(PAGING_UNBOUNDED_BUDGET_MB),
                ..PagingModel::default()
            }),
            ..StorageModel::default()
        });
        let diags = analyze(&m);
        let findings = diags.with_code(Code::PagingConfigInvalid);
        assert_eq!(findings.len(), 1, "got: {}", diags.render_text());
        assert_eq!(findings[0].severity, Severity::Warning);
        assert!(!diags.has_errors());
    }

    #[test]
    fn valid_paging_config_is_clean() {
        use crate::model::{PagingModel, StorageModel};
        let mut m = clean_model();
        m.storage = Some(StorageModel {
            backend: Some("disk".into()),
            dir: Some("/var/lib/xdmod/wal".into()),
            paging: Some(PagingModel {
                budget_mb: Some(256),
                pages_per_table: Some(8),
                spill_dir: Some("/var/lib/xdmod/wal/paging".into()),
                fsync: Some(false),
            }),
            ..StorageModel::default()
        });
        assert!(analyze(&m).is_empty());
        // An empty paging stanza over disk is "defaults everywhere" — fine.
        m.storage = Some(StorageModel {
            backend: Some("disk".into()),
            dir: Some("/var/lib/xdmod/wal".into()),
            paging: Some(PagingModel::default()),
            ..StorageModel::default()
        });
        assert!(analyze(&m).is_empty());
    }

    #[test]
    fn sanitization_collision_is_caught() {
        let mut m = clean_model();
        m.satellites.push(satellite("site-a"));
        m.satellites.push(satellite("site.a")); // same inst_site_a
                                                // Distinct link ids, so only the collision fires.
        m.satellites[3].link.id = "site.a".into();
        let diags = analyze(&m);
        assert_eq!(diags.with_code(Code::HubSchemaCollision).len(), 1);
        let d = diags.with_code(Code::HubSchemaCollision)[0];
        assert_eq!(d.span.schema.as_deref(), Some("inst_site_a"));
        assert!(diags.has_errors());
    }

    #[test]
    fn self_replication_is_caught() {
        let mut m = clean_model();
        m.satellites[0].link.hub_schema = m.satellites[0].link.source_schema.clone();
        let diags = analyze(&m);
        assert_eq!(diags.with_code(Code::SelfReplication).len(), 1);
    }

    #[test]
    fn duplicate_link_ids_are_caught() {
        let mut m = clean_model();
        m.satellites[1].link.id = "a".into();
        let diags = analyze(&m);
        assert_eq!(diags.with_code(Code::DuplicateLinkId).len(), 1);
    }

    #[test]
    fn filtered_required_table_is_caught() {
        let mut m = clean_model();
        // Satellite b declares jobs but filters jobfact out.
        m.satellites[1].replicated_tables = Some(vec![]);
        let diags = analyze(&m);
        let found = diags.with_code(Code::FilteredRequiredTable);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("aggregate(s): jobs"));
        assert_eq!(found[0].span.table.as_deref(), Some("jobfact"));
    }

    #[test]
    fn group_by_over_unreplicated_table_is_caught() {
        let mut m = clean_model();
        for s in &mut m.satellites {
            s.replicated_tables = Some(vec![]);
            s.expected_tables.clear(); // silence XC0004; isolate XC0005
        }
        let diags = analyze(&m);
        assert_eq!(diags.with_code(Code::GroupByFactTableUnreplicated).len(), 1);
    }

    #[test]
    fn oversized_aggregation_pool_is_flagged() {
        let mut m = clean_model();
        m.aggregation = Some(crate::model::AggregationPoolModel {
            workers: Some(16),
            shards: Some(4),
        });
        let diags = analyze(&m);
        let found = diags.with_code(Code::OversizedAggregationPool);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("12 worker(s)"));
        assert!(!diags.has_errors(), "XC0011 is a warning, not an error");
    }

    #[test]
    fn matched_or_unspecified_aggregation_pool_is_clean() {
        let mut m = clean_model();
        m.aggregation = Some(crate::model::AggregationPoolModel {
            workers: Some(4),
            shards: Some(4),
        });
        assert!(analyze(&m).is_empty());
        // A pool smaller than the shard count is fine: workers just make
        // several passes over the shard list.
        m.aggregation = Some(crate::model::AggregationPoolModel {
            workers: Some(2),
            shards: Some(8),
        });
        assert!(analyze(&m).is_empty());
        // Half-specified pools are not reasoned about.
        m.aggregation = Some(crate::model::AggregationPoolModel {
            workers: Some(64),
            shards: None,
        });
        assert!(analyze(&m).is_empty());
    }

    #[test]
    fn gateway_pool_larger_than_aggregation_pool_is_flagged() {
        let mut m = clean_model();
        m.aggregation = Some(crate::model::AggregationPoolModel {
            workers: Some(4),
            shards: Some(4),
        });
        m.gateway = Some(crate::model::GatewayModel { workers: Some(16) });
        let diags = analyze(&m);
        let found = diags.with_code(Code::GatewayPoolExceedsAggregation);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("16 request worker(s)"));
        assert!(found[0].message.contains("12 worker(s)"));
        assert!(!diags.has_errors(), "XC0012 is a warning, not an error");
    }

    #[test]
    fn matched_or_absent_gateway_pool_is_clean() {
        let mut m = clean_model();
        m.aggregation = Some(crate::model::AggregationPoolModel {
            workers: Some(8),
            shards: Some(8),
        });
        // Equal is fine; smaller is fine.
        m.gateway = Some(crate::model::GatewayModel { workers: Some(8) });
        assert!(analyze(&m).is_empty());
        m.gateway = Some(crate::model::GatewayModel { workers: Some(2) });
        assert!(analyze(&m).is_empty());
        // A gateway with no aggregation pool to compare to is not
        // reasoned about — and neither is an unsized gateway.
        m.aggregation = None;
        m.gateway = Some(crate::model::GatewayModel { workers: Some(64) });
        assert!(analyze(&m).is_empty());
        m.aggregation = Some(crate::model::AggregationPoolModel {
            workers: Some(4),
            shards: Some(4),
        });
        m.gateway = Some(crate::model::GatewayModel { workers: None });
        assert!(analyze(&m).is_empty());
    }

    #[test]
    fn empty_federation_is_vacuously_clean() {
        let mut m = clean_model();
        m.satellites.clear();
        assert!(analyze(&m).is_empty());
    }

    #[test]
    fn schema_drift_is_caught() {
        let mut m = clean_model();
        Arc::make_mut(&mut m.satellites[1].tables[0]).columns[2].ty = "int".into();
        let diags = analyze(&m);
        let found = diags.with_code(Code::SchemaDrift);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].span.column.as_deref(), Some("cpu_hours"));
        assert!(found[0].message.contains("float"));
        assert!(found[0].message.contains("int"));
    }

    #[test]
    fn nullability_drift_is_caught() {
        let mut m = clean_model();
        Arc::make_mut(&mut m.satellites[0].tables[0]).columns[0].nullable = true;
        let diags = analyze(&m);
        assert_eq!(diags.with_code(Code::SchemaDrift).len(), 1);
    }

    #[test]
    fn missing_column_drift_is_caught() {
        let mut m = clean_model();
        Arc::make_mut(&mut m.satellites[1].tables[0]).columns.pop(); // b lacks cpu_hours
        let diags = analyze(&m);
        // Drift (a has it, b doesn't) plus b's aggregate measure dangles.
        assert_eq!(diags.with_code(Code::SchemaDrift).len(), 1);
        assert_eq!(diags.with_code(Code::DanglingDimension).len(), 1);
    }

    #[test]
    fn dangling_group_by_dimension_is_caught() {
        let mut m = clean_model();
        m.group_bys[0].columns = vec!["quue".into()]; // typo for queue
        let diags = analyze(&m);
        let found = diags.with_code(Code::DanglingDimension);
        assert_eq!(found.len(), 2); // flagged per replicating satellite
        assert!(found[0].message.contains("quue"));
    }

    #[test]
    fn dangling_aggregate_time_column_is_caught() {
        let mut m = clean_model();
        m.aggregates[0].time_column = "finish_time".into();
        let diags = analyze(&m);
        assert_eq!(diags.with_code(Code::DanglingDimension).len(), 2);
    }

    #[test]
    fn missing_su_factor_is_a_warning_not_an_error() {
        let mut m = clean_model();
        m.satellites[0].su_factors.clear();
        let diags = analyze(&m);
        let found = diags.with_code(Code::MissingSuFactor);
        assert_eq!(found.len(), 1);
        assert!(!diags.has_errors());
        assert_eq!(diags.count(crate::diag::Severity::Warning), 1);
    }

    #[test]
    fn excluded_resource_needs_no_su_factor() {
        let mut m = clean_model();
        m.satellites[0].su_factors.clear();
        let resource = m.satellites[0].job_resources[0].clone();
        m.satellites[0].excluded_resources.push(resource);
        let diags = analyze(&m);
        assert!(diags.with_code(Code::MissingSuFactor).is_empty());
        assert!(diags.with_code(Code::UnknownExcludedResource).is_empty());
    }

    #[test]
    fn excluded_resource_typo_is_caught() {
        let mut m = clean_model();
        m.satellites[0].excluded_resources.push("secert".into());
        let diags = analyze(&m);
        let found = diags.with_code(Code::UnknownExcludedResource);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("secert"));
    }

    #[test]
    fn zero_retry_tight_link_is_a_warning() {
        let mut m = clean_model();
        m.satellites[0].link.mode = Some("tight".into());
        m.satellites[0].link.retries = Some(0);
        let diags = analyze(&m);
        let found = diags.with_code(Code::ZeroRetryTightLink);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("retries to 0"));
        assert!(!diags.has_errors());
    }

    #[test]
    fn zero_retries_on_a_loose_link_is_fine() {
        let mut m = clean_model();
        m.satellites[0].link.mode = Some("loose".into());
        m.satellites[0].link.retries = Some(0);
        // A tight link with positive retries is equally fine.
        m.satellites[1].link.mode = Some("tight".into());
        m.satellites[1].link.retries = Some(2);
        assert!(analyze(&m).with_code(Code::ZeroRetryTightLink).is_empty());
    }

    #[test]
    fn exclusions_are_not_vetted_before_ingest() {
        let mut m = clean_model();
        m.satellites[0].job_resources.clear();
        m.satellites[0].excluded_resources.push("future-res".into());
        let diags = analyze(&m);
        assert!(diags.with_code(Code::UnknownExcludedResource).is_empty());
    }
}
