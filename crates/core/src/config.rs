//! JSON configuration files for federations.
//!
//! XDMoD's configuration surface is JSON ("aggregation levels, which are
//! managed by JSON configuration files", §II-C3; "aggregation is
//! customized on each instance using local configuration files", §II-A).
//! [`FederationFile`] is the federation-level equivalent: a declarative
//! document naming the hub, its aggregation levels, and every member with
//! its coupling mode, federated realms, and resource exclusions — enough
//! to reconstruct the wiring of Figs. 2 and 3.

use crate::federation::{Federation, FederationConfig, FederationError, FederationMode};
use crate::hub::FederationHub;
use crate::instance::XdmodInstance;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use xdmod_alerts::{AlertRule, AlertRules, AlertSeverity};
use xdmod_realms::levels::AggregationLevelsConfig;
use xdmod_realms::RealmKind;
use xdmod_telemetry::MetricsRegistry;

/// One member entry in the federation file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemberEntry {
    /// Instance name (must match an [`XdmodInstance`] name at build
    /// time).
    pub name: String,
    /// Tight (live) or loose (batched) coupling.
    pub mode: FederationMode,
    /// Realms replicated from this member.
    #[serde(default = "default_realms")]
    pub realms: Vec<RealmKind>,
    /// Resources excluded from federation.
    #[serde(default)]
    pub excluded_resources: Vec<String>,
    /// Replicate monthly SUPReMM summaries (§II-C5 subsequent release).
    #[serde(default)]
    pub supremm_summaries: bool,
    /// Fast-retry attempts for the member's live link (`null`/absent =
    /// policy default; explicit 0 disables retries and is flagged by the
    /// pre-flight analyzer on tight links).
    #[serde(default)]
    pub retries: Option<u32>,
}

fn default_realms() -> Vec<RealmKind> {
    vec![RealmKind::Jobs]
}

/// Hub-side aggregation pool sizing:
/// `"hub_aggregation": {"workers": 4, "shards": 8}`.
///
/// Absent fields fall back to the warehouse defaults (workers from
/// `available_parallelism`, shards matching workers). A pool sized wider
/// than its shard count is legal but wasteful — the pre-flight analyzer
/// flags it as XC0011.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct HubAggregationEntry {
    /// Worker threads for partitioned parallel aggregation
    /// (absent = one per available core).
    #[serde(default)]
    pub workers: Option<u64>,
    /// Day-bucket shard count (absent = match workers).
    #[serde(default)]
    pub shards: Option<u64>,
}

/// Hub telemetry sizing: `"telemetry": {"event_capacity": 8192}`.
///
/// The event ring is bounded; overflow evicts the oldest events (and is
/// counted by `telemetry_events_dropped_total`). Federations emitting
/// dense event streams — chaos soaks, busy gateways feeding the alert
/// engine — can widen the ring here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TelemetryEntry {
    /// Event-ring capacity (absent = the telemetry default, 4096).
    #[serde(default)]
    pub event_capacity: Option<u64>,
}

/// One alert rule override in the federation file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlertRuleEntry {
    /// Alert family the rule applies to (unknown families are carried
    /// through so the XC0013 preflight pass can refuse them by name).
    pub family: String,
    /// `info` / `warning` / `critical` (absent or unrecognized keeps the
    /// family default).
    #[serde(default)]
    pub severity: Option<String>,
    /// Flap-damping window override.
    #[serde(default)]
    pub debounce_ms: Option<u64>,
    /// Auto-resolve timeout override.
    #[serde(default)]
    pub resolve_timeout_ms: Option<u64>,
    /// Stale age override.
    #[serde(default)]
    pub stale_ms: Option<u64>,
}

/// Alert engine configuration:
/// `"alerts": {"notify_capacity": 8, "rules": [{"family": "link_down", ...}]}`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct AlertsEntry {
    /// Notification token-bucket burst capacity.
    #[serde(default)]
    pub notify_capacity: Option<u64>,
    /// Notification token-bucket refill, tokens per second.
    #[serde(default)]
    pub notify_refill_per_sec: Option<u64>,
    /// Per-family rule overrides.
    #[serde(default)]
    pub rules: Vec<AlertRuleEntry>,
}

impl AlertsEntry {
    /// Materialize the rule table: defaults for every family, overridden
    /// field-by-field by each entry. Invalid values (unknown families,
    /// inverted windows, zero buckets) are *kept* — build never edits the
    /// operator's intent; the preflight analyzer refuses them as XC0013.
    pub fn to_rules(&self) -> AlertRules {
        let mut rules = AlertRules::default();
        if self.notify_capacity.is_some() || self.notify_refill_per_sec.is_some() {
            rules.set_notify(
                self.notify_capacity
                    .unwrap_or(xdmod_alerts::DEFAULT_NOTIFY_CAPACITY),
                self.notify_refill_per_sec
                    .unwrap_or(xdmod_alerts::DEFAULT_NOTIFY_REFILL_PER_SEC),
            );
        }
        for entry in &self.rules {
            let base = rules.rule_for(&entry.family);
            let severity = entry
                .severity
                .as_deref()
                .and_then(AlertSeverity::parse)
                .unwrap_or(base.severity);
            let rule = AlertRule {
                severity,
                debounce_ms: entry.debounce_ms.unwrap_or(base.debounce_ms),
                resolve_timeout_ms: entry.resolve_timeout_ms.unwrap_or(base.resolve_timeout_ms),
                stale_ms: entry.stale_ms.unwrap_or(base.stale_ms),
            };
            rules.set(&entry.family, rule);
        }
        rules
    }
}

/// Hub durability configuration:
/// `"storage": {"backend": "disk", "dir": "/var/lib/xdmod/wal",
/// "segment_max_kb": 1024, "snapshot_every_records": 4096, "fsync": true}`.
///
/// Absent (or `"backend": "memory"`) keeps the historical in-memory
/// warehouse. With `"disk"`, the hub's warehouse writes ahead to a
/// segmented on-disk binlog under `dir`, snapshots (and compacts) every
/// `snapshot_every_records` records, and replays the durable state on the
/// next build. Invalid combinations (unknown backend name, disk without a
/// dir, zero intervals) are *kept* in the parsed file — build never edits
/// operator intent; the pre-flight analyzer refuses them as XC0014.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct StorageEntry {
    /// `"memory"` (default) or `"disk"`.
    #[serde(default)]
    pub backend: Option<String>,
    /// Directory for segment and snapshot files (required for `"disk"`).
    #[serde(default)]
    pub dir: Option<String>,
    /// Rotate segment files at this size in KiB (absent = 1024).
    #[serde(default)]
    pub segment_max_kb: Option<u64>,
    /// Auto-snapshot + compaction interval in binlog records (absent =
    /// manual snapshots only).
    #[serde(default)]
    pub snapshot_every_records: Option<u64>,
    /// fsync each durable append (absent = true; turning it off trades
    /// crash durability of the newest records for throughput).
    #[serde(default)]
    pub fsync: Option<bool>,
    /// Cold-shard paging: spill cold day-bucket shards to disk once the
    /// working-set budget fills (absent = everything stays resident).
    #[serde(default)]
    pub paging: Option<PagingEntry>,
}

/// The `storage.paging` stanza:
/// `"paging": {"budget_mb": 256, "pages_per_table": 8,
/// "spill_dir": "/var/lib/xdmod/wal/paging", "fsync": false}`.
///
/// With paging on, each hub fact table is striped into
/// `pages_per_table` day-bucket pages; once resident rows exceed
/// `budget_mb`, cold pages spill to CRC-framed files under `spill_dir`
/// (default: `<storage.dir>/paging`) and queries fault them back in on
/// demand. Spill files are caches — a lost one is rebuilt from the
/// write-ahead log — which is why build only honors the stanza over a
/// successfully opened disk backend; the pre-flight analyzer refuses
/// the rest as XC0015.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct PagingEntry {
    /// Working-set budget in MiB (absent = 256).
    #[serde(default)]
    pub budget_mb: Option<u64>,
    /// Day-bucket pages per fact table (absent = 8).
    #[serde(default)]
    pub pages_per_table: Option<u64>,
    /// Spill-file directory (absent = `<storage.dir>/paging`).
    #[serde(default)]
    pub spill_dir: Option<String>,
    /// fsync each spill write (absent = false; spill files are
    /// rederivable caches, so losing one to a crash only costs a
    /// rebuild).
    #[serde(default)]
    pub fsync: Option<bool>,
}

/// The federation configuration file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationFile {
    /// Hub instance name.
    pub hub: String,
    /// The hub's own aggregation levels (Table I, "Federation Hub").
    #[serde(default)]
    pub hub_levels: AggregationLevelsConfig,
    /// Hub aggregation pool sizing (absent = warehouse defaults).
    #[serde(default)]
    pub hub_aggregation: Option<HubAggregationEntry>,
    /// Hub telemetry sizing (absent = telemetry defaults).
    #[serde(default)]
    pub telemetry: Option<TelemetryEntry>,
    /// Alert engine rules (absent = alert defaults).
    #[serde(default)]
    pub alerts: Option<AlertsEntry>,
    /// Hub warehouse durability (absent = in-memory).
    #[serde(default)]
    pub storage: Option<StorageEntry>,
    /// Member entries.
    pub members: Vec<MemberEntry>,
}

impl FederationFile {
    /// Parse from JSON.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("bad federation config: {e}"))
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("config serializes") // xc-allow: config is plain data; serialization cannot fail
    }

    /// Build the federation, joining every listed member from
    /// `instances` (keyed by name). Unlisted instances are ignored;
    /// listed-but-missing instances are an error.
    pub fn build(
        &self,
        instances: &BTreeMap<String, &XdmodInstance>,
    ) -> Result<Federation, FederationError> {
        let mut hub = FederationHub::new(&self.hub);
        hub.set_levels(self.hub_levels.clone());
        if let Some(cap) = self.telemetry.as_ref().and_then(|t| t.event_capacity) {
            hub.set_telemetry(MetricsRegistry::with_event_capacity(cap as usize));
        }
        if let Some(agg) = &self.hub_aggregation {
            let mut pool = match agg.workers {
                Some(w) => xdmod_warehouse::PoolConfig::new(w as usize),
                None => xdmod_warehouse::PoolConfig::auto(),
            };
            if let Some(s) = agg.shards {
                pool = pool.with_shards(s as usize);
            }
            hub.set_parallelism(pool);
        }
        if let Some(storage) = &self.storage {
            // Only a well-formed disk entry swaps the backend; malformed
            // entries (unknown name, missing dir) are left to the XC0014
            // preflight pass, and the hub stays on the memory backend so a
            // forced build still works.
            if storage.backend.as_deref() == Some("disk") {
                if let Some(dir) = &storage.dir {
                    let mut opts = xdmod_warehouse::DiskOptions::new(dir);
                    if let Some(kb) = storage.segment_max_kb {
                        opts = opts.segment_max_bytes(kb.saturating_mul(1024));
                    }
                    if let Some(on) = storage.fsync {
                        opts = opts.fsync(on);
                    }
                    let backend = xdmod_warehouse::DiskBackend::open(opts)?;
                    hub.set_storage(Box::new(backend))?;
                    // Paging rides the disk backend only: a lost spill
                    // file is repaired by replaying the durable log, and
                    // the memory backend has none (XC0015 refuses that
                    // combination at preflight).
                    if let Some(paging) = &storage.paging {
                        let spill = paging
                            .spill_dir
                            .clone()
                            .unwrap_or_else(|| format!("{dir}/paging"));
                        let mut cfg = xdmod_warehouse::PagingConfig::new(spill);
                        if let Some(mb) = paging.budget_mb {
                            cfg = cfg.budget_bytes(mb.saturating_mul(1024 * 1024));
                        }
                        if let Some(pages) = paging.pages_per_table {
                            cfg = cfg.pages_per_table(pages.min(u32::MAX as u64) as u32);
                        }
                        if let Some(on) = paging.fsync {
                            cfg = cfg.fsync(on);
                        }
                        hub.enable_paging(cfg)?;
                    }
                }
            }
            if let Some(every) = storage.snapshot_every_records {
                hub.set_snapshot_policy(Some(every));
            }
        }
        let mut fed = Federation::new(hub);
        if let Some(alerts) = &self.alerts {
            fed.set_alert_rules(alerts.to_rules());
        }
        for entry in &self.members {
            let inst = instances.get(&entry.name).ok_or_else(|| {
                FederationError::UnknownMember(format!(
                    "{} listed in config but no such instance was provided",
                    entry.name
                ))
            })?;
            let mut config = FederationConfig {
                realms: entry.realms.clone(),
                excluded_resources: entry.excluded_resources.clone(),
                supremm_summaries: entry.supremm_summaries,
                retries: entry.retries,
            };
            config.realms.dedup();
            match entry.mode {
                FederationMode::Tight => fed.join_tight(inst, config)?,
                FederationMode::Loose => fed.join_loose(inst, config)?,
            }
        }
        Ok(fed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_realms::levels::hub_walltime;

    fn sample() -> FederationFile {
        let mut levels = AggregationLevelsConfig::new();
        levels.set("wall_hours", hub_walltime());
        FederationFile {
            hub: "federation-hub".into(),
            hub_levels: levels,
            hub_aggregation: Some(HubAggregationEntry {
                workers: Some(2),
                shards: Some(4),
            }),
            telemetry: Some(TelemetryEntry {
                event_capacity: Some(128),
            }),
            alerts: Some(AlertsEntry {
                notify_capacity: Some(4),
                notify_refill_per_sec: None,
                rules: vec![AlertRuleEntry {
                    family: "replication_lag".into(),
                    severity: Some("critical".into()),
                    debounce_ms: Some(2_000),
                    resolve_timeout_ms: None,
                    stale_ms: None,
                }],
            }),
            storage: None,
            members: vec![
                MemberEntry {
                    name: "x".into(),
                    mode: FederationMode::Tight,
                    realms: vec![RealmKind::Jobs],
                    excluded_resources: vec![],
                    supremm_summaries: false,
                    retries: Some(4),
                },
                MemberEntry {
                    name: "y".into(),
                    mode: FederationMode::Loose,
                    realms: vec![RealmKind::Jobs, RealmKind::Cloud],
                    excluded_resources: vec!["secret".into()],
                    supremm_summaries: true,
                    retries: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let cfg = sample();
        let back = FederationFile::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn defaults_fill_in_missing_fields() {
        let json = r#"{
            "hub": "h",
            "members": [{"name": "x", "mode": "Tight"}]
        }"#;
        let cfg = FederationFile::from_json(json).unwrap();
        assert_eq!(cfg.members[0].realms, vec![RealmKind::Jobs]);
        assert!(cfg.members[0].excluded_resources.is_empty());
        assert_eq!(cfg.members[0].retries, None);
        assert!(cfg.hub_levels.dimensions.is_empty());
        assert_eq!(cfg.hub_aggregation, None);
        assert_eq!(cfg.telemetry, None);
        assert_eq!(cfg.alerts, None);
        assert_eq!(cfg.storage, None);
    }

    #[test]
    fn storage_entry_round_trips_and_builds_disk_hub() {
        let dir = std::env::temp_dir().join(format!("xdmod-cfg-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = sample();
        cfg.storage = Some(StorageEntry {
            backend: Some("disk".into()),
            dir: Some(dir.to_string_lossy().into_owned()),
            segment_max_kb: Some(64),
            snapshot_every_records: Some(100),
            fsync: Some(false),
            paging: None,
        });
        let back = FederationFile::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);

        let x = XdmodInstance::new("x");
        let y = XdmodInstance::new("y");
        let instances = BTreeMap::from([("x".to_owned(), &x), ("y".to_owned(), &y)]);
        let fed = cfg.build(&instances).unwrap();
        assert_eq!(fed.hub().database().read().storage_name(), "disk");
        assert!(dir.is_dir(), "disk backend must create its directory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paging_entry_round_trips_and_builds_paged_disk_hub() {
        let dir = std::env::temp_dir().join(format!("xdmod-cfg-paging-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = sample();
        cfg.storage = Some(StorageEntry {
            backend: Some("disk".into()),
            dir: Some(dir.to_string_lossy().into_owned()),
            fsync: Some(false),
            paging: Some(PagingEntry {
                budget_mb: Some(16),
                pages_per_table: Some(4),
                spill_dir: None,
                fsync: Some(false),
            }),
            ..StorageEntry::default()
        });
        let back = FederationFile::from_json(&cfg.to_json()).unwrap();
        assert_eq!(cfg, back);

        let x = XdmodInstance::new("x");
        let y = XdmodInstance::new("y");
        let instances = BTreeMap::from([("x".to_owned(), &x), ("y".to_owned(), &y)]);
        let fed = cfg.build(&instances).unwrap();
        let db = fed.hub().database();
        let db = db.read();
        assert_eq!(db.storage_name(), "disk");
        assert!(db.paging_enabled());
        let paging = db.paging_config().unwrap();
        assert_eq!(paging.budget_bytes, 16 * 1024 * 1024);
        assert_eq!(paging.pages_per_table, 4);
        // Default spill dir lands under the WAL directory.
        assert!(paging.spill_dir.starts_with(&dir));
        drop(db);
        drop(fed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paging_without_disk_backend_is_ignored_at_build() {
        // Build never edits operator intent: the stanza is kept in the
        // parsed file and XC0015 refuses it at preflight, but a forced
        // build still works — unpaged, on the memory backend.
        let x = XdmodInstance::new("x");
        let y = XdmodInstance::new("y");
        let instances = BTreeMap::from([("x".to_owned(), &x), ("y".to_owned(), &y)]);
        let mut cfg = sample();
        cfg.storage = Some(StorageEntry {
            backend: Some("memory".into()),
            paging: Some(PagingEntry {
                budget_mb: Some(16),
                ..PagingEntry::default()
            }),
            ..StorageEntry::default()
        });
        let fed = cfg.build(&instances).unwrap();
        let db = fed.hub().database();
        let db = db.read();
        assert_eq!(db.storage_name(), "memory");
        assert!(!db.paging_enabled());
    }

    #[test]
    fn malformed_storage_entry_stays_on_memory_backend() {
        // Disk without a dir, and an unknown backend name: build leaves
        // the memory backend (XC0014 refuses these at preflight).
        let x = XdmodInstance::new("x");
        let y = XdmodInstance::new("y");
        let instances = BTreeMap::from([("x".to_owned(), &x), ("y".to_owned(), &y)]);
        for backend in ["disk", "papyrus"] {
            let mut cfg = sample();
            cfg.storage = Some(StorageEntry {
                backend: Some(backend.into()),
                ..StorageEntry::default()
            });
            let fed = cfg.build(&instances).unwrap();
            assert_eq!(fed.hub().database().read().storage_name(), "memory");
        }
    }

    #[test]
    fn build_wires_members_by_mode() {
        let x = XdmodInstance::new("x");
        let y = XdmodInstance::new("y");
        let instances = BTreeMap::from([("x".to_owned(), &x), ("y".to_owned(), &y)]);
        let fed = sample().build(&instances).unwrap();
        assert_eq!(
            fed.members(),
            vec![("x", FederationMode::Tight), ("y", FederationMode::Loose)]
        );
        assert_eq!(fed.hub().name(), "federation-hub");
        assert!(fed.hub().levels().get("wall_hours").is_some());
        let pool = fed.hub().parallelism();
        assert_eq!(pool.configured_workers(), 2);
        assert_eq!(pool.configured_shards(), 4);
    }

    #[test]
    fn build_applies_telemetry_capacity() {
        let x = XdmodInstance::new("x");
        let y = XdmodInstance::new("y");
        let instances = BTreeMap::from([("x".to_owned(), &x), ("y".to_owned(), &y)]);
        let mut cfg = sample();
        cfg.telemetry = Some(TelemetryEntry {
            event_capacity: Some(1),
        });
        let fed = cfg.build(&instances).unwrap();
        let telemetry = fed.hub().telemetry();
        telemetry.event("a", "first");
        telemetry.event("b", "second");
        assert_eq!(telemetry.events().len(), 1);
        assert_eq!(telemetry.events_dropped(), 1);
    }

    #[test]
    fn build_applies_alert_rules() {
        let x = XdmodInstance::new("x");
        let y = XdmodInstance::new("y");
        let instances = BTreeMap::from([("x".to_owned(), &x), ("y".to_owned(), &y)]);
        let fed = sample().build(&instances).unwrap();
        let rules = fed.alert_engine().rules();
        assert_eq!(rules.notify_capacity(), 4);
        let lag = rules.rule_for("replication_lag");
        assert_eq!(lag.severity, AlertSeverity::Critical);
        assert_eq!(lag.debounce_ms, 2_000);
        // Untouched families keep their defaults.
        let link = rules.rule_for("link_down");
        assert_eq!(link.severity, AlertSeverity::Critical);
        assert_eq!(link.debounce_ms, xdmod_alerts::DEFAULT_DEBOUNCE_MS);
    }

    #[test]
    fn to_rules_keeps_unknown_families_for_preflight() {
        let entry = AlertsEntry {
            notify_capacity: None,
            notify_refill_per_sec: None,
            rules: vec![AlertRuleEntry {
                family: "disk_full".into(),
                severity: None,
                debounce_ms: Some(1_000),
                resolve_timeout_ms: None,
                stale_ms: None,
            }],
        };
        let rules = entry.to_rules();
        assert!(rules.entries().any(|(family, _)| family == "disk_full"));
        assert!(!rules.validate().is_empty());
    }

    #[test]
    fn build_fails_on_missing_instance() {
        let x = XdmodInstance::new("x");
        let instances = BTreeMap::from([("x".to_owned(), &x)]);
        let err = match sample().build(&instances) {
            Err(e) => e,
            Ok(_) => panic!("expected missing-instance error"),
        };
        assert!(err.to_string().contains("y"));
    }

    #[test]
    fn malformed_json_reports_error() {
        assert!(FederationFile::from_json("{").is_err());
        assert!(FederationFile::from_json("{\"hub\": 3}").is_err());
    }
}
