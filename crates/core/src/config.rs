//! The federation document: one JSON file for the whole wiring.
//!
//! XDMoD's configuration surface is JSON ("aggregation levels, which are
//! managed by JSON configuration files", §II-C3; "aggregation is
//! customized on each instance using local configuration files", §II-A).
//! The federation document is the federation-level equivalent: it names
//! the hub, its aggregation levels and pool, telemetry, alert rules and
//! storage, and every satellite with its coupling mode, federated realms
//! and resource exclusions — enough to reconstruct the wiring of Figs. 2
//! and 3. See `examples/configs/`.
//!
//! It is the document `xdmod-check` vets. [`Federation::from_config`]
//! parses it once with `xdmod_check::json`, reads the analyzer's
//! [`FederationModel`] and the hub's `hub_levels` from that one tree, and
//! builds from the model: each satellite's `SatelliteModel` becomes its
//! member's record, so the topology pre-flight checks is the one that
//! runs, and `go_live` checks the document the federation was built
//! from.

use crate::federation::{Federation, FederationError};
use crate::hub::FederationHub;
use crate::instance::XdmodInstance;
use std::collections::BTreeMap;
use xdmod_alerts::{AlertRule, AlertRules, AlertSeverity};
use xdmod_check::json;
use xdmod_check::{AlertsModel, FederationModel, ModelError};
use xdmod_realms::levels::AggregationLevelsConfig;
use xdmod_telemetry::MetricsRegistry;

impl Federation {
    /// Build the federation the document describes, joining every listed
    /// satellite from `instances` (keyed by name); unlisted instances are
    /// ignored. The document is parsed once with `xdmod_check::json`; the
    /// analyzer's [`FederationModel`] and the hub's `hub_levels` are read
    /// from that one tree, and each satellite's model becomes its
    /// member's record. A document the model or the hub levels refuse is
    /// an error, and so is, before the hub opens any storage, a
    /// listed-but-missing instance or a satellite build cannot run: a bad
    /// `"mode"` or `"retries"`, or a declared `"link_id"`,
    /// `"source_schema"`, `"hub_schema"` or `"replicated_tables"`
    /// (compared as a set) other than what build runs.
    ///
    /// Build never edits operator intent: values the pre-flight analyzer
    /// refuses (unknown alert families, a disk backend without a dir,
    /// paging over memory) are kept or left unapplied here, so a forced
    /// build still works, and the federation keeps the `storage` stanza
    /// so [`Federation::preflight`] — and with it
    /// [`Federation::go_live`] — reports them.
    pub fn from_config(
        text: &str,
        instances: &BTreeMap<String, &XdmodInstance>,
    ) -> Result<Federation, FederationError> {
        let doc = json::parse(text).map_err(ModelError::from)?;
        let model = FederationModel::from_value(doc.root())?;
        let levels = match doc.get("hub_levels") {
            Some(v) => AggregationLevelsConfig::from_value(v).map_err(FederationError::Config)?,
            None => AggregationLevelsConfig::new(),
        };
        Federation::from_model(model, levels, instances)
    }

    /// The build half of [`Federation::from_config`].
    pub(crate) fn from_model(
        model: FederationModel<'_>,
        levels: AggregationLevelsConfig,
        instances: &BTreeMap<String, &XdmodInstance>,
    ) -> Result<Federation, FederationError> {
        // The federation outlives the document text the model borrows.
        let model = model.into_owned();
        let mut members = Vec::with_capacity(model.satellites.len());
        for sat in model.satellites {
            let inst = instances.get(&*sat.name).ok_or_else(|| {
                FederationError::UnknownMember(format!(
                    "{} listed in config but no such instance was provided",
                    sat.name
                ))
            })?;
            Federation::link_for(inst, &sat)?;
            members.push((*inst, sat));
        }

        let mut hub = FederationHub::new(&model.hub);
        hub.set_levels(levels);
        if let Some(cap) = model.event_capacity {
            hub.set_telemetry(MetricsRegistry::with_event_capacity(cap as usize));
        }
        if let Some(agg) = &model.aggregation {
            let mut pool = match agg.workers {
                Some(w) => xdmod_warehouse::PoolConfig::new(w as usize),
                None => xdmod_warehouse::PoolConfig::auto(),
            };
            if let Some(s) = agg.shards {
                pool = pool.with_shards(s as usize);
            }
            hub.set_parallelism(pool);
        }
        if let Some(storage) = &model.storage {
            // Only a well-formed disk entry swaps the backend; malformed
            // entries (unknown name, missing dir) are left to the XC0014
            // preflight pass, and the hub stays on the memory backend so a
            // forced build still works.
            if storage.backend.as_deref() == Some("disk") {
                if let Some(dir) = storage.dir.as_deref() {
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
                            .as_deref()
                            .map_or_else(|| format!("{dir}/paging"), str::to_owned);
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
        fed.storage = model.storage;
        if let Some(alerts) = &model.alerts {
            fed.set_alert_rules(alert_rules(alerts));
        }
        for (inst, sat) in members {
            fed.join(inst, sat)?;
        }
        Ok(fed)
    }
}

/// Materialize the rule table: defaults for every family, overridden
/// field-by-field by each configured rule. Invalid values (unknown
/// families, inverted windows, zero buckets) are *kept* — build never
/// edits the operator's intent; the preflight analyzer refuses them as
/// XC0013. An unrecognized severity keeps the family default.
fn alert_rules(alerts: &AlertsModel) -> AlertRules {
    let mut rules = AlertRules::default();
    if alerts.notify_capacity.is_some() || alerts.notify_refill_per_sec.is_some() {
        rules.set_notify(
            alerts
                .notify_capacity
                .unwrap_or(xdmod_alerts::DEFAULT_NOTIFY_CAPACITY),
            alerts
                .notify_refill_per_sec
                .unwrap_or(xdmod_alerts::DEFAULT_NOTIFY_REFILL_PER_SEC),
        );
    }
    for entry in &alerts.rules {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::FederationMode;
    use std::time::Duration;

    /// The sample document's keys, without the braces.
    const SAMPLE: &str = r#"
        "hub": "federation-hub",
        "hub_levels": {"dimensions": {"wall_hours": [
            {"label": "0-60 minutes", "lo": 0, "hi": 1},
            {"label": "1-5 hours", "lo": 1, "hi": 5}
        ]}},
        "aggregation": {"workers": 2, "shards": 4},
        "telemetry": {"event_capacity": 128},
        "alerts": {"notify_capacity": 4, "rules": [
            {"family": "replication_lag", "severity": "critical", "debounce_ms": 2000}
        ]},
        "satellites": [
            {"name": "x", "mode": "tight", "realms": ["jobs"], "retries": 4},
            {"name": "y", "mode": "Loose", "realms": ["jobs", "cloud"],
             "excluded_resources": ["secret"], "supremm_summaries": true}
        ]"#;

    /// The sample document with `stanza` (empty, or keys each preceded
    /// by `,`) appended; a duplicated key resolves to its last value, so
    /// a stanza overrides the sample's.
    fn doc(stanza: &str) -> String {
        format!("{{{SAMPLE}{stanza}}}")
    }

    fn build(text: &str, names: &[&str]) -> Result<Federation, FederationError> {
        let owned: Vec<XdmodInstance> = names.iter().map(|n| XdmodInstance::new(n)).collect();
        let instances = owned.iter().map(|i| (i.name().to_owned(), i)).collect();
        Federation::from_config(text, &instances)
    }

    fn build_err(text: &str, names: &[&str]) -> String {
        match build(text, names) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected a build error for {text}"),
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("xdmod-cfg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `check_model()` of the built federation is the document's model
    /// for every satellite, but for what build reads off the instances —
    /// the live catalog, job resources and SU factors — and carries the
    /// document's storage stanza: one parse, one topology.
    fn assert_builds_what_check_reads(text: &str) -> Federation {
        let model = FederationModel::from_json(text).unwrap();
        let names: Vec<&str> = model.satellites.iter().map(|s| &*s.name).collect();
        let fed = build(text, &names).unwrap();
        let built = fed.check_model();
        assert_eq!(built.hub, model.hub);
        fn instance_fields_cleared<'a>(
            sats: &[xdmod_check::SatelliteModel<'a>],
        ) -> Vec<xdmod_check::SatelliteModel<'a>> {
            let mut sats = sats.to_vec();
            for s in &mut sats {
                s.tables.clear();
                s.job_resources.clear();
                s.su_factors.clear();
            }
            sats
        }
        assert_eq!(
            instance_fields_cleared(&built.satellites),
            instance_fields_cleared(&model.satellites)
        );
        assert_eq!(built.storage, model.storage);
        if let Some(pool) = model.aggregation {
            assert_eq!(built.aggregation, Some(pool));
        }
        fed
    }

    /// `go_live` on `text`'s federation is refused by pre-flight with
    /// `code`.
    fn assert_go_live_refused(text: &str, code: &str) {
        let mut fed = build(text, &["x", "y"]).unwrap();
        match fed.go_live(Duration::from_millis(1)) {
            Err(FederationError::Preflight { errors, report }) => {
                assert!(errors >= 1);
                assert!(report.contains(code), "{text}: {report}");
            }
            other => panic!("{text}: expected a {code} refusal, got {other:?}"),
        }
    }

    #[test]
    fn three_site_clean_builds_the_topology_xdmod_check_vets() {
        let text = include_str!("../../../examples/configs/three_site_clean.json");
        let fed = assert_builds_what_check_reads(text);
        assert!(
            fed.preflight().is_empty(),
            "{}",
            fed.preflight().render_text()
        );
    }

    #[test]
    fn sample_builds_what_check_reads() {
        assert_builds_what_check_reads(&doc(""));
    }

    #[test]
    fn declared_fields_that_build_runs_are_kept() {
        // The defaults spelled out, and the realm selection as a set in
        // another order: accepted, and `check_model` reports them as
        // written.
        assert_builds_what_check_reads(
            r#"{"hub": "h", "satellites": [{"name": "site-x", "mode": "tight",
                "link_id": "site-x", "source_schema": "xdmod_site_x",
                "hub_schema": "inst_site_x", "realms": ["cloud", "jobs"],
                "supremm_summaries": true, "replicated_tables":
                ["supremm_summary_by_month", "jobfact", "cloud_reservation", "cloudfact"]}]}"#,
        );
    }

    #[test]
    fn defaults_fill_in_missing_fields() {
        let fed = build(
            r#"{"hub": "h", "satellites": [{"name": "x", "mode": "tight"}]}"#,
            &["x"],
        )
        .unwrap();
        assert_eq!(fed.members(), vec![("x", FederationMode::Tight)]);
        assert!(fed.hub().levels().dimensions.is_empty());
        assert_eq!(fed.hub().parallelism(), xdmod_warehouse::PoolConfig::auto());
        assert_eq!(fed.hub().database().read().storage_name(), "memory");
        let (rules, defaults) = (fed.alert_engine().rules(), AlertRules::default());
        assert!(rules.entries().eq(defaults.entries()));
        assert_eq!(rules.notify_capacity(), defaults.notify_capacity());
        let s = &fed.check_model().satellites[0];
        assert!(s.realms.is_empty());
        assert!(s.excluded_resources.is_empty());
        assert!(!s.supremm_summaries);
        assert_eq!(s.link.retries, None);
    }

    #[test]
    fn storage_stanza_builds_disk_hub() {
        // The backend name is read case-folded, as XC0014 reads it:
        // "Disk" used to pass preflight and silently stay on memory.
        for backend in ["disk", "Disk"] {
            let dir = temp_dir("storage");
            let stanza = format!(
                r#", "storage": {{"backend": "{backend}", "dir": {}, "segment_max_kb": 64,
                    "snapshot_every_records": 100, "fsync": false}}"#,
                json::escape(&dir.to_string_lossy())
            );
            let text = doc(&stanza);
            let model = FederationModel::from_json(&text).unwrap();
            assert!(!xdmod_check::analyze(&model).has_errors(), "{backend}");
            let fed = build(&text, &["x", "y"]).unwrap();
            assert_eq!(
                fed.hub().database().read().storage_name(),
                "disk",
                "{backend}"
            );
            assert!(dir.is_dir(), "disk backend must create its directory");
            drop(fed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn paging_stanza_builds_paged_disk_hub() {
        let dir = temp_dir("paging");
        let stanza = format!(
            r#", "storage": {{"backend": "disk", "dir": {}, "fsync": false,
                "paging": {{"budget_mb": 16, "pages_per_table": 4, "fsync": false}}}}"#,
            json::escape(&dir.to_string_lossy())
        );
        let fed = build(&doc(&stanza), &["x", "y"]).unwrap();
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
        // Build never edits operator intent: XC0015 refuses the stanza at
        // preflight, but a forced build still works — unpaged, on the
        // memory backend — and `go_live` refuses it.
        let text = doc(r#", "storage": {"backend": "memory", "paging": {"budget_mb": 16}}"#);
        let fed = build(&text, &["x", "y"]).unwrap();
        let db = fed.hub().database();
        let db = db.read();
        assert_eq!(db.storage_name(), "memory");
        assert!(!db.paging_enabled());
        assert_go_live_refused(&text, "XC0015");
    }

    #[test]
    fn malformed_storage_stanza_stays_on_memory_backend() {
        // Disk without a dir, and an unknown backend name: build leaves
        // the memory backend, and `go_live` refuses the stanza (XC0014) —
        // the operator believes the hub is durable when it is not.
        for backend in ["disk", "papyrus"] {
            let text = doc(&format!(r#", "storage": {{"backend": "{backend}"}}"#));
            let fed = build(&text, &["x", "y"]).unwrap();
            assert_eq!(fed.hub().database().read().storage_name(), "memory");
            assert_go_live_refused(&text, "XC0014");
        }
    }

    #[test]
    fn build_wires_members_by_mode() {
        let fed = build(&doc(""), &["x", "y"]).unwrap();
        assert_eq!(
            fed.members(),
            vec![("x", FederationMode::Tight), ("y", FederationMode::Loose)]
        );
        assert_eq!(fed.hub().name(), "federation-hub");
        assert_eq!(
            fed.hub().levels().get("wall_hours").map(<[_]>::len),
            Some(2)
        );
        let pool = fed.hub().parallelism();
        assert_eq!(pool.configured_workers(), 2);
        assert_eq!(pool.configured_shards(), 4);
        let y = &fed.check_model().satellites[1];
        assert_eq!(y.realms, vec!["jobs", "cloud"]);
        assert!(y.supremm_summaries);
    }

    #[test]
    fn build_applies_telemetry_capacity() {
        let fed = build(&doc(r#", "telemetry": {"event_capacity": 1}"#), &["x", "y"]).unwrap();
        let telemetry = fed.hub().telemetry();
        telemetry.event("a", "first");
        telemetry.event("b", "second");
        assert_eq!(telemetry.events().len(), 1);
        assert_eq!(telemetry.events_dropped(), 1);
    }

    #[test]
    fn build_applies_alert_rules() {
        let fed = build(&doc(""), &["x", "y"]).unwrap();
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
    fn unknown_alert_families_are_kept_for_preflight() {
        let stanza = r#", "alerts": {"rules": [{"family": "disk_full", "debounce_ms": 1000}]}"#;
        let fed = build(&doc(stanza), &["x", "y"]).unwrap();
        let rules = fed.alert_engine().rules();
        assert!(rules.entries().any(|(family, _)| family == "disk_full"));
        assert!(!rules.validate().is_empty());
    }

    #[test]
    fn build_fails_on_missing_instance() {
        let err = build_err(&doc(""), &["x"]);
        assert!(err.contains("y listed in config"), "{err}");
    }

    #[test]
    fn malformed_documents_report_errors() {
        let cases = [
            ("{", "bad federation config: config is not valid JSON: "),
            (
                r#"{"hub": 3}"#,
                r#"bad federation config: config: missing string field "hub""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x"}]}"#,
                r#"bad federation config: satellite x: "mode" must be "tight" or "loose""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "lukewarm"}]}"#,
                r#"bad federation config: satellite x: "mode" must be "tight" or "loose""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "tight", "retries": -1}]}"#,
                r#"bad federation config: satellite x: "retries" must be an integer"#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "tight", "retries": 4294967296}]}"#,
                r#"bad federation config: satellite x: "retries" exceeds 4294967295"#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "tight", "link_id": "lx"}]}"#,
                r#"bad federation config: satellite x: "link_id" is "lx", but build runs "x""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "tight", "source_schema": "src"}]}"#,
                r#"bad federation config: satellite x: "source_schema" is "src", but build runs "xdmod_x""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "loose", "hub_schema": "dst"}]}"#,
                r#"bad federation config: satellite x: "hub_schema" is "dst", but build runs "inst_x""#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "tight", "realms": ["jobs"],
                    "replicated_tables": ["jobfact", "cloudfact"]}]}"#,
                r#"bad federation config: satellite x: "replicated_tables" is ["jobfact", "cloudfact"], but build replicates jobfact "#,
            ),
            (
                r#"{"hub": "h", "satellites": [{"name": "x", "mode": "tight", "replicated_tables": []}]}"#,
                r#"bad federation config: satellite x: "replicated_tables" is [], but build replicates every table "#,
            ),
            (
                r#"{"hub": "h", "hub_levels": {"dimensions": {"cores": [
                    {"label": "a", "lo": 0, "hi": 2}, {"label": "b", "lo": 1, "hi": 3}]}}}"#,
                "bad federation config: invalid levels for cores: ",
            ),
        ];
        for (text, want) in cases {
            let err = build_err(text, &["x"]);
            assert!(err.starts_with(want), "{text}: {err}");
        }
    }
}
