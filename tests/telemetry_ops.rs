//! Self-monitoring end to end: a hub plus two live-replicating
//! satellites, all reporting into the hub's metrics registry, capped by
//! the `ops_report()` dashboard — the monitoring system monitoring
//! itself.

use std::time::Duration;
use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::realms::RealmKind;
use xdmod::sim::{ClusterSim, ResourceProfile};
use xdmod::warehouse::{AggFn, Aggregate, DiskBackend, DiskOptions, Query};

/// Poll `cond` for up to ~5 s; panic with `what` if it never holds.
fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..5000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

fn satellite(name: &str, resource: &str, seed: u64) -> XdmodInstance {
    let mut inst = XdmodInstance::new(name);
    let sim = ClusterSim::new(ResourceProfile::generic(resource, 128, 24.0, 1.0), seed);
    inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=2))
        .unwrap();
    inst
}

#[test]
fn federation_self_monitoring_end_to_end() {
    let mut x = satellite("x", "res-x", 11);
    let y = satellite("y", "res-y", 22);
    let x_jobs = x.fact_rows(RealmKind::Jobs).unwrap();
    let y_jobs = y.fact_rows(RealmKind::Jobs).unwrap();
    assert!(x_jobs > 0 && y_jobs > 0);

    let mut fed = Federation::new(FederationHub::new("ops-hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.join_tight(&y, FederationConfig::default()).unwrap();
    assert_eq!(fed.go_live(Duration::from_millis(1)).unwrap(), 2);
    eventually("both satellites to drain", || {
        fed.hub().federated_fact_rows(RealmKind::Jobs) == x_jobs + y_jobs
    });

    // A maintenance window on x: lag becomes visible on the hub's gauges
    // while y keeps replicating.
    fed.pause_member("x").unwrap();
    let sim = ClusterSim::new(ResourceProfile::generic("res-x", 128, 24.0, 1.0), 33);
    x.ingest_sacct("res-x", &sim.sacct_log(2017, 3..=3))
        .unwrap();
    let backlog = x.fact_rows(RealmKind::Jobs).unwrap() - x_jobs;
    eventually("lag gauge to expose the backlog", || {
        fed.hub()
            .telemetry()
            .snapshot()
            .gauge("replication_lag_events", &[("link", "x")])
            .is_some_and(|lag| lag > 0.0)
    });
    // Wall-clock lag is finite and positive while behind.
    eventually("wall-clock lag to register", || {
        fed.hub()
            .telemetry()
            .snapshot()
            .gauge("replication_lag_seconds", &[("link", "x")])
            .is_some_and(|s| s > 0.0 && s.is_finite())
    });

    fed.resume_member("x").unwrap();
    eventually("x's backlog to drain", || {
        fed.hub().federated_fact_rows(RealmKind::Jobs) == x_jobs + y_jobs + backlog
    });
    assert_eq!(fed.quiesce(), 2);

    let snap = fed.hub().telemetry().snapshot();
    // Lag settled back to zero after quiescence.
    assert_eq!(
        snap.gauge("replication_lag_events", &[("link", "x")]),
        Some(0.0)
    );
    assert_eq!(
        snap.gauge("replication_lag_seconds", &[("link", "x")]),
        Some(0.0)
    );
    // Per-link applied counts match what each satellite shipped.
    assert_eq!(
        snap.counter("replication_events_applied_total", &[("link", "x")])
            .map(|n| n > 0),
        Some(true)
    );
    assert_eq!(
        snap.counter("replication_events_applied_total", &[("link", "y")])
            .map(|n| n > 0),
        Some(true)
    );
    assert_eq!(snap.counter_total("replication_apply_errors_total"), 0);
    // Replication wrote through the hub warehouse's binlog.
    assert!(snap.counter_total("warehouse_binlog_appends_total") > 0);
    assert!(snap.counter_total("warehouse_binlog_bytes_total") > 0);

    // Federated queries time the fan-out per satellite.
    let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
    let total = fed
        .hub()
        .federated_query(RealmKind::Jobs, &q)
        .unwrap()
        .scalar_f64("total")
        .unwrap();
    assert!(total > 0.0);
    let snap = fed.hub().telemetry().snapshot();
    for sat in ["x", "y"] {
        let h = snap
            .histogram("hub_satellite_query_seconds", &[("satellite", sat)])
            .unwrap_or_else(|| panic!("satellite {sat} untimed"));
        assert!(h.count >= 1);
        assert!(h.max.is_finite());
    }
    assert!(snap.histogram("hub_federated_query_seconds", &[]).is_some());

    // The ops dashboard renders the maintenance window's lag series and
    // the latency table, both read from the registry snapshot.
    let text = fed.hub().ops_report().render();
    assert!(
        text.contains("Replication lag"),
        "no lag series in:\n{text}"
    );
    assert!(text.contains("Operation latency quantiles"));
    assert!(!fed
        .hub()
        .telemetry()
        .events_of_kind("replication.lag")
        .is_empty());

    // Prometheus text carries the per-link counters; JSON exposition is
    // well-formed.
    let prom = fed.hub().telemetry().prometheus_text();
    assert!(prom.contains("replication_events_applied_total{link=\"x\"}"));
    assert!(prom.contains("# TYPE warehouse_binlog_appends_total counter"));
    let exposition = fed.hub().telemetry().json();
    let json = xdmod_check::json::parse(&exposition).expect("exposition JSON parses");
    assert!(json.get("counters").and_then(|v| v.as_array()).is_some());
    assert!(json.get("histograms").and_then(|v| v.as_array()).is_some());
}

#[test]
fn dashboard_reads_leave_the_durable_hub_log_alone() {
    let dir = std::env::temp_dir().join(format!("xdmod-ops-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut hub = FederationHub::new("hub");
    let backend = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
    hub.set_storage(Box::new(backend)).unwrap();
    hub.set_snapshot_policy(Some(100));
    let mut x = satellite("x", "res-x", 11);
    let mut fed = Federation::new(hub);
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.sync().unwrap();
    let chart = Query::new()
        .group_by_column("resource")
        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
    fed.hub().federated_query(RealmKind::Jobs, &chart).unwrap();
    let registry = fed.hub().telemetry().clone();
    let count = |name: &str| registry.snapshot().counter_total(name);

    // Sixty dashboard renders: no binlog record, so no snapshot and no
    // compaction of the hub log.
    let compactions = count("warehouse_compactions_total");
    for _ in 0..60 {
        fed.ops_report();
    }
    assert_eq!(count("warehouse_compactions_total"), compactions);

    // One more month replicates: the next chart folds it into the
    // retained entry instead of rebuilding.
    let sim = ClusterSim::new(ResourceProfile::generic("res-x", 128, 24.0, 1.0), 33);
    x.ingest_sacct("res-x", &sim.sacct_log(2017, 3..=3))
        .unwrap();
    fed.sync().unwrap();
    let folds = count("warehouse_delta_folds_total");
    let fallbacks = count("warehouse_delta_fallback_rebuilds_total");
    fed.hub().federated_query(RealmKind::Jobs, &chart).unwrap();
    assert_eq!(count("warehouse_delta_folds_total"), folds + 1);
    assert_eq!(count("warehouse_delta_fallback_rebuilds_total"), fallbacks);
    drop(fed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn preflight_refuses_go_live_and_reports_to_telemetry() {
    // `schema_for` sanitizes both names to inst_site_a: pre-flight's
    // XC0001 (hub schema collision) must stop go_live before any
    // replication thread starts, and the refusal must be visible on the
    // same ops registry the dashboard reads.
    let a = satellite("site-a", "res-a", 41);
    let b = satellite("site.a", "res-b", 42);
    let mut fed = Federation::new(FederationHub::new("ops-hub"));
    fed.join_tight(&a, FederationConfig::default()).unwrap();
    fed.join_tight(&b, FederationConfig::default()).unwrap();

    let err = fed.go_live(Duration::from_millis(1)).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("XC0001"), "diagnostics missing from: {msg}");
    assert!(msg.contains("go_live_forced"), "no override hint in: {msg}");

    // The refusal left an audit event with the error count.
    let events = fed
        .hub()
        .telemetry()
        .events_of_kind("federation.preflight_refused");
    assert_eq!(events.len(), 1);

    // Nothing went live: both links are still in polled mode.
    assert!(fed.pause_member("site-a").is_err());
    assert!(fed.pause_member("site.a").is_err());

    // An operator who has reviewed the report can still force the
    // switch; quiesce returns the links to polled mode cleanly.
    assert_eq!(fed.go_live_forced(Duration::from_millis(1)), 2);
    assert_eq!(fed.quiesce(), 2);
}

#[test]
fn satellite_registries_can_share_the_hub_view() {
    let mut x = XdmodInstance::new("x");
    let mut fed = Federation::new(FederationHub::new("hub"));
    // Attach the hub's registry to the satellite *before* ingesting:
    // ingest counters and satellite-local query timings land in the same
    // federation-wide view.
    x.set_telemetry(fed.hub().telemetry().clone());
    let sim = ClusterSim::new(ResourceProfile::generic("r", 64, 8.0, 1.0), 7);
    x.ingest_sacct("r", &sim.sacct_log(2017, 1..=1)).unwrap();
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.sync().unwrap();

    let snap = fed.hub().telemetry().snapshot();
    assert!(snap
        .counter("ingest_records_total", &[("format", "sacct")])
        .is_some_and(|n| n > 0));
    assert!(snap
        .counter("replication_events_read_total", &[("link", "x")])
        .is_some_and(|n| n > 0));
}
