//! End-to-end integration: simulators → shredders → warehouse →
//! replication → federation hub → charts, across every crate in the
//! workspace.

use xdmod::chart::Dataset;
use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::realms::levels::{hub_walltime, AggregationLevelsConfig, DIM_WALL_TIME};
use xdmod::realms::RealmKind;
use xdmod::sim::{CloudSim, ClusterSim, ResourceProfile, StorageSim};
use xdmod::warehouse::{AggFn, Aggregate, Period, Query};

fn hpc_instance(
    name: &str,
    resource: &str,
    seed: u64,
    months: std::ops::RangeInclusive<u8>,
) -> XdmodInstance {
    let mut inst = XdmodInstance::new(name);
    inst.set_su_factor(resource, 1.5);
    let sim = ClusterSim::new(ResourceProfile::generic(resource, 256, 48.0, 1.5), seed);
    inst.ingest_sacct(resource, &sim.sacct_log(2017, months))
        .unwrap();
    inst
}

#[test]
fn federated_totals_equal_sum_of_satellite_totals() {
    let x = hpc_instance("x", "res-x", 1, 1..=3);
    let y = hpc_instance("y", "res-y", 2, 1..=3);

    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.join_loose(&y, FederationConfig::default()).unwrap();
    fed.sync().unwrap();

    let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
    let local_x = x
        .query(RealmKind::Jobs, &q)
        .unwrap()
        .scalar_f64("total")
        .unwrap();
    let local_y = y
        .query(RealmKind::Jobs, &q)
        .unwrap()
        .scalar_f64("total")
        .unwrap();
    let fed_total = fed
        .hub()
        .federated_query(RealmKind::Jobs, &q)
        .unwrap()
        .scalar_f64("total")
        .unwrap();
    assert!((fed_total - (local_x + local_y)).abs() < 1e-6);
}

#[test]
fn hub_aggregates_with_its_own_levels_losslessly() {
    let x = hpc_instance("x", "res-x", 3, 1..=2);
    let mut fed = Federation::new(FederationHub::new("hub"));
    let mut levels = AggregationLevelsConfig::new();
    levels.set(DIM_WALL_TIME, hub_walltime());
    fed.hub_mut().set_levels(levels);
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.sync_and_aggregate().unwrap();

    // Sum of the hub's binned year answer equals the raw federated sum:
    // "all raw instance data are fully replicated to the master, then
    // aggregated there ... so no data are lost or changed".
    let year = fed.hub().aggregate(RealmKind::Jobs, Period::Year).unwrap();
    let cpu_idx = year.column_index("total_cpu_hours").unwrap();
    let agg_sum: f64 = year.rows.iter().map(|r| r[cpu_idx].as_f64().unwrap()).sum();

    let raw_sum = fed
        .hub()
        .federated_query(
            RealmKind::Jobs,
            &Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total")),
        )
        .unwrap()
        .scalar_f64("total")
        .unwrap();
    assert!((agg_sum - raw_sum).abs() < 1e-6);
}

#[test]
fn live_threaded_replication_matches_polled() {
    use std::time::Duration;

    // One satellite, two hubs: one replicating live on its federation's
    // driver thread, the other polled by sync.
    let mut inst = hpc_instance("x", "res-x", 4, 1..=1);
    let mut live = Federation::new(FederationHub::new("live"));
    let mut polled = Federation::new(FederationHub::new("polled"));
    live.join_tight(&inst, FederationConfig::default()).unwrap();
    polled
        .join_tight(&inst, FederationConfig::default())
        .unwrap();
    live.go_live(Duration::from_millis(1)).unwrap();

    // Keep ingesting while the driver streams.
    let sim = ClusterSim::new(ResourceProfile::generic("res-x", 256, 48.0, 1.5), 5);
    inst.ingest_sacct("res-x", &sim.sacct_log(2017, 2..=2))
        .unwrap();
    inst.ingest_sacct("res-x", &sim.sacct_log(2017, 3..=3))
        .unwrap();

    assert_eq!(live.quiesce(), 1);
    polled.sync().unwrap();
    let expected = inst.fact_rows(RealmKind::Jobs).unwrap();
    let checksum = |fed: &Federation| {
        let hub = fed.hub().database();
        let hub = hub.read();
        let jobs = hub.table("inst_x", "jobfact").unwrap();
        (jobs.len(), jobs.content_checksum())
    };
    assert_eq!(checksum(&live).0, expected);
    assert_eq!(checksum(&live), checksum(&polled));
    assert!(live.verify_member(&inst).unwrap());
}

#[test]
fn all_three_heterogeneous_realms_federate() {
    let mut ccr = XdmodInstance::new("ccr");
    let hpc = ClusterSim::new(ResourceProfile::generic("rush", 128, 48.0, 1.0), 6);
    ccr.ingest_sacct("rush", &hpc.sacct_log(2017, 1..=2))
        .unwrap();
    ccr.ingest_storage_json(&StorageSim::ccr(6).json_document(2017, 1))
        .unwrap();
    let cloud = CloudSim::new("ccr-cloud", 10, 6);
    ccr.ingest_cloud_feed(&cloud.event_feed(2017), CloudSim::horizon(2017))
        .unwrap();
    // SUPReMM data exists locally...
    let jobs = hpc.jobs(2017, 1..=1);
    ccr.ingest_pcp(&hpc.pcp_archive(&jobs[..5])).unwrap();

    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&ccr, FederationConfig::default_realms())
        .unwrap();
    fed.sync().unwrap();

    assert!(fed.hub().federated_fact_rows(RealmKind::Jobs) > 0);
    assert!(fed.hub().federated_fact_rows(RealmKind::Storage) > 0);
    assert!(fed.hub().federated_fact_rows(RealmKind::Cloud) > 0);
    // ...but never crosses to the hub (§II-C5).
    assert_eq!(fed.hub().federated_fact_rows(RealmKind::Supremm), 0);
    assert!(ccr.fact_rows(RealmKind::Supremm).unwrap() > 0);
}

#[test]
fn drill_down_matches_filtered_totals() {
    // XDMoD's drill-down is filter + regroup; verify the algebra: the sum
    // over a drill-down equals the parent group's value.
    let x = hpc_instance("x", "res-x", 7, 1..=1);
    let total = x
        .query(
            RealmKind::Jobs,
            &Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "t")),
        )
        .unwrap()
        .scalar_f64("t")
        .unwrap();
    let by_user = x
        .query(
            RealmKind::Jobs,
            &Query::new()
                .group_by_column("user")
                .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "t")),
        )
        .unwrap();
    let idx = by_user.column_index("t").unwrap();
    let sum: f64 = by_user.rows.iter().map(|r| r[idx].as_f64().unwrap()).sum();
    assert!((sum - total).abs() < 1e-6);
}

#[test]
fn federated_chart_renders_per_resource_series() {
    let x = hpc_instance("x", "res-x", 8, 1..=3);
    let y = hpc_instance("y", "res-y", 9, 2..=4);
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.join_tight(&y, FederationConfig::default()).unwrap();
    fed.sync().unwrap();

    let rs = fed
        .hub()
        .federated_query(
            RealmKind::Jobs,
            &Query::new()
                .group_by_period("end_time", Period::Month)
                .group_by_column("resource")
                .aggregate(Aggregate::of(AggFn::Sum, "su_charged", "total_su")),
        )
        .unwrap();
    let ds = Dataset::timeseries(
        "SUs",
        "XD SU",
        &rs,
        Period::Month,
        "end_time_month",
        Some("resource"),
        "total_su",
    )
    .unwrap();
    assert_eq!(ds.series.len(), 2);
    assert!(ds.width() >= 3);
    // res-x has no April data; its series must end in a gap or the chart
    // covers exactly both ranges.
    let res_x = ds.series_named("res-x").unwrap();
    assert!(res_x.values.last().unwrap().is_none() || ds.width() == 3);
    let rendered = xdmod::chart::ascii_chart(&ds, 10);
    assert!(rendered.contains("res-x"));
    assert!(rendered.contains("res-y"));
}

#[test]
fn version_mismatch_blocks_membership_end_to_end() {
    use xdmod::core::XdmodVersion;
    let old = XdmodInstance::with_version("old", XdmodVersion::new(7, 0, 0));
    let mut fed = Federation::new(FederationHub::new("hub"));
    assert!(fed.join_tight(&old, FederationConfig::default()).is_err());
    assert!(fed.hub().satellites().is_empty());
}
