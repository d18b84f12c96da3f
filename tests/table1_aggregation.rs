//! Integration test reproducing **Table I** of the paper: different
//! wall-time aggregation levels on Instance A (5-hour limit), Instance B
//! (50-hour limit), and the federation hub — with the guarantee that
//! re-binning on the hub is lossless. Satellites read their own period
//! tables; the hub's aggregates are answers over the replicated facts.

use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::realms::levels::{
    hub_walltime, instance_a_walltime, instance_b_walltime, AggregationLevelsConfig, DIM_WALL_TIME,
};
use xdmod::realms::RealmKind;
use xdmod::sim::{ClusterSim, ResourceProfile};
use xdmod::warehouse::{AggFn, Aggregate, Period, Query, Value};

/// Instance A monitors resources with a 5-hour wall limit; Instance B,
/// 50 hours — exactly Table I's setup.
fn build_federation() -> (XdmodInstance, XdmodInstance, Federation) {
    let mut a = XdmodInstance::new("instance-a");
    let sim_a = ClusterSim::new(ResourceProfile::generic("short-queue", 128, 5.0, 1.0), 41);
    a.ingest_sacct("short-queue", &sim_a.sacct_log(2017, 1..=2))
        .unwrap();
    let mut levels_a = AggregationLevelsConfig::new();
    levels_a.set(DIM_WALL_TIME, instance_a_walltime());
    a.set_levels(levels_a);
    a.aggregate().unwrap();

    let mut b = XdmodInstance::new("instance-b");
    let sim_b = ClusterSim::new(ResourceProfile::generic("long-queue", 128, 50.0, 1.0), 42);
    b.ingest_sacct("long-queue", &sim_b.sacct_log(2017, 1..=2))
        .unwrap();
    let mut levels_b = AggregationLevelsConfig::new();
    levels_b.set(DIM_WALL_TIME, instance_b_walltime());
    b.set_levels(levels_b);
    b.aggregate().unwrap();

    let mut hub = FederationHub::new("hub");
    let mut hub_levels = AggregationLevelsConfig::new();
    hub_levels.set(DIM_WALL_TIME, hub_walltime());
    hub.set_levels(hub_levels);

    let mut fed = Federation::new(hub);
    fed.join_tight(&a, FederationConfig::default()).unwrap();
    fed.join_tight(&b, FederationConfig::default()).unwrap();
    fed.sync_and_aggregate().unwrap();
    (a, b, fed)
}

/// Distinct wall-time bin labels in a column of aggregate rows.
fn distinct_labels<'a>(bins: impl Iterator<Item = &'a Value>) -> Vec<String> {
    let mut labels: Vec<String> = bins
        .map(|v| v.as_str().unwrap_or("NULL").to_owned())
        .collect();
    labels.sort();
    labels.dedup();
    labels
}

/// Wall-time bin labels present in an instance's monthly aggregate table.
fn bins_used(db: &xdmod::warehouse::Database, schema: &str) -> Vec<String> {
    let t = db.table(schema, "jobfact_by_month").unwrap();
    let idx = t.schema().column_index("wall_hours_bin").unwrap();
    let rows = t.rows().expect("rows readable");
    distinct_labels(rows.iter().map(|r| &r[idx]))
}

/// Wall-time bin labels of one satellite's data in the hub's monthly
/// answer, under the hub's levels.
fn hub_bins_used(fed: &Federation, sat: &str) -> Vec<String> {
    let hub = fed.hub();
    let month = hub
        .aggregation_spec(RealmKind::Jobs)
        .period_query(Period::Month);
    let rs = hub.query_instance(sat, RealmKind::Jobs, &month).unwrap();
    let idx = rs.column_index("wall_hours_bin").unwrap();
    distinct_labels(rs.rows.iter().map(|r| &r[idx]))
}

#[test]
fn satellite_a_uses_its_own_fine_grained_levels() {
    let (a, _, _) = build_federation();
    let db = a.database();
    let db = db.read();
    let labels = bins_used(&db, &a.schema_name());
    // Every label is from Instance A's configured set (plus possibly
    // "other" for sub-second jobs).
    for l in &labels {
        assert!(
            ["1-60 seconds", "1-60 minutes", "1-5 hours", "other"].contains(&l.as_str()),
            "unexpected bin {l} on instance A"
        );
    }
    assert!(labels.contains(&"1-5 hours".to_owned()));
}

#[test]
fn satellite_b_uses_coarser_levels() {
    let (_, b, _) = build_federation();
    let db = b.database();
    let db = db.read();
    let labels = bins_used(&db, &b.schema_name());
    for l in &labels {
        assert!(
            ["1-10 hours", "10-20 hours", "20-50 hours", "other"].contains(&l.as_str()),
            "unexpected bin {l} on instance B"
        );
    }
    assert!(labels.contains(&"20-50 hours".to_owned()));
}

#[test]
fn hub_rebins_all_raw_data_under_its_own_levels() {
    let (_, _, fed) = build_federation();
    for sat in ["instance-a", "instance-b"] {
        let labels = hub_bins_used(&fed, sat);
        for l in &labels {
            assert!(
                [
                    "0-60 minutes",
                    "1-5 hours",
                    "5-10 hours",
                    "10-20 hours",
                    "20-50 hours",
                    "other"
                ]
                .contains(&l.as_str()),
                "unexpected hub bin {l} for {sat}"
            );
        }
    }
    // Instance A's data never reaches B's long bins, and vice versa: the
    // hub's 20-50 hour bin contains only instance-b jobs.
    let a_labels = hub_bins_used(&fed, "instance-a");
    assert!(!a_labels.contains(&"20-50 hours".to_owned()));
    let b_labels = hub_bins_used(&fed, "instance-b");
    assert!(b_labels.contains(&"20-50 hours".to_owned()));
}

#[test]
fn rebinning_is_lossless() {
    // "All raw instance data are fully replicated to the master, then
    // aggregated there, according to the federation hub's aggregation
    // levels, so no data are lost or changed."
    let (a, b, fed) = build_federation();
    let q = Query::new()
        .aggregate(Aggregate::count("jobs"))
        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "cpu"));
    let rs_a = a.query(RealmKind::Jobs, &q).unwrap();
    let rs_b = b.query(RealmKind::Jobs, &q).unwrap();
    let rs_hub = fed.hub().federated_query(RealmKind::Jobs, &q).unwrap();
    assert_eq!(
        rs_hub.scalar_f64("jobs").unwrap(),
        rs_a.scalar_f64("jobs").unwrap() + rs_b.scalar_f64("jobs").unwrap()
    );
    let hub_cpu = rs_hub.scalar_f64("cpu").unwrap();
    let sat_cpu = rs_a.scalar_f64("cpu").unwrap() + rs_b.scalar_f64("cpu").unwrap();
    assert!((hub_cpu - sat_cpu).abs() < 1e-6);

    // And the hub's binned year answer sums to the same job count.
    let year = fed.hub().aggregate(RealmKind::Jobs, Period::Year).unwrap();
    let idx = year.column_index("job_count").unwrap();
    let agg_jobs: i64 = year.rows.iter().map(|r| r[idx].as_i64().unwrap()).sum();
    assert_eq!(agg_jobs as f64, rs_hub.scalar_f64("jobs").unwrap());
}

#[test]
fn changing_hub_levels_and_reaggregating() {
    // The administrator redefines hub levels "to accommodate a new
    // satellite instance", then re-aggregates all raw federation data.
    // Bin *contents* change; totals must not.
    let (_, _, mut fed) = build_federation();
    let total_before: f64 = fed
        .hub()
        .federated_query(
            RealmKind::Jobs,
            &Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "t")),
        )
        .unwrap()
        .scalar_f64("t")
        .unwrap();

    let mut new_levels = AggregationLevelsConfig::new();
    new_levels.set(
        DIM_WALL_TIME,
        vec![
            xdmod::realms::LevelSpec::new("0-24 hours", 0.0, 24.0),
            xdmod::realms::LevelSpec::new("24-100 hours", 24.0, 100.0),
        ],
    );
    fed.hub_mut().set_levels(new_levels);
    fed.hub().aggregate_all().unwrap();

    let labels = hub_bins_used(&fed, "instance-a");
    assert!(labels
        .iter()
        .all(|l| l == "0-24 hours" || l == "24-100 hours" || l == "other"));

    let total_after: f64 = fed
        .hub()
        .federated_query(
            RealmKind::Jobs,
            &Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "t")),
        )
        .unwrap()
        .scalar_f64("t")
        .unwrap();
    assert!((total_before - total_after).abs() < 1e-9);
}

#[test]
fn timeout_jobs_land_in_the_top_bin_of_their_instance() {
    let (a, b, _) = build_federation();
    // On instance A, a TIMEOUT job ran exactly 5 h: the paper's levels
    // make 1-5 hours the top bin; [1,5) excludes 5.0, so it is "other".
    // Checking the raw data confirms the half-open semantics.
    let q = Query::new()
        .filter(xdmod::warehouse::Predicate::Eq(
            "exit_status".into(),
            Value::Str("TIMEOUT".into()),
        ))
        .aggregate(Aggregate::of(AggFn::Max, "wall_hours", "max_wall"));
    let rs = a.query(RealmKind::Jobs, &q).unwrap();
    if let Some(max_wall) = rs.scalar_f64("max_wall") {
        assert!((max_wall - 5.0).abs() < 1e-9);
    }
    let rs = b.query(RealmKind::Jobs, &q).unwrap();
    if let Some(max_wall) = rs.scalar_f64("max_wall") {
        assert!((max_wall - 50.0).abs() < 1e-9);
    }
}
