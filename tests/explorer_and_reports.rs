//! Integration tests for the usage explorer and federation reporting —
//! the presentation path a real XDMoD deployment exercises daily.

use xdmod::core::{
    federation_report, ChartRequest, Federation, FederationConfig, FederationHub, XdmodInstance,
};
use xdmod::realms::docs::data_dictionary;
use xdmod::realms::levels::{hub_walltime, AggregationLevelsConfig, DIM_WALL_TIME};
use xdmod::realms::RealmKind;
use xdmod::sim::{CloudSim, ClusterSim, ResourceProfile, StorageSim};
use xdmod::warehouse::{CivilDate, Period};

fn federation() -> (Vec<XdmodInstance>, Federation) {
    let mut instances = Vec::new();
    for (name, resource, seed) in [("ccr", "rush", 1u64), ("cornell", "redcloud-hpc", 2)] {
        let mut inst = XdmodInstance::new(name);
        inst.set_su_factor(resource, 1.4);
        let sim = ClusterSim::new(ResourceProfile::generic(resource, 128, 24.0, 1.4), seed);
        inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=4))
            .unwrap();
        instances.push(inst);
    }
    // CCR also carries storage + cloud.
    instances[0]
        .ingest_storage_json(&StorageSim::ccr(3).json_document(2017, 3))
        .unwrap();
    let cloud = CloudSim::new("ccr-cloud", 10, 3);
    instances[0]
        .ingest_cloud_feed(&cloud.event_feed(2017), CloudSim::horizon(2017))
        .unwrap();

    let mut hub = FederationHub::new("fed-hub");
    let mut levels = AggregationLevelsConfig::new();
    levels.set(DIM_WALL_TIME, hub_walltime());
    hub.set_levels(levels);
    let mut fed = Federation::new(hub);
    for inst in &instances {
        fed.join_tight(inst, FederationConfig::default_realms())
            .unwrap();
    }
    fed.sync().unwrap();
    (instances, fed)
}

#[test]
fn explorer_federated_su_by_resource_covers_both_sites() {
    let (_instances, fed) = federation();
    let ds = fed
        .hub()
        .explore_federated(
            &ChartRequest::timeseries(RealmKind::Jobs, "total_su", Period::Month)
                .group_by("resource"),
        )
        .unwrap();
    assert_eq!(ds.series.len(), 2);
    assert!(ds.title.contains("federated"));
    assert!(ds.series_named("rush").is_some());
    assert!(ds.series_named("redcloud-hpc").is_some());
}

#[test]
fn explorer_numeric_dimension_uses_hub_levels_on_hub() {
    let (_instances, fed) = federation();
    let ds = fed
        .hub()
        .explore_federated(
            &ChartRequest::aggregate(RealmKind::Jobs, "job_count").group_by(DIM_WALL_TIME),
        )
        .unwrap();
    // Labels come from the hub's wall-time levels.
    for label in &ds.labels {
        assert!(
            [
                "0-60 minutes",
                "1-5 hours",
                "5-10 hours",
                "10-20 hours",
                "20-50 hours",
                "other"
            ]
            .contains(&label.as_str()),
            "unexpected label {label}"
        );
    }
}

#[test]
fn explorer_drilldown_matches_direct_filter_total() {
    let (instances, fed) = federation();
    let ds_all = fed
        .hub()
        .explore_federated(&ChartRequest::timeseries(
            RealmKind::Jobs,
            "total_cpu_hours",
            Period::Year,
        ))
        .unwrap();
    let ds_rush = fed
        .hub()
        .explore_federated(
            &ChartRequest::timeseries(RealmKind::Jobs, "total_cpu_hours", Period::Year)
                .filter("resource", "rush"),
        )
        .unwrap();
    let all = ds_all.series_total("total_cpu_hours").unwrap();
    let rush = ds_rush.series_total("total_cpu_hours").unwrap();
    assert!(rush < all);
    // Drill-down on the hub matches the owning satellite's local total.
    let local = instances[0]
        .explore(&ChartRequest::timeseries(
            RealmKind::Jobs,
            "total_cpu_hours",
            Period::Year,
        ))
        .unwrap()
        .series_total("total_cpu_hours")
        .unwrap();
    assert!((rush - local).abs() < 1e-6);
}

#[test]
fn annual_report_renders_with_charts_and_tables() {
    let (_instances, fed) = federation();
    let report = federation_report(&fed, 2017);
    let text = report.render();
    assert!(text.contains("fed-hub — 2017 annual summary"));
    assert!(text.contains("2 member instances"));
    assert!(text.contains("HPC usage"));
    assert!(text.contains("Storage"));
    assert!(text.contains("Cloud"));
    // The charts carry real month labels.
    assert!(text.contains("2017-0"));
}

#[test]
fn report_respects_time_range() {
    let (_instances, fed) = federation();
    // A report for 2016 finds membership but no realm data in range.
    let text = federation_report(&fed, 2016).render();
    assert!(text.contains("2016 annual summary"));
    // No 2017 month labels leak into the 2016 report's charts.
    assert!(!text.contains("2017-03"));
}

#[test]
fn data_dictionary_matches_explorer_vocabulary() {
    let (instances, _fed) = federation();
    let dict = data_dictionary(instances[0].levels());
    // Every metric the dictionary lists must be explorable.
    for (realm, metric) in [
        (RealmKind::Jobs, "total_su"),
        (RealmKind::Storage, "physical_usage"),
        (RealmKind::Cloud, "total_core_hours"),
    ] {
        assert!(dict.contains(&format!("`{metric}`")));
        instances[0]
            .explore(&ChartRequest::timeseries(realm, metric, Period::Month))
            .unwrap();
    }
}

#[test]
fn explorer_time_ranges_clip_exactly() {
    let (instances, _fed) = federation();
    let feb = CivilDate::new(2017, 2, 1).to_epoch();
    let mar = CivilDate::new(2017, 3, 1).to_epoch();
    let ds = instances[0]
        .explore(
            &ChartRequest::timeseries(RealmKind::Jobs, "job_count", Period::Month)
                .between(feb, mar),
        )
        .unwrap();
    assert_eq!(ds.labels, vec!["2017-02"]);
}
