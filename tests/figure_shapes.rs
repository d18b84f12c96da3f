//! Integration tests asserting the *shape* of every data figure in the
//! paper, driven through the full pipeline (simulate → ingest →
//! federate → query → chart).

use xdmod::chart::Dataset;
use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::realms::cloud::avg_core_hours_per_vm;
use xdmod::realms::levels::{fig7_vm_memory_levels, AggregationLevelsConfig, DIM_VM_MEMORY};
use xdmod::realms::RealmKind;
use xdmod::sim::{CloudSim, ClusterSim, ResourceProfile, StorageSim};
use xdmod::warehouse::{AggFn, Aggregate, GroupKey, OrderBy, Period, Query};

/// Build the Fig. 1 scenario: the three 2017 XSEDE-like resources on one
/// instance (XSEDE XDMoD monitors many resources in one install).
fn xsede_instance() -> XdmodInstance {
    let mut inst = XdmodInstance::new("xsede");
    for (profile, seed) in [
        (ResourceProfile::comet(), 101),
        (ResourceProfile::stampede(), 102),
        (ResourceProfile::stampede2(), 103),
    ] {
        inst.set_su_factor(&profile.name, profile.hpl_gflops_per_core);
        let name = profile.name.clone();
        let sim = ClusterSim::new(profile, seed);
        inst.ingest_sacct(&name, &sim.sacct_log(2017, 1..=12))
            .unwrap();
    }
    inst
}

#[test]
fn fig1_top_three_resources_by_total_su() {
    let inst = xsede_instance();
    // "Top XSEDE resources in 2017, by total SUs charged": rank by SUM.
    let rs = inst
        .query(
            RealmKind::Jobs,
            &Query::new()
                .group_by_column("resource")
                .aggregate(Aggregate::of(AggFn::Sum, "su_charged", "total_su"))
                .order(OrderBy::ColumnDesc("total_su".into()))
                .limit(3),
        )
        .unwrap();
    let order: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(
        order,
        vec!["comet", "stampede2", "stampede"],
        "Fig. 1 ordering violated"
    );
}

#[test]
fn fig1_monthly_series_shapes() {
    let inst = xsede_instance();
    // The paper's chart covers calendar 2017; jobs spilling into 2018
    // are excluded by the time-range filter, as in the XDMoD UI.
    let y2017 = xdmod::warehouse::CivilDate::new(2017, 1, 1).to_epoch();
    let y2018 = xdmod::warehouse::CivilDate::new(2018, 1, 1).to_epoch();
    let rs = inst
        .query(
            RealmKind::Jobs,
            &Query::new()
                .filter(xdmod::warehouse::Predicate::TimeRange {
                    column: "end_time".into(),
                    start: y2017,
                    end: y2018,
                })
                .group_by_period("end_time", Period::Month)
                .group_by_column("resource")
                .aggregate(Aggregate::of(AggFn::Sum, "su_charged", "total_su")),
        )
        .unwrap();
    let ds = Dataset::timeseries(
        "Fig 1",
        "XD SU",
        &rs,
        Period::Month,
        "end_time_month",
        Some("resource"),
        "total_su",
    )
    .unwrap();

    // Stampede2 is absent early in the year and strong late.
    let s2 = ds.series_named("stampede2").unwrap();
    assert!(
        s2.values[0].is_none(),
        "stampede2 should be dark in January"
    );
    assert!(s2.values[11].unwrap_or(0.0) > 0.0);

    // Stampede declines: December well below January.
    let s1 = ds.series_named("stampede").unwrap();
    let jan = s1.values[0].unwrap();
    let dec = s1.values[11].unwrap_or(0.0);
    assert!(
        dec < jan * 0.3,
        "stampede should ramp down (jan {jan}, dec {dec})"
    );

    // Comet is comparatively steady: every month within 3x of its mean.
    let comet = ds.series_named("comet").unwrap();
    let vals: Vec<f64> = comet.values.iter().flatten().copied().collect();
    assert_eq!(vals.len(), 12);
    let mean = vals.iter().sum::<f64>() / 12.0;
    for v in vals {
        assert!(v > mean / 3.0 && v < mean * 3.0);
    }

    // Late-year crossover: Stampede2's December exceeds Stampede's.
    assert!(s2.values[11].unwrap() > dec);
}

#[test]
fn fig6_storage_file_count_and_usage_grow_monthly() {
    let mut inst = XdmodInstance::new("ccr");
    for doc in StorageSim::ccr(7).year_documents(2017) {
        inst.ingest_storage_json(&doc).unwrap();
    }
    let rs = inst
        .query(
            RealmKind::Storage,
            &Query::new()
                .group_by_period("ts", Period::Month)
                .aggregate(Aggregate::of(AggFn::Sum, "file_count", "files"))
                .aggregate(Aggregate::of(AggFn::Sum, "physical_usage_gb", "physical")),
        )
        .unwrap();
    assert_eq!(rs.len(), 12);
    let files = rs.column("files").unwrap();
    let physical = rs.column("physical").unwrap();
    for pair in files.windows(2) {
        assert!(pair[1].as_f64().unwrap() > pair[0].as_f64().unwrap());
    }
    for pair in physical.windows(2) {
        assert!(pair[1].as_f64().unwrap() > pair[0].as_f64().unwrap());
    }
}

#[test]
fn fig7_avg_core_hours_per_vm_increase_with_memory_bin() {
    let mut inst = XdmodInstance::new("ccr");
    let sim = CloudSim::new("ccr-cloud", 40, 9);
    inst.ingest_cloud_feed(&sim.event_feed(2017), CloudSim::horizon(2017))
        .unwrap();

    let bins = {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_VM_MEMORY, fig7_vm_memory_levels());
        cfg.bins_for(DIM_VM_MEMORY).unwrap()
    };
    let rs = inst
        .query(
            RealmKind::Cloud,
            &Query::new()
                .group(GroupKey::Binned("memory_gb".into(), bins))
                .aggregate(Aggregate::of(AggFn::Sum, "core_hours", "total_core_hours"))
                .aggregate(Aggregate::of(AggFn::CountDistinct, "vm_id", "num_vms")),
        )
        .unwrap();
    let labels: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    let avg = avg_core_hours_per_vm(&rs).unwrap();

    // Order the paper's four bins and check monotone increase.
    let want = ["<1 GB", "1-2 GB", "2-4 GB", "4-8 GB"];
    let mut ordered = Vec::new();
    for w in want {
        let idx = labels
            .iter()
            .position(|l| l == w)
            .unwrap_or_else(|| panic!("bin {w} missing from result ({labels:?})"));
        ordered.push(avg[idx]);
    }
    for pair in ordered.windows(2) {
        assert!(
            pair[1] > pair[0],
            "Fig. 7 shape violated: {ordered:?} not increasing"
        );
    }
}

#[test]
fn fig1_reproduces_identically_through_a_federation() {
    // The figure must look the same whether charted on the monitoring
    // instance or on a federation hub fed by it.
    let inst = xsede_instance();
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&inst, FederationConfig::default()).unwrap();
    fed.sync().unwrap();

    let q = Query::new()
        .group_by_column("resource")
        .aggregate(Aggregate::of(AggFn::Sum, "su_charged", "total_su"))
        .order(OrderBy::ColumnDesc("total_su".into()));
    let local = inst.query(RealmKind::Jobs, &q).unwrap();
    let federated = fed.hub().federated_query(RealmKind::Jobs, &q).unwrap();
    assert_eq!(local, federated);
}
