//! Section III of the paper: federations of heterogeneous resources.
//! Three sites — an HPC center, a storage-heavy center, and a research
//! cloud (the Aristotle scenario: CCR + Cornell + UCSB) — federate HPC
//! Jobs, Storage, and Cloud realms into one hub, and the hub renders the
//! paper's Fig. 6 and Fig. 7 style charts across the whole enterprise.
//!
//! ```text
//! cargo run --example heterogeneous_realms
//! ```

use xdmod::chart::{ascii_bars, ascii_chart, Dataset};
use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::realms::cloud::avg_core_hours_per_vm;
use xdmod::realms::levels::{fig7_vm_memory_levels, AggregationLevelsConfig, DIM_VM_MEMORY};
use xdmod::realms::RealmKind;
use xdmod::sim::{CloudSim, ClusterSim, ResourceProfile, StorageSim};
use xdmod::warehouse::{AggFn, Aggregate, GroupKey, Period, Query};

fn main() {
    // --- Site 1: CCR — HPC plus storage plus a research cloud ---------
    let mut ccr = XdmodInstance::new("ccr");
    let hpc = ClusterSim::new(ResourceProfile::generic("rush", 512, 48.0, 1.2), 11);
    ccr.ingest_sacct("rush", &hpc.sacct_log(2017, 1..=12))
        .expect("sacct");
    let storage = StorageSim::ccr(11);
    for doc in storage.year_documents(2017) {
        ccr.ingest_storage_json(&doc).expect("storage json");
    }
    let cloud = CloudSim::new("ccr-cloud", 25, 11);
    ccr.ingest_cloud_feed(&cloud.event_feed(2017), CloudSim::horizon(2017))
        .expect("cloud feed");

    // --- Site 2: Cornell — cloud only ---------------------------------
    let mut cornell = XdmodInstance::new("cornell");
    let cloud2 = CloudSim::new("redcloud", 18, 22);
    cornell
        .ingest_cloud_feed(&cloud2.event_feed(2017), CloudSim::horizon(2017))
        .expect("cloud feed");

    // --- Site 3: UCSB — cloud only -------------------------------------
    let mut ucsb = XdmodInstance::new("ucsb");
    let cloud3 = CloudSim::new("aristotle-ucsb", 12, 33);
    ucsb.ingest_cloud_feed(&cloud3.event_feed(2017), CloudSim::horizon(2017))
        .expect("cloud feed");

    // --- Federate all realms (Jobs + Storage + Cloud; SUPReMM stays
    //     local per §II-C5) ---------------------------------------------
    let mut hub = FederationHub::new("aristotle-hub");
    let mut levels = AggregationLevelsConfig::new();
    levels.set(DIM_VM_MEMORY, fig7_vm_memory_levels());
    hub.set_levels(levels);
    let mut fed = Federation::new(hub);
    for inst in [&ccr, &cornell, &ucsb] {
        fed.join_tight(inst, FederationConfig::default_realms())
            .expect("join");
    }
    fed.sync_and_aggregate().expect("sync");

    // --- Fig. 6 style: storage growth by month ------------------------
    let rs = fed
        .hub()
        .federated_query(
            RealmKind::Storage,
            &Query::new()
                .group_by_period("ts", Period::Month)
                .aggregate(Aggregate::of(AggFn::Sum, "file_count", "file_count"))
                .aggregate(Aggregate::of(
                    AggFn::Sum,
                    "physical_usage_gb",
                    "physical_usage",
                )),
        )
        .expect("storage query");
    let files = Dataset::timeseries(
        "File count, federated storage, 2017",
        "files",
        &rs,
        Period::Month,
        "ts_month",
        None,
        "file_count",
    )
    .expect("dataset");
    println!("{}", ascii_chart(&files, 10));

    // --- Fig. 7 style: avg core hours per VM by memory size -----------
    let bins = {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_VM_MEMORY, fig7_vm_memory_levels());
        cfg.bins_for(DIM_VM_MEMORY).expect("bins compile")
    };
    let rs = fed
        .hub()
        .federated_query(
            RealmKind::Cloud,
            &Query::new()
                .group(GroupKey::Binned("memory_gb".into(), bins))
                .aggregate(Aggregate::of(AggFn::Sum, "core_hours", "total_core_hours"))
                .aggregate(Aggregate::of(AggFn::CountDistinct, "vm_id", "num_vms")),
        )
        .expect("cloud query");
    let avg = avg_core_hours_per_vm(&rs).expect("ratio");
    let mut ds = Dataset::new(
        "Average core hours per VM, by VM memory size (federated clouds)",
        "core hours",
    );
    ds.labels = rs.rows.iter().map(|r| r[0].to_string()).collect();
    ds.push_series("avg core hours / VM", avg.into_iter().map(Some).collect())
        .expect("series");
    println!("{}", ascii_bars(&ds, 40));

    // --- The SUPReMM realm did NOT federate ---------------------------
    assert_eq!(fed.hub().federated_fact_rows(RealmKind::Supremm), 0);
    println!("SUPReMM (heavy per-job performance data) stayed on the satellites.");
}
