//! The optional-module and future-release features around the federation
//! paper, end to end:
//!
//! - the **Application Kernel module** (§I-E): nightly benchmark kernels
//!   with control-chart QoS monitoring catching an injected interconnect
//!   regression;
//! - **cloud reservation tracking** (§III-B future release): comparing
//!   capacity purchased against capacity actually used, per project;
//! - **SUPReMM summary federation** (§II-C5 subsequent release):
//!   replicating the small monthly performance summary while the heavy
//!   raw realm stays local.
//!
//! ```text
//! cargo run --example qos_and_capacity
//! ```

use xdmod::appkernels::ingest::{load_runs, parse_log, series};
use xdmod::appkernels::simulate::{campaign_log, InjectedRegression};
use xdmod::appkernels::{analyze, default_suite, ControlConfig};
use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::realms::cloud::capacity_utilization;
use xdmod::realms::RealmKind;
use xdmod::sim::{CloudSim, ClusterSim, ResourceProfile};
use xdmod::warehouse::{AggFn, Aggregate, Query};

fn main() {
    // --- Application kernels: catch a silent performance regression ----
    println!("== Application Kernel QoS monitoring ==");
    let regression = InjectedRegression {
        start_run: 40,
        length: 15,
        severity: 0.3,
    };
    let log = campaign_log("rush", 60, Some(("ior_write", regression)), 99);
    let runs = parse_log(&log).expect("launcher log parses");
    let mut akdb = xdmod::warehouse::Database::new();
    load_runs(&mut akdb, "appkernels", &runs).expect("load");

    for kernel in default_suite() {
        let values = series(&akdb, "appkernels", &kernel.id, "rush", 4).expect("series");
        let report = analyze(&kernel, &values, ControlConfig::default());
        match report.events.iter().find(|e| e.regression) {
            Some(e) => println!(
                "  {:<16} REGRESSION at run {} ({:+.1}% vs baseline)",
                kernel.id,
                e.start_index,
                e.relative_change() * 100.0
            ),
            None => println!("  {:<16} in control", kernel.id),
        }
    }

    // --- Cloud reservations: purchased vs used capacity ----------------
    println!("\n== Cloud capacity: purchased vs used (per project) ==");
    let mut ccr = XdmodInstance::new("ccr");
    let sim = CloudSim::new("ccr-cloud", 25, 42);
    ccr.ingest_cloud_feed(&sim.event_feed(2017), CloudSim::horizon(2017))
        .expect("event feed");
    ccr.ingest_cloud_reservations(&sim.reservation_feed(2017))
        .expect("reservation feed");

    let purchased = ccr
        .query_reservations(
            &Query::new()
                .group_by_column("project")
                .aggregate(Aggregate::of(
                    AggFn::Sum,
                    "core_hours_purchased",
                    "core_hours_purchased",
                )),
        )
        .expect("purchased query");
    let used = ccr
        .query(
            RealmKind::Cloud,
            &Query::new()
                .group_by_column("project")
                .aggregate(Aggregate::of(AggFn::Sum, "core_hours", "total_core_hours")),
        )
        .expect("used query");
    for row in capacity_utilization(&purchased, &used, "project").expect("join") {
        println!(
            "  {:<12} purchased {:>9.0}  used {:>9.0}  utilization {:>5.1}%{}",
            row.key,
            row.purchased,
            row.used,
            row.fraction() * 100.0,
            if row.over_provisioned() {
                "  (over-provisioned)"
            } else {
                ""
            }
        );
    }

    // --- SUPReMM summaries federate; raw data does not -----------------
    println!("\n== SUPReMM summary federation ==");
    let mut site = XdmodInstance::new("site");
    let hpc = ClusterSim::new(ResourceProfile::generic("rush", 128, 24.0, 1.0), 3);
    let jobs = hpc.jobs(2017, 1..=2);
    site.ingest_sacct("rush", &hpc.sacct_log(2017, 1..=2))
        .expect("sacct");
    site.ingest_pcp(&hpc.pcp_archive(&jobs[..25.min(jobs.len())]))
        .expect("pcp");
    site.aggregate().expect("aggregate");

    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&site, FederationConfig::default().with_supremm_summaries())
        .expect("join");
    fed.sync().expect("sync");

    let hub_db = fed.hub().database();
    let hub = hub_db.read();
    let schema = FederationHub::schema_for("site");
    let summary = hub
        .table(&schema, "supremm_summary_by_month")
        .expect("summary crossed");
    println!(
        "  hub holds {} monthly performance summary rows",
        summary.len()
    );
    assert!(hub.table(&schema, "supremm_timeseries").is_err());
    println!("  raw per-job timeseries stayed on the satellite (as designed)");
}
