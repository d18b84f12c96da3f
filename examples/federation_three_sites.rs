//! The paper's Figure 2 and Figure 3, end to end: three satellite XDMoD
//! instances (X, Y, Z) monitoring resources L, M, N fan in to a central
//! federation hub; instance Y monitors two resources, one of which is
//! excluded from federation by a routing filter (Fig. 3's
//! Resource-B/Resource-D scenario).
//!
//! ```text
//! cargo run --example federation_three_sites
//! ```

use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::realms::levels::{
    hub_walltime, instance_a_walltime, instance_b_walltime, AggregationLevelsConfig, DIM_WALL_TIME,
};
use xdmod::realms::RealmKind;
use xdmod::sim::hpc::{ClusterSim, ResourceProfile};
use xdmod::warehouse::{AggFn, Aggregate, Query};

fn satellite(
    name: &str,
    resource: &str,
    seed: u64,
    walltime: Vec<xdmod::realms::LevelSpec>,
) -> XdmodInstance {
    let mut inst = XdmodInstance::new(name);
    let sim = ClusterSim::new(ResourceProfile::generic(resource, 256, 48.0, 1.0), seed);
    inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=2))
        .expect("simulated log parses");
    let mut levels = AggregationLevelsConfig::new();
    levels.set(DIM_WALL_TIME, walltime);
    inst.set_levels(levels);
    inst.aggregate().expect("satellite aggregation");
    inst
}

fn main() {
    // --- Figure 2: three satellites, one hub --------------------------
    let x = satellite("instance-x", "resource-l", 1, instance_a_walltime());
    let mut y = satellite("instance-y", "resource-m", 2, instance_b_walltime());
    let z = satellite("instance-z", "resource-n", 3, instance_b_walltime());

    // Figure 3: instance Y also monitors a sensitive resource that must
    // never reach the hub.
    let sim = ClusterSim::new(
        ResourceProfile::generic("resource-secret", 64, 48.0, 1.0),
        9,
    );
    y.ingest_sacct("resource-secret", &sim.sacct_log(2017, 1..=1))
        .expect("simulated log parses");

    // The hub defines its own aggregation levels (Table I's third
    // column) spanning everything its members produce.
    let mut hub = FederationHub::new("federation-hub");
    let mut hub_levels = AggregationLevelsConfig::new();
    hub_levels.set(DIM_WALL_TIME, hub_walltime());
    hub.set_levels(hub_levels);

    let mut federation = Federation::new(hub);
    federation
        .join_tight(&x, FederationConfig::default())
        .expect("x joins");
    federation
        .join_tight(&y, FederationConfig::default().exclude("resource-secret"))
        .expect("y joins");
    federation
        .join_loose(&z, FederationConfig::default()) // heterogeneous: z is loose
        .expect("z joins");

    // One federation cycle: replicate everything, aggregate at the hub.
    let applied = federation.sync_and_aggregate().expect("sync");
    println!("replication applied {applied} events at the hub");
    println!(
        "members: {:?}",
        federation
            .members()
            .iter()
            .map(|(n, m)| format!("{n} ({m:?})"))
            .collect::<Vec<_>>()
    );

    // --- The hub's unified view ---------------------------------------
    let rs = federation
        .hub()
        .federated_query(
            RealmKind::Jobs,
            &Query::new()
                .group_by_column("resource")
                .aggregate(Aggregate::count("jobs"))
                .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "cpu_hours")),
        )
        .expect("federated query");
    println!("\nFederated view (jobs by resource):");
    for row in &rs.rows {
        println!(
            "  {:<16} {:>6} jobs  {:>12.0} CPU hours",
            row[0], row[1], row[2]
        );
    }
    assert!(
        !rs.rows
            .iter()
            .any(|r| r[0].to_string() == "resource-secret"),
        "routing filter must keep the sensitive resource local"
    );
    println!("\n(resource-secret stayed on instance-y, as configured)");

    // Consistency: raw data replicated unaltered.
    assert!(federation.verify_member(&x).expect("verify"));
    println!("checksum verification: instance-x data identical on the hub");

    // --- Backup use case (§II-E4): regenerate a satellite -------------
    let before = x.fact_rows(RealmKind::Jobs).expect("rows");
    let mut x = x;
    federation.restore_member(&mut x).expect("restore");
    assert_eq!(x.fact_rows(RealmKind::Jobs).expect("rows"), before);
    println!("instance-x regenerated from the hub: {before} job records restored");
}
