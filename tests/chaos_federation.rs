//! End-to-end chaos: a four-satellite federation driven through a
//! seeded [`FaultPlan`] — transient transport faults, a corrupted binlog
//! tail, one permanently dead link, and a member whose satellite
//! compacted its binlog before joining — must self-heal to checksum
//! consistency for the survivors, quarantine the dead member, and do
//! all of it **deterministically**: the same seed produces a
//! byte-identical fault schedule and identical hub contents on every
//! run.
//!
//! The seed is taken from `CHAOS_SEED` when set (the CI chaos-soak job
//! loops a fixed set of seeds through this test), defaulting to 42.
//!
//! Supervision runs at explicit instants, each past the longest backoff
//! a link can plan (the default policy's 1 s), so every pass steps every
//! unquarantined link once and a retry runs in the pass after its
//! failure.

use std::time::{Duration, Instant};
use xdmod::chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
use xdmod::core::{
    Federation, FederationConfig, FederationHub, MemberHealth, SupervisorPolicy, XdmodInstance,
};
use xdmod::sim::{ClusterSim, ResourceProfile};

/// The instant of supervision pass `n`: two seconds apart, past any
/// backoff the default retry policy plans.
fn pass(t0: Instant, n: u32) -> Instant {
    t0 + Duration::from_secs(2) * n
}

fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn satellite(name: &str, resource: &str, sim_seed: u64) -> XdmodInstance {
    let mut inst = XdmodInstance::new(name);
    inst.set_su_factor(resource, 1.0);
    let sim = ClusterSim::new(ResourceProfile::generic(resource, 128, 48.0, 1.0), sim_seed);
    inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=2))
        .unwrap();
    inst
}

/// The scenario under test, as one deterministic function of the seed:
/// faults fire against x (transient bursts), y (tail corruption), and z
/// (permanent link loss) while the supervisor drives the federation; no
/// fault targets w, whose satellite snapshotted twice before joining, so
/// its compaction horizon is past the fresh link's watermark.
/// Returns the artifacts the determinism assertion compares across
/// runs: the injector's fired-fault schedule and the hub's table
/// checksums.
fn run_scenario(seed: u64) -> (String, Vec<(String, u64)>) {
    // Fresh instances per run: injected binlog damage mutates the
    // source databases, so runs must not share them. Same sim seeds ⇒
    // identical starting data.
    let x = satellite("x", "res-x", 7);
    let y = satellite("y", "res-y", 8);
    let z = satellite("z", "res-z", 9);
    let w = satellite("w", "res-w", 10);
    {
        let db = w.database();
        let mut db = db.write();
        db.snapshot_now().unwrap();
        db.snapshot_now().unwrap();
        assert!(db.compaction_horizon() > 0);
    }

    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.join_tight(&y, FederationConfig::default()).unwrap();
    fed.join_tight(&z, FederationConfig::default()).unwrap();
    fed.join_tight(&w, FederationConfig::default()).unwrap();

    let plan = FaultPlan::new()
        // x: a budgeted burst of transient faults on every other
        // transport op — each is absorbed by a retry in the next pass.
        .with(
            FaultSpec::every(FaultPoint::Transport, FaultKind::Transient, 2)
                .for_target("x")
                .with_budget(3),
        )
        // y: a crash corrupts the newest binlog frame mid-replication;
        // the link repairs the tail, then resyncs from the tables.
        .with(
            FaultSpec::at_ops(FaultPoint::Transport, FaultKind::CorruptTailByte, &[2])
                .for_target("y"),
        )
        // z: the link drops on its first op and never comes back.
        .with(FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[1]).for_target("z"));
    let injector = plan.injector(seed);
    fed.inject_chaos(&injector);

    // Eight passes: x's three faults fail its steps in passes 1, 3 and 5,
    // each retried through in the pass after; z's burst retries five
    // times, and its sixth and seventh failures strike it into quarantine.
    let policy = SupervisorPolicy::default().with_max_failures(2);
    let t0 = Instant::now();
    for n in 0..8 {
        fed.supervise_at(&policy, pass(t0, n));
    }

    // The three survivors converged to checksum consistency — w by a
    // resync, since no poll can read below its source's horizon; the
    // dead link was quarantined, not retried forever.
    assert!(fed.verify_member(&x).unwrap(), "x converged");
    assert!(fed.verify_member(&y).unwrap(), "y converged");
    assert!(fed.verify_member(&w).unwrap(), "w converged");
    assert_eq!(fed.quarantined_members(), vec!["z"]);

    // health() and the degraded-mode ops report say exactly that.
    let health: Vec<(String, MemberHealth)> = fed.health();
    assert_eq!(health.len(), 4);
    assert_eq!(health[0], ("x".to_owned(), MemberHealth::Live));
    assert_eq!(health[1], ("y".to_owned(), MemberHealth::Live));
    assert_eq!(health[2], ("z".to_owned(), MemberHealth::Quarantined));
    assert_eq!(health[3], ("w".to_owned(), MemberHealth::Live));
    let report = fed.ops_report().render();
    assert!(report.contains("Satellite health"), "report: {report}");
    assert!(report.contains("x: live"), "report: {report}");
    assert!(report.contains("y: live"), "report: {report}");
    assert!(report.contains("z: quarantined"), "report: {report}");
    assert!(report.contains("w: live"), "report: {report}");

    // The quarantine decision reached the dashboard's counters too.
    assert_eq!(
        fed.hub()
            .telemetry()
            .snapshot()
            .counter("federation_quarantines_total", &[("link", "z")]),
        Some(1)
    );

    let hub_db = fed.hub().database();
    let hub = hub_db.read();
    let checksums = ["x", "y", "w"]
        .iter()
        .map(|name| {
            let schema = FederationHub::schema_for(name);
            let sum = hub.table(&schema, "jobfact").unwrap().content_checksum();
            (schema, sum)
        })
        .collect();
    (injector.schedule_text(), checksums)
}

#[test]
fn seeded_chaos_run_converges_and_is_deterministic() {
    let seed = seed();
    let (schedule_a, sums_a) = run_scenario(seed);
    let (schedule_b, sums_b) = run_scenario(seed);
    // Same seed ⇒ byte-identical fault schedule and identical
    // post-recovery hub state.
    assert_eq!(
        schedule_a, schedule_b,
        "fault schedule must be reproducible"
    );
    assert!(!schedule_a.is_empty(), "the plan must actually have fired");
    assert_eq!(
        sums_a, sums_b,
        "post-recovery hub state must be reproducible"
    );
}

#[test]
fn transient_only_chaos_is_fully_absorbed_by_retries() {
    // A plan with nothing but budgeted transients must leave no visible
    // scar: no quarantine, no resync, every member live.
    let x = satellite("x", "res-x", 11);
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    let plan = FaultPlan::new().with(
        FaultSpec::every(FaultPoint::Transport, FaultKind::Transient, 2)
            .for_target("x")
            .with_budget(2),
    );
    let injector = plan.injector(seed());
    fed.inject_chaos(&injector);

    // The faults fail x's steps in passes 1 and 3; each retry, in the
    // pass after, succeeds. A failed pass reads stale, never quarantined.
    let policy = SupervisorPolicy::default();
    let t0 = Instant::now();
    let mut last = None;
    for n in 0..6 {
        let tick = fed.supervise_at(&policy, pass(t0, n));
        assert!(tick.quarantined().is_empty(), "tick report: {tick}");
        assert!(!tick.members[0].resynced);
        last = Some(tick);
    }
    let last = last.unwrap();
    assert!(last.all_healthy(), "tick report: {last}");
    assert_eq!(
        fed.hub()
            .telemetry()
            .snapshot()
            .counter("replication_retries_total", &[("link", "x")]),
        Some(2)
    );
    assert!(fed.quarantined_members().is_empty());
    assert!(fed.verify_member(&x).unwrap());
}
