//! One function per table/figure of the paper: each builds the full
//! pipeline (simulate → ingest → optionally federate → query → dataset) and
//! returns structured results. The `fig*`/`table1` binaries print them;
//! EXPERIMENTS.md records their output.

use std::collections::BTreeMap;
use xdmod_chart::Dataset;
use xdmod_core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod_realms::cloud::avg_core_hours_per_vm;
use xdmod_realms::levels::{
    fig7_vm_memory_levels, hub_walltime, instance_a_walltime, instance_b_walltime,
    AggregationLevelsConfig, DIM_VM_MEMORY, DIM_WALL_TIME,
};
use xdmod_realms::RealmKind;
use xdmod_sim::{CloudSim, ClusterSim, ResourceProfile, StorageSim};
use xdmod_warehouse::{
    AggFn, Aggregate, CivilDate, GroupKey, OrderBy, Period, Predicate, Query, Row,
};

/// Default deterministic seed for every experiment.
pub const SEED: u64 = 20180923; // CLUSTER'18 week

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// Result of the Fig. 1 experiment.
pub struct Fig1 {
    /// Monthly XD SUs per resource, calendar 2017.
    pub dataset: Dataset,
    /// Resources ranked by total XD SUs (descending).
    pub ranking: Vec<(String, f64)>,
}

/// Regenerate **Fig. 1**: the top XSEDE-like resources of 2017 by total
/// XD SUs charged, as a monthly timeseries. `scale` multiplies job
/// volumes (1.0 reproduces the documented run).
pub fn fig1(seed: u64, scale: f64) -> Fig1 {
    let mut inst = XdmodInstance::new("xsede");
    for (mut profile, salt) in [
        (ResourceProfile::comet(), 1),
        (ResourceProfile::stampede(), 2),
        (ResourceProfile::stampede2(), 3),
    ] {
        profile.base_jobs_per_month =
            ((f64::from(profile.base_jobs_per_month) * scale).round() as u32).max(1);
        inst.set_su_factor(&profile.name, profile.hpl_gflops_per_core);
        let name = profile.name.clone();
        let sim = ClusterSim::new(profile, seed + salt);
        inst.ingest_sacct(&name, &sim.sacct_log(2017, 1..=12))
            .expect("simulated log parses");
    }
    let y2017 = CivilDate::new(2017, 1, 1).to_epoch();
    let y2018 = CivilDate::new(2018, 1, 1).to_epoch();
    let in_2017 = Predicate::TimeRange {
        column: "end_time".into(),
        start: y2017,
        end: y2018,
    };

    let monthly = inst
        .query(
            RealmKind::Jobs,
            &Query::new()
                .filter(in_2017.clone())
                .group_by_period("end_time", Period::Month)
                .group_by_column("resource")
                .aggregate(Aggregate::of(AggFn::Sum, "su_charged", "total_su")),
        )
        .expect("query");
    let dataset = Dataset::timeseries(
        "Fig 1: Top XSEDE resources 2017, by total XD SUs charged",
        "XD SU",
        &monthly,
        Period::Month,
        "end_time_month",
        Some("resource"),
        "total_su",
    )
    .expect("dataset");

    let totals = inst
        .query(
            RealmKind::Jobs,
            &Query::new()
                .filter(in_2017)
                .group_by_column("resource")
                .aggregate(Aggregate::of(AggFn::Sum, "su_charged", "total_su"))
                .order(OrderBy::ColumnDesc("total_su".into()))
                .limit(3),
        )
        .expect("query");
    let ranking = totals
        .rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].as_f64().unwrap_or(0.0)))
        .collect();
    Fig1 { dataset, ranking }
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// Result of the Table I experiment: job counts per wall-time bin, as
/// seen on Instance A, Instance B, and the federation hub.
pub struct Table1 {
    /// Bin label → job count, per view.
    pub views: BTreeMap<String, BTreeMap<String, i64>>,
    /// Raw job totals (for the losslessness check).
    pub raw_total_jobs: i64,
}

/// Regenerate **Table I**: two satellites with different wall-time
/// aggregation levels federate to a hub with its own spanning levels.
pub fn table1(seed: u64, scale: f64) -> Table1 {
    let jobs_per_month = ((200.0 * scale).round() as u32).max(1);
    let mk = |name: &str, resource: &str, wall_limit: f64, salt: u64| -> XdmodInstance {
        let mut inst = XdmodInstance::new(name);
        let mut profile = ResourceProfile::generic(resource, 128, wall_limit, 1.0);
        profile.base_jobs_per_month = jobs_per_month;
        let sim = ClusterSim::new(profile, seed + salt);
        inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=2))
            .expect("log parses");
        inst
    };
    let mut a = mk("instance-a", "short-queue", 5.0, 10);
    let mut levels = AggregationLevelsConfig::new();
    levels.set(DIM_WALL_TIME, instance_a_walltime());
    a.set_levels(levels);
    a.aggregate().expect("aggregate A");

    let mut b = mk("instance-b", "long-queue", 50.0, 20);
    let mut levels = AggregationLevelsConfig::new();
    levels.set(DIM_WALL_TIME, instance_b_walltime());
    b.set_levels(levels);
    b.aggregate().expect("aggregate B");

    let mut hub = FederationHub::new("hub");
    let mut levels = AggregationLevelsConfig::new();
    levels.set(DIM_WALL_TIME, hub_walltime());
    hub.set_levels(levels);
    let mut fed = Federation::new(hub);
    fed.join_tight(&a, FederationConfig::default())
        .expect("join a");
    fed.join_tight(&b, FederationConfig::default())
        .expect("join b");
    fed.sync_and_aggregate().expect("sync");

    let mut views = BTreeMap::new();
    let count_bins = |rows: &[Row], bin_idx: usize, cnt_idx: usize| -> BTreeMap<String, i64> {
        let mut out: BTreeMap<String, i64> = BTreeMap::new();
        for row in rows {
            let label = row[bin_idx].as_str().unwrap_or("NULL").to_owned();
            *out.entry(label).or_default() += row[cnt_idx].as_i64().unwrap_or(0);
        }
        out
    };
    // Each satellite reads its own year table; the hub's view is its
    // federated year answer under the hub's levels.
    for (view, inst) in [("Instance A", &a), ("Instance B", &b)] {
        let db = inst.database();
        let db = db.read();
        let t = db
            .table(&inst.schema_name(), "jobfact_by_year")
            .expect("aggregate exists");
        let bin_idx = t.schema().column_index("wall_hours_bin").expect("bin col");
        let cnt_idx = t.schema().column_index("job_count").expect("count col");
        let rows = t.rows().expect("paged rows readable");
        views.insert(view.to_owned(), count_bins(&rows, bin_idx, cnt_idx));
    }
    let year = fed
        .hub()
        .aggregate(RealmKind::Jobs, Period::Year)
        .expect("hub year answer");
    let bin_idx = year.column_index("wall_hours_bin").expect("bin col");
    let cnt_idx = year.column_index("job_count").expect("count col");
    views.insert(
        "Federation Hub".to_owned(),
        count_bins(&year.rows, bin_idx, cnt_idx),
    );
    let raw_total_jobs = fed
        .hub()
        .federated_query(
            RealmKind::Jobs,
            &Query::new().aggregate(Aggregate::count("jobs")),
        )
        .expect("query")
        .scalar_f64("jobs")
        .unwrap_or(0.0) as i64;
    Table1 {
        views,
        raw_total_jobs,
    }
}

// ---------------------------------------------------------------------
// Figures 2 & 3 (architecture: fan-in and routing)
// ---------------------------------------------------------------------

/// Result of the Fig. 2/Fig. 3 experiments.
pub struct Topology {
    /// Events applied at the hub during the sync.
    pub events_applied: usize,
    /// Job counts per resource, as the hub sees them.
    pub hub_view: BTreeMap<String, i64>,
    /// Resources that exist on satellites but were excluded from the hub.
    pub excluded: Vec<String>,
    /// Checksum verification outcome per member.
    pub members_verified: BTreeMap<String, bool>,
}

/// Regenerate **Fig. 2**: satellites X, Y, Z (resources L, M, N) fan in
/// to one hub over tight links.
pub fn fig2(seed: u64, scale: f64) -> Topology {
    fan_in(seed, scale, &[])
}

/// Regenerate **Fig. 3**: heterogeneous ingestion with resource routing —
/// instance Y monitors two resources (C, D) of which D is excluded from
/// federation, and instance X monitors A, B with B excluded.
pub fn fig3(seed: u64, scale: f64) -> Topology {
    fan_in_fig3(seed, scale)
}

fn fan_in(seed: u64, scale: f64, excluded: &[&str]) -> Topology {
    let jobs = ((150.0 * scale).round() as u32).max(1);
    let mut instances = Vec::new();
    for (i, (inst_name, resource)) in [
        ("instance-x", "resource-l"),
        ("instance-y", "resource-m"),
        ("instance-z", "resource-n"),
    ]
    .iter()
    .enumerate()
    {
        let mut inst = XdmodInstance::new(inst_name);
        let mut profile = ResourceProfile::generic(resource, 128, 24.0, 1.0);
        profile.base_jobs_per_month = jobs;
        let sim = ClusterSim::new(profile, seed + i as u64);
        inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=1))
            .expect("log parses");
        instances.push(inst);
    }
    run_topology(instances, excluded)
}

fn fan_in_fig3(seed: u64, scale: f64) -> Topology {
    let jobs = ((150.0 * scale).round() as u32).max(1);
    let mut x = XdmodInstance::new("instance-x");
    let mut y = XdmodInstance::new("instance-y");
    for (on_x, resource, salt) in [
        (true, "resource-a", 1u64),
        (true, "resource-b", 2),
        (false, "resource-c", 3),
        (false, "resource-d", 4),
    ] {
        let inst = if on_x { &mut x } else { &mut y };
        let mut profile = ResourceProfile::generic(resource, 128, 24.0, 1.0);
        profile.base_jobs_per_month = jobs;
        let sim = ClusterSim::new(profile, seed + salt);
        inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=1))
            .expect("log parses");
    }
    run_topology(vec![x, y], &["resource-b", "resource-d"])
}

fn run_topology(instances: Vec<XdmodInstance>, excluded: &[&str]) -> Topology {
    let mut fed = Federation::new(FederationHub::new("federated-hub"));
    for inst in &instances {
        let mut config = FederationConfig::default();
        for r in excluded {
            config = config.exclude(r);
        }
        fed.join_tight(inst, config).expect("join");
    }
    let events_applied = fed.sync_and_aggregate().expect("sync");
    let rs = fed
        .hub()
        .federated_query(
            RealmKind::Jobs,
            &Query::new()
                .group_by_column("resource")
                .aggregate(Aggregate::count("jobs")),
        )
        .expect("query");
    let hub_view: BTreeMap<String, i64> = rs
        .rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].as_i64().unwrap_or(0)))
        .collect();
    let mut members_verified = BTreeMap::new();
    for inst in &instances {
        members_verified.insert(
            inst.name().to_owned(),
            fed.verify_member(inst).expect("verify"),
        );
    }
    Topology {
        events_applied,
        hub_view,
        excluded: excluded.iter().map(|s| (*s).to_owned()).collect(),
        members_verified,
    }
}

// ---------------------------------------------------------------------
// Figures 4 & 5 (authentication)
// ---------------------------------------------------------------------

/// Result of the Fig. 4/Fig. 5 experiments.
pub struct AuthFlows {
    /// (user, instance, method) per successful sign-on.
    pub sessions: Vec<(String, String, String)>,
    /// Sign-on attempts that were correctly refused.
    pub refused: usize,
    /// Persons in the federation identity map after dedup.
    pub persons_after_dedup: usize,
}

/// Regenerate **Fig. 4**: user group R (local passwords) and user group S
/// (SSO) signing on to the same instance. `n_users` scales each group.
pub fn fig4(n_users: usize) -> AuthFlows {
    use xdmod_auth::{AuthMode, IdentityProvider, InstanceAuth, ShibbolethIdp, User};
    let mut inst = InstanceAuth::new("ccr-xdmod", AuthMode::ServiceProvider, false);
    let mut idp = ShibbolethIdp::new("shibboleth.buffalo.edu", "secret");
    inst.trust_idp(&idp).expect("trust");
    let mut sessions = Vec::new();
    let mut refused = 0;
    let now = 1_500_000_000;
    for i in 0..n_users {
        // Group R.
        let name = format!("r{i:03}");
        inst.enroll(
            User::member(&name, &format!("{name}@buffalo.edu"), "buffalo.edu"),
            Some("pw"),
        );
        match inst.login_local(&name, "pw", now) {
            Some(s) => sessions.push((s.username, s.instance, "local".into())),
            None => refused += 1,
        }
        if inst.login_local(&name, "wrong", now).is_none() {
            refused += 1;
        }
        // Group S.
        let name = format!("s{i:03}");
        idp.enroll(
            &name,
            "sso-pw",
            BTreeMap::from([("email".to_owned(), format!("{name}@buffalo.edu"))]),
        );
        // Re-trust after enrolling (key unchanged; no-op but mirrors
        // metadata refresh).
        inst.trust_idp(&idp).expect("trust refresh");
        let assertion = idp
            .authenticate(&name, "sso-pw", "ccr-xdmod", now)
            .expect("assertion");
        match inst.login_sso(&assertion, now + 1) {
            Some(s) => sessions.push((s.username, s.instance, "sso".into())),
            None => refused += 1,
        }
    }
    AuthFlows {
        sessions,
        refused,
        persons_after_dedup: 0,
    }
}

/// Regenerate **Fig. 5**: users authenticating across a federation —
/// direct sign-on at satellites, SSO at others, multi-IdP SSO plus
/// delegated authentication at the hub — and the §II-D4 identity dedup.
pub fn fig5() -> AuthFlows {
    use xdmod_auth::{
        AuthMode, GlobusIdp, IdentityProvider, InstanceAuth, LdapIdp, ShibbolethIdp, User,
    };
    let now = 1_500_000_000;
    let mut sessions = Vec::new();
    let mut refused = 0;

    // Instance X: local-only users.
    let mut x = InstanceAuth::new("instance-x", AuthMode::ServiceProvider, false);
    x.enroll(
        User::member("xavier", "xavier@site-x.edu", "site-x.edu"),
        Some("pw-x"),
    );
    if let Some(s) = x.login_local("xavier", "pw-x", now) {
        sessions.push((s.username, s.instance, "local".into()));
    }

    // Instance Y: SSO via campus Shibboleth.
    let mut shib = ShibbolethIdp::new("shib.site-y.edu", "s");
    shib.enroll(
        "yolanda",
        "pw-y",
        BTreeMap::from([("email".to_owned(), "yolanda@site-y.edu".to_owned())]),
    );
    let mut y = InstanceAuth::new("instance-y", AuthMode::ServiceProvider, false);
    y.trust_idp(&shib).expect("trust");
    let a = shib
        .authenticate("yolanda", "pw-y", "instance-y", now)
        .expect("auth");
    if let Some(s) = y.login_sso(&a, now + 1) {
        sessions.push((s.username, s.instance, "sso".into()));
    }
    // Cross-instance replay is refused (audience restriction).
    let mut z_gateway = InstanceAuth::new("instance-z", AuthMode::ServiceProvider, false);
    z_gateway.trust_idp(&shib).expect("trust");
    if z_gateway.login_sso(&a, now + 1).is_none() {
        refused += 1;
    }

    // Hub: multi-source SSO (Shibboleth + Globus + LDAP).
    let mut globus = GlobusIdp::new("auth.globus.org", "g");
    globus.register("fred.globus", "pw-f");
    globus.link("fred.globus", "xsede_fred");
    let mut ldap = LdapIdp::new("ldap.site-z.edu", "l");
    ldap.add_entry("zoe", "pw-z");
    let mut hub = FederationHub::new("federated-hub");
    hub.auth_mut().trust_idp(&shib).expect("multi");
    hub.auth_mut().trust_idp(&globus).expect("multi");
    hub.auth_mut().trust_idp(&ldap).expect("multi");
    for (idp, user, pw) in [
        (
            &shib as &dyn xdmod_auth::IdentityProvider,
            "yolanda",
            "pw-y",
        ),
        (&globus, "fred.globus", "pw-f"),
        (&ldap, "zoe", "pw-z"),
    ] {
        let a = idp
            .authenticate(user, pw, "federated-hub", now)
            .expect("assertion");
        if let Some(s) = hub.auth_mut().login_sso(&a, now + 1) {
            sessions.push((s.username, s.instance, format!("sso:{}", a.issuer)));
        }
    }

    // Delegated satellite: honors hub sessions only.
    let mut delegated = InstanceAuth::new("instance-d", AuthMode::IdentityProviderDelegated, false);
    delegated.enroll(User::member("zoe", "zoe@site-z.edu", "site-z.edu"), None);
    let a = ldap
        .authenticate("zoe", "pw-z", "federated-hub", now + 2)
        .expect("assertion");
    let hub_session = hub.auth_mut().login_sso(&a, now + 2).expect("hub session");
    // The hub-issued token is valid at the hub...
    assert!(hub
        .auth()
        .validate_session(hub_session.token, now + 3)
        .is_some());
    // ...and the delegated satellite accepts the hub's session.
    if let Some(s) = delegated.login_delegated(&hub_session, now + 4) {
        sessions.push((s.username, s.instance, "delegated".into()));
    }

    // §II-D4: the same human on two instances, de-duplicated at the hub.
    let ids = hub.identity_map_mut();
    ids.register(
        "instance-x",
        &User::member("xavier", "x@one.edu", "one.edu"),
    );
    ids.register(
        "xsede-xdmod",
        &User::member("xsede_xavier", "x@one.edu", "one.edu"),
    );
    ids.register(
        "instance-y",
        &User::member("yolanda", "yolanda@site-y.edu", "site-y.edu"),
    );
    ids.auto_deduplicate();
    AuthFlows {
        sessions,
        refused,
        persons_after_dedup: ids.person_count(),
    }
}

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

/// Result of the Fig. 6 experiment.
pub struct Fig6 {
    /// Two-series dataset: file count and physical usage by month.
    pub dataset: Dataset,
}

/// Regenerate **Fig. 6**: CCR-like file count and physical storage usage
/// by month of 2017. `scale` multiplies the user population.
pub fn fig6(seed: u64, scale: f64) -> Fig6 {
    let mut sim_fss = Vec::new();
    for mut fs in [
        xdmod_sim::FilesystemProfile::isilon_home(),
        xdmod_sim::FilesystemProfile::gpfs_scratch(),
    ] {
        fs.n_users = ((fs.n_users as f64 * scale).round() as usize).max(1);
        sim_fss.push(fs);
    }
    let sim = StorageSim::new(sim_fss, seed);
    let mut inst = XdmodInstance::new("ccr");
    for doc in sim.year_documents(2017) {
        inst.ingest_storage_json(&doc).expect("valid document");
    }
    let rs = inst
        .query(
            RealmKind::Storage,
            &Query::new()
                .group_by_period("ts", Period::Month)
                .aggregate(Aggregate::of(AggFn::Sum, "file_count", "file_count"))
                .aggregate(Aggregate::of(
                    AggFn::Sum,
                    "physical_usage_gb",
                    "physical_usage_gb",
                )),
        )
        .expect("query");
    let mut dataset = Dataset::timeseries(
        "Fig 6: CCR file count and physical usage by month, 2017",
        "files / GB",
        &rs,
        Period::Month,
        "ts_month",
        None,
        "file_count",
    )
    .expect("dataset");
    // Add the second series (physical usage) on the same axis.
    let physical: Vec<Option<f64>> = rs
        .column("physical_usage_gb")
        .expect("column")
        .iter()
        .map(|v| v.as_f64())
        .collect();
    dataset
        .push_series("physical_usage_gb", physical)
        .expect("aligned");
    dataset.series[0].name = "file_count".into();
    Fig6 { dataset }
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// Result of the Fig. 7 experiment.
pub struct Fig7 {
    /// Memory-bin labels in ascending order.
    pub bins: Vec<String>,
    /// Average core hours per VM, per bin.
    pub avg_core_hours: Vec<f64>,
    /// Number of VMs per bin.
    pub vm_counts: Vec<i64>,
}

/// Regenerate **Fig. 7**: average core hours per VM by VM memory size on
/// a CCR-like research cloud, 2017. `scale` multiplies VM volume.
pub fn fig7(seed: u64, scale: f64) -> Fig7 {
    let vms = ((30.0 * scale).round() as u32).max(4);
    let sim = CloudSim::new("ccr-cloud", vms, seed);
    let mut inst = XdmodInstance::new("ccr");
    inst.ingest_cloud_feed(&sim.event_feed(2017), CloudSim::horizon(2017))
        .expect("feed parses");
    let bins = {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_VM_MEMORY, fig7_vm_memory_levels());
        cfg.bins_for(DIM_VM_MEMORY).expect("bins compile")
    };
    let rs = inst
        .query(
            RealmKind::Cloud,
            &Query::new()
                .group(GroupKey::Binned("memory_gb".into(), bins))
                .aggregate(Aggregate::of(AggFn::Sum, "core_hours", "total_core_hours"))
                .aggregate(Aggregate::of(AggFn::CountDistinct, "vm_id", "num_vms")),
        )
        .expect("query");
    let avg = avg_core_hours_per_vm(&rs).expect("columns present");
    // Order by the paper's bin order.
    let want = ["<1 GB", "1-2 GB", "2-4 GB", "4-8 GB"];
    let labels: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    let vm_idx = rs.column_index("num_vms").expect("col");
    let mut out = Fig7 {
        bins: Vec::new(),
        avg_core_hours: Vec::new(),
        vm_counts: Vec::new(),
    };
    for w in want {
        if let Some(i) = labels.iter().position(|l| l == w) {
            out.bins.push(w.to_owned());
            out.avg_core_hours.push(avg[i]);
            out.vm_counts.push(rs.rows[i][vm_idx].as_i64().unwrap_or(0));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Parallel partitioned aggregation
// ---------------------------------------------------------------------

/// Result of the serial-vs-parallel aggregation rebuild measurement.
pub struct ParallelAgg {
    /// Wall seconds of the single-threaded rebuild.
    pub serial_seconds: f64,
    /// Wall seconds of the partitioned parallel rebuild.
    pub parallel_seconds: f64,
    /// Wall seconds of the repeat rebuild with an unchanged binlog
    /// watermark (every period table already installed: the O(1) path).
    pub cached_seconds: f64,
    /// Serial and parallel outputs are byte-identical per period table.
    pub identical: bool,
}

/// Measure the partitioned parallel aggregation engine against the
/// single-threaded rebuild over the same simulated fact table, then a
/// cached repeat. Both strategies must produce byte-identical aggregate
/// tables — the measurement doubles as an end-to-end determinism check.
pub fn parallel_aggregation(seed: u64, months: u8, workers: usize) -> ParallelAgg {
    use std::time::Instant;
    use xdmod_realms::jobs;
    use xdmod_warehouse::PoolConfig;

    let build = || {
        let mut inst = XdmodInstance::new("bench");
        let mut profile = ResourceProfile::generic("rush", 256, 48.0, 1.0);
        profile.base_jobs_per_month = 2_000;
        let sim = ClusterSim::new(profile, seed);
        inst.ingest_sacct("rush", &sim.sacct_log(2017, 1..=months))
            .expect("simulated log parses");
        let mut levels = AggregationLevelsConfig::new();
        levels.set(DIM_WALL_TIME, hub_walltime());
        inst.set_levels(levels);
        inst
    };

    let serial = build();
    let spec = jobs::aggregation_spec(serial.levels());
    let serial_db = serial.database();
    serial_db.write().set_parallelism(PoolConfig::serial());
    let start = Instant::now();
    spec.materialize(&mut serial_db.write(), &serial.schema_name())
        .expect("serial rebuild");
    let serial_seconds = start.elapsed().as_secs_f64();

    let parallel = build();
    let parallel_db = parallel.database();
    parallel_db
        .write()
        .set_parallelism(PoolConfig::new(workers).with_shards(workers.max(1) * 2));
    let start = Instant::now();
    spec.materialize(&mut parallel_db.write(), &parallel.schema_name())
        .expect("parallel rebuild");
    let parallel_seconds = start.elapsed().as_secs_f64();

    // Repeat with no new ingest: every period table is already installed.
    let start = Instant::now();
    spec.materialize(&mut parallel_db.write(), &parallel.schema_name())
        .expect("cached repeat");
    let cached_seconds = start.elapsed().as_secs_f64();

    let identical = {
        let a = serial_db.read();
        let b = parallel_db.read();
        spec.periods.iter().all(|period| {
            let table = spec.table_name(*period);
            let lhs = a
                .table(&serial.schema_name(), &table)
                .expect("serial table");
            let rhs = b
                .table(&parallel.schema_name(), &table)
                .expect("parallel table");
            // xc-allow: page-slot mutexes are leaves acquired strictly under the db lock; they never take a db lock back
            lhs.content_checksum() == rhs.content_checksum()
        })
    };

    ParallelAgg {
        serial_seconds,
        parallel_seconds,
        cached_seconds,
        identical,
    }
}

// ---------------------------------------------------------------------
// Incremental aggregation (delta folds riding the binlog)
// ---------------------------------------------------------------------

/// Result of the incremental-vs-recompute maintenance measurement.
pub struct IncrementalAgg {
    /// Wall seconds of the cold rebuild that seeds the delta cursors.
    pub cold_seconds: f64,
    /// Wall seconds of re-materializing after a late month of jobs with
    /// the delta-fold engine on: only the new binlog records are folded.
    pub incremental_seconds: f64,
    /// Wall seconds of the same re-materialization on a twin instance
    /// whose retained partials were dropped first (full recompute).
    pub full_rebuild_seconds: f64,
    /// Wall seconds of the repeat with an unchanged binlog watermark.
    pub cached_seconds: f64,
    /// Binlog records folded by the incremental pass (from telemetry).
    pub records_folded: u64,
    /// Incremental and from-scratch outputs are byte-identical per
    /// period table.
    pub identical: bool,
}

/// Measure incremental view maintenance against a from-scratch rebuild:
/// two identical instances materialize, ingest the same late month, and
/// re-materialize — one riding the delta-fold cursors, the twin after
/// `note_external_rebuild()` dropped them. Byte-identical period tables are required, so the
/// measurement doubles as an end-to-end correctness check of the
/// incremental path.
pub fn incremental_aggregation(seed: u64, months: u8, workers: usize) -> IncrementalAgg {
    use std::time::Instant;
    use xdmod_realms::jobs;
    use xdmod_warehouse::PoolConfig;

    let build = || {
        let mut inst = XdmodInstance::new("bench");
        let mut profile = ResourceProfile::generic("rush", 256, 48.0, 1.0);
        profile.base_jobs_per_month = 2_000;
        let sim = ClusterSim::new(profile, seed);
        inst.ingest_sacct("rush", &sim.sacct_log(2017, 1..=months))
            .expect("simulated log parses");
        let mut levels = AggregationLevelsConfig::new();
        levels.set(DIM_WALL_TIME, hub_walltime());
        inst.set_levels(levels);
        inst
    };
    // The late delta: one extra month of jobs from an independent stream.
    let late_log = {
        let mut profile = ResourceProfile::generic("rush", 256, 48.0, 1.0);
        profile.base_jobs_per_month = 500;
        ClusterSim::new(profile, seed.wrapping_add(99)).sacct_log(2018, 1..=1)
    };

    let mut incr = build();
    let spec = jobs::aggregation_spec(incr.levels());
    let incr_db = incr.database();
    let reg = xdmod_telemetry::MetricsRegistry::new();
    {
        let mut db = incr_db.write();
        db.set_parallelism(PoolConfig::new(workers).with_shards(workers.max(1) * 2));
        db.set_telemetry(reg.clone());
    }
    let start = Instant::now();
    spec.materialize(&mut incr_db.write(), &incr.schema_name())
        .expect("cold rebuild");
    let cold_seconds = start.elapsed().as_secs_f64();

    let mut full = build();
    let full_db = full.database();
    {
        let mut db = full_db.write();
        db.set_parallelism(PoolConfig::new(workers).with_shards(workers.max(1) * 2));
    }
    spec.materialize(&mut full_db.write(), &full.schema_name())
        .expect("full-twin rebuild");

    incr.ingest_sacct("rush", &late_log).expect("late ingest");
    full.ingest_sacct("rush", &late_log).expect("late ingest");

    let folded_before = reg
        .snapshot()
        .counter_total("warehouse_delta_folded_records_total");
    let start = Instant::now();
    spec.materialize(&mut incr_db.write(), &incr.schema_name())
        .expect("incremental re-aggregation");
    let incremental_seconds = start.elapsed().as_secs_f64();
    let records_folded = reg
        .snapshot()
        .counter_total("warehouse_delta_folded_records_total")
        .saturating_sub(folded_before);

    // The invalidation a resync uses: the twin's retained partials are
    // dropped, so its re-aggregation scans the whole fact table.
    full_db.write().note_external_rebuild();
    let start = Instant::now();
    spec.materialize(&mut full_db.write(), &full.schema_name())
        .expect("full re-aggregation");
    let full_rebuild_seconds = start.elapsed().as_secs_f64();

    // Repeat with no new ingest: every period table is already installed.
    let start = Instant::now();
    spec.materialize(&mut incr_db.write(), &incr.schema_name())
        .expect("cached repeat");
    let cached_seconds = start.elapsed().as_secs_f64();

    let identical = {
        let a = incr_db.read();
        let b = full_db.read();
        spec.periods.iter().all(|period| {
            let table = spec.table_name(*period);
            let lhs = a.table(&incr.schema_name(), &table).expect("incr table");
            let rhs = b.table(&full.schema_name(), &table).expect("full table");
            // xc-allow: page-slot mutexes are leaves acquired strictly under the db lock; they never take a db lock back
            lhs.content_checksum() == rhs.content_checksum()
        })
    };

    IncrementalAgg {
        cold_seconds,
        incremental_seconds,
        full_rebuild_seconds,
        cached_seconds,
        records_folded,
        identical,
    }
}

// ---------------------------------------------------------------------
// Cold-shard paging (larger-than-RAM warehouse)
// ---------------------------------------------------------------------

/// Result of the paged-vs-resident aggregation measurement.
pub struct PagedAgg {
    /// Working-set budget the paged run was held to, in bytes.
    pub budget_bytes: u64,
    /// Approximate bytes of the fact table (what a resident store holds).
    pub table_bytes: u64,
    /// Wall seconds of the sharded query on the fully-resident store.
    pub resident_seconds: f64,
    /// Wall seconds of the same query on the paged store: every scan
    /// pays spill fault-ins because the budget is far below the table.
    pub paged_seconds: f64,
    /// Pages faulted in during the paged run (from residency stats).
    pub fault_ins: u64,
    /// Pages evicted during the paged run.
    pub evictions: u64,
    /// Paged and resident results are byte-identical.
    pub identical: bool,
}

/// Measure the cold-shard paging engine against a fully-resident twin:
/// the same simulated fact table, the same sharded query, one store
/// paged under a working-set budget far below the table's footprint.
/// Byte-identical results are required, so the measurement doubles as a
/// correctness check of the spill/fault-in path.
pub fn paged_aggregation(seed: u64, months: u8, workers: usize, budget_bytes: u64) -> PagedAgg {
    use std::time::Instant;
    use xdmod_realms::jobs;
    use xdmod_warehouse::{PagingConfig, PoolConfig};

    let resident = {
        let mut inst = XdmodInstance::new("bench");
        let mut profile = ResourceProfile::generic("rush", 256, 48.0, 1.0);
        profile.base_jobs_per_month = 2_000;
        let sim = ClusterSim::new(profile, seed);
        inst.ingest_sacct("rush", &sim.sacct_log(2017, 1..=months))
            .expect("simulated log parses");
        inst
    };
    let query = Query::new()
        .group_by_period("end_time", Period::Day)
        .group_by_column("resource")
        .aggregate(Aggregate::count("jobs"))
        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "cpu"));
    let resident_db = resident.database();
    resident_db
        .write()
        .set_parallelism(PoolConfig::new(workers).with_shards(workers.max(1) * 2));
    let schema = resident.schema_name();

    let (table_def, rows, table_bytes) = {
        let db = resident_db.read();
        let t = db.table(&schema, jobs::FACT_TABLE).expect("fact table");
        let rows = t.rows().expect("rows readable").into_vec();
        let bytes = rows
            .iter()
            .map(xdmod_warehouse::resident::approx_row_bytes)
            .sum();
        (t.schema().clone(), rows, bytes)
    };

    let dir = std::env::temp_dir().join(format!(
        "xdmod-bench-pagedagg-{}-{seed}",
        std::process::id()
    ));
    let mut paged = xdmod_warehouse::Database::new();
    paged.set_parallelism(PoolConfig::new(workers).with_shards(workers.max(1) * 2));
    paged
        .enable_paging(
            PagingConfig::new(&dir)
                .budget_bytes(budget_bytes)
                .pages_per_table(16),
        )
        .expect("enable paging");
    paged.create_schema(&schema).expect("schema");
    paged
        .create_table(&schema, table_def)
        .expect("create table");
    paged
        .insert(&schema, jobs::FACT_TABLE, rows)
        .expect("insert");

    let start = Instant::now();
    let want = {
        let db = resident_db.read();
        db.query(&schema, jobs::FACT_TABLE, &query)
            .expect("resident query")
    };
    let resident_seconds = start.elapsed().as_secs_f64();

    let before = paged.residency_stats().expect("paging is on");
    let start = Instant::now();
    let got = paged
        .query(&schema, jobs::FACT_TABLE, &query)
        .expect("paged query");
    let paged_seconds = start.elapsed().as_secs_f64();
    let after = paged.residency_stats().expect("paging is on");

    let identical = got == want;
    let _ = std::fs::remove_dir_all(&dir);
    PagedAgg {
        budget_bytes,
        table_bytes,
        resident_seconds,
        paged_seconds,
        fault_ins: after.fault_ins.saturating_sub(before.fault_ins),
        evictions: after.evictions.saturating_sub(before.evictions),
        identical,
    }
}

// ---------------------------------------------------------------------
// Gateway serving throughput
// ---------------------------------------------------------------------

/// Result of the serving-tier throughput measurement.
pub struct GatewayThroughput {
    /// Wall seconds for the first (cold) federated query: full compute
    /// through the hub plus serialization.
    pub cold_seconds: f64,
    /// Requests/sec for repeated 200s where every satellite's retained
    /// partials are hits and only their merge and serialization remain.
    pub cache_hit_rps: f64,
    /// Requests/sec for `If-None-Match` revalidations answered 304 —
    /// the watermark-derived version check alone, no body at all.
    pub revalidate_rps: f64,
    /// Requests measured per hot loop.
    pub requests: usize,
    /// Worker panics observed (must be zero).
    pub worker_panics: u64,
}

/// Measure gateway requests/sec on the loopback interface for the three
/// serving regimes: a cold federated query, retained-partials hits, and
/// ETag revalidation 304s. One sequential client so the numbers compare
/// per-request cost, not connection concurrency.
pub fn gateway_throughput(seed: u64, requests: usize) -> GatewayThroughput {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::{Arc, RwLock};
    use std::time::Instant;
    use xdmod_auth::{Role, User};
    use xdmod_gateway::{serve, GatewayConfig, SESSION_COOKIE};

    let mut fed = Federation::new(FederationHub::new("bench-hub"));
    for (name, resource, salt) in [("site-a", "res-a", 1), ("site-b", "res-b", 2)] {
        let mut inst = XdmodInstance::new(name);
        inst.set_su_factor(resource, 1.0);
        let sim = ClusterSim::new(
            ResourceProfile::generic(resource, 128, 48.0, 1.0),
            seed + salt,
        );
        inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=2))
            .expect("simulated log parses");
        fed.join_tight(&inst, FederationConfig::default())
            .expect("join");
    }
    fed.sync().expect("sync");
    fed.hub_mut().auth_mut().enroll(
        User::member("bench", "bench@hub", "hub").with_role(Role::CenterStaff),
        Some("bench-pw"),
    );
    // The gateway validates sessions against real wall-clock time.
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock")
        .as_secs() as i64;
    let session = fed
        .hub_mut()
        .auth_mut()
        .login_local("bench", "bench-pw", now)
        .expect("login");
    let cookie = format!("Cookie: {SESSION_COOKIE}={}\r\n", session.cookie_value());

    let fed = Arc::new(RwLock::new(fed));
    // Rate limiting off the table: this measures serving cost.
    let config = GatewayConfig::default().with_rate_limit(10_000_000, 1_000_000);
    let handle = serve(fed, config, None).expect("bind gateway");
    let addr = handle.addr();

    let exchange = |headers: &str| -> (u16, String, String) {
        let target = "/query?realm=jobs&metric=job_count&dimension=resource&view=aggregate";
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {target} HTTP/1.1\r\nHost: bench\r\n{headers}\r\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("recv");
        let status = response
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .expect("status");
        let (head, body) = response.split_once("\r\n\r\n").expect("split");
        (status, head.to_owned(), body.to_owned())
    };

    let start = Instant::now();
    let (status, head, _) = exchange(&cookie);
    let cold_seconds = start.elapsed().as_secs_f64();
    assert_eq!(status, 200, "cold query");
    let etag = head
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case("etag").then(|| v.trim().to_owned())
        })
        .expect("etag");

    let start = Instant::now();
    for _ in 0..requests {
        let (status, _, _) = exchange(&cookie);
        assert_eq!(status, 200);
    }
    let cache_hit_rps = requests as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let revalidate = format!("{cookie}If-None-Match: {etag}\r\n");
    let start = Instant::now();
    for _ in 0..requests {
        let (status, _, _) = exchange(&revalidate);
        assert_eq!(status, 304);
    }
    let revalidate_rps = requests as f64 / start.elapsed().as_secs_f64().max(1e-9);

    let worker_panics = handle.worker_panics();
    handle.shutdown();
    GatewayThroughput {
        cold_seconds,
        cache_hit_rps,
        revalidate_rps,
        requests,
        worker_panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_ranking_matches_paper() {
        let r = fig1(SEED, 0.3);
        let names: Vec<&str> = r.ranking.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["comet", "stampede2", "stampede"]);
        assert_eq!(r.dataset.labels.len(), 12);
    }

    #[test]
    fn table1_bins_are_lossless() {
        let t = table1(SEED, 0.5);
        let hub_total: i64 = t.views["Federation Hub"].values().sum();
        assert_eq!(hub_total, t.raw_total_jobs);
        let a_total: i64 = t.views["Instance A"].values().sum();
        let b_total: i64 = t.views["Instance B"].values().sum();
        assert_eq!(a_total + b_total, hub_total);
    }

    #[test]
    fn fig2_all_members_verified() {
        let t = fig2(SEED, 0.3);
        assert_eq!(t.hub_view.len(), 3);
        assert!(t.members_verified.values().all(|v| *v));
        assert!(t.events_applied > 0);
    }

    #[test]
    fn fig3_excluded_resources_absent_from_hub() {
        let t = fig3(SEED, 0.3);
        assert!(t.hub_view.contains_key("resource-a"));
        assert!(t.hub_view.contains_key("resource-c"));
        assert!(!t.hub_view.contains_key("resource-b"));
        assert!(!t.hub_view.contains_key("resource-d"));
    }

    #[test]
    fn fig4_both_groups_sign_on() {
        let f = fig4(5);
        assert_eq!(f.sessions.len(), 10);
        assert_eq!(f.refused, 5); // one wrong-password attempt per R user
        assert!(f.sessions.iter().any(|(_, _, m)| m == "local"));
        assert!(f.sessions.iter().any(|(_, _, m)| m == "sso"));
    }

    #[test]
    fn fig5_federated_auth_flows() {
        let f = fig5();
        // xavier local, yolanda sso, 3 hub SSO (+1 zoe re-login), 1 delegated.
        assert!(f.sessions.len() >= 6);
        assert!(f.refused >= 1); // cross-audience replay refused
        assert!(f.sessions.iter().any(|(_, _, m)| m == "delegated"));
        // xavier's two accounts merged; yolanda separate.
        assert_eq!(f.persons_after_dedup, 2);
    }

    #[test]
    fn fig6_both_series_grow() {
        let f = fig6(SEED, 0.3);
        assert_eq!(f.dataset.series.len(), 2);
        for s in &f.dataset.series {
            let vals: Vec<f64> = s.values.iter().flatten().copied().collect();
            assert_eq!(vals.len(), 12);
            for w in vals.windows(2) {
                assert!(w[1] > w[0], "{} not growing", s.name);
            }
        }
    }

    #[test]
    fn parallel_aggregation_is_deterministic() {
        let r = parallel_aggregation(SEED, 2, 4);
        assert!(r.identical, "serial and parallel outputs diverged");
        assert!(r.serial_seconds > 0.0 && r.parallel_seconds > 0.0);
        // The cached repeat skips the fold entirely; it must not cost
        // more than the cold rebuild it short-circuits.
        assert!(r.cached_seconds <= r.parallel_seconds);
    }

    #[test]
    fn incremental_aggregation_matches_full_rebuild() {
        let r = incremental_aggregation(SEED, 2, 4);
        assert!(r.identical, "incremental and full-rebuild outputs diverged");
        assert!(
            r.records_folded > 0,
            "re-aggregation did not ride the delta"
        );
        assert!(r.cold_seconds > 0.0 && r.incremental_seconds > 0.0);
        assert!(r.full_rebuild_seconds > 0.0);
        // The cached repeat skips the fold entirely; it must not cost
        // more than the incremental pass it short-circuits.
        assert!(r.cached_seconds <= r.incremental_seconds);
    }

    #[test]
    fn paged_aggregation_matches_resident() {
        let r = paged_aggregation(SEED, 2, 4, 4 * 1024);
        assert!(r.identical, "paged and resident results diverged");
        assert!(r.resident_seconds > 0.0 && r.paged_seconds > 0.0);
        assert!(
            r.table_bytes > r.budget_bytes,
            "table ({}) must overflow the budget ({})",
            r.table_bytes,
            r.budget_bytes
        );
        assert!(r.fault_ins > 0, "paged scan never faulted a page in");
        assert!(r.evictions > 0, "working set never churned");
    }

    #[test]
    fn gateway_throughput_serves_all_three_regimes() {
        let g = gateway_throughput(SEED, 10);
        assert!(g.cold_seconds > 0.0);
        assert!(g.cache_hit_rps > 0.0);
        assert!(g.revalidate_rps > 0.0);
        assert_eq!(g.worker_panics, 0);
    }

    #[test]
    fn fig7_increasing_by_bin() {
        let f = fig7(SEED, 1.0);
        assert_eq!(f.bins.len(), 4);
        for w in f.avg_core_hours.windows(2) {
            assert!(w[1] > w[0], "{:?}", f.avg_core_hours);
        }
        assert!(f.vm_counts.iter().all(|&n| n > 0));
    }
}
