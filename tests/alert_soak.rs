//! Alert-lifecycle soak: a seeded chaos run against a three-satellite
//! federation must turn every injected fault family into **exactly one**
//! firing alert — repeated observations fold into the open alert's
//! occurrence count instead of multiplying — and every alert must
//! auto-resolve once the supervisor heals (or the operator reinstates)
//! the link. The same engine is then exercised over its full surface:
//! replication lag following a link's real backlog, preflight refusals and
//! gateway admission saturation raising (and timeout-resolving) alerts,
//! and the `/alerts` HTTP surface with `ETag` revalidation and the
//! operator-role acknowledgement gate.
//!
//! The seed is taken from `CHAOS_SEED` when set (the CI alert-soak job
//! loops a fixed set of seeds through this test), defaulting to 42.
//!
//! The chaos runs supervise at explicit instants, each past the longest
//! backoff a link can plan (the default policy's 1 s), so every pass
//! steps every unquarantined link once and a retry runs in the pass
//! after its failure.

use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use xdmod::alerts::{
    AlertRules, AlertSeverity, AlertState, FAMILY_GATEWAY_SATURATION, FAMILY_LINK_DOWN,
    FAMILY_PREFLIGHT_REFUSED, FAMILY_QUARANTINE, FAMILY_REPLICATION_LAG,
};
use xdmod::auth::{Role, User, SESSION_TTL_SECS};
use xdmod::chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
use xdmod::core::{
    Alert, Federation, FederationConfig, FederationHub, SupervisorPolicy, XdmodInstance,
};
use xdmod::gateway::http::read_request;
use xdmod::gateway::{App, GatewayConfig, Request, SESSION_COOKIE};
use xdmod::sim::{ClusterSim, ResourceProfile};

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

fn policy() -> SupervisorPolicy {
    SupervisorPolicy::default().with_max_failures(2)
}

/// The instant of supervision pass `n`: two seconds apart, past any
/// backoff the default retry policy plans.
fn pass(t0: Instant, n: u32) -> Instant {
    t0 + Duration::from_secs(2) * n
}

fn find<'a>(alerts: &'a [Alert], family: &str, target: &str) -> Vec<&'a Alert> {
    alerts
        .iter()
        .filter(|a| a.family == family && a.target == target)
        .collect()
}

/// The headline acceptance: chaos faults on a three-satellite federation
/// produce exactly one firing alert per injected fault family, folding
/// repeats, and every alert resolves once the supervisor heals the link.
#[test]
fn injected_faults_fire_exactly_one_alert_each_and_auto_resolve() {
    let x = satellite("x", "res-x", 7);
    let y = satellite("y", "res-y", 8);
    let z = satellite("z", "res-z", 9);

    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.join_tight(&y, FederationConfig::default()).unwrap();
    fed.join_tight(&z, FederationConfig::default()).unwrap();

    let plan = FaultPlan::new()
        // x: a budgeted burst of transient faults, each absorbed by a
        // retry in the next pass — and therefore invisible to the alert
        // engine: no page for a self-healing hiccup.
        .with(
            FaultSpec::every(FaultPoint::Transport, FaultKind::Transient, 2)
                .for_target("x")
                .with_budget(3),
        )
        // z: the link drops on its first op and never comes back.
        .with(FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[1]).for_target("z"));
    fed.inject_chaos(&plan.injector(seed()));

    // Eight passes: z's burst retries five times, its sixth and seventh
    // failures strike it into quarantine, and the last pass observes it
    // parked; x's faults are each retried through in the next pass.
    let t0 = Instant::now();
    for n in 0..8 {
        fed.supervise_at(&policy(), pass(t0, n));
    }
    assert_eq!(fed.quarantined_members(), vec!["z"]);

    let alerts = fed.alerts();
    // Transient-absorbing x never alerted.
    assert!(
        alerts.iter().all(|a| a.target != "x"),
        "absorbed transients must not page: {alerts:?}"
    );
    // Exactly one firing alert per fault family, not one per tick.
    let link_down = find(&alerts, FAMILY_LINK_DOWN, "z");
    assert_eq!(link_down.len(), 1, "alerts: {alerts:?}");
    assert_eq!(link_down[0].state, AlertState::Firing);
    assert_eq!(link_down[0].severity, AlertSeverity::Critical);
    let quarantine = find(&alerts, FAMILY_QUARANTINE, "z");
    assert_eq!(quarantine.len(), 1, "alerts: {alerts:?}");
    assert_eq!(quarantine[0].state, AlertState::Firing);
    // The quarantined member is re-observed every tick; those repeats
    // folded into the open alert instead of multiplying it.
    assert!(
        quarantine[0].occurrences > 1,
        "repeat observations must fold: {:?}",
        quarantine[0]
    );
    assert_eq!(fed.alert_engine().open_count(), 2);
    // Two distinct firings ⇒ two notifications; folds dispatch nothing.
    assert_eq!(fed.alert_engine().notifications_sent(), 2);
    assert_eq!(fed.alert_engine().notifications_suppressed(), 0);

    // An operator acknowledges the page; the alert stays open.
    let id = link_down[0].id.clone();
    fed.ack_alert(&id, "sre-oncall").unwrap();
    let alerts = fed.alerts();
    let acked = find(&alerts, FAMILY_LINK_DOWN, "z")[0];
    assert_eq!(acked.state, AlertState::Acknowledged);
    assert_eq!(acked.acked_by.as_deref(), Some("sre-oncall"));
    // Acknowledging twice is refused.
    assert!(fed.ack_alert(&id, "sre-oncall").is_err());

    // Heal: clear the chaos plan (the LinkDown latch lives in the
    // injector), reinstate the parked member, and let the supervisor
    // observe health again.
    fed.inject_chaos(&FaultPlan::new().injector(seed()));
    fed.reinstate_member("z").unwrap();
    for n in 8..10 {
        let report = fed.supervise_at(&policy(), pass(t0, n));
        assert!(report.all_healthy(), "healed federation: {report}");
    }

    let alerts = fed.alerts();
    for (family, target) in [(FAMILY_LINK_DOWN, "z"), (FAMILY_QUARANTINE, "z")] {
        let resolved = find(&alerts, family, target);
        assert_eq!(resolved.len(), 1);
        assert_eq!(
            resolved[0].state,
            AlertState::Resolved,
            "{family}/{target} must resolve after healing: {:?}",
            resolved[0]
        );
    }
    assert_eq!(fed.alert_engine().open_count(), 0);

    // Identity is stable across the whole lifecycle.
    assert_eq!(find(&alerts, FAMILY_LINK_DOWN, "z")[0].id, id);

    // The ops dashboard carried the alert section throughout.
    let report = fed.ops_report().render();
    assert!(report.contains("Active alerts"), "report: {report}");
}

/// Replication lag: the supervisor classifies a live link as lagging
/// from the link's own backlog; the alert engine follows that
/// classification up and back down.
#[test]
fn replication_lag_alert_follows_the_link_backlog() {
    let mut x = satellite("lagx", "res-lx", 11);
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.sync().unwrap();
    // A long interval keeps the driver from stepping the live link again
    // after its first tick, so the backlog below stays until quiesce
    // drains it.
    fed.go_live_forced(Duration::from_secs(600));
    std::thread::sleep(Duration::from_millis(30));

    let satellite_db = x.database();
    let head = || satellite_db.read().binlog_position().seqno;
    let before = head();
    let sim = ClusterSim::new(ResourceProfile::generic("res-lx", 128, 48.0, 1.0), 11);
    x.ingest_sacct("res-lx", &sim.sacct_log(2017, 3..=3))
        .unwrap();
    let behind = head() - before;
    assert!(behind > 0);
    fed.supervise(&SupervisorPolicy::default());
    let alerts = fed.alerts();
    let lag = find(&alerts, FAMILY_REPLICATION_LAG, "lagx");
    assert_eq!(lag.len(), 1, "alerts: {alerts:?}");
    assert_eq!(lag[0].state, AlertState::Firing);
    assert!(
        lag[0].detail.contains(&format!("{behind} events behind")),
        "detail carries the backlog: {:?}",
        lag[0]
    );

    // Quiesce drains the backlog: the next tick observes a healthy link
    // and resolves.
    fed.quiesce();
    fed.supervise(&SupervisorPolicy::default());
    let alerts = fed.alerts();
    assert_eq!(
        find(&alerts, FAMILY_REPLICATION_LAG, "lagx")[0].state,
        AlertState::Resolved
    );
}

/// Event-fed families: a preflight refusal and gateway admission
/// saturation raise alerts through the telemetry event pump, and —
/// having no healthy-path producer — resolve via the rule's quiet
/// timeout.
#[test]
fn event_fed_families_fire_and_timeout_resolve() {
    // `schema_for` maps both names to inst_site_a: XC0001 refuses
    // go_live.
    let a = satellite("site-a", "res-a", 41);
    let b = satellite("site.a", "res-b", 43);
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&a, FederationConfig::default()).unwrap();
    fed.join_tight(&b, FederationConfig::default()).unwrap();

    // Tight timeout rules so the test observes the auto-resolve without
    // waiting out the 30 s default (debounce must stay below the
    // resolve timeout or XC0013 would refuse this very table).
    let mut rules = AlertRules::default();
    rules.set(
        FAMILY_PREFLIGHT_REFUSED,
        rules
            .rule_for(FAMILY_PREFLIGHT_REFUSED)
            .with_debounce_ms(1)
            .with_resolve_timeout_ms(40),
    );
    rules.set(
        FAMILY_GATEWAY_SATURATION,
        rules
            .rule_for(FAMILY_GATEWAY_SATURATION)
            .with_debounce_ms(1)
            .with_resolve_timeout_ms(40),
    );
    fed.set_alert_rules(rules);

    fed.go_live(Duration::from_millis(1)).unwrap_err();
    let alerts = fed.alerts();
    let refused = find(&alerts, FAMILY_PREFLIGHT_REFUSED, "preflight");
    assert_eq!(refused.len(), 1, "alerts: {alerts:?}");
    assert_eq!(refused[0].state, AlertState::Firing);

    // A zero-capacity admission gate refuses every valved request and
    // emits `gateway.saturated`; the pump turns it into an alert.
    let fed = Arc::new(RwLock::new(fed));
    let app = App::new(
        Arc::clone(&fed),
        &GatewayConfig::default().with_max_inflight(0),
    );
    let resp = app.handle(&request("GET", "/ops", vec![]), "10.0.0.1", 1);
    assert_eq!(resp.status, 503);

    let mut fed = fed.write().unwrap();
    let alerts = fed.alerts();
    let saturated = find(&alerts, FAMILY_GATEWAY_SATURATION, "gateway");
    assert_eq!(saturated.len(), 1, "alerts: {alerts:?}");
    assert_eq!(saturated[0].state, AlertState::Firing);

    // Quiet past the resolve timeout: both families auto-resolve.
    std::thread::sleep(Duration::from_millis(60));
    let alerts = fed.alerts();
    for (family, target) in [
        (FAMILY_PREFLIGHT_REFUSED, "preflight"),
        (FAMILY_GATEWAY_SATURATION, "gateway"),
    ] {
        assert_eq!(
            find(&alerts, family, target)[0].state,
            AlertState::Resolved,
            "{family} must timeout-resolve"
        );
    }
    assert_eq!(fed.alert_engine().open_count(), 0);
}

fn epoch_secs() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs() as i64
}

/// A bodiless request, parsed from its wire form as the server would.
fn request(method: &str, path: &str, headers: Vec<(String, String)>) -> Request {
    let mut raw = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        raw.push_str(&format!("{name}: {value}\r\n"));
    }
    raw.push_str("\r\n");
    read_request(&mut raw.as_bytes()).expect("a well-formed request")
}

fn cookie_header(cookie: &str) -> Vec<(String, String)> {
    vec![("cookie".to_owned(), format!("{SESSION_COOKIE}={cookie}"))]
}

/// The `/alerts` HTTP surface: ETag revalidation keyed to the engine's
/// generation counter, and the operator-role gate on acknowledgement.
#[test]
fn alerts_endpoint_revalidates_and_gates_ack_by_role() {
    let x = satellite("x", "res-x", 7);
    let z = satellite("z", "res-z", 9);
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.join_tight(&z, FederationConfig::default()).unwrap();
    fed.inject_chaos(
        &FaultPlan::new()
            .with(
                FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[1]).for_target("z"),
            )
            .injector(seed()),
    );
    let t0 = Instant::now();
    for n in 0..8 {
        fed.supervise_at(&policy(), pass(t0, n));
    }
    let firing_id = fed
        .alerts()
        .iter()
        .find(|a| a.family == FAMILY_LINK_DOWN)
        .map(|a| a.id.clone())
        .expect("link_down fired");

    let auth = fed.hub_mut().auth_mut();
    auth.enroll(
        User::member("staff", "staff@hub.example", "hub.example").with_role(Role::CenterStaff),
        Some("staff-pw"),
    );
    auth.enroll(
        User::member("walt", "walt@x.example", "x.example").with_role(Role::User),
        Some("walt-pw"),
    );
    let now = epoch_secs();
    let staff = auth
        .login_local("staff", "staff-pw", now)
        .unwrap()
        .cookie_value();
    let walt = auth
        .login_local("walt", "walt-pw", now)
        .unwrap()
        .cookie_value();

    let app = App::new(Arc::new(RwLock::new(fed)), &GatewayConfig::default());

    // Unauthenticated list is refused.
    let resp = app.handle(&request("GET", "/alerts", vec![]), "c1", 1);
    assert_eq!(resp.status, 401);

    // Authenticated list: 200 with an ETag and the firing alert.
    let resp = app.handle(&request("GET", "/alerts", cookie_header(&staff)), "c1", 2);
    assert_eq!(resp.status, 200, "{}", resp.body);
    let etag = resp
        .headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("etag"))
        .map(|(_, v)| v.clone())
        .expect("200 carries an ETag");
    assert!(resp.body.contains(FAMILY_LINK_DOWN), "{}", resp.body);
    assert!(resp.body.contains(&firing_id), "{}", resp.body);

    // Unchanged alert state revalidates to 304.
    let mut headers = cookie_header(&staff);
    headers.push(("if-none-match".to_owned(), etag.clone()));
    let resp = app.handle(&request("GET", "/alerts", headers.clone()), "c1", 3);
    assert_eq!(resp.status, 304, "{}", resp.body);
    assert!(resp.body.is_empty());

    // Plain users may look but not acknowledge.
    let ack_path = format!("/alerts/{firing_id}/ack");
    let resp = app.handle(&request("GET", "/alerts", cookie_header(&walt)), "c2", 4);
    assert_eq!(resp.status, 200);
    let resp = app.handle(&request("POST", &ack_path, cookie_header(&walt)), "c2", 5);
    assert_eq!(resp.status, 403, "{}", resp.body);

    // Operators may: 200, then 409 on the repeat, 404 for a bogus id.
    let resp = app.handle(&request("POST", &ack_path, cookie_header(&staff)), "c1", 6);
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("staff"), "{}", resp.body);
    let resp = app.handle(&request("POST", &ack_path, cookie_header(&staff)), "c1", 7);
    assert_eq!(resp.status, 409, "{}", resp.body);
    let resp = app.handle(
        &request(
            "POST",
            "/alerts/ffffffffffffffff/ack",
            cookie_header(&staff),
        ),
        "c1",
        8,
    );
    assert_eq!(resp.status, 404, "{}", resp.body);
    // GET on the ack route is a method error, not a fall-through.
    let resp = app.handle(&request("GET", &ack_path, cookie_header(&staff)), "c1", 9);
    assert_eq!(resp.status, 405, "{}", resp.body);

    // The ack moved the generation: the old ETag misses now.
    let resp = app.handle(&request("GET", "/alerts", headers), "c1", 10);
    assert_eq!(resp.status, 200, "stale ETag must re-serve");
    assert!(resp.body.contains("acknowledged"), "{}", resp.body);
}

/// The acceptor's idle-path housekeeping: expired sessions are actually
/// purged (not merely purgeable), on the configured cadence.
#[test]
fn idle_path_purges_expired_sessions() {
    let x = satellite("x", "res-x", 7);
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    let auth = fed.hub_mut().auth_mut();
    auth.enroll(
        User::member("staff", "staff@hub.example", "hub.example").with_role(Role::CenterStaff),
        Some("staff-pw"),
    );
    // One live session, one long expired.
    let now = epoch_secs();
    auth.login_local("staff", "staff-pw", now).unwrap();
    auth.login_local("staff", "staff-pw", now - SESSION_TTL_SECS - 3600)
        .unwrap();

    let fed = Arc::new(RwLock::new(fed));
    // Interval zero: sweep on every idle tick (the production default
    // is a minute).
    let app = App::new(
        Arc::clone(&fed),
        &GatewayConfig::default().with_session_purge_interval(Duration::ZERO),
    );
    assert_eq!(app.maybe_purge_sessions(1_000), 1);
    // Swept already — nothing left to purge, but the sweep still runs.
    assert_eq!(app.maybe_purge_sessions(2_000), 0);
    // The sweep left its audit counter.
    assert_eq!(
        fed.read()
            .unwrap()
            .hub()
            .telemetry()
            .snapshot()
            .counter("gateway_sessions_purged_total", &[]),
        Some(1)
    );

    // A non-zero interval rate-limits the sweep.
    let spaced = App::new(
        Arc::clone(&fed),
        &GatewayConfig::default().with_session_purge_interval(Duration::from_secs(60)),
    );
    assert_eq!(spaced.maybe_purge_sessions(1_000), 0); // first sweep
    assert_eq!(spaced.maybe_purge_sessions(30_000), 0); // within interval: skipped
    assert_eq!(spaced.maybe_purge_sessions(61_001), 0); // due again: runs, nothing expired
}
