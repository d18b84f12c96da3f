//! End-to-end serving-tier acceptance: a real gateway on an ephemeral
//! TCP port over a three-satellite federation.
//!
//! The scripted session: login → authorized federated query (200 with
//! correct JSON) → `If-None-Match` revalidation (304) → new rows ingested
//! and replicated → revalidation misses (200, new ETag) → a burst past
//! the rate limit (429) → graceful drain (new requests 503, health stays
//! up) — with the auth edge cases (expired cookie → 401, role without
//! realm access → 403, malformed parameters → 400) and every counter
//! visible at `/metrics` along the way. Worker panics must be zero at
//! the end: no client input may kill a worker.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use xdmod::auth::{Role, User, SESSION_TTL_SECS};
use xdmod::core::{Federation, FederationConfig, FederationHub, XdmodInstance};
use xdmod::gateway::{serve, GatewayConfig, SESSION_COOKIE};
use xdmod::sim::{ClusterSim, ResourceProfile};

fn satellite(name: &str, resource: &str, sim_seed: u64) -> XdmodInstance {
    let mut inst = XdmodInstance::new(name);
    inst.set_su_factor(resource, 1.0);
    let sim = ClusterSim::new(ResourceProfile::generic(resource, 128, 48.0, 1.0), sim_seed);
    inst.ingest_sacct(resource, &sim.sacct_log(2017, 1..=2))
        .unwrap();
    inst
}

/// Minimal HTTP client: one exchange, read to EOF.
fn exchange(addr: SocketAddr, raw: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    (status, head.to_owned(), body.to_owned())
}

fn get(addr: SocketAddr, target: &str, headers: &str) -> (u16, String, String) {
    exchange(
        addr,
        &format!("GET {target} HTTP/1.1\r\nHost: t\r\n{headers}\r\n"),
    )
}

fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim().to_owned())
    })
}

fn login(addr: SocketAddr, username: &str, password: &str) -> String {
    let creds = format!("{{\"username\":\"{username}\",\"password\":\"{password}\"}}");
    let (status, head, body) = exchange(
        addr,
        &format!(
            "POST /login HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{creds}",
            creds.len()
        ),
    );
    assert_eq!(status, 200, "login failed: {body}");
    let cookie = header_value(&head, "set-cookie").expect("login sets a cookie");
    assert!(cookie.starts_with(SESSION_COOKIE));
    format!(
        "Cookie: {}\r\n",
        cookie.split(';').next().expect("cookie pair")
    )
}

#[test]
fn gateway_serves_a_three_satellite_federation_end_to_end() {
    let mut x = satellite("site-x", "res-x", 7);
    let y = satellite("site-y", "res-y", 8);
    let z = satellite("site-z", "res-z", 9);
    let mut fed = Federation::new(FederationHub::new("hub"));
    for inst in [&x, &y, &z] {
        fed.join_tight(inst, FederationConfig::default()).unwrap();
    }
    fed.sync().unwrap();
    let auth = fed.hub_mut().auth_mut();
    auth.enroll(
        User::member("staff", "staff@hub.example", "hub.example").with_role(Role::CenterStaff),
        Some("staff-pw"),
    );
    auth.enroll(
        User::member("walt", "walt@site-x.example", "site-x.example").with_role(Role::User),
        Some("walt-pw"),
    );

    let fed = Arc::new(RwLock::new(fed));
    // Tight rate budget so the burst test trips it deterministically;
    // refill of 1/sec keeps mid-test refill negligible.
    let config = GatewayConfig::default()
        .with_workers(2)
        .with_rate_limit(40, 1);
    let handle = serve(Arc::clone(&fed), config, None).unwrap();
    let addr = handle.addr();

    // --- Anonymous surface ---------------------------------------------
    let (status, _, body) = get(addr, "/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let (status, _, body) = get(addr, "/realms", "");
    assert_eq!(status, 200);
    for needle in ["site-x", "site-y", "site-z", "\"jobs\"", "HPC Jobs"] {
        assert!(body.contains(needle), "missing {needle} in {body}");
    }
    let (status, _, _) = get(addr, "/query?realm=jobs&metric=job_count", "");
    assert_eq!(status, 401, "query must require a session");

    // --- Login and an authorized federated query -----------------------
    let staff = login(addr, "staff", "staff-pw");
    let target = "/query?realm=jobs&metric=job_count&dimension=resource&view=aggregate";
    let (status, head, body) = get(addr, target, &staff);
    assert_eq!(status, 200, "{body}");
    let etag = header_value(&head, "etag").expect("200 carries an ETag");
    let parsed = xdmod_check::json::parse(&body).unwrap();
    assert_eq!(
        parsed.get("etag").and_then(|v| v.as_str()),
        Some(etag.as_str())
    );
    let labels: Vec<&str> = parsed
        .get("dataset")
        .and_then(|d| d.get("labels"))
        .and_then(|l| l.as_array())
        .unwrap()
        .filter_map(|v| v.as_str())
        .collect();
    assert_eq!(labels.len(), 3, "one bar per resource: {labels:?}");
    for resource in ["res-x", "res-y", "res-z"] {
        assert!(labels.contains(&resource), "{labels:?}");
    }

    // --- ETag revalidation: unchanged data is a 304 --------------------
    let revalidate = format!("{staff}If-None-Match: {etag}\r\n");
    let (status, head, body) = get(addr, target, &revalidate);
    assert_eq!(status, 304, "{body}");
    assert!(body.is_empty());
    assert_eq!(header_value(&head, "etag").as_deref(), Some(etag.as_str()));

    // --- New rows move the watermark: revalidation misses --------------
    let sim = ClusterSim::new(ResourceProfile::generic("res-x", 128, 48.0, 1.0), 99);
    x.ingest_sacct("res-x", &sim.sacct_log(2017, 3..=3))
        .unwrap();
    fed.write().unwrap().sync().unwrap();
    let (status, head, body) = get(addr, target, &revalidate);
    assert_eq!(status, 200, "stale ETag must re-serve: {body}");
    let new_etag = header_value(&head, "etag").expect("fresh ETag");
    assert_ne!(new_etag, etag, "watermark moved, ETag must move");

    // --- Auth edge cases -----------------------------------------------
    // Expired session: minted 9 hours in the past straight on the hub.
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs() as i64;
    let expired = fed
        .write()
        .unwrap()
        .hub_mut()
        .auth_mut()
        .login_local("staff", "staff-pw", now - SESSION_TTL_SECS - 3600)
        .unwrap();
    let expired_cookie = format!("Cookie: {SESSION_COOKIE}={}\r\n", expired.cookie_value());
    let (status, _, body) = get(addr, target, &expired_cookie);
    assert_eq!(status, 401, "expired cookie: {body}");

    // Role without realm access: plain users only see Jobs.
    let walt = login(addr, "walt", "walt-pw");
    let (status, _, body) = get(addr, "/query?realm=storage&metric=total_bytes", &walt);
    assert_eq!(status, 403, "user role into storage: {body}");
    let (status, _, _) = get(addr, "/query?realm=jobs&metric=job_count", &walt);
    assert_eq!(status, 200, "user role may query jobs");

    // Malformed parameters are 400s, never worker panics.
    for bad in [
        "/query?metric=job_count",                       // missing realm
        "/query?realm=jobs",                             // missing metric
        "/query?realm=jobs&metric=job_count&top_n=lots", // non-numeric
        "/query?realm=jobs&metric=job_count&start=5",    // start without end
        "/query?realm=jobs&metric=no_such_metric",       // catalog miss
        "/query?realm=jobs&metric=job_count&view=pie",   // bad view
    ] {
        let (status, _, body) = get(addr, bad, &staff);
        assert_eq!(status, 400, "{bad} -> {body}");
    }
    // Garbage session cookie is a 401, not a parse panic.
    let (status, _, _) = get(
        addr,
        target,
        &format!("Cookie: {SESSION_COOKIE}=zzzz-not-hex\r\n"),
    );
    assert_eq!(status, 401);

    // --- Burst past the rate limit: 429 with Retry-After ---------------
    let mut saw_429 = false;
    for _ in 0..60 {
        let (status, head, _) = get(addr, "/realms", "");
        if status == 429 {
            assert!(header_value(&head, "retry-after").is_some());
            saw_429 = true;
            break;
        }
        assert_eq!(status, 200);
    }
    assert!(
        saw_429,
        "60 rapid requests against a 40-token bucket must trip 429"
    );

    // --- Counters are all visible at /metrics (valve-exempt) -----------
    let (status, _, metrics) = get(addr, "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "gateway_http_requests_total",
        "gateway_http_request_seconds",
        "gateway_http_429_total",
        "gateway_http_304_total",
        "gateway_inflight_requests",
        "gateway_connections_total",
    ] {
        assert!(metrics.contains(needle), "missing {needle}");
    }

    // --- Graceful drain: new requests 503, observability stays up ------
    handle.drain();
    let (status, head, _) = get(addr, "/query?realm=jobs&metric=job_count", &staff);
    assert_eq!(status, 503, "draining gateway must refuse queries");
    assert!(header_value(&head, "retry-after").is_some());
    let (status, _, body) = get(addr, "/health", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"draining\":true"), "{body}");

    assert_eq!(handle.worker_panics(), 0, "no input may kill a worker");
    handle.shutdown();
}

#[test]
fn gateway_refuses_queries_while_members_are_paused() {
    let x = satellite("site-x", "res-x", 7);
    let mut fed = Federation::new(FederationHub::new("hub"));
    fed.join_tight(&x, FederationConfig::default()).unwrap();
    fed.sync().unwrap();
    fed.hub_mut().auth_mut().enroll(
        User::member("staff", "s@hub", "hub").with_role(Role::CenterStaff),
        Some("pw"),
    );
    fed.go_live(Duration::from_millis(1)).unwrap();

    let fed = Arc::new(RwLock::new(fed));
    let handle = serve(Arc::clone(&fed), GatewayConfig::default(), None).unwrap();
    let addr = handle.addr();
    let staff = login(addr, "staff", "pw");
    let target = "/query?realm=jobs&metric=job_count";

    let (status, _, _) = get(addr, target, &staff);
    assert_eq!(status, 200);

    // Pause the member's replication: the unified view is now frozen —
    // the gateway must say 503, not serve it as live.
    fed.read().unwrap().pause_member("site-x").unwrap();
    let (status, _, body) = get(addr, target, &staff);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("site-x"), "names the stale member: {body}");

    fed.read().unwrap().resume_member("site-x").unwrap();
    let (status, _, _) = get(addr, target, &staff);
    assert_eq!(status, 200, "resume restores service");

    fed.write().unwrap().quiesce();
    let (status, _, _) = get(addr, target, &staff);
    assert_eq!(status, 503, "quiesced links leave a stale view");

    assert_eq!(handle.worker_panics(), 0);
    handle.shutdown();
}
