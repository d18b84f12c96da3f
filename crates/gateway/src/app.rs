//! The application layer: routing, sessions, authorization, and the
//! cache-aware query endpoint.
//!
//! [`App::handle`] is a pure function from a parsed [`Request`] to a
//! [`Response`] — the TCP server (see [`crate::server`]) feeds it, but
//! tests can drive the whole routing/auth/rate-limit surface without a
//! socket. One invariant above all: **no client input reaches a panic**.
//! Every malformed parameter is a 400, every auth failure a 401/403,
//! every capacity decision a 429/503 with `Retry-After`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{SystemTime, UNIX_EPOCH};

use xdmod_alerts::AckError;
use xdmod_auth::{parse_token, Role, Session};
use xdmod_check::json::{self, JsonValue};
use xdmod_core::{DrainNotice, Federation, QueryDescriptor};
use xdmod_realms::RealmKind;
use xdmod_telemetry::MetricsRegistry;

use crate::config::GatewayConfig;
use crate::etag::{format_etag, if_none_match};
use crate::http::{json_string, Request, Response};
use crate::limit::{AdmissionGate, RateDecision, RateLimiter};

/// The session cookie name.
pub const SESSION_COOKIE: &str = "xdmod_session";

/// Shared serving state: the federation plus every admission valve.
pub struct App {
    fed: Arc<RwLock<Federation>>,
    drain: DrainNotice,
    telemetry: MetricsRegistry,
    limiter: RateLimiter,
    gate: AdmissionGate,
    draining: AtomicBool,
    purge_interval_ms: u64,
    last_purge_ms: AtomicU64,
}

impl App {
    /// Build the application layer over a shared federation. The drain
    /// notice and telemetry registry are captured from the federation so
    /// gateway metrics land next to hub metrics in one exposition.
    pub fn new(fed: Arc<RwLock<Federation>>, config: &GatewayConfig) -> Arc<Self> {
        let (drain, telemetry) = {
            let fed = fed.read().unwrap_or_else(PoisonError::into_inner);
            (fed.drain_notice(), fed.hub().telemetry().clone())
        };
        Arc::new(App {
            fed,
            drain,
            telemetry,
            limiter: RateLimiter::new(config.rate_capacity, config.rate_refill_per_sec),
            gate: AdmissionGate::new(config.max_inflight),
            draining: AtomicBool::new(false),
            purge_interval_ms: config.session_purge_interval.as_millis() as u64,
            last_purge_ms: AtomicU64::new(0),
        })
    }

    /// The registry gateway metrics are published on.
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// Enter graceful drain: every subsequent request is refused with
    /// 503; requests already in flight complete normally.
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::Release);
    }

    /// Whether graceful drain has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Serve one request. `client` is the peer address (rate-limit key);
    /// `now_ms` is milliseconds since gateway start (rate-limit clock).
    pub fn handle(&self, req: &Request, client: &str, now_ms: u64) -> Response {
        let endpoint = endpoint_label(&req.path);
        self.telemetry
            .gauge("gateway_inflight_requests", &[])
            .set(self.gate.inflight() as f64);
        let span = self
            .telemetry
            .span("gateway_http_request_seconds", &[("endpoint", endpoint)]);
        let response = self.admit_and_route(req, client, now_ms, endpoint);
        span.finish();
        let status = response.status.to_string();
        self.telemetry
            .counter(
                "gateway_http_requests_total",
                &[("endpoint", endpoint), ("status", &status)],
            )
            .inc();
        match response.status {
            429 => self.telemetry.counter("gateway_http_429_total", &[]).inc(),
            304 => self.telemetry.counter("gateway_http_304_total", &[]).inc(),
            _ => {}
        }
        response
    }

    fn admit_and_route(
        &self,
        req: &Request,
        client: &str,
        now_ms: u64,
        endpoint: &str,
    ) -> Response {
        // Observability endpoints bypass every valve: an operator must be
        // able to see a saturated or draining gateway.
        let exempt = matches!(endpoint, "/health" | "/metrics");
        if !exempt {
            if self.is_draining() {
                return Response::error(503, "gateway is draining").with_header("Retry-After", "5");
            }
            if let RateDecision::Limited { retry_after_secs } = self.limiter.check(client, now_ms) {
                return Response::error(429, "rate limit exceeded")
                    .with_header("Retry-After", &retry_after_secs.to_string());
            }
            let Some(_permit) = self.gate.try_acquire() else {
                // The event feeds the federation's alert engine: the next
                // alert pump fingerprints it into a `gateway_saturation`
                // alert instead of the refusal vanishing into a counter.
                self.telemetry.event_with(
                    "gateway.saturated",
                    "admission gate refused a request",
                    &[("inflight", self.gate.inflight() as f64)],
                );
                return Response::error(503, "gateway is saturated")
                    .with_header("Retry-After", "1");
            };
            return self.route(req);
        }
        self.route(req)
    }

    fn route(&self, req: &Request) -> Response {
        // The one parameterized path; everything else matches exactly.
        if let Some(id) = ack_alert_id(&req.path) {
            return if req.method == "POST" {
                self.ack_alert(req, id)
            } else {
                Response::error(405, "method not allowed")
            };
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/health") => self.health(),
            ("GET", "/metrics") => Response::text(200, &self.telemetry.prometheus_text()),
            ("GET", "/ops") => self.ops(),
            ("GET", "/realms") => self.realms(),
            ("GET", "/query") => self.query(req),
            ("GET", "/alerts") => self.alerts(req),
            ("POST", "/login") => self.login(req),
            ("POST", "/logout") => self.logout(req),
            (
                _,
                "/health" | "/metrics" | "/ops" | "/realms" | "/query" | "/login" | "/logout"
                | "/alerts",
            ) => Response::error(405, "method not allowed"),
            _ => Response::error(404, "no such endpoint"),
        }
    }

    fn health(&self) -> Response {
        let stale = self.drain.stale_members();
        let body = format!(
            "{{\"draining\":{},\"stale_members\":{},\"status\":\"ok\"}}",
            self.is_draining(),
            json_array(stale.iter().map(|m| json_string(m))),
        );
        Response::json(200, body)
    }

    fn ops(&self) -> Response {
        let fed = self.fed.read().unwrap_or_else(PoisonError::into_inner);
        // xc-allow: fed is the gateway's top-level RwLock; the hub db read lock ops_report takes is a leaf acquired strictly under it
        let report = fed.ops_report();
        let body = format!(
            "{{\"rendered\":{},\"title\":{}}}",
            json_string(&report.render()),
            json_string(&report.title),
        );
        Response::json(200, body)
    }

    fn realms(&self) -> Response {
        let fed = self.fed.read().unwrap_or_else(PoisonError::into_inner);
        let members = json_array(fed.members().into_iter().map(|(name, _)| json_string(name)));
        let realms = json_array(RealmKind::ALL.into_iter().map(|kind| {
            format!(
                "{{\"display_name\":{},\"federated_by_default\":{},\"ident\":{}}}",
                json_string(kind.display_name()),
                kind.federated_by_default(),
                json_string(kind.ident()),
            )
        }));
        let body = format!(
            "{{\"hub\":{},\"members\":{members},\"realms\":{realms}}}",
            json_string(fed.hub().name()),
        );
        Response::json(200, body)
    }

    /// The tentpole endpoint: authenticated, authorized, drain-aware,
    /// rate-limited upstream, and revalidation-friendly via the hub's
    /// watermark-derived version stamp.
    fn query(&self, req: &Request) -> Response {
        let fed = self.fed.read().unwrap_or_else(PoisonError::into_inner);
        let session = match self.authenticate(&fed, req) {
            Ok(session) => session,
            Err(resp) => return resp,
        };
        let descriptor = match descriptor_from(req) {
            Ok(d) => d,
            Err(msg) => return Response::error(400, &msg),
        };
        let realm = match descriptor.realm_kind() {
            Ok(k) => k,
            Err(msg) => return Response::error(400, &msg),
        };
        let role = fed
            .hub()
            .auth()
            .users()
            .get(&session.username)
            .map(|u| u.role)
            .unwrap_or(Role::User);
        if !realm_allowed(role, realm) {
            return Response::error(
                403,
                &format!("role {role:?} may not query the {} realm", realm.ident()),
            );
        }
        // Members paused or quiesced: the unified view is frozen at the
        // moment their links stopped. Refuse rather than serve it as live.
        if self.drain.is_draining() {
            return Response::error(
                503,
                &format!(
                    "federation is draining; stale members: {}",
                    // xc-allow: drain's stale-member mutex is a leaf — never held while taking app.fed
                    self.drain.stale_members().join(", ")
                ),
            )
            .with_header("Retry-After", "5");
        }
        // xc-allow: fed is the gateway's top-level RwLock, held read for the whole request by design; hub locks are leaves acquired strictly under it
        let version = fed.hub().result_version(realm);
        let etag = format_etag(version);
        if let Some(candidates) = req.header("if-none-match") {
            if if_none_match(candidates, version) {
                return Response::not_modified(&etag);
            }
        }
        match fed.hub().explore_descriptor(&descriptor) {
            Ok(dataset) => {
                let body = format!(
                    "{{\"etag\":{},\"dataset\":{}}}",
                    json_string(&etag),
                    xdmod_chart::to_json(&dataset),
                );
                Response::json(200, body).with_header("ETag", &etag)
            }
            // Catalog misses (unknown metric/dimension) are client errors.
            Err(msg) => Response::error(400, &msg),
        }
    }

    /// `GET /alerts`: the federation's alert set, most urgent first.
    /// Takes the write lock — listing pumps freshly mined telemetry
    /// events through the engine and applies timeout transitions, so the
    /// answer reflects *now*, not the last supervisor tick. ETag-cached
    /// over the engine's generation counter, mirroring `/query`'s
    /// watermark scheme: unchanged alert state revalidates to 304.
    fn alerts(&self, req: &Request) -> Response {
        let mut fed = self.fed.write().unwrap_or_else(PoisonError::into_inner);
        if let Err(resp) = self.authenticate(&fed, req) {
            return resp;
        }
        let alerts = fed.alerts();
        let etag = format_etag(fed.alerts_generation());
        if let Some(candidates) = req.header("if-none-match") {
            if if_none_match(candidates, fed.alerts_generation()) {
                return Response::not_modified(&etag);
            }
        }
        let rendered = json_array(alerts.iter().map(|a| {
            format!(
                concat!(
                    "{{\"acked_by\":{},\"detail\":{},\"family\":{},\"flaps\":{},\"id\":{},",
                    "\"last_observed_ms\":{},\"last_transition_ms\":{},\"occurrences\":{},",
                    "\"opened_at_ms\":{},\"severity\":{},\"state\":{},\"target\":{}}}"
                ),
                a.acked_by
                    .as_deref()
                    .map_or_else(|| "null".to_owned(), json_string),
                json_string(&a.detail),
                json_string(&a.family),
                a.flaps,
                json_string(&a.id),
                a.last_observed_ms,
                a.last_transition_ms,
                a.occurrences,
                a.opened_at_ms,
                json_string(a.severity.as_str()),
                json_string(a.state.as_str()),
                json_string(&a.target),
            )
        }));
        let body = format!(
            "{{\"alerts\":{rendered},\"etag\":{},\"open\":{}}}",
            json_string(&etag),
            alerts.iter().filter(|a| a.state.is_open()).count(),
        );
        Response::json(200, body).with_header("ETag", &etag)
    }

    /// `POST /alerts/{id}/ack`: acknowledge a firing alert. Operator
    /// role and above (center staff, center director, admin) — ordinary
    /// users and PIs can look, not touch.
    fn ack_alert(&self, req: &Request, id: &str) -> Response {
        let mut fed = self.fed.write().unwrap_or_else(PoisonError::into_inner);
        let session = match self.authenticate(&fed, req) {
            Ok(session) => session,
            Err(resp) => return resp,
        };
        let role = fed
            .hub()
            .auth()
            .users()
            .get(&session.username)
            .map(|u| u.role)
            .unwrap_or(Role::User);
        if matches!(role, Role::User | Role::Pi) {
            return Response::error(403, &format!("role {role:?} may not acknowledge alerts"));
        }
        match fed.ack_alert(id, &session.username) {
            Ok(()) => {
                let body = format!(
                    "{{\"acked\":{},\"by\":{}}}",
                    json_string(id),
                    json_string(&session.username),
                );
                Response::json(200, body)
            }
            Err(AckError::UnknownAlert(_)) => Response::error(404, "no such alert"),
            Err(e @ AckError::NotFiring { .. }) => Response::error(409, &e.to_string()),
        }
    }

    /// Sweep expired sessions when the purge interval has elapsed.
    /// Called from the acceptor's idle path, so the sweep happens even on
    /// a gateway nobody is logging into — the failure mode that let the
    /// session store grow unbounded when the sweep only ran at login.
    /// Returns how many sessions were dropped (0 when skipped).
    pub fn maybe_purge_sessions(&self, now_ms: u64) -> usize {
        let last = self.last_purge_ms.load(Ordering::Acquire);
        if last != 0 && now_ms.saturating_sub(last) < self.purge_interval_ms {
            return 0;
        }
        // One winner per interval; losers skip rather than queue on the
        // federation write lock.
        if self
            .last_purge_ms
            .compare_exchange(last, now_ms.max(1), Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return 0;
        }
        let purged = {
            let mut fed = self.fed.write().unwrap_or_else(PoisonError::into_inner);
            fed.hub_mut().auth_mut().purge_expired(epoch_secs())
        };
        if purged > 0 {
            self.telemetry
                .counter("gateway_sessions_purged_total", &[])
                .add(purged as u64);
        }
        purged
    }

    fn login(&self, req: &Request) -> Response {
        let Ok(parsed) = json::parse(&req.body) else {
            return Response::error(400, "body must be a JSON object");
        };
        let (Some(username), Some(password)) = (
            parsed.get("username").and_then(JsonValue::as_str),
            parsed.get("password").and_then(JsonValue::as_str),
        ) else {
            return Response::error(400, "missing username or password");
        };
        let now = epoch_secs();
        let mut fed = self.fed.write().unwrap_or_else(PoisonError::into_inner);
        let hub = fed.hub_mut();
        // Expired sessions accrete forever on a long-lived front door
        // without this sweep.
        hub.auth_mut().purge_expired(now);
        match hub.auth_mut().login_local(username, password, now) {
            Some(session) => {
                let body = format!(
                    "{{\"expires_at\":{},\"instance\":{},\"username\":{}}}",
                    session.expires_at,
                    json_string(&session.instance),
                    json_string(&session.username),
                );
                Response::json(200, body).with_header(
                    "Set-Cookie",
                    &format!(
                        "{SESSION_COOKIE}={}; HttpOnly; Path=/",
                        session.cookie_value()
                    ),
                )
            }
            None => Response::error(401, "invalid credentials"),
        }
    }

    fn logout(&self, req: &Request) -> Response {
        let Some(token) = req.cookie(SESSION_COOKIE).and_then(parse_token) else {
            return Response::error(401, "no session cookie");
        };
        let mut fed = self.fed.write().unwrap_or_else(PoisonError::into_inner);
        if fed.hub_mut().auth_mut().logout(token) {
            Response::json(200, "{\"logged_out\":true}".to_owned())
        } else {
            Response::error(401, "no such session")
        }
    }

    fn authenticate(&self, fed: &Federation, req: &Request) -> Result<Session, Response> {
        let Some(cookie) = req.cookie(SESSION_COOKIE) else {
            return Err(Response::error(
                401,
                "authentication required (POST /login)",
            ));
        };
        let Some(token) = parse_token(cookie) else {
            return Err(Response::error(401, "malformed session cookie"));
        };
        match fed.hub().auth().validate_session(token, epoch_secs()) {
            Some(session) => Ok(session.clone()),
            None => Err(Response::error(401, "session expired or unknown")),
        }
    }
}

/// A JSON array of already-encoded JSON values.
fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// Which realms a role may query through the gateway: ordinary users and
/// PIs see the initial release's federated realm (HPC Jobs); center
/// staff and above see everything the hub federates.
pub fn realm_allowed(role: Role, realm: RealmKind) -> bool {
    match role {
        Role::User | Role::Pi => realm == RealmKind::Jobs,
        Role::CenterStaff | Role::CenterDirector | Role::Admin => true,
    }
}

/// Collapse a path to a bounded metric label (unknown paths share one
/// label so hostile clients cannot explode series cardinality). All
/// `/alerts/{id}/ack` paths collapse to one label for the same reason.
fn endpoint_label(path: &str) -> &'static str {
    if ack_alert_id(path).is_some() {
        return "/alerts/ack";
    }
    match path {
        "/health" => "/health",
        "/metrics" => "/metrics",
        "/ops" => "/ops",
        "/realms" => "/realms",
        "/query" => "/query",
        "/alerts" => "/alerts",
        "/login" => "/login",
        "/logout" => "/logout",
        _ => "other",
    }
}

/// Parse `/alerts/{id}/ack` into the alert id; `None` for anything else
/// (empty ids and ids containing further slashes are not ack paths).
fn ack_alert_id(path: &str) -> Option<&str> {
    let id = path.strip_prefix("/alerts/")?.strip_suffix("/ack")?;
    (!id.is_empty() && !id.contains('/')).then_some(id)
}

/// Build a [`QueryDescriptor`] from `/query` parameters; every failure
/// names the offending parameter.
fn descriptor_from(req: &Request) -> Result<QueryDescriptor, String> {
    let realm = req.query_param("realm").ok_or("missing realm parameter")?;
    let metric = req
        .query_param("metric")
        .ok_or("missing metric parameter")?;
    let mut descriptor = QueryDescriptor::new(realm, metric);
    descriptor.dimension = req.query_param("dimension").map(str::to_owned);
    descriptor.view = req.query_param("view").map(str::to_owned);
    descriptor.period = req.query_param("period").map(str::to_owned);
    descriptor.start = parse_num::<i64>(req, "start")?;
    descriptor.end = parse_num::<i64>(req, "end")?;
    descriptor.top_n = parse_num::<usize>(req, "top_n")?;
    for raw in req.query_params("filter") {
        let (dim, value) = raw
            .split_once('=')
            .ok_or_else(|| format!("filter {raw:?} must look like dimension=value"))?;
        descriptor.filters.push((dim.to_owned(), value.to_owned()));
    }
    Ok(descriptor)
}

fn parse_num<T: std::str::FromStr>(req: &Request, name: &str) -> Result<Option<T>, String> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{name} must be a number, got {raw:?}")),
    }
}

fn epoch_secs() -> i64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() as i64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use xdmod_alerts::{AlertRules, FAMILY_GATEWAY_SATURATION};
    use xdmod_auth::User;
    use xdmod_core::{FederationConfig, FederationHub, XdmodInstance};
    use xdmod_sim::{ClusterSim, ResourceProfile};

    /// One satellite with a month of jobs, a staff login, and an alert
    /// rule that fires on the first gateway refusal.
    fn app() -> Arc<App> {
        let mut site = XdmodInstance::new("site-x");
        site.set_su_factor("res-x", 1.0);
        let sim = ClusterSim::new(ResourceProfile::generic("res-x", 16, 48.0, 1.0), 7);
        site.ingest_sacct("res-x", &sim.sacct_log(2017, 1..=1))
            .unwrap();
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&site, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        fed.hub_mut().auth_mut().enroll(
            User::member("staff", "staff@hub.example", "hub.example").with_role(Role::CenterStaff),
            Some("staff-pw"),
        );
        let mut rules = AlertRules::default();
        let rule = rules
            .rule_for(FAMILY_GATEWAY_SATURATION)
            .with_debounce_ms(1);
        rules.set(FAMILY_GATEWAY_SATURATION, rule);
        fed.set_alert_rules(rules);
        App::new(Arc::new(RwLock::new(fed)), &GatewayConfig::default())
    }

    fn send(app: &App, raw: &str) -> Response {
        let req = read_request(&mut raw.as_bytes()).unwrap();
        app.handle(&req, "10.0.0.1", 1)
    }

    fn get(app: &App, target: &str, cookie: &str) -> Response {
        send(
            app,
            &format!("GET {target} HTTP/1.1\r\nCookie: {cookie}\r\n\r\n"),
        )
    }

    /// Log in as staff; returns the session cookie and the login body.
    fn login(app: &App) -> (String, String) {
        let creds = r#"{"username":"staff","password":"staff-pw"}"#;
        let resp = send(
            app,
            &format!(
                "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{creds}",
                creds.len()
            ),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let (_, cookie) = resp
            .headers
            .iter()
            .find(|(n, _)| n == "Set-Cookie")
            .unwrap();
        (cookie.split(';').next().unwrap().to_owned(), resp.body)
    }

    #[test]
    fn health_bytes() {
        let app = app();
        let resp = get(&app, "/health", "");
        assert_eq!(
            resp.body,
            r#"{"draining":false,"stale_members":[],"status":"ok"}"#
        );
        app.start_draining();
        let resp = get(&app, "/health", "");
        assert_eq!(
            resp.body,
            r#"{"draining":true,"stale_members":[],"status":"ok"}"#
        );
    }

    /// The report's counters move with every request, so its middle is
    /// not pinned; the framing and the escaped newlines are.
    #[test]
    fn ops_bytes() {
        let resp = get(&app(), "/ops", "");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let head = r#"{"rendered":"hub operations\n==============\n\nFederation health\n"#;
        let tail = r#"\n\nActive alerts\n-------------\n\nnone\n\n","title":"hub operations"}"#;
        assert!(resp.body.starts_with(head), "{}", resp.body);
        assert!(resp.body.ends_with(tail), "{}", resp.body);
        assert!(!resp.body.contains('\n'));
    }

    #[test]
    fn realms_bytes() {
        let resp = get(&app(), "/realms", "");
        assert_eq!(
            resp.body,
            concat!(
                r#"{"hub":"hub","members":["site-x"],"realms":["#,
                r#"{"display_name":"HPC Jobs","federated_by_default":true,"ident":"jobs"},"#,
                r#"{"display_name":"SUPReMM","federated_by_default":false,"ident":"supremm"},"#,
                r#"{"display_name":"Storage","federated_by_default":true,"ident":"storage"},"#,
                r#"{"display_name":"Cloud","federated_by_default":true,"ident":"cloud"}]}"#
            )
        );
    }

    #[test]
    fn login_bytes() {
        let (_, body) = login(&app());
        let expires_at: i64 = body
            .strip_prefix(r#"{"expires_at":"#)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{body}"));
        assert!((expires_at - epoch_secs() - xdmod_auth::SESSION_TTL_SECS).abs() <= 5);
        assert_eq!(
            body,
            format!(r#"{{"expires_at":{expires_at},"instance":"hub","username":"staff"}}"#)
        );
    }

    #[test]
    fn query_bytes() {
        let app = app();
        let (cookie, _) = login(&app);
        let resp = get(
            &app,
            "/query?realm=jobs&metric=job_count&dimension=resource&view=aggregate",
            &cookie,
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        let (_, etag) = resp.headers.iter().find(|(n, _)| n == "ETag").unwrap();
        assert_eq!(
            resp.body,
            format!(
                concat!(
                    r#"{{"etag":{},"dataset":{{"title":"Number of Jobs Ended — hub (federated)","#,
                    r#""unit":"jobs","labels":["res-x"],"#,
                    r#""series":[{{"name":"job_count","values":[316.0]}}]}}}}"#
                ),
                json_string(etag)
            )
        );
    }

    #[test]
    fn alerts_and_ack_bytes() {
        let app = app();
        let (cookie, _) = login(&app);
        let resp = get(&app, "/alerts", &cookie);
        let etag = format_etag(app.fed.write().unwrap().alerts_generation());
        assert_eq!(
            resp.body,
            format!(r#"{{"alerts":[],"etag":{},"open":0}}"#, json_string(&etag))
        );

        // A closed gate refuses a request; the refusal fires an alert.
        let closed = App::new(
            Arc::clone(&app.fed),
            &GatewayConfig::default().with_max_inflight(0),
        );
        assert_eq!(get(&closed, "/ops", "").status, 503);
        let alert = app.fed.write().unwrap().alerts().remove(0);
        let resp = get(&app, "/alerts", &cookie);
        let etag = format_etag(app.fed.write().unwrap().alerts_generation());
        assert_eq!(
            resp.body,
            format!(
                concat!(
                    r#"{{"alerts":[{{"acked_by":null,"detail":"admission gate refused a request","#,
                    r#""family":"gateway_saturation","flaps":0,"id":{},"last_observed_ms":{},"#,
                    r#""last_transition_ms":{},"occurrences":1,"opened_at_ms":{},"#,
                    r#""severity":"warning","state":"firing","target":"gateway"}}],"#,
                    r#""etag":{},"open":1}}"#
                ),
                json_string(&alert.id),
                alert.last_observed_ms,
                alert.last_transition_ms,
                alert.opened_at_ms,
                json_string(&etag),
            )
        );

        let resp = send(
            &app,
            &format!(
                "POST /alerts/{}/ack HTTP/1.1\r\nCookie: {cookie}\r\n\r\n",
                alert.id
            ),
        );
        assert_eq!(
            resp.body,
            format!(r#"{{"acked":{},"by":"staff"}}"#, json_string(&alert.id))
        );
        let resp = get(&app, "/alerts", &cookie);
        assert!(
            resp.body.starts_with(r#"{"alerts":[{"acked_by":"staff","#),
            "{}",
            resp.body
        );
    }

    #[test]
    fn login_body_must_be_json_with_both_strings() {
        let app = app();
        for (body, status, message) in [
            ("{", 400, "body must be a JSON object"),
            ("[[[[", 400, "body must be a JSON object"),
            (
                r#"{"username":"staff"}"#,
                400,
                "missing username or password",
            ),
            (
                r#"{"username":"staff","password":7}"#,
                400,
                "missing username or password",
            ),
            (
                r#"["staff","staff-pw"]"#,
                400,
                "missing username or password",
            ),
            (
                r#"{"username":"staff","password":"nope"}"#,
                401,
                "invalid credentials",
            ),
        ] {
            let resp = send(
                &app,
                &format!(
                    "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ),
            );
            assert_eq!(resp.status, status, "{body}");
            assert_eq!(resp.body, format!(r#"{{"error":"{message}"}}"#), "{body}");
        }
        // Nesting deeper than the reader allows is a 400, not a crash.
        let deep = "[".repeat(60_000);
        let resp = send(
            &app,
            &format!(
                "POST /login HTTP/1.1\r\nContent-Length: {}\r\n\r\n{deep}",
                deep.len()
            ),
        );
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn roles_gate_realms() {
        assert!(realm_allowed(Role::User, RealmKind::Jobs));
        assert!(!realm_allowed(Role::User, RealmKind::Storage));
        assert!(!realm_allowed(Role::Pi, RealmKind::Cloud));
        assert!(realm_allowed(Role::CenterStaff, RealmKind::Storage));
        assert!(realm_allowed(Role::Admin, RealmKind::Supremm));
    }

    #[test]
    fn unknown_paths_share_a_metric_label() {
        assert_eq!(endpoint_label("/query"), "/query");
        assert_eq!(endpoint_label("/../../etc/passwd"), "other");
        assert_eq!(endpoint_label("/query/x"), "other");
        assert_eq!(endpoint_label("/alerts"), "/alerts");
        assert_eq!(
            endpoint_label("/alerts/deadbeef01234567/ack"),
            "/alerts/ack"
        );
        assert_eq!(endpoint_label("/alerts/deadbeef"), "other");
    }

    #[test]
    fn ack_paths_parse_strictly() {
        assert_eq!(ack_alert_id("/alerts/abc123/ack"), Some("abc123"));
        assert_eq!(ack_alert_id("/alerts//ack"), None);
        assert_eq!(ack_alert_id("/alerts/a/b/ack"), None);
        assert_eq!(ack_alert_id("/alerts/ack"), None);
        assert_eq!(ack_alert_id("/alerts/abc123"), None);
        assert_eq!(ack_alert_id("/query"), None);
    }
}
