//! `gateway_mix`: a request mix through the gateway front.
//!
//! Each job mirrors `server::serve_connection` + `App::handle` with the
//! federation behind them replaced by a canned reply: `read_request` from
//! an in-memory reader, `RateLimiter::check` under a virtual clock,
//! `AdmissionGate::try_acquire`, `if_none_match`/`format_etag`, a JSON body
//! through `json_string`, `Response::write_to` a `Vec`. Jobs run on the
//! real `WorkerPool`.
//!
//! Closed loop: `LANES` clients, each submitting its next request when its
//! previous one completes. Every rate-limit client belongs to one lane, so
//! the order of one client's requests — and with it every 429 — is fixed
//! by the seed, and each status and body length can be checked against a
//! reference computed at generation time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufReader;
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use xdmod_chaos::DeterministicRng;

use super::{lat, Ctx, RepOut, Timed, Workload};
use crate::config::GatewayConfig;
use crate::etag::{format_etag, if_none_match};
use crate::gen::{log_uniform_sizes, random_text, shuffle, Zipf};
use crate::http::{json_string, read_request, HttpError, Request, Response};
use crate::limit::{AdmissionGate, RateDecision, RateLimiter};
use crate::metrics::Metrics;
use crate::pool::WorkerPool;
use crate::trace::{Collector, Span, Trace, ROOT};

/// Requests in one rep.
const REQUESTS: usize = 20_000;
/// Distinct rate-limit clients, drawn Zipf(1.1).
const CLIENTS: usize = 10_000;
/// Virtual milliseconds between consecutive requests. With the default
/// bucket (20 tokens, 10/s) this puts the Zipf head client about 2 % of
/// all requests over its rate.
const CLOCK_STEP_MS: u64 = 12;
/// One pool worker: with the generator thread that is one thread per core
/// of the 2-core sandbox. A second worker made three, and the cross-thread
/// latency measured the scheduler (`bench/README.md`, "Steadiness").
const WORKERS: usize = 1;
/// Closed-loop clients: requests outstanding at once. Twice the workers,
/// so a worker finishing a job finds the next one already queued.
const LANES: usize = 2;
const BODY_MIN: u64 = 256;
const BODY_MAX: u64 = 64 * 1024;

const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
/// Reply text: mostly plain, with the characters `json_string` escapes by
/// one extra byte each.
const REPLY_ALPHABET: &[u8] =
    b"abcdefghijklmnopqrstuvwxyz0123456789     ,.:-_[]{}abcdefghijklmnopqrstuvwxyz\"\\\n";

struct Req {
    raw: Vec<u8>,
    client: u32,
    now_ms: u64,
    /// Current version of the resource the request names.
    version: u64,
    /// Characters of canned reply a 200 carries.
    reply_len: usize,
    expect_status: u16,
    expect_body_len: usize,
}

struct Inputs {
    reqs: Vec<Req>,
    clients: Vec<String>,
    canned: String,
}

/// The admission valves, fresh for every rep so each rep starts from full
/// buckets at virtual time zero.
struct Valves {
    limiter: RateLimiter,
    gate: AdmissionGate,
}

struct Done {
    lane: usize,
    idx: usize,
    status: u16,
    body_len: usize,
    bytes_out: usize,
    start_ns: u64,
    end_ns: u64,
    spans: Vec<Span>,
}

/// Counts of the most recent rep, for the per-layer metrics.
#[derive(Default, Clone)]
struct Counts {
    parse_errors: u64,
    rate_limited: u64,
    not_modified: u64,
    admission_refused: u64,
    rejected: u64,
    bytes_in: u64,
    bytes_out: u64,
    tracked_clients: u64,
    busy_ns: u64,
    dispatch_ns: u64,
    wall_ns: u64,
}

pub struct GatewayMix {
    inputs: Arc<Inputs>,
    lanes: Vec<Vec<usize>>,
    config: GatewayConfig,
    pool: WorkerPool,
    last: Counts,
}

fn escapes(text: &str) -> usize {
    text.bytes()
        .filter(|b| matches!(b, b'"' | b'\\' | b'\n'))
        .count()
}

fn percent_encode(value: &str) -> String {
    let mut out = String::new();
    for b in value.bytes() {
        match b {
            b' ' => out.push_str("%20"),
            b'=' => out.push_str("%3D"),
            b'&' => out.push_str("%26"),
            b':' => out.push_str("%3A"),
            _ => out.push(b as char),
        }
    }
    out
}

/// Headers every well-formed request carries; the cookie pads the head to
/// 1–2 KiB as a browser session's would.
fn headers(rng: &mut DeterministicRng) -> String {
    let mut out = String::from(
        "Host: hub.xdmod.example.org\r\n\
         User-Agent: Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) \
         Chrome/120.0 Safari/537.36\r\n\
         Accept: application/json, text/plain, */*\r\n\
         Accept-Language: en-US,en;q=0.9\r\n\
         Referer: https://hub.xdmod.example.org/#main_tab_panel:metric_explorer\r\n",
    );
    let _ = write!(out, "X-Request-Id: {:016x}\r\n", rng.next_u64());
    let pad = rng.gen_range(700, 1700) as usize;
    let _ = write!(
        out,
        "Cookie: theme=dark; xdmod_session={:016x}{:016x}; prefs={}\r\n",
        rng.next_u64(),
        rng.next_u64(),
        random_text(rng, pad, ALNUM)
    );
    out
}

fn query_string(rng: &mut DeterministicRng) -> String {
    const NAMES: [&str; 12] = [
        "realm",
        "metric",
        "group_by",
        "start",
        "end",
        "filter",
        "aggregation",
        "dataset_type",
        "limit",
        "offset",
        "sort",
        "timeseries",
    ];
    let n = rng.gen_range(8, 13) as usize;
    let mut out = String::new();
    for name in NAMES.iter().take(n) {
        let len = rng.gen_range(4, 24) as usize;
        let value = random_text(rng, len, b"abcdefghijklmnop =:&0123456789");
        let _ = write!(
            out,
            "{}{name}={}",
            if out.is_empty() { "?" } else { "&" },
            percent_encode(&value)
        );
    }
    out
}

fn error_body_len(message: &str) -> usize {
    // {"error":"<message>"}
    message.len() + 12
}

/// A request the parser must refuse: its bytes, the status the gateway
/// answers, and the parser's reason (part of the error body).
fn malformed(rng: &mut DeterministicRng) -> (String, u16, &'static str) {
    let head = headers(rng);
    match rng.gen_range(0, 6) {
        0 => (
            format!("get /query HTTP/1.1\r\n{head}\r\n"),
            400,
            "bad method",
        ),
        1 => (
            format!("GET /query HTTP/9.9\r\n{head}\r\n"),
            400,
            "bad http version",
        ),
        2 => (
            format!("GET /query%zz HTTP/1.1\r\n{head}\r\n"),
            400,
            "bad path escape",
        ),
        3 => (
            format!("GET /query HTTP/1.1\r\n{head}no-colon-here\r\n\r\n"),
            400,
            "header without colon",
        ),
        4 => {
            let long = random_text(rng, 9000, ALNUM);
            (
                format!("GET /query?pad={long} HTTP/1.1\r\n{head}\r\n"),
                413,
                "line",
            )
        }
        _ => (
            format!("POST /login HTTP/1.1\r\n{head}Content-Length: 70000\r\n\r\n"),
            413,
            "body",
        ),
    }
}

/// Give every client one lane, balancing lanes greedily by request count,
/// and list each lane's requests in order.
fn assign_lanes(reqs: &[Req]) -> Vec<Vec<usize>> {
    let mut per_client: BTreeMap<u32, usize> = BTreeMap::new();
    for r in reqs {
        *per_client.entry(r.client).or_default() += 1;
    }
    let mut by_load: Vec<(u32, usize)> = per_client.into_iter().collect();
    by_load.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut lane_load = [0usize; LANES];
    let mut lane_of: BTreeMap<u32, usize> = BTreeMap::new();
    for (client, count) in by_load {
        let lane = (0..LANES).min_by_key(|l| lane_load[*l]).unwrap_or(0);
        lane_load[lane] += count;
        lane_of.insert(client, lane);
    }
    let mut lanes = vec![Vec::new(); LANES];
    for (i, r) in reqs.iter().enumerate() {
        lanes[lane_of[&r.client]].push(i);
    }
    lanes
}

/// The generator's own token buckets (`capacity` tokens, `refill` per
/// second, in milli-tokens): every request that parses takes a token at its
/// virtual time, and an empty bucket turns its expected outcome into a 429.
/// A client's requests keep their order within its lane, so this is the
/// order the gateway sees them in.
fn apply_rate_limit(reqs: &mut [Req], capacity: u64, refill: u64) {
    let capacity = capacity * 1000;
    let mut buckets: BTreeMap<u32, (u64, u64)> = BTreeMap::new(); // client -> (milli-tokens, last refill ms)
    for r in reqs
        .iter_mut()
        .filter(|r| !matches!(r.expect_status, 400 | 413))
    {
        let (tokens, last) = buckets.entry(r.client).or_insert((capacity, r.now_ms));
        *tokens = capacity.min(*tokens + (r.now_ms - *last) * refill);
        *last = r.now_ms;
        if *tokens >= 1000 {
            *tokens -= 1000;
        } else {
            r.expect_status = 429;
            r.expect_body_len = error_body_len("rate limit exceeded");
        }
    }
}

fn generate(seed: u64, config: &GatewayConfig) -> (Inputs, Vec<Vec<usize>>) {
    let mut rng = DeterministicRng::new(seed ^ 0x6761_7465_7761);
    let canned = random_text(&mut rng, BODY_MAX as usize, REPLY_ALPHABET);
    // canned_escapes[n]: escapes json_string adds to the first n characters.
    let mut canned_escapes = vec![0usize; canned.len() + 1];
    for (i, b) in canned.bytes().enumerate() {
        canned_escapes[i + 1] = canned_escapes[i] + usize::from(matches!(b, b'"' | b'\\' | b'\n'));
    }
    let clients: Vec<String> = (0..CLIENTS)
        .map(|i| format!("10.{}.{}.{}", i / 65536, (i / 256) % 256, i % 256))
        .collect();
    let zipf = Zipf::new(CLIENTS, 1.1);

    // The mix and the body sizes are exact for every seed; the seed
    // decides their order, the clients and the contents.
    let mut kinds: Vec<u64> = (0..REQUESTS as u64).map(|i| i % 100).collect();
    shuffle(&mut rng, &mut kinds);
    let body_sizes = log_uniform_sizes(&mut rng, REQUESTS, BODY_MIN, BODY_MAX);

    let mut reqs = Vec::with_capacity(REQUESTS);
    for (i, (kind, size)) in kinds.into_iter().zip(body_sizes).enumerate() {
        let size = size as usize;
        let client = zipf.sample(&mut rng) as u32;
        let version = rng.next_u64();
        // The outcome if the request is not rate limited.
        let (raw, status, body_len) = match kind {
            0..=2 => {
                let (raw, status, what) = malformed(&mut rng);
                let prefix = if status == 400 {
                    "malformed request: "
                } else {
                    "request too large: "
                };
                (raw, status, error_body_len(&format!("{prefix}{what}")))
            }
            3..=12 => {
                let body = random_text(&mut rng, size, REPLY_ALPHABET);
                let raw = format!(
                    "POST /login HTTP/1.1\r\n{}Content-Type: application/json\r\nContent-Length: {size}\r\n\r\n{body}",
                    headers(&mut rng)
                );
                // {"received":"<escaped body>"}
                (raw, 200, 12 + size + escapes(&body) + 2 + 1)
            }
            13..=37 => {
                let mut raw = format!(
                    "GET /query{} HTTP/1.1\r\n{}",
                    query_string(&mut rng),
                    headers(&mut rng)
                );
                let tag = format!("\"xd-{version:016x}\"");
                if rng.gen_range(0, 4) == 0 {
                    let _ = write!(
                        raw,
                        "If-None-Match: \"xd-{:016x}\", {tag}\r\n\r\n",
                        rng.next_u64()
                    );
                } else {
                    let _ = write!(raw, "If-None-Match: {tag}\r\n\r\n");
                }
                (raw, 304, 0)
            }
            _ => {
                let raw = format!(
                    "GET /query{} HTTP/1.1\r\n{}\r\n",
                    query_string(&mut rng),
                    headers(&mut rng)
                );
                // {"etag":"\"xd-<16 hex>\"","dataset":"<escaped reply>"}
                (raw, 200, 8 + 25 + 11 + size + canned_escapes[size] + 2 + 1)
            }
        };
        reqs.push(Req {
            raw: raw.into_bytes(),
            client,
            now_ms: i as u64 * CLOCK_STEP_MS,
            version,
            reply_len: size,
            expect_status: status,
            expect_body_len: body_len,
        });
    }
    let lanes = assign_lanes(&reqs);
    apply_rate_limit(&mut reqs, config.rate_capacity, config.rate_refill_per_sec);
    (
        Inputs {
            reqs,
            clients,
            canned,
        },
        lanes,
    )
}

/// `App::handle` past the parser, with the hub replaced by a canned reply.
fn route(
    inputs: &Inputs,
    valves: &Valves,
    req: &Req,
    request: &Request,
    tr: &mut Trace,
    op: u64,
) -> Response {
    let client = &inputs.clients[req.client as usize];
    let decision = tr.leaf("gateway.limit.rate", op, || {
        valves.limiter.check(client, req.now_ms)
    });
    if let RateDecision::Limited { retry_after_secs } = decision {
        return Response::error(429, "rate limit exceeded")
            .with_header("Retry-After", &retry_after_secs.to_string());
    }
    let Some(_permit) = tr.leaf("gateway.limit.admission", op, || valves.gate.try_acquire()) else {
        return Response::error(503, "gateway is saturated").with_header("Retry-After", "1");
    };
    if request.method != "GET" {
        let body = tr.leaf("gateway.http.body", op, || {
            format!("{{\"received\":{}}}", json_string(&request.body))
        });
        return Response::json(200, body);
    }
    let (etag, fresh) = tr.leaf("gateway.etag.match", op, || {
        let etag = format_etag(req.version);
        let fresh = request
            .header("if-none-match")
            .is_some_and(|candidates| if_none_match(candidates, req.version));
        (etag, fresh)
    });
    if fresh {
        return Response::not_modified(&etag);
    }
    let body = tr.leaf("gateway.http.body", op, || {
        format!(
            "{{\"etag\":{},\"dataset\":{}}}",
            json_string(&etag),
            json_string(&inputs.canned[..req.reply_len])
        )
    });
    Response::json(200, body).with_header("ETag", &etag)
}

/// `serve_connection`: parse, handle, serialize. Returns status, body
/// length and bytes written; status 0 when nothing was answered.
fn serve(inputs: &Inputs, valves: &Valves, idx: usize, tr: &mut Trace) -> (u16, usize, usize) {
    let req = &inputs.reqs[idx];
    let op = idx as u64;
    let mut reader = BufReader::new(&req.raw[..]);
    let response = match tr.leaf("gateway.http.parse", op, || read_request(&mut reader)) {
        Ok(request) => route(inputs, valves, req, &request, tr, op),
        Err(HttpError::Malformed(what)) => {
            Response::error(400, &format!("malformed request: {what}"))
        }
        Err(HttpError::TooLarge(what)) => {
            Response::error(413, &format!("request too large: {what}"))
        }
        Err(HttpError::ConnectionClosed | HttpError::Io(_)) => return (0, 0, 0),
    };
    let mut wire = Vec::new();
    if tr
        .leaf("gateway.http.serialize", op, || {
            response.write_to(&mut wire)
        })
        .is_err()
    {
        return (0, 0, 0);
    }
    (response.status, response.body.len(), wire.len())
}

/// Generator-side state of one rep.
struct RepState {
    valves: Arc<Valves>,
    tx: Sender<Done>,
    /// Next position in each lane's request list.
    cursor: Vec<usize>,
    /// When each lane's outstanding request was submitted.
    submit_ns: Vec<u64>,
    counts: Counts,
    failed: u64,
}

impl GatewayMix {
    /// Submit `lane`'s next request to the pool. A refusal fails that
    /// request and the lane moves on; false once the lane is exhausted.
    fn advance(&self, lane: usize, st: &mut RepState, ctx: &Ctx) -> bool {
        while st.cursor[lane] < self.lanes[lane].len() {
            let idx = self.lanes[lane][st.cursor[lane]];
            st.cursor[lane] += 1;
            let inputs = Arc::clone(&self.inputs);
            let valves = Arc::clone(&st.valves);
            let tx = st.tx.clone();
            let (trace_on, t0) = (ctx.trace_on, ctx.t0);
            st.submit_ns[lane] = ctx.now_ns();
            let sent = self.pool.try_execute(move || {
                let mut tr = Trace::new(trace_on, t0, 8);
                let start_ns = tr.now_ns();
                let (status, body_len, bytes_out) = serve(&inputs, &valves, idx, &mut tr);
                let end_ns = tr.now_ns();
                let _ = tx.send(Done {
                    lane,
                    idx,
                    status,
                    body_len,
                    bytes_out,
                    start_ns,
                    end_ns,
                    spans: tr.spans,
                });
            });
            st.counts.dispatch_ns += ctx.now_ns() - st.submit_ns[lane];
            if sent.is_ok() {
                return true;
            }
            st.counts.rejected += 1;
            st.failed += 1;
        }
        false
    }
}

impl Workload for GatewayMix {
    fn setup(seed: u64, _work: &Path) -> Self {
        let config = GatewayConfig::default().with_workers(WORKERS);
        let (inputs, lanes) = generate(seed, &config);
        let pool = WorkerPool::new(config.workers, config.queue_depth);
        let mut this = GatewayMix {
            inputs: Arc::new(inputs),
            lanes,
            config,
            pool,
            last: Counts::default(),
        };
        // Warm-up: one untimed rep fills allocator pools and page tables.
        this.rep(&mut Ctx::new());
        this
    }

    fn rep(&mut self, ctx: &mut Ctx) -> RepOut {
        let (tx, rx) = channel::<Done>();
        let mut st = RepState {
            valves: Arc::new(Valves {
                limiter: RateLimiter::new(
                    self.config.rate_capacity,
                    self.config.rate_refill_per_sec,
                ),
                gate: AdmissionGate::new(self.config.max_inflight),
            }),
            tx,
            cursor: vec![0; self.lanes.len()],
            submit_ns: vec![0; self.lanes.len()],
            counts: Counts::default(),
            failed: 0,
        };
        // Completed requests of a traced rep; folded into the collector
        // after the clock stops, so the generator stays out of the way.
        let mut traced: Vec<(u64, Done)> =
            Vec::with_capacity(if ctx.trace_on { REQUESTS } else { 0 });
        let mut timed = Timed::default();
        timed.start();
        let started = ctx.now_ns();

        let mut outstanding = 0;
        for lane in 0..self.lanes.len() {
            outstanding += u32::from(self.advance(lane, &mut st, ctx));
        }
        while outstanding > 0 {
            let waiting = ctx.now_ns();
            let Ok(done) = rx.recv() else { break };
            timed.program(ctx.now_ns() - waiting);
            let req = &self.inputs.reqs[done.idx];
            if done.status != req.expect_status || done.body_len != req.expect_body_len {
                st.failed += 1;
            }
            match done.status {
                400 | 413 => st.counts.parse_errors += 1,
                429 => st.counts.rate_limited += 1,
                503 => st.counts.admission_refused += 1,
                304 => st.counts.not_modified += 1,
                _ => {}
            }
            st.counts.bytes_in += req.raw.len() as u64;
            st.counts.bytes_out += done.bytes_out as u64;
            st.counts.busy_ns += done.end_ns - done.start_ns;
            let submitted = st.submit_ns[done.lane];
            ctx.lat_ns.push(lat(done.end_ns.saturating_sub(submitted)));
            let lane = done.lane;
            if ctx.trace_on {
                traced.push((submitted, done));
            }
            if !self.advance(lane, &mut st, ctx) {
                outstanding -= 1;
            }
        }
        timed.stop();
        timed.program(st.counts.dispatch_ns);
        st.counts.wall_ns = ctx.now_ns() - started;
        let mut group = Trace::new(ctx.trace_on, ctx.t0, 16);
        for (submitted, done) in traced {
            let op = done.idx as u64;
            let root = group.record("op", op, submitted, done.end_ns, ROOT);
            group.record("gateway.pool.queue", op, submitted, done.start_ns, root);
            group.adopt(root, done.spans);
            ctx.collector.absorb(&mut group);
        }
        let mut counts = st.counts;
        counts.tracked_clients = st.valves.limiter.tracked_clients() as u64;
        let payload_bytes = counts.bytes_in + counts.bytes_out;
        self.last = counts;
        timed.out(REQUESTS as u64, st.failed, payload_bytes)
    }

    fn layers(&mut self, spans: &Collector, _budget: Duration, m: &mut Metrics) {
        let ops = REQUESTS as f64;
        let c = &self.last;
        let parse = spans.get("gateway.http.parse");
        let body = spans.get("gateway.http.body");
        let serialize = spans.get("gateway.http.serialize");
        m.set("gateway.http.parse_ns", parse.mean_ns());
        m.set(
            "gateway.http.parse_share",
            spans.share("gateway.http.parse"),
        );
        m.set("gateway.http.parse_errors", c.parse_errors as f64);
        m.set("gateway.http.body_ns", body.mean_ns());
        m.set("gateway.http.body_share", spans.share("gateway.http.body"));
        m.set("gateway.http.serialize_ns", serialize.mean_ns());
        m.set(
            "gateway.http.serialize_share",
            spans.share("gateway.http.serialize"),
        );
        m.set("gateway.http.bytes_in", c.bytes_in as f64);
        m.set("gateway.http.bytes_out", c.bytes_out as f64);
        m.set(
            "gateway.http.allocs_per_req",
            (parse.allocs + body.allocs + serialize.allocs) as f64 / parse.count.max(1) as f64,
        );
        m.set(
            "gateway.limit.rate_check_ns",
            spans.get("gateway.limit.rate").mean_ns(),
        );
        m.set(
            "gateway.limit.rate_limited_share",
            c.rate_limited as f64 / ops,
        );
        m.set(
            "gateway.limit.admission_ns",
            spans.get("gateway.limit.admission").mean_ns(),
        );
        m.set(
            "gateway.limit.admission_refused",
            c.admission_refused as f64,
        );
        m.set("gateway.limit.tracked_clients", c.tracked_clients as f64);
        let queue = spans.get("gateway.pool.queue");
        m.set("gateway.pool.dispatch_ns", c.dispatch_ns as f64 / ops);
        m.set(
            "gateway.pool.queue_wait_p50_us",
            queue.quantile_ns(0.50) / 1e3,
        );
        m.set(
            "gateway.pool.queue_wait_p99_us",
            queue.quantile_ns(0.99) / 1e3,
        );
        m.set(
            "gateway.pool.request_p99_us",
            spans.get("op").quantile_ns(0.99) / 1e3,
        );
        m.set("gateway.pool.rejected", c.rejected as f64);
        m.set(
            "gateway.pool.worker_busy_share",
            c.busy_ns as f64 / (WORKERS as f64 * c.wall_ns.max(1) as f64),
        );
        m.set(
            "gateway.etag.match_ns",
            spans.get("gateway.etag.match").mean_ns(),
        );
        m.set(
            "gateway.etag.not_modified_share",
            c.not_modified as f64 / ops,
        );
    }
}
