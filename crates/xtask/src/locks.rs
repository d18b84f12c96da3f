//! The concurrency analysis: lock-order graph, guard-across-blocking,
//! cross-crate lock composition, and channel discipline.
//!
//! Consumes [`crate::model`] summaries and emits stable diagnostics in
//! the workspace finding format:
//!
//! - **XL0001 — lock-order inversion.** Replaying each function's
//!   events yields directed edges `A -> B` ("B acquired while A held"),
//!   both directly and through calls resolved one level deep. Any pair
//!   with both an `A -> B` and a `B -> A` edge anywhere in the
//!   workspace graph is a potential deadlock; the diagnostic prints
//!   both witness chains.
//! - **XL0002 — guard held across a blocking operation.** A lock guard
//!   alive at a `send`/`recv`, socket read/write, `thread::sleep`,
//!   condvar wait, or chaos fault-point call serializes every other
//!   thread behind an unbounded wait. Also fires when a *called*
//!   function (resolved in the same crate) is the one that blocks.
//! - **XL0003 — guard held across a cross-crate lock.** Calling into
//!   another crate that takes its own lock while holding one here is
//!   deadlock-by-composition waiting for the second edge to appear;
//!   each such site must be justified or restructured.
//! - **XL0004 — unbounded channel.** `mpsc::channel()` where the
//!   workspace convention is a bounded `sync_channel` (backpressure at
//!   the accept queue, not OOM under load).
//!
//! Every diagnostic is suppressible with `// xc-allow: <reason>` on the
//! flagged line or a comment-only line directly above it (for XL0001:
//! on either witness's acquisition site) — the lint's own
//! [`crate::allowed_at`]. Call resolution is name-based and deliberately
//! conservative: a callee resolves only when its name is defined in
//! exactly one workspace crate, by at most three functions, and is not
//! a ubiquitous method name (`get`, `insert`, ...).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::model::{self, Event, FnSummary, Mode, Workspace};
use xdmod_check::json::escape;

/// Stable diagnostic codes for the concurrency analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XlCode {
    /// AB/BA lock acquisition cycle.
    LockOrder,
    /// Guard held across a blocking operation.
    GuardAcrossBlocking,
    /// Guard held across a call into another crate that locks.
    CrossCrateLock,
    /// Unbounded `mpsc::channel()` against workspace convention.
    UnboundedChannel,
}

impl XlCode {
    /// The stable identifier (`XL0001`..`XL0004`).
    pub fn ident(self) -> &'static str {
        match self {
            XlCode::LockOrder => "XL0001",
            XlCode::GuardAcrossBlocking => "XL0002",
            XlCode::CrossCrateLock => "XL0003",
            XlCode::UnboundedChannel => "XL0004",
        }
    }
}

impl fmt::Display for XlCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.ident())
    }
}

/// One analyzer diagnostic.
#[derive(Debug, Clone)]
pub struct Diag {
    /// Which analysis fired.
    pub code: XlCode,
    /// Workspace-relative file of the primary location.
    pub path: String,
    /// 1-based line of the primary location.
    pub line: usize,
    /// One-line description.
    pub message: String,
    /// Witness chains / held-guard details.
    pub notes: Vec<String>,
    /// `(path, line)` sites where an `xc-allow` suppresses this diag.
    pub anchors: Vec<(String, usize)>,
}

impl Diag {
    /// Render as one rustc-style text block (same shape as
    /// `xdmod-check`).
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "error[{}]: {}\n  --> {}:{}\n",
            self.code, self.message, self.path, self.line
        );
        for note in &self.notes {
            out.push_str(&format!("  = note: {note}\n"));
        }
        out
    }

    /// Render as a JSON object (parity with `xdmod-check --json`).
    pub fn render_json(&self) -> String {
        let notes: Vec<String> = self.notes.iter().map(|n| escape(n)).collect();
        format!(
            "{{\"code\":\"{}\",\"path\":{},\"line\":{},\"message\":{},\"notes\":[{}]}}",
            self.code.ident(),
            escape(&self.path),
            self.line,
            escape(&self.message),
            notes.join(",")
        )
    }
}

/// Result of an analysis run.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Unsuppressed diagnostics, ordered by (path, line, code).
    pub diags: Vec<Diag>,
    /// Diagnostics silenced by `xc-allow` markers.
    pub suppressed: usize,
}

impl Analysis {
    /// Render all diagnostics as a JSON array.
    pub fn render_json(&self) -> String {
        let items: Vec<String> = self.diags.iter().map(Diag::render_json).collect();
        format!("[{}]", items.join(","))
    }
}

/// Method names too generic to resolve by name: resolving `get` to a
/// random workspace function would drown the analysis in false edges.
#[rustfmt::skip]
const COMMON_NAMES: &[&str] = &[
    "new", "clone", "insert", "get", "get_mut", "len", "push", "pop", "iter", "iter_mut",
    "into_iter", "next", "map", "and_then", "then", "unwrap_or_else", "unwrap_or", "ok", "err",
    "to_owned", "to_string", "into", "from", "as_ref", "as_str", "as_bytes", "collect", "retain",
    "clear", "contains", "contains_key", "remove", "drain", "extend", "join", "expect", "unwrap",
    "is_empty", "is_some", "is_none", "is_ok", "is_err", "fmt", "eq", "ne", "cmp", "partial_cmp",
    "hash", "default", "drop", "write", "read", "lock", "min", "max", "abs", "find", "filter",
    "position", "any", "all", "fold", "rev", "take", "skip", "chain", "zip", "count", "last",
    "first", "sort", "sort_by", "sort_by_key", "split", "trim", "starts_with", "ends_with",
    "replace", "parse", "keys", "values", "entry", "or_insert", "or_insert_with", "with_capacity",
    "reserve", "spawn", "elapsed", "now", "load", "store", "fetch_add", "swap",
    "compare_exchange", "name", "id", "kind", "path", "line", "code", "message",
];

/// Analyze `(rel_path, text)` sources. Test code never contributes.
pub fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let ws = model::extract(files);
    let lines: BTreeMap<&str, Vec<&str>> = files
        .iter()
        .map(|(p, t)| (p.as_str(), t.lines().collect()))
        .collect();
    run(&ws, &lines)
}

/// A lock-order edge witness: where A was held and B acquired.
#[derive(Debug, Clone)]
struct Witness {
    fn_qual: String,
    file: String,
    first_line: usize,
    second_line: usize,
    via_call: Option<String>,
}

struct HeldGuard {
    idx: usize,
    lock: String,
    mode: Mode,
    line: usize,
}

fn run(ws: &Workspace, lines: &BTreeMap<&str, Vec<&str>>) -> Analysis {
    // Name index for one-level call resolution.
    let mut by_name: BTreeMap<&str, Vec<&FnSummary>> = BTreeMap::new();
    for f in ws.fns.iter().filter(|f| !f.is_test) {
        by_name.entry(f.name.as_str()).or_default().push(f);
    }
    let resolve = |callee: &str, caller: &FnSummary| -> Vec<&FnSummary> {
        if COMMON_NAMES.contains(&callee) || callee == caller.name {
            return Vec::new();
        }
        let Some(cands) = by_name.get(callee) else {
            return Vec::new();
        };
        if cands.is_empty() || cands.len() > 3 {
            return Vec::new();
        }
        let crate0 = &cands[0].crate_name;
        if !cands.iter().all(|c| &c.crate_name == crate0) {
            return Vec::new();
        }
        cands.clone()
    };

    let mut edges: BTreeMap<(String, String), Witness> = BTreeMap::new();
    let mut raw_diags: Vec<Diag> = Vec::new();

    for f in ws.fns.iter().filter(|f| !f.is_test) {
        let mut held: Vec<HeldGuard> = Vec::new();
        for ev in &f.events {
            match ev {
                Event::Acquire {
                    idx,
                    path,
                    mode,
                    line,
                    ..
                } => {
                    let id = lock_id(f, path);
                    for h in &held {
                        if h.lock != id {
                            edges
                                .entry((h.lock.clone(), id.clone()))
                                .or_insert(Witness {
                                    fn_qual: format!("{}::{}", f.crate_name, f.qual_name()),
                                    file: f.file.clone(),
                                    first_line: h.line,
                                    second_line: *line,
                                    via_call: None,
                                });
                        }
                    }
                    held.push(HeldGuard {
                        idx: *idx,
                        lock: id,
                        mode: *mode,
                        line: *line,
                    });
                }
                Event::Release { idx, .. } => {
                    held.retain(|h| h.idx != *idx);
                }
                Event::Blocking { what, line } => {
                    if !held.is_empty() {
                        raw_diags.push(blocking_diag(f, &held, what, *line, None));
                    }
                }
                Event::Call { callee, line } => {
                    let targets = resolve(callee, f);
                    if targets.is_empty() {
                        continue;
                    }
                    if held.is_empty() {
                        continue;
                    }
                    // Held-lock set propagates one level into the callee.
                    let mut callee_locks: BTreeSet<(String, String, usize)> = BTreeSet::new();
                    let mut callee_blocks: Option<(String, String, usize)> = None;
                    for t in &targets {
                        for ev in t.direct_acquires() {
                            if let Event::Acquire {
                                path, line: aline, ..
                            } = ev
                            {
                                callee_locks.insert((lock_id(t, path), t.file.clone(), *aline));
                            }
                        }
                        if callee_blocks.is_none() {
                            if let Some(Event::Blocking { what, line: bline }) = t
                                .events
                                .iter()
                                .find(|e| matches!(e, Event::Blocking { .. }))
                            {
                                callee_blocks = Some((what.clone(), t.file.clone(), *bline));
                            }
                        }
                    }
                    for (lid, tfile, tline) in &callee_locks {
                        for h in &held {
                            if &h.lock != lid {
                                edges
                                    .entry((h.lock.clone(), lid.clone()))
                                    .or_insert(Witness {
                                        fn_qual: format!("{}::{}", f.crate_name, f.qual_name()),
                                        file: f.file.clone(),
                                        first_line: h.line,
                                        second_line: *line,
                                        via_call: Some(format!("{callee}() -> {tfile}:{tline}")),
                                    });
                            }
                        }
                    }
                    // Cross-crate composition: the callee lives in
                    // another crate and takes its own lock.
                    let foreign: Vec<&&FnSummary> = targets
                        .iter()
                        .filter(|t| {
                            t.crate_name != f.crate_name && t.direct_acquires().next().is_some()
                        })
                        .collect();
                    if let Some(t) = foreign.first() {
                        let callee_site = t
                            .direct_acquires()
                            .find_map(|e| match e {
                                Event::Acquire { line, path, .. } => {
                                    Some(format!("{}:{} (`{}`)", t.file, line, path))
                                }
                                _ => None,
                            })
                            .unwrap_or_default();
                        let held_desc = held_description(&held);
                        raw_diags.push(Diag {
                            code: XlCode::CrossCrateLock,
                            path: f.file.clone(),
                            line: *line,
                            message: format!(
                                "guard held across call into crate `{}`: `{}::{}` calls \
                                 `{}::{}` which acquires a lock",
                                t.crate_name,
                                f.crate_name,
                                f.qual_name(),
                                t.crate_name,
                                t.qual_name()
                            ),
                            notes: vec![
                                format!("held here: {held_desc}"),
                                format!("callee acquires at {callee_site}"),
                            ],
                            anchors: vec![(f.file.clone(), *line)],
                        });
                    }
                    // Same-crate callee that blocks: the guard is still
                    // held across the blocking op, one level deep.
                    if let Some((what, tfile, tline)) = callee_blocks {
                        raw_diags.push(blocking_diag(
                            f,
                            &held,
                            &what,
                            *line,
                            Some(format!("via {callee}() -> {tfile}:{tline}")),
                        ));
                    }
                }
                Event::UnboundedChannel { line } => {
                    raw_diags.push(Diag {
                        code: XlCode::UnboundedChannel,
                        path: f.file.clone(),
                        line: *line,
                        message: format!(
                            "unbounded `channel()` in `{}::{}`; workspace convention is a \
                             bounded `sync_channel` (backpressure, not OOM, under load)",
                            f.crate_name,
                            f.qual_name()
                        ),
                        notes: Vec::new(),
                        anchors: vec![(f.file.clone(), *line)],
                    });
                }
            }
        }
    }

    // Lock-order inversions: both directions present anywhere.
    let mut seen_pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for ((a, b), wit_ab) in &edges {
        if a >= b {
            continue;
        }
        let Some(wit_ba) = edges.get(&(b.clone(), a.clone())) else {
            continue;
        };
        if !seen_pairs.insert((a.clone(), b.clone())) {
            continue;
        }
        raw_diags.push(Diag {
            code: XlCode::LockOrder,
            path: wit_ab.file.clone(),
            line: wit_ab.second_line,
            message: format!("lock-order inversion between `{a}` and `{b}`"),
            notes: vec![witness_note(a, b, wit_ab), witness_note(b, a, wit_ba)],
            anchors: vec![
                (wit_ab.file.clone(), wit_ab.second_line),
                (wit_ba.file.clone(), wit_ba.second_line),
            ],
        });
    }

    // Deduplicate (a blocking op inside a loop replays once per event),
    // then split by suppression.
    let mut seen: BTreeSet<(String, String, usize)> = BTreeSet::new();
    let mut out = Analysis::default();
    raw_diags
        .sort_by(|x, y| (&x.path, x.line, x.code.ident()).cmp(&(&y.path, y.line, y.code.ident())));
    for d in raw_diags {
        if !seen.insert((d.code.ident().to_owned(), d.path.clone(), d.line)) {
            continue;
        }
        if d.anchors.iter().any(|(p, l)| {
            lines
                .get(p.as_str())
                .is_some_and(|lines| crate::allowed_at(lines, *l))
        }) {
            out.suppressed += 1;
        } else {
            out.diags.push(d);
        }
    }
    out
}

fn witness_note(first: &str, second: &str, w: &Witness) -> String {
    let via = match &w.via_call {
        Some(v) => format!(" (via {v})"),
        None => String::new(),
    };
    format!(
        "`{}` holds `{first}` (acquired {}:{}) then takes `{second}` at {}:{}{via}",
        w.fn_qual, w.file, w.first_line, w.file, w.second_line
    )
}

fn held_description(held: &[HeldGuard]) -> String {
    held.iter()
        .map(|h| format!("`{}` ({} at line {})", h.lock, h.mode.as_str(), h.line))
        .collect::<Vec<_>>()
        .join(", ")
}

fn blocking_diag(
    f: &FnSummary,
    held: &[HeldGuard],
    what: &str,
    line: usize,
    via: Option<String>,
) -> Diag {
    let mut notes = vec![format!("held here: {}", held_description(held))];
    if let Some(v) = via {
        notes.push(v);
    }
    Diag {
        code: XlCode::GuardAcrossBlocking,
        path: f.file.clone(),
        line,
        message: format!(
            "lock guard held across blocking `{what}` in `{}::{}`",
            f.crate_name,
            f.qual_name()
        ),
        notes,
        anchors: vec![(f.file.clone(), line)],
    }
}

/// Global lock identity from a function-local receiver path.
fn lock_id(f: &FnSummary, path: &str) -> String {
    if let Some(rest) = path.strip_prefix("self.") {
        let owner = f.impl_ty.clone().unwrap_or_else(|| f.name.clone());
        format!("{}::{owner}::{rest}", f.crate_name)
    } else {
        format!("{}::{}::{path}", f.crate_name, f.qual_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Analysis {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, t)| ((*p).to_owned(), (*t).to_owned()))
            .collect();
        analyze_sources(&owned)
    }

    fn codes(a: &Analysis) -> Vec<&'static str> {
        a.diags.iter().map(|d| d.code.ident()).collect()
    }

    #[test]
    fn ab_ba_inversion_detected_with_witnesses() {
        let src = r#"
impl Store {
    pub fn ab(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        use_them(&a, &b);
    }
    pub fn ba(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        use_them(&a, &b);
    }
}
"#;
        let a = analyze(&[("crates/core/src/s.rs", src)]);
        assert_eq!(codes(&a), vec!["XL0001"]);
        let d = &a.diags[0];
        assert!(d.message.contains("core::Store::alpha"));
        assert!(d.message.contains("core::Store::beta"));
        assert_eq!(d.notes.len(), 2, "both witness chains: {d:?}");
        assert!(d.notes[0].contains("crates/core/src/s.rs:"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = r#"
impl Store {
    pub fn one(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        use_them(&a, &b);
    }
    pub fn two(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        use_them(&a, &b);
    }
}
"#;
        let a = analyze(&[("crates/core/src/s.rs", src)]);
        assert!(a.diags.is_empty(), "{:?}", a.diags);
    }

    #[test]
    fn inversion_through_call_one_level() {
        let src = r#"
impl Store {
    pub fn outer_path(&self) {
        let a = self.alpha.lock();
        self.take_beta_first();
        drop(a);
    }
    pub fn take_beta_first(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        use_them(&a, &b);
    }
}
"#;
        // outer_path holds alpha and calls take_beta_first, which takes
        // beta (edge alpha->beta via call) and then alpha after beta
        // (edge beta->alpha directly): inversion.
        let a = analyze(&[("crates/core/src/s.rs", src)]);
        assert!(codes(&a).contains(&"XL0001"), "{:?}", a.diags);
    }

    #[test]
    fn guard_across_recv_detected() {
        let src = r#"
impl Pool {
    pub fn drain(&self) {
        let q = self.queue.lock();
        let job = self.rx.recv();
        run(q, job);
    }
}
"#;
        let a = analyze(&[("crates/gateway/src/p.rs", src)]);
        assert_eq!(codes(&a), vec!["XL0002"]);
        assert!(a.diags[0].notes[0].contains("gateway::Pool::queue"));
    }

    #[test]
    fn blocking_after_release_is_clean() {
        let src = r#"
impl Pool {
    pub fn drain(&self) {
        let job = { let mut q = self.queue.lock(); q.pop() };
        let more = self.rx.recv();
        run(job, more);
    }
}
"#;
        let a = analyze(&[("crates/gateway/src/p.rs", src)]);
        assert!(a.diags.is_empty(), "{:?}", a.diags);
    }

    #[test]
    fn cross_crate_lock_composition_detected() {
        let hub = r#"
impl Hub {
    pub fn refresh(&self) {
        let db = self.db.write();
        invalidate_aggregates(&db);
    }
}
"#;
        let wh = r#"
pub fn invalidate_aggregates(db: &Database) {
    let mut entries = self.cache.lock();
    entries.clear();
}
"#;
        let a = analyze(&[
            ("crates/core/src/hub.rs", hub),
            ("crates/warehouse/src/cache.rs", wh),
        ]);
        assert!(codes(&a).contains(&"XL0003"), "{:?}", a.diags);
    }

    #[test]
    fn unbounded_channel_flagged_outside_tests_only() {
        let src = r#"
pub fn build() {
    let (tx, rx) = channel();
    use_it(tx, rx);
}
#[cfg(test)]
mod tests {
    fn t() {
        let (tx, rx) = channel();
    }
}
"#;
        let a = analyze(&[("crates/gateway/src/c.rs", src)]);
        assert_eq!(codes(&a), vec!["XL0004"]);
        assert_eq!(a.diags[0].line, 3);
    }

    #[test]
    fn xc_allow_suppresses_each_code() {
        let src = r#"
impl Pool {
    pub fn drain(&self) {
        let q = self.queue.lock();
        // xc-allow: queue handoff is bounded by the pool soak test
        let job = self.rx.recv();
        run(q, job);
    }
    pub fn build(&self) {
        let (tx, rx) = channel(); // xc-allow: feeds a drop-ok debug tap
        use_it(tx, rx);
    }
}
"#;
        let a = analyze(&[("crates/gateway/src/p.rs", src)]);
        assert!(a.diags.is_empty(), "{:?}", a.diags);
        assert_eq!(a.suppressed, 2);
    }

    #[test]
    fn bare_allow_does_not_suppress() {
        // The marker is assembled so this file never contains a literal
        // reasonless marker (the R-series `bare-allow` lint scans raw
        // lines, fixture strings included).
        let marker = concat!("xc-", "allow");
        let src = format!(
            "impl Pool {{\n    pub fn drain(&self) {{\n        let q = self.queue.lock();\n        let job = self.rx.recv(); // {marker}:\n        run(q, job);\n    }}\n}}\n"
        );
        let a = analyze(&[("crates/gateway/src/p.rs", &src)]);
        assert_eq!(codes(&a), vec!["XL0002"]);
    }

    #[test]
    fn test_code_is_ignored_entirely() {
        let src = r#"
#[cfg(test)]
mod tests {
    fn t(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        self.rx.recv();
    }
    fn u(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
    }
}
"#;
        let a = analyze(&[("crates/core/src/s.rs", src)]);
        assert!(a.diags.is_empty(), "{:?}", a.diags);
    }

    #[test]
    fn json_rendering_is_wellformed() {
        let src = r#"
impl Pool {
    pub fn drain(&self) {
        let q = self.queue.lock();
        let job = self.rx.recv();
        run(q, job);
    }
}
"#;
        let a = analyze(&[("crates/gateway/src/p.rs", src)]);
        let json = a.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"code\":\"XL0002\""));
        assert!(json.contains("\"line\":5"));
        // Balanced quotes: even count.
        assert_eq!(json.matches('"').count() % 2, 0);
    }

    #[test]
    fn read_read_same_lock_no_self_edge() {
        let src = r#"
impl Hub {
    pub fn compare(&self) {
        let a = self.db.read();
        let b = self.db.read();
        diff(&a, &b);
    }
}
"#;
        let a = analyze(&[("crates/core/src/h.rs", src)]);
        assert!(a.diags.is_empty(), "{:?}", a.diags);
    }
}
