//! Workspace static gates over one Rust front end.
//!
//! Both subcommands read the same token stream ([`lex`]) and the same
//! scope walk ([`model::scan`]), which decides once what is test code:
//! `#[cfg(test)]` / `#[cfg(any(test, ..))]` items (modules, impls,
//! functions, any other braced item) and `#[test]` functions, but not
//! `#[cfg(not(test))]`. Comments and literal contents never reach a
//! rule, because the lexer drops them.
//!
//! `xtask lint` enforces three invariants over `crates/*/src/**/*.rs`
//! and `src/**/*.rs` (test files under `tests/`/`benches/`/`examples/`
//! are out of scope by construction, and test code inside source files
//! is skipped):
//!
//! - **R1 `no-unwrap`** — no `.unwrap()`, `.expect(...)`, or `panic!`
//!   in non-test code. Every such call is a latent federation outage:
//!   a poisoned lock or absent table must surface as a typed error, not
//!   a crashed replication thread.
//! - **R2 `hot-path-lock`** — no `.lock().unwrap()` / `.lock().expect(`
//!   in the replication / warehouse / telemetry crates, *even where R1
//!   is allowlisted*: those paths run on every poll tick and must
//!   recover from poisoning (`unwrap_or_else(PoisonError::into_inner)`).
//! - **R3 `untraced-query`** — every public query entry point in
//!   `warehouse/src/database.rs` and `core/src/hub.rs` must reference
//!   the telemetry layer (span / timer / counter); a query path that
//!   bypasses telemetry is invisible to the Ops dashboard.
//!
//! R1 and R2 are token patterns reported once per line; R3 reads the
//! function items of the scope walk. A finding is suppressed by
//! `// xc-allow: <reason>` on the flagged line or on a comment-only
//! line directly above it ([`allowed_at`], which the analyzer shares).
//! The reason is mandatory — a bare `xc-allow:` suppresses nothing and
//! is itself a finding.
//!
//! `xtask analyze` runs the static *concurrency* analyzer ([`model`] →
//! [`locks`]): per-function summaries of lock acquisitions and guard
//! lifetimes feed an interprocedural lock-order graph, emitting stable
//! diagnostics XL0001 (lock-order inversion), XL0002 (guard across a
//! blocking op), XL0003 (guard across a cross-crate lock), and XL0004
//! (unbounded channel). See the module docs of [`locks`] for the model.

pub mod lex;
pub mod locks;
pub mod model;

pub use locks::{analyze_sources, Analysis, Diag, XlCode};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lex::{Tok, Token};
use xdmod_check::json::escape;

/// Which invariant a finding violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// R1: `.unwrap()` / `.expect(` / `panic!(` outside test code.
    NoUnwrap,
    /// R2: `.lock().unwrap()` / `.lock().expect(` on a hot-path crate.
    HotPathLock,
    /// R3: public query entry point with no telemetry reference.
    UntracedQuery,
    /// `xc-allow:` marker without a reason.
    BareAllow,
}

impl Rule {
    /// Short stable identifier used in output.
    pub fn ident(self) -> &'static str {
        match self {
            Rule::NoUnwrap => "no-unwrap",
            Rule::HotPathLock => "hot-path-lock",
            Rule::UntracedQuery => "untraced-query",
            Rule::BareAllow => "bare-allow",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.ident())
    }
}

/// One lint violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-oriented description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

impl Finding {
    /// Render as a JSON object (parity with `xdmod-check --json`).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"path\":{},\"line\":{},\"message\":{}}}",
            self.rule.ident(),
            escape(&self.path),
            self.line,
            escape(&self.message)
        )
    }
}

/// Render lint findings as a JSON array (for `xtask lint --json`).
pub fn findings_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings.iter().map(Finding::render_json).collect();
    format!("[{}]", items.join(","))
}

/// Crates whose runtime paths hold locks on every poll tick or every
/// request (R2 scope). `gateway` runs per-request lock paths (session
/// table, rate-limit buckets, the federation RwLock) and `alerts` is
/// pumped from the supervisor tick — a poisoned lock in either stalls
/// the serving tier, so both recover instead of unwrapping.
const HOT_PATH_CRATES: &[&str] = &["replication", "warehouse", "telemetry", "gateway", "alerts"];

/// Crates exempt from R1: `bench` is the workspace's experiment /
/// figure-reproduction harness — the moral equivalent of `benches/`,
/// where `expect()` on setup I/O is the idiom. R2/R3 still apply.
const R1_EXEMPT_CRATES: &[&str] = &["bench"];

/// Files whose public `*query*` functions must reference telemetry (R3).
const TRACED_QUERY_FILES: &[&str] = &["crates/warehouse/src/database.rs", "crates/core/src/hub.rs"];

/// Substrings that count as "references the telemetry layer".
const TELEMETRY_MARKERS: &[&str] = &["span", "timer", "counter", "observe", "telemetry"];

/// R1 token patterns, in message priority order: a line matching more
/// than one reports the first. Each entry spells one token; `a|b`
/// accepts either.
const R1_PATTERNS: &[(&[&str], &str)] = &[
    (&[".", "unwrap", "(", ")"], "unwrap()"),
    (&[".", "expect", "("], "expect()"),
    (&["panic", "!", "("], "panic!"),
];

/// R2: `.lock()`, and the RwLock forms `.read()`/`.write()` the
/// gateway's per-request paths use, unwrapped.
const R2_PATTERN: &[&str] = &[".", "lock|read|write", "(", ")", ".", "unwrap|expect"];

/// If the tokens from `i` spell `pat`, the line the match ends on.
fn match_at(toks: &[Token], i: usize, pat: &[&str]) -> Option<usize> {
    let run = toks.get(i..i + pat.len())?;
    let spells = |t: &Token, p: &str| {
        p.split('|').any(|alt| match &t.kind {
            Tok::Ident(s) => s == alt,
            Tok::Punct(c) => alt.chars().eq([*c]),
            _ => false,
        })
    };
    run.iter()
        .zip(pat)
        .all(|(t, p)| spells(t, p))
        .then(|| run[run.len() - 1].line)
}

/// Is 1-based `line` suppressed by a reasoned `xc-allow:` marker on the
/// line itself or on a comment-only line directly above it?
pub fn allowed_at(lines: &[&str], line: usize) -> bool {
    let reasoned = |l: &&str| {
        l.split("xc-allow:")
            .nth(1)
            .is_some_and(|reason| !reason.trim().is_empty())
    };
    let at = |n: usize| n.checked_sub(1).and_then(|i| lines.get(i));
    at(line).is_some_and(reasoned)
        || at(line.saturating_sub(1))
            .is_some_and(|l| l.trim_start().starts_with("//") && reasoned(l))
}

/// Lint one source file's text. `rel_path` is workspace-relative and
/// decides which crate-specific rules apply.
pub fn lint_source(rel_path: &str, text: &str) -> Vec<Finding> {
    let crate_name = model::crate_of(rel_path);
    let hot_path = HOT_PATH_CRATES.contains(&crate_name.as_str());
    let r1_exempt = R1_EXEMPT_CRATES.contains(&crate_name.as_str());
    let lines: Vec<&str> = text.lines().collect();
    let toks = lex::lex(text);
    let scan = model::scan(&toks);

    // Per line: the first R1 pattern that matched, and whether R2 did.
    let mut r1: BTreeMap<usize, usize> = BTreeMap::new();
    let mut r2: BTreeSet<usize> = BTreeSet::new();
    for i in (0..toks.len()).filter(|&i| !scan.test[i]) {
        for (p, (pat, _)) in R1_PATTERNS.iter().enumerate() {
            if let Some(line) = match_at(&toks, i, pat) {
                let first = r1.entry(line).or_insert(p);
                *first = (*first).min(p);
            }
        }
        r2.extend(match_at(&toks, i, R2_PATTERN));
    }

    let finding = |rule, line, message| Finding {
        rule,
        path: rel_path.to_owned(),
        line,
        message,
    };
    let mut findings = Vec::new();
    for (line, raw) in (1..).zip(&lines) {
        if raw
            .split("xc-allow")
            .nth(1)
            .is_some_and(|rest| rest.trim_start_matches(':').trim().is_empty())
        {
            findings.push(finding(
                Rule::BareAllow,
                line,
                "xc-allow marker without a reason; write `// xc-allow: <why>`".to_owned(),
            ));
        }
        if let Some(&p) = r1.get(&line) {
            if !r1_exempt && !allowed_at(&lines, line) {
                let what = R1_PATTERNS[p].1;
                findings.push(finding(
                    Rule::NoUnwrap,
                    line,
                    format!(
                        "{what} in non-test code; return a typed error \
                         (or justify with `// xc-allow: <why>`)"
                    ),
                ));
            }
        }
        // Deliberately NOT suppressible via xc-allow: poisoning on a
        // poll-tick path must be recovered, never unwrapped.
        if hot_path && r2.contains(&line) {
            findings.push(finding(
                Rule::HotPathLock,
                line,
                format!(
                    "lock()/read()/write() unwrap/expect on hot-path crate `{crate_name}`; \
                     use .unwrap_or_else(PoisonError::into_inner)"
                ),
            ));
        }
    }

    // R3: search the raw lines from `fn` to the closing brace, because
    // metric names live in string literals.
    if TRACED_QUERY_FILES.contains(&rel_path) {
        for item in &scan.items {
            if !item.is_pub || item.is_test || !item.name.contains("query") {
                continue;
            }
            let end = toks.get(item.body.end).map_or(lines.len(), |t| t.line);
            let traced = lines[item.line - 1..end].iter().any(|l| {
                let l = l.to_lowercase();
                TELEMETRY_MARKERS.iter().any(|m| l.contains(m))
            });
            if !traced {
                findings.push(finding(
                    Rule::UntracedQuery,
                    item.line,
                    "public query entry point has no telemetry span/counter; \
                     every query path must be visible to the Ops dashboard"
                        .to_owned(),
                ));
            }
        }
    }
    findings
}

/// Lint `(rel_path, text)` sources, in order.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    files
        .iter()
        .flat_map(|(rel, text)| lint_source(rel, text))
        .collect()
}

/// Read every source both gates cover — each `.rs` under
/// `crates/*/src` and under the top-level `src/` — as
/// `(workspace-relative path, text)` in path order.
pub fn read_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut paths = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for dir in fs::read_dir(&crates_dir)?.filter_map(|e| e.ok()) {
            collect_rs(&dir.path().join("src"), &mut paths)?;
        }
    }
    collect_rs(&root.join("src"), &mut paths)?;
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let rel = rel.to_string_lossy().replace('\\', "/");
            Ok((rel, fs::read_to_string(&path)?))
        })
        .collect()
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for path in fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()) {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the full lint over a workspace root. Returns all findings.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_sources(&read_sources(root)?))
}

/// Analyze every lint-scope source file under a workspace root.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    Ok(analyze_sources(&read_sources(root)?))
}

/// Ascend from `start` to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and `crates/`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_unwrap_outside_tests() {
        let src = "pub fn f() {\n    let x = maybe().unwrap();\n}\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn skips_cfg_test_regions() {
        let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        maybe().unwrap();\n        panic!(\"x\");\n    }\n}\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn code_after_test_region_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { maybe().unwrap(); }\n}\n\npub fn g() { maybe().unwrap(); }\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 6);
    }

    #[test]
    fn xc_allow_with_reason_suppresses_same_and_next_line() {
        let same = "fn f() { x.unwrap(); } // xc-allow: startup, cannot fail\n";
        assert!(lint_source("crates/core/src/a.rs", same).is_empty());
        let above = "// xc-allow: startup, cannot fail\nfn f() { x.unwrap(); }\n";
        assert!(lint_source("crates/core/src/a.rs", above).is_empty());
    }

    #[test]
    fn bare_xc_allow_is_itself_a_finding() {
        let src = "fn f() { x.unwrap(); } // xc-allow:\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert!(rules(&f).contains(&Rule::BareAllow));
    }

    #[test]
    fn comments_and_strings_do_not_trigger() {
        let src = "fn f() {\n    // calls .unwrap() internally\n    let s = \"panic!(boom) .unwrap()\";\n    let r = r#\".expect(nothing)\"#;\n    drop((s, r));\n}\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_fine() {
        let src = "fn f() { m.lock().unwrap_or_else(std::sync::PoisonError::into_inner); }\n";
        assert!(lint_source("crates/replication/src/a.rs", src).is_empty());
    }

    #[test]
    fn hot_path_lock_flagged_even_with_allow() {
        let src = "fn f() { m.lock().unwrap(); } // xc-allow: trust me\n";
        let f = lint_source("crates/replication/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::HotPathLock]);
        // Same pattern in a cold crate with an allow: suppressed.
        assert!(lint_source("crates/chart/src/a.rs", src).is_empty());
    }

    #[test]
    fn lock_expect_on_hot_path_flagged() {
        let src = "fn f() { m.lock().expect(\"poisoned\"); }\n";
        let f = lint_source("crates/telemetry/src/a.rs", src);
        assert!(rules(&f).contains(&Rule::HotPathLock));
    }

    #[test]
    fn gateway_and_alerts_are_hot_path_crates() {
        let src = "fn f() { m.lock().unwrap(); } // xc-allow: trust me\n";
        for path in ["crates/gateway/src/a.rs", "crates/alerts/src/a.rs"] {
            let f = lint_source(path, src);
            assert_eq!(rules(&f), vec![Rule::HotPathLock], "{path}");
        }
    }

    #[test]
    fn rwlock_unwrap_on_hot_path_flagged() {
        let read = "fn f() { fed.read().unwrap(); }\n";
        let write = "fn f() { fed.write().expect(\"poisoned\"); }\n";
        assert!(rules(&lint_source("crates/gateway/src/a.rs", read)).contains(&Rule::HotPathLock));
        assert!(rules(&lint_source("crates/gateway/src/a.rs", write)).contains(&Rule::HotPathLock));
        // Recovered form stays clean.
        let ok = "fn f() { fed.read().unwrap_or_else(PoisonError::into_inner); }\n";
        assert!(lint_source("crates/gateway/src/a.rs", ok).is_empty());
    }

    #[test]
    fn findings_render_as_json_array() {
        let src = "pub fn f() {\n    let x = maybe().unwrap();\n}\n";
        let f = lint_source("crates/core/src/a.rs", src);
        let json = findings_json(&f);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule\":\"no-unwrap\""));
        assert!(json.contains("\"line\":2"));
        assert_eq!(findings_json(&[]), "[]");
    }

    #[test]
    fn untraced_query_in_scope_file_flagged() {
        let src =
            "pub fn query_instance(&self) -> u32 {\n    let rows = self.scan();\n    rows\n}\n";
        let f = lint_source("crates/core/src/hub.rs", src);
        assert_eq!(rules(&f), vec![Rule::UntracedQuery]);
        // Same function outside the traced files: not R3 scope.
        assert!(lint_source("crates/chart/src/hub.rs", src).is_empty());
    }

    #[test]
    fn traced_query_passes() {
        let src = "pub fn query_instance(&self) -> u32 {\n    let _t = self.telemetry.span(\"hub_query\");\n    self.scan()\n}\n";
        assert!(lint_source("crates/core/src/hub.rs", src).is_empty());
    }

    #[test]
    fn bench_harness_is_r1_exempt_but_not_r2() {
        let src = "pub fn f() { x.expect(\"io\"); }\n";
        assert!(lint_source("crates/bench/src/experiments.rs", src).is_empty());
        let lock = "pub fn f() { m.lock().unwrap(); }\n";
        assert!(lint_source("crates/bench/src/experiments.rs", lock).is_empty());
        // The same exemption does not leak to other crates.
        assert_eq!(
            rules(&lint_source("crates/core/src/a.rs", src)),
            vec![Rule::NoUnwrap]
        );
    }

    #[test]
    fn raw_string_spanning_lines_is_ignored() {
        let src = "fn f() {\n    let q = r#\"\n        panic!(not code) .unwrap()\n    \"#;\n    drop(q);\n}\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn nested_test_module_depth_tracking() {
        // A test module containing nested braces must not end the
        // region early.
        let src = "#[cfg(test)]\nmod tests {\n    fn a() {\n        if x {\n            y.unwrap();\n        }\n    }\n}\npub fn b() { z.unwrap(); }\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 9);
    }

    #[test]
    fn multi_line_and_continued_strings_are_ignored() {
        let src = "fn f() {\n    let s = \"first\n        .unwrap() inside\";\n    let t = \"a \\\n        .unwrap() b\";\n    drop((s, t));\n}\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
        // Lines after a continuation still count.
        let after = format!("{src}pub fn g() {{ x.unwrap(); }}\n");
        let f = lint_source("crates/core/src/a.rs", &after);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 8);
    }

    #[test]
    fn nested_block_comment_is_ignored() {
        let src = "fn f() {\n    /* outer /* inner */ x.unwrap() */\n    g();\n}\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_linted() {
        let src = "#[cfg(not(test))]\nmod real {\n    fn f() { x.unwrap(); }\n}\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn out_of_line_test_module_does_not_hide_what_follows() {
        let src = "#[cfg(test)]\nmod tests;\n\npub fn g() { x.unwrap(); }\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn test_attribute_on_a_struct_ends_with_the_struct() {
        let src = "#[cfg(test)]\nstruct Fixture {\n    a: u8,\n}\npub fn g() { x.unwrap(); }\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn top_level_test_fn_is_skipped() {
        let src = "#[test]\nfn t() {\n    x.unwrap();\n}\npub fn g() {}\n";
        assert!(lint_source("crates/core/src/a.rs", src).is_empty());
    }

    #[test]
    fn two_r1_patterns_on_one_line_report_once() {
        let src = "fn f() { a.expect(\"x\"); b.unwrap(); }\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert!(f[0].message.starts_with("unwrap()"), "{}", f[0].message);
    }

    #[test]
    fn marker_above_counts_only_on_a_comment_line() {
        let src = "g(); // xc-allow: covers g only\nx.unwrap();\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::NoUnwrap]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn bare_marker_suppresses_nothing() {
        let src = "fn f() { x.unwrap(); } // xc-allow:\n";
        let f = lint_source("crates/core/src/a.rs", src);
        assert_eq!(rules(&f), vec![Rule::BareAllow, Rule::NoUnwrap]);
    }

    #[test]
    fn r3_ignores_test_code() {
        let src = "#[cfg(test)]\nmod tests {\n    pub fn query_fixture() {}\n}\n";
        assert!(lint_source("crates/core/src/hub.rs", src).is_empty());
    }
}
