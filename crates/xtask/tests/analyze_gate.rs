//! The concurrency-analyzer gate, end to end: seeded workspaces with
//! deadlock patterns must produce the exact diagnostics (codes, paths,
//! lines, witness chains), their clean twins must pass, reasoned
//! `xc-allow` markers must suppress per diagnostic, and the real
//! workspace (which CI gates on) must be analyzer-clean.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{analyze_workspace, find_workspace_root};

/// Build a throwaway workspace under the target temp dir. Each test uses
/// its own subdirectory so parallel test threads never collide.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir()
        .join("xtask-analyze-gate")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    root
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

/// 1-indexed line of the first fixture line containing `needle`.
fn line_of(src: &str, needle: &str) -> usize {
    src.lines().position(|l| l.contains(needle)).unwrap() + 1
}

/// Two functions taking the same pair of locks in opposite orders.
const INVERTED: &str = r#"
impl Hub {
    pub fn refresh(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        use_both(&a, &b);
    }
    pub fn invalidate(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        use_both(&a, &b);
    }
}
"#;

/// The clean twin: both functions agree on alpha-then-beta.
const CONSISTENT: &str = r#"
impl Hub {
    pub fn refresh(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        use_both(&a, &b);
    }
    pub fn invalidate(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
        use_both(&a, &b);
    }
}
"#;

/// A guard held across a channel send.
const SEND_UNDER_LOCK: &str = r#"
impl Pump {
    pub fn drain(&self) {
        let state = self.state.lock();
        self.tx.send(state.snapshot());
    }
}
"#;

/// The clean twin: the guard dies in an inner scope before the send.
const SEND_AFTER_DROP: &str = r#"
impl Pump {
    pub fn drain(&self) {
        let snap = {
            let state = self.state.lock();
            state.snapshot()
        };
        self.tx.send(snap);
    }
}
"#;

#[test]
fn lock_order_inversion_reports_both_witness_chains() {
    let root = scratch_workspace("inversion");
    write(&root, "crates/core/src/hub.rs", INVERTED);
    let a = analyze_workspace(&root).unwrap();
    assert_eq!(a.diags.len(), 1, "expected one XL0001: {:?}", a.diags);
    let d = &a.diags[0];
    assert_eq!(d.code.ident(), "XL0001");
    assert_eq!(d.path, "crates/core/src/hub.rs");
    // Anchored where the AB witness takes its second lock.
    assert_eq!(d.line, line_of(INVERTED, "let b = self.beta.lock();"));
    assert_eq!(d.notes.len(), 2, "both witness chains: {:?}", d.notes);
    assert!(
        d.notes[0].contains("refresh")
            && d.notes[0].contains("alpha")
            && d.notes[0].contains("beta"),
        "AB witness chain: {}",
        d.notes[0]
    );
    assert!(
        d.notes[1].contains("invalidate"),
        "BA witness chain: {}",
        d.notes[1]
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn guard_across_send_is_flagged_at_the_send_site() {
    let root = scratch_workspace("send");
    write(&root, "crates/gateway/src/pump.rs", SEND_UNDER_LOCK);
    let a = analyze_workspace(&root).unwrap();
    assert_eq!(a.diags.len(), 1, "expected one XL0002: {:?}", a.diags);
    let d = &a.diags[0];
    assert_eq!(d.code.ident(), "XL0002");
    assert_eq!(d.path, "crates/gateway/src/pump.rs");
    assert_eq!(d.line, line_of(SEND_UNDER_LOCK, ".send("));
    assert!(
        d.notes[0].contains("gateway::Pump::state"),
        "held-guard note names the lock: {}",
        d.notes[0]
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn clean_twins_pass_with_nothing_suppressed() {
    let root = scratch_workspace("clean");
    write(&root, "crates/core/src/hub.rs", CONSISTENT);
    write(&root, "crates/gateway/src/pump.rs", SEND_AFTER_DROP);
    let a = analyze_workspace(&root).unwrap();
    assert!(a.diags.is_empty(), "unexpected: {:?}", a.diags);
    assert_eq!(a.suppressed, 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn cross_crate_composition_and_unbounded_channel_are_flagged() {
    let root = scratch_workspace("composition");
    write(
        &root,
        "crates/gateway/src/app.rs",
        r#"
impl App {
    pub fn tick(&self) {
        let cfg = self.cfg.lock();
        rebuild_watermarks(&cfg);
    }
    pub fn wire(&self) {
        let (tx, rx) = channel();
        use_pair(tx, rx);
    }
}
"#,
    );
    write(
        &root,
        "crates/core/src/hub.rs",
        r#"
pub fn rebuild_watermarks(cfg: &Config) {
    let db = GLOBAL.db.lock();
    db.touch(cfg);
}
"#,
    );
    let a = analyze_workspace(&root).unwrap();
    let codes: Vec<&str> = a.diags.iter().map(|d| d.code.ident()).collect();
    assert_eq!(codes, vec!["XL0003", "XL0004"], "{:?}", a.diags);
    let xl3 = &a.diags[0];
    assert_eq!(xl3.path, "crates/gateway/src/app.rs");
    assert!(
        xl3.message.contains("crate `core`") && xl3.message.contains("rebuild_watermarks"),
        "cross-crate message: {}",
        xl3.message
    );
    assert!(
        xl3.notes[1].contains("crates/core/src/hub.rs:3"),
        "callee acquisition site: {:?}",
        xl3.notes
    );
    let xl4 = &a.diags[1];
    assert_eq!(xl4.path, "crates/gateway/src/app.rs");
    assert!(xl4.message.contains("sync_channel"), "{}", xl4.message);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn reasoned_xc_allow_suppresses_each_diagnostic() {
    let root = scratch_workspace("suppress");
    // XL0001: allowing ONE witness anchor suppresses the pair finding.
    write(
        &root,
        "crates/core/src/hub.rs",
        r#"
impl Hub {
    pub fn refresh(&self) {
        let a = self.alpha.lock();
        // xc-allow: alpha-then-beta is the documented order; invalidate is startup-only
        let b = self.beta.lock();
        use_both(&a, &b);
    }
    pub fn invalidate(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        use_both(&a, &b);
    }
}
"#,
    );
    // XL0002 and XL0004, one marker each.
    write(
        &root,
        "crates/gateway/src/pump.rs",
        r#"
impl Pump {
    pub fn drain(&self) {
        let state = self.state.lock();
        // xc-allow: rendezvous channel, receiver is the same struct's test double
        self.tx.send(state.snapshot());
    }
    pub fn wire(&self) {
        let (tx, rx) = channel(); // xc-allow: debug tap, drops are acceptable
        use_pair(tx, rx);
    }
}
"#,
    );
    let a = analyze_workspace(&root).unwrap();
    assert!(a.diags.is_empty(), "all suppressed: {:?}", a.diags);
    assert_eq!(a.suppressed, 3);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn json_rendering_has_check_parity_shape() {
    let root = scratch_workspace("json");
    write(&root, "crates/core/src/hub.rs", INVERTED);
    let a = analyze_workspace(&root).unwrap();
    let json = a.render_json();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(json.contains("\"code\":\"XL0001\""), "{json}");
    assert!(
        json.contains("\"path\":\"crates/core/src/hub.rs\""),
        "{json}"
    );
    assert!(json.contains("\"notes\":["), "{json}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn the_real_workspace_is_analyzer_clean() {
    // CI runs `cargo run -p xtask -- analyze`; this test is the same
    // gate from inside the test suite, so a regression fails
    // `cargo test` too. Deliberate patterns carry reasoned xc-allow
    // markers and count as suppressed, not clean-by-accident.
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let a = analyze_workspace(&root).unwrap();
    assert!(
        a.diags.is_empty(),
        "workspace concurrency regressions:\n{}",
        a.diags
            .iter()
            .map(|d| d.render_text())
            .collect::<Vec<_>>()
            .join("")
    );
    // The ratchet: a literal a change may only lower.
    assert!(
        a.suppressed <= 8,
        "{} suppressed findings; the ceiling is 8",
        a.suppressed
    );
}
