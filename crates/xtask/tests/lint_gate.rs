//! The lint gate, end to end: a seeded workspace with invariant
//! violations must fail, and the real workspace (which CI runs the gate
//! over) must pass.

use std::fs;
use std::path::{Path, PathBuf};
use xtask::{find_workspace_root, lint_workspace, Rule};

/// Build a throwaway workspace under the target temp dir. Each test uses
/// its own subdirectory so parallel test threads never collide.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir()
        .join("xtask-lint-gate")
        .join(format!("{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/replication/src")).unwrap();
    fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    root
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

#[test]
fn seeded_bad_file_fails_the_gate() {
    let root = scratch_workspace("bad");
    write(
        &root,
        "crates/replication/src/worker.rs",
        r#"
pub fn drain(queue: &std::sync::Mutex<Vec<u8>>) -> u8 {
    let first = queue.lock().unwrap().pop().unwrap();
    first
}
"#,
    );
    let findings = lint_workspace(&root).unwrap();
    // One hot-path-lock finding plus no-unwrap findings on the same line.
    assert!(
        findings.iter().any(|f| f.rule == Rule::HotPathLock),
        "expected hot-path-lock in: {findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == Rule::NoUnwrap),
        "expected no-unwrap in: {findings:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn xc_allow_does_not_excuse_hot_path_locks() {
    let root = scratch_workspace("hotpath");
    write(
        &root,
        "crates/replication/src/worker.rs",
        "pub fn f(m: &std::sync::Mutex<u8>) -> u8 {\n    \
         *m.lock().unwrap() // xc-allow: trying to silence the gate\n}\n",
    );
    let findings = lint_workspace(&root).unwrap();
    assert!(
        findings.iter().any(|f| f.rule == Rule::HotPathLock),
        "hot-path-lock must not be suppressible: {findings:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn clean_seeded_workspace_passes() {
    let root = scratch_workspace("clean");
    write(
        &root,
        "crates/replication/src/worker.rs",
        r#"
pub fn drain(queue: &std::sync::Mutex<Vec<u8>>) -> Option<u8> {
    queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .pop()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_here() {
        Some(1u8).unwrap();
    }
}
"#,
    );
    let findings = lint_workspace(&root).unwrap();
    assert!(findings.is_empty(), "unexpected: {findings:?}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn findings_render_as_json_with_check_parity_shape() {
    // `xtask lint --json` (CI artifact) serializes findings the same way
    // `xdmod-check --json` does: an array of flat objects.
    let root = scratch_workspace("json");
    write(
        &root,
        "crates/replication/src/worker.rs",
        "pub fn f(m: &std::sync::Mutex<u8>) -> u8 {\n    *m.lock().unwrap()\n}\n",
    );
    let findings = lint_workspace(&root).unwrap();
    assert!(!findings.is_empty());
    let json = xtask::findings_json(&findings);
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(json.contains("\"rule\":\"hot-path-lock\""), "{json}");
    assert!(
        json.contains("\"path\":\"crates/replication/src/worker.rs\""),
        "{json}"
    );
    assert!(json.contains("\"line\":2"), "{json}");
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn the_real_workspace_passes_the_gate() {
    // CI runs `cargo run -p xtask -- lint`; this test is the same gate
    // from inside the test suite, so a regression fails `cargo test` too.
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("test runs inside the workspace");
    let findings = lint_workspace(&root).unwrap();
    assert!(
        findings.is_empty(),
        "workspace lint regressions:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The ratchet: suppression markers in any `.rs` under `crates/` and
    // `src/` (this crate's fixtures included). A literal a change may
    // only lower — removing a lock or an unwrap takes its marker along.
    let marker = concat!("xc-", "allow");
    let markers =
        marker_lines(&root.join("crates"), marker) + marker_lines(&root.join("src"), marker);
    assert!(
        markers <= 59,
        "{markers} {marker} markers in the workspace; the ceiling is 59"
    );
}

/// Lines containing `marker` in every `.rs` file under `dir`.
fn marker_lines(dir: &Path, marker: &str) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .map(|path| {
            if path.is_dir() {
                marker_lines(&path, marker)
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = fs::read_to_string(&path).unwrap_or_default();
                text.lines().filter(|l| l.contains(marker)).count()
            } else {
                0
            }
        })
        .sum()
}
