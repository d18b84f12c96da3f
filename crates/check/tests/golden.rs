//! Golden pre-flight output: for every `examples/configs/*.json`, the
//! analyzer's `render_text()` and `render_json()` are byte for byte the
//! files committed under `tests/golden/`, `<config>.txt` and
//! `<config>.json`. A rewrite of the model or the analyzer must leave
//! every report as it was; a mismatch prints the differing lines.

use std::fs;
use std::path::{Path, PathBuf};

use xdmod_check::{analyze, FederationModel};

/// The lines of `want` and `got` that differ, position by position.
fn diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut out = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i), got.get(i));
        if w != g {
            out += &format!("line {}:\n", i + 1);
            if let Some(w) = w {
                out += &format!("- {w}\n");
            }
            if let Some(g) = g {
                out += &format!("+ {g}\n");
            }
        }
    }
    out
}

/// `got` is the golden file at `path`; the differing lines otherwise.
fn matches_golden(path: &Path, got: &str) -> Result<(), String> {
    let want = fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}; the output is:\n{got}", path.display()))?;
    if want == got {
        return Ok(());
    }
    let lines = diff(&want, got);
    let lines = if lines.is_empty() {
        "the lines agree; their endings differ\n".to_owned()
    } else {
        lines
    };
    Err(format!("{} differs:\n{lines}", path.display()))
}

#[test]
fn every_example_config_reports_as_its_golden_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let golden = root.join("tests/golden");
    let mut configs: Vec<PathBuf> = fs::read_dir(root.join("../../examples/configs"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    configs.sort();
    assert!(configs.len() >= 6, "{configs:?}");
    let mut failures = Vec::new();
    for config in &configs {
        let text = fs::read_to_string(config).unwrap();
        let model = FederationModel::from_json(&text).unwrap();
        let diags = analyze(&model);
        let stem = config.file_stem().unwrap().to_str().unwrap();
        for (ext, got) in [("txt", diags.render_text()), ("json", diags.render_json())] {
            if let Err(e) = matches_golden(&golden.join(format!("{stem}.{ext}")), &got) {
                failures.push(e);
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}
