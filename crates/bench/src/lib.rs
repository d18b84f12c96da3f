//! # xdmod-bench
//!
//! The regeneration harness: one entry point per table and figure of
//! the paper (see [`experiments`]), shared by the `fig*` / `table1` /
//! `all_experiments` binaries. (Performance is measured by the
//! repository benchmark under top-level `bench/`, not here.)
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Fig. 1 (top resources by XD SU) | [`experiments::fig1`] | `fig1` |
//! | Table I (aggregation levels)   | [`experiments::table1`] | `table1` |
//! | Fig. 2 (fan-in topology)       | [`experiments::fig2`] | `fig2` |
//! | Fig. 3 (dataflow + routing)    | [`experiments::fig3`] | `fig3` |
//! | Fig. 4 (two auth paths)        | [`experiments::fig4`] | `fig4` |
//! | Fig. 5 (federated auth)        | [`experiments::fig5`] | `fig5` |
//! | Fig. 6 (storage realm)         | [`experiments::fig6`] | `fig6` |
//! | Fig. 7 (cloud realm)           | [`experiments::fig7`] | `fig7` |

#![warn(missing_docs)]

pub mod experiments;

use std::io::Write;
use std::path::Path;

/// Write a figure's artifacts (SVG + CSV) into `dir`, creating it.
pub fn write_artifacts(
    dir: &Path,
    name: &str,
    dataset: &xdmod_chart::Dataset,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let svg = xdmod_chart::svg_chart(dataset, 720, 400);
    std::fs::File::create(dir.join(format!("{name}.svg")))?.write_all(svg.as_bytes())?;
    let csv = xdmod_chart::to_csv(dataset);
    std::fs::File::create(dir.join(format!("{name}.csv")))?.write_all(csv.as_bytes())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_written_to_disk() {
        let dir = std::env::temp_dir().join("xdmod-bench-test-artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        let f = experiments::fig6(experiments::SEED, 0.1);
        write_artifacts(&dir, "fig6", &f.dataset).unwrap();
        assert!(dir.join("fig6.svg").exists());
        assert!(dir.join("fig6.csv").exists());
        let svg = std::fs::read_to_string(dir.join("fig6.svg")).unwrap();
        assert!(svg.starts_with("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
