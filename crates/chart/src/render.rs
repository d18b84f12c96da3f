//! Chart rendering: ASCII (terminal) and SVG (files).
//!
//! The web UI's interactive charts are out of scope; these renderers
//! produce the same *series* as readable terminal plots and standalone
//! SVG documents, which is what the benchmark harness prints/writes when
//! regenerating the paper's figures.

use crate::series::Dataset;

/// Glyphs assigned to series, in order (the paper's Fig. 1/6/7 legends
/// use circles, diamonds, squares, triangles).
const GLYPHS: [char; 6] = ['o', 'd', 's', 't', 'x', '+'];

/// Render an ASCII line/scatter chart: y rows scaled to the dataset's
/// max, one column per x label, one glyph per series.
pub fn ascii_chart(ds: &Dataset, height: usize) -> String {
    let height = height.max(4);
    let mut out = String::new();
    out.push_str(&format!("{} [{}]\n", ds.title, ds.unit));
    if ds.width() == 0 || ds.series.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let max = ds.max_value().max(f64::MIN_POSITIVE);
    let cols = ds.width();
    // grid[row][col] — row 0 is the top.
    let mut grid = vec![vec![' '; cols]; height];
    for (si, series) in ds.series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (col, v) in series.values.iter().enumerate() {
            if let Some(v) = v {
                let frac = (v / max).clamp(0.0, 1.0);
                let row = ((1.0 - frac) * (height - 1) as f64).round() as usize;
                let cell = &mut grid[row][col];
                // Collisions render as '*'.
                *cell = if *cell == ' ' { glyph } else { '*' };
            }
        }
    }
    let axis_width = format!("{max:.0}").len().max(4);
    for (i, row) in grid.iter().enumerate() {
        let y_value = max * (1.0 - i as f64 / (height - 1) as f64);
        out.push_str(&format!("{y_value:>axis_width$.0} |"));
        for &c in row {
            out.push(c);
            out.push(' ');
        }
        out.push('\n');
    }
    // X labels: print first, middle, last to stay narrow.
    out.push_str(&" ".repeat(axis_width + 2));
    out.push_str(&"-".repeat(cols * 2));
    out.push('\n');
    if cols >= 2 {
        let first = &ds.labels[0];
        let last = &ds.labels[cols - 1];
        let gap = (cols * 2).saturating_sub(first.len() + last.len());
        out.push_str(&" ".repeat(axis_width + 2));
        out.push_str(first);
        out.push_str(&" ".repeat(gap));
        out.push_str(last);
        out.push('\n');
    } else {
        out.push_str(&format!("{}{}\n", " ".repeat(axis_width + 2), ds.labels[0]));
    }
    // Legend.
    for (si, series) in ds.series.iter().enumerate() {
        out.push_str(&format!(
            "  {} {}\n",
            GLYPHS[si % GLYPHS.len()],
            series.name
        ));
    }
    out
}

/// Render a horizontal ASCII bar chart of a single-series aggregate
/// dataset (Fig. 7 style groupings read well this way in a terminal).
pub fn ascii_bars(ds: &Dataset, width: usize) -> String {
    let width = width.max(10);
    let mut out = String::new();
    out.push_str(&format!("{} [{}]\n", ds.title, ds.unit));
    let Some(series) = ds.series.first() else {
        out.push_str("(no data)\n");
        return out;
    };
    let max = ds.max_value().max(f64::MIN_POSITIVE);
    let label_width = ds.labels.iter().map(String::len).max().unwrap_or(0);
    for (label, v) in ds.labels.iter().zip(&series.values) {
        match v {
            Some(v) => {
                let bar = ((v / max) * width as f64).round() as usize;
                out.push_str(&format!(
                    "{label:>label_width$} | {} {v:.1}\n",
                    "#".repeat(bar)
                ));
            }
            None => out.push_str(&format!("{label:>label_width$} | (no data)\n")),
        }
    }
    out
}

/// Render an SVG line chart. Self-contained document with axes, polyline
/// per series, and a legend.
pub fn svg_chart(ds: &Dataset, width: u32, height: u32) -> String {
    let width = width.max(200);
    let height = height.max(120);
    let margin = 50.0;
    let plot_w = f64::from(width) - 2.0 * margin;
    let plot_h = f64::from(height) - 2.0 * margin;
    let colors = [
        "#4477AA", "#EE6677", "#888888", "#CCBB44", "#66CCEE", "#AA3377",
    ];
    let max = ds.max_value().max(f64::MIN_POSITIVE);
    let n = ds.width().max(1);

    let mut svg = String::new();
    svg.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">"#
    ));
    svg.push_str(&format!(
        r#"<text x="{}" y="20" text-anchor="middle" font-size="14">{} [{}]</text>"#,
        f64::from(width) / 2.0,
        xml_escape(&ds.title),
        xml_escape(&ds.unit)
    ));
    // Axes.
    svg.push_str(&format!(
        r#"<line x1="{margin}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        margin + plot_h,
        margin + plot_w,
        margin + plot_h
    ));
    svg.push_str(&format!(
        r#"<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{}" stroke="black"/>"#,
        margin + plot_h
    ));
    // Max-value tick.
    svg.push_str(&format!(
        r#"<text x="{}" y="{}" text-anchor="end" font-size="10">{max:.0}</text>"#,
        margin - 4.0,
        margin + 4.0
    ));
    let x_of = |i: usize| margin + plot_w * (i as f64) / ((n - 1).max(1) as f64);
    let y_of = |v: f64| margin + plot_h * (1.0 - (v / max).clamp(0.0, 1.0));
    // First/last x labels.
    if let (Some(first), Some(last)) = (ds.labels.first(), ds.labels.last()) {
        svg.push_str(&format!(
            r#"<text x="{margin}" y="{}" font-size="10">{}</text>"#,
            margin + plot_h + 14.0,
            xml_escape(first)
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" text-anchor="end" font-size="10">{}</text>"#,
            margin + plot_w,
            margin + plot_h + 14.0,
            xml_escape(last)
        ));
    }
    for (si, series) in ds.series.iter().enumerate() {
        let color = colors[si % colors.len()];
        // Split the polyline at gaps.
        let mut segments: Vec<Vec<(f64, f64)>> = vec![Vec::new()];
        for (i, v) in series.values.iter().enumerate() {
            match v {
                Some(v) => segments
                    .last_mut()
                    .expect("non-empty") // xc-allow: segments is seeded with one element
                    .push((x_of(i), y_of(*v))),
                None => {
                    // xc-allow: segments is seeded with one element
                    if !segments.last().expect("non-empty").is_empty() {
                        segments.push(Vec::new());
                    }
                }
            }
        }
        for seg in segments.iter().filter(|s| !s.is_empty()) {
            let points: Vec<String> = seg.iter().map(|(x, y)| format!("{x:.1},{y:.1}")).collect();
            svg.push_str(&format!(
                r#"<polyline fill="none" stroke="{color}" stroke-width="2" points="{}"/>"#,
                points.join(" ")
            ));
            for (x, y) in seg {
                svg.push_str(&format!(
                    r#"<circle cx="{x:.1}" cy="{y:.1}" r="3" fill="{color}"/>"#
                ));
            }
        }
        // Legend entry.
        let ly = margin + 14.0 * si as f64;
        svg.push_str(&format!(
            r#"<rect x="{}" y="{}" width="10" height="10" fill="{color}"/>"#,
            margin + plot_w + 6.0,
            ly
        ));
        svg.push_str(&format!(
            r#"<text x="{}" y="{}" font-size="10">{}</text>"#,
            margin + plot_w + 20.0,
            ly + 9.0,
            xml_escape(&series.name)
        ));
    }
    svg.push_str("</svg>");
    svg
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Series;

    fn dataset() -> Dataset {
        Dataset {
            title: "Total SUs".into(),
            unit: "XD SU".into(),
            labels: vec!["2017-01".into(), "2017-02".into(), "2017-03".into()],
            series: vec![
                Series {
                    name: "comet".into(),
                    values: vec![Some(10.0), Some(12.0), Some(15.0)],
                },
                Series {
                    name: "stampede2".into(),
                    values: vec![None, Some(4.0), Some(9.0)],
                },
            ],
        }
    }

    #[test]
    fn ascii_chart_contains_title_legend_and_labels() {
        let s = ascii_chart(&dataset(), 10);
        assert!(s.contains("Total SUs [XD SU]"));
        assert!(s.contains("o comet"));
        assert!(s.contains("d stampede2"));
        assert!(s.contains("2017-01"));
        assert!(s.contains("2017-03"));
    }

    #[test]
    fn ascii_chart_empty_dataset() {
        let ds = Dataset::new("empty", "u");
        assert!(ascii_chart(&ds, 8).contains("(no data)"));
    }

    #[test]
    fn ascii_bars_scale_to_max() {
        let ds = Dataset {
            title: "Core hours per VM".into(),
            unit: "hours".into(),
            labels: vec!["<1 GB".into(), "4-8 GB".into()],
            series: vec![Series {
                name: "avg".into(),
                values: vec![Some(25.0), Some(100.0)],
            }],
        };
        let s = ascii_bars(&ds, 20);
        let small = s.lines().find(|l| l.contains("<1 GB")).unwrap();
        let large = s.lines().find(|l| l.contains("4-8 GB")).unwrap();
        let hashes = |l: &str| l.chars().filter(|&c| c == '#').count();
        assert_eq!(hashes(large), 20);
        assert_eq!(hashes(small), 5);
    }

    #[test]
    fn ascii_bars_handle_gaps() {
        let ds = Dataset {
            title: "t".into(),
            unit: "u".into(),
            labels: vec!["a".into()],
            series: vec![Series {
                name: "s".into(),
                values: vec![None],
            }],
        };
        assert!(ascii_bars(&ds, 10).contains("(no data)"));
    }

    #[test]
    fn svg_is_well_formed_and_splits_gaps() {
        let svg = svg_chart(&dataset(), 640, 360);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        // comet: one polyline; stampede2 (leading gap): one polyline.
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("comet"));
        // Escaping.
        let mut ds = dataset();
        ds.title = "a < b & c".into();
        let svg = svg_chart(&ds, 640, 360);
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b & c"));
    }

    #[test]
    fn svg_gap_in_middle_splits_polyline() {
        let ds = Dataset {
            title: "t".into(),
            unit: "u".into(),
            labels: (0..5).map(|i| i.to_string()).collect(),
            series: vec![Series {
                name: "s".into(),
                values: vec![Some(1.0), Some(2.0), None, Some(3.0), Some(4.0)],
            }],
        };
        let svg = svg_chart(&ds, 640, 360);
        assert_eq!(svg.matches("<polyline").count(), 2);
    }
}
