//! Data export: CSV and JSON.
//!
//! XDMoD "provides reporting capabilities that include data export"
//! (§I-D). Datasets export as CSV (one row per x label, one column per
//! series) and as compact JSON, the form the gateway serves.

use crate::series::Dataset;
use xdmod_check::json::{escape, push_f64};

/// Export a dataset as CSV. The first column is the label; gaps render
/// as empty cells. Fields containing commas/quotes/newlines are quoted.
pub fn to_csv(ds: &Dataset) -> String {
    let mut out = String::new();
    out.push_str("label");
    for s in &ds.series {
        out.push(',');
        out.push_str(&csv_field(&s.name));
    }
    out.push('\n');
    for (i, label) in ds.labels.iter().enumerate() {
        out.push_str(&csv_field(label));
        for s in &ds.series {
            out.push(',');
            if let Some(Some(v)) = s.values.get(i) {
                out.push_str(&format!("{v}"));
            }
        }
        out.push('\n');
    }
    out
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// Export a dataset as compact JSON: `{"title","unit","labels","series":
/// [{"name","values"}]}` in that order. A gap, and a value that is not
/// finite, is `null`; every other value is its shortest round-trip text,
/// so it parses back to the same bits.
pub fn to_json(ds: &Dataset) -> String {
    let labels: Vec<String> = ds.labels.iter().map(|label| escape(label)).collect();
    let mut out = format!(
        "{{\"title\":{},\"unit\":{},\"labels\":[{}],\"series\":[",
        escape(&ds.title),
        escape(&ds.unit),
        labels.join(","),
    );
    for (i, series) in ds.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        out.push_str(&escape(&series.name));
        out.push_str(",\"values\":[");
        for (j, value) in series.values.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match value {
                Some(v) => push_f64(&mut out, *v),
                None => out.push_str("null"),
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::Series;

    fn dataset() -> Dataset {
        Dataset {
            title: "t".into(),
            unit: "u".into(),
            labels: vec!["2017-01".into(), "2017-02".into()],
            series: vec![
                Series {
                    name: "comet".into(),
                    values: vec![Some(1.5), None],
                },
                Series {
                    name: "with,comma".into(),
                    values: vec![Some(2.0), Some(3.0)],
                },
            ],
        }
    }

    #[test]
    fn csv_layout_and_gaps() {
        let csv = to_csv(&dataset());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "label,comet,\"with,comma\"");
        assert_eq!(lines[1], "2017-01,1.5,2");
        assert_eq!(lines[2], "2017-02,,3");
    }

    #[test]
    fn csv_quotes_embedded_quotes() {
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("plain"), "plain");
    }

    #[test]
    fn json_is_compact_in_declaration_order() {
        let mut ds = dataset();
        ds.title = "tab\there \u{8}".into();
        ds.series[1].values = vec![Some(f64::INFINITY), Some(1.234e-5)];
        ds.series.push(Series {
            name: "nan".into(),
            values: vec![Some(f64::NAN), Some(-0.0)],
        });
        assert_eq!(
            to_json(&ds),
            concat!(
                r#"{"title":"tab\there \u0008","unit":"u","labels":["2017-01","2017-02"],"#,
                r#""series":[{"name":"comet","values":[1.5,null]},"#,
                r#"{"name":"with,comma","values":[null,1.234e-5]},"#,
                r#"{"name":"nan","values":[null,-0.0]}]}"#
            )
        );
        assert_eq!(
            to_json(&Dataset::new("e", "")),
            r#"{"title":"e","unit":"","labels":[],"series":[]}"#
        );
    }

    /// Every finite value written parses back to the same bits, through
    /// the workspace's own reader (the property serde's JSON
    /// `float_roundtrip` feature used to be declared for).
    #[test]
    fn json_round_trip() {
        let mut state = 0x6368_6172_745f_6a73_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let edges = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE - 5e-324,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            1e-5,
            1.234e-5,
            1e-4,
            1e16,
            1e21,
            9007199254740993.0,
        ];
        let mut values: Vec<f64> = edges.to_vec();
        while values.len() < 200_000 {
            let bits = next();
            // Every fourth draw has a zero exponent: a subnormal or ±0.
            let bits = if bits % 4 == 0 {
                bits & 0x800f_ffff_ffff_ffff
            } else {
                bits
            };
            let x = f64::from_bits(bits);
            if x.is_finite() {
                values.push(x);
            }
        }
        for chunk in values.chunks(10_000) {
            let mut ds = dataset();
            ds.labels = (0..chunk.len()).map(|i| format!("x{i}")).collect();
            ds.series = vec![Series {
                name: "s".into(),
                values: chunk.iter().copied().map(Some).collect(),
            }];
            let text = to_json(&ds);
            let doc = xdmod_check::json::parse(&text).unwrap();
            let mut series = doc.get("series").and_then(|s| s.as_array()).unwrap();
            let first = series.next().unwrap();
            let back = first.get("values").and_then(|v| v.as_array()).unwrap();
            assert_eq!(back.len(), chunk.len());
            for (want, got) in chunk.iter().zip(back) {
                let got = got.as_f64().unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{want:?} came back as {got:?}"
                );
            }
            assert_eq!(doc.get("title").and_then(|t| t.as_str()), Some("t"));
            assert_eq!(
                doc.get("labels")
                    .and_then(|l| l.as_array())
                    .map(|l| l.len()),
                Some(chunk.len())
            );
        }
    }
}
