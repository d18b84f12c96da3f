//! Exposition formats: Prometheus-style text and JSON.
//!
//! Both renderings are **deterministic**: metrics sort by `(name, labels)`
//! and floats print as the shortest decimal that reads back to the same
//! bits, byte for byte what Rust's `{}` prints (non-finite values as `0`),
//! so test suites can snapshot the output byte-for-byte. Numbers go
//! through the crate's own writers (`num.rs`), not `core::fmt`.
//!
//! Each writes into one pre-sized `String` and renders nothing twice that
//! does not change: a series' escaped label set and JSON head once per
//! series (the first exposition that shows it fills its `MetricId`'s memo,
//! and every later one copies it into each of the series' lines), the 64
//! histogram `le` bounds (with the line's closing `"} `) once per process,
//! and each event's JSON object once per event (an event stays in the ring
//! across many expositions). A histogram copies `name_bucket{labels,le="`
//! into a scratch template once per exposition, so each bucket line is
//! that template, the bound's tail and the cumulative count.

use crate::event::Event;
use crate::histogram::{bucket_upper, HistogramSnapshot, BUCKETS};
use crate::num::{self, push_u64};
use crate::registry::{MetricId, MetricsRegistry, RegistrySnapshot};
use std::sync::OnceLock;

/// Append `v` escaped as a text-format label value (`\\`, `\"`, `\n`) or,
/// with `json`, as JSON string contents (also `\r`, `\t`, `\u00XX`). Every
/// escaped byte is ASCII, which never occurs inside a multi-byte UTF-8
/// sequence, so the clean runs between them are whole `str`s.
fn push_escaped(out: &mut String, v: &str, json: bool) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut clean = 0;
    for (i, &b) in v.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' if json => Some("\\r"),
            b'\t' if json => Some("\\t"),
            0..=0x1f if json => None,
            _ => continue,
        };
        out.push_str(&v[clean..i]);
        match escape {
            Some(escape) => out.push_str(escape),
            None => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        clean = i + 1;
    }
    out.push_str(&v[clean..]);
}

/// Render a float deterministically; non-finite values (which no
/// instrument should produce) render as 0 so the output stays parseable.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        num::push_f64(out, v);
    } else {
        out.push('0');
    }
}

/// The `+Inf` bucket's tail: the bound, the closing quote and brace, a space.
const INF_TAIL: &str = "+Inf\"} ";

/// Bucket `i`'s line tail, `bucket_upper(i)` as it appears in
/// `le="…"` followed by `"} `, rendered once per process.
fn le_tails() -> &'static [String; BUCKETS] {
    static LE: OnceLock<[String; BUCKETS]> = OnceLock::new();
    LE.get_or_init(|| {
        std::array::from_fn(|i| {
            let mut s = String::new();
            push_f64(&mut s, bucket_upper(i));
            s.push_str("\"} ");
            s
        })
    })
}

/// Append a sample line up to its value: the name and suffix, the label
/// set in braces (none without labels), a space.
fn push_sample(out: &mut String, name: &str, suffix: &str, labels: &str) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
}

/// Append a histogram's `_bucket` lines, `_sum` and `_count`. Each bucket
/// line copies the series' template `name_bucket{labels,le="`, copied once
/// into `template`, then the bound's tail and the cumulative count.
fn push_histogram(out: &mut String, template: &mut String, id: &MetricId, h: &HistogramSnapshot) {
    let labels = id.label_set();
    template.clear();
    template.push_str(&id.name);
    template.push_str("_bucket{");
    template.push_str(labels);
    if !labels.is_empty() {
        template.push(',');
    }
    template.push_str("le=\"");
    let mut cumulative = 0u64;
    for (n, tail) in h.buckets[..h.filled()].iter().zip(le_tails()) {
        cumulative += n;
        out.push_str(template);
        out.push_str(tail);
        push_u64(out, cumulative);
        out.push('\n');
    }
    out.push_str(template);
    out.push_str(INF_TAIL);
    push_u64(out, h.count);
    out.push('\n');
    push_sample(out, &id.name, "_sum", labels);
    push_f64(out, h.sum);
    out.push('\n');
    push_sample(out, &id.name, "_count", labels);
    push_u64(out, h.count);
    out.push('\n');
}

/// Emit `# TYPE` when `name` starts a new family; the family carries
/// across the counter, gauge and histogram sections.
fn push_type<'a>(out: &mut String, family: &mut &'a str, name: &'a str, kind: &str) {
    if *family != name {
        for part in ["# TYPE ", name, " ", kind, "\n"] {
            out.push_str(part);
        }
        *family = name;
    }
}

/// Append `{"name":"…","labels":{…}` — a JSON series object up to its values.
fn push_json_head(out: &mut String, first: bool, id: &MetricId) {
    if !first {
        out.push(',');
    }
    out.push_str(id.json_head());
}

impl MetricId {
    /// The memo: the escaped label set `k="v",…` (no braces; empty without
    /// labels) and the JSON head `{"name":"…","labels":{…}`, rendered on
    /// first call and kept for the id's lifetime.
    fn rendered(&self) -> (&str, &str) {
        let (memo, head_at) = self.memo.get_or_init(|| {
            let labels = self.labels.iter().map(|(k, v)| 2 * (k.len() + v.len()) + 8);
            let mut out = String::with_capacity(2 * self.name.len() + labels.sum::<usize>() + 24);
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(k);
                out.push_str("=\"");
                push_escaped(&mut out, v, false);
                out.push('"');
            }
            let head_at = out.len();
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, &self.name, true);
            out.push_str("\",\"labels\":{");
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                push_escaped(&mut out, k, true);
                out.push_str("\":\"");
                push_escaped(&mut out, v, true);
                out.push('"');
            }
            out.push('}');
            // Copied into an exact allocation: shrinking `out` in place
            // would leave a hole beside each memo.
            (Box::from(out.as_str()), head_at)
        });
        memo.split_at(*head_at)
    }

    /// The escaped text-format label set, `k="v",k2="v2"` without braces.
    pub(crate) fn label_set(&self) -> &str {
        self.rendered().0
    }

    /// `{"name":"…","labels":{…}`: the JSON series object up to its values.
    fn json_head(&self) -> &str {
        self.rendered().1
    }
}

impl Event {
    /// The length of the JSON object once rendered, else an estimate.
    fn json_len(&self) -> usize {
        self.json.get().map_or_else(
            || {
                let fields = self.fields.iter().map(|(k, _)| k.len() + 28);
                self.kind.len() + self.message.len() + fields.sum::<usize>() + 96
            },
            String::len,
        )
    }

    /// `{"seq":…,"elapsed_ms":…,"kind":"…","message":"…","fields":{…}}`,
    /// rendered on first call and kept until the ring reuses the event.
    fn json_object(&self) -> &str {
        self.json.get_or_init(|| {
            let mut out = String::with_capacity(self.json_len());
            out.push_str("{\"seq\":");
            push_u64(&mut out, self.seq);
            out.push_str(",\"elapsed_ms\":");
            push_u64(&mut out, self.elapsed_ms);
            out.push_str(",\"kind\":\"");
            push_escaped(&mut out, &self.kind, true);
            out.push_str("\",\"message\":\"");
            push_escaped(&mut out, &self.message, true);
            out.push_str("\",\"fields\":{");
            for (j, (k, v)) in self.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('"');
                push_escaped(&mut out, k, true);
                out.push_str("\":");
                push_f64(&mut out, *v);
            }
            out.push_str("}}");
            out
        })
    }
}

impl MetricsRegistry {
    /// Prometheus-style text exposition of every registered metric.
    ///
    /// Counters and gauges render one sample per label set; histograms
    /// render cumulative `_bucket{le=...}` samples up to their highest
    /// non-empty bucket plus `+Inf`, then `_sum` and `_count`. A `# TYPE`
    /// comment precedes each metric family. Output is empty for a
    /// disabled registry.
    pub fn prometheus_text(&self) -> String {
        self.snapshot().prometheus_text()
    }

    /// JSON exposition: `{"counters": [...], "gauges": [...],
    /// "histograms": [...], "events": [...]}` with deterministic ordering.
    pub fn json(&self) -> String {
        self.snapshot().json()
    }
}

impl RegistrySnapshot {
    /// See [`MetricsRegistry::prometheus_text`].
    pub fn prometheus_text(&self) -> String {
        let line = |id: &MetricId| id.name.len() + id.label_set().len();
        let scalars = self.counters.iter().map(|(id, _)| id);
        let scalars = scalars.chain(self.gauges.iter().map(|(id, _)| id));
        let histograms = self
            .histograms
            .iter()
            .map(|(id, h)| (h.filled() + 3) * (line(id) + 48));
        let capacity = scalars.map(|id| line(id) + 32).sum::<usize>() + histograms.sum::<usize>();
        let mut out = String::with_capacity(capacity);
        // A histogram's line template, copied into each of its bucket lines.
        let mut template = String::new();
        let mut family = "";
        for (id, v) in &self.counters {
            push_type(&mut out, &mut family, &id.name, "counter");
            push_sample(&mut out, &id.name, "", id.label_set());
            push_u64(&mut out, *v);
            out.push('\n');
        }
        for (id, v) in &self.gauges {
            push_type(&mut out, &mut family, &id.name, "gauge");
            push_sample(&mut out, &id.name, "", id.label_set());
            push_f64(&mut out, *v);
            out.push('\n');
        }
        for (id, h) in &self.histograms {
            push_type(&mut out, &mut family, &id.name, "histogram");
            push_histogram(&mut out, &mut template, id, h);
        }
        out
    }

    /// See [`MetricsRegistry::json`].
    pub fn json(&self) -> String {
        let head = |id: &MetricId| id.json_head().len();
        let series = self.counters.iter().map(|(id, _)| head(id) + 32);
        let series = series.chain(self.gauges.iter().map(|(id, _)| head(id) + 40));
        let series = series.chain(self.histograms.iter().map(|(id, _)| head(id) + 144));
        let events = self.events.iter().map(|e| e.json_len() + 1);
        let mut out = String::with_capacity(64 + series.sum::<usize>() + events.sum::<usize>());
        out.push_str("{\"counters\":[");
        for (i, (id, v)) in self.counters.iter().enumerate() {
            push_json_head(&mut out, i == 0, id);
            out.push_str(",\"value\":");
            push_u64(&mut out, *v);
            out.push('}');
        }
        out.push_str("],\"gauges\":[");
        for (i, (id, v)) in self.gauges.iter().enumerate() {
            push_json_head(&mut out, i == 0, id);
            out.push_str(",\"value\":");
            push_f64(&mut out, *v);
            out.push('}');
        }
        out.push_str("],\"histograms\":[");
        for (i, (id, h)) in self.histograms.iter().enumerate() {
            push_json_head(&mut out, i == 0, id);
            out.push_str(",\"count\":");
            push_u64(&mut out, h.count);
            out.push_str(",\"sum\":");
            push_f64(&mut out, h.sum);
            out.push_str(",\"max\":");
            push_f64(&mut out, h.max);
            let quantiles = h.quantiles([0.50, 0.95, 0.99]);
            for (key, q) in [",\"p50\":", ",\"p95\":", ",\"p99\":"]
                .into_iter()
                .zip(quantiles)
            {
                out.push_str(key);
                match q {
                    Some(v) => push_f64(&mut out, v),
                    None => out.push_str("null"),
                }
            }
            out.push('}');
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(e.json_object());
        }
        out.push_str("]}");
        out
    }
}

/// The renderers as they were before the one-buffer rewrite: one
/// `format!`/`Vec`/`join` per sample. The differential tests below hold
/// the current renderers to these bytes.
#[cfg(test)]
mod reference {
    use crate::histogram::HistogramSnapshot;
    use crate::registry::{MetricId, RegistrySnapshot};
    use std::fmt::Write as _;

    fn escape_label(v: &str) -> String {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }

    fn escape_json(v: &str) -> String {
        let mut out = String::with_capacity(v.len());
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }

    pub(super) fn fmt_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "0".to_owned()
        }
    }

    /// `MetricId::render` as it was.
    pub(super) fn render(id: &MetricId) -> String {
        if id.labels.is_empty() {
            return id.name.clone();
        }
        let labels: Vec<String> = id
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        format!("{}{{{}}}", id.name, labels.join(","))
    }

    fn render_with_extra_label(id: &MetricId, suffix: &str, extra: Option<(&str, &str)>) -> String {
        let mut labels: Vec<String> = id
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        if let Some((k, v)) = extra {
            labels.push(format!("{k}=\"{}\"", escape_label(v)));
        }
        if labels.is_empty() {
            format!("{}{}", id.name, suffix)
        } else {
            format!("{}{}{{{}}}", id.name, suffix, labels.join(","))
        }
    }

    fn write_histogram(out: &mut String, id: &MetricId, h: &HistogramSnapshot) {
        for (upper, cum) in h.cumulative_buckets() {
            let _ = writeln!(
                out,
                "{} {cum}",
                render_with_extra_label(id, "_bucket", Some(("le", &fmt_f64(upper))))
            );
        }
        let _ = writeln!(
            out,
            "{} {}",
            render_with_extra_label(id, "_bucket", Some(("le", "+Inf"))),
            h.count
        );
        let _ = writeln!(
            out,
            "{} {}",
            render_with_extra_label(id, "_sum", None),
            fmt_f64(h.sum)
        );
        let _ = writeln!(
            out,
            "{} {}",
            render_with_extra_label(id, "_count", None),
            h.count
        );
    }

    pub(super) fn prometheus_text(snap: &RegistrySnapshot) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if last_family != name {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_family = name.to_owned();
            }
        };
        for (id, v) in &snap.counters {
            type_line(&mut out, &id.name, "counter");
            let _ = writeln!(out, "{} {v}", render(id));
        }
        for (id, v) in &snap.gauges {
            type_line(&mut out, &id.name, "gauge");
            let _ = writeln!(out, "{} {}", render(id), fmt_f64(*v));
        }
        for (id, h) in &snap.histograms {
            type_line(&mut out, &id.name, "histogram");
            write_histogram(&mut out, id, h);
        }
        out
    }

    fn json_opt(v: Option<f64>) -> String {
        match v {
            Some(v) => fmt_f64(v),
            None => "null".to_owned(),
        }
    }

    fn write_json_labels(out: &mut String, id: &MetricId) {
        out.push_str("\"labels\":{");
        for (i, (k, v)) in id.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
        }
        out.push('}');
    }

    pub(super) fn json(snap: &RegistrySnapshot) -> String {
        let mut out = String::from("{\"counters\":[");
        for (i, (id, v)) in snap.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",", escape_json(&id.name));
            write_json_labels(&mut out, id);
            let _ = write!(out, ",\"value\":{v}}}");
        }
        out.push_str("],\"gauges\":[");
        for (i, (id, v)) in snap.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",", escape_json(&id.name));
            write_json_labels(&mut out, id);
            let _ = write!(out, ",\"value\":{}}}", fmt_f64(*v));
        }
        out.push_str("],\"histograms\":[");
        for (i, (id, h)) in snap.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",", escape_json(&id.name));
            write_json_labels(&mut out, id);
            let _ = write!(
                out,
                ",\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count,
                fmt_f64(h.sum),
                fmt_f64(h.max),
                json_opt(h.p50()),
                json_opt(h.p95()),
                json_opt(h.p99()),
            );
        }
        out.push_str("],\"events\":[");
        for (i, e) in snap.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"seq\":{},\"elapsed_ms\":{},\"kind\":\"{}\",\"message\":\"{}\",\"fields\":{{",
                e.seq,
                e.elapsed_ms,
                escape_json(&e.kind),
                escape_json(&e.message)
            );
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", escape_json(k), fmt_f64(*v));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::BUCKETS;
    use std::sync::Arc;

    /// The `String` form of the label escaper, over the buffer one.
    fn escape_label(v: &str) -> String {
        let mut out = String::new();
        push_escaped(&mut out, v, false);
        out
    }

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("events_applied_total", &[("link", "x")]).add(7);
        reg.counter("events_applied_total", &[("link", "y")]).add(3);
        reg.gauge("replication_lag_seconds", &[("link", "x")])
            .set(0.5);
        let h = reg.histogram("query_seconds", &[("table", "jobfact")]);
        h.observe(0.5e-9); // bucket 0 (le 1e-9)
        h.observe(1.5e-9); // bucket 1 (le 2e-9)
        h.observe(3.0e-9); // bucket 2 (le 4e-9)
        reg
    }

    #[test]
    fn prometheus_text_snapshot_is_stable() {
        let expected = "\
# TYPE events_applied_total counter
events_applied_total{link=\"x\"} 7
events_applied_total{link=\"y\"} 3
# TYPE replication_lag_seconds gauge
replication_lag_seconds{link=\"x\"} 0.5
# TYPE query_seconds histogram
query_seconds_bucket{table=\"jobfact\",le=\"0.000000001\"} 1
query_seconds_bucket{table=\"jobfact\",le=\"0.000000002\"} 2
query_seconds_bucket{table=\"jobfact\",le=\"0.000000004\"} 3
query_seconds_bucket{table=\"jobfact\",le=\"+Inf\"} 3
query_seconds_sum{table=\"jobfact\"} 0.000000005
query_seconds_count{table=\"jobfact\"} 3
";
        assert_eq!(sample_registry().prometheus_text(), expected);
        // And it is idempotent: rendering twice gives the same bytes.
        let reg = sample_registry();
        assert_eq!(reg.prometheus_text(), reg.prometheus_text());
    }

    #[test]
    fn disabled_registry_renders_empty() {
        let reg = MetricsRegistry::disabled();
        assert_eq!(reg.prometheus_text(), "");
        assert_eq!(
            reg.json(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[],\"events\":[]}"
        );
    }

    #[test]
    fn json_contains_every_section_and_escapes() {
        let reg = sample_registry();
        reg.event_with(
            "replication.error",
            "link \"x\"\nbroke",
            &[("attempt", 2.0)],
        );
        let json = reg.json();
        assert!(json.starts_with("{\"counters\":["));
        assert!(json.contains("\"name\":\"events_applied_total\""));
        assert!(json.contains("\"labels\":{\"link\":\"x\"}"));
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("link \\\"x\\\"\\nbroke"));
        assert!(json.contains("\"attempt\":2"));
        assert!(json.ends_with("]}"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_enabled_registry_renders_empty_sections() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.prometheus_text(), "");
        assert_eq!(
            reg.json(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[],\"events\":[]}"
        );
    }

    #[test]
    fn escape_label_handles_specials() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    /// splitmix64: the tests' own deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    const HOSTILE: &[&str] = &[
        "",
        "x",
        "jobfact",
        "a\"b",
        "back\\slash",
        "line\nbreak",
        "\r\t\u{0}\u{8}\u{b}\u{c}\u{1f}\u{7f}",
        "é→😀",
        "\"\"",
        "\\\"\n",
        "le",
        "+Inf",
    ];

    const FLOATS: &[f64] = &[
        0.0,
        -0.0,
        0.5,
        0.1 + 0.2,
        1e-300,
        1e300,
        -2.5,
        123456789.125,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
    ];

    fn labels(rng: &mut Rng) -> Vec<(String, String)> {
        let n = rng.below(4);
        let keys = ["link", "path", "satellite", "table", "le"];
        let mut labels: Vec<(String, String)> = (0..n)
            .map(|_| (rng.pick(&keys).to_owned(), rng.pick(HOSTILE).to_owned()))
            .collect();
        labels.sort();
        labels.dedup_by(|a, b| a.0 == b.0);
        labels
    }

    fn id(rng: &mut Rng, names: &[&str]) -> MetricId {
        MetricId {
            name: rng.pick(names).to_owned(),
            labels: labels(rng),
            memo: OnceLock::new(),
        }
    }

    /// A snapshot with hostile label values, label-less ids, non-finite
    /// values, empty and top-bucket histograms, the synthetic dropped
    /// counter and events with escapes everywhere.
    fn hostile_snapshot(seed: u64) -> RegistrySnapshot {
        let mut rng = Rng(seed);
        let reg = MetricsRegistry::with_event_capacity(4);
        let names = ["", "m", "xdmod_apply_seconds", "shared", "a\"b\\c\nd"];
        for _ in 0..rng.below(12) {
            let id = id(&mut rng, &names);
            let labels: Vec<(&str, &str)> = id
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match rng.below(3) {
                0 => reg
                    .counter(&id.name, &labels)
                    .add(rng.next() >> rng.below(64)),
                1 => reg
                    .gauge(&id.name, &labels)
                    .set(FLOATS[rng.below(FLOATS.len())]),
                _ => {
                    let h = reg.histogram(&id.name, &labels);
                    for _ in 0..rng.below(6) {
                        // 1e-12 .. 1e11: every bucket up to the top one (63).
                        h.observe(10f64.powi(rng.below(24) as i32 - 12) * 1.5);
                    }
                }
            }
        }
        reg.counter("shared", &[]).inc();
        reg.gauge("shared", &[]).set(f64::NEG_INFINITY);
        reg.histogram("empty_seconds", &[("table", "")]);
        reg.histogram("top_seconds", &[]).observe(1e12);
        for _ in 0..rng.below(8) + 5 {
            let fields: Vec<(&str, f64)> = (0..rng.below(3))
                .map(|_| (rng.pick(HOSTILE), FLOATS[rng.below(FLOATS.len())]))
                .collect();
            reg.event_with(rng.pick(HOSTILE), rng.pick(HOSTILE), &fields);
        }
        let mut snap = reg.snapshot();
        // Values no instrument produces, but the snapshot is public.
        let mut odd = HistogramSnapshot::default();
        odd.buckets[BUCKETS - 1] = u64::MAX;
        odd.count = u64::MAX;
        odd.sum = f64::INFINITY;
        odd.max = f64::NAN;
        snap.histograms
            .push((Arc::new(MetricId::new("zz_odd", &[("k", "\u{1}")])), odd));
        snap
    }

    #[test]
    fn both_formats_match_the_reference_renderers_byte_for_byte() {
        for seed in 0..200 {
            let snap = hostile_snapshot(seed);
            assert!(snap
                .counter("telemetry_events_dropped_total", &[])
                .is_some());
            assert_eq!(
                snap.prometheus_text(),
                reference::prometheus_text(&snap),
                "seed {seed}"
            );
            assert_eq!(snap.json(), reference::json(&snap), "seed {seed}");
            for (id, _) in &snap.counters {
                assert_eq!(id.render(), reference::render(id), "seed {seed}");
            }
        }
        let sample = sample_registry().snapshot();
        assert_eq!(
            sample.prometheus_text(),
            reference::prometheus_text(&sample)
        );
        assert_eq!(sample.json(), reference::json(&sample));
        let empty = RegistrySnapshot::default();
        assert_eq!(empty.prometheus_text(), reference::prometheus_text(&empty));
        assert_eq!(empty.json(), reference::json(&empty));
    }

    #[test]
    fn le_tails_are_the_shortest_round_trip_of_each_bucket_upper() {
        let le = le_tails().each_ref().map(|tail| tail.strip_suffix("\"} "));
        for (i, s) in le.iter().enumerate() {
            assert_eq!(*s, Some(&*format!("{}", bucket_upper(i))), "bucket {i}");
            assert_eq!(*s, Some(&*reference::fmt_f64(bucket_upper(i))));
        }
        assert_eq!(le[0], Some("0.000000001"));
        assert_eq!(INF_TAIL.strip_suffix("\"} "), Some("+Inf"));
    }

    #[test]
    fn le_tails_keep_the_bytes_of_the_powi_bounds() {
        use crate::histogram::MIN_BOUND;
        for (i, tail) in le_tails().iter().enumerate() {
            let powi = MIN_BOUND * 2f64.powi(i as i32);
            assert_eq!(*tail, format!("{powi}\"}} "), "bucket {i}");
        }
    }

    /// Every id of `snap` as a fresh clone, not yet rendered.
    fn cloned(snap: &RegistrySnapshot) -> RegistrySnapshot {
        let fresh = |id: &Arc<MetricId>| Arc::new(MetricId::clone(id));
        RegistrySnapshot {
            counters: snap
                .counters
                .iter()
                .map(|(id, v)| (fresh(id), *v))
                .collect(),
            gauges: snap.gauges.iter().map(|(id, v)| (fresh(id), *v)).collect(),
            histograms: snap
                .histograms
                .iter()
                .map(|(id, h)| (fresh(id), h.clone()))
                .collect(),
            events: snap.events.clone(),
        }
    }

    #[test]
    fn memoized_ids_render_the_reference_bytes_on_every_exposition() {
        for seed in 0..100 {
            let snap = hostile_snapshot(seed);
            let (text, json) = (reference::prometheus_text(&snap), reference::json(&snap));
            for _ in 0..3 {
                assert_eq!(snap.prometheus_text(), text, "seed {seed}");
                assert_eq!(snap.json(), json, "seed {seed}");
            }
            let ids = snap.counters.iter().map(|(id, _)| id);
            let ids = ids.chain(snap.gauges.iter().map(|(id, _)| id));
            for id in ids.chain(snap.histograms.iter().map(|(id, _)| id)) {
                assert!(id.memo.get().is_some(), "seed {seed}: {id:?} not memoized");
                assert_eq!(id.render(), reference::render(id), "seed {seed}");
                let clone = MetricId::clone(id);
                assert!(clone.memo.get().is_none());
                assert_eq!(clone.render(), reference::render(id), "seed {seed}");
            }
            // Clones of rendered ids, rendered in the other order.
            let clones = cloned(&snap);
            assert_eq!(clones.json(), json, "seed {seed}");
            assert_eq!(clones.prometheus_text(), text, "seed {seed}");
            assert_eq!(cloned(&clones).prometheus_text(), text, "seed {seed}");
        }
    }
}
