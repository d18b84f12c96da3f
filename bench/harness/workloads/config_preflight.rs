//! `config_preflight`: the static pre-flight `go_live` gates on.
//!
//! An operation is `json::parse` → `FederationModel::from_json` →
//! `analyze` on one generated topology; a rep cycles topologies of 3, 30
//! and 300 satellites (about 3 KB, 30 KB and 300 KB of JSON). Each
//! topology is clean except for a known number of injected faults: pairs
//! of satellites whose names sanitize to one hub schema (XC0001) and
//! satellites whose filter drops a table their realm requires (XC0004).
//!
//! Output check: every analysis reports exactly the injected number of
//! each code and nothing else.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use xdmod_chaos::DeterministicRng;
use xdmod_check::{analyze, json, Code, FederationModel};

use super::{lat, Ctx, RepOut, Timed, Workload};
use crate::metrics::Metrics;
use crate::stats::quantile;
use crate::trace::{Collector, Trace};

/// Satellites per topology, and the faults of each kind injected into it.
const SIZES: [(usize, usize); 3] = [(3, 1), (30, 3), (300, 10)];

struct Topology {
    text: String,
    collisions: usize,
    filtered: usize,
}

pub struct ConfigPreflight {
    topologies: Vec<Topology>,
    diagnostics: u64,
}

const JOBFACT_COLUMNS: &str = r#"{"name": "resource", "type": "str"},
            {"name": "queue", "type": "str"},
            {"name": "user", "type": "str"},
            {"name": "end_time", "type": "time"},
            {"name": "cpu_hours", "type": "float"},
            {"name": "su_charged", "type": "float"}"#;
const STORAGEFACT_COLUMNS: &str = r#"{"name": "resource", "type": "str"},
            {"name": "mountpoint", "type": "str"},
            {"name": "measured_at", "type": "time"},
            {"name": "bytes_used", "type": "int"}"#;

fn satellite(out: &mut String, name: &str, resources: &[String], drop_jobfact: bool) {
    let quoted = resources
        .iter()
        .map(|r| format!("\"{r}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let replicated = if drop_jobfact {
        "\"storagefact\""
    } else {
        "\"jobfact\", \"storagefact\""
    };
    let _ = write!(
        out,
        r#"    {{
      "name": "{name}",
      "realms": ["jobs", "storage"],
      "replicated_tables": [{replicated}],
      "mode": "loose",
      "retries": 3,
      "job_resources": [{quoted}],
      "su_factors": [{quoted}],
      "tables": [
        {{
          "name": "jobfact",
          "columns": [
            {JOBFACT_COLUMNS}
          ]
        }},
        {{
          "name": "storagefact",
          "columns": [
            {STORAGEFACT_COLUMNS}
          ]
        }}
      ]
    }}"#
    );
}

fn topology(rng: &mut DeterministicRng, satellites: usize, faults: usize) -> Topology {
    // The last `faults` satellites are the dotted twins of seeded picks
    // among the first ones: `site-017` and `site.017` share `inst_site_017`.
    let originals = satellites - faults;
    let mut twins = Vec::new();
    let mut filtered = Vec::new();
    while twins.len() < faults {
        let pick = rng.gen_range(0, originals as u64) as usize;
        if !twins.contains(&pick) {
            twins.push(pick);
        }
    }
    while filtered.len() < faults {
        let pick = rng.gen_range(0, originals as u64) as usize;
        if !filtered.contains(&pick) {
            filtered.push(pick);
        }
    }
    let mut text = String::from("{\n  \"hub\": \"ccr-hub\",\n  \"satellites\": [\n");
    for i in 0..satellites {
        let (name, index) = if i < originals {
            (format!("site-{i:03}"), i)
        } else {
            (format!("site.{:03}", twins[i - originals]), i)
        };
        let resources: Vec<String> = (0..rng.gen_range(1, 4))
            .map(|r| format!("res-{index:03}-{r}"))
            .collect();
        satellite(
            &mut text,
            &name,
            &resources,
            i < originals && filtered.contains(&i),
        );
        text.push_str(if i + 1 < satellites { ",\n" } else { "\n" });
    }
    text.push_str(
        r#"  ],
  "aggregates": [
    {"name": "jobs", "fact_table": "jobfact", "time_column": "end_time",
     "dimensions": ["resource", "queue", "user"], "measures": ["cpu_hours", "su_charged"]},
    {"name": "storage", "fact_table": "storagefact", "time_column": "measured_at",
     "dimensions": ["resource", "mountpoint"], "measures": ["bytes_used"]}
  ],
  "group_bys": [
    {"name": "su consumption by resource", "fact_table": "jobfact", "columns": ["resource", "su_charged"]},
    {"name": "bytes by mountpoint", "fact_table": "storagefact", "columns": ["mountpoint", "bytes_used"]}
  ]
}
"#,
    );
    Topology {
        text,
        collisions: faults,
        filtered: faults,
    }
}

impl ConfigPreflight {
    /// One pre-flight; returns the diagnostics found, or `None` when the
    /// outcome is not the injected one.
    fn preflight(topology: &Topology, op: u64, tr: &mut Trace) -> Option<u64> {
        tr.begin("op", op);
        let parsed = tr.leaf("check.json_parse", op, || json::parse(&topology.text));
        let model = tr.leaf("check.model_build", op, || {
            FederationModel::from_json(&topology.text)
        });
        let diags = model
            .as_ref()
            .ok()
            .map(|model| tr.leaf("check.analyze", op, || analyze(model)));
        tr.end();
        let diags = diags?;
        let expected = parsed.is_ok()
            && diags.with_code(Code::HubSchemaCollision).len() == topology.collisions
            && diags.with_code(Code::FilteredRequiredTable).len() == topology.filtered
            && diags.len() == topology.collisions + topology.filtered;
        expected.then_some(diags.len() as u64)
    }
}

impl Workload for ConfigPreflight {
    fn setup(seed: u64, _work: &Path) -> Self {
        let mut rng = DeterministicRng::new(seed ^ 0x7072_6566_6c69_6768);
        let this = ConfigPreflight {
            topologies: SIZES
                .iter()
                .map(|(satellites, faults)| topology(&mut rng, *satellites, *faults))
                .collect(),
            diagnostics: 0,
        };
        // Warm-up: one pass over every size.
        let mut tr = Trace::new(false, Instant::now(), 0);
        for t in &this.topologies {
            let _ = Self::preflight(t, 0, &mut tr);
        }
        this
    }

    fn rep(&mut self, ctx: &mut Ctx) -> RepOut {
        let mut timed = Timed::default();
        let mut tr = Trace::new(ctx.trace_on, ctx.t0, 8);
        let (mut ops, mut failed, mut payload) = (0, 0, 0);
        self.diagnostics = 0;
        timed.start();
        for topology in &self.topologies {
            let begin = Instant::now();
            let found = Self::preflight(topology, ops, &mut tr);
            let latency = lat(begin.elapsed().as_nanos() as u64);
            ctx.lat_ns.push(latency);
            timed.program(u64::from(latency));
            ops += 1;
            payload += topology.text.len() as u64;
            match found {
                Some(n) => self.diagnostics += n,
                None => failed += 1,
            }
            if ctx.trace_on {
                ctx.collector.absorb(&mut tr);
            }
        }
        timed.out(ops, failed, payload)
    }

    fn layers(&mut self, spans: &Collector, _budget: Duration, m: &mut Metrics) {
        let parse = spans.get("check.json_parse");
        let build = spans.get("check.model_build");
        let analyze = spans.get("check.analyze");
        let cycle_bytes: usize = self.topologies.iter().map(|t| t.text.len()).sum();
        // Every size is parsed equally often, so bytes follow the count.
        let bytes = cycle_bytes as f64 * parse.count as f64 / self.topologies.len() as f64;
        m.set(
            "check.json_parse_mb_per_s",
            bytes / 1e6 / (parse.total_ns as f64 / 1e9),
        );
        // `from_json` parses the text itself before it builds the model:
        // building is what it takes beyond the parse of the same text,
        // as the median over operations.
        let beyond_parse: Vec<u32> = build
            .durations
            .iter()
            .zip(&parse.durations)
            .map(|(b, p)| b.saturating_sub(*p))
            .collect();
        m.set("check.model_build_us", quantile(&beyond_parse, 0.5) / 1e3);
        m.set("check.analyze_us", analyze.mean_ns() / 1e3);
        m.set("check.diagnostics", self.diagnostics as f64);
        m.set(
            "check.allocs_per_kib",
            (parse.allocs + build.allocs + analyze.allocs) as f64 / (bytes / 1024.0),
        );
    }
}
