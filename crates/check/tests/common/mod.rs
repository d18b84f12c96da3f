//! Documents the JSON tests share: topologies shaped like the ones the
//! `go_live` pre-flight reads.

/// A federation document with `satellites` satellites, each declaring two
/// realms, filters, resources and two tables of columns, then the
/// aggregates and group-bys that read them: 1 KB of indented JSON per
/// satellite, without a string escape.
pub fn topology(satellites: usize) -> String {
    let mut text = String::from("{\n  \"hub\": \"ccr-hub\",\n  \"satellites\": [\n");
    for i in 0..satellites {
        let resources: Vec<String> = (0..1 + i % 3)
            .map(|r| format!("\"res-{i:03}-{r}\""))
            .collect();
        let resources = resources.join(", ");
        let replicated = if i % 7 == 3 {
            "\"storagefact\""
        } else {
            "\"jobfact\", \"storagefact\""
        };
        text.push_str(&format!(
            r#"    {{
      "name": "site-{i:03}",
      "realms": ["jobs", "storage"],
      "replicated_tables": [{replicated}],
      "mode": "loose",
      "retries": 3,
      "job_resources": [{resources}],
      "su_factors": [{resources}],
      "tables": [
        {{
          "name": "jobfact",
          "columns": [
            {{"name": "resource", "type": "str"}},
            {{"name": "queue", "type": "str"}},
            {{"name": "user", "type": "str"}},
            {{"name": "end_time", "type": "time"}},
            {{"name": "cpu_hours", "type": "float"}},
            {{"name": "su_charged", "type": "float", "nullable": false}}
          ]
        }},
        {{
          "name": "storagefact",
          "columns": [
            {{"name": "resource", "type": "str"}},
            {{"name": "mountpoint", "type": "str"}},
            {{"name": "measured_at", "type": "time"}},
            {{"name": "bytes_used", "type": "int"}}
          ]
        }}
      ]
    }}"#
        ));
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
  ],
  "aggregation": {"workers": 2, "shards": 4},
  "telemetry": {"event_capacity": null}
}
"#,
    );
    text
}
