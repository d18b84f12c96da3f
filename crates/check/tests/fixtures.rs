//! Table-driven fixture tests: one known-bad topology config per
//! diagnostic code (asserting the code fires and the span names the
//! offender), plus a clean config asserting zero diagnostics. Every
//! fixture goes through the full stack — JSON text → model → analyzer —
//! the same path the `xdmod-check` binary drives.

use xdmod_check::{analyze, Code, Diagnostics, FederationModel, Severity};

fn run(config: &str) -> Diagnostics {
    let model = FederationModel::from_json(config).expect("fixture config parses");
    analyze(&model)
}

/// A satellite entry with a full jobfact catalog, splice-customized per
/// fixture via the `extra` field (must start with "," when non-empty).
fn satellite(name: &str, extra: &str) -> String {
    format!(
        r#"{{
            "name": "{name}",
            "realms": ["jobs"],
            "replicated_tables": ["jobfact"],
            "job_resources": ["res-{name}"],
            "su_factors": ["res-{name}"],
            "tables": [{{
                "name": "jobfact",
                "columns": [
                    {{"name": "resource", "type": "str"}},
                    {{"name": "queue", "type": "str"}},
                    {{"name": "end_time", "type": "time"}},
                    {{"name": "cpu_hours", "type": "float"}}
                ]
            }}]
            {extra}
        }}"#
    )
}

fn config(satellites: &[String]) -> String {
    format!(
        r#"{{
            "hub": "hub",
            "satellites": [{}],
            "aggregates": [{{
                "name": "jobs",
                "fact_table": "jobfact",
                "time_column": "end_time",
                "dimensions": ["resource", "queue"],
                "measures": ["cpu_hours"]
            }}],
            "group_bys": [{{
                "name": "usage by resource",
                "fact_table": "jobfact",
                "columns": ["resource"]
            }}]
        }}"#,
        satellites.join(",")
    )
}

struct Fixture {
    /// The code this fixture must produce (and the clean config must not).
    code: Code,
    /// Full config document.
    config: String,
    /// Substring the offending diagnostic's span must render to.
    span_contains: &'static str,
}

fn fixtures() -> Vec<Fixture> {
    vec![
        // XC0001: distinct names, same sanitized hub schema.
        Fixture {
            code: Code::HubSchemaCollision,
            config: config(&[satellite("site-a", ""), satellite("site.a", "")]),
            span_contains: "schema:inst_site_a",
        },
        // XC0002: link renames into its own source schema.
        Fixture {
            code: Code::SelfReplication,
            config: config(&[satellite(
                "a",
                r#", "source_schema": "xdmod_a", "hub_schema": "xdmod_a""#,
            )]),
            span_contains: "satellite:a",
        },
        // XC0003: two links share an id.
        Fixture {
            code: Code::DuplicateLinkId,
            config: config(&[
                satellite("a", r#", "link_id": "shared""#),
                satellite("b", r#", "link_id": "shared""#),
            ]),
            span_contains: "satellite:b",
        },
        // XC0004: declares jobs, but the filter passes nothing.
        Fixture {
            code: Code::FilteredRequiredTable,
            config: config(&[satellite("a", r#", "replicated_tables": []"#)
                .replace(r#""replicated_tables": ["jobfact"],"#, "")]),
            span_contains: "table:jobfact",
        },
        // XC0004 again, with no table list: build replicates only the
        // jobs realm's tables, not the storagefact the satellite expects.
        Fixture {
            code: Code::FilteredRequiredTable,
            config: include_str!("../../../examples/configs/known_bad_realm_selection.json")
                .to_owned(),
            span_contains: "table:storagefact",
        },
        // XC0005: the hub group-by reads a table nobody replicates.
        Fixture {
            code: Code::GroupByFactTableUnreplicated,
            config: config(&[satellite("a", "")
                .replace(r#""realms": ["jobs"]"#, r#""realms": []"#)
                .replace(
                    r#""replicated_tables": ["jobfact"]"#,
                    r#""replicated_tables": ["storagefact"]"#,
                )]),
            span_contains: "table:jobfact",
        },
        // XC0006: cpu_hours is float on a, int on b.
        Fixture {
            code: Code::SchemaDrift,
            config: config(&[
                satellite("a", ""),
                satellite("b", "").replace(
                    r#"{"name": "cpu_hours", "type": "float"}"#,
                    r#"{"name": "cpu_hours", "type": "int"}"#,
                ),
            ]),
            span_contains: "column:cpu_hours",
        },
        // XC0007: the group-by names a column jobfact does not have.
        Fixture {
            code: Code::DanglingDimension,
            config: config(&[satellite("a", "")])
                .replace(r#""columns": ["resource"]"#, r#""columns": ["resoruce"]"#),
            span_contains: "column:resoruce",
        },
        // XC0008: job records on res-a, but no SU factor for it.
        Fixture {
            code: Code::MissingSuFactor,
            config: config(&[satellite("a", "").replace(r#""su_factors": ["res-a"],"#, "")]),
            span_contains: "column:res-a",
        },
        // XC0009: exclusion names a resource with no job records.
        Fixture {
            code: Code::UnknownExcludedResource,
            config: config(&[satellite(
                "a",
                r#", "excluded_resources": ["secert-cluster"]"#,
            )]),
            span_contains: "column:secert-cluster",
        },
        // XC0010: a live link with fast-retry explicitly disabled.
        Fixture {
            code: Code::ZeroRetryTightLink,
            config: config(&[satellite("a", r#", "mode": "tight", "retries": 0"#)]),
            span_contains: "satellite:a",
        },
        // XC0011: more aggregation workers than day-bucket shards.
        Fixture {
            code: Code::OversizedAggregationPool,
            config: config(&[satellite("a", "")]).replace(
                r#""hub": "hub","#,
                r#""hub": "hub", "aggregation": {"workers": 16, "shards": 4},"#,
            ),
            span_contains: "federation",
        },
        // XC0012: more gateway request workers than aggregation workers.
        Fixture {
            code: Code::GatewayPoolExceedsAggregation,
            config: config(&[satellite("a", "")]).replace(
                r#""hub": "hub","#,
                r#""hub": "hub",
                   "aggregation": {"workers": 4, "shards": 8},
                   "gateway": {"workers": 12},"#,
            ),
            span_contains: "federation",
        },
        // XC0013: alert rule for a family nobody emits, resolving inside
        // its own flap window, dispatching into a zero-capacity bucket.
        Fixture {
            code: Code::AlertRuleInvalid,
            config: config(&[satellite("a", "")]).replace(
                r#""hub": "hub","#,
                r#""hub": "hub",
                   "alerts": {
                       "notify_capacity": 0,
                       "rules": [
                           {"family": "disk_full"},
                           {"family": "link_down",
                            "debounce_ms": 10000, "resolve_timeout_ms": 10000}
                       ]
                   },"#,
            ),
            span_contains: "federation",
        },
        // XC0014: storage stanza that silently leaves the hub on the
        // memory backend (disk with no dir) and disables auto-snapshots.
        Fixture {
            code: Code::StorageConfigInvalid,
            config: config(&[satellite("a", "")]).replace(
                r#""hub": "hub","#,
                r#""hub": "hub",
                   "storage": {"backend": "disk", "snapshot_every_records": 0},"#,
            ),
            span_contains: "federation",
        },
        // XC0015: paging over the memory backend (no log to repair a lost
        // spill file from) with a budget no shard fits in.
        Fixture {
            code: Code::PagingConfigInvalid,
            config: config(&[satellite("a", "")]).replace(
                r#""hub": "hub","#,
                r#""hub": "hub",
                   "storage": {"backend": "memory",
                               "paging": {"budget_mb": 0, "pages_per_table": 8}},"#,
            ),
            span_contains: "federation",
        },
    ]
}

#[test]
fn every_code_has_a_fixture() {
    let covered: Vec<Code> = fixtures().iter().map(|f| f.code).collect();
    for code in Code::ALL {
        assert!(covered.contains(&code), "no known-bad fixture for {code}");
    }
}

#[test]
fn known_bad_fixtures_produce_their_code_with_the_right_span() {
    for fixture in fixtures() {
        let diags = run(&fixture.config);
        let found = diags.with_code(fixture.code);
        assert!(
            !found.is_empty(),
            "{} fixture produced no {} diagnostic; got:\n{}",
            fixture.code,
            fixture.code,
            diags.render_text()
        );
        assert!(
            found
                .iter()
                .any(|d| d.span.to_string().contains(fixture.span_contains)),
            "{}: no span containing {:?}; spans: {:?}",
            fixture.code,
            fixture.span_contains,
            found.iter().map(|d| d.span.to_string()).collect::<Vec<_>>()
        );
        // Severity matches the code's contract.
        for d in found {
            assert_eq!(d.severity, fixture.code.default_severity());
        }
    }
}

#[test]
fn known_bad_fixtures_do_not_leak_unrelated_errors() {
    // Each bad fixture is minimal: it may cascade into related findings
    // (documented pairs below), but must not fire *error* codes outside
    // its cascade set.
    let allowed_cascades: &[(Code, &[Code])] = &[
        // Filtering everything out also starves the hub group-by.
        (
            Code::FilteredRequiredTable,
            &[Code::GroupByFactTableUnreplicated],
        ),
    ];
    for fixture in fixtures() {
        let diags = run(&fixture.config);
        let allowed: Vec<Code> = std::iter::once(fixture.code)
            .chain(
                allowed_cascades
                    .iter()
                    .filter(|(c, _)| *c == fixture.code)
                    .flat_map(|(_, extra)| extra.iter().copied()),
            )
            .collect();
        for d in diags.items() {
            if d.severity == Severity::Error {
                assert!(
                    allowed.contains(&d.code),
                    "{} fixture leaked unrelated error {}: {}",
                    fixture.code,
                    d.code,
                    d.message
                );
            }
        }
    }
}

#[test]
fn clean_config_produces_zero_diagnostics() {
    let diags = run(&config(&[satellite("a", ""), satellite("b", "")]));
    assert!(
        diags.is_empty(),
        "clean config produced:\n{}",
        diags.render_text()
    );
    assert!(!diags.has_errors());
    assert_eq!(diags.summary(), "0 error(s), 0 warning(s), 0 info");
}

#[test]
fn error_fixtures_gate_go_live_warnings_do_not() {
    for fixture in fixtures() {
        let diags = run(&fixture.config);
        match fixture.code.default_severity() {
            Severity::Error => assert!(diags.has_errors(), "{} should gate go_live", fixture.code),
            _ => assert!(
                !diags.has_errors(),
                "{} must not gate go_live; got:\n{}",
                fixture.code,
                diags.render_text()
            ),
        }
    }
}

#[test]
fn json_rendering_round_trips_through_the_parser() {
    for fixture in fixtures() {
        let diags = run(&fixture.config);
        let rendered = diags.render_json();
        let doc = xdmod_check::json::parse(&rendered).expect("render_json emits valid JSON");
        let mut items = doc
            .get("diagnostics")
            .and_then(|v| v.as_array())
            .expect("diagnostics array");
        assert_eq!(items.len(), diags.len());
        assert!(items.any(|item| {
            item.get("code").and_then(|c| c.as_str()) == Some(fixture.code.ident())
        }));
    }
}
