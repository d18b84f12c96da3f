//! Storage-realm JSON ingestion with schema validation.
//!
//! "Storage data will be acquired from monitoring tools (e.g. TACC Stats,
//! PCP) or filesystem APIs, then populated in a fashion independent of
//! the storage filesystem. Data from filesystems such as Isilon, GPFS,
//! Lustre, and Ceph can be accommodated; installations must only ensure
//! their data validates against our provided JSON schema." (§III-A)
//!
//! The document format is a JSON array of sample objects; [`FieldSpec`]
//! is the hand-rolled schema validator (types, required-ness, and
//! non-negativity), and [`shred`] converts valid documents into
//! `storagefact` rows, deriving `quota_utilization` on the way.

use crate::report::{IngestError, IngestReport, Result};
use xdmod_check::json::{self, JsonValue};
use xdmod_warehouse::time::parse_iso_datetime;
use xdmod_warehouse::{Row, Value};

/// Kinds a schema field may have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// UTF-8 string.
    Str,
    /// Non-negative integer.
    Count,
    /// Non-negative float (GB values).
    Gauge,
    /// ISO datetime string `YYYY-MM-DDTHH:MM:SS`.
    Timestamp,
}

/// One field of the provided JSON schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// JSON object key.
    pub name: &'static str,
    /// Expected kind.
    pub kind: FieldKind,
    /// Whether the field must be present.
    pub required: bool,
}

/// The provided storage-sample schema.
pub const STORAGE_SCHEMA: [FieldSpec; 12] = [
    FieldSpec {
        name: "ts",
        kind: FieldKind::Timestamp,
        required: true,
    },
    FieldSpec {
        name: "filesystem",
        kind: FieldKind::Str,
        required: true,
    },
    FieldSpec {
        name: "mountpoint",
        kind: FieldKind::Str,
        required: true,
    },
    FieldSpec {
        name: "resource_type",
        kind: FieldKind::Str,
        required: true,
    },
    FieldSpec {
        name: "user",
        kind: FieldKind::Str,
        required: true,
    },
    FieldSpec {
        name: "pi",
        kind: FieldKind::Str,
        required: true,
    },
    FieldSpec {
        name: "system_username",
        kind: FieldKind::Str,
        required: true,
    },
    FieldSpec {
        name: "file_count",
        kind: FieldKind::Count,
        required: true,
    },
    FieldSpec {
        name: "logical_usage_gb",
        kind: FieldKind::Gauge,
        required: true,
    },
    FieldSpec {
        name: "physical_usage_gb",
        kind: FieldKind::Gauge,
        required: true,
    },
    FieldSpec {
        name: "soft_quota_gb",
        kind: FieldKind::Gauge,
        required: false,
    },
    FieldSpec {
        name: "hard_quota_gb",
        kind: FieldKind::Gauge,
        required: false,
    },
];

/// Validate a single sample object against [`STORAGE_SCHEMA`]. Returns
/// its fields as warehouse values in schema order (`Null` for an absent
/// optional field), or the first violation.
pub fn validate_sample(obj: JsonValue, record: usize) -> Result<Row> {
    let Some(members) = obj.members() else {
        return Err(IngestError::at(record, "sample is not a JSON object"));
    };
    // One spare slot: `shred` appends the derived quota utilization.
    let mut fields = Vec::with_capacity(STORAGE_SCHEMA.len() + 1);
    for spec in &STORAGE_SCHEMA {
        let value = match obj.get(spec.name) {
            Some(v) if !v.is_null() => v,
            _ => {
                if spec.required {
                    return Err(IngestError::at(
                        record,
                        format!("missing required field {}", spec.name),
                    ));
                }
                fields.push(Value::Null);
                continue;
            }
        };
        let field = match spec.kind {
            FieldKind::Str => value
                .as_str()
                .filter(|s| !s.is_empty())
                .map(|s| Value::Str(s.to_owned())),
            FieldKind::Count => value.as_i64().filter(|n| *n >= 0).map(Value::Int),
            FieldKind::Gauge => value
                .as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .map(Value::Float),
            FieldKind::Timestamp => value.as_str().and_then(parse_iso_datetime).map(Value::Time),
        };
        let Some(field) = field else {
            return Err(IngestError::at(
                record,
                format!(
                    "field {} fails {:?} validation: {value}",
                    spec.name, spec.kind
                ),
            ));
        };
        fields.push(field);
    }
    // Unknown keys are rejected: the paper's contract is "validates
    // against our provided JSON schema", and silent extra fields usually
    // indicate a collector/schema version skew. Of several, the
    // alphabetically first is named.
    let unknown = members
        .map(|(key, _)| key)
        .filter(|key| !STORAGE_SCHEMA.iter().any(|s| s.name == *key))
        .min();
    if let Some(key) = unknown {
        return Err(IngestError::at(record, format!("unknown field {key}")));
    }
    // Cross-field rule: hard quota must not be below soft quota.
    if let (Some(soft), Some(hard)) = (
        gauge(&fields, "soft_quota_gb"),
        gauge(&fields, "hard_quota_gb"),
    ) {
        if hard < soft {
            return Err(IngestError::at(record, "hard_quota_gb below soft_quota_gb"));
        }
    }
    Ok(fields)
}

/// The vetted gauge `name` of a sample, `None` when absent.
fn gauge(fields: &[Value], name: &str) -> Option<f64> {
    let i = STORAGE_SCHEMA.iter().position(|s| s.name == name)?;
    match fields[i] {
        Value::Float(x) => Some(x),
        _ => None,
    }
}

/// Parse and validate a storage document, producing `storagefact` rows.
///
/// `quota_utilization` is derived as `logical_usage_gb / soft_quota_gb`
/// when a soft quota is present (NULL otherwise — scratch filesystems).
pub fn shred(document: &str) -> Result<(Vec<Row>, IngestReport)> {
    let json =
        json::parse(document).map_err(|e| IngestError::whole(format!("invalid JSON: {e}")))?;
    let samples = json
        .root()
        .as_array()
        .ok_or_else(|| IngestError::whole("document must be a JSON array of samples"))?;
    let mut rows = Vec::with_capacity(samples.len());
    for (i, sample) in samples.enumerate() {
        let mut row = validate_sample(sample, i + 1)?;
        let utilization = match (
            gauge(&row, "logical_usage_gb"),
            gauge(&row, "soft_quota_gb"),
        ) {
            (Some(logical), Some(soft)) if soft > 0.0 => Value::Float(logical / soft),
            _ => Value::Null,
        };
        row.push(utilization);
        rows.push(row);
    }
    let report = IngestReport {
        ingested: rows.len(),
        ..IngestReport::default()
    };
    Ok((rows, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A valid sample as `(key, JSON literal)` members.
    fn sample() -> Vec<(&'static str, &'static str)> {
        vec![
            ("ts", r#""2017-03-31T23:59:00""#),
            ("filesystem", r#""isilon-home""#),
            ("mountpoint", r#""/home""#),
            ("resource_type", r#""persistent""#),
            ("user", r#""alice""#),
            ("pi", r#""prof_smith""#),
            ("system_username", r#""alice01""#),
            ("file_count", "120000"),
            ("logical_usage_gb", "51.5"),
            ("physical_usage_gb", "64.0"),
            ("soft_quota_gb", "100.0"),
            ("hard_quota_gb", "120.0"),
        ]
    }

    fn with(
        mut s: Vec<(&'static str, &'static str)>,
        key: &'static str,
        literal: &'static str,
    ) -> Vec<(&'static str, &'static str)> {
        s.retain(|(k, _)| *k != key);
        s.push((key, literal));
        s
    }

    fn without(
        mut s: Vec<(&'static str, &'static str)>,
        key: &str,
    ) -> Vec<(&'static str, &'static str)> {
        s.retain(|(k, _)| *k != key);
        s
    }

    fn doc_of(samples: &[Vec<(&str, &str)>]) -> String {
        let objects: Vec<String> = samples
            .iter()
            .map(|s| {
                let members: Vec<String> = s
                    .iter()
                    .map(|(k, v)| format!("{}:{v}", json::escape(k)))
                    .collect();
                format!("{{{}}}", members.join(","))
            })
            .collect();
        format!("[{}]", objects.join(","))
    }

    fn field(row: &Row, name: &str) -> Value {
        let schema = xdmod_realms::storage::fact_schema();
        row[schema.column_index(name).unwrap()].clone()
    }

    /// The accept/reject table serde's JSON `Value` (1.x) gave each field
    /// kind, pinned across the move to `xdmod_check::json`. A Count is
    /// serde's `as_i64`: an integer token that fits an `i64`; its
    /// `parse_integer` turns `-0` into the float `-0.0`, so `-0` is no
    /// Count. A Gauge is `as_f64`, finite and not negative. Every
    /// rejection is the one record's, with one exception of serde's that
    /// is gone: `1e400` failed the whole document there ("number out of
    /// range"), and is an infinite, rejected Gauge here.
    #[test]
    fn field_kinds_accept_and_reject_as_serde_did() {
        let cases: &[(&str, &str, Option<Value>)] = &[
            ("file_count", "0", Some(Value::Int(0))),
            ("file_count", "12", Some(Value::Int(12))),
            (
                "file_count",
                "9223372036854775807",
                Some(Value::Int(i64::MAX)),
            ),
            ("file_count", "-1", None),
            ("file_count", "12.0", None),
            ("file_count", "1e3", None),
            ("file_count", "9223372036854775808", None),
            ("file_count", r#""12""#, None),
            ("file_count", "-0", None),
            ("logical_usage_gb", "0", Some(Value::Float(0.0))),
            ("logical_usage_gb", "-0", Some(Value::Float(-0.0))),
            ("logical_usage_gb", "0.5", Some(Value::Float(0.5))),
            ("logical_usage_gb", "1e3", Some(Value::Float(1000.0))),
            ("logical_usage_gb", "12", Some(Value::Float(12.0))),
            ("logical_usage_gb", "-0.5", None),
            ("logical_usage_gb", r#""1""#, None),
            ("logical_usage_gb", "1e400", None),
            (
                "ts",
                r#""2017-03-31T23:59:00""#,
                Some(Value::Time(1_491_004_740)),
            ),
            ("ts", r#""yesterday""#, None),
            ("ts", "0", None),
            ("user", r#""bob""#, Some(Value::Str("bob".into()))),
            ("user", r#""""#, None),
            ("user", "7", None),
            ("user", "[]", None),
        ];
        for (name, literal, want) in cases {
            let doc = doc_of(&[with(sample(), name, literal)]);
            match (shred(&doc), want) {
                (Ok((rows, _)), Some(want)) => {
                    let got = field(&rows[0], name);
                    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{name}={literal}");
                }
                (Err(err), None) => {
                    assert_eq!(err.line, Some(1), "{name}={literal}: {err}");
                    assert_eq!(
                        err.message,
                        format!(
                            "field {name} fails {:?} validation: {literal}",
                            STORAGE_SCHEMA
                                .iter()
                                .find(|s| s.name == *name)
                                .unwrap()
                                .kind
                        )
                    );
                }
                (got, want) => panic!("{name}={literal}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn valid_document_shreds() {
        let (rows, report) = shred(&doc_of(&[sample()])).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(report.ingested, 1);
        let schema = xdmod_realms::storage::fact_schema();
        let row = schema.check_row(rows[0].clone()).unwrap();
        let util_idx = schema.column_index("quota_utilization").unwrap();
        assert_eq!(row[util_idx], Value::Float(0.515));
    }

    #[test]
    fn quota_fields_are_optional() {
        let s = without(without(sample(), "soft_quota_gb"), "hard_quota_gb");
        let (rows, _) = shred(&doc_of(&[s])).unwrap();
        let schema = xdmod_realms::storage::fact_schema();
        let row = schema.check_row(rows[0].clone()).unwrap();
        assert_eq!(
            row[schema.column_index("soft_quota_gb").unwrap()],
            Value::Null
        );
        assert_eq!(
            row[schema.column_index("quota_utilization").unwrap()],
            Value::Null
        );
        let (nulls, _) = shred(&doc_of(&[with(sample(), "soft_quota_gb", "null")])).unwrap();
        assert_eq!(field(&nulls[0], "soft_quota_gb"), Value::Null);
    }

    #[test]
    fn missing_required_field_rejected() {
        let err = shred(&doc_of(&[without(sample(), "file_count")])).unwrap_err();
        assert!(err.message.contains("file_count"));
        assert_eq!(err.line, Some(1));
        let err = shred(&doc_of(&[with(sample(), "user", "null")])).unwrap_err();
        assert_eq!(err.message, "missing required field user");
    }

    #[test]
    fn wrong_types_rejected() {
        for (field, bad) in [
            ("file_count", "-3"),
            ("file_count", r#""lots""#),
            ("logical_usage_gb", "-1.0"),
            ("ts", r#""yesterday""#),
            ("user", r#""""#),
            ("physical_usage_gb", r#""64GB""#),
        ] {
            let err = shred(&doc_of(&[with(sample(), field, bad)])).unwrap_err();
            assert!(err.message.contains(field), "{field}={bad} accepted: {err}");
        }
    }

    #[test]
    fn unknown_fields_rejected_alphabetically_first() {
        let err = shred(&doc_of(&[with(sample(), "zetta_bytes", "1")])).unwrap_err();
        assert_eq!(err.message, "unknown field zetta_bytes");
        // serde's JSON map is a BTreeMap: of several, the first key in
        // byte order is named, wherever it stands in the document.
        let s = with(with(with(sample(), "zz", "1"), "b_extra", "2"), "Q", "3");
        let err = shred(&doc_of(&[s])).unwrap_err();
        assert_eq!(err.message, "unknown field Q");
    }

    #[test]
    fn duplicated_key_resolves_to_its_last_value() {
        let mut s = sample();
        s.push(("file_count", "7"));
        let (rows, _) = shred(&doc_of(&[s])).unwrap();
        assert_eq!(field(&rows[0], "file_count"), Value::Int(7));
    }

    #[test]
    fn hard_below_soft_rejected() {
        let err = shred(&doc_of(&[with(sample(), "hard_quota_gb", "50.0")])).unwrap_err();
        assert!(err.message.contains("hard_quota_gb below"));
    }

    #[test]
    fn error_reports_record_number() {
        let err = shred(&doc_of(&[sample(), without(sample(), "user")])).unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn non_array_document_rejected() {
        assert!(shred("{\"samples\": []}")
            .unwrap_err()
            .message
            .contains("array"));
        assert!(shred("not json at all")
            .unwrap_err()
            .message
            .contains("invalid JSON"));
        assert_eq!(
            shred("[1]").unwrap_err(),
            IngestError::at(1, "sample is not a JSON object")
        );
    }

    #[test]
    fn zero_soft_quota_yields_null_utilization() {
        let s = with(
            with(sample(), "soft_quota_gb", "0.0"),
            "hard_quota_gb",
            "0.0",
        );
        let (rows, _) = shred(&doc_of(&[s])).unwrap();
        assert_eq!(field(&rows[0], "quota_utilization"), Value::Null);
    }
}
