//! Consistency verification between satellites and the federation hub.
//!
//! "The federated hub does not alter the raw, replicated data from the
//! individual instances" (§II-B) and "all raw instance data are fully
//! replicated to the master ... so no data are lost or changed" (§II-C3).
//! This module checks that claim with order-independent table checksums,
//! and doubles as the verification step of the backup use case (§II-E4:
//! the hub "could be used to regenerate the databases for the member
//! instances").

use xdmod_warehouse::{Database, Result};

/// Outcome of one table comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableCheck {
    /// Table name.
    pub table: String,
    /// Row count on the satellite.
    pub source_rows: usize,
    /// Row count on the hub.
    pub target_rows: usize,
    /// Whether content checksums matched.
    pub matches: bool,
}

/// Compare every table of `source_schema` in `source` against
/// `target_schema` in `target`.
///
/// Tables present on the source but absent on the hub are reported as
/// mismatches with `target_rows = 0` (they may have been excluded by a
/// replication filter — the caller decides whether that's expected).
pub fn verify_schemas(
    source: &Database,
    source_schema: &str,
    target: &Database,
    target_schema: &str,
) -> Result<Vec<TableCheck>> {
    let mut out = Vec::new();
    for table in source.table_names(source_schema)? {
        let src = source.table(source_schema, table)?;
        match target.table(target_schema, table) {
            Ok(dst) => out.push(TableCheck {
                table: table.to_owned(),
                source_rows: src.len(),
                target_rows: dst.len(),
                matches: src.content_checksum() == dst.content_checksum(),
            }),
            Err(_) => out.push(TableCheck {
                table: table.to_owned(),
                source_rows: src.len(),
                target_rows: 0,
                matches: src.is_empty(),
            }),
        }
    }
    // Count verifications on the hub-side registry (falling back to the
    // satellite's), so ops can see how much checksum work each audit does.
    let telemetry = if target.telemetry().is_enabled() {
        target.telemetry()
    } else {
        source.telemetry()
    };
    if telemetry.is_enabled() {
        telemetry
            .counter("replication_checksum_checks_total", &[])
            .add(out.len() as u64);
        telemetry
            .counter("replication_checksum_mismatches_total", &[])
            .add(out.iter().filter(|c| !c.matches).count() as u64);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_warehouse::{ColumnType, SchemaBuilder, Value};

    fn all_match(src: &Database, hub: &Database) -> bool {
        verify_schemas(src, "xdmod_x", hub, "hub_x")
            .unwrap()
            .iter()
            .all(|c| c.matches)
    }

    fn db_with(schema: &str, rows: &[f64]) -> Database {
        let mut db = Database::new();
        db.create_schema(schema).unwrap();
        db.create_table(
            schema,
            SchemaBuilder::new("jobfact")
                .required("cpu_hours", ColumnType::Float)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            schema,
            "jobfact",
            rows.iter().map(|v| vec![Value::Float(*v)]).collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn identical_content_matches_across_schema_names() {
        let src = db_with("xdmod_x", &[1.0, 2.0]);
        let hub = db_with("hub_x", &[2.0, 1.0]); // order differs: still equal
        assert!(all_match(&src, &hub));
    }

    #[test]
    fn altered_content_is_detected() {
        let src = db_with("xdmod_x", &[1.0, 2.0]);
        let hub = db_with("hub_x", &[1.0, 2.5]);
        let checks = verify_schemas(&src, "xdmod_x", &hub, "hub_x").unwrap();
        assert_eq!(checks.len(), 1);
        assert!(!checks[0].matches);
        assert_eq!(checks[0].source_rows, 2);
        assert_eq!(checks[0].target_rows, 2);
    }

    #[test]
    fn missing_target_table_reported() {
        let src = db_with("xdmod_x", &[1.0]);
        let mut hub = Database::new();
        hub.create_schema("hub_x").unwrap();
        let checks = verify_schemas(&src, "xdmod_x", &hub, "hub_x").unwrap();
        assert!(!checks[0].matches);
        assert_eq!(checks[0].target_rows, 0);
    }

    #[test]
    fn empty_source_table_vacuously_matches_missing_target() {
        let src = db_with("xdmod_x", &[]);
        let mut hub = Database::new();
        hub.create_schema("hub_x").unwrap();
        assert!(all_match(&src, &hub));
    }

    #[test]
    fn filter_excluded_table_reports_zero_target_rows() {
        use crate::{LinkConfig, ReplicationFilter, Replicator};
        use std::sync::Arc;
        use xdmod_warehouse::shared;

        // A satellite with two realms, only one of which replicates.
        let mut db = db_with("xdmod_x", &[1.0, 2.0]);
        db.create_table(
            "xdmod_x",
            SchemaBuilder::new("supremm_jobfact")
                .required("cpu_user", ColumnType::Float)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert("xdmod_x", "supremm_jobfact", vec![vec![Value::Float(0.9)]])
            .unwrap();
        let src = shared(db);
        let hub = shared(Database::new());
        let filter = ReplicationFilter::all().with_tables(["jobfact"]);
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_x", "hub_x").with_filter(filter),
        );
        rep.poll().unwrap();

        let src = src.read();
        let hub = hub.read();
        let checks = verify_schemas(&src, "xdmod_x", &hub, "hub_x").unwrap();
        let by_name = |n: &str| checks.iter().find(|c| c.table == n).unwrap();
        // The replicated realm matches verbatim.
        let job = by_name("jobfact");
        assert!(job.matches);
        assert_eq!((job.source_rows, job.target_rows), (2, 2));
        // The excluded realm takes the missing-target path: reported as a
        // mismatch with target_rows = 0, letting the caller decide whether
        // the exclusion was intended.
        let supremm = by_name("supremm_jobfact");
        assert!(!supremm.matches);
        assert_eq!((supremm.source_rows, supremm.target_rows), (1, 0));
    }

    #[test]
    fn checksum_checks_are_counted_on_the_hub_registry() {
        use xdmod_telemetry::MetricsRegistry;
        let src = db_with("xdmod_x", &[1.0, 2.0]);
        let mut hub = db_with("hub_x", &[1.0, 2.5]); // mismatching content
        let reg = MetricsRegistry::new();
        hub.set_telemetry(reg.clone());
        verify_schemas(&src, "xdmod_x", &hub, "hub_x").unwrap();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("replication_checksum_checks_total", &[]),
            Some(1)
        );
        assert_eq!(
            snap.counter("replication_checksum_mismatches_total", &[]),
            Some(1)
        );
    }

    #[test]
    fn unknown_schema_errors() {
        let src = db_with("xdmod_x", &[1.0]);
        let hub = Database::new();
        assert!(verify_schemas(&src, "nope", &hub, "hub_x").is_err());
    }
}
