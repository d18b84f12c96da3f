//! "Loose" federation: periodic batch shipping instead of live
//! replication.
//!
//! "Instead, log files or database dumps could be periodically shipped to
//! the federation hub, and batch processed there to make their data
//! available to the federation. This latter method would be considered
//! 'loose' federation. A heterogeneous model could also be employed, in
//! which a federation hub is provided with data using loose federation
//! from some member instances and tight federation from others."
//! (§II-C2)
//!
//! Only the "database dumps" option lives here: [`ship_dump`] captures
//! the satellite schema, and [`receive_dump`] applies it on the hub with
//! replace semantics through [`LinkConfig::route`], the replay step a
//! resync also takes.
//!
//! The "log files" option is a [`Replicator`](crate::Replicator) that is
//! driven only by `Federation::sync` and `Federation::supervise`, never
//! live: it reads the framed binlog after a position the hub keeps and
//! advances that position only past applied events, so a batch that
//! fails to apply is read again on the next call.

use crate::replicator::{LinkConfig, ResyncReport};
use xdmod_warehouse::binlog::EventPayload;
use xdmod_warehouse::{Database, Result, Snapshot};

/// Export a full database dump of the satellite's `schema` — the paper's
/// "database dumps ... periodically shipped" mode.
pub fn ship_dump(source: &Database, schema: &str) -> Result<Vec<u8>> {
    Ok(Snapshot::capture_schemas(source, &[schema.to_owned()])?.to_bytes())
}

/// Apply a shipped dump on the hub through `link` with replace semantics
/// — each table that passes is emptied before its rows land — so
/// repeated shipments don't duplicate rows. Reports the tables and rows
/// the link let through.
pub fn receive_dump(target: &mut Database, dump: &[u8], link: &LinkConfig) -> Result<ResyncReport> {
    replace(target, Snapshot::from_bytes(dump)?.events(), link)
}

/// Replay a captured image through `link`, replacing what it carries:
/// each table that passes is emptied where its `CreateTable` arrives —
/// ahead of its rows, after its definition is checked against the
/// target's — then the rebuild guard is taken, so a parallel aggregation
/// that planned its outputs before the rewrite recomputes instead of
/// installing them, and no retained partial survives.
pub(crate) fn replace(
    target: &mut Database,
    events: impl Iterator<Item = Result<EventPayload>>,
    link: &LinkConfig,
) -> Result<ResyncReport> {
    let mut report = ResyncReport::default();
    for payload in events {
        let Some(payload) = link.route(payload?, target) else {
            continue;
        };
        match &payload {
            EventPayload::CreateTable { schema, def } => {
                report.tables += 1;
                if target.table(schema, &def.name).is_ok() {
                    target.ensure_table(schema, def.clone())?;
                    target.truncate(schema, &def.name)?;
                }
            }
            EventPayload::InsertBatch { rows, .. } => report.rows += rows.len(),
            _ => {}
        }
        target.apply_event(payload)?;
    }
    target.note_external_rebuild();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::ReplicationFilter;
    use std::sync::Arc;
    use xdmod_warehouse::{shared, ColumnType, SchemaBuilder, SharedDatabase, Value};

    fn satellite(schema: &str, n_rows: usize) -> SharedDatabase {
        let mut db = Database::new();
        db.create_schema(schema).unwrap();
        db.create_table(
            schema,
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .build()
                .unwrap(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..n_rows)
            .map(|i| vec![Value::Str("comet".into()), Value::Float(i as f64)])
            .collect();
        db.insert(schema, "jobfact", rows).unwrap();
        shared(db)
    }

    #[test]
    fn dump_honours_table_selection_and_resource_routing() {
        let src = satellite("xdmod_x", 0);
        {
            let mut s = src.write();
            let row = |r: &str, v: f64| vec![Value::Str(r.into()), Value::Float(v)];
            let rows = vec![row("open", 1.0), row("secret", 2.0), row("open", 3.0)];
            s.insert("xdmod_x", "jobfact", rows).unwrap();
            let supremm = SchemaBuilder::new("supremm_jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_user", ColumnType::Float);
            s.create_table("xdmod_x", supremm.build().unwrap()).unwrap();
            s.insert("xdmod_x", "supremm_jobfact", vec![row("open", 0.5)])
                .unwrap();
        }
        let link = LinkConfig::renaming("xdmod_x", "hub_x").with_filter(
            ReplicationFilter::all()
                .with_tables(["jobfact"])
                .with_resource_column("jobfact", "resource")
                .exclude_resource("secret"),
        );
        let mut hub = Database::new();
        let dump = ship_dump(&src.read(), "xdmod_x").unwrap();
        let report = receive_dump(&mut hub, &dump, &link).unwrap();
        // Rows after routing, not the dump's 4.
        assert_eq!(report, ResyncReport { tables: 1, rows: 2 });
        assert!(hub.table("hub_x", "supremm_jobfact").is_err());
        let jobs = hub.table("hub_x", "jobfact").unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs
            .rows()
            .unwrap()
            .iter()
            .all(|r| r[0] != Value::Str("secret".into())));
    }

    #[test]
    fn dump_shipping_replaces_not_duplicates() {
        let src = satellite("xdmod_x", 4);
        let mut hub = Database::new();
        let link = LinkConfig::renaming("xdmod_x", "hub_x");
        let dump = ship_dump(&src.read(), "xdmod_x").unwrap();
        assert_eq!(receive_dump(&mut hub, &dump, &link).unwrap().rows, 4);
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 4);
        // Second periodic shipment (same data) replaces rather than
        // appending.
        let dump2 = ship_dump(&src.read(), "xdmod_x").unwrap();
        receive_dump(&mut hub, &dump2, &link).unwrap();
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 4);
        assert_eq!(
            hub.table("hub_x", "jobfact").unwrap().content_checksum(),
            src.read()
                .table("xdmod_x", "jobfact")
                .unwrap()
                .content_checksum()
        );
    }

    #[test]
    fn heterogeneous_federation_tight_plus_loose() {
        // Satellite X federates tight, satellite Y loose, same hub.
        use crate::replicator::Replicator;
        let x = satellite("xdmod_x", 2);
        let y = satellite("xdmod_y", 3);
        let hub = shared(Database::new());

        let mut tight = Replicator::new(
            x,
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        tight.poll().unwrap();

        let dump = ship_dump(&y.read(), "xdmod_y").unwrap();
        let link = LinkConfig::renaming("xdmod_y", "hub_y");
        receive_dump(&mut hub.write(), &dump, &link).unwrap();

        let hub = hub.read();
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 2);
        assert_eq!(hub.table("hub_y", "jobfact").unwrap().len(), 3);
    }
}
