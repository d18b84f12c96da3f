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
//! Two mechanisms are provided, matching the paper's two options:
//!
//! - [`LooseShipper`] — exports the satellite's framed **binlog bytes**
//!   since the last shipment (the "log files" option); the hub side
//!   decodes, filters, renames, and batch-applies them.
//! - [`ship_dump`] / [`receive_dump`] — full **database dumps** of the
//!   satellite schema, applied with replace semantics on the hub.

use crate::filter::ReplicationFilter;
use crate::replicator::LinkConfig;
use xdmod_warehouse::binlog::{decode_stream, EventPayload};
use xdmod_warehouse::{
    Database, LogPosition, Result, SharedDatabase, Snapshot, WarehouseError,
};

/// Satellite-side exporter of binlog batches.
pub struct LooseShipper {
    source: SharedDatabase,
    position: LogPosition,
}

impl LooseShipper {
    /// Start shipping from the beginning of the source's log.
    pub fn new(source: SharedDatabase) -> Self {
        LooseShipper {
            source,
            position: LogPosition::START,
        }
    }

    /// Watermark of the last exported record.
    pub fn position(&self) -> LogPosition {
        self.position
    }

    /// Export everything since the last shipment as a framed byte batch
    /// (the "file" that would be scp'd to the hub). Empty when quiescent.
    pub fn export_batch(&mut self) -> Result<Vec<u8>> {
        let src = self.source.read();
        let bytes = src.binlog_export(self.position)?;
        self.position = src.binlog_position();
        Ok(bytes)
    }
}

/// Hub-side batch processor for shipped binlog files.
pub struct LooseReceiver {
    target: SharedDatabase,
    config: LinkConfig,
    /// Position of the last applied record, for replay detection.
    applied_to: LogPosition,
}

impl LooseReceiver {
    /// Create a receiver applying into `target` under `config`.
    pub fn new(target: SharedDatabase, config: LinkConfig) -> Self {
        LooseReceiver {
            target,
            config,
            applied_to: LogPosition::START,
        }
    }

    /// Decode and apply one shipped batch. Records at or before the
    /// last-applied position are skipped (duplicate shipment tolerance);
    /// gaps are an error, since a skipped file means lost data.
    pub fn apply_batch(&mut self, batch: &[u8]) -> Result<usize> {
        if batch.is_empty() {
            return Ok(0);
        }
        let events = decode_stream(batch)?;
        let mut applied = 0usize;
        for ev in events {
            if ev.position <= self.applied_to {
                continue; // duplicate shipment
            }
            let expected = LogPosition {
                epoch: self.applied_to.epoch,
                seqno: self.applied_to.seqno + 1,
            };
            if ev.position.epoch == self.applied_to.epoch && ev.position != expected {
                return Err(WarehouseError::CorruptBinlog(format!(
                    "shipment gap: expected {expected}, got {}",
                    ev.position
                )));
            }
            if let Some(want) = &self.config.source_schema {
                if ev.payload.schema() != want {
                    self.applied_to = ev.position;
                    continue;
                }
            }
            // Loose batches carry no live schema access; resource routing
            // resolves against the *target* schema (identical layout by
            // construction).
            let target = &self.target;
            let renamed_schema = self
                .config
                .rename_to
                .clone()
                .unwrap_or_else(|| ev.payload.schema().to_owned());
            let resolved = self.config.filter.apply_resolved(&ev.payload, |table, column| {
                let t = target.read();
                t.table(&renamed_schema, table)
                    .ok()
                    .and_then(|t| t.schema().column_index(column).ok())
            });
            if let Some(filtered) = resolved {
                let outgoing = match &self.config.rename_to {
                    Some(new_schema) => filtered.with_schema(new_schema),
                    None => filtered,
                };
                self.target.write().apply_event(&outgoing)?;
                applied += 1;
            }
            self.applied_to = ev.position;
        }
        Ok(applied)
    }
}

/// Export a full database dump of `schema` from a satellite, renamed for
/// the hub — the paper's "database dumps ... periodically shipped" mode.
pub fn ship_dump(source: &Database, schema: &str, rename_to: &str) -> Result<Vec<u8>> {
    Ok(Snapshot::capture_schemas(source, &[schema.to_owned()])?
        .into_renamed(rename_to)?
        .to_bytes())
}

/// Apply a shipped dump on the hub with replace semantics: each table the
/// dump carries is emptied where its `CreateTable` frame arrives — ahead
/// of its rows — and the dump is replayed, so repeated shipments don't
/// duplicate rows.
pub fn receive_dump(target: &mut Database, dump: &[u8]) -> Result<usize> {
    let snapshot = Snapshot::from_bytes(dump)?;
    for payload in snapshot.events() {
        let payload = payload?;
        if let EventPayload::CreateTable { schema, def } = &payload {
            if target.table(schema, &def.name).is_ok() {
                target.truncate(schema, &def.name)?;
            }
        }
        target.apply_event(&payload)?;
    }
    Ok(snapshot.total_rows())
}

/// Re-export of the filter type for loose links.
pub type LooseFilter = ReplicationFilter;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xdmod_warehouse::{shared, ColumnType, SchemaBuilder, Value};

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
    fn binlog_shipping_round_trip() {
        let src = satellite("xdmod_x", 3);
        let hub = shared(Database::new());
        let mut shipper = LooseShipper::new(Arc::clone(&src));
        let mut receiver = LooseReceiver::new(
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        let batch = shipper.export_batch().unwrap();
        assert!(!batch.is_empty());
        receiver.apply_batch(&batch).unwrap();
        assert_eq!(hub.read().table("hub_x", "jobfact").unwrap().len(), 3);
        // Quiescent second shipment is empty and harmless.
        let batch2 = shipper.export_batch().unwrap();
        assert!(batch2.is_empty());
        assert_eq!(receiver.apply_batch(&batch2).unwrap(), 0);
    }

    #[test]
    fn incremental_batches_carry_only_new_data() {
        let src = satellite("xdmod_x", 1);
        let hub = shared(Database::new());
        let mut shipper = LooseShipper::new(Arc::clone(&src));
        let mut receiver = LooseReceiver::new(
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        receiver.apply_batch(&shipper.export_batch().unwrap()).unwrap();
        src.write()
            .insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("comet".into()), Value::Float(9.0)]],
            )
            .unwrap();
        let applied = receiver.apply_batch(&shipper.export_batch().unwrap()).unwrap();
        assert_eq!(applied, 1);
        assert_eq!(hub.read().table("hub_x", "jobfact").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_shipment_is_skipped() {
        let src = satellite("xdmod_x", 2);
        let hub = shared(Database::new());
        let mut shipper = LooseShipper::new(Arc::clone(&src));
        let batch = shipper.export_batch().unwrap();
        let mut receiver = LooseReceiver::new(
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        receiver.apply_batch(&batch).unwrap();
        let applied_again = receiver.apply_batch(&batch).unwrap();
        assert_eq!(applied_again, 0);
        assert_eq!(hub.read().table("hub_x", "jobfact").unwrap().len(), 2);
    }

    #[test]
    fn shipment_gap_is_detected() {
        let src = satellite("xdmod_x", 1);
        let mut shipper = LooseShipper::new(Arc::clone(&src));
        let _skipped = shipper.export_batch().unwrap(); // batch 1 lost in transit
        src.write()
            .insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("comet".into()), Value::Float(9.0)]],
            )
            .unwrap();
        let batch2 = shipper.export_batch().unwrap();
        let hub = shared(Database::new());
        let mut receiver = LooseReceiver::new(hub, LinkConfig::renaming("xdmod_x", "hub_x"));
        let err = receiver.apply_batch(&batch2).unwrap_err();
        assert!(err.to_string().contains("gap"));
    }

    #[test]
    fn corrupted_shipment_rejected() {
        let src = satellite("xdmod_x", 1);
        let mut shipper = LooseShipper::new(src);
        let mut bytes = shipper.export_batch().unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0x40;
        let hub = shared(Database::new());
        let mut receiver = LooseReceiver::new(hub, LinkConfig::passthrough());
        assert!(receiver.apply_batch(&bytes).is_err());
    }

    #[test]
    fn dump_shipping_replaces_not_duplicates() {
        let src = satellite("xdmod_x", 4);
        let mut hub = Database::new();
        let dump = ship_dump(&src.read(), "xdmod_x", "hub_x").unwrap();
        assert_eq!(receive_dump(&mut hub, &dump).unwrap(), 4);
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 4);
        // Second periodic shipment (same data) replaces rather than
        // appending.
        let dump2 = ship_dump(&src.read(), "xdmod_x", "hub_x").unwrap();
        receive_dump(&mut hub, &dump2).unwrap();
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

        let dump = ship_dump(&y.read(), "xdmod_y", "hub_y").unwrap();
        receive_dump(&mut hub.write(), &dump).unwrap();

        let hub = hub.read();
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 2);
        assert_eq!(hub.table("hub_y", "jobfact").unwrap().len(), 3);
    }
}
