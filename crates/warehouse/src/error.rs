//! Error types for the warehouse crate.

use crate::binlog::LogPosition;
use std::fmt;

/// Errors raised by warehouse operations.
///
/// The warehouse is the substrate under every XDMoD instance, so these
/// errors surface through ingestion, aggregation, replication, and
/// federated queries alike.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarehouseError {
    /// A schema (namespace) was referenced that does not exist.
    UnknownSchema(String),
    /// A table was referenced that does not exist within its schema.
    UnknownTable {
        /// Schema that was searched.
        schema: String,
        /// Missing table name.
        table: String,
    },
    /// A column was referenced that does not exist within its table.
    UnknownColumn {
        /// Table that was searched.
        table: String,
        /// Missing column name.
        column: String,
    },
    /// An attempt to create a schema or table that already exists.
    AlreadyExists(String),
    /// A row's arity or column types do not match the table schema.
    SchemaMismatch(String),
    /// A binlog record failed checksum or framing validation.
    CorruptBinlog(String),
    /// An I/O failure reading the binlog or applying an event. By
    /// contract transient — a retry may succeed — unlike
    /// [`WarehouseError::CorruptBinlog`], which requires a tail repair.
    /// In this in-memory warehouse these originate from the chaos fault
    /// injector; a disk-backed implementation would raise them for real.
    Io(String),
    /// A query was structurally invalid (e.g. aggregate over a string column).
    InvalidQuery(String),
    /// A dump is not a snapshot this build reads (another format or
    /// version), or holds the wrong number of schemas for a rename.
    Snapshot(String),
    /// A snapshot failed validation — header or frame CRC, frame
    /// numbering, or the counted frames and rows — so the dump file is
    /// damaged and must not be restored.
    CorruptSnapshot(String),
    /// A calendar computation received an out-of-range field (e.g. month 13).
    InvalidTime(String),
    /// The requested binlog range was removed by snapshot-triggered
    /// compaction. The reader must resume from a snapshot at or after
    /// `horizon` plus the remaining tail instead of replaying the full log.
    CompactedAway {
        /// First position still present in the log (exclusive lower bound
        /// of readable records): records with `seqno <= horizon.seqno` in
        /// `horizon.epoch` are gone.
        horizon: LogPosition,
    },
    /// A spilled page's file was corrupt or missing at fault-in time.
    /// The rows themselves are still durable in the write-ahead log —
    /// the caller must rebuild via
    /// [`crate::database::Database::repair_paging`]; the paging engine
    /// never serves rows that failed their spill-file checksum.
    SpillLost {
        /// Table whose page was lost.
        table: String,
        /// Page index within the table.
        page: u32,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::UnknownSchema(s) => write!(f, "unknown schema: {s}"),
            WarehouseError::UnknownTable { schema, table } => {
                write!(f, "unknown table: {schema}.{table}")
            }
            WarehouseError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} in table {table}")
            }
            WarehouseError::AlreadyExists(s) => write!(f, "already exists: {s}"),
            WarehouseError::SchemaMismatch(s) => write!(f, "schema mismatch: {s}"),
            WarehouseError::CorruptBinlog(s) => write!(f, "corrupt binlog: {s}"),
            WarehouseError::Io(s) => write!(f, "i/o error: {s}"),
            WarehouseError::InvalidQuery(s) => write!(f, "invalid query: {s}"),
            WarehouseError::Snapshot(s) => write!(f, "snapshot error: {s}"),
            WarehouseError::CorruptSnapshot(s) => write!(f, "corrupt snapshot: {s}"),
            WarehouseError::InvalidTime(s) => write!(f, "invalid time: {s}"),
            WarehouseError::CompactedAway { horizon } => {
                write!(f, "records at or before {horizon} were compacted away")
            }
            WarehouseError::SpillLost { table, page } => {
                write!(
                    f,
                    "spilled page {page} of table '{table}' is corrupt or missing; \
                     rebuild it from the log (repair_paging)"
                )
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, WarehouseError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = WarehouseError::UnknownTable {
            schema: "xdmod_x".into(),
            table: "jobfact".into(),
        };
        assert_eq!(e.to_string(), "unknown table: xdmod_x.jobfact");
        let e = WarehouseError::UnknownColumn {
            table: "jobfact".into(),
            column: "nope".into(),
        };
        assert!(e.to_string().contains("nope"));
        assert!(e.to_string().contains("jobfact"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&WarehouseError::UnknownSchema("s".into()));
    }
}
