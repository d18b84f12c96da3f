//! # xdmod-warehouse
//!
//! The data warehouse substrate under every XDMoD instance in this
//! workspace — a from-scratch, embeddable analytic store standing in for
//! the MySQL/MariaDB server that production Open XDMoD uses.
//!
//! It provides exactly the mechanisms the federation paper builds on:
//!
//! - **Named schemas** of typed tables ([`database::Database`]), so the
//!   federation hub can hold "one schema per XDMoD instance".
//! - A **binary log** ([`binlog::Binlog`]) of every mutation, with framed,
//!   CRC-checksummed records and `(epoch, seqno)` positions — the stream a
//!   Tungsten-style replicator tails.
//! - **Materialized aggregation tables** ([`aggregate::AggregationSpec`])
//!   built per calendar period with configurable numeric bins
//!   ([`bins::Bins`]) — XDMoD's "aggregation levels".
//! - A **group-by/filter query engine** ([`query::Query`]) powering
//!   every chart and report.
//! - A **partitioned parallel aggregation engine** ([`parallel`]):
//!   day-bucket shards folded on a scoped worker pool, merged in stable
//!   shard order (deterministic for any pool size).
//! - **One cached query path** ([`database::Database::query`] over
//!   [`delta`]): the per-shard partials of every (table, query) pair are
//!   retained behind a binlog cursor — a repeat with no ingest is a
//!   hit, after ingest only the records appended since the cursor are
//!   folded into their day-bucket shards, byte-identical to a full
//!   recompute, with automatic fallback to a cold rebuild whenever the
//!   retained state cannot be trusted (resync, compaction past the
//!   cursor, fact-table rewrite, reshard).
//! - **Snapshots** ([`persist::Snapshot`]): the image a replication
//!   resync replays (into the hub, or back into a satellite restored from
//!   it) and the body of the storage engine's snapshot files — compacted
//!   binlogs, counted runs of the same CRC'd frames, restored by the same
//!   event replay.
//! - A **durable storage engine** ([`storage::StorageBackend`]): the
//!   database writes ahead to a pluggable backend — in-memory no-op
//!   ([`storage::MemoryBackend`]) or a segmented on-disk WAL
//!   ([`disk::DiskBackend`]) with CRC-framed segment files, crash
//!   recovery that truncates torn tails, and snapshot-triggered binlog
//!   compaction.
//! - A **cold-shard paging engine** ([`resident`]): a working-set
//!   residency manager that bounds the warehouse's memory footprint by
//!   a byte budget, spilling cold day-bucket pages to CRC-framed files
//!   ([`disk::spill`]) with clock/second-chance eviction and
//!   transparent, pin-protected fault-in on the query path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod binlog;
pub mod bins;
pub mod checksum;
mod codec;
pub mod database;
pub mod delta;
pub mod disk;
pub mod error;
pub mod parallel;
pub mod persist;
pub mod query;
pub mod resident;
pub mod schema;
pub mod storage;
pub mod sync;
pub mod table;
pub mod time;
pub mod value;

pub use aggregate::{AggregationSpec, DimSpec};
pub use binlog::{BinlogEvent, EventPayload, LogPosition, PrefixCompaction, TailRepair};
pub use bins::{Bin, Bins};
pub use database::Database;
pub use delta::{
    CacheKey, DeltaFoldCache, DeltaOutcome, DeltaReport, FallbackReason, RebuildTicket,
};
pub use disk::{DiskBackend, DiskOptions};
pub use error::{Result, WarehouseError};
pub use parallel::{run_sharded, PoolConfig, ShardedPartials};
pub use persist::Snapshot;
pub use query::{AggFn, Aggregate, GroupKey, OrderBy, Predicate, Query, ResultSet};
pub use resident::{PagingConfig, ResidencyManager, ResidencyStats};
pub use schema::{ColumnDef, RowBuilder, SchemaBuilder, TableSchema};
pub use storage::{CompactionReport, MemoryBackend, Recovery, StorageBackend};
pub use table::{RowsRef, Table};
pub use time::{CivilDate, Period};
pub use value::{ColumnType, Row, Value};

/// A database shared across threads (ingestors, replicators, query
/// frontends): many readers (queries, binlog tailers) and one writer
/// (ingest) behind a [`sync::RwLock`].
pub type SharedDatabase = std::sync::Arc<sync::RwLock<Database>>;

/// Wrap a database for shared use.
pub fn shared(db: Database) -> SharedDatabase {
    std::sync::Arc::new(sync::RwLock::new(db))
}

#[cfg(test)]
mod tests {
    /// Replicators and the hub move `SharedDatabase` handles into worker
    /// threads; every field of `Database` has to allow it.
    #[test]
    fn shared_database_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::SharedDatabase>();
    }
}
