//! The warehouse's one cache: retained partials per (table, query).
//!
//! Every cached answer is a [`DeltaEntry`] keyed by `(schema, fact
//! table, query fingerprint)`: the per-shard [`ShardedPartials`] folded
//! through a binlog **cursor**, the result finalized from them, and the
//! rebuild generation they were built under.
//! [`Database::query_reported`](crate::database::Database::query_reported)
//! is the one reader. While the table has not been mutated past the
//! cursor the entry's result is the answer (a hit); after ingest only
//! the binlog records between cursor and head are folded, into the
//! day-bucket shards they land on; and whenever the retained state can
//! no longer be trusted (see [`FallbackReason`]) it is rebuilt from the
//! table.

use crate::binlog::LogPosition;
use crate::parallel::ShardedPartials;
use crate::query::{Query, ResultSet};
use crate::sync::Mutex;
use std::collections::HashMap;

/// Identity of a retained entry: which table was read and what was
/// asked of it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Schema of the source table.
    pub schema: String,
    /// Source table.
    pub table: String,
    /// [`Query::fingerprint`] of the query.
    pub fingerprint: u64,
}

impl CacheKey {
    /// The key of `query` over `schema.table`.
    pub fn of(schema: &str, table: &str, query: &Query) -> Self {
        CacheKey {
            schema: schema.to_owned(),
            table: table.to_owned(),
            fingerprint: query.fingerprint(),
        }
    }
}

/// Snapshot of a table's data version: its binlog watermark (position of
/// its last mutation) and the database's rebuild generation. A retained
/// entry or an in-flight rebuild is valid only against the ticket it was
/// computed at — ingest moves the watermark; external rebuilds
/// (replication resync, restore) bump the generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebuildTicket {
    /// Position of the last binlog record that touched the table
    /// (`None` until its first mutation is recorded).
    pub watermark: Option<LogPosition>,
    /// [`crate::database::Database::rebuild_generation`] at issue time.
    pub generation: u64,
}

/// Retained state for one query over one fact table.
#[derive(Debug, Clone)]
pub(crate) struct DeltaEntry {
    /// Binlog position through which every record touching the fact
    /// table has been folded into `partials`. Records at or before the
    /// cursor are never re-read; records after it are the delta.
    pub cursor: LogPosition,
    /// [`crate::database::Database::rebuild_generation`] at fold time. A
    /// mismatch means an external actor rewrote tables wholesale
    /// (replication resync, restore) and the partials are garbage.
    pub generation: u64,
    /// The per-shard retained partials.
    pub partials: ShardedPartials,
    /// `partials` finalized at `cursor` — what a hit clones.
    pub result: ResultSet,
    /// Name of the period table `result` is currently installed in.
    /// Set by [`AggregationSpec::apply_outputs`], and gone with the entry
    /// it was set on whenever that entry folds a record or is rebuilt —
    /// so a plan whose apply never ran is not mistaken for installed.
    ///
    /// [`AggregationSpec::apply_outputs`]: crate::aggregate::AggregationSpec::apply_outputs
    pub installed_as: Option<String>,
}

impl DeltaEntry {
    /// True when the entry already answers for the table at `ticket`
    /// under a pool of `shards` shards: same generation, same geometry,
    /// and no mutation of the table past the cursor.
    pub fn covers(&self, ticket: RebuildTicket, shards: usize) -> bool {
        self.generation == ticket.generation
            && self.partials.shard_count() == shards
            && ticket.watermark.is_none_or(|w| w <= self.cursor)
    }
}

/// Why a delta fold abandoned its retained partials and rebuilt cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The rebuild generation moved: a replication resync or restore
    /// rewrote table contents outside normal DML accounting. (Belt and
    /// braces — [`note_external_rebuild`] also clears the cache, so this
    /// fires only for an entry held out across the bump.)
    ///
    /// [`note_external_rebuild`]: crate::database::Database::note_external_rebuild
    ExternalRebuild,
    /// Snapshot-triggered binlog compaction outran the cursor: the
    /// records between cursor and horizon are gone, so the delta cannot
    /// be reconstructed.
    CompactedAway,
    /// A non-insert mutation (truncate, re-create) hit the fact table;
    /// folded state cannot "unfold" removed rows.
    FactRewrite,
    /// The pool's shard geometry changed since the partials were built.
    Resharded,
    /// The delta read failed transiently (injected I/O fault); rebuilt
    /// from the live table instead of retrying.
    ReadError,
}

impl FallbackReason {
    /// Stable label used in the
    /// `warehouse_delta_fallback_rebuilds_total{reason=..}` counter.
    pub fn label(&self) -> &'static str {
        match self {
            FallbackReason::ExternalRebuild => "external-rebuild",
            FallbackReason::CompactedAway => "compacted",
            FallbackReason::FactRewrite => "fact-rewrite",
            FallbackReason::Resharded => "reshard",
            FallbackReason::ReadError => "read-error",
        }
    }
}

/// How one query pass obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// No retained partials existed; built from the full table.
    Cold,
    /// Retained partials answered, advanced by folding only the binlog
    /// delta — zero records of it on a hit.
    Incremental,
    /// Retained partials were discarded as untrustworthy and the state
    /// was rebuilt from the full table.
    Fallback(FallbackReason),
}

/// What one [`Database::query_reported`] pass did, for callers (and
/// tests) that assert on the path taken rather than just the bytes.
///
/// [`Database::query_reported`]: crate::database::Database::query_reported
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// The path taken.
    pub outcome: DeltaOutcome,
    /// Rows folded during this pass: none on a hit, the delta rows on an
    /// advancing pass, the whole table on a cold or fallback build.
    pub rows_folded: usize,
    /// Shards that received rows this pass (cold/fallback builds report
    /// the full shard count).
    pub dirty_shards: usize,
}

impl DeltaReport {
    /// True when the pass reused retained partials (no full rebuild).
    pub fn is_incremental(&self) -> bool {
        matches!(self.outcome, DeltaOutcome::Incremental)
    }

    /// The fallback trigger, when the pass discarded retained state.
    pub fn fallback_reason(&self) -> Option<FallbackReason> {
        match self.outcome {
            DeltaOutcome::Fallback(reason) => Some(reason),
            _ => None,
        }
    }
}

/// Keyed store of retained entries, interior-mutable so the query path
/// runs under a shared borrow (the hub plans every satellite's
/// aggregation concurrently under one read lock).
///
/// A hit inspects its entry in place, so any number of identical
/// readers hit together. Only an advancing fold **takes** the entry and
/// puts it back advanced — two concurrent folds of the same key degrade
/// gracefully: one gets the entry, the other cold-builds, and whichever
/// finishes last leaves a valid entry (both describe "all rows through
/// cursor").
#[derive(Debug, Default)]
pub struct DeltaFoldCache {
    entries: Mutex<HashMap<CacheKey, DeltaEntry>>,
}

impl DeltaFoldCache {
    /// Empty cache.
    pub fn new() -> Self {
        DeltaFoldCache::default()
    }

    /// Run `f` on the entry for `key`, in place and under the cache
    /// lock — `f` must not reach for another lock (telemetry included).
    pub(crate) fn with_entry<R>(
        &self,
        key: &CacheKey,
        f: impl FnOnce(&mut DeltaEntry) -> R,
    ) -> Option<R> {
        self.entries.lock().get_mut(key).map(f)
    }

    /// Remove and return the retained state for `key`, if any.
    pub(crate) fn take(&self, key: &CacheKey) -> Option<DeltaEntry> {
        self.entries.lock().remove(key)
    }

    /// Store (or supersede) retained state.
    pub(crate) fn put(&self, key: CacheKey, entry: DeltaEntry) {
        self.entries.lock().insert(key, entry);
    }

    /// The retained cursor for `key` — the introspection surface tests
    /// use to prove cursors reset on resync/restore.
    pub fn cursor_of(&self, key: &CacheKey) -> Option<LogPosition> {
        self.with_entry(key, |e| e.cursor)
    }

    /// Drop every entry; returns how many were discarded. Called by
    /// [`note_external_rebuild`] and restore so no cursor survives an
    /// external rewrite of table contents.
    ///
    /// [`note_external_rebuild`]: crate::database::Database::note_external_rebuild
    pub fn clear(&self) -> usize {
        let mut entries = self.entries.lock();
        let dropped = entries.len();
        entries.clear();
        dropped
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ShardedPartials;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            schema: "s".into(),
            table: "jobfact".into(),
            fingerprint: fp,
        }
    }

    fn entry(seqno: u64, generation: u64, shards: usize) -> DeltaEntry {
        DeltaEntry {
            cursor: LogPosition { epoch: 0, seqno },
            generation,
            partials: ShardedPartials::new(shards),
            result: ResultSet {
                columns: vec!["n".into()],
                rows: vec![vec![crate::value::Value::Int(seqno as i64)]],
            },
            installed_as: None,
        }
    }

    #[test]
    fn take_put_cycle_round_trips() {
        let cache = DeltaFoldCache::new();
        assert!(cache.is_empty());
        cache.put(key(1), entry(9, 2, 4));
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.cursor_of(&key(1)),
            Some(LogPosition { epoch: 0, seqno: 9 })
        );
        assert_eq!(cache.cursor_of(&key(2)), None);

        let taken = cache.take(&key(1)).expect("entry present");
        assert_eq!(taken.generation, 2);
        assert_eq!(taken.partials.shard_count(), 4);
        // Taken means gone until put back.
        assert!(cache.take(&key(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn an_entry_covers_a_ticket_until_the_table_or_the_geometry_moves() {
        let e = entry(3, 0, 4);
        let at = |seqno, generation| RebuildTicket {
            watermark: Some(LogPosition { epoch: 0, seqno }),
            generation,
        };
        // The table's last mutation is at or before the cursor — other
        // tables may have moved the log head since.
        assert!(e.covers(at(3, 0), 4));
        assert!(e.covers(at(2, 0), 4));
        assert!(e.covers(RebuildTicket::default(), 4));
        // Ingest moved the watermark past the cursor: stale.
        assert!(!e.covers(at(4, 0), 4));
        // External rebuild bumped the generation: stale.
        assert!(!e.covers(at(3, 1), 4));
        // The pool was resharded: stale.
        assert!(!e.covers(at(3, 0), 5));
    }

    #[test]
    fn entries_are_inspected_and_marked_in_place() {
        let cache = DeltaFoldCache::new();
        cache.put(key(1), entry(5, 0, 2));
        // Any number of readers clone the result without taking it.
        for _ in 0..3 {
            let rs = cache.with_entry(&key(1), |e| e.result.clone()).unwrap();
            assert_eq!(rs.rows[0][0], crate::value::Value::Int(5));
        }
        assert_eq!(cache.len(), 1);
        cache.with_entry(&key(1), |e| e.installed_as = Some("by_month".into()));
        let marked = cache.with_entry(&key(1), |e| e.installed_as.clone());
        assert_eq!(marked, Some(Some("by_month".to_owned())));
        // Superseding the entry supersedes the marker with it.
        cache.put(key(1), entry(6, 0, 2));
        assert_eq!(
            cache.with_entry(&key(1), |e| e.installed_as.clone()),
            Some(None)
        );
        assert_eq!(cache.with_entry(&key(2), |e| e.cursor), None);
    }

    #[test]
    fn clear_reports_dropped_entries() {
        let cache = DeltaFoldCache::new();
        for fp in 0..3 {
            cache.put(key(fp), entry(0, 0, 1));
        }
        assert_eq!(cache.clear(), 3);
        assert!(cache.is_empty());
        assert_eq!(cache.clear(), 0);
    }
}
