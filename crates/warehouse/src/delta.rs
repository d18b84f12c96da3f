//! Incremental aggregation state: the **delta-fold** engine's retained
//! partials and the bookkeeping that decides when they can be trusted.
//!
//! Materialization used to be all-or-nothing: any ingest moved the fact
//! table's [`RebuildTicket`](crate::parallel::RebuildTicket) watermark
//! and every aggregate recomputed from scratch. But the binlog already
//! carries exactly the delta — this module keys retained
//! [`ShardedPartials`] by `(schema, fact table, query fingerprint)` and
//! stamps each entry with a **cursor** (the binlog position through
//! which records are folded) plus the rebuild generation it was built
//! under. [`Database::run_delta_fold`](crate::database::Database::run_delta_fold)
//! advances an entry by folding only the records between its cursor and
//! the log head, touching only the day-bucket shards those records land
//! on, and falls back to a full rebuild whenever the retained state can
//! no longer be trusted (see [`FallbackReason`]).

use crate::binlog::LogPosition;
use crate::parallel::{CacheKey, ShardedPartials};
use crate::sync::Mutex;
use std::collections::HashMap;

/// Retained incremental state for one query over one fact table.
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
}

/// Why a delta fold abandoned its retained partials and rebuilt cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The rebuild generation moved: a replication resync or restore
    /// rewrote table contents outside normal DML accounting. (Belt and
    /// braces — [`note_external_rebuild`] also clears the delta cache,
    /// so this fires only for an entry held out across the bump.)
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

/// How one delta-fold pass obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// No retained partials existed; built from the full table.
    Cold,
    /// Retained partials advanced by folding only the binlog delta.
    Incremental,
    /// Retained partials were discarded as untrustworthy and the state
    /// was rebuilt from the full table.
    Fallback(FallbackReason),
}

/// What one [`Database::run_delta_fold`] pass did, for callers (and
/// tests) that assert on the path taken rather than just the bytes.
///
/// [`Database::run_delta_fold`]: crate::database::Database::run_delta_fold
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// The path taken.
    pub outcome: DeltaOutcome,
    /// Rows folded during this pass: the delta rows on an incremental
    /// pass, the whole table on a cold or fallback build.
    pub rows_folded: usize,
    /// Shards that received rows this pass (incremental passes only;
    /// cold/fallback builds report the full shard count).
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

/// Keyed store of retained delta-fold state, interior-mutable so the
/// fold path runs under a shared borrow (the hub plans every satellite's
/// aggregation concurrently under one read lock).
///
/// Entries are **taken** for the duration of a fold and put back
/// advanced — two concurrent folds of the same key degrade gracefully:
/// one gets the entry, the other cold-builds, and whichever finishes
/// last leaves a valid entry (both describe "all rows through cursor").
#[derive(Debug, Default)]
pub struct DeltaFoldCache {
    entries: Mutex<HashMap<CacheKey, DeltaEntry>>,
}

impl DeltaFoldCache {
    /// Empty cache.
    pub fn new() -> Self {
        DeltaFoldCache::default()
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
        self.entries.lock().get(key).map(|e| e.cursor)
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

    #[test]
    fn take_put_cycle_round_trips() {
        let cache = DeltaFoldCache::new();
        assert!(cache.is_empty());
        let cursor = LogPosition { epoch: 0, seqno: 9 };
        cache.put(
            key(1),
            DeltaEntry {
                cursor,
                generation: 2,
                partials: ShardedPartials::new(4),
            },
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.cursor_of(&key(1)), Some(cursor));
        assert_eq!(cache.cursor_of(&key(2)), None);

        let taken = cache.take(&key(1)).expect("entry present");
        assert_eq!(taken.generation, 2);
        assert_eq!(taken.partials.shard_count(), 4);
        // Taken means gone until put back.
        assert!(cache.take(&key(1)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn clear_reports_dropped_entries() {
        let cache = DeltaFoldCache::new();
        for fp in 0..3 {
            cache.put(
                key(fp),
                DeltaEntry {
                    cursor: LogPosition::START,
                    generation: 0,
                    partials: ShardedPartials::new(1),
                },
            );
        }
        assert_eq!(cache.clear(), 3);
        assert!(cache.is_empty());
        assert_eq!(cache.clear(), 0);
    }
}
