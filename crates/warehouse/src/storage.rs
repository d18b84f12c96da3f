//! Pluggable durability backends behind [`crate::database::Database`].
//!
//! The database keeps its authoritative working state in memory (tables +
//! the framed [`crate::binlog::Binlog`]); a [`StorageBackend`] decides what
//! of that state survives a process crash. Two implementations ship:
//!
//! - [`MemoryBackend`] — the historical behaviour: nothing is durable,
//!   every call is a cheap no-op. Recovery always yields an empty store.
//! - [`crate::disk::DiskBackend`] — a segmented append-only on-disk
//!   format: binlog frames land in CRC-checksummed segment files *before*
//!   the in-memory log admits them (write-ahead ordering), periodic
//!   snapshots bound replay time, and snapshot-covered segments are
//!   deleted (compaction).
//!
//! The trait speaks **raw framed bytes**, not decoded events: the frame
//! produced by [`crate::binlog::Binlog::encode_next`] is the unit of
//! durability, so the on-disk record format is byte-identical to the
//! in-memory/replicated one and recovery can hand segments straight back
//! to the binlog.

use crate::binlog::LogPosition;
use crate::error::Result;
use std::fmt;
use xdmod_chaos::FaultInjector;

/// What a call to [`StorageBackend::write_snapshot`] reclaimed, and how
/// far the *in-memory* binlog may safely compact.
///
/// `horizon` is deliberately conservative: the disk backend retains the
/// previous snapshot as well as the one just written, so a torn or
/// bit-flipped latest snapshot can never strand recovery past deleted
/// segments. The safe compaction horizon is therefore the *previous*
/// snapshot's seqno, not the new one's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// Highest seqno (current epoch) everything — segments and the
    /// in-memory binlog prefix — may be compacted up to, inclusive.
    pub horizon: u64,
    /// Whole segment files deleted.
    pub segments_deleted: u64,
    /// Older snapshot files deleted.
    pub snapshots_deleted: u64,
    /// Bytes of deleted files reclaimed.
    pub bytes_reclaimed: u64,
}

/// Durable state found by [`StorageBackend::recover`].
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// Epoch the durable state belongs to.
    pub epoch: u32,
    /// The newest snapshot that validated, if any: the position its
    /// contents cover, plus its serialized body
    /// (a [`crate::persist::Snapshot`] dump).
    pub snapshot: Option<(LogPosition, Vec<u8>)>,
    /// Seqno the tail frames start after — the snapshot's seqno, or 0
    /// when recovery starts from an empty store.
    pub base_seqno: u64,
    /// Concatenated raw frames `base_seqno + 1 ..`, already CRC- and
    /// continuity-validated; feed to
    /// [`crate::binlog::Binlog::restore_frames`].
    pub tail: Vec<u8>,
    /// Records discarded while truncating torn/corrupt tails (at least
    /// one per damaged region, plus every intact frame stranded after
    /// the damage).
    pub truncated_records: u64,
    /// Raw bytes discarded while truncating torn/corrupt tails.
    pub truncated_bytes: u64,
    /// Snapshot files that failed validation and were skipped.
    pub corrupt_snapshots: u64,
    /// Segment files scanned.
    pub segments_scanned: u64,
}

impl Recovery {
    /// True when recovery had to repair damage (torn tail or corrupt
    /// snapshot) rather than finding a clean shutdown.
    pub fn repaired(&self) -> bool {
        self.truncated_records != 0 || self.truncated_bytes != 0 || self.corrupt_snapshots != 0
    }
}

/// A durability backend. See the module docs for the contract; the key
/// invariant is **write-ahead ordering**: [`StorageBackend::append`] is
/// called *before* the frame is admitted to the in-memory log, and an
/// `Err` from it must leave the durable state a valid prefix (the frame
/// simply never happened). `Sync` because the database that owns the
/// backend is shared across threads behind a reader-writer lock.
pub trait StorageBackend: Send + Sync + fmt::Debug {
    /// Short stable name for diagnostics and config ("memory", "disk").
    fn name(&self) -> &'static str;

    /// Durably record the frame for `pos`. Must not return `Ok` unless a
    /// crash immediately afterwards would preserve the frame (modulo
    /// injected faults, which exist precisely to violate this silently).
    fn append(&mut self, pos: LogPosition, frame: &[u8]) -> Result<()>;

    /// Durably record a snapshot whose contents cover everything through
    /// `pos`, then reclaim whatever that makes redundant.
    fn write_snapshot(&mut self, pos: LogPosition, snapshot: &[u8]) -> Result<CompactionReport>;

    /// Begin generation `epoch` (restore/rebuild path): durable state of
    /// older generations is dropped.
    fn start_epoch(&mut self, epoch: u32) -> Result<()>;

    /// Scan durable state, repair torn tails, and return what survived.
    /// Must never refuse to start over tail damage — truncate and count
    /// it instead.
    fn recover(&mut self) -> Result<Recovery>;

    /// Flush anything buffered to stable storage.
    fn sync(&mut self) -> Result<()>;

    /// Hand the backend a chaos injector; faults fire at the disk-layer
    /// fault points (`SegmentAppend`, `SnapshotWrite`). Backends without
    /// physical media ignore it.
    fn set_chaos(&mut self, _injector: FaultInjector, _target: String) {}

    /// Detach any chaos injector.
    fn clear_chaos(&mut self) {}
}

/// The historical in-memory story: nothing is durable. All operations
/// succeed without doing anything; recovery finds an empty store. The
/// compaction horizon still advances (trailing the previous snapshot, the
/// same protocol the disk backend uses) so the in-memory binlog prefix is
/// bounded under periodic snapshotting regardless of backend.
#[derive(Debug, Default)]
pub struct MemoryBackend {
    prev_snapshot_seqno: Option<u64>,
}

impl MemoryBackend {
    /// A fresh in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn append(&mut self, _pos: LogPosition, _frame: &[u8]) -> Result<()> {
        Ok(())
    }

    fn write_snapshot(&mut self, pos: LogPosition, _snapshot: &[u8]) -> Result<CompactionReport> {
        let horizon = self.prev_snapshot_seqno.unwrap_or(0);
        self.prev_snapshot_seqno = Some(pos.seqno);
        Ok(CompactionReport {
            horizon,
            ..CompactionReport::default()
        })
    }

    fn start_epoch(&mut self, _epoch: u32) -> Result<()> {
        self.prev_snapshot_seqno = None;
        Ok(())
    }

    fn recover(&mut self) -> Result<Recovery> {
        Ok(Recovery::default())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_backend_is_a_noop_with_trailing_horizon() {
        let mut be = MemoryBackend::new();
        assert_eq!(be.name(), "memory");
        let pos = |seqno| LogPosition { epoch: 0, seqno };
        be.append(pos(1), b"frame").unwrap();
        be.sync().unwrap();
        // First snapshot: nothing safe to compact yet.
        let r1 = be.write_snapshot(pos(10), b"{}").unwrap();
        assert_eq!(r1.horizon, 0);
        // Second snapshot: horizon trails to the first.
        let r2 = be.write_snapshot(pos(25), b"{}").unwrap();
        assert_eq!(r2.horizon, 10);
        // Epoch rotation forgets snapshot history.
        be.start_epoch(1).unwrap();
        assert_eq!(be.write_snapshot(pos(3), b"{}").unwrap().horizon, 0);
        // Recovery always finds an empty store.
        let rec = be.recover().unwrap();
        assert!(rec.snapshot.is_none());
        assert!(rec.tail.is_empty());
        assert!(!rec.repaired());
    }

    #[test]
    fn backend_is_object_safe_and_send() {
        fn assert_send<T: Send>(_t: &T) {}
        let boxed: Box<dyn StorageBackend> = Box::new(MemoryBackend::new());
        assert_send(&boxed);
    }
}
