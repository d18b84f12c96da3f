//! What the two WAL workloads share: binlog-format frames, positions and
//! a fresh `DiskBackend`.

use std::fs;
use std::path::Path;

use xdmod_chaos::DeterministicRng;

use crate::binlog::LogPosition;
use crate::checksum::crc32;
use crate::disk::{DiskBackend, DiskOptions};
use crate::gen::{log_uniform_sizes, random_bytes};
use crate::storage::StorageBackend;

pub const EPOCH: u32 = 0;
/// Frame bytes around the payload: length prefix, epoch, seqno, CRC.
pub const FRAME_OVERHEAD: usize = 4 + 4 + 8 + 4;
/// Snapshot body: a small warehouse's serialized tables.
pub const SNAPSHOT_BYTES: usize = 256 * 1024;

pub fn pos(seqno: u64) -> LogPosition {
    LogPosition {
        epoch: EPOCH,
        seqno,
    }
}

/// One record in the binlog wire format `disk::format::scan_frames`
/// validates: `len | epoch | seqno | payload | crc32(epoch..payload)`.
pub fn frame(seqno: u64, payload: &[u8]) -> Vec<u8> {
    let body_len = 12 + payload.len() + 4;
    let mut out = Vec::with_capacity(4 + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    out.extend_from_slice(&EPOCH.to_le_bytes());
    out.extend_from_slice(&seqno.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Frames 1..=n, one at a time, with payloads of 1–64 KiB, log-uniform:
/// `insert_batch`es of 8–512 rows.
pub fn frames(rng: &mut DeterministicRng, n: usize) -> impl Iterator<Item = Vec<u8>> + '_ {
    log_uniform_sizes(rng, n, 1024, 64 * 1024)
        .into_iter()
        .zip(1u64..)
        .map(move |(len, seqno)| frame(seqno, &random_bytes(rng, len as usize)))
}

/// Empty `dir`, then open a backend on it and run the (empty) recovery
/// that makes it ready for appends.
pub fn fresh_backend(dir: &Path, fsync: bool) -> DiskBackend {
    let _ = fs::remove_dir_all(dir);
    let mut backend = DiskBackend::open(DiskOptions::new(dir).fsync(fsync))
        .unwrap_or_else(|e| panic!("open {}: {e}", dir.display()));
    backend
        .recover()
        .unwrap_or_else(|e| panic!("recover empty {}: {e}", dir.display()));
    backend
}
