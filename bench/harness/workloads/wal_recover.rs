//! `wal_recover`: restart time of the durability layer.
//!
//! An operation is `DiskBackend::open` + `recover()` over a store built in
//! set-up: 128 MiB of frames appended (fsync off), a snapshot after 32 MiB
//! and another after 64 MiB; compaction at the second snapshot leaves
//! about 96 MiB of segments on disk. A rep is two operations:
//!
//! - *clean*: both snapshots valid; recovery takes the newer one and scans
//!   the 64 MiB after it;
//! - *damaged*: the newest snapshot has a flipped body bit and the last
//!   segment ends in half a frame; recovery must fall back to the older
//!   snapshot, scan 96 MiB, and truncate the torn record.
//!
//! The harness restores the damage (or the valid snapshot) between the
//! two, outside the timed region. The files sit in the OS page cache, so
//! latencies are the sandbox's, not a device's.
//!
//! Output check: snapshot position and body, tail bytes, and the
//! truncated-record and corrupt-snapshot counts of every recovery.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xdmod_chaos::DeterministicRng;

use super::wal::{self, fresh_backend, pos, EPOCH, SNAPSHOT_BYTES};
use super::{lat, time_for, Ctx, RepOut, Timed, Workload};
use crate::checksum::crc32;
use crate::disk::format::{scan_frames, snapshot_file_name, SEG_HEADER_LEN, SNAP_HEADER_LEN};
use crate::disk::{DiskBackend, DiskOptions};
use crate::gen::random_bytes;
use crate::metrics::Metrics;
use crate::storage::{Recovery, StorageBackend};
use crate::trace::{Collector, Trace};

/// 128 MiB of frames at the log-uniform mean of about 15.5 KB each.
const FRAMES: usize = 8_640;
const FIRST_SNAPSHOT_AT: usize = 32 << 20;
const SECOND_SNAPSHOT_AT: usize = 64 << 20;

/// A snapshot the store holds: where it is, what recovery must return.
struct Snap {
    seqno: u64,
    /// Offset in `frames` of the first frame past the snapshot.
    tail_from: usize,
    body: Vec<u8>,
}

#[derive(Default)]
struct Counts {
    segments_scanned: u64,
    truncated_records: u64,
    corrupt_snapshots: u64,
}

pub struct WalRecover {
    dir: PathBuf,
    /// Every appended frame, concatenated.
    frames: Vec<u8>,
    older: Snap,
    newer: Snap,
    /// The newer snapshot's file: path, valid bytes, bytes with one body
    /// bit flipped.
    newer_path: PathBuf,
    newer_file: Vec<u8>,
    newer_file_damaged: Vec<u8>,
    /// First half of the frame that would have come next.
    torn: Vec<u8>,
    last_segment: PathBuf,
    last: Counts,
}

impl WalRecover {
    /// One `open` + `recover`, checked against what the store must hold.
    fn recover_once(
        &self,
        damaged: bool,
        op: u64,
        tr: &mut Trace,
        timed: &mut Timed,
        counts: &mut Counts,
    ) -> (u32, u64) {
        timed.start();
        let begin = Instant::now();
        tr.begin("op", op);
        let opened = tr.leaf("warehouse.disk.open", op, || {
            DiskBackend::open(DiskOptions::new(&self.dir))
        });
        let recovered = opened.and_then(|mut backend| {
            let rec = tr.leaf("warehouse.disk.recover", op, || backend.recover());
            rec.map(|rec| (backend, rec))
        });
        tr.end();
        let latency = lat(begin.elapsed().as_nanos() as u64);
        timed.stop();
        timed.program(u64::from(latency));
        // The backend is dropped here, after the clock stopped.
        let Ok((_backend, rec)) = recovered else {
            return (latency, 1);
        };
        counts.segments_scanned += rec.segments_scanned;
        counts.truncated_records += rec.truncated_records;
        counts.corrupt_snapshots += rec.corrupt_snapshots;
        (latency, u64::from(!self.matches(&rec, damaged)))
    }

    fn matches(&self, rec: &Recovery, damaged: bool) -> bool {
        let want = if damaged { &self.older } else { &self.newer };
        rec.snapshot
            .as_ref()
            .is_some_and(|(at, body)| *at == pos(want.seqno) && *body == want.body)
            && rec.base_seqno == want.seqno
            && rec.tail == self.frames[want.tail_from..]
            && rec.truncated_records == u64::from(damaged)
            && rec.truncated_bytes == if damaged { self.torn.len() as u64 } else { 0 }
            && rec.corrupt_snapshots == u64::from(damaged)
    }

    /// Put the store in the state the next operation is to find.
    fn prepare(&self, damaged: bool) {
        let snapshot = if damaged {
            &self.newer_file_damaged
        } else {
            &self.newer_file
        };
        fs::write(&self.newer_path, snapshot).unwrap_or_else(|e| panic!("restore snapshot: {e}"));
        if damaged {
            OpenOptions::new()
                .append(true)
                .open(&self.last_segment)
                .and_then(|mut f| f.write_all(&self.torn))
                .unwrap_or_else(|e| panic!("tear last segment: {e}"));
        }
    }
}

impl Workload for WalRecover {
    fn setup(seed: u64, work: &Path) -> Self {
        let dir = work.join("store");
        let mut rng = DeterministicRng::new(seed ^ 0x7761_6c5f_7265);
        let mut backend = fresh_backend(&dir, false);
        let mut snapshot_rng = DeterministicRng::new(seed ^ 0x736e_6170);
        let mut frames = Vec::with_capacity(129 << 20);
        let mut snaps = Vec::new();
        let mut torn = Vec::new();
        for (frame, seqno) in wal::frames(&mut rng, FRAMES + 1).zip(1u64..) {
            if seqno as usize > FRAMES {
                torn = frame[..frame.len() / 2].to_vec();
                break;
            }
            backend
                .append(pos(seqno), &frame)
                .unwrap_or_else(|e| panic!("build store: {e}"));
            frames.extend_from_slice(&frame);
            let due = [FIRST_SNAPSHOT_AT, SECOND_SNAPSHOT_AT].get(snaps.len());
            if due.is_some_and(|at| frames.len() >= *at) {
                let body = random_bytes(&mut snapshot_rng, SNAPSHOT_BYTES);
                backend
                    .write_snapshot(pos(seqno), &body)
                    .unwrap_or_else(|e| panic!("build store: {e}"));
                snaps.push(Snap {
                    seqno,
                    tail_from: frames.len(),
                    body,
                });
            }
        }
        drop(backend);
        let (Some(newer), Some(older)) = (snaps.pop(), snaps.pop()) else {
            unreachable!("the store is larger than both snapshot points")
        };
        let newer_path = dir.join(snapshot_file_name(EPOCH, newer.seqno));
        let newer_file = fs::read(&newer_path).unwrap_or_else(|e| panic!("read snapshot: {e}"));
        let mut newer_file_damaged = newer_file.clone();
        newer_file_damaged[SNAP_HEADER_LEN + SNAPSHOT_BYTES / 2] ^= 0x10;
        let last_segment = fs::read_dir(&dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "wal"))
            .max()
            .unwrap_or_else(|| panic!("store has no segment"));
        let this = WalRecover {
            dir,
            frames,
            older,
            newer,
            newer_path,
            newer_file,
            newer_file_damaged,
            torn,
            last_segment,
            last: Counts::default(),
        };
        // Warm-up: one clean recovery pulls the store through the page
        // cache's read path.
        let _ = this.recover_once(
            false,
            0,
            &mut Trace::new(false, Instant::now(), 0),
            &mut Timed::default(),
            &mut Counts::default(),
        );
        this
    }

    fn rep(&mut self, ctx: &mut Ctx) -> RepOut {
        let mut timed = Timed::default();
        let mut counts = Counts::default();
        let mut tr = Trace::new(ctx.trace_on, ctx.t0, 4);
        let mut failed = 0;
        for (op, damaged) in [false, true].into_iter().enumerate() {
            self.prepare(damaged);
            let (latency, bad) =
                self.recover_once(damaged, op as u64, &mut tr, &mut timed, &mut counts);
            ctx.lat_ns.push(latency);
            failed += bad;
            if ctx.trace_on {
                ctx.collector.absorb(&mut tr);
            }
        }
        self.last = counts;
        let recovered = 2 * self.frames.len() - self.newer.tail_from - self.older.tail_from
            + self.newer.body.len()
            + self.older.body.len();
        timed.out(2, failed, recovered as u64)
    }

    fn layers(&mut self, spans: &Collector, budget: Duration, m: &mut Metrics) {
        let c = &self.last;
        let recover = spans.get("warehouse.disk.recover");
        m.set(
            "warehouse.disk.open_ms",
            spans.get("warehouse.disk.open").mean_ns() / 1e6,
        );
        m.set(
            "warehouse.disk.recover_p50_ms",
            recover.quantile_ns(0.50) / 1e6,
        );
        m.set(
            "warehouse.disk.recover_max_ms",
            recover.quantile_ns(1.0) / 1e6,
        );
        m.set(
            "warehouse.disk.recover_segments_scanned",
            c.segments_scanned as f64,
        );
        m.set(
            "warehouse.disk.recover_truncated_records",
            c.truncated_records as f64,
        );
        m.set(
            "warehouse.disk.recover_corrupt_snapshots",
            c.corrupt_snapshots as f64,
        );

        // crc32 and scan_frames sit inside `recover`: time them directly on
        // the bytes a rep's two recoveries read.
        self.prepare(false);
        let mut segments: Vec<PathBuf> = fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "wal"))
            .collect();
        segments.sort();
        let mut scanned = 0usize;
        let mut scan_secs = 0.0;
        let deadline = Instant::now() + budget / 2;
        for path in &segments {
            let Ok(data) = fs::read(path) else { continue };
            let base = u64::from_le_bytes(data[12..20].try_into().unwrap_or_default());
            let content = &data[SEG_HEADER_LEN..];
            let begin = Instant::now();
            let scan =
                std::hint::black_box(scan_frames(std::hint::black_box(content), EPOCH, base));
            scan_secs += begin.elapsed().as_secs_f64();
            scanned += scan.valid_len;
            if Instant::now() >= deadline {
                break;
            }
        }
        m.set(
            "warehouse.disk.scan_frames_mb_per_s",
            scanned as f64 / 1e6 / scan_secs,
        );

        let clean = &self.frames[self.newer.tail_from..];
        let fallback = &self.frames[self.older.tail_from..];
        let (passes, secs) = time_for(budget / 2, || {
            for bytes in [
                clean,
                fallback,
                &self.newer.body,
                &self.newer.body,
                &self.older.body,
            ] {
                std::hint::black_box(crc32(std::hint::black_box(bytes)));
            }
        });
        let per_rep = clean.len() + fallback.len() + 3 * SNAPSHOT_BYTES;
        m.set(
            "warehouse.checksum.crc32_mb_per_s",
            passes as f64 * per_rep as f64 / 1e6 / secs,
        );
        let crc_ns_per_rep = secs * 1e9 / passes as f64;
        let recover_ns_per_rep = recover.total_ns as f64 / (recover.count.max(1) as f64 / 2.0);
        m.set(
            "warehouse.checksum.share_of_recover",
            crc_ns_per_rep / recover_ns_per_rep,
        );
    }
}
