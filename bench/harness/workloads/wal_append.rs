//! `wal_append`: one writer on `DiskBackend` with 1 MiB segments (the
//! default).
//!
//! An operation is one acknowledged `append` of a pre-framed record. A
//! `write_snapshot` every 512 frames sits between operations inside the
//! timed region, so its compaction work counts against throughput as it
//! does in production. Every rep starts from an empty directory, which
//! makes a rep's file and byte counts a function of the seed alone.
//!
//! The timed reps run with `fsync(false)`: what they measure is the layer's
//! own work — framing checks, segment rolls, snapshot writes, compaction —
//! down to the `write` into the page cache. The flush the production
//! default adds after every append is the shared host's disk, not this
//! program: its speed moved by 20–40 % for a minute at a time, more than
//! any bound could gate. It is measured per layer instead, by replaying
//! the same frames with `fsync(true)` (`append_p50_us`, `append_p99_us`,
//! `flush_share`).
//!
//! Output check: after the last rep the store is reopened and recovered;
//! the newest snapshot and the tail past it must equal what was appended.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xdmod_chaos::{DeterministicRng, FaultPlan, FaultPoint};

use super::wal::{self, fresh_backend, pos, FRAME_OVERHEAD, SNAPSHOT_BYTES};
use super::{lat, time_for, Ctx, RepOut, Timed, Workload};
use crate::checksum::crc32;
use crate::disk::{DiskBackend, DiskOptions};
use crate::gen::random_bytes;
use crate::metrics::Metrics;
use crate::stats::quantile;
use crate::storage::StorageBackend;
use crate::trace::{Collector, Trace};

const SNAPSHOT_EVERY: usize = 512;
/// Eight snapshot/compaction cycles, then half a cycle of tail for the
/// recovery check to read back.
const FRAMES: usize = 8 * SNAPSHOT_EVERY + SNAPSHOT_EVERY / 2;

/// Counts of the most recent rep.
#[derive(Default)]
struct Counts {
    snapshot_calls: u64,
    segments_deleted: u64,
    bytes_reclaimed: u64,
    /// Largest length seen of every file that ever appeared in the
    /// directory (traced reps only).
    files_seen: BTreeMap<String, u64>,
    files_live: u64,
    cpu_ns: u64,
    append_ns: u64,
}

pub struct WalAppend {
    dir: PathBuf,
    frames: Vec<Vec<u8>>,
    payload_bytes: u64,
    snapshot: Vec<u8>,
    /// The backend the last rep wrote through, kept for `verify`.
    backend: Option<DiskBackend>,
    last: Counts,
}

impl WalAppend {
    fn list(&self, counts: &mut Counts) {
        counts.files_live = 0;
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let seen = counts
                .files_seen
                .entry(entry.file_name().to_string_lossy().into_owned())
                .or_default();
            *seen = (*seen).max(len);
            counts.files_live += 1;
        }
    }

    /// Append every frame, snapshotting on schedule, through `backend`.
    /// Returns per-append latencies.
    fn drive(
        &self,
        backend: &mut DiskBackend,
        tr: &mut Trace,
        counts: &mut Counts,
        timed: &mut Timed,
    ) -> (Vec<u32>, u64) {
        let mut lat_ns = Vec::with_capacity(self.frames.len());
        let mut failed = 0;
        timed.start();
        tr.begin("rep", 0);
        for (i, frame) in self.frames.iter().enumerate() {
            let seqno = i as u64 + 1;
            let begin = Instant::now();
            let appended = tr.leaf("warehouse.disk.append", seqno, || {
                backend.append(pos(seqno), frame)
            });
            lat_ns.push(lat(begin.elapsed().as_nanos() as u64));
            failed += u64::from(appended.is_err());
            if (i + 1) % SNAPSHOT_EVERY == 0 {
                let begin = Instant::now();
                let written = tr.leaf("warehouse.disk.write_snapshot", seqno, || {
                    backend.write_snapshot(pos(seqno), &self.snapshot)
                });
                timed.program(begin.elapsed().as_nanos() as u64);
                match written {
                    Ok(report) => {
                        counts.snapshot_calls += 1;
                        counts.segments_deleted += report.segments_deleted;
                        counts.bytes_reclaimed += report.bytes_reclaimed;
                    }
                    Err(_) => failed += 1,
                }
                if tr.on() {
                    // Every segment is listed at least once after it is
                    // sealed and before compaction can delete it.
                    self.list(counts);
                }
            }
        }
        tr.end();
        timed.stop();
        counts.append_ns = lat_ns.iter().map(|l| u64::from(*l)).sum();
        timed.program(counts.append_ns);
        (lat_ns, failed)
    }
}

impl Workload for WalAppend {
    fn setup(seed: u64, work: &Path) -> Self {
        let mut rng = DeterministicRng::new(seed ^ 0x7761_6c5f_6170);
        let frames: Vec<Vec<u8>> = wal::frames(&mut rng, FRAMES).collect();
        let payload_bytes = frames
            .iter()
            .map(|f| (f.len() - FRAME_OVERHEAD) as u64)
            .sum();
        let this = WalAppend {
            dir: work.join("store"),
            frames,
            payload_bytes,
            snapshot: random_bytes(&mut rng, SNAPSHOT_BYTES),
            backend: None,
            last: Counts::default(),
        };
        // Warm-up: one snapshot cycle creates the directory and touches
        // the file system's allocation paths.
        let mut backend = fresh_backend(&this.dir, false);
        for (i, frame) in this.frames.iter().take(SNAPSHOT_EVERY).enumerate() {
            let _ = backend.append(pos(i as u64 + 1), frame);
        }
        let _ = backend.write_snapshot(pos(SNAPSHOT_EVERY as u64), &this.snapshot);
        this
    }

    fn rep(&mut self, ctx: &mut Ctx) -> RepOut {
        self.backend = None;
        let mut backend = fresh_backend(&self.dir, false);
        let mut counts = Counts::default();
        let mut timed = Timed::default();
        let mut tr = Trace::new(ctx.trace_on, ctx.t0, FRAMES + FRAMES / SNAPSHOT_EVERY + 1);
        let (lat_ns, failed) = self.drive(&mut backend, &mut tr, &mut counts, &mut timed);
        if ctx.trace_on {
            self.list(&mut counts);
            ctx.collector.absorb(&mut tr);
        }
        ctx.lat_ns.extend_from_slice(&lat_ns);
        self.backend = Some(backend);
        let out = timed.out(FRAMES as u64, failed, self.payload_bytes);
        counts.cpu_ns = out.cpu_ns;
        self.last = counts;
        out
    }

    fn verify(&mut self) -> u64 {
        // Drop, not recover in place: a restart sees only what is on disk.
        self.backend = None;
        let recovered =
            DiskBackend::open(DiskOptions::new(&self.dir)).and_then(|mut b| b.recover());
        let Ok(rec) = recovered else { return 1 };
        let horizon = (FRAMES / SNAPSHOT_EVERY * SNAPSHOT_EVERY) as u64;
        let tail: Vec<u8> = self.frames[horizon as usize..].concat();
        let snapshot_ok = rec
            .snapshot
            .as_ref()
            .is_some_and(|(at, body)| *at == pos(horizon) && *body == self.snapshot);
        u64::from(!snapshot_ok) + u64::from(rec.tail != tail) + u64::from(rec.repaired())
    }

    fn layers(&mut self, spans: &Collector, budget: Duration, m: &mut Metrics) {
        let c = &self.last;
        let append = spans.get("warehouse.disk.append");
        let snapshot = spans.get("warehouse.disk.write_snapshot");
        m.set(
            "warehouse.disk.snapshot_p50_ms",
            snapshot.quantile_ns(0.50) / 1e6,
        );
        m.set("warehouse.disk.snapshot_calls", c.snapshot_calls as f64);
        let segments = c
            .files_seen
            .keys()
            .filter(|name| name.ends_with(".wal"))
            .count();
        m.set(
            "warehouse.disk.segments_rolled",
            segments.saturating_sub(1) as f64,
        );
        m.set("warehouse.disk.segments_deleted", c.segments_deleted as f64);
        m.set("warehouse.disk.bytes_reclaimed", c.bytes_reclaimed as f64);
        let bytes_written: u64 = c.files_seen.values().sum();
        m.set("warehouse.disk.bytes_written", bytes_written as f64);
        m.set(
            "warehouse.disk.write_amp",
            bytes_written as f64 / self.payload_bytes as f64,
        );
        m.set("warehouse.disk.files_live", c.files_live as f64);

        // The timed reps do not flush. Replay the same frames the way
        // production runs them, fsync after every append, and attribute the
        // difference to the flush.
        self.backend = None;
        let mut synced = fresh_backend(&self.dir, true);
        let mut synced_counts = Counts::default();
        let (synced_lat, _) = self.drive(
            &mut synced,
            &mut Trace::new(false, Instant::now(), 0),
            &mut synced_counts,
            &mut Timed::default(),
        );
        drop(synced);
        m.set(
            "warehouse.disk.append_p50_us",
            quantile(&synced_lat, 0.50) / 1e3,
        );
        m.set(
            "warehouse.disk.append_p99_us",
            quantile(&synced_lat, 0.99) / 1e3,
        );
        m.set(
            "warehouse.disk.append_nosync_p50_us",
            append.quantile_ns(0.50) / 1e3,
        );
        m.set(
            "warehouse.disk.flush_share",
            1.0 - c.append_ns as f64 / synced_counts.append_ns.max(1) as f64,
        );

        // The frames arrive already checksummed (the binlog frames them
        // upstream); inside this layer only snapshot bodies are. Time
        // crc32 on the rep's own bytes.
        let part = budget / 3;
        let frame_bytes: usize = self.frames.iter().map(Vec::len).sum();
        let (passes, secs) = time_for(part, || {
            for frame in &self.frames {
                std::hint::black_box(crc32(std::hint::black_box(frame)));
            }
        });
        m.set(
            "warehouse.checksum.crc32_mb_per_s",
            passes as f64 * frame_bytes as f64 / 1e6 / secs,
        );
        let (calls, secs) = time_for(part / 4, || {
            std::hint::black_box(crc32(std::hint::black_box(&self.snapshot)));
        });
        let snapshot_crc_ns = secs * 1e9 / calls as f64 * c.snapshot_calls as f64;
        m.set(
            "warehouse.checksum.share_of_append_cpu",
            snapshot_crc_ns / c.cpu_ns.max(1) as f64,
        );

        // The chaos hook every append consults, with an injector attached
        // but nothing armed, and the generator behind its schedules.
        let injector = FaultPlan::new().injector(1);
        let (calls, secs) = time_for(part / 2, || {
            for _ in 0..1000 {
                std::hint::black_box(injector.next_fault(FaultPoint::SegmentAppend, "bench"));
            }
        });
        m.set(
            "chaos.next_fault_unarmed_ns",
            secs * 1e9 / (calls * 1000) as f64,
        );
        let mut rng = DeterministicRng::new(1);
        let (calls, secs) = time_for(part / 4, || {
            for _ in 0..1000 {
                std::hint::black_box(rng.next_u64());
            }
        });
        m.set("chaos.rng_ns", secs * 1e9 / (calls * 1000) as f64);
    }
}
