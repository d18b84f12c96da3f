//! Segmented append-only on-disk storage backend.
//!
//! Layout (one directory per database):
//!
//! ```text
//! storage-dir/
//!   seg-0000000000-00000000000000000001.wal   ← binlog frames 1..=N₁
//!   seg-0000000000-00000000000000000N₁+1.wal  ← frames N₁+1..  (active)
//!   snap-0000000000-00000000000000000042.snap ← snapshot through seqno 42
//!   seg-0000000000-00000000000000000001.wal.tmp ← retired, awaiting reuse
//!   ...
//! ```
//!
//! **Write path.** [`DiskBackend::append`] receives the exact frame the
//! in-memory binlog is about to admit and writes it to the active segment
//! *first* (write-ahead ordering), rotating to a new segment past
//! [`DiskOptions::segment_max_bytes`]. Each append is one positioned
//! write of the frame and a [`format::END_MARK`] at the segment's write
//! cursor; the next append overwrites the mark. Rolling past a segment,
//! and dropping the backend, *seals* the segment: it is truncated to its
//! last frame. Under [`DiskOptions::fsync`] on,
//! every frame is flushed before the append returns, and a new segment's
//! header and its directory entry are flushed before it takes a frame, so
//! nothing acknowledged is lost at power failure. Under `fsync` off the
//! backend flushes nothing on its own: every acknowledged frame survives
//! a crash of the process (it is in the OS page cache), and nothing is
//! promised across power loss. An explicit [`StorageBackend::sync`], and
//! dropping the backend, flush in both modes: the active segment, every
//! segment and snapshot written unflushed since the last sync, and the
//! directory if a file appeared in it unflushed, so a bulk load at
//! `fsync` off that ends with `sync` has every frame durable.
//!
//! **Segment recycling.** A new segment reuses a retired segment's file
//! when compaction left one in the *pool*, so a roll overwrites pages and
//! blocks the file system already holds instead of allocating fresh ones.
//! The reused file gets the new header and an end mark at offset 0
//! (flushed under `fsync` on) *before* it is renamed to the new segment's
//! name, and then the directory is flushed: a crash at any point leaves
//! either a `*.tmp` file that recovery deletes or a valid, empty segment
//! whose old bytes past the mark are not read. Pool files are named
//! `*.wal.tmp`, never `*.wal`; dropping the backend deletes them.
//!
//! **Snapshots & compaction.** [`DiskBackend::write_snapshot`] lands the
//! serialized snapshot via write-temp → rename, so a crash mid-write never
//! leaves half a snapshot under the final name; under `fsync` on the body
//! is flushed before the rename and the directory after it. Every frame
//! the snapshot covers was already flushed by its own append (`fsync` on)
//! or is left to the OS (`fsync` off), so the snapshot flushes no segment.
//! After publishing, the backend reclaims:
//! the backend always retains the **two** newest snapshots and deletes
//! segments fully covered by the *older* of the pair. That way a torn or
//! bit-flipped newest snapshot can never strand recovery past deleted
//! segments — the previous snapshot plus the still-present segments after
//! it reconstruct the same state. A deleted segment's file moves to the
//! pool, which never holds more files than one compaction retired; the
//! rest are unlinked. The returned
//! [`CompactionReport::horizon`] tells the database how far the in-memory
//! binlog prefix may compact (the same conservative horizon).
//!
//! **Recovery.** [`DiskBackend::recover`] picks the newest snapshot whose
//! header and body CRCs validate (falling back to older ones, counting
//! the corrupt), then walks the segment chain from the snapshot's
//! coverage point, CRC- and continuity-checking every frame. The first
//! torn or corrupt frame truncates its segment file at that point and
//! strands everything after it — recovery *repairs and reports*, it never
//! refuses to start. The surviving tail is handed back as raw frames for
//! [`crate::binlog::Binlog::restore_frames`]. The segments after the
//! anchor depend on nothing but their own bytes to be read and scanned,
//! so scoped workers (one per core) read them straight into their slices
//! of one exact-size tail buffer; the continuity, truncation and
//! stranding decisions then run in chain order on the calling thread.
//!
//! **Chaos.** The injected fault points [`FaultPoint::SegmentAppend`] and
//! [`FaultPoint::SnapshotWrite`] fire here: `Transient`/`LinkDown` fail
//! the call loudly, while `CorruptTailByte`, `TruncateTail`, and
//! `DropFsync` succeed *silently* with damaged or vanished on-disk bytes
//! — exactly what a crash mid-write leaves behind — so the recovery path
//! is soak-tested deterministically.

pub mod format;
pub mod spill;

use crate::binlog::LogPosition;
use crate::checksum::crc32;
use crate::error::{Result, WarehouseError};
use crate::storage::{CompactionReport, Recovery, StorageBackend};
use format::{
    encode_segment_header, encode_snapshot_header, parse_segment_header, parse_segment_name,
    parse_snapshot_header, parse_snapshot_name, scan_frames, segment_file_name, snapshot_file_name,
    FrameScan, END_MARK, SEG_HEADER_LEN, SNAP_HEADER_LEN,
};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use xdmod_chaos::{FaultInjector, FaultKind, FaultPoint};

/// Tuning for a [`DiskBackend`].
#[derive(Debug, Clone)]
pub struct DiskOptions {
    /// Directory holding segment and snapshot files (created on open).
    pub dir: PathBuf,
    /// Rotate the active segment once its size reaches this many bytes.
    pub segment_max_bytes: u64,
    /// Flush every acknowledged write to stable storage. On, an append or
    /// snapshot returns only once its bytes, and the directory entry of
    /// any file it created, survive power failure. Off, the backend issues
    /// no flush of its own: every acknowledged write survives a crash of
    /// the process, and none is promised to survive power loss, not even
    /// a snapshot whose covered segments compaction already deleted,
    /// until an explicit [`StorageBackend::sync`] (or dropping the
    /// backend) flushes every file written since the last one.
    pub fsync: bool,
}

impl DiskOptions {
    /// Defaults: 1 MiB segments, fsync on.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_max_bytes: 1 << 20,
            fsync: true,
        }
    }

    /// Set the segment rotation threshold.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.segment_max_bytes = bytes.max(SEG_HEADER_LEN as u64 + 1);
        self
    }

    /// Enable or disable flushing every acknowledged write (see
    /// [`DiskOptions::fsync`]).
    pub fn fsync(mut self, on: bool) -> Self {
        self.fsync = on;
        self
    }
}

/// One segment file the backend knows about (the last one is active).
#[derive(Debug)]
struct Segment {
    /// Seqno of the last frame written to it (== its header base when
    /// empty).
    last: u64,
    /// Tracked byte length (rotation accounting; silent chaos damage may
    /// make the physical file shorter).
    len: u64,
    /// Offset the next frame is written at: the end of the last frame the
    /// file holds, where its end mark sits. It follows the file as an
    /// append-mode write would, so it trails `len` once a silent fault tore
    /// or dropped a write.
    cursor: u64,
    path: PathBuf,
    /// Written since its data was last flushed: only `fsync` off leaves
    /// a write unflushed, and [`StorageBackend::sync`] flushes it.
    dirty: bool,
}

/// A snapshot file the backend knows about.
#[derive(Debug)]
struct SnapFile {
    seqno: u64,
    len: u64,
    path: PathBuf,
    /// Written with `fsync` off and not flushed since.
    dirty: bool,
}

/// The segmented on-disk backend. See the module docs for the format and
/// protocols.
#[derive(Debug)]
pub struct DiskBackend {
    opts: DiskOptions,
    epoch: u32,
    last_seqno: u64,
    segments: Vec<Segment>,
    active_file: Option<File>,
    /// Retained snapshots of the current epoch, ascending by seqno.
    snapshots: Vec<SnapFile>,
    /// Retired segment files (`*.wal.tmp`) a roll reuses before it creates
    /// a file.
    pool: Vec<PathBuf>,
    /// The frame being appended followed by the end mark, so both go out
    /// in one write.
    write_buf: Vec<u8>,
    /// A file was created or renamed in the directory with `fsync` off
    /// and the directory was not flushed since.
    dir_dirty: bool,
    /// Set by [`StorageBackend::recover`] / [`StorageBackend::start_epoch`];
    /// appends before then are refused.
    ready: bool,
    chaos: Option<(FaultInjector, String)>,
}

fn io_err(what: &str, err: std::io::Error) -> WarehouseError {
    WarehouseError::Io(format!("{what}: {err}"))
}

/// What a flush makes durable.
#[derive(Clone, Copy)]
enum Flush<'a> {
    /// A file's data: a frame, a segment header or a snapshot body.
    Data(&'a File),
    /// The entries of a directory: a file created or renamed in it.
    Dir(&'a Path),
}

/// The backend's one flush rule: flush `target` when `durable` (the
/// backend's [`DiskOptions::fsync`]) asks for it, and do nothing
/// otherwise. Every flush the backend makes on its own comes through
/// here; only an explicit [`StorageBackend::sync`] and `Drop` call
/// [`flush`] whatever the option says. A free function taking the
/// option as a value, not a method, because `append` calls it while it
/// holds a mutable borrow of the active segment.
fn flush_if(durable: bool, target: Flush<'_>) -> Result<()> {
    if durable {
        flush(target)
    } else {
        Ok(())
    }
}

/// Flush `target` to stable storage now.
fn flush(target: Flush<'_>) -> Result<()> {
    #[cfg(test)]
    tests::observe_flush(target)?;
    match target {
        Flush::Data(file) => file.sync_data().map_err(|e| io_err("sync file", e)),
        Flush::Dir(dir) => File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io_err("sync storage dir", e)),
    }
}

impl DiskBackend {
    /// Open (creating the directory if needed). The backend is inert
    /// until [`StorageBackend::recover`] scans the durable state.
    pub fn open(opts: DiskOptions) -> Result<DiskBackend> {
        fs::create_dir_all(&opts.dir).map_err(|e| io_err("create storage dir", e))?;
        Ok(DiskBackend {
            opts,
            epoch: 0,
            last_seqno: 0,
            segments: Vec::new(),
            active_file: None,
            snapshots: Vec::new(),
            pool: Vec::new(),
            write_buf: Vec::new(),
            dir_dirty: false,
            ready: false,
            chaos: None,
        })
    }

    /// The storage directory.
    pub fn dir(&self) -> &Path {
        &self.opts.dir
    }

    fn consult(&self, point: FaultPoint) -> Option<FaultKind> {
        self.chaos
            .as_ref()
            .and_then(|(inj, target)| inj.next_fault(point, target))
    }

    /// Seal the active segment (it ends at its last frame, not at its end
    /// mark) and start the segment whose first frame is `base + 1` in a
    /// pool file if there is one, else in a new file.
    fn create_segment(&mut self, base: u64) -> Result<()> {
        self.seal_active()?;
        self.active_file = None;
        let path = self.opts.dir.join(segment_file_name(self.epoch, base));
        let mut start = [0u8; SEG_HEADER_LEN + END_MARK.len()];
        start[..SEG_HEADER_LEN].copy_from_slice(&encode_segment_header(self.epoch, base));
        start[SEG_HEADER_LEN..].copy_from_slice(&END_MARK);
        let pooled = self.pool.pop();
        let file = match &pooled {
            Some(pooled) => OpenOptions::new().write(true).open(pooled),
            // A stale same-name leftover (e.g. from an interrupted
            // restore) must not prefix the new segment.
            None => File::create(&path),
        }
        .map_err(|e| io_err("create segment", e))?;
        write_at(&file, &start, 0).map_err(|e| io_err("write segment header", e))?;
        // The header goes down before a pooled file takes the name: one
        // renamed with its old header would be read as the old segment.
        flush_if(self.opts.fsync, Flush::Data(&file))?;
        if let Some(pooled) = pooled {
            fs::rename(&pooled, &path).map_err(|e| io_err("reuse segment", e))?;
        }
        // A frame acknowledged in this segment is durable only once the
        // segment's directory entry is.
        flush_if(self.opts.fsync, Flush::Dir(&self.opts.dir))?;
        self.dir_dirty |= !self.opts.fsync;
        self.segments.push(Segment {
            last: base,
            len: SEG_HEADER_LEN as u64,
            cursor: SEG_HEADER_LEN as u64,
            path,
            dirty: !self.opts.fsync,
        });
        self.active_file = Some(file);
        Ok(())
    }

    /// Truncate the active segment to its last frame, dropping its end
    /// mark and whatever a recycled file held past it. The truncation is
    /// not flushed: if it is lost, the mark still ends the frames.
    fn seal_active(&self) -> Result<()> {
        match (&self.active_file, self.segments.last()) {
            (Some(file), Some(seg)) => file
                .set_len(seg.cursor)
                .map_err(|e| io_err("seal segment", e)),
            _ => Ok(()),
        }
    }

    fn active_len(&self) -> u64 {
        self.segments.last().map_or(0, |s| s.len)
    }

    /// Remove every durable file in the directory (restore/rebuild path).
    fn wipe(&mut self) -> Result<()> {
        self.active_file = None;
        self.segments.clear();
        self.snapshots.clear();
        self.pool.clear();
        for entry in fs::read_dir(&self.opts.dir).map_err(|e| io_err("list storage dir", e))? {
            let entry = entry.map_err(|e| io_err("list storage dir", e))?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if parse_segment_name(&name).is_some()
                || parse_snapshot_name(&name).is_some()
                || name.ends_with(".tmp")
            {
                fs::remove_file(entry.path()).map_err(|e| io_err("remove stale file", e))?;
            }
        }
        Ok(())
    }

    /// Count the valid frames and content bytes of a stranded segment
    /// (used for the recovery report), then delete it. `read` is the
    /// parallel pass's read and scan of the file; without one, the file
    /// is read and scanned here.
    fn discard_stranded(
        seg_path: &Path,
        epoch: u32,
        base: u64,
        read: Option<io::Result<SegmentRead>>,
        rec: &mut Recovery,
    ) {
        let read = read.unwrap_or_else(|| {
            fs::read(seg_path).map(|data| {
                let content = data.get(SEG_HEADER_LEN..).unwrap_or(&[]);
                (content.len(), scan_frames(content, epoch, base))
            })
        });
        if let Ok((bytes, scan)) = read {
            rec.truncated_records += scan.frames.len() as u64 + u64::from(scan.damaged);
            rec.truncated_bytes += bytes as u64;
        }
        let _ = fs::remove_file(seg_path);
    }

    /// [`StorageBackend::recover`], with the segment chain walked by
    /// `walk` (the anchor index and `segments_scanned` are set first).
    fn recover_with(
        &mut self,
        walk: impl FnOnce(&[SegFile], Option<usize>, u32, u64, &mut Recovery) -> Result<Chain>,
    ) -> Result<Recovery> {
        let mut rec = Recovery::default();
        self.active_file = None;
        self.segments.clear();
        self.snapshots.clear();
        self.pool.clear();

        // Inventory the directory.
        let mut seg_files: Vec<SegFile> = Vec::new();
        let mut snap_files: Vec<(u32, u64, PathBuf, u64)> = Vec::new(); // (epoch, seqno, path, len)
        for entry in fs::read_dir(&self.opts.dir).map_err(|e| io_err("list storage dir", e))? {
            let entry = entry.map_err(|e| io_err("list storage dir", e))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
            if name.ends_with(".tmp") {
                // A crash mid-snapshot-write (never published, never
                // valid), or a pool file of segments retired before it.
                let _ = fs::remove_file(&path);
                continue;
            }
            if parse_segment_name(&name).is_some() {
                let mut header = [0u8; SEG_HEADER_LEN];
                let ok = File::open(&path)
                    .and_then(|mut f| f.read_exact(&mut header))
                    .is_ok();
                match parse_segment_header(&header).filter(|_| ok) {
                    Some((epoch, base)) => seg_files.push((epoch, base, path, len)),
                    None => {
                        // Torn segment header: the file never held a valid
                        // frame — repair by deletion.
                        rec.truncated_bytes += len;
                        rec.truncated_records += u64::from(len > 0);
                        let _ = fs::remove_file(&path);
                    }
                }
            } else if let Some((epoch, seqno)) = parse_snapshot_name(&name) {
                snap_files.push((epoch, seqno, path, len));
            }
        }

        // Pick the newest snapshot that fully validates.
        snap_files.sort_by_key(|(epoch, seqno, _, _)| (*epoch, *seqno));
        let mut best_snap: Option<(u32, u64, Vec<u8>)> = None;
        for (epoch, seqno, path, _) in snap_files.iter().rev() {
            let mut data = fs::read(path).unwrap_or_default();
            let valid = parse_snapshot_header(&data).is_some_and(|h| {
                let body = &data[SNAP_HEADER_LEN..];
                h.epoch == *epoch
                    && h.seqno == *seqno
                    && h.body_len == body.len() as u64
                    && h.body_crc == crc32(body)
            });
            if valid {
                // The body stays in the buffer it was read into.
                data.drain(..SNAP_HEADER_LEN);
                best_snap = Some((*epoch, *seqno, data));
                break;
            }
            rec.corrupt_snapshots += 1;
            let _ = fs::remove_file(path);
        }

        // The newest generation on disk wins; older-generation leftovers
        // from an interrupted restore are stale and removed.
        let target_epoch = seg_files
            .iter()
            .map(|(e, ..)| *e)
            .chain(best_snap.iter().map(|(e, ..)| *e))
            .max()
            .unwrap_or(0);
        seg_files.retain(|(epoch, _, path, _)| {
            let keep = *epoch == target_epoch;
            if !keep {
                let _ = fs::remove_file(path);
            }
            keep
        });
        snap_files.retain(|(epoch, _, path, _)| {
            let keep = *epoch == target_epoch;
            if !keep {
                let _ = fs::remove_file(path);
            }
            keep
        });
        let snap = best_snap.filter(|(epoch, ..)| *epoch == target_epoch);
        let base = snap.as_ref().map_or(0, |(_, seqno, _)| *seqno);

        // Walk the segment chain from the snapshot's coverage point.
        seg_files.sort_by_key(|(_, seg_base, ..)| *seg_base);
        // Segments entirely before the anchor are covered by the snapshot
        // and need no validation; the chain is anchored at the last
        // segment that starts at or before `base`.
        let anchor = seg_files
            .iter()
            .rposition(|(_, seg_base, ..)| *seg_base <= base);
        // Every segment from the anchor on is read and CRC-checked, into
        // the tail or (stranded) into the truncation counts.
        rec.segments_scanned = (seg_files.len() - anchor.unwrap_or(0)) as u64;
        let Chain {
            mut tail,
            mut surviving,
            last: chain_last,
        } = walk(&seg_files, anchor, target_epoch, base, &mut rec)?;

        self.epoch = target_epoch;
        self.last_seqno = chain_last.max(base);
        if chain_last < base {
            // Damage (or missing segments) below the snapshot's coverage:
            // the snapshot alone carries the durable state. Clear the
            // segment chain and restart it at the snapshot point so the
            // chain invariant holds for the next recovery.
            tail.clear();
            for seg in surviving.drain(..) {
                let _ = fs::remove_file(&seg.path);
            }
            self.segments = Vec::new();
            self.create_segment(self.last_seqno)?;
        } else if let Some(active) = surviving.last() {
            let file = OpenOptions::new()
                .write(true)
                .open(&active.path)
                .map_err(|e| io_err("reopen active segment", e))?;
            self.active_file = Some(file);
            self.segments = surviving;
        } else {
            self.segments = Vec::new();
            self.create_segment(self.last_seqno)?;
        }
        self.snapshots = snap_files
            .iter()
            .filter(|(_, _, path, _)| path.exists())
            .map(|(_, seqno, path, len)| SnapFile {
                seqno: *seqno,
                len: *len,
                path: path.clone(),
                dirty: false,
            })
            .collect();
        self.ready = true;

        rec.epoch = target_epoch;
        rec.base_seqno = base;
        rec.snapshot = snap.map(|(epoch, seqno, body)| (LogPosition { epoch, seqno }, body));
        rec.tail = tail;
        Ok(rec)
    }
}

/// A segment file found by the inventory: (epoch, header base, path,
/// length).
type SegFile = (u32, u64, PathBuf, u64);

/// One segment's content as the parallel pass read it: the bytes read
/// past the header, and the scan of those bytes.
type SegmentRead = (usize, FrameScan);

/// What a walk of the segment chain hands back to `recover`.
struct Chain {
    /// The validated frames past the snapshot's coverage point.
    tail: Vec<u8>,
    /// Segment files that stay, in chain order.
    surviving: Vec<Segment>,
    /// Seqno the chain reached (the snapshot's seqno if it reached none).
    last: u64,
}

/// Walk the segment chain from `anchor` (see [`DiskBackend::recover_with`]):
/// read and scan every segment after the anchor on `workers` threads,
/// straight into the tail, then take the continuity, truncation and
/// stranding decisions in chain order.
fn scan_chain(
    files: &[SegFile],
    anchor: Option<usize>,
    epoch: u32,
    base: u64,
    rec: &mut Recovery,
    workers: usize,
) -> Result<Chain> {
    let Some(anchor) = anchor else {
        // Every segment starts after the snapshot's coverage: all stranded.
        for (_, seg_base, path, _) in files {
            DiskBackend::discard_stranded(path, epoch, *seg_base, None, rec);
        }
        return Ok(Chain {
            tail: Vec::new(),
            surviving: Vec::new(),
            last: base,
        });
    };
    // Fully covered by the snapshot; retained only until the next
    // compaction pass.
    let mut surviving: Vec<Segment> = files[..anchor]
        .iter()
        .map(|(_, seg_base, path, len)| Segment {
            last: *seg_base,
            len: *len,
            cursor: *len,
            path: path.clone(),
            dirty: false,
        })
        .collect();

    // The anchor alone, on this thread: its frames up to `base` are the
    // snapshot's, not the tail's.
    let (_, anchor_base, anchor_path, _) = &files[anchor];
    let data = fs::read(anchor_path).map_err(|e| io_err("read segment", e))?;
    let content = data.get(SEG_HEADER_LEN..).unwrap_or(&[]);
    let scan = scan_frames(content, epoch, *anchor_base);
    let from = scan
        .frames
        .iter()
        .find(|f| f.seqno > base)
        .map_or(scan.valid_len, |f| f.start);
    let head = &content[from..scan.valid_len];
    // Each later segment gets a slot of the size its inventory length
    // promises; a file that reads shorter leaves a gap the pass below
    // closes. A damaged anchor strands every later segment: none is read
    // ahead.
    let later = &files[anchor + 1..];
    let ahead = if scan.damaged { &[][..] } else { later };
    let slots: Vec<usize> = ahead
        .iter()
        .map(|(.., len)| (*len as usize).saturating_sub(SEG_HEADER_LEN))
        .collect();
    let mut tail = vec![0u8; head.len() + slots.iter().sum::<usize>()];
    tail[..head.len()].copy_from_slice(head);
    let mut write_at = head.len();
    let reads = read_segments(ahead, &slots, epoch, &mut tail[write_at..], workers)?;
    let mut broken = scan.damaged;
    let anchor_seg = keep_segment(anchor_path, content.len(), &scan, *anchor_base, rec)?;
    let mut chain_last = anchor_seg.last;
    surviving.push(anchor_seg);
    drop(data);

    // In chain order: an accepted segment's valid bytes join the tail at
    // `write_at`, which trails its slot only after a short read.
    let mut slot_at = write_at;
    let mut reads = reads.into_iter();
    for (idx, (_, seg_base, path, _)) in later.iter().enumerate() {
        let slot = slot_at;
        slot_at += slots.get(idx).copied().unwrap_or(0);
        match reads.next() {
            Some(read) if !broken && *seg_base == chain_last => {
                let (bytes, scan) = read.map_err(|e| io_err("read segment", e))?;
                if slot != write_at {
                    tail.copy_within(slot..slot + scan.valid_len, write_at);
                }
                write_at += scan.valid_len;
                broken = scan.damaged;
                let seg = keep_segment(path, bytes, &scan, *seg_base, rec)?;
                chain_last = seg.last;
                surviving.push(seg);
            }
            read => {
                // Stranded past damage or a chain gap.
                DiskBackend::discard_stranded(path, epoch, *seg_base, read, rec);
                broken = true;
            }
        }
    }
    tail.truncate(write_at);
    Ok(Chain {
        tail,
        surviving,
        last: chain_last,
    })
}

/// Read each of `files` past its header into its own `slots`-sized slice
/// of `buf`, in order, and scan what was read. Up to `workers` scoped
/// threads share the files in contiguous runs; one worker runs inline.
fn read_segments(
    files: &[SegFile],
    slots: &[usize],
    epoch: u32,
    buf: &mut [u8],
    workers: usize,
) -> Result<Vec<io::Result<SegmentRead>>> {
    let mut jobs = Vec::with_capacity(files.len());
    let mut rest = buf;
    for ((_, seg_base, path, _), len) in files.iter().zip(slots) {
        let (slot, more) = rest.split_at_mut(*len);
        jobs.push((path.as_path(), *seg_base, slot));
        rest = more;
    }
    let read_one = move |(path, seg_base, slot): &mut (&Path, u64, &mut [u8])| {
        read_past_header(path, slot).map(|n| (n, scan_frames(&slot[..n], epoch, *seg_base)))
    };
    let workers = workers.clamp(1, jobs.len().max(1));
    if workers == 1 {
        return Ok(jobs.iter_mut().map(read_one).collect());
    }
    let run = jobs.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .chunks_mut(run)
            .map(|chunk| scope.spawn(move || chunk.iter_mut().map(read_one).collect::<Vec<_>>()))
            .collect();
        let mut reads = Vec::with_capacity(files.len());
        for handle in handles {
            let done = handle
                .join()
                .map_err(|_| WarehouseError::Io("segment scan worker panicked".to_owned()))?;
            reads.extend(done);
        }
        Ok(reads)
    })
}

/// Fill `buf` from `path` past the segment header, stopping early at end
/// of file; returns the bytes read.
fn read_past_header(path: &Path, buf: &mut [u8]) -> io::Result<usize> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(SEG_HEADER_LEN as u64))?;
    let mut filled = 0;
    while filled < buf.len() {
        match file.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Accept a scanned segment into the chain: physically truncate a torn
/// tail (counting it), so the file is a clean prefix from here on, and
/// describe the file that stays. An end mark and a recycled file's bytes
/// past it stay: the next append overwrites the mark, and a seal drops
/// the rest.
fn keep_segment(
    path: &Path,
    content_len: usize,
    scan: &FrameScan,
    seg_base: u64,
    rec: &mut Recovery,
) -> Result<Segment> {
    let valid_file_len = (SEG_HEADER_LEN + scan.valid_len) as u64;
    if scan.damaged {
        rec.truncated_records += 1;
        rec.truncated_bytes += (content_len - scan.valid_len) as u64;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err("open segment for repair", e))?;
        file.set_len(valid_file_len)
            .map_err(|e| io_err("truncate torn tail", e))?;
    }
    Ok(Segment {
        last: scan.last_seqno(seg_base),
        len: valid_file_len,
        cursor: valid_file_len,
        path: path.to_path_buf(),
        dirty: false,
    })
}

/// Write all of `buf` at byte `offset` of `file`, leaving the handle's
/// own position alone.
#[cfg(unix)]
fn write_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, offset)
}

/// Write all of `buf` at byte `offset` of `file`.
#[cfg(not(unix))]
fn write_at(mut file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(buf)
}

impl StorageBackend for DiskBackend {
    fn name(&self) -> &'static str {
        "disk"
    }

    fn append(&mut self, pos: LogPosition, frame: &[u8]) -> Result<()> {
        if !self.ready {
            return Err(WarehouseError::Io(
                "disk backend used before recovery".into(),
            ));
        }
        if pos.epoch != self.epoch || pos.seqno != self.last_seqno + 1 {
            return Err(WarehouseError::Io(format!(
                "append at {pos} out of order (backend at {}:{})",
                self.epoch, self.last_seqno
            )));
        }
        if self.active_len() >= self.opts.segment_max_bytes {
            self.create_segment(self.last_seqno)?;
        }
        let fault = self.consult(FaultPoint::SegmentAppend);
        match fault {
            Some(FaultKind::Transient) => {
                return Err(WarehouseError::Io(
                    "injected: transient segment write failure".into(),
                ));
            }
            Some(FaultKind::LinkDown) => {
                return Err(WarehouseError::Io("injected: storage offline".into()));
            }
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            _ => {}
        }
        let (Some(file), Some(seg)) = (&self.active_file, self.segments.last_mut()) else {
            return Err(WarehouseError::Io("no active segment".into()));
        };
        let at = seg.cursor;
        let written = at + frame.len() as u64;
        let buf = &mut self.write_buf;
        buf.clear();
        buf.extend_from_slice(frame);
        buf.extend_from_slice(&END_MARK);
        if fault == Some(FaultKind::CorruptTailByte) {
            buf[frame.len() / 2] ^= 0xA5;
        }
        write_at(file, buf, at).map_err(|e| io_err("write frame", e))?;
        // Silent-damage faults model a crash mid-write: the caller sees
        // success, the disk does not. Recovery must repair these. The
        // cursor stays where the file's frames end.
        seg.cursor = match fault {
            Some(FaultKind::TruncateTail { bytes }) => {
                let torn = written - bytes.max(1).min(frame.len() as u64 - 1);
                file.set_len(torn).map_err(|e| io_err("tear frame", e))?;
                torn
            }
            Some(FaultKind::DropFsync) => {
                file.set_len(at).map_err(|e| io_err("drop fsync", e))?;
                at
            }
            Some(FaultKind::CorruptTailByte) => written,
            _ => {
                flush_if(self.opts.fsync, Flush::Data(file))?;
                written
            }
        };
        seg.len += frame.len() as u64;
        seg.last = pos.seqno;
        seg.dirty |= !self.opts.fsync;
        self.last_seqno = pos.seqno;
        Ok(())
    }

    fn write_snapshot(&mut self, pos: LogPosition, snapshot: &[u8]) -> Result<CompactionReport> {
        if !self.ready {
            return Err(WarehouseError::Io(
                "disk backend used before recovery".into(),
            ));
        }
        if pos.epoch != self.epoch {
            return Err(WarehouseError::Io(format!(
                "snapshot at {pos} from wrong epoch (backend at {})",
                self.epoch
            )));
        }
        if self.snapshots.last().is_some_and(|s| pos.seqno <= s.seqno) {
            return Ok(CompactionReport::default());
        }
        let fault = self.consult(FaultPoint::SnapshotWrite);
        match fault {
            Some(FaultKind::Transient) => {
                return Err(WarehouseError::Io(
                    "injected: transient snapshot write failure".into(),
                ));
            }
            Some(FaultKind::LinkDown) => {
                return Err(WarehouseError::Io("injected: storage offline".into()));
            }
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
            }
            _ => {}
        }
        let final_path = self
            .opts
            .dir
            .join(snapshot_file_name(self.epoch, pos.seqno));
        let header = encode_snapshot_header(
            self.epoch,
            pos.seqno,
            snapshot.len() as u64,
            crc32(snapshot),
        );
        // Only the silent-damage faults build a (damaged) copy of the
        // file; a clean write sends the header and the caller's body as
        // they are.
        let mut damaged = matches!(
            fault,
            Some(FaultKind::CorruptTailByte | FaultKind::TruncateTail { .. })
        )
        .then(|| [&header[..], snapshot].concat());
        if let Some(bytes) = &mut damaged {
            match fault {
                // Flip a body byte: header parses, body CRC fails.
                Some(FaultKind::CorruptTailByte) => {
                    if let Some(byte) = bytes.get_mut(SNAP_HEADER_LEN + snapshot.len() / 2) {
                        *byte ^= 0xA5;
                    }
                }
                Some(FaultKind::TruncateTail { bytes: cut }) => {
                    bytes.truncate(bytes.len().saturating_sub(cut.max(1) as usize));
                }
                _ => {}
            }
        }
        let len = damaged
            .as_ref()
            .map_or(SNAP_HEADER_LEN + snapshot.len(), Vec::len);
        let published = fault != Some(FaultKind::DropFsync);
        if published {
            // write-temp → rename, so a crash mid-write leaves no half
            // snapshot under the final name.
            let tmp = final_path.with_extension("snap.tmp");
            let mut file = File::create(&tmp).map_err(|e| io_err("create snapshot", e))?;
            match &damaged {
                Some(bytes) => file.write_all(bytes),
                None => file
                    .write_all(&header)
                    .and_then(|()| file.write_all(snapshot)),
            }
            .map_err(|e| io_err("write snapshot", e))?;
            flush_if(self.opts.fsync, Flush::Data(&file))?;
            drop(file);
            fs::rename(&tmp, &final_path).map_err(|e| io_err("publish snapshot", e))?;
            self.dir_dirty |= !self.opts.fsync;
        }
        // The backend believes the write succeeded even when a silent
        // fault damaged it — that is the fault's point. The file is
        // tracked before its directory flush, so a failed flush still
        // leaves it to retention.
        self.snapshots.push(SnapFile {
            seqno: pos.seqno,
            len: len as u64,
            path: final_path,
            dirty: published && !self.opts.fsync,
        });
        if published {
            flush_if(self.opts.fsync, Flush::Dir(&self.opts.dir))?;
        }
        // Compact up to the *previous* snapshot: with the two newest
        // snapshots retained, one damaged snapshot never strands recovery.
        let horizon = if self.snapshots.len() >= 2 {
            self.snapshots[self.snapshots.len() - 2].seqno
        } else {
            0
        };
        let mut report = CompactionReport {
            horizon,
            ..CompactionReport::default()
        };
        while self.snapshots.len() > 2 {
            let old = self.snapshots.remove(0);
            report.snapshots_deleted += 1;
            report.bytes_reclaimed += old.len;
            let _ = fs::remove_file(&old.path);
        }
        let sealed = self.segments.len().saturating_sub(1);
        let retired = self.segments[..sealed]
            .iter()
            .take_while(|s| s.last <= horizon)
            .count();
        for old in self.segments.drain(..retired) {
            report.segments_deleted += 1;
            report.bytes_reclaimed += old.len;
            // Keep the file for a roll to overwrite; the pool holds no more
            // files than this compaction retired.
            let pooled = old.path.with_extension("wal.tmp");
            if self.pool.len() < retired && fs::rename(&old.path, &pooled).is_ok() {
                self.pool.push(pooled);
            } else {
                let _ = fs::remove_file(&old.path);
            }
        }
        Ok(report)
    }

    fn start_epoch(&mut self, epoch: u32) -> Result<()> {
        self.wipe()?;
        self.epoch = epoch;
        self.last_seqno = 0;
        self.create_segment(0)?;
        self.ready = true;
        Ok(())
    }

    fn recover(&mut self) -> Result<Recovery> {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.recover_with(|files, anchor, epoch, base, rec| {
            scan_chain(files, anchor, epoch, base, rec, workers)
        })
    }

    fn sync(&mut self) -> Result<()> {
        if let Some(file) = &self.active_file {
            flush(Flush::Data(file))?;
        }
        // Every other file `fsync` off left unflushed: rolled segments and
        // snapshots, reopened by path (a flush reaches the file's data
        // whichever handle issues it).
        let active = self.segments.len().saturating_sub(1);
        let rolled = self.segments[..active]
            .iter_mut()
            .map(|seg| (&seg.path, &mut seg.dirty));
        let snapshots = self.snapshots.iter_mut().map(|s| (&s.path, &mut s.dirty));
        for (path, dirty) in rolled.chain(snapshots).filter(|(_, dirty)| **dirty) {
            let file = File::open(path).map_err(|e| io_err("open file to sync", e))?;
            flush(Flush::Data(&file))?;
            *dirty = false;
        }
        if let Some(seg) = self.segments.last_mut() {
            seg.dirty = false;
        }
        if self.dir_dirty {
            flush(Flush::Dir(&self.opts.dir))?;
            self.dir_dirty = false;
        }
        Ok(())
    }

    fn set_chaos(&mut self, injector: FaultInjector, target: String) {
        self.chaos = Some((injector, target));
    }

    fn clear_chaos(&mut self) {
        self.chaos = None;
    }
}

impl Drop for DiskBackend {
    /// Seal the active segment and delete the pool, so the directory holds
    /// only segments that end at their last frame, then flush as
    /// [`StorageBackend::sync`] does.
    fn drop(&mut self) {
        let _ = self.seal_active();
        for path in self.pool.drain(..) {
            let _ = fs::remove_file(path);
        }
        let _ = StorageBackend::sync(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xdmod_chaos::{DeterministicRng, FaultPlan, FaultSpec};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        /// Flushes [`flush`] issued on this thread: (file data, directory).
        static FLUSHES: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
        /// While set, a directory flush on this thread fails.
        static FAIL_DIR_FLUSH: Cell<bool> = const { Cell::new(false) };
    }

    /// Count `target`, and fail it if it is a directory flush while
    /// [`FAIL_DIR_FLUSH`] is set.
    pub(super) fn observe_flush(target: Flush<'_>) -> Result<()> {
        FLUSHES.with(|n| {
            let (data, dir) = n.get();
            n.set(match target {
                Flush::Data(_) => (data + 1, dir),
                Flush::Dir(_) => (data, dir + 1),
            });
        });
        if matches!(target, Flush::Dir(_)) && FAIL_DIR_FLUSH.with(Cell::get) {
            return Err(WarehouseError::Io("injected: directory flush".into()));
        }
        Ok(())
    }

    fn flushes() -> (u64, u64) {
        FLUSHES.with(Cell::get)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xdmod-disk-{}-{tag}-{n}", std::process::id()))
    }

    fn frame(epoch: u32, seqno: u64, payload: &[u8]) -> Vec<u8> {
        let body_len = 12 + payload.len() + 4;
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.extend_from_slice(&epoch.to_le_bytes());
        out.extend_from_slice(&seqno.to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn pos(seqno: u64) -> LogPosition {
        LogPosition { epoch: 0, seqno }
    }

    fn fresh(dir: &Path) -> DiskBackend {
        let mut be = DiskBackend::open(DiskOptions::new(dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert!(rec.tail.is_empty());
        be
    }

    /// Append frames 1..=n with payload derived from the seqno; returns
    /// the concatenated frames for oracle comparison.
    fn drive(be: &mut DiskBackend, from: u64, to: u64) -> Vec<u8> {
        let mut all = Vec::new();
        for seqno in from..=to {
            let f = frame(0, seqno, format!("record-{seqno}").as_bytes());
            be.append(pos(seqno), &f).unwrap();
            all.extend_from_slice(&f);
        }
        all
    }

    #[test]
    fn clean_round_trip_recovers_every_frame() {
        let dir = temp_dir("clean");
        let mut be = fresh(&dir);
        let written = drive(&mut be, 1, 20);
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.epoch, 0);
        assert_eq!(rec.base_seqno, 0);
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.tail, written);
        assert!(!rec.repaired());
        // Appends continue the chain after recovery.
        let f = frame(0, 21, b"more");
        be.append(pos(21), &f).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segment_rotation_spreads_frames_across_files_and_chains_back() {
        let dir = temp_dir("rotate");
        let mut be =
            DiskBackend::open(DiskOptions::new(&dir).fsync(false).segment_max_bytes(128)).unwrap();
        be.recover().unwrap();
        let written = drive(&mut be, 1, 30);
        assert!(
            be.segments.len() > 2,
            "expected rotation, got {} segments",
            be.segments.len()
        );
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.tail, written);
        assert_eq!(rec.segments_scanned, be.segments.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_truncated_to_durable_prefix() {
        let dir = temp_dir("torn");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SegmentAppend,
            FaultKind::TruncateTail { bytes: 7 },
            &[10],
        ));
        let mut be = fresh(&dir);
        be.set_chaos(plan.injector(1), "wal".into());
        let written = drive(&mut be, 1, 12);
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        // Frames 10..12 are gone: 10 was torn, 11 and 12 follow the tear.
        let frame_len = frame(0, 1, b"record-1").len();
        assert_eq!(rec.tail.len(), 9 * frame_len);
        assert_eq!(rec.tail, written[..9 * frame_len]);
        assert!(rec.repaired());
        assert!(rec.truncated_records >= 1);
        assert!(rec.truncated_bytes > 0);
        // Recovery resumes appends from the durable head.
        let f = frame(0, 10, b"after-crash");
        be.append(pos(10), &f).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_fsync_loses_only_the_unsynced_record() {
        let dir = temp_dir("dropfsync");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SegmentAppend,
            FaultKind::DropFsync,
            &[5],
        ));
        let mut be = fresh(&dir);
        be.set_chaos(plan.injector(1), "wal".into());
        let written = drive(&mut be, 1, 8);
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        // Record 5 vanished cleanly; 6..8 follow the hole and are
        // stranded by the continuity check. Prefix = 1..4.
        let frame_len = frame(0, 1, b"record-1").len();
        assert_eq!(rec.tail, written[..4 * frame_len]);
        assert_eq!(be.last_seqno, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_detected_and_truncated() {
        let dir = temp_dir("bitflip");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SegmentAppend,
            FaultKind::CorruptTailByte,
            &[3],
        ));
        let mut be = fresh(&dir);
        be.set_chaos(plan.injector(1), "wal".into());
        let written = drive(&mut be, 1, 6);
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        let frame_len = frame(0, 1, b"record-1").len();
        assert_eq!(rec.tail, written[..2 * frame_len]);
        assert!(rec.truncated_records >= 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fault_fails_loudly_without_advancing() {
        let dir = temp_dir("transient");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SegmentAppend,
            FaultKind::Transient,
            &[2],
        ));
        let mut be = fresh(&dir);
        be.set_chaos(plan.injector(1), "wal".into());
        let f1 = frame(0, 1, b"one");
        be.append(pos(1), &f1).unwrap();
        let f2 = frame(0, 2, b"two");
        assert!(matches!(be.append(pos(2), &f2), Err(WarehouseError::Io(_))));
        // The retry (same seqno) succeeds: the failed write left no trace.
        be.append(pos(2), &f2).unwrap();
        drop(be);
        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.tail, [f1, f2].concat());
        assert!(!rec.repaired());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compaction_deletes_covered_segments_and_recovery_uses_snapshot() {
        let dir = temp_dir("compact");
        let mut be =
            DiskBackend::open(DiskOptions::new(&dir).fsync(false).segment_max_bytes(96)).unwrap();
        be.recover().unwrap();
        drive(&mut be, 1, 10);
        let r1 = be.write_snapshot(pos(10), b"snapshot-at-10").unwrap();
        assert_eq!(r1.horizon, 0); // first snapshot: nothing reclaimable yet
        assert_eq!(r1.segments_deleted, 0);
        let mut tail_frames = drive(&mut be, 11, 20);
        let r2 = be.write_snapshot(pos(20), b"snapshot-at-20").unwrap();
        assert_eq!(r2.horizon, 10); // trails the previous snapshot
        assert!(
            r2.segments_deleted > 0,
            "covered segments should be deleted"
        );
        assert!(r2.bytes_reclaimed > 0);
        tail_frames.extend_from_slice(&drive(&mut be, 21, 23));
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        let (snap_pos, body) = rec.snapshot.expect("snapshot should validate");
        assert_eq!(snap_pos, pos(20));
        assert_eq!(body, b"snapshot-at-20");
        assert_eq!(rec.base_seqno, 20);
        // The tail holds only frames past the snapshot.
        let frame_len = frame(0, 21, b"record-21").len();
        assert_eq!(rec.tail.len(), 3 * frame_len);
        assert_eq!(rec.tail, tail_frames[tail_frames.len() - 3 * frame_len..]);
        assert_eq!(be.last_seqno, 23);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_scanned_counts_only_what_recovery_reads() {
        let dir = temp_dir("scanned");
        let mut be =
            DiskBackend::open(DiskOptions::new(&dir).fsync(false).segment_max_bytes(96)).unwrap();
        be.recover().unwrap();
        drive(&mut be, 1, 10);
        // One snapshot: nothing is compacted, so the segments it covers
        // stay on disk.
        be.write_snapshot(pos(10), b"snapshot-at-10").unwrap();
        let tail = drive(&mut be, 11, 13);
        let on_disk = be.segments.len();
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.base_seqno, 10);
        assert_eq!(rec.tail, tail);
        // Bases 0, 3, 6, 9, 12: the chain anchors at base 9 (frames
        // 10..=12), so only that segment and the next are read.
        assert_eq!(on_disk, 5);
        assert_eq!(be.segments.len(), on_disk);
        assert_eq!(rec.segments_scanned, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let dir = temp_dir("snapfall");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SnapshotWrite,
            FaultKind::CorruptTailByte,
            &[2],
        ));
        let mut be =
            DiskBackend::open(DiskOptions::new(&dir).fsync(false).segment_max_bytes(96)).unwrap();
        be.recover().unwrap();
        be.set_chaos(plan.injector(7), "wal".into());
        drive(&mut be, 1, 10);
        be.write_snapshot(pos(10), b"good-snapshot").unwrap();
        drive(&mut be, 11, 20);
        // This snapshot is silently bit-flipped on disk.
        be.write_snapshot(pos(20), b"doomed-snapshot").unwrap();
        drive(&mut be, 21, 24);
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.corrupt_snapshots, 1);
        let (snap_pos, body) = rec.snapshot.expect("previous snapshot survives");
        assert_eq!(snap_pos, pos(10));
        assert_eq!(body, b"good-snapshot");
        // Segments after seqno 10 were retained (compaction horizon
        // trails), so the full tail 11..24 replays.
        let events: Vec<u64> = {
            let scan = scan_frames(&rec.tail, 0, 10);
            assert!(!scan.damaged);
            scan.frames.iter().map(|f| f.seqno).collect()
        };
        assert_eq!(events, (11..=24).collect::<Vec<_>>());
        assert_eq!(be.last_seqno, 24);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropped_snapshot_fsync_falls_back_to_previous() {
        let dir = temp_dir("snapdrop");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SnapshotWrite,
            FaultKind::DropFsync,
            &[2],
        ));
        let mut be = fresh(&dir);
        be.set_chaos(plan.injector(7), "wal".into());
        drive(&mut be, 1, 5);
        be.write_snapshot(pos(5), b"first").unwrap();
        drive(&mut be, 6, 9);
        be.write_snapshot(pos(9), b"vanishes").unwrap();
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        let (snap_pos, body) = rec.snapshot.expect("previous snapshot survives");
        assert_eq!(snap_pos, pos(5));
        assert_eq!(body, b"first");
        let scan = scan_frames(&rec.tail, 0, 5);
        assert_eq!(scan.frames.len(), 4);
        assert_eq!(be.last_seqno, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn start_epoch_wipes_previous_generation() {
        let dir = temp_dir("epoch");
        let mut be = fresh(&dir);
        drive(&mut be, 1, 5);
        be.write_snapshot(pos(5), b"old-gen").unwrap();
        be.start_epoch(1).unwrap();
        let f = frame(1, 1, b"new-gen");
        be.append(LogPosition { epoch: 1, seqno: 1 }, &f).unwrap();
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.epoch, 1);
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.tail, f);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_append_is_refused_not_panicking() {
        let dir = temp_dir("order");
        let mut be = fresh(&dir);
        let f = frame(0, 5, b"skip");
        assert!(be.append(pos(5), &f).is_err());
        let wrong_epoch = frame(3, 1, b"epoch");
        assert!(be
            .append(LogPosition { epoch: 3, seqno: 1 }, &wrong_epoch)
            .is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_before_recover_is_refused() {
        let dir = temp_dir("notready");
        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let f = frame(0, 1, b"x");
        assert!(be.append(pos(1), &f).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_and_tmp_leftovers_are_tolerated() {
        let dir = temp_dir("foreign");
        let mut be = fresh(&dir);
        let written = drive(&mut be, 1, 3);
        drop(be);
        fs::write(dir.join("README.txt"), b"not ours").unwrap();
        fs::write(
            dir.join("snap-0000000000-00000000000000000099.snap.tmp"),
            b"half",
        )
        .unwrap();

        let mut be = DiskBackend::open(DiskOptions::new(&dir).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.tail, written);
        assert!(dir.join("README.txt").exists());
        assert!(!dir
            .join("snap-0000000000-00000000000000000099.snap.tmp")
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_crash_recovery_is_idempotent() {
        let dir = temp_dir("double");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SegmentAppend,
            FaultKind::TruncateTail { bytes: 3 },
            &[4],
        ));
        let mut be = fresh(&dir);
        be.set_chaos(plan.injector(1), "wal".into());
        let written = drive(&mut be, 1, 6);
        drop(be);

        let recover_once = |dir: &Path| {
            let mut be = DiskBackend::open(DiskOptions::new(dir).fsync(false)).unwrap();
            be.recover().unwrap()
        };
        let first = recover_once(&dir);
        let second = recover_once(&dir);
        assert_eq!(first.tail, second.tail);
        let frame_len = frame(0, 1, b"record-1").len();
        assert_eq!(second.tail, written[..3 * frame_len]);
        // The second pass found an already-repaired log.
        assert!(!second.repaired());
        let _ = fs::remove_dir_all(&dir);
    }

    /// What [`roll_and_snapshot`] did, and the flushes it issued.
    #[derive(Debug)]
    struct Run {
        appends: u64,
        rolls: u64,
        snapshots: u64,
        segments_deleted: u64,
        /// (file data, directory) flushes over the run.
        flushes: (u64, u64),
        /// The frames past the last snapshot.
        tail: Vec<u8>,
    }

    /// Append frames 1..=30 into 96-byte segments (a roll every three
    /// frames) with snapshots at 10 and 20, so the second compacts.
    fn roll_and_snapshot(be: &mut DiskBackend) -> Run {
        let before = flushes();
        let active = |be: &DiskBackend| be.segments.last().map(|s| s.path.clone());
        let mut run = Run {
            appends: 0,
            rolls: 0,
            snapshots: 0,
            segments_deleted: 0,
            flushes: (0, 0),
            tail: Vec::new(),
        };
        for seqno in 1..=30 {
            let was = active(be);
            let f = frame(0, seqno, format!("record-{seqno}").as_bytes());
            be.append(pos(seqno), &f).unwrap();
            run.appends += 1;
            run.rolls += u64::from(active(be) != was);
            run.tail.extend_from_slice(&f);
            if seqno % 10 == 0 && seqno < 30 {
                let report = be
                    .write_snapshot(pos(seqno), format!("snapshot-at-{seqno}").as_bytes())
                    .unwrap();
                run.snapshots += 1;
                run.segments_deleted += report.segments_deleted;
                run.tail.clear();
            }
        }
        let after = flushes();
        run.flushes = (after.0 - before.0, after.1 - before.1);
        run
    }

    #[test]
    fn fsync_off_flushes_nothing_until_an_explicit_sync_flushes_every_file_written() {
        let dir = temp_dir("flush-off");
        let mut be =
            DiskBackend::open(DiskOptions::new(&dir).fsync(false).segment_max_bytes(96)).unwrap();
        be.recover().unwrap();
        let run = roll_and_snapshot(&mut be);
        assert!(run.rolls >= 3 && run.snapshots == 2, "{run:?}");
        assert!(run.segments_deleted > 0, "compaction deletes: {run:?}");
        assert_eq!(run.flushes, (0, 0), "{run:?}");
        // Each live segment (the active one included) and each retained
        // snapshot was written unflushed; the directory gained entries.
        let written = (be.segments.len() + be.snapshots.len()) as u64;
        let before = flushes();
        be.sync().unwrap();
        assert_eq!(flushes(), (before.0 + written, before.1 + 1), "{run:?}");
        // Nothing is left unflushed: a second sync flushes only the
        // active segment, as it always does.
        let before = flushes();
        be.sync().unwrap();
        assert_eq!(flushes(), (before.0 + 1, before.1));
        // Frame 31 rolls into a fresh segment: dropping the backend
        // flushes that segment and the directory entry it added.
        be.append(pos(31), &frame(0, 31, b"record-31")).unwrap();
        let before = flushes();
        drop(be);
        assert_eq!(flushes(), (before.0 + 1, before.1 + 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_snapshot_whose_directory_flush_fails_is_still_tracked_and_retired() {
        let dir = temp_dir("dirflush");
        let mut be = DiskBackend::open(DiskOptions::new(&dir)).unwrap();
        be.recover().unwrap();
        be.append(pos(1), &frame(0, 1, b"record")).unwrap();
        FAIL_DIR_FLUSH.with(|f| f.set(true));
        let failed = be.write_snapshot(pos(1), b"snapshot-at-1");
        FAIL_DIR_FLUSH.with(|f| f.set(false));
        assert!(failed.is_err(), "{failed:?}");
        let first = dir.join(snapshot_file_name(0, 1));
        assert!(first.exists(), "the rename published it");
        assert!(be.snapshots.iter().any(|s| s.seqno == 1));
        for seqno in 2..=3 {
            be.append(pos(seqno), &frame(0, seqno, b"record")).unwrap();
            let report = be.write_snapshot(pos(seqno), b"snapshot").unwrap();
            let retired = u64::from(seqno == 3);
            assert_eq!(report.snapshots_deleted, retired, "snapshot {seqno}");
        }
        assert!(!first.exists(), "two-snapshot retention deleted it");
        drop(be);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_on_flushes_each_ack_header_and_body_with_their_dir_and_recovers() {
        let dir = temp_dir("flush-on");
        let opts = DiskOptions::new(&dir).segment_max_bytes(96);
        assert!(opts.fsync, "the default is durable");
        let mut be = DiskBackend::open(opts).unwrap();
        be.recover().unwrap();
        let run = roll_and_snapshot(&mut be);
        assert!(run.rolls >= 3 && run.snapshots == 2, "{run:?}");
        assert!(run.segments_deleted > 0, "compaction deletes: {run:?}");
        let data = run.appends + run.rolls + run.snapshots;
        assert_eq!(run.flushes, (data, run.rolls + run.snapshots), "{run:?}");
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&dir)).unwrap();
        let rec = be.recover().unwrap();
        let (at, body) = rec.snapshot.clone().expect("the newer snapshot validates");
        assert_eq!(at, pos(20));
        assert_eq!(body, b"snapshot-at-20");
        assert_eq!(rec.tail, run.tail);
        assert!(!rec.repaired());
        assert_eq!(be.last_seqno, 30);
        drop(be);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_files_hold_header_and_body_or_the_faults_damage() {
        let dir = temp_dir("snapbytes");
        let at = |kind, op| FaultSpec::at_ops(FaultPoint::SnapshotWrite, kind, &[op]);
        let plan = FaultPlan::new()
            .with(at(FaultKind::CorruptTailByte, 2))
            .with(at(FaultKind::TruncateTail { bytes: 0 }, 3))
            .with(at(FaultKind::TruncateTail { bytes: 5 }, 4));
        let mut be = fresh(&dir);
        be.set_chaos(plan.injector(1), "wal".into());
        for seqno in 1..=4 {
            let f = frame(0, seqno, b"record");
            be.append(pos(seqno), &f).unwrap();
            let body = format!("snapshot body at {seqno}").into_bytes();
            be.write_snapshot(pos(seqno), &body).unwrap();
            let header = encode_snapshot_header(0, seqno, body.len() as u64, crc32(&body));
            let mut want = [&header[..], &body].concat();
            match seqno {
                2 => want[SNAP_HEADER_LEN + body.len() / 2] ^= 0xA5,
                3 => want.truncate(want.len() - 1),
                4 => want.truncate(want.len() - 5),
                _ => {}
            }
            let got = fs::read(dir.join(snapshot_file_name(0, seqno))).unwrap();
            assert_eq!(got, want, "snapshot {seqno}");
        }
        drop(be);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A store of 96-byte segments (three frames each) with snapshots at
    /// 10 and 20, so compaction pooled the three segments through frame
    /// 9, then frames 21..=`to` appended. Returns the live backend and the
    /// frames past the snapshot at 20.
    fn recycled_store(dir: &Path, to: u64) -> (DiskBackend, Vec<u8>) {
        let opts = DiskOptions::new(dir).fsync(false).segment_max_bytes(96);
        let mut be = DiskBackend::open(opts).unwrap();
        be.recover().unwrap();
        drive(&mut be, 1, 10);
        be.write_snapshot(pos(10), b"snapshot-at-10").unwrap();
        drive(&mut be, 11, 20);
        be.write_snapshot(pos(20), b"snapshot-at-20").unwrap();
        assert_eq!(be.pool.len(), 3);
        let tail = drive(&mut be, 21, to);
        (be, tail)
    }

    /// The active segment is a recycled file: its old bytes run past the
    /// end mark.
    fn active_has_stale_bytes(be: &DiskBackend) -> bool {
        let seg = be.segments.last().unwrap();
        fs::metadata(&seg.path).unwrap().len() > seg.cursor + END_MARK.len() as u64
    }

    fn tmp_files(dir: &Path) -> Vec<String> {
        let names = listing(dir).into_iter().map(|(name, _)| name);
        names.filter(|name| name.ends_with(".tmp")).collect()
    }

    #[test]
    fn a_crash_image_of_a_part_written_recycled_segment_recovers_clean() {
        let dir = temp_dir("recycled-image");
        let (be, tail) = recycled_store(&dir, 22);
        // Frame 22 opened the fourth segment, in a pooled file.
        assert_eq!(be.pool.len(), 2);
        assert!(active_has_stale_bytes(&be));
        let image = temp_dir("recycled-image-copy");
        copy_dir(&dir, &image);
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&image).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.snapshot.as_ref().map(|(at, _)| *at), Some(pos(20)));
        assert_eq!(rec.tail, tail);
        assert!(!rec.repaired(), "{rec:?}");
        assert_eq!(be.last_seqno, 22);
        assert!(tmp_files(&image).is_empty(), "recovery deletes the pool");
        drop(be);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&image);
    }

    #[test]
    fn a_torn_frame_inside_a_recycled_segment_counts_one_truncated_record() {
        let dir = temp_dir("recycled-torn");
        let (be, tail) = recycled_store(&dir, 22);
        assert!(active_has_stale_bytes(&be));
        let active = be.segments.last().unwrap();
        let (name, cursor) = (name_of(&active.path), active.cursor);
        let image = temp_dir("recycled-torn-copy");
        copy_dir(&dir, &image);
        drop(be);
        // A crash mid-write: half of frame 23 over the end mark, the old
        // bytes still after it.
        let torn = frame(0, 23, b"record-23");
        let file = OpenOptions::new()
            .write(true)
            .open(image.join(&name))
            .unwrap();
        write_at(&file, &torn[..torn.len() / 2], cursor).unwrap();
        drop(file);

        let mut be = DiskBackend::open(DiskOptions::new(&image).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.tail, tail);
        assert_eq!(rec.truncated_records, 1, "{rec:?}");
        assert_eq!(be.last_seqno, 22);
        assert_eq!(fs::metadata(image.join(&name)).unwrap().len(), cursor);
        drop(be);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&image);
    }

    #[test]
    fn a_dropped_backend_leaves_sealed_segments_and_no_pool() {
        let dir = temp_dir("recycled-drop");
        let (be, _) = recycled_store(&dir, 22);
        assert!(active_has_stale_bytes(&be));
        drop(be);
        assert!(tmp_files(&dir).is_empty());
        for path in segment_paths(&dir) {
            let data = fs::read(&path).unwrap();
            let (epoch, base) = parse_segment_header(&data).unwrap();
            let content = &data[SEG_HEADER_LEN..];
            let scan = scan_frames(content, epoch, base);
            // No mark, no old bytes: the scan ends at end of file.
            assert!(!scan.damaged, "{}", name_of(&path));
            assert_eq!(scan.valid_len, content.len(), "{}", name_of(&path));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_right_after_a_reuse_rename_recovers_clean() {
        let dir = temp_dir("recycled-rename");
        let (mut be, _) = recycled_store(&dir, 20);
        // The roll frame 21 would make: header and mark written, file
        // renamed, no frame yet.
        be.create_segment(20).unwrap();
        assert_eq!(be.pool.len(), 2);
        assert!(active_has_stale_bytes(&be));
        let image = temp_dir("recycled-rename-copy");
        copy_dir(&dir, &image);
        drop(be);

        let mut be = DiskBackend::open(DiskOptions::new(&image).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.snapshot.as_ref().map(|(at, _)| *at), Some(pos(20)));
        assert!(rec.tail.is_empty());
        assert!(!rec.repaired(), "{rec:?}");
        // The empty segment takes the next frame.
        let next = frame(0, 21, b"record-21");
        be.append(pos(21), &next).unwrap();
        drop(be);
        let mut be = DiskBackend::open(DiskOptions::new(&image).fsync(false)).unwrap();
        let rec = be.recover().unwrap();
        assert_eq!(rec.tail, next);
        assert!(!rec.repaired(), "{rec:?}");
        drop(be);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&image);
    }

    #[test]
    fn recycling_keeps_the_directory_to_live_segments_two_snapshots_and_the_pool_bound() {
        let dir = temp_dir("recycled-bound");
        let opts = DiskOptions::new(&dir).fsync(false).segment_max_bytes(96);
        let mut be = DiskBackend::open(opts).unwrap();
        be.recover().unwrap();
        // The pool bound: the most segments one compaction retired.
        let (mut bound, mut reused) = (0, 0);
        for cycle in 0..16 {
            let pooled = be.pool.len();
            drive(&mut be, cycle * 10 + 1, cycle * 10 + 10);
            reused += pooled - be.pool.len();
            let report = be
                .write_snapshot(pos(cycle * 10 + 10), b"snapshot")
                .unwrap();
            bound = bound.max(report.segments_deleted as usize);
            let files = listing(&dir).len();
            assert!(be.pool.len() <= bound, "cycle {cycle}");
            assert!(
                files <= be.segments.len() + 2 + bound,
                "cycle {cycle}: {files} files, {} segments, bound {bound}",
                be.segments.len()
            );
        }
        assert!(reused > 0, "rolls drew on the pool");
        drop(be);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The sequential segment walk `recover` ran before the parallel
    /// read, kept as the oracle of the differential tests below: every
    /// segment read whole, one after another, and every stranded one read
    /// again to count it.
    fn walk_reference(
        files: &[SegFile],
        anchor: Option<usize>,
        epoch: u32,
        base: u64,
        rec: &mut Recovery,
    ) -> Result<Chain> {
        fn discard_stranded(seg_path: &Path, epoch: u32, base: u64, rec: &mut Recovery) {
            if let Ok(data) = fs::read(seg_path) {
                if data.len() > SEG_HEADER_LEN {
                    let scan = scan_frames(&data[SEG_HEADER_LEN..], epoch, base);
                    rec.truncated_records += scan.frames.len() as u64;
                    if scan.damaged {
                        rec.truncated_records += 1;
                    }
                    rec.truncated_bytes += (data.len() - SEG_HEADER_LEN) as u64;
                }
            }
            let _ = fs::remove_file(seg_path);
        }

        let mut tail: Vec<u8> = Vec::new();
        let mut chain_last: u64 = base;
        let mut broken = false;
        let mut surviving: Vec<Segment> = Vec::new();
        for (idx, (_, seg_base, path, _)) in files.iter().enumerate() {
            let before_anchor = anchor.is_some_and(|a| idx < a);
            if before_anchor {
                let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                surviving.push(Segment {
                    last: *seg_base,
                    len,
                    cursor: len,
                    path: path.clone(),
                    dirty: false,
                });
                continue;
            }
            let is_anchor = anchor == Some(idx);
            if broken || anchor.is_none() || (!is_anchor && *seg_base != chain_last) {
                discard_stranded(path, epoch, *seg_base, rec);
                broken = true;
                continue;
            }
            let data = fs::read(path).map_err(|e| io_err("read segment", e))?;
            let content = data.get(SEG_HEADER_LEN..).unwrap_or(&[]);
            let scan = scan_frames(content, epoch, *seg_base);
            for frame in &scan.frames {
                if frame.seqno > base {
                    tail.extend_from_slice(&content[frame.start..frame.start + frame.len]);
                }
            }
            chain_last = scan.last_seqno(*seg_base);
            let valid_file_len = (SEG_HEADER_LEN + scan.valid_len) as u64;
            if scan.damaged {
                rec.truncated_records += 1;
                rec.truncated_bytes += (content.len() - scan.valid_len) as u64;
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| io_err("open segment for repair", e))?;
                file.set_len(valid_file_len)
                    .map_err(|e| io_err("truncate torn tail", e))?;
                broken = true;
            }
            surviving.push(Segment {
                last: chain_last,
                len: valid_file_len,
                cursor: valid_file_len,
                path: path.clone(),
                dirty: false,
            });
        }
        Ok(Chain {
            tail,
            surviving,
            last: chain_last,
        })
    }

    impl DiskBackend {
        fn recover_reference(&mut self) -> Result<Recovery> {
            self.recover_with(walk_reference)
        }
    }

    const WORKERS: [usize; 4] = [1, 2, 3, 8];

    #[derive(Debug, Clone, Copy)]
    enum Snaps {
        Absent,
        Valid,
        /// Two snapshots, the newer with a flipped body byte.
        CorruptNewest,
    }

    #[derive(Debug, Clone, Copy)]
    enum Damage {
        None,
        /// The last segment ends in part of a frame.
        TornTail,
        /// A byte flipped in the middle segment's frames.
        MiddleFlip,
        /// The middle segment is gone: a chain gap.
        MiddleMissing,
        /// The middle segment is cut inside its header.
        TornHeader,
        /// Junk bytes follow the middle segment's last whole frame.
        MiddleJunk,
        /// The last byte of the segment the chain anchors at is flipped.
        AnchorFlip,
        /// An older epoch's segment and snapshot are left over.
        OlderEpoch,
    }

    fn name_of(path: &Path) -> String {
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default()
    }

    /// Every file in `dir`: name and length, by name.
    fn listing(dir: &Path) -> Vec<(String, u64)> {
        let mut files: Vec<(String, u64)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (name_of(&e.path()), e.metadata().unwrap().len())
            })
            .collect();
        files.sort();
        files
    }

    /// The segment files in `dir`, in chain order.
    fn segment_paths(dir: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| parse_segment_name(&name_of(p)).is_some())
            .collect();
        segs.sort();
        segs
    }

    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for (name, _) in listing(from) {
            fs::copy(from.join(&name), to.join(&name)).unwrap();
        }
    }

    fn flip_byte(path: &Path, at: usize) {
        let mut data = fs::read(path).unwrap();
        data[at] ^= 0xA5;
        fs::write(path, data).unwrap();
    }

    fn cut(path: &Path, len: u64) {
        OpenOptions::new()
            .write(true)
            .open(path)
            .unwrap()
            .set_len(len)
            .unwrap();
    }

    /// An epoch-1 store of `frames` seeded frames in segments of
    /// `segment_max` bytes, with snapshots at a third and two thirds of
    /// the frames unless `snaps` is absent. Returns the seqno recovery
    /// starts its tail after.
    fn build_store(dir: &Path, seed: u64, frames: u64, segment_max: u64, snaps: Snaps) -> u64 {
        let mut rng = DeterministicRng::new(seed);
        let opts = DiskOptions::new(dir)
            .fsync(false)
            .segment_max_bytes(segment_max);
        let mut be = DiskBackend::open(opts).unwrap();
        be.recover().unwrap();
        be.start_epoch(1).unwrap();
        let mut written = Vec::new();
        for seqno in 1..=frames {
            let payload: Vec<u8> = (0..rng.gen_range(0, 48))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let at = LogPosition { epoch: 1, seqno };
            be.append(at, &frame(1, seqno, &payload)).unwrap();
            if !matches!(snaps, Snaps::Absent) && [frames / 3, 2 * frames / 3].contains(&seqno) {
                be.write_snapshot(at, format!("snapshot-{seed}-{seqno}").as_bytes())
                    .unwrap();
                written.push(seqno);
            }
        }
        drop(be);
        match (snaps, written.as_slice()) {
            (Snaps::CorruptNewest, [older, newer]) => {
                let path = dir.join(snapshot_file_name(1, *newer));
                flip_byte(&path, SNAP_HEADER_LEN + 2);
                *older
            }
            (_, written) => written.last().copied().unwrap_or(0),
        }
    }

    fn damage(dir: &Path, what: Damage, base: u64) {
        let segs = segment_paths(dir);
        let len = |p: &Path| fs::metadata(p).unwrap().len();
        let middle = segs.get(segs.len() / 2);
        match what {
            Damage::None => {}
            Damage::TornTail => {
                if let Some(last) = segs.last().filter(|p| len(p) > SEG_HEADER_LEN as u64 + 3) {
                    cut(last, len(last) - 3);
                }
            }
            Damage::MiddleFlip => {
                if let Some(seg) = middle.filter(|p| len(p) > SEG_HEADER_LEN as u64) {
                    let content = len(seg) as usize - SEG_HEADER_LEN;
                    flip_byte(seg, SEG_HEADER_LEN + content / 2);
                }
            }
            Damage::MiddleMissing => {
                if let Some(seg) = middle {
                    fs::remove_file(seg).unwrap();
                }
            }
            Damage::TornHeader => {
                if let Some(seg) = middle {
                    cut(seg, 10);
                }
            }
            Damage::MiddleJunk => {
                if let Some(seg) = middle {
                    let mut data = fs::read(seg).unwrap();
                    data.extend_from_slice(&[0xEE; 5]);
                    fs::write(seg, data).unwrap();
                }
            }
            Damage::AnchorFlip => {
                let anchor = segs.iter().rev().find(|p| {
                    parse_segment_name(&name_of(p)).is_some_and(|(_, first)| first <= base + 1)
                });
                if let Some(seg) = anchor.filter(|p| len(p) > SEG_HEADER_LEN as u64) {
                    flip_byte(seg, len(seg) as usize - 1);
                }
            }
            Damage::OlderEpoch => {
                let mut seg = encode_segment_header(0, 0).to_vec();
                for seqno in 1..=3 {
                    seg.extend_from_slice(&frame(0, seqno, b"older-epoch"));
                }
                fs::write(dir.join(segment_file_name(0, 0)), seg).unwrap();
                let body = b"older-epoch-snapshot";
                let mut snap =
                    encode_snapshot_header(0, 2, body.len() as u64, crc32(body)).to_vec();
                snap.extend_from_slice(body);
                fs::write(dir.join(snapshot_file_name(0, 2)), snap).unwrap();
            }
        }
    }

    /// Every field of a [`Recovery`], in comparable form.
    type RecoveryFields = (
        u32,
        Option<(LogPosition, Vec<u8>)>,
        u64,
        Vec<u8>,
        u64,
        u64,
        u64,
        u64,
    );

    fn fields(rec: Recovery) -> RecoveryFields {
        let Recovery {
            epoch,
            snapshot,
            base_seqno,
            tail,
            truncated_records,
            truncated_bytes,
            corrupt_snapshots,
            segments_scanned,
        } = rec;
        (
            epoch,
            snapshot,
            base_seqno,
            tail,
            truncated_records,
            truncated_bytes,
            corrupt_snapshots,
            segments_scanned,
        )
    }

    /// The segments a walk or a backend keeps: last seqno, length, name.
    fn kept(segments: &[Segment]) -> Vec<(u64, u64, String)> {
        segments
            .iter()
            .map(|s| (s.last, s.len, name_of(&s.path)))
            .collect()
    }

    /// Everything a recovery decides, and where the next append lands.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        recovery: RecoveryFields,
        segments: Vec<(u64, u64, String)>,
        snapshots: Vec<(u64, u64, String)>,
        files: Vec<(String, u64)>,
        next: LogPosition,
        files_after_append: Vec<(String, u64)>,
    }

    /// Recover `dir` with `workers` readers, or with the reference walk.
    fn outcome(dir: &Path, workers: Option<usize>) -> Outcome {
        let mut be = DiskBackend::open(DiskOptions::new(dir).fsync(false)).unwrap();
        let rec = match workers {
            Some(w) => be.recover_with(|f, a, e, b, r| scan_chain(f, a, e, b, r, w)),
            None => be.recover_reference(),
        }
        .unwrap();
        let next = LogPosition {
            epoch: rec.epoch,
            seqno: be.last_seqno + 1,
        };
        let segments = kept(&be.segments);
        let snapshots = be
            .snapshots
            .iter()
            .map(|s| (s.seqno, s.len, name_of(&s.path)))
            .collect();
        let files = listing(dir);
        be.append(next, &frame(next.epoch, next.seqno, b"next"))
            .unwrap();
        drop(be);
        Outcome {
            recovery: fields(rec),
            segments,
            snapshots,
            files,
            next,
            files_after_append: listing(dir),
        }
    }

    #[test]
    fn parallel_recovery_matches_the_sequential_walk() {
        // (frames, segment bytes, keep the segments, segments on disk)
        let shapes: [(u64, u64, bool, usize); 4] = [
            (12, 1 << 20, false, 0),
            (12, 1 << 20, true, 1),
            (20, 640, true, 2),
            (200, 160, true, 25),
        ];
        let snaps = [Snaps::Absent, Snaps::Valid, Snaps::CorruptNewest];
        // A damaged segment past the first damage is stranded, and
        // counted, with its damage.
        let damages: [&[Damage]; 10] = [
            &[Damage::None],
            &[Damage::TornTail],
            &[Damage::MiddleFlip],
            &[Damage::MiddleFlip, Damage::TornTail],
            &[Damage::MiddleMissing],
            &[Damage::MiddleMissing, Damage::TornTail],
            &[Damage::TornHeader],
            &[Damage::MiddleJunk],
            &[Damage::AnchorFlip],
            &[Damage::OlderEpoch],
        ];
        let mut seed = 0x5EED_0000;
        for (frames, segment_max, keep, want_segments) in shapes {
            for snaps in snaps {
                for damage_kinds in damages {
                    seed += 1;
                    let case =
                        format!("{frames} frames, {snaps:?}, {damage_kinds:?}, seed {seed:#x}");
                    let origin = temp_dir("diff");
                    let base = build_store(&origin, seed, frames, segment_max, snaps);
                    if !keep {
                        for seg in segment_paths(&origin) {
                            fs::remove_file(seg).unwrap();
                        }
                    }
                    let on_disk = segment_paths(&origin).len();
                    if want_segments > 2 {
                        assert!(on_disk >= want_segments, "{case}: {on_disk} segments");
                    } else {
                        assert_eq!(on_disk, want_segments, "{case}");
                    }
                    for kind in damage_kinds {
                        damage(&origin, *kind, base);
                    }

                    let reference = temp_dir("diff-ref");
                    copy_dir(&origin, &reference);
                    let want = outcome(&reference, None);
                    for workers in WORKERS {
                        let dir = temp_dir("diff-par");
                        copy_dir(&origin, &dir);
                        let got = outcome(&dir, Some(workers));
                        assert_eq!(got, want, "{case}, {workers} workers");
                        let _ = fs::remove_dir_all(&dir);
                    }
                    let _ = fs::remove_dir_all(&reference);
                    let _ = fs::remove_dir_all(&origin);
                }
            }
        }
    }

    /// Inventory lengths come from `read_dir`, so a file can be shorter
    /// than its slot; the walk must close the gap and read no further.
    #[test]
    fn overstated_inventory_lengths_leave_no_gap_in_the_tail() {
        let origin = temp_dir("overstate");
        build_store(&origin, 0x0DD, 120, 160, Snaps::Absent);
        damage(&origin, Damage::TornTail, 0);
        let inventory = |dir: &Path| -> Vec<SegFile> {
            segment_paths(dir)
                .into_iter()
                .enumerate()
                .map(|(i, path)| {
                    let data = fs::read(&path).unwrap();
                    let (epoch, base) = parse_segment_header(&data).unwrap();
                    let extra = if i % 3 == 1 { 100 } else { 0 };
                    (epoch, base, path, data.len() as u64 + extra)
                })
                .collect()
        };
        let reference = temp_dir("overstate-ref");
        copy_dir(&origin, &reference);
        let mut want_rec = Recovery::default();
        let want = walk_reference(&inventory(&reference), Some(0), 1, 0, &mut want_rec).unwrap();
        assert!(want_rec.truncated_records > 0, "the torn tail is counted");
        for workers in WORKERS {
            let dir = temp_dir("overstate-par");
            copy_dir(&origin, &dir);
            let mut rec = Recovery::default();
            let got = scan_chain(&inventory(&dir), Some(0), 1, 0, &mut rec, workers).unwrap();
            assert_eq!(got.tail, want.tail, "{workers} workers");
            assert_eq!(got.last, want.last, "{workers} workers");
            assert_eq!(kept(&got.surviving), kept(&want.surviving));
            assert_eq!(fields(rec), fields(want_rec.clone()));
            assert_eq!(listing(&dir), listing(&reference));
            let _ = fs::remove_dir_all(&dir);
        }
        let _ = fs::remove_dir_all(&reference);
        let _ = fs::remove_dir_all(&origin);
    }
}
