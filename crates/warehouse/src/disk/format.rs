//! On-disk file formats for the segmented storage backend.
//!
//! Two file types live in the storage directory:
//!
//! **Segment files** (`seg-<epoch>-<first-seqno>.wal`) carry binlog
//! frames, byte-identical to the in-memory/replicated frame format, after
//! a fixed header:
//!
//! ```text
//! +----------+---------+--------+---------+----------------------+-------------+-------+
//! | magic 8B | epoch   | base   | hdr crc | frame | frame | ...  | end mark    | stale |
//! |"XDWSEG1\0"| u32 LE | u64 LE | u32 LE  | (binlog wire format) | FF FF FF FF | bytes |
//! +----------+---------+--------+---------+----------------------+-------------+-------+
//! ```
//!
//! `base` is the seqno of the last record *before* this segment; its
//! first frame is `base + 1`. Segments chain: the next segment's `base`
//! equals this segment's last frame seqno.
//!
//! The segment being written ends in an [`END_MARK`]: a frame length of
//! `0xFFFF_FFFF`, which no frame carries, written right after the last
//! frame. A segment file may be a retired one recycled for its pages, so
//! whatever follows the mark is the old file's bytes, neither data nor
//! damage; [`scan_frames`] stops cleanly at the mark. A sealed segment (one
//! the writer rolled past or closed) ends at its last frame, with no mark.
//!
//! **Snapshot files** (`snap-<epoch>-<seqno>.snap`) carry a serialized
//! [`crate::persist::Snapshot`] body after a fixed header:
//!
//! ```text
//! +----------+-------+--------+----------+----------+---------+------+
//! | magic 8B | epoch | seqno  | body len | body crc | hdr crc | body |
//! |"XDWSNAP1"| u32   | u64    | u64 LE   | u32 LE   | u32 LE  | dump |
//! +----------+-------+--------+----------+----------+---------+------+
//! ```
//!
//! Every header ends with a CRC-32 over the bytes before it, so a torn
//! header is indistinguishable from garbage and simply skipped or
//! truncated by recovery. All integers are little-endian.

use crate::checksum::crc32;

/// Magic prefix of a segment file.
pub const SEG_MAGIC: [u8; 8] = *b"XDWSEG1\0";
/// Magic prefix of a snapshot file.
pub const SNAP_MAGIC: [u8; 8] = *b"XDWSNAP1";
/// Segment header length: magic + epoch + base + crc.
pub const SEG_HEADER_LEN: usize = 8 + 4 + 8 + 4;
/// Snapshot header length: magic + epoch + seqno + body_len + body_crc + crc.
pub const SNAP_HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4 + 4;
/// A frame length no frame carries: written after a segment's last frame,
/// it marks the clean end of the segment's frames.
pub const END_MARK: [u8; 4] = u32::MAX.to_le_bytes();
/// Smallest possible binlog frame: 4B length prefix + 16B
/// (epoch + seqno + crc) with an empty payload — anything shorter is torn.
const FRAME_MIN_BODY: usize = 16;

fn u32_le(data: &[u8]) -> u32 {
    u32::from_le_bytes([data[0], data[1], data[2], data[3]])
}

fn u64_le(data: &[u8]) -> u64 {
    u64::from_le_bytes([
        data[0], data[1], data[2], data[3], data[4], data[5], data[6], data[7],
    ])
}

/// Build a segment header for a segment whose first frame is `base + 1`.
pub fn encode_segment_header(epoch: u32, base: u64) -> [u8; SEG_HEADER_LEN] {
    let mut out = [0u8; SEG_HEADER_LEN];
    out[..8].copy_from_slice(&SEG_MAGIC);
    out[8..12].copy_from_slice(&epoch.to_le_bytes());
    out[12..20].copy_from_slice(&base.to_le_bytes());
    let crc = crc32(&out[..20]);
    out[20..24].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Parse and validate a segment header; `None` if short, wrong magic, or
/// CRC-damaged.
pub fn parse_segment_header(data: &[u8]) -> Option<(u32, u64)> {
    if data.len() < SEG_HEADER_LEN || data[..8] != SEG_MAGIC {
        return None;
    }
    if crc32(&data[..20]) != u32_le(&data[20..24]) {
        return None;
    }
    Some((u32_le(&data[8..12]), u64_le(&data[12..20])))
}

/// Build a snapshot header for a body of `body_len` bytes with checksum
/// `body_crc`, covering state through `(epoch, seqno)`.
pub fn encode_snapshot_header(
    epoch: u32,
    seqno: u64,
    body_len: u64,
    body_crc: u32,
) -> [u8; SNAP_HEADER_LEN] {
    let mut out = [0u8; SNAP_HEADER_LEN];
    out[..8].copy_from_slice(&SNAP_MAGIC);
    out[8..12].copy_from_slice(&epoch.to_le_bytes());
    out[12..20].copy_from_slice(&seqno.to_le_bytes());
    out[20..28].copy_from_slice(&body_len.to_le_bytes());
    out[28..32].copy_from_slice(&body_crc.to_le_bytes());
    let crc = crc32(&out[..32]);
    out[32..36].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Parsed snapshot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapHeader {
    /// Generation the snapshot belongs to.
    pub epoch: u32,
    /// Last seqno the snapshot's contents cover.
    pub seqno: u64,
    /// Expected body length in bytes.
    pub body_len: u64,
    /// Expected CRC-32 of the body.
    pub body_crc: u32,
}

/// Parse and validate a snapshot header; `None` if short, wrong magic, or
/// CRC-damaged. The *body* is validated separately against
/// `body_len`/`body_crc`.
pub fn parse_snapshot_header(data: &[u8]) -> Option<SnapHeader> {
    if data.len() < SNAP_HEADER_LEN || data[..8] != SNAP_MAGIC {
        return None;
    }
    if crc32(&data[..32]) != u32_le(&data[32..36]) {
        return None;
    }
    Some(SnapHeader {
        epoch: u32_le(&data[8..12]),
        seqno: u64_le(&data[12..20]),
        body_len: u64_le(&data[20..28]),
        body_crc: u32_le(&data[28..32]),
    })
}

/// File name of the segment whose first frame is `base + 1`. Zero-padded
/// so lexicographic order is numeric order.
pub fn segment_file_name(epoch: u32, base: u64) -> String {
    format!("seg-{epoch:010}-{:020}.wal", base + 1)
}

/// File name of the snapshot covering through `seqno`.
pub fn snapshot_file_name(epoch: u32, seqno: u64) -> String {
    format!("snap-{epoch:010}-{seqno:020}.snap")
}

/// Parse `seg-<epoch>-<first>.wal` → `(epoch, first_seqno)`.
pub fn parse_segment_name(name: &str) -> Option<(u32, u64)> {
    parse_name(name, "seg-", ".wal")
}

/// Parse `snap-<epoch>-<seqno>.snap` → `(epoch, seqno)`.
pub fn parse_snapshot_name(name: &str) -> Option<(u32, u64)> {
    parse_name(name, "snap-", ".snap")
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<(u32, u64)> {
    let middle = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    let (epoch, seqno) = middle.split_once('-')?;
    Some((epoch.parse().ok()?, seqno.parse().ok()?))
}

/// One validated frame located inside a scanned byte region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// The frame's record seqno.
    pub seqno: u64,
    /// Byte offset of the frame (including its length prefix).
    pub start: usize,
    /// Total frame length in bytes (including the length prefix).
    pub len: usize,
}

/// Result of [`scan_frames`]: the longest valid prefix of a frame region.
#[derive(Debug, Clone, Default)]
pub struct FrameScan {
    /// Bytes of contiguous valid frames from the start of the region.
    pub valid_len: usize,
    /// Every valid frame, in order.
    pub frames: Vec<FrameInfo>,
    /// True when the region held bytes beyond the valid prefix (a torn or
    /// corrupt tail) that an [`END_MARK`] does not end it at.
    pub damaged: bool,
}

impl FrameScan {
    /// Seqno of the last valid frame, or `base` if none survived.
    pub fn last_seqno(&self, base: u64) -> u64 {
        self.frames.last().map_or(base, |f| f.seqno)
    }
}

/// Scan a region of concatenated binlog frames that must begin at
/// `base + 1` in `epoch` and stay contiguous. Stops at the first frame
/// that is short, fails its CRC, carries the wrong epoch, or breaks seqno
/// continuity — everything before the stop point is the valid prefix.
/// An [`END_MARK`] at a frame boundary ends the region cleanly, whatever
/// follows it.
pub fn scan_frames(data: &[u8], epoch: u32, base: u64) -> FrameScan {
    let mut scan = FrameScan::default();
    let mut cursor = 0usize;
    let mut expect = base + 1;
    let mut end = data.len();
    while cursor < data.len() {
        let rest = &data[cursor..];
        if rest.len() < 4 {
            break;
        }
        if rest[..4] == END_MARK {
            end = cursor;
            break;
        }
        let body_len = u32_le(&rest[..4]) as usize;
        if body_len < FRAME_MIN_BODY || rest.len() < 4 + body_len {
            break;
        }
        let covered = &rest[4..4 + body_len - 4];
        let stored_crc = u32_le(&rest[4 + body_len - 4..4 + body_len]);
        if crc32(covered) != stored_crc {
            break;
        }
        let frame_epoch = u32_le(&rest[4..8]);
        let seqno = u64_le(&rest[8..16]);
        if frame_epoch != epoch || seqno != expect {
            break;
        }
        scan.frames.push(FrameInfo {
            seqno,
            start: cursor,
            len: 4 + body_len,
        });
        cursor += 4 + body_len;
        expect += 1;
    }
    scan.valid_len = cursor;
    scan.damaged = cursor < end;
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn segment_header_round_trip_and_damage() {
        let hdr = encode_segment_header(3, 99);
        assert_eq!(parse_segment_header(&hdr), Some((3, 99)));
        let mut bad = hdr;
        bad[13] ^= 0xA5;
        assert_eq!(parse_segment_header(&bad), None);
        assert_eq!(parse_segment_header(&hdr[..10]), None);
        let mut wrong_magic = hdr;
        wrong_magic[0] = b'Z';
        assert_eq!(parse_segment_header(&wrong_magic), None);
    }

    /// The headers' bytes on the wire, CRCs included, as the pre-kernel
    /// bytewise CRC wrote them: a round trip cannot catch a kernel that is
    /// wrong but self-consistent.
    #[test]
    fn headers_are_pinned_on_the_wire() {
        assert_eq!(
            encode_segment_header(3, 99),
            [
                0x58, 0x44, 0x57, 0x53, 0x45, 0x47, 0x31, 0x00, 0x03, 0x00, 0x00, 0x00, 0x63, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x36, 0xa9, 0x23, 0x95,
            ]
        );
        assert_eq!(
            encode_snapshot_header(2, 500, 1234, 0xDEAD_BEEF),
            [
                0x58, 0x44, 0x57, 0x53, 0x4e, 0x41, 0x50, 0x31, 0x02, 0x00, 0x00, 0x00, 0xf4, 0x01,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0xef, 0xbe, 0xad, 0xde, 0x42, 0x9b, 0xe5, 0x7b,
            ]
        );
    }

    #[test]
    fn snapshot_header_round_trip_and_damage() {
        let hdr = encode_snapshot_header(2, 500, 1234, 0xDEAD_BEEF);
        assert_eq!(
            parse_snapshot_header(&hdr),
            Some(SnapHeader {
                epoch: 2,
                seqno: 500,
                body_len: 1234,
                body_crc: 0xDEAD_BEEF,
            })
        );
        let mut bad = hdr;
        bad[20] ^= 1;
        assert_eq!(parse_snapshot_header(&bad), None);
    }

    #[test]
    fn file_names_round_trip_and_sort_numerically() {
        let name = segment_file_name(1, 41);
        assert_eq!(parse_segment_name(&name), Some((1, 42)));
        let snap = snapshot_file_name(1, 42);
        assert_eq!(parse_snapshot_name(&snap), Some((1, 42)));
        assert_eq!(parse_segment_name("seg-junk.wal"), None);
        assert_eq!(parse_segment_name("other.txt"), None);
        assert_eq!(parse_snapshot_name(&name), None);
        // Zero padding makes lexicographic order numeric.
        assert!(segment_file_name(0, 9) < segment_file_name(0, 10));
        assert!(segment_file_name(0, 99) < segment_file_name(0, 100));
    }

    #[test]
    fn scan_accepts_contiguous_frames_and_stops_at_damage() {
        let mut region = Vec::new();
        for seqno in 6..=8 {
            region.extend_from_slice(&frame(0, seqno, b"payload"));
        }
        let clean = scan_frames(&region, 0, 5);
        assert_eq!(clean.frames.len(), 3);
        assert!(!clean.damaged);
        assert_eq!(clean.valid_len, region.len());
        assert_eq!(clean.last_seqno(5), 8);

        // Torn tail: partial last frame.
        let torn = &region[..region.len() - 3];
        let scan = scan_frames(torn, 0, 5);
        assert_eq!(scan.frames.len(), 2);
        assert!(scan.damaged);
        assert_eq!(scan.last_seqno(5), 7);

        // Bit flip inside the middle frame stops the scan there.
        let mut flipped = region.clone();
        let mid = clean.frames[1].start + 10;
        flipped[mid] ^= 0xFF;
        let scan = scan_frames(&flipped, 0, 5);
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.damaged);

        // Wrong epoch or a seqno gap is a continuity break, not a panic.
        assert_eq!(scan_frames(&region, 1, 5).frames.len(), 0);
        assert_eq!(scan_frames(&region, 0, 4).frames.len(), 0);

        // Empty region is clean.
        let empty = scan_frames(&[], 0, 0);
        assert!(!empty.damaged);
        assert_eq!(empty.last_seqno(0), 0);

        // An end mark right after the frames is a clean end, outside the
        // valid prefix; so is one followed by a recycled file's old bytes.
        let marked = [&region[..], &END_MARK].concat();
        let marked_garbage = [&marked[..], &[0x5A; 13], &frame(0, 3, b"old")].concat();
        for data in [&marked, &marked_garbage] {
            let scan = scan_frames(data, 0, 5);
            assert_eq!(scan.frames.len(), 3);
            assert!(!scan.damaged);
            assert_eq!(scan.valid_len, region.len());
        }

        // A mark at the start of the region is an empty, clean region.
        let scan = scan_frames(&[&END_MARK[..], &region].concat(), 0, 5);
        assert!(scan.frames.is_empty());
        assert!(!scan.damaged);
        assert_eq!(scan.valid_len, 0);

        // A zero-filled tail is still damage, and so is a torn mark.
        for tail in [&[0u8; 16][..], &END_MARK[..3]] {
            let scan = scan_frames(&[&region[..], tail].concat(), 0, 5);
            assert_eq!(scan.frames.len(), 3);
            assert!(scan.damaged);
            assert_eq!(scan.valid_len, region.len());
        }
    }
}
