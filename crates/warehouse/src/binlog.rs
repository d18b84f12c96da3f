//! The warehouse binary log.
//!
//! Federation in the paper is built on binlog replication: "Tungsten reads
//! binary logs on the XDMoD instance databases, copying their tables into
//! new, uniquely named schemas ... on the XDMoD federation hub's database"
//! (§II-C1). This module provides that binary log: every mutation applied
//! to a [`crate::database::Database`] is framed, checksummed, and appended
//! here, and replicators tail it from a saved [`LogPosition`].
//!
//! # Wire format
//!
//! Each record is:
//!
//! ```text
//! +---------+---------+---------+------------------+---------+
//! | len u32 | epoch   | seqno   | payload (len-16B)| crc u32 |
//! |         | u32     | u64     |                  |         |
//! +---------+---------+---------+------------------+---------+
//! ```
//!
//! `len` counts everything after itself (epoch..crc). The CRC covers
//! epoch, seqno, and payload. Integers are little-endian. The payload is a
//! tag byte followed by tag-specific fields (see [`EventPayload`]) whose
//! strings, rows and table definitions are laid out by `crate::codec`.
//!
//! This frame is the warehouse's only serialized form: WAL segments hold
//! it verbatim, a snapshot or loose dump ([`crate::persist`]) is a counted
//! run of it, and replication ships it.

use crate::checksum::crc32;
use crate::codec;
use crate::error::{Result, WarehouseError};
use crate::schema::TableSchema;
use crate::value::Row;
use std::fmt;

/// A position in a binlog: `(epoch, seqno)` lexicographic.
///
/// `epoch` increments when a log is truncated/regenerated (e.g. a satellite
/// database rebuilt from the hub, §II-E4); `seqno` increments per record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LogPosition {
    /// Log generation.
    pub epoch: u32,
    /// Record sequence number within the generation (first record is 1).
    pub seqno: u64,
}

impl LogPosition {
    /// The position before any record of generation 0.
    pub const START: LogPosition = LogPosition { epoch: 0, seqno: 0 };
}

impl fmt::Display for LogPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.epoch, self.seqno)
    }
}

/// A logged mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum EventPayload {
    /// A schema (namespace) was created.
    CreateSchema {
        /// Schema name.
        schema: String,
    },
    /// A table was created inside a schema.
    CreateTable {
        /// Schema name.
        schema: String,
        /// Full table definition.
        def: TableSchema,
    },
    /// A batch of rows was inserted into a table.
    InsertBatch {
        /// Schema name.
        schema: String,
        /// Table name.
        table: String,
        /// The inserted rows, already schema-validated.
        rows: Vec<Row>,
    },
    /// A table's rows were deleted (used by re-aggregation).
    Truncate {
        /// Schema name.
        schema: String,
        /// Table name.
        table: String,
    },
}

impl EventPayload {
    /// Schema this event touches.
    pub fn schema(&self) -> &str {
        match self {
            EventPayload::CreateSchema { schema }
            | EventPayload::CreateTable { schema, .. }
            | EventPayload::InsertBatch { schema, .. }
            | EventPayload::Truncate { schema, .. } => schema,
        }
    }

    /// Table this event touches, if any.
    pub fn table(&self) -> Option<&str> {
        match self {
            EventPayload::CreateSchema { .. } => None,
            EventPayload::CreateTable { def, .. } => Some(&def.name),
            EventPayload::InsertBatch { table, .. } | EventPayload::Truncate { table, .. } => {
                Some(table)
            }
        }
    }

    /// The event with its schema renamed — the Tungsten "rename the data
    /// schema during transfer" feature the federation hub relies on.
    pub fn with_schema(mut self, new_schema: &str) -> EventPayload {
        match &mut self {
            EventPayload::CreateSchema { schema }
            | EventPayload::CreateTable { schema, .. }
            | EventPayload::InsertBatch { schema, .. }
            | EventPayload::Truncate { schema, .. } => {
                *schema = new_schema.to_owned();
            }
        }
        self
    }
}

/// A decoded binlog record: position plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct BinlogEvent {
    /// Where in the log this record sits.
    pub position: LogPosition,
    /// The mutation.
    pub payload: EventPayload,
}

// ---------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------

const TAG_CREATE_SCHEMA: u8 = 1;
const TAG_CREATE_TABLE: u8 = 2;
const TAG_INSERT_BATCH: u8 = 3;
const TAG_TRUNCATE: u8 = 4;

/// Append the `InsertBatch` payload of borrowed rows (no owned batch).
pub(crate) fn put_insert_batch<'a>(
    buf: &mut Vec<u8>,
    schema: &str,
    table: &str,
    rows: impl ExactSizeIterator<Item = &'a Row>,
) {
    buf.push(TAG_INSERT_BATCH);
    codec::put_str(buf, schema);
    codec::put_str(buf, table);
    codec::put_rows(buf, rows);
}

pub(crate) fn put_payload(buf: &mut Vec<u8>, payload: &EventPayload) {
    match payload {
        EventPayload::CreateSchema { schema } => {
            buf.push(TAG_CREATE_SCHEMA);
            codec::put_str(buf, schema);
        }
        EventPayload::CreateTable { schema, def } => {
            buf.push(TAG_CREATE_TABLE);
            codec::put_str(buf, schema);
            codec::put_table_schema(buf, def);
        }
        EventPayload::InsertBatch {
            schema,
            table,
            rows,
        } => put_insert_batch(buf, schema, table, rows.iter()),
        EventPayload::Truncate { schema, table } => {
            buf.push(TAG_TRUNCATE);
            codec::put_str(buf, schema);
            codec::put_str(buf, table);
        }
    }
}

/// Encode a payload to bytes (without framing).
pub fn encode_payload(payload: &EventPayload) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_payload(&mut buf, payload);
    buf
}

/// Decode a payload from bytes (without framing).
pub fn decode_payload(mut buf: &[u8]) -> Result<EventPayload> {
    let buf = &mut buf;
    let payload = match codec::get_u8(buf, "payload tag")? {
        TAG_CREATE_SCHEMA => EventPayload::CreateSchema {
            schema: codec::get_str(buf)?,
        },
        TAG_CREATE_TABLE => EventPayload::CreateTable {
            schema: codec::get_str(buf)?,
            def: codec::get_table_schema(buf)?,
        },
        TAG_INSERT_BATCH => EventPayload::InsertBatch {
            schema: codec::get_str(buf)?,
            table: codec::get_str(buf)?,
            rows: codec::get_rows(buf)?,
        },
        TAG_TRUNCATE => EventPayload::Truncate {
            schema: codec::get_str(buf)?,
            table: codec::get_str(buf)?,
        },
        other => return Err(codec::corrupt(format!("unknown event tag {other}"))),
    };
    if !buf.is_empty() {
        let n = buf.len();
        return Err(codec::corrupt(format!("{n} trailing bytes after payload")));
    }
    Ok(payload)
}

/// Read off an encoded payload's prefix, decoding no row: the rows an
/// `InsertBatch` counts.
pub(crate) fn peek_payload(mut buf: &[u8]) -> Result<u64> {
    let buf = &mut buf;
    let tag = codec::get_u8(buf, "payload tag")?;
    codec::get_str(buf)?;
    let rows = if tag == TAG_INSERT_BATCH {
        codec::get_str(buf)?;
        codec::get_u32(buf, "row count")?
    } else {
        0
    };
    Ok(rows.into())
}

/// Append the record at `pos` to `out`: length prefix, position, whatever
/// payload `write_payload` appends, then the CRC over position and payload.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    pos: LogPosition,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    codec::put_u32(out, pos.epoch);
    codec::put_u64(out, pos.seqno);
    write_payload(out);
    // `len` counts epoch..crc: what follows the prefix now, plus the CRC.
    let len = (out.len() - start) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32(&out[start + 4..]);
    codec::put_u32(out, crc);
}

/// An append-only binary log with framed, checksummed records.
///
/// The log may be *prefix-compacted*: once a snapshot covers every record
/// up to some seqno, [`Binlog::compact_before`] drops those frames and
/// `base_seqno` records the horizon. Reads below the horizon return
/// [`WarehouseError::CompactedAway`] so consumers resume from snapshot +
/// tail instead of replaying history that no longer exists.
#[derive(Debug, Default)]
pub struct Binlog {
    /// Current generation.
    epoch: u32,
    /// Sequence number of the last appended record (0 = none).
    last_seqno: u64,
    /// Highest seqno removed by prefix compaction (0 = nothing removed).
    /// Retained records are `base_seqno + 1 ..= last_seqno`.
    base_seqno: u64,
    /// Raw framed bytes of the retained suffix of the current generation.
    bytes: Vec<u8>,
    /// Byte offset of each retained record, indexed by
    /// `seqno - base_seqno - 1`.
    offsets: Vec<usize>,
}

impl Binlog {
    /// Empty log at generation 0.
    pub fn new() -> Self {
        Binlog::default()
    }

    /// Position of the last appended record (or `(epoch, 0)` if empty).
    pub fn position(&self) -> LogPosition {
        LogPosition {
            epoch: self.epoch,
            seqno: self.last_seqno,
        }
    }

    /// Number of records in the current generation.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True if no records have been appended in this generation.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Total framed size in bytes of the retained records.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Highest seqno removed by prefix compaction (0 = full history kept).
    pub fn base_seqno(&self) -> u64 {
        self.base_seqno
    }

    /// Frame the payload that *would* be appended next, without mutating
    /// the log. This is the durability seam: a storage backend persists
    /// the returned frame first, then [`Binlog::push_frame`] admits it to
    /// the in-memory log — write-ahead ordering, so a crash between the
    /// two never leaves the in-memory state ahead of disk.
    pub fn encode_next(&self, payload: &EventPayload) -> (LogPosition, Vec<u8>) {
        let pos = LogPosition {
            epoch: self.epoch,
            seqno: self.last_seqno + 1,
        };
        let mut frame = Vec::new();
        put_frame(&mut frame, pos, |buf| put_payload(buf, payload));
        (pos, frame)
    }

    /// Admit a frame produced by [`Binlog::encode_next`] to the in-memory
    /// log. Must be called with frames in encode order.
    pub fn push_frame(&mut self, frame: &[u8]) {
        self.offsets.push(self.bytes.len());
        self.bytes.extend_from_slice(frame);
        self.last_seqno += 1;
    }

    /// Append a payload; returns its position. Equivalent to
    /// [`Binlog::encode_next`] + [`Binlog::push_frame`] with no
    /// durability step in between (the in-memory backend's path).
    pub fn append(&mut self, payload: &EventPayload) -> LogPosition {
        let (pos, frame) = self.encode_next(payload);
        self.push_frame(&frame);
        pos
    }

    /// Start a new generation, discarding all records. Used when a
    /// database is regenerated (e.g. restored from the federation hub).
    pub fn rotate_epoch(&mut self) {
        self.epoch += 1;
        self.last_seqno = 0;
        self.base_seqno = 0;
        self.bytes.clear();
        self.offsets.clear();
    }

    /// Rebuild the log from recovered state: a generation number, the
    /// compaction horizon implied by the snapshot the tail follows, and
    /// the raw bytes of the already-validated tail frames (concatenated,
    /// starting at `base_seqno + 1`). Used by the disk backend's recovery
    /// path after it has scanned segments and truncated any torn tail. The
    /// log takes `raw` over as its byte store, without a copy.
    pub fn restore_frames(&mut self, epoch: u32, base_seqno: u64, raw: Vec<u8>) -> Result<usize> {
        let mut offsets = Vec::new();
        let mut expect = base_seqno + 1;
        let mut buf = raw.as_slice();
        while !buf.is_empty() {
            offsets.push(raw.len() - buf.len());
            let (found, _) = split_frame(&mut buf)?;
            if (found.epoch, found.seqno) != (epoch, expect) {
                return Err(codec::corrupt(format!(
                    "recovered frame at {found} where {epoch}:{expect} was expected"
                )));
            }
            expect += 1;
        }
        self.epoch = epoch;
        self.base_seqno = base_seqno;
        self.last_seqno = base_seqno + offsets.len() as u64;
        self.bytes = raw;
        self.offsets = offsets;
        Ok(self.offsets.len())
    }

    /// Drop every retained record with `seqno <= upto` — they are covered
    /// by a snapshot and no longer needed for replay. The horizon only
    /// moves forward; `upto` past the head is clamped. Returns what was
    /// removed.
    pub fn compact_before(&mut self, upto: u64) -> PrefixCompaction {
        let upto = upto.min(self.last_seqno);
        if upto <= self.base_seqno {
            return PrefixCompaction::default();
        }
        let drop_records = (upto - self.base_seqno) as usize;
        let cut = if drop_records < self.offsets.len() {
            self.offsets[drop_records]
        } else {
            self.bytes.len()
        };
        self.bytes.drain(..cut);
        self.offsets.drain(..drop_records);
        for offset in &mut self.offsets {
            *offset -= cut;
        }
        self.base_seqno = upto;
        PrefixCompaction {
            dropped_records: drop_records,
            dropped_bytes: cut,
        }
    }

    /// Decode and return every record strictly after `after`.
    ///
    /// If `after.epoch` predates the current generation the entire log is
    /// returned (the consumer must resynchronize from scratch); positions
    /// from a *future* epoch yield an error; positions below the
    /// compaction horizon yield [`WarehouseError::CompactedAway`].
    pub fn read_after(&self, after: LogPosition) -> Result<Vec<BinlogEvent>> {
        let (frames, expected) = self.frames_after(after)?;
        let events = decode_stream(frames)?;
        if events.len() as u64 != expected {
            let n = events.len();
            return Err(codec::corrupt(format!(
                "log ends after {n} of the {expected} records past {after}"
            )));
        }
        Ok(events)
    }

    /// Decode every record strictly after `after` that touches
    /// `schema.table` — the delta-fold read path: a per-table cursor
    /// advances over exactly the records an incremental aggregation must
    /// fold, skipping mutations of other tables.
    ///
    /// Epoch and compaction semantics match [`Binlog::read_after`]; on
    /// [`WarehouseError::CompactedAway`] the caller must fall back to a
    /// full rebuild from the live table.
    pub fn read_table_after(
        &self,
        after: LogPosition,
        schema: &str,
        table: &str,
    ) -> Result<Vec<BinlogEvent>> {
        let mut events = self.read_after(after)?;
        events.retain(|ev| ev.payload.schema() == schema && ev.payload.table() == Some(table));
        Ok(events)
    }

    /// The raw frames of every record strictly after `after`, borrowed
    /// from the log (readers decode them in place, in one pass), and how
    /// many records they should hold.
    fn frames_after(&self, after: LogPosition) -> Result<(&[u8], u64)> {
        let start_seqno = self.replay_start(after)?;
        if start_seqno >= self.last_seqno {
            return Ok((&[], 0));
        }
        let offset = self.offsets[(start_seqno - self.base_seqno) as usize];
        // After physical tail damage an offset can point past the end of
        // the raw log: that is an empty tail, which the record count then
        // reports as corruption — not a slice panic.
        let frames = self.bytes.get(offset..).unwrap_or(&[]);
        Ok((frames, self.last_seqno - start_seqno))
    }

    /// Resolve `after` to the seqno replay starts from (exclusive),
    /// rejecting future epochs and compacted-away ranges.
    fn replay_start(&self, after: LogPosition) -> Result<u64> {
        if after.epoch > self.epoch {
            return Err(WarehouseError::CorruptBinlog(format!(
                "position {after} is from a future epoch (log at {})",
                self.epoch
            )));
        }
        let start_seqno = if after.epoch < self.epoch {
            0
        } else {
            after.seqno
        };
        if start_seqno < self.base_seqno {
            return Err(WarehouseError::CompactedAway {
                horizon: LogPosition {
                    epoch: self.epoch,
                    seqno: self.base_seqno,
                },
            });
        }
        Ok(start_seqno)
    }

    /// Decode the record with sequence number `seqno` (1-based).
    pub fn record_at(&self, seqno: u64) -> Result<BinlogEvent> {
        if seqno != 0 && seqno <= self.base_seqno {
            return Err(WarehouseError::CompactedAway {
                horizon: LogPosition {
                    epoch: self.epoch,
                    seqno: self.base_seqno,
                },
            });
        }
        let idx = (seqno as usize)
            .checked_sub(self.base_seqno as usize + 1)
            .filter(|i| *i < self.offsets.len())
            .ok_or_else(|| codec::corrupt(format!("no record {seqno}")))?;
        // After physical tail damage an offset can point past the end of
        // the raw log: an empty frame to report, not a slice panic.
        decode_framed(&mut self.bytes.get(self.offsets[idx]..).unwrap_or(&[]))
    }

    /// Flip one byte of the raw log (XOR `0xA5`) — simulated disk
    /// corruption, used by the chaos harness. Returns `false` when the
    /// index is out of range (no-op).
    pub fn corrupt_byte(&mut self, index: usize) -> bool {
        match self.bytes.get_mut(index) {
            Some(byte) => {
                *byte ^= 0xA5;
                true
            }
            None => false,
        }
    }

    /// Flip a byte inside the last frame (tail corruption after a dirty
    /// shutdown). Returns `false` when the log is empty.
    pub fn corrupt_tail_byte(&mut self) -> bool {
        if self.bytes.is_empty() {
            return false;
        }
        let index = self.bytes.len() - 1; // a CRC byte of the last frame
        self.corrupt_byte(index)
    }

    /// Chop up to `n` raw bytes off the end of the log — a torn write /
    /// crash mid-append. Offsets and seqnos are deliberately *not*
    /// adjusted (the damage is physical); [`Binlog::repair_tail`]
    /// restores crash consistency. Returns the number of bytes removed.
    pub fn truncate_tail_bytes(&mut self, n: usize) -> usize {
        let removed = n.min(self.bytes.len());
        let keep = self.bytes.len() - removed;
        self.bytes.truncate(keep);
        removed
    }

    /// Validate the log front-to-back and truncate it at the first
    /// invalid frame (bad length, CRC mismatch, undecodable payload, or
    /// a partial frame after a torn write), restoring crash consistency:
    /// every record *before* the damage survives, everything from the
    /// damaged frame on is dropped, and new appends resume from the last
    /// valid seqno. A clean log is untouched.
    pub fn repair_tail(&mut self) -> TailRepair {
        let mut valid_offsets = Vec::with_capacity(self.offsets.len());
        let mut rest = &self.bytes[..];
        let cursor = loop {
            let at = self.bytes.len() - rest.len();
            if rest.is_empty() || decode_framed(&mut rest).is_err() {
                break at;
            }
            valid_offsets.push(at);
        };
        let repair = TailRepair {
            dropped_records: self.offsets.len().saturating_sub(valid_offsets.len()),
            dropped_bytes: self.bytes.len() - cursor,
        };
        if !repair.is_clean() {
            self.bytes.truncate(cursor);
            self.last_seqno = self.base_seqno + valid_offsets.len() as u64;
            self.offsets = valid_offsets;
        }
        repair
    }

    /// Export the raw framed bytes of records after `after` — this is what
    /// "loose" federation ships as files (§II-C2).
    pub fn export_after(&self, after: LogPosition) -> Result<Vec<u8>> {
        Ok(self.frames_after(after)?.0.to_vec())
    }
}

/// What [`Binlog::compact_before`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefixCompaction {
    /// Records dropped from the front of the log.
    pub dropped_records: usize,
    /// Raw bytes those records occupied.
    pub dropped_bytes: usize,
}

impl PrefixCompaction {
    /// True when nothing was removed (horizon already at or past `upto`).
    pub fn is_noop(&self) -> bool {
        self.dropped_records == 0 && self.dropped_bytes == 0
    }
}

/// What [`Binlog::repair_tail`] removed to restore crash consistency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TailRepair {
    /// Records dropped (the damaged frame and everything after it).
    pub dropped_records: usize,
    /// Raw bytes truncated off the log.
    pub dropped_bytes: usize,
}

impl TailRepair {
    /// True when the log was already consistent and nothing was dropped.
    pub fn is_clean(&self) -> bool {
        self.dropped_records == 0 && self.dropped_bytes == 0
    }
}

impl fmt::Display for TailRepair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dropped {} record(s) / {} byte(s)",
            self.dropped_records, self.dropped_bytes
        )
    }
}

/// Split one framed record off the front of `buf`, checking length and
/// CRC: its position and its still-encoded payload.
pub(crate) fn split_frame<'a>(buf: &mut &'a [u8]) -> Result<(LogPosition, &'a [u8])> {
    let len = codec::get_u32(buf, "frame length")? as usize;
    if len < 16 {
        return Err(codec::corrupt(format!("bad frame length {len}")));
    }
    let (mut body, stored_crc) = codec::take(buf, len, "frame")?.split_at(len - 4);
    if crc32(body).to_le_bytes() != stored_crc {
        return Err(codec::corrupt("crc mismatch"));
    }
    let epoch = codec::get_u32(&mut body, "frame epoch")?;
    let seqno = codec::get_u64(&mut body, "frame seqno")?;
    Ok((LogPosition { epoch, seqno }, body))
}

/// Decode one framed record from the front of `buf`, advancing it past
/// the record.
pub fn decode_framed(buf: &mut &[u8]) -> Result<BinlogEvent> {
    let (position, payload) = split_frame(buf)?;
    let payload = decode_payload(payload)?;
    Ok(BinlogEvent { position, payload })
}

/// Decode every framed record in `buf` (e.g. a shipped loose-federation
/// file).
pub fn decode_stream(mut buf: &[u8]) -> Result<Vec<BinlogEvent>> {
    let mut out = Vec::new();
    while !buf.is_empty() {
        out.push(decode_framed(&mut buf)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use crate::value::{ColumnType, Value};

    fn sample_schema() -> TableSchema {
        SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .required("cpu_hours", ColumnType::Float)
            .nullable("queue", ColumnType::Str)
            .build()
            .unwrap()
    }

    fn sample_insert() -> EventPayload {
        EventPayload::InsertBatch {
            schema: "xdmod_x".into(),
            table: "jobfact".into(),
            rows: vec![
                vec![Value::Str("comet".into()), Value::Float(12.5), Value::Null],
                vec![
                    Value::Str("stampede".into()),
                    Value::Float(0.25),
                    Value::Str("normal".into()),
                ],
            ],
        }
    }

    #[test]
    fn payload_round_trip_all_variants() {
        let payloads = vec![
            EventPayload::CreateSchema {
                schema: "xdmod_y".into(),
            },
            EventPayload::CreateTable {
                schema: "xdmod_y".into(),
                def: sample_schema(),
            },
            sample_insert(),
            EventPayload::Truncate {
                schema: "xdmod_y".into(),
                table: "jobfact".into(),
            },
        ];
        for p in payloads {
            let enc = encode_payload(&p);
            let dec = decode_payload(&enc).unwrap();
            assert_eq!(dec, p);
        }
    }

    #[test]
    fn append_and_read_after() {
        let mut log = Binlog::new();
        assert!(log.is_empty());
        let p1 = log.append(&EventPayload::CreateSchema { schema: "s".into() });
        let p2 = log.append(&sample_insert());
        assert_eq!(p1.seqno, 1);
        assert_eq!(p2.seqno, 2);
        assert_eq!(log.position(), p2);

        let all = log.read_after(LogPosition::START).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].position, p1);

        let tail = log.read_after(p1).unwrap();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].position, p2);

        let none = log.read_after(p2).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn read_table_after_filters_to_one_table() {
        let mut log = Binlog::new();
        log.append(&EventPayload::CreateSchema { schema: "s".into() });
        let cursor = log.position();
        log.append(&sample_insert()); // xdmod_x.jobfact
        log.append(&EventPayload::InsertBatch {
            schema: "xdmod_x".into(),
            table: "other".into(),
            rows: vec![],
        });
        log.append(&EventPayload::InsertBatch {
            schema: "xdmod_y".into(),
            table: "jobfact".into(),
            rows: vec![],
        });
        log.append(&EventPayload::Truncate {
            schema: "xdmod_x".into(),
            table: "jobfact".into(),
        });

        let events = log.read_table_after(cursor, "xdmod_x", "jobfact").unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            events[0].payload,
            EventPayload::InsertBatch { .. }
        ));
        assert!(matches!(events[1].payload, EventPayload::Truncate { .. }));
        // Nothing after the head.
        assert!(log
            .read_table_after(log.position(), "xdmod_x", "jobfact")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn read_table_after_respects_compaction_horizon() {
        let mut log = Binlog::new();
        let early = log.append(&sample_insert());
        log.append(&sample_insert());
        log.append(&sample_insert());
        log.compact_before(2);
        assert!(matches!(
            log.read_table_after(LogPosition::START, "xdmod_x", "jobfact"),
            Err(WarehouseError::CompactedAway { .. })
        ));
        assert!(matches!(
            log.read_table_after(early, "xdmod_x", "jobfact"),
            Err(WarehouseError::CompactedAway { .. })
        ));
        // A cursor at or past the horizon still reads the tail.
        let horizon = LogPosition { epoch: 0, seqno: 2 };
        assert_eq!(
            log.read_table_after(horizon, "xdmod_x", "jobfact")
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn epoch_rotation_resets_and_invalidates_positions() {
        let mut log = Binlog::new();
        log.append(&sample_insert());
        let old = log.position();
        log.rotate_epoch();
        assert_eq!(log.position(), LogPosition { epoch: 1, seqno: 0 });
        // Reading from an old-epoch position returns the whole new log.
        log.append(&sample_insert());
        let events = log.read_after(old).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].position.epoch, 1);
        // Future-epoch positions are rejected.
        let future = LogPosition { epoch: 9, seqno: 0 };
        assert!(log.read_after(future).is_err());
    }

    #[test]
    fn export_and_decode_stream() {
        let mut log = Binlog::new();
        log.append(&EventPayload::CreateSchema { schema: "s".into() });
        let mid = log.position();
        log.append(&sample_insert());
        log.append(&sample_insert());

        let full = log.export_after(LogPosition::START).unwrap();
        assert_eq!(decode_stream(&full).unwrap().len(), 3);

        let tail = log.export_after(mid).unwrap();
        let events = decode_stream(&tail).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].position.seqno, 2);

        assert!(log.export_after(log.position()).unwrap().is_empty());
    }

    #[test]
    fn corruption_is_detected() {
        let mut log = Binlog::new();
        log.append(&sample_insert());
        let mut raw = log.export_after(LogPosition::START).unwrap();
        // Flip a byte in the payload region.
        let mid = raw.len() / 2;
        raw[mid] ^= 0xFF;
        let err = decode_stream(&raw).unwrap_err();
        assert!(matches!(err, WarehouseError::CorruptBinlog(_)));
    }

    #[test]
    fn truncated_stream_is_detected() {
        let mut log = Binlog::new();
        log.append(&sample_insert());
        let raw = log.export_after(LogPosition::START).unwrap();
        assert!(decode_stream(&raw[..raw.len() - 3]).is_err());
    }

    #[test]
    fn with_schema_renames_every_variant() {
        for p in [
            EventPayload::CreateSchema {
                schema: "old".into(),
            },
            EventPayload::CreateTable {
                schema: "old".into(),
                def: sample_schema(),
            },
            EventPayload::Truncate {
                schema: "old".into(),
                table: "t".into(),
            },
        ] {
            assert_eq!(p.with_schema("new").schema(), "new");
        }
    }

    #[test]
    fn record_at_out_of_range() {
        let log = Binlog::new();
        assert!(log.record_at(0).is_err());
        assert!(log.record_at(1).is_err());
    }

    #[test]
    fn repair_tail_is_noop_on_clean_log() {
        let mut log = Binlog::new();
        log.append(&sample_insert());
        log.append(&sample_insert());
        let before = log.position();
        let repair = log.repair_tail();
        assert!(repair.is_clean());
        assert_eq!(log.position(), before);
        assert_eq!(log.read_after(LogPosition::START).unwrap().len(), 2);
    }

    #[test]
    fn repair_tail_recovers_past_corrupt_tail_frame() {
        let mut log = Binlog::new();
        log.append(&EventPayload::CreateSchema { schema: "s".into() });
        log.append(&sample_insert());
        log.append(&sample_insert());
        assert!(log.corrupt_tail_byte());
        // The damaged tail is detected…
        assert!(log.read_after(LogPosition::START).is_err());
        // …and repaired past: the two intact records survive.
        let repair = log.repair_tail();
        assert_eq!(repair.dropped_records, 1);
        assert!(repair.dropped_bytes > 0);
        assert_eq!(log.position(), LogPosition { epoch: 0, seqno: 2 });
        assert_eq!(log.read_after(LogPosition::START).unwrap().len(), 2);
        // Appends resume from the repaired seqno.
        let pos = log.append(&sample_insert());
        assert_eq!(pos.seqno, 3);
        assert_eq!(log.read_after(LogPosition::START).unwrap().len(), 3);
    }

    #[test]
    fn repair_tail_recovers_past_torn_write() {
        let mut log = Binlog::new();
        log.append(&EventPayload::CreateSchema { schema: "s".into() });
        log.append(&sample_insert());
        let removed = log.truncate_tail_bytes(5);
        assert_eq!(removed, 5);
        // record_at on the now-partial tail errors instead of panicking.
        assert!(log.record_at(2).is_err());
        let repair = log.repair_tail();
        assert_eq!(repair.dropped_records, 1);
        assert_eq!(log.position().seqno, 1);
        assert_eq!(log.read_after(LogPosition::START).unwrap().len(), 1);
    }

    #[test]
    fn log_cut_at_a_frame_boundary_is_corruption_not_a_short_read() {
        let mut log = Binlog::new();
        log.append(&EventPayload::CreateSchema { schema: "s".into() });
        let before_last = log.byte_len();
        log.append(&sample_insert());
        // Lose exactly the last frame: every remaining frame validates,
        // only the record count gives the loss away.
        log.truncate_tail_bytes(log.byte_len() - before_last);
        assert!(matches!(
            log.read_after(LogPosition::START),
            Err(WarehouseError::CorruptBinlog(_))
        ));
        assert!(log.read_table_after(LogPosition::START, "s", "t").is_err());
        assert_eq!(log.repair_tail().dropped_records, 1);
        assert_eq!(log.read_after(LogPosition::START).unwrap().len(), 1);
    }

    #[test]
    fn repair_tail_truncates_from_first_damaged_frame() {
        // Damage in the *middle* frame drops it and everything after —
        // crash-consistent prefix semantics, never a hole.
        let mut log = Binlog::new();
        log.append(&EventPayload::CreateSchema { schema: "s".into() });
        let mid_offset = log.byte_len() + 8; // inside the second frame
        log.append(&sample_insert());
        log.append(&sample_insert());
        assert!(log.corrupt_byte(mid_offset));
        let repair = log.repair_tail();
        assert_eq!(repair.dropped_records, 2);
        assert_eq!(log.position().seqno, 1);
        assert_eq!(log.read_after(LogPosition::START).unwrap().len(), 1);
    }

    #[test]
    fn truncate_everything_then_repair_yields_empty_log() {
        let mut log = Binlog::new();
        log.append(&sample_insert());
        log.truncate_tail_bytes(usize::MAX);
        let repair = log.repair_tail();
        assert_eq!(repair.dropped_records, 1);
        assert!(log.is_empty());
        assert_eq!(log.position(), LogPosition { epoch: 0, seqno: 0 });
        assert!(log.read_after(LogPosition::START).unwrap().is_empty());
    }

    #[test]
    fn encode_next_then_push_frame_matches_append() {
        let mut a = Binlog::new();
        let mut b = Binlog::new();
        for payload in [
            EventPayload::CreateSchema { schema: "s".into() },
            sample_insert(),
        ] {
            let pa = a.append(&payload);
            let (pb, frame) = b.encode_next(&payload);
            // encode_next does not mutate…
            assert_eq!(b.position().seqno + 1, pb.seqno);
            b.push_frame(&frame);
            assert_eq!(pa, pb);
        }
        assert_eq!(
            a.export_after(LogPosition::START).unwrap(),
            b.export_after(LogPosition::START).unwrap()
        );
    }

    #[test]
    fn compact_before_drops_prefix_and_flags_reads_below_horizon() {
        let mut log = Binlog::new();
        for _ in 0..5 {
            log.append(&sample_insert());
        }
        let full_len = log.byte_len();
        let stats = log.compact_before(3);
        assert_eq!(stats.dropped_records, 3);
        assert!(stats.dropped_bytes > 0);
        assert_eq!(log.base_seqno(), 3);
        assert_eq!(log.len(), 2);
        assert_eq!(log.byte_len(), full_len - stats.dropped_bytes);
        assert_eq!(log.position(), LogPosition { epoch: 0, seqno: 5 });
        // The retained tail is readable and correctly numbered.
        let tail = log.read_after(LogPosition { epoch: 0, seqno: 3 }).unwrap();
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].position.seqno, 4);
        // Reads below the horizon are refused with a typed error.
        let err = log.read_after(LogPosition::START).unwrap_err();
        assert!(matches!(
            err,
            WarehouseError::CompactedAway {
                horizon: LogPosition { epoch: 0, seqno: 3 }
            }
        ));
        assert!(matches!(
            log.record_at(2).unwrap_err(),
            WarehouseError::CompactedAway { .. }
        ));
        assert!(matches!(
            log.export_after(LogPosition { epoch: 0, seqno: 1 }),
            Err(WarehouseError::CompactedAway { .. })
        ));
        // Appends continue past the horizon; compaction is monotone.
        let pos = log.append(&sample_insert());
        assert_eq!(pos.seqno, 6);
        assert!(log.compact_before(2).is_noop());
        // Compacting to the head empties the retained window but keeps
        // seqno continuity.
        log.compact_before(u64::MAX);
        assert_eq!(log.len(), 0);
        assert_eq!(log.append(&sample_insert()).seqno, 7);
    }

    #[test]
    fn rotate_epoch_resets_compaction_horizon() {
        let mut log = Binlog::new();
        log.append(&sample_insert());
        log.append(&sample_insert());
        log.compact_before(1);
        log.rotate_epoch();
        assert_eq!(log.base_seqno(), 0);
        assert!(log.read_after(LogPosition::START).unwrap().is_empty());
    }

    #[test]
    fn restore_frames_rebuilds_log_from_tail() {
        let mut source = Binlog::new();
        for _ in 0..4 {
            source.append(&sample_insert());
        }
        // Recovery hands the tail after a snapshot at seqno 2.
        let tail = source
            .export_after(LogPosition { epoch: 0, seqno: 2 })
            .unwrap();
        let mut restored = Binlog::new();
        let n = restored.restore_frames(0, 2, tail.clone()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(restored.base_seqno(), 2);
        assert_eq!(restored.position(), LogPosition { epoch: 0, seqno: 4 });
        let events = restored
            .read_after(LogPosition { epoch: 0, seqno: 2 })
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].position.seqno, 3);
        // Appends continue the sequence.
        assert_eq!(restored.append(&sample_insert()).seqno, 5);
        // A tail whose seqnos do not line up with the claimed base is
        // rejected, as is one from the wrong epoch.
        let mut bad = Binlog::new();
        assert!(bad.restore_frames(0, 1, tail.clone()).is_err());
        assert!(bad.restore_frames(3, 2, tail.clone()).is_err());
        // So is one with a damaged frame: the CRC is still checked.
        let mut flipped = tail;
        flipped[20] ^= 1;
        assert!(bad.restore_frames(0, 2, flipped).is_err());
    }

    /// One frame's bytes, CRC included, as the pre-kernel bytewise CRC
    /// wrote them.
    #[test]
    fn frame_is_pinned_on_the_wire() {
        let mut out = Vec::new();
        put_frame(&mut out, LogPosition { epoch: 2, seqno: 9 }, |b| {
            b.extend_from_slice(b"federation")
        });
        assert_eq!(
            out,
            [
                0x1a, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x66, 0x65, 0x64, 0x65, 0x72, 0x61, 0x74, 0x69, 0x6f, 0x6e, 0x36, 0x13,
                0xd4, 0x30,
            ]
        );
    }

    #[test]
    fn corrupt_byte_out_of_range_is_noop() {
        let mut log = Binlog::new();
        assert!(!log.corrupt_byte(0));
        assert!(!log.corrupt_tail_byte());
        log.append(&sample_insert());
        assert!(!log.corrupt_byte(log.byte_len()));
    }
}
