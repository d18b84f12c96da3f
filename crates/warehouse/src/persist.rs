//! Database snapshots (dump/load).
//!
//! "Loose" federation ships **database dumps** to the hub instead of a
//! live binlog stream (§II-C2), and the backup use case (§II-E4)
//! regenerates a satellite database from the hub's copy. Both, and the
//! storage engine's own snapshots, are a **compacted binlog**: a counted
//! run of ordinary frames ([`crate::binlog`]), numbered `0:1, 0:2, …`,
//! that rebuilds the captured schemas when replayed — per schema a
//! `CreateSchema`, per table a `CreateTable` and its rows in stored order
//! as `InsertBatch` frames of at most [`SNAPSHOT_CHUNK_ROWS`] rows.
//!
//! ```text
//! | "XDWDUMP\0" | version u32 = 3 | frames u64 | rows u64 | hdr crc u32 | frame … |
//! ```
//!
//! Each frame's CRC plus the counted header detect damage, reordering,
//! splicing and a cut at a frame boundary.

use crate::binlog::{
    decode_framed, peek_payload, put_frame, put_insert_batch, put_payload, split_frame,
    EventPayload, LogPosition,
};
use crate::checksum::crc32;
use crate::codec;
use crate::database::Database;
use crate::error::{Result, WarehouseError};
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Current snapshot format version (2 was a JSON document; not read).
pub const SNAPSHOT_VERSION: u32 = 3;

/// Most rows one snapshot frame carries (capture and restore hold one).
pub const SNAPSHOT_CHUNK_ROWS: usize = 4096;

const SNAPSHOT_MAGIC: [u8; 8] = *b"XDWDUMP\0";
/// magic + version + frame count + row count + header crc.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 4;

fn header(version: u32, frames: u64, rows: u64) -> Vec<u8> {
    let mut out = SNAPSHOT_MAGIC.to_vec();
    codec::put_u32(&mut out, version);
    codec::put_u64(&mut out, frames);
    codec::put_u64(&mut out, rows);
    let crc = crc32(&out);
    codec::put_u32(&mut out, crc);
    out
}

fn corrupt(msg: String) -> WarehouseError {
    WarehouseError::CorruptSnapshot(msg)
}

/// An image of (part of) a database, held in its serialized form (a
/// parsed dump borrows the bytes it was parsed from).
#[derive(Debug, Clone, Default)]
pub struct Snapshot<'a> {
    /// The frames, back to back, validated at construction.
    frames: Cow<'a, [u8]>,
    frame_count: u64,
    total_rows: u64,
}

impl Snapshot<'_> {
    /// Capture every schema of the database.
    pub fn capture(db: &Database) -> Result<Snapshot<'static>> {
        let names: Vec<String> = db.schema_names().iter().map(|s| s.to_string()).collect();
        Snapshot::capture_schemas(db, &names)
    }

    /// Capture only the named schemas (loose federation typically ships a
    /// single instance schema). Tables are streamed a chunk at a time — a
    /// paged one page by page within its budget — never cloned whole.
    pub fn capture_schemas(db: &Database, schema_names: &[String]) -> Result<Snapshot<'static>> {
        let mut snap = Snapshot::default();
        for schema in schema_names.iter().collect::<BTreeSet<_>>() {
            let tables = db.table_names(schema)?;
            snap.push(&EventPayload::CreateSchema {
                schema: schema.clone(),
            });
            for name in tables {
                let table = db.table(schema, name)?;
                snap.push(&EventPayload::CreateTable {
                    schema: schema.clone(),
                    def: table.schema().clone(),
                });
                table.for_each_chunk(SNAPSHOT_CHUNK_ROWS, &mut |rows| {
                    snap.push_frame(rows.len(), |buf| put_insert_batch(buf, schema, name, rows));
                })?;
            }
        }
        Ok(snap)
    }

    fn next_position(&self) -> LogPosition {
        LogPosition {
            epoch: 0,
            seqno: self.frame_count + 1,
        }
    }

    /// Append one frame inserting `rows` rows.
    fn push_frame(&mut self, rows: usize, write_payload: impl FnOnce(&mut Vec<u8>)) {
        let pos = self.next_position();
        put_frame(self.frames.to_mut(), pos, write_payload);
        self.frame_count += 1;
        self.total_rows += rows as u64;
    }

    fn push(&mut self, payload: &EventPayload) {
        let rows = match payload {
            EventPayload::InsertBatch { rows, .. } => rows.len(),
            _ => 0,
        };
        self.push_frame(rows, |buf| put_payload(buf, payload));
    }

    /// The snapshot's events, decoded one at a time in replay order. An
    /// `Err` ends the run: a payload that was sealed behind a valid CRC
    /// but does not decode ([`Snapshot::from_bytes`] reads only prefixes).
    pub fn events(&self) -> impl Iterator<Item = Result<EventPayload>> + '_ {
        let mut cur = &self.frames[..];
        std::iter::from_fn(move || {
            if cur.is_empty() {
                return None;
            }
            let event = decode_framed(&mut cur);
            if event.is_err() {
                cur = &[];
            }
            Some(event.map(|ev| ev.payload))
        })
    }

    /// Replay the snapshot's events into `db` ([`Database::apply_event`]):
    /// schemas and tables are created as needed and all rows **appended**.
    /// Errors if a target table exists with a different definition.
    pub fn apply(&self, db: &mut Database) -> Result<()> {
        for payload in self.events() {
            db.apply_event(payload?)?;
        }
        Ok(())
    }

    /// Serialize to the shipped dump file: counted header, then frames.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = header(SNAPSHOT_VERSION, self.frame_count, self.total_rows);
        out.extend_from_slice(&self.frames);
        out
    }

    /// Parse a dump file without copying it or decoding a row: the header,
    /// every frame's length, CRC and numbering, and both counts are
    /// validated. Not a version-3 dump (a version-2 JSON document, say):
    /// [`WarehouseError::Snapshot`]; a damaged one: `CorruptSnapshot`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot<'_>> {
        if bytes.get(..8) != Some(&SNAPSHOT_MAGIC[..]) {
            return Err(WarehouseError::Snapshot(
                "unsupported snapshot format: not a binlog-frame dump".into(),
            ));
        }
        let Some(mut fields) = bytes.get(8..HEADER_LEN) else {
            return Err(corrupt("dump ends inside its header".into()));
        };
        let version = codec::get_u32(&mut fields, "version")?;
        let claimed_frames = codec::get_u64(&mut fields, "frame count")?;
        let claimed_rows = codec::get_u64(&mut fields, "row count")?;
        let (sealed, frames) = bytes.split_at(HEADER_LEN);
        if sealed != header(version, claimed_frames, claimed_rows) {
            return Err(corrupt("header crc mismatch".into()));
        }
        if version != SNAPSHOT_VERSION {
            return Err(WarehouseError::Snapshot(format!(
                "unsupported snapshot version {version}"
            )));
        }

        let mut snap = Snapshot {
            frames: Cow::Borrowed(frames),
            ..Snapshot::default()
        };
        let mut cur = frames;
        while !cur.is_empty() {
            let expect = snap.next_position();
            let (found, rows) = split_frame(&mut cur)
                .and_then(|(found, payload)| Ok((found, peek_payload(payload)?)))
                .map_err(|e| corrupt(format!("frame {expect}: {e}")))?;
            if found != expect {
                return Err(corrupt(format!(
                    "frame {found} where {expect} was expected"
                )));
            }
            snap.frame_count += 1;
            snap.total_rows += rows;
        }
        if (snap.frame_count, snap.total_rows) != (claimed_frames, claimed_rows) {
            return Err(corrupt(format!(
                "dump claims {claimed_frames} frames / {claimed_rows} rows, holds {} / {}",
                snap.frame_count, snap.total_rows
            )));
        }
        Ok(snap)
    }

    /// Total rows in the snapshot.
    pub fn total_rows(&self) -> usize {
        self.total_rows as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::PagingConfig;
    use crate::schema::SchemaBuilder;
    use crate::value::{ColumnType, Row, Value};

    fn populated() -> Database {
        let mut db = Database::new();
        for schema in ["xdmod_x", "xdmod_y"] {
            db.create_schema(schema).unwrap();
            db.create_table(
                schema,
                SchemaBuilder::new("jobfact")
                    .required("resource", ColumnType::Str)
                    .required("cpu_hours", ColumnType::Float)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            db.insert(
                schema,
                "jobfact",
                vec![vec![Value::Str(format!("res-{schema}")), Value::Float(1.0)]],
            )
            .unwrap();
        }
        db
    }

    /// Re-seal a dump under other header fields, leaving the frames alone.
    fn with_header(dump: &[u8], version: u32, frames: u64, rows: u64) -> Vec<u8> {
        [&header(version, frames, rows), &dump[HEADER_LEN..]].concat()
    }

    /// The dump header's bytes, CRC included, as the pre-kernel bytewise
    /// CRC wrote them.
    #[test]
    fn header_is_pinned_on_the_wire() {
        assert_eq!(
            header(3, 7, 42),
            [
                0x58, 0x44, 0x57, 0x44, 0x55, 0x4d, 0x50, 0x00, 0x03, 0x00, 0x00, 0x00, 0x07, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0xb8, 0x92, 0x51, 0xb8,
            ]
        );
    }

    #[test]
    fn dump_and_restore_round_trip() {
        let src = populated();
        let snap = Snapshot::capture(&src).unwrap();
        let bytes = snap.to_bytes();
        let parsed = Snapshot::from_bytes(&bytes).unwrap();

        let mut dst = Database::new();
        dst.reset_for_restore().unwrap();
        parsed.apply(&mut dst).unwrap();
        for schema in ["xdmod_x", "xdmod_y"] {
            assert_eq!(
                src.table(schema, "jobfact").unwrap().content_checksum(),
                dst.table(schema, "jobfact").unwrap().content_checksum()
            );
        }
    }

    #[test]
    fn capture_subset_of_schemas() {
        let src = populated();
        let snap = Snapshot::capture_schemas(&src, &["xdmod_x".to_owned()]).unwrap();
        let mut dst = Database::new();
        snap.apply(&mut dst).unwrap();
        assert_eq!(dst.schema_names(), vec!["xdmod_x"]);
        assert_eq!(snap.total_rows(), 1);
        // Naming a schema twice captures it once.
        let twice =
            Snapshot::capture_schemas(&src, &["xdmod_x".to_owned(), "xdmod_x".to_owned()]).unwrap();
        assert_eq!(twice.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn capture_unknown_schema_errors() {
        let src = populated();
        assert!(Snapshot::capture_schemas(&src, &["nope".to_owned()]).is_err());
    }

    #[test]
    fn apply_appends_rows() {
        let src = populated();
        let snap = Snapshot::capture_schemas(&src, &["xdmod_x".to_owned()]).unwrap();
        let mut dst = Database::new();
        snap.apply(&mut dst).unwrap();
        snap.apply(&mut dst).unwrap(); // loose-federation double-ship
        assert_eq!(dst.table("xdmod_x", "jobfact").unwrap().len(), 2);
    }

    #[test]
    fn restore_rotates_epoch_and_replaces() {
        let mut db = populated();
        let snap = Snapshot::capture_schemas(&db, &["xdmod_x".to_owned()]).unwrap();
        let epoch_before = db.binlog_position().epoch;
        db.reset_for_restore().unwrap();
        snap.apply(&mut db).unwrap();
        assert_eq!(db.binlog_position().epoch, epoch_before + 1);
        assert_eq!(db.schema_names(), vec!["xdmod_x"]); // xdmod_y gone
    }

    #[test]
    fn tampered_bytes_are_rejected_wherever_they_land() {
        let bytes = Snapshot::capture(&populated()).unwrap().to_bytes();
        // Header, frame prefix, position, payload, frame CRC: a flipped
        // byte anywhere past the magic is CorruptSnapshot.
        for idx in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x01;
            assert!(
                matches!(
                    Snapshot::from_bytes(&bad),
                    Err(WarehouseError::CorruptSnapshot(_) | WarehouseError::Snapshot(_))
                ),
                "flip at {idx}"
            );
        }
        // A stored value altered in place (same length): the frame CRC
        // catches what the v2 content checksum used to.
        let at = bytes
            .windows(11)
            .position(|w| w == b"res-xdmod_x")
            .expect("fixture value present");
        let mut bad = bytes.clone();
        bad[at..at + 11].copy_from_slice(b"res-evil_xx");
        assert!(matches!(
            Snapshot::from_bytes(&bad),
            Err(WarehouseError::CorruptSnapshot(_))
        ));
    }

    /// Parsing borrows the dump and reads payload prefixes only. A payload
    /// sealed behind a valid CRC that does not decode (a writer bug, not
    /// bit rot) is refused at replay with a typed error instead.
    #[test]
    fn parsing_borrows_the_dump_and_defers_row_decoding_to_replay() {
        let snap = Snapshot::capture(&populated()).unwrap();
        let bytes = snap.to_bytes();
        let parsed = Snapshot::from_bytes(&bytes).unwrap();
        assert!(matches!(parsed.frames, Cow::Borrowed(_)));
        assert_eq!(parsed.total_rows(), snap.total_rows());
        assert_eq!(parsed.frame_count, snap.frame_count);

        // An `InsertBatch` of one row whose arity overruns the payload.
        let mut bad = Snapshot::default();
        bad.push(&EventPayload::CreateSchema { schema: "s".into() });
        bad.push_frame(1, |buf| {
            put_insert_batch(buf, "s", "t", [vec![]].iter());
            let at = buf.len() - 4;
            buf[at..].copy_from_slice(&9u32.to_le_bytes());
        });
        let bytes = bad.to_bytes();
        let parsed = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(parsed.total_rows(), 1);
        let mut hub = Database::new();
        assert!(matches!(
            parsed.apply(&mut hub),
            Err(WarehouseError::CorruptBinlog(_))
        ));
        assert!(hub.has_schema("s")); // replay stopped at the bad frame
    }

    #[test]
    fn dump_cut_at_a_frame_boundary_is_corrupt_not_short() {
        let snap = Snapshot::capture(&populated()).unwrap();
        let bytes = snap.to_bytes();
        // Walk the frames; dropping any suffix of whole frames leaves
        // every remaining CRC valid — only the counted header notices.
        let mut cur = &bytes[HEADER_LEN..];
        let mut boundaries = vec![HEADER_LEN];
        while !cur.is_empty() {
            decode_framed(&mut cur).unwrap();
            boundaries.push(bytes.len() - cur.len());
        }
        assert_eq!(boundaries.len() as u64, snap.frame_count + 1);
        boundaries.pop(); // the full dump is fine
        for cut in boundaries {
            assert!(
                matches!(
                    Snapshot::from_bytes(&bytes[..cut]),
                    Err(WarehouseError::CorruptSnapshot(_))
                ),
                "cut at {cut}"
            );
        }
        // Two dumps spliced frame-wise: numbering gives it away even
        // with a header re-sealed to the new counts.
        let mut spliced = bytes.clone();
        spliced.extend_from_slice(&bytes[HEADER_LEN..]);
        let spliced = with_header(
            &spliced,
            SNAPSHOT_VERSION,
            snap.frame_count * 2,
            snap.total_rows * 2,
        );
        assert!(matches!(
            Snapshot::from_bytes(&spliced),
            Err(WarehouseError::CorruptSnapshot(_))
        ));
    }

    #[test]
    fn other_versions_are_unsupported_not_corrupt() {
        let snap = Snapshot::capture(&populated()).unwrap();
        let future = with_header(&snap.to_bytes(), 99, snap.frame_count, snap.total_rows);
        assert!(matches!(
            Snapshot::from_bytes(&future),
            Err(WarehouseError::Snapshot(m)) if m.contains("99")
        ));
        // What a version-2 dump looked like: a JSON document.
        let v2 = br#"{"version":2,"content_checksum":1234,"schemas":{"xdmod_x":{}}}"#;
        assert!(matches!(
            Snapshot::from_bytes(v2),
            Err(WarehouseError::Snapshot(m)) if m.contains("unsupported")
        ));
        assert!(matches!(
            Snapshot::from_bytes(b""),
            Err(WarehouseError::Snapshot(_))
        ));
    }

    fn awkward_db() -> Database {
        let mut db = Database::new();
        db.create_schema("s").unwrap();
        db.create_table(
            "s",
            SchemaBuilder::new("t")
                .required("i", ColumnType::Int)
                .required("f", ColumnType::Float)
                .required("name", ColumnType::Str)
                .nullable("at", ColumnType::Time)
                .required("flag", ColumnType::Bool)
                .build()
                .unwrap(),
        )
        .unwrap();
        let floats = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.1 + 0.2,
            f64::MIN_POSITIVE / 2.0,
        ];
        let names = ["", "naïve — 計算 🖥", "plain"];
        let rows = floats
            .iter()
            .enumerate()
            .map(|(k, f)| {
                vec![
                    Value::Int(if k % 2 == 0 { i64::MIN } else { i64::MAX }),
                    Value::Float(*f),
                    Value::Str(names[k % names.len()].into()),
                    if k % 2 == 0 {
                        Value::Null
                    } else {
                        Value::Time(86_400 * k as i64)
                    },
                    Value::Bool(k % 2 == 1),
                ]
            })
            .collect();
        db.insert("s", "t", rows).unwrap();
        db
    }

    /// A text dump writes non-finite floats as `null` and folds `-0.0`
    /// into `0`; frames carry the bit pattern.
    #[test]
    fn awkward_values_round_trip_bit_exact() {
        let src = awkward_db();
        let bytes = Snapshot::capture(&src).unwrap().to_bytes();
        let mut dst = Database::new();
        dst.reset_for_restore().unwrap();
        Snapshot::from_bytes(&bytes)
            .unwrap()
            .apply(&mut dst)
            .unwrap();
        let want = src.table("s", "t").unwrap();
        let got = dst.table("s", "t").unwrap();
        // `Value` equality is by bit pattern for floats.
        assert_eq!(got.rows().unwrap().to_vec(), want.rows().unwrap().to_vec());
        assert_eq!(got.content_checksum(), want.content_checksum());
        assert_eq!(got.schema(), want.schema());
    }

    #[test]
    fn large_tables_are_chunked_and_keep_their_order() {
        let mut db = Database::new();
        db.create_schema("s").unwrap();
        db.create_table(
            "s",
            SchemaBuilder::new("t")
                .required("n", ColumnType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        let n = SNAPSHOT_CHUNK_ROWS * 2 + 17;
        db.insert(
            "s",
            "t",
            (0..n as i64).map(|i| vec![Value::Int(i)]).collect(),
        )
        .unwrap();
        let snap = Snapshot::capture(&db).unwrap();
        assert_eq!(snap.total_rows(), n);
        // CreateSchema + CreateTable + three InsertBatch chunks.
        assert_eq!(snap.frame_count, 5);
        let largest = snap
            .events()
            .map(|p| match p.unwrap() {
                EventPayload::InsertBatch { rows, .. } => rows.len(),
                _ => 0,
            })
            .max();
        assert_eq!(largest, Some(SNAPSHOT_CHUNK_ROWS));
        let mut dst = Database::new();
        snap.apply(&mut dst).unwrap();
        assert_eq!(
            dst.table("s", "t").unwrap().rows().unwrap().to_vec(),
            db.table("s", "t").unwrap().rows().unwrap().to_vec()
        );
    }

    #[test]
    fn paged_tables_are_captured_page_by_page_within_the_budget() {
        let dir = std::env::temp_dir().join(format!("xdmod-persist-paged-{}", std::process::id()));
        let mut dense = Database::new();
        dense.create_schema("s").unwrap();
        dense
            .create_table(
                "s",
                SchemaBuilder::new("t")
                    .required("end_time", ColumnType::Time)
                    .required("v", ColumnType::Float)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let rows: Vec<Row> = (0..200i64)
            .map(|i| {
                vec![
                    Value::Time((i % 9) * 86_400 + i),
                    Value::Float(i as f64 / 8.0),
                ]
            })
            .collect();
        dense.insert("s", "t", rows.clone()).unwrap();

        let mut paged = Database::new();
        paged
            .enable_paging(PagingConfig::new(&dir).budget_bytes(1).pages_per_table(4))
            .unwrap();
        for ev in dense.binlog_after(LogPosition::START).unwrap() {
            paged.apply_event(ev.payload).unwrap();
        }
        assert!(paged.residency_stats().unwrap().spilled_pages > 0);

        let snap = Snapshot::capture(&paged).unwrap();
        // The scan released every page behind it: still within budget.
        assert_eq!(paged.residency_stats().unwrap().resident_bytes, 0);
        assert_eq!(snap.total_rows(), 200);
        let mut restored = Database::new();
        Snapshot::from_bytes(&snap.to_bytes())
            .unwrap()
            .apply(&mut restored)
            .unwrap();
        let got = restored.table("s", "t").unwrap();
        assert_eq!(
            got.content_checksum(),
            dense.table("s", "t").unwrap().content_checksum()
        );
        // Page by page, stored order within each page: every day bucket's
        // rows come back in their original relative order.
        for day in 0..9 {
            let of_day = |all: &[Row]| -> Vec<Row> {
                all.iter()
                    .filter(|r| r[0].as_i64().map(|t| t / 86_400) == Some(day))
                    .cloned()
                    .collect()
            };
            assert_eq!(of_day(&got.rows().unwrap()), of_day(&rows), "day {day}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
