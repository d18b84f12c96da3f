//! CRC-framed per-page spill files for the cold-shard paging engine.
//!
//! One file per spilled page, named `<store-id>-<page>-<gen>.spl` inside
//! the paging spill directory: a fixed CRC'd header followed by a
//! checksummed body.
//!
//! ```text
//! +----------+----------+--------+--------+-----------+----------+----------+---------+------+
//! | magic 8B | store id | page   | gen    | row count | body len | body crc | hdr crc | body |
//! |"XDWSPL2\0"| u64 LE  | u32 LE | u64 LE | u64 LE    | u64 LE   | u32 LE   | u32 LE  |      |
//! +----------+----------+--------+--------+-----------+----------+----------+---------+------+
//! ```
//!
//! The body is `row count` entries of `seq u64 LE | row`, the row in the
//! binlog's encoding (`crate::codec`) — rows tagged with their
//! insertion sequence number so fault-in restores the exact stored
//! order. Every read validates magic, header CRC, the identity fields
//! (store id / page / generation), and the body length and CRC; any
//! mismatch means the page is *lost*, never silently wrong. The `2` in
//! the magic keeps a file with the earlier JSON body from validating.
//!
//! Spill files are caches, not the source of truth: every row they hold
//! is also durable in the write-ahead log, so a lost page is repaired by
//! replaying the log ([`crate::database::Database::repair_paging`]).
//!
//! The chaos fault points [`FaultPoint::SpillWrite`] and
//! [`FaultPoint::SpillRead`] fire here; [`write_page`] and [`read_page`]
//! say what each fault kind does.

use crate::checksum::crc32;
use crate::codec;
use crate::error::{Result, WarehouseError};
use crate::value::Row;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use xdmod_chaos::{FaultInjector, FaultKind, FaultPoint};

/// Magic prefix of a spill file.
pub const SPILL_MAGIC: [u8; 8] = *b"XDWSPL2\0";
/// Spill header length: magic + store id + page + gen + rows + body len +
/// body crc + header crc.
pub const SPILL_HEADER_LEN: usize = 8 + 8 + 4 + 8 + 8 + 8 + 4 + 4;

/// Identity and location of one written spill file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillMeta {
    /// Path the page was spilled to.
    pub path: PathBuf,
    /// Store the page belongs to.
    pub store_id: u64,
    /// Page index within the store.
    pub page: u32,
    /// Spill generation (bumped per write so stale files never validate).
    pub gen: u64,
    /// Rows in the body.
    pub rows: u64,
}

/// File name of a spill file.
pub fn spill_file_name(store_id: u64, page: u32, gen: u64) -> String {
    format!("{store_id:016x}-{page:04}-{gen:08}.spl")
}

/// The header a file holding `body` for the page `meta` names must carry.
fn encode_header(meta: &SpillMeta, body: &[u8]) -> Vec<u8> {
    let mut out = SPILL_MAGIC.to_vec();
    codec::put_u64(&mut out, meta.store_id);
    codec::put_u32(&mut out, meta.page);
    codec::put_u64(&mut out, meta.gen);
    codec::put_u64(&mut out, meta.rows);
    codec::put_u64(&mut out, body.len() as u64);
    codec::put_u32(&mut out, crc32(body));
    let crc = crc32(&out);
    codec::put_u32(&mut out, crc);
    out
}

fn io_err(what: &str, err: std::io::Error) -> WarehouseError {
    WarehouseError::Io(format!("{what}: {err}"))
}

/// Consult the injector at `point`. The loud kinds act here — transient
/// and offline faults fail the call, a stall sleeps — and the
/// silent-damage kinds are handed back for the caller to act out.
fn consult(
    chaos: Option<&(FaultInjector, String)>,
    point: FaultPoint,
    verb: &str,
) -> Result<Option<FaultKind>> {
    let fault = chaos.and_then(|(inj, target)| inj.next_fault(point, target));
    match fault {
        Some(FaultKind::Transient) => Err(WarehouseError::Io(format!(
            "injected: transient spill {verb} failure"
        ))),
        Some(FaultKind::LinkDown) => {
            Err(WarehouseError::Io("injected: spill storage offline".into()))
        }
        Some(FaultKind::Stall { millis }) => {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            Ok(fault)
        }
        _ => Ok(fault),
    }
}

/// Spill a page's rows to `dir`, returning the file's identity. Consults
/// [`FaultPoint::SpillWrite`]: transient kinds fail loudly (the caller
/// keeps the page resident), silent-damage kinds report success while
/// leaving a corrupt, torn, or missing file behind.
pub fn write_page(
    dir: &Path,
    fsync: bool,
    chaos: Option<&(FaultInjector, String)>,
    store_id: u64,
    page: u32,
    gen: u64,
    rows: &[(u64, Row)],
) -> Result<SpillMeta> {
    let fault = consult(chaos, FaultPoint::SpillWrite, "write")?;
    fs::create_dir_all(dir).map_err(|e| io_err("create spill dir", e))?;
    let meta = SpillMeta {
        path: dir.join(spill_file_name(store_id, page, gen)),
        store_id,
        page,
        gen,
        rows: rows.len() as u64,
    };
    let mut body = Vec::new();
    for (seq, row) in rows {
        codec::put_u64(&mut body, *seq);
        codec::put_row(&mut body, row);
    }
    let mut bytes = encode_header(&meta, &body);
    bytes.extend_from_slice(&body);
    match fault {
        Some(FaultKind::CorruptTailByte) => {
            // Flip a body byte: header parses, body CRC fails at fault-in.
            let idx = SPILL_HEADER_LEN + body.len() / 2;
            if idx < bytes.len() {
                bytes[idx] ^= 0xA5;
            }
        }
        Some(FaultKind::TruncateTail { bytes: cut }) => {
            let keep = bytes.len().saturating_sub(cut.max(1) as usize);
            bytes.truncate(keep);
        }
        // The write "succeeds" but the file never reaches the platter —
        // fault-in finds nothing and declares the page lost.
        Some(FaultKind::DropFsync) => return Ok(meta),
        _ => {}
    }
    let mut file = File::create(&meta.path).map_err(|e| io_err("create spill file", e))?;
    file.write_all(&bytes)
        .map_err(|e| io_err("write spill file", e))?;
    if fsync {
        file.sync_data().map_err(|e| io_err("sync spill file", e))?;
    }
    Ok(meta)
}

/// Read a spilled page back, validating the full frame against the
/// recorded identity. Consults [`FaultPoint::SpillRead`]: transient
/// kinds fail loudly and retriably (the page stays spilled); corruption
/// kinds damage the read buffer (a bad sector) so validation fails and
/// the page is declared lost. A validation failure returns
/// [`WarehouseError::SpillLost`] — corrupt spill data is never served.
pub fn read_page(
    meta: &SpillMeta,
    table: &str,
    chaos: Option<&(FaultInjector, String)>,
) -> Result<Vec<(u64, Row)>> {
    let fault = consult(chaos, FaultPoint::SpillRead, "read")?;
    let lost = || WarehouseError::SpillLost {
        table: table.to_owned(),
        page: meta.page,
    };
    let mut data = fs::read(&meta.path).map_err(|_| lost())?;
    match fault {
        Some(FaultKind::CorruptTailByte) => {
            let idx = data.len() / 2;
            if idx < data.len() {
                data[idx] ^= 0xA5;
            }
        }
        Some(FaultKind::TruncateTail { bytes: cut }) => {
            let keep = data.len().saturating_sub(cut.max(1) as usize);
            data.truncate(keep);
        }
        _ => {}
    }
    // Magic, identity, row count, body length, both CRCs: the header must
    // be exactly the one the writer seals over this body for this page.
    let body = data.get(SPILL_HEADER_LEN..).ok_or_else(lost)?;
    if data[..SPILL_HEADER_LEN] != encode_header(meta, body) {
        return Err(lost());
    }
    let mut cur = body;
    // Every entry takes at least its sequence number and an arity prefix.
    let mut decoded = Vec::with_capacity((meta.rows as usize).min(body.len() / 12));
    for _ in 0..meta.rows {
        let seq = codec::get_u64(&mut cur, "spill seq").map_err(|_| lost())?;
        decoded.push((seq, codec::get_row(&mut cur).map_err(|_| lost())?));
    }
    if !cur.is_empty() {
        return Err(lost());
    }
    Ok(decoded)
}

/// Best-effort removal of a spill file (eviction superseded it, the page
/// was truncated, or its store is being dropped). Removal failures are
/// ignored: a stale file can never validate against a newer generation.
pub fn remove(meta: &SpillMeta) {
    let _ = fs::remove_file(&meta.path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use xdmod_chaos::{FaultPlan, FaultSpec};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("xdmod-spill-{}-{tag}-{n}", std::process::id()))
    }

    fn rows() -> Vec<(u64, Row)> {
        (0..8)
            .map(|i| {
                (
                    i,
                    vec![
                        Value::Str(format!("res-{i}")),
                        Value::Float(i as f64 / 64.0),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn round_trip_preserves_rows_and_order() {
        let dir = temp_dir("roundtrip");
        let mut rows = rows();
        // NaN, ±inf, -0.0, i64::MIN, "" and non-ASCII: bit-exact (`Value`
        // compares floats by bit pattern), where a text body could not be.
        rows.push((u64::MAX, crate::codec::tests::awkward_row()));
        let meta = write_page(&dir, false, None, 7, 3, 1, &rows).unwrap();
        assert_eq!(meta.rows, 9);
        assert_eq!(read_page(&meta, "jobfact", None).unwrap(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn identity_mismatch_is_lost_not_served() {
        let dir = temp_dir("identity");
        let rows = rows();
        let meta = write_page(&dir, false, None, 7, 3, 1, &rows).unwrap();
        // A stale meta (older generation) must never read the newer file.
        let stale = SpillMeta { gen: 0, ..meta };
        assert!(matches!(
            read_page(&stale, "jobfact", None),
            Err(WarehouseError::SpillLost { page: 3, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_and_truncation_are_detected() {
        let dir = temp_dir("damage");
        let rows = rows();
        let meta = write_page(&dir, false, None, 1, 0, 1, &rows).unwrap();
        let clean = fs::read(&meta.path).unwrap();
        // Flip one body byte.
        let mut bad = clean.clone();
        let idx = SPILL_HEADER_LEN + 5;
        bad[idx] ^= 0x01;
        fs::write(&meta.path, &bad).unwrap();
        assert!(matches!(
            read_page(&meta, "jobfact", None),
            Err(WarehouseError::SpillLost { .. })
        ));
        // Torn tail.
        fs::write(&meta.path, &clean[..clean.len() - 3]).unwrap();
        assert!(matches!(
            read_page(&meta, "jobfact", None),
            Err(WarehouseError::SpillLost { .. })
        ));
        // Missing file.
        fs::remove_file(&meta.path).unwrap();
        assert!(matches!(
            read_page(&meta, "jobfact", None),
            Err(WarehouseError::SpillLost { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_silent_write_damage_surfaces_at_fault_in() {
        for kind in [
            FaultKind::CorruptTailByte,
            FaultKind::TruncateTail { bytes: 9 },
            FaultKind::DropFsync,
        ] {
            let dir = temp_dir("chaos-write");
            let plan = FaultPlan::new().with(FaultSpec::at_ops(FaultPoint::SpillWrite, kind, &[1]));
            let chaos = (plan.injector(1), "paging".to_owned());
            let rows = rows();
            // The write reports success...
            let meta = write_page(&dir, false, Some(&chaos), 2, 1, 1, &rows).unwrap();
            // ...but the page is lost, not wrong, at fault-in.
            assert!(
                matches!(
                    read_page(&meta, "jobfact", None),
                    Err(WarehouseError::SpillLost { .. })
                ),
                "{kind:?}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn chaos_transient_write_fails_loudly_and_retry_succeeds() {
        let dir = temp_dir("chaos-transient");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SpillWrite,
            FaultKind::Transient,
            &[1],
        ));
        let chaos = (plan.injector(1), "paging".to_owned());
        let rows = rows();
        assert!(matches!(
            write_page(&dir, false, Some(&chaos), 2, 1, 1, &rows),
            Err(WarehouseError::Io(_))
        ));
        let meta = write_page(&dir, false, Some(&chaos), 2, 1, 2, &rows).unwrap();
        assert_eq!(read_page(&meta, "jobfact", None).unwrap(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_transient_read_is_retriable() {
        let dir = temp_dir("chaos-read");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SpillRead,
            FaultKind::Transient,
            &[1],
        ));
        let chaos = (plan.injector(1), "paging".to_owned());
        let rows = rows();
        let meta = write_page(&dir, false, None, 9, 2, 4, &rows).unwrap();
        assert!(matches!(
            read_page(&meta, "jobfact", Some(&chaos)),
            Err(WarehouseError::Io(_))
        ));
        // The file is intact; the retry faults in clean.
        assert_eq!(read_page(&meta, "jobfact", Some(&chaos)).unwrap(), rows);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_read_corruption_declares_the_page_lost() {
        let dir = temp_dir("chaos-read-corrupt");
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SpillRead,
            FaultKind::CorruptTailByte,
            &[1],
        ));
        let chaos = (plan.injector(1), "paging".to_owned());
        let rows = rows();
        let meta = write_page(&dir, false, None, 9, 2, 4, &rows).unwrap();
        assert!(matches!(
            read_page(&meta, "jobfact", Some(&chaos)),
            Err(WarehouseError::SpillLost { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
