//! Kill-at-every-fault-point crash-recovery matrix.
//!
//! One deterministic workload is driven against a disk-backed database
//! while a silent storage fault (bit-flip, torn write, dropped fsync) is
//! injected at every single append in turn. After each simulated crash
//! the database is reopened and three invariants are checked:
//!
//! 1. **Prefix integrity** — the recovered binlog is byte- and
//!    checksum-identical to the pre-crash log up to the last durable
//!    record, and nothing past the damage point is resurrected.
//! 2. **Differential oracle** — the recovered store's content equals an
//!    in-memory database replaying exactly the surviving prefix of the
//!    workload.
//! 3. **Liveness** — recovery never panics, never refuses to start, and
//!    the reopened database accepts new writes.
//!
//! A second matrix damages snapshot writes (including a loudly-failing
//! transient) and checks that recovery falls back to the previous
//! snapshot plus the segment tail with no data loss. A third runs the
//! append matrix after two snapshot cycles, so every faulted append lands
//! in a recycled segment file that still holds a retired segment's bytes.
//!
//! The run is parameterized by `CRASH_SEED` (varies payload bytes and
//! tear sizes) and, when `CRASH_RECOVERY_REPORT` names a path, writes a
//! JSON report of every matrix case for CI to archive.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
use xdmod_warehouse::checksum::crc32;
use xdmod_warehouse::{
    ColumnType, Database, DiskBackend, DiskOptions, LogPosition, SchemaBuilder, TableSchema, Value,
};

/// Total workload steps; step N is binlog record N.
const STEPS: u64 = 14;
/// Step at which the workload truncates instead of inserting, so the
/// matrix covers every mutation kind the binlog can carry.
const TRUNCATE_STEP: u64 = 9;

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "xdmod-crashmatrix-{}-{tag}-{n}",
        std::process::id()
    ))
}

fn seed() -> u64 {
    std::env::var("CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn table_def() -> TableSchema {
    SchemaBuilder::new("t")
        .required("id", ColumnType::Int)
        .required("val", ColumnType::Str)
        .build()
        .expect("static schema literal is valid")
}

/// Apply workload step `step` (1-based). Returns the step's log position.
fn apply_step(db: &mut Database, step: u64, seed: u64) -> LogPosition {
    match step {
        1 => db.create_schema("s").expect("create schema"),
        2 => db.create_table("s", table_def()).expect("create table"),
        TRUNCATE_STEP => db.truncate("s", "t").expect("truncate"),
        n => db
            .insert(
                "s",
                "t",
                vec![vec![
                    Value::Int(n as i64),
                    Value::Str(format!("v-{seed}-{n}-{}", "x".repeat((n % 5) as usize))),
                ]],
            )
            .expect("insert"),
    }
}

/// Replay steps `1..=upto` on a fresh in-memory database — the
/// differential oracle for a store recovered at seqno `upto`.
fn oracle_at(upto: u64, seed: u64) -> Database {
    let mut db = Database::new();
    for step in 1..=upto {
        apply_step(&mut db, step, seed);
    }
    db
}

/// Records the recycled-segment matrix writes before its steps.
const PRELUDE: u64 = 32;

/// Write `PRELUDE` records into schema `pre`: the schema, its table and
/// inserts. With `snapshots`, snapshot halfway and at the end, so the
/// second compaction retires the first half's segments to the pool.
fn apply_prelude(db: &mut Database, seed: u64, snapshots: bool) {
    db.create_schema("pre").expect("prelude schema");
    db.create_table("pre", table_def()).expect("prelude table");
    for n in 3..=PRELUDE {
        let row = vec![Value::Int(n as i64), Value::Str(format!("pre-{seed}-{n}"))];
        db.insert("pre", "t", vec![row]).expect("prelude insert");
        if snapshots && (n == PRELUDE / 2 || n == PRELUDE) {
            db.snapshot_now().expect("prelude snapshot");
        }
    }
}

/// Retired segment files waiting in `dir` for a roll to reuse them.
fn pooled_files(dir: &PathBuf) -> usize {
    std::fs::read_dir(dir)
        .expect("list store")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        })
        .count()
}

/// The full pre-crash oracle: complete framed binlog bytes plus the
/// cumulative byte length after each record (`cum[n]` = bytes of records
/// `1..=n`), so any durable prefix can be sliced out exactly.
fn oracle_log(seed: u64) -> (Vec<u8>, Vec<usize>) {
    let mut db = Database::new();
    let mut cum = vec![0usize];
    for step in 1..=STEPS {
        apply_step(&mut db, step, seed);
        cum.push(db.binlog_export(LogPosition::START).expect("export").len());
    }
    let full = db.binlog_export(LogPosition::START).expect("export");
    (full, cum)
}

/// Assert the recovered store is content-identical to the oracle at the
/// same seqno: same schemas, same tables, same order-independent content
/// checksum and row count per table.
fn assert_matches_oracle(recovered: &Database, upto: u64, seed: u64, ctx: &str) {
    assert_matches(recovered, &oracle_at(upto, seed), ctx);
}

/// Assert the recovered store is content-identical to `oracle`.
fn assert_matches(recovered: &Database, oracle: &Database, ctx: &str) {
    let mut want: Vec<String> = oracle
        .schema_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut got: Vec<String> = recovered
        .schema_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, want, "{ctx}: schema set diverged");
    for schema in oracle.schema_names() {
        for table in oracle.table_names(schema).expect("oracle tables") {
            let want = oracle.table(schema, table).expect("oracle table");
            let got = recovered
                .table(schema, table)
                .unwrap_or_else(|_| panic!("{ctx}: recovered store lost {schema}.{table}"));
            assert_eq!(got.len(), want.len(), "{ctx}: {schema}.{table} row count");
            assert_eq!(
                got.content_checksum(),
                want.content_checksum(),
                "{ctx}: {schema}.{table} content checksum"
            );
        }
    }
}

struct CaseReport {
    fault: &'static str,
    op: u64,
    durable_prefix: u64,
    prefix_crc: u32,
}

static REPORT: Mutex<Vec<CaseReport>> = Mutex::new(Vec::new());

fn record_case(fault: &'static str, op: u64, durable_prefix: u64, prefix_crc: u32) {
    REPORT.lock().expect("report lock").push(CaseReport {
        fault,
        op,
        durable_prefix,
        prefix_crc,
    });
}

/// Serialize the accumulated matrix cases to `CRASH_RECOVERY_REPORT`
/// when set (the CI soak job archives it). Called from each matrix test;
/// the file converges to the union of whatever ran.
fn flush_report() {
    let Ok(path) = std::env::var("CRASH_RECOVERY_REPORT") else {
        return;
    };
    let report = REPORT.lock().expect("report lock");
    let cases: Vec<String> = report
        .iter()
        .map(|c| {
            format!(
                r#"{{"fault":"{}","op":{},"durable_prefix":{},"prefix_crc":"0x{:08x}"}}"#,
                c.fault, c.op, c.durable_prefix, c.prefix_crc
            )
        })
        .collect();
    let doc = format!(
        r#"{{"seed":{},"steps":{},"cases":[{}],"total":{}}}"#,
        seed(),
        STEPS,
        cases.join(","),
        report.len(),
    );
    let _ = std::fs::write(&path, doc);
}

fn disk_db(dir: &PathBuf) -> Database {
    // Small segments force rotation mid-workload, so the matrix covers
    // faults at segment boundaries too; fsync off keeps the soak fast
    // (durability of the synced path is covered by the disk unit tests).
    let opts = DiskOptions::new(dir).fsync(false).segment_max_bytes(192);
    Database::open(Box::new(DiskBackend::open(opts).expect("open backend"))).expect("open db")
}

fn reopen(dir: &PathBuf) -> Database {
    let opts = DiskOptions::new(dir).fsync(false).segment_max_bytes(192);
    Database::open(Box::new(DiskBackend::open(opts).expect("reopen backend")))
        .expect("recovery must repair, not refuse")
}

#[test]
fn append_fault_matrix_holds_in_recycled_segments() {
    let seed = seed();
    let kinds: [(&'static str, FaultKind); 3] = [
        ("recycled-corrupt-tail-byte", FaultKind::CorruptTailByte),
        (
            "recycled-truncate-tail",
            FaultKind::TruncateTail {
                bytes: 1 + seed % 9,
            },
        ),
        ("recycled-drop-fsync", FaultKind::DropFsync),
    ];
    for (name, kind) in kinds {
        for op in 1..=STEPS {
            let ctx = format!("fault {name} at record {op} (seed {seed})");
            let dir = temp_dir(name);
            // The smallest segments hold one frame each, so every append
            // rolls, and the prelude pools `PRELUDE / 2` segments.
            let opts = DiskOptions::new(&dir).fsync(false).segment_max_bytes(1);
            let mut db = Database::open(Box::new(DiskBackend::open(opts).expect("open backend")))
                .expect("open db");
            apply_prelude(&mut db, seed, true);
            let pooled = pooled_files(&dir);
            assert!(pooled >= STEPS as usize, "{ctx}: {pooled} pooled files");
            let plan =
                FaultPlan::new().with(FaultSpec::at_ops(FaultPoint::SegmentAppend, kind, &[op]));
            db.set_fault_injector(plan.injector(seed), "wal");
            for step in 1..=STEPS {
                apply_step(&mut db, step, seed);
            }
            // Each step's append rolled into a pooled file.
            assert_eq!(pooled_files(&dir), pooled - STEPS as usize, "{ctx}");
            drop(db); // crash

            let mut db = reopen(&dir);
            let recovered = db.binlog_position().seqno;
            assert_eq!(recovered, PRELUDE + op - 1, "{ctx}: durable prefix length");

            // Prefix integrity past the snapshot recovery started from.
            let mut oracle = Database::new();
            apply_prelude(&mut oracle, seed, false);
            for step in 1..op {
                apply_step(&mut oracle, step, seed);
            }
            let base = LogPosition {
                epoch: 0,
                seqno: db.compaction_horizon(),
            };
            let replayed = db.binlog_export(base).expect("export recovered tail");
            let want = oracle.binlog_export(base).expect("oracle tail");
            assert_eq!(replayed, want, "{ctx}: recovered tail bytes");
            assert_eq!(crc32(&replayed), crc32(&want), "{ctx}: tail checksum");
            assert_matches(&db, &oracle, &ctx);

            // Liveness: the reopened database accepts new writes.
            if op > 2 {
                db.insert(
                    "s",
                    "t",
                    vec![vec![Value::Int(999), Value::Str("post-crash".into())]],
                )
                .expect("post-recovery insert");
            } else {
                db.create_schema("post_crash").expect("post-recovery DDL");
            }
            record_case(name, op, recovered, crc32(&replayed));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    flush_report();
}

#[test]
fn every_append_fault_point_recovers_to_durable_prefix() {
    let seed = seed();
    let (full_log, cum) = oracle_log(seed);
    let kinds: [(&'static str, FaultKind); 3] = [
        ("corrupt-tail-byte", FaultKind::CorruptTailByte),
        (
            "truncate-tail",
            FaultKind::TruncateTail {
                bytes: 1 + seed % 9,
            },
        ),
        ("drop-fsync", FaultKind::DropFsync),
    ];
    for (name, kind) in kinds {
        for op in 1..=STEPS {
            let ctx = format!("fault {name} at record {op} (seed {seed})");
            let dir = temp_dir(name);
            let plan =
                FaultPlan::new().with(FaultSpec::at_ops(FaultPoint::SegmentAppend, kind, &[op]));
            let mut db = disk_db(&dir);
            db.set_fault_injector(plan.injector(seed), "wal");
            // Silent faults report success to the writer — every step
            // completes; the damage exists only on disk.
            for step in 1..=STEPS {
                apply_step(&mut db, step, seed);
            }
            assert_eq!(db.binlog_position().seqno, STEPS, "{ctx}: pre-crash head");
            drop(db); // crash

            let db = reopen(&dir);
            // The faulted record and everything after it is gone; the
            // durable prefix ends exactly one record before the damage.
            let recovered = db.binlog_position().seqno;
            assert_eq!(recovered, op - 1, "{ctx}: durable prefix length");

            // Prefix integrity: byte- and checksum-identical to the
            // pre-crash log up to the last durable record. A torn record
            // must never be resurrected.
            let replayed = db
                .binlog_export(LogPosition::START)
                .expect("export recovered log");
            let want = &full_log[..cum[recovered as usize]];
            assert_eq!(replayed, want, "{ctx}: recovered prefix bytes");
            assert_eq!(crc32(&replayed), crc32(want), "{ctx}: prefix checksum");

            // Differential oracle on the recovered store.
            assert_matches_oracle(&db, recovered, seed, &ctx);

            // Liveness: the reopened database accepts new writes.
            let mut db = db;
            if recovered >= 2 {
                db.insert(
                    "s",
                    "t",
                    vec![vec![Value::Int(999), Value::Str("post-crash".into())]],
                )
                .expect("post-recovery insert");
            } else {
                db.create_schema("post_crash").expect("post-recovery DDL");
            }
            record_case(name, op, recovered, crc32(&replayed));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    flush_report();
}

#[test]
fn every_snapshot_fault_point_falls_back_without_data_loss() {
    let seed = seed();
    let kinds: [(&'static str, FaultKind, bool); 4] = [
        ("snap-corrupt", FaultKind::CorruptTailByte, false),
        ("snap-truncate", FaultKind::TruncateTail { bytes: 5 }, false),
        ("snap-drop-fsync", FaultKind::DropFsync, false),
        ("snap-transient", FaultKind::Transient, true),
    ];
    for (name, kind, loud) in kinds {
        let ctx = format!("snapshot fault {name} (seed {seed})");
        let dir = temp_dir(name);
        // The *second* snapshot is damaged; the first must carry recovery.
        let plan = FaultPlan::new().with(FaultSpec::at_ops(FaultPoint::SnapshotWrite, kind, &[2]));
        let mut db = disk_db(&dir);
        db.set_fault_injector(plan.injector(seed), "wal");
        for step in 1..=8 {
            apply_step(&mut db, step, seed);
        }
        db.snapshot_now().expect("first snapshot");
        for step in 9..=12 {
            apply_step(&mut db, step, seed);
        }
        let second = db.snapshot_now();
        if loud {
            second.expect_err("transient snapshot fault fails loudly");
        } else {
            // Silent damage: the writer believes the snapshot landed.
            second.expect("silently damaged snapshot");
        }
        for step in 13..=STEPS {
            apply_step(&mut db, step, seed);
        }
        drop(db); // crash

        let db = reopen(&dir);
        // Nothing was lost: appends were never damaged, so recovery
        // (previous snapshot + segment tail) reaches the full head.
        assert_eq!(db.binlog_position().seqno, STEPS, "{ctx}: recovered head");
        assert_matches_oracle(&db, STEPS, seed, &ctx);

        // The surviving log tail past the recovery base matches the
        // oracle's frames over the same range.
        let base = LogPosition {
            epoch: 0,
            seqno: db.compaction_horizon(),
        };
        let replayed = db.binlog_export(base).expect("export tail");
        let oracle = oracle_at(STEPS, seed);
        let want = oracle.binlog_export(base).expect("oracle tail");
        assert_eq!(replayed, want, "{ctx}: tail bytes");
        assert_eq!(crc32(&replayed), crc32(&want), "{ctx}: tail checksum");

        // Snapshots still work after recovering past a damaged one.
        let mut db = db;
        apply_step(&mut db, STEPS + 1, seed);
        db.snapshot_now().expect("post-recovery snapshot");
        record_case(name, 2, STEPS, crc32(&replayed));
        let _ = std::fs::remove_dir_all(&dir);
    }
    flush_report();
}

#[test]
fn repeated_crashes_converge_to_a_stable_store() {
    // Crash → recover → write → crash again, several times over one
    // directory: each recovery must build on the previous repair without
    // compounding loss.
    let seed = seed();
    let dir = temp_dir("repeat");
    let mut expected_rows = 0u64;
    for round in 0..4u64 {
        // Tear the round's LAST append (a torn record strands everything
        // after it, so only the final tear loses exactly one record). The
        // injector is attached after round 0's DDL, so in every round the
        // third append it sees is the third insert.
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::SegmentAppend,
            FaultKind::TruncateTail { bytes: 4 },
            &[3],
        ));
        let mut db = reopen(&dir);
        if round == 0 {
            db.create_schema("s").expect("schema");
            db.create_table("s", table_def()).expect("table");
        }
        db.set_fault_injector(plan.injector(seed + round), "wal");
        for i in 0..3u64 {
            db.insert(
                "s",
                "t",
                vec![vec![
                    Value::Int((round * 10 + i) as i64),
                    Value::Str(format!("r{round}-{i}")),
                ]],
            )
            .expect("insert");
        }
        // Two of the three inserts survive each round; the third is torn.
        expected_rows += 2;
        drop(db); // crash
        let db = reopen(&dir);
        assert_eq!(
            db.table("s", "t").expect("table survives").len() as u64,
            expected_rows,
            "round {round}: exactly the durable inserts survive"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn append_fault_matrix_holds_with_paging_enabled() {
    // The same kill-at-every-append matrix, but with cold-shard paging on
    // at a one-byte budget: every table page lives in a spill file (not
    // RAM) at crash time. Paging must be invisible to durability — the
    // binlog is written ahead of any page mutation, spill files are
    // rederivable caches, and recovery plus re-enabling paging must land
    // on the exact oracle state.
    use xdmod_warehouse::PagingConfig;
    let seed = seed();
    let (full_log, cum) = oracle_log(seed);
    let kinds: [(&'static str, FaultKind); 3] = [
        ("paged-corrupt-tail-byte", FaultKind::CorruptTailByte),
        (
            "paged-truncate-tail",
            FaultKind::TruncateTail {
                bytes: 1 + seed % 9,
            },
        ),
        ("paged-drop-fsync", FaultKind::DropFsync),
    ];
    for (name, kind) in kinds {
        for op in 1..=STEPS {
            let ctx = format!("fault {name} at record {op} (seed {seed}, paging on)");
            let dir = temp_dir(name);
            let paging = || {
                PagingConfig::new(dir.join("paging"))
                    .budget_bytes(1)
                    .pages_per_table(4)
            };
            let plan =
                FaultPlan::new().with(FaultSpec::at_ops(FaultPoint::SegmentAppend, kind, &[op]));
            let mut db = disk_db(&dir);
            db.enable_paging(paging()).expect("paging enables");
            db.set_fault_injector(plan.injector(seed), "wal");
            for step in 1..=STEPS {
                apply_step(&mut db, step, seed);
            }
            assert_eq!(db.binlog_position().seqno, STEPS, "{ctx}: pre-crash head");
            drop(db); // crash

            let mut db = reopen(&dir);
            let recovered = db.binlog_position().seqno;
            assert_eq!(recovered, op - 1, "{ctx}: durable prefix length");
            let replayed = db
                .binlog_export(LogPosition::START)
                .expect("export recovered log");
            let want = &full_log[..cum[recovered as usize]];
            assert_eq!(replayed, want, "{ctx}: recovered prefix bytes");
            assert_matches_oracle(&db, recovered, seed, &ctx);

            // Re-enabling paging over the recovered store (with the
            // crash's stale spill files still on disk) must not change
            // its content.
            db.enable_paging(paging()).expect("paging re-enables");
            assert_matches_oracle(&db, recovered, seed, &format!("{ctx}, re-paged"));
            if recovered >= 2 {
                db.insert(
                    "s",
                    "t",
                    vec![vec![Value::Int(999), Value::Str("post-crash".into())]],
                )
                .expect("post-recovery insert on the paged store");
            }
            record_case(name, op, recovered, crc32(&replayed));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    flush_report();
}
