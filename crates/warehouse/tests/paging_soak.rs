//! Seeded paging soak: eviction storms and spill-file chaos.
//!
//! Two scenarios drive the cold-shard paging engine well past its
//! working-set budget:
//!
//! 1. **Eviction storm** — a seeded interleaving of inserts and queries
//!    against a pathologically small budget, checked after *every*
//!    operation: resident bytes never exceed the budget at an operation
//!    boundary, every query result is byte-identical to an unpaged twin
//!    database fed the same rows, and the fault-in/eviction counters
//!    actually moved.
//! 2. **Spill chaos** — silent spill-file damage (bit flips, torn
//!    writes, dropped fsyncs) and loud transient I/O injected at seeded
//!    spill reads and writes. Damage must surface as
//!    [`WarehouseError::SpillLost`] or a retriable I/O error — never as
//!    wrong rows — and [`Database::repair_paging`] must rebuild the
//!    exact pre-damage state from the write-ahead log.
//!
//! 3. **Cold build** — [`Database::query`] over a paged table builds its
//!    retained partials page by page: within the budget at the
//!    boundary, never holding a copy of the table, byte-identical to the
//!    unpaged twin; the repeat after ingest folds the binlog delta and
//!    touches no page at all.
//!
//! The run is parameterized by `CHAOS_SEED` and, when
//! `PAGING_SOAK_REPORT` names a path, writes a JSON report of every
//! case (same shape as the crash-recovery soak) for CI to archive.

#[path = "support/largest_alloc.rs"]
mod largest_alloc;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use xdmod_chaos::{DeterministicRng, FaultKind, FaultPlan, FaultPoint, FaultSpec};
use xdmod_telemetry::MetricsRegistry;
use xdmod_warehouse::{
    run_sharded, AggFn, Aggregate, ColumnType, Database, DiskBackend, DiskOptions, PagingConfig,
    Period, Query, ResultSet, Row, SchemaBuilder, TableSchema, Value, WarehouseError,
};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xdmod-pagingsoak-{}-{tag}-{n}", std::process::id()))
}

fn seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn fact() -> TableSchema {
    SchemaBuilder::new("jobfact")
        .required("resource", ColumnType::Str)
        .required("end_time", ColumnType::Time)
        .required("cpu_hours", ColumnType::Float)
        .build()
        .expect("static schema literal is valid")
}

/// A seeded batch of job rows spread over ~45 day buckets so every page
/// of the table sees traffic. `cpu_hours` values are dyadic rationals,
/// so float sums are exact and twin comparisons are byte-strict.
fn random_batch(rng: &mut DeterministicRng, max_rows: u64) -> Vec<Row> {
    let n = rng.gen_range(1, max_rows + 1);
    (0..n)
        .map(|_| {
            vec![
                Value::Str(format!("res-{}", rng.gen_range(0, 5))),
                Value::Time(86_400 * rng.gen_range(0, 45) as i64),
                Value::Float(rng.gen_range(0, 4096) as f64 / 8.0),
            ]
        })
        .collect()
}

/// Full-table scan: groups every page's rows by resource.
fn by_resource() -> Query {
    Query::new()
        .group_by_column("resource")
        .aggregate(Aggregate::count("n"))
        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"))
}

fn by_day() -> Query {
    Query::new()
        .group_by_period("end_time", Period::Day)
        .aggregate(Aggregate::count("n"))
        .aggregate(Aggregate::of(AggFn::Max, "cpu_hours", "peak"))
}

/// A stateless scan of the whole fact table — every page pinned and
/// faulted in, nothing retained — so the soak keeps crossing the spill
/// machinery however often it asks the same question.
/// ([`Database::query`] would answer repeats from retained partials.)
fn scan(db: &Database, query: &Query) -> Result<ResultSet, WarehouseError> {
    let table = db.table("s", "jobfact")?;
    run_sharded(query, table, db.parallelism(), db.telemetry(), "jobfact")
}

struct CaseReport {
    scenario: &'static str,
    fault: String,
    op: u64,
    outcome: String,
}

static REPORT: Mutex<Vec<CaseReport>> = Mutex::new(Vec::new());

fn record_case(scenario: &'static str, fault: impl Into<String>, op: u64, outcome: String) {
    REPORT.lock().expect("report lock").push(CaseReport {
        scenario,
        fault: fault.into(),
        op,
        outcome,
    });
}

/// Serialize the accumulated cases to `PAGING_SOAK_REPORT` when set (the
/// CI soak job archives it). Called from each scenario; the file
/// converges to the union of whatever ran.
fn flush_report() {
    let Ok(path) = std::env::var("PAGING_SOAK_REPORT") else {
        return;
    };
    let report = REPORT.lock().expect("report lock");
    let cases: Vec<String> = report
        .iter()
        .map(|c| {
            format!(
                r#"{{"scenario":"{}","fault":"{}","op":{},"outcome":"{}"}}"#,
                c.scenario, c.fault, c.op, c.outcome
            )
        })
        .collect();
    let doc = format!(
        r#"{{"seed":{},"cases":[{}],"total":{}}}"#,
        seed(),
        cases.join(","),
        report.len(),
    );
    let _ = std::fs::write(&path, doc);
}

#[test]
fn eviction_storm_stays_within_budget_and_serves_exact_results() {
    const BUDGET: u64 = 2048;
    const OPS: u64 = 90;
    let seed = seed();
    let mut rng = DeterministicRng::new(seed);
    let dir = temp_dir("storm");
    let reg = MetricsRegistry::new();

    let mut paged = Database::new();
    paged.set_telemetry(reg.clone());
    paged
        .enable_paging(
            PagingConfig::new(&dir)
                .budget_bytes(BUDGET)
                .pages_per_table(8),
        )
        .expect("enable paging");
    let mut twin = Database::new();
    for db in [&mut paged, &mut twin] {
        db.create_schema("s").expect("create schema");
        db.create_table("s", fact()).expect("create table");
    }

    let mut inserted = 0u64;
    for op in 1..=OPS {
        if inserted == 0 || rng.gen_range(0, 10) < 6 {
            let batch = random_batch(&mut rng, 8);
            inserted += batch.len() as u64;
            paged.insert("s", "jobfact", batch.clone()).expect("insert");
            twin.insert("s", "jobfact", batch).expect("twin insert");
        } else {
            let query = if rng.gen_range(0, 2) == 0 {
                by_resource()
            } else {
                by_day()
            };
            let got = scan(&paged, &query).expect("paged query");
            let want = scan(&twin, &query).expect("twin query");
            assert_eq!(got, want, "op {op} (seed {seed}): paged result diverged");
        }
        let stats = paged.residency_stats().expect("paging is on");
        assert!(
            stats.resident_bytes <= BUDGET,
            "op {op} (seed {seed}): {} resident bytes exceed the {BUDGET}-byte budget ({stats:?})",
            stats.resident_bytes,
        );
    }

    let stats = paged.residency_stats().expect("paging is on");
    assert!(stats.evictions > 0, "storm never evicted: {stats:?}");
    assert!(stats.fault_ins > 0, "storm never faulted in: {stats:?}");
    assert!(stats.spill_writes > 0, "storm never spilled: {stats:?}");
    assert_eq!(
        stats.lost_pages, 0,
        "no faults injected, no page may be lost"
    );
    let snap = reg.snapshot();
    assert!(snap.counter_total("warehouse_page_evictions_total") > 0);
    assert!(snap.counter_total("warehouse_page_faultins_total") > 0);
    assert!(snap.counter_total("warehouse_page_pins_total") > 0);

    let got = paged.table("s", "jobfact").expect("paged table");
    let want = twin.table("s", "jobfact").expect("twin table");
    assert_eq!(got.len(), want.len(), "row count parity");
    assert_eq!(
        got.content_checksum(),
        want.content_checksum(),
        "checksum parity after the storm"
    );

    record_case(
        "eviction-storm",
        "none",
        OPS,
        format!(
            "resident<= {BUDGET}B every op; {} evictions; {} fault-ins; {} rows",
            stats.evictions, stats.fault_ins, inserted
        ),
    );
    flush_report();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_chaos_surfaces_loudly_and_repairs_from_the_log() {
    let seed = seed();
    let mut rng = DeterministicRng::new(seed ^ 0xD1CE_5EED);
    let dir = temp_dir("chaos");
    let opts = DiskOptions::new(&dir).fsync(false).segment_max_bytes(256);
    let mut paged =
        Database::open(Box::new(DiskBackend::open(opts).expect("open backend"))).expect("open db");
    paged
        .enable_paging(
            PagingConfig::new(dir.join("paging"))
                .budget_bytes(1)
                .pages_per_table(6),
        )
        .expect("enable paging");
    let mut twin = Database::new();
    for db in [&mut paged, &mut twin] {
        db.create_schema("s").expect("create schema");
        db.create_table("s", fact()).expect("create table");
    }

    // Phase 1 guarantees >= 30 spill-write consultations (budget 1 spills
    // every insert), so every seeded write fault below actually fires.
    let plan = FaultPlan::new()
        .with(FaultSpec::at_ops(
            FaultPoint::SpillWrite,
            FaultKind::CorruptTailByte,
            &[2, 9, 17],
        ))
        .with(FaultSpec::at_ops(
            FaultPoint::SpillWrite,
            FaultKind::TruncateTail {
                bytes: 1 + seed % 5,
            },
            &[5, 23],
        ))
        .with(FaultSpec::at_ops(
            FaultPoint::SpillWrite,
            FaultKind::DropFsync,
            &[12, 27],
        ))
        .with(FaultSpec::at_ops(
            FaultPoint::SpillWrite,
            FaultKind::Transient,
            &[7, 19],
        ))
        .with(FaultSpec::at_ops(
            FaultPoint::SpillRead,
            FaultKind::Transient,
            &[3, 11],
        ))
        .with(FaultSpec::at_ops(
            FaultPoint::SpillRead,
            FaultKind::CorruptTailByte,
            &[6],
        ));
    paged.set_fault_injector(plan.injector(seed), "paging");

    for _ in 1..=30 {
        let batch = random_batch(&mut rng, 6);
        paged.insert("s", "jobfact", batch.clone()).expect("insert");
        twin.insert("s", "jobfact", batch).expect("twin insert");
    }

    // Phase 2: queries race the damaged spill files. A query either
    // returns the exact twin result, fails loudly with a retriable
    // injected I/O error, or declares a page lost — wrong rows never.
    let mut lost_seen = 0u64;
    let mut transient_seen = 0u64;
    for op in 1..=24u64 {
        if rng.gen_range(0, 3) == 0 {
            let batch = random_batch(&mut rng, 6);
            paged.insert("s", "jobfact", batch.clone()).expect("insert");
            twin.insert("s", "jobfact", batch).expect("twin insert");
            continue;
        }
        let query = if rng.gen_range(0, 2) == 0 {
            by_resource()
        } else {
            by_day()
        };
        match scan(&paged, &query) {
            Ok(got) => {
                let want = scan(&twin, &query).expect("twin query");
                assert_eq!(
                    got, want,
                    "op {op} (seed {seed}): damaged store served wrong rows"
                );
            }
            Err(WarehouseError::SpillLost { table, page }) => {
                lost_seen += 1;
                record_case(
                    "spill-chaos",
                    "spill-lost",
                    op,
                    format!("query refused: {table} page {page} lost"),
                );
            }
            Err(WarehouseError::Io(msg)) => {
                assert!(
                    msg.contains("injected"),
                    "op {op} (seed {seed}): unexpected I/O error: {msg}"
                );
                transient_seen += 1;
                record_case(
                    "spill-chaos",
                    "transient-io",
                    op,
                    "query failed retriably".into(),
                );
            }
            Err(other) => panic!("op {op} (seed {seed}): unexpected error class: {other}"),
        }
    }
    paged.clear_fault_injector();

    // The bit flip at write consultation 2 corrupted a real spill file,
    // and nothing short of a WAL rebuild may heal it — a full scan must
    // refuse with SpillLost rather than serve damaged bytes.
    let pre_repair = scan(&paged, &by_resource());
    assert!(
        matches!(pre_repair, Err(WarehouseError::SpillLost { .. })),
        "seed {seed}: injected corruption must surface as SpillLost, got {pre_repair:?}"
    );

    paged.repair_paging().expect("repair rebuilds from the log");
    assert!(!paged.has_lost_pages(), "repair left lost pages behind");
    assert!(
        paged.residency_stats().is_some(),
        "repair must re-enable paging"
    );
    for query in [by_resource(), by_day()] {
        let got = scan(&paged, &query).expect("post-repair query");
        let want = scan(&twin, &query).expect("twin query");
        assert_eq!(got, want, "seed {seed}: post-repair result diverged");
    }
    let got = paged.table("s", "jobfact").expect("paged table");
    let want = twin.table("s", "jobfact").expect("twin table");
    assert_eq!(got.len(), want.len(), "post-repair row count parity");
    assert_eq!(
        got.content_checksum(),
        want.content_checksum(),
        "post-repair checksum parity"
    );
    let stats = paged.residency_stats().expect("paging is on");
    assert_eq!(stats.lost_pages, 0, "post-repair stats still count losses");

    record_case(
        "spill-chaos",
        "all-clear",
        0,
        format!(
            "repaired from WAL after {lost_seen} lost + {transient_seen} transient observations"
        ),
    );
    flush_report();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_build_of_a_paged_table_stays_within_budget_and_one_pinned_page() {
    const BUDGET: u64 = 2048;
    const PAGES: u32 = 16;
    let seed = seed();
    let mut rng = DeterministicRng::new(seed ^ 0xC01D_B01D);
    let dir = temp_dir("cold");

    let mut paged = Database::new();
    paged
        .enable_paging(
            PagingConfig::new(&dir)
                .budget_bytes(BUDGET)
                .pages_per_table(PAGES),
        )
        .expect("enable paging");
    let mut twin = Database::new();
    for db in [&mut paged, &mut twin] {
        db.create_schema("s").expect("create schema");
        db.create_table("s", fact()).expect("create table");
    }
    let mut rows = 0usize;
    while rows < 4_000 {
        let batch = random_batch(&mut rng, 64);
        rows += batch.len();
        paged.insert("s", "jobfact", batch.clone()).expect("insert");
        twin.insert("s", "jobfact", batch).expect("twin insert");
    }
    let before = paged.residency_stats().expect("paging is on");
    assert!(before.spilled_pages > 0, "nothing spilled: {before:?}");

    for query in [by_resource(), by_day()] {
        let (got, largest) = largest_alloc::largest_during(|| paged.query("s", "jobfact", &query));
        let got = got.expect("cold build");
        assert_eq!(
            got,
            twin.query("s", "jobfact", &query).expect("twin query"),
            "seed {seed}: paged cold build diverged from the unpaged twin"
        );
        let stats = paged.residency_stats().expect("paging is on");
        assert!(
            stats.resident_bytes <= BUDGET,
            "seed {seed}: {} resident bytes after the cold build ({stats:?})",
            stats.resident_bytes,
        );
        // Copying the table out (what `Table::rows` does for a paged
        // table) is one allocation of a sequence-tagged row per row. The
        // page-by-page fold's largest is one page faulted in.
        let copy = rows * std::mem::size_of::<(u64, Row)>();
        assert!(
            largest < copy / 2,
            "seed {seed}: the cold build allocated {largest} bytes at once; \
             a copy of the {rows}-row table is {copy}"
        );
    }
    let cold = paged.residency_stats().expect("paging is on");
    assert!(
        cold.fault_ins > before.fault_ins,
        "cold builds read no page"
    );

    // After ingest the repeat folds the binlog's delta: no page is read.
    let batch = random_batch(&mut rng, 64);
    paged.insert("s", "jobfact", batch.clone()).expect("insert");
    twin.insert("s", "jobfact", batch.clone())
        .expect("twin insert");
    let (got, report) = paged
        .query_reported("s", "jobfact", &by_resource(), "jobfact")
        .expect("delta fold");
    assert!(report.is_incremental(), "seed {seed}: {:?}", report.outcome);
    assert_eq!(report.rows_folded, batch.len());
    assert_eq!(got, scan(&twin, &by_resource()).expect("twin scan"));
    let after = paged.residency_stats().expect("paging is on");
    assert_eq!(
        after.fault_ins, cold.fault_ins,
        "a delta fold faulted a page in"
    );
    assert!(after.resident_bytes <= BUDGET);

    record_case(
        "cold-build",
        "none",
        0,
        format!(
            "{rows} rows; resident<= {BUDGET}B after each build; {} fault-ins; delta fold read no page",
            cold.fault_ins - before.fault_ins
        ),
    );
    flush_report();
    let _ = std::fs::remove_dir_all(&dir);
}
