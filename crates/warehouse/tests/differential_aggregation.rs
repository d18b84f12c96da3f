//! Differential-testing oracle for the partitioned parallel aggregation
//! engine.
//!
//! Every seed drives five evaluators over the same randomly generated
//! fact table and query:
//!
//! 1. the sharded engine with a multi-worker pool (`run_sharded`),
//! 2. the sharded engine forced serial (`PoolConfig::serial()`),
//! 3. the serial fold (`Query::run`),
//! 4. a brute-force `BTreeMap` recompute written against the *spec* of
//!    the query, sharing no code with the engine,
//! 5. the per-schema merge: the rows split in order across 1–4 schemas
//!    of one `Database`, each schema's retained partials
//!    (`Database::partials`) merged by `ShardedPartials::finish_all` —
//!    the federation hub's answer over its satellites — built cold and
//!    then served again as hits.
//!
//! All five must agree byte-for-byte. Generated values are dyadic
//! rationals (`n / 64.0`), so float sums are exact regardless of the
//! order partials merge in — any divergence is a real bug, not float
//! noise. On mismatch the harness greedily shrinks the table to a
//! minimal reproducing row set and panics with a replayable report.
//!
//! A further arm proves **incremental aggregation**: ingest-heavy seeded
//! schedules drive `Database::query_reported` batch by batch, and after
//! every batch the delta-folded answer must be byte-identical to a full
//! stateless recompute (`run_sharded` over the live table) and
//! semantically equal to the brute-force oracle —
//! while the engine stays on the incremental path (any silent fallback
//! is itself a failure). Divergences shrink to a minimal reproducing
//! *ingest schedule*. When `INCR_ORACLE_REPORT` names a path, the sweep
//! writes a JSON report (including any shrunk reproducer) there for the
//! CI artifact.
//!
//! Run one seed with `DIFF_SEED=<n> cargo test -p xdmod-warehouse --test
//! differential_aggregation`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier, Mutex};

use xdmod_chaos::DeterministicRng;
use xdmod_telemetry::MetricsRegistry;
use xdmod_warehouse::{
    run_sharded, shared, AggFn, Aggregate, CacheKey, CivilDate, ColumnType, Database, DeltaOutcome,
    DiskBackend, DiskOptions, FallbackReason, GroupKey, Period, PoolConfig, Predicate, Query,
    ResultSet, Row, SchemaBuilder, ShardedPartials, Table, Value,
};

/// Seeds swept by default; `DIFF_SEED` narrows the run to one seed.
const SEED_COUNT: u64 = 24;

/// Queries generated per seed.
const QUERIES_PER_SEED: usize = 6;

fn base_epoch() -> i64 {
    CivilDate::new(2017, 1, 1).to_epoch()
}

// ---------------------------------------------------------------------------
// Random workload generation
// ---------------------------------------------------------------------------

fn fact_schema() -> xdmod_warehouse::TableSchema {
    SchemaBuilder::new("fact")
        .required("resource", ColumnType::Str)
        .required("queue", ColumnType::Str)
        .nullable("cpu_hours", ColumnType::Float)
        .required("cores", ColumnType::Int)
        .nullable("end_time", ColumnType::Time)
        .build()
        .expect("oracle fact schema builds")
}

fn random_row(rng: &mut DeterministicRng) -> Row {
    let cpu = if rng.gen_range(0, 10) == 0 {
        Value::Null
    } else {
        // Dyadic: exact under f64 addition in any order.
        Value::Float(rng.gen_range(0, 4096) as f64 / 64.0)
    };
    let end = if rng.gen_range(0, 12) == 0 {
        Value::Null
    } else {
        Value::Time(
            base_epoch() + rng.gen_range(0, 120) as i64 * 86_400 + rng.gen_range(0, 86_400) as i64,
        )
    };
    vec![
        Value::Str(format!("res-{}", rng.gen_range(0, 4))),
        Value::Str(format!("q{}", rng.gen_range(0, 3))),
        cpu,
        Value::Int(rng.gen_range(1, 65) as i64),
        end,
    ]
}

fn random_table(rng: &mut DeterministicRng) -> Table {
    let mut table = Table::new(fact_schema());
    let n = rng.gen_range(0, 400) as usize;
    let rows = (0..n).map(|_| random_row(rng)).collect();
    table.insert_batch(rows).expect("generated rows fit schema");
    table
}

/// The aggregate functions the brute-force oracle reimplements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fun {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    CountDistinct,
}

/// A query described declaratively, so the brute-force evaluator can
/// interpret it without touching the engine's plan types.
#[derive(Clone, Debug)]
struct Spec {
    filters: Vec<Predicate>,
    group: Vec<GroupKey>,
    aggs: Vec<(Fun, Option<&'static str>)>,
}

impl Spec {
    fn random(rng: &mut DeterministicRng) -> Self {
        let mut group = Vec::new();
        if rng.gen_range(0, 2) == 1 {
            group.push(GroupKey::Column("resource".to_owned()));
        }
        if rng.gen_range(0, 3) == 0 {
            group.push(GroupKey::Column("queue".to_owned()));
        }
        if rng.gen_range(0, 2) == 1 {
            let period = match rng.gen_range(0, 3) {
                0 => Period::Day,
                1 => Period::Month,
                _ => Period::Quarter,
            };
            group.push(GroupKey::PeriodOf("end_time".to_owned(), period));
        }

        let mut filters = Vec::new();
        if rng.gen_range(0, 3) == 0 {
            filters.push(Predicate::Eq(
                "resource".to_owned(),
                Value::Str(format!("res-{}", rng.gen_range(0, 4))),
            ));
        }
        if rng.gen_range(0, 3) == 0 {
            let start = base_epoch() + rng.gen_range(0, 60) as i64 * 86_400;
            filters.push(Predicate::TimeRange {
                column: "end_time".to_owned(),
                start,
                end: start + rng.gen_range(1, 90) as i64 * 86_400,
            });
        }

        let mut aggs: Vec<(Fun, Option<&'static str>)> = vec![(Fun::Count, None)];
        for _ in 0..rng.gen_range(1, 4) {
            let fun = match rng.gen_range(0, 5) {
                0 => Fun::Sum,
                1 => Fun::Avg,
                2 => Fun::Min,
                3 => Fun::Max,
                _ => Fun::CountDistinct,
            };
            let col = if rng.gen_range(0, 4) == 0 {
                "cores"
            } else {
                "cpu_hours"
            };
            aggs.push((fun, Some(col)));
        }
        Spec {
            filters,
            group,
            aggs,
        }
    }

    fn query(&self) -> Query {
        let mut q = Query::new();
        for f in &self.filters {
            q = q.filter(f.clone());
        }
        for g in &self.group {
            q = q.group(g.clone());
        }
        for (i, (fun, col)) in self.aggs.iter().enumerate() {
            let alias = format!("a{i}");
            q = q.aggregate(match (fun, col) {
                (Fun::Count, _) => Aggregate::count(&alias),
                (Fun::Sum, Some(c)) => Aggregate::of(AggFn::Sum, c, &alias),
                (Fun::Avg, Some(c)) => Aggregate::of(AggFn::Avg, c, &alias),
                (Fun::Min, Some(c)) => Aggregate::of(AggFn::Min, c, &alias),
                (Fun::Max, Some(c)) => Aggregate::of(AggFn::Max, c, &alias),
                (Fun::CountDistinct, Some(c)) => Aggregate::of(AggFn::CountDistinct, c, &alias),
                _ => unreachable!("non-count aggregates always carry a column"),
            });
        }
        q
    }
}

// ---------------------------------------------------------------------------
// Brute-force evaluator (the independent oracle)
// ---------------------------------------------------------------------------

/// Straight-line reimplementation of grouped aggregation over raw rows.
/// Shares nothing with `AggPlan`: its own filter matching, its own key
/// extraction, its own accumulators over a `BTreeMap`.
fn brute_force(table: &Table, spec: &Spec) -> Vec<Row> {
    let schema = table.schema();
    let idx = |name: &str| {
        schema
            .column_index(name)
            .expect("oracle columns exist in the fact schema")
    };

    let passes = |row: &Row| {
        spec.filters.iter().all(|f| match f {
            Predicate::Eq(c, want) => &row[idx(c)] == want,
            Predicate::TimeRange { column, start, end } => match row[idx(column)].as_i64() {
                Some(t) => t >= *start && t < *end,
                None => false,
            },
            other => unreachable!("oracle never generates {other:?}"),
        })
    };

    let key_of = |row: &Row| -> Vec<Value> {
        spec.group
            .iter()
            .map(|g| match g {
                GroupKey::Column(c) => row[idx(c)].clone(),
                GroupKey::PeriodOf(c, period) => match row[idx(c)].as_i64() {
                    Some(t) => Value::Int(period.bucket_of(t)),
                    None => Value::Null,
                },
                other => unreachable!("oracle never generates {other:?}"),
            })
            .collect()
    };

    #[derive(Default)]
    struct Acc {
        count: i64,
        sum: f64,
        n: u64,
        min: Option<f64>,
        max: Option<f64>,
        distinct: BTreeSet<String>,
    }

    let mut groups: BTreeMap<Vec<Value>, Vec<Acc>> = BTreeMap::new();
    if spec.group.is_empty() {
        // An ungrouped query always yields exactly one row, even over an
        // empty input — mirror that.
        groups.insert(
            Vec::new(),
            spec.aggs.iter().map(|_| Acc::default()).collect(),
        );
    }
    for row in table.rows().expect("oracle table rows readable").iter() {
        if !passes(row) {
            continue;
        }
        let accs = groups
            .entry(key_of(row))
            .or_insert_with(|| spec.aggs.iter().map(|_| Acc::default()).collect());
        for (acc, (fun, col)) in accs.iter_mut().zip(&spec.aggs) {
            match fun {
                Fun::Count => acc.count += 1,
                _ => {
                    let v = &row[idx(col.expect("non-count carries a column"))];
                    if *fun == Fun::CountDistinct {
                        if !matches!(v, Value::Null) {
                            acc.distinct.insert(format!("{v:?}"));
                        }
                        continue;
                    }
                    if let Some(x) = v.as_f64() {
                        acc.sum += x;
                        acc.n += 1;
                        acc.min = Some(acc.min.map_or(x, |m| m.min(x)));
                        acc.max = Some(acc.max.map_or(x, |m| m.max(x)));
                    }
                }
            }
        }
    }

    groups
        .into_iter()
        .map(|(key, accs)| {
            let mut row = key;
            for (acc, (fun, _)) in accs.iter().zip(&spec.aggs) {
                row.push(match fun {
                    Fun::Count => Value::Int(acc.count),
                    Fun::Sum => Value::Float(acc.sum),
                    Fun::Avg => match acc.n {
                        0 => Value::Null,
                        n => Value::Float(acc.sum / n as f64),
                    },
                    Fun::Min => acc.min.map_or(Value::Null, Value::Float),
                    Fun::Max => acc.max.map_or(Value::Null, Value::Float),
                    Fun::CountDistinct => Value::Int(acc.distinct.len() as i64),
                });
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The oracle proper, with greedy shrinking on mismatch
// ---------------------------------------------------------------------------

fn pools() -> [PoolConfig; 4] {
    [
        PoolConfig::serial(),
        PoolConfig::new(2).with_shards(5),
        PoolConfig::new(8).with_shards(8),
        PoolConfig::new(3).with_shards(16),
    ]
}

/// Evaluate every engine over `rows` and report the first divergence, or
/// `None` when all agree. This is both the oracle check and the
/// shrinking predicate.
fn divergence(rows: &[Row], spec: &Spec) -> Option<String> {
    let mut table = Table::new(fact_schema());
    table
        .insert_batch(rows.to_vec())
        .expect("shrunk rows still fit the schema");
    let query = spec.query();
    let quiet = MetricsRegistry::disabled();

    let reference = match query.run(&table) {
        Ok(rs) => rs,
        Err(e) => return Some(format!("Query::run errored: {e}")),
    };
    for pool in pools() {
        match run_sharded(&query, &table, pool, &quiet, "fact") {
            Ok(got) if got == reference => {}
            Ok(got) => {
                return Some(format!(
                    "run_sharded(workers={}, shards={}) diverged from Query::run\n  sharded:   {:?}\n  reference: {:?}",
                    pool.workers(),
                    pool.shards(),
                    got.rows,
                    reference.rows
                ))
            }
            Err(e) => {
                return Some(format!(
                    "run_sharded(workers={}, shards={}) errored: {e}",
                    pool.workers(),
                    pool.shards()
                ))
            }
        }
        for schemas in 1..=4 {
            match merged_across_schemas(rows, schemas, pool, &query) {
                Ok(got) if got == reference => {}
                Ok(got) => {
                    return Some(format!(
                        "merge over {schemas} schema(s) (workers={}, shards={}) diverged from Query::run\n  merged:    {:?}\n  reference: {:?}",
                        pool.workers(),
                        pool.shards(),
                        got.rows,
                        reference.rows
                    ))
                }
                Err(e) => return Some(format!("merge over {schemas} schema(s) errored: {e}")),
            }
        }
    }
    let brute = brute_force(&table, spec);
    if reference.rows != brute {
        return Some(format!(
            "engine diverged from brute-force oracle\n  engine: {:?}\n  brute:  {:?}",
            reference.rows, brute
        ));
    }
    None
}

/// Evaluator 5: `rows` split in order into `schemas` contiguous runs, one
/// per schema of one `Database` under `pool`, and answered by merging
/// each schema's retained partials — twice, so the second answer is
/// served from hits. Both answers must agree.
fn merged_across_schemas(
    rows: &[Row],
    schemas: usize,
    pool: PoolConfig,
    query: &Query,
) -> Result<ResultSet, String> {
    let mut db = Database::new();
    db.set_parallelism(pool);
    let names: Vec<String> = (0..schemas).map(|i| format!("s{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let run = rows[i * rows.len() / schemas..(i + 1) * rows.len() / schemas].to_vec();
        db.create_schema(name).map_err(|e| e.to_string())?;
        db.create_table(name, fact_schema())
            .map_err(|e| e.to_string())?;
        if !run.is_empty() {
            db.insert(name, "fact", run).map_err(|e| e.to_string())?;
        }
    }
    let answer = || {
        let parts = names
            .iter()
            .map(|name| db.partials(name, "fact", query))
            .collect::<xdmod_warehouse::Result<Vec<_>>>()?;
        ShardedPartials::finish_all(parts, query, &fact_schema())
    };
    let cold = answer().map_err(|e| e.to_string())?;
    let hit = answer().map_err(|e| e.to_string())?;
    if hit != cold {
        return Err(format!(
            "a repeat answered {:?} after {:?}",
            hit.rows, cold.rows
        ));
    }
    Ok(cold)
}

/// Greedily drop rows while the divergence persists, then report the
/// minimal reproducer.
fn shrink_report(seed: u64, rows: &[Row], spec: &Spec, first: String) -> String {
    let mut rows = rows.to_vec();
    loop {
        let mut shrunk = false;
        for i in 0..rows.len() {
            let mut candidate = rows.clone();
            candidate.remove(i);
            if divergence(&candidate, spec).is_some() {
                rows = candidate;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            break;
        }
    }
    let last =
        divergence(&rows, spec).unwrap_or_else(|| "(not reproducible after shrink)".to_owned());
    format!(
        "seed {seed}: {first}\n\nminimal reproducer ({} row(s)):\n{}\nquery spec: {spec:?}\nfinal divergence: {last}\nreplay with: DIFF_SEED={seed} cargo test -p xdmod-warehouse --test differential_aggregation",
        rows.len(),
        rows.iter()
            .map(|r| format!("  {r:?}\n"))
            .collect::<String>(),
    )
}

fn check_seed(seed: u64) -> Result<(), String> {
    let mut rng = DeterministicRng::new(seed);
    let table = random_table(&mut rng);
    for _ in 0..QUERIES_PER_SEED {
        let spec = Spec::random(&mut rng);
        let rows = table.rows().expect("seed table rows readable");
        if let Some(first) = divergence(&rows, &spec) {
            return Err(shrink_report(seed, &rows, &spec, first));
        }
    }
    Ok(())
}

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("DIFF_SEED") {
        Ok(s) => vec![s
            .trim()
            .parse()
            .expect("DIFF_SEED must be an unsigned integer")],
        Err(_) => (0..SEED_COUNT).collect(),
    }
}

#[test]
fn parallel_serial_and_brute_force_agree_across_seeds() {
    let mut failures = Vec::new();
    for seed in seeds_under_test() {
        if let Err(report) = check_seed(seed) {
            failures.push(report);
        }
    }
    assert!(
        failures.is_empty(),
        "{} seed(s) diverged:\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

#[test]
fn degenerate_workloads_agree() {
    // Deterministic edge cases the random sweep may not hit every run:
    // empty table, single row, all-NULL aggregation column, all rows in
    // one shard bucket.
    let specs = [
        Spec {
            filters: Vec::new(),
            group: Vec::new(),
            aggs: vec![(Fun::Count, None), (Fun::Sum, Some("cpu_hours"))],
        },
        Spec {
            filters: Vec::new(),
            group: vec![GroupKey::PeriodOf("end_time".to_owned(), Period::Day)],
            aggs: vec![
                (Fun::Count, None),
                (Fun::Avg, Some("cpu_hours")),
                (Fun::Min, Some("cores")),
            ],
        },
    ];
    let single = vec![vec![
        Value::Str("res-0".to_owned()),
        Value::Str("q0".to_owned()),
        Value::Null,
        Value::Int(4),
        Value::Time(base_epoch()),
    ]];
    let all_null_times: Vec<Row> = (0..9)
        .map(|i| {
            vec![
                Value::Str("res-1".to_owned()),
                Value::Str("q1".to_owned()),
                Value::Float(i as f64 / 64.0),
                Value::Int(i + 1),
                Value::Null,
            ]
        })
        .collect();
    let one_bucket: Vec<Row> = (0..16)
        .map(|i| {
            vec![
                Value::Str("res-2".to_owned()),
                Value::Str("q2".to_owned()),
                Value::Float(i as f64 / 32.0),
                Value::Int(i),
                Value::Time(base_epoch() + i * 60),
            ]
        })
        .collect();
    for rows in [&Vec::new(), &single, &all_null_times, &one_bucket] {
        for spec in &specs {
            if let Some(report) = divergence(rows, spec) {
                panic!("degenerate workload diverged: {report}");
            }
        }
    }
}

#[test]
fn oracle_holds_under_concurrent_ingest_and_cache_invalidation() {
    let registry = MetricsRegistry::new();
    let mut db = Database::new();
    db.set_telemetry(registry.clone());
    db.set_parallelism(PoolConfig::new(4).with_shards(6));
    db.create_schema("s").expect("schema creates");
    db.create_table("s", fact_schema()).expect("table creates");
    let db = shared(db);

    let query = Query::new()
        .group_by_period("end_time", Period::Month)
        .aggregate(Aggregate::count("n"))
        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));

    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut rng = DeterministicRng::new(7);
            for _ in 0..40 {
                let rows = (0..8).map(|_| random_row(&mut rng)).collect();
                db.write()
                    .insert("s", "fact", rows)
                    .expect("ingest succeeds");
            }
        })
    };
    let reader = {
        let db = Arc::clone(&db);
        let query = query.clone();
        std::thread::spawn(move || {
            for _ in 0..40 {
                // Any interleaving must produce an internally consistent
                // snapshot; an error or panic here is the failure mode.
                db.read()
                    .query("s", "fact", &query)
                    .expect("cached query under concurrent ingest succeeds");
            }
        })
    };
    writer.join().expect("writer thread completes");
    reader.join().expect("reader thread completes");

    // Quiescent state: cached, sharded-serial, and Query::run answers agree.
    let db = db.read();
    let cached = db.query("s", "fact", &query).expect("cached query");
    let repeat = db.query("s", "fact", &query).expect("repeat query");
    let table = db.table("s", "fact").expect("fact table exists");
    let serial = run_sharded(
        &query,
        table,
        PoolConfig::serial(),
        &MetricsRegistry::disabled(),
        "fact",
    )
    .expect("serial run");
    let folded = query.run(table).expect("Query::run");
    assert_eq!(cached, serial);
    assert_eq!(cached, folded);
    assert_eq!(cached, repeat);
    assert_eq!(table.rows().expect("rows readable").len(), 40 * 8);

    // The repeat after quiescence must be a cache hit, and concurrent
    // invalidation must have produced at least one miss.
    let snap = registry.snapshot();
    let hits = snap
        .counter("warehouse_aggcache_hits_total", &[("table", "fact")])
        .unwrap_or(0);
    let misses = snap
        .counter("warehouse_aggcache_misses_total", &[("table", "fact")])
        .unwrap_or(0);
    assert!(
        hits >= 1,
        "expected at least one aggregate-cache hit, got {hits}"
    );
    assert!(
        misses >= 1,
        "expected at least one aggregate-cache miss, got {misses}"
    );
}

// ---------------------------------------------------------------------------
// Incremental-vs-recompute arm: delta folds riding the binlog
// ---------------------------------------------------------------------------

/// Batches of rows applied in order — the unit the incremental arm
/// generates, checks after, and shrinks over.
type IngestSchedule = Vec<Vec<Row>>;

fn random_schedule(rng: &mut DeterministicRng) -> IngestSchedule {
    let batches = rng.gen_range(2, 8) as usize;
    (0..batches)
        .map(|_| {
            let n = rng.gen_range(0, 60) as usize;
            (0..n).map(|_| random_row(rng)).collect()
        })
        .collect()
}

/// The stateless recompute every retained answer is held to: the
/// sharded engine over the live table under the database's own pool,
/// sharing no state with the query path.
fn recompute(db: &Database, query: &Query) -> xdmod_warehouse::Result<ResultSet> {
    let table = db.table("s", "fact")?;
    run_sharded(query, table, db.parallelism(), db.telemetry(), "fact")
}

fn fresh_incremental_db(pool: PoolConfig) -> Database {
    let mut db = Database::new();
    db.set_parallelism(pool);
    db.create_schema("s").expect("schema creates");
    db.create_table("s", fact_schema()).expect("table creates");
    db
}

/// Replay `schedule` into a fresh database, delta-folding after every
/// batch, and report the first step where the incremental answer
/// diverges from a full sharded recompute or the brute-force oracle —
/// or where the engine silently left the incremental path. This is both
/// the oracle check and the schedule-shrinking predicate.
fn incremental_divergence(schedule: &[Vec<Row>], spec: &Spec, pool: PoolConfig) -> Option<String> {
    let mut db = fresh_incremental_db(pool);
    let query = spec.query();
    let mut accumulated: Vec<Row> = Vec::new();
    for (step, batch) in schedule.iter().enumerate() {
        if let Err(e) = db.insert("s", "fact", batch.clone()) {
            return Some(format!("step {step}: ingest errored: {e}"));
        }
        accumulated.extend(batch.iter().cloned());
        let (incr, report) = match db.query_reported("s", "fact", &query, "fact") {
            Ok(r) => r,
            Err(e) => return Some(format!("step {step}: delta fold errored: {e}")),
        };
        // Nothing in an insert-only schedule justifies a fallback: the
        // first pass must be a cold build and every later one a fold.
        let expected_incremental = step > 0;
        if expected_incremental != report.is_incremental() {
            return Some(format!(
                "step {step}: engine left the incremental path: expected {}, got {:?}",
                if expected_incremental {
                    "Incremental"
                } else {
                    "Cold"
                },
                report.outcome,
            ));
        }
        if report.is_incremental() && report.rows_folded != batch.len() {
            return Some(format!(
                "step {step}: folded {} record(s), batch had {}",
                report.rows_folded,
                batch.len()
            ));
        }
        let recompute = match recompute(&db, &query) {
            Ok(rs) => rs,
            Err(e) => return Some(format!("step {step}: recompute errored: {e}")),
        };
        if incr != recompute {
            return Some(format!(
                "step {step}: incremental diverged from full recompute\n  incremental: {:?}\n  recompute:   {:?}",
                incr.rows, recompute.rows
            ));
        }
        let mut oracle_table = Table::new(fact_schema());
        oracle_table
            .insert_batch(accumulated.clone())
            .expect("accumulated rows fit the schema");
        let brute = brute_force(&oracle_table, spec);
        if incr.rows != brute {
            return Some(format!(
                "step {step}: incremental diverged from brute-force oracle\n  incremental: {:?}\n  brute:       {:?}",
                incr.rows, brute
            ));
        }
    }
    None
}

/// Greedily shrink a diverging ingest schedule: drop whole batches, then
/// single rows within batches, while the divergence persists.
fn shrink_schedule(
    seed: u64,
    schedule: &IngestSchedule,
    spec: &Spec,
    pool: PoolConfig,
    first: String,
) -> String {
    let mut schedule = schedule.to_vec();
    loop {
        let mut shrunk = false;
        for i in 0..schedule.len() {
            let mut candidate = schedule.clone();
            candidate.remove(i);
            if incremental_divergence(&candidate, spec, pool).is_some() {
                schedule = candidate;
                shrunk = true;
                break;
            }
        }
        if shrunk {
            continue;
        }
        'rows: for b in 0..schedule.len() {
            for r in 0..schedule[b].len() {
                let mut candidate = schedule.clone();
                candidate[b].remove(r);
                if incremental_divergence(&candidate, spec, pool).is_some() {
                    schedule = candidate;
                    shrunk = true;
                    break 'rows;
                }
            }
        }
        if !shrunk {
            break;
        }
    }
    let last = incremental_divergence(&schedule, spec, pool)
        .unwrap_or_else(|| "(not reproducible after shrink)".to_owned());
    format!(
        "seed {seed}: {first}\n\nminimal reproducing ingest schedule ({} batch(es), {} row(s)):\n{}\nquery spec: {spec:?}\npool: workers={} shards={}\nfinal divergence: {last}\nreplay with: DIFF_SEED={seed} cargo test -p xdmod-warehouse --test differential_aggregation incremental",
        schedule.len(),
        schedule.iter().map(Vec::len).sum::<usize>(),
        schedule
            .iter()
            .enumerate()
            .map(|(i, b)| format!("  batch {i}: {b:?}\n"))
            .collect::<String>(),
        pool.workers(),
        pool.shards(),
    )
}

/// Per-seed results accumulated for the `INCR_ORACLE_REPORT` artifact.
static INCR_REPORT: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn record_incr_case(seed: u64, batches: usize, rows: usize, failure: Option<&str>) {
    let status = match failure {
        None => r#""ok""#.to_owned(),
        Some(report) => format!(
            r#""diverged","reproducer":{:?}"#,
            report // JSON-escaped via Debug
        ),
    };
    INCR_REPORT.lock().expect("report lock").push(format!(
        r#"{{"seed":{seed},"batches":{batches},"rows":{rows},"status":{status}}}"#
    ));
}

/// Write the accumulated sweep to `INCR_ORACLE_REPORT` when set (the CI
/// incremental-oracle job archives it).
fn flush_incr_report() {
    let Ok(path) = std::env::var("INCR_ORACLE_REPORT") else {
        return;
    };
    let cases = INCR_REPORT.lock().expect("report lock");
    let doc = format!(
        r#"{{"oracle":"incremental-vs-recompute","cases":[{}],"total":{}}}"#,
        cases.join(","),
        cases.len(),
    );
    let _ = std::fs::write(&path, doc);
}

#[test]
fn incremental_and_full_recompute_agree_across_ingest_schedules() {
    let mut failures = Vec::new();
    for seed in seeds_under_test() {
        // Distinct stream from the table-shape arm so the two sweeps
        // explore independent workloads.
        let mut rng = DeterministicRng::new(seed.wrapping_mul(2_654_435_761).wrapping_add(101));
        let schedule = random_schedule(&mut rng);
        let batches = schedule.len();
        let rows = schedule.iter().map(Vec::len).sum();
        let mut seed_failure: Option<String> = None;
        'specs: for _ in 0..3 {
            let spec = Spec::random(&mut rng);
            for pool in [pools()[1], pools()[3]] {
                if let Some(first) = incremental_divergence(&schedule, &spec, pool) {
                    let report = shrink_schedule(seed, &schedule, &spec, pool, first);
                    seed_failure = Some(report);
                    break 'specs;
                }
            }
        }
        record_incr_case(seed, batches, rows, seed_failure.as_deref());
        if let Some(report) = seed_failure {
            failures.push(report);
        }
    }
    flush_incr_report();
    assert!(
        failures.is_empty(),
        "{} seed(s) diverged on the incremental arm:\n\n{}",
        failures.len(),
        failures.join("\n\n")
    );
}

#[test]
fn incremental_fallback_triggers_rebuild_not_stale_results() {
    // External rebuild: the fold must restart cold, never serve partials
    // folded before the rewrite.
    let mut rng = DeterministicRng::new(99);
    let spec = Spec {
        filters: Vec::new(),
        group: vec![
            GroupKey::Column("resource".to_owned()),
            GroupKey::PeriodOf("end_time".to_owned(), Period::Day),
        ],
        aggs: vec![
            (Fun::Count, None),
            (Fun::Sum, Some("cpu_hours")),
            (Fun::CountDistinct, Some("cores")),
        ],
    };
    let query = spec.query();
    let mut db = fresh_incremental_db(PoolConfig::new(3).with_shards(6));
    let first: Vec<Row> = (0..50).map(|_| random_row(&mut rng)).collect();
    db.insert("s", "fact", first.clone()).expect("ingest");
    db.query_reported("s", "fact", &query, "fact")
        .expect("cold fold");

    let second: Vec<Row> = (0..20).map(|_| random_row(&mut rng)).collect();
    db.insert("s", "fact", second.clone()).expect("ingest");
    db.note_external_rebuild();
    let (rs, report) = db
        .query_reported("s", "fact", &query, "fact")
        .expect("fold");
    assert_eq!(
        report.outcome,
        DeltaOutcome::Cold,
        "cursors must not survive an external rebuild"
    );
    let mut oracle_table = Table::new(fact_schema());
    let mut all = first;
    all.extend(second);
    oracle_table.insert_batch(all).expect("rows fit");
    assert_eq!(rs.rows, brute_force(&oracle_table, &spec));
    assert_eq!(rs, recompute(&db, &query).expect("recompute"));

    // Fact-table truncate arriving in the delta: fold cannot unfold
    // removed rows and must rebuild.
    db.truncate("s", "fact").expect("truncate");
    let third: Vec<Row> = (0..10).map(|_| random_row(&mut rng)).collect();
    db.insert("s", "fact", third.clone()).expect("ingest");
    let (rs, report) = db
        .query_reported("s", "fact", &query, "fact")
        .expect("fold");
    assert_eq!(
        report.fallback_reason(),
        Some(FallbackReason::FactRewrite),
        "a truncate in the delta must force a full rebuild"
    );
    let mut oracle_table = Table::new(fact_schema());
    oracle_table.insert_batch(third).expect("rows fit");
    assert_eq!(rs.rows, brute_force(&oracle_table, &spec));
}

#[test]
fn incremental_compaction_fallback_against_disk_backend() {
    // Snapshot-triggered binlog compaction can outrun a retained cursor;
    // against the durable backend the fold must detect `CompactedAway`
    // and rebuild from the live table, never half-apply a vanished delta.
    static DIR_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xdmod-incr-oracle-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let opts = DiskOptions::new(&dir).fsync(false).segment_max_bytes(512);
    let backend = DiskBackend::open(opts).expect("open backend");
    let mut db = Database::open(Box::new(backend)).expect("open db");
    db.set_parallelism(PoolConfig::new(2).with_shards(5));
    db.create_schema("s").expect("schema");
    db.create_table("s", fact_schema()).expect("table");

    let mut rng = DeterministicRng::new(4242);
    let spec = Spec {
        filters: Vec::new(),
        group: vec![GroupKey::PeriodOf("end_time".to_owned(), Period::Month)],
        aggs: vec![(Fun::Count, None), (Fun::Avg, Some("cpu_hours"))],
    };
    let query = spec.query();
    let mut all: Vec<Row> = (0..40).map(|_| random_row(&mut rng)).collect();
    db.insert("s", "fact", all.clone()).expect("ingest");
    let (_, report) = db
        .query_reported("s", "fact", &query, "fact")
        .expect("fold");
    assert_eq!(report.outcome, DeltaOutcome::Cold);
    let cursor = db.binlog_position();

    // Ingest + snapshot twice: the compaction horizon trails one
    // snapshot behind, so the second pass pushes it past the cursor.
    for _ in 0..2 {
        let batch: Vec<Row> = (0..15).map(|_| random_row(&mut rng)).collect();
        db.insert("s", "fact", batch.clone()).expect("ingest");
        all.extend(batch);
        db.snapshot_now().expect("snapshot");
    }
    assert!(
        db.compaction_horizon() > cursor.seqno,
        "compaction must have outrun the cursor for this test to bite"
    );

    let (rs, report) = db
        .query_reported("s", "fact", &query, "fact")
        .expect("fold");
    assert_eq!(
        report.fallback_reason(),
        Some(FallbackReason::CompactedAway),
        "a cursor below the compaction horizon must force a full rebuild"
    );
    let mut oracle_table = Table::new(fact_schema());
    oracle_table.insert_batch(all).expect("rows fit");
    assert_eq!(rs.rows, brute_force(&oracle_table, &spec));
    assert_eq!(rs, recompute(&db, &query).expect("recompute"));

    // The rebuilt cursor folds incrementally again.
    db.insert("s", "fact", vec![random_row(&mut rng)])
        .expect("ingest");
    let (_, report) = db
        .query_reported("s", "fact", &query, "fact")
        .expect("fold");
    assert!(report.is_incremental());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_folds_race_cached_reads_without_serving_stale_state() {
    let registry = MetricsRegistry::new();
    let mut db = Database::new();
    db.set_telemetry(registry.clone());
    db.set_parallelism(PoolConfig::new(4).with_shards(6));
    db.create_schema("s").expect("schema creates");
    db.create_table("s", fact_schema()).expect("table creates");
    let db = shared(db);

    let query = Query::new()
        .group_by_period("end_time", Period::Day)
        .aggregate(Aggregate::count("n"))
        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));

    let writer = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut rng = DeterministicRng::new(23);
            for _ in 0..30 {
                let rows = (0..8).map(|_| random_row(&mut rng)).collect();
                db.write()
                    .insert("s", "fact", rows)
                    .expect("ingest succeeds");
            }
        })
    };
    let folder = {
        let db = Arc::clone(&db);
        let query = query.clone();
        std::thread::spawn(move || {
            let mut incremental_passes = 0usize;
            for _ in 0..30 {
                // One read guard spans the fold and its check recompute,
                // so both see the same snapshot: a delta fold racing
                // ingest must still match a from-scratch answer at the
                // instant it ran.
                let d = db.read();
                let (rs, report) = d
                    .query_reported("s", "fact", &query, "fact")
                    .expect("fold succeeds");
                let fresh = recompute(&d, &query).expect("recompute");
                assert_eq!(rs, fresh, "mid-race fold diverged from recompute");
                if report.is_incremental() {
                    incremental_passes += 1;
                }
            }
            incremental_passes
        })
    };
    let reader = {
        let db = Arc::clone(&db);
        let query = query.clone();
        std::thread::spawn(move || {
            for _ in 0..30 {
                db.read()
                    .query("s", "fact", &query)
                    .expect("cached query under racing folds succeeds");
            }
        })
    };
    writer.join().expect("writer completes");
    let incremental_passes = folder.join().expect("folder completes");
    reader.join().expect("reader completes");
    assert!(
        incremental_passes >= 1,
        "at least one racing fold should have taken the incremental path"
    );

    // Quiescent: the retained cursor has caught up with the fact table's
    // rebuild ticket — an entry answers only from a cursor at or past
    // the table's watermark, and nothing else writes to this log.
    let d = db.read();
    let (rs, _) = d
        .query_reported("s", "fact", &query, "fact")
        .expect("final fold");
    let key = CacheKey::of("s", "fact", &query);
    let cursor = d.delta_cache().cursor_of(&key).expect("retained entry");
    assert_eq!(
        cursor,
        d.binlog_position(),
        "cursor must sit at the log head"
    );
    let ticket = d.rebuild_ticket("s", "fact");
    assert_eq!(
        ticket.watermark,
        Some(cursor),
        "fact watermark and delta cursor must agree at quiescence"
    );
    let cached = d.query("s", "fact", &query).expect("cached query");
    assert_eq!(
        rs, cached,
        "cached entry served at a ticket the cursor does not match"
    );
    assert_eq!(rs, recompute(&d, &query).expect("recompute"));
    assert_eq!(d.table("s", "fact").expect("fact").len(), 30 * 8);
}

/// On a quiescent table a repeat is a hit, not a cold build — for every
/// one of any number of identical concurrent readers: the first of N
/// threads misses alone, the other N−1 are released together and all
/// hit, because a hit reads its entry in place instead of taking it.
#[test]
fn concurrent_identical_readers_on_a_quiescent_table_all_hit() {
    const READERS: usize = 8;
    const REPEATS: usize = 50;
    let registry = MetricsRegistry::new();
    let mut db = fresh_incremental_db(PoolConfig::new(2).with_shards(5));
    db.set_telemetry(registry.clone());
    let mut rng = DeterministicRng::new(311);
    let rows: Vec<Row> = (0..200).map(|_| random_row(&mut rng)).collect();
    db.insert("s", "fact", rows).expect("ingest");
    let query = Query::new()
        .group_by_column("resource")
        .group_by_period("end_time", Period::Month)
        .aggregate(Aggregate::count("n"))
        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
    let reference = recompute(&db, &query).expect("recompute");

    let db = shared(db);
    let first_done = Barrier::new(READERS);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (db, query, reference, first_done) = (&db, &query, &reference, &first_done);
            scope.spawn(move || {
                if reader == 0 {
                    let d = db.read();
                    let (rs, report) = d
                        .query_reported("s", "fact", query, "fact")
                        .expect("first query");
                    assert_eq!(report.outcome, DeltaOutcome::Cold);
                    assert_eq!(&rs, reference);
                }
                first_done.wait();
                if reader == 0 {
                    return;
                }
                for _ in 0..REPEATS {
                    let d = db.read();
                    let (rs, report) = d
                        .query_reported("s", "fact", query, "fact")
                        .expect("repeat query");
                    assert!(report.is_incremental() && report.rows_folded == 0);
                    assert_eq!(&rs, reference);
                }
            });
        }
    });

    let snap = registry.snapshot();
    let count = |name: &str| snap.counter(name, &[("table", "fact")]).unwrap_or(0);
    assert_eq!(count("warehouse_aggcache_misses_total"), 1);
    assert_eq!(
        count("warehouse_aggcache_hits_total"),
        ((READERS - 1) * REPEATS) as u64
    );
    assert_eq!(count("warehouse_delta_cold_builds_total"), 1);
}

// ---------------------------------------------------------------------------
// Paged-vs-resident differential arm
// ---------------------------------------------------------------------------

/// A fresh database with cold-shard paging enabled at a pathologically
/// tiny working-set budget — at most a couple of shards (and the one
/// pinned by an in-flight scan) can ever stay resident, so every query
/// crosses the spill/fault-in machinery.
fn fresh_paged_db(pool: PoolConfig, dir: &std::path::Path, budget: u64) -> Database {
    let mut db = Database::new();
    db.set_parallelism(pool);
    db.enable_paging(
        xdmod_warehouse::PagingConfig::new(dir)
            .budget_bytes(budget)
            .pages_per_table(8),
    )
    .expect("paging enables on a fresh database");
    db.create_schema("s").expect("schema creates");
    db.create_table("s", fact_schema()).expect("table creates");
    db
}

fn paged_twin_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "xdmod-diff-paged-{tag}-{}-{seed}",
        std::process::id()
    ))
}

/// Serial and parallel arms: the same rows behind the paging engine at a
/// one-byte budget must agree byte-for-byte with the fully resident
/// table on `Query::run` and on `run_sharded` across every pool
/// geometry.
#[test]
fn paged_and_resident_twins_agree_on_every_engine() {
    let quiet = MetricsRegistry::disabled();
    for seed in seeds_under_test() {
        // Same stream as the dense four-way arm, so both sweeps see the
        // same tables and query specs.
        let mut rng = DeterministicRng::new(seed);
        let dense = random_table(&mut rng);
        let rows = dense.rows().expect("dense rows readable");
        let dir = paged_twin_dir("engines", seed);
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = fresh_paged_db(pools()[1], &dir, 1);
        db.insert("s", "fact", rows.to_vec()).expect("paged ingest");
        for _ in 0..QUERIES_PER_SEED {
            let spec = Spec::random(&mut rng);
            let query = spec.query();
            let reference = query.run(&dense).expect("dense run");
            let table = db.table("s", "fact").expect("paged table");
            assert!(table.is_paged(), "twin table must actually be paged");
            let paged = query.run(table).expect("paged run");
            assert_eq!(
                paged, reference,
                "seed {seed}: paged Query::run diverged from the resident twin\nspec: {spec:?}"
            );
            for pool in pools() {
                let got =
                    run_sharded(&query, table, pool, &quiet, "fact").expect("paged sharded run");
                assert_eq!(
                    got, reference,
                    "seed {seed}: paged run_sharded(workers={}, shards={}) diverged\nspec: {spec:?}",
                    pool.workers(),
                    pool.shards()
                );
            }
        }
        let stats = db.residency_stats().expect("paging is on");
        if !rows.is_empty() {
            assert!(
                stats.spilled_pages > 0,
                "seed {seed}: a one-byte budget must leave pages spilled: {stats:?}"
            );
        }
        // Checksum parity through arbitrary spill/fault-in cycles: the
        // replication consistency checker relies on this.
        assert_eq!(
            db.table("s", "fact")
                .expect("paged table")
                .content_checksum(),
            dense.content_checksum(),
            "seed {seed}: paged content checksum diverged from the dense twin"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Incremental arm: a paged database replaying an ingest schedule with
/// delta folds after every batch must stay on the incremental path
/// exactly when the unbounded twin does, and return byte-identical
/// results at every step.
#[test]
fn paged_incremental_folds_agree_with_unbounded_twin() {
    for seed in seeds_under_test() {
        // Same stream as the incremental arm, so both sweeps replay the
        // same schedules.
        let mut rng = DeterministicRng::new(seed.wrapping_mul(2_654_435_761).wrapping_add(101));
        let schedule = random_schedule(&mut rng);
        let spec = Spec::random(&mut rng);
        let query = spec.query();
        let pool = pools()[1];
        let dir = paged_twin_dir("incr", seed);
        let _ = std::fs::remove_dir_all(&dir);
        let mut unbounded = fresh_incremental_db(pool);
        let mut paged = fresh_paged_db(pool, &dir, 1);
        for (step, batch) in schedule.iter().enumerate() {
            unbounded
                .insert("s", "fact", batch.clone())
                .expect("unbounded ingest");
            paged
                .insert("s", "fact", batch.clone())
                .expect("paged ingest");
            let (want, want_report) = unbounded
                .query_reported("s", "fact", &query, "fact")
                .expect("unbounded fold");
            let (got, got_report) = paged
                .query_reported("s", "fact", &query, "fact")
                .expect("paged fold");
            assert_eq!(
                got, want,
                "seed {seed} step {step}: paged delta fold diverged\nspec: {spec:?}"
            );
            assert_eq!(
                got_report.outcome, want_report.outcome,
                "seed {seed} step {step}: paging changed the fold outcome"
            );
        }
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
