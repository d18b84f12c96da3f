//! Property-based tests (proptest) over the workspace's core data
//! structures and invariants.

use proptest::prelude::*;
use xdmod::warehouse::binlog::{decode_payload, decode_stream, encode_payload, Binlog};
use xdmod::warehouse::time::{
    civil_from_days, days_from_civil, format_iso_datetime, parse_iso_datetime,
};
use xdmod::warehouse::{
    run_sharded, AggFn, Aggregate, Bin, Bins, ColumnType, EventPayload, LogPosition, Period,
    PoolConfig, Query, Row, SchemaBuilder, ShardedPartials, Snapshot, Table, Value,
};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[ -~]{0,32}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::Time),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(arb_value(), 0..6)
}

proptest! {
    // ---------------- binlog ----------------

    #[test]
    fn binlog_payload_roundtrip(schema in "[a-z_]{1,12}", table in "[a-z_]{1,12}",
                                rows in prop::collection::vec(arb_row(), 0..8)) {
        let payload = EventPayload::InsertBatch { schema, table, rows };
        let decoded = decode_payload(&encode_payload(&payload)).unwrap();
        prop_assert_eq!(decoded, payload);
    }

    #[test]
    fn binlog_stream_roundtrip_and_positions(batches in prop::collection::vec(prop::collection::vec(arb_row(), 1..4), 1..6)) {
        let mut log = Binlog::new();
        for rows in &batches {
            log.append(&EventPayload::InsertBatch {
                schema: "s".into(),
                table: "t".into(),
                rows: rows.clone(),
            });
        }
        let events = decode_stream(&log.export_after(LogPosition::START).unwrap()).unwrap();
        prop_assert_eq!(events.len(), batches.len());
        // Positions are dense and ordered.
        for (i, ev) in events.iter().enumerate() {
            prop_assert_eq!(ev.position.seqno, i as u64 + 1);
        }
        // Reading after any prefix returns exactly the suffix.
        for k in 0..batches.len() {
            let tail = log.read_after(LogPosition { epoch: 0, seqno: k as u64 }).unwrap();
            prop_assert_eq!(tail.len(), batches.len() - k);
        }
    }

    #[test]
    fn binlog_corruption_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must decode to Ok or Err, never panic.
        let _ = decode_stream(&bytes);
    }

    #[test]
    fn damaged_tail_never_panics_and_repair_preserves_undamaged_prefix(
        batches in prop::collection::vec(prop::collection::vec(arb_row(), 1..4), 1..6),
        truncate_instead_of_corrupt in any::<bool>(),
        damage_at in 0.0f64..1.0,
    ) {
        let mut log = Binlog::new();
        let mut frame_ends = Vec::new(); // byte offset just past each frame
        let mut originals = Vec::new();
        for rows in &batches {
            let payload = EventPayload::InsertBatch {
                schema: "s".into(),
                table: "t".into(),
                rows: rows.clone(),
            };
            let pos = log.append(&payload);
            frame_ends.push(log.byte_len());
            originals.push((pos, payload));
        }
        let total = log.byte_len();
        // Damage an arbitrary point of the raw log: either flip the byte
        // there, or tear off everything from it to the end (torn write).
        let index = ((total - 1) as f64 * damage_at) as usize;
        if truncate_instead_of_corrupt {
            log.truncate_tail_bytes(total - index);
        } else {
            prop_assert!(log.corrupt_byte(index));
        }
        // The tailer must never panic on a damaged log; errors are fine.
        let _ = log.read_after(LogPosition::START);
        for seqno in 1..=batches.len() as u64 {
            let _ = log.record_at(seqno);
        }
        // Repair restores crash consistency...
        let repair = log.repair_tail();
        let events = log.read_after(LogPosition::START).unwrap();
        // ...keeping every record that lies fully before the damage.
        let intact = frame_ends.iter().filter(|end| **end <= index).count();
        prop_assert!(
            events.len() >= intact,
            "repair dropped undamaged records: kept {} of {} ({})",
            events.len(), intact, repair
        );
        for (ev, (pos, payload)) in events.iter().zip(&originals).take(intact) {
            prop_assert_eq!(&ev.position, pos);
            prop_assert_eq!(&ev.payload, payload);
        }
        // A repaired log is crash-consistent: a second repair is a no-op.
        prop_assert!(log.repair_tail().is_clean());
    }

    #[test]
    fn database_tail_truncation_is_always_repairable(
        n_rows in 1usize..8,
        chop in 1usize..200,
    ) {
        let mut db = xdmod::warehouse::Database::new();
        db.create_schema("s").unwrap();
        db.create_table(
            "s",
            SchemaBuilder::new("t").required("a", ColumnType::Int).build().unwrap(),
        )
        .unwrap();
        for i in 0..n_rows {
            db.insert("s", "t", vec![vec![Value::Int(i as i64)]]).unwrap();
        }
        db.truncate_binlog_tail(chop);
        let _ = db.binlog_after(LogPosition::START); // may error, must not panic
        db.repair_binlog();
        // After repair the stream reads clean and is a prefix of the
        // original history (schema + table + n_rows inserts).
        let events = db.binlog_after(LogPosition::START).unwrap();
        prop_assert!(events.len() <= 2 + n_rows);
        for (i, ev) in events.iter().enumerate() {
            prop_assert_eq!(ev.position.seqno, i as u64 + 1);
        }
    }

    // ---------------- bins ----------------

    #[test]
    fn bins_partition_is_exclusive_and_exhaustive(
        edges in prop::collection::btree_set(0u32..1000, 2..10),
        probe in -100.0f64..1100.0,
    ) {
        let edges: Vec<f64> = edges.into_iter().map(f64::from).collect();
        let bins = Bins::new(
            edges.windows(2)
                .enumerate()
                .map(|(i, w)| Bin::new(&format!("b{i}"), w[0], w[1]))
                .collect(),
        ).unwrap();
        // Exactly one label applies (a real bin or "other").
        let label = bins.label_of(probe);
        let inside = bins.index_of(probe);
        match inside {
            Some(i) => {
                prop_assert!(bins.bins()[i].contains(probe));
                prop_assert_eq!(label, bins.bins()[i].label.as_str());
            }
            None => {
                prop_assert_eq!(label, "other");
                for b in bins.bins() {
                    prop_assert!(!b.contains(probe));
                }
            }
        }
    }

    // ---------------- calendar ----------------

    #[test]
    fn civil_days_roundtrip(days in -1_000_000i64..1_000_000) {
        let d = civil_from_days(days);
        prop_assert_eq!(days_from_civil(d.year, d.month, d.day), days);
    }

    #[test]
    fn iso_datetime_roundtrip(epoch in -60_000_000_000i64..60_000_000_000) {
        prop_assert_eq!(parse_iso_datetime(&format_iso_datetime(epoch)), Some(epoch));
    }

    #[test]
    fn period_buckets_bracket_their_members(epoch in -60_000_000_000i64..60_000_000_000) {
        for p in Period::ALL {
            let b = p.bucket_of(epoch);
            prop_assert!(p.bucket_start(b) <= epoch);
            prop_assert!(epoch < p.bucket_end(b));
            // Buckets tile: the end of b is the start of b+1.
            prop_assert_eq!(p.bucket_end(b), p.bucket_start(b + 1));
        }
    }

    // ---------------- query engine ----------------

    #[test]
    fn parallel_sum_equals_sequential(values in prop::collection::vec(-1e6f64..1e6, 0..300),
                                      keys in prop::collection::vec(0u8..4, 0..300)) {
        let n = values.len().min(keys.len());
        let mut table = Table::new(
            SchemaBuilder::new("t")
                .required("k", ColumnType::Str)
                .required("v", ColumnType::Float)
                .build()
                .unwrap(),
        );
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Str(format!("k{}", keys[i])), Value::Float(values[i])])
            .collect();
        table.insert_batch(rows).unwrap();

        let rs = Query::new()
            .group_by_column("k")
            .aggregate(Aggregate::of(AggFn::Sum, "v", "sum"))
            .aggregate(Aggregate::count("n"))
            .run(&table)
            .unwrap();

        // Sequential reference.
        use std::collections::BTreeMap;
        let mut expect: BTreeMap<String, (f64, i64)> = BTreeMap::new();
        for i in 0..n {
            let e = expect.entry(format!("k{}", keys[i])).or_insert((0.0, 0));
            e.0 += values[i];
            e.1 += 1;
        }
        prop_assert_eq!(rs.len(), expect.len());
        for row in &rs.rows {
            let key = row[0].as_str().unwrap();
            let (sum, count) = expect[key];
            prop_assert_eq!(row[2].as_i64().unwrap(), count);
            let got = row[1].as_f64().unwrap();
            prop_assert!((got - sum).abs() <= 1e-6 * (1.0 + sum.abs()),
                "key {}: {} vs {}", key, got, sum);
        }
    }

    #[test]
    fn count_is_invariant_under_grouping(keys in prop::collection::vec(0u8..5, 1..200)) {
        let mut table = Table::new(
            SchemaBuilder::new("t")
                .required("k", ColumnType::Str)
                .build()
                .unwrap(),
        );
        table
            .insert_batch(keys.iter().map(|k| vec![Value::Str(format!("k{k}"))]).collect())
            .unwrap();
        let total = Query::new()
            .aggregate(Aggregate::count("n"))
            .run(&table)
            .unwrap()
            .scalar_f64("n")
            .unwrap();
        let grouped = Query::new()
            .group_by_column("k")
            .aggregate(Aggregate::count("n"))
            .run(&table)
            .unwrap();
        let idx = grouped.column_index("n").unwrap();
        let sum: f64 = grouped.rows.iter().map(|r| r[idx].as_f64().unwrap()).sum();
        prop_assert_eq!(total, sum);
        prop_assert_eq!(total as usize, keys.len());
    }

    // ---------------- parallel aggregation & caching ----------------

    #[test]
    fn shard_folds_are_split_invariant(
        raw in prop::collection::vec((0u32..4096, 0u8..5), 0..200),
        cuts in prop::collection::vec(0usize..200, 0..6),
    ) {
        // Dyadic values (n/64) make float sums exact, so "invariant"
        // means byte-identical, not approximately equal.
        let mut table = Table::new(
            SchemaBuilder::new("t")
                .required("k", ColumnType::Str)
                .required("v", ColumnType::Float)
                .build()
                .unwrap(),
        );
        table
            .insert_batch(
                raw.iter()
                    .map(|(v, k)| vec![Value::Str(format!("k{k}")), Value::Float(*v as f64 / 64.0)])
                    .collect(),
            )
            .unwrap();
        let query = Query::new()
            .group_by_column("k")
            .aggregate(Aggregate::count("n"))
            .aggregate(Aggregate::of(AggFn::Sum, "v", "sum"))
            .aggregate(Aggregate::of(AggFn::Avg, "v", "avg"))
            .aggregate(Aggregate::of(AggFn::Min, "v", "min"))
            .aggregate(Aggregate::of(AggFn::Max, "v", "max"));
        let schema = table.schema();
        let rows = table.rows().expect("rows readable");

        // Split the row stream at arbitrary (sorted, deduped) cut points.
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(rows.len())).collect();
        cuts.push(0);
        cuts.push(rows.len());
        cuts.sort_unstable();
        cuts.dedup();
        let chunks: Vec<&[Row]> = cuts.windows(2).map(|w| &rows[w[0]..w[1]]).collect();

        // Folding the chunks one after another must finalize identically
        // to the unsplit whole — into one shard (a pure continuation of
        // the accumulator sequence) and into one round-robin shard per
        // chunk (the ascending-shard merge of that many partials).
        let whole = query.run(&table).unwrap();
        for shards in [1, chunks.len()] {
            let mut partials = ShardedPartials::new(shards);
            for chunk in &chunks {
                partials.fold_batch(&query, schema, *chunk).unwrap();
            }
            prop_assert_eq!(partials.rows_folded(), rows.len());
            prop_assert_eq!(&partials.finalize(&query, schema).unwrap(), &whole);
        }
    }

    #[test]
    fn sharded_equals_unsharded_for_any_pool_geometry(
        raw in prop::collection::vec((0u32..4096, 0u8..4, 0i64..200), 0..200),
        workers in 0usize..9,
        shards in 0usize..17,
    ) {
        let mut table = Table::new(
            SchemaBuilder::new("t")
                .required("k", ColumnType::Str)
                .required("v", ColumnType::Float)
                .required("ts", ColumnType::Time)
                .build()
                .unwrap(),
        );
        table
            .insert_batch(
                raw.iter()
                    .map(|(v, k, d)| {
                        vec![
                            Value::Str(format!("k{k}")),
                            Value::Float(*v as f64 / 64.0),
                            Value::Time(*d * 86_400),
                        ]
                    })
                    .collect(),
            )
            .unwrap();
        let query = Query::new()
            .group_by_period("ts", Period::Month)
            .group_by_column("k")
            .aggregate(Aggregate::count("n"))
            .aggregate(Aggregate::of(AggFn::Sum, "v", "sum"));
        let pool = PoolConfig::new(workers).with_shards(shards);
        let got = run_sharded(
            &query,
            &table,
            pool,
            &xdmod::telemetry::MetricsRegistry::disabled(),
            "t",
        )
        .unwrap();
        prop_assert_eq!(got, query.run(&table).unwrap());
    }

    // The incremental-aggregation algebra: folding rows into retained
    // state in two stages, split at an arbitrary watermark point, must
    // finalize byte-identically to a single-pass recompute of the whole
    // stream — for every aggregation function at once. Dyadic values
    // (n/64) keep float sums exact, so equality is `==`, not epsilon.
    #[test]
    fn delta_fold_equals_recompute_at_any_watermark_split(
        raw in prop::collection::vec((0u32..4096, 0u8..5, 0i64..200, any::<bool>()), 0..200),
        split in 0usize..201,
        workers in 0usize..5,
        shards in 0usize..9,
    ) {
        let mut table = Table::new(
            SchemaBuilder::new("t")
                .required("k", ColumnType::Str)
                .required("v", ColumnType::Float)
                .nullable("ts", ColumnType::Time)
                .build()
                .unwrap(),
        );
        table
            .insert_batch(
                raw.iter()
                    .map(|(v, k, d, null_ts)| {
                        vec![
                            Value::Str(format!("k{k}")),
                            Value::Float(*v as f64 / 64.0),
                            if *null_ts { Value::Null } else { Value::Time(*d * 86_400) },
                        ]
                    })
                    .collect(),
            )
            .unwrap();
        let query = Query::new()
            .group_by_period("ts", Period::Month)
            .group_by_column("k")
            .aggregate(Aggregate::count("n"))
            .aggregate(Aggregate::of(AggFn::Sum, "v", "sum"))
            .aggregate(Aggregate::of(AggFn::Avg, "v", "avg"))
            .aggregate(Aggregate::of(AggFn::Min, "v", "min"))
            .aggregate(Aggregate::of(AggFn::Max, "v", "max"))
            .aggregate(Aggregate::of(AggFn::CountDistinct, "v", "uniq"));
        let schema = table.schema();
        let rows = table.rows().expect("rows readable");
        let split = split.min(rows.len());
        let (a, b) = rows.split_at(split);
        let whole = query.run(&table).unwrap();

        // fold(fold(P, a), b) == recompute(a ++ b), one serial shard.
        let mut partial = ShardedPartials::new(1);
        partial.fold_batch(&query, schema, a).unwrap();
        partial.fold_batch(&query, schema, b).unwrap();
        prop_assert_eq!(&partial.finalize(&query, schema).unwrap(), &whole);

        // The same algebra through the sharded retained state the delta
        // engine actually keeps: cold build over the prefix, one delta
        // batch for the suffix, finalize.
        let pool = PoolConfig::new(workers).with_shards(shards);
        let telemetry = xdmod::telemetry::MetricsRegistry::disabled();
        let mut prefix = Table::new(schema.clone());
        prefix.insert_batch(a.to_vec()).unwrap();
        let mut sp = ShardedPartials::build(&query, &prefix, pool, &telemetry, "t").unwrap();
        let dirty = sp.fold_batch(&query, schema, b).unwrap();
        prop_assert!(dirty <= sp.shard_count());
        prop_assert_eq!(sp.rows_folded(), rows.len());
        prop_assert_eq!(&sp.finalize(&query, schema).unwrap(), &whole);
        // And against the one-shot sharded engine, same pool geometry.
        prop_assert_eq!(
            &run_sharded(&query, &table, pool, &telemetry, "t").unwrap(),
            &whole
        );
    }

    #[test]
    fn watermarks_and_rebuild_tickets_track_binlog_ingest(
        batches in prop::collection::vec(prop::collection::vec(0i64..1000, 1..5), 1..8),
        external_rebuilds in prop::collection::vec(any::<bool>(), 1..8),
    ) {
        let mut db = xdmod::warehouse::Database::new();
        db.create_schema("s").unwrap();
        db.create_table(
            "s",
            SchemaBuilder::new("t").required("a", ColumnType::Int).build().unwrap(),
        )
        .unwrap();
        prop_assert_eq!(db.table_watermark("s", "t"), None);
        let mut last_seqno = 0u64;
        let mut last_generation = db.rebuild_generation();
        for (i, rows) in batches.iter().enumerate() {
            let before = db.rebuild_ticket("s", "t");
            let pos = db
                .insert("s", "t", rows.iter().map(|v| vec![Value::Int(*v)]).collect())
                .unwrap();
            let after = db.rebuild_ticket("s", "t");
            // The watermark is exactly the binlog position of the ingest
            // and advances strictly monotonically with the seqno.
            prop_assert_eq!(db.table_watermark("s", "t"), Some(pos));
            prop_assert!(pos.seqno > last_seqno);
            last_seqno = pos.seqno;
            // Ingest invalidates the pre-ingest ticket; a quiet reissue
            // re-validates.
            prop_assert_ne!(before, after);
            prop_assert_eq!(after, db.rebuild_ticket("s", "t"));
            if external_rebuilds.get(i).copied().unwrap_or(false) {
                // External rebuilds (resync, restore) bump the generation
                // monotonically and invalidate even a fresh ticket.
                let generation = db.note_external_rebuild();
                prop_assert!(generation > last_generation);
                last_generation = generation;
                prop_assert_ne!(after, db.rebuild_ticket("s", "t"));
            }
        }
        // Watermarks are per-table: a table never written has none.
        prop_assert_eq!(db.table_watermark("s", "untouched"), None);
    }

    // ---------------- snapshots & checksums ----------------

    #[test]
    fn snapshot_roundtrip_preserves_checksums(rows in prop::collection::vec(
        (any::<i64>(), -1e9f64..1e9), 0..50))
    {
        let mut db = xdmod::warehouse::Database::new();
        db.create_schema("s").unwrap();
        db.create_table(
            "s",
            SchemaBuilder::new("t")
                .required("a", ColumnType::Int)
                .required("b", ColumnType::Float)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            "s",
            "t",
            rows.iter().map(|(a, b)| vec![Value::Int(*a), Value::Float(*b)]).collect(),
        )
        .unwrap();
        let snap = Snapshot::capture(&db).unwrap();
        let bytes = snap.to_bytes();
        let mut restored = xdmod::warehouse::Database::new();
        Snapshot::from_bytes(&bytes).unwrap().restore_into(&mut restored).unwrap();
        prop_assert_eq!(
            db.table("s", "t").unwrap().content_checksum(),
            restored.table("s", "t").unwrap().content_checksum()
        );
    }

    #[test]
    fn content_checksum_is_permutation_invariant(mut rows in prop::collection::vec(any::<i64>(), 1..30), rotate in 0usize..30) {
        let schema = SchemaBuilder::new("t").required("a", ColumnType::Int).build().unwrap();
        let mut t1 = Table::new(schema.clone());
        t1.insert_batch(rows.iter().map(|v| vec![Value::Int(*v)]).collect()).unwrap();
        let k = rotate % rows.len();
        rows.rotate_left(k);
        let mut t2 = Table::new(schema);
        t2.insert_batch(rows.iter().map(|v| vec![Value::Int(*v)]).collect()).unwrap();
        prop_assert_eq!(t1.content_checksum(), t2.content_checksum());
    }

    // ---------------- auth ----------------

    #[test]
    fn tampered_assertions_never_validate(subject in "[a-z]{1,10}", attacker in "[a-z]{1,10}") {
        use xdmod::auth::Assertion;
        prop_assume!(subject != attacker);
        let a = Assertion::issue("idp", &subject, "sp", Default::default(), 1000, 300, 42);
        let mut forged = a.clone();
        forged.subject = attacker;
        prop_assert!(forged.validate(42, "sp", 1100).is_err());
        // The untampered one still validates.
        prop_assert!(a.validate(42, "sp", 1100).is_ok());
    }

    #[test]
    fn identity_dedup_is_idempotent(emails in prop::collection::vec(0u8..5, 1..20)) {
        use xdmod::auth::{IdentityMap, User};
        let mut map = IdentityMap::new();
        for (i, e) in emails.iter().enumerate() {
            map.register(
                &format!("inst{}", i % 3),
                &User::member(&format!("u{i}"), &format!("person{e}@x.edu"), "x.edu"),
            );
        }
        map.auto_deduplicate();
        let persons = map.person_count();
        // Distinct emails = distinct persons after dedup.
        let mut uniq = emails.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(persons, uniq.len());
        // Running again changes nothing.
        prop_assert_eq!(map.auto_deduplicate(), 0);
        prop_assert_eq!(map.person_count(), uniq.len());
    }

    // ---------------- SU conversion ----------------

    #[test]
    fn su_conversion_is_linear(factor in 0.01f64..100.0, h1 in 0.0f64..1e6, h2 in 0.0f64..1e6) {
        use xdmod::realms::SuConverter;
        let mut c = SuConverter::new();
        c.set_factor("r", factor);
        let lhs = c.xdsu("r", h1 + h2);
        let rhs = c.xdsu("r", h1) + c.xdsu("r", h2);
        prop_assert!((lhs - rhs).abs() <= 1e-9 * (1.0 + lhs.abs()));
        prop_assert!((c.nu("r", h1) - c.xdsu("r", h1) * xdmod::realms::NUS_PER_XDSU).abs() < 1e-6);
    }

    // ---------------- alert flap damping ----------------

    // An arbitrary interleaving of fault/ok observations over a handful
    // of (family, target) identities, at arbitrary (monotone) times,
    // must never violate the engine's core invariants: at most one
    // alert per identity, a stable id across the whole run, a monotone
    // generation counter, and flap-damped notifications — a re-fire
    // within the debounce window folds into the existing alert instead
    // of dispatching a fresh notification.
    #[test]
    fn alert_engine_folds_flaps_and_keeps_identity(
        steps in prop::collection::vec((0u8..2, 0usize..15, 1u64..2_000), 1..60),
    ) {
        use xdmod::alerts::{fingerprint, format_alert_id, AlertEngine, AlertRules, AlertState, FAMILIES};

        let targets = ["x", "y", "z"];
        let mut engine = AlertEngine::new(AlertRules::default());
        let mut now_ms = 0u64;
        let mut last_generation = engine.generation();
        let mut seen_ids: std::collections::HashMap<(usize, usize), String> =
            std::collections::HashMap::new();

        for (op, pick, dt) in steps {
            now_ms += dt;
            let family_at = pick % FAMILIES.len();
            let family = FAMILIES[family_at];
            let target = targets[pick % targets.len()];
            let sent_before = engine.notifications_sent() + engine.notifications_suppressed();
            if op == 0 {
                let was_open = engine
                    .get(&format_alert_id(fingerprint(family, target)))
                    .map(|a| a.state.is_open())
                    .unwrap_or(false);
                let id = engine.observe_fault(family, target, "prop fault", now_ms);
                // Identity is a pure function of (family, target).
                let prior = seen_ids
                    .entry((family_at, pick % targets.len()))
                    .or_insert_with(|| id.clone());
                prop_assert_eq!(&*prior, &id);
                // Folding into an open alert never notifies; opening or
                // reopening dispatches exactly one (sent or suppressed).
                let dispatched =
                    engine.notifications_sent() + engine.notifications_suppressed() - sent_before;
                prop_assert_eq!(dispatched, u64::from(!was_open));
            } else {
                engine.observe_ok(family, target, now_ms);
            }
            engine.tick(now_ms);
            // Generation only moves forward.
            prop_assert!(engine.generation() >= last_generation);
            last_generation = engine.generation();

            let alerts = engine.alerts();
            // At most one alert per identity, ever.
            let mut keys: Vec<(&str, &str)> = alerts
                .iter()
                .map(|a| (a.family.as_str(), a.target.as_str()))
                .collect();
            keys.sort_unstable();
            let total = keys.len();
            keys.dedup();
            prop_assert_eq!(keys.len(), total, "duplicate alert identities");
            for alert in &alerts {
                prop_assert!(alert.occurrences >= 1);
                prop_assert!(alert.occurrences > alert.flaps);
                // Acked-by only while acknowledged (never set here).
                prop_assert!(alert.acked_by.is_none() || alert.state == AlertState::Acknowledged);
            }
        }
    }

    // ---------------- cold-shard paging ----------------

    // An arbitrary interleaving of ingests and queries against a paged
    // database, with an arbitrary — and, under shrinking, pathologically
    // tiny — byte budget and page count, must be indistinguishable from
    // a fully-resident twin fed the same rows: every query result, the
    // final row stream, and the content checksum are byte-identical.
    // Between operations nothing is pinned, so the working set obeys the
    // budget outright (scans may transiently hold one pinned page above
    // it, but never past their own completion). Dyadic values (n/64)
    // keep float sums exact, so equality is `==`, not epsilon.
    #[test]
    fn paged_database_is_indistinguishable_from_resident_twin(
        ops in prop::collection::vec(
            (0u8..3, prop::collection::vec((0u8..5, 0u32..4096, 0i64..60), 1..8)),
            1..30,
        ),
        budget in 0u64..4096,
        pages in 1u32..10,
    ) {
        use xdmod::warehouse::{Database, PagingConfig};
        static PAGING_DIR_SEQ: std::sync::atomic::AtomicUsize =
            std::sync::atomic::AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "xdmod-paging-prop-{}-{}",
            std::process::id(),
            PAGING_DIR_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        ));
        let schema = SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .required("end_time", ColumnType::Time)
            .required("cpu_hours", ColumnType::Float)
            .build()
            .unwrap();
        let mut paged = Database::new();
        paged
            .enable_paging(
                PagingConfig::new(&dir)
                    .budget_bytes(budget)
                    .pages_per_table(pages),
            )
            .unwrap();
        let mut resident = Database::new();
        for db in [&mut paged, &mut resident] {
            db.create_schema("s").unwrap();
            db.create_table("s", schema.clone()).unwrap();
        }
        for (op, payload) in &ops {
            if *op == 0 {
                let batch: Vec<Row> = payload
                    .iter()
                    .map(|(k, v, d)| {
                        vec![
                            Value::Str(format!("res-{k}")),
                            Value::Time(*d * 86_400),
                            Value::Float(*v as f64 / 64.0),
                        ]
                    })
                    .collect();
                paged.insert("s", "jobfact", batch.clone()).unwrap();
                resident.insert("s", "jobfact", batch).unwrap();
            } else {
                let query = match (*op, payload[0].0 % 2) {
                    (1, 0) => Query::new()
                        .group_by_column("resource")
                        .aggregate(Aggregate::count("n"))
                        .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total")),
                    (1, _) => Query::new()
                        .group_by_period("end_time", Period::Day)
                        .aggregate(Aggregate::count("n"))
                        .aggregate(Aggregate::of(AggFn::Max, "cpu_hours", "peak")),
                    _ => Query::new()
                        .aggregate(Aggregate::count("n"))
                        .aggregate(Aggregate::of(AggFn::Min, "cpu_hours", "low")),
                };
                // Stateless scans, so every query crosses the pages.
                let scan = |db: &xdmod::warehouse::Database| {
                    let table = db.table("s", "jobfact").unwrap();
                    run_sharded(&query, table, db.parallelism(), db.telemetry(), "jobfact").unwrap()
                };
                let got = scan(&paged);
                let want = scan(&resident);
                prop_assert_eq!(got, want, "paged result diverged (budget {})", budget);
            }
            let stats = paged.residency_stats().unwrap();
            prop_assert!(
                stats.resident_bytes <= budget,
                "resident {} bytes over the {}-byte budget between ops: {:?}",
                stats.resident_bytes, budget, stats
            );
        }
        {
            let got = paged.table("s", "jobfact").unwrap();
            let want = resident.table("s", "jobfact").unwrap();
            prop_assert_eq!(got.len(), want.len());
            prop_assert_eq!(got.content_checksum(), want.content_checksum());
            let got_rows = got.rows().unwrap();
            let want_rows = want.rows().unwrap();
            prop_assert_eq!(&got_rows[..], &want_rows[..]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
