//! Failure-injection tests for the replication layer: corrupted streams,
//! crashed-and-restarted replicators, epoch changes under a live link,
//! and worker-thread error surfacing.

use std::sync::Arc;
use std::time::Duration;
use xdmod_replication::{LinkConfig, LiveReplicator, LooseReceiver, LooseShipper, Replicator};
use xdmod_warehouse::{
    shared, AggFn, Aggregate, AggregationSpec, CivilDate, ColumnType, Database, DimSpec,
    LogPosition, Period, SchemaBuilder, SharedDatabase, Value,
};

fn satellite(n_rows: usize) -> SharedDatabase {
    let mut db = Database::new();
    db.create_schema("xdmod_x").unwrap();
    db.create_table(
        "xdmod_x",
        SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .required("cpu_hours", ColumnType::Float)
            .build()
            .unwrap(),
    )
    .unwrap();
    for i in 0..n_rows {
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("r".into()), Value::Float(i as f64)]],
        )
        .unwrap();
    }
    shared(db)
}

#[test]
fn replicator_restart_resumes_from_watermark() {
    let src = satellite(5);
    let dst = shared(Database::new());
    let mut rep = Replicator::new(
        Arc::clone(&src),
        Arc::clone(&dst),
        LinkConfig::renaming("xdmod_x", "hub_x"),
    );
    rep.poll().unwrap();
    let watermark = rep.position();
    drop(rep); // "crash"

    src.write()
        .insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("r".into()), Value::Float(99.0)]],
        )
        .unwrap();

    // Restart from the saved watermark: only the new row crosses.
    let mut rep2 = Replicator::new(
        Arc::clone(&src),
        Arc::clone(&dst),
        LinkConfig::renaming("xdmod_x", "hub_x"),
    );
    rep2.seek(watermark).unwrap();
    assert_eq!(rep2.poll().unwrap(), 1);
    assert_eq!(dst.read().table("hub_x", "jobfact").unwrap().len(), 6);
}

#[test]
fn corrupted_loose_batch_leaves_receiver_consistent() {
    let src = satellite(3);
    let hub = shared(Database::new());
    let mut shipper = LooseShipper::new(Arc::clone(&src));
    let mut receiver =
        LooseReceiver::new(Arc::clone(&hub), LinkConfig::renaming("xdmod_x", "hub_x"));
    let batch = shipper.export_batch().unwrap();
    // Corrupt the middle of the batch in transit.
    let mut bytes = batch.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    assert!(receiver.apply_batch(&bytes).is_err());
    // The intact original still applies from the receiver's watermark —
    // nothing applied from the corrupt copy may be double-applied.
    let applied = receiver.apply_batch(&batch).unwrap();
    assert!(applied > 0);
    assert_eq!(hub.read().table("hub_x", "jobfact").unwrap().len(), 3);
    assert_eq!(
        src.read()
            .table("xdmod_x", "jobfact")
            .unwrap()
            .content_checksum(),
        hub.read()
            .table("hub_x", "jobfact")
            .unwrap()
            .content_checksum()
    );
}

#[test]
fn source_epoch_rotation_is_surfaced_not_silently_reapplied() {
    // A satellite restored from backup rotates its binlog epoch; a
    // replicator holding an old-epoch watermark re-reads everything,
    // which (by design) would duplicate — Federation::restore_member
    // re-seeks for exactly this reason. Verify the raw behaviour is
    // observable.
    let src = satellite(2);
    let dst = shared(Database::new());
    let mut rep = Replicator::new(
        Arc::clone(&src),
        Arc::clone(&dst),
        LinkConfig::renaming("xdmod_x", "hub_x"),
    );
    rep.poll().unwrap();

    // Simulate restore: rotate epoch and repopulate.
    {
        let mut db = src.write();
        db.reset_for_restore().unwrap();
        db.create_schema("xdmod_x").unwrap();
        db.create_table(
            "xdmod_x",
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert(
            "xdmod_x",
            "jobfact",
            vec![vec![Value::Str("r".into()), Value::Float(0.0)]],
        )
        .unwrap();
    }
    // Without a re-seek, the whole new generation replays.
    let applied = rep.poll().unwrap();
    assert!(applied >= 3); // schema + table + insert
    assert_eq!(dst.read().table("hub_x", "jobfact").unwrap().len(), 3); // 2 old + 1 replayed

    // With a proper re-seek (what Federation::restore_member does), a
    // fresh link skips the restored history.
    let dst2 = shared(Database::new());
    let mut rep2 = Replicator::new(
        Arc::clone(&src),
        Arc::clone(&dst2),
        LinkConfig::renaming("xdmod_x", "hub_x"),
    );
    rep2.seek(src.read().binlog_position()).unwrap();
    assert_eq!(rep2.poll().unwrap(), 0);
}

#[test]
fn live_replicator_surfaces_worker_errors() {
    // Target a database where the schema already exists with a
    // conflicting definition: the apply side must error, and the worker
    // must surface it rather than spin.
    let src = satellite(1);
    let dst = shared({
        let mut db = Database::new();
        db.create_schema("hub_x").unwrap();
        db.create_table(
            "hub_x",
            SchemaBuilder::new("jobfact")
                .required("different_layout", ColumnType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        db
    });
    let rep = Replicator::new(src, dst, LinkConfig::renaming("xdmod_x", "hub_x"));
    let live = LiveReplicator::start(rep, Duration::from_millis(1));
    // Give the worker a moment to hit the conflict.
    for _ in 0..100 {
        if live.last_error().is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let err = live.last_error().expect("worker error surfaced");
    assert!(
        err.to_string().contains("different definition"),
        "actual: {err}"
    );
    let _ = live.stop();
}

#[test]
fn resync_takes_the_rebuild_guard_against_parallel_aggregation() {
    // The race this guards: the hub's parallel rebuild plans aggregate
    // outputs under a read lock, and a resync rewrites the same schema's
    // fact tables before the outputs are applied. `resync_target` bumps
    // the target's rebuild generation inside its write lock, so the
    // apply phase sees a stale RebuildTicket and recomputes from the
    // resynced facts instead of installing the pre-resync view.
    let jan = |day: i64| CivilDate::new(2017, 1, 1).to_epoch() + (day - 1) * 86_400;
    let src = shared({
        let mut db = Database::new();
        db.create_schema("xdmod_x").unwrap();
        db.create_table(
            "xdmod_x",
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .required("end_time", ColumnType::Time)
                .build()
                .unwrap(),
        )
        .unwrap();
        for i in 0..4i64 {
            db.insert(
                "xdmod_x",
                "jobfact",
                vec![vec![
                    Value::Str("r".into()),
                    Value::Float(i as f64),
                    Value::Time(jan(i + 1)),
                ]],
            )
            .unwrap();
        }
        db
    });
    let hub = shared(Database::new());
    let mut rep = Replicator::new(
        Arc::clone(&src),
        Arc::clone(&hub),
        LinkConfig::renaming("xdmod_x", "hub_x"),
    );
    rep.poll().unwrap();

    let spec = AggregationSpec {
        fact_table: "jobfact".into(),
        time_column: "end_time".into(),
        dims: vec![DimSpec::Column("resource".into())],
        measures: vec![
            Aggregate::count("jobs"),
            Aggregate::of(AggFn::Sum, "cpu_hours", "total"),
        ],
        periods: vec![Period::Month],
        table_prefix: None,
    };

    // Phase 1 of the hub's parallel rebuild: compute under a read lock.
    let outputs = {
        let db = hub.read();
        spec.plan(&db, "hub_x").unwrap()
    };

    // The source gains a row and the link resyncs before phase 2 runs.
    src.write()
        .insert(
            "xdmod_x",
            "jobfact",
            vec![vec![
                Value::Str("r".into()),
                Value::Float(99.0),
                Value::Time(jan(20)),
            ]],
        )
        .unwrap();
    rep.resync_target().unwrap();

    // Phase 2: the guard fires and the aggregates are rebuilt from the
    // resynced facts — installing `outputs` verbatim would freeze the
    // totals at the pre-resync view.
    {
        let mut db = hub.write();
        spec.apply_outputs(&mut db, "hub_x", outputs).unwrap();
    }
    let db = hub.read();
    let agg = db.table("hub_x", "jobfact_by_month").unwrap();
    let idx = agg.schema().column_index("total").unwrap();
    let total: f64 = agg
        .rows()
        .unwrap()
        .iter()
        .map(|r| r[idx].as_f64().unwrap())
        .sum();
    assert_eq!(total, 0.0 + 1.0 + 2.0 + 3.0 + 99.0);

    // With no further ingest, the next rebuild is answered by the cache.
    let again = spec.plan(&db, "hub_x").unwrap();
    assert!(again.is_cached());
}

#[test]
fn future_epoch_watermark_is_rejected() {
    let src = satellite(1);
    let dst = shared(Database::new());
    let mut rep = Replicator::new(src, dst, LinkConfig::renaming("xdmod_x", "hub_x"));
    // A watermark beyond the source tail is rejected at seek time with a
    // typed error, before a poll can silently read an empty tail.
    let err = rep
        .seek(LogPosition {
            epoch: 42,
            seqno: 7,
        })
        .expect_err("beyond-tail seek must be rejected");
    match err {
        xdmod_replication::ReplicationError::SeekBeyondTail { requested, .. } => {
            assert_eq!(
                requested,
                LogPosition {
                    epoch: 42,
                    seqno: 7
                }
            );
        }
        other => panic!("expected SeekBeyondTail, got {other}"),
    }
    assert!(rep.poll().is_ok(), "the link itself stays usable");
}
