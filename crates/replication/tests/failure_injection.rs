//! Failure-injection tests for the replication layer: corrupted streams,
//! crashed-and-restarted replicators, epoch changes under a live link,
//! and step error surfacing.

use std::sync::Arc;
use std::time::Instant;
use xdmod_replication::{Link, LinkConfig, Replicator};
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
fn source_tail_damaged_mid_stream_lands_every_row_exactly_once() {
    let src = satellite(3);
    let hub = shared(Database::new());
    let mut rep = Replicator::new(
        Arc::clone(&src),
        Arc::clone(&hub),
        LinkConfig::renaming("xdmod_x", "hub_x"),
    );
    rep.poll().unwrap();
    // Two more rows, then a crash damages the record of the second one.
    let row = |v: f64| vec![vec![Value::Str("r".into()), Value::Float(v)]];
    {
        let mut s = src.write();
        s.insert("xdmod_x", "jobfact", row(3.0)).unwrap();
        s.insert("xdmod_x", "jobfact", row(4.0)).unwrap();
        assert!(s.corrupt_binlog_tail_byte());
    }
    // The poll repairs the source log past the damage and applies the
    // surviving record; the dropped one's row exists only in the table.
    assert_eq!(rep.poll().unwrap(), 1);
    assert_eq!(rep.stats().source_repairs, 1);
    assert_eq!(hub.read().table("hub_x", "jobfact").unwrap().len(), 4);
    // The repair is the cue to resync; later rows land once on top of it.
    rep.resync_target().unwrap();
    src.write().insert("xdmod_x", "jobfact", row(5.0)).unwrap();
    assert_eq!(rep.poll().unwrap(), 1);
    assert_eq!(rep.poll().unwrap(), 0);
    let (src, hub) = (src.read(), hub.read());
    let (ours, theirs) = (
        src.table("xdmod_x", "jobfact").unwrap(),
        hub.table("hub_x", "jobfact").unwrap(),
    );
    assert_eq!((ours.len(), theirs.len()), (6, 6));
    assert_eq!(ours.content_checksum(), theirs.content_checksum());
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
fn live_link_surfaces_step_errors() {
    // Target a database where the schema already exists with a
    // conflicting definition: the apply side must error, and the link
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
    let link = Link::new(rep);
    assert!(link.step(Instant::now()).outcome.is_err());
    let err = link.last_error().expect("step error surfaced");
    assert!(
        err.to_string().contains("different definition"),
        "actual: {err}"
    );
}

#[test]
fn resync_shows_in_the_next_aggregate_answer() {
    // A hub aggregate is an answer over retained partials. A resync
    // rewrites the fact table wholesale, so the next answer must come from
    // the resynced rows, not from partials folded before the rewrite.
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
    let month = spec.period_query(Period::Month);
    let total = || {
        let rs = hub.read().query("hub_x", "jobfact", &month).unwrap();
        let idx = rs.column_index("total").unwrap();
        rs.rows
            .iter()
            .map(|r| r[idx].as_f64().unwrap())
            .sum::<f64>()
    };
    assert_eq!(total(), 0.0 + 1.0 + 2.0 + 3.0);

    // The source gains a row and the link resyncs instead of polling.
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
    assert_eq!(total(), 0.0 + 1.0 + 2.0 + 3.0 + 99.0);
    // Answering wrote nothing: the hub schema holds the replicated facts.
    let hub = hub.read();
    assert_eq!(hub.table_names("hub_x").unwrap(), ["jobfact"]);
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
