//! Seeded property tests colocated with the warehouse crate, covering the
//! storage and query invariants the rest of the workspace leans on, and a
//! bytes-in / typed-error-out loop over every decoder of stored bytes.
//!
//! Cases come from `xdmod_chaos::DeterministicRng`; `PROP_SEED` moves the
//! whole run to another stream. Each case prints its seed first, so the
//! captured output of a failing test ends with the case to replay.

#[path = "support/largest_alloc.rs"]
mod largest_alloc;

use xdmod_chaos::DeterministicRng;
use xdmod_warehouse::binlog::{decode_payload, decode_stream, encode_payload};
use xdmod_warehouse::checksum::crc32;
use xdmod_warehouse::disk::spill::{self, SpillMeta, SPILL_MAGIC};
use xdmod_warehouse::{
    AggFn, Aggregate, ColumnType, Database, EventPayload, LogPosition, OrderBy, Predicate, Query,
    Row, SchemaBuilder, Snapshot, Table, Value, WarehouseError,
};

const CASES: u64 = 256;

fn base_seed() -> u64 {
    std::env::var("PROP_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED)
}

/// Run `body` over `CASES` generators, one per case seed.
fn for_each_case(name: &str, mut body: impl FnMut(&mut DeterministicRng)) {
    let base = base_seed();
    for case in 0..CASES {
        let seed = base.wrapping_mul(0x9E37_79B9).wrapping_add(case);
        println!("{name}: PROP_SEED={base} case {case} (rng seed {seed})");
        body(&mut DeterministicRng::new(seed));
    }
}

fn gen_keys(rng: &mut DeterministicRng, distinct: u64, len: (u64, u64)) -> Vec<u8> {
    (0..rng.gen_range(len.0, len.1))
        .map(|_| rng.gen_range(0, distinct) as u8)
        .collect()
}

fn gen_f64(rng: &mut DeterministicRng, lo: f64, hi: f64) -> f64 {
    lo + rng.next_f64() * (hi - lo)
}

fn gen_values(rng: &mut DeterministicRng, lo: f64, hi: f64, len: (u64, u64)) -> Vec<f64> {
    (0..rng.gen_range(len.0, len.1))
        .map(|_| gen_f64(rng, lo, hi))
        .collect()
}

fn small_table(keys: &[u8], values: &[f64]) -> Table {
    let mut t = Table::new(
        SchemaBuilder::new("t")
            .required("k", ColumnType::Str)
            .required("v", ColumnType::Float)
            .nullable("opt", ColumnType::Float)
            .build()
            .unwrap(),
    );
    let n = keys.len().min(values.len());
    t.insert_batch(
        (0..n)
            .map(|i| {
                vec![
                    Value::Str(format!("k{}", keys[i])),
                    Value::Float(values[i]),
                    if i % 3 == 0 {
                        Value::Null
                    } else {
                        Value::Float(values[i] * 2.0)
                    },
                ]
            })
            .collect(),
    )
    .unwrap();
    t
}

fn count_where(t: &Table, filter: Option<Predicate>) -> f64 {
    let mut q = Query::new().aggregate(Aggregate::count("n"));
    if let Some(p) = filter {
        q = q.filter(p);
    }
    q.run(t).unwrap().scalar_f64("n").unwrap()
}

/// Filters can only shrink the matched row set, never grow it.
#[test]
fn filters_are_monotone() {
    for_each_case("filters_are_monotone", |rng| {
        let keys = gen_keys(rng, 4, (0, 100));
        let values = gen_values(rng, -100.0, 100.0, (0, 100));
        let threshold = gen_f64(rng, -100.0, 100.0);
        let t = small_table(&keys, &values);
        let all = count_where(&t, None);
        let filtered = count_where(
            &t,
            Some(Predicate::Range {
                column: "v".into(),
                min: Some(threshold),
                max: None,
            }),
        );
        assert!(filtered <= all);
        // Complementary filters partition the rows exactly.
        let complement = count_where(
            &t,
            Some(Predicate::Range {
                column: "v".into(),
                min: None,
                max: Some(threshold),
            }),
        );
        assert_eq!(filtered + complement, all);
    });
}

/// MIN ≤ AVG ≤ MAX whenever any non-NULL value exists.
#[test]
fn min_avg_max_ordering() {
    for_each_case("min_avg_max_ordering", |rng| {
        let keys = gen_keys(rng, 3, (1, 80));
        let values = gen_values(rng, -1e9, 1e9, (1, 80));
        let t = small_table(&keys, &values);
        let rs = Query::new()
            .aggregate(Aggregate::of(AggFn::Min, "v", "lo"))
            .aggregate(Aggregate::of(AggFn::Avg, "v", "mid"))
            .aggregate(Aggregate::of(AggFn::Max, "v", "hi"))
            .run(&t)
            .unwrap();
        let lo = rs.scalar_f64("lo").unwrap();
        let mid = rs.scalar_f64("mid").unwrap();
        let hi = rs.scalar_f64("hi").unwrap();
        let eps = 1e-9 * (1.0 + hi.abs() + lo.abs());
        assert!(lo <= mid + eps);
        assert!(mid <= hi + eps);
    });
}

/// NULLs never contribute to Sum/Avg but Count counts rows.
#[test]
fn null_semantics() {
    for_each_case("null_semantics", |rng| {
        let keys = gen_keys(rng, 2, (1, 60));
        let values = gen_values(rng, -1e6, 1e6, (1, 60));
        let t = small_table(&keys, &values);
        let n = keys.len().min(values.len());
        let rs = Query::new()
            .aggregate(Aggregate::count("rows"))
            .aggregate(Aggregate::of(AggFn::Sum, "opt", "sum_opt"))
            .run(&t)
            .unwrap();
        assert_eq!(rs.scalar_f64("rows").unwrap() as usize, n);
        // Sum over "opt" equals 2x the sum of the non-null positions.
        let expect: f64 = (0..n).filter(|i| i % 3 != 0).map(|i| values[i] * 2.0).sum();
        let got = rs.scalar_f64("sum_opt").unwrap();
        assert!((got - expect).abs() <= 1e-6 * (1.0 + expect.abs()));
    });
}

/// Top-N via OrderBy+limit agrees with full sort.
#[test]
fn top_n_agrees_with_full_sort() {
    for_each_case("top_n_agrees_with_full_sort", |rng| {
        let keys = gen_keys(rng, 6, (1, 100));
        let values = gen_values(rng, 0.0, 1e6, (1, 100));
        let n = rng.gen_range(1, 5) as usize;
        let t = small_table(&keys, &values);
        let by_key =
            Query::new()
                .group_by_column("k")
                .aggregate(Aggregate::of(AggFn::Sum, "v", "total"));
        let full = by_key.clone().run(&t).unwrap();
        let mut totals: Vec<f64> = full.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
        totals.sort_by(|a, b| b.total_cmp(a));
        let top = by_key
            .order(OrderBy::ColumnDesc("total".into()))
            .limit(n)
            .run(&t)
            .unwrap();
        let got: Vec<f64> = top.rows.iter().map(|r| r[1].as_f64().unwrap()).collect();
        assert_eq!(&got[..], &totals[..n.min(totals.len())]);
    });
}

/// Replaying a database's binlog into a fresh database reproduces every
/// table's checksum, regardless of the operation mix — and so does the
/// same history compacted into a snapshot.
#[test]
fn binlog_replay_and_snapshot_reproduce_database() {
    for_each_case("binlog_replay_and_snapshot_reproduce_database", |rng| {
        let mut db = Database::new();
        db.create_schema("s").unwrap();
        db.create_table(
            "s",
            SchemaBuilder::new("t")
                .required("a", ColumnType::Int)
                .build()
                .unwrap(),
        )
        .unwrap();
        for _ in 0..rng.gen_range(1, 60) {
            if rng.gen_range(0, 3) < 2 {
                let payload = rng.next_u64() as i64;
                db.insert("s", "t", vec![vec![Value::Int(payload)]])
                    .unwrap();
            } else {
                db.truncate("s", "t").unwrap();
            }
        }
        let mut replica = Database::new();
        for ev in db.binlog_after(LogPosition::START).unwrap() {
            replica.apply_event(&ev.payload).unwrap();
        }
        let mut restored = Database::new();
        Snapshot::from_bytes(&Snapshot::capture(&db).unwrap().to_bytes())
            .unwrap()
            .restore_into(&mut restored)
            .unwrap();
        let want = db.table("s", "t").unwrap();
        for copy in [&replica, &restored] {
            let got = copy.table("s", "t").unwrap();
            assert_eq!(want.content_checksum(), got.content_checksum());
            assert_eq!(want.rows().unwrap().to_vec(), got.rows().unwrap().to_vec());
        }
    });
}

// ----------------------------------------------------------------------
// Bytes in, typed error out: every decoder of stored bytes
// ----------------------------------------------------------------------

/// Run a decoder over `input`: it may accept or refuse, but it must
/// return (a panic fails the test) and must not reserve more than a
/// small multiple of what it was given.
fn bounded<T>(what: &str, input_len: usize, decode: impl FnOnce() -> T) -> T {
    let (out, largest) = largest_alloc::largest_during(decode);
    // Decoding can turn one input byte into a 24-byte `Value`.
    assert!(
        largest <= 64 * input_len + 4096,
        "{what}: a {input_len}-byte input made the decoder allocate {largest} bytes at once"
    );
    out
}

fn awkward_rows() -> Vec<Row> {
    vec![
        vec![
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Str(String::new()),
            Value::Null,
        ],
        vec![
            Value::Int(-1),
            Value::Float(f64::NEG_INFINITY),
            Value::Str("naïve — 計算 🖥".into()),
            Value::Time(1_483_228_800),
        ],
        vec![
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Str("plain".into()),
            Value::Null,
        ],
    ]
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
            .build()
            .unwrap(),
    )
    .unwrap();
    db.insert("s", "t", awkward_rows()).unwrap();
    db
}

/// `len | epoch 0 | seqno | payload | crc` — the documented binlog frame,
/// built here independently of the crate's encoder.
fn frame(seqno: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = ((payload.len() + 16) as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&seqno.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[4..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The documented version-3 dump: counted, CRC'd header, then frames.
fn dump(frames: &[Vec<u8>], rows: u64) -> Vec<u8> {
    let mut out = b"XDWDUMP\0".to_vec();
    out.extend_from_slice(&3u32.to_le_bytes());
    out.extend_from_slice(&(frames.len() as u64).to_le_bytes());
    out.extend_from_slice(&rows.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend(frames.iter().flatten());
    out
}

/// The documented spill file around an arbitrary body.
fn spill_file(meta: &SpillMeta, body: &[u8]) -> Vec<u8> {
    let mut out = SPILL_MAGIC.to_vec();
    out.extend_from_slice(&meta.store_id.to_le_bytes());
    out.extend_from_slice(&meta.page.to_le_bytes());
    out.extend_from_slice(&meta.gen.to_le_bytes());
    out.extend_from_slice(&meta.rows.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Parse a dump, then decode every event it carries.
fn replay(dump: &[u8]) -> Result<Vec<EventPayload>, WarehouseError> {
    Snapshot::from_bytes(dump)?.events().collect()
}

fn is_typed_refusal<T>(r: &Result<T, WarehouseError>) -> bool {
    matches!(
        r,
        Err(WarehouseError::CorruptBinlog(_)
            | WarehouseError::CorruptSnapshot(_)
            | WarehouseError::Snapshot(_)
            | WarehouseError::SpillLost { .. })
    )
}

/// One seeded edit of `bytes`: bit flips, a length-prefix-sized window
/// overwritten with a huge or random count, truncation, or trailing junk.
fn mutate(rng: &mut DeterministicRng, bytes: &mut Vec<u8>) {
    let len = bytes.len() as u64;
    match rng.gen_range(0, 5) {
        0 => {
            for _ in 0..rng.gen_range(1, 4) {
                let at = rng.gen_range(0, len) as usize;
                bytes[at] ^= 1 << rng.gen_range(0, 8);
            }
        }
        1 | 2 if len >= 4 => {
            let at = rng.gen_range(0, len - 3) as usize;
            let count = match rng.gen_range(0, 3) {
                0 => u32::MAX,
                1 => 1 << rng.gen_range(16, 32),
                _ => rng.next_u64() as u32,
            };
            bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
        }
        3 => bytes.truncate(rng.gen_range(0, len) as usize),
        _ => bytes.extend((0..rng.gen_range(1, 9)).map(|_| rng.next_u64() as u8)),
    }
}

#[test]
fn decoders_return_typed_errors_and_never_over_allocate() {
    let db = awkward_db();
    let stream = db.binlog_export(LogPosition::START).unwrap();
    let events = decode_stream(&stream).unwrap();
    let dump_bytes = Snapshot::capture(&db).unwrap().to_bytes();
    let dir = std::env::temp_dir().join(format!("xdmod-decoders-{}", std::process::id()));
    let tagged: Vec<(u64, Row)> = (0u64..).zip(awkward_rows()).collect();
    let meta = spill::write_page(&dir, false, None, 7, 2, 1, &tagged).unwrap();
    let spill_bytes = std::fs::read(&meta.path).unwrap();
    let read_spill = |bytes: &[u8]| {
        std::fs::write(&meta.path, bytes).unwrap();
        bounded("spill", bytes.len(), || spill::read_page(&meta, "t", None))
    };

    // The valid encodings decode, and the hand-built containers above
    // agree with the crate's writers byte for byte.
    assert_eq!(events.len(), 3);
    let payloads: Vec<Vec<u8>> = events.iter().map(|e| encode_payload(&e.payload)).collect();
    let frames: Vec<Vec<u8>> = (1u64..).zip(&payloads).map(|(n, p)| frame(n, p)).collect();
    assert_eq!(frames.concat(), stream);
    assert_eq!(dump(&frames, 3), dump_bytes);
    assert_eq!(Snapshot::from_bytes(&dump_bytes).unwrap().total_rows(), 3);
    assert_eq!(read_spill(&spill_bytes).unwrap(), tagged);
    assert_eq!(
        spill_file(&meta, &spill_bytes[spill::SPILL_HEADER_LEN..]),
        spill_bytes
    );

    // Truncation at every offset.
    for cut in 0..dump_bytes.len() {
        let r = bounded("dump", cut, || Snapshot::from_bytes(&dump_bytes[..cut]));
        assert!(is_typed_refusal(&r), "dump cut at {cut}: {r:?}");
    }
    for cut in 0..stream.len() {
        // A cut at a frame boundary is a shorter valid stream.
        match bounded("stream", cut, || decode_stream(&stream[..cut])) {
            Ok(prefix) => assert_eq!(prefix[..], events[..prefix.len()], "cut at {cut}"),
            r => assert!(is_typed_refusal(&r), "stream cut at {cut}: {r:?}"),
        }
    }
    for cut in 0..spill_bytes.len() {
        let r = read_spill(&spill_bytes[..cut]);
        assert!(
            matches!(r, Err(WarehouseError::SpillLost { page: 2, .. })),
            "spill cut at {cut}: {r:?}"
        );
    }

    // A version-2 dump was a JSON document.
    let v2 = br#"{"version":2,"content_checksum":77,"schemas":{"s":{"t":{"schema":{"name":"t","columns":[]},"rows":[]}}}}"#;
    assert!(matches!(
        bounded("v2 dump", v2.len(), || Snapshot::from_bytes(v2)),
        Err(WarehouseError::Snapshot(_))
    ));

    // Length prefixes inflated behind a valid CRC: the smallest hostile
    // frames, which checksum fine and claim 2^32-1 rows, values, columns
    // or string bytes.
    let max = u32::MAX.to_le_bytes();
    let empty = 0u32.to_le_bytes();
    let hostile: Vec<Vec<u8>> = vec![
        [&[3u8][..], &empty, &empty, &max].concat(), // InsertBatch: rows
        [&[3u8][..], &empty, &empty, &1u32.to_le_bytes(), &max].concat(), // …: arity
        [&[2u8][..], &empty, &empty, &max].concat(), // CreateTable: columns
        [&[1u8][..], &max].concat(),                 // CreateSchema: string
    ];
    for payload in &hostile {
        let r = bounded("hostile payload", payload.len(), || decode_payload(payload));
        assert!(is_typed_refusal(&r), "{payload:?}: {r:?}");
        let framed = frame(1, payload);
        let r = bounded("hostile frame", framed.len(), || decode_stream(&framed));
        assert!(is_typed_refusal(&r), "{payload:?}: {r:?}");
        // Parsing a dump reads payload prefixes only, so the refusal may
        // come at replay instead — typed and bounded either way.
        let dumped = dump(&[framed], 0);
        let r = bounded("hostile dump", dumped.len(), || replay(&dumped));
        assert!(is_typed_refusal(&r), "{payload:?}: {r:?}");
    }
    // …and a spill body whose only row claims 2^32-1 values.
    let body = [&7u64.to_le_bytes()[..], &max].concat();
    let one_row = SpillMeta {
        rows: 1,
        ..meta.clone()
    };
    let file = spill_file(&one_row, &body);
    std::fs::write(&meta.path, &file).unwrap();
    let r = bounded("hostile spill", file.len(), || {
        spill::read_page(&one_row, "t", None)
    });
    assert!(matches!(r, Err(WarehouseError::SpillLost { .. })), "{r:?}");

    // The seeded loop: damage raw files (their CRCs refuse them), and
    // damage payloads re-sealed behind valid CRCs (the decoders see them).
    let mut rng = DeterministicRng::new(base_seed());
    let body = &spill_bytes[spill::SPILL_HEADER_LEN..];
    for round in 0..2_000 {
        let mut raw = [&dump_bytes, &stream, &spill_bytes][round % 3].clone();
        mutate(&mut rng, &mut raw);
        match round % 3 {
            0 if raw != dump_bytes => {
                let r = bounded("dump", raw.len(), || Snapshot::from_bytes(&raw));
                assert!(is_typed_refusal(&r), "round {round}: {r:?}");
            }
            1 => {
                let r = bounded("stream", raw.len(), || decode_stream(&raw));
                assert!(r.is_ok() || is_typed_refusal(&r), "round {round}: {r:?}");
            }
            2 if raw != spill_bytes => {
                let r = read_spill(&raw);
                assert!(is_typed_refusal(&r), "round {round}: {r:?}");
            }
            _ => {}
        }

        let mut payload = payloads[round % payloads.len()].clone();
        mutate(&mut rng, &mut payload);
        let r = bounded("payload", payload.len(), || decode_payload(&payload));
        assert!(r.is_ok() || is_typed_refusal(&r), "round {round}: {r:?}");
        let framed = [frames[0].clone(), frame(2, &payload)];
        let joined = framed.concat();
        let r = bounded("resealed stream", joined.len(), || decode_stream(&joined));
        assert!(r.is_ok() || is_typed_refusal(&r), "round {round}: {r:?}");
        let dumped = dump(&framed, 3);
        let r = bounded("resealed dump", dumped.len(), || replay(&dumped));
        assert!(r.is_ok() || is_typed_refusal(&r), "round {round}: {r:?}");

        let mut resealed = body.to_vec();
        mutate(&mut rng, &mut resealed);
        let r = read_spill(&spill_file(&meta, &resealed));
        assert!(r.is_ok() || is_typed_refusal(&r), "round {round}: {r:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
