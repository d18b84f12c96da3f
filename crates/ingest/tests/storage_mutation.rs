//! The storage shredder on hostile input, and on the simulator's own.
//!
//! Seeded byte and token mutations of `StorageSim::ccr` documents must
//! each shred to `Ok` or a typed `IngestError`, never a panic. Unmutated,
//! a year of documents must shred to exactly the values the generator
//! drew, which is Fig. 6's input.

use std::panic::{catch_unwind, AssertUnwindSafe};

use xdmod_chaos::DeterministicRng;
use xdmod_check::json;
use xdmod_ingest::storage_json::shred;
use xdmod_sim::StorageSim;
use xdmod_warehouse::Value;

const SEED: u64 = 20180923;

/// Text spliced into a document: values each field kind must refuse,
/// broken structure, broken escapes, and bytes JSON forbids.
const TOKENS: &[&str] = &[
    "-0",
    "1e400",
    "-1e400",
    "-1",
    "12.0",
    "1e3",
    "9223372036854775808",
    "5e-324",
    "null",
    "true",
    "\"\"",
    "\"x\"",
    "[]",
    "{}",
    "[",
    "]",
    "{",
    "}",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\u12",
    "0x1",
    "01",
    "1.",
    ".5",
    "-",
    "+1",
    "NaN",
    "é",
    "\u{0}",
    "\u{7f}",
    "\"zz\":1,",
    "\"ts\":\"2017-13-40T99:99:99\",",
    "\"file_count\":-0,",
];

/// One byte or token mutation of `doc`, in place.
fn mutate(doc: &mut Vec<u8>, rng: &mut DeterministicRng) {
    let at = rng.gen_range(0, doc.len() as u64 + 1) as usize;
    let span = (rng.gen_range(0, 12) as usize).min(doc.len() - at);
    match rng.gen_range(0, 8) {
        // Bytes: overwrite, insert, delete, truncate.
        0 if at < doc.len() => doc[at] = rng.gen_range(0, 256) as u8,
        1 => doc.insert(at, rng.gen_range(0, 128) as u8),
        2 if at < doc.len() => {
            doc.remove(at);
        }
        3 => doc.truncate(at),
        // Tokens: splice one over a short span, or between two bytes.
        4 | 5 => {
            let token = TOKENS[rng.gen_range(0, TOKENS.len() as u64) as usize];
            doc.splice(at..at + span, token.bytes());
        }
        // Copy a span of the document somewhere else.
        6 => {
            let copy = doc[at..at + span].to_vec();
            let to = rng.gen_range(0, doc.len() as u64 + 1) as usize;
            doc.splice(to..to, copy);
        }
        // Nesting far past any parser's stack.
        _ => {
            let open = if rng.gen_range(0, 2) == 0 {
                "["
            } else {
                "{\"a\":["
            };
            let deep = open.repeat(rng.gen_range(100, 20_000) as usize);
            doc.splice(at..at, deep.bytes());
        }
    }
}

#[test]
fn mutated_documents_shred_or_fail_typed_never_panic() {
    let mut rng = DeterministicRng::new(SEED);
    // Each case shreds a window of one to three consecutive samples, so
    // a mutation lands in text the validator reads.
    let mut samples = Vec::new();
    for (seed, month) in [(SEED, 1), (SEED + 1, 6), (SEED + 2, 12)] {
        let doc = StorageSim::ccr(seed).json_document(2017, month);
        let parsed = json::parse(&doc).unwrap();
        samples.extend(parsed.root().as_array().unwrap().map(|s| s.to_string()));
    }
    let (mut cases, mut mutations, mut accepted) = (0u64, 0u64, 0u64);
    while mutations < 100_000 {
        let start = rng.gen_range(0, samples.len() as u64 - 2) as usize;
        let window = &samples[start..start + rng.gen_range(1, 4) as usize];
        let mut doc = format!("[{}]", window.join(",")).into_bytes();
        for _ in 0..rng.gen_range(1, 4) {
            mutate(&mut doc, &mut rng);
            mutations += 1;
        }
        let text = String::from_utf8_lossy(&doc);
        match catch_unwind(AssertUnwindSafe(|| shred(&text))) {
            Ok(Ok((rows, report))) => {
                assert_eq!(rows.len(), report.ingested);
                accepted += 1;
            }
            Ok(Err(err)) => {
                if let Some(record) = err.line {
                    assert!((1..=window.len()).contains(&record), "case {cases}: {err}");
                }
            }
            Err(_) => panic!("case {cases}: shred panicked on {text:?}"),
        }
        cases += 1;
    }
    // Some mutations (a digit for a digit) keep the document valid.
    assert!(
        accepted > 0 && accepted < cases,
        "{accepted} of {cases} accepted"
    );
}

#[test]
fn year_2017_rows_are_the_values_the_generator_drew() {
    let sim = StorageSim::ccr(SEED);
    for (month, doc) in (1..=12).zip(sim.year_documents(2017)) {
        let drawn = sim.samples(2017, month);
        let (rows, report) = shred(&doc).unwrap();
        assert_eq!(report.ingested, drawn.len());
        assert_eq!(rows.len(), drawn.len());
        for (row, s) in rows.iter().zip(&drawn) {
            let (soft, hard) = s.quota_gb.unzip();
            let utilization = soft.filter(|q| *q > 0.0).map(|q| s.logical_usage_gb / q);
            let float = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
            let want = vec![
                Value::Time(s.ts),
                Value::Str(s.filesystem.clone()),
                Value::Str(s.mountpoint.clone()),
                Value::Str(s.resource_type.clone()),
                Value::Str(s.user.clone()),
                Value::Str(s.pi.clone()),
                Value::Str(s.system_username.clone()),
                Value::Int(s.file_count),
                Value::Float(s.logical_usage_gb),
                Value::Float(s.physical_usage_gb),
                float(soft),
                float(hard),
                float(utilization),
            ];
            // Debug text tells any two distinct floats apart, -0.0 too.
            assert_eq!(format!("{row:?}"), format!("{want:?}"), "month {month}");
        }
    }
}
