//! The whole suite in one command: every workload untraced (end-to-end
//! numbers), then traced (per-layer numbers), one process per run so
//! `peak_rss_mb` belongs to one workload. `--selfcheck` runs the untraced
//! set twice, interleaved, and compares the two.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use xdmod_check::json::{self, JsonValue};

use crate::metrics::{Def, END_TO_END, PER_LAYER, WORKLOADS};
use crate::OUT_DIR;

/// What the WAL workloads flush, recorded beside the results because
/// numbers taken under another policy do not compare.
const FLUSH_POLICY: &str =
    "wal_append: 1 MiB segments; timed reps with fsync off, the traced run's replay with fsync after \
     every append and snapshot (DiskOptions defaults) for append_p50_us, append_p99_us and flush_share; \
     wal_recover: store built with fsync off, read from the OS page cache";

struct RunResult {
    workload: &'static str,
    seed: u64,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The run's table (end to end or per layer) and a value for each row.
    metrics: Vec<(&'static Def, f64)>,
    /// Wall time of the whole run, set-up included.
    took_s: f64,
}

impl RunResult {
    fn metric(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(def, _)| def.name == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// One run in a child process; its last output line is the result.
fn run_one(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if quick {
        command.arg("--quick");
    }
    let output = command
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("run {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(line).map_err(|e| format!("{workload}: result line is not JSON: {e}"))?;
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for def in table {
        let value = doc
            .get("metrics")
            .and_then(|m| m.get(def.name))
            .and_then(|m| m.get("value"))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("{workload}: result has no metric {}", def.name))?;
        metrics.push((def, value));
    }
    let count = |key: &str| doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
    Ok(RunResult {
        workload,
        seed,
        trace,
        correct: doc
            .get("correct")
            .and_then(JsonValue::as_bool)
            .unwrap_or(false),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        took_s: started.elapsed().as_secs_f64(),
    })
}

fn print_run(r: &RunResult) {
    println!(
        "\n== {} seed {} ({}) attempted {} failed {} failed_share {} ({:.1} s)",
        r.workload,
        r.seed,
        if r.trace {
            "traced, per layer"
        } else {
            "untraced, end to end"
        },
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        r.took_s
    );
    for (def, value) in &r.metrics {
        // A layer the workload never calls reports 0; leave it out.
        if !r.trace || *value != 0.0 {
            println!("  {:<44} {value:>16.4} {}", def.name, def.unit);
        }
    }
}

fn results_json(runs: &[RunResult], seeds: &[u64], seconds: f64) -> String {
    let rustc = std::fs::read_to_string(format!("{OUT_DIR}/rustc_version")).unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"nproc\": {nproc},\n  \"rustc\": {},\n  \"seeds\": {seeds:?},\n  \"seconds\": {seconds},\n  \
         \"flush_policy\": \"{FLUSH_POLICY}\",\n  \"reference_ns_per_xorshift_step\": {},\n  \"runs\": [",
        json::escape(rustc.trim()),
        crate::speed::REFERENCE_NS_PER_STEP
    );
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            if i > 0 { "," } else { "" },
            r.workload,
            r.seed,
            u8::from(r.trace),
            r.attempted,
            r.failed
        );
        for (j, (def, value)) in r.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n      \"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if j > 0 { "," } else { "" },
                def.name,
                def.unit
            );
        }
        out.push_str("\n    }}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Every workload on every seed: `repeats` untraced runs back to back,
/// then (if `traced`) a traced run. `Err` carries the first run that could
/// not be read.
fn run_set(
    seeds: &[u64],
    seconds: f64,
    quick: bool,
    repeats: usize,
    traced: bool,
) -> Result<Vec<RunResult>, String> {
    let mut jobs = Vec::new();
    for (workload, _) in WORKLOADS {
        for seed in seeds {
            jobs.extend(std::iter::repeat_n((*workload, *seed, false), repeats));
        }
        if traced {
            jobs.extend(seeds.iter().map(|seed| (*workload, *seed, true)));
        }
    }
    let mut runs = Vec::new();
    // One run at a time, so runs do not disturb each other's timing. The
    // smoke setting checks outputs, not speed, and runs two at a time.
    for pair in jobs.chunks(if quick { 2 } else { 1 }) {
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = pair
                .iter()
                .map(|&(workload, seed, trace)| {
                    scope.spawn(move || run_one(workload, seed, seconds, trace, quick))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        for result in results {
            let r = result.map_err(|_| "a suite thread panicked".to_owned())??;
            print_run(&r);
            runs.push(r);
        }
    }
    Ok(runs)
}

/// Compare two sets of untraced runs metric by metric; returns the pairs
/// that differ by more than the metric's own bound.
fn disagreements(first: &[RunResult], second: &[RunResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (a, b) in first.iter().zip(second) {
        for def in END_TO_END {
            let (x, y) = (a.metric(def.name), b.metric(def.name));
            let gap = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let verdict = if gap <= def.bound { "ok" } else { "DISAGREES" };
            println!(
                "  {:<18} seed {:<4} {:<16} {x:>14.4} {y:>14.4}  gap {:>6.2}% of bound {:>4.0}%  {verdict}",
                a.workload,
                a.seed,
                def.name,
                gap * 100.0,
                def.bound * 100.0
            );
            if gap > def.bound {
                out.push(format!("{} seed {} {}", a.workload, a.seed, def.name));
            }
        }
    }
    out
}

pub fn run(seeds: &[u64], seconds: f64, quick: bool, selfcheck: bool) -> ExitCode {
    let started = Instant::now();
    // The smoke setting: one seed, one set-up and as few reps as a run
    // allows (one per phase).
    let (seeds, seconds) = if quick {
        (&seeds[..1], seconds.min(0.5))
    } else {
        (seeds, seconds)
    };
    let outcome = (|| -> Result<bool, String> {
        if selfcheck {
            // The two sets are interleaved — each run of the second set
            // directly follows its twin in the first — so that both see
            // the same phases of a machine whose speed drifts.
            let runs = run_set(seeds, seconds, quick, 2, false)?;
            let correct = runs.iter().all(|r| r.correct && r.failed == 0);
            let (mut first, mut second) = (Vec::new(), Vec::new());
            for (i, r) in runs.into_iter().enumerate() {
                if i % 2 == 0 { &mut first } else { &mut second }.push(r);
            }
            println!("\n== selfcheck: first set against second");
            let differing = disagreements(&first, &second);
            for d in &differing {
                println!("selfcheck: {d} differs by more than its bound");
            }
            return Ok(correct && differing.is_empty());
        }
        let runs = run_set(seeds, seconds, quick, 1, true)?;
        let path = format!("{OUT_DIR}/results.json");
        std::fs::write(&path, results_json(&runs, seeds, seconds))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("\nresults written to {path}");
        Ok(runs.iter().all(|r| r.correct && r.failed == 0))
    })();
    println!("suite took {:.1} s", started.elapsed().as_secs_f64());
    match outcome {
        Ok(true) => {
            println!("suite: every run correct, failed_share 0");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("suite: FAILED (incorrect output, failed operations, or disagreeing sets)");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("xdmod-bench: {message}");
            ExitCode::FAILURE
        }
    }
}
