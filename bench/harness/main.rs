//! `xdmod-bench`: the repo benchmark's harness.
//!
//! The program under test is compiled from its own files: the std-only
//! crates are linked as rlibs, and the std-only modules of the two crates
//! that do not build offline are included by path (see `bench/build.sh`
//! for the two guarded stand-ins). The harness measures each layer from
//! outside, by timing calls into public functions.
//!
//! ```text
//! xdmod-bench --workload W --seed N --seconds S --trace 0|1   one run; last line is the result
//! xdmod-bench [--seeds 11,12] [--seconds S] [--quick]         every workload, untraced then traced
//! xdmod-bench --selfcheck                                     two sets of untraced runs must agree
//! xdmod-bench --print-contract                                BENCHMARK.json from the metric tables
//! ```

// The program's modules are included whole; the harness calls part of each.
#![allow(dead_code)]

#[path = "../../crates/gateway/src/config.rs"]
mod config;
#[path = "../../crates/gateway/src/etag.rs"]
mod etag;
#[path = "../../crates/gateway/src/http.rs"]
mod http;
#[path = "../../crates/gateway/src/limit.rs"]
mod limit;
#[path = "../../crates/gateway/src/pool.rs"]
mod pool;

#[path = "../../crates/warehouse/src/checksum.rs"]
mod checksum;
#[path = "../../crates/warehouse/src/error.rs"]
mod error;
#[path = "../../crates/warehouse/src/storage.rs"]
mod storage;
// Stand-in for binlog.rs: `LogPosition` only (guarded by bench/build.sh).
mod binlog;
// crates/warehouse/src/disk/mod.rs minus `pub mod spill;` (bench/build.sh).
#[path = "../out/gen/disk/mod.rs"]
mod disk;

mod alloc;
mod gen;
mod metrics;
mod speed;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{Metrics, END_TO_END, PER_LAYER};
use speed::Speedometer;
use workloads::{Ctx, RepOut, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Build outputs, scratch stores and traces all live here (git-ignored).
pub const OUT_DIR: &str = "bench/out";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One set-up and at least one rep instead of three and three: the
    /// smoke setting, too short to compare.
    quick: bool,
}

/// Per-rep values of a phase, and what it attempted. Times are seconds of
/// the reference machine (`speed.rs`): as timed, divided by the slowdown
/// read around the rep.
#[derive(Default)]
struct Phase {
    ops_per_s: Vec<f64>,
    mb_per_s: Vec<f64>,
    cpu_ms_per_kop: Vec<f64>,
    lat_p50_us: Vec<f64>,
    /// The same rate as timed, and the slowdown it was divided by.
    ops_per_s_as_timed: Vec<f64>,
    slowdown: Vec<f64>,
    lat_samples: usize,
    wall_ns: u64,
    program_ns: u64,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// One rep: what it did, its operations' latencies (ns) and the
    /// machine's slowdown while it ran.
    fn add(&mut self, out: &RepOut, lat_ns: &[u32], slowdown: f64) {
        let wall_s = out.wall_ns as f64 / 1e9;
        let kops = out.ops as f64 / 1e3;
        self.ops_per_s_as_timed.push(out.ops as f64 / wall_s);
        self.slowdown.push(slowdown);
        self.ops_per_s.push(out.ops as f64 / wall_s * slowdown);
        self.mb_per_s
            .push(out.payload_bytes as f64 / 1e6 / wall_s * slowdown);
        self.cpu_ms_per_kop
            .push(out.cpu_ns as f64 / 1e6 / kops / slowdown);
        self.lat_p50_us
            .push(stats::quantile(lat_ns, 0.5) / 1e3 / slowdown);
        self.lat_samples += lat_ns.len();
        self.wall_ns += out.wall_ns;
        self.program_ns += out.program_ns;
        self.attempted += out.ops;
        self.failed += out.failed;
    }
}

/// Run reps for about `seconds`, at least `min_reps`.
fn run_phase<W: Workload>(w: &mut W, seconds: f64, min_reps: usize, ctx: &mut Ctx) -> Phase {
    let mut phase = Phase::default();
    let begin = Instant::now();
    let mut speed = Speedometer::start();
    while phase.ops_per_s.len() < min_reps || begin.elapsed().as_secs_f64() < seconds {
        ctx.lat_ns.clear();
        let out = w.rep(ctx);
        phase.add(&out, &ctx.lat_ns, speed.lap());
    }
    phase
}

fn run_untraced<W: Workload>(args: &RunArgs, work: &std::path::Path) -> (Metrics, u64, u64) {
    // Set-up is repeated and its median reported, so one slow page-cache
    // flush does not decide `setup_s`. The previous set-up is dropped
    // first: two stores at once would double `peak_rss_mb`.
    let mut setup_s = Vec::new();
    let mut speed = Speedometer::start();
    let mut timed_setup = || {
        let begin = Instant::now();
        let w = W::setup(args.seed, work);
        let took = begin.elapsed().as_secs_f64();
        setup_s.push(took / speed.lap());
        w
    };
    let mut w = timed_setup();
    for _ in 1..if args.quick { 1 } else { 3 } {
        drop(w);
        w = timed_setup();
    }

    let mut ctx = Ctx::new();
    let mut phase = run_phase(&mut w, args.seconds, if args.quick { 1 } else { 3 }, &mut ctx);
    phase.failed += w.verify();

    let mut m = Metrics::new(END_TO_END);
    m.set("ops_per_s", stats::median(&phase.ops_per_s));
    m.set("mb_per_s", stats::median(&phase.mb_per_s));
    m.set("lat_p50_us", stats::median(&phase.lat_p50_us));
    m.set("cpu_ms_per_kop", stats::median(&phase.cpu_ms_per_kop));
    m.set("peak_rss_mb", stats::peak_rss_mb());
    m.set("setup_s", stats::median(&setup_s));
    println!(
        "{}: {} reps, {} latency samples, seed {}; as timed {:.4} ops/s at a slowdown of {:.4} \
         (medians over reps)",
        args.workload,
        phase.ops_per_s.len(),
        phase.lat_samples,
        args.seed,
        stats::median(&phase.ops_per_s_as_timed),
        stats::median(&phase.slowdown),
    );
    (m, phase.attempted, phase.failed)
}

fn run_traced<W: Workload>(args: &RunArgs, work: &std::path::Path) -> (Metrics, u64, u64) {
    let mut w = W::setup(args.seed, work);
    let mut ctx = Ctx::new();
    // Untraced first, on the same process and inputs: the gap between the
    // two phases is what tracing costs.
    let plain = run_phase(&mut w, args.seconds * 0.25, 1, &mut ctx);
    ctx.trace_on = true;
    let traced = run_phase(&mut w, args.seconds * 0.45, 1, &mut ctx);
    let failed = plain.failed + traced.failed + w.verify();
    let collector = ctx.collector;

    let mut m = Metrics::new(PER_LAYER);
    w.layers(
        &collector,
        Duration::from_secs_f64(args.seconds * 0.3),
        &mut m,
    );
    let build_s = std::fs::read_to_string(format!("{OUT_DIR}/build_s"))
        .ok()
        .and_then(|s| s.trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    m.set("harness.build_s", build_s);
    m.set(
        "harness.generator_share",
        1.0 - traced.program_ns as f64 / traced.wall_ns.max(1) as f64,
    );
    m.set(
        "harness.trace_overhead_share",
        1.0 - stats::median(&traced.ops_per_s) / stats::median(&plain.ops_per_s),
    );
    m.set(
        "harness.root_self_share",
        collector.root_self_ns as f64 / collector.root_ns.max(1) as f64,
    );
    let path = format!("{OUT_DIR}/trace-{}.json", args.workload);
    if let Err(e) = std::fs::write(&path, collector.to_json(&args.workload, args.seed)) {
        eprintln!("xdmod-bench: cannot write {path}: {e}");
    }
    println!(
        "{}: traced {} groups, {} spans -> {path}",
        args.workload, collector.groups, collector.spans_seen
    );
    (m, plain.attempted + traced.attempted, failed)
}

fn run<W: Workload>(args: &RunArgs) -> ExitCode {
    let work = PathBuf::from(format!(
        "{OUT_DIR}/work/{}-{}",
        args.workload,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("xdmod-bench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let (m, attempted, failed) = if args.trace {
        run_traced::<W>(args, &work)
    } else {
        run_untraced::<W>(args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    m.print();
    println!(
        "{}",
        metrics::result_line(failed == 0, attempted, failed, &m)
    );
    ExitCode::SUCCESS
}

fn run_workload(args: &RunArgs) -> ExitCode {
    match args.workload.as_str() {
        "gateway_mix" => run::<workloads::gateway_mix::GatewayMix>(args),
        "wal_append" => run::<workloads::wal_append::WalAppend>(args),
        "wal_recover" => run::<workloads::wal_recover::WalRecover>(args),
        "ops_tick" => run::<workloads::ops_tick::OpsTick>(args),
        "config_preflight" => run::<workloads::config_preflight::ConfigPreflight>(args),
        other => {
            eprintln!("xdmod-bench: unknown workload {other:?}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str =
    "usage: xdmod-bench --workload W --seed N --seconds S --trace 0|1 [--quick]\n       \
                     xdmod-bench [--seeds A,B] [--seconds S] [--quick] [--selfcheck]\n       \
                     xdmod-bench --print-contract";

enum Cli {
    One(RunArgs),
    Suite {
        seeds: Vec<u64>,
        seconds: f64,
        quick: bool,
        selfcheck: bool,
    },
    PrintContract,
}

fn parse_args(argv: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seeds = vec![11, 12];
    let mut seconds = 10.0;
    let (mut trace, mut quick, mut selfcheck) = (false, false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" | "--seeds" => {
                seeds = value()?
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|e| format!("seed {s:?}: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds expects a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                };
            }
            "--quick" => quick = true,
            "--selfcheck" => selfcheck = true,
            "--print-contract" => return Ok(Cli::PrintContract),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(match workload {
        Some(workload) => Cli::One(RunArgs {
            workload,
            seed: seeds[0],
            seconds,
            trace,
            quick,
        }),
        None => Cli::Suite {
            seeds,
            seconds,
            quick,
            selfcheck,
        },
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(Cli::One(args)) => run_workload(&args),
        Ok(Cli::Suite {
            seeds,
            seconds,
            quick,
            selfcheck,
        }) => suite::run(&seeds, seconds, quick, selfcheck),
        Ok(Cli::PrintContract) => {
            print!("{}", metrics::contract_json());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("xdmod-bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
