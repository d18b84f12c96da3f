//! The five workloads and the contract each one meets towards the driver
//! loop in `main.rs`.

pub mod config_preflight;
pub mod gateway_mix;
pub mod ops_tick;
mod wal;
pub mod wal_append;
pub mod wal_recover;

use std::path::Path;
use std::time::{Duration, Instant};

use crate::metrics::Metrics;
use crate::stats::process_cpu_ns;
use crate::trace::Collector;

/// What one timed pass over a workload's inputs did.
pub struct RepOut {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed, were refused unexpectedly, or whose output
    /// did not match the generator-side reference.
    pub failed: u64,
    /// User payload bytes processed.
    pub payload_bytes: u64,
    /// Wall and process CPU time of the timed region alone: what a rep
    /// does between timed regions (a fresh directory, restoring injected
    /// damage) is the harness's and is left out.
    pub wall_ns: u64,
    pub cpu_ns: u64,
    /// Part of `wall_ns` the generator thread spent inside calls into the
    /// program or blocked until one completed; the rest is harness code.
    pub program_ns: u64,
}

/// Stopwatch over a rep's timed region. Stop and restart it around
/// harness work that sits between operations.
#[derive(Default)]
pub struct Timed {
    wall_ns: u64,
    cpu_ns: u64,
    program_ns: u64,
    running: Option<(Instant, u64)>,
}

impl Timed {
    pub fn start(&mut self) {
        self.running = Some((Instant::now(), process_cpu_ns()));
    }

    pub fn stop(&mut self) {
        if let Some((wall, cpu)) = self.running.take() {
            self.wall_ns += wall.elapsed().as_nanos() as u64;
            self.cpu_ns += process_cpu_ns() - cpu;
        }
    }

    /// Count `ns` of the timed region as spent in (or waiting on) the
    /// program.
    pub fn program(&mut self, ns: u64) {
        self.program_ns += ns;
    }

    pub fn out(mut self, ops: u64, failed: u64, payload_bytes: u64) -> RepOut {
        self.stop();
        RepOut {
            ops,
            failed,
            payload_bytes,
            wall_ns: self.wall_ns,
            cpu_ns: self.cpu_ns,
            program_ns: self.program_ns,
        }
    }
}

/// What a rep needs from the run around it, and what it leaves there.
pub struct Ctx {
    /// Record spans (the traced phase of a `--trace 1` run).
    pub trace_on: bool,
    /// Time base every span of the run shares.
    pub t0: Instant,
    pub collector: Collector,
    /// One latency per completed operation of the rep under way, ns; the
    /// run loop empties it before each rep.
    pub lat_ns: Vec<u32>,
}

impl Ctx {
    /// A context with tracing off.
    pub fn new() -> Self {
        Ctx {
            trace_on: false,
            t0: Instant::now(),
            collector: Collector::default(),
            lat_ns: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }
}

/// Latency sample from a ns interval, saturating.
pub fn lat(ns: u64) -> u32 {
    ns.min(u64::from(u32::MAX)) as u32
}

pub trait Workload: Sized {
    /// Generate the inputs from `seed`, build any store under `work`
    /// (emptied first) and warm up. Everything here is set-up time.
    fn setup(seed: u64, work: &Path) -> Self;

    /// One timed pass over the inputs. The same pass every time: a rep's
    /// operations, outcomes and counts are fixed by the seed.
    fn rep(&mut self, ctx: &mut Ctx) -> RepOut;

    /// Checks that need the state left by the last rep; returns failures.
    fn verify(&mut self) -> u64 {
        0
    }

    /// Per-layer metrics of the traced run: from the collected spans, the
    /// last rep's counts, and direct timing of calls that sit inside a
    /// public function, bounded by `budget`.
    fn layers(&mut self, spans: &Collector, budget: Duration, m: &mut Metrics);
}

/// Run `call` over and over for about `budget`, at least once; returns
/// (calls made, seconds spent).
pub fn time_for(budget: Duration, mut call: impl FnMut()) -> (u64, f64) {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        call();
        calls += 1;
        if start.elapsed() >= budget {
            return (calls, start.elapsed().as_secs_f64());
        }
    }
}
