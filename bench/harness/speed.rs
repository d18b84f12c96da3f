//! The machine's speed while a measurement runs, read from a fixed piece of
//! CPU work.
//!
//! The sandbox this benchmark runs in is a few cores of a shared host whose
//! clock steps between about 3.3 and 4.2 GHz and stays on a step for
//! seconds to minutes. Every CPU-bound number moves with it by up to 28 %:
//! more than any bound the benchmark can set, and for whole runs at a time,
//! so no median within a run removes it. What does is measuring the step:
//! a dependent chain of xorshift steps takes a fixed number of cycles, and
//! its time read next to the program's tracked the program's within 2 %
//! (`bench/README.md`, "Steadiness").
//!
//! So every timed interval is bracketed by two probes, and its duration is
//! divided by the mean of the two readings: the *slowdown* against a
//! reference machine that does one step in [`REFERENCE_NS_PER_STEP`]. The
//! end-to-end times and rates are in seconds of that reference machine.
//! The probe is the harness's own code, so no change to the program moves
//! it.

use std::time::Instant;

/// Steps in one pass of the probe: about a third of a millisecond.
const STEPS: u64 = 200_000;
/// Passes per probe. An interrupted pass only ever reads slow, so the
/// fastest pass is the reading.
const PASSES: usize = 5;
/// One step — six dependent shift and xor operations — at 4 GHz.
pub const REFERENCE_NS_PER_STEP: f64 = 1.5;

#[inline(never)]
fn spin(steps: u64, mut x: u64) -> u64 {
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// How many times slower than the reference the machine is right now.
pub fn probe() -> f64 {
    let mut best_ns = u128::MAX;
    for _ in 0..PASSES {
        let begin = Instant::now();
        std::hint::black_box(spin(
            std::hint::black_box(STEPS),
            std::hint::black_box(0x0139_408D_CBBF_7A44),
        ));
        best_ns = best_ns.min(begin.elapsed().as_nanos());
    }
    best_ns as f64 / STEPS as f64 / REFERENCE_NS_PER_STEP
}

/// Probes at the ends of consecutive intervals.
pub struct Speedometer {
    last: f64,
}

impl Speedometer {
    pub fn start() -> Self {
        Speedometer { last: probe() }
    }

    /// Mean slowdown over the interval since the previous reading.
    pub fn lap(&mut self) -> f64 {
        let now = probe();
        let slowdown = (self.last + now) / 2.0;
        self.last = now;
        slowdown
    }
}
