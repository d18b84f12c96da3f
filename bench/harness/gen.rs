//! Seeded input generation shared by the workloads. Everything derives
//! from `xdmod_chaos::DeterministicRng` (SplitMix64), so one seed gives
//! one set of inputs on every machine.

use xdmod_chaos::DeterministicRng;

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut DeterministicRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
    }
}

/// `n` sizes log-uniform over `[lo, hi]` — spread evenly across orders of
/// magnitude, so small and large inputs are both well represented — in
/// seeded order. The sizes are the distribution's `n` evenly spaced
/// quantiles, so every seed carries the same total bytes and only their
/// order and contents differ: byte rates compare across seeds.
pub fn log_uniform_sizes(rng: &mut DeterministicRng, n: usize, lo: u64, hi: u64) -> Vec<u64> {
    let (a, b) = ((lo as f64).ln(), (hi as f64).ln());
    let mut sizes: Vec<u64> = (0..n)
        .map(|i| {
            let q = (i as f64 + 0.5) / n as f64;
            ((a + q * (b - a)).exp().round() as u64).clamp(lo, hi)
        })
        .collect();
    shuffle(rng, &mut sizes);
    sizes
}

/// Zipf(`s`) sampler over ranks `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut DeterministicRng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// `len` pseudo-random bytes.
pub fn random_bytes(rng: &mut DeterministicRng, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

/// `len` characters drawn from `alphabet` (ASCII).
pub fn random_text(rng: &mut DeterministicRng, len: usize, alphabet: &[u8]) -> String {
    let mut out = String::with_capacity(len);
    for _ in 0..len {
        out.push(alphabet[rng.gen_range(0, alphabet.len() as u64) as usize] as char);
    }
    out
}
