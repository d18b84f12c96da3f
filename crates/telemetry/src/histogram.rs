//! Log₂-bucketed histograms with quantile estimation.
//!
//! Latencies span many orders of magnitude (a cached counter read is
//! nanoseconds; a federation-wide re-aggregation is seconds), so buckets
//! grow geometrically: bucket `i` covers `(MIN_BOUND·2^(i-1), MIN_BOUND·2^i]`
//! with `MIN_BOUND` = 1 ns expressed in seconds. 64 buckets reach ~9×10⁹
//! seconds, far past anything observable. Quantiles are estimated by
//! linear interpolation inside the selected bucket, which keeps the
//! estimate within one bucket width (≤2×) of truth and much closer for
//! smooth distributions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of log₂ buckets.
pub const BUCKETS: usize = 64;

/// Upper bound of bucket 0, in the histogram's native unit (seconds for
/// timers): one nanosecond.
pub const MIN_BOUND: f64 = 1e-9;

/// Upper bound of bucket `i`: `MIN_BOUND·2^i`, which is `MIN_BOUND` with
/// `i` added to its binary exponent (no bound comes near the exponent's
/// top, so the sum stays a normal float).
#[inline]
pub fn bucket_upper(i: usize) -> f64 {
    let i = i.min(BUCKETS - 1) as u64;
    f64::from_bits(MIN_BOUND.to_bits() + (i << 52))
}

/// Shared histogram state. All fields are atomics; `observe` is lock-free.
/// There is no count cell: a snapshot's count is the sum of the bucket
/// counts it loaded, so the `+Inf` line never falls below a finite one.
#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    /// Sum of observed values, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
    /// Maximum observed value, stored as `f64` bits. Non-negative `f64`
    /// bit patterns order like the floats themselves, so `fetch_max`-style
    /// CAS on the bits is correct for our (non-negative) observations.
    max_bits: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// The first bucket `i` with `v <= bucket_upper(i)`, or the top one.
    /// `bucket_upper(i)` is `MIN_BOUND` with its binary exponent raised by
    /// `i` and the same mantissa bits, so comparing `v`'s exponent and
    /// mantissa with `MIN_BOUND`'s is exact.
    fn bucket_index(v: f64) -> usize {
        const MANTISSA: u64 = (1 << 52) - 1;
        if v.is_nan() || v <= MIN_BOUND {
            // NaN, negative, zero, and sub-nanosecond all land in bucket 0.
            return 0;
        }
        // Both are positive: the top bits are the biased exponents.
        let (v, min) = (v.to_bits(), MIN_BOUND.to_bits());
        let idx = (v >> 52) - (min >> 52) + u64::from(v & MANTISSA > min & MANTISSA);
        idx.min(BUCKETS as u64 - 1) as usize
    }

    pub(crate) fn observe(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        // CAS loops for the float fields.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while f64::from_bits(cur) < v {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut count = 0;
        let buckets = std::array::from_fn(|i| {
            let n = self.buckets[i].load(Ordering::Relaxed);
            count += n;
            n
        });
        HistogramSnapshot {
            buckets,
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// A handle to one histogram. Cheap to clone; `None` inside means the
/// owning registry is disabled and every operation is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// A no-op histogram (what a disabled registry hands out).
    pub fn noop() -> Self {
        Histogram(None)
    }

    /// True when observations are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation (negative/NaN values count as 0).
    #[inline]
    pub fn observe(&self, v: f64) {
        if let Some(core) = &self.0 {
            core.observe(v);
        }
    }

    /// Point-in-time copy of the distribution; its count is the sum of
    /// its buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            Some(core) => core.snapshot(),
            None => HistogramSnapshot::default(),
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.snapshot().count
    }
}

/// An immutable copy of a histogram's state.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (not cumulative).
    pub buckets: [u64; BUCKETS],
    /// Total observations: the sum of `buckets` in every snapshot an
    /// instrument takes.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Largest observation.
    pub max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the selected log bucket; clamped to the observed maximum.
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let [estimate] = self.quantiles([q]);
        estimate
    }

    /// [`quantile`](Self::quantile) of each of `qs`, from one cumulative
    /// pass over the buckets. `qs` must be ascending (and not NaN): each
    /// estimate resumes the walk where the previous one stopped.
    pub fn quantiles<const N: usize>(&self, qs: [f64; N]) -> [Option<f64>; N] {
        let mut out = [None; N];
        if self.count == 0 {
            return out;
        }
        let ranks = qs.map(|q| q.clamp(0.0, 1.0) * self.count as f64);
        debug_assert!(
            ranks.windows(2).all(|w| w[0] <= w[1]),
            "quantiles {qs:?} are not ascending"
        );
        let mut done = 0;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            while done < N && (next as f64) >= ranks[done] {
                let lower = if i == 0 { 0.0 } else { bucket_upper(i - 1) };
                let upper = bucket_upper(i);
                let frac = ((ranks[done] - cum as f64) / n as f64).clamp(0.0, 1.0);
                let est = lower + frac * (upper - lower);
                out[done] = Some(est.min(self.max));
                done += 1;
            }
            if done == N {
                return out;
            }
            cum = next;
        }
        out[done..].fill(Some(self.max));
        out
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Cumulative count at or below each bucket upper bound, as
    /// `(upper_bound, cumulative)` pairs ending at the highest non-empty
    /// bucket. Empty histograms yield an empty vector.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        (0..self.filled())
            .map(|i| {
                cum += self.buckets[i];
                (bucket_upper(i), cum)
            })
            .collect()
    }

    /// Number of buckets up to and including the highest non-empty one.
    pub(crate) fn filled(&self) -> usize {
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map_or(0, |last| last + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: impl IntoIterator<Item = f64>) -> HistogramSnapshot {
        let core = HistogramCore::new();
        for v in values {
            core.observe(v);
        }
        core.snapshot()
    }

    /// `quantile` as it was: one bucket walk per `q`. The one-pass
    /// `quantiles` is held to it bit for bit.
    fn reference_quantile(h: &HistogramSnapshot, q: f64) -> Option<f64> {
        if h.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * h.count as f64;
        let mut cum = 0u64;
        for (i, &n) in h.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= rank {
                let lower = if i == 0 { 0.0 } else { bucket_upper(i - 1) };
                let upper = bucket_upper(i);
                let frac = ((rank - cum as f64) / n as f64).clamp(0.0, 1.0);
                let est = lower + frac * (upper - lower);
                return Some(est.min(h.max));
            }
            cum = next;
        }
        Some(h.max)
    }

    #[test]
    fn one_pass_quantiles_match_one_walk_per_quantile_bit_for_bit() {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        let mut cases = vec![HistogramSnapshot::default(), filled([1e12, 3e12])];
        // Counts no instrument reaches, in the top and the bottom bucket,
        // and a NaN max (the snapshot is public).
        for bucket in [0, BUCKETS - 1] {
            let mut odd = HistogramSnapshot::default();
            odd.buckets[bucket] = u64::MAX;
            odd.count = u64::MAX;
            odd.max = f64::NAN;
            cases.push(odd);
        }
        // splitmix64-seeded distributions: sparse, dense, and point masses.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..300 {
            let n = next() % 40;
            let spread = (next() % 24) as i32;
            let values: Vec<f64> = (0..n)
                .map(|_| 10f64.powi((next() % (spread as u64 + 1)) as i32 - 12) * 1.5)
                .collect();
            let mut h = filled(values);
            if next() % 8 == 0 {
                h.max = f64::NAN;
            }
            cases.push(h);
        }
        for h in &cases {
            let qs = [0.50, 0.95, 0.99];
            let one_pass = h.quantiles(qs).map(bits);
            let per_q = qs.map(|q| bits(reference_quantile(h, q)));
            assert_eq!(one_pass, per_q, "{h:?}");
            assert_eq!(one_pass, [h.p50(), h.p95(), h.p99()].map(bits));
            for q in [0.0, 0.25, 1.0, 2.0] {
                assert_eq!(bits(h.quantile(q)), bits(reference_quantile(h, q)));
            }
        }
    }

    #[test]
    fn bucket_bounds_are_the_powers_of_two_of_min_bound_bit_for_bit() {
        for i in 0..BUCKETS {
            let want = MIN_BOUND * 2f64.powi(i as i32);
            assert_eq!(bucket_upper(i).to_bits(), want.to_bits(), "bucket {i}");
        }
        // Past the top bucket, the top bound.
        assert_eq!(
            bucket_upper(BUCKETS).to_bits(),
            bucket_upper(BUCKETS - 1).to_bits()
        );
        assert_eq!(
            bucket_upper(usize::MAX).to_bits(),
            bucket_upper(BUCKETS - 1).to_bits()
        );
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let snap = filled([]);
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.count, 0);
        assert!(snap.cumulative_buckets().is_empty());
    }

    #[test]
    fn quantiles_of_known_uniform_distribution() {
        // 1..=1000 uniform: true p50=500, p95=950, p99=990, max=1000.
        let snap = filled((1..=1000).map(f64::from));
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 1000.0);
        assert!((snap.sum - 500_500.0).abs() < 1e-6);
        let p50 = snap.p50().unwrap();
        let p95 = snap.p95().unwrap();
        let p99 = snap.p99().unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.10, "p50 estimate {p50}");
        assert!((p95 - 950.0).abs() / 950.0 < 0.15, "p95 estimate {p95}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.15, "p99 estimate {p99}");
        // Quantiles are monotone and capped at the max.
        assert!(p50 <= p95 && p95 <= p99 && p99 <= 1000.0);
    }

    #[test]
    fn quantiles_of_point_mass() {
        let snap = filled(std::iter::repeat_n(0.25, 100));
        // Everything sits in one bucket whose bounds bracket 0.25.
        let p50 = snap.p50().unwrap();
        assert!(p50 <= 0.25 && p50 > 0.125 / 2.0, "p50 {p50}");
        assert_eq!(snap.quantile(1.0), Some(0.25));
        assert_eq!(snap.max, 0.25);
    }

    #[test]
    fn pathological_values_are_tolerated() {
        let snap = filled([-1.0, 0.0, f64::NAN, f64::INFINITY, 1e-12]);
        assert_eq!(snap.count, 5);
        // Negative/NaN/∞ sanitize to 0; sub-nanosecond positives survive.
        assert_eq!(snap.max, 1e-12);
        assert_eq!(snap.buckets[0], 5);
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let snap = filled([1e-9, 1e-6, 1e-3, 1.0, 2.5]);
        let cum = snap.cumulative_buckets();
        assert!(!cum.is_empty());
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        assert_eq!(cum.last().unwrap().1, snap.count);
    }

    #[test]
    fn noop_histogram_records_nothing() {
        let h = Histogram::noop();
        h.observe(1.0);
        assert_eq!(h.count(), 0);
        assert!(!h.is_enabled());
    }

    #[test]
    fn every_value_lands_in_the_first_bucket_whose_bound_holds_it() {
        let bucket_of = |v: f64| {
            let core = HistogramCore::new();
            core.observe(v);
            core.snapshot().buckets.iter().position(|&n| n == 1)
        };
        let ulps = |v: f64, n: i64| f64::from_bits((v.to_bits() as i64 + n) as u64);
        // The bucket `v` belongs in: the first bound at or above it.
        let expected = |v: f64| (0..BUCKETS - 1).find(|&i| v <= bucket_upper(i));
        let mut values = vec![0.0, MIN_BOUND, 1e12, f64::MAX];
        for i in 0..BUCKETS {
            let bound = bucket_upper(i);
            values.extend((1..=64).flat_map(|n| [ulps(bound, -n), bound, ulps(bound, n)]));
        }
        let mut state = 0x0b5e_u64;
        for _ in 0..10_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            // 1e-12 .. ~1e12 seconds, log-uniform.
            values.push(10f64.powf((z >> 11) as f64 / (1u64 << 53) as f64 * 24.0 - 12.0));
        }
        for v in values {
            let i = bucket_of(v).unwrap_or(usize::MAX);
            assert_eq!(i, expected(v).unwrap_or(BUCKETS - 1), "{v:e}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "{v:e} in bucket {i}");
            }
            if i < BUCKETS - 1 {
                assert!(v <= bucket_upper(i), "{v:e} in bucket {i}");
            }
        }
    }

    #[test]
    fn a_snapshot_taken_during_observations_counts_its_buckets() {
        use crate::MetricsRegistry;
        use std::sync::atomic::AtomicBool;
        let reg = MetricsRegistry::new();
        let h = reg.histogram("apply_seconds", &[]);
        let stop = AtomicBool::new(false);
        let torn = std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0u32.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    h.observe(MIN_BOUND * f64::from(1 << (i % 24)));
                }
            });
            let mut torn = Vec::new();
            for _ in 0..20_000 {
                let snap = reg.snapshot();
                let h = &snap.histograms[0].1;
                let text = snap.prometheus_text();
                let lines = text
                    .lines()
                    .filter(|l| l.starts_with("apply_seconds_bucket"));
                let counts: Vec<u64> = lines
                    .map(|l| {
                        l.rsplit(' ')
                            .next()
                            .and_then(|n| n.parse().ok())
                            .unwrap_or(0)
                    })
                    .collect();
                if h.buckets.iter().sum::<u64>() != h.count
                    || counts.windows(2).any(|w| w[0] > w[1])
                {
                    torn.push(counts);
                }
            }
            stop.store(true, Ordering::Relaxed);
            torn
        });
        assert!(
            torn.is_empty(),
            "{} torn snapshots (bucket sum != count, or a falling _bucket line), e.g. {:?}",
            torn.len(),
            torn[0]
        );
    }

    #[test]
    fn concurrent_observations_are_all_counted() {
        let h = Histogram(Some(Arc::new(HistogramCore::new())));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 1..=1000 {
                        h.observe(f64::from(i) * 1e-6);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert!((snap.max - 1e-3).abs() < 1e-12);
    }
}
