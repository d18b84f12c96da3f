//! Admission control: per-client token buckets plus a global in-flight
//! gate.
//!
//! The serving tier sits in front of the hub's aggregation locks; an
//! unthrottled burst of federated queries from one dashboard would queue
//! every worker behind the warehouse and starve the other members'
//! operators. Two independent valves:
//!
//! - [`RateLimiter`] — a token bucket per client address. Bursts up to
//!   the bucket capacity pass; beyond that the client gets 429 with a
//!   `Retry-After` telling it when one token will exist again.
//! - [`AdmissionGate`] — a global cap on concurrently-served requests.
//!   When the gateway is saturated, new arrivals get an immediate 503
//!   instead of a connection that hangs until timeout.
//!
//! Both are time-injected (caller passes elapsed milliseconds) so tests
//! and the chaos soak are deterministic. The bucket arithmetic itself
//! lives in [`xdmod_alerts::TokenBucket`] — one milli-token scheme
//! shared between client rate limiting here and the alert engine's
//! notification gating, so both layers throttle identically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use xdmod_alerts::{TakeOutcome, TokenBucket};

/// Lock that survives a poisoned mutex: a panicked worker must not wedge
/// admission control for every other connection.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Outcome of a rate-limit check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateDecision {
    /// Under budget; a token was consumed.
    Allowed,
    /// Over budget; retry after this many whole seconds.
    Limited {
        /// Seconds until one token is refilled (at least 1).
        retry_after_secs: u64,
    },
}

/// Per-client token buckets. One instance serves the whole gateway;
/// clients are keyed by address string.
pub struct RateLimiter {
    capacity: u64,
    refill_per_sec: u64,
    buckets: Mutex<HashMap<String, TokenBucket>>,
}

impl RateLimiter {
    /// Buckets hold `capacity` tokens and refill at `refill_per_sec`
    /// tokens per second (both at least 1).
    pub fn new(capacity: u64, refill_per_sec: u64) -> Self {
        RateLimiter {
            capacity,
            refill_per_sec,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Try to take one token for `client` at `now_ms` milliseconds since
    /// gateway start.
    pub fn check(&self, client: &str, now_ms: u64) -> RateDecision {
        let mut buckets = lock(&self.buckets);
        // `new_at`, not `new`: a client first seen at now_ms must not be
        // credited refill for the time before it existed.
        let fresh = || TokenBucket::new_at(self.capacity, self.refill_per_sec, now_ms);
        // Look up by `&str` first: only a client's first request pays for
        // an owned key.
        let outcome = match buckets.get_mut(client) {
            Some(bucket) => bucket.try_take(now_ms),
            None => buckets
                .entry(client.to_owned())
                .or_insert_with(fresh)
                .try_take(now_ms),
        };
        match outcome {
            TakeOutcome::Taken => RateDecision::Allowed,
            TakeOutcome::Empty { retry_after_secs } => RateDecision::Limited { retry_after_secs },
        }
    }

    /// Clients currently tracked (test/ops visibility).
    pub fn tracked_clients(&self) -> usize {
        lock(&self.buckets).len()
    }
}

/// RAII slot in the global in-flight gate; dropping it frees the slot.
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::Release);
    }
}

/// Global cap on concurrently-served requests.
pub struct AdmissionGate {
    max_inflight: usize,
    inflight: AtomicUsize,
}

impl AdmissionGate {
    /// Gate admitting at most `max_inflight` concurrent requests.
    pub fn new(max_inflight: usize) -> Self {
        AdmissionGate {
            max_inflight: max_inflight.max(1),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Take a slot, or `None` when saturated (caller answers 503).
    pub fn try_acquire(&self) -> Option<Permit<'_>> {
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= self.max_inflight {
                return None;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(Permit { gate: self }),
                Err(actual) => current = actual,
            }
        }
    }

    /// Requests currently holding a slot.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_allows_bursts_then_limits() {
        let limiter = RateLimiter::new(3, 1);
        for _ in 0..3 {
            assert_eq!(limiter.check("10.0.0.1", 0), RateDecision::Allowed);
        }
        let RateDecision::Limited { retry_after_secs } = limiter.check("10.0.0.1", 0) else {
            panic!("fourth request in the burst must be limited");
        };
        assert_eq!(retry_after_secs, 1);
        // Another client has its own bucket.
        assert_eq!(limiter.check("10.0.0.2", 0), RateDecision::Allowed);
        assert_eq!(limiter.tracked_clients(), 2);
    }

    #[test]
    fn bucket_refills_over_time_up_to_capacity() {
        let limiter = RateLimiter::new(2, 2); // 2 tokens/sec
        assert_eq!(limiter.check("c", 0), RateDecision::Allowed);
        assert_eq!(limiter.check("c", 0), RateDecision::Allowed);
        assert!(matches!(
            limiter.check("c", 0),
            RateDecision::Limited { .. }
        ));
        // 500 ms refills one token at 2/sec.
        assert_eq!(limiter.check("c", 500), RateDecision::Allowed);
        assert!(matches!(
            limiter.check("c", 500),
            RateDecision::Limited { .. }
        ));
        // A long idle period refills to capacity, not beyond.
        assert_eq!(limiter.check("c", 60_000), RateDecision::Allowed);
        assert_eq!(limiter.check("c", 60_000), RateDecision::Allowed);
        assert!(matches!(
            limiter.check("c", 60_000),
            RateDecision::Limited { .. }
        ));
    }

    #[test]
    fn retry_after_reflects_refill_rate() {
        let limiter = RateLimiter::new(1, 1);
        assert_eq!(limiter.check("c", 0), RateDecision::Allowed);
        assert_eq!(
            limiter.check("c", 0),
            RateDecision::Limited {
                retry_after_secs: 1
            }
        );
    }

    #[test]
    fn gate_caps_inflight_and_frees_on_drop() {
        let gate = AdmissionGate::new(2);
        let a = gate.try_acquire().map(|_p| ()).is_some();
        assert!(a);
        // Hold two permits, third is refused.
        let p1 = gate.try_acquire();
        let p2 = gate.try_acquire();
        assert!(p1.is_some() && p2.is_some());
        assert!(gate.try_acquire().is_none());
        assert_eq!(gate.inflight(), 2);
        drop(p1);
        assert_eq!(gate.inflight(), 1);
        assert!(gate.try_acquire().is_some());
        drop(p2);
        assert_eq!(gate.inflight(), 0);
    }
}
