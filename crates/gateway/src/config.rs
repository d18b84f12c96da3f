//! Gateway tuning knobs, with defaults sized for a small federation.

use std::time::Duration;

/// Serving-tier configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Request worker threads. [`xdmod_check`]'s XC0012 warns when this
    /// exceeds the hub's aggregation pool — the surplus workers would
    /// queue behind aggregation locks while holding sockets open.
    pub workers: usize,
    /// Bounded accept-queue depth; a full queue refuses connections with
    /// an inline 503 instead of growing latency unboundedly.
    pub queue_depth: usize,
    /// Global cap on concurrently-served requests (the admission gate).
    pub max_inflight: usize,
    /// Token-bucket burst capacity per client address.
    pub rate_capacity: u64,
    /// Token-bucket refill, tokens per second per client.
    pub rate_refill_per_sec: u64,
    /// Socket read timeout while parsing one request.
    pub read_timeout: Duration,
    /// How often the acceptor's idle path sweeps expired sessions out of
    /// the hub's session store (`Duration::ZERO` sweeps on every idle
    /// tick — useful in tests).
    pub session_purge_interval: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            workers: 4,
            queue_depth: 64,
            max_inflight: 32,
            rate_capacity: 20,
            rate_refill_per_sec: 10,
            read_timeout: Duration::from_secs(5),
            session_purge_interval: Duration::from_secs(60),
        }
    }
}

impl GatewayConfig {
    /// Set the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the global in-flight cap.
    pub fn with_max_inflight(mut self, max: usize) -> Self {
        self.max_inflight = max;
        self
    }

    /// Set the per-client token bucket: burst capacity and refill rate.
    pub fn with_rate_limit(mut self, capacity: u64, refill_per_sec: u64) -> Self {
        self.rate_capacity = capacity;
        self.rate_refill_per_sec = refill_per_sec;
        self
    }

    /// Set the per-request socket read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Set the expired-session sweep interval.
    pub fn with_session_purge_interval(mut self, interval: Duration) -> Self {
        self.session_purge_interval = interval;
        self
    }
}
