//! # xdmod-alerts — alert-lifecycle state machines for the federation.
//!
//! The telemetry layer records what happened; this crate decides what an
//! operator must *act on*. Faults observed by the supervisor and mined
//! from the event ring are fingerprinted into stable alert identities and
//! driven through a small per-alert state machine:
//!
//! ```text
//!                      fault while open: fold (occurrences += 1)
//!                        ┌──────────────┐
//!                        ▼              │
//!   fault ──────────► firing ───ack───► acknowledged
//!                        │                    │
//!                        ├── observe_ok ──────┤
//!                        │                    │
//!                        ├── quiet for resolve_timeout_ms ──┐
//!                        ▼                    ▼             │
//!                     resolved ◄──────────────┘◄────────────┘
//!                        │  ▲
//!                        │  └── re-fire within debounce_ms:
//!                        │      reopen same alert (flaps += 1)
//!                        ▼
//!                      stale   (resolved and quiet for stale_ms)
//! ```
//!
//! Design decisions, modeled on acteon-style alert pipelines:
//!
//! - **Stable identity.** An alert is keyed by FNV-1a over
//!   `family \0 target`, so the same fault on the same link always lands
//!   on the same alert id — re-fires fold instead of multiplying.
//! - **Flap damping.** A fault arriving while the alert is open folds
//!   into it (`occurrences += 1`, no new notification); a fault arriving
//!   within `debounce_ms` of the alert resolving reopens the *same*
//!   alert (`flaps += 1`) instead of minting a fresh one.
//! - **Timeout transitions.** Open alerts auto-resolve after
//!   `resolve_timeout_ms` without a fault observation (the fault stopped
//!   recurring); resolved alerts age out to `stale` after `stale_ms`.
//! - **Notification gating.** Every transition into `firing` passes
//!   through a [`TokenBucket`] — the same milli-token scheme the
//!   gateway's per-client rate limiter uses — so an alert storm cannot
//!   flood a notification channel; suppressed dispatches are counted,
//!   never silently dropped.
//!
//! The crate is std-only and fully time-injected (`now_ms` parameters
//! everywhere): the engine is deterministic under test, and the
//! embedding layer (`xdmod-core`) supplies its telemetry clock.

mod bucket;
mod engine;
mod rules;

pub use bucket::{TakeOutcome, TokenBucket};
pub use engine::{fingerprint, format_alert_id, AckError, Alert, AlertEngine, AlertState};
pub use rules::{
    AlertRule, AlertRules, AlertSeverity, RuleIssue, DEFAULT_DEBOUNCE_MS, DEFAULT_NOTIFY_CAPACITY,
    DEFAULT_NOTIFY_REFILL_PER_SEC, DEFAULT_RESOLVE_TIMEOUT_MS, DEFAULT_STALE_MS, FAMILIES,
    FAMILY_GATEWAY_SATURATION, FAMILY_LINK_DOWN, FAMILY_PREFLIGHT_REFUSED, FAMILY_QUARANTINE,
    FAMILY_REPLICATION_LAG,
};
