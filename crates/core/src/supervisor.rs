//! Link supervision: the self-healing layer over federation links.
//!
//! The paper's federation assumes links that quietly keep working; real
//! affiliated sites drop off networks, crash mid-write, and come back
//! with repaired (shorter) binlogs. This module defines the *vocabulary*
//! of supervision — health states, the supervisor's policy knobs, and
//! the per-pass report — while the mechanics live on
//! [`Federation::supervise`](crate::federation::Federation::supervise),
//! which owns the links.
//!
//! Supervision is a pass over the federation's one schedule, not a
//! thread: it steps every due link through
//! [`Replicator::step`](xdmod_replication::Replicator::step) — a failed
//! one no earlier than its retry's backoff — and counts strikes from each
//! link's latest step, whoever ran it. Passes at given instants keep
//! fault-injection runs fully deterministic: the same seeded
//! [`FaultPlan`](xdmod_chaos::FaultPlan) always meets the same sequence
//! of link operations.
//!
//! The state machine per member (a step resyncs instead of polling when
//! polling cannot bring the link level with its source):
//!
//! ```text
//!       latest step ok          latest step failed (strikes < max)
//!   Live  ◀───────────  Stale(age)  ◀──────────────────────┐
//!    │                      │                               │
//!    │                      │ strikes reach                 │
//!    │                      ▼ max_failures                  │
//!    │                    Quarantined ── reinstate_member ──┘
//!    │                      (parked: nothing steps it)
//!    ▼
//!   Lagging(behind)   (healthy but behind the source binlog head)
//! ```

use std::fmt;
use std::time::Duration;

/// Health of one federation member's link, as reported by
/// [`Federation::health`](crate::federation::Federation::health) and
/// annotated in the degraded-mode ops report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberHealth {
    /// The last drive of the link succeeded and it is caught up.
    Live,
    /// The link works but its watermark trails the source binlog head.
    Lagging {
        /// Binlog events between the watermark and the source head.
        behind: u64,
    },
    /// The link is currently failing (or has not succeeded recently),
    /// but has not yet exhausted the supervisor's patience.
    Stale {
        /// Seconds since the last successful drive (0 if never driven).
        age_secs: u64,
    },
    /// The supervisor gave up on the link after repeated failures; it is
    /// parked and nothing steps it until
    /// [`reinstate_member`](crate::federation::Federation::reinstate_member).
    Quarantined,
}

impl MemberHealth {
    /// Live or merely lagging — the member still participates.
    pub fn is_healthy(&self) -> bool {
        matches!(self, MemberHealth::Live | MemberHealth::Lagging { .. })
    }
}

impl fmt::Display for MemberHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberHealth::Live => write!(f, "live"),
            MemberHealth::Lagging { behind } => write!(f, "lagging({behind} behind)"),
            MemberHealth::Stale { age_secs } => write!(f, "stale({age_secs}s)"),
            MemberHealth::Quarantined => write!(f, "quarantined"),
        }
    }
}

/// Knobs of the supervision loop. How a link retries is its own: each
/// link retries under the policy its member joined with (`retries`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Strikes in a row before a member is quarantined: passes that
    /// found the link's latest step, run since the pass before, failed.
    pub max_failures: u32,
    /// Events of lag a link may carry and still count as
    /// [`MemberHealth::Live`]; beyond it the member reads as `Lagging`.
    pub lag_threshold: u64,
    /// A member whose last success is older than this reads as `Stale`
    /// even if no step has failed outright (e.g. a wedged source).
    pub stale_after: Duration,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            max_failures: 3,
            lag_threshold: 0,
            stale_after: Duration::from_secs(300),
        }
    }
}

impl SupervisorPolicy {
    /// Quarantine after `n` strikes in a row.
    pub fn with_max_failures(mut self, n: u32) -> Self {
        self.max_failures = n;
        self
    }
}

/// What one supervision pass did to (and observed about) one member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberReport {
    /// Member name.
    pub name: String,
    /// Health after this pass.
    pub health: MemberHealth,
    /// This pass's step found that polling could not bring the link level
    /// with its source (see
    /// [`Replicator::needs_resync`](xdmod_replication::Replicator::needs_resync)),
    /// so it resynced the hub schema from the source tables. A step the
    /// driver ran resyncs the same way but is not this pass's to report.
    pub resynced: bool,
    /// This pass is the one that moved the member into quarantine.
    pub quarantined_now: bool,
    /// The error of the link's latest step, if it failed.
    pub error: Option<String>,
}

/// One [`supervise`](crate::federation::Federation::supervise) pass over
/// every member.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Per-member outcomes, in federation join order.
    pub members: Vec<MemberReport>,
}

impl SupervisionReport {
    /// Health of `name` after this pass, if it is a member.
    pub fn health_of(&self, name: &str) -> Option<MemberHealth> {
        self.members
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.health)
    }

    /// Names of members currently quarantined.
    pub fn quarantined(&self) -> Vec<&str> {
        self.members
            .iter()
            .filter(|m| m.health == MemberHealth::Quarantined)
            .map(|m| m.name.as_str())
            .collect()
    }

    /// True when every member is live or merely lagging.
    pub fn all_healthy(&self) -> bool {
        self.members.iter().all(|m| m.health.is_healthy())
    }
}

impl fmt::Display for SupervisionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for m in &self.members {
            write!(f, "{}: {}", m.name, m.health)?;
            if m.resynced {
                write!(f, " [resynced]")?;
            }
            if let Some(e) = &m.error {
                write!(f, " ({e})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_displays_compactly() {
        assert_eq!(MemberHealth::Live.to_string(), "live");
        assert_eq!(
            MemberHealth::Lagging { behind: 7 }.to_string(),
            "lagging(7 behind)"
        );
        assert_eq!(
            MemberHealth::Stale { age_secs: 12 }.to_string(),
            "stale(12s)"
        );
        assert_eq!(MemberHealth::Quarantined.to_string(), "quarantined");
    }

    #[test]
    fn healthiness_partition() {
        assert!(MemberHealth::Live.is_healthy());
        assert!(MemberHealth::Lagging { behind: 1 }.is_healthy());
        assert!(!MemberHealth::Stale { age_secs: 0 }.is_healthy());
        assert!(!MemberHealth::Quarantined.is_healthy());
    }

    #[test]
    fn report_helpers() {
        let report = SupervisionReport {
            members: vec![
                MemberReport {
                    name: "x".into(),
                    health: MemberHealth::Live,
                    resynced: true,
                    quarantined_now: false,
                    error: None,
                },
                MemberReport {
                    name: "z".into(),
                    health: MemberHealth::Quarantined,
                    resynced: false,
                    quarantined_now: true,
                    error: Some("injected link-down".into()),
                },
            ],
        };
        assert_eq!(report.health_of("x"), Some(MemberHealth::Live));
        assert_eq!(report.health_of("z"), Some(MemberHealth::Quarantined));
        assert_eq!(report.health_of("missing"), None);
        assert_eq!(report.quarantined(), vec!["z"]);
        assert!(!report.all_healthy());
        let text = report.to_string();
        assert!(text.contains("x: live [resynced]"));
        assert!(text.contains("z: quarantined"));
    }

    #[test]
    fn policy_defaults_are_patient_but_finite() {
        let p = SupervisorPolicy::default();
        assert_eq!(p.max_failures, 3);
        assert_eq!(p.lag_threshold, 0);
        assert!(p.stale_after > Duration::ZERO);
        assert_eq!(p.with_max_failures(1).max_failures, 1);
    }
}
