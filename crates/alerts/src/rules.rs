//! Alert families, severities, and per-family rule configuration.

use std::collections::BTreeMap;
use std::fmt;

/// A member's replication link stopped answering (stale / dead link).
pub const FAMILY_LINK_DOWN: &str = "link_down";
/// A member's replication lag crossed the supervisor's threshold.
pub const FAMILY_REPLICATION_LAG: &str = "replication_lag";
/// The supervisor quarantined a member after repeated failures.
pub const FAMILY_QUARANTINE: &str = "quarantine";
/// `go_live` refused the topology on Error-severity diagnostics.
pub const FAMILY_PREFLIGHT_REFUSED: &str = "preflight_refused";
/// The gateway's admission gate refused a request (saturation).
pub const FAMILY_GATEWAY_SATURATION: &str = "gateway_saturation";

/// Every known alert family. `xdmod-check`'s XC0013 pass mirrors this
/// list as data (std-only, no dependency on this crate); a sync test in
/// `xdmod-core` pins the two together.
pub const FAMILIES: [&str; 5] = [
    FAMILY_LINK_DOWN,
    FAMILY_REPLICATION_LAG,
    FAMILY_QUARANTINE,
    FAMILY_PREFLIGHT_REFUSED,
    FAMILY_GATEWAY_SATURATION,
];

/// Default debounce window: a re-fire within 5 s of resolving is a flap.
pub const DEFAULT_DEBOUNCE_MS: u64 = 5_000;
/// Default quiet period after which an open alert auto-resolves.
pub const DEFAULT_RESOLVE_TIMEOUT_MS: u64 = 30_000;
/// Default age after which a resolved alert goes stale.
pub const DEFAULT_STALE_MS: u64 = 60_000;
/// Default notification bucket capacity (burst size).
pub const DEFAULT_NOTIFY_CAPACITY: u64 = 8;
/// Default notification bucket refill, tokens per second.
pub const DEFAULT_NOTIFY_REFILL_PER_SEC: u64 = 1;

/// How urgently an operator must react.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertSeverity {
    /// Informational; no action expected.
    Info,
    /// Degraded but serving; act soon.
    Warning,
    /// Member data loss or outage in progress; act now.
    Critical,
}

impl AlertSeverity {
    /// Lower-case wire form (`info` / `warning` / `critical`).
    pub fn as_str(self) -> &'static str {
        match self {
            AlertSeverity::Info => "info",
            AlertSeverity::Warning => "warning",
            AlertSeverity::Critical => "critical",
        }
    }

    /// Parse the wire form; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "info" => Some(AlertSeverity::Info),
            "warning" => Some(AlertSeverity::Warning),
            "critical" => Some(AlertSeverity::Critical),
            _ => None,
        }
    }
}

impl fmt::Display for AlertSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-family lifecycle tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertRule {
    /// Severity stamped onto alerts of this family.
    pub severity: AlertSeverity,
    /// Re-fire within this window of resolving folds into the same alert.
    pub debounce_ms: u64,
    /// Open alerts auto-resolve after this long without a fault.
    pub resolve_timeout_ms: u64,
    /// Resolved alerts go stale after this long without reopening.
    pub stale_ms: u64,
}

impl AlertRule {
    /// A rule with the default windows at the given severity.
    pub fn new(severity: AlertSeverity) -> Self {
        AlertRule {
            severity,
            debounce_ms: DEFAULT_DEBOUNCE_MS,
            resolve_timeout_ms: DEFAULT_RESOLVE_TIMEOUT_MS,
            stale_ms: DEFAULT_STALE_MS,
        }
    }

    /// Override the debounce window.
    pub fn with_debounce_ms(mut self, ms: u64) -> Self {
        self.debounce_ms = ms;
        self
    }

    /// Override the auto-resolve timeout.
    pub fn with_resolve_timeout_ms(mut self, ms: u64) -> Self {
        self.resolve_timeout_ms = ms;
        self
    }

    /// Override the stale age.
    pub fn with_stale_ms(mut self, ms: u64) -> Self {
        self.stale_ms = ms;
        self
    }
}

/// A problem found by [`AlertRules::validate`]. `xdmod-check` surfaces
/// these same three classes as XC0013 at preflight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleIssue {
    /// A rule names a family no producer ever emits — it can never fire.
    UnknownFamily {
        /// The unrecognized family name.
        family: String,
    },
    /// `resolve_timeout_ms <= debounce_ms`: the alert auto-resolves
    /// inside its own flap window, so every recurrence notifies afresh —
    /// exactly the storm flap damping exists to prevent.
    ResolveWithinDebounce {
        /// Offending family.
        family: String,
        /// Configured debounce window.
        debounce_ms: u64,
        /// Configured (too-small) resolve timeout.
        resolve_timeout_ms: u64,
    },
    /// A zero-capacity notification bucket suppresses every dispatch.
    ZeroNotifyCapacity,
}

impl fmt::Display for RuleIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleIssue::UnknownFamily { family } => {
                write!(f, "rule for unknown alert family {family:?} can never fire")
            }
            RuleIssue::ResolveWithinDebounce {
                family,
                debounce_ms,
                resolve_timeout_ms,
            } => write!(
                f,
                "family {family:?}: resolve timeout {resolve_timeout_ms} ms \
                 is within the {debounce_ms} ms debounce window"
            ),
            RuleIssue::ZeroNotifyCapacity => {
                f.write_str("zero-capacity notification bucket suppresses every dispatch")
            }
        }
    }
}

/// The full rule table: one [`AlertRule`] per family plus notification
/// bucket sizing. `Default` covers every known family with sensible
/// windows; unknown families queried at runtime fall back to a Warning
/// rule with default windows (and are flagged by [`validate`]).
///
/// [`validate`]: AlertRules::validate
#[derive(Debug, Clone)]
pub struct AlertRules {
    rules: BTreeMap<String, AlertRule>,
    notify_capacity: u64,
    notify_refill_per_sec: u64,
}

impl Default for AlertRules {
    fn default() -> Self {
        let mut rules = BTreeMap::new();
        rules.insert(
            FAMILY_LINK_DOWN.to_owned(),
            AlertRule::new(AlertSeverity::Critical),
        );
        rules.insert(
            FAMILY_REPLICATION_LAG.to_owned(),
            AlertRule::new(AlertSeverity::Warning),
        );
        rules.insert(
            FAMILY_QUARANTINE.to_owned(),
            AlertRule::new(AlertSeverity::Critical),
        );
        rules.insert(
            FAMILY_PREFLIGHT_REFUSED.to_owned(),
            AlertRule::new(AlertSeverity::Warning),
        );
        rules.insert(
            FAMILY_GATEWAY_SATURATION.to_owned(),
            AlertRule::new(AlertSeverity::Warning),
        );
        AlertRules {
            rules,
            notify_capacity: DEFAULT_NOTIFY_CAPACITY,
            notify_refill_per_sec: DEFAULT_NOTIFY_REFILL_PER_SEC,
        }
    }
}

impl AlertRules {
    /// Install (or replace) the rule for one family.
    pub fn set(&mut self, family: &str, rule: AlertRule) {
        self.rules.insert(family.to_owned(), rule);
    }

    /// The effective rule for a family (defaults for unknown families).
    pub fn rule_for(&self, family: &str) -> AlertRule {
        self.rules
            .get(family)
            .copied()
            .unwrap_or_else(|| AlertRule::new(AlertSeverity::Warning))
    }

    /// Every configured (family, rule) pair, sorted by family.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &AlertRule)> {
        self.rules.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Size the notification token bucket.
    pub fn set_notify(&mut self, capacity: u64, refill_per_sec: u64) {
        self.notify_capacity = capacity;
        self.notify_refill_per_sec = refill_per_sec;
    }

    /// Notification bucket capacity (burst size).
    pub fn notify_capacity(&self) -> u64 {
        self.notify_capacity
    }

    /// Notification bucket refill, tokens per second.
    pub fn notify_refill_per_sec(&self) -> u64 {
        self.notify_refill_per_sec
    }

    /// Check the table for configurations that silently misbehave.
    pub fn validate(&self) -> Vec<RuleIssue> {
        let mut issues = Vec::new();
        if self.notify_capacity == 0 {
            issues.push(RuleIssue::ZeroNotifyCapacity);
        }
        for (family, rule) in &self.rules {
            if !FAMILIES.contains(&family.as_str()) {
                issues.push(RuleIssue::UnknownFamily {
                    family: family.clone(),
                });
            }
            if rule.resolve_timeout_ms <= rule.debounce_ms {
                issues.push(RuleIssue::ResolveWithinDebounce {
                    family: family.clone(),
                    debounce_ms: rule.debounce_ms,
                    resolve_timeout_ms: rule.resolve_timeout_ms,
                });
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_every_family_and_validate_clean() {
        let rules = AlertRules::default();
        for family in FAMILIES {
            assert!(
                rules.entries().any(|(f, _)| f == family),
                "missing default rule for {family}"
            );
        }
        assert!(rules.validate().is_empty());
        assert_eq!(
            rules.rule_for(FAMILY_LINK_DOWN).severity,
            AlertSeverity::Critical
        );
        assert_eq!(
            rules.rule_for(FAMILY_QUARANTINE).severity,
            AlertSeverity::Critical
        );
    }

    #[test]
    fn unknown_family_falls_back_but_is_flagged() {
        let mut rules = AlertRules::default();
        assert_eq!(
            rules.rule_for("never_heard_of_it"),
            AlertRule::new(AlertSeverity::Warning)
        );
        rules.set("link_downn", AlertRule::new(AlertSeverity::Critical));
        let issues = rules.validate();
        assert_eq!(
            issues,
            vec![RuleIssue::UnknownFamily {
                family: "link_downn".to_owned()
            }]
        );
    }

    #[test]
    fn resolve_within_debounce_is_flagged() {
        let mut rules = AlertRules::default();
        rules.set(
            FAMILY_LINK_DOWN,
            AlertRule::new(AlertSeverity::Critical)
                .with_debounce_ms(10_000)
                .with_resolve_timeout_ms(10_000),
        );
        let issues = rules.validate();
        assert_eq!(issues.len(), 1);
        assert!(matches!(
            &issues[0],
            RuleIssue::ResolveWithinDebounce { family, .. } if family == FAMILY_LINK_DOWN
        ));
    }

    #[test]
    fn zero_notify_capacity_is_flagged() {
        let mut rules = AlertRules::default();
        rules.set_notify(0, 1);
        assert_eq!(rules.validate(), vec![RuleIssue::ZeroNotifyCapacity]);
    }

    #[test]
    fn severity_round_trips_and_orders() {
        for sev in [
            AlertSeverity::Info,
            AlertSeverity::Warning,
            AlertSeverity::Critical,
        ] {
            assert_eq!(AlertSeverity::parse(sev.as_str()), Some(sev));
        }
        assert_eq!(AlertSeverity::parse("CRITICAL"), None);
        assert!(AlertSeverity::Critical > AlertSeverity::Warning);
        assert!(AlertSeverity::Warning > AlertSeverity::Info);
    }

    #[test]
    fn issues_render_for_operators() {
        let issue = RuleIssue::ResolveWithinDebounce {
            family: "link_down".to_owned(),
            debounce_ms: 10,
            resolve_timeout_ms: 5,
        };
        let text = issue.to_string();
        assert!(text.contains("link_down"), "got: {text}");
        assert!(text.contains("debounce"), "got: {text}");
    }
}
