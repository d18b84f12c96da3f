//! The alert engine: fingerprinted identities and per-alert state
//! machines.

use crate::bucket::{TakeOutcome, TokenBucket};
use crate::rules::{AlertRules, AlertSeverity};
use std::collections::BTreeMap;
use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable identity of an alert: FNV-1a over `family \0 target`. The
/// same fault on the same link always hashes to the same alert, which is
/// what lets re-fires fold instead of multiplying.
pub fn fingerprint(family: &str, target: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in family
        .as_bytes()
        .iter()
        .chain(&[0u8])
        .chain(target.as_bytes())
    {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Render a fingerprint as the wire-form alert id (16 hex digits).
pub fn format_alert_id(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Where an alert is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// The fault is live and unhandled.
    Firing,
    /// An operator has seen it; the fault may still be live.
    Acknowledged,
    /// The fault cleared (explicit all-clear or quiet timeout).
    Resolved,
    /// Resolved long enough ago that it is history, not status.
    Stale,
}

impl AlertState {
    /// Lower-case wire form.
    pub fn as_str(self) -> &'static str {
        match self {
            AlertState::Firing => "firing",
            AlertState::Acknowledged => "acknowledged",
            AlertState::Resolved => "resolved",
            AlertState::Stale => "stale",
        }
    }

    /// Whether the underlying fault is still considered live.
    pub fn is_open(self) -> bool {
        matches!(self, AlertState::Firing | AlertState::Acknowledged)
    }

    fn rank(self) -> u8 {
        match self {
            AlertState::Firing => 0,
            AlertState::Acknowledged => 1,
            AlertState::Resolved => 2,
            AlertState::Stale => 3,
        }
    }
}

impl fmt::Display for AlertState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One alert: a fingerprinted (family, target) fault and its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Stable wire id (hex fingerprint).
    pub id: String,
    /// Fault family (one of [`crate::FAMILIES`], normally).
    pub family: String,
    /// What the fault is about — a member name, `gateway`, `preflight`.
    pub target: String,
    /// Severity stamped from the family's rule at (re)open time.
    pub severity: AlertSeverity,
    /// Lifecycle position.
    pub state: AlertState,
    /// Human-readable context from the most recent observation.
    pub detail: String,
    /// When this episode opened (ms, engine clock).
    pub opened_at_ms: u64,
    /// Most recent fault observation (ms).
    pub last_observed_ms: u64,
    /// Most recent state transition (ms).
    pub last_transition_ms: u64,
    /// Fault observations folded into this episode (≥ 1).
    pub occurrences: u64,
    /// Times the alert reopened within its debounce window.
    pub flaps: u64,
    /// Operator who acknowledged, while acknowledged.
    pub acked_by: Option<String>,
}

impl Alert {
    fn open(
        id: String,
        family: &str,
        target: &str,
        severity: AlertSeverity,
        detail: &str,
        now_ms: u64,
    ) -> Self {
        Alert {
            id,
            family: family.to_owned(),
            target: target.to_owned(),
            severity,
            state: AlertState::Firing,
            detail: detail.to_owned(),
            opened_at_ms: now_ms,
            last_observed_ms: now_ms,
            last_transition_ms: now_ms,
            occurrences: 1,
            flaps: 0,
            acked_by: None,
        }
    }
}

/// Why an acknowledgement was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckError {
    /// No alert has this id.
    UnknownAlert(String),
    /// The alert exists but is not in `firing`.
    NotFiring {
        /// The alert id.
        id: String,
        /// Its current state.
        state: AlertState,
    },
}

impl fmt::Display for AckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AckError::UnknownAlert(id) => write!(f, "no alert with id {id:?}"),
            AckError::NotFiring { id, state } => {
                write!(f, "alert {id:?} is {state}, not firing")
            }
        }
    }
}

impl std::error::Error for AckError {}

/// The engine: every live alert, keyed by fingerprint, plus the
/// generation counter the gateway's `ETag` caching is keyed to.
#[derive(Debug)]
pub struct AlertEngine {
    rules: AlertRules,
    alerts: BTreeMap<u64, Alert>,
    generation: u64,
    notify_bucket: TokenBucket,
    notifications_sent: u64,
    notifications_suppressed: u64,
}

impl AlertEngine {
    /// An empty engine under the given rule table.
    pub fn new(rules: AlertRules) -> Self {
        let notify_bucket =
            TokenBucket::new(rules.notify_capacity(), rules.notify_refill_per_sec());
        AlertEngine {
            rules,
            alerts: BTreeMap::new(),
            generation: 0,
            notify_bucket,
            notifications_sent: 0,
            notifications_suppressed: 0,
        }
    }

    /// The active rule table.
    pub fn rules(&self) -> &AlertRules {
        &self.rules
    }

    /// Swap the rule table (rebuilds the notification bucket).
    pub fn set_rules(&mut self, rules: AlertRules) {
        self.notify_bucket =
            TokenBucket::new(rules.notify_capacity(), rules.notify_refill_per_sec());
        self.rules = rules;
        self.generation += 1;
    }

    /// Monotone counter bumped on every visible state change; the
    /// gateway derives `/alerts` ETags from it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Notifications dispatched (token available at firing time).
    pub fn notifications_sent(&self) -> u64 {
        self.notifications_sent
    }

    /// Notifications suppressed by the token bucket.
    pub fn notifications_suppressed(&self) -> u64 {
        self.notifications_suppressed
    }

    fn notify(&mut self, now_ms: u64) {
        match self.notify_bucket.try_take(now_ms) {
            TakeOutcome::Taken => self.notifications_sent += 1,
            TakeOutcome::Empty { .. } => self.notifications_suppressed += 1,
        }
    }

    /// Record a fault observation. Returns the (stable) alert id.
    ///
    /// State machine, per the crate docs: open alerts fold the
    /// observation (occurrence count, no new notification); a resolved
    /// alert re-firing within its debounce window reopens as a flap; a
    /// resolved-past-debounce or stale alert starts a fresh episode.
    pub fn observe_fault(
        &mut self,
        family: &str,
        target: &str,
        detail: &str,
        now_ms: u64,
    ) -> String {
        let key = fingerprint(family, target);
        let rule = self.rules.rule_for(family);
        let mut fired = false;
        match self.alerts.get_mut(&key) {
            Some(alert) if alert.state.is_open() => {
                alert.occurrences += 1;
                alert.last_observed_ms = now_ms;
                if !detail.is_empty() {
                    alert.detail = detail.to_owned();
                }
            }
            Some(alert)
                if alert.state == AlertState::Resolved
                    && now_ms.saturating_sub(alert.last_transition_ms) <= rule.debounce_ms =>
            {
                alert.state = AlertState::Firing;
                alert.flaps += 1;
                alert.occurrences += 1;
                alert.acked_by = None;
                alert.severity = rule.severity;
                alert.last_observed_ms = now_ms;
                alert.last_transition_ms = now_ms;
                if !detail.is_empty() {
                    alert.detail = detail.to_owned();
                }
                fired = true;
            }
            Some(alert) => {
                // Resolved past debounce, or stale: a fresh episode on
                // the same identity.
                *alert = Alert::open(
                    format_alert_id(key),
                    family,
                    target,
                    rule.severity,
                    detail,
                    now_ms,
                );
                fired = true;
            }
            None => {
                self.alerts.insert(
                    key,
                    Alert::open(
                        format_alert_id(key),
                        family,
                        target,
                        rule.severity,
                        detail,
                        now_ms,
                    ),
                );
                fired = true;
            }
        }
        self.generation += 1;
        if fired {
            self.notify(now_ms);
        }
        format_alert_id(key)
    }

    /// Record an explicit all-clear for a (family, target). Returns true
    /// when an open alert transitioned to resolved.
    pub fn observe_ok(&mut self, family: &str, target: &str, now_ms: u64) -> bool {
        let key = fingerprint(family, target);
        let Some(alert) = self.alerts.get_mut(&key) else {
            return false;
        };
        if !alert.state.is_open() {
            return false;
        }
        alert.state = AlertState::Resolved;
        alert.last_transition_ms = now_ms;
        self.generation += 1;
        true
    }

    /// Acknowledge a firing alert on behalf of `who`.
    pub fn ack(&mut self, id: &str, who: &str, now_ms: u64) -> Result<(), AckError> {
        let Some(alert) = self.alerts.values_mut().find(|a| a.id == id) else {
            return Err(AckError::UnknownAlert(id.to_owned()));
        };
        if alert.state != AlertState::Firing {
            return Err(AckError::NotFiring {
                id: id.to_owned(),
                state: alert.state,
            });
        }
        alert.state = AlertState::Acknowledged;
        alert.acked_by = Some(who.to_owned());
        alert.last_transition_ms = now_ms;
        self.generation += 1;
        Ok(())
    }

    /// Apply timeout transitions: open alerts quiet for
    /// `resolve_timeout_ms` auto-resolve; resolved alerts older than
    /// `stale_ms` go stale.
    pub fn tick(&mut self, now_ms: u64) {
        let AlertEngine {
            rules,
            alerts,
            generation,
            ..
        } = self;
        for alert in alerts.values_mut() {
            let rule = rules.rule_for(&alert.family);
            match alert.state {
                AlertState::Firing | AlertState::Acknowledged
                    if now_ms.saturating_sub(alert.last_observed_ms) >= rule.resolve_timeout_ms =>
                {
                    alert.state = AlertState::Resolved;
                    alert.acked_by = None;
                    alert.last_transition_ms = now_ms;
                    *generation += 1;
                }
                AlertState::Resolved
                    if now_ms.saturating_sub(alert.last_transition_ms) >= rule.stale_ms =>
                {
                    alert.state = AlertState::Stale;
                    alert.last_transition_ms = now_ms;
                    *generation += 1;
                }
                _ => {}
            }
        }
    }

    /// Drop stale alerts (history, not status). Returns how many.
    pub fn purge_stale(&mut self) -> usize {
        let before = self.alerts.len();
        self.alerts.retain(|_, a| a.state != AlertState::Stale);
        let purged = before - self.alerts.len();
        if purged > 0 {
            self.generation += 1;
        }
        purged
    }

    /// One alert by wire id.
    pub fn get(&self, id: &str) -> Option<&Alert> {
        self.alerts.values().find(|a| a.id == id)
    }

    /// Every alert, most urgent first (state rank, then family, target).
    pub fn alerts(&self) -> Vec<Alert> {
        let mut out: Vec<Alert> = self.alerts.values().cloned().collect();
        out.sort_by(|a, b| {
            a.state
                .rank()
                .cmp(&b.state.rank())
                .then_with(|| a.family.cmp(&b.family))
                .then_with(|| a.target.cmp(&b.target))
        });
        out
    }

    /// How many alerts are open (firing or acknowledged).
    pub fn open_count(&self) -> usize {
        self.alerts.values().filter(|a| a.state.is_open()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{AlertRule, FAMILY_LINK_DOWN, FAMILY_REPLICATION_LAG};

    fn engine() -> AlertEngine {
        AlertEngine::new(AlertRules::default())
    }

    #[test]
    fn fingerprint_is_stable_and_separator_safe() {
        let a = fingerprint("link_down", "x");
        assert_eq!(a, fingerprint("link_down", "x"));
        assert_ne!(a, fingerprint("link_down", "y"));
        // The NUL separator keeps (ab, c) and (a, bc) distinct.
        assert_ne!(fingerprint("ab", "c"), fingerprint("a", "bc"));
        assert_eq!(format_alert_id(a).len(), 16);
    }

    #[test]
    fn lifecycle_fire_ack_resolve() {
        let mut eng = engine();
        let id = eng.observe_fault(FAMILY_LINK_DOWN, "x", "link dead", 10);
        assert_eq!(eng.open_count(), 1);
        let alert = eng.get(&id).unwrap().clone();
        assert_eq!(alert.state, AlertState::Firing);
        assert_eq!(alert.severity, AlertSeverity::Critical);
        assert_eq!(alert.occurrences, 1);

        eng.ack(&id, "ops", 20).unwrap();
        let alert = eng.get(&id).unwrap();
        assert_eq!(alert.state, AlertState::Acknowledged);
        assert_eq!(alert.acked_by.as_deref(), Some("ops"));

        assert!(eng.observe_ok(FAMILY_LINK_DOWN, "x", 30));
        assert_eq!(eng.get(&id).unwrap().state, AlertState::Resolved);
        assert_eq!(eng.open_count(), 0);
        // A second all-clear is a no-op.
        assert!(!eng.observe_ok(FAMILY_LINK_DOWN, "x", 31));
    }

    #[test]
    fn open_alert_folds_refires_without_new_notification() {
        let mut eng = engine();
        let id = eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 0);
        assert_eq!(eng.notifications_sent(), 1);
        for t in 1..=5 {
            let again = eng.observe_fault(FAMILY_LINK_DOWN, "x", "still dead", t);
            assert_eq!(again, id, "same identity must fold");
        }
        let alert = eng.get(&id).unwrap();
        assert_eq!(alert.occurrences, 6);
        assert_eq!(alert.flaps, 0);
        assert_eq!(alert.detail, "still dead");
        assert_eq!(eng.alerts().len(), 1, "exactly one alert");
        assert_eq!(eng.notifications_sent(), 1, "folds must not re-notify");
    }

    #[test]
    fn refire_within_debounce_is_a_flap_not_a_new_alert() {
        let mut eng = engine();
        let id = eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 0);
        eng.observe_ok(FAMILY_LINK_DOWN, "x", 100);
        // Default debounce is 5000 ms; re-fire at +1000.
        let again = eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 1_100);
        assert_eq!(again, id);
        let alert = eng.get(&id).unwrap();
        assert_eq!(alert.state, AlertState::Firing);
        assert_eq!(alert.flaps, 1);
        assert_eq!(alert.occurrences, 2);
        assert_eq!(alert.opened_at_ms, 0, "flap keeps the original episode");
        assert_eq!(eng.alerts().len(), 1);
    }

    #[test]
    fn refire_past_debounce_starts_a_fresh_episode() {
        let mut eng = engine();
        let id = eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 0);
        eng.observe_ok(FAMILY_LINK_DOWN, "x", 100);
        let again = eng.observe_fault(FAMILY_LINK_DOWN, "x", "back", 100 + 5_001);
        assert_eq!(again, id, "identity is stable across episodes");
        let alert = eng.get(&id).unwrap();
        assert_eq!(alert.occurrences, 1, "fresh episode restarts the count");
        assert_eq!(alert.flaps, 0);
        assert_eq!(alert.opened_at_ms, 5_101);
    }

    #[test]
    fn quiet_open_alert_times_out_to_resolved_then_stale() {
        let mut eng = engine();
        let id = eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 0);
        eng.tick(29_999);
        assert_eq!(eng.get(&id).unwrap().state, AlertState::Firing);
        eng.tick(30_000); // default resolve_timeout_ms
        assert_eq!(eng.get(&id).unwrap().state, AlertState::Resolved);
        eng.tick(30_000 + 59_999);
        assert_eq!(eng.get(&id).unwrap().state, AlertState::Resolved);
        eng.tick(30_000 + 60_000); // default stale_ms after resolving
        assert_eq!(eng.get(&id).unwrap().state, AlertState::Stale);
        assert_eq!(eng.purge_stale(), 1);
        assert!(eng.get(&id).is_none());
    }

    #[test]
    fn ack_requires_firing_and_a_known_id() {
        let mut eng = engine();
        assert_eq!(
            eng.ack("feedfeedfeedfeed", "ops", 0),
            Err(AckError::UnknownAlert("feedfeedfeedfeed".to_owned()))
        );
        let id = eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 0);
        eng.ack(&id, "ops", 1).unwrap();
        assert_eq!(
            eng.ack(&id, "ops", 2),
            Err(AckError::NotFiring {
                id: id.clone(),
                state: AlertState::Acknowledged
            })
        );
        // Timeout-resolve clears the ack attribution.
        eng.tick(1 + 30_000);
        assert_eq!(eng.get(&id).unwrap().state, AlertState::Resolved);
        assert_eq!(eng.get(&id).unwrap().acked_by, None);
    }

    #[test]
    fn generation_advances_on_every_visible_change() {
        let mut eng = engine();
        let g0 = eng.generation();
        let id = eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 0);
        let g1 = eng.generation();
        assert!(g1 > g0);
        eng.ack(&id, "ops", 1).unwrap();
        let g2 = eng.generation();
        assert!(g2 > g1);
        eng.observe_ok(FAMILY_LINK_DOWN, "x", 2);
        let g3 = eng.generation();
        assert!(g3 > g2);
        // A tick with nothing to do leaves the generation alone.
        eng.tick(3);
        assert_eq!(eng.generation(), g3);
    }

    #[test]
    fn notification_bucket_gates_alert_storms() {
        let mut rules = AlertRules::default();
        rules.set_notify(2, 1);
        let mut eng = AlertEngine::new(rules);
        for i in 0..5 {
            eng.observe_fault(FAMILY_LINK_DOWN, &format!("m{i}"), "", 0);
        }
        assert_eq!(eng.notifications_sent(), 2);
        assert_eq!(eng.notifications_suppressed(), 3);
        assert_eq!(eng.alerts().len(), 5, "suppression hides nothing");
    }

    #[test]
    fn alerts_sort_most_urgent_first() {
        let mut eng = engine();
        eng.observe_fault(FAMILY_REPLICATION_LAG, "y", "", 0);
        eng.observe_fault(FAMILY_LINK_DOWN, "x", "", 0);
        eng.observe_ok(FAMILY_REPLICATION_LAG, "y", 1);
        let alerts = eng.alerts();
        assert_eq!(alerts[0].family, FAMILY_LINK_DOWN);
        assert_eq!(alerts[0].state, AlertState::Firing);
        assert_eq!(alerts[1].state, AlertState::Resolved);
    }

    #[test]
    fn custom_rule_windows_apply_per_family() {
        let mut rules = AlertRules::default();
        rules.set(
            FAMILY_REPLICATION_LAG,
            AlertRule::new(AlertSeverity::Info)
                .with_debounce_ms(10)
                .with_resolve_timeout_ms(50)
                .with_stale_ms(100),
        );
        let mut eng = AlertEngine::new(rules);
        let id = eng.observe_fault(FAMILY_REPLICATION_LAG, "y", "", 0);
        assert_eq!(eng.get(&id).unwrap().severity, AlertSeverity::Info);
        eng.tick(50);
        assert_eq!(eng.get(&id).unwrap().state, AlertState::Resolved);
        // Past the 10 ms debounce → fresh episode, not a flap.
        eng.observe_fault(FAMILY_REPLICATION_LAG, "y", "", 61);
        assert_eq!(eng.get(&id).unwrap().flaps, 0);
        assert_eq!(eng.get(&id).unwrap().occurrences, 1);
    }
}
