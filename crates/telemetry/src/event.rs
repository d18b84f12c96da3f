//! A bounded ring buffer of structured events.
//!
//! Events are the registry's trace substrate: replication errors, lag
//! samples, lifecycle notes. The buffer is bounded (oldest dropped first)
//! so an instrumented component can emit freely without unbounded memory
//! growth; sequence numbers stay monotone across drops so consumers can
//! detect loss.
//!
//! The ring holds `Arc<Event>`s, so reading it (a snapshot, `events()`)
//! bumps reference counts instead of copying strings.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// One structured event.
///
/// Equality compares the five public fields only.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotone sequence number (1-based; survives ring eviction).
    pub seq: u64,
    /// Milliseconds since the owning registry was created.
    pub elapsed_ms: u64,
    /// Dotted event kind, e.g. `replication.lag` or `replication.error`.
    pub kind: String,
    /// Free-form context (for link-scoped events, the link name).
    pub message: String,
    /// Structured numeric payload.
    pub fields: Vec<(String, f64)>,
    /// The event's JSON object, rendered by its first JSON exposition and
    /// copied by every later one: an event never changes once pushed.
    pub(crate) json: OnceLock<String>,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
            && self.elapsed_ms == other.elapsed_ms
            && self.kind == other.kind
            && self.message == other.message
            && self.fields == other.fields
    }
}

impl Event {
    /// Value of a named field, if present.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Fixed-capacity event ring.
#[derive(Debug)]
pub(crate) struct EventRing {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    events: VecDeque<Arc<Event>>,
}

impl EventRing {
    pub(crate) fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            next_seq: 1,
            dropped: 0,
            events: VecDeque::new(),
        }
    }

    pub(crate) fn push(
        &mut self,
        elapsed_ms: u64,
        kind: &str,
        message: &str,
        fields: &[(&str, f64)],
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Arc::new(Event {
            seq,
            elapsed_ms,
            kind: kind.to_owned(),
            message: message.to_owned(),
            fields: fields.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            json: OnceLock::new(),
        }));
        seq
    }

    pub(crate) fn all(&self) -> Vec<Arc<Event>> {
        self.events.iter().cloned().collect()
    }

    pub(crate) fn total_emitted(&self) -> u64 {
        self.next_seq - 1
    }

    /// Events evicted before anyone could read them. Ring overflow
    /// would otherwise be the one telemetry loss telemetry can't see —
    /// the registry surfaces this as `telemetry_events_dropped_total`.
    pub(crate) fn total_dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_drops_oldest_but_keeps_sequence() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(i, "k", "m", &[]);
        }
        let events = ring.all();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(ring.total_emitted(), 5);
        assert_eq!(ring.total_dropped(), 2);
    }

    #[test]
    fn dropped_stays_zero_until_overflow() {
        let mut ring = EventRing::new(2);
        ring.push(0, "a", "", &[]);
        ring.push(0, "b", "", &[]);
        assert_eq!(ring.total_dropped(), 0);
        ring.push(0, "c", "", &[]);
        assert_eq!(ring.total_dropped(), 1);
    }

    #[test]
    fn fields_are_preserved_and_queryable() {
        let mut ring = EventRing::new(8);
        ring.push(7, "replication.lag", "link-x", &[("lag_events", 4.0)]);
        let e = &ring.all()[0];
        assert_eq!(e.kind, "replication.lag");
        assert_eq!(e.message, "link-x");
        assert_eq!(e.field("lag_events"), Some(4.0));
        assert_eq!(e.field("absent"), None);
        assert_eq!(e.elapsed_ms, 7);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut ring = EventRing::new(0);
        ring.push(0, "a", "", &[]);
        ring.push(0, "b", "", &[]);
        assert_eq!(ring.all().len(), 1);
        assert_eq!(ring.all()[0].kind, "b");
    }
}
