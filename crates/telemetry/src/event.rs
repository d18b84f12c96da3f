//! A bounded ring buffer of structured events.
//!
//! Events are the registry's trace substrate: replication errors, lag
//! samples, lifecycle notes. The buffer is bounded (oldest dropped first)
//! so an instrumented component can emit freely without unbounded memory
//! growth; sequence numbers stay monotone across drops so consumers can
//! detect loss.
//!
//! The ring holds `Arc<Event>`s, so reading it (a snapshot, `events()`)
//! bumps reference counts instead of copying strings. A full ring rewrites
//! the event it evicts in place when nobody else holds it, reusing its
//! allocation and its strings, so recording into a full ring allocates
//! nothing once the shapes of its events repeat.

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
    /// copied by every later one: an event never changes while anyone but
    /// its ring holds it.
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

    /// Become a new event, reusing the strings and the field vector, and
    /// forget the old JSON object.
    fn overwrite(
        &mut self,
        seq: u64,
        elapsed_ms: u64,
        kind: &str,
        message: &str,
        fields: &[(&str, f64)],
    ) {
        self.seq = seq;
        self.elapsed_ms = elapsed_ms;
        self.kind.clear();
        self.kind.push_str(kind);
        self.message.clear();
        self.message.push_str(message);
        self.fields.truncate(fields.len());
        for ((key, value), (k, v)) in self.fields.iter_mut().zip(fields) {
            key.clear();
            key.push_str(k);
            *value = *v;
        }
        let more = fields[self.fields.len()..].iter();
        self.fields.extend(more.map(|(k, v)| ((*k).to_owned(), *v)));
        self.json = OnceLock::new();
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
        let mut evicted = None;
        if self.events.len() == self.capacity {
            evicted = self.events.pop_front();
            self.dropped += 1;
        }
        // An evicted event that a snapshot or an `events()` caller still
        // holds is theirs to read unchanged: only an unshared one is reused.
        if let Some(mut event) = evicted {
            if let Some(reused) = Arc::get_mut(&mut event) {
                reused.overwrite(seq, elapsed_ms, kind, message, fields);
                self.events.push_back(event);
                return seq;
            }
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
    use crate::RegistrySnapshot;

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

    /// A snapshot of the ring's events, for their JSON.
    fn snapshot(ring: &EventRing) -> RegistrySnapshot {
        RegistrySnapshot {
            events: ring.all(),
            ..RegistrySnapshot::default()
        }
    }

    #[test]
    fn a_held_event_is_never_recycled_and_a_recycled_one_renders_anew() {
        for capacity in [1, 3, 16] {
            let mut ring = EventRing::new(capacity);
            let mut expected = EventRing::new(4 * capacity);
            let mut push = |ring: &mut EventRing, i: usize, kind: &str, fields: &[(&str, f64)]| {
                let message = format!("link-{i}");
                ring.push(i as u64, kind, &message, fields);
                expected.push(i as u64, kind, &message, fields);
            };
            for i in 0..capacity {
                push(
                    &mut ring,
                    i,
                    "replication.lag",
                    &[("lag_events", i as f64), ("b", 1.0)],
                );
            }
            let held = snapshot(&ring);
            let held_json = held.json();
            let before: Vec<Event> = held.events.iter().map(|e| Event::clone(e)).collect();
            // Evicts every held event (each push allocates afresh), then
            // recycles those fresh ones, whose JSON the middle snapshot
            // rendered: the shapes differ from the held events' too.
            for i in capacity..2 * capacity {
                push(&mut ring, i, "replication.error", &[("attempt", i as f64)]);
            }
            snapshot(&ring).json();
            for i in 2 * capacity..3 * capacity {
                let fields: &[(&str, f64)] = match i % 3 {
                    0 => &[],
                    1 => &[("a", 0.5)],
                    _ => &[("attempt", -1.0), ("a\"b", 2.0), ("c", 3.0)],
                };
                push(&mut ring, i, "lifecycle\nnote", fields);
            }
            assert_eq!(held.events.len(), capacity);
            for (e, b) in held.events.iter().zip(&before) {
                assert_eq!(**e, *b);
                assert_eq!((e.seq, e.kind.as_str()), (b.seq, "replication.lag"));
            }
            assert_eq!(held.json(), held_json, "capacity {capacity}");
            let now = snapshot(&ring);
            let seqs: Vec<u64> = now.events.iter().map(|e| e.seq).collect();
            let want: Vec<u64> = (2 * capacity as u64 + 1..=3 * capacity as u64).collect();
            assert_eq!(seqs, want);
            let fresh = expected.all();
            let fresh = RegistrySnapshot {
                events: fresh[fresh.len() - capacity..].to_vec(),
                ..RegistrySnapshot::default()
            };
            assert_eq!(now.events, fresh.events);
            assert_eq!(now.json(), fresh.json(), "capacity {capacity}");
        }
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
