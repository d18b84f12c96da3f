//! The metric registry and its scalar instruments.
//!
//! Each instrument kind keeps its series in a `Vec` sorted by id, which
//! snapshots copy by `Arc`, plus a hash index from a cheap key of the
//! borrowed `(name, labels)` to the series, so a lookup of a registered
//! series hashes once, probes once and allocates nothing.

use crate::event::{Event, EventRing};
use crate::histogram::{Histogram, HistogramCore, HistogramSnapshot};
use crate::span::Span;
use std::cmp::Ordering as Order;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Default bound of the event ring buffer.
const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Identity of one metric: a name plus sorted label pairs.
///
/// Two instruments with the same id share state, so a component may
/// re-request a handle instead of caching it. A re-request hashes the
/// borrowed name and labels once, takes the registry lock and finds the
/// series with one probe of a hash index, and allocates nothing; caching
/// still skips the hash and the lock.
///
/// An id is rendered at most once: the first exposition that shows it
/// escapes its label set and its JSON head into a memo that every later
/// exposition, and [`render`](Self::render), copies. Comparison and
/// ordering ignore the memo, and a clone starts without one, so change the
/// fields of a clone, never of an id that has been rendered.
#[derive(Debug)]
pub struct MetricId {
    /// Metric name, e.g. `replication_events_applied_total`.
    pub name: String,
    /// Label pairs, sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
    /// The escaped text-format label set `k="v",…` followed by the JSON
    /// series head `{"name":"…","labels":{…}`, and where the head starts.
    pub(crate) memo: OnceLock<(Box<str>, usize)>,
}

impl Clone for MetricId {
    fn clone(&self) -> Self {
        MetricId {
            name: self.name.clone(),
            labels: self.labels.clone(),
            memo: OnceLock::new(),
        }
    }
}

impl PartialEq for MetricId {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.labels == other.labels
    }
}

impl Eq for MetricId {}

impl PartialOrd for MetricId {
    fn partial_cmp(&self, other: &Self) -> Option<Order> {
        Some(self.cmp(other))
    }
}

impl Ord for MetricId {
    fn cmp(&self, other: &Self) -> Order {
        self.name
            .cmp(&other.name)
            .then_with(|| self.labels.cmp(&other.labels))
    }
}

impl MetricId {
    /// Build an id with canonically sorted labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_owned(),
            labels,
            memo: OnceLock::new(),
        }
    }

    /// Value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Render as `name{k="v",...}` (or bare `name` without labels).
    pub fn render(&self) -> String {
        let labels = self.label_set();
        let mut out = String::with_capacity(self.name.len() + labels.len() + 2);
        out.push_str(&self.name);
        if !labels.is_empty() {
            out.push('{');
            out.push_str(labels);
            out.push('}');
        }
        out
    }

    /// `self.cmp(&MetricId::new(name, labels))` without building the
    /// right-hand id; `labels` must already be sorted.
    fn cmp_borrowed(&self, name: &str, labels: &[(&str, &str)]) -> Order {
        let own = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        self.name
            .as_str()
            .cmp(name)
            .then_with(|| own.cmp(labels.iter().copied()))
    }
}

/// Run `f` on `labels` in `MetricId` order: in place when already
/// sorted (every caller that writes its labels in key order), else on a
/// sorted copy.
fn with_sorted<R>(labels: &[(&str, &str)], f: impl FnOnce(&[(&str, &str)]) -> R) -> R {
    if labels.windows(2).all(|w| w[0] <= w[1]) {
        f(labels)
    } else {
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        f(&sorted)
    }
}

/// The entry of `series` (sorted by id) with the id `name{labels}`.
fn find<'a, T>(
    series: &'a [(Arc<MetricId>, T)],
    name: &str,
    labels: &[(&str, &str)],
) -> Option<&'a T> {
    with_sorted(labels, |labels| {
        let at = series
            .binary_search_by(|(id, _)| id.cmp_borrowed(name, labels))
            .ok()?;
        Some(&series[at].1)
    })
}

/// The run of `series` (sorted by id) whose ids are named `name`.
fn named<'a, T>(series: &'a [(Arc<MetricId>, T)], name: &str) -> &'a [(Arc<MetricId>, T)] {
    let start = series.partition_point(|(id, _)| id.name.as_str() < name);
    let len = series[start..].partition_point(|(id, _)| id.name == name);
    &series[start..start + len]
}

/// A monotonically increasing counter. Cloning shares state; a handle
/// from a disabled registry is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter.
    pub fn noop() -> Self {
        Counter(None)
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for no-op handles).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |cell| cell.load(Ordering::Relaxed))
    }
}

/// An instantaneous `f64` gauge (stored as bits in an `AtomicU64`).
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// A no-op gauge.
    pub fn noop() -> Self {
        Gauge(None)
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Add a delta (CAS loop).
    pub fn add(&self, delta: f64) {
        if let Some(cell) = &self.0 {
            let mut cur = cell.load(Ordering::Relaxed);
            loop {
                let new = (f64::from_bits(cur) + delta).to_bits();
                match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
    }

    /// Current value (0.0 for no-op handles).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |cell| f64::from_bits(cell.load(Ordering::Relaxed)))
    }
}

/// One instrument kind's series. `sorted` holds them by id for snapshots,
/// which clone the `Arc`s and nothing else; `index` maps the [`key`] of a
/// borrowed `(name, labels)` to its series, so a lookup is one probe.
#[derive(Debug)]
struct Series<T> {
    sorted: Vec<(Arc<MetricId>, Arc<T>)>,
    /// One entry per key: the first series registered under it, added
    /// after its `sorted` entry. A series whose key collides with another's
    /// is found by binary search.
    index: HashMap<u64, (Arc<MetricId>, Arc<T>), BuildHasherDefault<PassThrough>>,
}

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series {
            sorted: Vec::new(),
            index: HashMap::default(),
        }
    }
}

/// The index's hasher: its keys are already [`key`]s, so it hands the
/// `u64` on instead of hashing it again.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    /// Not reached: a `u64` key hashes through `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }
}

/// One round of [`key`]: fold `word` in, multiply by an odd constant and
/// rotate the well-mixed high bits down.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash ^ word)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(29)
}

/// [`mix`] in `s`'s length, then its bytes eight at a time (the last word
/// zero-padded; the length keeps that unambiguous).
#[inline]
fn mix_str(mut hash: u64, s: &str) -> u64 {
    hash = mix(hash, s.len() as u64);
    let mut words = s.as_bytes().chunks_exact(8);
    for word in &mut words {
        let mut bytes = [0; 8];
        bytes.copy_from_slice(word);
        hash = mix(hash, u64::from_le_bytes(bytes));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut bytes = [0; 8];
        bytes[..rest.len()].copy_from_slice(rest);
        hash = mix(hash, u64::from_le_bytes(bytes));
    }
    hash
}

/// The index key of `name{labels}`, `labels` sorted: a word-at-a-time
/// multiply-rotate hash of the name, then each label key and value, each
/// preceded by its length, and a last round that carries the final word's
/// high bits into the bits the index probes with.
///
/// The hash is unkeyed, so ids chosen to collide would all fall through
/// to the binary search. Nobody can choose them: series ids come from code
/// and configuration, never from request bytes (the gateway labels its
/// series with a fixed endpoint set and status codes).
fn key(name: &str, labels: &[(&str, &str)]) -> u64 {
    let mut hash = mix_str(0x243f_6a88_85a3_08d3, name);
    for (k, v) in labels {
        hash = mix_str(mix_str(hash, k), v);
    }
    let key = mix(hash, labels.len() as u64);
    #[cfg(test)]
    let key = key & tests::KEY_MASK.with(std::cell::Cell::get);
    key
}

/// The cell of `name{labels}` in `series`, inserted from `make` (with its
/// one owned `MetricId`) on first request.
fn find_or_insert<T>(
    series: &Mutex<Series<T>>,
    name: &str,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> T,
) -> Arc<T> {
    with_sorted(labels, |labels| {
        let key = key(name, labels);
        let mut series = series.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((id, cell)) = series.index.get(&key) {
            if id.cmp_borrowed(name, labels).is_eq() {
                return Arc::clone(cell);
            }
        }
        // Not registered, or another id holds the key.
        let Series { sorted, index } = &mut *series;
        match sorted.binary_search_by(|(id, _)| id.cmp_borrowed(name, labels)) {
            Ok(at) => Arc::clone(&sorted[at].1),
            Err(at) => {
                let cell = Arc::new(make());
                let id = Arc::new(MetricId::new(name, labels));
                sorted.insert(at, (Arc::clone(&id), Arc::clone(&cell)));
                index.entry(key).or_insert_with(|| (id, Arc::clone(&cell)));
                cell
            }
        }
    })
}

#[derive(Debug)]
struct Inner {
    start: Instant,
    counters: Mutex<Series<AtomicU64>>,
    gauges: Mutex<Series<AtomicU64>>,
    histograms: Mutex<Series<HistogramCore>>,
    events: Mutex<EventRing>,
}

/// The metric registry: a cheaply cloneable, global-free handle that owns
/// every instrument of one observed system (an instance, a hub, a test).
///
/// `Default` is **disabled** so that embedding a registry into another
/// struct (e.g. the warehouse `Database`) costs nothing until an owner
/// explicitly attaches an enabled one.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Option<Arc<Inner>>,
}

impl MetricsRegistry {
    /// An enabled registry with the default event-ring capacity.
    pub fn new() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An enabled registry with a custom event-ring capacity.
    pub fn with_event_capacity(capacity: usize) -> Self {
        MetricsRegistry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                counters: Mutex::default(),
                gauges: Mutex::default(),
                histograms: Mutex::default(),
                events: Mutex::new(EventRing::new(capacity)),
            })),
        }
    }

    /// The no-op registry: hands out no-op instruments, records nothing.
    pub fn disabled() -> Self {
        MetricsRegistry { inner: None }
    }

    /// True when this registry records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// True when two handles share the same underlying registry (or both
    /// are disabled).
    pub fn same_registry(&self, other: &MetricsRegistry) -> bool {
        match (&self.inner, &other.inner) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Milliseconds since this registry was created (0 when disabled).
    pub fn elapsed_ms(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.start.elapsed().as_millis() as u64)
    }

    // Lock policy: instrument maps are touched on every poll tick, so a
    // panic while holding one (poisoning) must not cascade into every
    // later metric emission — recover the guard with
    // `unwrap_or_else(PoisonError::into_inner)`; the maps hold only
    // Arc'd cells and stay structurally valid across an interrupted
    // insert. Enforced by `xtask lint` rule `hot-path-lock`.

    /// Register (or fetch) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        Counter(
            self.inner
                .as_ref()
                .map(|inner| find_or_insert(&inner.counters, name, labels, || AtomicU64::new(0))),
        )
    }

    /// Register (or fetch) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.inner.as_ref().map(|inner| {
            find_or_insert(&inner.gauges, name, labels, || {
                AtomicU64::new(0f64.to_bits())
            })
        }))
    }

    /// Register (or fetch) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram(
            self.inner
                .as_ref()
                .map(|inner| find_or_insert(&inner.histograms, name, labels, HistogramCore::new)),
        )
    }

    /// Start an RAII timer that observes its elapsed seconds into the
    /// named histogram when dropped. Disabled registries return an inert
    /// span that never reads the clock.
    pub fn span(&self, histogram_name: &str, labels: &[(&str, &str)]) -> Span {
        Span::starting(self.histogram(histogram_name, labels))
    }

    /// Record a structured event.
    pub fn event(&self, kind: &str, message: &str) {
        self.event_with(kind, message, &[]);
    }

    /// Record a structured event with numeric fields.
    pub fn event_with(&self, kind: &str, message: &str, fields: &[(&str, f64)]) {
        if let Some(inner) = &self.inner {
            let elapsed = inner.start.elapsed().as_millis() as u64;
            inner
                .events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(elapsed, kind, message, fields);
        }
    }

    /// All retained events, oldest first.
    pub fn events(&self) -> Vec<Arc<Event>> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .all()
        })
    }

    /// Retained events of one kind, oldest first.
    pub fn events_of_kind(&self, kind: &str) -> Vec<Arc<Event>> {
        self.events()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect()
    }

    /// Total events ever emitted (including ones evicted from the ring).
    pub fn events_emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .total_emitted()
        })
    }

    /// Events evicted from the ring before any consumer read them.
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            i.events
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .total_dropped()
        })
    }

    /// Point-in-time copy of every instrument and the event ring. Ids
    /// and events are shared with the registry, not copied.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let Some(inner) = &self.inner else {
            return RegistrySnapshot::default();
        };
        // One guard for both: an emitter between two reads would make the
        // dropped count disagree with the retained events.
        let (dropped, events) = {
            let ring = inner.events.lock().unwrap_or_else(PoisonError::into_inner);
            (ring.total_dropped(), ring.all())
        };
        let mut counters = {
            let series = inner
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let mut counters = Vec::with_capacity(series.sorted.len() + 1);
            counters.extend(
                series
                    .sorted
                    .iter()
                    .map(|(id, cell)| (Arc::clone(id), cell.load(Ordering::Relaxed))),
            );
            counters
        };
        // Ring overflow is the one telemetry loss telemetry itself would
        // otherwise hide; surface it as a synthetic counter so every
        // exporter (Prometheus text, JSON, `counter()`) sees it. Only
        // materialized once loss has actually happened, so overflow-free
        // registries snapshot exactly what they registered.
        if dropped > 0 {
            const DROPPED: &str = "telemetry_events_dropped_total";
            static ID: OnceLock<Arc<MetricId>> = OnceLock::new();
            match counters.binary_search_by(|(id, _)| id.cmp_borrowed(DROPPED, &[])) {
                Ok(at) => counters[at].1 += dropped,
                Err(at) => {
                    let id = ID.get_or_init(|| Arc::new(MetricId::new(DROPPED, &[])));
                    counters.insert(at, (Arc::clone(id), dropped));
                }
            }
        }
        let gauges = inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sorted
            .iter()
            .map(|(id, cell)| (Arc::clone(id), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .sorted
            .iter()
            .map(|(id, core)| (Arc::clone(id), core.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
            events,
        }
    }
}

/// A deterministic, ordered copy of a registry's state (metric ids sort
/// by name, then labels). The lookups below binary-search in that order.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counters and their values.
    pub counters: Vec<(Arc<MetricId>, u64)>,
    /// Gauges and their values.
    pub gauges: Vec<(Arc<MetricId>, f64)>,
    /// Histograms and their distributions.
    pub histograms: Vec<(Arc<MetricId>, HistogramSnapshot)>,
    /// Retained events, oldest first.
    pub events: Vec<Arc<Event>>,
}

impl RegistrySnapshot {
    /// Value of one counter, if registered.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        find(&self.counters, name, labels).copied()
    }

    /// Sum of a counter across all label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        named(&self.counters, name).iter().map(|(_, v)| *v).sum()
    }

    /// Value of one gauge, if registered.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        find(&self.gauges, name, labels).copied()
    }

    /// One histogram's distribution, if registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        find(&self.histograms, name, labels)
    }

    /// All histograms sharing a metric name, with their ids.
    pub fn histograms_named(&self, name: &str) -> Vec<(&MetricId, &HistogramSnapshot)> {
        named(&self.histograms, name)
            .iter()
            .map(|(id, h)| (&**id, h))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// The bits of every index [`key`] this thread computes that are
        /// kept: clearing most of them forces hash collisions.
        pub(super) static KEY_MASK: Cell<u64> = const { Cell::new(u64::MAX) };
    }

    #[test]
    fn counters_accumulate_and_share_state_by_id() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("events_total", &[("link", "x")]);
        let b = reg.counter("events_total", &[("link", "x")]);
        let other = reg.counter("events_total", &[("link", "y")]);
        a.inc();
        b.add(2);
        other.add(10);
        assert_eq!(a.get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("events_total", &[("link", "x")]), Some(3));
        assert_eq!(snap.counter_total("events_total"), 13);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[("a", "1"), ("b", "2")]).inc();
        reg.counter("m", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(reg.snapshot().counters.len(), 1);
        assert_eq!(reg.snapshot().counter_total("m"), 2);
    }

    #[test]
    fn gauges_set_add_get() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("lag_seconds", &[("link", "x")]);
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
        assert_eq!(
            reg.snapshot().gauge("lag_seconds", &[("link", "x")]),
            Some(1.5)
        );
    }

    #[test]
    fn disabled_registry_is_inert_everywhere() {
        let reg = MetricsRegistry::disabled();
        assert!(!reg.is_enabled());
        let c = reg.counter("c", &[]);
        let g = reg.gauge("g", &[]);
        let h = reg.histogram("h", &[]);
        c.inc();
        g.set(1.0);
        h.observe(1.0);
        reg.event("k", "m");
        drop(reg.span("h", &[]));
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.count(), 0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(reg.events_emitted(), 0);
    }

    #[test]
    fn default_is_disabled_and_clone_shares() {
        assert!(!MetricsRegistry::default().is_enabled());
        let reg = MetricsRegistry::new();
        let clone = reg.clone();
        assert!(reg.same_registry(&clone));
        clone.counter("c", &[]).inc();
        assert_eq!(reg.snapshot().counter_total("c"), 1);
        assert!(!reg.same_registry(&MetricsRegistry::new()));
    }

    #[test]
    fn events_round_trip_through_registry() {
        let reg = MetricsRegistry::with_event_capacity(2);
        reg.event("a.start", "one");
        reg.event_with("a.lag", "link-x", &[("lag", 3.0)]);
        reg.event("a.stop", "three");
        let all = reg.events();
        assert_eq!(all.len(), 2); // capacity bound
        assert_eq!(reg.events_emitted(), 3);
        let lags = reg.events_of_kind("a.lag");
        assert_eq!(lags.len(), 1);
        assert_eq!(lags[0].field("lag"), Some(3.0));
    }

    #[test]
    fn ring_overflow_surfaces_as_dropped_counter() {
        let reg = MetricsRegistry::with_event_capacity(2);
        reg.event("a", "1");
        reg.event("b", "2");
        // No overflow yet: the synthetic counter must not exist.
        assert_eq!(reg.events_dropped(), 0);
        assert_eq!(
            reg.snapshot()
                .counter("telemetry_events_dropped_total", &[]),
            None
        );
        reg.event("c", "3");
        reg.event("d", "4");
        assert_eq!(reg.events_dropped(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("telemetry_events_dropped_total", &[]), Some(2));
        // The synthetic entry keeps snapshot ordering canonical.
        let names: Vec<&str> = snap.counters.iter().map(|(i, _)| i.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_ids_are_sorted_deterministically() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total", &[]).inc();
        reg.counter("a_total", &[("k", "2")]).inc();
        reg.counter("a_total", &[("k", "1")]).inc();
        let names: Vec<String> = reg
            .snapshot()
            .counters
            .iter()
            .map(|(id, _)| id.render())
            .collect();
        assert_eq!(
            names,
            vec!["a_total{k=\"1\"}", "a_total{k=\"2\"}", "z_total"]
        );
    }

    #[test]
    fn metric_id_render_escapes_labels() {
        let id = MetricId::new("m", &[("path", "a\"b\\c\n")]);
        assert_eq!(id.render(), "m{path=\"a\\\"b\\\\c\\n\"}");
    }

    #[test]
    fn rendered_ids_equal_and_order_like_fresh_ones() {
        let mut rng = Rng(7);
        let pairs: Vec<(&str, Vec<(&str, &str)>)> = (0..300)
            .map(|_| {
                let labels = (0..rng.next() % 3)
                    .map(|_| (rng.pick(HOSTILE), rng.pick(HOSTILE)))
                    .collect();
                (rng.pick(HOSTILE), labels)
            })
            .collect();
        let rendered: Vec<MetricId> = pairs
            .iter()
            .map(|(name, labels)| {
                let id = MetricId::new(name, labels);
                id.render();
                assert!(id.memo.get().is_some());
                id
            })
            .collect();
        let fresh: Vec<MetricId> = pairs
            .iter()
            .map(|(name, labels)| MetricId::new(name, labels))
            .collect();
        for (a, b) in rendered.iter().zip(&fresh) {
            assert_eq!(a, b);
            assert_eq!(a.cmp(b), Order::Equal);
            assert_eq!(a.clone(), *b);
        }
        for (a, x) in rendered.iter().zip(&fresh) {
            for (b, y) in rendered.iter().zip(&fresh) {
                let derived = (&a.name, &a.labels).cmp(&(&b.name, &b.labels));
                assert_eq!(a.cmp(b), derived, "{a:?} against {b:?}");
                assert_eq!(x.cmp(y), derived);
                assert_eq!(a.partial_cmp(y), x.partial_cmp(b));
                assert_eq!(a == b, x == y);
            }
        }
    }

    #[test]
    fn key_separates_pairs_whose_boundaries_shift() {
        type Id<'a> = (&'a str, &'a [(&'a str, &'a str)]);
        let pairs: &[[Id; 2]] = &[
            [("ab", &[("c", "d")]), ("a", &[("bc", "d")])],
            [("m", &[("ab", "c")]), ("m", &[("a", "bc")])],
            [("m", &[("a", "")]), ("ma", &[])],
            [("m", &[("", "")]), ("m", &[])],
            [
                ("m", &[("a", "b"), ("c", "d")]),
                ("m", &[("a", "bc"), ("", "d")]),
            ],
            [("abcdefgh", &[]), ("abcdefgh\0", &[])],
            [("abc", &[]), ("abc\0", &[])],
            [
                ("abcdefghijklmnop", &[("k", "v")]),
                ("abcdefgh", &[("ijklmnopk", "v")]),
            ],
        ];
        for [(a, al), (b, bl)] in pairs {
            assert_ne!(key(a, al), key(b, bl), "{a:?}{al:?} against {b:?}{bl:?}");
        }
    }

    /// The series of the repository benchmark's `ops_tick` workload: 14
    /// satellites × 6 tables × 24 families.
    fn ops_tick_ids() -> Vec<(String, [(&'static str, String); 2])> {
        let tables = [
            "jobfact",
            "storagefact",
            "cloudfact",
            "supremm_jobfact",
            "supremm_timeseries",
            "cloud_reservation",
        ];
        let families = (0..12).map(|i| format!("xdmod_replication_{i:02}_total"));
        let families = families.chain((0..4).map(|i| format!("xdmod_queue_{i:02}_depth")));
        let families = families.chain((0..8).map(|i| format!("xdmod_apply_{i:02}_seconds")));
        let families: Vec<String> = families.collect();
        let mut ids = Vec::new();
        for name in &families {
            for s in 0..14 {
                for table in tables {
                    let labels = [
                        ("satellite", format!("site-{s:02}")),
                        ("table", table.into()),
                    ];
                    ids.push((name.clone(), labels));
                }
            }
        }
        ids
    }

    #[test]
    fn every_ops_tick_series_has_its_own_key() {
        let keys: Vec<u64> = ops_tick_ids()
            .iter()
            .map(|(name, [(k1, v1), (k2, v2)])| key(name, &[(k1, v1.as_str()), (k2, v2.as_str())]))
            .collect();
        assert_eq!(keys.len(), 2016);
        let distinct: std::collections::HashSet<u64> = keys.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            2016,
            "a real lookup would take the fallback"
        );
        // And ids that differ only in the top bytes of their last word.
        let shifted: Vec<u64> = (0..2016)
            .map(|i| {
                let letter = |d: u32| char::from(b'a' + (i / d % 26) as u8);
                let site = format!("site-{}{}{}", letter(676), letter(26), letter(1));
                key("m", &[("satellite", &site)])
            })
            .collect();
        for keys in [keys, shifted] {
            // The index probes with the low bits and tags with the top
            // seven: both must spread (2,016 random keys fill ~1,590 of
            // 4,096 slots).
            let low: std::collections::HashSet<u64> = keys.iter().map(|k| k & 0xfff).collect();
            let top: std::collections::HashSet<u64> = keys.iter().map(|k| k >> 57).collect();
            assert!(low.len() > 1_400, "{} of 4,096 low-bit slots", low.len());
            assert_eq!(top.len(), 128);
        }
    }

    #[test]
    fn span_observes_into_histogram_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _span = reg.span("op_seconds", &[("op", "test")]);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.snapshot();
        let h = snap.histogram("op_seconds", &[("op", "test")]).unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= 0.002, "span recorded {}", h.max);
    }

    /// splitmix64: the tests' own deterministic stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[(self.next() % from.len() as u64) as usize]
        }
    }

    /// Names and label keys/values that stress the ordering: empty,
    /// prefixes of each other, non-ASCII, quotes and backslashes.
    const HOSTILE: &[&str] = &[
        "",
        "m",
        "m_total",
        "M",
        "a",
        "b",
        "a\"b",
        "\\",
        "back\\slash",
        "é",
        "é→😀",
        "\u{0}",
        "zz",
    ];

    /// The registry as it was: one `BTreeMap` per kind keyed by an owned
    /// `MetricId` built on every lookup.
    #[derive(Default)]
    struct Reference {
        counters: std::collections::BTreeMap<MetricId, Arc<AtomicU64>>,
        gauges: std::collections::BTreeMap<MetricId, Arc<AtomicU64>>,
        histograms: std::collections::BTreeMap<MetricId, Arc<HistogramCore>>,
    }

    /// Every registered cell of the registry maps to exactly one cell of
    /// the reference, and back.
    #[derive(Default)]
    struct Sharing(
        std::collections::HashMap<usize, usize>,
        std::collections::HashMap<usize, usize>,
    );

    impl Sharing {
        fn pair<T>(&mut self, ours: &Arc<T>, theirs: &Arc<T>) {
            let (ours, theirs) = (Arc::as_ptr(ours) as usize, Arc::as_ptr(theirs) as usize);
            assert_eq!(*self.0.entry(ours).or_insert(theirs), theirs);
            assert_eq!(*self.1.entry(theirs).or_insert(ours), ours);
        }
    }

    fn ids<T>(series: &[(Arc<MetricId>, T)]) -> Vec<MetricId> {
        series.iter().map(|(id, _)| MetricId::clone(id)).collect()
    }

    /// Every index entry is filed under its id's key and shares its id and
    /// cell with a sorted entry, and each key of a sorted id has one.
    fn check_index<T>(series: &Mutex<Series<T>>) {
        let series = series.lock().unwrap_or_else(PoisonError::into_inner);
        let key_of = |id: &MetricId| {
            let labels: Vec<(&str, &str)> = id
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            key(&id.name, &labels)
        };
        for (&k, (id, cell)) in &series.index {
            assert_eq!(k, key_of(id));
            let at = series.sorted.binary_search_by(|(i, _)| i.cmp(id)).ok();
            let entry = at.map(|at| &series.sorted[at]);
            assert!(entry.is_some_and(|(i, c)| Arc::ptr_eq(id, i) && Arc::ptr_eq(cell, c)));
        }
        let keys: std::collections::HashSet<u64> =
            series.sorted.iter().map(|(id, _)| key_of(id)).collect();
        assert_eq!(series.index.len(), keys.len());
    }

    #[test]
    fn sorted_vec_registry_matches_a_btreemap_registry() {
        // The full key, four keys (collisions all over) and one key (every
        // lookup but one id's takes the binary search).
        for (seed, mask) in (0..120).map(|seed| (seed, [u64::MAX, 0b11, 0][seed as usize % 3])) {
            KEY_MASK.with(|m| m.set(mask));
            let mut rng = Rng(seed);
            let reg = MetricsRegistry::new();
            let mut reference = Reference::default();
            let mut sharing = Sharing::default();
            let mut lookups = Vec::new();
            for _ in 0..200 {
                let name = rng.pick(HOSTILE);
                // Unsorted, with repeated keys and repeated pairs.
                let labels: Vec<(&str, &str)> = (0..rng.next() % 4)
                    .map(|_| (rng.pick(HOSTILE), rng.pick(HOSTILE)))
                    .collect();
                let id = MetricId::new(name, &labels);
                let value = rng.next() % 1000;
                match rng.next() % 3 {
                    0 => {
                        let ours = reg.counter(name, &labels).0.unwrap();
                        let theirs = reference.counters.entry(id).or_default();
                        sharing.pair(&ours, theirs);
                        ours.fetch_add(value, Ordering::Relaxed);
                        theirs.fetch_add(value, Ordering::Relaxed);
                    }
                    1 => {
                        let ours = reg.gauge(name, &labels).0.unwrap();
                        let theirs = reference.gauges.entry(id).or_default();
                        sharing.pair(&ours, theirs);
                        ours.store(value, Ordering::Relaxed);
                        theirs.store(value, Ordering::Relaxed);
                    }
                    _ => {
                        let ours = reg.histogram(name, &labels).0.unwrap();
                        let theirs = reference
                            .histograms
                            .entry(id)
                            .or_insert_with(|| Arc::new(HistogramCore::new()));
                        sharing.pair(&ours, theirs);
                        ours.observe(value as f64 * 1e-6);
                        theirs.observe(value as f64 * 1e-6);
                    }
                }
                lookups.push((name, labels));
            }
            let inner = reg.inner.as_ref().unwrap();
            check_index(&inner.counters);
            check_index(&inner.gauges);
            check_index(&inner.histograms);
            let snap = reg.snapshot();
            let counters: Vec<_> = snap.counters.iter().map(|(_, v)| *v).collect();
            let want: Vec<_> = reference
                .counters
                .values()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            assert_eq!(
                ids(&snap.counters),
                reference.counters.keys().cloned().collect::<Vec<_>>()
            );
            assert_eq!(counters, want, "seed {seed}");
            let gauges: Vec<_> = snap.gauges.iter().map(|(_, v)| v.to_bits()).collect();
            let want: Vec<_> = reference
                .gauges
                .values()
                .map(|c| c.load(Ordering::Relaxed))
                .collect();
            assert_eq!(
                ids(&snap.gauges),
                reference.gauges.keys().cloned().collect::<Vec<_>>()
            );
            assert_eq!(gauges, want, "seed {seed}");
            assert_eq!(
                ids(&snap.histograms),
                reference.histograms.keys().cloned().collect::<Vec<_>>()
            );
            for ((_, ours), theirs) in snap.histograms.iter().zip(reference.histograms.values()) {
                let theirs = theirs.snapshot();
                assert_eq!((ours.buckets, ours.count), (theirs.buckets, theirs.count));
                assert_eq!(ours.sum.to_bits(), theirs.sum.to_bits());
            }
            // The snapshot's lookups find what the reference's keys find.
            for (name, labels) in &lookups {
                let id = MetricId::new(name, labels);
                let load = |c: &Arc<AtomicU64>| c.load(Ordering::Relaxed);
                assert_eq!(
                    snap.counter(name, labels),
                    reference.counters.get(&id).map(load)
                );
                assert_eq!(
                    snap.gauge(name, labels).map(f64::to_bits),
                    reference.gauges.get(&id).map(load)
                );
                assert_eq!(
                    snap.histogram(name, labels).map(|h| h.count),
                    reference.histograms.get(&id).map(|h| h.snapshot().count)
                );
                let total = reference.counters.iter().filter(|(i, _)| i.name == *name);
                assert_eq!(
                    snap.counter_total(name),
                    total.map(|(_, c)| load(c)).sum::<u64>()
                );
                let named: Vec<_> = snap
                    .histograms_named(name)
                    .into_iter()
                    .map(|(i, _)| i.clone())
                    .collect();
                let want: Vec<_> = reference
                    .histograms
                    .keys()
                    .filter(|i| i.name == *name)
                    .cloned()
                    .collect();
                assert_eq!(named, want, "seed {seed}");
            }
        }
        KEY_MASK.with(|m| m.set(u64::MAX));
    }

    #[test]
    fn a_snapshot_reads_dropped_and_events_under_one_ring_guard() {
        use std::sync::atomic::AtomicBool;
        let reg = MetricsRegistry::with_event_capacity(8);
        for _ in 0..8 {
            reg.event("k", "fill");
        }
        let stop = AtomicBool::new(false);
        let mismatches = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    reg.event("k", "emitter");
                }
            });
            let mut mismatches = Vec::new();
            for _ in 0..20_000 {
                let snap = reg.snapshot();
                let dropped = snap
                    .counter("telemetry_events_dropped_total", &[])
                    .unwrap_or(0);
                // The ring never shrinks, so every snapshot sees it full.
                if snap.events.len() != 8 || snap.events[0].seq != dropped + 1 {
                    mismatches.push((snap.events.len(), snap.events[0].seq, dropped));
                }
            }
            stop.store(true, Ordering::Relaxed);
            mismatches
        });
        assert!(
            mismatches.is_empty(),
            "{} torn snapshots, e.g. {:?}",
            mismatches.len(),
            mismatches[0]
        );
    }

    #[test]
    fn hits_snapshots_and_repeat_expositions_allocate_per_call_not_per_series() {
        use crate::test_alloc::allocs;
        let reg = MetricsRegistry::with_event_capacity(64);
        let populate = |sites: std::ops::Range<usize>| {
            for s in sites {
                let site = format!("site-{s:03}");
                let labels = [("satellite", site.as_str()), ("table", "jobfact")];
                reg.counter("replication_total", &labels).inc();
                reg.gauge("queue_depth", &labels).set(s as f64);
                reg.histogram("apply_seconds", &labels)
                    .observe(s as f64 * 1e-3);
                reg.event_with("replication.lag", &site, &[("lag_events", s as f64)]);
            }
        };
        // Past the ring's capacity, so both snapshots below carry the
        // synthetic dropped counter.
        populate(0..70);
        let labels = [("satellite", "site-007"), ("table", "jobfact")];
        let ((), hits) = allocs(|| {
            reg.counter("replication_total", &labels).inc();
            reg.gauge("queue_depth", &labels).set(1.0);
            reg.histogram("apply_seconds", &labels).observe(1e-3);
            reg.span("apply_seconds", &labels).finish();
        });
        assert_eq!(hits, 0, "a registry hit allocated");
        // The first snapshot with drops in the process builds the dropped
        // counter's shared id.
        reg.snapshot();
        let (small_snap, small) = allocs(|| reg.snapshot());
        // Each format's allocations on a repeat render: the first renders
        // fill the `le` table and the events' JSON objects.
        let render = |snap: &RegistrySnapshot| {
            let (text, json) = (snap.prometheus_text(), snap.json());
            assert!(snap.events.iter().all(|e| e.json.get().is_some()));
            let (again, text_allocs) = allocs(|| snap.prometheus_text());
            assert_eq!(text, again);
            let (again, json_allocs) = allocs(|| snap.json());
            assert_eq!(json, again);
            (text_allocs, json_allocs)
        };
        let small_renders = render(&small_snap);
        populate(70..700);
        let (snap, large) = allocs(|| reg.snapshot());
        assert_eq!(snap.counters.len(), 701);
        assert_eq!(small, large, "snapshot allocations grew with the series");
        assert!(large <= 4, "{large} allocations: one per section expected");

        let (text, repeat) = render(&snap);
        assert_eq!(
            (text, repeat),
            small_renders,
            "exposition allocations grew with the series"
        );
        assert_eq!(repeat, 1, "the second json() rendered events again");
    }

    #[test]
    fn a_full_ring_records_without_allocating_unless_a_reader_holds_the_evicted_event() {
        use crate::test_alloc::allocs;
        for capacity in [1, 2, 64] {
            let reg = MetricsRegistry::with_event_capacity(capacity);
            let record =
                |lag: f64| reg.event_with("replication.lag", "site-07", &[("lag_events", lag)]);
            for i in 0..capacity + 1 {
                record(i as f64);
            }
            reg.json();
            let ((), n) = allocs(|| (0..3 * capacity).for_each(|i| record(i as f64)));
            assert_eq!(
                n, 0,
                "capacity {capacity}: recording into a full ring allocated"
            );
            // A snapshot holds every event: the next push evicts a held one
            // and allocates a fresh event (the Arc, kind, message, fields and
            // one key).
            let held = reg.snapshot();
            let ((), n) = allocs(|| record(-1.0));
            assert_eq!(n, 5, "capacity {capacity}");
            assert_eq!(held.events.len(), capacity);
            assert!(held
                .events
                .iter()
                .all(|e| e.field("lag_events") != Some(-1.0)));
            drop(held);
            let ((), n) = allocs(|| (0..capacity).for_each(|i| record(i as f64)));
            assert_eq!(n, 0, "capacity {capacity}: after the snapshot went");
        }
    }
}
