//! The Tungsten-style binlog replicator ("tight" federation).
//!
//! "Tungsten reads binary logs on the XDMoD instance databases, copying
//! their tables into new, uniquely named schemas (one schema per XDMoD
//! instance) on the XDMoD federation hub's database. Tungsten supports
//! renaming the data schema during transfer, and selective replication of
//! data from satellite instances, both of which we have opted to do for
//! federation." (§II-C1)
//!
//! A [`Replicator`] tails one source database's binlog from a saved
//! watermark, passes each event through [`LinkConfig::route`] (schema
//! selection, rename, [`ReplicationFilter`]), and applies the survivors
//! to the target. [`LiveReplicator`] runs the same loop on a background
//! thread — the paper's "live replication".

use crate::error::{panic_detail, ReplicationError};
use crate::filter::ReplicationFilter;
use crate::loose::replace;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use xdmod_chaos::{DeterministicRng, FaultInjector, FaultKind, FaultPoint};
use xdmod_telemetry::MetricsRegistry;
use xdmod_warehouse::sync::Mutex;
use xdmod_warehouse::{
    Database, EventPayload, LogPosition, Result, SharedDatabase, Snapshot, WarehouseError,
};

/// Configuration of one replication link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Only events touching this source schema replicate (a satellite's
    /// instance schema). `None` replicates all schemas.
    pub source_schema: Option<String>,
    /// Schema name on the target ("one schema per XDMoD instance" on the
    /// hub). `None` keeps the source name.
    pub rename_to: Option<String>,
    /// Table/resource selection.
    pub filter: ReplicationFilter,
}

impl LinkConfig {
    /// Replicate everything verbatim.
    pub fn passthrough() -> Self {
        LinkConfig {
            source_schema: None,
            rename_to: None,
            filter: ReplicationFilter::all(),
        }
    }

    /// Replicate `source_schema`, renamed on the hub to `rename_to`.
    pub fn renaming(source_schema: &str, rename_to: &str) -> Self {
        LinkConfig {
            source_schema: Some(source_schema.to_owned()),
            rename_to: Some(rename_to.to_owned()),
            filter: ReplicationFilter::all(),
        }
    }

    /// Attach a filter.
    pub fn with_filter(mut self, filter: ReplicationFilter) -> Self {
        self.filter = filter;
        self
    }

    /// The one link step every path takes — polls (tight and loose
    /// members alike), dumps and resync. Drops events of other schemas, renames, then
    /// applies the filter, resolving resource columns on the `target`
    /// table the rows land in. `None` means the link drops the event.
    pub fn route(&self, payload: EventPayload, target: &Database) -> Option<EventPayload> {
        if self
            .source_schema
            .as_ref()
            .is_some_and(|s| s != payload.schema())
        {
            return None;
        }
        let payload = match &self.rename_to {
            Some(schema) => payload.with_schema(schema),
            None => payload,
        };
        self.filter.apply(payload, |schema, table, column| {
            target
                .table(schema, table)
                .ok()?
                .schema()
                .column_index(column)
                .ok()
        })
    }
}

/// Statistics of a replication link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Binlog events read from the source.
    pub events_read: u64,
    /// Events applied to the target (after filtering).
    pub events_applied: u64,
    /// Events dropped by the filter.
    pub events_filtered: u64,
    /// Times the link repaired the *source* binlog's damaged tail (crash
    /// recovery) before resuming its read. A nonzero delta between polls
    /// tells the supervisor the source lost records and the hub may need
    /// a checksum resync.
    pub source_repairs: u64,
}

/// A poll-driven replication link between two databases.
pub struct Replicator {
    source: SharedDatabase,
    target: SharedDatabase,
    config: LinkConfig,
    position: LogPosition,
    stats: LinkStats,
    telemetry: MetricsRegistry,
    link_name: String,
    /// Fault injector consulted at the transport point of every poll.
    chaos: Option<FaultInjector>,
}

impl Replicator {
    /// Create a link starting at the beginning of the source's binlog.
    pub fn new(source: SharedDatabase, target: SharedDatabase, config: LinkConfig) -> Self {
        // Default link label: the hub-side schema, else the source schema,
        // else "all" for a passthrough link.
        let link_name = config
            .rename_to
            .clone()
            .or_else(|| config.source_schema.clone())
            .unwrap_or_else(|| "all".to_owned());
        Replicator {
            source,
            target,
            config,
            position: LogPosition::START,
            stats: LinkStats::default(),
            telemetry: MetricsRegistry::disabled(),
            link_name,
            chaos: None,
        }
    }

    /// In-place form of [`Replicator::with_chaos`], for links already
    /// wired into a federation.
    pub fn set_chaos(&mut self, injector: FaultInjector) {
        self.chaos = Some(injector);
    }

    /// Attach a fault injector. The injector is consulted once per poll
    /// at the [`FaultPoint::Transport`] point (target = the link label):
    /// transient and link-down faults surface as [`WarehouseError::Io`]
    /// from the poll, stalls sleep in place, and physical binlog damage
    /// ([`FaultKind::CorruptTailByte`], [`FaultKind::TruncateTail`]) is
    /// executed against the *source* database — the transport is the one
    /// place in the stack that holds write access to the source handle.
    pub fn with_chaos(mut self, injector: FaultInjector) -> Self {
        self.chaos = Some(injector);
        self
    }

    /// Attach a metrics registry, labelling this link's metrics
    /// (`replication_events_*_total{link=..}`, `replication_lag_events`)
    /// with `link`.
    pub fn with_telemetry(mut self, telemetry: MetricsRegistry, link: &str) -> Self {
        self.telemetry = telemetry;
        self.link_name = link.to_owned();
        self
    }

    /// The registry this link reports into.
    pub fn telemetry(&self) -> &MetricsRegistry {
        &self.telemetry
    }

    /// Label used on this link's metrics.
    pub fn link_name(&self) -> &str {
        &self.link_name
    }

    /// Current watermark (position of the last replicated source event).
    pub fn position(&self) -> LogPosition {
        self.position
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Replication lag in *events*: how far the source binlog's head is
    /// ahead of this link's watermark. After an epoch rotation on the
    /// source (restore), the whole new generation counts as backlog.
    pub fn lag_events(&self) -> u64 {
        let head = self.source.read().binlog_position();
        if head.epoch == self.position.epoch {
            head.seqno.saturating_sub(self.position.seqno)
        } else {
            head.seqno
        }
    }

    /// Read, filter, rename, and apply everything new. Returns how many
    /// events were applied. Idempotent when the source is quiescent.
    ///
    /// With telemetry attached, each poll updates the per-link
    /// `replication_events_{read,applied,filtered}_total` counters and the
    /// `replication_lag_events` gauge (even on error, so a stuck link is
    /// visible as a growing gauge).
    pub fn poll(&mut self) -> Result<usize> {
        let before = self.stats;
        let result = self.poll_inner();
        if self.telemetry.is_enabled() {
            let link: &[(&str, &str)] = &[("link", &self.link_name)];
            let d = self.stats;
            self.telemetry
                .counter("replication_events_read_total", link)
                .add(d.events_read - before.events_read);
            self.telemetry
                .counter("replication_events_applied_total", link)
                .add(d.events_applied - before.events_applied);
            self.telemetry
                .counter("replication_events_filtered_total", link)
                .add(d.events_filtered - before.events_filtered);
            self.telemetry
                .gauge("replication_lag_events", link)
                .set(self.lag_events() as f64);
        }
        result
    }

    /// Consult the fault injector at the transport point. Transient and
    /// link-down faults surface as errors; stalls sleep in place; binlog
    /// damage kinds mutate the source log and let the poll proceed into
    /// the damage (exercising the repair path).
    fn transport_fault(&mut self) -> Result<()> {
        let Some(injector) = &self.chaos else {
            return Ok(());
        };
        match injector.next_fault(FaultPoint::Transport, &self.link_name) {
            None => Ok(()),
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(Duration::from_millis(millis));
                Ok(())
            }
            Some(FaultKind::CorruptTailByte) => {
                self.source.write().corrupt_binlog_tail_byte();
                Ok(())
            }
            Some(FaultKind::TruncateTail { bytes }) => {
                self.source.write().truncate_binlog_tail(bytes as usize);
                Ok(())
            }
            // A dropped fsync means nothing to a link; like the warehouse's
            // own consultation points, degrade it to a transient failure.
            Some(kind @ (FaultKind::Transient | FaultKind::LinkDown | FaultKind::DropFsync)) => {
                Err(WarehouseError::Io(format!(
                    "injected {kind} on link {}",
                    self.link_name
                )))
            }
        }
    }

    /// Read everything after the watermark, repairing the source binlog's
    /// tail and retrying the read once if the first attempt found
    /// corruption. Dropped records are crash casualties: the repair keeps
    /// every intact frame before the damage, and the retried read resumes
    /// from the surviving prefix.
    fn read_source_events(&mut self) -> Result<Vec<xdmod_warehouse::BinlogEvent>> {
        let first = {
            let src = self.source.read();
            src.binlog_after(self.position)
        };
        let detail = match first {
            Ok(events) => return Ok(events),
            Err(WarehouseError::CorruptBinlog(detail)) => detail,
            Err(e @ WarehouseError::CompactedAway { .. }) => {
                // Snapshot-triggered compaction deleted the records this
                // watermark still needs. No repair or retry can bring them
                // back — the link must be rebuilt from the source's present
                // state (snapshot + surviving tail), which is exactly what
                // [`Replicator::resync_target`] does. Make the condition
                // loudly visible and surface the typed error so the
                // supervisor resyncs instead of hot-looping the poll.
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .counter(
                            "replication_compacted_reads_total",
                            &[("link", &self.link_name)],
                        )
                        .inc();
                    self.telemetry.event(
                        "replication.compacted_away",
                        &format!(
                            "{}: watermark {} fell below the source's compaction \
                             horizon — resync required",
                            self.link_name, self.position
                        ),
                    );
                }
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        let repair = self.source.write().repair_binlog();
        if repair.is_clean() {
            // Nothing on the source side to fix (e.g. the corruption the
            // read reported is a future-epoch watermark, not tail damage)
            // — propagate so the supervisor can resync instead.
            return Err(WarehouseError::CorruptBinlog(detail));
        }
        self.stats.source_repairs += 1;
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter(
                    "replication_source_repairs_total",
                    &[("link", &self.link_name)],
                )
                .inc();
            self.telemetry.event_with(
                "replication.source_repaired",
                &format!("{}: source binlog tail repaired ({repair})", self.link_name),
                &[
                    ("dropped_records", repair.dropped_records as f64),
                    ("dropped_bytes", repair.dropped_bytes as f64),
                ],
            );
        }
        let src = self.source.read();
        src.binlog_after(self.position)
    }

    fn poll_inner(&mut self) -> Result<usize> {
        self.transport_fault()?;
        // Read the new events under a source read lock and release it
        // before taking the target's write lock — the two databases may be
        // the same object in a loopback topology, and lock ordering must
        // not deadlock.
        let events = self.read_source_events()?;
        let mut applied = 0usize;
        for ev in events {
            self.stats.events_read += 1;
            let filter = &self.config.filter;
            let required = ev
                .payload
                .table()
                .filter(|t| filter.is_required(t) && !filter.table_passes(t))
                .map(str::to_owned);
            // Apply first, then advance the watermark: a failed event
            // must be retried (or surfaced) on the next poll, never
            // silently skipped.
            let routed = {
                let mut dst = self.target.write();
                match self.config.route(ev.payload, &dst) {
                    Some(payload) => dst.apply_event(payload).map(|()| true),
                    None => Ok(false),
                }
            };
            if routed? {
                self.stats.events_applied += 1;
                applied += 1;
            } else {
                self.stats.events_filtered += 1;
                // A drop the config declared *required* downstream is the
                // classic silently-empty-hub-report bug: legal, but almost
                // certainly a mistake. Count and log it instead of letting
                // it vanish into the generic filtered total.
                if let Some(table) = required.filter(|_| self.telemetry.is_enabled()) {
                    self.telemetry
                        .counter(
                            "replication_filtered_required_tables_total",
                            &[("link", &self.link_name), ("table", &table)],
                        )
                        .inc();
                    self.telemetry.event(
                        "replication.filtered_required_table",
                        &format!(
                            "{}: filter dropped table {table:?} that a registered \
                             aggregate or hub group-by reads",
                            self.link_name
                        ),
                    );
                }
            }
            self.position = ev.position;
        }
        Ok(applied)
    }

    /// Re-seed the watermark (e.g. after restoring the target from a
    /// backup). Replays are safe: DDL application is idempotent, but
    /// replayed inserts will duplicate rows, so callers should only
    /// rewind to positions consistent with the target's contents.
    ///
    /// A position *beyond* the source binlog's current tail is rejected
    /// with [`ReplicationError::SeekBeyondTail`] instead of being
    /// accepted (the old behaviour): a beyond-tail watermark can never
    /// match a record, so the link would silently stall forever — the
    /// caller must resync instead. Rewinds (including to an older epoch,
    /// the restore case) remain accepted.
    pub fn seek(&mut self, position: LogPosition) -> std::result::Result<(), ReplicationError> {
        let tail = self.source.read().binlog_position();
        if position.epoch > tail.epoch
            || (position.epoch == tail.epoch && position.seqno > tail.seqno)
        {
            return Err(ReplicationError::SeekBeyondTail {
                link: self.link_name.clone(),
                requested: position,
                tail,
            });
        }
        self.position = position;
        Ok(())
    }

    /// True when the watermark points beyond the source binlog's current
    /// tail. A diverged link can never make progress by polling — the
    /// source either lost its tail to a crash repair or was rebuilt —
    /// and `binlog_after` returns an empty batch for a same-epoch
    /// beyond-tail watermark, so without this check the stall is
    /// *silent*. The supervisor uses it to decide on a resync.
    pub fn is_diverged(&self) -> bool {
        let tail = self.source.read().binlog_position();
        self.position.epoch > tail.epoch
            || (self.position.epoch == tail.epoch && self.position.seqno > tail.seqno)
    }

    /// True when the watermark points *below* the source's binlog
    /// compaction horizon (or into an older epoch while the source has
    /// compacted): the records this link still needs were deleted by
    /// snapshot-triggered compaction, so polling returns
    /// [`WarehouseError::CompactedAway`] forever. Like
    /// [`Replicator::is_diverged`], the cure is
    /// [`Replicator::resync_target`], which rebuilds the target from the
    /// source's live tables — the source's snapshot-plus-tail state.
    pub fn is_compacted_away(&self) -> bool {
        let src = self.source.read();
        let horizon = src.compaction_horizon();
        if horizon == 0 {
            return false;
        }
        let head = src.binlog_position();
        self.position.epoch < head.epoch
            || (self.position.epoch == head.epoch && self.position.seqno < horizon)
    }

    /// Checksum-grade resync: rebuild the target schema from the source's
    /// *current table contents*, then fast-forward the watermark to the
    /// source binlog head.
    ///
    /// Binlog replay cannot repair a diverged link: after a tail repair
    /// the source log permanently lacks the dropped records' events while
    /// the source *tables* still hold (or legitimately lost) those rows,
    /// so no replay position reproduces the source state. Capturing the
    /// source schema as a dump and replaying it with replace semantics
    /// through [`LinkConfig::route`] — so resource routing and table
    /// selection still hold — is the only operation that restores the
    /// invariant the consistency checker verifies.
    pub fn resync_target(&mut self) -> Result<ResyncReport> {
        let Some(source_schema) = &self.config.source_schema else {
            return Err(WarehouseError::InvalidQuery(
                "resync requires a link with a declared source schema".into(),
            ));
        };
        // Capture the schema and the binlog head under one source read
        // lock, then release it before writing the target (same
        // lock-ordering rule as poll_inner).
        let (image, head) = {
            let src = self.source.read();
            let image = Snapshot::capture_schemas(&src, std::slice::from_ref(source_schema))?;
            (image, src.binlog_position())
        };
        let report = {
            let mut dst = self.target.write();
            replace(&mut dst, image.events(), &self.config)?
        };
        // The target now mirrors the source's present state; polling
        // resumes from the head so nothing just copied is replayed.
        self.position = head;
        if self.telemetry.is_enabled() {
            self.telemetry
                .counter("replication_resyncs_total", &[("link", &self.link_name)])
                .inc();
            self.telemetry.event_with(
                "replication.resync",
                &format!(
                    "{}: target rebuilt from source tables ({} table(s), {} row(s))",
                    self.link_name, report.tables, report.rows
                ),
                &[
                    ("tables", report.tables as f64),
                    ("rows", report.rows as f64),
                ],
            );
        }
        Ok(report)
    }
}

/// What a [`Replicator::resync_target`] pass or a
/// [`receive_dump`](crate::loose::receive_dump) rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResyncReport {
    /// Tables rebuilt on the target (after table selection).
    pub tables: usize,
    /// Rows copied (after resource routing).
    pub rows: usize,
}

/// Retry behaviour of a [`LiveReplicator`] when a poll fails.
///
/// On failure the worker enters a *retry burst*: it re-polls after an
/// exponentially growing backoff with decorrelated jitter
/// (`sleep = min(max_backoff, rand(base_backoff ..= prev * 3))`, the
/// AWS-architecture-blog variant) instead of waiting the full poll
/// interval. The burst ends on the first success — which also clears
/// [`LiveReplicator::last_error`] — or once `max_attempts` retries (or
/// the `deadline`, if set) are spent, after which the link falls back to
/// ordinary interval polling with the error left visible for the
/// supervisor. The link is never torn down by a failed poll.
///
/// Jitter is drawn from a [`DeterministicRng`] seeded from the link
/// name, so a chaos run's retry schedule is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Fast retries per burst before falling back to interval polling.
    pub max_attempts: u32,
    /// First (and minimum) backoff of a burst.
    pub base_backoff: Duration,
    /// Upper bound any single backoff is clamped to.
    pub max_backoff: Duration,
    /// Optional wall-clock cap on one burst, ending it even if attempts
    /// remain.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never fast-retries (every failure waits out the
    /// full poll interval). Useful in tests and as the explicit "retries
    /// disabled" configuration `xdmod-check` warns about (XC0010).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
    }
}

/// Per-burst retry bookkeeping, local to the worker thread.
struct RetryState {
    policy: RetryPolicy,
    rng: DeterministicRng,
    attempts: u32,
    prev_backoff: Duration,
    burst_start: Option<Instant>,
}

impl RetryState {
    fn new(policy: RetryPolicy, link_name: &str) -> Self {
        // Seed the jitter source from the link name (FNV-1a) so two runs
        // of the same topology draw identical backoff schedules.
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for b in link_name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        RetryState {
            policy,
            rng: DeterministicRng::new(seed),
            attempts: 0,
            prev_backoff: Duration::ZERO,
            burst_start: None,
        }
    }

    /// A poll succeeded: the burst (if any) is over.
    fn reset(&mut self) {
        self.attempts = 0;
        self.prev_backoff = Duration::ZERO;
        self.burst_start = None;
    }

    /// A poll failed: the next backoff to sleep, or `None` once the
    /// burst's attempts or deadline are exhausted.
    fn next_backoff(&mut self) -> Option<Duration> {
        if self.attempts >= self.policy.max_attempts {
            return None;
        }
        let start = *self.burst_start.get_or_insert_with(Instant::now);
        if let Some(deadline) = self.policy.deadline {
            if start.elapsed() >= deadline {
                return None;
            }
        }
        self.attempts += 1;
        let base = self.policy.base_backoff.as_millis() as u64;
        let prev = self.prev_backoff.as_millis() as u64;
        // Decorrelated jitter: rand in [base, max(prev * 3, base + 1)).
        let hi = (prev.saturating_mul(3)).max(base + 1);
        let millis = self.rng.gen_range(base, hi);
        let backoff = Duration::from_millis(millis).min(self.policy.max_backoff);
        self.prev_backoff = backoff;
        Some(backoff)
    }
}

/// A replicator running on a background thread, polling at an interval —
/// "live replication to the central federation hub database".
///
/// Each iteration polls (unless paused), then samples replication lag in
/// both units into the link's registry: `replication_lag_events` (binlog
/// positions behind) and `replication_lag_seconds` (wall-clock time since
/// the link first fell behind). Apply errors are surfaced — counted,
/// recorded as `replication.error` events, and kept in
/// [`LiveReplicator::last_error`] — and the loop keeps polling: the
/// watermark only advances past applied events, so a transient failure
/// retries on the next iteration instead of killing the link.
pub struct LiveReplicator {
    stop: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    handle: Option<JoinHandle<Replicator>>,
    /// Link label, kept on this side of the thread boundary so a panicked
    /// worker can still be named in the resulting [`ReplicationError`].
    link_name: String,
    /// Last error observed by the worker, if any.
    last_error: Arc<Mutex<Option<WarehouseError>>>,
}

/// Per-iteration lag sampling state, local to the worker thread.
struct LagSampler {
    /// When the link first fell behind (None while caught up).
    behind_since: Option<Instant>,
    /// Last lag value recorded as an event, for dedup while idle at 0.
    last_recorded: Option<u64>,
}

impl LagSampler {
    fn new() -> Self {
        LagSampler {
            behind_since: None,
            last_recorded: None,
        }
    }

    fn sample(&mut self, rep: &Replicator) {
        let lag = rep.lag_events();
        let lag_secs = if lag == 0 {
            self.behind_since = None;
            0.0
        } else {
            self.behind_since
                .get_or_insert_with(Instant::now)
                .elapsed()
                .as_secs_f64()
        };
        let telemetry = rep.telemetry();
        if telemetry.is_enabled() {
            let link: &[(&str, &str)] = &[("link", rep.link_name())];
            telemetry
                .gauge("replication_lag_events", link)
                .set(lag as f64);
            telemetry
                .gauge("replication_lag_seconds", link)
                .set(lag_secs);
            // Record a lag-series event on every sample while behind, plus
            // the one sample where the link returns to 0 — but not on every
            // idle iteration, which would churn the event ring for nothing.
            if lag > 0 || self.last_recorded.is_some_and(|l| l != lag) {
                telemetry.event_with(
                    "replication.lag",
                    rep.link_name(),
                    &[("lag_events", lag as f64), ("lag_seconds", lag_secs)],
                );
            }
        }
        self.last_recorded = Some(lag);
    }
}

impl LiveReplicator {
    /// Spawn the polling loop with the default [`RetryPolicy`].
    pub fn start(replicator: Replicator, interval: Duration) -> Self {
        LiveReplicator::start_with_policy(replicator, interval, RetryPolicy::default())
    }

    /// Spawn the polling loop with an explicit retry policy.
    ///
    /// A failed poll starts a retry burst per `policy` (see
    /// [`RetryPolicy`]): the worker sleeps the backoff and re-polls
    /// immediately instead of waiting out `interval`. Each retry bumps
    /// `replication_retries_total{link}`, sets the
    /// `replication_backoff_ms{link}` gauge to the sleep it chose, and
    /// records a `replication.retry` event. A successful poll clears
    /// [`LiveReplicator::last_error`] — an error is a *current*
    /// condition, not a historical one — and resets the burst.
    pub fn start_with_policy(
        mut replicator: Replicator,
        interval: Duration,
        policy: RetryPolicy,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let link_name = replicator.link_name().to_owned();
        let last_error: Arc<Mutex<Option<WarehouseError>>> = Arc::new(Mutex::new(None));
        let stop2 = Arc::clone(&stop);
        let paused2 = Arc::clone(&paused);
        let err2 = Arc::clone(&last_error);
        let handle = std::thread::spawn(move || {
            let mut lag = LagSampler::new();
            let mut retry = RetryState::new(policy, replicator.link_name());
            let record_err = |rep: &Replicator, e: &WarehouseError| {
                let telemetry = rep.telemetry();
                if telemetry.is_enabled() {
                    telemetry
                        .counter(
                            "replication_apply_errors_total",
                            &[("link", rep.link_name())],
                        )
                        .inc();
                    telemetry.event("replication.error", &format!("{}: {e}", rep.link_name()));
                }
            };
            let record_retry = |rep: &Replicator, attempt: u32, backoff: Duration| {
                let telemetry = rep.telemetry();
                if telemetry.is_enabled() {
                    let link: &[(&str, &str)] = &[("link", rep.link_name())];
                    telemetry.counter("replication_retries_total", link).inc();
                    telemetry
                        .gauge("replication_backoff_ms", link)
                        .set(backoff.as_millis() as f64);
                    telemetry.event_with(
                        "replication.retry",
                        &format!(
                            "{}: retry {attempt} after {}ms backoff",
                            rep.link_name(),
                            backoff.as_millis()
                        ),
                        &[
                            ("attempt", f64::from(attempt)),
                            ("backoff_ms", backoff.as_millis() as f64),
                        ],
                    );
                }
            };
            while !stop2.load(Ordering::Acquire) {
                if !paused2.load(Ordering::Acquire) {
                    match replicator.poll() {
                        Ok(_) => {
                            // The sticky-error fix: a link that has
                            // recovered must read as healthy.
                            *err2.lock() = None;
                            retry.reset();
                        }
                        Err(e) => {
                            record_err(&replicator, &e);
                            *err2.lock() = Some(e);
                            if let Some(backoff) = retry.next_backoff() {
                                record_retry(&replicator, retry.attempts, backoff);
                                lag.sample(&replicator);
                                std::thread::park_timeout(backoff);
                                continue; // fast retry, skip the interval
                            }
                        }
                    }
                }
                lag.sample(&replicator);
                std::thread::park_timeout(interval);
            }
            // Final drain so a stop() immediately after a write loses
            // nothing (even if the link was paused when stopped).
            match replicator.poll() {
                Ok(_) => *err2.lock() = None,
                Err(e) => {
                    record_err(&replicator, &e);
                    *err2.lock() = Some(e);
                }
            }
            lag.sample(&replicator);
            replicator
        });
        LiveReplicator {
            stop,
            paused,
            handle: Some(handle),
            link_name,
            last_error,
        }
    }

    /// Suspend polling without tearing the link down. Lag keeps being
    /// sampled, so a paused link under writes shows a growing
    /// `replication_lag_events` gauge — the scenario an operator dashboard
    /// must make visible.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::Release);
    }

    /// Resume polling after [`LiveReplicator::pause`].
    pub fn resume(&self) {
        self.paused.store(false, Ordering::Release);
        if let Some(handle) = &self.handle {
            handle.thread().unpark();
        }
    }

    /// True while polling is suspended.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::Acquire)
    }

    /// Any error the worker hit.
    pub fn last_error(&self) -> Option<WarehouseError> {
        self.last_error.lock().clone()
    }

    /// True when the worker thread has exited while the link is still
    /// nominally running. The loop only returns cleanly after `stop()`
    /// raises the flag, so a finished thread here means the worker
    /// *panicked* — the supervisor's cue to rebuild the link.
    pub fn is_dead(&self) -> bool {
        self.handle.as_ref().is_some_and(JoinHandle::is_finished)
    }

    /// Stop the loop, drain outstanding events, and return the link (with
    /// its watermark and stats) for inspection or restart.
    ///
    /// A panicked worker surfaces as
    /// [`ReplicationError::LinkPanicked`] instead of propagating the
    /// panic into the caller: the hub must be able to note one dead link
    /// and keep operating the rest of the federation.
    pub fn stop(mut self) -> std::result::Result<Replicator, ReplicationError> {
        self.stop.store(true, Ordering::Release);
        let Some(handle) = self.handle.take() else {
            // Unreachable by construction (`stop` consumes `self` and the
            // handle is only vacated here or in Drop), but kept typed
            // rather than panicking per the workspace invariant.
            return Err(ReplicationError::LinkPanicked {
                link: self.link_name.clone(),
                detail: "link already stopped".to_owned(),
            });
        };
        handle.thread().unpark();
        handle
            .join()
            .map_err(|payload| ReplicationError::LinkPanicked {
                link: self.link_name.clone(),
                detail: panic_detail(payload.as_ref()),
            })
    }
}

impl Drop for LiveReplicator {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Release);
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_warehouse::{shared, ColumnType, Database, SchemaBuilder, Value};

    fn satellite(schema: &str, resources: &[&str]) -> SharedDatabase {
        let mut db = Database::new();
        db.create_schema(schema).unwrap();
        db.create_table(
            schema,
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .build()
                .unwrap(),
        )
        .unwrap();
        db.create_table(
            schema,
            SchemaBuilder::new("supremm_jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_user", ColumnType::Float)
                .build()
                .unwrap(),
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = resources
            .iter()
            .map(|r| vec![Value::Str((*r).to_owned()), Value::Float(1.0)])
            .collect();
        db.insert(schema, "jobfact", rows.clone()).unwrap();
        db.insert(schema, "supremm_jobfact", rows).unwrap();
        shared(db)
    }

    #[test]
    fn poll_replicates_with_rename() {
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        let applied = rep.poll().unwrap();
        assert!(applied >= 4); // schema + 2 tables + 2 inserts (>=)
        let dst = dst.read();
        assert!(dst.has_schema("hub_x"));
        assert_eq!(dst.table("hub_x", "jobfact").unwrap().len(), 1);
        // Raw data unaltered.
        assert_eq!(
            src.read()
                .table("xdmod_x", "jobfact")
                .unwrap()
                .content_checksum(),
            dst.table("hub_x", "jobfact").unwrap().content_checksum()
        );
    }

    #[test]
    fn poll_is_incremental_and_idempotent_when_quiet() {
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        rep.poll().unwrap();
        assert_eq!(rep.poll().unwrap(), 0); // nothing new
                                            // New write replicates exactly once.
        src.write()
            .insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("comet".into()), Value::Float(2.0)]],
            )
            .unwrap();
        assert_eq!(rep.poll().unwrap(), 1);
        assert_eq!(dst.read().table("hub_x", "jobfact").unwrap().len(), 2);
    }

    #[test]
    fn jobs_realm_only_filter_drops_supremm() {
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let filter = ReplicationFilter::all().with_tables(["jobfact"]);
        let mut rep = Replicator::new(
            src,
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x").with_filter(filter),
        );
        rep.poll().unwrap();
        let dst = dst.read();
        assert!(dst.table("hub_x", "jobfact").is_ok());
        assert!(dst.table("hub_x", "supremm_jobfact").is_err());
        assert!(rep.stats().events_filtered > 0);
    }

    #[test]
    fn resource_routing_excludes_sensitive_rows() {
        let src = satellite("xdmod_x", &["open", "secret", "open"]);
        let dst = shared(Database::new());
        let filter = ReplicationFilter::all()
            .with_tables(["jobfact"])
            .with_resource_column("jobfact", "resource")
            .exclude_resource("secret");
        let mut rep = Replicator::new(
            src,
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x").with_filter(filter),
        );
        rep.poll().unwrap();
        let dst = dst.read();
        let t = dst.table("hub_x", "jobfact").unwrap();
        assert_eq!(t.len(), 2);
        for row in t.rows().unwrap().iter() {
            assert_ne!(row[0], Value::Str("secret".into()));
        }
    }

    #[test]
    fn source_schema_selection() {
        let src = satellite("xdmod_x", &["comet"]);
        src.write().create_schema("private").unwrap();
        src.write()
            .create_table(
                "private",
                SchemaBuilder::new("users")
                    .required("name", ColumnType::Str)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let dst = shared(Database::new());
        let mut rep = Replicator::new(
            src,
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        rep.poll().unwrap();
        // "user profile information [is] presently excluded": the private
        // schema never crossed.
        assert!(!dst.read().has_schema("private"));
        assert!(!dst.read().has_schema("hub_x_private"));
    }

    #[test]
    fn fan_in_two_satellites_one_hub() {
        let x = satellite("xdmod_x", &["resource-l"]);
        let y = satellite("xdmod_y", &["resource-m", "resource-n"]);
        let hub = shared(Database::new());
        let mut rx = Replicator::new(
            x,
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        let mut ry = Replicator::new(
            y,
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_y", "hub_y"),
        );
        rx.poll().unwrap();
        ry.poll().unwrap();
        let hub = hub.read();
        assert_eq!(hub.schema_names(), vec!["hub_x", "hub_y"]);
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 1);
        assert_eq!(hub.table("hub_y", "jobfact").unwrap().len(), 2);
    }

    #[test]
    fn multi_hub_same_source() {
        // §II-C4: "data from all resources could be replicated to multiple
        // federation hubs, to provide a live backup or load-balancing
        // strategy".
        let src = satellite("xdmod_x", &["comet"]);
        let hub_a = shared(Database::new());
        let hub_b = shared(Database::new());
        let mut ra = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&hub_a),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        let mut rb = Replicator::new(
            src,
            Arc::clone(&hub_b),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        ra.poll().unwrap();
        rb.poll().unwrap();
        assert_eq!(
            hub_a
                .read()
                .table("hub_x", "jobfact")
                .unwrap()
                .content_checksum(),
            hub_b
                .read()
                .table("hub_x", "jobfact")
                .unwrap()
                .content_checksum()
        );
    }

    #[test]
    fn live_replicator_streams_concurrent_writes() {
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        let live = LiveReplicator::start(rep, Duration::from_millis(1));
        for i in 0..50 {
            src.write()
                .insert(
                    "xdmod_x",
                    "jobfact",
                    vec![vec![Value::Str("comet".into()), Value::Float(f64::from(i))]],
                )
                .unwrap();
        }
        let rep = live.stop().unwrap();
        assert!(rep.stats().events_applied >= 52); // 50 inserts + DDL
        assert_eq!(dst.read().table("hub_x", "jobfact").unwrap().len(), 51);
        assert_eq!(
            src.read()
                .table("xdmod_x", "jobfact")
                .unwrap()
                .content_checksum(),
            dst.read()
                .table("hub_x", "jobfact")
                .unwrap()
                .content_checksum()
        );
    }

    /// Wait (bounded) until `cond` holds, re-checking every millisecond.
    fn eventually(mut cond: impl FnMut() -> bool) -> bool {
        for _ in 0..5000 {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    #[test]
    fn poll_reports_per_link_counters_and_lag_gauge() {
        use xdmod_telemetry::MetricsRegistry;
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let reg = MetricsRegistry::new();
        let mut rep = Replicator::new(
            Arc::clone(&src),
            dst,
            LinkConfig::renaming("xdmod_x", "hub_x"),
        )
        .with_telemetry(reg.clone(), "site-x");
        rep.poll().unwrap();
        let snap = reg.snapshot();
        let link = &[("link", "site-x")];
        assert_eq!(
            snap.counter("replication_events_read_total", link),
            Some(rep.stats().events_read)
        );
        assert_eq!(
            snap.counter("replication_events_applied_total", link),
            Some(rep.stats().events_applied)
        );
        // Caught up: the lag gauge reads zero.
        assert_eq!(snap.gauge("replication_lag_events", link), Some(0.0));
        assert_eq!(rep.lag_events(), 0);
    }

    #[test]
    fn paused_live_link_shows_growing_lag_then_recovers() {
        use xdmod_telemetry::MetricsRegistry;
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let reg = MetricsRegistry::new();
        let rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        )
        .with_telemetry(reg.clone(), "site-x");
        let live = LiveReplicator::start(rep, Duration::from_millis(1));
        let link = &[("link", "site-x")];

        // Let the link catch up, then pause it.
        assert!(eventually(|| reg
            .snapshot()
            .gauge("replication_lag_events", link)
            == Some(0.0)));
        live.pause();
        assert!(live.is_paused());

        // Writes while paused pile up as backlog...
        for i in 0..5 {
            src.write()
                .insert(
                    "xdmod_x",
                    "jobfact",
                    vec![vec![Value::Str("comet".into()), Value::Float(f64::from(i))]],
                )
                .unwrap();
        }
        // ...and the sampler reports them: 5 events behind, nonzero
        // wall-clock lag, and a replication.lag event series.
        assert!(eventually(|| reg
            .snapshot()
            .gauge("replication_lag_events", link)
            == Some(5.0)));
        assert!(eventually(|| reg
            .snapshot()
            .gauge("replication_lag_seconds", link)
            > Some(0.0)));
        let lag_events = reg.events_of_kind("replication.lag");
        assert!(!lag_events.is_empty());
        assert!(lag_events
            .iter()
            .any(|e| e.message == "site-x" && e.field("lag_events") == Some(5.0)));

        // Resuming drains the backlog and both gauges return to zero.
        live.resume();
        assert!(eventually(|| {
            let snap = reg.snapshot();
            snap.gauge("replication_lag_events", link) == Some(0.0)
                && snap.gauge("replication_lag_seconds", link) == Some(0.0)
        }));
        let rep = live.stop().unwrap();
        assert!(rep.stats().events_applied >= 5);
        assert_eq!(dst.read().table("hub_x", "jobfact").unwrap().len(), 6);
    }

    #[test]
    fn apply_errors_are_surfaced_and_do_not_kill_the_loop() {
        use xdmod_telemetry::MetricsRegistry;
        let src = satellite("xdmod_x", &["comet"]);
        // Poison the target: hub_x.jobfact exists with a different layout,
        // so every apply of the source's CreateTable event fails.
        let mut poisoned = Database::new();
        poisoned.create_schema("hub_x").unwrap();
        poisoned
            .create_table(
                "hub_x",
                SchemaBuilder::new("jobfact")
                    .required("something_else", ColumnType::Int)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let dst = shared(poisoned);
        let reg = MetricsRegistry::new();
        let rep = Replicator::new(src, dst, LinkConfig::renaming("xdmod_x", "hub_x"))
            .with_telemetry(reg.clone(), "site-x");
        let live = LiveReplicator::start(rep, Duration::from_millis(1));
        // The loop keeps retrying (counter grows past 1) instead of dying
        // on the first failure, and the error is inspectable live.
        assert!(eventually(|| reg
            .snapshot()
            .counter("replication_apply_errors_total", &[("link", "site-x")])
            .unwrap_or(0)
            > 1));
        assert!(live.last_error().is_some());
        assert!(!reg.events_of_kind("replication.error").is_empty());
        let rep = live.stop().unwrap();
        // The watermark never advanced past the failing event: only the
        // (idempotent) CreateSchema ahead of it ever applied.
        assert_eq!(rep.stats().events_applied, 1);
    }

    #[test]
    fn filtered_required_table_is_counted_and_logged() {
        use xdmod_telemetry::MetricsRegistry;
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        // supremm_jobfact is declared required downstream but the table
        // selection drops it — the silently-empty-report misconfiguration.
        let filter = ReplicationFilter::all()
            .with_tables(["jobfact"])
            .with_required_tables(["jobfact", "supremm_jobfact"]);
        let reg = MetricsRegistry::new();
        let mut rep = Replicator::new(
            src,
            dst,
            LinkConfig::renaming("xdmod_x", "hub_x").with_filter(filter),
        )
        .with_telemetry(reg.clone(), "site-x");
        rep.poll().unwrap();
        let dropped = reg
            .snapshot()
            .counter(
                "replication_filtered_required_tables_total",
                &[("link", "site-x"), ("table", "supremm_jobfact")],
            )
            .unwrap_or(0);
        // CreateTable + InsertBatch for supremm_jobfact both count.
        assert_eq!(dropped, 2);
        let events = reg.events_of_kind("replication.filtered_required_table");
        assert!(!events.is_empty());
        assert!(events[0].message.contains("supremm_jobfact"));
        // Tables that were never declared required stay out of the counter.
        assert_eq!(
            reg.snapshot().counter(
                "replication_filtered_required_tables_total",
                &[("link", "site-x"), ("table", "jobfact")],
            ),
            None
        );
    }

    #[test]
    fn stop_surfaces_worker_panic_as_typed_error() {
        // A replicator whose source handle is poisoned mid-flight is hard
        // to arrange; instead drive the public surface: a healthy link
        // stops cleanly (Ok), and the error type carries the link label
        // for the panicked case (unit-tested in `error.rs`).
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let rep = Replicator::new(src, dst, LinkConfig::renaming("xdmod_x", "hub_x"));
        let live = LiveReplicator::start(rep, Duration::from_millis(1));
        let stopped = live.stop();
        assert!(stopped.is_ok());
        assert_eq!(stopped.unwrap().link_name(), "hub_x");
    }

    #[test]
    fn seek_beyond_tail_is_rejected_with_typed_error() {
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let mut rep = Replicator::new(
            Arc::clone(&src),
            dst,
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        rep.poll().unwrap();
        let tail = src.read().binlog_position();
        // The tail itself and any rewind are fine.
        assert!(rep.seek(tail).is_ok());
        assert!(rep.seek(LogPosition::START).is_ok());
        // One past the tail is not.
        let beyond = LogPosition {
            epoch: tail.epoch,
            seqno: tail.seqno + 1,
        };
        match rep.seek(beyond) {
            Err(ReplicationError::SeekBeyondTail {
                link,
                requested,
                tail: t,
            }) => {
                assert_eq!(link, "hub_x");
                assert_eq!(requested, beyond);
                assert_eq!(t, tail);
            }
            other => panic!("expected SeekBeyondTail, got {other:?}"),
        }
        // A future epoch is beyond the tail by definition.
        assert!(rep
            .seek(LogPosition {
                epoch: tail.epoch + 1,
                seqno: 0,
            })
            .is_err());
        // The rejected seeks left the watermark where the last accepted
        // one put it.
        assert_eq!(rep.position(), LogPosition::START);
    }

    #[test]
    fn chaos_transient_fault_surfaces_then_recovers() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Transport,
            FaultKind::Transient,
            &[1],
        ));
        let mut rep = Replicator::new(
            src,
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        )
        .with_chaos(plan.injector(7));
        // First poll hits the injected transient error; nothing applied.
        assert!(matches!(rep.poll(), Err(WarehouseError::Io(_))));
        assert_eq!(rep.stats().events_applied, 0);
        // The retry sails through and replicates everything.
        assert!(rep.poll().unwrap() >= 4);
        assert!(dst.read().has_schema("hub_x"));
    }

    #[test]
    fn chaos_corrupt_tail_is_repaired_and_replication_resumes() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        use xdmod_telemetry::MetricsRegistry;
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let reg = MetricsRegistry::new();
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Transport,
            FaultKind::CorruptTailByte,
            &[1],
        ));
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        )
        .with_telemetry(reg.clone(), "site-x")
        .with_chaos(plan.injector(7));
        // The first poll corrupts the source tail in flight, detects it,
        // repairs the source log, and applies the surviving prefix.
        let applied = rep.poll().unwrap();
        assert!(applied >= 4); // 5 events recorded, tail one dropped
        assert_eq!(rep.stats().source_repairs, 1);
        assert_eq!(
            reg.snapshot()
                .counter("replication_source_repairs_total", &[("link", "site-x")]),
            Some(1)
        );
        assert!(!reg.events_of_kind("replication.source_repaired").is_empty());
        // The link is healthy again: new writes replicate normally.
        src.write()
            .insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("comet".into()), Value::Float(9.0)]],
            )
            .unwrap();
        assert_eq!(rep.poll().unwrap(), 1);
        assert_eq!(rep.stats().source_repairs, 1); // no further repairs
    }

    #[test]
    fn diverged_link_is_detected_and_resynced_from_tables() {
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        rep.poll().unwrap();
        assert!(!rep.is_diverged());
        // Lose the source binlog's tail record to a crash repair: the
        // watermark now points past the surviving log.
        {
            let mut s = src.write();
            s.truncate_binlog_tail(5);
            assert!(!s.repair_binlog().is_clean());
        }
        assert!(rep.is_diverged());
        // Polling cannot help a diverged link (a same-epoch beyond-tail
        // read is a silent empty batch); a table-copy resync can.
        let report = rep.resync_target().unwrap();
        assert_eq!(report.tables, 2);
        assert!(!rep.is_diverged());
        let src = src.read();
        let dst = dst.read();
        for table in ["jobfact", "supremm_jobfact"] {
            assert_eq!(
                src.table("xdmod_x", table).unwrap().content_checksum(),
                dst.table("hub_x", table).unwrap().content_checksum(),
                "{table} must match after resync"
            );
        }
    }

    #[test]
    fn resync_resets_delta_fold_cursors_never_serving_stale_partials() {
        use xdmod_warehouse::{run_sharded, AggFn, Aggregate, CacheKey, DeltaOutcome, Query};
        let src = satellite("xdmod_x", &["comet", "gordon", "comet"]);
        let dst = shared(Database::new());
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        rep.poll().unwrap();

        // An aggregation pass leaves a retained delta-fold partial with a
        // cursor into the target's binlog.
        let q = Query::new()
            .aggregate(Aggregate::count("jobs"))
            .aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
        dst.read()
            .query_reported("hub_x", "jobfact", &q, "agg")
            .unwrap();
        let key = CacheKey::of("hub_x", "jobfact", &q);
        assert!(dst.read().delta_cache().cursor_of(&key).is_some());

        // Source moves on; a full resync rewrites the target's tables
        // outside normal DML accounting.
        src.write()
            .insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("trestles".into()), Value::Float(4.0)]],
            )
            .unwrap();
        rep.resync_target().unwrap();

        // The regression under test: resync must reset the delta cursor
        // along with the rebuild generation. A surviving cursor would let
        // the next fold start from pre-resync partials and double-count
        // every row the resync re-copied.
        assert_eq!(dst.read().delta_cache().cursor_of(&key), None);
        assert!(dst.read().delta_cache().is_empty());

        let d = dst.read();
        let (rs, report) = d.query_reported("hub_x", "jobfact", &q, "agg").unwrap();
        assert_eq!(report.outcome, DeltaOutcome::Cold);
        let fact = d.table("hub_x", "jobfact").unwrap();
        let recompute = run_sharded(&q, fact, d.parallelism(), d.telemetry(), "jobfact");
        assert_eq!(rs, recompute.unwrap());
        // 3 original rows at 1.0 cpu-hour each + the resynced 4.0 row;
        // a stale partial would have reported 10.0 (the originals twice).
        assert_eq!(rs.scalar_f64("total"), Some(7.0));
        assert_eq!(rs.scalar_f64("jobs"), Some(4.0));
    }

    #[test]
    fn resync_preserves_table_selection_and_resource_routing() {
        let src = satellite("xdmod_x", &["open", "secret"]);
        let dst = shared(Database::new());
        let telemetry = MetricsRegistry::new();
        let filter = ReplicationFilter::all()
            .with_tables(["jobfact"])
            .with_resource_column("jobfact", "resource")
            .exclude_resource("secret");
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x").with_filter(filter),
        )
        .with_telemetry(telemetry.clone(), "hub_x");
        let report = rep.resync_target().unwrap();
        assert_eq!(report.tables, 1);
        assert_eq!(report.rows, 1);
        {
            let dst = dst.read();
            assert_eq!(dst.table("hub_x", "jobfact").unwrap().len(), 1);
            assert!(dst.table("hub_x", "supremm_jobfact").is_err());
        }
        // Nothing just copied replays on the next poll...
        assert_eq!(rep.poll().unwrap(), 0);
        // ...and the resync left its telemetry trail.
        assert_eq!(
            telemetry
                .snapshot()
                .counter("replication_resyncs_total", &[("link", "hub_x")]),
            Some(1)
        );
        assert!(!telemetry.events_of_kind("replication.resync").is_empty());
    }

    #[test]
    fn resync_invalidates_spilled_pages_of_rewritten_tables() {
        use xdmod_warehouse::{AggFn, Aggregate, PagingConfig, Query};
        let dir = std::env::temp_dir().join(format!(
            "xdmod-repl-spill-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let src = satellite("xdmod_x", &["comet", "gordon"]);
        let mut target = Database::new();
        // Pathological budget: every page evicts as soon as it is unpinned,
        // so the replicated facts live on disk, not in memory.
        target
            .enable_paging(PagingConfig::new(&dir).budget_bytes(1).pages_per_table(2))
            .unwrap();
        let dst = shared(target);
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        rep.poll().unwrap();
        let q = Query::new().aggregate(Aggregate::of(AggFn::Sum, "cpu_hours", "total"));
        assert_eq!(
            dst.read()
                .query("hub_x", "jobfact", &q)
                .unwrap()
                .scalar_f64("total"),
            Some(2.0)
        );
        let stats = dst.read().residency_stats().unwrap();
        assert!(
            stats.spilled_pages > 0,
            "a one-byte budget must leave pages spilled: {stats:?}"
        );
        let spill_dir = dst.read().paging_config().unwrap().spill_path();
        let spilled_before: Vec<String> = std::fs::read_dir(&spill_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(!spilled_before.is_empty());

        // The source rewrites its facts with entirely different values.
        {
            let mut s = src.write();
            s.truncate("xdmod_x", "jobfact").unwrap();
            s.insert(
                "xdmod_x",
                "jobfact",
                vec![
                    vec![Value::Str("expanse".into()), Value::Float(40.0)],
                    vec![Value::Str("bridges".into()), Value::Float(2.0)],
                ],
            )
            .unwrap();
        }
        rep.resync_target().unwrap();

        // The regression under test: resync truncates each rewritten table,
        // which must drop its spilled shard files. A stale spill surviving
        // the rewrite would fault old rows back in on the next query.
        let d = dst.read();
        assert_eq!(
            d.query("hub_x", "jobfact", &q).unwrap().scalar_f64("total"),
            Some(42.0)
        );
        assert_eq!(
            d.table("hub_x", "jobfact").unwrap().content_checksum(),
            src.read()
                .table("xdmod_x", "jobfact")
                .unwrap()
                .content_checksum(),
            "resync'd paged table must match the source byte-for-byte"
        );
        assert!(!d.has_lost_pages());
        // Every pre-resync spill file is gone; whatever spilled since
        // carries a newer generation and therefore a different name.
        let now: std::collections::BTreeSet<String> = std::fs::read_dir(&spill_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        for stale in &spilled_before {
            assert!(
                !now.contains(stale),
                "pre-resync spill file {stale} survived the rewrite"
            );
        }
        drop(d);
        drop(dst);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_link_retries_transient_faults_and_clears_last_error() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        use xdmod_telemetry::MetricsRegistry;
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let reg = MetricsRegistry::new();
        // Two transient faults, then clear air.
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Transport,
            FaultKind::Transient,
            &[1, 2],
        ));
        let rep = Replicator::new(
            src,
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        )
        .with_telemetry(reg.clone(), "site-x")
        .with_chaos(plan.injector(7));
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            deadline: None,
        };
        let live = LiveReplicator::start_with_policy(rep, Duration::from_millis(1), policy);
        // The faults were retried through, the data arrived, and — the
        // sticky-error fix — the recovered link reads as healthy again.
        assert!(eventually(|| dst.read().has_schema("hub_x")));
        assert!(eventually(|| live.last_error().is_none()));
        let rep = live.stop().unwrap();
        assert!(rep.stats().events_applied >= 4);
        let snap = reg.snapshot();
        let retries = snap
            .counter("replication_retries_total", &[("link", "site-x")])
            .unwrap_or(0);
        assert!(
            retries >= 1,
            "expected at least one fast retry, got {retries}"
        );
        assert!(!reg.events_of_kind("replication.retry").is_empty());
    }

    #[test]
    fn retry_backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy::default();
        let mut a = RetryState::new(policy, "site-x");
        let mut b = RetryState::new(policy, "site-x");
        let seq_a: Vec<_> = std::iter::from_fn(|| a.next_backoff()).collect();
        let seq_b: Vec<_> = std::iter::from_fn(|| b.next_backoff()).collect();
        assert_eq!(seq_a, seq_b, "same link name must draw the same schedule");
        assert_eq!(seq_a.len() as u32, policy.max_attempts);
        for d in &seq_a {
            assert!(*d >= policy.base_backoff && *d <= policy.max_backoff);
        }
        // Exhausted burst stays exhausted until reset.
        assert_eq!(a.next_backoff(), None);
        a.reset();
        assert!(a.next_backoff().is_some());
        // A different link name draws a different schedule (with enough
        // attempts the sequences can't collide entirely).
        let mut c = RetryState::new(policy, "site-y");
        let seq_c: Vec<_> = std::iter::from_fn(|| c.next_backoff()).collect();
        assert_ne!(seq_a, seq_c);
        // Zero-retry policy never fast-retries.
        let mut z = RetryState::new(RetryPolicy::no_retries(), "site-x");
        assert_eq!(z.next_backoff(), None);
    }

    #[test]
    fn compacted_source_fails_stale_poll_and_resync_recovers() {
        use xdmod_telemetry::MetricsRegistry;
        let src = satellite("xdmod_x", &["comet"]);
        // Compact the source: snapshot twice so the trailing horizon
        // passes the DDL/insert prefix a fresh link would need.
        {
            let mut s = src.write();
            s.snapshot_now().unwrap();
            s.insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("comet".into()), Value::Float(5.0)]],
            )
            .unwrap();
            s.snapshot_now().unwrap();
            assert!(s.compaction_horizon() > 0);
        }
        let dst = shared(Database::new());
        let reg = MetricsRegistry::new();
        let mut rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        )
        .with_telemetry(reg.clone(), "site-x");
        // A fresh link's watermark (START) is below the horizon.
        assert!(rep.is_compacted_away());
        let err = rep.poll().unwrap_err();
        assert!(
            matches!(err, WarehouseError::CompactedAway { .. }),
            "got {err}"
        );
        assert_eq!(
            reg.snapshot()
                .counter("replication_compacted_reads_total", &[("link", "site-x")]),
            Some(1)
        );
        assert!(!reg.events_of_kind("replication.compacted_away").is_empty());
        // Resync rebuilds the target from the source's snapshot+tail
        // state (its live tables) and the link is healthy again.
        rep.resync_target().unwrap();
        assert!(!rep.is_compacted_away());
        assert_eq!(rep.poll().unwrap(), 0);
        assert_eq!(
            src.read()
                .table("xdmod_x", "jobfact")
                .unwrap()
                .content_checksum(),
            dst.read()
                .table("hub_x", "jobfact")
                .unwrap()
                .content_checksum()
        );
    }

    #[test]
    fn resync_after_compaction_matches_full_replication() {
        // The acceptance invariant: a replica resumed from snapshot+tail
        // (resync after the source compacted) is content-identical to a
        // replica that replayed the full, never-compacted log.
        let src = satellite("xdmod_x", &["comet", "gordon"]);
        let full = shared(Database::new());
        let mut full_rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&full),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        full_rep.poll().unwrap(); // replicates the complete log up front
        {
            let mut s = src.write();
            s.snapshot_now().unwrap();
            s.insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("late".into()), Value::Float(7.0)]],
            )
            .unwrap();
            s.snapshot_now().unwrap(); // horizon passes the prefix
            assert!(s.compaction_horizon() > 0);
        }
        full_rep.poll().unwrap(); // full replica stays caught up
                                  // The late replica can't replay the compacted prefix; it resyncs.
        let late = shared(Database::new());
        let mut late_rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&late),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        assert!(late_rep.poll().is_err());
        late_rep.resync_target().unwrap();
        assert_eq!(late_rep.poll().unwrap(), 0);
        let full = full.read();
        let late = late.read();
        for table in ["jobfact", "supremm_jobfact"] {
            assert_eq!(
                full.table("hub_x", table).unwrap().content_checksum(),
                late.table("hub_x", table).unwrap().content_checksum(),
                "{table}: snapshot+tail resync must equal full replication"
            );
        }
    }

    #[test]
    fn the_link_paths_agree() {
        use crate::loose::{receive_dump, ship_dump};
        use xdmod_warehouse::PagingConfig;
        // One history: both realms, a resource mix, and a truncate the
        // log replays but a capture never sees.
        let dense = satellite("xdmod_x", &["open", "secret", "open"]);
        {
            let mut s = dense.write();
            let resources = ["open", "gordon", "secret"];
            for batch in 0..6usize {
                let rows = (0..12usize)
                    .map(|i| {
                        let resource = resources[(batch + i) % 3];
                        vec![
                            Value::Str(resource.into()),
                            Value::Float((batch * 12 + i) as f64),
                        ]
                    })
                    .collect();
                s.insert("xdmod_x", "jobfact", rows).unwrap();
                if batch == 1 {
                    s.truncate("xdmod_x", "jobfact").unwrap();
                }
            }
        }
        // The same history on a source whose pages mostly live on disk.
        let dir = std::env::temp_dir().join(format!("xdmod-repl-paths-{}", std::process::id()));
        let mut paged = Database::new();
        paged
            .enable_paging(
                PagingConfig::new(&dir)
                    .budget_bytes(1024)
                    .pages_per_table(4),
            )
            .unwrap();
        for ev in dense.read().binlog_after(LogPosition::START).unwrap() {
            paged.apply_event(ev.payload).unwrap();
        }
        assert!(paged.residency_stats().unwrap().spilled_pages > 0);
        let paged = shared(paged);

        let link = LinkConfig::renaming("xdmod_x", "hub_x").with_filter(
            ReplicationFilter::all()
                .with_tables(["jobfact"])
                .with_resource_column("jobfact", "resource")
                .exclude_resource("secret"),
        );
        type Path = fn(&SharedDatabase, &SharedDatabase, LinkConfig) -> Option<ResyncReport>;
        let poll: Path = |src, hub, link| {
            Replicator::new(Arc::clone(src), Arc::clone(hub), link)
                .poll()
                .unwrap();
            None
        };
        let dump: Path = |src, hub, link| {
            let bytes = ship_dump(&src.read(), "xdmod_x").unwrap();
            Some(receive_dump(&mut hub.write(), &bytes, &link).unwrap())
        };
        let resync: Path = |src, hub, link| {
            let mut rep = Replicator::new(Arc::clone(src), Arc::clone(hub), link);
            Some(rep.resync_target().unwrap())
        };
        let arms = [
            ("poll", &dense, poll),
            ("dump", &dense, dump),
            ("resync", &dense, resync),
            ("paged dump", &paged, dump),
            ("paged resync", &paged, resync),
        ];
        let mut hubs = Vec::new();
        for (name, src, path) in arms {
            let hub = shared(Database::new());
            let report = path(src, &hub, link.clone());
            let hub = hub.read();
            assert!(hub.table("hub_x", "supremm_jobfact").is_err(), "{name}");
            let jobs = hub.table("hub_x", "jobfact").unwrap();
            hubs.push((name, jobs.len(), jobs.content_checksum(), report));
        }
        // 48 rows survive the truncate; routing drops the 16 secret ones.
        let (_, rows, checksum, _) = hubs[0];
        assert_eq!(rows, 32);
        for (name, n, c, report) in hubs {
            assert_eq!((n, c), (rows, checksum), "{name}");
            if let Some(report) = report {
                assert_eq!(report, ResyncReport { tables: 1, rows }, "{name}");
            }
        }
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rows_too_short_for_the_resource_column_are_rejected_not_a_panic() {
        let one_table = |columns: &[(&str, ColumnType)], row: Vec<Value>| {
            let mut db = Database::new();
            db.create_schema("xdmod_x").unwrap();
            let def = columns
                .iter()
                .fold(SchemaBuilder::new("jobfact"), |b, (name, ty)| {
                    b.required(name, *ty)
                });
            db.create_table("xdmod_x", def.build().unwrap()).unwrap();
            db.insert("xdmod_x", "jobfact", vec![row]).unwrap();
            shared(db)
        };
        let a = one_table(
            &[
                ("cpu_hours", ColumnType::Float),
                ("resource", ColumnType::Str),
            ],
            vec![Value::Float(1.0), Value::Str("open".into())],
        );
        let b = one_table(&[("cpu_hours", ColumnType::Float)], vec![Value::Float(2.0)]);
        let link = LinkConfig::renaming("xdmod_x", "hub_x").with_filter(
            ReplicationFilter::all()
                .with_resource_column("jobfact", "resource")
                .exclude_resource("secret"),
        );
        let hub = shared(Database::new());
        Replicator::new(a, Arc::clone(&hub), link.clone())
            .poll()
            .unwrap();
        // B's link starts past B's own DDL, so its next record — a
        // one-column row — is routed against the hub's two-column table.
        let mut from_b = Replicator::new(Arc::clone(&b), Arc::clone(&hub), link);
        from_b.seek(b.read().binlog_position()).unwrap();
        b.write()
            .insert("xdmod_x", "jobfact", vec![vec![Value::Float(3.0)]])
            .unwrap();
        let err = from_b.poll().unwrap_err();
        assert_eq!(
            err.to_string(),
            "schema mismatch: table jobfact expects 2 columns, row has 1"
        );
        assert_eq!(hub.read().table("hub_x", "jobfact").unwrap().len(), 1);
    }

    #[test]
    fn stats_account_for_every_event() {
        let src = satellite("xdmod_x", &["a", "b"]);
        let dst = shared(Database::new());
        let filter = ReplicationFilter::all().with_tables(["jobfact"]);
        let mut rep = Replicator::new(
            src,
            dst,
            LinkConfig::renaming("xdmod_x", "hub_x").with_filter(filter),
        );
        rep.poll().unwrap();
        let s = rep.stats();
        assert_eq!(s.events_read, s.events_applied + s.events_filtered);
    }
}
