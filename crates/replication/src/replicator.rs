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
//! to the target. [`Replicator::step`] is the one way a link is driven:
//! it polls (or resyncs, when polling cannot help), records the outcome
//! and says when to run next. A [`Link`] holds the replicator for the
//! link's whole life: whoever schedules the link steps it through the
//! handle, and reads its backlog and latest error without waiting for a
//! step. Stepped at a short interval, it is the paper's "live
//! replication".
//!
//! "Instead, log files or database dumps could be periodically shipped to
//! the federation hub, and batch processed there to make their data
//! available to the federation. This latter method would be considered
//! 'loose' federation. A heterogeneous model could also be employed, in
//! which a federation hub is provided with data using loose federation
//! from some member instances and tight federation from others."
//! (§II-C2)
//!
//! A loose link is the same [`Replicator`], stepped in batches instead
//! of at an interval: it reads the framed binlog (the shipped "log
//! files") after a position the hub keeps and advances that position
//! only past applied events, so a batch that fails to apply is read
//! again on the next call. A captured schema (the "database dump") is what
//! [`Replicator::resync_target`] replays.

use crate::error::{panic_detail, ReplicationError};
use crate::filter::ReplicationFilter;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
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
    /// instance schema).
    pub source_schema: String,
    /// Schema name on the target ("one schema per XDMoD instance" on the
    /// hub).
    pub rename_to: String,
    /// Table/resource selection.
    pub filter: ReplicationFilter,
}

impl LinkConfig {
    /// Replicate `source_schema`, renamed on the target to `rename_to`.
    pub fn renaming(source_schema: &str, rename_to: &str) -> Self {
        LinkConfig {
            source_schema: source_schema.to_owned(),
            rename_to: rename_to.to_owned(),
            filter: ReplicationFilter::all(),
        }
    }

    /// Attach a filter.
    pub fn with_filter(mut self, filter: ReplicationFilter) -> Self {
        self.filter = filter;
        self
    }

    /// The one route every path takes — polls (tight and loose members
    /// alike) and resync. Drops events of other schemas, renames,
    /// then applies the filter, resolving resource columns on the `target`
    /// table the rows land in. `None` means the link drops the event.
    pub fn route(&self, payload: EventPayload, target: &Database) -> Option<EventPayload> {
        if payload.schema() != self.source_schema {
            return None;
        }
        let payload = payload.with_schema(&self.rename_to);
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
    /// recovery) before resuming its read.
    pub source_repairs: u64,
}

/// A replication link between two databases, driven by
/// [`Replicator::step`].
pub struct Replicator {
    source: SharedDatabase,
    target: SharedDatabase,
    config: LinkConfig,
    /// The watermark, shared with the link's [`Link`] so its lag reads
    /// never wait for this replicator's lock.
    watermark: Arc<Mutex<LogPosition>>,
    stats: LinkStats,
    telemetry: MetricsRegistry,
    link_name: String,
    /// Fault injector consulted at the transport point of every poll.
    chaos: Option<FaultInjector>,
    /// A source tail repair dropped records since the last resync: the
    /// source tables hold rows whose events no poll can deliver.
    lost_records: bool,
    /// The error of the latest step, shared with the link's [`Link`] so
    /// reading it never waits for this lock.
    last_error: Arc<Mutex<Option<WarehouseError>>>,
    /// The retry burst [`Replicator::step`] advances.
    retry: RetryState,
    /// When the last step failed, if it scheduled a retry: the next step
    /// is that retry.
    retry_scheduled_at: Option<Instant>,
    /// A chaos stall deferred the latest poll by this long.
    stalled: Option<Duration>,
    /// When the link first fell behind (`None` while caught up).
    behind_since: Option<Instant>,
    /// The last lag sampled, so an idle link records no lag events.
    last_lag: Option<u64>,
}

/// What one [`Replicator::step`] did, and when to step again.
#[derive(Debug)]
pub struct Step {
    /// Events the step's poll applied (a resync polls none), or the error
    /// that failed the step.
    pub outcome: Result<usize>,
    /// The step rebuilt the target from the source tables instead of
    /// polling ([`Replicator::needs_resync`]).
    pub resynced: bool,
    /// `Some` while the step failed and its retry burst has attempts
    /// left, or a transport stall deferred its poll: step again at this
    /// instant, a backoff (or the stall) after `now`. `None`: step again
    /// after the driver's interval.
    pub retry_at: Option<Instant>,
}

impl Replicator {
    /// Create a link starting at the beginning of the source's binlog.
    pub fn new(source: SharedDatabase, target: SharedDatabase, config: LinkConfig) -> Self {
        // Default link label: the target-side schema.
        let link_name = config.rename_to.clone();
        Replicator {
            source,
            target,
            config,
            watermark: Arc::new(Mutex::new(LogPosition::START)),
            stats: LinkStats::default(),
            telemetry: MetricsRegistry::disabled(),
            retry: RetryState::new(RetryPolicy::default(), &link_name),
            retry_scheduled_at: None,
            stalled: None,
            link_name,
            chaos: None,
            lost_records: false,
            last_error: Arc::new(Mutex::new(None)),
            behind_since: None,
            last_lag: None,
        }
    }

    /// Retry failed steps under `policy` (the default is
    /// [`RetryPolicy::default`]).
    pub fn with_retries(mut self, policy: RetryPolicy) -> Self {
        self.retry = RetryState::new(policy, &self.link_name);
        self
    }

    /// In-place form of [`Replicator::with_chaos`], for links already
    /// wired into a federation.
    pub fn set_chaos(&mut self, injector: FaultInjector) {
        self.chaos = Some(injector);
    }

    /// Attach a fault injector. The injector is consulted once per poll
    /// at the [`FaultPoint::Transport`] point (target = the link label):
    /// transient and link-down faults surface as [`WarehouseError::Io`]
    /// from the poll, a stall defers the poll (see [`Step::retry_at`]),
    /// and physical binlog damage ([`FaultKind::CorruptTailByte`],
    /// [`FaultKind::TruncateTail`]) is executed against the *source*
    /// database — the transport is the one place in the stack that holds
    /// write access to the source handle.
    pub fn with_chaos(mut self, injector: FaultInjector) -> Self {
        self.chaos = Some(injector);
        self
    }

    /// Attach a metrics registry, labelling this link's metrics
    /// (`replication_events_*_total{link=..}`, `replication_lag_events`)
    /// with `link`. The retry jitter is seeded from the same label.
    pub fn with_telemetry(mut self, telemetry: MetricsRegistry, link: &str) -> Self {
        self.telemetry = telemetry;
        self.link_name = link.to_owned();
        self.retry = RetryState::new(self.retry.policy, link);
        self
    }

    /// Current watermark (position of the last replicated source event).
    pub fn position(&self) -> LogPosition {
        *self.watermark.lock()
    }

    fn set_position(&self, position: LogPosition) {
        *self.watermark.lock() = position;
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Replication lag in *events*: how far the source binlog's head is
    /// ahead of this link's watermark. After an epoch rotation on the
    /// source (restore), the whole new generation counts as backlog.
    pub fn lag_events(&self) -> u64 {
        lag_events(&self.source, &self.watermark)
    }

    /// Read, filter, rename, and apply everything new. Returns how many
    /// events were applied. Idempotent when the source is quiescent.
    ///
    /// With telemetry attached, each poll updates the per-link
    /// `replication_events_{read,applied,filtered}_total` counters.
    /// Drivers call [`Replicator::step`], which polls and records the
    /// outcome; a bare poll records nothing else.
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
        }
        result
    }

    /// Drive the link once — the one operation under every schedule,
    /// live, batched or supervised. Resyncs when
    /// [`Replicator::needs_resync`], otherwise polls once, and records
    /// the outcome the same way whoever drives it: a failure is kept in
    /// [`Link::last_error`], counted in
    /// `replication_apply_errors_total{link}`, recorded as a
    /// `replication.error` event and advances the retry burst (see
    /// [`RetryPolicy`]); a success clears the error and ends the burst.
    /// The step after one that scheduled a retry is that retry: it counts
    /// in `replication_retries_total{link}` and records a
    /// `replication.retry` event with the time waited since the failure.
    /// A transport stall is neither: the step reads nothing and asks to
    /// run again once the stall is over. Every step then samples lag in
    /// both units at `now`:
    /// `replication_lag_events` (binlog positions behind) and
    /// `replication_lag_seconds` (time since the link first fell behind).
    pub fn step(&mut self, now: Instant) -> Step {
        if let Some(failed_at) = self.retry_scheduled_at.take() {
            self.record_retry(now.saturating_duration_since(failed_at));
        }
        let resynced = self.needs_resync();
        let outcome = if resynced {
            self.resync_target().map(|_| 0)
        } else {
            self.poll()
        };
        let mut retry_at = self.stalled.take().map(|stall| now + stall);
        match &outcome {
            Ok(_) if retry_at.is_some() => {}
            Ok(_) => self.succeeded(),
            Err(e) => {
                *self.last_error.lock() = Some(e.clone());
                let backoff = self.retry.next_backoff();
                retry_at = backoff.map(|backoff| now + backoff);
                self.retry_scheduled_at = backoff.map(|_| now);
                self.record_failure(e, backoff);
            }
        }
        self.sample_lag(now);
        Step {
            outcome,
            resynced,
            retry_at,
        }
    }

    /// The link stands level with its source: its error is no longer
    /// current, and any retry burst is over.
    fn succeeded(&mut self) {
        *self.last_error.lock() = None;
        self.retry.reset();
    }

    /// Count and record a failed step, and the backoff its burst chose
    /// for the retry.
    fn record_failure(&self, e: &WarehouseError, backoff: Option<Duration>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let link: &[(&str, &str)] = &[("link", &self.link_name)];
        let telemetry = &self.telemetry;
        telemetry
            .counter("replication_apply_errors_total", link)
            .inc();
        telemetry.event("replication.error", &format!("{}: {e}", self.link_name));
        if let Some(backoff) = backoff {
            telemetry
                .gauge("replication_backoff_ms", link)
                .set(backoff.as_millis() as f64);
        }
    }

    /// Count and record the retry this step runs, `waited` after the
    /// failure that scheduled it.
    fn record_retry(&self, waited: Duration) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let link: &[(&str, &str)] = &[("link", &self.link_name)];
        let (attempt, ms) = (self.retry.attempts, waited.as_millis());
        self.telemetry
            .counter("replication_retries_total", link)
            .inc();
        self.telemetry.event_with(
            "replication.retry",
            &format!("{}: retry {attempt} after {ms}ms", self.link_name),
            &[("attempt", f64::from(attempt)), ("waited_ms", ms as f64)],
        );
    }

    /// Sample lag in both units at `now` into the link's registry without
    /// stepping — what a paused link's schedule does, so its backlog shows
    /// on the lag gauges. Every step samples too.
    pub fn sample_lag(&mut self, now: Instant) {
        let lag = self.lag_events();
        let lag_secs = if lag == 0 {
            self.behind_since = None;
            0.0
        } else {
            let since = *self.behind_since.get_or_insert(now);
            now.saturating_duration_since(since).as_secs_f64()
        };
        if self.telemetry.is_enabled() {
            let link: &[(&str, &str)] = &[("link", &self.link_name)];
            self.telemetry
                .gauge("replication_lag_events", link)
                .set(lag as f64);
            self.telemetry
                .gauge("replication_lag_seconds", link)
                .set(lag_secs);
            // Record a lag-series event on every sample while behind, plus
            // the one sample where the link returns to 0 — but not on every
            // idle step, which would churn the event ring for nothing.
            if lag > 0 || self.last_lag.is_some_and(|l| l != lag) {
                self.telemetry.event_with(
                    "replication.lag",
                    &self.link_name,
                    &[("lag_events", lag as f64), ("lag_seconds", lag_secs)],
                );
            }
        }
        self.last_lag = Some(lag);
    }

    /// Consult the fault injector at the transport point. Transient and
    /// link-down faults surface as errors; a stall comes back as the time
    /// the poll must wait; binlog damage kinds mutate the source log and
    /// let the poll proceed into the damage (exercising the repair path).
    fn transport_fault(&mut self) -> Result<Option<Duration>> {
        let Some(injector) = &self.chaos else {
            return Ok(None);
        };
        match injector.next_fault(FaultPoint::Transport, &self.link_name) {
            None => Ok(None),
            Some(FaultKind::Stall { millis }) => Ok(Some(Duration::from_millis(millis))),
            Some(FaultKind::CorruptTailByte) => {
                self.source.write().corrupt_binlog_tail_byte();
                Ok(None)
            }
            Some(FaultKind::TruncateTail { bytes }) => {
                self.source.write().truncate_binlog_tail(bytes as usize);
                Ok(None)
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
            src.binlog_after(self.position())
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
                // loudly visible and surface the typed error; the next
                // step sees [`Replicator::needs_resync`] and resyncs.
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
                            self.link_name,
                            self.position()
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
            // — propagate so the next step can resync instead.
            return Err(WarehouseError::CorruptBinlog(detail));
        }
        self.stats.source_repairs += 1;
        self.lost_records = true;
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
        src.binlog_after(self.position())
    }

    fn poll_inner(&mut self) -> Result<usize> {
        self.stalled = self.transport_fault()?;
        if self.stalled.is_some() {
            return Ok(0);
        }
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
            self.set_position(ev.position);
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
        self.set_position(position);
        Ok(())
    }

    /// True when polling cannot bring the target level with the source,
    /// so the link must [`Replicator::resync_target`]: the watermark is
    /// past the source binlog's tail (the source lost its tail to a crash
    /// repair or was rebuilt; such a read is a *silent* empty batch), it
    /// is below the source's compaction horizon (the read is
    /// [`WarehouseError::CompactedAway`] forever), or a source tail repair
    /// dropped records since the last resync. [`Replicator::step`]
    /// resyncs on it.
    pub fn needs_resync(&self) -> bool {
        let (tail, horizon) = {
            let src = self.source.read();
            (src.binlog_position(), src.compaction_horizon())
        };
        let at = self.position();
        // Where a read would resume in the source's current epoch: an
        // older epoch's watermark replays the whole generation.
        let resume = if at.epoch < tail.epoch { 0 } else { at.seqno };
        self.lost_records || at.epoch > tail.epoch || !(horizon..=tail.seqno).contains(&resume)
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
    ///
    /// A resync that succeeds is a success of the link: it clears
    /// [`Link::last_error`] and ends any retry burst, as a
    /// successful poll does.
    pub fn resync_target(&mut self) -> Result<ResyncReport> {
        // Capture the schema and the binlog head under one source read
        // lock, then release it before writing the target (same
        // lock-ordering rule as poll_inner).
        let (image, head) = {
            let src = self.source.read();
            let image =
                Snapshot::capture_schemas(&src, std::slice::from_ref(&self.config.source_schema))?;
            (image, src.binlog_position())
        };
        let report = {
            let mut dst = self.target.write();
            replace(&mut dst, image.events(), &self.config)?
        };
        // The target now mirrors the source's present state; polling
        // resumes from the head so nothing just copied is replayed.
        self.set_position(head);
        self.lost_records = false;
        self.succeeded();
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

/// Replay a captured image through `link`, replacing what it carries:
/// each table that passes is emptied where its `CreateTable` arrives —
/// ahead of its rows, after its definition is checked against the
/// target's — and then every retained partial is dropped
/// ([`Database::note_external_rebuild`]), since each was folded from rows
/// the image just replaced.
fn replace(
    target: &mut Database,
    events: impl Iterator<Item = Result<EventPayload>>,
    link: &LinkConfig,
) -> Result<ResyncReport> {
    let mut report = ResyncReport::default();
    for payload in events {
        let Some(payload) = link.route(payload?, target) else {
            continue;
        };
        match &payload {
            EventPayload::CreateTable { schema, def } => {
                report.tables += 1;
                if target.table(schema, &def.name).is_ok() {
                    target.ensure_table(schema, def.clone())?;
                    target.truncate(schema, &def.name)?;
                }
            }
            EventPayload::InsertBatch { rows, .. } => report.rows += rows.len(),
            _ => {}
        }
        target.apply_event(payload)?;
    }
    target.note_external_rebuild();
    Ok(report)
}

/// What a [`Replicator::resync_target`] pass rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResyncReport {
    /// Tables rebuilt on the target (after table selection).
    pub tables: usize,
    /// Rows copied (after resource routing).
    pub rows: usize,
}

/// Retry behaviour of a link when a step fails.
///
/// A failed [`Replicator::step`] starts or advances a *retry burst*: the
/// step asks to run again after an exponentially growing backoff with
/// decorrelated jitter (`sleep = min(max_backoff, rand(base_backoff ..=
/// prev * 3))`, the AWS-architecture-blog variant) instead of after the
/// driver's interval. The burst belongs to the link, not to whoever
/// drives it: it ends on the first success — which also clears
/// [`Link::last_error`] — and once `max_attempts` retries are
/// spent it stays spent until a success, the link falling back to
/// interval steps with the error left visible for the supervisor. The
/// link is never torn down by a failed step.
///
/// Jitter is drawn from a [`DeterministicRng`] seeded from the link
/// name, so a chaos run's retry schedule is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Fast retries per burst before falling back to interval steps.
    pub max_attempts: u32,
    /// First (and minimum) backoff of a burst.
    pub base_backoff: Duration,
    /// Upper bound any single backoff is clamped to.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// A link's retry burst, advanced by [`Replicator::step`].
struct RetryState {
    policy: RetryPolicy,
    rng: DeterministicRng,
    attempts: u32,
    prev_backoff: Duration,
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
        }
    }

    /// A step succeeded: the burst (if any) is over.
    fn reset(&mut self) {
        self.attempts = 0;
        self.prev_backoff = Duration::ZERO;
    }

    /// A step failed: the next backoff to wait, or `None` once the
    /// burst's attempts are exhausted.
    fn next_backoff(&mut self) -> Option<Duration> {
        if self.attempts >= self.policy.max_attempts {
            return None;
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

/// One replication link for its whole life: the [`Replicator`] behind a
/// lock, stepped by whoever schedules it — "live replication to the
/// central federation hub database" when that is a short interval.
///
/// Every operation locks the replicator for its own duration, so a
/// caller never holds the guard. The watermark, the source handle and
/// the latest error are shared out of the replicator, so
/// [`Link::lag_events`] and [`Link::last_error`] never wait for a step.
pub struct Link {
    replicator: Mutex<Replicator>,
    source: SharedDatabase,
    watermark: Arc<Mutex<LogPosition>>,
    last_error: Arc<Mutex<Option<WarehouseError>>>,
}

/// Events between `watermark` and the head of `source`'s binlog; after
/// an epoch rotation on the source (restore), the whole new generation.
/// The two locks are taken one after the other, never together.
fn lag_events(source: &SharedDatabase, watermark: &Mutex<LogPosition>) -> u64 {
    let position = *watermark.lock();
    let head = source.read().binlog_position();
    if head.epoch == position.epoch {
        head.seqno.saturating_sub(position.seqno)
    } else {
        head.seqno
    }
}

impl Link {
    /// Hold `replicator` as a link.
    pub fn new(replicator: Replicator) -> Self {
        Link {
            source: Arc::clone(&replicator.source),
            watermark: Arc::clone(&replicator.watermark),
            last_error: Arc::clone(&replicator.last_error),
            replicator: Mutex::new(replicator),
        }
    }

    /// [`Replicator::step`]. A panic inside the step is caught and
    /// becomes the step's failed outcome ([`WarehouseError::Io`] naming
    /// the link), kept in [`Link::last_error`] and recorded like any
    /// failure but with no retry, so one broken link never takes its
    /// driver down.
    pub fn step(&self, now: Instant) -> Step {
        let mut replicator = self.replicator.lock();
        let detail = match panic::catch_unwind(AssertUnwindSafe(|| replicator.step(now))) {
            Ok(step) => return step,
            Err(payload) => panic_detail(payload.as_ref()),
        };
        let link = &replicator.link_name;
        let e = WarehouseError::Io(format!("step of link {link} panicked: {detail}"));
        *self.last_error.lock() = Some(e.clone());
        replicator.record_failure(&e, None);
        Step {
            outcome: Err(e),
            resynced: false,
            retry_at: None,
        }
    }

    /// Run `f` on the replicator under the link's lock, so no step runs
    /// meanwhile: a resync, a lag sample, a new fault injector, or a
    /// restore of the link's source that must end seeked past itself.
    pub fn hold<T>(&self, f: impl FnOnce(&mut Replicator) -> T) -> T {
        f(&mut self.replicator.lock())
    }

    /// [`Replicator::lag_events`]: the link's own backlog, read whether
    /// or not telemetry is enabled. It takes no replicator lock; the
    /// watermark it reads advances event by event as a poll applies them.
    pub fn lag_events(&self) -> u64 {
        lag_events(&self.source, &self.watermark)
    }

    /// The error of the link's latest step, if it failed — whoever drove
    /// it. It takes no replicator lock.
    pub fn last_error(&self) -> Option<WarehouseError> {
        self.last_error.lock().clone()
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

    /// Capture the link's source schema and replay it on `hub` with
    /// replace semantics — a shipped database dump (§II-C2).
    fn replay_dump(src: &SharedDatabase, hub: &mut Database, link: &LinkConfig) -> ResyncReport {
        let schema = link.source_schema.clone();
        let image = Snapshot::capture_schemas(&src.read(), &[schema]).unwrap();
        replace(hub, image.events(), link).unwrap()
    }

    #[test]
    fn dump_honours_table_selection_and_resource_routing() {
        let src = satellite("xdmod_x", &["open", "secret", "open"]);
        let link = LinkConfig::renaming("xdmod_x", "hub_x").with_filter(
            ReplicationFilter::all()
                .with_tables(["jobfact"])
                .with_resource_column("jobfact", "resource")
                .exclude_resource("secret"),
        );
        let mut hub = Database::new();
        let report = replay_dump(&src, &mut hub, &link);
        // Rows after routing, not the image's 6.
        assert_eq!(report, ResyncReport { tables: 1, rows: 2 });
        assert!(hub.table("hub_x", "supremm_jobfact").is_err());
        let jobs = hub.table("hub_x", "jobfact").unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(jobs
            .rows()
            .unwrap()
            .iter()
            .all(|r| r[0] != Value::Str("secret".into())));
    }

    #[test]
    fn dump_shipping_replaces_not_duplicates() {
        let src = satellite("xdmod_x", &["comet"; 4]);
        let mut hub = Database::new();
        let link = LinkConfig::renaming("xdmod_x", "hub_x");
        assert_eq!(
            replay_dump(&src, &mut hub, &link),
            ResyncReport { tables: 2, rows: 8 }
        );
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 4);
        // Second periodic shipment (same data) replaces rather than
        // appending.
        replay_dump(&src, &mut hub, &link);
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 4);
        assert_eq!(
            hub.table("hub_x", "jobfact").unwrap().content_checksum(),
            src.read()
                .table("xdmod_x", "jobfact")
                .unwrap()
                .content_checksum()
        );
    }

    #[test]
    fn heterogeneous_federation_tight_plus_loose() {
        // Satellite X federates tight, satellite Y by shipped dumps, same
        // hub.
        let x = satellite("xdmod_x", &["comet"; 2]);
        let y = satellite("xdmod_y", &["gordon"; 3]);
        let hub = shared(Database::new());

        let mut tight = Replicator::new(
            x,
            Arc::clone(&hub),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        tight.poll().unwrap();
        let link = LinkConfig::renaming("xdmod_y", "hub_y");
        replay_dump(&y, &mut hub.write(), &link);

        let hub = hub.read();
        assert_eq!(hub.table("hub_x", "jobfact").unwrap().len(), 2);
        assert_eq!(hub.table("hub_y", "jobfact").unwrap().len(), 3);
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

    /// Insert one `comet` job row worth `v` CPU hours into `src`.
    fn insert(src: &SharedDatabase, v: f64) {
        src.write()
            .insert(
                "xdmod_x",
                "jobfact",
                vec![vec![Value::Str("comet".into()), Value::Float(v)]],
            )
            .unwrap();
    }

    #[test]
    fn live_link_streams_writes_between_steps() {
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let rep = Replicator::new(
            Arc::clone(&src),
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        );
        let link = Link::new(rep);
        let t0 = Instant::now();
        for i in 0..50u32 {
            insert(&src, f64::from(i));
            // A live interval of 1 ms, stepped every tenth write.
            if i % 10 == 9 {
                let step = link.step(t0 + Duration::from_millis(u64::from(i)));
                assert_eq!(step.retry_at, None);
            }
        }
        assert!(link.hold(|r| r.stats()).events_applied >= 52); // 50 inserts + DDL
        assert_eq!(link.lag_events(), 0);
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

    #[test]
    fn step_reports_per_link_counters_and_lag_gauge() {
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
        rep.step(Instant::now()).outcome.unwrap();
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
    fn live_link_sampled_but_not_stepped_shows_growing_lag_then_recovers() {
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
        let link = Link::new(rep);
        let t0 = Instant::now();
        let secs = Duration::from_secs;
        let gauge = |name| reg.snapshot().gauge(name, &[("link", "site-x")]);

        // The link catches up; then, as a paused schedule does, it is only
        // sampled while writes pile up as backlog...
        link.step(t0).outcome.unwrap();
        assert_eq!(gauge("replication_lag_events"), Some(0.0));
        for i in 0..5 {
            insert(&src, f64::from(i));
        }
        link.hold(|r| r.sample_lag(t0 + secs(1)));
        link.hold(|r| r.sample_lag(t0 + secs(3)));
        // ...and the samples report them: 5 events behind since the first
        // sample, 2 s of lag at the second, and a replication.lag series.
        assert_eq!(gauge("replication_lag_events"), Some(5.0));
        assert_eq!(gauge("replication_lag_seconds"), Some(2.0));
        let lag_events = reg.events_of_kind("replication.lag");
        assert!(lag_events
            .iter()
            .any(|e| e.message == "site-x" && e.field("lag_events") == Some(5.0)));

        // The next step drains the backlog and both gauges return to zero.
        assert_eq!(link.step(t0 + secs(4)).outcome, Ok(5));
        assert_eq!(gauge("replication_lag_events"), Some(0.0));
        assert_eq!(gauge("replication_lag_seconds"), Some(0.0));
        assert_eq!(dst.read().table("hub_x", "jobfact").unwrap().len(), 6);
    }

    #[test]
    fn apply_errors_are_surfaced_and_do_not_kill_the_link() {
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
        let link = Link::new(rep);
        // Each step at its retry fails again instead of giving up, and the
        // error is inspectable.
        let mut now = Instant::now();
        for _ in 0..3 {
            let step = link.step(now);
            assert!(step.outcome.is_err());
            now = step.retry_at.unwrap_or(now + Duration::from_secs(1));
        }
        assert_eq!(
            reg.snapshot()
                .counter("replication_apply_errors_total", &[("link", "site-x")]),
            Some(3)
        );
        assert!(link.last_error().is_some());
        assert!(!reg.events_of_kind("replication.error").is_empty());
        // The watermark never advanced past the failing event: only the
        // (idempotent) CreateSchema ahead of it ever applied.
        assert_eq!(link.hold(|r| r.stats()).events_applied, 1);
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
                                                   // The dropped record's row is still in the source table: polling
                                                   // cannot deliver it, so the link asks for a resync until one runs.
        assert!(rep.needs_resync());
        rep.resync_target().unwrap();
        assert!(!rep.needs_resync());
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
        assert!(!rep.needs_resync());
        // Lose the source binlog's tail record to a crash repair: the
        // watermark now points past the surviving log.
        {
            let mut s = src.write();
            s.truncate_binlog_tail(5);
            assert!(!s.repair_binlog().is_clean());
        }
        assert!(rep.needs_resync());
        // Polling cannot help a diverged link (a same-epoch beyond-tail
        // read is a silent empty batch); a table-copy resync can.
        let report = rep.resync_target().unwrap();
        assert_eq!(report.tables, 2);
        assert!(!rep.needs_resync());
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

    /// Ten fast retries with millisecond backoffs.
    fn fast_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
        }
    }

    #[test]
    fn a_polled_link_driven_by_step_records_its_outcome() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let reg = MetricsRegistry::new();
        // Two transient faults, then clear air; no schedule runs.
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
        .with_chaos(plan.injector(7))
        .with_retries(fast_retries());
        let live = Link::new(rep);
        let link = &[("link", "site-x")];
        let now = Instant::now();
        for failed in 1..=2 {
            let step = live.step(now);
            assert!(matches!(step.outcome, Err(WarehouseError::Io(_))));
            assert!(!step.resynced);
            // A failure asks for a backoff, not the interval.
            let Some(at) = step.retry_at else {
                panic!("step {failed} asked for no retry");
            };
            assert!(at > now && at <= now + Duration::from_millis(5));
            assert!(live.last_error().is_some());
            let snap = reg.snapshot();
            assert_eq!(
                snap.counter("replication_apply_errors_total", link),
                Some(failed)
            );
            // A retry counts when it runs: the second step is the first's.
            assert_eq!(
                snap.counter("replication_retries_total", link).unwrap_or(0),
                failed - 1
            );
        }
        // The next success, the second retry, clears the error and asks
        // for the interval.
        let step = live.step(now);
        assert!(step.outcome.unwrap() >= 4);
        assert_eq!(step.retry_at, None);
        assert_eq!(live.last_error(), None);
        assert_eq!(
            reg.snapshot().counter("replication_retries_total", link),
            Some(2)
        );
        assert!(dst.read().has_schema("hub_x"));
        // Every step sampled lag in both units.
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("replication_lag_events", link), Some(0.0));
        assert_eq!(snap.gauge("replication_lag_seconds", link), Some(0.0));
        assert_eq!(reg.events_of_kind("replication.error").len(), 2);
        assert_eq!(reg.events_of_kind("replication.retry").len(), 2);
        // While behind, the failed steps left a lag trail.
        assert!(!reg.events_of_kind("replication.lag").is_empty());
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
        .with_chaos(plan.injector(7))
        .with_retries(fast_retries());
        let link = Link::new(rep);
        // Step as a live schedule does: at each retry's instant while the
        // burst runs.
        let mut now = Instant::now();
        let mut planned = Vec::new();
        while let Some(at) = link.step(now).retry_at {
            planned.push(Some((at - now).as_millis() as f64));
            now = at;
        }
        // The faults were retried through, the data arrived, and — the
        // sticky-error fix — the recovered link reads as healthy again.
        assert!(dst.read().has_schema("hub_x"));
        assert_eq!(link.last_error(), None);
        assert!(link.hold(|r| r.stats()).events_applied >= 4);
        // Each of the two retries waited exactly its backoff.
        let waited: Vec<_> = reg
            .events_of_kind("replication.retry")
            .iter()
            .map(|e| e.field("waited_ms"))
            .collect();
        assert_eq!(waited.len(), 2);
        assert_eq!(waited, planned);
    }

    #[test]
    fn chaos_stall_defers_the_poll_instead_of_sleeping() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let src = satellite("xdmod_x", &["comet"]);
        let dst = shared(Database::new());
        let stall = FaultKind::Stall { millis: 300 };
        let plan = FaultPlan::new().with(FaultSpec::at_ops(FaultPoint::Transport, stall, &[1]));
        let injector = plan.injector(7);
        let rep = Replicator::new(
            src,
            Arc::clone(&dst),
            LinkConfig::renaming("xdmod_x", "hub_x"),
        )
        .with_chaos(injector.clone());
        let link = Link::new(rep);
        let t0 = Instant::now();
        // The stalled step reads nothing, fails nothing, and asks to run
        // again once the stall is over; it returns at once.
        let step = link.step(t0);
        assert!(t0.elapsed() < Duration::from_millis(100));
        assert_eq!(step.outcome, Ok(0));
        assert_eq!(step.retry_at, Some(t0 + Duration::from_millis(300)));
        assert_eq!(link.last_error(), None);
        assert!(link.lag_events() > 0);
        // The deferred poll consults the injector again, and applies.
        assert!(link.step(t0 + Duration::from_millis(300)).outcome.unwrap() >= 4);
        assert_eq!(link.lag_events(), 0);
        assert_eq!(injector.schedule().len(), 1);
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
        let none = RetryPolicy {
            max_attempts: 0,
            ..policy
        };
        let mut z = RetryState::new(none, "site-x");
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
        assert!(rep.needs_resync());
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
        assert!(!rep.needs_resync());
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
        let dump: Path = |src, hub, link| Some(replay_dump(src, &mut hub.write(), &link));
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
