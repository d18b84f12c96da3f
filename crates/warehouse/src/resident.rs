//! Cold-shard paging: the working-set residency manager.
//!
//! PR 8 made the warehouse durable; this module makes it *larger than
//! RAM*. Each paged table's rows are partitioned into day-bucket pages
//! (the PR 4 shard geometry). A process-wide [`ResidencyManager`]
//! enforces a byte budget over every page's in-memory footprint with a
//! clock / second-chance sweep: cold pages are spilled to CRC-framed
//! per-page files ([`crate::disk::spill`]) and transparently faulted
//! back in when a scan touches them.
//!
//! Residency state machine, per page:
//!
//! ```text
//!             evict (clock hand, unpinned, 2nd chance spent)
//!   Resident ------------------------------------------------> Spilled
//!      ^                                                          |
//!      |        fault-in (scan touches page; frame validates)     |
//!      +----------------------------------------------------------+
//!      ^                                                          |
//!      |   repair_paging (WAL replay)      frame corrupt/missing  v
//!      +---------------------------------------------------------Lost
//! ```
//!
//! `Faulting` is not a stored state: a fault-in happens *under the
//! page's mutex*, so concurrent scanners block on the lock and observe
//! either `Spilled` (and fault in themselves) or `Resident` — never a
//! half-read page.
//!
//! Three invariants carry the correctness argument:
//!
//! 1. **Pins.** A scan pins its page before touching it and the clock
//!    hand skips pinned pages, so an in-flight aggregation can never
//!    have its rows evicted underneath it. Serial scans pin one page at
//!    a time, hence resident bytes are bounded by *budget + one pinned
//!    page* even mid-query.
//! 2. **Spill files are caches.** Every row in a spill file is also in
//!    the write-ahead log (the database appends durably *before*
//!    mutating tables), so a corrupt or vanished spill file degrades the
//!    page to `Lost` and surfaces [`WarehouseError::SpillLost`] — wrong
//!    rows are never served, and
//!    [`crate::database::Database::repair_paging`] rebuilds losslessly.
//! 3. **Insertion never blocks on IO.** Inserts into a spilled page land
//!    in an in-memory *tail* (counted against the budget) and merge with
//!    the spilled body at the next fault-in; sequence numbers keep the
//!    merge order-exact. This keeps [`crate::table::Table::insert_checked`]
//!    infallible, which the WAL ordering contract requires.

use crate::disk::spill::{self, SpillMeta};
use crate::error::{Result, WarehouseError};
use crate::schema::TableSchema;
use crate::sync::Mutex;
use crate::table::{row_piece, CHECKSUM_SEED};
use crate::time::Period;
use crate::value::{ColumnType, Row, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use xdmod_chaos::FaultInjector;
use xdmod_telemetry::MetricsRegistry;

/// Folded into a lost page's checksum piece so replication consistency
/// checks report MISMATCH (and resync self-heals) instead of vouching
/// for rows we can no longer read.
const LOST_MARKER: u64 = 0x4C4F_5354_5041_4745; // "LOSTPAGE"

/// Configuration of the paging engine (the `storage.paging` stanza).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PagingConfig {
    /// Working-set budget in bytes. Resident bytes are held at or below
    /// this, except for at most one pinned page per in-flight scan.
    pub budget_bytes: u64,
    /// Pages per table (day buckets are folded onto this many pages).
    pub pages_per_table: u32,
    /// Directory spill files live in (a `spill/` subdirectory is used).
    pub spill_dir: PathBuf,
    /// Whether spill writes fsync before eviction completes.
    pub fsync: bool,
}

impl PagingConfig {
    /// Defaults: 256 MiB budget, 8 pages per table, no fsync.
    pub fn new(spill_dir: impl Into<PathBuf>) -> Self {
        PagingConfig {
            budget_bytes: 256 * 1024 * 1024,
            pages_per_table: 8,
            spill_dir: spill_dir.into(),
            fsync: false,
        }
    }

    /// Set the working-set byte budget.
    pub fn budget_bytes(mut self, bytes: u64) -> Self {
        self.budget_bytes = bytes;
        self
    }

    /// Set the page count per table.
    pub fn pages_per_table(mut self, pages: u32) -> Self {
        self.pages_per_table = pages.max(1);
        self
    }

    /// Set whether spill files are fsynced.
    pub fn fsync(mut self, yes: bool) -> Self {
        self.fsync = yes;
        self
    }

    /// The actual directory spill files are written to.
    pub fn spill_path(&self) -> PathBuf {
        self.spill_dir.join("spill")
    }
}

/// Point-in-time residency counters, surfaced through
/// [`crate::database::Database::residency_stats`] and the hub's
/// `ops_report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidencyStats {
    /// Configured working-set budget in bytes.
    pub budget_bytes: u64,
    /// Bytes currently resident (page bodies plus spilled-page tails).
    pub resident_bytes: u64,
    /// Pages whose rows are fully in memory.
    pub resident_pages: u64,
    /// Pages whose body lives in a spill file.
    pub spilled_pages: u64,
    /// Pages whose spill file failed validation (rebuild required).
    pub lost_pages: u64,
    /// Lifetime count of pages faulted back in.
    pub fault_ins: u64,
    /// Lifetime count of pages evicted to disk.
    pub evictions: u64,
    /// Lifetime count of spill files written.
    pub spill_writes: u64,
    /// Lifetime count of page pin acquisitions.
    pub pin_events: u64,
}

/// Deterministic approximation of a row's in-memory footprint: the enum
/// cells, string heap bytes, and per-row bookkeeping (sequence tag and
/// vec header). Used for budget accounting, not allocation.
pub fn approx_row_bytes(row: &Row) -> u64 {
    let mut bytes = (std::mem::size_of::<Value>() * row.len() + std::mem::size_of::<Row>()) as u64;
    for v in row {
        if let Value::Str(s) = v {
            bytes += s.len() as u64;
        }
    }
    bytes + 16
}

/// Storage state of one page.
enum PageState {
    /// All rows in memory, tagged with their insertion sequence.
    Resident {
        /// Rows with their global insertion sequence numbers.
        rows: Vec<(u64, Row)>,
        /// Approximate in-memory bytes of `rows`.
        bytes: u64,
        /// Sum of per-row checksum pieces.
        piece: u64,
    },
    /// Body on disk; later inserts staged in the in-memory tail.
    Spilled {
        /// Identity of the spill file holding the body.
        meta: SpillMeta,
        /// Approximate bytes the body will occupy once faulted in.
        bytes: u64,
        /// Checksum pieces of body + tail.
        piece: u64,
        /// Rows inserted since the spill (seqs all above the body's).
        tail: Vec<(u64, Row)>,
        /// Approximate in-memory bytes of the tail.
        tail_bytes: u64,
    },
    /// The spill file failed validation; only the tail survives in
    /// memory. Scans error with [`WarehouseError::SpillLost`] until a
    /// WAL rebuild replaces the store.
    Lost {
        /// Checksum pieces of (unreadable) body + tail.
        piece: u64,
        /// Rows inserted after the loss was discovered.
        tail: Vec<(u64, Row)>,
        /// Approximate in-memory bytes of the tail.
        tail_bytes: u64,
    },
}

/// One page of a paged table: a slot the clock hand sweeps over.
pub struct PageSlot {
    store_id: u64,
    page: u32,
    state: Mutex<PageState>,
    /// Scans in flight over this page; the clock hand skips pinned slots.
    pins: AtomicU32,
    /// Second-chance bit: set on every touch, cleared by the clock hand.
    referenced: AtomicBool,
    /// Spill generation, bumped per write so stale files never validate.
    gen: AtomicU64,
}

impl PageSlot {
    fn in_memory_bytes(state: &PageState) -> u64 {
        match state {
            PageState::Resident { bytes, .. } => *bytes,
            PageState::Spilled { tail_bytes, .. } | PageState::Lost { tail_bytes, .. } => {
                *tail_bytes
            }
        }
    }
}

/// Process-wide working-set accountant: owns the byte budget, the clock
/// ring of page slots, the spill directory, and the paging telemetry.
pub struct ResidencyManager {
    budget: AtomicU64,
    resident: AtomicU64,
    ring: Mutex<ClockRing>,
    dir: PathBuf,
    fsync: bool,
    next_store_id: AtomicU64,
    chaos: Mutex<Option<(FaultInjector, String)>>,
    telemetry: Mutex<MetricsRegistry>,
    fault_ins: AtomicU64,
    evictions: AtomicU64,
    spill_writes: AtomicU64,
    lost: AtomicU64,
    pin_events: AtomicU64,
}

struct ClockRing {
    slots: Vec<Weak<PageSlot>>,
    hand: usize,
}

impl ResidencyManager {
    /// A manager enforcing `config`'s budget over `config.spill_path()`.
    pub fn new(config: &PagingConfig, telemetry: MetricsRegistry) -> Arc<Self> {
        Arc::new(ResidencyManager {
            budget: AtomicU64::new(config.budget_bytes),
            resident: AtomicU64::new(0),
            ring: Mutex::new(ClockRing {
                slots: Vec::new(),
                hand: 0,
            }),
            dir: config.spill_path(),
            fsync: config.fsync,
            next_store_id: AtomicU64::new(1),
            chaos: Mutex::new(None),
            telemetry: Mutex::new(telemetry),
            fault_ins: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            spill_writes: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            pin_events: AtomicU64::new(0),
        })
    }

    /// Replace the working-set budget and immediately enforce it.
    pub fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::SeqCst);
        self.enforce();
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::SeqCst)
    }

    /// Bytes currently resident across every paged store.
    pub fn resident_bytes(&self) -> u64 {
        self.resident.load(Ordering::SeqCst)
    }

    /// Route spill-file chaos through this injector (the database's
    /// fault injector forwards here).
    pub fn set_chaos(&self, injector: FaultInjector, target: String) {
        *self.chaos.lock() = Some((injector, target));
    }

    /// Stop injecting spill faults.
    pub fn clear_chaos(&self) {
        *self.chaos.lock() = None;
    }

    /// Swap the telemetry registry paging metrics are recorded to.
    pub fn set_telemetry(&self, telemetry: MetricsRegistry) {
        *self.telemetry.lock() = telemetry;
    }

    fn chaos_pair(&self) -> Option<(FaultInjector, String)> {
        self.chaos.lock().clone()
    }

    fn telemetry_clone(&self) -> MetricsRegistry {
        self.telemetry.lock().clone()
    }

    fn note_resident_add(&self, bytes: u64) {
        self.resident.fetch_add(bytes, Ordering::SeqCst);
        self.publish_gauge();
    }

    fn note_resident_sub(&self, bytes: u64) {
        // Saturating: accounting drift must never wrap the gauge.
        let mut cur = self.resident.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .resident
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.publish_gauge();
    }

    fn publish_gauge(&self) {
        let reg = self.telemetry_clone();
        if reg.is_enabled() {
            reg.gauge("warehouse_resident_bytes", &[])
                .set(self.resident.load(Ordering::SeqCst) as f64);
        }
    }

    fn register_slot(&self, slot: &Arc<PageSlot>) {
        let mut ring = self.ring.lock();
        ring.slots.push(Arc::downgrade(slot));
    }

    /// Point-in-time residency counters. Walks every live slot; pages
    /// mid-scan are counted from whichever state the walk observes.
    pub fn stats(&self) -> ResidencyStats {
        let slots: Vec<Arc<PageSlot>> = {
            let mut ring = self.ring.lock();
            ring.slots.retain(|w| w.strong_count() > 0);
            ring.hand = if ring.slots.is_empty() {
                0
            } else {
                ring.hand % ring.slots.len()
            };
            ring.slots.iter().filter_map(Weak::upgrade).collect()
        };
        let mut stats = ResidencyStats {
            budget_bytes: self.budget(),
            resident_bytes: self.resident_bytes(),
            fault_ins: self.fault_ins.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
            spill_writes: self.spill_writes.load(Ordering::SeqCst),
            pin_events: self.pin_events.load(Ordering::SeqCst),
            ..ResidencyStats::default()
        };
        for slot in slots {
            match &*slot.state.lock() {
                PageState::Resident { .. } => stats.resident_pages += 1,
                PageState::Spilled { .. } => stats.spilled_pages += 1,
                PageState::Lost { .. } => stats.lost_pages += 1,
            }
        }
        stats
    }

    /// Clock / second-chance eviction: spill cold pages until resident
    /// bytes fit the budget or a full sweep finds only pinned, locked,
    /// referenced, or already-cold pages. The latter terminates scans
    /// with at most one pinned page over budget.
    pub fn enforce(&self) {
        let mut fruitless = 0usize;
        loop {
            if self.resident_bytes() <= self.budget() {
                return;
            }
            let (slot, ring_len) = {
                let mut ring = self.ring.lock();
                ring.slots.retain(|w| w.strong_count() > 0);
                let len = ring.slots.len();
                if len == 0 {
                    return;
                }
                ring.hand %= len;
                let slot = ring.slots[ring.hand].upgrade();
                ring.hand = (ring.hand + 1) % len;
                (slot, len)
            };
            // Two revolutions with no eviction: every page kept its second
            // chance or is pinned/locked/cold — nothing more to free.
            if fruitless > ring_len * 2 {
                return;
            }
            let Some(slot) = slot else {
                fruitless += 1;
                continue;
            };
            if slot.pins.load(Ordering::SeqCst) > 0 {
                fruitless += 1;
                continue;
            }
            if slot.referenced.swap(false, Ordering::SeqCst) {
                fruitless += 1;
                continue;
            }
            let Some(mut state) = slot.state.try_lock() else {
                fruitless += 1;
                continue;
            };
            let chaos = self.chaos_pair();
            let evicted = match &mut *state {
                PageState::Resident { rows, bytes, piece } if !rows.is_empty() => {
                    let gen = slot.gen.fetch_add(1, Ordering::SeqCst) + 1;
                    match spill::write_page(
                        &self.dir,
                        self.fsync,
                        chaos.as_ref(),
                        slot.store_id,
                        slot.page,
                        gen,
                        rows,
                    ) {
                        Ok(meta) => {
                            let freed = *bytes;
                            let piece = *piece;
                            *state = PageState::Spilled {
                                meta,
                                bytes: freed,
                                piece,
                                tail: Vec::new(),
                                tail_bytes: 0,
                            };
                            Some(freed)
                        }
                        // Loud spill failure (e.g. injected transient):
                        // the page stays resident; try other victims.
                        Err(_) => None,
                    }
                }
                // A spilled page whose tail accumulated staged inserts:
                // merge body + tail into a fresh spill file so the staged
                // bytes stop counting against the budget. Tail sequence
                // numbers always exceed the body's, so concatenation
                // preserves insertion order.
                PageState::Spilled {
                    meta,
                    bytes,
                    piece,
                    tail,
                    tail_bytes,
                } if !tail.is_empty() => {
                    // The table name only labels the (discarded) error.
                    match spill::read_page(meta, "", chaos.as_ref()) {
                        Ok(mut merged) => {
                            merged.extend(tail.iter().cloned());
                            let gen = slot.gen.fetch_add(1, Ordering::SeqCst) + 1;
                            match spill::write_page(
                                &self.dir,
                                self.fsync,
                                chaos.as_ref(),
                                slot.store_id,
                                slot.page,
                                gen,
                                &merged,
                            ) {
                                Ok(new_meta) => {
                                    let old = meta.clone();
                                    let freed = *tail_bytes;
                                    *state = PageState::Spilled {
                                        meta: new_meta,
                                        bytes: bytes.saturating_add(freed),
                                        piece: *piece,
                                        tail: Vec::new(),
                                        tail_bytes: 0,
                                    };
                                    spill::remove(&old);
                                    Some(freed)
                                }
                                Err(_) => None,
                            }
                        }
                        // Unreadable body (fault injection or damage):
                        // the tail can't be merged without losing rows;
                        // the scan path will settle the page's fate.
                        Err(_) => None,
                    }
                }
                _ => None,
            };
            drop(state);
            match evicted {
                Some(freed) => {
                    self.note_resident_sub(freed);
                    self.evictions.fetch_add(1, Ordering::SeqCst);
                    self.spill_writes.fetch_add(1, Ordering::SeqCst);
                    let reg = self.telemetry_clone();
                    if reg.is_enabled() {
                        reg.counter("warehouse_page_evictions_total", &[]).inc();
                        reg.counter("warehouse_page_spill_writes_total", &[]).inc();
                    }
                    fruitless = 0;
                }
                None => {
                    fruitless += 1;
                }
            }
        }
    }
}

/// Paged row storage for one table: a fixed vector of page slots routed
/// by day bucket, sharing a [`ResidencyManager`].
pub struct PagedStore {
    table: String,
    store_id: u64,
    time_idx: Option<usize>,
    page_count: u32,
    slots: Vec<Arc<PageSlot>>,
    next_seq: AtomicU64,
    total_rows: AtomicU64,
    manager: Arc<ResidencyManager>,
}

impl std::fmt::Debug for PagedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedStore")
            .field("table", &self.table)
            .field("store_id", &self.store_id)
            .field("pages", &self.page_count)
            .field("rows", &self.total_rows.load(Ordering::SeqCst))
            .finish()
    }
}

impl PagedStore {
    /// An empty paged store for `schema`, with `pages` slots. Routing
    /// uses the schema's first `Time` column (day buckets); tables
    /// without one stripe rows round-robin by insertion sequence.
    pub fn new(manager: Arc<ResidencyManager>, schema: &TableSchema, pages: u32) -> Arc<Self> {
        let page_count = pages.max(1);
        let store_id = manager.next_store_id.fetch_add(1, Ordering::SeqCst);
        let time_idx = schema.columns.iter().position(|c| c.ty == ColumnType::Time);
        let slots: Vec<Arc<PageSlot>> = (0..page_count)
            .map(|page| {
                Arc::new(PageSlot {
                    store_id,
                    page,
                    state: Mutex::new(PageState::Resident {
                        rows: Vec::new(),
                        bytes: 0,
                        piece: 0,
                    }),
                    pins: AtomicU32::new(0),
                    referenced: AtomicBool::new(false),
                    gen: AtomicU64::new(0),
                })
            })
            .collect();
        for slot in &slots {
            manager.register_slot(slot);
        }
        Arc::new(PagedStore {
            table: schema.name.clone(),
            store_id,
            time_idx,
            page_count,
            slots,
            next_seq: AtomicU64::new(0),
            total_rows: AtomicU64::new(0),
            manager,
        })
    }

    /// Convert existing dense rows into a paged store (in-memory only;
    /// the manager's next `enforce` spills whatever exceeds the budget).
    pub fn from_rows(
        manager: Arc<ResidencyManager>,
        schema: &TableSchema,
        rows: Vec<Row>,
        pages: u32,
    ) -> Arc<Self> {
        let store = PagedStore::new(manager, schema, pages);
        store.insert(rows);
        store
    }

    /// The table this store backs.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// The shared residency manager.
    pub fn manager(&self) -> &Arc<ResidencyManager> {
        &self.manager
    }

    /// Number of pages.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// Total rows across all pages (resident, spilled, and lost alike).
    pub fn len(&self) -> usize {
        self.total_rows.load(Ordering::SeqCst) as usize
    }

    /// True if the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn page_of(&self, row: &Row, seq: u64) -> usize {
        match self.time_idx {
            // Mirrors `parallel::shard_of`: same-day rows share a page,
            // NULL times collect on page 0.
            Some(idx) => match row.get(idx).and_then(Value::as_i64) {
                Some(t) => Period::Day
                    .bucket_of(t)
                    .rem_euclid(i64::from(self.page_count)) as usize,
                None => 0,
            },
            None => (seq % u64::from(self.page_count)) as usize,
        }
    }

    /// Append already-validated rows. Infallible by design: rows landing
    /// on a spilled or lost page are staged in its in-memory tail, so
    /// the WAL ordering contract (durable append, then mutation that
    /// cannot fail) holds for paged tables too.
    pub fn insert(&self, rows: Vec<Row>) {
        if rows.is_empty() {
            return;
        }
        let mut added = 0u64;
        for row in rows {
            let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
            let page = self.page_of(&row, seq);
            // Maintained per page so the table's checksum never needs to
            // fault anything in.
            let piece_add = row_piece(&row);
            let row_bytes = approx_row_bytes(&row);
            let slot = &self.slots[page];
            slot.referenced.store(true, Ordering::SeqCst);
            let mut state = slot.state.lock();
            match &mut *state {
                PageState::Resident { rows, bytes, piece } => {
                    rows.push((seq, row));
                    *bytes += row_bytes;
                    *piece = piece.wrapping_add(piece_add);
                }
                PageState::Spilled {
                    tail,
                    tail_bytes,
                    piece,
                    ..
                }
                | PageState::Lost {
                    tail,
                    tail_bytes,
                    piece,
                    ..
                } => {
                    tail.push((seq, row));
                    *tail_bytes += row_bytes;
                    *piece = piece.wrapping_add(piece_add);
                }
            }
            drop(state);
            added += row_bytes;
            self.total_rows.fetch_add(1, Ordering::SeqCst);
        }
        self.manager.note_resident_add(added);
        self.manager.enforce();
    }

    /// Drop all rows, delete this store's spill files, and reset the
    /// sequence counter. Used by `truncate` and by replication resync,
    /// which rewrites tables wholesale — stale spill files must never
    /// survive a rewrite.
    pub fn truncate(&self) {
        let mut freed = 0u64;
        for slot in &self.slots {
            let mut state = slot.state.lock();
            freed += PageSlot::in_memory_bytes(&state);
            if let PageState::Spilled { meta, .. } = &*state {
                spill::remove(meta);
            }
            *state = PageState::Resident {
                rows: Vec::new(),
                bytes: 0,
                piece: 0,
            };
        }
        self.next_seq.store(0, Ordering::SeqCst);
        self.total_rows.store(0, Ordering::SeqCst);
        self.manager.note_resident_sub(freed);
    }

    /// Order-independent content checksum, identical to the dense
    /// algorithm for the same rows. Pure arithmetic over incrementally
    /// maintained per-page pieces — spilled pages are *not* faulted in.
    /// Lost pages fold [`LOST_MARKER`] so the checksum visibly diverges
    /// and replication consistency checks trigger a healing resync.
    pub fn content_checksum(&self) -> u64 {
        let mut acc = CHECKSUM_SEED ^ self.total_rows.load(Ordering::SeqCst);
        for slot in &self.slots {
            let state = slot.state.lock();
            let piece = match &*state {
                PageState::Resident { piece, .. } | PageState::Spilled { piece, .. } => *piece,
                PageState::Lost { piece, .. } => *piece ^ LOST_MARKER,
            };
            acc = acc.wrapping_add(piece);
        }
        acc
    }

    /// True if any page is `Lost` (a WAL rebuild is needed).
    pub fn has_lost_pages(&self) -> bool {
        self.slots
            .iter()
            .any(|s| matches!(&*s.state.lock(), PageState::Lost { .. }))
    }

    /// Fault the page in if needed and return its rows. Caller holds the
    /// slot's state lock. On success the page is `Resident`.
    fn ensure_resident(&self, slot: &Arc<PageSlot>, state: &mut PageState) -> Result<()> {
        match state {
            PageState::Resident { .. } => Ok(()),
            PageState::Lost { .. } => Err(WarehouseError::SpillLost {
                table: self.table.clone(),
                page: slot.page,
            }),
            PageState::Spilled {
                meta,
                bytes,
                piece,
                tail,
                tail_bytes,
            } => {
                let chaos = self.manager.chaos_pair();
                let reg = self.manager.telemetry_clone();
                let span = reg.span(
                    "warehouse_page_faultin_seconds",
                    &[("table", self.table.as_str())],
                );
                match spill::read_page(meta, &self.table, chaos.as_ref()) {
                    Ok(mut rows) => {
                        span.finish();
                        spill::remove(meta);
                        // Tail seqs all postdate the spilled body's, so
                        // appending preserves global sequence order.
                        rows.append(tail);
                        let body_bytes = *bytes;
                        let total_bytes = body_bytes + *tail_bytes;
                        *state = PageState::Resident {
                            rows,
                            bytes: total_bytes,
                            piece: *piece,
                        };
                        self.manager.note_resident_add(body_bytes);
                        self.manager.fault_ins.fetch_add(1, Ordering::SeqCst);
                        if reg.is_enabled() {
                            reg.counter("warehouse_page_faultins_total", &[]).inc();
                        }
                        Ok(())
                    }
                    Err(WarehouseError::SpillLost { table, page }) => {
                        span.finish();
                        let piece = *piece;
                        let tail = std::mem::take(tail);
                        let tail_bytes = *tail_bytes;
                        spill::remove(meta);
                        *state = PageState::Lost {
                            piece,
                            tail,
                            tail_bytes,
                        };
                        self.manager.lost.fetch_add(1, Ordering::SeqCst);
                        if reg.is_enabled() {
                            reg.counter("warehouse_page_spill_lost_total", &[]).inc();
                        }
                        Err(WarehouseError::SpillLost { table, page })
                    }
                    // Loud transient failure: the page stays Spilled and
                    // the file intact — a retry can fault it in.
                    Err(e) => {
                        span.finish();
                        Err(e)
                    }
                }
            }
        }
    }

    /// Scan pages in page order, faulting each in on demand and calling
    /// `f` with its `(sequence, row)` pairs. The page is pinned and its
    /// lock held for the duration of its callback, so eviction can never
    /// pull rows out from under the fold; the budget is re-enforced
    /// after each page, so a full scan keeps at most *budget + one
    /// pinned page* resident.
    pub fn scan_pages(&self, f: &mut dyn FnMut(&[(u64, Row)]) -> Result<()>) -> Result<()> {
        for slot in &self.slots {
            slot.pins.fetch_add(1, Ordering::SeqCst);
            self.manager.pin_events.fetch_add(1, Ordering::SeqCst);
            slot.referenced.store(true, Ordering::SeqCst);
            let reg = self.manager.telemetry_clone();
            if reg.is_enabled() {
                reg.counter("warehouse_page_pins_total", &[]).inc();
            }
            let result = (|| {
                let mut state = slot.state.lock();
                self.ensure_resident(slot, &mut state)?;
                match &*state {
                    PageState::Resident { rows, .. } => f(rows),
                    // ensure_resident returned Ok, so the page is Resident.
                    _ => Err(WarehouseError::SpillLost {
                        table: self.table.clone(),
                        page: slot.page,
                    }),
                }
            })();
            slot.pins.fetch_sub(1, Ordering::SeqCst);
            result?;
            self.manager.enforce();
        }
        Ok(())
    }

    /// Materialize every row in insertion order (the unbounded path used
    /// by whole-table reads). Faults
    /// in all pages; resident bytes may exceed the budget for the
    /// duration of the returned vector's life.
    pub fn materialize(&self) -> Result<Vec<Row>> {
        let mut tagged: Vec<(u64, Row)> = Vec::with_capacity(self.len());
        self.scan_pages(&mut |rows| {
            tagged.extend_from_slice(rows);
            Ok(())
        })?;
        tagged.sort_unstable_by_key(|(seq, _)| *seq);
        Ok(tagged.into_iter().map(|(_, row)| row).collect())
    }
}

impl Drop for PagedStore {
    fn drop(&mut self) {
        // Spill files are caches keyed by a store id that is never
        // reused; delete them so a dropped table (restore, resync,
        // shutdown) leaves nothing stale behind.
        let mut freed = 0u64;
        for slot in &self.slots {
            let state = slot.state.lock();
            freed += PageSlot::in_memory_bytes(&state);
            if let PageState::Spilled { meta, .. } = &*state {
                spill::remove(meta);
            }
        }
        self.manager.note_resident_sub(freed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_cfg(tag: &str) -> PagingConfig {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("xdmod-resident-{}-{tag}-{n}", std::process::id()));
        PagingConfig::new(dir)
    }

    fn schema() -> TableSchema {
        SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .required("end_time", ColumnType::Time)
            .required("cpu_hours", ColumnType::Float)
            .build()
            .unwrap()
    }

    fn row(res: &str, day: i64, hours: f64) -> Row {
        vec![
            Value::Str(res.into()),
            Value::Time(day * 86_400 + 3600),
            Value::Float(hours),
        ]
    }

    fn sample_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| row(&format!("res-{}", i % 3), i as i64 % 11, i as f64 / 4.0))
            .collect()
    }

    fn cleanup(cfg: &PagingConfig) {
        let _ = std::fs::remove_dir_all(&cfg.spill_dir);
    }

    #[test]
    fn insert_scan_materialize_round_trip() {
        let cfg = temp_cfg("roundtrip");
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let rows = sample_rows(40);
        let store = PagedStore::from_rows(mgr, &schema(), rows.clone(), 4);
        assert_eq!(store.len(), 40);
        assert_eq!(store.materialize().unwrap(), rows);
        cleanup(&cfg);
    }

    #[test]
    fn eviction_bounds_resident_bytes_and_fault_in_restores() {
        let cfg = temp_cfg("evict").budget_bytes(1);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let rows = sample_rows(60);
        let store = PagedStore::from_rows(mgr.clone(), &schema(), rows.clone(), 6);
        // A 1-byte budget forces everything out.
        assert_eq!(mgr.resident_bytes(), 0, "all pages should spill");
        let stats = mgr.stats();
        assert_eq!(stats.resident_pages + stats.spilled_pages, 6);
        assert!(stats.spilled_pages >= 5);
        assert!(stats.evictions >= stats.spilled_pages);
        // Rows come back intact, in insertion order.
        assert_eq!(store.materialize().unwrap(), rows);
        assert!(mgr.stats().fault_ins >= 5);
        cleanup(&cfg);
    }

    #[test]
    fn checksum_matches_dense_twin_through_spill_cycles() {
        let cfg = temp_cfg("checksum").budget_bytes(1);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let rows = sample_rows(30);
        let mut dense = crate::table::Table::new(schema());
        dense.insert_checked(rows.clone());
        let store = PagedStore::from_rows(mgr, &schema(), rows, 3);
        assert_eq!(store.content_checksum(), dense.content_checksum());
        // Faulting in and re-spilling must not disturb the checksum.
        store.materialize().unwrap();
        assert_eq!(store.content_checksum(), dense.content_checksum());
        cleanup(&cfg);
    }

    #[test]
    fn inserts_into_spilled_pages_stage_in_tail_and_merge_in_order() {
        let cfg = temp_cfg("tail").budget_bytes(1);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let first = sample_rows(20);
        let store = PagedStore::from_rows(mgr.clone(), &schema(), first.clone(), 4);
        assert!(mgr.stats().spilled_pages > 0);
        // These land in spilled pages' tails without any fault-in.
        let fault_ins_before = mgr.stats().fault_ins;
        let second = sample_rows(10);
        store.insert(second.clone());
        assert_eq!(mgr.stats().fault_ins, fault_ins_before);
        let mut expect = first;
        expect.extend(second);
        assert_eq!(store.materialize().unwrap(), expect);
        cleanup(&cfg);
    }

    #[test]
    fn staged_tails_are_merge_evicted_to_keep_the_budget() {
        let cfg = temp_cfg("tailmerge").budget_bytes(1);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let mut expect = sample_rows(12);
        let store = PagedStore::from_rows(mgr.clone(), &schema(), expect.clone(), 3);
        assert!(mgr.stats().spilled_pages > 0);
        // Repeated inserts land in spilled pages' tails; enforce must
        // merge the staged rows into fresh spill files so tail bytes
        // never accumulate past the budget.
        for _ in 0..5 {
            let batch = sample_rows(8);
            store.insert(batch.clone());
            expect.extend(batch);
            assert_eq!(
                mgr.resident_bytes(),
                0,
                "staged tails must be merge-evicted back under the budget"
            );
        }
        assert_eq!(store.len(), expect.len());
        assert_eq!(store.materialize().unwrap(), expect);
        // The dense twin still agrees through all the merge cycles.
        let mut dense = crate::table::Table::new(schema());
        dense.insert_batch(expect).unwrap();
        assert_eq!(store.content_checksum(), dense.content_checksum());
        cleanup(&cfg);
    }

    #[test]
    fn truncate_resets_rows_checksum_and_spill_files() {
        let cfg = temp_cfg("truncate").budget_bytes(1);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let store = PagedStore::from_rows(mgr.clone(), &schema(), sample_rows(25), 5);
        store.truncate();
        assert_eq!(store.len(), 0);
        assert_eq!(mgr.resident_bytes(), 0);
        assert_eq!(
            store.content_checksum(),
            crate::table::Table::new(schema()).content_checksum()
        );
        assert!(store.materialize().unwrap().is_empty());
        // No spill files left behind.
        let leftover = std::fs::read_dir(cfg.spill_path())
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(leftover, 0);
        cleanup(&cfg);
    }

    #[test]
    fn drop_removes_spill_files_and_releases_budget() {
        let cfg = temp_cfg("drop").budget_bytes(1);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let store = PagedStore::from_rows(mgr.clone(), &schema(), sample_rows(25), 5);
        assert!(mgr.stats().spilled_pages > 0);
        drop(store);
        assert_eq!(mgr.resident_bytes(), 0);
        let leftover = std::fs::read_dir(cfg.spill_path())
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(leftover, 0);
        cleanup(&cfg);
    }

    #[test]
    fn raising_the_budget_stops_eviction() {
        let cfg = temp_cfg("budget").budget_bytes(1 << 30);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let store = PagedStore::from_rows(mgr.clone(), &schema(), sample_rows(40), 4);
        assert_eq!(mgr.stats().spilled_pages, 0);
        // Shrink: pages spill. Re-raise: they stay spilled until touched.
        mgr.set_budget(1);
        assert!(mgr.stats().spilled_pages > 0);
        mgr.set_budget(1 << 30);
        store.materialize().unwrap();
        assert_eq!(mgr.stats().spilled_pages, 0);
        cleanup(&cfg);
    }

    #[test]
    fn corrupt_spill_file_is_lost_not_wrong() {
        let cfg = temp_cfg("lost").budget_bytes(1);
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let store = PagedStore::from_rows(mgr.clone(), &schema(), sample_rows(20), 2);
        assert!(mgr.stats().spilled_pages > 0);
        // Damage every spill file on disk.
        for entry in std::fs::read_dir(cfg.spill_path()).unwrap() {
            let path = entry.unwrap().path();
            let mut data = std::fs::read(&path).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0xFF;
            std::fs::write(&path, &data).unwrap();
        }
        let err = store.materialize().unwrap_err();
        assert!(matches!(err, WarehouseError::SpillLost { .. }), "{err}");
        assert!(store.has_lost_pages());
        assert!(mgr.stats().lost_pages > 0);
        // The checksum diverges from the healthy twin, so replication
        // consistency checks see MISMATCH and resync heals the table.
        let mut dense = crate::table::Table::new(schema());
        dense.insert_checked(sample_rows(20));
        assert_ne!(store.content_checksum(), dense.content_checksum());
        cleanup(&cfg);
    }

    #[test]
    fn no_time_column_stripes_by_sequence() {
        let cfg = temp_cfg("notime");
        let mgr = ResidencyManager::new(&cfg, MetricsRegistry::disabled());
        let schema = SchemaBuilder::new("dim")
            .required("name", ColumnType::Str)
            .build()
            .unwrap();
        let rows: Vec<Row> = (0..10).map(|i| vec![Value::Str(format!("n{i}"))]).collect();
        let store = PagedStore::from_rows(mgr, &schema, rows.clone(), 3);
        assert_eq!(store.materialize().unwrap(), rows);
        cleanup(&cfg);
    }
}
