//! `xdmod-chaos` — deterministic, seeded fault injection for the
//! federation stack.
//!
//! A production federation must survive flaky satellites: transient I/O
//! errors, stalled transports, truncated or bit-flipped binlog tails
//! after a crash, and links that die permanently. This crate provides
//! the *adversary*: a [`FaultPlan`] describes which [`FaultKind`]s fire
//! at which [`FaultPoint`]s (on an op-count schedule, every Nth op, or
//! with a probability), and [`FaultPlan::injector`] compiles it into a
//! [`FaultInjector`] whose entire behaviour — including every
//! probabilistic draw — is reproducible from a single `u64` seed.
//!
//! The injector is a cheap-clone handle (an `Arc`), `Send + Sync`, and
//! is consulted from the warehouse binlog reader, the replication
//! transport, and the schema-apply path. When the consuming call sites
//! are driven in a deterministic order (single-threaded polling, as the
//! chaos integration tests do), two runs with the same seed and plan
//! produce a byte-identical fault schedule ([`FaultInjector::schedule_text`])
//! and therefore identical post-recovery state.
//!
//! ```
//! use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
//!
//! let plan = FaultPlan::new()
//!     .with(FaultSpec::every(FaultPoint::Transport, FaultKind::Transient, 3).for_target("link-a"))
//!     .with(FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[7]).for_target("link-c"));
//! let injector = plan.injector(42);
//! assert_eq!(injector.next_fault(FaultPoint::Transport, "link-a"), None); // op 1
//! assert_eq!(injector.next_fault(FaultPoint::Transport, "link-a"), None); // op 2
//! assert_eq!(
//!     injector.next_fault(FaultPoint::Transport, "link-a"),
//!     Some(FaultKind::Transient) // op 3
//! );
//! ```

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// A small, fast, seedable PRNG (SplitMix64). Not cryptographic — the
/// point is *reproducibility*: the same seed always yields the same
/// stream, on every platform, with no global state.
///
/// Also used by the replication retry policy for decorrelated jitter,
/// so that backoff sequences are reproducible in tests.
#[derive(Debug, Clone)]
pub struct DeterministicRng {
    state: u64,
}

impl DeterministicRng {
    /// Create a generator from a seed. Equal seeds ⇒ equal streams.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in the half-open range `[lo, hi)`. Returns `lo`
    /// when the range is empty. (Modulo bias is irrelevant at chaos
    /// scale and keeps the implementation obviously portable.)
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }
}

/// Where in the stack a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultPoint {
    /// Reading the source warehouse's binary log (`Database::binlog_after`).
    BinlogRead,
    /// The replication link's transport (`Replicator::poll`).
    Transport,
    /// Applying a replicated event to the target (`Database::apply_event`).
    Apply,
    /// The gateway's accept loop taking a connection off the listener.
    Accept,
    /// The gateway reading a request off an accepted socket.
    SocketRead,
    /// The disk storage backend appending a frame to the active binlog
    /// segment file (`DiskBackend::append`).
    SegmentAppend,
    /// The disk storage backend writing a snapshot file
    /// (`DiskBackend::write_snapshot`).
    SnapshotWrite,
    /// The paging engine spilling a cold page to its per-shard spill file
    /// (`SpillFile::write`).
    SpillWrite,
    /// The paging engine reading a spilled page back in on the query path
    /// (`SpillFile::read`).
    SpillRead,
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultPoint::BinlogRead => "binlog-read",
            FaultPoint::Transport => "transport",
            FaultPoint::Apply => "apply",
            FaultPoint::Accept => "accept",
            FaultPoint::SocketRead => "socket-read",
            FaultPoint::SegmentAppend => "segment-append",
            FaultPoint::SnapshotWrite => "snapshot-write",
            FaultPoint::SpillWrite => "spill-write",
            FaultPoint::SpillRead => "spill-read",
        })
    }
}

/// What kind of fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient I/O error: the operation fails once and a retry may
    /// succeed.
    Transient,
    /// The operation stalls for the given number of milliseconds, then
    /// proceeds normally.
    Stall {
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Permanent link loss: once fired for a target, *every* subsequent
    /// consultation for that target reports the link down.
    LinkDown,
    /// Flip one byte inside the last binlog frame (simulated disk
    /// corruption); the next CRC-checked read detects it.
    CorruptTailByte,
    /// Chop raw bytes off the binlog tail (simulated torn write /
    /// crash mid-append).
    TruncateTail {
        /// How many raw bytes to remove from the end of the log.
        bytes: u64,
    },
    /// The write appears to succeed but the fsync is silently dropped:
    /// the whole record vanishes on "crash" (contrast with
    /// [`FaultKind::TruncateTail`], which leaves a partial record).
    DropFsync,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Transient => f.write_str("transient"),
            FaultKind::Stall { millis } => write!(f, "stall({millis}ms)"),
            FaultKind::LinkDown => f.write_str("link-down"),
            FaultKind::CorruptTailByte => f.write_str("corrupt-tail-byte"),
            FaultKind::TruncateTail { bytes } => write!(f, "truncate-tail({bytes}B)"),
            FaultKind::DropFsync => f.write_str("drop-fsync"),
        }
    }
}

/// When a [`FaultSpec`] fires, relative to the per-`(point, target)`
/// operation counter (1-based).
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Fire exactly at these operation counts.
    AtOps(Vec<u64>),
    /// Fire on every Nth operation (`count % n == 0`). `n == 0` never
    /// fires.
    EveryNth(u64),
    /// Fire with this probability on each operation, drawn from the
    /// injector's seeded RNG.
    WithProbability(f64),
}

/// One fault rule: a kind, an injection point, a trigger, and optional
/// target/budget restrictions.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    kind: FaultKind,
    point: FaultPoint,
    trigger: Trigger,
    target: Option<String>,
    budget: Option<u64>,
}

impl FaultSpec {
    /// Fire `kind` at `point` exactly at the given (1-based) op counts.
    pub fn at_ops(point: FaultPoint, kind: FaultKind, ops: &[u64]) -> Self {
        Self {
            kind,
            point,
            trigger: Trigger::AtOps(ops.to_vec()),
            target: None,
            budget: None,
        }
    }

    /// Fire `kind` at `point` on every `n`th op.
    pub fn every(point: FaultPoint, kind: FaultKind, n: u64) -> Self {
        Self {
            kind,
            point,
            trigger: Trigger::EveryNth(n),
            target: None,
            budget: None,
        }
    }

    /// Fire `kind` at `point` with probability `p` per op.
    pub fn with_probability(point: FaultPoint, kind: FaultKind, p: f64) -> Self {
        Self {
            kind,
            point,
            trigger: Trigger::WithProbability(p),
            target: None,
            budget: None,
        }
    }

    /// Restrict this spec to one target label (e.g. a link name).
    /// Unrestricted specs match every target.
    pub fn for_target(mut self, target: impl Into<String>) -> Self {
        self.target = Some(target.into());
        self
    }

    /// Cap the total number of times this spec may fire.
    pub fn with_budget(mut self, n: u64) -> Self {
        self.budget = Some(n);
        self
    }

    /// The fault this spec injects.
    pub fn kind(&self) -> FaultKind {
        self.kind
    }

    /// The injection point this spec applies to.
    pub fn point(&self) -> FaultPoint {
        self.point
    }
}

/// A declarative set of [`FaultSpec`]s. Compile into a live injector
/// with [`FaultPlan::injector`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: add a spec.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Add a spec in place.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// The specs in evaluation order (first match wins per op).
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Compile the plan into a live, thread-safe injector whose entire
    /// behaviour is reproducible from `seed`.
    pub fn injector(&self, seed: u64) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                state: Mutex::new(InjectorState {
                    rng: DeterministicRng::new(seed),
                    specs: self.specs.iter().cloned().map(|s| (s, 0)).collect(),
                    counts: BTreeMap::new(),
                    down: BTreeSet::new(),
                    log: Vec::new(),
                }),
            }),
        }
    }
}

/// One fired fault, as recorded in the injector's schedule log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// 1-based global sequence number of this firing.
    pub seq: u64,
    /// The per-`(point, target)` operation count at which it fired.
    pub op: u64,
    /// Where it fired.
    pub point: FaultPoint,
    /// The target label the consultation carried.
    pub target: String,
    /// What fired.
    pub kind: FaultKind,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} {}[{}] op {}: {}",
            self.seq, self.point, self.target, self.op, self.kind
        )
    }
}

struct InjectorInner {
    state: Mutex<InjectorState>,
}

struct InjectorState {
    rng: DeterministicRng,
    /// Each spec paired with its fired-so-far count (for budgets).
    specs: Vec<(FaultSpec, u64)>,
    /// Per-`(point, target)` operation counters, keyed by point and then
    /// by target, so a target already seen is found by `&str`.
    counts: BTreeMap<FaultPoint, BTreeMap<String, u64>>,
    /// Targets for which a `LinkDown` has fired (permanent).
    down: BTreeSet<String>,
    /// Every fault fired, in order.
    log: Vec<FaultRecord>,
}

/// A live fault injector: cheap to clone (`Arc` handle), `Send + Sync`,
/// consulted by the warehouse/replication layers via
/// [`FaultInjector::next_fault`].
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.lock();
        f.debug_struct("FaultInjector")
            .field("fired", &state.log.len())
            .field("down", &state.down)
            .finish()
    }
}

impl FaultInjector {
    fn lock(&self) -> std::sync::MutexGuard<'_, InjectorState> {
        // The injector's state stays valid under interruption (counters
        // and a log), so poisoning is recovered, never propagated.
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Consult the injector at an injection point. Increments the
    /// `(point, target)` op counter and returns the fault to inject for
    /// this operation, if any. Once a [`FaultKind::LinkDown`] has fired
    /// for a target, every later consultation for that target returns
    /// `LinkDown` (without advancing counters or extending the log, so
    /// schedules stay finite and comparable).
    pub fn next_fault(&self, point: FaultPoint, target: &str) -> Option<FaultKind> {
        let mut state = self.lock();
        if state.down.contains(target) {
            return Some(FaultKind::LinkDown);
        }
        let targets = state.counts.entry(point).or_default();
        let op = match targets.get_mut(target) {
            Some(count) => {
                *count += 1;
                *count
            }
            None => {
                targets.insert(target.to_owned(), 1);
                1
            }
        };
        for idx in 0..state.specs.len() {
            let (spec, fired) = &state.specs[idx];
            let fired = *fired;
            if spec.point != point {
                continue;
            }
            if let Some(t) = &spec.target {
                if t != target {
                    continue;
                }
            }
            if spec.budget.is_some_and(|b| fired >= b) {
                continue;
            }
            let hit = match &spec.trigger {
                Trigger::AtOps(ops) => ops.contains(&op),
                // `0.is_multiple_of(0)` holds: without the guard `EveryNth(0)`
                // would fire at op 0.
                Trigger::EveryNth(n) => *n > 0 && op.is_multiple_of(*n),
                Trigger::WithProbability(p) => {
                    let p = *p;
                    state.rng.next_f64() < p
                }
            };
            if hit {
                let kind = state.specs[idx].0.kind;
                state.specs[idx].1 += 1;
                let seq = state.log.len() as u64 + 1;
                state.log.push(FaultRecord {
                    seq,
                    op,
                    point,
                    target: target.to_owned(),
                    kind,
                });
                if kind == FaultKind::LinkDown {
                    state.down.insert(target.to_owned());
                }
                return Some(kind);
            }
        }
        None
    }

    /// Whether a permanent `LinkDown` has fired for `target`.
    pub fn is_down(&self, target: &str) -> bool {
        self.lock().down.contains(target)
    }

    /// How many times `(point, target)` has been consulted.
    pub fn op_count(&self, point: FaultPoint, target: &str) -> u64 {
        self.lock()
            .counts
            .get(&point)
            .and_then(|targets| targets.get(target))
            .copied()
            .unwrap_or(0)
    }

    /// Every fault fired so far, in firing order.
    pub fn schedule(&self) -> Vec<FaultRecord> {
        self.lock().log.clone()
    }

    /// The fired-fault schedule rendered one record per line — the
    /// byte-identical artifact two same-seed runs are compared on.
    pub fn schedule_text(&self) -> String {
        let state = self.lock();
        let mut out = String::new();
        for record in &state.log {
            out.push_str(&record.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        let mut c = DeterministicRng::new(43);
        let sa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn rng_f64_stays_in_unit_interval() {
        let mut rng = DeterministicRng::new(7);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn gen_range_respects_bounds_and_empty_range() {
        let mut rng = DeterministicRng::new(1);
        for _ in 0..1000 {
            let x = rng.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
        assert_eq!(rng.gen_range(5, 5), 5);
        assert_eq!(rng.gen_range(9, 5), 9);
    }

    #[test]
    fn at_ops_fires_exactly_on_schedule() {
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Transport,
            FaultKind::Transient,
            &[2, 4],
        ));
        let inj = plan.injector(0);
        let fired: Vec<bool> = (0..5)
            .map(|_| inj.next_fault(FaultPoint::Transport, "x").is_some())
            .collect();
        assert_eq!(fired, vec![false, true, false, true, false]);
    }

    #[test]
    fn every_nth_fires_periodically_and_zero_never_fires() {
        let plan = FaultPlan::new()
            .with(FaultSpec::every(FaultPoint::Apply, FaultKind::Transient, 3))
            .with(FaultSpec::every(
                FaultPoint::BinlogRead,
                FaultKind::Transient,
                0,
            ));
        let inj = plan.injector(0);
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.next_fault(FaultPoint::Apply, "x").is_some())
            .collect();
        assert_eq!(fired, vec![false, false, true, false, false, true]);
        for _ in 0..10 {
            assert_eq!(inj.next_fault(FaultPoint::BinlogRead, "x"), None);
        }
    }

    #[test]
    fn per_point_and_per_target_counters_are_independent() {
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Transport,
            FaultKind::Transient,
            &[1],
        ));
        let inj = plan.injector(0);
        // Consultations at another point do not advance transport's counter.
        assert_eq!(inj.next_fault(FaultPoint::Apply, "a"), None);
        assert_eq!(
            inj.next_fault(FaultPoint::Transport, "a"),
            Some(FaultKind::Transient)
        );
        // A different target has its own op 1.
        assert_eq!(
            inj.next_fault(FaultPoint::Transport, "b"),
            Some(FaultKind::Transient)
        );
        assert_eq!(inj.op_count(FaultPoint::Transport, "a"), 1);
        assert_eq!(inj.op_count(FaultPoint::Transport, "b"), 1);
    }

    #[test]
    fn interleaved_points_and_targets_count_independently() {
        let inj = FaultPlan::new().injector(0);
        let points = [FaultPoint::Transport, FaultPoint::Apply];
        let targets = ["a", "b", "ab"];
        // Consult (point, target) pair `k` of six exactly `k + 1` times,
        // round-robin, so every counter moves between its neighbours'.
        for round in 0..6 {
            for (k, (point, target)) in points
                .iter()
                .flat_map(|p| targets.iter().map(move |t| (*p, *t)))
                .enumerate()
            {
                if round <= k {
                    assert_eq!(inj.next_fault(point, target), None);
                }
            }
        }
        for (k, (point, target)) in points
            .iter()
            .flat_map(|p| targets.iter().map(move |t| (*p, *t)))
            .enumerate()
        {
            assert_eq!(
                inj.op_count(point, target),
                k as u64 + 1,
                "{point} {target}"
            );
        }
        assert_eq!(inj.op_count(FaultPoint::BinlogRead, "a"), 0);
        assert_eq!(inj.op_count(FaultPoint::Transport, "c"), 0);
    }

    #[test]
    fn targeting_restricts_to_one_label() {
        let plan = FaultPlan::new()
            .with(FaultSpec::every(FaultPoint::Transport, FaultKind::Transient, 1).for_target("a"));
        let inj = plan.injector(0);
        assert!(inj.next_fault(FaultPoint::Transport, "a").is_some());
        assert!(inj.next_fault(FaultPoint::Transport, "b").is_none());
    }

    #[test]
    fn budget_caps_total_firings() {
        let plan = FaultPlan::new()
            .with(FaultSpec::every(FaultPoint::Transport, FaultKind::Transient, 1).with_budget(2));
        let inj = plan.injector(0);
        let fired: Vec<bool> = (0..5)
            .map(|_| inj.next_fault(FaultPoint::Transport, "x").is_some())
            .collect();
        assert_eq!(fired, vec![true, true, false, false, false]);
    }

    #[test]
    fn link_down_is_permanent_but_logged_once() {
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Transport,
            FaultKind::LinkDown,
            &[2],
        ));
        let inj = plan.injector(0);
        assert_eq!(inj.next_fault(FaultPoint::Transport, "c"), None);
        assert_eq!(
            inj.next_fault(FaultPoint::Transport, "c"),
            Some(FaultKind::LinkDown)
        );
        assert!(inj.is_down("c"));
        // Every later consultation reports down, at any point…
        assert_eq!(
            inj.next_fault(FaultPoint::BinlogRead, "c"),
            Some(FaultKind::LinkDown)
        );
        // …but the schedule records the loss exactly once.
        assert_eq!(inj.schedule().len(), 1);
        assert!(!inj.is_down("a"));
    }

    #[test]
    fn probability_draws_are_seed_deterministic() {
        let plan = FaultPlan::new().with(FaultSpec::with_probability(
            FaultPoint::Transport,
            FaultKind::Transient,
            0.3,
        ));
        let drive = |seed: u64| {
            let inj = plan.injector(seed);
            for _ in 0..200 {
                inj.next_fault(FaultPoint::Transport, "x");
            }
            inj.schedule_text()
        };
        assert_eq!(drive(42), drive(42));
        assert_ne!(drive(42), drive(43));
        // Sanity: p=0.3 over 200 ops fires a plausible number of times.
        let fired = drive(42).lines().count();
        assert!((20..=120).contains(&fired), "fired {fired} times");
    }

    #[test]
    fn schedule_text_is_byte_identical_across_identical_runs() {
        let plan = FaultPlan::new()
            .with(FaultSpec::every(FaultPoint::Transport, FaultKind::Transient, 2).for_target("a"))
            .with(
                FaultSpec::at_ops(FaultPoint::BinlogRead, FaultKind::CorruptTailByte, &[3])
                    .for_target("b"),
            )
            .with(FaultSpec::with_probability(
                FaultPoint::Apply,
                FaultKind::Stall { millis: 1 },
                0.5,
            ));
        let drive = |()| {
            let inj = plan.injector(1337);
            for _ in 0..50 {
                inj.next_fault(FaultPoint::Transport, "a");
                inj.next_fault(FaultPoint::BinlogRead, "b");
                inj.next_fault(FaultPoint::Apply, "a");
            }
            inj.schedule_text()
        };
        let one = drive(());
        let two = drive(());
        assert_eq!(one, two);
        assert!(!one.is_empty());
        // Records render with point, target, op and kind.
        assert!(one
            .lines()
            .next()
            .is_some_and(|l| l.contains("[") && l.contains("op ")));
    }

    #[test]
    fn first_matching_spec_wins() {
        let plan = FaultPlan::new()
            .with(FaultSpec::at_ops(
                FaultPoint::Transport,
                FaultKind::Transient,
                &[1],
            ))
            .with(FaultSpec::at_ops(
                FaultPoint::Transport,
                FaultKind::LinkDown,
                &[1],
            ));
        let inj = plan.injector(0);
        assert_eq!(
            inj.next_fault(FaultPoint::Transport, "x"),
            Some(FaultKind::Transient)
        );
        assert!(!inj.is_down("x"));
    }

    #[test]
    fn injector_clone_shares_state() {
        let plan = FaultPlan::new().with(FaultSpec::at_ops(
            FaultPoint::Transport,
            FaultKind::Transient,
            &[2],
        ));
        let inj = plan.injector(0);
        let other = inj.clone();
        assert_eq!(inj.next_fault(FaultPoint::Transport, "x"), None);
        assert_eq!(
            other.next_fault(FaultPoint::Transport, "x"),
            Some(FaultKind::Transient)
        );
    }

    #[test]
    fn display_renderings_are_stable() {
        assert_eq!(FaultKind::Transient.to_string(), "transient");
        assert_eq!(FaultKind::Stall { millis: 5 }.to_string(), "stall(5ms)");
        assert_eq!(FaultKind::LinkDown.to_string(), "link-down");
        assert_eq!(FaultKind::CorruptTailByte.to_string(), "corrupt-tail-byte");
        assert_eq!(
            FaultKind::TruncateTail { bytes: 7 }.to_string(),
            "truncate-tail(7B)"
        );
        assert_eq!(FaultKind::DropFsync.to_string(), "drop-fsync");
        assert_eq!(FaultPoint::BinlogRead.to_string(), "binlog-read");
        assert_eq!(FaultPoint::Accept.to_string(), "accept");
        assert_eq!(FaultPoint::SocketRead.to_string(), "socket-read");
        assert_eq!(FaultPoint::SegmentAppend.to_string(), "segment-append");
        assert_eq!(FaultPoint::SnapshotWrite.to_string(), "snapshot-write");
        assert_eq!(FaultPoint::SpillWrite.to_string(), "spill-write");
        assert_eq!(FaultPoint::SpillRead.to_string(), "spill-read");
        let record = FaultRecord {
            seq: 3,
            op: 17,
            point: FaultPoint::Transport,
            target: "link-x".into(),
            kind: FaultKind::Transient,
        };
        assert_eq!(record.to_string(), "#3 transport[link-x] op 17: transient");
    }

    #[test]
    fn injector_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FaultInjector>();
    }
}
