//! Spans recorded from the harness's side of each call into a layer.
//!
//! A [`Trace`] is a small per-thread span buffer for one *group*: a root
//! span and everything it caused (one request, one tick, one rep). When
//! the group is complete the [`Collector`] absorbs it: it folds every
//! span's self time, allocations and duration into per-name totals, keeps
//! the raw spans of the first groups for the trace file, and drops the
//! rest, so memory stays bounded however long the traced phase runs.
//!
//! Sibling spans never overlap in this harness (children of one parent run
//! one after another), so a span's self time is its duration minus the
//! parts of that interval its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc::thread_allocs;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;
/// Whole groups are kept for the trace file until this many raw spans are.
const KEPT_SPANS: usize = 20_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span inside the same group, or [`ROOT`].
    pub parent: u32,
    /// Operation identifier shared by every span of one operation.
    pub op: u64,
    /// Allocations made by the recording thread inside the span.
    pub allocs: u64,
}

/// Span buffer of one group. With tracing off every method is a branch.
pub struct Trace {
    on: bool,
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Trace {
    /// `capacity` spans are pre-allocated when tracing is on, so a group
    /// that fits never allocates inside a span it records.
    pub fn new(on: bool, t0: Instant, capacity: usize) -> Self {
        Trace {
            on,
            t0,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(if on { 4 } else { 0 }),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(ROOT);
        // Grow before reading the counter: a buffer growth is the
        // harness's allocation, not the span's.
        self.spans.reserve(1);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op,
            allocs: thread_allocs(),
        });
        // Read the clock last so the bookkeeping above is outside the span.
        let now = self.now_ns();
        if let Some(span) = self.spans.last_mut() {
            span.start_ns = now;
        }
    }

    /// Close the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        if let Some(idx) = self.open.pop() {
            let span = &mut self.spans[idx as usize];
            span.end_ns = now;
            span.allocs = thread_allocs() - span.allocs;
        }
    }

    /// Time one call into a layer as a leaf span.
    #[inline]
    pub fn leaf<R>(&mut self, name: &'static str, op: u64, call: impl FnOnce() -> R) -> R {
        self.begin(name, op);
        let out = call();
        self.end();
        out
    }

    /// Record a span whose ends were read on different threads; returns
    /// its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            allocs: 0,
        });
        self.spans.len() as u32 - 1
    }

    /// Append another thread's group as children of span `parent`.
    pub fn adopt(&mut self, parent: u32, mut other: Vec<Span>) {
        let shift = self.spans.len() as u32;
        for span in &mut other {
            span.parent = if span.parent == ROOT {
                parent
            } else {
                span.parent + shift
            };
        }
        self.spans.append(&mut other);
    }
}

/// Per-name totals over every absorbed group.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
    pub allocs: u64,
    /// One duration per span, ns (saturating at ~4.29 s), for percentiles.
    pub durations: Vec<u32>,
}

impl NameStats {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// `q`-quantile of span durations in ns (nearest rank).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        crate::stats::quantile(&self.durations, q)
    }
}

#[derive(Default)]
pub struct Collector {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Sum of root span durations.
    pub root_ns: u64,
    /// Part of the root spans no child span covers (harness glue).
    pub root_self_ns: u64,
    pub groups: u64,
    pub spans_seen: u64,
    kept: Vec<Span>,
    kept_groups: usize,
}

impl Collector {
    /// Fold one complete group in and clear the buffer for reuse.
    pub fn absorb(&mut self, trace: &mut Trace) {
        let spans = &mut trace.spans;
        if spans.is_empty() {
            return;
        }
        let mut covered = vec![0u64; spans.len()];
        for span in spans.iter() {
            if span.parent != ROOT {
                let parent = &spans[span.parent as usize];
                let start = span.start_ns.max(parent.start_ns);
                let end = span.end_ns.min(parent.end_ns);
                covered[span.parent as usize] += end.saturating_sub(start);
            }
        }
        for (span, covered) in spans.iter().zip(&covered) {
            let dur = span.end_ns.saturating_sub(span.start_ns);
            let self_ns = dur.saturating_sub(*covered);
            if span.parent == ROOT {
                self.root_ns += dur;
                self.root_self_ns += self_ns;
            }
            let stats = self.by_name.entry(span.name).or_default();
            stats.count += 1;
            stats.self_ns += self_ns;
            stats.total_ns += dur;
            stats.allocs += span.allocs;
            stats.durations.push(dur.min(u64::from(u32::MAX)) as u32);
        }
        self.groups += 1;
        self.spans_seen += spans.len() as u64;
        if self.kept.len() < KEPT_SPANS {
            // Re-base parent indices onto the kept list.
            let shift = self.kept.len() as u32;
            self.kept.extend(spans.iter().cloned().map(|mut s| {
                if s.parent != ROOT {
                    s.parent += shift;
                }
                s
            }));
            self.kept_groups += 1;
        }
        spans.clear();
        trace.open.clear();
    }

    pub fn get(&self, name: &str) -> &NameStats {
        static EMPTY: NameStats = NameStats {
            count: 0,
            self_ns: 0,
            total_ns: 0,
            allocs: 0,
            durations: Vec::new(),
        };
        self.by_name.get(name).unwrap_or(&EMPTY)
    }

    /// Self time of `name` as a share of all root span time.
    pub fn share(&self, name: &str) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        self.get(name).self_ns as f64 / self.root_ns as f64
    }

    /// The trace file: per-name self times over every group, and the raw
    /// spans of the first groups.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"groups\":{},\"spans_recorded\":{},\
             \"groups_written\":{},\"root_ns\":{},\"root_self_ns\":{},\"layers\":[",
            self.groups, self.spans_seen, self.kept_groups, self.root_ns, self.root_self_ns
        );
        for (i, (name, s)) in self.by_name.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{name}\",\"count\":{},\"self_ns\":{},\"total_ns\":{},\"allocs\":{}}}",
                s.count, s.self_ns, s.total_ns, s.allocs
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"op\":{},\"allocs\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.allocs
            );
        }
        out.push_str("]}\n");
        out
    }
}
