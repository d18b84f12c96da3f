//! `ops_tick`: what one supervisor tick costs in telemetry and alerting.
//!
//! The registry holds about 2,000 series: 14 satellites × 6 tables, each
//! with 12 counter, 4 gauge and 8 histogram families. One operation is one
//! tick:
//!
//! 1. two recorders apply 5,000 seeded updates each, one recorder after the
//!    other on the calling thread (threads spawned per tick measured the
//!    sandbox's scheduler: see `bench/README.md`, "Steadiness") — `Counter::inc`
//!    through a held handle, `counter(..).inc()` through a registry lookup
//!    (as `App::handle` does), `Gauge::set`, `Histogram::observe`,
//!    `span(..).finish()` and `event_with`;
//! 2. `snapshot()`, then `prometheus_text()` and `json()` of the snapshot;
//! 3. the alert engine observes 200 (family, target) pairs — fault or
//!    all-clear by a seeded flapping schedule — then `tick(now)` and
//!    `alerts()`, under a virtual clock of one second per tick.
//!
//! Output check: after every rep, each counter family's total and each
//! histogram family's observation count equal the issued schedule; after
//! every tick, the listed open alerts equal the schedule's faults.

use std::path::Path;
use std::time::{Duration, Instant};

use xdmod_alerts::{AlertEngine, AlertRules, FAMILIES};
use xdmod_chaos::DeterministicRng;
use xdmod_telemetry::{Counter, Histogram, MetricsRegistry, RegistrySnapshot};

use super::{lat, time_for, Ctx, RepOut, Timed, Workload};
use crate::gen::shuffle;
use crate::metrics::Metrics;
use crate::trace::{Collector, Trace};

const SATELLITES: usize = 14;
const TABLES: [&str; 6] = [
    "jobfact",
    "storagefact",
    "cloudfact",
    "supremm_jobfact",
    "supremm_timeseries",
    "cloud_reservation",
];
const COUNTER_FAMILIES: usize = 12;
const GAUGE_FAMILIES: usize = 4;
const HISTOGRAM_FAMILIES: usize = 8;
const RECORDERS: usize = 2;
const UPDATES_PER_RECORDER: usize = 5_000;
const TARGETS: usize = 200;
const TICKS_PER_REP: usize = 40;
const TICK_MS: u64 = 1_000;

/// One label set: a satellite and one of its tables.
#[derive(Clone)]
struct Site {
    satellite: String,
    table: &'static str,
}

#[derive(Clone, Copy)]
enum Update {
    /// `Counter::inc` on a handle held since registration.
    Inc {
        family: usize,
        site: usize,
    },
    /// `registry.counter(name, labels).inc()`.
    LookupInc {
        family: usize,
        site: usize,
    },
    GaugeSet {
        family: usize,
        site: usize,
        value: f64,
    },
    Observe {
        family: usize,
        site: usize,
        value: f64,
    },
    /// `registry.span(name, labels).finish()`.
    Span {
        family: usize,
        site: usize,
    },
    Event {
        site: usize,
        value: f64,
    },
}

pub struct OpsTick {
    registry: MetricsRegistry,
    sites: Vec<Site>,
    counter_names: Vec<String>,
    gauge_names: Vec<String>,
    histogram_names: Vec<String>,
    /// Held handles, `[family][site]`.
    counters: Vec<Vec<Counter>>,
    histograms: Vec<Vec<Histogram>>,
    /// One tick's updates per recorder; every tick replays them.
    schedule: Vec<Vec<Update>>,
    /// Counter increments / histogram observations one tick issues, per family.
    incs_per_tick: Vec<u64>,
    observes_per_tick: Vec<u64>,
    engine: AlertEngine,
    targets: Vec<(&'static str, String)>,
    /// `faults[tick][target]` for the ticks of one rep.
    faults: Vec<Vec<bool>>,
    ticks_done: u64,
    exposition_bytes: u64,
    last: Counts,
}

#[derive(Default)]
struct Counts {
    events_dropped: u64,
    transitions: u64,
    notifications_sent: u64,
    notifications_suppressed: u64,
    open_alerts: u64,
    series: u64,
}

impl OpsTick {
    fn labels(&self, site: usize) -> [(&'static str, &str); 2] {
        let s = &self.sites[site];
        [("satellite", s.satellite.as_str()), ("table", s.table)]
    }

    fn apply(&self, updates: &[Update]) {
        for update in updates {
            match *update {
                Update::Inc { family, site } => self.counters[family][site].inc(),
                Update::LookupInc { family, site } => self
                    .registry
                    .counter(&self.counter_names[family], &self.labels(site))
                    .inc(),
                Update::GaugeSet {
                    family,
                    site,
                    value,
                } => self
                    .registry
                    .gauge(&self.gauge_names[family], &self.labels(site))
                    .set(value),
                Update::Observe {
                    family,
                    site,
                    value,
                } => self.histograms[family][site].observe(value),
                Update::Span { family, site } => {
                    self.registry
                        .span(&self.histogram_names[family], &self.labels(site))
                        .finish();
                }
                Update::Event { site, value } => self.registry.event_with(
                    "replication.lag",
                    &self.sites[site].satellite,
                    &[("lag_events", value)],
                ),
            }
        }
    }

    /// One tick; returns whether the open alerts matched the schedule.
    fn tick(&mut self, tick: usize, tr: &mut Trace) -> bool {
        let op = self.ticks_done;
        let now_ms = op * TICK_MS;
        tr.begin("op", op);
        tr.begin("telemetry.record", op);
        for updates in &self.schedule {
            self.apply(updates);
        }
        tr.end();
        let snapshot = tr.leaf("telemetry.snapshot", op, || self.registry.snapshot());
        let text = tr.leaf("telemetry.prometheus", op, || snapshot.prometheus_text());
        let json = tr.leaf("telemetry.json", op, || snapshot.json());
        self.exposition_bytes = (text.len() + json.len()) as u64;

        let faults = &self.faults[tick];
        tr.begin("alerts.observe", op);
        for ((family, target), fault) in self.targets.iter().zip(faults) {
            if *fault {
                self.engine
                    .observe_fault(family, target, "lag over threshold", now_ms);
            } else {
                self.engine.observe_ok(family, target, now_ms);
            }
        }
        tr.end();
        tr.leaf("alerts.tick", op, || self.engine.tick(now_ms));
        let listed = tr.leaf("alerts.list", op, || self.engine.alerts());
        tr.end();
        self.ticks_done += 1;
        let open = listed.iter().filter(|a| a.state.is_open()).count();
        open == faults.iter().filter(|f| **f).count() && open == self.engine.open_count()
    }

    /// Families whose totals in `snapshot` differ from what `ticks_done`
    /// ticks issued.
    fn wrong_totals(&self, snapshot: &RegistrySnapshot) -> u64 {
        let mut wrong = 0;
        for (name, per_tick) in self.counter_names.iter().zip(&self.incs_per_tick) {
            wrong += u64::from(snapshot.counter_total(name) != per_tick * self.ticks_done);
        }
        for (name, per_tick) in self.histogram_names.iter().zip(&self.observes_per_tick) {
            let count: u64 = snapshot
                .histograms_named(name)
                .iter()
                .map(|(_, h)| h.count)
                .sum();
            wrong += u64::from(count != per_tick * self.ticks_done);
        }
        wrong
    }
}

impl Workload for OpsTick {
    fn setup(seed: u64, _work: &Path) -> Self {
        let mut rng = DeterministicRng::new(seed ^ 0x6f70_735f_7469_636b);
        let sites: Vec<Site> = (0..SATELLITES)
            .flat_map(|s| {
                TABLES.iter().map(move |table| Site {
                    satellite: format!("site-{s:02}"),
                    table,
                })
            })
            .collect();
        let names = |kind: &str, n: usize, suffix: &str| -> Vec<String> {
            (0..n)
                .map(|i| format!("xdmod_{kind}_{i:02}_{suffix}"))
                .collect()
        };
        let registry = MetricsRegistry::new();
        let mut this = OpsTick {
            counter_names: names("replication", COUNTER_FAMILIES, "total"),
            gauge_names: names("queue", GAUGE_FAMILIES, "depth"),
            histogram_names: names("apply", HISTOGRAM_FAMILIES, "seconds"),
            counters: Vec::new(),
            histograms: Vec::new(),
            schedule: Vec::new(),
            incs_per_tick: vec![0; COUNTER_FAMILIES],
            observes_per_tick: vec![0; HISTOGRAM_FAMILIES],
            engine: AlertEngine::new(AlertRules::default()),
            targets: (0..TARGETS)
                .map(|t| {
                    (
                        FAMILIES[t % FAMILIES.len()],
                        format!("site-{:03}", t / FAMILIES.len()),
                    )
                })
                .collect(),
            faults: Vec::new(),
            ticks_done: 0,
            exposition_bytes: 0,
            last: Counts::default(),
            registry,
            sites,
        };
        // Register every series up front, as components do at start-up.
        for family in 0..COUNTER_FAMILIES {
            let handles = (0..this.sites.len())
                .map(|site| {
                    this.registry
                        .counter(&this.counter_names[family], &this.labels(site))
                })
                .collect();
            this.counters.push(handles);
        }
        for family in 0..GAUGE_FAMILIES {
            for site in 0..this.sites.len() {
                this.registry
                    .gauge(&this.gauge_names[family], &this.labels(site))
                    .set(0.0);
            }
        }
        for family in 0..HISTOGRAM_FAMILIES {
            let handles = (0..this.sites.len())
                .map(|site| {
                    this.registry
                        .histogram(&this.histogram_names[family], &this.labels(site))
                })
                .collect();
            this.histograms.push(handles);
        }

        for _ in 0..RECORDERS {
            // The mix of update kinds is exact for every seed; the seed
            // decides their order and which series each one touches.
            let mut rolls: Vec<u64> = (0..UPDATES_PER_RECORDER as u64).map(|i| i % 100).collect();
            shuffle(&mut rng, &mut rolls);
            let mut updates = Vec::with_capacity(UPDATES_PER_RECORDER);
            for roll in rolls {
                let site = rng.gen_range(0, this.sites.len() as u64) as usize;
                let counter = rng.gen_range(0, COUNTER_FAMILIES as u64) as usize;
                let histogram = rng.gen_range(0, HISTOGRAM_FAMILIES as u64) as usize;
                let value = rng.next_f64();
                updates.push(match roll {
                    0..=44 => {
                        this.incs_per_tick[counter] += 1;
                        Update::Inc {
                            family: counter,
                            site,
                        }
                    }
                    45..=59 => {
                        this.incs_per_tick[counter] += 1;
                        Update::LookupInc {
                            family: counter,
                            site,
                        }
                    }
                    60..=64 => Update::GaugeSet {
                        family: counter % GAUGE_FAMILIES,
                        site,
                        value: value * 100.0,
                    },
                    65..=84 => {
                        this.observes_per_tick[histogram] += 1;
                        Update::Observe {
                            family: histogram,
                            site,
                            value: value * 0.25,
                        }
                    }
                    85..=94 => {
                        this.observes_per_tick[histogram] += 1;
                        Update::Span {
                            family: histogram,
                            site,
                        }
                    }
                    _ => Update::Event {
                        site,
                        value: value * 1e4,
                    },
                });
            }
            this.schedule.push(updates);
        }

        // Flapping: a healthy target faults with 2 % chance per tick, a
        // faulting one clears with 20 %, so most re-fires land inside the
        // 5 s debounce window and reopen the same alert.
        let mut state = vec![false; TARGETS];
        for _ in 0..TICKS_PER_REP {
            for s in &mut state {
                let flip = rng.next_f64() < if *s { 0.20 } else { 0.02 };
                *s ^= flip;
            }
            this.faults.push(state.clone());
        }

        // Warm-up: a few ticks size the exposition buffers' allocations.
        let mut tr = Trace::new(false, Instant::now(), 0);
        for tick in 0..5 {
            this.tick(tick, &mut tr);
        }
        this
    }

    fn rep(&mut self, ctx: &mut Ctx) -> RepOut {
        let mut timed = Timed::default();
        let mut tr = Trace::new(ctx.trace_on, ctx.t0, 16);
        let mut failed = 0;
        let mut payload = 0;
        let dropped = self.registry.events_dropped();
        let generation = self.engine.generation();
        let (sent, suppressed) = (
            self.engine.notifications_sent(),
            self.engine.notifications_suppressed(),
        );
        for tick in 0..TICKS_PER_REP {
            timed.start();
            let begin = Instant::now();
            let matched = self.tick(tick, &mut tr);
            let latency = lat(begin.elapsed().as_nanos() as u64);
            ctx.lat_ns.push(latency);
            timed.stop();
            timed.program(u64::from(latency));
            failed += u64::from(!matched);
            payload += self.exposition_bytes;
            if ctx.trace_on {
                ctx.collector.absorb(&mut tr);
            }
        }
        let snapshot = self.registry.snapshot();
        failed += self.wrong_totals(&snapshot);
        self.last = Counts {
            events_dropped: self.registry.events_dropped() - dropped,
            transitions: self.engine.generation() - generation,
            notifications_sent: self.engine.notifications_sent() - sent,
            notifications_suppressed: self.engine.notifications_suppressed() - suppressed,
            open_alerts: self.engine.open_count() as u64,
            series: (snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len())
                as u64,
        };
        timed.out(TICKS_PER_REP as u64, failed, payload)
    }

    fn layers(&mut self, spans: &Collector, budget: Duration, m: &mut Metrics) {
        let c = &self.last;
        m.set("telemetry.events_dropped", c.events_dropped as f64);
        m.set(
            "telemetry.snapshot_us",
            spans.get("telemetry.snapshot").mean_ns() / 1e3,
        );
        m.set(
            "telemetry.prometheus_render_us",
            spans.get("telemetry.prometheus").mean_ns() / 1e3,
        );
        m.set(
            "telemetry.json_render_us",
            spans.get("telemetry.json").mean_ns() / 1e3,
        );
        m.set("telemetry.exposition_bytes", self.exposition_bytes as f64);
        m.set("telemetry.series", c.series as f64);
        m.set(
            "alerts.observe_ns",
            spans.get("alerts.observe").mean_ns() / TARGETS as f64,
        );
        m.set("alerts.tick_us", spans.get("alerts.tick").mean_ns() / 1e3);
        m.set("alerts.list_us", spans.get("alerts.list").mean_ns() / 1e3);
        m.set("alerts.transitions", c.transitions as f64);
        m.set("alerts.notifications_sent", c.notifications_sent as f64);
        m.set(
            "alerts.notifications_suppressed_share",
            c.notifications_suppressed as f64
                / (c.notifications_sent + c.notifications_suppressed).max(1) as f64,
        );
        m.set("alerts.open_alerts", c.open_alerts as f64);

        // The recorders' calls are too short to wrap in a span each: time
        // each kind in a loop on the workload's own registry.
        const BATCH: u64 = 1_000;
        let part = budget / 5;
        let per_call = |(calls, secs): (u64, f64)| secs * 1e9 / (calls * BATCH) as f64;
        let counter = &self.counters[0][0];
        m.set(
            "telemetry.counter_inc_ns",
            per_call(time_for(part, || (0..BATCH).for_each(|_| counter.inc()))),
        );
        let histogram = &self.histograms[0][0];
        m.set(
            "telemetry.histogram_observe_ns",
            per_call(time_for(part, || {
                (0..BATCH).for_each(|i| histogram.observe(std::hint::black_box(i as f64 * 1e-4)))
            })),
        );
        let labels = self.labels(0);
        m.set(
            "telemetry.span_ns",
            per_call(time_for(part, || {
                (0..BATCH).for_each(|_| {
                    self.registry
                        .span(&self.histogram_names[0], &labels)
                        .finish();
                })
            })),
        );
        m.set(
            "telemetry.event_ns",
            per_call(time_for(part, || {
                (0..BATCH).for_each(|i| {
                    self.registry.event_with(
                        "replication.lag",
                        "site-00",
                        &[("lag_events", i as f64)],
                    )
                })
            })),
        );
        let disabled = MetricsRegistry::disabled().counter("off", &[]);
        m.set(
            "telemetry.noop_ns",
            per_call(time_for(part, || {
                (0..BATCH).for_each(|_| std::hint::black_box(&disabled).inc())
            })),
        );
    }
}
