//! The benchmark's metric tables and the result line.
//!
//! `BENCHMARK.json` is printed from these tables (`--print-contract`), so
//! the names and units a run prints cannot drift from the ones the driver
//! reads.

use std::fmt::Write as _;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports all of them.
pub const END_TO_END: &[Def] = &[
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("mb_per_s", "MB/s", "higher", 0.25),
    e2e("lat_p50_us", "us", "lower", 0.25),
    e2e("cpu_ms_per_kop", "ms/kop", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single layers, from the traced run. A layer a workload never calls
/// reports 0 there.
pub const PER_LAYER: &[Def] = &[
    layer("gateway.http.parse_ns", "ns", "lower"),
    layer("gateway.http.parse_share", "share", "lower"),
    layer("gateway.http.parse_errors", "count", "lower"),
    layer("gateway.http.body_ns", "ns", "lower"),
    layer("gateway.http.body_share", "share", "lower"),
    layer("gateway.http.serialize_ns", "ns", "lower"),
    layer("gateway.http.serialize_share", "share", "lower"),
    layer("gateway.http.bytes_in", "count", "higher"),
    layer("gateway.http.bytes_out", "count", "higher"),
    layer("gateway.http.allocs_per_req", "allocs/op", "lower"),
    layer("gateway.limit.rate_check_ns", "ns", "lower"),
    layer("gateway.limit.rate_limited_share", "share", "lower"),
    layer("gateway.limit.admission_ns", "ns", "lower"),
    layer("gateway.limit.admission_refused", "count", "lower"),
    layer("gateway.limit.tracked_clients", "count", "lower"),
    layer("gateway.pool.dispatch_ns", "ns", "lower"),
    layer("gateway.pool.queue_wait_p50_us", "us", "lower"),
    layer("gateway.pool.queue_wait_p99_us", "us", "lower"),
    layer("gateway.pool.request_p99_us", "us", "lower"),
    layer("gateway.pool.rejected", "count", "lower"),
    layer("gateway.pool.worker_busy_share", "share", "higher"),
    layer("gateway.etag.match_ns", "ns", "lower"),
    layer("gateway.etag.not_modified_share", "share", "higher"),
    layer("warehouse.checksum.crc32_mb_per_s", "MB/s", "higher"),
    layer("warehouse.checksum.share_of_recover", "share", "lower"),
    layer("warehouse.checksum.share_of_append_cpu", "share", "lower"),
    layer("warehouse.disk.append_p50_us", "us", "lower"),
    layer("warehouse.disk.append_p99_us", "us", "lower"),
    layer("warehouse.disk.append_nosync_p50_us", "us", "lower"),
    layer("warehouse.disk.flush_share", "share", "lower"),
    layer("warehouse.disk.snapshot_p50_ms", "ms", "lower"),
    layer("warehouse.disk.snapshot_calls", "count", "lower"),
    layer("warehouse.disk.segments_rolled", "count", "lower"),
    layer("warehouse.disk.segments_deleted", "count", "higher"),
    layer("warehouse.disk.bytes_reclaimed", "count", "higher"),
    layer("warehouse.disk.bytes_written", "count", "lower"),
    layer("warehouse.disk.write_amp", "ratio", "lower"),
    layer("warehouse.disk.files_live", "count", "lower"),
    layer("warehouse.disk.open_ms", "ms", "lower"),
    layer("warehouse.disk.recover_p50_ms", "ms", "lower"),
    layer("warehouse.disk.recover_max_ms", "ms", "lower"),
    layer("warehouse.disk.recover_segments_scanned", "count", "lower"),
    layer("warehouse.disk.recover_truncated_records", "count", "lower"),
    layer("warehouse.disk.recover_corrupt_snapshots", "count", "lower"),
    layer("warehouse.disk.scan_frames_mb_per_s", "MB/s", "higher"),
    layer("telemetry.counter_inc_ns", "ns", "lower"),
    layer("telemetry.histogram_observe_ns", "ns", "lower"),
    layer("telemetry.span_ns", "ns", "lower"),
    layer("telemetry.event_ns", "ns", "lower"),
    layer("telemetry.noop_ns", "ns", "lower"),
    layer("telemetry.events_dropped", "count", "lower"),
    layer("telemetry.snapshot_us", "us", "lower"),
    layer("telemetry.prometheus_render_us", "us", "lower"),
    layer("telemetry.json_render_us", "us", "lower"),
    layer("telemetry.exposition_bytes", "count", "lower"),
    layer("telemetry.series", "count", "lower"),
    layer("alerts.observe_ns", "ns", "lower"),
    layer("alerts.tick_us", "us", "lower"),
    layer("alerts.list_us", "us", "lower"),
    layer("alerts.transitions", "count", "lower"),
    layer("alerts.notifications_sent", "count", "higher"),
    layer("alerts.notifications_suppressed_share", "share", "lower"),
    layer("alerts.open_alerts", "count", "lower"),
    layer("check.json_parse_mb_per_s", "MB/s", "higher"),
    layer("check.model_build_us", "us", "lower"),
    layer("check.analyze_us", "us", "lower"),
    layer("check.diagnostics", "count", "lower"),
    layer("check.allocs_per_kib", "allocs/KiB", "lower"),
    layer("chaos.next_fault_unarmed_ns", "ns", "lower"),
    layer("chaos.rng_ns", "ns", "lower"),
    layer("harness.build_s", "s", "lower"),
    layer("harness.generator_share", "share", "lower"),
    layer("harness.trace_overhead_share", "share", "lower"),
    layer("harness.root_self_share", "share", "lower"),
];

/// The five workloads and why each exists (one line, for BENCHMARK.json).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "gateway_mix",
        "request mix through http/limit/pool/etag; all work in the gateway front, none in the disk layer",
    ),
    (
        "wal_append",
        "WAL appends with snapshots and compaction down to the page-cache write (fsync off; the flush is the host's disk, reported per layer)",
    ),
    (
        "wal_recover",
        "open+recover of a clean and a damaged store; CRC/scan-bound restart time, the cost appends bypass",
    ),
    (
        "ops_tick",
        "telemetry updates, both expositions and the alert engine for one ops tick; where a wider Span would show",
    ),
    (
        "config_preflight",
        "parse, model and analyze topologies of 3/30/300 satellites; the go_live gate and the shared-json candidate",
    ),
];

/// Seconds one run measures when the driver starts it (`run_seconds`):
/// as long as its time budget for 114 runs allows, because the longer a
/// run, the more of the machine's speed drift it averages over.
pub const RUN_SECONDS: u64 = 20;

/// A full set of values for one table, zero until set.
pub struct Metrics {
    defs: &'static [Def],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(defs: &'static [Def]) -> Self {
        Metrics {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    /// Set a metric; a name outside the table is a bug in the harness.
    pub fn set(&mut self, name: &str, value: f64) {
        let idx = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[idx] = if value.is_finite() { value } else { 0.0 };
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        for (def, value) in self.defs.iter().zip(&self.values) {
            println!("  {:<44} {value:>16.4} {}", def.name, def.unit);
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (def, value)) in self.defs.iter().zip(&self.values).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        out.push('}');
        out
    }
}

/// The one-line result the driver reads from the end of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// `BENCHMARK.json`, from the tables above.
pub fn contract_json() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(out, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name, d.unit, d.better, d.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}
