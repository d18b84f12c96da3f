//! Synthetic application-kernel run generator.
//!
//! Produces the periodic (e.g. nightly) run logs an XDMoD center would
//! collect, with optional injected performance regressions — the failure
//! mode the module exists to catch.

use crate::kernel::{default_suite, AppKernel, KernelRun};
use xdmod_chaos::DeterministicRng;

/// A degradation window to inject.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedRegression {
    /// Index of the first affected run.
    pub start_run: usize,
    /// Number of affected runs (to the end if the series is shorter).
    pub length: usize,
    /// Multiplicative performance loss (0.2 = 20% worse).
    pub severity: f64,
}

/// Generate `n_runs` periodic runs of `kernel` on `resource` at `nodes`,
/// one per `interval_secs`, with relative Gaussian-ish noise and any
/// injected regressions applied.
#[allow(clippy::too_many_arguments)] // a launcher config struct would obscure the call sites
pub fn simulate_series(
    kernel: &AppKernel,
    resource: &str,
    nodes: i64,
    n_runs: usize,
    start_ts: i64,
    interval_secs: i64,
    noise: f64,
    regressions: &[InjectedRegression],
    seed: u64,
) -> Vec<KernelRun> {
    let mut rng = DeterministicRng::new(seed);
    let base = match kernel.id.as_str() {
        "nwchem" => 500.0,
        "hpcc_dgemm" => 22.0,
        "ior_write" => 1800.0,
        "graph500" => 350.0,
        "osu_latency" => 2.1,
        _ => 100.0,
    };
    (0..n_runs)
        .map(|i| {
            // Sum of uniforms approximates a normal; keep it simple and
            // bounded.
            let u: f64 = (0..4).map(|_| rng.next_f64()).sum::<f64>() / 4.0 - 0.5;
            let mut value = base * (1.0 + noise * u * 2.0);
            for reg in regressions {
                if i >= reg.start_run && i < reg.start_run + reg.length {
                    // A regression makes throughput lower but latency
                    // HIGHER.
                    if kernel.higher_is_better {
                        value *= 1.0 - reg.severity;
                    } else {
                        value *= 1.0 + reg.severity;
                    }
                }
            }
            KernelRun {
                kernel: kernel.id.clone(),
                resource: resource.to_owned(),
                nodes,
                ts: start_ts + i as i64 * interval_secs,
                value: value.max(0.0),
            }
        })
        .collect()
}

/// Render runs as the launcher's log format (see [`crate::ingest`]).
pub fn to_log(runs: &[KernelRun]) -> String {
    let mut out = String::new();
    for r in runs {
        out.push_str(&format!(
            "ak {} {} {} {} {:.6}\n",
            r.kernel, r.resource, r.nodes, r.ts, r.value
        ));
    }
    out
}

/// A full nightly campaign: every kernel of the default suite on one
/// resource, `n_runs` each, with one injected regression on a chosen
/// kernel.
pub fn campaign_log(
    resource: &str,
    n_runs: usize,
    degraded_kernel: Option<(&str, InjectedRegression)>,
    seed: u64,
) -> String {
    let mut out = String::new();
    for (i, kernel) in default_suite().iter().enumerate() {
        let regressions: Vec<InjectedRegression> = match degraded_kernel {
            Some((id, reg)) if id == kernel.id => vec![reg],
            _ => vec![],
        };
        let runs = simulate_series(
            kernel,
            resource,
            4,
            n_runs,
            1_483_228_800,
            86_400,
            0.015,
            &regressions,
            seed ^ (i as u64) << 8,
        );
        out.push_str(&to_log(&runs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{analyze, ControlConfig};
    use crate::ingest::{load_runs, parse_log, series};
    use xdmod_warehouse::Database;

    #[test]
    fn simulated_logs_round_trip_through_parser() {
        let log = campaign_log("rush", 10, None, 7);
        let runs = parse_log(&log).unwrap();
        assert_eq!(runs.len(), 10 * default_suite().len());
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            campaign_log("rush", 5, None, 7),
            campaign_log("rush", 5, None, 7)
        );
        assert_ne!(
            campaign_log("rush", 5, None, 7),
            campaign_log("rush", 5, None, 8)
        );
    }

    #[test]
    fn injected_regression_is_detected_end_to_end() {
        // Full loop: simulate → log → parse → warehouse → series →
        // control chart.
        let reg = InjectedRegression {
            start_run: 20,
            length: 10,
            severity: 0.25,
        };
        let log = campaign_log("rush", 30, Some(("hpcc_dgemm", reg)), 11);
        let runs = parse_log(&log).unwrap();
        let mut db = Database::new();
        load_runs(&mut db, "ak", &runs).unwrap();

        let suite = default_suite();
        let dgemm = suite.iter().find(|k| k.id == "hpcc_dgemm").unwrap();
        let values = series(&db, "ak", "hpcc_dgemm", "rush", 4).unwrap();
        let report = analyze(dgemm, &values, ControlConfig::default());
        assert!(
            report
                .events
                .iter()
                .any(|e| e.regression && e.start_index >= 19),
            "regression not detected: {:?}",
            report.events
        );

        // A healthy kernel in the same campaign raises no events.
        let nwchem = suite.iter().find(|k| k.id == "nwchem").unwrap();
        let values = series(&db, "ak", "nwchem", "rush", 4).unwrap();
        let report = analyze(nwchem, &values, ControlConfig::default());
        assert!(report.events.is_empty(), "{:?}", report.events);
    }

    #[test]
    fn latency_kernel_regression_direction() {
        let suite = default_suite();
        let lat = suite.iter().find(|k| k.id == "osu_latency").unwrap();
        let reg = InjectedRegression {
            start_run: 15,
            length: 10,
            severity: 0.4,
        };
        let runs = simulate_series(lat, "rush", 4, 25, 0, 3600, 0.01, &[reg], 3);
        // Latency regression means values went UP.
        let before: f64 = runs[..15].iter().map(|r| r.value).sum::<f64>() / 15.0;
        let after: f64 = runs[15..].iter().map(|r| r.value).sum::<f64>() / 10.0;
        assert!(after > before * 1.2);
        let values: Vec<f64> = runs.iter().map(|r| r.value).collect();
        let report = analyze(lat, &values, ControlConfig::default());
        assert!(report.events.iter().any(|e| e.regression));
    }
}
