//! Control-chart analysis of kernel performance.
//!
//! The published application-kernel methodology (Simakov et al.,
//! "Application kernels: HPC resources performance monitoring and
//! variance analysis" — the paper's reference \[30\]) classifies each run
//! against a rolling in-control baseline: runs outside
//! `mean ± k·sigma` are *out of control*; a streak of consecutive
//! out-of-control runs in the same direction is flagged as a sustained
//! **regression** (or improvement), which is the quality-of-service
//! signal operators act on.

use crate::kernel::AppKernel;

/// Classification of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Within control limits.
    InControl,
    /// Outside limits, better than baseline.
    OutOfControlBetter,
    /// Outside limits, worse than baseline.
    OutOfControlWorse,
    /// Not enough history to judge.
    Baseline,
}

/// A detected sustained change.
#[derive(Debug, Clone, PartialEq)]
pub struct QosEvent {
    /// Index (into the analyzed run sequence) where the streak started.
    pub start_index: usize,
    /// Length of the streak when it was flagged.
    pub run_length: usize,
    /// True if performance degraded.
    pub regression: bool,
    /// Baseline mean at detection time.
    pub baseline_mean: f64,
    /// Mean of the streak's values.
    pub observed_mean: f64,
}

impl QosEvent {
    /// Relative change from baseline (negative = worse for
    /// higher-is-better kernels; callers already oriented the data).
    pub fn relative_change(&self) -> f64 {
        if self.baseline_mean == 0.0 {
            0.0
        } else {
            (self.observed_mean - self.baseline_mean) / self.baseline_mean
        }
    }
}

/// Control-chart detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Runs used to establish the initial baseline.
    pub baseline_runs: usize,
    /// Control-limit width in standard deviations.
    pub sigma: f64,
    /// Consecutive out-of-control runs before a [`QosEvent`] fires.
    pub streak: usize,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            baseline_runs: 8,
            sigma: 3.0,
            streak: 3,
        }
    }
}

/// Per-run classification plus detected events for one
/// (kernel, resource, node-count) series.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlReport {
    /// Status of each run, in input order.
    pub statuses: Vec<RunStatus>,
    /// Sustained changes detected.
    pub events: Vec<QosEvent>,
}

/// Analyze a value series in time order.
///
/// The baseline is frozen from the first `baseline_runs` values and
/// re-anchored after each detected event (the new regime becomes the new
/// normal, so recovery is detected as an improvement event rather than
/// sliding silently back).
pub fn analyze(kernel: &AppKernel, values: &[f64], config: ControlConfig) -> ControlReport {
    let mut statuses = Vec::with_capacity(values.len());
    let mut events = Vec::new();
    if values.len() < config.baseline_runs.max(2) {
        return ControlReport {
            statuses: vec![RunStatus::Baseline; values.len()],
            events,
        };
    }

    // Orient values so "higher is better" uniformly.
    let orient = |v: f64| if kernel.higher_is_better { v } else { -v };

    let mut baseline_start = 0usize;
    let mut mean;
    let mut sd;
    let compute_baseline = |start: usize, values: &[f64], n: usize| -> (f64, f64) {
        let window: Vec<f64> = values[start..start + n]
            .iter()
            .map(|&v| orient(v))
            .collect();
        let m = window.iter().sum::<f64>() / window.len() as f64;
        let var = window.iter().map(|v| (v - m).powi(2)).sum::<f64>() / window.len() as f64;
        (m, var.sqrt().max(m.abs() * 1e-6).max(1e-12))
    };
    (mean, sd) = compute_baseline(baseline_start, values, config.baseline_runs);

    let mut streak_dir: i8 = 0;
    let mut streak_len = 0usize;
    let mut streak_start = 0usize;
    // After an event fires but the baseline couldn't re-anchor (not
    // enough remaining data), stay silent for that direction until a run
    // returns in-control — one alarm per incident, not one per run.
    let mut muted_dir: i8 = 0;

    for (i, &raw) in values.iter().enumerate() {
        if i < baseline_start + config.baseline_runs {
            statuses.push(RunStatus::Baseline);
            continue;
        }
        let v = orient(raw);
        let status = if v > mean + config.sigma * sd {
            RunStatus::OutOfControlBetter
        } else if v < mean - config.sigma * sd {
            RunStatus::OutOfControlWorse
        } else {
            RunStatus::InControl
        };
        statuses.push(status);
        let dir: i8 = match status {
            RunStatus::OutOfControlBetter => 1,
            RunStatus::OutOfControlWorse => -1,
            _ => 0,
        };
        if dir == 0 {
            muted_dir = 0;
        }
        if dir != 0 && dir == muted_dir {
            continue;
        }
        if dir != 0 && dir == streak_dir {
            streak_len += 1;
        } else if dir != 0 {
            streak_dir = dir;
            streak_len = 1;
            streak_start = i;
        } else {
            streak_dir = 0;
            streak_len = 0;
        }
        if streak_len == config.streak {
            let observed: Vec<f64> = values[streak_start..=i]
                .iter()
                .map(|&v| orient(v))
                .collect();
            let observed_mean = observed.iter().sum::<f64>() / observed.len() as f64;
            events.push(QosEvent {
                start_index: streak_start,
                run_length: streak_len,
                regression: streak_dir < 0,
                baseline_mean: mean,
                observed_mean,
            });
            // Re-anchor the baseline on the new regime, if enough data
            // remains; otherwise keep the old limits.
            if streak_start + config.baseline_runs <= values.len() {
                baseline_start = streak_start;
                (mean, sd) = compute_baseline(baseline_start, values, config.baseline_runs);
            } else {
                muted_dir = streak_dir;
            }
            streak_dir = 0;
            streak_len = 0;
        }
    }
    ControlReport { statuses, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::default_suite;

    fn dgemm() -> AppKernel {
        default_suite()
            .into_iter()
            .find(|k| k.id == "hpcc_dgemm")
            .unwrap()
    }

    fn latency() -> AppKernel {
        default_suite()
            .into_iter()
            .find(|k| k.id == "osu_latency")
            .unwrap()
    }

    #[test]
    fn steady_series_stays_in_control() {
        let values: Vec<f64> = (0..30).map(|i| 100.0 + f64::from(i % 3) * 0.5).collect();
        let report = analyze(&dgemm(), &values, ControlConfig::default());
        assert!(report.events.is_empty());
        assert!(report
            .statuses
            .iter()
            .skip(8)
            .all(|s| *s == RunStatus::InControl));
    }

    #[test]
    fn throughput_drop_is_a_regression() {
        // 100 ± small noise, then a 20% drop.
        let mut values: Vec<f64> = (0..15).map(|i| 100.0 + f64::from(i % 3) * 0.5).collect();
        values.extend((0..6).map(|i| 80.0 + f64::from(i % 2) * 0.5));
        let report = analyze(&dgemm(), &values, ControlConfig::default());
        assert_eq!(report.events.len(), 1);
        let e = &report.events[0];
        assert!(e.regression);
        assert_eq!(e.start_index, 15);
        assert!(e.relative_change() < -0.15);
    }

    #[test]
    fn latency_increase_is_a_regression_despite_higher_values() {
        // Lower-is-better kernel: latency jumping up must read as WORSE.
        let mut values: Vec<f64> = (0..12).map(|i| 2.0 + f64::from(i % 2) * 0.01).collect();
        values.extend([3.5, 3.6, 3.4, 3.5]);
        let report = analyze(&latency(), &values, ControlConfig::default());
        assert_eq!(report.events.len(), 1);
        assert!(report.events[0].regression);
    }

    #[test]
    fn recovery_after_reanchor_is_an_improvement() {
        let mut values: Vec<f64> = (0..12).map(|_| 100.0).collect();
        values.extend(std::iter::repeat_n(80.0, 10)); // regression regime
        values.extend(std::iter::repeat_n(100.0, 6)); // recovery
        let report = analyze(&dgemm(), &values, ControlConfig::default());
        assert!(report.events.len() >= 2, "{:?}", report.events);
        assert!(report.events[0].regression);
        assert!(
            !report.events[1].regression,
            "recovery should be flagged as improvement"
        );
    }

    #[test]
    fn single_outlier_does_not_fire() {
        let mut values: Vec<f64> = (0..20).map(|i| 100.0 + f64::from(i % 3)).collect();
        values[15] = 60.0; // one bad run
        let report = analyze(&dgemm(), &values, ControlConfig::default());
        assert!(report.events.is_empty());
        assert_eq!(report.statuses[15], RunStatus::OutOfControlWorse);
    }

    #[test]
    fn short_series_is_all_baseline() {
        let report = analyze(&dgemm(), &[1.0, 2.0, 3.0], ControlConfig::default());
        assert!(report.events.is_empty());
        assert!(report.statuses.iter().all(|s| *s == RunStatus::Baseline));
    }

    #[test]
    fn alternating_directions_do_not_accumulate_a_streak() {
        let mut values: Vec<f64> = (0..12).map(|_| 100.0).collect();
        // worse, better, worse, better — never 3 in a row same direction.
        values.extend([60.0, 140.0, 60.0, 140.0, 60.0, 140.0]);
        let report = analyze(&dgemm(), &values, ControlConfig::default());
        assert!(report.events.is_empty());
    }
}
