//! HPC cluster / job-trace simulator.
//!
//! Stands in for the production accounting data this paper's figures are
//! drawn from (XSEDE's Comet, Stampede, and Stampede2; CCR's clusters).
//! Each [`ResourceProfile`] describes one cluster: size, wall-time limit,
//! HPL throughput (the basis of its XD SU conversion factor, §II-C6), and
//! a month-by-month activity curve.
//!
//! The bundled 2017 profiles are shaped after the real systems' year:
//! Comet ran steadily all year; Stampede 1 was ramping *down* toward
//! decommissioning; Stampede2 entered production mid-year and ramped
//! *up*. Those curves — not absolute magnitudes — are what make the
//! regenerated Fig. 1 comparable to the paper's.

use crate::rng::SimRng;
use xdmod_warehouse::time::{days_in_month, format_iso_datetime, CivilDate};

/// Description of one simulated HPC resource.
#[derive(Debug, Clone)]
pub struct ResourceProfile {
    /// Resource name as it appears in XDMoD.
    pub name: String,
    /// Node count.
    pub nodes: u32,
    /// Cores per node.
    pub cores_per_node: u32,
    /// Queue wall-time limit, hours.
    pub wall_limit_hours: f64,
    /// Measured HPL throughput per core, GFLOP/s — the XD SU conversion
    /// factor relative to the Phase-1 DTF reference (factor 1.0).
    pub hpl_gflops_per_core: f64,
    /// Mean completed jobs in a fully-active month.
    pub base_jobs_per_month: u32,
    /// Relative activity per calendar month (index 0 = January).
    pub monthly_activity: [f64; 12],
    /// Size of the submitting-user pool.
    pub n_users: usize,
    /// Queue names, most-used first.
    pub queues: Vec<String>,
}

impl ResourceProfile {
    /// A generic steady-state cluster.
    pub fn generic(name: &str, nodes: u32, wall_limit_hours: f64, gflops_per_core: f64) -> Self {
        ResourceProfile {
            name: name.to_owned(),
            nodes,
            cores_per_node: 24,
            wall_limit_hours,
            hpl_gflops_per_core: gflops_per_core,
            base_jobs_per_month: 300,
            monthly_activity: [1.0; 12],
            n_users: 60,
            queues: vec!["normal".into(), "debug".into(), "large".into()],
        }
    }

    /// Comet-like profile: steady, high activity all of 2017.
    pub fn comet() -> Self {
        ResourceProfile {
            base_jobs_per_month: 500,
            n_users: 120,
            ..ResourceProfile::generic("comet", 1944, 48.0, 1.9)
        }
    }

    /// Stampede-1-like profile: ramping down to decommissioning through
    /// 2017.
    pub fn stampede() -> Self {
        ResourceProfile {
            cores_per_node: 16,
            base_jobs_per_month: 600,
            monthly_activity: [
                1.0, 1.0, 0.95, 0.9, 0.8, 0.7, 0.55, 0.4, 0.3, 0.2, 0.1, 0.05,
            ],
            n_users: 150,
            ..ResourceProfile::generic("stampede", 6400, 48.0, 1.0)
        }
    }

    /// Stampede2-like profile: entering production mid-2017, ramping up.
    /// KNL nodes have many (68) weak cores, so the per-core HPL figure —
    /// and with it the XD SU conversion factor — is well below a Xeon
    /// core's.
    pub fn stampede2() -> Self {
        ResourceProfile {
            cores_per_node: 68,
            base_jobs_per_month: 700,
            monthly_activity: [
                0.0, 0.0, 0.0, 0.0, 0.10, 0.30, 0.50, 0.70, 0.85, 0.95, 1.0, 1.0,
            ],
            n_users: 140,
            ..ResourceProfile::generic("stampede2", 4200, 48.0, 0.55)
        }
    }

    /// Total cores of the machine.
    pub fn total_cores(&self) -> u64 {
        u64::from(self.nodes) * u64::from(self.cores_per_node)
    }
}

/// One simulated job (pre-serialization).
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// Job id, unique within the resource's trace.
    pub job_id: i64,
    /// Resource name.
    pub resource: String,
    /// Submitting user.
    pub user: String,
    /// Account (PI group).
    pub account: String,
    /// Queue.
    pub partition: String,
    /// Nodes allocated.
    pub nodes: i64,
    /// Cores allocated.
    pub cores: i64,
    /// Submit epoch.
    pub submit: i64,
    /// Start epoch.
    pub start: i64,
    /// End epoch.
    pub end: i64,
    /// Final state.
    pub state: String,
    /// GPUs allocated.
    pub gpus: i64,
}

impl SimJob {
    /// Wall hours of the job.
    pub fn wall_hours(&self) -> f64 {
        (self.end - self.start) as f64 / 3600.0
    }

    /// CPU hours of the job.
    pub fn cpu_hours(&self) -> f64 {
        self.cores as f64 * self.wall_hours()
    }

    /// Serialize as one `sacct --parsable2` line.
    pub fn to_sacct_line(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.job_id,
            self.user,
            self.account,
            self.partition,
            self.nodes,
            self.cores,
            format_iso_datetime(self.submit),
            format_iso_datetime(self.start),
            format_iso_datetime(self.end),
            self.state,
            self.gpus
        )
    }
}

/// The cluster simulator: turns a profile + seed into job traces.
#[derive(Debug, Clone)]
pub struct ClusterSim {
    profile: ResourceProfile,
    seed: u64,
}

impl ClusterSim {
    /// Build a simulator; identical `(profile, seed)` pairs produce
    /// identical traces.
    pub fn new(profile: ResourceProfile, seed: u64) -> Self {
        ClusterSim { profile, seed }
    }

    /// The profile being simulated.
    pub fn profile(&self) -> &ResourceProfile {
        &self.profile
    }

    /// Generate all jobs ending in the given months of `year`.
    pub fn jobs(&self, year: i32, months: std::ops::RangeInclusive<u8>) -> Vec<SimJob> {
        let mut root = SimRng::new(self.seed ^ 0x5D1A_FE77);
        let mut out = Vec::new();
        for month in 1..=12u8 {
            // Job ids are deterministic per (year, month) so a trace for
            // one month is a strict subset of the full-year trace.
            let mut job_id: i64 = i64::from(year) * 1_000_000 + i64::from(month) * 10_000;
            // Fork per month unconditionally so the trace for June is the
            // same whether January was requested or not.
            let mut rng = root.fork(u64::from(month));
            if !months.contains(&month) {
                continue;
            }
            let activity = self.profile.monthly_activity[usize::from(month - 1)];
            if activity <= 0.0 {
                continue;
            }
            let jitter = 0.9 + 0.2 * rng.uniform();
            let count =
                (f64::from(self.profile.base_jobs_per_month) * activity * jitter).round() as usize;
            let month_start = CivilDate::new(year, month, 1).to_epoch();
            let month_secs = i64::from(days_in_month(year, month)) * 86_400;
            for _ in 0..count {
                job_id += 1;
                out.push(self.one_job(&mut rng, job_id, month_start, month_secs));
            }
        }
        out
    }

    fn one_job(&self, rng: &mut SimRng, job_id: i64, month_start: i64, month_secs: i64) -> SimJob {
        let p = &self.profile;
        let user_idx = rng.zipf(p.n_users, 1.05);
        let user = format!("{}_u{:03}", p.name, user_idx);
        // ~5 users per PI group.
        let account = format!("{}_pi{:02}", p.name, user_idx / 5);
        let queue_weights: Vec<f64> = (0..p.queues.len())
            .map(|i| 1.0 / f64::powi(2.0, i as i32))
            .collect();
        let partition = p.queues[rng.weighted(&queue_weights)].clone();

        // Node counts: log-normal-ish, mostly small jobs, capped at 1/4 of
        // the machine.
        let max_nodes = (p.nodes / 4).max(1);
        let nodes = rng
            .lognormal(2.0, 1.2)
            .round()
            .clamp(1.0, f64::from(max_nodes)) as i64;
        let cores = nodes * i64::from(p.cores_per_node);

        // Wall time: log-normal, capped by the queue limit; timed-out jobs
        // sit exactly at the limit.
        let state_roll = rng.uniform();
        let (state, wall_hours) = if state_roll < 0.90 {
            (
                "COMPLETED",
                rng.lognormal(1.2, 1.1).min(p.wall_limit_hours * 0.98),
            )
        } else if state_roll < 0.96 {
            (
                "FAILED",
                rng.lognormal(0.3, 1.3).min(p.wall_limit_hours * 0.98),
            )
        } else if state_roll < 0.99 {
            ("TIMEOUT", p.wall_limit_hours)
        } else {
            (
                "CANCELLED",
                rng.lognormal(0.1, 1.0).min(p.wall_limit_hours * 0.5),
            )
        };
        let wall_secs = (wall_hours * 3600.0).max(1.0) as i64;

        let submit = month_start + rng.uniform_int(0, month_secs.max(1));
        let wait_secs = rng.exponential(0.75 * 3600.0) as i64;
        let start = submit + wait_secs;
        let end = start + wall_secs;
        // GPUs on ~8% of jobs.
        let gpus = if rng.chance(0.08) {
            nodes * rng.uniform_int(1, 5)
        } else {
            0
        };
        SimJob {
            job_id,
            resource: p.name.clone(),
            user,
            account,
            partition,
            nodes,
            cores,
            submit,
            start,
            end,
            state: state.to_owned(),
            gpus,
        }
    }

    /// Render the month range as a complete `sacct` export (header +
    /// records).
    pub fn sacct_log(&self, year: i32, months: std::ops::RangeInclusive<u8>) -> String {
        let mut log = String::from(
            "JobID|User|Account|Partition|NNodes|NCPUS|Submit|Start|End|State|AllocGPUs\n",
        );
        for job in self.jobs(year, months) {
            log.push_str(&job.to_sacct_line());
            log.push('\n');
        }
        log
    }

    /// Render a PCP-style performance archive for a slice of jobs — the
    /// SUPReMM realm's raw input. Sample cadence is one point per 10
    /// minutes of runtime (capped), correlated with the job's size.
    pub fn pcp_archive(&self, jobs: &[SimJob]) -> String {
        let mut rng = SimRng::new(self.seed ^ 0x9C9_0AC); // distinct stream from jobs()
        let mut out = String::new();
        for job in jobs {
            out.push_str(&format!(
                "job {} {} {} {}\n",
                job.job_id, job.resource, job.user, job.end
            ));
            let n_samples = (((job.end - job.start) / 600).clamp(1, 16)) as usize;
            let base_cpu = 0.55 + 0.4 * rng.uniform();
            let base_mem = rng.lognormal(8.0, 0.8);
            for s in 0..n_samples {
                let ts = job.start + (s as i64) * 600;
                let wobble = 0.95 + 0.1 * rng.uniform();
                out.push_str(&format!(
                    "ts {ts} cpu_user {:.4}\n",
                    (base_cpu * wobble).min(1.0)
                ));
                out.push_str(&format!("ts {ts} memory_used {:.3}\n", base_mem * wobble));
                out.push_str(&format!(
                    "ts {ts} memory_bandwidth {:.3}\n",
                    20.0 * base_cpu * wobble
                ));
                out.push_str(&format!("ts {ts} flops {:.3}\n", 9.5 * base_cpu * wobble));
                out.push_str(&format!(
                    "ts {ts} block_read {:.4}\n",
                    rng.exponential(0.05)
                ));
                out.push_str(&format!(
                    "ts {ts} block_write {:.4}\n",
                    rng.exponential(0.03)
                ));
            }
            out.push_str(&format!(
                "script #!/bin/bash\\n#SBATCH -N {}\\nsrun ./app_{}\n",
                job.nodes, job.partition
            ));
            out.push_str("end\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = ClusterSim::new(ResourceProfile::comet(), 42).sacct_log(2017, 1..=3);
        let b = ClusterSim::new(ResourceProfile::comet(), 42).sacct_log(2017, 1..=3);
        assert_eq!(a, b);
        let c = ClusterSim::new(ResourceProfile::comet(), 43).sacct_log(2017, 1..=3);
        assert_ne!(a, c);
    }

    #[test]
    fn month_subsets_are_consistent() {
        // June's jobs must be identical whether we ask for 6..=6 or 1..=12.
        let sim = ClusterSim::new(ResourceProfile::comet(), 42);
        let june_only = sim.jobs(2017, 6..=6);
        let full_year = sim.jobs(2017, 1..=12);
        let june_of_full: Vec<&SimJob> = full_year
            .iter()
            .filter(|j| june_only.iter().any(|k| k.job_id == j.job_id))
            .collect();
        assert_eq!(june_only.len(), june_of_full.len());
        assert!(!june_only.is_empty());
        for (a, b) in june_only.iter().zip(june_of_full) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn stampede2_is_dark_before_may() {
        let sim = ClusterSim::new(ResourceProfile::stampede2(), 7);
        assert!(sim.jobs(2017, 1..=4).is_empty());
        assert!(!sim.jobs(2017, 5..=5).is_empty());
    }

    #[test]
    fn stampede_ramps_down() {
        let sim = ClusterSim::new(ResourceProfile::stampede(), 7);
        let jan = sim.jobs(2017, 1..=1).len();
        let dec = sim.jobs(2017, 12..=12).len();
        assert!(jan > dec * 5, "jan {jan} dec {dec}");
    }

    #[test]
    fn jobs_respect_resource_invariants() {
        let profile = ResourceProfile::comet();
        let wall_limit = profile.wall_limit_hours;
        let max_nodes = i64::from(profile.nodes);
        let sim = ClusterSim::new(profile, 99);
        for job in sim.jobs(2017, 1..=2) {
            assert!(job.nodes >= 1 && job.nodes <= max_nodes);
            assert_eq!(job.cores, job.nodes * 24);
            assert!(job.submit <= job.start);
            assert!(job.start < job.end);
            assert!(
                job.wall_hours() <= wall_limit + 1e-9,
                "{}",
                job.wall_hours()
            );
            assert!(job.gpus >= 0);
        }
    }

    #[test]
    fn sacct_log_parses_through_ingest() {
        let sim = ClusterSim::new(ResourceProfile::comet(), 5);
        let log = sim.sacct_log(2017, 1..=1);
        let (records, report) = xdmod_ingest::slurm::parse_log(&log).unwrap();
        assert!(!records.is_empty());
        assert_eq!(report.skipped, 0);
        assert_eq!(records.len(), sim.jobs(2017, 1..=1).len());
    }

    #[test]
    fn pcp_archive_parses_through_ingest() {
        let sim = ClusterSim::new(ResourceProfile::comet(), 5);
        let jobs = sim.jobs(2017, 1..=1);
        let archive = sim.pcp_archive(&jobs[..10.min(jobs.len())]);
        let (parsed, _) = xdmod_ingest::pcp::parse_archive(&archive).unwrap();
        assert_eq!(parsed.len(), 10.min(jobs.len()));
        assert!(parsed[0].samples.iter().any(|(_, m, _)| m == "cpu_user"));
        assert!(parsed[0].script.contains("#SBATCH"));
    }

    #[test]
    fn timeout_jobs_hit_the_wall_limit() {
        let sim = ClusterSim::new(ResourceProfile::comet(), 31);
        let jobs = sim.jobs(2017, 1..=6);
        let timeouts: Vec<&SimJob> = jobs.iter().filter(|j| j.state == "TIMEOUT").collect();
        assert!(!timeouts.is_empty());
        for t in timeouts {
            assert!((t.wall_hours() - 48.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fig1_yearly_ordering_holds() {
        // Total XD SUs for 2017 must rank Comet > Stampede2 > Stampede
        // (the paper's Fig. 1 ordering).
        let su = |profile: ResourceProfile, seed: u64| -> f64 {
            let factor = profile.hpl_gflops_per_core;
            ClusterSim::new(profile, seed)
                .jobs(2017, 1..=12)
                .iter()
                .map(|j| j.cpu_hours() * factor)
                .sum()
        };
        let comet = su(ResourceProfile::comet(), 1);
        let stampede = su(ResourceProfile::stampede(), 2);
        let stampede2 = su(ResourceProfile::stampede2(), 3);
        assert!(comet > stampede2, "comet {comet} vs stampede2 {stampede2}");
        assert!(
            stampede2 > stampede,
            "stampede2 {stampede2} vs stampede {stampede}"
        );
    }
}
