//! Research-cloud (OpenStack-like) VM fleet simulator.
//!
//! Stands in for "CCR's installation of the widely-deployed OpenStack
//! platform API, backed by the Ceph storage platform" (§III-B) and for
//! the Aristotle three-site research cloud. Emits the lifecycle event
//! feed `xdmod-ingest::cloud` sessionizes: CREATE / START / STOP / PAUSE
//! / RESUME / RESIZE / TERMINATE, with flavor-dependent lifetimes so the
//! regenerated Fig. 7 (average core-hours per VM by memory size) has the
//! paper's increasing-with-size shape.

use crate::rng::SimRng;
use xdmod_warehouse::time::CivilDate;

/// A VM flavor (instance type).
#[derive(Debug, Clone)]
pub struct FlavorProfile {
    /// Flavor name.
    pub name: String,
    /// vCPUs.
    pub cores: i64,
    /// Memory, GB. The paper's Fig. 7 bins are `<1`, `1-2`, `2-4`,
    /// `4-8` GB.
    pub memory_gb: f64,
    /// Disk, GB.
    pub disk_gb: f64,
    /// Relative creation frequency.
    pub popularity: f64,
    /// Mean total running time per VM, hours.
    pub mean_run_hours: f64,
}

/// Default CCR-research-cloud-like flavor set: one flavor per Fig. 7
/// memory bin, with bigger flavors living longer.
pub fn default_flavors() -> Vec<FlavorProfile> {
    vec![
        FlavorProfile {
            name: "m1.tiny".into(),
            cores: 1,
            memory_gb: 0.5,
            disk_gb: 10.0,
            popularity: 3.0,
            mean_run_hours: 30.0,
        },
        FlavorProfile {
            name: "m1.small".into(),
            cores: 1,
            memory_gb: 1.5,
            disk_gb: 20.0,
            popularity: 4.0,
            mean_run_hours: 90.0,
        },
        FlavorProfile {
            name: "m1.medium".into(),
            cores: 2,
            memory_gb: 3.0,
            disk_gb: 40.0,
            popularity: 2.5,
            mean_run_hours: 200.0,
        },
        FlavorProfile {
            name: "m1.large".into(),
            cores: 4,
            memory_gb: 6.0,
            disk_gb: 80.0,
            popularity: 1.2,
            mean_run_hours: 420.0,
        },
    ]
}

/// The cloud fleet simulator.
#[derive(Debug, Clone)]
pub struct CloudSim {
    /// Cloud resource name (e.g. `ccr-cloud`, `cornell-cloud`).
    pub resource: String,
    flavors: Vec<FlavorProfile>,
    projects: Vec<String>,
    n_users: usize,
    vms_per_month: u32,
    seed: u64,
}

impl CloudSim {
    /// Build a simulator with the default flavor set.
    pub fn new(resource: &str, vms_per_month: u32, seed: u64) -> Self {
        CloudSim {
            resource: resource.to_owned(),
            flavors: default_flavors(),
            projects: vec![
                "aristotle".into(),
                "genomics".into(),
                "hydrology".into(),
                "teaching".into(),
            ],
            n_users: 40,
            vms_per_month,
            seed,
        }
    }

    /// The flavor catalog.
    pub fn flavors(&self) -> &[FlavorProfile] {
        &self.flavors
    }

    /// Generate the event feed (CSV with header) for one year. Events are
    /// globally sorted by timestamp; VMs created near year-end may still
    /// be running at the horizon.
    pub fn event_feed(&self, year: i32) -> String {
        let mut events: Vec<(i64, String)> = Vec::new();
        let year_start = CivilDate::new(year, 1, 1).to_epoch();
        let year_end = CivilDate::new(year + 1, 1, 1).to_epoch();
        let mut vm_counter = 0u32;
        let weights: Vec<f64> = self.flavors.iter().map(|f| f.popularity).collect();

        for month in 1..=12u8 {
            let mut rng =
                SimRng::new(self.seed ^ (u64::from(month) << 16) ^ (year as u64).rotate_left(7));
            let month_start = CivilDate::new(year, month, 1).to_epoch();
            let count = (f64::from(self.vms_per_month) * (0.85 + 0.3 * rng.uniform())) as u32;
            for _ in 0..count {
                vm_counter += 1;
                let vm_id = format!("vm-{}-{vm_counter:05}", self.resource);
                let flavor = &self.flavors[rng.weighted(&weights)];
                let user = format!("cloud_u{:02}", rng.zipf(self.n_users, 1.0));
                let project = self.projects[rng.weighted(&[3.0, 2.0, 1.5, 1.0])].clone();
                let venue =
                    ["api", "dashboard", "cli", "gateway"][rng.weighted(&[3.0, 3.0, 2.0, 1.0])];
                let config = |f: &FlavorProfile| {
                    format!(
                        "{user},{project},{},{},{},{},{venue},{}",
                        f.name, f.cores, f.memory_gb, f.disk_gb, self.resource
                    )
                };
                let mut t = month_start + rng.uniform_int(0, 28 * 86_400);
                events.push((t, format!("{t},{vm_id},CREATE,{}", config(flavor))));
                t += rng.uniform_int(30, 600);
                events.push((t, format!("{t},{vm_id},START,,,,,,,,")));

                // Split the VM's total running budget over 1-3 sessions,
                // with stop/pause gaps between them, then terminate (or
                // run past the horizon).
                let total_run_secs = (rng.exponential(flavor.mean_run_hours) * 3600.0) as i64;
                let sessions = 1 + rng.uniform_int(0, 3);
                let mut remaining = total_run_secs.max(600);
                let mut alive = true;
                for s in 0..sessions {
                    let chunk = if s == sessions - 1 {
                        remaining
                    } else {
                        let c = remaining / 2 + rng.uniform_int(0, (remaining / 2).max(1));
                        remaining -= c;
                        c
                    };
                    t += chunk.max(60);
                    if t >= year_end {
                        // Still running at the horizon: no further events.
                        alive = false;
                        break;
                    }
                    if s == sessions - 1 {
                        events.push((t, format!("{t},{vm_id},TERMINATE,,,,,,,,")));
                        alive = false;
                    } else if rng.chance(0.2) {
                        // Mid-life resize to the next flavor up.
                        let idx = self
                            .flavors
                            .iter()
                            .position(|f| f.name == flavor.name)
                            .unwrap(); // xc-allow: flavor was drawn from self.flavors
                        let next = &self.flavors[(idx + 1).min(self.flavors.len() - 1)];
                        events.push((t, format!("{t},{vm_id},RESIZE,{}", config(next))));
                    } else if rng.chance(0.5) {
                        events.push((t, format!("{t},{vm_id},PAUSE,,,,,,,,")));
                        t += rng.uniform_int(600, 48 * 3600);
                        if t >= year_end {
                            alive = false;
                            break;
                        }
                        events.push((t, format!("{t},{vm_id},RESUME,,,,,,,,")));
                    } else {
                        events.push((t, format!("{t},{vm_id},STOP,,,,,,,,")));
                        t += rng.uniform_int(600, 72 * 3600);
                        if t >= year_end {
                            alive = false;
                            break;
                        }
                        events.push((t, format!("{t},{vm_id},START,,,,,,,,")));
                    }
                }
                let _ = alive;
            }
        }
        events.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut feed = String::from(
            "ts,vm_id,event,user,project,instance_type,cores,memory_gb,disk_gb,venue,resource\n",
        );
        let _ = year_start;
        for (_, line) in events {
            feed.push_str(&line);
            feed.push('\n');
        }
        feed
    }

    /// The observation horizon for a year's feed (start of the next
    /// year) — pass this to `xdmod-ingest::cloud::shred`.
    pub fn horizon(year: i32) -> i64 {
        CivilDate::new(year + 1, 1, 1).to_epoch()
    }

    /// Generate a reservation (purchased capacity) feed for the year:
    /// each project buys quarterly blocks sized from its expected usage
    /// with deliberate over-provisioning — the behaviour the paper's
    /// reservation tracking is meant to expose.
    pub fn reservation_feed(&self, year: i32) -> String {
        let mut rng = SimRng::new(self.seed ^ 0x5E_5E11);
        let mut out =
            String::from("reservation_id,resource,project,user,cores,memory_gb,start,end\n");
        let mut counter = 0;
        for quarter in 0..4u8 {
            let start = CivilDate::new(year, quarter * 3 + 1, 1).to_epoch();
            let end = if quarter == 3 {
                CivilDate::new(year + 1, 1, 1).to_epoch()
            } else {
                CivilDate::new(year, quarter * 3 + 4, 1).to_epoch()
            };
            for (p_idx, project) in self.projects.iter().enumerate() {
                counter += 1;
                // Over-provision by 1.2-2.5x of a rough expected usage.
                let cores = 4 + rng.uniform_int(0, 4 + p_idx as i64 * 2);
                let memory = cores as f64 * 2.0;
                let owner = format!("cloud_u{:02}", rng.zipf(self.n_users, 1.0));
                out.push_str(&format!(
                    "rsv-{counter:04},{},{project},{owner},{cores},{memory},{start},{end}\n",
                    self.resource
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_ingest::cloud::shred;

    #[test]
    fn feed_is_deterministic() {
        let a = CloudSim::new("ccr-cloud", 20, 3).event_feed(2017);
        let b = CloudSim::new("ccr-cloud", 20, 3).event_feed(2017);
        assert_eq!(a, b);
        assert_ne!(a, CloudSim::new("ccr-cloud", 20, 4).event_feed(2017));
    }

    #[test]
    fn feed_sessionizes_cleanly() {
        let sim = CloudSim::new("ccr-cloud", 25, 7);
        let feed = sim.event_feed(2017);
        let (rows, report) = shred(&feed, CloudSim::horizon(2017)).unwrap();
        assert!(!rows.is_empty());
        // A well-formed feed should produce no transition warnings.
        assert_eq!(
            report.skipped,
            0,
            "warnings: {:?}",
            &report.warnings[..report.warnings.len().min(5)]
        );
        let schema = xdmod_realms::cloud::fact_schema();
        for row in &rows {
            schema.check_row(row.clone()).unwrap();
        }
    }

    #[test]
    fn sessions_have_positive_core_hours_for_running_vms() {
        let sim = CloudSim::new("ccr-cloud", 15, 11);
        let feed = sim.event_feed(2017);
        let (rows, _) = shred(&feed, CloudSim::horizon(2017)).unwrap();
        let schema = xdmod_realms::cloud::fact_schema();
        let wall = schema.column_index("wall_hours").unwrap();
        let ch = schema.column_index("core_hours").unwrap();
        for row in &rows {
            let w = row[wall].as_f64().unwrap();
            let c = row[ch].as_f64().unwrap();
            assert!(w >= 0.0);
            assert!(c >= w - 1e-9); // cores >= 1
        }
    }

    #[test]
    fn fig7_shape_core_hours_increase_with_memory_bin() {
        let sim = CloudSim::new("ccr-cloud", 40, 5);
        let feed = sim.event_feed(2017);
        let (rows, _) = shred(&feed, CloudSim::horizon(2017)).unwrap();
        let schema = xdmod_realms::cloud::fact_schema();
        let mem = schema.column_index("memory_gb").unwrap();
        let ch = schema.column_index("core_hours").unwrap();
        let vm = schema.column_index("vm_id").unwrap();

        // Average core hours per VM per Fig. 7 memory bin.
        let bins = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (4.0, 8.0)];
        let mut avg = Vec::new();
        for (lo, hi) in bins {
            let mut hours = 0.0;
            let mut vms = std::collections::HashSet::new();
            for row in &rows {
                let m = row[mem].as_f64().unwrap();
                if m >= lo && m < hi {
                    hours += row[ch].as_f64().unwrap();
                    vms.insert(row[vm].as_str().unwrap().to_owned());
                }
            }
            assert!(!vms.is_empty(), "no VMs in bin [{lo},{hi})");
            avg.push(hours / vms.len() as f64);
        }
        for pair in avg.windows(2) {
            assert!(
                pair[1] > pair[0],
                "Fig 7 shape violated: {avg:?} not increasing"
            );
        }
    }

    #[test]
    fn some_vms_survive_to_the_horizon() {
        let sim = CloudSim::new("ccr-cloud", 30, 13);
        let feed = sim.event_feed(2017);
        let (rows, _) = shred(&feed, CloudSim::horizon(2017)).unwrap();
        let schema = xdmod_realms::cloud::fact_schema();
        let ended = schema.column_index("ended").unwrap();
        let open = rows
            .iter()
            .filter(|r| r[ended] == xdmod_warehouse::Value::Bool(false))
            .count();
        assert!(open > 0, "expected some still-running sessions");
    }

    #[test]
    fn reservation_feed_parses_and_over_provisions() {
        let sim = CloudSim::new("ccr-cloud", 20, 3);
        let feed = sim.reservation_feed(2017);
        let (rows, report) = xdmod_ingest::cloud::shred_reservations(&feed).unwrap();
        assert_eq!(report.ingested, 16); // 4 quarters x 4 projects
        let schema = xdmod_realms::cloud::reservation_schema();
        for row in &rows {
            schema.check_row(row.clone()).unwrap();
        }
        // Deterministic.
        assert_eq!(
            feed,
            CloudSim::new("ccr-cloud", 20, 3).reservation_feed(2017)
        );
    }

    #[test]
    fn resizes_appear_in_feed() {
        let feed = CloudSim::new("ccr-cloud", 60, 17).event_feed(2017);
        assert!(feed.contains(",RESIZE,"), "no resizes generated");
        assert!(feed.contains(",PAUSE,"));
        assert!(feed.contains(",STOP,"));
    }
}
