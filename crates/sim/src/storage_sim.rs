//! Storage filesystem growth simulator.
//!
//! Stands in for CCR's Isilon and GPFS storage (§III-A: "the storage
//! realm is being developed against CCR's Isilon and GPFS storage, both
//! persistent and scratch"). Emits monthly per-user usage samples as the
//! JSON documents `xdmod-ingest::storage_json` validates and shreds.
//!
//! The growth model is multiplicative month-over-month with per-user
//! noise, matching the steady climb of both file count and physical usage
//! visible in the paper's Fig. 6.

use crate::rng::SimRng;
use xdmod_check::json::{escape, push_f64};
use xdmod_warehouse::time::{days_in_month, format_iso_datetime, CivilDate};

/// One simulated filesystem.
#[derive(Debug, Clone)]
pub struct FilesystemProfile {
    /// Filesystem name (the Storage realm's "Resource (Filesystem)").
    pub name: String,
    /// Mount point.
    pub mountpoint: String,
    /// `persistent` or `scratch`.
    pub resource_type: String,
    /// Number of users with data on this filesystem.
    pub n_users: usize,
    /// Mean files per user in January.
    pub base_files_per_user: f64,
    /// Mean logical usage per user in January, GB.
    pub base_usage_gb_per_user: f64,
    /// Month-over-month multiplicative growth (0.05 = +5%/month).
    pub monthly_growth: f64,
    /// Physical/logical overhead ratio (replication, snapshots).
    pub physical_overhead: f64,
    /// Per-user (soft, hard) quota in GB, if the filesystem enforces one.
    pub quota_gb: Option<(f64, f64)>,
}

impl FilesystemProfile {
    /// CCR-like Isilon home filesystem: persistent, quota'd.
    pub fn isilon_home() -> Self {
        FilesystemProfile {
            name: "isilon-home".into(),
            mountpoint: "/home".into(),
            resource_type: "persistent".into(),
            n_users: 80,
            base_files_per_user: 40_000.0,
            base_usage_gb_per_user: 35.0,
            monthly_growth: 0.045,
            physical_overhead: 1.25,
            quota_gb: Some((100.0, 120.0)),
        }
    }

    /// CCR-like GPFS scratch filesystem: volatile, no quota.
    pub fn gpfs_scratch() -> Self {
        FilesystemProfile {
            name: "gpfs-scratch".into(),
            mountpoint: "/scratch".into(),
            resource_type: "scratch".into(),
            n_users: 55,
            base_files_per_user: 90_000.0,
            base_usage_gb_per_user: 220.0,
            monthly_growth: 0.03,
            physical_overhead: 1.1,
            quota_gb: None,
        }
    }
}

/// One drawn sample: a user's usage of one filesystem at a month's end.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSample {
    /// Sample time, epoch seconds.
    pub ts: i64,
    /// Filesystem name.
    pub filesystem: String,
    /// Mount point.
    pub mountpoint: String,
    /// `persistent` or `scratch`.
    pub resource_type: String,
    /// XDMoD user.
    pub user: String,
    /// The user's PI.
    pub pi: String,
    /// The user's account on the filesystem.
    pub system_username: String,
    /// Files owned.
    pub file_count: i64,
    /// Logical usage, GB, rounded to three decimals.
    pub logical_usage_gb: f64,
    /// Physical usage, GB, rounded to three decimals.
    pub physical_usage_gb: f64,
    /// (soft, hard) quota in GB, if the filesystem enforces one.
    pub quota_gb: Option<(f64, f64)>,
}

impl StorageSample {
    /// Append this sample as one JSON object, keys in byte order.
    fn write_json(&self, out: &mut String) {
        let number = |x: f64| {
            let mut text = String::new();
            push_f64(&mut text, x);
            text
        };
        let mut members = vec![
            ("file_count", self.file_count.to_string()),
            ("filesystem", escape(&self.filesystem)),
            ("logical_usage_gb", number(self.logical_usage_gb)),
            ("mountpoint", escape(&self.mountpoint)),
            ("physical_usage_gb", number(self.physical_usage_gb)),
            ("pi", escape(&self.pi)),
            ("resource_type", escape(&self.resource_type)),
            ("system_username", escape(&self.system_username)),
            ("ts", escape(&format_iso_datetime(self.ts))),
            ("user", escape(&self.user)),
        ];
        if let Some((soft, hard)) = self.quota_gb {
            members.push(("hard_quota_gb", number(hard)));
            members.push(("soft_quota_gb", number(soft)));
        }
        members.sort_unstable_by_key(|(key, _)| *key);
        out.push('{');
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape(key));
            out.push(':');
            out.push_str(value);
        }
        out.push('}');
    }
}

/// The storage simulator.
#[derive(Debug, Clone)]
pub struct StorageSim {
    filesystems: Vec<FilesystemProfile>,
    seed: u64,
}

impl StorageSim {
    /// Build from explicit filesystem profiles.
    pub fn new(filesystems: Vec<FilesystemProfile>, seed: u64) -> Self {
        StorageSim { filesystems, seed }
    }

    /// CCR-like preset: Isilon home + GPFS scratch.
    pub fn ccr(seed: u64) -> Self {
        StorageSim::new(
            vec![
                FilesystemProfile::isilon_home(),
                FilesystemProfile::gpfs_scratch(),
            ],
            seed,
        )
    }

    /// The configured filesystems.
    pub fn filesystems(&self) -> &[FilesystemProfile] {
        &self.filesystems
    }

    /// Draw one month's samples: one per (filesystem, user), taken at the
    /// end of the month.
    pub fn samples(&self, year: i32, month: u8) -> Vec<StorageSample> {
        let last_day = days_in_month(year, month);
        let ts = CivilDate::new(year, month, last_day).to_epoch() + 23 * 3600 + 59 * 60;
        let growth_exp = f64::from(month - 1);
        let mut samples = Vec::new();
        for (fs_idx, fs) in self.filesystems.iter().enumerate() {
            let mut rng = SimRng::new(
                self.seed ^ (fs_idx as u64) << 32 ^ u64::from(month) << 8 ^ year as u64,
            );
            let growth = (1.0 + fs.monthly_growth).powf(growth_exp);
            for user_idx in 0..fs.n_users {
                // Heavy-tailed per-user scale, stable across months for
                // the same user.
                let mut user_rng =
                    SimRng::new(self.seed ^ ((fs_idx as u64) << 48) ^ user_idx as u64);
                let user_scale = user_rng.lognormal(1.0, 0.9);
                let wobble = 0.97 + 0.06 * rng.uniform();
                let files = (fs.base_files_per_user * user_scale * growth * wobble).round() as i64;
                let logical = fs.base_usage_gb_per_user * user_scale * growth * wobble;
                let physical = logical * fs.physical_overhead;
                samples.push(StorageSample {
                    ts,
                    filesystem: fs.name.clone(),
                    mountpoint: fs.mountpoint.clone(),
                    resource_type: fs.resource_type.clone(),
                    user: format!("user{user_idx:03}"),
                    pi: format!("pi{:02}", user_idx / 5),
                    system_username: format!("u{user_idx:05}"),
                    file_count: files.max(0),
                    logical_usage_gb: round3(logical),
                    physical_usage_gb: round3(physical),
                    quota_gb: fs.quota_gb,
                });
            }
        }
        samples
    }

    /// The JSON sample document for one month: [`StorageSim::samples`] as
    /// the array `xdmod-ingest::storage_json` validates, each object's
    /// keys in byte order, without whitespace.
    pub fn json_document(&self, year: i32, month: u8) -> String {
        let samples = self.samples(year, month);
        let mut out = String::with_capacity(samples.len() * 300);
        out.push('[');
        for (i, s) in samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            s.write_json(&mut out);
        }
        out.push(']');
        out
    }

    /// Generate documents for every month of a year.
    pub fn year_documents(&self, year: i32) -> Vec<String> {
        (1..=12).map(|m| self.json_document(year, m)).collect()
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdmod_check::json::{self, JsonValue};

    /// A month's samples.
    fn samples_of<'d>(doc: &'d json::Document) -> Vec<JsonValue<'d>> {
        match doc.root().as_array() {
            Some(samples) => samples.collect(),
            None => panic!("not an array: {doc}"),
        }
    }

    fn str_field<'v>(sample: JsonValue<'v>, key: &str) -> &'v str {
        sample.get(key).and_then(JsonValue::as_str).unwrap()
    }

    #[test]
    fn documents_are_deterministic() {
        let a = StorageSim::ccr(9).json_document(2017, 4);
        let b = StorageSim::ccr(9).json_document(2017, 4);
        assert_eq!(a, b);
        assert_ne!(a, StorageSim::ccr(10).json_document(2017, 4));
    }

    #[test]
    fn documents_validate_against_ingest_schema() {
        let doc = StorageSim::ccr(3).json_document(2017, 6);
        let (rows, report) = xdmod_ingest::storage_json::shred(&doc).unwrap();
        assert_eq!(report.skipped, 0);
        assert_eq!(rows.len(), 80 + 55);
        let schema = xdmod_realms::storage::fact_schema();
        for row in rows {
            schema.check_row(row).unwrap();
        }
    }

    #[test]
    fn fig6_shape_totals_grow_month_over_month() {
        let sim = StorageSim::ccr(1);
        let mut prev_files = 0i64;
        let mut prev_physical = 0.0f64;
        for month in 1..=12u8 {
            let doc = sim.json_document(2017, month);
            let doc = json::parse(&doc).unwrap();
            let samples = samples_of(&doc);
            let files: i64 = samples
                .iter()
                .map(|s| s.get("file_count").and_then(JsonValue::as_i64).unwrap())
                .sum();
            let physical: f64 = samples
                .iter()
                .map(|s| {
                    s.get("physical_usage_gb")
                        .and_then(JsonValue::as_f64)
                        .unwrap()
                })
                .sum();
            assert!(files > prev_files, "month {month}: files shrank");
            assert!(physical > prev_physical, "month {month}: usage shrank");
            prev_files = files;
            prev_physical = physical;
        }
    }

    #[test]
    fn scratch_has_no_quota_home_does() {
        let doc = StorageSim::ccr(5).json_document(2017, 1);
        let doc = json::parse(&doc).unwrap();
        let samples = samples_of(&doc);
        let home = samples
            .iter()
            .find(|s| str_field(**s, "filesystem") == "isilon-home")
            .unwrap();
        let scratch = samples
            .iter()
            .find(|s| str_field(**s, "filesystem") == "gpfs-scratch")
            .unwrap();
        assert!(home.get("soft_quota_gb").is_some());
        assert!(scratch.get("soft_quota_gb").is_none());
    }

    #[test]
    fn document_writes_sorted_keys_and_shortest_floats() {
        let sample = StorageSample {
            ts: CivilDate::new(2017, 1, 31).to_epoch() + 23 * 3600 + 59 * 60,
            filesystem: "isilon-home".into(),
            mountpoint: "/home".into(),
            resource_type: "persistent".into(),
            user: "user\"7".into(),
            pi: "pi01".into(),
            system_username: "u00007".into(),
            file_count: 41_234,
            logical_usage_gb: 1e16,
            physical_usage_gb: 0.125,
            quota_gb: Some((100.0, 120.0)),
        };
        let mut out = String::new();
        sample.write_json(&mut out);
        assert_eq!(
            out,
            concat!(
                r#"{"file_count":41234,"filesystem":"isilon-home","hard_quota_gb":120.0,"#,
                r#""logical_usage_gb":1e16,"mountpoint":"/home","physical_usage_gb":0.125,"#,
                r#""pi":"pi01","resource_type":"persistent","soft_quota_gb":100.0,"#,
                r#""system_username":"u00007","ts":"2017-01-31T23:59:00","user":"user\"7"}"#
            )
        );
    }

    #[test]
    fn year_documents_cover_twelve_months() {
        assert_eq!(StorageSim::ccr(2).year_documents(2017).len(), 12);
    }

    #[test]
    fn per_user_scale_is_stable_across_months() {
        // The same user should stay a heavy or light user all year.
        let sim = StorageSim::ccr(8);
        let get_user = |month: u8| -> f64 {
            let doc = sim.json_document(2017, month);
            let doc = json::parse(&doc).unwrap();
            let samples = samples_of(&doc);
            samples
                .iter()
                .find(|s| {
                    str_field(**s, "filesystem") == "isilon-home"
                        && str_field(**s, "user") == "user007"
                })
                .and_then(|s| s.get("logical_usage_gb"))
                .and_then(JsonValue::as_f64)
                .unwrap()
        };
        let jan = get_user(1);
        let dec = get_user(12);
        // Growth plus noise, but within a factor reflecting (1.045)^11.
        let ratio = dec / jan;
        assert!(ratio > 1.3 && ratio < 2.0, "ratio {ratio}");
    }
}
