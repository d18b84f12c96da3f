//! JSON-configured aggregation levels (Table I).
//!
//! "Aggregation levels, which are managed by JSON configuration files,
//! apply only to numeric dimensions, such as job wall time, job size
//! (core count), CPU User value, and peak memory usage. Deciding on the
//! aggregation levels that best suit an XDMoD instance is a task for the
//! system administrator at installation time; aggregation levels are
//! fully configurable on each instance and on the federation hub."
//! (§II-C3)
//!
//! An [`AggregationLevelsConfig`] maps numeric dimension ids to ordered
//! bin lists. The presets reproduce Table I: Instance A (5-hour wall
//! limit), Instance B (50-hour limit), and the federation hub spanning
//! both.

use std::collections::BTreeMap;
use xdmod_check::json::{self, JsonValue};
use xdmod_warehouse::{Bin, Bins};

/// One configured level: a labeled `[lo, hi)` range in the dimension's
/// native unit (hours for wall time, cores for job size, GB for memory).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSpec {
    /// Display label (e.g. `"1-5 hours"`).
    pub label: String,
    /// Inclusive lower edge.
    pub lo: f64,
    /// Exclusive upper edge.
    pub hi: f64,
}

impl LevelSpec {
    /// Construct a level.
    pub fn new(label: &str, lo: f64, hi: f64) -> Self {
        LevelSpec {
            label: label.to_owned(),
            lo,
            hi,
        }
    }
}

/// The per-instance aggregation-levels configuration file:
/// `{"dimensions": {"wall_hours": [{"label": "1-5 hours", "lo": 1.0,
/// "hi": 5.0}, ...]}}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregationLevelsConfig {
    /// Dimension id → ordered levels.
    pub dimensions: BTreeMap<String, Vec<LevelSpec>>,
}

impl AggregationLevelsConfig {
    /// Empty config.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the levels for a dimension, replacing any previous setting.
    pub fn set(&mut self, dimension: &str, levels: Vec<LevelSpec>) -> &mut Self {
        self.dimensions.insert(dimension.to_owned(), levels);
        self
    }

    /// The levels configured for a dimension.
    pub fn get(&self, dimension: &str) -> Option<&[LevelSpec]> {
        self.dimensions.get(dimension).map(Vec::as_slice)
    }

    /// Compile a dimension's levels into warehouse [`Bins`]. Errors with a
    /// human-readable message if levels are missing, empty, or overlap.
    pub fn bins_for(&self, dimension: &str) -> Result<Bins, String> {
        let levels = self
            .dimensions
            .get(dimension)
            .ok_or_else(|| format!("no aggregation levels configured for dimension {dimension}"))?;
        Bins::new(
            levels
                .iter()
                .map(|l| Bin::new(&l.label, l.lo, l.hi))
                .collect(),
        )
        .map_err(|e| format!("invalid levels for {dimension}: {e}"))
    }

    /// Parse a JSON configuration file, validating every dimension's bins.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| format!("bad levels config: {e}"))?;
        Self::from_value(doc.root())
    }

    /// Read a parsed levels document (the file's shape, or the federation
    /// document's `hub_levels` stanza), validating every dimension's bins.
    pub fn from_value(doc: JsonValue) -> Result<Self, String> {
        let Some(dims) = doc.get("dimensions").and_then(JsonValue::members) else {
            return Err("bad levels config: \"dimensions\" must be an object".to_owned());
        };
        let mut cfg = Self::new();
        for (dim, levels) in dims {
            let levels = levels
                .as_array()
                .ok_or_else(|| format!("bad levels config: {dim} must be a list of levels"))?;
            let mut specs = Vec::with_capacity(levels.len());
            for level in levels {
                let field = |key: &str| format!("bad levels config: a {dim} level needs a {key}");
                specs.push(LevelSpec {
                    label: level
                        .get("label")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| field("string \"label\""))?
                        .to_owned(),
                    lo: level
                        .get("lo")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| field("numeric \"lo\""))?,
                    hi: level
                        .get("hi")
                        .and_then(JsonValue::as_f64)
                        .ok_or_else(|| field("numeric \"hi\""))?,
                });
            }
            cfg.set(dim, specs);
            cfg.bins_for(dim)?;
        }
        Ok(cfg)
    }
}

/// Dimension id used for job wall time throughout the workspace.
pub const DIM_WALL_TIME: &str = "wall_hours";

/// Dimension id used for job size (core count).
pub const DIM_JOB_SIZE: &str = "cores";

/// Dimension id used for VM memory size (Cloud realm, Fig. 7).
pub const DIM_VM_MEMORY: &str = "memory_gb";

/// Table I, "Instance A": resources with a 5-hour wall-time limit.
/// Levels: 1-60 seconds; 1-60 minutes; 1-5 hours.
pub fn instance_a_walltime() -> Vec<LevelSpec> {
    vec![
        LevelSpec::new("1-60 seconds", 1.0 / 3600.0, 60.0 / 3600.0),
        LevelSpec::new("1-60 minutes", 60.0 / 3600.0, 1.0),
        LevelSpec::new("1-5 hours", 1.0, 5.0),
    ]
}

/// Table I, "Instance B": resources with a 50-hour wall-time limit.
/// Levels: 1-10 hours; 10-20 hours; 20-50 hours.
pub fn instance_b_walltime() -> Vec<LevelSpec> {
    vec![
        LevelSpec::new("1-10 hours", 1.0, 10.0),
        LevelSpec::new("10-20 hours", 10.0, 20.0),
        LevelSpec::new("20-50 hours", 20.0, 50.0),
    ]
}

/// Table I, "Federation Hub": levels spanning all member instances.
/// Levels: 0-60 minutes; 1-5 hours; 5-10 hours; 10-20 hours; 20-50 hours.
pub fn hub_walltime() -> Vec<LevelSpec> {
    vec![
        LevelSpec::new("0-60 minutes", 0.0, 1.0),
        LevelSpec::new("1-5 hours", 1.0, 5.0),
        LevelSpec::new("5-10 hours", 5.0, 10.0),
        LevelSpec::new("10-20 hours", 10.0, 20.0),
        LevelSpec::new("20-50 hours", 20.0, 50.0),
    ]
}

/// Default job-size (core count) levels used by example instances.
pub fn default_job_size_levels() -> Vec<LevelSpec> {
    vec![
        LevelSpec::new("1 core", 1.0, 2.0),
        LevelSpec::new("2-32 cores", 2.0, 33.0),
        LevelSpec::new("33-256 cores", 33.0, 257.0),
        LevelSpec::new("257-1k cores", 257.0, 1025.0),
        // JSON cannot carry IEEE infinity, so open-ended top levels use
        // f64::MAX as the exclusive upper edge.
        LevelSpec::new(">1k cores", 1025.0, f64::MAX),
    ]
}

/// VM memory-size levels matching Fig. 7: `<1 GB`, `1-2 GB`, `2-4 GB`,
/// `4-8 GB`.
pub fn fig7_vm_memory_levels() -> Vec<LevelSpec> {
    vec![
        LevelSpec::new("<1 GB", 0.0, 1.0),
        LevelSpec::new("1-2 GB", 1.0, 2.0),
        LevelSpec::new("2-4 GB", 2.0, 4.0),
        LevelSpec::new("4-8 GB", 4.0, 8.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_compile_to_bins() {
        for levels in [instance_a_walltime(), instance_b_walltime(), hub_walltime()] {
            let mut cfg = AggregationLevelsConfig::new();
            cfg.set(DIM_WALL_TIME, levels);
            let bins = cfg.bins_for(DIM_WALL_TIME).unwrap();
            assert!(!bins.is_empty());
        }
    }

    #[test]
    fn table1_instance_a_binning() {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_WALL_TIME, instance_a_walltime());
        let bins = cfg.bins_for(DIM_WALL_TIME).unwrap();
        assert_eq!(bins.label_of(30.0 / 3600.0), "1-60 seconds");
        assert_eq!(bins.label_of(0.25), "1-60 minutes");
        assert_eq!(bins.label_of(4.0), "1-5 hours");
        // A 12-hour job exceeds Instance A's 5-hour limit entirely.
        assert_eq!(bins.label_of(12.0), "other");
    }

    #[test]
    fn table1_hub_covers_both_instances() {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_WALL_TIME, hub_walltime());
        let bins = cfg.bins_for(DIM_WALL_TIME).unwrap();
        // Everything Instance A could produce...
        assert_eq!(bins.label_of(0.01), "0-60 minutes");
        assert_eq!(bins.label_of(3.0), "1-5 hours");
        // ...and everything Instance B could produce.
        assert_eq!(bins.label_of(7.5), "5-10 hours");
        assert_eq!(bins.label_of(15.0), "10-20 hours");
        assert_eq!(bins.label_of(45.0), "20-50 hours");
    }

    #[test]
    fn from_json_reads_the_file_format() {
        // `f64::MAX` (the open top level) written as its shortest
        // round-trip text parses back to the same value.
        let json = format!(
            r#"{{"dimensions": {{
                "cores": [{{"label": "1 core", "lo": 1, "hi": 2.0}},
                          {{"label": ">1k cores", "lo": 1025, "hi": {:e}}}],
                "wall_hours": [{{"label": "0-60 minutes", "lo": 0.0, "hi": 1.0}}]
            }}}}"#,
            f64::MAX
        );
        let mut want = AggregationLevelsConfig::new();
        want.set(
            DIM_JOB_SIZE,
            vec![
                LevelSpec::new("1 core", 1.0, 2.0),
                LevelSpec::new(">1k cores", 1025.0, f64::MAX),
            ],
        );
        want.set(DIM_WALL_TIME, hub_walltime()[..1].to_vec());
        assert_eq!(AggregationLevelsConfig::from_json(&json).unwrap(), want);
        let empty = AggregationLevelsConfig::from_json(r#"{"dimensions": {}}"#).unwrap();
        assert_eq!(empty, AggregationLevelsConfig::new());
    }

    #[test]
    fn from_json_rejects_overlapping_levels() {
        let json = r#"{
            "dimensions": {
                "wall_hours": [
                    {"label": "a", "lo": 0.0, "hi": 2.0},
                    {"label": "b", "lo": 1.0, "hi": 3.0}
                ]
            }
        }"#;
        let err = AggregationLevelsConfig::from_json(json).unwrap_err();
        assert!(err.contains("overlap"));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let err = |text: &str| AggregationLevelsConfig::from_json(text).unwrap_err();
        for text in [
            "not json",
            "{}",
            r#"{"dimensions": 3}"#,
            r#"{"dimensions": {"cores": 3}}"#,
            r#"{"dimensions": {"cores": [{"label": "a", "lo": 0}]}}"#,
            r#"{"dimensions": {"cores": [{"label": "a", "lo": "0", "hi": 1}]}}"#,
            r#"{"dimensions": {"cores": [{"lo": 0, "hi": 1}]}}"#,
        ] {
            assert!(err(text).starts_with("bad levels config: "), "{text}");
        }
    }

    #[test]
    fn missing_dimension_reports_name() {
        let cfg = AggregationLevelsConfig::new();
        let err = cfg.bins_for("peak_memory").unwrap_err();
        assert!(err.contains("peak_memory"));
    }

    #[test]
    fn unbounded_top_level_accepts_huge_jobs() {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_JOB_SIZE, default_job_size_levels());
        let bins = cfg.bins_for(DIM_JOB_SIZE).unwrap();
        assert_eq!(bins.label_of(500_000.0), ">1k cores");
    }

    #[test]
    fn fig7_memory_levels_cover_paper_bins() {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_VM_MEMORY, fig7_vm_memory_levels());
        let bins = cfg.bins_for(DIM_VM_MEMORY).unwrap();
        assert_eq!(bins.label_of(0.5), "<1 GB");
        assert_eq!(bins.label_of(1.0), "1-2 GB");
        assert_eq!(bins.label_of(3.9), "2-4 GB");
        assert_eq!(bins.label_of(8.0), "other"); // beyond paper's largest bin
    }
}
