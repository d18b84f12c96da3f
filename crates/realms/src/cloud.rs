//! The Cloud Metrics realm (§III-B) — in development in the paper,
//! implemented here.
//!
//! Cloud facts are **VM sessions**: intervals during which a VM was
//! running with a fixed configuration. Because "VMs can also be stopped,
//! restarted, and paused" and "allocated memory can even be changed
//! during the life of the VM", one VM contributes multiple session rows;
//! the `vm_id` ties them together and `state_changes` counts lifecycle
//! transitions inside the session's span.
//!
//! The initial metric set from the paper: Average Cores per VM; Average
//! Cores/Disk/Memory Reserved (weighted by Wall Hours); Core or Wall
//! Hours: Total; Cores: Total; Number of VMs Ended/Running/Started.
//! Dimensions: Instance Type; Project; Resource; Submission Venue; User;
//! VM Size (Cores or Memory). Fig. 7 (average core-hours per VM by VM
//! memory size) is a chart over this realm.

use crate::levels::{AggregationLevelsConfig, DIM_VM_MEMORY};
use crate::realm::{DimensionDef, MetricDef, Realm, RealmKind};
use xdmod_warehouse::{
    AggFn, Aggregate, AggregationSpec, ColumnType, DimSpec, Period, ResultSet, SchemaBuilder,
    TableSchema, Value,
};

/// Name of the Cloud realm fact table.
pub const FACT_TABLE: &str = "cloudfact";

/// Schema of the `cloudfact` table: one row per VM session interval.
pub fn fact_schema() -> TableSchema {
    SchemaBuilder::new(FACT_TABLE)
        .required("vm_id", ColumnType::Str)
        .required("resource", ColumnType::Str)
        .required("project", ColumnType::Str)
        .required("user", ColumnType::Str)
        .required("instance_type", ColumnType::Str)
        .required("submission_venue", ColumnType::Str)
        .required("cores", ColumnType::Int)
        .required("memory_gb", ColumnType::Float)
        .required("disk_gb", ColumnType::Float)
        .required("start_time", ColumnType::Time)
        .required("end_time", ColumnType::Time)
        .required("wall_hours", ColumnType::Float)
        .required("core_hours", ColumnType::Float)
        .required("started", ColumnType::Bool) // session begins with VM creation
        .required("ended", ColumnType::Bool) // session ends with VM termination
        .required("state_changes", ColumnType::Int)
        .build()
        .expect("cloud fact schema is valid") // xc-allow: static schema literal, valid by construction
}

/// The initial Cloud metric set from the paper.
pub fn metrics() -> Vec<MetricDef> {
    vec![
        MetricDef {
            id: "avg_cores_per_vm".into(),
            label: "Average Cores per VM".into(),
            unit: "cores".into(),
            aggregate: Aggregate::weighted_avg("cores", "wall_hours", "avg_cores_per_vm"),
        },
        MetricDef {
            id: "avg_memory_reserved".into(),
            label: "Average Memory Reserved (weighted by Wall Hours)".into(),
            unit: "GB".into(),
            aggregate: Aggregate::weighted_avg("memory_gb", "wall_hours", "avg_memory_reserved"),
        },
        MetricDef {
            id: "avg_disk_reserved".into(),
            label: "Average Disk Reserved (weighted by Wall Hours)".into(),
            unit: "GB".into(),
            aggregate: Aggregate::weighted_avg("disk_gb", "wall_hours", "avg_disk_reserved"),
        },
        MetricDef {
            id: "total_core_hours".into(),
            label: "Core Hours: Total".into(),
            unit: "core hours".into(),
            aggregate: Aggregate::of(AggFn::Sum, "core_hours", "total_core_hours"),
        },
        MetricDef {
            id: "total_wall_hours".into(),
            label: "Wall Hours: Total".into(),
            unit: "hours".into(),
            aggregate: Aggregate::of(AggFn::Sum, "wall_hours", "total_wall_hours"),
        },
        MetricDef {
            id: "total_cores".into(),
            label: "Cores: Total".into(),
            unit: "cores".into(),
            aggregate: Aggregate::of(AggFn::Sum, "cores", "total_cores"),
        },
        MetricDef {
            id: "vms_started".into(),
            label: "Number of VMs Started".into(),
            unit: "VMs".into(),
            aggregate: Aggregate::of(AggFn::Sum, "started", "vms_started"),
        },
        MetricDef {
            id: "vms_ended".into(),
            label: "Number of VMs Ended".into(),
            unit: "VMs".into(),
            aggregate: Aggregate::of(AggFn::Sum, "ended", "vms_ended"),
        },
        MetricDef {
            id: "vms_running".into(),
            label: "Number of VMs Running".into(),
            unit: "VMs".into(),
            aggregate: Aggregate::of(AggFn::CountDistinct, "vm_id", "vms_running"),
        },
        MetricDef {
            id: "state_changes".into(),
            label: "Count of State Changes".into(),
            unit: "events".into(),
            aggregate: Aggregate::of(AggFn::Sum, "state_changes", "state_changes"),
        },
    ]
}

/// The drill-down dimensions from the paper.
pub fn dimensions() -> Vec<DimensionDef> {
    vec![
        DimensionDef {
            id: "instance_type".into(),
            label: "Instance Type".into(),
            column: "instance_type".into(),
            numeric: false,
        },
        DimensionDef {
            id: "project".into(),
            label: "Project".into(),
            column: "project".into(),
            numeric: false,
        },
        DimensionDef {
            id: "resource".into(),
            label: "Resource".into(),
            column: "resource".into(),
            numeric: false,
        },
        DimensionDef {
            id: "submission_venue".into(),
            label: "Submission Venue".into(),
            column: "submission_venue".into(),
            numeric: false,
        },
        DimensionDef {
            id: "user".into(),
            label: "User".into(),
            column: "user".into(),
            numeric: false,
        },
        DimensionDef {
            id: DIM_VM_MEMORY.into(),
            label: "VM Size: Memory".into(),
            column: "memory_gb".into(),
            numeric: true,
        },
        DimensionDef {
            id: "vm_cores".into(),
            label: "VM Size: Cores".into(),
            column: "cores".into(),
            numeric: true,
        },
    ]
}

/// Default aggregation pipeline; adds a binned VM-memory dimension when
/// the instance configures levels for it (Fig. 7's grouping).
pub fn aggregation_spec(levels: &AggregationLevelsConfig) -> AggregationSpec {
    let mut dims = vec![
        DimSpec::Column("resource".into()),
        DimSpec::Column("project".into()),
    ];
    if let Ok(bins) = levels.bins_for(DIM_VM_MEMORY) {
        dims.push(DimSpec::Binned {
            column: "memory_gb".into(),
            bins,
        });
    }
    AggregationSpec {
        fact_table: FACT_TABLE.into(),
        time_column: "end_time".into(),
        dims,
        measures: vec![
            Aggregate::count("sessions"),
            Aggregate::of(AggFn::Sum, "core_hours", "total_core_hours"),
            Aggregate::of(AggFn::Sum, "wall_hours", "total_wall_hours"),
            Aggregate::of(AggFn::CountDistinct, "vm_id", "num_vms"),
            Aggregate::weighted_avg("cores", "wall_hours", "avg_cores_per_vm"),
        ],
        periods: Period::ALL.to_vec(),
        table_prefix: None,
    }
}

/// The complete Cloud realm description.
pub fn realm(levels: &AggregationLevelsConfig) -> Realm {
    Realm {
        kind: RealmKind::Cloud,
        fact_schema: fact_schema(),
        aux_schemas: vec![],
        metrics: metrics(),
        dimensions: dimensions(),
        default_aggregation: aggregation_spec(levels),
    }
}

/// Derive "average core hours per VM" (Fig. 7's y-axis) from a result set
/// carrying `total_core_hours` and `num_vms` columns. This is a ratio of
/// two aggregates, computed at presentation time like XDMoD does.
pub fn avg_core_hours_per_vm(rs: &ResultSet) -> Option<Vec<f64>> {
    let ch = rs.column_index("total_core_hours")?;
    let nv = rs.column_index("num_vms")?;
    Some(
        rs.rows
            .iter()
            .map(|row| {
                let hours = row[ch].as_f64().unwrap_or(0.0);
                let vms = row[nv].as_f64().unwrap_or(0.0);
                if vms > 0.0 {
                    hours / vms
                } else {
                    0.0
                }
            })
            .collect(),
    )
}

/// Convenience: the `Value` boolean `true`, used when building session
/// rows by hand in tests and simulators.
pub fn flag(b: bool) -> Value {
    Value::Bool(b)
}

// ---------------------------------------------------------------------
// Reservations (the paper's "future release" §III-B, implemented)
// ---------------------------------------------------------------------

/// Name of the VM reservation/payment table.
///
/// "First, the XDMoD cloud realm will track VM reservation, or payment,
/// information. This piece of the puzzle will enable centers to evaluate
/// whether users purchase more capacity than they use." (§III-B)
pub const RESERVATION_TABLE: &str = "cloud_reservation";

/// Schema of the `cloud_reservation` table: one row per purchased
/// capacity block.
pub fn reservation_schema() -> TableSchema {
    SchemaBuilder::new(RESERVATION_TABLE)
        .required("reservation_id", ColumnType::Str)
        .required("resource", ColumnType::Str)
        .required("project", ColumnType::Str)
        .required("user", ColumnType::Str)
        .required("cores", ColumnType::Int)
        .required("memory_gb", ColumnType::Float)
        .required("start_time", ColumnType::Time)
        .required("end_time", ColumnType::Time)
        .required("core_hours_purchased", ColumnType::Float)
        .build()
        .expect("reservation schema is valid") // xc-allow: static schema literal, valid by construction
}

/// One row of the purchased-vs-used comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityUtilization {
    /// Grouping key (typically the project).
    pub key: String,
    /// Core-hours purchased across reservations.
    pub purchased: f64,
    /// Core-hours actually consumed by VM sessions.
    pub used: f64,
}

impl CapacityUtilization {
    /// Used / purchased (0 when nothing was purchased).
    pub fn fraction(&self) -> f64 {
        if self.purchased > 0.0 {
            self.used / self.purchased
        } else {
            0.0
        }
    }

    /// Whether the project bought more than it used — the question the
    /// paper says this data answers.
    pub fn over_provisioned(&self) -> bool {
        self.purchased > self.used
    }
}

/// Join reserved capacity against actual usage, both grouped by the same
/// key column (e.g. `project`). `purchased_rs` must carry
/// `core_hours_purchased`; `used_rs` must carry `total_core_hours`.
pub fn capacity_utilization(
    purchased_rs: &ResultSet,
    used_rs: &ResultSet,
    key_column: &str,
) -> Option<Vec<CapacityUtilization>> {
    let pk = purchased_rs.column_index(key_column)?;
    let pv = purchased_rs.column_index("core_hours_purchased")?;
    let uk = used_rs.column_index(key_column)?;
    let uv = used_rs.column_index("total_core_hours")?;
    let mut merged: std::collections::BTreeMap<String, CapacityUtilization> =
        std::collections::BTreeMap::new();
    for row in &purchased_rs.rows {
        let key = row[pk].to_string();
        merged
            .entry(key.clone())
            .or_insert(CapacityUtilization {
                key,
                purchased: 0.0,
                used: 0.0,
            })
            .purchased += row[pv].as_f64().unwrap_or(0.0);
    }
    for row in &used_rs.rows {
        let key = row[uk].to_string();
        merged
            .entry(key.clone())
            .or_insert(CapacityUtilization {
                key,
                purchased: 0.0,
                used: 0.0,
            })
            .used += row[uv].as_f64().unwrap_or(0.0);
    }
    Some(merged.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::fig7_vm_memory_levels;

    #[test]
    fn paper_metric_set_is_present() {
        let ids: Vec<String> = metrics().into_iter().map(|m| m.id).collect();
        for want in [
            "avg_cores_per_vm",
            "avg_memory_reserved",
            "avg_disk_reserved",
            "total_core_hours",
            "total_wall_hours",
            "total_cores",
            "vms_started",
            "vms_ended",
            "vms_running",
        ] {
            assert!(ids.contains(&want.to_owned()), "missing metric {want}");
        }
    }

    #[test]
    fn paper_dimension_set_is_present() {
        let ids: Vec<String> = dimensions().into_iter().map(|d| d.id).collect();
        for want in [
            "instance_type",
            "project",
            "resource",
            "submission_venue",
            "user",
            "memory_gb",
            "vm_cores",
        ] {
            assert!(ids.contains(&want.to_owned()), "missing dimension {want}");
        }
    }

    #[test]
    fn weighted_metrics_use_wall_hours() {
        for id in [
            "avg_cores_per_vm",
            "avg_memory_reserved",
            "avg_disk_reserved",
        ] {
            let m = metrics().into_iter().find(|m| m.id == id).unwrap();
            assert_eq!(m.aggregate.weight.as_deref(), Some("wall_hours"));
        }
    }

    #[test]
    fn spec_with_fig7_levels_bins_memory() {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_VM_MEMORY, fig7_vm_memory_levels());
        let spec = aggregation_spec(&cfg);
        assert!(spec
            .dims
            .iter()
            .any(|d| matches!(d, DimSpec::Binned { column, .. } if column == "memory_gb")));
    }

    #[test]
    fn avg_core_hours_per_vm_divides() {
        let rs = ResultSet {
            columns: vec![
                "memory_gb_bin".into(),
                "total_core_hours".into(),
                "num_vms".into(),
            ],
            rows: vec![
                vec![
                    Value::Str("<1 GB".into()),
                    Value::Float(100.0),
                    Value::Int(4),
                ],
                vec![
                    Value::Str("1-2 GB".into()),
                    Value::Float(90.0),
                    Value::Int(3),
                ],
                vec![Value::Str("empty".into()), Value::Float(0.0), Value::Int(0)],
            ],
        };
        let v = avg_core_hours_per_vm(&rs).unwrap();
        assert_eq!(v, vec![25.0, 30.0, 0.0]);
    }

    #[test]
    fn reservation_schema_is_valid_and_distinct() {
        let s = reservation_schema();
        assert_eq!(s.name, RESERVATION_TABLE);
        assert_ne!(s.name, FACT_TABLE);
        assert!(s.column_index("core_hours_purchased").is_ok());
    }

    #[test]
    fn capacity_utilization_joins_purchased_and_used() {
        let purchased = ResultSet {
            columns: vec!["project".into(), "core_hours_purchased".into()],
            rows: vec![
                vec![Value::Str("genomics".into()), Value::Float(1000.0)],
                vec![Value::Str("teaching".into()), Value::Float(100.0)],
            ],
        };
        let used = ResultSet {
            columns: vec!["project".into(), "total_core_hours".into()],
            rows: vec![
                vec![Value::Str("genomics".into()), Value::Float(250.0)],
                vec![Value::Str("hydrology".into()), Value::Float(40.0)],
            ],
        };
        let rows = capacity_utilization(&purchased, &used, "project").unwrap();
        assert_eq!(rows.len(), 3);
        let genomics = rows.iter().find(|r| r.key == "genomics").unwrap();
        assert_eq!(genomics.fraction(), 0.25);
        assert!(genomics.over_provisioned());
        let hydro = rows.iter().find(|r| r.key == "hydrology").unwrap();
        assert_eq!(hydro.purchased, 0.0);
        assert_eq!(hydro.fraction(), 0.0); // unpurchased usage
        assert!(!hydro.over_provisioned());
    }

    #[test]
    fn capacity_utilization_requires_expected_columns() {
        let empty = ResultSet {
            columns: vec!["project".into()],
            rows: vec![],
        };
        assert!(capacity_utilization(&empty, &empty, "project").is_none());
    }

    #[test]
    fn avg_core_hours_requires_both_columns() {
        let rs = ResultSet {
            columns: vec!["total_core_hours".into()],
            rows: vec![],
        };
        assert!(avg_core_hours_per_vm(&rs).is_none());
    }
}
