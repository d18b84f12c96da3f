//! The HPC Jobs realm.
//!
//! "The HPC Jobs realm metrics, describing aggregate usage, consist of
//! measures that are gleaned largely from job accounting data." (§I-D)
//! This is the realm the initial federation release replicates to the
//! hub, and the realm behind Fig. 1 (top resources by total XD SUs) and
//! Table I (wall-time aggregation levels).

use crate::levels::{AggregationLevelsConfig, DIM_JOB_SIZE, DIM_WALL_TIME};
use crate::realm::{DimensionDef, MetricDef, Realm, RealmKind};
use xdmod_warehouse::{
    AggFn, Aggregate, AggregationSpec, ColumnType, DimSpec, Period, SchemaBuilder,
};

/// Name of the Jobs realm fact table.
pub const FACT_TABLE: &str = "jobfact";

/// Schema of the `jobfact` table: one row per completed job, as shredded
/// from resource-manager accounting logs.
pub fn fact_schema() -> xdmod_warehouse::TableSchema {
    SchemaBuilder::new(FACT_TABLE)
        .required("job_id", ColumnType::Int)
        .required("resource", ColumnType::Str)
        .required("user", ColumnType::Str)
        .required("pi", ColumnType::Str)
        .required("queue", ColumnType::Str)
        .required("nodes", ColumnType::Int)
        .required("cores", ColumnType::Int)
        .required("submit_time", ColumnType::Time)
        .required("start_time", ColumnType::Time)
        .required("end_time", ColumnType::Time)
        .required("wall_hours", ColumnType::Float)
        .required("wait_hours", ColumnType::Float)
        .required("cpu_hours", ColumnType::Float)
        .required("su_charged", ColumnType::Float)
        .required("exit_status", ColumnType::Str)
        .nullable("gpu_count", ColumnType::Int)
        .build()
        .expect("jobfact schema is valid") // xc-allow: static schema literal, valid by construction
}

/// Chartable metrics of the Jobs realm.
pub fn metrics() -> Vec<MetricDef> {
    vec![
        MetricDef {
            id: "job_count".into(),
            label: "Number of Jobs Ended".into(),
            unit: "jobs".into(),
            aggregate: Aggregate::count("job_count"),
        },
        MetricDef {
            id: "total_cpu_hours".into(),
            label: "CPU Hours: Total".into(),
            unit: "CPU hours".into(),
            aggregate: Aggregate::of(AggFn::Sum, "cpu_hours", "total_cpu_hours"),
        },
        MetricDef {
            id: "total_su".into(),
            label: "SUs Charged: Total".into(),
            unit: "XD SU".into(),
            aggregate: Aggregate::of(AggFn::Sum, "su_charged", "total_su"),
        },
        MetricDef {
            id: "total_wall_hours".into(),
            label: "Wall Hours: Total".into(),
            unit: "hours".into(),
            aggregate: Aggregate::of(AggFn::Sum, "wall_hours", "total_wall_hours"),
        },
        MetricDef {
            id: "avg_wall_hours".into(),
            label: "Wall Hours: Per Job".into(),
            unit: "hours".into(),
            aggregate: Aggregate::of(AggFn::Avg, "wall_hours", "avg_wall_hours"),
        },
        MetricDef {
            id: "avg_wait_hours".into(),
            label: "Wait Hours: Per Job".into(),
            unit: "hours".into(),
            aggregate: Aggregate::of(AggFn::Avg, "wait_hours", "avg_wait_hours"),
        },
        MetricDef {
            id: "avg_cores".into(),
            label: "Job Size: Per Job".into(),
            unit: "cores".into(),
            aggregate: Aggregate::of(AggFn::Avg, "cores", "avg_cores"),
        },
        MetricDef {
            id: "max_cores".into(),
            label: "Job Size: Max".into(),
            unit: "cores".into(),
            aggregate: Aggregate::of(AggFn::Max, "cores", "max_cores"),
        },
        MetricDef {
            id: "num_users".into(),
            label: "Number of Users: Active".into(),
            unit: "users".into(),
            aggregate: Aggregate::of(AggFn::CountDistinct, "user", "num_users"),
        },
    ]
}

/// Group-by/drill-down dimensions of the Jobs realm.
pub fn dimensions() -> Vec<DimensionDef> {
    vec![
        DimensionDef {
            id: "resource".into(),
            label: "Resource".into(),
            column: "resource".into(),
            numeric: false,
        },
        DimensionDef {
            id: "user".into(),
            label: "User".into(),
            column: "user".into(),
            numeric: false,
        },
        DimensionDef {
            id: "pi".into(),
            label: "PI".into(),
            column: "pi".into(),
            numeric: false,
        },
        DimensionDef {
            id: "queue".into(),
            label: "Queue".into(),
            column: "queue".into(),
            numeric: false,
        },
        DimensionDef {
            id: DIM_WALL_TIME.into(),
            label: "Job Wall Time".into(),
            column: "wall_hours".into(),
            numeric: true,
        },
        DimensionDef {
            id: DIM_JOB_SIZE.into(),
            label: "Job Size".into(),
            column: "cores".into(),
            numeric: true,
        },
    ]
}

/// Default aggregation pipeline: per period, grouped by resource, queue,
/// and — when the instance has levels configured — binned wall time and
/// job size.
pub fn aggregation_spec(levels: &AggregationLevelsConfig) -> AggregationSpec {
    let mut dims = vec![
        DimSpec::Column("resource".into()),
        DimSpec::Column("queue".into()),
    ];
    if let Ok(bins) = levels.bins_for(DIM_WALL_TIME) {
        dims.push(DimSpec::Binned {
            column: "wall_hours".into(),
            bins,
        });
    }
    if let Ok(bins) = levels.bins_for(DIM_JOB_SIZE) {
        dims.push(DimSpec::Binned {
            column: "cores".into(),
            bins,
        });
    }
    AggregationSpec {
        fact_table: FACT_TABLE.into(),
        time_column: "end_time".into(),
        dims,
        measures: vec![
            Aggregate::count("job_count"),
            Aggregate::of(AggFn::Sum, "cpu_hours", "total_cpu_hours"),
            Aggregate::of(AggFn::Sum, "su_charged", "total_su"),
            Aggregate::of(AggFn::Sum, "wall_hours", "total_wall_hours"),
            Aggregate::of(AggFn::Avg, "wait_hours", "avg_wait_hours"),
            Aggregate::of(AggFn::CountDistinct, "user", "num_users"),
        ],
        periods: Period::ALL.to_vec(),
        table_prefix: None,
    }
}

/// The complete Jobs realm description.
pub fn realm(levels: &AggregationLevelsConfig) -> Realm {
    Realm {
        kind: RealmKind::Jobs,
        fact_schema: fact_schema(),
        aux_schemas: vec![],
        metrics: metrics(),
        dimensions: dimensions(),
        default_aggregation: aggregation_spec(levels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::instance_a_walltime;

    #[test]
    fn fact_schema_has_expected_columns() {
        let s = fact_schema();
        for col in [
            "job_id",
            "resource",
            "user",
            "cores",
            "wall_hours",
            "cpu_hours",
            "su_charged",
            "end_time",
        ] {
            assert!(s.column_index(col).is_ok(), "missing column {col}");
        }
        assert!(s.column("gpu_count").unwrap().nullable);
    }

    #[test]
    fn metric_ids_unique() {
        let m = metrics();
        for (i, a) in m.iter().enumerate() {
            assert!(
                !m[..i].iter().any(|b| b.id == a.id),
                "duplicate metric id {}",
                a.id
            );
        }
    }

    #[test]
    fn metric_columns_exist_in_fact_schema() {
        let s = fact_schema();
        for m in metrics() {
            if let Some(c) = &m.aggregate.column {
                assert!(
                    s.column_index(c).is_ok(),
                    "metric {} reads missing {c}",
                    m.id
                );
            }
        }
    }

    #[test]
    fn dimension_columns_exist_in_fact_schema() {
        let s = fact_schema();
        for d in dimensions() {
            assert!(s.column_index(&d.column).is_ok());
        }
    }

    #[test]
    fn spec_without_levels_has_no_binned_dims() {
        let spec = aggregation_spec(&AggregationLevelsConfig::new());
        assert!(spec.dims.iter().all(|d| matches!(d, DimSpec::Column(_))));
    }

    #[test]
    fn spec_with_levels_adds_binned_wall_time() {
        let mut cfg = AggregationLevelsConfig::new();
        cfg.set(DIM_WALL_TIME, instance_a_walltime());
        let spec = aggregation_spec(&cfg);
        assert!(spec
            .dims
            .iter()
            .any(|d| matches!(d, DimSpec::Binned { column, .. } if column == "wall_hours")));
    }

    #[test]
    fn realm_lookup_helpers() {
        let r = realm(&AggregationLevelsConfig::new());
        assert_eq!(r.kind, RealmKind::Jobs);
        assert!(r.metric("total_su").is_some());
        assert!(r.metric("bogus").is_none());
        assert!(r.dimension("resource").is_some());
        assert_eq!(r.numeric_dimensions().count(), 2);
    }
}
