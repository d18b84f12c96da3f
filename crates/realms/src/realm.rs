//! Realm model: XDMoD's grouping of metrics by the kind of information
//! they measure.
//!
//! "The metrics collected by XDMoD are assembled into groups called
//! realms, based on the type of information they measure." (§I-D). This
//! workspace implements the four realms the paper discusses: **HPC Jobs**,
//! **SUPReMM** (job-level performance), **Storage**, and **Cloud**.

use crate::{cloud, jobs, storage, supremm};
use xdmod_warehouse::{Aggregate, AggregationSpec, TableSchema};

/// The realms implemented in this workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RealmKind {
    /// Aggregate usage gleaned largely from job accounting data.
    Jobs,
    /// Individual job-level performance data from hardware counters.
    Supremm,
    /// Storage utilization, quotas, and (eventually) metadata rates.
    Storage,
    /// VM-centric metrics for cloud resources.
    Cloud,
}

impl RealmKind {
    /// All realms.
    pub const ALL: [RealmKind; 4] = [
        RealmKind::Jobs,
        RealmKind::Supremm,
        RealmKind::Storage,
        RealmKind::Cloud,
    ];

    /// Stable identifier used in table names and configs.
    pub fn ident(self) -> &'static str {
        match self {
            RealmKind::Jobs => "jobs",
            RealmKind::Supremm => "supremm",
            RealmKind::Storage => "storage",
            RealmKind::Cloud => "cloud",
        }
    }

    /// The raw tables this realm replicates (and that its aggregation
    /// pipeline reads). This mapping is mirrored as *data* in
    /// `xdmod_check::model::realm_tables` so the std-only analyzer can
    /// resolve realm names; `realm_tables_in_sync_with_check_model` pins
    /// the two together.
    pub fn tables(self) -> &'static [&'static str] {
        match self {
            RealmKind::Jobs => &[jobs::FACT_TABLE],
            RealmKind::Supremm => &[
                supremm::FACT_TABLE,
                supremm::TIMESERIES_TABLE,
                supremm::JOBSCRIPT_TABLE,
            ],
            RealmKind::Storage => &[storage::FACT_TABLE],
            RealmKind::Cloud => &[cloud::FACT_TABLE, cloud::RESERVATION_TABLE],
        }
    }

    /// Display name as the paper uses it.
    pub fn display_name(self) -> &'static str {
        match self {
            RealmKind::Jobs => "HPC Jobs",
            RealmKind::Supremm => "SUPReMM",
            RealmKind::Storage => "Storage",
            RealmKind::Cloud => "Cloud",
        }
    }

    /// Whether this realm's raw data is replicated to a federation hub in
    /// the initial federation release.
    ///
    /// "The initial release of the federation module replicates only the
    /// HPC Jobs realm data to the XDMoD federation hub. Performance data
    /// is not yet incorporated in federation." (§II-C5). Storage and Cloud
    /// join federations in the Aristotle deployment (§III-B), so they
    /// default to federated here as well.
    pub fn federated_by_default(self) -> bool {
        !matches!(self, RealmKind::Supremm)
    }
}

/// A metric: something XDMoD can chart, with its aggregate definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Stable identifier (e.g. `total_su`).
    pub id: String,
    /// Display label (e.g. `"SUs Charged: Total"`).
    pub label: String,
    /// Unit shown on chart axes (e.g. `"XD SU"`).
    pub unit: String,
    /// How the metric is computed from the realm's fact table.
    pub aggregate: Aggregate,
}

/// A dimension: something metrics can be grouped or drilled down by.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionDef {
    /// Stable identifier (e.g. `resource`).
    pub id: String,
    /// Display label.
    pub label: String,
    /// Fact-table column this dimension reads.
    pub column: String,
    /// Whether the dimension is numeric and therefore subject to
    /// configurable aggregation levels (§II-C3: "aggregation levels ...
    /// apply only to numeric dimensions").
    pub numeric: bool,
}

/// A fully-described realm: fact schema plus metric/dimension catalogs and
/// the default aggregation pipeline.
#[derive(Debug, Clone)]
pub struct Realm {
    /// Which realm this is.
    pub kind: RealmKind,
    /// Schema of the realm's primary fact table.
    pub fact_schema: TableSchema,
    /// Auxiliary tables (e.g. SUPReMM per-job timeseries, job scripts).
    pub aux_schemas: Vec<TableSchema>,
    /// Chartable metrics.
    pub metrics: Vec<MetricDef>,
    /// Group-by/drill-down dimensions.
    pub dimensions: Vec<DimensionDef>,
    /// Default aggregation pipeline (periods × dims × measures).
    pub default_aggregation: AggregationSpec,
}

impl Realm {
    /// Find a metric by id.
    pub fn metric(&self, id: &str) -> Option<&MetricDef> {
        self.metrics.iter().find(|m| m.id == id)
    }

    /// Find a dimension by id.
    pub fn dimension(&self, id: &str) -> Option<&DimensionDef> {
        self.dimensions.iter().find(|d| d.id == id)
    }

    /// Numeric dimensions — the ones aggregation levels apply to.
    pub fn numeric_dimensions(&self) -> impl Iterator<Item = &DimensionDef> {
        self.dimensions.iter().filter(|d| d.numeric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_are_stable_and_distinct() {
        let ids: Vec<&str> = RealmKind::ALL.iter().map(|r| r.ident()).collect();
        assert_eq!(ids, vec!["jobs", "supremm", "storage", "cloud"]);
    }

    #[test]
    fn only_supremm_is_excluded_from_federation() {
        assert!(RealmKind::Jobs.federated_by_default());
        assert!(!RealmKind::Supremm.federated_by_default());
        assert!(RealmKind::Storage.federated_by_default());
        assert!(RealmKind::Cloud.federated_by_default());
    }

    /// Pins the analyzer's std-only realm→tables data, and the summary
    /// table `supremm_summaries` adds, against the realm constants: if a
    /// realm gains a table, `xdmod-check` must learn it too or pre-flight
    /// would pass configs that starve the hub.
    #[test]
    fn realm_tables_in_sync_with_check_model() {
        for realm in RealmKind::ALL {
            let theirs = xdmod_check::model::realm_tables(realm.ident())
                .unwrap_or_else(|| panic!("xdmod-check lacks realm {}", realm.ident()));
            assert_eq!(realm.tables(), theirs, "realm {}", realm.ident());
        }
        assert_eq!(
            supremm::summary_spec().table_name(xdmod_warehouse::Period::Month),
            xdmod_check::model::SUPREMM_SUMMARY_TABLE
        );
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(RealmKind::Jobs.display_name(), "HPC Jobs");
        assert_eq!(RealmKind::Supremm.display_name(), "SUPReMM");
    }
}
