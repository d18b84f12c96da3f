//! The Federation module: wiring satellites to a hub.
//!
//! "The new XDMoD Federation module further extends the application,
//! providing the ability for multiple disparate XDMoD installations to
//! replicate their raw data to a central, federated hub server." (§I-E)
//!
//! A [`Federation`] owns the hub plus one replication link per satellite
//! — **tight** (live binlog tailing) or **loose** (batched shipments),
//! freely mixed (§II-C2's heterogeneous model). Joining enforces the
//! version gate; per-satellite [`FederationConfig`] chooses which realms
//! replicate (the initial release federates only HPC Jobs) and which
//! resources are excluded from federation (§II-C4).

use crate::hub::FederationHub;
use crate::instance::XdmodInstance;
use crate::supervisor::{
    MemberHealth, MemberReport, SupervisionReport, SupervisionState, SupervisorPolicy,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xdmod_alerts::{
    AckError, Alert, AlertEngine, AlertRules, FAMILY_GATEWAY_SATURATION, FAMILY_LINK_DOWN,
    FAMILY_PREFLIGHT_REFUSED, FAMILY_QUARANTINE, FAMILY_REPLICATION_LAG,
};
use xdmod_chaos::FaultInjector;
use xdmod_realms::{cloud as cloud_realm, jobs, storage, supremm, RealmKind};
use xdmod_replication::{
    schemas_match, LinkConfig, LiveReplicator, LooseReceiver, LooseShipper, ReplicationError,
    ReplicationFilter, Replicator, RetryPolicy,
};
use xdmod_warehouse::sync::Mutex;
use xdmod_warehouse::{SharedDatabase, Value, WarehouseError};

/// Federation-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum FederationError {
    /// Satellite and hub run different XDMoD versions.
    VersionMismatch {
        /// Satellite version.
        satellite: String,
        /// Hub version.
        hub: String,
    },
    /// A satellite with this name is already a member.
    DuplicateMember(String),
    /// No member with this name.
    UnknownMember(String),
    /// The operation needs a live (background-threaded) tight link, but
    /// this member's link is polled or loose.
    LinkNotLive(String),
    /// Static pre-flight analysis found Error-severity diagnostics;
    /// `go_live` refuses to start replication threads over a topology
    /// that is known to produce silent data corruption or empty reports.
    /// Override with [`Federation::go_live_forced`].
    Preflight {
        /// Number of Error-severity diagnostics.
        errors: usize,
        /// Full rendered diagnostic report (text format).
        report: String,
    },
    /// A replication link failed (e.g. its worker thread panicked).
    Replication(ReplicationError),
    /// Underlying warehouse/replication failure.
    Warehouse(WarehouseError),
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::VersionMismatch { satellite, hub } => write!(
                f,
                "satellite runs XDMoD {satellite}, hub runs {hub}: \
                 every instance must run the same version"
            ),
            FederationError::DuplicateMember(n) => write!(f, "{n} is already federated"),
            FederationError::UnknownMember(n) => write!(f, "{n} is not a federation member"),
            FederationError::LinkNotLive(n) => {
                write!(f, "{n}'s replication link is not live (call go_live first)")
            }
            FederationError::Preflight { errors, report } => write!(
                f,
                "preflight found {errors} error-severity diagnostic(s); refusing to go \
                 live (use go_live_forced to override):\n{report}"
            ),
            FederationError::Replication(e) => write!(f, "{e}"),
            FederationError::Warehouse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FederationError {}

impl From<WarehouseError> for FederationError {
    fn from(e: WarehouseError) -> Self {
        FederationError::Warehouse(e)
    }
}

impl From<ReplicationError> for FederationError {
    fn from(e: ReplicationError) -> Self {
        FederationError::Replication(e)
    }
}

/// Per-satellite federation configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederationConfig {
    /// Realms whose raw data replicates to the hub.
    pub realms: Vec<RealmKind>,
    /// Resources excluded from federation (sensitive-data routing,
    /// §II-C4).
    pub excluded_resources: Vec<String>,
    /// Replicate the **summarized** SUPReMM monthly aggregates
    /// (`supremm_summary_by_month`) even though the raw performance realm
    /// stays local — the paper's "we plan to replicate summarized
    /// performance data to the federated hub database in a subsequent
    /// release" (§II-C5), implemented.
    #[serde(default)]
    pub supremm_summaries: bool,
    /// Fast-retry attempts a live link's worker makes after a failed poll
    /// before falling back to interval polling. `None` uses the
    /// [`RetryPolicy`] default; an explicit `Some(0)` disables retries —
    /// which the pre-flight analyzer flags (`XC0010`) on tight links.
    #[serde(default)]
    pub retries: Option<u32>,
}

impl Default for FederationConfig {
    /// The paper's initial release: HPC Jobs only, nothing excluded, no
    /// performance summaries.
    fn default() -> Self {
        FederationConfig {
            realms: vec![RealmKind::Jobs],
            excluded_resources: Vec::new(),
            supremm_summaries: false,
            retries: None,
        }
    }
}

impl FederationConfig {
    /// Federate every realm that is federated by default (Jobs, Storage,
    /// Cloud — SUPReMM stays local, §II-C5).
    pub fn default_realms() -> Self {
        FederationConfig {
            realms: RealmKind::ALL
                .into_iter()
                .filter(|r| r.federated_by_default())
                .collect(),
            excluded_resources: Vec::new(),
            supremm_summaries: false,
            retries: None,
        }
    }

    /// Exclude a resource.
    pub fn exclude(mut self, resource: &str) -> Self {
        self.excluded_resources.push(resource.to_owned());
        self
    }

    /// Set the live link's fast-retry budget (0 disables retries).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = Some(retries);
        self
    }

    /// The retry policy a live link for this member should run with.
    pub fn retry_policy(&self) -> RetryPolicy {
        match self.retries {
            None => RetryPolicy::default(),
            Some(0) => RetryPolicy::no_retries(),
            Some(n) => RetryPolicy {
                max_attempts: n,
                ..RetryPolicy::default()
            },
        }
    }

    /// Also replicate monthly SUPReMM summaries (not the raw realm).
    pub fn with_supremm_summaries(mut self) -> Self {
        self.supremm_summaries = true;
        self
    }

    /// The raw tables one realm replicates (and that its aggregation
    /// pipeline reads). This mapping is mirrored as *data* in
    /// `xdmod_check::model::realm_tables` so the std-only analyzer can
    /// resolve realm names without depending on this crate; the
    /// `realm_tables_in_sync` test pins the two together.
    pub fn realm_table_names(realm: RealmKind) -> &'static [&'static str] {
        match realm {
            RealmKind::Jobs => &[jobs::FACT_TABLE],
            RealmKind::Supremm => &[
                supremm::FACT_TABLE,
                supremm::TIMESERIES_TABLE,
                supremm::JOBSCRIPT_TABLE,
            ],
            RealmKind::Storage => &[storage::FACT_TABLE],
            RealmKind::Cloud => &[cloud_realm::FACT_TABLE, cloud_realm::RESERVATION_TABLE],
        }
    }

    /// Tables this config's declared realms expect to reach the hub.
    pub fn expected_tables(&self) -> Vec<String> {
        self.realms
            .iter()
            .flat_map(|r| Self::realm_table_names(*r).iter().map(|t| (*t).to_owned()))
            .collect()
    }

    /// Compile into a replication filter. The filter also carries the
    /// declared realms' tables as *required*, so the replicator can
    /// count any drop of a downstream-needed table
    /// (`replication_filtered_required_tables_total`).
    pub fn filter(&self) -> ReplicationFilter {
        let mut tables: Vec<String> = self.expected_tables();
        if self.supremm_summaries {
            tables.push(supremm::summary_spec().table_name(xdmod_warehouse::Period::Month));
        }
        let mut filter = ReplicationFilter::all()
            .with_tables(tables)
            .with_required_tables(self.expected_tables())
            .with_resource_column(jobs::FACT_TABLE, "resource")
            .with_resource_column(supremm::FACT_TABLE, "resource")
            .with_resource_column(storage::FACT_TABLE, "filesystem")
            .with_resource_column(cloud_realm::FACT_TABLE, "resource");
        for r in &self.excluded_resources {
            filter = filter.exclude_resource(r);
        }
        filter
    }
}

/// How a satellite is coupled to the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FederationMode {
    /// Live binlog replication.
    Tight,
    /// Periodic batch shipping.
    Loose,
}

/// A tight link is either hand-polled (`sync` drives it) or live (a
/// background thread tails the binlog; `sync` leaves it alone).
/// `Swapping` is a transient placeholder while ownership moves between
/// the two — never observable between `&mut self` calls.
enum TightLink {
    Polled(Replicator),
    Live(LiveReplicator),
    Swapping,
}

enum Link {
    Tight(TightLink),
    Loose {
        shipper: LooseShipper,
        receiver: LooseReceiver,
    },
}

struct Member {
    name: String,
    mode: FederationMode,
    config: FederationConfig,
    link: Link,
    /// The satellite's database handle, captured at join so pre-flight
    /// can introspect the source catalog (and a panicked live link can
    /// be rebuilt) without the `XdmodInstance` in hand.
    source_db: SharedDatabase,
    /// The satellite's instance schema name, captured at join.
    source_schema: String,
    /// Resources with an SU conversion factor registered at join time
    /// (a snapshot: factors added afterwards are not visible here).
    su_factors: Vec<String>,
    /// Supervision bookkeeping (failure streak, quarantine flag).
    supervision: SupervisionState,
    /// The polling interval handed to `go_live*`, remembered so the
    /// supervisor can relaunch a dead live worker at the same cadence.
    live_interval: Option<Duration>,
}

/// Shared record of which members are currently serving *stale* data:
/// paused live links and links stopped by [`Federation::quiesce`] whose
/// backlog has not been drained by a subsequent poll.
struct DrainState {
    stale: Mutex<BTreeSet<String>>,
}

/// A cheap-clone, `Send + Sync` handle the serving tier holds to decide
/// whether the federation's unified view is current. While any member's
/// replication is paused (maintenance window) or stopped by a quiesce,
/// the hub still *answers* queries — from data frozen at the moment the
/// link stopped. A gateway consults this notice and returns 503 instead
/// of serving that stale view as if it were live.
///
/// Obtained from [`Federation::drain_notice`]; updated automatically by
/// [`Federation::pause_member`] / [`Federation::resume_member`] /
/// [`Federation::quiesce`] / [`Federation::go_live`] /
/// [`Federation::sync`].
#[derive(Clone)]
pub struct DrainNotice {
    inner: Arc<DrainState>,
}

impl DrainNotice {
    /// Whether any member's replication is currently paused or stopped —
    /// i.e. whether federated answers may be stale.
    pub fn is_draining(&self) -> bool {
        !self.inner.stale.lock().is_empty()
    }

    /// The members whose links are paused/stopped, sorted by name.
    pub fn stale_members(&self) -> Vec<String> {
        self.inner.stale.lock().iter().cloned().collect()
    }
}

impl fmt::Debug for DrainNotice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DrainNotice")
            .field("stale", &self.stale_members())
            .finish()
    }
}

/// A federation: the hub plus its replication links.
pub struct Federation {
    hub: FederationHub,
    members: Vec<Member>,
    drain: Arc<DrainState>,
    /// Alert-lifecycle engine fed by the supervisor and the telemetry
    /// event ring (see [`Federation::alerts`]).
    alerts: AlertEngine,
    /// Last telemetry event sequence folded into the alert engine, so
    /// each pump only mines events it has not yet seen.
    alert_seq: u64,
}

impl Federation {
    /// Create a federation around a hub.
    pub fn new(hub: FederationHub) -> Self {
        Federation {
            hub,
            members: Vec::new(),
            drain: Arc::new(DrainState {
                stale: Mutex::new(BTreeSet::new()),
            }),
            alerts: AlertEngine::new(AlertRules::default()),
            alert_seq: 0,
        }
    }

    /// A handle the serving tier polls to refuse queries while any
    /// member's replication is paused or quiesced (see [`DrainNotice`]).
    pub fn drain_notice(&self) -> DrainNotice {
        DrainNotice {
            inner: Arc::clone(&self.drain),
        }
    }

    /// The hub.
    pub fn hub(&self) -> &FederationHub {
        &self.hub
    }

    /// Mutable hub access (level changes, identity operations).
    pub fn hub_mut(&mut self) -> &mut FederationHub {
        &mut self.hub
    }

    /// Member names with their coupling modes.
    pub fn members(&self) -> Vec<(&str, FederationMode)> {
        self.members
            .iter()
            .map(|m| (m.name.as_str(), m.mode))
            .collect()
    }

    fn check_joinable(&self, instance: &XdmodInstance) -> Result<(), FederationError> {
        if !instance.version().federates_with(self.hub.version()) {
            return Err(FederationError::VersionMismatch {
                satellite: instance.version().to_string(),
                hub: self.hub.version().to_string(),
            });
        }
        if self.members.iter().any(|m| m.name == instance.name()) {
            return Err(FederationError::DuplicateMember(instance.name().to_owned()));
        }
        Ok(())
    }

    fn link_config(instance: &XdmodInstance, config: &FederationConfig) -> LinkConfig {
        LinkConfig::renaming(
            &instance.schema_name(),
            &FederationHub::schema_for(instance.name()),
        )
        .with_filter(config.filter())
    }

    /// Join a satellite with live ("tight") replication.
    pub fn join_tight(
        &mut self,
        instance: &XdmodInstance,
        config: FederationConfig,
    ) -> Result<(), FederationError> {
        self.check_joinable(instance)?;
        let link = Replicator::new(
            instance.database(),
            self.hub.database(),
            Self::link_config(instance, &config),
        )
        .with_telemetry(self.hub.telemetry().clone(), instance.name());
        self.hub.register_satellite(instance.name());
        self.members.push(Member {
            name: instance.name().to_owned(),
            mode: FederationMode::Tight,
            config,
            link: Link::Tight(TightLink::Polled(link)),
            source_db: instance.database(),
            source_schema: instance.schema_name(),
            su_factors: instance
                .su_converter()
                .resources()
                .map(|(r, _)| r.to_owned())
                .collect(),
            supervision: SupervisionState::default(),
            live_interval: None,
        });
        Ok(())
    }

    /// Join a satellite with batched ("loose") replication.
    pub fn join_loose(
        &mut self,
        instance: &XdmodInstance,
        config: FederationConfig,
    ) -> Result<(), FederationError> {
        self.check_joinable(instance)?;
        let shipper = LooseShipper::new(instance.database());
        let receiver =
            LooseReceiver::new(self.hub.database(), Self::link_config(instance, &config));
        self.hub.register_satellite(instance.name());
        self.members.push(Member {
            name: instance.name().to_owned(),
            mode: FederationMode::Loose,
            config,
            link: Link::Loose { shipper, receiver },
            source_db: instance.database(),
            source_schema: instance.schema_name(),
            su_factors: instance
                .su_converter()
                .resources()
                .map(|(r, _)| r.to_owned())
                .collect(),
            supervision: SupervisionState::default(),
            live_interval: None,
        });
        Ok(())
    }

    /// Drive every link once: poll tight links, ship+apply loose batches.
    /// Live links are skipped — their background threads are already
    /// draining the binlog — and so are quarantined members (see
    /// [`Federation::supervise`]). Returns total events applied at the
    /// hub by **this** call.
    pub fn sync(&mut self) -> Result<usize, FederationError> {
        let mut applied = 0;
        for member in &mut self.members {
            if member.supervision.quarantined {
                continue;
            }
            match &mut member.link {
                Link::Tight(TightLink::Polled(rep)) => {
                    applied += rep.poll()?;
                    // A successful poll drains the backlog a quiesce left
                    // behind — the member's view is current again.
                    self.drain.stale.lock().remove(&member.name);
                }
                Link::Tight(_) => {}
                Link::Loose { shipper, receiver } => {
                    let batch = shipper.export_batch()?;
                    applied += receiver.apply_batch(&batch)?;
                }
            }
        }
        Ok(applied)
    }

    /// Project the federation into the analyzer's model: link topology
    /// and filters from each member's join-time config, table catalogs
    /// from live warehouse introspection ([`Database::describe_schema`]),
    /// and the hub's registered aggregates plus its canned-report
    /// group-by surface (`freport`). A hub group-by enters the model only
    /// when some member declares its realm — a jobs-only federation must
    /// not fail pre-flight over the storage report section it will never
    /// render.
    ///
    /// [`Database::describe_schema`]: xdmod_warehouse::Database::describe_schema
    pub fn check_model(&self) -> xdmod_check::FederationModel {
        let mut satellites = Vec::new();
        for member in &self.members {
            let filter = member.config.filter();
            let selected: Vec<String> = filter.selected_tables().map(str::to_owned).collect();
            let mut expected_tables = member.config.expected_tables();
            expected_tables.sort_unstable();
            expected_tables.dedup();
            let db = member.source_db.read();
            let tables = db
                .describe_schema(&member.source_schema)
                .unwrap_or_default()
                .into_iter()
                .map(|t| xdmod_check::TableModel {
                    name: t.name,
                    columns: t
                        .columns
                        .into_iter()
                        .map(|c| xdmod_check::ColumnModel {
                            name: c.name,
                            ty: c.ty.to_string(),
                            nullable: c.nullable,
                        })
                        .collect(),
                })
                .collect();
            let job_resources: Vec<String> = db
                .table(&member.source_schema, jobs::FACT_TABLE)
                .ok()
                .and_then(|t| t.column_values("resource").ok())
                .map(|values| {
                    values
                        .into_iter()
                        .filter_map(|v| match v {
                            Value::Str(s) => Some(s),
                            _ => None,
                        })
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect()
                })
                .unwrap_or_default();
            satellites.push(xdmod_check::SatelliteModel {
                name: member.name.clone(),
                link: xdmod_check::LinkModel {
                    id: member.name.clone(),
                    source_schema: member.source_schema.clone(),
                    hub_schema: FederationHub::schema_for(&member.name),
                    mode: Some(
                        match member.mode {
                            FederationMode::Tight => "tight",
                            FederationMode::Loose => "loose",
                        }
                        .to_owned(),
                    ),
                    retries: member.config.retries.map(u64::from),
                },
                replicated_tables: (!selected.is_empty()).then_some(selected),
                expected_tables,
                excluded_resources: member.config.excluded_resources.clone(),
                tables,
                job_resources,
                su_factors: member.su_factors.clone(),
            });
        }

        let levels = self.hub.levels();
        let specs = [
            ("jobs", jobs::aggregation_spec(levels)),
            ("supremm", supremm::aggregation_spec()),
            ("storage", storage::aggregation_spec()),
            ("cloud", cloud_realm::aggregation_spec(levels)),
        ];
        let aggregates = specs
            .into_iter()
            .map(|(name, spec)| xdmod_check::AggregateModel {
                name: name.to_owned(),
                fact_table: spec.fact_table.clone(),
                time_column: spec.time_column.clone(),
                dimensions: spec.dims.iter().map(|d| d.column().to_owned()).collect(),
                measures: spec
                    .measures
                    .iter()
                    .filter_map(|m| m.column.clone())
                    .collect(),
            })
            .collect();

        let declares = |realm: RealmKind| {
            self.members
                .iter()
                .any(|m| m.config.realms.contains(&realm))
        };
        let mut group_bys = Vec::new();
        if declares(RealmKind::Jobs) {
            group_bys.push(xdmod_check::GroupByModel {
                name: "hpc usage by resource".to_owned(),
                fact_table: jobs::FACT_TABLE.to_owned(),
                columns: vec!["resource".to_owned()],
            });
        }
        if declares(RealmKind::Storage) {
            group_bys.push(xdmod_check::GroupByModel {
                name: "storage usage".to_owned(),
                fact_table: storage::FACT_TABLE.to_owned(),
                columns: Vec::new(),
            });
        }
        if declares(RealmKind::Cloud) {
            group_bys.push(xdmod_check::GroupByModel {
                name: "cloud core hours by project".to_owned(),
                fact_table: cloud_realm::FACT_TABLE.to_owned(),
                columns: vec!["project".to_owned()],
            });
        }

        // Project the hub warehouse's *effective* pool sizing: with
        // defaults, workers == shards, so untouched configs stay clean.
        let pool = self.hub.parallelism();
        let aggregation = Some(xdmod_check::AggregationPoolModel {
            workers: Some(pool.workers() as u64),
            shards: Some(pool.shards() as u64),
        });

        // Project the alert rule table so XC0013 can refuse unknown
        // families, inverted timeout windows, and dead notify buckets at
        // preflight, before any alert would misbehave at runtime.
        let alert_rules = self.alerts.rules();
        let alerts = Some(xdmod_check::AlertsModel {
            notify_capacity: Some(alert_rules.notify_capacity()),
            notify_refill_per_sec: Some(alert_rules.notify_refill_per_sec()),
            rules: alert_rules
                .entries()
                .map(|(family, rule)| xdmod_check::AlertRuleModel {
                    family: family.to_owned(),
                    debounce_ms: Some(rule.debounce_ms),
                    resolve_timeout_ms: Some(rule.resolve_timeout_ms),
                })
                .collect(),
        });

        xdmod_check::FederationModel {
            hub: self.hub.name().to_owned(),
            satellites,
            aggregates,
            group_bys,
            aggregation,
            // The serving tier, when present, injects its own pool sizing
            // (see `xdmod_gateway::preflight`); the federation itself has
            // no gateway to describe.
            gateway: None,
            alerts,
            // A live hub already opened (and recovered) its storage
            // backend — a stanza it could not honor was caught at config
            // time by XC0014, so there is nothing left to validate here.
            storage: None,
        }
    }

    /// Run the static pre-flight analyzer over the current topology —
    /// every `xdmod-check` pass, no data movement. [`Federation::go_live`]
    /// calls this and refuses on Error-severity diagnostics; callers can
    /// also run it directly (e.g. from an admin endpoint) for a report.
    pub fn preflight(&self) -> xdmod_check::Diagnostics {
        xdmod_check::analyze(&self.check_model())
    }

    /// Switch every polled tight link to **live** replication: each gets a
    /// background thread tailing its satellite's binlog at `interval` —
    /// the paper's "live replication to the central federation hub
    /// database". Returns how many links switched. Loose and
    /// already-live links are untouched.
    ///
    /// Runs [`Federation::preflight`] first and refuses with
    /// [`FederationError::Preflight`] when it reports any Error-severity
    /// diagnostic — replication threads must not be started over a
    /// topology known to corrupt data or produce silently-empty reports.
    /// [`Federation::go_live_forced`] skips the gate.
    pub fn go_live(&mut self, interval: Duration) -> Result<usize, FederationError> {
        let diags = self.preflight();
        if diags.has_errors() {
            let errors = diags.count(xdmod_check::Severity::Error);
            self.hub.telemetry().event_with(
                "federation.preflight_refused",
                "go_live refused: pre-flight found error-severity diagnostics",
                &[("errors", errors as f64)],
            );
            // Fold the refusal into the alert engine immediately — an
            // operator reading `/alerts` must not have to wait for the
            // next supervision tick to see why go-live failed.
            self.pump_alerts();
            return Err(FederationError::Preflight {
                errors,
                report: diags.render_text(),
            });
        }
        Ok(self.go_live_forced(interval))
    }

    /// [`Federation::go_live`] without the pre-flight gate — the override
    /// for operators who have reviewed the diagnostics and accept them.
    pub fn go_live_forced(&mut self, interval: Duration) -> usize {
        let mut switched = 0;
        for member in &mut self.members {
            if member.supervision.quarantined {
                continue;
            }
            let policy = member.config.retry_policy();
            let Link::Tight(tight) = &mut member.link else {
                continue;
            };
            if matches!(tight, TightLink::Polled(_)) {
                let TightLink::Polled(rep) = std::mem::replace(tight, TightLink::Swapping) else {
                    unreachable!()
                };
                *tight = TightLink::Live(LiveReplicator::start_with_policy(rep, interval, policy));
                member.live_interval = Some(interval);
                switched += 1;
                // The fresh worker tails from the link's position; any
                // quiesce-era backlog drains in the background.
                self.drain.stale.lock().remove(&member.name);
            }
        }
        switched
    }

    /// Stop one live link, absorbing a panicked worker: the member gets a
    /// fresh polled replicator seeked to the source binlog head (the dead
    /// worker applied an unknown prefix of history; restarting from zero
    /// would replay it into the hub), and the panic is reported as data.
    fn stop_link(
        hub: &FederationHub,
        member: &Member,
        live: LiveReplicator,
    ) -> (Replicator, Option<ReplicationError>) {
        match live.stop() {
            Ok(rep) => (rep, None),
            Err(e) => {
                let mut rebuilt = Replicator::new(
                    member.source_db.clone(),
                    hub.database(),
                    LinkConfig::renaming(
                        &member.source_schema,
                        &FederationHub::schema_for(&member.name),
                    )
                    .with_filter(member.config.filter()),
                )
                .with_telemetry(hub.telemetry().clone(), &member.name);
                let head = member.source_db.read().binlog_position();
                rebuilt
                    .seek(head)
                    .expect("seek to the source's own head is never beyond-tail"); // xc-allow: head read from the same binlog one line above
                (rebuilt, Some(e))
            }
        }
    }

    /// Stop every live link: each background thread drains any remaining
    /// events, takes a final lag sample (the gauges settle to 0), and
    /// hands its replicator back for polled operation. Returns how many
    /// links were stopped. A link whose worker panicked is rebuilt in
    /// polled mode (see `stop_link`) and the first such panic is returned
    /// as [`FederationError::Replication`] — after stopping the rest.
    pub fn quiesce(&mut self) -> Result<usize, FederationError> {
        let mut stopped = 0;
        let mut first_err: Option<ReplicationError> = None;
        for member in &mut self.members {
            if !matches!(&member.link, Link::Tight(TightLink::Live(_))) {
                continue;
            }
            let Link::Tight(tight) = &mut member.link else {
                unreachable!()
            };
            let TightLink::Live(live) = std::mem::replace(tight, TightLink::Swapping) else {
                unreachable!()
            };
            let (rep, err) = Self::stop_link(&self.hub, member, live);
            member.link = Link::Tight(TightLink::Polled(rep));
            self.drain.stale.lock().insert(member.name.clone());
            stopped += 1;
            if let Some(e) = err {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(stopped),
            Some(e) => Err(e.into()),
        }
    }

    fn live_link(&self, name: &str) -> Result<&LiveReplicator, FederationError> {
        let member = self
            .members
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| FederationError::UnknownMember(name.to_owned()))?;
        match &member.link {
            Link::Tight(TightLink::Live(live)) => Ok(live),
            _ => Err(FederationError::LinkNotLive(name.to_owned())),
        }
    }

    /// Pause a live member's replication thread (maintenance window). The
    /// thread keeps sampling lag, so the hub's
    /// `replication_lag_events{link=..}` gauge shows the backlog growing.
    pub fn pause_member(&self, name: &str) -> Result<(), FederationError> {
        self.live_link(name).map(LiveReplicator::pause)?;
        self.drain.stale.lock().insert(name.to_owned());
        Ok(())
    }

    /// Resume a paused live member.
    pub fn resume_member(&self, name: &str) -> Result<(), FederationError> {
        self.live_link(name).map(LiveReplicator::resume)?;
        self.drain.stale.lock().remove(name);
        Ok(())
    }

    /// The most recent apply error on a live member's link, if any — live
    /// links keep running through errors and surface them here and in the
    /// hub's `replication_apply_errors_total{link=..}` counter.
    pub fn member_last_error(&self, name: &str) -> Result<Option<WarehouseError>, FederationError> {
        self.live_link(name).map(LiveReplicator::last_error)
    }

    /// Sync, then rebuild the hub's aggregates under its own levels — one
    /// full federation cycle.
    pub fn sync_and_aggregate(&mut self) -> Result<usize, FederationError> {
        let applied = self.sync()?;
        self.hub.aggregate_all()?;
        Ok(applied)
    }

    /// Verify a member's raw data replicated unaltered (checksum
    /// comparison; excluded tables/resources are ignored by comparing
    /// only tables present on both sides with no exclusions configured).
    pub fn verify_member(&self, instance: &XdmodInstance) -> Result<bool, FederationError> {
        let member = self
            .members
            .iter()
            .find(|m| m.name == instance.name())
            .ok_or_else(|| FederationError::UnknownMember(instance.name().to_owned()))?;
        if !member.config.excluded_resources.is_empty() {
            // Row-level exclusions make checksums legitimately differ;
            // verification is only meaningful for full replication.
            return Ok(true);
        }
        let sat_db = instance.database();
        let hub_db = self.hub.database();
        let sat = sat_db.read();
        let hub = hub_db.read();
        let sat_schema = instance.schema_name();
        let hub_schema = FederationHub::schema_for(instance.name());
        let filter = member.config.filter();
        for check in xdmod_replication::verify_schemas(&sat, &sat_schema, &hub, &hub_schema)? {
            if !filter.table_passes(&check.table) {
                continue; // excluded realm, expected absent
            }
            // Aggregate tables built satellite-side aren't replicated.
            if check.table.contains("_by_") {
                continue;
            }
            if !check.matches {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Regenerate a member instance's database from the hub (backup use
    /// case, §II-E4), and re-seed its replication link so already-
    /// restored data is not re-replicated.
    pub fn restore_member(&mut self, instance: &mut XdmodInstance) -> Result<(), FederationError> {
        let idx = self
            .members
            .iter()
            .position(|m| m.name == instance.name())
            .ok_or_else(|| FederationError::UnknownMember(instance.name().to_owned()))?;
        // A live thread must not race the restore (it could replay the
        // restored history into the hub): stop it first — it drains, then
        // the link stays polled; the caller may `go_live` again. A
        // panicked worker still leaves a usable polled link behind, but
        // aborts the restore so the operator sees the failure.
        let member = &mut self.members[idx];
        if matches!(&member.link, Link::Tight(TightLink::Live(_))) {
            let Link::Tight(tight) = &mut member.link else {
                unreachable!()
            };
            let TightLink::Live(live) = std::mem::replace(tight, TightLink::Swapping) else {
                unreachable!()
            };
            let (rep, err) = Self::stop_link(&self.hub, member, live);
            member.link = Link::Tight(TightLink::Polled(rep));
            if let Some(e) = err {
                return Err(e.into());
            }
        }
        let dump = self.hub.regeneration_dump(instance.name())?;
        instance.restore_from_dump(&dump)?;
        let position = instance.database().read().binlog_position();
        match &mut self.members[idx].link {
            Link::Tight(tight) => {
                let TightLink::Polled(rep) = tight else {
                    unreachable!("live links were stopped above")
                };
                rep.seek(position)
                    // xc-allow: position read from the link's source binlog above
                    .expect("seek to the restored instance's own head is never beyond-tail");
            }
            Link::Loose { shipper, .. } => {
                // Recreate the shipper at the new epoch; the hub-side
                // receiver keeps its state (the hub data is unchanged).
                *shipper = LooseShipper::new(instance.database());
                let mut drained = shipper.export_batch()?; // skip restore replay
                let _ = &mut drained;
            }
        }
        Ok(())
    }

    /// Convenience: are satellite and hub fully consistent right now
    /// (all links drained, checksums equal)? Used in tests and examples.
    pub fn is_consistent_with(&self, instance: &XdmodInstance) -> Result<bool, FederationError> {
        let sat_db = instance.database();
        let hub_db = self.hub.database();
        let sat = sat_db.read();
        let hub = hub_db.read();
        Ok(schemas_match(
            &sat,
            &instance.schema_name(),
            &hub,
            &FederationHub::schema_for(instance.name()),
        )
        .unwrap_or(false))
    }

    // ----- supervision: retry, restart, resync, quarantine -------------

    /// One supervision tick: drive and police every link.
    ///
    /// Per non-quarantined member, in join order:
    ///
    /// 1. a **dead live worker** (panicked thread) is detected via
    ///    [`LiveReplicator::is_dead`], the link is rebuilt in polled form
    ///    from its resumable watermark, and — if the tick's drive then
    ///    succeeds — relaunched live at its original interval;
    /// 2. a polled link that has **diverged** (watermark beyond the
    ///    source tail) or whose source **repaired a damaged binlog tail**
    ///    since the last tick is resynced from the source tables
    ///    ([`Replicator::resync_target`] — checksum-grade, filter-aware);
    /// 3. otherwise the link is driven once (poll with up to
    ///    `policy.retry.max_attempts` synchronous retries / loose
    ///    ship+apply / live error inspection);
    /// 4. `policy.max_failures` consecutive failed ticks **quarantine**
    ///    the member: its link is parked, `sync`/`supervise`/`go_live*`
    ///    skip it, and `federation_quarantines_total{link=..}` plus a
    ///    `federation.quarantine` event record the decision. Recovery is
    ///    explicit, via [`Federation::reinstate_member`].
    ///
    /// The tick is synchronous and single-threaded, so a seeded
    /// fault-injection run ([`Federation::inject_chaos`]) meets a
    /// deterministic operation sequence.
    pub fn supervise(&mut self, policy: &SupervisorPolicy) -> SupervisionReport {
        let mut out = SupervisionReport::default();
        let hub = &self.hub;
        for member in &mut self.members {
            out.members
                .push(Self::supervise_member(hub, member, policy));
        }
        // Every tick also feeds the alert engine: per-member health
        // becomes fault/all-clear observations (quarantine is re-observed
        // each tick so its alert cannot quietly timeout-resolve while the
        // member is still parked), and freshly mined telemetry events are
        // folded in.
        let now_ms = self.hub.telemetry().elapsed_ms();
        for report in &out.members {
            Self::feed_member_alerts(&mut self.alerts, report, now_ms);
        }
        self.pump_alerts();
        out
    }

    /// Translate one member's supervision outcome into alert engine
    /// observations.
    fn feed_member_alerts(engine: &mut AlertEngine, report: &MemberReport, now_ms: u64) {
        match report.health {
            MemberHealth::Quarantined => {
                engine.observe_fault(
                    FAMILY_QUARANTINE,
                    &report.name,
                    report
                        .error
                        .as_deref()
                        .unwrap_or("member quarantined by the supervisor"),
                    now_ms,
                );
            }
            MemberHealth::Stale { age_secs } => {
                let detail = report
                    .error
                    .clone()
                    .unwrap_or_else(|| format!("link stale for {age_secs}s"));
                engine.observe_fault(FAMILY_LINK_DOWN, &report.name, &detail, now_ms);
            }
            MemberHealth::Lagging { behind } => {
                engine.observe_fault(
                    FAMILY_REPLICATION_LAG,
                    &report.name,
                    &format!("{behind} events behind"),
                    now_ms,
                );
            }
            MemberHealth::Live => {
                // One healthy tick is the supervisor's all-clear for
                // every link-scoped alert family on this member.
                engine.observe_ok(FAMILY_LINK_DOWN, &report.name, now_ms);
                engine.observe_ok(FAMILY_REPLICATION_LAG, &report.name, now_ms);
                engine.observe_ok(FAMILY_QUARANTINE, &report.name, now_ms);
            }
        }
    }

    /// Mine telemetry events the engine has not yet seen into alert
    /// observations, then apply timeout transitions. Runs on every
    /// supervision tick and every alert read, so the alert view never
    /// lags the event ring.
    fn pump_alerts(&mut self) {
        let telemetry = self.hub.telemetry();
        let now_ms = telemetry.elapsed_ms();
        for event in telemetry.events() {
            if event.seq <= self.alert_seq {
                continue;
            }
            match event.kind.as_str() {
                "federation.preflight_refused" => {
                    self.alerts.observe_fault(
                        FAMILY_PREFLIGHT_REFUSED,
                        "preflight",
                        &event.message,
                        now_ms,
                    );
                }
                "gateway.saturated" => {
                    self.alerts.observe_fault(
                        FAMILY_GATEWAY_SATURATION,
                        "gateway",
                        &event.message,
                        now_ms,
                    );
                }
                _ => {}
            }
        }
        // Advance past everything emitted so far — including events the
        // ring already evicted (their loss is itself observable via
        // `telemetry_events_dropped_total`).
        self.alert_seq = self.alert_seq.max(telemetry.events_emitted());
        self.alerts.tick(now_ms);
    }

    fn supervise_member(
        hub: &FederationHub,
        member: &mut Member,
        policy: &SupervisorPolicy,
    ) -> MemberReport {
        let mut report = MemberReport {
            name: member.name.clone(),
            health: MemberHealth::Live,
            restarted: false,
            resynced: false,
            quarantined_now: false,
            error: None,
        };
        if member.supervision.quarantined {
            report.health = MemberHealth::Quarantined;
            return report;
        }
        if let Link::Tight(TightLink::Live(live)) = &member.link {
            if live.is_dead() {
                let Link::Tight(tight) = &mut member.link else {
                    unreachable!()
                };
                let TightLink::Live(live) = std::mem::replace(tight, TightLink::Swapping) else {
                    unreachable!()
                };
                let (rep, err) = Self::stop_link(hub, member, live);
                member.link = Link::Tight(TightLink::Polled(rep));
                report.restarted = true;
                if let Some(e) = &err {
                    report.error = Some(e.to_string());
                }
                hub.telemetry().event(
                    "federation.link_restarted",
                    &format!(
                        "{}: live worker died; link rebuilt from its resumable position",
                        member.name
                    ),
                );
            }
        }
        let outcome: Result<(), String> = match &mut member.link {
            Link::Tight(TightLink::Polled(rep)) => {
                let needs_resync = rep.is_diverged()
                    || rep.stats().source_repairs > member.supervision.repairs_seen;
                let drive = if needs_resync {
                    report.resynced = true;
                    rep.resync_target().map(|_| ()).map_err(|e| e.to_string())
                } else {
                    let mut left = policy.retry.max_attempts;
                    loop {
                        match rep.poll() {
                            Ok(_) => break Ok(()),
                            Err(_) if left > 0 => left -= 1,
                            Err(e) => break Err(e.to_string()),
                        }
                    }
                };
                if report.resynced {
                    member.supervision.repairs_seen = rep.stats().source_repairs;
                }
                drive
            }
            Link::Tight(TightLink::Live(live)) => match live.last_error() {
                None => Ok(()),
                Some(e) => Err(e.to_string()),
            },
            Link::Tight(TightLink::Swapping) => Err("link mid-swap".to_owned()),
            Link::Loose { shipper, receiver } => shipper
                .export_batch()
                .and_then(|batch| receiver.apply_batch(&batch))
                .map(|_| ())
                .map_err(|e| e.to_string()),
        };
        match outcome {
            Ok(()) => {
                member.supervision.last_ok = Some(Instant::now());
                if report.restarted {
                    // A panic is a strike even though the rebuilt link
                    // polls fine — a crash-looping worker must
                    // eventually park instead of thrashing forever.
                    member.supervision.failures += 1;
                    if member.supervision.failures >= policy.max_failures {
                        Self::quarantine(hub, member);
                        report.quarantined_now = true;
                        report.health = MemberHealth::Quarantined;
                        return report;
                    }
                    if let Some(interval) = member.live_interval {
                        let retry = member.config.retry_policy();
                        let Link::Tight(tight) = &mut member.link else {
                            unreachable!()
                        };
                        if matches!(tight, TightLink::Polled(_)) {
                            let TightLink::Polled(rep) =
                                std::mem::replace(tight, TightLink::Swapping)
                            else {
                                unreachable!()
                            };
                            *tight = TightLink::Live(LiveReplicator::start_with_policy(
                                rep, interval, retry,
                            ));
                        }
                    }
                } else {
                    member.supervision.failures = 0;
                }
                report.health = Self::observed_health(hub, member, policy);
            }
            Err(e) => {
                member.supervision.failures += 1;
                report.error.get_or_insert(e);
                if member.supervision.failures >= policy.max_failures {
                    Self::quarantine(hub, member);
                    report.quarantined_now = true;
                    report.health = MemberHealth::Quarantined;
                } else {
                    report.health = MemberHealth::Stale {
                        age_secs: Self::age_secs(member),
                    };
                }
            }
        }
        report
    }

    /// Park a member: stop any live worker, flag it quarantined, and
    /// record the decision in the hub's telemetry.
    fn quarantine(hub: &FederationHub, member: &mut Member) {
        if matches!(&member.link, Link::Tight(TightLink::Live(_))) {
            let Link::Tight(tight) = &mut member.link else {
                unreachable!()
            };
            let TightLink::Live(live) = std::mem::replace(tight, TightLink::Swapping) else {
                unreachable!()
            };
            let (rep, _) = Self::stop_link(hub, member, live);
            member.link = Link::Tight(TightLink::Polled(rep));
        }
        member.supervision.quarantined = true;
        hub.telemetry()
            .counter(
                "federation_quarantines_total",
                &[("link", member.name.as_str())],
            )
            .inc();
        hub.telemetry().event(
            "federation.quarantine",
            &format!(
                "{}: quarantined after repeated link failures; sync/supervise skip it \
                 until reinstate_member",
                member.name
            ),
        );
    }

    fn age_secs(member: &Member) -> u64 {
        member
            .supervision
            .last_ok
            .map(|t| t.elapsed().as_secs())
            .unwrap_or(0)
    }

    /// Health of one member as observable *right now*, without driving
    /// anything.
    fn observed_health(
        hub: &FederationHub,
        member: &Member,
        policy: &SupervisorPolicy,
    ) -> MemberHealth {
        if member.supervision.quarantined {
            return MemberHealth::Quarantined;
        }
        let stale = || MemberHealth::Stale {
            age_secs: Self::age_secs(member),
        };
        if member.supervision.failures > 0 {
            return stale();
        }
        if let Some(last) = member.supervision.last_ok {
            if last.elapsed() > policy.stale_after {
                return stale();
            }
        }
        match &member.link {
            Link::Tight(TightLink::Polled(rep)) => {
                let behind = rep.lag_events();
                if behind > policy.lag_threshold {
                    MemberHealth::Lagging { behind }
                } else {
                    MemberHealth::Live
                }
            }
            Link::Tight(TightLink::Live(live)) => {
                if live.is_dead() || live.last_error().is_some() {
                    return stale();
                }
                let behind = hub
                    .telemetry()
                    .snapshot()
                    .gauge("replication_lag_events", &[("link", member.name.as_str())])
                    .map(|v| v as u64)
                    .unwrap_or(0);
                if behind > policy.lag_threshold {
                    MemberHealth::Lagging { behind }
                } else {
                    MemberHealth::Live
                }
            }
            Link::Tight(TightLink::Swapping) => stale(),
            Link::Loose { .. } => MemberHealth::Live,
        }
    }

    /// Current health of every member (default thresholds), without
    /// driving any link — the degraded-mode view the ops report embeds.
    pub fn health(&self) -> Vec<(String, MemberHealth)> {
        let policy = SupervisorPolicy::default();
        self.members
            .iter()
            .map(|m| (m.name.clone(), Self::observed_health(&self.hub, m, &policy)))
            .collect()
    }

    /// Names of currently quarantined members.
    pub fn quarantined_members(&self) -> Vec<&str> {
        self.members
            .iter()
            .filter(|m| m.supervision.quarantined)
            .map(|m| m.name.as_str())
            .collect()
    }

    // ----- alerting: lifecycle state machines over telemetry -----------

    /// The current alert set, most urgent first. Mines telemetry events
    /// the engine has not yet seen and applies timeout transitions
    /// first, so the view reflects *now* — not the last supervisor tick.
    pub fn alerts(&mut self) -> Vec<Alert> {
        self.pump_alerts();
        self.alerts.alerts()
    }

    /// The alert engine's generation counter: bumped on every visible
    /// state change. The gateway keys `/alerts` ETags to it, mirroring
    /// `/query`'s watermark-derived versions. Reads the counter as-is
    /// (no pump), so a caller that just listed alerts gets the matching
    /// generation.
    pub fn alerts_generation(&self) -> u64 {
        self.alerts.generation()
    }

    /// Acknowledge a firing alert on behalf of `who`.
    pub fn ack_alert(&mut self, id: &str, who: &str) -> Result<(), AckError> {
        self.pump_alerts();
        let now_ms = self.hub.telemetry().elapsed_ms();
        self.alerts.ack(id, who, now_ms)
    }

    /// Read-only access to the alert engine (rules, notification
    /// counters) — test and ops visibility.
    pub fn alert_engine(&self) -> &AlertEngine {
        &self.alerts
    }

    /// Replace the alert rule table. Rules also flow into
    /// [`Federation::check_model`], so a misconfigured table is refused
    /// at [`Federation::go_live`] by `xdmod-check`'s XC0013.
    pub fn set_alert_rules(&mut self, rules: AlertRules) {
        self.alerts.set_rules(rules);
    }

    /// The hub's self-monitoring ops report, extended with a per-member
    /// "Satellite health" section — the degraded-mode view: each member
    /// annotated `live | lagging(..) | stale(..) | quarantined`.
    pub fn ops_report(&self) -> Result<xdmod_chart::Report, FederationError> {
        let mut report = self.hub.ops_report()?;
        report = report.section(xdmod_chart::Section::Heading("Satellite health".to_owned()));
        let lines: Vec<String> = self
            .health()
            .into_iter()
            .map(|(name, health)| format!("{name}: {health}"))
            .collect();
        report = report.section(xdmod_chart::Section::Text(lines.join("\n")));
        report = report.section(xdmod_chart::Section::Heading("Active alerts".to_owned()));
        let open: Vec<String> = self
            .alerts
            .alerts()
            .into_iter()
            .filter(|a| a.state.is_open())
            .map(|a| {
                format!(
                    "[{}] {}/{}: {} (x{})",
                    a.severity, a.family, a.target, a.state, a.occurrences
                )
            })
            .collect();
        report = report.section(xdmod_chart::Section::Text(if open.is_empty() {
            "none".to_owned()
        } else {
            open.join("\n")
        }));
        Ok(report)
    }

    /// Lift a quarantined member back into the federation. The member
    /// may have drifted arbitrarily while parked, so its hub schema is
    /// resynced from the source tables before polling resumes.
    pub fn reinstate_member(&mut self, name: &str) -> Result<(), FederationError> {
        let Federation { hub, members, .. } = self;
        let member = members
            .iter_mut()
            .find(|m| m.name == name)
            .ok_or_else(|| FederationError::UnknownMember(name.to_owned()))?;
        member.supervision.quarantined = false;
        member.supervision.failures = 0;
        if let Link::Tight(TightLink::Polled(rep)) = &mut member.link {
            rep.resync_target()?;
            member.supervision.repairs_seen = rep.stats().source_repairs;
        }
        hub.telemetry().event(
            "federation.reinstated",
            &format!("{name}: reinstated into the federation"),
        );
        Ok(())
    }

    /// Thread a seeded fault injector through the federation: every
    /// member's satellite database (binlog-read and apply points) and
    /// every polled tight link's transport. Live links pick the injector
    /// up when (re)built from a polled link; simplest is to inject
    /// before `go_live*`.
    pub fn inject_chaos(&mut self, injector: &FaultInjector) {
        for member in &mut self.members {
            member
                .source_db
                .write()
                .set_fault_injector(injector.clone(), member.name.as_str());
            if let Link::Tight(TightLink::Polled(rep)) = &mut member.link {
                rep.set_chaos(injector.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::XdmodVersion;
    use xdmod_warehouse::{Aggregate, Query};

    const SACCT_X: &str = "\
JobID|User|Account|Partition|NNodes|NCPUS|Submit|Start|End|State|AllocGPUs
1|alice|phys|normal|1|24|2017-01-05T08:00:00|2017-01-05T09:00:00|2017-01-05T11:00:00|COMPLETED|0
";
    const SACCT_Y: &str = "\
JobID|User|Account|Partition|NNodes|NCPUS|Submit|Start|End|State|AllocGPUs
7|bob|chem|normal|2|32|2017-03-01T00:00:00|2017-03-01T01:00:00|2017-03-01T03:00:00|COMPLETED|0
8|carol|bio|normal|1|16|2017-03-02T00:00:00|2017-03-02T00:30:00|2017-03-02T06:30:00|COMPLETED|0
";

    fn instance(name: &str, log: &str, resource: &str) -> XdmodInstance {
        let mut inst = XdmodInstance::new(name);
        inst.ingest_sacct(resource, log).unwrap();
        inst
    }

    #[test]
    fn fig2_three_satellite_fan_in() {
        // Figure 2: instances X, Y, Z monitoring resources L, M, N.
        let x = instance("x", SACCT_X, "resource-l");
        let y = instance("y", SACCT_Y, "resource-m");
        let z = instance("z", SACCT_X, "resource-n");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.join_tight(&y, FederationConfig::default()).unwrap();
        fed.join_tight(&z, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 4);
        let rs = fed
            .hub()
            .federated_query(
                RealmKind::Jobs,
                &Query::new()
                    .group_by_column("resource")
                    .aggregate(Aggregate::count("jobs")),
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn version_gate_rejects_mismatched_satellite() {
        let old = XdmodInstance::with_version("old", XdmodVersion::new(7, 5, 0));
        let mut fed = Federation::new(FederationHub::new("hub"));
        let err = fed
            .join_tight(&old, FederationConfig::default())
            .unwrap_err();
        assert!(matches!(err, FederationError::VersionMismatch { .. }));
        assert!(err.to_string().contains("same version"));
    }

    #[test]
    fn duplicate_join_rejected() {
        let x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        assert!(matches!(
            fed.join_loose(&x, FederationConfig::default()),
            Err(FederationError::DuplicateMember(_))
        ));
    }

    #[test]
    fn heterogeneous_tight_and_loose_members() {
        let x = instance("x", SACCT_X, "r-x");
        let y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.join_loose(&y, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
        assert_eq!(
            fed.members(),
            vec![("x", FederationMode::Tight), ("y", FederationMode::Loose)]
        );
    }

    #[test]
    fn initial_release_excludes_supremm() {
        let mut x = XdmodInstance::new("x");
        x.ingest_sacct("r", SACCT_X).unwrap();
        x.ingest_pcp("job 1 r alice 1483700000\nts 1483690000 cpu_user 0.9\nend\n")
            .unwrap();
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        let hub_db = fed.hub().database();
        let hub = hub_db.read();
        let schema = FederationHub::schema_for("x");
        assert!(hub.table(&schema, "jobfact").is_ok());
        assert!(hub.table(&schema, "supremm_jobfact").is_err());
        assert!(hub.table(&schema, "supremm_timeseries").is_err());
    }

    #[test]
    fn supremm_summaries_federate_without_raw_performance_data() {
        // §II-C5's "subsequent release": the heavy per-job data stays
        // local; the small monthly summary crosses.
        let mut x = XdmodInstance::new("x");
        x.ingest_sacct("r", SACCT_X).unwrap();
        x.ingest_pcp(
            "job 1 r alice 1483700000\nts 1483690000 cpu_user 0.9\nts 1483690600 memory_used 12.0\nscript #!/bin/sh\nend\n",
        )
        .unwrap();
        x.aggregate().unwrap(); // builds supremm_summary_by_month

        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default().with_supremm_summaries())
            .unwrap();
        fed.sync().unwrap();

        let hub_db = fed.hub().database();
        let hub = hub_db.read();
        let schema = FederationHub::schema_for("x");
        // Summary table crossed, with data.
        let summary = hub.table(&schema, "supremm_summary_by_month").unwrap();
        assert_eq!(summary.len(), 1);
        let cpu_idx = summary.schema().column_index("avg_cpu_user").unwrap();
        assert_eq!(
            summary.rows().unwrap()[0][cpu_idx],
            xdmod_warehouse::Value::Float(0.9)
        );
        // Raw realm tables did not.
        assert!(hub.table(&schema, "supremm_jobfact").is_err());
        assert!(hub.table(&schema, "supremm_timeseries").is_err());
        assert!(hub.table(&schema, "supremm_jobscript").is_err());
    }

    #[test]
    fn verify_member_detects_clean_replication() {
        let x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        assert!(fed.verify_member(&x).unwrap());
    }

    #[test]
    fn resource_exclusion_keeps_sensitive_rows_local() {
        let mut x = XdmodInstance::new("x");
        x.ingest_sacct("open", SACCT_X).unwrap();
        x.ingest_sacct("secret", SACCT_Y).unwrap();
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default().exclude("secret"))
            .unwrap();
        fed.sync().unwrap();
        let rs = fed
            .hub()
            .federated_query(
                RealmKind::Jobs,
                &Query::new()
                    .group_by_column("resource")
                    .aggregate(Aggregate::count("jobs")),
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.rows[0][0], xdmod_warehouse::Value::Str("open".into()));
    }

    #[test]
    fn ongoing_ingest_flows_through_sync() {
        let mut x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 1);
        x.ingest_sacct("r", SACCT_Y).unwrap();
        fed.sync().unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
    }

    #[test]
    fn sync_and_aggregate_builds_hub_aggregates() {
        let x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.sync_and_aggregate().unwrap();
        let hub_db = fed.hub().database();
        let hub = hub_db.read();
        let t = hub
            .table(&FederationHub::schema_for("x"), "jobfact_by_month")
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn restore_member_round_trips_and_does_not_duplicate() {
        let mut x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        let before = x.fact_rows(RealmKind::Jobs).unwrap();

        // Disaster: satellite loses everything; regenerate from the hub.
        fed.restore_member(&mut x).unwrap();
        assert_eq!(x.fact_rows(RealmKind::Jobs).unwrap(), before);
        // SUPReMM tables (never federated) are back, empty.
        assert_eq!(x.fact_rows(RealmKind::Supremm).unwrap(), 0);

        // Subsequent sync must not duplicate hub rows.
        fed.sync().unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 1);
        // And new ingest still replicates.
        x.ingest_sacct("r", SACCT_Y).unwrap();
        fed.sync().unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
    }

    /// Poll `cond` for up to ~5 s; panic with `what` if it never holds.
    fn eventually(what: &str, mut cond: impl FnMut() -> bool) {
        for _ in 0..5000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn live_links_replicate_without_sync() {
        let mut x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        assert_eq!(fed.go_live(Duration::from_millis(1)).unwrap(), 1);
        assert_eq!(fed.go_live(Duration::from_millis(1)).unwrap(), 0); // idempotent

        // New ingest flows to the hub with nobody calling sync().
        x.ingest_sacct("r", SACCT_Y).unwrap();
        eventually("live replication of 3 jobs", || {
            fed.hub().federated_fact_rows(RealmKind::Jobs) == 3
        });
        // sync() leaves live links alone rather than fighting the thread.
        assert_eq!(fed.sync().unwrap(), 0);

        assert_eq!(fed.quiesce().unwrap(), 1);
        // Quiescing drained the link and settled the lag gauges to zero.
        let snap = fed.hub().telemetry().snapshot();
        assert_eq!(
            snap.gauge("replication_lag_events", &[("link", "x")]),
            Some(0.0)
        );
        assert_eq!(
            snap.counter("replication_events_applied_total", &[("link", "x")])
                .map(|n| n > 0),
            Some(true)
        );
        // Back in polled mode, sync() drives the link again.
        x.ingest_sacct("r", SACCT_X).unwrap();
        assert!(fed.sync().unwrap() > 0);
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 4);
    }

    #[test]
    fn paused_member_shows_lag_on_the_hub_gauges() {
        let mut x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.go_live(Duration::from_millis(1)).unwrap();
        eventually("initial drain", || {
            fed.hub().federated_fact_rows(RealmKind::Jobs) == 1
        });

        fed.pause_member("x").unwrap();
        x.ingest_sacct("r", SACCT_Y).unwrap();
        eventually("lag gauge to rise while paused", || {
            fed.hub()
                .telemetry()
                .snapshot()
                .gauge("replication_lag_events", &[("link", "x")])
                .is_some_and(|lag| lag > 0.0)
        });
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 1);

        fed.resume_member("x").unwrap();
        eventually("backlog to drain after resume", || {
            fed.hub().federated_fact_rows(RealmKind::Jobs) == 3
        });
        assert_eq!(fed.member_last_error("x").unwrap(), None);
        fed.quiesce().unwrap();
        // The maintenance window left a lag audit trail for ops_report.
        assert!(!fed
            .hub()
            .telemetry()
            .events_of_kind("replication.lag")
            .is_empty());
    }

    #[test]
    fn drain_notice_tracks_paused_and_quiesced_members() {
        let x = instance("x", SACCT_X, "r-x");
        let y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.join_tight(&y, FederationConfig::default()).unwrap();
        let notice = fed.drain_notice();
        assert!(!notice.is_draining());

        fed.go_live(Duration::from_millis(1)).unwrap();
        assert!(!notice.is_draining());

        // A maintenance pause marks exactly that member stale.
        fed.pause_member("x").unwrap();
        assert!(notice.is_draining());
        assert_eq!(notice.stale_members(), vec!["x".to_owned()]);
        fed.resume_member("x").unwrap();
        assert!(!notice.is_draining());

        // Quiesce stops every live link: all members go stale...
        fed.quiesce().unwrap();
        assert_eq!(notice.stale_members(), vec!["x".to_owned(), "y".to_owned()]);
        // ...until a polled sync drains the backlog...
        fed.sync().unwrap();
        assert!(!notice.is_draining());

        // ...or going live again hands the backlog to fresh workers.
        fed.quiesce().unwrap_or_default();
        fed.go_live(Duration::from_millis(1)).unwrap();
        assert!(!notice.is_draining());
        fed.quiesce().unwrap();
        fed.sync().unwrap();
        assert!(!notice.is_draining());

        // Failed pauses never mark anything stale.
        let _ = fed.pause_member("ghost");
        assert!(!notice.is_draining());
    }

    #[test]
    fn pause_requires_a_live_link() {
        let x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        assert!(matches!(
            fed.pause_member("x"),
            Err(FederationError::LinkNotLive(_))
        ));
        assert!(matches!(
            fed.pause_member("ghost"),
            Err(FederationError::UnknownMember(_))
        ));
    }

    #[test]
    fn restore_unknown_member_errors() {
        let mut stranger = XdmodInstance::new("stranger");
        let mut fed = Federation::new(FederationHub::new("hub"));
        assert!(matches!(
            fed.restore_member(&mut stranger),
            Err(FederationError::Warehouse(_)) | Err(FederationError::UnknownMember(_))
        ));
    }

    #[test]
    fn preflight_is_clean_for_a_healthy_federation() {
        let mut x = instance("x", SACCT_X, "r");
        x.set_su_factor("r", 1.5);
        let y = {
            let mut y = instance("y", SACCT_Y, "s");
            y.set_su_factor("s", 2.0);
            y
        };
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.join_loose(&y, FederationConfig::default()).unwrap();
        let diags = fed.preflight();
        assert!(diags.is_empty(), "unexpected: {}", diags.render_text());
    }

    #[test]
    fn check_model_reflects_topology_and_catalog() {
        let mut x = instance("x", SACCT_X, "r");
        x.set_su_factor("r", 1.5);
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default().exclude("secret"))
            .unwrap();
        let m = fed.check_model();
        assert_eq!(m.hub, "hub");
        let s = &m.satellites[0];
        assert_eq!(s.link.source_schema, "xdmod_x");
        assert_eq!(s.link.hub_schema, "inst_x");
        assert!(s.replicates("jobfact"));
        assert!(!s.replicates("supremm_jobfact"));
        assert_eq!(s.expected_tables, vec!["jobfact".to_owned()]);
        assert_eq!(s.excluded_resources, vec!["secret".to_owned()]);
        assert_eq!(s.job_resources, vec!["r".to_owned()]);
        assert_eq!(s.su_factors, vec!["r".to_owned()]);
        // Catalog came from warehouse introspection.
        let jobfact = s.table("jobfact").expect("jobfact in catalog");
        assert!(jobfact.column("resource").is_some());
        // Aggregates cover all realms; group-bys only declared ones.
        assert_eq!(m.aggregates.len(), 4);
        assert_eq!(m.group_bys.len(), 1);
        assert_eq!(m.group_bys[0].fact_table, "jobfact");
    }

    #[test]
    fn preflight_refuses_go_live_on_hub_schema_collision() {
        // schema_for maps both names to inst_site_a — the paper-scale
        // footgun XC0001 exists for.
        let a = instance("site-a", SACCT_X, "r-a");
        let b = instance("site.a", SACCT_Y, "r-b");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&a, FederationConfig::default()).unwrap();
        fed.join_tight(&b, FederationConfig::default()).unwrap();

        let err = fed.go_live(Duration::from_millis(1)).unwrap_err();
        match &err {
            FederationError::Preflight { errors, report } => {
                assert!(*errors >= 1);
                assert!(report.contains("XC0001"), "report: {report}");
            }
            other => panic!("expected Preflight, got {other:?}"),
        }
        // Refusal is observable on the ops dashboard.
        assert!(!fed
            .hub()
            .telemetry()
            .events_of_kind("federation.preflight_refused")
            .is_empty());
        // No link went live.
        assert!(matches!(
            fed.pause_member("site-a"),
            Err(FederationError::LinkNotLive(_))
        ));

        // The operator override still works.
        assert_eq!(fed.go_live_forced(Duration::from_millis(1)), 2);
        fed.quiesce().unwrap();
    }

    #[test]
    fn missing_su_factor_warns_but_does_not_gate_go_live() {
        let x = instance("x", SACCT_X, "r"); // no set_su_factor call
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let diags = fed.preflight();
        assert!(!diags.has_errors());
        assert_eq!(diags.count(xdmod_check::Severity::Warning), 1);
        assert_eq!(fed.go_live(Duration::from_millis(1)).unwrap(), 1);
        fed.quiesce().unwrap();
    }

    #[test]
    fn supervise_quarantines_after_repeated_failures_and_reinstates() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};

        let x = instance("x", SACCT_X, "r-x");
        let y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.join_tight(&y, FederationConfig::default()).unwrap();

        // x's transport dies permanently; y is untouched.
        let plan = FaultPlan::new().with(
            FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[1]).for_target("x"),
        );
        let injector = plan.injector(42);
        fed.inject_chaos(&injector);

        let policy = SupervisorPolicy::default()
            .with_max_failures(2)
            .with_retry(xdmod_replication::RetryPolicy::no_retries());
        let first = fed.supervise(&policy);
        assert_eq!(
            first.health_of("x"),
            Some(MemberHealth::Stale { age_secs: 0 })
        );
        assert!(first.health_of("y").is_some_and(|h| h.is_healthy()));
        let second = fed.supervise(&policy);
        assert_eq!(second.health_of("x"), Some(MemberHealth::Quarantined));
        assert!(second.members[0].quarantined_now);
        assert_eq!(fed.quarantined_members(), vec!["x"]);
        // Parked: further ticks and syncs skip x without driving it.
        let third = fed.supervise(&policy);
        assert_eq!(third.health_of("x"), Some(MemberHealth::Quarantined));
        assert!(!third.members[0].quarantined_now);
        fed.sync().unwrap(); // x's permanently-down link no longer errors the sync
                             // The decision is on the dashboard.
        assert_eq!(
            fed.hub()
                .telemetry()
                .snapshot()
                .counter("federation_quarantines_total", &[("link", "x")]),
            Some(1)
        );
        assert!(!fed
            .hub()
            .telemetry()
            .events_of_kind("federation.quarantine")
            .is_empty());
        // y replicated fine throughout.
        assert!(fed.verify_member(&y).unwrap());

        // Reinstatement clears the quarantine and resyncs the hub schema
        // from x's tables — data flows again (the injector stays wired,
        // but resync bypasses the dead transport in this scenario; health
        // is recomputed fresh).
        fed.reinstate_member("x").unwrap();
        assert!(fed.quarantined_members().is_empty());
        assert!(fed.verify_member(&x).unwrap());
        assert!(!fed
            .hub()
            .telemetry()
            .events_of_kind("federation.reinstated")
            .is_empty());
    }

    #[test]
    fn supervise_resyncs_past_crash_damaged_source_binlog() {
        let x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        assert!(fed.is_consistent_with(&x).unwrap());

        // A write lands in x's tables, then a crash mangles the binlog
        // tail: the record exists in the table but its event is
        // unreadable — replay alone can never deliver it to the hub.
        {
            let db = x.database();
            let mut db = db.write();
            let row = db
                .table(&x.schema_name(), "jobfact")
                .unwrap()
                .rows()
                .unwrap()[0]
                .clone();
            db.insert(&x.schema_name(), "jobfact", vec![row]).unwrap();
            db.truncate_binlog_tail(6);
        }

        let policy = SupervisorPolicy::default();
        // Tick 1: the poll finds the corrupt tail, repairs the source
        // log past it, and resumes — but the dropped record leaves the
        // hub behind the source tables.
        let t1 = fed.supervise(&policy);
        assert!(!t1.members[0].resynced);
        assert!(!fed.is_consistent_with(&x).unwrap());
        // Tick 2: the supervisor notices the repair (lost records) and
        // resyncs the hub schema from the source tables.
        let t2 = fed.supervise(&policy);
        assert!(t2.members[0].resynced);
        assert!(t2.all_healthy());
        assert!(fed.is_consistent_with(&x).unwrap());
        // Both the repair and the resync left telemetry trails.
        assert!(!fed
            .hub()
            .telemetry()
            .events_of_kind("replication.source_repaired")
            .is_empty());
        assert!(!fed
            .hub()
            .telemetry()
            .events_of_kind("replication.resync")
            .is_empty());
    }

    #[test]
    fn health_reflects_lag_and_ops_report_carries_satellite_section() {
        let x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        // Not yet polled: the whole binlog is backlog.
        let health = fed.health();
        assert_eq!(health.len(), 1);
        assert!(matches!(health[0].1, MemberHealth::Lagging { behind } if behind > 0));
        fed.sync().unwrap();
        assert_eq!(fed.health()[0].1, MemberHealth::Live);

        let report = fed.ops_report().unwrap();
        let text = report.render();
        assert!(text.contains("Satellite health"), "report: {text}");
        assert!(text.contains("x: live"), "report: {text}");
    }

    /// Pins the analyzer's std-only realm→tables data against the realm
    /// crate's constants: if a realm gains a table, `xdmod-check` must
    /// learn it too or pre-flight would pass configs that starve the hub.
    #[test]
    fn realm_tables_in_sync_with_check_model() {
        for realm in RealmKind::ALL {
            let name = format!("{realm:?}").to_ascii_lowercase();
            let ours = FederationConfig::realm_table_names(realm);
            let theirs = xdmod_check::model::realm_tables(&name)
                .unwrap_or_else(|| panic!("xdmod-check lacks realm {name}"));
            assert_eq!(ours, theirs, "realm {name}");
        }
    }

    /// Pins the analyzer's std-only alert-family data (and default
    /// windows) against the alert crate's constants, same contract as
    /// `realm_tables_in_sync_with_check_model`: if a new family starts
    /// firing, XC0013 must learn it too or valid rules would be refused.
    #[test]
    fn alert_families_in_sync_with_check_model() {
        let mut ours: Vec<&str> = xdmod_alerts::FAMILIES.to_vec();
        ours.sort_unstable();
        assert_eq!(&ours[..], xdmod_check::alert_families());
        assert_eq!(
            xdmod_check::DEFAULT_ALERT_DEBOUNCE_MS,
            xdmod_alerts::DEFAULT_DEBOUNCE_MS
        );
        assert_eq!(
            xdmod_check::DEFAULT_ALERT_RESOLVE_TIMEOUT_MS,
            xdmod_alerts::DEFAULT_RESOLVE_TIMEOUT_MS
        );
    }
}
