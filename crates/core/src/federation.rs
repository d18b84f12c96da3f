//! The Federation module: wiring satellites to a hub.
//!
//! "The new XDMoD Federation module further extends the application,
//! providing the ability for multiple disparate XDMoD installations to
//! replicate their raw data to a central, federated hub server." (§I-E)
//!
//! A [`Federation`] owns the hub plus one link per satellite — a [`Link`]
//! holding the member's [`Replicator`] for life, pulling into the hub
//! from a position the hub keeps — and one schedule that steps each link
//! through [`Replicator::step`] under its member's retry policy. Tight
//! versus loose is only an interval: after [`Federation::go_live`], one
//! driver thread steps each **tight** member at the live interval, while
//! a **loose** one is stepped a batch per [`Federation::sync`] or
//! supervision pass, freely mixed (§II-C2's heterogeneous model).
//! Joining enforces the version gate and stores the member's
//! `xdmod_check::SatelliteModel`, the one record its link is compiled
//! from and pre-flight vets; a programmatic join's [`FederationConfig`]
//! chooses which realms replicate (the initial release federates only
//! HPC Jobs) and which resources are excluded from federation (§II-C4).

use crate::hub::FederationHub;
use crate::instance::XdmodInstance;
use crate::supervisor::{MemberHealth, MemberReport, SupervisionReport, SupervisorPolicy};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use xdmod_alerts::{
    AckError, Alert, AlertEngine, AlertRules, FAMILY_GATEWAY_SATURATION, FAMILY_LINK_DOWN,
    FAMILY_PREFLIGHT_REFUSED, FAMILY_QUARANTINE, FAMILY_REPLICATION_LAG,
};
use xdmod_chaos::FaultInjector;
use xdmod_check::model::realm_selection;
use xdmod_check::{LinkModel, SatelliteModel};
use xdmod_realms::{cloud as cloud_realm, jobs, storage, supremm, RealmKind};
use xdmod_replication::{
    Link, LinkConfig, ReplicationError, ReplicationFilter, Replicator, RetryPolicy, Step,
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
    /// The operation needs a live tight link (see [`Federation::go_live`]),
    /// but this member's link is polled (a loose member's always is).
    LinkNotLive(String),
    /// Static pre-flight analysis found Error-severity diagnostics;
    /// `go_live` refuses to start live replication over a topology that
    /// is known to produce silent data corruption or empty reports.
    /// Override with [`Federation::go_live_forced`].
    Preflight {
        /// Number of Error-severity diagnostics.
        errors: usize,
        /// Full rendered diagnostic report (text format).
        report: String,
    },
    /// The federation document could not be read (see
    /// [`Federation::from_config`]).
    Config(String),
    /// A replication link refused an operation (e.g. a seek past its tail).
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
            FederationError::Config(msg) => write!(f, "bad federation config: {msg}"),
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

impl From<xdmod_check::ModelError> for FederationError {
    fn from(e: xdmod_check::ModelError) -> Self {
        FederationError::Config(e.0)
    }
}

/// Per-satellite intent for a programmatic join: which realms replicate
/// and which resources stay local. Joining turns it into the member's
/// [`SatelliteModel`], the record its link runs from and pre-flight vets.
#[derive(Debug, Clone, PartialEq)]
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
    pub supremm_summaries: bool,
}

impl Default for FederationConfig {
    /// The paper's initial release: HPC Jobs only, nothing excluded, no
    /// performance summaries.
    fn default() -> Self {
        FederationConfig {
            realms: vec![RealmKind::Jobs],
            excluded_resources: Vec::new(),
            supremm_summaries: false,
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
            ..FederationConfig::default()
        }
    }

    /// Exclude a resource.
    pub fn exclude(mut self, resource: &str) -> Self {
        self.excluded_resources.push(resource.to_owned());
        self
    }

    /// Also replicate monthly SUPReMM summaries (not the raw realm).
    pub fn with_supremm_summaries(mut self) -> Self {
        self.supremm_summaries = true;
        self
    }

    /// The member record a join with this intent stores: the instance's
    /// own schemas and name, and the table selection the realms imply.
    fn into_model(self, instance: &XdmodInstance, mode: &str) -> SatelliteModel<'static> {
        let name = instance.name().to_owned();
        let realms: Vec<_> = self.realms.iter().map(|r| r.ident()).collect();
        SatelliteModel {
            link: LinkModel {
                id: name.clone().into(),
                source_schema: instance.schema_name().into(),
                hub_schema: FederationHub::schema_for(&name).into(),
                mode: Some(mode.to_owned().into()),
                retries: None,
            },
            replicated_tables: realm_selection(&realms, self.supremm_summaries),
            expected_tables: realm_selection(&realms, false).unwrap_or_default(),
            realms,
            excluded_resources: self
                .excluded_resources
                .into_iter()
                .map(Cow::Owned)
                .collect(),
            tables: Vec::new(),
            job_resources: Vec::new(),
            su_factors: Vec::new(),
            supremm_summaries: self.supremm_summaries,
            name: name.into(),
        }
    }
}

/// Compile a member's record into its replication filter. The filter
/// also carries the member's expected tables as *required*, so the
/// replicator can count any drop of a downstream-needed table
/// (`replication_filtered_required_tables_total`).
fn filter(model: &SatelliteModel) -> ReplicationFilter {
    let mut filter = ReplicationFilter::all()
        .with_tables(realm_selection(&model.realms, model.supremm_summaries).unwrap_or_default())
        .with_required_tables(model.expected_tables.iter().cloned())
        .with_resource_column(jobs::FACT_TABLE, "resource")
        .with_resource_column(supremm::FACT_TABLE, "resource")
        .with_resource_column(storage::FACT_TABLE, "filesystem")
        .with_resource_column(cloud_realm::FACT_TABLE, "resource");
    for r in &model.excluded_resources {
        filter = filter.exclude_resource(r);
    }
    filter
}

/// The retry policy a member's link runs with, whoever steps it: the
/// [`RetryPolicy`] default with `retries` attempts when set — none for an
/// explicit 0 (`XC0010` on tight links). Joining refuses counts above
/// `u32::MAX`.
fn retry_policy(model: &SatelliteModel) -> RetryPolicy {
    let mut policy = RetryPolicy::default();
    if let Some(n) = model.link.retries {
        policy.max_attempts = u32::try_from(n).unwrap_or(u32::MAX);
    }
    policy
}

/// How a satellite is coupled to the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FederationMode {
    /// Live binlog replication, stepped at the interval `go_live` sets.
    Tight,
    /// Periodic batches: each `sync` and supervision pass steps the
    /// link, which never goes live.
    Loose,
}

/// One federated satellite: the record its link runs from, and the link.
struct Member {
    /// The member's topology, join-time SU factors included, as
    /// [`Federation::preflight`] vets it (plus the live catalog).
    model: SatelliteModel<'static>,
    /// The member's one link and its schedule, shared with the driver.
    slot: Arc<Slot>,
    /// The satellite's database handle, captured at join so pre-flight
    /// can introspect the source catalog and chaos can be wired into it
    /// without the `XdmodInstance` in hand.
    source_db: SharedDatabase,
    /// Supervision passes in a row that found the link's latest step
    /// failed (see [`Federation::supervise`]).
    strikes: u32,
}

impl Member {
    fn name(&self) -> &str {
        &self.model.name
    }

    fn mode(&self) -> FederationMode {
        match self.model.link.mode.as_deref() {
            Some("loose") => FederationMode::Loose,
            _ => FederationMode::Tight,
        }
    }
}

/// One member's link beside its place in the schedule, shared with the
/// driver thread, which steps it without the federation's lock.
struct Slot {
    link: Link,
    schedule: Mutex<Schedule>,
}

/// When a member's link is stepped next, and how its steps went.
struct Schedule {
    /// The link is due at and after this instant.
    due: Instant,
    /// The live interval of a tight member after `go_live`; `None`
    /// (loose, or not live): only `sync` and `supervise` step it.
    interval: Option<Duration>,
    /// Paused by [`Federation::pause_member`]: a due tick only samples.
    paused: bool,
    /// Parked by supervision: nothing steps it until reinstated.
    quarantined: bool,
    last_ok: Option<Instant>,
    /// The latest step failed; `retrying` if it planned a retry.
    failed: bool,
    retrying: bool,
    /// Stepped since the last supervision pass.
    stepped: bool,
}

/// Which polled links a pass steps, beside the live links that are due:
/// none (a tick), those due (`supervise`, so that a retry waits out its
/// backoff), or all (`sync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Tick,
    Supervise,
    Sync,
}

/// When a link stepped at `now` is due again if its step asked for no
/// retry: at once when polled, else an interval on (a century on, past
/// the clock's range).
fn due_after(now: Instant, interval: Option<Duration>) -> Instant {
    let century = Duration::from_secs(100 * 365 * 86_400);
    interval.map_or(now, |i| now.checked_add(i).unwrap_or(now + century))
}

impl Slot {
    /// Take this link's turn in `pass` at `now`: step it if it is due (a
    /// live link only when `live`, as the driver's are its alone while it
    /// runs; a paused one is only sampled), then set when it is due next:
    /// at the step's `retry_at`, or else an interval on.
    fn run(&self, now: Instant, pass: Pass, live: bool) -> Option<Step> {
        let sample = {
            let s = self.schedule.lock();
            let due = s.due <= now;
            match s.interval {
                _ if s.quarantined => return None,
                Some(_) if live && due => s.paused,
                None if pass == Pass::Sync || (pass == Pass::Supervise && due) => false,
                _ => return None,
            }
        };
        if sample {
            self.link.hold(|link| link.sample_lag(now));
            let mut s = self.schedule.lock();
            s.due = due_after(now, s.interval);
            return None;
        }
        let step = self.link.step(now);
        let mut s = self.schedule.lock();
        s.stepped = true;
        s.due = step.retry_at.unwrap_or_else(|| due_after(now, s.interval));
        s.failed = step.outcome.is_err();
        s.retrying = s.failed && step.retry_at.is_some();
        if step.outcome.is_ok() {
            s.last_ok = Some(now);
        }
        Some(step)
    }
}

/// Every member's slot, in join order, shared by the federation and its
/// driver thread.
#[derive(Default)]
struct Roster {
    slots: Mutex<Vec<Arc<Slot>>>,
    /// Raised to end the driver's loop.
    stop: AtomicBool,
}

impl Roster {
    /// Run `pass` over every slot at `now`: per member, its step if any.
    fn pass(&self, now: Instant, pass: Pass, live: bool) -> Vec<Option<Step>> {
        let slots = self.slots.lock().clone();
        slots.iter().map(|slot| slot.run(now, pass, live)).collect()
    }

    /// The driver's loop: tick at the wall clock, then park until the
    /// earliest due live link, or until unparked, and stop once asked.
    fn drive(&self) {
        while !self.stop.load(Ordering::Acquire) {
            self.pass(Instant::now(), Pass::Tick, true);
            let slots = self.slots.lock().clone();
            let next = slots
                .iter()
                .filter_map(|slot| {
                    let s = slot.schedule.lock();
                    s.interval.filter(|_| !s.quarantined).map(|_| s.due)
                })
                .min();
            match next {
                Some(due) => thread::park_timeout(due.saturating_duration_since(Instant::now())),
                None => thread::park(),
            }
        }
    }
}

/// The federation's one driver thread, and the interval it started with.
struct Driver {
    thread: JoinHandle<()>,
    interval: Duration,
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
    /// The members serving *stale* data: paused live links, and links
    /// taken off the live interval by [`Federation::quiesce`] whose
    /// backlog no later `sync` has drained.
    stale: Arc<Mutex<BTreeSet<String>>>,
}

impl DrainNotice {
    /// Whether any member's replication is currently paused or stopped —
    /// i.e. whether federated answers may be stale.
    pub fn is_draining(&self) -> bool {
        !self.stale.lock().is_empty()
    }

    /// The members whose links are paused/stopped, sorted by name.
    pub fn stale_members(&self) -> Vec<String> {
        self.stale.lock().iter().cloned().collect()
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
    /// The members' slots again, for the driver thread.
    roster: Arc<Roster>,
    /// Runs between `go_live` and `quiesce`.
    driver: Option<Driver>,
    drain: DrainNotice,
    /// Alert-lifecycle engine fed by the supervisor and the telemetry
    /// event ring (see [`Federation::alerts`]).
    alerts: AlertEngine,
    /// Last telemetry event sequence folded into the alert engine, so
    /// each pump only mines events it has not yet seen.
    alert_seq: u64,
    /// The document's `storage` stanza the hub was built from, which
    /// pre-flight vets (XC0014, XC0015); `None` when built in code.
    pub(crate) storage: Option<xdmod_check::model::StorageModel<'static>>,
}

impl Federation {
    /// Create a federation around a hub.
    pub fn new(hub: FederationHub) -> Self {
        Federation {
            hub,
            members: Vec::new(),
            roster: Arc::default(),
            driver: None,
            drain: DrainNotice {
                stale: Arc::default(),
            },
            alerts: AlertEngine::new(AlertRules::default()),
            alert_seq: 0,
            storage: None,
        }
    }

    /// A handle the serving tier polls to refuse queries while any
    /// member's replication is paused or quiesced (see [`DrainNotice`]).
    pub fn drain_notice(&self) -> DrainNotice {
        self.drain.clone()
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
        self.members.iter().map(|m| (m.name(), m.mode())).collect()
    }

    /// Join a satellite with live ("tight") replication.
    pub fn join_tight(
        &mut self,
        instance: &XdmodInstance,
        config: FederationConfig,
    ) -> Result<(), FederationError> {
        self.join(instance, config.into_model(instance, "tight"))
    }

    /// Join a satellite with batched ("loose") replication: its link is
    /// stepped by `sync` and `supervise` and never goes live.
    pub fn join_loose(
        &mut self,
        instance: &XdmodInstance,
        config: FederationConfig,
    ) -> Result<(), FederationError> {
        self.join(instance, config.into_model(instance, "loose"))
    }

    /// Join `instance` as the member `model` describes, after the version
    /// gate and duplicate check. The instance's SU factors are captured
    /// into the record (factors added afterwards are not seen). Joining a
    /// live federation puts a tight member on the live interval, as a
    /// repeated `go_live` would.
    pub(crate) fn join(
        &mut self,
        instance: &XdmodInstance,
        mut model: SatelliteModel<'static>,
    ) -> Result<(), FederationError> {
        if !instance.version().federates_with(self.hub.version()) {
            return Err(FederationError::VersionMismatch {
                satellite: instance.version().to_string(),
                hub: self.hub.version().to_string(),
            });
        }
        if self.members.iter().any(|m| m.name() == instance.name()) {
            return Err(FederationError::DuplicateMember(instance.name().to_owned()));
        }
        let link = Link::new(
            Replicator::new(
                instance.database(),
                self.hub.database(),
                Self::link_for(instance, &model)?,
            )
            .with_telemetry(self.hub.telemetry().clone(), instance.name())
            .with_retries(retry_policy(&model)),
        );
        model.su_factors = instance
            .su_converter()
            .resources()
            .map(|(r, _)| Cow::Owned(r.to_owned()))
            .collect();
        let slot = Arc::new(Slot {
            link,
            schedule: Mutex::new(Schedule {
                due: Instant::now(),
                interval: None,
                paused: false,
                quarantined: false,
                last_ok: None,
                failed: false,
                retrying: false,
                stepped: false,
            }),
        });
        self.hub.register_satellite(instance.name());
        self.roster.slots.lock().push(Arc::clone(&slot));
        self.members.push(Member {
            model,
            slot,
            source_db: instance.database(),
            strikes: 0,
        });
        if let Some(interval) = self.driver.as_ref().map(|driver| driver.interval) {
            self.schedule_live(interval, Instant::now());
            self.wake();
        }
        Ok(())
    }

    /// The link `model` runs with over `instance`: its schema renamed into
    /// its hub schema through the filter the model compiles to. A model
    /// build cannot run is refused with [`FederationError::Config`] naming
    /// the satellite and the field (see [`Federation::from_config`]).
    pub(crate) fn link_for(
        instance: &XdmodInstance,
        model: &SatelliteModel,
    ) -> Result<LinkConfig, FederationError> {
        let refuse = |what: String| {
            Err(FederationError::Config(format!(
                "satellite {}: {what}",
                model.name
            )))
        };
        if !matches!(model.link.mode.as_deref(), Some("tight" | "loose")) {
            return refuse("\"mode\" must be \"tight\" or \"loose\"".to_owned());
        }
        if model.link.retries.is_some_and(|n| n > u64::from(u32::MAX)) {
            return refuse(format!("\"retries\" exceeds {}", u32::MAX));
        }
        let source_schema = instance.schema_name();
        let hub_schema = FederationHub::schema_for(instance.name());
        for (field, declared, runs) in [
            ("name", &model.name, instance.name()),
            ("link_id", &model.link.id, instance.name()),
            ("source_schema", &model.link.source_schema, &source_schema),
            ("hub_schema", &model.link.hub_schema, &hub_schema),
        ] {
            if declared != runs {
                return refuse(format!(
                    "\"{field}\" is {declared:?}, but build runs {runs:?}"
                ));
            }
        }
        if let Some(declared) = &model.replicated_tables {
            let runs = realm_selection(&model.realms, model.supremm_summaries);
            let same = |r: &Vec<Cow<str>>| {
                declared.iter().all(|t| r.contains(t)) && r.iter().all(|t| declared.contains(t))
            };
            if !runs.as_ref().is_some_and(same) {
                let runs = runs.map_or_else(|| "every table".to_owned(), |t| t.join(", "));
                return refuse(format!(
                    "\"replicated_tables\" is {declared:?}, but build replicates {runs} \
                     (the tables its realms and supremm_summaries select)"
                ));
            }
        }
        Ok(LinkConfig::renaming(&source_schema, &hub_schema).with_filter(filter(model)))
    }

    /// One tick at `now`: step each live link that is due, unless paused
    /// (then only its lag is sampled) or quarantined, and set when it is
    /// due next ([`Replicator::step`]'s `retry_at`, or an interval on).
    /// The driver thread ticks at the wall clock, and while it runs no
    /// other pass steps a live link. Returns the events applied, or the
    /// first error once every due link has been stepped.
    pub fn tick(&mut self, now: Instant) -> Result<usize, FederationError> {
        self.pass(now, Pass::Tick)
    }

    /// A [`Federation::tick`] at the wall clock in which every polled,
    /// unquarantined link is due as well, whatever its backoff: each
    /// loose member's, and each tight member's that is not live. A
    /// member whose step succeeds is current again ([`DrainNotice`]).
    pub fn sync(&mut self) -> Result<usize, FederationError> {
        self.pass(Instant::now(), Pass::Sync)
    }

    /// Run `pass` at `now`, marking each member it stepped successfully
    /// current again; the applied total, or the first error.
    fn pass(&mut self, now: Instant, pass: Pass) -> Result<usize, FederationError> {
        let steps = self.roster.pass(now, pass, self.driver.is_none());
        let mut applied = 0;
        let mut first_err = None;
        for (member, step) in self.members.iter().zip(steps) {
            match step.map(|step| step.outcome) {
                Some(Ok(n)) => {
                    applied += n;
                    self.drain.stale.lock().remove(member.name());
                }
                Some(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                None => {}
            }
        }
        first_err.map_or(Ok(applied), |e| Err(e.into()))
    }

    /// Unpark the driver, if one runs, to recompute when it is next due.
    fn wake(&self) {
        if let Some(driver) = &self.driver {
            driver.thread.thread().unpark();
        }
    }

    /// The analyzer's model of this federation: each member's stored
    /// record with its live table catalog ([`Database::describe_schema`])
    /// and job resources overlaid, the storage stanza the hub was built
    /// from, and the hub's registered aggregates, canned-report group-by
    /// surface (`freport`), pool sizing and alert rules. A hub group-by
    /// enters the model only when some member declares its realm — a
    /// jobs-only federation must not fail pre-flight over the storage
    /// report section it will never render.
    ///
    /// [`Database::describe_schema`]: xdmod_warehouse::Database::describe_schema
    pub fn check_model(&self) -> xdmod_check::FederationModel<'static> {
        let mut satellites: Vec<SatelliteModel<'static>> = Vec::with_capacity(self.members.len());
        for member in &self.members {
            let mut sat = member.model.clone();
            let schema = &sat.link.source_schema;
            let db = member.source_db.read();
            // A table equal to one of the previous member's is shared, as
            // a document's are.
            let previous = satellites.last().map_or(&[][..], |s| &s.tables);
            sat.tables = db
                .describe_schema(schema)
                .unwrap_or_default()
                .into_iter()
                .map(|t| {
                    xdmod_check::TableModel {
                        name: t.name.into(),
                        columns: t
                            .columns
                            .into_iter()
                            .map(|c| xdmod_check::ColumnModel {
                                name: c.name.into(),
                                ty: c.ty.to_string().into(),
                                nullable: c.nullable,
                            })
                            .collect(),
                    }
                    .share(previous)
                })
                .collect();
            let resources: BTreeSet<String> = db
                .table(schema, jobs::FACT_TABLE)
                .and_then(|t| t.column_values("resource"))
                .into_iter()
                .flatten()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s),
                    _ => None,
                })
                .collect();
            sat.job_resources = resources.into_iter().map(Cow::Owned).collect();
            satellites.push(sat);
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
                name: name.into(),
                fact_table: spec.fact_table.clone().into(),
                time_column: spec.time_column.clone().into(),
                dimensions: spec
                    .dims
                    .iter()
                    .map(|d| Cow::Owned(d.column().to_owned()))
                    .collect(),
                measures: spec
                    .measures
                    .iter()
                    .filter_map(|m| m.column.clone().map(Cow::Owned))
                    .collect(),
            })
            .collect();

        let declares = |realm: RealmKind| {
            self.members
                .iter()
                .any(|m| m.model.realms.contains(&realm.ident()))
        };
        let mut group_bys = Vec::new();
        if declares(RealmKind::Jobs) {
            group_bys.push(xdmod_check::GroupByModel {
                name: "hpc usage by resource".into(),
                fact_table: jobs::FACT_TABLE.into(),
                columns: vec!["resource".into()],
            });
        }
        if declares(RealmKind::Storage) {
            group_bys.push(xdmod_check::GroupByModel {
                name: "storage usage".into(),
                fact_table: storage::FACT_TABLE.into(),
                columns: Vec::new(),
            });
        }
        if declares(RealmKind::Cloud) {
            group_bys.push(xdmod_check::GroupByModel {
                name: "cloud core hours by project".into(),
                fact_table: cloud_realm::FACT_TABLE.into(),
                columns: vec!["project".into()],
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
                    family: family.to_owned().into(),
                    severity: Some(rule.severity.as_str().to_owned().into()),
                    debounce_ms: Some(rule.debounce_ms),
                    resolve_timeout_ms: Some(rule.resolve_timeout_ms),
                    stale_ms: Some(rule.stale_ms),
                })
                .collect(),
        });

        xdmod_check::FederationModel {
            hub: self.hub.name().to_owned().into(),
            satellites,
            aggregates,
            group_bys,
            aggregation,
            // The serving tier, when present, injects its own pool sizing
            // (see `xdmod_gateway::preflight`); the federation itself has
            // no gateway to describe.
            gateway: None,
            alerts,
            storage: self.storage.clone(),
            // The registry does not report its ring size; nothing reads it.
            event_capacity: None,
        }
    }

    /// Run the static pre-flight analyzer over the current topology —
    /// every `xdmod-check` pass, no data movement. [`Federation::go_live`]
    /// calls this and refuses on Error-severity diagnostics; callers can
    /// also run it directly (e.g. from an admin endpoint) for a report.
    pub fn preflight(&self) -> xdmod_check::Diagnostics {
        xdmod_check::analyze(&self.check_model())
    }

    /// Switch every polled tight link to **live** replication: each is
    /// stepped at `interval` by the federation's one driver thread,
    /// started here if none runs — the paper's "live replication to the
    /// central federation hub database". Returns how many links switched.
    /// Already-live links are untouched, and so are loose members: their
    /// links stay polled, a batch per [`Federation::sync`] or
    /// [`Federation::supervise`].
    ///
    /// Runs [`Federation::preflight`] first and refuses with
    /// [`FederationError::Preflight`] when it reports any Error-severity
    /// diagnostic — live replication must not start over a topology known
    /// to corrupt data or produce silently-empty reports.
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
        let switched = self.schedule_live(interval, Instant::now());
        if self.driver.is_none() {
            let roster = Arc::clone(&self.roster);
            let thread = thread::spawn(move || roster.drive());
            self.driver = Some(Driver { thread, interval });
        }
        self.wake();
        switched
    }

    /// Put every polled, unquarantined tight link on the live `interval`,
    /// unpaused, current and due at `now`; how many switched.
    pub(crate) fn schedule_live(&mut self, interval: Duration, now: Instant) -> usize {
        let mut switched = 0;
        for member in &self.members {
            let mut s = member.slot.schedule.lock();
            if member.mode() == FederationMode::Loose || s.quarantined || s.interval.is_some() {
                continue;
            }
            s.due = now;
            s.interval = Some(interval);
            s.paused = false;
            switched += 1;
            self.drain.stale.lock().remove(member.name());
        }
        switched
    }

    /// Take every live link off the live interval: stop and join the
    /// driver, then drain each with one final step (paused ones too, so
    /// the lag gauges settle to 0). Each then reads stale
    /// ([`DrainNotice`]) until `sync` steps it. Returns how many were live.
    pub fn quiesce(&mut self) -> usize {
        if let Some(driver) = self.driver.take() {
            self.roster.stop.store(true, Ordering::Release);
            driver.thread.thread().unpark();
            // The loop catches every step's panic, so it ends by the flag.
            let _ = driver.thread.join();
            self.roster.stop.store(false, Ordering::Release);
        }
        let now = Instant::now();
        let mut stopped = 0;
        for member in &self.members {
            let (live, quarantined) = {
                let mut s = member.slot.schedule.lock();
                s.paused = false;
                (s.interval.take().is_some(), s.quarantined)
            };
            if live && !quarantined {
                member.slot.run(now, Pass::Sync, false);
                self.drain.stale.lock().insert(member.name().to_owned());
                stopped += 1;
            }
        }
        stopped
    }

    /// The slot of `name`, when its link is live.
    fn live_slot(&self, name: &str) -> Result<&Slot, FederationError> {
        let member = self
            .members
            .iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| FederationError::UnknownMember(name.to_owned()))?;
        if member.slot.schedule.lock().interval.is_none() {
            return Err(FederationError::LinkNotLive(name.to_owned()));
        }
        Ok(&member.slot)
    }

    /// Pause a live member's replication (maintenance window). Its link
    /// keeps being sampled at the live interval, so the hub's
    /// `replication_lag_events{link=..}` gauge shows the backlog growing.
    pub fn pause_member(&self, name: &str) -> Result<(), FederationError> {
        self.live_slot(name)?.schedule.lock().paused = true;
        self.drain.stale.lock().insert(name.to_owned());
        Ok(())
    }

    /// Resume a paused live member; its link is due at once.
    pub fn resume_member(&self, name: &str) -> Result<(), FederationError> {
        {
            let mut s = self.live_slot(name)?.schedule.lock();
            s.paused = false;
            s.due = Instant::now();
        }
        self.drain.stale.lock().remove(name);
        self.wake();
        Ok(())
    }

    /// The error of a live member's latest step, if it failed — live
    /// links keep running through errors and surface them here and in the
    /// hub's `replication_apply_errors_total{link=..}` counter.
    pub fn member_last_error(&self, name: &str) -> Result<Option<WarehouseError>, FederationError> {
        self.live_slot(name).map(|slot| slot.link.last_error())
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
            .find(|m| m.name() == instance.name())
            .ok_or_else(|| FederationError::UnknownMember(instance.name().to_owned()))?;
        if !member.model.excluded_resources.is_empty() {
            // Row-level exclusions make checksums legitimately differ;
            // verification is only meaningful for full replication.
            return Ok(true);
        }
        let filter = filter(&member.model);
        let sat_db = instance.database();
        let hub_db = self.hub.database();
        let sat = sat_db.read();
        let hub = hub_db.read();
        let sat_schema = instance.schema_name();
        let hub_schema = FederationHub::schema_for(instance.name());
        for check in xdmod_replication::verify_schemas(&sat, &sat_schema, &hub, &hub_schema)? {
            // Excluded realms, and the satellite's own aggregate tables
            // outside the selection, are expected absent.
            if !filter.table_passes(&check.table) {
                continue;
            }
            if !check.matches {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Regenerate a member instance's database from the hub (backup use
    /// case, §II-E4) — a resync in reverse. It refuses, touching nothing,
    /// when the hub holds no copy of the member. Otherwise, holding the
    /// member's link so that no step interleaves (it could replay the
    /// restored history into the hub), it empties the satellite (its
    /// binlog epoch rotates), rebuilds the instance schema from the
    /// member's hub schema through a link running the other way
    /// ([`Replicator::resync_target`]), recreates the realm tables the
    /// federation never replicated, and re-seeds the member's link at the
    /// satellite's new head so restored data is not replicated again.
    pub fn restore_member(&mut self, instance: &mut XdmodInstance) -> Result<(), FederationError> {
        let member = self
            .members
            .iter()
            .find(|m| m.name() == instance.name())
            .ok_or_else(|| FederationError::UnknownMember(instance.name().to_owned()))?;
        let hub_db = self.hub.database();
        let hub_schema = FederationHub::schema_for(instance.name());
        hub_db.read().table_names(&hub_schema)?;
        member.slot.link.hold(|link| {
            let sat_db = instance.database();
            sat_db.write().reset_for_restore()?;
            let back = LinkConfig::renaming(&hub_schema, &instance.schema_name());
            Replicator::new(hub_db, Arc::clone(&sat_db), back).resync_target()?;
            instance.ensure_realm_tables()?;
            let position = sat_db.read().binlog_position();
            link.seek(position)?;
            Ok(())
        })
    }

    // ----- supervision: step, strike, quarantine ------------------------

    /// One supervision pass at the wall clock; see
    /// [`Federation::supervise_at`].
    pub fn supervise(&mut self, policy: &SupervisorPolicy) -> SupervisionReport {
        self.supervise_at(policy, Instant::now())
    }

    /// One supervision pass at `now`: a [`Federation::tick`] in which the
    /// polled links are due too once their backoff has passed (a step
    /// resyncs a link that polling cannot bring level with its source;
    /// see [`Replicator::needs_resync`]), then, per member in join order:
    ///
    /// 1. a member stepped since the previous pass, by the driver or by
    ///    this one, gets a **strike** when its latest step failed with its
    ///    retry burst spent, and its strikes reset when that step
    ///    succeeded. One not stepped since, or still retrying, keeps its
    ///    count: it reads stale but raises no alert, so a transient the
    ///    burst absorbs neither strikes nor pages;
    /// 2. `policy.max_failures` strikes in a row **quarantine** the
    ///    member: nothing steps its link, `go_live*` skips it, and
    ///    `federation_quarantines_total{link=..}` plus a
    ///    `federation.quarantine` event record the decision. Recovery is
    ///    explicit, via [`Federation::reinstate_member`].
    ///
    /// Without a driver, passes at given instants meet a deterministic
    /// operation sequence, so a seeded fault-injection run
    /// ([`Federation::inject_chaos`]) is reproducible.
    pub fn supervise_at(&mut self, policy: &SupervisorPolicy, now: Instant) -> SupervisionReport {
        let steps = self
            .roster
            .pass(now, Pass::Supervise, self.driver.is_none());
        // Every pass also feeds the alert engine: per-member health
        // becomes fault/all-clear observations (quarantine is re-observed
        // each pass so its alert cannot quietly timeout-resolve while the
        // member is still parked), and freshly mined telemetry events are
        // folded in. A member whose burst is still retrying has no verdict
        // to observe yet.
        let now_ms = self.hub.telemetry().elapsed_ms();
        let mut out = SupervisionReport::default();
        for (member, step) in self.members.iter_mut().zip(steps) {
            let report = Self::supervise_member(&self.hub, member, step, policy);
            if !member.slot.schedule.lock().retrying {
                Self::feed_member_alerts(&mut self.alerts, &report, now_ms);
            }
            out.members.push(report);
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
        step: Option<Step>,
        policy: &SupervisorPolicy,
    ) -> MemberReport {
        let mut report = MemberReport {
            name: member.name().to_owned(),
            health: MemberHealth::Quarantined,
            resynced: step.is_some_and(|step| step.resynced),
            quarantined_now: false,
            error: member.slot.link.last_error().map(|e| e.to_string()),
        };
        let (stepped, failed, retrying) = {
            let mut s = member.slot.schedule.lock();
            if s.quarantined {
                return report;
            }
            (std::mem::take(&mut s.stepped), s.failed, s.retrying)
        };
        if stepped && !failed {
            member.strikes = 0;
        } else if stepped && !retrying {
            member.strikes += 1;
            if member.strikes >= policy.max_failures {
                Self::quarantine(hub, member);
                report.quarantined_now = true;
                return report;
            }
        }
        report.health = Self::observed_health(member, policy);
        report
    }

    /// Park a member: flag it quarantined, so nothing steps its link, and
    /// record the decision in the hub's telemetry.
    fn quarantine(hub: &FederationHub, member: &Member) {
        member.slot.schedule.lock().quarantined = true;
        hub.telemetry()
            .counter("federation_quarantines_total", &[("link", member.name())])
            .inc();
        hub.telemetry().event(
            "federation.quarantine",
            &format!(
                "{}: quarantined after repeated link failures; sync/supervise skip it \
                 until reinstate_member",
                member.name()
            ),
        );
    }

    /// Health of one member as observable *right now*, without driving
    /// anything.
    fn observed_health(member: &Member, policy: &SupervisorPolicy) -> MemberHealth {
        let (quarantined, last_ok) = {
            let s = member.slot.schedule.lock();
            (s.quarantined, s.last_ok)
        };
        if quarantined {
            return MemberHealth::Quarantined;
        }
        let link = &member.slot.link;
        if member.strikes > 0
            || link.last_error().is_some()
            || last_ok.is_some_and(|last| last.elapsed() > policy.stale_after)
        {
            return MemberHealth::Stale {
                age_secs: last_ok.map_or(0, |last| last.elapsed().as_secs()),
            };
        }
        let behind = link.lag_events();
        if behind > policy.lag_threshold {
            MemberHealth::Lagging { behind }
        } else {
            MemberHealth::Live
        }
    }

    /// Current health of every member (default thresholds), without
    /// driving any link — the degraded-mode view the ops report embeds.
    pub fn health(&self) -> Vec<(String, MemberHealth)> {
        let policy = SupervisorPolicy::default();
        self.members
            .iter()
            .map(|m| (m.name().to_owned(), Self::observed_health(m, &policy)))
            .collect()
    }

    /// Names of currently quarantined members.
    pub fn quarantined_members(&self) -> Vec<&str> {
        self.members
            .iter()
            .filter(|m| m.slot.schedule.lock().quarantined)
            .map(Member::name)
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

    /// Replace the alert rule table. The table flows into
    /// [`Federation::check_model`], so [`Federation::go_live`] refuses a
    /// rule for an unknown family, a resolve timeout within its debounce
    /// window, or a zero-capacity notification bucket (`xdmod-check`'s
    /// XC0013).
    pub fn set_alert_rules(&mut self, rules: AlertRules) {
        self.alerts.set_rules(rules);
    }

    /// The hub's self-monitoring ops report, extended with a per-member
    /// "Satellite health" section — the degraded-mode view: each member
    /// annotated `live | lagging(..) | stale(..) | quarantined`.
    pub fn ops_report(&self) -> xdmod_chart::Report {
        let mut report = self.hub.ops_report();
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
        report
    }

    /// Lift a quarantined member back into the federation. The member
    /// may have drifted arbitrarily while parked, so its hub schema is
    /// resynced from the source tables; its link is due at once.
    pub fn reinstate_member(&mut self, name: &str) -> Result<(), FederationError> {
        let member = self
            .members
            .iter_mut()
            .find(|m| m.name() == name)
            .ok_or_else(|| FederationError::UnknownMember(name.to_owned()))?;
        member.strikes = 0;
        {
            let mut s = member.slot.schedule.lock();
            s.quarantined = false;
            s.due = Instant::now();
        }
        member.slot.link.hold(Replicator::resync_target)?;
        self.hub.telemetry().event(
            "federation.reinstated",
            &format!("{name}: reinstated into the federation"),
        );
        self.wake();
        Ok(())
    }

    /// Thread a seeded fault injector through the federation: every
    /// member's satellite database (binlog-read and apply points) and
    /// every link's transport, live or polled, loose members' included.
    pub fn inject_chaos(&mut self, injector: &FaultInjector) {
        for member in &mut self.members {
            member
                .source_db
                .write()
                .set_fault_injector(injector.clone(), member.name());
            member
                .slot
                .link
                .hold(|link| link.set_chaos(injector.clone()));
        }
    }
}

impl Drop for Federation {
    /// Quiesce: the driver stops, and each live link drains once.
    fn drop(&mut self) {
        self.quiesce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::XdmodVersion;
    use xdmod_warehouse::{Aggregate, Period, Query};

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
        // Only the tight member goes live; the loose one stays polled.
        assert_eq!(fed.go_live_forced(Duration::from_millis(1)), 1);
        assert!(matches!(
            fed.pause_member("y"),
            Err(FederationError::LinkNotLive(_))
        ));
        fed.quiesce();
    }

    /// Arm `spec` on the hub database's fault points, as target `hub`.
    fn fail_hub_applies(fed: &Federation, spec: xdmod_chaos::FaultSpec) {
        let injector = xdmod_chaos::FaultPlan::new()
            .with(spec.for_target("hub"))
            .injector(1);
        fed.hub()
            .database()
            .write()
            .set_fault_injector(injector, "hub");
    }

    #[test]
    fn sync_polls_every_member_past_a_failing_one() {
        use xdmod_chaos::{FaultKind, FaultPoint, FaultSpec};
        let x = instance("x", SACCT_X, "r-x");
        let y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.join_tight(&y, FederationConfig::default()).unwrap();
        // The hub's first apply is x's first event.
        fail_hub_applies(
            &fed,
            FaultSpec::at_ops(FaultPoint::Apply, FaultKind::Transient, &[1]),
        );
        let err = fed.sync().unwrap_err();
        assert!(
            matches!(err, FederationError::Warehouse(WarehouseError::Io(_))),
            "{err:?}"
        );
        // y's two jobs landed in the same call; x's one follows next call.
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 2);
        assert!(fed.sync().unwrap() > 0);
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
        assert!(fed.verify_member(&x).unwrap());
        assert!(fed.verify_member(&y).unwrap());
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
    fn verify_member_checks_the_replicated_supremm_summary() {
        let mut x = instance("x", SACCT_X, "r");
        x.ingest_pcp("job 1 r alice 1483700000\nts 1483690000 cpu_user 0.9\nend\n")
            .unwrap();
        x.aggregate().unwrap();
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default().with_supremm_summaries())
            .unwrap();
        fed.sync_and_aggregate().unwrap();
        assert!(fed.verify_member(&x).unwrap());

        // The hub's copy of the summary drifts from the satellite's.
        let hub_db = fed.hub().database();
        let mut hub = hub_db.write();
        let schema = FederationHub::schema_for("x");
        let summary = hub.table(&schema, "supremm_summary_by_month").unwrap();
        let row = summary.rows().unwrap()[0].clone();
        hub.insert(&schema, "supremm_summary_by_month", vec![row])
            .unwrap();
        drop(hub);
        assert!(!fed.verify_member(&x).unwrap());
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
        let month = fed.hub().aggregate(RealmKind::Jobs, Period::Month).unwrap();
        assert_eq!(month.len(), 1);
        // The aggregates are answers: no period table on the hub.
        let hub_db = fed.hub().database();
        let hub = hub_db.read();
        let tables = hub.table_names(&FederationHub::schema_for("x")).unwrap();
        assert!(!tables.contains(&"jobfact_by_month"), "{tables:?}");
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

    #[test]
    fn live_links_replicate_without_sync() {
        let mut x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let t0 = Instant::now();
        let hour = Duration::from_secs(3600);
        assert_eq!(fed.schedule_live(hour, t0), 1);
        assert_eq!(fed.schedule_live(hour, t0), 0); // idempotent

        // New ingest flows to the hub on the next tick, with nobody
        // calling sync().
        x.ingest_sacct("r", SACCT_Y).unwrap();
        assert!(fed.tick(t0).unwrap() > 0);
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
        // sync() leaves a live link to its interval.
        x.ingest_sacct("r", SACCT_X).unwrap();
        assert_eq!(fed.sync().unwrap(), 0);
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);

        assert_eq!(fed.quiesce(), 1);
        // Quiescing drained the link and settled the lag gauges to zero.
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 4);
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
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 5);
    }

    #[test]
    fn live_and_loose_members_share_one_schedule() {
        let mut x = instance("x", SACCT_X, "r-x");
        let mut y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.join_loose(&y, FederationConfig::default()).unwrap();
        let rows = |fed: &Federation, name: &str| {
            let hub = fed.hub().database();
            let hub = hub.read();
            hub.table(&FederationHub::schema_for(name), "jobfact")
                .map_or(0, |t| t.len())
        };
        let t0 = Instant::now();
        let hour = Duration::from_secs(3600);
        assert_eq!(fed.schedule_live(hour, t0), 1);

        // The tight member is stepped once per interval; ticks never step
        // the loose one.
        fed.tick(t0).unwrap();
        assert_eq!((rows(&fed, "x"), rows(&fed, "y")), (1, 0));
        x.ingest_sacct("r-x", SACCT_Y).unwrap();
        fed.tick(t0 + hour / 2).unwrap();
        assert_eq!((rows(&fed, "x"), rows(&fed, "y")), (1, 0));
        fed.tick(t0 + hour).unwrap();
        assert_eq!((rows(&fed, "x"), rows(&fed, "y")), (3, 0));

        // Only sync steps the loose member, and it leaves the tight one to
        // its interval.
        x.ingest_sacct("r-x", SACCT_X).unwrap();
        y.ingest_sacct("r-y", SACCT_X).unwrap();
        fed.sync().unwrap();
        assert_eq!((rows(&fed, "x"), rows(&fed, "y")), (3, 3));
        fed.tick(t0 + hour * 2).unwrap();
        assert_eq!((rows(&fed, "x"), rows(&fed, "y")), (4, 3));
        assert_eq!(fed.quiesce(), 1);
    }

    #[test]
    fn live_driver_restarts_resume_from_each_links_watermark() {
        // The real driver thread: started by go_live, stopped and joined
        // by quiesce, three times over.
        let mut x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        for round in 0..3 {
            assert_eq!(fed.go_live(Duration::from_millis(1)).unwrap(), 1);
            // A second go_live while the driver runs switches nothing.
            assert_eq!(fed.go_live(Duration::from_millis(1)).unwrap(), 0);
            x.ingest_sacct("r-x", SACCT_X).unwrap();
            // The final drain delivers whatever the driver had not.
            assert_eq!(fed.quiesce(), 1);
            assert_eq!(
                fed.hub().federated_fact_rows(RealmKind::Jobs),
                2 + round * 2
            );
            // Between drivers the link is still there to sync by hand.
            x.ingest_sacct("r-x", SACCT_X).unwrap();
            assert_eq!(fed.sync().unwrap(), 1);
        }
        // Each restart resumed from the watermark: no row replayed twice.
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 7);
        assert!(fed.verify_member(&x).unwrap());
    }

    #[test]
    fn live_driver_drains_and_stops_when_the_federation_drops() {
        let mut x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let hub = fed.hub().database();
        fed.go_live(Duration::from_secs(3600)).unwrap();
        x.ingest_sacct("r-x", SACCT_Y).unwrap();
        // Dropping joins the driver after one final drain.
        drop(fed);
        let schema = FederationHub::schema_for("x");
        assert_eq!(hub.read().table(&schema, "jobfact").unwrap().len(), 3);
    }

    #[test]
    fn paused_live_member_shows_lag_on_the_hub_gauges() {
        let mut x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let t0 = Instant::now();
        let secs = Duration::from_secs;
        fed.schedule_live(secs(1), t0);
        fed.tick(t0).unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 1);

        // A paused link's due ticks only sample its lag.
        fed.pause_member("x").unwrap();
        x.ingest_sacct("r", SACCT_Y).unwrap();
        fed.tick(t0 + secs(1)).unwrap();
        fed.tick(t0 + secs(2)).unwrap();
        let snap = fed.hub().telemetry().snapshot();
        assert!(snap
            .gauge("replication_lag_events", &[("link", "x")])
            .is_some_and(|lag| lag > 0.0));
        assert_eq!(
            snap.gauge("replication_lag_seconds", &[("link", "x")]),
            Some(1.0)
        );
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 1);

        // Resumed, the link is due at once.
        fed.resume_member("x").unwrap();
        fed.tick(t0 + secs(3)).unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
        assert_eq!(fed.member_last_error("x").unwrap(), None);
        fed.quiesce();
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
        fed.quiesce();
        assert_eq!(notice.stale_members(), vec!["x".to_owned(), "y".to_owned()]);
        // ...until a polled sync drains the backlog...
        fed.sync().unwrap();
        assert!(!notice.is_draining());

        // ...or going live again hands the backlog to the driver.
        fed.quiesce();
        fed.go_live(Duration::from_millis(1)).unwrap();
        assert!(!notice.is_draining());
        fed.quiesce();
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
    fn restore_refuses_a_member_the_hub_holds_no_copy_of() {
        // Joined, never synced: the hub has no schema to restore from.
        let mut x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let state = |x: &XdmodInstance| {
            (
                x.fact_rows(RealmKind::Jobs).unwrap(),
                x.database().read().binlog_position(),
            )
        };
        let before = state(&x);
        assert!(matches!(
            fed.restore_member(&mut x),
            Err(FederationError::Warehouse(WarehouseError::UnknownSchema(_)))
        ));
        // Refused before anything was reset: no rows lost, no epoch rotated.
        assert_eq!(state(&x), before);
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
        let Some(jobfact) = s.table("jobfact") else {
            panic!("jobfact missing from the catalog");
        };
        assert!(jobfact.column("resource").is_some());
        // Aggregates cover all realms; group-bys only declared ones.
        assert_eq!(m.aggregates.len(), 4);
        assert_eq!(m.group_bys.len(), 1);
        assert_eq!(m.group_bys[0].fact_table, "jobfact");
    }

    #[test]
    fn check_model_shares_equal_live_tables_with_the_previous_member() {
        let mut fed = Federation::new(FederationHub::new("hub"));
        for (name, sacct) in [("x", SACCT_X), ("y", SACCT_Y), ("z", SACCT_X)] {
            fed.join_tight(&instance(name, sacct, "r"), FederationConfig::default())
                .unwrap();
        }
        let m = fed.check_model();
        let jobfact = |i: usize| {
            let sat = &m.satellites[i];
            let found = sat.tables.iter().find(|t| t.name == "jobfact");
            let Some(table) = found else {
                panic!("jobfact missing from {}'s catalog", sat.name);
            };
            std::sync::Arc::clone(table)
        };
        // One jobs schema, so one table, held by every member.
        assert!(std::sync::Arc::ptr_eq(&jobfact(0), &jobfact(1)));
        assert!(std::sync::Arc::ptr_eq(&jobfact(0), &jobfact(2)));
        let diags = fed.preflight();
        assert!(diags.with_code(xdmod_check::Code::SchemaDrift).is_empty());
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
        fed.quiesce();
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
        fed.quiesce();
    }

    /// Join `instance` in `mode` ("tight" or "loose") with no retries on
    /// its link: every failed step waits out the interval.
    fn join_without_retries(fed: &mut Federation, instance: &XdmodInstance, mode: &str) {
        let mut model = FederationConfig::default().into_model(instance, mode);
        model.link.retries = Some(0);
        fed.join(instance, model).unwrap();
    }

    #[test]
    fn supervise_quarantines_after_repeated_failures_and_reinstates() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};

        let x = instance("x", SACCT_X, "r-x");
        let y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        join_without_retries(&mut fed, &x, "tight");
        join_without_retries(&mut fed, &y, "tight");

        // x's transport dies permanently; y is untouched.
        let plan = FaultPlan::new().with(
            FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[1]).for_target("x"),
        );
        let injector = plan.injector(42);
        fed.inject_chaos(&injector);

        let policy = SupervisorPolicy::default().with_max_failures(2);
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
        assert!(fed.verify_member(&x).unwrap());

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
        assert!(!fed.verify_member(&x).unwrap());
        // Tick 2: the supervisor notices the repair (lost records) and
        // resyncs the hub schema from the source tables.
        let t2 = fed.supervise(&policy);
        assert!(t2.members[0].resynced);
        assert!(t2.all_healthy());
        assert!(fed.verify_member(&x).unwrap());
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
    fn supervise_resyncs_a_live_link_past_crash_damaged_source_binlog() {
        let x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        fed.sync().unwrap();
        let t0 = Instant::now();
        let secs = Duration::from_secs;
        fed.schedule_live(secs(1), t0);

        // The same crash as above, on a live link: the record lands in
        // x's table, its binlog event does not survive.
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
        // The next tick's step repairs the source tail and leaves the link
        // one row behind; the tick after resyncs it. No supervision runs.
        fed.tick(t0).unwrap();
        assert_eq!(resyncs_of(&fed, "x"), None);
        fed.tick(t0 + secs(1)).unwrap();
        assert_eq!(resyncs_of(&fed, "x"), Some(1));
        assert!(!fed
            .hub()
            .telemetry()
            .events_of_kind("replication.source_repaired")
            .is_empty());
        assert!(fed.verify_member(&x).unwrap());
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 2);
        let pass = fed.supervise_at(&SupervisorPolicy::default(), t0 + secs(2));
        assert!(!pass.members[0].resynced, "{pass}");
        assert_eq!(pass.health_of("x"), Some(MemberHealth::Live));
        assert_eq!(fed.quiesce(), 1);
        assert!(fed.verify_member(&x).unwrap());
        assert_eq!(resyncs_of(&fed, "x"), Some(1));
    }

    /// `replication_resyncs_total{link=..}` on the hub.
    fn resyncs_of(fed: &Federation, link: &str) -> Option<u64> {
        fed.hub()
            .telemetry()
            .snapshot()
            .counter("replication_resyncs_total", &[("link", link)])
    }

    /// A satellite with history that snapshotted twice before joining: the
    /// trailing compaction horizon (0:9, its first snapshot) lies past a
    /// fresh link's watermark, so no poll can read what the hub needs.
    fn compacted_instance() -> XdmodInstance {
        let mut x = instance("x", SACCT_X, "r-x");
        x.database().write().snapshot_now().unwrap();
        x.ingest_sacct("r-x", SACCT_X).unwrap();
        x.database().write().snapshot_now().unwrap();
        assert_eq!(x.database().read().compaction_horizon(), 9);
        x
    }

    #[test]
    fn supervise_resyncs_a_link_whose_source_compacted_past_it() {
        let x = compacted_instance();
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let tick = fed.supervise(&SupervisorPolicy::default());
        assert!(tick.members[0].resynced, "{tick}");
        assert_eq!(tick.health_of("x"), Some(MemberHealth::Live));
        assert!(fed.verify_member(&x).unwrap());
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 2);
        assert_eq!(resyncs_of(&fed, "x"), Some(1));
    }

    #[test]
    fn sync_resyncs_a_member_whose_source_compacted_past_it() {
        let x = compacted_instance();
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        assert_eq!(fed.sync(), Ok(0));
        assert!(fed.sync_and_aggregate().is_ok());
        assert!(fed.verify_member(&x).unwrap());
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 2);
        assert_eq!(resyncs_of(&fed, "x"), Some(1));
    }

    #[test]
    fn supervise_resyncs_a_live_link_whose_source_compacted_past_it() {
        let x = compacted_instance();
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let t0 = Instant::now();
        let secs = Duration::from_secs;
        fed.schedule_live(secs(1), t0);
        // The first tick meets a watermark below the source's horizon and
        // resyncs the link. No supervision runs.
        fed.tick(t0).unwrap();
        assert_eq!(resyncs_of(&fed, "x"), Some(1));
        assert!(fed.verify_member(&x).unwrap());
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 2);
        let pass = fed.supervise_at(&SupervisorPolicy::default(), t0 + secs(1));
        assert!(!pass.members[0].resynced, "{pass}");
        assert_eq!(pass.health_of("x"), Some(MemberHealth::Live));
        assert_eq!(fed.member_last_error("x").unwrap(), None);
        assert_eq!(fed.quiesce(), 1);
        assert!(fed.verify_member(&x).unwrap());
        assert_eq!(resyncs_of(&fed, "x"), Some(1));
    }

    #[test]
    fn inject_chaos_reaches_a_live_link() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let t0 = Instant::now();
        fed.schedule_live(Duration::from_secs(1), t0);
        fed.tick(t0).unwrap();
        assert_eq!(fed.member_last_error("x").unwrap(), None);
        let plan = FaultPlan::new().with(
            FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[1]).for_target("x"),
        );
        fed.inject_chaos(&plan.injector(42));
        assert!(fed.tick(t0 + Duration::from_secs(1)).is_err());
        assert!(fed.member_last_error("x").unwrap().is_some());
        fed.quiesce();
    }

    #[test]
    fn health_reads_a_live_links_own_lag_with_telemetry_off() {
        let mut x = instance("x", SACCT_X, "r");
        let mut hub = FederationHub::new("hub");
        hub.set_telemetry(xdmod_telemetry::MetricsRegistry::disabled());
        let mut fed = Federation::new(hub);
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let t0 = Instant::now();
        let secs = Duration::from_secs;
        fed.schedule_live(secs(600), t0);
        fed.tick(t0).unwrap();
        fed.pause_member("x").unwrap();
        x.ingest_sacct("r", SACCT_Y).unwrap();
        // No gauge is sampled anywhere, yet the backlog is visible.
        assert!(
            matches!(fed.health()[0].1, MemberHealth::Lagging { behind } if behind > 0),
            "{:?}",
            fed.health()
        );
        fed.resume_member("x").unwrap();
        fed.tick(t0 + secs(1)).unwrap();
        assert_eq!(fed.health()[0].1, MemberHealth::Live);
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
        fed.quiesce();
    }

    #[test]
    fn health_does_not_wait_for_a_live_poll_stalled_in_transport() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let mut x = instance("x", SACCT_X, "r");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        fed.schedule_live(Duration::from_secs(600), t0);
        fed.tick(t0).unwrap();
        assert_eq!(fed.health()[0].1, MemberHealth::Live);
        fed.pause_member("x").unwrap();
        x.ingest_sacct("r", SACCT_Y).unwrap();
        let stall = FaultKind::Stall { millis: 300 };
        let plan = FaultPlan::new()
            .with(FaultSpec::at_ops(FaultPoint::Transport, stall, &[1]).for_target("x"));
        let injector = plan.injector(7);
        fed.inject_chaos(&injector);
        fed.resume_member("x").unwrap();
        // The stall defers the resumed link's poll to 300 ms after the
        // tick that met it, instead of holding the link until then.
        let t1 = t0 + Duration::from_secs(1);
        fed.tick(t1).unwrap();
        assert!(!injector.schedule().is_empty());
        let started = Instant::now();
        let health = fed.health();
        let took = started.elapsed();
        assert!(took < ms(100), "health() took {took:?}");
        assert!(
            matches!(health[0].1, MemberHealth::Lagging { behind } if behind > 0),
            "{health:?}"
        );
        fed.tick(t1 + ms(299)).unwrap();
        assert_ne!(fed.health()[0].1, MemberHealth::Live);
        fed.tick(t1 + ms(300)).unwrap();
        assert_eq!(fed.health()[0].1, MemberHealth::Live);
        fed.quiesce();
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

        let text = fed.ops_report().render();
        assert!(text.contains("Satellite health"), "report: {text}");
        assert!(text.contains("x: live"), "report: {text}");
    }

    #[test]
    fn loose_member_retries_a_failed_batch_on_the_next_sync() {
        use xdmod_chaos::{FaultKind, FaultPoint, FaultSpec};
        let y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_loose(&y, FederationConfig::default()).unwrap();
        // The hub's third apply is y's first batch of job rows.
        fail_hub_applies(
            &fed,
            FaultSpec::at_ops(FaultPoint::Apply, FaultKind::Transient, &[3]),
        );
        let retries = |fed: &Federation| {
            let snap = fed.hub().telemetry().snapshot();
            snap.counter("replication_retries_total", &[("link", "y")])
                .unwrap_or(0)
        };
        assert!(fed.sync().is_err());
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 0);
        // The failure scheduled a retry; the next sync runs it.
        assert_eq!(retries(&fed), 0);
        assert!(fed.sync().unwrap() > 0);
        assert_eq!(retries(&fed), 1);
        assert_eq!(
            fed.hub().federated_fact_rows(RealmKind::Jobs),
            y.fact_rows(RealmKind::Jobs).unwrap()
        );
        assert!(fed.verify_member(&y).unwrap());
    }

    #[test]
    fn reinstating_a_quarantined_loose_member_resyncs_it() {
        use xdmod_chaos::{FaultKind, FaultPoint, FaultSpec};
        let mut y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        join_without_retries(&mut fed, &y, "loose");
        fail_hub_applies(
            &fed,
            FaultSpec::every(FaultPoint::Apply, FaultKind::Transient, 1).with_budget(2),
        );
        let policy = SupervisorPolicy::default().with_max_failures(2);
        fed.supervise(&policy);
        let second = fed.supervise(&policy);
        assert_eq!(second.health_of("y"), Some(MemberHealth::Quarantined));
        // Parked: the satellite moves on and sync leaves it alone.
        y.ingest_sacct("r-y", SACCT_X).unwrap();
        fed.sync().unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 0);

        fed.reinstate_member("y").unwrap();
        assert_eq!(fed.hub().federated_fact_rows(RealmKind::Jobs), 3);
        assert!(fed.verify_member(&y).unwrap());
        assert_eq!(fed.health()[0].1, MemberHealth::Live);
        assert_eq!(
            fed.hub()
                .telemetry()
                .snapshot()
                .counter("replication_resyncs_total", &[("link", "y")]),
            Some(1)
        );
    }

    #[test]
    fn loose_member_backlog_is_lag_and_moves_the_link_counters() {
        let y = instance("y", SACCT_Y, "r-y");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_loose(&y, FederationConfig::default()).unwrap();
        assert!(matches!(
            fed.health()[0].1,
            MemberHealth::Lagging { behind } if behind > 0
        ));
        fed.sync().unwrap();
        assert_eq!(fed.health()[0].1, MemberHealth::Live);
        let snap = fed.hub().telemetry().snapshot();
        assert!(snap
            .counter("replication_events_applied_total", &[("link", "y")])
            .is_some_and(|n| n > 0));
        assert_eq!(
            snap.gauge("replication_lag_events", &[("link", "y")]),
            Some(0.0)
        );
    }

    /// Cut `name`'s transport for good.
    fn link_down(fed: &mut Federation, name: &str) {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let plan = FaultPlan::new().with(
            FaultSpec::at_ops(FaultPoint::Transport, FaultKind::LinkDown, &[1]).for_target(name),
        );
        fed.inject_chaos(&plan.injector(42));
    }

    #[test]
    fn supervise_strikes_only_members_stepped_since_the_last_pass() {
        let x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        join_without_retries(&mut fed, &x, "tight");
        link_down(&mut fed, "x");
        let policy = SupervisorPolicy::default().with_max_failures(2);
        let t0 = Instant::now();
        let hour = Duration::from_secs(3600);
        fed.schedule_live(hour, t0);
        // Each failed step of the live link is a strike; a pass before
        // the link is due again steps nothing and strikes nothing.
        for at in [t0, t0 + hour / 2] {
            let pass = fed.supervise_at(&policy, at);
            assert_eq!(
                pass.health_of("x"),
                Some(MemberHealth::Stale { age_secs: 0 })
            );
            assert!(pass.members[0].error.is_some(), "{pass}");
        }
        let due = fed.supervise_at(&policy, t0 + hour);
        assert_eq!(due.health_of("x"), Some(MemberHealth::Quarantined));
        assert!(due.members[0].quarantined_now);
        let errors = fed.hub().telemetry().events_of_kind("replication.error");
        assert_eq!(errors.len(), 2);
        fed.quiesce();
    }

    #[test]
    fn supervise_strikes_a_failure_only_once_its_retries_are_spent() {
        let x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        link_down(&mut fed, "x");
        let policy = SupervisorPolicy::default().with_max_failures(2);
        let t0 = Instant::now();
        let pass = |fed: &mut Federation, n: u32| {
            let at = t0 + Duration::from_secs(2) * n;
            fed.supervise_at(&policy, at).health_of("x")
        };
        // The default burst retries five times, one retry per pass: the
        // link reads stale, but strikes nothing and pages nobody while a
        // retry is planned.
        for n in 0..5 {
            let health = pass(&mut fed, n);
            assert!(
                matches!(health, Some(MemberHealth::Stale { .. })),
                "{health:?}"
            );
            assert!(fed.alerts().is_empty(), "{:?}", fed.alerts());
        }
        // The sixth failure has no retry left: a strike, then another.
        assert!(matches!(
            pass(&mut fed, 5),
            Some(MemberHealth::Stale { .. })
        ));
        assert_eq!(fed.alerts().len(), 1);
        assert_eq!(pass(&mut fed, 6), Some(MemberHealth::Quarantined));
        let snap = fed.hub().telemetry().snapshot();
        assert_eq!(
            snap.counter("replication_retries_total", &[("link", "x")]),
            Some(5)
        );
    }

    #[test]
    fn supervise_retries_no_earlier_than_its_backoff() {
        use xdmod_chaos::{FaultKind, FaultPlan, FaultPoint, FaultSpec};
        let x = instance("x", SACCT_X, "r-x");
        let mut fed = Federation::new(FederationHub::new("hub"));
        fed.join_tight(&x, FederationConfig::default()).unwrap();
        let plan = FaultPlan::new().with(
            FaultSpec::at_ops(FaultPoint::Transport, FaultKind::Transient, &[1, 2]).for_target("x"),
        );
        fed.inject_chaos(&plan.injector(7));
        let telemetry = fed.hub().telemetry().clone();
        let retries = || telemetry.events_of_kind("replication.retry");
        let policy = SupervisorPolicy::default();
        // The first pass polls once: the transient fails it and plans a
        // backoff, and no retry runs in the same pass.
        let first = fed.supervise(&policy);
        let ran: Vec<String> = retries().into_iter().map(|e| e.message.clone()).collect();
        assert!(ran.is_empty(), "retries ran in the failing pass: {ran:?}");
        assert!(first.members[0].error.is_some(), "{first}");
        for attempt in 1..=2 {
            let planned = telemetry
                .snapshot()
                .gauge("replication_backoff_ms", &[("link", "x")])
                .unwrap();
            // Wait the planned backoff out; the next pass runs the retry.
            std::thread::sleep(Duration::from_millis(planned as u64));
            let tick = fed.supervise(&policy);
            let retry = &retries()[attempt - 1];
            let waited = retry.field("waited_ms").unwrap();
            assert!(
                waited >= planned,
                "retry {attempt} waited {waited} ms of {planned}"
            );
            assert_eq!(retries().len(), attempt, "{tick}");
        }
        assert_eq!(fed.health()[0].1, MemberHealth::Live);
        assert!(fed.verify_member(&x).unwrap());
    }
}
