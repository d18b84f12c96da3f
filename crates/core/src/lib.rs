//! # xdmod-core
//!
//! The paper's primary contribution: **federated XDMoD**. This crate
//! wires the substrates (warehouse, ingest, realms, replication, auth,
//! chart) into the system of Figs. 2 and 3:
//!
//! - [`instance::XdmodInstance`] — a fully functional satellite XDMoD
//!   installation: realm tables, shredders, aggregation levels, SU
//!   conversion, authentication.
//! - [`hub::FederationHub`] — the central hub: one schema per satellite,
//!   hub-local aggregation levels, federated query over the union of
//!   members, identity mapping, multi-source SSO.
//! - [`federation::Federation`] — the Federation module: tight/loose
//!   links, the version gate, resource routing, consistency checks, and
//!   satellite regeneration from the hub.
//! - [`supervisor`] — pass-driven link supervision: retry, strikes,
//!   resync on divergence, quarantine, degraded-mode health reporting.
//! - [`Federation::from_config`] ([`config`]) — builds the whole wiring
//!   from the federation document `xdmod-check` vets: one parse into the
//!   analyzer's `FederationModel`, so pre-flight checks what runs.
//! - [`version::XdmodVersion`] — the "same version everywhere" rule.
//!
//! The supervisor and the ops event stream also feed the
//! `xdmod-alerts` lifecycle engine ([`Federation::alerts`],
//! [`Federation::ack_alert`]): faults fingerprint into stable alert
//! identities that fire, damp flaps, and auto-resolve as links heal.
//!
//! [`Federation::from_config`]: federation::Federation::from_config
//! [`Federation::alerts`]: federation::Federation::alerts
//! [`Federation::ack_alert`]: federation::Federation::ack_alert

#![warn(missing_docs)]

pub mod config;
pub mod explorer;
pub mod federation;
pub mod freport;
pub mod hub;
pub mod instance;
pub mod supervisor;
pub mod version;
pub mod viewer;

pub use explorer::{ChartRequest, ChartView, CompiledChart, QueryDescriptor};
pub use federation::{DrainNotice, Federation, FederationConfig, FederationError, FederationMode};
pub use freport::federation_report;
pub use hub::FederationHub;
pub use instance::XdmodInstance;
pub use supervisor::{MemberHealth, MemberReport, SupervisionReport, SupervisorPolicy};
pub use version::XdmodVersion;
pub use viewer::{AccessError, JobDetail};
// The alert types appearing in `Federation`'s public signatures, so
// downstream crates need not depend on `xdmod-alerts` directly.
pub use xdmod_alerts::{
    AckError, Alert, AlertEngine, AlertRule, AlertRules, AlertSeverity, AlertState,
};
