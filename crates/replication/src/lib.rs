//! # xdmod-replication
//!
//! The Tungsten-Replicator stand-in that XDMoD federation is built on
//! (§II-C1). Provides the exact feature set the paper relies on:
//!
//! - **binlog tailing** with resumable `(epoch, seqno)` watermarks
//!   ([`replicator::Replicator`]), driven by one step that polls or
//!   resyncs, records the outcome, retries under the link's own policy
//!   and says when to run next, and held for a link's whole life by a
//!   [`replicator::Link`] handle that whoever schedules the link steps —
//!   "tight" federation's live mode is that step at a short interval;
//! - **schema renaming during transfer**, so the hub holds "one schema
//!   per XDMoD instance";
//! - **selective replication** ([`filter::ReplicationFilter`]): realm
//!   /table selection and per-resource routing (§II-C4);
//! - **loose federation** (§II-C2): the same link stepped in batches
//!   instead of at an interval;
//! - **consistency verification** ([`consistency`]): checksum proof that
//!   "no data are lost or changed" in transit.

#![warn(missing_docs)]

pub mod consistency;
pub mod error;
pub mod filter;
pub mod replicator;

pub use consistency::{verify_schemas, TableCheck};
pub use error::ReplicationError;
pub use filter::ReplicationFilter;
pub use replicator::{Link, LinkConfig, LinkStats, Replicator, ResyncReport, RetryPolicy, Step};
