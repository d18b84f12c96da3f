//! # xdmod-replication
//!
//! The Tungsten-Replicator stand-in that XDMoD federation is built on
//! (§II-C1). Provides the exact feature set the paper relies on:
//!
//! - **binlog tailing** with resumable `(epoch, seqno)` watermarks
//!   ([`replicator::Replicator`]), plus a threaded live mode
//!   ([`replicator::LiveReplicator`]) — "tight" federation;
//! - **schema renaming during transfer**, so the hub holds "one schema
//!   per XDMoD instance";
//! - **selective replication** ([`filter::ReplicationFilter`]): realm
//!   /table selection and per-resource routing (§II-C4);
//! - **loose federation** (§II-C2): a batch-polled
//!   [`replicator::Replicator`], or shipped database dumps ([`loose`]);
//! - **consistency verification** ([`consistency`]): checksum proof that
//!   "no data are lost or changed" in transit.

#![warn(missing_docs)]

pub mod consistency;
pub mod error;
pub mod filter;
pub mod loose;
pub mod replicator;

pub use consistency::{schemas_match, verify_schemas, TableCheck};
pub use error::ReplicationError;
pub use filter::ReplicationFilter;
pub use loose::{receive_dump, ship_dump};
pub use replicator::{
    LinkConfig, LinkStats, LiveReplicator, Replicator, ResyncReport, RetryPolicy,
};
