//! Typed replication failures.
//!
//! A link's own step failures are [`WarehouseError`]s, kept as the
//! link's latest error; this type carries what a caller of the link's
//! control surface must handle instead, such as a refused seek.

use std::fmt;
use xdmod_warehouse::{LogPosition, WarehouseError};

/// Why a replication link failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// A seek asked for a watermark beyond the source binlog's current
    /// tail, where the link would wait forever for records that will
    /// never exist: the divergence surfaces, so that the link resyncs.
    SeekBeyondTail {
        /// Label of the link whose seek was rejected.
        link: String,
        /// Position the caller asked for.
        requested: LogPosition,
        /// The source binlog's actual tail at the time of the seek.
        tail: LogPosition,
    },
    /// A warehouse operation on the link failed.
    Warehouse(WarehouseError),
}

impl fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicationError::SeekBeyondTail {
                link,
                requested,
                tail,
            } => write!(
                f,
                "replication link {link:?}: seek to {}/{} is beyond the \
                 source binlog tail {}/{}",
                requested.epoch, requested.seqno, tail.epoch, tail.seqno
            ),
            ReplicationError::Warehouse(e) => write!(f, "warehouse error on link: {e}"),
        }
    }
}

impl std::error::Error for ReplicationError {}

impl From<WarehouseError> for ReplicationError {
    fn from(e: WarehouseError) -> Self {
        ReplicationError::Warehouse(e)
    }
}

/// Render a caught panic's payload.
pub(crate) fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_beyond_tail_names_both_positions() {
        let e = ReplicationError::SeekBeyondTail {
            link: "site-x".into(),
            requested: LogPosition { epoch: 0, seqno: 9 },
            tail: LogPosition { epoch: 0, seqno: 4 },
        };
        let s = e.to_string();
        assert!(s.contains("site-x"));
        assert!(s.contains("0/9"));
        assert!(s.contains("0/4"));
    }

    #[test]
    fn warehouse_errors_convert() {
        let w = WarehouseError::UnknownSchema("inst_x".into());
        let e: ReplicationError = w.clone().into();
        assert_eq!(e, ReplicationError::Warehouse(w));
    }

    #[test]
    fn panic_detail_handles_both_string_kinds() {
        let a: Box<dyn std::any::Any + Send> = Box::new("static");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        let c: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_detail(a.as_ref()), "static");
        assert_eq!(panic_detail(b.as_ref()), "owned");
        assert_eq!(panic_detail(c.as_ref()), "non-string panic payload");
    }
}
