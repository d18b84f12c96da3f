//! Stand-in for `crates/warehouse/src/binlog.rs`, which needs serde. The
//! durability files import only `LogPosition` from it; `bench/build.sh`
//! fails the build unless the fields below match the real declaration.

use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPosition {
    pub epoch: u32,
    pub seqno: u64,
}

impl fmt::Display for LogPosition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.epoch, self.seqno)
    }
}
