//! Typed cell values stored in warehouse tables.
//!
//! XDMoD's data warehouse holds heterogeneous fact rows (job accounting
//! records, storage samples, VM lifecycle intervals). [`Value`] is the
//! dynamically-typed cell used by every table, binlog record, and query
//! result in this workspace.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The static type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Timestamp as seconds since the Unix epoch (UTC).
    Time,
    /// Boolean flag.
    Bool,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "int",
            ColumnType::Float => "float",
            ColumnType::Str => "str",
            ColumnType::Time => "time",
            ColumnType::Bool => "bool",
        };
        f.write_str(s)
    }
}

/// A dynamically-typed table cell.
///
/// `Null` is permitted in any column; all other variants must match the
/// column's declared [`ColumnType`].
///
/// # Equality and hashing
///
/// `Value` implements `Eq`/`Hash` so it can serve as a group-by key.
/// Floats are compared and hashed **by bit pattern**: `NaN == NaN` holds
/// and `-0.0 != 0.0`. This is the right semantics for grouping (identical
/// cells land in the same bucket) even though it differs from IEEE `==`.
#[derive(Debug, Clone)]
pub enum Value {
    /// Absent / unknown.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Seconds since the Unix epoch (UTC).
    Time(i64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, used by aggregates and binned dimensions.
    ///
    /// `Int`, `Float`, `Time`, and `Bool` (as 0/1) are numeric; `Str` and
    /// `Null` are not.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Time(t) => Some(*t as f64),
            Value::Bool(b) => Some(u8::from(*b) as f64),
            Value::Null | Value::Str(_) => None,
        }
    }

    /// Integer view, narrowing floats by truncation.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Time(t) => Some(*t),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Null | Value::Str(_) => None,
        }
    }

    /// String view (only `Str` values).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Timestamp view (only `Time` values).
    pub fn as_time(&self) -> Option<i64> {
        match self {
            Value::Time(t) => Some(*t),
            _ => None,
        }
    }

    /// Whether this value may be stored in a column of type `ty`.
    ///
    /// `Null` is storable anywhere; `Int` widens into `Float` columns and
    /// into `Time` columns (accounting logs often carry epoch integers).
    pub fn conforms_to(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColumnType::Int)
                | (Value::Int(_), ColumnType::Float)
                | (Value::Int(_), ColumnType::Time)
                | (Value::Float(_), ColumnType::Float)
                | (Value::Str(_), ColumnType::Str)
                | (Value::Time(_), ColumnType::Time)
                | (Value::Bool(_), ColumnType::Bool)
        )
    }

    /// Coerce to exactly `ty` where [`conforms_to`](Self::conforms_to)
    /// allows it, so stored rows are canonical.
    pub fn coerce(self, ty: ColumnType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (Value::Int(i), ColumnType::Int) => Some(Value::Int(i)),
            (Value::Int(i), ColumnType::Float) => Some(Value::Float(i as f64)),
            (Value::Int(i), ColumnType::Time) => Some(Value::Time(i)),
            (v @ Value::Float(_), ColumnType::Float) => Some(v),
            (v @ Value::Str(_), ColumnType::Str) => Some(v),
            (v @ Value::Time(_), ColumnType::Time) => Some(v),
            (v @ Value::Bool(_), ColumnType::Bool) => Some(v),
            _ => None,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Time(a), Value::Time(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Time(t) => t.hash(state),
            Value::Bool(b) => b.hash(state),
        }
    }
}

impl PartialOrd for Value {
    /// A total order across same-typed values; `Null` sorts first; values
    /// of different types are ordered by type tag (stable, arbitrary).
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Time(_) => 4,
                Value::Str(_) => 5,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Time(a), Value::Time(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => f.write_str(s),
            Value::Time(t) => write!(f, "@{t}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A table row: one [`Value`] per column, in schema order.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
    }

    #[test]
    fn equal_values_hash_equal() {
        let pairs = [
            (Value::Int(7), Value::Int(7)),
            (Value::Float(2.25), Value::Float(2.25)),
            (Value::Str("abc".into()), Value::Str("abc".into())),
            (Value::Time(1_500_000_000), Value::Time(1_500_000_000)),
            (Value::Bool(true), Value::Bool(true)),
            (Value::Null, Value::Null),
        ];
        for (a, b) in pairs {
            assert_eq!(a, b);
            assert_eq!(hash_of(&a), hash_of(&b));
        }
    }

    #[test]
    fn int_and_time_do_not_collide() {
        // Same payload, different variants must be unequal (discriminant
        // participates in Eq and Hash).
        assert_ne!(Value::Int(5), Value::Time(5));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Null.as_f64(), None);
        assert_eq!(Value::Float(2.9).as_i64(), Some(2));
    }

    #[test]
    fn conformance_and_coercion() {
        assert!(Value::Int(1).conforms_to(ColumnType::Float));
        assert!(Value::Int(1).conforms_to(ColumnType::Time));
        assert!(!Value::Float(1.0).conforms_to(ColumnType::Int));
        assert!(Value::Null.conforms_to(ColumnType::Str));
        assert_eq!(
            Value::Int(4).coerce(ColumnType::Float),
            Some(Value::Float(4.0))
        );
        assert_eq!(Value::Int(4).coerce(ColumnType::Time), Some(Value::Time(4)));
        assert_eq!(Value::Str("s".into()).coerce(ColumnType::Int), None);
    }

    #[test]
    fn ordering_is_total_within_type() {
        let mut v = vec![Value::Int(3), Value::Int(1), Value::Int(2)];
        v.sort();
        assert_eq!(v, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Float(f64::NEG_INFINITY) < Value::Float(0.0));
    }

    #[test]
    fn display_round_trips_readably() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-9).to_string(), "-9");
        assert_eq!(Value::Str("comet".into()).to_string(), "comet");
        assert_eq!(Value::Time(100).to_string(), "@100");
    }
}
