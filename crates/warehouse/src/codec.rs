//! The byte layout of values, rows and table schemas — the one place in
//! the workspace that knows it.
//!
//! Binlog frames ([`crate::binlog`]), and through them WAL segments,
//! snapshots, loose dumps and replication, and the bodies of spill pages
//! ([`crate::disk::spill`]) all store rows in this form:
//!
//! ```text
//! str     = len u32 | utf-8 bytes
//! value   = tag u8  | 0 null · 1 int i64 · 2 float f64 bits · 3 str
//!                   | 4 time i64 · 5 bool u8
//! row     = arity u32 | value × arity
//! rows    = count u32 | row × count
//! column  = name str | type u8 (0 int, 1 float, 2 str, 3 time, 4 bool)
//!                    | nullable u8
//! table   = name str | columns u32 | column × columns
//! ```
//!
//! Integers are little-endian; floats travel as their bit pattern, so
//! `NaN`, `±inf` and `-0.0` round-trip exactly. Writers append to a
//! `Vec<u8>`; readers advance a borrowed `&[u8]` cursor. A length prefix
//! is trusted only up to what the remaining input could hold, so hostile
//! input cannot make a reader reserve more than a multiple of its size.

use crate::error::{Result, WarehouseError};
use crate::schema::{ColumnDef, TableSchema};
use crate::value::{ColumnType, Row, Value};

const VTAG_NULL: u8 = 0;
const VTAG_INT: u8 = 1;
const VTAG_FLOAT: u8 = 2;
const VTAG_STR: u8 = 3;
const VTAG_TIME: u8 = 4;
const VTAG_BOOL: u8 = 5;

pub(crate) fn corrupt(msg: impl Into<String>) -> WarehouseError {
    WarehouseError::CorruptBinlog(msg.into())
}

/// Split `n` bytes off the front of the cursor.
pub(crate) fn take<'a>(cur: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8]> {
    if cur.len() < n {
        return Err(corrupt(format!("short {what}")));
    }
    let (head, rest) = cur.split_at(n);
    *cur = rest;
    Ok(head)
}

pub(crate) fn get_u8(cur: &mut &[u8], what: &str) -> Result<u8> {
    Ok(take(cur, 1, what)?[0])
}

pub(crate) fn get_u32(cur: &mut &[u8], what: &str) -> Result<u32> {
    let b = take(cur, 4, what)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

pub(crate) fn get_u64(cur: &mut &[u8], what: &str) -> Result<u64> {
    let b = take(cur, 8, what)?;
    Ok(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_str(cur: &mut &[u8]) -> Result<String> {
    let len = get_u32(cur, "string length")? as usize;
    let bytes = take(cur, len, "string body")?;
    String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("invalid utf8"))
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(VTAG_NULL),
        Value::Int(i) => {
            buf.push(VTAG_INT);
            put_u64(buf, *i as u64);
        }
        Value::Float(f) => {
            buf.push(VTAG_FLOAT);
            put_u64(buf, f.to_bits());
        }
        Value::Str(s) => {
            buf.push(VTAG_STR);
            put_str(buf, s);
        }
        Value::Time(t) => {
            buf.push(VTAG_TIME);
            put_u64(buf, *t as u64);
        }
        Value::Bool(b) => {
            buf.push(VTAG_BOOL);
            buf.push(u8::from(*b));
        }
    }
}

fn get_value(cur: &mut &[u8]) -> Result<Value> {
    match get_u8(cur, "value tag")? {
        VTAG_NULL => Ok(Value::Null),
        VTAG_INT => Ok(Value::Int(get_u64(cur, "int")? as i64)),
        VTAG_FLOAT => Ok(Value::Float(f64::from_bits(get_u64(cur, "float")?))),
        VTAG_STR => Ok(Value::Str(get_str(cur)?)),
        VTAG_TIME => Ok(Value::Time(get_u64(cur, "time")? as i64)),
        VTAG_BOOL => Ok(Value::Bool(get_u8(cur, "bool")? != 0)),
        other => Err(corrupt(format!("unknown value tag {other}"))),
    }
}

pub(crate) fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row {
        put_value(buf, v);
    }
}

pub(crate) fn get_row(cur: &mut &[u8]) -> Result<Row> {
    let arity = get_u32(cur, "row arity")? as usize;
    // Every value takes at least its tag byte.
    let mut row = Vec::with_capacity(arity.min(cur.len()));
    for _ in 0..arity {
        row.push(get_value(cur)?);
    }
    Ok(row)
}

pub(crate) fn put_rows<'a>(buf: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = &'a Row>) {
    put_u32(buf, rows.len() as u32);
    for row in rows {
        put_row(buf, row);
    }
}

pub(crate) fn get_rows(cur: &mut &[u8]) -> Result<Vec<Row>> {
    let n = get_u32(cur, "row count")? as usize;
    // Every row takes at least its arity prefix.
    let mut rows = Vec::with_capacity(n.min(cur.len() / 4));
    for _ in 0..n {
        rows.push(get_row(cur)?);
    }
    Ok(rows)
}

fn column_type_code(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Str => 2,
        ColumnType::Time => 3,
        ColumnType::Bool => 4,
    }
}

fn column_type_from_code(code: u8) -> Result<ColumnType> {
    Ok(match code {
        0 => ColumnType::Int,
        1 => ColumnType::Float,
        2 => ColumnType::Str,
        3 => ColumnType::Time,
        4 => ColumnType::Bool,
        other => return Err(corrupt(format!("unknown column type code {other}"))),
    })
}

pub(crate) fn put_table_schema(buf: &mut Vec<u8>, def: &TableSchema) {
    put_str(buf, &def.name);
    put_u32(buf, def.columns.len() as u32);
    for c in &def.columns {
        put_str(buf, &c.name);
        buf.push(column_type_code(c.ty));
        buf.push(u8::from(c.nullable));
    }
}

/// Read a table definition, re-validating it (duplicate column names in
/// damaged input are an error, not a panic later).
pub(crate) fn get_table_schema(cur: &mut &[u8]) -> Result<TableSchema> {
    let name = get_str(cur)?;
    let n = get_u32(cur, "column count")? as usize;
    // Every column takes at least a name length, a type and a flag.
    let mut columns = Vec::with_capacity(n.min(cur.len() / 6));
    for _ in 0..n {
        let cname = get_str(cur)?;
        let ty = column_type_from_code(get_u8(cur, "column def")?)?;
        let nullable = get_u8(cur, "column def")? != 0;
        columns.push(ColumnDef {
            name: cname,
            ty,
            nullable,
        });
    }
    TableSchema::new(&name, columns).map_err(|e| corrupt(format!("bad schema in log: {e}")))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::SchemaBuilder;

    /// Every value kind, including the floats a text codec cannot carry.
    pub(crate) fn awkward_row() -> Row {
        vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(f64::MIN_POSITIVE / 2.0),
            Value::Str(String::new()),
            Value::Str("naïve — 計算 🖥".into()),
            Value::Time(-1),
            Value::Bool(true),
        ]
    }

    #[test]
    fn rows_round_trip_bit_exact() {
        let rows = vec![awkward_row(), vec![], vec![Value::Bool(false)]];
        let mut buf = Vec::new();
        put_rows(&mut buf, rows.iter());
        let mut cur = &buf[..];
        // `Value` compares floats by bit pattern, so this is bit-exact.
        assert_eq!(get_rows(&mut cur).unwrap(), rows);
        assert!(cur.is_empty());
    }

    #[test]
    fn table_schema_round_trips_and_revalidates() {
        let def = SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .nullable("end_time", ColumnType::Time)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        put_table_schema(&mut buf, &def);
        assert_eq!(get_table_schema(&mut &buf[..]).unwrap(), def);
        // Two columns of the same name: rejected at decode.
        let mut dup = Vec::new();
        put_str(&mut dup, "t");
        put_u32(&mut dup, 2);
        for _ in 0..2 {
            put_str(&mut dup, "c");
            dup.extend_from_slice(&[0, 0]);
        }
        assert!(get_table_schema(&mut &dup[..]).is_err());
    }

    #[test]
    fn inflated_length_prefixes_fail_without_reserving_for_them() {
        // A row count, an arity, a column count and a string length of
        // u32::MAX over a few bytes of input: each is a typed error, and
        // (the point of clamping to the remaining input) none of them
        // reserves gigabytes first.
        let huge = u32::MAX.to_le_bytes();
        assert!(get_rows(&mut &huge[..]).is_err());
        assert!(get_row(&mut &huge[..]).is_err());
        assert!(get_str(&mut &huge[..]).is_err());
        let mut schema = Vec::new();
        put_str(&mut schema, "t");
        schema.extend_from_slice(&huge);
        assert!(get_table_schema(&mut &schema[..]).is_err());
    }

    #[test]
    fn truncation_at_every_offset_is_a_typed_error() {
        let mut buf = Vec::new();
        put_rows(&mut buf, [awkward_row()].iter());
        for cut in 0..buf.len() {
            assert!(
                matches!(
                    get_rows(&mut &buf[..cut]),
                    Err(WarehouseError::CorruptBinlog(_))
                ),
                "cut at {cut}"
            );
        }
    }
}
