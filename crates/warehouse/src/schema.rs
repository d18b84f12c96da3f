//! Table schemas and column definitions.

use crate::error::{Result, WarehouseError};
use crate::value::{ColumnType, Row, Value};

/// Definition of a single column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnDef {
    /// Column name (unique within the table, case-sensitive).
    pub name: String,
    /// Static type of the column.
    pub ty: ColumnType,
    /// Whether `Null` values are accepted.
    pub nullable: bool,
}

impl ColumnDef {
    /// A non-nullable column.
    pub fn required(name: &str, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.to_owned(),
            ty,
            nullable: false,
        }
    }

    /// A nullable column.
    pub fn nullable(name: &str, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.to_owned(),
            ty,
            nullable: true,
        }
    }
}

/// Schema of a table: an ordered list of column definitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    /// Table name (unique within its schema/namespace).
    pub name: String,
    /// Ordered column definitions.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Build a schema, validating that column names are unique.
    pub fn new(name: &str, columns: Vec<ColumnDef>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(WarehouseError::SchemaMismatch(format!(
                    "duplicate column {} in table {}",
                    c.name, name
                )));
            }
        }
        Ok(TableSchema {
            name: name.to_owned(),
            columns,
        })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, column: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == column)
            .ok_or_else(|| WarehouseError::UnknownColumn {
                table: self.name.clone(),
                column: column.to_owned(),
            })
    }

    /// The definition of a column by name.
    pub fn column(&self, column: &str) -> Result<&ColumnDef> {
        self.column_index(column).map(|i| &self.columns[i])
    }

    /// Validate a row against this schema and coerce its values into
    /// canonical column types (e.g. `Int` literals into `Float` columns).
    pub fn check_row(&self, row: Row) -> Result<Row> {
        if row.len() != self.arity() {
            return Err(WarehouseError::SchemaMismatch(format!(
                "table {} expects {} columns, row has {}",
                self.name,
                self.arity(),
                row.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (value, col) in row.into_iter().zip(&self.columns) {
            if value.is_null() && !col.nullable {
                return Err(WarehouseError::SchemaMismatch(format!(
                    "column {}.{} is not nullable",
                    self.name, col.name
                )));
            }
            match value.coerce(col.ty) {
                Some(v) => out.push(v),
                None => {
                    return Err(WarehouseError::SchemaMismatch(format!(
                        "column {}.{} expects {}, got incompatible value",
                        self.name, col.name, col.ty
                    )))
                }
            }
        }
        Ok(out)
    }
}

/// Convenience builder for fact-table schemas.
///
/// ```
/// use xdmod_warehouse::schema::SchemaBuilder;
/// use xdmod_warehouse::value::ColumnType;
///
/// let schema = SchemaBuilder::new("jobfact")
///     .required("resource", ColumnType::Str)
///     .required("end_time", ColumnType::Time)
///     .nullable("gpu_count", ColumnType::Int)
///     .build()
///     .unwrap();
/// assert_eq!(schema.arity(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    name: String,
    columns: Vec<ColumnDef>,
}

impl SchemaBuilder {
    /// Start a schema for table `name`.
    pub fn new(name: &str) -> Self {
        SchemaBuilder {
            name: name.to_owned(),
            columns: Vec::new(),
        }
    }

    /// Append a non-nullable column.
    pub fn required(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef::required(name, ty));
        self
    }

    /// Append a nullable column.
    pub fn nullable(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push(ColumnDef::nullable(name, ty));
        self
    }

    /// Finish, validating uniqueness of column names.
    pub fn build(self) -> Result<TableSchema> {
        TableSchema::new(&self.name, self.columns)
    }
}

/// Helper to assemble rows against a schema by column name, so call sites
/// don't depend on column order.
#[derive(Debug)]
pub struct RowBuilder<'a> {
    schema: &'a TableSchema,
    values: Vec<Value>,
}

impl<'a> RowBuilder<'a> {
    /// Start a row for `schema`, pre-filled with `Null`s.
    pub fn new(schema: &'a TableSchema) -> Self {
        RowBuilder {
            schema,
            values: vec![Value::Null; schema.arity()],
        }
    }

    /// Set a column by name.
    pub fn set(mut self, column: &str, value: impl Into<Value>) -> Result<Self> {
        let idx = self.schema.column_index(column)?;
        self.values[idx] = value.into();
        Ok(self)
    }

    /// Finish, validating the row against the schema.
    pub fn build(self) -> Result<Row> {
        self.schema.check_row(self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        SchemaBuilder::new("jobfact")
            .required("resource", ColumnType::Str)
            .required("cpu_hours", ColumnType::Float)
            .required("end_time", ColumnType::Time)
            .nullable("queue", ColumnType::Str)
            .build()
            .unwrap()
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = SchemaBuilder::new("t")
            .required("a", ColumnType::Int)
            .required("a", ColumnType::Int)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("duplicate column a"));
    }

    #[test]
    fn column_lookup() {
        let s = schema();
        assert_eq!(s.column_index("cpu_hours").unwrap(), 1);
        assert!(matches!(
            s.column_index("nope"),
            Err(WarehouseError::UnknownColumn { .. })
        ));
        assert!(s.column("queue").unwrap().nullable);
    }

    #[test]
    fn check_row_validates_arity() {
        let s = schema();
        let err = s.check_row(vec![Value::Str("comet".into())]).unwrap_err();
        assert!(err.to_string().contains("expects 4 columns"));
    }

    #[test]
    fn check_row_validates_nullability() {
        let s = schema();
        let err = s
            .check_row(vec![
                Value::Null,
                Value::Float(1.0),
                Value::Time(0),
                Value::Null,
            ])
            .unwrap_err();
        assert!(err.to_string().contains("not nullable"));
    }

    #[test]
    fn check_row_coerces_ints() {
        let s = schema();
        let row = s
            .check_row(vec![
                Value::Str("comet".into()),
                Value::Int(10),
                Value::Int(1_483_228_800),
                Value::Null,
            ])
            .unwrap();
        assert_eq!(row[1], Value::Float(10.0));
        assert_eq!(row[2], Value::Time(1_483_228_800));
    }

    #[test]
    fn check_row_rejects_type_mismatch() {
        let s = schema();
        let err = s
            .check_row(vec![
                Value::Int(1),
                Value::Float(1.0),
                Value::Time(0),
                Value::Null,
            ])
            .unwrap_err();
        assert!(err.to_string().contains("resource"));
    }

    #[test]
    fn row_builder_by_name() {
        let s = schema();
        let row = RowBuilder::new(&s)
            .set("end_time", Value::Time(7))
            .unwrap()
            .set("resource", "stampede2")
            .unwrap()
            .set("cpu_hours", 3.5)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(row[0], Value::Str("stampede2".into()));
        assert_eq!(row[3], Value::Null);
    }

    #[test]
    fn row_builder_unknown_column_errors() {
        let s = schema();
        assert!(RowBuilder::new(&s).set("bogus", 1i64).is_err());
    }
}
