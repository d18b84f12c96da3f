//! In-memory tables: schema-validated row storage, optionally paged.
//!
//! A table's rows live in one of two stores. The default **dense** store
//! is a plain `Vec<Row>` — zero overhead, always fully resident. When
//! the database enables paging ([`crate::resident`]), the store becomes
//! a [`PagedStore`]: rows partitioned into day-bucket pages whose cold
//! members spill to disk under a shared byte budget. Either way the
//! logical contents are identical; [`Table::rows`] is fallible only
//! because a paged table may need to fault pages back in (and a corrupt
//! spill file surfaces [`crate::error::WarehouseError::SpillLost`]
//! rather than wrong rows).

use crate::binlog::put_insert_batch;
use crate::checksum::crc32;
use crate::error::Result;
use crate::resident::{PageVisitor, PagedStore, ResidencyManager};
use crate::schema::TableSchema;
use crate::value::{Row, Value};
use std::ops::Deref;
use std::sync::Arc;

/// Row storage behind a table: fully resident or paged under a budget.
#[derive(Debug, Clone)]
enum Store {
    /// All rows in a plain vector, in insertion order.
    Dense(Vec<Row>),
    /// Rows partitioned into budget-managed pages. The `Arc` makes
    /// clones *share* the store (cloning cannot fault pages in and must
    /// not fail).
    Paged(Arc<PagedStore>),
}

/// A borrowed-or-materialized view of a table's rows, in insertion
/// order. Dense tables lend their backing slice; paged tables fault
/// everything in and hand back an owned vector. Derefs to `[Row]`, so
/// slicing, indexing and iteration work unchanged — but
/// `for row in table.rows()?` becomes `for row in table.rows()?.iter()`.
#[derive(Debug)]
pub struct RowsRef<'a>(RowsRefInner<'a>);

#[derive(Debug)]
enum RowsRefInner<'a> {
    Dense(&'a [Row]),
    Owned(Vec<Row>),
}

impl Deref for RowsRef<'_> {
    type Target = [Row];

    fn deref(&self) -> &[Row] {
        match &self.0 {
            RowsRefInner::Dense(rows) => rows,
            RowsRefInner::Owned(rows) => rows,
        }
    }
}

impl RowsRef<'_> {
    /// The rows as an owned vector (avoids a second copy when the view
    /// is already materialized).
    pub fn into_vec(self) -> Vec<Row> {
        match self.0 {
            RowsRefInner::Dense(rows) => rows.to_vec(),
            RowsRefInner::Owned(rows) => rows,
        }
    }
}

/// A table: a schema plus row storage.
///
/// Rows are stored in insertion order. The warehouse is append-only at the
/// fact level (XDMoD ingests logs; it does not update history); the only
/// destructive operation is [`Table::truncate`], used when aggregation
/// tables are rebuilt.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    store: Store,
}

impl Table {
    /// Empty table with the given schema.
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            store: Store::Dense(Vec::new()),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.schema.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.store {
            Store::Dense(rows) => rows.len(),
            Store::Paged(store) => store.len(),
        }
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows, in insertion order.
    ///
    /// Dense tables return a borrow and cannot fail. Paged tables fault
    /// every page in (the unbounded path — used by whole-table viewers
    /// and cold delta builds; budget-bounded consumers use
    /// [`Table::scan_pages`] or [`Table::for_each_chunk`] instead) and fail
    /// if a spilled page was lost to corruption.
    pub fn rows(&self) -> Result<RowsRef<'_>> {
        match &self.store {
            Store::Dense(rows) => Ok(RowsRef(RowsRefInner::Dense(rows))),
            Store::Paged(store) => Ok(RowsRef(RowsRefInner::Owned(store.materialize()?))),
        }
    }

    /// True if this table's rows are managed by the paging engine.
    pub fn is_paged(&self) -> bool {
        matches!(self.store, Store::Paged(_))
    }

    /// The paged store, if paging is enabled for this table.
    pub(crate) fn paged_store(&self) -> Option<&Arc<PagedStore>> {
        match &self.store {
            Store::Paged(store) => Some(store),
            Store::Dense(_) => None,
        }
    }

    /// Visit a paged table's rows one page at a time — the
    /// budget-bounded scan: each page is pinned, faulted in if spilled,
    /// handed to `f` as `(sequence, row)` pairs, then released so the
    /// residency manager can re-enforce the budget before the next page.
    /// Returns an error (and stops) on a dense table — callers branch on
    /// [`Table::is_paged`].
    pub fn scan_pages(&self, f: &mut PageVisitor<'_>) -> Result<()> {
        match &self.store {
            Store::Paged(store) => store.scan_pages(f),
            Store::Dense(_) => Err(crate::error::WarehouseError::InvalidQuery(format!(
                "scan_pages on dense table {}",
                self.schema.name
            ))),
        }
    }

    /// Visit every row once, at most `max` (> 0) at a time, within the
    /// residency budget: a dense table in insertion order, a paged table
    /// page by page (insertion order within each page) through
    /// [`Table::scan_pages`].
    pub fn for_each_chunk(
        &self,
        max: usize,
        f: &mut dyn FnMut(&mut dyn ExactSizeIterator<Item = &Row>),
    ) -> Result<()> {
        match &self.store {
            Store::Dense(rows) => {
                rows.chunks(max).for_each(|chunk| f(&mut chunk.iter()));
                Ok(())
            }
            Store::Paged(store) => store.scan_pages(&mut |page| {
                page.chunks(max)
                    .for_each(|chunk| f(&mut chunk.iter().map(|(_, row)| row)));
                Ok(())
            }),
        }
    }

    /// Convert a dense table to paged storage under `manager`'s budget.
    /// In-memory only (nothing spills until the manager next enforces);
    /// a no-op if the table is already paged.
    pub(crate) fn enable_paging(&mut self, manager: &Arc<ResidencyManager>, pages: u32) {
        if let Store::Dense(rows) = &mut self.store {
            let rows = std::mem::take(rows);
            self.store = Store::Paged(PagedStore::from_rows(
                manager.clone(),
                &self.schema,
                rows,
                pages,
            ));
        }
    }

    /// Validate a batch without storing it; returns the rows after type
    /// coercion. This is the read-only half of [`Table::insert_batch`],
    /// split out so the database can validate *before* the write-ahead
    /// log append and admit the rows afterwards with
    /// [`Table::insert_checked`] — no in-memory mutation may precede the
    /// durable append.
    pub fn check_batch(&self, rows: Vec<Row>) -> Result<Vec<Row>> {
        let mut checked = Vec::with_capacity(rows.len());
        for row in rows {
            checked.push(self.schema.check_row(row)?);
        }
        Ok(checked)
    }

    /// Validate and append a batch of rows; returns the validated rows as
    /// they were stored (after type coercion) so callers can log them.
    pub fn insert_batch(&mut self, rows: Vec<Row>) -> Result<Vec<Row>> {
        let checked = self.check_batch(rows)?;
        self.insert_checked(checked.clone());
        Ok(checked)
    }

    /// Append rows that are already canonical (came out of a binlog and
    /// were validated at the source). Still re-checked in debug builds.
    ///
    /// Infallible by contract: the database appends to the write-ahead
    /// log *before* calling this, so the mutation must succeed. Paged
    /// tables honor that by staging rows for spilled pages in an
    /// in-memory tail rather than faulting anything in.
    pub fn insert_checked(&mut self, rows: Vec<Row>) {
        #[cfg(debug_assertions)]
        for row in &rows {
            debug_assert!(
                self.schema.check_row(row.clone()).is_ok(),
                "insert_checked received an invalid row for {}",
                self.schema.name
            );
        }
        match &mut self.store {
            Store::Dense(dense) => dense.extend(rows),
            Store::Paged(store) => store.insert(rows),
        }
    }

    /// Delete all rows (schema is retained). For paged tables this also
    /// deletes the table's spill files — a truncate precedes every
    /// rewrite (aggregation rebuilds, replication resync), and stale
    /// spill data must never survive one.
    pub fn truncate(&mut self) {
        match &mut self.store {
            Store::Dense(rows) => rows.clear(),
            Store::Paged(store) => store.truncate(),
        }
    }

    /// Values of one column across all rows.
    pub fn column_values(&self, column: &str) -> Result<Vec<Value>> {
        let idx = self.schema.column_index(column)?;
        Ok(self.rows()?.iter().map(|r| r[idx].clone()).collect())
    }

    /// Order-independent content checksum.
    ///
    /// Each row is binlog-encoded and CRC'd; per-row digests are combined
    /// with a wrapping sum (so permutations of the same multiset of rows
    /// agree) and the row count is mixed in. Used to verify that satellite
    /// data replicated to the federation hub is unaltered ("the federation
    /// hub does not alter the raw, replicated data", §II-B).
    ///
    /// Paged tables maintain the identical sum incrementally per page, so
    /// checksumming never faults anything in; a *lost* page deliberately
    /// perturbs its contribution so consistency checks flag the table for
    /// resync instead of vouching for unreadable rows.
    pub fn content_checksum(&self) -> u64 {
        match &self.store {
            Store::Dense(rows) => rows
                .iter()
                .fold(CHECKSUM_SEED ^ rows.len() as u64, |acc, row| {
                    acc.wrapping_add(row_piece(row))
                }),
            Store::Paged(store) => store.content_checksum(),
        }
    }
}

/// Seed of the content checksum, mixed with the row count.
pub(crate) const CHECKSUM_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// One row's term of the content checksum: the CRC of the row as a
/// single-row binlog batch, spread over 64 bits before summing so a
/// collision has to match both halves.
pub(crate) fn row_piece(row: &Row) -> u64 {
    let mut batch = Vec::new();
    put_insert_batch(&mut batch, "", "", std::iter::once(row));
    let digest = crc32(&batch) as u64;
    let spread = digest.wrapping_mul(0x0100_0000_01B3);
    spread ^ digest.rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::PagingConfig;
    use crate::schema::SchemaBuilder;
    use crate::value::ColumnType;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn table() -> Table {
        Table::new(
            SchemaBuilder::new("jobfact")
                .required("resource", ColumnType::Str)
                .required("cpu_hours", ColumnType::Float)
                .build()
                .unwrap(),
        )
    }

    fn row(res: &str, hours: f64) -> Row {
        vec![Value::Str(res.into()), Value::Float(hours)]
    }

    #[test]
    fn insert_and_read_back() {
        let mut t = table();
        t.insert_batch(vec![row("comet", 1.0), row("stampede", 2.0)])
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(
            t.column_values("resource").unwrap(),
            vec![Value::Str("comet".into()), Value::Str("stampede".into())]
        );
    }

    #[test]
    fn insert_batch_is_atomic_per_call() {
        let mut t = table();
        // Second row is invalid; nothing should be inserted.
        let res = t.insert_batch(vec![row("comet", 1.0), vec![Value::Int(3)]]);
        assert!(res.is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn insert_batch_returns_coerced_rows() {
        let mut t = table();
        let stored = t
            .insert_batch(vec![vec![Value::Str("comet".into()), Value::Int(4)]])
            .unwrap();
        assert_eq!(stored[0][1], Value::Float(4.0));
        assert_eq!(t.rows().unwrap()[0][1], Value::Float(4.0));
    }

    #[test]
    fn truncate_keeps_schema() {
        let mut t = table();
        t.insert_batch(vec![row("comet", 1.0)]).unwrap();
        t.truncate();
        assert!(t.is_empty());
        assert_eq!(t.schema().arity(), 2);
    }

    #[test]
    fn checksum_is_order_independent() {
        let mut a = table();
        let mut b = table();
        a.insert_batch(vec![row("comet", 1.0), row("stampede", 2.0)])
            .unwrap();
        b.insert_batch(vec![row("stampede", 2.0), row("comet", 1.0)])
            .unwrap();
        assert_eq!(a.content_checksum(), b.content_checksum());
    }

    #[test]
    fn checksum_detects_content_change() {
        let mut a = table();
        let mut b = table();
        a.insert_batch(vec![row("comet", 1.0)]).unwrap();
        b.insert_batch(vec![row("comet", 1.5)]).unwrap();
        assert_ne!(a.content_checksum(), b.content_checksum());
    }

    #[test]
    fn checksum_detects_multiplicity_change() {
        let mut a = table();
        let mut b = table();
        a.insert_batch(vec![row("comet", 1.0)]).unwrap();
        b.insert_batch(vec![row("comet", 1.0), row("comet", 1.0)])
            .unwrap();
        assert_ne!(a.content_checksum(), b.content_checksum());
    }

    #[test]
    fn empty_tables_with_same_schema_agree() {
        assert_eq!(table().content_checksum(), table().content_checksum());
    }

    // --- paged-store integration ---

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn tiny_manager(tag: &str) -> std::sync::Arc<ResidencyManager> {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("xdmod-table-{}-{tag}-{n}", std::process::id()));
        ResidencyManager::new(
            &PagingConfig::new(dir).budget_bytes(1),
            xdmod_telemetry::MetricsRegistry::disabled(),
        )
    }

    #[test]
    fn paged_table_round_trips_rows_len_and_checksum() {
        let mut dense = table();
        dense
            .insert_batch(vec![row("comet", 1.0), row("stampede", 2.0)])
            .unwrap();
        let mut paged = dense.clone();
        paged.enable_paging(&tiny_manager("roundtrip"), 4);
        assert!(paged.is_paged());
        assert_eq!(paged.len(), 2);
        assert_eq!(
            paged.rows().unwrap().to_vec(),
            dense.rows().unwrap().to_vec()
        );
        assert_eq!(paged.content_checksum(), dense.content_checksum());
        assert_eq!(
            paged.column_values("resource").unwrap(),
            dense.column_values("resource").unwrap()
        );
        // The budget-bounded visit sees the same rows: in insertion order
        // when dense, page by page when paged.
        let visit = |t: &Table| {
            let mut seen = Vec::new();
            t.for_each_chunk(3, &mut |rows| {
                assert!(rows.len() <= 3);
                seen.extend(rows.cloned());
            })
            .unwrap();
            seen
        };
        assert_eq!(visit(&dense), dense.rows().unwrap().to_vec());
        let mut by_page = visit(&paged);
        by_page.sort();
        let mut want = dense.rows().unwrap().to_vec();
        want.sort();
        assert_eq!(by_page, want);
    }

    #[test]
    fn paged_insert_and_truncate_mirror_dense() {
        let mut paged = table();
        paged.enable_paging(&tiny_manager("mutate"), 4);
        paged
            .insert_batch(vec![row("comet", 1.0), row("stampede", 2.0)])
            .unwrap();
        paged.insert_checked(vec![row("bridges", 3.0)]);
        assert_eq!(paged.len(), 3);
        paged.truncate();
        assert!(paged.is_empty());
        assert_eq!(paged.content_checksum(), table().content_checksum());
    }

    #[test]
    fn scan_pages_errors_on_dense_tables() {
        let t = table();
        assert!(t.scan_pages(&mut |_| Ok(())).is_err());
    }
}
