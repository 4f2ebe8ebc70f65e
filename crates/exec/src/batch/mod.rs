//! The vectorized batch execution engine.
//!
//! Where the reference interpreter (`tqo_core::interp`) evaluates the plan
//! materializing a full `Relation` per operator, this engine streams
//! **batches** — column-major windows of ~[`BATCH_SIZE`] rows over
//! shared [`Column`] vectors — through a pipeline of
//! `pipeline::BatchOperator`s:
//!
//! * a [`Batch`] never owns rows it did not create: it holds `Arc`s to its
//!   source columns plus a *selection* ([`Sel`]) naming the live rows, so
//!   `select` and column-keeping `project` are pure selection-vector /
//!   schema manipulation with zero row copies;
//! * streaming operators (scan, select, project, union-all, keyed `rdup`,
//!   keyed `difference`, transfers) forward batches as they arrive;
//! * pipeline breakers (sort, aggregation, products, the temporal
//!   sweeps) gather their input into a [`ColumnarRelation`], run a
//!   columnar kernel from [`kernels`], and stream the result back out in
//!   batches.
//!
//! Every batch operator is list-exact against the interpreter's operator
//! (`tqo_core::ops`): for every physical plan, the batch engine produces a
//! `Relation` equal (`==`) to the interpreter's for the logical plan it was
//! lowered from.

pub mod hash;
pub mod kernels;
pub mod pipeline;

use std::sync::Arc;

use tqo_core::columnar::{Column, ColumnarRelation, RowIter, Sel};
use tqo_core::schema::Schema;

/// Target logical rows per batch.
pub const BATCH_SIZE: usize = 1024;

/// A column-major chunk of rows flowing through the pipeline.
///
/// A batch never owns rows it did not create: it holds `Arc`s to its
/// source columns plus a selection naming the live rows, so narrowing is
/// pure metadata:
///
/// ```
/// use std::sync::Arc;
/// use tqo_core::columnar::ColumnarRelation;
/// use tqo_core::relation::Relation;
/// use tqo_core::schema::Schema;
/// use tqo_core::value::DataType;
/// use tqo_core::tuple;
/// use tqo_exec::Batch;
///
/// let rel = Relation::new(
///     Schema::of(&[("A", DataType::Int)]),
///     vec![tuple![1i64], tuple![2i64], tuple![3i64]],
/// )
/// .unwrap();
/// let table = ColumnarRelation::from_relation(&rel).unwrap();
/// // A zero-copy window over rows [0, 2), narrowed to physical row 1.
/// let batch = Batch::slice(&table, 0, 2).with_sel_rows(vec![1]);
/// assert_eq!(batch.num_rows(), 1);
/// assert!(Arc::ptr_eq(batch.column(0), table.column(0))); // shared, not copied
/// ```
#[derive(Debug, Clone)]
pub struct Batch {
    schema: Arc<Schema>,
    columns: Vec<Arc<Column>>,
    sel: Sel,
}

impl Batch {
    /// A batch over freshly built columns (all rows live).
    pub fn from_columns(schema: Arc<Schema>, columns: Vec<Arc<Column>>) -> Batch {
        let rows = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Batch {
            schema,
            columns,
            sel: Sel::Range(0, rows),
        }
    }

    /// A zero-copy window `[start, end)` over a columnar relation.
    pub fn slice(table: &ColumnarRelation, start: usize, end: usize) -> Batch {
        debug_assert!(start <= end && end <= table.rows());
        Batch {
            schema: table.schema().clone(),
            columns: table.columns().to_vec(),
            sel: Sel::Range(start, end),
        }
    }

    /// The batch's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The shared backing columns (physical layout).
    pub fn columns(&self) -> &[Arc<Column>] {
        &self.columns
    }

    /// The backing column of attribute `i`.
    pub fn column(&self, i: usize) -> &Arc<Column> {
        &self.columns[i]
    }

    /// The live-row selection.
    pub fn sel(&self) -> &Sel {
        &self.sel
    }

    /// Logical row count.
    pub fn num_rows(&self) -> usize {
        self.sel.len()
    }

    /// True when no rows are live.
    pub fn is_empty(&self) -> bool {
        self.sel.is_empty()
    }

    /// Iterate the live physical row indices, in logical order.
    pub fn rows(&self) -> RowIter<'_> {
        self.sel.iter()
    }

    /// The same columns under a narrowed selection (zero row copies). The
    /// indices must be physical and already in output order.
    pub fn with_sel_rows(&self, rows: Vec<u32>) -> Batch {
        Batch {
            schema: self.schema.clone(),
            columns: self.columns.clone(),
            sel: Sel::Rows(Arc::new(rows)),
        }
    }

    /// The same rows under a different (same-arity) schema — renames such
    /// as the `rdup` time-attribute demotion are pure metadata.
    pub fn with_schema(&self, schema: Arc<Schema>) -> Batch {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        Batch {
            schema,
            columns: self.columns.clone(),
            sel: self.sel.clone(),
        }
    }

    /// Keep a subset of columns under a new schema (zero row copies).
    pub fn project_columns(&self, schema: Arc<Schema>, indices: &[usize]) -> Batch {
        Batch {
            schema,
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            sel: self.sel.clone(),
        }
    }

    /// Densify: one column vector per attribute with exactly the live rows.
    /// Full-range batches are returned as shared `Arc`s (no copy).
    pub fn compact_columns(&self) -> Vec<Arc<Column>> {
        match &self.sel {
            Sel::Range(0, e) if self.columns.first().map_or(*e == 0, |c| c.len() == *e) => {
                self.columns.clone()
            }
            Sel::Range(s, e) => {
                let idx: Vec<u32> = (*s as u32..*e as u32).collect();
                self.columns
                    .iter()
                    .map(|c| Arc::new(c.gather(&idx)))
                    .collect()
            }
            Sel::Rows(rows) => self
                .columns
                .iter()
                .map(|c| Arc::new(c.gather(rows)))
                .collect(),
        }
    }
}

/// True when the batches are contiguous ascending windows over one shared
/// set of columns, jointly covering it completely — the shape a scan (or
/// any pass-through above it) produces. Reassembling such a stream is
/// free: the shared columns *are* the result.
pub(crate) fn tiles_shared_columns(batches: &[Batch]) -> bool {
    let Some(first) = batches.first() else {
        return false;
    };
    let total = first.columns().first().map_or(0, |c| c.len());
    let mut expected = 0usize;
    for b in batches {
        let Sel::Range(s, e) = b.sel else {
            return false;
        };
        if s != expected
            || b.columns().len() != first.columns().len()
            || !b
                .columns()
                .iter()
                .zip(first.columns())
                .all(|(a, c)| Arc::ptr_eq(a, c))
        {
            return false;
        }
        expected = e;
    }
    expected == total
}

/// The fusion handle of [`shared_selection`]: the shared source columns
/// plus the concatenated selection (`None` = full columns in physical
/// order).
pub(crate) type SharedSelection = (Vec<Arc<Column>>, Option<Vec<u32>>);

/// When every batch is a view over one shared set of columns (pointer
/// identity), return those columns plus the concatenated selection — the
/// fusion handle that lets a selection-producing pipeline push its
/// selection vector straight into a breaker's build phase (or the
/// driver's sink) instead of materializing a compacted
/// intermediate relation. A `None` selection means the stream is exactly
/// the full shared columns in physical order. Returns `None` overall
/// when there are no batches or they view differing columns (computed
/// projections, row-op results) — callers then fall back to [`concat`].
pub(crate) fn shared_selection(batches: &[Batch]) -> Option<SharedSelection> {
    let first = batches.first()?;
    for b in batches {
        if b.columns().len() != first.columns().len()
            || !b
                .columns()
                .iter()
                .zip(first.columns())
                .all(|(a, c)| Arc::ptr_eq(a, c))
        {
            return None;
        }
    }
    if tiles_shared_columns(batches) {
        return Some((first.columns().to_vec(), None));
    }
    let total: usize = batches.iter().map(Batch::num_rows).sum();
    let mut sel = Vec::with_capacity(total);
    for b in batches {
        match &b.sel {
            Sel::Range(s, e) => sel.extend(*s as u32..*e as u32),
            Sel::Rows(rows) => sel.extend_from_slice(rows),
        }
    }
    Some((first.columns().to_vec(), Some(sel)))
}

/// Materialize a batch stream into a single columnar relation — the
/// pipeline-breaker entry point and the sink of the driver.
pub fn concat(schema: Arc<Schema>, batches: &[Batch]) -> ColumnarRelation {
    if batches.len() == 1 {
        let cols = batches[0].compact_columns();
        return ColumnarRelation::new(schema, cols);
    }
    if tiles_shared_columns(batches) {
        return ColumnarRelation::new(schema, batches[0].columns().to_vec());
    }
    let total: usize = batches.iter().map(Batch::num_rows).sum();
    let mut builders: Vec<Column> = schema
        .attrs()
        .iter()
        .map(|a| Column::with_capacity(a.dtype, total))
        .collect();
    for b in batches {
        for (out, col) in builders.iter_mut().zip(b.columns()) {
            match &b.sel {
                Sel::Range(s, e) => out.extend_range(col, *s, *e),
                Sel::Rows(rows) => out.extend_idx(col, rows),
            }
        }
    }
    ColumnarRelation::new(schema, builders.into_iter().map(Arc::new).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::relation::Relation;
    use tqo_core::tuple;
    use tqo_core::value::DataType;

    fn table() -> ColumnarRelation {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]),
            vec![
                tuple![1i64, "x"],
                tuple![2i64, "y"],
                tuple![3i64, "z"],
                tuple![4i64, "w"],
            ],
        )
        .unwrap();
        ColumnarRelation::from_relation(&r).unwrap()
    }

    #[test]
    fn slices_share_columns() {
        let t = table();
        let b = Batch::slice(&t, 1, 3);
        assert_eq!(b.num_rows(), 2);
        assert!(Arc::ptr_eq(b.column(0), t.column(0)));
        assert_eq!(b.rows().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn selection_narrows_without_copy() {
        let t = table();
        let b = Batch::slice(&t, 0, 4).with_sel_rows(vec![3, 0]);
        assert_eq!(b.num_rows(), 2);
        assert!(Arc::ptr_eq(b.column(1), t.column(1)));
        assert_eq!(b.rows().collect::<Vec<_>>(), vec![3, 0]);
    }

    #[test]
    fn concat_rebuilds_selected_rows_in_order() {
        let t = table();
        let b1 = Batch::slice(&t, 0, 4).with_sel_rows(vec![2]);
        let b2 = Batch::slice(&t, 0, 2);
        let out = concat(t.schema().clone(), &[b1, b2]);
        let rel = out.to_relation();
        assert_eq!(
            rel.tuples(),
            &[tuple![3i64, "z"], tuple![1i64, "x"], tuple![2i64, "y"]]
        );
    }

    #[test]
    fn concat_of_single_full_batch_is_zero_copy() {
        let t = table();
        let out = concat(t.schema().clone(), &[Batch::slice(&t, 0, 4)]);
        assert!(Arc::ptr_eq(out.column(0), t.column(0)));
    }
}
