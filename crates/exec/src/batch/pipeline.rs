//! The streaming operator pipeline: `open` / `next_batch` / `close`.
//!
//! `build` translates a lowered plan tree ([`PhysicalPlan`]) into a tree
//! of `BatchOperator`s. Streaming operators (scan, select, project,
//! union-all, hash `rdup`, hash `difference`, transfers) forward ~1024-row
//! batches as they arrive; pipeline breakers materialize their inputs and
//! call the columnar kernels. The two operators without a columnar kernel
//! (`∪`, `∪ᵀ`) run the interpreter's own functions
//! (`ops::{union_max, union_t}`) behind a materialize boundary.
//!
//! Every operator is wrapped in a `Metered` shell that accumulates
//! inclusive wall-clock time, output rows, and batch counts into a shared
//! sink; the driver converts inclusive to exclusive times using the tree
//! shape and reports one [`OperatorMetrics`] per plan node, in post-order.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tqo_core::columnar::ColumnarRelation;
use tqo_core::context;
use tqo_core::error::{Error, Result};
use tqo_core::expr::{AggItem, Expr, ProjItem};
use tqo_core::interp::Env;
use tqo_core::ops;
use tqo_core::plan::{EquiKeys, PlanNode};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::sortspec::Order;
use tqo_core::trace::{self, Category};
use tqo_core::tuple::Tuple;

use crate::metrics::{ExecMetrics, OperatorMetrics};
use crate::physical::{label, NodeFacts, PhysicalPlan};

use super::exprs::{self, Pred};
use super::hash::{KeyStore, RowTable};
use super::kernels;
use super::{concat, Batch, BATCH_SIZE};

/// A pull-based operator producing column-major batches.
pub(crate) trait BatchOperator {
    /// Output schema, known before any batch is produced.
    fn out_schema(&self) -> Arc<Schema>;
    /// Prepare: open children, build blocking state.
    fn open(&mut self) -> Result<()>;
    /// The next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
    /// Release resources (best effort; infallible).
    fn close(&mut self);
}

type BoxOp = Box<dyn BatchOperator>;

// ---------------------------------------------------------------------------
// Metrics plumbing
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct NodeStats {
    label: String,
    est_rows: Option<u64>,
    children: Vec<usize>,
    rows_out: usize,
    batches: usize,
    inclusive: Duration,
}

#[derive(Debug, Default)]
struct Sink {
    nodes: Vec<NodeStats>,
}

type SharedSink = Rc<RefCell<Sink>>;

/// Wraps an operator, attributing wall-clock time and row counts to its
/// node in the shared sink. Child calls nest inside the parent's timed
/// sections, so recorded times are inclusive; the driver subtracts.
struct Metered {
    inner: BoxOp,
    id: usize,
    sink: SharedSink,
}

impl BatchOperator for Metered {
    fn out_schema(&self) -> Arc<Schema> {
        self.inner.out_schema()
    }

    fn open(&mut self) -> Result<()> {
        // Governance checkpoint: blocking operators do real work in open.
        context::check_current()?;
        // Blocking operators do their real work in open (build phases), so
        // it gets its own span; child opens nest inside it.
        let _span = trace::span_with(Category::Exec, || {
            format!("{}.open", self.sink.borrow().nodes[self.id].label)
        });
        let started = Instant::now();
        let result = self.inner.open();
        self.sink.borrow_mut().nodes[self.id].inclusive += started.elapsed();
        result
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        // Governance checkpoint: one poll per operator per batch.
        context::check_current()?;
        let mut span = trace::span_with(Category::Exec, || {
            self.sink.borrow().nodes[self.id].label.clone()
        });
        let started = Instant::now();
        let result = self.inner.next_batch();
        let elapsed = started.elapsed();
        let mut sink = self.sink.borrow_mut();
        let node = &mut sink.nodes[self.id];
        node.inclusive += elapsed;
        if let Ok(Some(b)) = &result {
            node.rows_out += b.num_rows();
            node.batches += 1;
            span.note_with(|| format!("\"rows\": {}", b.num_rows()));
        }
        result
    }

    fn close(&mut self) {
        let started = Instant::now();
        self.inner.close();
        self.sink.borrow_mut().nodes[self.id].inclusive += started.elapsed();
    }
}

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

/// Source: zero-copy windows over the environment's cached columnar table.
struct ScanOp {
    table: Arc<ColumnarRelation>,
    pos: usize,
}

impl BatchOperator for ScanOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.table.schema().clone()
    }

    fn open(&mut self) -> Result<()> {
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.pos >= self.table.rows() {
            return Ok(None);
        }
        let end = (self.pos + BATCH_SIZE).min(self.table.rows());
        let b = Batch::slice(&self.table, self.pos, end);
        self.pos = end;
        Ok(Some(b))
    }

    fn close(&mut self) {}
}

/// Selection: selection-vector manipulation, zero row copies. Compiled
/// predicates run vectorized; anything outside the total fragment falls
/// back to row-at-a-time `eval_predicate` with identical semantics.
struct FilterOp {
    child: BoxOp,
    predicate: Expr,
    compiled: Option<Pred>,
    schema: Arc<Schema>,
}

/// Materialize one logical row of a batch as a row-layout tuple (slow
/// paths only: predicate/projection fallbacks).
fn row_tuple(batch: &Batch, phys: usize) -> Tuple {
    Tuple::new(batch.columns().iter().map(|c| c.value(phys)).collect())
}

impl BatchOperator for FilterOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let kept = match &self.compiled {
                Some(pred) => exprs::filter(pred, &batch),
                None => {
                    let mut kept = Vec::with_capacity(batch.num_rows());
                    for i in batch.rows() {
                        let t = row_tuple(&batch, i);
                        if self.predicate.eval_predicate(&self.schema, &t)? {
                            kept.push(i as u32);
                        }
                    }
                    kept
                }
            };
            if !kept.is_empty() {
                return Ok(Some(batch.with_sel_rows(kept)));
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Prefix truncation: drop the first `offset` rows, forward at most
/// `limit`, then stop pulling from the child entirely (early exit —
/// upstream batches past the cutoff are never produced).
struct LimitOp {
    child: BoxOp,
    limit: Option<usize>,
    offset: usize,
    skipped: usize,
    emitted: usize,
}

impl BatchOperator for LimitOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.child.out_schema()
    }

    fn open(&mut self) -> Result<()> {
        self.skipped = 0;
        self.emitted = 0;
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if let Some(n) = self.limit {
                if self.emitted >= n {
                    return Ok(None);
                }
            }
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let rows = batch.num_rows();
            let skip = self.offset.saturating_sub(self.skipped).min(rows);
            self.skipped += skip;
            let avail = rows - skip;
            let take = match self.limit {
                Some(n) => avail.min(n - self.emitted),
                None => avail,
            };
            if take == 0 {
                continue;
            }
            self.emitted += take;
            if skip == 0 && take == rows {
                return Ok(Some(batch));
            }
            let sel: Vec<u32> = batch
                .rows()
                .skip(skip)
                .take(take)
                .map(|i| i as u32)
                .collect();
            return Ok(Some(batch.with_sel_rows(sel)));
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Projection. Column-reference projections reuse the child's column
/// `Arc`s under the new schema (zero row copies); computed items densify.
struct ProjectOp {
    child: BoxOp,
    items: Vec<ProjItem>,
    out_schema: Arc<Schema>,
    /// Column index per item when every item is a plain reference.
    col_refs: Option<Vec<usize>>,
    /// Re-validate periods (output temporal, periods not passed through).
    validate: bool,
}

impl ProjectOp {
    fn validate_periods(&self, batch: &Batch) -> Result<()> {
        let (Some(i1), Some(i2)) = (self.out_schema.t1_index(), self.out_schema.t2_index()) else {
            return Ok(());
        };
        let (c1, c2) = (batch.column(i1), batch.column(i2));
        for i in batch.rows() {
            let start = c1.value(i).as_time()?;
            let end = c2.value(i).as_time()?;
            if start >= end {
                return Err(Error::InvalidPeriod { start, end });
            }
        }
        Ok(())
    }
}

impl BatchOperator for ProjectOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.child.next_batch()? else {
            return Ok(None);
        };
        let out = match &self.col_refs {
            Some(indices) => batch.project_columns(self.out_schema.clone(), indices),
            None => {
                // Computed items: densify, evaluating tuple-major (per row,
                // items in order) exactly as `ops::project` does, so a plan
                // with several fallible items surfaces the interpreter's
                // first error.
                let child_schema = self.child.out_schema();
                let mut columns: Vec<tqo_core::columnar::Column> = self
                    .items
                    .iter()
                    .enumerate()
                    .map(|(k, _)| {
                        tqo_core::columnar::Column::with_capacity(
                            self.out_schema.attr(k).dtype,
                            batch.num_rows(),
                        )
                    })
                    .collect();
                for i in batch.rows() {
                    let t = row_tuple(&batch, i);
                    for (k, item) in self.items.iter().enumerate() {
                        columns[k].push(&item.expr.eval(&child_schema, &t)?)?;
                    }
                }
                Batch::from_columns(
                    self.out_schema.clone(),
                    columns.into_iter().map(Arc::new).collect(),
                )
            }
        };
        if self.validate {
            self.validate_periods(&out)?;
        }
        Ok(Some(out))
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// Union ALL: left's batches, then right's.
struct UnionAllOp {
    left: BoxOp,
    right: BoxOp,
    schema: Arc<Schema>,
    on_right: bool,
}

impl BatchOperator for UnionAllOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.schema.clone()
    }

    fn open(&mut self) -> Result<()> {
        self.on_right = false;
        self.left.open()?;
        self.right.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if !self.on_right {
            if let Some(b) = self.left.next_batch()? {
                return Ok(Some(b.with_schema(self.schema.clone())));
            }
            self.on_right = true;
        }
        Ok(self
            .right
            .next_batch()?
            .map(|b| b.with_schema(self.schema.clone())))
    }

    fn close(&mut self) {
        self.left.close();
        self.right.close();
    }
}

/// Hash `rdup`: streaming first-occurrence filter over column-wise row
/// hashes. Kept rows are emitted as selection views of the input batch;
/// their key values are appended to a dense store for cross-batch
/// equality.
struct RdupOp {
    child: BoxOp,
    out_schema: Arc<Schema>,
    key_idx: Vec<usize>,
    table: RowTable,
    store: KeyStore,
    /// Budget reservation tracking the hash state, resized per batch.
    reserved: Option<context::Reservation>,
}

impl RdupOp {
    /// Resize the reservation to the hash state's current footprint.
    fn charge_state(&mut self) -> Result<()> {
        let bytes = self.table.approx_bytes() + self.store.approx_bytes();
        match &mut self.reserved {
            Some(r) => r.grow_to(bytes),
            None => {
                self.reserved = context::reserve_current(bytes)?;
                Ok(())
            }
        }
    }
}

impl BatchOperator for RdupOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn open(&mut self) -> Result<()> {
        self.table = RowTable::default();
        self.store = KeyStore::for_keys(&self.child.out_schema(), &self.key_idx);
        self.reserved = None;
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let cols = batch.columns();
            let hashes = super::hash::hash_batch(&batch, &self.key_idx);
            // Two-phase probe. Phase 1 resolves each row against the
            // *frozen* table by hash alone and batches the candidates;
            // their keys are then verified column-wise — one dtype
            // dispatch per key column per batch instead of per row.
            // Rows with no hash-equal entry (new keys, intra-batch
            // duplicates of them) and the rare failed candidates (full
            // 64-bit hash collisions) take phase 2: the serial
            // insert-or-find walk, in original row order, which is the
            // only phase that mutates the table.
            let mut cand_rows: Vec<u32> = Vec::new();
            let mut cand_ids: Vec<u32> = Vec::new();
            let mut cand_hash: Vec<u64> = Vec::new();
            let mut pending: Vec<(u32, u64)> = Vec::new();
            for (k, i) in batch.rows().enumerate() {
                match self.table.find_first_hash(hashes[k]) {
                    Some(e) => {
                        cand_rows.push(i as u32);
                        cand_ids.push(e);
                        cand_hash.push(hashes[k]);
                    }
                    None => pending.push((i as u32, hashes[k])),
                }
            }
            let mut ok = vec![true; cand_rows.len()];
            for (store_col, &src) in self.store.columns().iter().zip(&self.key_idx) {
                store_col.eq_pairs(&cand_ids, &cols[src], &cand_rows, &mut ok);
            }
            // Verified candidates are duplicates of frozen entries and
            // drop out. Failed candidates rejoin the pending stream,
            // re-sorted by row so phase 2 sees original first-occurrence
            // order (`pending` is built ascending; the sort only ever
            // runs on a genuine 64-bit hash collision).
            if ok.iter().any(|&o| !o) {
                for (k, &o) in ok.iter().enumerate() {
                    if !o {
                        pending.push((cand_rows[k], cand_hash[k]));
                    }
                }
                pending.sort_unstable_by_key(|&(row, _)| row);
            }
            let mut kept = Vec::new();
            for &(row, hash) in &pending {
                let i = row as usize;
                let (_, inserted) = self.table.find_or_insert(
                    hash,
                    |e| self.store.eq_row(e, cols, &self.key_idx, i),
                    0,
                );
                if inserted {
                    self.store.push_row(cols, &self.key_idx, i);
                    kept.push(row);
                }
            }
            self.charge_state()?;
            if !kept.is_empty() {
                return Ok(Some(
                    batch
                        .with_sel_rows(kept)
                        .with_schema(self.out_schema.clone()),
                ));
            }
        }
    }

    fn close(&mut self) {
        self.reserved = None;
        self.child.close();
    }
}

/// Hash multiset difference: the right side is built into a count table at
/// `open`; left batches stream through, consuming counts, and survivors
/// are emitted as selection views (earliest occurrences are the ones
/// removed, as in `ops::difference`).
struct DifferenceOp {
    left: BoxOp,
    right: BoxOp,
    out_schema: Arc<Schema>,
    key_idx: Vec<usize>,
    table: RowTable,
    store: KeyStore,
    /// Budget reservation tracking the build-side hash state.
    reserved: Option<context::Reservation>,
}

impl BatchOperator for DifferenceOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        self.table = RowTable::default();
        self.store = KeyStore::for_keys(&self.right.out_schema(), &self.key_idx);
        self.reserved = None;
        while let Some(batch) = self.right.next_batch()? {
            let cols = batch.columns();
            let hashes = super::hash::hash_batch(&batch, &self.key_idx);
            for (k, i) in batch.rows().enumerate() {
                let (id, inserted) = self.table.find_or_insert(
                    hashes[k],
                    |e| self.store.eq_row(e, cols, &self.key_idx, i),
                    0,
                );
                if inserted {
                    self.store.push_row(cols, &self.key_idx, i);
                }
                *self.table.payload_mut(id) += 1;
            }
            // Re-charge the build state after each batch so the budget
            // tracks hash growth at batch granularity.
            let bytes = self.table.approx_bytes() + self.store.approx_bytes();
            match &mut self.reserved {
                Some(r) => r.grow_to(bytes)?,
                None => self.reserved = context::reserve_current(bytes)?,
            }
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let cols = batch.columns();
            let hashes = super::hash::hash_batch(&batch, &self.key_idx);
            let mut kept = Vec::with_capacity(batch.num_rows());
            for (k, i) in batch.rows().enumerate() {
                let hit = self
                    .table
                    .find(hashes[k], |e| self.store.eq_row(e, cols, &self.key_idx, i));
                match hit {
                    Some(id) if self.table.payload(id) > 0 => {
                        *self.table.payload_mut(id) -= 1;
                    }
                    _ => kept.push(i as u32),
                }
            }
            if !kept.is_empty() {
                return Ok(Some(
                    batch
                        .with_sel_rows(kept)
                        .with_schema(self.out_schema.clone()),
                ));
            }
        }
    }

    fn close(&mut self) {
        self.reserved = None;
        self.left.close();
        self.right.close();
    }
}

/// Transfers execute as identity but are metered.
struct TransferOp {
    child: BoxOp,
}

impl BatchOperator for TransferOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.child.out_schema()
    }

    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        self.child.next_batch()
    }

    fn close(&mut self) {
        self.child.close();
    }
}

// ---------------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------------

/// What a blocking operator computes once its inputs are materialized.
enum BlockKind {
    /// Stable sort; emits selection views over the materialized input.
    Sort(Order),
    Aggregate {
        group_by: Vec<String>,
        aggs: Vec<AggItem>,
    },
    AggregateT {
        group_by: Vec<String>,
        aggs: Vec<AggItem>,
    },
    Product,
    ProductHashEqui(EquiKeys),
    ProductT,
    ProductTHashEqui(EquiKeys),
    DifferenceT,
    RdupT,
    Coalesce,
    /// `∪` and `∪ᵀ` have no columnar kernel: they materialize to row
    /// layout and run the interpreter's function.
    UnionMax,
    UnionT,
}

struct BlockingOp {
    children: Vec<BoxOp>,
    kind: BlockKind,
    out_schema: Arc<Schema>,
    out: Option<ColumnarRelation>,
    /// For `Sort`: the permutation, emitted chunk-wise as selections.
    perm: Option<Vec<u32>>,
    pos: usize,
    /// Budget reservation for the materialized output, held until close.
    reserved: Option<context::Reservation>,
}

fn drain_batches(child: &mut BoxOp) -> Result<Vec<Batch>> {
    let mut batches = Vec::new();
    while let Some(b) = child.next_batch()? {
        if !b.is_empty() {
            batches.push(b);
        }
    }
    Ok(batches)
}

fn drain(child: &mut BoxOp) -> Result<ColumnarRelation> {
    let schema = child.out_schema();
    let batches = drain_batches(child)?;
    Ok(concat(schema, &batches))
}

/// Strictly ascending physical ids — the stream order of every selection
/// a scan/filter pipeline produces, and the order the fused sort relies
/// on for stability (id tie-break == stream order).
fn is_ascending(sel: &[u32]) -> bool {
    sel.windows(2).all(|w| w[0] < w[1])
}

impl BlockingOp {
    /// The sort breaker, with the fused selection-into-breaker path: when
    /// the drained batches are all views over one shared set of columns
    /// (a scan/filter/project pipeline), the selection vector feeds the
    /// sort directly — prefixes are built over the shared columns, the
    /// selection ids are sorted in place, and the result is emitted as
    /// selection views over those same columns. No compacted intermediate
    /// is ever built, so the budget is charged for what is actually
    /// allocated: the prefix buffer and the permutation.
    fn compute_sort(&mut self, order: &Order) -> Result<()> {
        let child = &mut self.children[0];
        let schema = child.out_schema();
        let batches = drain_batches(child)?;
        if let Some((columns, sel)) = super::shared_selection(&batches) {
            if sel.as_deref().is_none_or(is_ascending) {
                let input = ColumnarRelation::new(schema, columns);
                let mut idx = match sel {
                    Some(s) => s,
                    None => (0..input.rows() as u32).collect(),
                };
                // Charge the sort's working state (prefixes + pairs) for
                // the kernel's duration, then the permutation until close.
                let _work_reserved = context::reserve_current(input.rows() * 8 + idx.len() * 12)?;
                let keys = kernels::SortKeys::new(&input, order)?;
                keys.sort(&mut idx);
                self.reserved = context::reserve_current(idx.len() * 4)?;
                self.perm = Some(idx);
                self.out = Some(input);
                return Ok(());
            }
        }
        // Fallback (fresh columns per batch, or a reordered selection):
        // materialize the compacted input and sort that.
        let input = concat(schema, &batches);
        let _inputs_reserved = context::reserve_current(input.approx_bytes())?;
        let perm = kernels::sort_indices(&input, order)?;
        self.reserved = context::reserve_current(input.approx_bytes() + perm.len() * 4)?;
        self.perm = Some(perm);
        self.out = Some(input);
        Ok(())
    }

    fn compute(&mut self) -> Result<()> {
        if let BlockKind::Sort(order) = &self.kind {
            let order = order.clone();
            return self.compute_sort(&order);
        }
        let mut inputs = Vec::with_capacity(self.children.len());
        for c in &mut self.children {
            inputs.push(drain(c)?);
        }
        // Charge the materialized inputs for the duration of the kernel;
        // released when `inputs` goes out of scope.
        let _inputs_reserved =
            context::reserve_current(inputs.iter().map(ColumnarRelation::approx_bytes).sum())?;
        match &self.kind {
            BlockKind::Sort(_) => unreachable!("handled by compute_sort"),
            BlockKind::Aggregate { group_by, aggs } => {
                let input = inputs.pop().expect("aggregate has one child");
                self.out = Some(kernels::aggregate(
                    &input,
                    group_by,
                    aggs,
                    self.out_schema.clone(),
                )?);
            }
            BlockKind::AggregateT { group_by, aggs } => {
                let input = inputs.pop().expect("unary");
                self.out = Some(kernels::aggregate_t(
                    &input,
                    group_by,
                    aggs,
                    self.out_schema.clone(),
                )?);
            }
            BlockKind::Product => {
                let right = inputs.pop().expect("binary");
                let left = inputs.pop().expect("binary");
                // The one breaker whose output size is known before it
                // runs: the budget gets its say before the allocation.
                self.reserved = context::reserve_current(kernels::product_bytes(
                    left.approx_bytes(),
                    left.rows(),
                    right.approx_bytes(),
                    right.rows(),
                ))?;
                self.out = Some(kernels::product(&left, &right, self.out_schema.clone())?);
            }
            BlockKind::ProductHashEqui(keys) => {
                let right = inputs.pop().expect("binary");
                let left = inputs.pop().expect("binary");
                self.out = Some(kernels::product_hash_equi(
                    &left,
                    &right,
                    keys,
                    self.out_schema.clone(),
                )?);
            }
            BlockKind::ProductTHashEqui(keys) => {
                let right = inputs.pop().expect("binary");
                let left = inputs.pop().expect("binary");
                self.out = Some(kernels::product_t_hash_equi(
                    &left,
                    &right,
                    keys,
                    self.out_schema.clone(),
                )?);
            }
            BlockKind::ProductT => {
                let right = inputs.pop().expect("binary");
                let left = inputs.pop().expect("binary");
                self.out = Some(kernels::product_t_sweep(
                    &left,
                    &right,
                    self.out_schema.clone(),
                )?);
            }
            BlockKind::DifferenceT => {
                let right = inputs.pop().expect("binary");
                let left = inputs.pop().expect("binary");
                self.out = Some(kernels::difference_t(
                    &left,
                    &right,
                    self.out_schema.clone(),
                )?);
            }
            BlockKind::RdupT => {
                let input = inputs.pop().expect("unary");
                self.out = Some(kernels::rdup_t(&input)?);
            }
            BlockKind::Coalesce => {
                let input = inputs.pop().expect("unary");
                self.out = Some(kernels::coalesce(&input)?);
            }
            BlockKind::UnionMax | BlockKind::UnionT => {
                let right = inputs.pop().expect("binary").to_relation();
                let left = inputs.pop().expect("binary").to_relation();
                let result = match self.kind {
                    BlockKind::UnionMax => ops::union_max(&left, &right)?,
                    _ => ops::union_t(&left, &right)?,
                };
                self.out = Some(ColumnarRelation::from_relation(&result)?);
            }
        }
        // Charge the materialized output until close releases it: `×`
        // charged its own up front and is resized to what it built, every
        // other breaker is charged now.
        let bytes = self.out.as_ref().map_or(0, ColumnarRelation::approx_bytes);
        self.reserved = match self.reserved.take() {
            Some(mut reserved) => {
                reserved.grow_to(bytes)?;
                Some(reserved)
            }
            None => context::reserve_current(bytes)?,
        };
        Ok(())
    }
}

impl BatchOperator for BlockingOp {
    fn out_schema(&self) -> Arc<Schema> {
        self.out_schema.clone()
    }

    fn open(&mut self) -> Result<()> {
        for c in &mut self.children {
            c.open()?;
        }
        self.pos = 0;
        self.compute()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let out = self.out.as_ref().expect("opened");
        let total = self.perm.as_ref().map_or(out.rows(), Vec::len);
        if self.pos >= total {
            return Ok(None);
        }
        let end = (self.pos + BATCH_SIZE).min(total);
        let batch = match &self.perm {
            Some(perm) => Batch::slice(out, 0, out.rows())
                .with_sel_rows(perm[self.pos..end].to_vec())
                .with_schema(self.out_schema.clone()),
            None => Batch::slice(out, self.pos, end).with_schema(self.out_schema.clone()),
        };
        self.pos = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.out = None;
        self.perm = None;
        self.reserved = None;
        for c in &mut self.children {
            c.close();
        }
    }
}

// ---------------------------------------------------------------------------
// Plan translation
// ---------------------------------------------------------------------------

fn demoted(schema: &Schema) -> Arc<Schema> {
    if schema.is_temporal() {
        Arc::new(schema.demote_time_attrs())
    } else {
        Arc::new(schema.clone())
    }
}

fn require_temporal(schema: &Schema, context: &'static str) -> Result<()> {
    if schema.is_temporal() {
        Ok(())
    } else {
        Err(Error::NotTemporal { context })
    }
}

fn metered(op: BoxOp, id: usize, sink: &SharedSink) -> BoxOp {
    Box::new(Metered {
        inner: op,
        id,
        sink: sink.clone(),
    })
}

fn blocking(children: Vec<BoxOp>, kind: BlockKind, out_schema: Arc<Schema>) -> BoxOp {
    Box::new(BlockingOp {
        children,
        kind,
        out_schema,
        out: None,
        perm: None,
        pos: 0,
        reserved: None,
    })
}

/// Build the operator tree for a plan node. Returns the (metered)
/// operator and its node id; ids are assigned post-order, so a node's id
/// indexes the plan's post-order `facts` and the metrics
/// sequence is the plan's post-order.
fn build(
    node: &PlanNode,
    facts: &[NodeFacts],
    env: &Env,
    sink: &SharedSink,
) -> Result<(BoxOp, usize)> {
    let mut child_ops = Vec::new();
    let mut child_ids = Vec::new();
    for c in node.children() {
        let (op, id) = build(c, facts, env, sink)?;
        child_ops.push(op);
        child_ids.push(id);
    }
    let id = sink.borrow().nodes.len();
    let own = &facts[id];
    let mut kids = child_ops.into_iter();
    let mut next = || kids.next().expect("child built");

    let op: BoxOp = match node {
        PlanNode::Scan { name, .. } => Box::new(ScanOp {
            table: env.get(name)?.columnar()?,
            pos: 0,
        }),
        PlanNode::Select { predicate, .. } => {
            let child = next();
            let schema = child.out_schema();
            let compiled = exprs::compile(predicate, &schema);
            Box::new(FilterOp {
                child,
                predicate: predicate.clone(),
                compiled,
                schema,
            })
        }
        PlanNode::Project { items, .. } => {
            let child = next();
            if items.is_empty() {
                return Err(Error::Plan {
                    reason: "projection needs at least one item".into(),
                });
            }
            let child_schema = child.out_schema();
            let out_schema = Arc::new(ops::project::project_schema(&child_schema, items)?);
            let col_refs: Option<Vec<usize>> = items
                .iter()
                .map(|item| match &item.expr {
                    Expr::Col(name) => child_schema.index_of(name),
                    _ => None,
                })
                .collect();
            let validate = out_schema.is_temporal() && !ops::project::periods_passthrough(items);
            Box::new(ProjectOp {
                child,
                items: items.clone(),
                out_schema,
                col_refs,
                validate,
            })
        }
        PlanNode::UnionAll { .. } => {
            let left = next();
            let right = next();
            left.out_schema()
                .check_union_compatible(&right.out_schema(), "union ALL")?;
            let schema = left.out_schema();
            Box::new(UnionAllOp {
                left,
                right,
                schema,
                on_right: false,
            })
        }
        PlanNode::Product { .. } => {
            let left = next();
            let right = next();
            let out = Arc::new(ops::product::product_schema(
                &left.out_schema(),
                &right.out_schema(),
            )?);
            let kind = match &own.keys {
                None => BlockKind::Product,
                Some(keys) => BlockKind::ProductHashEqui(keys.clone()),
            };
            blocking(vec![left, right], kind, out)
        }
        PlanNode::Difference { .. } => {
            let left = next();
            let right = next();
            let ls = left.out_schema();
            ls.check_union_compatible(&right.out_schema(), "difference")?;
            let key_idx = (0..ls.arity()).collect();
            let out_schema = demoted(&ls);
            Box::new(DifferenceOp {
                left,
                right,
                out_schema,
                key_idx,
                table: RowTable::default(),
                store: KeyStore::for_keys(&Schema::default(), &[]),
                reserved: None,
            })
        }
        PlanNode::Aggregate { group_by, aggs, .. } => {
            let child = next();
            let out = Arc::new(ops::aggregate::aggregate_schema(
                &child.out_schema(),
                group_by,
                aggs,
            )?);
            if group_by.is_empty() && aggs.is_empty() {
                return Err(Error::Plan {
                    reason: "aggregation needs groups or aggregates".into(),
                });
            }
            blocking(
                vec![child],
                BlockKind::Aggregate {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                },
                out,
            )
        }
        PlanNode::Rdup { .. } => {
            let child = next();
            let schema = child.out_schema();
            let key_idx = (0..schema.arity()).collect();
            let out_schema = demoted(&schema);
            Box::new(RdupOp {
                child,
                out_schema,
                key_idx,
                table: RowTable::default(),
                store: KeyStore::for_keys(&Schema::default(), &[]),
                reserved: None,
            })
        }
        PlanNode::UnionMax { .. } => {
            let left = next();
            let right = next();
            let ls = left.out_schema();
            ls.check_union_compatible(&right.out_schema(), "union")?;
            let out = demoted(&ls);
            blocking(vec![left, right], BlockKind::UnionMax, out)
        }
        PlanNode::Sort { order, .. } => {
            let child = next();
            let schema = child.out_schema();
            for key in order.keys() {
                schema.resolve(&key.attr)?;
            }
            blocking(vec![child], BlockKind::Sort(order.clone()), schema)
        }
        PlanNode::Limit { limit, offset, .. } => Box::new(LimitOp {
            child: next(),
            limit: *limit,
            offset: *offset,
            skipped: 0,
            emitted: 0,
        }),
        PlanNode::ProductT { .. } => {
            let left = next();
            let right = next();
            let out = Arc::new(ops::temporal::product_t::product_t_schema(
                &left.out_schema(),
                &right.out_schema(),
            )?);
            let kind = match &own.keys {
                None => BlockKind::ProductT,
                Some(keys) => BlockKind::ProductTHashEqui(keys.clone()),
            };
            blocking(vec![left, right], kind, out)
        }
        PlanNode::DifferenceT { .. } => {
            let left = next();
            let right = next();
            let ls = left.out_schema();
            require_temporal(&ls, "temporal difference")?;
            require_temporal(&right.out_schema(), "temporal difference")?;
            blocking(vec![left, right], BlockKind::DifferenceT, ls)
        }
        PlanNode::AggregateT { group_by, aggs, .. } => {
            let child = next();
            let out = Arc::new(ops::temporal::aggregate_t::aggregate_t_schema(
                &child.out_schema(),
                group_by,
                aggs,
            )?);
            blocking(
                vec![child],
                BlockKind::AggregateT {
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                },
                out,
            )
        }
        PlanNode::RdupT { .. } => {
            let child = next();
            let schema = child.out_schema();
            require_temporal(&schema, "temporal duplicate elimination")?;
            blocking(vec![child], BlockKind::RdupT, schema)
        }
        PlanNode::UnionT { .. } => {
            let left = next();
            let right = next();
            let ls = left.out_schema();
            require_temporal(&ls, "temporal union")?;
            require_temporal(&right.out_schema(), "temporal union")?;
            ls.check_union_compatible(&right.out_schema(), "temporal union")?;
            blocking(vec![left, right], BlockKind::UnionT, ls)
        }
        PlanNode::Coalesce { .. } => {
            let child = next();
            let schema = child.out_schema();
            require_temporal(&schema, "coalescing")?;
            blocking(vec![child], BlockKind::Coalesce, schema)
        }
        PlanNode::TransferS { .. } | PlanNode::TransferD { .. } => {
            Box::new(TransferOp { child: next() })
        }
    };
    sink.borrow_mut().nodes.push(NodeStats {
        label: label(node, own),
        est_rows: own.rows,
        children: child_ids,
        ..NodeStats::default()
    });
    Ok((metered(op, id, sink), id))
}

/// Execute a lowered plan through the batch pipeline. Every operator
/// reports the row estimate lowering gave its node.
pub fn execute_batch(plan: &PhysicalPlan, env: &Env) -> Result<(Relation, ExecMetrics)> {
    let _span = trace::span(Category::Exec, "batch.pipeline");
    let sink: SharedSink = Rc::new(RefCell::new(Sink::default()));
    let (mut root, _) = build(plan.root(), plan.facts(), env, &sink)?;
    root.open()?;
    let schema = root.out_schema();
    let mut batches = Vec::new();
    while let Some(b) = root.next_batch()? {
        if !b.is_empty() {
            batches.push(b);
        }
    }
    root.close();
    // Every result is born in columns and its tuples are built only if a
    // caller asks for them: the sink compacts the root's batches (a stream
    // that tiles one shared set of columns — a scan, a breaker's whole
    // output — is those columns, with nothing copied). A stage scanning
    // this output reads these columns, not a rebuild. The budget is
    // charged for a compaction the sink allocates, the last allocation it
    // can deny.
    let columnar = concat(schema, &batches);
    if !super::tiles_shared_columns(&batches) {
        context::reserve_current(columnar.approx_bytes())?;
    }
    let result = Relation::from_columnar(columnar);

    let sink = sink.borrow();
    let mut operators = Vec::with_capacity(sink.nodes.len());
    for node in &sink.nodes {
        let child_time: Duration = node.children.iter().map(|&c| sink.nodes[c].inclusive).sum();
        let rows_in: usize = node.children.iter().map(|&c| sink.nodes[c].rows_out).sum();
        operators.push(OperatorMetrics {
            label: node.label.clone(),
            rows_in,
            rows_out: node.rows_out,
            est_rows: node.est_rows,
            batches: node.batches,
            elapsed: node.inclusive.saturating_sub(child_time),
        });
    }
    Ok((result, ExecMetrics { operators }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{lower, PlannerConfig};
    use tqo_core::plan::{BaseProps, PlanBuilder};
    use tqo_core::value::DataType;
    use tqo_core::Value;

    fn env() -> Env {
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            (0..2500i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::from(format!("v{}", i % 40)),
                        Value::Time(i % 19),
                        Value::Time(i % 19 + 1 + (i % 3)),
                    ])
                })
                .collect(),
        )
        .unwrap();
        Env::new().with("R", r)
    }

    /// A plan over `R`, lowered.
    fn plan(build: impl FnOnce(PlanBuilder) -> PlanBuilder, e: &Env) -> PhysicalPlan {
        let base = BaseProps::measured(e.get("R").unwrap()).unwrap();
        let logical = build(PlanBuilder::scan("R", base)).build_multiset();
        lower(&logical, PlannerConfig::default()).unwrap()
    }

    #[test]
    fn scan_streams_in_batch_size_chunks() {
        let e = env();
        let (result, metrics) = execute_batch(&plan(|r| r, &e), &e).unwrap();
        assert_eq!(result.len(), 2500);
        assert_eq!(result, *e.get("R").unwrap());
        assert_eq!(metrics.operators.len(), 1);
        assert_eq!(metrics.operators[0].batches, 3); // 1024 + 1024 + 452
        assert_eq!(metrics.operators[0].rows_out, 2500);
    }

    #[test]
    fn mixed_dtype_predicate_agrees_with_the_interpreter() {
        // `T1 < E` compares Time against Str — total under Value::cmp, so
        // `ops::select` evaluates it; the batch engine must fall back to
        // row evaluation rather than hitting the native comparator.
        let e = env();
        let predicate = Expr::lt(Expr::col("T1"), Expr::col("E"));
        let p = plan(|r| r.select(predicate.clone()), &e);
        let (batch_result, _) = execute_batch(&p, &e).unwrap();
        let expected = ops::select(e.get("R").unwrap(), &predicate).unwrap();
        assert_eq!(batch_result, expected);
    }

    #[test]
    fn metrics_follow_the_plan_in_post_order() {
        let e = env();
        let predicate = Expr::eq(Expr::col("E"), Expr::lit("v7"));
        let p = plan(|r| r.select(predicate.clone()).rdup_t(), &e);
        let (batch_result, bm) = execute_batch(&p, &e).unwrap();
        let selected = ops::select(e.get("R").unwrap(), &predicate).unwrap();
        let expected = ops::rdup_t(&selected).unwrap();
        assert_eq!(batch_result, expected);
        let labels: Vec<_> = bm.operators.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["scan(R)", "select", "rdup-t"]);
        assert_eq!(
            bm.operators.iter().map(|o| o.rows_out).collect::<Vec<_>>(),
            [e.get("R").unwrap().len(), selected.len(), expected.len()],
        );
    }
}
