//! The streaming operator pipeline: `open` / `next_batch` / `close`.
//!
//! `build` translates a lowered plan ([`PhysicalPlan`]) into a tree of
//! `BatchOperator`s. It types nothing: lowering is the only place a plan
//! is typed and checked, and every output and input schema the engine
//! uses is the node's [`NodeFacts`] schema. The one thing lowering cannot
//! know — what a scanned name is bound to at run time — is checked at the
//! scan. Streaming operators (scan, select, project, union-all, keyed
//! `rdup`, keyed `difference`, transfers) forward ~1024-row batches as they
//! arrive; a pipeline breaker (`is_breaker`, the same set the stage
//! cutter cuts at) materializes its inputs and runs its own plan node's
//! columnar kernel.
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
use tqo_core::expr::{Expr, ProjItem};
use tqo_core::exprs::{self, Pred};
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

use super::hash::StreamKeys;
use super::kernels;
use super::{concat, Batch, BATCH_SIZE};

/// A pull-based operator producing column-major batches.
pub(crate) trait BatchOperator {
    /// Prepare: open children, build blocking state.
    fn open(&mut self) -> Result<()>;
    /// The next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
    /// Release resources (best effort; infallible).
    fn close(&mut self);
}

type BoxOp = Box<dyn BatchOperator>;

/// Pipeline breakers: operators that fully materialize their output
/// before anything downstream can consume a row. The pipeline runs them
/// as [`BlockingOp`]s, and [`crate::parallel::StageGraph`] cuts plans at
/// them — the only places a plan can be cut for free.
pub(crate) fn is_breaker(node: &PlanNode) -> bool {
    matches!(
        node,
        PlanNode::Sort { .. }
            | PlanNode::Aggregate { .. }
            | PlanNode::AggregateT { .. }
            | PlanNode::Product { .. }
            | PlanNode::ProductT { .. }
            | PlanNode::DifferenceT { .. }
            | PlanNode::RdupT { .. }
            | PlanNode::UnionMax { .. }
            | PlanNode::UnionT { .. }
            | PlanNode::Coalesce { .. }
    )
}

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
    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let kept = match &self.compiled {
                Some(pred) => exprs::filter(pred, batch.columns(), batch.sel()),
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
    child_schema: Arc<Schema>,
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
                let mut columns: Vec<tqo_core::columnar::Column> = self
                    .out_schema
                    .attrs()
                    .iter()
                    .map(|a| tqo_core::columnar::Column::with_capacity(a.dtype, batch.num_rows()))
                    .collect();
                for i in batch.rows() {
                    let t = row_tuple(&batch, i);
                    for (k, item) in self.items.iter().enumerate() {
                        columns[k].push(&item.expr.eval(&self.child_schema, &t)?)?;
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

/// Streaming `rdup`: a first-occurrence filter over the stream's keys
/// ([`StreamKeys`]: dictionary codes for string rows, row hashes
/// otherwise). Kept rows are emitted as selection views of the input
/// batch.
struct RdupOp {
    child: BoxOp,
    out_schema: Arc<Schema>,
    keys: StreamKeys,
    /// Budget reservation tracking the key state, resized per batch.
    reserved: Option<context::Reservation>,
}

/// Resize `reserved` to `bytes`, reserving on first use.
fn charge(reserved: &mut Option<context::Reservation>, bytes: usize) -> Result<()> {
    match reserved {
        Some(r) => r.grow_to(bytes),
        None => {
            *reserved = context::reserve_current(bytes)?;
            Ok(())
        }
    }
}

impl BatchOperator for RdupOp {
    fn open(&mut self) -> Result<()> {
        self.child.open()
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.child.next_batch()? else {
                return Ok(None);
            };
            let mut kept = Vec::new();
            self.keys.insert(&batch, &mut kept);
            charge(&mut self.reserved, self.keys.approx_bytes())?;
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

/// Streaming multiset difference: the right side's keys and their counts
/// are built at `open`; left batches stream through, consuming counts,
/// and survivors are emitted as selection views (earliest occurrences are
/// the ones removed, as in `ops::difference`).
struct DifferenceOp {
    left: BoxOp,
    right: BoxOp,
    out_schema: Arc<Schema>,
    keys: StreamKeys,
    /// Right rows left to remove, per key.
    counts: Vec<u32>,
    /// Budget reservation tracking the build-side key state.
    reserved: Option<context::Reservation>,
}

impl BatchOperator for DifferenceOp {
    fn open(&mut self) -> Result<()> {
        self.left.open()?;
        self.right.open()?;
        while let Some(batch) = self.right.next_batch()? {
            let ids = self.keys.insert(&batch, &mut Vec::new());
            self.counts.resize(self.keys.len(), 0);
            for id in ids {
                self.counts[id as usize] += 1;
            }
            // Re-charge the build state after each batch so the budget
            // tracks its growth at batch granularity.
            charge(
                &mut self.reserved,
                self.keys.approx_bytes() + self.counts.len() * 4,
            )?;
        }
        Ok(())
    }

    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.left.next_batch()? else {
                return Ok(None);
            };
            let ids = self.keys.find(&batch);
            let mut kept = Vec::with_capacity(batch.num_rows());
            for (id, i) in ids.into_iter().zip(batch.rows()) {
                match self.counts.get_mut(id as usize) {
                    Some(n) if *n > 0 => *n -= 1,
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

/// A pipeline breaker: drains its children, then runs its plan node's
/// kernel once over the materialized inputs.
struct BlockingOp {
    node: Arc<PlanNode>,
    /// The hash-join keys lowering chose for a `×` / `×ᵀ`.
    keys: Option<EquiKeys>,
    children: Vec<BoxOp>,
    in_schemas: Vec<Arc<Schema>>,
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
    /// sort directly — prefixes are built for the selected rows only, the
    /// selected ids are sorted, and the result is emitted as selection
    /// views over those same columns. No compacted intermediate is ever
    /// built, so the budget is charged for what is actually allocated:
    /// the prefixes and pairs of the kept rows, and the permutation.
    fn compute_sort(&mut self, order: &Order) -> Result<()> {
        let schema = self.in_schemas[0].clone();
        let batches = drain_batches(&mut self.children[0])?;
        if let Some((columns, sel)) = super::shared_selection(&batches) {
            if sel.as_deref().is_none_or(is_ascending) {
                let input = ColumnarRelation::new(schema, columns);
                let kept = sel.as_ref().map_or(input.rows(), Vec::len);
                // Charge the sort's working state (a prefix and a
                // (prefix, position) pair per kept row) for the kernel's
                // duration, then the permutation until close.
                let _work_reserved = context::reserve_current(kept * (8 + 16))?;
                let idx = kernels::SortKeys::new(&input, order, sel.as_deref())?.sort();
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
        let node = Arc::clone(&self.node);
        if let PlanNode::Sort { order, .. } = &*node {
            return self.compute_sort(order);
        }
        let mut inputs = Vec::with_capacity(self.children.len());
        for (c, schema) in self.children.iter_mut().zip(&self.in_schemas) {
            inputs.push(concat(schema.clone(), &drain_batches(c)?));
        }
        // Charge the materialized inputs for the duration of the kernel;
        // released when `inputs` goes out of scope.
        let _inputs_reserved =
            context::reserve_current(inputs.iter().map(ColumnarRelation::approx_bytes).sum())?;
        let schema = self.out_schema.clone();
        let out = match (&*node, &self.keys, inputs.as_slice()) {
            (PlanNode::Aggregate { group_by, aggs, .. }, _, [input]) => {
                kernels::aggregate(input, group_by, aggs, schema)?
            }
            (PlanNode::AggregateT { group_by, aggs, .. }, _, [input]) => {
                kernels::aggregate_t(input, group_by, aggs, schema)?
            }
            (PlanNode::Product { .. }, None, [left, right]) => {
                // The one breaker whose output size is known before it
                // runs: the budget gets its say before the allocation.
                self.reserved = context::reserve_current(kernels::product_bytes(
                    left.approx_bytes(),
                    left.rows(),
                    right.approx_bytes(),
                    right.rows(),
                ))?;
                kernels::product(left, right, schema)?
            }
            (PlanNode::Product { .. }, Some(keys), [left, right]) => {
                kernels::product_hash_equi(left, right, keys, schema)?
            }
            (PlanNode::ProductT { .. }, None, [left, right]) => {
                kernels::product_t_sweep(left, right, schema)?
            }
            (PlanNode::ProductT { .. }, Some(keys), [left, right]) => {
                kernels::product_t_hash_equi(left, right, keys, schema)?
            }
            (PlanNode::DifferenceT { .. }, _, [left, right]) => {
                kernels::difference_t(left, right, schema)?
            }
            (PlanNode::RdupT { .. }, _, [input]) => kernels::rdup_t(input)?,
            (PlanNode::Coalesce { .. }, _, [input]) => kernels::coalesce(input)?,
            (PlanNode::UnionMax { .. }, _, [left, right]) => {
                kernels::union_max(left, right, schema)?
            }
            (PlanNode::UnionT { .. }, _, [left, right]) => kernels::union_t(left, right, schema)?,
            (node, ..) => unreachable!("`{}` is not a breaker", node.op_name()),
        };
        // Charge the materialized output until close releases it: `×`
        // charged its own up front and is resized to what it built, every
        // other breaker is charged now.
        let bytes = out.approx_bytes();
        self.out = Some(out);
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

/// Build the operator tree for a plan node. Returns the (metered)
/// operator and its node id; ids are assigned post-order, so a node's id
/// indexes the plan's post-order `facts` and the metrics sequence is the
/// plan's post-order. Every schema comes from the facts.
fn build(
    node: &Arc<PlanNode>,
    facts: &[NodeFacts],
    env: &Env,
    sink: &SharedSink,
) -> Result<(BoxOp, usize)> {
    let mut children = Vec::new();
    let mut child_ids = Vec::new();
    for c in node.children() {
        let (op, id) = build(c, facts, env, sink)?;
        children.push(op);
        child_ids.push(id);
    }
    let id = sink.borrow().nodes.len();
    let own = &facts[id];
    let in_schemas: Vec<Arc<Schema>> = child_ids.iter().map(|&c| facts[c].schema.clone()).collect();
    let all_columns = || (0..own.schema.arity()).collect();
    let mut kids = children.into_iter();
    let mut next = || kids.next().expect("child built");

    let op: BoxOp = match &**node {
        _ if is_breaker(node) => Box::new(BlockingOp {
            node: Arc::clone(node),
            keys: own.keys.clone(),
            children: kids.collect(),
            in_schemas,
            out_schema: own.schema.clone(),
            out: None,
            perm: None,
            pos: 0,
            reserved: None,
        }),
        PlanNode::Scan { name, .. } => {
            // Lowering typed the plan against the scan's declared schema;
            // the name may be bound to something else at run time.
            let table = env.get(name)?.columnar()?;
            if !table.schema().union_compatible(&own.schema) {
                return Err(Error::Plan {
                    reason: format!(
                        "scan of `{name}` declares ({}) but the bound relation has ({})",
                        own.schema,
                        table.schema()
                    ),
                });
            }
            Box::new(ScanOp { table, pos: 0 })
        }
        PlanNode::Select { predicate, .. } => Box::new(FilterOp {
            child: next(),
            predicate: predicate.clone(),
            compiled: exprs::compile(predicate, &in_schemas[0]),
            schema: in_schemas[0].clone(),
        }),
        PlanNode::Project { items, .. } => {
            let child_schema = in_schemas[0].clone();
            let col_refs = items
                .iter()
                .map(|item| match &item.expr {
                    Expr::Col(name) => child_schema.index_of(name),
                    _ => None,
                })
                .collect();
            Box::new(ProjectOp {
                child: next(),
                items: items.clone(),
                child_schema,
                out_schema: own.schema.clone(),
                col_refs,
                validate: own.schema.is_temporal() && !ops::project::periods_passthrough(items),
            })
        }
        PlanNode::UnionAll { .. } => Box::new(UnionAllOp {
            left: next(),
            right: next(),
            schema: own.schema.clone(),
            on_right: false,
        }),
        PlanNode::Difference { .. } => Box::new(DifferenceOp {
            left: next(),
            right: next(),
            out_schema: own.schema.clone(),
            keys: StreamKeys::new(&in_schemas[1], all_columns()),
            counts: Vec::new(),
            reserved: None,
        }),
        PlanNode::Rdup { .. } => Box::new(RdupOp {
            child: next(),
            out_schema: own.schema.clone(),
            keys: StreamKeys::new(&in_schemas[0], all_columns()),
            reserved: None,
        }),
        PlanNode::Limit { limit, offset, .. } => Box::new(LimitOp {
            child: next(),
            limit: *limit,
            offset: *offset,
            skipped: 0,
            emitted: 0,
        }),
        PlanNode::TransferS { .. } | PlanNode::TransferD { .. } => {
            Box::new(TransferOp { child: next() })
        }
        _ => unreachable!("every breaker is built by the arm above"),
    };
    sink.borrow_mut().nodes.push(NodeStats {
        label: label(node, own),
        est_rows: own.rows,
        children: child_ids,
        ..NodeStats::default()
    });
    Ok((
        Box::new(Metered {
            inner: op,
            id,
            sink: sink.clone(),
        }),
        id,
    ))
}

/// Execute a lowered plan through the batch pipeline. Every operator
/// reports the row estimate lowering gave its node.
pub fn execute_batch(plan: &PhysicalPlan, env: &Env) -> Result<(Relation, ExecMetrics)> {
    let _span = trace::span(Category::Exec, "batch.pipeline");
    let sink: SharedSink = Rc::new(RefCell::new(Sink::default()));
    let (mut root, root_id) = build(plan.root(), plan.facts(), env, &sink)?;
    root.open()?;
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
    let columnar = concat(plan.facts()[root_id].schema.clone(), &batches);
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
    fn a_scan_whose_declared_schema_is_not_its_bindings_fails_typed() {
        // `R` is bound to a temporal relation; the plan declares a
        // snapshot one, so every fact above the scan would be wrong.
        let e = env();
        let declared = Schema::of(&[("E", DataType::Str)]);
        let logical = PlanBuilder::scan("R", BaseProps::unordered(declared, 2500))
            .rdup()
            .build_multiset();
        let p = lower(&logical, PlannerConfig::default()).unwrap();
        let direct = crate::executor::execute_mode(&p, &e, crate::ExecMode::Batch);
        assert!(matches!(direct, Err(Error::Plan { .. })), "{direct:?}");
        let sched = crate::Scheduler::new(crate::SchedulerConfig {
            workers: 1,
            max_queries: 2,
        });
        let staged = sched.run(&p, &e, crate::SubmitOptions::default());
        assert!(matches!(staged, Err(Error::Plan { .. })), "{staged:?}");
        sched.shutdown();
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
