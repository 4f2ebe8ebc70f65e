//! The morsel-driven parallel execution engine
//! ([`crate::executor::ExecMode::Parallel`]).
//!
//! The third engine executes the same physical plans as the row walk and
//! the batch pipeline, with intra-operator parallelism on a small
//! in-process worker pool ([`morsel::WorkerPool`]):
//!
//! * base-table scans are zero-copy views of the environment's cached
//!   columnar transpose, split into fixed-size **morsels**
//!   ([`morsel::MORSEL_SIZE`] rows) that workers pull dynamically;
//! * streaming stages (select, computed projections) run per morsel and
//!   reassemble in morsel order;
//! * the hash operators (`rdup`, grouped aggregation, `\`) build
//!   **partitioned** linear-probe tables — the key space is split by
//!   hash, one private partition per worker — and a cheap merge step
//!   restores global first-occurrence order
//!   ([`classindex::ParClassIndex`]);
//! * sort is partition-then-merge ([`kernels::sort_indices_parallel`]),
//!   and its permutation also feeds the sort-based temporal kernels;
//! * the plane-sweep `×ᵀ` is partitioned along the sorted event sequence
//!   ([`sweep`]), the per-class temporal kernels (`rdupᵀ`, `coalᵀ`,
//!   timeline `\ᵀ`) over class chunks ([`kernels`]);
//! * faithful `rdupᵀ` and the hash equi-join products are sequential in
//!   list order and run the batch engine's kernels as they are;
//! * operators without a columnar kernel (fixpoint `coalᵀ`, subtract-union
//!   `\ᵀ`, `ξᵀ`, `∪ᵀ`, `∪`) run the shared row implementations behind the
//!   same materialize boundary the batch engine uses, so every physical
//!   plan executes under all three engines.
//!
//! **The engine-equality invariant:** for any one physical plan,
//! row ≡ batch ≡ parallel — equal (`==`) relations — at *any* thread
//! count. Every operator here ends at an exchange/merge boundary that
//! reassembles results in a canonical order (morsel order, global
//! first-occurrence class order, event order), so parallelism is never
//! observable in the output. `tests/parallel_agrees.rs` holds the engine
//! to this across the full fixture pools at 1, 2, 4, and 8 threads.

pub mod assemble;
pub mod classindex;
pub mod kernels;
pub mod morsel;
pub mod sched;
pub mod stage;
pub mod sweep;

pub use sched::{QueryHandle, Scheduler, SchedulerConfig, SubmitOptions};
pub use stage::{Stage, StageGraph};

use std::sync::Arc;
use std::time::Instant;

use tqo_core::columnar::{Column, ColumnarRelation};
use tqo_core::context;
use tqo_core::error::{Error, Result};
use tqo_core::expr::Expr;
use tqo_core::interp::Env;
use tqo_core::ops;
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::trace::{self, Category};
use tqo_core::tuple::Tuple;

use crate::batch::pipeline::{demoted, require_temporal};
use crate::batch::{exprs, Batch};
use crate::metrics::{ExecMetrics, OperatorMetrics};
use crate::physical::{
    CoalesceAlgo, DifferenceTAlgo, PhysicalNode, PhysicalPlan, ProductAlgo, ProductTAlgo, RdupTAlgo,
};

use morsel::{for_each_chunk_mut, morsels_of, try_map_morsels};
pub(crate) use morsel::{WorkerPool, MORSEL_SIZE};

/// Execute a physical plan with the morsel-parallel engine on `threads`
/// workers (clamped to at least one). Produces a relation equal (`==`) to
/// the row and batch engines' output for the same plan.
pub(crate) fn execute_parallel(
    plan: &PhysicalPlan,
    env: &Env,
    threads: usize,
) -> Result<(Relation, ExecMetrics)> {
    let pool = WorkerPool::new(threads);
    let mut metrics = ExecMetrics::default();
    let (out, _reserved) = run_node(&plan.root, env, &pool, &mut metrics)?;
    Ok((out.to_relation(), metrics))
}

/// Post-order evaluation: children fully materialize before the parent's
/// timer starts, so each operator's `elapsed` is exclusive wall-clock by
/// construction and the per-thread busy times drained from the pool
/// belong to this operator alone.
fn run_node(
    node: &PhysicalNode,
    env: &Env,
    pool: &WorkerPool,
    metrics: &mut ExecMetrics,
) -> Result<(ColumnarRelation, Option<context::Reservation>)> {
    // Per-operator governance checkpoint (cancellation/deadline); the
    // morsel layer additionally polls per dispatched morsel.
    context::check_current()?;
    // Child outputs and their budget reservations stay live until this
    // node's own output has been materialized and charged.
    let mut children = Vec::with_capacity(node.children().len());
    for c in node.children() {
        children.push(run_node(c, env, pool, metrics)?);
    }
    let inputs: Vec<ColumnarRelation> = children.iter().map(|(r, _res)| r.clone()).collect();
    let rows_in = inputs.iter().map(ColumnarRelation::rows).sum();

    let mut span = trace::span_with(Category::Exec, || node.label());
    let started = Instant::now();
    pool.take_times(); // drop any residue, this operator starts clean
    let precharged =
        crate::executor::precharge_product(node, |i| (inputs[i].approx_bytes(), inputs[i].rows()))?;
    let (out, batches) = apply(node, env, &inputs, pool)?;
    // Charge the materialized output; scans share the cached transpose.
    let reserved = match node {
        PhysicalNode::Scan { .. } => None,
        _ => crate::executor::settle(precharged, out.approx_bytes())?,
    };
    let elapsed = started.elapsed();
    span.note_with(|| {
        format!(
            "\"rows_in\": {rows_in}, \"rows_out\": {}, \"morsels\": {batches}",
            out.rows()
        )
    });
    drop(span);
    metrics.operators.push(OperatorMetrics {
        label: node.label(),
        rows_in,
        rows_out: out.rows(),
        est_rows: None,
        batches,
        elapsed,
        thread_times: pool.take_times(),
    });
    Ok((out, reserved))
}

/// Materialize one logical row of a batch as a row-layout tuple (slow
/// paths only: predicate/projection fallbacks).
fn row_tuple(batch: &Batch, phys: usize) -> Tuple {
    Tuple::new(batch.columns().iter().map(|c| c.value(phys)).collect())
}

/// Run one operator over materialized inputs; returns the output and the
/// number of morsels processed (1 for serial paths).
fn apply(
    node: &PhysicalNode,
    env: &Env,
    inputs: &[ColumnarRelation],
    pool: &WorkerPool,
) -> Result<(ColumnarRelation, usize)> {
    Ok(match node {
        PhysicalNode::Scan { name } => {
            let table = env.get(name)?.columnar()?;
            let batches = morsels_of(table.rows()).len().max(1);
            ((*table).clone(), batches)
        }
        PhysicalNode::Select { predicate, .. } => {
            let input = &inputs[0];
            let schema = input.schema().clone();
            let compiled = exprs::compile(predicate, &schema);
            let morsels = morsels_of(input.rows()).len();
            let kept_parts = try_map_morsels(pool, input.rows(), |_, rows| {
                let batch = Batch::slice(input, rows.start, rows.end);
                match &compiled {
                    Some(pred) => Ok(exprs::filter(pred, &batch)),
                    None => {
                        let mut kept = Vec::new();
                        for i in batch.rows() {
                            let t = row_tuple(&batch, i);
                            if predicate.eval_predicate(&schema, &t)? {
                                kept.push(i as u32);
                            }
                        }
                        Ok(kept)
                    }
                }
            })?;
            let kept: Vec<u32> = kept_parts.concat();
            (
                assemble::gather_relation(input, schema, &kept, pool),
                morsels.max(1),
            )
        }
        PhysicalNode::Project { items, .. } => {
            let input = &inputs[0];
            if items.is_empty() {
                return Err(Error::Plan {
                    reason: "projection needs at least one item".into(),
                });
            }
            let child_schema = input.schema().clone();
            let out_schema = Arc::new(ops::project::project_schema(&child_schema, items)?);
            let col_refs: Option<Vec<usize>> = items
                .iter()
                .map(|item| match &item.expr {
                    Expr::Col(name) => child_schema.index_of(name),
                    _ => None,
                })
                .collect();
            let validate = out_schema.is_temporal() && !ops::project::periods_passthrough(items);
            match col_refs {
                Some(indices) if !validate => {
                    // Pure column references: reuse the input's column
                    // `Arc`s under the new schema, zero row copies.
                    let columns = indices.iter().map(|&i| input.column(i).clone()).collect();
                    (ColumnarRelation::new(out_schema, columns), 1)
                }
                maybe_refs => {
                    let morsels = morsels_of(input.rows()).len();
                    let parts = try_map_morsels(pool, input.rows(), |_, rows| {
                        let batch = Batch::slice(input, rows.start, rows.end);
                        let out = match &maybe_refs {
                            Some(indices) => batch.project_columns(out_schema.clone(), indices),
                            None => {
                                // Computed items: densify tuple-major, as
                                // the serial engines do, so fallible items
                                // surface the same first error.
                                let mut columns: Vec<Column> = items
                                    .iter()
                                    .enumerate()
                                    .map(|(k, _)| {
                                        Column::with_capacity(
                                            out_schema.attr(k).dtype,
                                            batch.num_rows(),
                                        )
                                    })
                                    .collect();
                                for i in batch.rows() {
                                    let t = row_tuple(&batch, i);
                                    for (k, item) in items.iter().enumerate() {
                                        columns[k].push(&item.expr.eval(&child_schema, &t)?)?;
                                    }
                                }
                                Batch::from_columns(
                                    out_schema.clone(),
                                    columns.into_iter().map(Arc::new).collect(),
                                )
                            }
                        };
                        if validate {
                            validate_periods(&out, &out_schema)?;
                        }
                        Ok(out)
                    })?;
                    (crate::batch::concat(out_schema, &parts), morsels.max(1))
                }
            }
        }
        PhysicalNode::UnionAll { .. } => {
            let (left, right) = (&inputs[0], &inputs[1]);
            left.schema()
                .check_union_compatible(right.schema(), "union ALL")?;
            let schema = left.schema().clone();
            let total = left.rows() + right.rows();
            let columns = assemble::column_tasks(pool, schema.arity(), total, |c| {
                let mut out = Column::with_capacity(schema.attr(c).dtype, total);
                out.extend_range(left.column(c), 0, left.rows());
                out.extend_range(right.column(c), 0, right.rows());
                Arc::new(out)
            });
            (ColumnarRelation::new(schema, columns), 1)
        }
        PhysicalNode::Product {
            algo: ProductAlgo::HashEqui(keys),
            ..
        } => {
            let (left, right) = (&inputs[0], &inputs[1]);
            let out_schema = Arc::new(ops::product::product_schema(left.schema(), right.schema())?);
            (
                crate::batch::kernels::product_hash_equi(left, right, keys, out_schema)?,
                1,
            )
        }
        PhysicalNode::Product { .. } => {
            let (left, right) = (&inputs[0], &inputs[1]);
            let out_schema = Arc::new(ops::product::product_schema(left.schema(), right.schema())?);
            let (n, m) = (left.rows(), right.rows());
            let total = n * m;
            let mut lidx = vec![0u32; total];
            let mut ridx = vec![0u32; total];
            if m > 0 {
                for_each_chunk_mut(pool, &mut lidx, |start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = ((start + k) / m) as u32;
                    }
                });
                for_each_chunk_mut(pool, &mut ridx, |start, chunk| {
                    for (k, v) in chunk.iter_mut().enumerate() {
                        *v = ((start + k) % m) as u32;
                    }
                });
            }
            let mut columns = assemble::gather_parallel(left.columns(), &lidx, pool);
            columns.extend(assemble::gather_parallel(right.columns(), &ridx, pool));
            (ColumnarRelation::new(out_schema, columns), 1)
        }
        PhysicalNode::Difference { .. } => {
            let (left, right) = (&inputs[0], &inputs[1]);
            left.schema()
                .check_union_compatible(right.schema(), "difference")?;
            let out_schema = demoted(left.schema());
            (
                kernels::difference_parallel(left, right, out_schema, pool),
                1,
            )
        }
        PhysicalNode::Aggregate { group_by, aggs, .. } => {
            let input = &inputs[0];
            if group_by.is_empty() && aggs.is_empty() {
                return Err(Error::Plan {
                    reason: "aggregation needs groups or aggregates".into(),
                });
            }
            let out_schema = Arc::new(ops::aggregate::aggregate_schema(
                input.schema(),
                group_by,
                aggs,
            )?);
            (
                kernels::aggregate_parallel(input, group_by, aggs, out_schema, pool)?,
                1,
            )
        }
        PhysicalNode::Rdup { .. } => {
            let input = &inputs[0];
            let out_schema = demoted(input.schema());
            (kernels::rdup_parallel(input, out_schema, pool), 1)
        }
        PhysicalNode::UnionMax { .. } => {
            inputs[0]
                .schema()
                .check_union_compatible(inputs[1].schema(), "union")?;
            (row_op(node, inputs)?, 1)
        }
        PhysicalNode::Sort { order, .. } => {
            let input = &inputs[0];
            let perm = kernels::sort_indices_parallel(input, order, pool)?;
            (
                assemble::gather_relation(input, input.schema().clone(), &perm, pool),
                1,
            )
        }
        PhysicalNode::Limit { limit, offset, .. } => {
            // The input is fully materialized (and deterministically
            // ordered) at this point: truncation is an index gather.
            let input = &inputs[0];
            let start = (*offset).min(input.rows());
            let end = match limit {
                Some(n) => start.saturating_add(*n).min(input.rows()),
                None => input.rows(),
            };
            let sel: Vec<u32> = (start..end).map(|i| i as u32).collect();
            (
                assemble::gather_relation(input, input.schema().clone(), &sel, pool),
                1,
            )
        }
        PhysicalNode::ProductT { algo, .. } => {
            let (left, right) = (&inputs[0], &inputs[1]);
            let out_schema = Arc::new(ops::temporal::product_t::product_t_schema(
                left.schema(),
                right.schema(),
            )?);
            let out = match algo {
                ProductTAlgo::NestedLoop => {
                    sweep::product_t_nested_parallel(left, right, out_schema, pool)?
                }
                ProductTAlgo::PlaneSweep => {
                    sweep::product_t_sweep_parallel(left, right, out_schema, pool)?
                }
                ProductTAlgo::HashEqui(keys) => {
                    crate::batch::kernels::product_t_hash_equi(left, right, keys, out_schema)?
                }
            };
            (out, 1)
        }
        PhysicalNode::DifferenceT { algo, .. } => {
            let (left, right) = (&inputs[0], &inputs[1]);
            require_temporal(left.schema(), "temporal difference")?;
            require_temporal(right.schema(), "temporal difference")?;
            match algo {
                DifferenceTAlgo::TimelineSweep => (
                    kernels::difference_t_parallel(left, right, left.schema().clone(), pool)?,
                    1,
                ),
                DifferenceTAlgo::SubtractUnion => (row_op(node, inputs)?, 1),
            }
        }
        PhysicalNode::AggregateT { .. } => (row_op(node, inputs)?, 1),
        PhysicalNode::RdupT { algo, .. } => {
            let input = &inputs[0];
            require_temporal(input.schema(), "temporal duplicate elimination")?;
            match algo {
                RdupTAlgo::Sweep => (kernels::rdup_t_sweep_parallel(input, pool)?, 1),
                RdupTAlgo::Faithful => (crate::batch::kernels::rdup_t_faithful(input)?, 1),
            }
        }
        PhysicalNode::UnionT { .. } => {
            let (ls, rs) = (inputs[0].schema(), inputs[1].schema());
            require_temporal(ls, "temporal union")?;
            require_temporal(rs, "temporal union")?;
            ls.check_union_compatible(rs, "temporal union")?;
            (row_op(node, inputs)?, 1)
        }
        PhysicalNode::Coalesce { algo, .. } => {
            let input = &inputs[0];
            require_temporal(input.schema(), "coalescing")?;
            match algo {
                CoalesceAlgo::SortMerge => (kernels::coalesce_parallel(input, pool)?, 1),
                CoalesceAlgo::Fixpoint => (row_op(node, inputs)?, 1),
            }
        }
        PhysicalNode::TransferS { .. } | PhysicalNode::TransferD { .. } => (inputs[0].clone(), 1),
    })
}

/// Re-validate periods of a computed temporal projection (same check as
/// the batch pipeline's `ProjectOp`).
fn validate_periods(batch: &Batch, out_schema: &Schema) -> Result<()> {
    let (Some(i1), Some(i2)) = (out_schema.t1_index(), out_schema.t2_index()) else {
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

/// Materialize to row layout and run the shared row implementation — the
/// same compatibility path the batch pipeline uses for the inherently
/// row-oriented faithful algorithms, so all three engines agree by
/// construction.
fn row_op(node: &PhysicalNode, inputs: &[ColumnarRelation]) -> Result<ColumnarRelation> {
    let rels: Vec<Relation> = inputs.iter().map(ColumnarRelation::to_relation).collect();
    let result = crate::executor::apply_row_op(node, &rels)?;
    ColumnarRelation::from_relation(&result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::value::DataType;
    use tqo_core::Value;

    fn env() -> Env {
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            (0..9000i64)
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

    fn scan(name: &str) -> Arc<PhysicalNode> {
        Arc::new(PhysicalNode::Scan { name: name.into() })
    }

    #[test]
    fn matches_batch_engine_on_a_pipeline_at_every_width() {
        let e = env();
        let plan = PhysicalPlan::new(PhysicalNode::RdupT {
            input: Arc::new(PhysicalNode::Select {
                input: scan("R"),
                predicate: Expr::eq(Expr::col("E"), Expr::lit("v7")),
            }),
            algo: RdupTAlgo::Sweep,
        });
        let (batch, bm) = crate::batch::pipeline::execute_batch(&plan, &e).unwrap();
        for threads in [1, 2, 4, 8] {
            let (par, pm) = execute_parallel(&plan, &e, threads).unwrap();
            assert_eq!(par, batch, "threads={threads}");
            // Same post-order operator sequence as the serial engines.
            let pl: Vec<_> = pm.operators.iter().map(|o| o.label.clone()).collect();
            let bl: Vec<_> = bm.operators.iter().map(|o| o.label.clone()).collect();
            assert_eq!(pl, bl);
            assert_eq!(
                pm.operators.iter().map(|o| o.rows_out).collect::<Vec<_>>(),
                bm.operators.iter().map(|o| o.rows_out).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn thread_times_are_recorded_per_operator() {
        let e = env();
        let plan = PhysicalPlan::new(PhysicalNode::Sort {
            input: scan("R"),
            order: tqo_core::sortspec::Order::asc(&["E"]),
        });
        let (_, m) = execute_parallel(&plan, &e, 2).unwrap();
        let sort = m.operators.last().unwrap();
        assert_eq!(sort.label, "sort[stable]");
        assert!(!sort.thread_times.is_empty());
        assert!(sort.cpu_time() >= sort.thread_times[0]);
    }

    #[test]
    fn row_fallbacks_and_transfers_run_under_the_parallel_engine() {
        let e = env();
        let plan = PhysicalPlan::new(PhysicalNode::TransferS {
            input: Arc::new(PhysicalNode::Coalesce {
                input: Arc::new(PhysicalNode::RdupT {
                    input: scan("R"),
                    algo: RdupTAlgo::Faithful,
                }),
                algo: CoalesceAlgo::Fixpoint,
            }),
        });
        let (row, _) = crate::executor::execute_row(&plan, &e).unwrap();
        let (par, _) = execute_parallel(&plan, &e, 4).unwrap();
        assert_eq!(par, row);
    }
}
