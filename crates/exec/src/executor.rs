//! Physical plan execution with per-operator metrics.
//!
//! Two engines execute the same physical plans:
//!
//! * [`ExecMode::Batch`] (the default) — the vectorized pipeline of
//!   [`crate::batch`]: columnar batches stream through the operator tree,
//!   base tables are read through the transpose resident in each
//!   relation's storage, and only pipeline breakers materialize.
//! * [`ExecMode::Row`] — the original materialize-everything tree walk,
//!   retained as the semantic baseline; `tests/engines_agree.rs` holds
//!   both engines (and the interpreter) to identical results.
//!
//! Parallelism is across queries, not inside one: the
//! [`Scheduler`](crate::parallel::Scheduler) runs the stages of many
//! queries on one worker pool, each stage on one of these engines.

use std::time::Instant;

use tqo_core::context;
use tqo_core::error::Result;
use tqo_core::interp::Env;
use tqo_core::ops;
use tqo_core::plan::LogicalPlan;
use tqo_core::relation::Relation;
use tqo_core::trace::{self, Category};

use crate::metrics::{ExecMetrics, OperatorMetrics};
use crate::operators;
use crate::physical::{PhysicalNode, PhysicalPlan, ProductAlgo, ProductTAlgo};
use crate::planner::{lower, PlannerConfig};

/// Which engine executes a physical plan.
///
/// Both engines produce equal (`==`) relations for the same physical plan;
/// they differ only in data layout.
///
/// ```
/// use tqo_exec::ExecMode;
///
/// // The default engine is the vectorized batch pipeline…
/// assert_eq!(ExecMode::default(), ExecMode::Batch);
/// // …and `Parallel` is an alias for it: the thread count is accepted
/// // and ignored, and the plan is priced and run as a batch plan.
/// let mode = ExecMode::Parallel { threads: 4 };
/// assert_eq!(mode.engine(), ExecMode::Batch.engine());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Row-at-a-time tree walk, materializing every intermediate result.
    Row,
    /// Vectorized columnar pipeline (~1024-row batches).
    #[default]
    Batch,
    /// An alias that runs [`ExecMode::Batch`]. It remains only because
    /// wire tag 2 decodes to it and the benchmark's `exec.parallel` probe
    /// constructs it.
    Parallel {
        /// Ignored.
        threads: usize,
    },
}

impl ExecMode {
    /// The cost-model calibration target for this engine, consumed by
    /// [`tqo_core::cost::CostModel::calibrated`] so the optimizer prices
    /// plans for the engine that will actually run them.
    pub fn engine(&self) -> tqo_core::cost::Engine {
        match self {
            ExecMode::Row => tqo_core::cost::Engine::Row,
            ExecMode::Batch | ExecMode::Parallel { .. } => tqo_core::cost::Engine::Batch,
        }
    }
}

/// Execute a physical plan with an explicit engine choice.
pub fn execute_mode(
    plan: &PhysicalPlan,
    env: &Env,
    mode: ExecMode,
) -> Result<(Relation, ExecMetrics)> {
    let mut span = trace::span(Category::Exec, "execute");
    span.note_with(|| {
        format!(
            "\"engine\": \"{mode:?}\", \"operators\": {}",
            plan.root.size()
        )
    });
    let (result, mut metrics) = match mode {
        ExecMode::Row => execute_row(plan, env),
        ExecMode::Batch | ExecMode::Parallel { .. } => {
            crate::batch::pipeline::execute_batch(plan, env)
        }
    }?;
    span.note_with(|| format!("\"rows\": {}", result.len()));
    drop(span);
    // Join the planner's post-order estimates onto the post-order metrics,
    // so every execution reports estimated-vs-actual q-errors.
    metrics.attach_estimates(&plan.estimates);
    Ok((result, metrics))
}

/// Execute a physical plan with the row-at-a-time engine.
pub(crate) fn execute_row(plan: &PhysicalPlan, env: &Env) -> Result<(Relation, ExecMetrics)> {
    let mut metrics = ExecMetrics::default();
    let (result, _reserved) = run(&plan.root, env, &mut metrics)?;
    Ok((result, metrics))
}

/// Lower a logical plan and execute it in one step (engine chosen by
/// `config.mode`). The plan runs as lowered, in one piece; staged
/// execution is [`crate::Scheduler`]'s.
pub fn execute_logical(
    plan: &LogicalPlan,
    env: &Env,
    config: PlannerConfig,
) -> Result<(Relation, ExecMetrics)> {
    let physical = lower(plan, config)?;
    execute_mode(&physical, env, config.mode)
}

/// Apply one physical operator to materialized inputs using the row
/// algorithms — the row engine's dispatch, shared with the batch
/// pipeline's fallback path so both engines agree by construction.
pub(crate) fn apply_row_op(node: &PhysicalNode, inputs: &[Relation]) -> Result<Relation> {
    Ok(match node {
        PhysicalNode::Scan { .. } => unreachable!("scans are handled by the engines"),
        PhysicalNode::Select { predicate, .. } => ops::select(&inputs[0], predicate)?,
        PhysicalNode::Project { items, .. } => ops::project(&inputs[0], items)?,
        PhysicalNode::UnionAll { .. } => ops::union_all(&inputs[0], &inputs[1])?,
        PhysicalNode::Product { algo, .. } => match algo {
            ProductAlgo::NestedLoop => ops::product(&inputs[0], &inputs[1])?,
            ProductAlgo::HashEqui(keys) => {
                operators::product_hash_equi(&inputs[0], &inputs[1], keys)?
            }
        },
        PhysicalNode::Difference { .. } => ops::difference(&inputs[0], &inputs[1])?,
        PhysicalNode::Aggregate { group_by, aggs, .. } => {
            ops::aggregate(&inputs[0], group_by, aggs)?
        }
        PhysicalNode::Rdup { .. } => ops::rdup(&inputs[0])?,
        PhysicalNode::UnionMax { .. } => ops::union_max(&inputs[0], &inputs[1])?,
        PhysicalNode::Sort { order, .. } => ops::sort(&inputs[0], order)?,
        PhysicalNode::Limit { limit, offset, .. } => ops::limit(&inputs[0], *limit, *offset)?,
        PhysicalNode::ProductT { algo, .. } => match algo {
            ProductTAlgo::Sweep => ops::product_t(&inputs[0], &inputs[1])?,
            ProductTAlgo::HashEqui(keys) => {
                operators::product_t_hash_equi(&inputs[0], &inputs[1], keys)?
            }
        },
        PhysicalNode::DifferenceT { .. } => ops::difference_t(&inputs[0], &inputs[1])?,
        PhysicalNode::AggregateT { group_by, aggs, .. } => {
            ops::aggregate_t(&inputs[0], group_by, aggs)?
        }
        PhysicalNode::RdupT { .. } => ops::rdup_t(&inputs[0])?,
        PhysicalNode::UnionT { .. } => ops::union_t(&inputs[0], &inputs[1])?,
        PhysicalNode::Coalesce { .. } => ops::coalesce(&inputs[0])?,
        PhysicalNode::TransferS { .. } | PhysicalNode::TransferD { .. } => inputs[0].clone(),
    })
}

/// `×`'s output size is known before it runs: charge it to the query's
/// budget before anything of that size is allocated. `None` for every
/// other operator (and for an ungoverned query).
fn precharge_product(
    node: &PhysicalNode,
    inputs: &[Relation],
) -> Result<Option<context::Reservation>> {
    match node {
        PhysicalNode::Product {
            algo: ProductAlgo::NestedLoop,
            ..
        } => context::reserve_current(crate::batch::kernels::product_bytes(
            inputs[0].approx_bytes(),
            inputs[0].len(),
            inputs[1].approx_bytes(),
            inputs[1].len(),
        )),
        _ => Ok(None),
    }
}

/// The reservation for an operator's materialized output of `bytes`: an
/// up-front charge resized to what was actually built, or a fresh one.
pub(crate) fn settle(
    precharged: Option<context::Reservation>,
    bytes: usize,
) -> Result<Option<context::Reservation>> {
    match precharged {
        Some(mut reserved) => {
            reserved.grow_to(bytes)?;
            Ok(Some(reserved))
        }
        None => context::reserve_current(bytes),
    }
}

/// One node of the row engine's tree walk. Returns the materialized
/// output together with its memory reservation: child reservations stay
/// live while the parent consumes the inputs and release when the
/// `inputs` vector drops, so a governed query's budget tracks the live
/// intermediates of the walk.
fn run(
    node: &PhysicalNode,
    env: &Env,
    metrics: &mut ExecMetrics,
) -> Result<(Relation, Option<context::Reservation>)> {
    // Per-operator governance checkpoint (cancellation/deadline).
    context::check_current()?;
    // Evaluate children first so the parent's timing excludes them.
    // `children` (and with it the child reservations) stays live until
    // this node's own output has been materialized and charged.
    let children: Vec<(Relation, Option<context::Reservation>)> = node
        .children()
        .iter()
        .map(|c| run(c, env, metrics))
        .collect::<Result<_>>()?;
    let inputs: Vec<Relation> = children.iter().map(|(r, _res)| r.clone()).collect();
    let rows_in = inputs.iter().map(Relation::len).sum();

    let mut span = trace::span_with(Category::Exec, || node.label());
    let started = Instant::now();
    let (out, reserved) = match node {
        // Arc-backed storage makes this clone a refcount bump, not a
        // copy — shared base storage is not charged to the query.
        PhysicalNode::Scan { name } => (env.get(name)?.clone(), None),
        other => {
            let precharged = precharge_product(other, &inputs)?;
            let out = apply_row_op(other, &inputs)?;
            let reserved = settle(precharged, out.approx_bytes())?;
            (out, reserved)
        }
    };
    let elapsed = started.elapsed();
    span.note_with(|| format!("\"rows_in\": {rows_in}, \"rows_out\": {}", out.len()));
    drop(span);
    metrics.operators.push(OperatorMetrics {
        label: node.label(),
        rows_in,
        rows_out: out.len(),
        est_rows: None,
        batches: 1,
        elapsed,
    });
    Ok((out, reserved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::equivalence::ResultType;
    use tqo_core::plan::PlanBuilder;
    use tqo_core::sortspec::Order;
    use tqo_storage::paper;

    fn figure2a_plan(result_type: ResultType) -> LogicalPlan {
        let cat = paper::catalog();
        let emp = PlanBuilder::scan("EMPLOYEE", cat.base_props("EMPLOYEE").unwrap())
            .project_cols(&["EmpName", "T1", "T2"])
            .rdup_t();
        let prj = PlanBuilder::scan("PROJECT", cat.base_props("PROJECT").unwrap())
            .project_cols(&["EmpName", "T1", "T2"]);
        let root = emp
            .difference_t(prj)
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["EmpName"]))
            .node();
        LogicalPlan::new(root, result_type)
    }

    #[test]
    fn figure1_result_with_default_planner() {
        let cat = paper::catalog();
        let plan = figure2a_plan(ResultType::List(Order::asc(&["EmpName"])));
        let (result, metrics) =
            execute_logical(&plan, &cat.env(), PlannerConfig::default()).unwrap();
        assert_eq!(result, paper::figure1_result());
        assert!(!metrics.operators.is_empty());
        assert_eq!(metrics.operators.last().unwrap().rows_out, 10);
    }

    #[test]
    fn metrics_capture_operator_rows() {
        let cat = paper::catalog();
        let plan = PlanBuilder::scan("EMPLOYEE", cat.base_props("EMPLOYEE").unwrap())
            .transfer_s()
            .build_multiset();
        let (_, metrics) = execute_logical(&plan, &cat.env(), PlannerConfig::default()).unwrap();
        assert_eq!(metrics.transferred_rows(), 5);
        assert!(metrics.operators.iter().all(|o| o.batches >= 1));
    }

    #[test]
    fn both_engines_match_the_reference_interpreter() {
        let cat = paper::catalog();
        let env = cat.env();
        for result_type in [
            ResultType::List(Order::asc(&["EmpName"])),
            ResultType::Multiset,
        ] {
            let plan = figure2a_plan(result_type);
            let via_interp = tqo_core::interp::eval_plan(&plan, &env).unwrap();
            let physical = lower(&plan, PlannerConfig::default()).unwrap();
            let (row, _) = execute_row(&physical, &env).unwrap();
            let (batch, _) = execute_mode(&physical, &env, ExecMode::Batch).unwrap();
            assert_eq!(row, via_interp);
            assert_eq!(batch, via_interp);
        }
    }

    #[test]
    fn scan_shares_base_table_storage() {
        let cat = paper::catalog();
        let env = cat.env();
        let plan = PhysicalPlan::new(PhysicalNode::Scan {
            name: "EMPLOYEE".into(),
        });
        let (result, _) = execute_row(&plan, &env).unwrap();
        assert!(
            result.shares_tuples(env.get("EMPLOYEE").unwrap()),
            "scan must not deep-copy base table storage"
        );
    }
}
