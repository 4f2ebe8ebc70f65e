//! Physical plan execution with per-operator metrics.
//!
//! One engine executes lowered plans: the vectorized pipeline of
//! [`crate::batch`]. Columnar batches stream through the operator tree,
//! base tables are read through the transpose resident in each relation's
//! storage, and only pipeline breakers materialize. The reference
//! interpreter ([`tqo_core::interp`]) is the oracle it answers to:
//! `tests/engines_agree.rs` holds the engine and the scheduler to the
//! interpreter's exact relation.
//!
//! Parallelism is across queries, not inside one: the
//! [`Scheduler`](crate::parallel::Scheduler) runs the stages of many
//! queries on one worker pool, each stage on this engine.

use tqo_core::error::Result;
use tqo_core::interp::Env;
use tqo_core::plan::LogicalPlan;
use tqo_core::relation::Relation;
use tqo_core::trace::{self, Category};

use crate::metrics::ExecMetrics;
use crate::physical::PhysicalPlan;
use crate::planner::{lower, PlannerConfig};

/// The engine a caller asked for. Every value runs the batch pipeline,
/// and no code branches on it: it remains a type only because the serving
/// wire carries it (tags 0, 1 and 2) and the benchmark's per-layer probes
/// construct it.
///
/// ```
/// use tqo_exec::ExecMode;
///
/// // The default is the vectorized batch pipeline, the one engine; `Row`
/// // and `Parallel` are aliases that run it.
/// assert_eq!(ExecMode::default(), ExecMode::Batch);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// An alias that runs [`ExecMode::Batch`] (wire tag 1).
    Row,
    /// Vectorized columnar pipeline (~1024-row batches).
    #[default]
    Batch,
    /// An alias that runs [`ExecMode::Batch`] (wire tag 2).
    Parallel {
        /// Ignored.
        threads: usize,
    },
}

/// Execute a physical plan on the batch pipeline. `_mode` is accepted
/// for source compatibility and ignored: every [`ExecMode`] runs batch.
pub fn execute_mode(
    plan: &PhysicalPlan,
    env: &Env,
    _mode: ExecMode,
) -> Result<(Relation, ExecMetrics)> {
    let mut span = trace::span(Category::Exec, "execute");
    span.note_with(|| format!("\"operators\": {}", plan.facts().len()));
    let (result, metrics) = crate::batch::pipeline::execute_batch(plan, env)?;
    span.note_with(|| format!("\"rows\": {}", result.len()));
    Ok((result, metrics))
}

/// Lower a logical plan and execute it in one step. The plan runs as
/// lowered, in one piece; staged execution is [`crate::Scheduler`]'s.
pub fn execute_logical(
    plan: &LogicalPlan,
    env: &Env,
    config: PlannerConfig,
) -> Result<(Relation, ExecMetrics)> {
    let physical = lower(plan, config)?;
    execute_mode(&physical, env, config.mode)
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
    fn the_engine_matches_the_reference_interpreter() {
        let cat = paper::catalog();
        let env = cat.env();
        for result_type in [
            ResultType::List(Order::asc(&["EmpName"])),
            ResultType::Multiset,
        ] {
            let plan = figure2a_plan(result_type);
            let via_interp = tqo_core::interp::eval_plan(&plan, &env).unwrap();
            let physical = lower(&plan, PlannerConfig::default()).unwrap();
            for mode in [
                ExecMode::Batch,
                ExecMode::Row,
                ExecMode::Parallel { threads: 4 },
            ] {
                let (batch, _) = execute_mode(&physical, &env, mode).unwrap();
                assert_eq!(batch, via_interp, "{mode:?}");
            }
        }
    }

    #[test]
    fn scan_shares_base_table_storage() {
        let cat = paper::catalog();
        let env = cat.env();
        let resident = env.get("EMPLOYEE").unwrap().columnar().unwrap();
        let plan =
            PlanBuilder::scan("EMPLOYEE", cat.base_props("EMPLOYEE").unwrap()).build_multiset();
        let (result, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
        // The result is born in the base table's own columns: nothing is
        // copied, and no transpose is built for it.
        let columns = result.columnar().unwrap();
        assert_eq!(columns.columns().len(), resident.columns().len());
        for (got, base) in columns.columns().iter().zip(resident.columns()) {
            assert!(
                std::sync::Arc::ptr_eq(got, base),
                "a scan's result must share the base table's resident columns"
            );
        }
    }
}
