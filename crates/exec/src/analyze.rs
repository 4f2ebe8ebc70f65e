//! `EXPLAIN ANALYZE`: execute a plan, then render it annotated with what
//! actually happened.
//!
//! The renderer joins the lowered plan's tree shape with the engine's
//! post-order [`OperatorMetrics`] and prints, per operator: estimated
//! rows, actual rows, the q-error between them, **exclusive** wall time
//! (children subtracted), and output throughput (`—` when the operator
//! finished below the timer's resolution). The same columns render for a
//! direct run, a scheduler run and a run through the stratum, so a plan
//! can be compared across the three line by line.
//!
//! A staged run (the scheduler) reports its stages' operators
//! concatenated, which no single tree shape indexes, so it renders as a
//! flat list in execution order.
//!
//! Analysis never perturbs the query: the result relation returned by
//! [`explain_analyze`] is byte-identical to a plain
//! [`execute_logical`](crate::executor::execute_logical) run.

use std::time::Duration;

use tqo_core::error::Result;
use tqo_core::interp::Env;
use tqo_core::plan::LogicalPlan;
use tqo_core::relation::Relation;

use crate::executor::execute_mode;
use crate::metrics::{ExecMetrics, OperatorMetrics};
use crate::physical::PhysicalPlan;
use crate::planner::{lower, PlannerConfig};

/// The output of [`explain_analyze`]: the (unperturbed) query result, the
/// raw metrics, and the rendered report.
#[derive(Debug)]
pub struct Analyzed {
    /// The query result — byte-identical to a plain execution.
    pub result: Relation,
    /// The per-operator metrics the report was rendered from.
    pub metrics: ExecMetrics,
    /// The executed physical plan.
    pub plan: PhysicalPlan,
    /// The annotated report.
    pub report: String,
}

/// Lower and execute `plan` on the batch engine, then render the analyze
/// report. (A staged run's metrics render through [`render`] with no
/// plan.)
pub fn explain_analyze(plan: &LogicalPlan, env: &Env, config: PlannerConfig) -> Result<Analyzed> {
    let physical = lower(plan, config)?;
    let (result, metrics) = execute_mode(&physical, env, config.mode)?;
    let report = render(Some(&physical), &metrics);
    Ok(Analyzed {
        result,
        metrics,
        plan: physical,
        report,
    })
}

/// Render the analyze report for an executed plan.
///
/// With `plan` given (and its post-order matching `metrics.operators`),
/// operators render as an indented tree in plan order. Without it —
/// metrics from a staged execution — operators render as a flat list in
/// execution order.
pub fn render(plan: Option<&PhysicalPlan>, metrics: &ExecMetrics) -> String {
    let mut out = String::from("EXPLAIN ANALYZE\n");
    out.push_str(&format!(
        "{:<44} {:>9} {:>9} {:>7} {:>11} {:>12}\n",
        "operator", "est rows", "act rows", "q-err", "time", "rows/s"
    ));
    match plan {
        Some(p) if p.facts().len() == metrics.operators.len() => {
            for (depth, i, _) in p.pre_order() {
                let op = &metrics.operators[i];
                out.push_str(&row(&op.label, depth, op));
            }
        }
        _ => {
            for op in &metrics.operators {
                out.push_str(&row(&op.label, 0, op));
            }
        }
    }
    let wall = metrics.total_time();
    out.push_str(&format!(
        "total: {wall:?} operator wall across {} operator(s)",
        metrics.operators.len()
    ));
    if let Some(q) = metrics.median_q_error() {
        out.push_str(&format!(", median q-error {q:.2}"));
    }
    out.push('\n');
    out
}

fn row(label: &str, depth: usize, op: &OperatorMetrics) -> String {
    let indented = format!("{}{}", "  ".repeat(depth), label);
    let est = op.est_rows.map_or_else(|| "-".into(), |e| e.to_string());
    let q = op
        .q_error()
        .map_or_else(|| "-".into(), |q| format!("{q:.2}"));
    let rate = op
        .throughput()
        .map_or_else(|| "—".into(), |r| format!("{r:.0}"));
    format!(
        "{indented:<44} {est:>9} {:>9} {q:>7} {:>11} {rate:>12}\n",
        op.rows_out,
        format!("{:?}", op.elapsed),
    )
}

/// Debug-assertion helper shared by tests: the sum of exclusive operator
/// times can never exceed `wall` (the measured end-to-end query time).
pub fn check_time_invariants(metrics: &ExecMetrics, wall: Duration) {
    let sum = metrics.total_time();
    assert!(
        sum <= wall,
        "sum of exclusive operator times {sum:?} exceeds query wall time {wall:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::equivalence::ResultType;
    use tqo_core::plan::PlanBuilder;
    use tqo_core::sortspec::Order;
    use tqo_storage::paper;

    fn figure2a() -> LogicalPlan {
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
        LogicalPlan::new(root, ResultType::List(Order::asc(&["EmpName"])))
    }

    #[test]
    fn analyze_renders_every_operator_with_columns() {
        let cat = paper::catalog();
        let a = explain_analyze(&figure2a(), &cat.env(), PlannerConfig::default()).unwrap();
        assert_eq!(a.result, paper::figure1_result());
        assert_eq!(a.plan.root().size(), a.metrics.operators.len());
        for col in ["est rows", "act rows", "q-err", "time", "rows/s"] {
            assert!(
                a.report.contains(col),
                "missing column {col}:\n{}",
                a.report
            );
        }
        for op in &a.metrics.operators {
            assert!(
                a.report.contains(&op.label),
                "missing {}:\n{}",
                op.label,
                a.report
            );
        }
        // The tree view indents children under the root operator.
        assert!(a.report.contains("\n  "), "no indentation:\n{}", a.report);
    }

    #[test]
    fn flat_view_keeps_execution_order() {
        let op = |label: &str| OperatorMetrics {
            label: label.into(),
            rows_in: 0,
            rows_out: 5,
            est_rows: Some(50),
            batches: 1,
            elapsed: Duration::from_micros(3),
        };
        let metrics = ExecMetrics {
            operators: vec![
                op("scan(R)"),
                op("rdupT"),
                op("scan(__s0)"),
                op("sort[stable]"),
            ],
        };
        let report = render(None, &metrics);
        let at = |label: &str| report.find(label).expect(label);
        assert!(at("scan(R)") < at("rdupT") && at("rdupT") < at("scan(__s0)"));
        assert!(at("scan(__s0)") < at("sort[stable]"), "{report}");
        assert!(report.contains("across 4 operator(s)"), "{report}");
    }

    #[test]
    fn sub_resolution_operators_render_a_dash() {
        let metrics = ExecMetrics {
            operators: vec![OperatorMetrics {
                label: "select".into(),
                rows_in: 1,
                rows_out: 1,
                est_rows: None,
                batches: 1,
                elapsed: Duration::ZERO,
            }],
        };
        let report = render(None, &metrics);
        let line = report.lines().find(|l| l.contains("select")).unwrap();
        assert!(line.trim_end().ends_with('—'), "{report}");
    }
}
