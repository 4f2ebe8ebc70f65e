//! Optimizer/planner interaction tests for the constructs opened by the
//! conformance PR: HAVING, [NOT] IN / [NOT] EXISTS subqueries, outer
//! temporal joins, and LIMIT/OFFSET. Each test pins how the construct's
//! lowering interacts with the rule system or the Table 2 properties —
//! not just that it runs.

use tqo_core::interp::eval_plan;
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::display::plan_to_string;
use tqo_core::plan::props::{annotate, PropsFlags};
use tqo_core::plan::{LogicalPlan, PlanNode};
use tqo_core::relation::Relation;
use tqo_core::rules::RuleSet;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::{execute_mode, lower, ExecMode, PlannerConfig, Scheduler, SubmitOptions};
use tqo_storage::{paper, Catalog};

/// A temporal relation `(EmpName: Str, T1, T2)` of `n` distinct names —
/// snapshot-duplicate-free by construction.
fn names(n: usize) -> Relation {
    let schema = Schema::temporal(&[("EmpName", DataType::Str)]);
    let rows = (0..n)
        .map(|i| {
            Tuple::new(vec![
                Value::Str(format!("e{i}").into()),
                Value::Time(0),
                Value::Time(10),
            ])
        })
        .collect();
    Relation::new(schema, rows).unwrap()
}

fn catalog_with(emp: usize, prj: usize) -> Catalog {
    let catalog = Catalog::new();
    catalog.register("EMPLOYEE", names(emp)).unwrap();
    catalog.register("PROJECT", names(prj)).unwrap();
    catalog
}

fn sorted_rows(rel: &Relation) -> Vec<Tuple> {
    let mut rows = rel.tuples().to_vec();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rows
}

/// The Table 2 flags Figure 5 gates its rewrites on, at the plan's one
/// temporal difference.
fn difference_t_flags(plan: &LogicalPlan) -> PropsFlags {
    let ann = annotate(plan).unwrap();
    let path = plan
        .root
        .paths()
        .into_iter()
        .find(|p| matches!(plan.root.get(p), Ok(PlanNode::DifferenceT { .. })))
        .expect("the plan has a temporal difference");
    ann[&path].flags
}

/// Sequenced NOT IN lowers to `\T`. As a multiset result it must keep
/// its periods; a trailing COALESCE frees it to change them (snapshot
/// equivalence suffices below a coalescing).
#[test]
fn not_in_difference_is_period_preserving_only_without_coalesce() {
    let catalog = catalog_with(200, 3);
    let sql = "VALIDTIME SELECT EmpName FROM EMPLOYEE \
               WHERE EmpName NOT IN (VALIDTIME SELECT EmpName FROM PROJECT)";
    let bare = tqo_sql::compile(sql, &catalog).unwrap();
    assert!(difference_t_flags(&bare).period_preserving);
    let coalesced = tqo_sql::compile(&format!("{sql} COALESCE"), &catalog).unwrap();
    let flags = difference_t_flags(&coalesced);
    assert!(!flags.period_preserving && !flags.order_required);
}

/// HAVING binds as a selection *above* the aggregate; the rule system
/// must keep it there (a selection over aggregate output cannot be
/// pushed below the aggregation) while still optimizing the rest.
#[test]
fn having_selection_stays_above_the_aggregate() {
    let catalog = paper::catalog();
    let sql = "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept HAVING n > 2";
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    let reference = eval_plan(&plan, &catalog.env()).unwrap();

    let optimized = optimize(&plan, &RuleSet::standard(), &OptimizerConfig::default()).unwrap();
    let text = plan_to_string(&optimized.best.root);
    let select_at = text
        .find('σ')
        .expect("optimized plan keeps the HAVING selection");
    let agg_at = text.find('ξ').expect("optimized plan keeps the aggregate");
    // Pre-order rendering: parents print before children.
    assert!(
        select_at < agg_at,
        "HAVING selection was pushed below the aggregate:\n{text}"
    );
    let got = eval_plan(&optimized.best, &catalog.env()).unwrap();
    assert_eq!(sorted_rows(&got), sorted_rows(&reference));
}

/// NOT EXISTS decorrelates into the same sequenced anti-join as NOT IN:
/// two different front-end paths, one algebra — both reproduce the
/// paper's Figure 1 difference, and both survive memo optimization.
#[test]
fn not_exists_and_not_in_converge_on_figure1() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let via_not_in = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
                      WHERE EmpName NOT IN (VALIDTIME SELECT EmpName FROM PROJECT) \
                      COALESCE ORDER BY EmpName";
    let via_not_exists = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE e \
                          WHERE NOT EXISTS (VALIDTIME SELECT Prj FROM PROJECT p \
                                            WHERE p.EmpName = e.EmpName) \
                          COALESCE ORDER BY EmpName";
    let mut results = Vec::new();
    for sql in [via_not_in, via_not_exists] {
        let plan = tqo_sql::compile(sql, &catalog).unwrap();
        let reference = eval_plan(&plan, &env).unwrap();
        let optimized = optimize(&plan, &RuleSet::standard(), &OptimizerConfig::default()).unwrap();
        let got = eval_plan(&optimized.best, &env).unwrap();
        assert_eq!(got, reference, "memo changed the result of {sql}");
        results.push(reference);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], paper::figure1_result());
}

/// The sequenced outer join's anti part is a `\T` too — but its padded
/// fragments' periods ARE the output, so the binder marks it
/// period-preserving even under a top-level COALESCE, where NOT IN's
/// difference is not (above). The property system pins this, not the
/// statistics.
#[test]
fn outer_join_anti_part_is_period_preserving() {
    let sql = "VALIDTIME SELECT e.EmpName AS en, p.EmpName AS pn FROM EMPLOYEE e \
               LEFT JOIN PROJECT p ON e.EmpName = p.EmpName COALESCE";

    let catalog = catalog_with(200, 3);
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    assert!(difference_t_flags(&plan).period_preserving);
    let physical = lower(&plan, PlannerConfig::default()).unwrap();
    // Padding shape: matched ⊔ NULL-padded anti difference.
    assert!(physical.explain().contains("union-all"), "{physical}");
    let env = catalog.env();
    let reference = eval_plan(&plan, &env).unwrap();
    let (got, _) = execute_mode(&physical, &env, ExecMode::Batch).unwrap();
    assert_eq!(got, reference);
    // 197 of 200 left names have no partner: their full periods are padded.
    let padded = got
        .tuples()
        .iter()
        .filter(|t| t.values().iter().any(|v| matches!(v, Value::Null)))
        .count();
    assert_eq!(padded, 197);
}

/// LIMIT binds at the very root and must stay there through memo search:
/// truncation is order-sensitive, so no rule may float it below the sort
/// (or drop the sort under it).
#[test]
fn limit_stays_above_the_sort_through_memo() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let sql = "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept LIMIT 3 OFFSET 1";
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    assert!(matches!(*plan.root, PlanNode::Limit { .. }));
    let reference = eval_plan(&plan, &env).unwrap();
    assert_eq!(reference.len(), 3);

    let optimized = optimize(&plan, &RuleSet::standard(), &OptimizerConfig::default()).unwrap();
    assert!(
        matches!(*optimized.best.root, PlanNode::Limit { .. }),
        "memo moved LIMIT off the root:\n{}",
        plan_to_string(&optimized.best.root)
    );
    let text = plan_to_string(&optimized.best.root);
    assert!(
        text.contains("sort"),
        "the order-producing sort was dropped under LIMIT:\n{text}"
    );
    // Lists are compared exactly: optimization must not change the page.
    let got = eval_plan(&optimized.best, &env).unwrap();
    assert_eq!(got, reference);

    // The physical plan keeps the same shape.
    let physical = lower(&plan, PlannerConfig::default()).unwrap();
    let explain = physical.explain();
    let limit_at = explain.find("limit").expect("physical limit");
    let sort_at = explain.find("sort").expect("physical sort");
    assert!(limit_at < sort_at, "{explain}");
    let (got, _) = execute_mode(&physical, &env, ExecMode::Batch).unwrap();
    assert_eq!(got, reference);
    let (staged, _) = Scheduler::global()
        .run(&physical, &env, SubmitOptions::default())
        .unwrap();
    assert_eq!(staged, reference);
}
