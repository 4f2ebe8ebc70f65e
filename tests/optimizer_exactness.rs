//! The optimizer's answer is the client's answer: for every `SQL_POOL`
//! query over the paper catalog and three generated ones, plain and
//! layered, `optimize` closes its search untruncated at the default
//! budgets, and the plan it chooses returns the interpreter's rows — the
//! exact list under `ORDER BY`, the same rows with duplicates kept
//! otherwise (so an outermost `DISTINCT` stays duplicate-free).

mod common;

use common::SQL_POOL;
use tqo_core::equivalence::ResultType;
use tqo_core::interp::eval_plan;
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::display::plan_to_string;
use tqo_core::rules::RuleSet;
use tqo_storage::{paper, Catalog, WorkloadGenerator};

fn catalogs() -> Vec<(String, Catalog)> {
    let mut out = vec![("paper".to_owned(), paper::catalog())];
    for seed in [1u64, 7, 23] {
        let catalog = WorkloadGenerator::new(seed).figure1_workload(2).unwrap();
        out.push((format!("seed {seed}"), catalog));
    }
    out
}

#[test]
fn chosen_plans_return_the_interpreters_rows_untruncated() {
    let rules = RuleSet::standard();
    let config = OptimizerConfig::default();
    let mut legs = 0;
    for (name, catalog) in catalogs() {
        let env = catalog.env();
        for sql in SQL_POOL {
            let plan = tqo_sql::compile(sql, &catalog).unwrap();
            let reference = eval_plan(&plan, &env).unwrap();
            let layered = tqo_stratum::make_layered(&plan).unwrap();
            for (form, input) in [("plain", &plan), ("layered", &layered)] {
                let leg = format!("{name}, {form}: `{sql}`");
                let optimized = optimize(input, &rules, &config).unwrap();
                assert!(!optimized.truncated, "{leg}: the memo search truncated");
                let got = eval_plan(&optimized.best, &env).unwrap();
                let exact = match &plan.result_type {
                    ResultType::List(_) => got.tuples() == reference.tuples(),
                    _ => ResultType::Multiset.admits(&reference, &got).unwrap(),
                };
                assert!(
                    exact,
                    "{leg}: {} rows for the interpreter's {}\n{}",
                    got.len(),
                    reference.len(),
                    plan_to_string(&optimized.best.root)
                );
                legs += 1;
            }
        }
    }
    assert_eq!(legs, 4 * 2 * SQL_POOL.len());
}

/// The memo explores in an order its hash tables set, and that order
/// changes from one search to the next. Which concrete subtree reaches a
/// shared expression first must not change what the search can choose:
/// on the layered semi-joins one search in about twelve used to settle
/// on a plan a third dearer. Six searches per layered leg.
#[test]
fn the_chosen_cost_does_not_depend_on_exploration_order() {
    let rules = RuleSet::standard();
    let config = OptimizerConfig::default();
    for (name, catalog) in catalogs() {
        for sql in SQL_POOL {
            let plan = tqo_sql::compile(sql, &catalog).unwrap();
            let layered = tqo_stratum::make_layered(&plan).unwrap();
            let costs: Vec<f64> = (0..6)
                .map(|_| optimize(&layered, &rules, &config).unwrap().cost.0)
                .collect();
            assert!(
                costs.iter().all(|&c| c == costs[0]),
                "{name}, layered: `{sql}`: costs {costs:?}"
            );
        }
    }
}
