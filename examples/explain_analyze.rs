//! From estimates to evidence: a temporal join under `EXPLAIN ANALYZE`.
//!
//! The optimizer picks plans from *estimated* cardinalities and costs
//! (the `\costs` view); `EXPLAIN ANALYZE` executes the chosen plan and
//! annotates every operator with what actually happened — actual rows,
//! the q-error against the estimate, exclusive wall time, and throughput.
//! This example walks the paper's temporal join ("which employees worked
//! while a project ran, and when?") through both views, then checks the
//! analyzed result against the reference interpreter.
//!
//! ```sh
//! cargo run --example explain_analyze
//! ```

use tqo_core::cost::CostModel;
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::display::explain_with_cost;
use tqo_core::rules::RuleSet;
use tqo_exec::{explain_analyze, PlannerConfig};
use tqo_storage::paper;
use tqo_stratum::make_layered;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = paper::catalog();
    let env = catalog.env();
    let sql = "VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p \
               WHERE e.EmpName = p.EmpName";
    println!("query: {sql}\n");

    // ── Before execution: the `\costs` view. The cost model is fitted to
    // the batch engine that will run the plan; the optimizer's choice
    // rests entirely on estimated rows and costs.
    let plan = tqo_sql::compile(sql, &catalog)?;
    let layered = make_layered(&plan)?;
    let model = CostModel::default();
    let optimized = optimize(
        &layered,
        &RuleSet::standard(),
        &OptimizerConfig {
            cost_model: model.clone(),
            ..Default::default()
        },
    )?;
    println!("=== Estimated (the optimizer's view) ===\n");
    print!("{}", explain_with_cost(&optimized.best, &model)?);
    println!("total estimated cost: {:.0}\n", optimized.cost.0);

    // ── After execution: the analyze report. Estimated vs actual rows
    // meet in the q-err column; a q-error of 1.00 means the estimator was
    // exactly right, larger values show where it drifted. The result is
    // byte-identical to an unanalyzed run — analysis never perturbs the
    // query.
    println!("=== Actual (EXPLAIN ANALYZE) ===\n");
    let analyzed = explain_analyze(&plan, &env, PlannerConfig::default())?;
    print!("{}", analyzed.report);
    println!(
        "\nresult ({} rows):\n{}",
        analyzed.result.len(),
        analyzed.result
    );

    // ── The engine answers to the reference interpreter: the analyzed
    // result is the interpreter's exact relation.
    let reference = tqo_core::interp::eval_plan(&plan, &env)?;
    assert_eq!(analyzed.result, reference, "engine and interpreter agree");
    println!(
        "\nthe interpreter computes the same {} rows",
        reference.len()
    );
    Ok(())
}
