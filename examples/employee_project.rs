//! The paper's running example, end to end (Figures 1, 2, 3, and 6).
//!
//! "Which employees worked in a department, but not on any project, and
//! when?" — result sorted, coalesced, and without duplicates in its
//! snapshots.
//!
//! ```sh
//! cargo run --example employee_project
//! ```

use tqo_core::interp::eval_plan;
use tqo_core::ops;
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::display::annotated_to_string;
use tqo_core::plan::PlanBuilder;
use tqo_core::rules::RuleSet;
use tqo_core::sortspec::Order;
use tqo_storage::paper;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = paper::catalog();
    println!("=== Figure 1: the example relations ===\n");
    println!("EMPLOYEE:\n{}", paper::employee());
    println!("PROJECT:\n{}", paper::project());

    // ── Figure 3: regular vs temporal duplicate elimination.
    println!("=== Figure 3: rdup vs rdupT on π_EmpName,T1,T2(EMPLOYEE) ===\n");
    let r1 = ops::project(
        &paper::employee(),
        &[
            tqo_core::expr::ProjItem::col("EmpName"),
            tqo_core::expr::ProjItem::col("T1"),
            tqo_core::expr::ProjItem::col("T2"),
        ],
    )?;
    println!("R1 = π(EMPLOYEE):\n{r1}");
    println!(
        "R2 = rdup(R1) — time attributes demoted:\n{}",
        ops::rdup(&r1)?
    );
    println!(
        "R3 = rdupT(R1) — John's second period trimmed to [8,11):\n{}",
        ops::rdup_t(&r1)?
    );

    // ── Figure 2(a): the initial plan, with transfers.
    let initial = {
        let emp = PlanBuilder::scan("EMPLOYEE", catalog.base_props("EMPLOYEE")?)
            .project_cols(&["EmpName", "T1", "T2"])
            .transfer_s()
            .rdup_t();
        let prj = PlanBuilder::scan("PROJECT", catalog.base_props("PROJECT")?)
            .project_cols(&["EmpName", "T1", "T2"])
            .transfer_s();
        emp.difference_t(prj)
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["EmpName"]))
            .build_list(Order::asc(&["EmpName"]))
    };

    println!("=== Figure 2(a): the initial plan, with Figure 6's property vectors ===\n");
    println!("{}", annotated_to_string(&initial)?);

    // ── §6: search the Figure 5 rule space + cost-select (the optimizer
    //        composition the paper defers to future work).
    let out = optimize(&initial, &RuleSet::standard(), &OptimizerConfig::default())?;
    println!(
        "=== Optimization: {} memo expressions, best cost {:.0} (initial {:.0}) ===\n",
        out.memo.exprs,
        out.cost.0,
        OptimizerConfig::default().cost_model.cost(&initial)?.0,
    );
    println!("derivation of the chosen plan:");
    for step in &out.derivation {
        println!(
            "  {} ({}) at {:?}",
            step.rule, step.equivalence, step.location
        );
    }
    println!("\n=== The chosen plan (compare Figure 2(b)/6(b)) ===\n");
    println!("{}", annotated_to_string(&out.best)?);

    // ── Execute both and compare with Figure 1's Result.
    let env = catalog.env();
    let result_initial = eval_plan(&initial, &env)?;
    let result_best = eval_plan(&out.best, &env)?;
    println!("=== Result (Figure 1) ===\n{result_initial}");
    assert_eq!(result_initial, paper::figure1_result());
    assert!(initial.result_type.admits(&result_initial, &result_best)?);
    println!("optimized plan agrees under ≡L,⟨EmpName ASC⟩ ✓");
    Ok(())
}
