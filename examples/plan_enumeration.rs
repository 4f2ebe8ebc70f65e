//! Figure 5's enumeration algorithm, observable: how the query's result
//! type (Definition 5.1) changes the space of admissible plans.
//!
//! ```sh
//! cargo run --example plan_enumeration
//! ```

use tqo_core::enumerate::{enumerate, EnumerationConfig};
use tqo_core::equivalence::ResultType;
use tqo_core::plan::{LogicalPlan, PlanBuilder};
use tqo_core::rules::RuleSet;
use tqo_core::sortspec::Order;
use tqo_storage::paper;

fn running_example(rt: ResultType) -> LogicalPlan {
    let catalog = paper::catalog();
    let emp = PlanBuilder::scan("EMPLOYEE", catalog.base_props("EMPLOYEE").unwrap())
        .project_cols(&["EmpName", "T1", "T2"])
        .transfer_s()
        .rdup_t();
    let prj = PlanBuilder::scan("PROJECT", catalog.base_props("PROJECT").unwrap())
        .project_cols(&["EmpName", "T1", "T2"])
        .transfer_s();
    let root = emp
        .difference_t(prj)
        .rdup_t()
        .coalesce()
        .sort(Order::asc(&["EmpName"]))
        .node();
    LogicalPlan::new(root, rt)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rules = RuleSet::standard();
    println!("rule catalogue: {} rules\n", rules.len());

    for (label, rt) in [
        (
            "ORDER BY EmpName (list result)",
            ResultType::List(Order::asc(&["EmpName"])),
        ),
        (
            "no ORDER BY / DISTINCT (multiset result)",
            ResultType::Multiset,
        ),
        ("DISTINCT only (set result)", ResultType::Set),
    ] {
        let plan = running_example(rt);
        let e = enumerate(&plan, &rules, EnumerationConfig { max_plans: 50_000 })?;
        println!("result type: {label}");
        println!(
            "  {} equivalent plans ({} rule applications attempted{})",
            e.plans.len(),
            e.applications,
            if e.truncated { ", truncated" } else { "" }
        );
        // Show a couple of derivations.
        {
            let idx = e.plans.len().saturating_sub(1);
            let chain = e.derivation_chain(idx);
            if !chain.is_empty() {
                let steps: Vec<String> = chain
                    .iter()
                    .map(|a| format!("{}({})", a.rule, a.equivalence))
                    .collect();
                println!("  deepest derivation: {}", steps.join(" → "));
            }
        }
        println!();
    }

    // The Figure 4-only rule set, for comparison.
    let fig4 = RuleSet::figure4();
    let plan = running_example(ResultType::List(Order::asc(&["EmpName"])));
    let e = enumerate(&plan, &fig4, EnumerationConfig::default())?;
    println!(
        "with only Figure 4's rules (D1–D6, C1–C10, S1–S3): {} plans",
        e.plans.len()
    );

    // The same space through the memo optimizer: instead of materializing
    // every equivalent plan, equivalent subplans share a *group* and the
    // cross product of per-region variants is never built. The memo must
    // pick a plan as cheap as the closure's cheapest — it just gets there
    // without the plan wall.
    use tqo_core::optimizer::{optimize, OptimizerConfig};
    println!("\n=== Figure 5 closure vs memo search ===");
    let plan = running_example(ResultType::List(Order::asc(&["EmpName"])));
    let config = OptimizerConfig::default();
    let closure = enumerate(&plan, &rules, EnumerationConfig::default())?;
    let (_, closure_cost) = closure.cheapest(&config.cost_model)?;
    let memo = optimize(&plan, &rules, &config)?;
    let stats = memo.memo;
    println!(
        "closure: best cost {:.0} out of {} materialized plans",
        closure_cost.0,
        closure.plans.len()
    );
    println!(
        "memo:    best cost {:.0} out of {} expressions in {} groups \
         ({} rule applications)",
        memo.cost.0, stats.exprs, stats.groups, stats.applications
    );
    let memo_rules: Vec<String> = memo
        .derivation
        .iter()
        .map(|a| format!("{}({})", a.rule, a.equivalence))
        .collect();
    println!("memo derivation of the winner: {}", memo_rules.join(" → "));
    Ok(())
}
