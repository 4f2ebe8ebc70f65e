//! End-to-end optimizer: the Figure 5 rule closure searched by the memo
//! ([`crate::memo`]), followed by cost-based plan selection (the
//! composition the paper names as future work in §7).
//!
//! Figure 5's closure itself ([`crate::enumerate::enumerate`]) stays as
//! the oracle: wherever it finishes, the memo finds an equally cheap plan
//! (ARCHITECTURE invariant 5).
//!
//! ```
//! use tqo_core::cost::CostModel;
//! use tqo_core::enumerate::{enumerate, EnumerationConfig};
//! use tqo_core::optimizer::{optimize, OptimizerConfig};
//! use tqo_core::plan::{BaseProps, PlanBuilder};
//! use tqo_core::rules::RuleSet;
//! use tqo_core::schema::Schema;
//! use tqo_core::value::DataType;
//!
//! let schema = Schema::temporal(&[("E", DataType::Str)]);
//! let plan = PlanBuilder::scan("R", BaseProps::unordered(schema, 100))
//!     .rdup_t()
//!     .rdup_t() // redundant — the search eliminates it
//!     .build_multiset();
//! let rules = RuleSet::standard();
//! let memo = optimize(&plan, &rules, &OptimizerConfig::default()).unwrap();
//! let closure = enumerate(&plan, &rules, EnumerationConfig::default()).unwrap();
//! let (_, oracle) = closure.cheapest(&CostModel::default()).unwrap();
//! assert!((oracle.0 - memo.cost.0).abs() <= 1e-9 * oracle.0);
//! ```

use crate::cost::{Cost, CostModel};
use crate::enumerate::{Enumeration, RuleApplication};
use crate::error::Result;
use crate::memo::{memo_search, MemoConfig, MemoStats};
use crate::plan::LogicalPlan;
use crate::rules::RuleSet;
use crate::trace::{self, Category};

/// Optimizer configuration.
#[derive(Debug, Clone, Default)]
pub struct OptimizerConfig {
    /// Budgets for the memo search.
    pub memo: MemoConfig,
    /// The cost model pricing candidate plans.
    pub cost_model: CostModel,
}

/// The optimizer's output.
#[derive(Debug)]
pub struct Optimized {
    /// The cheapest admissible plan found.
    pub best: LogicalPlan,
    /// Its estimated cost.
    pub cost: Cost,
    /// The rule applications that derived the best plan from the initial
    /// one. The initial plan's projection cascades lead it as
    /// `project-compose` applications (the memo composes them as the plan
    /// enters); a cascade a later rewrite forms is composed within that
    /// rewrite's application.
    pub derivation: Vec<RuleApplication>,
    /// True when a search budget stopped the closure early: `best` is the
    /// best plan *found*, not necessarily the best plan overall.
    pub truncated: bool,
    /// Memo search-space counters.
    pub memo: MemoStats,
    /// Dead field, always empty: the memo materializes no plan list.
    /// Figure 5's closure, plan by plan, is [`crate::enumerate::enumerate`].
    /// It stays only because the benchmark's per-layer probe
    /// (`benchmark/src/bin/layers.rs`) still reads it, so that probe's
    /// `optimizer.plans_explored` reads 0 and means nothing; delete the
    /// field once the probe reports [`MemoStats::exprs`] instead.
    pub enumeration: Enumeration,
}

/// Search the Figure 5 rule space by memo and return the cheapest
/// admissible plan.
///
/// The initial plan is always part of the search space, so as long as it
/// is itself admissible the optimizer can never do worse than the input.
pub fn optimize(
    initial: &LogicalPlan,
    rules: &RuleSet,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    let mut span = trace::span(Category::Optimizer, "optimize");
    let result = memo_search(initial, rules, &config.cost_model, config.memo)?;
    span.note_with(|| {
        format!(
            "\"cost\": {:.0}, \"truncated\": {}",
            result.cost.0, result.stats.truncated
        )
    });
    Ok(Optimized {
        best: result.best,
        cost: result.cost,
        derivation: result.derivation,
        truncated: result.stats.truncated,
        memo: result.stats,
        enumeration: Enumeration::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BaseProps, PlanBuilder};
    use crate::schema::Schema;
    use crate::sortspec::Order;
    use crate::value::DataType;

    fn tscan(name: &str, card: u64) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, card))
    }

    #[test]
    fn optimizer_never_worse_than_input() {
        let plan = tscan("A", 1000)
            .rdup_t()
            .difference_t(tscan("B", 1000))
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["E"]))
            .build_list(Order::asc(&["E"]));
        let cfg = OptimizerConfig::default();
        let input_cost = cfg.cost_model.cost(&plan).unwrap();
        let out = optimize(&plan, &RuleSet::standard(), &cfg).unwrap();
        assert!(out.cost <= input_cost);
        assert!(out.cost.is_valid());
    }

    #[test]
    fn optimizer_removes_redundant_operations() {
        // Double rdupT: D2 strips the outer one; the optimizer should pick
        // a plan with fewer nodes.
        let plan = tscan("R", 1000).rdup_t().rdup_t().build_multiset();
        let out = optimize(&plan, &RuleSet::standard(), &OptimizerConfig::default()).unwrap();
        assert!(out.best.root.size() < plan.root.size());
        assert!(!out.derivation.is_empty());
    }

    #[test]
    fn optimizer_prefers_dbms_sort() {
        // sort(TS(R)) for a multiset query: S2 could drop the sort; with a
        // list query, the sort must stay but should move into the DBMS.
        let plan = tscan("R", 100_000)
            .transfer_s()
            .sort(Order::asc(&["E"]))
            .build_list(Order::asc(&["E"]));
        let out = optimize(&plan, &RuleSet::standard(), &OptimizerConfig::default()).unwrap();
        assert_eq!(out.best.root.op_name(), "TS");
        assert_eq!(out.best.root.get(&[0]).unwrap().op_name(), "sort");
    }
}
