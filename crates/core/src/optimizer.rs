//! End-to-end optimizer: Figure 5 enumeration followed by cost-based plan
//! selection (the composition the paper names as future work in §7).

use crate::cost::{Cost, CostModel};
use crate::enumerate::{enumerate, Enumeration, EnumerationConfig, RuleApplication};
use crate::error::Result;
use crate::memo::{memo_search, MemoConfig, MemoStats};
use crate::plan::LogicalPlan;
use crate::rules::RuleSet;
use crate::trace::{self, counters, Category};

/// Which plan-search engine drives the optimizer.
///
/// Both strategies search the same rule-generated plan space under the
/// same cost model, so where the exhaustive closure completes they find
/// equally cheap plans:
///
/// ```
/// use tqo_core::optimizer::{optimize, OptimizerConfig, SearchStrategy};
/// use tqo_core::plan::{BaseProps, PlanBuilder};
/// use tqo_core::rules::RuleSet;
/// use tqo_core::schema::Schema;
/// use tqo_core::value::DataType;
///
/// let schema = Schema::temporal(&[("E", DataType::Str)]);
/// let plan = PlanBuilder::scan("R", BaseProps::unordered(schema, 100))
///     .rdup_t()
///     .rdup_t() // redundant — both strategies eliminate it
///     .build_multiset();
/// let rules = RuleSet::standard();
/// let exhaustive = optimize(&plan, &rules, &OptimizerConfig::default()).unwrap();
/// let memo = optimize(
///     &plan,
///     &rules,
///     &OptimizerConfig { strategy: SearchStrategy::Memo, ..Default::default() },
/// )
/// .unwrap();
/// assert!((exhaustive.cost.0 - memo.cost.0).abs() <= 1e-9 * exhaustive.cost.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Figure 5's exhaustive closure: every equivalent plan materialized,
    /// deduplicated structurally, capped by `max_plans`. The oracle the
    /// memo strategy is validated against.
    #[default]
    Exhaustive,
    /// Cascades-style memo search ([`crate::memo`]): shared subtrees,
    /// context-gated groups, branch-and-bound extraction. Scales to rule
    /// closures whose materialized form exceeds any plan budget.
    Memo,
}

/// Optimizer configuration.
#[derive(Debug, Clone, Default)]
pub struct OptimizerConfig {
    /// The plan-search engine to use.
    pub strategy: SearchStrategy,
    /// Budgets for the exhaustive Figure 5 closure.
    pub enumeration: EnumerationConfig,
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
    /// Index of the best plan within the enumeration (0 for non-exhaustive
    /// strategies, whose searches are not index-addressable).
    pub best_index: usize,
    /// The rule applications that derived the best plan from the initial
    /// one.
    pub derivation: Vec<RuleApplication>,
    /// True when a search budget stopped the closure early: `best` is the
    /// best plan *found*, not necessarily the best plan overall.
    pub truncated: bool,
    /// Memo search-space counters (memo strategy only).
    pub memo: Option<MemoStats>,
    /// The full enumeration (for inspection; plan 0 is the input). Empty
    /// for non-exhaustive strategies.
    pub enumeration: Enumeration,
}

/// Optimize with the configured [`SearchStrategy`].
///
/// The initial plan is always part of the search space, so as long as it
/// is itself admissible the optimizer can never do worse than the input.
pub fn optimize(
    initial: &LogicalPlan,
    rules: &RuleSet,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    let mut span = trace::span(Category::Optimizer, "optimize");
    span.note_with(|| format!("\"strategy\": \"{:?}\"", config.strategy));
    let out = match config.strategy {
        SearchStrategy::Exhaustive => optimize_exhaustive(initial, rules, config),
        SearchStrategy::Memo => optimize_memo(initial, rules, config),
    };
    if let Ok(o) = &out {
        span.note_with(|| format!("\"cost\": {:.0}, \"truncated\": {}", o.cost.0, o.truncated));
    }
    out
}

/// Enumerate equivalent plans (Figure 5) and return the cheapest
/// admissible one.
pub fn optimize_exhaustive(
    initial: &LogicalPlan,
    rules: &RuleSet,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    let enumeration = {
        let mut span = trace::span(Category::Optimizer, "enumerate");
        let e = enumerate(initial, rules, config.enumeration)?;
        span.note_with(|| {
            format!(
                "\"plans\": {}, \"applications\": {}",
                e.plans.len(),
                e.applications
            )
        });
        e
    };
    counters::RULES_FIRED.add(enumeration.applications as u64);
    let mut best_index = 0;
    let mut best_cost = Cost::INVALID;
    for (i, candidate) in enumeration.plans.iter().enumerate() {
        let c = config.cost_model.cost(&candidate.plan)?;
        if c < best_cost {
            best_cost = c;
            best_index = i;
        }
    }
    let derivation = enumeration.derivation_chain(best_index);
    Ok(Optimized {
        best: enumeration.plans[best_index].plan.clone(),
        cost: best_cost,
        best_index,
        derivation,
        truncated: enumeration.truncated,
        memo: None,
        enumeration,
    })
}

/// Optimize by memo search (see [`crate::memo`]).
pub fn optimize_memo(
    initial: &LogicalPlan,
    rules: &RuleSet,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    let result = memo_search(initial, rules, &config.cost_model, config.memo)?;
    Ok(Optimized {
        best: result.best,
        cost: result.cost,
        best_index: 0,
        derivation: result.derivation,
        truncated: result.stats.truncated,
        memo: Some(result.stats),
        enumeration: Enumeration {
            plans: Vec::new(),
            truncated: false,
            applications: 0,
        },
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
