//! The memo optimizer's public entry point: explore, then extract.

use std::sync::Arc;

use crate::cost::{Cost, CostEstimator};
use crate::enumerate::RuleApplication;
use crate::error::{Error, Result};
use crate::memo::extract::Extractor;
use crate::memo::group::{Memo, MemoCtx};
use crate::memo::task::{Explorer, Task};
use crate::memo::MemoConfig;
use crate::plan::props::PropsFlags;
use crate::plan::{LogicalPlan, Path, PlanNode};
use crate::rules::conventional::{compose_projections, ProjectCompose};
use crate::rules::{Rule, RuleSet};
use crate::trace::{self, counters, Category};

/// Search-space counters (compare `exprs` with the Figure 5 closure's
/// plan count).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoStats {
    /// Distinct equivalence groups after merging.
    pub groups: usize,
    /// Distinct expressions — the memo's materialization footprint, the
    /// analogue of the enumerator's `plans.len()`.
    pub exprs: usize,
    /// Exploration tasks executed.
    pub tasks: usize,
    /// Concrete bindings materialized for rule matching.
    pub bindings: usize,
    /// Rule applications attempted.
    pub applications: usize,
    /// True when a budget stopped exploration early.
    pub truncated: bool,
}

/// The memo optimizer's output.
#[derive(Debug)]
pub struct MemoResult {
    /// The cheapest admissible plan found.
    pub best: LogicalPlan,
    /// Its estimated cost under the supplied model.
    pub cost: Cost,
    /// Rule applications realized in `best`, relative to its root
    /// (`parent` indices are not meaningful for memo search and are 0).
    pub derivation: Vec<RuleApplication>,
    /// Memo-search statistics (groups, expressions, tasks).
    pub stats: MemoStats,
}

/// How much cheaper, relatively, an extracted plan must be than the input
/// to replace it.
const TIE: f64 = 1e-9;

/// Optimize `initial` by memo search: build the group/expression table,
/// close it under `rules` with the Figure 5 admissibility gating, and
/// extract the cheapest plan against `cost_model`, pruned by the initial
/// plan's cost. The initial plan is returned unless the cheapest is
/// cheaper by more than a relative 1e-9.
pub fn memo_search(
    initial: &LogicalPlan,
    rules: &RuleSet,
    cost_model: &dyn CostEstimator,
    config: MemoConfig,
) -> Result<MemoResult> {
    let compose = rules.by_name(ProjectCompose.name()).is_some();
    let mut memo = Memo::new(compose);
    let root_expr = memo
        .insert_subtree(&initial.root, config.max_exprs)
        .ok_or_else(|| Error::Plan {
            reason: format!(
                "memo expression budget {} cannot hold the initial plan",
                config.max_exprs
            ),
        })?;
    let root_ctx = MemoCtx {
        flags: PropsFlags::for_result_type(&initial.result_type),
        site: initial.root_site,
    };

    let mut explorer = Explorer::new(memo, rules, config);
    explorer.schedule(Task {
        expr: root_expr,
        ctx: root_ctx,
    });
    {
        let mut span = trace::span(Category::Optimizer, "memo.explore");
        explorer.run()?;
        let s = &explorer.stats;
        let memo = &explorer.memo;
        span.note_with(|| {
            format!(
                "\"groups\": {}, \"exprs\": {}, \"tasks\": {}, \"applications\": {}",
                memo.group_count(),
                memo.expr_count(),
                s.tasks,
                s.applications
            )
        });
    }

    let explore_stats = explorer.stats;
    let mut memo = explorer.memo;
    counters::MEMO_GROUPS.add(memo.group_count() as u64);
    counters::MEMO_EXPRS.add(memo.expr_count() as u64);
    counters::RULES_FIRED.add(explore_stats.applications as u64);

    // Branch-and-bound anchor: the input plan is always available, so no
    // optimal plan costs more.
    let upper = match cost_model.estimate_plan(initial)? {
        c if c.is_valid() => c.0,
        _ => f64::INFINITY,
    };

    let stats_snapshot = |memo: &Memo, truncated: bool| MemoStats {
        groups: memo.group_count(),
        exprs: memo.expr_count(),
        tasks: explore_stats.tasks,
        bindings: explore_stats.bindings,
        applications: explore_stats.applications,
        truncated,
    };

    let extract_span = trace::span(Category::Optimizer, "memo.extract");
    let (best, converged) =
        Extractor::new(&mut memo, cost_model, config).best(root_expr, root_ctx, upper)?;
    drop(extract_span);
    let truncated = explore_stats.truncated || !converged;
    match best {
        // The input stands unless the search found a plan cheaper by more
        // than rounding: two sums of one plan's costs in different orders
        // differ in the last bits, and a rewrite that buys nothing the
        // model can price is a risk the model cannot see.
        Some((entry, applications)) if entry.cost < upper * (1.0 - TIE) => {
            let stats = stats_snapshot(&memo, truncated);
            let mut derivation = if compose {
                entry_compositions(&initial.root)
            } else {
                Vec::new()
            };
            derivation.extend(applications);
            Ok(MemoResult {
                best: LogicalPlan {
                    root: entry.node()?,
                    result_type: initial.result_type.clone(),
                    root_site: initial.root_site,
                },
                cost: Cost(entry.cost),
                derivation,
                stats,
            })
        }
        // No cheaper plan, or no admissible extraction (e.g. the input
        // plan itself prices as invalid): the input, like Figure 5's
        // closure whose enumeration always contains plan 0.
        _ => Ok(MemoResult {
            best: initial.clone(),
            cost: Cost(upper),
            derivation: Vec::new(),
            stats: stats_snapshot(&memo, truncated),
        }),
    }
}

/// The `project-compose` applications [`Memo::insert_subtree`] performs
/// as `root` enters the memo, in the order it performs them: each
/// location is a path in the plan as it stands once the compositions
/// before it have fired. The memo holds only the composed tree, so these
/// lead every derivation it extracts.
fn entry_compositions(root: &Arc<PlanNode>) -> Vec<RuleApplication> {
    fn walk(node: &Arc<PlanNode>, path: &mut Path, out: &mut Vec<RuleApplication>) {
        let mut node = Arc::clone(node);
        while let Some(composed) = compose_projections(&node) {
            out.push(RuleApplication {
                rule: ProjectCompose.name().to_string(),
                equivalence: ProjectCompose.equivalence(),
                location: path.clone(),
                parent: 0,
            });
            node = Arc::new(composed);
        }
        for (i, child) in node.children().iter().enumerate() {
            path.push(i);
            walk(child, path, out);
            path.pop();
        }
    }
    let mut out = Vec::new();
    walk(root, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::expr::Expr;
    use crate::plan::{BaseProps, PlanBuilder};
    use crate::schema::Schema;
    use crate::sortspec::Order;
    use crate::value::DataType;

    fn tscan(name: &str, card: u64) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, card))
    }

    #[test]
    fn memo_reduces_redundant_rdup_t() {
        let plan = tscan("R", 1000).rdup_t().rdup_t().build_multiset();
        let out = memo_search(
            &plan,
            &RuleSet::standard(),
            &CostModel::default(),
            MemoConfig::default(),
        )
        .unwrap();
        assert!(
            out.best.root.size() < plan.root.size(),
            "best: {:?}",
            out.best.root
        );
        assert!(!out.derivation.is_empty());
    }

    #[test]
    fn memo_never_worse_than_input() {
        let plan = tscan("A", 1000)
            .rdup_t()
            .difference_t(tscan("B", 1000))
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["E"]))
            .build_list(Order::asc(&["E"]));
        let model = CostModel::default();
        let input_cost = model.cost(&plan).unwrap();
        let out = memo_search(&plan, &RuleSet::standard(), &model, MemoConfig::default()).unwrap();
        assert!(out.cost <= input_cost);
        assert!(out.cost.is_valid());
    }

    #[test]
    fn memo_respects_list_context() {
        // A list query must keep its sort.
        let plan = tscan("R", 100)
            .sort(Order::asc(&["E"]))
            .build_list(Order::asc(&["E"]));
        let out = memo_search(
            &plan,
            &RuleSet::figure4(),
            &CostModel::default(),
            MemoConfig::default(),
        )
        .unwrap();
        assert_eq!(out.best.root.op_name(), "sort");
        // The same plan as a multiset query may drop it.
        let plan2 = tscan("R", 100).sort(Order::asc(&["E"])).build_multiset();
        let out2 = memo_search(
            &plan2,
            &RuleSet::figure4(),
            &CostModel::default(),
            MemoConfig::default(),
        )
        .unwrap();
        assert_eq!(out2.best.root.op_name(), "scan");
    }

    #[test]
    fn a_composed_input_cascade_leads_the_derivation() {
        let cols = ["E", "T1", "T2"];
        let plan = tscan("R", 100)
            .project_cols(&cols)
            .project_cols(&cols)
            .project_cols(&cols)
            .rdup_t()
            .build_multiset();
        let out = memo_search(
            &plan,
            &RuleSet::standard(),
            &CostModel::default(),
            MemoConfig::default(),
        )
        .unwrap();
        assert_ne!(out.best.root, plan.root);
        let leading: Vec<_> = out
            .derivation
            .iter()
            .take(2)
            .map(|app| (app.rule.as_str(), app.location.clone()))
            .collect();
        assert_eq!(
            leading,
            [("project-compose", vec![0]), ("project-compose", vec![0])]
        );
    }

    #[test]
    fn a_layered_join_closes_in_a_small_memo() {
        // σ(×(Tˢ a, Tˢ b)): every product swap wraps a remapping π, and the
        // transfer rules move those π's across Tˢ. Composed on insert, the
        // cascades collapse and the memo closes small; uncomposed, they
        // stack one swap-π deeper per round until the budget stops them.
        let plan = tscan("A", 1000)
            .transfer_s()
            .product(tscan("B", 1000).transfer_s())
            .select(Expr::eq(Expr::col("1.E"), Expr::col("2.E")))
            .build_multiset();
        let out = memo_search(
            &plan,
            &RuleSet::standard(),
            &CostModel::default(),
            MemoConfig::default(),
        )
        .unwrap();
        assert!(!out.stats.truncated);
        assert!(out.stats.exprs < 64, "{} expressions", out.stats.exprs);
    }

    #[test]
    fn memo_prefers_dbms_sort() {
        let plan = tscan("R", 100_000)
            .transfer_s()
            .sort(Order::asc(&["E"]))
            .build_list(Order::asc(&["E"]));
        let out = memo_search(
            &plan,
            &RuleSet::standard(),
            &CostModel::default(),
            MemoConfig::default(),
        )
        .unwrap();
        assert_eq!(out.best.root.op_name(), "TS");
        assert_eq!(out.best.root.get(&[0]).unwrap().op_name(), "sort");
    }
}
