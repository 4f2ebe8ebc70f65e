//! Lowering: logical plans → physical plans.
//!
//! Algorithm selection is driven by the plan's operation properties
//! (Table 2): the fast algorithms produce output equivalent only at `≡M` or
//! `≡SM`, so they are admissible exactly where the properties say order
//! (and, for `≡SM`, periods) do not matter — the same machinery that gates
//! transformation rules in Figure 5 gates physical algorithms here.

use std::sync::Arc;

use tqo_core::error::Result;
use tqo_core::optimizer::{optimize, Optimized, OptimizerConfig, SearchStrategy};
use tqo_core::plan::props::{annotate, Annotations};
use tqo_core::plan::{LogicalPlan, Path, PlanNode};
use tqo_core::rules::RuleSet;

use crate::physical::{
    CoalesceAlgo, DifferenceTAlgo, PhysicalNode, PhysicalPlan, ProductTAlgo, RdupTAlgo,
};

/// Planner knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Allow the fast (weaker-equivalence) algorithms where the properties
    /// license them. With `false`, every operator is lowered to its
    /// specification-faithful algorithm — the A/B baseline.
    pub allow_fast: bool,
    /// Plan-search engine used by [`optimize_and_lower`]: the exhaustive
    /// Figure 5 closure or the memo optimizer.
    pub strategy: SearchStrategy,
    /// Execution engine [`crate::executor::execute_logical`] dispatches to
    /// (vectorized batch pipeline by default).
    pub mode: crate::executor::ExecMode,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            allow_fast: true,
            strategy: SearchStrategy::default(),
            mode: crate::executor::ExecMode::default(),
        }
    }
}

/// Lower a logical plan to a physical plan. Per-node row estimates from
/// the annotation ride along in post-order, so executed operators can
/// report estimated-vs-actual q-errors.
pub fn lower(plan: &LogicalPlan, config: PlannerConfig) -> Result<PhysicalPlan> {
    let mut span = tqo_core::trace::span(tqo_core::trace::Category::Planner, "lower");
    let ann = annotate(plan)?;
    let mut estimates = Vec::new();
    let root = lower_node(&plan.root, &mut Vec::new(), &ann, config, &mut estimates)?;
    span.note_with(|| {
        format!(
            "\"operators\": {}, \"engine\": \"{:?}\", \"fast\": {}",
            estimates.len(),
            config.mode,
            config.allow_fast
        )
    });
    Ok(PhysicalPlan::new(root).with_estimates(estimates))
}

/// The optimizer configuration a planner configuration implies: the
/// caller's search strategy, the cost model calibrated to the engine that
/// will execute the plan (`config.mode`).
pub(crate) fn optimizer_config(config: PlannerConfig) -> OptimizerConfig {
    OptimizerConfig {
        strategy: config.strategy,
        cost_model: tqo_core::cost::CostModel::calibrated(config.mode.engine())
            .with_fast_algorithms(config.allow_fast),
        ..OptimizerConfig::default()
    }
}

/// Optimize a logical plan with the configured search strategy, then lower
/// the winner to a physical plan.
pub fn optimize_and_lower(
    plan: &LogicalPlan,
    rules: &RuleSet,
    config: PlannerConfig,
) -> Result<(PhysicalPlan, Optimized)> {
    let optimized = optimize(plan, rules, &optimizer_config(config))?;
    let physical = lower(&optimized.best, config)?;
    Ok((physical, optimized))
}

fn lower_node(
    node: &PlanNode,
    path: &mut Path,
    ann: &Annotations,
    config: PlannerConfig,
    estimates: &mut Vec<Option<u64>>,
) -> Result<PhysicalNode> {
    let mut lowered_children = Vec::with_capacity(node.children().len());
    for (i, c) in node.children().iter().enumerate() {
        path.push(i);
        lowered_children.push(Arc::new(lower_node(c, path, ann, config, estimates)?));
        path.pop();
    }
    // Post-order, after the children: matches both engines' metric order.
    estimates.push(Some(ann[path.as_slice()].stat.card()));
    let mut kids = lowered_children.into_iter();
    let mut next = || kids.next().expect("child lowered");

    let flags = ann[path.as_slice()].flags;
    let child_stat = |ann: &Annotations, path: &Path, i: usize| {
        let mut p = path.clone();
        p.push(i);
        ann[&p].stat.clone()
    };

    Ok(match node {
        PlanNode::Scan { name, .. } => PhysicalNode::Scan { name: name.clone() },
        PlanNode::Select { predicate, .. } => PhysicalNode::Select {
            input: next(),
            predicate: predicate.clone(),
        },
        PlanNode::Project { items, .. } => PhysicalNode::Project {
            input: next(),
            items: items.clone(),
        },
        PlanNode::UnionAll { .. } => PhysicalNode::UnionAll {
            left: next(),
            right: next(),
        },
        PlanNode::Product { .. } => PhysicalNode::Product {
            left: next(),
            right: next(),
        },
        PlanNode::Difference { .. } => PhysicalNode::Difference {
            left: next(),
            right: next(),
        },
        PlanNode::Aggregate { group_by, aggs, .. } => PhysicalNode::Aggregate {
            input: next(),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        PlanNode::Rdup { .. } => PhysicalNode::Rdup { input: next() },
        PlanNode::UnionMax { .. } => PhysicalNode::UnionMax {
            left: next(),
            right: next(),
        },
        PlanNode::Sort { order, .. } => PhysicalNode::Sort {
            input: next(),
            order: order.clone(),
        },
        PlanNode::Limit { limit, offset, .. } => PhysicalNode::Limit {
            input: next(),
            limit: *limit,
            offset: *offset,
        },
        PlanNode::ProductT { .. } => {
            // Plane sweep reorders the output pairs: needs ¬OrderRequired.
            let algo = if config.allow_fast && !flags.order_required {
                ProductTAlgo::PlaneSweep
            } else {
                ProductTAlgo::NestedLoop
            };
            PhysicalNode::ProductT {
                left: next(),
                right: next(),
                algo,
            }
        }
        PlanNode::DifferenceT { .. } => {
            // Subtract-union is `≡SM` (needs the reordering and snapshot
            // licenses) and requires an sdf left argument. Within that
            // license the choice is statistics-driven: per-left-tuple
            // subtraction beats the timeline sweep only when the right
            // side is estimated much smaller than the left.
            let left = child_stat(ann, path, 0);
            let right = child_stat(ann, path, 1);
            let algo = if config.allow_fast
                && !flags.order_required
                && !flags.period_preserving
                && left.snapshot_dup_free
                && right.card().saturating_mul(16) <= left.card()
            {
                DifferenceTAlgo::SubtractUnion
            } else {
                DifferenceTAlgo::TimelineSweep
            };
            PhysicalNode::DifferenceT {
                left: next(),
                right: next(),
                algo,
            }
        }
        PlanNode::AggregateT { group_by, aggs, .. } => PhysicalNode::AggregateT {
            input: next(),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        PlanNode::RdupT { .. } => {
            // The sweep canonicalizes periods (≡SM): needs ¬OrderRequired
            // and ¬PeriodPreserving.
            let algo = if config.allow_fast && !flags.order_required && !flags.period_preserving {
                RdupTAlgo::Sweep
            } else {
                RdupTAlgo::Faithful
            };
            PhysicalNode::RdupT {
                input: next(),
                algo,
            }
        }
        PlanNode::UnionT { .. } => PhysicalNode::UnionT {
            left: next(),
            right: next(),
        },
        PlanNode::Coalesce { .. } => {
            // Sort-merge reorders (≡M) and is multiset-exact only for
            // snapshot-dup-free inputs; otherwise it needs the snapshot
            // license too.
            let input_sdf = child_stat(ann, path, 0).snapshot_dup_free;
            let algo = if config.allow_fast
                && !flags.order_required
                && (input_sdf || !flags.period_preserving)
            {
                CoalesceAlgo::SortMerge
            } else {
                CoalesceAlgo::Fixpoint
            };
            PhysicalNode::Coalesce {
                input: next(),
                algo,
            }
        }
        PlanNode::TransferS { .. } => PhysicalNode::TransferS { input: next() },
        PlanNode::TransferD { .. } => PhysicalNode::TransferD { input: next() },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::plan::{BaseProps, PlanBuilder};
    use tqo_core::schema::Schema;
    use tqo_core::sortspec::Order;
    use tqo_core::value::DataType;

    fn tscan(name: &str) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    #[test]
    fn fast_rdup_t_under_coalesce_in_multiset_query() {
        // coalT(rdupT(R)) as a multiset query: below coalᵀ periods need
        // not be preserved, order is not required → sweep.
        let plan = tscan("R").rdup_t().coalesce().build_multiset();
        let phys = lower(&plan, PlannerConfig::default()).unwrap();
        assert!(
            phys.explain().contains("rdup-t[Sweep]"),
            "{}",
            phys.explain()
        );
        assert!(phys.explain().contains("coalesce[SortMerge]"));
    }

    #[test]
    fn faithful_rdup_t_when_periods_matter() {
        // A bare rdupT feeding the result: periods must be preserved.
        let plan = tscan("R").rdup_t().build_multiset();
        let phys = lower(&plan, PlannerConfig::default()).unwrap();
        assert!(phys.explain().contains("rdup-t[Faithful]"));
    }

    #[test]
    fn faithful_everything_when_fast_disabled() {
        let plan = tscan("R").rdup_t().coalesce().build_multiset();
        let phys = lower(
            &plan,
            PlannerConfig {
                allow_fast: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(phys.explain().contains("rdup-t[Faithful]"));
        assert!(phys.explain().contains("coalesce[Fixpoint]"));
    }

    #[test]
    fn optimize_and_lower_agrees_across_strategies() {
        use tqo_core::rules::RuleSet;
        let plan = tscan("R").rdup_t().rdup_t().coalesce().build_multiset();
        let rules = RuleSet::standard();
        let (phys_ex, opt_ex) = optimize_and_lower(
            &plan,
            &rules,
            PlannerConfig {
                strategy: SearchStrategy::Exhaustive,
                ..Default::default()
            },
        )
        .unwrap();
        let (phys_memo, opt_memo) = optimize_and_lower(
            &plan,
            &rules,
            PlannerConfig {
                strategy: SearchStrategy::Memo,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((opt_ex.cost.0 - opt_memo.cost.0).abs() <= 1e-9 * opt_ex.cost.0.max(1.0));
        // Both strategies eliminated the redundant rdupT before lowering.
        assert!(phys_ex.explain().matches("rdup-t").count() <= 1);
        assert!(phys_memo.explain().matches("rdup-t").count() <= 1);
    }

    #[test]
    fn ordered_query_blocks_reordering_algorithms() {
        let plan = tscan("A")
            .product_t(tscan("B"))
            .build_list(Order::asc(&["1.E"]));
        let phys = lower(&plan, PlannerConfig::default()).unwrap();
        assert!(phys.explain().contains("product-t[NestedLoop]"));
        // Under a multiset query the sweep is allowed.
        let plan2 = tscan("A").product_t(tscan("B")).build_multiset();
        let phys2 = lower(&plan2, PlannerConfig::default()).unwrap();
        assert!(phys2.explain().contains("product-t[PlaneSweep]"));
    }
}
