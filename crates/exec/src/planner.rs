//! Lowering: logical plans → physical plans.
//!
//! Lowering is node-for-node and reads no Table 2 property: every operator
//! has one algorithm whose output is the operator's own list, so no
//! physical choice needs a license. Table 2 gates the *rewrites* of
//! Figure 5, in the optimizer. The one choice left is the hash equi-join:
//! a `σ` directly above `×` / `×ᵀ` whose predicate carries cross-input key
//! equalities lets the product match on them ([`EquiKeys`]), which yields
//! the sub-list of the product the select keeps anyway.

use std::sync::Arc;

use tqo_core::error::Result;
use tqo_core::expr::{BinOp, Expr};
use tqo_core::optimizer::{optimize, Optimized, OptimizerConfig, SearchStrategy};
use tqo_core::plan::props::{annotate, scaled_rows, Annotations};
use tqo_core::plan::{LogicalPlan, Path, PlanNode};
use tqo_core::rules::RuleSet;
use tqo_core::schema::Schema;
use tqo_core::stats::selectivity;
use tqo_core::value::Value;

use crate::physical::{EquiKeys, PhysicalNode, PhysicalPlan, ProductAlgo, ProductTAlgo};

/// Planner knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerConfig {
    /// Plan-search engine used by [`optimize_and_lower`]: the exhaustive
    /// Figure 5 closure or the memo optimizer.
    pub strategy: SearchStrategy,
    /// Ignored: every plan is priced for and runs on the batch pipeline
    /// (see [`crate::executor::ExecMode`]).
    pub mode: crate::executor::ExecMode,
}

/// Lower a logical plan to a physical plan. Per-node row estimates from
/// the annotation ride along in post-order, so executed operators can
/// report estimated-vs-actual q-errors. Lowering reads nothing from
/// `_config`; the argument keeps the planner's entry points uniform.
pub fn lower(plan: &LogicalPlan, _config: PlannerConfig) -> Result<PhysicalPlan> {
    let mut span = tqo_core::trace::span(tqo_core::trace::Category::Planner, "lower");
    let ann = annotate(plan)?;
    let mut estimates = Vec::new();
    let root = lower_node(&plan.root, &mut Vec::new(), &ann, &mut estimates)?;
    span.note_with(|| format!("\"operators\": {}", estimates.len()));
    Ok(PhysicalPlan::new(root).with_estimates(estimates))
}

/// The optimizer configuration a planner configuration implies: the
/// caller's search strategy, the cost model calibrated to the batch engine
/// that will execute the plan.
pub(crate) fn optimizer_config(config: PlannerConfig) -> OptimizerConfig {
    OptimizerConfig {
        strategy: config.strategy,
        cost_model: tqo_core::cost::CostModel::calibrated(),
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
    estimates: &mut Vec<Option<u64>>,
) -> Result<PhysicalNode> {
    let mut lowered_children = Vec::with_capacity(node.children().len());
    for (i, c) in node.children().iter().enumerate() {
        path.push(i);
        lowered_children.push(Arc::new(lower_node(c, path, ann, estimates)?));
        path.pop();
    }
    // Post-order, after the children: matches the engine's metric order.
    estimates.push(Some(ann[path.as_slice()].stat.card()));
    let mut kids = lowered_children.into_iter();
    let mut next = || kids.next().expect("child lowered");

    Ok(match node {
        PlanNode::Scan { name, .. } => PhysicalNode::Scan { name: name.clone() },
        PlanNode::Select {
            input: below,
            predicate,
        } => {
            // σ over × / ×ᵀ is the paper's join idiom: where the predicate
            // has equality conjuncts across the two inputs, the product
            // below matches on them instead of enumerating every pair.
            // Its output is then the key-matching sub-list of the product's
            // list, in the same order, and this select — unchanged,
            // still evaluating the whole predicate — yields the identical
            // list, so no Table 2 license is involved.
            let mut input = next();
            if matches!(
                **below,
                PlanNode::Product { .. } | PlanNode::ProductT { .. }
            ) {
                let stat_at = |tail: &[usize]| {
                    let mut p = path.clone();
                    p.extend_from_slice(tail);
                    &ann[&p].stat
                };
                let (product, left, right) = (stat_at(&[0]), stat_at(&[0, 0]), stat_at(&[0, 1]));
                if let Some(keys) =
                    equi_keys(predicate, &product.schema, &left.schema, &right.schema)
                {
                    // The product will emit the key-matching pairs only:
                    // its estimate (the slot before this select's own) is
                    // what the statistics say of the key equalities.
                    let matching = selectivity(&keys.predicate(), &product.schema, &product.stats);
                    let slot = estimates.len() - 2;
                    estimates[slot] = Some(scaled_rows(product.card(), matching));
                    input = Arc::new(matching_on(&input, keys));
                }
            }
            PhysicalNode::Select {
                input,
                predicate: predicate.clone(),
            }
        }
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
            algo: ProductAlgo::NestedLoop,
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
        PlanNode::ProductT { .. } => PhysicalNode::ProductT {
            left: next(),
            right: next(),
            algo: ProductTAlgo::Sweep,
        },
        PlanNode::DifferenceT { .. } => PhysicalNode::DifferenceT {
            left: next(),
            right: next(),
        },
        PlanNode::AggregateT { group_by, aggs, .. } => PhysicalNode::AggregateT {
            input: next(),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        PlanNode::RdupT { .. } => PhysicalNode::RdupT { input: next() },
        PlanNode::UnionT { .. } => PhysicalNode::UnionT {
            left: next(),
            right: next(),
        },
        PlanNode::Coalesce { .. } => PhysicalNode::Coalesce { input: next() },
        PlanNode::TransferS { .. } => PhysicalNode::TransferS { input: next() },
        PlanNode::TransferD { .. } => PhysicalNode::TransferD { input: next() },
    })
}

/// A lowered `×` or `×ᵀ` with the hash algorithm matching on `keys`.
fn matching_on(product: &PhysicalNode, keys: EquiKeys) -> PhysicalNode {
    match product {
        PhysicalNode::Product { left, right, .. } => PhysicalNode::Product {
            left: left.clone(),
            right: right.clone(),
            algo: ProductAlgo::HashEqui(keys),
        },
        PhysicalNode::ProductT { left, right, .. } => PhysicalNode::ProductT {
            left: left.clone(),
            right: right.clone(),
            algo: ProductTAlgo::HashEqui(keys),
        },
        other => unreachable!("a product lowers to a product, not {}", other.label()),
    }
}

/// The top-level conjuncts of a predicate, left to right.
fn conjuncts<'a>(predicate: &'a Expr, out: &mut Vec<&'a Expr>) {
    match predicate {
        Expr::Bin {
            op: BinOp::And,
            left,
            right,
        } => {
            conjuncts(left, out);
            conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// True when evaluating `e` over `schema` cannot fail on any tuple;
/// `as_bool` says the context reads the value as a Boolean.
fn infallible(e: &Expr, schema: &Schema, as_bool: bool) -> bool {
    match e {
        Expr::Col(name) => !as_bool && schema.index_of(name).is_some(),
        Expr::Lit(v) => !as_bool || matches!(v, Value::Bool(_) | Value::Null),
        Expr::NullOf(_) => true,
        Expr::IsNull(e) => infallible(e, schema, false),
        Expr::Not(e) => infallible(e, schema, true),
        Expr::Bin { op, left, right } if op.is_logical() => {
            infallible(left, schema, true) && infallible(right, schema, true)
        }
        Expr::Bin { op, left, right } if op.is_comparison() => {
            infallible(left, schema, false) && infallible(right, schema, false)
        }
        Expr::Bin { .. } => false,
    }
}

/// The keys a hash product below `σ[predicate]` may match on: the
/// top-level conjuncts `l.col = r.col` (either way round) whose two columns
/// share one non-float domain ([`EquiKeys::resolve`]'s rule; NULL keys
/// never satisfy `=`, so they match nothing). `None` when there is no such
/// conjunct, or when the predicate could fail on some pair: the select
/// will no longer see the pairs the keys reject, so it must not have been
/// able to raise an error on them.
fn equi_keys(
    predicate: &Expr,
    product: &Schema,
    left: &Schema,
    right: &Schema,
) -> Option<EquiKeys> {
    if !infallible(predicate, product, true) {
        return None;
    }
    let mut parts = Vec::new();
    conjuncts(predicate, &mut parts);
    let mut keys = Vec::new();
    for part in parts {
        let Expr::Bin {
            op: BinOp::Eq,
            left: a,
            right: b,
        } = part
        else {
            continue;
        };
        let (Expr::Col(a), Expr::Col(b)) = (&**a, &**b) else {
            continue;
        };
        for (l, r) in [(a, b), (b, a)] {
            let pair = EquiKeys(vec![(l.clone(), r.clone())]);
            if l.starts_with("1.") && r.starts_with("2.") && pair.resolve(left, right).is_ok() {
                keys.extend(pair.0);
            }
        }
    }
    (!keys.is_empty()).then_some(EquiKeys(keys))
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
    fn lowering_reads_no_table2_flag() {
        // coalT(rdupT(R)) as a multiset query: below coalᵀ, Table 2 frees
        // rdupᵀ from preserving order and periods; a bare rdupᵀ feeding a
        // multiset result must preserve its periods. Lowering reads neither
        // flag: both plans get the one rdupᵀ algorithm.
        let licensed = tscan("R").rdup_t().coalesce().build_multiset();
        let flags = annotate(&licensed).unwrap()[&[0usize][..]].flags;
        assert!(!flags.order_required && !flags.period_preserving);
        let bare = tscan("R").rdup_t().build_multiset();
        assert!(annotate(&bare).unwrap()[&[][..]].flags.period_preserving);
        assert_eq!(lowered(&licensed), "coalesce\n  rdup-t\n    scan(R)\n");
        assert_eq!(lowered(&bare), "rdup-t\n  scan(R)\n");
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
    fn one_temporal_product_for_lists_and_multisets() {
        let list = tscan("A")
            .product_t(tscan("B"))
            .build_list(Order::asc(&["1.E"]));
        let multiset = tscan("A").product_t(tscan("B")).build_multiset();
        assert!(
            lowered(&list).starts_with("product-t\n"),
            "{}",
            lowered(&list)
        );
        assert_eq!(lowered(&list), lowered(&multiset));
    }

    fn join_scan(name: &str) -> PlanBuilder {
        let s = Schema::of(&[
            ("K", DataType::Int),
            ("S", DataType::Str),
            ("F", DataType::Float),
        ]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    fn lowered(plan: &LogicalPlan) -> String {
        lower(plan, PlannerConfig::default()).unwrap().explain()
    }

    #[test]
    fn select_directly_above_a_product_picks_the_hash_join() {
        let keys = Expr::and(
            Expr::eq(Expr::col("1.K"), Expr::col("2.K")),
            Expr::and(
                Expr::lt(Expr::col("1.F"), Expr::col("2.F")),
                // Right-to-left is the same equality.
                Expr::eq(Expr::col("2.S"), Expr::col("1.S")),
            ),
        );
        let plan = join_scan("A")
            .product(join_scan("B"))
            .select(keys)
            .build_list(Order::asc(&["1.K"]));
        assert!(
            lowered(&plan).contains("product[HashEqui(1.K=2.K,1.S=2.S)]"),
            "{}",
            lowered(&plan)
        );

        // ×ᵀ: the hash join is the sweep's sub-list, so it serves lists too.
        let plan = tscan("A")
            .product_t(tscan("B"))
            .select(Expr::eq(Expr::col("1.E"), Expr::col("2.E")))
            .build_list(Order::asc(&["1.E"]));
        assert!(lowered(&plan).contains("product-t[HashEqui(1.E=2.E)]"));
    }

    #[test]
    fn no_hash_join_without_a_usable_top_level_equality() {
        let eq = |l: &str, r: &str| Expr::eq(Expr::col(l), Expr::col(r));
        let product = || join_scan("A").product(join_scan("B"));
        let plain = |plan: LogicalPlan| {
            let text = lowered(&plan);
            assert!(!text.contains("HashEqui"), "{text}");
        };
        // The select is not directly above the product.
        plain(
            product()
                .project_cols(&["1.K", "2.K"])
                .select(eq("1.K", "2.K"))
                .build_multiset(),
        );
        // The equality sits under an OR.
        plain(
            product()
                .select(Expr::or(
                    eq("1.K", "2.K"),
                    Expr::lt(Expr::col("1.F"), Expr::lit(0.5f64)),
                ))
                .build_multiset(),
        );
        // Different domains, floats, one side only, a literal.
        for pred in [
            eq("1.K", "2.S"),
            eq("1.F", "2.F"),
            eq("1.K", "1.K"),
            Expr::eq(Expr::col("1.K"), Expr::lit(3i64)),
        ] {
            plain(product().select(pred).build_multiset());
        }
        // A conjunct that can fail: the select must keep seeing every pair.
        plain(
            product()
                .select(Expr::and(
                    eq("1.K", "2.K"),
                    Expr::lt(
                        Expr::bin(BinOp::Div, Expr::col("1.K"), Expr::col("2.K")),
                        Expr::lit(2i64),
                    ),
                ))
                .build_multiset(),
        );
    }
}
