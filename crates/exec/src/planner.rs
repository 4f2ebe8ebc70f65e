//! Lowering: logical plans → physical plans.
//!
//! Lowering keeps the logical tree and reads no Table 2 property: every
//! operator has one algorithm whose output is the operator's own list, so
//! no physical choice needs a license. Table 2 gates the *rewrites* of
//! Figure 5, in the optimizer. What lowering adds is one [`NodeFacts`] per
//! node from the plan's one annotation pass: the row estimate, the output
//! schema, and the one choice left — a `σ` directly above `×` / `×ᵀ` whose
//! predicate carries cross-input key equalities lets the product match on
//! them ([`equi_keys`]), which yields the sub-list of the product the
//! select keeps anyway.

use std::sync::Arc;

use tqo_core::error::Result;
use tqo_core::expr::Expr;
use tqo_core::optimizer::{optimize, Optimized, OptimizerConfig};
use tqo_core::plan::props::{annotate, scaled_rows, Annotations};
use tqo_core::plan::{equi_keys, LogicalPlan, Path, PlanNode};
use tqo_core::rules::RuleSet;
use tqo_core::stats::selectivity;

use crate::physical::{NodeFacts, PhysicalPlan};

/// Planner knobs. None is read: the struct stays only because the
/// benchmark's per-layer probe (`benchmark/src/bin/layers.rs`) builds one
/// with `mode`; make it a unit struct, or delete it, with that probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlannerConfig {
    /// Ignored: every plan is priced for and runs on the batch pipeline
    /// (see [`crate::executor::ExecMode`]).
    pub mode: crate::executor::ExecMode,
}

/// Lower a logical plan to a physical plan: the same tree with one
/// [`NodeFacts`] per node in post-order, so executed operators can report
/// estimated-vs-actual q-errors. Lowering reads nothing from `_config`;
/// the argument keeps the planner's entry points uniform.
pub fn lower(plan: &LogicalPlan, _config: PlannerConfig) -> Result<PhysicalPlan> {
    let mut span = tqo_core::trace::span(tqo_core::trace::Category::Planner, "lower");
    let mut ann = annotate(plan)?;
    let mut facts = Vec::new();
    collect_facts(&plan.root, &mut Vec::new(), None, &mut ann, &mut facts);
    span.note_with(|| format!("\"operators\": {}", facts.len()));
    Ok(PhysicalPlan::from_parts(Arc::clone(&plan.root), facts))
}

/// Append the facts of `node`'s subtree in post-order (children first,
/// matching the engine's metric order), moving each node's annotation out
/// of `ann`. `above` is the predicate of a `σ` directly above `node`.
fn collect_facts(
    node: &PlanNode,
    path: &mut Path,
    above: Option<&Expr>,
    ann: &mut Annotations,
    facts: &mut Vec<NodeFacts>,
) {
    let predicate = match node {
        PlanNode::Select { predicate, .. } => Some(predicate),
        _ => None,
    };
    for (i, c) in node.children().iter().enumerate() {
        path.push(i);
        collect_facts(c, path, predicate, ann, facts);
        path.pop();
    }
    let stat = ann
        .remove(path.as_slice())
        .expect("annotate covers every node")
        .stat;
    // σ over × / ×ᵀ is the paper's join idiom: where the predicate has
    // equality conjuncts across the two inputs, the product matches on
    // them instead of enumerating every pair. Its output is then the
    // key-matching sub-list of its own list, in the same order, and the
    // select — unchanged, still evaluating the whole predicate — yields
    // the identical list, so no Table 2 license is involved.
    let keys = match node {
        PlanNode::Product { .. } | PlanNode::ProductT { .. } => {
            above.and_then(|p| equi_keys(p, &stat.schema))
        }
        _ => None,
    };
    // A hash product emits the key-matching pairs only: its estimate is
    // what the statistics say of the key equalities.
    let rows = match &keys {
        Some(keys) => scaled_rows(
            stat.card(),
            selectivity(&keys.predicate(), &stat.schema, &stat.stats),
        ),
        None => stat.card(),
    };
    facts.push(NodeFacts {
        rows: Some(rows),
        schema: Arc::new(stat.schema),
        keys,
    });
}

/// Optimize a logical plan, pricing it with the cost model calibrated to
/// the batch engine that will execute it, then lower the winner to a
/// physical plan.
pub fn optimize_and_lower(
    plan: &LogicalPlan,
    rules: &RuleSet,
    config: PlannerConfig,
) -> Result<(PhysicalPlan, Optimized)> {
    let search = OptimizerConfig {
        cost_model: tqo_core::cost::CostModel::calibrated(),
        ..OptimizerConfig::default()
    };
    let optimized = optimize(plan, rules, &search)?;
    let physical = lower(&optimized.best, config)?;
    Ok((physical, optimized))
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
    fn optimize_and_lower_finds_the_closures_calibrated_optimum() {
        use tqo_core::cost::CostModel;
        use tqo_core::enumerate::{enumerate, EnumerationConfig};
        use tqo_core::rules::RuleSet;
        let plan = tscan("R").rdup_t().rdup_t().coalesce().build_multiset();
        let rules = RuleSet::standard();
        let (physical, optimized) =
            optimize_and_lower(&plan, &rules, PlannerConfig::default()).unwrap();
        assert!(!optimized.truncated);
        // The memo matches the Figure 5 closure's optimum under the cost
        // model every production caller prices with.
        let closure = enumerate(&plan, &rules, EnumerationConfig::default()).unwrap();
        assert!(!closure.truncated);
        let (_, oracle) = closure.cheapest(&CostModel::calibrated()).unwrap();
        assert!(
            (oracle.0 - optimized.cost.0).abs() <= 1e-9 * oracle.0.max(1.0),
            "{oracle:?} vs {:?}",
            optimized.cost
        );
        // The redundant rdupT is gone before lowering.
        assert!(physical.explain().matches("rdup-t").count() <= 1);
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

    #[test]
    fn lowering_refuses_every_ill_typed_plan() {
        use std::mem::discriminant;
        use tqo_core::error::Error;
        let snapshot = || {
            let s = Schema::of(&[("E", DataType::Str)]);
            PlanBuilder::scan("S", BaseProps::unordered(s, 100))
        };
        let unknown = Error::UnknownAttribute {
            name: String::new(),
            schema: String::new(),
        };
        let plan = Error::Plan {
            reason: String::new(),
        };
        let not_temporal = Error::NotTemporal { context: "" };
        let mismatch = Error::SchemaMismatch {
            left: String::new(),
            right: String::new(),
            context: "",
        };
        let cases = [
            (
                "sort on a missing key",
                tscan("R").sort(Order::asc(&["X"])),
                &unknown,
            ),
            ("empty π", tscan("R").project(Vec::new()), &plan),
            (
                "ξ without groups or aggregates",
                tscan("R").aggregate(Vec::new(), Vec::new()),
                &plan,
            ),
            ("rdupᵀ of a snapshot", snapshot().rdup_t(), &not_temporal),
            ("coalᵀ of a snapshot", snapshot().coalesce(), &not_temporal),
            (
                "\\ᵀ of snapshots",
                snapshot().difference_t(snapshot()),
                &not_temporal,
            ),
            (
                "∪ᵀ of snapshots",
                snapshot().union_t(snapshot()),
                &not_temporal,
            ),
            (
                "incompatible ⊔",
                snapshot().union_all(join_scan("B")),
                &mismatch,
            ),
            (
                "incompatible ∪",
                snapshot().union_max(join_scan("B")),
                &mismatch,
            ),
            (
                "incompatible \\",
                snapshot().difference(join_scan("B")),
                &mismatch,
            ),
        ];
        for (what, plan, expected) in cases {
            let err = lower(&plan.build_multiset(), PlannerConfig::default()).expect_err(what);
            assert_eq!(discriminant(&err), discriminant(expected), "{what}: {err}");
        }
    }

    fn lowered(plan: &LogicalPlan) -> String {
        lower(plan, PlannerConfig::default()).unwrap().explain()
    }

    #[test]
    fn only_a_product_directly_under_a_select_runs_as_a_hash_join() {
        let eq = Expr::eq(Expr::col("1.K"), Expr::col("2.K"));
        let product = || join_scan("A").product(join_scan("B"));
        let joined = product().select(eq.clone()).build_multiset();
        assert_eq!(
            lowered(&joined),
            "select\n  product[HashEqui(1.K=2.K)]\n    scan(A)\n    scan(B)\n"
        );
        // The product's estimate is the key-matching pairs, not all of them.
        let facts = lower(&joined, PlannerConfig::default()).unwrap();
        let product_rows = facts.facts()[2].rows.unwrap();
        assert!(product_rows < 100 * 100, "{product_rows}");
        // The select is not directly above the product.
        let apart = product()
            .project_cols(&["1.K", "2.K"])
            .select(eq)
            .build_multiset();
        assert!(!lowered(&apart).contains("HashEqui"), "{}", lowered(&apart));
    }
}
