//! Lowered plans: the logical plan tree plus what lowering learned about
//! each of its nodes.
//!
//! Every operator has one algorithm, so the logical tree is the physical
//! plan. The one choice the engine reads beyond the tree — a `×` / `×ᵀ`
//! running as a hash equi-join — rides in the product's [`NodeFacts`],
//! beside the row estimate and the output schema. Only
//! [`crate::planner::lower`] builds a [`PhysicalPlan`] (the stage cutter
//! slices one), so a hash product exists only where lowering put it.

use std::fmt;
use std::sync::Arc;

use tqo_core::plan::{EquiKeys, PlanNode};
use tqo_core::schema::Schema;

/// What lowering knows about one node of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeFacts {
    /// Estimated output rows, from the optimizer's `DerivedStats`; `None`
    /// on a stage's synthetic scan, which estimates nothing.
    pub rows: Option<u64>,
    /// The node's output schema.
    pub schema: Arc<Schema>,
    /// On a `×` / `×ᵀ` directly under a `σ` with usable key equalities
    /// ([`tqo_core::plan::equi_keys`]): the keys the product matches on as
    /// a hash join. `None` on every other node.
    pub keys: Option<EquiKeys>,
}

/// A lowered plan: the logical tree and one [`NodeFacts`] per node, in
/// post-order — the order the engine emits
/// [`crate::metrics::OperatorMetrics`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    root: Arc<PlanNode>,
    facts: Vec<NodeFacts>,
}

impl PhysicalPlan {
    /// A plan from a tree and its post-order facts (one per node).
    pub(crate) fn from_parts(root: Arc<PlanNode>, facts: Vec<NodeFacts>) -> PhysicalPlan {
        debug_assert_eq!(facts.len(), root.size(), "one fact per node");
        PhysicalPlan { root, facts }
    }

    /// The root operator.
    pub fn root(&self) -> &Arc<PlanNode> {
        &self.root
    }

    /// Per-node facts in post-order.
    pub fn facts(&self) -> &[NodeFacts] {
        &self.facts
    }

    /// Every node in pre-order (the order a tree prints in), with its
    /// depth and its post-order index into [`PhysicalPlan::facts`] and
    /// the engine's metrics.
    pub fn pre_order(&self) -> Vec<(usize, usize, &PlanNode)> {
        fn visit<'a>(
            node: &'a PlanNode,
            depth: usize,
            next: &mut usize,
            out: &mut Vec<(usize, usize, &'a PlanNode)>,
        ) {
            let slot = out.len();
            out.push((depth, 0, node));
            for c in node.children() {
                visit(c, depth + 1, next, out);
            }
            out[slot].1 = *next;
            *next += 1;
        }
        let mut out = Vec::with_capacity(self.facts.len());
        visit(&self.root, 0, &mut 0, &mut out);
        out
    }

    /// Textual EXPLAIN of the lowered tree: one engine label per line.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (depth, i, node) in self.pre_order() {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&label(node, &self.facts[i]));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// The engine's label for `node`, including its algorithm where the
/// label names one — for metrics and EXPLAIN.
pub fn label(node: &PlanNode, facts: &NodeFacts) -> String {
    let keys = facts.keys.as_ref();
    match node {
        PlanNode::Scan { name, .. } => format!("scan({name})"),
        PlanNode::Select { .. } => "select".into(),
        PlanNode::Project { .. } => "project".into(),
        PlanNode::UnionAll { .. } => "union-all".into(),
        PlanNode::Product { .. } => match keys {
            None => "product".into(),
            Some(keys) => format!("product[HashEqui({keys})]"),
        },
        PlanNode::Difference { .. } => "difference".into(),
        PlanNode::Aggregate { .. } => "aggregate".into(),
        PlanNode::Rdup { .. } => "rdup[hash]".into(),
        PlanNode::UnionMax { .. } => "union-max".into(),
        PlanNode::Sort { .. } => "sort[stable]".into(),
        PlanNode::Limit { limit, offset, .. } => match limit {
            Some(n) => format!("limit[{n} offset {offset}]"),
            None => format!("limit[all offset {offset}]"),
        },
        PlanNode::ProductT { .. } => match keys {
            None => "product-t".into(),
            Some(keys) => format!("product-t[HashEqui({keys})]"),
        },
        PlanNode::DifferenceT { .. } => "difference-t".into(),
        PlanNode::AggregateT { .. } => "aggregate-t[sweep]".into(),
        PlanNode::RdupT { .. } => "rdup-t".into(),
        PlanNode::UnionT { .. } => "union-t".into(),
        PlanNode::Coalesce { .. } => "coalesce".into(),
        PlanNode::TransferS { .. } => "transfer-s".into(),
        PlanNode::TransferD { .. } => "transfer-d".into(),
    }
}

#[cfg(test)]
mod tests {
    use crate::planner::{lower, PlannerConfig};
    use tqo_core::expr::Expr;
    use tqo_core::plan::{BaseProps, PlanBuilder};
    use tqo_core::schema::Schema;
    use tqo_core::sortspec::Order;
    use tqo_core::value::DataType;

    fn tscan(name: &str) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    #[test]
    fn labels_include_algorithms() {
        let plan = tscan("R")
            .product_t(tscan("S"))
            .select(Expr::eq(Expr::col("1.E"), Expr::col("2.E")))
            .build_multiset();
        let plan = lower(&plan, PlannerConfig::default()).unwrap();
        assert_eq!(
            plan.explain(),
            "select\n  product-t[HashEqui(1.E=2.E)]\n    scan(R)\n    scan(S)\n"
        );
    }

    #[test]
    fn pre_order_pairs_each_node_with_its_post_order_facts() {
        let plan = tscan("R")
            .rdup_t()
            .difference_t(tscan("S"))
            .coalesce()
            .sort(Order::asc(&["E"]))
            .build_multiset();
        let plan = lower(&plan, PlannerConfig::default()).unwrap();
        let order: Vec<_> = plan
            .pre_order()
            .into_iter()
            .map(|(depth, i, node)| (depth, i, node.op_name()))
            .collect();
        assert_eq!(
            order,
            [
                (0, 5, "sort"),
                (1, 4, "coalT"),
                (2, 3, "\\T"),
                (3, 1, "rdupT"),
                (4, 0, "scan"),
                (3, 2, "scan"),
            ]
        );
        assert_eq!(plan.facts().len(), plan.root().size());
    }
}
