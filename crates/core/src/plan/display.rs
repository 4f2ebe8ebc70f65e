//! Pretty-printing of plans, optionally annotated with the Figure 6 style
//! property vectors `[OrderRequired DuplicatesRelevant PeriodPreserving]`.

use std::fmt::Write as _;

use crate::cost::{CostEstimator, CostModel};
use crate::error::Result;
use crate::plan::props::{annotate, Annotations, StaticProps};
use crate::plan::{LogicalPlan, Path, PlanNode, Site};

/// One-line description of a node (operator plus its parameters).
pub fn describe(node: &PlanNode) -> String {
    match node {
        PlanNode::Scan { name, .. } => format!("scan {name}"),
        PlanNode::Select { predicate, .. } => format!("σ[{predicate}]"),
        PlanNode::Project { items, .. } => {
            let cols: Vec<String> = items.iter().map(|i| i.to_string()).collect();
            format!("π[{}]", cols.join(", "))
        }
        PlanNode::UnionAll { .. } => "⊔".into(),
        PlanNode::Product { .. } => "×".into(),
        PlanNode::Difference { .. } => "\\".into(),
        PlanNode::Aggregate { group_by, aggs, .. } => {
            let a: Vec<String> = aggs.iter().map(|x| x.to_string()).collect();
            format!("ξ[{} ; {}]", group_by.join(", "), a.join(", "))
        }
        PlanNode::Rdup { .. } => "rdup".into(),
        PlanNode::UnionMax { .. } => "∪".into(),
        PlanNode::Sort { order, .. } => format!("sort{order}"),
        PlanNode::Limit { limit, offset, .. } => match limit {
            Some(n) => format!("limit[{n} offset {offset}]"),
            None => format!("limit[∞ offset {offset}]"),
        },
        PlanNode::ProductT { .. } => "×T".into(),
        PlanNode::DifferenceT { .. } => "\\T".into(),
        PlanNode::AggregateT { group_by, aggs, .. } => {
            let a: Vec<String> = aggs.iter().map(|x| x.to_string()).collect();
            format!("ξT[{} ; {}]", group_by.join(", "), a.join(", "))
        }
        PlanNode::RdupT { .. } => "rdupT".into(),
        PlanNode::UnionT { .. } => "∪T".into(),
        PlanNode::Coalesce { .. } => "coalT".into(),
        PlanNode::TransferS { .. } => "TS".into(),
        PlanNode::TransferD { .. } => "TD".into(),
    }
}

fn render(
    node: &PlanNode,
    path: &mut Vec<usize>,
    ann: Option<&Annotations>,
    indent: usize,
    out: &mut String,
) {
    let pad = "  ".repeat(indent);
    let mut line = format!("{pad}{}", describe(node));
    if let Some(ann) = ann {
        if let Some(props) = ann.get(path) {
            let site = match props.site {
                Site::Stratum => "stratum",
                Site::Dbms => "dbms",
            };
            let _ = write!(
                line,
                "  {}  @{site}  order={} card≈{}",
                props.flags.vector(),
                props.stat.order,
                props.stat.card()
            );
        }
    }
    out.push_str(&line);
    out.push('\n');
    for (i, c) in node.children().iter().enumerate() {
        path.push(i);
        render(c, path, ann, indent + 1, out);
        path.pop();
    }
}

/// Render a bare plan tree.
pub fn plan_to_string(node: &PlanNode) -> String {
    let mut out = String::new();
    render(node, &mut Vec::new(), None, 0, &mut out);
    out
}

/// Render a plan with the Figure 6 property vectors per node.
pub fn annotated_to_string(plan: &LogicalPlan) -> Result<String> {
    let ann = annotate(plan)?;
    let mut out = String::new();
    render(&plan.root, &mut Vec::new(), Some(&ann), 0, &mut out);
    Ok(out)
}

/// EXPLAIN-style rendering: per node, the chosen site, the estimated
/// output rows, and the estimated cost contribution under `model` — the
/// statistics-driven view of a plan next to its shape.
pub fn explain_with_cost(plan: &LogicalPlan, model: &CostModel) -> Result<String> {
    let ann = annotate(plan)?;
    fn render_cost(
        node: &PlanNode,
        path: &mut Path,
        ann: &Annotations,
        model: &CostModel,
        indent: usize,
        out: &mut String,
    ) {
        let props = &ann[path.as_slice()];
        let child_stats: Vec<&StaticProps> = (0..node.children().len())
            .map(|i| {
                let mut p = path.clone();
                p.push(i);
                &*ann[&p].stat
            })
            .collect();
        let cost = model.estimate_node(node, &props.stat, &child_stats, props.site);
        let site = match props.site {
            Site::Stratum => "stratum",
            Site::Dbms => "dbms",
        };
        let cost_text = match cost {
            Some(c) => format!("{c:.0}"),
            None => "INVALID".into(),
        };
        let _ = writeln!(
            out,
            "{pad}{desc}  @{site}  rows≈{rows}  cost≈{cost_text}",
            pad = "  ".repeat(indent),
            desc = describe(node),
            rows = props.stat.card(),
        );
        for (i, c) in node.children().iter().enumerate() {
            path.push(i);
            render_cost(c, path, ann, model, indent + 1, out);
            path.pop();
        }
    }
    let mut out = String::new();
    render_cost(&plan.root, &mut Vec::new(), &ann, model, 0, &mut out);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::ResultType;
    use crate::plan::{BaseProps, PlanBuilder};
    use crate::schema::Schema;
    use crate::sortspec::Order;
    use crate::value::DataType;

    #[test]
    fn renders_tree_shape() {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        let plan = PlanBuilder::scan("A", BaseProps::unordered(s.clone(), 10))
            .difference_t(PlanBuilder::scan("B", BaseProps::unordered(s, 10)))
            .sort(Order::asc(&["E"]))
            .build_multiset();
        let text = plan_to_string(&plan.root);
        assert!(text.contains("sort⟨E ASC⟩"));
        assert!(text.contains("\\T"));
        assert!(text.contains("scan A"));
        assert!(text.contains("scan B"));
        // Indentation: scans are two levels deep.
        assert!(text.contains("    scan A"));
    }

    #[test]
    fn annotated_output_contains_property_vectors() {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        let plan = LogicalPlan::new(
            PlanBuilder::scan("A", BaseProps::unordered(s, 10))
                .rdup_t()
                .node(),
            ResultType::Multiset,
        );
        let text = annotated_to_string(&plan).unwrap();
        assert!(text.contains("[- T T]"), "root vector expected in:\n{text}");
        assert!(text.contains("[T - T]"), "scan vector expected in:\n{text}");
        assert!(text.contains("@stratum"));
    }
}
