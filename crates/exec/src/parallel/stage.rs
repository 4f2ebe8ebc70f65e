//! Cutting lowered plans into partition-pipeline task graphs.
//!
//! A **stage** is a maximal breaker-bounded fragment of a lowered plan's
//! tree, and the stage graph is the tree rewritten so each breaker
//! subtree becomes its own runnable unit whose output downstream stages
//! consume through a synthetic scan binding. Each stage carries its slice
//! of the plan's post-order node facts, so a product cut into a stage of
//! its own keeps the hash join lowering chose for it. The multi-query
//! scheduler ([`super::sched`]) is the only code that runs a plan in
//! stages: it runs the stages of many queries on one pool.
//!
//! The cut is byte-preserving by construction: a breaker fully
//! materializes its output anyway, so executing the subtree separately
//! and re-reading the materialized relation through `scan(__qN_stageK)`
//! feeds every downstream operator exactly the input it would have seen
//! inline. `tests/engines_agree.rs` holds the scheduler to the
//! interpreter's list on every pool, `tests/serve_stress.rs` under
//! concurrency.

use std::sync::Arc;

use tqo_core::error::Result;
use tqo_core::plan::{BaseProps, PlanNode};

use crate::batch::pipeline::is_breaker;
use crate::physical::{NodeFacts, PhysicalPlan};

/// One breaker-bounded fragment of a lowered plan, executable as soon
/// as every stage in `deps` has completed and bound its output.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Index of this stage in [`StageGraph::stages`] (topological:
    /// dependencies always have smaller ids).
    pub id: usize,
    /// The fragment to execute, with its slice of the cut plan's
    /// post-order node facts. Dependency outputs appear as
    /// `scan(<binding>)` leaves (see [`StageGraph::binding`]) whose facts
    /// estimate nothing.
    pub plan: PhysicalPlan,
    /// Stage ids whose outputs this fragment scans.
    pub deps: Vec<usize>,
}

/// A lowered plan decomposed into pipeline stages at its breakers.
///
/// `stages` is in topological order — the post-order of the plan's
/// breakers, so the deepest-leftmost breaker runs first — and the
/// **last** stage is rooted at the plan's root and produces the query
/// result. A plan with no breaker below its root lowers to exactly one
/// stage containing the whole tree.
#[derive(Debug, Clone)]
pub struct StageGraph {
    /// Breaker-bounded fragments, dependencies before dependents.
    pub stages: Vec<Stage>,
    prefix: String,
}

/// A fragment under construction: the rewritten node, the stages it
/// scans, and its post-order facts.
type Fragment = (Arc<PlanNode>, Vec<usize>, Vec<NodeFacts>);

/// The plan's post-order facts not yet consumed by the walk.
type Facts<'a> = std::slice::Iter<'a, NodeFacts>;

impl StageGraph {
    /// Decompose `plan` into breaker-bounded stages. `prefix` namespaces
    /// the inter-stage bindings (`{prefix}stage{id}`) so concurrent
    /// queries sharing one scheduler never collide in the environment —
    /// the scheduler passes a per-query prefix.
    pub fn lower(plan: &PhysicalPlan, prefix: &str) -> Result<StageGraph> {
        let mut graph = StageGraph {
            stages: Vec::new(),
            prefix: prefix.to_owned(),
        };
        // The root's fragment is the final stage whether or not the root
        // is a breaker: nothing re-reads a root breaker's output, so it
        // gets no trailing `scan` stage.
        let root = graph.fragment(plan.root(), &mut plan.facts().iter())?;
        graph.push(root);
        Ok(graph)
    }

    /// The environment binding stage `id`'s output is published under.
    pub fn binding(&self, id: usize) -> String {
        format!("{}stage{id}", self.prefix)
    }

    fn push(&mut self, (root, deps, facts): Fragment) -> usize {
        let id = self.stages.len();
        self.stages.push(Stage {
            id,
            plan: PhysicalPlan::from_parts(root, facts),
            deps,
        });
        id
    }

    /// Rebuild `node` with the breaker subtrees below it cut into stages.
    fn fragment(&mut self, node: &Arc<PlanNode>, cursor: &mut Facts) -> Result<Fragment> {
        let children = node.children();
        let mut deps = Vec::new();
        let mut facts = Vec::new();
        let mut new_children = Vec::with_capacity(children.len());
        let mut changed = false;
        for c in &children {
            let (nc, d, f) = self.cut(c, cursor)?;
            changed |= !Arc::ptr_eq(&nc, c);
            new_children.push(nc);
            deps.extend(d);
            facts.extend(f);
        }
        // Post-order: the node's own facts follow its children's.
        facts.extend(cursor.next().cloned());
        let rebuilt = if changed {
            Arc::new(node.with_children(new_children)?)
        } else {
            Arc::clone(node)
        };
        Ok((rebuilt, deps, facts))
    }

    /// [`StageGraph::fragment`] for a non-root node: a breaker becomes a
    /// stage of its own and is replaced by a scan of its binding.
    fn cut(&mut self, node: &Arc<PlanNode>, cursor: &mut Facts) -> Result<Fragment> {
        let fragment = self.fragment(node, cursor)?;
        if !is_breaker(node) {
            return Ok(fragment);
        }
        // The synthetic scan reads the breaker's output: its schema, its
        // estimated size, and no order or duplicate guarantee. It
        // estimates nothing itself.
        let own = fragment
            .2
            .last()
            .expect("a fragment holds its root's facts");
        let base = BaseProps::unordered((*own.schema).clone(), own.rows.unwrap_or(0));
        let facts = NodeFacts {
            rows: None,
            schema: Arc::clone(&own.schema),
            keys: None,
        };
        let id = self.push(fragment);
        let scan = PlanNode::Scan {
            name: self.binding(id),
            base,
        };
        Ok((Arc::new(scan), vec![id], vec![facts]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::label;
    use crate::planner::{lower, PlannerConfig};
    use tqo_core::expr::Expr;
    use tqo_core::plan::PlanBuilder;
    use tqo_core::schema::Schema;
    use tqo_core::sortspec::Order;
    use tqo_core::value::DataType;

    fn tscan(name: &str) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    fn stages(plan: PlanBuilder, prefix: &str) -> (PhysicalPlan, StageGraph) {
        let physical = lower(&plan.build_multiset(), PlannerConfig::default()).unwrap();
        let graph = StageGraph::lower(&physical, prefix).unwrap();
        (physical, graph)
    }

    /// The engine label of a plan's root.
    fn root_label(plan: &PhysicalPlan) -> String {
        label(plan.root(), plan.facts().last().unwrap())
    }

    fn e_is_a() -> Expr {
        Expr::eq(Expr::col("E"), Expr::lit("a"))
    }

    /// No stage merely re-reads another stage's binding.
    fn assert_no_bare_scan_stage(g: &StageGraph) {
        for s in &g.stages {
            let bare = matches!(&**s.plan.root(), PlanNode::Scan { name, .. } if name.starts_with(&g.prefix));
            assert!(!bare, "stage {} is a bare scan: {}", s.id, s.plan);
        }
    }

    #[test]
    fn pipeline_without_breakers_is_one_stage() {
        let (plan, g) = stages(tscan("R").select(e_is_a()), "__q0_");
        assert_eq!(g.stages.len(), 1);
        assert!(g.stages[0].deps.is_empty());
        assert_eq!(g.stages[0].plan, plan);
    }

    #[test]
    fn root_breaker_is_the_final_stage_not_followed_by_a_scan() {
        // sort(select(scan R)): the only breaker is the root.
        let (plan, g) = stages(
            tscan("R").select(e_is_a()).sort(Order::asc(&["E"])),
            "__q3_",
        );
        assert_eq!(g.stages.len(), 1);
        assert_eq!(g.stages[0].plan, plan);
        assert_no_bare_scan_stage(&g);
    }

    #[test]
    fn breakers_cut_into_dependent_stages() {
        // sort(select(product(R, S))): product and sort are breakers.
        let (_, g) = stages(
            tscan("R")
                .product(tscan("S"))
                .select(Expr::eq(Expr::col("1.E"), Expr::lit("a")))
                .sort(Order::asc(&["1.E"])),
            "__q7_",
        );
        assert_eq!(g.stages.len(), 2);
        // Stage 0: the product subtree, no deps.
        assert_eq!(root_label(&g.stages[0].plan), "product");
        assert!(g.stages[0].deps.is_empty());
        // Final stage: sort(select(scan(__q7_stage0))), the root breaker.
        assert_eq!(g.stages[1].deps, vec![0]);
        assert_eq!(
            g.stages[1].plan.explain(),
            "sort[stable]\n  select\n    scan(__q7_stage0)\n"
        );
        // The synthetic scan declares the product's output schema.
        let PlanNode::Scan { base, .. } = g.stages[1].plan.root().get(&[0, 0]).unwrap() else {
            panic!("a scan of the product's stage");
        };
        assert_eq!(&base.schema, &*g.stages[0].plan.facts()[2].schema);
        assert_no_bare_scan_stage(&g);
    }

    #[test]
    fn binary_breakers_collect_deps_from_both_sides() {
        // union-max over two sorted inputs: two breakers below the root.
        let by_e = Order::asc(&["E"]);
        let (_, g) = stages(
            tscan("R")
                .sort(by_e.clone())
                .union_max(tscan("S").sort(by_e)),
            "__q1_",
        );
        assert_eq!(g.stages.len(), 3);
        assert_eq!(g.stages[2].deps, vec![0, 1]);
        assert_eq!(root_label(&g.stages[2].plan), "union-max");
        assert_no_bare_scan_stage(&g);
    }

    #[test]
    fn stages_run_deepest_breaker_first_and_the_root_stage_last() {
        // The root labels of the stages, in the order they run.
        let stage_roots = |plan: PlanBuilder| -> Vec<String> {
            let (_, g) = stages(plan, "__a_");
            g.stages.iter().map(|s| root_label(&s.plan)).collect()
        };
        let by_e = Order::asc(&["E"]);
        // rdupT is the deepest breaker, then the coalesce above it.
        assert_eq!(
            stage_roots(tscan("A").rdup_t().coalesce().sort(by_e.clone())),
            ["rdup-t", "coalesce", "sort[stable]"]
        );
        // A plan whose only breaker is the root is one stage.
        assert_eq!(stage_roots(tscan("A").sort(by_e)), ["sort[stable]"]);
        // So is a streaming-only plan.
        assert_eq!(stage_roots(tscan("A").rdup()), ["rdup[hash]"]);
    }

    #[test]
    fn stage_facts_follow_the_plan_that_was_lowered() {
        let (physical, g) = stages(
            tscan("A")
                .rdup_t()
                .difference_t(tscan("B").select(e_is_a()))
                .coalesce(),
            "__q2_",
        );
        let roots: Vec<_> = g.stages.iter().map(|s| root_label(&s.plan)).collect();
        assert_eq!(roots, ["rdup-t", "difference-t", "coalesce"]);
        let mut post_order = physical.facts().iter();
        for s in &g.stages {
            // One fact per operator of the fragment; the real operators
            // carry the plan's, in the plan's post-order (the stages are
            // themselves in post-order), synthetic scans no estimate.
            assert_eq!(s.plan.facts().len(), s.plan.root().size());
            for facts in s.plan.facts().iter().filter(|f| f.rows.is_some()) {
                assert_eq!(facts, post_order.next().unwrap());
            }
            let synthetic = s.plan.facts().iter().filter(|f| f.rows.is_none()).count();
            assert_eq!(synthetic, s.deps.len());
        }
        assert!(post_order.next().is_none());
    }
}
