//! Lowering physical plans into partition-pipeline task graphs.
//!
//! A **stage** is a maximal breaker-bounded fragment of a physical plan,
//! and the stage graph is the plan rewritten so each breaker subtree
//! becomes its own runnable unit whose output downstream stages consume
//! through a synthetic scan binding. The multi-query scheduler
//! ([`super::sched`]) is the only code that runs a plan in stages: it
//! runs the stages of many queries on one pool.
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

use crate::physical::{PhysicalNode, PhysicalPlan};

/// One breaker-bounded fragment of a physical plan, executable as soon
/// as every stage in `deps` has completed and bound its output.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Index of this stage in [`StageGraph::stages`] (topological:
    /// dependencies always have smaller ids).
    pub id: usize,
    /// The fragment to execute, with its slice of the cut plan's
    /// post-order estimates (a synthetic scan carries none). Dependency
    /// outputs appear as `scan(<binding>)` leaves (see
    /// [`StageGraph::binding`]).
    pub plan: PhysicalPlan,
    /// Stage ids whose outputs this fragment scans.
    pub deps: Vec<usize>,
}

/// A physical plan decomposed into pipeline stages at its breakers.
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

/// Pipeline breakers: operators that fully materialize their output
/// before anything downstream can consume a row — the only places a
/// plan can be cut for free.
fn is_breaker(node: &PhysicalNode) -> bool {
    matches!(
        node,
        PhysicalNode::Sort { .. }
            | PhysicalNode::Aggregate { .. }
            | PhysicalNode::AggregateT { .. }
            | PhysicalNode::Product { .. }
            | PhysicalNode::ProductT { .. }
            | PhysicalNode::DifferenceT { .. }
            | PhysicalNode::RdupT { .. }
            | PhysicalNode::UnionMax { .. }
            | PhysicalNode::UnionT { .. }
            | PhysicalNode::Coalesce { .. }
    )
}

/// A fragment under construction: the rewritten node, the stages it
/// scans, and its post-order estimates (empty when the plan has none).
type Fragment = (Arc<PhysicalNode>, Vec<usize>, Vec<Option<u64>>);

/// The plan's post-order estimates not yet consumed by the walk; empty
/// from the start for plans that carry none (hand-built) — fragments then
/// carry none either.
type Estimates<'a> = std::slice::Iter<'a, Option<u64>>;

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
        let estimates: &[Option<u64>] = if plan.estimates.len() == plan.root.size() {
            &plan.estimates
        } else {
            &[]
        };
        // The root's fragment is the final stage whether or not the root
        // is a breaker: nothing re-reads a root breaker's output, so it
        // gets no trailing `scan` stage.
        let root = graph.fragment(&plan.root, &mut estimates.iter())?;
        graph.push(root);
        Ok(graph)
    }

    /// The environment binding stage `id`'s output is published under.
    pub fn binding(&self, id: usize) -> String {
        format!("{}stage{id}", self.prefix)
    }

    fn push(&mut self, (root, deps, estimates): Fragment) -> usize {
        let id = self.stages.len();
        self.stages.push(Stage {
            id,
            plan: PhysicalPlan { root, estimates },
            deps,
        });
        id
    }

    /// Rebuild `node` with the breaker subtrees below it cut into stages.
    fn fragment(&mut self, node: &Arc<PhysicalNode>, cursor: &mut Estimates) -> Result<Fragment> {
        let children = node.children();
        let mut deps = Vec::new();
        let mut estimates = Vec::new();
        let mut new_children = Vec::with_capacity(children.len());
        let mut changed = false;
        for c in &children {
            let (nc, d, e) = self.cut(c, cursor)?;
            changed |= !Arc::ptr_eq(&nc, c);
            new_children.push(nc);
            deps.extend(d);
            estimates.extend(e);
        }
        // Post-order: the node's own estimate follows its children's.
        estimates.extend(cursor.next());
        let rebuilt = if changed {
            Arc::new(node.with_children(new_children)?)
        } else {
            Arc::clone(node)
        };
        Ok((rebuilt, deps, estimates))
    }

    /// [`StageGraph::fragment`] for a non-root node: a breaker becomes a
    /// stage of its own and is replaced by a scan of its binding.
    fn cut(&mut self, node: &Arc<PhysicalNode>, cursor: &mut Estimates) -> Result<Fragment> {
        let fragment = self.fragment(node, cursor)?;
        if !is_breaker(node) {
            return Ok(fragment);
        }
        // The synthetic scan takes a slot in its parent's post-order
        // estimates (when the plan has any) but estimates nothing.
        let estimates = vec![None; usize::from(!fragment.2.is_empty())];
        let id = self.push(fragment);
        let scan = PhysicalNode::Scan {
            name: self.binding(id),
        };
        Ok((Arc::new(scan), vec![id], estimates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{lower, PlannerConfig};
    use tqo_core::expr::Expr;
    use tqo_core::plan::{BaseProps, PlanBuilder};
    use tqo_core::schema::Schema;
    use tqo_core::sortspec::Order;
    use tqo_core::value::DataType;

    fn scan(name: &str) -> Arc<PhysicalNode> {
        Arc::new(PhysicalNode::Scan { name: name.into() })
    }

    fn select(input: Arc<PhysicalNode>) -> Arc<PhysicalNode> {
        Arc::new(PhysicalNode::Select {
            input,
            predicate: Expr::eq(Expr::col("E"), Expr::lit("a")),
        })
    }

    fn tscan(name: &str) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    /// No stage merely re-reads another stage's binding.
    fn assert_no_bare_scan_stage(g: &StageGraph) {
        for s in &g.stages {
            let bare =
                matches!(&*s.plan.root, PhysicalNode::Scan { name } if name.starts_with(&g.prefix));
            assert!(!bare, "stage {} is a bare scan: {}", s.id, s.plan);
        }
    }

    #[test]
    fn pipeline_without_breakers_is_one_stage() {
        let plan = PhysicalPlan {
            root: select(scan("R")),
            estimates: Vec::new(),
        };
        let g = StageGraph::lower(&plan, "__q0_").unwrap();
        assert_eq!(g.stages.len(), 1);
        assert!(g.stages[0].deps.is_empty());
        assert_eq!(g.stages[0].plan.root, plan.root);
    }

    #[test]
    fn root_breaker_is_the_final_stage_not_followed_by_a_scan() {
        // sort(select(scan R)): the only breaker is the root.
        let plan = PhysicalPlan::new(PhysicalNode::Sort {
            input: select(scan("R")),
            order: Order::asc(&["E"]),
        });
        let g = StageGraph::lower(&plan, "__q3_").unwrap();
        assert_eq!(g.stages.len(), 1);
        assert_eq!(g.stages[0].plan.root, plan.root);
        assert_no_bare_scan_stage(&g);
    }

    #[test]
    fn breakers_cut_into_dependent_stages() {
        // sort(select(product(R, S))): product and sort are breakers.
        let plan = PhysicalPlan::new(PhysicalNode::Sort {
            input: select(Arc::new(PhysicalNode::Product {
                left: scan("R"),
                right: scan("S"),
                algo: crate::physical::ProductAlgo::NestedLoop,
            })),
            order: Order::asc(&["E"]),
        });
        let g = StageGraph::lower(&plan, "__q7_").unwrap();
        assert_eq!(g.stages.len(), 2);
        // Stage 0: the product subtree, no deps.
        assert_eq!(g.stages[0].plan.root.label(), "product");
        assert!(g.stages[0].deps.is_empty());
        // Final stage: sort(select(scan(__q7_stage0))), the root breaker.
        assert_eq!(g.stages[1].deps, vec![0]);
        assert_eq!(g.stages[1].plan.root.label(), "sort[stable]");
        let inner = &g.stages[1].plan.root.children()[0];
        assert_eq!(inner.children()[0].label(), "scan(__q7_stage0)");
        assert_no_bare_scan_stage(&g);
    }

    #[test]
    fn binary_breakers_collect_deps_from_both_sides() {
        // union-max over two sorted inputs: two breakers below the root.
        let plan = PhysicalPlan::new(PhysicalNode::UnionMax {
            left: Arc::new(PhysicalNode::Sort {
                input: scan("R"),
                order: Order::asc(&["E"]),
            }),
            right: Arc::new(PhysicalNode::Sort {
                input: scan("S"),
                order: Order::asc(&["E"]),
            }),
        });
        let g = StageGraph::lower(&plan, "__q1_").unwrap();
        assert_eq!(g.stages.len(), 3);
        assert_eq!(g.stages[2].deps, vec![0, 1]);
        assert_eq!(g.stages[2].plan.root.label(), "union-max");
        assert_no_bare_scan_stage(&g);
    }

    #[test]
    fn stages_run_deepest_breaker_first_and_the_root_stage_last() {
        // The root labels of the stages, in the order they run.
        let stage_roots = |plan: &tqo_core::plan::LogicalPlan| -> Vec<String> {
            let physical = lower(plan, PlannerConfig::default()).unwrap();
            let g = StageGraph::lower(&physical, "__a_").unwrap();
            g.stages.iter().map(|s| s.plan.root.label()).collect()
        };
        let by_e = Order::asc(&["E"]);
        let plan = tscan("A")
            .rdup_t()
            .coalesce()
            .sort(by_e.clone())
            .build_multiset();
        // rdupT is the deepest breaker, then the coalesce above it.
        assert_eq!(stage_roots(&plan), ["rdup-t", "coalesce", "sort[stable]"]);
        // A plan whose only breaker is the root is one stage.
        let sort_only = tscan("A").sort(by_e).build_multiset();
        assert_eq!(stage_roots(&sort_only), ["sort[stable]"]);
        // So is a streaming-only plan.
        let streaming = tscan("A").rdup().build_multiset();
        assert_eq!(stage_roots(&streaming), ["rdup[hash]"]);
    }

    #[test]
    fn stage_estimates_follow_the_plan_that_was_lowered() {
        let logical = tscan("A")
            .rdup_t()
            .difference_t(tscan("B").select(Expr::eq(Expr::col("E"), Expr::lit("a"))))
            .coalesce()
            .build_multiset();
        let physical = lower(&logical, PlannerConfig::default()).unwrap();
        let g = StageGraph::lower(&physical, "__q2_").unwrap();
        let roots: Vec<_> = g.stages.iter().map(|s| s.plan.root.label()).collect();
        assert_eq!(roots, ["rdup-t", "difference-t", "coalesce"]);
        let mut post_order = physical.estimates.iter();
        for s in &g.stages {
            // One estimate per operator of the fragment; the real
            // operators carry the plan's, in the plan's post-order (the
            // stages are themselves in post-order), synthetic scans none.
            assert_eq!(s.plan.estimates.len(), s.plan.root.size());
            for est in s.plan.estimates.iter().filter(|e| e.is_some()) {
                assert_eq!(est, post_order.next().unwrap());
            }
            let synthetic = s.plan.estimates.iter().filter(|e| e.is_none()).count();
            assert_eq!(synthetic, s.deps.len());
        }
        assert!(post_order.next().is_none());
    }
}
