//! Cost-guided best-plan extraction: a Pareto Bellman-Ford over
//! (group, context) cells.
//!
//! A cell holds the Pareto frontier of subplans the group can produce at a
//! location demanding the cell's context: entries are incomparable under
//! (cost, cardinality, guarantee bits). Cardinality and the guarantee bits
//! participate because a pricier subplan with a smaller output or stronger
//! guarantees (snapshot-dup-freedom feeds the coalescing license and the
//! `\ᵀ` right-branch relaxation) can still win inside a larger plan.
//!
//! Substitution is **directed**: a slot may only be filled by expressions
//! forward-reachable from its identity occupant through recorded rule
//! edges whose context covers the slot's demands — group membership alone
//! is symmetric, but the Figure 5 closure is not (D2 removes a redundant
//! `rdupᵀ`; no rule reinserts one), and extraction must not produce plans
//! the enumerator cannot derive.
//!
//! Cells are recomputed in sweeps from the previous sweep's child cells —
//! Bellman-Ford rather than recursion, because merged groups can be
//! self-referential (`rdupᵀ(rdupᵀ(x)) ≡ rdupᵀ(x)` puts an expression in
//! its own child group). The recompute is monotone in the dominance order,
//! so sweeps converge; optimal plans are finite trees, so the fixpoint
//! prices them exactly.
//!
//! Branch-and-bound: any subplan pricing above the initial plan's total
//! cost is discarded — costs are additive and non-negative, so no optimal
//! plan contains such a subtree.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::CostEstimator;
use crate::enumerate::RuleApplication;
use crate::error::Result;
use crate::memo::group::{DerivationStep, ExprId, GroupId, Memo, MemoCtx};
use crate::memo::task::cross;
use crate::memo::MemoConfig;
use crate::plan::props::{child_flags, derive_one, StaticProps};
use crate::plan::{PlanNode, Site};
use crate::sortspec::Order;

/// One Pareto-optimal subplan of a cell.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The expression the subplan's root realizes (identity for switch
    /// detection at the parent).
    pub expr: ExprId,
    /// The realized subplan.
    pub node: Arc<PlanNode>,
    /// Its derived static properties.
    pub stat: StaticProps,
    /// Its total estimated cost.
    pub cost: f64,
    /// Rule applications realized inside this subplan, locations relative
    /// to its root. Applications that swap this entry in at a parent slot
    /// are added by the parent.
    pub derivation: Vec<RuleApplication>,
}

/// `a` makes `b` redundant: same realized expression, at most as expensive,
/// at most as large, at least as strong on every guarantee extraction
/// re-reads. Expression identity participates because parents filter
/// entries per-slot by forward reachability.
fn dominates(a: &Entry, b: &Entry) -> bool {
    a.expr == b.expr
        && a.cost <= b.cost
        && a.stat.card() <= b.stat.card()
        && (a.stat.dup_free || !b.stat.dup_free)
        && (a.stat.snapshot_dup_free || !b.stat.snapshot_dup_free)
        && (a.stat.coalesced || !b.stat.coalesced)
}

type Closure = Rc<HashMap<ExprId, Vec<DerivationStep>>>;

/// The Bellman-Ford-style Pareto extractor over (group, context) cells.
pub struct Extractor<'a> {
    memo: &'a mut Memo,
    cost_model: &'a dyn CostEstimator,
    config: MemoConfig,
    cells: HashMap<(GroupId, MemoCtx), Vec<Entry>>,
    /// Cells any sweep has demanded, in discovery order.
    demanded: Vec<(GroupId, MemoCtx)>,
    closures: HashMap<(ExprId, MemoCtx), Closure>,
}

/// A derivation chain as `RuleApplication`s firing at `location`.
fn chain_to_applications(chain: &[DerivationStep], location: &[usize]) -> Vec<RuleApplication> {
    chain
        .iter()
        .map(|step| RuleApplication {
            rule: step.rule.clone(),
            equivalence: step.equivalence,
            location: location.to_vec(),
            parent: 0,
        })
        .collect()
}

impl<'a> Extractor<'a> {
    /// An extractor pricing `memo`'s expressions with `cost_model`.
    pub fn new(
        memo: &'a mut Memo,
        cost_model: &'a dyn CostEstimator,
        config: MemoConfig,
    ) -> Extractor<'a> {
        Extractor {
            memo,
            cost_model,
            config,
            cells: HashMap::new(),
            demanded: Vec::new(),
            closures: HashMap::new(),
        }
    }

    /// The cheapest plan forward-reachable from `occupant` under `ctx`,
    /// bounded above by `upper_bound` (the initial plan's cost:
    /// branch-and-bound anchor). The returned entry's derivation includes
    /// the root-level switch steps. Returns `(best, converged)` —
    /// `converged` is false only if the safety cap stopped the sweeps
    /// before the fixpoint, in which case the result may be partial and
    /// the caller must report truncation.
    pub fn best(
        &mut self,
        occupant: ExprId,
        ctx: MemoCtx,
        upper_bound: f64,
    ) -> Result<(Option<Entry>, bool)> {
        let group = self.memo.group_of(occupant);
        self.demand(group, ctx);
        // Bellman-Ford sweeps to a fixpoint. Each sweep recomputes every
        // demanded cell from the previous sweep's cells and propagates
        // values one level up, so a plan of depth d needs ~d sweeps: the
        // safety cap scales with the memo (a plan can't be deeper than the
        // number of live expressions) and exists only to bound pathological
        // non-convergence, which the caller then surfaces as truncation.
        let max_sweeps = 64 + self.memo.expr_count();
        let mut converged = false;
        for _ in 0..max_sweeps {
            let mut changed = false;
            let mut i = 0;
            while i < self.demanded.len() {
                let (g, c) = self.demanded[i];
                i += 1;
                let fresh = self.compute_cell(g, c, upper_bound)?;
                let old = self.cells.get(&(g, c));
                if !same_frontier(old.map(Vec::as_slice).unwrap_or(&[]), &fresh) {
                    changed = true;
                    self.cells.insert((g, c), fresh);
                }
            }
            if !changed {
                converged = true;
                break;
            }
        }
        let closure = self.closure(occupant, ctx);
        let best = self.cells[&(group, ctx)]
            .iter()
            .filter(|e| closure.contains_key(&e.expr))
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .map(|e| {
                let mut entry = e.clone();
                let mut derivation = chain_to_applications(&closure[&e.expr], &[]);
                derivation.extend(entry.derivation);
                entry.derivation = derivation;
                entry
            });
        Ok((best, converged))
    }

    fn demand(&mut self, group: GroupId, ctx: MemoCtx) {
        let key = (group, ctx);
        if let std::collections::hash_map::Entry::Vacant(cell) = self.cells.entry(key) {
            cell.insert(Vec::new());
            self.demanded.push(key);
        }
    }

    fn closure(&mut self, occupant: ExprId, ctx: MemoCtx) -> Closure {
        if let Some(c) = self.closures.get(&(occupant, ctx)) {
            return Rc::clone(c);
        }
        let c = Rc::new(self.memo.forward_closure(occupant, &ctx));
        self.closures.insert((occupant, ctx), Rc::clone(&c));
        c
    }

    /// Recompute one cell from the current table.
    fn compute_cell(&mut self, group: GroupId, ctx: MemoCtx, upper: f64) -> Result<Vec<Entry>> {
        let mut entries: Vec<Entry> = Vec::new();
        for member in self.memo.members(group) {
            if !self.memo.exprs[member].usable_under(&ctx) {
                continue;
            }
            self.member_entries(member, ctx, upper, &mut entries)?;
        }
        // Pareto-prune, then cap.
        let mut frontier: Vec<Entry> = Vec::new();
        entries.sort_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"));
        for e in entries {
            if !frontier.iter().any(|f| dominates(f, &e)) {
                frontier.push(e);
            }
        }
        frontier.truncate(self.config.max_pareto_entries);
        Ok(frontier)
    }

    /// All admissible compositions of one member over the current child
    /// cells: per occupant tuple, the entries each slot can reach from its
    /// occupant under the context the composition induces.
    fn member_entries(
        &mut self,
        member: ExprId,
        ctx: MemoCtx,
        upper: f64,
        out: &mut Vec<Entry>,
    ) -> Result<()> {
        let op = Arc::clone(&self.memo.exprs[member].op);
        let child_groups: Vec<GroupId> = {
            let gs = self.memo.exprs[member].children.clone();
            gs.into_iter().map(|g| self.memo.find(g)).collect()
        };

        if child_groups.is_empty() {
            let stat = self.memo.witness_stat(member, ctx.site)?;
            let Some(work) = self.cost_model.estimate_node(&op, &stat, &[], ctx.site) else {
                return Ok(());
            };
            if work <= upper {
                out.push(Entry {
                    expr: member,
                    node: Arc::clone(&self.memo.exprs[member].witness),
                    stat,
                    cost: work,
                    derivation: Vec::new(),
                });
            }
            return Ok(());
        }

        let alternatives = self.memo.exprs[member].occupants.clone();
        let csite = op.child_site(ctx.site);
        // The flag vector a child sees depends on sibling interfaces only
        // through snapshot-dup-freedom; enumerate those assumptions and
        // match child entries against them.
        let assumption_sets: Vec<Vec<bool>> = vec![vec![false, true]; child_groups.len()];
        for assumption in cross(&assumption_sets) {
            let assumed: Vec<bool> = assumption.into_iter().copied().collect();
            // Representative stats for flag computation: any member's
            // witness stats with the sdf bit overridden by the assumption.
            let mut rep_stats: Vec<StaticProps> = Vec::with_capacity(child_groups.len());
            let mut viable = true;
            for (i, &g) in child_groups.iter().enumerate() {
                let Some(&first) = self.memo.members(g).first() else {
                    viable = false;
                    break;
                };
                let mut s = self.memo.witness_stat(first, csite)?;
                s.snapshot_dup_free = assumed[i];
                rep_stats.push(s);
            }
            if !viable {
                continue;
            }
            let flags = child_flags(&op, ctx.flags, &rep_stats.iter().collect::<Vec<_>>());
            let child_ctxs: Vec<MemoCtx> = flags
                .into_iter()
                .map(|f| MemoCtx {
                    flags: f,
                    site: csite,
                })
                .collect();
            // Register demand on the child cells for the next sweep.
            for (&g, cctx) in child_groups.iter().zip(&child_ctxs) {
                self.demand(g, *cctx);
            }
            // Per occupant tuple: the child entries reachable from it
            // that match the sdf assumption, and every combination.
            for occupants in &alternatives {
                let mut candidate_sets: Vec<Vec<(Entry, Vec<DerivationStep>)>> =
                    Vec::with_capacity(child_groups.len());
                for (i, (&g, cctx)) in child_groups.iter().zip(&child_ctxs).enumerate() {
                    let closure = self.closure(occupants[i], *cctx);
                    let matching: Vec<(Entry, Vec<DerivationStep>)> = self.cells[&(g, *cctx)]
                        .iter()
                        .filter(|e| e.stat.snapshot_dup_free == assumed[i])
                        .filter_map(|e| {
                            closure.get(&e.expr).map(|chain| (e.clone(), chain.clone()))
                        })
                        .collect();
                    candidate_sets.push(matching);
                }
                for combo in cross(&candidate_sets) {
                    self.compose(member, ctx, &combo, upper, out)?;
                }
            }
        }
        Ok(())
    }

    /// Price `member` over one combination of child entries (each with the
    /// rule chain that swaps it into its slot) and push the composed entry
    /// unless it is inadmissible or exceeds `upper`.
    fn compose(
        &mut self,
        member: ExprId,
        ctx: MemoCtx,
        combo: &[&(Entry, Vec<DerivationStep>)],
        upper: f64,
        out: &mut Vec<Entry>,
    ) -> Result<()> {
        let child_cost: f64 = combo.iter().map(|(e, _)| e.cost).sum();
        if child_cost > upper {
            return Ok(());
        }
        let nodes: Vec<Arc<PlanNode>> = combo.iter().map(|(e, _)| Arc::clone(&e.node)).collect();
        let stats: Vec<StaticProps> = combo.iter().map(|(e, _)| e.stat.clone()).collect();
        let Ok(node) = self.memo.exprs[member].rebuild(nodes) else {
            return Ok(());
        };
        let Ok(mut stat) = derive_one(&node, &stats) else {
            return Ok(());
        };
        // §4.5: results produced inside the DBMS are unordered unless the
        // operation is the sort itself (same erasure `annotate` applies).
        if ctx.site == Site::Dbms && !matches!(node, PlanNode::Sort { .. }) {
            stat.order = Order::unordered();
        }
        let child_refs: Vec<&StaticProps> = stats.iter().collect();
        let Some(work) = self
            .cost_model
            .estimate_node(&node, &stat, &child_refs, ctx.site)
        else {
            return Ok(());
        };
        let cost = child_cost + work;
        if cost > upper {
            return Ok(());
        }
        let mut derivation: Vec<RuleApplication> = Vec::new();
        for (i, (child, switch_chain)) in combo.iter().enumerate() {
            derivation.extend(chain_to_applications(switch_chain, &[i]));
            derivation.extend(child.derivation.iter().map(|app| {
                let mut loc = vec![i];
                loc.extend_from_slice(&app.location);
                RuleApplication {
                    location: loc,
                    ..app.clone()
                }
            }));
        }
        out.push(Entry {
            expr: member,
            node: Arc::new(node),
            stat,
            cost,
            derivation,
        });
        Ok(())
    }
}

/// Frontier equality up to (expr, cost, interface) — enough for fixpoint
/// detection; node identity may differ between sweeps.
fn same_frontier(a: &[Entry], b: &[Entry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.expr == y.expr
                && x.cost == y.cost
                && x.stat.card() == y.stat.card()
                && x.stat.dup_free == y.stat.dup_free
                && x.stat.snapshot_dup_free == y.stat.snapshot_dup_free
                && x.stat.coalesced == y.stat.coalesced
        })
}
