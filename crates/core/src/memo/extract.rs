//! Cost-guided best-plan extraction: a Pareto fixpoint over (group,
//! context) cells.
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
//! Cells are recomputed from the current child cells until nothing
//! changes — a fixpoint rather than recursion, because merged groups can
//! be self-referential (`rdupᵀ(rdupᵀ(x)) ≡ rdupᵀ(x)` puts an expression in
//! its own child group). A worklist recomputes a cell only when a cell it
//! read changed. The recompute is monotone in the dominance order, so the
//! worklist drains; optimal plans are finite trees, so the fixpoint
//! prices them exactly.
//!
//! Branch-and-bound: any subplan pricing above the initial plan's total
//! cost is discarded — costs are additive and non-negative, so no optimal
//! plan contains such a subtree.

use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use crate::cost::CostEstimator;
use crate::enumerate::RuleApplication;
use crate::error::Result;
use crate::memo::group::{DerivationStep, ExprId, GroupId, Memo, MemoCtx};
use crate::memo::task::cross;
use crate::memo::{Map, MemoConfig, Set};
use crate::plan::props::{child_flags, node_stat, StaticProps};
use crate::plan::PlanNode;

/// One Pareto-optimal subplan of a cell.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The expression the subplan's root realizes (identity for switch
    /// detection at the parent).
    pub expr: ExprId,
    /// Its derived static properties.
    pub stat: Arc<StaticProps>,
    /// Its total estimated cost.
    pub cost: f64,
    /// How it is built, shared with the entries it was composed from.
    built: Rc<Built>,
}

/// A subplan as its root operator over its children's: per child slot,
/// the chain that swapped the child in and the child's own build. Only
/// the plan extraction returns is assembled into a tree
/// ([`Entry::node`]) and its derivation listed ([`Entry::derivation`]).
#[derive(Debug)]
struct Built {
    /// The root operator; a leaf is the whole subplan.
    op: Arc<PlanNode>,
    slots: Vec<(Chain, Rc<Built>)>,
}

impl Entry {
    /// The realized subplan.
    pub fn node(&self) -> Result<Arc<PlanNode>> {
        fn build(b: &Built) -> Result<Arc<PlanNode>> {
            if b.slots.is_empty() {
                return Ok(Arc::clone(&b.op));
            }
            let children = b
                .slots
                .iter()
                .map(|(_, child)| build(child))
                .collect::<Result<Vec<_>>>()?;
            Ok(Arc::new(b.op.with_children(children)?))
        }
        build(&self.built)
    }

    /// Rule applications realized inside this subplan, locations relative
    /// to its root. Applications that swap this entry in at a parent slot
    /// are added by the parent.
    pub fn derivation(&self) -> Vec<RuleApplication> {
        fn walk(b: &Built, at: &mut Vec<usize>, out: &mut Vec<RuleApplication>) {
            for (i, (chain, child)) in b.slots.iter().enumerate() {
                at.push(i);
                out.extend(chain_to_applications(chain, at));
                walk(child, at, out);
                at.pop();
            }
        }
        let mut out = Vec::new();
        walk(&self.built, &mut Vec::new(), &mut out);
        out
    }
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

/// A derivation chain, shared by every entry that swaps in along it.
type Chain = Rc<[DerivationStep]>;
type Closure = Rc<Map<ExprId, Chain>>;
type Cell = (GroupId, MemoCtx);
/// The cheapest entry of the root cell, with its whole derivation.
type Best = (Entry, Vec<RuleApplication>);

/// What recomputing one cell reads, in the order it reads it. The memo
/// does not change during extraction, so this is worked out once per cell
/// and each recompute only walks the child cells' current entries.
enum Part {
    /// A leaf member's one entry (none when it is inadmissible or dearer
    /// than the bound).
    Leaf(Option<Entry>),
    /// A member over child cells under one snapshot-dup-freedom
    /// assumption per child: per occupant tuple, each slot's cell and the
    /// expressions reachable from the slot's occupant there.
    Compose {
        member: ExprId,
        op: Arc<PlanNode>,
        assumed: Vec<bool>,
        tuples: Vec<Vec<(Cell, Closure)>>,
    },
}

/// The Pareto extractor over (group, context) cells, run to a fixpoint by
/// a worklist.
pub struct Extractor<'a> {
    memo: &'a mut Memo,
    cost_model: &'a dyn CostEstimator,
    config: MemoConfig,
    cells: Map<Cell, Vec<Entry>>,
    /// Each demanded cell's reads, built when it is first computed.
    parts: Map<Cell, Rc<[Part]>>,
    /// Cells to recompute, each once, in the order they became stale.
    queue: VecDeque<Cell>,
    queued: Set<Cell>,
    /// The cells that read each cell.
    readers: Map<Cell, Vec<Cell>>,
    closures: Map<(ExprId, MemoCtx), Closure>,
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
            cells: Map::default(),
            parts: Map::default(),
            queue: VecDeque::new(),
            queued: Set::default(),
            readers: Map::default(),
            closures: Map::default(),
        }
    }

    /// The cheapest plan forward-reachable from `occupant` under `ctx`,
    /// bounded above by `upper_bound` (the initial plan's cost:
    /// branch-and-bound anchor), with its derivation led by the root-level
    /// switch steps. Returns `(best, converged)` — `converged` is false
    /// only if the safety cap stopped the worklist before the fixpoint, in
    /// which case the result may be partial and the caller must report
    /// truncation.
    pub fn best(
        &mut self,
        occupant: ExprId,
        ctx: MemoCtx,
        upper_bound: f64,
    ) -> Result<(Option<Best>, bool)> {
        let group = self.memo.group_of(occupant);
        self.demand((group, ctx));
        // Chaotic iteration to the fixpoint: a cell is recomputed when a
        // cell it reads changed, and a recompute is monotone in the
        // dominance order, so the worklist drains. Optimal plans are
        // finite trees, so the fixpoint prices them exactly. The cap —
        // recomputing every cell once per level of the deepest possible
        // plan — exists only to bound pathological non-convergence, which
        // the caller then surfaces as truncation.
        let sweeps = 64 + self.memo.expr_count();
        let mut recomputes = 0usize;
        let mut converged = true;
        while let Some(cell) = self.queue.pop_front() {
            self.queued.remove(&cell);
            if recomputes >= sweeps.saturating_mul(self.cells.len()) {
                converged = false;
                break;
            }
            recomputes += 1;
            let fresh = self.compute_cell(cell, upper_bound)?;
            let old = self.cells.get(&cell).map(Vec::as_slice).unwrap_or(&[]);
            if !same_frontier(old, &fresh) {
                self.cells.insert(cell, fresh);
                for reader in self.readers.get(&cell).cloned().unwrap_or_default() {
                    self.enqueue(reader);
                }
            }
        }
        let closure = self.closure(occupant, ctx);
        let best = self.cells[&(group, ctx)]
            .iter()
            .filter(|e| closure.contains_key(&e.expr))
            .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
            .map(|e| {
                let mut derivation = chain_to_applications(&closure[&e.expr], &[]);
                derivation.extend(e.derivation());
                (e.clone(), derivation)
            });
        Ok((best, converged))
    }

    fn enqueue(&mut self, cell: Cell) {
        if self.queued.insert(cell) {
            self.queue.push_back(cell);
        }
    }

    fn demand(&mut self, cell: Cell) {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.cells.entry(cell) {
            slot.insert(Vec::new());
            self.enqueue(cell);
        }
    }

    fn closure(&mut self, occupant: ExprId, ctx: MemoCtx) -> Closure {
        if let Some(c) = self.closures.get(&(occupant, ctx)) {
            return Rc::clone(c);
        }
        let c: Map<ExprId, Chain> = self
            .memo
            .forward_closure(occupant, &ctx)
            .into_iter()
            .map(|(e, chain)| (e, chain.into()))
            .collect();
        let c = Rc::new(c);
        self.closures.insert((occupant, ctx), Rc::clone(&c));
        c
    }

    /// Recompute one cell from the current table.
    fn compute_cell(&mut self, cell: Cell, upper: f64) -> Result<Vec<Entry>> {
        let parts = match self.parts.get(&cell) {
            Some(parts) => Rc::clone(parts),
            None => {
                let parts: Rc<[Part]> = self.plan_cell(cell, upper)?.into();
                self.parts.insert(cell, Rc::clone(&parts));
                parts
            }
        };
        let mut entries: Vec<Entry> = Vec::new();
        for part in parts.iter() {
            match part {
                Part::Leaf(entry) => entries.extend(entry.iter().cloned()),
                Part::Compose {
                    member,
                    op,
                    assumed,
                    tuples,
                } => {
                    for slots in tuples {
                        let candidate_sets: Vec<Vec<(&Entry, &Chain)>> = slots
                            .iter()
                            .zip(assumed)
                            .map(|((child, closure), &sdf)| {
                                self.cells[child]
                                    .iter()
                                    .filter(|e| e.stat.snapshot_dup_free == sdf)
                                    .filter_map(|e| closure.get(&e.expr).map(|chain| (e, chain)))
                                    .collect()
                            })
                            .collect();
                        for combo in cross(&candidate_sets) {
                            if let Some(entry) = self.compose(*member, op, cell.1, &combo, upper) {
                                entries.push(entry);
                            }
                        }
                    }
                }
            }
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

    /// What computing `cell` reads: each usable member, and for a member
    /// with children, the child cells under every snapshot-dup-freedom
    /// assumption (demanded, and this cell registered as their reader).
    fn plan_cell(&mut self, cell: Cell, upper: f64) -> Result<Vec<Part>> {
        let (group, ctx) = cell;
        let mut parts = Vec::new();
        for member in self.memo.members(group) {
            if !self.memo.exprs[member].usable_under(&ctx) {
                continue;
            }
            let op = Arc::clone(&self.memo.exprs[member].op);
            let child_groups: Vec<GroupId> = {
                let gs = self.memo.exprs[member].children.clone();
                gs.into_iter().map(|g| self.memo.find(g)).collect()
            };
            if child_groups.is_empty() {
                let stat = self.memo.witness_stat(member, ctx.site)?;
                let work = self.cost_model.estimate_node(&op, &stat, &[], ctx.site);
                let entry = work.filter(|&w| w <= upper).map(|cost| Entry {
                    expr: member,
                    stat,
                    cost,
                    built: Rc::new(Built {
                        op: Arc::clone(&self.memo.exprs[member].witness),
                        slots: Vec::new(),
                    }),
                });
                parts.push(Part::Leaf(entry));
                continue;
            }
            // The flag vector a child sees depends on sibling interfaces
            // only through snapshot-dup-freedom (and the schema, which a
            // group shares): the first member's properties stand for the
            // group, under each assumption.
            let csite = op.child_site(ctx.site);
            let mut interfaces = Vec::with_capacity(child_groups.len());
            for &g in &child_groups {
                let Some(&first) = self.memo.members(g).first() else {
                    break;
                };
                interfaces.push(self.memo.witness_stat(first, csite)?);
            }
            if interfaces.len() < child_groups.len() {
                continue;
            }
            let occupants = self.memo.exprs[member].occupants.clone();
            let assumption_sets: Vec<Vec<bool>> = vec![vec![false, true]; child_groups.len()];
            for assumption in cross(&assumption_sets) {
                let assumed: Vec<bool> = assumption.into_iter().copied().collect();
                let assumed_stats: Vec<StaticProps> = interfaces
                    .iter()
                    .zip(&assumed)
                    .map(|(stat, &sdf)| StaticProps {
                        snapshot_dup_free: sdf,
                        ..(**stat).clone()
                    })
                    .collect();
                let refs: Vec<&StaticProps> = assumed_stats.iter().collect();
                let child_cells: Vec<Cell> = child_groups
                    .iter()
                    .zip(child_flags(&op, ctx.flags, &refs))
                    .map(|(&g, flags)| (g, MemoCtx { flags, site: csite }))
                    .collect();
                for &child in &child_cells {
                    self.demand(child);
                    let readers = self.readers.entry(child).or_default();
                    if !readers.contains(&cell) {
                        readers.push(cell);
                    }
                }
                let tuples = occupants
                    .iter()
                    .map(|tuple| {
                        tuple
                            .iter()
                            .zip(&child_cells)
                            .map(|(&occupant, &child)| (child, self.closure(occupant, child.1)))
                            .collect()
                    })
                    .collect();
                parts.push(Part::Compose {
                    member,
                    op: Arc::clone(&op),
                    assumed,
                    tuples,
                });
            }
        }
        Ok(parts)
    }

    /// Price `member` (operator `op`) over one combination of child
    /// entries, each with the rule chain that swaps it into its slot: the
    /// composed entry, unless it is inadmissible or exceeds `upper`.
    fn compose(
        &self,
        member: ExprId,
        op: &Arc<PlanNode>,
        ctx: MemoCtx,
        combo: &[&(&Entry, &Chain)],
        upper: f64,
    ) -> Option<Entry> {
        let child_cost: f64 = combo.iter().map(|(e, _)| e.cost).sum();
        if child_cost > upper {
            return None;
        }
        // Properties and cost read the operator and its children's
        // properties only, so the tree is not built here.
        let child_refs: Vec<&StaticProps> = combo.iter().map(|(e, _)| &*e.stat).collect();
        let stat = node_stat(op, &child_refs, ctx.site).ok()?;
        let work = self
            .cost_model
            .estimate_node(op, &stat, &child_refs, ctx.site)?;
        let cost = child_cost + work;
        if cost > upper {
            return None;
        }
        let slots = combo
            .iter()
            .map(|(child, chain)| (Rc::clone(chain), Rc::clone(&child.built)))
            .collect();
        Some(Entry {
            expr: member,
            stat: Arc::new(stat),
            cost,
            built: Rc::new(Built {
                op: Arc::clone(op),
                slots,
            }),
        })
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
