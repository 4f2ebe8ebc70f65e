//! The memo table: hash-consed expressions grouped into equivalence
//! classes, with the contexts each member is reachable under.
//!
//! The table is an e-graph: merging two groups re-canonicalizes every
//! parent expression that referenced them, and parents whose keys collide
//! after the merge are aliased and *their* groups merged in turn
//! (congruence closure). Without this upward repair, each group merge
//! would strand stale hash-consing keys and duplicate congruent
//! expressions — inflating groups and blowing up the binding cross
//! products rule matching draws from.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::memo::task::stat_refs;
use crate::memo::Map;
use crate::plan::props::{node_stat, PropsFlags, StaticProps};
use crate::plan::{PlanNode, Site};
use crate::rules::conventional::compose_projections;
use crate::schema::Schema;
use crate::value::DataType;

/// Index of an equivalence class in the memo.
pub type GroupId = usize;
/// Index of an expression in the memo.
pub type ExprId = usize;

/// The context of a plan location: the Table 2 operation-property vector
/// that must hold there, plus the execution site the location runs at.
///
/// Contexts order by *demands*: `a.covers(b)` holds when everything `b`
/// requires is also required by `a` — a member derived while demands were
/// `a` stays admissible anywhere demands are `b ⊆ a` weaker-or-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoCtx {
    /// The Table 2 operation-property demands at this location.
    pub flags: PropsFlags,
    /// The execution site of this location.
    pub site: Site,
}

impl MemoCtx {
    /// The all-demands context: what an unrewritten subtree satisfies.
    pub fn top(site: Site) -> MemoCtx {
        MemoCtx {
            flags: PropsFlags {
                order_required: true,
                duplicates_relevant: true,
                period_preserving: true,
            },
            site,
        }
    }

    /// True when a member recorded under `self` is usable at a location
    /// demanding `other`: same site, and every demand of `other` was
    /// already demanded when the member was derived.
    pub fn covers(&self, other: &MemoCtx) -> bool {
        self.site == other.site
            && (self.flags.order_required || !other.flags.order_required)
            && (self.flags.duplicates_relevant || !other.flags.duplicates_relevant)
            && (self.flags.period_preserving || !other.flags.period_preserving)
    }
}

/// One operator whose children are groups.
#[derive(Debug)]
pub struct MemoExpr {
    /// This expression's id.
    pub id: ExprId,
    /// Operator payload (children are placeholders; use
    /// [`MemoExpr::rebuild`] to attach real subtrees).
    pub op: Arc<PlanNode>,
    /// Child groups, canonical at insertion time (re-canonicalize with
    /// [`Memo::find`] after merges).
    pub children: Vec<GroupId>,
    /// The *identity occupants* of the child slots: for every distinct
    /// concrete subtree that hash-consed to this expression (the witness
    /// first), the expressions its children hash-consed to. Extraction
    /// fills a slot only with what is forward-reachable from an occupant
    /// tuple, and reports a rule application exactly where it deviates.
    pub occupants: Vec<Vec<ExprId>>,
    /// A concrete subtree realizing this expression.
    pub witness: Arc<PlanNode>,
    /// True when the expression is valid in any context (identity
    /// provenance somewhere in its history).
    pub base: bool,
    /// Maximal contexts a rule derived this expression under.
    pub ctxs: Vec<MemoCtx>,
}

impl MemoExpr {
    /// True when the member may occupy a location demanding `ctx`.
    pub fn usable_under(&self, ctx: &MemoCtx) -> bool {
        self.base || self.ctxs.iter().any(|c| c.covers(ctx))
    }

    /// The operator with the given subtrees as children.
    pub fn rebuild(&self, children: Vec<Arc<PlanNode>>) -> crate::error::Result<PlanNode> {
        self.op.with_children(children)
    }
}

/// An equivalence class of expressions.
#[derive(Debug, Default)]
pub struct Group {
    /// The expressions in this class.
    pub members: Vec<ExprId>,
}

/// The placeholder leaf standing in for a child group inside the
/// hash-consing key. The group id is encoded in the scan name, so two keys
/// collide exactly when operator payload and child groups coincide.
fn group_placeholder(gid: GroupId) -> Arc<PlanNode> {
    static EMPTY: OnceLock<Schema> = OnceLock::new();
    let schema = EMPTY.get_or_init(|| Schema::of(&[("\u{29f8}group", DataType::Int)]));
    Arc::new(PlanNode::Scan {
        name: format!("\u{27e8}g{gid}\u{27e9}"),
        base: crate::plan::BaseProps::unordered(schema.clone(), 0),
    })
}

/// A plan tree keyed by identity. The key owns its tree, so no address
/// is reused while it is keyed; equal trees at two addresses are two keys.
#[derive(Debug, Clone)]
pub(crate) struct ByPtr(pub(crate) Arc<PlanNode>);

impl PartialEq for ByPtr {
    fn eq(&self, other: &ByPtr) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for ByPtr {}

impl Hash for ByPtr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(Arc::as_ptr(&self.0), state);
    }
}

/// One step of a forward-derivation chain: the rule that produced the
/// expression from its predecessor.
#[derive(Debug, Clone)]
pub struct DerivationStep {
    /// The applied rule's name.
    pub rule: String,
    /// The equivalence the step preserves.
    pub equivalence: crate::equivalence::EquivalenceType,
}

/// The memo: expressions, groups, and the indexes tying them together.
#[derive(Debug, Default)]
pub struct Memo {
    /// All expressions, dense by [`ExprId`].
    pub exprs: Vec<MemoExpr>,
    groups: Vec<Group>,
    /// Union-find parents over groups.
    parents: Vec<GroupId>,
    /// Union-find parents over expressions (congruence aliasing).
    expr_parents: Vec<ExprId>,
    /// Group each expression currently belongs to (canonical after `find`).
    group_of: Vec<GroupId>,
    /// Hash-consing index: shallow key (op + canonical child groups) → expr.
    /// Keyed by plan content, which carries a client's names and literals,
    /// so it keeps the default keyed hash.
    expr_index: HashMap<PlanNode, ExprId>,
    /// Concrete subtree → expr, to make repeat insertions cheap (keyed by
    /// plan content, like `expr_index`).
    witness_index: HashMap<Arc<PlanNode>, ExprId>,
    /// Parent expressions drawing on a group (by insertion-time id).
    parents_index: Map<GroupId, Vec<ExprId>>,
    /// Bottom-up static props of every concrete tree the search has
    /// derived them for, per site (site affects the DBMS order-erasure of
    /// §4.5): each node is derived once from its children's.
    tree_stats: Map<(ByPtr, Site), Arc<StaticProps>>,
    /// Directed rule applications: source expression → (result, context,
    /// rule, equivalence). Group membership is symmetric but the Figure 5
    /// closure is not — extraction may only substitute expressions
    /// *forward-reachable* from a location's identity occupant.
    rule_edges: Map<ExprId, Vec<(ExprId, MemoCtx, String, crate::equivalence::EquivalenceType)>>,
    /// Groups whose member set changed since dependents last looked.
    pub dirty: Vec<GroupId>,
    /// Log of (loser, winner) group unions, for callers maintaining their
    /// own group-keyed maps.
    pub merges: Vec<(GroupId, GroupId)>,
    /// Live (non-aliased) expression count, maintained incrementally so
    /// the insertion budget check is O(1).
    live_exprs: usize,
    /// Whether projection cascades compose as they enter.
    compose: bool,
    /// Each group's placeholder leaf, built once.
    placeholders: Vec<Arc<PlanNode>>,
}

impl Memo {
    /// An empty memo. With `compose` (the rule set holds
    /// `project-compose`), projection cascades compose as they enter
    /// ([`Memo::insert_subtree`]).
    pub fn new(compose: bool) -> Memo {
        Memo {
            compose,
            ..Memo::default()
        }
    }

    /// Number of live (canonical) groups.
    pub fn group_count(&self) -> usize {
        (0..self.groups.len())
            .filter(|&g| self.parents[g] == g)
            .count()
    }

    /// Number of live (canonical) expressions.
    pub fn expr_count(&self) -> usize {
        self.live_exprs
    }

    /// Canonical id of a group.
    pub fn find(&mut self, g: GroupId) -> GroupId {
        if self.parents[g] != g {
            let root = self.find(self.parents[g]);
            self.parents[g] = root;
        }
        self.parents[g]
    }

    /// Canonical id of an expression (congruence aliasing).
    pub fn find_expr(&mut self, e: ExprId) -> ExprId {
        if self.expr_parents[e] != e {
            let root = self.find_expr(self.expr_parents[e]);
            self.expr_parents[e] = root;
        }
        self.expr_parents[e]
    }

    /// Canonical group of an expression.
    pub fn group_of(&mut self, e: ExprId) -> GroupId {
        let e = self.find_expr(e);
        let g = self.group_of[e];
        let root = self.find(g);
        self.group_of[e] = root;
        root
    }

    /// Canonical members of a group, deduplicated.
    pub fn members(&mut self, g: GroupId) -> Vec<ExprId> {
        let g = self.find(g);
        let raw = std::mem::take(&mut self.groups[g].members);
        let mut out = Vec::with_capacity(raw.len());
        for e in raw {
            let e = self.find_expr(e);
            if !out.contains(&e) {
                out.push(e);
            }
        }
        self.groups[g].members.clone_from(&out);
        out
    }

    /// The shallow hash-consing key for an operator over child groups.
    fn shallow_key(&mut self, op: &PlanNode, children: &[GroupId]) -> PlanNode {
        let placeholders = children
            .iter()
            .map(|&g| {
                while self.placeholders.len() <= g {
                    let next = group_placeholder(self.placeholders.len());
                    self.placeholders.push(next);
                }
                Arc::clone(&self.placeholders[g])
            })
            .collect();
        op.with_children(placeholders).expect("arity preserved")
    }

    /// Insert a concrete subtree, hash-consing every node. Returns the
    /// expression for the root (existing or fresh) or `None` when the
    /// expression budget is exhausted.
    ///
    /// When the memo composes, a projection cascade `π_A(π_B(r))` enters
    /// as `π_{A∘B}(r)` (`project-compose`, ≡L, applied eagerly). Without
    /// it the remapping `π` that `product-commute` wraps around every swap
    /// stacks up, one layer per swap, and a layered join never closes.
    pub fn insert_subtree(&mut self, node: &Arc<PlanNode>, max_exprs: usize) -> Option<ExprId> {
        if let Some(&e) = self.witness_index.get(node) {
            return Some(self.find_expr(e));
        }
        if let Some(composed) = self.compose.then(|| compose_projections(node)).flatten() {
            let e = self.insert_subtree(&Arc::new(composed), max_exprs)?;
            self.witness_index.insert(Arc::clone(node), e);
            return Some(e);
        }
        let mut children = Vec::with_capacity(node.children().len());
        let mut occupants = Vec::with_capacity(node.children().len());
        for c in node.children() {
            let e = self.insert_subtree(c, max_exprs)?;
            occupants.push(e);
            children.push(self.group_of(e));
        }
        let key = self.shallow_key(node, &children);
        if let Some(&e) = self.expr_index.get(&key) {
            let e = self.find_expr(e);
            // Same operator over the same groups: the concrete tree is an
            // alternative witness. Keep the first witness (any works for
            // binding), but remember this tree's children as occupants:
            // which tree arrives first depends on exploration order, and
            // what the slots can reach must not.
            self.add_occupants(e, vec![occupants]);
            self.witness_index.insert(Arc::clone(node), e);
            return Some(e);
        }
        if self.expr_count() >= max_exprs {
            return None;
        }
        let id = self.exprs.len();
        let gid = self.groups.len();
        self.groups.push(Group { members: vec![id] });
        self.parents.push(gid);
        self.group_of.push(gid);
        self.expr_parents.push(id);
        for &g in &children {
            self.parents_index.entry(g).or_default().push(id);
        }
        self.exprs.push(MemoExpr {
            id,
            op: Arc::clone(node),
            children,
            occupants: vec![occupants],
            witness: Arc::clone(node),
            base: true,
            ctxs: Vec::new(),
        });
        self.expr_index.insert(key, id);
        self.witness_index.insert(Arc::clone(node), id);
        self.live_exprs += 1;
        self.dirty.push(gid);
        Some(id)
    }

    /// Add occupant tuples to expression `e`, skipping ones it has.
    fn add_occupants(&mut self, e: ExprId, tuples: Vec<Vec<ExprId>>) {
        for tuple in tuples {
            let tuple: Vec<ExprId> = tuple.into_iter().map(|c| self.find_expr(c)).collect();
            if !self.exprs[e].occupants.contains(&tuple) {
                self.exprs[e].occupants.push(tuple);
            }
        }
    }

    /// Record that a rule derived expression `e` under `ctx`. Returns true
    /// when this extends the expression's usable contexts.
    pub fn record_rule_ctx(&mut self, e: ExprId, ctx: MemoCtx) -> bool {
        let e = self.find_expr(e);
        let expr = &mut self.exprs[e];
        if expr.base || expr.ctxs.iter().any(|c| c.covers(&ctx)) {
            return false;
        }
        expr.ctxs.retain(|c| !ctx.covers(c));
        expr.ctxs.push(ctx);
        true
    }

    /// Record the directed rewrite `from → to` observed under `ctx`.
    pub fn record_edge(
        &mut self,
        from: ExprId,
        to: ExprId,
        ctx: MemoCtx,
        rule: &str,
        equivalence: crate::equivalence::EquivalenceType,
    ) {
        let from = self.find_expr(from);
        let to = self.find_expr(to);
        if from == to {
            return;
        }
        let edges = self.rule_edges.entry(from).or_default();
        if !edges
            .iter()
            .any(|(t, c, r, _)| *t == to && *c == ctx && r == rule)
        {
            edges.push((to, ctx, rule.to_owned(), equivalence));
        }
    }

    /// Expressions forward-reachable from `occupant` through rule edges
    /// whose recorded context covers `ctx`, each with the chain of rule
    /// steps that realizes it (shortest-first BFS order). Keys are
    /// canonical expression ids.
    pub(crate) fn forward_closure(
        &mut self,
        occupant: ExprId,
        ctx: &MemoCtx,
    ) -> Map<ExprId, Vec<DerivationStep>> {
        let occupant = self.find_expr(occupant);
        let mut out: Map<ExprId, Vec<DerivationStep>> = Map::default();
        out.insert(occupant, Vec::new());
        let mut frontier = std::collections::VecDeque::from([occupant]);
        while let Some(from) = frontier.pop_front() {
            let Some(edges) = self.rule_edges.get(&from).cloned() else {
                continue;
            };
            let prefix = out[&from].clone();
            for (to, c, rule, eq) in edges {
                let to = self.find_expr(to);
                if !c.covers(ctx) || out.contains_key(&to) {
                    continue;
                }
                let mut chain = prefix.clone();
                chain.push(DerivationStep {
                    rule,
                    equivalence: eq,
                });
                out.insert(to, chain);
                frontier.push_back(to);
            }
        }
        out
    }

    /// Merge the groups of two expressions (a rule proved them
    /// context-equivalent), then restore congruence: parents whose shallow
    /// keys collide after canonicalization are aliased and their groups
    /// merged in turn. Returns the canonical survivor.
    pub fn merge(&mut self, a: ExprId, b: ExprId) -> GroupId {
        let mut pending: Vec<(ExprId, ExprId)> = vec![(a, b)];
        let mut result = self.group_of(a);
        while let Some((x, y)) = pending.pop() {
            let gx = self.group_of(x);
            let gy = self.group_of(y);
            if gx == gy {
                result = gx;
                continue;
            }
            // Union by member count.
            let (winner, loser) = if self.groups[gx].members.len() >= self.groups[gy].members.len()
            {
                (gx, gy)
            } else {
                (gy, gx)
            };
            let moved = std::mem::take(&mut self.groups[loser].members);
            for &e in &moved {
                let e = self.find_expr(e);
                self.group_of[e] = winner;
            }
            self.groups[winner].members.extend(moved);
            self.parents[loser] = winner;
            self.dirty.push(winner);
            self.merges.push((loser, winner));
            result = winner;

            // Congruence repair: re-canonicalize parents of both sides;
            // colliding keys alias their expressions and merge their
            // groups.
            let mut parents: Vec<ExprId> = Vec::new();
            for g in [winner, loser] {
                if let Some(ps) = self.parents_index.remove(&g) {
                    parents.extend(ps);
                }
            }
            let mut kept: Vec<ExprId> = Vec::new();
            for p in parents {
                let p = self.find_expr(p);
                if kept.contains(&p) {
                    continue;
                }
                kept.push(p);
                let op = Arc::clone(&self.exprs[p].op);
                let canon_children: Vec<GroupId> = {
                    let cs = self.exprs[p].children.clone();
                    cs.into_iter().map(|g| self.find(g)).collect()
                };
                let key = self.shallow_key(&op, &canon_children);
                match self.expr_index.get(&key) {
                    Some(&other) => {
                        let other = self.find_expr(other);
                        if other != p {
                            self.alias_exprs(other, p);
                            pending.push((other, p));
                        }
                    }
                    None => {
                        self.expr_index.insert(key, p);
                    }
                }
            }
            self.parents_index.entry(winner).or_default().extend(kept);
        }
        result
    }

    /// Alias expression `loser` to `winner` (their canonical keys
    /// collided), merging reachability metadata.
    fn alias_exprs(&mut self, winner: ExprId, loser: ExprId) {
        if winner == loser {
            return;
        }
        let (ctxs, base) = {
            let l = &self.exprs[loser];
            (l.ctxs.clone(), l.base)
        };
        let occupants = std::mem::take(&mut self.exprs[loser].occupants);
        self.add_occupants(winner, occupants);
        {
            let w = &mut self.exprs[winner];
            w.base |= base;
            for c in ctxs {
                if !w.ctxs.iter().any(|have| have.covers(&c)) {
                    w.ctxs.retain(|have| !c.covers(have));
                    w.ctxs.push(c);
                }
            }
        }
        self.expr_parents[loser] = winner;
        self.live_exprs -= 1;
        // Re-key the loser's outgoing rule edges to the winner.
        if let Some(edges) = self.rule_edges.remove(&loser) {
            self.rule_edges.entry(winner).or_default().extend(edges);
        }
        // Drop the loser from its group's member list (it may sit in the
        // same group as the winner already).
        let g = self.group_of(winner);
        self.groups[g].members.retain(|&e| e != loser);
        self.dirty.push(g);
    }

    /// Bottom-up static properties of an expression's witness, assuming the
    /// subtree executes at `site` (flags do not influence static props).
    pub fn witness_stat(
        &mut self,
        e: ExprId,
        site: Site,
    ) -> crate::error::Result<Arc<StaticProps>> {
        let e = self.find_expr(e);
        let witness = Arc::clone(&self.exprs[e].witness);
        self.tree_stat(&witness, site)
    }

    /// Bottom-up static properties of a concrete tree executing at
    /// `site`: what `annotate` derives at its root, with every
    /// subtree the memo has seen derived once.
    pub fn tree_stat(
        &mut self,
        node: &Arc<PlanNode>,
        site: Site,
    ) -> crate::error::Result<Arc<StaticProps>> {
        let key = (ByPtr(Arc::clone(node)), site);
        if let Some(s) = self.tree_stats.get(&key) {
            return Ok(Arc::clone(s));
        }
        let csite = node.child_site(site);
        let children = node
            .children()
            .into_iter()
            .map(|c| self.tree_stat(c, csite))
            .collect::<crate::error::Result<Vec<_>>>()?;
        let stat = Arc::new(node_stat(node, &stat_refs(&children), site)?);
        self.tree_stats.insert(key, Arc::clone(&stat));
        Ok(stat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BaseProps, PlanBuilder};
    use crate::schema::Schema;
    use crate::value::DataType;

    fn tscan(name: &str) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        PlanBuilder::scan(name, BaseProps::unordered(s, 100))
    }

    #[test]
    fn shared_subtrees_hash_cons() {
        let mut memo = Memo::new(true);
        let a = Arc::new(tscan("A").rdup_t().coalesce().node());
        let b = Arc::new(
            tscan("A")
                .rdup_t()
                .sort(crate::sortspec::Order::asc(&["E"]))
                .node(),
        );
        let ea = memo.insert_subtree(&a, 1000).unwrap();
        let eb = memo.insert_subtree(&b, 1000).unwrap();
        assert_ne!(memo.group_of(ea), memo.group_of(eb));
        // Both trees share scan + rdupT expressions: 2 shared + 2 roots.
        assert_eq!(memo.expr_count(), 4);
    }

    #[test]
    fn merge_unifies_groups() {
        let mut memo = Memo::new(true);
        let a = Arc::new(tscan("A").rdup_t().rdup_t().node());
        let b = Arc::new(tscan("A").rdup_t().node());
        let ea = memo.insert_subtree(&a, 1000).unwrap();
        let eb = memo.insert_subtree(&b, 1000).unwrap();
        memo.merge(ea, eb);
        assert_eq!(memo.group_of(ea), memo.group_of(eb));
        let g = memo.group_of(ea);
        assert_eq!(memo.members(g).len(), 2);
    }

    #[test]
    fn congruence_merges_parents() {
        // sort(rdupT(rdupT(A))) and sort(rdupT(A)): merging the sort
        // inputs must alias the two sort expressions and merge their
        // groups — upward congruence.
        let mut memo = Memo::new(true);
        let order = crate::sortspec::Order::asc(&["E"]);
        let deep = Arc::new(tscan("A").rdup_t().rdup_t().sort(order.clone()).node());
        let flat = Arc::new(tscan("A").rdup_t().sort(order).node());
        let e_deep = memo.insert_subtree(&deep, 1000).unwrap();
        let e_flat = memo.insert_subtree(&flat, 1000).unwrap();
        assert_ne!(memo.group_of(e_deep), memo.group_of(e_flat));
        // Merge the sort inputs (as D2 would).
        let deep_in = memo
            .insert_subtree(&Arc::new(tscan("A").rdup_t().rdup_t().node()), 1000)
            .unwrap();
        let flat_in = memo
            .insert_subtree(&Arc::new(tscan("A").rdup_t().node()), 1000)
            .unwrap();
        memo.merge(deep_in, flat_in);
        // The parents collapse: same canonical expression, same group.
        assert_eq!(memo.find_expr(e_deep), memo.find_expr(e_flat));
        assert_eq!(memo.group_of(e_deep), memo.group_of(e_flat));
    }

    #[test]
    fn ctx_cover_order() {
        let strict = MemoCtx::top(Site::Stratum);
        let loose = MemoCtx {
            flags: PropsFlags {
                order_required: false,
                duplicates_relevant: true,
                period_preserving: false,
            },
            site: Site::Stratum,
        };
        assert!(strict.covers(&loose));
        assert!(!loose.covers(&strict));
        assert!(!strict.covers(&MemoCtx {
            site: Site::Dbms,
            ..strict
        }));
    }

    #[test]
    fn budget_stops_insertion() {
        let mut memo = Memo::new(true);
        let a = Arc::new(tscan("A").rdup_t().coalesce().node());
        assert!(memo.insert_subtree(&a, 2).is_none());
        assert!(memo.expr_count() <= 2);
    }
}
