//! The exploration engine: a worklist of (expression, context) tasks.
//!
//! Exploring an expression under a context does three things, mirroring one
//! step of the Figure 5 closure but scoped to a single memo location:
//!
//! 1. **Propagate contexts down**: compute the Table 2 flag vectors the
//!    expression induces on its children (via [`crate::plan::props::child_flags`] — the
//!    same relaxation `annotate` uses) and schedule every child-group
//!    member under them. Members differing in snapshot-duplicate-freedom
//!    induce different vectors (the coalescing license, the `\ᵀ` right
//!    branch), so variants are scheduled per observed interface.
//! 2. **Bind**: materialize concrete subtrees whose top two levels range
//!    over the child/grandchild group members, with member witnesses
//!    below, and annotate them as deep as the rule catalogue matches
//!    (three levels below the root). Each candidate child must itself be
//!    usable under the context it would occupy, which is exactly the
//!    reachability invariant the exhaustive enumerator maintains by
//!    construction.
//! 3. **Apply rules at the root** of every binding, gated by the
//!    enumerator's own admissibility test ([`crate::enumerate::applicable`]) and
//!    its snapshot-duplicate-freedom guard, and merge results back into
//!    the group. New members re-dirty dependent expressions, driving the
//!    closure to a fixpoint.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::enumerate::applicable;
use crate::error::Result;
use crate::memo::group::{ExprId, GroupId, Memo, MemoCtx};
use crate::memo::{Map, MemoConfig, Set};
use crate::plan::props::{child_flags, node_stat, Annotations, NodeProps, PropsFlags, StaticProps};
use crate::plan::{PlanNode, Site};
use crate::rules::RuleSet;

/// How many levels below a binding's root the rules read and match: C5
/// to C9 match the arguments of the root's grandchildren (`[0, 0, 0]`).
const RULE_DEPTH: usize = 3;

/// One unit of exploration work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// The expression to explore.
    pub expr: ExprId,
    /// The context (demands + site) to explore it under.
    pub ctx: MemoCtx,
}

/// The tasks that depend on one group: in first-dependence order, each
/// once.
#[derive(Default)]
struct Dependents {
    order: Vec<Task>,
    seen: Set<Task>,
}

impl Dependents {
    fn insert(&mut self, task: Task) {
        if self.seen.insert(task) {
            self.order.push(task);
        }
    }
}

/// A binding's identity: the root expression, each child slot's member
/// with the grandchild witnesses it was expanded over, and the context.
/// Equal keys build equal trees, so a key names what was rule-matched
/// without hashing the tree.
type BindingKey = (ExprId, Vec<(ExprId, Vec<ExprId>)>, MemoCtx);

/// One concrete tree to rule-match, with its identity.
struct Binding {
    node: PlanNode,
    key: BindingKey,
}

/// Counters reported by the explorer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExploreStats {
    /// Rule applications attempted (matched locations), as in
    /// `Enumeration::applications`.
    pub applications: usize,
    /// Concrete bindings materialized for rule matching.
    pub bindings: usize,
    /// Tasks executed (including re-explorations after merges).
    pub tasks: usize,
    /// True when an expression or binding budget stopped the closure.
    pub truncated: bool,
}

/// The worklist-driven exploration engine closing a memo under a rule
/// set.
pub struct Explorer<'a> {
    /// The memo being closed.
    pub memo: Memo,
    rules: &'a RuleSet,
    config: MemoConfig,
    queue: VecDeque<Task>,
    queued: Set<Task>,
    explored: Set<Task>,
    /// Reverse dependencies: group → tasks whose bindings draw from it,
    /// in the order they first did, so re-exploration follows the search
    /// and not a hash table's iteration.
    dependents: Map<GroupId, Dependents>,
    /// Bindings already rule-matched (per context): re-explorations after a
    /// group change only pay for combinations involving new members.
    seen_bindings: Set<BindingKey>,
    /// Each member expanded over its grandchild witnesses, built once so
    /// that the tree, its derived properties and the rewrites sharing it
    /// are one allocation.
    expanded: Map<(ExprId, Vec<ExprId>), Arc<PlanNode>>,
    /// Exploration counters.
    pub stats: ExploreStats,
}

impl<'a> Explorer<'a> {
    /// An explorer over `memo` applying `rules` within `config` budgets.
    pub fn new(memo: Memo, rules: &'a RuleSet, config: MemoConfig) -> Explorer<'a> {
        Explorer {
            memo,
            rules,
            config,
            queue: VecDeque::new(),
            queued: Set::default(),
            explored: Set::default(),
            dependents: Map::default(),
            seen_bindings: Set::default(),
            expanded: Map::default(),
            stats: ExploreStats::default(),
        }
    }

    /// Queue a task unless it is already queued or explored.
    pub fn schedule(&mut self, task: Task) {
        let task = Task {
            expr: self.memo.find_expr(task.expr),
            ctx: task.ctx,
        };
        if self.explored.contains(&task) || !self.queued.insert(task) {
            return;
        }
        self.queue.push_back(task);
    }

    /// Run scheduled tasks (and the re-explorations they trigger) to a
    /// fixpoint — or until a task/time budget truncates the closure.
    ///
    /// The memo is valid at every prefix of the worklist, so budget
    /// exhaustion stops *gracefully*: `stats.truncated` is set and
    /// extraction proceeds over the space explored so far (the anytime
    /// property ROADMAP item 3 asks for). Cooperative cancellation via the
    /// installed [`crate::context::QueryContext`] is different in kind: the
    /// caller no longer wants any answer, so it is a hard typed error.
    pub fn run(&mut self) -> Result<()> {
        let started = std::time::Instant::now();
        while let Some(task) = self.queue.pop_front() {
            crate::context::check_current()?;
            if self.stats.tasks >= self.config.max_tasks
                || self
                    .config
                    .time_budget_ms
                    .is_some_and(|ms| started.elapsed().as_millis() as u64 >= ms)
            {
                self.stats.truncated = true;
                break;
            }
            self.queued.remove(&task);
            let task = Task {
                expr: self.memo.find_expr(task.expr),
                ctx: task.ctx,
            };
            if !self.explored.insert(task) {
                continue;
            }
            self.stats.tasks += 1;
            self.explore(task)?;
            self.requeue_dirty();
        }
        Ok(())
    }

    /// Re-enqueue tasks whose source groups changed; migrate dependency
    /// records across group unions first so no key goes stale.
    fn requeue_dirty(&mut self) {
        for (loser, winner) in std::mem::take(&mut self.memo.merges) {
            if let Some(tasks) = self.dependents.remove(&loser) {
                let into = self.dependents.entry(winner).or_default();
                for task in tasks.order {
                    into.insert(task);
                }
            }
        }
        let dirty = std::mem::take(&mut self.memo.dirty);
        for g in dirty {
            let g = self.memo.find(g);
            let Some(tasks) = self.dependents.get(&g) else {
                continue;
            };
            for task in tasks.order.clone() {
                self.explored.remove(&task);
                if self.queued.insert(task) {
                    self.queue.push_back(task);
                }
            }
        }
    }

    /// Distinct child-interface variants of a group: one representative
    /// member's static props per observed snapshot-dup-freedom value (the
    /// only interface bit the flag relaxation reads besides the schema,
    /// which is invariant across a group).
    fn interface_variants(&mut self, g: GroupId, site: Site) -> Result<Vec<Arc<StaticProps>>> {
        let mut variants: Vec<Arc<StaticProps>> = Vec::new();
        for e in self.memo.members(g) {
            let stat = self.memo.witness_stat(e, site)?;
            if !variants
                .iter()
                .any(|v| v.snapshot_dup_free == stat.snapshot_dup_free)
            {
                variants.push(stat);
            }
        }
        Ok(variants)
    }

    fn explore(&mut self, task: Task) -> Result<()> {
        let Task { expr, ctx } = task;
        let op = Arc::clone(&self.memo.exprs[expr].op);
        let child_groups: Vec<GroupId> = {
            let gs = self.memo.exprs[expr].children.clone();
            gs.into_iter().map(|g| self.memo.find(g)).collect()
        };

        // Bindings draw from children and grandchildren: depend on both.
        let mut dep_groups: Vec<GroupId> = child_groups.clone();
        for &g in &child_groups {
            for m in self.memo.members(g) {
                let gs = self.memo.exprs[m].children.clone();
                dep_groups.extend(gs.into_iter().map(|g| self.memo.find(g)));
            }
        }
        for g in dep_groups {
            self.dependents.entry(g).or_default().insert(task);
        }

        self.propagate_contexts(&op, ctx, &child_groups)?;
        self.apply_rules(task, &op, &child_groups)?;
        Ok(())
    }

    /// Step 1: schedule child members under the contexts this expression
    /// induces, one flag vector per combination of child sdf interfaces.
    fn propagate_contexts(
        &mut self,
        op: &PlanNode,
        ctx: MemoCtx,
        child_groups: &[GroupId],
    ) -> Result<()> {
        if child_groups.is_empty() {
            return Ok(());
        }
        let site = op.child_site(ctx.site);
        let mut variant_sets: Vec<Vec<Arc<StaticProps>>> = Vec::with_capacity(child_groups.len());
        for &g in child_groups {
            variant_sets.push(self.interface_variants(g, site)?);
        }
        for combo in cross(&variant_sets) {
            let stats: Vec<&StaticProps> = combo.into_iter().map(|s| &**s).collect();
            let flags = child_flags(op, ctx.flags, &stats);
            for (i, f) in flags.into_iter().enumerate() {
                let cctx = MemoCtx { flags: f, site };
                for m in self.memo.members(child_groups[i]) {
                    // Members pair with the flag vector computed from their
                    // own interface.
                    let stat = self.memo.witness_stat(m, site)?;
                    if stat.snapshot_dup_free != stats[i].snapshot_dup_free {
                        continue;
                    }
                    if self.memo.exprs[m].usable_under(&cctx) {
                        self.schedule(Task { expr: m, ctx: cctx });
                    }
                }
            }
        }
        Ok(())
    }

    /// Steps 2 and 3: materialize bindings and fire the rule set at their
    /// roots.
    fn apply_rules(&mut self, task: Task, op: &PlanNode, child_groups: &[GroupId]) -> Result<()> {
        let ctx = task.ctx;
        let bindings = self.enumerate_bindings(task, op, child_groups)?;
        for Binding { node: binding, key } in bindings {
            if !self.seen_bindings.insert(key) {
                continue;
            }
            let Ok(ann) = self.annotate_binding(&binding, ctx) else {
                continue;
            };
            let root_path: Vec<usize> = Vec::new();
            for rule in self.rules.rules() {
                for m in rule.try_apply(&binding, &root_path, &ann) {
                    self.stats.applications += 1;
                    debug_assert!(
                        m.matched.iter().all(|p| ann.contains_key(p)),
                        "{} matched below the annotated depth",
                        rule.name()
                    );
                    if !applicable(rule.equivalence(), &root_path, &m.matched, &ann) {
                        continue;
                    }
                    let replacement = Arc::new(m.replacement);
                    let Ok(cand) = self.memo.tree_stat(&replacement, ctx.site) else {
                        continue;
                    };
                    // The enumerator's guard: a snapshot-equivalence rewrite
                    // must not destroy a statically established
                    // snapshot-dup-freedom the surrounding licences rely on.
                    if rule.equivalence().is_snapshot()
                        && ann[&root_path].stat.snapshot_dup_free
                        && !cand.snapshot_dup_free
                    {
                        continue;
                    }
                    let Some(derived) = self
                        .memo
                        .insert_subtree(&replacement, self.config.max_exprs)
                    else {
                        self.stats.truncated = true;
                        continue;
                    };
                    let extended = self.memo.record_rule_ctx(derived, ctx);
                    self.memo
                        .record_edge(task.expr, derived, ctx, rule.name(), rule.equivalence());
                    let group = self.memo.merge(task.expr, derived);
                    if extended {
                        self.memo.dirty.push(group);
                    }
                    self.schedule(Task { expr: derived, ctx });
                }
            }
        }
        Ok(())
    }

    /// What `annotate` says of the binding, rooted under `ctx`, down to
    /// [`RULE_DEPTH`] levels below its root. Every node below the root is
    /// a member or a witness subtree whose properties the memo derived
    /// once, so only the root is derived here.
    fn annotate_binding(&mut self, binding: &PlanNode, ctx: MemoCtx) -> Result<Annotations> {
        let mut ann = Annotations::new();
        let mut path = Vec::with_capacity(RULE_DEPTH);
        let child_stats = self.annotate_below(
            binding, ctx.flags, ctx.site, RULE_DEPTH, &mut path, &mut ann,
        )?;
        let root = NodeProps {
            stat: Arc::new(node_stat(binding, &stat_refs(&child_stats), ctx.site)?),
            flags: ctx.flags,
            site: ctx.site,
        };
        ann.insert(Vec::new(), root);
        Ok(ann)
    }

    /// Annotate the descendants of `node` (at `path`, under `flags`, at
    /// `site`) `depth` levels down; returns its children's properties.
    fn annotate_below(
        &mut self,
        node: &PlanNode,
        flags: PropsFlags,
        site: Site,
        depth: usize,
        path: &mut Vec<usize>,
        ann: &mut Annotations,
    ) -> Result<Vec<Arc<StaticProps>>> {
        let csite = node.child_site(site);
        let children = node.children();
        let stats = children
            .iter()
            .map(|c| self.memo.tree_stat(c, csite))
            .collect::<Result<Vec<_>>>()?;
        let flags = child_flags(node, flags, &stat_refs(&stats));
        for (i, (child, f)) in children.into_iter().zip(flags).enumerate() {
            path.push(i);
            if depth > 1 {
                self.annotate_below(child, f, csite, depth - 1, path, ann)?;
            }
            let props = NodeProps {
                stat: Arc::clone(&stats[i]),
                flags: f,
                site: csite,
            };
            ann.insert(path.clone(), props);
            path.pop();
        }
        Ok(stats)
    }

    /// Concrete trees whose root is this expression's operator and whose
    /// top two levels range over group members (witnesses below): rules
    /// match structure no deeper than a grandchild's operator. Children
    /// are filtered by usability under the context they would occupy.
    fn enumerate_bindings(
        &mut self,
        task: Task,
        op: &PlanNode,
        child_groups: &[GroupId],
    ) -> Result<Vec<Binding>> {
        let Task { expr, ctx } = task;
        if child_groups.is_empty() {
            return Ok(vec![Binding {
                node: op.clone(),
                key: (expr, Vec::new(), ctx),
            }]);
        }
        let site = op.child_site(ctx.site);
        let mut member_sets: Vec<Vec<ExprId>> = Vec::with_capacity(child_groups.len());
        for &g in child_groups {
            member_sets.push(self.memo.members(g));
        }
        let mut out = Vec::new();
        'combos: for combo in cross(&member_sets) {
            let members: Vec<ExprId> = combo.into_iter().copied().collect();
            let mut stats = Vec::with_capacity(members.len());
            for &m in &members {
                stats.push(self.memo.witness_stat(m, site)?);
            }
            let flags = child_flags(op, ctx.flags, &stat_refs(&stats));
            let mut subtrees: Vec<Arc<PlanNode>> = Vec::with_capacity(members.len());
            let mut slots = Vec::with_capacity(members.len());
            for (&m, f) in members.iter().zip(flags) {
                let cctx = MemoCtx { flags: f, site };
                if !self.memo.exprs[m].usable_under(&cctx) {
                    continue 'combos;
                }
                match self.expand_member(m, cctx)? {
                    Some((tree, picks)) => {
                        subtrees.push(tree);
                        slots.push((m, picks));
                    }
                    None => continue 'combos,
                }
            }
            if out.len() >= self.config.max_bindings_per_expr {
                self.stats.truncated = true;
                break;
            }
            self.stats.bindings += 1;
            out.push(Binding {
                node: op.with_children(subtrees)?,
                key: (expr, slots, ctx),
            });
        }
        Ok(out)
    }

    /// A member as a concrete subtree for binding purposes: its own
    /// operator over child-group *witnesses*, with the witnesses' ids.
    /// Returns `None` when a grandchild slot has no usable member.
    ///
    /// Grandchildren use one representative witness rather than ranging
    /// over members: rules read grandchild *properties* (not deeper
    /// structure), and property variants surface through the re-exploration
    /// a dirtied group triggers, where each new member becomes the witness
    /// of its own expression.
    fn expand_member(
        &mut self,
        m: ExprId,
        ctx: MemoCtx,
    ) -> Result<Option<(Arc<PlanNode>, Vec<ExprId>)>> {
        let op = Arc::clone(&self.memo.exprs[m].op);
        let gchild_groups: Vec<GroupId> = {
            let gs = self.memo.exprs[m].children.clone();
            gs.into_iter().map(|g| self.memo.find(g)).collect()
        };
        if gchild_groups.is_empty() {
            return Ok(Some((op, Vec::new())));
        }
        let site = op.child_site(ctx.site);
        let mut stats: Vec<Arc<StaticProps>> = Vec::with_capacity(gchild_groups.len());
        let mut picks: Vec<ExprId> = Vec::with_capacity(gchild_groups.len());
        for &g in &gchild_groups {
            // Representative: the first member (the original subtree at
            // this location, by insertion order).
            let Some(&first) = self.memo.members(g).first() else {
                return Ok(None);
            };
            stats.push(self.memo.witness_stat(first, site)?);
            picks.push(first);
        }
        let flags = child_flags(&op, ctx.flags, &stat_refs(&stats));
        for (&p, f) in picks.iter().zip(flags) {
            let cctx = MemoCtx { flags: f, site };
            if !self.memo.exprs[p].usable_under(&cctx) {
                return Ok(None);
            }
        }
        let key = (m, picks);
        let tree = match self.expanded.get(&key) {
            Some(tree) => Arc::clone(tree),
            None => {
                let witnesses = key
                    .1
                    .iter()
                    .map(|&p| Arc::clone(&self.memo.exprs[p].witness));
                let tree = Arc::new(op.with_children(witnesses.collect())?);
                self.expanded.insert(key.clone(), Arc::clone(&tree));
                tree
            }
        };
        Ok(Some((tree, key.1)))
    }
}

/// Borrow shared properties as the slice [`child_flags`] and
/// [`node_stat`] take.
pub(crate) fn stat_refs(stats: &[Arc<StaticProps>]) -> Vec<&StaticProps> {
    stats.iter().map(|s| &**s).collect()
}

/// Iterate the cross product of several slices (empty product = one empty
/// combination).
pub(crate) fn cross<'t, T>(sets: &'t [Vec<T>]) -> CrossProduct<'t, T> {
    CrossProduct {
        sets,
        indices: vec![0; sets.len()],
        done: sets.iter().any(|s| s.is_empty()),
    }
}

pub(crate) struct CrossProduct<'t, T> {
    sets: &'t [Vec<T>],
    indices: Vec<usize>,
    done: bool,
}

impl<'t, T> Iterator for CrossProduct<'t, T> {
    type Item = Vec<&'t T>;

    fn next(&mut self) -> Option<Vec<&'t T>> {
        if self.done {
            return None;
        }
        let item: Vec<&T> = self
            .sets
            .iter()
            .zip(&self.indices)
            .map(|(s, &i)| &s[i])
            .collect();
        // Advance odometer.
        self.done = true;
        for i in (0..self.indices.len()).rev() {
            self.indices[i] += 1;
            if self.indices[i] < self.sets[i].len() {
                self.done = false;
                break;
            }
            self.indices[i] = 0;
        }
        if self.indices.is_empty() {
            self.done = true;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_covers_all_combinations() {
        let sets = vec![vec![1, 2], vec![10, 20, 30]];
        let combos: Vec<Vec<&i32>> = cross(&sets).collect();
        assert_eq!(combos.len(), 6);
        let sets2: Vec<Vec<i32>> = vec![];
        assert_eq!(cross(&sets2).count(), 1);
        let empty = vec![vec![1], vec![]];
        assert_eq!(cross(&empty).count(), 0);
    }
}
