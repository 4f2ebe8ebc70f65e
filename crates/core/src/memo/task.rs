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
//!    over the child/grandchild group members — the depth the rule
//!    catalogue inspects — with member witnesses below. Each candidate
//!    child must itself be usable under the context it would occupy, which
//!    is exactly the reachability invariant the exhaustive enumerator
//!    maintains by construction.
//! 3. **Apply rules at the root** of every binding, gated by the
//!    enumerator's own admissibility test ([`crate::enumerate::applicable`]) and
//!    its snapshot-duplicate-freedom guard, and merge results back into
//!    the group. New members re-dirty dependent expressions, driving the
//!    closure to a fixpoint.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use crate::enumerate::applicable;
use crate::error::Result;
use crate::memo::group::{ExprId, GroupId, Memo, MemoCtx};
use crate::memo::MemoConfig;
use crate::plan::props::{annotate_with, child_flags, StaticProps};
use crate::plan::{PlanNode, Site};
use crate::rules::RuleSet;

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
    seen: HashSet<Task>,
}

impl Dependents {
    fn insert(&mut self, task: Task) {
        if self.seen.insert(task) {
            self.order.push(task);
        }
    }
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
    queued: HashSet<Task>,
    explored: HashSet<Task>,
    /// Reverse dependencies: group → tasks whose bindings draw from it,
    /// in the order they first did, so re-exploration follows the search
    /// and not a hash table's iteration.
    dependents: HashMap<GroupId, Dependents>,
    /// Bindings already rule-matched (per context): re-explorations after a
    /// group change only pay for combinations involving new members.
    seen_bindings: HashSet<(PlanNode, MemoCtx)>,
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
            queued: HashSet::new(),
            explored: HashSet::new(),
            dependents: HashMap::new(),
            seen_bindings: HashSet::new(),
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
    fn interface_variants(&mut self, g: GroupId, site: Site) -> Result<Vec<StaticProps>> {
        let mut variants: Vec<StaticProps> = Vec::new();
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
        let mut variant_sets: Vec<Vec<StaticProps>> = Vec::with_capacity(child_groups.len());
        for &g in child_groups {
            variant_sets.push(self.interface_variants(g, site)?);
        }
        for combo in cross(&variant_sets) {
            let stats: Vec<StaticProps> = combo.into_iter().cloned().collect();
            let flags = child_flags(op, ctx.flags, &stats.iter().collect::<Vec<_>>());
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
        let bindings = self.enumerate_bindings(op, ctx, child_groups)?;
        for binding in bindings {
            if !self.seen_bindings.insert((binding.clone(), ctx)) {
                continue;
            }
            let Ok(ann) = annotate_with(&binding, ctx.flags, ctx.site) else {
                continue;
            };
            let root_path: Vec<usize> = Vec::new();
            for rule in self.rules.rules() {
                for m in rule.try_apply(&binding, &root_path, &ann) {
                    self.stats.applications += 1;
                    if !applicable(rule.equivalence(), &root_path, &m.matched, &ann) {
                        continue;
                    }
                    let Ok(cand_ann) = annotate_with(&m.replacement, ctx.flags, ctx.site) else {
                        continue;
                    };
                    // The enumerator's guard: a snapshot-equivalence rewrite
                    // must not destroy a statically established
                    // snapshot-dup-freedom the surrounding licences rely on.
                    if rule.equivalence().is_snapshot() {
                        let was = ann[&root_path].stat.snapshot_dup_free;
                        let now = cand_ann[&root_path].stat.snapshot_dup_free;
                        if was && !now {
                            continue;
                        }
                    }
                    let replacement = Arc::new(m.replacement);
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

    /// Concrete trees whose root is this expression's operator and whose
    /// top two levels range over group members (witnesses below) — the
    /// depth the rule catalogue inspects. Children are filtered by
    /// usability under the context they would occupy.
    fn enumerate_bindings(
        &mut self,
        op: &PlanNode,
        ctx: MemoCtx,
        child_groups: &[GroupId],
    ) -> Result<Vec<PlanNode>> {
        if child_groups.is_empty() {
            return Ok(vec![op.clone()]);
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
            let flags = child_flags(op, ctx.flags, &stats.iter().collect::<Vec<_>>());
            let mut subtrees: Vec<Arc<PlanNode>> = Vec::with_capacity(members.len());
            for (&m, f) in members.iter().zip(flags) {
                let cctx = MemoCtx { flags: f, site };
                if !self.memo.exprs[m].usable_under(&cctx) {
                    continue 'combos;
                }
                match self.expand_member(m, cctx)? {
                    Some(trees) => subtrees.push(trees),
                    None => continue 'combos,
                }
            }
            if out.len() >= self.config.max_bindings_per_expr {
                self.stats.truncated = true;
                break;
            }
            self.stats.bindings += 1;
            out.push(op.with_children(subtrees)?);
        }
        Ok(out)
    }

    /// A member as a concrete subtree for binding purposes: its own
    /// operator over child-group *witnesses*. Returns `None` when a
    /// grandchild slot has no usable member.
    ///
    /// Grandchildren use one representative witness rather than ranging
    /// over members: rules read grandchild *properties* (not deeper
    /// structure), and property variants surface through the re-exploration
    /// a dirtied group triggers, where each new member becomes the witness
    /// of its own expression.
    fn expand_member(&mut self, m: ExprId, ctx: MemoCtx) -> Result<Option<Arc<PlanNode>>> {
        let op = Arc::clone(&self.memo.exprs[m].op);
        let gchild_groups: Vec<GroupId> = {
            let gs = self.memo.exprs[m].children.clone();
            gs.into_iter().map(|g| self.memo.find(g)).collect()
        };
        if gchild_groups.is_empty() {
            return Ok(Some(op));
        }
        let site = op.child_site(ctx.site);
        let mut chosen: Vec<Arc<PlanNode>> = Vec::with_capacity(gchild_groups.len());
        let mut stats: Vec<StaticProps> = Vec::with_capacity(gchild_groups.len());
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
        let flags = child_flags(&op, ctx.flags, &stats.iter().collect::<Vec<_>>());
        for (&p, f) in picks.iter().zip(flags) {
            let cctx = MemoCtx { flags: f, site };
            if !self.memo.exprs[p].usable_under(&cctx) {
                return Ok(None);
            }
            chosen.push(Arc::clone(&self.memo.exprs[p].witness));
        }
        Ok(Some(Arc::new(op.with_children(chosen)?)))
    }
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
