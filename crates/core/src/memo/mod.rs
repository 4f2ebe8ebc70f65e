//! A Cascades-style memo optimizer for the Figure 5 rule space — the one
//! search [`crate::optimizer::optimize`] runs.
//!
//! The exhaustive enumerator ([`crate::enumerate`]) materializes every
//! equivalent plan as a standalone tree: a closure with `v` variants in
//! each of `k` independent regions stores `v^k` plans and walls at the
//! `max_plans` budget. The memo stores the same search space factored:
//!
//! * a **group** ([`group::Group`]) is an equivalence class of subplans —
//!   every member produces an acceptable substitute at the locations the
//!   group occupies;
//! * an **expression** ([`group::MemoExpr`]) is one operator whose children
//!   are *groups*, not trees, so the `v^k` cross product is represented in
//!   `O(v·k)` space and searched with branch-and-bound instead of being
//!   materialized.
//!
//! The paper's property machinery survives intact. Equivalence of group
//! members is **contextual**: a rule tagged `≡M` may only fire where
//! `¬OrderRequired`, so a member derived by it is usable only at locations
//! whose Table 2 flag vector licenses the rewrite. Each derived member
//! therefore records the [`group::MemoCtx`] (flags + execution site) it was
//! derived under; extraction re-checks the context induced by the actual
//! parent choice, and the snapshot-duplicate-freedom guard of the
//! enumerator reappears as a license check on the *chosen* child's static
//! properties rather than on a whole materialized plan.
//!
//! Module layout:
//!
//! * [`group`] — the memo table: hash-consed expressions (projection
//!   cascades composed as they enter), union-find over groups, context
//!   records;
//! * [`task`] — the exploration engine: a worklist of
//!   (expression, context) tasks that applies the [`crate::rules::RuleSet`]
//!   to depth-bounded bindings and merges the results back in;
//! * [`search`] — the public entry point [`search::memo_search`], driving
//!   exploration to a fixpoint under budgets;
//! * [`extract`] — cost-guided best-plan extraction: a Pareto fixpoint
//!   over (group, context) cells against the existing
//!   [`crate::cost::CostModel`], pruned by the initial plan's cost.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

pub mod extract;
pub mod group;
pub mod search;
pub mod task;

pub use group::{GroupId, Memo, MemoCtx};
pub use search::{memo_search, MemoResult, MemoStats};

/// Budgets for memo exploration.
///
/// Unlike the enumerator's `max_plans` (which caps the number of *plans*,
/// i.e. the product of per-region variants), these caps scale with the
/// number of distinct *subexpressions* — the sum. The defaults comfortably
/// cover closures whose materialized form would exceed `max_plans` by
/// orders of magnitude.
#[derive(Debug, Clone, Copy)]
pub struct MemoConfig {
    /// Maximum number of distinct expressions in the memo.
    pub max_exprs: usize,
    /// Maximum rule-application bindings per (expression, context) visit.
    pub max_bindings_per_expr: usize,
    /// Maximum entries kept per (group, context) Pareto cell during
    /// extraction.
    pub max_pareto_entries: usize,
    /// Maximum exploration tasks executed before the closure stops as
    /// best-effort (`truncated` set, no error) — the anytime knob: the memo
    /// is valid at every prefix of the worklist, so stopping early yields
    /// the best plan of the space explored so far.
    pub max_tasks: usize,
    /// Wall-clock budget for exploration, in milliseconds. `None` is
    /// unbudgeted. Like `max_tasks`, exhaustion truncates gracefully rather
    /// than erroring; the deadline is checked once per task pop.
    pub time_budget_ms: Option<u64>,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            max_exprs: 20_000,
            max_bindings_per_expr: 1024,
            max_pareto_entries: 32,
            max_tasks: usize::MAX,
            time_budget_ms: None,
        }
    }
}

/// The memo's id-keyed hash maps and sets. Their keys are ids and
/// addresses the search itself makes, never a client's names or
/// literals, so a fixed multiplicative hash serves where the default keyed
/// one would spend most of a lookup hashing.
pub(crate) type Map<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// See [`Map`].
pub(crate) type Set<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// A word-at-a-time rotate-xor-multiply hash (the Firefox/rustc "Fx"
/// hash), with the high half folded into the low so that aligned
/// addresses do not crowd a table's low-bit buckets.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}
