//! The query-plan enumeration algorithm of Figure 5.
//!
//! Starting from an initial plan, the algorithm exhaustively applies every
//! rule of a [`RuleSet`] at every matching location of every known plan,
//! admitting an application only when the rule's equivalence type is
//! licensed by the operation properties of the matched location:
//!
//! ```text
//! ≡L   — always
//! ≡M   — ∀op: ¬OrderRequired
//! ≡S   — ∀op: ¬DuplicatesRelevant ∧ ¬OrderRequired
//! ≡SL  — ∀op: ¬PeriodPreserving
//! ≡SM  — ∀op: ¬OrderRequired ∧ ¬PeriodPreserving
//! ≡SS  — ∀op: ¬DuplicatesRelevant ∧ ¬OrderRequired ∧ ¬PeriodPreserving
//! ```
//!
//! The rule catalogue contains no operation-introducing rules, so the
//! closure is finite; a plan budget additionally bounds the search. The
//! algorithm is deterministic: plans are processed in discovery order,
//! rules and locations in fixed order, and duplicates are recognized
//! structurally.

use std::collections::HashMap;
use std::sync::Arc;

use crate::cost::{Cost, CostModel};
use crate::equivalence::EquivalenceType;
use crate::error::Result;
use crate::plan::props::{annotate, Annotations};
use crate::plan::{LogicalPlan, Path, PlanNode};
use crate::rules::RuleSet;

/// One recorded rule application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleApplication {
    /// The applied rule's name.
    pub rule: String,
    /// The strongest equivalence the application preserves.
    pub equivalence: EquivalenceType,
    /// Absolute path of the location the rule fired at.
    pub location: Path,
    /// Index (into the enumeration output) of the plan the rule was
    /// applied to.
    pub parent: usize,
}

/// An enumerated plan with its derivation provenance.
#[derive(Debug, Clone)]
pub struct EnumeratedPlan {
    /// The enumerated plan.
    pub plan: LogicalPlan,
    /// How this plan was derived (`None` for the initial plan).
    pub derivation: Option<RuleApplication>,
}

/// The enumeration result.
#[derive(Debug, Default)]
pub struct Enumeration {
    /// Every enumerated plan, the initial one first.
    pub plans: Vec<EnumeratedPlan>,
    /// True when the plan budget stopped the closure early.
    pub truncated: bool,
    /// Total number of rule applications attempted (matched locations).
    pub applications: usize,
}

impl Enumeration {
    /// Reconstruct the chain of rule applications leading to plan `idx`.
    pub fn derivation_chain(&self, mut idx: usize) -> Vec<RuleApplication> {
        let mut chain = Vec::new();
        while let Some(app) = &self.plans[idx].derivation {
            chain.push(app.clone());
            idx = app.parent;
        }
        chain.reverse();
        chain
    }

    /// The index and cost of the cheapest plan under `model` (the first
    /// among equals, so plan 0 wins unless a rewrite is strictly cheaper).
    /// The closure's optimum: the oracle [`crate::optimizer::optimize`]'s
    /// memo search is held to wherever the closure finishes.
    pub fn cheapest(&self, model: &CostModel) -> Result<(usize, Cost)> {
        let mut best = (0, Cost::INVALID);
        for (i, candidate) in self.plans.iter().enumerate() {
            let c = model.cost(&candidate.plan)?;
            if c < best.1 {
                best = (i, c);
            }
        }
        Ok(best)
    }
}

/// Enumeration limits.
#[derive(Debug, Clone, Copy)]
pub struct EnumerationConfig {
    /// Maximum number of distinct plans to produce.
    pub max_plans: usize,
}

impl Default for EnumerationConfig {
    fn default() -> Self {
        EnumerationConfig { max_plans: 4096 }
    }
}

/// Figure 5's applicability test: check the operation properties of every
/// matched node against the rule's equivalence type.
pub fn applicable(
    eq: EquivalenceType,
    location: &Path,
    matched_relative: &[Path],
    ann: &Annotations,
) -> bool {
    if eq == EquivalenceType::List {
        return true;
    }
    matched_relative.iter().all(|rel| {
        let mut abs = location.clone();
        abs.extend_from_slice(rel);
        let Some(props) = ann.get(&abs) else {
            return false;
        };
        let f = props.flags;
        match eq {
            EquivalenceType::List => true,
            EquivalenceType::Multiset => !f.order_required,
            EquivalenceType::Set => !f.duplicates_relevant && !f.order_required,
            EquivalenceType::SnapshotList => !f.period_preserving,
            EquivalenceType::SnapshotMultiset => !f.order_required && !f.period_preserving,
            EquivalenceType::SnapshotSet => {
                !f.duplicates_relevant && !f.order_required && !f.period_preserving
            }
        }
    })
}

/// Run the Figure 5 closure from `initial` under `rules`.
pub fn enumerate(
    initial: &LogicalPlan,
    rules: &RuleSet,
    config: EnumerationConfig,
) -> Result<Enumeration> {
    let mut plans: Vec<EnumeratedPlan> = Vec::new();
    let mut seen: HashMap<Arc<PlanNode>, usize> = HashMap::new();
    let mut truncated = false;
    let mut applications = 0usize;

    plans.push(EnumeratedPlan {
        plan: initial.clone(),
        derivation: None,
    });
    seen.insert(initial.root.clone(), 0);

    let mut i = 0;
    'outer: while i < plans.len() {
        let current = plans[i].plan.clone();
        // Re-annotating after every transformation realizes the paper's
        // "adjust the properties of P′" step (global recomputation is the
        // always-correct form of the local adjustment).
        let ann = annotate(&current)?;
        for rule in rules.rules() {
            for path in current.root.paths() {
                let node = current.root.get(&path)?;
                for m in rule.try_apply(node, &path, &ann) {
                    applications += 1;
                    if !applicable(rule.equivalence(), &path, &m.matched, &ann) {
                        continue;
                    }
                    let new_root = current.root.replace(&path, m.replacement)?;
                    // A transformed plan must still annotate cleanly; a rule
                    // producing an ill-typed tree is a bug, surfaced here.
                    let candidate = current.with_root(new_root);
                    let cand_ann = match annotate(&candidate) {
                        Ok(a) => a,
                        Err(_) => continue,
                    };
                    // Snapshot-type licences (`¬PeriodPreserving`) in the
                    // surrounding region can be *conditioned* on this
                    // subtree being snapshot-duplicate-free (a coalescing
                    // above returns a unique relation only then, §5.2). A
                    // snapshot-equivalence rewrite must therefore not
                    // destroy a statically established sdf property —
                    // otherwise removing, say, a rdupᵀ below a coalᵀ via
                    // D4 would change the final result beyond ≡SQL.
                    if rule.equivalence().is_snapshot() {
                        let was_sdf = ann
                            .get(&path)
                            .map(|p| p.stat.snapshot_dup_free)
                            .unwrap_or(false);
                        let now_sdf = cand_ann
                            .get(&path)
                            .map(|p| p.stat.snapshot_dup_free)
                            .unwrap_or(false);
                        if was_sdf && !now_sdf {
                            continue;
                        }
                    }
                    let root = candidate.root.clone();
                    if seen.contains_key(&root) {
                        continue;
                    }
                    if plans.len() >= config.max_plans {
                        truncated = true;
                        break 'outer;
                    }
                    seen.insert(root, plans.len());
                    plans.push(EnumeratedPlan {
                        plan: candidate,
                        derivation: Some(RuleApplication {
                            rule: rule.name().to_owned(),
                            equivalence: rule.equivalence(),
                            location: path.clone(),
                            parent: i,
                        }),
                    });
                }
            }
        }
        i += 1;
    }

    Ok(Enumeration {
        plans,
        truncated,
        applications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BaseProps, PlanBuilder};
    use crate::schema::Schema;
    use crate::sortspec::Order;
    use crate::value::DataType;

    fn tscan(name: &str, clean: bool) -> PlanBuilder {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        let base = if clean {
            BaseProps::clean(s, 100)
        } else {
            BaseProps::unordered(s, 100)
        };
        PlanBuilder::scan(name, base)
    }

    #[test]
    fn initial_plan_is_always_included() {
        let plan = tscan("R", false).build_multiset();
        let e = enumerate(&plan, &RuleSet::figure4(), EnumerationConfig::default()).unwrap();
        assert_eq!(e.plans.len(), 1);
        assert!(!e.truncated);
    }

    #[test]
    fn multiset_query_admits_sort_elimination() {
        let plan = tscan("R", false).sort(Order::asc(&["E"])).build_multiset();
        let e = enumerate(&plan, &RuleSet::figure4(), EnumerationConfig::default()).unwrap();
        // S2 drops the sort.
        assert!(e.plans.iter().any(|p| p.plan.root.op_name() == "scan"));
    }

    #[test]
    fn list_query_blocks_sort_elimination() {
        let plan = tscan("R", false)
            .sort(Order::asc(&["E"]))
            .build_list(Order::asc(&["E"]));
        let e = enumerate(&plan, &RuleSet::figure4(), EnumerationConfig::default()).unwrap();
        // S2 is ≡M and the root requires order: the sort must stay.
        assert!(e.plans.iter().all(|p| p.plan.root.op_name() == "sort"));
    }

    #[test]
    fn set_query_admits_rdup_t_elimination() {
        let multi = tscan("R", false).rdup_t().build_multiset();
        let e1 = enumerate(&multi, &RuleSet::figure4(), EnumerationConfig::default()).unwrap();
        // D4 (≡SS) is blocked for a multiset query with periods preserved.
        assert!(e1.plans.iter().all(|p| p.plan.root.op_name() == "rdupT"));

        let set = tscan("R", false).rdup_t().build_set();
        let e2 = enumerate(&set, &RuleSet::figure4(), EnumerationConfig::default()).unwrap();
        // For a set query, periods are still period-preserving at the root:
        // D4 stays blocked. (Snapshot-type rules apply only below an
        // operation that absorbs snapshot differences, such as coalᵀ.)
        assert!(e2.plans.iter().all(|p| p.plan.root.op_name() == "rdupT"));
    }

    #[test]
    fn snapshot_rules_fire_below_coalesce() {
        // coalT(rdupT(rdupT(R))): the inner rdupT is redundant; D2 (≡L)
        // fires anywhere, but C2 (≡SM) also fires on nodes below the
        // coalesce because its input is snapshot-dup-free.
        let plan = tscan("R", false)
            .rdup_t()
            .coalesce()
            .coalesce()
            .build_multiset();
        let e = enumerate(&plan, &RuleSet::figure4(), EnumerationConfig::default()).unwrap();
        // C1 (outer coalesce of coalesced input) fires at the root; C2 for
        // the inner coalesce fires below the outer one.
        assert!(e.plans.len() > 1);
        assert!(e.plans.iter().any(|p| p.plan.root.size() == 3));
    }

    #[test]
    fn deterministic_output() {
        let plan = tscan("A", false)
            .rdup_t()
            .difference_t(tscan("B", false))
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["E"]))
            .build_list(Order::asc(&["E"]));
        let e1 = enumerate(&plan, &RuleSet::standard(), EnumerationConfig::default()).unwrap();
        let e2 = enumerate(&plan, &RuleSet::standard(), EnumerationConfig::default()).unwrap();
        assert_eq!(e1.plans.len(), e2.plans.len());
        for (a, b) in e1.plans.iter().zip(&e2.plans) {
            assert_eq!(a.plan.root, b.plan.root);
        }
    }

    #[test]
    fn budget_truncates() {
        let plan = tscan("A", false)
            .rdup_t()
            .difference_t(tscan("B", false))
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["E"]))
            .build_multiset();
        let e = enumerate(
            &plan,
            &RuleSet::standard(),
            EnumerationConfig { max_plans: 3 },
        )
        .unwrap();
        assert_eq!(e.plans.len(), 3);
        assert!(e.truncated);
    }

    #[test]
    fn derivation_chains_reconstruct() {
        let plan = tscan("R", false).rdup_t().rdup_t().build_multiset();
        let e = enumerate(&plan, &RuleSet::figure4(), EnumerationConfig::default()).unwrap();
        // Find the fully reduced plan (D2 removes the outer rdupT).
        let (idx, _) = e
            .plans
            .iter()
            .enumerate()
            .find(|(_, p)| p.plan.root.size() == 2)
            .expect("a reduced plan");
        let chain = e.derivation_chain(idx);
        assert!(!chain.is_empty());
        assert!(chain.iter().all(|a| a.rule == "D2"));
    }
}
