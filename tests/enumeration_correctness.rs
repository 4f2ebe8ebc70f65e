//! Theorem 6.1: the enumeration algorithm generates *correct* plans —
//! every plan it produces evaluates, under the query's result type
//! (Definition 5.1's `≡SQL`), equivalent to the initial plan.
//!
//! Property-tested over random relations for the three result types, on
//! the paper's running-example plan shape and on smaller shapes; plus
//! determinism and budget behaviour.

mod common;

use common::{arb_snapshot, arb_temporal};
use proptest::prelude::*;

use tqo_core::enumerate::{enumerate, EnumerationConfig};
use tqo_core::equivalence::ResultType;
use tqo_core::interp::{eval_plan, Env};
use tqo_core::plan::{LogicalPlan, PlanBuilder};
use tqo_core::relation::Relation;
use tqo_core::rules::RuleSet;
use tqo_core::sortspec::Order;
use tqo_storage::table::derive_props;

fn scan_of(name: &str, relation: &Relation) -> PlanBuilder {
    PlanBuilder::scan(name, derive_props(relation).unwrap())
}

/// The running-example shape over arbitrary data.
fn running_example(t1: &Relation, t2: &Relation, rt: ResultType) -> LogicalPlan {
    let root = scan_of("T1R", t1)
        .transfer_s()
        .rdup_t()
        .difference_t(scan_of("T2R", t2).transfer_s())
        .rdup_t()
        .coalesce()
        .sort(Order::asc(&["E"]))
        .node();
    LogicalPlan::new(root, rt)
}

fn check_all_plans(
    initial: &LogicalPlan,
    env: &Env,
    max_plans: usize,
) -> std::result::Result<usize, TestCaseError> {
    let reference = eval_plan(initial, env).unwrap();
    let enumeration = enumerate(
        initial,
        &RuleSet::standard(),
        EnumerationConfig { max_plans },
    )
    .unwrap();
    for (i, p) in enumeration.plans.iter().enumerate() {
        let result = eval_plan(&p.plan, env).unwrap();
        let ok = initial.result_type.admits(&reference, &result).unwrap();
        prop_assert!(
            ok,
            "plan {i} violates ≡SQL ({:?})\nderivation: {:?}\nplan:\n{}",
            initial.result_type,
            enumeration.derivation_chain(i),
            tqo_core::plan::display::plan_to_string(&p.plan.root)
        );
    }
    Ok(enumeration.plans.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn theorem_6_1_list_queries(
        t1 in arb_temporal(3, 8),
        t2 in arb_temporal(3, 6),
    ) {
        let env = Env::new().with("T1R", t1.clone()).with("T2R", t2.clone());
        let plan = running_example(&t1, &t2, ResultType::List(Order::asc(&["E"])));
        check_all_plans(&plan, &env, 2000)?;
    }

    #[test]
    fn theorem_6_1_multiset_queries(
        t1 in arb_temporal(3, 8),
        t2 in arb_temporal(3, 6),
    ) {
        let env = Env::new().with("T1R", t1.clone()).with("T2R", t2.clone());
        let plan = running_example(&t1, &t2, ResultType::Multiset);
        check_all_plans(&plan, &env, 2000)?;
    }

    #[test]
    fn theorem_6_1_set_queries(
        t1 in arb_temporal(3, 8),
        t2 in arb_temporal(3, 6),
    ) {
        let env = Env::new().with("T1R", t1.clone()).with("T2R", t2.clone());
        let plan = running_example(&t1, &t2, ResultType::Set);
        check_all_plans(&plan, &env, 2000)?;
    }

    #[test]
    fn theorem_6_1_conventional_queries(
        s1 in arb_snapshot(10),
        s2 in arb_snapshot(8),
    ) {
        use tqo_core::expr::Expr;
        let env = Env::new().with("S1R", s1.clone()).with("S2R", s2.clone());
        let root = scan_of("S1R", &s1)
            .product(scan_of("S2R", &s2))
            .select(Expr::eq(Expr::col("1.B"), Expr::col("2.B")))
            .rdup()
            .sort(Order::asc(&["1.A"]))
            .node();
        for rt in [
            ResultType::List(Order::asc(&["1.A"])),
            ResultType::Multiset,
            ResultType::Set,
        ] {
            let plan = LogicalPlan::new(root.clone(), rt);
            check_all_plans(&plan, &env, 1500)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adversarial shapes for the period-preservation propagation:
    /// conventional operations over temporal inputs, and the retained
    /// timestamps of `×ᵀ`, inside snapshot-insensitive regions. Every
    /// enumerated plan must still satisfy ≡SQL (these shapes caught a real
    /// propagation bug during development).
    #[test]
    fn theorem_6_1_period_sensitive_shapes(
        t1 in arb_temporal(3, 8),
        t2 in arb_temporal(3, 6),
    ) {
        use tqo_core::expr::ProjItem;
        let env = Env::new().with("T1R", t1.clone()).with("T2R", t2.clone());

        // coalᵀ over ×ᵀ with a coalesced argument (retained timestamps are
        // data; C2 must not fire on the inner coalesce).
        let shape1 = scan_of("T1R", &t1)
            .coalesce()
            .product_t(scan_of("T2R", &t2))
            .rdup_t()
            .coalesce()
            .node();
        // C9-style projection hides the retained timestamps.
        let shape2 = scan_of("T1R", &t1)
            .coalesce()
            .product_t(scan_of("T2R", &t2).coalesce())
            .project(vec![
                ProjItem::col("1.E"),
                ProjItem::col("2.E"),
                ProjItem::col("T1"),
                ProjItem::col("T2"),
            ])
            .rdup_t()
            .coalesce()
            .node();
        // Conventional rdup over a temporal input below a coalesce region.
        let shape3 = scan_of("T1R", &t1)
            .coalesce()
            .rdup()
            .node();
        // Fragmentation-counting projection (drops the period) over a
        // coalesced input.
        let shape4 = scan_of("T1R", &t1)
            .coalesce()
            .project_cols(&["E"])
            .rdup()
            .node();

        // rdupᵀ where periods must be preserved: which of two overlapping
        // periods survives whole depends on the argument's order, so the
        // `⊔` below must not commute (it did — the closure of the SQL
        // `VALIDTIME … UNION VALIDTIME …` was half inadmissible plans).
        let shape5 = scan_of("T1R", &t1)
            .union_all(scan_of("T2R", &t2))
            .rdup_t()
            .node();

        for shape in [shape1, shape2, shape3, shape4, shape5] {
            for rt in [ResultType::Multiset, ResultType::Set] {
                let plan = LogicalPlan::new(shape.clone(), rt);
                check_all_plans(&plan, &env, 1000)?;
            }
        }
    }
}

#[test]
fn enumeration_is_deterministic_and_terminates() {
    let mut g = tqo_storage::WorkloadGenerator::new(7);
    let t1 = g
        .temporal(&tqo_storage::GenConfig {
            classes: 4,
            fragments_per_class: 3,
            overlap_prob: 0.3,
            ..Default::default()
        })
        .unwrap();
    let t2 = g.temporal(&tqo_storage::GenConfig::clean(3, 3)).unwrap();
    let plan = running_example(&t1, &t2, ResultType::List(Order::asc(&["E"])));
    let e1 = enumerate(&plan, &RuleSet::standard(), EnumerationConfig::default()).unwrap();
    let e2 = enumerate(&plan, &RuleSet::standard(), EnumerationConfig::default()).unwrap();
    assert!(
        !e1.truncated,
        "closure should be finite under the standard rules"
    );
    assert_eq!(e1.plans.len(), e2.plans.len());
    for (a, b) in e1.plans.iter().zip(&e2.plans) {
        assert_eq!(a.plan.root, b.plan.root);
        assert_eq!(a.derivation, b.derivation);
    }
    // The search is genuinely combinatorial (many plans, not a couple) —
    // and relaxing the result type to multiset admits even more.
    assert!(
        e1.plans.len() >= 15,
        "expected a rich plan space, got {}",
        e1.plans.len()
    );
    let multiset = running_example(&t1, &t2, ResultType::Multiset);
    let em = enumerate(
        &multiset,
        &RuleSet::standard(),
        EnumerationConfig::default(),
    )
    .unwrap();
    assert!(
        em.plans.len() > e1.plans.len(),
        "multiset query should admit more plans ({} vs {})",
        em.plans.len(),
        e1.plans.len()
    );
}

#[test]
fn result_type_monotonicity() {
    // Weaker result types admit at least as many plans: every plan found
    // for a list query is also found for the multiset query, etc.
    let mut g = tqo_storage::WorkloadGenerator::new(3);
    let t1 = g.temporal(&tqo_storage::GenConfig::clean(3, 3)).unwrap();
    let t2 = g.temporal(&tqo_storage::GenConfig::clean(3, 2)).unwrap();
    let count = |rt: ResultType| {
        let plan = running_example(&t1, &t2, rt);
        enumerate(&plan, &RuleSet::standard(), EnumerationConfig::default())
            .unwrap()
            .plans
            .len()
    };
    let list = count(ResultType::List(Order::asc(&["E"])));
    let multiset = count(ResultType::Multiset);
    let set = count(ResultType::Set);
    assert!(multiset >= list, "multiset {multiset} < list {list}");
    assert!(set >= multiset, "set {set} < multiset {multiset}");
}
