//! Memo-vs-closure agreement: on every fixture the exhaustive Figure 5
//! closure can finish, the memo search must find an equally cheap plan;
//! on fixtures where the closure truncates, the memo must close the space
//! anyway and do at least as well as the truncated oracle. Every
//! memo-extracted plan must be admissible under the plan property
//! machinery (it annotates cleanly, prices as valid, and its recomputed
//! cost matches what the extractor claimed).

mod common;

use common::{fixture_tscan, optimizer_fixtures, SQL_POOL};
use proptest::prelude::*;

use tqo_core::cost::{Cost, CostModel};
use tqo_core::enumerate::{enumerate, Enumeration, EnumerationConfig};
use tqo_core::error::Result as TqoResult;
use tqo_core::interp::eval_plan;
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::props::annotate;
use tqo_core::plan::LogicalPlan;
use tqo_core::rules::RuleSet;
use tqo_core::sortspec::Order;

/// The oracle: Figure 5's closure at its default budget, and the cost of
/// its cheapest plan.
struct Closure {
    cost: Cost,
    truncated: bool,
    enumeration: Enumeration,
}

fn closure(plan: &LogicalPlan, rules: &RuleSet) -> TqoResult<Closure> {
    let enumeration = enumerate(plan, rules, EnumerationConfig::default())?;
    let (_, cost) = enumeration.cheapest(&CostModel::default())?;
    Ok(Closure {
        cost,
        truncated: enumeration.truncated,
        enumeration,
    })
}

/// Relative tolerance for cost comparison: both searches sum identical
/// per-node terms, but in different association orders.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Check one fixture under one rule set. Returns an error message naming
/// the violation (proptest-compatible), `Ok(solved)` otherwise, where
/// `solved` says whether the exhaustive oracle finished.
fn check_fixture(plan: &LogicalPlan, rules: &RuleSet) -> Result<bool, String> {
    let exhaustive = closure(plan, rules).map_err(|e| format!("exhaustive: {e:?}"))?;
    let memo =
        optimize(plan, rules, &OptimizerConfig::default()).map_err(|e| format!("memo: {e:?}"))?;
    if memo.truncated {
        return Err("memo budgets must cover every fixture".into());
    }

    // Admissibility of the extracted plan under the property machinery.
    annotate(&memo.best).map_err(|e| format!("memo plan fails to annotate: {e:?}"))?;
    let repriced = CostModel::default()
        .cost(&memo.best)
        .map_err(|e| format!("memo plan fails to price: {e:?}"))?;
    if !repriced.is_valid() && exhaustive.cost.is_valid() {
        return Err("memo plan placed a stratum-only op in the DBMS".into());
    }
    if repriced.is_valid() && !close(repriced.0, memo.cost.0) {
        return Err(format!(
            "extractor accounting disagrees with CostModel: {} vs {}",
            repriced.0, memo.cost.0
        ));
    }

    if exhaustive.truncated {
        // The oracle saw a prefix of the space; the memo saw all of it and
        // must do at least as well.
        if memo.cost.0 > exhaustive.cost.0 * (1.0 + 1e-9) {
            return Err(format!(
                "memo={} worse than truncated exhaustive={}",
                memo.cost.0, exhaustive.cost.0
            ));
        }
        Ok(false)
    } else {
        // Equality; two infinities (no valid plan exists under this rule
        // set, e.g. a transfer round trip with transfer rules disabled)
        // also agree.
        let both_invalid = !exhaustive.cost.is_valid() && !memo.cost.is_valid();
        if !both_invalid && !close(exhaustive.cost.0, memo.cost.0) {
            return Err(format!(
                "strategies disagree: exhaustive={} memo={} on {:?}",
                exhaustive.cost.0, memo.cost.0, plan.root
            ));
        }
        Ok(true)
    }
}

#[test]
fn memo_agrees_with_exhaustive_on_all_fixtures() {
    let rules = RuleSet::standard();
    let mut solved = 0;
    for (i, plan) in optimizer_fixtures(1000).iter().enumerate() {
        match check_fixture(plan, &rules) {
            Ok(true) => solved += 1,
            Ok(false) => {}
            Err(e) => panic!("fixture {i}: {e}"),
        }
    }
    // The pool must mostly consist of exhaustively solvable fixtures, or
    // the equality check proves little.
    assert!(
        solved >= 15,
        "only {solved} fixtures were exhaustively solvable"
    );
}

#[test]
fn memo_agrees_under_figure4_rules_only() {
    let rules = RuleSet::figure4();
    for (i, plan) in optimizer_fixtures(1000).iter().enumerate() {
        if let Err(e) = check_fixture(plan, &rules) {
            panic!("fixture {i}: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Agreement is scale-independent: base cardinalities shift which plan
    /// wins (transfer costs vs operator costs), never whether the
    /// searches agree.
    #[test]
    fn memo_agrees_across_cardinalities(scale in prop::sample::select(vec![
        1u64, 10, 250, 5_000, 80_000, 2_000_000,
    ]), idx in 0usize..20) {
        let rules = RuleSet::standard();
        let fixtures = optimizer_fixtures(scale);
        let plan = &fixtures[idx % fixtures.len()];
        if let Err(e) = check_fixture(plan, &rules) {
            return Err(format!("scale {scale} fixture {idx}: {e}"));
        }
    }
}

#[test]
fn memo_survives_shapes_where_enumeration_truncates() {
    // A widening chain of temporal unions below dedup/coalesce/sort: each
    // extra leaf multiplies the exhaustive closure (transfer placements ×
    // dedup positions × sort positions) until the 4096-plan budget stops
    // it. The memo's expression count grows with the *sum* of variants.
    let rules = RuleSet::standard();
    let mut chain = fixture_tscan("R0", 500, false).transfer_s();
    for i in 1..10 {
        chain = chain.union_t(fixture_tscan(&format!("R{i}"), 500, false).transfer_s());
    }
    let plan = chain
        .rdup_t()
        .coalesce()
        .sort(Order::asc(&["E"]))
        .build_list(Order::asc(&["E"]));

    let exhaustive = closure(&plan, &rules).expect("exhaustive");
    assert!(
        exhaustive.truncated,
        "expected the exhaustive budget to truncate; closure had {} plans",
        exhaustive.enumeration.plans.len()
    );

    let memo = optimize(&plan, &rules, &OptimizerConfig::default()).expect("memo");
    assert!(
        !memo.truncated,
        "memo should close this space without truncation"
    );
    annotate(&memo.best).expect("memo plan annotates");
    // The memo saw the whole space; the truncated oracle saw a prefix. The
    // memo must do at least as well, with far fewer materialized
    // expressions than the enumerator's plan count.
    assert!(
        memo.cost.0 <= exhaustive.cost.0 * (1.0 + 1e-9),
        "memo={} worse than truncated exhaustive={}",
        memo.cost.0,
        exhaustive.cost.0
    );
    let stats = memo.memo;
    assert!(
        stats.exprs < exhaustive.enumeration.plans.len(),
        "memo materialized {} exprs vs {} enumerated plans",
        stats.exprs,
        exhaustive.enumeration.plans.len()
    );
}

/// C5 to C8 match the argument of a grandchild of their root
/// (`coalᵀ(⊔(coalᵀ(r1), coalᵀ(r2)))`, `coalᵀ(ξᵀ(coalᵀ(r)))`, ...), so the
/// memo must annotate a binding that deep or `applicable` rejects them.
/// Each shape sits on the right of a `\ᵀ`, where periods need not be
/// preserved; alone in its rule set, each rule is the only way to the
/// oracle's cheaper plan.
#[test]
fn memo_fires_rules_that_match_three_levels_deep() {
    use tqo_core::expr::AggItem;
    use tqo_core::rules::coal;

    let t = |n: &str| fixture_tscan(n, 1000, false).transfer_s();
    let count = || vec![AggItem::count_star("n")];
    let shapes = [
        (
            "C5",
            t("A").difference_t(t("B").coalesce().union_all(t("C").coalesce()).coalesce()),
        ),
        (
            "C6",
            t("A").difference_t(t("B").coalesce().union_t(t("C").coalesce()).coalesce()),
        ),
        (
            "C7",
            t("A").aggregate_t(vec!["E".into()], count()).difference_t(
                t("B")
                    .coalesce()
                    .aggregate_t(vec!["E".into()], count())
                    .coalesce(),
            ),
        ),
        (
            "C8",
            t("A").difference_t(
                t("B")
                    .coalesce()
                    .project_cols(&["E", "T1", "T2"])
                    .coalesce(),
            ),
        ),
    ];
    for (name, shape) in shapes {
        let plan = shape.build_multiset();
        let rules = RuleSet::new(
            coal::rules()
                .into_iter()
                .filter(|r| r.name() == name)
                .collect(),
        );
        assert_eq!(rules.len(), 1, "{name}");
        assert_eq!(check_fixture(&plan, &rules), Ok(true), "{name}");
        let memo = optimize(&plan, &rules, &OptimizerConfig::default()).expect("memo");
        let initial = CostModel::default().cost(&plan).unwrap();
        assert!(
            memo.cost.0 < initial.0,
            "{name} did not fire: {}",
            memo.cost.0
        );
        assert!(
            memo.derivation.iter().any(|app| app.rule == name),
            "{name} missing from the derivation"
        );
    }
}

#[test]
fn memo_derivations_name_real_rules() {
    let rules = RuleSet::standard();
    for plan in optimizer_fixtures(1000) {
        let memo = optimize(&plan, &rules, &OptimizerConfig::default()).expect("memo");
        for app in &memo.derivation {
            assert!(
                rules.by_name(&app.rule).is_some(),
                "derivation names unknown rule {}",
                app.rule
            );
        }
        // A changed plan must carry a derivation.
        if memo.best.root != plan.root {
            assert!(
                !memo.derivation.is_empty(),
                "rewritten plan with empty derivation"
            );
        }
    }
}

/// Admissibility on *layered* plans — the form `Stratum::run_sql_optimized`
/// searches: whatever memo search extracts must evaluate to a result the
/// query's declared type admits. The last query is the regression: both
/// searches used to admit `union-all-commute` below an `rdupᵀ` whose
/// periods must be preserved (order was not required there), memo picked
/// the commuted `⊔` on a cost tie, and `rdupᵀ` — which keeps the first of
/// two overlapping periods whole — returned 18 rows for the reference's 4.
#[test]
fn memo_plans_for_layered_sql_are_admissible() {
    let catalog = tqo_storage::paper::catalog();
    let env = catalog.env();
    let rules = RuleSet::standard();
    let config = OptimizerConfig::default();
    let layered_union = "VALIDTIME SELECT EmpName FROM EMPLOYEE UNION \
                         VALIDTIME SELECT EmpName FROM PROJECT";
    for sql in SQL_POOL.iter().chain([&layered_union]) {
        let plan = tqo_sql::compile(sql, &catalog).unwrap();
        // Plans the layering declines have no layered form to search.
        let Ok(layered) = tqo_stratum::make_layered(&plan) else {
            continue;
        };
        let reference = eval_plan(&plan, &env).unwrap();
        let memo = optimize(&layered, &rules, &config).expect("memo");
        assert!(!memo.truncated, "layered memo for `{sql}` truncated");
        annotate(&memo.best).expect("memo plan annotates");
        tqo_stratum::validate_layered(&memo.best).expect("memo plan stays layered");
        let got = eval_plan(&memo.best, &env).unwrap();
        assert!(
            plan.result_type.admits(&reference, &got).unwrap(),
            "memo plan for `{sql}` is not admissible ({} rows, reference {}):\n{}",
            got.len(),
            reference.len(),
            tqo_core::plan::display::plan_to_string(&memo.best.root),
        );
    }
}
