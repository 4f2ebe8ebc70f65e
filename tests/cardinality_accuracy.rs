//! Estimation accuracy and statistics-driven plan choice.
//!
//! Three claims, end to end over the generated-workload pool:
//!
//! 1. **Accuracy** — for selections, joins, and duplicate elimination over
//!    tables the estimator has statistics for, the median q-error
//!    (`max(est/act, act/est)` of the root operator) stays ≤ 4.
//! 2. **Admissibility** — statistics never talk the optimizer into an
//!    inadmissible plan: on scans carrying measured summaries, the memo
//!    still matches the Figure 5 closure's cost and every plan annotates
//!    and prices as valid (the checks of `tests/memo_optimizer.rs`).
//! 3. **Plan sensitivity** — swapping a table's statistics (same
//!    cardinality, different value distribution) demonstrably flips the
//!    chosen plan — the site placement of a join — while both plans
//!    produce equivalent relations.

mod common;

use tqo_core::cost::CostModel;
use tqo_core::enumerate::{enumerate, EnumerationConfig};
use tqo_core::equivalence::ResultType;
use tqo_core::expr::Expr;
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::props::annotate;
use tqo_core::plan::{LogicalPlan, PlanBuilder, PlanNode};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::{execute_logical, PlannerConfig};
use tqo_storage::{Catalog, WorkloadGenerator};

/// Scan a cataloged table with its measured statistics attached.
fn cscan(cat: &Catalog, name: &str) -> PlanBuilder {
    PlanBuilder::scan(name, cat.base_props(name).unwrap())
}

/// Root-operator q-error of one plan executed against the catalog.
fn root_q_error(cat: &Catalog, plan: &LogicalPlan) -> f64 {
    let (_, metrics) = execute_logical(plan, &cat.env(), PlannerConfig::default()).unwrap();
    let root = metrics.operators.last().expect("plan has operators");
    root.q_error().expect("root carries an estimate")
}

#[test]
fn median_q_error_at_most_four_on_generated_workloads() {
    let mut qs: Vec<f64> = Vec::new();
    for seed in [3u64, 17, 40] {
        let mut gen = WorkloadGenerator::new(seed);
        let cat = gen.figure1_workload(4).unwrap();
        cat.register("NUMS", gen.conventional(2000, 50).unwrap())
            .unwrap();
        cat.register("NUMS2", gen.conventional(1200, 40).unwrap())
            .unwrap();

        // Selections: equality (1/NDV) and range (histogram mass).
        qs.push(root_q_error(
            &cat,
            &cscan(&cat, "EMPLOYEE")
                .select(Expr::eq(Expr::col("EmpName"), Expr::lit("emp3")))
                .build_multiset(),
        ));
        qs.push(root_q_error(
            &cat,
            &cscan(&cat, "NUMS")
                .select(Expr::eq(Expr::col("A"), Expr::lit(7i64)))
                .build_multiset(),
        ));
        qs.push(root_q_error(
            &cat,
            &cscan(&cat, "EMPLOYEE")
                .select(Expr::lt(Expr::col("T1"), Expr::lit(40i64)))
                .build_multiset(),
        ));

        // Joins: conventional equi-join (σ over ×) and temporal ×ᵀ.
        qs.push(root_q_error(
            &cat,
            &cscan(&cat, "NUMS")
                .product(cscan(&cat, "NUMS2"))
                .select(Expr::eq(Expr::col("1.A"), Expr::col("2.A")))
                .build_multiset(),
        ));
        qs.push(root_q_error(
            &cat,
            &cscan(&cat, "EMPLOYEE")
                .product_t(cscan(&cat, "PROJECT"))
                .build_multiset(),
        ));

        // Duplicate elimination: exact distinct-tuple counts at the leaf.
        qs.push(root_q_error(&cat, &cscan(&cat, "NUMS").rdup().build_set()));
        qs.push(root_q_error(
            &cat,
            &cscan(&cat, "EMPLOYEE").rdup().build_set(),
        ));
    }
    let median = tqo_exec::metrics::median(&mut qs).expect("cases executed");
    assert!(
        median <= 4.0,
        "median q-error {median} over {} cases; all: {qs:?}",
        qs.len()
    );
}

/// The closure's pick, in the shape of the memo's.
struct ClosurePick {
    best: LogicalPlan,
    cost: tqo_core::cost::Cost,
    truncated: bool,
}

/// The admissibility checks of `tests/memo_optimizer.rs`, over plans whose
/// scans carry measured statistics.
fn check_admissible(plan: &LogicalPlan) {
    let rules = tqo_core::rules::RuleSet::standard();
    let memo = optimize(plan, &rules, &OptimizerConfig::default()).unwrap();
    // Invariant 5's oracle: the Figure 5 closure's cheapest plan.
    let closure = enumerate(plan, &rules, EnumerationConfig::default()).unwrap();
    let (cheapest, cost) = closure.cheapest(&CostModel::default()).unwrap();
    let exhaustive = ClosurePick {
        best: closure.plans[cheapest].plan.clone(),
        cost,
        truncated: closure.truncated,
    };
    // Extracted plans annotate cleanly and price as valid.
    annotate(&memo.best).expect("memo plan annotates");
    annotate(&exhaustive.best).expect("exhaustive plan annotates");
    let repriced = CostModel::default().cost(&memo.best).unwrap();
    assert!(
        repriced.is_valid() || !exhaustive.cost.is_valid(),
        "stats-driven memo chose an inadmissible plan"
    );
    if repriced.is_valid() {
        assert!(
            (repriced.0 - memo.cost.0).abs() <= 1e-9 * repriced.0.max(1.0),
            "extractor accounting disagrees with CostModel: {} vs {}",
            repriced.0,
            memo.cost.0
        );
    }
    // The memo matches the closure's cost when the oracle finished.
    if !exhaustive.truncated && !memo.truncated {
        let close = (exhaustive.cost.0 - memo.cost.0).abs()
            <= 1e-9 * exhaustive.cost.0.abs().max(memo.cost.0.abs()).max(1.0);
        assert!(
            close || (!exhaustive.cost.is_valid() && !memo.cost.is_valid()),
            "strategies disagree under statistics: exhaustive={} memo={}",
            exhaustive.cost.0,
            memo.cost.0
        );
    }
}

#[test]
fn stats_driven_plan_choice_never_selects_inadmissible_plans() {
    let mut gen = WorkloadGenerator::new(11);
    let cat = gen.figure1_workload(2).unwrap();
    let by_name = || tqo_core::sortspec::Order::asc(&["EmpName"]);
    let plans = vec![
        cscan(&cat, "EMPLOYEE")
            .project_cols(&["EmpName", "T1", "T2"])
            .transfer_s()
            .rdup_t()
            .difference_t(
                cscan(&cat, "PROJECT")
                    .project_cols(&["EmpName", "T1", "T2"])
                    .transfer_s(),
            )
            .rdup_t()
            .coalesce()
            .sort(by_name())
            .build_list(by_name()),
        cscan(&cat, "EMPLOYEE")
            .transfer_s()
            .rdup_t()
            .coalesce()
            .build_multiset(),
        cscan(&cat, "EMPLOYEE")
            .transfer_s()
            .select(Expr::eq(Expr::col("Dept"), Expr::lit("d0")))
            .rdup_t()
            .build_set(),
        cscan(&cat, "EMPLOYEE")
            .transfer_s()
            .sort(by_name())
            .build_list(by_name()),
    ];
    for plan in &plans {
        check_admissible(plan);
    }
}

/// Two relations with identical shape and cardinality but opposite value
/// distributions on the join column `A`.
fn join_table(rows: usize, distinct_a: usize) -> Relation {
    let schema = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
    let tuples: Vec<Tuple> = (0..rows)
        .map(|i| {
            Tuple::new(vec![
                Value::Int((i % distinct_a.max(1)) as i64),
                Value::Str(format!("s{}", i % 7).into()),
            ])
        })
        .collect();
    Relation::new(schema, tuples).unwrap()
}

/// The acceptance flip: the same layered join query places the join in
/// the DBMS when the join column is near-unique (tiny estimated output →
/// cheap transfer) and keeps it in the stratum when the column is
/// constant (the joined result would be too wide to ship). Only the
/// *statistics* differ between the catalogs — cardinalities are equal —
/// and both chosen plans produce equivalent relations.
#[test]
fn join_site_placement_flips_with_table_statistics() {
    let n = 400usize;
    let selective = Catalog::new();
    selective.register("S1", join_table(n, n)).unwrap();
    selective.register("S2", join_table(n, n)).unwrap();
    let constant = Catalog::new();
    constant.register("S1", join_table(n, 1)).unwrap();
    constant.register("S2", join_table(n, 1)).unwrap();

    let join_plan = |cat: &Catalog| {
        cscan(cat, "S1")
            .transfer_s()
            .product(cscan(cat, "S2").transfer_s())
            .select(Expr::eq(Expr::col("1.A"), Expr::col("2.A")))
            .build_multiset()
    };

    let config = OptimizerConfig::default();
    let rules = tqo_core::rules::RuleSet::standard();
    let chosen_selective = optimize(&join_plan(&selective), &rules, &config).unwrap();
    let chosen_constant = optimize(&join_plan(&constant), &rules, &config).unwrap();

    // Near-unique join column: everything below one transfer (join in the
    // DBMS). Constant join column: the product stays in the stratum.
    assert_eq!(
        chosen_selective.best.root.op_name(),
        "TS",
        "selective stats should push the join into the DBMS:\n{:?}",
        chosen_selective.best.root
    );
    assert_ne!(
        chosen_constant.best.root.op_name(),
        "TS",
        "constant stats should keep the join in the stratum:\n{:?}",
        chosen_constant.best.root
    );

    // Both chosen plans compute the same relation. Execute each over the
    // same data (the constant catalog's env, where the join is wide).
    let env = constant.env();
    let (r1, _) = execute_logical(&chosen_selective.best, &env, PlannerConfig::default()).unwrap();
    let (r2, _) = execute_logical(&chosen_constant.best, &env, PlannerConfig::default()).unwrap();
    assert!(
        tqo_core::equivalence::equiv_multiset(&r1, &r2).unwrap(),
        "stats-flipped plans must agree ({} vs {} rows)",
        r1.len(),
        r2.len()
    );
    // And over the selective catalog's env.
    let env = selective.env();
    let (r1, _) = execute_logical(&chosen_selective.best, &env, PlannerConfig::default()).unwrap();
    let (r2, _) = execute_logical(&chosen_constant.best, &env, PlannerConfig::default()).unwrap();
    assert!(tqo_core::equivalence::equiv_multiset(&r1, &r2).unwrap());
}

/// Blind plans (no statistics) keep the paper-era constant estimates, so
/// declared-cardinality fixtures price exactly as before the refactor.
#[test]
fn blind_plans_fall_back_to_constant_factors() {
    let schema = Schema::temporal(&[("E", DataType::Str)]);
    let plan = PlanBuilder::scan("R", tqo_core::plan::BaseProps::unordered(schema, 1000))
        .select(Expr::eq(Expr::col("E"), Expr::lit("x")))
        .build_multiset();
    let ann = annotate(&plan).unwrap();
    assert_eq!(ann[&vec![]].stat.card(), 500, "blind selection = half");
    assert_eq!(ann[&vec![0]].stat.card(), 1000);
    let _ = LogicalPlan::new(
        PlanNode::Scan {
            name: "R".into(),
            base: tqo_core::plan::BaseProps::unordered(Schema::of(&[("A", DataType::Int)]), 7),
        },
        ResultType::Multiset,
    );
}
