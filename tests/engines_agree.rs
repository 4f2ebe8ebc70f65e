//! Agreement with the oracle: the vectorized batch engine, the
//! scheduler's staged runs of it, and the layered stratum engine must
//! each return the reference interpreter's answer on every query. Every
//! physical plan computes the interpreter's exact list, whole or cut into
//! stages; only plans the optimizer rewrote are held to the query's result
//! type instead.

mod common;

use common::{arb_snapshot, arb_temporal};
use proptest::prelude::*;

use tqo_core::interp::eval_plan;
use tqo_core::relation::Relation;
use tqo_exec::{execute_mode, lower, ExecMode, PlannerConfig, Scheduler, SubmitOptions};
use tqo_storage::{paper, Catalog};
use tqo_stratum::{make_layered, Stratum};

/// The batch engine must return the interpreter's exact relation for the
/// plan's one physical lowering — run whole, and cut into stages by the
/// scheduler (the only code that runs a plan in stages).
fn assert_engines_exact(
    plan: &tqo_core::plan::LogicalPlan,
    env: &tqo_core::interp::Env,
    reference: &Relation,
    context: &str,
) {
    let physical = lower(plan, PlannerConfig::default()).unwrap();
    let (got, _) = execute_mode(&physical, env, ExecMode::Batch).unwrap();
    assert_eq!(
        &got, reference,
        "batch engine diverges from the interpreter on {context}"
    );
    let (staged, _) = Scheduler::global()
        .run(&physical, env, SubmitOptions::default())
        .unwrap();
    assert_eq!(
        &staged, reference,
        "scheduler diverges from the interpreter on {context}"
    );
}

/// The cross-engine SQL pool lives in `common::SQL_POOL` so the
/// serving stress suite fires the exact same queries through the
/// scheduler and the TCP front-end.
use common::SQL_POOL as QUERIES;

fn agree_on_catalog(catalog: &Catalog) {
    let env = catalog.env();
    let stratum = Stratum::new(catalog.clone());
    for sql in QUERIES {
        let plan = tqo_sql::compile(sql, catalog).unwrap();
        let reference = eval_plan(&plan, &env).unwrap();

        assert_engines_exact(&plan, &env, &reference, sql);

        // Layered stratum engine.
        let layered = make_layered(&plan).unwrap();
        let (via_stratum, metrics) = stratum.run(&layered).unwrap();
        assert_eq!(via_stratum, reference, "stratum diverges on {sql}");
        assert!(metrics.fragments >= 1);

        // Layered + optimizer.
        let (optimized, _, _) = stratum.run_sql_optimized(sql).unwrap();
        assert!(
            plan.result_type.admits(&reference, &optimized).unwrap(),
            "optimized stratum violates ≡SQL on {sql}"
        );
    }
}

#[test]
fn engines_agree_on_the_paper_catalog() {
    agree_on_catalog(&paper::catalog());
}

#[test]
fn engines_agree_on_generated_workloads() {
    for seed in [1u64, 7, 23] {
        let catalog = tqo_storage::WorkloadGenerator::new(seed)
            .figure1_workload(2)
            .unwrap();
        agree_on_catalog(&catalog);
    }
}

/// Ordered outputs (sorted lists, coalesced periods) on a relation large
/// enough for the radix sort and many value classes: the plan is the
/// interpreter's exact list, whole and staged.
#[test]
fn ordered_outputs_are_identical_at_scale() {
    use tqo_core::schema::Schema;
    use tqo_core::tuple::Tuple;
    use tqo_core::value::{DataType, Value};
    let rows: Vec<Tuple> = (0..40_000i64)
        .map(|i| {
            Tuple::new(vec![
                Value::from(format!("v{}", i % 211)),
                Value::Time(i % 89),
                Value::Time(i % 89 + 1 + (i % 7)),
            ])
        })
        .collect();
    let r = Relation::new(Schema::temporal(&[("E", DataType::Str)]), rows).unwrap();
    let catalog = Catalog::new();
    catalog.register("R", r).unwrap();
    let env = catalog.env();
    for sql in [
        "VALIDTIME SELECT E FROM R COALESCE ORDER BY E",
        "VALIDTIME SELECT DISTINCT E FROM R ORDER BY E DESC",
        "SELECT E, COUNT(*) AS n FROM R GROUP BY E ORDER BY E",
    ] {
        let plan = tqo_sql::compile(sql, &catalog).unwrap();
        let reference = eval_plan(&plan, &env).unwrap();
        assert_engines_exact(&plan, &env, &reference, sql);
    }
}

/// The optimizer fixture pool (every plan shape in the rule space) over
/// generator-driven workloads: the interpreter and the batch engine, whole
/// and staged, must produce identical relations.
#[test]
fn engines_agree_on_fixture_plans_over_generated_relations() {
    use tqo_storage::{GenConfig, WorkloadGenerator};
    for seed in [3u64, 11, 42] {
        let mut generator = WorkloadGenerator::new(seed);
        let mut env = tqo_core::interp::Env::new();
        // Dirty temporal relations (overlaps, adjacencies, duplicates)
        // under honest `unordered` declarations...
        for name in ["EMP", "PRJ", "A", "B"] {
            let r = generator
                .temporal(&GenConfig {
                    classes: 6,
                    fragments_per_class: 5,
                    mean_duration: 6,
                    mean_gap: 3,
                    adjacency_prob: 0.35,
                    overlap_prob: 0.35,
                    duplicate_prob: 0.2,
                    ..GenConfig::default()
                })
                .unwrap();
            env.insert(name, r);
        }
        // ...a genuinely clean relation for the fixture declaring clean
        // base properties...
        env.insert("R", generator.temporal(&GenConfig::clean(8, 4)).unwrap());
        // ...and conventional relations for the snapshot fixtures.
        env.insert("S1", generator.conventional(40, 6).unwrap());
        env.insert("S2", generator.conventional(30, 6).unwrap());

        for (i, plan) in common::optimizer_fixtures(30).into_iter().enumerate() {
            let context = format!("fixture #{i} (seed {seed})");
            let reference = eval_plan(&plan, &env).unwrap();
            assert_engines_exact(&plan, &env, &reference, &context);
        }
    }
}

/// A hash join under the select it serves, on `×` and on `×ᵀ`: the
/// product is a breaker below the root, so the scheduler runs it as a
/// stage of its own, and that stage must still be the hash join lowering
/// chose — with the interpreter's list as the answer and the stages the
/// cutter made as the stages run.
#[test]
fn a_hash_join_cut_into_its_own_stage_stays_a_hash_join() {
    use tqo_core::expr::Expr;
    use tqo_core::plan::{BaseProps, PlanBuilder};
    use tqo_exec::StageGraph;
    use tqo_storage::{GenConfig, WorkloadGenerator};
    let mut generator = WorkloadGenerator::new(5);
    let mut env = tqo_core::interp::Env::new();
    for name in ["A", "B"] {
        let config = GenConfig {
            classes: 12,
            fragments_per_class: 4,
            overlap_prob: 0.3,
            ..GenConfig::default()
        };
        env.insert(name, generator.temporal(&config).unwrap());
    }
    let scan =
        |name: &str| PlanBuilder::scan(name, BaseProps::measured(env.get(name).unwrap()).unwrap());
    let by_key = Expr::eq(Expr::col("1.E"), Expr::col("2.E"));
    for (product, label) in [
        (scan("A").product(scan("B")), "product[HashEqui(1.E=2.E)]"),
        (
            scan("A").product_t(scan("B")),
            "product-t[HashEqui(1.E=2.E)]",
        ),
    ] {
        let plan = product.select(by_key.clone()).build_multiset();
        let reference = eval_plan(&plan, &env).unwrap();
        assert!(
            !reference.is_empty(),
            "{label}: the keys must match something"
        );
        let physical = lower(&plan, PlannerConfig::default()).unwrap();
        let stages = StageGraph::lower(&physical, "__probe_")
            .unwrap()
            .stages
            .len();
        assert_eq!(stages, 2, "{label}: the product is a stage of its own");

        let (staged, metrics) = Scheduler::global()
            .run(&physical, &env, SubmitOptions::default())
            .unwrap();
        assert_eq!(staged, reference, "{label}: staged run diverges");
        let labels: Vec<&str> = metrics.operators.iter().map(|o| o.label.as_str()).collect();
        assert!(labels.contains(&label), "{label} missing from {labels:?}");
        // Each stage after the first reads its input through one synthetic
        // scan: the scheduler ran exactly the cutter's stages.
        let synthetic = labels.iter().filter(|l| l.starts_with("scan(__q")).count();
        assert_eq!(synthetic + 1, stages, "{labels:?}");
        assert_eq!(labels.len(), physical.root().size() + synthetic);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random relations through a random choice of the query pool.
    #[test]
    fn engines_agree_on_random_relations(
        emp in arb_temporal(4, 12),
        prj in arb_temporal(4, 10),
        s in arb_snapshot(10),
        query_idx in 0usize..4,
    ) {
        // Rebuild relations under the catalog's expected schemas.
        use tqo_core::schema::Schema;
        use tqo_core::tuple::Tuple;
        use tqo_core::value::{DataType, Value};
        let emp_schema =
            Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]);
        let emp_rel = Relation::new(
            emp_schema,
            emp.tuples()
                .iter()
                .map(|t| {
                    Tuple::new(vec![
                        t.value(0).clone(),
                        Value::Str("D".into()),
                        t.value(1).clone(),
                        t.value(2).clone(),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let prj_schema =
            Schema::temporal(&[("EmpName", DataType::Str), ("Prj", DataType::Str)]);
        let prj_rel = Relation::new(
            prj_schema,
            prj.tuples()
                .iter()
                .map(|t| {
                    Tuple::new(vec![
                        t.value(0).clone(),
                        Value::Str("P".into()),
                        t.value(1).clone(),
                        t.value(2).clone(),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let _ = s;
        let catalog = Catalog::new();
        catalog.register("EMPLOYEE", emp_rel).unwrap();
        catalog.register("PROJECT", prj_rel).unwrap();

        let queries = [
            "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
             EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
             COALESCE ORDER BY EmpName",
            "VALIDTIME SELECT EmpName FROM EMPLOYEE UNION \
             VALIDTIME SELECT EmpName FROM PROJECT ORDER BY EmpName",
            "VALIDTIME SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
            "SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName",
        ];
        let sql = queries[query_idx];
        let env = catalog.env();
        let plan = tqo_sql::compile(sql, &catalog).unwrap();
        let reference = eval_plan(&plan, &env).unwrap();
        assert_engines_exact(&plan, &env, &reference, sql);
        let stratum = Stratum::new(catalog.clone());
        let (via_stratum, _) = stratum.run(&make_layered(&plan).unwrap()).unwrap();
        prop_assert_eq!(via_stratum, reference);
    }
}
