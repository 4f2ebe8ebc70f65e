//! Adaptive mid-query re-optimization: the seeded-misestimate scenarios.
//!
//! The scenario seeds a deliberately wrong cardinality estimate
//! (statistics measured from a stale sample of the table), then asserts
//! that the adaptive run observes the true cardinality at the first
//! completed pipeline breaker (q-error ≫ threshold), checkpoints the
//! materialized intermediate with *measured* statistics, and re-plans the
//! remainder on them. Every operator has one algorithm, so re-lowering
//! changes the estimates, not the plan; with rules it may also change the
//! plan, within the query's result type.

mod common;

use tqo_core::interp::Env;
use tqo_core::plan::{BaseProps, LogicalPlan, PlanBuilder};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::sortspec::Order;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::{execute_adaptive, execute_logical, AdaptiveConfig, PlannerConfig};
use tqo_stratum::Stratum;

/// A clean temporal relation: `classes` values × `fragments` disjoint,
/// non-adjacent periods each.
fn clean_temporal(classes: usize, fragments: usize) -> Relation {
    let mut tuples = Vec::with_capacity(classes * fragments);
    for c in 0..classes {
        for f in 0..fragments {
            tuples.push(Tuple::new(vec![
                Value::Str(format!("v{c:04}").into()),
                Value::Time(f as i64 * 3),
                Value::Time(f as i64 * 3 + 2),
            ]));
        }
    }
    Relation::new(Schema::temporal(&[("E", DataType::Str)]), tuples).unwrap()
}

// The stale-sample scan device is shared with the bench workload.
use tqo_bench::stale_scan;

/// Scan with accurate measured statistics.
fn true_scan(name: &str, actual: &Relation) -> PlanBuilder {
    PlanBuilder::scan(name, BaseProps::measured(actual).unwrap())
}

/// The misestimate scenario: `sort(coalᵀ(rdupᵀ(A) \ᵀ B))` where A's
/// statistics claim ~40 rows but A actually holds 2000, and B (60 rows)
/// is estimated accurately.
fn misestimate_scenario() -> (Env, LogicalPlan) {
    let a = clean_temporal(100, 20); // 2000 rows, sdf
    let b = clean_temporal(30, 2); // 60 rows
    let env = Env::new().with("A", a.clone()).with("B", b.clone());
    let by_all = Order::asc(&["E", "T1", "T2"]);
    let plan = stale_scan("A", &a, 40)
        .rdup_t()
        .difference_t(true_scan("B", &b))
        .coalesce()
        .sort(by_all.clone())
        .build_list(by_all);
    (env, plan)
}

#[test]
fn adaptive_estimates_snap_to_truth_after_the_checkpoint() {
    let (env, plan) = misestimate_scenario();
    let (_, metrics) = execute_adaptive(
        &plan,
        &env,
        None,
        PlannerConfig::default(),
        AdaptiveConfig::default(),
    )
    .unwrap();
    // Operators executed after the re-plan price from measured statistics:
    // their q-errors collapse to ~1 while the static run's stay ~50.
    let after: Vec<f64> = metrics
        .operators
        .iter()
        .skip_while(|o| !o.label.starts_with("scan(__adaptive"))
        .filter_map(|o| o.q_error())
        .collect();
    assert!(!after.is_empty());
    assert!(
        after.iter().all(|&q| q < 2.0),
        "post-checkpoint estimates should be measured: {after:?}"
    );
    let (_, static_metrics) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
    let worst_static = static_metrics.q_errors().into_iter().fold(1.0f64, f64::max);
    assert!(worst_static > 10.0, "the seed must actually misestimate");
}

#[test]
fn layered_stratum_re_optimizes_on_the_running_example() {
    // The wire transfer is the first checkpoint: the stratum binds each
    // fragment with measured statistics and re-plans its local tree. On
    // the running example the measured rdupᵀ output (4 rows vs 10
    // estimated) trips the default threshold and the re-planned remainder
    // drops the right-side rdupᵀ (§5.3's license, proven by measurement).
    let cat = tqo_storage::paper::catalog();
    let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
               EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
               COALESCE ORDER BY EmpName";
    let static_stratum = Stratum::new(cat.clone());
    let adaptive_stratum = Stratum::new(cat.clone()).with_adaptive(AdaptiveConfig::default());
    let plan = tqo_sql::compile(sql, &cat).unwrap();

    let (expected, _, _) = static_stratum.run_sql_optimized(sql).unwrap();
    let (got, metrics, _) = adaptive_stratum.run_sql_optimized(sql).unwrap();
    assert!(
        metrics.reopts.iter().any(|e| e.replanned),
        "the running example must re-optimize in the stratum: {:?}",
        metrics.reopts
    );
    assert!(
        plan.result_type.admits(&expected, &got).unwrap(),
        "adaptive stratum violates ≡SQL"
    );
    assert_eq!(got, tqo_storage::paper::figure1_result());
    // Deterministic decisions: run twice, same bytes.
    let (again, _, _) = adaptive_stratum.run_sql_optimized(sql).unwrap();
    assert_eq!(got, again);
}

#[test]
fn pooled_fixtures_run_adaptively_at_full_pressure() {
    // A focused rerun of the engines_agree adaptive leg on a generated
    // workload, so this suite is self-contained evidence for the
    // acceptance criteria.
    use tqo_storage::{GenConfig, WorkloadGenerator};
    let mut generator = WorkloadGenerator::new(5);
    let mut env = Env::new();
    for name in ["EMP", "PRJ", "A", "B"] {
        env.insert(
            name,
            generator
                .temporal(&GenConfig {
                    classes: 5,
                    fragments_per_class: 4,
                    adjacency_prob: 0.3,
                    overlap_prob: 0.3,
                    duplicate_prob: 0.2,
                    ..GenConfig::default()
                })
                .unwrap(),
        );
    }
    env.insert("R", generator.temporal(&GenConfig::clean(6, 3)).unwrap());
    env.insert("S1", generator.conventional(30, 5).unwrap());
    env.insert("S2", generator.conventional(20, 5).unwrap());
    for (i, plan) in common::optimizer_fixtures(25).into_iter().enumerate() {
        let reference = tqo_core::interp::eval_plan(&plan, &env).unwrap();
        common::assert_adaptive_agrees(&plan, &env, &reference, &format!("fixture #{i}"));
    }
}
