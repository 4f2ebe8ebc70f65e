//! Versioned tables, guarded by counts that repeat exactly rather than by
//! timings: every version is born in columns — a registered one transposed
//! at registration, a modified one copied from its predecessor's columns —
//! so reads transpose nothing, a modification measures nothing in full and
//! builds no tuple list, and a stage scanning another stage's output
//! transposes nothing.
//!
//! One `#[test]` in a file of its own, so nothing else in the process
//! moves the process-wide counters between two readings.

use tqo_core::expr::Expr;
use tqo_core::rules::RuleSet;
use tqo_core::time::Period;
use tqo_core::trace::counters::{STATS_CACHE_MISSES, TRANSPOSES_BUILT, TUPLES_BUILT};
use tqo_core::value::Value;
use tqo_exec::planner::optimize_and_lower;
use tqo_exec::{
    execute_mode, lower, ExecMode, PlannerConfig, Scheduler, SchedulerConfig, SubmitOptions,
};
use tqo_storage::{paper, StatisticsProvider};

/// Single-stage statements (no breaker below the root), so the only
/// relations an execution scans are base tables.
const EMPLOYEE_READ: &str = "SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'Sales'";
const PROJECT_READ: &str = "SELECT EmpName FROM PROJECT WHERE Prj = 'P1'";

/// What the server does per query on a plan-cache miss: pin, bind,
/// optimize, lower, run.
fn serve(catalog: &tqo_storage::Catalog, sql: &str) -> usize {
    let snapshot = catalog.snapshot();
    let plan = tqo_sql::compile(sql, &snapshot).unwrap();
    let config = PlannerConfig {
        mode: ExecMode::Batch,
    };
    let (physical, _) = optimize_and_lower(&plan, &RuleSet::standard(), config).unwrap();
    let (rows, _) = execute_mode(&physical, &snapshot.env(), config.mode).unwrap();
    rows.len()
}

#[test]
fn reads_transpose_once_per_version_and_mutations_measure_nothing() {
    let catalog = paper::catalog();
    let (transposes, measures) = (TRANSPOSES_BUILT.get(), STATS_CACHE_MISSES.get());

    for _ in 0..10 {
        assert_eq!(serve(&catalog, EMPLOYEE_READ), 3);
        assert_eq!(serve(&catalog, PROJECT_READ), 2);
    }
    // Ten reads of each table: no transpose (the registered versions are
    // born in columns) and one measurement each.
    assert_eq!(TRANSPOSES_BUILT.get() - transposes, 0);
    assert_eq!(STATS_CACHE_MISSES.get() - measures, 2);

    // An insert+delete pair makes two new EMPLOYEE versions and measures
    // neither; their statistics are there for the asking all the same.
    // Both are born in columns: no tuple list is built for either.
    let tuples = TUPLES_BUILT.get();
    catalog
        .insert_sequenced(
            "EMPLOYEE",
            vec![Value::from("Mia"), Value::from("Sales")],
            Period::of(3, 9),
        )
        .unwrap();
    assert_eq!(catalog.table_stats("EMPLOYEE").unwrap().rows, 6);
    assert_eq!(serve(&catalog, EMPLOYEE_READ), 4);
    catalog
        .delete_sequenced(
            "EMPLOYEE",
            &Expr::eq(Expr::col("EmpName"), Expr::lit("Mia")),
            Period::of(0, 20),
        )
        .unwrap();
    assert_eq!(catalog.table_stats("EMPLOYEE").unwrap().rows, 5);
    assert_eq!(
        TUPLES_BUILT.get() - tuples,
        0,
        "the pair builds no tuple list"
    );
    let read_after = TRANSPOSES_BUILT.get();
    assert_eq!(serve(&catalog, EMPLOYEE_READ), 3);
    assert_eq!(
        TRANSPOSES_BUILT.get() - read_after,
        0,
        "the version after the pair is read from the columns it was born with"
    );
    for _ in 0..10 {
        assert_eq!(serve(&catalog, EMPLOYEE_READ), 3);
        assert_eq!(serve(&catalog, PROJECT_READ), 2);
    }
    assert_eq!(STATS_CACHE_MISSES.get() - measures, 2, "no full measure");
    // No transposes at all: every version read was born in columns.
    assert_eq!(TRANSPOSES_BUILT.get() - transposes, 0);

    // A two-stage statement over one base table (the aggregate is a
    // breaker below the sort), staged by the scheduler on a fresh catalog:
    // the base table was transposed at registration, the aggregate's
    // output is handed to the sort's stage with the columns it was built
    // from.
    let fresh = paper::catalog().snapshot();
    let staged = "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept ORDER BY Dept";
    let plan = lower(
        &tqo_sql::compile(staged, &fresh).unwrap(),
        PlannerConfig::default(),
    )
    .unwrap();
    let transposes = TRANSPOSES_BUILT.get();
    let scheduler = Scheduler::new(SchedulerConfig {
        workers: 1,
        max_queries: 1,
    });
    let (rows, metrics) = scheduler
        .run(&plan, &fresh.env(), SubmitOptions::default())
        .unwrap();
    scheduler.shutdown();
    assert_eq!(rows.len(), 2);
    assert_eq!(
        metrics
            .operators
            .iter()
            .filter(|o| o.label.starts_with("scan(__q"))
            .count(),
        1,
        "one stage reads another's output"
    );
    assert_eq!(TRANSPOSES_BUILT.get() - transposes, 0);
}
