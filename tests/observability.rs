//! Observability invariants (`docs/observability.md`):
//!
//! * **Tracing never changes results** — running any query with a
//!   [`Collector`] installed produces a relation *byte-identical* to the
//!   untraced run — which is the interpreter's — on the batch engine,
//!   whole and staged by the scheduler, across the paper catalog SQL pool
//!   and the optimizer fixture-plan pool (the CI matrix leg `TRACE=1`
//!   widens both pools to their full size).
//! * Per-operator **exclusive times sum to at most the measured wall
//!   time** on a direct run and through a one-worker scheduler.
//! * `EXPLAIN ANALYZE` renders the same column set on a direct run, for
//!   a scheduler run's flat view, and through the stratum.
//! * The Chrome trace export is well-formed JSON even when labels carry
//!   quotes, and a saturated ring degrades by dropping oldest events —
//!   never by failing the query.
//! * Process-wide counters only ever move forward.

mod common;

use std::time::Instant;

use tqo_core::trace::{self, counters, Collector};
use tqo_exec::{
    execute_logical, explain_analyze, lower, PlannerConfig, Scheduler, SchedulerConfig,
    SubmitOptions,
};
use tqo_storage::{paper, GenConfig, WorkloadGenerator};
use tqo_stratum::Stratum;

const QUERIES: &[&str] = &[
    "SELECT EmpName FROM EMPLOYEE",
    "SELECT DISTINCT EmpName FROM EMPLOYEE",
    "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept DESC",
    "SELECT Dept, COUNT(*) AS n, MIN(T1) AS lo FROM EMPLOYEE GROUP BY Dept",
    "SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE T1 >= 2 AND Dept = 'Sales'",
    "VALIDTIME SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
    "VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
     EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
     COALESCE ORDER BY EmpName",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE UNION ALL \
     VALIDTIME SELECT EmpName FROM PROJECT",
    "SELECT EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT",
];

/// The sampled query pool, or the full pool under `TRACE=1`.
fn query_pool() -> &'static [&'static str] {
    if common::trace_widened() {
        QUERIES
    } else {
        &QUERIES[..5]
    }
}

/// Traced and untraced executions of the same plan must return
/// byte-identical relations, whole and through the scheduler's stages,
/// and both must be the interpreter's; the trace must actually record
/// events.
fn assert_traced_identical(
    plan: &tqo_core::plan::LogicalPlan,
    env: &tqo_core::interp::Env,
    context: &str,
) {
    let reference = tqo_core::interp::eval_plan(plan, env).unwrap();
    let (untraced, _) = execute_logical(plan, env, PlannerConfig::default()).unwrap();
    assert_eq!(
        untraced, reference,
        "the engine diverges from the interpreter on {context}"
    );
    let collector = Collector::new();
    let (traced, _) = {
        let _guard = trace::install(&collector);
        execute_logical(plan, env, PlannerConfig::default()).unwrap()
    };
    assert_eq!(
        traced, untraced,
        "tracing perturbed the result on {context}"
    );
    assert!(
        !collector.finish().events.is_empty(),
        "no events recorded on {context}"
    );

    // Staged leg: the scheduler carries the submitter's collector onto
    // its workers, and the stages replay identically under tracing.
    let physical = lower(plan, PlannerConfig::default()).unwrap();
    let staged = || {
        Scheduler::global()
            .run(&physical, env, SubmitOptions::default())
            .unwrap()
    };
    let (untraced, _) = staged();
    assert_eq!(
        untraced, reference,
        "the scheduler diverges from the interpreter on {context}"
    );
    let collector = Collector::new();
    let (traced, _) = {
        let _guard = trace::install(&collector);
        staged()
    };
    assert_eq!(
        traced, untraced,
        "tracing perturbed the scheduler's result on {context}"
    );
    assert!(
        !collector.finish().events.is_empty(),
        "no scheduler events recorded on {context}"
    );
}

#[test]
fn tracing_never_changes_results_on_the_sql_pool() {
    let catalog = paper::catalog();
    let env = catalog.env();
    for sql in query_pool() {
        let plan = tqo_sql::compile(sql, &catalog).unwrap();
        assert_traced_identical(&plan, &env, sql);
    }
}

#[test]
fn tracing_never_changes_results_on_fixture_plans() {
    let mut generator = WorkloadGenerator::new(7);
    let mut env = tqo_core::interp::Env::new();
    for name in ["EMP", "PRJ", "A", "B"] {
        env.insert(
            name,
            generator
                .temporal(&GenConfig {
                    classes: 6,
                    fragments_per_class: 4,
                    overlap_prob: 0.3,
                    duplicate_prob: 0.2,
                    ..GenConfig::default()
                })
                .unwrap(),
        );
    }
    env.insert("R", generator.temporal(&GenConfig::clean(8, 4)).unwrap());
    env.insert("S1", generator.conventional(40, 6).unwrap());
    env.insert("S2", generator.conventional(30, 6).unwrap());

    let fixtures = common::optimizer_fixtures(30);
    let pool: Vec<_> = if common::trace_widened() {
        fixtures.into_iter().enumerate().collect()
    } else {
        fixtures.into_iter().enumerate().step_by(4).collect()
    };
    for (i, plan) in pool {
        assert_traced_identical(&plan, &env, &format!("fixture #{i}"));
    }
}

/// Exclusive operator times can never sum past the measured end-to-end
/// wall time (the `check_time_invariants` contract) — on a direct run,
/// and across the stages of a scheduler run.
#[test]
fn operator_times_are_exclusive_and_bounded_by_wall() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
               EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
               COALESCE ORDER BY EmpName";
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    let started = Instant::now();
    let (_, metrics) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
    tqo_exec::analyze::check_time_invariants(&metrics, started.elapsed());
    // Staged execution keeps the same accounting. One worker runs the
    // stages one after another, so their exclusive times cannot overlap.
    let scheduler = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    });
    let physical = lower(&plan, PlannerConfig::default()).unwrap();
    let started = Instant::now();
    let (_, metrics) = scheduler
        .run(&physical, &env, SubmitOptions::default())
        .unwrap();
    tqo_exec::analyze::check_time_invariants(&metrics, started.elapsed());
    assert!(
        metrics.operators.len() > physical.root().size(),
        "the plan ran in more than one stage"
    );
}

/// The analyze report shows one annotated line per operator with the full
/// column set, uniformly across direct runs, scheduler runs, and the
/// stratum.
#[test]
fn explain_analyze_is_uniform_across_engines_and_stratum() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let sql = "VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName";
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    let columns = ["est rows", "act rows", "q-err", "time", "rows/s"];

    let a = explain_analyze(&plan, &env, PlannerConfig::default()).unwrap();
    for col in columns {
        assert!(a.report.contains(col), "missing {col}:\n{}", a.report);
    }
    assert_eq!(
        a.report.lines().count(),
        // Header (2 lines) + one line per operator + totals.
        a.metrics.operators.len() + 3,
        "one line per operator:\n{}",
        a.report
    );

    // Scheduler: its stages' operators concatenated render as the flat
    // execution-order view, same columns.
    let physical = lower(&plan, PlannerConfig::default()).unwrap();
    let (_, metrics) = Scheduler::global()
        .run(&physical, &env, SubmitOptions::default())
        .unwrap();
    let report = tqo_exec::analyze::render(None, &metrics);
    for col in columns {
        assert!(report.contains(col), "scheduler missing {col}:\n{report}");
    }
    assert_eq!(
        report.lines().count(),
        metrics.operators.len() + 3,
        "one line per operator (scheduler):\n{report}"
    );

    // Stratum: wire header plus the same analyze table.
    let stratum = Stratum::new(paper::catalog());
    let (result, metrics, report) = stratum.run_sql_analyzed(sql).unwrap();
    assert!(!result.is_empty());
    assert!(report.starts_with("stratum: "), "{report}");
    assert!(report.contains("EXPLAIN ANALYZE"), "{report}");
    for col in columns {
        assert!(report.contains(col), "stratum missing {col}:\n{report}");
    }
    assert!(metrics.fragments >= 1);
    // The analyzed run still returns the ordinary query result.
    let (plain, _, _) = stratum.run_sql_optimized(sql).unwrap();
    assert_eq!(result, plain, "analyze perturbed the stratum result");
}

/// A minimal JSON scanner: validates string escaping and bracket balance
/// — enough to catch an unescaped quote or dangling comma in the export.
fn assert_valid_json(s: &str) {
    let bytes = s.as_bytes();
    let mut stack = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => stack.push(bytes[i]),
            b'}' => assert_eq!(stack.pop(), Some(b'{'), "unbalanced }} at byte {i}"),
            b']' => assert_eq!(stack.pop(), Some(b'['), "unbalanced ] at byte {i}"),
            b'"' => {
                // Consume the string body, honoring escapes.
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    if bytes[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                assert!(i < bytes.len(), "unterminated string");
            }
            _ => {}
        }
        i += 1;
    }
    assert!(stack.is_empty(), "unbalanced brackets: {stack:?}");
}

#[test]
fn chrome_export_is_wellformed() {
    let catalog = paper::catalog();
    let stratum = Stratum::new(catalog.clone());
    let collector = Collector::new();
    {
        let _guard = trace::install(&collector);
        // ORDER BY carries a quoted Debug rendering into the bind span's
        // args — the export must escape it.
        stratum
            .run_sql_optimized("VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName")
            .unwrap();
    }
    let profile = collector.finish();
    assert!(profile.events.len() >= 5, "expected a real trace");
    let json = profile.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert_valid_json(&json);
}

#[test]
fn ring_overflow_drops_oldest_and_keeps_the_query_alive() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let plan = tqo_sql::compile(
        "VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName",
        &catalog,
    )
    .unwrap();
    let (untraced, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();

    let collector = Collector::with_capacity(4);
    let (traced, _) = {
        let _guard = trace::install(&collector);
        execute_logical(&plan, &env, PlannerConfig::default()).unwrap()
    };
    assert_eq!(
        traced, untraced,
        "a saturated ring must not perturb results"
    );
    let profile = collector.finish();
    assert_eq!(profile.events.len(), 4, "ring keeps exactly its capacity");
    assert!(profile.dropped > 0, "overflow must be counted");
    assert_valid_json(&profile.to_chrome_json());
}

/// Counters are process-wide and monotonic: a stratum query can only move
/// them forward, by at least the work it demonstrably did.
#[test]
fn counters_advance_monotonically() {
    let before = counters::snapshot();
    let stratum = Stratum::new(paper::catalog());
    let (result, metrics, _) = stratum
        .run_sql_optimized("VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName")
        .unwrap();
    assert!(!result.is_empty());
    let after = counters::snapshot();

    let delta = |name: &str| {
        let b = before.iter().find(|(n, _)| *n == name).unwrap().1;
        let a = after.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(a >= b, "counter {name} moved backwards");
        a - b
    };
    // Other tests run concurrently in this process, so deltas are lower
    // bounds (≥), never exact.
    assert!(delta("queries_executed") >= 1);
    assert!(delta("fragments_executed") >= metrics.fragments as u64);
    assert!(delta("wire_rows") >= metrics.transferred_rows as u64);
    assert!(delta("wire_bytes") >= metrics.transfer_bytes as u64);
    for (name, _) in &before {
        delta(name); // every counter is monotonic
    }

    let json = counters::to_json();
    assert_valid_json(&json);
    for (name, _) in &after {
        assert!(
            json.contains(&format!("\"{name}\"")),
            "{name} missing from dump"
        );
    }
}
