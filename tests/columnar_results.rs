//! Results stay in columns from the engine to the client, guarded by
//! counts that repeat exactly rather than by timings: once the base
//! tables are transposed, scheduling a statement and encoding its
//! response builds no tuple list and no transpose, whether the statement
//! runs as one stage or hands stage outputs on; decoding the response
//! builds none either, and reading the decoded tuples builds exactly one.
//!
//! One `#[test]` in a file of its own, so nothing else in the process
//! moves the process-wide counters between two readings.

use tqo_core::rules::RuleSet;
use tqo_core::trace::counters::{TRANSPOSES_BUILT, TUPLES_BUILT};
use tqo_exec::planner::optimize_and_lower;
use tqo_exec::{PlannerConfig, Scheduler, SchedulerConfig, SubmitOptions};
use tqo_serve::protocol::{decode_response, encode_response, Response};
use tqo_storage::paper;

/// No breaker below the root: one stage over a base table.
const SINGLE_STAGE: &str = "SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'Sales'";
/// Breakers below the root: stages that scan other stages' outputs.
const STAGED: &[&str] = &[
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept ORDER BY Dept",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName",
];

#[test]
fn results_travel_in_columns_and_tuples_are_built_on_read() {
    let snapshot = paper::catalog().snapshot();
    let env = snapshot.env();
    let scheduler = Scheduler::new(SchedulerConfig {
        workers: 1,
        max_queries: 1,
    });
    let statements: Vec<_> = std::iter::once(&SINGLE_STAGE)
        .chain(STAGED)
        .map(|sql| {
            let logical = tqo_sql::compile(sql, &snapshot).unwrap();
            let rules = RuleSet::standard();
            let (physical, _) =
                optimize_and_lower(&logical, &rules, PlannerConfig::default()).unwrap();
            (*sql, physical)
        })
        .collect();
    // What the server does per query, minus the socket: run, then encode.
    let serve = |plan| {
        let (rows, _) = scheduler.run(plan, &env, SubmitOptions::default()).unwrap();
        encode_response(&Response::Rows(rows))
    };
    // The base tables' first transposes.
    for (_, plan) in &statements {
        serve(plan);
    }

    for (sql, plan) in &statements {
        let (tuples, transposes) = (TUPLES_BUILT.get(), TRANSPOSES_BUILT.get());
        let frame = serve(plan);
        assert_eq!(TUPLES_BUILT.get() - tuples, 0, "run + encode: {sql}");
        assert_eq!(
            TRANSPOSES_BUILT.get() - transposes,
            0,
            "run + encode: {sql}"
        );

        let Response::Rows(rows) = decode_response(frame).unwrap() else {
            panic!("{sql} answered without rows");
        };
        assert!(!rows.is_empty(), "{sql}");
        assert_eq!(TUPLES_BUILT.get() - tuples, 0, "decode: {sql}");
        let first = rows.tuples().len();
        assert_eq!(rows.tuples().len(), first);
        assert_eq!(TUPLES_BUILT.get() - tuples, 1, "tuples(): {sql}");
        assert_eq!(TRANSPOSES_BUILT.get() - transposes, 0, "decode: {sql}");
    }
    scheduler.shutdown();
}
