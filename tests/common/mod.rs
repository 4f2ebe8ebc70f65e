//! Shared proptest strategies and helpers for the integration test suites.
#![allow(dead_code)]

use proptest::prelude::*;

use tqo_core::expr::Expr;
use tqo_core::plan::{BaseProps, LogicalPlan, PlanBuilder};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::sortspec::Order;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};

/// Schema of random temporal relations: `(E: Str, T1, T2)`.
pub fn temporal_schema() -> Schema {
    Schema::temporal(&[("E", DataType::Str)])
}

/// Schema of random snapshot relations: `(A: Int, B: Str)`.
pub fn snapshot_schema() -> Schema {
    Schema::of(&[("A", DataType::Int), ("B", DataType::Str)])
}

/// A random temporal relation over `classes` distinct values with up to
/// `max_rows` rows; periods live in a small range so overlaps, adjacencies,
/// and duplicates all occur with useful frequency.
pub fn arb_temporal(classes: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..classes, 0i64..24, 1i64..8), 0..=max_rows).prop_map(move |rows| {
        let tuples = rows
            .into_iter()
            .map(|(c, start, dur)| {
                Tuple::new(vec![
                    Value::Str(format!("v{c}").into()),
                    Value::Time(start),
                    Value::Time(start + dur),
                ])
            })
            .collect();
        Relation::new(temporal_schema(), tuples).expect("generated periods are valid")
    })
}

/// A random snapshot relation with small value domains (so duplicates are
/// common).
pub fn arb_snapshot(max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..6, 0usize..4), 0..=max_rows).prop_map(|rows| {
        let tuples = rows
            .into_iter()
            .map(|(a, b)| Tuple::new(vec![Value::Int(a), Value::Str(format!("s{b}").into())]))
            .collect();
        Relation::new(snapshot_schema(), tuples).expect("generated rows are valid")
    })
}

/// A temporal scan over declared (not measured) base properties, as the
/// optimizer fixtures use: `(E: Str, T1, T2)` with `card` rows.
pub fn fixture_tscan(name: &str, card: u64, clean: bool) -> PlanBuilder {
    let schema = Schema::temporal(&[("E", DataType::Str)]);
    let base = if clean {
        BaseProps::clean(schema, card)
    } else {
        BaseProps::unordered(schema, card)
    };
    PlanBuilder::scan(name, base)
}

/// A snapshot scan `(A: Int, B: Str)` with `card` rows.
pub fn fixture_sscan(name: &str, card: u64) -> PlanBuilder {
    let schema = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
    PlanBuilder::scan(name, BaseProps::unordered(schema, card))
}

/// The optimizer fixture pool: plan shapes exercising every region of the
/// rule space (dedup, coalescing, sorting, conventional pushdowns,
/// transfers) under all three result types, sized so the exhaustive
/// Figure 5 closure finishes. Shared by the memo-vs-exhaustive agreement
/// suite and the optimizer-quality suite.
pub fn optimizer_fixtures(scale: u64) -> Vec<LogicalPlan> {
    let t = |n: &str| fixture_tscan(n, scale, false);
    let tc = |n: &str| fixture_tscan(n, scale, true);
    let s = |n: &str| fixture_sscan(n, scale);
    let by_e = || Order::asc(&["E"]);
    let time_free = || Expr::eq(Expr::col("E"), Expr::lit("v0"));

    vec![
        // The running example (Figure 2a) as list, multiset, and set.
        t("EMP")
            .project_cols(&["E", "T1", "T2"])
            .transfer_s()
            .rdup_t()
            .difference_t(t("PRJ").project_cols(&["E", "T1", "T2"]).transfer_s())
            .rdup_t()
            .coalesce()
            .sort(by_e())
            .build_list(by_e()),
        t("EMP")
            .transfer_s()
            .rdup_t()
            .difference_t(t("PRJ").transfer_s())
            .rdup_t()
            .coalesce()
            .build_multiset(),
        t("EMP")
            .transfer_s()
            .rdup_t()
            .difference_t(t("PRJ").transfer_s())
            .coalesce()
            .build_set(),
        // Sort placement and elimination.
        t("R").sort(by_e()).build_multiset(),
        t("R").sort(by_e()).build_list(by_e()),
        t("R").transfer_s().sort(by_e()).build_list(by_e()),
        t("R").sort(by_e()).transfer_s().build_list(by_e()),
        // Duplicate-elimination chains.
        t("R").rdup_t().rdup_t().build_multiset(),
        tc("R").rdup_t().build_multiset(),
        t("R").rdup_t().coalesce().build_multiset(),
        t("R").coalesce().coalesce().build_multiset(),
        // A projection cascade, which the memo composes as it enters.
        t("R")
            .project_cols(&["E", "T1", "T2"])
            .project_cols(&["E", "T1", "T2"])
            .rdup_t()
            .build_multiset(),
        t("A").union_t(t("B")).rdup_t().build_set(),
        // Temporal difference region structure (§5.3).
        t("A")
            .rdup_t()
            .difference_t(t("B").rdup_t())
            .coalesce()
            .build_multiset(),
        t("A").difference_t(t("B").sort(by_e())).build_multiset(),
        // Conventional pushdowns across a product.
        s("S1")
            .product(s("S2"))
            .select(Expr::eq(Expr::col("1.A"), Expr::lit(1i64)))
            .build_multiset(),
        s("S1").product(s("S2")).rdup().build_set(),
        // Selection over temporal operations.
        t("R").rdup_t().select(time_free()).build_multiset(),
        t("R").coalesce().select(time_free()).build_multiset(),
        // Transfers: round trips and placement.
        t("R")
            .transfer_s()
            .transfer_d()
            .transfer_s()
            .build_multiset(),
        t("R")
            .transfer_s()
            .rdup_t()
            .coalesce()
            .sort(by_e())
            .build_list(by_e()),
    ]
}

/// True when the suite runs under the CI matrix leg `TRACE=1`, which
/// widens the traced-vs-untraced byte-identity suite from a sampled
/// query pool to the full SQL pool and every optimizer fixture plan.
pub fn trace_widened() -> bool {
    std::env::var("TRACE").is_ok_and(|v| v == "1")
}

/// True when the suite runs under the CI matrix leg `FAULTS=1`, which
/// widens the governance suite: more fault seeds, the full query pool on
/// the fault-injection byte-identity legs, and denser cancellation
/// sweeps.
pub fn faults_widened() -> bool {
    std::env::var("FAULTS").is_ok_and(|v| v == "1")
}

/// All instants worth probing for a set of relations (shared endpoints ± 1).
pub fn probes(relations: &[&Relation]) -> Vec<i64> {
    let mut pts = Vec::new();
    for r in relations {
        pts.extend(r.endpoints().expect("temporal"));
    }
    pts.sort_unstable();
    pts.dedup();
    let mut out = Vec::with_capacity(pts.len() + 2);
    if let Some(first) = pts.first() {
        out.push(first - 1);
    }
    out.extend(pts.iter().copied());
    if let Some(last) = pts.last() {
        out.push(last + 1);
    }
    out
}

/// The engines-agree SQL pool over the paper catalog: every construct
/// the front end supports, conventional and VALIDTIME. The serving
/// stress tests replay this exact pool concurrently and hold each
/// response to byte-identity with its serial run.
pub const SQL_POOL: &[&str] = &[
    "SELECT EmpName FROM EMPLOYEE",
    "SELECT DISTINCT EmpName FROM EMPLOYEE",
    "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept DESC",
    "SELECT Dept, COUNT(*) AS n, MIN(T1) AS lo FROM EMPLOYEE GROUP BY Dept",
    "SELECT Dept, COUNT(*) AS n, MIN(T1) AS lo, AVG(T2) AS m FROM EMPLOYEE GROUP BY Dept",
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
    "VALIDTIME SELECT EmpName FROM EMPLOYEE UNION \
     VALIDTIME SELECT EmpName FROM PROJECT ORDER BY EmpName",
    "SELECT EmpName FROM EMPLOYEE EXCEPT SELECT EmpName FROM PROJECT",
    // HAVING, subqueries, outer joins, LIMIT/OFFSET.
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept HAVING n > 2",
    "VALIDTIME SELECT Dept FROM EMPLOYEE GROUP BY Dept HAVING COUNT(*) >= 2",
    "SELECT EmpName, Dept FROM EMPLOYEE \
     WHERE EmpName IN (SELECT EmpName FROM PROJECT WHERE Prj = 'P1')",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
     WHERE EmpName NOT IN (VALIDTIME SELECT EmpName FROM PROJECT) \
     COALESCE ORDER BY EmpName",
    "SELECT EmpName, Dept FROM EMPLOYEE e \
     WHERE EXISTS (SELECT Prj FROM PROJECT p WHERE p.EmpName = e.EmpName)",
    "SELECT EmpName, Dept FROM EMPLOYEE e \
     WHERE NOT EXISTS (SELECT Prj FROM PROJECT p \
                       WHERE p.EmpName = e.EmpName AND p.Prj = 'P1')",
    "SELECT e.EmpName, p.Prj FROM EMPLOYEE e \
     INNER JOIN PROJECT p ON e.EmpName = p.EmpName",
    "VALIDTIME SELECT e.EmpName AS EmpName, p.Prj AS Prj FROM EMPLOYEE e \
     LEFT JOIN PROJECT p ON e.EmpName = p.EmpName",
    "SELECT Dept, p.Prj AS Prj FROM EMPLOYEE e \
     RIGHT JOIN PROJECT p ON e.EmpName = p.EmpName",
    "SELECT EmpName FROM EMPLOYEE ORDER BY EmpName LIMIT 3 OFFSET 1",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE ORDER BY EmpName, T1 LIMIT 4",
];
