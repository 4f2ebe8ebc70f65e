//! The server's plan cache: a served statement is planned (compiled and
//! optimized) once per schema and Table 2 base properties of the tables it
//! binds, and writes that leave those alone keep its plan. Every test owns
//! its server and reads hits and misses from that server's own cache, so
//! the suite's tests cannot count each other's queries.
//!
//! Each test holds the cache to two things: when it hits and when it
//! misses, and that the answer is the interpreter's over the catalog's
//! current versions either way, under the statement's result type
//! (ARCHITECTURE invariant 16).

mod common;

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tqo_core::error::Error;
use tqo_core::expr::Expr;
use tqo_core::interp::eval_plan;
use tqo_core::plan::BaseProps;
use tqo_core::relation::Relation;
use tqo_core::time::Period;
use tqo_core::tuple;
use tqo_core::value::Value;
use tqo_serve::{serve, Client, PlanCacheStats, Server, ServerConfig, PLAN_CACHE_CAPACITY};
use tqo_storage::{paper, Catalog};

/// Reads the scratch table; sorted, so the list is the answer.
const AUDIT_READ: &str = "VALIDTIME SELECT EmpName FROM AUDIT ORDER BY EmpName";

/// Reads only EMPLOYEE.
const EMPLOYEE_READ: &str = "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept";

/// A join with AUDIT on one side and EMPLOYEE on the other.
const JOIN: &str = "SELECT e.EmpName AS EmpName FROM EMPLOYEE e, AUDIT a \
                    WHERE e.EmpName = a.EmpName ORDER BY EmpName";

/// The paper catalog plus a scratch copy of EMPLOYEE named AUDIT, and a
/// server over it. The returned catalog shares the server's tables.
fn start() -> (Catalog, Server, Client) {
    let catalog = paper::catalog();
    catalog
        .register("AUDIT", paper::employee())
        .expect("register AUDIT");
    let server = serve(catalog.clone(), ServerConfig::default()).expect("server starts");
    let client = Client::connect(server.addr()).expect("connect");
    (catalog, server, client)
}

/// The interpreter's answer over the catalog's current versions.
fn oracle(catalog: &Catalog, sql: &str) -> Relation {
    eval_plan(&tqo_sql::compile(sql, catalog).unwrap(), &catalog.env()).unwrap()
}

fn counts(server: &Server) -> (u64, u64) {
    let PlanCacheStats { hits, misses, .. } = server.plan_cache();
    (hits, misses)
}

#[test]
fn the_same_statement_twice_hits_with_identical_rows() {
    let (catalog, mut server, mut client) = start();
    let first = client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (0, 1));
    let second = client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (1, 1));
    assert_eq!(first, second);
    assert_eq!(second, oracle(&catalog, AUDIT_READ));
    assert_eq!(server.plan_cache().entries, 1);
    server.stop();
}

/// A write that moves no Table 2 property changes the rows a plan reads,
/// never the plan: the next read hits, and runs the plan against the
/// query's own snapshot.
#[test]
fn a_sequenced_write_to_a_bound_table_hits_and_answers_the_new_version() {
    let (catalog, mut server, mut client) = start();
    let props = licences(&catalog, "AUDIT");
    let before = client.query(AUDIT_READ).unwrap();
    client
        .insert(
            "AUDIT",
            vec![Value::from("Zoe"), Value::from("Audit")],
            Period::of(2, 9),
        )
        .unwrap();
    assert_eq!(licences(&catalog, "AUDIT"), props);
    let inserted = client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (1, 1), "the insert kept the plan");
    assert_eq!(inserted, oracle(&catalog, AUDIT_READ));
    assert_eq!(inserted.len(), before.len() + 1);
    client
        .delete("AUDIT", "EmpName", Value::from("Zoe"), Period::of(2, 9))
        .unwrap();
    let deleted = client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (2, 1), "the delete kept the plan");
    assert_eq!(deleted, oracle(&catalog, AUDIT_READ));
    assert_eq!(deleted, before);
    server.stop();
}

/// A plan that served hits serves more after a write, with the written
/// rows.
#[test]
fn a_plan_that_served_hits_is_kept_across_a_write() {
    let (catalog, mut server, mut client) = start();
    client.query(AUDIT_READ).unwrap();
    client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (1, 1));
    client
        .insert(
            "AUDIT",
            vec![Value::from("Zoe"), Value::from("Audit")],
            Period::of(2, 9),
        )
        .unwrap();
    client.query(AUDIT_READ).unwrap();
    let rows = client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (3, 1));
    assert_eq!(rows, oracle(&catalog, AUDIT_READ));
    server.stop();
}

#[test]
fn a_write_to_an_unbound_table_keeps_the_entry() {
    let (catalog, mut server, mut client) = start();
    client.query(EMPLOYEE_READ).unwrap();
    client
        .insert(
            "AUDIT",
            vec![Value::from("Zoe"), Value::from("Audit")],
            Period::of(2, 9),
        )
        .unwrap();
    let rows = client.query(EMPLOYEE_READ).unwrap();
    assert_eq!(counts(&server), (1, 1));
    assert_eq!(rows, oracle(&catalog, EMPLOYEE_READ));
    server.stop();
}

/// A plan over two tables is kept through a write to either one, and
/// answers with both tables' current rows.
#[test]
fn a_write_to_either_table_of_a_join_keeps_the_plan() {
    let (catalog, mut server, mut client) = start();
    client.query(JOIN).unwrap();
    client.query(JOIN).unwrap();
    assert_eq!(counts(&server), (1, 1));
    for (table, hits) in [("EMPLOYEE", 3), ("AUDIT", 5)] {
        let before = client.query(JOIN).unwrap();
        catalog
            .insert_sequenced(
                table,
                vec![Value::from("Anna"), Value::from("Audit")],
                Period::of(20, 30),
            )
            .unwrap();
        let rows = client.query(JOIN).unwrap();
        assert_eq!(counts(&server), (hits, 1), "after a write to {table}");
        assert_eq!(rows, oracle(&catalog, JOIN));
        assert_ne!(rows, before, "the write reached the join's answer");
    }
    server.stop();
}

#[test]
fn a_table_dropped_and_registered_again_misses_and_answers_from_the_new_table() {
    let (catalog, mut server, mut client) = start();
    client.query(AUDIT_READ).unwrap();
    client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (1, 1));
    // Same name, another schema and other rows.
    catalog.drop_table("AUDIT").unwrap();
    catalog.register("AUDIT", paper::project()).unwrap();
    let rows = client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (1, 2));
    assert_eq!(rows, oracle(&catalog, AUDIT_READ));
    assert_eq!(rows.len(), paper::project().len());
    // A statement over a column only the old schema had now fails typed.
    let old_column = "SELECT Dept FROM AUDIT";
    assert!(client.query(old_column).is_err());
    server.stop();
}

/// The same name, the same schema and the same base properties, with other
/// rows: the plan is typed and licensed right for the new table, so it is
/// kept and reads the new rows. A query while the name is unbound fails
/// typed and leaves the entry alone.
#[test]
fn a_table_registered_again_with_the_same_schema_hits_and_answers_its_rows() {
    let (catalog, mut server, mut client) = start();
    let before = client.query(AUDIT_READ).unwrap();
    catalog.drop_table("AUDIT").unwrap();
    assert!(matches!(
        client.query(AUDIT_READ),
        Err(Error::Storage { .. })
    ));
    // Like EMPLOYEE: duplicate-free and snapshot-duplicate-free, not
    // coalesced (Zoe's two periods meet).
    let other = Relation::new(
        paper::employee_schema(),
        vec![
            tuple!["Zoe", "Audit", 1i64, 4i64],
            tuple!["Zoe", "Audit", 4i64, 6i64],
            tuple!["Yan", "Sales", 3i64, 9i64],
        ],
    )
    .unwrap();
    let employee = licences(&catalog, "EMPLOYEE");
    catalog.register("AUDIT", other).unwrap();
    assert_eq!(licences(&catalog, "AUDIT"), employee);
    let rows = client.query(AUDIT_READ).unwrap();
    assert_eq!(counts(&server), (1, 2), "the same schema kept the plan");
    assert_eq!(rows, oracle(&catalog, AUDIT_READ));
    assert_eq!(rows.len(), 3);
    assert_ne!(rows, before);
    server.stop();
}

/// Statements whose answers hang on AUDIT's duplicates (`DISTINCT`) and
/// coalescing (`COALESCE`) as well as its rows, one whose plan drops its
/// `rdupᵀ` exactly while AUDIT is snapshot-duplicate-free, and a join
/// with a side on each written table; each with the tables it binds.
const REPLAYED: &[(&str, &[&str])] = &[
    (AUDIT_READ, &["AUDIT"]),
    (
        "SELECT DISTINCT EmpName, Dept FROM AUDIT ORDER BY EmpName, Dept",
        &["AUDIT"],
    ),
    (
        "VALIDTIME SELECT EmpName, Dept FROM AUDIT COALESCE ORDER BY EmpName, Dept",
        &["AUDIT"],
    ),
    (SDF_READ, &["AUDIT"]),
    (JOIN, &["AUDIT", "EMPLOYEE"]),
];

/// Its optimized plan is a bare scan while AUDIT is
/// snapshot-duplicate-free (D2 drops the `rdupᵀ`), and keeps the `rdupᵀ`
/// otherwise.
const SDF_READ: &str = "VALIDTIME SELECT DISTINCT * FROM AUDIT";

/// Table 2's base properties of a table now: what licenses the rewrites
/// a served plan was chosen under.
fn licences(catalog: &Catalog, table: &str) -> (bool, bool, bool, String) {
    let BaseProps {
        dup_free,
        snapshot_dup_free,
        coalesced,
        order,
        ..
    } = catalog.get(table).unwrap().props().clone();
    (dup_free, snapshot_dup_free, coalesced, format!("{order:?}"))
}

const NAMES: &[&str] = &["Anna", "John", "Zoe"];
const DEPTS: &[&str] = &["Sales", "Advertising", "Audit"];

fn is(name: &str) -> Expr {
    Expr::eq(Expr::col("EmpName"), Expr::lit(name))
}

/// A row of `table` now, if it has one: a duplicate of it, or a row of its
/// value class next to it, moves Table 2's properties.
fn some_row(catalog: &Catalog, table: &str, rng: &mut StdRng) -> Option<(Vec<Value>, Period)> {
    let table = catalog.get(table).unwrap();
    let relation = table.relation();
    let tuples = relation.tuples();
    let row = tuples.get(rng.gen_range(0..tuples.len().max(1)))?;
    Some((
        row.values()[..2].to_vec(),
        row.period(relation.schema()).unwrap(),
    ))
}

/// One seeded sequenced write to AUDIT or EMPLOYEE: through `client` where
/// the wire has the verb, through the shared catalog for an update.
fn seeded_write(rng: &mut StdRng, catalog: &Catalog, client: &mut Client) {
    let table = ["AUDIT", "EMPLOYEE"][rng.gen_range(0..2usize)];
    let name = NAMES[rng.gen_range(0..NAMES.len())];
    let dept = DEPTS[rng.gen_range(0..DEPTS.len())];
    let start = rng.gen_range(0i64..14);
    let period = Period::of(start, start + rng.gen_range(1i64..6));
    match rng.gen_range(0u8..5) {
        0 => client
            .insert(table, vec![Value::from(name), Value::from(dept)], period)
            .unwrap(),
        1 => client
            .delete(table, "EmpName", Value::from(name), period)
            .unwrap(),
        2 => catalog
            .update_sequenced(table, &is(name), period, |t| {
                let mut t = t.clone();
                t.set_value(1, Value::from(dept));
                Ok(t)
            })
            .unwrap(),
        // A duplicate of a stored row, or a row that abuts one of its
        // value class: the table stops being duplicate-free or coalesced.
        abut => {
            if let Some((values, p)) = some_row(catalog, table, rng) {
                let p = if abut == 3 {
                    p
                } else {
                    Period::of(p.end, p.end + 2)
                };
                client.insert(table, values, p).unwrap();
            }
        }
    }
}

/// Run fixed writes that move AUDIT's Table 2 properties, then seeded
/// ones, over `sessions` sessions that take turns writing and reading.
/// After every step each session reads every statement and gets the
/// interpreter's answer, and the server has planned a statement again
/// exactly when a table it binds reads other base properties than when it
/// was last planned: the writes that move none cost no plan.
fn writes_keep_plans(sessions: usize, seed: u64) {
    let (catalog, mut server, first) = start();
    let mut clients = vec![first];
    for _ in 1..sessions {
        clients.push(Client::connect(server.addr()).expect("connect"));
    }
    let audit = |catalog: &Catalog| catalog.get("AUDIT").unwrap().props().clone();
    assert!(audit(&catalog).dup_free && !audit(&catalog).coalesced);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reads = 0u64;
    let mut planned: HashMap<&str, Vec<_>> = HashMap::new();
    let mut replans = 0u64;
    for step in 0..28usize {
        let writer = &mut clients[step % sessions];
        match step {
            0 => {}
            // Anna's abutting Sales rows go: AUDIT is now coalesced.
            1 => {
                writer
                    .delete("AUDIT", "EmpName", Value::from("Anna"), Period::of(6, 12))
                    .unwrap();
                assert!(audit(&catalog).coalesced);
            }
            // Abuts John's Sales row [1, 8): no longer coalesced.
            2 => {
                let row = vec![Value::from("John"), Value::from("Sales")];
                writer.insert("AUDIT", row, Period::of(8, 10)).unwrap();
                assert!(!audit(&catalog).coalesced);
            }
            // A second copy of a stored row: no longer duplicate-free.
            3 => {
                let row = vec![Value::from("Anna"), Value::from("Sales")];
                writer.insert("AUDIT", row, Period::of(2, 6)).unwrap();
                assert!(!audit(&catalog).dup_free);
            }
            _ => seeded_write(&mut rng, &catalog, writer),
        }
        for (i, &(sql, tables)) in REPLAYED.iter().enumerate() {
            let now: Vec<_> = tables.iter().map(|t| licences(&catalog, t)).collect();
            if planned
                .insert(sql, now.clone())
                .is_some_and(|then| then != now)
            {
                replans += 1;
            }
            for k in 0..sessions {
                let served = clients[(step + i + k) % sessions].query(sql).unwrap();
                common::assert_answers(&catalog, sql, &served);
                reads += 1;
            }
        }
        let (hits, misses) = counts(&server);
        assert_eq!(
            misses,
            REPLAYED.len() as u64 + replans,
            "step {step}: a write that moved no base property cost a plan"
        );
        assert_eq!(hits + misses, reads);
    }
    assert!(replans >= 3, "the writes moved AUDIT's properties");
    server.stop();
}

/// A plan licensed by snapshot-duplicate-freedom is not served once a
/// write takes it away: the statement misses, is planned again with its
/// `rdupᵀ`, and answers the new version's rows; then it hits again.
#[test]
fn a_write_that_takes_away_a_licence_misses_and_answers_the_new_version() {
    let (catalog, mut server, mut client) = start();
    assert!(
        licences(&catalog, "AUDIT").1,
        "AUDIT starts snapshot-dup-free"
    );
    let first = client.query(SDF_READ).unwrap();
    common::assert_answers(&catalog, SDF_READ, &first);
    let stats = server.plan_cache();
    assert_eq!((stats.misses, stats.optimized), (1, 1), "the rdupT went");
    // A second copy of Anna's Sales period: two Anna/Sales tuples alive at
    // once, so AUDIT has snapshot duplicates.
    client
        .insert(
            "AUDIT",
            vec![Value::from("Anna"), Value::from("Sales")],
            Period::of(2, 6),
        )
        .unwrap();
    assert!(!licences(&catalog, "AUDIT").1);
    let after = client.query(SDF_READ).unwrap();
    assert_eq!(counts(&server), (0, 2), "the flipped property missed");
    common::assert_answers(&catalog, SDF_READ, &after);
    assert_eq!(after.len(), first.len(), "rdupT removed the copy again");
    let again = client.query(SDF_READ).unwrap();
    assert_eq!(counts(&server), (1, 2));
    common::assert_answers(&catalog, SDF_READ, &again);
    server.stop();
}

#[test]
fn writes_keep_plans_and_answers_stay_right_in_one_session() {
    writes_keep_plans(1, 7);
}

#[test]
fn writes_keep_plans_and_answers_stay_right_across_interleaved_sessions() {
    writes_keep_plans(2, 11);
}

#[test]
fn a_failing_statement_is_never_cached() {
    let (_catalog, mut server, mut client) = start();
    for sql in [
        "SELECT NoSuchColumn FROM EMPLOYEE",
        "SELECT EmpName FROM NO_SUCH_TABLE",
        "SELEKT garbage",
    ] {
        for _ in 0..2 {
            match client.query(sql) {
                Err(Error::Plan { .. } | Error::Parse { .. } | Error::Storage { .. }) => {}
                other => panic!("`{sql}`: expected a typed failure, got {other:?}"),
            }
        }
    }
    let stats = server.plan_cache();
    assert_eq!((stats.hits, stats.misses, stats.entries), (0, 6, 0));
    // The connection still serves, and a good statement is cached.
    client.query(EMPLOYEE_READ).unwrap();
    assert_eq!(server.plan_cache().entries, 1);
    server.stop();
}

#[test]
fn more_statements_than_the_cap_keep_the_cache_at_the_cap() {
    let (catalog, mut server, mut client) = start();
    let statements = PLAN_CACHE_CAPACITY + 16;
    for i in 0..statements {
        let sql = format!("SELECT EmpName FROM EMPLOYEE WHERE T1 >= {i}");
        client.query(&sql).unwrap();
        assert!(server.plan_cache().entries <= PLAN_CACHE_CAPACITY);
    }
    let stats = server.plan_cache();
    assert_eq!(stats.entries, PLAN_CACHE_CAPACITY);
    assert_eq!((stats.hits, stats.misses), (0, statements as u64));
    // The last statement was inserted last, so it is still there.
    let last = format!(
        "SELECT EmpName FROM EMPLOYEE WHERE T1 >= {}",
        statements - 1
    );
    common::assert_answers(&catalog, &last, &client.query(&last).unwrap());
    assert_eq!(server.plan_cache().hits, 1);
    server.stop();
}

/// A session's plans go with it: the next connection compiles afresh, and
/// while a session lives its plans serve every other session.
#[test]
fn a_sessions_plans_end_with_it_and_serve_other_sessions_meanwhile() {
    let (_catalog, mut server, mut client) = start();
    client.query(EMPLOYEE_READ).unwrap();
    let mut other = Client::connect(server.addr()).expect("connect");
    other.query(EMPLOYEE_READ).unwrap();
    assert_eq!(counts(&server), (1, 1), "a live session's plan is shared");
    drop(client);
    drop(other);
    // Both session threads notice the closed connections and end.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while server.plan_cache().entries > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "ended sessions left their plans"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let mut next = Client::connect(server.addr()).expect("connect");
    next.query(EMPLOYEE_READ).unwrap();
    assert_eq!(counts(&server), (1, 2));
    server.stop();
}

/// The benchmark's churn: a scratch row inserted into EMPLOYEE and deleted
/// again. The generator's EMPLOYEE reads all three base properties false
/// and unordered (so do all four tables at the benchmark's own scales,
/// seeds 7 and 19; a small PROJECT can be duplicate-free), so no such
/// write can flip one, and the churned statements keep hitting.
#[test]
fn benchmark_churn_writes_move_no_base_property_and_hit() {
    let unordered = format!("{:?}", tqo_core::sortspec::Order::unordered());
    for workload in ["short_read", "churn_mix", "scan_heavy", "plan_sensitive"] {
        let catalog = common::benchmark_catalog(workload, 7);
        for table in ["EMPLOYEE", "EMPLOYEE_S"]
            .into_iter()
            .filter(|t| catalog.get(t).is_ok())
        {
            let none = (false, false, false, unordered.clone());
            assert_eq!(licences(&catalog, table), none, "{workload}: {table}");
        }
    }
    let catalog = common::benchmark_catalog("churn_mix", 7);
    let mut server = serve(catalog.clone(), ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");
    let statements: Vec<&str> = common::BENCHMARK_TEMPLATES
        .iter()
        .filter(|t| t.0 == "churn_mix")
        .map(|t| t.2)
        .collect();
    let props = licences(&catalog, "EMPLOYEE");
    for round in 0..3u64 {
        for sql in &statements {
            common::assert_answers(&catalog, sql, &client.query(sql).unwrap());
        }
        let scratch = vec![Value::from("scratch0"), Value::from("scratch")];
        client
            .insert("EMPLOYEE", scratch, Period::of(0, 5))
            .unwrap();
        assert_eq!(licences(&catalog, "EMPLOYEE"), props, "round {round}");
        client
            .delete(
                "EMPLOYEE",
                "EmpName",
                Value::from("scratch0"),
                Period::of(0, 5),
            )
            .unwrap();
        let n = statements.len() as u64;
        assert_eq!(counts(&server), (round * n, n), "round {round}");
    }
    server.stop();
}
