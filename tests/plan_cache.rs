//! The server's plan cache: a served statement compiles once per version of
//! the tables it binds. Every test owns its server and reads hits and
//! misses from that server's own cache, so the suite's tests cannot count
//! each other's queries.
//!
//! Each test holds the cache to two things: when it hits and when it
//! misses, and that the answer is the interpreter's over the catalog's
//! current versions either way (ARCHITECTURE invariant 16).

use tqo_core::error::Error;
use tqo_core::interp::eval_plan;
use tqo_core::relation::Relation;
use tqo_core::time::Period;
use tqo_core::value::Value;
use tqo_serve::{serve, Client, PlanCacheStats, Server, ServerConfig, PLAN_CACHE_CAPACITY};
use tqo_storage::{paper, Catalog};

/// Reads the scratch table; sorted, so the list is the answer.
const AUDIT_READ: &str = "VALIDTIME SELECT EmpName FROM AUDIT ORDER BY EmpName";

/// Reads only EMPLOYEE.
const EMPLOYEE_READ: &str = "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept";

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

#[test]
fn a_sequenced_write_to_a_bound_table_misses_and_answers_the_new_version() {
    let (catalog, mut server, mut client) = start();
    let before = client.query(AUDIT_READ).unwrap();
    client
        .insert(
            "AUDIT",
            vec![Value::from("Zoe"), Value::from("Audit")],
            Period::of(2, 9),
        )
        .unwrap();
    let inserted = client.query(AUDIT_READ).unwrap();
    assert_eq!(
        counts(&server),
        (0, 2),
        "the insert published a new version"
    );
    assert_eq!(inserted, oracle(&catalog, AUDIT_READ));
    assert_eq!(inserted.len(), before.len() + 1);
    client
        .delete("AUDIT", "EmpName", Value::from("Zoe"), Period::of(2, 9))
        .unwrap();
    let deleted = client.query(AUDIT_READ).unwrap();
    assert_eq!(
        counts(&server),
        (0, 3),
        "the delete published a new version"
    );
    assert_eq!(deleted, oracle(&catalog, AUDIT_READ));
    assert_eq!(deleted, before);
    // Its plans went stale without a hit, so the statement churns: the
    // cache kept only the versions. Asked again at them, it compiles once
    // more and keeps that plan, which the next request reuses.
    assert_eq!(client.query(AUDIT_READ).unwrap(), before);
    assert_eq!(counts(&server), (0, 4));
    assert_eq!(client.query(AUDIT_READ).unwrap(), before);
    assert_eq!(counts(&server), (1, 4));
    server.stop();
}

/// A plan that served hits is replaced by the next version's plan at once:
/// only a statement whose plans go stale unused waits for a second request.
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
    assert_eq!(counts(&server), (2, 2));
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

/// A plan over two tables is current only while both are: a write to
/// either one misses.
#[test]
fn a_write_to_either_table_of_a_join_misses() {
    let (catalog, mut server, mut client) = start();
    let sql = "SELECT e.EmpName AS EmpName FROM EMPLOYEE e, AUDIT a \
               WHERE e.EmpName = a.EmpName ORDER BY EmpName";
    client.query(sql).unwrap();
    client.query(sql).unwrap();
    assert_eq!(counts(&server), (1, 1));
    for (table, misses) in [("EMPLOYEE", 2), ("AUDIT", 3)] {
        catalog
            .insert_sequenced(
                table,
                vec![Value::from("Anna"), Value::from("Audit")],
                Period::of(20, 30),
            )
            .unwrap();
        let rows = client.query(sql).unwrap();
        assert_eq!(counts(&server), (1, misses), "after a write to {table}");
        assert_eq!(rows, oracle(&catalog, sql));
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
    assert_eq!(client.query(&last).unwrap(), oracle(&catalog, &last));
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
