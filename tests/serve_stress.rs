//! Serving stress suite: the concurrent oracle for ARCHITECTURE
//! invariant 16 — **concurrency never changes results, only latency**.
//!
//! Eight client threads replay the engines-agree SQL pool through the
//! multi-query scheduler and the TCP front-end while mutations churn a
//! scratch table, and every single response is held to byte-identity
//! with its serial single-query run. A second leg seeds wire faults and
//! deterministic cancellations mid-load and asserts the pool stays
//! typed-error-clean and fully reusable afterwards.
//!
//! CI runs this suite with `--test-threads=1`: each test owns its
//! server, port, and scheduler, and the assertions are about *internal*
//! concurrency, not test-runner concurrency.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use tqo_core::error::Error;
use tqo_core::relation::Relation;
use tqo_core::rules::RuleSet;
use tqo_core::time::Period;
use tqo_core::value::Value;
use tqo_exec::planner::optimize_and_lower;
use tqo_exec::{execute_mode, ExecMode, PlannerConfig, SchedulerConfig};
use tqo_serve::{serve, Client, QueryOpts, Server, ServerConfig};
use tqo_storage::{paper, Catalog};
use tqo_stratum::FaultConfig;

/// Client thread count for every concurrent leg (the ISSUE's oracle
/// width).
const CLIENTS: usize = 8;

/// The read query the mutation leg replays against the churning scratch
/// table. Its predicate excludes every scratch row (those use
/// department `Stress`), so the answer must stay byte-identical to the
/// pristine serial run *while* inserts and deletes land around it.
const AUDIT_READ: &str = "VALIDTIME SELECT EmpName FROM AUDIT WHERE Dept = 'Sales'";

/// Full-table scan used for the quiesced end-state check.
const AUDIT_ALL: &str = "VALIDTIME SELECT EmpName, Dept FROM AUDIT ORDER BY EmpName, Dept";

/// The paper catalog plus a scratch `AUDIT` copy of EMPLOYEE that the
/// mutation threads are allowed to churn.
fn serving_catalog() -> Catalog {
    let catalog = paper::catalog();
    catalog
        .register("AUDIT", paper::employee())
        .expect("register AUDIT scratch table");
    catalog
}

/// Serial single-query runs of `queries` on `catalog` — the oracle every
/// concurrent response is compared against, computed through the exact
/// pipeline the server uses (compile, optimize and lower with the same
/// rules and `PlannerConfig`, execute). Each is also the interpreter's
/// answer under the statement's result type.
fn serial_oracle(catalog: &Catalog, queries: &[&str]) -> Vec<Relation> {
    let env = catalog.env();
    let rules = RuleSet::standard();
    queries
        .iter()
        .map(|sql| {
            let plan = tqo_sql::compile(sql, catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let (physical, _) = optimize_and_lower(&plan, &rules, PlannerConfig::default())
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let rows = execute_mode(&physical, &env, ExecMode::default())
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .0;
            common::assert_answers(catalog, sql, &rows);
            rows
        })
        .collect()
}

/// Issue `sql` treating admission rejection as back-pressure: retry
/// until the scheduler admits it (the protocol's documented contract).
fn query_admitted(client: &mut Client, sql: &str, opts: QueryOpts) -> Result<Relation, Error> {
    loop {
        match client.query_with(sql, opts.clone()) {
            Err(Error::AdmissionRejected { .. }) => continue,
            other => return other,
        }
    }
}

fn start(config: ServerConfig) -> Server {
    serve(serving_catalog(), config).expect("start serving front-end")
}

/// Tentpole oracle: 8 clients replay the whole SQL pool twice, with
/// sequenced mutations churning `AUDIT` in the
/// background, and **every** response must be byte-identical to its
/// serial single-query run. After the load drains, the scratch table
/// must be byte-identically back to its initial state (every insert was
/// paired with a delete).
#[test]
fn concurrent_pool_is_byte_identical_to_serial() {
    let pristine = serving_catalog();
    let oracle = serial_oracle(&pristine, common::SQL_POOL);
    let audit_oracle = serial_oracle(&pristine, &[AUDIT_READ, AUDIT_ALL]);

    let server = start(ServerConfig {
        scheduler: SchedulerConfig {
            workers: 2,
            max_queries: 64,
        },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let oracle = Arc::new(oracle);
    let audit_reads = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let oracle = Arc::clone(&oracle);
            let audit_oracle = audit_oracle[0].clone();
            let audit_reads = Arc::clone(&audit_reads);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let who = format!("stress{t}");
                for _round in 0..2 {
                    for (i, sql) in common::SQL_POOL.iter().enumerate() {
                        // Sprinkle sequenced mutation pairs between the
                        // reads: thread-unique rows, inserted and then
                        // deleted, with an oracle read of the churning
                        // table in between.
                        if i % 6 == t % 6 {
                            client
                                .insert(
                                    "AUDIT",
                                    vec![Value::from(who.as_str()), Value::from("Stress")],
                                    Period::of(1, 9),
                                )
                                .expect("insert scratch row");
                            let rel = query_admitted(&mut client, AUDIT_READ, QueryOpts::default())
                                .expect("audit read under churn");
                            assert_eq!(
                                rel, audit_oracle,
                                "thread {t}: audit read drifted under concurrent mutation"
                            );
                            audit_reads.fetch_add(1, Ordering::Relaxed);
                            client
                                .delete(
                                    "AUDIT",
                                    "EmpName",
                                    Value::from(who.as_str()),
                                    Period::of(1, 9),
                                )
                                .expect("delete scratch row");
                        }
                        let rel = query_admitted(&mut client, sql, QueryOpts::default())
                            .unwrap_or_else(|e| panic!("thread {t}: {sql}: {e}"));
                        assert_eq!(rel, oracle[i], "thread {t}: {sql} diverged from serial run");
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().expect("client thread");
    }
    assert!(
        audit_reads.load(Ordering::Relaxed) > 0,
        "mutation leg never exercised the churning table"
    );

    // Quiesced: every insert was paired with a delete, so the scratch
    // table must read back byte-identically to its pristine state.
    let mut client = Client::connect(addr).expect("connect for quiesce check");
    let rel = client.query(AUDIT_ALL).expect("quiesced audit scan");
    assert_eq!(
        rel, audit_oracle[1],
        "AUDIT did not return to initial state"
    );
    drop(server);
}

/// No cross-query bleed: each client hammers a *different* query with a
/// thread-specific predicate, all in flight simultaneously through one
/// shared scheduler. Any leakage of another query's stage results (the
/// per-query binding namespace failing) shows up as a wrong answer.
#[test]
fn concurrent_distinct_queries_do_not_bleed() {
    let queries: Vec<String> = (0..CLIENTS)
        .map(|t| match t % 4 {
            0 => "SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Sales'".into(),
            1 => "SELECT EmpName FROM PROJECT WHERE Prj = 'P1'".into(),
            2 => "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'Advertising'".into(),
            _ => "VALIDTIME SELECT DISTINCT EmpName FROM PROJECT WHERE Prj = 'P2'".into(),
        })
        .collect();
    let pristine = serving_catalog();
    let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
    let oracle = serial_oracle(&pristine, &refs);

    let server = start(ServerConfig {
        scheduler: SchedulerConfig {
            workers: 2,
            max_queries: 64,
        },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let queries = Arc::new(queries);
    let oracle = Arc::new(oracle);

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let queries = Arc::clone(&queries);
            let oracle = Arc::clone(&oracle);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..40 {
                    let rel = query_admitted(&mut client, &queries[t], QueryOpts::default())
                        .expect("bleed-leg query");
                    assert_eq!(
                        rel, oracle[t],
                        "thread {t}: answer bled across concurrent queries"
                    );
                }
            })
        })
        .collect();
    for h in threads {
        h.join().expect("client thread");
    }
}

/// Chaos leg: seeded wire faults (injected errors + payload truncation)
/// plus deterministic mid-query cancellations, all under 8-client load.
/// Every outcome must be either a byte-identical result or a *typed*
/// error — never a wrong answer, never a desynchronized connection —
/// and afterwards the same pool must be fully reusable.
#[test]
fn pool_survives_faults_and_cancellations_mid_load() {
    let pristine = serving_catalog();
    let oracle = Arc::new(serial_oracle(&pristine, common::SQL_POOL));

    let server = start(ServerConfig {
        scheduler: SchedulerConfig {
            workers: 2,
            max_queries: 64,
        },
        faults: Some(FaultConfig::with_seed(0xC0FFEE)),
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let cancelled = Arc::new(AtomicU64::new(0));
    let faulted = Arc::new(AtomicU64::new(0));
    let clean = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let oracle = Arc::clone(&oracle);
            let cancelled = Arc::clone(&cancelled);
            let faulted = Arc::clone(&faulted);
            let clean = Arc::clone(&clean);
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..2 {
                    for (i, sql) in common::SQL_POOL.iter().enumerate() {
                        // Every third request asks the governance layer
                        // to cancel deterministically at the first
                        // checkpoint; the rest run clean (modulo the
                        // server's seeded faults).
                        let opts = QueryOpts {
                            cancel_polls: u64::from((i + round + t) % 3 == 0),
                            ..QueryOpts::default()
                        };
                        match client.query_with(sql, opts) {
                            Ok(rel) => {
                                // A fault can truncate but never corrupt:
                                // any response that decodes is the exact
                                // serial answer.
                                assert_eq!(
                                    rel, oracle[i],
                                    "thread {t}: {sql} diverged under fault load"
                                );
                                clean.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(Error::Cancelled) => {
                                cancelled.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(Error::AdmissionRejected { .. }) => {}
                            Err(Error::Storage { reason }) => {
                                // Injected serve fault or truncated
                                // payload — both decode to typed storage
                                // errors without desynchronizing the
                                // session (the next request still works).
                                assert!(
                                    reason.contains("injected")
                                        || reason.contains("truncated")
                                        || reason.contains("wire"),
                                    "thread {t}: unexpected storage error: {reason}"
                                );
                                faulted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("thread {t}: {sql}: untyped failure {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for h in threads {
        h.join().expect("client thread");
    }
    assert!(
        cancelled.load(Ordering::Relaxed) > 0,
        "chaos leg never observed a cancellation"
    );
    assert!(
        faulted.load(Ordering::Relaxed) > 0,
        "chaos leg never observed an injected fault"
    );
    assert!(
        clean.load(Ordering::Relaxed) > 0,
        "chaos leg never observed a clean response"
    );

    // Reusable: after the chaos drains, every pool query must still
    // come back byte-identical on a fresh connection (retrying through
    // the still-active fault injector).
    let mut client = Client::connect(addr).expect("reconnect after chaos");
    for (i, sql) in common::SQL_POOL.iter().enumerate() {
        let mut attempts = 0;
        let rel = loop {
            attempts += 1;
            assert!(attempts <= 200, "{sql}: no clean response in 200 attempts");
            match client.query(sql) {
                Ok(rel) => break rel,
                Err(Error::Storage { .. }) | Err(Error::AdmissionRejected { .. }) => continue,
                Err(e) => panic!("{sql}: unexpected post-chaos error {e}"),
            }
        };
        assert_eq!(rel, oracle[i], "{sql}: pool not reusable after chaos");
    }
}

/// A 4-byte header announcing a 4 GiB request is refused with a typed
/// failure before the server reads or allocates the payload, the session
/// closes, and the next connection is served as usual.
#[test]
fn an_oversized_request_frame_is_refused_and_the_server_keeps_serving() {
    use std::io::{Read, Write};
    use std::time::Duration;
    use tqo_serve::{protocol, Response};

    let server = start(ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    raw.write_all(&u32::MAX.to_be_bytes()).expect("send header");
    let mut header = [0u8; 4];
    raw.read_exact(&mut header)
        .expect("the server answers an oversized frame instead of waiting for it");
    let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
    raw.read_exact(&mut payload).expect("response payload");
    match protocol::decode_response(payload.into()).expect("a well-formed response") {
        Response::Fail(Error::Storage { reason }) => {
            assert!(reason.contains("exceeds"), "{reason}")
        }
        other => panic!("expected a typed failure, got {other:?}"),
    }
    // The session is over: the server closed its end.
    assert_eq!(raw.read(&mut header).expect("clean close"), 0);

    let mut client = Client::connect(server.addr()).expect("next connection");
    client.ping().expect("ping after the refused frame");
    let catalog = serving_catalog();
    let oracle = serial_oracle(&catalog, &[AUDIT_ALL]);
    assert_eq!(client.query(AUDIT_ALL).expect("query"), oracle[0]);
}

/// The wire's engine tags 1 (`Row`) and 2 (`Parallel`) are aliases of the
/// batch engine: a `Query` frame carrying either is answered with a
/// response frame byte-identical to tag 0's, for every query of the pool.
#[test]
fn row_and_parallel_wire_tags_answer_byte_identically_to_batch() {
    use std::io::Read;
    use std::net::TcpStream;
    use tqo_serve::protocol::{encode_request, write_frame, Request};

    let server = start(ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    // As `Client::connect` does: a frame is two writes, so without this
    // every request waits out a delayed ACK.
    raw.set_nodelay(true).expect("nodelay");
    let mut answer = |sql: &str, mode: ExecMode| {
        let request = Request::Query {
            sql: sql.to_owned(),
            mode,
            timeout_ms: 0,
            memory_limit: 0,
            cancel_polls: 0,
        };
        let frame = encode_request(&request);
        // Request tag, then the SQL as a length-prefixed string, then the
        // engine tag.
        let engine_tag = frame[1 + 4 + sql.len()];
        write_frame(&mut raw, &frame).expect("send request");
        let mut header = [0u8; 4];
        raw.read_exact(&mut header).expect("response header");
        let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
        raw.read_exact(&mut payload).expect("response payload");
        (engine_tag, payload)
    };
    for sql in common::SQL_POOL {
        let (tag, batch) = answer(sql, ExecMode::Batch);
        assert_eq!(tag, 0);
        assert_eq!(batch.first(), Some(&1), "{sql}: expected a rows response");
        for (mode, expected_tag) in [(ExecMode::Row, 1), (ExecMode::Parallel { threads: 4 }, 2)] {
            let (tag, payload) = answer(sql, mode);
            assert_eq!(
                tag, expected_tag,
                "{mode:?} travels as wire tag {expected_tag}"
            );
            assert_eq!(
                payload, batch,
                "{sql}: {mode:?} answered differently from batch"
            );
        }
    }
}
