//! Resource-governance and fault-tolerance invariants
//! (`docs/robustness.md`, ARCHITECTURE invariant 14):
//!
//! * **Governance never changes results, only whether they arrive** — a
//!   query under a cancellation token, deadline, or memory budget either
//!   returns the byte-identical clean result or a typed error
//!   (`Cancelled`, `DeadlineExceeded`, `MemoryBudget`), never a panic and
//!   never a third outcome.
//! * Cancellation at **every checkpoint class** (batch `next_batch`, the
//!   product kernels' per-left-row polls, the class-run kernels' per-run
//!   polls, scheduler task boundaries, memo task pops, stratum fragment
//!   dispatch) leaves the engine, catalog, and worker
//!   pool reusable: the next query on the same objects succeeds
//!   byte-identically to a fresh run.
//! * **Fault-injected wire runs are byte-identical to clean runs** once
//!   retries succeed, across seeds; a declared DBMS outage degrades to
//!   local fragment execution with the same bytes.
//! * Memo search under a task/time budget truncates gracefully
//!   (`truncated` set, best-effort plan returned), while cancellation is
//!   a hard typed error.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use tqo_core::context::{self, QueryContext};
use tqo_core::error::Error;
use tqo_core::expr::Expr;
use tqo_core::interp::Env;
use tqo_core::plan::{BaseProps, PlanBuilder};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::{
    execute_logical, execute_mode, lower, ExecMode, PhysicalPlan, PlannerConfig, Scheduler,
    SchedulerConfig, SubmitOptions,
};
use tqo_storage::paper;
use tqo_stratum::{FaultConfig, RetryPolicy, Stratum};

/// The system allocator, noting per thread the largest single request —
/// how the product legs below tell "denied before allocating" from
/// "denied after".
struct NotingLargest;

thread_local! {
    static LARGEST_REQUEST: Cell<usize> = const { Cell::new(0) };
}

fn note_request(bytes: usize) {
    // A thread being torn down has no cell left to note in.
    let _ = LARGEST_REQUEST.try_with(|cell| cell.set(cell.get().max(bytes)));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; noting the size touches only a `Cell<usize>`
// thread-local that has no destructor and allocates nothing.
unsafe impl GlobalAlloc for NotingLargest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_request(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_request(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: NotingLargest = NotingLargest;

/// The largest single allocation this thread requests while `f` runs.
fn largest_request_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST_REQUEST.with(|cell| cell.set(0));
    let out = f();
    (out, LARGEST_REQUEST.with(Cell::get))
}

/// Queries covering every checkpoint class: scans, the join's product
/// kernel, blocking operators (sort/distinct/aggregate), temporal
/// set operations, and multi-fragment stratum plans.
const QUERIES: &[&str] = &[
    "SELECT EmpName FROM EMPLOYEE",
    "SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName",
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
    "VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
     EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
     COALESCE ORDER BY EmpName",
];

/// Is this error one of the typed governance outcomes?
fn is_governance_error(e: &Error) -> bool {
    matches!(
        e,
        Error::Cancelled | Error::DeadlineExceeded { .. } | Error::MemoryBudget { .. }
    )
}

/// Poll budgets for the cancellation sweeps; the `FAULTS=1` CI leg
/// densifies the sweep so consecutive checkpoints are hit, not sampled.
fn poll_sweep() -> Vec<u64> {
    if common::faults_widened() {
        (1..=64).chain([96, 128, 257, 1025, 4097]).collect()
    } else {
        vec![1, 2, 3, 5, 9, 17, 65, 257, 4097]
    }
}

/// Fault seeds for the wire byte-identity sweeps; widened under
/// `FAULTS=1`.
fn fault_seeds() -> Vec<u64> {
    if common::faults_widened() {
        (0..24).chain([42, 0xDEAD, 0xBEEF, u64::MAX]).collect()
    } else {
        vec![1, 7, 42, 0xDEAD]
    }
}

/// Cancellation swept across poll counts: each run either completes
/// byte-identically to the clean run — the interpreter's relation — or
/// fails with `Error::Cancelled`; small poll budgets must actually cancel,
/// and the environment stays reusable afterwards (same env, clean re-run,
/// same bytes).
#[test]
fn cancellation_sweep_is_binary_and_leaves_engines_reusable() {
    let catalog = paper::catalog();
    let env = catalog.env();
    for sql in QUERIES {
        let plan = tqo_sql::compile(sql, &catalog).unwrap();
        let (clean, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
        assert_eq!(clean, tqo_core::interp::eval_plan(&plan, &env).unwrap());
        let mut cancelled_at_least_once = false;
        for polls in poll_sweep() {
            let ctx = QueryContext::new().with_cancel_after(polls);
            let result = {
                let _guard = context::install(&ctx);
                execute_logical(&plan, &env, PlannerConfig::default())
            };
            match result {
                Ok((got, _)) => assert_eq!(
                    got, clean,
                    "cancellation perturbed a completed run (polls={polls}) on {sql}"
                ),
                Err(Error::Cancelled) => cancelled_at_least_once = true,
                Err(other) => panic!("non-typed failure (polls={polls}) on {sql}: {other:?}"),
            }
        }
        assert!(
            cancelled_at_least_once,
            "no poll budget cancelled on {sql} — checkpoints missing"
        );
        // Reusability: the same env answers the same query again,
        // byte-identically, with no context installed.
        let (after, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
        assert_eq!(after, clean, "engine not reusable after cancel on {sql}");
    }
}

/// An already-expired deadline fails the engine with `DeadlineExceeded`
/// carrying the configured limit — and the engine answers the next query
/// untouched. (The scheduler's leg is `scheduler_stages_are_governed`.)
#[test]
fn expired_deadline_fires_on_every_engine() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let sql = "VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p \
               WHERE e.EmpName = p.EmpName";
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    let (clean, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
    let ctx = QueryContext::new().with_timeout(Duration::ZERO);
    let err = {
        let _guard = context::install(&ctx);
        execute_logical(&plan, &env, PlannerConfig::default()).unwrap_err()
    };
    assert_eq!(err, Error::DeadlineExceeded { limit_ms: 0 });
    let (after, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
    assert_eq!(after, clean, "engine not reusable after deadline");
}

/// Staged execution is governed at the scheduler's task boundaries and
/// inside each stage: with the context in `SubmitOptions.ctx`, an expired
/// deadline fails the query typed, cancellation sweeps stay binary, and
/// the scheduler stays reusable.
#[test]
fn scheduler_stages_are_governed() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
               EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
               COALESCE ORDER BY EmpName";
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    let physical = lower(&plan, PlannerConfig::default()).unwrap();
    let scheduler = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..SchedulerConfig::default()
    });
    let run = |ctx: QueryContext| {
        let opts = SubmitOptions {
            ctx,
            ..SubmitOptions::default()
        };
        scheduler.run(&physical, &env, opts)
    };
    let (clean, _) = run(QueryContext::new()).unwrap();
    assert_eq!(clean, tqo_core::interp::eval_plan(&plan, &env).unwrap());

    let err = run(QueryContext::new().with_timeout(Duration::ZERO)).unwrap_err();
    assert_eq!(err, Error::DeadlineExceeded { limit_ms: 0 });

    let mut cancelled = false;
    for polls in [1u64, 4, 16, 64, 512] {
        match run(QueryContext::new().with_cancel_after(polls)) {
            Ok((got, _)) => assert_eq!(got, clean, "cancel perturbed the stages (polls={polls})"),
            Err(Error::Cancelled) => cancelled = true,
            Err(other) => panic!("non-typed scheduler failure (polls={polls}): {other:?}"),
        }
    }
    assert!(cancelled, "the scheduler never observed the token");
    let (after, _) = run(QueryContext::new()).unwrap();
    assert_eq!(after, clean, "scheduler not reusable");
    assert_eq!(scheduler.resident(), 0, "an admission slot leaked");
}

/// A starved memory budget denies with the typed `MemoryBudget` error —
/// requested/used/limit populated — and leaves no partial state: the
/// catalog's tables are unchanged and the next unbudgeted query returns
/// clean bytes. A generous budget changes nothing.
#[test]
fn memory_budget_denies_gracefully_and_leaves_no_partial_state() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
               EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
               COALESCE ORDER BY EmpName";
    let plan = tqo_sql::compile(sql, &catalog).unwrap();
    let before_emp = catalog.get("EMPLOYEE").unwrap().relation().clone();
    let (clean, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();

    let starved = QueryContext::new().with_memory_limit(1);
    let err = {
        let _guard = context::install(&starved);
        execute_logical(&plan, &env, PlannerConfig::default()).unwrap_err()
    };
    match err {
        Error::MemoryBudget {
            requested,
            used,
            limit,
        } => {
            assert_eq!(limit, 1);
            assert!(requested > 0);
            assert!(used <= limit);
        }
        other => panic!("expected MemoryBudget, got {other:?}"),
    }
    assert!(starved.budget().denials() >= 1);

    // A budget that fits the query must not perturb it.
    let roomy = QueryContext::new().with_memory_limit(64 << 20);
    let (got, _) = {
        let _guard = context::install(&roomy);
        execute_logical(&plan, &env, PlannerConfig::default()).unwrap()
    };
    assert_eq!(got, clean, "budget accounting perturbed results");
    assert!(roomy.budget().peak() > 0, "nothing was charged");

    // No partial mutations anywhere the next query can observe.
    let (after, _) = execute_logical(&plan, &env, PlannerConfig::default()).unwrap();
    assert_eq!(after, clean);
    assert_eq!(
        catalog.get("EMPLOYEE").unwrap().relation(),
        &before_emp,
        "budget denial mutated the catalog"
    );
}

/// `rows` temporal rows `(K: Int, T1, T2)`, keys cycling through `keys`
/// values, every period `[0, 10)` so that all pairs of a `×ᵀ` overlap.
fn keyed_rows(rows: usize, keys: i64) -> Relation {
    let tuples = (0..rows as i64)
        .map(|i| Tuple::new(vec![Value::Int(i % keys), Value::Time(0), Value::Time(10)]))
        .collect();
    Relation::new(Schema::temporal(&[("K", DataType::Int)]), tuples).unwrap()
}

/// `L × R`, or `L ×ᵀ R` when `temporal`, over [`keyed_rows`] tables,
/// lowered; with `by_key`, under the `σ` on `1.K = 2.K` that lowering
/// runs the product below as a hash join for.
fn product_plan(temporal: bool, by_key: bool) -> PhysicalPlan {
    let scan = |name: &str| {
        let schema = Schema::temporal(&[("K", DataType::Int)]);
        PlanBuilder::scan(name, BaseProps::unordered(schema, 1000))
    };
    let mut plan = if temporal {
        scan("L").product_t(scan("R"))
    } else {
        scan("L").product(scan("R"))
    };
    if by_key {
        plan = plan.select(Expr::eq(Expr::col("1.K"), Expr::col("2.K")));
    }
    lower(&plan.build_multiset(), PlannerConfig::default()).unwrap()
}

/// `×` knows its output size before it runs, so a budget that cannot hold
/// the output denies it *before* anything of that size exists: a typed
/// `MemoryBudget`, and no single allocation anywhere near
/// `n·m` bytes, whether the budget is a byte or just too small for the
/// output.
#[test]
fn a_product_is_denied_before_it_allocates() {
    let (n, m) = (2000usize, 2000usize);
    let env = Env::new()
        .with("L", keyed_rows(n, 7))
        .with("R", keyed_rows(m, 7));
    let plan = product_plan(false, false);
    // Build the resident transposes first: they are not the product's.
    for name in ["L", "R"] {
        env.get(name).unwrap().columnar().unwrap();
    }
    let inputs: usize = ["L", "R"]
        .iter()
        .map(|name| env.get(name).unwrap().approx_bytes())
        .sum();
    for limit in [1, 4 * inputs] {
        let ctx = QueryContext::new().with_memory_limit(limit);
        let (result, largest) = largest_request_during(|| {
            let _guard = context::install(&ctx);
            execute_mode(&plan, &env, ExecMode::Batch)
        });
        assert!(
            matches!(result, Err(Error::MemoryBudget { .. })),
            "expected MemoryBudget (limit {limit}), got {:?}",
            result.map(|(r, _)| r.len())
        );
        assert!(
            largest < n * m,
            "{largest} bytes requested at once under a denied {n}x{m} product (limit {limit})"
        );
    }
    // The engine answers the same product afterwards: the interpreter's.
    let small = Env::new()
        .with("L", keyed_rows(30, 7))
        .with("R", keyed_rows(20, 7));
    let clean = tqo_core::ops::product(small.get("L").unwrap(), small.get("R").unwrap()).unwrap();
    assert_eq!(clean.len(), 600);
    assert_eq!(
        execute_mode(&plan, &small, ExecMode::Batch).unwrap().0,
        clean
    );
}

/// The batch product kernels poll governance once per left row: a token
/// sees at least that many polls, and one that trips halfway through the
/// left input cancels the product *mid-operator* — after which the engine
/// still answers.
#[test]
fn batch_products_poll_per_left_row_and_cancel_mid_operator() {
    let (n, m) = (400usize, 60usize);
    let env = Env::new()
        .with("L", keyed_rows(n, 7))
        .with("R", keyed_rows(m, 7));
    for plan in [
        product_plan(false, false),
        product_plan(false, true),
        product_plan(true, false),
        product_plan(true, true),
    ] {
        let label = plan.explain();
        let (clean, _) = execute_mode(&plan, &env, ExecMode::Batch).unwrap();

        let watched = QueryContext::new();
        let (got, _) = {
            let _guard = context::install(&watched);
            execute_mode(&plan, &env, ExecMode::Batch).unwrap()
        };
        assert_eq!(got, clean, "governance perturbed {label}");
        let polls = watched.token().polls();
        assert!(
            polls >= n as u64,
            "{label}: {polls} polls over {n} left rows"
        );

        let tripping = QueryContext::new().with_cancel_after(polls - n as u64 / 2);
        let err = {
            let _guard = context::install(&tripping);
            execute_mode(&plan, &env, ExecMode::Batch).unwrap_err()
        };
        assert_eq!(err, Error::Cancelled, "{label}");

        let (after, _) = execute_mode(&plan, &env, ExecMode::Batch).unwrap();
        assert_eq!(after, clean, "{label} not reusable after cancel");
    }
}

/// `R(E, T1, T2)` with `rows` rows over `classes` value classes, each
/// class's periods overlapping their neighbours'.
fn overlapping_classes(rows: i64, classes: i64) -> Relation {
    Relation::new(
        Schema::temporal(&[("E", DataType::Str)]),
        (0..rows)
            .map(|i| {
                let start = (i / classes) * 3;
                Tuple::new(vec![
                    Value::from(format!("e{}", i % classes).as_str()),
                    Value::Time(start),
                    Value::Time(start + 5),
                ])
            })
            .collect(),
    )
    .unwrap()
}

/// The class-run temporal kernels poll governance once per class run: on
/// a 50k-row, 5k-class input each polls at least 5k times, so a token
/// that trips on its 100th poll, or halfway through the classes, cancels
/// the query — and the next run on the same scheduler is the
/// interpreter's list.
#[test]
fn temporal_kernels_poll_per_class_run_and_cancel_mid_operator() {
    let env = Env::new()
        .with("R", overlapping_classes(50_000, 5_000))
        .with("S", overlapping_classes(5_000, 500));
    let scan =
        |name: &str| PlanBuilder::scan(name, BaseProps::measured(env.get(name).unwrap()).unwrap());
    let scheduler = Scheduler::new(SchedulerConfig {
        workers: 2,
        ..SchedulerConfig::default()
    });
    for (label, plan) in [
        ("rdupᵀ", scan("R").rdup_t()),
        ("coalᵀ", scan("R").coalesce()),
        ("\\ᵀ", scan("R").difference_t(scan("S"))),
        ("∪ᵀ", scan("S").union_t(scan("R"))),
        ("∪", scan("S").union_max(scan("R"))),
    ] {
        let plan = plan.build_multiset();
        let physical = lower(&plan, PlannerConfig::default()).unwrap();
        let run = |ctx: QueryContext| {
            let opts = SubmitOptions {
                ctx,
                ..SubmitOptions::default()
            };
            scheduler.run(&physical, &env, opts)
        };
        let watched = QueryContext::new();
        run(watched.clone()).unwrap();
        let polls = watched.token().polls();
        assert!(polls >= 5_000, "{label}: {polls} polls over 5k classes");

        // Early, and past the scans' own polls: only the kernel polls there.
        for trip in [100, polls - 2_500] {
            let err = run(QueryContext::new().with_cancel_after(trip)).unwrap_err();
            assert_eq!(err, Error::Cancelled, "{label} tripping at poll {trip}");
        }
        let (after, _) = run(QueryContext::new()).unwrap();
        assert_eq!(
            after,
            tqo_core::interp::eval_plan(&plan, &env).unwrap(),
            "{label} after a cancel"
        );
        assert_eq!(scheduler.resident(), 0, "{label}: an admission slot leaked");
    }
}

/// Memo search under a task or time budget stops gracefully: best-effort
/// plan, `truncated` flag set, no error. Cancellation during memo search
/// is the hard typed error instead.
#[test]
fn memo_budgets_truncate_gracefully_but_cancellation_is_hard() {
    use tqo_core::cost::CostModel;
    use tqo_core::memo::{memo_search, MemoConfig};
    use tqo_core::rules::RuleSet;

    let catalog = paper::catalog();
    let plan = tqo_sql::compile(
        "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
         EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
         COALESCE ORDER BY EmpName",
        &catalog,
    )
    .unwrap();
    let rules = RuleSet::standard();
    let model = CostModel::default();

    let full = memo_search(&plan, &rules, &model, MemoConfig::default()).unwrap();
    assert!(!full.stats.truncated, "default budgets should converge");

    // Task budget: stops after one task, still returns a plan no worse
    // than the input.
    let starved = memo_search(
        &plan,
        &rules,
        &model,
        MemoConfig {
            max_tasks: 1,
            ..MemoConfig::default()
        },
    )
    .unwrap();
    assert!(starved.stats.truncated, "task budget did not truncate");
    assert!(starved.stats.tasks <= 1);
    assert!(starved.cost <= model.cost(&plan).unwrap());

    // Time budget of zero: immediate graceful truncation.
    let timed = memo_search(
        &plan,
        &rules,
        &model,
        MemoConfig {
            time_budget_ms: Some(0),
            ..MemoConfig::default()
        },
    )
    .unwrap();
    assert!(timed.stats.truncated, "time budget did not truncate");

    // Cancellation mid-search is not best-effort: it is the typed error.
    let ctx = QueryContext::new().with_cancel_after(1);
    let err = {
        let _guard = context::install(&ctx);
        memo_search(&plan, &rules, &model, MemoConfig::default()).unwrap_err()
    };
    assert_eq!(err, Error::Cancelled);
}

/// The full SQL pool through a fault-injected wire, across seeds: with
/// enough retry budget every query eventually succeeds, and its bytes are
/// identical to the fault-free stratum's. Faults and retries are recorded
/// in the metrics.
#[test]
fn fault_injected_runs_are_byte_identical_to_clean_runs() {
    let clean = Stratum::new(paper::catalog());
    let mut total_faults = 0usize;
    for seed in fault_seeds() {
        let faulty = Stratum::new(paper::catalog())
            .with_faults(FaultConfig::with_seed(seed))
            .with_retry(RetryPolicy {
                max_retries: 40,
                base_backoff: Duration::ZERO,
                fragment_timeout: None,
                fallback_local: false,
            });
        for sql in QUERIES {
            let (want, wm) = clean.run_sql(sql).unwrap();
            let (got, gm) = faulty
                .run_sql(sql)
                .unwrap_or_else(|e| panic!("seed {seed} exhausted retries on {sql}: {e:?}"));
            assert_eq!(got, want, "faulty wire diverged (seed {seed}) on {sql}");
            assert_eq!(gm.fragments, wm.fragments);
            assert_eq!(gm.transferred_rows, wm.transferred_rows);
            assert_eq!(gm.transfer_bytes, wm.transfer_bytes);
            assert_eq!(gm.retries >= 1, gm.faults_injected >= 1);
            total_faults += gm.faults_injected;
        }
    }
    assert!(
        total_faults > 0,
        "fault rates of 30%/20% injected nothing across all seeds — injector dead"
    );
}

/// The same seed replays the same faults: run-to-run metrics (retries,
/// injected faults) and results are identical.
#[test]
fn fault_injection_is_deterministic_per_seed() {
    let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
               EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
               COALESCE ORDER BY EmpName";
    let run = || {
        let s = Stratum::new(paper::catalog())
            .with_faults(FaultConfig::with_seed(99))
            .with_retry(RetryPolicy {
                max_retries: 40,
                base_backoff: Duration::ZERO,
                fragment_timeout: None,
                fallback_local: false,
            });
        let (r, m) = s.run_sql(sql).unwrap();
        (r, m.retries, m.faults_injected)
    };
    let (r1, retries1, faults1) = run();
    let (r2, retries2, faults2) = run();
    assert_eq!(r1, r2);
    assert_eq!(retries1, retries2, "retry count not deterministic");
    assert_eq!(faults1, faults2, "fault count not deterministic");
}

/// A declared DBMS outage degrades gracefully: every pooled query is
/// answered by local fragment execution, byte-identical to the healthy
/// stratum, with the fallback recorded. With fallback disabled the typed
/// `DbmsUnavailable` error surfaces instead — and the same stratum
/// recovers when the DBMS comes back.
#[test]
fn dbms_outage_degrades_to_local_execution() {
    let healthy = Stratum::new(paper::catalog());
    let down = Stratum::new(paper::catalog())
        .with_faults(FaultConfig::down())
        .with_retry(RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::ZERO,
            fragment_timeout: None,
            fallback_local: true,
        });
    for sql in QUERIES {
        let (want, wm) = healthy.run_sql(sql).unwrap();
        let (got, gm) = down.run_sql(sql).unwrap();
        assert_eq!(got, want, "local fallback diverged on {sql}");
        assert_eq!(gm.fallbacks, gm.fragments, "every fragment fell back");
        assert_eq!(gm.fragments, wm.fragments);
        assert_eq!(
            gm.transfer_bytes, wm.transfer_bytes,
            "fallback skipped the wire"
        );
    }

    // Fallback disabled: the typed error, carrying the attempt count.
    let strict = Stratum::new(paper::catalog())
        .with_faults(FaultConfig::down())
        .with_retry(RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::ZERO,
            fragment_timeout: None,
            fallback_local: false,
        });
    match strict.run_sql(QUERIES[0]).unwrap_err() {
        Error::DbmsUnavailable { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected DbmsUnavailable, got {other:?}"),
    }
}

/// Governance through the layered engine: cancellation and deadlines on a
/// `Stratum` surface typed errors and leave the same stratum (and its
/// catalog) answering byte-identically afterwards.
#[test]
fn stratum_cancellation_leaves_catalog_and_engine_reusable() {
    let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
               EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
               COALESCE ORDER BY EmpName";
    let stratum = Stratum::new(paper::catalog());
    let (clean, _) = stratum.run_sql(sql).unwrap();

    let ctx = QueryContext::new().with_cancel_after(1);
    let err = {
        let _guard = context::install(&ctx);
        stratum.run_sql(sql).unwrap_err()
    };
    assert_eq!(err, Error::Cancelled);

    let ctx = QueryContext::new().with_timeout(Duration::ZERO);
    let err = {
        let _guard = context::install(&ctx);
        stratum.run_sql(sql).unwrap_err()
    };
    assert_eq!(err, Error::DeadlineExceeded { limit_ms: 0 });

    let fresh = Stratum::new(paper::catalog());
    let (again, _) = stratum.run_sql(sql).unwrap();
    let (fresh_result, _) = fresh.run_sql(sql).unwrap();
    assert_eq!(again, clean, "stratum not reusable after governance");
    assert_eq!(again, fresh_result, "reused stratum diverges from fresh");
}

/// Wire decode is budget-accounted: a stratum query under a starved
/// budget denies at (or before) the wire with the typed error, and the
/// governance counters move.
#[test]
fn stratum_wire_decode_respects_memory_budget() {
    let stratum = Stratum::new(paper::catalog());
    let sql = "VALIDTIME SELECT EmpName FROM EMPLOYEE";
    let ctx = QueryContext::new().with_memory_limit(1);
    let err = {
        let _guard = context::install(&ctx);
        stratum.run_sql(sql).unwrap_err()
    };
    assert!(
        matches!(err, Error::MemoryBudget { .. }),
        "expected MemoryBudget, got {err:?}"
    );
    let (after, _) = stratum.run_sql(sql).unwrap();
    assert!(
        !after.is_empty(),
        "stratum not reusable after budget denial"
    );
}

/// Every governance outcome is typed — sweep all three governors on one
/// query, run whole and staged, and assert no other error shape ever
/// surfaces.
#[test]
fn governance_outcomes_are_always_typed() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let plan = tqo_sql::compile(QUERIES[3], &catalog).unwrap();
    let contexts: Vec<QueryContext> = vec![
        QueryContext::new().with_cancel_after(2),
        QueryContext::new().with_timeout(Duration::ZERO),
        QueryContext::new().with_memory_limit(16),
        QueryContext::new()
            .with_cancel_after(5)
            .with_timeout(Duration::from_secs(3600))
            .with_memory_limit(1 << 30),
    ];
    let physical = lower(&plan, PlannerConfig::default()).unwrap();
    for ctx in &contexts {
        let whole = {
            let _guard = context::install(ctx);
            execute_mode(&physical, &env, ExecMode::Batch)
        };
        let staged = Scheduler::global().run(
            &physical,
            &env,
            SubmitOptions {
                ctx: ctx.clone(),
                ..SubmitOptions::default()
            },
        );
        for (leg, result) in [("whole", whole), ("staged", staged)] {
            if let Err(e) = result {
                assert!(
                    is_governance_error(&e),
                    "untyped governance failure ({leg}): {e:?}"
                );
            }
        }
    }
}

/// Serving leg (ARCHITECTURE invariant 16): governance trips (deadline,
/// memory budget, deterministic cancellation) and seeded wire faults
/// through the TCP front-end, under 4-client concurrent load, only ever
/// produce the byte-identical clean answer or a typed error — and the
/// serving pool stays fully reusable afterwards. Swept across fault
/// seeds; `FAULTS=1` widens the sweep.
#[test]
fn serving_governance_and_faults_stay_typed_under_load() {
    use std::sync::Arc;
    use tqo_exec::SchedulerConfig;
    use tqo_serve::{serve, Client, QueryOpts, ServerConfig};

    // Serial oracle through the exact pipeline the server runs.
    let catalog = paper::catalog();
    let env = catalog.env();
    let oracle: Arc<Vec<_>> = Arc::new(
        QUERIES
            .iter()
            .map(|sql| {
                let plan = tqo_sql::compile(sql, &catalog).unwrap();
                execute_logical(&plan, &env, PlannerConfig::default())
                    .unwrap()
                    .0
            })
            .collect(),
    );

    // Per-request governance variants: clean, starved budget, instant
    // cancel, and an expired deadline.
    fn variants() -> [QueryOpts; 4] {
        [
            QueryOpts::default(),
            QueryOpts {
                memory_limit: 1,
                ..QueryOpts::default()
            },
            QueryOpts {
                cancel_polls: 1,
                ..QueryOpts::default()
            },
            QueryOpts {
                timeout_ms: 1,
                ..QueryOpts::default()
            },
        ]
    }

    for seed in fault_seeds() {
        let server = serve(
            paper::catalog(),
            ServerConfig {
                scheduler: SchedulerConfig {
                    workers: 2,
                    max_queries: 64,
                },
                faults: Some(FaultConfig::with_seed(seed)),
                ..ServerConfig::default()
            },
        )
        .expect("start serving front-end");
        let addr = server.addr();

        let threads: Vec<_> = (0..4)
            .map(|t| {
                let oracle = Arc::clone(&oracle);
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for (i, sql) in QUERIES.iter().enumerate() {
                        for (v, opts) in variants().into_iter().enumerate() {
                            match client.query_with(sql, opts) {
                                // Governance and faults gate *whether* the
                                // answer arrives, never *what* it is.
                                Ok(rel) => assert_eq!(
                                    rel, oracle[i],
                                    "seed {seed} thread {t} variant {v}: {sql} \
                                     diverged under serving governance"
                                ),
                                Err(e) => assert!(
                                    is_governance_error(&e)
                                        || matches!(
                                            &e,
                                            Error::Storage { .. } | Error::AdmissionRejected { .. }
                                        ),
                                    "seed {seed} thread {t} variant {v}: \
                                     untyped serving failure on {sql}: {e:?}"
                                ),
                            }
                        }
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().expect("serving client thread");
        }

        // Reusable: a fresh connection retries each query through the
        // still-active injector until a clean, byte-identical answer.
        let mut client = Client::connect(addr).expect("reconnect");
        for (i, sql) in QUERIES.iter().enumerate() {
            let mut attempts = 0;
            let rel = loop {
                attempts += 1;
                assert!(
                    attempts <= 200,
                    "seed {seed}: {sql} exhausted retries after governance trips"
                );
                match client.query(sql) {
                    Ok(rel) => break rel,
                    Err(Error::Storage { .. }) | Err(Error::AdmissionRejected { .. }) => continue,
                    Err(e) => panic!("seed {seed}: unexpected post-load error {e:?}"),
                }
            };
            assert_eq!(
                rel, oracle[i],
                "seed {seed}: serving pool not reusable after governance trips"
            );
        }
    }
}

/// Table versions through the catalog: after every step of an interleaved
/// sequence of sequenced inserts, deletes and updates, the version the
/// catalog publishes describes exactly its own tuples — base properties
/// equal `derive_props`, statistics equal a full `measure`, the resident
/// transpose equals a fresh one, list order is the pure modification's —
/// and plans bound against it still compute the interpreter's relation,
/// whole and staged.
#[test]
fn catalog_versions_stay_exact_and_plannable_under_interleaved_mutations() {
    use tqo_core::columnar::ColumnarRelation;
    use tqo_core::expr::Expr;
    use tqo_core::stats::TableSummary;
    use tqo_core::time::Period;
    use tqo_core::value::Value;
    use tqo_storage::table::derive_props;
    use tqo_storage::{mutation, GenConfig, StatisticsProvider, WorkloadGenerator};

    const READS: &[&str] = &[
        "VALIDTIME SELECT EmpName FROM STAFF COALESCE",
        "VALIDTIME SELECT DISTINCT EmpName FROM STAFF",
        "VALIDTIME SELECT EmpName FROM STAFF EXCEPT VALIDTIME SELECT EmpName FROM PROJECT",
        "SELECT Dept, COUNT(*) AS n FROM STAFF GROUP BY Dept",
    ];
    let catalog = paper::catalog();
    let staff = WorkloadGenerator::new(23)
        .employees(&GenConfig::clean(6, 3), 2)
        .unwrap();
    catalog.register("STAFF", staff.clone()).unwrap();
    let initial_props = catalog.get("STAFF").unwrap().props().clone();
    assert!(initial_props.snapshot_dup_free && initial_props.coalesced);

    let is = |name: &str| Expr::eq(Expr::col("EmpName"), Expr::lit(name));
    let row = |name: &str, dept: &str| vec![Value::from(name), Value::from(dept)];
    let mut oracle = staff.clone();
    let (mut lost_sdf, mut lost_coalesced) = (false, false);
    for step in 0..40u32 {
        let name = format!("emp{}", step % 7); // emp6 names no generated row
        let window = Period::of(i64::from(step % 9) * 4, i64::from(step % 9) * 4 + 6);
        oracle = match step % 5 {
            // Next to an existing row of the same class: overlapping it
            // (a snapshot duplicate) or abutting it (uncoalesced), so both
            // properties are lost — and, by the deletes, regained.
            0 | 3 => {
                let (values, period) = match oracle.tuples().get(step as usize % 11) {
                    Some(like) => {
                        let p = like.period(oracle.schema()).unwrap();
                        let shift = if step % 5 == 0 { -1 } else { 0 };
                        let values = like.values()[..2].to_vec();
                        (values, Period::of(p.end + shift, p.end + 3))
                    }
                    None => (row(&name, "d0"), window),
                };
                catalog
                    .insert_sequenced("STAFF", values.clone(), period)
                    .unwrap();
                mutation::insert_sequenced(&oracle, values, period).unwrap()
            }
            1 => {
                catalog
                    .delete_sequenced("STAFF", &is(&name), window)
                    .unwrap();
                mutation::delete_sequenced(&oracle, &is(&name), window).unwrap()
            }
            2 => {
                let schema = oracle.schema().clone();
                let move_dept = move |t: &tqo_core::tuple::Tuple| {
                    let mut t = t.clone();
                    t.set_value(schema.resolve("Dept")?, Value::from("d9"));
                    Ok(t)
                };
                catalog
                    .update_sequenced("STAFF", &is(&name), window, &move_dept)
                    .unwrap();
                mutation::update_sequenced(&oracle, &is(&name), window, &move_dept).unwrap()
            }
            // Every so often, wipe a whole class — at step 39, the table.
            _ => {
                let all = Period::of(-1_000, 1_000);
                let p = if step == 39 {
                    Expr::lit(true)
                } else {
                    is(&name)
                };
                catalog.delete_sequenced("STAFF", &p, all).unwrap();
                mutation::delete_sequenced(&oracle, &p, all).unwrap()
            }
        };

        let snapshot = catalog.snapshot();
        let version = snapshot.get("STAFF").unwrap();
        assert_eq!(version.relation(), &oracle, "step {step}: list order");
        assert_eq!(
            *version.props(),
            derive_props(&oracle).unwrap(),
            "step {step}: base properties"
        );
        assert_eq!(
            *snapshot.table_stats("STAFF").unwrap(),
            TableSummary::measure(&oracle).unwrap(),
            "step {step}: statistics"
        );
        lost_sdf |= !version.props().snapshot_dup_free;
        lost_coalesced |= !version.props().coalesced;
        let env = snapshot.env();
        assert_eq!(
            env.get("STAFF").unwrap().columnar().unwrap().to_relation(),
            ColumnarRelation::from_relation(&oracle)
                .unwrap()
                .to_relation(),
            "step {step}: transpose"
        );
        for sql in READS {
            let plan = tqo_sql::compile(sql, &snapshot).unwrap();
            let expected = tqo_core::interp::eval_plan(&plan, &env).unwrap();
            let physical = lower(&plan, PlannerConfig::default()).unwrap();
            let (got, _) = execute_mode(&physical, &env, ExecMode::Batch).unwrap();
            assert_eq!(got, expected, "step {step}, batch: {sql}");
            let (staged, _) = Scheduler::global()
                .run(&physical, &env, SubmitOptions::default())
                .unwrap();
            assert_eq!(staged, expected, "step {step}, scheduler: {sql}");
        }
    }
    assert!(catalog.get("STAFF").unwrap().is_empty());
    assert!(
        lost_sdf && lost_coalesced,
        "the script must take both properties away at some step"
    );
}
