//! The multi-query partition-pipeline scheduler.
//!
//! This module is the only code that runs a plan in stages. It
//! multiplexes *many queries* over one shared, process-wide worker pool,
//! push-style: each submitted plan is lowered into a
//! breaker-bounded stage graph ([`super::stage`]), completed stages push
//! their dependents onto the shared run queue, and workers pick the next
//! stage task under a weighted-fair policy. Nothing here changes what a
//! query computes — stages execute on the ordinary deterministic batch
//! engine — so a result produced through the scheduler is byte-identical
//! to the same plan's serial run (ARCHITECTURE invariant 16).
//!
//! Governance hooks:
//!
//! * **Admission control** — at most `max_queries` queries may be
//!   resident; later submissions get the typed
//!   [`Error::AdmissionRejected`] so serving front-ends can shed load
//!   without masking execution failures.
//! * **Weighted-fair picking** — each query accrues *service* (rows
//!   flowed through its completed stages, a deterministic proxy for
//!   work) divided by its weight; workers always run the ready stage of
//!   the query with the least service. A long scan therefore cannot
//!   starve a short query: after one stage of the scan, the short query
//!   has strictly less service and wins every pick until it catches up.
//!   Newly admitted queries start at the pool's current service floor,
//!   not at zero, so they cannot monopolize a long-running pool either.
//! * **Per-query context** — each query's
//!   [`tqo_core::context::QueryContext`] is installed on
//!   the worker for the duration of its tasks only; deadlines, budgets,
//!   and cancellation are re-checked at every task boundary and fail
//!   just that query, leaving the pool serving everyone else.
//! * **Panic containment** — a panic inside a stage task is caught at
//!   the task boundary and becomes the typed [`Error::Internal`] for that
//!   query alone: the worker survives, the query's admission slot is
//!   released when it is waited on, and every other query keeps running.

use std::any::Any;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use tqo_core::context::{self, CancellationToken, QueryContext};
use tqo_core::error::{Error, Result};
use tqo_core::interp::Env;
use tqo_core::relation::Relation;
use tqo_core::trace::{self, counters, Category};

use super::stage::{Stage, StageGraph};
use crate::executor::{execute_mode, ExecMode};
use crate::metrics::ExecMetrics;
use crate::physical::PhysicalPlan;

/// Sizing and admission knobs for a [`Scheduler`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads draining the shared run queue. `0` spawns no
    /// threads — tasks then only run through [`Scheduler::step`], the
    /// deterministic mode the fairness tests drive.
    pub workers: usize,
    /// Admission limit: queries resident at once before
    /// [`Error::AdmissionRejected`].
    pub max_queries: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: thread::available_parallelism().map_or(2, |n| n.get()),
            max_queries: 64,
        }
    }
}

/// Per-query options for [`Scheduler::submit`].
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Governance context: deadline, budget, cancellation token. The
    /// scheduler installs it around every task of this query.
    pub ctx: QueryContext,
    /// Ignored: every stage runs on the batch pipeline (see
    /// [`ExecMode`]).
    pub mode: ExecMode,
    /// Fair-share weight (clamped to ≥ 0.001). A query with weight 2
    /// absorbs twice the service of a weight-1 query before yielding.
    pub weight: f64,
}

impl SubmitOptions {
    fn weight(&self) -> f64 {
        if self.weight > 0.001 {
            self.weight
        } else if self.weight == 0.0 {
            1.0 // Default-constructed: unweighted.
        } else {
            0.001
        }
    }
}

/// A handle to a query resident in a [`Scheduler`].
///
/// Dropping the handle without [`QueryHandle::wait`]ing leaks the
/// query's admission slot until the scheduler shuts down — serving code
/// should always wait (or cancel, then wait).
pub struct QueryHandle {
    shared: Arc<Shared>,
    id: u64,
    token: CancellationToken,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle").field("id", &self.id).finish()
    }
}

impl QueryHandle {
    /// The scheduler-assigned query id (also the stage-binding
    /// namespace `__q{id}_`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Trip this query's cancellation token. Only this query's tasks
    /// observe it; the pool and every other query keep running.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Whether the query has reached an outcome (result or typed
    /// error). Non-blocking.
    pub fn is_finished(&self) -> bool {
        let state = self.shared.state.lock().expect("scheduler state");
        state
            .queries
            .get(&self.id)
            .is_none_or(|q| q.outcome.is_some())
    }

    /// Block until the query finishes and take its outcome.
    pub fn wait(self) -> Result<(Relation, ExecMetrics)> {
        let mut state = self.shared.state.lock().expect("scheduler state");
        loop {
            match state.queries.get(&self.id) {
                None => {
                    return Err(Error::Plan {
                        reason: format!("query {} already waited on", self.id),
                    })
                }
                Some(q) if q.outcome.is_some() => {
                    let q = state.queries.remove(&self.id).expect("query present");
                    return q.outcome.expect("outcome present");
                }
                Some(_) => {
                    state = self
                        .shared
                        .done
                        .wait(state)
                        .expect("scheduler state poisoned");
                }
            }
        }
    }
}

/// The shared multi-query worker pool. See the module docs for the
/// scheduling model; construct one with [`Scheduler::new`] or use the
/// process-wide [`Scheduler::global`].
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
}

struct Shared {
    config: SchedulerConfig,
    state: Mutex<State>,
    /// Workers wait here for runnable tasks.
    work: Condvar,
    /// Handle waiters ([`QueryHandle::wait`]) wait here for outcomes.
    done: Condvar,
}

#[derive(Default)]
struct State {
    queries: HashMap<u64, QueryState>,
    next_id: u64,
    /// Monotone service floor: newly admitted queries start here so a
    /// newcomer cannot out-prioritize the whole resident population.
    floor: f64,
    shutdown: bool,
}

struct QueryState {
    ctx: QueryContext,
    collector: Option<trace::Collector>,
    /// Base bindings plus, as stages complete, their outputs under
    /// `__q{id}_stage{k}` names (private clone; the caller's `Env` is
    /// never mutated).
    env: Env,
    weight: f64,
    /// Accrued service / weight — the fair-share virtual time.
    vtime: f64,
    stages: Vec<Stage>,
    bindings: Vec<String>,
    /// For each stage, the stages scanning its output.
    dependents: Vec<Vec<usize>>,
    /// Unmet-dependency counts; a stage is runnable at zero.
    waiting: Vec<usize>,
    ready: Vec<usize>,
    running: usize,
    /// Failures recorded so far, by stage id; the lowest stage id wins
    /// so the reported error does not depend on worker timing.
    failures: Vec<(usize, Error)>,
    metrics: Vec<Option<ExecMetrics>>,
    outcome: Option<Result<(Relation, ExecMetrics)>>,
}

impl QueryState {
    fn runnable(&self) -> bool {
        self.outcome.is_none() && !self.ready.is_empty() && self.failures.is_empty()
    }

    /// Terminal check after a task retires: success when the final stage
    /// completed, failure once nothing is running and a failure is
    /// recorded. Sets `outcome` and returns true if the query just
    /// finished.
    fn try_finish(&mut self) -> bool {
        if self.outcome.is_some() {
            return false;
        }
        if !self.failures.is_empty() {
            if self.running == 0 {
                self.failures.sort_by_key(|(id, _)| *id);
                let (_, err) = self.failures[0].clone();
                self.outcome = Some(Err(err));
                return true;
            }
            return false;
        }
        let last = self.stages.len() - 1;
        if self.metrics[last].is_some() {
            let mut all = ExecMetrics::default();
            for m in &mut self.metrics {
                all.operators
                    .extend(m.take().map(|m| m.operators).unwrap_or_default());
            }
            let result = self
                .env
                .get(&self.bindings[last])
                .expect("final stage binding")
                .clone();
            self.outcome = Some(Ok((result, all)));
            return true;
        }
        false
    }
}

/// Everything a worker needs to run one stage task lock-free.
struct Task {
    query: u64,
    stage: usize,
    plan: PhysicalPlan,
    env: Env,
    ctx: QueryContext,
    collector: Option<trace::Collector>,
}

impl Scheduler {
    /// A scheduler with `config.workers` threads already running.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let shared = Arc::new(Shared {
            config: config.clone(),
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("tqo-sched-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The process-wide scheduler (default config), created on first
    /// use. This is the pool `tqo-serve` and the conformance scheduler
    /// leg share.
    pub fn global() -> &'static Scheduler {
        static GLOBAL: OnceLock<Scheduler> = OnceLock::new();
        GLOBAL.get_or_init(|| Scheduler::new(SchedulerConfig::default()))
    }

    /// Admit `plan` and start scheduling its stages. Returns the typed
    /// [`Error::AdmissionRejected`] when `max_queries` queries are
    /// already resident; the caller should retry later.
    ///
    /// The environment is cloned — a few reference-count bumps, which is
    /// all that happens to it under the scheduler's lock, here and per
    /// task — so later insertions into the caller's `env` do not affect
    /// this query, and every task reads the caller's relations, transposes
    /// included, not copies.
    pub fn submit(
        &self,
        plan: &PhysicalPlan,
        env: &Env,
        opts: SubmitOptions,
    ) -> Result<QueryHandle> {
        let mut state = self.shared.state.lock().expect("scheduler state");
        if state.shutdown {
            return Err(Error::Plan {
                reason: "scheduler is shut down".into(),
            });
        }
        let active = state.queries.len();
        let limit = self.shared.config.max_queries;
        if active >= limit {
            counters::QUERIES_REJECTED.incr();
            return Err(Error::AdmissionRejected { active, limit });
        }
        let id = state.next_id;
        state.next_id += 1;
        let graph = StageGraph::lower(plan, &format!("__q{id}_"))?;
        let n = graph.stages.len();
        let bindings: Vec<String> = (0..n).map(|k| graph.binding(k)).collect();
        let mut dependents = vec![Vec::new(); n];
        let mut waiting = vec![0usize; n];
        let mut ready = Vec::new();
        for stage in &graph.stages {
            waiting[stage.id] = stage.deps.len();
            if stage.deps.is_empty() {
                ready.push(stage.id);
            }
            for &d in &stage.deps {
                dependents[d].push(stage.id);
            }
        }
        let entry = state
            .queries
            .values()
            .filter(|q| q.outcome.is_none())
            .map(|q| q.vtime)
            .fold(f64::INFINITY, f64::min);
        let floor = if entry.is_finite() {
            state.floor.max(entry)
        } else {
            state.floor
        };
        state.floor = floor;
        let token = opts.ctx.token().clone();
        state.queries.insert(
            id,
            QueryState {
                ctx: opts.ctx.clone(),
                collector: trace::current(),
                env: env.clone(),
                weight: opts.weight(),
                vtime: floor,
                stages: graph.stages,
                bindings,
                dependents,
                waiting,
                ready,
                running: 0,
                failures: Vec::new(),
                metrics: vec![None; n],
                outcome: None,
            },
        );
        counters::QUERIES_ADMITTED.incr();
        drop(state);
        self.shared.work.notify_all();
        Ok(QueryHandle {
            shared: Arc::clone(&self.shared),
            id,
            token,
        })
    }

    /// Submit and block for the outcome — the serial-call convenience
    /// the conformance scheduler leg uses.
    pub fn run(
        &self,
        plan: &PhysicalPlan,
        env: &Env,
        opts: SubmitOptions,
    ) -> Result<(Relation, ExecMetrics)> {
        self.submit(plan, env, opts)?.wait()
    }

    /// Run at most one stage task on the calling thread; `false` when
    /// nothing is runnable. With `workers: 0` this is the whole engine —
    /// the fairness tests drive it to observe every pick
    /// deterministically. Returns the query id the task belonged to.
    pub fn step(&self) -> Option<u64> {
        let task = {
            let mut state = self.shared.state.lock().expect("scheduler state");
            next_task(&mut state)?
        };
        let query = task.query;
        run_task(&self.shared, task);
        Some(query)
    }

    /// Queries currently resident (admitted, outcome not yet claimed).
    pub fn resident(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("scheduler state")
            .queries
            .len()
    }

    /// Stop accepting queries, finish the resident ones, and join the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock().expect("scheduler state");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("scheduler workers"));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pick the runnable stage of the least-service query, marking it
/// running. Holds the state lock.
fn next_task(state: &mut State) -> Option<Task> {
    let (&id, _) =
        state
            .queries
            .iter()
            .filter(|(_, q)| q.runnable())
            .min_by(|(ai, a), (bi, b)| {
                a.vtime
                    .partial_cmp(&b.vtime)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ai.cmp(bi))
            })?;
    let q = state.queries.get_mut(&id).expect("picked query");
    state.floor = state.floor.max(q.vtime);
    // FIFO among this query's ready stages keeps dependency chains
    // moving breadth-first.
    let stage = q.ready.remove(0);
    q.running += 1;
    Some(Task {
        query: id,
        stage,
        plan: q.stages[stage].plan.clone(),
        env: q.env.clone(),
        ctx: q.ctx.clone(),
        collector: q.collector.clone(),
    })
}

/// Execute one stage task (no locks held) and retire it. A panic in the
/// stage is caught here and retired as [`Error::Internal`], so it fails
/// only its own query and never unwinds through the worker.
fn run_task(shared: &Arc<Shared>, task: Task) {
    counters::SCHED_TASKS.incr();
    let result = {
        let _trace = task.collector.as_ref().map(trace::install);
        let _ctx = context::install(&task.ctx);
        let _span = trace::span_with(Category::Exec, || {
            format!("sched q{} stage {}", task.query, task.stage)
        });
        // No scheduler lock is held here, so unwinding cannot poison it;
        // shared state the stage reaches (the query's budget, resident
        // transposes) is updated atomically, never left half-written.
        panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            tests::panic_if_marked(&task.plan);
            // Task-boundary governance checkpoint: a tripped token,
            // expired deadline, or exhausted budget fails the query before
            // any more of its work is scheduled.
            task.ctx
                .check()
                .and_then(|()| execute_mode(&task.plan, &task.env, ExecMode::Batch))
                .and_then(|(rel, m)| {
                    // Stage outputs stay resident until the query
                    // finishes; charge them against the query's budget at
                    // the boundary.
                    task.ctx.budget().try_charge(rel.approx_bytes())?;
                    Ok((rel, m))
                })
        }))
        .unwrap_or_else(|payload| {
            Err(Error::Internal {
                reason: panic_message(payload.as_ref()),
            })
        })
    };
    retire(shared, task.query, task.stage, result);
}

/// The message a panic was raised with (`panic!` payloads are `&str` or
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stage task panicked".to_owned()
    }
}

/// Retire a finished stage task: book service, publish the output (or
/// record the failure), wake dependents and waiters.
fn retire(shared: &Arc<Shared>, query: u64, stage: usize, result: Result<(Relation, ExecMetrics)>) {
    let mut state = shared.state.lock().expect("scheduler state");
    let Some(q) = state.queries.get_mut(&query) else {
        return; // Query vanished (shutdown race); nothing to book.
    };
    q.running -= 1;
    match result {
        Ok((rel, metrics)) => {
            // Deterministic service proxy: rows flowed through the
            // stage. Using work, not wall time, makes pick order
            // reproducible under --test-threads=1.
            let service: usize = metrics
                .operators
                .iter()
                .map(|o| o.rows_in + o.rows_out)
                .sum::<usize>()
                + 1;
            q.vtime += service as f64 / q.weight;
            q.metrics[stage] = Some(metrics);
            let binding = q.bindings[stage].clone();
            q.env.insert(binding, rel);
            for k in 0..q.dependents[stage].len() {
                let dep = q.dependents[stage][k];
                q.waiting[dep] -= 1;
                if q.waiting[dep] == 0 {
                    q.ready.push(dep);
                }
            }
        }
        Err(err) => {
            q.failures.push((stage, err));
            // Stop scheduling this query's remaining stages; in-flight
            // siblings retire through this same path.
            q.ready.clear();
        }
    }
    let finished = q.try_finish();
    drop(state);
    // More tasks may be runnable (dependents or other queries), and a
    // finished query has a waiter to wake.
    shared.work.notify_all();
    if finished {
        shared.done.notify_all();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("scheduler state");
            loop {
                if let Some(task) = next_task(&mut state) {
                    break task;
                }
                // Drain semantics: exit only once shutdown is flagged
                // and every resident query has reached an outcome.
                if state.shutdown && state.queries.values().all(|q| q.outcome.is_some()) {
                    return;
                }
                state = shared.work.wait(state).expect("scheduler state poisoned");
            }
        };
        run_task(shared, task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{lower, PlannerConfig};
    use std::sync::Arc;
    use tqo_core::columnar::ColumnarRelation;
    use tqo_core::expr::Expr;
    use tqo_core::plan::{BaseProps, PlanBuilder, PlanNode};
    use tqo_core::schema::Schema;
    use tqo_core::sortspec::Order;
    use tqo_core::tuple::Tuple;
    use tqo_core::value::{DataType, Value};

    fn env() -> Env {
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str)]),
            (0..4000i64)
                .map(|i| {
                    Tuple::new(vec![
                        Value::from(format!("v{}", i % 23)),
                        Value::Time(i % 11),
                        Value::Time(i % 11 + 1 + (i % 5)),
                    ])
                })
                .collect(),
        )
        .unwrap();
        Env::new().with("R", r)
    }

    /// Stages that scan this table panic before they run: the test-only
    /// stand-in for a kernel bug.
    const PANIC_TABLE: &str = "__panic";

    pub(super) fn panic_if_marked(plan: &PhysicalPlan) {
        fn scans_panic_table(node: &PlanNode) -> bool {
            matches!(node, PlanNode::Scan { name, .. } if name == PANIC_TABLE)
                || node.children().into_iter().any(|c| scans_panic_table(c))
        }
        if scans_panic_table(plan.root()) {
            panic!("injected stage panic");
        }
    }

    /// `build` applied to a scan of `table` (the schema of [`env`]'s `R`),
    /// lowered.
    fn lowered(table: &str, build: impl FnOnce(PlanBuilder) -> PlanBuilder) -> PhysicalPlan {
        let schema = Schema::temporal(&[("E", DataType::Str)]);
        let scan = PlanBuilder::scan(table, BaseProps::unordered(schema, 4000));
        lower(&build(scan).build_multiset(), PlannerConfig::default()).unwrap()
    }

    fn panicking_plan() -> PhysicalPlan {
        lowered(PANIC_TABLE, |r| r.sort(Order::asc(&["E"])))
    }

    /// Wait on a helper thread, so a query that never finishes fails the
    /// test instead of hanging it.
    fn wait_bounded(h: QueryHandle) -> Result<Relation> {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(h.wait().map(|(rel, _)| rel));
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("query reached an outcome within 10 s")
    }

    fn assert_internal(outcome: Result<Relation>) {
        match outcome {
            Err(Error::Internal { reason }) => {
                assert!(reason.contains("injected stage panic"), "{reason}")
            }
            other => panic!("expected Error::Internal, got {:?}", other.map(|r| r.len())),
        }
    }

    fn sort_plan() -> PhysicalPlan {
        lowered("R", |r| {
            r.select(Expr::eq(Expr::col("E"), Expr::lit("v7")))
                .sort(Order::asc(&["E"]))
        })
    }

    #[test]
    fn scheduled_run_matches_serial_run() {
        let e = env();
        let plan = sort_plan();
        let (serial, _) = execute_mode(&plan, &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            max_queries: 4,
        });
        let (out, metrics) = sched.run(&plan, &e, SubmitOptions::default()).unwrap();
        assert_eq!(out, serial);
        // Stage metrics cover exactly the operators of the plan: the
        // root breaker's stage is the final stage.
        assert_eq!(metrics.operators.len(), plan.root().size());
        sched.shutdown();
    }

    #[test]
    fn a_task_reads_the_submitted_relations_not_copies() {
        let e = env();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 4,
        });
        let h = sched
            .submit(&sort_plan(), &e, SubmitOptions::default())
            .unwrap();
        let task = {
            let mut state = sched.shared.state.lock().unwrap();
            next_task(&mut state).expect("one ready stage")
        };
        let (scanned, submitted) = (task.env.get("R").unwrap(), e.get("R").unwrap());
        assert!(scanned.shares_tuples(submitted));
        // One transpose cell: built through the task, seen by the caller.
        let transpose = scanned.columnar().unwrap();
        assert!(Arc::ptr_eq(&transpose, &submitted.columnar().unwrap()));
        run_task(&sched.shared, task);
        h.wait().unwrap();
    }

    #[test]
    fn a_stage_output_carries_the_columns_it_was_built_from() {
        let e = env();
        // Two stages: rdupᵀ is a breaker below the root sort.
        let plan = lowered("R", |r| r.rdup_t().sort(Order::asc(&["E"])));
        let (serial, _) = execute_mode(&plan, &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 4,
        });
        let h = sched.submit(&plan, &e, SubmitOptions::default()).unwrap();
        assert_eq!(sched.step(), Some(h.id()));
        let handed_off = {
            let state = sched.shared.state.lock().unwrap();
            let q = &state.queries[&h.id()];
            q.env.get(&q.bindings[0]).unwrap().clone()
        };
        // The consumer's scan is served the producer's columns, and they
        // are what a transpose of the handed-off tuples would have built.
        let seeded = handed_off.columnar().unwrap();
        let rebuilt = ColumnarRelation::from_relation(&handed_off).unwrap();
        assert_eq!(seeded.schema(), rebuilt.schema());
        for (a, b) in seeded.columns().iter().zip(rebuilt.columns()) {
            assert_eq!(a.dtype(), b.dtype());
        }
        assert_eq!(seeded.to_relation(), handed_off);
        while sched.step().is_some() {}
        assert_eq!(h.wait().unwrap().0, serial);
    }

    #[test]
    fn staged_operators_report_the_plans_estimates() {
        let e = env();
        let base = BaseProps::measured(e.get("R").unwrap()).unwrap();
        let logical = PlanBuilder::scan("R", base)
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["E"]))
            .build_multiset();
        let plan = lower(&logical, PlannerConfig::default()).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 4,
        });
        let h = sched.submit(&plan, &e, SubmitOptions::default()).unwrap();
        while sched.step().is_some() {}
        let (_, metrics) = h.wait().unwrap();
        // Three stages; the two inter-stage scans are the only operators
        // without an estimate.
        assert_eq!(metrics.operators.len(), plan.root().size() + 2);
        for op in &metrics.operators {
            assert_eq!(
                op.est_rows.is_none(),
                op.label.starts_with("scan(__q"),
                "{}",
                op.label
            );
        }
    }

    #[test]
    fn a_result_is_charged_to_the_budget_once() {
        let e = env();
        let plan = lowered("R", |r| r.sort(Order::asc(&["E"])));
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 4,
        });
        let ctx = QueryContext::new().with_memory_limit(1 << 30);
        let opts = SubmitOptions {
            ctx: ctx.clone(),
            ..Default::default()
        };
        let h = sched.submit(&plan, &e, opts).unwrap();
        while sched.step().is_some() {}
        let (out, _) = h.wait().unwrap();
        assert_eq!(ctx.budget().used(), out.approx_bytes());
    }

    #[test]
    fn admission_limit_is_a_typed_error() {
        let e = env();
        let plan = sort_plan();
        // No workers: submissions stay resident, so the second one must
        // bounce off the limit deterministically.
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 1,
        });
        let _h = sched.submit(&plan, &e, SubmitOptions::default()).unwrap();
        let err = sched
            .submit(&plan, &e, SubmitOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            Error::AdmissionRejected {
                active: 1,
                limit: 1
            }
        );
        // Drain so shutdown joins cleanly.
        while sched.step().is_some() {}
        sched.shutdown();
    }

    #[test]
    fn step_mode_runs_a_query_to_completion() {
        let e = env();
        let plan = sort_plan();
        let (serial, _) = execute_mode(&plan, &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 4,
        });
        let h = sched.submit(&plan, &e, SubmitOptions::default()).unwrap();
        let mut steps = 0;
        while sched.step().is_some() {
            steps += 1;
        }
        assert_eq!(steps, 1); // the sort is the root: one stage
        assert!(h.is_finished());
        let (out, _) = h.wait().unwrap();
        assert_eq!(out, serial);
    }

    #[test]
    fn cancellation_kills_only_its_own_query() {
        let e = env();
        let plan = sort_plan();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 4,
        });
        let victim = sched
            .submit(
                &plan,
                &e,
                SubmitOptions {
                    ctx: QueryContext::new(),
                    ..Default::default()
                },
            )
            .unwrap();
        let survivor = sched.submit(&plan, &e, SubmitOptions::default()).unwrap();
        victim.cancel();
        while sched.step().is_some() {}
        assert_eq!(victim.wait().unwrap_err(), Error::Cancelled);
        let (out, _) = survivor.wait().unwrap();
        let (serial, _) = execute_mode(&plan, &e, ExecMode::Batch).unwrap();
        assert_eq!(out, serial);
    }

    #[test]
    fn a_panicking_stage_fails_only_its_query_and_the_worker_survives() {
        let e = env();
        let (serial, _) = execute_mode(&sort_plan(), &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            max_queries: 2,
        });
        let h = sched
            .submit(&panicking_plan(), &e, SubmitOptions::default())
            .unwrap();
        assert_internal(wait_bounded(h));
        // The pool's only worker is still alive and serves the next query.
        let h = sched
            .submit(&sort_plan(), &e, SubmitOptions::default())
            .unwrap();
        assert_eq!(wait_bounded(h).unwrap(), serial);
        // No admission slot leaked: every slot admits at once.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                sched
                    .submit(&sort_plan(), &e, SubmitOptions::default())
                    .unwrap()
            })
            .collect();
        for h in handles {
            assert_eq!(wait_bounded(h).unwrap(), serial);
        }
        assert_eq!(sched.resident(), 0);
        sched.shutdown();
    }

    #[test]
    fn step_mode_contains_a_panicking_stage() {
        let e = env();
        let (serial, _) = execute_mode(&sort_plan(), &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 0,
            max_queries: 2,
        });
        let victim = sched
            .submit(&panicking_plan(), &e, SubmitOptions::default())
            .unwrap();
        let survivor = sched
            .submit(&sort_plan(), &e, SubmitOptions::default())
            .unwrap();
        while sched.step().is_some() {}
        assert_internal(wait_bounded(victim));
        assert_eq!(wait_bounded(survivor).unwrap(), serial);
        let handles: Vec<_> = (0..2)
            .map(|_| {
                sched
                    .submit(&sort_plan(), &e, SubmitOptions::default())
                    .unwrap()
            })
            .collect();
        while sched.step().is_some() {}
        for h in handles {
            assert_eq!(wait_bounded(h).unwrap(), serial);
        }
        assert_eq!(sched.resident(), 0);
    }
}
