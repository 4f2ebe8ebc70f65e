//! The multi-query partition-pipeline scheduler.
//!
//! This module is the only code that runs a plan in stages. It
//! multiplexes *many queries* over one shared, process-wide pool of
//! stage slots, push-style: each submitted plan is lowered into a
//! breaker-bounded stage graph ([`super::stage`]), completed stages push
//! their dependents onto the shared run queue, and the next stage task is
//! picked under a weighted-fair policy. Nothing here changes what a
//! query computes — stages execute on the ordinary deterministic batch
//! engine — so a result produced through the scheduler is byte-identical
//! to the same plan's serial run (ARCHITECTURE invariant 16).
//!
//! Who runs a stage:
//!
//! * **The caller, when it can.** [`Scheduler::run`] is a participant,
//!   not a sleeper: while its query is the fair pick and a slot is free,
//!   the calling thread executes the query's next ready stage itself. A
//!   one-stage query, or a chain of stages, then runs start to finish on
//!   the caller's thread with no hand-off to a worker and no wake-up.
//! * **A worker, otherwise.** Worker threads run whatever is the fair
//!   pick: the stages of [`Scheduler::submit`]ted queries, the second
//!   branch of a caller's plan, or a caller's stage while it waits behind
//!   another query.
//!
//! `SchedulerConfig::workers` bounds both: at most that many stages
//! execute at once, counting workers and callers together.
//!
//! Wake-ups follow the state, not the event: whoever changes it (an
//! admission, a pick, a retire) wakes the workers only when a stage is
//! runnable with a slot free that no signalled caller will take, and
//! wakes a query's waiter only when its query has an outcome or it is a
//! caller whose query has become the fair pick.
//!
//! Governance hooks:
//!
//! * **Admission control** — at most `max_queries` queries may be
//!   resident; later submissions get the typed
//!   [`Error::AdmissionRejected`] so serving front-ends can shed load
//!   without masking execution failures.
//! * **Weighted-fair picking** — each query accrues *service* (rows
//!   flowed through its completed stages, a deterministic proxy for
//!   work) divided by its weight; the next stage always comes from the
//!   ready query with the least service. A long scan therefore cannot
//!   starve a short query: after one stage of the scan, the short query
//!   has strictly less service and wins every pick until it catches up.
//!   Newly admitted queries start at the pool's current service floor,
//!   not at zero, so they cannot monopolize a long-running pool either.
//! * **Per-query context** — each query's
//!   [`tqo_core::context::QueryContext`] is installed on the executing
//!   thread for the duration of its tasks only; deadlines, budgets,
//!   and cancellation are re-checked at every task boundary and fail
//!   just that query, leaving the pool serving everyone else.
//! * **Panic containment** — a panic inside a stage task is caught at
//!   the task boundary and becomes the typed [`Error::Internal`] for that
//!   query alone: the worker or caller survives, the query's admission
//!   slot is released when its outcome is taken, and every other query
//!   keeps running.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
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
    /// Worker threads draining the shared run queue, and the number of
    /// stage tasks that execute at once, counting the [`Scheduler::run`]
    /// callers that execute their own. `0` spawns no threads and lets no
    /// caller run a stage — tasks then only run through
    /// [`Scheduler::step`], the deterministic mode the fairness tests
    /// drive.
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
        let state = self.shared.lock();
        state
            .queries
            .get(&self.id)
            .is_none_or(|q| q.outcome.is_some())
    }

    /// Block until the query finishes and take its outcome. The waiting
    /// thread runs none of the query's stages: the workers do.
    pub fn wait(self) -> Result<(Relation, ExecMetrics)> {
        let mut state = self.shared.lock();
        loop {
            match state.queries.get(&self.id) {
                None => {
                    drop(state);
                    return Err(Error::Plan {
                        reason: format!("query {} already waited on", self.id),
                    });
                }
                Some(q) if q.outcome.is_some() => return state.take_outcome(self.id),
                Some(_) => state = self.shared.park(state, self.id),
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
    /// Query ids, drawn before the lock is taken so a plan is lowered
    /// outside it.
    next_id: AtomicU64,
    /// Workers wait here for runnable tasks.
    work: Condvar,
    /// Stage tasks executing right now, and the most ever at once.
    #[cfg(test)]
    executing: tests::HighWater,
}

#[derive(Default)]
struct State {
    queries: HashMap<u64, QueryState>,
    /// Stage tasks executing now, on workers and callers together.
    running: usize,
    /// Workers asleep on `work` and not signalled since.
    idle_workers: usize,
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
    /// Admitted by [`Scheduler::run`]: its caller executes the query's
    /// stages whenever the query is the fair pick and a slot is free.
    driven: bool,
    /// Where the query's one waiter — its `run` caller or the
    /// [`QueryHandle::wait`]er — sleeps.
    waiter: Arc<Condvar>,
    /// The waiter is asleep on `waiter` and has not been signalled since.
    parked: bool,
}

impl QueryState {
    /// A query's bookkeeping, built before the lock is taken. `vtime` is
    /// set at admission.
    fn new(graph: StageGraph, env: &Env, opts: &SubmitOptions, driven: bool) -> QueryState {
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
        QueryState {
            ctx: opts.ctx.clone(),
            collector: trace::current(),
            env: env.clone(),
            weight: opts.weight(),
            vtime: 0.0,
            stages: graph.stages,
            bindings,
            dependents,
            waiting,
            ready,
            running: 0,
            failures: Vec::new(),
            metrics: vec![None; n],
            outcome: None,
            driven,
            waiter: Arc::new(Condvar::new()),
            parked: false,
        }
    }

    fn runnable(&self) -> bool {
        self.outcome.is_none() && !self.ready.is_empty() && self.failures.is_empty()
    }

    /// Terminal check after a task retires: success when the final stage
    /// completed, failure once nothing is running and a failure is
    /// recorded. Sets `outcome` if the query just finished.
    fn try_finish(&mut self) {
        if self.outcome.is_some() {
            return;
        }
        if !self.failures.is_empty() {
            if self.running == 0 {
                self.failures.sort_by_key(|(id, _)| *id);
                let (_, err) = self.failures[0].clone();
                self.outcome = Some(Err(err));
            }
            return;
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
        }
    }
}

/// Everything a thread needs to run one stage task lock-free.
struct Task {
    query: u64,
    stage: usize,
    plan: PhysicalPlan,
    env: Env,
    ctx: QueryContext,
    collector: Option<trace::Collector>,
}

/// The threads a change to the state must wake.
#[derive(Default)]
struct Wake {
    workers: bool,
    waiters: Vec<Arc<Condvar>>,
}

impl State {
    /// The runnable query with the least service; ties go to the lower
    /// id.
    fn fair_pick(&self) -> Option<u64> {
        self.queries
            .iter()
            .filter(|(_, q)| q.runnable())
            .min_by(|(ai, a), (bi, b)| {
                a.vtime
                    .partial_cmp(&b.vtime)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(ai.cmp(bi))
            })
            .map(|(&id, _)| id)
    }

    /// The fair pick, if a slot is free: fewer than `slots` stages
    /// execute.
    fn pick(&self, slots: usize) -> Option<u64> {
        if self.running < slots {
            self.fair_pick()
        } else {
            None
        }
    }

    /// Mark query `id`'s next ready stage running and hand it out.
    fn take(&mut self, id: u64) -> Task {
        let q = self.queries.get_mut(&id).expect("picked query");
        self.floor = self.floor.max(q.vtime);
        // FIFO among this query's ready stages keeps dependency chains
        // moving breadth-first.
        let stage = q.ready.remove(0);
        q.running += 1;
        self.running += 1;
        Task {
            query: id,
            stage,
            plan: q.stages[stage].plan.clone(),
            env: q.env.clone(),
            ctx: q.ctx.clone(),
            collector: q.collector.clone(),
        }
    }

    /// Book a finished stage task: service, its output (or its failure),
    /// its dependents, and the query's outcome once it has one.
    fn retire(&mut self, query: u64, stage: usize, result: Result<(Relation, ExecMetrics)>) {
        self.running -= 1;
        let Some(q) = self.queries.get_mut(&query) else {
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
        q.try_finish();
    }

    /// Remove a finished query and hand out its outcome; its admission
    /// slot is free from here on.
    fn take_outcome(&mut self, id: u64) -> Result<(Relation, ExecMetrics)> {
        let q = self.queries.remove(&id).expect("query present");
        q.outcome.expect("outcome present")
    }

    /// Shutdown is flagged and every resident query has an outcome: the
    /// workers may exit.
    fn drained(&self) -> bool {
        self.shutdown && self.queries.values().all(|q| q.outcome.is_some())
    }

    /// Who the state, as it now stands, needs awake; whoever is signalled
    /// is unflagged, so it is signalled once. A parked waiter wakes when
    /// its query has an outcome, or when it is a `run` caller whose query
    /// is the fair pick with a slot free: that caller takes the stage. The
    /// idle workers wake when a stage is runnable with a slot free beyond
    /// that, and when they may exit.
    fn wakes(&mut self, slots: usize) -> Wake {
        let mut wake = Wake::default();
        let ready: usize = self
            .queries
            .values()
            .filter(|q| q.runnable())
            .map(|q| q.ready.len())
            .sum();
        let mut free = slots.saturating_sub(self.running).min(ready);
        let pick = self.pick(slots);
        for (&id, q) in self.queries.iter_mut() {
            let takes_pick = q.driven && Some(id) == pick;
            if q.parked && (q.outcome.is_some() || takes_pick) {
                q.parked = false;
                wake.waiters.push(Arc::clone(&q.waiter));
                if takes_pick {
                    free -= 1;
                }
            }
        }
        if self.idle_workers > 0 && (free > 0 || self.drained()) {
            self.idle_workers = 0;
            wake.workers = true;
        }
        wake
    }
}

impl Wake {
    fn send(self, work: &Condvar) {
        if self.workers {
            work.notify_all();
        }
        for waiter in self.waiters {
            waiter.notify_one();
        }
    }
}

impl Shared {
    /// The scheduler's state, recovering a poisoned guard. Nothing that
    /// can fail runs under the lock: lowering, building a query's state,
    /// error formatting and every stage run happen outside it. What
    /// remains moves counters and vector and map entries, whose only
    /// panics are broken invariants (allocation failure aborts), and
    /// admission checks its limits before its first write. So a guard
    /// poisoned by such a bug guards bookkeeping that other queries can
    /// still use, and recovering it keeps one bug from failing every later
    /// query of a process-wide pool.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Send the wake-ups the state calls for and release the lock.
    fn release(&self, mut state: MutexGuard<'_, State>) {
        let wake = state.wakes(self.config.workers);
        drop(state);
        wake.send(&self.work);
    }

    /// Sleep as query `id`'s waiter until signalled (see
    /// [`State::wakes`]), after waking whoever the state needs.
    fn park<'a>(&self, mut state: MutexGuard<'a, State>, id: u64) -> MutexGuard<'a, State> {
        state.wakes(self.config.workers).send(&self.work);
        let q = state
            .queries
            .get_mut(&id)
            .expect("parked query is resident");
        q.parked = true;
        let waiter = Arc::clone(&q.waiter);
        waiter.wait(state).unwrap_or_else(PoisonError::into_inner)
    }

    /// Execute `task` with the lock released, then retire it: the lock
    /// comes back held, the task booked. The caller decides what to wake.
    fn execute<'a>(&'a self, state: MutexGuard<'a, State>, task: Task) -> MutexGuard<'a, State> {
        let (query, stage) = (task.query, task.stage);
        self.release(state);
        let result = {
            #[cfg(test)]
            let _executing = self.executing.enter();
            run_task(task)
        };
        let mut state = self.lock();
        state.retire(query, stage, result);
        state
    }
}

impl Scheduler {
    /// A scheduler with `config.workers` threads already running.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let shared = Arc::new(Shared {
            config: config.clone(),
            state: Mutex::new(State::default()),
            next_id: AtomicU64::new(0),
            work: Condvar::new(),
            #[cfg(test)]
            executing: tests::HighWater::default(),
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

    /// Admit `plan` and start scheduling its stages on the workers.
    /// Returns the typed [`Error::AdmissionRejected`] when `max_queries`
    /// queries are already resident; the caller should retry later.
    ///
    /// The environment is cloned — a few reference-count bumps, made
    /// before the scheduler's lock is taken, and again per task under it —
    /// so later insertions into the caller's `env` do not affect this
    /// query, and every task reads the caller's relations, transposes
    /// included, not copies.
    pub fn submit(
        &self,
        plan: &PhysicalPlan,
        env: &Env,
        opts: SubmitOptions,
    ) -> Result<QueryHandle> {
        let token = opts.ctx.token().clone();
        let (id, state) = self.admit(plan, env, &opts, false)?;
        self.shared.release(state);
        Ok(QueryHandle {
            shared: Arc::clone(&self.shared),
            id,
            token,
        })
    }

    /// Submit and block for the outcome: the door the server, the
    /// conformance scheduler leg and the tests use. The calling thread
    /// executes the query's stages itself whenever the query is the fair
    /// pick and a slot is free, and waits otherwise; a worker runs what
    /// the caller cannot. With `workers: 0` nothing runs until
    /// [`Scheduler::step`] is called.
    pub fn run(
        &self,
        plan: &PhysicalPlan,
        env: &Env,
        opts: SubmitOptions,
    ) -> Result<(Relation, ExecMetrics)> {
        let shared = &*self.shared;
        let (id, mut state) = self.admit(plan, env, &opts, true)?;
        loop {
            if state.queries[&id].outcome.is_some() {
                let outcome = state.take_outcome(id);
                shared.release(state);
                return outcome;
            }
            state = if state.pick(shared.config.workers) == Some(id) {
                let task = state.take(id);
                shared.execute(state, task)
            } else {
                shared.park(state, id)
            };
        }
    }

    /// Lower `plan` and admit it. The lock comes back held with the query
    /// resident and nobody woken yet.
    fn admit(
        &self,
        plan: &PhysicalPlan,
        env: &Env,
        opts: &SubmitOptions,
        driven: bool,
    ) -> Result<(u64, MutexGuard<'_, State>)> {
        // Everything that can fail or allocate happens before the lock: a
        // query that fails to lower leaves nothing behind.
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let graph = StageGraph::lower(plan, &format!("__q{id}_"))?;
        let mut query = QueryState::new(graph, env, opts, driven);
        let mut state = self.shared.lock();
        #[cfg(test)]
        tests::panic_if_lock_marked(plan);
        if state.shutdown {
            drop(state);
            return Err(Error::Plan {
                reason: "scheduler is shut down".into(),
            });
        }
        let active = state.queries.len();
        let limit = self.shared.config.max_queries;
        if active >= limit {
            drop(state);
            counters::QUERIES_REJECTED.incr();
            return Err(Error::AdmissionRejected { active, limit });
        }
        let entry = state
            .queries
            .values()
            .filter(|q| q.outcome.is_none())
            .map(|q| q.vtime)
            .fold(f64::INFINITY, f64::min);
        if entry.is_finite() {
            state.floor = state.floor.max(entry);
        }
        query.vtime = state.floor;
        state.queries.insert(id, query);
        counters::QUERIES_ADMITTED.incr();
        Ok((id, state))
    }

    /// Run at most one stage task on the calling thread; `None` when
    /// nothing is runnable. It ignores the slot bound: with `workers: 0`
    /// this is the whole engine — the fairness tests drive it to observe
    /// every pick deterministically. Returns the query id the task
    /// belonged to.
    pub fn step(&self) -> Option<u64> {
        let mut state = self.shared.lock();
        let id = state.fair_pick()?;
        let task = state.take(id);
        let state = self.shared.execute(state, task);
        self.shared.release(state);
        Some(id)
    }

    /// Queries currently resident (admitted, outcome not yet claimed).
    pub fn resident(&self) -> usize {
        self.shared.lock().queries.len()
    }

    /// Stop accepting queries, finish the resident ones, and join the
    /// workers. Idempotent.
    pub fn shutdown(&self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
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

/// Execute one stage task, with no lock held. This is the only place a
/// stage executes, on a worker or a `run` caller alike. A panic in the
/// stage is caught here and becomes [`Error::Internal`], so it fails only
/// its own query and never unwinds through the thread.
fn run_task(task: Task) -> Result<(Relation, ExecMetrics)> {
    counters::SCHED_TASKS.incr();
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
    .unwrap_or_else(|payload| Err(Error::from_panic(payload.as_ref())))
}

fn worker_loop(shared: &Shared) {
    let mut state = shared.lock();
    loop {
        if let Some(id) = state.pick(shared.config.workers) {
            let task = state.take(id);
            state = shared.execute(state, task);
            continue;
        }
        // Whatever the last retire enabled that this worker does not
        // take itself, someone else must.
        state.wakes(shared.config.workers).send(&shared.work);
        // Drain semantics: exit only once shutdown is flagged and every
        // resident query has reached an outcome.
        if state.drained() {
            return;
        }
        state.idle_workers += 1;
        state = shared
            .work
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{lower, PlannerConfig};
    use std::sync::atomic::AtomicUsize;
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

    /// Plans that scan this table panic at admission, with the scheduler's
    /// lock held: the test-only stand-in for a bookkeeping bug.
    const LOCK_PANIC_TABLE: &str = "__panic_locked";

    fn scans(node: &PlanNode, table: &str) -> bool {
        matches!(node, PlanNode::Scan { name, .. } if name == table)
            || node.children().into_iter().any(|c| scans(c, table))
    }

    pub(super) fn panic_if_marked(plan: &PhysicalPlan) {
        if scans(plan.root(), PANIC_TABLE) {
            panic!("injected stage panic");
        }
    }

    pub(super) fn panic_if_lock_marked(plan: &PhysicalPlan) {
        if scans(plan.root(), LOCK_PANIC_TABLE) {
            panic!("injected panic under the scheduler lock");
        }
    }

    /// Stage tasks executing at once, and the most ever seen.
    #[derive(Default)]
    pub(super) struct HighWater {
        now: AtomicUsize,
        max: AtomicUsize,
    }

    pub(super) struct Executing<'a>(&'a HighWater);

    impl HighWater {
        pub(super) fn enter(&self) -> Executing<'_> {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(now, Ordering::SeqCst);
            Executing(self)
        }
    }

    impl Drop for Executing<'_> {
        fn drop(&mut self) {
            self.0.now.fetch_sub(1, Ordering::SeqCst);
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
        let mut state = sched.shared.lock();
        let id = state.fair_pick().expect("one ready stage");
        let task = state.take(id);
        let (scanned, submitted) = (task.env.get("R").unwrap(), e.get("R").unwrap());
        assert!(scanned.shares_tuples(submitted));
        // One transpose cell: built through the task, seen by the caller.
        let transpose = scanned.columnar().unwrap();
        assert!(Arc::ptr_eq(&transpose, &submitted.columnar().unwrap()));
        sched.shared.release(sched.shared.execute(state, task));
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

    /// The lane (Chrome `tid`) of the stage-0 span of a one-stage plan
    /// run through `go`, and the lane of the thread that called it.
    fn stage_lane(go: impl FnOnce()) -> (u64, u64) {
        let collector = trace::Collector::new();
        {
            let _guard = trace::install(&collector);
            drop(trace::span(Category::Exec, "caller"));
            go();
        }
        let events = collector.finish().events;
        let lane = |pred: &dyn Fn(&str) -> bool| {
            events
                .iter()
                .find(|e| pred(&e.name))
                .unwrap_or_else(|| panic!("no such span in {events:?}"))
                .tid
        };
        let stage = lane(&|n| n.starts_with("sched q") && n.ends_with(" stage 0"));
        (stage, lane(&|n| n == "caller"))
    }

    #[test]
    fn run_executes_its_stage_on_the_calling_thread() {
        let e = env();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            max_queries: 4,
        });
        let (stage, caller) = stage_lane(|| {
            sched
                .run(&sort_plan(), &e, SubmitOptions::default())
                .unwrap();
        });
        assert_eq!(stage, caller, "run handed its stage to a worker");
        // A submitted query's waiter runs nothing: a worker does.
        let (stage, caller) = stage_lane(|| {
            let h = sched
                .submit(&sort_plan(), &e, SubmitOptions::default())
                .unwrap();
            h.wait().unwrap();
        });
        assert_ne!(stage, caller, "wait ran a stage on the waiting thread");
    }

    #[test]
    fn callers_and_workers_never_exceed_the_slot_bound() {
        let e = env();
        let (serial, _) = execute_mode(&sort_plan(), &e, ExecMode::Batch).unwrap();
        // Two stages per query, so workers run stages too.
        let two_stage = lowered("R", |r| r.rdup_t().sort(Order::asc(&["E"])));
        let (serial_two, _) = execute_mode(&two_stage, &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            max_queries: 8,
        });
        thread::scope(|s| {
            for caller in 0..4 {
                let (sched, e, serial, two_stage, serial_two) =
                    (&sched, &e, &serial, &two_stage, &serial_two);
                s.spawn(move || {
                    for i in 0..10 {
                        if (caller + i) % 2 == 0 {
                            let (out, _) = sched
                                .run(&sort_plan(), e, SubmitOptions::default())
                                .unwrap();
                            assert_eq!(&out, serial);
                        } else {
                            let h = sched
                                .submit(two_stage, e, SubmitOptions::default())
                                .unwrap();
                            assert_eq!(&h.wait().unwrap().0, serial_two);
                        }
                    }
                });
            }
        });
        let most = sched.shared.executing.max.load(Ordering::SeqCst);
        assert!((1..=2).contains(&most), "{most} stages executed at once");
        assert_eq!(sched.resident(), 0);
    }

    #[test]
    fn a_stage_panic_under_run_fails_its_query_and_the_caller_runs_on() {
        let e = env();
        let (serial, _) = execute_mode(&sort_plan(), &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 1,
            max_queries: 2,
        });
        let (stage, caller) = stage_lane(|| {
            let outcome = sched.run(&panicking_plan(), &e, SubmitOptions::default());
            assert_internal(outcome.map(|(rel, _)| rel));
        });
        assert_eq!(stage, caller, "the panicking stage ran on the caller");
        let (out, _) = sched
            .run(&sort_plan(), &e, SubmitOptions::default())
            .unwrap();
        assert_eq!(out, serial);
        assert_eq!(sched.resident(), 0);
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_scheduler_serving() {
        let e = env();
        let (serial, _) = execute_mode(&sort_plan(), &e, ExecMode::Batch).unwrap();
        let sched = Scheduler::new(SchedulerConfig {
            workers: 2,
            max_queries: 2,
        });
        let marked = lowered(LOCK_PANIC_TABLE, |r| r.sort(Order::asc(&["E"])));
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            sched.run(&marked, &e, SubmitOptions::default())
        }));
        assert!(unwound.is_err(), "the marked admission did not panic");
        assert!(sched.shared.state.is_poisoned());
        // The next run, and a submitted query on the workers, both serve.
        let (out, _) = sched
            .run(&sort_plan(), &e, SubmitOptions::default())
            .unwrap();
        assert_eq!(out, serial);
        let h = sched
            .submit(&sort_plan(), &e, SubmitOptions::default())
            .unwrap();
        assert_eq!(wait_bounded(h).unwrap(), serial);
        assert_eq!(sched.resident(), 0);
        sched.shutdown();
    }
}
