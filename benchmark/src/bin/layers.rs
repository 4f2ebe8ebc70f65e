//! Traced run of one workload: the per-layer numbers.
//!
//! Everything that knows an inner entry point of the program lives in
//! this file, so a refactor of those entry points can break at most this
//! binary, never the end-to-end numbers of `e2e`. Three parts:
//!
//! 1. a **wire leg** at one client against an in-process server: an
//!    untraced stretch through `tqo_serve::Client`, then a traced stretch
//!    with a span around `encode_request`, write→read and
//!    `decode_response` (their difference is the tracing overhead);
//! 2. an **in-process replay** of what `server::run` does per template —
//!    `decode_request` → `parse` → `bind` → `lower` → `Catalog::env` →
//!    `Scheduler::run` → `encode_response` — each call one span;
//! 3. **off-path probes**: each engine run directly, the stage cut, the
//!    stratum, the optimizer, and the storage mutation calls.
//!
//! No instrumentation is added inside the program.

use std::io::Read;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use tqo_benchmark::args::Args;
use tqo_benchmark::digest::digest;
use tqo_benchmark::driver::{client_loop, judge, run_clients, ClientRun, Conn, Until};
use tqo_benchmark::host;
use tqo_benchmark::json::Json;
use tqo_benchmark::report::{provenance, Report, PER_LAYER};
use tqo_benchmark::spans::Recorder;
use tqo_benchmark::stats;
use tqo_benchmark::windows::{summarize, watch, Mark};
use tqo_benchmark::workloads::{scratch_key, table_rows, Workload, CHURN_TABLE, SCRATCH_DEPT};
use tqo_core::context::QueryContext;
use tqo_core::equivalence::ResultType;
use tqo_core::error::{Error, Result};
use tqo_core::expr::Expr;
use tqo_core::relation::Relation;
use tqo_core::rules::RuleSet;
use tqo_core::time::Period;
use tqo_core::value::Value;
use tqo_exec::{
    execute_mode, lower, planner::optimize_and_lower, ExecMetrics, ExecMode, PlannerConfig,
    Scheduler, SchedulerConfig, StageGraph, SubmitOptions,
};
use tqo_serve::protocol::{
    decode_request, decode_response, encode_request, encode_response, write_frame, Request,
    Response,
};
use tqo_serve::{serve, Client, ServerConfig};
use tqo_sql::{binder, lexer, parser};
use tqo_storage::{Catalog, StatisticsProvider};
use tqo_stratum::Stratum;

/// Timed calls wanted per probe and template.
const TARGET_CALLS: usize = 30;
/// Cheap probes keep going past the target until this much time is
/// spent, so a 2 µs call is not judged on 30 samples — up to `MAX_CALLS`.
const SETTLE: Duration = Duration::from_millis(5);
const MAX_CALLS: usize = 300;

/// Shares of `--seconds`: the wire leg's untraced and traced stretches;
/// the rest is the replay's and the probes' budget.
const UNTRACED_SHARE: f64 = 0.2;
const TRACED_SHARE: f64 = 0.15;

/// Shares of one template's budget. A probe stops at its share even if it
/// made fewer than `TARGET_CALLS` calls (never fewer than `min_calls`);
/// the call counts are written beside the medians.
const REPLAY_SHARE: f64 = 0.2;
/// Each of: batch, batch cold, row, parallel, stratum, optimized batch.
const ENGINE_SHARE: f64 = 0.1;
/// Each of the two boxed calls: `optimize_and_lower`, and the stratum's
/// `run_sql_optimized`.
const BOX_SHARE: f64 = 0.1;

/// The pseudo-template under which workload-wide probes are filed.
fn workload_slot(w: &Workload) -> usize {
    w.templates.len()
}

fn main() {
    let args = Args::from_env();
    if let Err(e) = run(&args) {
        eprintln!("error: layers {}: {e}", args.workload.name);
        std::process::exit(1);
    }
}

/// Call `f` repeatedly: until [`TARGET_CALLS`] calls are made and
/// [`SETTLE`] has passed, or `budget` is spent (but at least `min_calls`).
fn repeat(budget: Duration, min_calls: usize, mut f: impl FnMut() -> Result<()>) -> Result<()> {
    let start = Instant::now();
    let mut calls = 0;
    loop {
        let spent = start.elapsed();
        let settled = calls >= TARGET_CALLS && spent >= SETTLE;
        let out_of_time = calls >= min_calls && spent >= budget;
        if calls >= MAX_CALLS || settled || out_of_time {
            return Ok(());
        }
        f()?;
        calls += 1;
    }
}

/// Run `call` on a helper thread and wait at most `limit` for its value.
///
/// The calls boxed here cannot be interrupted. Past the limit the thread
/// is left to finish by itself (with the process at the latest) and its
/// value is dropped.
fn time_boxed<T: Send + 'static>(
    limit: Duration,
    call: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // The receiver is gone if the box already closed.
        let _ = tx.send(call());
    });
    rx.recv_timeout(limit).ok()
}

fn query_request(sql: &str) -> Request {
    // The fields `Client::query` sends.
    Request::Query {
        sql: sql.to_owned(),
        mode: ExecMode::Batch,
        timeout_ms: 0,
        memory_limit: 0,
        cancel_polls: 0,
    }
}

/// The row a churn pair inserts, the predicate that deletes it again, and
/// their period — as the storage calls take them.
fn scratch_row() -> (Vec<Value>, Expr, Period) {
    let key = scratch_key(0);
    (
        vec![Value::from(key.as_str()), Value::from(SCRATCH_DEPT)],
        Expr::eq(Expr::col("EmpName"), Expr::lit(Value::from(key.as_str()))),
        Period::of(1, 5),
    )
}

fn io_err(e: std::io::Error) -> Error {
    Error::Storage {
        reason: format!("layers wire leg io: {e}"),
    }
}

/// A connection that does what `tqo_serve::Client` does, one span a step.
struct TracedConn<'a> {
    stream: TcpStream,
    rec: &'a mut Recorder,
    next_query: &'a mut u64,
    /// Slot the mutation requests are filed under.
    write_slot: usize,
}

impl TracedConn<'_> {
    fn roundtrip(&mut self, slot: usize, req: &Request) -> Result<Response> {
        let q = *self.next_query;
        *self.next_query += 1;
        let root = self.rec.open("client.request", None, q);
        let frame = self
            .rec
            .time("protocol.encode_request", Some(root), q, slot, || {
                encode_request(req)
            });
        let stream = &mut self.stream;
        let payload = self.rec.time("serve.wire", Some(root), q, slot, || {
            write_frame(stream, &frame)?;
            let mut header = [0u8; 4];
            stream.read_exact(&mut header)?;
            let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
            stream.read_exact(&mut payload)?;
            Ok(Bytes::from(payload))
        });
        let payload = match payload {
            Ok(p) => p,
            Err(e) => {
                self.rec.close(root, slot);
                return Err(io_err(e));
            }
        };
        let response = self
            .rec
            .time("protocol.decode_response", Some(root), q, slot, || {
                decode_response(payload)
            });
        self.rec.close(root, slot);
        response
    }

    fn ack(&mut self, req: &Request) -> Result<()> {
        match self.roundtrip(self.write_slot, req)? {
            Response::Done => Ok(()),
            Response::Fail(e) => Err(e),
            other => Err(Error::Storage {
                reason: format!("unexpected response {other:?}"),
            }),
        }
    }
}

impl Conn for TracedConn<'_> {
    fn query(&mut self, template: usize, sql: &str) -> Result<Relation> {
        match self.roundtrip(template, &query_request(sql))? {
            Response::Rows(rows) => Ok(rows),
            Response::Fail(e) => Err(e),
            other => Err(Error::Storage {
                reason: format!("unexpected response {other:?}"),
            }),
        }
    }

    fn insert(&mut self, table: &str, values: Vec<Value>, period: Period) -> Result<()> {
        self.ack(&Request::Insert {
            table: table.to_owned(),
            values,
            period,
        })
    }

    fn delete(&mut self, table: &str, column: &str, value: Value, period: Period) -> Result<()> {
        self.ack(&Request::Delete {
            table: table.to_owned(),
            column: column.to_owned(),
            value,
            period,
        })
    }
}

/// What the replay and the probes share.
struct Probes<'a> {
    w: &'a Workload,
    catalog: &'a Catalog,
    types: &'a [ResultType],
    scheduler: Scheduler,
    nproc: usize,
    rec: Recorder,
    next_query: u64,
    /// Replayed responses, judged by the oracle like the wire's.
    tally: ClientRun,
    /// Per template: counts that are not durations.
    counts: Vec<Vec<(&'static str, f64)>>,
    /// Per template: the batch engine's operators, slowest first.
    operators: Vec<Json>,
    /// Per template: metrics whose boxed call did not return in time, so
    /// that the value is the box: a lower bound.
    timed_out: Vec<Vec<&'static str>>,
}

impl Probes<'_> {
    fn query_id(&mut self) -> u64 {
        self.next_query += 1;
        self.next_query - 1
    }

    /// Replay `server::run` for template `t`, then probe off the path.
    fn template(&mut self, t: usize, budget: Duration) -> Result<()> {
        let sql = self.w.templates[t].sql;
        let frame = encode_request(&query_request(sql));
        let mut last_response = None;

        // The served path, call for call. On a churn mix every read
        // follows a mutation, so one goes before each replayed read too.
        let (values, predicate, period) = scratch_row();
        repeat(budget.mul_f64(REPLAY_SHARE), 3, || {
            if self.w.churn {
                self.catalog
                    .insert_sequenced(CHURN_TABLE, values.clone(), period)?;
                self.catalog
                    .delete_sequenced(CHURN_TABLE, &predicate, period)?;
            }
            let q = self.query_id();
            let rec = &mut self.rec;
            let root = rec.open("replay.request", None, q);
            let up = Some(root);
            let request = rec.time("protocol.decode_request", up, q, t, || {
                decode_request(frame.clone())
            })?;
            let Request::Query { sql, mode, .. } = request else {
                unreachable!("a query request was encoded");
            };
            let statement = rec.time("sql.parse", up, q, t, || parser::parse(&sql))?;
            let logical = rec.time("sql.bind", up, q, t, || {
                binder::bind(&statement, self.catalog)
            })?;
            let config = PlannerConfig {
                mode,
                ..PlannerConfig::default()
            };
            let physical = rec.time("planner.lower", up, q, t, || lower(&logical, config))?;
            let env = rec.time("storage.env_snapshot", up, q, t, || self.catalog.env());
            let options = SubmitOptions {
                ctx: QueryContext::new(),
                mode,
                ..SubmitOptions::default()
            };
            let (rows, _) = rec.time("sched.run", up, q, t, || {
                self.scheduler.run(&physical, &env, options)
            })?;
            self.tally.attempted += 1;
            self.tally.tally(t, digest(&rows, &self.types[t])?);
            let response = Response::Rows(rows);
            let bytes = rec.time("protocol.encode_response", up, q, t, || {
                encode_response(&response)
            });
            rec.close(root, t);
            last_response = Some(bytes);
            Ok(())
        })?;
        let response_bytes = last_response.map_or(0, |b| b.len());

        // Off the served path from here on.
        let q = self.query_id();
        let root = self.rec.open("probes", None, q);
        let up = Some(root);
        let statement = parser::parse(sql)?;
        let logical = binder::bind(&statement, self.catalog)?;
        let physical = lower(&logical, PlannerConfig::default())?;
        let env = self.catalog.env();
        let engine = budget.mul_f64(ENGINE_SHARE);

        repeat(engine, 3, || {
            self.rec
                .time("sql.tokenize", up, q, t, || lexer::tokenize(sql))?;
            Ok(())
        })?;
        let mut stages = 0;
        repeat(engine, 3, || {
            let graph = self.rec.time("stage.cut", up, q, t, || {
                StageGraph::lower(&physical, "__qprobe_")
            })?;
            stages = graph.stages.len();
            Ok(())
        })?;

        // The engines, directly. `exec.batch` reuses one environment, so
        // the columnar transposes are cached: kernel cost alone.
        // `exec.batch_cold` takes a fresh `Catalog::env()` per call, as
        // the server does per query and as any read after a mutation must.
        let mut batch_metrics = ExecMetrics::default();
        let mut rows_out = 0;
        repeat(engine, 3, || {
            let start = Instant::now();
            let (rows, metrics) = self.rec.time("exec.batch", up, q, t, || {
                execute_mode(&physical, &env, ExecMode::Batch)
            })?;
            let wall = start.elapsed().as_secs_f64();
            if wall > 0.0 {
                let share = metrics.total_time().as_secs_f64() / wall;
                self.counts[t].push(("exec.operator_share", share));
            }
            rows_out = rows.len();
            batch_metrics = metrics;
            Ok(())
        })?;
        repeat(engine, 3, || {
            let cold = self.catalog.env();
            self.rec.time("exec.batch_cold", up, q, t, || {
                execute_mode(&physical, &cold, ExecMode::Batch)
            })?;
            Ok(())
        })?;
        repeat(engine, 3, || {
            self.rec.time("exec.row", up, q, t, || {
                execute_mode(&physical, &env, ExecMode::Row)
            })?;
            Ok(())
        })?;
        let threads = self.nproc;
        repeat(engine, 3, || {
            self.rec.time("exec.parallel", up, q, t, || {
                execute_mode(&physical, &env, ExecMode::Parallel { threads })
            })?;
            Ok(())
        })?;

        // The stratum: not on the served path today; the pair is the
        // paper's plan-quality evidence.
        let stratum = Stratum::new(self.catalog.clone());
        let mut transferred = 0;
        repeat(engine, 2, || {
            let (_, metrics) = self
                .rec
                .time("stratum.run_sql", up, q, t, || stratum.run_sql(sql))?;
            transferred = metrics.transfer_bytes;
            Ok(())
        })?;
        self.rec.close(root, t);

        let rows_in: usize = batch_metrics
            .operators
            .iter()
            .filter(|o| o.label.starts_with("scan("))
            .map(|o| o.rows_out)
            .sum();
        self.counts[t].extend([
            ("protocol.response_bytes", response_bytes as f64),
            ("stage.stages_per_query", stages as f64),
            ("exec.rows_in", rows_in as f64),
            ("exec.rows_out", rows_out as f64),
            ("stratum.bytes_transferred", transferred as f64),
        ]);
        let mut operators: Vec<_> = batch_metrics.operators.iter().collect();
        operators.sort_by_key(|o| std::cmp::Reverse(o.elapsed));
        self.operators[t] = Json::Arr(
            operators
                .iter()
                .map(|o| {
                    let us = o.elapsed.as_secs_f64() * 1e6;
                    Json::obj([
                        ("operator", Json::str(&o.label)),
                        ("rows_in", Json::Int(o.rows_in as i64)),
                        ("rows_out", Json::Int(o.rows_out as i64)),
                        ("exclusive_us", Json::Num(us)),
                        (
                            "ns_per_row_in",
                            Json::Num(us * 1e3 / o.rows_in.max(1) as f64),
                        ),
                    ])
                })
                .collect(),
        );
        Ok(())
    }

    /// The optimizer, which the server never calls today: what it would
    /// cost per query (`optimize_and_lower`, and the stratum's optimized
    /// path), and what its plan would save. Each first call is boxed to
    /// `limit`; one that does not return in time is reported as a lower
    /// bound with `timed_out`, and its thread is left behind — which is why
    /// these probes run after everything else.
    fn optimizer(&mut self, t: usize, limit: Duration, engine: Duration) -> Result<()> {
        let sql = self.w.templates[t].sql;
        let logical = tqo_sql::compile(sql, self.catalog)?;
        let q = self.query_id();
        let root = self.rec.open("optimizer.probes", None, q);
        let up = Some(root);
        let rules = RuleSet::standard();

        let start = Instant::now();
        let id = self.rec.open("optimizer.optimize", up, q);
        let first = {
            let plan = logical.clone();
            time_boxed(limit, move || {
                optimize_and_lower(&plan, &RuleSet::standard(), PlannerConfig::default())
            })
        };
        self.rec.close(id, t);
        match first {
            None => self.timed_out[t].push("optimizer.optimize_us"),
            Some(result) => {
                // It fits the box, so further calls can be made in line.
                let (mut optimized, search) = result?;
                let explored = search.enumeration.plans.len();
                self.counts[t].push(("optimizer.plans_explored", explored as f64));
                repeat(limit.saturating_sub(start.elapsed()), 0, || {
                    (optimized, _) = self.rec.time("optimizer.optimize", up, q, t, || {
                        optimize_and_lower(&logical, &rules, PlannerConfig::default())
                    })?;
                    Ok(())
                })?;
                let env = self.catalog.env();
                repeat(engine, 3, || {
                    self.rec.time("exec.batch_optimized", up, q, t, || {
                        execute_mode(&optimized, &env, ExecMode::Batch)
                    })?;
                    Ok(())
                })?;
            }
        }

        let stratum = Stratum::new(self.catalog.clone());
        let start = Instant::now();
        let id = self.rec.open("stratum.run_sql_optimized", up, q);
        let first = {
            let stratum = stratum.clone();
            time_boxed(limit, move || stratum.run_sql_optimized(sql).map(|_| ()))
        };
        self.rec.close(id, t);
        match first {
            None => self.timed_out[t].push("stratum.run_sql_optimized_us"),
            Some(result) => {
                result?;
                repeat(limit.saturating_sub(start.elapsed()), 0, || {
                    self.rec.time("stratum.run_sql_optimized", up, q, t, || {
                        stratum.run_sql_optimized(sql)
                    })?;
                    Ok(())
                })?;
            }
        }
        self.rec.close(root, t);
        Ok(())
    }

    /// Storage calls a mutation makes, on a catalog of their own so the
    /// replay's tables stay as generated.
    fn storage(&mut self, seed: u64, budget: Duration) -> Result<()> {
        let slot = workload_slot(self.w);
        let scratch = self.w.catalog(seed)?;
        let (values, predicate, period) = scratch_row();
        let q = self.query_id();
        let root = self.rec.open("storage.probes", None, q);
        let up = Some(root);
        repeat(budget / 2, 3, || {
            self.rec.time("storage.insert", up, q, slot, || {
                scratch.insert_sequenced(CHURN_TABLE, values.clone(), period)
            })?;
            self.rec.time("storage.delete", up, q, slot, || {
                scratch.delete_sequenced(CHURN_TABLE, &predicate, period)
            })?;
            Ok(())
        })?;
        repeat(budget / 2, 3, || {
            scratch.invalidate_stats(CHURN_TABLE);
            self.rec.time("storage.stats", up, q, slot, || {
                scratch.table_stats(CHURN_TABLE)
            });
            Ok(())
        })?;
        self.rec.close(root, slot);
        Ok(())
    }

    /// Mean over the templates of each template's median of `span`: the
    /// mix is uniform over templates on every workload.
    fn mix_median(&self, span: &'static str) -> Option<f64> {
        let medians: Vec<f64> = (0..self.w.templates.len())
            .filter_map(|t| Some(self.rec.median(t, span)?.0))
            .collect();
        mean(&medians)
    }

    /// Mean over the templates of each template's median of `count`.
    fn mix_count(&self, count: &str) -> Option<f64> {
        let medians: Vec<f64> = self
            .counts
            .iter()
            .filter_map(|c| {
                let values: Vec<f64> = c.iter().filter(|x| x.0 == count).map(|x| x.1).collect();
                stats::median(&values)
            })
            .collect();
        mean(&medians)
    }
}

fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// Spans of the served path whose medians are summed for the attribution,
/// beside the client's own encode/decode and the ping round trip.
const SERVED_PATH: [&str; 7] = [
    "protocol.decode_request",
    "sql.parse",
    "sql.bind",
    "planner.lower",
    "storage.env_snapshot",
    "sched.run",
    "protocol.encode_response",
];

/// Span → metric, for every duration reported under a metric name.
const DURATION_METRICS: [(&str, &str); 21] = [
    ("sql.tokenize", "sql.tokenize_us"),
    ("sql.parse", "sql.parse_us"),
    ("sql.bind", "sql.bind_us"),
    ("optimizer.optimize", "optimizer.optimize_us"),
    ("planner.lower", "planner.lower_us"),
    ("stage.cut", "stage.cut_us"),
    ("sched.run", "sched.run_us"),
    ("exec.batch", "exec.batch_us"),
    ("exec.batch_cold", "exec.batch_cold_us"),
    ("exec.batch_optimized", "exec.batch_optimized_us"),
    ("exec.row", "exec.row_us"),
    ("exec.parallel", "exec.parallel_us"),
    ("storage.env_snapshot", "storage.env_snapshot_us"),
    ("protocol.encode_request", "protocol.encode_request_us"),
    ("protocol.decode_request", "protocol.decode_request_us"),
    ("protocol.encode_response", "protocol.encode_response_us"),
    ("protocol.decode_response", "protocol.decode_response_us"),
    ("serve.wire", "serve.wire_us"),
    ("client.request", "client.traced_request_us"),
    ("stratum.run_sql", "stratum.run_sql_us"),
    ("stratum.run_sql_optimized", "stratum.run_sql_optimized_us"),
];

fn run(args: &Args) -> Result<()> {
    let w = args.workload;
    let n = w.templates.len();
    let slot = workload_slot(w);
    let nproc = host::nproc();
    let catalog = w.catalog(args.seed)?;
    let types = w.result_types(&catalog)?;
    let table_rows = table_rows(&catalog)?;
    let mut rec = Recorder::default();
    let mut next_query = 0u64;
    let mut judged: Vec<ClientRun> = Vec::new();

    // Part 1: the wire leg, one client.
    let config = ServerConfig::default();
    let workers = config.scheduler.workers;
    let mut server = serve(catalog.clone(), config)?;
    let addr = server.addr();
    let warmup = if args.quick { 1 } else { w.warmup_rounds };
    let (warm, ()) = run_clients(
        addr,
        w,
        &types,
        1,
        Instant::now(),
        Until::Rounds(warmup),
        || (),
    );
    judged.extend(warm);
    let mut pinger = Client::connect(addr)?;
    repeat(Duration::from_millis(100), TARGET_CALLS, || {
        rec.time("serve.ping", None, 0, slot, || pinger.ping())
    })?;
    drop(pinger);

    // One-second windows, and at least one: long enough for a pass or two
    // of the slow mixes even in smoke mode.
    let untraced_len = Duration::from_secs_f64((args.seconds * UNTRACED_SHARE).max(1.0));
    let windows = untraced_len.as_secs() as usize;
    let origin = Instant::now();
    let (untraced, marks) = run_clients(
        addr,
        w,
        &types,
        1,
        origin,
        Until::Deadline(origin + untraced_len),
        || watch(origin, untraced_len / windows as u32, windows),
    );
    let untraced_elapsed = origin.elapsed();
    let untraced_samples: Vec<_> = untraced
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let verify: Duration = untraced.iter().map(|r| r.verify).sum();
    judged.extend(untraced);
    let client = summarize(&untraced_samples, &marks).ok_or_else(|| Error::Plan {
        reason: "untraced wire leg: no operation completed inside a window".into(),
    })?;

    let traced_len = Duration::from_secs_f64(args.seconds * TRACED_SHARE);
    let origin = Instant::now();
    let traced_start = Mark::now(origin);
    let stream = TcpStream::connect(addr).map_err(io_err)?;
    stream.set_nodelay(true).map_err(io_err)?;
    let traced = client_loop(
        TracedConn {
            stream,
            rec: &mut rec,
            next_query: &mut next_query,
            write_slot: slot,
        },
        w,
        &types,
        0,
        origin,
        Until::Deadline(origin + traced_len),
    );
    let traced_end = Mark::now(origin);
    let traced_samples = traced.samples.clone();
    judged.push(traced);
    server.stop();

    // Parts 2 and 3: replay and probes, against the same catalog.
    let probes_start = Mark::now(origin);
    let spent = UNTRACED_SHARE + TRACED_SHARE;
    let budget = Duration::from_secs_f64(args.seconds * (1.0 - spent));
    let storage_budget = budget.mul_f64(0.1);
    let template_budget = (budget - storage_budget) / n as u32;
    let mut probes = Probes {
        w,
        catalog: &catalog,
        types: &types,
        scheduler: Scheduler::new(SchedulerConfig::default()),
        nproc,
        rec,
        next_query,
        tally: ClientRun::new(n),
        counts: vec![Vec::new(); n],
        operators: vec![Json::Null; n],
        timed_out: vec![Vec::new(); n],
    };
    for t in 0..n {
        probes.template(t, template_budget)?;
    }
    probes.storage(args.seed, storage_budget)?;
    for t in 0..n {
        probes.optimizer(
            t,
            template_budget.mul_f64(BOX_SHARE),
            template_budget.mul_f64(ENGINE_SHARE),
        )?;
    }
    probes.scheduler.shutdown();
    let probes_end = Mark::now(origin);
    judged.push(std::mem::take(&mut probes.tally));

    // Judge every response seen, wire and replay alike.
    let oracle = w.oracle(args.seed)?;
    let verdict = judge(&judged, &oracle);
    let attempted = verdict.attempted;
    let failed = verdict.errored + verdict.wrong;

    // Assemble the metrics.
    let mut report = Report::default();
    for (span, metric) in DURATION_METRICS {
        report.push_opt(metric, probes.mix_median(span), "us");
    }
    for (span, metric) in [
        ("storage.insert", "storage.insert_us"),
        ("storage.delete", "storage.delete_us"),
        ("storage.stats", "storage.stats_us"),
        ("serve.ping", "serve.ping_rtt_us"),
    ] {
        report.push_opt(metric, probes.rec.median(slot, span).map(|m| m.0), "us");
    }
    for (count, unit) in [
        ("optimizer.plans_explored", "count"),
        ("stage.stages_per_query", "count"),
        ("exec.operator_share", "share"),
        ("exec.rows_in", "rows"),
        ("exec.rows_out", "rows"),
        ("protocol.response_bytes", "bytes"),
        ("stratum.bytes_transferred", "bytes"),
    ] {
        report.push_opt(count, probes.mix_count(count), unit);
    }
    // Initial-plan time over optimized-plan time, as totals over the
    // templates whose optimization returned inside its box.
    let (mut initial, mut optimized) = (0.0, 0.0);
    for t in 0..n {
        if let (Some(a), Some(b)) = (
            probes.rec.median(t, "exec.batch"),
            probes.rec.median(t, "exec.batch_optimized"),
        ) {
            initial += a.0;
            optimized += b.0;
        }
    }
    if optimized > 0.0 {
        report.push("optimizer.plan_gain", initial / optimized, "ratio");
    }
    if let (Some(run), Some(cold)) = (report.get("sched.run_us"), report.get("exec.batch_cold_us"))
    {
        // Like for like: the scheduler, too, runs on a fresh environment.
        report.push("sched.overhead_us", run - cold, "us");
    }
    if nproc > 1 {
        if let (Some(parallel), Some(batch)) =
            (report.get("exec.parallel_us"), report.get("exec.batch_us"))
        {
            report.push("exec.parallel_over_batch", parallel / batch, "ratio");
        }
    } else {
        println!(
            "{:<15} exec.parallel_over_batch refused: nproc is 1",
            w.name
        );
    }
    if let (Some(wire), Some(ping)) = (report.get("serve.wire_us"), report.get("serve.ping_rtt_us"))
    {
        report.push("serve.server_side_us", wire - ping, "us");
    }
    // Attribution, at one client, reads only: what the layer medians add
    // up to against what the client saw. The residue is named, not hidden;
    // closing it needs spans inside the program.
    let served: Option<f64> = SERVED_PATH.iter().map(|span| probes.mix_median(span)).sum();
    if let (Some(served), Some(encode), Some(decode), Some(ping), Some(observed)) = (
        served,
        report.get("protocol.encode_request_us"),
        report.get("protocol.decode_response_us"),
        report.get("serve.ping_rtt_us"),
        report.get("client.traced_request_us"),
    ) {
        let attributed = served + encode + decode + ping;
        report.push(
            "attribution.attributed_share",
            attributed / observed,
            "share",
        );
        report.push("attribution.unattributed_us", observed - attributed, "us");
    }
    report.push("client.latency_p50_us", client.latency_p50_us.value, "us");
    report.push("client.latency_p90_us", client.latency_p90_us.value, "us");
    if let Some((pct, value)) = client.tail {
        report.push(format!("client.latency_p{pct}_us"), value, "us");
    }
    report.push("client.latency_max_us", client.latency_max_us, "us");
    report.push_opt("client.read_p50_us", client.read_p50_us, "us");
    report.push_opt("client.write_p50_us", client.write_p50_us, "us");
    report.push("client.window_spread", client.window_spread, "share");
    report.push_opt("client.granted_share", client.granted_mean, "share");
    report.push("client.stall_windows", client.stall_windows as f64, "count");
    report.push(
        "client.verify_share",
        verify.as_secs_f64() / untraced_elapsed.as_secs_f64(),
        "share",
    );
    report.push("client.samples", client.samples as f64, "count");
    // Tracing overhead: the traced stretch's median operation against the
    // untraced stretch's, both as measured (raw), one after the other.
    let mut traced_latencies: Vec<f64> = traced_samples.iter().map(|s| s.latency_us).collect();
    stats::sort(&mut traced_latencies);
    if let Some(traced_p50) = stats::percentile(&traced_latencies, 50.0) {
        let untraced_p50 = client.latency_p50_us.raw_median;
        report.push(
            "trace.overhead_pct",
            (traced_p50 - untraced_p50) / untraced_p50 * 100.0,
            "%",
        );
    }
    // Layer timings are raw wall-clock medians: these say how disturbed
    // the host was while they were taken.
    report.push_opt(
        "trace.granted_share",
        traced_start.granted_until(&traced_end),
        "share",
    );
    report.push_opt(
        "probes.granted_share",
        probes_start.granted_until(&probes_end),
        "share",
    );
    report.push("trace.spans", probes.rec.len() as f64, "count");
    report.push(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );

    println!(
        "== layers {}: seed {}, 1 client, {:.1} s budget, nproc {}, {} scheduler worker(s), commit {}",
        w.name, args.seed, args.seconds, nproc, workers, args.commit
    );
    report.print(w.name);
    // Per template: what the client saw, what the scheduler and the batch
    // engine took, and the operator the batch engine spent longest in.
    for (t, template) in w.templates.iter().enumerate() {
        let us = |span| probes.rec.median(t, span).map_or(f64::NAN, |m| m.0);
        let top = match &probes.operators[t] {
            Json::Arr(ops) => ops.first().map(Json::render).unwrap_or_default(),
            _ => String::new(),
        };
        println!(
            "{:<15} template {:<26} client {:>10.0} us  sched.run {:>10.0} us  exec.batch {:>10.0} us  top {top}",
            w.name,
            template.name,
            us("client.request"),
            us("sched.run"),
            us("exec.batch"),
        );
    }
    for (t, template) in w.templates.iter().enumerate() {
        for metric in &probes.timed_out[t] {
            println!(
                "{:<15} {metric} on {} is a lower bound: timed_out",
                w.name, template.name
            );
        }
    }
    verdict.print(w.name);

    // The detail file: every template's medians with their call counts.
    let per_template = Json::Arr(
        w.templates
            .iter()
            .enumerate()
            .map(|(t, template)| {
                let mut spans = Vec::new();
                for (span, metric) in DURATION_METRICS {
                    if let Some((median, calls)) = probes.rec.median(t, span) {
                        spans.push((
                            metric.to_string(),
                            Json::obj([
                                ("median_us", Json::Num(median)),
                                ("calls", Json::Int(calls as i64)),
                            ]),
                        ));
                    }
                }
                let mut counts: Vec<(String, Json)> = Vec::new();
                for (name, value) in &probes.counts[t] {
                    if !counts.iter().any(|(k, _)| k == name) {
                        counts.push((name.to_string(), Json::Num(*value)));
                    }
                }
                Json::obj([
                    ("name", Json::str(template.name)),
                    ("sql", Json::str(template.sql)),
                    ("reference_rows", Json::Int(oracle[t].rows as i64)),
                    ("spans", Json::Obj(spans)),
                    ("counts", Json::Obj(counts)),
                    (
                        "timed_out",
                        Json::Arr(probes.timed_out[t].iter().map(|m| Json::str(*m)).collect()),
                    ),
                    ("batch_operators", probes.operators[t].clone()),
                ])
            })
            .collect(),
    );
    let provenance = provenance(args, nproc, workers, &table_rows);
    let detail = Json::obj([
        ("provenance", provenance.clone()),
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", report.to_json()),
        ("client_windows", client.windows_json()),
        ("templates", per_template),
    ]);
    host::write_json(&args.out, &format!("layers_{}.json", w.name), &detail);
    host::write_json(
        &args.out,
        &format!("trace_{}.json", w.name),
        &probes.rec.to_chrome_json(provenance),
    );

    let line = report
        .result_line(&PER_LAYER, failed == 0, attempted, failed)
        .map_err(|reason| Error::Plan { reason })?;
    println!("{line}");
    Ok(())
}
