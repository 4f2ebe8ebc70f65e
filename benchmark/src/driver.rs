//! The closed-loop client: one connection, one request in flight.
//!
//! The wire protocol is strictly request → response per connection, so a
//! caller that waits for each reply is the load real callers produce. A
//! slow server receives less load; that is stated, not hidden.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tqo_core::equivalence::ResultType;
use tqo_core::error::Result;
use tqo_core::relation::Relation;
use tqo_core::time::Period;
use tqo_core::value::Value;
use tqo_serve::Client;

use crate::digest::{digest, Digest};
use crate::workloads::{scratch_key, Unit, Workload, CHURN_TABLE, SCRATCH_DEPT};

/// One connection to the server, as the closed loop uses it. `Client` is
/// the connection every end-to-end number is measured through; the traced
/// run substitutes one that records a span around each step.
pub trait Conn {
    /// Run template number `template`, whose text is `sql`.
    fn query(&mut self, template: usize, sql: &str) -> Result<Relation>;
    /// Sequenced insert of one row valid over `period`.
    fn insert(&mut self, table: &str, values: Vec<Value>, period: Period) -> Result<()>;
    /// Sequenced delete of rows matching `column = value` over `period`.
    fn delete(&mut self, table: &str, column: &str, value: Value, period: Period) -> Result<()>;
}

impl Conn for Client {
    fn query(&mut self, _template: usize, sql: &str) -> Result<Relation> {
        Client::query(self, sql)
    }
    fn insert(&mut self, table: &str, values: Vec<Value>, period: Period) -> Result<()> {
        Client::insert(self, table, values, period)
    }
    fn delete(&mut self, table: &str, column: &str, value: Value, period: Period) -> Result<()> {
        Client::delete(self, table, column, value, period)
    }
}

/// What kind of operation a sample timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One query.
    Read,
    /// One sequenced insert+delete pair.
    Write,
    /// One pass over every template.
    Pass,
}

/// One completed, timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it completed, measured from the loop's `origin`.
    pub end: Duration,
    /// Client-observed latency in µs: from before `encode_request` to
    /// after `decode_response`, summed over the requests of a pass.
    pub latency_us: f64,
    /// What it was.
    pub kind: Kind,
    /// Requests it stands for in `throughput_qps`.
    pub requests: u32,
}

/// When a client loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many rounds over the mix (set-up's warm-up).
    Rounds(usize),
    /// At the first operation boundary past this instant.
    Deadline(Instant),
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    /// Completed operations, in completion order.
    pub samples: Vec<Sample>,
    /// Per template, every distinct response digest with its count. The
    /// oracle judges them after the run, so the interpreter's memory
    /// never shows in the measured process's peak.
    pub seen: Vec<Vec<(Digest, u64)>>,
    /// Requests attempted (a pair counts once).
    pub attempted: u64,
    /// Requests that errored or were refused. No silent retry.
    pub errored: u64,
    /// First error text, for the report.
    pub first_error: Option<String>,
    /// Time spent digesting responses between requests.
    pub verify: Duration,
}

impl ClientRun {
    /// An empty tally for `templates` templates.
    pub fn new(templates: usize) -> ClientRun {
        ClientRun {
            seen: vec![Vec::new(); templates],
            ..ClientRun::default()
        }
    }

    /// Count one response to template `t` whose digest is `d`.
    pub fn tally(&mut self, t: usize, d: Digest) {
        match self.seen[t].iter_mut().find(|(seen, _)| *seen == d) {
            Some((_, count)) => *count += 1,
            None => self.seen[t].push((d, 1)),
        }
    }

    /// A run that never got a connection: one attempt, one failure.
    fn refused(error: String) -> ClientRun {
        ClientRun {
            attempted: 1,
            errored: 1,
            first_error: Some(error),
            ..ClientRun::default()
        }
    }
}

/// Consecutive failures after which a client gives up instead of
/// spinning against a dead server.
const MAX_CONSECUTIVE_FAILURES: u32 = 50;

/// Drive `workload` over one connection until `until`.
///
/// `client` numbers the connection: it staggers the round-robin start so
/// two clients do not march in lockstep, and names the scratch key.
pub fn client_loop(
    mut conn: impl Conn,
    workload: &Workload,
    types: &[ResultType],
    client: usize,
    origin: Instant,
    until: Until,
) -> ClientRun {
    let n = workload.templates.len();
    let mut run = ClientRun::new(n);
    let scratch = scratch_key(client);
    let period = Period::of(1, 5);
    let mut consecutive = 0u32;
    let mut next = client % n;
    let mut ops = 0usize;
    // Operations per round: every template once, and on a churn mix as
    // many pairs again.
    let ops_per_round = match (workload.unit, workload.churn) {
        (Unit::Pass, _) => 1,
        (Unit::Request, false) => n,
        (Unit::Request, true) => 2 * n,
    };
    loop {
        match until {
            Until::Rounds(r) if ops >= r * ops_per_round => break,
            Until::Deadline(d) if Instant::now() >= d => break,
            _ => {}
        }
        if consecutive >= MAX_CONSECUTIVE_FAILURES {
            break;
        }
        let is_write = workload.churn && ops % 2 == 1;
        ops += 1;
        let mut latency = Duration::ZERO;
        let mut ok = true;
        let (kind, requests) = if is_write {
            run.attempted += 1;
            let start = Instant::now();
            let result = conn
                .insert(
                    CHURN_TABLE,
                    vec![Value::from(scratch.as_str()), Value::from(SCRATCH_DEPT)],
                    period,
                )
                .and_then(|()| {
                    conn.delete(
                        CHURN_TABLE,
                        "EmpName",
                        Value::from(scratch.as_str()),
                        period,
                    )
                });
            latency += start.elapsed();
            if let Err(e) = result {
                ok = false;
                run.errored += 1;
                run.first_error.get_or_insert_with(|| e.to_string());
            }
            (Kind::Write, 1)
        } else {
            let batch = match workload.unit {
                Unit::Pass => 0..n,
                Unit::Request => {
                    let t = next;
                    next = (next + 1) % n;
                    t..t + 1
                }
            };
            let requests = batch.len() as u32;
            for t in batch {
                run.attempted += 1;
                let start = Instant::now();
                let result = conn.query(t, workload.templates[t].sql);
                latency += start.elapsed();
                let verify = Instant::now();
                match result.and_then(|rows| digest(&rows, &types[t])) {
                    Ok(d) => run.tally(t, d),
                    Err(e) => {
                        ok = false;
                        run.errored += 1;
                        run.first_error.get_or_insert_with(|| e.to_string());
                    }
                }
                run.verify += verify.elapsed();
            }
            let kind = match workload.unit {
                Unit::Pass => Kind::Pass,
                Unit::Request => Kind::Read,
            };
            (kind, requests)
        };
        if ok {
            consecutive = 0;
            // A failed operation has no latency: it counts as a failure,
            // not as a fast answer.
            run.samples.push(Sample {
                end: origin.elapsed(),
                latency_us: latency.as_secs_f64() * 1e6,
                kind,
                requests,
            });
        } else {
            consecutive += 1;
        }
    }
    run
}

/// Run `clients` loops concurrently against `addr` and collect them,
/// with `meanwhile` running on the calling thread while they do.
pub fn run_clients<T>(
    addr: SocketAddr,
    workload: &Workload,
    types: &[ResultType],
    clients: usize,
    origin: Instant,
    until: Until,
    meanwhile: impl FnOnce() -> T,
) -> (Vec<ClientRun>, T) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || match Client::connect(addr) {
                    Ok(conn) => client_loop(conn, workload, types, c, origin, until),
                    Err(e) => ClientRun::refused(e.to_string()),
                })
            })
            .collect();
        let watched = meanwhile();
        let runs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, watched)
    })
}

/// The oracle's judgement over every response a set of runs saw.
#[derive(Debug)]
pub struct Verdict {
    /// Requests attempted (a pair counts once).
    pub attempted: u64,
    /// Requests that errored or were refused.
    pub errored: u64,
    /// Responses whose digest differs from the interpreter's.
    pub wrong: u64,
    /// First error text seen.
    pub first_error: Option<String>,
}

/// Judge `runs` against `oracle` (one digest per template).
pub fn judge(runs: &[ClientRun], oracle: &[Digest]) -> Verdict {
    Verdict {
        attempted: runs.iter().map(|r| r.attempted).sum(),
        errored: runs.iter().map(|r| r.errored).sum(),
        wrong: runs
            .iter()
            .flat_map(|r| r.seen.iter().zip(oracle))
            .flat_map(|(seen, want)| seen.iter().filter(move |(got, _)| got != want))
            .map(|(_, count)| *count)
            .sum(),
        first_error: runs.iter().find_map(|r| r.first_error.clone()),
    }
}

impl Verdict {
    /// Say what went wrong, if anything did.
    pub fn print(&self, workload: &str) {
        if let Some(e) = &self.first_error {
            println!("{workload:<15} first error: {e}");
        }
        if self.wrong > 0 {
            println!(
                "{workload:<15} {} response(s) differ from the interpreter",
                self.wrong
            );
        }
    }
}
