//! The concurrent TCP server: sessions, dispatch, graceful shutdown.

use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};

use tqo_core::context::QueryContext;
use tqo_core::error::{Error, Result};
use tqo_core::expr::Expr;
use tqo_core::trace::counters;
use tqo_exec::{Scheduler, SchedulerConfig, SubmitOptions};
use tqo_storage::Catalog;
use tqo_stratum::fault::FaultInjector;
use tqo_stratum::FaultConfig;

use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::protocol::{
    decode_request, encode_response, encode_response_faulted, encode_response_into, write_frame,
    Request, Response,
};

/// How often a session's blocked read re-checks the shutdown flag (and
/// the accept loop's back-off after a failed `accept`). Purely a
/// drain-latency knob; correctness never depends on it.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// Largest request frame a session accepts. A request is one SQL string
/// or one row, far below this; the cap keeps a client's length header from
/// sizing the server's allocation.
const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Scheduler sizing shared by every connection's queries.
    pub scheduler: SchedulerConfig,
    /// Seeded wire faults injected into responses (chaos legs only):
    /// `should_error` fails a query with an injected typed error,
    /// `should_truncate` mutilates the row payload inside an intact
    /// frame.
    pub faults: Option<FaultConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            scheduler: SchedulerConfig::default(),
            faults: None,
        }
    }
}

/// A running server. Dropping it (or calling [`Server::stop`]) stops
/// accepting, drains in-flight sessions, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    plans: Arc<PlanCache>,
    accept: Option<thread::JoinHandle<()>>,
}

/// Everything a session thread needs, shared across connections.
struct Inner {
    catalog: Catalog,
    scheduler: Scheduler,
    plans: Arc<PlanCache>,
    faults: Option<FaultInjector>,
    shutdown: Arc<AtomicBool>,
    /// The listener's address, for the session that answers a shutdown
    /// request to wake the accept loop.
    addr: SocketAddr,
}

/// Bind and start serving `catalog` — returns once the listener is
/// accepting. Queries execute through the server's own multi-query
/// [`Scheduler`], each session thread running its query's stages itself
/// whenever a slot is free, on the plan the server's plan cache holds for
/// the statement and the current versions of its tables (compiled on a
/// miss); mutations go through the catalog's sequenced primitives. Results
/// are byte-identical to serial single-query runs (ARCHITECTURE invariant
/// 16). A scheduler without workers has no slot to run a query in, so
/// `workers: 0` is refused.
pub fn serve(catalog: Catalog, config: ServerConfig) -> Result<Server> {
    if config.scheduler.workers == 0 {
        return Err(Error::Unsupported {
            construct: "a server whose scheduler has no worker to run its queries".into(),
        });
    }
    let listener = TcpListener::bind(&config.addr).map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let plans = Arc::new(PlanCache::default());
    let inner = Arc::new(Inner {
        catalog,
        scheduler: Scheduler::new(config.scheduler.clone()),
        plans: Arc::clone(&plans),
        faults: config.faults.map(FaultInjector::new),
        shutdown: Arc::clone(&shutdown),
        addr,
    });
    let accept = thread::Builder::new()
        .name("tqo-serve-accept".into())
        .spawn(move || accept_loop(listener, inner))
        .map_err(|e| Error::Storage {
            reason: format!("serve: spawn accept loop: {e}"),
        })?;
    Ok(Server {
        addr,
        shutdown,
        plans,
        accept: Some(accept),
    })
}

impl Server {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hits, misses and entries of this server's plan cache so far.
    pub fn plan_cache(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Block until the server exits on its own — i.e. until a client's
    /// shutdown request flips the flag (the stand-alone binary's run
    /// loop). Unlike [`Server::stop`], this does not initiate shutdown.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Stop accepting, drain in-flight sessions, join every thread.
    /// Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            wake(self.addr);
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn io_err(e: std::io::Error) -> Error {
    Error::Storage {
        reason: format!("serve io: {e}"),
    }
}

/// Wake an accept loop blocked in `accept` by connecting to it (over
/// loopback when it listens on an unspecified address); the loop sees the
/// shutdown flag, set before this call, and drops the connection.
fn wake(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        let loopback: IpAddr = if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        };
        addr.set_ip(loopback);
    }
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
    let mut next_session = 0u64;
    loop {
        reap_ended(&mut sessions);
        let accepted = listener.accept();
        // Set before the wake-up connection arrives, so a connection
        // accepted after shutdown is never served.
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                counters::SERVE_CONNECTIONS.incr();
                let inner = Arc::clone(&inner);
                let id = next_session;
                next_session += 1;
                let handle = thread::Builder::new()
                    .name(format!("tqo-serve-session-{id}"))
                    .spawn(move || {
                        session(stream, &inner);
                        inner.plans.end_session();
                    })
                    .expect("spawn session thread");
                sessions.push(handle);
            }
            // A failed accept (say, out of file descriptors): back off
            // rather than spin, then try again.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
    // Drain: sessions observe the flag at their next read poll and
    // return; then the shared scheduler finishes resident queries.
    for h in sessions {
        let _ = h.join();
    }
    inner.scheduler.shutdown();
}

/// Join the sessions whose threads have returned: an exited thread's
/// stack stays mapped until it is joined, so a long-lived server would
/// otherwise keep one per connection it ever served.
fn reap_ended(sessions: &mut Vec<thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < sessions.len() {
        if sessions[i].is_finished() {
            let _ = sessions.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// One connection: sequential request/response frames until EOF, a fatal
/// transport error, or server shutdown. Every response is encoded into
/// one buffer the session keeps, so its pages are faulted in once.
fn session(stream: TcpStream, inner: &Inner) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    let mut frame = BytesMut::with_capacity(64);
    loop {
        let payload = match read_frame(&mut stream, &inner.shutdown) {
            Ok(Some(p)) => p,
            Ok(None) => return, // EOF or shutdown drain.
            // An oversized frame is answered, typed; its payload stays
            // unread, so the stream cannot resynchronize and closes.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                let fail = Response::Fail(Error::Storage {
                    reason: format!("serve wire: {e}"),
                });
                let _ = write_frame(&mut stream, &encode_response(&fail));
                return;
            }
            Err(_) => return, // Transport failure; session over.
        };
        counters::SERVE_REQUESTS.incr();
        // A panic while answering (in compile, bind, lower, a stage this
        // thread runs, or encode) fails this request alone: the client
        // gets the typed `Error::Internal` and the connection serves on.
        let answered = panic::catch_unwind(AssertUnwindSafe(|| {
            let (resp, shutdown_after) = match decode_request(payload) {
                Ok(Request::Shutdown) => (Response::Done, true),
                Ok(req) => (handle(req, inner), false),
                // A malformed request still gets a framed, typed answer.
                Err(e) => (Response::Fail(e), false),
            };
            encode(&mut frame, resp, inner);
            shutdown_after
        }));
        let shutdown_after = answered.unwrap_or_else(|payload| {
            let fail = Response::Fail(Error::from_panic(payload.as_ref()));
            encode_response_into(&mut frame, &fail);
            false
        });
        if write_frame(&mut stream, &frame).is_err() {
            return;
        }
        if shutdown_after {
            inner.shutdown.store(true, Ordering::SeqCst);
            wake(inner.addr);
            return;
        }
    }
}

/// Encode a response into `frame`, routing `Rows` through the fault
/// injector when one is configured.
fn encode(frame: &mut BytesMut, resp: Response, inner: &Inner) {
    match (&resp, &inner.faults) {
        (Response::Rows(_), Some(f)) if f.should_truncate() => {
            counters::FAULTS_INJECTED.incr();
            frame.clear();
            frame.put_slice(&encode_response_faulted(&resp, |b| f.truncate(b)));
        }
        _ => encode_response_into(frame, &resp),
    }
}

/// Execute one request. Every failure path returns a typed
/// [`Response::Fail`]; a panic is caught by the session.
fn handle(req: Request, inner: &Inner) -> Response {
    match run(req, inner) {
        Ok(resp) => resp,
        Err(e) => Response::Fail(e),
    }
}

fn run(req: Request, inner: &Inner) -> Result<Response> {
    match req {
        Request::Ping => Ok(Response::Pong),
        Request::Shutdown => Ok(Response::Done), // Handled in `session`.
        Request::Query {
            sql,
            mode: _,
            timeout_ms,
            memory_limit,
            cancel_polls,
        } => {
            #[cfg(test)]
            tests::panic_if_marked(&sql);
            // Injected pre-execution fault: the same transient shape the
            // stratum link produces, surfaced typed to the client.
            if let Some(f) = &inner.faults {
                if f.should_error() {
                    counters::FAULTS_INJECTED.incr();
                    return Err(Error::Storage {
                        reason: "injected serve fault (transient)".into(),
                    });
                }
            }
            let mut ctx = QueryContext::new();
            if timeout_ms > 0 {
                ctx = ctx.with_timeout(Duration::from_millis(timeout_ms));
            }
            if memory_limit > 0 {
                ctx = ctx.with_memory_limit(memory_limit as usize);
            }
            if cancel_polls > 0 {
                ctx = ctx.with_cancel_after(cancel_polls);
            }
            // Pin every table's version at admission. The plan is the one
            // compiled against these versions (cached or fresh), and
            // execution reads this one snapshot, however mutations
            // interleave.
            let snapshot = inner.catalog.snapshot();
            let physical = inner.plans.plan(&sql, &snapshot)?;
            let env = snapshot.env();
            let (rows, _metrics) = inner.scheduler.run(
                &physical,
                &env,
                SubmitOptions {
                    ctx,
                    ..SubmitOptions::default()
                },
            )?;
            Ok(Response::Rows(rows))
        }
        Request::Insert {
            table,
            values,
            period,
        } => {
            inner.catalog.insert_sequenced(&table, values, period)?;
            Ok(Response::Done)
        }
        Request::Delete {
            table,
            column,
            value,
            period,
        } => {
            let predicate = Expr::eq(Expr::col(column), Expr::lit(value));
            inner.catalog.delete_sequenced(&table, &predicate, period)?;
            Ok(Response::Done)
        }
    }
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF before a
/// frame starts or on shutdown drain; short reads inside a frame keep
/// accumulating across timeout polls. A header announcing more than
/// [`MAX_REQUEST_FRAME`] bytes is an `InvalidData` error, raised before
/// anything of that size is allocated.
fn read_frame(stream: &mut TcpStream, shutdown: &AtomicBool) -> std::io::Result<Option<Bytes>> {
    let mut header = [0u8; 4];
    if !read_exact_polling(stream, &mut header, shutdown, true)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_REQUEST_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("request frame of {len} bytes exceeds the {MAX_REQUEST_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    if !read_exact_polling(stream, &mut payload, shutdown, false)? {
        return Ok(None);
    }
    Ok(Some(Bytes::from(payload)))
}

/// Fill `buf`, polling the shutdown flag between timeouts. Returns
/// `false` on EOF-at-start (`allow_eof`) or shutdown with nothing read.
fn read_exact_polling(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    allow_eof: bool,
) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if allow_eof && filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) && filled == 0 {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use tqo_storage::paper;

    /// A query whose text carries this marker panics on the session
    /// thread: the test-only stand-in for a bug in compile or bind.
    const PANIC_MARKER: &str = "__panic_session";

    pub(super) fn panic_if_marked(sql: &str) {
        if sql.contains(PANIC_MARKER) {
            panic!("injected session panic");
        }
    }

    #[test]
    fn a_panicking_request_fails_alone_and_the_connection_serves_on() {
        let catalog = paper::catalog();
        let sql = "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName";
        let plan = tqo_sql::compile(sql, &catalog).unwrap();
        let expected = tqo_core::interp::eval_plan(&plan, &catalog.env()).unwrap();
        let mut server = serve(catalog, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        match client.query(&format!("SELECT EmpName FROM {PANIC_MARKER}")) {
            Err(Error::Internal { reason }) => {
                assert!(reason.contains("injected session panic"), "{reason}")
            }
            other => panic!("expected Error::Internal, got {other:?}"),
        }
        // Same connection, same session thread: the next query answers.
        assert_eq!(client.query(sql).unwrap(), expected);
        server.stop();
    }

    /// The accept loop blocks in `accept`, so a connection is served as
    /// soon as it arrives: a loop that slept 10 ms whenever none was
    /// waiting took over a second for these hundred round trips.
    #[test]
    fn connections_are_accepted_without_polling() {
        let mut server = serve(paper::catalog(), ServerConfig::default()).unwrap();
        let started = std::time::Instant::now();
        for _ in 0..100 {
            Client::connect(server.addr()).unwrap().ping().unwrap();
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "100 connect + ping round trips took {took:?}"
        );
        server.stop();
    }

    /// A shutdown request and `stop` each end a loop blocked in `accept`.
    #[test]
    fn a_blocked_accept_loop_wakes_for_shutdown() {
        let server = serve(paper::catalog(), ServerConfig::default()).unwrap();
        Client::connect(server.addr()).unwrap().shutdown().unwrap();
        server.wait();
        let mut idle = serve(paper::catalog(), ServerConfig::default()).unwrap();
        idle.stop();
        idle.stop();
    }
}
