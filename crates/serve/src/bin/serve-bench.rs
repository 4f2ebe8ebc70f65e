//! Closed-loop serving benchmark: hammers an in-process server with a
//! mixed read+mutation workload at 1, 8, and 64 concurrent clients and
//! writes `BENCH_serve.json` (sustained QPS, p50/p99 latency, error
//! counts, and the server's plan-cache hits and misses per level, next to
//! the query-pool size that bounds the misses: writes that move no base
//! property keep plans, so each client session plans each pool statement
//! at most once; and how many of those misses chose a plan other than the
//! compiled one, and how many searches a budget cut short).
//!
//! Each client thread is closed-loop: connect once, then issue requests
//! back to back for the measured window — ~87% queries drawn round-robin
//! from a fixed SQL pool, ~13% sequenced insert+delete pairs against a
//! scratch `AUDIT` table — recording one latency sample per request.
//! Admission rejections are retried (that is the protocol's contract:
//! back-pressure, not failure) and counted separately.
//!
//! Each level is measured over three consecutive windows, each with fresh
//! client connections. One window on a shared 2-vCPU host moved by up to
//! ~40% between runs, so a level reports the median window's QPS with the
//! min–max across its windows, the median window p50/p99, and the ops,
//! rejections and errors summed over the windows.
//!
//! On a single-core host the QPS across levels measures scheduling
//! overhead, not parallel speedup — `host_parallelism` is committed next
//! to the numbers so they read correctly.
//!
//! Before the levels, `connect_ping_p50_us` times what every client pays
//! once: [`CONNECT_PINGS`] sequential connect + `Ping` round trips on a
//! fresh server, each on a new connection, reported as their median.
//!
//! Usage: `serve-bench [output-path]`; `SERVE_BENCH_SECS` overrides the
//! ~1.5 s measured window (three per level).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tqo_core::error::Error;
use tqo_core::time::Period;
use tqo_core::value::Value;
use tqo_exec::SchedulerConfig;
use tqo_serve::{serve, Client, ServerConfig};
use tqo_storage::paper;

const LEVELS: &[usize] = &[1, 8, 64];

/// Measured windows per level.
const WINDOWS: usize = 3;

/// Sequential connect + `Ping` round trips behind `connect_ping_p50_us`.
const CONNECT_PINGS: usize = 200;

const QUERIES: &[&str] = &[
    "SELECT EmpName FROM EMPLOYEE",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE",
    "SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName",
    "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE T1 >= 2 AND Dept = 'Sales'",
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
    "VALIDTIME SELECT EmpName FROM AUDIT WHERE Dept = 'Sales'",
    "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName, Dept DESC",
];

/// One client thread's tallies.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    ops: u64,
    mutations: u64,
    rejected: u64,
    errors: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn client_loop(addr: std::net::SocketAddr, thread: usize, stop: &AtomicBool) -> Tally {
    let mut tally = Tally::default();
    let Ok(mut client) = Client::connect(addr) else {
        tally.errors += 1;
        return tally;
    };
    let who = format!("bench{thread}");
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let started = Instant::now();
        // Every 8th op is a mutation pair; the rest walk the query pool.
        let result = if i % 8 == 7 {
            tally.mutations += 1;
            client
                .insert(
                    "AUDIT",
                    vec![Value::from(who.as_str()), Value::from("Bench")],
                    Period::of(1, 5),
                )
                .and_then(|()| {
                    client.delete(
                        "AUDIT",
                        "EmpName",
                        Value::from(who.as_str()),
                        Period::of(1, 5),
                    )
                })
        } else {
            client.query(QUERIES[i % QUERIES.len()]).map(|_| ())
        };
        match result {
            Ok(()) => {}
            Err(Error::AdmissionRejected { .. }) => {
                tally.rejected += 1;
                continue; // Back-pressure: retry without counting the op.
            }
            Err(_) => tally.errors += 1,
        }
        tally
            .latencies_us
            .push(started.elapsed().as_micros() as u64);
        tally.ops += 1;
        i += 1;
    }
    tally
}

/// One measured window at one client level.
struct Window {
    qps: f64,
    p50: u64,
    p99: u64,
    ops: u64,
    mutations: u64,
    rejected: u64,
    errors: u64,
}

/// Run `clients` closed-loop client threads against `addr` for `secs`.
fn window(addr: std::net::SocketAddr, clients: usize, secs: f64) -> Window {
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|t| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(addr, t, &stop))
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(secs));
    stop.store(true, Ordering::Relaxed);
    let tallies: Vec<Tally> = threads
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let ops: u64 = tallies.iter().map(|t| t.ops).sum();
    Window {
        qps: ops as f64 / elapsed,
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        ops,
        mutations: tallies.iter().map(|t| t.mutations).sum(),
        rejected: tallies.iter().map(|t| t.rejected).sum(),
        errors: tallies.iter().map(|t| t.errors).sum(),
    }
}

/// The median time of [`CONNECT_PINGS`] sequential connect + `Ping`
/// round trips on a fresh server of the paper catalog, in µs.
fn connect_ping_p50_us() -> u64 {
    let mut server = serve(paper::catalog(), ServerConfig::default()).expect("start server");
    let mut times: Vec<u64> = (0..CONNECT_PINGS)
        .map(|_| {
            let started = Instant::now();
            Client::connect(server.addr())
                .and_then(|mut client| client.ping())
                .expect("connect + ping");
            started.elapsed().as_micros() as u64
        })
        .collect();
    server.stop();
    times.sort_unstable();
    percentile(&times, 0.50)
}

/// The median of an odd number of values.
fn median<T: PartialOrd + Copy>(mut values: Vec<T>) -> T {
    values.sort_by(|a, b| a.partial_cmp(b).expect("comparable"));
    values[values.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".into());
    let secs: f64 = std::env::var("SERVE_BENCH_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.5);

    let connect_ping = connect_ping_p50_us();
    println!("serve-bench: {CONNECT_PINGS} connect + ping round trips -> p50 {connect_ping} us");

    let catalog = paper::catalog();
    catalog
        .register("AUDIT", paper::employee())
        .expect("register scratch table");
    let scheduler = SchedulerConfig::default();
    let workers = scheduler.workers;
    let mut server = serve(
        catalog,
        ServerConfig {
            scheduler,
            ..ServerConfig::default()
        },
    )
    .expect("start bench server");
    let addr = server.addr();

    let mut levels_json = String::new();
    for (li, &clients) in LEVELS.iter().enumerate() {
        let cache_before = server.plan_cache();
        let windows: Vec<Window> = (0..WINDOWS).map(|_| window(addr, clients, secs)).collect();
        let cache_after = server.plan_cache();
        let hits = cache_after.hits - cache_before.hits;
        let misses = cache_after.misses - cache_before.misses;
        let optimized = cache_after.optimized - cache_before.optimized;
        let truncated = cache_after.truncated - cache_before.truncated;
        let qps: Vec<f64> = windows.iter().map(|w| w.qps).collect();
        let (lo, hi) = qps.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &q| {
            (lo.min(q), hi.max(q))
        });
        let qps = median(qps);
        let p50 = median(windows.iter().map(|w| w.p50).collect());
        let p99 = median(windows.iter().map(|w| w.p99).collect());
        let ops: u64 = windows.iter().map(|w| w.ops).sum();
        let mutations: u64 = windows.iter().map(|w| w.mutations).sum();
        let rejected: u64 = windows.iter().map(|w| w.rejected).sum();
        let errors: u64 = windows.iter().map(|w| w.errors).sum();

        println!(
            "serve-bench: {clients:>2} client(s): {ops} ops in {WINDOWS} windows \
             -> median {qps:.0} qps ({lo:.0}–{hi:.0}), p50 {p50} us, p99 {p99} us \
             ({mutations} mutation pairs, {rejected} rejected, {errors} errors; \
             plan cache {hits} hits, {misses} misses, {optimized} optimized, \
             {truncated} truncated)"
        );
        if li > 0 {
            levels_json.push_str(",\n");
        }
        write!(
            levels_json,
            "    {{\"clients\": {clients}, \"ops\": {ops}, \"mutation_pairs\": {mutations}, \
             \"qps\": {qps:.1}, \"qps_min\": {lo:.1}, \"qps_max\": {hi:.1}, \
             \"p50_us\": {p50}, \"p99_us\": {p99}, \
             \"admission_rejected\": {rejected}, \"errors\": {errors}, \
             \"plan_cache_hits\": {hits}, \"plan_cache_misses\": {misses}, \
             \"plan_cache_optimized\": {optimized}, \"plan_cache_truncated\": {truncated}}}"
        )
        .expect("format level");
    }
    server.stop();

    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"host_parallelism\": {host},\n  \
         \"scheduler_workers\": {workers},\n  \"window_secs\": {secs},\n  \
         \"windows_per_level\": {WINDOWS},\n  \"query_pool\": {},\n  \
         \"connect_ping_p50_us\": {connect_ping},\n  \
         \"levels\": [\n{levels_json}\n  ]\n}}\n",
        QUERIES.len()
    );
    std::fs::write(&out_path, json).expect("write BENCH_serve.json");
    println!("serve-bench: wrote {out_path}");
}
