//! End-to-end run of one workload: closed-loop clients against an
//! in-process `tqo_serve::serve` over real TCP, tracing off.
//!
//! This binary touches only the server's front door, the storage
//! generator and (through the library's oracle) the reference
//! interpreter, so a refactor of inner entry points cannot break the
//! numbers later changes are judged by.

use std::time::{Duration, Instant};

use tqo_benchmark::args::Args;
use tqo_benchmark::driver::{judge, run_clients, ClientRun, Until};
use tqo_benchmark::host;
use tqo_benchmark::json::Json;
use tqo_benchmark::report::{provenance, Report, END_TO_END};
use tqo_benchmark::stats;
use tqo_benchmark::windows::{summarize, watch, Mark};
use tqo_benchmark::workloads::{table_rows, CHURN_TABLE};
use tqo_core::error::{Error, Result};
use tqo_serve::{serve, ServerConfig};

/// Set-ups per run; `setup_s` is their median, so one slow start (a cold
/// page cache, a neighbour) does not decide it.
const SETUPS: usize = 3;

fn main() {
    let args = Args::from_env();
    // Exit 0 whenever a result line was printed: `correct` and `failed`
    // carry the verdict, the exit code only says the benchmark itself ran.
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: e2e {}: {e}", args.workload.name);
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<()> {
    let w = args.workload;
    let nproc = host::nproc();
    let clients = w.client_count(nproc);
    let config = ServerConfig::default();
    let workers = config.scheduler.workers;
    let windows = args.windows();
    let window = Duration::from_secs_f64(args.seconds / windows as f64);
    let (setups, warmup_rounds) = if args.quick {
        (1, (w.warmup_rounds / 10).max(1))
    } else {
        (SETUPS, w.warmup_rounds)
    };

    let probe_catalog = w.catalog(args.seed)?;
    let types = w.result_types(&probe_catalog)?;
    let table_rows = table_rows(&probe_catalog)?;
    drop(probe_catalog);

    // Set-up, several times over: generate the data, start the server,
    // connect, and run a fixed amount of warm-up work. The last one stays
    // up for the measurement.
    let mut judged: Vec<ClientRun> = Vec::new();
    let mut setup_raw = Vec::new();
    let mut live = None;
    for _ in 0..setups {
        drop(live.take());
        let start = Instant::now();
        let before = Mark::now(start);
        let catalog = w.catalog(args.seed)?;
        let server = serve(catalog.clone(), config.clone())?;
        let (warm, ()) = run_clients(
            server.addr(),
            w,
            &types,
            clients,
            start,
            Until::Rounds(warmup_rounds),
            || (),
        );
        let after = Mark::now(start);
        setup_raw.push((after.at.as_secs_f64(), before.granted_until(&after)));
        judged.extend(warm);
        live = Some((server, catalog));
    }
    let (mut server, catalog) = live.expect("at least one set-up");

    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(args.seconds);
    let (measured, marks) = run_clients(
        server.addr(),
        w,
        &types,
        clients,
        origin,
        Until::Deadline(deadline),
        || watch(origin, window, windows),
    );
    let elapsed = origin.elapsed();
    server.stop();

    let samples: Vec<_> = measured
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let summary = summarize(&samples, &marks).ok_or_else(|| Error::Plan {
        reason: "no operation completed inside a window".into(),
    })?;
    let verify: Duration = measured.iter().map(|r| r.verify).sum();
    judged.extend(measured);

    // Every pair deletes what it inserted, so the table ends as it began.
    let mut leaked_rows = 0u64;
    if w.churn {
        let before = table_rows
            .iter()
            .find(|(n, _)| n == CHURN_TABLE)
            .map_or(0, |(_, rows)| *rows);
        leaked_rows = catalog.get(CHURN_TABLE)?.len().abs_diff(before) as u64;
    }
    drop(catalog);

    // The oracle runs only now, after the last window's peak was read: the
    // interpreter materializes whole products, and its memory is the
    // benchmark's, not the server's.
    let oracle_start = Instant::now();
    let oracle = w.oracle(args.seed)?;
    let oracle_s = oracle_start.elapsed().as_secs_f64();
    let verdict = judge(&judged, &oracle);
    let attempted = verdict.attempted;
    let failed = verdict.errored + verdict.wrong + leaked_rows;
    let correct = failed == 0;

    // Set-up is the same kind of work as the run, so its time follows the
    // inverse of the run's throughput law: read at a full grant likewise.
    let slope = summary.throughput_qps.slope;
    let setup_s: Vec<f64> = setup_raw
        .iter()
        .map(|(seconds, granted)| seconds * granted.map_or(1.0, |g| g.powf(slope)))
        .collect();
    let setup_raw_s: Vec<f64> = setup_raw.iter().map(|s| s.0).collect();

    // Each timing: the value at a full grant under its metric name, the
    // raw median and the fitted exponent beside it.
    let mut report = Report::default();
    let timings = [
        ("throughput_qps", Some(summary.throughput_qps), "1/s"),
        ("latency_p50_us", Some(summary.latency_p50_us), "us"),
        ("client.latency_p90_us", Some(summary.latency_p90_us), "us"),
        ("cpu_us_per_request", summary.cpu_us_per_request, "us"),
    ];
    for (name, timing, unit) in timings {
        report.push_opt(name, timing.map(|t| t.value), unit);
    }
    report.push_opt("setup_s", stats::median(&setup_s), "s");
    report.push_opt("peak_rss_mb", summary.peak_rss_mb, "MiB");
    report.push(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );
    for (name, timing, unit) in timings {
        let bare = name.trim_start_matches("client.");
        report.push_opt(
            format!("client.raw_{bare}"),
            timing.map(|t| t.raw_median),
            unit,
        );
        report.push_opt(
            format!("client.slope_{bare}"),
            timing.map(|t| t.slope),
            "exponent",
        );
    }
    report.push_opt("client.raw_setup_s", stats::median(&setup_raw_s), "s");
    report.push_opt("client.granted_share", summary.granted_mean, "share");
    if let Some((pct, value)) = summary.tail {
        report.push(format!("client.latency_p{pct}_us"), value, "us");
    }
    report.push("client.latency_max_us", summary.latency_max_us, "us");
    report.push_opt("client.read_p50_us", summary.read_p50_us, "us");
    report.push_opt("client.write_p50_us", summary.write_p50_us, "us");
    report.push("client.window_spread", summary.window_spread, "share");
    report.push(
        "client.stall_windows",
        summary.stall_windows as f64,
        "count",
    );
    report.push(
        "client.verify_share",
        verify.as_secs_f64() / (elapsed.as_secs_f64() * clients as f64),
        "share",
    );
    report.push("client.samples", summary.samples as f64, "count");
    report.push("client.oracle_s", oracle_s, "s");

    println!(
        "== e2e {}: seed {}, {} client(s), {} x {:.2} s windows, nproc {}, {} scheduler worker(s), commit {}",
        w.name,
        args.seed,
        clients,
        windows,
        window.as_secs_f64(),
        nproc,
        workers,
        args.commit
    );
    for (name, rows) in &table_rows {
        println!("{:<15} table {name}: {rows} rows", w.name);
    }
    report.print(w.name);
    verdict.print(w.name);

    let detail = Json::obj([
        ("provenance", provenance(args, nproc, workers, &table_rows)),
        (
            "load",
            Json::obj([
                (
                    "shape",
                    Json::str("closed loop, one request in flight per connection"),
                ),
                ("clients", Json::Int(clients as i64)),
                ("windows", Json::Int(windows as i64)),
                ("window_s", Json::Num(window.as_secs_f64())),
                ("warmup_rounds", Json::Int(warmup_rounds as i64)),
                ("setups", Json::Int(setups as i64)),
            ]),
        ),
        (
            "templates",
            Json::Arr(
                w.templates
                    .iter()
                    .zip(&oracle)
                    .map(|(t, d)| {
                        Json::obj([
                            ("name", Json::str(t.name)),
                            ("sql", Json::str(t.sql)),
                            ("reference_rows", Json::Int(d.rows as i64)),
                            ("reference_digest", Json::str(format!("{:016x}", d.hash))),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        (
            "failed",
            Json::obj([
                ("errored_or_refused", Json::Int(verdict.errored as i64)),
                ("wrong_rows", Json::Int(verdict.wrong as i64)),
                ("leaked_scratch_rows", Json::Int(leaked_rows as i64)),
            ]),
        ),
        ("metrics", report.to_json()),
        (
            "samples",
            Json::obj([
                ("operations_in_windows", Json::Int(summary.samples as i64)),
                ("setup_s", Json::Int(setup_s.len() as i64)),
            ]),
        ),
        ("windows", summary.windows_json()),
        ("setup_s_values", Json::nums(&setup_s)),
        ("setup_raw_s_values", Json::nums(&setup_raw_s)),
    ]);
    host::write_json(&args.out, &format!("e2e_{}.json", w.name), &detail);

    let line = report
        .result_line(&END_TO_END, correct, attempted, failed)
        .map_err(|reason| Error::Plan { reason })?;
    println!("{line}");
    Ok(())
}
