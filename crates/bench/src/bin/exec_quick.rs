//! Quick-mode exec throughput: runs each case's operator a few times on
//! the batch engine and through the reference interpreter's operator, and
//! writes `BENCH_exec.json` (rows/sec per operator, the interpreter's time
//! over the engine's, what one sequenced insert+delete pair costs a stored
//! table, per-operator cardinality-estimation q-errors, what tracing and
//! governance cost when off, and what a decoded result's tuple list costs
//! to build and free) to the current directory —
//! the perf *and* estimation trajectories CI tracks. The `observability`
//! and `governance` blocks are also written standalone as
//! `BENCH_obs.json` and `BENCH_robust.json` for the CI artifacts.
//!
//! Usage: `exec_quick [rows] [output-path]`; `EXEC_QUICK_ROWS` overrides
//! the default of 100_000 rows.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use tqo_bench::{estimation_workload, exec_throughput_workload, ExecCase};
use tqo_core::columnar::ColumnarRelation;
use tqo_core::expr::Expr;
use tqo_core::interp::Env;
use tqo_core::time::Period;
use tqo_core::value::Value;
use tqo_core::{Relation, Schema};
use tqo_exec::{execute_logical, execute_mode, ExecMode, PlannerConfig};
use tqo_storage::{mutation, GenConfig, Table, WorkloadGenerator};

const ITERS: usize = 11;

/// One case timed `ITERS` times, the batch engine and the interpreter's
/// operator interleaved so that both see the same cache and clock state.
struct Timed {
    /// Best batch wall-clock time.
    batch_wall: Duration,
    /// Best batch operator-exclusive time of the case's operator (the
    /// root, or the hash product under `equi_join`'s `σ₌`): the operator
    /// itself, the pipeline's scans, select and result sink excluded.
    batch_op: Duration,
    /// Best time of the interpreter's operator; `None` for a case with no
    /// interpreter timing.
    interp_op: Option<Duration>,
    /// The engine's result, checked against the interpreter's.
    result: Relation,
}

fn time_case(case: &ExecCase, env: &Env) -> Timed {
    let (mut batch_wall, mut batch_op) = (Duration::MAX, Duration::MAX);
    let mut interp_op: Option<Duration> = None;
    let mut result = None;
    for _ in 0..ITERS {
        let started = Instant::now();
        let (out, metrics) =
            execute_mode(&case.plan, env, ExecMode::Batch).expect("benchmark plan executes");
        batch_wall = batch_wall.min(started.elapsed());
        batch_op = batch_op.min(metrics.operators[case.timed_operator()].elapsed);
        let started = Instant::now();
        if let Some(reference) = case.interpret(env) {
            let elapsed = started.elapsed();
            interp_op = Some(interp_op.map_or(elapsed, |best| best.min(elapsed)));
            assert_eq!(
                out, reference,
                "the engine must compute the interpreter's list on {}",
                case.name
            );
        }
        result = Some(out);
    }
    Timed {
        batch_wall,
        batch_op,
        interp_op,
        result: result.expect("ITERS > 0"),
    }
}

/// The storage block: one sequenced insert+delete pair — the write a
/// churning client makes — on a generated `rows`-row temporal table, best
/// of `ITERS`, through a stored [`Table`] (the served path: columns in,
/// columns out, properties and statistics maintained) and through the
/// tuple-wise pure `mutation::*` functions, interleaved. The pair
/// restores the table's list, so every iteration starts from the same
/// one. `mutation_speedup` is the tuple-wise time over the table's, the
/// median over the interleaved iterations: both legs are allocation-bound,
/// and a ratio of the two best times moves with whichever leg had the
/// luckier iteration, by more than the CI guard's tolerance.
fn storage_block(rows: usize) -> String {
    let cfg = GenConfig {
        classes: (rows / 10).max(1),
        ..GenConfig::default()
    };
    let initial = WorkloadGenerator::new(17)
        .employees(&cfg, 10)
        .expect("generation");
    let values = vec![Value::from("scratch"), Value::from("scratch")];
    let scratch = Expr::eq(Expr::col("EmpName"), Expr::lit("scratch"));
    let period = Period::of(1, 5);
    let mut table = Table::new("EMPLOYEE", initial.clone()).expect("registers");
    let pair = |table: &mut Table| {
        table
            .insert_sequenced(values.clone(), period)
            .expect("insert");
        table.delete_sequenced(&scratch, period).expect("delete");
    };
    // The first pair opens the modification ledger, once per table.
    pair(&mut table);
    let (mut through_table, mut through_mutation) = (Duration::MAX, Duration::MAX);
    let mut ratios = Vec::with_capacity(ITERS);
    for _ in 0..ITERS {
        let started = Instant::now();
        pair(&mut table);
        let table_time = started.elapsed();
        let started = Instant::now();
        let inserted =
            mutation::insert_sequenced(&initial, values.clone(), period).expect("insert");
        let restored = mutation::delete_sequenced(&inserted, &scratch, period).expect("delete");
        let mutation_time = started.elapsed();
        through_table = through_table.min(table_time);
        through_mutation = through_mutation.min(mutation_time);
        ratios.push(mutation_time.as_secs_f64() / table_time.as_secs_f64().max(1e-9));
        assert_eq!(restored, initial, "the pair restores the list");
    }
    // Compared once, after the timing: the comparison builds the version's
    // tuples, and a timed pair would then pay for freeing them.
    assert_eq!(table.relation(), &initial, "the pair restores the table");
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let speedup = tqo_exec::metrics::median(&mut ratios).expect("ITERS > 0");
    eprintln!(
        "\n{:<22} {:>10} {:>12} {:>12} {:>9}",
        "storage", "rows", "table us", "mutation us", "speedup"
    );
    eprintln!(
        "{:<22} {:>10} {:>12.1} {:>12.1} {:>8.2}x",
        "insert_delete_pair",
        initial.len(),
        us(through_table),
        us(through_mutation),
        speedup
    );
    let mut block = String::new();
    writeln!(block, "  \"storage\": {{").unwrap();
    writeln!(block, "    \"rows\": {},", initial.len()).unwrap();
    writeln!(block, "    \"table_pair_us\": {:.1},", us(through_table)).unwrap();
    writeln!(
        block,
        "    \"mutation_pair_us\": {:.1},",
        us(through_mutation)
    )
    .unwrap();
    writeln!(block, "    \"mutation_speedup\": {speedup:.3}").unwrap();
    writeln!(block, "  }},").unwrap();
    block
}

/// The materialize block: what a client pays to read a decoded result
/// row by row. For a `rows`-row `(EmpName, Dept)` result and a 4-column
/// temporal one, each decoded through `tqo_stratum::wire::transfer`
/// afresh per iteration (untimed), the best of `ITERS` times of the
/// first `Relation::tuples` call (the tuple list's build) and of dropping
/// the relation (the list's free; its columns are held elsewhere, so the
/// drop frees only the list).
fn materialize_block(rows: usize) -> String {
    let cfg = GenConfig {
        classes: (rows / 10).max(1),
        ..GenConfig::default()
    };
    let employees = WorkloadGenerator::new(17)
        .employees(&cfg, 50)
        .expect("generation");
    let columns = employees.columnar().expect("column-born");
    let emp_dept = Relation::from_columnar(ColumnarRelation::new(
        std::sync::Arc::new(Schema::new(employees.schema().attrs()[..2].to_vec()).expect("schema")),
        columns.columns()[..2].to_vec(),
    ));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    eprintln!(
        "\n{:<22} {:>10} {:>6} {:>12} {:>12}",
        "materialize", "rows", "arity", "build ms", "drop ms"
    );
    let mut block = String::new();
    writeln!(block, "  \"materialize\": {{").unwrap();
    writeln!(block, "    \"cases\": [").unwrap();
    let cases = [("emp_dept", &emp_dept), ("employee_t", &employees)];
    for (i, (name, relation)) in cases.iter().enumerate() {
        let (mut build, mut free) = (Duration::MAX, Duration::MAX);
        for _ in 0..ITERS {
            let (decoded, _) = tqo_stratum::wire::transfer(relation).expect("transfer");
            let held = decoded.columnar().expect("decoded in columns");
            let started = Instant::now();
            std::hint::black_box(decoded.tuples());
            build = build.min(started.elapsed());
            let started = Instant::now();
            drop(decoded);
            free = free.min(started.elapsed());
            drop(held);
        }
        let arity = relation.schema().arity();
        eprintln!(
            "{:<22} {:>10} {:>6} {:>12.3} {:>12.3}",
            name,
            relation.len(),
            arity,
            ms(build),
            ms(free)
        );
        writeln!(block, "      {{").unwrap();
        writeln!(block, "        \"name\": \"{name}\",").unwrap();
        writeln!(block, "        \"rows\": {},", relation.len()).unwrap();
        writeln!(block, "        \"arity\": {arity},").unwrap();
        writeln!(block, "        \"build_ms\": {:.3},", ms(build)).unwrap();
        writeln!(block, "        \"drop_ms\": {:.3}", ms(free)).unwrap();
        let comma = if i + 1 < cases.len() { "," } else { "" };
        writeln!(block, "      }}{comma}").unwrap();
    }
    writeln!(block, "    ]").unwrap();
    writeln!(block, "  }},").unwrap();
    block
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rows: usize = args
        .next()
        .or_else(|| std::env::var("EXEC_QUICK_ROWS").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let out_path = args.next().unwrap_or_else(|| "BENCH_exec.json".into());

    let (env, cases) = exec_throughput_workload(rows, 17);
    // Build the transposes first so batch numbers measure the pipeline,
    // not the one-time base-table transpose.
    for case in &cases {
        execute_mode(&case.plan, &env, ExecMode::Batch).expect("warms");
    }

    // Per case: (name, batch_op_ms, batch_wall_ms) for the `fusion` block.
    let mut fusion_rows: Vec<(String, f64, f64)> = Vec::with_capacity(cases.len());
    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"exec_throughput\",").unwrap();
    writeln!(json, "  \"rows\": {rows},").unwrap();
    writeln!(json, "  \"iters\": {ITERS},").unwrap();
    writeln!(json, "  \"cases\": [").unwrap();
    eprintln!(
        "{:<22} {:>10} {:>14} {:>14} {:>9}",
        "case", "out_rows", "interp rows/s", "batch rows/s", "interp x"
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for (i, case) in cases.iter().enumerate() {
        let Timed {
            batch_wall,
            batch_op,
            interp_op,
            result,
        } = time_case(case, &env);
        let per_sec = |d: Duration| case.rows as f64 / d.as_secs_f64().max(1e-9);
        let interp_speedup = interp_op.map(|d| d.as_secs_f64() / batch_op.as_secs_f64().max(1e-9));
        let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        eprintln!(
            "{:<22} {:>10} {:>14} {:>14.0} {:>9}",
            case.name,
            result.len(),
            or_null(interp_op.map(|d| format!("{:.0}", per_sec(d)))),
            per_sec(batch_op),
            or_null(interp_speedup.map(|x| format!("{x:.2}x"))),
        );
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"name\": \"{}\",", case.name).unwrap();
        writeln!(json, "      \"rows_in\": {},", case.rows).unwrap();
        writeln!(json, "      \"rows_out\": {},", result.len()).unwrap();
        writeln!(
            json,
            "      \"interp_op_ms\": {},",
            or_null(interp_op.map(|d| format!("{:.3}", ms(d))))
        )
        .unwrap();
        writeln!(json, "      \"batch_op_ms\": {:.3},", ms(batch_op)).unwrap();
        writeln!(json, "      \"batch_wall_ms\": {:.3},", ms(batch_wall)).unwrap();
        writeln!(
            json,
            "      \"batch_rows_per_sec\": {:.0},",
            per_sec(batch_op)
        )
        .unwrap();
        writeln!(
            json,
            "      \"interp_speedup\": {}",
            or_null(interp_speedup.map(|x| format!("{x:.3}")))
        )
        .unwrap();
        writeln!(json, "    }}{}", if i + 1 < cases.len() { "," } else { "" }).unwrap();
        fusion_rows.push((case.name.to_string(), ms(batch_op), ms(batch_wall)));
    }
    writeln!(json, "  ],").unwrap();

    // Fusion: per case, how much of batch wall time the root operator
    // itself accounts for. The residue (1 - ratio) is the unfused
    // scan + sink overhead; the fused selection/sort/sink paths exist to
    // shrink it, so this ratio is the tracked trajectory for "did a
    // pipeline change add a materialization boundary?".
    writeln!(json, "  \"fusion\": {{").unwrap();
    writeln!(json, "    \"cases\": [").unwrap();
    eprintln!(
        "\n{:<22} {:>12} {:>12} {:>10}",
        "fusion", "op ms", "wall ms", "op/wall"
    );
    for (i, (name, op_ms, wall_ms)) in fusion_rows.iter().enumerate() {
        let ratio = op_ms / wall_ms.max(1e-9);
        eprintln!("{name:<22} {op_ms:>12.3} {wall_ms:>12.3} {ratio:>10.3}");
        writeln!(json, "      {{").unwrap();
        writeln!(json, "        \"name\": \"{name}\",").unwrap();
        writeln!(json, "        \"batch_op_ms\": {op_ms:.3},").unwrap();
        writeln!(json, "        \"batch_wall_ms\": {wall_ms:.3},").unwrap();
        writeln!(json, "        \"op_wall_ratio\": {ratio:.3}").unwrap();
        writeln!(
            json,
            "      }}{}",
            if i + 1 < fusion_rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();
    json.push_str(&storage_block(rows));
    json.push_str(&materialize_block(rows));

    // Estimation accuracy: per-operator median q-error over the bench
    // workloads, so estimation quality gets a tracked trajectory alongside
    // throughput. Capped at scale 5: the committed block doubles as the
    // baseline of the q-error regression guard
    // (`tests/estimation_regression.rs`), which recomputes these medians
    // at the committed scale on every test run.
    let est_scale = (rows / 2000).clamp(1, 5);
    let (cat, est_cases) = estimation_workload(est_scale, 23);
    let env = cat.env();
    let mut per_label: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut all: Vec<f64> = Vec::new();
    for case in &est_cases {
        let (_, metrics) = execute_logical(&case.plan, &env, PlannerConfig::default())
            .expect("estimation plan executes");
        for op in &metrics.operators {
            if let Some(q) = op.q_error() {
                // Group on the operator name without the algorithm tag.
                let label = op.label.split(['[', '(']).next().unwrap_or("?").to_owned();
                per_label.entry(label).or_default().push(q);
                all.push(q);
            }
        }
    }
    // Empty-safe median (shared convention with ExecMetrics): plans that
    // carried no estimates (e.g. a future engine change breaking the
    // estimate/metrics join) must degrade to a null datapoint, not crash
    // the CI bench step.
    let median = tqo_exec::metrics::median;
    let fmt_q = |q: Option<f64>| match q {
        Some(q) => format!("{q:.3}"),
        None => "null".into(),
    };
    writeln!(json, "  \"estimation\": {{").unwrap();
    writeln!(json, "    \"workload_scale\": {est_scale},").unwrap();
    writeln!(
        json,
        "    \"overall_median_q\": {},",
        fmt_q(median(&mut all))
    )
    .unwrap();
    writeln!(json, "    \"operators\": [").unwrap();
    eprintln!("\n{:<22} {:>8} {:>10}", "estimation", "samples", "median q");
    let labels: Vec<String> = per_label.keys().cloned().collect();
    for (i, label) in labels.iter().enumerate() {
        let qs = per_label.get_mut(label).unwrap();
        let samples = qs.len();
        let m = median(qs);
        eprintln!("{label:<22} {samples:>8} {:>10}", fmt_q(m));
        writeln!(json, "      {{").unwrap();
        writeln!(json, "        \"label\": \"{label}\",").unwrap();
        writeln!(json, "        \"samples\": {samples},").unwrap();
        writeln!(json, "        \"median_q\": {}", fmt_q(m)).unwrap();
        writeln!(
            json,
            "      }}{}",
            if i + 1 < labels.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "    ]").unwrap();
    writeln!(json, "  }},").unwrap();

    // Observability: what the tracing instrumentation costs.
    //
    // (a) `disabled_span_ns` — the disabled fast path measured directly:
    //     ns per span call site with no collector installed (one relaxed
    //     atomic load; name/args closures never run).
    // (b) per hot operator, `disabled_overhead_pct` — that fast-path cost
    //     times the spans the query actually emits, as a percentage of
    //     untraced wall time. This is the "tracing compiled in but off"
    //     overhead the ≤ 2% acceptance bound applies to.
    // (c) `traced_overhead_pct` — measured wall-time overhead with a
    //     collector installed and recording, for reference (not bounded;
    //     small negatives are timer noise).
    let span_iters = 4_000_000u32;
    let started = Instant::now();
    for _ in 0..span_iters {
        let span = std::hint::black_box(tqo_core::trace::span(
            tqo_core::trace::Category::Exec,
            "bench",
        ));
        drop(span);
    }
    let disabled_ns = started.elapsed().as_nanos() as f64 / f64::from(span_iters);
    let (oenv, ocases) = exec_throughput_workload(rows, 17);
    for case in &ocases {
        execute_mode(&case.plan, &oenv, ExecMode::Batch).expect("warms");
    }
    let mut oblock = String::new();
    writeln!(oblock, "  \"observability\": {{").unwrap();
    writeln!(oblock, "    \"disabled_span_ns\": {disabled_ns:.3},").unwrap();
    writeln!(oblock, "    \"cases\": [").unwrap();
    eprintln!(
        "\n{:<22} {:>8} {:>12} {:>12} {:>11} {:>10}",
        "observability", "spans", "wall ms", "traced ms", "disabled %", "traced %"
    );
    for (i, case) in ocases.iter().enumerate() {
        let collector = tqo_core::trace::Collector::new();
        // One traced run to count the spans this query emits…
        let spans = {
            let _guard = tqo_core::trace::install(&collector);
            execute_mode(&case.plan, &oenv, ExecMode::Batch).expect("traced run");
            collector.finish().events.len()
        };
        // …then best-of untraced and traced wall time, *interleaved* so
        // both see the same cache and clock state (sequencing the two
        // measurements minutes apart reads as fake double-digit overhead).
        // The ring is drained between runs, outside the timed region.
        let mut wall = Duration::MAX;
        let mut traced_wall = Duration::MAX;
        for _ in 0..ITERS {
            let started = Instant::now();
            execute_mode(&case.plan, &oenv, ExecMode::Batch).expect("untraced run");
            wall = wall.min(started.elapsed());
            let started = Instant::now();
            {
                let _guard = tqo_core::trace::install(&collector);
                execute_mode(&case.plan, &oenv, ExecMode::Batch).expect("traced run");
            }
            traced_wall = traced_wall.min(started.elapsed());
            collector.finish();
        }
        let disabled_pct = disabled_ns * spans as f64 / wall.as_nanos() as f64 * 100.0;
        let traced_pct = (traced_wall.as_secs_f64() / wall.as_secs_f64() - 1.0) * 100.0;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        eprintln!(
            "{:<22} {spans:>8} {:>12.3} {:>12.3} {disabled_pct:>10.4}% {traced_pct:>9.2}%",
            case.name,
            ms(wall),
            ms(traced_wall)
        );
        writeln!(oblock, "      {{").unwrap();
        writeln!(oblock, "        \"name\": \"{}\",", case.name).unwrap();
        writeln!(oblock, "        \"spans\": {spans},").unwrap();
        writeln!(oblock, "        \"batch_wall_ms\": {:.3},", ms(wall)).unwrap();
        writeln!(
            oblock,
            "        \"traced_wall_ms\": {:.3},",
            ms(traced_wall)
        )
        .unwrap();
        writeln!(
            oblock,
            "        \"disabled_overhead_pct\": {disabled_pct:.4},"
        )
        .unwrap();
        writeln!(oblock, "        \"traced_overhead_pct\": {traced_pct:.3}").unwrap();
        writeln!(
            oblock,
            "      }}{}",
            if i + 1 < ocases.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(oblock, "    ]").unwrap();
    write!(oblock, "  }}").unwrap();

    // Governance: what the cancellation/deadline/budget checkpoints cost
    // (the ≤ 2% bound of ARCHITECTURE invariant 14, mirroring the tracing
    // fast-path methodology above).
    //
    // (a) `ungoverned_check_ns` — the ungoverned fast path measured
    //     directly: ns per `context::check_current()` call with no
    //     context installed anywhere (one relaxed atomic load).
    // (b) per hot operator, `ungoverned_overhead_pct` — that fast-path
    //     cost times the checkpoints the query actually polls (counted by
    //     a governed run's token), as a percentage of ungoverned wall
    //     time. This is the "governance compiled in but unused" overhead
    //     the ≤ 2% acceptance bound applies to.
    // (c) `governed_overhead_pct` — measured wall-time overhead with a
    //     limitless `QueryContext` installed, for reference (not bounded;
    //     small negatives are timer noise).
    use tqo_core::context::{self, QueryContext};
    let check_iters = 4_000_000u32;
    let started = Instant::now();
    for _ in 0..check_iters {
        std::hint::black_box(context::check_current()).expect("ungoverned check");
    }
    let check_ns = started.elapsed().as_nanos() as f64 / f64::from(check_iters);
    let mut gblock = String::new();
    writeln!(gblock, "  \"governance\": {{").unwrap();
    writeln!(gblock, "    \"ungoverned_check_ns\": {check_ns:.3},").unwrap();
    writeln!(gblock, "    \"cases\": [").unwrap();
    eprintln!(
        "\n{:<22} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "governance", "checks", "wall ms", "governed ms", "ungoverned %", "governed %"
    );
    for (i, case) in ocases.iter().enumerate() {
        // One governed run to count the checkpoints this query polls…
        let counting = QueryContext::new();
        {
            let _guard = context::install(&counting);
            execute_mode(&case.plan, &oenv, ExecMode::Batch).expect("governed run");
        }
        let checks = counting.token().polls();
        // …then best-of ungoverned and governed wall time, interleaved so
        // both see the same cache and clock state.
        let mut wall = Duration::MAX;
        let mut governed_wall = Duration::MAX;
        for _ in 0..ITERS {
            let started = Instant::now();
            execute_mode(&case.plan, &oenv, ExecMode::Batch).expect("ungoverned run");
            wall = wall.min(started.elapsed());
            let ctx = QueryContext::new();
            let started = Instant::now();
            {
                let _guard = context::install(&ctx);
                execute_mode(&case.plan, &oenv, ExecMode::Batch).expect("governed run");
            }
            governed_wall = governed_wall.min(started.elapsed());
        }
        let ungoverned_pct = check_ns * checks as f64 / wall.as_nanos() as f64 * 100.0;
        let governed_pct = (governed_wall.as_secs_f64() / wall.as_secs_f64() - 1.0) * 100.0;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        eprintln!(
            "{:<22} {checks:>8} {:>12.3} {:>12.3} {ungoverned_pct:>11.4}% {governed_pct:>9.2}%",
            case.name,
            ms(wall),
            ms(governed_wall)
        );
        writeln!(gblock, "      {{").unwrap();
        writeln!(gblock, "        \"name\": \"{}\",", case.name).unwrap();
        writeln!(gblock, "        \"checks\": {checks},").unwrap();
        writeln!(gblock, "        \"batch_wall_ms\": {:.3},", ms(wall)).unwrap();
        writeln!(
            gblock,
            "        \"governed_wall_ms\": {:.3},",
            ms(governed_wall)
        )
        .unwrap();
        writeln!(
            gblock,
            "        \"ungoverned_overhead_pct\": {ungoverned_pct:.4},"
        )
        .unwrap();
        writeln!(
            gblock,
            "        \"governed_overhead_pct\": {governed_pct:.3}"
        )
        .unwrap();
        writeln!(
            gblock,
            "      }}{}",
            if i + 1 < ocases.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(gblock, "    ]").unwrap();
    write!(gblock, "  }}").unwrap();

    json.push_str(&oblock);
    writeln!(json, ",").unwrap();
    json.push_str(&gblock);
    writeln!(json).unwrap();
    writeln!(json, "}}").unwrap();
    std::fs::write(&out_path, json).expect("write BENCH_exec.json");
    // The observability and governance blocks also ship standalone, for
    // the CI artifacts.
    std::fs::write("BENCH_obs.json", format!("{{\n{oblock}\n}}\n")).expect("write BENCH_obs.json");
    std::fs::write("BENCH_robust.json", format!("{{\n{gblock}\n}}\n"))
        .expect("write BENCH_robust.json");
    eprintln!("wrote {out_path}, BENCH_obs.json, and BENCH_robust.json");
}
