//! Batch engine throughput on the hot operators, next to the reference
//! interpreter's operator.
//!
//! Each case executes a single-operator plan end-to-end (scan → operator
//! → result relation) on the batch engine, and evaluates the same plan in
//! the reference interpreter (the hash equi-join, `σ₌(×)`, has no
//! interpreter leg: the interpreter forms every pair of the product). `exec_quick` (the bench binary) emits the same cases as
//! machine-readable BENCH_exec.json.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::exec_throughput_workload;
use tqo_exec::{execute_mode, ExecMode};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_throughput");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    for rows in [10_000usize, 100_000] {
        let (env, cases) = exec_throughput_workload(rows, 17);
        // Build the base relations' transposes outside the timed region
        // (first batch execution pays the one-time transpose).
        for case in &cases {
            execute_mode(&case.plan, &env, ExecMode::Batch).expect("warms");
        }
        for case in &cases {
            if case.interpret(&env).is_some() {
                group.bench_with_input(
                    BenchmarkId::new(format!("{}/interp", case.name), rows),
                    case,
                    |b, case| {
                        b.iter(|| case.interpret(&env).expect("has an interpreter leg").len())
                    },
                );
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{}/batch", case.name), rows),
                &case.plan,
                |b, plan| {
                    b.iter(|| {
                        execute_mode(plan, &env, ExecMode::Batch)
                            .expect("runs")
                            .0
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
