//! Perf-3: coalescing.
//!
//! (a) The definition's first-partner fixpoint run literally (`O(n²)`) vs
//!     the chained walk that computes the same list (`O(n)` after
//!     hashing), across fragmentation ratios.
//! (b) Rule C10's placement question: coalesce *before* the temporal
//!     difference (shrinking its inputs) vs *after* — the paper's §2.1
//!     remark that "coalescing is performed before difference because the
//!     left argument … is expected to be smaller". The crossover depends
//!     on how much coalescing shrinks the input (the adjacency knob).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::temporal_relation;
use tqo_core::ops;

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalescing_algorithms");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    for (label, adjacency) in [("low_frag", 0.1), ("high_frag", 0.9)] {
        for classes in [25usize, 100] {
            let r = temporal_relation(classes, 8, adjacency, 0.0, 13);
            let rows = r.len();
            group.bench_with_input(
                BenchmarkId::new(format!("literal/{label}"), rows),
                &r,
                |b, r| b.iter(|| ops::coalesce_literal(r).expect("ok").len()),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("chained/{label}"), rows),
                &r,
                |b, r| b.iter(|| ops::coalesce(r).expect("ok").len()),
            );
        }
    }
    group.finish();
}

fn bench_c10_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("coalescing_c10_placement");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    for (label, adjacency) in [("frag=0.2", 0.2), ("frag=0.9", 0.9)] {
        // Snapshot-dup-free inputs (C10's precondition).
        let left = ops::rdup_t(&temporal_relation(60, 10, adjacency, 0.0, 17)).expect("ok");
        let right = ops::rdup_t(&temporal_relation(60, 6, adjacency, 0.0, 18)).expect("ok");

        // coalᵀ(r1 \ᵀ r2): coalesce after.
        group.bench_with_input(
            BenchmarkId::new("coalesce_after", label),
            &(&left, &right),
            |b, (l, r)| {
                b.iter(|| {
                    let d = ops::difference_t(l, r).expect("ok");
                    ops::coalesce(&d).expect("ok").len()
                })
            },
        );
        // coalᵀ(r1) \ᵀ coalᵀ(r2): coalesce before (rule C10, left-to-right).
        group.bench_with_input(
            BenchmarkId::new("coalesce_before", label),
            &(&left, &right),
            |b, (l, r)| {
                b.iter(|| {
                    let cl = ops::coalesce(l).expect("ok");
                    let cr = ops::coalesce(r).expect("ok");
                    ops::difference_t(&cl, &cr).expect("ok").len()
                })
            },
        );
        // The C10-noright variant: only the left argument coalesced.
        group.bench_with_input(
            BenchmarkId::new("coalesce_left_only", label),
            &(&left, &right),
            |b, (l, r)| {
                b.iter(|| {
                    let cl = ops::coalesce(l).expect("ok");
                    ops::difference_t(&cl, r).expect("ok").len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_c10_placement);
criterion_main!(benches);
