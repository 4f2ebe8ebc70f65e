//! Perf-5: temporal aggregation `ξᵀ` scaling — the constant-interval sweep
//! over group sizes and fragment counts, and the cost of the aggregate
//! functions themselves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::temporal_relation;
use tqo_core::expr::{AggFunc, AggItem};
use tqo_core::ops;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal_aggregation");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    // Scaling in the number of groups (few fragments each).
    for classes in [20usize, 80, 320] {
        let r = temporal_relation(classes, 6, 0.2, 0.4, 21);
        group.bench_with_input(BenchmarkId::new("many_groups", r.len()), &r, |b, r| {
            b.iter(|| {
                ops::aggregate_t(r, &["E".into()], &[AggItem::count_star("n")])
                    .expect("ok")
                    .len()
            })
        });
    }

    // Scaling in fragments per group (few groups): the endpoint sweep is
    // `n log n` in a group's size, the literal definition it replaced
    // rescans the group per interval — quadratic.
    for fragments in [10usize, 40, 160] {
        let r = temporal_relation(4, fragments, 0.1, 0.8, 22);
        group.bench_with_input(BenchmarkId::new("deep_groups", r.len()), &r, |b, r| {
            b.iter(|| {
                ops::aggregate_t(r, &["E".into()], &[AggItem::count_star("n")])
                    .expect("ok")
                    .len()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("deep_groups_literal", r.len()),
            &r,
            |b, r| {
                b.iter(|| {
                    ops::aggregate_t_literal(r, &["E".into()], &[AggItem::count_star("n")])
                        .expect("ok")
                        .len()
                })
            },
        );
    }

    // Aggregate-function mix on a fixed input.
    let r = temporal_relation(60, 8, 0.2, 0.4, 23);
    for (label, aggs) in [
        ("count", vec![AggItem::count_star("n")]),
        (
            "min_max",
            vec![
                AggItem::new(AggFunc::Min, Some("T1"), "lo"),
                AggItem::new(AggFunc::Max, Some("T2"), "hi"),
            ],
        ),
        ("grand_total", vec![AggItem::count_star("n")]),
    ] {
        let group_by: Vec<String> = if label == "grand_total" {
            vec![]
        } else {
            vec!["E".into()]
        };
        group.bench_with_input(BenchmarkId::new("functions", label), &r, |b, r| {
            b.iter(|| ops::aggregate_t(r, &group_by, &aggs).expect("ok").len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
