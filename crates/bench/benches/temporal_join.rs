//! Perf-5 ablation: temporal Cartesian product — the definition's
//! left-major nested loop run literally vs the endpoint plane sweep that
//! sorts its pairs into the same list, across input sizes and temporal
//! densities (how many periods overlap a given instant).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::temporal_relation;
use tqo_core::ops;
use tqo_storage::{GenConfig, WorkloadGenerator};

fn sparse(classes: usize, seed: u64) -> tqo_core::Relation {
    // Long history, short periods: few concurrent tuples.
    WorkloadGenerator::new(seed)
        .temporal(&GenConfig {
            classes,
            fragments_per_class: 4,
            mean_duration: 3,
            mean_gap: 40,
            ..GenConfig::default()
        })
        .expect("ok")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporal_join");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    for classes in [20usize, 60, 180] {
        // Dense: everything overlaps everything.
        let dense_l = temporal_relation(classes, 4, 0.2, 0.3, 31);
        let dense_r = temporal_relation(classes / 2, 4, 0.2, 0.3, 32);
        let rows = dense_l.len();
        group.bench_with_input(
            BenchmarkId::new("nested_loop/dense", rows),
            &(&dense_l, &dense_r),
            |b, (l, r)| b.iter(|| ops::product_t_literal(l, r).expect("ok").len()),
        );
        group.bench_with_input(
            BenchmarkId::new("plane_sweep/dense", rows),
            &(&dense_l, &dense_r),
            |b, (l, r)| b.iter(|| ops::product_t(l, r).expect("ok").len()),
        );

        // Sparse: the sweep's active sets stay small.
        let sparse_l = sparse(classes, 33);
        let sparse_r = sparse(classes / 2, 34);
        group.bench_with_input(
            BenchmarkId::new("nested_loop/sparse", sparse_l.len()),
            &(&sparse_l, &sparse_r),
            |b, (l, r)| b.iter(|| ops::product_t_literal(l, r).expect("ok").len()),
        );
        group.bench_with_input(
            BenchmarkId::new("plane_sweep/sparse", sparse_l.len()),
            &(&sparse_l, &sparse_r),
            |b, (l, r)| b.iter(|| ops::product_t(l, r).expect("ok").len()),
        );

        // The same plane sweep as a columnar kernel over period columns.
        use std::sync::Arc;
        use tqo_core::columnar::ColumnarRelation;
        use tqo_exec::batch::kernels;
        let out_schema = Arc::new(
            tqo_core::ops::temporal::product_t::product_t_schema(
                sparse_l.schema(),
                sparse_r.schema(),
            )
            .expect("schema"),
        );
        let cl = ColumnarRelation::from_relation(&sparse_l).expect("columnar");
        let crr = ColumnarRelation::from_relation(&sparse_r).expect("columnar");
        group.bench_with_input(
            BenchmarkId::new("plane_sweep_batch/sparse", sparse_l.len()),
            &(&cl, &crr),
            |b, (l, r)| {
                b.iter(|| {
                    kernels::product_t_sweep(l, r, out_schema.clone())
                        .expect("ok")
                        .rows()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
