//! Figure 3's operations at scale: regular `rdup`, `rdupᵀ` by the paper's
//! head/tail recursion run literally (`O(n²)`), and `rdupᵀ` as per-class
//! claims in list order (`O(n log n)`, the same list).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::temporal_relation;
use tqo_core::columnar::ColumnarRelation;
use tqo_core::ops;
use tqo_exec::batch::kernels;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_dedup");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    for classes in [20usize, 80, 320] {
        // 8 fragments per class, heavy overlap → plenty of snapshot dups.
        let r = temporal_relation(classes, 8, 0.1, 0.5, 7);
        let rows = r.len();
        let cr = ColumnarRelation::from_relation(&r).expect("columnar");

        group.bench_with_input(BenchmarkId::new("rdup", rows), &r, |b, r| {
            b.iter(|| ops::rdup(r).expect("runs").len())
        });
        group.bench_with_input(BenchmarkId::new("rdupT_literal", rows), &r, |b, r| {
            b.iter(|| ops::rdup_t_literal(r).expect("runs").len())
        });
        group.bench_with_input(BenchmarkId::new("rdupT", rows), &r, |b, r| {
            b.iter(|| ops::rdup_t(r).expect("runs").len())
        });
        // The same claims as a columnar kernel over period columns.
        group.bench_with_input(BenchmarkId::new("rdupT_batch", rows), &cr, |b, cr| {
            b.iter(|| kernels::rdup_t(cr).expect("runs").rows())
        });
        group.bench_with_input(
            BenchmarkId::new("rdupT_batch_to_rows", rows),
            &cr,
            |b, cr| b.iter(|| kernels::rdup_t(cr).expect("runs").to_relation().len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
