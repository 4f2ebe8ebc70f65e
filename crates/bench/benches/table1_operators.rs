//! Table 1 as a throughput table: one benchmark per algebra operation, on
//! a fixed mid-sized workload — the per-row cost profile behind the cost
//! model's per-operator work terms.

use criterion::{criterion_group, criterion_main, Criterion};

use tqo_bench::temporal_relation;
use tqo_core::expr::{AggFunc, AggItem, BinOp, Expr, ProjItem};
use tqo_core::ops;
use tqo_core::sortspec::Order;
use tqo_storage::WorkloadGenerator;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_operators");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    let r = temporal_relation(60, 8, 0.3, 0.3, 5); // 480 rows
    let r2 = temporal_relation(60, 4, 0.2, 0.2, 6); // 240 rows
    let s = WorkloadGenerator::new(9)
        .conventional(480, 40)
        .expect("gen");
    let s2 = WorkloadGenerator::new(10)
        .conventional(240, 40)
        .expect("gen");

    let pred = Expr::eq(Expr::col("E"), Expr::lit("v7"));
    let items = [ProjItem::col("E"), ProjItem::col("T1"), ProjItem::col("T2")];
    let aggs = [
        AggItem::count_star("n"),
        AggItem::new(AggFunc::Min, Some("T1"), "lo"),
    ];

    group.bench_function("select", |b| {
        b.iter(|| ops::select(&r, &pred).expect("ok").len())
    });
    group.bench_function("project", |b| {
        b.iter(|| ops::project(&r, &items).expect("ok").len())
    });
    group.bench_function("union_all", |b| {
        b.iter(|| ops::union_all(&r, &r2).expect("ok").len())
    });
    group.bench_function("product", |b| {
        b.iter(|| ops::product(&s, &s2).expect("ok").len())
    });
    group.bench_function("difference", |b| {
        b.iter(|| ops::difference(&s, &s2).expect("ok").len())
    });
    group.bench_function("aggregate", |b| {
        b.iter(|| {
            ops::aggregate(
                &s,
                &["B".into()],
                &[AggItem::new(AggFunc::Sum, Some("A"), "sum")],
            )
            .expect("ok")
            .len()
        })
    });
    group.bench_function("rdup", |b| b.iter(|| ops::rdup(&s).expect("ok").len()));
    group.bench_function("union_max", |b| {
        b.iter(|| ops::union_max(&s, &s2).expect("ok").len())
    });
    group.bench_function("sort", |b| {
        b.iter(|| ops::sort(&r, &Order::asc(&["E", "T1"])).expect("ok").len())
    });
    group.bench_function("product_t", |b| {
        b.iter(|| ops::product_t(&r, &r2).expect("ok").len())
    });
    group.bench_function("difference_t", |b| {
        b.iter(|| ops::difference_t(&r, &r2).expect("ok").len())
    });
    group.bench_function("aggregate_t", |b| {
        b.iter(|| {
            ops::aggregate_t(&r, &["E".into()], &aggs)
                .expect("ok")
                .len()
        })
    });
    group.bench_function("rdup_t", |b| b.iter(|| ops::rdup_t(&r).expect("ok").len()));
    group.bench_function("union_t", |b| {
        b.iter(|| ops::union_t(&r, &r2).expect("ok").len())
    });
    group.bench_function("coalesce", |b| {
        b.iter(|| ops::coalesce(&r).expect("ok").len())
    });

    // The comparison binary op (Expr evaluation) as the baseline unit.
    group.bench_function("predicate_eval_baseline", |b| {
        let schema = r.schema().clone();
        let t = r.tuples()[0].clone();
        let p = Expr::bin(BinOp::Le, Expr::col("T1"), Expr::lit(12i64));
        b.iter(|| p.eval_predicate(&schema, &t).expect("ok"))
    });

    // Batch-engine counterparts of the hot operators: the same work as
    // columnar kernels / vectorized selection over pre-transposed inputs.
    {
        use std::sync::Arc;
        use tqo_core::columnar::{ColumnarRelation, Sel};
        use tqo_core::exprs;
        use tqo_exec::batch::kernels;
        let cr = ColumnarRelation::from_relation(&r).expect("columnar");
        let cs = ColumnarRelation::from_relation(&s).expect("columnar");

        group.bench_function("select_batch", |b| {
            let compiled = exprs::compile(&pred, r.schema()).expect("total fragment");
            let all = Sel::Range(0, cr.rows());
            b.iter(|| exprs::filter(&compiled, cr.columns(), &all).len())
        });
        group.bench_function("rdup_t_batch", |b| {
            b.iter(|| kernels::rdup_t(&cr).expect("ok").rows())
        });
        group.bench_function("aggregate_batch", |b| {
            let group_by = ["B".to_owned()];
            let aggs = [AggItem::new(AggFunc::Sum, Some("A"), "sum")];
            let out = Arc::new(
                tqo_core::ops::aggregate::aggregate_schema(cs.schema(), &group_by, &aggs)
                    .expect("schema"),
            );
            b.iter(|| {
                kernels::aggregate(&cs, &group_by, &aggs, out.clone())
                    .expect("ok")
                    .rows()
            })
        });
        group.bench_function("sort_batch", |b| {
            b.iter(|| {
                kernels::sort_indices(&cr, &Order::asc(&["E", "T1"]))
                    .expect("ok")
                    .len()
            })
        });
        group.bench_function("coalesce_batch", |b| {
            b.iter(|| kernels::coalesce(&cr).expect("ok").rows())
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
