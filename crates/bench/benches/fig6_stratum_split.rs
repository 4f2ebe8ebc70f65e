//! Perf-2 (§4.5/§6 claim): pushing the sort into the DBMS wins — the
//! `push-sort-into-dbms` (≡L) rule's profitability, measured.
//!
//! Series: `sort_A(Tˢ(π(scan)))` (sorted in the stratum) vs
//! `Tˢ(sort_A(π(scan)))` (the DBMS's mature sort), over scaled workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::workload;
use tqo_core::plan::PlanBuilder;
use tqo_core::sortspec::Order;
use tqo_stratum::Stratum;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_stratum_split");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    for scale in [4usize, 16, 64] {
        let catalog = workload(scale, 11);
        let rows = catalog.get("EMPLOYEE").expect("table").len();
        let base = catalog.base_props("EMPLOYEE").expect("props");
        let order = Order::asc(&["EmpName", "Dept"]);

        let sort_in_stratum = PlanBuilder::scan("EMPLOYEE", base.clone())
            .transfer_s()
            .sort(order.clone())
            .build_list(order.clone());
        let sort_in_dbms = PlanBuilder::scan("EMPLOYEE", base)
            .sort(order.clone())
            .transfer_s()
            .build_list(order);

        let stratum = Stratum::new(catalog);
        group.bench_with_input(BenchmarkId::new("sort_in_stratum", rows), &rows, |b, _| {
            b.iter(|| stratum.run(&sort_in_stratum).expect("runs").0.len())
        });
        group.bench_with_input(BenchmarkId::new("sort_in_dbms", rows), &rows, |b, _| {
            b.iter(|| stratum.run(&sort_in_dbms).expect("runs").0.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
