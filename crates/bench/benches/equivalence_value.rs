//! The headline experiment: what the six-equivalence framework is *worth*.
//!
//! A classical optimizer must preserve the exact list everywhere, i.e. it
//! may only use `≡L` rules. The paper's framework additionally admits
//! `≡M/≡S/≡SL/≡SM/≡SS` rules wherever the operation properties license
//! them (Definition 5.1). This bench compares, on the running example:
//!
//! * the size of the searched space (memo expressions), and
//! * the cost of the best plan found,
//!
//! for the `≡L`-only baseline vs the full rule catalogue, across the three
//! result types.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::{figure2a_plan, workload};
use tqo_core::equivalence::{EquivalenceType, ResultType};
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::plan::LogicalPlan;
use tqo_core::rules::RuleSet;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("equivalence_value");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    let catalog = workload(2, 3);
    let list_plan = figure2a_plan(&catalog);
    let multiset_plan = LogicalPlan {
        root: list_plan.root.clone(),
        result_type: ResultType::Multiset,
        root_site: list_plan.root_site,
    };
    let cfg = OptimizerConfig::default();

    for (label, plan) in [("list", &list_plan), ("multiset", &multiset_plan)] {
        let list_only = RuleSet::standard().restricted_to(&[EquivalenceType::List]);
        let full = RuleSet::standard();

        group.bench_with_input(
            BenchmarkId::new("optimize_listonly", label),
            plan,
            |b, plan| b.iter(|| optimize(plan, &list_only, &cfg).expect("ok").cost.0),
        );
        group.bench_with_input(BenchmarkId::new("optimize_full", label), plan, |b, plan| {
            b.iter(|| optimize(plan, &full, &cfg).expect("ok").cost.0)
        });

        // Report the plan-quality gap once.
        let lo = optimize(plan, &list_only, &cfg).expect("ok");
        let fo = optimize(plan, &full, &cfg).expect("ok");
        println!(
            "[{label}] ≡L-only: best={:.0} over {} exprs; full framework: best={:.0} over {} exprs",
            lo.cost.0, lo.memo.exprs, fo.cost.0, fo.memo.exprs
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
