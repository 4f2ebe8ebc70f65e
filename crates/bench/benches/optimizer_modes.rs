//! Optimizer-mode ablation (§7's heuristics discussion): exhaustive
//! Figure 5 enumeration + cost selection vs memo search — plan quality
//! (estimated cost) and optimization time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::{figure2a_plan, workload};
use tqo_core::optimizer::{optimize, OptimizerConfig, SearchStrategy};
use tqo_core::rules::RuleSet;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer_modes");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));

    let catalog = workload(4, 5);
    let plan = figure2a_plan(&catalog);
    let rules = RuleSet::standard();
    let cfg = OptimizerConfig::default();
    let memo_cfg = OptimizerConfig {
        strategy: SearchStrategy::Memo,
        ..Default::default()
    };

    group.bench_with_input(BenchmarkId::new("exhaustive", "fig2a"), &plan, |b, plan| {
        b.iter(|| optimize(plan, &rules, &cfg).expect("ok").cost.0)
    });
    group.bench_with_input(BenchmarkId::new("memo", "fig2a"), &plan, |b, plan| {
        b.iter(|| optimize(plan, &rules, &memo_cfg).expect("ok").cost.0)
    });

    // Report plan quality once.
    let exhaustive = optimize(&plan, &rules, &cfg).expect("ok");
    let memo = optimize(&plan, &rules, &memo_cfg).expect("ok");
    let initial = cfg.cost_model.cost(&plan).expect("ok");
    let memo_stats = memo.memo.expect("memo stats");
    println!(
        "plan cost: initial={:.0} exhaustive={:.0} memo={:.0} \
         ({} plans enumerated; memo: {} exprs in {} groups)",
        initial.0,
        exhaustive.cost.0,
        memo.cost.0,
        exhaustive.enumeration.plans.len(),
        memo_stats.exprs,
        memo_stats.groups,
    );

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
