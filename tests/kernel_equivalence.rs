//! Kernel equivalence on adversarial layouts.
//!
//! The PR-8 kernel rewrites (group builds, fused
//! selection-into-breaker pipelines, prefix-assisted cache-conscious
//! sort, branch-free predicate/sweep kernels) promise to change *time
//! only, never bytes* (ARCHITECTURE invariant 15). This suite drives
//! each rewritten kernel through the layouts most likely to break that
//! promise — all-duplicate keys collapsing every row into one class,
//! empty inputs, selections of density 0% and 100% feeding
//! breakers and sinks, sort inputs past the radix threshold with heavy
//! ties, strings sharing long prefixes (inexact sort prefixes forcing
//! refinement), floats including NaN and -0.0, and nulls under DESC —
//! asserting `interpreter ≡ batch ≡ scheduler` **exactly**, as lists.

mod common;

use std::f64;

use tqo_core::expr::{AggFunc, AggItem, BinOp, Expr};
use tqo_core::interp::Env;
use tqo_core::plan::{BaseProps, LogicalPlan, PlanBuilder};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::sortspec::{Order, SortKey};
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::{execute_mode, lower, ExecMode, PlannerConfig, Scheduler, SubmitOptions};

fn explain(plan: &LogicalPlan) -> String {
    lower(plan, PlannerConfig::default()).unwrap().explain()
}

/// The acceptance oracle: the plan's physical lowering on the batch
/// engine, whole and cut into stages by the scheduler, each exactly the
/// interpreter's list.
fn assert_kernels_exact(plan: &LogicalPlan, env: &Env, context: &str) -> Relation {
    let reference = tqo_core::interp::eval_plan(plan, env).unwrap();
    let physical = lower(plan, PlannerConfig::default()).unwrap();
    let (got, _) = execute_mode(&physical, env, ExecMode::Batch).unwrap();
    assert_eq!(
        got, reference,
        "batch is not the interpreter's list on {context}"
    );
    let (staged, _) = Scheduler::global()
        .run(&physical, env, SubmitOptions::default())
        .unwrap();
    assert_eq!(
        staged, reference,
        "the scheduler is not the interpreter's list on {context}"
    );
    reference
}

fn scan(name: &str, env: &Env) -> PlanBuilder {
    let base = BaseProps::measured(env.get(name).unwrap()).unwrap();
    PlanBuilder::scan(name, base)
}

/// `(K: Int, S: Str, F: Float)` snapshot rows.
fn kv_schema() -> Schema {
    Schema::of(&[
        ("K", DataType::Int),
        ("S", DataType::Str),
        ("F", DataType::Float),
    ])
}

fn kv_rel(rows: Vec<(i64, &str, f64)>) -> Relation {
    let tuples = rows
        .into_iter()
        .map(|(k, s, f)| Tuple::new(vec![Value::Int(k), Value::Str(s.into()), Value::Float(f)]))
        .collect();
    Relation::new(kv_schema(), tuples).unwrap()
}

fn temporal_rel(rows: Vec<(&str, i64, i64)>) -> Relation {
    let tuples = rows
        .into_iter()
        .map(|(e, s, t)| Tuple::new(vec![Value::Str(e.into()), Value::Time(s), Value::Time(t)]))
        .collect();
    Relation::new(Schema::temporal(&[("E", DataType::Str)]), tuples).unwrap()
}

// ---------------------------------------------------------------------
// Group builds: rdup / aggregate / difference
// ---------------------------------------------------------------------

/// Every row shares one key, so every row lands in the *same* class:
/// maximal skew for the group build, and the first-kept-occurrence order
/// is the whole answer.
#[test]
fn all_duplicate_keys_collapse_identically() {
    let rel = kv_rel((0..3000).map(|_| (7, "same", 1.5)).collect());
    let env = Env::new().with("D", rel);
    let plan = scan("D", &env).rdup().build_multiset();
    let out = assert_kernels_exact(&plan, &env, "rdup over all-duplicate keys");
    assert_eq!(out.tuples().len(), 1);

    let plan = scan("D", &env)
        .aggregate(vec!["K".into(), "S".into()], vec![AggItem::count_star("n")])
        .build_multiset();
    let out = assert_kernels_exact(&plan, &env, "aggregate over all-duplicate keys");
    assert_eq!(out.tuples().len(), 1);
}

/// 70k rows over a tiny key domain: 51 classes, with intra-batch
/// duplicates interleaved across batch boundaries.
#[test]
fn skewed_buckets_preserve_first_occurrence_order() {
    let rel = kv_rel(
        (0..70_000)
            .map(|i| ((i % 17) as i64, "x", (i % 3) as f64))
            .collect(),
    );
    let env = Env::new().with("D", rel);
    let plan = scan("D", &env).rdup().build_multiset();
    let out = assert_kernels_exact(&plan, &env, "rdup over skewed buckets");
    assert_eq!(out.tuples().len(), 17 * 3);

    let plan = scan("D", &env)
        .difference(scan("D", &env).select(Expr::eq(Expr::col("K"), Expr::lit(3i64))))
        .build_set();
    assert_kernels_exact(&plan, &env, "difference over skewed buckets");
}

#[test]
fn empty_inputs_flow_through_every_breaker() {
    let env = Env::new()
        .with("E0", kv_rel(vec![]))
        .with("T0", temporal_rel(vec![]))
        .with("T1", temporal_rel(vec![("a", 0, 5), ("b", 2, 9)]));
    for (plan, context) in [
        (scan("E0", &env).rdup().build_multiset(), "rdup on empty"),
        (
            scan("E0", &env)
                .aggregate(vec!["K".into()], vec![AggItem::count_star("n")])
                .build_multiset(),
            "aggregate on empty",
        ),
        (
            scan("E0", &env)
                .sort(Order::asc(&["K", "S"]))
                .build_list(Order::asc(&["K", "S"])),
            "sort on empty",
        ),
        (
            scan("T0", &env)
                .product_t(scan("T1", &env))
                .build_multiset(),
            "product_t with empty left",
        ),
        (
            scan("T1", &env).difference_t(scan("T0", &env)).build_set(),
            "difference_t with empty right",
        ),
        (
            scan("T0", &env).coalesce().build_multiset(),
            "coalesce on empty",
        ),
    ] {
        let out = assert_kernels_exact(&plan, &env, context);
        if !context.contains("difference_t") {
            assert_eq!(out.tuples().len(), 0, "{context}");
        }
    }
}

// ---------------------------------------------------------------------
// Fused selection pipelines at the density extremes
// ---------------------------------------------------------------------

/// A predicate that keeps nothing and one that keeps everything, each
/// feeding a sort breaker and the materializing sink — the fused
/// selection-vector path must agree with row-at-a-time on both extremes.
#[test]
fn selection_density_extremes_feed_breakers_exactly() {
    let rel = kv_rel(
        (0..4000)
            .map(|i| ((i % 11) as i64, "pfx", (i % 7) as f64 - 3.0))
            .collect(),
    );
    let env = Env::new().with("D", rel);
    for (pred, keeps, label) in [
        (Expr::lt(Expr::col("K"), Expr::lit(-1i64)), 0usize, "0%"),
        (Expr::lt(Expr::col("K"), Expr::lit(99i64)), 4000, "100%"),
    ] {
        let plan = scan("D", &env)
            .select(pred.clone())
            .sort(Order::asc(&["K", "F"]))
            .build_list(Order::asc(&["K", "F"]));
        let out = assert_kernels_exact(&plan, &env, &format!("select {label} into sort"));
        assert_eq!(out.tuples().len(), keeps);

        let plan = scan("D", &env).select(pred).rdup().build_multiset();
        assert_kernels_exact(&plan, &env, &format!("select {label} into rdup"));
    }
}

/// Branch-free comparison kernels across dtypes, including the float
/// fast path with NaN and -0.0 (total-order semantics must match the
/// interpreter's `Value::cmp` exactly).
#[test]
fn branch_free_predicates_match_on_float_edge_cases() {
    let mut rows: Vec<(i64, &str, f64)> = vec![
        (1, "a", f64::NAN),
        (2, "b", -0.0),
        (3, "c", 0.0),
        (4, "d", f64::INFINITY),
        (5, "e", f64::NEG_INFINITY),
        (6, "f", -1.25),
    ];
    for i in 0..2000 {
        rows.push((i % 9, "g", (i % 5) as f64 * 0.5 - 1.0));
    }
    let env = Env::new().with("D", kv_rel(rows));
    for (pred, label) in [
        (
            Expr::bin(BinOp::Ge, Expr::col("F"), Expr::lit(0.0f64)),
            "F >= 0.0",
        ),
        (
            Expr::lt(Expr::col("F"), Expr::lit(Value::Float(f64::NAN))),
            "F < NaN",
        ),
        (
            Expr::bin(BinOp::Ne, Expr::lit(-0.0f64), Expr::col("F")),
            "-0.0 <> F (lit-col)",
        ),
        (
            Expr::and(
                Expr::lt(Expr::col("K"), Expr::lit(7i64)),
                Expr::bin(BinOp::Le, Expr::col("F"), Expr::lit(1i64)),
            ),
            "int lit against float col under AND",
        ),
    ] {
        let plan = scan("D", &env).select(pred).build_multiset();
        assert_kernels_exact(&plan, &env, label);
    }
}

// ---------------------------------------------------------------------
// Cache-conscious sort: radix path, ties, prefixes, nulls, DESC
// ---------------------------------------------------------------------

/// Past the radix threshold (4096 rows) with only 5 distinct keys:
/// every partition is full of ties, so stability (original row order
/// within equal keys) is the entire observable behavior.
#[test]
fn radix_sort_is_stable_under_heavy_ties() {
    let rel = kv_rel(
        (0..10_000)
            .map(|i| ((i % 5) as i64, "t", i as f64))
            .collect(),
    );
    let env = Env::new().with("D", rel);
    let order = Order::asc(&["K"]);
    let plan = scan("D", &env).sort(order.clone()).build_list(order);
    let out = assert_kernels_exact(&plan, &env, "radix sort with 5-key ties");
    // Within each key, F (the original row index) must stay ascending.
    let mut last = [-1.0f64; 5];
    for t in out.tuples() {
        let (Value::Int(k), Value::Float(f)) = (&t.values()[0], &t.values()[2]) else {
            panic!("unexpected row shape");
        };
        assert!(*f > last[*k as usize], "instability at key {k}");
        last[*k as usize] = *f;
    }
}

/// Strings sharing an 8+ byte prefix make every sort prefix equal and
/// inexact, forcing the refinement comparator; DESC on the second key
/// exercises the complemented-prefix path.
#[test]
fn shared_prefix_strings_force_refinement() {
    let schema = Schema::of(&[("S", DataType::Str), ("K", DataType::Int)]);
    let tuples: Vec<Tuple> = (0..6000)
        .map(|i| {
            Tuple::new(vec![
                Value::Str(format!("sharedprefix-{:04}", i % 50).into()),
                Value::Int((i % 13) as i64),
            ])
        })
        .collect();
    let env = Env::new().with("D", Relation::new(schema, tuples).unwrap());
    let order = Order::new(vec![SortKey::asc("S"), SortKey::desc("K")]);
    let plan = scan("D", &env).sort(order.clone()).build_list(order);
    assert_kernels_exact(&plan, &env, "sort on shared-prefix strings with DESC");
}

#[test]
fn nulls_sort_identically_under_desc() {
    let schema = Schema::of(&[("K", DataType::Int), ("S", DataType::Str)]);
    let tuples: Vec<Tuple> = (0..5000)
        .map(|i| {
            let k = if i % 4 == 0 {
                Value::Null
            } else {
                Value::Int((i % 6) as i64)
            };
            Tuple::new(vec![k, Value::Str(format!("r{i}").into())])
        })
        .collect();
    let env = Env::new().with("D", Relation::new(schema, tuples).unwrap());
    for order in [
        Order::new(vec![SortKey::desc("K"), SortKey::asc("S")]),
        Order::asc(&["K", "S"]),
    ] {
        let plan = scan("D", &env).sort(order.clone()).build_list(order);
        assert_kernels_exact(&plan, &env, "sort with nulls under DESC/ASC");
    }
}

// ---------------------------------------------------------------------
// Sweep and chain kernels: temporal product / rdup / coalesce
// ---------------------------------------------------------------------

/// Many identical periods (every event ties) plus containment chains:
/// ties are the adversarial case for the sweeps' orders and the chains'
/// partner choice.
#[test]
fn sweep_kernels_agree_on_degenerate_periods() {
    let mut rows: Vec<(&str, i64, i64)> = Vec::new();
    for i in 0..400 {
        rows.push((["a", "b", "c"][i % 3], 10, 20)); // all-identical periods
        rows.push(("d", 10 - (i % 5) as i64, 20 + (i % 5) as i64)); // nesting
    }
    let env = Env::new()
        .with("L", temporal_rel(rows.clone()))
        .with("R", temporal_rel(rows));
    let plan = scan("L", &env).product_t(scan("R", &env)).build_multiset();
    assert_kernels_exact(&plan, &env, "product_t over tied periods");

    let plan = scan("L", &env).rdup_t().build_multiset();
    assert_kernels_exact(&plan, &env, "rdup_t over tied periods");

    let plan = scan("L", &env).coalesce().build_multiset();
    assert_kernels_exact(&plan, &env, "coalesce over tied periods");

    let plan = scan("L", &env)
        .difference_t(scan("R", &env).select(Expr::eq(Expr::col("E"), Expr::lit("d"))))
        .build_set();
    assert_kernels_exact(&plan, &env, "difference_t over tied periods");
}

/// Aggregation with MIN/MAX/SUM/AVG over the skewed key domain — the
/// group build must keep group emission order.
#[test]
fn aggregate_functions_agree_over_radix_groups() {
    let rel = kv_rel(
        (0..4500)
            .map(|i| ((i % 23) as i64, "k", (i as f64) * 0.25))
            .collect(),
    );
    let env = Env::new().with("D", rel);
    let plan = scan("D", &env)
        .aggregate(
            vec!["K".into()],
            vec![
                AggItem::count_star("n"),
                AggItem::new(AggFunc::Min, Some("F"), "lo"),
                AggItem::new(AggFunc::Max, Some("F"), "hi"),
                AggItem::new(AggFunc::Sum, Some("K"), "sk"),
                AggItem::new(AggFunc::Avg, Some("F"), "m"),
            ],
        )
        .build_multiset();
    let out = assert_kernels_exact(&plan, &env, "grouped aggregates over radix build");
    assert_eq!(out.tuples().len(), 23);
}

// ---------------------------------------------------------------------
// List-keeping value-class kernels: faithful rdupᵀ, hash equi-join × / ×ᵀ
// ---------------------------------------------------------------------

/// `(K: Int, S: Str, F: Float)` rows with NULLs where a key is `None`.
fn kv_rel_nullable(rows: Vec<(Option<i64>, Option<&str>, f64)>) -> Relation {
    let tuples = rows
        .into_iter()
        .map(|(k, s, f)| {
            Tuple::new(vec![
                k.map_or(Value::Null, Value::Int),
                s.map_or(Value::Null, |s| Value::Str(s.into())),
                Value::Float(f),
            ])
        })
        .collect();
    Relation::new(kv_schema(), tuples).unwrap()
}

fn col_eq(l: &str, r: &str) -> Expr {
    Expr::eq(Expr::col(l), Expr::col(r))
}

/// The join oracle: the product matches on keys exactly when `hash` says
/// so, and — whatever the product emitted — the plan still computes the
/// interpreter's `σ(×)` as a *list*, whole and staged.
fn assert_join_exact(plan: &LogicalPlan, env: &Env, hash: bool, context: &str) -> Relation {
    let physical = explain(plan);
    assert_eq!(
        physical.contains("HashEqui"),
        hash,
        "{context}:\n{physical}"
    );
    assert_kernels_exact(plan, env, context)
}

/// Every right row carries the one key there is — 70k rows, all in one
/// class — so the match list of each probing left row *is* the right
/// input, in order.
#[test]
fn hash_join_over_all_duplicate_keys_in_one_radix_bucket() {
    let env = Env::new()
        .with(
            "L",
            kv_rel(vec![(7, "a", 0.5), (8, "b", 1.5), (7, "c", 2.5)]),
        )
        .with(
            "R",
            kv_rel((0..70_000).map(|i| (7, "same", i as f64)).collect()),
        );
    let plan = scan("L", &env)
        .product(scan("R", &env))
        .select(col_eq("1.K", "2.K"))
        .build_multiset();
    let out = assert_join_exact(&plan, &env, true, "× on one giant key class");
    assert_eq!(out.len(), 140_000);
}

#[test]
fn hash_join_corner_cases_keep_the_list() {
    let left = kv_rel_nullable(
        (0..400)
            .map(|i| {
                let k = (i % 5 != 0).then_some((i % 13) as i64);
                let s = (i % 7 != 0).then_some(["x", "y", "z"][i % 3]);
                (k, s, (i % 11) as f64)
            })
            .collect(),
    );
    let right = kv_rel_nullable(
        (0..300)
            .map(|i| {
                let k = (i % 4 != 0).then_some((i % 17) as i64);
                let s = (i % 9 != 0).then_some(["y", "z", "w"][i % 3]);
                (k, s, (i % 5) as f64)
            })
            .collect(),
    );
    let env = Env::new().with("L", left).with("R", right).with(
        "FAR",
        kv_rel((0..50).map(|i| (100 + i, "far", 0.0)).collect()),
    );
    let join = |pred: Expr| scan("L", &env).product(scan("R", &env)).select(pred);

    // NULL keys on either side match nothing, not each other.
    let out = assert_join_exact(
        &join(col_eq("1.K", "2.K")).build_multiset(),
        &env,
        true,
        "× with NULL keys on both sides",
    );
    assert!(out.tuples().iter().all(|t| !t.values()[0].is_null()));

    // No key of one side occurs on the other.
    let none = scan("L", &env)
        .product(scan("FAR", &env))
        .select(col_eq("1.K", "2.K"));
    let out = assert_join_exact(&none.build_multiset(), &env, true, "× with no matches");
    assert!(out.is_empty());

    // Multi-column key, one equality written right-to-left.
    assert_join_exact(
        &join(Expr::and(col_eq("1.K", "2.K"), col_eq("2.S", "1.S"))).build_multiset(),
        &env,
        true,
        "× on a two-column key",
    );

    // A residual conjunct over both sides stays with the select.
    assert_join_exact(
        &join(Expr::and(
            Expr::lt(Expr::col("1.F"), Expr::col("2.F")),
            col_eq("1.S", "2.S"),
        ))
        .build_multiset(),
        &env,
        true,
        "× with a non-equi residual",
    );

    // Keys of different domains (and float keys) are not hashed: the
    // plain product runs, and `Value::cmp` decides as it always did.
    assert_join_exact(
        &join(col_eq("1.K", "2.S")).build_multiset(),
        &env,
        false,
        "× on an Int = Str key",
    );
    assert_join_exact(
        &join(col_eq("1.F", "2.F")).build_multiset(),
        &env,
        false,
        "× on a Float key",
    );

    // ORDER BY above the join: ties keep the join's left-major order.
    let order = Order::asc(&["2.S"]);
    assert_join_exact(
        &join(col_eq("1.K", "2.K"))
            .sort(order.clone())
            .build_list(order),
        &env,
        true,
        "sort over ×",
    );
}

#[test]
fn temporal_hash_join_keeps_the_list() {
    let rows = |n: usize, shift: i64| -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let e = if i % 6 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("e{}", i % 9).into())
                };
                let s = (i as i64 * 5 + shift) % 40;
                Tuple::new(vec![e, Value::Time(s), Value::Time(s + 1 + (i % 7) as i64)])
            })
            .collect()
    };
    let schema = Schema::temporal(&[("E", DataType::Str)]);
    let env = Env::new()
        .with("L", Relation::new(schema.clone(), rows(350, 0)).unwrap())
        .with("R", Relation::new(schema, rows(280, 3)).unwrap());
    let join = |pred: Expr| scan("L", &env).product_t(scan("R", &env)).select(pred);

    // The hash join keeps the product's left-major order, so it serves
    // multisets and lists alike.
    assert_join_exact(
        &join(col_eq("1.E", "2.E")).build_multiset(),
        &env,
        true,
        "×ᵀ with NULL keys",
    );
    let order = Order::asc(&["2.T1"]);
    assert_join_exact(
        &join(Expr::and(
            col_eq("1.E", "2.E"),
            Expr::lt(Expr::col("1.T1"), Expr::col("2.T2")),
        ))
        .sort(order.clone())
        .build_list(order),
        &env,
        true,
        "sort over ×ᵀ with a residual",
    );
    // Periods as keys: Time on both sides is one domain.
    assert_join_exact(
        &join(col_eq("1.T1", "2.T1")).build_multiset(),
        &env,
        true,
        "×ᵀ keyed on a period endpoint",
    );
}

/// `ξᵀ` as one endpoint sweep over every group: the batch kernel ≡ the scheduler
/// ≡ the interpreter as lists — over 70k rows,
/// NULL group keys, and one deep group of 2k overlapping periods.
#[test]
fn temporal_aggregation_is_one_list_on_every_engine() {
    let schema = Schema::temporal(&[("E", DataType::Str), ("F", DataType::Float)]);
    let row = |e: Value, f: f64, s: i64, len: i64| {
        Tuple::new(vec![
            e,
            Value::Float(f),
            Value::Time(s),
            Value::Time(s + len),
        ])
    };
    let wide: Vec<Tuple> = (0..70_000i64)
        .map(|i| {
            let e = match i % 53 {
                0 => Value::Null,
                c => Value::Str(format!("e{c}").into()),
            };
            let f = if i % 5 == 0 {
                1e16
            } else {
                0.1 * (i % 9) as f64
            };
            row(e, f, (i * 37) % 20_011, 1 + i % 23)
        })
        .collect();
    let deep: Vec<Tuple> = (0..2_000i64)
        .map(|i| {
            let e = Value::Str(if i % 400 == 0 { "odd" } else { "deep" }.into());
            row(e, (i % 7) as f64 - 3.0, (i * 13) % 997, 100 + (i * 7) % 900)
        })
        .collect();
    let env = Env::new()
        .with("WIDE", Relation::new(schema.clone(), wide).unwrap())
        .with("DEEP", Relation::new(schema, deep).unwrap());
    let aggs = vec![
        AggItem::count_star("n"),
        AggItem::new(AggFunc::Count, Some("E"), "ne"),
        AggItem::new(AggFunc::Sum, Some("T1"), "s1"),
        AggItem::new(AggFunc::Sum, Some("F"), "sf"),
        AggItem::new(AggFunc::Min, Some("T2"), "lo"),
        AggItem::new(AggFunc::Max, Some("F"), "hi"),
        AggItem::new(AggFunc::Avg, Some("F"), "m"),
    ];
    for name in ["WIDE", "DEEP"] {
        for group_by in [vec!["E".to_owned()], vec![]] {
            let plan = scan(name, &env)
                .aggregate_t(group_by.clone(), aggs.clone())
                .build_multiset();
            let physical = explain(&plan);
            assert!(physical.contains("aggregate-t[sweep]"), "{physical}");
            let context = format!("ξᵀ over {name} grouped by {group_by:?}");
            assert_kernels_exact(&plan, &env, &context);
        }
    }
}

/// `SUM` over `[i64::MAX, 1]` wraps to `i64::MIN` in the interpreter and
/// the engine, whole and staged, for
/// `ξ` and where the periods overlap for `ξᵀ` — in debug builds too.
#[test]
fn integer_sums_wrap_identically_on_every_engine() {
    let schema = Schema::temporal(&[("E", DataType::Str), ("V", DataType::Int)]);
    let rows = vec![
        Tuple::new(vec![
            Value::from("a"),
            Value::Int(i64::MAX),
            Value::Time(1),
            Value::Time(5),
        ]),
        Tuple::new(vec![
            Value::from("a"),
            Value::Int(1),
            Value::Time(3),
            Value::Time(8),
        ]),
    ];
    let env = Env::new().with("W", Relation::new(schema, rows).unwrap());
    let sum = vec![AggItem::new(AggFunc::Sum, Some("V"), "s")];
    let plain = scan("W", &env)
        .aggregate(vec!["E".into()], sum.clone())
        .build_multiset();
    let temporal = scan("W", &env)
        .aggregate_t(vec!["E".into()], sum)
        .build_multiset();
    for (plan, wrapped_at) in [(plain, 0), (temporal, 1)] {
        let out = assert_kernels_exact(&plan, &env, "SUM over [i64::MAX, 1]");
        assert_eq!(out.tuples()[wrapped_at].values()[1], Value::Int(i64::MIN));
    }
}

/// Faithful `rdupᵀ` where periods must be preserved (a multiset query's
/// root), over duplicates, containment, chains of overlaps and NULL
/// explicit values: all engines produce the recursion's own list.
#[test]
fn faithful_rdup_t_is_the_recursions_list_on_every_engine() {
    let rows = |n: usize, classes: usize| -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let e = match i % (classes + 1) {
                    0 => Value::Null,
                    c => Value::Str(format!("e{c}").into()),
                };
                // Starts wander back and forth so later rows straddle,
                // sit inside, repeat and chain onto earlier ones.
                let s = ((i * 37) % 101) as i64 - ((i % 3) as i64) * 9;
                Tuple::new(vec![
                    e,
                    Value::Time(s),
                    Value::Time(s + 1 + (i % 13) as i64),
                ])
            })
            .collect()
    };
    let schema = Schema::temporal(&[("E", DataType::Str)]);
    let small = Relation::new(schema.clone(), rows(3000, 4)).unwrap();
    let env = Env::new()
        .with("T", small.clone())
        // 70k rows in one class build.
        .with("BIG", Relation::new(schema, rows(70_000, 40)).unwrap());
    for name in ["T", "BIG"] {
        let plan = scan(name, &env).rdup_t().build_multiset();
        let out = assert_kernels_exact(&plan, &env, "faithful rdup_t");
        if name == "T" {
            assert_eq!(out, tqo_core::ops::rdup_t_literal(&small).unwrap());
        }
    }
}

/// `coalᵀ` and `×ᵀ` over 70k rows with shuffled adjacency chains running
/// both ways, exact
/// duplicates, overlaps and NULL explicit values: all engines produce the
/// definitions' own lists. The small relation is also checked against the
/// literal definitions.
#[test]
fn coalesce_and_product_t_are_the_definitions_lists_at_scale() {
    let rows = |n: usize, classes: usize| -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                // A row's class and period are a scrambled function of its
                // position, so one class's pieces arrive out of order.
                let j = (i * 7919) % n;
                let e = match j % (classes + 1) {
                    0 => Value::Null,
                    c => Value::Str(format!("e{c}").into()),
                };
                let piece = (j / (classes + 1)) as i64;
                let (s, len) = match j % 11 {
                    0 => (piece * 4 + 1, 5), // overlaps its neighbours
                    1 => (piece * 4 - 4, 4), // repeats the previous piece
                    _ => (piece * 4, 4),     // meets its neighbours
                };
                Tuple::new(vec![e, Value::Time(s), Value::Time(s + len)])
            })
            .collect()
    };
    let schema = Schema::temporal(&[("E", DataType::Str)]);
    let small = Relation::new(schema.clone(), rows(2000, 6)).unwrap();
    let env = Env::new()
        .with("T", small.clone())
        .with("BIG", Relation::new(schema, rows(70_000, 300)).unwrap());
    for name in ["T", "BIG"] {
        let plan = scan(name, &env).coalesce().build_multiset();
        assert!(explain(&plan).starts_with("coalesce\n"));
        let out = assert_kernels_exact(&plan, &env, &format!("coalesce over {name}"));
        if name == "T" {
            assert_eq!(out, tqo_core::ops::coalesce_literal(&small).unwrap());
        }
    }

    // ×ᵀ of the big relation with one class's early pieces: a left row
    // meets at most a few right rows.
    let slice = Expr::and(
        Expr::eq(Expr::col("E"), Expr::lit("e1")),
        Expr::lt(Expr::col("T1"), Expr::lit(200i64)),
    );
    let plan = scan("BIG", &env)
        .product_t(scan("BIG", &env).select(slice))
        .build_multiset();
    assert!(explain(&plan).starts_with("product-t\n"));
    assert_kernels_exact(&plan, &env, "product_t over BIG");
    let plan = scan("T", &env).product_t(scan("T", &env)).build_multiset();
    let out = assert_kernels_exact(&plan, &env, "product_t over T");
    assert_eq!(
        out,
        tqo_core::ops::product_t_literal(&small, &small).unwrap()
    );
}
