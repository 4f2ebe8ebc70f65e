//! The exactness contract of versioned tables: after *any* sequence of
//! sequenced modifications, a table version's base properties, statistics
//! and resident transpose equal what deriving them from scratch over its
//! tuples gives, and its tuple list is the one the pure
//! `Relation → Relation` modifications produce, in the same order.
//!
//! The subjects are [`Table`]'s modifiers, which maintain all of that by
//! class-local deltas; the oracles are `mutation::*` for the list,
//! [`derive_props`] and [`TableSummary::measure`] for what describes it,
//! and [`ColumnarRelation::from_relation`] for the transpose.
//!
//! A modified version is born in columns, so the scripts run over two
//! schemas: one `Str` column, and a wide one with an `Int`, `Float`,
//! `Bool` and `Str` column and NULLs in each, so every column type and the
//! null mask go through the copy of untouched rows and the push of
//! entering ones.

use proptest::prelude::*;

use tqo_core::columnar::ColumnarRelation;
use tqo_core::expr::Expr;
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::stats::TableSummary;
use tqo_core::time::Period;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_storage::table::derive_props;
use tqo_storage::{mutation, GenConfig, Table, WorkloadGenerator};

/// Which tuples a delete or update addresses.
#[derive(Debug, Clone)]
enum Target {
    /// `E = 'e{n}'`; `n` may name no class at all (a miss).
    Class(usize),
    Everything,
}

/// One step. Row numbers are reduced modulo what exists when the step
/// runs, so every generated script is applicable.
#[derive(Debug, Clone)]
enum Step {
    /// A tuple of class `e{class}` (possibly a new class) over a period.
    Insert { class: usize, start: i64, len: i64 },
    /// A tuple built from an existing row: an exact duplicate (0), a
    /// snapshot duplicate overlapping it (1), or one adjacent to it (2).
    InsertLike { row: usize, shape: u8 },
    /// Splits, fully covers or misses, depending on the window drawn.
    Delete {
        target: Target,
        start: i64,
        len: i64,
    },
    Update {
        target: Target,
        start: i64,
        len: i64,
        to_class: usize,
    },
    /// Delete everything, everywhere.
    Truncate,
}

fn arb_target() -> impl Strategy<Value = Target> {
    prop_oneof![
        (0usize..8).prop_map(Target::Class),
        (0usize..8).prop_map(Target::Class),
        Just(Target::Everything),
    ]
}

fn arb_window() -> impl Strategy<Value = (Target, i64, i64)> {
    (arb_target(), 0i64..60, 1i64..40)
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..8, 0i64..60, 1i64..15).prop_map(|(class, start, len)| Step::Insert {
            class,
            start,
            len
        }),
        (0usize..64, 0u8..3).prop_map(|(row, shape)| Step::InsertLike { row, shape }),
        arb_window().prop_map(|(target, start, len)| Step::Delete { target, start, len }),
        arb_window().prop_map(|(target, start, len)| Step::Delete { target, start, len }),
        (arb_window(), 0usize..8).prop_map(|((target, start, len), to_class)| Step::Update {
            target,
            start,
            len,
            to_class
        }),
        Just(Step::Truncate),
    ]
}

fn class(n: usize) -> Value {
    Value::from(format!("e{n}"))
}

/// The explicit values of class `n` on a one-column schema.
fn narrow(n: usize) -> Vec<Value> {
    vec![class(n)]
}

/// The wide schema: `E` first, so [`predicate`] addresses classes on both.
fn wide_schema() -> Schema {
    Schema::temporal(&[
        ("E", DataType::Str),
        ("I", DataType::Int),
        ("F", DataType::Float),
        ("B", DataType::Bool),
    ])
}

/// The explicit values of class `n` on [`wide_schema`]. Each column is
/// NULL for some classes; class 7's `E` is NULL, so no class predicate
/// selects it.
fn wide(n: usize) -> Vec<Value> {
    let null_or = |null: bool, v: Value| if null { Value::Null } else { v };
    vec![
        null_or(n == 7, class(n)),
        null_or(n.is_multiple_of(3), Value::Int(n as i64 * 10 - 25)),
        null_or(n % 4 == 1, Value::Float(n as f64 / 4.0)),
        null_or(n == 5, Value::Bool(n.is_multiple_of(2))),
    ]
}

fn predicate(target: &Target) -> Expr {
    match target {
        Target::Class(n) => Expr::eq(Expr::col("E"), Expr::lit(class(*n))),
        Target::Everything => Expr::lit(true),
    }
}

/// The tuple an inserting step adds to `oracle`; `values` gives a class's
/// explicit values.
fn inserted(
    step: &Step,
    oracle: &Relation,
    values: fn(usize) -> Vec<Value>,
) -> (Vec<Value>, Period) {
    match step {
        Step::Insert {
            class: n,
            start,
            len,
        } => (values(*n), Period::of(*start, start + len)),
        Step::InsertLike { row, shape } if !oracle.is_empty() => {
            let like = &oracle.tuples()[row % oracle.len()];
            let p = like.period(oracle.schema()).unwrap();
            let period = match shape {
                0 => p,
                1 => Period::of(p.end - 1, p.end + 2),
                _ => Period::of(p.end, p.end + 3),
            };
            (like.explicit_values(oracle.schema()), period)
        }
        _ => (values(0), Period::of(3, 7)),
    }
}

/// Apply `step` to the table and, independently, to the oracle relation.
fn apply(
    step: &Step,
    table: &mut Table,
    oracle: &Relation,
    values: fn(usize) -> Vec<Value>,
) -> Relation {
    let everything = (&Target::Everything, Period::of(i64::MIN / 2, i64::MAX / 2));
    let (target, window) = match step {
        Step::Insert { .. } | Step::InsertLike { .. } => {
            let (values, period) = inserted(step, oracle, values);
            table.insert_sequenced(values.clone(), period).unwrap();
            return mutation::insert_sequenced(oracle, values, period).unwrap();
        }
        Step::Delete { target, start, len }
        | Step::Update {
            target, start, len, ..
        } => (target, Period::of(*start, start + len)),
        Step::Truncate => everything,
    };
    let p = predicate(target);
    if let Step::Update { to_class, .. } = step {
        let rename = |t: &Tuple| {
            let mut t = t.clone();
            for (i, v) in values(*to_class).into_iter().enumerate() {
                t.set_value(i, v);
            }
            Ok(t)
        };
        table.update_sequenced(&p, window, rename).unwrap();
        mutation::update_sequenced(oracle, &p, window, rename).unwrap()
    } else {
        table.delete_sequenced(&p, window).unwrap();
        mutation::delete_sequenced(oracle, &p, window).unwrap()
    }
}

/// The contract, checked against oracles that never saw a delta.
fn assert_exact(table: &Table, oracle: &Relation, context: &str) {
    assert_eq!(table.relation(), oracle, "tuple list, in order — {context}");
    assert_eq!(
        *table.props(),
        derive_props(oracle).unwrap(),
        "base properties — {context}"
    );
    assert_eq!(
        *table.stats(),
        TableSummary::measure(oracle).unwrap(),
        "statistics — {context}"
    );
    assert_eq!(
        table.planning_props().stats.as_deref(),
        Some(&*table.stats()),
        "planning properties carry the version's summary — {context}"
    );
    let resident = table.relation().columnar().unwrap();
    let fresh = ColumnarRelation::from_relation(oracle).unwrap();
    assert_eq!(resident.rows(), fresh.rows(), "transpose rows — {context}");
    assert_eq!(
        resident.to_relation(),
        fresh.to_relation(),
        "transpose — {context}"
    );
}

fn run(seed: u64, cfg: &GenConfig, steps: &[Step]) {
    let initial = WorkloadGenerator::new(seed).temporal(cfg).unwrap();
    run_from(initial, narrow, steps);
}

/// Run `steps` from `initial`, whose classes have the explicit values
/// `values` gives.
fn run_from(initial: Relation, values: fn(usize) -> Vec<Value>, steps: &[Step]) {
    let mut oracle = initial;
    let mut table = Table::new("T", oracle.clone()).unwrap();
    // Touching the transpose and the statistics at every step gives each
    // version a predecessor whose resident state could go stale.
    assert_exact(&table, &oracle, "as registered");
    for (i, step) in steps.iter().enumerate() {
        oracle = apply(step, &mut table, &oracle, values);
        assert_exact(&table, &oracle, &format!("after step {i}: {step:?}"));
    }
}

/// A registered relation over [`wide_schema`]: one tuple per
/// `(class, start, len)`.
fn wide_relation(rows: &[(usize, i64, i64)]) -> Relation {
    let tuples = rows
        .iter()
        .map(|&(n, start, len)| {
            let mut values = wide(n);
            values.extend([Value::Time(start), Value::Time(start + len)]);
            Tuple::new(values)
        })
        .collect();
    Relation::new(wide_schema(), tuples).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn versions_stay_exact_under_random_modification_sequences(
        seed in 0u64..1_000,
        classes in 1usize..7,
        fragments in 1usize..5,
        adjacency in 0u8..3,
        overlap in 0u8..3,
        duplicates in 0u8..3,
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let cfg = GenConfig {
            classes,
            fragments_per_class: fragments,
            adjacency_prob: f64::from(adjacency) * 0.3,
            overlap_prob: f64::from(overlap) * 0.15,
            duplicate_prob: f64::from(duplicates) * 0.2,
            ..GenConfig::default()
        };
        run(seed, &cfg, &steps);
    }

    #[test]
    fn versions_over_every_column_type_and_nulls_stay_exact(
        rows in proptest::collection::vec((0usize..8, 0i64..60, 1i64..15), 0..24),
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        run_from(wide_relation(&rows), wide, &steps);
    }
}

/// Every named case once, whatever the random scripts happen to draw.
#[test]
fn each_kind_of_step_is_exact() {
    use Target::{Class, Everything};
    let delete = |target, start, len| Step::Delete { target, start, len };
    let steps = [
        // Split: a window strictly inside a long period.
        Step::Insert {
            class: 1,
            start: 10,
            len: 14,
        },
        delete(Class(1), 14, 3),
        // Miss by name, miss by window.
        delete(Class(7), 0, 39),
        delete(Class(1), 500, 5),
        // Duplicate, snapshot duplicate, adjacency.
        Step::InsertLike { row: 0, shape: 0 },
        Step::InsertLike { row: 0, shape: 1 },
        Step::InsertLike { row: 1, shape: 2 },
        // Update into an existing class and into a new one.
        Step::Update {
            target: Class(0),
            start: 5,
            len: 10,
            to_class: 1,
        },
        Step::Update {
            target: Everything,
            start: 0,
            len: 8,
            to_class: 6,
        },
        // Full cover of one class, then of everything, then life after.
        delete(Class(1), -100, 1_000),
        Step::Truncate,
        Step::Truncate,
        Step::Insert {
            class: 2,
            start: 1,
            len: 2,
        },
        Step::InsertLike { row: 0, shape: 2 },
    ];
    run(11, &GenConfig::fragmented(3, 4), &steps);
}

/// Undoing a modification restores the list byte for byte, order included
/// — the property `tests/serve_stress.rs` holds the served `AUDIT` table
/// to.
#[test]
fn an_insert_delete_pair_restores_the_initial_list() {
    let initial = WorkloadGenerator::new(5)
        .temporal(&GenConfig::default())
        .unwrap();
    let mut table = Table::new("T", initial.clone()).unwrap();
    let scratch = Expr::eq(Expr::col("E"), Expr::lit("scratch"));
    for round in 0..3 {
        table
            .insert_sequenced(vec![Value::from("scratch")], Period::of(1, 5))
            .unwrap();
        assert_eq!(table.len(), initial.len() + 1);
        table.delete_sequenced(&scratch, Period::of(1, 5)).unwrap();
        assert_exact(&table, &initial, &format!("round {round}"));
    }
}

/// Snapshot relations take the same path (`Table::insert`): a class is a
/// distinct tuple and there are no periods to examine.
#[test]
fn appends_to_a_snapshot_relation_are_exact() {
    let mut oracle = WorkloadGenerator::new(3).conventional(40, 5).unwrap();
    let mut table = Table::new("C", oracle.clone()).unwrap();
    for i in 0..6 {
        let added = vec![oracle.tuples()[i * 3].clone(), oracle.tuples()[i].clone()];
        table.insert(added.clone()).unwrap();
        let mut all = oracle.tuples().to_vec();
        all.extend(added);
        oracle = Relation::new(oracle.schema().clone(), all).unwrap();
        assert_exact(&table, &oracle, &format!("append {i}"));
    }
}
