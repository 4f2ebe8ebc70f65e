//! A column-born relation's tuples are rows of one shared block.
//!
//! `Relation::tuples` on a relation born in columns builds one row-major
//! block of values and hands out its rows; tuples built any other way own
//! their values. Nothing outside `Tuple` may tell the two apart: the list
//! must be the row-by-row transpose of the columns, a block row must
//! compare, hash and format exactly as an owned tuple with the same
//! values, anything derived from a block row must leave the list as it
//! was, and the memory estimate read off the columns must be the one
//! summed over the built tuples.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::Arc;

use proptest::prelude::*;

use tqo_core::columnar::{Column, ColumnarRelation};
use tqo_core::time::Period;
use tqo_core::{DataType, Relation, Schema, Tuple, Value};

const WORDS: [&str; 6] = [
    "",
    "a",
    "Sales",
    "é",
    "日本語のテキスト",
    "a somewhat longer key",
];

const DTYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Time,
    DataType::Float,
    DataType::Bool,
    DataType::Str,
];

const NAMES: [&str; 6] = ["c0", "c1", "c2", "c3", "c4", "c5"];

/// SplitMix64, so one drawn seed spells out a whole relation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A value of `dtype`, NULL about one time in six.
fn value(dtype: DataType, rng: &mut Rng) -> Value {
    if rng.below(6) == 0 {
        return Value::Null;
    }
    match dtype {
        DataType::Int => Value::Int(rng.below(41) as i64 - 20),
        DataType::Time => Value::Time(rng.below(100) as i64),
        DataType::Float => Value::Float(rng.below(1000) as f64 / 8.0 - 60.0),
        DataType::Bool => Value::Bool(rng.below(2) == 1),
        DataType::Str => Value::from(WORDS[rng.below(WORDS.len() as u64) as usize]),
    }
}

fn column(dtype: DataType, values: &[Value]) -> Arc<Column> {
    let mut c = Column::with_capacity(dtype, values.len());
    for v in values {
        c.push(v).expect("a value of the column's domain");
    }
    Arc::new(c)
}

/// A column-born relation of `rows` rows over `dtypes`, drawn from `seed`;
/// with `temporal`, `T1`/`T2` columns holding non-empty periods follow.
fn born_in_columns(rows: usize, dtypes: &[DataType], temporal: bool, seed: u64) -> Relation {
    let mut rng = Rng(seed);
    let pairs: Vec<(&str, DataType)> = NAMES.iter().copied().zip(dtypes.iter().copied()).collect();
    let schema = match temporal {
        true => Schema::temporal(&pairs),
        false => Schema::of(&pairs),
    };
    let mut columns: Vec<Arc<Column>> = dtypes
        .iter()
        .map(|&d| {
            let values: Vec<Value> = (0..rows).map(|_| value(d, &mut rng)).collect();
            column(d, &values)
        })
        .collect();
    if temporal {
        let starts: Vec<i64> = (0..rows).map(|_| rng.below(50) as i64).collect();
        let t1: Vec<Value> = starts.iter().map(|&s| Value::Time(s)).collect();
        let t2: Vec<Value> = starts
            .iter()
            .map(|&s| Value::Time(s + 1 + rng.below(9) as i64))
            .collect();
        columns.push(column(DataType::Time, &t1));
        columns.push(column(DataType::Time, &t2));
    }
    Relation::from_columnar(ColumnarRelation::new(Arc::new(schema), columns))
}

/// The tuple list read value by value off the columns.
fn transpose(r: &Relation) -> Vec<Vec<Value>> {
    let c = r.columnar().expect("column-born");
    (0..c.rows())
        .map(|i| c.columns().iter().map(|col| col.value(i)).collect())
        .collect()
}

/// The list equals the row-by-row transpose of its columns, and the
/// estimate read off the columns equals the one summed over the list.
fn check_list(r: &Relation) -> Result<(), TestCaseError> {
    let from_columns = r.approx_bytes();
    let expected = transpose(r);
    let tuples = r.tuples();
    prop_assert_eq!(tuples.len(), expected.len());
    for (k, (t, want)) in tuples.iter().zip(&expected).enumerate() {
        prop_assert_eq!(t.values(), want.as_slice(), "row {}", k);
        prop_assert_eq!(t.arity(), r.schema().arity(), "row {}", k);
    }
    let summed: usize = tuples.iter().map(Tuple::approx_bytes).sum();
    prop_assert_eq!(from_columns, summed);
    Ok(())
}

/// A block row and an owned tuple with its values are interchangeable.
fn check_agrees(r: &Relation) -> Result<(), TestCaseError> {
    let hasher = RandomState::new();
    let tuples = r.tuples();
    let owned: Vec<Tuple> = tuples
        .iter()
        .map(|t| Tuple::new(t.values().to_vec()))
        .collect();
    for (k, (t, o)) in tuples.iter().zip(&owned).enumerate() {
        prop_assert_eq!(t, o, "== on row {}", k);
        prop_assert_eq!(o, t, "== (reversed) on row {}", k);
        prop_assert_eq!(t.cmp(o), std::cmp::Ordering::Equal, "cmp on row {}", k);
        prop_assert_eq!(hasher.hash_one(t), hasher.hash_one(o), "hash on row {}", k);
        prop_assert_eq!(t.to_string(), o.to_string(), "Display on row {}", k);
        prop_assert_eq!(format!("{t:?}"), format!("{o:?}"), "Debug on row {}", k);
        prop_assert_eq!(format!("{t:#?}"), format!("{o:#?}"), "{{:#?}} on row {}", k);
        if let Some(next) = tuples.get(k + 1) {
            prop_assert_eq!(
                t.cmp(next),
                o.cmp(&owned[k + 1]),
                "cmp of rows {} and {}",
                k,
                k + 1
            );
            prop_assert_eq!(
                t == next,
                *o == owned[k + 1],
                "== of rows {} and {}",
                k,
                k + 1
            );
        }
    }
    Ok(())
}

/// Clones and modifications of block rows have the right values and leave
/// the list unchanged.
fn check_derived(r: &Relation) -> Result<(), TestCaseError> {
    let schema = r.schema();
    let before: Vec<Vec<Value>> = r.tuples().iter().map(|t| t.values().to_vec()).collect();
    let arity = schema.arity();
    for (k, t) in r.tuples().iter().enumerate() {
        let values = t.values().to_vec();
        let clone = t.clone();
        prop_assert_eq!(clone.values(), values.as_slice(), "clone of row {}", k);
        prop_assert_eq!(&clone, t);

        if arity > 0 {
            let i = k % arity;
            let mut changed = t.clone();
            changed.set_value(i, Value::Null);
            let mut want = values.clone();
            want[i] = Value::Null;
            prop_assert_eq!(changed.values(), want.as_slice(), "set_value on row {}", k);
        }

        let reversed: Vec<usize> = (0..arity).rev().collect();
        let projected = t.project(&reversed);
        let want: Vec<Value> = values.iter().rev().cloned().collect();
        prop_assert_eq!(projected.values(), want.as_slice(), "project of row {}", k);

        let doubled = t.concat(t);
        let want: Vec<Value> = values.iter().chain(&values).cloned().collect();
        prop_assert_eq!(doubled.values(), want.as_slice(), "concat of row {}", k);

        if schema.is_temporal() {
            let p = Period::of(1000 + k as i64, 2000);
            let moved = t.with_period(schema, p).expect("temporal");
            prop_assert_eq!(moved.period(schema).expect("period"), p);
            prop_assert_eq!(moved.explicit_values(schema), t.explicit_values(schema));
        }
    }
    let after: Vec<Vec<Value>> = r.tuples().iter().map(|t| t.values().to_vec()).collect();
    prop_assert_eq!(before, after, "the list is unchanged");
    Ok(())
}

fn dtypes(picks: &[usize]) -> Vec<DataType> {
    picks.iter().map(|&p| DTYPES[p]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tuples_are_the_transpose_of_the_columns(
        rows in 0usize..=300,
        picks in prop::collection::vec(0usize..DTYPES.len(), 0..=6),
        seed in any::<u64>(),
    ) {
        check_list(&born_in_columns(rows, &dtypes(&picks), false, seed))?;
    }

    #[test]
    fn block_rows_agree_with_owned_tuples(
        rows in 0usize..=60,
        picks in prop::collection::vec(0usize..DTYPES.len(), 0..=6),
        seed in any::<u64>(),
    ) {
        check_agrees(&born_in_columns(rows, &dtypes(&picks), false, seed))?;
    }

    #[test]
    fn derived_tuples_leave_the_list_alone(
        rows in 0usize..=60,
        picks in prop::collection::vec(0usize..DTYPES.len(), 0..=4),
        temporal in any::<bool>(),
        seed in any::<u64>(),
    ) {
        check_derived(&born_in_columns(rows, &dtypes(&picks), temporal, seed))?;
    }
}

#[test]
fn edge_shapes_hold() {
    // Zero rows over three columns: an empty list.
    let r = born_in_columns(0, &[DataType::Int, DataType::Str, DataType::Bool], false, 3);
    assert!(r.tuples().is_empty());
    check_list(&r).unwrap();

    // Five rows over no columns: five empty tuples.
    let rows = Relation::new(Schema::of(&[]), vec![Tuple::new(Vec::new()); 5]).unwrap();
    let columns = ColumnarRelation::from_relation(&rows).unwrap();
    let r = Relation::from_columnar(columns);
    assert_eq!(r.len(), 5);
    assert_eq!(r.tuples().len(), 5);
    assert!(r.tuples().iter().all(|t| t.arity() == 0));
    check_list(&r).unwrap();
    check_agrees(&r).unwrap();
    check_derived(&r).unwrap();

    // Only NULLs, in every domain.
    let nulls: Vec<Arc<Column>> = DTYPES
        .iter()
        .map(|&d| column(d, &[Value::Null, Value::Null]))
        .collect();
    let pairs: Vec<(&str, DataType)> = NAMES.iter().copied().zip(DTYPES).collect();
    let r = Relation::from_columnar(ColumnarRelation::new(Arc::new(Schema::of(&pairs)), nulls));
    assert!(r
        .tuples()
        .iter()
        .all(|t| t.values().iter().all(|v| *v == Value::Null)));
    check_list(&r).unwrap();
}

#[test]
fn debug_keeps_the_derived_form() {
    let columns = vec![
        column(DataType::Int, &[Value::Int(1)]),
        column(DataType::Str, &[Value::from("x")]),
        column(DataType::Bool, &[Value::Null]),
    ];
    let schema = Schema::of(&[
        ("a", DataType::Int),
        ("b", DataType::Str),
        ("c", DataType::Bool),
    ]);
    let r = Relation::from_columnar(ColumnarRelation::new(Arc::new(schema), columns));
    assert_eq!(
        format!("{:?}", r.tuples()[0]),
        r#"Tuple { values: [Int(1), Str("x"), Null] }"#
    );
    assert_eq!(r.tuples()[0].to_string(), "(1, x, NULL)");
}
