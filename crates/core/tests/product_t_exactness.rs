//! `product_t` is `product_t_literal`, as lists — and so is the batch
//! engine's columnar kernel.
//!
//! The endpoint sweep finds the overlapping pairs in sweep order and sorts
//! them back into the nested loop's: left-major, right rows ascending. The
//! nested loop run literally is the oracle. Generated periods lean on the
//! shapes where the orders could part: identical periods (every sweep
//! event ties), containment, adjacency (which is no overlap), and inputs in
//! any list order.

use std::sync::Arc;

use proptest::prelude::*;

use tqo_core::columnar::ColumnarRelation;
use tqo_core::ops::temporal::product_t::product_t_schema;
use tqo_core::ops::{product_t, product_t_literal};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::batch::kernels;

/// Rows `(E, T1, T2)`: `(value, start, len)` triples, with a small period
/// range so that ties, containment and adjacency are common.
fn arb_side(max_rows: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0u8..4, 0i64..16, 1i64..8), 0..=max_rows).prop_map(|rows| {
        let tuples = rows
            .into_iter()
            .map(|(v, start, len)| {
                let e = if v == 0 {
                    Value::Null
                } else {
                    Value::from(format!("v{v}"))
                };
                Tuple::new(vec![e, Value::Time(start), Value::Time(start + len)])
            })
            .collect();
        Relation::new(Schema::temporal(&[("E", DataType::Str)]), tuples).unwrap()
    })
}

fn assert_same_list(l: &Relation, r: &Relation) -> Result<(), TestCaseError> {
    let literal = product_t_literal(l, r).unwrap();
    let swept = product_t(l, r).unwrap();
    prop_assert_eq!(swept.schema(), literal.schema());
    prop_assert_eq!(
        swept.tuples(),
        literal.tuples(),
        "left: {}, right: {}",
        l,
        r
    );
    let schema = Arc::new(product_t_schema(l.schema(), r.schema()).unwrap());
    let batch = kernels::product_t_sweep(
        &ColumnarRelation::from_relation(l).unwrap(),
        &ColumnarRelation::from_relation(r).unwrap(),
        schema,
    )
    .unwrap()
    .to_relation();
    prop_assert_eq!(batch.tuples(), literal.tuples(), "batch");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn sweep_is_the_nested_loops_list(l in arb_side(40), r in arb_side(40)) {
        assert_same_list(&l, &r)?;
        assert_same_list(&r, &l)?;
        assert_same_list(&l, &l)?;
    }
}

/// Every period identical: every pair overlaps and every sweep event ties,
/// so the output order is the sort alone.
#[test]
fn identical_periods_keep_left_major_order() {
    let side = |n: usize, tag: &str| {
        let tuples = (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(format!("{tag}{i}")),
                    Value::Time(3),
                    Value::Time(9),
                ])
            })
            .collect();
        Relation::new(Schema::temporal(&[("E", DataType::Str)]), tuples).unwrap()
    };
    let (l, r) = (side(30, "l"), side(20, "r"));
    let got = product_t(&l, &r).unwrap();
    assert_eq!(got.len(), 600);
    assert_eq!(got, product_t_literal(&l, &r).unwrap());
}
