//! Hash equi-joins `×` / `×ᵀ`.
//!
//! Below a selection with equality conjuncts across the two inputs, the
//! product indexes the right input on its key columns and probes it with
//! each left tuple in order, emitting the matches in right order: exactly
//! the sub-list of the product's left-major list that satisfies the key
//! equalities, so the selection above computes the list it always did.

use std::collections::HashMap;

use tqo_core::context::StridePoll;
use tqo_core::error::Result;
use tqo_core::ops::product::product_schema;
use tqo_core::ops::temporal::product_t::product_t_schema;
use tqo_core::relation::Relation;
use tqo_core::tuple::Tuple;
use tqo_core::value::Value;

use crate::physical::EquiKeys;

/// Call `emit` on every pair of a left and a right tuple whose key columns
/// are equal and non-NULL, left-major, right tuples in list order.
fn for_each_key_match(
    r1: &Relation,
    r2: &Relation,
    keys: &EquiKeys,
    mut emit: impl FnMut(&Tuple, &Tuple) -> Result<()>,
) -> Result<()> {
    let (left_cols, right_cols) = keys.resolve(r1.schema(), r2.schema())?;
    // `None` for a key with a NULL in it: `=` is never true of a NULL.
    let key_of = |t: &Tuple, cols: &[usize]| {
        let key = t.project(cols).into_values();
        (!key.iter().any(Value::is_null)).then_some(key)
    };
    let mut index: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
    for t2 in r2.tuples() {
        if let Some(key) = key_of(t2, &right_cols) {
            index.entry(key).or_default().push(t2);
        }
    }
    let mut poll = StridePoll::new();
    for t1 in r1.tuples() {
        poll.poll()?;
        let Some(matches) = key_of(t1, &left_cols).and_then(|key| index.get(&key)) else {
            continue;
        };
        for t2 in matches {
            poll.poll()?;
            emit(t1, t2)?;
        }
    }
    Ok(())
}

/// Hash equi-join `×`: the pairs of [`tqo_core::ops::product()`] that
/// satisfy the key equalities, in its order.
pub fn product_hash_equi(r1: &Relation, r2: &Relation, keys: &EquiKeys) -> Result<Relation> {
    let schema = product_schema(r1.schema(), r2.schema())?;
    let mut out = Vec::new();
    for_each_key_match(r1, r2, keys, |t1, t2| {
        out.push(t1.concat(t2));
        Ok(())
    })?;
    Ok(Relation::new_unchecked(schema, out))
}

/// Hash equi-join `×ᵀ`: the pairs of [`tqo_core::ops::product_t()`] that
/// satisfy the key equalities, in its order.
pub fn product_t_hash_equi(r1: &Relation, r2: &Relation, keys: &EquiKeys) -> Result<Relation> {
    let schema = product_t_schema(r1.schema(), r2.schema())?;
    let mut out = Vec::new();
    for_each_key_match(r1, r2, keys, |t1, t2| {
        if let Some(p) = t1.period(r1.schema())?.intersect(&t2.period(r2.schema())?) {
            let mut values = t1.values().to_vec();
            values.extend(t2.values().iter().cloned());
            values.push(Value::Time(p.start));
            values.push(Value::Time(p.end));
            out.push(Tuple::new(values));
        }
        Ok(())
    })?;
    Ok(Relation::new_unchecked(schema, out))
}
