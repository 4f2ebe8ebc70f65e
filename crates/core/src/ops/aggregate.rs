//! Aggregation `ξ_{G1..Gn; F1..Fm}(r)`.
//!
//! Table 1: order `= Prefix(Order(r), GroupPairs)`, cardinality `≤ n(r)`,
//! eliminates duplicates. Groups appear in order of their first occurrence
//! in the argument — which is exactly what makes the `Prefix` order claim
//! true for sorted inputs. Applied to a temporal relation the conventional
//! aggregation produces a snapshot relation (grouping attributes named
//! `T1`/`T2` are demoted, matching the `rdup` convention).

use std::collections::HashMap;

use crate::error::{Error, Result};
use crate::expr::AggItem;
use crate::relation::Relation;
use crate::schema::{Attribute, Schema, T1, T2};
use crate::tuple::Tuple;
use crate::value::Value;

/// Compute the output schema of an aggregation.
pub fn aggregate_schema(input: &Schema, group_by: &[String], aggs: &[AggItem]) -> Result<Schema> {
    if group_by.is_empty() && aggs.is_empty() {
        return Err(Error::Plan {
            reason: "aggregation needs groups or aggregates".into(),
        });
    }
    let mut attrs = Vec::with_capacity(group_by.len() + aggs.len());
    for g in group_by {
        let i = input.resolve(g)?;
        let a = input.attr(i);
        // Demote reserved names: the result is a snapshot relation.
        let name = if a.name == T1 {
            "1.T1".to_owned()
        } else if a.name == T2 {
            "1.T2".to_owned()
        } else {
            a.name.clone()
        };
        attrs.push(Attribute::new(name, a.dtype));
    }
    for agg in aggs {
        attrs.push(Attribute::new(agg.alias.clone(), agg.output_type(input)?));
    }
    Schema::new(attrs)
}

/// Apply `ξ`: group by the named attributes and fold the aggregates.
pub fn aggregate(r: &Relation, group_by: &[String], aggs: &[AggItem]) -> Result<Relation> {
    let out_schema = aggregate_schema(r.schema(), group_by, aggs)?;
    let key_idx: Vec<usize> = group_by
        .iter()
        .map(|g| r.schema().resolve(g))
        .collect::<Result<_>>()?;

    // Group tuples, keeping first-occurrence order of groups.
    let mut group_order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
    for t in r.tuples() {
        let key: Vec<Value> = key_idx.iter().map(|&i| t.value(i).clone()).collect();
        groups
            .entry(key.clone())
            .or_insert_with(|| {
                group_order.push(key);
                Vec::new()
            })
            .push(t);
    }

    // Grand-total aggregation over an empty relation still yields one row
    // (matching SQL's `SELECT COUNT(*) FROM empty`).
    if group_by.is_empty() && r.is_empty() {
        let mut values = Vec::with_capacity(aggs.len());
        for agg in aggs {
            values.push(agg.compute(r.schema(), &[])?);
        }
        return Ok(Relation::new_unchecked(
            out_schema,
            vec![Tuple::new(values)],
        ));
    }

    let mut out = Vec::with_capacity(group_order.len());
    for key in group_order {
        let members = &groups[&key];
        let mut values = key;
        for agg in aggs {
            values.push(agg.compute(r.schema(), members)?);
        }
        out.push(Tuple::new(values));
    }
    Ok(Relation::new_unchecked(out_schema, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::AggFunc;
    use crate::tuple;
    use crate::value::DataType;

    fn rel() -> Relation {
        Relation::new(
            Schema::of(&[("G", DataType::Str), ("V", DataType::Int)]),
            vec![
                tuple!["b", 1i64],
                tuple!["a", 2i64],
                tuple!["b", 3i64],
                tuple!["a", 4i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn groups_in_first_occurrence_order() {
        let got = aggregate(
            &rel(),
            &["G".into()],
            &[AggItem::new(AggFunc::Sum, Some("V"), "s")],
        )
        .unwrap();
        assert_eq!(got.tuples(), &[tuple!["b", 4i64], tuple!["a", 6i64]]);
    }

    #[test]
    fn multiple_aggregates() {
        let got = aggregate(
            &rel(),
            &["G".into()],
            &[
                AggItem::count_star("n"),
                AggItem::new(AggFunc::Min, Some("V"), "lo"),
                AggItem::new(AggFunc::Max, Some("V"), "hi"),
            ],
        )
        .unwrap();
        assert_eq!(got.schema().names(), vec!["G", "n", "lo", "hi"]);
        assert_eq!(got.tuples()[0], tuple!["b", 2i64, 1i64, 3i64]);
    }

    #[test]
    fn grand_total_without_groups() {
        let got = aggregate(&rel(), &[], &[AggItem::count_star("n")]).unwrap();
        assert_eq!(got.tuples(), &[tuple![4i64]]);
    }

    #[test]
    fn grand_total_on_empty_relation() {
        let r = Relation::empty(Schema::of(&[("V", DataType::Int)]));
        let got = aggregate(&r, &[], &[AggItem::count_star("n")]).unwrap();
        assert_eq!(got.tuples(), &[tuple![0i64]]);
    }

    #[test]
    fn grouping_on_empty_relation_gives_no_rows() {
        let r = Relation::empty(Schema::of(&[("G", DataType::Str), ("V", DataType::Int)]));
        let got = aggregate(&r, &["G".into()], &[AggItem::count_star("n")]).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn eliminates_duplicates() {
        // Same group key twice collapses to one row.
        let got = aggregate(&rel(), &["G".into()], &[]).unwrap();
        assert_eq!(got.len(), 2);
        assert!(!got.has_duplicates());
    }

    #[test]
    fn grouping_by_time_attr_demotes() {
        let s = Schema::temporal(&[("E", DataType::Str)]);
        let r = Relation::new(s, vec![tuple!["a", 1i64, 3i64], tuple!["b", 1i64, 4i64]]).unwrap();
        let got = aggregate(&r, &["T1".into()], &[AggItem::count_star("n")]).unwrap();
        assert_eq!(got.schema().names(), vec!["1.T1", "n"]);
        assert!(!got.is_temporal());
        assert_eq!(got.tuples(), &[tuple![1i64, 2i64]]);
    }
}
