//! Projection `π_{f1,…,fn}(r)` with computed items.
//!
//! Table 1: order `= Prefix(Order(r), ProjPairs)`, cardinality `= n(r)`,
//! *generates* duplicates, destroys coalescing. The result is temporal
//! exactly when the projection keeps both `T1` and `T2` (as in Figure 3's
//! `π_{EmpName,T1,T2}(EMPLOYEE)`); projecting them away yields a snapshot
//! relation.

use crate::error::{Error, Result};
use crate::expr::{Expr, ProjItem};
use crate::relation::Relation;
use crate::schema::{Attribute, Schema, T1, T2};
use crate::tuple::Tuple;

/// Compute the output schema of a projection without materializing it.
pub fn project_schema(input: &Schema, items: &[ProjItem]) -> Result<Schema> {
    if items.is_empty() {
        return Err(Error::Plan {
            reason: "projection needs at least one item".into(),
        });
    }
    let mut attrs = Vec::with_capacity(items.len());
    for item in items {
        attrs.push(Attribute::new(
            item.alias.clone(),
            item.expr.infer_type(input)?,
        ));
    }
    Schema::new(attrs)
}

/// True when the projection passes the argument's period attributes through
/// untouched: every output attribute named `T1`/`T2` is the identity
/// reference to the same-named input attribute. Such projections cannot
/// invert or empty a period, so the (already validated) input guarantees a
/// valid output — the check `Relation::new` performs per tuple is redundant.
pub fn periods_passthrough(items: &[ProjItem]) -> bool {
    items.iter().all(|item| {
        if item.alias != T1 && item.alias != T2 {
            return true;
        }
        matches!(&item.expr, Expr::Col(c) if *c == item.alias)
    })
}

/// Apply `π`: evaluate every item against every tuple, in order.
pub fn project(r: &Relation, items: &[ProjItem]) -> Result<Relation> {
    let out_schema = project_schema(r.schema(), items)?;
    let mut out = Vec::with_capacity(r.len());
    for t in r.tuples() {
        let mut values = Vec::with_capacity(items.len());
        for item in items {
            values.push(item.expr.eval(r.schema(), t)?);
        }
        out.push(Tuple::new(values));
    }
    // Computed period endpoints could be inverted or empty, so projections
    // that *compute* T1/T2 must validate; identity pass-through of the
    // period attributes (the overwhelmingly common case) is statically
    // valid and skips the per-tuple re-validation.
    if out_schema.is_temporal() && !periods_passthrough(items) {
        Relation::new(out_schema, out)
    } else {
        Ok(Relation::new_unchecked(out_schema, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Expr};
    use crate::tuple;
    use crate::value::DataType;

    fn employee() -> Relation {
        Relation::new(
            Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]),
            vec![
                tuple!["John", "Sales", 1i64, 8i64],
                tuple!["John", "Advertising", 6i64, 11i64],
                tuple!["Anna", "Sales", 2i64, 6i64],
                tuple!["Anna", "Advertising", 2i64, 6i64],
                tuple!["Anna", "Sales", 6i64, 12i64],
            ],
        )
        .unwrap()
    }

    #[test]
    fn figure3_projection_is_temporal_and_has_duplicates() {
        // R1 = π_{EmpName,T1,T2}(EMPLOYEE): generates a duplicate Anna tuple.
        let r1 = project(
            &employee(),
            &[
                ProjItem::col("EmpName"),
                ProjItem::col("T1"),
                ProjItem::col("T2"),
            ],
        )
        .unwrap();
        assert!(r1.is_temporal());
        assert_eq!(
            r1.tuples(),
            &[
                tuple!["John", 1i64, 8i64],
                tuple!["John", 6i64, 11i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 2i64, 6i64],
                tuple!["Anna", 6i64, 12i64],
            ]
        );
        assert!(r1.has_duplicates());
    }

    #[test]
    fn dropping_time_attrs_gives_snapshot_relation() {
        let got = project(&employee(), &[ProjItem::col("EmpName")]).unwrap();
        assert!(!got.is_temporal());
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn computed_items() {
        let r = Relation::new(
            Schema::of(&[("A", DataType::Int)]),
            vec![tuple![1i64], tuple![5i64]],
        )
        .unwrap();
        let items = [ProjItem::new(
            Expr::bin(BinOp::Mul, Expr::col("A"), Expr::lit(10i64)),
            "A10",
        )];
        let got = project(&r, &items).unwrap();
        assert_eq!(got.schema().names(), vec!["A10"]);
        assert_eq!(got.tuples(), &[tuple![10i64], tuple![50i64]]);
    }

    #[test]
    fn duplicate_aliases_rejected() {
        let r = Relation::new(Schema::of(&[("A", DataType::Int)]), vec![tuple![1i64]]).unwrap();
        let items = [ProjItem::col("A"), ProjItem::new(Expr::col("A"), "A")];
        assert!(project(&r, &items).is_err());
    }

    #[test]
    fn empty_projection_rejected() {
        let r = Relation::new(Schema::of(&[("A", DataType::Int)]), vec![]).unwrap();
        assert!(project(&r, &[]).is_err());
    }

    #[test]
    fn keeping_only_t1_without_t2_is_rejected() {
        // A schema with T1 but not T2 violates the reserved-attribute rule.
        let got = project(
            &employee(),
            &[ProjItem::col("EmpName"), ProjItem::col("T1")],
        );
        assert!(got.is_err());
    }
}
