//! Sequenced temporal modifications (§7's modification extension).
//!
//! Valid-time tables are modified *sequenced*: an insertion, deletion, or
//! update applies over an applicability period `[T1, T2)` and must leave
//! the history outside that period untouched. Deletion therefore subtracts
//! the period from matching tuples (splitting straddling tuples in two,
//! exactly the `Changeᵀ` arithmetic of `rdupᵀ`), and update rewrites only
//! the covered fragments.
//!
//! The free functions are the pure `Relation → Relation` reading, tuple by
//! tuple — the literal definition. The [`crate::table::Table`] methods
//! compute the same list over the table's columns, as a delta: the next
//! version, born in columns, plus the tuples that left and entered, from
//! which the table derives the next version's properties and statistics
//! instead of from the whole list.

use std::sync::Arc;

use tqo_core::columnar::Sel;
use tqo_core::error::{Error, Result};
use tqo_core::expr::Expr;
use tqo_core::exprs;
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::time::Period;
use tqo_core::tuple::Tuple;
use tqo_core::value::Value;

use crate::table::{Delta, NextColumns};

fn require_temporal(relation: &Relation, context: &'static str) -> Result<()> {
    if relation.is_temporal() {
        Ok(())
    } else {
        Err(Error::NotTemporal { context })
    }
}

/// The tuple a sequenced INSERT appends: `values` valid over `period`.
fn sequenced_tuple(relation: &Relation, mut values: Vec<Value>, period: Period) -> Result<Tuple> {
    require_temporal(relation, "sequenced insert")?;
    if period.is_empty() {
        return Err(Error::InvalidPeriod {
            start: period.start,
            end: period.end,
        });
    }
    values.push(Value::Time(period.start));
    values.push(Value::Time(period.end));
    Ok(Tuple::new(values))
}

/// The checks a rewrite makes before it reads any tuple: the relation is
/// temporal, and the predicate's names resolve — the period test spares
/// most tuples the predicate, so name resolution must not depend on which
/// tuples reach it.
fn check_rewrite(relation: &Relation, predicate: &Expr, context: &'static str) -> Result<()> {
    require_temporal(relation, context)?;
    for name in predicate.attrs() {
        relation.schema().resolve(&name)?;
    }
    Ok(())
}

/// The fragments that replace a rewritten tuple `t` with period `p`: its
/// parts outside `period` with the old values, then what `inside` says
/// replaces it over the covered part.
fn fragments(
    schema: &Schema,
    t: &Tuple,
    p: Period,
    period: Period,
    covered: Period,
    inside: &impl Fn(&Tuple, Period) -> Result<Option<Tuple>>,
) -> Result<Vec<Tuple>> {
    let mut out = p
        .subtract(&period)
        .into_iter()
        .map(|fragment| t.with_period(schema, fragment))
        .collect::<Result<Vec<_>>>()?;
    out.extend(inside(t, covered)?);
    Ok(out)
}

/// Rewrite every tuple that satisfies `predicate` and overlaps `period`:
/// its fragments outside the period survive with the old values, and
/// `inside` says what (if anything) replaces it over the covered part.
///
/// The literal definition, tuple by tuple: the pure modifications below
/// use it, and it is the oracle the tables' column-wise
/// [`rewrite_columns`] is held to.
fn rewrite(
    relation: &Relation,
    predicate: &Expr,
    period: Period,
    context: &'static str,
    inside: impl Fn(&Tuple, Period) -> Result<Option<Tuple>>,
) -> Result<Vec<Tuple>> {
    check_rewrite(relation, predicate, context)?;
    let schema = relation.schema();
    let mut next = Vec::with_capacity(relation.len() + 4);
    for t in relation.tuples() {
        let p = t.period(schema)?;
        match p.intersect(&period) {
            Some(covered) if predicate.eval_predicate(schema, t)? => {
                next.extend(fragments(schema, t, p, period, covered, &inside)?);
            }
            _ => next.push(t.clone()),
        }
    }
    Ok(next)
}

/// [`rewrite`] over a table version's columns, as a [`Delta`]: the period
/// test runs on the `T1`/`T2` columns, and the predicate over the rows it
/// passes — compiled, as the batch engine's `select` runs it, so only the
/// rows the rewrite removes are built as tuples. A predicate outside the
/// compiled fragment is evaluated tuple by tuple instead, exactly as the
/// `select` falls back. The next version is born in columns — runs of
/// untouched rows copied a column at a time, each rewritten row's
/// fragments pushed in its place.
fn rewrite_columns(
    relation: &Relation,
    predicate: &Expr,
    period: Period,
    context: &'static str,
    inside: impl Fn(&Tuple, Period) -> Result<Option<Tuple>>,
) -> Result<Delta> {
    check_rewrite(relation, predicate, context)?;
    let schema = relation.schema();
    let current = relation.columnar()?;
    let (t1, t2) = current.period_columns()?;
    // `Period::intersect`'s test.
    let overlapping: Vec<u32> = (0..current.rows())
        .filter(|&i| t1[i].max(period.start) < t2[i].min(period.end))
        .map(|i| i as u32)
        .collect();
    let hits: Vec<(usize, Tuple)> = match exprs::compile(predicate, schema) {
        Some(pred) => exprs::filter(&pred, current.columns(), &Sel::Rows(Arc::new(overlapping)))
            .into_iter()
            .map(|i| (i as usize, current.tuple(i as usize)))
            .collect(),
        None => {
            let mut hits = Vec::new();
            for i in overlapping.into_iter().map(|i| i as usize) {
                let t = current.tuple(i);
                if predicate.eval_predicate(schema, &t)? {
                    hits.push((i, t));
                }
            }
            hits
        }
    };
    let mut delta = Delta {
        next: relation.clone(),
        removed: Vec::with_capacity(hits.len()),
        added: Vec::new(),
    };
    if hits.is_empty() {
        return Ok(delta);
    }
    let mut next = NextColumns::new(&current, hits.len() * 2);
    let mut untouched = 0;
    for (i, t) in hits {
        next.keep(untouched, i);
        untouched = i + 1;
        let p = Period::of(t1[i], t2[i]);
        let covered = p.intersect(&period).expect("the period test passed");
        for fragment in fragments(schema, &t, p, period, covered, &inside)? {
            next.push(&fragment)?;
            delta.added.push(fragment);
        }
        delta.removed.push(t);
    }
    next.keep(untouched, current.rows());
    delta.next = next.finish();
    Ok(delta)
}

fn delete_nothing(_: &Tuple, _: Period) -> Result<Option<Tuple>> {
    Ok(None)
}

/// What a sequenced update puts over the covered part of `t`: `apply`'s
/// values, valid over `covered`.
fn updated(
    schema: &Schema,
    t: &Tuple,
    covered: Period,
    apply: impl Fn(&Tuple) -> Result<Tuple>,
) -> Result<Option<Tuple>> {
    let updated = apply(t)?;
    if updated.arity() != t.arity() {
        return Err(Error::MalformedTuple {
            reason: "sequenced update must preserve arity".into(),
        });
    }
    updated.with_period(schema, covered).map(Some)
}

/// Sequenced INSERT: append a tuple valid over `period`.
pub fn insert_sequenced(
    relation: &Relation,
    values: Vec<Value>,
    period: Period,
) -> Result<Relation> {
    let mut all = relation.tuples().to_vec();
    all.push(sequenced_tuple(relation, values, period)?);
    Relation::new(relation.schema().clone(), all)
}

/// Sequenced DELETE: remove the validity of every tuple satisfying
/// `predicate` over `period`. Tuples whose periods straddle the deletion
/// window are split; fully covered tuples disappear.
pub fn delete_sequenced(relation: &Relation, predicate: &Expr, period: Period) -> Result<Relation> {
    let next = rewrite(
        relation,
        predicate,
        period,
        "sequenced delete",
        delete_nothing,
    )?;
    Relation::new(relation.schema().clone(), next)
}

/// Sequenced UPDATE: for every tuple satisfying `predicate`, replace the
/// explicit values over the intersection with `period` via `apply`; the
/// uncovered fragments keep the old values.
pub fn update_sequenced(
    relation: &Relation,
    predicate: &Expr,
    period: Period,
    apply: impl Fn(&Tuple) -> Result<Tuple>,
) -> Result<Relation> {
    let schema = relation.schema();
    let next = rewrite(
        relation,
        predicate,
        period,
        "sequenced update",
        |t, covered| updated(schema, t, covered, &apply),
    )?;
    Relation::new(schema.clone(), next)
}

impl crate::table::Table {
    /// Sequenced INSERT on a stored table.
    pub fn insert_sequenced(&mut self, values: Vec<Value>, period: Period) -> Result<()> {
        let tuple = sequenced_tuple(self.relation(), values, period)?;
        self.insert(vec![tuple])
    }

    /// Sequenced DELETE on a stored table.
    pub fn delete_sequenced(&mut self, predicate: &Expr, period: Period) -> Result<()> {
        let delta = rewrite_columns(
            self.relation(),
            predicate,
            period,
            "sequenced delete",
            delete_nothing,
        )?;
        self.succeed(delta)
    }

    /// Sequenced UPDATE on a stored table.
    pub fn update_sequenced(
        &mut self,
        predicate: &Expr,
        period: Period,
        apply: impl Fn(&Tuple) -> Result<Tuple>,
    ) -> Result<()> {
        let schema = self.relation().schema();
        let delta = rewrite_columns(
            self.relation(),
            predicate,
            period,
            "sequenced update",
            |t, covered| updated(schema, t, covered, &apply),
        )?;
        self.succeed(delta)
    }
}

/// Catalog-level sequenced mutations: each swaps in the table's next
/// version ([`crate::catalog::Catalog::with_table_mut`]).
impl crate::catalog::Catalog {
    /// Sequenced INSERT into a cataloged table.
    pub fn insert_sequenced(&self, table: &str, values: Vec<Value>, period: Period) -> Result<()> {
        self.with_table_mut(table, |t| t.insert_sequenced(values, period))
    }

    /// Sequenced DELETE on a cataloged table.
    pub fn delete_sequenced(&self, table: &str, predicate: &Expr, period: Period) -> Result<()> {
        self.with_table_mut(table, |t| t.delete_sequenced(predicate, period))
    }

    /// Sequenced UPDATE on a cataloged table.
    pub fn update_sequenced(
        &self,
        table: &str,
        predicate: &Expr,
        period: Period,
        apply: impl Fn(&Tuple) -> Result<Tuple>,
    ) -> Result<()> {
        self.with_table_mut(table, |t| t.update_sequenced(predicate, period, apply))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::schema::Schema;
    use tqo_core::tuple;
    use tqo_core::value::{DataType, Value};

    fn dept() -> Relation {
        Relation::new(
            Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]),
            vec![
                tuple!["John", "Sales", 1i64, 8i64],
                tuple!["Anna", "Ads", 2i64, 6i64],
            ],
        )
        .unwrap()
    }

    fn is_john() -> Expr {
        Expr::eq(Expr::col("EmpName"), Expr::lit("John"))
    }

    #[test]
    fn insert_appends_with_period() {
        let r = insert_sequenced(
            &dept(),
            vec![Value::Str("Mia".into()), Value::Str("Sales".into())],
            Period::of(4, 9),
        )
        .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.tuples()[2], tuple!["Mia", "Sales", 4i64, 9i64]);
        // Empty periods and snapshot relations are rejected.
        assert!(insert_sequenced(&dept(), vec![], Period::of(4, 4)).is_err());
    }

    #[test]
    fn delete_splits_straddling_tuples() {
        let r = delete_sequenced(&dept(), &is_john(), Period::of(3, 5)).unwrap();
        // John [1,8) minus [3,5) → [1,3) and [5,8); Anna untouched.
        assert_eq!(
            r.tuples(),
            &[
                tuple!["John", "Sales", 1i64, 3i64],
                tuple!["John", "Sales", 5i64, 8i64],
                tuple!["Anna", "Ads", 2i64, 6i64],
            ]
        );
    }

    #[test]
    fn delete_removes_fully_covered_tuples() {
        let r = delete_sequenced(&dept(), &is_john(), Period::of(0, 10)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0], tuple!["Anna", "Ads", 2i64, 6i64]);
    }

    #[test]
    fn delete_outside_validity_is_noop() {
        let r = delete_sequenced(&dept(), &is_john(), Period::of(20, 30)).unwrap();
        assert_eq!(r.tuples(), dept().tuples());
    }

    #[test]
    fn update_rewrites_only_the_covered_window() {
        let schema = dept().schema().clone();
        let r = update_sequenced(&dept(), &is_john(), Period::of(3, 5), |t| {
            let mut t = t.clone();
            t.set_value(schema.resolve("Dept").unwrap(), Value::Str("Ads".into()));
            Ok(t)
        })
        .unwrap();
        // John: old Sales on [1,3) and [5,8), new Ads on [3,5).
        let mut rows: Vec<String> = r.tuples().iter().map(|t| t.to_string()).collect();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                "(Anna, Ads, 2, 6)",
                "(John, Ads, 3, 5)",
                "(John, Sales, 1, 3)",
                "(John, Sales, 5, 8)",
            ]
        );
        // The update is snapshot-sound: at every instant John is in exactly
        // one department.
        assert!(!r.has_snapshot_duplicates().unwrap());
    }

    #[test]
    fn table_wrappers_maintain_invariants() {
        let mut table = crate::table::Table::new("D", dept()).unwrap();
        assert!(table.props().snapshot_dup_free);
        table
            .insert_sequenced(
                vec![Value::Str("John".into()), Value::Str("Sales".into())],
                Period::of(6, 12),
            )
            .unwrap();
        // John now has overlapping Sales periods → property follows.
        assert!(!table.props().snapshot_dup_free);
        table
            .delete_sequenced(&is_john(), Period::of(0, 30))
            .unwrap();
        assert_eq!(table.len(), 1);
        assert!(table.props().snapshot_dup_free);
    }

    #[test]
    fn catalog_mutations_carry_statistics_forward() {
        use crate::catalog::{Catalog, StatisticsProvider};
        let cat = Catalog::new();
        cat.register("D", dept()).unwrap();
        assert_eq!(
            cat.table_stats("D")
                .unwrap()
                .column("EmpName")
                .unwrap()
                .distinct,
            2
        );
        cat.insert_sequenced(
            "D",
            vec![Value::Str("Mia".into()), Value::Str("Sales".into())],
            Period::of(4, 9),
        )
        .unwrap();
        // The next version's statistics describe the next version.
        assert_eq!(
            cat.table_stats("D")
                .unwrap()
                .column("EmpName")
                .unwrap()
                .distinct,
            3
        );
        cat.delete_sequenced("D", &is_john(), Period::of(0, 30))
            .unwrap();
        assert_eq!(
            cat.table_stats("D")
                .unwrap()
                .column("EmpName")
                .unwrap()
                .distinct,
            2
        );
        cat.update_sequenced("D", &is_john(), Period::of(2, 4), |t| Ok(t.clone()))
            .unwrap();
        assert!(cat.table_stats("D").is_some());
    }

    #[test]
    fn stored_deletes_match_the_tuple_wise_oracle_on_both_predicate_paths() {
        use tqo_core::expr::BinOp;
        let r = Relation::new(
            Schema::temporal(&[("E", DataType::Str), ("N", DataType::Int)]),
            vec![
                tuple!["a", 1i64, 1i64, 6i64],
                tuple!["b", 2i64, 3i64, 9i64],
                tuple!["a", 2i64, 7i64, 12i64],
            ],
        )
        .unwrap();
        let is_three = |n: Expr| Expr::eq(n, Expr::lit(3i64));
        let predicates = [
            // Compiled.
            Expr::eq(Expr::col("N"), Expr::lit(2i64)),
            Expr::eq(Expr::col("E"), Expr::lit("a")),
            // Outside the compiled fragment: arithmetic, evaluated per
            // tuple, and one that fails on every tuple it reaches.
            is_three(Expr::bin(BinOp::Add, Expr::col("N"), Expr::lit(1i64))),
            is_three(Expr::bin(BinOp::Add, Expr::col("E"), Expr::lit(1i64))),
        ];
        let mut errors = 0;
        for predicate in &predicates {
            for period in [Period::of(2, 8), Period::of(20, 30)] {
                let oracle = delete_sequenced(&r, predicate, period);
                let mut table = crate::table::Table::new("R", r.clone()).unwrap();
                let stored = table.delete_sequenced(predicate, period);
                match (oracle, stored) {
                    (Ok(want), Ok(())) => {
                        assert_eq!(table.relation().tuples(), want.tuples(), "{predicate}")
                    }
                    (Err(want), Err(got)) => {
                        assert_eq!(got, want, "{predicate}");
                        errors += 1;
                    }
                    (want, got) => panic!("{predicate} over {period:?}: {want:?} vs {got:?}"),
                }
            }
        }
        // Only the failing predicate, and only where a tuple reaches it.
        assert_eq!(errors, 1);
    }

    #[test]
    fn update_preserving_history_roundtrip() {
        // Delete then re-insert equals update with identity (as snapshots).
        let r = dept();
        let updated =
            update_sequenced(&r, &is_john(), Period::of(2, 4), |t| Ok(t.clone())).unwrap();
        for t in 0..10 {
            assert_eq!(
                updated.snapshot(t).unwrap().counts(),
                r.snapshot(t).unwrap().counts(),
                "instant {t}"
            );
        }
    }
}
