//! Scalar pass: one expression binder for every clause. The clause says
//! what its names and aggregate calls mean, as a [`Resolve`].

use tqo_core::error::{Error, Result};
use tqo_core::expr::Expr;
use tqo_core::value::Value;

use crate::ast::SqlExpr;

/// The meaning of a clause's column names and aggregate calls.
pub(super) trait Resolve {
    /// The plan attribute `qualifier.name` denotes.
    fn column(&self, qualifier: Option<&str>, name: &str) -> Result<String>;
    /// The plan attribute holding the value of `call`, an
    /// [`SqlExpr::Agg`] node of the clause.
    fn aggregate(&self, call: &SqlExpr) -> Result<String>;
}

/// Bind `expr` with `names` resolving its leaves.
pub(super) fn bind_scalar(expr: &SqlExpr, names: &impl Resolve) -> Result<Expr> {
    Ok(match expr {
        SqlExpr::Column { qualifier, name } => Expr::Col(names.column(qualifier.as_deref(), name)?),
        SqlExpr::Agg { .. } => Expr::Col(names.aggregate(expr)?),
        SqlExpr::Int(v) => Expr::lit(*v),
        SqlExpr::Float(v) => Expr::lit(*v),
        SqlExpr::Str(s) => Expr::lit(s.as_str()),
        SqlExpr::Bool(b) => Expr::lit(*b),
        SqlExpr::Null => Expr::Lit(Value::Null),
        SqlExpr::Not(e) => Expr::not(bind_scalar(e, names)?),
        SqlExpr::IsNull { expr, negated } => {
            let inner = Expr::IsNull(Box::new(bind_scalar(expr, names)?));
            if *negated {
                Expr::not(inner)
            } else {
                inner
            }
        }
        SqlExpr::Binary { op, left, right } => {
            Expr::bin(*op, bind_scalar(left, names)?, bind_scalar(right, names)?)
        }
        SqlExpr::InSubquery { .. } | SqlExpr::Exists { .. } => {
            return Err(Error::Unsupported {
                construct: "subquery outside a top-level WHERE conjunct".into(),
            })
        }
    })
}

/// Fold conjuncts left to right into one predicate (`None` when empty).
pub(super) fn conjunction(conjuncts: impl IntoIterator<Item = Expr>) -> Option<Expr> {
    conjuncts.into_iter().reduce(Expr::and)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SelectItem, Statement};
    use crate::parser::parse;
    use tqo_core::expr::BinOp;

    /// Names resolve to themselves upper-cased; aggregates to `agg`.
    struct Upper;

    impl Resolve for Upper {
        fn column(&self, qualifier: Option<&str>, name: &str) -> Result<String> {
            match qualifier {
                Some(q) => Err(Error::Parse {
                    reason: format!("no table `{q}`"),
                }),
                None => Ok(name.to_uppercase()),
            }
        }
        fn aggregate(&self, _call: &SqlExpr) -> Result<String> {
            Ok("agg".into())
        }
    }

    fn expr(sql_item: &str) -> SqlExpr {
        let stmt = parse(&format!("SELECT {sql_item} FROM R")).unwrap();
        let Statement::Select(q) = stmt else {
            panic!("a SELECT")
        };
        match &q.items[0] {
            SelectItem::Expr { expr, .. } => expr.clone(),
            SelectItem::Wildcard => panic!("an expression"),
        }
    }

    #[test]
    fn leaves_go_through_the_resolver() {
        let bound = bind_scalar(&expr("a + COUNT(*) > 2 AND b IS NOT NULL"), &Upper).unwrap();
        let want = Expr::and(
            Expr::bin(
                BinOp::Gt,
                Expr::bin(BinOp::Add, Expr::col("A"), Expr::col("agg")),
                Expr::lit(2i64),
            ),
            Expr::not(Expr::IsNull(Box::new(Expr::col("B")))),
        );
        assert_eq!(bound, want);
    }

    #[test]
    fn resolver_errors_and_subqueries_fail() {
        assert!(matches!(
            bind_scalar(&expr("x.a"), &Upper),
            Err(Error::Parse { .. })
        ));
        let err = bind_scalar(&expr("a IN (SELECT b FROM S)"), &Upper).unwrap_err();
        assert!(err
            .to_string()
            .contains("subquery outside a top-level WHERE conjunct"));
    }

    #[test]
    fn conjunction_folds_left() {
        assert_eq!(conjunction(Vec::new()), None);
        let (a, b, c) = (Expr::col("a"), Expr::col("b"), Expr::col("c"));
        assert_eq!(conjunction([a.clone()]), Some(a.clone()));
        assert_eq!(
            conjunction([a.clone(), b.clone(), c.clone()]),
            Some(Expr::and(Expr::and(a, b), c))
        );
    }
}
