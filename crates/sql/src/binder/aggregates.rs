//! Aggregate pass: the aggregate calls of a grouped block's select list
//! and `HAVING`, each argument resolved and each alias fixed in one walk.
//!
//! A select-list call is its own `ξ` item, aliased by its `AS` or
//! `agg{i}`. A `HAVING` call reads the first item with an equal call, or
//! else a hidden `__h{n}` item appended after the select list's.

use tqo_core::error::{Error, Result};
use tqo_core::expr::{AggFunc, AggItem};

use super::scope::Scope;
use crate::ast::{SelectItem, SelectQuery, SqlExpr};

/// A normalized aggregate call: the function and its resolved argument
/// (`None` for `COUNT(*)`).
pub(super) struct AggregateCall {
    pub func: AggFunc,
    pub arg: Option<String>,
}

impl AggregateCall {
    /// Resolve `func(arg)` in `scope`; arguments must be plain columns.
    fn resolve(func: AggFunc, arg: Option<&SqlExpr>, scope: &Scope) -> Result<AggregateCall> {
        let arg = match arg {
            None => None,
            Some(SqlExpr::Column { qualifier, name }) => {
                Some(scope.resolve(qualifier.as_deref(), name)?)
            }
            Some(other) => {
                return Err(Error::Parse {
                    reason: format!("aggregate arguments must be plain columns, found {other:?}"),
                })
            }
        };
        Ok(AggregateCall { func, arg })
    }
}

/// The aggregates of one grouped block.
pub(super) struct Aggregates<'q> {
    /// `ξ`'s aggregate items: the select list's, then `HAVING`'s hidden ones.
    pub items: Vec<AggItem>,
    /// How many of `items` the select list names.
    pub visible: usize,
    /// Each call node, with the index of the item it reads. Nodes are
    /// matched by identity: the walk saw exactly these nodes.
    calls: Vec<(&'q SqlExpr, usize)>,
}

impl<'q> Aggregates<'q> {
    /// Extract the aggregate calls of `q`'s select list and `HAVING`.
    pub fn extract(q: &'q SelectQuery, scope: &Scope) -> Result<Aggregates<'q>> {
        let mut aggs = Aggregates {
            items: Vec::new(),
            visible: 0,
            calls: Vec::new(),
        };
        for (i, item) in q.items.iter().enumerate() {
            if let SelectItem::Expr {
                expr: call @ SqlExpr::Agg { func, arg },
                alias,
            } = item
            {
                let resolved = AggregateCall::resolve(*func, arg.as_deref(), scope)?;
                aggs.push(
                    call,
                    resolved,
                    alias.clone().unwrap_or_else(|| format!("agg{i}")),
                );
            }
        }
        aggs.visible = aggs.items.len();
        if let Some(h) = &q.having {
            aggs.walk_having(h, scope)?;
        }
        Ok(aggs)
    }

    fn walk_having(&mut self, e: &'q SqlExpr, scope: &Scope) -> Result<()> {
        match e {
            SqlExpr::Agg { func, arg } => {
                let call = AggregateCall::resolve(*func, arg.as_deref(), scope)?;
                let equal = |a: &AggItem| a.func == call.func && a.arg == call.arg;
                match self.items.iter().position(equal) {
                    Some(i) => self.calls.push((e, i)),
                    None => self.push(e, call, format!("__h{}", self.items.len() - self.visible)),
                }
            }
            SqlExpr::Binary { left, right, .. } => {
                self.walk_having(left, scope)?;
                self.walk_having(right, scope)?;
            }
            SqlExpr::Not(inner) | SqlExpr::IsNull { expr: inner, .. } => {
                self.walk_having(inner, scope)?;
            }
            SqlExpr::InSubquery { .. } | SqlExpr::Exists { .. } => {
                return Err(Error::Unsupported {
                    construct: "subquery in HAVING".into(),
                })
            }
            _ => {}
        }
        Ok(())
    }

    fn push(&mut self, node: &'q SqlExpr, call: AggregateCall, alias: String) {
        self.calls.push((node, self.items.len()));
        let AggregateCall { func, arg } = call;
        self.items.push(AggItem { func, arg, alias });
    }

    /// The `ξ` item an extracted call node reads.
    pub fn item_of(&self, call: &SqlExpr) -> Option<&AggItem> {
        let (_, i) = self
            .calls
            .iter()
            .find(|(node, _)| std::ptr::eq(*node, call))?;
        Some(&self.items[*i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use tqo_storage::paper;

    fn query(sql: &str) -> SelectQuery {
        match parse(sql).unwrap() {
            Statement::Select(q) => *q,
            other => panic!("not a SELECT block: {other:?}"),
        }
    }

    fn employee() -> Scope {
        let e = paper::employee();
        Scope {
            tables: vec![("e".into(), String::new(), e.schema().clone())],
            has_fresh_period: true,
        }
    }

    fn aliases<'a>(a: &'a Aggregates<'_>) -> Vec<&'a str> {
        a.items.iter().map(|i| i.alias.as_str()).collect()
    }

    #[test]
    fn select_list_items_keep_their_alias_or_position() {
        let q = query("SELECT Dept, COUNT(*), MIN(e.T1) AS lo FROM EMPLOYEE e GROUP BY Dept");
        let a = Aggregates::extract(&q, &employee()).unwrap();
        assert_eq!(aliases(&a), ["agg1", "lo"]);
        assert_eq!(a.visible, 2);
        assert_eq!(a.items[1].arg.as_deref(), Some("T1"));
    }

    #[test]
    fn having_reuses_equal_calls_and_hides_the_rest() {
        let q = query(
            "SELECT Dept, MIN(T1) AS lo FROM EMPLOYEE e GROUP BY Dept \
             HAVING MIN(e.T1) > 1 AND COUNT(*) > 1 AND NOT COUNT(*) > 4 AND MAX(T2) < 9",
        );
        let a = Aggregates::extract(&q, &employee()).unwrap();
        assert_eq!(aliases(&a), ["lo", "__h0", "__h1"]);
        assert_eq!(a.visible, 1);
        let having = q.having.as_ref().unwrap();
        // The left-most HAVING call is `MIN(e.T1)`, the select list's `lo`.
        let mut first = having;
        while let SqlExpr::Binary { left, .. } = first {
            first = left;
        }
        assert_eq!(a.item_of(first).unwrap().alias, "lo");
        assert!(a.item_of(having).is_none());
    }

    #[test]
    fn arguments_must_be_plain_known_columns() {
        let q = query("SELECT SUM(T2 - T1) AS s FROM EMPLOYEE e");
        let err = Aggregates::extract(&q, &employee()).err().unwrap();
        assert!(err
            .to_string()
            .contains("aggregate arguments must be plain columns"));
        let q = query("SELECT COUNT(Nope) AS n FROM EMPLOYEE e");
        assert!(matches!(
            Aggregates::extract(&q, &employee()),
            Err(Error::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn a_subquery_in_having_is_unsupported() {
        let q = query(
            "SELECT Dept FROM EMPLOYEE e GROUP BY Dept \
             HAVING Dept IN (SELECT Dept FROM EMPLOYEE)",
        );
        let err = Aggregates::extract(&q, &employee()).err().unwrap();
        assert!(err.to_string().contains("subquery in HAVING"), "{err}");
    }
}
