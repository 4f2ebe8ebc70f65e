//! The `WHERE` clause: plain conjuncts become one selection, and each
//! subquery conjunct (`[NOT] IN`, `[NOT] EXISTS`) lowers to a semijoin or
//! an anti-join built from `×`/`×ᵀ` + `σ` + `π` and `\`/`\ᵀ`.

use std::sync::Arc;

use tqo_core::error::{Error, Result};
use tqo_core::expr::{Expr, ProjItem};
use tqo_core::plan::PlanNode;
use tqo_core::schema::{Schema, T1, T2};
use tqo_storage::Catalog;

use super::bind_statement;
use super::plan::{after_difference, bind_from, difference, onto, product, rdup, schema_of};
use super::scalar::{bind_scalar, conjunction};
use super::scope::Scope;
use crate::ast::{SqlBinOp, SqlExpr, Statement};

/// Bind `pred` over `node`: its plain conjuncts as one selection, then its
/// subquery conjuncts in order.
pub(super) fn bind_where(
    mut node: PlanNode,
    pred: &SqlExpr,
    scope: &Scope,
    valid_time: bool,
    catalog: &Catalog,
) -> Result<PlanNode> {
    let conjuncts = conjuncts(pred);
    let plain = conjuncts.iter().filter(|c| !is_subquery(c));
    let bound = plain
        .map(|c| bind_scalar(c, scope))
        .collect::<Result<Vec<_>>>()?;
    if let Some(predicate) = conjunction(bound) {
        node = PlanNode::Select {
            input: Arc::new(node),
            predicate,
        };
    }
    for c in conjuncts {
        node = match c {
            SqlExpr::InSubquery {
                expr,
                query,
                negated,
            } => bind_in(node, scope, valid_time, expr, query, *negated, catalog)?,
            SqlExpr::Exists { query, negated } => {
                bind_exists(node, scope, valid_time, query, *negated, catalog)?
            }
            _ => node,
        };
    }
    Ok(node)
}

/// A predicate's top-level conjuncts, left to right.
fn conjuncts(pred: &SqlExpr) -> Vec<&SqlExpr> {
    match pred {
        SqlExpr::Binary {
            op: SqlBinOp::And,
            left,
            right,
        } => [conjuncts(left), conjuncts(right)].concat(),
        other => vec![other],
    }
}

fn is_subquery(e: &SqlExpr) -> bool {
    matches!(e, SqlExpr::InSubquery { .. } | SqlExpr::Exists { .. })
}

/// Lower a membership test onto the algebra: keep the `node` tuples (or,
/// negated, drop them) that find a partner in `sub` under the equality
/// conditions `conds`, each pairing an expression over `node`'s schema
/// with a column of `sub`.
///
/// The positive form is the classic semijoin rewrite
/// `π_node(σ_eq(node × sub))`; sequenced, the temporal product restricts
/// each qualifying tuple to the sub-periods where a partner overlaps. The
/// negated form subtracts the semijoin from `node` with `\` (or `\ᵀ`,
/// which removes exactly the covered sub-periods).
fn semi_or_anti(
    node: PlanNode,
    node_schema: &Schema,
    sub: PlanNode,
    conds: Vec<(Expr, String)>,
    sequenced: bool,
    negated: bool,
) -> PlanNode {
    // node × sub: node's attributes surface prefixed `1.`, sub's `2.`
    // (plus a fresh intersection period when sequenced).
    let joined = product(sequenced, node.clone(), sub);
    let eqs = conds.into_iter().map(|(outer, sub_col)| {
        let lhs = outer.map_names(&|n| format!("1.{n}"));
        Expr::eq(lhs, Expr::col(format!("2.{sub_col}")))
    });
    let selected = PlanNode::Select {
        input: Arc::new(joined),
        predicate: conjunction(eqs).expect("at least one membership condition"),
    };
    // Back onto node's schema.
    let semi = PlanNode::Project {
        input: Arc::new(selected),
        items: onto(node_schema, "1.", sequenced),
    };
    if !negated {
        return semi;
    }
    let diff = difference(sequenced, node, semi);
    if sequenced || !node_schema.is_temporal() {
        return diff;
    }
    // The conventional difference demoted the period attributes; restore
    // them so the surrounding clauses keep resolving.
    let restore = node_schema
        .attrs()
        .iter()
        .map(|a| ProjItem::new(after_difference(&a.name, true), a.name.clone()))
        .collect();
    PlanNode::Project {
        input: Arc::new(diff),
        items: restore,
    }
}

/// Lower `expr [NOT] IN (SELECT …)`.
fn bind_in(
    node: PlanNode,
    scope: &Scope,
    valid_time: bool,
    expr: &SqlExpr,
    query: &Statement,
    negated: bool,
    catalog: &Catalog,
) -> Result<PlanNode> {
    let outer = bind_scalar(expr, scope)?;
    let sub = bind_statement(query, catalog)?;
    let node_schema = schema_of(&node)?;
    let sub_schema = schema_of(&sub)?;
    let sequenced = valid_time && node_schema.is_temporal() && sub_schema.is_temporal();
    // The membership column: the subquery must produce exactly one value
    // column (plus, possibly, its period).
    let values: Vec<&str> = sub_schema
        .names()
        .into_iter()
        .filter(|n| *n != T1 && *n != T2)
        .collect();
    let [m] = values[..] else {
        return Err(Error::Parse {
            reason: format!(
                "IN subquery must produce exactly one column, got {}",
                values.len()
            ),
        });
    };
    // Conventional IN ignores the members' periods.
    let sub = if !sequenced && sub_schema.is_temporal() {
        PlanNode::Project {
            input: Arc::new(sub),
            items: vec![ProjItem::col(m)],
        }
    } else {
        sub
    };
    // Deduplicate the membership set so the semijoin cannot multiply rows.
    let (sub, conds) = (rdup(sequenced, sub), vec![(outer, m.to_owned())]);
    let lowered = semi_or_anti(node, &node_schema, sub, conds, sequenced, negated);
    Ok(lowered)
}

/// Lower `[NOT] EXISTS (SELECT …)` by decorrelation: the subquery's WHERE
/// conjuncts split into local filters (pushed into the subquery) and
/// equality correlations (which become the semijoin condition).
fn bind_exists(
    node: PlanNode,
    scope: &Scope,
    valid_time: bool,
    query: &Statement,
    negated: bool,
    catalog: &Catalog,
) -> Result<PlanNode> {
    let Statement::Select(subq) = query else {
        return Err(Error::Unsupported {
            construct: "EXISTS over a set operation, ORDER BY, or LIMIT".into(),
        });
    };
    if subq.from.len() != 1
        || subq.join.is_some()
        || !subq.group_by.is_empty()
        || subq.having.is_some()
        || subq.coalesce
    {
        return Err(Error::Unsupported {
            construct: "EXISTS subquery must be a plain single-table SELECT".into(),
        });
    }
    let (mut sub_node, sub_scope) = bind_from(subq, catalog)?;
    // Split the subquery's WHERE: conjuncts that bind in the subquery's
    // own scope stay local; equality conjuncts straddling the scopes
    // become correlation pairs.
    let mut local = Vec::new();
    let mut pairs: Vec<(Expr, Expr)> = Vec::new();
    let conjuncts = subq.predicate.as_ref().map(conjuncts).unwrap_or_default();
    if conjuncts.iter().any(|c| is_subquery(c)) {
        return Err(Error::Unsupported {
            construct: "nested subquery inside EXISTS".into(),
        });
    }
    // An equality straddling the scopes, as (outer side, subquery side).
    let straddle = |o: &SqlExpr, s: &SqlExpr| {
        Some((
            bind_scalar(o, scope).ok()?,
            bind_scalar(s, &sub_scope).ok()?,
        ))
    };
    for c in conjuncts {
        if let Ok(e) = bind_scalar(c, &sub_scope) {
            local.push(e);
            continue;
        }
        let pair = match c {
            SqlExpr::Binary {
                op: SqlBinOp::Eq,
                left,
                right,
            } => straddle(left, right).or_else(|| straddle(right, left)),
            _ => None,
        };
        let Some(pair) = pair else {
            return Err(Error::Unsupported {
                construct: "non-equality correlation in EXISTS".into(),
            });
        };
        pairs.push(pair);
    }
    if pairs.is_empty() {
        return Err(Error::Unsupported {
            construct: "uncorrelated EXISTS".into(),
        });
    }
    if let Some(predicate) = conjunction(local) {
        sub_node = PlanNode::Select {
            input: Arc::new(sub_node),
            predicate,
        };
    }

    let node_schema = schema_of(&node)?;
    let sequenced =
        valid_time && subq.valid_time && node_schema.is_temporal() && sub_scope.has_fresh_period;
    // Project the correlated sides out under synthetic names, keep the
    // period when sequenced, and deduplicate the membership set.
    let names = (0..pairs.len()).map(|i| format!("__sq{i}"));
    let (outer, inner): (Vec<Expr>, Vec<Expr>) = pairs.into_iter().unzip();
    let items = inner.into_iter().zip(names.clone());
    let mut items: Vec<ProjItem> = items.map(|(s, n)| ProjItem::new(s, n)).collect();
    if sequenced {
        items.extend([ProjItem::col(T1), ProjItem::col(T2)]);
    }
    let projected = PlanNode::Project {
        input: Arc::new(sub_node),
        items,
    };
    let conds = outer.into_iter().zip(names).collect();
    let sub = rdup(sequenced, projected);
    let lowered = semi_or_anti(node, &node_schema, sub, conds, sequenced, negated);
    Ok(lowered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use tqo_core::plan::PlanBuilder;
    use tqo_storage::paper;

    fn where_clause(sql: &str) -> SqlExpr {
        match parse(sql).unwrap() {
            Statement::Select(q) => q.predicate.unwrap(),
            other => panic!("not a SELECT block: {other:?}"),
        }
    }

    fn employee_scope() -> (PlanNode, Scope) {
        let cat = paper::catalog();
        let base = cat.base_props("EMPLOYEE").unwrap();
        let scope = Scope {
            tables: vec![("EMPLOYEE".into(), String::new(), base.schema.clone())],
            has_fresh_period: true,
        };
        (PlanBuilder::scan("EMPLOYEE", base).node(), scope)
    }

    #[test]
    fn conjuncts_flatten_left_to_right() {
        let pred = where_clause("SELECT * FROM R WHERE a = 1 AND (b = 2 AND c = 3) OR d = 4");
        assert_eq!(conjuncts(&pred).len(), 1, "OR binds loosest");
        let pred = where_clause("SELECT * FROM R WHERE a = 1 AND (b = 2 AND c = 3) AND d = 4");
        assert_eq!(conjuncts(&pred).len(), 4);
    }

    #[test]
    fn plain_conjuncts_fold_into_one_selection_below_the_semijoins() {
        let (scan, scope) = employee_scope();
        let pred = where_clause(
            "SELECT * FROM EMPLOYEE WHERE T1 > 1 AND EmpName IN \
             (SELECT EmpName FROM PROJECT) AND T2 < 9",
        );
        let node = bind_where(scan, &pred, &scope, false, &paper::catalog()).unwrap();
        let PlanNode::Project { input, .. } = node else {
            panic!("the semijoin's projection on top")
        };
        let PlanNode::Select { input, .. } = input.as_ref() else {
            panic!("the membership selection")
        };
        let PlanNode::Product { left, .. } = input.as_ref() else {
            panic!("node × sub")
        };
        let PlanNode::Select { predicate, .. } = left.as_ref() else {
            panic!("the plain conjuncts")
        };
        assert!(matches!(predicate, Expr::Bin { .. }));
    }

    #[test]
    fn a_conventional_anti_join_restores_the_demoted_period() {
        let (scan, scope) = employee_scope();
        let pred = where_clause(
            "SELECT * FROM EMPLOYEE WHERE EmpName NOT IN (SELECT EmpName FROM PROJECT)",
        );
        let node = bind_where(scan, &pred, &scope, false, &paper::catalog()).unwrap();
        assert_eq!(
            schema_of(&node).unwrap().names(),
            ["EmpName", "Dept", "T1", "T2"]
        );
        let PlanNode::Project { input, .. } = node else {
            panic!("the restoring projection")
        };
        assert!(matches!(input.as_ref(), PlanNode::Difference { .. }));
    }
}
