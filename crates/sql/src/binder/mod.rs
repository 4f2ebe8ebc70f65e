//! Binder: AST → logical plan.
//!
//! Besides name resolution, the binder realizes Definition 5.1: the
//! outermost `ORDER BY` / `DISTINCT` of the statement determine the
//! [`ResultType`] attached to the produced plan — the contract every
//! transformation the optimizer applies must preserve.
//!
//! A block binds in typed passes, one module each: `scope` resolves names,
//! `scalar` binds expressions, `aggregates` extracts the aggregate calls
//! once, and `grouping` checks a grouped select list and `HAVING` and
//! projects the grouped output. `plan` and `subquery` build the plan, each
//! temporal twin chosen by the `VALIDTIME` flag in one helper; `HAVING`,
//! `IN`, `EXISTS` and the outer joins lower onto the extended algebra.

mod aggregates;
mod grouping;
mod plan;
mod scalar;
mod scope;
mod subquery;

use std::sync::Arc;

use tqo_core::equivalence::ResultType;
use tqo_core::error::{Error, Result};
use tqo_core::expr::{Expr, ProjItem};
use tqo_core::plan::{LogicalPlan, PlanNode};
use tqo_core::schema::{T1, T2};
use tqo_core::sortspec::{Order, SortKey};
use tqo_storage::Catalog;

use crate::ast::*;
use plan::{difference, rdup};
use scalar::bind_scalar;
use scope::Scope;

/// Bind a parsed statement against a catalog.
pub fn bind(stmt: &Statement, catalog: &Catalog) -> Result<LogicalPlan> {
    // Peel the outermost LIMIT: it truncates the finished (ordered) result,
    // so it binds above the ORDER BY sort and outside the result type.
    let (core, limit) = match stmt {
        Statement::Limit {
            inner,
            limit,
            offset,
        } => (inner.as_ref(), Some((*limit, *offset))),
        other => (other, None),
    };
    let node = bind_statement(core, catalog)?;

    // Definition 5.1: the outermost clauses fix the result type.
    let (node, result_type) = match core {
        Statement::OrderBy { keys, .. } => {
            let keys = keys.iter().map(|k| SortKey {
                attr: k.column.clone(),
                dir: k.dir,
            });
            let order = Order::new(keys.collect());
            let sorted = PlanNode::Sort {
                input: Arc::new(node),
                order: order.clone(),
            };
            (sorted, ResultType::List(order))
        }
        _ if core.outermost_distinct() => (node, ResultType::Set),
        _ => (node, ResultType::Multiset),
    };

    let node = match limit {
        Some((l, o)) => PlanNode::Limit {
            input: Arc::new(node),
            limit: l,
            offset: o,
        },
        None => node,
    };

    Ok(LogicalPlan::new(node, result_type))
}

/// Bind a statement; a set operation over a sequenced operand is sequenced.
fn bind_statement(stmt: &Statement, catalog: &Catalog) -> Result<PlanNode> {
    match stmt {
        Statement::Select(q) => bind_select(q, catalog),
        Statement::OrderBy { inner, .. } => bind_statement(inner, catalog),
        Statement::Limit { .. } => Err(Error::Unsupported {
            construct: "LIMIT in a nested query".into(),
        }),
        Statement::Except { left, right, all } | Statement::Union { left, right, all } => {
            let l = bind_statement(left, catalog)?;
            let r = bind_statement(right, catalog)?;
            let temporal = stmt.is_valid_time();
            Ok(match stmt {
                Statement::Except { .. } if *all => difference(temporal, l, r),
                // SQL EXCEPT (without ALL): set semantics — deduplicate both
                // sides first so membership alone decides.
                Statement::Except { .. } => {
                    difference(temporal, rdup(temporal, l), rdup(temporal, r))
                }
                _ => {
                    let concat = PlanNode::UnionAll {
                        left: Arc::new(l),
                        right: Arc::new(r),
                    };
                    if *all {
                        concat
                    } else {
                        rdup(temporal, concat)
                    }
                }
            })
        }
    }
}

fn bind_select(q: &SelectQuery, catalog: &Catalog) -> Result<PlanNode> {
    if q.from.is_empty() {
        return Err(Error::Parse {
            reason: "FROM clause required".into(),
        });
    }
    if q.from.len() + usize::from(q.join.is_some()) > 2 {
        return Err(Error::Parse {
            reason: "at most two tables per SELECT block are supported; nest set \
                     operations or views for more"
                .into(),
        });
    }

    let (mut node, scope) = match &q.join {
        Some(j) => plan::bind_join(q, j, catalog)?,
        None => plan::bind_from(q, catalog)?,
    };
    if let Some(pred) = &q.predicate {
        node = subquery::bind_where(node, pred, &scope, q.valid_time, catalog)?;
    }
    let node = if grouping::is_grouped(q) {
        grouping::bind_grouped(q, node, &scope)?
    } else {
        bind_projection(q, node, &scope)?
    };
    maybe_coalesce(q, node)
}

/// An ungrouped select list, then `DISTINCT`.
fn bind_projection(q: &SelectQuery, mut node: PlanNode, scope: &Scope) -> Result<PlanNode> {
    if !matches!(q.items.as_slice(), [SelectItem::Wildcard]) {
        let mut items = Vec::new();
        for (i, item) in q.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(Error::Parse {
                    reason: "`*` cannot be mixed with explicit select items".into(),
                });
            };
            let bound = bind_scalar(expr, scope)?;
            let name = match (alias, &bound) {
                (Some(a), _) => a.clone(),
                (None, Expr::Col(c)) => c.clone(),
                (None, _) => format!("col{i}"),
            };
            items.push(ProjItem::new(bound, name));
        }
        if q.valid_time && scope.has_fresh_period {
            carry_period(&mut items);
        }
        node = PlanNode::Project {
            input: Arc::new(node),
            items,
        };
    }
    if q.distinct {
        node = rdup(q.valid_time, node);
    }
    Ok(node)
}

/// `VALIDTIME`: carry the period through a projection that does not name
/// it.
fn carry_period(items: &mut Vec<ProjItem>) {
    for period in [T1, T2] {
        if !items.iter().any(|p| p.alias == period) {
            items.push(ProjItem::col(period));
        }
    }
}

/// The `COALESCE` clause: bind the Böhlen idiom `coalᵀ(rdupᵀ(·))` unless a
/// `rdupᵀ` is already on top (the `DISTINCT COALESCE` case).
fn maybe_coalesce(q: &SelectQuery, node: PlanNode) -> Result<PlanNode> {
    if !q.coalesce {
        return Ok(node);
    }
    if !q.valid_time {
        return Err(Error::Parse {
            reason: "COALESCE requires a VALIDTIME query".into(),
        });
    }
    let deduped = match node {
        PlanNode::RdupT { .. } => node,
        other => rdup(true, other),
    };
    Ok(PlanNode::Coalesce {
        input: Arc::new(deduped),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use tqo_core::interp::eval_plan;
    use tqo_storage::paper;

    fn run(sql: &str) -> (LogicalPlan, tqo_core::Relation) {
        let cat = paper::catalog();
        let stmt = parse(sql).unwrap();
        let plan = bind(&stmt, &cat).unwrap();
        let result = eval_plan(&plan, &cat.env()).unwrap();
        (plan, result)
    }

    #[test]
    fn running_example_produces_figure1_result() {
        let (plan, result) = run("VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
             EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
             COALESCE ORDER BY EmpName");
        let _ = plan;
        assert_eq!(result, paper::figure1_result());
    }

    #[test]
    fn result_types_per_definition_5_1() {
        let cat = paper::catalog();
        let mk = |sql: &str| bind(&parse(sql).unwrap(), &cat).unwrap().result_type;
        assert!(matches!(
            mk("SELECT EmpName FROM EMPLOYEE"),
            ResultType::Multiset
        ));
        assert!(matches!(
            mk("SELECT DISTINCT EmpName FROM EMPLOYEE"),
            ResultType::Set
        ));
        assert!(matches!(
            mk("SELECT EmpName FROM EMPLOYEE ORDER BY EmpName"),
            ResultType::List(_)
        ));
        // DISTINCT + ORDER BY: list wins.
        assert!(matches!(
            mk("SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName"),
            ResultType::List(_)
        ));
    }

    #[test]
    fn conventional_projection_drops_period() {
        let (_, result) = run("SELECT EmpName FROM EMPLOYEE");
        assert!(!result.is_temporal());
        assert_eq!(result.len(), 5);
    }

    #[test]
    fn validtime_projection_keeps_period() {
        let (_, result) = run("VALIDTIME SELECT EmpName FROM EMPLOYEE");
        assert!(result.is_temporal());
        assert_eq!(result.schema().names(), vec!["EmpName", "T1", "T2"]);
    }

    #[test]
    fn two_table_validtime_join() {
        let (_, result) = run("VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p \
             WHERE e.EmpName = p.EmpName");
        assert!(result.is_temporal());
        // Overlap join: every (employee, project) row pair of the same
        // person with overlapping periods.
        assert!(!result.is_empty());
    }

    #[test]
    fn where_on_period_attributes() {
        let (_, result) = run("VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE T1 >= 2 AND T2 <= 6");
        // Only Anna's [2,6) rows qualify.
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn group_by_aggregation() {
        let (_, result) = run("SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept");
        assert_eq!(result.schema().names(), vec!["Dept", "n"]);
        assert_eq!(result.len(), 2); // Sales, Advertising
    }

    #[test]
    fn validtime_aggregation_is_temporal() {
        let (_, result) = run("VALIDTIME SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept");
        assert!(result.is_temporal());
        assert_eq!(result.schema().names(), vec!["Dept", "n", "T1", "T2"]);
    }

    #[test]
    fn ambiguous_and_unknown_columns_error() {
        let cat = paper::catalog();
        let err = bind(
            &parse("SELECT EmpName FROM EMPLOYEE e, PROJECT p").unwrap(),
            &cat,
        );
        assert!(err.is_err(), "EmpName is ambiguous");
        let err2 = bind(&parse("SELECT Nope FROM EMPLOYEE").unwrap(), &cat);
        assert!(err2.is_err());
        let err3 = bind(&parse("SELECT EmpName FROM NOPE").unwrap(), &cat);
        assert!(err3.is_err());
    }

    #[test]
    fn coalesce_requires_validtime() {
        let cat = paper::catalog();
        let err = bind(
            &parse("SELECT EmpName FROM EMPLOYEE COALESCE").unwrap(),
            &cat,
        );
        assert!(err.is_err());
    }

    #[test]
    fn limit_offset_truncate_the_ordered_result() {
        let (plan, result) = run("SELECT EmpName FROM EMPLOYEE ORDER BY EmpName LIMIT 2 OFFSET 1");
        assert!(matches!(*plan.root, PlanNode::Limit { .. }));
        assert_eq!(result.len(), 2);
        for t in result.tuples() {
            assert_eq!(t.value(0), &tqo_core::value::Value::from("Anna"));
        }
        let (_, bare) = run("SELECT EmpName FROM EMPLOYEE LIMIT 3");
        assert_eq!(bare.len(), 3);
        let (_, off) = run("SELECT EmpName FROM EMPLOYEE OFFSET 4");
        assert_eq!(off.len(), 1);
    }

    #[test]
    fn having_filters_groups() {
        // Sales has three rows, Advertising two.
        let (_, result) =
            run("SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept HAVING n > 2");
        assert_eq!(result.len(), 1);
        assert_eq!(
            result.tuples()[0].value(0),
            &tqo_core::value::Value::from("Sales")
        );
    }

    #[test]
    fn having_hidden_aggregate_is_projected_away() {
        let (_, result) = run("SELECT Dept FROM EMPLOYEE GROUP BY Dept HAVING COUNT(*) > 2");
        assert_eq!(result.schema().names(), vec!["Dept"]);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn validtime_having() {
        let (_, result) =
            run("VALIDTIME SELECT Dept FROM EMPLOYEE GROUP BY Dept HAVING COUNT(*) >= 2");
        assert!(result.is_temporal());
        assert!(!result.is_empty());
    }

    #[test]
    fn in_subquery_semijoin() {
        // Only John worked on P1.
        let (_, result) = run("SELECT EmpName, Dept FROM EMPLOYEE \
             WHERE EmpName IN (SELECT EmpName FROM PROJECT WHERE Prj = 'P1')");
        assert_eq!(result.len(), 2);
        let (_, neg) = run("SELECT EmpName, Dept FROM EMPLOYEE \
             WHERE EmpName NOT IN (SELECT EmpName FROM PROJECT WHERE Prj = 'P1')");
        assert_eq!(neg.len(), 3);
    }

    #[test]
    fn sequenced_not_in_matches_figure1_except() {
        // NOT IN under sequenced semantics subtracts, per employee, the
        // periods the name appears in PROJECT — the Figure 1 result.
        let (_, result) = run("VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
             WHERE EmpName NOT IN (VALIDTIME SELECT EmpName FROM PROJECT) \
             COALESCE ORDER BY EmpName");
        assert_eq!(result, paper::figure1_result());
    }

    #[test]
    fn exists_decorrelates() {
        let (_, result) = run("SELECT EmpName, Dept FROM EMPLOYEE e \
             WHERE EXISTS (SELECT Prj FROM PROJECT p \
                           WHERE p.EmpName = e.EmpName AND p.Prj = 'P1')");
        assert_eq!(result.len(), 2);
        let (_, neg) = run("SELECT EmpName, Dept FROM EMPLOYEE e \
             WHERE NOT EXISTS (SELECT Prj FROM PROJECT p \
                               WHERE p.EmpName = e.EmpName AND p.Prj = 'P1')");
        assert_eq!(neg.len(), 3);
    }

    #[test]
    fn exists_requires_correlation() {
        let cat = paper::catalog();
        let err = bind(
            &parse("SELECT EmpName FROM EMPLOYEE WHERE EXISTS (SELECT Prj FROM PROJECT)").unwrap(),
            &cat,
        );
        assert!(matches!(err, Err(Error::Unsupported { .. })));
    }

    #[test]
    fn subquery_under_or_is_unsupported() {
        let cat = paper::catalog();
        let err = bind(
            &parse(
                "SELECT EmpName FROM EMPLOYEE \
                 WHERE Dept = 'Sales' OR EmpName IN (SELECT EmpName FROM PROJECT)",
            )
            .unwrap(),
            &cat,
        );
        assert!(matches!(err, Err(Error::Unsupported { .. })));
    }

    #[test]
    fn inner_join_on() {
        let (_, result) = run("SELECT e.EmpName, p.Prj FROM EMPLOYEE e \
             INNER JOIN PROJECT p ON e.EmpName = p.EmpName");
        // John: 2 employee rows × 4 projects; Anna: 3 × 4.
        assert_eq!(result.len(), 20);
    }

    #[test]
    fn left_join_pads_non_matching_rows() {
        let (_, result) = run("SELECT e.EmpName, p.Prj FROM EMPLOYEE e \
             LEFT JOIN PROJECT p ON e.EmpName = p.EmpName AND p.Prj = 'P0'");
        // Nothing matches: every employee row survives NULL-padded.
        assert_eq!(result.len(), 5);
        for t in result.tuples() {
            assert!(t.value(1).is_null());
        }
    }

    #[test]
    fn validtime_left_join_pads_uncovered_periods() {
        let (_, result) = run("VALIDTIME SELECT e.EmpName AS EmpName, p.Prj AS Prj \
             FROM EMPLOYEE e LEFT JOIN PROJECT p ON e.EmpName = p.EmpName");
        assert!(result.is_temporal());
        // John's [1,8) employee period is only partly covered by his
        // project periods, so NULL-padded fragments must appear.
        let prj = result.schema().index_of("Prj").expect("Prj column");
        assert!(result.tuples().iter().any(|t| t.value(prj).is_null()));
        assert!(result.tuples().iter().any(|t| !t.value(prj).is_null()));
    }

    #[test]
    fn right_join_mirrors_left() {
        let (_, result) = run("SELECT e.Dept, p.Prj FROM EMPLOYEE e \
             RIGHT JOIN PROJECT p ON e.EmpName = p.EmpName AND e.Dept = 'Nowhere'");
        // Nothing matches: every project row survives NULL-padded.
        assert_eq!(result.len(), 8);
        for t in result.tuples() {
            assert!(t.value(0).is_null());
        }
    }

    #[test]
    fn union_variants() {
        let (_, all) = run("VALIDTIME SELECT EmpName FROM EMPLOYEE UNION ALL \
             VALIDTIME SELECT EmpName FROM PROJECT");
        assert_eq!(all.len(), 13);
        let (_, distinct) = run("VALIDTIME SELECT EmpName FROM EMPLOYEE UNION \
             VALIDTIME SELECT EmpName FROM PROJECT");
        assert!(!distinct.has_snapshot_duplicates().unwrap());
    }
}
