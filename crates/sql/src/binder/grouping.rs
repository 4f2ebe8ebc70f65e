//! Grouping pass: the legality of a grouped block and its output.
//!
//! Each select item is a grouping column, an aggregate, or an error, and
//! `HAVING` names must be grouping columns or select-list aggregate
//! aliases. The select list is the grouped output projection over `ξ`/`ξᵀ`
//! (and `HAVING`'s selection): in its own order, under its aliases,
//! without the grouping columns it does not name, carrying `T1`/`T2` under
//! `VALIDTIME`. A select list that is exactly `ξ`'s output binds no `π`.

use std::sync::Arc;

use tqo_core::error::{Error, Result};
use tqo_core::expr::{Expr, ProjItem};
use tqo_core::plan::PlanNode;
use tqo_core::schema::{T1, T2};

use super::aggregates::Aggregates;
use super::carry_period;
use super::plan::{aggregate, rdup};
use super::scalar::{bind_scalar, Resolve};
use super::scope::Scope;
use crate::ast::{SelectItem, SelectQuery, SqlExpr};

/// Whether `q` aggregates: a `GROUP BY`, a `HAVING`, or an aggregate item.
pub(super) fn is_grouped(q: &SelectQuery) -> bool {
    let agg_item = |i: &SelectItem| match i {
        SelectItem::Expr { expr, .. } => matches!(expr, SqlExpr::Agg { .. }),
        SelectItem::Wildcard => false,
    };
    !q.group_by.is_empty() || q.having.is_some() || q.items.iter().any(agg_item)
}

/// Bind the grouped block `q` over its `FROM`/`WHERE` plan `input`.
pub(super) fn bind_grouped(q: &SelectQuery, input: PlanNode, scope: &Scope) -> Result<PlanNode> {
    let resolve = |g: &String| scope.resolve(None, g);
    let group_by = q.group_by.iter().map(resolve).collect::<Result<Vec<_>>>()?;
    let aggs = Aggregates::extract(q, scope)?;
    let names = Grouped {
        scope,
        group_by: &group_by,
        aggs: &aggs,
    };
    let output = q.items.iter().map(|item| match item {
        SelectItem::Wildcard => Err(Error::Parse {
            reason: "`*` is not allowed in a grouped select list".into(),
        }),
        SelectItem::Expr {
            expr: call @ SqlExpr::Agg { .. },
            ..
        } => Ok(ProjItem::col(&names.aggregate(call)?)),
        SelectItem::Expr {
            expr: SqlExpr::Column { qualifier, name },
            alias,
        } => {
            let col = scope.resolve(qualifier.as_deref(), name)?;
            if !group_by.contains(&col) {
                return Err(Error::Parse {
                    reason: format!("column `{name}` must appear in GROUP BY"),
                });
            }
            Ok(ProjItem::new(Expr::col(&col), alias.clone().unwrap_or(col)))
        }
        SelectItem::Expr { expr, .. } => Err(Error::Parse {
            reason: format!(
                "grouped select items must be grouping columns or aggregates, found {expr:?}"
            ),
        }),
    });
    let mut output = output.collect::<Result<Vec<_>>>()?;
    let having = q.having.as_ref().map(|h| bind_scalar(h, &names));
    let having = having.transpose()?;
    if q.valid_time {
        carry_period(&mut output);
    }

    let aliases = aggs.items.iter().map(|a| &a.alias);
    let period = q.valid_time.then_some([T1, T2]).into_iter().flatten();
    let xi_output = group_by
        .iter()
        .chain(aliases)
        .map(String::as_str)
        .chain(period);
    let is_xi_output = output
        .iter()
        .map(|p| p.is_identity().then_some(p.alias.as_str()))
        .eq(xi_output.map(Some));
    let reads = |g: &String| output.iter().any(|p| p.expr == Expr::col(g));
    let drops_group_column = !group_by.iter().all(reads);

    let mut node = aggregate(q.valid_time, input, group_by, aggs.items);
    if let Some(predicate) = having {
        node = PlanNode::Select {
            input: Arc::new(node),
            predicate,
        };
    }
    if !is_xi_output {
        node = PlanNode::Project {
            input: Arc::new(node),
            items: output,
        };
    }
    // Groups are unique, so DISTINCT only matters once a grouping column
    // is projected away.
    if q.distinct && drops_group_column {
        node = rdup(q.valid_time, node);
    }
    Ok(node)
}

/// The names of a grouped block: its grouping columns and aggregates.
struct Grouped<'a, 'q> {
    scope: &'a Scope,
    group_by: &'a [String],
    aggs: &'a Aggregates<'q>,
}

/// `HAVING`: a bare name is a select-list aggregate alias or else must be
/// a grouping column; an aggregate call reads the item the aggregate pass
/// gave it.
impl Resolve for Grouped<'_, '_> {
    fn column(&self, qualifier: Option<&str>, name: &str) -> Result<String> {
        let visible = &self.aggs.items[..self.aggs.visible];
        if let (None, Some(a)) = (qualifier, visible.iter().find(|a| a.alias == name)) {
            return Ok(a.alias.clone());
        }
        let resolved = self.scope.resolve(qualifier, name)?;
        if !self.group_by.contains(&resolved) {
            return Err(Error::Parse {
                reason: format!("HAVING column `{name}` must be a grouping column or an aggregate"),
            });
        }
        Ok(resolved)
    }

    fn aggregate(&self, call: &SqlExpr) -> Result<String> {
        let item = self.aggs.item_of(call).ok_or_else(|| Error::Internal {
            reason: format!("aggregate call {call:?} was not extracted"),
        });
        Ok(item?.alias.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use tqo_core::plan::PlanBuilder;
    use tqo_storage::paper;

    /// Bind the grouped block `sql` over a scan of its one table.
    fn grouped(sql: &str) -> Result<PlanNode> {
        let Statement::Select(q) = parse(sql).unwrap() else {
            panic!("not a SELECT block")
        };
        let cat = paper::catalog();
        let base = cat.base_props(&q.from[0].name).unwrap();
        let scope = Scope {
            tables: vec![(q.from[0].name.clone(), String::new(), base.schema.clone())],
            has_fresh_period: true,
        };
        assert!(is_grouped(&q));
        bind_grouped(
            &q,
            PlanBuilder::scan(q.from[0].name.clone(), base).node(),
            &scope,
        )
    }

    fn projection(node: &PlanNode) -> Vec<String> {
        match node {
            PlanNode::Project { items, .. } => items.iter().map(|i| i.to_string()).collect(),
            other => panic!("expected a projection, got {other:?}"),
        }
    }

    #[test]
    fn a_select_list_equal_to_the_aggregation_binds_no_projection() {
        let plain = grouped("SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept").unwrap();
        assert!(matches!(plain, PlanNode::Aggregate { .. }));
        let seq = grouped("VALIDTIME SELECT COUNT(*) FROM EMPLOYEE").unwrap();
        assert!(matches!(seq, PlanNode::AggregateT { .. }));
    }

    #[test]
    fn the_projection_keeps_select_order_aliases_and_the_period() {
        let node = grouped("SELECT COUNT(*) AS n, Dept AS d FROM EMPLOYEE GROUP BY Dept").unwrap();
        assert_eq!(projection(&node), ["n", "Dept AS d"]);
        let node = grouped("VALIDTIME SELECT COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept").unwrap();
        assert_eq!(projection(&node), ["n", "T1", "T2"]);
    }

    #[test]
    fn distinct_binds_rdup_only_when_a_grouping_column_is_dropped() {
        let kept = grouped("SELECT DISTINCT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept");
        assert!(matches!(kept.unwrap(), PlanNode::Aggregate { .. }));
        let dropped = grouped("SELECT DISTINCT COUNT(*) AS n FROM PROJECT GROUP BY EmpName");
        assert!(matches!(dropped.unwrap(), PlanNode::Rdup { .. }));
        let seq = grouped("VALIDTIME SELECT DISTINCT COUNT(*) AS n FROM PROJECT GROUP BY EmpName");
        assert!(matches!(seq.unwrap(), PlanNode::RdupT { .. }));
    }

    #[test]
    fn having_reads_grouping_columns_aliases_and_hidden_aggregates() {
        let node =
            grouped("SELECT Dept FROM EMPLOYEE GROUP BY Dept HAVING COUNT(*) > 1 AND Dept = 'x'")
                .unwrap();
        assert_eq!(projection(&node), ["Dept"]);
        let PlanNode::Project { input, .. } = node else {
            unreachable!()
        };
        let PlanNode::Select { predicate, .. } = input.as_ref() else {
            panic!("HAVING is a selection over the aggregation")
        };
        assert_eq!(predicate.to_string(), "((__h0 > 1) AND (Dept = 'x'))");
    }

    #[test]
    fn illegal_items_and_having_names_are_rejected() {
        let err = |sql: &str| grouped(sql).unwrap_err().to_string();
        assert!(
            err("SELECT EmpName, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept")
                .contains("column `EmpName` must appear in GROUP BY")
        );
        assert!(err("SELECT * FROM EMPLOYEE GROUP BY Dept")
            .contains("`*` is not allowed in a grouped select list"));
        assert!(err("SELECT Dept, T1 + 1 AS t FROM EMPLOYEE GROUP BY Dept")
            .contains("grouped select items must be grouping columns or aggregates"));
        assert!(
            err("SELECT Dept FROM EMPLOYEE GROUP BY Dept HAVING EmpName = 'x'")
                .contains("HAVING column `EmpName` must be a grouping column or an aggregate")
        );
    }
}
