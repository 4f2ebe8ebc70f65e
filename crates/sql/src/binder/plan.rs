//! Plan construction: the operations with a temporal twin, each built by
//! one helper that picks the twin from a sequenced flag, and the `FROM`
//! clause over them.

use std::sync::Arc;

use tqo_core::equivalence::ResultType;
use tqo_core::error::{Error, Result};
use tqo_core::expr::{AggItem, Expr, ProjItem};
use tqo_core::plan::{props, LogicalPlan, PlanBuilder, PlanNode};
use tqo_core::schema::{Schema, T1, T2};
use tqo_storage::Catalog;

use super::scalar::bind_scalar;
use super::scope::Scope;
use crate::ast::{JoinClause, JoinKind, SelectQuery, TableRef};

/// `rdupᵀ` when sequenced, else `rdup`.
pub(super) fn rdup(sequenced: bool, input: PlanNode) -> PlanNode {
    let input = Arc::new(input);
    if sequenced {
        PlanNode::RdupT { input }
    } else {
        PlanNode::Rdup { input }
    }
}

/// `×ᵀ` when sequenced, else `×`.
pub(super) fn product(sequenced: bool, left: PlanNode, right: PlanNode) -> PlanNode {
    let (left, right) = (Arc::new(left), Arc::new(right));
    if sequenced {
        PlanNode::ProductT { left, right }
    } else {
        PlanNode::Product { left, right }
    }
}

/// `\ᵀ` when sequenced, else `\`.
pub(super) fn difference(sequenced: bool, left: PlanNode, right: PlanNode) -> PlanNode {
    let (left, right) = (Arc::new(left), Arc::new(right));
    if sequenced {
        PlanNode::DifferenceT { left, right }
    } else {
        PlanNode::Difference { left, right }
    }
}

/// `ξᵀ` when sequenced, else `ξ`.
pub(super) fn aggregate(
    sequenced: bool,
    input: PlanNode,
    group_by: Vec<String>,
    aggs: Vec<AggItem>,
) -> PlanNode {
    let input = Arc::new(input);
    if sequenced {
        PlanNode::AggregateT {
            input,
            group_by,
            aggs,
        }
    } else {
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        }
    }
}

/// π items reading `schema`'s attributes back out of a product where they
/// surface as `{prefix}{name}`; a sequenced product's fresh `T1`/`T2` stand
/// for the period.
pub(super) fn onto(schema: &Schema, prefix: &str, sequenced: bool) -> Vec<ProjItem> {
    let item = |name: &str| match sequenced && (name == T1 || name == T2) {
        true => ProjItem::col(name),
        false => ProjItem::new(Expr::col(format!("{prefix}{name}")), name),
    };
    schema.attrs().iter().map(|a| item(&a.name)).collect()
}

/// The column of a difference's output that carries `attr` of its left
/// input: a conventional `\` over temporal inputs (`demoted`) demotes the
/// period to the data attributes `1.T1`/`1.T2`.
pub(super) fn after_difference(attr: &str, demoted: bool) -> Expr {
    match demoted && (attr == T1 || attr == T2) {
        true => Expr::col(format!("1.{attr}")),
        false => Expr::col(attr),
    }
}

/// The output schema of a plan fragment, via the property derivation.
pub(super) fn schema_of(node: &PlanNode) -> Result<Schema> {
    let ann = props::annotate(&LogicalPlan::new(node.clone(), ResultType::Multiset))?;
    let root = ann.get(&Vec::new()).expect("root is always annotated");
    Ok(root.stat.schema.clone())
}

/// Bind the plain `FROM` list: one scan, or two combined by a product.
pub(super) fn bind_from(q: &SelectQuery, catalog: &Catalog) -> Result<(PlanNode, Scope)> {
    if let [t1, t2] = q.from.as_slice() {
        let (left, right, scope) = two_scans(q, t1, t2, catalog, "VALIDTIME product")?;
        return Ok((product(q.valid_time, left, right), scope));
    }
    let t = &q.from[0];
    let base = catalog.base_props(&t.name)?;
    let schema = base.schema.clone();
    let scope = Scope {
        has_fresh_period: schema.is_temporal(),
        tables: vec![(t.visible_name().to_owned(), String::new(), schema)],
    };
    Ok((PlanBuilder::scan(t.name.clone(), base).node(), scope))
}

/// The scans of two tables side by side, and the scope over their product:
/// the first table's attributes surface prefixed `1.`, the second's `2.`.
fn two_scans(
    q: &SelectQuery,
    t1: &TableRef,
    t2: &TableRef,
    catalog: &Catalog,
    context: &'static str,
) -> Result<(PlanNode, PlanNode, Scope)> {
    let base1 = catalog.base_props(&t1.name)?;
    let base2 = catalog.base_props(&t2.name)?;
    let (s1, s2) = (base1.schema.clone(), base2.schema.clone());
    if q.valid_time && (!s1.is_temporal() || !s2.is_temporal()) {
        return Err(Error::NotTemporal { context });
    }
    let scope = Scope {
        tables: vec![
            (t1.visible_name().to_owned(), "1.".into(), s1),
            (t2.visible_name().to_owned(), "2.".into(), s2),
        ],
        has_fresh_period: q.valid_time,
    };
    let scan1 = PlanBuilder::scan(t1.name.clone(), base1).node();
    let scan2 = PlanBuilder::scan(t2.name.clone(), base2).node();
    Ok((scan1, scan2, scope))
}

/// Bind an explicit `JOIN … ON`. Inner joins are the product plus a
/// selection; outer joins union that matched part with a NULL-padded anti
/// part:
///
/// ```text
///   L LEFT JOIN R ON p  =  σ_p(L × R)  ∪  pad(L \ π_L(σ_p(L × R)))
/// ```
///
/// Under `VALIDTIME` the product, projection, and difference are their
/// temporal counterparts, so the anti part carries exactly the sub-periods
/// of each preserved tuple with no overlapping match. Those fragments
/// surface with the other side's attributes as typed NULLs and the
/// fragment period serving as both the preserved period and the fresh
/// `T1`/`T2`.
pub(super) fn bind_join(
    q: &SelectQuery,
    j: &JoinClause,
    catalog: &Catalog,
) -> Result<(PlanNode, Scope)> {
    let (scan1, scan2, scope) = two_scans(q, &q.from[0], &j.table, catalog, "VALIDTIME join")?;
    let matched = PlanNode::Select {
        input: Arc::new(product(q.valid_time, scan1.clone(), scan2.clone())),
        predicate: bind_scalar(&j.on, &scope)?,
    };
    let (preserved, side) = match j.kind {
        JoinKind::Inner => return Ok((matched, scope)),
        JoinKind::Left => (scan1, 0),
        JoinKind::Right => (scan2, 1),
    };
    let (_, prefix, preserved_schema) = &scope.tables[side];

    // Which (fragments of) preserved tuples found a partner?
    let matched_schema = schema_of(&matched)?;
    let matched_p = PlanNode::Project {
        input: Arc::new(matched.clone()),
        items: onto(preserved_schema, prefix, q.valid_time),
    };
    let anti = difference(q.valid_time, preserved, matched_p);
    let demoted = !q.valid_time && preserved_schema.is_temporal();
    // Pad the anti part out to the matched schema: preserved attributes
    // come through, the other side's become typed NULLs.
    let padded_items = matched_schema.attrs().iter().map(|a| {
        let name = a.name.clone();
        match a.name.strip_prefix(prefix.as_str()) {
            Some(base) => ProjItem::new(after_difference(base, demoted), name),
            None if a.name == T1 || a.name == T2 => ProjItem::col(&a.name),
            None => ProjItem::new(Expr::NullOf(a.dtype), name),
        }
    });
    let padded = PlanNode::Project {
        input: Arc::new(anti),
        items: padded_items.collect(),
    };
    let node = PlanNode::UnionAll {
        left: Arc::new(matched),
        right: Arc::new(padded),
    };
    Ok((node, scope))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use tqo_core::expr::AggFunc;
    use tqo_storage::paper;

    fn block(sql: &str) -> SelectQuery {
        match parse(sql).unwrap() {
            Statement::Select(q) => *q,
            other => panic!("not a SELECT block: {other:?}"),
        }
    }

    fn scan() -> PlanNode {
        let cat = paper::catalog();
        PlanBuilder::scan("EMPLOYEE", cat.base_props("EMPLOYEE").unwrap()).node()
    }

    #[test]
    fn the_flag_picks_the_twin() {
        assert!(matches!(rdup(true, scan()), PlanNode::RdupT { .. }));
        assert!(matches!(rdup(false, scan()), PlanNode::Rdup { .. }));
        let pt = product(true, scan(), scan());
        assert!(matches!(pt, PlanNode::ProductT { .. }));
        assert!(matches!(
            product(false, scan(), scan()),
            PlanNode::Product { .. }
        ));
        let dt = difference(true, scan(), scan());
        assert!(matches!(dt, PlanNode::DifferenceT { .. }));
        let d = difference(false, scan(), scan());
        assert!(matches!(d, PlanNode::Difference { .. }));
        let count = || vec![AggItem::new(AggFunc::Count, None, "n")];
        let at = aggregate(true, scan(), vec!["Dept".into()], count());
        assert!(matches!(at, PlanNode::AggregateT { .. }));
        let a = aggregate(false, scan(), vec![], count());
        assert!(matches!(a, PlanNode::Aggregate { .. }));
    }

    #[test]
    fn a_demoted_period_is_read_from_its_data_columns() {
        assert_eq!(after_difference("T1", true), Expr::col("1.T1"));
        assert_eq!(after_difference("T2", true), Expr::col("1.T2"));
        assert_eq!(after_difference("EmpName", true), Expr::col("EmpName"));
        assert_eq!(after_difference("T1", false), Expr::col("T1"));
    }

    #[test]
    fn onto_reads_prefixed_attributes_and_the_fresh_period() {
        let schema = paper::employee().schema().clone();
        let show = |items: Vec<ProjItem>| items.iter().map(|i| i.to_string()).collect::<Vec<_>>();
        assert_eq!(
            show(onto(&schema, "2.", true)),
            ["2.EmpName AS EmpName", "2.Dept AS Dept", "T1", "T2"]
        );
        assert_eq!(show(onto(&schema, "1.", false))[2], "1.T1 AS T1");
    }

    #[test]
    fn one_table_scope_has_no_prefix() {
        let q = block("SELECT * FROM EMPLOYEE e");
        let (node, scope) = bind_from(&q, &paper::catalog()).unwrap();
        assert!(matches!(node, PlanNode::Scan { .. }));
        assert_eq!(scope.resolve(Some("e"), "Dept").unwrap(), "Dept");
        assert!(scope.has_fresh_period);
    }

    #[test]
    fn two_tables_meet_under_the_blocks_product() {
        let cat = paper::catalog();
        let (node, scope) = bind_from(&block("SELECT * FROM EMPLOYEE, PROJECT"), &cat).unwrap();
        assert!(matches!(node, PlanNode::Product { .. }));
        assert!(!scope.has_fresh_period);
        assert_eq!(scope.resolve(None, "Prj").unwrap(), "2.Prj");
        let q = block("VALIDTIME SELECT * FROM EMPLOYEE, PROJECT");
        assert!(matches!(
            bind_from(&q, &cat).unwrap().0,
            PlanNode::ProductT { .. }
        ));
    }

    #[test]
    fn outer_joins_union_a_padded_anti_part() {
        let q = block("SELECT * FROM EMPLOYEE e LEFT JOIN PROJECT p ON e.EmpName = p.EmpName");
        let (node, _) = bind_join(&q, q.join.as_ref().unwrap(), &paper::catalog()).unwrap();
        let PlanNode::UnionAll { right, .. } = node else {
            panic!("a union of matched and anti parts")
        };
        let PlanNode::Project { input, items } = right.as_ref() else {
            panic!("a padding projection")
        };
        assert!(matches!(input.as_ref(), PlanNode::Difference { .. }));
        // The conventional `\` demoted the preserved period to `1.T1`.
        assert!(items.contains(&ProjItem::new(Expr::col("1.T1"), "1.T1")));
        assert!(items.iter().any(|i| matches!(i.expr, Expr::NullOf(_))));
    }
}
