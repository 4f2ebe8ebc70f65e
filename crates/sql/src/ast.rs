//! Abstract syntax for the temporal SQL dialect.

use tqo_core::expr::AggFunc;
use tqo_core::sortspec::SortDir;

/// A scalar expression, unresolved.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// `name` or `table.name`.
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    Binary {
        op: SqlBinOp,
        left: Box<SqlExpr>,
        right: Box<SqlExpr>,
    },
    Not(Box<SqlExpr>),
    IsNull {
        expr: Box<SqlExpr>,
        negated: bool,
    },
    /// `COUNT(*)`, `SUM(col)`, … — only legal in the select list of a
    /// grouped query.
    Agg {
        func: AggFunc,
        arg: Option<Box<SqlExpr>>,
    },
    /// `expr [NOT] IN (SELECT …)` — membership in a one-column subquery.
    InSubquery {
        expr: Box<SqlExpr>,
        query: Box<Statement>,
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT …)` — possibly correlated via equality
    /// predicates in the subquery's WHERE clause.
    Exists {
        query: Box<Statement>,
        negated: bool,
    },
}

impl SqlExpr {
    /// `left op right`.
    pub(crate) fn binary(op: SqlBinOp, left: SqlExpr, right: SqlExpr) -> SqlExpr {
        SqlExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
}

/// Binary operators: the algebra's own, so the binder maps them as they
/// are.
pub use tqo_core::expr::BinOp as SqlBinOp;

/// One select-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `expr [AS alias]`.
    Expr {
        expr: SqlExpr,
        alias: Option<String>,
    },
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub column: String,
    pub dir: SortDir,
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name the query refers to this table by.
    pub fn visible_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// The join flavors of the explicit `JOIN … ON` syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// `[INNER] JOIN` — equivalent to the comma form plus the ON predicate.
    Inner,
    /// `LEFT [OUTER] JOIN` — preserves the left side, NULL-padding the
    /// right attributes where (or, under `VALIDTIME`, *when*) no match
    /// exists.
    Left,
    /// `RIGHT [OUTER] JOIN` — mirror image of `Left`.
    Right,
}

/// An explicit `JOIN` clause: `FROM t1 <kind> JOIN t2 ON <on>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub kind: JoinKind,
    pub table: TableRef,
    pub on: SqlExpr,
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `VALIDTIME` prefix: sequenced temporal semantics.
    pub valid_time: bool,
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    /// Explicit `JOIN … ON` clause; mutually exclusive with a two-table
    /// comma list in `from`.
    pub join: Option<JoinClause>,
    pub predicate: Option<SqlExpr>,
    pub group_by: Vec<String>,
    /// `HAVING` predicate over the grouped result.
    pub having: Option<SqlExpr>,
    /// Trailing `COALESCE` clause.
    pub coalesce: bool,
}

/// A full statement: one or more SELECT blocks combined with set
/// operations, plus the outermost ORDER BY (which, per SQL, may only
/// appear at the outermost level — the paper's §1 remark that pushing
/// sorting *down* is the optimizer's job, not the language's).
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Box<SelectQuery>),
    /// `left EXCEPT [ALL] right`.
    Except {
        left: Box<Statement>,
        right: Box<Statement>,
        all: bool,
    },
    /// `left UNION [ALL] right`.
    Union {
        left: Box<Statement>,
        right: Box<Statement>,
        all: bool,
    },
    /// `inner ORDER BY keys` (outermost only).
    OrderBy {
        inner: Box<Statement>,
        keys: Vec<OrderItem>,
    },
    /// `inner LIMIT n [OFFSET k]` (outermost only, wrapping any ORDER BY).
    Limit {
        inner: Box<Statement>,
        limit: Option<usize>,
        offset: usize,
    },
}

impl Statement {
    /// Does any block in the statement use `VALIDTIME`?
    pub fn is_valid_time(&self) -> bool {
        match self {
            Statement::Select(q) => q.valid_time,
            Statement::Except { left, right, .. } | Statement::Union { left, right, .. } => {
                left.is_valid_time() || right.is_valid_time()
            }
            Statement::OrderBy { inner, .. } | Statement::Limit { inner, .. } => {
                inner.is_valid_time()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple(valid_time: bool, distinct: bool) -> Statement {
        Statement::Select(Box::new(SelectQuery {
            valid_time,
            distinct,
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef {
                name: "R".into(),
                alias: None,
            }],
            join: None,
            predicate: None,
            group_by: vec![],
            having: None,
            coalesce: false,
        }))
    }

    #[test]
    fn valid_time_propagates_through_set_ops() {
        let s = Statement::Except {
            left: Box::new(simple(true, false)),
            right: Box::new(simple(false, false)),
            all: true,
        };
        assert!(s.is_valid_time());
        assert!(!simple(false, false).is_valid_time());
    }

    #[test]
    fn table_visible_name() {
        let t = TableRef {
            name: "EMPLOYEE".into(),
            alias: Some("e".into()),
        };
        assert_eq!(t.visible_name(), "e");
        let u = TableRef {
            name: "EMPLOYEE".into(),
            alias: None,
        };
        assert_eq!(u.visible_name(), "EMPLOYEE");
    }
}
