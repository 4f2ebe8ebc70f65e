//! AST unparser: render a [`Statement`] back to SQL text.
//!
//! Where [`crate::unparser`] renders *plan* subtrees (what the stratum
//! ships to the underlying DBMS), this module renders the surface syntax
//! itself. Its contract is canonicity: for any statement the parser can
//! produce, `parse(unparse(stmt)) == stmt`. The round-trip property test
//! in `tests/sql_robustness.rs` holds the two sides of the front end to
//! that contract.
//!
//! Canonical spellings used (all of which re-parse to the same AST as any
//! alternative spelling): table aliases with `AS`, `ASC` omitted,
//! negation folded into `NOT IN` / `NOT EXISTS`, `OFFSET` omitted when 0,
//! and the short join keywords (`INNER JOIN`, `LEFT JOIN`, `RIGHT JOIN`).

use std::fmt::Write as _;

use crate::ast::*;

/// Render a statement to SQL text.
pub fn unparse(stmt: &Statement) -> String {
    let mut out = String::new();
    statement(&mut out, stmt);
    out
}

fn statement(out: &mut String, stmt: &Statement) {
    match stmt {
        Statement::Select(q) => select(out, q),
        Statement::Union { left, right, all } => set_op(out, left, right, *all, "UNION"),
        Statement::Except { left, right, all } => set_op(out, left, right, *all, "EXCEPT"),
        Statement::OrderBy { inner, keys } => {
            statement(out, inner);
            out.push_str(" ORDER BY ");
            for (i, k) in keys.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&k.column);
                if matches!(k.dir, tqo_core::sortspec::SortDir::Desc) {
                    out.push_str(" DESC");
                }
            }
        }
        Statement::Limit {
            inner,
            limit,
            offset,
        } => {
            statement(out, inner);
            match limit {
                Some(n) => {
                    let _ = write!(out, " LIMIT {n}");
                    if *offset > 0 {
                        let _ = write!(out, " OFFSET {offset}");
                    }
                }
                None => {
                    let _ = write!(out, " OFFSET {offset}");
                }
            }
        }
    }
}

/// Set operations associate left, so only a left operand that is an
/// `ORDER BY`/`LIMIT` wrapper and any non-SELECT right operand need
/// parentheses to re-parse into the same shape.
fn set_op(out: &mut String, left: &Statement, right: &Statement, all: bool, op: &str) {
    let left_parens = matches!(left, Statement::OrderBy { .. } | Statement::Limit { .. });
    if left_parens {
        out.push('(');
    }
    statement(out, left);
    if left_parens {
        out.push(')');
    }
    out.push(' ');
    out.push_str(op);
    if all {
        out.push_str(" ALL");
    }
    out.push(' ');
    let right_parens = !matches!(right, Statement::Select(_));
    if right_parens {
        out.push('(');
    }
    statement(out, right);
    if right_parens {
        out.push(')');
    }
}

fn select(out: &mut String, q: &SelectQuery) {
    if q.valid_time {
        out.push_str("VALIDTIME ");
    }
    out.push_str("SELECT ");
    if q.distinct {
        out.push_str("DISTINCT ");
    }
    if matches!(q.items.as_slice(), [SelectItem::Wildcard]) {
        out.push('*');
    } else {
        for (i, item) in q.items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            match item {
                SelectItem::Wildcard => out.push('*'),
                SelectItem::Expr { expr: e, alias } => {
                    expr(out, e, 0);
                    if let Some(a) = alias {
                        let _ = write!(out, " AS {a}");
                    }
                }
            }
        }
    }
    out.push_str(" FROM ");
    for (i, t) in q.from.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        table_ref(out, t);
    }
    if let Some(j) = &q.join {
        out.push_str(match j.kind {
            JoinKind::Inner => " INNER JOIN ",
            JoinKind::Left => " LEFT JOIN ",
            JoinKind::Right => " RIGHT JOIN ",
        });
        table_ref(out, &j.table);
        out.push_str(" ON ");
        expr(out, &j.on, 0);
    }
    if let Some(p) = &q.predicate {
        out.push_str(" WHERE ");
        expr(out, p, 0);
    }
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        out.push_str(&q.group_by.join(", "));
    }
    if let Some(h) = &q.having {
        out.push_str(" HAVING ");
        expr(out, h, 0);
    }
    if q.coalesce {
        out.push_str(" COALESCE");
    }
}

fn table_ref(out: &mut String, t: &TableRef) {
    out.push_str(&t.name);
    if let Some(a) = &t.alias {
        let _ = write!(out, " AS {a}");
    }
}

/// Binding strength, mirroring the parser's descent: `OR` (1) < `AND` (2)
/// < `NOT` (3) < comparisons / `IS NULL` / `IN` (4, non-associative) <
/// `+ -` (5) < `* /` (6) < primaries (7).
fn prec(e: &SqlExpr) -> u8 {
    match e {
        SqlExpr::Binary { op, .. } => match op {
            SqlBinOp::Or => 1,
            SqlBinOp::And => 2,
            SqlBinOp::Eq
            | SqlBinOp::Ne
            | SqlBinOp::Lt
            | SqlBinOp::Le
            | SqlBinOp::Gt
            | SqlBinOp::Ge => 4,
            SqlBinOp::Add | SqlBinOp::Sub => 5,
            SqlBinOp::Mul | SqlBinOp::Div => 6,
        },
        SqlExpr::Not(_) => 3,
        SqlExpr::Exists { negated: true, .. } => 3,
        SqlExpr::IsNull { .. } | SqlExpr::InSubquery { .. } => 4,
        _ => 7,
    }
}

/// Render `e`, parenthesizing when its binding strength falls below
/// `min_prec` (the context's requirement on the operand).
fn expr(out: &mut String, e: &SqlExpr, min_prec: u8) {
    let p = prec(e);
    let parens = p < min_prec;
    if parens {
        out.push('(');
    }
    match e {
        SqlExpr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                let _ = write!(out, "{q}.");
            }
            out.push_str(name);
        }
        SqlExpr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        SqlExpr::Float(v) => {
            let text = format!("{v}");
            out.push_str(&text);
            if !text.contains('.') {
                out.push_str(".0");
            }
        }
        SqlExpr::Str(s) => {
            let _ = write!(out, "'{}'", s.replace('\'', "''"));
        }
        SqlExpr::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        SqlExpr::Null => out.push_str("NULL"),
        SqlExpr::Binary { op, left, right } => {
            // Left-associative chains re-parse without parentheses at the
            // same level; the comparisons are non-associative, so equal
            // strength on the left needs parentheses too.
            let left_min = if *op == SqlBinOp::And || *op == SqlBinOp::Or {
                // `NOT` binds tighter than AND/OR yet may appear bare as
                // their operand (`a AND NOT b`): require only the own
                // level on the left.
                p
            } else {
                p + u8::from(p == 4)
            };
            expr(out, left, left_min);
            let _ = write!(out, " {op} ");
            expr(out, right, p + 1);
        }
        SqlExpr::Not(inner) => {
            out.push_str("NOT ");
            expr(out, inner, 3);
        }
        SqlExpr::IsNull {
            expr: inner,
            negated,
        } => {
            expr(out, inner, 5);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        SqlExpr::Agg { func, arg } => {
            let _ = write!(out, "{func}(");
            match arg {
                None => out.push('*'),
                Some(a) => expr(out, a, 0),
            }
            out.push(')');
        }
        SqlExpr::InSubquery {
            expr: inner,
            query,
            negated,
        } => {
            expr(out, inner, 5);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            statement(out, query);
            out.push(')');
        }
        SqlExpr::Exists { query, negated } => {
            out.push_str(if *negated { "NOT EXISTS (" } else { "EXISTS (" });
            statement(out, query);
            out.push(')');
        }
    }
    if parens {
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(sql: &str) -> String {
        let stmt = parse(sql).expect("input parses");
        let text = unparse(&stmt);
        let again = parse(&text).unwrap_or_else(|e| panic!("unparsed `{text}` fails: {e}"));
        assert_eq!(stmt, again, "round trip diverged via `{text}`");
        text
    }

    #[test]
    fn canonical_spellings() {
        assert_eq!(
            round_trip("select a from R r where a>1"),
            "SELECT a FROM R AS r WHERE a > 1"
        );
        assert_eq!(
            round_trip("SELECT * FROM R WHERE NOT a IN (SELECT b FROM S)"),
            "SELECT * FROM R WHERE a NOT IN (SELECT b FROM S)"
        );
    }

    #[test]
    fn precedence_parenthesization() {
        round_trip("SELECT * FROM R WHERE (a OR b) AND c");
        round_trip("SELECT * FROM R WHERE a + 1 * 2 > 3 OR NOT b = 4 AND c < 5");
        round_trip("SELECT (a - b) - c, a - (b - c) FROM R");
        round_trip("SELECT a / (b / c) FROM R");
        round_trip("SELECT * FROM R WHERE NOT (a = 1 OR b = 2)");
        round_trip("SELECT * FROM R WHERE (a > 1) = (b > 2)");
        round_trip("SELECT * FROM R WHERE a + 1 IS NOT NULL");
    }

    #[test]
    fn full_feature_round_trips() {
        round_trip(
            "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
             EXCEPT ALL VALIDTIME SELECT EmpName FROM PROJECT COALESCE \
             ORDER BY EmpName DESC, T1 LIMIT 10 OFFSET 2",
        );
        round_trip("SELECT Dept, COUNT(*) AS n FROM E GROUP BY Dept HAVING n > 2");
        round_trip(
            "SELECT e.a AS x FROM E AS e LEFT OUTER JOIN P AS p ON e.a = p.b \
             WHERE NOT EXISTS (SELECT c FROM S WHERE c = 1)",
        );
        round_trip("SELECT * FROM R OFFSET 3");
        round_trip("SELECT * FROM R UNION (SELECT * FROM S UNION SELECT * FROM T)");
        round_trip("(SELECT * FROM A ORDER BY x LIMIT 1) UNION ALL SELECT * FROM B");
        round_trip("SELECT 3.5, 2.0, -4, 'it''s' FROM R");
    }
}
