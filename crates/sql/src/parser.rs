//! Recursive-descent parser for the temporal SQL dialect.
//!
//! ```text
//! statement  := set_expr [ORDER BY order_list] [LIMIT int [OFFSET int] | OFFSET int]
//! set_expr   := select (UNION [ALL] select | EXCEPT [ALL] select)*
//! select     := [VALIDTIME] SELECT [DISTINCT] items FROM tables [join]
//!               [WHERE expr] [GROUP BY idents] [HAVING expr] [COALESCE]
//!             | '(' statement ')'
//! join       := [INNER | LEFT [OUTER] | RIGHT [OUTER]] JOIN table ON expr
//! items      := '*' | item (',' item)*        item := expr [AS ident]
//! tables     := table (',' table)*            table := ident [AS ident]
//! expr       := or_expr (with standard precedence; IS [NOT] NULL and
//!               [NOT] IN '(' statement ')' postfix; [NOT] EXISTS
//!               '(' statement ')' primary)
//! ```

use tqo_core::error::{Error, Result};
use tqo_core::expr::AggFunc;
use tqo_core::sortspec::SortDir;

use crate::ast::*;
use crate::lexer::{tokenize, Token};

/// Parse a statement from SQL text.
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if p.pos != p.tokens.len() {
        return Err(Error::Parse {
            reason: format!("trailing input at {}", p.peek_desc()),
        });
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_desc(&self) -> String {
        match self.peek() {
            Some(t) => t.to_string(),
            None => "end of input".into(),
        }
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Token) -> Result<()> {
        if self.eat(&tok) {
            Ok(())
        } else {
            Err(Error::Parse {
                reason: format!("expected {tok}, found {}", self.peek_desc()),
            })
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(Error::Parse {
                reason: format!(
                    "expected identifier, found {}",
                    other.map_or("end of input".to_string(), |t| t.to_string())
                ),
            }),
        }
    }

    // statement := set_expr [ORDER BY order_list] [LIMIT int [OFFSET int] | OFFSET int]
    fn statement(&mut self) -> Result<Statement> {
        let mut stmt = self.set_expr()?;
        if self.eat(&Token::Order) {
            self.expect(Token::By)?;
            let mut keys = Vec::new();
            loop {
                let column = self.ident()?;
                let dir = if self.eat(&Token::Desc) {
                    SortDir::Desc
                } else {
                    self.eat(&Token::Asc);
                    SortDir::Asc
                };
                keys.push(OrderItem { column, dir });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            stmt = Statement::OrderBy {
                inner: Box::new(stmt),
                keys,
            };
        }
        if self.eat(&Token::Limit) {
            let limit = self.count_literal("LIMIT")?;
            let offset = if self.eat(&Token::Offset) {
                self.count_literal("OFFSET")?
            } else {
                0
            };
            stmt = Statement::Limit {
                inner: Box::new(stmt),
                limit: Some(limit),
                offset,
            };
        } else if self.eat(&Token::Offset) {
            let offset = self.count_literal("OFFSET")?;
            stmt = Statement::Limit {
                inner: Box::new(stmt),
                limit: None,
                offset,
            };
        }
        Ok(stmt)
    }

    /// A non-negative integer literal, as used by `LIMIT`/`OFFSET`.
    fn count_literal(&mut self, clause: &str) -> Result<usize> {
        match self.advance() {
            Some(Token::Int(v)) if v >= 0 => Ok(v as usize),
            other => Err(Error::Parse {
                reason: format!(
                    "{clause} expects a non-negative integer, found {}",
                    other.map_or("end of input".to_string(), |t| t.to_string())
                ),
            }),
        }
    }

    // set_expr := select ((UNION|EXCEPT) [ALL] select)*
    fn set_expr(&mut self) -> Result<Statement> {
        let mut left = self.select_or_paren()?;
        loop {
            if self.eat(&Token::Union) {
                let all = self.eat(&Token::All);
                let right = self.select_or_paren()?;
                left = Statement::Union {
                    left: Box::new(left),
                    right: Box::new(right),
                    all,
                };
            } else if self.eat(&Token::Except) {
                let all = self.eat(&Token::All);
                let right = self.select_or_paren()?;
                left = Statement::Except {
                    left: Box::new(left),
                    right: Box::new(right),
                    all,
                };
            } else {
                break;
            }
        }
        Ok(left)
    }

    fn select_or_paren(&mut self) -> Result<Statement> {
        if self.eat(&Token::LParen) {
            let inner = self.statement()?;
            self.expect(Token::RParen)?;
            Ok(inner)
        } else {
            Ok(Statement::Select(Box::new(self.select()?)))
        }
    }

    fn select(&mut self) -> Result<SelectQuery> {
        let valid_time = self.eat(&Token::ValidTime);
        self.expect(Token::Select)?;
        let distinct = self.eat(&Token::Distinct);

        let mut items = Vec::new();
        if self.eat(&Token::Star) {
            items.push(SelectItem::Wildcard);
        } else {
            loop {
                let expr = self.expr()?;
                let alias = if self.eat(&Token::As) {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        self.expect(Token::From)?;
        let mut from = Vec::new();
        loop {
            from.push(self.table_ref()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }

        // Explicit JOIN clause: only after a single table reference.
        let mut join = None;
        if matches!(
            self.peek(),
            Some(Token::Inner | Token::Left | Token::Right | Token::Join)
        ) {
            if from.len() != 1 {
                return Err(Error::Parse {
                    reason: "JOIN cannot be combined with a comma-separated FROM list".into(),
                });
            }
            let kind = if self.eat(&Token::Left) {
                self.eat(&Token::Outer);
                JoinKind::Left
            } else if self.eat(&Token::Right) {
                self.eat(&Token::Outer);
                JoinKind::Right
            } else {
                self.eat(&Token::Inner);
                JoinKind::Inner
            };
            self.expect(Token::Join)?;
            let table = self.table_ref()?;
            self.expect(Token::On)?;
            let on = self.expr()?;
            join = Some(JoinClause { kind, table, on });
        }

        let predicate = if self.eat(&Token::Where) {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat(&Token::Group) {
            self.expect(Token::By)?;
            loop {
                group_by.push(self.ident()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat(&Token::Having) {
            Some(self.expr()?)
        } else {
            None
        };

        let coalesce = self.eat(&Token::Coalesce);

        Ok(SelectQuery {
            valid_time,
            distinct,
            items,
            from,
            join,
            predicate,
            group_by,
            having,
            coalesce,
        })
    }

    /// `table := ident [AS ident | ident]`.
    fn table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = if self.eat(&Token::As) {
            Some(self.ident()?)
        } else if let Some(Token::Ident(_)) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { name, alias })
    }

    // Expressions, lowest precedence first.
    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.and_expr()?;
        while self.eat(&Token::Or) {
            let right = self.and_expr()?;
            left = SqlExpr::binary(SqlBinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.not_expr()?;
        while self.eat(&Token::And) {
            let right = self.not_expr()?;
            left = SqlExpr::binary(SqlBinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat(&Token::Not) {
            // Fold negation into the subquery predicates so `NOT EXISTS` /
            // `NOT a IN (…)` and their prefix-NOT spellings build the same
            // AST (which the unparser then reproduces canonically).
            Ok(match self.not_expr()? {
                SqlExpr::Exists { query, negated } => SqlExpr::Exists {
                    query,
                    negated: !negated,
                },
                SqlExpr::InSubquery {
                    expr,
                    query,
                    negated,
                } => SqlExpr::InSubquery {
                    expr,
                    query,
                    negated: !negated,
                },
                other => SqlExpr::Not(Box::new(other)),
            })
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<SqlExpr> {
        let left = self.additive()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(SqlBinOp::Eq),
            Some(Token::Ne) => Some(SqlBinOp::Ne),
            Some(Token::Lt) => Some(SqlBinOp::Lt),
            Some(Token::Le) => Some(SqlBinOp::Le),
            Some(Token::Gt) => Some(SqlBinOp::Gt),
            Some(Token::Ge) => Some(SqlBinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(SqlExpr::binary(op, left, right));
        }
        // IS [NOT] NULL postfix.
        if self.eat(&Token::Is) {
            let negated = self.eat(&Token::Not);
            self.expect(Token::Null)?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN '(' statement ')' postfix.
        let in_negated = if self.eat(&Token::In) {
            Some(false)
        } else if self.peek() == Some(&Token::Not)
            && self.tokens.get(self.pos + 1) == Some(&Token::In)
        {
            self.pos += 2;
            Some(true)
        } else {
            None
        };
        if let Some(negated) = in_negated {
            self.expect(Token::LParen)?;
            let query = self.statement()?;
            self.expect(Token::RParen)?;
            return Ok(SqlExpr::InSubquery {
                expr: Box::new(left),
                query: Box::new(query),
                negated,
            });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<SqlExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => SqlBinOp::Add,
                Some(Token::Minus) => SqlBinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = SqlExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr> {
        let mut left = self.primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => SqlBinOp::Mul,
                Some(Token::Slash) => SqlBinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.primary()?;
            left = SqlExpr::binary(op, left, right);
        }
        Ok(left)
    }

    fn agg_func(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            _ => return None,
        })
    }

    fn primary(&mut self) -> Result<SqlExpr> {
        match self.advance() {
            Some(Token::Int(v)) => Ok(SqlExpr::Int(v)),
            Some(Token::Float(v)) => Ok(SqlExpr::Float(v)),
            Some(Token::Str(s)) => Ok(SqlExpr::Str(s)),
            Some(Token::True) => Ok(SqlExpr::Bool(true)),
            Some(Token::False) => Ok(SqlExpr::Bool(false)),
            Some(Token::Null) => Ok(SqlExpr::Null),
            Some(Token::Minus) => {
                // Unary minus over a numeric literal.
                match self.advance() {
                    Some(Token::Int(v)) => Ok(SqlExpr::Int(-v)),
                    Some(Token::Float(v)) => Ok(SqlExpr::Float(-v)),
                    other => Err(Error::Parse {
                        reason: format!(
                            "expected numeric literal after unary minus, found {}",
                            other.map_or("end of input".to_string(), |t| t.to_string())
                        ),
                    }),
                }
            }
            Some(Token::LParen) => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Exists) => {
                self.expect(Token::LParen)?;
                let query = self.statement()?;
                self.expect(Token::RParen)?;
                Ok(SqlExpr::Exists {
                    query: Box::new(query),
                    negated: false,
                })
            }
            Some(Token::Ident(name)) => {
                // Aggregate call?
                if self.peek() == Some(&Token::LParen) {
                    if let Some(func) = Self::agg_func(&name) {
                        self.pos += 1; // consume '('
                        let arg = if self.eat(&Token::Star) {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        self.expect(Token::RParen)?;
                        return Ok(SqlExpr::Agg { func, arg });
                    }
                    return Err(Error::Parse {
                        reason: format!("unknown function `{name}`"),
                    });
                }
                // Qualified column?
                if self.eat(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(SqlExpr::Column {
                        qualifier: Some(name),
                        name: col,
                    });
                }
                Ok(SqlExpr::Column {
                    qualifier: None,
                    name,
                })
            }
            other => Err(Error::Parse {
                reason: format!(
                    "expected expression, found {}",
                    other.map_or("end of input".to_string(), |t| t.to_string())
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_running_example() {
        let stmt = parse(
            "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
             EXCEPT ALL VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
             ORDER BY EmpName",
        )
        .unwrap();
        match &stmt {
            Statement::OrderBy { inner, keys } => {
                assert_eq!(keys.len(), 1);
                assert!(matches!(
                    inner.as_ref(),
                    Statement::Except { all: true, .. }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(stmt.is_valid_time());
    }

    #[test]
    fn parses_select_basics() {
        let stmt = parse("SELECT A, B AS X FROM R WHERE A > 3 AND B = 'hi'").unwrap();
        match stmt {
            Statement::Select(q) => {
                assert!(!q.valid_time);
                assert!(!q.distinct);
                assert_eq!(q.items.len(), 2);
                assert!(q.predicate.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_group_by_and_aggregates() {
        let stmt = parse("SELECT Dept, COUNT(*) AS n, SUM(Sal) AS s FROM E GROUP BY Dept").unwrap();
        match stmt {
            Statement::Select(q) => {
                assert_eq!(q.group_by, vec!["Dept".to_string()]);
                assert!(matches!(
                    q.items[1],
                    SelectItem::Expr {
                        expr: SqlExpr::Agg {
                            func: AggFunc::Count,
                            ..
                        },
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_coalesce_clause() {
        let stmt = parse("VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE").unwrap();
        match stmt {
            Statement::Select(q) => assert!(q.coalesce),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_table_aliases_and_qualified_columns() {
        let stmt = parse("SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName")
            .unwrap();
        match stmt {
            Statement::Select(q) => {
                assert_eq!(q.from.len(), 2);
                assert_eq!(q.from[0].visible_name(), "e");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let stmt = parse("SELECT * FROM R WHERE A + 1 * 2 > 3 OR NOT B = 4 AND C < 5").unwrap();
        // Just ensure it parses into the expected top-level OR.
        match stmt {
            Statement::Select(q) => match q.predicate.unwrap() {
                SqlExpr::Binary {
                    op: SqlBinOp::Or, ..
                } => {}
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_cases() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM R garbage garbage garbage").is_err());
        assert!(parse("SELECT FOO(A) FROM R").is_err());
        assert!(parse("SELECT * FROM R ORDER BY").is_err());
    }

    #[test]
    fn parenthesized_set_operations() {
        let stmt = parse("(SELECT * FROM A UNION SELECT * FROM B) EXCEPT SELECT * FROM C").unwrap();
        assert!(matches!(stmt, Statement::Except { all: false, .. }));
    }

    #[test]
    fn unary_minus_literals() {
        let stmt = parse("SELECT * FROM R WHERE A > -5").unwrap();
        match stmt {
            Statement::Select(q) => {
                let p = q.predicate.unwrap();
                match p {
                    SqlExpr::Binary { right, .. } => {
                        assert_eq!(*right, SqlExpr::Int(-5));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
