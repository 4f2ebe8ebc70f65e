//! Front-end robustness: the lexer, parser, and binder must never panic —
//! arbitrary input produces either a plan or a clean `Error`. The seeded
//! mutation-fuzz corpora at the bottom cover the two untrusted input
//! surfaces: SQL text and wire bytes.

use proptest::prelude::*;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tqo_storage::paper;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte-ish strings through the whole pipeline.
    #[test]
    fn arbitrary_strings_never_panic(input in "\\PC{0,80}") {
        let catalog = paper::catalog();
        let _ = tqo_sql::compile(&input, &catalog);
    }

    /// SQL-shaped strings (keywords, idents, operators shuffled) — much
    /// denser coverage of parser states than fully random text.
    #[test]
    fn sql_shaped_strings_never_panic(tokens in prop::collection::vec(
        prop::sample::select(vec![
            "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "ORDER",
            "VALIDTIME", "COALESCE", "EXCEPT", "UNION", "ALL", "AND", "OR",
            "NOT", "AS", "IS", "NULL", "ASC", "DESC", "EMPLOYEE", "PROJECT",
            "EmpName", "Dept", "T1", "T2", "COUNT", "SUM", "(", ")", "*",
            ",", ".", "=", "<", ">", "<=", ">=", "<>", "+", "-", "/", "'x'",
            "42", "3.5",
        ]),
        0..24,
    )) {
        let input = tokens.join(" ");
        let catalog = paper::catalog();
        let _ = tqo_sql::compile(&input, &catalog);
    }

    /// Every successfully compiled SQL-shaped query must also evaluate
    /// without panicking (evaluation may legitimately error, e.g. division
    /// by zero).
    #[test]
    fn compiled_queries_evaluate_without_panic(tokens in prop::collection::vec(
        prop::sample::select(vec![
            "SELECT", "DISTINCT", "FROM", "WHERE", "VALIDTIME", "COALESCE",
            "EMPLOYEE", "PROJECT", "EmpName", "Dept", "T1", "T2", "ORDER",
            "BY", "=", "'Sales'", "5", "AND",
        ]),
        2..14,
    )) {
        let input = tokens.join(" ");
        let catalog = paper::catalog();
        if let Ok(plan) = tqo_sql::compile(&input, &catalog) {
            let _ = tqo_core::interp::eval_plan(&plan, &catalog.env());
        }
    }
}

/// A deterministic gauntlet of malformed inputs with the errors they must
/// produce (not panics).
#[test]
fn malformed_inputs_produce_clean_errors() {
    let catalog = paper::catalog();
    let cases = [
        "",
        "SELECT",
        "SELECT FROM",
        "SELECT * FROM",
        "SELECT * FROM NoSuchTable",
        "SELECT NoSuchColumn FROM EMPLOYEE",
        "SELECT EmpName FROM EMPLOYEE, PROJECT", // ambiguous
        "SELECT * FROM EMPLOYEE, PROJECT, EMPLOYEE", // >2 tables
        "SELECT EmpName FROM EMPLOYEE COALESCE", // COALESCE without VALIDTIME
        "SELECT COUNT(*) FROM",
        "SELECT * FROM EMPLOYEE WHERE",
        "SELECT * FROM EMPLOYEE ORDER BY",
        "SELECT * FROM EMPLOYEE WHERE EmpName = ",
        "SELECT * FROM EMPLOYEE GROUP",
        "SELECT SUM(EmpName + 1) AS s FROM EMPLOYEE GROUP BY Dept",
        "VALIDTIME SELECT e.Nope FROM EMPLOYEE e",
        "SELECT * FROM EMPLOYEE trailing garbage here",
        "((((SELECT * FROM EMPLOYEE",
        "'unterminated",
        "SELECT * FROM EMPLOYEE WHERE Dept = 'x' !",
    ];
    for sql in cases {
        let result = tqo_sql::compile(sql, &catalog);
        assert!(result.is_err(), "`{sql}` should be rejected");
        // And the error formats cleanly.
        let _ = result.unwrap_err().to_string();
    }
}

/// Numeric literals at and past every integer/float boundary must lex to
/// clean errors or values, never panic (overflow is an `Err`, not an
/// abort).
#[test]
fn extreme_numeric_literals_never_panic() {
    let catalog = paper::catalog();
    for lit in [
        "9223372036854775807",
        "9223372036854775808",
        "99999999999999999999999999999999999999",
        "-9223372036854775808",
        "1e308",
        "1e309",
        "0.000000000000000000000000000000001",
        "1.7976931348623157e308",
        "3.", // trailing dot
    ] {
        let sql = format!("SELECT * FROM EMPLOYEE WHERE T1 > {lit}");
        let _ = tqo_sql::compile(&sql, &catalog);
    }
}

/// The valid-query corpus the mutation fuzzer perturbs: every statement
/// class the front end supports.
const SQL_CORPUS: &[&str] = &[
    "SELECT * FROM EMPLOYEE",
    "SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'Shipping'",
    "SELECT Dept, COUNT(*) AS n, SUM(T2 - T1) AS dur FROM EMPLOYEE GROUP BY Dept",
    "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE \
     EXCEPT VALIDTIME SELECT DISTINCT EmpName FROM PROJECT \
     COALESCE ORDER BY EmpName",
    "VALIDTIME SELECT e.EmpName FROM EMPLOYEE e, PROJECT p WHERE e.EmpName = p.EmpName",
    "SELECT * FROM EMPLOYEE WHERE T1 + 1 * 2 > 3 OR NOT Dept = 'x' AND T2 < 50",
    "(SELECT EmpName FROM EMPLOYEE UNION SELECT EmpName FROM PROJECT) ORDER BY EmpName DESC",
    "SELECT EmpName AS who FROM EMPLOYEE WHERE EmpName IS NOT NULL ORDER BY who ASC",
    "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept HAVING n > 2",
    "SELECT EmpName FROM EMPLOYEE WHERE EmpName NOT IN \
     (VALIDTIME SELECT EmpName FROM PROJECT WHERE Prj = 'P1')",
    "SELECT EmpName FROM EMPLOYEE e WHERE EXISTS \
     (SELECT Prj FROM PROJECT p WHERE p.EmpName = e.EmpName)",
    "VALIDTIME SELECT e.EmpName AS who, p.Prj AS what FROM EMPLOYEE e \
     LEFT JOIN PROJECT p ON e.EmpName = p.EmpName",
    "SELECT EmpName FROM EMPLOYEE ORDER BY EmpName LIMIT 3 OFFSET 1",
];

/// One seeded byte-level mutation: truncate, delete a range, duplicate a
/// range, flip a byte, or splice in a fragment of another corpus entry.
fn mutate_sql(rng: &mut StdRng, base: &str) -> String {
    let mut bytes = base.as_bytes().to_vec();
    let edits = rng.gen_range(1usize..=4);
    for _ in 0..edits {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_range(0u8..5) {
            0 => {
                let at = rng.gen_range(0..bytes.len());
                bytes.truncate(at);
            }
            1 => {
                let a = rng.gen_range(0..bytes.len());
                let b = (a + rng.gen_range(1usize..8)).min(bytes.len());
                bytes.drain(a..b);
            }
            2 => {
                let a = rng.gen_range(0..bytes.len());
                let b = (a + rng.gen_range(1usize..8)).min(bytes.len());
                let dup: Vec<u8> = bytes[a..b].to_vec();
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, dup);
            }
            3 => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen_range(0u8..=255);
            }
            _ => {
                let donor = SQL_CORPUS[rng.gen_range(0..SQL_CORPUS.len())].as_bytes();
                let a = rng.gen_range(0..donor.len());
                let b = (a + rng.gen_range(1usize..16)).min(donor.len());
                let at = rng.gen_range(0..=bytes.len());
                bytes.splice(at..at, donor[a..b].iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Seeded mutation fuzz over the SQL corpus: thousands of deterministic
/// mutants of valid queries through compile (and, when they still
/// compile, evaluation). Panics fail the test; errors are the contract.
#[test]
fn mutated_sql_corpus_never_panics() {
    let catalog = paper::catalog();
    let env = catalog.env();
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..2000 {
        let base = SQL_CORPUS[round % SQL_CORPUS.len()];
        let mutant = mutate_sql(&mut rng, base);
        if let Ok(plan) = tqo_sql::compile(&mutant, &catalog) {
            let _ = tqo_core::interp::eval_plan(&plan, &env);
        }
    }
}

/// Seeded mutation fuzz over wire bytes: encode real relations, then
/// truncate, corrupt, extend, and re-decode. Decode must return a clean
/// `Err` (or a valid relation, for semantically neutral mutations) —
/// never panic, and never trust the claimed row count. The relations
/// cover every dtype, with and without NULLs, repeated strings, a temporal
/// schema and an empty relation, so every section of the column frame is
/// mutated; so are frames whose string entries or codes are malformed.
#[test]
fn mutated_wire_bytes_never_panic() {
    use tqo_core::relation::Relation;
    use tqo_core::schema::Schema;
    use tqo_core::tuple::Tuple;
    use tqo_core::value::{DataType, Value};

    let employee = paper::catalog().get("EMPLOYEE").unwrap().relation().clone();
    let mixed = Relation::new(
        Schema::of(&[
            ("S", DataType::Str),
            ("F", DataType::Float),
            ("B", DataType::Bool),
            ("I", DataType::Int),
            ("T", DataType::Time),
        ]),
        vec![
            Tuple::new(vec![
                Value::Str("αβγ".into()),
                Value::Float(2.5),
                Value::Bool(true),
                Value::Int(-3),
                Value::Time(9),
            ]),
            Tuple::new(vec![
                Value::Null,
                Value::Null,
                Value::Bool(false),
                Value::Null,
                Value::Null,
            ]),
            Tuple::new(vec![
                Value::Str("αβγ".into()),
                Value::Float(f64::NAN),
                Value::Null,
                Value::Int(i64::MAX),
                Value::Time(-1),
            ]),
        ],
    )
    .unwrap();
    let runs = Relation::new(
        Schema::temporal(&[("D", DataType::Str), ("N", DataType::Int)]),
        (0..40i64)
            .map(|i| {
                Tuple::new(vec![
                    Value::from(["Sales", "Sales", "Ads", ""][(i / 10) as usize]),
                    Value::Int(i % 7),
                    Value::Time(i),
                    Value::Time(i + 1 + i % 3),
                ])
            })
            .collect(),
    )
    .unwrap();
    let empty = Relation::empty(Schema::temporal(&[("E", DataType::Str)]));

    let mut rng = StdRng::seed_from_u64(0xFAB);
    for rel in [&employee, &mixed, &runs, &empty] {
        let clean = tqo_stratum::wire::encode(rel).unwrap();
        assert_eq!(
            tqo_stratum::wire::decode(rel.schema(), clean.clone()).unwrap(),
            *rel
        );
        for _ in 0..1500 {
            let mut bytes = clean.to_vec();
            for _ in 0..rng.gen_range(1usize..=3) {
                if bytes.is_empty() {
                    break;
                }
                match rng.gen_range(0u8..4) {
                    0 => bytes.truncate(rng.gen_range(0..bytes.len())),
                    1 => {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] = rng.gen_range(0u8..=255);
                    }
                    2 => {
                        let at = rng.gen_range(0..bytes.len());
                        let n = rng.gen_range(1usize..8);
                        let junk: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..=255)).collect();
                        bytes.splice(at..at, junk);
                    }
                    _ => {
                        let a = rng.gen_range(0..bytes.len());
                        let b = (a + rng.gen_range(1usize..8)).min(bytes.len());
                        bytes.drain(a..b);
                    }
                }
            }
            let _ = tqo_stratum::wire::decode(rel.schema(), bytes::Bytes::from(bytes));
        }
    }

    // Malformed string columns: a code past the entries, entries out of
    // order, and a duplicated entry. Each fails typed as sent, and its
    // mutations never panic either.
    let strs = Schema::of(&[("S", DataType::Str)]);
    let frame = |entries: &[&str], codes: &[u8]| {
        let mut bytes = Vec::new();
        for word in [1u32, codes.len() as u32, entries.len() as u32] {
            bytes.extend_from_slice(&word.to_be_bytes());
        }
        bytes.insert(8, 0); // no null mask
        for e in entries {
            bytes.extend_from_slice(&(e.len() as u32).to_be_bytes());
            bytes.extend_from_slice(e.as_bytes());
        }
        bytes.extend_from_slice(codes);
        bytes
    };
    for malformed in [
        frame(&["Ads", "Sales"], &[0, 2, 1]),
        frame(&["Sales", "Ads"], &[0, 1, 1]),
        frame(&["Ads", "Ads"], &[0, 1, 0]),
    ] {
        let sent = tqo_stratum::wire::decode(&strs, bytes::Bytes::from(malformed.clone()));
        assert!(
            matches!(sent, Err(tqo_core::error::Error::Storage { .. })),
            "{sent:?}"
        );
        for _ in 0..500 {
            let mut bytes = malformed.clone();
            let at = rng.gen_range(0..bytes.len());
            match rng.gen_range(0u8..3) {
                0 => bytes.truncate(at),
                1 => bytes[at] = rng.gen_range(0u8..=255),
                _ => bytes.insert(at, rng.gen_range(0u8..=255)),
            }
            let _ = tqo_stratum::wire::decode(&strs, bytes::Bytes::from(bytes));
        }
    }
}

/// Hostile headers over tiny payloads — a row count of four billion, an
/// entry count and string lengths past anything the payload holds, and a row count for a schema without columns (whose rows take no
/// wire bytes at all) — must each be rejected quickly, typed, without
/// attempting the allocation they claim.
#[test]
fn hostile_row_count_header_is_clamped() {
    use tqo_core::error::Error;
    use tqo_core::schema::Schema;
    use tqo_core::value::DataType;

    fn frame(arity: u32, rows: u32, words: &[u32], tail: &[u8]) -> bytes::Bytes {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&arity.to_be_bytes());
        bytes.extend_from_slice(&rows.to_be_bytes());
        bytes.push(0); // null flag: no mask
        for w in words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        bytes.extend_from_slice(tail);
        bytes::Bytes::from(bytes)
    }

    let ints = Schema::of(&[("A", DataType::Int)]);
    let strs = Schema::of(&[("S", DataType::Str)]);
    let cases = [
        // rows = u32::MAX, then a single Int value.
        (
            "row count",
            &ints,
            frame(1, u32::MAX, &[], &7i64.to_be_bytes()),
        ),
        // rows = u32::MAX, one honest one-byte entry.
        (
            "row count over string codes",
            &strs,
            frame(1, u32::MAX, &[1, 1, 1], b"x"),
        ),
        // An entry count no payload of this size could hold.
        ("entry count", &strs, frame(1, 3, &[u32::MAX, 3, 1], b"x")),
        // An entry longer than the payload.
        ("entry length", &strs, frame(1, 3, &[1, u32::MAX, 1], b"x")),
        // An entry running into the codes, which are not UTF-8.
        ("string length", &strs, frame(1, 3, &[1, 3, u32::MAX], b"x")),
        // Zero-column rows: eight bytes claiming four billion rows.
        ("zero-column rows", &Schema::of(&[]), {
            let mut b = 0u32.to_be_bytes().to_vec();
            b.extend_from_slice(&u32::MAX.to_be_bytes());
            bytes::Bytes::from(b)
        }),
    ];
    for (what, schema, bytes) in cases {
        let started = std::time::Instant::now();
        let result = tqo_stratum::wire::decode(schema, bytes);
        assert!(
            matches!(result, Err(Error::Storage { .. })),
            "lying {what} must not decode: {result:?}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "hostile {what} took {:?} — allocation not clamped",
            started.elapsed()
        );
    }
}

// ---------------------------------------------------------------------------
// Round-trip property: parse(unparse(ast)) == ast.
// ---------------------------------------------------------------------------

/// Seeded generator of random *parser-canonical* statements. Two shapes
/// the parser can never produce are excluded by construction: `NOT`
/// directly wrapping a subquery predicate (negation is folded into the
/// `negated` flags) and `ORDER BY`/`LIMIT` nested in the wrong order.
mod ast_gen {
    use rand::rngs::StdRng;
    use rand::Rng;
    use tqo_core::expr::AggFunc;
    use tqo_core::sortspec::SortDir;
    use tqo_sql::ast::*;

    const IDENTS: &[&str] = &["a", "b", "c", "EmpName", "Dept", "Prj", "x1", "col_2"];
    const TABLES: &[&str] = &["R", "S", "EMPLOYEE", "PROJECT", "T_0"];
    const STRINGS: &[&str] = &["", "x", "it's", "Sales"];
    const FLOATS: &[f64] = &[0.5, 1.5, 2.25, 10.75];

    fn ident(rng: &mut StdRng) -> String {
        IDENTS[rng.gen_range(0..IDENTS.len())].to_string()
    }

    fn column(rng: &mut StdRng) -> SqlExpr {
        SqlExpr::Column {
            qualifier: if rng.gen_range(0u8..4) == 0 {
                Some(TABLES[rng.gen_range(0..TABLES.len())].to_lowercase())
            } else {
                None
            },
            name: ident(rng),
        }
    }

    fn literal(rng: &mut StdRng) -> SqlExpr {
        match rng.gen_range(0u8..5) {
            0 => SqlExpr::Int(rng.gen_range(-999i64..=999)),
            1 => SqlExpr::Float(FLOATS[rng.gen_range(0..FLOATS.len())]),
            2 => SqlExpr::Str(STRINGS[rng.gen_range(0..STRINGS.len())].to_string()),
            3 => SqlExpr::Bool(rng.gen_range(0u8..2) == 0),
            _ => SqlExpr::Null,
        }
    }

    const BIN_OPS: &[SqlBinOp] = &[
        SqlBinOp::Eq,
        SqlBinOp::Ne,
        SqlBinOp::Lt,
        SqlBinOp::Le,
        SqlBinOp::Gt,
        SqlBinOp::Ge,
        SqlBinOp::And,
        SqlBinOp::Or,
        SqlBinOp::Add,
        SqlBinOp::Sub,
        SqlBinOp::Mul,
        SqlBinOp::Div,
    ];

    /// A scalar expression without subqueries.
    fn scalar(rng: &mut StdRng, depth: u8) -> SqlExpr {
        if depth == 0 {
            return if rng.gen_range(0u8..2) == 0 {
                column(rng)
            } else {
                literal(rng)
            };
        }
        match rng.gen_range(0u8..6) {
            0 => column(rng),
            1 => literal(rng),
            2 => SqlExpr::Binary {
                op: BIN_OPS[rng.gen_range(0..BIN_OPS.len())],
                left: Box::new(scalar(rng, depth - 1)),
                right: Box::new(scalar(rng, depth - 1)),
            },
            3 => SqlExpr::Not(Box::new(scalar(rng, depth - 1))),
            4 => SqlExpr::IsNull {
                expr: Box::new(scalar(rng, depth - 1)),
                negated: rng.gen_range(0u8..2) == 0,
            },
            _ => SqlExpr::Agg {
                func: match rng.gen_range(0u8..5) {
                    0 => AggFunc::Count,
                    1 => AggFunc::Sum,
                    2 => AggFunc::Min,
                    3 => AggFunc::Max,
                    _ => AggFunc::Avg,
                },
                arg: if rng.gen_range(0u8..3) == 0 {
                    None
                } else {
                    Some(Box::new(scalar(rng, depth - 1)))
                },
            },
        }
    }

    /// A WHERE-shaped predicate: a scalar, optionally conjoined with
    /// subquery membership tests.
    fn predicate(rng: &mut StdRng, depth: u8) -> SqlExpr {
        let mut p = scalar(rng, depth);
        if depth == 0 {
            return p;
        }
        for _ in 0..rng.gen_range(0u8..3) {
            let sub = if rng.gen_range(0u8..2) == 0 {
                SqlExpr::InSubquery {
                    expr: Box::new(scalar(rng, 1)),
                    query: Box::new(statement(rng, depth - 1)),
                    negated: rng.gen_range(0u8..2) == 0,
                }
            } else {
                SqlExpr::Exists {
                    query: Box::new(statement(rng, depth - 1)),
                    negated: rng.gen_range(0u8..2) == 0,
                }
            };
            p = SqlExpr::Binary {
                op: SqlBinOp::And,
                left: Box::new(p),
                right: Box::new(sub),
            };
        }
        p
    }

    fn table(rng: &mut StdRng) -> TableRef {
        TableRef {
            name: TABLES[rng.gen_range(0..TABLES.len())].to_string(),
            alias: if rng.gen_range(0u8..2) == 0 {
                Some(TABLES[rng.gen_range(0..TABLES.len())].to_lowercase())
            } else {
                None
            },
        }
    }

    fn select(rng: &mut StdRng, depth: u8) -> SelectQuery {
        let items = if rng.gen_range(0u8..3) == 0 {
            vec![SelectItem::Wildcard]
        } else {
            (0..rng.gen_range(1usize..=3))
                .map(|_| SelectItem::Expr {
                    expr: scalar(rng, depth.min(2)),
                    alias: if rng.gen_range(0u8..2) == 0 {
                        Some(ident(rng))
                    } else {
                        None
                    },
                })
                .collect()
        };
        let two_tables = rng.gen_range(0u8..3) == 0;
        let from = if two_tables {
            vec![table(rng), table(rng)]
        } else {
            vec![table(rng)]
        };
        // The parser only accepts JOIN after a single table reference.
        let join = if !two_tables && rng.gen_range(0u8..3) == 0 {
            Some(JoinClause {
                kind: match rng.gen_range(0u8..3) {
                    0 => JoinKind::Inner,
                    1 => JoinKind::Left,
                    _ => JoinKind::Right,
                },
                table: table(rng),
                on: scalar(rng, depth.min(2)),
            })
        } else {
            None
        };
        SelectQuery {
            valid_time: rng.gen_range(0u8..3) == 0,
            distinct: rng.gen_range(0u8..3) == 0,
            items,
            from,
            join,
            predicate: if rng.gen_range(0u8..2) == 0 {
                Some(predicate(rng, depth))
            } else {
                None
            },
            group_by: (0..rng.gen_range(0usize..=2)).map(|_| ident(rng)).collect(),
            having: if rng.gen_range(0u8..4) == 0 {
                Some(scalar(rng, depth.min(2)))
            } else {
                None
            },
            coalesce: rng.gen_range(0u8..5) == 0,
        }
    }

    /// A full statement: a set-expression core, optionally wrapped in
    /// `ORDER BY` and then `LIMIT`/`OFFSET` (the only nesting order the
    /// parser produces).
    pub fn statement(rng: &mut StdRng, depth: u8) -> Statement {
        let mut stmt = if depth > 0 && rng.gen_range(0u8..4) == 0 {
            let mk = |rng: &mut StdRng, d| Box::new(statement(rng, d));
            let (left, right) = (mk(rng, depth - 1), mk(rng, depth - 1));
            let all = rng.gen_range(0u8..2) == 0;
            if rng.gen_range(0u8..2) == 0 {
                Statement::Union { left, right, all }
            } else {
                Statement::Except { left, right, all }
            }
        } else {
            Statement::Select(Box::new(select(rng, depth)))
        };
        if rng.gen_range(0u8..4) == 0 {
            stmt = Statement::OrderBy {
                inner: Box::new(stmt),
                keys: (0..rng.gen_range(1usize..=2))
                    .map(|_| OrderItem {
                        column: ident(rng),
                        dir: if rng.gen_range(0u8..2) == 0 {
                            SortDir::Asc
                        } else {
                            SortDir::Desc
                        },
                    })
                    .collect(),
            };
        }
        if rng.gen_range(0u8..4) == 0 {
            stmt = Statement::Limit {
                inner: Box::new(stmt),
                limit: if rng.gen_range(0u8..3) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0usize..100))
                },
                offset: if rng.gen_range(0u8..2) == 0 {
                    0
                } else {
                    rng.gen_range(1usize..50)
                },
            };
        }
        stmt
    }
}

/// For any statement the parser can produce, rendering it back to SQL and
/// re-parsing must reproduce the identical AST — the unparser's contract.
#[test]
fn unparse_parse_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for case in 0..1500 {
        let stmt = ast_gen::statement(&mut rng, 3);
        let text = tqo_sql::ast_unparser::unparse(&stmt);
        let reparsed = tqo_sql::parser::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: unparsed `{text}` fails to parse: {e}"));
        assert_eq!(
            stmt, reparsed,
            "case {case}: round trip diverged via `{text}`"
        );
    }
}

/// Unparsed statements must also re-unparse to the identical text — the
/// canonical form is a fixed point.
#[test]
fn unparse_is_a_fixed_point() {
    let mut rng = StdRng::seed_from_u64(0xF1C5);
    for _ in 0..500 {
        let stmt = ast_gen::statement(&mut rng, 3);
        let text = tqo_sql::ast_unparser::unparse(&stmt);
        if let Ok(reparsed) = tqo_sql::parser::parse(&text) {
            assert_eq!(text, tqo_sql::ast_unparser::unparse(&reparsed));
        }
    }
}
