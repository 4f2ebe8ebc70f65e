//! Parser for the `.slt` corpus format (a sqllogictest dialect).
//!
//! File shape:
//!
//! ```text
//! # comments start with `#`
//! fixtures paper                      # or: paper+nulls, generated seed=7 scale=2
//! modes all                           # or: engines (skip planner legs)
//!
//! statement ok
//! SELECT EmpName FROM EMPLOYEE
//!
//! query TI rowsort
//! SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept
//! ----
//! Advertising 2
//! Sales 3
//!
//! query error unknown relation
//! SELECT * FROM NOWHERE
//! ```
//!
//! * `statement ok` — the SQL must compile and evaluate without error.
//! * `query <types> [rowsort]` — the SQL runs through the full engine
//!   matrix; `<types>` is one `T`/`I`/`R`/`B` per output column, and the
//!   block after `----` pins the canonical rendering (or a single
//!   `<n> values hashing to <hex>` line for large results).
//! * `query error [substring]` — compilation or evaluation must fail,
//!   and the error's display must contain the substring (when given).
//!
//! SQL may span lines; a record ends at a blank line. Line spans of the
//! directive and expected block are retained so `UPDATE_SLT=1` can bless
//! new expected blocks in place without disturbing comments.

use crate::fixtures::Fixture;
use crate::render::SortMode;

/// Which legs of the mode matrix a file runs (its `modes` header).
/// The multi-query `scheduler` leg runs under both sets, so the whole
/// corpus doubles as the shared-pool concurrency oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeSet {
    /// Everything: engines, scheduler, optimizer strategies, stratum.
    All,
    /// Engine + scheduler legs only (batch, shared-pool stage graphs)
    /// — for large generated fixtures where the
    /// planner legs would dominate runtime.
    Engines,
}

/// One directive record.
#[derive(Debug, Clone)]
pub struct Record {
    pub kind: RecordKind,
    /// The SQL text (lines joined by a single space).
    pub sql: String,
    /// 1-based line number of the directive (for diagnostics).
    pub line: usize,
    /// 0-based index of the directive line (for `UPDATE_SLT` rewrites).
    pub directive_index: usize,
    /// Lines `[start, end)` of the `----` marker plus expected block, when
    /// present.
    pub expected_span: Option<(usize, usize)>,
    /// Where an expected block would be inserted if absent (the line
    /// after the SQL text).
    pub insert_at: usize,
}

#[derive(Debug, Clone)]
pub enum RecordKind {
    StatementOk,
    Query {
        types: String,
        sort: SortMode,
        expected: Expected,
    },
    QueryError {
        pattern: String,
    },
}

/// The pinned result of a `query` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// No `----` block yet (only legal under `UPDATE_SLT=1`).
    Missing,
    /// Row lines, exactly as rendered.
    Rows(Vec<String>),
    /// `<values> values hashing to <hex>`.
    Hash { values: usize, hash: u64 },
}

/// A parsed corpus file.
#[derive(Debug)]
pub struct SltFile {
    pub fixture: Fixture,
    pub modes: ModeSet,
    pub records: Vec<Record>,
    /// The raw lines, retained for in-place rewrites.
    pub lines: Vec<String>,
}

fn is_blank(line: &str) -> bool {
    line.trim().is_empty()
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with('#')
}

/// Parse `<n> values hashing to <hex>`.
fn parse_hash_line(line: &str) -> Option<Expected> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        [n, "values", "hashing", "to", hex] => Some(Expected::Hash {
            values: n.parse().ok()?,
            hash: u64::from_str_radix(hex, 16).ok()?,
        }),
        _ => None,
    }
}

/// Parse a corpus file. Errors carry `line:` prefixes for diagnostics.
pub fn parse(text: &str) -> Result<SltFile, String> {
    let lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let mut fixture = Fixture::Paper;
    let mut modes = ModeSet::All;
    let mut records = Vec::new();
    let mut i = 0usize;

    // Collect SQL lines starting at `*i` until a blank line, `----`, or
    // EOF; leaves `*i` on the terminator.
    fn take_sql(lines: &[String], i: &mut usize) -> String {
        let mut sql = Vec::new();
        while *i < lines.len() && !is_blank(&lines[*i]) && lines[*i].trim() != "----" {
            sql.push(lines[*i].trim().to_owned());
            *i += 1;
        }
        sql.join(" ")
    }

    while i < lines.len() {
        let line = lines[i].trim();
        if line.is_empty() || is_comment(&lines[i]) {
            i += 1;
            continue;
        }
        let lineno = i + 1;
        if let Some(body) = line.strip_prefix("fixtures ") {
            fixture = Fixture::parse(body).map_err(|e| format!("{lineno}: {e}"))?;
            i += 1;
        } else if let Some(body) = line.strip_prefix("modes ") {
            modes = match body.trim() {
                "all" => ModeSet::All,
                "engines" => ModeSet::Engines,
                other => return Err(format!("{lineno}: unknown modes `{other}`")),
            };
            i += 1;
        } else if line == "statement ok" {
            let directive_index = i;
            i += 1;
            let sql = take_sql(&lines, &mut i);
            if sql.is_empty() {
                return Err(format!("{lineno}: statement with no SQL"));
            }
            records.push(Record {
                kind: RecordKind::StatementOk,
                sql,
                line: lineno,
                directive_index,
                expected_span: None,
                insert_at: i,
            });
        } else if let Some(rest) = line.strip_prefix("query ") {
            let directive_index = i;
            let rest = rest.trim();
            if let Some(pattern) = rest.strip_prefix("error") {
                i += 1;
                let sql = take_sql(&lines, &mut i);
                if sql.is_empty() {
                    return Err(format!("{lineno}: query error with no SQL"));
                }
                records.push(Record {
                    kind: RecordKind::QueryError {
                        pattern: pattern.trim().to_owned(),
                    },
                    sql,
                    line: lineno,
                    directive_index,
                    expected_span: None,
                    insert_at: i,
                });
            } else {
                let mut words = rest.split_whitespace();
                let types = words
                    .next()
                    .ok_or_else(|| format!("{lineno}: query without a type string"))?
                    .to_owned();
                let sort = match words.next() {
                    None => SortMode::NoSort,
                    Some("rowsort") => SortMode::RowSort,
                    Some(other) => {
                        return Err(format!("{lineno}: unknown sort mode `{other}`"));
                    }
                };
                if !types
                    .chars()
                    .all(|c| matches!(c, 'T' | 'I' | 'R' | 'B' | '?'))
                {
                    return Err(format!("{lineno}: bad type string `{types}`"));
                }
                i += 1;
                let sql = take_sql(&lines, &mut i);
                if sql.is_empty() {
                    return Err(format!("{lineno}: query with no SQL"));
                }
                let insert_at = i;
                let expected;
                let expected_span;
                if i < lines.len() && lines[i].trim() == "----" {
                    let start = i;
                    i += 1;
                    let mut rows = Vec::new();
                    while i < lines.len() && !is_blank(&lines[i]) {
                        rows.push(lines[i].clone());
                        i += 1;
                    }
                    expected_span = Some((start, i));
                    expected = match rows.as_slice() {
                        [one] if parse_hash_line(one).is_some() => {
                            parse_hash_line(one).expect("checked")
                        }
                        _ => Expected::Rows(rows),
                    };
                } else {
                    expected_span = None;
                    expected = Expected::Missing;
                }
                records.push(Record {
                    kind: RecordKind::Query {
                        types,
                        sort,
                        expected,
                    },
                    sql,
                    line: lineno,
                    directive_index,
                    expected_span,
                    insert_at,
                });
            }
        } else {
            return Err(format!("{lineno}: unrecognized directive `{line}`"));
        }
    }

    Ok(SltFile {
        fixture,
        modes,
        records,
        lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
fixtures generated seed=3 scale=1
modes engines

statement ok
SELECT EmpName FROM EMPLOYEE

query TI rowsort
SELECT Dept, COUNT(*) AS n
FROM EMPLOYEE GROUP BY Dept
----
Advertising 2
Sales 3

query I
SELECT T1 FROM EMPLOYEE ORDER BY T1
----
42 values hashing to cbf29ce484222325

query error unknown relation
SELECT * FROM NOWHERE
";

    #[test]
    fn parses_the_full_directive_set() {
        let file = parse(SAMPLE).unwrap();
        assert_eq!(file.fixture, Fixture::Generated { seed: 3, scale: 1 });
        assert_eq!(file.modes, ModeSet::Engines);
        assert_eq!(file.records.len(), 4);
        assert!(matches!(file.records[0].kind, RecordKind::StatementOk));
        match &file.records[1].kind {
            RecordKind::Query {
                types,
                sort,
                expected,
            } => {
                assert_eq!(types, "TI");
                assert_eq!(*sort, SortMode::RowSort);
                assert_eq!(
                    *expected,
                    Expected::Rows(vec!["Advertising 2".into(), "Sales 3".into()])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            file.records[1].sql,
            "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept"
        );
        match &file.records[2].kind {
            RecordKind::Query { expected, .. } => assert_eq!(
                *expected,
                Expected::Hash {
                    values: 42,
                    hash: 0xcbf2_9ce4_8422_2325
                }
            ),
            other => panic!("unexpected {other:?}"),
        }
        match &file.records[3].kind {
            RecordKind::QueryError { pattern } => assert_eq!(pattern, "unknown relation"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_directives() {
        assert!(parse("querry T\nSELECT 1\n").is_err());
        assert!(parse("query X\nSELECT 1\n").is_err());
        assert!(parse("modes turbo\n").is_err());
    }
}
