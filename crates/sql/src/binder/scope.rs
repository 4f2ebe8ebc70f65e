//! Name resolution: the `FROM` tables of one block and the plan attributes
//! their columns surface as.

use tqo_core::error::{Error, Result};
use tqo_core::schema::{Schema, T1, T2};

use super::scalar::Resolve;
use crate::ast::SqlExpr;

/// Name-resolution scope: the FROM tables with their output prefixes.
pub(super) struct Scope {
    /// (visible name, attribute prefix in the plan output, schema).
    pub tables: Vec<(String, String, Schema)>,
    /// Whether the scope's plan output carries fresh `T1`/`T2` (temporal
    /// product or single temporal table).
    pub has_fresh_period: bool,
}

impl Scope {
    /// Resolve `qualifier.name` to the plan-output attribute name.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<String> {
        if let Some(q) = qualifier {
            let (_, prefix, schema) =
                self.tables
                    .iter()
                    .find(|(vis, _, _)| vis == q)
                    .ok_or_else(|| Error::Parse {
                        reason: format!("unknown table `{q}`"),
                    })?;
            if schema.index_of(name).is_none() {
                return Err(Error::UnknownAttribute {
                    name: format!("{q}.{name}"),
                    schema: schema.to_string(),
                });
            }
            return Ok(format!("{prefix}{name}"));
        }
        // Fresh period attributes of a temporal product resolve unqualified.
        if (name == T1 || name == T2) && self.has_fresh_period {
            return Ok(name.to_owned());
        }
        let mut hits = Vec::new();
        for (vis, prefix, schema) in &self.tables {
            if schema.index_of(name).is_some() {
                hits.push((vis.clone(), format!("{prefix}{name}")));
            }
        }
        match hits.len() {
            0 => Err(Error::UnknownAttribute {
                name: name.to_owned(),
                schema: self
                    .tables
                    .iter()
                    .map(|(v, _, _)| v.as_str())
                    .collect::<Vec<_>>()
                    .join(", "),
            }),
            1 => Ok(hits.pop().expect("one hit").1),
            _ => Err(Error::Parse {
                reason: format!(
                    "ambiguous column `{name}` (in {})",
                    hits.iter()
                        .map(|(v, _)| v.as_str())
                        .collect::<Vec<_>>()
                        .join(" and ")
                ),
            }),
        }
    }
}

/// `WHERE`, `ON` and an ungrouped select list: names are the scope's
/// columns, and an aggregate call has no meaning.
impl Resolve for Scope {
    fn column(&self, qualifier: Option<&str>, name: &str) -> Result<String> {
        self.resolve(qualifier, name)
    }

    fn aggregate(&self, _call: &SqlExpr) -> Result<String> {
        Err(Error::Parse {
            reason: "aggregate calls are only allowed in the select list of a grouped query".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_storage::paper;

    fn two_tables() -> Scope {
        let (e, p) = (paper::employee(), paper::project());
        Scope {
            tables: vec![
                ("e".into(), "1.".into(), e.schema().clone()),
                ("p".into(), "2.".into(), p.schema().clone()),
            ],
            has_fresh_period: true,
        }
    }

    #[test]
    fn qualified_and_unique_names_resolve_to_prefixed_attributes() {
        let s = two_tables();
        assert_eq!(s.resolve(Some("e"), "EmpName").unwrap(), "1.EmpName");
        assert_eq!(s.resolve(None, "Prj").unwrap(), "2.Prj");
        assert_eq!(s.resolve(None, "T1").unwrap(), "T1");
    }

    #[test]
    fn ambiguous_unknown_and_foreign_names_fail() {
        let s = two_tables();
        let amb = s.resolve(None, "EmpName").unwrap_err().to_string();
        assert!(
            amb.contains("ambiguous column `EmpName` (in e and p)"),
            "{amb}"
        );
        assert!(matches!(
            s.resolve(None, "Nope"),
            Err(Error::UnknownAttribute { .. })
        ));
        let unknown = s.resolve(Some("x"), "EmpName").unwrap_err().to_string();
        assert!(unknown.contains("unknown table `x`"), "{unknown}");
    }

    #[test]
    fn aggregate_calls_have_no_meaning_in_a_plain_scope() {
        let call = SqlExpr::Agg {
            func: tqo_core::expr::AggFunc::Count,
            arg: None,
        };
        let err = two_tables().aggregate(&call).unwrap_err().to_string();
        assert!(err.contains("only allowed in the select list"), "{err}");
    }
}
