//! Deterministic fixture catalogs for the `.slt` corpus.
//!
//! Every fixture is a pure function of the directive text — the paper's
//! running example (optionally with NULL-keyed copies of its tables) or a
//! seeded [`tqo_storage::WorkloadGenerator`] workload — so a corpus file
//! pins exactly one reproducible database.

use tqo_core::error::Result;
use tqo_core::relation::Relation;
use tqo_core::tuple::Tuple;
use tqo_core::value::Value;
use tqo_storage::{paper, Catalog, WorkloadGenerator};

/// Which database a corpus file runs against (its `fixtures` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// The paper's EMPLOYEE/PROJECT running example (Figure 1).
    Paper,
    /// [`Fixture::Paper`] plus `EMPLOYEE_N` / `PROJECT_N`: the same two
    /// tables with two more tuples each whose `EmpName` is NULL, over
    /// periods that overlap — rows a join on `EmpName` must not pair.
    PaperNulls,
    /// `WorkloadGenerator::new(seed).figure1_workload(scale)` — the same
    /// schema at generated scale, deterministic in the seed.
    Generated { seed: u64, scale: usize },
}

impl Fixture {
    /// Materialize the catalog.
    pub fn catalog(self) -> Result<Catalog> {
        match self {
            Fixture::Paper => Ok(paper::catalog()),
            Fixture::PaperNulls => {
                let catalog = paper::catalog();
                for (name, base, other) in [
                    ("EMPLOYEE_N", paper::employee(), "Sales"),
                    ("PROJECT_N", paper::project(), "P1"),
                ] {
                    let mut tuples = base.tuples().to_vec();
                    for (start, end) in [(1, 9), (4, 12)] {
                        tuples.push(Tuple::new(vec![
                            Value::Null,
                            Value::from(other),
                            Value::Time(start),
                            Value::Time(end),
                        ]));
                    }
                    catalog.register(name, Relation::new(base.schema().clone(), tuples)?)?;
                }
                Ok(catalog)
            }
            Fixture::Generated { seed, scale } => {
                WorkloadGenerator::new(seed).figure1_workload(scale)
            }
        }
    }

    /// Parse a `fixtures` header line body, e.g. `paper` or
    /// `generated seed=7 scale=2`.
    pub fn parse(body: &str) -> std::result::Result<Fixture, String> {
        let mut words = body.split_whitespace();
        match words.next() {
            Some("paper") => Ok(Fixture::Paper),
            Some("paper+nulls") => Ok(Fixture::PaperNulls),
            Some("generated") => {
                let (mut seed, mut scale) = (0u64, 1usize);
                for w in words {
                    if let Some(v) = w.strip_prefix("seed=") {
                        seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
                    } else if let Some(v) = w.strip_prefix("scale=") {
                        scale = v.parse().map_err(|_| format!("bad scale `{v}`"))?;
                    } else {
                        return Err(format!("unknown fixtures option `{w}`"));
                    }
                }
                Ok(Fixture::Generated { seed, scale })
            }
            other => Err(format!("unknown fixtures kind {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_headers() {
        assert_eq!(Fixture::parse("paper"), Ok(Fixture::Paper));
        assert_eq!(Fixture::parse("paper+nulls"), Ok(Fixture::PaperNulls));
        assert_eq!(
            Fixture::parse("generated seed=7 scale=2"),
            Ok(Fixture::Generated { seed: 7, scale: 2 })
        );
        assert!(Fixture::parse("oracle").is_err());
    }

    #[test]
    fn generated_fixture_is_deterministic() {
        let a = Fixture::Generated { seed: 7, scale: 2 }.catalog().unwrap();
        let b = Fixture::Generated { seed: 7, scale: 2 }.catalog().unwrap();
        let ea = a.env();
        let eb = b.env();
        assert_eq!(ea.get("EMPLOYEE").unwrap(), eb.get("EMPLOYEE").unwrap());
        assert_eq!(ea.get("PROJECT").unwrap(), eb.get("PROJECT").unwrap());
    }
}
