//! The simulated conventional DBMS.
//!
//! Evaluates plan fragments containing only DBMS-supported operations
//! (`σ π ⊔ × \ ξ rdup ∪ sort` over base tables), using the mature
//! optimized operator implementations. Temporal operations are rejected —
//! "the DBMS, which is not altered" (§1), knows nothing about periods
//! beyond ordinary columns.

use std::time::{Duration, Instant};

use tqo_core::error::{Error, Result};
use tqo_core::interp;
use tqo_core::plan::PlanNode;
use tqo_core::relation::Relation;
use tqo_core::trace::counters;
use tqo_storage::Catalog;

/// Statistics of one DBMS fragment execution.
#[derive(Debug, Clone, Default)]
pub struct DbmsStats {
    pub elapsed: Duration,
    pub rows_out: usize,
    /// The SQL the stratum would ship for this fragment (display only).
    pub sql: Option<String>,
    /// Why unparsing the fragment to SQL failed, when it did. An unparse
    /// failure means the simulated link executed a fragment a real SQL
    /// link could not have shipped — surfaced, not silently dropped.
    pub unparse_error: Option<String>,
}

/// A conventional DBMS over a catalog.
#[derive(Debug, Clone)]
pub struct SimulatedDbms {
    catalog: Catalog,
}

impl SimulatedDbms {
    pub fn new(catalog: Catalog) -> SimulatedDbms {
        SimulatedDbms { catalog }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Execute a DBMS fragment. The fragment must consist solely of
    /// DBMS-supported operations.
    pub fn execute(&self, fragment: &PlanNode) -> Result<(Relation, DbmsStats)> {
        let started = Instant::now();
        let result = self.eval(fragment)?;
        let (sql, unparse_error) = match tqo_sql::unparser::to_sql(fragment) {
            Ok(sql) => (Some(sql), None),
            Err(e) => {
                counters::UNPARSE_ERRORS.incr();
                (None, Some(e.to_string()))
            }
        };
        let stats = DbmsStats {
            elapsed: started.elapsed(),
            rows_out: result.len(),
            sql,
            unparse_error,
        };
        Ok((result, stats))
    }

    /// The DBMS knows only conventional operations: reject a fragment
    /// containing anything else, then evaluate it with the reference
    /// operators over the catalog's tables.
    fn eval(&self, fragment: &PlanNode) -> Result<Relation> {
        fn check(node: &PlanNode) -> Result<()> {
            if !node.is_dbms_supported() {
                return Err(Error::Plan {
                    reason: format!(
                        "operation {} reached the DBMS; temporal operations live in the stratum",
                        node.op_name()
                    ),
                });
            }
            node.children().into_iter().try_for_each(|c| check(c))
        }
        check(fragment)?;
        interp::eval(fragment, &self.catalog.env())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqo_core::plan::{BaseProps, PlanBuilder};
    use tqo_core::sortspec::Order;
    use tqo_storage::paper;

    fn scan(cat: &Catalog, name: &str) -> PlanBuilder {
        PlanBuilder::scan(name, cat.base_props(name).unwrap())
    }

    #[test]
    fn executes_conventional_fragments() {
        let cat = paper::catalog();
        let dbms = SimulatedDbms::new(cat.clone());
        let fragment = scan(&cat, "EMPLOYEE")
            .project_cols(&["EmpName", "T1", "T2"])
            .sort(Order::asc(&["EmpName"]))
            .node();
        let (result, stats) = dbms.execute(&fragment).unwrap();
        assert_eq!(result.len(), 5);
        assert_eq!(stats.rows_out, 5);
        assert!(stats
            .sql
            .as_deref()
            .unwrap()
            .contains("ORDER BY EmpName ASC"));
    }

    #[test]
    fn rejects_temporal_operations() {
        let cat = paper::catalog();
        let dbms = SimulatedDbms::new(cat.clone());
        let fragment = scan(&cat, "EMPLOYEE").rdup_t().node();
        assert!(dbms.execute(&fragment).is_err());
        let fragment2 = scan(&cat, "EMPLOYEE").coalesce().node();
        assert!(dbms.execute(&fragment2).is_err());
    }

    #[test]
    fn base_props_ignored_scan_reads_catalog() {
        // A scan carrying stale base props still reads current data.
        let cat = paper::catalog();
        let dbms = SimulatedDbms::new(cat.clone());
        let mut props = BaseProps::unordered(paper::employee_schema(), 999);
        props.card = 999; // wrong estimate, execution unaffected
        let fragment = PlanNode::Scan {
            name: "EMPLOYEE".into(),
            base: props,
        };
        let (result, _) = dbms.execute(&fragment).unwrap();
        assert_eq!(result.len(), 5);
    }
}
