//! A direct interpreter for logical plans.
//!
//! Evaluates a plan tree against an environment of named base relations
//! using the reference operation implementations in [`crate::ops`]. This is
//! the *semantic ground truth*: the rule-soundness and enumeration-
//! correctness tests compare every rewritten plan's interpretation against
//! the original's, and the physical engine in `tqo-exec` is validated
//! against the interpreter too.
//!
//! Transfers evaluate to the identity — they move data between sites without
//! changing it (site-dependent ordering effects are a property of *DBMS
//! operator implementations*, which the simulated DBMS in `tqo-stratum`
//! models; the reference interpreter is fully deterministic).

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::ops;
use crate::plan::{LogicalPlan, PlanNode};
use crate::relation::Relation;

/// A set of named base relations.
///
/// Two layers: a map shared by every clone (what a catalog snapshot
/// collects into) and the few bindings this value added since (a query's
/// stage outputs), which shadow the map. Cloning is therefore a handful of
/// reference-count bumps however many tables are bound — the scheduler
/// clones one per task. Each relation carries its own columnar transpose
/// ([`Relation::columnar`]), so an environment holds no cache of its own.
#[derive(Debug, Clone, Default)]
pub struct Env {
    shared: Arc<HashMap<String, Relation>>,
    own: Vec<(Arc<str>, Relation)>,
}

impl FromIterator<(String, Relation)> for Env {
    fn from_iter<I: IntoIterator<Item = (String, Relation)>>(bindings: I) -> Env {
        Env {
            shared: Arc::new(bindings.into_iter().collect()),
            own: Vec::new(),
        }
    }
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Builder-style [`Env::insert`].
    pub fn with(mut self, name: impl Into<String>, relation: Relation) -> Env {
        self.insert(name, relation);
        self
    }

    /// Bind `name` to `relation` in this value only; clones taken earlier
    /// do not see it.
    pub fn insert(&mut self, name: impl Into<String>, relation: Relation) {
        let name: String = name.into();
        match self.own.iter_mut().find(|(n, _)| **n == *name) {
            Some(binding) => binding.1 = relation,
            None => self.own.push((name.into(), relation)),
        }
    }

    /// The relation bound to `name`.
    pub fn get(&self, name: &str) -> Result<&Relation> {
        self.own
            .iter()
            .find(|(n, _)| **n == *name)
            .map(|(_, r)| r)
            .or_else(|| self.shared.get(name))
            .ok_or_else(|| Error::Storage {
                reason: format!("unknown base relation `{name}`"),
            })
    }

    /// All bound names, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .shared
            .keys()
            .map(String::as_str)
            .chain(self.own.iter().map(|(n, _)| &**n))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }
}

/// Evaluate a plan node against an environment.
pub fn eval(node: &PlanNode, env: &Env) -> Result<Relation> {
    match node {
        PlanNode::Scan { name, base } => {
            let r = env.get(name)?;
            if !r.schema().union_compatible(&base.schema) {
                return Err(Error::SchemaMismatch {
                    left: base.schema.to_string(),
                    right: r.schema().to_string(),
                    context: "scan schema vs stored relation",
                });
            }
            Ok(r.clone())
        }
        PlanNode::Select { input, predicate } => ops::select(&eval(input, env)?, predicate),
        PlanNode::Project { input, items } => ops::project(&eval(input, env)?, items),
        PlanNode::UnionAll { left, right } => ops::union_all(&eval(left, env)?, &eval(right, env)?),
        PlanNode::Product { left, right } => ops::product(&eval(left, env)?, &eval(right, env)?),
        PlanNode::Difference { left, right } => {
            ops::difference(&eval(left, env)?, &eval(right, env)?)
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => ops::aggregate(&eval(input, env)?, group_by, aggs),
        PlanNode::Rdup { input } => ops::rdup(&eval(input, env)?),
        PlanNode::UnionMax { left, right } => ops::union_max(&eval(left, env)?, &eval(right, env)?),
        PlanNode::Sort { input, order } => ops::sort(&eval(input, env)?, order),
        PlanNode::Limit {
            input,
            limit,
            offset,
        } => ops::limit(&eval(input, env)?, *limit, *offset),
        PlanNode::ProductT { left, right } => ops::product_t(&eval(left, env)?, &eval(right, env)?),
        PlanNode::DifferenceT { left, right } => {
            ops::difference_t(&eval(left, env)?, &eval(right, env)?)
        }
        PlanNode::AggregateT {
            input,
            group_by,
            aggs,
        } => ops::aggregate_t(&eval(input, env)?, group_by, aggs),
        PlanNode::RdupT { input } => ops::rdup_t(&eval(input, env)?),
        PlanNode::UnionT { left, right } => ops::union_t(&eval(left, env)?, &eval(right, env)?),
        PlanNode::Coalesce { input } => ops::coalesce(&eval(input, env)?),
        PlanNode::TransferS { input } | PlanNode::TransferD { input } => eval(input, env),
    }
}

/// Evaluate a full logical plan.
pub fn eval_plan(plan: &LogicalPlan, env: &Env) -> Result<Relation> {
    eval(&plan.root, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{BaseProps, PlanBuilder};
    use crate::schema::Schema;
    use crate::sortspec::Order;
    use crate::tuple;
    use crate::value::DataType;

    fn emp_schema() -> Schema {
        Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)])
    }

    fn prj_schema() -> Schema {
        Schema::temporal(&[("EmpName", DataType::Str), ("Prj", DataType::Str)])
    }

    /// Figure 1's EMPLOYEE.
    pub(crate) fn employee() -> Relation {
        Relation::new(
            emp_schema(),
            vec![
                tuple!["John", "Sales", 1i64, 8i64],
                tuple!["John", "Advertising", 6i64, 11i64],
                tuple!["Anna", "Sales", 2i64, 6i64],
                tuple!["Anna", "Advertising", 2i64, 6i64],
                tuple!["Anna", "Sales", 6i64, 12i64],
            ],
        )
        .unwrap()
    }

    /// Figure 1's PROJECT.
    pub(crate) fn project_rel() -> Relation {
        Relation::new(
            prj_schema(),
            vec![
                tuple!["John", "P1", 2i64, 3i64],
                tuple!["John", "P2", 5i64, 6i64],
                tuple!["John", "P1", 7i64, 8i64],
                tuple!["John", "P3", 9i64, 10i64],
                tuple!["Anna", "P2", 3i64, 4i64],
                tuple!["Anna", "P2", 5i64, 6i64],
                tuple!["Anna", "P3", 7i64, 8i64],
                tuple!["Anna", "P3", 9i64, 10i64],
            ],
        )
        .unwrap()
    }

    fn env() -> Env {
        Env::new()
            .with("EMPLOYEE", employee())
            .with("PROJECT", project_rel())
    }

    /// The initial plan of Figure 2(a), ignoring transfers.
    fn figure2a() -> LogicalPlan {
        let emp = PlanBuilder::scan("EMPLOYEE", BaseProps::unordered(emp_schema(), 5))
            .project_cols(&["EmpName", "T1", "T2"])
            .rdup_t();
        let prj = PlanBuilder::scan("PROJECT", BaseProps::unordered(prj_schema(), 8))
            .project_cols(&["EmpName", "T1", "T2"]);
        emp.difference_t(prj)
            .rdup_t()
            .coalesce()
            .sort(Order::asc(&["EmpName"]))
            .build_list(Order::asc(&["EmpName"]))
    }

    #[test]
    fn figure1_result_via_figure2a_plan() {
        let got = eval_plan(&figure2a(), &env()).unwrap();
        // The paper's Result relation (Figure 1), sorted on EmpName ASC.
        assert_eq!(
            got.tuples(),
            &[
                tuple!["Anna", 2i64, 3i64],
                tuple!["Anna", 4i64, 5i64],
                tuple!["Anna", 6i64, 7i64],
                tuple!["Anna", 8i64, 9i64],
                tuple!["Anna", 10i64, 12i64],
                tuple!["John", 1i64, 2i64],
                tuple!["John", 3i64, 5i64],
                tuple!["John", 6i64, 7i64],
                tuple!["John", 8i64, 9i64],
                tuple!["John", 10i64, 11i64],
            ]
        );
    }

    #[test]
    fn transfers_are_identity() {
        let p1 =
            PlanBuilder::scan("EMPLOYEE", BaseProps::unordered(emp_schema(), 5)).build_multiset();
        let p2 = PlanBuilder::scan("EMPLOYEE", BaseProps::unordered(emp_schema(), 5))
            .transfer_s()
            .build_multiset();
        let e = env();
        assert_eq!(eval_plan(&p1, &e).unwrap(), eval_plan(&p2, &e).unwrap());
    }

    #[test]
    fn unknown_relation_errors() {
        let p = PlanBuilder::scan("NOPE", BaseProps::unordered(emp_schema(), 5)).build_multiset();
        assert!(eval_plan(&p, &env()).is_err());
    }

    #[test]
    fn scan_schema_mismatch_detected() {
        let p =
            PlanBuilder::scan("EMPLOYEE", BaseProps::unordered(prj_schema(), 5)).build_multiset();
        assert!(eval_plan(&p, &env()).is_err());
    }
}
