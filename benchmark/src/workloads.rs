//! The four workloads: tables, templates, load shape, and the oracle.
//!
//! Names are fixed — later issues cite them. Table sizes are the
//! EMPLOYEE/PROJECT rows `WorkloadGenerator::figure1_workload(scale)`
//! produces (about 42 and 47 rows per unit of scale). `BENCHMARK.json`
//! and `README.md` repeat the constants chosen here.

use tqo_core::equivalence::ResultType;
use tqo_core::error::Result;
use tqo_core::interp;
use tqo_storage::{Catalog, WorkloadGenerator};

use crate::digest::{digest, Digest};

/// One SQL statement of a workload's mix.
#[derive(Debug)]
pub struct Template {
    /// Short label used in outputs and traces.
    pub name: &'static str,
    /// The statement, in the served dialect.
    pub sql: &'static str,
}

/// What one timed operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// One request (or, on `churn_mix`, one insert+delete pair).
    Request,
    /// One pass over every template in order: the per-request median of
    /// a mix of 5 ms and 40 ms statements is bimodal and does not repeat.
    Pass,
}

/// A workload definition.
#[derive(Debug)]
pub struct Workload {
    /// Fixed name.
    pub name: &'static str,
    /// Why it exists, one line (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Closed-loop connections wanted; capped at the host's cores.
    pub clients: usize,
    /// `(table-name suffix, scale)` per generated EMPLOYEE/PROJECT pair.
    pub tables: &'static [(&'static str, usize)],
    /// Read templates, issued round-robin (or in order, per pass).
    pub templates: &'static [Template],
    /// What one operation is.
    pub unit: Unit,
    /// Every second operation is a sequenced insert+delete pair on
    /// `EMPLOYEE` under a per-client scratch key.
    pub churn: bool,
    /// Rounds over the mix each client runs during set-up, so caches are
    /// filled and lazy statistics computed before the first window. A
    /// fixed amount of work, not of time: `setup_s` then measures it.
    pub warmup_rounds: usize,
}

/// Table the churn pairs mutate and the churn reads query.
pub const CHURN_TABLE: &str = "EMPLOYEE";
/// `Dept` of every scratch row; no read template selects it.
pub const SCRATCH_DEPT: &str = "scratch";

/// `EmpName` of client `c`'s scratch row.
pub fn scratch_key(client: usize) -> String {
    format!("scratch{client}")
}

const SHORT_READ: Workload = Workload {
    name: "short_read",
    why: "2 clients, ~1k-row tables, 7 selective reads: front-end, snapshot, scheduler and socket are the cost, kernels almost none",
    clients: 2,
    tables: &[("", 25)],
    templates: &[
        Template {
            name: "point_where",
            sql: "SELECT EmpName, Dept FROM EMPLOYEE WHERE EmpName = 'emp17'",
        },
        Template {
            name: "distinct_dept",
            sql: "SELECT DISTINCT Dept FROM EMPLOYEE",
        },
        Template {
            name: "group_by_dept",
            sql: "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
        },
        Template {
            name: "validtime_where",
            sql: "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'd3'",
        },
        Template {
            name: "validtime_period_where",
            sql: "VALIDTIME SELECT EmpName, Dept FROM EMPLOYEE WHERE T1 >= 20 AND Dept = 'd1'",
        },
        Template {
            name: "coalesce_order",
            sql: "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'd5' COALESCE ORDER BY EmpName",
        },
        Template {
            name: "project_group_by",
            sql: "SELECT Prj, COUNT(*) AS n FROM PROJECT GROUP BY Prj",
        },
    ],
    unit: Unit::Request,
    churn: false,
    warmup_rounds: 150,
};

const CHURN_MIX: Workload = Workload {
    name: "churn_mix",
    why: "2 clients, ~4k-row tables, every second operation a sequenced insert+delete pair: every cache is invalidated continuously",
    clients: 2,
    tables: &[("", 100)],
    // None of these can see a scratch row: each filters on a generated
    // name or department, and scratch rows carry neither.
    templates: &[
        Template {
            name: "point_where",
            sql: "SELECT EmpName, Dept FROM EMPLOYEE WHERE EmpName = 'emp42'",
        },
        Template {
            name: "coalesce_order",
            sql: "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept = 'd7' COALESCE ORDER BY EmpName",
        },
        Template {
            name: "filtered_count",
            sql: "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE WHERE Dept = 'd2' GROUP BY Dept",
        },
    ],
    unit: Unit::Request,
    churn: true,
    warmup_rounds: 10,
};

const SCAN_HEAVY: Workload = Workload {
    name: "scan_heavy",
    why: "1 client, ~21k-row tables, a pass of 6 linear-ish statements up to a 21k-row result: kernels, materialization and wire encoding are the cost",
    clients: 1,
    tables: &[("", 500)],
    templates: &[
        Template {
            name: "selective_filter",
            sql: "SELECT EmpName, Dept FROM EMPLOYEE WHERE Dept = 'd11'",
        },
        Template {
            name: "group_by_dept",
            sql: "SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
        },
        Template {
            name: "full_order_by",
            sql: "SELECT EmpName, Dept FROM EMPLOYEE ORDER BY EmpName",
        },
        Template {
            // A fifth of the departments: the interpreter's coalescing is
            // quadratic, and the oracle has to finish inside the run.
            name: "validtime_coalesce_order",
            sql: "VALIDTIME SELECT EmpName FROM EMPLOYEE WHERE Dept < 'd2' COALESCE ORDER BY EmpName",
        },
        Template {
            name: "validtime_group_by",
            sql: "VALIDTIME SELECT Dept, COUNT(*) AS n FROM EMPLOYEE GROUP BY Dept",
        },
        Template {
            name: "distinct_project",
            sql: "SELECT DISTINCT EmpName, Prj FROM PROJECT",
        },
    ],
    unit: Unit::Pass,
    churn: false,
    warmup_rounds: 2,
};

const PLAN_SENSITIVE: Workload = Workload {
    name: "plan_sensitive",
    why: "1 client, a pass of 4 statements whose cost is set by the plan and algorithm chosen: the paper's running example, rdupT, and two equi-joins",
    clients: 1,
    // The joins run as filter-over-product today, so they get the small
    // pair; the other two statements get the larger one.
    tables: &[("_S", 6), ("", 50)],
    templates: &[
        Template {
            name: "running_example",
            sql: "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE EXCEPT \
                  VALIDTIME SELECT DISTINCT EmpName FROM PROJECT COALESCE ORDER BY EmpName",
        },
        Template {
            name: "rdup_t",
            sql: "VALIDTIME SELECT DISTINCT EmpName FROM EMPLOYEE",
        },
        Template {
            name: "equi_join_filtered",
            sql: "SELECT e.EmpName, p.Prj FROM EMPLOYEE_S e, PROJECT_S p \
                  WHERE e.EmpName = p.EmpName AND e.Dept = 'd1'",
        },
        Template {
            name: "temporal_equi_join",
            sql: "VALIDTIME SELECT e.EmpName, p.Prj FROM EMPLOYEE_S e, PROJECT_S p \
                  WHERE e.EmpName = p.EmpName",
        },
    ],
    unit: Unit::Pass,
    churn: false,
    warmup_rounds: 2,
};

/// Every workload, in reporting order.
pub const ALL: [&Workload; 4] = [&SHORT_READ, &CHURN_MIX, &SCAN_HEAVY, &PLAN_SENSITIVE];

/// Look a workload up by its fixed name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Connections actually opened: never more than the host's cores, so
    /// the numbers measure the program, not the scheduler of a shared box.
    pub fn client_count(&self, nproc: usize) -> usize {
        self.clients.min(nproc.max(1))
    }

    /// Generate this workload's catalog. The program under test sees
    /// only this; the seed goes no further.
    pub fn catalog(&self, seed: u64) -> Result<Catalog> {
        let mut generator = WorkloadGenerator::new(seed);
        let catalog = Catalog::new();
        for (suffix, scale) in self.tables {
            let pair = generator.figure1_workload(*scale)?;
            for base in ["EMPLOYEE", "PROJECT"] {
                let relation = pair.get(base)?.relation().clone();
                catalog.register(format!("{base}{suffix}"), relation)?;
            }
        }
        Ok(catalog)
    }

    /// Each template's declared result type (Definition 5.1), which fixes
    /// how its responses are digested.
    pub fn result_types(&self, catalog: &Catalog) -> Result<Vec<ResultType>> {
        self.templates
            .iter()
            .map(|t| Ok(tqo_sql::compile(t.sql, catalog)?.result_type))
            .collect()
    }

    /// Ground truth: each template evaluated by the reference interpreter
    /// (ARCHITECTURE invariant 2) on a catalog generated afresh from the
    /// seed, digested under the template's result type.
    pub fn oracle(&self, seed: u64) -> Result<Vec<Digest>> {
        let catalog = self.catalog(seed)?;
        let env = catalog.env();
        self.templates
            .iter()
            .map(|t| {
                let plan = tqo_sql::compile(t.sql, &catalog)?;
                let reference = interp::eval_plan(&plan, &env)?;
                digest(&reference, &plan.result_type)
            })
            .collect()
    }
}

/// `(table, rows)` for every table of `catalog`, sorted by name.
pub fn table_rows(catalog: &Catalog) -> Result<Vec<(String, usize)>> {
    catalog
        .names()
        .into_iter()
        .map(|n| {
            let rows = catalog.get(&n)?.len();
            Ok((n, rows))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_fixed_and_unique() {
        let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["short_read", "churn_mix", "scan_heavy", "plan_sensitive"]
        );
        assert!(by_name("scan_heavy").is_some());
        assert!(by_name("nope").is_none());
        for w in ALL {
            assert!(w.why.len() <= 200, "{} why too long", w.name);
        }
    }

    #[test]
    fn clients_are_capped_at_the_cores() {
        assert_eq!(SHORT_READ.client_count(1), 1);
        assert_eq!(SHORT_READ.client_count(2), 2);
        assert_eq!(SHORT_READ.client_count(64), 2);
        assert_eq!(SCAN_HEAVY.client_count(0), 1);
    }

    #[test]
    fn catalogs_repeat_per_seed_and_templates_compile() {
        for w in [&SHORT_READ, &PLAN_SENSITIVE] {
            let a = w.catalog(11).unwrap();
            let b = w.catalog(11).unwrap();
            let c = w.catalog(12).unwrap();
            assert_eq!(table_rows(&a).unwrap(), table_rows(&b).unwrap());
            for name in a.names() {
                assert_eq!(
                    a.get(&name).unwrap().relation(),
                    b.get(&name).unwrap().relation()
                );
            }
            assert_ne!(
                a.get("EMPLOYEE").unwrap().relation(),
                c.get("EMPLOYEE").unwrap().relation()
            );
            assert_eq!(w.result_types(&a).unwrap().len(), w.templates.len());
        }
        assert_eq!(
            PLAN_SENSITIVE.catalog(3).unwrap().names(),
            ["EMPLOYEE", "EMPLOYEE_S", "PROJECT", "PROJECT_S"]
        );
    }

    #[test]
    fn oracle_is_deterministic_and_non_empty() {
        let a = SHORT_READ.oracle(7).unwrap();
        let b = SHORT_READ.oracle(7).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|d| d.rows > 0));
    }
}
