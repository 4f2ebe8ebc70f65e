//! Shared helpers for the benchmark harness (the benches themselves live
//! in `benches/`, one per experiment of DESIGN.md's index).

use tqo_core::equivalence::ResultType;
use tqo_core::plan::{LogicalPlan, PlanBuilder};
use tqo_core::sortspec::Order;
use tqo_storage::{Catalog, GenConfig, WorkloadGenerator};

/// A scaled Figure 1 workload (EMPLOYEE/PROJECT) with `scale × 10`
/// employees, deterministic in the seed.
pub fn workload(scale: usize, seed: u64) -> Catalog {
    WorkloadGenerator::new(seed)
        .figure1_workload(scale)
        .expect("workload generation is infallible for valid configs")
}

/// The running-example plan (Figure 2(a)) over a catalog, with transfers.
pub fn figure2a_plan(catalog: &Catalog) -> LogicalPlan {
    let emp = PlanBuilder::scan("EMPLOYEE", catalog.base_props("EMPLOYEE").unwrap())
        .project_cols(&["EmpName", "T1", "T2"])
        .transfer_s()
        .rdup_t();
    let prj = PlanBuilder::scan("PROJECT", catalog.base_props("PROJECT").unwrap())
        .project_cols(&["EmpName", "T1", "T2"])
        .transfer_s();
    let root = emp
        .difference_t(prj)
        .rdup_t()
        .coalesce()
        .sort(Order::asc(&["EmpName"]))
        .node();
    LogicalPlan::new(root, ResultType::List(Order::asc(&["EmpName"])))
}

/// A widening chain of `width` temporal-union legs, each scanning through
/// a transfer, capped by dedup/coalesce/sort — the shape whose exhaustive
/// Figure 5 closure grows multiplicatively with `width` (transfer
/// placements × dedup positions × sort positions) while the memo's
/// expression count grows with the sum. The `memo_search` bench widens it
/// until the enumerator's plan budget walls.
pub fn union_chain_plan(width: usize, card: u64) -> LogicalPlan {
    use tqo_core::plan::BaseProps;
    use tqo_core::schema::Schema;
    use tqo_core::value::DataType;
    let scan = |i: usize| {
        PlanBuilder::scan(
            format!("R{i}"),
            BaseProps::unordered(Schema::temporal(&[("E", DataType::Str)]), card),
        )
        .transfer_s()
    };
    let mut chain = scan(0);
    for i in 1..width.max(1) {
        chain = chain.union_t(scan(i));
    }
    chain
        .rdup_t()
        .coalesce()
        .sort(Order::asc(&["E"]))
        .build_list(Order::asc(&["E"]))
}

/// One interpreter-vs-batch execution comparison: a single-operator plan
/// over named base relations (`σ₌(×)` for the hash equi-join), lowered.
/// Shared by `benches/exec_throughput.rs` and the quick-mode `exec_quick`
/// binary (BENCH_exec.json).
pub struct ExecCase {
    pub name: &'static str,
    pub logical: LogicalPlan,
    pub plan: tqo_exec::PhysicalPlan,
    /// Input rows the operator consumes (for rows/sec reporting).
    pub rows: usize,
}

impl ExecCase {
    /// The case's plan as the reference interpreter computes it. `None`
    /// for a plan that lowering gave a hash join: the interpreter runs
    /// `σ₌(×)` over every pair of the product's inputs.
    pub fn interpret(&self, env: &tqo_core::interp::Env) -> Option<tqo_core::Relation> {
        if self.plan.facts().iter().any(|f| f.keys.is_some()) {
            return None;
        }
        Some(tqo_core::interp::eval_plan(&self.logical, env).expect("interpreter runs"))
    }

    /// Post-order index of the operator the case times: the root, or the
    /// product under a `σ₌` root.
    pub fn timed_operator(&self) -> usize {
        let root = self.plan.facts().len() - 1;
        match root.checked_sub(1).map(|below| &self.plan.facts()[below]) {
            Some(product) if product.keys.is_some() => root - 1,
            _ => root,
        }
    }
}

/// The exec-throughput workload: `rows`-scaled base tables plus one case
/// per hot operator. Every case runs on the batch engine and, except the
/// hash equi-join, through the interpreter's operator, against the same
/// environment; a relation's transpose stays resident in its storage, so
/// batch iterations measure the pipeline, not the one-time transpose.
pub fn exec_throughput_workload(rows: usize, seed: u64) -> (tqo_core::interp::Env, Vec<ExecCase>) {
    use tqo_core::expr::{AggFunc, AggItem, BinOp, Expr};
    use tqo_core::interp::Env;
    use tqo_core::plan::BaseProps;
    use tqo_exec::{lower, PlannerConfig};

    let rows = rows.max(64);
    let mut generator = WorkloadGenerator::new(seed);
    let mut env = Env::new();
    // A six-attribute, duplicate-heavy fact table: `rows` samples drawn
    // from a pool of `rows/8` distinct rows. Wide rows are where the
    // interpreter's row-at-a-time hashing/cloning costs scale with arity
    // while the columnar engine's per-column work stays flat.
    env.insert("S", wide_dup_table(rows, (rows / 8).max(4), seed));
    // Sparse temporal tables: short periods, gaps scaled to the table
    // size so temporal density (tuples alive per instant) stays constant
    // — the plane sweep's active sets stay small and join output stays
    // near-linear in the input.
    let sparse = |classes: usize| GenConfig {
        classes: classes.max(2),
        fragments_per_class: 4,
        mean_duration: 3,
        mean_gap: (rows as i64 / 4).max(40),
        ..GenConfig::default()
    };
    env.insert(
        "TL",
        generator.temporal(&sparse(rows / 4)).expect("generation"),
    );
    env.insert(
        "TR",
        generator.temporal(&sparse(rows / 8)).expect("generation"),
    );
    // Overlap-heavy (snapshot duplicates) and adjacency-heavy
    // (coalescible) temporal tables.
    env.insert(
        "TOV",
        generator
            .temporal(&GenConfig {
                classes: (rows / 8).max(2),
                fragments_per_class: 8,
                overlap_prob: 0.5,
                ..GenConfig::default()
            })
            .expect("generation"),
    );
    env.insert(
        "TFRAG",
        generator
            .temporal(&GenConfig {
                classes: (rows / 8).max(2),
                fragments_per_class: 8,
                adjacency_prob: 0.9,
                mean_gap: 3,
                ..GenConfig::default()
            })
            .expect("generation"),
    );

    // EMPLOYEE and PROJECT of a Figure 1 workload of about `rows`
    // employee rows, as a catalog registers them (string columns over
    // sorted dictionaries), from a generator of their own so the tables
    // above keep their draws. The string-keyed cases read them: EMPLOYEE
    // whole, and PROJECT's `(EmpName, Prj)` as a conventional relation.
    let figure1 = WorkloadGenerator::new(seed)
        .figure1_workload((rows / 42).max(1))
        .expect("generation");
    let table = |name: &str| figure1.get(name).expect("registered").relation().clone();
    env.insert("EMPLOYEE", table("EMPLOYEE"));
    let project = table("PROJECT").columnar().expect("columns");
    let keys = ["EmpName", "Prj"].map(|a| project.schema().resolve(a).expect("attribute"));
    env.insert(
        "EP",
        tqo_core::Relation::from_columnar(tqo_core::columnar::ColumnarRelation::new(
            std::sync::Arc::new(tqo_core::schema::Schema::of(&[
                ("EmpName", tqo_core::value::DataType::Str),
                ("Prj", tqo_core::value::DataType::Str),
            ])),
            keys.iter()
                .map(|&k| std::sync::Arc::clone(project.column(k)))
                .collect(),
        )),
    );

    let scan = |name: &str| {
        let rel = env.get(name).expect("registered");
        PlanBuilder::scan(
            name,
            BaseProps::unordered(rel.schema().clone(), rel.len() as u64),
        )
    };
    let len = |name: &str| env.get(name).expect("registered").len();
    let case = |name, plan: PlanBuilder, rows| {
        let logical = plan.build_multiset();
        let plan = lower(&logical, PlannerConfig::default()).expect("case lowers");
        ExecCase {
            name,
            logical,
            plan,
            rows,
        }
    };
    let cases = vec![
        case(
            "select",
            scan("TOV").select(Expr::and(
                Expr::eq(Expr::col("E"), Expr::lit("e7")),
                Expr::bin(BinOp::Ge, Expr::col("T1"), Expr::lit(0i64)),
            )),
            len("TOV"),
        ),
        case("rdup_hash", scan("S").rdup(), len("S")),
        case(
            "aggregate_group",
            scan("S").aggregate(
                vec!["A".into(), "B".into()],
                vec![
                    AggItem::count_star("n"),
                    AggItem::new(AggFunc::Sum, Some("C"), "sum"),
                    AggItem::new(AggFunc::Min, Some("D"), "lo"),
                ],
            ),
            len("S"),
        ),
        case("sort", scan("S").sort(Order::asc(&["A", "B"])), len("S")),
        case(
            "product_t_sweep",
            scan("TL").product_t(scan("TR")),
            len("TL") + len("TR"),
        ),
        case(
            "difference_t",
            scan("TL").difference_t(scan("TR")),
            len("TL") + len("TR"),
        ),
        case(
            "union_t",
            scan("TL").union_t(scan("TR")),
            len("TL") + len("TR"),
        ),
        case("rdup_t_faithful", scan("TOV").rdup_t(), len("TOV")),
        // The hash product under the select it serves: its output is the
        // key-matching sub-list of `×` (about two pairs per input row
        // here), and the select keeps all of it. No engine runs anything
        // quadratic for it, so the case needs no smaller tables than its
        // neighbours.
        case(
            "equi_join",
            scan("TL")
                .product(scan("TR"))
                .select(Expr::eq(Expr::col("1.E"), Expr::col("2.E"))),
            len("TL") + len("TR"),
        ),
        case("coalesce", scan("TFRAG").coalesce(), len("TFRAG")),
        // String keys: a sort on a sorted dictionary's codes, and value
        // classes over two dictionary-coded columns.
        case(
            "sort_str",
            scan("EMPLOYEE").sort(Order::asc(&["EmpName"])),
            len("EMPLOYEE"),
        ),
        case("rdup_str2", scan("EP").rdup(), len("EP")),
        // Grouping by a dictionary-coded column: `ξ` and `ξᵀ` by `Dept`.
        case(
            "aggregate_str",
            scan("EMPLOYEE").aggregate(vec!["Dept".into()], vec![AggItem::count_star("n")]),
            len("EMPLOYEE"),
        ),
        case(
            "aggregate_t_str",
            scan("EMPLOYEE").aggregate_t(vec!["Dept".into()], vec![AggItem::count_star("n")]),
            len("EMPLOYEE"),
        ),
        // `ξᵀ`'s endpoint sweep with an incremental count, integer sum
        // and extreme at once (`E` is TOV's only explicit attribute).
        case(
            "aggregate_t",
            scan("TOV").aggregate_t(
                vec!["E".into()],
                vec![
                    AggItem::count_star("n"),
                    AggItem::new(AggFunc::Sum, Some("T1"), "s"),
                    AggItem::new(AggFunc::Min, Some("T2"), "lo"),
                ],
            ),
            len("TOV"),
        ),
    ];
    (env, cases)
}

/// One estimation-accuracy case: a logical plan over cataloged (and
/// therefore statistics-carrying) tables. Lowering attaches per-node row
/// estimates; executing yields per-operator q-errors.
pub struct EstimationCase {
    pub name: &'static str,
    pub plan: LogicalPlan,
}

/// The estimation workload `exec_quick` tracks in `BENCH_exec.json`:
/// selections (equality and range), joins (conventional and temporal),
/// duplicate elimination, and a dedup/coalesce chain, all over generated
/// tables whose statistics the catalog has measured. `scale` multiplies
/// the employee population.
pub fn estimation_workload(scale: usize, seed: u64) -> (Catalog, Vec<EstimationCase>) {
    use tqo_core::expr::Expr;

    let mut generator = WorkloadGenerator::new(seed);
    let cat = generator
        .figure1_workload(scale.max(1))
        .expect("workload generation");
    cat.register(
        "NUMS",
        generator
            .conventional(500 * scale.max(1), 20 * scale.max(1))
            .expect("generation"),
    )
    .expect("register");
    cat.register(
        "NUMS2",
        generator
            .conventional(300 * scale.max(1), 15 * scale.max(1))
            .expect("generation"),
    )
    .expect("register");

    let scan = |name: &str| PlanBuilder::scan(name, cat.base_props(name).expect("cataloged"));
    let cases = vec![
        EstimationCase {
            name: "select_eq",
            plan: scan("EMPLOYEE")
                .select(Expr::eq(Expr::col("EmpName"), Expr::lit("emp3")))
                .build_multiset(),
        },
        EstimationCase {
            name: "select_range",
            plan: scan("EMPLOYEE")
                .select(Expr::lt(Expr::col("T1"), Expr::lit(40i64)))
                .build_multiset(),
        },
        EstimationCase {
            name: "join_conventional",
            plan: scan("NUMS")
                .product(scan("NUMS2"))
                .select(Expr::eq(Expr::col("1.A"), Expr::col("2.A")))
                .build_multiset(),
        },
        EstimationCase {
            name: "join_temporal",
            plan: scan("EMPLOYEE").product_t(scan("PROJECT")).build_multiset(),
        },
        EstimationCase {
            name: "rdup",
            plan: scan("NUMS").rdup().build_set(),
        },
        EstimationCase {
            name: "dedup_coalesce",
            plan: scan("EMPLOYEE").rdup_t().coalesce().build_multiset(),
        },
    ];
    (cat, cases)
}

/// A six-attribute conventional relation `(A: Int, B: Str, C: Int,
/// D: Float, E: Str, F: Int)` whose `rows` tuples are drawn (with heavy
/// repetition) from a pool of `distinct` unique rows; deterministic in
/// the seed. `F` carries the pool index, so the pool rows are pairwise
/// distinct and `rdup`'s output cardinality is the number of pool rows
/// actually sampled.
pub fn wide_dup_table(rows: usize, distinct: usize, seed: u64) -> tqo_core::Relation {
    use tqo_core::schema::Schema;
    use tqo_core::tuple::Tuple;
    use tqo_core::value::{DataType, Value};
    let schema = Schema::of(&[
        ("A", DataType::Int),
        ("B", DataType::Str),
        ("C", DataType::Int),
        ("D", DataType::Float),
        ("E", DataType::Str),
        ("F", DataType::Int),
    ]);
    let pool: Vec<Tuple> = (0..distinct as i64)
        .map(|j| {
            Tuple::new(vec![
                Value::Int(j % 997),
                Value::from(format!("s{}", j % 331)),
                Value::Int(j.wrapping_mul(7) % 10_000),
                Value::Float(j as f64 * 0.5),
                Value::from(format!("tag{}", j % 89)),
                Value::Int(j),
            ])
        })
        .collect();
    let mut pick = seed | 1;
    let tuples = (0..rows)
        .map(|_| {
            // Weyl-style multiplicative scramble: deterministic, uniform
            // enough for a duplication benchmark.
            pick = pick
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            pool[(pick >> 33) as usize % pool.len()].clone()
        })
        .collect();
    tqo_core::Relation::new(schema, tuples).expect("wide table is valid")
}

/// A generated single-attribute temporal relation.
pub fn temporal_relation(
    classes: usize,
    fragments: usize,
    adjacency: f64,
    overlap: f64,
    seed: u64,
) -> tqo_core::Relation {
    WorkloadGenerator::new(seed)
        .temporal(&GenConfig {
            classes,
            fragments_per_class: fragments,
            adjacency_prob: adjacency,
            overlap_prob: overlap,
            ..GenConfig::default()
        })
        .expect("generation succeeds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_runnable_plans() {
        let cat = workload(1, 1);
        let plan = figure2a_plan(&cat);
        let result = tqo_core::interp::eval_plan(&plan, &cat.env()).unwrap();
        let _ = result;
        let r = temporal_relation(10, 5, 0.5, 0.2, 3);
        assert_eq!(r.len(), 50);
    }
}
