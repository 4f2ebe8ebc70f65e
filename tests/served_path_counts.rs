//! The served path reads base tables only in the columns they are born
//! with: from registration (`benchmark_catalog`), through a server
//! planning and answering every benchmark template once, a churn
//! insert+delete pair and a pass after it, no tuple list is built and
//! nothing is transposed. Every grouping on that path numbers its rows
//! from dictionary codes: none falls back to hashing. Counts, not
//! timings, so the check repeats exactly.
//!
//! One `#[test]` in a file of its own, so nothing else in the process
//! moves the process-wide counters between two readings.

mod common;

use common::{benchmark_catalog, same_answer, BENCHMARK_TEMPLATES};
use tqo_core::interp::eval_plan;
use tqo_core::time::Period;
use tqo_core::trace::counters::{GROUPINGS_HASHED, TRANSPOSES_BUILT, TUPLES_BUILT};
use tqo_core::value::Value;
use tqo_serve::{serve, Client, ServerConfig};

const SEED: u64 = 7;

#[test]
fn the_served_path_builds_no_tuple_list_and_transposes_nothing() {
    let mut workloads: Vec<&str> = BENCHMARK_TEMPLATES.iter().map(|t| t.0).collect();
    workloads.dedup();
    // The interpreter's answers, first and over catalogs of their own:
    // the interpreter reads tuples.
    let expected: Vec<_> = workloads
        .iter()
        .flat_map(|&workload| {
            let catalog = benchmark_catalog(workload, SEED);
            let env = catalog.env();
            BENCHMARK_TEMPLATES
                .iter()
                .filter(move |t| t.0 == workload)
                .map(move |&(_, name, sql)| {
                    let plan = tqo_sql::compile(sql, &catalog).unwrap();
                    let rows = eval_plan(&plan, &env).unwrap();
                    ((workload, name), plan.result_type, rows)
                })
        })
        .collect();

    let (tuples, transposes, hashed) = (
        TUPLES_BUILT.get(),
        TRANSPOSES_BUILT.get(),
        GROUPINGS_HASHED.get(),
    );
    let mut answers = Vec::new();
    for &workload in &workloads {
        let catalog = benchmark_catalog(workload, SEED);
        let mut server = serve(catalog, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let pass = |client: &mut Client| -> Vec<_> {
            BENCHMARK_TEMPLATES
                .iter()
                .filter(|t| t.0 == workload)
                .map(|&(_, name, sql)| ((workload, name), client.query(sql).unwrap()))
                .collect()
        };
        answers.extend(pass(&mut client));
        if workload == "churn_mix" {
            // The benchmark's write: a scratch row in and out again, which
            // leaves the list as it was, so the pass after it answers as
            // the first did. The first write of a table opens its
            // modification ledger.
            let period = Period::of(3, 9);
            client
                .insert(
                    "EMPLOYEE",
                    vec![Value::from("scratch0"), Value::from("scratch")],
                    period,
                )
                .unwrap();
            client
                .delete("EMPLOYEE", "EmpName", Value::from("scratch0"), period)
                .unwrap();
            answers.extend(pass(&mut client));
        }
        server.stop();
    }
    assert_eq!(TUPLES_BUILT.get() - tuples, 0, "tuple lists built");
    assert_eq!(TRANSPOSES_BUILT.get() - transposes, 0, "transposes built");
    assert_eq!(
        GROUPINGS_HASHED.get() - hashed,
        0,
        "groupings keyed by hashes"
    );

    // Checked only now: comparing builds the answers' tuple lists.
    let mut checked = 0;
    for (key, got) in &answers {
        let (_, result_type, reference) = expected
            .iter()
            .find(|e| e.0 == *key)
            .expect("every answered template has a reference");
        assert!(
            same_answer(result_type, reference, got),
            "{key:?}: {} rows for the interpreter's {}",
            got.len(),
            reference.len()
        );
        checked += 1;
    }
    let churn_templates = BENCHMARK_TEMPLATES
        .iter()
        .filter(|t| t.0 == "churn_mix")
        .count();
    assert_eq!(checked, BENCHMARK_TEMPLATES.len() + churn_templates);
}
