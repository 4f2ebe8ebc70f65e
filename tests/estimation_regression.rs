//! Q-error regression guard.
//!
//! Loads the committed `BENCH_exec.json` `estimation` block (the
//! per-operator median q-errors `exec_quick` measured when the snapshot
//! was taken), recomputes the same medians over the same generated
//! workloads at the committed scale, and fails if any operator's median
//! q-error regressed by more than 2× — so costing changes cannot silently
//! rot the estimator. The workload is generator-seeded and q-errors are
//! pure functions of data and estimates, so the recomputation is exactly
//! reproducible.

use std::collections::BTreeMap;

use tqo_exec::{execute_logical, PlannerConfig};

/// Extract `"key": <number>` from a JSON fragment (the writer in
//  `exec_quick` emits one field per line, so line-oriented scanning is
/// exact; no JSON dependency needed).
fn field_f64(fragment: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = fragment.find(&needle)?;
    let rest = &fragment[at + needle.len()..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_str<'a>(fragment: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": \"");
    let at = fragment.find(&needle)?;
    let rest = &fragment[at + needle.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The committed estimation block: workload scale plus per-operator
/// medians (operators with `null` medians are skipped).
fn committed_estimation(json: &str) -> (usize, BTreeMap<String, f64>) {
    let block_start = json
        .find("\"estimation\"")
        .expect("BENCH_exec.json carries an estimation block");
    let block = &json[block_start..];
    let scale = field_f64(block, "workload_scale").expect("workload_scale recorded") as usize;
    let mut medians = BTreeMap::new();
    let mut rest = block;
    while let Some(at) = rest.find("\"label\"") {
        rest = &rest[at..];
        let label = field_str(rest, "label").expect("label string").to_owned();
        if let Some(q) = field_f64(rest, "median_q") {
            medians.insert(label, q);
        }
        rest = &rest[1..];
    }
    (scale, medians)
}

/// Every operator's q-errors over the exact workload `exec_quick` uses
/// (same seed, the given scale), grouped as `exec_quick` groups them: by
/// the operator name without the algorithm/table tag.
fn measured_q_errors(scale: usize) -> BTreeMap<String, Vec<f64>> {
    let (cat, cases) = tqo_bench::estimation_workload(scale, 23);
    let env = cat.env();
    let mut per_label: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for case in &cases {
        let (_, metrics) = execute_logical(&case.plan, &env, PlannerConfig::default())
            .expect("estimation plan executes");
        for op in &metrics.operators {
            if let Some(q) = op.q_error() {
                let label = op.label.split(['[', '(']).next().unwrap_or("?").to_owned();
                per_label.entry(label).or_default().push(q);
            }
        }
    }
    per_label
}

#[test]
fn committed_estimation_medians_do_not_regress() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_exec.json"))
        .expect("committed BENCH_exec.json");
    let (scale, committed) = committed_estimation(&json);
    assert!(
        !committed.is_empty(),
        "estimation block lists per-operator medians"
    );

    let mut per_label = measured_q_errors(scale);
    let mut failures = Vec::new();
    for (label, &committed_q) in &committed {
        let Some(qs) = per_label.get_mut(label) else {
            failures.push(format!(
                "operator `{label}` vanished from the estimation workload \
                 (regenerate BENCH_exec.json if intentional)"
            ));
            continue;
        };
        let current = tqo_exec::metrics::median(qs).expect("samples exist");
        if current > committed_q * 2.0 + 1e-9 {
            failures.push(format!(
                "`{label}` median q-error regressed >2×: committed {committed_q:.3}, \
                 current {current:.3}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "estimation quality regressed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn guard_parses_the_committed_block_shape() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_exec.json"))
        .expect("committed BENCH_exec.json");
    let (scale, medians) = committed_estimation(&json);
    assert!(scale >= 1);
    // The workload exercises at least scans, selections, and dedup.
    for label in ["scan", "select", "rdup"] {
        assert!(medians.contains_key(label), "missing `{label}` median");
    }
    assert!(medians.values().all(|&q| q >= 1.0), "q-errors are ≥ 1");
}

/// `rdupᵀ` estimates one fragment per input tuple, and coalescing reads
/// that estimate: their medians hold the baseline that estimate set
/// (1.099 and 1.730 at the committed scale; 2.198 and 3.459 while `rdupᵀ`
/// estimated twice its input), within a quarter, which the 2× guard above
/// is too loose to see.
#[test]
fn temporal_duplicate_elimination_holds_its_estimation_baseline() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_exec.json"))
        .expect("committed BENCH_exec.json");
    let (scale, committed) = committed_estimation(&json);
    let mut measured = measured_q_errors(scale);
    for (label, baseline) in [("rdup-t", 1.099), ("coalesce", 1.730)] {
        assert_eq!(committed.get(label), Some(&baseline), "committed `{label}`");
        let qs = measured.get_mut(label).expect("sampled");
        let current = tqo_exec::metrics::median(qs).expect("samples exist");
        assert!(
            current <= baseline * 1.25,
            "`{label}` median q-error {current:.3} against a baseline of {baseline}"
        );
    }
}
