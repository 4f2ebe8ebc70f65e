//! Planner snapshots: pinned EXPLAIN renderings of logical and physical
//! plans, so any change to plan shapes, site assignments, cost estimates,
//! or chosen algorithms surfaces as a reviewable file diff.
//!
//! The snapshot directory holds a `MANIFEST` of `name: sql` lines plus
//! one `<name>.snap` per entry containing the query, the cost-annotated
//! logical plan, and the physical plan with estimated rows. `UPDATE_SNAPSHOTS=1` (re)writes every snapshot; a `.snap` with
//! no manifest entry is stale and fails the check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use tqo_core::cost::CostModel;
use tqo_core::plan::display::explain_with_cost;
use tqo_exec::physical::label;
use tqo_exec::{lower, PhysicalPlan, PlannerConfig};
use tqo_storage::Catalog;

/// Render a lowered tree with per-node estimated rows.
pub fn render_physical(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    for (depth, i, node) in plan.pre_order() {
        let facts = &plan.facts()[i];
        let rows = match facts.rows {
            Some(n) => format!("  rows≈{n}"),
            None => String::new(),
        };
        let _ = writeln!(out, "{}{}{rows}", "  ".repeat(depth), label(node, facts));
    }
    out
}

/// Render the full snapshot body for one query.
pub fn render_snapshot(sql: &str, catalog: &Catalog) -> Result<String, String> {
    let plan = tqo_sql::compile(sql, catalog).map_err(|e| format!("compile: {e}"))?;
    let logical =
        explain_with_cost(&plan, &CostModel::default()).map_err(|e| format!("explain: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "query: {sql}");
    let _ = writeln!(out, "\n-- logical plan (site, est rows, est cost) --");
    out.push_str(&logical);
    let physical = lower(&plan, PlannerConfig::default()).map_err(|e| format!("lower: {e}"))?;
    let _ = writeln!(out, "\n-- physical plan --");
    out.push_str(&render_physical(&physical));
    Ok(out)
}

/// Parse the `MANIFEST` (`name: sql`, `#` comments). Order-preserving.
fn parse_manifest(text: &str) -> Result<Vec<(String, String)>, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, sql) = line
            .split_once(':')
            .ok_or_else(|| format!("MANIFEST:{}: expected `name: sql`", i + 1))?;
        let name = name.trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("MANIFEST:{}: bad snapshot name `{name}`", i + 1));
        }
        entries.push((name.to_owned(), sql.trim().to_owned()));
    }
    Ok(entries)
}

/// Check (or with `bless`, rewrite) every snapshot under `dir` against the
/// paper catalog. Returns the list of failures.
pub fn check_snapshots(dir: &Path, bless: bool) -> Result<Vec<String>, String> {
    let manifest_text = std::fs::read_to_string(dir.join("MANIFEST"))
        .map_err(|e| format!("cannot read MANIFEST in {}: {e}", dir.display()))?;
    let entries = parse_manifest(&manifest_text)?;
    let catalog = tqo_storage::paper::catalog();
    let mut failures = Vec::new();

    let mut known: BTreeMap<String, ()> = BTreeMap::new();
    for (name, sql) in &entries {
        known.insert(format!("{name}.snap"), ());
        let path = dir.join(format!("{name}.snap"));
        match render_snapshot(sql, &catalog) {
            Err(e) => failures.push(format!("{name}: {e}")),
            Ok(body) => {
                if bless {
                    if let Err(e) = std::fs::write(&path, &body) {
                        failures.push(format!("{name}: write failed: {e}"));
                    }
                } else {
                    match std::fs::read_to_string(&path) {
                        Err(_) => failures.push(format!(
                            "{name}: snapshot missing (run with UPDATE_SNAPSHOTS=1)"
                        )),
                        Ok(committed) if committed != body => failures.push(format!(
                            "{name}: snapshot is stale (plan changed; review and re-bless \
                             with UPDATE_SNAPSHOTS=1)\n--- committed ---\n{committed}\
                             --- current ---\n{body}"
                        )),
                        Ok(_) => {}
                    }
                }
            }
        }
    }

    // Stale-file check: every .snap must be named by the MANIFEST.
    let listing = std::fs::read_dir(dir).map_err(|e| format!("read_dir: {e}"))?;
    for entry in listing.flatten() {
        let fname = entry.file_name().to_string_lossy().into_owned();
        if fname.ends_with(".snap") && !known.contains_key(&fname) {
            failures.push(format!("{fname}: stale snapshot (no MANIFEST entry)"));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_rendering_pairs_estimates_with_nodes() {
        let catalog = tqo_storage::paper::catalog();
        let plan = tqo_sql::compile(
            "VALIDTIME SELECT EmpName FROM EMPLOYEE COALESCE ORDER BY EmpName",
            &catalog,
        )
        .unwrap();
        let physical = lower(&plan, PlannerConfig::default()).unwrap();
        let text = render_physical(&physical);
        assert!(text.contains("scan"), "{text}");
        // Every line carries the planner's estimate.
        assert_eq!(text.lines().count(), physical.root().size());
        for line in text.lines() {
            assert!(line.contains("rows≈"), "missing estimate on `{line}`");
        }
    }

    #[test]
    fn manifest_rejects_bad_names() {
        assert!(parse_manifest("ok_1: SELECT 1\n# c\n").is_ok());
        assert!(parse_manifest("bad name: SELECT 1\n").is_err());
        assert!(parse_manifest("no-colon\n").is_err());
    }
}
