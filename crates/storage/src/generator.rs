//! Seeded synthetic workload generators.
//!
//! The paper's evaluation is the EMPLOYEE/PROJECT scenario of Figure 1;
//! these generators reproduce its *shape* at arbitrary scale with three
//! independently tunable knobs, each exercising a distinct optimizer
//! concern:
//!
//! * `adjacency_prob` — consecutive periods of a value-equivalence class
//!   meet exactly, creating coalescing potential (`coalᵀ` work);
//! * `overlap_prob` — consecutive periods overlap, creating snapshot
//!   duplicates (`rdupᵀ` work and the D2/C10 preconditions);
//! * `duplicate_prob` — exact duplicate tuples (regular `rdup` work).
//!
//! All generation is deterministic in the seed.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tqo_core::columnar::{Column, ColumnarRelation};
use tqo_core::error::Result;
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::time::Instant;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};

use crate::catalog::Catalog;

/// Configuration of one generated temporal relation.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Number of value-equivalence classes (e.g. employees).
    pub classes: usize,
    /// Periods ("fragments") per class.
    pub fragments_per_class: usize,
    /// Start of the covered time range.
    pub time_origin: Instant,
    /// Mean period duration (durations are uniform in `1..=2·mean`).
    pub mean_duration: i64,
    /// Mean gap between consecutive periods of one class.
    pub mean_gap: i64,
    /// Probability that a period starts exactly where the previous one
    /// ended (adjacent — coalescible).
    pub adjacency_prob: f64,
    /// Probability that a period starts before the previous one ended
    /// (overlapping — snapshot duplicates).
    pub overlap_prob: f64,
    /// Probability of emitting an exact duplicate of a generated tuple.
    pub duplicate_prob: f64,
    /// Shuffle the output list (base tables are unordered).
    pub shuffle: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            classes: 100,
            fragments_per_class: 10,
            time_origin: 0,
            mean_duration: 10,
            mean_gap: 5,
            adjacency_prob: 0.3,
            overlap_prob: 0.0,
            duplicate_prob: 0.0,
            shuffle: true,
        }
    }
}

impl GenConfig {
    /// Expected output cardinality (ignoring duplicates).
    pub fn base_rows(&self) -> usize {
        self.classes * self.fragments_per_class
    }

    /// A configuration whose output is fully clean: no adjacency, no
    /// overlap, no duplicates — already coalesced and snapshot-dup-free.
    pub fn clean(classes: usize, fragments_per_class: usize) -> GenConfig {
        GenConfig {
            classes,
            fragments_per_class,
            adjacency_prob: 0.0,
            overlap_prob: 0.0,
            duplicate_prob: 0.0,
            ..GenConfig::default()
        }
    }

    /// A heavily fragmented configuration (high coalescing potential).
    pub fn fragmented(classes: usize, fragments_per_class: usize) -> GenConfig {
        GenConfig {
            classes,
            fragments_per_class,
            adjacency_prob: 0.9,
            mean_gap: 3,
            ..GenConfig::default()
        }
    }
}

/// A seeded generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: StdRng,
}

impl WorkloadGenerator {
    pub fn new(seed: u64) -> WorkloadGenerator {
        WorkloadGenerator {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generate the period list for one class.
    fn class_periods(&mut self, cfg: &GenConfig) -> Vec<(Instant, Instant)> {
        let mut out = Vec::with_capacity(cfg.fragments_per_class);
        let mut cursor = cfg.time_origin + self.rng.gen_range(0..=cfg.mean_gap.max(1));
        for _ in 0..cfg.fragments_per_class {
            let duration = self.rng.gen_range(1..=(2 * cfg.mean_duration).max(1));
            let roll: f64 = self.rng.gen();
            let start = if roll < cfg.adjacency_prob && !out.is_empty() {
                cursor // adjacent: starts exactly at the previous end
            } else if roll < cfg.adjacency_prob + cfg.overlap_prob && !out.is_empty() {
                // overlapping: start strictly inside the previous period
                let (ps, pe) = *out.last().expect("nonempty");
                self.rng.gen_range(ps..pe)
            } else {
                cursor + self.rng.gen_range(1..=(2 * cfg.mean_gap).max(1))
            };
            let end = start + duration;
            out.push((start, end));
            cursor = cursor.max(end);
        }
        out
    }

    /// A generic single-attribute temporal relation `(E, T1, T2)` with
    /// class values `e0, e1, …`.
    pub fn temporal(&mut self, cfg: &GenConfig) -> Result<Relation> {
        let schema = Schema::temporal(&[("E", DataType::Str)]);
        let names: Vec<String> = (0..cfg.classes).map(|i| format!("e{i}")).collect();
        self.temporal_with_values(cfg, schema, |i| vec![Value::Str(names[i].clone().into())])
    }

    /// An EMPLOYEE-shaped relation `(EmpName, Dept, T1, T2)`.
    pub fn employees(&mut self, cfg: &GenConfig, depts: usize) -> Result<Relation> {
        let schema = Schema::temporal(&[("EmpName", DataType::Str), ("Dept", DataType::Str)]);
        let mut dept_of = Vec::with_capacity(cfg.classes);
        for _ in 0..cfg.classes {
            dept_of.push(format!("d{}", self.rng.gen_range(0..depts.max(1))));
        }
        self.temporal_with_values(cfg, schema, |i| {
            vec![
                Value::Str(format!("emp{i}").into()),
                Value::Str(dept_of[i].clone().into()),
            ]
        })
    }

    /// A PROJECT-shaped relation `(EmpName, Prj, T1, T2)` over the same
    /// employee population (`emp0 …`), covering `participation` of them.
    pub fn projects(
        &mut self,
        cfg: &GenConfig,
        employees: usize,
        projects: usize,
        participation: f64,
    ) -> Result<Relation> {
        let schema = Schema::temporal(&[("EmpName", DataType::Str), ("Prj", DataType::Str)]);
        let mut participants = Vec::new();
        for i in 0..employees {
            if self.rng.gen::<f64>() < participation {
                participants.push(i);
            }
        }
        if participants.is_empty() && employees > 0 {
            participants.push(0);
        }
        let cfg = GenConfig {
            classes: participants.len(),
            ..cfg.clone()
        };
        let mut prj_of = Vec::with_capacity(participants.len());
        for _ in 0..participants.len() {
            prj_of.push(format!("P{}", self.rng.gen_range(0..projects.max(1))));
        }
        self.temporal_with_values(&cfg, schema, |i| {
            vec![
                Value::Str(format!("emp{}", participants[i]).into()),
                Value::Str(prj_of[i].clone().into()),
            ]
        })
    }

    /// Shared generation core: per class, generate periods and attach the
    /// class's explicit values. The relation is born in columns: each row's
    /// values are pushed onto them and the shuffle is one gather, with the
    /// rng draws (and so the list) of building and shuffling tuples.
    fn temporal_with_values(
        &mut self,
        cfg: &GenConfig,
        schema: Schema,
        mut values_of: impl FnMut(usize) -> Vec<Value>,
    ) -> Result<Relation> {
        let mut columns: Vec<Column> = schema
            .attrs()
            .iter()
            .map(|a| Column::with_capacity(a.dtype, cfg.base_rows()))
            .collect();
        let explicit_idx = schema.value_indices();
        let [t1, t2] = [schema.t1_index(), schema.t2_index()].map(|i| i.expect("temporal"));
        for class in 0..cfg.classes {
            let explicit = values_of(class);
            for (start, end) in self.class_periods(cfg) {
                let duplicated = self.rng.gen::<f64>() < cfg.duplicate_prob;
                for _ in 0..1 + usize::from(duplicated) {
                    for (&i, v) in explicit_idx.iter().zip(&explicit) {
                        columns[i].push(v)?;
                    }
                    columns[t1].push_time(start);
                    columns[t2].push_time(end);
                }
            }
        }
        let rows = columns.first().map_or(0, Column::len);
        let mut order: Vec<u32> = (0..rows as u32).collect();
        if cfg.shuffle {
            // Fisher–Yates with the generator's rng (deterministic in seed).
            for i in (1..rows).rev() {
                let j = self.rng.gen_range(0..=i);
                order.swap(i, j);
            }
        }
        let columns = columns.iter().map(|c| Arc::new(c.gather(&order))).collect();
        let columnar = ColumnarRelation::new(Arc::new(schema), columns);
        Ok(Relation::from_columnar(columnar))
    }

    /// A conventional relation `(A: Int, B: Str)` with controlled
    /// duplication: `rows` tuples over `distinct_a` values of `A`.
    pub fn conventional(&mut self, rows: usize, distinct_a: usize) -> Result<Relation> {
        let schema = Schema::of(&[("A", DataType::Int), ("B", DataType::Str)]);
        let mut tuples = Vec::with_capacity(rows);
        for _ in 0..rows {
            let a = self.rng.gen_range(0..distinct_a.max(1)) as i64;
            let b = format!("s{}", self.rng.gen_range(0..distinct_a.max(1)));
            tuples.push(Tuple::new(vec![Value::Int(a), Value::Str(b.into())]));
        }
        Relation::new(schema, tuples)
    }

    /// A scaled Figure 1 workload: EMPLOYEE and PROJECT registered in a
    /// fresh catalog. `scale` multiplies the number of employees.
    pub fn figure1_workload(&mut self, scale: usize) -> Result<Catalog> {
        let employees = 10 * scale.max(1);
        let emp_cfg = GenConfig {
            classes: employees,
            fragments_per_class: 4,
            adjacency_prob: 0.25,
            overlap_prob: 0.25,
            duplicate_prob: 0.05,
            ..GenConfig::default()
        };
        let prj_cfg = GenConfig {
            classes: employees, // overwritten by participation
            fragments_per_class: 6,
            adjacency_prob: 0.1,
            overlap_prob: 0.1,
            mean_duration: 4,
            ..GenConfig::default()
        };
        let cat = Catalog::new();
        cat.register("EMPLOYEE", self.employees(&emp_cfg, 1 + employees / 10)?)?;
        cat.register(
            "PROJECT",
            self.projects(&prj_cfg, employees, 3 + employees / 5, 0.8)?,
        )?;
        Ok(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        let cfg = GenConfig::default();
        let a = WorkloadGenerator::new(42).temporal(&cfg).unwrap();
        let b = WorkloadGenerator::new(42).temporal(&cfg).unwrap();
        let c = WorkloadGenerator::new(43).temporal(&cfg).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn clean_config_produces_clean_data() {
        let cfg = GenConfig::clean(20, 5);
        let r = WorkloadGenerator::new(7).temporal(&cfg).unwrap();
        assert_eq!(r.len(), 100);
        assert!(!r.has_duplicates());
        assert!(!r.has_snapshot_duplicates().unwrap());
        assert!(r.is_coalesced().unwrap());
    }

    #[test]
    fn overlap_knob_creates_snapshot_duplicates() {
        let cfg = GenConfig {
            classes: 20,
            fragments_per_class: 10,
            adjacency_prob: 0.0,
            overlap_prob: 0.8,
            ..GenConfig::default()
        };
        let r = WorkloadGenerator::new(7).temporal(&cfg).unwrap();
        assert!(r.has_snapshot_duplicates().unwrap());
    }

    #[test]
    fn adjacency_knob_creates_coalescing_potential() {
        let cfg = GenConfig::fragmented(20, 10);
        let r = WorkloadGenerator::new(7).temporal(&cfg).unwrap();
        assert!(!r.is_coalesced().unwrap());
        // Coalescing should shrink it substantially.
        let coalesced = tqo_core::ops::coalesce(&r).unwrap();
        assert!(coalesced.len() < r.len());
    }

    #[test]
    fn duplicate_knob_creates_duplicates() {
        let cfg = GenConfig {
            duplicate_prob: 0.5,
            ..GenConfig::clean(20, 5)
        };
        let r = WorkloadGenerator::new(7).temporal(&cfg).unwrap();
        assert!(r.has_duplicates());
        assert!(r.len() > 100);
    }

    #[test]
    fn employees_and_projects_share_population() {
        let mut g = WorkloadGenerator::new(1);
        let cfg = GenConfig::clean(30, 3);
        let emp = g.employees(&cfg, 5).unwrap();
        let prj = g.projects(&cfg, 30, 6, 0.5).unwrap();
        assert!(emp.len() == 90);
        assert!(!prj.is_empty());
        // Every project participant is an employee name emp0..emp29.
        let idx = prj.schema().resolve("EmpName").unwrap();
        for t in prj.tuples() {
            let name = t.value(idx).as_str().unwrap();
            assert!(name.starts_with("emp"));
            let n: usize = name[3..].parse().unwrap();
            assert!(n < 30);
        }
    }

    #[test]
    fn figure1_workload_registers_both_tables() {
        let cat = WorkloadGenerator::new(5).figure1_workload(2).unwrap();
        assert!(cat.contains("EMPLOYEE"));
        assert!(cat.contains("PROJECT"));
        assert!(cat.get("EMPLOYEE").unwrap().len() >= 80);
    }

    #[test]
    fn conventional_relation_shape() {
        let r = WorkloadGenerator::new(3).conventional(500, 10).unwrap();
        assert_eq!(r.len(), 500);
        assert!(r.has_duplicates() || r.len() <= 100); // 500 rows over ≤100 combos
    }
}
