//! # tqo-core — a list-based conventional + temporal relational algebra
//!
//! Reference implementation of the query-optimization foundation of
//! *Slivinskas, Jensen, Snodgrass: "Query Plans for Conventional and
//! Temporal Queries Involving Duplicates and Ordering"* (ICDE 2000).
//!
//! The crate provides, bottom-up:
//!
//! * [`value`], [`time`], [`schema`], [`mod@tuple`], [`relation`] — the database
//!   structures of §2.3: relations are **lists** of fixed-width tuples;
//!   temporal relations carry closed-open periods in the reserved attributes
//!   `T1`/`T2`.
//! * [`ops`] — the sixteen algebra operations of Table 1, implemented
//!   faithfully to the paper's λ-calculus definitions (order and duplicates
//!   included).
//! * [`equivalence`] — the six equivalence types of §3 with Theorem 3.1's
//!   implication lattice, plus Definition 5.1's `≡SQL` result types.
//! * [`plan`] — logical plans, static property inference (the Table 1
//!   columns), and the `OrderRequired` / `DuplicatesRelevant` /
//!   `PeriodPreserving` context propagation of Table 2.
//! * [`rules`] — the transformation rules of §4 (D1–D6, C1–C10, S1–S3,
//!   conventional and transfer rules), each tagged with the strongest
//!   equivalence type it preserves.
//! * [`enumerate`] — the plan-enumeration algorithm of Figure 5.
//! * [`cost`] and [`optimizer`] — the cost-based selection layer the paper
//!   lists as future work.
//! * [`interp`] — a direct interpreter evaluating logical plans against a
//!   set of named base relations (the semantic ground truth the execution
//!   engine in `tqo-exec` is validated against).
//! * [`columnar`] — column-major relation storage (typed vectors, null
//!   masks, strings in one byte buffer), the data layout of `tqo-exec`'s
//!   vectorized batch engine, and [`exprs`], predicates compiled to run
//!   over it (the batch `select`'s and the stored tables' deletes).
//! * [`trace`] — the observability layer: structured spans with a
//!   per-query ring-buffer collector (Chrome trace-event export) and a
//!   process-wide counter registry, zero-cost when disabled.
//! * [`context`] — per-query resource governance: cooperative
//!   cancellation, deadlines, and byte-accounted memory budgets checked
//!   at engine checkpoints, zero-cost when no query is governed.

#![warn(missing_docs)]

pub mod columnar;
pub mod context;
pub mod cost;
pub mod enumerate;
pub mod equivalence;
pub mod error;
pub mod expr;
pub mod exprs;
pub mod interp;
pub mod memo;
pub mod ops;
pub mod optimizer;
pub mod plan;
pub mod relation;
pub mod rules;
pub mod schema;
pub mod sortspec;
pub mod stats;
pub mod time;
pub mod trace;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use relation::Relation;
pub use schema::{Attribute, Schema};
pub use time::{Instant, Period};
pub use tuple::Tuple;
pub use value::{DataType, Value};
