//! # tqo-storage — catalog, tables, statistics, workload generators
//!
//! The storage substrate under the optimizer and execution engine:
//!
//! * [`catalog`] — a thread-safe catalog mapping names to the current
//!   *version* of each table; `Catalog::snapshot` pins them for a query.
//! * [`table`] — one immutable version of a stored relation: tuples,
//!   transpose, Table 2's base properties
//!   ([`tqo_core::plan::BaseProps`]) and statistics
//!   ([`tqo_core::stats::TableSummary`]), all describing exactly those
//!   tuples.
//! * [`mutation`] — sequenced insert/delete/update, each deriving the next
//!   version from the tuples that moved (the private `ledger` keeps the
//!   aggregates properties and statistics are functions of).
//! * [`generator`] — seeded synthetic data generators reproducing the shape
//!   of the paper's EMPLOYEE/PROJECT workload at any scale, with tunable
//!   fragmentation (coalescing potential), overlap (snapshot duplicates),
//!   and duplication knobs.
//! * [`paper`] — the exact relations of the paper's Figure 1, used by the
//!   figure-reproduction tests and the quickstart examples.

pub mod catalog;
pub mod generator;
mod ledger;
pub mod mutation;
pub mod paper;
pub mod table;

pub use catalog::{Catalog, StatisticsProvider};
pub use generator::{GenConfig, WorkloadGenerator};
pub use table::Table;
