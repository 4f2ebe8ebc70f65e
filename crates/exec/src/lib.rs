//! # tqo-exec — physical execution engine
//!
//! Lowers logical plans ([`tqo_core::plan::LogicalPlan`]) and executes
//! them. Every operator has one algorithm, shared by the interpreter
//! (`tqo_core::ops`) and the batch engine, and its output is the exact
//! list the paper's definition prescribes — so no algorithm needs a
//! Table 2 license, every lowered plan computes the interpreter's list,
//! and the logical tree itself is what the engine runs. The temporal
//! operators:
//!
//! | logical op | algorithm | cost |
//! |------------|-----------|------|
//! | `rdupᵀ` | per-class claims in list order (the recursion's list) | `O(n log n)` |
//! | `coalᵀ` | per-(class, instant) chains walked in list order (the fixpoint's list) | `O(n)` after numbering (class, instant) pairs |
//! | `×ᵀ` | endpoint plane sweep, pairs sorted into the nested loop's order | `O((n + m) log(n + m))` + sorted output |
//! | `\ᵀ` | per-class count timelines | `O(n log n)` |
//! | `ξᵀ` | one endpoint sweep over every group's events, laid out by group | `O(n log n)` + output |
//!
//! Every operator groups rows by value — classes, groups, distinct rows —
//! in first-occurrence order, numbering string keys straight from their
//! dictionary codes and hashing only keys with a column of another type
//! ([`batch::hash`]).
//!
//! The one physical choice is the hash equi-join: below a `Select` with
//! equality conjuncts across its inputs ([`tqo_core::plan::equi_keys`]),
//! `×` / `×ᵀ` match on them, and their output is the key-matching
//! sub-list of the product's — the select above yields the identical list.
//!
//! The planner ([`planner::lower`]) records that choice, with each node's
//! row estimate and output schema, in the [`physical::NodeFacts`] of a
//! [`PhysicalPlan`]; [`executor::execute_mode`] runs it collecting
//! per-operator metrics.
//!
//! One engine executes lowered plans: the vectorized batch pipeline in
//! [`batch`] (columnar ~1024-row batches, selection vectors, column-wise
//! hashing, period-column sweeps). The reference interpreter
//! (`tqo_core::interp`) is its oracle: for every lowered plan the engine
//! produces the interpreter's exact relation. [`executor::ExecMode`]
//! survives only as a type no code branches on — every value runs batch.
//! [`parallel`] holds the stage graph and the one worker pool that runs
//! many queries' stages at once.

#![warn(missing_docs)]

pub mod analyze;
pub mod batch;
pub mod executor;
pub mod metrics;
pub mod parallel;
pub mod physical;
pub mod planner;

pub use analyze::{explain_analyze, Analyzed};
pub use batch::Batch;
pub use executor::{execute_logical, execute_mode, ExecMode};
pub use metrics::{ExecMetrics, OperatorMetrics};
pub use parallel::{QueryHandle, Scheduler, SchedulerConfig, StageGraph, SubmitOptions};
pub use physical::{NodeFacts, PhysicalPlan};
pub use planner::{lower, PlannerConfig};
