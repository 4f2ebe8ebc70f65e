//! # tqo-exec — physical execution engine
//!
//! Lowers logical plans ([`tqo_core::plan::LogicalPlan`]) to physical plans
//! and executes them. The point of the physical layer is *algorithm
//! choice*: several operations have both a specification-faithful
//! implementation (producing exactly the list the paper's definitions
//! prescribe) and a faster algorithm whose output is only equivalent at a
//! weaker level — usable precisely where the plan's operation properties
//! (Table 2) say order or exact periods do not matter:
//!
//! | logical op | faithful | fast | fast output is |
//! |------------|----------|------|----------------|
//! | `rdupᵀ` | per-class claims in list order (the recursion's list) | per-class period-union sweep | `≡SM` to faithful |
//! | `coalᵀ` | first-partner fixpoint | sort-merge per class | `≡M` (sdf input) |
//! | `×ᵀ` | left-major nested loop | plane sweep | `≡M` |
//! | `\ᵀ` | count-timeline sweep | per-tuple subtract-union | `≡SM` |
//!
//! One fast algorithm needs no such license: below a `Select` with
//! equality conjuncts across its inputs, `×` / `×ᵀ` run as a hash
//! equi-join whose output is the key-matching sub-list of the nested
//! loop's — the select above yields the identical list.
//!
//! The planner ([`planner::lower`]) consults the property annotations to
//! pick the fastest admissible algorithm; [`executor::execute_mode`] runs
//! the physical plan collecting per-operator metrics.
//!
//! Two engines execute physical plans ([`executor::ExecMode`]): the
//! vectorized batch pipeline in [`batch`] (default — columnar ~1024-row
//! batches, selection vectors, column-wise hashing, period-column
//! sweeps) and the row-at-a-time materializing walk
//! ([`executor::ExecMode::Row`], the semantic baseline). For any one
//! physical plan they produce identical relations. [`parallel`] holds the
//! stage graph and the one worker pool that runs many queries' stages at
//! once.

#![warn(missing_docs)]

pub mod adaptive;
pub mod analyze;
pub mod batch;
pub mod executor;
pub mod metrics;
pub mod operators;
pub mod parallel;
pub mod physical;
pub mod planner;

pub use adaptive::{execute_adaptive, AdaptiveConfig};
pub use analyze::{explain_analyze, Analyzed};
pub use batch::Batch;
pub use executor::{execute_logical, execute_mode, ExecMode};
pub use metrics::{ExecMetrics, OperatorMetrics, ReoptEvent};
pub use parallel::{QueryHandle, Scheduler, SchedulerConfig, StageGraph, SubmitOptions};
pub use physical::{PhysicalNode, PhysicalPlan};
pub use planner::{lower, PlannerConfig};
