//! # tqo-conformance — SQL conformance corpus and planner snapshots
//!
//! A sqllogictest-style harness holding the whole stack — parser, binder,
//! optimizer, and every execution engine — to one committed corpus of
//! queries with pinned results.
//!
//! Two halves:
//!
//! * **`.slt` corpus** ([`slt`] + [`runner`]): text files of
//!   `statement ok` / `query <types> [rowsort]` / `query error`
//!   directives over deterministic fixtures ([`fixtures`]). Each `query`
//!   runs through the full mode matrix — reference interpreter, the
//!   batch engine, the multi-query scheduler, the memo optimizer and the
//!   Figure 5 closure it is checked against, and the layered stratum
//!   engine. Every leg running
//!   the query's own plan must return the interpreter's exact relation;
//!   the legs running a rewritten plan must render **byte-identical**
//!   canonical results.
//! * **planner snapshots** ([`snapshot`]): EXPLAIN-style renderings of
//!   logical and physical plans (with estimated rows) pinned as committed
//!   files, so a plan-shape change is a reviewable diff rather than a
//!   silent regression.
//!
//! Both sides have a bless flow: `UPDATE_SLT=1` rewrites expected result
//! blocks from the reference interpreter, `UPDATE_SNAPSHOTS=1` rewrites
//! plan snapshots. See `docs/sql.md` for the authoring guide.

pub mod fixtures;
pub mod render;
pub mod runner;
pub mod slt;
pub mod snapshot;

pub use runner::{run_slt_file, FileOutcome};
pub use snapshot::check_snapshots;
