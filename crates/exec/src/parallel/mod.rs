//! Scheduler + stage graph: inter-query parallelism on one worker pool.
//!
//! [`StageGraph::lower`] cuts a lowered plan's tree at its pipeline
//! breakers into a DAG of stages; the [`Scheduler`] multiplexes the stages
//! of many queries over one shared, persistent pool of workers, with
//! each [`Scheduler::run`] caller executing its own query's stages when a
//! slot is free, under weighted-fair picking and admission control. Each
//! stage runs on the serial batch engine, so a scheduled result is
//! byte-identical to the same plan's serial run (ARCHITECTURE
//! invariant 16).
//!
//! There is no intra-query parallelism; `docs/execution.md` records why,
//! and that a future attempt belongs on this pool as morsel tasks.

pub mod sched;
pub mod stage;

pub use sched::{QueryHandle, Scheduler, SchedulerConfig, SubmitOptions};
pub use stage::{Stage, StageGraph};
