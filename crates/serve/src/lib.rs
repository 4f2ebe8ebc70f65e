//! # tqo-serve — the concurrent serving front-end
//!
//! The paper's stratum architecture assumes the layered engine ultimately
//! serves many clients at once. This crate is that front door: a TCP
//! server speaking a length-prefixed binary protocol (value encoding
//! shared with [`tqo_stratum::wire`]), one sequential request/response
//! session per connection, with every query executed through the shared
//! multi-query [`Scheduler`](tqo_exec::Scheduler) — admission control,
//! weighted-fair picking, and per-query deadlines/budgets/cancellation
//! included.
//!
//! Contract (ARCHITECTURE invariant 16): **concurrency never changes
//! results, only latency.** Any response to a query is byte-identical to
//! the same SQL executed serially against the same catalog snapshot;
//! failures — parse errors, admission rejections, deadline/budget trips,
//! injected faults — cross the wire as typed errors attributed to their
//! own query, and the pool keeps serving everyone else.
//!
//! A served statement compiles once per schema of the tables it binds:
//! the server keeps its lowered plan and reuses it, for every session and
//! across writes, while those schemas are unchanged and the session that
//! compiled it lives ([`Server::plan_cache`] reads the hit and miss
//! counts).
//!
//! Binaries: `tqo-serve` (stand-alone server over the paper catalog) and
//! `serve-bench` (closed-loop load driver emitting `BENCH_serve.json`).

#![warn(missing_docs)]

pub mod client;
mod plan_cache;
pub mod protocol;
pub mod server;

pub use client::{Client, QueryOpts};
pub use plan_cache::{PlanCacheStats, PLAN_CACHE_CAPACITY};
pub use protocol::{Request, Response};
pub use server::{serve, Server, ServerConfig};
