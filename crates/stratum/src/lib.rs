//! # tqo-stratum — the layered (stratum) architecture of §2.1
//!
//! A stratum implementing temporal support sits between applications and a
//! conventional DBMS: plan fragments below `Tˢ` operations execute in the
//! DBMS (which evaluates only conventional operations, in SQL), fragments
//! above execute in the stratum (which owns the temporal operations), and
//! every transfer moves rows across a serialized "wire".
//!
//! **Substitution note (see DESIGN.md):** the paper ran on a real
//! commercial DBMS; here the DBMS is *simulated* by [`dbms::SimulatedDbms`]
//! — a conventional executor using the mature, optimized operator
//! implementations (std's hybrid stable sort, hash-based set operations),
//! while the stratum ([`engine`]) hands its local operator tree to a
//! `tqo-exec` engine, whose operators compute the reference lists.
//! Together with real per-tuple serialization at the transfers
//! ([`wire`]) and the cost model's site factors, this preserves the
//! behaviour the paper's optimization exploits: the DBMS evaluates
//! conventional fragments cheaper than the stratum, transfers cost, and
//! temporal operations must run in the stratum.

pub mod dbms;
pub mod engine;
pub mod fault;
pub mod splitter;
pub mod wire;

pub use dbms::SimulatedDbms;
pub use engine::{Stratum, StratumMetrics};
pub use fault::{FaultConfig, RetryPolicy};
pub use splitter::{fragments, make_layered, validate_layered, Fragment};
