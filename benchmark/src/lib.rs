//! # tqo-benchmark — the repo's socket-to-socket benchmark
//!
//! Two binaries share this library. `e2e` drives an in-process
//! `tqo_serve::serve` over real TCP with tracing off and reports what a
//! client sees; it touches only the server's front door, the storage
//! generator and the reference interpreter, so refactors of inner entry
//! points cannot break the end-to-end numbers. `layers` times the calls
//! into each layer's public functions from the outside and writes a
//! Chrome trace; everything that knows an inner entry point lives there.
//!
//! See `benchmark/README.md` for the metric glossary and the workloads.

#![warn(missing_docs)]

pub mod args;
pub mod digest;
pub mod driver;
pub mod host;
pub mod json;
pub mod report;
pub mod spans;
pub mod stats;
pub mod windows;
pub mod workloads;
