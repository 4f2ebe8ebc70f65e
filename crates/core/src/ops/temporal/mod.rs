//! Temporal operations: snapshot-reducible counterparts of the conventional
//! algebra (§2.2), plus coalescing.
//!
//! An operation `opᵀ` is snapshot-reducible to `op` when for every instant
//! `t`, `snapshot(opᵀ(r), t) = op(snapshot(r, t))` — the defining invariant
//! tested (deterministically and property-based) for every operation here.

pub mod aggregate_t;
pub mod coalesce;
pub mod difference_t;
pub mod product_t;
pub mod rdup_t;
pub mod union_t;

pub use aggregate_t::{aggregate_t, aggregate_t_literal};
pub use coalesce::{coalesce, coalesce_literal};
pub use difference_t::difference_t;
pub use product_t::{product_t, product_t_literal};
pub use rdup_t::{rdup_t, rdup_t_literal};
pub use union_t::union_t;
