//! Row-engine algorithms that have no counterpart in `tqo_core::ops`.
//!
//! Every other operator runs the `tqo_core::ops` function itself. The hash
//! equi-joins here are the one physical choice the planner makes: below a
//! selection with cross-input key equalities, a product emits only the
//! key-matching sub-list of its own list.

pub mod join;

pub use join::{product_hash_equi, product_t_hash_equi};
