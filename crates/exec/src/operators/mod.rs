//! Physical operator algorithms.
//!
//! Algorithms that are *specification-faithful* simply delegate to
//! `tqo_core::ops`; the alternatives here trade exact list output for
//! asymptotic speed and are selected by the planner only where the plan's
//! operation properties license the weaker equivalence.

pub mod coalesce;
pub mod dedup;
pub mod difference;
pub mod join;

pub use coalesce::coalesce_sort_merge;
pub use dedup::rdup_t_sweep;
pub use difference::difference_t_subtract_union;
pub use join::{product_hash_equi, product_t_hash_equi, product_t_plane_sweep};
