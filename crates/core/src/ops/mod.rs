//! The extended algebra operations (§2.4, Table 1).
//!
//! Every operation is a pure function from argument relation(s) to a result
//! relation. The implementations are *specification-faithful*: they produce
//! exactly the list (order and duplicates included) that the paper's
//! λ-calculus definitions prescribe. The execution engines in `tqo-exec`
//! compute these same lists and are tested against them.
//! Where an operation's definition is quadratic, the function here computes
//! the same list faster and the definition stays beside it as `*_literal`,
//! the oracle its tests compare against: `rdupᵀ` claims periods per class
//! in list order, `O(n log n)`; `ξᵀ` sweeps each group's endpoints once,
//! `O(n log n)` plus the output (float `SUM`/`AVG` re-add the live values,
//! `O(live)` per interval); `coalᵀ` walks per-(class, instant) chains,
//! `O(n)` after hashing; `×ᵀ` sweeps both inputs' endpoints and sorts the
//! overlapping pairs into the nested loop's order, `O((n + m) log(n + m))`
//! plus the sorted output.
//!
//! | Operation | Function | Temporal counterpart |
//! |-----------|----------|----------------------|
//! | selection `σ_P` | [`select()`] | — (snapshot-reducible as-is) |
//! | projection `π_f` | [`project()`] | — |
//! | union ALL `⊔` | [`union_all()`] | — |
//! | Cartesian product `×` | [`product()`] | [`temporal::product_t()`] |
//! | difference `\` | [`difference()`] | [`temporal::difference_t()`] |
//! | aggregation `ξ` | [`aggregate()`] | [`temporal::aggregate_t()`] |
//! | duplicate elimination `rdup` | [`rdup()`] | [`temporal::rdup_t()`] |
//! | union `∪` | [`union_max`] | [`temporal::union_t()`] |
//! | sorting `sort_A` | [`sort()`] | — |
//! | coalescing `coalᵀ` | — | [`temporal::coalesce()`] |

pub mod aggregate;
pub mod difference;
pub mod limit;
pub mod product;
pub mod project;
pub mod rdup;
pub mod select;
pub mod sort;
pub mod temporal;
pub mod union;
pub mod union_all;

pub use aggregate::aggregate;
pub use difference::difference;
pub use limit::limit;
pub use product::product;
pub use project::project;
pub use rdup::rdup;
pub use select::select;
pub use sort::sort;
pub use union::union_max;
pub use union_all::union_all;

pub use temporal::{
    aggregate_t, aggregate_t_literal, coalesce, coalesce_literal, difference_t, product_t,
    product_t_literal, rdup_t, rdup_t_literal, union_t,
};
