//! # Per-query resource governance — cancellation, deadlines, memory.
//!
//! The stratum architecture of the paper (§1, §5) places the temporal
//! engine between clients and an unaltered DBMS: clients disconnect
//! mid-query, fragments stall, and a single runaway query can starve the
//! process. This module is the cooperative governance layer every engine
//! checks into:
//!
//! * [`QueryContext`] — one per query: a [`CancellationToken`], an
//!   optional deadline, and a byte-accounted [`MemoryBudget`].
//! * [`install`] / [`check_current`] — the same thread-local
//!   install-guard pattern as [`crate::trace`]: a context is
//!   installed for the dynamic extent of a query; engines call the free
//!   function [`check_current`] at their checkpoints (scheduler tasks,
//!   `next_batch`, row-loop strides, memo task pops, stratum fragment
//!   dispatch) without any signature changes. With no context
//!   installed anywhere the check is one relaxed atomic load.
//! * [`Reservation`] — RAII memory accounting: allocating operators
//!   reserve bytes before materializing and the reservation releases on
//!   drop, so `used` tracks *live* materialized bytes.
//!
//! ## Semantics
//!
//! Governance is **cooperative and typed**: a tripped token surfaces as
//! [`Error::Cancelled`], a passed deadline as
//! [`Error::DeadlineExceeded`], a denied reservation as
//! [`Error::MemoryBudget`] — never a panic, and never a partial result.
//! Because every checkpoint sits *between* units of work, an aborted
//! query unwinds through plain `?` propagation, leaving the catalog,
//! statistics cache, and worker pool untouched and reusable
//! (ARCHITECTURE invariant 14: governance never changes results, only
//! whether they arrive).
//!
//! Deterministic testing: [`CancellationToken::tripping_after`] builds a
//! token that cancels itself on its *n*-th poll, so tests can land a
//! cancellation on any checkpoint class without racing a second thread.
//!
//! ```
//! use tqo_core::context::{self, QueryContext};
//! use tqo_core::Error;
//!
//! // A context whose token trips on the very first checkpoint.
//! let ctx = QueryContext::new().with_cancel_after(1);
//! let _g = context::install(&ctx);
//! assert_eq!(context::check_current(), Err(Error::Cancelled));
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::trace::{self, counters, Category};

// ---------------------------------------------------------------------------
// Cancellation token
// ---------------------------------------------------------------------------

/// A cooperative cancellation token shared by everyone holding a clone.
///
/// Cancellation is a one-way latch: once [`cancel`](Self::cancel) is
/// called (or a deterministic trip point is reached) every subsequent
/// poll observes it. Engines never poll the token directly — they call
/// [`check_current`], which polls the installed context.
#[derive(Clone, Debug, Default)]
pub struct CancellationToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// Deterministic trip point: cancel on the `trip_at`-th poll
    /// (0 = never trip automatically).
    trip_at: u64,
    polls: AtomicU64,
}

impl CancellationToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that cancels itself on its `polls`-th checkpoint poll —
    /// the deterministic way to land a cancellation mid-query on any
    /// engine without a second thread (`polls = 1` trips on the first
    /// checkpoint).
    pub fn tripping_after(polls: u64) -> Self {
        CancellationToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                trip_at: polls,
                polls: AtomicU64::new(0),
            }),
        }
    }

    /// Request cancellation. Safe from any thread; idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once the token has been cancelled (manually or by trip).
    /// Does not count as a poll.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Checkpoint polls observed so far — how many times the engines
    /// consulted this token.
    pub fn polls(&self) -> u64 {
        self.inner.polls.load(Ordering::Relaxed)
    }

    /// One checkpoint poll: counts it, trips the deterministic latch if
    /// configured, and reports whether the token is cancelled.
    fn poll(&self) -> bool {
        let i = &*self.inner;
        let n = i.polls.fetch_add(1, Ordering::Relaxed) + 1;
        if i.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if i.trip_at != 0 && n >= i.trip_at {
            i.cancelled.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }
}

// ---------------------------------------------------------------------------
// Memory budget
// ---------------------------------------------------------------------------

/// A byte-accounted memory budget shared by everyone holding a clone.
///
/// Allocating operators reserve an estimate *before* materializing
/// ([`try_reserve`](Self::try_reserve)); the returned [`Reservation`]
/// releases on drop, so [`used`](Self::used) approximates live
/// materialized bytes and [`peak`](Self::peak) the high-water mark.
/// Long-lived charges with no natural release point (decoded wire
/// payloads bound for the rest of the query) use
/// [`try_charge`](Self::try_charge). Denial is graceful: a typed
/// [`Error::MemoryBudget`] carrying the requested/used/limit triple.
#[derive(Clone, Debug)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

#[derive(Debug)]
struct BudgetInner {
    /// `usize::MAX` = unlimited (accounting still runs, denial never).
    limit: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    denials: AtomicU64,
}

impl Default for MemoryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl MemoryBudget {
    /// A budget that accounts but never denies.
    pub fn unlimited() -> Self {
        Self::with_limit(usize::MAX)
    }

    /// A budget denying reservations past `bytes` live bytes.
    pub fn with_limit(bytes: usize) -> Self {
        MemoryBudget {
            inner: Arc::new(BudgetInner {
                limit: bytes,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                denials: AtomicU64::new(0),
            }),
        }
    }

    /// The configured limit; `None` when unlimited.
    pub fn limit(&self) -> Option<usize> {
        (self.inner.limit != usize::MAX).then_some(self.inner.limit)
    }

    /// Live reserved bytes.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of [`used`](Self::used).
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Reservations denied so far.
    pub fn denials(&self) -> u64 {
        self.inner.denials.load(Ordering::Relaxed)
    }

    /// Reserve `bytes`, releasing them when the returned guard drops.
    pub fn try_reserve(&self, bytes: usize) -> Result<Reservation> {
        self.grant(bytes)?;
        Ok(Reservation {
            budget: self.clone(),
            bytes,
        })
    }

    /// Charge `bytes` for the remainder of the query (no release) — for
    /// allocations with no natural drop point inside the engine, like
    /// decoded wire payloads bound into the fragment environment.
    pub fn try_charge(&self, bytes: usize) -> Result<()> {
        self.grant(bytes)
    }

    /// Add `bytes` to `used`, denying gracefully past the limit.
    fn grant(&self, bytes: usize) -> Result<()> {
        let i = &*self.inner;
        // CAS loop so a denied request never perturbs the accounting.
        let mut used = i.used.load(Ordering::Relaxed);
        loop {
            let new = used.saturating_add(bytes);
            if new > i.limit {
                i.denials.fetch_add(1, Ordering::Relaxed);
                counters::BUDGET_DENIALS.incr();
                trace::instant_with(
                    Category::Governance,
                    || "budget.denied".into(),
                    || {
                        format!(
                            "\"requested\": {bytes}, \"used\": {used}, \"limit\": {}",
                            i.limit
                        )
                    },
                );
                return Err(Error::MemoryBudget {
                    requested: bytes,
                    used,
                    limit: i.limit,
                });
            }
            match i
                .used
                .compare_exchange_weak(used, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    i.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(observed) => used = observed,
            }
        }
    }

    fn release(&self, bytes: usize) {
        self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// RAII guard for reserved bytes; releases its reservation on drop.
#[derive(Debug)]
#[must_use = "dropping the reservation releases the bytes"]
pub struct Reservation {
    budget: MemoryBudget,
    bytes: usize,
}

impl Reservation {
    /// Bytes currently held by this reservation.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Reserve `additional` more bytes into this guard.
    pub fn grow(&mut self, additional: usize) -> Result<()> {
        self.budget.grant(additional)?;
        self.bytes += additional;
        Ok(())
    }

    /// Resize the reservation to `total` bytes (grow or shrink) — for
    /// operators tracking a growing structure like a hash table, where
    /// only the current total is known.
    pub fn grow_to(&mut self, total: usize) -> Result<()> {
        if total > self.bytes {
            self.grow(total - self.bytes)
        } else {
            self.budget.release(self.bytes - total);
            self.bytes = total;
            Ok(())
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.budget.release(self.bytes);
    }
}

// ---------------------------------------------------------------------------
// Query context
// ---------------------------------------------------------------------------

/// Everything governing one query: cancellation, deadline, memory.
///
/// Cheap to clone (all state behind `Arc`s); clones observe the same
/// token, deadline, and budget — this is how the scheduler shares one
/// context across the worker threads running a query's stages.
#[derive(Clone, Debug, Default)]
pub struct QueryContext {
    inner: Arc<ContextInner>,
}

#[derive(Debug, Default)]
struct ContextInner {
    token: CancellationToken,
    budget: MemoryBudget,
    /// Wall-clock instant past which [`check`](QueryContext::check)
    /// fails, with the configured timeout for the error message.
    deadline: Option<(Instant, u64)>,
    /// Latch so each stop condition increments its counter once per
    /// query even though every checkpoint after the trip re-errors.
    reported: AtomicBool,
}

impl QueryContext {
    /// An ungoverned context: no deadline, unlimited memory, a token
    /// that only cancels on request.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use `token` for cancellation (share it with the client side).
    pub fn with_token(self, token: CancellationToken) -> Self {
        self.map(|i| i.token = token)
    }

    /// Deterministically cancel on the `polls`-th checkpoint
    /// (convenience over [`CancellationToken::tripping_after`]).
    pub fn with_cancel_after(self, polls: u64) -> Self {
        self.with_token(CancellationToken::tripping_after(polls))
    }

    /// Fail checkpoints once `timeout` has elapsed from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        let at = Instant::now() + timeout;
        let ms = timeout.as_millis().min(u64::MAX as u128) as u64;
        self.map(|i| i.deadline = Some((at, ms)))
    }

    /// Deny memory reservations past `bytes` live bytes.
    pub fn with_memory_limit(self, bytes: usize) -> Self {
        self.map(|i| i.budget = MemoryBudget::with_limit(bytes))
    }

    fn map(self, f: impl FnOnce(&mut ContextInner)) -> Self {
        // Builders run before the context is shared; rebuild the inner.
        let mut inner = ContextInner {
            token: self.inner.token.clone(),
            budget: self.inner.budget.clone(),
            deadline: self.inner.deadline,
            reported: AtomicBool::new(false),
        };
        f(&mut inner);
        QueryContext {
            inner: Arc::new(inner),
        }
    }

    /// The context's cancellation token.
    pub fn token(&self) -> &CancellationToken {
        &self.inner.token
    }

    /// The context's memory budget.
    pub fn budget(&self) -> &MemoryBudget {
        &self.inner.budget
    }

    /// Wall-clock time left before the deadline (`None` = no deadline).
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .deadline
            .map(|(at, _)| at.saturating_duration_since(Instant::now()))
    }

    /// One checkpoint: poll the token, then the deadline. The typed
    /// error is stable — every checkpoint after a trip returns the same
    /// variant.
    pub fn check(&self) -> Result<()> {
        let i = &*self.inner;
        if i.token.poll() {
            self.report(&counters::QUERIES_CANCELLED, "cancelled");
            return Err(Error::Cancelled);
        }
        if let Some((at, limit_ms)) = i.deadline {
            if Instant::now() >= at {
                self.report(&counters::DEADLINES_EXCEEDED, "deadline");
                return Err(Error::DeadlineExceeded { limit_ms });
            }
        }
        Ok(())
    }

    /// Count the stop condition once per query and mark it in any
    /// installed trace.
    fn report(&self, counter: &counters::Counter, what: &'static str) {
        if !self.inner.reported.swap(true, Ordering::Relaxed) {
            counter.incr();
            trace::instant_with(
                Category::Governance,
                || format!("query.{what}"),
                String::new,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-local plumbing (the trace-layer pattern)
// ---------------------------------------------------------------------------

/// Count of live [`install`] guards process-wide — the global fast gate.
/// Zero ⇒ no query is governed anywhere and [`check_current`] is one
/// relaxed load.
static GOVERNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The context installed on this thread, if any.
    static CURRENT: RefCell<Option<QueryContext>> = const { RefCell::new(None) };
}

/// True when a context is installed *somewhere* in the process.
#[inline]
pub fn governance_possible() -> bool {
    GOVERNED.load(Ordering::Relaxed) != 0
}

/// Install `ctx` on the current thread for the lifetime of the returned
/// guard. Nested installs stack; the previous context is restored on
/// drop.
#[must_use = "the context is uninstalled when the guard drops"]
pub fn install(ctx: &QueryContext) -> ContextGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(ctx.clone()));
    GOVERNED.fetch_add(1, Ordering::Relaxed);
    ContextGuard { previous }
}

/// Scope guard of [`install`]; restores the previous context on drop.
pub struct ContextGuard {
    previous: Option<QueryContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        GOVERNED.fetch_sub(1, Ordering::Relaxed);
        CURRENT.with(|c| *c.borrow_mut() = self.previous.take());
    }
}

/// The engines' checkpoint: check the installed context, if any. With no
/// context installed anywhere this is one relaxed atomic load.
#[inline]
pub fn check_current() -> Result<()> {
    if !governance_possible() {
        return Ok(());
    }
    CURRENT.with(|c| match &*c.borrow() {
        Some(ctx) => ctx.check(),
        None => Ok(()),
    })
}

/// Reserve `bytes` against the installed context's budget, if any.
/// `Ok(None)` = no governed context (nothing to account against).
#[inline]
pub fn reserve_current(bytes: usize) -> Result<Option<Reservation>> {
    if !governance_possible() {
        return Ok(None);
    }
    CURRENT.with(|c| match &*c.borrow() {
        Some(ctx) => ctx.budget().try_reserve(bytes).map(Some),
        None => Ok(None),
    })
}

/// Charge `bytes` against the installed context's budget for the rest of
/// the query, if any context is installed.
#[inline]
pub fn charge_current(bytes: usize) -> Result<()> {
    if !governance_possible() {
        return Ok(());
    }
    CURRENT.with(|c| match &*c.borrow() {
        Some(ctx) => ctx.budget().try_charge(bytes),
        None => Ok(()),
    })
}

/// Amortized checkpoint for per-row loops: polls the installed context
/// every [`StridePoll::STRIDE`] calls, so tight loops pay one decrement
/// and branch per row.
#[derive(Debug)]
pub struct StridePoll {
    left: u32,
}

impl StridePoll {
    /// Rows between context polls.
    pub const STRIDE: u32 = 1024;

    /// A poller whose first check lands after one full stride.
    pub fn new() -> Self {
        StridePoll { left: Self::STRIDE }
    }

    /// Count one row; every [`Self::STRIDE`]-th call checks the context.
    #[inline]
    pub fn poll(&mut self) -> Result<()> {
        self.left -= 1;
        if self.left == 0 {
            self.left = Self::STRIDE;
            return check_current();
        }
        Ok(())
    }
}

impl Default for StridePoll {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ungoverned_checks_are_free_and_ok() {
        assert!(!governance_possible());
        assert_eq!(check_current(), Ok(()));
        assert_eq!(charge_current(1 << 40), Ok(()));
        assert!(reserve_current(1 << 40).unwrap().is_none());
    }

    #[test]
    fn manual_cancellation_latches() {
        let ctx = QueryContext::new();
        assert_eq!(ctx.check(), Ok(()));
        ctx.token().cancel();
        assert_eq!(ctx.check(), Err(Error::Cancelled));
        assert_eq!(ctx.check(), Err(Error::Cancelled));
        assert!(ctx.token().is_cancelled());
    }

    #[test]
    fn deterministic_trip_fires_on_nth_poll() {
        let ctx = QueryContext::new().with_cancel_after(3);
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.check(), Ok(()));
        assert_eq!(ctx.check(), Err(Error::Cancelled));
        assert_eq!(ctx.token().polls(), 3);
    }

    #[test]
    fn expired_deadline_is_typed() {
        let ctx = QueryContext::new().with_timeout(Duration::ZERO);
        assert_eq!(ctx.check(), Err(Error::DeadlineExceeded { limit_ms: 0 }));
        // A comfortable deadline passes.
        let ctx = QueryContext::new().with_timeout(Duration::from_secs(3600));
        assert_eq!(ctx.check(), Ok(()));
        assert!(ctx.remaining().unwrap() > Duration::from_secs(3000));
    }

    #[test]
    fn budget_accounts_and_denies_gracefully() {
        let b = MemoryBudget::with_limit(1000);
        let r1 = b.try_reserve(600).unwrap();
        assert_eq!(b.used(), 600);
        let denied = b.try_reserve(600).unwrap_err();
        assert_eq!(
            denied,
            Error::MemoryBudget {
                requested: 600,
                used: 600,
                limit: 1000
            }
        );
        assert_eq!(b.used(), 600, "denial must not perturb accounting");
        assert_eq!(b.denials(), 1);
        drop(r1);
        assert_eq!(b.used(), 0);
        assert_eq!(b.peak(), 600);
        let _r2 = b.try_reserve(900).unwrap();
        assert_eq!(b.peak(), 900);
    }

    #[test]
    fn reservations_grow_and_shrink() {
        let b = MemoryBudget::with_limit(100);
        let mut r = b.try_reserve(10).unwrap();
        r.grow(40).unwrap();
        assert_eq!(b.used(), 50);
        r.grow_to(20).unwrap();
        assert_eq!(b.used(), 20);
        assert!(r.grow_to(200).is_err());
        assert_eq!(b.used(), 20);
        drop(r);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn install_is_scoped_and_nestable() {
        let outer = QueryContext::new().with_cancel_after(1);
        let inner = QueryContext::new();
        {
            let _g1 = install(&outer);
            {
                let _g2 = install(&inner);
                assert_eq!(check_current(), Ok(()));
            }
            assert_eq!(check_current(), Err(Error::Cancelled));
        }
        assert_eq!(check_current(), Ok(()));
    }

    #[test]
    fn stride_poll_amortizes_checks() {
        let ctx = QueryContext::new().with_cancel_after(1);
        let _g = install(&ctx);
        let mut p = StridePoll::new();
        for _ in 0..StridePoll::STRIDE - 1 {
            assert_eq!(p.poll(), Ok(()));
        }
        assert_eq!(p.poll(), Err(Error::Cancelled));
    }
}
