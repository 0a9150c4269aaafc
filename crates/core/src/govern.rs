//! Resource governance: per-query memory budgets over a service-wide pool.
//!
//! The paper's morsel-driven design assumes operator state fits in RAM;
//! at service scale a single runaway hash-join build or aggregation
//! spill must degrade *that query*, not the process. This module
//! provides the accounting layer:
//!
//! - [`MemPool`] — a service-wide reservation counter with a hard
//!   capacity, shared by every query admitted to one engine instance.
//! - [`MemBudget`] — a per-query ledger with an optional cap below the
//!   pool capacity. Operators reserve bytes *before* (or, for
//!   append-style growth, immediately after) materializing state;
//!   exceeding the cap or the pool raises
//!   [`EngineError::ResourceExhausted`], which the caller surfaces by
//!   marking the query failed so it unwinds cooperatively at the next
//!   morsel boundary — the same teardown path deadline cancellation
//!   uses.
//! - [`EngineError`] — the typed error vocabulary for governed
//!   execution.
//!
//! Accounting is advisory (the allocator is not hooked): operators
//! declare their dominant allocations — hash-table directories and
//! tuple storage, aggregation spill fragments, sort runs, materialized
//! result areas — which is where all unbounded growth in this engine
//! lives. The invariant that makes leak checking possible: every byte
//! reserved against the pool is released by the owning query's
//! [`MemBudget::release_all`], called exactly once when the dispatcher
//! retires the query (completed, cancelled, or failed). A quiescent
//! pool therefore always reads zero — the chaos suite asserts this
//! after every generated fault schedule.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Typed error for governed execution paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A memory reservation exceeded the per-query cap or the shared
    /// pool capacity (or was denied by an injected allocation fault).
    ResourceExhausted {
        /// Bytes the operator asked for.
        requested: u64,
        /// Bytes the query already had reserved.
        reserved: u64,
        /// The limit that was hit (per-query cap or pool capacity).
        limit: u64,
    },
    /// An operator panicked; the payload is the rendered panic message.
    OperatorPanic(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ResourceExhausted {
                requested,
                reserved,
                limit,
            } => write!(
                f,
                "resource exhausted: requested {requested} B with {reserved} B reserved (limit {limit} B)"
            ),
            EngineError::OperatorPanic(msg) => write!(f, "operator panic: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Service-wide memory pool: a capacity and an atomic reservation
/// counter. Shared by every [`MemBudget`] attached to one engine
/// instance; attached through [`ExecEnv::with_mem_pool`](crate::ExecEnv::with_mem_pool).
#[derive(Debug)]
pub struct MemPool {
    capacity: u64,
    reserved: AtomicU64,
}

impl MemPool {
    /// A pool with `capacity` bytes.
    pub fn new(capacity: u64) -> Arc<Self> {
        Arc::new(MemPool {
            capacity,
            reserved: AtomicU64::new(0),
        })
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved across all queries.
    pub fn reserved(&self) -> u64 {
        self.reserved.load(Ordering::Acquire)
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity.saturating_sub(self.reserved())
    }

    /// Try to reserve `bytes`; false if it would exceed capacity.
    fn try_reserve(&self, bytes: u64) -> bool {
        let mut cur = self.reserved.load(Ordering::Relaxed);
        loop {
            let Some(next) = cur.checked_add(bytes) else {
                return false;
            };
            if next > self.capacity {
                return false;
            }
            match self.reserved.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    fn release(&self, bytes: u64) {
        let prev = self.reserved.fetch_sub(bytes, Ordering::AcqRel);
        debug_assert!(prev >= bytes, "pool released more than was reserved");
    }
}

#[derive(Debug, Default)]
struct BudgetState {
    reserved: u64,
    /// High-water mark of `reserved` over the query's lifetime; survives
    /// releases and `release_all` so the profile can report peak memory.
    peak: u64,
    /// Set by `release_all`: the query is retired and late reservations
    /// (racing morsels observed mid-teardown) must be refused so they
    /// cannot leak pool bytes past the query's lifetime.
    closed: bool,
}

/// Per-query memory ledger. Created by the dispatcher at submit time
/// from [`QuerySpec::mem_cap`](crate::QuerySpec) and the environment's
/// pool; operators reach it through
/// [`TaskContext::try_reserve`](crate::TaskContext).
///
/// The ledger is mutex-guarded rather than lock-free: reservations
/// happen a handful of times per morsel (not per tuple), and the mutex
/// makes the `release_all` teardown race trivially sound — a late
/// reservation either lands before the close (and is swept by it) or
/// after (and is refused).
#[derive(Debug)]
pub struct MemBudget {
    /// Per-query cap; `u64::MAX` means "pool-limited only".
    cap: u64,
    pool: Option<Arc<MemPool>>,
    state: Mutex<BudgetState>,
}

impl MemBudget {
    /// A budget with no cap and no pool: every reservation succeeds.
    pub fn unlimited() -> Self {
        MemBudget {
            cap: u64::MAX,
            pool: None,
            state: Mutex::new(BudgetState::default()),
        }
    }

    /// A budget capped at `cap` bytes (if `Some`), drawing from `pool`
    /// (if `Some`).
    pub fn new(cap: Option<u64>, pool: Option<Arc<MemPool>>) -> Self {
        MemBudget {
            cap: cap.unwrap_or(u64::MAX),
            pool,
            state: Mutex::new(BudgetState::default()),
        }
    }

    /// Bytes currently reserved by this query.
    pub fn reserved(&self) -> u64 {
        self.state.lock().reserved
    }

    /// The per-query cap (`u64::MAX` when uncapped).
    pub fn cap(&self) -> u64 {
        self.cap
    }

    /// High-water mark of this query's reservations, in bytes. Stable
    /// after retirement (releases never lower it).
    pub fn peak(&self) -> u64 {
        self.state.lock().peak
    }

    /// Reserve `bytes` against the cap and the pool.
    ///
    /// On `Err` nothing is retained: the caller should mark the query
    /// failed and return at the morsel boundary. A closed budget
    /// (query already retired) also refuses, reporting the cap as the
    /// limit — by then the query is being torn down and the morsel's
    /// work is discarded anyway.
    pub fn try_reserve(&self, bytes: u64) -> Result<(), EngineError> {
        let mut st = self.state.lock();
        let exhausted = |st: &BudgetState, limit: u64| EngineError::ResourceExhausted {
            requested: bytes,
            reserved: st.reserved,
            limit,
        };
        if st.closed {
            return Err(exhausted(&st, self.cap));
        }
        match st.reserved.checked_add(bytes) {
            Some(next) if next <= self.cap => {
                if let Some(pool) = &self.pool {
                    if !pool.try_reserve(bytes) {
                        return Err(exhausted(&st, pool.capacity()));
                    }
                }
                st.reserved = next;
                st.peak = st.peak.max(next);
                Ok(())
            }
            _ => Err(exhausted(&st, self.cap)),
        }
    }

    /// Return `bytes` to the ledger (and the pool). Used by operators
    /// whose footprint shrinks, e.g. TopK trimming its held set.
    pub fn release(&self, bytes: u64) {
        let mut st = self.state.lock();
        let freed = bytes.min(st.reserved);
        st.reserved -= freed;
        if let Some(pool) = &self.pool {
            pool.release(freed);
        }
    }

    /// Release every reservation and close the ledger. Called exactly
    /// once by the dispatcher when the query retires; late reservations
    /// after this point are refused by [`MemBudget::try_reserve`].
    pub fn release_all(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        let freed = std::mem::take(&mut st.reserved);
        if let Some(pool) = &self.pool {
            pool.release(freed);
        }
    }
}

impl Default for MemBudget {
    fn default() -> Self {
        MemBudget::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reserve_release_roundtrip() {
        let pool = MemPool::new(1_000);
        assert!(pool.try_reserve(600));
        assert_eq!(pool.reserved(), 600);
        assert!(!pool.try_reserve(500));
        assert!(pool.try_reserve(400));
        assert_eq!(pool.available(), 0);
        pool.release(1_000);
        assert_eq!(pool.reserved(), 0);
    }

    #[test]
    fn budget_cap_is_enforced_and_nothing_sticks_on_failure() {
        let budget = MemBudget::new(Some(100), None);
        assert!(budget.try_reserve(80).is_ok());
        let err = budget.try_reserve(21).unwrap_err();
        assert_eq!(
            err,
            EngineError::ResourceExhausted {
                requested: 21,
                reserved: 80,
                limit: 100,
            }
        );
        assert_eq!(budget.reserved(), 80);
        assert!(budget.try_reserve(20).is_ok());
    }

    #[test]
    fn budget_failure_against_pool_leaves_pool_clean() {
        let pool = MemPool::new(100);
        let a = MemBudget::new(None, Some(Arc::clone(&pool)));
        let b = MemBudget::new(None, Some(Arc::clone(&pool)));
        assert!(a.try_reserve(90).is_ok());
        let err = b.try_reserve(20).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted { limit: 100, .. }
        ));
        assert_eq!(pool.reserved(), 90);
        a.release_all();
        assert_eq!(pool.reserved(), 0);
        assert!(b.try_reserve(20).is_ok());
        b.release_all();
        assert_eq!(pool.reserved(), 0);
    }

    #[test]
    fn release_all_closes_the_ledger() {
        let pool = MemPool::new(100);
        let budget = MemBudget::new(None, Some(Arc::clone(&pool)));
        assert!(budget.try_reserve(10).is_ok());
        budget.release_all();
        assert_eq!(pool.reserved(), 0);
        // A racing late reservation is refused, so it cannot leak.
        assert!(budget.try_reserve(1).is_err());
        assert_eq!(pool.reserved(), 0);
    }

    #[test]
    fn partial_release_returns_bytes_to_pool() {
        let pool = MemPool::new(100);
        let budget = MemBudget::new(None, Some(Arc::clone(&pool)));
        budget.try_reserve(60).unwrap();
        budget.release(25);
        assert_eq!(budget.reserved(), 35);
        assert_eq!(pool.reserved(), 35);
        // Over-release clamps instead of underflowing.
        budget.release(1_000);
        assert_eq!(budget.reserved(), 0);
        assert_eq!(pool.reserved(), 0);
        budget.release_all();
    }

    #[test]
    fn peak_tracks_high_water_across_releases() {
        let budget = MemBudget::new(Some(100), None);
        assert_eq!(budget.peak(), 0);
        budget.try_reserve(40).unwrap();
        budget.try_reserve(30).unwrap();
        assert_eq!(budget.peak(), 70);
        budget.release(50);
        assert_eq!(budget.peak(), 70, "release never lowers the peak");
        budget.try_reserve(20).unwrap();
        assert_eq!(budget.peak(), 70);
        budget.try_reserve(40).unwrap();
        assert_eq!(budget.peak(), 80);
        // A refused reservation leaves the peak untouched.
        assert!(budget.try_reserve(1_000).is_err());
        assert_eq!(budget.peak(), 80);
        budget.release_all();
        assert_eq!(budget.reserved(), 0);
        assert_eq!(budget.peak(), 80, "peak survives retirement");
    }

    #[test]
    fn error_display_is_actionable() {
        let err = EngineError::ResourceExhausted {
            requested: 64,
            reserved: 900,
            limit: 1024,
        };
        assert_eq!(
            err.to_string(),
            "resource exhausted: requested 64 B with 900 B reserved (limit 1024 B)"
        );
        assert_eq!(
            EngineError::OperatorPanic("boom".into()).to_string(),
            "operator panic: boom"
        );
    }
}
