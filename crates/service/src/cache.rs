//! The session's plan cache.
//!
//! [`crate::Session`] owns one plan cache over its catalog and counts
//! what it does in [`CacheCounters`]. It is a bounded LRU keyed on the
//! normalized [`ShapeKey`] (literals stripped, whitespace- and
//! table-alias-insensitive; see `morsel_sql::normalize`). Because
//! physical plans embed folded constants and literal-dependent
//! cardinality estimates, a shape hit alone is *not* sufficient: every
//! entry also guards on the exact literal vector and on the relations
//! its scans hold, each of which must still be one of the installed
//! catalog's relations (`Arc` identity). A guard mismatch replans
//! (overwriting the entry) instead of serving a wrong plan. A commit or
//! merge installs a new relation for each table it changed and keeps
//! every other table's, so it invalidates exactly the plans that scan a
//! table it wrote; and since an entry holds the `Arc`s it was bound to,
//! no address it compares against can be reused while it exists. This
//! is the one place that decides whether a cached plan still holds. A
//! hit skips bind→DPccp→lowering and goes straight to the cheap
//! per-run pipeline compile. Capacity 0 turns it off: nothing is looked
//! up or counted, and every execution reports
//! [`CacheDisposition::Bypass`].
//!
//! Planning happens *under* the session's cache lock, which makes cold
//! planning single-flight: N concurrent clients racing one cold shape
//! produce exactly one plan and N−1 hits. A query that terminates
//! `Failed` evicts its plan entry (counted in
//! [`CacheStats::plan_poisoned`]) so a poisoned plan is never served
//! from cache; the next submission of that shape replans from scratch.
//!
//! This module holds the data structures and their counting; the order
//! they are consulted in is [`crate::Session::execute`]'s.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use morsel_exec::Plan;
use morsel_planner::PlanHandle;
use morsel_sql::normalize::same_literals;
use morsel_sql::{LiteralValue, ShapeKey};
use morsel_storage::{Batch, Catalog, Relation};

use crate::service::QueryReport;

// ------------------------------------------------------------ counters

/// Live cache counters, shared between a session and (optionally) the
/// [`crate::QueryService`] it executes through, so [`crate::ServiceReport`]
/// can include them at shutdown.
#[derive(Debug, Default)]
pub struct CacheCounters {
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_evictions: AtomicU64,
    /// Guard mismatches: shape present but its literals differed or a
    /// relation it scans is no longer in the catalog, forcing a replan
    /// (also counted as a miss).
    plan_invalidations: AtomicU64,
    /// Entries evicted because their query failed.
    plan_poisoned: AtomicU64,
}

impl CacheCounters {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot for reporting (individual counters
    /// are exact; cross-counter sums can lag in-flight updates).
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_evictions: self.plan_evictions.load(Ordering::Relaxed),
            plan_invalidations: self.plan_invalidations.load(Ordering::Relaxed),
            plan_poisoned: self.plan_poisoned.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time cache statistics (see [`CacheCounters::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub plan_invalidations: u64,
    pub plan_poisoned: u64,
}

impl CacheStats {
    /// Total plan-cache lookups (hits + misses).
    pub fn plan_lookups(&self) -> u64 {
        self.plan_hits + self.plan_misses
    }

    /// Fraction of plan lookups served from cache (0 when none ran).
    pub fn plan_hit_rate(&self) -> f64 {
        match self.plan_lookups() {
            0 => 0.0,
            n => self.plan_hits as f64 / n as f64,
        }
    }

    /// Did any cached lookup happen at all?
    pub fn is_active(&self) -> bool {
        self.plan_lookups() > 0
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan cache: {} hit / {} miss ({:.1}% hit rate, {} evicted, \
             {} invalidated, {} poisoned)",
            self.plan_hits,
            self.plan_misses,
            self.plan_hit_rate() * 100.0,
            self.plan_evictions,
            self.plan_invalidations,
            self.plan_poisoned,
        )
    }
}

// ------------------------------------------------------- cache bodies

/// How one execution interacted with a cache layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    Hit,
    Miss,
    /// The layer was disabled (plan-cache capacity 0).
    Bypass,
}

/// One completed `SELECT` through [`crate::Session::execute`].
#[derive(Debug, Clone)]
pub struct SqlExecution {
    /// The service's terminal report (outcome, latency, priority).
    pub report: QueryReport,
    /// The result batch, when the query completed.
    pub rows: Option<Batch>,
    /// Whether the physical plan came from the plan cache.
    pub plan_cache: CacheDisposition,
    /// Time spent in parse + cache lookup + (on a miss) bind/plan.
    pub plan_ns: u64,
}

/// Default plan-cache capacity (distinct shapes retained).
pub const PLAN_CACHE_CAPACITY_DEFAULT: usize = 64;

/// A cached plan with what it is only valid under. A shape hit alone is
/// not enough: the plan embeds folded constants (the literal vector) and
/// the relations its scans read, with their statistics.
struct PlanEntry {
    literals: Vec<LiteralValue>,
    /// The relations the plan's `Plan::Scan` nodes hold.
    scans: Vec<Arc<Relation>>,
    handle: PlanHandle,
    last_used: u64,
}

impl PlanEntry {
    /// Does this plan still hold for `literals` against `catalog`?
    fn holds(&self, literals: &[LiteralValue], catalog: &Catalog) -> bool {
        same_literals(&self.literals, literals)
            && (self.scans.iter()).all(|scan| catalog.iter().any(|(_, rel)| Arc::ptr_eq(rel, scan)))
    }
}

/// The session's plan cache behind its one cache lock: a bounded
/// shape → plan LRU (small by design — tens of entries; the eviction
/// scan is O(len) and irrelevant next to a single DPccp run). Every
/// method counts what it did.
pub(crate) struct SessionCaches {
    capacity: usize,
    clock: u64,
    plans: HashMap<ShapeKey, PlanEntry>,
    counters: Arc<CacheCounters>,
}

impl SessionCaches {
    pub(crate) fn new(capacity: usize, counters: Arc<CacheCounters>) -> Self {
        SessionCaches {
            capacity,
            clock: 0,
            plans: HashMap::new(),
            counters,
        }
    }

    /// The plan cached for `key`, if it still holds for `literals`
    /// against `catalog` ([`PlanEntry::holds`]). Anything else is a miss;
    /// a present-but-mismatched entry is also an invalidation (the caller
    /// replans and overwrites it).
    pub(crate) fn lookup_plan(
        &mut self,
        key: &ShapeKey,
        literals: &[LiteralValue],
        catalog: &Catalog,
    ) -> Option<PlanHandle> {
        self.clock += 1;
        if let Some(entry) = self.plans.get_mut(key) {
            if entry.holds(literals, catalog) {
                entry.last_used = self.clock;
                CacheCounters::bump(&self.counters.plan_hits);
                return Some(entry.handle.clone());
            }
            CacheCounters::bump(&self.counters.plan_invalidations);
        }
        CacheCounters::bump(&self.counters.plan_misses);
        None
    }

    /// Cache `handle` under `key`, evicting the least-recently used
    /// shape when a new one would exceed the capacity.
    pub(crate) fn insert_plan(
        &mut self,
        key: ShapeKey,
        literals: Vec<LiteralValue>,
        handle: PlanHandle,
    ) {
        if !self.plans.contains_key(&key) && self.plans.len() >= self.capacity {
            let oldest = self.plans.iter().min_by_key(|(_, e)| e.last_used);
            if let Some(oldest) = oldest.map(|(k, _)| k.clone()) {
                self.plans.remove(&oldest);
                CacheCounters::bump(&self.counters.plan_evictions);
            }
        }
        let scans = (handle.plan.preorder().into_iter())
            .filter_map(|(_, node)| match node {
                Plan::Scan { relation, .. } => Some(Arc::clone(relation)),
                _ => None,
            })
            .collect();
        let entry = PlanEntry {
            literals,
            scans,
            handle,
            last_used: self.clock,
        };
        self.plans.insert(key, entry);
    }

    /// Never retain a plan whose execution failed: drop the entry for
    /// `key` if it still holds these literals, so the next submission
    /// of the shape replans cold.
    pub(crate) fn evict_poisoned(&mut self, key: &ShapeKey, literals: &[LiteralValue]) {
        if (self.plans.get(key)).is_some_and(|e| same_literals(&e.literals, literals)) {
            self.plans.remove(key);
            CacheCounters::bump(&self.counters.plan_poisoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_math() {
        let counters = CacheCounters::default();
        counters.plan_hits.store(9, Ordering::Relaxed);
        counters.plan_misses.store(1, Ordering::Relaxed);
        let stats = counters.snapshot();
        assert_eq!(stats.plan_lookups(), 10);
        assert!((stats.plan_hit_rate() - 0.9).abs() < 1e-12);
        assert!(stats.is_active());
        assert!(stats.to_string().contains("90.0% hit rate"));
        assert!(!CacheStats::default().is_active());
        assert_eq!(CacheStats::default().plan_hit_rate(), 0.0);
    }
}
