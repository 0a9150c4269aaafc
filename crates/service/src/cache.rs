//! Prepared statements and the session's plan / result caches.
//!
//! [`crate::Session`] owns three layers over its catalog, each
//! skippable, each observable through [`CacheCounters`]:
//!
//! 1. **Prepared statements** — [`crate::Session::prepare`] lexes and
//!    parses once; [`crate::Session::execute_prepared`] splices
//!    [`LiteralValue`] parameters over the `?`/`$n` placeholders and
//!    continues down the same path as ad-hoc text.
//! 2. **Plan cache** — a bounded LRU keyed on the normalized
//!    [`ShapeKey`] (literals stripped, whitespace- and
//!    table-alias-insensitive; see `morsel_sql::normalize`). Because
//!    physical plans embed folded constants and literal-dependent
//!    cardinality estimates, a shape hit alone is *not* sufficient:
//!    every entry also guards on the exact literal vector and the
//!    catalog version it was planned under, and a guard mismatch
//!    replans (overwriting the entry) instead of serving a wrong plan.
//!    A hit skips bind→DPsize→lowering and goes straight to the cheap
//!    per-run pipeline compile.
//! 3. **Result cache** (opt-in) — completed aggregate results keyed on
//!    the full canonical query text plus the catalog version. Explicit
//!    invalidation: [`crate::Session::update_catalog`] and every commit
//!    or merge (they move the version, so stale entries can never be
//!    served) and [`crate::Session::invalidate_results`] (drops
//!    everything now).
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

use morsel_planner::PlanHandle;
use morsel_sql::normalize::{param_count, same_literals, shape_of};
use morsel_sql::{parse, LiteralValue, Select, ShapeKey, SqlError};
use morsel_storage::Batch;

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
    /// Guard mismatches: shape present but literals or catalog version
    /// differed, forcing a replan (also counted as a miss).
    plan_invalidations: AtomicU64,
    /// Entries evicted because their query failed.
    plan_poisoned: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    result_invalidations: AtomicU64,
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
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            result_invalidations: self.result_invalidations.load(Ordering::Relaxed),
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
    pub result_hits: u64,
    pub result_misses: u64,
    pub result_invalidations: u64,
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
        self.plan_lookups() + self.result_hits + self.result_misses > 0
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan cache: {} hit / {} miss ({:.1}% hit rate, {} evicted, \
             {} invalidated, {} poisoned)  result cache: {} hit / {} miss \
             ({} invalidated)",
            self.plan_hits,
            self.plan_misses,
            self.plan_hit_rate() * 100.0,
            self.plan_evictions,
            self.plan_invalidations,
            self.plan_poisoned,
            self.result_hits,
            self.result_misses,
            self.result_invalidations,
        )
    }
}

// ------------------------------------------------- prepared statements

/// A parsed-once query template with `?` / `$n` placeholders, made by
/// [`crate::Session::prepare`] and run by
/// [`crate::Session::execute_prepared`].
///
/// Preparing stops after the parse: binding needs concrete literal
/// types (the binder constant-folds dates and validates comparisons),
/// so name resolution and planning happen on first execution — and are
/// then amortized by the plan cache, since a template and every query
/// bound from it share one [`ShapeKey`].
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    template: Select,
    shape: ShapeKey,
    params: usize,
}

impl PreparedStatement {
    /// Parse `sql` into a template. Placeholder arity is fixed here;
    /// names and types are validated on first execution.
    pub(crate) fn parse(sql: &str) -> Result<Self, SqlError> {
        let template = parse(sql)?;
        let (shape, _) = shape_of(&template);
        let params = param_count(&template);
        Ok(PreparedStatement {
            template,
            shape,
            params,
        })
    }

    pub(crate) fn template(&self) -> &Select {
        &self.template
    }

    /// Number of parameter values [`crate::Session::execute_prepared`]
    /// expects.
    pub fn param_count(&self) -> usize {
        self.params
    }

    /// The normalized plan-cache key this statement executes under.
    pub fn shape(&self) -> &ShapeKey {
        &self.shape
    }

    /// The canonical text of the template (placeholders print as `$n`).
    pub fn text(&self) -> String {
        self.template.to_string()
    }
}

// ------------------------------------------------------- cache bodies

/// How one execution interacted with a cache layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    Hit,
    Miss,
    /// The layer was disabled or the query was ineligible for it.
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
    /// Whether the rows came from the result cache.
    pub result_cache: CacheDisposition,
    /// Time spent in parse + cache lookup + (on a miss) bind/plan.
    pub plan_ns: u64,
}

/// Default plan-cache capacity (distinct shapes retained).
pub const PLAN_CACHE_CAPACITY_DEFAULT: usize = 64;

/// What a cached plan is only valid under. A shape hit alone is not
/// enough: the plan embeds folded constants (the literal vector, held
/// beside the guard), relations (the catalog version) and
/// selectivity-dependent choices (the feedback epoch; 0 when the
/// session has no feedback cache). New runtime observations bump the
/// epoch — a plan chosen under stale selectivities is as wrong as one
/// bound to a stale catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanGuard {
    pub catalog_version: u64,
    pub feedback_epoch: u64,
}

struct PlanEntry {
    literals: Vec<LiteralValue>,
    guard: PlanGuard,
    handle: PlanHandle,
    last_used: u64,
}

struct ResultEntry {
    catalog_version: u64,
    rows: Batch,
}

/// The session's two caches behind its one cache lock: a bounded
/// shape → plan LRU (small by design — tens of entries; the eviction
/// scan is O(len) and irrelevant next to a single DPsize run) and the
/// canonical-text → rows result cache. Every method counts what it did.
pub(crate) struct SessionCaches {
    capacity: usize,
    clock: u64,
    plans: HashMap<ShapeKey, PlanEntry>,
    results: HashMap<String, ResultEntry>,
    counters: Arc<CacheCounters>,
}

impl SessionCaches {
    pub(crate) fn new(capacity: usize, counters: Arc<CacheCounters>) -> Self {
        SessionCaches {
            capacity,
            clock: 0,
            plans: HashMap::new(),
            results: HashMap::new(),
            counters,
        }
    }

    /// The plan cached for `key`, if its literals and guard still
    /// match. Anything else is a miss; a present-but-mismatched entry
    /// is also an invalidation (the caller replans and overwrites it).
    pub(crate) fn lookup_plan(
        &mut self,
        key: &ShapeKey,
        literals: &[LiteralValue],
        guard: PlanGuard,
    ) -> Option<PlanHandle> {
        self.clock += 1;
        if let Some(entry) = self.plans.get_mut(key) {
            if entry.guard == guard && same_literals(&entry.literals, literals) {
                entry.last_used = self.clock;
                CacheCounters::bump(&self.counters.plan_hits);
                return Some(entry.handle.clone());
            }
            CacheCounters::bump(&self.counters.plan_invalidations);
        }
        CacheCounters::bump(&self.counters.plan_misses);
        None
    }

    /// The lookup of a cache that holds nothing (capacity 0): a miss.
    pub(crate) fn miss(&mut self) -> Option<PlanHandle> {
        CacheCounters::bump(&self.counters.plan_misses);
        None
    }

    /// Cache `handle` under `key`, evicting the least-recently used
    /// shape when a new one would exceed the capacity.
    pub(crate) fn insert_plan(
        &mut self,
        key: ShapeKey,
        literals: Vec<LiteralValue>,
        guard: PlanGuard,
        handle: PlanHandle,
    ) {
        if !self.plans.contains_key(&key) && self.plans.len() >= self.capacity {
            let oldest = self.plans.iter().min_by_key(|(_, e)| e.last_used);
            if let Some(oldest) = oldest.map(|(k, _)| k.clone()) {
                self.plans.remove(&oldest);
                CacheCounters::bump(&self.counters.plan_evictions);
            }
        }
        let entry = PlanEntry {
            literals,
            guard,
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

    /// The rows cached for `text` at `catalog_version`. An entry from
    /// another version is dropped now rather than served ever again.
    pub(crate) fn lookup_result(&mut self, text: &str, catalog_version: u64) -> Option<Batch> {
        match self.results.get(text) {
            Some(entry) if entry.catalog_version == catalog_version => {
                CacheCounters::bump(&self.counters.result_hits);
                return Some(entry.rows.clone());
            }
            Some(_) => {
                self.results.remove(text);
                CacheCounters::bump(&self.counters.result_invalidations);
            }
            None => {}
        }
        CacheCounters::bump(&self.counters.result_misses);
        None
    }

    pub(crate) fn insert_result(&mut self, text: String, catalog_version: u64, rows: Batch) {
        let entry = ResultEntry {
            catalog_version,
            rows,
        };
        self.results.insert(text, entry);
    }

    /// Drop every cached result now (counted per entry dropped).
    pub(crate) fn clear_results(&mut self) {
        let dropped = self.results.len() as u64;
        self.results.clear();
        (self.counters.result_invalidations).fetch_add(dropped, Ordering::Relaxed);
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
