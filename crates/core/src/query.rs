//! Queries: stage sequences, handles, and per-query state.
//!
//! A query is a sequence of pipeline *stages* executed one after another
//! (the paper deliberately avoids bushy parallelism — Section 3.2: "we
//! first execute pipeline T, and only after T is finished, the job for
//! pipeline S is added"). The QEP state machine that observes dependencies
//! is `Dispatcher::advance` in [`crate::dispatcher`]; it is passive and runs on
//! whichever worker drained the previous pipeline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use morsel_numa::AccessCounters;
use morsel_storage::Batch;
use parking_lot::Mutex;

use crate::env::ExecEnv;
use crate::fault::FaultInjector;
use crate::govern::{EngineError, MemBudget};
use crate::job::BuiltJob;
use crate::profile::{ProfileSlots, QueryProfile};

/// One pipeline stage of a query: a label and the closure that builds its
/// job. Built exactly once, when all previous stages have completed, on a
/// worker thread.
pub struct Stage {
    label: String,
    build: BuildFn,
}

/// Builds a stage's job from the environment and the worker count.
type BuildFn = Box<dyn FnOnce(&ExecEnv, usize) -> BuiltJob + Send>;

impl Stage {
    pub fn new(
        label: impl Into<String>,
        build: impl FnOnce(&ExecEnv, usize) -> BuiltJob + Send + 'static,
    ) -> Self {
        Stage {
            label: label.into(),
            build: Box::new(build),
        }
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    pub fn build(self, env: &ExecEnv, workers: usize) -> BuiltJob {
        (self.build)(env, workers)
    }
}

/// A slot for a query's final result, shared between the final stage (the
/// producer) and the caller holding the [`QueryHandle`].
pub type ResultSlot = Arc<Mutex<Option<Batch>>>;

/// Create an empty result slot.
pub fn result_slot() -> ResultSlot {
    Arc::new(Mutex::new(None))
}

/// A ready-to-run query.
pub struct QuerySpec {
    pub name: String,
    pub priority: u32,
    pub stages: Vec<Stage>,
    pub result: ResultSlot,
    /// When the query was *submitted* by its client, in executor
    /// nanoseconds (virtual or wall clock). Defaults to the dispatch time;
    /// a service front end that queues queries before dispatching sets it
    /// explicitly so that priority aging and end-to-end latency measure
    /// from submission, not admission.
    pub submitted_ns: Option<u64>,
    /// Absolute deadline in executor nanoseconds. The dispatcher cancels
    /// the query cooperatively (at the next morsel boundary) once the
    /// clock passes it.
    pub deadline_ns: Option<u64>,
    /// Per-query memory cap in bytes. Reservations beyond it raise
    /// [`crate::EngineError::ResourceExhausted`] and the query fails at
    /// the next morsel boundary. `None` means pool-limited only.
    pub mem_cap: Option<u64>,
    /// Operator labels for runtime profiling, in explain (pre-order,
    /// probe-first) plan order. Non-empty ⇒ the dispatcher allocates a
    /// [`ProfileSlots`] table at submit time and operators record
    /// per-morsel counters into it; empty ⇒ profiling is off for this
    /// query and every recording call is a no-op.
    pub profile_ops: Vec<String>,
}

impl QuerySpec {
    pub fn new(name: impl Into<String>, stages: Vec<Stage>, result: ResultSlot) -> Self {
        QuerySpec {
            name: name.into(),
            priority: 1,
            stages,
            result,
            submitted_ns: None,
            deadline_ns: None,
            mem_cap: None,
            profile_ops: Vec::new(),
        }
    }

    pub fn with_priority(mut self, priority: u32) -> Self {
        assert!(priority > 0, "priority must be positive");
        self.priority = priority;
        self
    }

    /// Stamp the client-side submission time (see [`QuerySpec::submitted_ns`]).
    pub fn with_submitted_at(mut self, submitted_ns: u64) -> Self {
        self.submitted_ns = Some(submitted_ns);
        self
    }

    /// Set an absolute cancellation deadline (see [`QuerySpec::deadline_ns`]).
    pub fn with_deadline_ns(mut self, deadline_ns: u64) -> Self {
        self.deadline_ns = Some(deadline_ns);
        self
    }

    /// Cap this query's memory reservations (see [`QuerySpec::mem_cap`]).
    pub fn with_mem_cap(mut self, bytes: u64) -> Self {
        self.mem_cap = Some(bytes);
        self
    }

    /// Enable per-operator profiling with these slot labels (see
    /// [`QuerySpec::profile_ops`]).
    pub fn with_profile_ops(mut self, labels: Vec<String>) -> Self {
        self.profile_ops = labels;
        self
    }
}

/// Why admission control refused a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Both the in-flight bound and the wait queue were full.
    QueueFull,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RejectReason::QueueFull => "queue full",
        })
    }
}

/// Why a dispatched query failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailReason {
    /// A memory reservation exceeded the per-query cap or the shared
    /// pool; the query unwound at the next morsel boundary with every
    /// reservation released.
    ResourceExhausted,
    /// An operator panicked; the panic was contained at the morsel
    /// boundary and only this query failed. The rendered message is
    /// available via [`QueryHandle::failure`].
    OperatorPanic,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailReason::ResourceExhausted => "resource exhausted",
            FailReason::OperatorPanic => "operator panic",
        })
    }
}

/// Terminal state of a query, as reported to service clients.
///
/// The dispatcher itself produces [`Completed`](QueryOutcome::Completed),
/// [`Cancelled`](QueryOutcome::Cancelled) (deadline expiry and explicit
/// [`QueryHandle::cancel`] both surface as `Cancelled`), and
/// [`Failed`](QueryOutcome::Failed) (contained operator panics and
/// exhausted memory budgets); [`Rejected`](QueryOutcome::Rejected) is
/// produced by an admission-control layer such as `morsel-service` when
/// a query is refused before dispatch.
///
/// When causes race, the *first* cause wins: a query cancelled by its
/// deadline and then hit by a panic reports `Cancelled`, not `Failed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryOutcome {
    /// Ran all stages and produced its result.
    Completed,
    /// Stopped at a morsel boundary before finishing (explicit cancel or
    /// deadline expiry); no result was produced.
    Cancelled,
    /// Refused by admission control; never dispatched.
    Rejected(RejectReason),
    /// Dispatched but failed: its fault was contained and the rest of
    /// the service kept running.
    Failed(FailReason),
}

impl std::fmt::Display for QueryOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryOutcome::Completed => f.write_str("completed"),
            QueryOutcome::Cancelled => f.write_str("cancelled"),
            QueryOutcome::Rejected(reason) => write!(f, "rejected ({reason})"),
            QueryOutcome::Failed(reason) => write!(f, "failed ({reason})"),
        }
    }
}

/// Timing and scheduling statistics for one query.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Virtual (sim) or wall (threaded) nanoseconds.
    pub started_ns: u64,
    pub finished_ns: u64,
    pub morsels: u64,
    pub stolen_morsels: u64,
}

impl QueryStats {
    pub fn elapsed_ns(&self) -> u64 {
        self.finished_ns.saturating_sub(self.started_ns)
    }

    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed_ns() as f64 / 1e9
    }
}

/// State shared between the dispatcher and the caller.
pub struct QueryShared {
    pub name: String,
    /// Base scheduling priority, fixed at submit.
    pub priority: u32,
    pub cancelled: AtomicBool,
    pub done: AtomicBool,
    pub result: ResultSlot,
    /// Per-query traffic counters (the Table 1 per-query statistics).
    pub counters: AccessCounters,
    pub stats: Mutex<QueryStats>,
    /// Client submission time (executor nanoseconds), fixed at submit;
    /// the base for priority aging and end-to-end latency.
    pub submitted_ns: u64,
    /// Absolute cancellation deadline, fixed at submit; `u64::MAX`
    /// means none.
    pub deadline_ns: u64,
    /// Per-query memory ledger; closed and drained when the query retires.
    pub budget: MemBudget,
    /// First failure cause, if the query failed rather than being
    /// cancelled. Written at most once, by [`QueryShared::fail`].
    pub failure: Mutex<Option<(FailReason, String)>>,
    /// Per-operator runtime counters, if profiling is enabled for this
    /// query (see [`QuerySpec::profile_ops`]).
    pub profile: Option<Arc<ProfileSlots>>,
}

impl QueryShared {
    /// Mark the query failed with `reason` unless it was already being
    /// torn down. First cause wins: if the cancelled flag is already set
    /// (deadline expiry, explicit cancel, or an earlier failure), this
    /// is a no-op and the earlier cause decides the outcome. On the
    /// winning path the failure is recorded *before* downstream
    /// observers can see `done`, because teardown itself is gated on the
    /// cancelled flag this CAS sets.
    pub fn fail(&self, reason: FailReason, message: impl Into<String>) {
        if self
            .cancelled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            *self.failure.lock() = Some((reason, message.into()));
        }
    }

    /// Reserve `bytes` against this query's budget, honoring injected
    /// allocation faults. On failure the query is marked failed
    /// ([`FailReason::ResourceExhausted`]) so it unwinds cooperatively
    /// at the next morsel boundary; the caller should stop its current
    /// unit of work.
    pub fn try_reserve(&self, bytes: u64, faults: &FaultInjector) -> Result<(), EngineError> {
        let res = if faults.on_alloc(&self.name) {
            Err(EngineError::ResourceExhausted {
                requested: bytes,
                reserved: self.budget.reserved(),
                limit: 0,
            })
        } else {
            self.budget.try_reserve(bytes)
        };
        if let Err(err) = &res {
            self.fail(FailReason::ResourceExhausted, err.to_string());
        }
        res
    }
}

/// Caller-facing handle: inspect results and outcome, cancel.
#[derive(Clone)]
pub struct QueryHandle {
    pub(crate) shared: Arc<QueryShared>,
}

impl QueryHandle {
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    pub fn is_done(&self) -> bool {
        self.shared.done.load(Ordering::Acquire)
    }

    pub fn is_cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Acquire)
    }

    /// Mark the query cancelled; workers stop at the next morsel boundary
    /// (Section 3.2's cooperative cancellation).
    pub fn cancel(&self) {
        self.shared.cancelled.store(true, Ordering::Release);
    }

    pub fn priority(&self) -> u32 {
        self.shared.priority
    }

    /// Client submission time (executor nanoseconds).
    pub fn submitted_ns(&self) -> u64 {
        self.shared.submitted_ns
    }

    /// The absolute cancellation deadline, if one was set.
    pub fn deadline_ns(&self) -> Option<u64> {
        match self.shared.deadline_ns {
            u64::MAX => None,
            d => Some(d),
        }
    }

    /// Terminal outcome, or `None` while the query is still running. A
    /// handle never reports [`QueryOutcome::Rejected`]: rejection happens
    /// in admission control, before a handle exists. A query that both
    /// failed and was cancelled reports whichever cause came first (see
    /// [`QueryShared::fail`]).
    pub fn outcome(&self) -> Option<QueryOutcome> {
        if !self.is_done() {
            None
        } else if let Some((reason, _)) = self.shared.failure.lock().as_ref() {
            Some(QueryOutcome::Failed(*reason))
        } else if self.is_cancelled() {
            Some(QueryOutcome::Cancelled)
        } else {
            Some(QueryOutcome::Completed)
        }
    }

    /// The recorded failure cause and message, if the query failed.
    pub fn failure(&self) -> Option<(FailReason, String)> {
        self.shared.failure.lock().clone()
    }

    /// Bytes currently reserved by this query's memory budget.
    pub fn mem_reserved(&self) -> u64 {
        self.shared.budget.reserved()
    }

    /// Take the result batch, if the query completed and produced one.
    pub fn take_result(&self) -> Option<Batch> {
        self.shared.result.lock().take()
    }

    pub fn stats(&self) -> QueryStats {
        self.shared.stats.lock().clone()
    }

    /// Per-query memory traffic snapshot.
    pub fn traffic(&self) -> morsel_numa::TrafficSnapshot {
        self.shared.counters.snapshot()
    }

    /// Merged per-operator runtime profile, if profiling was enabled for
    /// this query. Valid any time; stable once the query is done.
    pub fn profile(&self) -> Option<QueryProfile> {
        self.shared.profile.as_ref().map(|slots| {
            let mut p = slots.snapshot();
            p.peak_reserved_bytes = self.shared.budget.peak();
            p
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morsel_numa::Topology;

    fn shared() -> Arc<QueryShared> {
        shared_with_deadline(u64::MAX)
    }

    fn shared_with_deadline(deadline_ns: u64) -> Arc<QueryShared> {
        let topo = Topology::laptop();
        Arc::new(QueryShared {
            name: "q".into(),
            priority: 1,
            cancelled: AtomicBool::new(false),
            done: AtomicBool::new(false),
            result: result_slot(),
            counters: AccessCounters::new(&topo),
            stats: Mutex::new(QueryStats::default()),
            submitted_ns: 0,
            deadline_ns,
            budget: MemBudget::unlimited(),
            failure: Mutex::new(None),
            profile: None,
        })
    }

    #[test]
    fn handle_controls() {
        let h = QueryHandle { shared: shared() };
        assert!(!h.is_done());
        assert!(!h.is_cancelled());
        h.cancel();
        assert!(h.is_cancelled());
        assert_eq!(h.priority(), 1);
        assert_eq!(h.name(), "q");
    }

    #[test]
    fn result_slot_roundtrip() {
        let h = QueryHandle { shared: shared() };
        assert!(h.take_result().is_none());
        *h.shared.result.lock() = Some(Batch::default());
        assert!(h.take_result().is_some());
        assert!(h.take_result().is_none(), "take consumes");
    }

    #[test]
    fn stats_elapsed() {
        let s = QueryStats {
            started_ns: 100,
            finished_ns: 1100,
            morsels: 3,
            stolen_morsels: 1,
        };
        assert_eq!(s.elapsed_ns(), 1000);
        assert!((s.elapsed_secs() - 1e-6).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "priority must be positive")]
    fn zero_priority_rejected() {
        let _ = QuerySpec::new("q", vec![], result_slot()).with_priority(0);
    }

    #[test]
    fn spec_builders_set_timestamps() {
        let s = QuerySpec::new("q", vec![], result_slot())
            .with_priority(3)
            .with_submitted_at(17)
            .with_deadline_ns(99);
        assert_eq!(s.priority, 3);
        assert_eq!(s.submitted_ns, Some(17));
        assert_eq!(s.deadline_ns, Some(99));
        let fresh = QuerySpec::new("q", vec![], result_slot());
        assert_eq!(fresh.submitted_ns, None);
        assert_eq!(fresh.deadline_ns, None);
    }

    #[test]
    fn outcome_tracks_done_and_cancelled() {
        let h = QueryHandle { shared: shared() };
        assert_eq!(h.outcome(), None);
        h.shared.done.store(true, Ordering::Release);
        assert_eq!(h.outcome(), Some(QueryOutcome::Completed));
        h.cancel();
        assert_eq!(h.outcome(), Some(QueryOutcome::Cancelled));
        assert_eq!(
            QueryOutcome::Rejected(RejectReason::QueueFull).to_string(),
            "rejected (queue full)"
        );
        assert_eq!(
            QueryOutcome::Failed(FailReason::OperatorPanic).to_string(),
            "failed (operator panic)"
        );
        assert_eq!(
            QueryOutcome::Failed(FailReason::ResourceExhausted).to_string(),
            "failed (resource exhausted)"
        );
    }

    #[test]
    fn first_failure_cause_wins() {
        // Panic first, deadline-style cancel second: Failed.
        let h = QueryHandle { shared: shared() };
        h.shared.fail(FailReason::OperatorPanic, "boom");
        h.cancel();
        h.shared.done.store(true, Ordering::Release);
        assert_eq!(
            h.outcome(),
            Some(QueryOutcome::Failed(FailReason::OperatorPanic))
        );
        let (reason, msg) = h.failure().unwrap();
        assert_eq!(reason, FailReason::OperatorPanic);
        assert_eq!(msg, "boom");

        // Cancel first (deadline fired), panic second: Cancelled.
        let h = QueryHandle { shared: shared() };
        h.cancel();
        h.shared.fail(FailReason::OperatorPanic, "late panic");
        h.shared.done.store(true, Ordering::Release);
        assert_eq!(h.outcome(), Some(QueryOutcome::Cancelled));
        assert!(h.failure().is_none());

        // Two failures: the first reason sticks.
        let h = QueryHandle { shared: shared() };
        h.shared.fail(FailReason::ResourceExhausted, "oom");
        h.shared.fail(FailReason::OperatorPanic, "boom");
        h.shared.done.store(true, Ordering::Release);
        assert_eq!(
            h.outcome(),
            Some(QueryOutcome::Failed(FailReason::ResourceExhausted))
        );
    }

    #[test]
    fn shared_try_reserve_enforces_budget_and_fails_query() {
        use crate::fault::{FaultInjector, FaultPlan};
        let topo = Topology::laptop();
        let shared = Arc::new(QueryShared {
            name: "q".into(),
            priority: 1,
            cancelled: AtomicBool::new(false),
            done: AtomicBool::new(false),
            result: result_slot(),
            counters: AccessCounters::new(&topo),
            stats: Mutex::new(QueryStats::default()),
            submitted_ns: 0,
            deadline_ns: u64::MAX,
            budget: MemBudget::new(Some(100), None),
            failure: Mutex::new(None),
            profile: None,
        });
        let inert = FaultInjector::default();
        assert!(shared.try_reserve(60, &inert).is_ok());
        assert!(shared.try_reserve(60, &inert).is_err());
        assert!(shared.cancelled.load(Ordering::Acquire), "failure cancels");
        shared.done.store(true, Ordering::Release);
        let h = QueryHandle {
            shared: Arc::clone(&shared),
        };
        assert_eq!(
            h.outcome(),
            Some(QueryOutcome::Failed(FailReason::ResourceExhausted))
        );

        // An injected allocation fault fails a reservation that fits.
        let plan: FaultPlan = "alloc@q2#0".parse().unwrap();
        let faulty = FaultInjector::new(plan);
        let shared2 = Arc::new(QueryShared {
            name: "q2".into(),
            priority: 1,
            cancelled: AtomicBool::new(false),
            done: AtomicBool::new(false),
            result: result_slot(),
            counters: AccessCounters::new(&topo),
            stats: Mutex::new(QueryStats::default()),
            submitted_ns: 0,
            deadline_ns: u64::MAX,
            budget: MemBudget::unlimited(),
            failure: Mutex::new(None),
            profile: None,
        });
        assert!(shared2.try_reserve(1, &faulty).is_err());
        assert_eq!(shared2.budget.reserved(), 0);
    }

    #[test]
    fn handle_reports_deadline() {
        let h = QueryHandle { shared: shared() };
        assert_eq!(h.deadline_ns(), None);
        let h = QueryHandle {
            shared: shared_with_deadline(123),
        };
        assert_eq!(h.deadline_ns(), Some(123));
        assert_eq!(h.submitted_ns(), 0);
    }
}
