//! The query service: a long-lived front end over the morsel-driven
//! dispatcher.
//!
//! [`QueryService::start`] starts a [`WorkerPool`] — `morsel-core`'s one
//! threaded runtime, the paper's worker loop (request a task, run it to
//! the morsel boundary, report completion) over a single shared
//! dispatcher — and plugs the service's housekeeping into it as the
//! pool's [`PoolHook`]. Clients submit
//! [`QueryRequest`]s from any thread and get back a [`QueryTicket`]; the
//! service applies admission control ([`crate::admission`]), enforces
//! deadlines (queued queries expire in the wait queue, dispatched ones
//! are cancelled cooperatively by the dispatcher at morsel boundaries),
//! and records per-priority end-to-end latency histograms plus aggregate
//! throughput, reported by [`QueryService::shutdown`] as a
//! [`ServiceReport`].
//!
//! End-to-end latency is measured from *submission* (including any time
//! spent waiting for admission) to completion, on the pool's monotonic
//! clock ([`Pool::now_ns`]). The same clock feeds the dispatcher, so
//! priority aging and deadlines use identical timestamps.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use morsel_core::{
    validate_exposition, AgingPolicy, DispatchConfig, ExecEnv, MemPool, MetricsRegistry, Pool,
    PoolHook, QueryHandle, QueryOutcome, QueryProfile, QuerySpec, RejectReason, WorkerPool,
    DEFAULT_MORSEL_SIZE,
};
use parking_lot::Mutex;

use crate::admission::{AdmissionConfig, AdmissionDecision, AdmissionQueue};
use crate::cache::{CacheCounters, CacheStats};
use crate::histogram::{fmt_ns, LatencyHistogram};

/// Service-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing morsels.
    pub workers: usize,
    pub morsel_size: usize,
    /// Maximum queries dispatched concurrently (admission bound).
    pub max_in_flight: usize,
    /// Maximum queries waiting beyond the bound; further submissions are
    /// rejected.
    pub max_queue: usize,
    /// Priority aging, applied both to admission order and to the
    /// dispatcher's share computation.
    pub aging: AgingPolicy,
    /// Service-wide memory pool capacity in bytes. When set, the service
    /// installs a [`MemPool`] of this size on the execution environment
    /// (unless the environment already carries one) and uses its
    /// headroom for pressure-aware admission: under pressure, new
    /// submissions bypass the immediate-dispatch fast path and the
    /// lowest-priority waiter is shed per housekeeping pass with
    /// [`RejectReason::MemoryPressure`].
    pub mem_pool_bytes: Option<u64>,
}

impl ServiceConfig {
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "service needs at least one worker");
        ServiceConfig {
            workers,
            morsel_size: DEFAULT_MORSEL_SIZE,
            max_in_flight: workers.max(2),
            max_queue: 256,
            aging: AgingPolicy::none(),
            mem_pool_bytes: None,
        }
    }

    pub fn with_morsel_size(mut self, size: usize) -> Self {
        assert!(size > 0, "morsel size must be positive");
        self.morsel_size = size;
        self
    }

    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        assert!(max_in_flight > 0, "in-flight bound must be positive");
        self.max_in_flight = max_in_flight;
        self
    }

    pub fn with_max_queue(mut self, max_queue: usize) -> Self {
        self.max_queue = max_queue;
        self
    }

    pub fn with_aging(mut self, aging: AgingPolicy) -> Self {
        self.aging = aging;
        self
    }

    pub fn with_mem_pool_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "memory pool must be non-empty");
        self.mem_pool_bytes = Some(bytes);
        self
    }
}

/// One query submission: the compiled spec plus service-level options.
pub struct QueryRequest {
    pub spec: QuerySpec,
    /// Cancel the query if it has not completed within this much time of
    /// its submission (covers queue wait *and* execution).
    pub deadline: Option<Duration>,
}

impl QueryRequest {
    pub fn new(spec: QuerySpec) -> Self {
        QueryRequest {
            spec,
            deadline: None,
        }
    }

    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Cap this query's memory reservations at `bytes`; exceeding the
    /// cap fails the query with `ResourceExhausted` at the next morsel
    /// boundary instead of aborting anything.
    pub fn with_mem_cap(mut self, bytes: u64) -> Self {
        self.spec = self.spec.with_mem_cap(bytes);
        self
    }
}

/// Terminal report for one query.
#[derive(Debug, Clone)]
pub struct QueryReport {
    pub name: String,
    pub priority: u32,
    pub outcome: QueryOutcome,
    /// Submission-to-termination latency on the pool's clock (0 for
    /// queries rejected at submission, which never wait; waiters shed
    /// under memory pressure record the time they spent queued).
    pub latency_ns: u64,
    /// Per-operator runtime profile, snapshotted when the service reaped
    /// the query (`None` for queries that never dispatched or ran with
    /// profiling disabled).
    pub profile: Option<QueryProfile>,
}

struct TicketState {
    report: Option<QueryReport>,
}

struct TicketInner {
    name: String,
    priority: u32,
    submitted_ns: u64,
    state: StdMutex<TicketState>,
    done: Condvar,
}

impl TicketInner {
    fn finalize(&self, report: QueryReport) {
        let mut st = self.state.lock().unwrap();
        debug_assert!(st.report.is_none(), "ticket finalized twice");
        st.report = Some(report);
        drop(st);
        self.done.notify_all();
    }
}

/// Client-side handle to a submitted query. Cheap to clone; any clone can
/// wait for or poll the outcome.
#[derive(Clone)]
pub struct QueryTicket {
    inner: Arc<TicketInner>,
}

impl QueryTicket {
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    pub fn priority(&self) -> u32 {
        self.inner.priority
    }

    /// Block until the query reaches a terminal state.
    pub fn wait(&self) -> QueryReport {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if let Some(r) = &st.report {
                return r.clone();
            }
            st = self.inner.done.wait(st).unwrap();
        }
    }

    /// The report, if the query already terminated.
    pub fn try_report(&self) -> Option<QueryReport> {
        self.inner.state.lock().unwrap().report.clone()
    }
}

/// A queued-but-not-yet-dispatched query.
struct Pending {
    spec: QuerySpec,
    ticket: Arc<TicketInner>,
}

/// A dispatched query the service is tracking to completion.
struct Running {
    handle: QueryHandle,
    ticket: Arc<TicketInner>,
}

/// Admission queue + in-flight tracking, under one lock so admission
/// decisions and dispatches are atomic.
struct ServiceState {
    admission: AdmissionQueue<Pending>,
    running: Vec<Running>,
}

/// Terminal-outcome counters: one slot per [`QueryOutcome`] variant
/// (reject and failure *reasons* are collapsed; the per-query
/// [`QueryReport`] retains them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    pub completed: u64,
    pub cancelled: u64,
    pub rejected: u64,
    pub failed: u64,
}

impl OutcomeCounts {
    pub fn total(&self) -> u64 {
        self.completed + self.cancelled + self.rejected + self.failed
    }

    fn record(&mut self, outcome: QueryOutcome) {
        match outcome {
            QueryOutcome::Completed => self.completed += 1,
            QueryOutcome::Cancelled => self.cancelled += 1,
            QueryOutcome::Rejected(_) => self.rejected += 1,
            QueryOutcome::Failed(_) => self.failed += 1,
        }
    }
}

/// Execution totals aggregated from per-query profiles at reap time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecTotals {
    /// Queries that terminated with a profile attached.
    pub profiled_queries: u64,
    /// Morsels executed across all profiled queries.
    pub morsels: u64,
    /// Operator batches processed.
    pub batches: u64,
    /// Rows produced, summed over every operator.
    pub rows_out: u64,
    /// Operator wall nanoseconds, summed over workers (exceeds elapsed
    /// time under parallelism).
    pub operator_wall_ns: u64,
}

impl ExecTotals {
    fn absorb(&mut self, profile: &QueryProfile) {
        self.profiled_queries += 1;
        for op in &profile.ops {
            self.morsels += op.morsels;
            self.batches += op.batches;
            self.rows_out += op.rows_out;
            self.operator_wall_ns += op.wall_ns;
        }
    }
}

#[derive(Default)]
struct Metrics {
    totals: OutcomeCounts,
    per_priority: BTreeMap<u32, (OutcomeCounts, LatencyHistogram)>,
    exec: ExecTotals,
}

/// Admission, tickets and metrics: everything the service keeps beyond
/// the pool it runs on, which drives it as the pool's hook.
struct ServiceInner {
    /// The environment's service-wide memory pool, if any (cached off
    /// the env so the hot admission path avoids the indirection).
    mem_pool: Option<Arc<MemPool>>,
    state: Mutex<ServiceState>,
    metrics: Mutex<Metrics>,
    /// Shared cache counters, fed by [`crate::Session`]s built with
    /// [`crate::SessionBuilder::for_service`] and reported at shutdown.
    cache: Arc<CacheCounters>,
}

impl ServiceInner {
    /// Whether admission is currently open: false while the memory pool
    /// is under pressure (little headroom left), at which point new
    /// work queues instead of dispatching and waiters start shedding.
    fn admission_open(&self) -> bool {
        self.mem_pool.as_ref().is_none_or(|p| !p.under_pressure())
    }

    fn finalize(
        &self,
        ticket: &TicketInner,
        outcome: QueryOutcome,
        latency_ns: u64,
        profile: Option<QueryProfile>,
    ) {
        {
            let mut m = self.metrics.lock();
            m.totals.record(outcome);
            if let Some(p) = &profile {
                m.exec.absorb(p);
            }
            let (counts, hist) = m.per_priority.entry(ticket.priority).or_default();
            counts.record(outcome);
            // Latency percentiles stay completed-only: mixing in
            // rejected (latency 0) or failed queries would make the
            // histograms lie about served traffic.
            if outcome == QueryOutcome::Completed {
                hist.record(latency_ns);
            }
        }
        ticket.finalize(QueryReport {
            name: ticket.name.clone(),
            priority: ticket.priority,
            outcome,
            latency_ns,
            profile,
        });
    }
}

impl PoolHook for ServiceInner {
    /// Service housekeeping, run by workers between morsels: reap
    /// finished queries, admit queued ones into freed capacity, and
    /// expire overdue waiters. Ticket finalization *and* dispatching
    /// (which builds the admitted query's first pipeline via
    /// `Stage::build`) happen outside the state lock, so waiting clients
    /// and other workers never contend with a slow plan build; the
    /// admission counters taken under the lock keep the capacity
    /// accounting (and the drain check) exact in the gap.
    fn maintain(&self, pool: &Pool<Self>) {
        let now = pool.now_ns();
        let admit = self.admission_open();
        let mut finished: Vec<(Arc<TicketInner>, QueryOutcome, u64, Option<QueryProfile>)> =
            Vec::new();
        let mut to_dispatch: Vec<Pending> = Vec::new();
        {
            let mut st = self.state.lock();
            let mut i = 0;
            while i < st.running.len() {
                if let Some(outcome) = st.running[i].handle.outcome() {
                    let r = st.running.swap_remove(i);
                    let end = r.handle.stats().finished_ns;
                    let latency = end.saturating_sub(r.ticket.submitted_ns);
                    finished.push((r.ticket, outcome, latency, r.handle.profile()));
                    to_dispatch.extend(st.admission.complete(now, admit));
                } else {
                    i += 1;
                }
            }
            for p in st.admission.expire_overdue(now) {
                let latency = now.saturating_sub(p.ticket.submitted_ns);
                finished.push((p.ticket, QueryOutcome::Cancelled, latency, None));
            }
            if admit {
                // Capacity freed while admission was gated off (or by a
                // pressure-parked submission): admit into it now.
                to_dispatch.extend(st.admission.poll_admit(now));
            } else {
                // Still under pressure: shed the lowest-priority waiter
                // (one per housekeeping pass) so the queue does not
                // grow without bound while nothing is being admitted.
                for p in st.admission.shed_lowest(now, 1) {
                    let latency = now.saturating_sub(p.ticket.submitted_ns);
                    finished.push((
                        p.ticket,
                        QueryOutcome::Rejected(RejectReason::MemoryPressure),
                        latency,
                        None,
                    ));
                }
            }
        }
        if !to_dispatch.is_empty() {
            let running: Vec<Running> = to_dispatch
                .into_iter()
                .map(|p| Running {
                    handle: pool.submit(p.spec, now),
                    ticket: p.ticket,
                })
                .collect();
            self.state.lock().running.extend(running);
        }
        for (ticket, outcome, latency, profile) in finished {
            self.finalize(&ticket, outcome, latency, profile);
        }
    }

    fn is_idle(&self) -> bool {
        let st = self.state.lock();
        st.running.is_empty() && st.admission.is_idle()
    }
}

/// The running service. See the [module docs](self). Dropping it
/// without [`QueryService::shutdown`] still drains everything submitted
/// and joins the workers; only the report is lost.
pub struct QueryService {
    workers: WorkerPool<ServiceInner>,
}

impl QueryService {
    /// Start the worker pool and begin accepting queries.
    pub fn start(env: ExecEnv, config: ServiceConfig) -> Self {
        let dispatch = DispatchConfig::new(config.workers)
            .with_morsel_size(config.morsel_size)
            .with_aging(config.aging);
        let admission = AdmissionConfig::new(config.max_in_flight)
            .with_max_queue(config.max_queue)
            .with_aging(config.aging);
        // An environment that already carries a pool keeps it; otherwise
        // the config's pool size (if any) installs one.
        let env = match (env.mem_pool(), config.mem_pool_bytes) {
            (None, Some(bytes)) => env.with_mem_pool(MemPool::new(bytes)),
            _ => env,
        };
        let inner = ServiceInner {
            mem_pool: env.mem_pool().cloned(),
            state: Mutex::new(ServiceState {
                admission: AdmissionQueue::new(admission),
                running: Vec::new(),
            }),
            metrics: Mutex::new(Metrics::default()),
            cache: Arc::new(CacheCounters::default()),
        };
        QueryService {
            workers: WorkerPool::start(env, dispatch, inner),
        }
    }

    /// Submit a query. Never blocks on execution: the returned ticket
    /// resolves when the query completes, is cancelled (deadline), or is
    /// rejected by admission control.
    pub fn submit(&self, request: QueryRequest) -> QueryTicket {
        let pool = self.workers.pool();
        let inner = pool.hook();
        let now = pool.now_ns();
        let deadline_ns = request
            .deadline
            .map(|d| now.saturating_add(d.as_nanos() as u64));
        let mut spec = request.spec.with_submitted_at(now);
        if let Some(d) = deadline_ns {
            spec = spec.with_deadline_ns(d);
        }
        let ticket = Arc::new(TicketInner {
            name: spec.name.clone(),
            priority: spec.priority,
            submitted_ns: now,
            state: StdMutex::new(TicketState { report: None }),
            done: Condvar::new(),
        });
        let priority = spec.priority;
        let decision = {
            let mut st = inner.state.lock();
            st.admission.submit(
                Pending {
                    spec,
                    ticket: Arc::clone(&ticket),
                },
                priority,
                now,
                deadline_ns,
                inner.admission_open(),
            )
        };
        match decision {
            AdmissionDecision::Admitted(p) => {
                // Dispatch (first-pipeline build) outside the state lock.
                let handle = pool.submit(p.spec, now);
                inner.state.lock().running.push(Running {
                    handle,
                    ticket: p.ticket,
                });
            }
            AdmissionDecision::Queued => {}
            AdmissionDecision::Rejected(p) => {
                inner.finalize(
                    &p.ticket,
                    QueryOutcome::Rejected(RejectReason::QueueFull),
                    0,
                    None,
                );
            }
        }
        QueryTicket { inner: ticket }
    }

    /// The service-wide memory pool, if one is configured (either on the
    /// environment or via [`ServiceConfig::with_mem_pool_bytes`]).
    pub fn mem_pool(&self) -> Option<&Arc<MemPool>> {
        self.workers.pool().hook().mem_pool.as_ref()
    }

    /// The service's shared cache counters (see
    /// [`crate::SessionBuilder::for_service`]); snapshotted into
    /// [`ServiceReport::cache`] at shutdown.
    pub fn cache_counters(&self) -> &Arc<CacheCounters> {
        &self.workers.pool().hook().cache
    }

    /// Stop accepting queries, drain everything in flight and queued,
    /// join the workers, and return the aggregate report.
    ///
    /// A panicked worker thread (which containment at the morsel
    /// boundary should make impossible for operator code) is counted in
    /// [`ServiceReport::worker_panics`] rather than re-panicking the
    /// caller, so one poisoned worker cannot take down the report for
    /// everything that did finish.
    pub fn shutdown(mut self) -> ServiceReport {
        let worker_panics = self.workers.drain();
        let pool = self.workers.pool();
        let inner = pool.hook();
        // Workers exit only once the service is fully idle, but the last
        // finalizations happen after the exit condition check.
        inner.maintain(pool);
        debug_assert!(worker_panics > 0 || inner.is_idle());
        let wall_ns = pool.now_ns();
        let m = inner.metrics.lock();
        ServiceReport {
            wall_ns,
            worker_panics,
            totals: m.totals,
            per_priority: m
                .per_priority
                .iter()
                .map(|(p, (c, h))| (*p, *c, h.clone()))
                .collect(),
            cache: inner.cache.snapshot(),
            exec: m.exec,
        }
    }
}

/// Aggregate metrics for one service lifetime.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Total service lifetime (start to shutdown) in wall nanoseconds.
    pub wall_ns: u64,
    /// Worker threads that exited by panic instead of draining (0 unless
    /// containment was defeated; see [`QueryService::shutdown`]).
    pub worker_panics: u64,
    /// Terminal outcomes across every submitted query.
    pub totals: OutcomeCounts,
    /// Per-priority outcome counts and completed-query latency
    /// histograms.
    pub per_priority: Vec<(u32, OutcomeCounts, LatencyHistogram)>,
    /// Plan-cache counters at shutdown (all zero unless a
    /// [`crate::Session`] executed through this service).
    pub cache: CacheStats,
    /// Execution totals merged from per-query runtime profiles.
    pub exec: ExecTotals,
}

/// Latency histogram bucket bounds exposed to Prometheus, in
/// nanoseconds: decades from 10µs to 100s. Coarser than the internal
/// log-linear buckets, so every cut is exact up to the histogram's own
/// ≤ ~3.2% bucket error.
const PROM_LATENCY_BOUNDS_NS: [u64; 8] = [
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

impl ServiceReport {
    pub fn completed(&self) -> u64 {
        self.totals.completed
    }

    pub fn cancelled(&self) -> u64 {
        self.totals.cancelled
    }

    pub fn rejected(&self) -> u64 {
        self.totals.rejected
    }

    pub fn failed(&self) -> u64 {
        self.totals.failed
    }

    /// Completed queries per second of service lifetime.
    pub fn throughput_qps(&self) -> f64 {
        self.totals.completed as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// All priorities merged into one latency histogram.
    pub fn overall(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for (_, _, h) in &self.per_priority {
            all.merge(h);
        }
        all
    }

    /// A human-readable per-priority summary (used by the example and the
    /// bench harness).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "completed {}  cancelled {}  rejected {}  failed {}  throughput {:.1} q/s\n",
            self.totals.completed,
            self.totals.cancelled,
            self.totals.rejected,
            self.totals.failed,
            self.throughput_qps()
        );
        for (prio, counts, h) in &self.per_priority {
            out.push_str(&format!(
                "  priority {:>2}: {:>6} done / {:>3} canc / {:>3} rej / {:>3} fail  \
                 p50 {:>9}  p95 {:>9}  p99 {:>9}\n",
                prio,
                counts.completed,
                counts.cancelled,
                counts.rejected,
                counts.failed,
                fmt_ns(h.p50()),
                fmt_ns(h.p95()),
                fmt_ns(h.p99()),
            ));
        }
        if self.cache.is_active() {
            out.push_str(&format!("  {}\n", self.cache));
        }
        out
    }

    /// Render the whole report in the Prometheus text exposition format.
    /// The output always passes [`validate_exposition`]; the `metrics`
    /// unit test and the CI `observability` job both enforce that.
    pub fn render_prometheus(&self) -> String {
        let mut reg = MetricsRegistry::new();
        reg.gauge(
            "morsel_service_uptime_seconds",
            "Service lifetime from start to shutdown.",
            &[],
            self.wall_ns as f64 / 1e9,
        );
        reg.counter(
            "morsel_service_worker_panics_total",
            "Worker threads that exited by panic instead of draining.",
            &[],
            self.worker_panics as f64,
        );
        for (outcome, v) in [
            ("completed", self.totals.completed),
            ("cancelled", self.totals.cancelled),
            ("rejected", self.totals.rejected),
            ("failed", self.totals.failed),
        ] {
            reg.counter(
                "morsel_service_queries_total",
                "Terminal query outcomes.",
                &[("outcome", outcome)],
                v as f64,
            );
        }
        for (prio, counts, hist) in &self.per_priority {
            let p = prio.to_string();
            for (outcome, v) in [
                ("completed", counts.completed),
                ("cancelled", counts.cancelled),
                ("rejected", counts.rejected),
                ("failed", counts.failed),
            ] {
                if v > 0 {
                    reg.counter(
                        "morsel_service_priority_queries_total",
                        "Terminal query outcomes by priority.",
                        &[("priority", p.as_str()), ("outcome", outcome)],
                        v as f64,
                    );
                }
            }
            if !hist.is_empty() {
                let buckets: Vec<(f64, u64)> = PROM_LATENCY_BOUNDS_NS
                    .iter()
                    .map(|&b| (b as f64, hist.cumulative_le(b)))
                    .collect();
                reg.histogram(
                    "morsel_service_query_latency_ns",
                    "End-to-end completed-query latency (submission to retirement).",
                    &[("priority", p.as_str())],
                    &buckets,
                    hist.sum_ns() as f64,
                    hist.count(),
                );
            }
        }
        for (cache, event, v) in [
            ("plan", "hit", self.cache.plan_hits),
            ("plan", "miss", self.cache.plan_misses),
            ("plan", "eviction", self.cache.plan_evictions),
            ("plan", "invalidation", self.cache.plan_invalidations),
            ("plan", "poisoned", self.cache.plan_poisoned),
        ] {
            reg.counter(
                "morsel_cache_events_total",
                "Plan cache events.",
                &[("cache", cache), ("event", event)],
                v as f64,
            );
        }
        reg.counter(
            "morsel_exec_profiled_queries_total",
            "Queries that retired with a runtime profile.",
            &[],
            self.exec.profiled_queries as f64,
        );
        reg.counter(
            "morsel_exec_morsels_total",
            "Morsels executed across profiled queries.",
            &[],
            self.exec.morsels as f64,
        );
        reg.counter(
            "morsel_exec_batches_total",
            "Operator batches processed across profiled queries.",
            &[],
            self.exec.batches as f64,
        );
        reg.counter(
            "morsel_exec_rows_total",
            "Rows produced, summed over every operator.",
            &[],
            self.exec.rows_out as f64,
        );
        reg.counter(
            "morsel_exec_operator_wall_ns_total",
            "Operator wall time summed over workers.",
            &[],
            self.exec.operator_wall_ns as f64,
        );
        let text = reg.render();
        debug_assert!(
            validate_exposition(&text).is_ok(),
            "service exposition failed self-validation"
        );
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_report_validates_and_carries_series() {
        let mut h = LatencyHistogram::new();
        for v in [40_000u64, 900_000, 2_000_000, 450_000_000] {
            h.record(v);
        }
        let report = ServiceReport {
            wall_ns: 3_000_000_000,
            worker_panics: 0,
            totals: OutcomeCounts {
                completed: 4,
                cancelled: 1,
                rejected: 2,
                failed: 0,
            },
            per_priority: vec![(
                1,
                OutcomeCounts {
                    completed: 4,
                    cancelled: 1,
                    rejected: 2,
                    failed: 0,
                },
                h,
            )],
            cache: CacheStats {
                plan_hits: 3,
                plan_misses: 1,
                ..CacheStats::default()
            },
            exec: ExecTotals {
                profiled_queries: 4,
                morsels: 128,
                batches: 256,
                rows_out: 10_000,
                operator_wall_ns: 5_000_000,
            },
        };
        let text = report.render_prometheus();
        let samples = validate_exposition(&text).expect("exposition must validate");
        assert!(
            samples > 10,
            "expected a full report, got {samples} samples"
        );
        assert!(text.contains("morsel_service_queries_total{outcome=\"completed\"} 4"));
        assert!(
            text.contains("morsel_service_query_latency_ns_bucket{priority=\"1\",le=\"100000\"} 1")
        );
        assert!(text.contains("morsel_service_query_latency_ns_count{priority=\"1\"} 4"));
        assert!(text.contains("morsel_cache_events_total{cache=\"plan\",event=\"hit\"} 3"));
        assert!(text.contains("morsel_exec_morsels_total 128"));
    }

    #[test]
    fn empty_report_still_validates() {
        let report = ServiceReport {
            wall_ns: 1,
            worker_panics: 0,
            totals: OutcomeCounts::default(),
            per_priority: Vec::new(),
            cache: CacheStats::default(),
            exec: ExecTotals::default(),
        };
        assert!(validate_exposition(&report.render_prometheus()).is_ok());
    }
}
