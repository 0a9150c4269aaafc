//! The dispatcher: assigns (pipeline-job, morsel) tasks to workers.
//!
//! Section 3 of the paper. The dispatcher is not a thread: it is a passive
//! data structure whose code runs on the work-requesting worker itself.
//! Morsel hand-out is lock-free (see [`crate::queue`]); the query list is
//! guarded by a small read-write lock that is touched once per *morsel*,
//! not per tuple, and the pending-job transitions (pipeline → pipeline) are
//! performed by whichever worker completed the previous pipeline's last
//! morsel — the QEPobject as a passive state machine.
//!
//! Worker shares across concurrent queries follow `active workers /
//! effective priority`, where the effective priority ages upward with
//! time since submission under an [`AgingPolicy`] (disabled by default).
//! Deadlines ride the same work-request path: a query past its
//! [`crate::query::QuerySpec::deadline_ns`] is cancelled cooperatively,
//! exactly like an explicit [`crate::query::QueryHandle::cancel`].

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use morsel_numa::AccessCounters;
use parking_lot::{Mutex, RwLock};

use crate::env::ExecEnv;
use crate::govern::MemBudget;
use crate::job::JobExec;
use crate::query::{FailReason, QueryHandle, QueryShared, QuerySpec, QueryStats, Stage};
use crate::queue::SchedulingMode;
use crate::task::{Morsel, TaskContext, DEFAULT_MORSEL_SIZE};
use crate::trace::{SpanKind, TraceEvent};

/// Render a caught panic payload for [`crate::query::QueryHandle::failure`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Priority aging: a waiting query's *effective* priority grows with the
/// time since its submission, so sustained high-priority traffic cannot
/// starve low-priority work indefinitely.
///
/// The boost is `min(waited_ns / interval_ns, max_boost)` added to the
/// base priority; it feeds both the dispatcher's share computation
/// (`Dispatcher::next_task`) and the admission ordering in
/// `morsel-service`. `AgingPolicy::none()` (the default) disables aging
/// and reproduces the paper's plain `active workers / priority` share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgingPolicy {
    /// Nanoseconds of waiting per +1 effective priority; `0` disables
    /// aging.
    pub interval_ns: u64,
    /// Cap on the aging boost, so aged queries cannot grow unboundedly
    /// past genuinely urgent traffic.
    pub max_boost: u32,
}

impl AgingPolicy {
    /// No aging: effective priority equals base priority.
    pub fn none() -> Self {
        AgingPolicy {
            interval_ns: 0,
            max_boost: 0,
        }
    }

    /// Gain +1 effective priority per `interval_ns` of waiting, capped at
    /// a default boost of 64.
    pub fn every(interval_ns: u64) -> Self {
        assert!(interval_ns > 0, "aging interval must be positive");
        AgingPolicy {
            interval_ns,
            max_boost: 64,
        }
    }

    pub fn with_max_boost(mut self, max_boost: u32) -> Self {
        self.max_boost = max_boost;
        self
    }

    pub fn is_enabled(&self) -> bool {
        self.interval_ns > 0
    }

    /// The aging boost after waiting `waited_ns` (0 when aging is
    /// disabled).
    pub fn boost(&self, waited_ns: u64) -> u32 {
        waited_ns
            .checked_div(self.interval_ns)
            .map_or(0, |steps| steps.min(u64::from(self.max_boost)) as u32)
    }

    /// Effective priority of a query with `base` priority that has waited
    /// `waited_ns` since submission.
    pub fn effective_priority(&self, base: u32, waited_ns: u64) -> u32 {
        base.max(1).saturating_add(self.boost(waited_ns))
    }
}

impl Default for AgingPolicy {
    fn default() -> Self {
        AgingPolicy::none()
    }
}

/// Dispatcher-wide scheduling configuration.
#[derive(Debug, Clone, Copy)]
pub struct DispatchConfig {
    pub mode: SchedulingMode,
    pub morsel_size: usize,
    /// Number of worker threads that will request tasks.
    pub workers: usize,
    /// Priority aging applied in the share computation (disabled by
    /// default).
    pub aging: AgingPolicy,
}

impl DispatchConfig {
    pub fn new(workers: usize) -> Self {
        DispatchConfig {
            mode: SchedulingMode::NumaAware,
            morsel_size: DEFAULT_MORSEL_SIZE,
            workers,
            aging: AgingPolicy::none(),
        }
    }

    pub fn with_mode(mut self, mode: SchedulingMode) -> Self {
        self.mode = mode;
        self
    }

    pub fn with_morsel_size(mut self, size: usize) -> Self {
        assert!(size > 0, "morsel size must be positive");
        self.morsel_size = size;
        self
    }

    pub fn with_aging(mut self, aging: AgingPolicy) -> Self {
        self.aging = aging;
        self
    }
}

/// A query under execution.
pub(crate) struct QueryExec {
    pub shared: Arc<QueryShared>,
    stages: Mutex<VecDeque<Box<dyn Stage>>>,
    pub current: Mutex<Option<Arc<JobExec>>>,
    /// Workers currently executing a morsel of this query (for fair
    /// sharing across queries).
    pub active_workers: AtomicUsize,
    arrival: u64,
}

impl QueryExec {
    fn absorb_job_stats(&self, job: &JobExec) {
        let mut stats = self.shared.stats.lock();
        stats.morsels += job.morsels_dispatched.load(Ordering::Relaxed);
        stats.stolen_morsels += job.morsels_stolen.load(Ordering::Relaxed);
    }
}

/// A claimed unit of work: run `job` on `morsel`, then report completion.
pub(crate) struct Task {
    query: Arc<QueryExec>,
    job: Arc<JobExec>,
    morsel: Morsel,
}

impl Task {
    pub(crate) fn query_name(&self) -> &str {
        &self.query.shared.name
    }

    pub(crate) fn job_label(&self) -> &str {
        &self.job.label
    }

    /// Execute the morsel (operators record costs into `ctx`).
    ///
    /// This is the panic-containment boundary: a panicking operator —
    /// organic or injected via [`crate::FaultPlan`] — is caught here and
    /// fails only its own query ([`FailReason::OperatorPanic`], unless an
    /// earlier cause such as deadline expiry already decided the
    /// outcome). The unwind is safe to assert across: the engine's
    /// shared operator state (hash tables, per-worker areas) is only
    /// ever *read* by the query that owns it, and a failed query never
    /// reaches the stages that would read the partially-mutated state —
    /// `advance` discards its remaining stages and the reaping path
    /// drops the poisoned structures wholesale.
    pub(crate) fn run(&self, ctx: &mut TaskContext<'_>) {
        let shared = &self.query.shared;
        let fault = ctx.env().faults().on_morsel(&shared.name, &self.job.label);
        if fault.delay_ns > 0 {
            // Charge the injected delay as compute: deterministic under
            // the simulator's virtual clock (the threaded executor
            // records it in the profile but does not sleep).
            ctx.cpu(1, fault.delay_ns as f64);
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(msg) = fault.panic_msg {
                panic!("{msg}");
            }
            self.job.job.run_morsel(ctx, self.morsel.clone());
        }));
        if let Err(payload) = result {
            shared.fail(FailReason::OperatorPanic, panic_message(payload));
        }
    }

    /// Per-query traffic counters, so executors can attach them to the
    /// task context.
    pub(crate) fn query_counters(&self) -> Arc<QueryShared> {
        Arc::clone(&self.query.shared)
    }
}

/// The worker protocol: [`crate::sim`]'s event loop and
/// [`crate::threaded`]'s pool are its only two drivers.
pub(crate) struct Dispatcher {
    env: ExecEnv,
    config: DispatchConfig,
    queries: RwLock<Vec<Arc<QueryExec>>>,
    /// Queries submitted but not yet done.
    remaining: AtomicUsize,
    arrivals: AtomicU64,
}

impl Dispatcher {
    pub(crate) fn new(env: ExecEnv, config: DispatchConfig) -> Self {
        assert!(config.workers > 0);
        Dispatcher {
            env,
            config,
            queries: RwLock::new(Vec::new()),
            remaining: AtomicUsize::new(0),
            arrivals: AtomicU64::new(0),
        }
    }

    pub(crate) fn env(&self) -> &ExecEnv {
        &self.env
    }

    /// Register a query and build its first executable pipeline. `now_ns`
    /// stamps the query start (virtual or wall clock, per executor).
    pub(crate) fn submit(&self, spec: QuerySpec, now_ns: u64) -> QueryHandle {
        let profile = if spec.profile_ops.is_empty() {
            None
        } else {
            Some(Arc::new(crate::profile::ProfileSlots::new(
                spec.profile_ops,
                self.config.workers,
            )))
        };
        let shared = Arc::new(QueryShared {
            name: spec.name,
            priority: AtomicU32::new(spec.priority),
            cancelled: AtomicBool::new(false),
            done: AtomicBool::new(false),
            result: spec.result,
            counters: AccessCounters::new(self.env.topology()),
            stats: Mutex::new(QueryStats {
                started_ns: now_ns,
                ..QueryStats::default()
            }),
            started_ns: AtomicU64::new(now_ns),
            submitted_ns: AtomicU64::new(spec.submitted_ns.unwrap_or(now_ns)),
            deadline_ns: AtomicU64::new(spec.deadline_ns.unwrap_or(u64::MAX)),
            budget: MemBudget::new(spec.mem_cap, self.env.mem_pool().cloned()),
            failure: Mutex::new(None),
            profile,
        });
        let exec = Arc::new(QueryExec {
            shared: Arc::clone(&shared),
            stages: Mutex::new(spec.stages.into_iter().collect()),
            current: Mutex::new(None),
            active_workers: AtomicUsize::new(0),
            arrival: self.arrivals.fetch_add(1, Ordering::Relaxed),
        });
        self.remaining.fetch_add(1, Ordering::SeqCst);
        self.queries.write().push(Arc::clone(&exec));
        // Build the first pipeline on the submitting thread.
        let mut ctx = TaskContext::new(&self.env, 0);
        self.advance(&mut ctx, &exec, now_ns);
        QueryHandle { shared }
    }

    /// Number of queries not yet finished.
    pub(crate) fn remaining_queries(&self) -> usize {
        self.remaining.load(Ordering::SeqCst)
    }

    pub(crate) fn all_done(&self) -> bool {
        self.remaining_queries() == 0
    }

    /// Pick a task for `worker`, favouring NUMA-local morsels and fair
    /// shares across active queries (active workers / *effective*
    /// priority, where the effective priority is the base priority plus
    /// the [`AgingPolicy`] boost for time waited since submission).
    ///
    /// Also enforces deadlines: a query whose [`QuerySpec::deadline_ns`]
    /// has passed is marked cancelled here, so workers stop handing out
    /// its morsels and the reaping path tears it down.
    ///
    /// `now_ns` stamps the completion of a query this request reaps.
    pub(crate) fn next_task(&self, worker: usize, now_ns: u64) -> Option<Task> {
        let queries: Vec<Arc<QueryExec>> = {
            let guard = self.queries.read();
            guard.iter().cloned().collect()
        };
        // Candidate queries with an installed pipeline, by fairness key.
        let mut candidates: Vec<&Arc<QueryExec>> = queries
            .iter()
            .filter(|q| !q.shared.done.load(Ordering::Acquire))
            .collect();
        // Deadline/cancellation sweep over *every* live query before
        // claiming: the claim loop below returns at the first morsel, so
        // checking there would let a busy worker starve the check for
        // queries it never reaches.
        candidates.retain(|q| {
            if now_ns >= q.shared.deadline_ns.load(Ordering::Acquire) {
                // Deadline passed: cancel cooperatively. In-flight morsels
                // still finish; the reap (or the last completer) tears the
                // query down.
                q.shared.cancelled.store(true, Ordering::Release);
            }
            if q.shared.cancelled.load(Ordering::Acquire) {
                self.reap_cancelled(q, now_ns);
                false
            } else {
                true
            }
        });
        candidates.sort_by(|a, b| {
            let ka = self.fair_key(a, now_ns);
            let kb = self.fair_key(b, now_ns);
            ka.partial_cmp(&kb).unwrap().then(a.arrival.cmp(&b.arrival))
        });

        for q in candidates {
            let job = {
                let guard = q.current.lock();
                match guard.as_ref() {
                    Some(j) => Arc::clone(j),
                    None => continue,
                }
            };
            if let Some(morsel) = job.try_claim(worker) {
                q.active_workers.fetch_add(1, Ordering::SeqCst);
                return Some(Task {
                    query: Arc::clone(q),
                    job,
                    morsel,
                });
            }
        }
        None
    }

    /// The share key: `active workers / effective priority`. Lower keys
    /// are served first, so a query holding fewer workers relative to its
    /// (aged) priority absorbs the next one — the paper's elastic sharing,
    /// extended with aging so waiting queries grow their share over time.
    fn fair_key(&self, q: &QueryExec, now_ns: u64) -> f64 {
        let active = q.active_workers.load(Ordering::SeqCst) as f64;
        let base = q.shared.priority.load(Ordering::Acquire);
        let waited = now_ns.saturating_sub(q.shared.submitted_ns.load(Ordering::Acquire));
        let prio = self.config.aging.effective_priority(base, waited) as f64;
        active / prio
    }

    /// Report a finished morsel. If this completed the pipeline, the
    /// calling worker runs the pipeline's `finish` and advances the QEP.
    pub(crate) fn complete_task(&self, ctx: &mut TaskContext<'_>, task: Task, now_ns: u64) {
        task.query.active_workers.fetch_sub(1, Ordering::SeqCst);
        if task.job.complete(task.morsel.rows()) {
            self.contained_finish(ctx, &task.query, &task.job);
            task.query.absorb_job_stats(&task.job);
            *task.query.current.lock() = None;
            self.advance(ctx, &task.query, now_ns);
        }
    }

    /// Run a pipeline's `finish` under the same panic containment as
    /// morsel execution, skipping it entirely for queries already being
    /// torn down (cancelled or failed) — their partial state is
    /// discarded, not finalized.
    ///
    /// Finish work always runs in a context *bound to the owning query*,
    /// even when the observing context is unbound (submit-time empty
    /// stages): finish-time recording —
    /// result-assembly rows, profile counters — must be attributed to
    /// the query, not dropped.
    fn contained_finish(&self, ctx: &mut TaskContext<'_>, q: &Arc<QueryExec>, job: &JobExec) {
        if q.shared.cancelled.load(Ordering::Acquire) {
            return;
        }
        let shared = Arc::clone(&q.shared);
        let mut bound = TaskContext::new(&self.env, ctx.worker).with_query(&shared);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job.job.finish(&mut bound))) {
            q.shared
                .fail(FailReason::OperatorPanic, panic_message(payload));
        }
    }

    /// Cancelled query with a drained or idle pipeline: tear it down.
    /// `now_ns` stamps the query's completion time.
    fn reap_cancelled(&self, q: &Arc<QueryExec>, now_ns: u64) {
        let job = { q.current.lock().as_ref().cloned() };
        if let Some(job) = job {
            // Only once nothing is in flight: running morsels complete
            // normally, and the last of the job would finish it itself.
            if job.reap() {
                q.absorb_job_stats(&job);
                *q.current.lock() = None;
                let mut ctx = TaskContext::new(&self.env, 0);
                self.advance(&mut ctx, q, now_ns);
            }
        } else if !q.shared.done.load(Ordering::Acquire) {
            let mut ctx = TaskContext::new(&self.env, 0);
            self.advance(&mut ctx, q, now_ns);
        }
    }

    /// The passive QEP state machine: install the next executable
    /// pipeline, skipping empty ones, and mark the query done when all
    /// stages are complete (or it was cancelled). Retirement records the
    /// query's [`SpanKind::Query`] span into the environment's recorder,
    /// if tracing, on whichever path retires it.
    fn advance(&self, ctx: &mut TaskContext<'_>, q: &Arc<QueryExec>, now_ns: u64) {
        loop {
            if q.shared.cancelled.load(Ordering::Acquire) {
                q.stages.lock().clear();
            }
            let stage = q.stages.lock().pop_front();
            match stage {
                None => {
                    // Stamp completion *before* publishing `done`:
                    // readers treat `done` as the acquire point for
                    // stats, so a concurrent observer of `done == true`
                    // must never see an unset finished_ns. The ==0 guard
                    // keeps a racing second observer from re-stamping.
                    let (started_ns, finished_ns) = {
                        let mut stats = q.shared.stats.lock();
                        if stats.finished_ns == 0 {
                            stats.finished_ns = now_ns;
                        }
                        (stats.started_ns, stats.finished_ns)
                    };
                    if q.shared
                        .done
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        // Retirement drains and closes the memory ledger:
                        // every byte the query reserved goes back to the
                        // pool exactly once, on every exit path
                        // (completed, cancelled, or failed).
                        q.shared.budget.release_all();
                        self.remaining.fetch_sub(1, Ordering::SeqCst);
                        self.queries.write().retain(|e| !Arc::ptr_eq(e, q));
                        if let Some(rec) = self.env.trace() {
                            rec.record(TraceEvent {
                                worker: ctx.worker,
                                start_ns: started_ns,
                                end_ns: finished_ns,
                                query: q.shared.name.clone(),
                                job: String::new(),
                                kind: SpanKind::Query,
                            });
                        }
                    }
                    return;
                }
                Some(stage) => {
                    // Stage construction runs operator code (allocating
                    // hash tables, partitioning state) and is contained
                    // like morsel execution: a panic fails this query
                    // only, and the loop retries with the cancelled flag
                    // now set, which tears the query down.
                    let built = match catch_unwind(AssertUnwindSafe(|| {
                        stage.build(&self.env, self.config.workers)
                    })) {
                        Ok(built) => built,
                        Err(payload) => {
                            q.shared
                                .fail(FailReason::OperatorPanic, panic_message(payload));
                            continue;
                        }
                    };
                    // Charge build-time operator state (e.g. the join
                    // hash table) against the query's budget before any
                    // morsel runs; refusal fails the query here, never
                    // the process.
                    if built.reserve_bytes > 0
                        && q.shared
                            .try_reserve(built.reserve_bytes, self.env.faults())
                            .is_err()
                    {
                        continue;
                    }
                    let job = JobExec::new(
                        built,
                        self.config.mode,
                        self.config.morsel_size,
                        self.config.workers,
                        self.env.topology(),
                    );
                    if job.queues.total_rows() == 0 {
                        // Empty pipeline: no morsel will ever complete
                        // it, so finish inline and continue.
                        self.contained_finish(ctx, q, &job);
                        continue;
                    }
                    *q.current.lock() = Some(Arc::new(job));
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{BuiltJob, PipelineJob};
    use crate::query::{result_slot, FnStage};
    use crate::task::ChunkMeta;
    use morsel_numa::{SocketId, Topology};
    use std::sync::atomic::AtomicU64 as TestCounter;

    struct CountJob {
        rows_seen: TestCounter,
        finished: AtomicBool,
    }

    impl PipelineJob for CountJob {
        fn run_morsel(&self, _ctx: &mut TaskContext<'_>, m: Morsel) {
            self.rows_seen.fetch_add(m.rows() as u64, Ordering::Relaxed);
        }
        fn finish(&self, _ctx: &mut TaskContext<'_>) {
            assert!(
                !self.finished.swap(true, Ordering::SeqCst),
                "finish called twice"
            );
        }
    }

    fn dispatcher(workers: usize) -> Dispatcher {
        Dispatcher::new(
            ExecEnv::new(Topology::laptop()),
            DispatchConfig::new(workers),
        )
    }

    fn count_stage(rows: usize, counter: Arc<CountJob>) -> Box<dyn Stage> {
        Box::new(FnStage::new("count", move |_env, _w| {
            BuiltJob::new(
                "count",
                counter,
                vec![ChunkMeta {
                    node: SocketId(0),
                    rows,
                }],
            )
        }))
    }

    fn drive_to_completion(d: &Dispatcher, worker: usize) {
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, worker);
        while let Some(task) = d.next_task(worker, 42) {
            task.run(&mut ctx);
            d.complete_task(&mut ctx, task, 42);
        }
    }

    #[test]
    fn single_query_runs_all_morsels_and_finishes() {
        let d = dispatcher(1);
        let job = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let h = d.submit(
            QuerySpec::new(
                "q1",
                vec![count_stage(100_000, Arc::clone(&job))],
                result_slot(),
            ),
            7,
        );
        assert!(!h.is_done());
        drive_to_completion(&d, 0);
        assert!(h.is_done());
        assert!(d.all_done());
        assert_eq!(job.rows_seen.load(Ordering::Relaxed), 100_000);
        assert!(job.finished.load(Ordering::SeqCst));
        let stats = h.stats();
        assert_eq!(stats.started_ns, 7);
        assert_eq!(stats.finished_ns, 42);
        assert!(stats.morsels > 1);
    }

    #[test]
    fn multi_stage_queries_run_stages_in_order() {
        let d = dispatcher(1);
        let j1 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let j2 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let h = d.submit(
            QuerySpec::new(
                "q",
                vec![
                    count_stage(10, Arc::clone(&j1)),
                    count_stage(20, Arc::clone(&j2)),
                ],
                result_slot(),
            ),
            0,
        );
        drive_to_completion(&d, 0);
        assert!(h.is_done());
        assert_eq!(j1.rows_seen.load(Ordering::Relaxed), 10);
        assert_eq!(j2.rows_seen.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn empty_stages_are_skipped() {
        let d = dispatcher(1);
        let j = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let h = d.submit(
            QuerySpec::new("q", vec![count_stage(0, Arc::clone(&j))], result_slot()),
            0,
        );
        // Submission itself drives the empty stage to completion.
        assert!(h.is_done());
        assert!(j.finished.load(Ordering::SeqCst));
        assert!(d.all_done());
    }

    #[test]
    fn cancellation_stops_at_morsel_boundary() {
        let d = dispatcher(1);
        let j = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let h = d.submit(
            QuerySpec::new(
                "q",
                vec![count_stage(1_000_000, Arc::clone(&j))],
                result_slot(),
            ),
            0,
        );
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, 0);
        // Run one morsel, then cancel.
        let t = d.next_task(0, 0).unwrap();
        t.run(&mut ctx);
        d.complete_task(&mut ctx, t, 0);
        h.cancel();
        drive_to_completion(&d, 0);
        assert!(h.is_done());
        assert!(d.all_done());
        // Far fewer rows than the full input were processed.
        assert!(j.rows_seen.load(Ordering::Relaxed) < 1_000_000);
        // The operator's finish must NOT run for a cancelled query.
        assert!(!j.finished.load(Ordering::SeqCst));
    }

    #[test]
    fn fair_sharing_prefers_less_served_query() {
        let d = dispatcher(4);
        let j1 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let j2 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let _h1 = d.submit(
            QuerySpec::new("a", vec![count_stage(100_000, j1)], result_slot()),
            0,
        );
        let _h2 = d.submit(
            QuerySpec::new("b", vec![count_stage(100_000, j2)], result_slot()),
            0,
        );
        // Claim for two workers without completing: they must go to
        // different queries under equal priority.
        let t1 = d.next_task(0, 0).unwrap();
        let t2 = d.next_task(1, 0).unwrap();
        assert_ne!(t1.query_name(), t2.query_name());
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, 0);
        d.complete_task(&mut ctx, t1, 0);
        d.complete_task(&mut ctx, t2, 0);
        drive_to_completion(&d, 0);
        assert!(d.all_done());
    }

    #[test]
    fn priority_biases_dispatch() {
        let d = dispatcher(4);
        let j1 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let j2 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let _h1 = d.submit(
            QuerySpec::new("lo", vec![count_stage(100_000, j1)], result_slot()),
            0,
        );
        let _h2 = d.submit(
            QuerySpec::new("hi", vec![count_stage(100_000, j2)], result_slot()).with_priority(8),
            0,
        );
        // Fairness key is active_workers/priority, ties by arrival.
        // Round 1: both 0 -> "lo" (earlier arrival). Round 2: lo=1/1,
        // hi=0/8 -> "hi". Round 3: lo=1/1=1, hi=1/8=0.125 -> "hi" again:
        // the high-priority query absorbs more workers.
        let t1 = d.next_task(0, 0).unwrap();
        assert_eq!(t1.query_name(), "lo");
        let t2 = d.next_task(1, 0).unwrap();
        assert_eq!(t2.query_name(), "hi");
        let t3 = d.next_task(2, 0).unwrap();
        assert_eq!(t3.query_name(), "hi");
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, 0);
        for t in [t1, t2, t3] {
            d.complete_task(&mut ctx, t, 0);
        }
        drive_to_completion(&d, 0);
    }

    #[test]
    fn aging_policy_math() {
        let none = AgingPolicy::none();
        assert!(!none.is_enabled());
        assert_eq!(none.effective_priority(3, 1_000_000), 3);
        let aging = AgingPolicy::every(100).with_max_boost(10);
        assert_eq!(aging.boost(0), 0);
        assert_eq!(aging.boost(99), 0);
        assert_eq!(aging.boost(100), 1);
        assert_eq!(aging.boost(950), 9);
        assert_eq!(aging.boost(u64::MAX), 10);
        assert_eq!(aging.effective_priority(1, 350), 4);
        // Zero base priority is clamped to 1 before boosting.
        assert_eq!(aging.effective_priority(0, 0), 1);
    }

    #[test]
    fn deadline_expiry_cancels_at_morsel_boundary() {
        let d = dispatcher(1);
        let j = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let h = d.submit(
            QuerySpec::new(
                "q",
                vec![count_stage(1_000_000, Arc::clone(&j))],
                result_slot(),
            )
            .with_deadline_ns(100),
            0,
        );
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, 0);
        // Before the deadline, work is handed out normally.
        let t = d.next_task(0, 50).unwrap();
        t.run(&mut ctx);
        d.complete_task(&mut ctx, t, 50);
        assert!(!h.is_cancelled());
        // Past the deadline, the dispatcher cancels and reaps the query.
        while let Some(t) = d.next_task(0, 150) {
            t.run(&mut ctx);
            d.complete_task(&mut ctx, t, 150);
        }
        assert!(h.is_cancelled());
        assert!(h.is_done());
        assert_eq!(h.outcome(), Some(crate::query::QueryOutcome::Cancelled));
        assert!(j.rows_seen.load(Ordering::Relaxed) < 1_000_000);
        assert!(!j.finished.load(Ordering::SeqCst));
    }

    #[test]
    fn aging_lifts_starved_low_priority_share() {
        let env = ExecEnv::new(Topology::laptop());
        let d = Dispatcher::new(
            env,
            DispatchConfig::new(4).with_aging(AgingPolicy::every(100).with_max_boost(64)),
        );
        let j1 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let j2 = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let _lo = d.submit(
            QuerySpec::new("lo", vec![count_stage(100_000, j1)], result_slot()),
            0,
        );
        let _hi = d.submit(
            QuerySpec::new("hi", vec![count_stage(100_000, j2)], result_slot()).with_priority(8),
            0,
        );
        // At t=0 the share computation matches the unaged one: lo first
        // (arrival tie-break), then hi twice (1/1 vs n/8).
        let t1 = d.next_task(0, 0).unwrap();
        assert_eq!(t1.query_name(), "lo");
        let t2 = d.next_task(1, 0).unwrap();
        assert_eq!(t2.query_name(), "hi");
        let t3 = d.next_task(2, 0).unwrap();
        assert_eq!(t3.query_name(), "hi");
        // Without aging the fourth claim would go to hi again (lo 1/1=1.0
        // vs hi 2/8=0.25). With both queries aged by the full boost, lo's
        // key 1/65 beats hi's 2/72: the starved query absorbs the worker.
        let t4 = d.next_task(3, 10_000).unwrap();
        assert_eq!(t4.query_name(), "lo");
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, 0);
        for t in [t1, t2, t3, t4] {
            d.complete_task(&mut ctx, t, 0);
        }
        drive_to_completion(&d, 0);
    }

    #[test]
    fn operator_panic_fails_only_its_query() {
        use crate::fault::FaultPlan;
        use crate::query::{FailReason, QueryOutcome};
        let plan: FaultPlan = "panic@bad/count#1".parse().unwrap();
        let env = ExecEnv::new(Topology::laptop()).with_fault_plan(plan);
        let d = Dispatcher::new(env, DispatchConfig::new(1));
        let jb = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let jg = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let hb = d.submit(
            QuerySpec::new("bad", vec![count_stage(100_000, jb)], result_slot()),
            0,
        );
        let hg = d.submit(
            QuerySpec::new(
                "good",
                vec![count_stage(100_000, Arc::clone(&jg))],
                result_slot(),
            ),
            0,
        );
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        drive_to_completion(&d, 0);
        std::panic::set_hook(hook);
        assert!(d.all_done(), "a contained panic must not wedge the engine");
        assert_eq!(
            hb.outcome(),
            Some(QueryOutcome::Failed(FailReason::OperatorPanic))
        );
        let (_, msg) = hb.failure().unwrap();
        assert!(msg.contains("panic@bad/count#1"), "got {msg:?}");
        assert_eq!(hg.outcome(), Some(QueryOutcome::Completed));
        assert_eq!(jg.rows_seen.load(Ordering::Relaxed), 100_000);
    }

    /// Satellite regression: a query that panics *after* its deadline
    /// fired must resolve as `Cancelled` (the first cause), not
    /// `Failed`, and exactly once. Virtual timestamps drive the race
    /// deterministically: the morsel is claimed before the deadline,
    /// the deadline sweep cancels the query, and only then does the
    /// claimed morsel run and hit its injected panic.
    #[test]
    fn panic_after_deadline_resolves_cancelled_exactly_once() {
        use crate::fault::FaultPlan;
        use crate::query::QueryOutcome;
        let plan: FaultPlan = "panic@q#0".parse().unwrap();
        let env = ExecEnv::new(Topology::laptop()).with_fault_plan(plan);
        let d = Dispatcher::new(env, DispatchConfig::new(1));
        let j = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let h = d.submit(
            QuerySpec::new("q", vec![count_stage(1_000_000, j)], result_slot())
                .with_deadline_ns(100),
            0,
        );
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, 0);
        // Claim (but do not run) a morsel before the deadline.
        let t = d.next_task(0, 50).unwrap();
        // The deadline sweep fires: the query is cancelled while the
        // claimed morsel is still in flight.
        assert!(d.next_task(0, 150).is_none());
        assert!(h.is_cancelled());
        assert!(!h.is_done(), "in-flight morsel defers teardown");
        // The in-flight morsel now runs and panics; containment records
        // the panic but the deadline already decided the outcome.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        t.run(&mut ctx);
        std::panic::set_hook(hook);
        d.complete_task(&mut ctx, t, 160);
        // The next work request reaps the cancelled query (nothing else
        // is in flight now).
        assert!(d.next_task(0, 170).is_none());
        assert!(h.is_done());
        assert_eq!(h.outcome(), Some(QueryOutcome::Cancelled));
        assert!(
            h.failure().is_none(),
            "first cause wins: no failure recorded"
        );
        // Exactly once: the outcome is stable across repeated reads.
        assert_eq!(h.outcome(), Some(QueryOutcome::Cancelled));
        assert!(d.all_done());
    }

    /// The mirror case: the panic lands first, then the deadline passes.
    /// The panic is the first cause, so the query reports `Failed`.
    #[test]
    fn panic_before_deadline_resolves_failed() {
        use crate::fault::FaultPlan;
        use crate::query::{FailReason, QueryOutcome};
        let plan: FaultPlan = "panic@q#0".parse().unwrap();
        let env = ExecEnv::new(Topology::laptop()).with_fault_plan(plan);
        let d = Dispatcher::new(env, DispatchConfig::new(1));
        let j = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let h = d.submit(
            QuerySpec::new("q", vec![count_stage(1_000_000, j)], result_slot())
                .with_deadline_ns(100),
            0,
        );
        let env = d.env().clone();
        let mut ctx = TaskContext::new(&env, 0);
        let t = d.next_task(0, 50).unwrap();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        t.run(&mut ctx); // panics at t=50, before the deadline
        std::panic::set_hook(hook);
        d.complete_task(&mut ctx, t, 150); // deadline long gone
        assert!(d.next_task(0, 160).is_none()); // reap
        assert!(h.is_done());
        assert_eq!(
            h.outcome(),
            Some(QueryOutcome::Failed(FailReason::OperatorPanic))
        );
    }

    #[test]
    fn build_panic_is_contained() {
        use crate::query::{FailReason, QueryOutcome};
        let d = dispatcher(1);
        let stage: Box<dyn Stage> = Box::new(FnStage::new("explode", |_env: &ExecEnv, _w| {
            panic!("bad build");
        }));
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let h = d.submit(QuerySpec::new("q", vec![stage], result_slot()), 0);
        std::panic::set_hook(hook);
        assert!(h.is_done());
        assert_eq!(
            h.outcome(),
            Some(QueryOutcome::Failed(FailReason::OperatorPanic))
        );
        let (_, msg) = h.failure().unwrap();
        assert_eq!(msg, "bad build");
        assert!(d.all_done());
    }

    #[test]
    fn build_reservation_over_cap_fails_query_and_releases_pool() {
        use crate::govern::MemPool;
        use crate::query::{FailReason, QueryOutcome};
        let pool = MemPool::new(1 << 20);
        let env = ExecEnv::new(Topology::laptop()).with_mem_pool(Arc::clone(&pool));
        let d = Dispatcher::new(env, DispatchConfig::new(1));
        let stage: Box<dyn Stage> = Box::new(FnStage::new("hungry", |_env: &ExecEnv, _w| {
            BuiltJob::new(
                "hungry",
                Arc::new(CountJob {
                    rows_seen: TestCounter::new(0),
                    finished: AtomicBool::new(false),
                }),
                vec![ChunkMeta {
                    node: SocketId(0),
                    rows: 10,
                }],
            )
            .with_reserve_bytes(4_096)
        }));
        let h = d.submit(
            QuerySpec::new("q", vec![stage], result_slot()).with_mem_cap(1_000),
            0,
        );
        assert!(h.is_done());
        assert_eq!(
            h.outcome(),
            Some(QueryOutcome::Failed(FailReason::ResourceExhausted))
        );
        assert_eq!(pool.reserved(), 0, "failed reservation leaks nothing");
        assert_eq!(h.mem_reserved(), 0);

        // The same stage under a sufficient cap completes and the pool
        // still drains to zero at retirement.
        let stage: Box<dyn Stage> = Box::new(FnStage::new("ok", |_env: &ExecEnv, _w| {
            BuiltJob::new(
                "ok",
                Arc::new(CountJob {
                    rows_seen: TestCounter::new(0),
                    finished: AtomicBool::new(false),
                }),
                vec![ChunkMeta {
                    node: SocketId(0),
                    rows: 10,
                }],
            )
            .with_reserve_bytes(4_096)
        }));
        let h = d.submit(QuerySpec::new("q2", vec![stage], result_slot()), 0);
        drive_to_completion(&d, 0);
        assert_eq!(h.outcome(), Some(QueryOutcome::Completed));
        assert_eq!(pool.reserved(), 0, "retirement returns every byte");
    }

    #[test]
    fn threaded_smoke_many_workers() {
        let j = Arc::new(CountJob {
            rows_seen: TestCounter::new(0),
            finished: AtomicBool::new(false),
        });
        let exec =
            crate::ThreadedExecutor::new(ExecEnv::new(Topology::laptop()), DispatchConfig::new(8));
        let h = exec
            .run(vec![QuerySpec::new(
                "q",
                vec![count_stage(500_000, Arc::clone(&j))],
                result_slot(),
            )])
            .remove(0);
        assert!(h.is_done());
        assert_eq!(j.rows_seen.load(Ordering::Relaxed), 500_000);
        assert!(j.finished.load(Ordering::SeqCst));
    }
}
