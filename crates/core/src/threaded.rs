//! Real-thread executor: the one long-lived worker pool.
//!
//! One OS worker thread per configured hardware thread, logically pinned
//! (the NUMA substrate tags each worker with a socket; on real NUMA
//! hardware, physical pinning would use the same worker -> core map). The
//! worker loop is the paper's: request a task, run it to the morsel
//! boundary, report completion — the dispatcher and QEP code execute on
//! the requesting worker itself.
//!
//! [`WorkerPool`] is that loop, long-lived, and the only threaded driver
//! of the dispatcher: `morsel-service`'s `QueryService` runs on one and
//! plugs its admission housekeeping in through a [`PoolHook`];
//! [`ThreadedExecutor::run`] is the batch spelling (start a pool, submit
//! every query, drain, join).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::dispatcher::{DispatchConfig, Dispatcher};
use crate::env::ExecEnv;
use crate::query::{QueryHandle, QuerySpec};
use crate::task::TaskContext;
use crate::trace::{SpanKind, TraceEvent, TraceRecorder};

/// Runs batches of queries on real OS threads.
pub struct ThreadedExecutor {
    env: ExecEnv,
    config: DispatchConfig,
}

impl ThreadedExecutor {
    pub fn new(env: ExecEnv, config: DispatchConfig) -> Self {
        ThreadedExecutor { env, config }
    }

    pub fn env(&self) -> &ExecEnv {
        &self.env
    }

    /// Execute all queries to completion on a fresh [`WorkerPool`];
    /// returns their handles (results available via
    /// [`QueryHandle::take_result`]). On a traced environment
    /// ([`ExecEnv::with_trace`]) the run's spans are in the recorder when
    /// this returns.
    ///
    /// # Panics
    /// Panics if a worker thread panicked, which containment at the
    /// morsel boundary should make impossible for operator code.
    pub fn run(&self, specs: Vec<QuerySpec>) -> Vec<QueryHandle> {
        let mut workers = WorkerPool::start(self.env.clone(), self.config, ());
        let pool = workers.pool();
        let handles = specs
            .into_iter()
            .map(|s| pool.submit(s, pool.now_ns()))
            .collect();
        assert_eq!(
            workers.drain(),
            0,
            "a worker panicked outside morsel containment"
        );
        handles
    }
}

/// Housekeeping the owner of a long-lived pool runs on its workers,
/// between morsels: `QueryService` reaps finished queries, admits queued
/// ones and expires overdue waiters here. The pool passes itself in, so
/// a hook holds no reference to it. The defaults keep nothing.
pub trait PoolHook: Sized + Send + Sync + 'static {
    /// Called after a morsel that completed its query, at least every
    /// millisecond while busy, and on every idle poll.
    fn maintain(&self, _pool: &Pool<Self>) {}

    /// Whether the hook holds no work of its own; a draining pool's
    /// workers exit once this and the dispatcher are both idle.
    fn is_idle(&self) -> bool {
        true
    }
}

/// The batch pool's hook.
impl PoolHook for () {}

/// What every worker of a pool shares: the dispatcher, its clock and the
/// owner's hook.
pub struct Pool<H> {
    dispatcher: Dispatcher,
    start: Instant,
    /// Once set, workers exit as soon as the pool is idle.
    draining: AtomicBool,
    hook: H,
}

impl<H> Pool<H> {
    /// Wall nanoseconds since the pool started: the clock query stats,
    /// priority aging and deadlines are stamped on.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Register a query started at `now_ns` (on [`Pool::now_ns`]'s clock)
    /// and build its first pipeline on the calling thread.
    pub fn submit(&self, spec: QuerySpec, now_ns: u64) -> QueryHandle {
        self.dispatcher.submit(spec, now_ns)
    }

    pub fn hook(&self) -> &H {
        &self.hook
    }
}

/// A long-lived pool of worker threads over one dispatcher. Dropping it
/// drains and joins the workers, like [`WorkerPool::drain`].
pub struct WorkerPool<H: PoolHook> {
    pool: Arc<Pool<H>>,
    threads: Vec<JoinHandle<()>>,
}

impl<H: PoolHook> WorkerPool<H> {
    /// Start `config.workers` workers, idle until queries are submitted
    /// through [`Pool::submit`].
    pub fn start(env: ExecEnv, config: DispatchConfig, hook: H) -> Self {
        let pool = Arc::new(Pool {
            dispatcher: Dispatcher::new(env, config),
            start: Instant::now(),
            draining: AtomicBool::new(false),
            hook,
        });
        let threads = (0..config.workers)
            .map(|w| {
                let pool = Arc::clone(&pool);
                std::thread::Builder::new()
                    .name(format!("morsel-worker-{w}"))
                    .spawn(move || worker_loop(&pool, w))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { pool, threads }
    }

    pub fn pool(&self) -> &Pool<H> {
        &self.pool
    }

    /// Let the workers exit once everything submitted has finished and
    /// the hook is idle, and join them. Returns how many exited by panic
    /// instead (counted, not re-raised, so one poisoned worker cannot
    /// hide what the others finished). Joining twice joins nothing.
    pub fn drain(&mut self) -> u64 {
        self.pool.draining.store(true, Ordering::SeqCst);
        let panics = self
            .threads
            .drain(..)
            .map(JoinHandle::join)
            .filter(Result::is_err)
            .count() as u64;
        debug_assert!(panics > 0 || self.pool.dispatcher.all_done());
        panics
    }
}

impl<H: PoolHook> Drop for WorkerPool<H> {
    fn drop(&mut self) {
        self.drain();
    }
}

/// How long a worker may go between housekeeping passes while busy.
/// Queries reaped by the dispatcher (deadline expiry, cancellation) and
/// overdue queued waiters finish *between* completion events, so without
/// this bound their tickets would not resolve until some query completed
/// or a worker went idle — potentially much later under saturation.
const MAINTAIN_INTERVAL_NS: u64 = 1_000_000;

/// The paper's worker loop, plus the hook's housekeeping: when a morsel
/// completes a query, when no work is available, and at least every
/// [`MAINTAIN_INTERVAL_NS`] while busy. Idle workers back off
/// exponentially so an idle pool does not burn cores.
fn worker_loop<H: PoolHook>(pool: &Pool<H>, w: usize) {
    let env = pool.dispatcher.env();
    let recorder = env.trace();
    let mut morsel_spans = Vec::new();
    let mut idle_polls = 0u32;
    let mut last_maintain = 0u64;
    loop {
        let now = pool.now_ns();
        match pool.dispatcher.next_task(w, now) {
            Some(task) => {
                idle_polls = 0;
                // Capture identity before complete_task consumes the task.
                let traced = recorder.map(|_| {
                    let ident = (task.query_name().to_owned(), task.job_label().to_owned());
                    (ident, pool.now_ns())
                });
                let qs = task.query_counters();
                let mut ctx = TaskContext::new(env, w).with_query(&qs);
                task.run(&mut ctx);
                let now = pool.now_ns();
                pool.dispatcher.complete_task(&mut ctx, task, now);
                if let Some(((query, job), start_ns)) = traced {
                    morsel_spans.push(TraceEvent {
                        worker: w,
                        start_ns,
                        end_ns: now,
                        query,
                        job,
                        kind: SpanKind::Morsel,
                    });
                }
                if qs.done.load(Ordering::Acquire)
                    || now.saturating_sub(last_maintain) >= MAINTAIN_INTERVAL_NS
                {
                    pool.hook.maintain(pool);
                    last_maintain = now;
                }
            }
            None => {
                last_maintain = now;
                pool.hook.maintain(pool);
                if pool.draining.load(Ordering::SeqCst)
                    && pool.hook.is_idle()
                    && pool.dispatcher.all_done()
                {
                    break;
                }
                idle_polls += 1;
                if idle_polls < 16 {
                    std::thread::yield_now();
                } else {
                    // Cap the backoff at ~1ms so deadline expiry of
                    // queued queries stays responsive.
                    let us = 1u64 << idle_polls.min(26).saturating_sub(16);
                    std::thread::sleep(Duration::from_micros(us.min(1_000)));
                }
            }
        }
    }
    if let Some(recorder) = recorder {
        flush_spans(recorder, morsel_spans);
    }
}

/// Record one worker's morsel spans, buffered thread-locally so tracing
/// adds no cross-thread synchronization to the morsel loop, plus one
/// [`SpanKind::Pipeline`] span per contiguous run of same-(query, job)
/// morsels among them.
fn flush_spans(recorder: &TraceRecorder, morsels: Vec<TraceEvent>) {
    let mut pipelines: Vec<TraceEvent> = Vec::new();
    for m in &morsels {
        match pipelines.last_mut() {
            Some(p) if p.query == m.query && p.job == m.job => p.end_ns = m.end_ns,
            _ => pipelines.push(TraceEvent {
                kind: SpanKind::Pipeline,
                ..m.clone()
            }),
        }
    }
    for span in morsels.into_iter().chain(pipelines) {
        recorder.record(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{BuiltJob, PipelineJob};
    use crate::query::{result_slot, FnStage, Stage};
    use crate::task::{ChunkMeta, Morsel};
    use morsel_numa::{SocketId, Topology};
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicU64 as Counter;
    use std::sync::Arc;
    use std::thread::ThreadId;

    struct SumJob {
        total: Counter,
    }

    impl PipelineJob for SumJob {
        fn run_morsel(&self, ctx: &mut TaskContext<'_>, m: Morsel) {
            ctx.read(SocketId(0), m.rows() as u64 * 8);
            self.total
                .fetch_add(m.range.clone().map(|r| r as u64).sum(), Ordering::Relaxed);
        }
    }

    fn spec(name: &str, rows: usize, job: Arc<SumJob>) -> QuerySpec {
        let stage: Box<dyn Stage> = Box::new(FnStage::new("sum", move |_e, _w| {
            BuiltJob::new(
                "sum",
                job,
                vec![ChunkMeta {
                    node: SocketId(0),
                    rows,
                }],
            )
        }));
        QuerySpec::new(name, vec![stage], result_slot())
    }

    #[test]
    fn parallel_execution_is_exact() {
        let env = ExecEnv::new(Topology::laptop());
        let exec = ThreadedExecutor::new(env, DispatchConfig::new(4).with_morsel_size(1_000));
        let job = Arc::new(SumJob {
            total: Counter::new(0),
        });
        let n = 100_000u64;
        let handles = exec.run(vec![spec("q", n as usize, Arc::clone(&job))]);
        assert!(handles[0].is_done());
        assert_eq!(job.total.load(Ordering::Relaxed), n * (n - 1) / 2);
        let stats = handles[0].stats();
        assert_eq!(stats.morsels, 100);
    }

    #[test]
    fn many_concurrent_queries() {
        let env = ExecEnv::new(Topology::laptop());
        let exec = ThreadedExecutor::new(env, DispatchConfig::new(4).with_morsel_size(500));
        let jobs: Vec<Arc<SumJob>> = (0..6)
            .map(|_| {
                Arc::new(SumJob {
                    total: Counter::new(0),
                })
            })
            .collect();
        let specs = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| spec(&format!("q{i}"), 10_000, Arc::clone(j)))
            .collect();
        let handles = exec.run(specs);
        assert!(handles.iter().all(QueryHandle::is_done));
        let expect = 10_000u64 * 9_999 / 2;
        for j in &jobs {
            assert_eq!(j.total.load(Ordering::Relaxed), expect);
        }
    }

    /// Counts housekeeping calls per worker thread.
    #[derive(Default)]
    struct PollCounts(Mutex<HashMap<ThreadId, u32>>);

    impl PoolHook for PollCounts {
        fn maintain(&self, _pool: &Pool<Self>) {
            *self
                .0
                .lock()
                .entry(std::thread::current().id())
                .or_default() += 1;
        }
    }

    #[test]
    fn query_submitted_to_a_backed_off_pool_completes() {
        let workers = 2;
        let env = ExecEnv::new(Topology::laptop());
        let mut pool = WorkerPool::start(
            env,
            DispatchConfig::new(workers).with_morsel_size(1_000),
            PollCounts::default(),
        );
        // Nothing is submitted yet, so every housekeeping call is an idle
        // poll; from the 27th on, a worker sleeps the capped 1 ms.
        let backed_off = |counts: &HashMap<ThreadId, u32>| {
            counts.len() == workers && counts.values().all(|&n| n > 26)
        };
        while !backed_off(&pool.pool().hook().0.lock()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let job = Arc::new(SumJob {
            total: Counter::new(0),
        });
        let n = 20_000u64;
        let p = pool.pool();
        let handle = p.submit(spec("late", n as usize, Arc::clone(&job)), p.now_ns());
        while !handle.is_done() {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(job.total.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert_eq!(pool.drain(), 0, "an idle pool drains without panics");
    }
}
