//! Service-semantics test suite.
//!
//! The scheduling-sensitive properties (admission bounds, deadline
//! cancellation, priority aging under saturation) are proven in the
//! deterministic virtual-time executor, so they hold bit-for-bit on any
//! host; the wall-clock tests at the bottom smoke-test the threaded
//! service end to end without asserting on timing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use morsel_core::{
    result_slot, AgingPolicy, BuiltJob, ChunkMeta, DispatchConfig, ExecEnv, FailReason, FnStage,
    MemPool, Morsel, PipelineJob, QueryOutcome, QuerySpec, RejectReason, SimExecutor, Stage,
    TaskContext,
};
use morsel_numa::{SocketId, Topology};
use morsel_service::{
    run_closed_loop, AdmissionConfig, AdmissionDecision, AdmissionQueue, QueryRequest,
    QueryService, ServiceConfig,
};

/// A synthetic pipeline charging fixed virtual CPU time per tuple (for
/// the simulator) and counting the rows it actually processed.
struct SpinJob {
    ns_per_tuple: f64,
    rows_seen: AtomicU64,
}

impl SpinJob {
    fn new(ns_per_tuple: f64) -> Arc<Self> {
        Arc::new(SpinJob {
            ns_per_tuple,
            rows_seen: AtomicU64::new(0),
        })
    }
}

impl PipelineJob for SpinJob {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, m: Morsel) {
        ctx.cpu(m.rows() as u64, self.ns_per_tuple);
        self.rows_seen.fetch_add(m.rows() as u64, Ordering::Relaxed);
    }
}

fn spin_spec(name: &str, rows: usize, job: Arc<SpinJob>) -> QuerySpec {
    let stage: Box<dyn Stage> = Box::new(FnStage::new("spin", move |_env, _w| {
        BuiltJob::new(
            "spin",
            job,
            vec![ChunkMeta {
                node: SocketId(0),
                rows,
            }],
        )
    }));
    QuerySpec::new(name, vec![stage], result_slot())
}

/// A pipeline that sleeps per morsel — real elapsed time for the
/// wall-clock service tests.
struct SleepJob {
    per_morsel: Duration,
}

impl PipelineJob for SleepJob {
    fn run_morsel(&self, _ctx: &mut TaskContext<'_>, _m: Morsel) {
        std::thread::sleep(self.per_morsel);
    }
}

fn sleep_spec(name: &str, morsels: usize, per_morsel: Duration) -> QuerySpec {
    let stage: Box<dyn Stage> = Box::new(FnStage::new("sleep", move |_env, _w| {
        BuiltJob::new(
            "sleep",
            Arc::new(SleepJob { per_morsel }),
            vec![ChunkMeta {
                node: SocketId(0),
                rows: morsels,
            }],
        )
        .with_morsel_size(1)
    }));
    QuerySpec::new(name, vec![stage], result_slot())
}

// ------------------------------------------------------- admission bounds

/// Drive the admission queue against real query executions in the
/// deterministic simulator: each round dispatches exactly the admitted
/// set, runs it to completion in virtual time, and feeds completions
/// back. The in-flight bound must hold at every step and every query
/// must eventually run.
#[test]
fn admission_bound_respected_under_simulated_execution() {
    const BOUND: usize = 3;
    const TOTAL: usize = 11;
    let env = ExecEnv::new(Topology::laptop());
    let mut queue: AdmissionQueue<usize> =
        AdmissionQueue::new(AdmissionConfig::new(BOUND).with_max_queue(TOTAL));
    let jobs: Vec<Arc<SpinJob>> = (0..TOTAL).map(|_| SpinJob::new(5.0)).collect();

    let mut virtual_now = 0u64;
    let mut batch: Vec<usize> = Vec::new();
    for q in 0..TOTAL {
        match queue.submit(q, 1 + (q % 3) as u32, virtual_now, None, true) {
            AdmissionDecision::Admitted(q) => batch.push(q),
            AdmissionDecision::Queued => {}
            AdmissionDecision::Rejected(_) => panic!("queue sized to hold everything"),
        }
        assert!(queue.in_flight() <= BOUND);
    }
    assert_eq!(batch.len(), BOUND);
    assert_eq!(queue.queued(), TOTAL - BOUND);

    let mut ran = 0usize;
    while !batch.is_empty() {
        assert!(batch.len() <= BOUND, "admitted batch exceeds bound");
        assert_eq!(queue.in_flight(), batch.len());
        let mut sim = SimExecutor::new(env.clone(), DispatchConfig::new(4).with_morsel_size(1_000));
        for &q in &batch {
            sim.submit(spin_spec(&format!("q{q}"), 20_000, Arc::clone(&jobs[q])));
        }
        let report = sim.run();
        virtual_now += report.makespan_ns;
        ran += batch.len();
        let mut next = Vec::new();
        for _ in 0..batch.len() {
            next.extend(queue.complete(virtual_now, true));
            assert!(queue.in_flight() <= BOUND);
        }
        batch = next;
    }
    assert_eq!(ran, TOTAL);
    assert!(queue.is_idle());
    for j in &jobs {
        assert_eq!(j.rows_seen.load(Ordering::Relaxed), 20_000);
    }
}

// ------------------------------------------------------------- deadlines

/// A query whose deadline passes mid-flight is cancelled at a morsel
/// boundary and reports `Cancelled` — deterministically, in virtual time.
#[test]
fn deadline_cancelled_query_reports_cancelled() {
    let env = ExecEnv::new(Topology::laptop());
    let job = SpinJob::new(10.0);
    // ~10ms of virtual work, deadline at 1ms.
    let spec = spin_spec("doomed", 1_000_000, Arc::clone(&job)).with_deadline_ns(1_000_000);
    let mut sim = SimExecutor::new(env.clone(), DispatchConfig::new(2).with_morsel_size(1_000));
    sim.submit(spec);
    let report = sim.run();
    let h = report.handle("doomed");
    assert_eq!(h.outcome(), Some(QueryOutcome::Cancelled));
    let processed = job.rows_seen.load(Ordering::Relaxed);
    assert!(
        processed < 1_000_000,
        "cancelled query processed all {processed} rows"
    );
    // A deadline it can make leaves the query untouched.
    let easy = SpinJob::new(10.0);
    let spec = spin_spec("easy", 10_000, Arc::clone(&easy)).with_deadline_ns(u64::MAX / 2);
    let mut sim = SimExecutor::new(env, DispatchConfig::new(2).with_morsel_size(1_000));
    sim.submit(spec);
    let report = sim.run();
    assert_eq!(
        report.handle("easy").outcome(),
        Some(QueryOutcome::Completed)
    );
    assert_eq!(easy.rows_seen.load(Ordering::Relaxed), 10_000);
}

// ------------------------------------------------------ priority aging

/// Sustained priority-8 traffic saturating all workers, one priority-1
/// query submitted at t=0. With aging the starved query's effective
/// priority grows until it claims a real share: it must complete while
/// the high-priority barrage is still arriving, and strictly earlier
/// than the same schedule without aging.
#[test]
fn priority_aging_schedules_starved_query_under_saturation() {
    const WORKERS: usize = 4;
    const HI_COUNT: usize = 10;
    const HI_SPACING_NS: u64 = 400_000; // one hi query every 0.4ms
    const HI_ROWS: usize = 200_000; // ~2ms of work each: always backlogged
    const LO_ROWS: usize = 150_000;

    let run = |aging: AgingPolicy| -> (u64, u64) {
        let env = ExecEnv::new(Topology::laptop());
        let config = DispatchConfig::new(WORKERS)
            .with_morsel_size(2_000)
            .with_aging(aging);
        let mut sim = SimExecutor::new(env, config);
        sim.submit(spin_spec("lo", LO_ROWS, SpinJob::new(10.0)));
        for k in 0..HI_COUNT {
            let spec = spin_spec(&format!("hi{k}"), HI_ROWS, SpinJob::new(10.0)).with_priority(8);
            sim.submit_at(k as u64 * HI_SPACING_NS, spec);
        }
        let report = sim.run();
        let lo_finish = report.handle("lo").stats().finished_ns;
        let last_hi_finish = (0..HI_COUNT)
            .map(|k| report.handle(&format!("hi{k}")).stats().finished_ns)
            .max()
            .unwrap();
        (lo_finish, last_hi_finish)
    };

    let (lo_aged, _) = run(AgingPolicy::every(50_000).with_max_boost(64));
    let (lo_unaged, last_hi_unaged) = run(AgingPolicy::none());

    let last_arrival = (HI_COUNT as u64 - 1) * HI_SPACING_NS;
    assert!(
        lo_aged < last_arrival,
        "aged priority-1 query finished at {lo_aged}ns, after the last \
         priority-8 arrival at {last_arrival}ns — still starved"
    );
    assert!(
        lo_aged < lo_unaged,
        "aging did not help: {lo_aged}ns aged vs {lo_unaged}ns unaged"
    );
    // Sanity: the barrage really did outlast the aged query's lifetime.
    assert!(last_hi_unaged > lo_aged * 2);
}

// ---------------------------------------------- threaded service (smoke)

#[test]
fn service_runs_mixed_priority_load_to_completion() {
    let env = ExecEnv::new(Topology::laptop());
    let service = QueryService::start(
        env,
        ServiceConfig::new(2)
            .with_max_in_flight(2)
            .with_max_queue(64)
            .with_aging(AgingPolicy::every(1_000_000)),
    );
    let run = run_closed_loop(&service, 4, 5, |client, seq| {
        let prio = if client.is_multiple_of(2) { 1 } else { 8 };
        QueryRequest::new(
            sleep_spec(&format!("c{client}-q{seq}"), 2, Duration::from_micros(200))
                .with_priority(prio),
        )
    });
    assert_eq!(run.len(), 20);
    assert_eq!(run.failed_clients, 0);
    assert!(run
        .reports
        .iter()
        .all(|r| r.outcome == QueryOutcome::Completed));
    assert!(run.reports.iter().all(|r| r.latency_ns > 0));
    let summary = service.shutdown();
    assert_eq!(summary.completed(), 20);
    assert_eq!(
        summary.cancelled() + summary.rejected() + summary.failed(),
        0
    );
    assert_eq!(summary.worker_panics, 0);
    assert_eq!(summary.per_priority.len(), 2);
    let total: u64 = summary.per_priority.iter().map(|(_, _, h)| h.count()).sum();
    assert_eq!(total, 20);
    assert_eq!(summary.totals.total(), 20);
    assert!(summary.throughput_qps() > 0.0);
}

#[test]
fn service_rejects_when_queue_is_full() {
    let env = ExecEnv::new(Topology::laptop());
    let service = QueryService::start(
        env,
        ServiceConfig::new(1)
            .with_max_in_flight(1)
            .with_max_queue(0),
    );
    let slow = service.submit(QueryRequest::new(sleep_spec(
        "slow",
        50,
        Duration::from_millis(2),
    )));
    // The slot is taken and the queue holds nothing: immediate rejection.
    let refused = service.submit(QueryRequest::new(sleep_spec(
        "refused",
        1,
        Duration::from_micros(10),
    )));
    let refused = refused.wait();
    assert_eq!(
        refused.outcome,
        QueryOutcome::Rejected(RejectReason::QueueFull)
    );
    assert_eq!(refused.latency_ns, 0);
    assert_eq!(slow.wait().outcome, QueryOutcome::Completed);
    let summary = service.shutdown();
    assert_eq!(summary.completed(), 1);
    assert_eq!(summary.rejected(), 1);
}

#[test]
fn dropping_a_live_service_joins_its_workers() {
    let env = ExecEnv::new(Topology::laptop());
    let service = QueryService::start(env.clone(), ServiceConfig::new(2));
    let ticket = service.submit(QueryRequest::new(sleep_spec(
        "inflight",
        20,
        Duration::from_millis(1),
    )));
    // No shutdown: an early return or a failed assertion drops it so.
    drop(service);
    // Drop drained the query first...
    assert_eq!(
        ticket.try_report().map(|r| r.outcome),
        Some(QueryOutcome::Completed)
    );
    // ...and then joined every worker: each held the service's shared
    // environment, so the test's own handle is the last one left.
    assert_eq!(Arc::strong_count(env.counters()), 1);
}

#[test]
fn service_cancels_on_deadline_running_and_queued() {
    let env = ExecEnv::new(Topology::laptop());
    let service = QueryService::start(
        env,
        ServiceConfig::new(2)
            .with_max_in_flight(1)
            .with_max_queue(8),
    );
    // Dispatched immediately, but far too slow for its deadline.
    let doomed = service.submit(
        QueryRequest::new(sleep_spec("doomed", 200, Duration::from_millis(2)))
            .with_deadline(Duration::from_millis(20)),
    );
    // Queued behind it with a deadline that expires in the queue.
    let stale = service.submit(
        QueryRequest::new(sleep_spec("stale", 1, Duration::from_micros(10)))
            .with_deadline(Duration::from_millis(5)),
    );
    assert_eq!(doomed.wait().outcome, QueryOutcome::Cancelled);
    assert_eq!(stale.wait().outcome, QueryOutcome::Cancelled);
    let summary = service.shutdown();
    assert_eq!(summary.cancelled(), 2);
    assert_eq!(summary.completed(), 0);
}

/// A pipeline that reserves `per_morsel` bytes of budgeted memory on
/// every morsel and sleeps, stopping cooperatively once the budget
/// refuses (the refusal itself marks the query failed).
struct ReserveJob {
    per_morsel: u64,
    sleep: Duration,
}

impl PipelineJob for ReserveJob {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, _m: Morsel) {
        if ctx.try_reserve(self.per_morsel).is_err() {
            return;
        }
        std::thread::sleep(self.sleep);
    }
}

fn reserve_spec(name: &str, morsels: usize, per_morsel: u64, sleep: Duration) -> QuerySpec {
    let stage: Box<dyn Stage> = Box::new(FnStage::new("reserve", move |_env, _w| {
        BuiltJob::new(
            "reserve",
            Arc::new(ReserveJob { per_morsel, sleep }),
            vec![ChunkMeta {
                node: SocketId(0),
                rows: morsels,
            }],
        )
        .with_morsel_size(1)
    }));
    QuerySpec::new(name, vec![stage], result_slot())
}

/// An over-budget query resolves `Failed(ResourceExhausted)` without
/// disturbing the service: later queries complete, the report counts the
/// failure per priority, and every reserved byte returns to the pool.
#[test]
fn over_budget_query_fails_without_killing_service() {
    let env = ExecEnv::new(Topology::laptop());
    let service = QueryService::start(env, ServiceConfig::new(2).with_mem_pool_bytes(16 << 20));
    let pool = Arc::clone(service.mem_pool().expect("config installed a pool"));
    // 8 morsels wanting 1 MiB each against a 2.5 MiB cap: the third
    // reservation must push the query over its budget.
    let hog = service.submit(
        QueryRequest::new(reserve_spec("hog", 8, 1 << 20, Duration::from_micros(50)))
            .with_mem_cap(5 << 19),
    );
    assert_eq!(
        hog.wait().outcome,
        QueryOutcome::Failed(FailReason::ResourceExhausted)
    );
    let fine = service.submit(QueryRequest::new(sleep_spec(
        "fine",
        2,
        Duration::from_micros(100),
    )));
    assert_eq!(fine.wait().outcome, QueryOutcome::Completed);
    let summary = service.shutdown();
    assert_eq!(summary.failed(), 1);
    assert_eq!(summary.completed(), 1);
    assert_eq!(summary.totals.total(), 2);
    assert_eq!(pool.reserved(), 0, "failed query leaked pool reservations");
}

/// The service keeps an environment-supplied pool rather than installing
/// a second one from the config.
#[test]
fn env_pool_takes_precedence_over_config() {
    let pool = MemPool::new(4 << 20);
    let env = ExecEnv::new(Topology::laptop()).with_mem_pool(Arc::clone(&pool));
    let service = QueryService::start(env, ServiceConfig::new(1).with_mem_pool_bytes(512 << 20));
    assert!(Arc::ptr_eq(service.mem_pool().unwrap(), &pool));
    service.shutdown();
}

/// Under memory pressure the service stops fast-path admission and sheds
/// the waiting query with `Rejected(MemoryPressure)`; once the pressure
/// clears, admission resumes.
#[test]
fn memory_pressure_sheds_waiters_then_recovers() {
    let env = ExecEnv::new(Topology::laptop());
    let service = QueryService::start(
        env,
        ServiceConfig::new(2)
            .with_max_in_flight(4)
            .with_max_queue(8)
            .with_mem_pool_bytes(8 << 20),
    );
    let pool = Arc::clone(service.mem_pool().unwrap());
    // The first morsel reserves 7.5 MiB (beyond the 7/8 pressure
    // threshold); the remaining ~40 hold it while sleeping, so the pool
    // stays pressured for the hog's whole runtime.
    struct HogJob {
        reserve: u64,
        taken: std::sync::atomic::AtomicBool,
        sleep: Duration,
    }
    impl PipelineJob for HogJob {
        fn run_morsel(&self, ctx: &mut TaskContext<'_>, _m: Morsel) {
            if !self.taken.swap(true, Ordering::AcqRel) {
                ctx.try_reserve(self.reserve).expect("pool fits the hog");
            }
            std::thread::sleep(self.sleep);
        }
    }
    let job = Arc::new(HogJob {
        reserve: (15 << 20) / 2,
        taken: std::sync::atomic::AtomicBool::new(false),
        sleep: Duration::from_millis(2),
    });
    let stage: Box<dyn Stage> = Box::new(FnStage::new("hog", move |_env, _w| {
        BuiltJob::new(
            "hog",
            Arc::clone(&job) as Arc<dyn PipelineJob>,
            vec![ChunkMeta {
                node: SocketId(0),
                rows: 40,
            }],
        )
        .with_morsel_size(1)
    }));
    let hog = service.submit(QueryRequest::new(QuerySpec::new(
        "hog",
        vec![stage],
        result_slot(),
    )));
    // Wait until the hog's reservations actually push the pool under
    // pressure before offering the victim.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !pool.under_pressure() {
        assert!(
            std::time::Instant::now() < deadline,
            "hog never pressured the pool (reserved {} B)",
            pool.reserved()
        );
        std::thread::yield_now();
    }
    let victim = service.submit(QueryRequest::new(sleep_spec(
        "victim",
        1,
        Duration::from_micros(10),
    )));
    assert_eq!(
        victim.wait().outcome,
        QueryOutcome::Rejected(RejectReason::MemoryPressure)
    );
    assert_eq!(hog.wait().outcome, QueryOutcome::Completed);
    // Pressure gone: admission works again.
    let after = service.submit(QueryRequest::new(sleep_spec(
        "after",
        1,
        Duration::from_micros(10),
    )));
    assert_eq!(after.wait().outcome, QueryOutcome::Completed);
    let summary = service.shutdown();
    assert_eq!(summary.rejected(), 1);
    assert_eq!(summary.completed(), 2);
    assert_eq!(pool.reserved(), 0);
}

/// A deadline-cancelled query must resolve promptly even when every
/// worker stays busy on other queries (no completion event, no idle
/// poll): the workers' periodic housekeeping pass picks up the reaped
/// query.
#[test]
fn deadline_resolves_while_pool_stays_saturated() {
    let env = ExecEnv::new(Topology::laptop());
    let service = QueryService::start(
        env,
        ServiceConfig::new(1)
            .with_max_in_flight(2)
            .with_max_queue(4),
    );
    // Keeps the single worker busy for ~300ms.
    let long = service.submit(QueryRequest::new(sleep_spec(
        "long",
        150,
        Duration::from_millis(2),
    )));
    // Shares the worker until its 15ms deadline, then is reaped while
    // `long` keeps the worker saturated.
    let doomed = service.submit(
        QueryRequest::new(sleep_spec("doomed", 150, Duration::from_millis(2)))
            .with_deadline(Duration::from_millis(15)),
    );
    let report = doomed.wait();
    assert_eq!(report.outcome, QueryOutcome::Cancelled);
    // Resolved far before `long` finishes (~300ms): the periodic
    // maintain pass, not the completion event, finalized it.
    assert!(
        report.latency_ns < 150_000_000,
        "doomed resolved only after {}ms",
        report.latency_ns / 1_000_000
    );
    assert_eq!(long.wait().outcome, QueryOutcome::Completed);
    service.shutdown();
}
