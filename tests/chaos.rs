//! Chaos property suite: deterministic fault injection over a mixed
//! TPC-H/SSB workload.
//!
//! Each scenario derives a random fault schedule (injected panics,
//! failed allocations, virtual delays, starvation-level memory caps)
//! from an LCG seed, runs the workload under it, and asserts the
//! resource-governance invariants:
//!
//! - **No deadlock**: the simulator's `run()` proves the event loop
//!   drains; the threaded service's `shutdown()` joins every worker.
//! - **No leaked reservations**: the service-wide memory pool is back
//!   to zero bytes reserved after every scenario.
//! - **Every ticket resolves exactly once**: every submission reaches a
//!   terminal outcome and the report's outcome counts conserve.
//! - **Fault isolation**: queries the schedule never touched complete
//!   with results byte-identical to a fault-free baseline; a panicking
//!   or over-budget query fails *itself* (typed outcome), never the
//!   process or its neighbours.
//!
//! The fixed-seed tests run everywhere. Set `MORSEL_CHAOS_SEED=<n>` to
//! run an additional randomized schedule (CI passes a fresh seed per
//! run); the schedule is written to `target/chaos/fault_plan.txt`
//! before execution so a failing run leaves its `FaultPlan` behind as
//! an artifact.

use std::sync::{Arc, OnceLock};

use morsel_repro::core::{
    BuiltJob, ChunkMeta, FailReason, Fault, FaultPlan, FnStage, MemPool, Morsel, PipelineJob,
    QueryOutcome, Stage, TaskContext,
};
use morsel_repro::datagen::{SsbDb, TpchDb};
use morsel_repro::prelude::*;
use morsel_repro::queries::{format_rows, ssb_queries, tpch_queries};
use morsel_repro::service::{
    CacheDisposition, Error, ErrorKind, Execution, QueryRequest, QueryService, ServiceConfig,
    Session,
};

// ------------------------------------------------------------ utilities

/// Deterministic schedule generator (no external RNG dependency).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x2545_F491_4F6C_DD1D))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const TPCH_MIX: [usize; 4] = [1, 6, 13, 14];
const SSB_MIX: [&str; 2] = ["1.1", "2.1"];
const MIX_LEN: usize = TPCH_MIX.len() + SSB_MIX.len();

fn plan_for(tpch: &TpchDb, ssb: &SsbDb, mix: usize) -> Plan {
    if mix < TPCH_MIX.len() {
        tpch_queries::query(tpch, TPCH_MIX[mix])
    } else {
        ssb_queries::query(ssb, SSB_MIX[mix - TPCH_MIX.len()])
    }
}

fn sorted_rows(batch: &morsel_repro::storage::Batch) -> Vec<String> {
    let mut rows = format_rows(batch, usize::MAX);
    rows.sort();
    rows
}

/// The shared workload: tiny TPC-H + SSB instances and, for every mix
/// entry, the fault-free result (all aggregates in the mix are
/// integer-valued, so results are bit-stable across executors and
/// worker interleavings; rows are compared order-insensitively).
struct Workload {
    tpch: TpchDb,
    ssb: SsbDb,
    baseline: Vec<Vec<String>>,
}

fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| {
        let topo = Topology::laptop();
        let tpch = generate_tpch(
            TpchConfig {
                scale: 0.001,
                ..Default::default()
            },
            &topo,
        );
        let ssb = generate_ssb(
            SsbConfig {
                scale: 0.001,
                ..Default::default()
            },
            &topo,
        );
        let env = ExecEnv::new(topo);
        let baseline = (0..MIX_LEN)
            .map(|m| {
                let out = run_sim(
                    &env,
                    "baseline",
                    plan_for(&tpch, &ssb, m),
                    SystemVariant::full(),
                    4,
                    2048,
                );
                sorted_rows(&out.result)
            })
            .collect();
        Workload {
            tpch,
            ssb,
            baseline,
        }
    })
}

/// Injected panics are expected here; keep them off the test output.
/// (The hook is process-global: worst case another test's panic message
/// is swallowed while a chaos scenario runs, which only affects
/// diagnostics, never outcomes.)
fn silenced<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

// --------------------------------------------------- simulator chaos

#[derive(Clone, Copy, Debug, PartialEq)]
enum Injected {
    None,
    Panic,
    Alloc,
    Delay,
    Cap,
}

/// One randomized simulator round: 8 queries, roughly half touched by a
/// fault. Returns nothing — panics on any invariant violation.
fn run_sim_chaos(seed: u64) {
    let w = workload();
    let mut rng = Lcg::new(seed);
    const N: usize = 8;

    let mut plan = FaultPlan::none();
    let mut queries = Vec::new();
    for i in 0..N {
        let name = format!("chaos-{seed}-{i}");
        let mix = rng.below(MIX_LEN as u64) as usize;
        let injected = match rng.below(10) {
            0 | 1 => {
                plan = plan.with(Fault::PanicAt {
                    query: name.clone(),
                    op: String::new(),
                    morsel: rng.below(4),
                });
                Injected::Panic
            }
            2 | 3 => {
                plan = plan.with(Fault::FailAlloc {
                    query: name.clone(),
                    alloc: rng.below(3),
                });
                Injected::Alloc
            }
            4 => {
                plan = plan.with(Fault::DelayMorsel {
                    query: name.clone(),
                    op: String::new(),
                    morsel: rng.below(6),
                    delay_ns: 1 + rng.below(1_000_000),
                });
                Injected::Delay
            }
            5 => Injected::Cap,
            _ => Injected::None,
        };
        queries.push((name, mix, injected));
    }

    let pool = MemPool::new(1 << 30);
    let env = ExecEnv::new(Topology::laptop())
        .with_fault_plan(plan)
        .with_mem_pool(Arc::clone(&pool));
    let mut sim = SimExecutor::new(env, DispatchConfig::new(8).with_morsel_size(2048));
    let mut slots = Vec::new();
    for (name, mix, injected) in &queries {
        let (mut spec, slot) = compile_query(
            name.clone(),
            plan_for(&w.tpch, &w.ssb, *mix),
            SystemVariant::full(),
        );
        if *injected == Injected::Cap {
            spec = spec.with_mem_cap(64);
        }
        sim.submit(spec);
        slots.push(slot);
    }
    // `run` itself asserts the no-deadlock invariant (event loop drains
    // with every query terminal).
    let report = silenced(|| sim.run());

    for ((name, mix, injected), slot) in queries.iter().zip(&slots) {
        let outcome = report
            .handle(name)
            .outcome()
            .unwrap_or_else(|| panic!("{name} did not resolve"));
        let check_baseline = || {
            let result = slot.lock().take().unwrap_or_default();
            assert_eq!(
                sorted_rows(&result),
                w.baseline[*mix],
                "{name} (mix {mix}, {injected:?}) diverged from the fault-free baseline",
            );
        };
        match injected {
            // Delays perturb the schedule, never the answer.
            Injected::None | Injected::Delay => {
                assert_eq!(outcome, QueryOutcome::Completed, "{name}: {outcome}");
                check_baseline();
            }
            // A panic fault fails its query unless the query finished
            // before the target morsel count was ever reached.
            Injected::Panic => match outcome {
                QueryOutcome::Failed(FailReason::OperatorPanic) => {}
                QueryOutcome::Completed => check_baseline(),
                other => panic!("{name}: panic fault produced {other}"),
            },
            // Allocation faults and starvation caps surface as typed
            // resource exhaustion (or don't fire at all on a query that
            // reserves little enough).
            Injected::Alloc | Injected::Cap => match outcome {
                QueryOutcome::Failed(FailReason::ResourceExhausted) => {}
                QueryOutcome::Completed => check_baseline(),
                other => panic!("{name}: {injected:?} fault produced {other}"),
            },
        }
    }
    assert_eq!(
        pool.reserved(),
        0,
        "seed {seed}: pool holds leaked reservations after drain"
    );
}

#[test]
fn sim_chaos_fixed_seeds() {
    for seed in [7, 19, 42, 1031, 65_537] {
        run_sim_chaos(seed);
    }
}

/// A panic injected *past* the query's deadline never fires: the
/// deadline sweep cancels and reaps the query first, so it resolves
/// `Cancelled` — not `Failed` — exactly once. The mirror fault placed
/// before the deadline resolves `Failed(OperatorPanic)`.
#[test]
fn deadline_beats_late_injected_panic_in_sim() {
    struct Spin;
    impl PipelineJob for Spin {
        fn run_morsel(&self, ctx: &mut TaskContext<'_>, m: Morsel) {
            ctx.cpu(m.rows() as u64, 10.0);
        }
    }
    let spec = |name: &str| {
        let stage: Box<dyn Stage> = Box::new(FnStage::new("spin", |_env, _w| {
            BuiltJob::new(
                "spin",
                Arc::new(Spin),
                vec![ChunkMeta {
                    node: SocketId(0),
                    rows: 1_000_000,
                }],
            )
        }));
        // ~10ms of virtual work against a 1ms deadline.
        QuerySpec::new(name, vec![stage], result_slot()).with_deadline_ns(1_000_000)
    };
    // Morsel 900 (size 1000 → ~9ms in) is far past the deadline; morsel
    // 5 (~50us) is far before it.
    let run = |name: &str, morsel: u64| -> QueryOutcome {
        let env = ExecEnv::new(Topology::laptop()).with_fault_plan(FaultPlan::none().with(
            Fault::PanicAt {
                query: name.to_owned(),
                op: String::new(),
                morsel,
            },
        ));
        let mut sim = SimExecutor::new(env, DispatchConfig::new(2).with_morsel_size(1_000));
        sim.submit(spec(name));
        let report = silenced(|| sim.run());
        let outcome = report.handle(name).outcome().expect("query resolved");
        // Exactly once: the outcome is stable on re-read.
        assert_eq!(report.handle(name).outcome(), Some(outcome));
        outcome
    };
    assert_eq!(run("late", 900), QueryOutcome::Cancelled);
    assert_eq!(
        run("early", 5),
        QueryOutcome::Failed(FailReason::OperatorPanic)
    );
}

// ----------------------------------------------- threaded service gate

/// The chaos acceptance gate on the real threaded service: 4 workers,
/// 30 queries — 10% with injected panics, 10% with starvation-level
/// memory caps, the rest untouched. Every unaffected query must
/// complete with a baseline-identical result, every ticket must
/// resolve, the failed queries must carry typed outcomes, and the pool
/// must drain to zero.
fn run_service_chaos(seed: u64, artifact: Option<&std::path::Path>) {
    let w = workload();
    let mut rng = Lcg::new(seed);
    const N: usize = 30;

    let mut plan = FaultPlan::none();
    let mut queries = Vec::new();
    for i in 0..N {
        let name = format!("svc-{seed}-{i}");
        let (mix, injected) = match i % 10 {
            // Injected panic at an early morsel: guaranteed to fire on
            // every query in the mix (all have ≥ 4 morsels at this
            // scale and morsel size).
            0 => {
                plan = plan.with(Fault::PanicAt {
                    query: name.clone(),
                    op: String::new(),
                    morsel: rng.below(4),
                });
                (rng.below(MIX_LEN as u64) as usize, Injected::Panic)
            }
            // A 64-byte cap on TPC-H Q1 (which must materialize far
            // more): guaranteed resource exhaustion.
            5 => (0, Injected::Cap),
            _ => (rng.below(MIX_LEN as u64) as usize, Injected::None),
        };
        queries.push((name, mix, injected));
    }

    if let Some(path) = artifact {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(
            path,
            format!(
                "seed: {seed}\nMORSEL_FAULT_PLAN={plan}\ncaps: {}\n",
                queries
                    .iter()
                    .filter(|(_, _, i)| *i == Injected::Cap)
                    .map(|(n, _, _)| format!("{n}=64B"))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        );
    }

    let pool = MemPool::new(1 << 30);
    let env = ExecEnv::new(Topology::laptop())
        .with_fault_plan(plan)
        .with_mem_pool(Arc::clone(&pool));
    let service = QueryService::start(
        env,
        ServiceConfig::new(4)
            .with_morsel_size(2048)
            .with_max_in_flight(8)
            .with_max_queue(N),
    );

    let outcome = silenced(|| {
        let tickets: Vec<_> = queries
            .iter()
            .map(|(name, mix, injected)| {
                let (spec, slot) = compile_query(
                    name.clone(),
                    plan_for(&w.tpch, &w.ssb, *mix),
                    SystemVariant::full(),
                );
                let mut request = QueryRequest::new(spec);
                if *injected == Injected::Cap {
                    request = request.with_mem_cap(64);
                }
                (service.submit(request), slot)
            })
            .collect();

        for ((name, mix, injected), (ticket, slot)) in queries.iter().zip(&tickets) {
            let report = ticket.wait();
            match injected {
                Injected::None => {
                    assert_eq!(
                        report.outcome,
                        QueryOutcome::Completed,
                        "untouched {name} did not complete: {}",
                        report.outcome
                    );
                    let result = slot.lock().take().unwrap_or_default();
                    assert_eq!(
                        sorted_rows(&result),
                        w.baseline[*mix],
                        "untouched {name} (mix {mix}) diverged from baseline"
                    );
                }
                Injected::Panic => assert_eq!(
                    report.outcome,
                    QueryOutcome::Failed(FailReason::OperatorPanic),
                    "{name}: {}",
                    report.outcome
                ),
                Injected::Cap => assert_eq!(
                    report.outcome,
                    QueryOutcome::Failed(FailReason::ResourceExhausted),
                    "{name}: {}",
                    report.outcome
                ),
                other => unreachable!("{other:?} not used in the service gate"),
            }
        }
        service.shutdown()
    });

    let touched = queries
        .iter()
        .filter(|(_, _, i)| *i != Injected::None)
        .count() as u64;
    assert_eq!(outcome.totals.total(), N as u64, "ticket conservation");
    assert_eq!(outcome.completed(), N as u64 - touched);
    assert_eq!(outcome.failed(), touched);
    assert_eq!(outcome.rejected() + outcome.cancelled(), 0);
    assert_eq!(outcome.worker_panics, 0, "a worker thread died");
    assert_eq!(
        pool.reserved(),
        0,
        "seed {seed}: pool holds leaked reservations after shutdown"
    );
}

#[test]
fn service_chaos_gate_fixed_seed() {
    run_service_chaos(0xC0FFEE, None);
}

// ------------------------------------------------- cached-plan chaos

/// Run `sql` and return the outcome with how the plan cache treated it,
/// read off the counters: a failed execution is an `Err` that carries no
/// `SqlExecution`, but its lookup was still counted.
fn run_counted(
    session: &Session,
    service: &QueryService,
    name: &str,
    sql: &str,
) -> (Result<Execution, Error>, CacheDisposition) {
    let before = session.stats();
    let result = session.execute(service, name, sql);
    let after = session.stats();
    let hits = after.plan_hits - before.plan_hits;
    let misses = after.plan_misses - before.plan_misses;
    let disposition = match (hits, misses) {
        (1, 0) => CacheDisposition::Hit,
        (0, 1) => CacheDisposition::Miss,
        (0, 0) => CacheDisposition::Bypass,
        other => panic!("one statement, {other:?} plan lookups (hits, misses)"),
    };
    (result, disposition)
}

/// Faults injected into a *cached-plan* execution: the plan cache must
/// never retain a poisoned entry, reservations release exactly once,
/// and a later hit on the same shape succeeds. Covers both failure
/// classes — an injected operator panic and a refused memory
/// reservation (typed `ResourceExhausted`).
#[test]
fn poisoned_cached_plans_are_evicted_and_recover() {
    let w = workload();
    // The faults target submissions by *name*: "poison" and "squeeze"
    // are each the second execution of their shape — i.e. cache hits.
    let plan = FaultPlan::none()
        .with(Fault::PanicAt {
            query: "poison".to_owned(),
            op: String::new(),
            morsel: 0,
        })
        .with(Fault::FailAlloc {
            query: "squeeze".to_owned(),
            alloc: 0,
        });
    let pool = MemPool::new(1 << 30);
    let env = ExecEnv::new(Topology::laptop())
        .with_fault_plan(plan)
        .with_mem_pool(Arc::clone(&pool));
    let service = QueryService::start(
        env,
        ServiceConfig::new(4)
            .with_morsel_size(2048)
            .with_max_in_flight(4)
            .with_max_queue(16),
    );
    let session = Session::builder()
        .catalog(w.tpch.catalog())
        .topology(&Topology::laptop())
        .for_service(&service)
        .build();
    let sql = "SELECT COUNT(*) AS n, SUM(l_quantity) AS qty \
               FROM lineitem WHERE l_quantity < 30";
    // TPC-H Q1 for the memory leg: its aggregation state reserves
    // memory, so there is a first reservation to refuse.
    let q1 = morsel_repro::queries::tpch_sql::text(1).unwrap();

    let report = silenced(|| {
        let run = |name: &str, text: &str| run_counted(&session, &service, name, text);
        let rows = |exec: Execution| exec.rows().cloned().expect("a completed SELECT has rows");

        let (warm, disposition) = run("warm", sql);
        assert_eq!(disposition, CacheDisposition::Miss);
        let baseline = rows(warm.expect("warm run completes"));

        // The hit that dies mid-flight.
        let (poison, disposition) = run("poison", sql);
        assert_eq!(disposition, CacheDisposition::Hit);
        let err = poison.expect_err("the injected panic fails the query");
        assert_eq!(
            *err.kind(),
            ErrorKind::Failed(FailReason::OperatorPanic),
            "{err}"
        );
        assert_eq!(session.stats().plan_poisoned, 1);
        assert_eq!(pool.reserved(), 0, "panic leg leaked a reservation");

        // The poisoned entry is gone: cold replan, then hits again.
        let (recover, disposition) = run("recover", sql);
        assert_eq!(disposition, CacheDisposition::Miss);
        assert_eq!(rows(recover.expect("recovers")), baseline);
        let (rehit, disposition) = run("rehit", sql);
        assert_eq!(disposition, CacheDisposition::Hit);
        assert_eq!(rows(rehit.expect("rehit completes")), baseline);

        // Resource exhaustion on a warmed shape behaves the same way.
        let (warm_q1, _) = run("warm-q1", q1);
        warm_q1.expect("Q1 completes");
        let (squeeze, disposition) = run("squeeze", q1);
        assert_eq!(disposition, CacheDisposition::Hit);
        let err = squeeze.expect_err("the refused reservation fails the query");
        assert_eq!(
            *err.kind(),
            ErrorKind::Failed(FailReason::ResourceExhausted),
            "{err}"
        );
        assert_eq!(session.stats().plan_poisoned, 2);
        assert_eq!(pool.reserved(), 0, "memory leg leaked a reservation");
        let (recover_q1, disposition) = run("recover-q1", q1);
        assert_eq!(disposition, CacheDisposition::Miss);
        recover_q1.expect("Q1 recovers");

        service.shutdown()
    });

    assert_eq!(report.totals.total(), 7, "ticket conservation");
    assert_eq!(report.completed(), 5);
    assert_eq!(report.failed(), 2);
    assert_eq!(report.worker_panics, 0, "a worker thread died");
    assert_eq!(pool.reserved(), 0, "pool holds leaked reservations");
}

/// The result cache under a fault: a cold execution that fails must not
/// seed the cache, the retry repopulates it, and only then does a
/// repeat get served from memory.
#[test]
fn result_cache_never_retains_a_poisoned_entry() {
    let w = workload();
    let plan = FaultPlan::none().with(Fault::PanicAt {
        query: "cold".to_owned(),
        op: String::new(),
        morsel: 0,
    });
    let pool = MemPool::new(1 << 30);
    let env = ExecEnv::new(Topology::laptop())
        .with_fault_plan(plan)
        .with_mem_pool(Arc::clone(&pool));
    let service = QueryService::start(
        env,
        ServiceConfig::new(4)
            .with_morsel_size(2048)
            .with_max_in_flight(4)
            .with_max_queue(16),
    );
    let session = Session::builder()
        .catalog(w.tpch.catalog())
        .topology(&Topology::laptop())
        .for_service(&service)
        .result_caching(true)
        .build();
    let sql = "SELECT SUM(l_extendedprice) AS total \
               FROM lineitem WHERE l_quantity < 20";

    let report = silenced(|| {
        let (cold, disposition) = run_counted(&session, &service, "cold", sql);
        assert_eq!(disposition, CacheDisposition::Miss);
        let err = cold.expect_err("the injected panic fails the query");
        assert_eq!(
            *err.kind(),
            ErrorKind::Failed(FailReason::OperatorPanic),
            "{err}"
        );
        let stats = session.stats();
        assert_eq!((stats.result_hits, stats.result_misses), (0, 1), "{stats}");
        assert_eq!(pool.reserved(), 0, "failed run leaked a reservation");

        // Nothing was cached by the failure: this is a miss that runs
        // for real (the injected fault only targeted "cold").
        let retry = session.execute(&service, "retry", sql).expect("retry");
        let retry = retry.query().expect("a SELECT yields a query execution");
        assert_eq!(retry.result_cache, CacheDisposition::Miss);
        assert_eq!(retry.plan_cache, CacheDisposition::Miss, "plan was evicted");
        assert_eq!(retry.report.outcome, QueryOutcome::Completed);
        let rows = retry.rows.clone().expect("retry returns rows");

        let served = session.execute(&service, "served", sql).expect("served");
        let served = served.query().expect("a SELECT yields a query execution");
        assert_eq!(served.result_cache, CacheDisposition::Hit);
        assert_eq!(served.report.outcome, QueryOutcome::Completed);
        assert_eq!(served.rows.as_ref(), Some(&rows));

        service.shutdown()
    });

    assert_eq!(report.totals.total(), 3, "ticket conservation");
    assert_eq!(report.completed(), 2);
    assert_eq!(report.failed(), 1);
    assert_eq!(report.cache.result_hits, 1);
    assert_eq!(report.cache.plan_poisoned, 1);
    assert_eq!(pool.reserved(), 0, "pool holds leaked reservations");
}

/// Opt-in randomized round (CI runs one per build with a fresh seed).
/// The generated schedule is persisted before execution so a failure
/// leaves `target/chaos/fault_plan.txt` behind for reproduction.
#[test]
fn service_chaos_randomized() {
    let Ok(seed) = std::env::var("MORSEL_CHAOS_SEED") else {
        return;
    };
    let seed: u64 = seed
        .trim()
        .parse()
        .expect("MORSEL_CHAOS_SEED must be an integer");
    let artifact = std::path::Path::new("target/chaos/fault_plan.txt");
    run_service_chaos(seed, Some(artifact));
}
