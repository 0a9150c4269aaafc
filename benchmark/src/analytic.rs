//! `analytic_warm` and `short_adhoc`: one closed-loop client passing
//! over all 25 SQL fixtures (12 TPC-H + 13 SSB).
//!
//! The two differ in where the time goes, not in what runs:
//!
//! - `analytic_warm` runs at SF 0.1 with a warm plan cache, so the
//!   operators and the dispatcher do nearly all the work and the SQL
//!   front end almost none. Each pass is a fresh seeded shuffle.
//! - `short_adhoc` runs at SF 0.002 with a plan cache of 8 entries
//!   under 12 and 13 shapes per session, and repeats *one* seeded
//!   permutation: a cyclic scan over more shapes than an LRU holds
//!   never hits, so every statement lexes, parses, binds, plans and
//!   evicts, and the data-proportional work is small.
//!
//! A kernel change should move the first and not the second; a
//! front-end or session-stack change the reverse.

use std::time::Instant;

use crate::engine::{CacheFacts, Data, Engine, Fixture, Status, PLAN_CACHE_DEFAULT};
use crate::json::Json;
use crate::kinds::KindLog;
use crate::layers::{span_ns_by_stmt, ExecTotals, Layers};
use crate::measure::{mean, median, ms, peak_rss_mb, process_cpu_ms, Rng};
use crate::trace::Tracer;
use crate::{end_to_end_metrics, Config, EndToEnd, Report, Workload};

struct Shape {
    scale: f64,
    plan_cache_capacity: usize,
    /// Shuffle before every pass (`analytic_warm`), or once
    /// (`short_adhoc`, whose misses depend on a fixed cyclic order).
    reshuffle: bool,
}

fn shape(cfg: &Config) -> Shape {
    match cfg.workload {
        Workload::AnalyticWarm => Shape {
            scale: cfg.scale(0.1),
            plan_cache_capacity: PLAN_CACHE_DEFAULT,
            reshuffle: true,
        },
        Workload::ShortAdhoc => Shape {
            scale: 0.002,
            plan_cache_capacity: 8,
            reshuffle: false,
        },
        other => unreachable!("{other:?} is not a fixture-pass workload"),
    }
}

struct Ready {
    data: Data,
    fixtures: Vec<Fixture>,
    engine: Engine,
    /// Statements of the warm-up that did not come back right.
    warmup_failures: u64,
}

/// Generate both databases, compute the oracles, start the service and
/// warm up: two passes, so lazy statistics are built and (where it
/// fits) the plan cache is full before anything is timed.
fn set_up(cfg: &Config, shape: &Shape) -> Ready {
    let data = Data::generate(cfg.seed, Some(shape.scale), Some(shape.scale));
    let fixtures = data.fixtures();
    let engine = Engine::start(&data, cfg.workers, shape.plan_cache_capacity);
    let mut warmup_failures = 0;
    for _ in 0..2 {
        for fx in &fixtures {
            if engine.execute(fx).status != Status::Ok {
                warmup_failures += 1;
            }
        }
    }
    Ready {
        data,
        fixtures,
        engine,
        warmup_failures,
    }
}

/// The statement stream: passes over the fixtures in seeded order.
struct Passes {
    rng: Rng,
    order: Vec<usize>,
    reshuffle: bool,
}

impl Passes {
    /// The stream of the run's `segment`-th window.
    fn new(cfg: &Config, shape: &Shape, n: usize, segment: usize) -> Passes {
        let mut rng = Rng::new(cfg.seed ^ 0x5EED_0F0D ^ ((segment as u64) << 32));
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        Passes {
            rng,
            order,
            reshuffle: shape.reshuffle,
        }
    }

    fn next_pass(&mut self) -> &[usize] {
        if self.reshuffle {
            self.rng.shuffle(&mut self.order);
        }
        &self.order
    }
}

/// Whole passes through `step` until `seconds` have gone by. Returns
/// the number of passes and the window's length.
fn timed_passes(passes: &mut Passes, seconds: f64, mut step: impl FnMut(usize)) -> (u64, f64) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        for &i in passes.next_pass() {
            step(i);
        }
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds {
            return (done, elapsed);
        }
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let shape = shape(cfg);
    let mut log = KindLog::default();
    let mut setup_s = Vec::new();
    let mut segment_p95 = Vec::new();
    let (mut n_passes, mut window_s, mut cpu_ms) = (0, 0.0, 0.0);
    let mut cache = CacheFacts::default();
    let (mut warmup_failures, mut data_mb, mut peak_rss) = (0, 0.0, 0.0);
    for segment in 0..cfg.segments() {
        let t = Instant::now();
        let Ready {
            data,
            mut fixtures,
            engine,
            warmup_failures: failures,
        } = set_up(cfg, &shape);
        setup_s.push(t.elapsed().as_secs_f64());
        warmup_failures += failures;
        data_mb = data.bytes() as f64 / 1e6;
        if cfg.self_test {
            fixtures[0].expect.corrupt();
        }

        let mut segment_log = KindLog::new(fixtures.iter().map(|f| f.kind.as_str()));
        let mut passes = Passes::new(cfg, &shape, fixtures.len(), segment);
        let cache_before = engine.cache_facts();
        let cpu_before = process_cpu_ms();
        let (passes_done, seconds) = timed_passes(&mut passes, cfg.segment_seconds(), |i| {
            let s = engine.execute(&fixtures[i]);
            segment_log.record_sample(i, ms(s.latency_ns), &s);
        });
        cpu_ms += process_cpu_ms() - cpu_before;
        cache = cache.plus(engine.cache_facts().minus(cache_before));
        engine.shutdown();
        if segment == 0 {
            peak_rss = peak_rss_mb();
        }
        n_passes += passes_done;
        window_s += seconds;
        segment_p95.push(format!("{:.3}", segment_log.pooled_p95(|_| true).0));
        if segment == 0 {
            log = segment_log;
        } else {
            log.absorb(&segment_log);
        }
    }

    let (p95_ms, p95_samples) = log.pooled_p95(|_| true);
    if p95_samples < cfg.min_p95_samples() {
        return Err(format!(
            "only {p95_samples} statements in the window; p95_ms needs {}",
            cfg.min_p95_samples()
        ));
    }
    let metrics = end_to_end_metrics(&EndToEnd {
        setup_s: median(&mut setup_s),
        geomean_ms: log.geomean_of_medians(),
        p95_ms,
        bulk_completed: log.completed(),
        completed: log.completed(),
        window_s,
        cpu_ms,
        peak_rss_mb: peak_rss,
    });
    let mut notes = vec![
        format!(
            "closed loop, 1 client; TPC-H + SSB at SF {} ({data_mb:.1} MB); plan cache {} entries",
            shape.scale, shape.plan_cache_capacity
        ),
        format!(
            "{} segments (fresh set-up each), {n_passes} passes of {} fixtures in {window_s:.3} s; \
             p95_ms over {p95_samples} statements (per segment: {} ms)",
            cfg.segments(),
            log.kinds.len(),
            segment_p95.join(", ")
        ),
        format!(
            "plan cache: {} hits, {} misses, {} evictions; warm-up failures {warmup_failures}",
            cache.hits, cache.misses, cache.evictions
        ),
    ];
    notes.extend(log.failure_notes());
    Ok(Report {
        attempted: log.attempted(),
        failed: log.failed(),
        retried: log.retried(),
        end_state_ok: true,
        metrics,
        notes,
        detail: Json::obj([
            ("workload", Json::str(cfg.workload.name())),
            ("seed", Json::Int(cfg.seed)),
            ("passes", Json::Int(n_passes)),
            ("window_s", Json::Num(window_s)),
            ("kinds", log.to_json()),
        ]),
    })
}

/// The traced run: an untraced end-to-end window (operator profiles,
/// cache counters, the reference latency), a traced layered window of
/// the same stream (front-end and compile spans), then the probes that
/// need their own loops.
pub fn trace(cfg: &Config) -> Result<Report, String> {
    let shape = shape(cfg);
    let mut layers = Layers::new();
    let mut tracer = Tracer::new();

    // Set-up, through the layered path so the first plan of each
    // fixture (which builds the lazy statistics) can be told from the
    // second.
    let data = Data::generate(cfg.seed, Some(shape.scale), Some(shape.scale));
    layers.set_datagen(&data);
    let mut fixtures = data.fixtures();
    let engine = Engine::start(&data, cfg.workers, shape.plan_cache_capacity);
    let mut plan_ms = [0.0; 2];
    for total in &mut plan_ms {
        let mut pass_tracer = Tracer::new();
        for (i, fx) in fixtures.iter().enumerate() {
            engine.execute_layered(fx, &mut pass_tracer, i as u32);
        }
        let ns: u64 = span_ns_by_stmt(&pass_tracer, &["sql.bind", "planner.plan"])
            .values()
            .sum();
        *total = ms(ns);
    }
    layers.set("planner.stats_build_ms", (plan_ms[0] - plan_ms[1]).max(0.0));
    for fx in &fixtures {
        engine.execute(fx);
    }
    if cfg.self_test {
        fixtures[0].expect.corrupt();
    }

    // Window A: end to end, untraced.
    let mut log_a = KindLog::new(fixtures.iter().map(|f| f.kind.as_str()));
    let mut totals = ExecTotals::default();
    let mut passes = Passes::new(cfg, &shape, fixtures.len(), 0);
    let cache_before = engine.cache_facts();
    let (passes_a, window_a) = timed_passes(&mut passes, cfg.seconds * 0.35, |i| {
        let s = engine.execute(&fixtures[i]);
        log_a.record_sample(i, ms(s.latency_ns), &s);
        if !s.facts.ops.is_empty() {
            totals.add(&s.facts);
        }
    });
    let cache = engine.cache_facts().minus(cache_before);
    layers.set_plan_cache(cache, log_a.attempted());
    totals.fill(&mut layers, cfg.workers, passes_a as f64);

    // Window B: the same stream through the layered path, traced.
    let mut log_b = KindLog::new(fixtures.iter().map(|f| f.kind.as_str()));
    let mut kind_of_stmt: Vec<usize> = Vec::new();
    timed_passes(&mut passes, cfg.seconds * 0.35, |i| {
        let stmt = kind_of_stmt.len() as u32;
        kind_of_stmt.push(i);
        let s = engine.execute_layered(&fixtures[i], &mut tracer, stmt);
        log_b.record_sample(i, ms(s.latency_ns), &s);
    });
    layers.set(
        "harness.trace_overhead_frac",
        log_b.geomean_of_medians() / log_a.geomean_of_medians() - 1.0,
    );

    let all: Vec<&Fixture> = fixtures.iter().collect();
    layers.set_probes(&engine, &all, &tracer)?;

    // Planning time of the slowest fixture, and the facade's cost: the
    // end-to-end latency minus the layered calls the same statement
    // makes. A kind the plan cache served in window A skipped bind and
    // plan, so those spans are left out of its layered sum.
    let plan_ns = span_ns_by_stmt(&tracer, &["planner.plan"]);
    let skipped_ns = span_ns_by_stmt(&tracer, &["sql.bind", "planner.plan"]);
    let roots_ns = span_ns_by_stmt(&tracer, &["stmt"]);
    let mut max_plan_us: f64 = 0.0;
    let mut facade_us = Vec::new();
    for (k, kind) in log_a.kinds.iter().enumerate() {
        let stmts: Vec<u32> = (0..kind_of_stmt.len() as u32)
            .filter(|s| kind_of_stmt[*s as usize] == k)
            .collect();
        if stmts.is_empty() || kind.ms.is_empty() {
            continue;
        }
        let plan_us: Vec<f64> = stmts.iter().map(|s| plan_ns[s] as f64 / 1e3).collect();
        max_plan_us = max_plan_us.max(mean(&plan_us));
        let served_from_cache = kind.hits > 0 && kind.misses == 0;
        let mut layered_us: Vec<f64> = stmts
            .iter()
            .map(|s| {
                let skip = if served_from_cache { skipped_ns[s] } else { 0 };
                (roots_ns[s] - skip) as f64 / 1e3
            })
            .collect();
        facade_us.push(kind.median_ms() * 1e3 - median(&mut layered_us));
    }
    layers.set("planner.plan_us_max_kind", max_plan_us);
    layers.set("service.facade_overhead_us", median(&mut facade_us));

    engine.shutdown();

    // Parallel efficiency: the pass time with one worker against N.
    let pass_n = window_a / passes_a as f64;
    let single = Engine::start(&data, 1, PLAN_CACHE_DEFAULT);
    let mut pass_1 = Vec::new();
    for round in 0..3 {
        let t = Instant::now();
        for fx in &fixtures {
            single.execute(fx);
        }
        if round > 0 {
            pass_1.push(t.elapsed().as_secs_f64());
        }
    }
    single.shutdown();
    layers.set(
        "core.parallel_efficiency",
        mean(&pass_1) / (cfg.workers as f64 * pass_n),
    );
    layers.set_sim();

    write_trace(&tracer, cfg)?;
    let attempted = log_a.attempted() + log_b.attempted();
    let failed = log_a.failed() + log_b.failed();
    let retried = log_a.retried() + log_b.retried();
    layers.set("core.stmt_retries", retried as f64);
    let mut notes = log_a.failure_notes();
    notes.extend(log_b.failure_notes());
    notes.extend([
        format!(
            "window A (end to end, untraced): {} statements, geomean {:.4} ms",
            log_a.attempted(),
            log_a.geomean_of_medians()
        ),
        format!(
            "window B (layered, traced): {} statements, geomean {:.4} ms",
            log_b.attempted(),
            log_b.geomean_of_medians()
        ),
        layer_shares(&tracer, &totals, cfg.workers),
    ]);
    Ok(Report {
        attempted,
        failed,
        retried,
        end_state_ok: true,
        metrics: layers.into_metrics(),
        notes,
        detail: Json::Null,
    })
}

/// Where a layered statement's time went, as shares of the `stmt`
/// spans: the front end (parse, shape, bind, plan, compile), the
/// operators (their wall time spread over the workers), and what is
/// left of submit → report, which is dispatch and waiting.
pub fn layer_shares(tracer: &Tracer, totals: &ExecTotals, workers: usize) -> String {
    let t = tracer.totals();
    let ns = |name: &str| t.get(name).map_or(0, |x| x.total_ns) as f64;
    let stmt = ns("stmt").max(1.0);
    let front = [
        "sql.parse",
        "sql.shape",
        "sql.bind",
        "planner.plan",
        "exec.compile",
    ]
    .iter()
    .map(|n| ns(n))
    .sum::<f64>();
    let roundtrip = ns("service.roundtrip");
    let operators = roundtrip * totals.worker_utilization(workers).min(1.0);
    format!(
        "layer shares of statement latency: front end {:.2} %, operators {:.2} %, \
         dispatch and waiting {:.2} %, result take and harness {:.2} %",
        100.0 * front / stmt,
        100.0 * operators / stmt,
        100.0 * (roundtrip - operators) / stmt,
        100.0 * (stmt - front - roundtrip) / stmt,
    )
}

pub fn write_trace(tracer: &Tracer, cfg: &Config) -> Result<(), String> {
    let dir = Config::results_dir();
    let path = dir.join(format!("trace_{}.json", cfg.workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| tracer.write(&path, cfg.workload.name()))
        .map_err(|e| format!("could not write {}: {e}", path.display()))
}
