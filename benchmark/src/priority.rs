//! `priority_mix`: a short high-priority arrival beside long
//! low-priority pipelines — the paper's §3.1 / Fig. 13 claim that a
//! query can overtake another at morsel boundaries.
//!
//! Two streams share one service over TPC-H SF 0.1, plan cache warm:
//!
//! - **bulk**, closed loop, one client at priority 1 cycling Q9, Q18,
//!   Q1, Q13 through `Session::execute`;
//! - **foreground**, open loop, arrivals from a seeded exponential
//!   schedule cycling Q6, Q14 at priority 8 through `Session::resolve`
//!   → `compile_query` → `QuerySpec::with_priority` →
//!   `QueryService::submit`. Each is timed **from its due time**, so a
//!   stall that delays later arrivals counts against them.
//!
//! A change that buys `analytic_warm` throughput with coarser morsels
//! or longer non-preemptible finish phases pays here, in `p95_ms`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::analytic::{layer_shares, write_trace};
use crate::engine::{Cache, Data, Engine, Fixture, Pending, Status, PLAN_CACHE_DEFAULT};
use crate::json::Json;
use crate::kinds::{Kind, KindLog};
use crate::layers::{ExecTotals, Layers};
use crate::measure::{median, ms, peak_rss_mb, percentile, process_cpu_ms, Rng};
use crate::trace::Tracer;
use crate::{end_to_end_metrics, Config, EndToEnd, Report};

const BULK_QUERIES: [usize; 4] = [9, 18, 1, 13];
const FOREGROUND_QUERIES: [usize; 2] = [6, 14];
const FOREGROUND_PRIORITY: u32 = 8;
/// Mean gap between foreground arrivals: 40 per second. The two
/// foreground queries take about 3 ms alone, so the stream offers the
/// workers about an eighth of their time.
const MEAN_GAP_MS: f64 = 25.0;
/// Foreground statements allowed outstanding: one second of arrivals.
/// An arrival beyond this is recorded as failed rather than queued
/// behind a growing backlog. Only a host that stops for a second gets
/// there (a 400 ms limit was tripped once in 20 baseline runs, by the
/// host, not the engine), so on a healthy run no arrival is refused.
const BACKLOG_LIMIT: usize = 40;
/// The failure reason such an arrival is logged with.
const BACKLOG_REFUSAL: &str = "refused: foreground backlog at its limit";

struct Ready {
    data: Data,
    bulk: Vec<Fixture>,
    foreground: Vec<Fixture>,
    engine: Engine,
}

/// Generate TPC-H, compute the six oracles, start the service and run
/// every query twice (statistics built, plans cached).
fn set_up(cfg: &Config) -> Ready {
    let data = Data::generate(cfg.seed, Some(cfg.scale(0.1)), None);
    let bulk = data.tpch_fixtures(&BULK_QUERIES);
    let foreground = data.tpch_fixtures(&FOREGROUND_QUERIES);
    let engine = Engine::start(&data, cfg.workers, PLAN_CACHE_DEFAULT);
    for _ in 0..2 {
        for fx in bulk.iter().chain(&foreground) {
            engine.execute(fx);
        }
    }
    Ready {
        data,
        bulk,
        foreground,
        engine,
    }
}

/// One foreground arrival: when it is due (from the phase's start) and
/// which query it is.
struct Arrival {
    due: Duration,
    query: usize,
}

/// The arrival schedule, from the seed alone: exponential gaps, the
/// queries in rotation.
fn schedule(seed: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ 0x0A55_1DE5);
    let mut at_ms = 0.0;
    let mut out = Vec::new();
    loop {
        at_ms += -rng.unit().ln() * MEAN_GAP_MS;
        if at_ms >= seconds * 1e3 {
            return out;
        }
        out.push(Arrival {
            due: Duration::from_secs_f64(at_ms / 1e3),
            query: out.len() % FOREGROUND_QUERIES.len(),
        });
    }
}

/// Which streams a phase runs, and whether the bulk stream goes through
/// the layered path with spans.
#[derive(Clone, Copy)]
struct Phase {
    bulk: bool,
    foreground: bool,
    traced: bool,
    seconds: f64,
}

struct PhaseResult {
    bulk: KindLog,
    foreground: KindLog,
    /// How long the bulk client ran.
    bulk_window_s: f64,
    /// Start of the phase to the last foreground completion.
    elapsed_s: f64,
    /// Actual minus due send time of each arrival, µs.
    lateness_us: Vec<f64>,
    /// Foreground latencies from the actual send time, ms (context
    /// only: what the number would be without the generator's lateness).
    from_send_ms: Vec<f64>,
    backlog_refusals: u64,
    totals: ExecTotals,
    tracer: Tracer,
}

/// A foreground statement on its way from the generator to the
/// collector.
struct InFlight {
    query: usize,
    stmt: u32,
    due: Instant,
    woke: Instant,
    submitted: Result<Pending, String>,
}

fn run_phase(r: &Ready, seed: u64, phase: Phase) -> PhaseResult {
    let arrivals = if phase.foreground {
        schedule(seed, phase.seconds)
    } else {
        Vec::new()
    };
    let start = Instant::now();
    let mut tracer = Tracer::with_origin(start);
    let mut foreground = KindLog::new(r.foreground.iter().map(|f| f.kind.as_str()));
    let mut lateness_us = Vec::with_capacity(arrivals.len());
    let mut from_send_ms = Vec::with_capacity(arrivals.len());
    let mut totals = ExecTotals::default();
    let mut backlog_refusals = 0;
    let mut last_done = start;
    let outstanding = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<InFlight>();

    let (bulk, bulk_window_s, bulk_totals, bulk_tracer) = std::thread::scope(|s| {
        // The bulk client: closed loop, stops at the end of the window.
        let bulk_client = s.spawn(|| {
            let mut log = KindLog::new(r.bulk.iter().map(|f| f.kind.as_str()));
            let mut totals = ExecTotals::default();
            let mut tracer = Tracer::with_origin(start);
            let mut n = 0usize;
            while phase.bulk && start.elapsed().as_secs_f64() < phase.seconds {
                let k = n % r.bulk.len();
                let sample = if phase.traced {
                    // Statement ids of the bulk stream are odd, the
                    // foreground's even, so the two never collide.
                    r.engine
                        .execute_layered(&r.bulk[k], &mut tracer, 2 * n as u32 + 1)
                } else {
                    r.engine.execute(&r.bulk[k])
                };
                log.record_sample(k, ms(sample.latency_ns), &sample);
                if !sample.facts.ops.is_empty() {
                    totals.add(&sample.facts);
                }
                n += 1;
            }
            (log, start.elapsed().as_secs_f64(), totals, tracer)
        });

        // The foreground generator: sends on schedule, never waits for
        // a completion.
        let outstanding = &outstanding;
        let engine = &r.engine;
        let queries = &r.foreground;
        s.spawn(move || {
            for (n, arrival) in arrivals.iter().enumerate() {
                let due = start + arrival.due;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let woke = Instant::now();
                let submitted = if outstanding.load(Ordering::SeqCst) >= BACKLOG_LIMIT {
                    Err(BACKLOG_REFUSAL.to_string())
                } else {
                    engine
                        .submit(&queries[arrival.query], FOREGROUND_PRIORITY)
                        .inspect(|_| {
                            outstanding.fetch_add(1, Ordering::SeqCst);
                        })
                };
                let sent = tx.send(InFlight {
                    query: arrival.query,
                    stmt: 2 * n as u32,
                    due,
                    woke,
                    submitted,
                });
                if sent.is_err() {
                    return;
                }
            }
        });

        // The collector (this thread): waits on each ticket in send
        // order. Latency is assembled from the due time, the submission
        // marks and the service's own submit → finish time, so waiting
        // on an earlier ticket cannot inflate a later one's number.
        for f in rx {
            lateness_us.push(f.woke.saturating_duration_since(f.due).as_nanos() as f64 / 1e3);
            let pending = match f.submitted {
                Ok(pending) => pending,
                Err(why) => {
                    backlog_refusals += u64::from(why == BACKLOG_REFUSAL);
                    foreground.record(f.query, 0.0, &Status::Failed(why), Cache::Bypass);
                    continue;
                }
            };
            let (resolved, compiled, submitted) =
                (pending.resolved, pending.compiled, pending.submitted);
            let sample = r
                .engine
                .wait(pending, &r.foreground[f.query], FOREGROUND_PRIORITY);
            outstanding.fetch_sub(1, Ordering::SeqCst);
            let service = Duration::from_nanos(sample.latency_ns);
            let done = compiled + service;
            last_done = last_done.max(done);
            let latency = done.saturating_duration_since(f.due);
            from_send_ms.push(done.saturating_duration_since(f.woke).as_secs_f64() * 1e3);
            foreground.record_sample(f.query, latency.as_secs_f64() * 1e3, &sample);
            if !sample.facts.ops.is_empty() {
                totals.add(&sample.facts);
            }
            if phase.traced {
                let root = tracer.record("stmt", None, f.stmt, f.due, done);
                let parent = Some(root);
                tracer.record("service.resolve", parent, f.stmt, f.woke, resolved);
                tracer.record("exec.compile", parent, f.stmt, resolved, compiled);
                tracer.record("service.roundtrip", parent, f.stmt, compiled, done);
                tracer.record("service.submit", parent, f.stmt, compiled, submitted);
            }
        }
        bulk_client.join().expect("bulk client does not panic")
    });
    tracer.absorb(bulk_tracer);
    totals.merge(&bulk_totals);
    PhaseResult {
        bulk,
        foreground,
        bulk_window_s,
        elapsed_s: last_done
            .saturating_duration_since(start)
            .as_secs_f64()
            .max(bulk_window_s),
        lateness_us,
        from_send_ms,
        backlog_refusals,
        totals,
        tracer,
    }
}

impl PhaseResult {
    /// Pool another segment's measurements into this one.
    fn absorb(&mut self, o: PhaseResult) {
        self.bulk.absorb(&o.bulk);
        self.foreground.absorb(&o.foreground);
        self.bulk_window_s += o.bulk_window_s;
        self.elapsed_s += o.elapsed_s;
        self.lateness_us.extend(o.lateness_us);
        self.from_send_ms.extend(o.from_send_ms);
        self.backlog_refusals += o.backlog_refusals;
        self.totals.merge(&o.totals);
        self.tracer.absorb(o.tracer);
    }

    /// Both streams' kinds in one log.
    fn all_kinds(&self) -> KindLog {
        KindLog {
            kinds: self
                .bulk
                .kinds
                .iter()
                .chain(&self.foreground.kinds)
                .cloned()
                .collect(),
        }
    }

    fn bulk_throughput(&self) -> f64 {
        self.bulk.completed() as f64 / self.bulk_window_s
    }

    fn foreground_median_ms(&self) -> f64 {
        let mut pool: Vec<f64> = self
            .foreground
            .kinds
            .iter()
            .flat_map(|k: &Kind| k.ms.iter().copied())
            .collect();
        median(&mut pool)
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut pooled: Option<PhaseResult> = None;
    let mut setup_s = Vec::new();
    let mut segment_p95 = Vec::new();
    let (mut cpu_ms, mut data_mb, mut peak_rss) = (0.0, 0.0, 0.0);
    for segment in 0..cfg.segments() {
        let t = Instant::now();
        let mut ready = set_up(cfg);
        setup_s.push(t.elapsed().as_secs_f64());
        data_mb = ready.data.bytes() as f64 / 1e6;
        if cfg.self_test {
            ready.foreground[0].expect.corrupt();
        }
        let cpu_before = process_cpu_ms();
        let result = run_phase(
            &ready,
            cfg.seed ^ ((segment as u64) << 32),
            Phase {
                bulk: true,
                foreground: true,
                traced: false,
                seconds: cfg.segment_seconds(),
            },
        );
        cpu_ms += process_cpu_ms() - cpu_before;
        ready.engine.shutdown();
        if segment == 0 {
            peak_rss = peak_rss_mb();
        }
        segment_p95.push(format!("{:.3}", result.foreground.pooled_p95(|_| true).0));
        match &mut pooled {
            None => pooled = Some(result),
            Some(all) => all.absorb(result),
        }
    }
    let mut result = pooled.expect("a run has at least one segment");
    let setup_s = median(&mut setup_s);

    let log = result.all_kinds();
    let (p95_ms, p95_samples) = result.foreground.pooled_p95(|_| true);
    if p95_samples < cfg.min_p95_samples() {
        return Err(format!(
            "only {p95_samples} foreground statements in the window; p95_ms needs {}",
            cfg.min_p95_samples()
        ));
    }
    let metrics = end_to_end_metrics(&EndToEnd {
        setup_s,
        geomean_ms: log.geomean_of_medians(),
        p95_ms,
        bulk_completed: result.bulk.completed(),
        completed: log.completed(),
        window_s: result.bulk_window_s,
        cpu_ms,
        peak_rss_mb: peak_rss,
    });
    let mut notes = vec![
        format!(
            "TPC-H at SF {} ({:.1} MB); bulk: closed loop, 1 client, priority 1; \
             foreground: open loop, mean gap {MEAN_GAP_MS} ms, priority {FOREGROUND_PRIORITY}, \
             timed from due time",
            cfg.scale(0.1),
            data_mb,
        ),
        format!(
            "{} segments (fresh set-up each); bulk: {} statements in {:.3} s; foreground: p95_ms \
             over {p95_samples} statements (per segment: {} ms), median {:.4} ms",
            cfg.segments(),
            result.bulk.attempted(),
            result.bulk_window_s,
            segment_p95.join(", "),
            result.foreground_median_ms(),
        ),
        format!(
            "generator lateness p95 {:.1} us over {} arrivals (p95 from the actual send time \
             would be {:.4} ms); {} refused by the backlog guard (limit {BACKLOG_LIMIT} outstanding)",
            percentile(&mut result.lateness_us, 95.0),
            result.lateness_us.len(),
            percentile(&mut result.from_send_ms, 95.0),
            result.backlog_refusals,
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
            ("window_s", Json::Num(result.bulk_window_s)),
            (
                "generator_lateness_p95_us",
                Json::Num(percentile(&mut result.lateness_us, 95.0)),
            ),
            ("backlog_refusals", Json::Int(result.backlog_refusals)),
            ("kinds", log.to_json()),
        ]),
    })
}

/// The traced run: the foreground alone, the bulk alone, both
/// together (the three phases behind `core.hi_slowdown` and
/// `core.bulk_retained`), then both again with the bulk stream on the
/// layered path and spans recorded.
pub fn trace(cfg: &Config) -> Result<Report, String> {
    let mut layers = Layers::new();
    let mut ready = set_up(cfg);
    layers.set_datagen(&ready.data);
    if cfg.self_test {
        ready.foreground[0].expect.corrupt();
    }
    let phase = |bulk, foreground, traced, share: f64| Phase {
        bulk,
        foreground,
        traced,
        seconds: cfg.seconds * share,
    };
    let alone = run_phase(&ready, cfg.seed ^ 1, phase(false, true, false, 0.2));
    let bulk_only = run_phase(&ready, cfg.seed ^ 2, phase(true, false, false, 0.2));
    let cache_before = ready.engine.cache_facts();
    let both = run_phase(&ready, cfg.seed ^ 3, phase(true, true, false, 0.3));
    let cache = ready.engine.cache_facts().minus(cache_before);
    let traced = run_phase(&ready, cfg.seed ^ 4, phase(true, true, true, 0.3));

    layers.set(
        "core.hi_slowdown",
        both.foreground_median_ms() / alone.foreground_median_ms(),
    );
    layers.set(
        "core.bulk_retained",
        both.bulk_throughput() / bulk_only.bulk_throughput(),
    );
    let both_log = both.all_kinds();
    let traced_log = traced.all_kinds();
    layers.set_plan_cache(cache, both_log.attempted());
    both.totals
        .fill(&mut layers, cfg.workers, both.totals.stmts as f64);
    layers.set(
        "harness.trace_overhead_frac",
        traced_log.geomean_of_medians() / both_log.geomean_of_medians() - 1.0,
    );

    let fixtures: Vec<&Fixture> = ready.bulk.iter().chain(&ready.foreground).collect();
    layers.set_probes(&ready.engine, &fixtures, &traced.tracer)?;
    ready.engine.shutdown();
    layers.set_sim();
    write_trace(&traced.tracer, cfg)?;

    let logs = [
        alone.all_kinds(),
        bulk_only.all_kinds(),
        both_log,
        traced_log,
    ];
    let retried = logs.iter().map(KindLog::retried).sum();
    layers.set("core.stmt_retries", retried as f64);
    let mut notes: Vec<String> = logs.iter().flat_map(KindLog::failure_notes).collect();
    notes.extend([
        format!(
            "foreground median: alone {:.4} ms, beside the bulk stream {:.4} ms",
            alone.foreground_median_ms(),
            both.foreground_median_ms()
        ),
        format!(
            "bulk throughput: alone {:.3} /s, beside the foreground stream {:.3} /s",
            bulk_only.bulk_throughput(),
            both.bulk_throughput()
        ),
        format!(
            "phases ran {:.2} + {:.2} + {:.2} + {:.2} s",
            alone.elapsed_s, bulk_only.elapsed_s, both.elapsed_s, traced.elapsed_s
        ),
        layer_shares(&traced.tracer, &traced.totals, cfg.workers),
    ]);
    Ok(Report {
        attempted: logs.iter().map(KindLog::attempted).sum(),
        failed: logs.iter().map(KindLog::failed).sum(),
        retried,
        end_state_ok: true,
        metrics: layers.into_metrics(),
        notes,
        detail: Json::Null,
    })
}
