//! `write_mix`: writes beside reads, on the layers the read workloads
//! use read-only.
//!
//! A fresh `TxnDb` in its own directory over TPC-H SF 0.01 `orders` +
//! `lineitem` (60 k lineitems against one client), a real group-commit
//! WAL acknowledged only after fsync (the engine's only flush policy),
//! a `Session` in database mode, and one closed-loop client — so the
//! WAL counts repeat exactly — running cycles of five statements:
//!
//! 1. `INSERT` one order,
//! 2. `INSERT` its 1–7 lineitems (one multi-row statement),
//! 3. `UPDATE` one base lineitem by key,
//! 4. `DELETE` the lineitems of an earlier insert by key,
//! 5. a read, alternating Q6 and Q12 over the delta'd tables,
//!
//! with `Session::merge_all` every [`MERGE_EVERY`] commits. Every commit
//! bumps the catalog version, invalidates the cached plans and hands
//! the next reader a fresh snapshot whose statistics rebuild — what a
//! read-path gain that leans on per-relation caches costs shows here.
//!
//! A shadow model predicts every `rows_affected`, the final counts and
//! `SUM(l_quantity)`; after shutdown `TxnDb::open` on the directory
//! must reproduce them (every acknowledged commit durable).

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::analytic::write_trace;
use crate::engine::{
    BaseLine, Cache, Data, DmlSample, ReadQuery, Sample, Status, Totals, WalFacts, WriteEngine,
};
use crate::json::Json;
use crate::kinds::KindLog;
use crate::layers::{ExecTotals, Layers};
use crate::measure::{mean, median, ms, peak_rss_mb, process_cpu_ms, Rng};
use crate::trace::Tracer;
use crate::{end_to_end_metrics, Config, EndToEnd, Report};

/// Commits between merges: often enough that a window sees several
/// merge cycles and the delta's size levels off.
const MERGE_EVERY: u64 = 20;
/// Cycles the exact WAL counters are taken over (a fixed statement
/// count, so they do not depend on how far the window got).
const COUNTED_CYCLES: u64 = 10;

const KINDS: [&str; 7] = [
    "insert.orders",
    "insert.lineitem",
    "update",
    "delete",
    "merge",
    "read.q6",
    "read.q12",
];
const DML_KINDS: [&str; 4] = ["insert.orders", "insert.lineitem", "update", "delete"];

struct Ready {
    data: Data,
    engine: WriteEngine,
    dir: PathBuf,
}

fn scratch(cfg: &Config, rep: usize) -> PathBuf {
    Config::scratch_dir().join(format!(
        "{}-{}-{}-{rep}",
        cfg.workload.name(),
        std::process::id(),
        cfg.seed
    ))
}

/// Generate TPC-H, create the database in a fresh directory, start the
/// service and run both reads once (statistics built, plans cached).
fn set_up(cfg: &Config, rep: usize) -> Result<Ready, String> {
    let data = Data::generate(cfg.seed, Some(cfg.scale(0.01)), None);
    let dir = scratch(cfg, rep);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let engine = WriteEngine::create(&data, &dir, cfg.workers)?;
    for q in [ReadQuery::Q6, ReadQuery::Q12] {
        engine.read(q);
    }
    Ok(Ready { data, engine, dir })
}

/// What the harness believes the database holds.
struct Shadow {
    totals: Totals,
    base: Vec<BaseLine>,
    /// Current quantity of the base rows an UPDATE has touched.
    updated: HashMap<usize, i64>,
    /// Inserted orders whose lineitems are still there: key and count.
    live: Vec<(i64, usize, i64)>,
    next_orderkey: i64,
    /// Bytes of user data the statements carried.
    user_bytes: u64,
}

impl Shadow {
    fn new(engine: &WriteEngine) -> Shadow {
        let base = engine.base_lines();
        let totals = Totals {
            orders: engine.base_orders(),
            lineitems: base.len() as i64,
            quantity: base.iter().map(|l| l.quantity).sum(),
        };
        let next_orderkey = base.iter().map(|l| l.orderkey).max().unwrap_or(0) + 1_000_000;
        Shadow {
            totals,
            base,
            updated: HashMap::new(),
            live: Vec::new(),
            next_orderkey,
            user_bytes: 0,
        }
    }
}

/// One generated DML statement and what it must report.
struct Dml {
    kind: &'static str,
    sql: String,
    rows: usize,
}

const ORDER_COMMENT: &str = "benchmark order";
const LINE_COMMENT: &str = "benchmark line";

/// The four DML statements of the next cycle, from the seeded stream;
/// the shadow model is advanced as if each succeeded (a statement that
/// does not is counted as failed, and the end-state check will say so).
fn next_cycle(rng: &mut Rng, shadow: &mut Shadow) -> Vec<Dml> {
    let key = shadow.next_orderkey;
    shadow.next_orderkey += 1;
    let day = |rng: &mut Rng| {
        format!(
            "DATE '{}-{:02}-{:02}'",
            1993 + rng.below(5),
            1 + rng.below(12),
            1 + rng.below(28)
        )
    };
    let order = format!(
        "INSERT INTO orders VALUES ({key}, {}, 'O', {}, {}, '1-URGENT', 'Clerk#000000001', 0, '{ORDER_COMMENT}')",
        1 + rng.below(1000),
        10_000 + rng.below(1_000_000),
        day(rng),
    );
    shadow.totals.orders += 1;
    shadow.user_bytes += 4 * 8 + 4 + (1 + 8 + 15 + ORDER_COMMENT.len()) as u64;

    let n_lines = 1 + rng.below(7) as usize;
    let mut quantity = 0;
    let lines: Vec<String> = (1..=n_lines)
        .map(|line| {
            let qty = 1 + rng.below(50) as i64;
            quantity += qty;
            format!(
                "({key}, {}, {}, {line}, {qty}, {}, {}, {}, 'N', 'O', {}, {}, {}, 'NONE', 'MAIL', '{LINE_COMMENT}')",
                1 + rng.below(200),
                1 + rng.below(10),
                100_000 + rng.below(5_000_000),
                rng.below(11),
                rng.below(9),
                day(rng),
                day(rng),
                day(rng),
            )
        })
        .collect();
    let insert_lines = format!("INSERT INTO lineitem VALUES {}", lines.join(", "));
    shadow.totals.lineitems += n_lines as i64;
    shadow.totals.quantity += quantity;
    shadow.live.push((key, n_lines, quantity));
    shadow.user_bytes +=
        n_lines as u64 * (8 * 8 + 3 * 4 + (1 + 1 + 4 + 4 + LINE_COMMENT.len()) as u64);

    let target = rng.below(shadow.base.len() as u64) as usize;
    let line = shadow.base[target];
    let old = shadow
        .updated
        .get(&target)
        .copied()
        .unwrap_or(line.quantity);
    let new = 1 + rng.below(50) as i64;
    shadow.updated.insert(target, new);
    shadow.totals.quantity += new - old;
    shadow.user_bytes += 8;
    let update = format!(
        "UPDATE lineitem SET l_quantity = {new} WHERE l_orderkey = {} AND l_linenumber = {}",
        line.orderkey, line.linenumber
    );

    let victim = rng.below(shadow.live.len() as u64) as usize;
    let (gone, gone_lines, gone_quantity) = shadow.live.swap_remove(victim);
    shadow.totals.lineitems -= gone_lines as i64;
    shadow.totals.quantity -= gone_quantity;
    shadow.user_bytes += 8;
    let delete = format!("DELETE FROM lineitem WHERE l_orderkey = {gone}");

    vec![
        Dml {
            kind: "insert.orders",
            sql: order,
            rows: 1,
        },
        Dml {
            kind: "insert.lineitem",
            sql: insert_lines,
            rows: n_lines,
        },
        Dml {
            kind: "update",
            sql: update,
            rows: 1,
        },
        Dml {
            kind: "delete",
            sql: delete,
            rows: gone_lines,
        },
    ]
}

fn dml_status(sample: &DmlSample, expected_rows: usize) -> Status {
    match &sample.outcome {
        Ok(rows) if *rows == expected_rows => Status::Ok,
        Ok(rows) => Status::Wrong(format!(
            "{rows} rows affected, the shadow model says {expected_rows}"
        )),
        Err(why) => Status::Failed(why.clone()),
    }
}

/// What a window of cycles measured.
struct Window {
    log: KindLog,
    /// Wall time of the window without the read oracles' time.
    seconds: f64,
    /// Time the read oracles took (outside every statement's latency).
    oracle_s: f64,
    cycles: u64,
    commits: u64,
    merges: u64,
    delta_rows_at_merge: Vec<f64>,
    read_totals: ExecTotals,
    /// WAL counters and user bytes over the first [`COUNTED_CYCLES`].
    counted: Option<(WalFacts, u64, u64)>,
}

/// Run cycles until `seconds` of statement time have gone by. With a
/// tracer the statements take the layered path.
fn run_window(
    engine: &WriteEngine,
    rng: &mut Rng,
    shadow: &mut Shadow,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Window {
    let mut w = Window {
        log: KindLog::new(KINDS),
        seconds: 0.0,
        oracle_s: 0.0,
        cycles: 0,
        commits: 0,
        merges: 0,
        delta_rows_at_merge: Vec::new(),
        read_totals: ExecTotals::default(),
        counted: None,
    };
    let wal_before = engine.wal();
    let bytes_before = shadow.user_bytes;
    let mut stmt = 0u32;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() - w.oracle_s < seconds {
        for dml in next_cycle(rng, shadow) {
            let sample = match tracer.as_deref_mut() {
                Some(t) => engine.dml_layered(&dml.sql, t, stmt),
                None => engine.dml(&dml.sql),
            };
            stmt += 1;
            w.log.record(
                w.log.index_of(dml.kind),
                ms(sample.latency_ns),
                &dml_status(&sample, dml.rows),
                Cache::Bypass,
            );
            w.commits += 1;
            if w.commits.is_multiple_of(MERGE_EVERY) {
                let (sample, delta_rows) = engine.merge();
                w.log.record(
                    w.log.index_of("merge"),
                    ms(sample.latency_ns),
                    &dml_status(&sample, 0),
                    Cache::Bypass,
                );
                w.merges += 1;
                w.delta_rows_at_merge.push(delta_rows as f64);
            }
        }
        let q = if w.cycles.is_multiple_of(2) {
            ReadQuery::Q6
        } else {
            ReadQuery::Q12
        };
        let (sample, oracle_ns): (Sample, u64) = match tracer.as_deref_mut() {
            Some(t) => engine.read_layered(q, t, stmt),
            None => engine.read(q),
        };
        stmt += 1;
        w.oracle_s += oracle_ns as f64 / 1e9;
        w.log
            .record_sample(w.log.index_of(q.kind()), ms(sample.latency_ns), &sample);
        if !sample.facts.ops.is_empty() {
            w.read_totals.add(&sample.facts);
        }
        w.cycles += 1;
        if w.cycles == COUNTED_CYCLES {
            let wal = engine.wal();
            w.counted = Some((
                WalFacts {
                    records: wal.records - wal_before.records,
                    fsyncs: wal.fsyncs - wal_before.fsyncs,
                    bytes: wal.bytes - wal_before.bytes,
                },
                w.commits,
                shadow.user_bytes - bytes_before,
            ));
        }
    }
    w.seconds = start.elapsed().as_secs_f64() - w.oracle_s;
    w
}

/// Compare the database's totals with the shadow model's. The totals
/// are SELECTs and can fall to the dispatcher race like any other, so
/// a mismatch is believed only when a second reading shows it too.
fn check_totals(engine: &WriteEngine, shadow: &Shadow, when: &str) -> Result<(), String> {
    let read = || match engine.totals() {
        Ok(seen) if seen == shadow.totals => Ok(()),
        Ok(seen) => Err(format!(
            "{when}: database has {seen:?}, the shadow model {:?}",
            shadow.totals
        )),
        Err(why) => Err(format!("{when}: could not read the totals: {why}")),
    };
    read().or_else(|_| read())
}

/// The end-state checks: totals now, then again after a shutdown and
/// `TxnDb::open` on the same directory. Returns the failed checks and
/// the reopen's duration.
fn end_state(
    engine: WriteEngine,
    shadow: &Shadow,
    workers: usize,
) -> (Vec<String>, f64, Option<WriteEngine>) {
    let mut problems = Vec::new();
    if let Err(why) = check_totals(&engine, shadow, "before shutdown") {
        problems.push(why);
    }
    match engine.reopen(workers) {
        Ok((reopened, ns)) => {
            if let Err(why) = check_totals(&reopened, shadow, "after recovery") {
                problems.push(why);
            }
            (problems, ms(ns), Some(reopened))
        }
        Err(why) => {
            problems.push(format!("recovery failed: {why}"));
            (problems, 0.0, None)
        }
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut log = KindLog::new(KINDS);
    let mut setup_s = Vec::new();
    let mut recovery_ms = Vec::new();
    let mut problems = Vec::new();
    let (mut seconds, mut oracle_s, mut cpu_ms) = (0.0, 0.0, 0.0);
    let (mut cycles, mut commits, mut merges, mut invalidations) = (0, 0, 0, 0);
    let (mut data_mb, mut base_lines, mut peak_rss) = (0.0, 0, 0.0);
    for segment in 0..cfg.segments() {
        let t = Instant::now();
        let Ready { data, engine, dir } = set_up(cfg, segment)?;
        setup_s.push(t.elapsed().as_secs_f64());
        data_mb = data.bytes() as f64 / 1e6;
        let mut shadow = Shadow::new(&engine);
        base_lines = shadow.base.len();
        if cfg.self_test {
            // One order the database will never hold.
            shadow.totals.orders += 1;
        }
        let mut rng = Rng::new(cfg.seed ^ 0x0D31_7A5E ^ ((segment as u64) << 32));
        let cpu_before = process_cpu_ms();
        let w = run_window(&engine, &mut rng, &mut shadow, cfg.segment_seconds(), None);
        // The read oracle runs on this thread between statements while
        // the engine idles, so its wall time is its CPU time; neither
        // belongs to the engine's window.
        cpu_ms += (process_cpu_ms() - cpu_before - w.oracle_s * 1e3).max(0.0);
        invalidations += engine.cache_facts().invalidations;

        let (failed_checks, reopen_ms, reopened) = end_state(engine, &shadow, cfg.workers);
        if let Some(e) = reopened {
            e.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
        if segment == 0 {
            peak_rss = peak_rss_mb();
        }
        problems.extend(failed_checks);
        recovery_ms.push(reopen_ms);
        log.absorb(&w.log);
        seconds += w.seconds;
        oracle_s += w.oracle_s;
        cycles += w.cycles;
        commits += w.commits;
        merges += w.merges;
    }

    let (p95_ms, p95_samples) = log.pooled_p95(|k| DML_KINDS.contains(&k.name.as_str()));
    if p95_samples < cfg.min_p95_samples() {
        return Err(format!(
            "only {p95_samples} DML statements in the window; p95_ms needs {}",
            cfg.min_p95_samples()
        ));
    }
    let metrics = end_to_end_metrics(&EndToEnd {
        setup_s: median(&mut setup_s),
        geomean_ms: log.geomean_of_medians(),
        p95_ms,
        bulk_completed: log.completed(),
        completed: log.completed(),
        window_s: seconds,
        cpu_ms,
        peak_rss_mb: peak_rss,
    });
    let recovery_ms = median(&mut recovery_ms);
    let mut notes = vec![
        format!(
            "closed loop, 1 client; TxnDb over TPC-H SF {} orders + lineitem ({base_lines} lineitems, \
             {data_mb:.1} MB generated); WAL acknowledged after fsync (the only policy; sandbox fsync \
             is cheap, so latency here is the sandbox's, not a device's)",
            cfg.scale(0.01),
        ),
        format!(
            "{} segments (fresh database each), {cycles} cycles, {commits} commits, {merges} merges \
             (every {MERGE_EVERY} commits) in {seconds:.3} s of statement time (+ {oracle_s:.3} s of \
             read oracles); p95_ms over {p95_samples} DML statements",
            cfg.segments(),
        ),
        format!(
            "plan invalidations {invalidations}; recovery (TxnDb::open) {recovery_ms:.3} ms; \
             end-state checks: {}",
            if problems.is_empty() {
                "totals match the shadow model before shutdown and after recovery".to_string()
            } else {
                problems.join("; ")
            }
        ),
    ];
    notes.extend(log.failure_notes());
    // Each end-state check is an attempted operation of its own.
    Ok(Report {
        attempted: log.attempted() + 2 * cfg.segments() as u64,
        failed: log.failed() + problems.len() as u64,
        retried: log.retried(),
        end_state_ok: problems.is_empty(),
        metrics,
        notes,
        detail: Json::obj([
            ("workload", Json::str(cfg.workload.name())),
            ("seed", Json::Int(cfg.seed)),
            ("window_s", Json::Num(seconds)),
            ("cycles", Json::Int(cycles)),
            ("commits", Json::Int(commits)),
            ("merges", Json::Int(merges)),
            ("recovery_ms", Json::Num(recovery_ms)),
            ("kinds", log.to_json()),
        ]),
    })
}

/// The traced run: an end-to-end window (the reference latency, the
/// exact WAL counters, the readers' operator profiles), then a layered
/// window of the same stream with a span per write-path boundary, then
/// recovery.
pub fn trace(cfg: &Config) -> Result<Report, String> {
    let mut layers = Layers::new();
    let mut tracer = Tracer::new();
    let Ready { data, engine, dir } = set_up(cfg, 0)?;
    layers.set_datagen(&data);
    let mut shadow = Shadow::new(&engine);
    if cfg.self_test {
        shadow.totals.orders += 1;
    }
    let mut rng = Rng::new(cfg.seed ^ 0x0D31_7A5E);

    let cache_before = engine.cache_facts();
    let a = run_window(&engine, &mut rng, &mut shadow, cfg.seconds * 0.4, None);
    let cache = engine.cache_facts().minus(cache_before);
    let b = run_window(
        &engine,
        &mut rng,
        &mut shadow,
        cfg.seconds * 0.4,
        Some(&mut tracer),
    );

    layers.set_plan_cache(cache, a.log.attempted());
    a.read_totals
        .fill(&mut layers, cfg.workers, a.read_totals.stmts as f64);
    layers.set(
        "harness.trace_overhead_frac",
        b.log.geomean_of_medians() / a.log.geomean_of_medians() - 1.0,
    );
    // The facade's cost on the write path: end-to-end DML latency minus
    // the layered calls' for the same verbs.
    let mut facade_us = Vec::new();
    for kind in DML_KINDS {
        let (ka, kb) = (
            &a.log.kinds[a.log.index_of(kind)],
            &b.log.kinds[b.log.index_of(kind)],
        );
        if !ka.ms.is_empty() && !kb.ms.is_empty() {
            facade_us.push((ka.median_ms() - kb.median_ms()) * 1e3);
        }
    }
    layers.set("service.facade_overhead_us", median(&mut facade_us));
    layers.set("planner.dml_plan_us", tracer.mean_us("planner.dml_plan"));
    // Every read follows a commit, so its `Session::resolve` plans over
    // a fresh snapshot whose lazy statistics have to be rebuilt.
    layers.set(
        "planner.stats_build_ms",
        tracer.mean_us("service.resolve") / 1e3,
    );
    layers.set("sql.parse_us", tracer.mean_us("sql.parse"));
    layers.set("exec.compile_us", tracer.mean_us("exec.compile"));
    for (metric, span) in [
        ("txn.insert_apply_us", "txn.insert_apply"),
        ("txn.update_apply_us", "txn.update_apply"),
        ("txn.delete_apply_us", "txn.delete_apply"),
        ("txn.commit_us", "txn.commit"),
        ("txn.refresh_us", "txn.refresh"),
    ] {
        layers.set(metric, tracer.mean_us(span));
    }
    let merges: Vec<f64> = [&a, &b]
        .iter()
        .flat_map(|w| w.log.kinds[w.log.index_of("merge")].ms.iter().copied())
        .collect();
    layers.set("txn.merge_ms", mean(&merges));
    let delta_rows: Vec<f64> = [&a, &b]
        .iter()
        .flat_map(|w| w.delta_rows_at_merge.iter().copied())
        .collect();
    layers.set("txn.delta_rows_at_merge", mean(&delta_rows));
    if let Some((wal, commits, user_bytes)) = a.counted {
        layers.set(
            "storage.wal_bytes_per_commit",
            wal.bytes as f64 / commits as f64,
        );
        layers.set(
            "storage.fsyncs_per_commit",
            wal.fsyncs as f64 / commits as f64,
        );
        layers.set(
            "storage.wal_bytes_per_user_byte",
            wal.bytes as f64 / user_bytes.max(1) as f64,
        );
    }

    let (problems, recovery_ms, reopened) = end_state(engine, &shadow, cfg.workers);
    layers.set("storage.recovery_ms", recovery_ms);
    if let Some(e) = reopened {
        e.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    layers.set_sim();
    write_trace(&tracer, cfg)?;

    let retried = a.log.retried() + b.log.retried();
    layers.set("core.stmt_retries", retried as f64);
    let mut notes = a.log.failure_notes();
    notes.extend(b.log.failure_notes());
    notes.extend(problems.iter().cloned());
    notes.extend([
        format!(
            "window A (end to end, untraced): {} statements in {:.3} s, geomean {:.4} ms",
            a.log.attempted(),
            a.seconds,
            a.log.geomean_of_medians()
        ),
        format!(
            "window B (layered, traced): {} statements in {:.3} s, geomean {:.4} ms",
            b.log.attempted(),
            b.seconds,
            b.log.geomean_of_medians()
        ),
        write_shares(&tracer),
    ]);
    Ok(Report {
        attempted: a.log.attempted() + b.log.attempted() + 2,
        failed: a.log.failed() + b.log.failed() + problems.len() as u64,
        retried,
        end_state_ok: problems.is_empty(),
        metrics: layers.into_metrics(),
        notes,
        detail: Json::Null,
    })
}

/// Where a layered statement's time went on the write path, as shares
/// of the `stmt` spans.
fn write_shares(tracer: &Tracer) -> String {
    let t = tracer.totals();
    let stmt = t.get("stmt").map_or(1, |x| x.total_ns).max(1) as f64;
    let shares: Vec<String> = t
        .iter()
        .filter(|(name, _)| **name != "stmt")
        .map(|(name, x)| format!("{name} {:.2} %", 100.0 * x.total_ns as f64 / stmt))
        .collect();
    format!("layer shares of statement latency: {}", shares.join(", "))
}
