//! The serving scenario: closed-loop clients driving the query service.
//!
//! Unlike the figure experiments (deterministic virtual time), this one
//! measures the real `morsel-service` front end on OS threads: N
//! closed-loop clients submit a mixed TPC-H/SSB query rotation through
//! admission control, and the report shows completed/cancelled/rejected
//! counts, aggregate throughput, and per-priority latency percentiles per
//! client count. Numbers are wall-clock and host-dependent — the *shape*
//! to look for is throughput saturating (not collapsing) as clients grow
//! past the in-flight bound, with high-priority p50 staying well below
//! low-priority p50.

use std::sync::Arc;
use std::time::Duration;

use morsel_core::{AgingPolicy, ExecEnv, QuerySpec};
use morsel_datagen::{generate_ssb, generate_tpch, SsbConfig, SsbDb, TpchConfig, TpchDb};
use morsel_exec::plan::compile_query;
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_queries::{ssb_queries, tpch_queries};
use morsel_service::{fmt_ns, run_closed_loop, QueryRequest, QueryService, ServiceConfig};

use crate::experiments::ExpConfig;
use crate::report::Table;

/// The query rotation every client cycles through: scan-, join-, and
/// aggregation-heavy TPC-H plus two SSB flight patterns.
///
/// Shared with the `service_throughput` criterion bench so experiment
/// and bench measure the same workload.
pub const TPCH_MIX: [usize; 4] = [1, 6, 13, 14];
pub const SSB_MIX: [&str; 2] = ["1.1", "2.1"];

/// Priority assigned to client `c`: every fourth client is an
/// "interactive" priority-8 stream, the rest are priority-1 analytics.
pub fn client_priority(client: usize) -> u32 {
    if client.is_multiple_of(4) {
        8
    } else {
        1
    }
}

/// Compile the `seq`-th query of client `client`'s rotation, priority
/// already applied.
pub fn build_query(tpch: &Arc<TpchDb>, ssb: &Arc<SsbDb>, client: usize, seq: usize) -> QuerySpec {
    let mix_len = TPCH_MIX.len() + SSB_MIX.len();
    let pick = (client + seq) % mix_len;
    let name = format!("c{client}-s{seq}");
    let (spec, _result) = if pick < TPCH_MIX.len() {
        let q = TPCH_MIX[pick];
        compile_query(name, tpch_queries::query(tpch, q), SystemVariant::full())
    } else {
        let id = SSB_MIX[pick - TPCH_MIX.len()];
        compile_query(name, ssb_queries::query(ssb, id), SystemVariant::full())
    };
    spec.with_priority(client_priority(client))
}

/// The `service_load` experiment: mixed TPC-H/SSB traffic from a sweep
/// of closed-loop client counts through the admission-controlled query
/// service.
pub fn service_load(cfg: &ExpConfig) -> String {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let tpch = Arc::new(generate_tpch(
        TpchConfig {
            scale: cfg.scale,
            ..Default::default()
        },
        &topo,
    ));
    let ssb = Arc::new(generate_ssb(
        SsbConfig {
            scale: cfg.ssb_scale,
            ..Default::default()
        },
        &topo,
    ));
    // Wall-clock workers: a small pool (this runs on the host, not the
    // simulated 64-thread box).
    let workers = cfg.workers.min(4);
    let client_counts: Vec<usize> = if cfg.quick {
        vec![2, 8]
    } else {
        vec![1, 2, 4, 8, 16]
    };
    let per_client = if cfg.quick { 4 } else { 8 };

    let mut t = Table::new(&[
        "clients", "done", "canc", "rej", "fail", "q/s", "p50 lo", "p99 lo", "p50 hi", "p99 hi",
    ]);
    let mut result_lines = String::new();
    for &clients in &client_counts {
        let service = QueryService::start(
            env.clone(),
            ServiceConfig::new(workers)
                .with_morsel_size(cfg.morsel_size.max(2_048))
                .with_max_in_flight(workers.max(2))
                .with_max_queue(4 * clients + 8)
                .with_aging(AgingPolicy::every(
                    Duration::from_millis(5).as_nanos() as u64
                )),
        );
        let tpch = Arc::clone(&tpch);
        let ssb = Arc::clone(&ssb);
        let _reports = run_closed_loop(&service, clients, per_client, move |client, seq| {
            QueryRequest::new(build_query(&tpch, &ssb, client, seq))
        });
        let summary = service.shutdown();
        let quantiles = |prio: u32| -> (String, String) {
            summary
                .priority(prio)
                .map(|(_, h)| (fmt_ns(h.p50()), fmt_ns(h.p99())))
                .unwrap_or_else(|| ("-".into(), "-".into()))
        };
        let raw = |prio: u32| -> (u64, u64) {
            summary
                .priority(prio)
                .map(|(_, h)| (h.p50(), h.p99()))
                .unwrap_or((0, 0))
        };
        let ((lo50_ns, lo99_ns), (hi50_ns, hi99_ns)) = (raw(1), raw(8));
        result_lines.push_str(&format!(
            "RESULT clients={clients} completed={} cancelled={} rejected={} failed={} \
             qps={:.2} p50_lo_ns={lo50_ns} p99_lo_ns={lo99_ns} p50_hi_ns={hi50_ns} \
             p99_hi_ns={hi99_ns}\n",
            summary.completed(),
            summary.cancelled(),
            summary.rejected(),
            summary.failed(),
            summary.throughput_qps(),
        ));
        let (lo50, lo99) = quantiles(1);
        let (hi50, hi99) = quantiles(8);
        t.row(vec![
            clients.to_string(),
            summary.completed().to_string(),
            summary.cancelled().to_string(),
            summary.rejected().to_string(),
            summary.failed().to_string(),
            format!("{:.1}", summary.throughput_qps()),
            lo50,
            lo99,
            hi50,
            hi99,
        ]);
    }
    format!(
        "Service load — closed-loop clients over admission-controlled service \
         ({workers} workers, TPC-H SF {} + SSB SF {}, {per_client} queries/client; \
         lo = priority 1, hi = priority 8)\n{}\n{}",
        cfg.scale,
        cfg.ssb_scale,
        t.render(),
        result_lines
    )
}

// ------------------------------------------------- Zipfian SQL replay

/// Client count for the Zipfian replay (the acceptance bar wants a
/// many-client skewed mix).
const ZIPF_CLIENTS: usize = 8;
/// Queries per client per mode.
const ZIPF_PER_CLIENT: usize = 24;
/// Zipf exponent: rank r drawn with weight 1/(r+1)^s.
const ZIPF_EXPONENT: f64 = 1.3;

/// Deterministic Zipf rank for `(client, seq)` over `n` shapes, so the
/// cached and uncached modes replay byte-identical query sequences.
fn zipf_pick(client: usize, seq: usize, n: usize) -> usize {
    // SplitMix-style scramble of the (client, seq) coordinate.
    let mut x = (client as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq as u64)
        .wrapping_add(0xD1B5_4A32_D192_ED03);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let u = x as f64 / u64::MAX as f64;
    let weights: Vec<f64> = (0..n)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for (r, w) in weights.iter().enumerate() {
        acc += w / total;
        if u < acc {
            return r;
        }
    }
    n - 1
}

/// The `service_load_zipf` experiment: a skewed (Zipfian) SQL replay of
/// the TPC-H fixture texts through the service's [`morsel_service::Session`], once
/// per caching mode, over identical query sequences. What to look for:
/// the plan-cache rows keep the same completion counts (cached plans
/// are equivalent) at a higher sustained q/s, with a plan-cache hit
/// rate ≥ 90% (misses are bounded by the number of distinct shapes).
///
/// Emits one machine-parseable `RESULT mode=… hits=… misses=…
/// hit_rate=… qps=…` line per mode for CI's assertions.
pub fn service_load_zipf(cfg: &ExpConfig) -> String {
    use morsel_queries::tpch_sql;
    use morsel_service::cache::PLAN_CACHE_CAPACITY_DEFAULT;
    use morsel_service::Session;

    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let tpch = generate_tpch(
        TpchConfig {
            scale: cfg.scale,
            ..Default::default()
        },
        &topo,
    );
    let catalog = tpch.catalog();
    let fixtures: Vec<(usize, &'static str)> = tpch_sql::all();
    let workers = cfg.workers.min(4);

    // (label, plan-cache capacity, result caching)
    let modes: [(&str, usize, bool); 3] = [
        ("uncached", 0, false),
        ("plan", PLAN_CACHE_CAPACITY_DEFAULT, false),
        ("plan+result", PLAN_CACHE_CAPACITY_DEFAULT, true),
    ];
    let mut t = Table::new(&[
        "mode",
        "done",
        "fail",
        "q/s",
        "plan hit",
        "plan miss",
        "hit %",
        "result hit",
    ]);
    let mut result_lines = String::new();
    for (label, plan_cache_capacity, result_caching) in modes {
        let service = QueryService::start(
            env.clone(),
            ServiceConfig::new(workers)
                .with_morsel_size(cfg.morsel_size.max(2_048))
                .with_max_in_flight(workers.max(2))
                .with_max_queue(4 * ZIPF_CLIENTS + 8),
        );
        let session = Session::builder()
            .catalog(catalog.clone())
            .topology(&topo)
            .for_service(&service)
            .plan_cache_capacity(plan_cache_capacity)
            .result_caching(result_caching)
            .build();
        std::thread::scope(|scope| {
            for client in 0..ZIPF_CLIENTS {
                let service = &service;
                let session = &session;
                let fixtures = &fixtures;
                scope.spawn(move || {
                    for seq in 0..ZIPF_PER_CLIENT {
                        let (q, sql) = fixtures[zipf_pick(client, seq, fixtures.len())];
                        session
                            .execute(service, format!("z{client}-{seq}-q{q}"), sql)
                            .expect("fixture SQL binds");
                    }
                });
            }
        });
        let summary = service.shutdown();
        let stats = summary.cache;
        t.row(vec![
            label.to_owned(),
            summary.completed().to_string(),
            summary.failed().to_string(),
            format!("{:.1}", summary.throughput_qps()),
            stats.plan_hits.to_string(),
            stats.plan_misses.to_string(),
            format!("{:.1}", stats.plan_hit_rate() * 100.0),
            stats.result_hits.to_string(),
        ]);
        result_lines.push_str(&format!(
            "RESULT mode={label} completed={} hits={} misses={} hit_rate={:.3} \
             result_hits={} qps={:.2}\n",
            summary.completed(),
            stats.plan_hits,
            stats.plan_misses,
            stats.plan_hit_rate(),
            stats.result_hits,
            summary.throughput_qps(),
        ));
    }
    format!(
        "Service load (Zipfian replay) — {ZIPF_CLIENTS} closed-loop clients, \
         {ZIPF_PER_CLIENT} queries each, Zipf(s={ZIPF_EXPONENT}) over {} TPC-H SQL \
         fixtures (SF {}), {workers} workers; identical sequences per mode\n{}\n{}",
        fixtures.len(),
        cfg.scale,
        t.render(),
        result_lines
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_load_reports_all_client_counts() {
        let cfg = ExpConfig {
            scale: 0.001,
            ssb_scale: 0.001,
            workers: 2,
            morsel_size: 2048,
            quick: true,
            ..Default::default()
        };
        let out = service_load(&cfg);
        assert!(out.contains("clients"), "missing header:\n{out}");
        for c in ["2", "8"] {
            assert!(
                out.lines().any(|l| l.trim_start().starts_with(c)),
                "missing row for {c} clients:\n{out}"
            );
        }
    }

    #[test]
    fn zipf_replay_modes_share_sequences_and_cache_pays_off() {
        let cfg = ExpConfig {
            scale: 0.001,
            ssb_scale: 0.001,
            workers: 2,
            morsel_size: 2048,
            quick: true,
            ..Default::default()
        };
        let out = service_load_zipf(&cfg);
        for mode in ["uncached", "plan", "plan+result"] {
            assert!(
                out.contains(&format!("RESULT mode={mode} ")),
                "missing RESULT line for {mode}:\n{out}"
            );
        }
        let field = |mode: &str, key: &str| -> f64 {
            out.lines()
                .find(|l| l.starts_with(&format!("RESULT mode={mode} ")))
                .and_then(|l| {
                    l.split_whitespace()
                        .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                })
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {key} for {mode}:\n{out}"))
        };
        let submissions = (ZIPF_CLIENTS * ZIPF_PER_CLIENT) as f64;
        assert_eq!(field("uncached", "completed"), submissions);
        assert_eq!(field("plan", "completed"), submissions);
        // A cache of capacity 0 holds nothing: every submission misses.
        assert_eq!(field("uncached", "hits"), 0.0);
        assert_eq!(field("uncached", "misses"), submissions);
        // Every submission consults the cache; misses are bounded by the
        // number of distinct shapes, so the skewed replay hits >= 90%.
        assert_eq!(
            field("plan", "hits") + field("plan", "misses"),
            submissions,
            "every plan-cached submission is a hit or a miss"
        );
        assert!(
            field("plan", "hit_rate") >= 0.9,
            "plan-cache hit rate below 90%:\n{out}"
        );
        assert!(
            field("plan+result", "result_hits") > 0.0,
            "result cache never hit:\n{out}"
        );
    }

    #[test]
    fn zipf_sampling_is_deterministic_and_skewed() {
        let n = 12;
        let picks: Vec<usize> = (0..256).map(|s| zipf_pick(3, s, n)).collect();
        let again: Vec<usize> = (0..256).map(|s| zipf_pick(3, s, n)).collect();
        assert_eq!(picks, again, "same coordinates, same ranks");
        assert!(picks.iter().all(|&r| r < n));
        let head = picks.iter().filter(|&&r| r < 3).count();
        assert!(
            head * 2 > picks.len(),
            "Zipf head (top 3 of {n}) drew only {head}/256"
        );
    }
}
