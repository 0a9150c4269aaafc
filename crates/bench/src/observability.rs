//! The `repro metrics` and `repro trace` commands: the CLI surface of
//! the observability stack.
//!
//! `metrics` drives a short closed-loop workload through the query
//! service and prints the resulting [`morsel_service::ServiceReport`] in
//! Prometheus text exposition format, self-validated with
//! [`validate_exposition`] so a malformed exposition exits non-zero.
//! `trace` runs one query through the query service on an environment
//! carrying a [`TraceRecorder`] — the production path, traced — and
//! exports the query → pipeline → morsel span hierarchy as Chrome-trace
//! JSON (loadable in `chrome://tracing` or Perfetto).

use std::sync::Arc;
use std::time::Duration;

use morsel_core::{
    render_chrome_trace, validate_exposition, AgingPolicy, ExecEnv, SpanKind, TraceRecorder,
};
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_queries::{ssb_queries, tpch_queries};
use morsel_service::{run_closed_loop, QueryRequest, QueryService, ServiceConfig};

use crate::experiments::ExpConfig;
use crate::plan_quality::QueryId;
use crate::service_load::build_query;

/// The `repro metrics` command: run a short mixed TPC-H/SSB closed-loop
/// workload through the service and return its metrics in Prometheus
/// text format. The exposition is validated before being returned;
/// a violation is an `Err` (the CLI exits non-zero on it).
pub fn metrics_snapshot(cfg: &ExpConfig) -> Result<String, String> {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let tpch = Arc::new(morsel_datagen::generate_tpch(
        morsel_datagen::TpchConfig::scaled(cfg.scale),
        &topo,
    ));
    let ssb = Arc::new(morsel_datagen::generate_ssb(
        morsel_datagen::SsbConfig::scaled(cfg.ssb_scale),
        &topo,
    ));
    let workers = cfg.workers.min(4);
    let clients = 4;
    let per_client = if cfg.quick { 3 } else { 6 };
    let service = QueryService::start(
        env,
        ServiceConfig::new(workers)
            .with_morsel_size(cfg.morsel_size.max(2_048))
            .with_max_in_flight(workers.max(2))
            .with_max_queue(4 * clients + 8)
            .with_aging(AgingPolicy::every(
                Duration::from_millis(5).as_nanos() as u64
            )),
    );
    let _reports = run_closed_loop(&service, clients, per_client, move |client, seq| {
        QueryRequest::new(build_query(&tpch, &ssb, client, seq))
    });
    let text = service.shutdown().render_prometheus();
    let samples = validate_exposition(&text)
        .map_err(|e| format!("metrics exposition failed validation: {e}"))?;
    debug_assert!(samples > 0);
    Ok(text)
}

/// The hand plan `query` names, against a freshly generated database.
/// The id is checked before any data is generated; `Err` lists the ids
/// there are.
fn hand_plan(cfg: &ExpConfig, query: &str) -> Result<(String, Plan), String> {
    let id = QueryId::parse(query)?;
    let tpch_ids: Vec<usize> = (1..=22).collect();
    let topo = Topology::laptop();
    match &id {
        QueryId::Ssb(q) if ssb_queries::IDS.contains(&q.as_str()) => {
            let db = morsel_datagen::generate_ssb(
                morsel_datagen::SsbConfig::scaled(cfg.ssb_scale),
                &topo,
            );
            Ok((format!("ssb{q}"), ssb_queries::query(&db, q)))
        }
        QueryId::Tpch(n) if tpch_ids.contains(n) => {
            let db =
                morsel_datagen::generate_tpch(morsel_datagen::TpchConfig::scaled(cfg.scale), &topo);
            Ok((format!("q{n}"), tpch_queries::query(&db, *n)))
        }
        _ => Err(id.missing("hand plan", &tpch_ids, &ssb_queries::IDS)),
    }
}

/// The `repro trace <q>` command: run one query through a
/// [`QueryService`] on a traced environment and return `(summary,
/// chrome_json)`. The caller decides where the JSON lands (`--out`,
/// default `trace_<q>.json`). `Err` lists the ids there are when `query`
/// is none of them.
pub fn trace_query(cfg: &ExpConfig, query: &str) -> Result<(String, String), String> {
    let (name, plan) = hand_plan(cfg, query)?;
    let workers = cfg.workers.min(4);
    let recorder = Arc::new(TraceRecorder::new());
    let env = ExecEnv::new(Topology::laptop()).with_trace(Arc::clone(&recorder));
    let service = QueryService::start(
        env,
        ServiceConfig::new(workers).with_morsel_size(cfg.morsel_size),
    );
    let (spec, _result) = compile_query(name.clone(), plan, SystemVariant::full());
    let outcome = service.submit(QueryRequest::new(spec)).wait().outcome;
    // Workers flush their spans as they exit.
    service.shutdown();
    let events = recorder.take();
    let count = |kind: SpanKind| events.iter().filter(|e| e.kind == kind).count();
    let summary = format!(
        "trace {name}: {:?}, {} spans ({} query / {} pipeline / {} morsel), {workers} workers\n",
        outcome,
        events.len(),
        count(SpanKind::Query),
        count(SpanKind::Pipeline),
        count(SpanKind::Morsel),
    );
    Ok((summary, render_chrome_trace(&events)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            scale: 0.001,
            ssb_scale: 0.001,
            workers: 2,
            morsel_size: 2048,
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn metrics_snapshot_is_valid_prometheus() {
        let text = metrics_snapshot(&tiny()).expect("exposition validates");
        assert!(text.contains("# TYPE morsel_service_queries_total counter"));
        assert!(text.contains("morsel_service_queries_total{outcome=\"completed\"}"));
        assert!(text.contains("morsel_exec_morsels_total"));
    }

    #[test]
    fn trace_query_emits_all_three_span_kinds() {
        let (summary, json) = trace_query(&tiny(), "q6").expect("Q6 has a hand plan");
        assert!(summary.contains("Completed"), "{summary}");
        assert!(json.starts_with("{\"traceEvents\":["));
        for cat in [
            "\"cat\":\"query\"",
            "\"cat\":\"pipeline\"",
            "\"cat\":\"morsel\"",
        ] {
            assert!(json.contains(cat), "missing {cat} in trace");
        }
    }

    #[test]
    fn trace_names_the_hand_plans_for_an_id_it_cannot_serve() {
        let cfg = ExpConfig::default();
        let junk = trace_query(&cfg, "five").expect_err("not a query id");
        assert!(junk.contains("unrecognized query"), "{junk}");
        let q99 = trace_query(&cfg, "q99").expect_err("TPC-H has 22 queries");
        assert!(
            q99.starts_with("no hand plan for q99; available: q1 q2 ") && q99.ends_with(" q22"),
            "{q99}"
        );
        let ssb = trace_query(&cfg, "ssb9.9").expect_err("there is no SSB 9.9");
        assert!(
            ssb.starts_with("no hand plan for ssb9.9; available: ssb1.1 ")
                && ssb.ends_with(" ssb4.3"),
            "{ssb}"
        );
    }
}
