//! Observability regression gates: the threaded executor's span
//! recording and the per-operator runtime profile.
//!
//! The trace test is the satellite bar from the profiling PR: a 4-worker
//! threaded run must emit at least one [`SpanKind::Pipeline`] span for
//! every `(query, pipeline job, worker)` combination that appears in the
//! morsel spans — i.e. every worker that participated in a pipeline gets
//! a coalesced pipeline span, and every morsel span nests inside one.

use std::sync::Arc;

use morsel_repro::core::{SpanKind, TraceRecorder};
use morsel_repro::prelude::*;
use morsel_repro::queries::{run_sim, run_threaded, tpch_queries};

#[test]
fn four_worker_trace_has_pipeline_spans_for_every_participant() {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(TpchConfig::scaled(0.005), &topo);
    let workers = 4;
    let variant = SystemVariant::full();
    let config = DispatchConfig::new(workers)
        .with_mode(variant.mode(workers))
        .with_morsel_size(512);
    let recorder = Arc::new(TraceRecorder::new());
    let exec = ThreadedExecutor::new(env, config).with_trace(Arc::clone(&recorder));
    // Q13 (join + aggregation + sort) exercises several pipelines; Q6 adds
    // a second concurrent query so spans interleave across queries too.
    let (s13, _r13) = compile_query("q13", tpch_queries::query(&db, 13), variant);
    let (s6, _r6) = compile_query("q6", tpch_queries::query(&db, 6), variant);
    let handles = exec.run(vec![s13, s6]);
    assert!(handles.iter().all(|h| h.is_done()));

    let events = recorder.take();
    let queries: Vec<&str> = {
        let mut qs: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == SpanKind::Query)
            .map(|e| e.query.as_str())
            .collect();
        qs.sort_unstable();
        qs
    };
    assert_eq!(queries, ["q13", "q6"], "one query span per query");

    let morsels: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Morsel)
        .collect();
    let pipelines: Vec<_> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Pipeline)
        .collect();
    assert!(!morsels.is_empty(), "threaded run recorded no morsel spans");
    assert!(!pipelines.is_empty(), "no pipeline spans recorded");

    // Every (query, job, worker) that executed morsels has >= 1 pipeline
    // span, and every morsel span nests inside one of its pipeline spans.
    let mut participants: Vec<(&str, &str, usize)> = morsels
        .iter()
        .map(|m| (m.query.as_str(), m.job.as_str(), m.worker))
        .collect();
    participants.sort_unstable();
    participants.dedup();
    assert!(
        participants.len() > 1,
        "expected several (query, job, worker) participants, got {participants:?}"
    );
    for (query, job, worker) in &participants {
        assert!(
            pipelines
                .iter()
                .any(|p| p.query == *query && p.job == *job && p.worker == *worker),
            "no pipeline span for query={query} job={job} worker={worker}"
        );
    }
    for m in &morsels {
        assert!(
            pipelines.iter().any(|p| {
                p.query == m.query
                    && p.job == m.job
                    && p.worker == m.worker
                    && p.start_ns <= m.start_ns
                    && m.end_ns <= p.end_ns
            }),
            "morsel span {}/{} on worker {} at [{}, {}] not nested in any pipeline span",
            m.query,
            m.job,
            m.worker,
            m.start_ns,
            m.end_ns,
        );
    }

    // Spans are well-formed and within the query envelope.
    for e in &events {
        assert!(e.start_ns <= e.end_ns, "inverted span {e:?}");
    }
}

#[test]
fn threaded_and_sim_profiles_agree_on_actual_rows() {
    // The profile rides the same slots in both executors; actual row
    // counts are execution-order invariant, so the two must agree.
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(TpchConfig::scaled(0.002), &topo);
    for q in [1usize, 6, 13] {
        let sim = run_sim(
            &env,
            &format!("q{q}-sim"),
            tpch_queries::query(&db, q),
            SystemVariant::full(),
            4,
            1024,
        );
        let thr = run_threaded(
            &env,
            &format!("q{q}-thr"),
            tpch_queries::query(&db, q),
            SystemVariant::full(),
            4,
            1024,
        );
        let (sp, tp) = (sim.profile.unwrap(), thr.profile.unwrap());
        assert_eq!(sp.actual_rows(), tp.actual_rows(), "Q{q} actuals diverge");
        let labels: Vec<&str> = sp.ops.iter().map(|o| o.label.as_str()).collect();
        let tlabels: Vec<&str> = tp.ops.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, tlabels, "Q{q} operator labels diverge");
    }
}

#[test]
fn sink_time_is_credited_to_the_breaker_it_feeds() {
    // Q1 is a filtered scan feeding a pre-aggregation on 2 keys with 8
    // functions: about half of its worker time is spent inside the sink.
    // Before `ExecPipeline::run_morsel` timed `Sink::consume`, the
    // aggregation showed only its merge phase — well under 1 % — and the
    // rest looked like dispatch overhead.
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(TpchConfig::scaled(0.01), &topo);
    let run = run_sim(
        &env,
        "q1",
        tpch_queries::query(&db, 1),
        SystemVariant::full(),
        2,
        16_384,
    );
    let profile = run.profile.unwrap();
    let agg = profile
        .ops
        .iter()
        .find(|o| o.label.starts_with("agg"))
        .expect("Q1 aggregates");
    assert!(
        agg.wall_ns * 5 >= profile.total_wall_ns(),
        "aggregation credited {} of {} ns:\n{}",
        agg.wall_ns,
        profile.total_wall_ns(),
        profile.render()
    );
}

#[test]
fn profiling_off_yields_no_profile_and_same_results() {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(TpchConfig::scaled(0.002), &topo);
    let off = SystemVariant {
        profiling: false,
        ..SystemVariant::full()
    };
    let with = run_sim(
        &env,
        "q1-on",
        tpch_queries::query(&db, 1),
        SystemVariant::full(),
        8,
        1024,
    );
    let without = run_sim(&env, "q1-off", tpch_queries::query(&db, 1), off, 8, 1024);
    assert!(with.profile.is_some(), "profiling on must attach a profile");
    assert!(
        without.profile.is_none(),
        "profiling off must not allocate slots"
    );
    assert_eq!(
        with.result, without.result,
        "profiling must not change query results"
    );
}
