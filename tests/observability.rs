//! Observability regression gates: span recording on the threaded
//! runtime and the per-operator runtime profile.
//!
//! The trace test is the satellite bar from the profiling PR: a 4-worker
//! threaded run must emit at least one [`SpanKind::Pipeline`] span for
//! every `(query, pipeline job, worker)` combination that appears in the
//! morsel spans — i.e. every worker that participated in a pipeline gets
//! a coalesced pipeline span, and every morsel span nests inside one. It
//! holds on both spellings of the one worker pool: the batch
//! `ThreadedExecutor` and a `QueryService` started on a traced
//! environment.

use std::sync::Arc;

use morsel_repro::core::{Morsel, PipelineJob, SpanKind, TaskContext, TraceEvent, TraceRecorder};
use morsel_repro::prelude::*;
use morsel_repro::queries::{run_sim, run_threaded, tpch_queries};
use morsel_repro::service::{QueryRequest, QueryService, ServiceConfig};

#[test]
fn four_worker_trace_has_pipeline_spans_for_every_participant() {
    let topo = Topology::laptop();
    let db = generate_tpch(TpchConfig::scaled(0.005), &topo);
    let workers = 4;
    let variant = SystemVariant::full();
    // Q13 (join + aggregation + sort) exercises several pipelines; Q6 adds
    // a second concurrent query so spans interleave across queries too.
    let specs =
        || [13, 6].map(|q| compile_query(format!("q{q}"), tpch_queries::query(&db, q), variant).0);

    let recorder = Arc::new(TraceRecorder::new());
    let env = ExecEnv::new(topo.clone()).with_trace(Arc::clone(&recorder));
    let config = DispatchConfig::new(workers)
        .with_mode(variant.mode(workers))
        .with_morsel_size(512);
    let handles = ThreadedExecutor::new(env, config).run(specs().into());
    assert!(handles.iter().all(|h| h.is_done()));
    assert_nested_spans(&recorder.take());

    let recorder = Arc::new(TraceRecorder::new());
    let env = ExecEnv::new(topo.clone()).with_trace(Arc::clone(&recorder));
    let service = QueryService::start(env, ServiceConfig::new(workers).with_morsel_size(512));
    let tickets = specs().map(|s| service.submit(QueryRequest::new(s)));
    for t in tickets {
        assert_eq!(t.wait().outcome, QueryOutcome::Completed);
    }
    assert_eq!(service.shutdown().worker_panics, 0);
    assert_nested_spans(&recorder.take());
}

fn assert_nested_spans(events: &[TraceEvent]) {
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
    for e in events {
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
    // The core rule: a `QuerySpec` without labels gets no slots, and the
    // compiled jobs' record calls (they hold slot numbers all the same)
    // are no-ops that change nothing.
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(TpchConfig::scaled(0.002), &topo);
    let run = |labelled: bool| {
        let (mut spec, result) =
            compile_query("q1", tpch_queries::query(&db, 1), SystemVariant::full());
        if !labelled {
            spec.profile_ops.clear();
        }
        let mut sim = SimExecutor::new(env.clone(), DispatchConfig::new(8).with_morsel_size(1024));
        sim.submit(spec);
        let profile = sim.run().handle("q1").profile();
        let rows = result.lock().take().expect("Q1 completes");
        (profile, rows)
    };
    let (with, rows_with) = run(true);
    let (without, rows_without) = run(false);
    assert!(with.is_some(), "labels must attach a profile");
    assert!(without.is_none(), "no labels must not allocate slots");
    assert_eq!(
        rows_with, rows_without,
        "profiling must not change query results"
    );
}

/// A one-morsel job that hands its profiling-bound context to a closure.
struct OnContext<F>(F);

impl<F: Fn(&mut TaskContext<'_>) + Send + Sync> PipelineJob for OnContext<F> {
    fn run_morsel(&self, ctx: &mut TaskContext<'_>, _morsel: Morsel) {
        (self.0)(ctx)
    }
}

#[test]
fn breaker_tail_work_is_credited() {
    use morsel_repro::core::{BuiltJob, ChunkMeta, QuerySpec, Stage};
    use morsel_repro::exec::agg::{agg_slot, AggMergeJob, AggPartialSink, N_PARTITIONS};
    use morsel_repro::exec::pipeline::SelBatch;
    use morsel_repro::exec::sink::{area_slot, Sink};
    use morsel_repro::exec::sort::TopKSink;
    use morsel_repro::storage::{Batch, Column, DataType, Schema};
    // What a breaker does after its last input row — the pre-aggregation's
    // final flush, the merge phase's emit, the top-k's final merge — is its
    // work too. The three are driven by hand on a context bound to a
    // profiled query, each under a profile slot of its own that nothing
    // else credits (`consume` is credited by the pipeline, and there is
    // none here), and each call is timed from the outside on the same
    // thread. A worker descheduled inside a call lengthens both readings
    // alike, so the slot accounts for all of it but the two clock reads;
    // a credit line removed reads 0, and a merge timer that stops before
    // the emit misses the six string columns that are three quarters of
    // the call. Demanding half, in one of three attempts, leaves room for
    // a time slice lost exactly between the two clock reads.
    let timed = |f: &mut dyn FnMut()| {
        let started = std::time::Instant::now();
        f();
        started.elapsed().as_nanos() as u64
    };
    let n = 4_000i64;
    let body = move |owed: &std::sync::Mutex<[u64; 3]>, ctx: &mut TaskContext<'_>| {
        let nodes = ctx.env().worker_sockets(1);
        // 4 000 distinct keys stay below the pre-aggregation capacity:
        // phase 1 spills everything in `finish`, phase 2 emits it all.
        let short =
            |salt: i64| Column::Str((0..n).map(|x| format!("{}", (x + salt) % 97)).collect());
        let mut cols = vec![Column::Str((0..n).map(|x| format!("{x}")).collect())];
        cols.extend([1, 2, 3, 5, 7].map(short));
        cols.push(Column::I64((0..n).collect()));
        let aggs = vec![AggFn::Count, AggFn::SumI64(6), AggFn::MinI64(6)];
        let mut fields = vec![("k", DataType::Str); 6];
        fields.extend([("n", DataType::I64); 3]);
        let slot = agg_slot();
        let partial = AggPartialSink::new((0..6).collect(), aggs.clone(), &nodes, slot.clone())
            .with_prof_slot(Some(0));
        partial.consume(ctx, SelBatch::dense(Batch::from_columns(cols)));
        let flush = timed(&mut || partial.finish(ctx));
        let parts = slot
            .lock()
            .take()
            .expect("phase 1 hands its partitions over");
        let merge = AggMergeJob::new(
            Arc::clone(&parts),
            aggs,
            Schema::new(fields),
            &nodes,
            area_slot(),
            None,
        )
        .with_prof_slot(Some(1));
        let mut emit = 0;
        for chunk in 0..N_PARTITIONS {
            let range = 0..parts.partition_rows(chunk);
            emit += timed(&mut || {
                merge.run_morsel(
                    ctx,
                    Morsel {
                        chunk,
                        range: range.clone(),
                    },
                )
            });
        }
        // Top-k keeping 1 000 of 1 200 wide rows: `finish` merges the
        // held set and copies it into the output area.
        let rows = 1_200i64;
        let wide = |tag: &str| Column::Str((0..rows).map(|x| format!("{tag} {x:>60}")).collect());
        let types = vec![
            ("k", DataType::I64),
            ("a", DataType::Str),
            ("b", DataType::Str),
        ];
        let topk = TopKSink::new(
            vec![SortKey::desc(0)],
            1_000,
            Schema::new(types),
            1,
            area_slot(),
            None,
        )
        .with_prof_slot(Some(2));
        topk.consume(
            ctx,
            SelBatch::dense(Batch::from_columns(vec![
                Column::I64((0..rows).map(|x| x * 7_919 % 10_007).collect()),
                wide("address"),
                wide("comment"),
            ])),
        );
        let last = timed(&mut || topk.finish(ctx));
        *owed.lock().unwrap() = [flush, emit, last];
    };
    let attempts: Vec<Vec<(String, u64, u64)>> = (0..3)
        .map(|_| {
            let owed = Arc::new(std::sync::Mutex::new([0u64; 3]));
            let job = {
                let owed = Arc::clone(&owed);
                OnContext(move |ctx: &mut TaskContext<'_>| body(&owed, ctx))
            };
            let stage = Stage::new("tails", move |_env: &ExecEnv, _workers: usize| {
                let chunks = vec![ChunkMeta {
                    node: SocketId(0),
                    rows: 1,
                }];
                BuiltJob::new("tails", Arc::new(job), chunks)
            });
            let mut spec = QuerySpec::new("tails", vec![stage], morsel_repro::core::result_slot());
            spec.profile_ops = ["final flush", "merge and emit", "top-k finish"]
                .map(String::from)
                .to_vec();
            let exec =
                ThreadedExecutor::new(ExecEnv::new(Topology::laptop()), DispatchConfig::new(1));
            let handles = exec.run(vec![spec]);
            let profile = handles[0].profile().expect("profiled");
            let owed = *owed.lock().unwrap();
            let ops = profile.ops.into_iter().zip(owed);
            ops.map(|(op, owed)| (op.label, op.wall_ns, owed)).collect()
        })
        .collect();
    assert!(
        attempts.iter().any(|tails| tails
            .iter()
            .all(|(_, credited, owed)| *owed > 0 && credited * 2 >= *owed)),
        "a tail under half credited in every attempt (tail, credited ns, ns its call took): \
         {attempts:#?}"
    );
}
