//! One price list. Each operator runs over a seeded batch, and the profile
//! it books must be what its charge function (`morsel_exec::charge`) books
//! at the counts it saw. The planner must then charge the plan node that
//! compiles to that operator the same, when the counts are its estimates:
//! any drift between what the simulator times and what the planner prices
//! fails here, operator by operator.

use std::sync::Arc;

use morsel_core::{ExecEnv, Morsel, MorselProfile, PipelineJob, TaskContext};
use morsel_exec::agg::{agg_slot, AggFn, AggMergeJob, AggPartialSink, N_PARTITIONS};
use morsel_exec::charge::{self, Charge};
use morsel_exec::expr::{add, col, gt, lit, lt, mul};
use morsel_exec::join::{join_slot, HtInsertJob, JoinKind, JoinSlot, ProbeOp};
use morsel_exec::key::{hash_rows, Rows};
use morsel_exec::pipeline::{ExecPipeline, FilterOp, MapOp, PipeOp, SelBatch, SEL_COMPACT_DENOM};
use morsel_exec::plan::Plan;
use morsel_exec::sink::{area_slot, MaterializeSink, Sink};
use morsel_exec::sort::{runs_slot, LocalSortJob, MergeJob, MergePlan, SortKey, TopKSink};
use morsel_exec::SystemVariant;
use morsel_numa::{Placement, SocketId, Topology};
use morsel_planner::{plan_charges, ColEst, PlanEst};
use morsel_storage::{
    AreaSet, Batch, Column, DataType, PartitionBy, Relation, Schema, StorageArea,
};

/// Rows of the fact-like relation `t(k, v, w)`.
const N: usize = 1_000;

fn env() -> ExecEnv {
    ExecEnv::new(Topology::nehalem_ex())
}

/// `n` pseudo-random values in `0..bound` from `seed`.
fn seeded(n: usize, bound: i64, seed: u64) -> Vec<i64> {
    let mut x = seed;
    (0..n)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((x >> 33) % bound as u64) as i64
        })
        .collect()
}

/// `t(k, v, w)`: a key, a value in `0..100` and a value in `0..1000`.
fn t_batch() -> Batch {
    Batch::from_columns(vec![
        Column::I64((0..N as i64).collect()),
        Column::I64(seeded(N, 100, 1)),
        Column::I64(seeded(N, 1_000, 2)),
    ])
}

/// `batch` as a one-partition relation, so one morsel scans all of it.
fn relation(names: &[&str], batch: &Batch) -> Arc<Relation> {
    Arc::new(Relation::partitioned(
        Schema::new(names.iter().map(|&n| (n, DataType::I64)).collect()),
        batch,
        PartitionBy::Chunks,
        1,
        Placement::FirstTouch,
        &Topology::nehalem_ex(),
    ))
}

/// Rows of `col` for which `keep` holds.
fn count(batch: &Batch, col: usize, keep: impl Fn(i64) -> bool) -> usize {
    batch
        .column(col)
        .as_i64()
        .iter()
        .filter(|&&v| keep(v))
        .count()
}

/// The profile `run` books on worker 0.
fn booked_by(env: &ExecEnv, run: impl FnOnce(&mut TaskContext<'_>)) -> MorselProfile {
    let mut ctx = TaskContext::new(env, 0);
    run(&mut ctx);
    ctx.take_profile()
}

/// The operator's profile must be `charges` booked in order, reading from
/// `node`, bit for bit.
fn assert_books(env: &ExecEnv, got: &MorselProfile, charges: &[Charge], node: SocketId) {
    let want = booked_by(env, |ctx| {
        for c in charges {
            c.book(ctx, &[(node, c.read as u64)]);
        }
    });
    assert_eq!(got.cpu_ns.to_bits(), want.cpu_ns.to_bits(), "cpu ns");
    assert_eq!(got.node_bytes, want.node_bytes, "bytes per node");
    assert_eq!(
        got.random_by_hops, want.random_by_hops,
        "dependent accesses"
    );
}

/// The planner's charges for every node of `plan`, its estimates being the
/// actual `rows` of each node in pre-order over 8-byte columns, every one
/// of them unique.
fn planned(plan: &Plan, rows: &[usize]) -> Vec<Vec<Charge>> {
    let mut rows = rows.iter();
    plan_charges(plan, &mut |p| {
        let n = *rows.next().expect("a count per plan node") as f64;
        let col = ColEst {
            ndv: n,
            width: 8.0,
            span: None,
            dict: None,
        };
        PlanEst {
            rows: n,
            cols: vec![col; p.schema().len()],
        }
    })
}

/// `charges` of a plan's root node, then the materialization of its
/// result: `rows` rows of `cols` 8-byte columns.
fn with_result(charges: &[Charge], rows: usize, cols: usize) -> Vec<Charge> {
    let result = charge::materialize(rows as f64, cols, (8 * rows * cols) as f64);
    charges.iter().copied().chain([result]).collect()
}

struct NullSink;

impl Sink for NullSink {
    fn consume(&self, _ctx: &mut TaskContext<'_>, _input: SelBatch) {}
    fn finish(&self, _ctx: &mut TaskContext<'_>) {}
}

#[test]
fn scan_and_result_materialization() {
    let env = env();
    let batch = t_batch();
    let rel = relation(&["k", "v", "w"], &batch);
    let node = rel.partitions()[0].node;
    // v > 59 keeps ~40 %; k and w + 1 are projected: all three columns are
    // read and gathered, 3 filter nodes per row, 1 + 3 projection nodes
    // per kept row.
    let filter = gt(col(1), lit(59));
    let projection = vec![col(0), add(col(2), lit(1))];
    let kept = count(&batch, 1, |v| v > 59);
    for exchange_ns in [0.0, SystemVariant::volcano().exchange_ns] {
        let pipe = ExecPipeline::new(
            Arc::clone(&rel) as _,
            Some(filter.clone()),
            projection.clone(),
            vec![],
            Box::new(NullSink),
        )
        .with_extra_scan_ns(exchange_ns);
        let got = booked_by(&env, |ctx| {
            pipe.run_morsel(
                ctx,
                Morsel {
                    chunk: 0,
                    range: 0..N,
                },
            )
        });
        let scan = charge::scan(N as f64, kept as f64, 3, (24 * N) as f64, 3, 4, exchange_ns);
        assert_books(&env, &got, &[scan], node);
    }

    // The result's materialization into the worker's area.
    let out = Batch::from_columns(vec![Column::I64(vec![7; kept]), Column::I64(vec![1; kept])]);
    let schema = Schema::new(vec![("k", DataType::I64), ("w1", DataType::I64)]);
    let sink = MaterializeSink::new(schema, &env.worker_sockets(1), area_slot(), None);
    let got = booked_by(&env, |ctx| sink.consume(ctx, SelBatch::dense(out)));
    let result = charge::materialize(kept as f64, 2, (16 * kept) as f64);
    assert_books(&env, &got, &[result], node);

    // The planner prices the morsel-driven engine: no exchange.
    let plan = Plan::scan_project(
        rel,
        Some(filter),
        vec![("k", col(0)), ("w1", add(col(2), lit(1)))],
    );
    let scan = charge::scan(N as f64, kept as f64, 3, (24 * N) as f64, 3, 4, 0.0);
    assert_eq!(planned(&plan, &[kept]), [vec![scan, result]]);
}

/// `t` scanned whole, for the operators above a scan.
fn t_scan() -> Plan {
    Plan::scan(
        relation(&["k", "v", "w"], &t_batch()),
        None,
        &["k", "v", "w"],
    )
}

/// `charges` followed by the gather the density heuristic does when a
/// selection over `under` rows keeps only `kept` of `cols` columns.
fn then_compacted(mut charges: Vec<Charge>, kept: usize, under: usize, cols: usize) -> Vec<Charge> {
    if kept * SEL_COMPACT_DENOM < under {
        charges.push(charge::materialize(kept as f64, cols, 0.0));
    }
    charges
}

#[test]
fn filter_on_dense_and_sparse_selections_and_map() {
    let env = env();
    let batch = t_batch();
    let node = SocketId(0);
    let (f1, f2) = (gt(col(1), lit(69)), lt(col(2), lit(500)));
    let kept1 = count(&batch, 1, |v| v > 69);
    let both = (0..N)
        .filter(|&r| batch.column(1).as_i64()[r] > 69 && batch.column(2).as_i64()[r] < 500)
        .count();
    // ~30 % survive the first filter: no compaction, and a selection the
    // second filter sees as sparse (fewer than one in two rows).
    assert!(kept1 * 8 >= N && kept1 * 2 < N, "kept {kept1} of {N}");

    let mut mid = None;
    let got = booked_by(&env, |ctx| {
        mid = Some(FilterOp::new(f1.clone()).apply(ctx, SelBatch::dense(batch.clone())))
    });
    let dense = then_compacted(vec![charge::filter(N as f64, None, 3)], kept1, N, 3);
    assert_books(&env, &got, &dense, node);
    let mid = mid.expect("the first filter ran");
    assert_eq!(mid.rows(), kept1);

    let got = booked_by(&env, |ctx| {
        FilterOp::new(f2.clone()).apply(ctx, mid.clone());
    });
    let sparse = charge::filter(N as f64, Some(kept1 as f64), 3);
    assert_eq!(sparse.cpu[0].0, kept1 as f64, "charged per selected row");
    let sparse = then_compacted(vec![sparse], both, N, 3);
    assert_books(&env, &got, &sparse, node);

    // A projection over a selection gathers it first.
    let got = booked_by(&env, |ctx| {
        MapOp {
            exprs: vec![mul(col(0), lit(3))],
        }
        .apply(ctx, mid.clone());
    });
    let map = vec![
        charge::materialize(kept1 as f64, 3, 0.0),
        charge::map(kept1 as f64, 3),
    ];
    assert_books(&env, &got, &map, node);

    let once = t_scan().filter(f1.clone());
    let want = with_result(&dense, kept1, 3);
    assert_eq!(planned(&once, &[kept1, N])[0], want);
    let twice = t_scan().filter(f1.clone()).filter(f2);
    let want = with_result(&sparse, both, 3);
    assert_eq!(planned(&twice, &[both, kept1, N])[0], want);
    let mapped = t_scan().filter(f1).map(vec![("k3", mul(col(0), lit(3)))]);
    let want = with_result(&map, kept1, 1);
    assert_eq!(planned(&mapped, &[kept1, kept1, N])[0], want);
}

/// Dimension keys that share no hash chain, so a probe of a present key
/// walks exactly one link — the planner's estimate of the links walked.
const DIM_KEYS: [i64; 4] = [0, 2, 4, 6];

/// `d(dk, p)` with `DIM_KEYS` and a payload, materialized into one area
/// on socket 1 and inserted into a join table. Returns the table and the
/// insert's profile.
fn built(env: &ExecEnv) -> (JoinSlot, MorselProfile) {
    let schema = Schema::new(vec![("dk", DataType::I64), ("p", DataType::I64)]);
    let mut area = StorageArea::new(SocketId(1), &schema.data_types());
    area.data_mut().extend_from(&dim_batch());
    let slot = join_slot();
    let job = HtInsertJob::new(
        Arc::new(AreaSet::new(schema, vec![area])),
        vec![0],
        4,
        slot.clone(),
    );
    let range = 0..DIM_KEYS.len();
    let got = booked_by(env, |ctx| job.run_morsel(ctx, Morsel { chunk: 0, range }));
    job.finish(&mut TaskContext::new(env, 0));
    (slot, got)
}

fn dim_batch() -> Batch {
    Batch::from_columns(vec![
        Column::I64(DIM_KEYS.to_vec()),
        Column::I64(DIM_KEYS.iter().map(|k| 10 * k).collect()),
    ])
}

#[test]
fn hash_build_and_every_kind_of_probe() {
    let env = env();
    let d = DIM_KEYS.len();
    // Build side: its materialization, then the insert of its keys.
    let schema = Schema::new(vec![("dk", DataType::I64), ("p", DataType::I64)]);
    let sink = MaterializeSink::new(schema, &env.worker_sockets(1), area_slot(), None);
    let got = booked_by(&env, |ctx| sink.consume(ctx, SelBatch::dense(dim_batch())));
    let materialize = charge::materialize(d as f64, 2, (16 * d) as f64);
    assert_books(&env, &got, &[materialize], SocketId(0));
    let (table, got) = built(&env);
    // The table is charged at the size of the build tuples: 16 bytes each.
    let insert = charge::hash_build(d as f64, (8 * d) as f64, (16 * d) as f64);
    assert_books(&env, &got, &[insert], SocketId(1));

    let dim = relation(&["dk", "p"], &dim_batch());
    let jt = table.get().expect("built");
    for (kind, probe_keys) in [
        // Every probe row matches one dimension row.
        (
            JoinKind::Inner,
            (seeded(N, d as i64, 3).into_iter())
                .map(|i| DIM_KEYS[i as usize])
                .collect(),
        ),
        // Unique probe keys, as the planner's estimate assumes them.
        (JoinKind::Semi, DIM_KEYS[..3].to_vec()),
        (JoinKind::Anti, DIM_KEYS[..3].to_vec()),
        (JoinKind::Count, DIM_KEYS[..3].to_vec()),
    ] {
        let rows = probe_keys.len();
        let fact_batch = Batch::from_columns(vec![
            Column::I64(probe_keys.clone()),
            Column::I64((0..rows as i64).collect()),
        ]);
        let hashes = hash_rows(&fact_batch, &[0], Rows::range(0..rows));
        let traversed = jt.ht.probe_batch(&hashes, |_, _| {});
        assert_eq!(
            traversed as usize, rows,
            "{kind:?}: the keys share no chain"
        );
        let inner = kind == JoinKind::Inner;
        let op = ProbeOp {
            table: table.clone(),
            probe_keys: vec![0],
            kind,
            build_cols: if inner { vec![1] } else { vec![] },
        };
        let got = booked_by(&env, |ctx| {
            op.apply(ctx, SelBatch::dense(fact_batch.clone()));
        });
        // Inner: each match gathers 2 probe and 1 payload column and reads
        // 8 payload bytes from the area's node.
        let (matches, payload) = if inner { (rows, 8 * rows) } else { (0, 0) };
        let probe = charge::hash_probe(
            kind,
            rows as f64,
            rows as f64,
            matches as f64,
            2 + usize::from(inner),
            payload as f64,
            (16 * d) as f64,
        );
        let out = match kind {
            JoinKind::Anti => 0,
            _ => rows,
        };
        let probe = match kind {
            JoinKind::Semi | JoinKind::Anti => then_compacted(vec![probe], out, rows, 2),
            _ => vec![probe],
        };
        assert_books(&env, &got, &probe, SocketId(1));

        let fact = relation(&["fk", "x"], &fact_batch);
        let payload_cols: &[&str] = if inner { &["p"] } else { &[] };
        let plan = Plan::scan(fact, None, &["fk", "x"]).join_kind(
            Plan::scan(Arc::clone(&dim), None, &["dk", "p"]),
            &["fk"],
            &["dk"],
            payload_cols,
            kind,
        );
        let mut want = vec![materialize, insert];
        want.extend(probe);
        let cols = match kind {
            JoinKind::Inner => 3,
            JoinKind::Count => 3,
            _ => 2,
        };
        let want = with_result(&want, out, cols);
        assert_eq!(planned(&plan, &[out, rows, d])[0], want, "{kind:?}");
    }
}

#[test]
fn aggregation_update_and_merge() {
    let env = env();
    let groups = 50;
    let batch = Batch::from_columns(vec![
        Column::I64(seeded(N, groups as i64, 4)),
        Column::I64(seeded(N, 1_000, 5)),
    ]);
    let aggs = vec![AggFn::SumI64(1), AggFn::Count];
    let slot = agg_slot();
    let sink = AggPartialSink::new(vec![0], aggs.clone(), &env.worker_sockets(1), slot.clone());
    // Fewer groups than the table holds: nothing spills while consuming,
    // and the final flush spills each group once (8 key + 2 × 16 state
    // bytes).
    let got = booked_by(&env, |ctx| {
        sink.consume(ctx, SelBatch::dense(batch.clone()))
    });
    let update = charge::agg_update(N as f64, 2, 0.0);
    assert_books(&env, &got, &[update], SocketId(0));
    let got = booked_by(&env, |ctx| sink.finish(ctx));
    let flush = charge::agg_update(0.0, 2, (40 * groups) as f64);
    assert_books(&env, &got, &[flush], SocketId(0));

    let parts = slot.lock().take().expect("phase 1 finished");
    let schema = Schema::new(vec![
        ("g", DataType::I64),
        ("s", DataType::I64),
        ("n", DataType::I64),
    ]);
    let merge = AggMergeJob::new(
        Arc::clone(&parts),
        aggs,
        schema,
        &env.worker_sockets(1),
        area_slot(),
        None,
    );
    let mut entries = 0;
    for p in 0..N_PARTITIONS {
        let n = parts.partition_rows(p);
        entries += n;
        let range = 0..n.max(1);
        let got = booked_by(&env, |ctx| {
            merge.run_morsel(ctx, Morsel { chunk: p, range })
        });
        // One worker: each group reaches its partition once; its result
        // row is the key and two aggregates.
        let partition = charge::agg_merge(n as f64, 2, (40 * n) as f64, (24 * n) as f64);
        assert_books(&env, &got, &[partition], SocketId(0));
    }
    assert_eq!(entries, groups);

    let plan = Plan::scan(relation(&["g", "x"], &batch), None, &["g", "x"])
        .agg(&["g"], vec![("s", AggFn::SumI64(1)), ("n", AggFn::Count)]);
    let merged = charge::agg_merge(groups as f64, 2, (40 * groups) as f64, (24 * groups) as f64);
    assert_eq!(planned(&plan, &[groups, N])[0], [update, merged]);
}

#[test]
fn local_sort_merge_and_top_k() {
    let env = env();
    let batch = t_batch();
    let schema = Schema::new(vec![
        ("k", DataType::I64),
        ("v", DataType::I64),
        ("w", DataType::I64),
    ]);
    let keys = vec![SortKey::asc(1)];
    let bytes = (24 * N) as f64;

    // Materialize, sort the one run, merge it as one segment.
    let mat = area_slot();
    let sink = MaterializeSink::new(schema.clone(), &env.worker_sockets(1), mat.clone(), None);
    let got = booked_by(&env, |ctx| {
        sink.consume(ctx, SelBatch::dense(batch.clone()));
        sink.finish(ctx);
    });
    let materialize = charge::materialize(N as f64, 3, bytes);
    assert_books(&env, &got, &[materialize], SocketId(0));
    let input = mat.lock().take().expect("materialized");
    let runs = runs_slot();
    let local = LocalSortJob::new(input, keys.clone(), runs.clone());
    let got = booked_by(&env, |ctx| {
        local.run_morsel(
            ctx,
            Morsel {
                chunk: 0,
                range: 0..N,
            },
        );
        local.finish(ctx);
    });
    let sort = charge::local_sort(N as f64, 1, bytes, bytes);
    assert_books(&env, &got, &[sort], SocketId(0));
    let runs = runs.lock().take().expect("sorted");
    let merge_job = MergeJob::new(
        Arc::new(MergePlan::compute(runs, 1)),
        schema.clone(),
        area_slot(),
        None,
        None,
    );
    let got = booked_by(&env, |ctx| {
        merge_job.run_morsel(
            ctx,
            Morsel {
                chunk: 0,
                range: 0..N,
            },
        )
    });
    let merge = charge::merge(N as f64, 1, bytes, bytes);
    assert_books(&env, &got, &[merge], SocketId(0));

    let sorted = t_scan().sort_by(keys.clone(), None);
    assert_eq!(planned(&sorted, &[N, N])[0], [materialize, sort, merge]);

    // A small limit keeps a heap per worker instead.
    let top = TopKSink::new(keys.clone(), 10, schema, 1, area_slot(), None);
    let got = booked_by(&env, |ctx| top.consume(ctx, SelBatch::dense(batch.clone())));
    let heap = charge::top_k(N as f64, 10);
    assert_books(&env, &got, &[heap], SocketId(0));
    let limited = t_scan().sort_by(keys, Some(10));
    assert_eq!(planned(&limited, &[10, N])[0], [heap]);
}
