//! Wall-clock throughput of a fully pipelined probe (Section 4.1): scan +
//! filter + hash-join probe + materialize, per morsel, on real threads.
//!
//! Two build sides: the *dense* one (10 000 keys over a 20 000-value
//! domain: half the probes match, the match gather dominates) and the
//! *selective* one (200 keys over a 5 000-value domain, the SSB shape: a
//! fact table against a filtered dimension), where 96 % of the probes end
//! at the directory word's tag filter and the directory pass is what is
//! measured. (`ht_tagging` measures the filter itself, on and off.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use morsel_core::{DispatchConfig, ExecEnv, ThreadedExecutor};
use morsel_exec::expr::{col, gt, lit};
use morsel_exec::plan::{compile_query, Plan};
use morsel_exec::SystemVariant;
use morsel_numa::{Placement, Topology};
use morsel_storage::{Batch, Column, DataType, PartitionBy, Relation, Schema};
use std::hint::black_box;
use std::sync::Arc;

const PROBE_ROWS: i64 = 500_000;

/// Probe keys cycle through `0..domain`; the build side holds `build_rows`
/// keys spread evenly over that domain.
fn relations(topo: &Topology, build_rows: i64, domain: i64) -> (Arc<Relation>, Arc<Relation>) {
    let probe = Batch::from_columns(vec![
        Column::I64((0..PROBE_ROWS).map(|x| x % domain).collect()),
        Column::I64((0..PROBE_ROWS).collect()),
    ]);
    let stride = domain / build_rows;
    let build = Batch::from_columns(vec![
        Column::I64((0..build_rows).map(|x| x * stride).collect()),
        Column::I64((0..build_rows).map(|x| x * 3).collect()),
    ]);
    (
        Arc::new(Relation::partitioned(
            Schema::new(vec![("fk", DataType::I64), ("v", DataType::I64)]),
            &probe,
            PartitionBy::Chunks,
            16,
            Placement::FirstTouch,
            topo,
        )),
        Arc::new(Relation::partitioned(
            Schema::new(vec![("pk", DataType::I64), ("payload", DataType::I64)]),
            &build,
            PartitionBy::Hash { column: 0 },
            16,
            Placement::FirstTouch,
            topo,
        )),
    )
}

fn bench_probe(c: &mut Criterion) {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let mut g = c.benchmark_group("probe_pipeline");
    g.throughput(Throughput::Elements(PROBE_ROWS as u64));
    g.sample_size(10);
    let dense = relations(&topo, 10_000, 20_000);
    let selective = relations(&topo, 200, 5_000);
    for workers in [1usize, 2, 4] {
        for (label, (probe, build)) in [("dense", &dense), ("selective", &selective)] {
            g.bench_with_input(BenchmarkId::new(label, workers), &workers, |b, &workers| {
                b.iter(|| {
                    let plan = Plan::scan(probe.clone(), Some(gt(col(1), lit(-1))), &["fk", "v"])
                        .join(
                            Plan::scan(build.clone(), None, &["pk", "payload"]),
                            &["fk"],
                            &["pk"],
                            &["payload"],
                        )
                        .agg(
                            &[],
                            vec![
                                ("sum", morsel_exec::AggFn::SumI64(2)),
                                ("cnt", morsel_exec::AggFn::Count),
                            ],
                        );
                    let (spec, result) = compile_query("probe", plan, SystemVariant::full());
                    let exec = ThreadedExecutor::new(
                        env.clone(),
                        DispatchConfig::new(workers).with_morsel_size(16_384),
                    );
                    exec.run(vec![spec]);
                    let batch = result.lock().take().unwrap();
                    black_box(batch.column(1).as_i64()[0])
                });
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_probe);
criterion_main!(benches);
