//! Wall-clock behaviour of the two-phase aggregation (Section 4.4) by
//! key shape, on the one group-by engine: an inline key with few groups
//! (pure in-cache pre-aggregation) and with many (spill-heavy), two- and
//! three-column inline keys, a seven-part serialised key with plain
//! strings (TPC-H Q10's shape), and clustered input (Q18's `l_orderkey`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use morsel_core::{ExecEnv, Morsel, PipelineJob, TaskContext};
use morsel_exec::agg::{agg_slot, AggFn, AggMergeJob, AggPartialSink, N_PARTITIONS};
use morsel_exec::pipeline::SelBatch;
use morsel_exec::sink::{area_slot, Sink};
use morsel_numa::Topology;
use morsel_storage::{Batch, Column, DataType, DictColumn, Dictionary, Encoding, Schema};
use std::hint::black_box;

const ROWS: usize = 200_000;
const MORSEL: usize = 16_384;
/// Calls of the routine per bench: the harness warms up twice and takes
/// `SAMPLES` samples, so a pool of this many inputs keeps the copying of
/// an input (the sink consumes it) out of the timed region.
const SAMPLES: usize = 20;
const CALLS: usize = SAMPLES + 2;

/// Both phases over the morsels of one input; the last column is the
/// summed payload, the others are the group key.
fn run_agg(env: &ExecEnv, morsels: Vec<SelBatch>, key_types: &[DataType]) -> usize {
    let payload = key_types.len();
    let nodes = env.worker_sockets(1);
    let slot = agg_slot();
    let aggs = vec![AggFn::SumI64(payload), AggFn::Count];
    let columns = morsels[0].batch.columns();
    let types: Vec<DataType> = columns.iter().map(Column::data_type).collect();
    let encodings: Vec<Encoding> = columns.iter().map(Encoding::of).collect();
    let sink = AggPartialSink::new(
        (0..payload).collect(),
        aggs.clone(),
        &types,
        &encodings,
        &nodes,
        slot.clone(),
    );
    let mut ctx = TaskContext::new(env, 0);
    for morsel in morsels {
        sink.consume(&mut ctx, morsel);
    }
    sink.finish(&mut ctx);
    let parts = slot.lock().take().unwrap();
    let result = morsel_core::result_slot();
    let fields: Vec<(String, DataType)> = key_types
        .iter()
        .enumerate()
        .map(|(i, &t)| (format!("k{i}"), t))
        .chain([("sum".into(), DataType::I64), ("cnt".into(), DataType::I64)])
        .collect();
    let schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
    let job = AggMergeJob::new(
        parts.clone(),
        aggs,
        schema,
        &nodes,
        area_slot(),
        Some(result.clone()),
    );
    for p in 0..N_PARTITIONS {
        let rows = parts.partition_rows(p);
        if rows > 0 {
            job.run_morsel(
                &mut ctx,
                Morsel {
                    chunk: p,
                    range: 0..rows,
                },
            );
        }
    }
    job.finish(&mut ctx);
    let batch = result.lock().take().unwrap();
    batch.rows()
}

fn ints(rows: usize, f: impl Fn(i64) -> i64) -> Column {
    Column::I64((0..rows as i64).map(f).collect())
}

fn strs(rows: usize, prefix: &str, domain: i64) -> Column {
    Column::Str(
        (0..rows as i64)
            .map(|x| format!("{prefix}#{:09}", x % domain))
            .collect(),
    )
}

fn dict(rows: usize, words: &[&str]) -> Column {
    let d: Arc<Dictionary> = Dictionary::from_values(words.iter().copied());
    Column::Dict(DictColumn::new(
        d,
        (0..rows).map(|x| (x % words.len()) as u32).collect(),
    ))
}

fn bench_key_shapes(c: &mut Criterion) {
    use DataType::{Str, I64};
    let env = ExecEnv::new(Topology::laptop());
    // The string shape runs fewer rows: its pooled inputs are ~60x wider.
    let (n, few) = (ROWS, ROWS / 10);
    let shapes: Vec<(&str, Vec<Column>, Vec<DataType>)> = vec![
        ("int1/16", vec![ints(n, |x| x % 16)], vec![I64]),
        ("int1/100000", vec![ints(n, |x| x % 100_000)], vec![I64]),
        (
            "int2",
            vec![ints(n, |x| x % 40), ints(n, |x| x % 25)],
            vec![I64, I64],
        ),
        (
            "dict3",
            vec![
                dict(n, &["ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST"]),
                dict(n, &["A", "F", "N", "O", "P", "R", "X"]),
                dict(
                    n,
                    &["MAIL", "SHIP", "AIR", "RAIL", "FOB", "TRUCK", "REG AIR"],
                ),
            ],
            vec![Str, Str, Str],
        ),
        (
            "str_composite7",
            vec![
                ints(few, |x| x % 4_000),
                strs(few, "Customer", 4_000),
                ints(few, |x| (x % 4_000) * 31),
                strs(few, "17-345-", 4_000),
                dict(few, &["FRANCE", "GERMANY", "KENYA", "PERU"]),
                strs(few, "zZ4 address line", 4_000),
                strs(few, "carefully final deposits detect slyly ag", 4_000),
            ],
            vec![I64, Str, I64, Str, Str, Str, Str],
        ),
        // Four consecutive rows per key, every key new: spills all along.
        ("clustered_int1", vec![ints(n, |x| x / 4)], vec![I64]),
    ];
    let mut g = c.benchmark_group("two_phase_aggregation");
    g.sample_size(SAMPLES);
    for (id, mut cols, key_types) in shapes {
        let rows = cols[0].len();
        cols.push(ints(rows, |x| x));
        let batch = Batch::from_columns(cols);
        let morsels: Vec<SelBatch> = (0..rows)
            .step_by(MORSEL)
            .map(|start| {
                let sel: Vec<u32> = (start as u32..(start + MORSEL).min(rows) as u32).collect();
                SelBatch::dense(batch.gather(&sel))
            })
            .collect();
        let mut pool = vec![morsels; CALLS];
        g.throughput(Throughput::Elements(rows as u64));
        g.bench_function(id, |b| {
            b.iter(|| {
                let input = pool.pop().expect("one input per call");
                black_box(run_agg(&env, input, &key_types))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_key_shapes);
criterion_main!(benches);
