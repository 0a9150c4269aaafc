//! Dictionary-encoding ablation on the string hot paths (DESIGN.md §9):
//! the same relation with its string column dictionary-encoded vs plain,
//! through a selective string-predicate scan and a string group-by. The
//! `plain` IDs re-measure the un-encoded path in every run, so the
//! encoding gap stays visible — the same ablation pattern as
//! `ht_tagging`. `like/plain` is the path no encoding serves: Q13's
//! `%special%requests%` over a comment column too varied to encode, one
//! `LIKE` match per row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morsel_core::ExecEnv;
use morsel_exec::agg::AggFn;
use morsel_exec::expr::{and, col, eq, ge, in_str, like, lits, prefix};
use morsel_exec::plan::Plan;
use morsel_exec::SystemVariant;
use morsel_numa::{Placement, Topology};
use morsel_queries::run_threaded;
use morsel_storage::{Batch, Column, DataType, PartitionBy, Relation, Schema};
use std::hint::black_box;
use std::sync::Arc;

const ROWS: usize = 400_000;

/// `n` comments in the style of TPC-H's `o_comment`: 4–11 words drawn by
/// a fixed LCG from a word list that includes "special" and "requests".
fn comments(n: usize) -> Vec<String> {
    const WORDS: [&str; 16] = [
        "furiously",
        "special",
        "requests",
        "packages",
        "carefully",
        "final",
        "deposits",
        "ironic",
        "accounts",
        "blithely",
        "regular",
        "pending",
        "quickly",
        "express",
        "sleep",
        "haggle",
    ];
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let words = 4 + next() % 8;
            (0..words)
                .map(|_| WORDS[next() % WORDS.len()])
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// A relation shaped like the TPC-H string-predicate targets: one
/// low-cardinality string attribute (25 nation-length values), one
/// medium-cardinality one (150 part-type-like values), one measure, and
/// a comment column whose domain is too large to encode.
fn relation(encode: bool, topo: &Topology) -> Arc<Relation> {
    let nations: Vec<String> = (0..25).map(|i| format!("NATION-{i:02}")).collect();
    let types: Vec<String> = (0..150)
        .map(|i| {
            format!(
                "{} {} {}",
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"][i % 6],
                ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"][(i / 6) % 5],
                ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"][(i / 30) % 5]
            )
        })
        .collect();
    let tag: Vec<String> = (0..ROWS)
        .map(|i| nations[(i * 7 + i / 13) % nations.len()].clone())
        .collect();
    let ptype: Vec<String> = (0..ROWS)
        .map(|i| types[(i * 11 + i / 7) % types.len()].clone())
        .collect();
    let val: Vec<i64> = (0..ROWS).map(|i| (i as i64 % 991) - 200).collect();
    let schema = Schema::new(vec![
        ("tag", DataType::Str),
        ("ptype", DataType::Str),
        ("val", DataType::I64),
        ("comment", DataType::Str),
    ]);
    let data = Batch::from_columns(vec![
        Column::Str(tag),
        Column::Str(ptype),
        Column::I64(val),
        Column::Str(comments(ROWS)),
    ]);
    let rel = Relation::partitioned(
        schema,
        &data,
        PartitionBy::Chunks,
        16,
        Placement::FirstTouch,
        topo,
    );
    Arc::new(if encode { rel.dict_encoded() } else { rel })
}

/// Selective conjunctive string predicate (equality + prefix + IN),
/// aggregated to a scalar so the sink cost is negligible.
fn filter_plan(rel: &Arc<Relation>) -> Plan {
    Plan::scan(
        Arc::clone(rel),
        Some(and(
            eq(col(0), lits("NATION-07")),
            and(
                prefix(col(1), "PROMO"),
                in_str(
                    col(1),
                    &[
                        "PROMO ANODIZED TIN",
                        "PROMO BURNISHED NICKEL",
                        "PROMO PLATED BRASS",
                        "PROMO POLISHED STEEL",
                    ],
                ),
            ),
        )),
        &["val"],
    )
    .agg(&[], vec![("cnt", AggFn::Count), ("sum", AggFn::SumI64(0))])
}

/// Q13's comment predicate, counted.
fn like_plan(rel: &Arc<Relation>) -> Plan {
    Plan::scan(
        Arc::clone(rel),
        Some(like(col(3), "%special%requests%")),
        &["val"],
    )
    .agg(&[], vec![("cnt", AggFn::Count)])
}

/// String group-by over a range-filtered scan: the Q1-shaped path
/// (string keys through the flat-table aggregation when encoded).
fn group_by_plan(rel: &Arc<Relation>) -> Plan {
    Plan::scan(
        Arc::clone(rel),
        Some(ge(col(2), morsel_exec::expr::lit(0))),
        &["tag", "ptype", "val"],
    )
    .agg(
        &["tag", "ptype"],
        vec![
            ("cnt", AggFn::Count),
            ("sum", AggFn::SumI64(2)),
            ("min", AggFn::MinI64(2)),
        ],
    )
}

fn bench_string_paths(c: &mut Criterion) {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let rels = [
        ("dict", relation(true, &topo)),
        ("plain", relation(false, &topo)),
    ];

    let mut g = c.benchmark_group("string_filter");
    g.sample_size(10);
    let plain = &rels[1].1;
    assert!(plain.partition(0).data.column(3).as_dict().is_none());
    g.bench_with_input(BenchmarkId::new("like", "plain"), plain, |b, rel| {
        b.iter(|| {
            let out = run_threaded(
                &env,
                "string_like",
                like_plan(rel),
                SystemVariant::full(),
                2,
                16_384,
            );
            black_box(out.result.rows())
        });
    });
    for (label, rel) in &rels {
        g.bench_with_input(BenchmarkId::new("filter", label), rel, |b, rel| {
            b.iter(|| {
                let out = run_threaded(
                    &env,
                    "string_filter",
                    filter_plan(rel),
                    SystemVariant::full(),
                    2,
                    16_384,
                );
                black_box(out.result.rows())
            });
        });
        g.bench_with_input(BenchmarkId::new("group_by", label), rel, |b, rel| {
            b.iter(|| {
                let out = run_threaded(
                    &env,
                    "string_group_by",
                    group_by_plan(rel),
                    SystemVariant::full(),
                    2,
                    16_384,
                );
                black_box(out.result.rows())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_string_paths);
criterion_main!(benches);
