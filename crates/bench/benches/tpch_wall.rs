//! Wall-clock TPC-H query times on the real-thread executor at laptop
//! scale — ties the virtual-time results (repro table1/table2) back to
//! real execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morsel_core::ExecEnv;
use morsel_datagen::{generate_tpch, TpchConfig};
use morsel_exec::SystemVariant;
use morsel_numa::Topology;
use morsel_queries::{run_threaded, tpch_queries};
use std::hint::black_box;

fn bench_queries(c: &mut Criterion) {
    let topo = Topology::laptop();
    let env = ExecEnv::new(topo.clone());
    let db = generate_tpch(
        TpchConfig {
            scale: 0.005,
            ..Default::default()
        },
        &topo,
    );
    let mut g = c.benchmark_group("tpch_wall");
    g.sample_size(10);
    // A scan query, join-heavy queries, an outer-join query, an
    // aggregation-heavy query, and the string-predicate-heavy slice
    // (Q10 returnflag filter, Q12 shipmode IN, Q14 promo prefix).
    for q in [1usize, 3, 6, 10, 12, 13, 14] {
        g.bench_with_input(BenchmarkId::new("q", q), &q, |b, &q| {
            b.iter(|| {
                let out = run_threaded(
                    &env,
                    &format!("q{q}"),
                    tpch_queries::query(&db, q),
                    SystemVariant::full(),
                    2,
                    8_192,
                );
                black_box(out.result.rows())
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
