//! Wall-clock ablation of the lock-free tagged hash table (Section 4.2):
//! tag filtering should make selective (missing) probes much cheaper,
//! while costing nothing measurable on hits or inserts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use morsel_exec::ht::TaggedHashTable;
use morsel_storage::hash64;
use std::hint::black_box;

const N: usize = 100_000;

fn build(tagging: bool) -> TaggedHashTable {
    let ht = TaggedHashTable::new(&[N], 4, tagging);
    for row in 0..N {
        ht.insert(row, hash64(row as u64));
    }
    ht
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("ht_insert");
    g.sample_size(20);
    for tagging in [true, false] {
        g.bench_with_input(
            BenchmarkId::new("insert_100k", if tagging { "tagged" } else { "plain" }),
            &tagging,
            |b, &tagging| {
                b.iter(|| {
                    let ht = build(tagging);
                    black_box(ht.len())
                });
            },
        );
    }
    g.finish();
}

fn bench_probe(c: &mut Criterion) {
    let tagged = build(true);
    let plain = build(false);
    // Hits: every key present. Misses: the selective-join case the tag
    // filter accelerates.
    let hits: Vec<u64> = (0..N as u64).map(hash64).collect();
    let misses: Vec<u64> = (N as u64..2 * N as u64).map(hash64).collect();
    let mut g = c.benchmark_group("ht_probe");
    g.sample_size(30);
    for (label, ht, hashes) in [
        ("hit/tagged", &tagged, &hits),
        ("hit/plain", &plain, &hits),
        ("miss/tagged", &tagged, &misses),
        ("miss/plain", &plain, &misses),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut found = 0u64;
                let traversed = ht.probe_batch(hashes, |_, _| found += 1);
                black_box((found, traversed))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_insert, bench_probe);
criterion_main!(benches);
