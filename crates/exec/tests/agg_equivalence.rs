//! The group-by engine against the row-at-a-time oracle of
//! `common/agg_reference.rs`, on seeded random inputs: 0–7 group columns
//! drawn from `I32` / `I64` / `F64` / plain `Str` / `Dict` (integer
//! extremes, ±0.0 and two NaNs, empty strings, strings containing `\0`,
//! the pair `("ab","c")` / `("a","bc")`), every `AggFn` over `I64` and
//! `I32` columns, dense / sparse / empty selections, pre-aggregation
//! capacities 1, 2, 70 and 4096 (spills in the middle of a batch, with
//! and without the clustered-input shortcut armed), one worker and four
//! with interleaved morsels, and every dictionary group column coming
//! back as a `Dict` column sharing the input's `Arc<Dictionary>`.
//!
//! This file replaces the scalar twin the engine used to carry. It was run
//! against these deliberately broken engines, and fails on each of them:
//!
//! * strings serialised without their length prefix (`KeyLayout::extract`
//!   writing only the bytes): `("ab","c")` and `("a","bc")` become one
//!   group — `adjacent_strings_keep_their_boundaries` and the random
//!   cases with string columns fail;
//! * equality on the hash alone (`GroupTable::upsert` accepting a
//!   directory word whose tag matches without comparing keys): only
//!   `keys_sharing_their_hash_tag_stay_apart` fails, which searches for
//!   integer keys whose hashes share the 32 tag bits — random data never
//!   collides;
//! * a flush that drops the segment's pending updates (`absorb` spilling
//!   before `update_lanes`): every test fails, rows go missing wherever
//!   the capacity is below the group count;
//! * phase 2 merging an average's count lane by overwriting instead of
//!   adding (the "average of averages" family — sums and counts must both
//!   add up across fragments): the random, clustered and hash-tag tests;
//! * `Min`/`Max` lanes started at 0 instead of their identities, and NaN
//!   keys kept apart by payload: the random cases.
//!
//! Not on the list, because no test can tell: the last-row shortcut
//! "surviving a flush". A flush happens at a key that is *not* in the
//! table while the key of the row before it *is*, so the two differ and
//! the shortcut cannot fire there; what the `i > from` guard protects is
//! the first row of a run, and without it the engine indexes before the
//! run and panics (`clustered_keys_through_flushes` keeps the shortcut
//! armed on both sides of a flush: it fails when the rows a shortcut
//! answers after one are given another group).

use std::sync::Arc;

use morsel_core::{result_slot, ExecEnv, Morsel, PipelineJob, TaskContext};
use morsel_exec::agg::{agg_slot, AggFn, AggMergeJob, AggPartialSink, N_PARTITIONS};
use morsel_exec::pipeline::SelBatch;
use morsel_exec::sink::{area_slot, Sink};
use morsel_numa::Topology;
use morsel_storage::{hash_i64, AreaSet, Batch, Column, DataType, DictColumn, Dictionary, Schema};
use proptest::TestRng;

#[path = "common/agg_reference.rs"]
mod agg_reference;

use agg_reference::Atom;

type Input = (Batch, Option<Vec<u32>>);

/// Both phases over `inputs`, input `i` consumed by worker `i % workers`
/// and partitions merged by alternating workers. Returns the decoded,
/// sorted result and the raw output areas.
fn run_engine(
    inputs: &[Input],
    group_cols: &[usize],
    aggs: &[AggFn],
    capacity: usize,
    workers: usize,
) -> (Vec<Vec<Atom>>, Arc<AreaSet>) {
    let env = ExecEnv::new(Topology::nehalem_ex());
    let nodes = env.worker_sockets(workers);
    let slot = agg_slot();
    let sink = AggPartialSink::with_capacity(
        group_cols.to_vec(),
        aggs.to_vec(),
        &nodes,
        slot.clone(),
        capacity,
    );
    for (i, (batch, sel)) in inputs.iter().enumerate() {
        let input = SelBatch {
            batch: batch.clone(),
            sel: sel.clone(),
        };
        sink.consume(&mut TaskContext::new(&env, i % workers), input);
    }
    sink.finish(&mut TaskContext::new(&env, 0));
    let parts = slot
        .lock()
        .take()
        .expect("phase 1 hands its partitions over");
    let fields: Vec<(String, DataType)> = group_cols
        .iter()
        .map(|&c| match inputs.first().map(|(b, _)| b.column(c)) {
            Some(Column::I32(_)) => DataType::I32,
            Some(Column::F64(_)) => DataType::F64,
            Some(Column::Str(_) | Column::Dict(_)) => DataType::Str,
            Some(Column::I64(_)) | None => DataType::I64,
        })
        .chain(aggs.iter().map(AggFn::output_type))
        .enumerate()
        .map(|(i, t)| (format!("c{i}"), t))
        .collect();
    let schema = Schema::new(fields.iter().map(|(n, t)| (n.as_str(), *t)).collect());
    let (out, result) = (area_slot(), result_slot());
    let job = AggMergeJob::new(
        parts.clone(),
        aggs.to_vec(),
        schema,
        &nodes,
        out.clone(),
        Some(result.clone()),
    );
    for p in (0..N_PARTITIONS).filter(|&p| parts.partition_rows(p) > 0) {
        let morsel = Morsel {
            chunk: p,
            range: 0..parts.partition_rows(p),
        };
        job.run_morsel(&mut TaskContext::new(&env, p % workers), morsel);
    }
    job.finish(&mut TaskContext::new(&env, 0));
    let rows = agg_reference::sorted_atoms(&result.lock().take().expect("a result batch"));
    let areas = out.lock().take().expect("output areas");
    (rows, areas)
}

/// Engine == oracle for one configuration; dictionary group columns must
/// come back encoded against the very dictionary they arrived with.
fn check(inputs: &[Input], group_cols: &[usize], aggs: &[AggFn], capacity: usize, workers: usize) {
    let context =
        format!("groups {group_cols:?} aggs {aggs:?} capacity {capacity} workers {workers}");
    let want = agg_reference::group_by(inputs, group_cols, aggs);
    let (got, areas) = run_engine(inputs, group_cols, aggs, capacity, workers);
    assert_eq!(got, want, "{context}");
    for (i, &c) in group_cols.iter().enumerate() {
        let Some(Column::Dict(input)) = inputs.first().map(|(b, _)| b.column(c)) else {
            continue;
        };
        for area in areas.areas() {
            let emitted = area.data().column(i).as_dict();
            assert!(
                emitted.is_some_and(|d| Arc::ptr_eq(d.dict(), input.dict())),
                "group column {i} left its dictionary: {context}"
            );
        }
    }
}

const I32S: [i32; 7] = [i32::MIN, i32::MAX, -1, 0, 1, 2, 3];
const I64S: [i64; 8] = [i64::MIN, i64::MAX, -1, 0, 1, 2, 1 << 32, (1 << 32) + 1];
const STRS: [&str; 10] = [
    "",
    "a",
    "ab",
    "c",
    "bc",
    "a\0",
    "\0a",
    "\0",
    "abc",
    "a string long enough to cross a few words of the arena",
];
const WORDS: [&str; 5] = ["AIR", "MAIL", "RAIL", "SHIP", "TRUCK"];

fn f64s() -> [f64; 7] {
    let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 0x8000_0000_0000_0001);
    [0.0, -0.0, f64::NAN, other_nan, 1.5, -1.5, f64::INFINITY]
}

struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }

    /// `n` draws from a domain of `d` values, either independent or in
    /// runs of the same value (clustered input).
    fn draws(&mut self, n: usize, d: usize, clustered: bool) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (v, run) = (self.below(d), if clustered { 1 + self.below(5) } else { 1 });
            out.extend(std::iter::repeat_n(v, run.min(n - out.len())));
        }
        out
    }

    /// A group column of kind `kind % 5` over `n` rows.
    fn group_column(
        &mut self,
        kind: usize,
        n: usize,
        dict: &Arc<Dictionary>,
        clustered: bool,
    ) -> Column {
        let pick = |g: &mut Gen, d: usize| g.draws(n, d, clustered);
        match kind % 5 {
            0 => Column::I32(pick(self, 7).into_iter().map(|i| I32S[i]).collect()),
            1 => Column::I64(pick(self, 8).into_iter().map(|i| I64S[i]).collect()),
            2 => Column::F64(pick(self, 7).into_iter().map(|i| f64s()[i]).collect()),
            3 => Column::Str(
                pick(self, 10)
                    .into_iter()
                    .map(|i| STRS[i].to_owned())
                    .collect(),
            ),
            _ => Column::Dict(DictColumn::new(
                Arc::clone(dict),
                pick(self, 5).into_iter().map(|i| i as u32).collect(),
            )),
        }
    }

    /// Group columns `kinds`, then an `I64`, an `I32` and an `F64` payload
    /// (quarters, so that float sums are exact in any order).
    fn batch(
        &mut self,
        kinds: &[usize],
        n: usize,
        dict: &Arc<Dictionary>,
        clustered: bool,
    ) -> Batch {
        let mut cols: Vec<Column> = kinds
            .iter()
            .map(|&k| self.group_column(k, n, dict, clustered))
            .collect();
        cols.push(Column::I64(
            (0..n).map(|_| self.below(101) as i64 - 50).collect(),
        ));
        cols.push(Column::I32(
            (0..n).map(|_| self.below(41) as i32 - 20).collect(),
        ));
        cols.push(Column::F64(
            (0..n)
                .map(|_| (self.below(401) as f64 - 200.0) / 4.0)
                .collect(),
        ));
        Batch::from_columns(cols)
    }

    fn selection(&mut self, n: usize) -> Option<Vec<u32>> {
        match self.below(4) {
            0 => None,
            1 => Some(Vec::new()),
            2 => Some((0..n as u32).filter(|_| self.below(10) == 0).collect()),
            _ => Some((0..n as u32).filter(|_| self.below(3) > 0).collect()),
        }
    }
}

/// Every aggregate function, over the `I64` (`g`) and `I32` (`g + 1`)
/// payloads; `SumF64` over the `F64` one (`g + 2`).
fn all_aggs(g: usize) -> Vec<AggFn> {
    vec![
        AggFn::Count,
        AggFn::SumI64(g),
        AggFn::SumI64(g + 1),
        AggFn::SumF64(g + 2),
        AggFn::MinI64(g),
        AggFn::MaxI64(g + 1),
        AggFn::AvgI64(g),
        AggFn::AvgI64(g + 1),
        AggFn::CountDistinctI64(g),
        AggFn::CountDistinctI64(g + 1),
        AggFn::MaxI64(g),
        AggFn::MinI64(g + 1),
    ]
}

#[test]
fn engine_matches_the_reference_on_seeded_inputs() {
    const CASES: u64 = 288;
    for case in 0..CASES {
        let mut g = Gen(TestRng::for_case("agg_equivalence", case));
        let dict = Dictionary::from_values(WORDS.iter().copied());
        // Every eighth case groups by two adjacent strings, every ninth by
        // nothing; the rest by 1–7 columns of random kinds.
        let kinds: Vec<usize> = match case {
            c if c % 8 == 0 => vec![3, 3],
            c if c % 9 == 0 => vec![],
            _ => (0..1 + g.below(7)).map(|_| g.below(5)).collect(),
        };
        let clustered = case % 3 == 0;
        let n_groups = kinds.len();
        let inputs: Vec<Input> = (0..1 + g.below(4))
            .map(|_| {
                let n = g.below(700);
                (g.batch(&kinds, n, &dict, clustered), g.selection(n))
            })
            .collect();
        let pool = all_aggs(n_groups);
        let aggs: Vec<AggFn> = if case % 4 == 0 {
            pool
        } else {
            (0..1 + g.below(5))
                .map(|_| pool[g.below(pool.len())])
                .collect()
        };
        let group_cols: Vec<usize> = (0..n_groups).collect();
        let capacity = [1, 2, 70, 4096][case as usize % 4];
        let workers = if case % 2 == 0 { 1 } else { 4 };
        check(&inputs, &group_cols, &aggs, capacity, workers);
    }
}

#[test]
fn adjacent_strings_keep_their_boundaries() {
    let s = |v: &[&str]| Column::Str(v.iter().map(|s| (*s).to_owned()).collect());
    let batch = Batch::from_columns(vec![
        s(&["ab", "a", "ab", "", "a\0", "a"]),
        s(&["c", "bc", "c", "abc", "", "\0"]),
        Column::I64(vec![1, 2, 4, 8, 16, 32]),
    ]);
    let inputs = [(batch, None)];
    for capacity in [1, 4096] {
        let (rows, _) = run_engine(&inputs, &[0, 1], &[AggFn::SumI64(2)], capacity, 1);
        assert_eq!(rows.len(), 5, "five distinct pairs");
        check(&inputs, &[0, 1], &[AggFn::SumI64(2)], capacity, 1);
    }
}

#[test]
fn keys_sharing_their_hash_tag_stay_apart() {
    // The group table compares the high 32 bits of the hash before the
    // key. Find integer keys agreeing on them (a birthday search; the low
    // bits then decide only where in the table they meet) and group by
    // them: an engine that stops at the hash merges the colliding keys.
    let mut by_tag = std::collections::HashMap::new();
    let mut colliding: Vec<i64> = Vec::new();
    for key in 0..600_000i64 {
        if let Some(earlier) = by_tag.insert(hash_i64(key) >> 32, key) {
            colliding.extend([earlier, key]);
        }
    }
    assert!(
        colliding.len() >= 8,
        "the search found too few collisions to test anything"
    );
    let rows = colliding.len() * 3;
    let batch = Batch::from_columns(vec![
        Column::I64((0..rows).map(|i| colliding[i % colliding.len()]).collect()),
        Column::I64((0..rows as i64).collect()),
    ]);
    let inputs = [(batch, None)];
    for capacity in [1, 2, 4096] {
        check(
            &inputs,
            &[0],
            &[AggFn::Count, AggFn::SumI64(1)],
            capacity,
            1,
        );
    }
}

#[test]
fn clustered_keys_through_flushes() {
    // Runs of 1–6 equal keys, in batches whose boundaries fall inside
    // runs. A batch arms the last-row shortcut when it meets a table of 64
    // groups and up, and keeps it armed through the flushes inside it
    // (every 70 or 200 new keys); the key after a flush often repeats.
    let mut g = Gen(TestRng::for_case("clustered", 0));
    for keys in [300usize, 5_000] {
        let runs = g.draws(6_000, keys, true);
        let batch = Batch::from_columns(vec![
            Column::I64(runs.iter().map(|&k| (k / 2) as i64).collect()),
            Column::I32(runs.iter().map(|&k| (k % 2) as i32).collect()),
            Column::I64((0..6_000).collect()),
        ]);
        let cuts = [0u32, 700, 701, 1_500, 2_300, 3_100, 4_097, 5_000, 6_000];
        let inputs: Vec<Input> = cuts
            .windows(2)
            .map(|c| (batch.clone(), Some((c[0]..c[1]).collect())))
            .collect();
        let aggs = [
            AggFn::Count,
            AggFn::SumI64(2),
            AggFn::MinI64(2),
            AggFn::AvgI64(2),
        ];
        for (capacity, workers) in [(70, 1), (70, 4), (200, 1), (4096, 1), (64, 1)] {
            check(&inputs, &[0, 1], &aggs, capacity, workers);
        }
    }
}
