//! Chains of snapshots and merges over a write-path relation: random
//! partition sequences of 1–300 partitions — empty ones, plain strings,
//! dictionary codes over the relation's dictionary or over another one —
//! then random edits chained the way the write path chains them
//! (`DeltaStore::snapshot` and `DeltaStore::merge` take the previous
//! snapshot):
//!
//! - **replace k**: one base row dies in each of k partitions, which the
//!   snapshot re-materialises;
//! - **append**: committed inserts grow the delta partition; a value
//!   outside a coded column's dictionary first rebases the base, as the
//!   commit that brings it does in `morsel-txn`;
//! - **shrink the right edge**: every visible delta row dies, so the
//!   delta partition drops off the end;
//! - **fold into the tail**: a merge appends its rows, or folds them into
//!   the partition an earlier merge appended.
//!
//! After every edit each partition stores each column in the relation's
//! one `Encoding`, and `Relation::stats()` counts the relation's rows and
//! equals the statistics filled over one batch holding all its partitions
//! in order. Some merge must fold into a tail.

use std::sync::Arc;

use morsel_numa::SocketId;
use morsel_storage::{
    delta_row_id, rebased, Batch, Column, DataType, DeltaStore, DictColumn, Dictionary, Partition,
    Relation, Schema, TableStats, Value,
};
use proptest::prelude::*;

/// Deterministic draws from one case's seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n.max(1) as u64) as usize
    }
}

fn schema() -> Schema {
    Schema::new(vec![
        ("k", DataType::I64),
        ("x", DataType::F64),
        ("a", DataType::Str),
        ("b", DataType::Str),
    ])
}

const A_VALUES: [&str; 6] = ["a0", "a1", "a2", "a3", "a4", "a5"];
const B_VALUES: [&str; 4] = ["b0", "b1", "b2", "b3"];
const X_VALUES: [f64; 6] = [0.0, -0.0, 1.5, -2.25, 1e9, 7.0];

/// The dictionaries fragments draw from. Column `a` is plain in the first
/// partition and any mix elsewhere; column `b` is encoded everywhere, over
/// the relation's dictionary or, in some fragments, an equal but distinct
/// one. Wherever the relation's constructor settles on a dictionary, it
/// holds only the values the fragments hold: an inserted value outside it
/// (`a`'s always are) takes the write path's rebase before any snapshot
/// sees it ([`with_values_of`]).
struct Dicts {
    a: [Arc<Dictionary>; 2],
    b: Arc<Dictionary>,
    b_other: Arc<Dictionary>,
}

impl Dicts {
    fn new() -> Self {
        Dicts {
            a: [
                Dictionary::from_values(A_VALUES),
                Dictionary::from_values(A_VALUES),
            ],
            b: Dictionary::from_values(B_VALUES),
            b_other: Dictionary::from_values(B_VALUES),
        }
    }
}

fn encoded(dict: &Arc<Dictionary>, values: &[String]) -> Column {
    Column::Dict(DictColumn::encode(dict, values).expect("values from the dictionary's domain"))
}

fn fragment(draw: &mut Draw, dicts: &Dicts, first: bool) -> Batch {
    let rows = if draw.below(5) == 0 {
        0
    } else {
        1 + draw.below(12)
    };
    let k = (0..rows).map(|_| draw.below(1_000) as i64 - 500).collect();
    let x = (0..rows).map(|_| X_VALUES[draw.below(6)]).collect();
    let a: Vec<String> = (0..rows)
        .map(|_| A_VALUES[draw.below(6)].to_owned())
        .collect();
    let b: Vec<String> = (0..rows)
        .map(|_| B_VALUES[draw.below(4)].to_owned())
        .collect();
    let a = match if first { 0 } else { draw.below(3) } {
        0 => Column::Str(a.iter().collect()),
        i => encoded(&dicts.a[i - 1], &a),
    };
    let b_dict = if !first && draw.below(6) == 0 {
        &dicts.b_other
    } else {
        &dicts.b
    };
    Batch::from_columns(vec![Column::I64(k), Column::F64(x), a, encoded(b_dict, &b)])
}

fn insert_row(draw: &mut Draw) -> Vec<Value> {
    vec![
        Value::I64(draw.below(2_000) as i64 - 1_000),
        Value::F64(X_VALUES[draw.below(6)]),
        // Outside `a`'s dictionaries: a coded `a` is rebased.
        Value::Str(format!("new{}", draw.below(50))),
        Value::Str(B_VALUES[draw.below(4)].to_owned()),
    ]
}

/// `base` rebased on the values of `rows` its dictionaries lack, as the
/// commit that brings them rebases it before applying them.
fn with_values_of(base: Relation, rows: &[Vec<Value>]) -> Relation {
    let fresh: Vec<(usize, String)> = (rows.iter())
        .flat_map(|row| row.iter().enumerate())
        .filter_map(|(c, v)| match (base.encoding(c).dict(), v) {
            (Some(dict), Value::Str(s)) if dict.code_of(s).is_none() => Some((c, s.clone())),
            _ => None,
        })
        .collect();
    if fresh.is_empty() {
        base
    } else {
        rebased(&base, &fresh)
    }
}

/// Every partition of `rel` stores each column in the relation's encoding,
/// and `rel.stats()` covers all of its rows and partitions: it equals the
/// statistics of their concatenation.
fn assert_consistent(rel: &Relation, what: &str) {
    for c in 0..rel.schema().len() {
        let stored = |p: &Partition| rel.encoding(c).stores(p.data.column(c));
        assert!(rel.partitions().iter().all(stored), "{what}: column {c}");
    }
    let got = rel.stats();
    assert_eq!(got.rows, rel.total_rows() as u64, "{what}");
    let mut whole = Batch::empty_as(&rel.schema().data_types(), rel.encodings());
    for p in rel.partitions() {
        whole.extend_from(&p.data);
    }
    let want = TableStats::from_partitions(std::iter::once(&whole));
    assert!(*got == want, "{what}: statistics of all partitions");
}

/// Kill the first live base row of `partition`, if it has one.
fn kill_one(delta: &mut DeltaStore, base: &Relation, partition: usize, ts: u64) {
    let start: usize = (base.partitions()[..partition].iter())
        .map(|p| p.data.rows())
        .sum();
    let rows = base.partition(partition).data.rows();
    if let Some(id) = (start..start + rows)
        .map(|i| i as u64)
        .find(|&id| delta.visible(id, ts))
    {
        delta.apply_delete(id, ts);
    }
}

/// Runs `edits` random edits; returns how many merges folded their rows
/// into an earlier merge's tail instead of appending a partition.
fn run(parts: usize, seed: u64, edits: usize) -> usize {
    let mut draw = Draw(seed);
    let dicts = Dicts::new();
    let partitions = (0..parts)
        .map(|i| {
            let node = SocketId((i % 4) as u16);
            Partition::new(node, fragment(&mut draw, &dicts, i == 0))
        })
        .collect();
    let mut base = Relation::from_partitions(schema(), partitions);
    assert_consistent(&base, "initial");
    let mut delta = DeltaStore::new(schema());
    let mut prev: Option<Relation> = None;
    let mut ts = 0;
    let mut folds = 0;
    for step in 0..edits {
        ts += 1;
        let what = match draw.below(4) {
            0 => {
                for _ in 0..1 + draw.below(4) {
                    let p = draw.below(base.partitions().len());
                    kill_one(&mut delta, &base, p, ts);
                }
                "replace k"
            }
            1 => {
                let rows: Vec<_> = (0..1 + draw.below(6))
                    .map(|_| insert_row(&mut draw))
                    .collect();
                base = with_values_of(base, &rows);
                for row in rows {
                    delta.apply_insert(row, ts);
                }
                "append"
            }
            2 => {
                for i in 0..delta.delta_rows() {
                    if delta.visible(delta_row_id(i), ts) {
                        delta.apply_delete(delta_row_id(i), ts);
                    }
                }
                "shrink the right edge"
            }
            _ => {
                let (merged, next) = delta.merge(&base, ts, prev.as_ref());
                let appended = (0..delta.delta_rows()).any(|i| delta.visible(delta_row_id(i), ts));
                if appended && merged.partitions().len() == base.partitions().len() {
                    folds += 1;
                }
                assert_consistent(&merged, &format!("step {step}: fold into the tail"));
                (base, delta, prev) = (merged, next, None);
                continue;
            }
        };
        let snap = delta.snapshot(&base, ts, prev.as_ref());
        assert_consistent(&snap, &format!("step {step}: {what}"));
        prev = Some(snap);
    }
    folds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_snapshot_chain_keeps_encodings_and_statistics(parts in 1usize..=300, seed in any::<u64>()) {
        run(parts, seed, 12);
    }
}

/// What the random draw reaches only by chance: one partition, a load-time
/// table's 64, and long edit chains in which merges fold into a tail.
#[test]
fn long_snapshot_chains_fold_merges_into_a_tail() {
    let folds: usize = [1, 2, 9, 64, 65, 141]
        .into_iter()
        .map(|parts| run(parts, parts as u64, 30))
        .sum();
    assert!(folds > 0, "some merge folded into a tail");
}
