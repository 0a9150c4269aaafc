//! The group-by oracle: a `BTreeMap` from decoded key rows to one
//! accumulator per aggregate, fed row at a time. It shares no code with
//! `morsel_exec::agg` — no hashing, no key packing, no partitions, no
//! partial states — which is what lets it check the engine. Included with
//! `#[path]` by the engine's unit tests and the equivalence suites; the
//! includer brings `AggFn` into scope.

use std::collections::{BTreeMap, BTreeSet};

use morsel_storage::{Batch, Value};

use super::AggFn;

/// A result value with a total order. Float keys group by value: `-0.0`
/// with `0.0`, every NaN with every other.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Atom {
    I32(i32),
    I64(i64),
    F64(u64),
    Str(String),
}

pub fn atom(v: &Value) -> Atom {
    match v {
        Value::I32(x) => Atom::I32(*x),
        Value::I64(x) => Atom::I64(*x),
        Value::F64(x) if *x == 0.0 => Atom::F64(0f64.to_bits()),
        Value::F64(x) if x.is_nan() => Atom::F64(f64::NAN.to_bits()),
        Value::F64(x) => Atom::F64(x.to_bits()),
        Value::Str(s) => Atom::Str(s.clone()),
    }
}

/// The rows of `batch` as sorted atom rows.
pub fn sorted_atoms(batch: &Batch) -> Vec<Vec<Atom>> {
    let batch = batch.decoded();
    let mut rows: Vec<Vec<Atom>> = (0..batch.rows())
        .map(|r| batch.row(r).iter().map(atom).collect())
        .collect();
    rows.sort();
    rows
}

#[derive(Clone)]
struct Acc {
    n: i64,
    sum: i64,
    fsum: f64,
    min: i64,
    max: i64,
    seen: BTreeSet<i64>,
}

/// `SELECT group_cols, aggs FROM inputs GROUP BY group_cols`, sorted; an
/// input is a batch and the rows of it that count (`None`: all).
pub fn group_by(
    inputs: &[(Batch, Option<Vec<u32>>)],
    group_cols: &[usize],
    aggs: &[AggFn],
) -> Vec<Vec<Atom>> {
    let fresh = Acc {
        n: 0,
        sum: 0,
        fsum: 0.0,
        min: i64::MAX,
        max: i64::MIN,
        seen: BTreeSet::new(),
    };
    let mut groups: BTreeMap<Vec<Atom>, Vec<Acc>> = BTreeMap::new();
    for (batch, sel) in inputs {
        let batch = batch.decoded();
        let all: Vec<u32> = (0..batch.rows() as u32).collect();
        for &r in sel.as_ref().unwrap_or(&all) {
            let row = batch.row(r as usize);
            let key = group_cols.iter().map(|&c| atom(&row[c])).collect();
            let accs = groups
                .entry(key)
                .or_insert_with(|| vec![fresh.clone(); aggs.len()]);
            for (f, a) in aggs.iter().zip(accs) {
                a.n += 1;
                match *f {
                    AggFn::Count => {}
                    AggFn::SumF64(c) => a.fsum += row[c].as_f64(),
                    AggFn::SumI64(c)
                    | AggFn::MinI64(c)
                    | AggFn::MaxI64(c)
                    | AggFn::AvgI64(c)
                    | AggFn::CountDistinctI64(c) => {
                        let x = row[c].as_i64();
                        a.sum += x;
                        a.min = a.min.min(x);
                        a.max = a.max.max(x);
                        a.seen.insert(x);
                    }
                }
            }
        }
    }
    groups
        .into_iter()
        .map(|(mut row, accs)| {
            row.extend(aggs.iter().zip(accs).map(|(f, a)| match f {
                AggFn::Count => Atom::I64(a.n),
                AggFn::SumI64(_) => Atom::I64(a.sum),
                AggFn::SumF64(_) => atom(&Value::F64(a.fsum)),
                AggFn::MinI64(_) => Atom::I64(a.min),
                AggFn::MaxI64(_) => Atom::I64(a.max),
                AggFn::AvgI64(_) => atom(&Value::F64(a.sum as f64 / a.n as f64)),
                AggFn::CountDistinctI64(_) => Atom::I64(a.seen.len() as i64),
            }));
            row
        })
        .collect()
}
