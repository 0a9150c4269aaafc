//! The join oracle: a nested loop over decoded values, one probe row
//! against every build row. It shares no code with `morsel_exec::join`,
//! `ht` or `key` — no hashing, no directory, no chains, no candidate
//! lists, no selection vectors — which is what lets it check the probe.
//! Included with `#[path]`; the includer brings `JoinKind` into scope.

use morsel_storage::{Batch, Value};

use super::JoinKind;

/// SQL equality of two key values: integers by value whatever their
/// width, floats by `==` (`0.0 = -0.0`, NaN equals nothing, itself
/// included), strings by their characters however they are encoded.
fn key_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::I32(_) | Value::I64(_), Value::I32(_) | Value::I64(_)) => a.as_i64() == b.as_i64(),
        _ => panic!("incomparable join keys {a:?} and {b:?}"),
    }
}

/// What a join produces: its output rows, in no promised order, and the
/// build rows no live probe row matched.
pub struct Joined {
    pub rows: Vec<Vec<Value>>,
    pub unmatched_build: Vec<usize>,
}

/// `probe[live] ⋈ build` on `probe_keys = build_keys`: every probe column,
/// then `build_cols` per match (`Inner`/`InnerMark`), nothing (`Semi`: rows
/// with a match, once; `Anti`: rows without), or the number of matches
/// (`Count`: every live row, zero included).
pub fn join(
    (probe, live): (&Batch, &[usize]),
    probe_keys: &[usize],
    build: &Batch,
    build_keys: &[usize],
    build_cols: &[usize],
    kind: JoinKind,
) -> Joined {
    let (probe, build) = (probe.decoded(), build.decoded());
    let build_rows: Vec<Vec<Value>> = (0..build.rows()).map(|b| build.row(b)).collect();
    let mut matched = vec![false; build_rows.len()];
    let mut rows = Vec::new();
    for &p in live {
        let row = probe.row(p);
        let hits: Vec<usize> = (0..build_rows.len())
            .filter(|&b| {
                let keys = probe_keys.iter().zip(build_keys);
                keys.into_iter()
                    .all(|(&pk, &bk)| key_eq(&row[pk], &build_rows[b][bk]))
            })
            .collect();
        match kind {
            JoinKind::Inner | JoinKind::InnerMark => {
                for &b in &hits {
                    matched[b] = true;
                    let payload = build_cols.iter().map(|&c| build_rows[b][c].clone());
                    rows.push(row.iter().cloned().chain(payload).collect());
                }
            }
            JoinKind::Semi if !hits.is_empty() => rows.push(row),
            JoinKind::Anti if hits.is_empty() => rows.push(row),
            JoinKind::Semi | JoinKind::Anti => {}
            JoinKind::Count => {
                let n = Value::I64(hits.len() as i64);
                rows.push(row.into_iter().chain([n]).collect());
            }
        }
    }
    let unmatched_build = (0..matched.len()).filter(|&b| !matched[b]).collect();
    Joined {
        rows,
        unmatched_build,
    }
}

/// Rows as sorted text: `Value` has no total order (floats), its `Debug`
/// form does, and it keeps `I32(1)` apart from `I64(1)` and `-0.0` from
/// `0.0` — an output column of the wrong type or sign is a difference.
pub fn sorted(rows: impl IntoIterator<Item = Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}
