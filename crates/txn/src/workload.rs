//! Deterministic seeded write workloads, shared by the crash-recovery
//! sweep (`tests/recovery.rs`), `repro recovery_smoke` and `repro txn`.
//!
//! The workload is a single client stream whose operations are drawn
//! from the replayable [`Lcg`], **independent of database state**: the
//! `i`-th transaction issues the same operations no matter what
//! succeeded before it. That prefix-determinism is what makes the
//! crash-sweep oracle trivial — a run that acknowledged `k` commits
//! before dying must recover to exactly the state of a fresh run of
//! the first `k` transactions.

use crate::checker::Lcg;
use crate::db::TxnDb;
use morsel_exec::expr::{col, eq, lit};
use morsel_storage::Value;

/// Shape of a seeded single-stream workload over the `kv` table (from
/// [`crate::checker::kv_relation`]).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub seed: u64,
    /// Transactions to attempt (each commits independently).
    pub txns: usize,
    /// Pre-seeded key range of the `kv` table.
    pub keys: i64,
}

impl WorkloadSpec {
    pub fn new(seed: u64, txns: usize, keys: i64) -> Self {
        WorkloadSpec { seed, txns, keys }
    }
}

/// One drawn operation of the stream. The draw for transaction `i`
/// depends only on the rng position and `i` — never on database state —
/// so a crashed run and its oracle see identical streams.
enum Op {
    Insert { key: i64, val: i64 },
    Delete { key: i64 },
    Update { key: i64, val: i64 },
}

/// Draw transaction `i`'s operations, advancing `rng` by exactly the
/// same number of pulls whether or not the caller applies them.
fn draw_txn(rng: &mut Lcg, spec: &WorkloadSpec, i: usize) -> Vec<Op> {
    let nops = 1 + rng.below(2) as usize;
    (0..nops)
        .map(|j| {
            let roll = rng.below(6);
            let key = rng.below(spec.keys as u64) as i64;
            match roll {
                // Fresh key derived from (i, op) — unique by
                // construction, never colliding with the pre-seeded
                // range.
                0 => Op::Insert {
                    key: spec.keys + (i as i64) * 4 + j as i64,
                    val: ((i as i64) << 8) | j as i64,
                },
                1 => Op::Delete { key },
                _ => Op::Update {
                    key,
                    val: ((i as i64) << 8) | 0x40 | j as i64,
                },
            }
        })
        .collect()
}

/// Advance `rng` past transaction `i`'s draws without touching any
/// database — positions a continuation stream after a recovered prefix.
pub fn skip_step(rng: &mut Lcg, spec: &WorkloadSpec, i: usize) {
    let _ = draw_txn(rng, spec, i);
}

/// Run transaction `i` of the stream against `db`, drawing from `rng`
/// (which must be positioned at transaction `i`). Returns `true` when
/// the commit was acknowledged, `false` when the engine refused
/// (poisoned WAL after an injected crash).
pub fn run_step(db: &TxnDb, spec: &WorkloadSpec, rng: &mut Lcg, i: usize) -> bool {
    let ops = draw_txn(rng, spec, i);
    let mut txn = match db.begin() {
        Ok(t) => t,
        Err(_) => return false,
    };
    for op in &ops {
        let result = match op {
            Op::Insert { key, val } => db
                .insert(&mut txn, "kv", vec![Value::I64(*key), Value::I64(*val)])
                .map(|()| 1),
            Op::Delete { key } => db.delete_where(&mut txn, "kv", &eq(col(0), lit(*key))),
            Op::Update { key, val } => db.update_where(
                &mut txn,
                "kv",
                &eq(col(0), lit(*key)),
                &[(1, Value::I64(*val))],
            ),
        };
        if result.is_err() {
            db.abort(txn);
            return false;
        }
    }
    db.commit(txn).is_ok()
}

/// Run the first `limit` transactions of the workload against `db`,
/// committing each. Returns the number of acknowledged commits; stops
/// early when the engine refuses (poisoned WAL after an injected
/// crash). Pass `limit = spec.txns` for the full workload.
///
/// Transaction `i` draws 1–2 operations: updates (most common),
/// deletes of a random pre-seeded key, and inserts of a fresh key
/// derived from `(i, op)` — unique by construction, never colliding
/// with the pre-seeded range.
pub fn run_seeded(db: &TxnDb, spec: &WorkloadSpec, limit: usize) -> usize {
    let mut rng = Lcg(spec.seed);
    let mut acked = 0usize;
    for i in 0..spec.txns.min(limit) {
        if !run_step(db, spec, &mut rng, i) {
            return acked;
        }
        acked += 1;
    }
    acked
}

/// Assert two databases have identical committed logical state, table
/// by table and row by row. Returns a description of the first
/// difference instead of panicking, so callers (CI smoke) can attach
/// artifacts before failing.
pub fn diff_logical_state(a: &TxnDb, b: &TxnDb) -> Option<String> {
    let (sa, sb) = (a.logical_state(), b.logical_state());
    if sa.len() != sb.len() {
        return Some(format!("table count {} vs {}", sa.len(), sb.len()));
    }
    for ((na, ba), (nb, bb)) in sa.iter().zip(&sb) {
        if na != nb {
            return Some(format!("table name {na:?} vs {nb:?}"));
        }
        if ba.rows() != bb.rows() {
            return Some(format!("{na}: {} rows vs {}", ba.rows(), bb.rows()));
        }
        for i in 0..ba.rows() {
            if ba.row(i) != bb.row(i) {
                return Some(format!("{na} row {i}: {:?} vs {:?}", ba.row(i), bb.row(i)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::kv_relation;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "morsel-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn workload_is_replayable_and_prefix_deterministic() {
        let spec = WorkloadSpec::new(7, 20, 8);
        let (d1, d2, d3) = (tmpdir("wk-a"), tmpdir("wk-b"), tmpdir("wk-c"));
        let a = TxnDb::create(&d1, vec![("kv", kv_relation(8))]).unwrap();
        let b = TxnDb::create(&d2, vec![("kv", kv_relation(8))]).unwrap();
        assert_eq!(run_seeded(&a, &spec, spec.txns), 20);
        assert_eq!(run_seeded(&b, &spec, spec.txns), 20);
        assert_eq!(diff_logical_state(&a, &b), None, "same seed, same state");

        // A prefix run matches the full run up to its commit count —
        // the property the crash sweep's oracle relies on.
        let c = TxnDb::create(&d3, vec![("kv", kv_relation(8))]).unwrap();
        assert_eq!(run_seeded(&c, &spec, 11), 11);
        assert!(
            diff_logical_state(&a, &c).is_some(),
            "prefix differs from the full run"
        );
        for d in [d1, d2, d3] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn diff_reports_the_first_divergence() {
        let (d1, d2) = (tmpdir("diff-a"), tmpdir("diff-b"));
        let a = TxnDb::create(&d1, vec![("kv", kv_relation(4))]).unwrap();
        let b = TxnDb::create(&d2, vec![("kv", kv_relation(4))]).unwrap();
        assert_eq!(diff_logical_state(&a, &b), None);
        let mut t = a.begin().unwrap();
        a.update_where(&mut t, "kv", &eq(col(0), lit(1)), &[(1, Value::I64(9))])
            .unwrap();
        a.commit(t).unwrap();
        let d = diff_logical_state(&a, &b).expect("states differ");
        assert!(d.contains("kv"), "{d}");
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }
}
