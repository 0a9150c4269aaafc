//! Black-box snapshot-isolation checking over generated concurrent
//! histories (after "Efficient Black-box Checking of Snapshot
//! Isolation in Databases", arXiv 2301.07313).
//!
//! The checker sees only what a client sees: per transaction, the
//! interleaved sequence of reads (key, value observed) and writes
//! (key, unique value), the real-time order of begin/commit events (a
//! shared atomic counter stamped when `begin` returns and when the
//! commit acknowledgment arrives), and the commit timestamp the engine
//! returns — used purely to order committed transactions, never to
//! infer visibility. Every write value is unique across the history
//! (writer id ⊕ sequence number), so observing a value identifies its
//! writer — the standard trick that makes black-box checking
//! tractable.
//!
//! **The check.** Order committed transactions `C[0..n]` by commit
//! timestamp (acknowledgment order breaks ties). Snapshot isolation
//! holds for transaction `T` at position `i` iff there exists a
//! snapshot point `p ∈ [0, i]` — "the first `p` transactions of `C`
//! are visible" — such that
//!
//! 1. *read consistency*: each of `T`'s reads observed exactly the
//!    value the last visible writer of that key installed (an interval
//!    constraint on `p` per read),
//! 2. *real time*: every transaction acknowledged before `T` began is
//!    visible (`p` lower bound),
//! 3. *no lost update*: every committed transaction before `T` whose
//!    write set overlaps `T`'s is visible (`p` lower bound — first
//!    committer wins makes this constraint *monotone* in `p`, which is
//!    why intersecting intervals is a complete decision procedure, not
//!    a heuristic).
//!
//! The constraints intersect to `[lo, hi]`; `lo > hi` is an SI
//! violation and the offending transaction plus the binding
//! constraints are reported. Reads of values written by aborted or
//! never-committed transactions, and reads that miss the transaction's
//! own earlier writes, are reported directly.
//!
//! Histories are generated from a seeded LCG (replayable from the seed
//! alone) and executed by concurrent client threads against a real
//! [`TxnDb`]; each *read* runs a full scan query through either the
//! deterministic [`SimExecutor`](morsel_core::SimExecutor) or the
//! 4-worker [`ThreadedExecutor`](morsel_core::ThreadedExecutor), so
//! the check covers the whole read path, not a shortcut accessor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use morsel_core::ExecEnv;
use morsel_exec::expr::{col, eq, lit};
use morsel_exec::{Plan, SystemVariant};
use morsel_numa::{Placement, Topology};
use morsel_queries::{run_sim, run_threaded};
use morsel_storage::{Batch, Column, PartitionBy, Relation, Schema, Value};

use crate::db::{TxnDb, TxnError};

/// Which executor serves the history's reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Deterministic simulator.
    Sim,
    /// Real threads, this many workers.
    Threaded(usize),
}

/// Shape of a generated history.
#[derive(Debug, Clone, Copy)]
pub struct HistorySpec {
    pub seed: u64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Transactions per client.
    pub txns_per_client: usize,
    /// Keys in the `kv` table (pre-seeded with value 0).
    pub keys: i64,
    /// Operations per transaction.
    pub ops_per_txn: usize,
}

impl HistorySpec {
    pub fn small(seed: u64) -> Self {
        HistorySpec {
            seed,
            clients: 3,
            txns_per_client: 3,
            keys: 4,
            ops_per_txn: 3,
        }
    }
}

/// One client-observed operation, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum Ev {
    Read { key: i64, val: i64 },
    Write { key: i64, val: i64 },
}

/// One transaction as the client experienced it.
#[derive(Debug, Clone)]
pub struct TxnRec {
    pub id: u64,
    /// Event-counter stamp when `begin` returned.
    pub begin_ev: u64,
    /// Event-counter stamp when the commit was acknowledged (or the
    /// abort returned).
    pub end_ev: u64,
    /// Commit timestamp the engine acknowledged with, if committed.
    pub commit_ts: Option<u64>,
    pub committed: bool,
    pub events: Vec<Ev>,
}

/// A complete client-side history.
#[derive(Debug, Clone, Default)]
pub struct History {
    pub txns: Vec<TxnRec>,
}

/// Sentinel recorded when a read found no row for its key (itself an
/// invariant violation — keys are pre-seeded and never deleted).
pub const MISSING_ROW: i64 = i64::MIN;

/// Value initially installed for every key.
pub const INITIAL_VAL: i64 = 0;

/// Build the checker's `kv` table: `keys` rows of `(key, val=0)`,
/// hash-partitioned like any other base relation.
pub fn kv_relation(keys: i64) -> Arc<Relation> {
    let schema = Schema::new(vec![
        ("key", morsel_storage::DataType::I64),
        ("val", morsel_storage::DataType::I64),
    ]);
    let data = Batch::from_columns(vec![
        Column::I64((0..keys).collect()),
        Column::I64(vec![INITIAL_VAL; keys as usize]),
    ]);
    Arc::new(Relation::partitioned(
        schema,
        &data,
        PartitionBy::Hash { column: 0 },
        2,
        Placement::FirstTouch,
        &Topology::laptop(),
    ))
}

/// Minimal LCG (Knuth's MMIX constants): replayable randomness without
/// any external crate.
pub struct Lcg(pub u64);

impl Lcg {
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Unique write value: writer transaction id in the high bits, its
/// per-transaction sequence number in the low bits.
fn unique_val(txn_id: u64, seq: u32) -> i64 {
    ((txn_id << 16) | u64::from(seq)) as i64
}

/// Execute one scan of `key` through the chosen executor and return
/// the observed value.
fn read_key(env: &ExecEnv, db: &TxnDb, txn: &crate::db::Txn, key: i64, mode: ExecMode) -> i64 {
    let rel = db
        .relation_for(txn, "kv")
        .expect("kv table exists and db is healthy");
    let plan = Plan::scan(rel, Some(eq(col(0), lit(key))), &["val"]);
    let name = format!("si-read-t{}-k{key}", txn.id);
    let out = match mode {
        ExecMode::Sim => run_sim(env, &name, plan, SystemVariant::full(), 2, 256),
        ExecMode::Threaded(w) => run_threaded(env, &name, plan, SystemVariant::full(), w, 256),
    };
    if out.result.rows() == 0 {
        MISSING_ROW
    } else {
        out.result.column(0).as_i64()[0]
    }
}

/// Run a generated history against `db` with `spec.clients` concurrent
/// client threads. The database must contain the `kv` table from
/// [`kv_relation`] with at least `spec.keys` keys.
pub fn run_history(db: &TxnDb, spec: &HistorySpec, mode: ExecMode) -> History {
    let env = ExecEnv::new(Topology::laptop());
    let events = AtomicU64::new(0);
    let recs: Vec<TxnRec> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..spec.clients {
            let env = &env;
            let events = &events;
            handles.push(scope.spawn(move || {
                let mut rng =
                    Lcg(spec.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1)));
                let mut out = Vec::new();
                for _ in 0..spec.txns_per_client {
                    // Stamped before the call: a commit acknowledged while
                    // `begin` was taking its snapshot was not acknowledged
                    // *before* this transaction began, and the snapshot
                    // need not contain it.
                    let begin_ev = events.fetch_add(1, Ordering::SeqCst);
                    let mut txn = match db.begin() {
                        Ok(t) => t,
                        Err(_) => break,
                    };
                    let id = txn.id;
                    let mut evs = Vec::new();
                    let mut seq = 0u32;
                    let mut failed = false;
                    for _ in 0..spec.ops_per_txn {
                        let key = rng.below(spec.keys as u64) as i64;
                        if rng.below(2) == 0 {
                            let val = read_key(env, db, &txn, key, mode);
                            evs.push(Ev::Read { key, val });
                        } else {
                            seq += 1;
                            let val = unique_val(id, seq);
                            match db.update_where(
                                &mut txn,
                                "kv",
                                &eq(col(0), lit(key)),
                                &[(1, Value::I64(val))],
                            ) {
                                Ok(n) if n > 0 => evs.push(Ev::Write { key, val }),
                                Ok(_) => {}
                                Err(_) => {
                                    failed = true;
                                    break;
                                }
                            }
                        }
                    }
                    // ~1 in 8 transactions aborts voluntarily; the rest
                    // try to commit (and may conflict-abort).
                    let deliberate_abort = rng.below(8) == 0;
                    let (committed, commit_ts) = if failed || deliberate_abort {
                        db.abort(txn);
                        (false, None)
                    } else {
                        match db.commit(txn) {
                            Ok(ts) => (true, Some(ts)),
                            Err(TxnError::Conflict(_)) => (false, None),
                            Err(_) => (false, None),
                        }
                    };
                    let end_ev = events.fetch_add(1, Ordering::SeqCst);
                    out.push(TxnRec {
                        id,
                        begin_ev,
                        end_ev,
                        commit_ts,
                        committed,
                        events: evs,
                    });
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    History { txns: recs }
}

/// Check a history for snapshot isolation. `Ok(())` when a valid
/// snapshot point exists for every committed transaction; otherwise
/// every violation found, one line each.
pub fn check_history(h: &History) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();

    let has_writes = |t: &TxnRec| t.events.iter().any(|e| matches!(e, Ev::Write { .. }));

    // Committed *writers* in commit order (timestamp, ack ties).
    // Read-only transactions are acknowledged with their begin
    // timestamp, which ties with the commit they read — so they get no
    // position of their own; only lower bounds constrain them.
    let mut order: Vec<usize> = (0..h.txns.len())
        .filter(|&i| h.txns[i].committed && has_writes(&h.txns[i]))
        .collect();
    order.sort_by_key(|&i| (h.txns[i].commit_ts.unwrap_or(0), h.txns[i].end_ev));
    let pos: std::collections::HashMap<u64, usize> = order
        .iter()
        .enumerate()
        .map(|(p, &i)| (h.txns[i].id, p))
        .collect();

    // value → writer transaction id (uniqueness is by construction).
    let mut writer_of: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
    let mut by_id: std::collections::HashMap<u64, &TxnRec> = std::collections::HashMap::new();
    for t in &h.txns {
        by_id.insert(t.id, t);
        for e in &t.events {
            if let Ev::Write { val, .. } = e {
                writer_of.insert(*val, t.id);
            }
        }
    }

    // Committed writer positions per key, ascending.
    let mut writers_of_key: std::collections::HashMap<i64, Vec<usize>> =
        std::collections::HashMap::new();
    for (p, &i) in order.iter().enumerate() {
        for e in &h.txns[i].events {
            if let Ev::Write { key, .. } = e {
                let v = writers_of_key.entry(*key).or_default();
                if v.last() != Some(&p) {
                    v.push(p);
                }
            }
        }
    }

    for t in h.txns.iter().filter(|t| t.committed) {
        // Writers may see at most the writers that committed before
        // them; read-only transactions have no position of their own
        // and may see everything.
        let my_pos = pos.get(&t.id).copied();
        let mut lo = 0usize; // p lower bound (inclusive)
        let mut hi = my_pos.unwrap_or(order.len()); // p upper bound (inclusive)
        let mut lo_why = String::from("history start");
        let mut hi_why = my_pos
            .map(|p| format!("own commit at position {p}"))
            .unwrap_or_else(|| String::from("read-only: all writers visible"));

        // Walk events in program order; own writes shadow later reads.
        let mut own: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        for e in &t.events {
            match e {
                Ev::Write { key, val } => {
                    own.insert(*key, *val);
                }
                Ev::Read { key, val } => {
                    if *val == MISSING_ROW {
                        violations.push(format!("txn {}: read of key {key} found no row", t.id));
                        continue;
                    }
                    if let Some(own_val) = own.get(key) {
                        if val != own_val {
                            violations.push(format!(
                                "txn {}: read {val} of key {key} does not see its own write {own_val}",
                                t.id
                            ));
                        }
                        continue;
                    }
                    if *val == INITIAL_VAL {
                        // Initial value: no committed writer of this key
                        // may be visible.
                        if let Some(ws) = writers_of_key.get(key) {
                            if let Some(&first) = ws.first() {
                                if first < hi {
                                    hi = first;
                                    hi_why = format!(
                                        "read initial value of key {key} (first writer commits at {first})"
                                    );
                                }
                            }
                        }
                        continue;
                    }
                    let Some(&wid) = writer_of.get(val) else {
                        violations.push(format!(
                            "txn {}: read {val} of key {key} — value was never written",
                            t.id
                        ));
                        continue;
                    };
                    let w = by_id[&wid];
                    if !w.committed {
                        violations.push(format!(
                            "txn {}: read {val} of key {key} written by aborted txn {wid}",
                            t.id
                        ));
                        continue;
                    }
                    let wp = pos[&wid];
                    if wp + 1 > lo {
                        lo = wp + 1;
                        lo_why = format!("read key {key} from txn {wid} (commits at {wp})");
                    }
                    // No later writer of the key may be visible.
                    if let Some(ws) = writers_of_key.get(key) {
                        if let Some(&next) = ws.iter().find(|&&p| p > wp) {
                            if next < hi {
                                hi = next;
                                hi_why = format!(
                                    "read key {key} from position {wp}; next writer commits at {next}"
                                );
                            }
                        }
                    }
                }
            }
        }

        // Real time: every *writer* acknowledged before T began is
        // visible (a read-only predecessor's visibility is vacuous).
        for u in &h.txns {
            if u.committed && u.end_ev < t.begin_ev {
                let Some(&up) = pos.get(&u.id) else { continue };
                if up + 1 > lo {
                    lo = up + 1;
                    lo_why = format!("txn {} acknowledged before begin", u.id);
                }
            }
        }

        // No lost update: committed write-overlapping predecessors must
        // be visible (first committer wins ⇒ monotone in p).
        let t_writes: std::collections::HashSet<i64> = t
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Write { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        if let (false, Some(mp)) = (t_writes.is_empty(), my_pos) {
            for (p_u, &ui) in order.iter().enumerate().take(mp) {
                let u = &h.txns[ui];
                let overlaps = u.events.iter().any(|e| match e {
                    Ev::Write { key, .. } => t_writes.contains(key),
                    _ => false,
                });
                if overlaps && p_u + 1 > lo {
                    lo = p_u + 1;
                    lo_why = format!(
                        "txn {} wrote an overlapping key and committed at {p_u} (lost update otherwise)",
                        u.id
                    );
                }
            }
        }

        if lo > hi {
            violations.push(format!(
                "txn {}: no valid snapshot point — needs p >= {lo} ({lo_why}) but p <= {hi} ({hi_why})",
                t.id
            ));
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(id: u64, begin_ev: u64, end_ev: u64, commit_ts: Option<u64>, events: Vec<Ev>) -> TxnRec {
        TxnRec {
            id,
            begin_ev,
            end_ev,
            commit_ts,
            committed: commit_ts.is_some(),
            events,
        }
    }

    #[test]
    fn serial_history_passes() {
        let h = History {
            txns: vec![
                txn(
                    1,
                    0,
                    1,
                    Some(1),
                    vec![
                        Ev::Read {
                            key: 0,
                            val: INITIAL_VAL,
                        },
                        Ev::Write {
                            key: 0,
                            val: unique_val(1, 1),
                        },
                    ],
                ),
                txn(
                    2,
                    2,
                    3,
                    Some(2),
                    vec![Ev::Read {
                        key: 0,
                        val: unique_val(1, 1),
                    }],
                ),
            ],
        };
        assert!(check_history(&h).is_ok());
    }

    #[test]
    fn lost_update_is_caught() {
        // Both read initial, both write key 0, both commit: the second
        // committer must have aborted under first-committer-wins.
        let h = History {
            txns: vec![
                txn(
                    1,
                    0,
                    2,
                    Some(1),
                    vec![
                        Ev::Read {
                            key: 0,
                            val: INITIAL_VAL,
                        },
                        Ev::Write {
                            key: 0,
                            val: unique_val(1, 1),
                        },
                    ],
                ),
                txn(
                    2,
                    1,
                    3,
                    Some(2),
                    vec![
                        Ev::Read {
                            key: 0,
                            val: INITIAL_VAL,
                        },
                        Ev::Write {
                            key: 0,
                            val: unique_val(2, 1),
                        },
                    ],
                ),
            ],
        };
        let errs = check_history(&h).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("lost update")), "{errs:?}");
    }

    #[test]
    fn non_repeatable_read_is_caught() {
        // T1 reads key 0 old and key 1 new from the same writer T2:
        // no single snapshot point explains both.
        let h = History {
            txns: vec![
                txn(
                    2,
                    0,
                    1,
                    Some(1),
                    vec![
                        Ev::Write {
                            key: 0,
                            val: unique_val(2, 1),
                        },
                        Ev::Write {
                            key: 1,
                            val: unique_val(2, 2),
                        },
                    ],
                ),
                txn(
                    1,
                    0,
                    2,
                    Some(2),
                    vec![
                        Ev::Read {
                            key: 0,
                            val: INITIAL_VAL,
                        },
                        Ev::Read {
                            key: 1,
                            val: unique_val(2, 2),
                        },
                    ],
                ),
            ],
        };
        let errs = check_history(&h).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("no valid snapshot point")),
            "{errs:?}"
        );
    }

    #[test]
    fn aborted_read_is_caught() {
        let h = History {
            txns: vec![
                txn(
                    1,
                    0,
                    1,
                    None,
                    vec![Ev::Write {
                        key: 0,
                        val: unique_val(1, 1),
                    }],
                ),
                txn(
                    2,
                    2,
                    3,
                    Some(1),
                    vec![Ev::Read {
                        key: 0,
                        val: unique_val(1, 1),
                    }],
                ),
            ],
        };
        let errs = check_history(&h).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("aborted")), "{errs:?}");
    }

    #[test]
    fn own_writes_shadow_reads() {
        let h = History {
            txns: vec![txn(
                1,
                0,
                1,
                Some(1),
                vec![
                    Ev::Write {
                        key: 0,
                        val: unique_val(1, 1),
                    },
                    Ev::Read {
                        key: 0,
                        val: unique_val(1, 1),
                    },
                ],
            )],
        };
        assert!(check_history(&h).is_ok());
        // Failing to see the own write is flagged.
        let h2 = History {
            txns: vec![txn(
                1,
                0,
                1,
                Some(1),
                vec![
                    Ev::Write {
                        key: 0,
                        val: unique_val(1, 1),
                    },
                    Ev::Read {
                        key: 0,
                        val: INITIAL_VAL,
                    },
                ],
            )],
        };
        let errs = check_history(&h2).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("own write")), "{errs:?}");
    }

    #[test]
    fn generated_history_on_correct_engine_passes() {
        let dir = std::env::temp_dir().join(format!(
            "morsel-checker-e2e-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = HistorySpec::small(7);
        let db = crate::db::TxnDb::create(&dir, vec![("kv", kv_relation(spec.keys))]).unwrap();
        let h = run_history(&db, &spec, ExecMode::Sim);
        assert!(
            h.txns.iter().filter(|t| t.committed).count() >= 2,
            "history too trivial to mean anything"
        );
        if let Err(v) = check_history(&h) {
            panic!("correct engine flagged: {v:#?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lcg_is_replayable() {
        let mut a = Lcg(42);
        let mut b = Lcg(42);
        let xs: Vec<u64> = (0..8).map(|_| a.below(100)).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.below(100)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x != xs[0]), "not constant");
    }
}
