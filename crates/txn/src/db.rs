//! The transactional database: MVCC begin/commit over delta stores,
//! group-commit WAL durability, and crash recovery.
//!
//! One [`TxnDb`] owns a fixed set of tables, each an immutable base
//! [`Relation`] plus a committed [`DeltaStore`]. Transactions buffer
//! their writes privately and apply them — in one deterministic
//! sequence, mirrored record-for-record in the WAL — at commit, under
//! the database mutex, which also holds the one clock: a commit takes
//! the timestamp after the last one applied, and a transaction reads at
//! the last one applied when it began. So the applied state is always a
//! timestamp-prefix and the log replays to exactly the in-memory delta
//! stores (`==`, field for field).
//!
//! **Commit protocol** (early lock release, standard group commit):
//! validate conflicts → assign timestamp → append WAL frames → apply
//! to delta stores → *release the commit lock* → wait for group
//! durability → acknowledge. Concurrent committers pile into the next
//! fsync group while the leader flushes; a commit is acknowledged only
//! after its group is durable, so nothing a client was told succeeded
//! can be lost. Readers may observe applied-but-not-yet-durable
//! commits; if the process dies before the fsync those commits vanish
//! on recovery — exactly the commits that were never acknowledged.
//!
//! **Conflict rule** (first committer wins): a transaction that
//! updates or deletes a row records the row id it saw at its begin
//! snapshot; at commit, a tombstone on any such row — necessarily from
//! a transaction that committed after our begin — aborts us. Epoch
//! mismatches (a merge renumbered rows mid-flight) abort the same way.
//! Inserts never conflict.
//!
//! **Cost of a write**: a statement pays for what it changes, not for
//! the table. `UPDATE`/`DELETE` predicates are evaluated in place over
//! the (dictionary-encoded) base partitions, the committed delta rows
//! and the transaction's own pending rows, and only matched rows are
//! decoded ([`TxnDb::update_where`]); snapshots share every base
//! partition the delta did not touch ([`DeltaStore::snapshot`]); and a
//! table's latest snapshot is built once, by whoever asks first after a
//! commit to it or a merge of it, and handed to everyone until the next
//! one. Every other table keeps its `Arc<Relation>`, so a
//! [`TxnDb::snapshot_catalog`] differs from the previous one in exactly
//! the tables written since. A new snapshot, and a merged base, hand on
//! the statistics of the relation before them until the rows changed
//! since those were started reach [`STATS_DRIFT`] of the table, so a
//! small commit does not rebuild them. The database mutex is held for
//! work proportional to a table in two places only: the commit that
//! brings a string value outside its column's base dictionary re-encodes
//! that column in every base partition ([`morsel_storage::rebased`]), and
//! a merge folds the delta into base partitions. Every other step under
//! it is proportional to the statement or the delta.
//!
//! **Memory accounting**: committed delta bytes are reserved against a
//! [`MemBudget`] (optionally pool-backed) as they apply and released
//! when a merge folds them into base partitions — the crash sweep
//! asserts the pool drains to zero.
//!
//! **Recovery** redoes the log through the commit's own apply call
//! ([`TxnDb::open`]): a transaction's records, buffered until its
//! `Commit` record, reach the tables, the byte ledger and the base
//! dictionaries exactly as they did when it committed, and a `Merge`
//! record runs the merge [`TxnDb::merge`] runs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use morsel_core::{MemBudget, MemPool};
use morsel_exec::predicate::Predicate;
use morsel_exec::Expr;
use morsel_storage::{
    delta_row_id, read_wal, rebased, row_bytes, Batch, Catalog, DeltaStore, Encoding, Relation,
    Schema, Value, Wal, WalError, WalFaults, WalOp, WalStats,
};

/// Marks a row id that exists only in a transaction's private buffer
/// (bit 62; bit 63 is [`morsel_storage::DELTA_ROW_BIT`]).
const PENDING_BIT: u64 = 1 << 62;

/// Why a transactional operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TxnError {
    /// First-committer-wins: someone else committed a write to a row
    /// this transaction also wrote (or a merge renumbered it).
    Conflict(String),
    /// The WAL is poisoned (injected fault or real I/O failure); the
    /// engine must restart and recover.
    Wal(WalError),
    /// The database was poisoned by an earlier WAL failure.
    Poisoned,
    UnknownTable(String),
    /// Row arity/type does not match the table schema.
    Schema(String),
    /// The delta memory budget rejected the reservation.
    Memory(String),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict(m) => write!(f, "write-write conflict: {m}"),
            TxnError::Wal(e) => write!(f, "{e}"),
            TxnError::Poisoned => f.write_str("database poisoned by an earlier WAL failure"),
            TxnError::UnknownTable(t) => write!(f, "unknown table {t:?}"),
            TxnError::Schema(m) => write!(f, "schema mismatch: {m}"),
            TxnError::Memory(m) => write!(f, "delta budget: {m}"),
        }
    }
}

impl std::error::Error for TxnError {}

impl From<WalError> for TxnError {
    fn from(e: WalError) -> Self {
        TxnError::Wal(e)
    }
}

/// One buffered (uncommitted) write.
#[derive(Debug, Clone)]
enum BufOp {
    /// Insert of `pending[idx]`.
    Insert { table: u32, idx: usize },
    /// Delete of a row that exists in the committed snapshot.
    DeleteSnapshot { table: u32, row_id: u64 },
    /// Delete of this transaction's own pending insert `pending[idx]`.
    DeletePending { table: u32, idx: usize },
}

/// An open transaction: snapshot timestamp plus private write buffer.
/// Obtained from [`TxnDb::begin`]; consumed by [`TxnDb::commit`] /
/// [`TxnDb::abort`].
pub struct Txn {
    pub id: u64,
    begin_ts: u64,
    /// Table epochs at begin — a merge in between is a conflict.
    epochs: Vec<u64>,
    ops: Vec<BufOp>,
    /// Rows this transaction inserted, in buffer order.
    pending: Vec<(u32, Vec<Value>)>,
    /// Pending indices deleted again by this same transaction.
    pending_dead: std::collections::HashSet<usize>,
    /// Committed-snapshot rows this transaction deleted: the write set
    /// for conflict validation.
    snapshot_deletes: Vec<(u32, u64)>,
}

impl Txn {
    pub fn is_read_only(&self) -> bool {
        self.ops.is_empty()
    }

    /// Committed-snapshot rows of table `t` this transaction deleted.
    fn deleted_in(&self, t: u32) -> std::collections::HashSet<u64> {
        self.snapshot_deletes
            .iter()
            .filter(|&&(dt, _)| dt == t)
            .map(|&(_, id)| id)
            .collect()
    }
}

/// The fraction of a table's rows that may change — rows inserted plus
/// rows tombstoned — while each new snapshot of it hands on the
/// statistics of the one before ([`Relation::sharing_stats`]). The
/// snapshot whose changes reach it starts statistics of its own, filled
/// from all its partitions on first use, and the count starts again. So
/// the planner's selectivities and NDVs lag the data by less than this
/// fraction, while row and byte totals, and every result, stay exact.
/// The sweep that chose it is in DESIGN.md §15.
pub const STATS_DRIFT: f64 = 0.10;

struct TableState {
    name: String,
    base: Arc<Relation>,
    delta: DeltaStore,
    /// Delta bytes currently reserved against the budget.
    reserved: u64,
    /// The newest committed snapshot of this epoch and the timestamp it
    /// was taken at, kept so that the next one re-materialises only the
    /// partitions touched since — or, with no commit to this table since,
    /// is this very `Arc`.
    latest: Option<(Arc<Relation>, u64)>,
    /// Rows inserted plus rows tombstoned since the statistics the table's
    /// newest relation carries were started (see [`STATS_DRIFT`]).
    drift: u64,
    /// Inserts plus tombstones of `delta` already counted into `drift`.
    counted: u64,
}

impl TableState {
    /// The relation a reader at `ts` scans: the base itself while no
    /// delta effect is visible, otherwise a snapshot sharing the
    /// untouched base partitions.
    fn snapshot(&self, ts: u64) -> Arc<Relation> {
        if self.delta.snapshot_is_base(ts) {
            Arc::clone(&self.base)
        } else {
            Arc::new(self.delta.snapshot(&self.base, ts, None))
        }
    }

    /// The latest committed snapshot, `ts` being the highest applied
    /// commit timestamp: the cached `Arc` itself while nothing was
    /// committed to this table since it was taken, otherwise a new one
    /// built on top of it. A table without visible delta effects is its
    /// base `Arc`. So whenever this table's rows (or their encoding)
    /// change, its relation is replaced, which the plan cache relies on.
    ///
    /// A new snapshot carries the statistics of the relation it follows
    /// while the drift bound allows ([`TableState::carry_stats`]).
    fn latest_snapshot(&mut self, ts: u64) -> Arc<Relation> {
        if let Some((rel, at)) = &self.latest {
            if self.delta.last_commit_ts() <= *at {
                return Arc::clone(rel);
            }
        }
        let prev = self.latest.take().map(|(rel, _)| rel);
        let rel = if self.delta.snapshot_is_base(ts) {
            Arc::clone(&self.base)
        } else {
            let snap = self.delta.snapshot(&self.base, ts, prev.as_deref());
            let donor = prev.unwrap_or_else(|| Arc::clone(&self.base));
            Arc::new(self.carry_stats(snap, &donor))
        };
        self.latest = Some((Arc::clone(&rel), ts));
        rel
    }

    /// `rel`, the relation that follows `donor` as this table's newest,
    /// sharing `donor`'s statistics while both encode every column alike
    /// and the rows changed since those statistics were started stay
    /// under [`STATS_DRIFT`] of `rel`'s rows. Otherwise — a commit that
    /// re-encoded the base left `donor`'s dictionaries stale — `rel`
    /// keeps its own and the count starts from it.
    fn carry_stats(&mut self, rel: Relation, donor: &Relation) -> Relation {
        let changes = (self.delta.delta_rows() + self.delta.tombstone_count()) as u64;
        self.drift += changes - self.counted;
        self.counted = changes;
        if donor.encodings() == rel.encodings()
            && (self.drift as f64) < STATS_DRIFT * rel.total_rows() as f64
        {
            rel.sharing_stats(donor)
        } else {
            self.drift = 0;
            rel
        }
    }

    /// Apply one committed transaction's logged `Insert` and `Delete`
    /// records, in log order, at `commit_ts`, and return the bytes they
    /// reserve ([`record_bytes`]). The one way a committed write reaches
    /// a table: [`TxnDb::commit`] hands it the records it just logged,
    /// and recovery the records of each `Commit` it reads.
    ///
    /// Each inserted string value is looked up once in its column's base
    /// dictionary; a table that gained values outside it has its base
    /// re-encoded once, here, so that every later snapshot and merge
    /// encodes its delta rows against the base as it is.
    fn apply(tables: &mut [TableState], records: Vec<WalOp>, commit_ts: u64) -> u64 {
        // Per table: inserted values its base dictionaries lack, by column.
        let mut fresh: Vec<Vec<(usize, String)>> = vec![Vec::new(); tables.len()];
        let mut bytes = 0;
        for op in records {
            let reserve = record_bytes(&op);
            bytes += reserve;
            let state = match op {
                WalOp::Insert { table, row, .. } => {
                    let state = &mut tables[table as usize];
                    for (c, v) in row.iter().enumerate() {
                        if let (Some(dict), Value::Str(v)) = (state.base.encoding(c).dict(), v) {
                            if dict.code_of(v).is_none() {
                                fresh[table as usize].push((c, v.clone()));
                            }
                        }
                    }
                    state.delta.apply_insert(row, commit_ts);
                    state
                }
                WalOp::Delete { table, row_id, .. } => {
                    let state = &mut tables[table as usize];
                    state.delta.apply_delete(row_id, commit_ts);
                    state
                }
                WalOp::Commit { .. } | WalOp::Merge { .. } => {
                    unreachable!("a transaction logs inserts and deletes before its commit")
                }
            };
            state.reserved += reserve;
        }
        for (state, fresh) in tables.iter_mut().zip(&fresh) {
            if !fresh.is_empty() {
                state.base = Arc::new(rebased(&state.base, fresh));
            }
        }
        bytes
    }

    /// Fold the committed delta into fresh base partitions at `upto` (new
    /// epoch, new row numbering) and return the delta bytes this frees —
    /// [`TxnDb::merge`]'s fold, and recovery's for a `Merge` record.
    ///
    /// A merge changes no visible row, so the folded base carries the
    /// statistics on under the same drift count.
    fn merge(&mut self, upto: u64) -> u64 {
        let latest = self.latest.take().map(|(rel, _)| rel);
        let (folded, next) = self.delta.merge(&self.base, upto, latest.as_deref());
        let donor = latest.unwrap_or_else(|| Arc::clone(&self.base));
        self.base = Arc::new(self.carry_stats(folded, &donor));
        self.delta = next;
        self.counted = 0;
        std::mem::take(&mut self.reserved)
    }
}

/// Bytes a committed tombstone reserves.
const DELETE_BYTES: u64 = 16;

/// Bytes a logged record reserves once committed: its row's
/// [`row_bytes`] for an insert, [`DELETE_BYTES`] for a delete.
fn record_bytes(op: &WalOp) -> u64 {
    match op {
        WalOp::Insert { row, .. } => row_bytes(row),
        WalOp::Delete { .. } => DELETE_BYTES,
        WalOp::Commit { .. } | WalOp::Merge { .. } => 0,
    }
}

struct Inner {
    tables: Vec<TableState>,
    by_name: HashMap<String, u32>,
    /// Highest commit timestamp applied to the delta stores; the next
    /// commit takes the one after it.
    last_applied_ts: u64,
    /// The id the next [`TxnDb::begin`] hands out.
    next_txn: u64,
    poisoned: bool,
}

/// Construction knobs for [`TxnDb`].
#[derive(Default)]
pub struct TxnDbConfig {
    /// Shared memory pool for delta accounting (tests assert it drains
    /// to zero).
    pub pool: Option<Arc<MemPool>>,
    /// Deterministic WAL fault schedule (chaos tests).
    pub faults: WalFaults,
}

/// A transactional database over immutable column partitions.
pub struct TxnDb {
    dir: PathBuf,
    wal: Wal,
    inner: parking_lot::Mutex<Inner>,
    budget: MemBudget,
}

impl TxnDb {
    /// Create a fresh database (truncating any WAL at `dir`).
    pub fn create(dir: &Path, tables: Vec<(&str, Arc<Relation>)>) -> Result<TxnDb, TxnError> {
        TxnDb::create_with(dir, tables, TxnDbConfig::default())
    }

    pub fn create_with(
        dir: &Path,
        tables: Vec<(&str, Arc<Relation>)>,
        cfg: TxnDbConfig,
    ) -> Result<TxnDb, TxnError> {
        let wal = Wal::create(dir)?.with_faults(cfg.faults);
        Ok(TxnDb::assemble(
            dir,
            wal,
            tables_to_state(tables),
            0,
            1,
            MemBudget::new(None, cfg.pool),
        ))
    }

    /// Open an existing database: redo the committed prefix of the WAL
    /// as it is read, frame by frame, truncate the torn tail, and
    /// continue the log where the valid records end. `tables` must be the
    /// same load-time base relations, in the same registration order, as
    /// when the log was written.
    ///
    /// Redo repeats history through the forward code: each transaction's
    /// records wait for its `Commit` record and then go to the call
    /// [`TxnDb::commit`] applies them with, and a `Merge` record runs the
    /// merge [`TxnDb::merge`] runs. A record at or below the last LSN
    /// redone (a crashed retry that wrote a frame twice) is skipped, and
    /// the records of a transaction whose `Commit` never became durable
    /// are dropped, its id still burned. The recovered delta bytes are
    /// reserved as the live engine held them; a pool too small for them
    /// is a [`TxnError::Memory`].
    pub fn open(dir: &Path, tables: Vec<(&str, Arc<Relation>)>) -> Result<TxnDb, TxnError> {
        TxnDb::open_with(dir, tables, TxnDbConfig::default())
    }

    pub fn open_with(
        dir: &Path,
        tables: Vec<(&str, Arc<Relation>)>,
        cfg: TxnDbConfig,
    ) -> Result<TxnDb, TxnError> {
        let mut tables = tables_to_state(tables);
        let (mut lsn, mut last_ts, mut next_txn) = (0, 0, 1);
        let mut pending: HashMap<u64, Vec<WalOp>> = HashMap::new();
        let mut log = read_wal(dir)?;
        for rec in &mut log {
            if rec.lsn <= lsn {
                continue; // duplicate LSN: already redone
            }
            lsn = rec.lsn;
            match rec.op {
                WalOp::Commit { txn, commit_ts } => {
                    next_txn = next_txn.max(txn + 1);
                    let records = pending.remove(&txn).unwrap_or_default();
                    TableState::apply(&mut tables, records, commit_ts);
                    last_ts = last_ts.max(commit_ts);
                }
                WalOp::Merge { table, upto_ts } => {
                    tables[table as usize].merge(upto_ts);
                }
                op @ (WalOp::Insert { txn, .. } | WalOp::Delete { txn, .. }) => {
                    next_txn = next_txn.max(txn + 1);
                    pending.entry(txn).or_default().push(op);
                }
            }
        }
        let valid_bytes = log.finish()?.valid_bytes;
        let wal = Wal::reopen(dir, valid_bytes, lsn + 1)?.with_faults(cfg.faults);
        let budget = MemBudget::new(None, cfg.pool);
        budget
            .try_reserve(tables.iter().map(|t| t.reserved).sum())
            .map_err(|e| TxnError::Memory(e.to_string()))?;
        Ok(TxnDb::assemble(dir, wal, tables, last_ts, next_txn, budget))
    }

    fn assemble(
        dir: &Path,
        wal: Wal,
        tables: Vec<TableState>,
        last_ts: u64,
        next_txn: u64,
        budget: MemBudget,
    ) -> TxnDb {
        let by_name = tables
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), i as u32))
            .collect();
        TxnDb {
            dir: dir.to_path_buf(),
            wal,
            inner: parking_lot::Mutex::new(Inner {
                tables,
                by_name,
                last_applied_ts: last_ts,
                next_txn,
                poisoned: false,
            }),
            budget,
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned || self.wal.is_poisoned()
    }

    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    fn table_index(&self, inner: &Inner, table: &str) -> Result<u32, TxnError> {
        inner
            .by_name
            .get(table)
            .copied()
            .ok_or_else(|| TxnError::UnknownTable(table.to_owned()))
    }

    // ---- transaction lifecycle ----------------------------------------

    /// Begin a transaction reading at the latest applied commit
    /// timestamp.
    pub fn begin(&self) -> Result<Txn, TxnError> {
        let mut inner = self.inner.lock();
        if inner.poisoned {
            return Err(TxnError::Poisoned);
        }
        let id = inner.next_txn;
        inner.next_txn += 1;
        Ok(Txn {
            id,
            begin_ts: inner.last_applied_ts,
            epochs: inner.tables.iter().map(|t| t.delta.epoch()).collect(),
            ops: Vec::new(),
            pending: Vec::new(),
            pending_dead: std::collections::HashSet::new(),
            snapshot_deletes: Vec::new(),
        })
    }

    /// Buffer an insert. Validates arity and value types against the
    /// table schema.
    pub fn insert(&self, txn: &mut Txn, table: &str, row: Vec<Value>) -> Result<(), TxnError> {
        let inner = self.inner.lock();
        if inner.poisoned {
            return Err(TxnError::Poisoned);
        }
        let t = self.table_index(&inner, table)?;
        let schema = inner.tables[t as usize].base.schema();
        check_row(schema, &row)?;
        drop(inner);
        let idx = txn.pending.len();
        txn.pending.push((t, row));
        txn.ops.push(BufOp::Insert { table: t, idx });
        Ok(())
    }

    /// Rows of `table` visible to `txn` (committed snapshot plus the
    /// transaction's own buffered writes), decoded, with their row ids.
    /// Materialises the whole table: for whole-table reads only, and the
    /// oracle [`TxnDb::matching_rows`] is tested against.
    fn visible_with_overlay(
        &self,
        txn: &Txn,
        table: &str,
    ) -> Result<(Batch, Vec<u64>, u32), TxnError> {
        let inner = self.inner.lock();
        if inner.poisoned {
            return Err(TxnError::Poisoned);
        }
        let t = self.table_index(&inner, table)?;
        let state = &inner.tables[t as usize];
        // Copy the delta out so the table is decoded without the lock.
        let (base, delta) = (Arc::clone(&state.base), state.delta.clone());
        drop(inner);
        let (mut rows, mut ids) = delta.visible_rows(&base, txn.begin_ts);
        // Filter out rows this transaction deleted …
        let dead = txn.deleted_in(t);
        if !dead.is_empty() {
            let sel: Vec<u32> = ids
                .iter()
                .enumerate()
                .filter(|(_, id)| !dead.contains(id))
                .map(|(i, _)| i as u32)
                .collect();
            rows = rows.gather(&sel);
            ids = sel.iter().map(|&i| ids[i as usize]).collect();
        }
        // … and overlay its own pending inserts.
        for (idx, (pt, row)) in txn.pending.iter().enumerate() {
            if *pt == t && !txn.pending_dead.contains(&idx) {
                rows.push_row(row.clone());
                ids.push(PENDING_BIT | idx as u64);
            }
        }
        Ok((rows, ids, t))
    }

    /// All rows of `table` visible to `txn`, decoded (reads inside a
    /// transaction; includes its own uncommitted writes).
    pub fn read(&self, txn: &Txn, table: &str) -> Result<Batch, TxnError> {
        self.visible_with_overlay(txn, table).map(|(b, _, _)| b)
    }

    /// Index and current base relation of `table`.
    fn table_base(&self, table: &str) -> Result<(u32, Arc<Relation>), TxnError> {
        let inner = self.inner.lock();
        if inner.poisoned {
            return Err(TxnError::Poisoned);
        }
        let t = self.table_index(&inner, table)?;
        Ok((t, Arc::clone(&inner.tables[t as usize].base)))
    }

    /// Row ids of the rows of table `t` that are visible to `txn` and
    /// satisfy `pred` — base rows, then committed delta rows, then the
    /// transaction's own pending inserts — each with its decoded values
    /// when `decode` is set (left empty otherwise).
    ///
    /// The predicate runs in place: over each base partition as stored
    /// (dictionary codes included) without the lock, then over the
    /// committed delta rows and a batch of the pending rows. Hits are
    /// then filtered for visibility — committed tombstones and insert
    /// timestamps at the transaction's read timestamp, the transaction's
    /// own `snapshot_deletes`, its `pending_dead` — and only survivors
    /// are decoded.
    fn matching_rows(
        &self,
        txn: &Txn,
        t: u32,
        mut base: Arc<Relation>,
        pred: &Expr,
        decode: bool,
    ) -> Vec<(u64, Vec<Value>)> {
        let decoded = |batch: &Batch, i: u32| {
            if decode {
                batch.row(i as usize)
            } else {
                Vec::new()
            }
        };
        let own_deletes = txn.deleted_in(t);
        // Compiled once per statement for the delta and pending rows, which
        // hold plain strings, and once per base for its partitions: a string
        // test on a coded column tests codes.
        let types = base.schema().data_types();
        let plain = Predicate::new(pred, &types, &vec![Encoding::Plain; types.len()]);
        let (base_hits, delta_hits) = loop {
            let coded = Predicate::new(pred, &types, base.encodings());
            let mut hits: Vec<(u64, usize, u32)> = Vec::new();
            let mut start = 0u64;
            for (pi, p) in base.partitions().iter().enumerate() {
                let rows = coded.select(&p.data, 0..p.data.rows());
                hits.extend(rows.into_iter().map(|i| (start + u64::from(i), pi, i)));
                start += p.data.rows() as u64;
            }
            let inner = self.inner.lock();
            let state = &inner.tables[t as usize];
            if !Arc::ptr_eq(&state.base, &base) {
                // The base was replaced while we matched: a merge
                // renumbered its rows, or it was re-encoded.
                base = Arc::clone(&state.base);
                continue;
            }
            let live =
                |id: u64| state.delta.visible(id, txn.begin_ts) && !own_deletes.contains(&id);
            hits.retain(|&(id, _, _)| live(id));
            let rows = state.delta.rows();
            let delta_hits: Vec<(u64, Vec<Value>)> = plain
                .select(rows, 0..rows.rows())
                .into_iter()
                .map(|i| (delta_row_id(i as usize), i))
                .filter(|&(id, _)| live(id))
                .map(|(id, i)| (id, decoded(rows, i)))
                .collect();
            break (hits, delta_hits);
        };
        let mut out: Vec<(u64, Vec<Value>)> = base_hits
            .into_iter()
            .map(|(id, pi, i)| (id, decoded(&base.partition(pi).data, i)))
            .collect();
        out.extend(delta_hits);
        let pending: Vec<usize> = (0..txn.pending.len())
            .filter(|idx| txn.pending[*idx].0 == t && !txn.pending_dead.contains(idx))
            .collect();
        if !pending.is_empty() {
            let mut rows = Batch::empty(&types);
            for &idx in &pending {
                rows.push_row(txn.pending[idx].1.clone());
            }
            out.extend(
                plain
                    .select(&rows, 0..rows.rows())
                    .into_iter()
                    .map(|m| (PENDING_BIT | pending[m as usize] as u64, decoded(&rows, m))),
            );
        }
        out
    }

    /// Buffer deletes for every visible row matching `pred`; returns
    /// the match count.
    pub fn delete_where(&self, txn: &mut Txn, table: &str, pred: &Expr) -> Result<usize, TxnError> {
        let (t, base) = self.table_base(table)?;
        let matched = self.matching_rows(txn, t, base, pred, false);
        for &(id, _) in &matched {
            self.buffer_delete(txn, t, id);
        }
        Ok(matched.len())
    }

    /// Buffer updates (delete + re-insert with `set` applied) for every
    /// visible row matching `pred`; returns the match count.
    pub fn update_where(
        &self,
        txn: &mut Txn,
        table: &str,
        pred: &Expr,
        set: &[(usize, Value)],
    ) -> Result<usize, TxnError> {
        let (t, base) = self.table_base(table)?;
        let schema = base.schema();
        for (c, v) in set {
            if *c >= schema.len() {
                return Err(TxnError::Schema(format!("no column {c} in {table:?}")));
            }
            check_value(schema, *c, v)?;
        }
        let matched = self.matching_rows(txn, t, base, pred, true);
        let count = matched.len();
        for (id, mut row) in matched {
            self.buffer_delete(txn, t, id);
            for (c, v) in set {
                row[*c] = v.clone();
            }
            let idx = txn.pending.len();
            txn.pending.push((t, row));
            txn.ops.push(BufOp::Insert { table: t, idx });
        }
        Ok(count)
    }

    fn buffer_delete(&self, txn: &mut Txn, table: u32, row_id: u64) {
        if row_id & PENDING_BIT != 0 {
            let idx = (row_id & !PENDING_BIT) as usize;
            txn.pending_dead.insert(idx);
            txn.ops.push(BufOp::DeletePending { table, idx });
        } else {
            txn.snapshot_deletes.push((table, row_id));
            txn.ops.push(BufOp::DeleteSnapshot { table, row_id });
        }
    }

    /// Discard the transaction's buffered writes. Nothing was logged or
    /// applied, so this is purely local.
    pub fn abort(&self, txn: Txn) {
        drop(txn);
    }

    /// Validate, log, apply, and — only after the commit's WAL group is
    /// durable — acknowledge by returning the commit timestamp.
    pub fn commit(&self, mut txn: Txn) -> Result<u64, TxnError> {
        if txn.ops.is_empty() {
            // Read-only: nothing to validate, log, or wait for.
            return Ok(txn.begin_ts);
        }
        let (lsn, commit_ts) = {
            let mut inner = self.inner.lock();
            if inner.poisoned {
                return Err(TxnError::Poisoned);
            }
            // First committer wins: any tombstone on a row we also
            // wrote means someone committed it after our begin.
            for (t, epoch) in txn.epochs.iter().enumerate() {
                if inner.tables[t].delta.epoch() != *epoch
                    && txn.ops.iter().any(|op| op_table(op) == t as u32)
                {
                    return Err(TxnError::Conflict(format!(
                        "table {:?} merged since begin",
                        inner.tables[t].name
                    )));
                }
            }
            for &(t, row_id) in &txn.snapshot_deletes {
                if inner.tables[t as usize].delta.tombstoned(row_id) {
                    return Err(TxnError::Conflict(format!(
                        "row {row_id:#x} of {:?} already deleted by a concurrent commit",
                        inner.tables[t as usize].name
                    )));
                }
            }
            // Under the lock, so commits are applied, and logged, in
            // timestamp order.
            let commit_ts = inner.last_applied_ts + 1;
            // Resolve pending-insert indices to the delta row ids they
            // will occupy — deterministic, so WAL replay reproduces
            // identical numbering.
            let mut next_row: Vec<u64> = inner
                .tables
                .iter()
                .map(|t| t.delta.delta_rows() as u64)
                .collect();
            let mut pending_ids: HashMap<usize, u64> = HashMap::new();
            let mut records = Vec::with_capacity(txn.ops.len() + 1);
            for op in &txn.ops {
                match op {
                    BufOp::Insert { table, idx } => {
                        let id = delta_row_id(next_row[*table as usize] as usize);
                        next_row[*table as usize] += 1;
                        pending_ids.insert(*idx, id);
                        records.push(WalOp::Insert {
                            txn: txn.id,
                            table: *table,
                            row: std::mem::take(&mut txn.pending[*idx].1),
                        });
                    }
                    BufOp::DeleteSnapshot { table, row_id } => {
                        records.push(WalOp::Delete {
                            txn: txn.id,
                            table: *table,
                            row_id: *row_id,
                        });
                    }
                    BufOp::DeletePending { table, idx } => {
                        records.push(WalOp::Delete {
                            txn: txn.id,
                            table: *table,
                            row_id: pending_ids[idx],
                        });
                    }
                }
            }
            // Reserve delta memory before logging: a budget rejection
            // must abort cleanly, before anything hits the log.
            let bytes = records.iter().map(record_bytes).sum();
            self.budget
                .try_reserve(bytes)
                .map_err(|e| TxnError::Memory(e.to_string()))?;
            records.push(WalOp::Commit {
                txn: txn.id,
                commit_ts,
            });
            let lsn = match self.wal.append(&records) {
                Ok(lsn) => lsn,
                Err(e) => {
                    self.budget.release(bytes);
                    inner.poisoned = true;
                    return Err(e.into());
                }
            };
            records.pop(); // the `Commit` marker
            let applied = TableState::apply(&mut inner.tables, records, commit_ts);
            debug_assert_eq!(applied, bytes);
            inner.last_applied_ts = commit_ts;
            (lsn, commit_ts)
        };
        // Group commit: block until this commit's group is durable.
        if let Err(e) = self.wal.commit_durable(lsn) {
            self.inner.lock().poisoned = true;
            return Err(e.into());
        }
        Ok(commit_ts)
    }

    // ---- reads ---------------------------------------------------------

    /// The relation `txn` should scan for `table`: the committed
    /// snapshot at the transaction's timestamp, overlaid with its own
    /// buffered writes. Tables the transaction has not written keep
    /// their partitioning and dictionary encoding; with an empty delta
    /// the load-time base `Arc` is returned unchanged (byte-identical
    /// read-only behavior).
    pub fn relation_for(&self, txn: &Txn, table: &str) -> Result<Arc<Relation>, TxnError> {
        let has_overlay = {
            let inner = self.inner.lock();
            let t = self.table_index(&inner, table)?;
            txn.ops.iter().any(|op| op_table(op) == t)
        };
        if has_overlay {
            let (rows, _, t) = self.visible_with_overlay(txn, table)?;
            let inner = self.inner.lock();
            let schema = inner.tables[t as usize].base.schema().clone();
            drop(inner);
            return Ok(Arc::new(Relation::single(schema, rows)));
        }
        let mut inner = self.inner.lock();
        let t = self.table_index(&inner, table)? as usize;
        let ts = txn.begin_ts;
        if ts == inner.last_applied_ts {
            return Ok(inner.tables[t].latest_snapshot(ts));
        }
        Ok(inner.tables[t].snapshot(ts))
    }

    /// The latest committed relation for `table` (what a fresh
    /// transaction would read).
    pub fn latest_relation(&self, table: &str) -> Result<Arc<Relation>, TxnError> {
        let mut inner = self.inner.lock();
        let t = self.table_index(&inner, table)? as usize;
        let ts = inner.last_applied_ts;
        Ok(inner.tables[t].latest_snapshot(ts))
    }

    /// A catalog of the latest committed snapshot of every table. With
    /// empty deltas every entry is the load-time base `Arc` itself; a
    /// table nothing was committed to or merged since the last call keeps
    /// the very `Arc` that call returned. A table that was is a new
    /// relation with exact row and byte totals, whose statistics are
    /// those of the relation before it while fewer than [`STATS_DRIFT`]
    /// of its rows changed since they were started. The relations are
    /// not grouped: a `Session` groups what it installs.
    pub fn snapshot_catalog(&self) -> Catalog {
        let mut inner = self.inner.lock();
        let ts = inner.last_applied_ts;
        let mut catalog = Catalog::new();
        for state in &mut inner.tables {
            let rel = state.latest_snapshot(ts);
            catalog.add(&state.name, rel);
        }
        catalog
    }

    // ---- merge ---------------------------------------------------------

    /// Fold `table`'s committed delta into fresh base partitions (new
    /// epoch, new row numbering), releasing its delta memory. Logged
    /// before it applies so replay re-folds at the identical point.
    pub fn merge(&self, table: &str) -> Result<(), TxnError> {
        let lsn = {
            let mut inner = self.inner.lock();
            if inner.poisoned {
                return Err(TxnError::Poisoned);
            }
            let t = self.table_index(&inner, table)? as usize;
            if inner.tables[t].delta.is_empty() {
                return Ok(());
            }
            let upto = inner.tables[t].delta.last_commit_ts();
            let lsn = match self.wal.append(&[WalOp::Merge {
                table: t as u32,
                upto_ts: upto,
            }]) {
                Ok(lsn) => lsn,
                Err(e) => {
                    inner.poisoned = true;
                    return Err(e.into());
                }
            };
            self.budget.release(inner.tables[t].merge(upto));
            lsn
        };
        if let Err(e) = self.wal.commit_durable(lsn) {
            self.inner.lock().poisoned = true;
            return Err(e.into());
        }
        Ok(())
    }

    /// [`TxnDb::merge`] over every table.
    pub fn merge_all(&self) -> Result<(), TxnError> {
        let names: Vec<String> = {
            let inner = self.inner.lock();
            inner.tables.iter().map(|t| t.name.clone()).collect()
        };
        for n in &names {
            self.merge(n)?;
        }
        Ok(())
    }

    // ---- inspection ----------------------------------------------------

    /// `(delta rows, tombstones, epoch)` for a table.
    pub fn delta_stats(&self, table: &str) -> Result<(usize, usize, u64), TxnError> {
        let inner = self.inner.lock();
        let t = self.table_index(&inner, table)? as usize;
        let d = &inner.tables[t].delta;
        Ok((d.delta_rows(), d.tombstone_count(), d.epoch()))
    }

    /// Canonical committed logical state for oracle diffs: every
    /// table's visible rows at the latest commit, decoded, sorted by
    /// their full row rendering. Two databases that went through the
    /// same acknowledged commits compare equal here regardless of crash
    /// and recovery in between.
    pub fn logical_state(&self) -> Vec<(String, Batch)> {
        let (ts, tables) = {
            let inner = self.inner.lock();
            let tables: Vec<_> = (inner.tables.iter())
                .map(|t| (t.name.clone(), Arc::clone(&t.base), t.delta.clone()))
                .collect();
            (inner.last_applied_ts, tables)
        };
        tables
            .into_iter()
            .map(|(name, base, delta)| {
                let (rows, _) = delta.visible_rows(&base, ts);
                let mut order: Vec<u32> = (0..rows.rows() as u32).collect();
                order.sort_by_cached_key(|&i| {
                    rows.row(i as usize)
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                        .join("\u{1}")
                });
                (name, rows.reordered(&order))
            })
            .collect()
    }
}

impl Drop for TxnDb {
    fn drop(&mut self) {
        // Return every delta reservation to the shared pool: after the
        // database is gone, nothing holds delta memory.
        self.budget.release_all();
    }
}

fn op_table(op: &BufOp) -> u32 {
    match op {
        BufOp::Insert { table, .. }
        | BufOp::DeleteSnapshot { table, .. }
        | BufOp::DeletePending { table, .. } => *table,
    }
}

fn tables_to_state(tables: Vec<(&str, Arc<Relation>)>) -> Vec<TableState> {
    tables
        .into_iter()
        .map(|(name, base)| TableState {
            name: name.to_owned(),
            delta: DeltaStore::new(base.schema().clone()),
            base,
            reserved: 0,
            latest: None,
            drift: 0,
            counted: 0,
        })
        .collect()
}

fn check_row(schema: &Schema, row: &[Value]) -> Result<(), TxnError> {
    if row.len() != schema.len() {
        return Err(TxnError::Schema(format!(
            "row has {} values, table has {} columns",
            row.len(),
            schema.len()
        )));
    }
    for (c, v) in row.iter().enumerate() {
        check_value(schema, c, v)?;
    }
    Ok(())
}

fn check_value(schema: &Schema, c: usize, v: &Value) -> Result<(), TxnError> {
    use morsel_storage::DataType;
    let expect = schema.dtype(c);
    let actual = match v {
        Value::I64(_) => DataType::I64,
        Value::I32(_) => DataType::I32,
        Value::F64(_) => DataType::F64,
        Value::Str(_) => DataType::Str,
    };
    if expect != actual {
        return Err(TxnError::Schema(format!(
            "column {c} expects {expect:?}, got {actual:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{kv_relation, Lcg};
    use crate::workload::{run_step, WorkloadSpec};
    use morsel_core::MemPool;
    use morsel_exec::expr::{and, col, eq, ge, like, lit, lits, lt, prefix};
    use morsel_numa::{Placement, Topology};
    use morsel_storage::dict::DICT_MAX_UNIQUE;
    use morsel_storage::{Column, DataType, Partition, PartitionBy, TableStats, WalFaults};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "morsel-txndb-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn base_rel(n: i64) -> Arc<Relation> {
        let schema = Schema::new(vec![("id", DataType::I64), ("v", DataType::I64)]);
        let data = Batch::from_columns(vec![
            Column::I64((0..n).collect()),
            Column::I64(vec![0; n as usize]),
        ]);
        Arc::new(Relation::single(schema, data))
    }

    fn vals(db: &TxnDb) -> Vec<(i64, i64)> {
        let txn = db.begin().unwrap();
        let b = db.read(&txn, "t").unwrap();
        db.abort(txn);
        let mut out: Vec<(i64, i64)> = (0..b.rows())
            .map(|i| {
                let r = b.row(i);
                (r[0].as_i64(), r[1].as_i64())
            })
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn insert_commit_read_back() {
        let dir = tmpdir("insert");
        let db = TxnDb::create(&dir, vec![("t", base_rel(2))]).unwrap();

        let mut txn = db.begin().unwrap();
        db.insert(&mut txn, "t", vec![Value::I64(7), Value::I64(70)])
            .unwrap();
        // Own uncommitted insert is visible to the writer …
        assert_eq!(db.read(&txn, "t").unwrap().rows(), 3);
        // … but not to anyone else.
        let other = db.begin().unwrap();
        assert_eq!(db.read(&other, "t").unwrap().rows(), 2);
        db.abort(other);

        let ts = db.commit(txn).unwrap();
        assert!(ts > 0);
        assert_eq!(vals(&db), vec![(0, 0), (1, 0), (7, 70)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_commit_is_free() {
        let dir = tmpdir("rocommit");
        let db = TxnDb::create(&dir, vec![("t", base_rel(1))]).unwrap();
        let fsyncs_before = db.wal_stats().fsyncs;
        let txn = db.begin().unwrap();
        assert!(txn.is_read_only());
        db.commit(txn).unwrap();
        assert_eq!(db.wal_stats().fsyncs, fsyncs_before, "no log, no fsync");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_pins_at_begin() {
        let dir = tmpdir("snapshot");
        let db = TxnDb::create(&dir, vec![("t", base_rel(2))]).unwrap();
        let reader = db.begin().unwrap();

        let mut w = db.begin().unwrap();
        db.update_where(&mut w, "t", &eq(col(0), lit(0)), &[(1, Value::I64(99))])
            .unwrap();
        db.commit(w).unwrap();

        // The pinned reader still sees the old value; a fresh one sees
        // the new.
        let b = db.read(&reader, "t").unwrap();
        let old: Vec<i64> = (0..b.rows()).map(|i| b.row(i)[1].as_i64()).collect();
        assert!(old.iter().all(|&v| v == 0), "{old:?}");
        db.abort(reader);
        assert_eq!(vals(&db), vec![(0, 99), (1, 0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_and_update_including_own_pending() {
        let dir = tmpdir("dml");
        let db = TxnDb::create(&dir, vec![("t", base_rel(3))]).unwrap();
        let mut txn = db.begin().unwrap();
        db.insert(&mut txn, "t", vec![Value::I64(9), Value::I64(0)])
            .unwrap();
        // Delete hits both a snapshot row and the pending insert.
        let n = db.delete_where(&mut txn, "t", &eq(col(1), lit(0))).unwrap();
        assert_eq!(n, 4);
        db.commit(txn).unwrap();
        assert_eq!(vals(&db), vec![]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_committer_wins() {
        let dir = tmpdir("conflict");
        let db = TxnDb::create(&dir, vec![("t", base_rel(2))]).unwrap();
        let mut a = db.begin().unwrap();
        let mut b = db.begin().unwrap();
        db.update_where(&mut a, "t", &eq(col(0), lit(0)), &[(1, Value::I64(1))])
            .unwrap();
        db.update_where(&mut b, "t", &eq(col(0), lit(0)), &[(1, Value::I64(2))])
            .unwrap();
        db.commit(a).unwrap();
        match db.commit(b) {
            Err(TxnError::Conflict(_)) => {}
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(vals(&db), vec![(0, 1), (1, 0)]);
        // Disjoint rows do not conflict.
        let mut c = db.begin().unwrap();
        let mut d = db.begin().unwrap();
        db.update_where(&mut c, "t", &eq(col(0), lit(0)), &[(1, Value::I64(3))])
            .unwrap();
        db.update_where(&mut d, "t", &eq(col(0), lit(1)), &[(1, Value::I64(4))])
            .unwrap();
        db.commit(c).unwrap();
        db.commit(d).unwrap();
        assert_eq!(vals(&db), vec![(0, 3), (1, 4)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit one insert per value of `ids` into `t`.
    fn commit_ids(db: &TxnDb, ids: std::ops::Range<i64>) -> Result<u64, TxnError> {
        let mut w = db.begin().unwrap();
        for id in ids {
            db.insert(&mut w, "t", vec![Value::I64(id), Value::I64(0)])
                .unwrap();
        }
        db.commit(w)
    }

    #[test]
    fn a_commit_the_budget_rejects_takes_no_timestamp() {
        let dir = tmpdir("clock-budget");
        let cfg = TxnDbConfig {
            pool: Some(MemPool::new(64)),
            ..TxnDbConfig::default()
        };
        let db = TxnDb::create_with(&dir, vec![("t", base_rel(2))], cfg).unwrap();
        assert_eq!(commit_ids(&db, 10..11), Ok(1));
        // 100 rows of 16 bytes each overrun the 64-byte pool.
        assert!(matches!(commit_ids(&db, 20..120), Err(TxnError::Memory(_))));
        assert_eq!(
            commit_ids(&db, 30..31),
            Ok(2),
            "timestamps stay consecutive"
        );
        assert_eq!(vals(&db), vec![(0, 0), (1, 0), (10, 0), (30, 0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_continues_the_logged_clock_and_ids() {
        let dir = tmpdir("clock-open");
        let o = two_txns(); // txns 1 and 2, committed at 5 and 6
        let straggler = WalOp::Insert {
            txn: 9,
            table: 0,
            row: vec![Value::I64(90), Value::I64(0)],
        };
        write_log(
            &dir,
            &[
                (1, o[0].clone()),
                (2, o[1].clone()),
                (3, straggler),
                (4, o[2].clone()),
                (5, o[3].clone()),
            ],
        );
        let logged_id = {
            let db = TxnDb::open(&dir, vec![("t", base_rel(3))]).unwrap();
            let mut w = db.begin().unwrap();
            assert!(w.id > 9, "id {} reuses a logged one", w.id);
            let id = w.id;
            db.insert(&mut w, "t", vec![Value::I64(40), Value::I64(0)])
                .unwrap();
            assert_eq!(db.commit(w), Ok(7), "the last logged + 1");
            id
        };
        // Reopened over its own commit, the clock goes on from it.
        let db = TxnDb::open(&dir, vec![("t", base_rel(3))]).unwrap();
        assert!(db.begin().unwrap().id > logged_id);
        assert_eq!(commit_ids(&db, 50..51), Ok(8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_folds_delta_and_aborts_stragglers() {
        let dir = tmpdir("merge");
        let pool = MemPool::new(1 << 20);
        let cfg = TxnDbConfig {
            pool: Some(Arc::clone(&pool)),
            ..TxnDbConfig::default()
        };
        let db = TxnDb::create_with(&dir, vec![("t", base_rel(2))], cfg).unwrap();
        let mut w = db.begin().unwrap();
        db.insert(&mut w, "t", vec![Value::I64(5), Value::I64(50)])
            .unwrap();
        db.commit(w).unwrap();
        assert!(pool.reserved() > 0, "committed delta holds memory");

        // A transaction that writes across the merge must abort …
        let mut straggler = db.begin().unwrap();
        db.update_where(
            &mut straggler,
            "t",
            &eq(col(0), lit(0)),
            &[(1, Value::I64(9))],
        )
        .unwrap();

        db.merge("t").unwrap();
        assert_eq!(pool.reserved(), 0, "merge releases delta memory");
        let (rows, tombs, epoch) = db.delta_stats("t").unwrap();
        assert_eq!((rows, tombs), (0, 0));
        assert_eq!(epoch, 1);
        match db.commit(straggler) {
            Err(TxnError::Conflict(m)) => assert!(m.contains("merged"), "{m}"),
            other => panic!("expected epoch conflict, got {other:?}"),
        }

        // … but the folded state is intact and still writable.
        assert_eq!(vals(&db), vec![(0, 0), (1, 0), (5, 50)]);
        let mut w2 = db.begin().unwrap();
        db.update_where(&mut w2, "t", &eq(col(0), lit(5)), &[(1, Value::I64(51))])
            .unwrap();
        db.commit(w2).unwrap();
        assert_eq!(vals(&db), vec![(0, 0), (1, 0), (5, 51)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_recovers_exactly_the_acked_commits() {
        let dir = tmpdir("crash");
        // Commit twice, then crash while logging the third.
        let oracle_dir = tmpdir("crash-oracle");
        let oracle = TxnDb::create(&oracle_dir, vec![("t", base_rel(2))]).unwrap();
        let crash_lsn;
        {
            let db = TxnDb::create(&dir, vec![("t", base_rel(2))]).unwrap();
            for k in 0..2 {
                for d in [&db, &oracle] {
                    let mut w = d.begin().unwrap();
                    d.update_where(&mut w, "t", &eq(col(0), lit(k)), &[(1, Value::I64(k + 10))])
                        .unwrap();
                    d.commit(w).unwrap();
                }
            }
            crash_lsn = db.wal_stats().next_lsn + 1;
        }
        let db = TxnDb::open_with(
            &dir,
            vec![("t", base_rel(2))],
            TxnDbConfig {
                faults: WalFaults {
                    crash_at_lsn: vec![crash_lsn],
                    ..WalFaults::none()
                },
                ..TxnDbConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            db.logical_state()[0].1.rows(),
            oracle.logical_state()[0].1.rows()
        );
        let mut w = db.begin().unwrap();
        db.insert(&mut w, "t", vec![Value::I64(7), Value::I64(7)])
            .unwrap();
        match db.commit(w) {
            Err(TxnError::Wal(WalError::Poisoned(_))) => {}
            other => panic!("expected poisoned WAL, got {other:?}"),
        }
        assert!(db.is_poisoned());
        assert!(matches!(db.begin(), Err(TxnError::Poisoned)));
        drop(db);

        // Reopen: the unacknowledged commit vanished; the acked ones
        // replayed to the oracle's exact logical state.
        let db = TxnDb::open(&dir, vec![("t", base_rel(2))]).unwrap();
        let (recovered, reference) = (db.logical_state(), oracle.logical_state());
        assert_eq!(recovered.len(), reference.len());
        for ((n1, b1), (n2, b2)) in recovered.iter().zip(&reference) {
            assert_eq!(n1, n2);
            assert_eq!(b1.rows(), b2.rows());
            for i in 0..b1.rows() {
                assert_eq!(b1.row(i), b2.row(i));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&oracle_dir);
    }

    #[test]
    fn recovery_survives_a_merge_in_the_log() {
        let dir = tmpdir("recover-merge");
        {
            let db = TxnDb::create(&dir, vec![("t", base_rel(2))]).unwrap();
            let mut w = db.begin().unwrap();
            db.insert(&mut w, "t", vec![Value::I64(3), Value::I64(30)])
                .unwrap();
            db.commit(w).unwrap();
            db.merge("t").unwrap();
            let mut w = db.begin().unwrap();
            db.delete_where(&mut w, "t", &eq(col(0), lit(0))).unwrap();
            db.commit(w).unwrap();
        }
        let db = TxnDb::open(&dir, vec![("t", base_rel(2))]).unwrap();
        assert_eq!(vals(&db), vec![(1, 0), (3, 30)]);
        let (_, _, epoch) = db.delta_stats("t").unwrap();
        assert_eq!(epoch, 1, "replay re-folds the merge");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- recovery redoes the commit's apply call ------------------------

    /// The committed state of table `t`: its delta store, its base's rows
    /// and each column's dictionary values (empty for a plain column).
    fn table_state(db: &TxnDb, t: usize) -> (DeltaStore, Batch, Vec<Vec<String>>) {
        let inner = db.inner.lock();
        let state = &inner.tables[t];
        let dicts = (state.base.encodings().iter())
            .map(|e| e.dict().map_or_else(Vec::new, |d| d.values().to_vec()))
            .collect();
        (state.delta.clone(), state.base.gather(), dicts)
    }

    /// Write `records` to `dir`'s log as frames of the given LSNs.
    fn write_log(dir: &Path, records: &[(u64, WalOp)]) {
        std::fs::create_dir_all(dir).unwrap();
        let bytes: Vec<u8> = (records.iter())
            .flat_map(|(lsn, op)| morsel_storage::wal::encode_frame(*lsn, op))
            .collect();
        std::fs::write(dir.join(morsel_storage::wal::WAL_FILE), bytes).unwrap();
    }

    /// Txn 1 inserts `(10, 100)` and commits at 5; txn 2 deletes base row
    /// 0 and commits at 6.
    fn two_txns() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                txn: 1,
                table: 0,
                row: vec![Value::I64(10), Value::I64(100)],
            },
            WalOp::Commit {
                txn: 1,
                commit_ts: 5,
            },
            WalOp::Delete {
                txn: 2,
                table: 0,
                row_id: 0,
            },
            WalOp::Commit {
                txn: 2,
                commit_ts: 6,
            },
        ]
    }

    #[test]
    fn duplicate_lsn_replay_is_idempotent() {
        let dir = tmpdir("duplsn");
        let o = two_txns();
        write_log(
            &dir,
            &[
                (1, o[0].clone()),
                (2, o[1].clone()),
                (2, o[1].clone()), // duplicated commit frame
                (3, o[2].clone()),
                (4, o[3].clone()),
            ],
        );
        let db = TxnDb::open(&dir, vec![("t", base_rel(3))]).unwrap();
        assert_eq!(db.delta_stats("t").unwrap(), (1, 1, 0), "applied once");
        assert_eq!(vals(&db), vec![(1, 0), (2, 0), (10, 100)]);
        // The log continues after the last LSN redone.
        assert_eq!(db.wal_stats().next_lsn, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_tail_is_dropped() {
        let dir = tmpdir("uncommitted");
        let o = two_txns();
        // Txn 2's delete, but no commit follows.
        write_log(
            &dir,
            &[(1, o[0].clone()), (2, o[1].clone()), (3, o[2].clone())],
        );
        let db = TxnDb::open(&dir, vec![("t", base_rel(3))]).unwrap();
        assert_eq!(
            db.delta_stats("t").unwrap(),
            (1, 0, 0),
            "uncommitted delete dropped"
        );
        let txn = db.begin().unwrap();
        assert_eq!(txn.id, 3, "txn 2's id still burned");
        db.abort(txn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_record_refolds_identically() {
        let dir = tmpdir("refold");
        let live = {
            let db = TxnDb::create(&dir, vec![("t", base_rel(3))]).unwrap();
            let mut w = db.begin().unwrap();
            db.insert(&mut w, "t", vec![Value::I64(10), Value::I64(100)])
                .unwrap();
            db.commit(w).unwrap();
            let mut w = db.begin().unwrap();
            db.delete_where(&mut w, "t", &eq(col(0), lit(0))).unwrap();
            db.commit(w).unwrap();
            db.merge("t").unwrap();
            let mut w = db.begin().unwrap();
            db.insert(&mut w, "t", vec![Value::I64(20), Value::I64(200)])
                .unwrap();
            db.commit(w).unwrap();
            table_state(&db, 0)
        };
        let db = TxnDb::open(&dir, vec![("t", base_rel(3))]).unwrap();
        let recovered = table_state(&db, 0);
        assert_eq!(recovered.0, live.0, "delta store field-for-field");
        assert_eq!(recovered.1, live.1, "merged base identical");
        assert_eq!(recovered.0.epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_and_torn_write_prefixes_recover() {
        // LSNs 1–2 are txn 1's insert and commit, 3–4 txn 2's delete and
        // commit: a crash at 4, or a write torn at 3, leaves txn 1 alone.
        for (tag, faults) in [
            ("crash", WalFaults::crash_at(4)),
            ("torn", WalFaults::torn_at(3, 6)),
        ] {
            let dir = tmpdir(&format!("prefix-{tag}"));
            {
                let cfg = TxnDbConfig {
                    faults,
                    ..TxnDbConfig::default()
                };
                let db = TxnDb::create_with(&dir, vec![("t", base_rel(3))], cfg).unwrap();
                let mut w = db.begin().unwrap();
                db.insert(&mut w, "t", vec![Value::I64(10), Value::I64(100)])
                    .unwrap();
                db.commit(w).unwrap();
                let mut w = db.begin().unwrap();
                db.delete_where(&mut w, "t", &eq(col(0), lit(0))).unwrap();
                assert!(db.commit(w).is_err(), "{tag}: the fault fires");
            }
            let db = TxnDb::open(&dir, vec![("t", base_rel(3))]).unwrap();
            assert_eq!(db.delta_stats("t").unwrap(), (1, 0, 0), "{tag}");
            // The log reopens at the end of the valid prefix and goes on.
            let mut w = db.begin().unwrap();
            db.delete_where(&mut w, "t", &eq(col(0), lit(1))).unwrap();
            db.commit(w).unwrap();
            drop(db);
            let db = TxnDb::open(&dir, vec![("t", base_rel(3))]).unwrap();
            assert_eq!(vals(&db), vec![(0, 0), (2, 0), (10, 100)], "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn a_commit_that_brings_a_value_rebases_and_recovery_repeats_it() {
        let dir = tmpdir("rebase-redo");
        let base = tagged_rel(DICT_MAX_UNIQUE as i64 + 76, 4);
        let live = {
            let db = TxnDb::create(&dir, vec![("t", Arc::clone(&base))]).unwrap();
            let mut next_id = 1000;
            insert_rows(&db, &mut next_id, 3, None);
            let (_, _, dicts) = table_state(&db, 0);
            assert_eq!(dicts[1], base.encoding(1).dict().unwrap().values());
            // The commit itself re-encodes the base, before any snapshot.
            insert_rows(&db, &mut next_id, 2, Some("fresh"));
            let state = table_state(&db, 0);
            assert!(state.2[1].iter().any(|v| v == "fresh"));
            assert_eq!(state.1, base.gather(), "the same rows, re-encoded");
            state
        };
        let db = TxnDb::open(&dir, vec![("t", Arc::clone(&base))]).unwrap();
        assert_eq!(table_state(&db, 0), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `(id, name)` over four rows, `name` dictionary-encoded.
    fn named_rel() -> Arc<Relation> {
        let schema = Schema::new(vec![("id", DataType::I64), ("name", DataType::Str)]);
        let data = Batch::from_columns(vec![
            Column::I64((0..4).collect()),
            Column::Str(["ann", "bob", "ann", "cy"].into_iter().collect()),
        ]);
        let rel = Relation::single(schema, data).dict_encoded();
        assert!(rel.encoding(1).dict().is_some());
        Arc::new(rel)
    }

    /// Ten committed inserts of `(i64, 14-character name)` into `named_rel`
    /// under `pool`; returns what the pool held before the database was
    /// dropped.
    fn ten_named_rows(dir: &Path, pool: &Arc<MemPool>) -> u64 {
        let cfg = TxnDbConfig {
            pool: Some(Arc::clone(pool)),
            ..TxnDbConfig::default()
        };
        let db = TxnDb::create_with(dir, vec![("t", named_rel())], cfg).unwrap();
        for i in 0..10 {
            let mut w = db.begin().unwrap();
            let name = format!("customer-{i:05}");
            assert_eq!(name.len(), 14);
            db.insert(&mut w, "t", vec![Value::I64(100 + i), Value::Str(name)])
                .unwrap();
            db.commit(w).unwrap();
        }
        pool.reserved()
    }

    #[test]
    fn recovery_reserves_what_the_live_engine_held() {
        let dir = tmpdir("reserve-redo");
        let pool = MemPool::new(1 << 20);
        let live = ten_named_rows(&dir, &pool);
        assert_eq!(live, 10 * (8 + 1 + 14), "row_bytes per insert");
        assert_eq!(pool.reserved(), 0, "dropping the database releases it");
        let cfg = TxnDbConfig {
            pool: Some(Arc::clone(&pool)),
            ..TxnDbConfig::default()
        };
        let db = TxnDb::open_with(&dir, vec![("t", named_rel())], cfg).unwrap();
        assert_eq!(pool.reserved(), live);
        db.merge("t").unwrap();
        assert_eq!(pool.reserved(), 0, "the merge releases all of it");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_pool_too_small_for_the_logged_delta_fails_recovery() {
        let dir = tmpdir("reserve-short");
        let live = ten_named_rows(&dir, &MemPool::new(1 << 20));
        let pool = MemPool::new(live - 1);
        let cfg = TxnDbConfig {
            pool: Some(Arc::clone(&pool)),
            ..TxnDbConfig::default()
        };
        match TxnDb::open_with(&dir, vec![("t", named_rel())], cfg) {
            Err(TxnError::Memory(_)) => {}
            Err(e) => panic!("expected a memory error, got {e:?}"),
            Ok(_) => panic!("expected a memory error, got a database"),
        }
        assert_eq!(pool.reserved(), 0, "nothing retained");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_violations_abort_before_buffering() {
        let dir = tmpdir("schema");
        let db = TxnDb::create(&dir, vec![("t", base_rel(1))]).unwrap();
        let mut txn = db.begin().unwrap();
        assert!(matches!(
            db.insert(&mut txn, "t", vec![Value::I64(1)]),
            Err(TxnError::Schema(_))
        ));
        assert!(matches!(
            db.insert(&mut txn, "t", vec![Value::I64(1), Value::Str("x".into())]),
            Err(TxnError::Schema(_))
        ));
        assert!(matches!(
            db.insert(&mut txn, "missing", vec![]),
            Err(TxnError::UnknownTable(_))
        ));
        assert!(txn.is_read_only(), "failed inserts buffered nothing");
        db.abort(txn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_and_a_merge_each_install_a_new_relation() {
        let dir = tmpdir("newrel");
        let db = TxnDb::create(&dir, vec![("t", base_rel(1))]).unwrap();
        let r1 = Arc::clone(db.snapshot_catalog().get("t").unwrap());
        let mut w = db.begin().unwrap();
        db.insert(&mut w, "t", vec![Value::I64(4), Value::I64(4)])
            .unwrap();
        db.commit(w).unwrap();
        let r2 = Arc::clone(db.snapshot_catalog().get("t").unwrap());
        assert!(!Arc::ptr_eq(&r1, &r2), "a commit installs a new relation");
        db.merge("t").unwrap();
        let r3 = Arc::clone(db.snapshot_catalog().get("t").unwrap());
        assert!(!Arc::ptr_eq(&r2, &r3), "a merge installs a new relation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_delta_reads_reuse_the_base_arc() {
        let dir = tmpdir("basearc");
        let base = base_rel(4);
        let db = TxnDb::create(&dir, vec![("t", Arc::clone(&base))]).unwrap();
        let txn = db.begin().unwrap();
        let rel = db.relation_for(&txn, "t").unwrap();
        assert!(
            Arc::ptr_eq(&rel, &base),
            "read-only path must hand back the load-time relation itself"
        );
        db.abort(txn);
        let cat = db.snapshot_catalog();
        assert!(Arc::ptr_eq(cat.get("t").unwrap(), &base));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_leaves_the_other_tables_snapshots_alone() {
        let dir = tmpdir("untouched");
        let db = TxnDb::create(&dir, vec![("a", base_rel(4)), ("b", base_rel(4))]).unwrap();
        let insert = |table: &str, id: i64| {
            let mut w = db.begin().unwrap();
            db.insert(&mut w, table, vec![Value::I64(id), Value::I64(id)])
                .unwrap();
            db.commit(w).unwrap();
        };
        insert("a", 10);
        insert("b", 11);
        let before = db.snapshot_catalog();
        let b = Arc::clone(before.get("b").unwrap());
        let stats = b.stats();
        insert("a", 12);
        let after = db.snapshot_catalog();
        assert!(!Arc::ptr_eq(
            before.get("a").unwrap(),
            after.get("a").unwrap()
        ));
        assert!(
            Arc::ptr_eq(&b, after.get("b").unwrap()),
            "b was not written"
        );
        assert!(Arc::ptr_eq(&stats, &after.get("b").unwrap().stats()));
        // A commit to `b` does build it anew.
        insert("b", 13);
        let last = db.snapshot_catalog();
        assert!(!Arc::ptr_eq(&b, last.get("b").unwrap()));
        assert_eq!(last.get("b").unwrap().total_rows(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- in-place matching against the materialise-then-filter oracle ----

    /// `(id, tag, note, v)` over `parts` hash partitions: `tag` repeats
    /// five values and dictionary-encodes, `note` is unique per row and —
    /// with `n` past the dictionary bound — stays plain.
    fn tagged_rel(n: i64, parts: usize) -> Arc<Relation> {
        let schema = Schema::new(vec![
            ("id", DataType::I64),
            ("tag", DataType::Str),
            ("note", DataType::Str),
            ("v", DataType::I64),
        ]);
        let data = Batch::from_columns(vec![
            Column::I64((0..n).collect()),
            Column::Str((0..n).map(|i| format!("tag{}", i % 5)).collect()),
            Column::Str((0..n).map(|i| format!("note-{i}")).collect()),
            Column::I64((0..n).map(|i| i % 10).collect()),
        ]);
        let rel = Relation::partitioned(
            schema,
            &data,
            PartitionBy::Hash { column: 0 },
            parts,
            Placement::FirstTouch,
            &Topology::laptop(),
        )
        .dict_encoded();
        assert!(rel.partition(0).data.column(1).as_dict().is_some());
        assert!(rel.partition(0).data.column(2).as_dict().is_none());
        Arc::new(rel)
    }

    const KV: WorkloadSpec = WorkloadSpec {
        seed: 0,
        txns: 0,
        keys: 24,
    };

    /// Draws committed and own writes for the `t` table; `"fresh"` is
    /// outside the base dictionary.
    struct TaggedOps {
        rng: Lcg,
        next_id: i64,
    }

    impl TaggedOps {
        fn tag(&mut self) -> String {
            match self.rng.below(6) {
                5 => "fresh".to_owned(),
                k => format!("tag{k}"),
            }
        }

        fn some_id(&mut self) -> i64 {
            // Mostly base rows, sometimes an earlier insert.
            match self.rng.below(4) {
                0 => 1000 + self.rng.below((self.next_id - 1000).max(1) as u64) as i64,
                _ => self.rng.below(60) as i64,
            }
        }

        /// One random write of `txn` to `t`.
        fn write(&mut self, db: &TxnDb, txn: &mut Txn) {
            match self.rng.below(5) {
                0 | 1 => {
                    let id = self.next_id;
                    self.next_id += 1;
                    let row = vec![
                        Value::I64(id),
                        Value::Str(self.tag()),
                        Value::Str(format!("note-{id}")),
                        Value::I64(self.rng.below(10) as i64),
                    ];
                    db.insert(txn, "t", row).unwrap();
                }
                2 => {
                    let id = self.some_id();
                    db.delete_where(txn, "t", &eq(col(0), lit(id))).unwrap();
                }
                3 => {
                    let (id, tag) = (self.some_id(), self.tag());
                    db.update_where(txn, "t", &eq(col(0), lit(id)), &[(1, Value::Str(tag))])
                        .unwrap();
                }
                _ => {
                    let (tag, v) = (self.tag(), self.rng.below(10) as i64);
                    let pred = and(eq(col(1), lits(&tag)), lt(col(3), lit(3)));
                    db.update_where(txn, "t", &pred, &[(3, Value::I64(v))])
                        .unwrap();
                }
            }
        }

        /// `n` single-write transactions on `t`, each beside one step of
        /// the seeded `kv` workload.
        fn commit(&mut self, db: &TxnDb, kv: &mut Lcg, from: usize, n: usize) {
            for i in from..from + n {
                let mut w = db.begin().unwrap();
                self.write(db, &mut w);
                // A first-committer-wins abort is part of a random history.
                let _ = db.commit(w);
                assert!(run_step(db, &KV, kv, i));
            }
        }
    }

    /// A random history — commits, one merge, more commits — with an
    /// open transaction in the middle of it that has its own inserts,
    /// snapshot deletes, deleted pending rows and updates, and commits of
    /// others after its snapshot.
    fn random_history(seed: u64, tag: &str) -> (PathBuf, TxnDb, Txn) {
        let dir = tmpdir(&format!("{tag}-{seed}"));
        let rows = DICT_MAX_UNIQUE as i64 + 76;
        let tables = vec![("kv", kv_relation(KV.keys)), ("t", tagged_rel(rows, 4))];
        let db = TxnDb::create(&dir, tables).unwrap();
        let mut ops = TaggedOps {
            rng: Lcg(seed ^ 0x5eed),
            next_id: 1000,
        };
        let mut kv = Lcg(seed);
        ops.commit(&db, &mut kv, 0, 10);
        db.merge_all().unwrap();
        ops.commit(&db, &mut kv, 10, 10);
        let mut x = db.begin().unwrap();
        ops.commit(&db, &mut kv, 20, 6);
        for _ in 0..6 {
            ops.write(&db, &mut x);
        }
        db.insert(&mut x, "kv", vec![Value::I64(500), Value::I64(5)])
            .unwrap();
        db.delete_where(&mut x, "kv", &lt(col(0), lit(3))).unwrap();
        db.update_where(&mut x, "kv", &eq(col(0), lit(500)), &[(1, Value::I64(6))])
            .unwrap();
        (dir, db, x)
    }

    fn predicates() -> Vec<(&'static str, Expr)> {
        vec![
            ("kv", lt(col(0), lit(12))),
            ("kv", ge(col(1), lit(1))),
            ("kv", eq(col(0), lit(500))),
            ("t", and(ge(col(0), lit(20)), lt(col(3), lit(6)))),
            ("t", eq(col(1), lits("tag1"))),
            ("t", eq(col(1), lits("fresh"))),
            ("t", ge(col(1), lits("tag3"))),
            ("t", prefix(col(2), "note-1")),
            ("t", like(col(2), "%-10%")),
            ("t", and(eq(col(1), lits("tag2")), prefix(col(2), "note-2"))),
        ]
    }

    /// What the retained materialise-then-filter route matches.
    fn oracle(db: &TxnDb, txn: &Txn, table: &str, pred: &Expr) -> Vec<(u64, Vec<Value>)> {
        let (rows, ids, _) = db.visible_with_overlay(txn, table).unwrap();
        let mask = pred.eval(&rows, 0..rows.rows());
        (0..rows.rows())
            .filter(|&m| mask.as_bool()[m])
            .map(|m| (ids[m], rows.row(m)))
            .collect()
    }

    fn in_place(db: &TxnDb, txn: &Txn, table: &str, pred: &Expr) -> Vec<(u64, Vec<Value>)> {
        let (t, base) = db.table_base(table).unwrap();
        db.matching_rows(txn, t, base, pred, true)
    }

    /// `txn` as a matcher with one visibility rule knocked out would see
    /// it.
    fn doctored(txn: &Txn, begin_ts: u64, keep_own_deletes: bool) -> Txn {
        Txn {
            id: txn.id,
            begin_ts,
            epochs: txn.epochs.clone(),
            ops: txn.ops.clone(),
            pending: txn.pending.clone(),
            pending_dead: txn.pending_dead.clone(),
            snapshot_deletes: if keep_own_deletes {
                txn.snapshot_deletes.clone()
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn in_place_matching_equals_materialise_then_filter() {
        let (mut blind_to_own_deletes, mut blind_to_timestamps) = (0, 0);
        for seed in 0..48 {
            let (dir, db, x) = random_history(seed, "match");
            assert!(!x.snapshot_deletes.is_empty() && !x.pending.is_empty());
            for (table, pred) in predicates() {
                let want = oracle(&db, &x, table, &pred);
                assert_eq!(
                    in_place(&db, &x, table, &pred),
                    want,
                    "seed {seed}, {table}: {pred:?}"
                );
                // Teeth: a matcher that ignores the transaction's own
                // deletes, or sees rows and tombstones committed after
                // its snapshot, must not pass for the real one.
                let no_own = doctored(&x, x.begin_ts, false);
                blind_to_own_deletes += usize::from(in_place(&db, &no_own, table, &pred) != want);
                let no_ts = doctored(&x, u64::MAX, true);
                blind_to_timestamps += usize::from(in_place(&db, &no_ts, table, &pred) != want);
            }
            db.abort(x);
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(blind_to_own_deletes > 40, "{blind_to_own_deletes}");
        assert!(blind_to_timestamps > 40, "{blind_to_timestamps}");
    }

    #[test]
    fn deletes_need_no_row_values() {
        let (dir, db, x) = random_history(7, "nodecode");
        for (table, pred) in predicates() {
            let (t, base) = db.table_base(table).unwrap();
            let ids: Vec<u64> = oracle(&db, &x, table, &pred)
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            let got = db.matching_rows(&x, t, base, &pred, false);
            assert!(got.iter().all(|(_, row)| row.is_empty()));
            assert_eq!(got.into_iter().map(|(id, _)| id).collect::<Vec<_>>(), ids);
        }
        db.abort(x);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- structural sharing ----------------------------------------------

    #[test]
    fn snapshots_share_untouched_partitions_and_their_statistics() {
        let dir = tmpdir("sharing");
        let base = tagged_rel(6400, 64);
        let db = TxnDb::create(&dir, vec![("t", Arc::clone(&base))]).unwrap();
        let mut w = db.begin().unwrap();
        assert_eq!(
            db.delete_where(&mut w, "t", &eq(col(0), lit(77))).unwrap(),
            1
        );
        db.commit(w).unwrap();

        let cat = db.snapshot_catalog();
        let snap = cat.get("t").unwrap();
        assert_eq!(snap.total_rows(), 6399);
        assert_eq!(snap.partitions().len(), 64);
        let shared = (snap.partitions().iter().zip(base.partitions()))
            .filter(|(s, b)| Arc::ptr_eq(&s.data, &b.data))
            .count();
        assert_eq!(
            shared, 63,
            "only the partition of the deleted row is rebuilt"
        );

        // One snapshot per table state: the same relation until the
        // next commit, for every way of asking.
        let again = db.snapshot_catalog();
        assert!(Arc::ptr_eq(snap, again.get("t").unwrap()));
        assert!(Arc::ptr_eq(snap, &db.latest_relation("t").unwrap()));
        let reader = db.begin().unwrap();
        assert!(Arc::ptr_eq(snap, &db.relation_for(&reader, "t").unwrap()));
        db.abort(reader);

        // The next snapshot rebuilds only what its commit touched: the
        // partition rebuilt for the first delete is taken over as is.
        let mut w = db.begin().unwrap();
        let moved = db
            .update_where(&mut w, "t", &eq(col(0), lit(78)), &[(3, Value::I64(42))])
            .unwrap();
        assert_eq!(moved, 1);
        db.commit(w).unwrap();
        let next = db.latest_relation("t").unwrap();
        assert_eq!(next.partitions().len(), 65, "plus the delta partition");
        let unchanged = (next.partitions().iter().zip(snap.partitions()))
            .filter(|(n, s)| Arc::ptr_eq(&n.data, &s.data))
            .count();
        assert_eq!(unchanged, 63);

        // A merge folds the delta in and still shares what it can.
        db.merge("t").unwrap();
        let merged = db.latest_relation("t").unwrap();
        assert_eq!(merged.total_rows(), 6399);
        let kept = (merged.partitions().iter().zip(base.partitions()))
            .filter(|(m, b)| Arc::ptr_eq(&m.data, &b.data))
            .count();
        assert_eq!(kept, 62);

        // Past the drift bound a snapshot fills statistics of its own from
        // its partitions, shared ones included, the last one too (it holds
        // the row inserted beside the deletes), equal to statistics
        // computed from scratch.
        let cut = 2 * bound(6400);
        let mut w = db.begin().unwrap();
        let gone = db
            .delete_where(&mut w, "t", &lt(col(0), lit(cut as i64)))
            .unwrap();
        assert_eq!(gone, cut - 1);
        let row = vec![
            Value::I64(99_999),
            Value::Str("tag4".into()),
            Value::Str("note-99999".into()),
            Value::I64(9),
        ];
        db.insert(&mut w, "t", row).unwrap();
        db.commit(w).unwrap();
        let past = db.latest_relation("t").unwrap();
        assert!(!Arc::ptr_eq(&past.stats(), &merged.stats()));
        assert_eq!(past.partitions().last().unwrap().data.rows(), 1);
        assert_stats_from_scratch(&past);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `rel`'s statistics equal statistics computed from scratch, field
    /// by field, and every partition stores each column in the relation's
    /// encoding.
    fn assert_stats_from_scratch(rel: &Relation) {
        let got = rel.stats();
        let want = TableStats::from_partitions(rel.partitions().iter().map(|p| &*p.data));
        assert_eq!(got.rows, want.rows);
        assert_eq!(got.rows, rel.total_rows() as u64);
        for (c, (g, w)) in got.columns.iter().zip(&want.columns).enumerate() {
            assert_eq!(g, w, "column {c}");
            let stored = |p: &Partition| rel.encoding(c).stores(p.data.column(c));
            assert!(rel.partitions().iter().all(stored), "column {c}");
        }
        assert!(*got == want);
    }

    // ---- statistics within the drift bound --------------------------------

    /// Commit `n` inserts of fresh ids into `t` (tags from its dictionary,
    /// or `tag` when given) as one transaction.
    fn insert_rows(db: &TxnDb, next_id: &mut i64, n: usize, tag: Option<&str>) {
        let mut w = db.begin().unwrap();
        for _ in 0..n {
            let id = *next_id;
            *next_id += 1;
            let tag = tag.map_or_else(|| format!("tag{}", id % 5), str::to_owned);
            let row = vec![
                Value::I64(id),
                Value::Str(tag),
                Value::Str(format!("note-{id}")),
                Value::I64(id % 10),
            ];
            db.insert(&mut w, "t", row).unwrap();
        }
        db.commit(w).unwrap();
    }

    /// [`STATS_DRIFT`] of `rows`.
    fn bound(rows: usize) -> usize {
        (STATS_DRIFT * rows as f64) as usize
    }

    /// `t` over 6,400 rows in 64 partitions.
    fn drift_db(tag: &str) -> (PathBuf, TxnDb, Arc<Relation>) {
        let dir = tmpdir(tag);
        let base = tagged_rel(6400, 64);
        let db = TxnDb::create(&dir, vec![("t", Arc::clone(&base))]).unwrap();
        (dir, db, base)
    }

    #[test]
    fn below_the_drift_bound_snapshots_share_their_donors_statistics() {
        let (dir, db, base) = drift_db("drift-share");
        let (stats, b) = (base.stats(), bound(6400));
        let mut next_id = 10_000;
        // Three commits of b/5 inserts and one of b/10 deletes.
        for _ in 0..3 {
            insert_rows(&db, &mut next_id, b / 5, None);
            let snap = db.latest_relation("t").unwrap();
            assert!(!Arc::ptr_eq(&snap, &base));
            assert!(Arc::ptr_eq(&snap.stats(), &stats));
        }
        let mut w = db.begin().unwrap();
        let gone = db
            .delete_where(&mut w, "t", &lt(col(0), lit(b as i64 / 10)))
            .unwrap();
        db.commit(w).unwrap();
        let snap = db.snapshot_catalog().get("t").cloned().unwrap();
        // Totals are the snapshot's own; only the statistics lag.
        assert_eq!(snap.total_rows(), 6400 + 3 * (b / 5) - gone);
        assert_eq!(snap.stats().rows, 6400);
        assert!(Arc::ptr_eq(&snap.stats(), &stats));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_commit_that_crosses_the_drift_bound_starts_statistics_afresh() {
        let (dir, db, base) = drift_db("drift-cross");
        let (b, mut next_id) = (bound(6400), 10_000);
        insert_rows(&db, &mut next_id, b * 9 / 10, None);
        let below = db.latest_relation("t").unwrap();
        assert!(Arc::ptr_eq(&below.stats(), &base.stats()));
        insert_rows(&db, &mut next_id, b / 2, None);
        let crossed = db.latest_relation("t").unwrap();
        assert!(!Arc::ptr_eq(&crossed.stats(), &below.stats()));
        assert_stats_from_scratch(&crossed);
        // The count starts again from the crossing snapshot: the next
        // small commit shares its statistics.
        insert_rows(&db, &mut next_id, b / 10, None);
        let after = db.latest_relation("t").unwrap();
        assert!(Arc::ptr_eq(&after.stats(), &crossed.stats()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_merge_carries_the_statistics_and_their_drift() {
        let (dir, db, base) = drift_db("drift-merge");
        let (b, mut next_id) = (bound(6400), 10_000);
        insert_rows(&db, &mut next_id, b * 9 / 20, None);
        let snap = db.latest_relation("t").unwrap();
        // Committed after the last snapshot, so the merge counts them too.
        insert_rows(&db, &mut next_id, b * 9 / 20, None);
        db.merge("t").unwrap();
        let merged = db.latest_relation("t").unwrap();
        assert_eq!(merged.total_rows(), 6400 + 2 * (b * 9 / 20));
        assert!(Arc::ptr_eq(&merged.stats(), &snap.stats()));
        assert!(Arc::ptr_eq(&merged.stats(), &base.stats()));
        // What changed before the merge and b/2 rows after it cross the
        // bound: the merge did not clear the count.
        insert_rows(&db, &mut next_id, b / 2, None);
        let crossed = db.latest_relation("t").unwrap();
        assert!(!Arc::ptr_eq(&crossed.stats(), &base.stats()));
        assert_stats_from_scratch(&crossed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_value_outside_the_base_dictionary_ends_inheritance() {
        let (dir, db, base) = drift_db("drift-rebase");
        let mut next_id = 10_000;
        insert_rows(&db, &mut next_id, 10, None);
        let shared = db.latest_relation("t").unwrap();
        assert!(Arc::ptr_eq(&shared.stats(), &base.stats()));
        // One row re-encodes every partition: the old statistics'
        // dictionary no longer describes the codes.
        insert_rows(&db, &mut next_id, 1, Some("fresh"));
        let rebased = db.latest_relation("t").unwrap();
        assert!(!Arc::ptr_eq(&rebased.stats(), &base.stats()));
        assert_stats_from_scratch(&rebased);
        let dict = rebased.encoding(1).dict().expect("still encoded");
        assert!(dict.code_of("fresh").is_some());
        // Inheritance resumes from the re-encoded snapshot.
        insert_rows(&db, &mut next_id, 10, None);
        let after = db.latest_relation("t").unwrap();
        assert!(Arc::ptr_eq(&after.stats(), &rebased.stats()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merges_fold_into_a_bounded_tail_and_keep_untouched_partitions() {
        for seed in 1..=4u64 {
            let dir = tmpdir(&format!("tail{seed}"));
            let base = tagged_rel(3200, 32);
            let db = TxnDb::create(&dir, vec![("t", Arc::clone(&base))]).unwrap();
            let mut rng = Lcg(seed);
            let (mut next_id, mut live) = (10_000i64, 3200usize);
            // Rows merges folded in, and the partition count after the last.
            let (mut merged_rows, mut parts) = (0usize, 32usize);
            for round in 0..80 {
                let mut w = db.begin().unwrap();
                for _ in 0..1 + rng.below(4) {
                    let id = rng.below(next_id as u64) as i64;
                    // Tags from the dictionary, so no rebase rewrites
                    // every partition.
                    let tag = Value::Str(format!("tag{}", rng.below(5)));
                    match rng.below(4) {
                        0 => live -= db.delete_where(&mut w, "t", &eq(col(0), lit(id))).unwrap(),
                        1 => {
                            db.update_where(&mut w, "t", &eq(col(0), lit(id)), &[(1, tag)])
                                .unwrap();
                        }
                        _ => {
                            let note = Value::Str(format!("note-{next_id}"));
                            let row = vec![Value::I64(next_id), tag, note, Value::I64(id % 10)];
                            db.insert(&mut w, "t", row).unwrap();
                            next_id += 1;
                            live += 1;
                        }
                    }
                }
                db.commit(w).unwrap();
                if round % 3 != 2 {
                    continue;
                }
                // A snapshot appends its visible delta rows as one last
                // partition: the rows this merge folds.
                let before = db.latest_relation("t").unwrap();
                if before.partitions().len() > parts {
                    merged_rows += before.partitions().last().unwrap().data.rows();
                }
                db.merge("t").unwrap();
                let merged = db.latest_relation("t").unwrap();
                parts = merged.partitions().len();
                assert_eq!(merged.total_rows(), live);
                let mean = merged.total_rows() / parts;
                assert!(
                    parts <= 32 + merged_rows.div_ceil(mean) + 1,
                    "seed {seed} round {round}: {parts} partitions after {merged_rows} merged rows"
                );
                for (i, (m, b)) in merged
                    .partitions()
                    .iter()
                    .zip(base.partitions())
                    .enumerate()
                {
                    if m.data.rows() == b.data.rows() {
                        assert!(Arc::ptr_eq(&m.data, &b.data), "partition {i} untouched");
                    }
                }
            }
            // Replay folds the same tails.
            let rows = |db: &TxnDb| -> Vec<usize> {
                let rel = db.latest_relation("t").unwrap();
                rel.partitions().iter().map(|p| p.data.rows()).collect()
            };
            let live_parts = rows(&db);
            drop(db);
            let db = TxnDb::open(&dir, vec![("t", Arc::clone(&base))]).unwrap();
            assert_eq!(rows(&db), live_parts);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
