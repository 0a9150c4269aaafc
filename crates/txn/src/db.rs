//! The transactional database: MVCC begin/commit over delta stores,
//! group-commit WAL durability, and crash recovery.
//!
//! One [`TxnDb`] owns a fixed set of tables, each an immutable base
//! [`Relation`] plus a committed [`DeltaStore`]. Transactions buffer
//! their writes privately and apply them — in one deterministic
//! sequence, mirrored record-for-record in the WAL — at commit, under
//! a single commit lock that also serializes timestamp assignment, so
//! the applied state is always a timestamp-prefix and the log replays
//! to exactly the in-memory delta stores (`==`, field for field).
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
//! partition the delta did not touch ([`DeltaStore::snapshot`]); and the
//! snapshot [`Catalog`] of a version is built once, by whoever asks
//! first after a commit or merge, and handed to everyone until the next
//! one. The database mutex is never held for work proportional to a
//! table.
//!
//! **Memory accounting**: committed delta bytes are reserved against a
//! [`MemBudget`] (optionally pool-backed) as they apply and released
//! when a merge folds them into base partitions — the crash sweep
//! asserts the pool drains to zero.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use morsel_core::{EngineError, MemBudget, MemPool};
use morsel_exec::predicate::Predicate;
use morsel_exec::Expr;
use morsel_storage::{
    delta_row_id, recovery, row_bytes, Batch, Catalog, DeltaStore, Relation, Schema, Value, Wal,
    WalError, WalFaults, WalOp, WalStats,
};

use crate::manager::{SiMode, TxnManager};

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
    /// The MVCC snapshot this transaction reads at.
    pub fn snapshot_ts(&self) -> u64 {
        self.begin_ts
    }

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

struct TableState {
    name: String,
    base: Arc<Relation>,
    delta: DeltaStore,
    /// Delta bytes currently reserved against the budget.
    reserved: u64,
    /// The newest catalog snapshot of this epoch, kept so that the next
    /// one re-materialises only the partitions touched since.
    latest: Option<Arc<Relation>>,
}

impl TableState {
    /// The relation a reader at `ts` scans: the base itself while no
    /// delta effect is visible, otherwise a snapshot sharing the
    /// untouched base partitions (and, given an older snapshot of this
    /// epoch as `prev`, its still-current re-materialised ones).
    fn snapshot(&self, ts: u64, prev: Option<&Relation>) -> Arc<Relation> {
        if self.delta.snapshot_is_base(ts) {
            Arc::clone(&self.base)
        } else {
            Arc::new(self.delta.snapshot(&self.base, ts, prev))
        }
    }
}

struct Inner {
    tables: Vec<TableState>,
    by_name: HashMap<String, u32>,
    /// Highest commit timestamp applied to the delta stores.
    last_applied_ts: u64,
    /// Monotonic change counter (last mutating WAL LSN): stamps
    /// snapshot catalogs so plan/result caches invalidate on commit
    /// and merge.
    version: u64,
    poisoned: bool,
    /// The snapshot catalog of `version`: built on first use after a
    /// commit or merge (both clear it), then shared by DML binding,
    /// session refreshes and reads alike.
    catalog: Option<Catalog>,
}

impl Inner {
    /// The catalog of the latest committed snapshot of every table,
    /// stamped with a strictly advancing version (base table count +
    /// the commit/merge counter). A table without visible delta effects
    /// is the load-time base `Arc` itself.
    fn catalog(&mut self) -> &Catalog {
        let Inner {
            tables,
            last_applied_ts,
            version,
            catalog,
            ..
        } = self;
        catalog.get_or_insert_with(|| {
            let mut cat = Catalog::new();
            for state in tables.iter_mut() {
                // Pay for a value outside the base dictionaries once,
                // not in every snapshot until the next merge.
                if let Some(rebased) = state.delta.rebased(&state.base) {
                    state.base = Arc::new(rebased);
                }
                let rel = state.snapshot(*last_applied_ts, state.latest.as_deref());
                cat.add(&state.name, Arc::clone(&rel));
                state.latest = Some(rel);
            }
            let v = cat.version() + *version;
            cat.set_version(v);
            cat
        })
    }

    /// The latest committed snapshot of a registered table.
    fn latest(&mut self, table: &str) -> Arc<Relation> {
        Arc::clone(self.catalog().get(table).expect("a registered table"))
    }
}

/// Construction knobs for [`TxnDb`].
#[derive(Default)]
pub struct TxnDbConfig {
    /// Shared memory pool for delta accounting (tests assert it drains
    /// to zero).
    pub pool: Option<Arc<MemPool>>,
    /// Deterministic WAL fault schedule (chaos tests).
    pub faults: WalFaults,
    /// Isolation-breaking knob for the checker's teeth test.
    pub mode: SiMode,
}

/// A transactional database over immutable column partitions.
pub struct TxnDb {
    dir: PathBuf,
    wal: Wal,
    mgr: TxnManager,
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
            0,
            0,
            cfg.pool,
            cfg.mode,
        ))
    }

    /// Open an existing database: scan the WAL, truncate the torn
    /// tail, redo the committed prefix, and continue the log where the
    /// valid records end. `tables` must be the same load-time base
    /// relations, in the same registration order, as when the log was
    /// written.
    pub fn open(dir: &Path, tables: Vec<(&str, Arc<Relation>)>) -> Result<TxnDb, TxnError> {
        TxnDb::open_with(dir, tables, TxnDbConfig::default())
    }

    pub fn open_with(
        dir: &Path,
        tables: Vec<(&str, Arc<Relation>)>,
        cfg: TxnDbConfig,
    ) -> Result<TxnDb, TxnError> {
        let scan = recovery::scan_wal(dir)?;
        let bases: Vec<Arc<Relation>> = tables.iter().map(|(_, r)| Arc::clone(r)).collect();
        let st = recovery::replay(&scan.records, &bases, 0);
        let wal = Wal::reopen(dir, scan.valid_bytes, st.applied_lsn + 1)?.with_faults(cfg.faults);
        let mut state = tables_to_state(tables);
        for (i, t) in state.iter_mut().enumerate() {
            t.base = Arc::clone(&st.bases[i]);
            t.delta = st.deltas[i].clone();
        }
        Ok(TxnDb::assemble(
            dir,
            wal,
            state,
            st.last_commit_ts,
            st.next_txn,
            st.applied_lsn,
            st.applied_lsn,
            cfg.pool,
            cfg.mode,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        dir: &Path,
        wal: Wal,
        mut tables: Vec<TableState>,
        last_ts: u64,
        next_txn: u64,
        version: u64,
        _applied_lsn: u64,
        pool: Option<Arc<MemPool>>,
        mode: SiMode,
    ) -> TxnDb {
        let budget = MemBudget::new(None, pool);
        for t in &mut tables {
            let bytes = t.delta.approx_bytes();
            if bytes > 0 {
                // Recovered deltas re-reserve their footprint; the pool
                // is sized by tests, so failure here is a test bug.
                budget
                    .try_reserve(bytes)
                    .expect("recovered delta exceeds the configured pool");
                t.reserved = bytes;
            }
        }
        let by_name = tables
            .iter()
            .enumerate()
            .map(|(i, t)| (t.name.clone(), i as u32))
            .collect();
        let mgr = TxnManager::new(mode);
        mgr.restore(next_txn, last_ts);
        TxnDb {
            dir: dir.to_path_buf(),
            wal,
            mgr,
            inner: parking_lot::Mutex::new(Inner {
                tables,
                by_name,
                last_applied_ts: last_ts,
                version,
                poisoned: false,
                catalog: None,
            }),
            budget,
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn mode(&self) -> SiMode {
        self.mgr.mode()
    }

    pub fn is_poisoned(&self) -> bool {
        self.inner.lock().poisoned || self.wal.is_poisoned()
    }

    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Current change counter (see `Inner::version`); strictly advances
    /// on every commit and merge.
    pub fn version(&self) -> u64 {
        self.inner.lock().version
    }

    /// Delta bytes currently reserved against the budget/pool.
    pub fn reserved_bytes(&self) -> u64 {
        self.budget.reserved()
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
        let inner = self.inner.lock();
        if inner.poisoned {
            return Err(TxnError::Poisoned);
        }
        Ok(Txn {
            id: self.mgr.next_txn_id(),
            begin_ts: inner.last_applied_ts,
            epochs: inner.tables.iter().map(|t| t.delta.epoch()).collect(),
            ops: Vec::new(),
            pending: Vec::new(),
            pending_dead: std::collections::HashSet::new(),
            snapshot_deletes: Vec::new(),
        })
    }

    /// The timestamp this transaction's reads resolve at (the begin
    /// snapshot — or, under the broken [`SiMode::ReadLatest`], whatever
    /// is committed right now).
    fn read_ts(&self, inner: &Inner, txn: &Txn) -> u64 {
        if self.mgr.reads_pin_snapshot() {
            txn.begin_ts
        } else {
            inner.last_applied_ts
        }
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
        let ts = self.read_ts(&inner, txn);
        let state = &inner.tables[t as usize];
        // Copy the delta out so the table is decoded without the lock.
        let (base, delta) = (Arc::clone(&state.base), state.delta.clone());
        drop(inner);
        let (mut rows, mut ids) = delta.visible_rows(&base, ts);
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
        // Compiled once per statement; base partitions, delta rows and
        // pending rows all carry the table's column types.
        let pred = Predicate::compile(pred, &base.schema().data_types());
        let (base_hits, delta_hits) = loop {
            let mut hits: Vec<(u64, usize, u32)> = Vec::new();
            let mut start = 0u64;
            for (pi, p) in base.partitions().iter().enumerate() {
                let rows = pred.select(&p.data, 0..p.data.rows());
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
            let ts = self.read_ts(&inner, txn);
            let live = |id: u64| state.delta.visible(id, ts) && !own_deletes.contains(&id);
            hits.retain(|&(id, _, _)| live(id));
            let rows = state.delta.rows();
            let delta_hits: Vec<(u64, Vec<Value>)> = pred
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
            let mut rows = Batch::empty(&base.schema().data_types());
            for &idx in &pending {
                rows.push_row(txn.pending[idx].1.clone());
            }
            out.extend(
                pred.select(&rows, 0..rows.rows())
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
    pub fn commit(&self, txn: Txn) -> Result<u64, TxnError> {
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
            if self.mgr.detect_conflicts() {
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
            }
            let commit_ts = self.mgr.next_commit_ts();
            // Resolve pending-insert indices to the delta row ids they
            // will occupy — deterministic, so WAL replay reproduces
            // identical numbering.
            let mut next_row: Vec<u64> = inner
                .tables
                .iter()
                .map(|t| t.delta.delta_rows() as u64)
                .collect();
            let mut pending_ids: HashMap<usize, u64> = HashMap::new();
            let mut wal_ops = Vec::with_capacity(txn.ops.len() + 1);
            for op in &txn.ops {
                match op {
                    BufOp::Insert { table, idx } => {
                        let id = delta_row_id(next_row[*table as usize] as usize);
                        next_row[*table as usize] += 1;
                        pending_ids.insert(*idx, id);
                        wal_ops.push(WalOp::Insert {
                            txn: txn.id,
                            table: *table,
                            row: txn.pending[*idx].1.clone(),
                        });
                    }
                    BufOp::DeleteSnapshot { table, row_id } => {
                        wal_ops.push(WalOp::Delete {
                            txn: txn.id,
                            table: *table,
                            row_id: *row_id,
                        });
                    }
                    BufOp::DeletePending { table, idx } => {
                        wal_ops.push(WalOp::Delete {
                            txn: txn.id,
                            table: *table,
                            row_id: pending_ids[idx],
                        });
                    }
                }
            }
            wal_ops.push(WalOp::Commit {
                txn: txn.id,
                commit_ts,
            });
            // Reserve delta memory before logging: a budget rejection
            // must abort cleanly, before anything hits the log.
            let bytes: u64 = txn
                .pending
                .iter()
                .enumerate()
                .filter(|(i, _)| pending_ids.contains_key(i))
                .map(|(_, (_, row))| row_bytes(row))
                .sum::<u64>()
                + txn.snapshot_deletes.len() as u64 * 16
                + txn.pending_dead.len() as u64 * 16;
            self.budget.try_reserve(bytes).map_err(|e| match e {
                EngineError::ResourceExhausted { .. } => TxnError::Memory(e.to_string()),
                other => TxnError::Memory(other.to_string()),
            })?;
            let lsn = match self.wal.append(&wal_ops) {
                Ok(lsn) => lsn,
                Err(e) => {
                    self.budget.release(bytes);
                    inner.poisoned = true;
                    return Err(e.into());
                }
            };
            // Apply to the committed delta stores, same order as logged.
            let mut per_table = vec![0u64; inner.tables.len()];
            for op in &txn.ops {
                match op {
                    BufOp::Insert { table, idx } => {
                        let state = &mut inner.tables[*table as usize];
                        let id = state
                            .delta
                            .apply_insert(txn.pending[*idx].1.clone(), commit_ts);
                        debug_assert_eq!(id, pending_ids[idx]);
                        per_table[*table as usize] += row_bytes(&txn.pending[*idx].1);
                    }
                    BufOp::DeleteSnapshot { table, row_id } => {
                        inner.tables[*table as usize]
                            .delta
                            .apply_delete(*row_id, commit_ts);
                        per_table[*table as usize] += 16;
                    }
                    BufOp::DeletePending { table, idx } => {
                        inner.tables[*table as usize]
                            .delta
                            .apply_delete(pending_ids[idx], commit_ts);
                        per_table[*table as usize] += 16;
                    }
                }
            }
            for (t, b) in per_table.iter().enumerate() {
                inner.tables[t].reserved += b;
            }
            inner.last_applied_ts = inner.last_applied_ts.max(commit_ts);
            inner.version = lsn;
            inner.catalog = None;
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
        let t = self.table_index(&inner, table)?;
        let ts = self.read_ts(&inner, txn);
        if ts == inner.last_applied_ts {
            return Ok(inner.latest(table));
        }
        Ok(inner.tables[t as usize].snapshot(ts, None))
    }

    /// The latest committed relation for `table` (what a fresh
    /// transaction would read).
    pub fn latest_relation(&self, table: &str) -> Result<Arc<Relation>, TxnError> {
        let mut inner = self.inner.lock();
        self.table_index(&inner, table)?;
        Ok(inner.latest(table))
    }

    /// A catalog of the latest committed snapshot of every table,
    /// stamped with a strictly advancing version (base table count +
    /// the commit/merge counter) so plan/result caches keyed on
    /// [`Catalog::version`] invalidate on every write. With empty
    /// deltas every entry is the load-time base `Arc` itself. Calls at
    /// one version return the same relations: the catalog is built once
    /// per commit or merge.
    pub fn snapshot_catalog(&self) -> Catalog {
        self.inner.lock().catalog().clone()
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
            let state = &mut inner.tables[t];
            let (folded, next) = state.delta.merge(&state.base, upto);
            state.base = Arc::new(folded);
            state.delta = next;
            state.latest = None;
            self.budget.release(state.reserved);
            state.reserved = 0;
            inner.version = lsn;
            inner.catalog = None;
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

    pub fn table_names(&self) -> Vec<String> {
        self.inner
            .lock()
            .tables
            .iter()
            .map(|t| t.name.clone())
            .collect()
    }

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
    use morsel_storage::{Column, DataType, PartitionBy, TableStats, WalFaults};

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
        let v0 = db.version();

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
        assert!(db.version() > v0, "commit advances the change counter");
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

    #[test]
    fn ww_blind_mode_loses_updates() {
        let dir = tmpdir("wwblind");
        let cfg = TxnDbConfig {
            mode: SiMode::WwBlind,
            ..TxnDbConfig::default()
        };
        let db = TxnDb::create_with(&dir, vec![("t", base_rel(1))], cfg).unwrap();
        let mut a = db.begin().unwrap();
        let mut b = db.begin().unwrap();
        db.update_where(&mut a, "t", &eq(col(0), lit(0)), &[(1, Value::I64(1))])
            .unwrap();
        db.update_where(&mut b, "t", &eq(col(0), lit(0)), &[(1, Value::I64(2))])
            .unwrap();
        db.commit(a).unwrap();
        db.commit(b).unwrap(); // the anomaly the checker must catch
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
    fn snapshot_catalog_version_strictly_advances() {
        let dir = tmpdir("catver");
        let db = TxnDb::create(&dir, vec![("t", base_rel(1))]).unwrap();
        let v1 = db.snapshot_catalog().version();
        let mut w = db.begin().unwrap();
        db.insert(&mut w, "t", vec![Value::I64(4), Value::I64(4)])
            .unwrap();
        db.commit(w).unwrap();
        let v2 = db.snapshot_catalog().version();
        assert!(v2 > v1, "commit must bump the catalog version");
        db.merge("t").unwrap();
        let v3 = db.snapshot_catalog().version();
        assert!(v3 > v2, "merge must bump the catalog version");
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

    // ---- in-place matching against the materialise-then-filter oracle ----

    /// `(id, tag, note, v)` over `parts` hash partitions: `tag` repeats
    /// five values and dictionary-encodes, `note` is unique per row and
    /// stays plain.
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
        let tables = vec![("kv", kv_relation(KV.keys)), ("t", tagged_rel(60, 4))];
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

        // One catalog per version: the same relations until the next
        // commit, for every way of asking.
        let again = db.snapshot_catalog();
        assert_eq!(again.version(), cat.version());
        assert!(Arc::ptr_eq(snap, again.get("t").unwrap()));
        assert!(Arc::ptr_eq(snap, &db.latest_relation("t").unwrap()));
        let reader = db.begin().unwrap();
        assert!(Arc::ptr_eq(snap, &db.relation_for(&reader, "t").unwrap()));
        db.abort(reader);

        // Statistics merged from the shared per-partition cache equal
        // statistics computed from scratch, field by field.
        fn assert_stats_from_scratch(rel: &Relation) {
            let got = rel.stats();
            let want = TableStats::from_partitions(rel.partitions().iter().map(|p| &*p.data));
            assert_eq!((got.rows, got.bytes), (want.rows, want.bytes));
            assert_eq!(got.rows, rel.total_rows() as u64);
            for (c, (g, w)) in got.columns.iter().zip(&want.columns).enumerate() {
                assert_eq!((&g.min, &g.max), (&w.min, &w.max), "column {c}");
                assert_eq!(g.null_count, w.null_count, "column {c}");
                assert_eq!((g.ndv, g.avg_width), (w.ndv, w.avg_width), "column {c}");
                assert_eq!(g.dict.is_some(), w.dict.is_some(), "column {c}");
            }
            // … HLL registers included.
            assert!(*got == want);
        }
        assert_stats_from_scratch(snap);

        // The next version rebuilds only what its commit touched: the
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
        assert_stats_from_scratch(&next);

        // A merge folds the delta in and still shares what it can.
        db.merge("t").unwrap();
        let merged = db.latest_relation("t").unwrap();
        assert_eq!(merged.total_rows(), 6399);
        let kept = (merged.partitions().iter().zip(base.partitions()))
            .filter(|(m, b)| Arc::ptr_eq(&m.data, &b.data))
            .count();
        assert_eq!(kept, 62);
        assert_stats_from_scratch(&merged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
