//! Versioned delta stores: the MVCC write side of immutable column
//! partitions.
//!
//! Base relations stay exactly what the read path built at load time —
//! immutable, NUMA-placed, dictionary-encoded column partitions. All
//! writes go to a per-relation [`DeltaStore`]: committed inserts append
//! to a row-ordered delta batch stamped with their commit timestamp,
//! and deletes are tombstones (`row id → delete timestamp`) that may
//! point at base rows or at delta rows. An `UPDATE` is a delete plus an
//! insert in the same transaction. A reader at snapshot timestamp `ts`
//! sees: base rows without a tombstone `≤ ts`, plus delta rows inserted
//! `≤ ts` and not tombstoned `≤ ts` — writers never block readers and
//! vice versa.
//!
//! **Row addressing.** Base rows are numbered globally in partition
//! order (partition 0's rows first, then partition 1's, …). Delta rows
//! set the high bit: [`delta_row_id`]. A background merge folds all
//! committed delta state into fresh base partitions, which renumbers
//! rows and bumps the store's *epoch* — transactions that captured row
//! ids under the old epoch must conflict-abort, which the transaction
//! layer enforces by comparing epochs at commit.
//!
//! The store holds **committed data only**. Uncommitted writes live in
//! per-transaction buffers (in `morsel-txn`), which logs them and then
//! applies the logged records here in log order at commit; crash
//! recovery applies the same records through the same call. So the
//! recovered store is `==` (field-for-field, row-for-row) to the one the
//! crashed process held — the property the crash sweep asserts.

use std::collections::BTreeMap;
use std::sync::Arc;

use morsel_numa::SocketId;

use crate::batch::Batch;
use crate::column::Column;
use crate::dict::{worth_encoding, DictColumn, Dictionary};
use crate::relation::{Partition, Relation};
use crate::schema::Schema;
use crate::value::Value;

/// High bit marks a delta row id; the low bits are the index into the
/// delta batch.
pub const DELTA_ROW_BIT: u64 = 1 << 63;

/// Row id of the `i`-th delta row of the current epoch.
pub fn delta_row_id(i: usize) -> u64 {
    DELTA_ROW_BIT | i as u64
}

/// Approximate in-memory bytes of one row (memory-budget accounting;
/// matches the column layer's byte accounting conventions).
pub fn row_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::I64(_) | Value::F64(_) => 8,
            Value::I32(_) => 4,
            Value::Str(s) => 1 + s.len() as u64,
        })
        .sum()
}

/// Committed MVCC delta state for one relation.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaStore {
    schema: Schema,
    /// Inserted rows in commit order (plain columns; a snapshot or merge
    /// encodes the visible ones like the base).
    rows: Batch,
    /// Commit timestamp of each delta row, aligned with `rows`.
    insert_ts: Vec<u64>,
    /// Deleted row id → commit timestamp of the delete.
    tombstones: BTreeMap<u64, u64>,
    /// Bumped by every merge; row ids are only meaningful within one
    /// epoch.
    epoch: u64,
    /// Highest commit timestamp applied to this store.
    last_commit_ts: u64,
    /// Lowest timestamp of any insert or tombstone: snapshots below it
    /// are exactly the base.
    first_effect_ts: Option<u64>,
}

impl DeltaStore {
    pub fn new(schema: Schema) -> Self {
        let types = schema.data_types();
        DeltaStore {
            schema,
            rows: Batch::empty(&types),
            insert_ts: Vec::new(),
            tombstones: BTreeMap::new(),
            epoch: 0,
            last_commit_ts: 0,
            first_effect_ts: None,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// No committed writes at all (a snapshot is exactly the base).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.tombstones.is_empty()
    }

    pub fn delta_rows(&self) -> usize {
        self.rows.rows()
    }

    /// The committed inserts, visible or not, as one plain batch: row
    /// `i` has id [`delta_row_id`]`(i)`.
    pub fn rows(&self) -> &Batch {
        &self.rows
    }

    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn last_commit_ts(&self) -> u64 {
        self.last_commit_ts
    }

    /// Append a committed insert; returns the new row's id.
    pub fn apply_insert(&mut self, row: Vec<Value>, commit_ts: u64) -> u64 {
        let id = delta_row_id(self.rows.rows());
        self.rows.push_row(row);
        self.insert_ts.push(commit_ts);
        self.note_effect(commit_ts);
        id
    }

    /// Record a committed delete of `row_id` (base or delta). The
    /// transaction layer's first-committer-wins check lets one commit
    /// delete a row; were a second delete of it to reach the store, the
    /// earliest tombstone would govern visibility, so first delete wins.
    pub fn apply_delete(&mut self, row_id: u64, commit_ts: u64) {
        self.tombstones.entry(row_id).or_insert(commit_ts);
        self.note_effect(commit_ts);
    }

    fn note_effect(&mut self, commit_ts: u64) {
        self.last_commit_ts = self.last_commit_ts.max(commit_ts);
        self.first_effect_ts = Some(self.first_effect_ts.map_or(commit_ts, |t| t.min(commit_ts)));
    }

    fn deleted_at(&self, row_id: u64, ts: u64) -> bool {
        self.tombstones.get(&row_id).is_some_and(|&d| d <= ts)
    }

    /// Whether a snapshot at `ts` sees `row_id`: a base row without a
    /// tombstone `≤ ts`, or a delta row inserted `≤ ts` and not
    /// tombstoned `≤ ts`.
    pub fn visible(&self, row_id: u64, ts: u64) -> bool {
        let inserted =
            row_id & DELTA_ROW_BIT == 0 || self.insert_ts[(row_id & !DELTA_ROW_BIT) as usize] <= ts;
        inserted && !self.deleted_at(row_id, ts)
    }

    /// Whether `row_id` carries a tombstone of *any* timestamp. The
    /// first-committer-wins check: a committing transaction saw this
    /// row alive at its begin snapshot, so any tombstone present now
    /// was committed by a concurrent transaction — write-write
    /// conflict.
    pub fn tombstoned(&self, row_id: u64) -> bool {
        self.tombstones.contains_key(&row_id)
    }

    /// True when a snapshot at `ts` sees no delta effects: the caller
    /// can serve the base relation unchanged (and byte-identical).
    pub fn snapshot_is_base(&self, ts: u64) -> bool {
        self.first_effect_ts.is_none_or(|first| first > ts)
    }

    /// The relation a snapshot at `ts` sees, sharing what the delta did
    /// not change: a base partition without a visible tombstone is
    /// handed on as is (same `Arc`), one with tombstones is
    /// re-materialised without the dead rows (keeping node placement and
    /// dictionary encoding), and the visible delta rows become one extra
    /// partition encoded like the base. Always a
    /// **fresh** [`Relation`], so row/byte totals and merged statistics
    /// are never served from a pre-write cache.
    ///
    /// **Every partition of the result encodes a string column the same
    /// way**, dictionary partitions sharing one `Arc<Dictionary>`: the
    /// executor compiles a column's kernels once per relation and relies
    /// on it. The delta rows are therefore encoded against the base's
    /// dictionaries, which must hold every visible delta value: the writer
    /// [`rebased`] the base at the commit that brought a new one. So the
    /// result encodes every column as `base` does.
    ///
    /// `prev`, when given, is a snapshot of the same base and store (same
    /// epoch) at a timestamp `≤ ts`: a re-materialised partition is
    /// taken from it when no further row of it died since, so a chain of
    /// snapshots re-materialises per version only what that version's
    /// commits touched.
    pub fn snapshot(&self, base: &Relation, ts: u64, prev: Option<&Relation>) -> Relation {
        self.fold(base, ts, prev, false)
    }

    /// [`DeltaStore::snapshot`], with the visible delta rows either
    /// appended as one partition or — for a merge (`into_tail`) — folded
    /// into the base's merge tail while that stays small.
    fn fold(&self, base: &Relation, ts: u64, prev: Option<&Relation>, into_tail: bool) -> Relation {
        // A `prev` taken over differently encoded partitions doesn't mix.
        let prev = prev.filter(|r| r.encodings() == base.encodings());
        let mut parts: Vec<Partition> = Vec::with_capacity(base.partitions().len() + 1);
        let mut start = 0u64;
        for (i, p) in base.partitions().iter().enumerate() {
            let n = p.data.rows() as u64;
            let dead: Vec<u32> = self
                .tombstones
                .range(start..start + n)
                .filter(|&(_, &d)| d <= ts)
                .map(|(&id, _)| (id - start) as u32)
                .collect();
            // Tombstones only accumulate, so a `prev` partition with as
            // many live rows has exactly these.
            let kept = prev
                .map(|r| r.partition(i))
                .filter(|q| q.data.rows() == p.data.rows() - dead.len());
            parts.push(if dead.is_empty() {
                p.clone()
            } else if let Some(q) = kept {
                q.clone()
            } else {
                // `dead` ascends, so one pass over the row indexes drops it.
                let mut dead = dead.into_iter().peekable();
                let live: Vec<u32> = (0..n as u32)
                    .filter(|i| dead.next_if_eq(i).is_none())
                    .collect();
                Partition::new(p.node, p.data.gather(&live))
            });
            start += n;
        }
        let visible: Vec<u32> = (0..self.rows.rows())
            .filter(|&i| self.visible(delta_row_id(i), ts))
            .map(|i| i as u32)
            .collect();
        let mut merge_tail = into_tail && base.has_merge_tail();
        if !visible.is_empty() {
            let mut extra = self.rows.gather(&visible);
            for c in 0..extra.width() {
                if let Some(dict) = base.encoding(c).dict() {
                    let encoded = DictColumn::encode(dict, extra.column(c).as_str())
                        .expect("the writer rebases the base on a value outside its dictionary");
                    extra.replace_column(c, Column::Dict(encoded));
                }
            }
            let live: usize = parts.iter().map(|p| p.data.rows()).sum();
            let tail_rows = parts.last().map_or(0, |p| p.data.rows());
            if merge_tail && tail_rows * parts.len() <= live {
                // The tail is at or under the mean partition: fold into it.
                let tail = parts.pop().expect("a relation has partitions");
                parts.push(Partition::new(tail.node, concat(&tail.data, &extra)));
            } else {
                parts.push(Partition::new(SocketId(0), extra));
            }
            merge_tail = into_tail;
        }
        Relation::sharing(self.schema.clone(), parts, merge_tail)
    }

    /// All rows visible at `ts` as one decoded batch plus their row ids
    /// (aligned): O(table) decode and copy, for whole-table reads inside
    /// a transaction and as the oracle the in-place `UPDATE` / `DELETE`
    /// matcher is tested against.
    pub fn visible_rows(&self, base: &Relation, ts: u64) -> (Batch, Vec<u64>) {
        let mut out = Batch::empty(&self.schema.data_types());
        let mut ids = Vec::new();
        let mut start = 0u64;
        for p in base.partitions() {
            let decoded = p.data.decoded();
            for i in 0..decoded.rows() {
                let id = start + i as u64;
                if !self.deleted_at(id, ts) {
                    out.push_from(&decoded, i);
                    ids.push(id);
                }
            }
            start += p.data.rows() as u64;
        }
        for i in 0..self.rows.rows() {
            let id = delta_row_id(i);
            if self.insert_ts[i] <= ts && !self.deleted_at(id, ts) {
                out.push_from(&self.rows, i);
                ids.push(id);
            }
        }
        (out, ids)
    }

    /// Fold all committed delta state into fresh base partitions and
    /// start a new epoch. `upto_ts` must cover every commit in the
    /// store (the transaction layer merges under its commit lock, so
    /// nothing newer can exist); it is logged in the WAL `Merge` record
    /// so replay re-folds at exactly the same point and reconstructs
    /// the same row numbering.
    ///
    /// The fold is [`DeltaStore::snapshot`] at `upto_ts`, `prev` included
    /// (a merge right after a snapshot takes over its re-materialised
    /// partitions), except where the visible delta rows go: into the
    /// partition an earlier merge appended (the *merge tail*) while that
    /// partition holds at most the mean partition row count, else into a
    /// new tail partition. A table's partition count therefore grows by
    /// one per mean partition's worth of merged rows, not by one per
    /// merge, and a load-time partition is never rewritten to take rows.
    /// The rule reads only row counts, so replay folds identically.
    pub fn merge(
        &self,
        base: &Relation,
        upto_ts: u64,
        prev: Option<&Relation>,
    ) -> (Relation, DeltaStore) {
        assert!(
            upto_ts >= self.last_commit_ts,
            "merge upto_ts {upto_ts} must cover last commit {}",
            self.last_commit_ts
        );
        let folded = self.fold(base, upto_ts, prev, true);
        let next = DeltaStore {
            schema: self.schema.clone(),
            rows: Batch::empty(&self.schema.data_types()),
            insert_ts: Vec::new(),
            tombstones: BTreeMap::new(),
            epoch: self.epoch + 1,
            last_commit_ts: self.last_commit_ts,
            first_effect_ts: None,
        };
        (folded, next)
    }
}

/// `base` re-encoded so that each coded column's dictionary also holds the
/// values `fresh` pairs with that column's index (values it lacks). The
/// writer calls it at the commit that brings a new value, so every later
/// snapshot and merge of the table encodes its delta rows against the
/// base as it is.
///
/// A sorted dictionary cannot grow in place: a new value shifts the codes
/// behind it, so the column is rewritten in *every* partition — O(table),
/// once per commit that brings new values, after which those encode
/// directly. A domain pushed past what [`worth_encoding`] admits falls
/// back to plain strings, in every partition and for good. Rows keep their
/// ids; only the physical representation changes.
pub fn rebased(base: &Relation, fresh: &[(usize, String)]) -> Relation {
    let mut parts = base.partitions().to_vec();
    for c in 0..base.schema().len() {
        let mut new = (fresh.iter())
            .filter(|&&(fc, _)| fc == c)
            .map(|(_, v)| v.as_str())
            .peekable();
        let Some(old) = base.encoding(c).dict().filter(|_| new.peek().is_some()) else {
            continue;
        };
        let extended = Dictionary::from_values(old.values().iter().map(String::as_str).chain(new));
        let remap: Vec<u32> = (old.values().iter())
            .map(|v| extended.code_of(v).expect("an extension keeps every value"))
            .collect();
        for p in &mut parts {
            let codes = p
                .data
                .column(c)
                .as_dict()
                .expect("encoded in every partition");
            let column = if !worth_encoding(extended.len()) {
                Column::Str(codes.decode())
            } else {
                let codes = codes.codes().iter().map(|&x| remap[x as usize]).collect();
                Column::Dict(DictColumn::new(Arc::clone(&extended), codes))
            };
            let mut data = Batch::clone(&p.data);
            data.replace_column(c, column);
            *p = Partition::new(p.node, data);
        }
    }
    Relation::sharing(base.schema().clone(), parts, base.has_merge_tail())
}

/// The rows of `tail` followed by those of `extra`, which encodes every
/// column as `tail` does, copied once into columns sized for both.
fn concat(tail: &Batch, extra: &Batch) -> Batch {
    let rows = tail.rows() + extra.rows();
    Batch::from_columns(
        (tail.columns().iter().zip(extra.columns()))
            .map(|(t, e)| {
                let mut column = Column::with_capacity_like(t, rows);
                column.extend_from(t);
                column.extend_from(e);
                column
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::dict::DICT_MAX_UNIQUE;
    use crate::value::DataType;
    use morsel_numa::{Placement, Topology};

    fn schema() -> Schema {
        Schema::new(vec![("k", DataType::I64), ("tag", DataType::Str)])
    }

    fn base() -> Relation {
        let data = Batch::from_columns(vec![
            Column::I64(vec![1, 2, 3, 4]),
            Column::Str(["a", "b", "a", "b"].into_iter().collect()),
        ]);
        Relation::partitioned(
            schema(),
            &data,
            crate::relation::PartitionBy::Chunks,
            2,
            Placement::FirstTouch,
            &Topology::laptop(),
        )
    }

    fn row(k: i64, tag: &str) -> Vec<Value> {
        vec![Value::I64(k), Value::Str(tag.into())]
    }

    #[test]
    fn empty_delta_serves_base_unchanged() {
        let b = base();
        let d = DeltaStore::new(schema());
        assert!(d.is_empty());
        assert!(d.snapshot_is_base(u64::MAX));
        let snap = d.snapshot(&b, 100, None);
        assert_eq!(snap.gather(), b.gather());
    }

    #[test]
    fn snapshot_respects_timestamps() {
        let b = base();
        let mut d = DeltaStore::new(schema());
        d.apply_insert(row(5, "c"), 10);
        d.apply_delete(0, 20); // base row k=1
        d.apply_delete(delta_row_id(0), 30); // the row we inserted

        assert!(d.snapshot_is_base(9));
        assert!(!d.snapshot_is_base(10));

        let at9 = d.snapshot(&b, 9, None).gather();
        assert_eq!(at9.column(0).as_i64(), &[1, 2, 3, 4]);

        let at10 = d.snapshot(&b, 10, None).gather();
        assert_eq!(at10.column(0).as_i64(), &[1, 2, 3, 4, 5]);

        let at20 = d.snapshot(&b, 20, None).gather();
        assert_eq!(at20.column(0).as_i64(), &[2, 3, 4, 5]);

        let at30 = d.snapshot(&b, 30, None).gather();
        assert_eq!(at30.column(0).as_i64(), &[2, 3, 4]);
        assert_eq!(d.last_commit_ts(), 30);
    }

    fn tags(rel: &Relation) -> Vec<String> {
        rel.gather()
            .column(1)
            .as_str()
            .iter()
            .map(String::from)
            .collect()
    }

    /// Every partition encodes column 1 over one shared dictionary.
    fn one_dictionary(rel: &Relation) -> Arc<Dictionary> {
        let first = rel.partition(0).data.column(1).as_dict().expect("encoded");
        for p in rel.partitions() {
            assert!(p
                .data
                .column(1)
                .as_dict()
                .expect("encoded")
                .same_dict(first));
        }
        Arc::clone(first.dict())
    }

    #[test]
    fn snapshots_share_what_the_delta_did_not_touch() {
        let b = base().dict_encoded();
        let mut d = DeltaStore::new(schema());
        d.apply_delete(0, 10); // partition 0
        let s10 = d.snapshot(&b, 10, None);
        assert!(!Arc::ptr_eq(&s10.partition(0).data, &b.partition(0).data));
        assert!(Arc::ptr_eq(&s10.partition(1).data, &b.partition(1).data));
        // A later snapshot takes the rebuilt partition over from an
        // earlier one while no further row of it died …
        d.apply_insert(row(5, "a"), 11);
        let s11 = d.snapshot(&b, 11, Some(&s10));
        assert!(Arc::ptr_eq(&s11.partition(0).data, &s10.partition(0).data));
        assert!(Arc::ptr_eq(&s11.partition(1).data, &b.partition(1).data));
        assert_eq!(s11.gather().column(0).as_i64(), &[2, 3, 4, 5]);
        // … and rebuilds it when one did.
        d.apply_delete(1, 12);
        let s12 = d.snapshot(&b, 12, Some(&s11));
        assert_eq!(s12.partition(0).data.rows(), 0);
        assert_eq!(s12.gather().column(0).as_i64(), &[3, 4, 5]);
        assert_eq!(s12.gather(), d.snapshot(&b, 12, None).gather());
    }

    /// `rebased` with `values` new to column 1 (`tag`).
    fn with_tags(base: &Relation, values: &[&str]) -> Relation {
        let fresh: Vec<(usize, String)> = values.iter().map(|&v| (1, v.to_owned())).collect();
        rebased(base, &fresh)
    }

    #[test]
    fn delta_rows_are_encoded_like_the_base() {
        let b = base().dict_encoded();
        let base_dict = one_dictionary(&b);
        let mut d = DeltaStore::new(schema());
        d.apply_insert(row(5, "b"), 10);
        let snap = d.snapshot(&b, 10, None);
        assert!(Arc::ptr_eq(&one_dictionary(&snap), &base_dict));
        assert!(Arc::ptr_eq(&snap.partition(0).data, &b.partition(0).data));
        assert_eq!(tags(&snap), ["a", "b", "a", "b", "b"]);

        // A value outside the dictionary extends it, in every partition:
        // codes shift ("aa" sorts between "a" and "b"), values do not.
        d.apply_insert(row(6, "aa"), 11);
        let rebased = with_tags(&b, &["aa"]);
        assert_eq!(rebased.gather(), b.gather());
        let dict = one_dictionary(&rebased);
        assert_eq!(dict.values(), ["a", "aa", "b"]);
        // Snapshots over the rebased base encode against it and share its
        // partitions.
        let snap = d.snapshot(&rebased, 11, None);
        assert!(Arc::ptr_eq(&one_dictionary(&snap), &dict));
        assert!(Arc::ptr_eq(
            &snap.partition(0).data,
            &rebased.partition(0).data
        ));
        assert_eq!(tags(&snap), ["a", "b", "a", "b", "b", "aa"]);
        assert_eq!(
            tags(&d.snapshot(&rebased, 10, None)),
            ["a", "b", "a", "b", "b"]
        );
        // The merged base keeps the extended dictionary, so the value
        // encodes directly from then on.
        let (merged, mut next) = d.merge(&rebased, 11, None);
        assert!(Arc::ptr_eq(&one_dictionary(&merged), &dict));
        next.apply_insert(row(7, "aa"), 12);
        let snap = next.snapshot(&merged, 12, None);
        assert!(Arc::ptr_eq(&one_dictionary(&snap), &dict));
        assert_eq!(tags(&snap).last().unwrap(), "aa");
    }

    #[test]
    fn a_domain_grown_past_the_dictionary_bound_falls_back_to_plain() {
        let b = base().dict_encoded();
        let mut d = DeltaStore::new(schema());
        let fresh: Vec<(usize, String)> =
            (0..DICT_MAX_UNIQUE).map(|i| (1, format!("v{i}"))).collect();
        for (i, (_, v)) in fresh.iter().enumerate() {
            d.apply_insert(row(10 + i as i64, v), 10);
        }
        let b = rebased(&b, &fresh);
        let snap = d.snapshot(&b, 10, None);
        for p in b.partitions().iter().chain(snap.partitions()) {
            assert!(p.data.column(1).as_dict().is_none(), "plain everywhere");
        }
        assert_eq!(snap.total_rows(), 4 + DICT_MAX_UNIQUE);
        assert_eq!(tags(&snap)[..5], ["a", "b", "a", "b", "v0"]);
        // Plain for good: the merged base is nothing to extend.
        let (merged, mut next) = d.merge(&b, 10, None);
        assert!(merged.encoding(1).dict().is_none());
        next.apply_insert(row(1, "zzz"), 11);
        assert_eq!(
            tags(&next.snapshot(&merged, 11, None)).last().unwrap(),
            "zzz"
        );
    }

    #[test]
    fn the_value_past_the_bound_decodes_an_all_unique_small_table() {
        // Unique per row, so only the domain rule encodes it.
        let n = DICT_MAX_UNIQUE - 1;
        let data = Batch::from_columns(vec![
            Column::I64((0..n as i64).collect()),
            Column::Str((0..n).map(|i| format!("u{i:04}")).collect()),
        ]);
        let b = Relation::partitioned(
            schema(),
            &data,
            crate::relation::PartitionBy::Chunks,
            4,
            Placement::FirstTouch,
            &Topology::laptop(),
        )
        .dict_encoded();
        assert_eq!(one_dictionary(&b).len(), n);
        let mut d = DeltaStore::new(schema());
        // The 1,024th distinct value still fits: every partition rebases.
        d.apply_insert(row(n as i64, "v0"), 10);
        let b = with_tags(&b, &["v0"]);
        assert_eq!(one_dictionary(&b).len(), DICT_MAX_UNIQUE);
        assert_eq!(
            one_dictionary(&d.snapshot(&b, 10, None)).len(),
            DICT_MAX_UNIQUE
        );
        // The 1,025th does not: plain in every partition, the delta's too.
        d.apply_insert(row(n as i64 + 1, "v1"), 11);
        let b = with_tags(&b, &["v1"]);
        let snap = d.snapshot(&b, 11, None);
        assert_eq!(snap.partitions().len(), 5);
        for p in snap.partitions() {
            assert!(p.data.column(1).as_dict().is_none(), "plain everywhere");
        }
        let mut want: Vec<String> = data.column(1).as_str().iter().map(String::from).collect();
        want.extend(["v0".to_owned(), "v1".to_owned()]);
        assert_eq!(tags(&snap), want);
    }

    #[test]
    fn visible_rows_align_ids() {
        let b = base();
        let mut d = DeltaStore::new(schema());
        d.apply_insert(row(5, "c"), 10);
        d.apply_delete(1, 10); // base row k=2
        let (rows, ids) = d.visible_rows(&b, 10);
        assert_eq!(rows.column(0).as_i64(), &[1, 3, 4, 5]);
        assert_eq!(ids, vec![0, 2, 3, delta_row_id(0)]);
        for (i, &id) in ids.iter().enumerate() {
            if id & DELTA_ROW_BIT == 0 {
                assert!(id < b.total_rows() as u64, "base id in range");
            }
            let _ = i;
        }
    }

    #[test]
    fn merge_folds_and_bumps_epoch() {
        let b = base();
        let mut d = DeltaStore::new(schema());
        d.apply_insert(row(5, "c"), 10);
        d.apply_delete(0, 20);
        let (merged, next) = d.merge(&b, 20, None);
        assert_eq!(merged.gather().column(0).as_i64(), &[2, 3, 4, 5]);
        assert_eq!(merged.total_rows(), 4);
        assert!(next.is_empty());
        assert_eq!(next.epoch(), 1);
        assert_eq!(next.last_commit_ts(), 20);
        // Fresh relation → fresh stats (not the base's cached ones).
        assert_eq!(merged.stats().rows, 4);
        assert_eq!(b.stats().rows, 4 /* base never mutated */);
        assert_eq!(b.total_rows(), 4);
    }

    #[test]
    fn replay_reconstructs_identical_store() {
        let b = base();
        let mut live = DeltaStore::new(schema());
        live.apply_insert(row(5, "c"), 10);
        live.apply_delete(2, 11);
        live.apply_insert(row(6, "d"), 12);

        let mut replayed = DeltaStore::new(schema());
        replayed.apply_insert(row(5, "c"), 10);
        replayed.apply_delete(2, 11);
        replayed.apply_insert(row(6, "d"), 12);

        assert_eq!(live, replayed, "same op sequence, equal stores");
        assert_eq!(
            live.snapshot(&b, 12, None).gather(),
            replayed.snapshot(&b, 12, None).gather()
        );
    }
}
