//! Crash recovery: scan the WAL, truncate the torn tail, redo the
//! committed prefix.
//!
//! Recovery is redo-only (ARIES without undo): the delta stores hold
//! committed data only, so there is nothing to roll back — operations
//! of transactions whose `Commit` record never became durable were
//! never applied and are simply discarded when replay ends.
//!
//! [`scan_wal`] reads frames until the first one that fails any check —
//! a header cut short (zero-length tail), a length running past
//! end-of-file (torn write), a CRC mismatch (corrupt or partially
//! written payload), or an undecodable payload. Everything after the
//! first bad frame is unreachable (frames are not self-synchronizing by
//! design: a commit is only acknowledged once durable, so nothing after
//! a torn frame was ever promised to a client) and gets truncated when
//! the log reopens for appending.
//!
//! [`replay`] then rebuilds the delta stores: operations buffer per
//! transaction and apply — in log order — when that transaction's
//! `Commit` record arrives; `Merge` records re-fold the store at the
//! logged timestamp so post-merge row ids come out identical to the
//! pre-crash run. Records at or below the highest LSN already applied
//! are skipped, which makes replay idempotent under duplicate-LSN
//! anomalies (a crashed retry that wrote the same frame twice).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use crate::delta::DeltaStore;
use crate::relation::Relation;
use crate::value::Value;
use crate::wal::{decode_payload, WalError, WalOp, WalRecord, FRAME_HEADER, WAL_FILE};

/// Upper bound on a sane frame payload; anything larger is treated as
/// corruption rather than an allocation request.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Result of scanning a WAL file.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Every decodable record before the first bad frame, in LSN order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix; the log reopens truncated here.
    pub valid_bytes: u64,
    /// Why the scan stopped before end-of-file, if it did.
    pub truncated: Option<String>,
}

/// Scan `dir/wal.log`. A missing directory or file is an empty log —
/// recovery on a never-written database is a no-op, not an error.
pub fn scan_wal(dir: &Path) -> Result<WalScan, WalError> {
    let path = dir.join(WAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalScan::default()),
        Err(e) => return Err(WalError::Io(e.to_string())),
    };
    Ok(scan_bytes(&bytes))
}

/// Scan an in-memory log image (tests corrupt bytes directly).
pub fn scan_bytes(bytes: &[u8]) -> WalScan {
    let mut scan = WalScan::default();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let remain = bytes.len() - pos;
        if remain < FRAME_HEADER {
            scan.truncated = Some(format!("{remain}-byte tail shorter than a frame header"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            scan.truncated = Some(format!("implausible frame length {len}"));
            break;
        }
        let end = pos + FRAME_HEADER + len as usize;
        if end > bytes.len() {
            scan.truncated = Some(format!(
                "frame length {len} runs past end of file (torn write)"
            ));
            break;
        }
        let payload = &bytes[pos + FRAME_HEADER..end];
        if crate::wal::crc32(payload) != crc {
            scan.truncated = Some("CRC mismatch".into());
            break;
        }
        match decode_payload(payload) {
            Ok(rec) => scan.records.push(rec),
            Err(e) => {
                scan.truncated = Some(format!("undecodable payload: {e}"));
                break;
            }
        }
        pos = end;
        scan.valid_bytes = pos as u64;
    }
    scan
}

/// One transaction's not-yet-committed redo operation.
enum Pending {
    Insert { table: u32, row: Vec<Value> },
    Delete { table: u32, row_id: u64 },
}

/// The durable state reconstructed by [`replay`].
pub struct RecoveredState {
    /// Per-table base relations — replaced in place by `Merge` replays.
    pub bases: Vec<Arc<Relation>>,
    /// Per-table committed delta stores.
    pub deltas: Vec<DeltaStore>,
    /// Highest commit timestamp made durable.
    pub last_commit_ts: u64,
    /// One past the highest transaction id seen (restart allocates from
    /// here so ids never collide with logged ones).
    pub next_txn: u64,
    /// Highest LSN applied (restart's log continues after it).
    pub applied_lsn: u64,
}

/// Redo `records` over the load-time `bases` (table order must match
/// the table indices used when the log was written). `already_applied`
/// is the LSN floor for idempotent re-replay — pass 0 on a cold start.
pub fn replay(
    records: &[WalRecord],
    bases: &[Arc<Relation>],
    already_applied: u64,
) -> RecoveredState {
    let mut state = RecoveredState {
        deltas: bases
            .iter()
            .map(|b| DeltaStore::new(b.schema().clone()))
            .collect(),
        bases: bases.to_vec(),
        last_commit_ts: 0,
        next_txn: 1,
        applied_lsn: already_applied,
    };
    let mut pending: BTreeMap<u64, Vec<Pending>> = BTreeMap::new();
    for rec in records {
        if rec.lsn <= state.applied_lsn {
            continue; // duplicate LSN: already redone
        }
        state.applied_lsn = rec.lsn;
        match &rec.op {
            WalOp::Insert { txn, table, row } => {
                state.next_txn = state.next_txn.max(txn + 1);
                pending.entry(*txn).or_default().push(Pending::Insert {
                    table: *table,
                    row: row.clone(),
                });
            }
            WalOp::Delete { txn, table, row_id } => {
                state.next_txn = state.next_txn.max(txn + 1);
                pending.entry(*txn).or_default().push(Pending::Delete {
                    table: *table,
                    row_id: *row_id,
                });
            }
            WalOp::Commit { txn, commit_ts } => {
                state.next_txn = state.next_txn.max(txn + 1);
                for op in pending.remove(txn).unwrap_or_default() {
                    match op {
                        Pending::Insert { table, row } => {
                            state.deltas[table as usize].apply_insert(row, *commit_ts);
                        }
                        Pending::Delete { table, row_id } => {
                            state.deltas[table as usize].apply_delete(row_id, *commit_ts);
                        }
                    }
                }
                state.last_commit_ts = state.last_commit_ts.max(*commit_ts);
            }
            WalOp::Merge { table, upto_ts } => {
                let t = *table as usize;
                let (folded, next) = state.deltas[t].merge(&state.bases[t], *upto_ts);
                state.bases[t] = Arc::new(folded);
                state.deltas[t] = next;
            }
        }
    }
    // Operations still pending belong to transactions whose commit never
    // became durable: redo-only recovery drops them.
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use crate::column::Column;
    use crate::schema::Schema;
    use crate::value::DataType;
    use crate::wal::{encode_frame, Wal, WalFaults};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "morsel-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn base() -> Arc<Relation> {
        let schema = Schema::new(vec![("k", DataType::I64)]);
        let data = Batch::from_columns(vec![Column::I64(vec![1, 2, 3])]);
        Arc::new(Relation::single(schema, data))
    }

    fn ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                txn: 1,
                table: 0,
                row: vec![Value::I64(10)],
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

    fn log_of(records: &[(u64, WalOp)]) -> Vec<u8> {
        records
            .iter()
            .flat_map(|(lsn, op)| encode_frame(*lsn, op))
            .collect()
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = tmpdir("empty");
        let scan = scan_wal(&dir).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.truncated.is_none());
        let st = replay(&scan.records, &[base()], 0);
        assert!(st.deltas[0].is_empty());
        assert_eq!(st.next_txn, 1);
        assert_eq!(st.applied_lsn, 0);
    }

    #[test]
    fn scan_reads_everything_the_wal_wrote() {
        let dir = tmpdir("full");
        let wal = Wal::create(&dir).unwrap();
        let last = wal.append(&ops()).unwrap();
        wal.commit_durable(last).unwrap();
        drop(wal);
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(scan.truncated.is_none());
        let st = replay(&scan.records, &[base()], 0);
        assert_eq!(st.last_commit_ts, 6);
        assert_eq!(st.next_txn, 3);
        assert_eq!(st.applied_lsn, 4);
        let snap = st.deltas[0].snapshot(&st.bases[0], 6, None).gather();
        assert_eq!(snap.column(0).as_i64(), &[2, 3, 10]);
    }

    #[test]
    fn zero_length_tail_is_truncated() {
        let o = ops();
        let mut bytes = log_of(&[(1, o[0].clone()), (2, o[1].clone())]);
        let good = bytes.len() as u64;
        bytes.extend_from_slice(&[0x17, 0x00, 0x00]); // 3 stray bytes
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.valid_bytes, good);
        assert!(scan.truncated.as_deref().unwrap().contains("header"));
    }

    #[test]
    fn torn_frame_is_truncated() {
        let o = ops();
        let mut bytes = log_of(&[(1, o[0].clone())]);
        let good = bytes.len() as u64;
        let torn = encode_frame(2, &o[1]);
        bytes.extend_from_slice(&torn[..torn.len() - 3]);
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_bytes, good);
        assert!(scan.truncated.as_deref().unwrap().contains("torn"));
    }

    #[test]
    fn crc_corruption_mid_file_stops_the_scan() {
        let o = ops();
        let frames: Vec<Vec<u8>> = o
            .iter()
            .enumerate()
            .map(|(i, op)| encode_frame(i as u64 + 1, op))
            .collect();
        let mut bytes: Vec<u8> = frames.concat();
        // Flip one payload byte inside frame 2.
        let f2_payload = frames[0].len() + FRAME_HEADER + 2;
        bytes[f2_payload] ^= 0xFF;
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.records.len(), 1, "only frame 1 survives");
        assert_eq!(scan.valid_bytes, frames[0].len() as u64);
        assert_eq!(scan.truncated.as_deref(), Some("CRC mismatch"));
    }

    #[test]
    fn duplicate_lsn_replay_is_idempotent() {
        let o = ops();
        let records: Vec<WalRecord> = scan_bytes(&log_of(&[
            (1, o[0].clone()),
            (2, o[1].clone()),
            (2, o[1].clone()), // duplicated commit frame
            (3, o[2].clone()),
            (4, o[3].clone()),
        ]))
        .records;
        assert_eq!(records.len(), 5);
        let st = replay(&records, &[base()], 0);
        assert_eq!(st.deltas[0].delta_rows(), 1, "insert applied once");
        assert_eq!(st.deltas[0].tombstone_count(), 1);
        // Replaying the whole log again over the recovered floor is a no-op.
        let st2 = replay(&records, &[base()], st.applied_lsn);
        assert!(st2.deltas[0].is_empty());
    }

    #[test]
    fn uncommitted_tail_is_dropped() {
        let o = ops();
        let records = scan_bytes(&log_of(&[
            (1, o[0].clone()),
            (2, o[1].clone()),
            (3, o[2].clone()), // delete by txn 2, but no commit follows
        ]))
        .records;
        let st = replay(&records, &[base()], 0);
        assert_eq!(st.deltas[0].delta_rows(), 1);
        assert_eq!(
            st.deltas[0].tombstone_count(),
            0,
            "uncommitted delete dropped"
        );
        assert_eq!(st.next_txn, 3, "txn 2 id still burned");
    }

    #[test]
    fn merge_record_refolds_identically() {
        let dir = tmpdir("merge");
        let wal = Wal::create(&dir).unwrap();
        let mut all = ops();
        all.push(WalOp::Merge {
            table: 0,
            upto_ts: 6,
        });
        all.push(WalOp::Insert {
            txn: 3,
            table: 0,
            row: vec![Value::I64(20)],
        });
        all.push(WalOp::Commit {
            txn: 3,
            commit_ts: 7,
        });
        let last = wal.append(&all).unwrap();
        wal.commit_durable(last).unwrap();
        drop(wal);

        // Live run: apply the same sequence directly.
        let mut delta = DeltaStore::new(base().schema().clone());
        let mut b = base();
        delta.apply_insert(vec![Value::I64(10)], 5);
        delta.apply_delete(0, 6);
        let (folded, next) = delta.merge(&b, 6);
        b = Arc::new(folded);
        let mut delta = next;
        delta.apply_insert(vec![Value::I64(20)], 7);

        let scan = scan_wal(&dir).unwrap();
        let st = replay(&scan.records, &[base()], 0);
        assert_eq!(st.deltas[0], delta, "delta store byte-identical");
        assert_eq!(st.bases[0].gather(), b.gather(), "merged base identical");
        assert_eq!(st.deltas[0].epoch(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_fault_prefix_recovers_cleanly() {
        let dir = tmpdir("crashprefix");
        let wal = Wal::create(&dir)
            .unwrap()
            .with_faults(WalFaults::crash_at(4));
        let _ = wal.append(&ops());
        drop(wal);
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 3, "frames before the crash LSN");
        assert!(scan.truncated.is_none(), "crash cut at a record boundary");
        let st = replay(&scan.records, &[base()], 0);
        // txn 1 committed (lsn 2); txn 2's delete never committed.
        assert_eq!(st.deltas[0].delta_rows(), 1);
        assert_eq!(st.deltas[0].tombstone_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_recovers_to_prefix() {
        let dir = tmpdir("tornfault");
        let wal = Wal::create(&dir)
            .unwrap()
            .with_faults(WalFaults::torn_at(3, 6));
        let _ = wal.append(&ops());
        drop(wal);
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.truncated.is_some());
        // Reopen truncates the torn bytes and appending continues at lsn 3.
        let wal = Wal::reopen(&dir, scan.valid_bytes, 3).unwrap();
        let o = ops();
        let last = wal.append(&o[2..]).unwrap();
        wal.commit_durable(last).unwrap();
        drop(wal);
        let scan = scan_wal(&dir).unwrap();
        assert_eq!(scan.records.len(), 4);
        assert!(scan.truncated.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
