//! Write-ahead log: length+CRC-framed redo records with group commit.
//!
//! The log is a single append-only file of self-describing frames:
//!
//! ```text
//! frame   := [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload := [lsn: u64 LE] [op tag: u8] [op fields...]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload, so a torn tail — a frame cut
//! short by a crash mid-`write` — is detected either by the length
//! running past end-of-file or by a checksum mismatch, and recovery
//! truncates it (see [`crate::recovery`]). LSNs are assigned
//! contiguously from 1 by the single appender.
//!
//! **Group commit.** [`Wal::append`] only buffers serialized frames;
//! durability happens in [`Wal::commit_durable`], which blocks until the
//! caller's LSN has been fsynced. The first committer to find no flush
//! in progress becomes the *leader*: it takes the whole buffer (its own
//! frames plus every frame appended since the last flush), writes and
//! fsyncs once, then wakes all waiters whose LSNs the flush covered.
//! Commits that arrive while a flush is running pile into the next
//! group — one fsync amortizes over all of them, which is where the
//! commits/s headroom over fsync-per-commit comes from. A commit is
//! acknowledged only after its group is durable.
//!
//! **Fault injection.** [`WalFaults`] models the storage failure modes
//! chaos schedules exercise: `crash@lsn` stops the log dead at a record
//! boundary (the file keeps exactly the frames before that LSN),
//! torn-write keeps only a byte prefix of one frame, and failed-fsync
//! makes the n-th fsync fail. Any fired fault *poisons* the log — every
//! later append or commit returns [`WalError::Poisoned`], modeling a
//! process that halts on write-path failure rather than limping on with
//! unknown durability (the post-fsyncgate consensus). Tests then
//! recover from the on-disk bytes as a restart would.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};

use crate::value::Value;

/// Name of the log file inside a WAL directory.
pub const WAL_FILE: &str = "wal.log";

/// Frame header size: length + CRC.
pub const FRAME_HEADER: usize = 8;

/// One redo operation. `table` is the registration index of the
/// relation in the transactional catalog (stable across restarts
/// because tables are registered in a fixed order).
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// Row inserted by `txn` (visible only once its Commit arrives).
    Insert {
        txn: u64,
        table: u32,
        row: Vec<Value>,
    },
    /// Row (base or delta, see [`crate::delta::delta_row_id`]) deleted by `txn`.
    Delete { txn: u64, table: u32, row_id: u64 },
    /// `txn`'s buffered operations become visible at `commit_ts`.
    Commit { txn: u64, commit_ts: u64 },
    /// Committed delta state of `table` up to `upto_ts` was folded into
    /// new base partitions; replay re-runs the same fold.
    Merge { table: u32, upto_ts: u64 },
}

/// A framed record: operation plus its log sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    pub lsn: u64,
    pub op: WalOp,
}

/// Why a WAL operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An injected crash/torn-write/fsync fault (or a real I/O error)
    /// halted the log; the engine must restart and recover.
    Poisoned(String),
    /// Real I/O error from the filesystem.
    Io(String),
    /// A frame failed to decode (recovery-side).
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Poisoned(m) => write!(f, "wal poisoned: {m}"),
            WalError::Io(m) => write!(f, "wal i/o error: {m}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
        }
    }
}

/// Deterministic WAL fault schedule (the storage-level half of the
/// chaos `FaultPlan` grammar; `morsel-core` parses the text form and
/// converts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalFaults {
    /// Stop the log immediately before writing the frame with this LSN.
    pub crash_at_lsn: Vec<u64>,
    /// Write only `keep` bytes of the frame with this LSN, then stop.
    pub torn_write: Vec<(u64, u32)>,
    /// Fail the n-th fsync (0-based).
    pub fail_fsync: Vec<u64>,
}

impl WalFaults {
    pub fn none() -> Self {
        WalFaults::default()
    }

    pub fn is_empty(&self) -> bool {
        self.crash_at_lsn.is_empty() && self.torn_write.is_empty() && self.fail_fsync.is_empty()
    }

    pub fn crash_at(lsn: u64) -> Self {
        WalFaults {
            crash_at_lsn: vec![lsn],
            ..Default::default()
        }
    }

    pub fn torn_at(lsn: u64, keep: u32) -> Self {
        WalFaults {
            torn_write: vec![(lsn, keep)],
            ..Default::default()
        }
    }

    pub fn fsync_fail(nth: u64) -> Self {
        WalFaults {
            fail_fsync: vec![nth],
            ..Default::default()
        }
    }
}

struct WalState {
    /// Serialized frames not yet written to the file.
    buf: Vec<u8>,
    /// LSN of the last frame in `buf` (0 when empty).
    buffered_lsn: u64,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Highest LSN known durable (written + fsynced).
    durable_lsn: u64,
    /// A leader is currently flushing outside the lock.
    flushing: bool,
    /// Set by a fired fault or real I/O error; everything fails after.
    poisoned: Option<String>,
    /// LSNs of commit records awaiting durability (for batch stats).
    pending_commits: Vec<u64>,
    /// Completed fsync count (indexes `fail_fsync`).
    fsyncs: u64,
    /// Commits acknowledged per fsync, in order (group-commit batches).
    groups: Vec<u32>,
    /// Total bytes written to the file.
    written_bytes: u64,
}

/// Group-commit write-ahead log over one append-only file.
pub struct Wal {
    path: PathBuf,
    file: Mutex<File>,
    state: Mutex<WalState>,
    cond: Condvar,
    faults: WalFaults,
}

/// Throughput-facing statistics for benches and RESULT lines.
#[derive(Debug, Clone, Default)]
pub struct WalStats {
    pub next_lsn: u64,
    pub durable_lsn: u64,
    pub fsyncs: u64,
    pub written_bytes: u64,
    /// Commits acknowledged per fsync (group-commit batch sizes).
    pub groups: Vec<u32>,
}

impl WalStats {
    pub fn mean_group(&self) -> f64 {
        if self.groups.is_empty() {
            0.0
        } else {
            self.groups.iter().map(|&g| f64::from(g)).sum::<f64>() / self.groups.len() as f64
        }
    }
}

impl Wal {
    /// Create (or truncate) the log at `dir/wal.log`.
    pub fn create(dir: &Path) -> Result<Wal, WalError> {
        std::fs::create_dir_all(dir).map_err(|e| WalError::Io(e.to_string()))?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| WalError::Io(e.to_string()))?;
        Ok(Wal::with_file(path, file, 1, 0))
    }

    /// Reopen an existing log for appending after recovery scanned it:
    /// the file is truncated to `valid_bytes` (dropping any torn tail)
    /// and LSNs continue from `next_lsn`.
    pub fn reopen(dir: &Path, valid_bytes: u64, next_lsn: u64) -> Result<Wal, WalError> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)
            .map_err(|e| WalError::Io(e.to_string()))?;
        file.set_len(valid_bytes)
            .map_err(|e| WalError::Io(e.to_string()))?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| WalError::Io(e.to_string()))?;
        Ok(Wal::with_file(path, file, next_lsn, valid_bytes))
    }

    fn with_file(path: PathBuf, file: File, next_lsn: u64, written: u64) -> Wal {
        Wal {
            path,
            file: Mutex::new(file),
            state: Mutex::new(WalState {
                buf: Vec::new(),
                buffered_lsn: 0,
                next_lsn,
                durable_lsn: next_lsn - 1,
                flushing: false,
                poisoned: None,
                pending_commits: Vec::new(),
                fsyncs: 0,
                groups: Vec::new(),
                written_bytes: written,
            }),
            cond: Condvar::new(),
            faults: WalFaults::none(),
        }
    }

    /// Attach a fault schedule (chaos tests).
    pub fn with_faults(mut self, faults: WalFaults) -> Wal {
        self.faults = faults;
        self
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Serialize and buffer `ops` as consecutive frames. Returns the LSN
    /// of the **last** buffered record; pass it to
    /// [`Wal::commit_durable`] to make the batch durable. Fails without
    /// buffering anything past the fault point when a crash or
    /// torn-write fault fires.
    pub fn append(&self, ops: &[WalOp]) -> Result<u64, WalError> {
        let mut st = self.state.lock().unwrap();
        if let Some(msg) = &st.poisoned {
            return Err(WalError::Poisoned(msg.clone()));
        }
        for op in ops {
            let lsn = st.next_lsn;
            // crash@lsn: flush everything before this frame, then halt.
            if self.faults.crash_at_lsn.contains(&lsn) {
                let msg = format!("injected fault: crash@lsn#{lsn}");
                self.flush_for_poison(&mut st, None, &msg);
                self.cond.notify_all();
                return Err(WalError::Poisoned(msg));
            }
            let frame = encode_frame(lsn, op);
            if let Some(&(_, keep)) = self.faults.torn_write.iter().find(|&&(l, _)| l == lsn) {
                let msg = format!("injected fault: torn@lsn#{lsn}+{keep}");
                let torn: Vec<u8> = frame.iter().copied().take(keep as usize).collect();
                self.flush_for_poison(&mut st, Some(torn), &msg);
                self.cond.notify_all();
                return Err(WalError::Poisoned(msg));
            }
            st.buf.extend_from_slice(&frame);
            st.buffered_lsn = lsn;
            st.next_lsn = lsn + 1;
            if matches!(op, WalOp::Commit { .. }) {
                st.pending_commits.push(lsn);
            }
        }
        Ok(st.next_lsn - 1)
    }

    /// Write out everything buffered (plus an optional torn suffix) and
    /// poison the log: the file now holds exactly what a crash at this
    /// point would leave behind. Buffered frames *before* the fault
    /// point still reach the file — a crash loses the fsync guarantee,
    /// not bytes the page cache already accepted; recovery treats both
    /// the same and the tests exercise the strictest (all-bytes-present)
    /// prefix.
    fn flush_for_poison(&self, st: &mut WalState, torn_tail: Option<Vec<u8>>, msg: &str) {
        let mut bytes = std::mem::take(&mut st.buf);
        if let Some(tail) = torn_tail {
            bytes.extend_from_slice(&tail);
        }
        let mut file = self.file.lock().unwrap();
        let _ = file.write_all(&bytes);
        let _ = file.sync_data();
        st.written_bytes += bytes.len() as u64;
        st.poisoned = Some(msg.to_owned());
    }

    /// Block until `lsn` is durable (group commit). The caller must have
    /// appended the record for `lsn` already.
    pub fn commit_durable(&self, lsn: u64) -> Result<(), WalError> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(msg) = &st.poisoned {
                return Err(WalError::Poisoned(msg.clone()));
            }
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if !st.flushing {
                // Become the leader: take the buffer, flush outside the
                // state lock so later appends/commits form the next group.
                st.flushing = true;
                let bytes = std::mem::take(&mut st.buf);
                let target = st.buffered_lsn;
                let fsync_idx = st.fsyncs;
                let acked = {
                    let covered = st.pending_commits.iter().filter(|&&c| c <= target).count();
                    st.pending_commits.retain(|&c| c > target);
                    covered as u32
                };
                drop(st);

                let io_result = (|| -> Result<(), String> {
                    let mut file = self.file.lock().unwrap();
                    file.write_all(&bytes).map_err(|e| e.to_string())?;
                    if self.faults.fail_fsync.contains(&fsync_idx) {
                        return Err(format!("injected fault: fsync@wal#{fsync_idx}"));
                    }
                    file.sync_data().map_err(|e| e.to_string())?;
                    Ok(())
                })();

                st = self.state.lock().unwrap();
                st.flushing = false;
                st.fsyncs += 1;
                st.written_bytes += bytes.len() as u64;
                match io_result {
                    Ok(()) => {
                        st.durable_lsn = st.durable_lsn.max(target);
                        if acked > 0 {
                            st.groups.push(acked);
                        }
                    }
                    Err(msg) => {
                        st.poisoned = Some(msg);
                    }
                }
                self.cond.notify_all();
            } else {
                st = self.cond.wait(st).unwrap();
            }
        }
    }

    pub fn is_poisoned(&self) -> bool {
        self.state.lock().unwrap().poisoned.is_some()
    }

    pub fn stats(&self) -> WalStats {
        let st = self.state.lock().unwrap();
        WalStats {
            next_lsn: st.next_lsn,
            durable_lsn: st.durable_lsn,
            fsyncs: st.fsyncs,
            written_bytes: st.written_bytes,
            groups: st.groups.clone(),
        }
    }
}

// ---- frame encoding -----------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Small branchless table built once.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::I64(x) => {
            out.push(0);
            put_u64(out, *x as u64);
        }
        Value::I32(x) => {
            out.push(1);
            put_u32(out, *x as u32);
        }
        Value::F64(x) => {
            out.push(2);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            out.push(3);
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Serialize one record as a complete frame (header + payload).
pub fn encode_frame(lsn: u64, op: &WalOp) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32);
    put_u64(&mut payload, lsn);
    match op {
        WalOp::Insert { txn, table, row } => {
            payload.push(0);
            put_u64(&mut payload, *txn);
            put_u32(&mut payload, *table);
            put_u32(&mut payload, row.len() as u32);
            for v in row {
                put_value(&mut payload, v);
            }
        }
        WalOp::Delete { txn, table, row_id } => {
            payload.push(1);
            put_u64(&mut payload, *txn);
            put_u32(&mut payload, *table);
            put_u64(&mut payload, *row_id);
        }
        WalOp::Commit { txn, commit_ts } => {
            payload.push(2);
            put_u64(&mut payload, *txn);
            put_u64(&mut payload, *commit_ts);
        }
        WalOp::Merge { table, upto_ts } => {
            payload.push(3);
            put_u32(&mut payload, *table);
            put_u64(&mut payload, *upto_ts);
        }
    }
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.pos + n > self.bytes.len() {
            return Err(WalError::Corrupt("payload truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn value(&mut self) -> Result<Value, WalError> {
        Ok(match self.u8()? {
            0 => Value::I64(self.u64()? as i64),
            1 => Value::I32(self.u32()? as i32),
            2 => Value::F64(f64::from_bits(self.u64()?)),
            3 => {
                let len = self.u32()? as usize;
                let bytes = self.take(len)?;
                Value::Str(
                    std::str::from_utf8(bytes)
                        .map_err(|_| WalError::Corrupt("non-utf8 string".into()))?
                        .to_owned(),
                )
            }
            t => return Err(WalError::Corrupt(format!("unknown value tag {t}"))),
        })
    }
}

/// Decode one payload (the bytes after the frame header) into a record.
pub fn decode_payload(payload: &[u8]) -> Result<WalRecord, WalError> {
    let mut c = Cursor {
        bytes: payload,
        pos: 0,
    };
    let lsn = c.u64()?;
    let op = match c.u8()? {
        0 => {
            let txn = c.u64()?;
            let table = c.u32()?;
            let n = c.u32()? as usize;
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(c.value()?);
            }
            WalOp::Insert { txn, table, row }
        }
        1 => WalOp::Delete {
            txn: c.u64()?,
            table: c.u32()?,
            row_id: c.u64()?,
        },
        2 => WalOp::Commit {
            txn: c.u64()?,
            commit_ts: c.u64()?,
        },
        3 => WalOp::Merge {
            table: c.u32()?,
            upto_ts: c.u64()?,
        },
        t => return Err(WalError::Corrupt(format!("unknown op tag {t}"))),
    };
    if c.pos != payload.len() {
        return Err(WalError::Corrupt("trailing payload bytes".into()));
    }
    Ok(WalRecord { lsn, op })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "morsel-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert {
                txn: 7,
                table: 0,
                row: vec![
                    Value::I64(42),
                    Value::I32(-3),
                    Value::F64(1.5),
                    Value::Str("it's".into()),
                ],
            },
            WalOp::Delete {
                txn: 7,
                table: 0,
                row_id: 0x8000_0000_0000_0001,
            },
            WalOp::Commit {
                txn: 7,
                commit_ts: 11,
            },
            WalOp::Merge {
                table: 0,
                upto_ts: 11,
            },
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frames_round_trip() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let lsn = i as u64 + 1;
            let frame = encode_frame(lsn, &op);
            let len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(frame[4..8].try_into().unwrap());
            let payload = &frame[FRAME_HEADER..];
            assert_eq!(payload.len(), len);
            assert_eq!(crc32(payload), crc);
            let rec = decode_payload(payload).unwrap();
            assert_eq!(rec.lsn, lsn);
            assert_eq!(rec.op, op);
        }
    }

    #[test]
    fn append_assigns_contiguous_lsns_and_commit_is_durable() {
        let dir = tmpdir("basic");
        let wal = Wal::create(&dir).unwrap();
        let last = wal.append(&sample_ops()).unwrap();
        assert_eq!(last, 4);
        wal.commit_durable(last).unwrap();
        let st = wal.stats();
        assert_eq!(st.durable_lsn, 4);
        assert_eq!(st.next_lsn, 5);
        assert_eq!(st.fsyncs, 1);
        assert_eq!(st.groups, vec![1], "one commit record in the group");
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(bytes.len() as u64, st.written_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_fault_keeps_exact_prefix_and_poisons() {
        let dir = tmpdir("crash");
        let wal = Wal::create(&dir)
            .unwrap()
            .with_faults(WalFaults::crash_at(3));
        let err = wal.append(&sample_ops()).unwrap_err();
        assert!(matches!(err, WalError::Poisoned(_)), "{err:?}");
        assert!(wal.is_poisoned());
        // Everything later fails fast.
        assert!(wal.append(&sample_ops()[..1]).is_err());
        assert!(wal.commit_durable(1).is_err());
        // The file holds exactly frames 1 and 2.
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let ops = sample_ops();
        let expect: Vec<u8> = encode_frame(1, &ops[0])
            .into_iter()
            .chain(encode_frame(2, &ops[1]))
            .collect();
        assert_eq!(bytes, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_leaves_partial_frame() {
        let dir = tmpdir("torn");
        let wal = Wal::create(&dir)
            .unwrap()
            .with_faults(WalFaults::torn_at(2, 5));
        let err = wal.append(&sample_ops()).unwrap_err();
        assert!(matches!(err, WalError::Poisoned(_)));
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let ops = sample_ops();
        let full1 = encode_frame(1, &ops[0]);
        assert_eq!(bytes.len(), full1.len() + 5, "frame 1 plus 5 torn bytes");
        assert_eq!(&bytes[..full1.len()], &full1[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_fsync_poisons_and_commit_errors() {
        let dir = tmpdir("fsync");
        let wal = Wal::create(&dir)
            .unwrap()
            .with_faults(WalFaults::fsync_fail(0));
        let last = wal.append(&sample_ops()).unwrap();
        let err = wal.commit_durable(last).unwrap_err();
        assert!(matches!(err, WalError::Poisoned(_)), "{err:?}");
        assert!(wal.is_poisoned());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_concurrent_committers() {
        let dir = tmpdir("group");
        let wal = std::sync::Arc::new(Wal::create(&dir).unwrap());
        let threads = 8u64;
        let per = 4u64;
        let mut joins = Vec::new();
        for t in 0..threads {
            let wal = std::sync::Arc::clone(&wal);
            joins.push(std::thread::spawn(move || {
                for i in 0..per {
                    let lsn = wal
                        .append(&[
                            WalOp::Insert {
                                txn: t,
                                table: 0,
                                row: vec![Value::I64(i as i64)],
                            },
                            WalOp::Commit {
                                txn: t,
                                commit_ts: 1,
                            },
                        ])
                        .unwrap();
                    wal.commit_durable(lsn).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let st = wal.stats();
        let total: u32 = st.groups.iter().sum();
        assert_eq!(u64::from(total), threads * per, "every commit acknowledged");
        assert_eq!(st.durable_lsn, st.next_lsn - 1);
        assert!(
            st.fsyncs <= threads * per,
            "fsyncs ({}) never exceed commits",
            st.fsyncs
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_lsns_and_truncates() {
        let dir = tmpdir("reopen");
        let wal = Wal::create(&dir).unwrap();
        let ops = sample_ops();
        let last = wal.append(&ops[..2]).unwrap();
        wal.commit_durable(last).unwrap();
        let valid = wal.stats().written_bytes;
        drop(wal);
        // Simulate a torn tail beyond the valid prefix.
        {
            use std::io::Write;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(WAL_FILE))
                .unwrap();
            f.write_all(&[0xAB, 0xCD]).unwrap();
        }
        let wal = Wal::reopen(&dir, valid, last + 1).unwrap();
        let l2 = wal.append(&ops[2..3]).unwrap();
        assert_eq!(l2, 3);
        wal.commit_durable(l2).unwrap();
        let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let expect: Vec<u8> = encode_frame(1, &ops[0])
            .into_iter()
            .chain(encode_frame(2, &ops[1]))
            .chain(encode_frame(3, &ops[2]))
            .collect();
        assert_eq!(bytes, expect, "torn tail dropped, frame 3 appended after");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
