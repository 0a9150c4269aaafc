//! Crash recovery's reading half: scan the WAL frame by frame and find
//! where its valid prefix ends.
//!
//! Recovery is redo-only (ARIES without undo): the delta stores hold
//! committed data only, so there is nothing to roll back — operations
//! of transactions whose `Commit` record never became durable were
//! never applied and are simply discarded when replay ends.
//!
//! [`WalReader`] decodes frames one at a time from any [`Read`] — the
//! log file through a [`BufReader`] ([`read_wal`]), or an in-memory image
//! in tests — until the first one that fails any check: a header cut
//! short (zero-length tail), a length running past end-of-file (torn
//! write), a CRC mismatch (corrupt or partially written payload), or an
//! undecodable payload. Everything after the first bad frame is
//! unreachable (frames are not self-synchronizing by design: a commit is
//! only acknowledged once durable, so nothing after a torn frame was
//! ever promised to a client) and gets truncated when the log reopens
//! for appending.
//!
//! Redo is the transaction layer's: `morsel_txn::TxnDb::open` takes each
//! record as the reader decodes it and hands a transaction's records,
//! at its `Commit`, to the very call a live commit applies them with. So
//! recovery holds one frame and the records of still-uncommitted
//! transactions, never the whole log.

use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

use crate::wal::{crc32, decode_payload, WalError, WalRecord, FRAME_HEADER, WAL_FILE};

/// Upper bound on a sane frame payload; anything larger is treated as
/// corruption rather than an allocation request.
const MAX_PAYLOAD: u32 = 1 << 30;

/// How a scan of a WAL ended.
#[derive(Debug, Default)]
pub struct WalScan {
    /// Byte length of the valid prefix; the log reopens truncated here.
    pub valid_bytes: u64,
    /// Why the scan stopped before end-of-file, if it did.
    pub truncated: Option<String>,
}

/// A frame decoder over a log image: an iterator of every decodable
/// record before the first bad frame, in log order, reading as it goes.
/// [`WalReader::finish`] then says where the valid prefix ends.
pub struct WalReader<R> {
    src: R,
    /// The frame being decoded, reused from frame to frame.
    frame: Vec<u8>,
    scan: WalScan,
    /// An I/O error that ended the scan: the log could not be read, which
    /// says nothing about where its valid prefix ends.
    error: Option<WalError>,
    stopped: bool,
}

impl<R: Read> WalReader<R> {
    pub fn new(src: R) -> Self {
        WalReader {
            src,
            frame: Vec::new(),
            scan: WalScan::default(),
            error: None,
            stopped: false,
        }
    }

    /// How the scan ended, once the iterator is exhausted: the valid
    /// prefix and why it stopped short of end-of-file, or the read error
    /// that interrupted it.
    pub fn finish(self) -> Result<WalScan, WalError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.scan),
        }
    }

    /// Read up to `n` more bytes of the log into `self.frame`; fewer only
    /// at end-of-file. `None` after a read error, which it records.
    fn read_frame_bytes(&mut self, n: usize) -> Option<usize> {
        let before = self.frame.len();
        match (&mut self.src).take(n as u64).read_to_end(&mut self.frame) {
            Ok(_) => Some(self.frame.len() - before),
            Err(e) => {
                self.error = Some(WalError::Io(e.to_string()));
                None
            }
        }
    }

    /// The next frame's record, or why there is none.
    fn decode_next(&mut self) -> Result<WalRecord, Option<String>> {
        self.frame.clear();
        let got = self.read_frame_bytes(FRAME_HEADER).ok_or(None)?;
        if got == 0 {
            return Err(None);
        }
        if got < FRAME_HEADER {
            return Err(Some(format!("{got}-byte tail shorter than a frame header")));
        }
        let len = u32::from_le_bytes(self.frame[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(self.frame[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(Some(format!("implausible frame length {len}")));
        }
        // Grows with the bytes actually read, so a corrupt length past
        // end-of-file allocates no more than the file holds.
        if self.read_frame_bytes(len as usize).ok_or(None)? < len as usize {
            return Err(Some(format!(
                "frame length {len} runs past end of file (torn write)"
            )));
        }
        let payload = &self.frame[FRAME_HEADER..];
        if crc32(payload) != crc {
            return Err(Some("CRC mismatch".into()));
        }
        let rec = decode_payload(payload).map_err(|e| Some(format!("undecodable payload: {e}")))?;
        self.scan.valid_bytes += self.frame.len() as u64;
        Ok(rec)
    }
}

impl<R: Read> Iterator for WalReader<R> {
    type Item = WalRecord;

    fn next(&mut self) -> Option<WalRecord> {
        if self.stopped {
            return None;
        }
        match self.decode_next() {
            Ok(rec) => Some(rec),
            Err(why) => {
                self.stopped = true;
                self.scan.truncated = why;
                None
            }
        }
    }
}

/// Read `dir/wal.log` frame by frame. A missing directory or file is an
/// empty log — recovery on a never-written database is a no-op, not an
/// error.
pub fn read_wal(dir: &Path) -> Result<WalReader<Box<dyn Read>>, WalError> {
    let src: Box<dyn Read> = match File::open(dir.join(WAL_FILE)) {
        Ok(file) => Box::new(BufReader::new(file)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Box::new(std::io::empty()),
        Err(e) => return Err(WalError::Io(e.to_string())),
    };
    Ok(WalReader::new(src))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::wal::{encode_frame, Wal, WalFaults, WalOp};
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

    /// Every record `log` decodes, and how its scan ended.
    fn scan_all<R: Read>(mut log: WalReader<R>) -> (Vec<WalRecord>, WalScan) {
        let records = log.by_ref().collect();
        (records, log.finish().unwrap())
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
        let (records, scan) = scan_all(read_wal(&dir).unwrap());
        assert!(records.is_empty());
        assert_eq!(scan.valid_bytes, 0);
        assert!(scan.truncated.is_none());
    }

    #[test]
    fn scan_reads_everything_the_wal_wrote() {
        let dir = tmpdir("full");
        let wal = Wal::create(&dir).unwrap();
        let last = wal.append(&ops()).unwrap();
        wal.commit_durable(last).unwrap();
        drop(wal);
        let (records, scan) = scan_all(read_wal(&dir).unwrap());
        assert_eq!(records.len(), 4);
        assert!(scan.truncated.is_none());
        let ops: Vec<WalOp> = records.iter().map(|r| r.op.clone()).collect();
        assert_eq!(ops, self::ops());
        assert_eq!((records[0].lsn, records[3].lsn), (1, 4));
    }

    #[test]
    fn zero_length_tail_is_truncated() {
        let o = ops();
        let mut bytes = log_of(&[(1, o[0].clone()), (2, o[1].clone())]);
        let good = bytes.len() as u64;
        bytes.extend_from_slice(&[0x17, 0x00, 0x00]); // 3 stray bytes
        let (records, scan) = scan_all(WalReader::new(&bytes[..]));
        assert_eq!(records.len(), 2);
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
        let (records, scan) = scan_all(WalReader::new(&bytes[..]));
        assert_eq!(records.len(), 1);
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
        let (records, scan) = scan_all(WalReader::new(&bytes[..]));
        assert_eq!(records.len(), 1, "only frame 1 survives");
        assert_eq!(scan.valid_bytes, frames[0].len() as u64);
        assert_eq!(scan.truncated.as_deref(), Some("CRC mismatch"));
    }

    #[test]
    fn crash_fault_prefix_recovers_cleanly() {
        let dir = tmpdir("crashprefix");
        let wal = Wal::create(&dir)
            .unwrap()
            .with_faults(WalFaults::crash_at(4));
        let _ = wal.append(&ops());
        drop(wal);
        let (records, scan) = scan_all(read_wal(&dir).unwrap());
        assert_eq!(records.len(), 3, "frames before the crash LSN");
        assert!(scan.truncated.is_none(), "crash cut at a record boundary");
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
        let (records, scan) = scan_all(read_wal(&dir).unwrap());
        assert_eq!(records.len(), 2);
        assert!(scan.truncated.is_some());
        // Reopen truncates the torn bytes and appending continues at lsn 3.
        let wal = Wal::reopen(&dir, scan.valid_bytes, 3).unwrap();
        let o = ops();
        let last = wal.append(&o[2..]).unwrap();
        wal.commit_durable(last).unwrap();
        drop(wal);
        let (records, scan) = scan_all(read_wal(&dir).unwrap());
        assert_eq!(records.len(), 4);
        assert!(scan.truncated.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
