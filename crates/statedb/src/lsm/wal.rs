//! Write-ahead log: one crc-framed record per committed block.
//!
//! Frame layout: `[u32 payload_len][u32 crc32(payload)][payload]` where the
//! payload is `u64 block_num, u32 entry_count, entries…` using the shared
//! [`DiskEntry`] encoding. Recovery reads frames until EOF; a torn or
//! corrupt tail frame ends replay cleanly (the block it belonged to was
//! never acknowledged), while corruption *before* the tail is reported as
//! [`fabric_common::Error::Corruption`].

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fabric_common::codec::{Decode, Decoder, Encode, Encoder};
use fabric_common::{BlockNum, Error, Result};

use fabric_common::crc32;
use super::record::DiskEntry;

/// Injected outcome for one WAL append — the chaos subsystem's seam for
/// exercising torn-write recovery without killing the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalIoFault {
    /// Perform the append normally.
    None,
    /// Persist only the first `keep` bytes of the frame, then report an
    /// I/O error: the on-disk effect of a crash mid-append.
    TornWrite {
        /// Bytes of the frame that reach the disk (clamped to frame size).
        keep: usize,
    },
    /// Report an I/O error before anything is written.
    ErrorBeforeWrite,
}

/// Source of per-append fault verdicts.
///
/// Implementations must be deterministic functions of their own state so
/// fault schedules replay exactly from a seed.
pub trait WalFaultPolicy: Send + Sync {
    /// Verdict for the next append of `block`.
    fn on_append(&self, block: BlockNum) -> WalIoFault;
}

/// A block's worth of writes as recorded in the WAL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The committed block number.
    pub block: BlockNum,
    /// The block's state writes.
    pub entries: Vec<DiskEntry>,
}

/// Appender for the write-ahead log.
pub struct WalWriter {
    file: BufWriter<File>,
    path: PathBuf,
    sync_writes: bool,
    faults: Option<Arc<dyn WalFaultPolicy>>,
}

impl WalWriter {
    /// Opens (creating or appending to) the WAL at `path`.
    pub fn open(path: impl Into<PathBuf>, sync_writes: bool) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(WalWriter { file: BufWriter::new(file), path, sync_writes, faults: None })
    }

    /// Installs (or clears) the fault policy consulted on every append.
    pub fn set_fault_policy(&mut self, faults: Option<Arc<dyn WalFaultPolicy>>) {
        self.faults = faults;
    }

    /// Appends one block record, flushing (and optionally fsyncing) so the
    /// record is durable before the commit is acknowledged.
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        let mut enc = Encoder::with_capacity(64 * record.entries.len() + 16);
        enc.put_u64(record.block);
        enc.put_u32(record.entries.len() as u32);
        for e in &record.entries {
            e.encode(&mut enc);
        }
        let payload = enc.into_bytes();
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        match self.faults.as_ref().map_or(WalIoFault::None, |f| f.on_append(record.block)) {
            WalIoFault::None => {}
            WalIoFault::TornWrite { keep } => {
                let keep = keep.min(frame.len());
                self.file.write_all(&frame[..keep])?;
                self.file.flush()?;
                if self.sync_writes {
                    self.file.get_ref().sync_data()?;
                }
                return Err(Error::Io(std::io::Error::other(format!(
                    "injected torn write: {keep}/{} bytes of block {} frame persisted",
                    frame.len(),
                    record.block
                ))));
            }
            WalIoFault::ErrorBeforeWrite => {
                return Err(Error::Io(std::io::Error::other(format!(
                    "injected wal error before writing block {}",
                    record.block
                ))));
            }
        }

        self.file.write_all(&frame)?;
        self.file.flush()?;
        if self.sync_writes {
            self.file.get_ref().sync_data()?;
        }
        Ok(())
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads all complete records from the WAL at `path`.
///
/// Returns the records in append order. A torn tail (truncated or
/// crc-mismatching final frame) is tolerated; corruption in the middle of
/// the log is an error.
pub fn replay(path: &Path) -> Result<Vec<WalRecord>> {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut buf)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    }

    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < buf.len() {
        if pos + 8 > buf.len() {
            // Torn frame header at the tail.
            break;
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let expect_crc = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let body_start = pos + 8;
        if body_start + len > buf.len() {
            // Torn payload at the tail.
            break;
        }
        let payload = &buf[body_start..body_start + len];
        if crc32(payload) != expect_crc {
            if body_start + len == buf.len() {
                // Corrupt final frame: treat as torn tail.
                break;
            }
            return Err(Error::Corruption(format!(
                "wal crc mismatch at offset {pos} (not the tail frame)"
            )));
        }
        let mut dec = Decoder::new(payload);
        let block = dec.get_u64()?;
        let count = dec.get_u32()? as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(DiskEntry::decode(&mut dec)?);
        }
        dec.finish()?;
        records.push(WalRecord { block, entries });
        pos = body_start + len;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::{Key, Value, Version};

    fn entry(i: u64) -> DiskEntry {
        DiskEntry {
            key: Key::composite("k", i),
            value: Some(Value::from_i64(i as i64)),
            version: Version::new(i, 0),
        }
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fabric-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_replay() {
        let dir = tmpdir("basic");
        let path = dir.join("wal");
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord { block: 0, entries: vec![entry(1), entry(2)] }).unwrap();
            w.append(&WalRecord { block: 1, entries: vec![entry(3)] }).unwrap();
        }
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].block, 0);
        assert_eq!(records[0].entries.len(), 2);
        assert_eq!(records[1].block, 1);
        assert_eq!(records[1].entries[0], entry(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_replays_empty() {
        let dir = tmpdir("missing");
        assert!(replay(&dir.join("nope")).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let dir = tmpdir("torn");
        let path = dir.join("wal");
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord { block: 0, entries: vec![entry(1)] }).unwrap();
            w.append(&WalRecord { block: 1, entries: vec![entry(2)] }).unwrap();
        }
        // Truncate mid-way through the second frame.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].block, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_tail_frame_is_tolerated() {
        let dir = tmpdir("corrupt-tail");
        let path = dir.join("wal");
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord { block: 0, entries: vec![entry(1)] }).unwrap();
            w.append(&WalRecord { block: 1, entries: vec![entry(2)] }).unwrap();
        }
        let mut full = std::fs::read(&path).unwrap();
        let n = full.len();
        full[n - 1] ^= 0xFF; // flip a payload byte of the final frame
        std::fs::write(&path, &full).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_before_tail_is_an_error() {
        let dir = tmpdir("corrupt-mid");
        let path = dir.join("wal");
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord { block: 0, entries: vec![entry(1)] }).unwrap();
            w.append(&WalRecord { block: 1, entries: vec![entry(2)] }).unwrap();
        }
        let mut full = std::fs::read(&path).unwrap();
        full[10] ^= 0xFF; // corrupt the first frame's payload
        std::fs::write(&path, &full).unwrap();
        assert!(matches!(replay(&path), Err(Error::Corruption(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_appends() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal");
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord { block: 0, entries: vec![] }).unwrap();
        }
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord { block: 1, entries: vec![entry(9)] }).unwrap();
        }
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].block, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Policy tearing the append of one specific block.
    struct TearBlock {
        block: BlockNum,
        keep: usize,
    }

    impl WalFaultPolicy for TearBlock {
        fn on_append(&self, block: BlockNum) -> WalIoFault {
            if block == self.block {
                WalIoFault::TornWrite { keep: self.keep }
            } else {
                WalIoFault::None
            }
        }
    }

    #[test]
    fn injected_torn_write_recovers_prefix() {
        let dir = tmpdir("inject-torn");
        let path = dir.join("wal");
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.set_fault_policy(Some(Arc::new(TearBlock { block: 1, keep: 7 })));
            w.append(&WalRecord { block: 0, entries: vec![entry(1)] }).unwrap();
            let err = w.append(&WalRecord { block: 1, entries: vec![entry(2)] }).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "torn write surfaces as I/O error: {err}");
        }
        // The partial frame is on disk but replay stops cleanly before it.
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].block, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_error_before_write_leaves_log_clean() {
        let dir = tmpdir("inject-err");
        let path = dir.join("wal");
        struct FailAll;
        impl WalFaultPolicy for FailAll {
            fn on_append(&self, _block: BlockNum) -> WalIoFault {
                WalIoFault::ErrorBeforeWrite
            }
        }
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord { block: 0, entries: vec![entry(1)] }).unwrap();
            w.set_fault_policy(Some(Arc::new(FailAll)));
            assert!(w.append(&WalRecord { block: 1, entries: vec![entry(2)] }).is_err());
            w.set_fault_policy(None);
            w.append(&WalRecord { block: 1, entries: vec![entry(2)] }).unwrap();
        }
        // Nothing was written for the failed attempt: the log is two clean
        // frames.
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].block, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_record_round_trips() {
        let dir = tmpdir("empty-rec");
        let path = dir.join("wal");
        {
            let mut w = WalWriter::open(&path, true).unwrap();
            w.append(&WalRecord { block: 0, entries: vec![] }).unwrap();
        }
        let records = replay(&path).unwrap();
        assert_eq!(records, vec![WalRecord { block: 0, entries: vec![] }]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
