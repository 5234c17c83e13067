//! Append-only on-disk block log.
//!
//! One frame per committed block, in the format the ledger's own block
//! file uses (`[u32 len][u32 crc32(payload)][payload]`, payload = the
//! [`CommittedBlock`] storage encoding; see `frame.rs`). Loading
//! verifies every crc and rejects torn or corrupt frames (unlike the WAL, a
//! block log is only written after commit, so a torn tail indicates data
//! loss and is reported, not skipped).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use fabric_common::{Error, Result};

use crate::block::CommittedBlock;
use crate::frame::{self, Frame};
use crate::ledger::Ledger;

/// Append-only block log on disk.
pub struct FileBlockStore {
    file: BufWriter<File>,
    path: PathBuf,
}

impl FileBlockStore {
    /// Opens (creating or appending to) the block log at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(FileBlockStore { file: BufWriter::new(file), path })
    }

    /// Appends one committed block and flushes it to the OS.
    pub fn append(&mut self, cb: &CommittedBlock) -> Result<()> {
        self.file.write_all(&frame::encode(cb))?;
        self.file.flush()?;
        Ok(())
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }

    /// Path of the log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads every block from the log at `path`, verifying integrity.
    pub fn load(path: &Path) -> Result<Vec<CommittedBlock>> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        }
        let mut blocks = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            let corrupt = |what: &str| {
                Error::Corruption(format!("block log {}: {what} at offset {pos}", path.display()))
            };
            let frame = Frame::split(&buf[pos..]).ok_or_else(|| corrupt("torn frame"))?;
            if !frame.crc_ok() {
                return Err(corrupt("crc mismatch"));
            }
            blocks.push(frame.decode()?);
            pos += frame.len();
        }
        Ok(blocks)
    }

    /// Rebuilds a [`Ledger`] from the log at `path`, re-verifying
    /// all chain linkage along the way.
    pub fn load_into_ledger(path: &Path) -> Result<Ledger> {
        let ledger = Ledger::new();
        for cb in Self::load(path)? {
            ledger.append(cb)?;
        }
        Ok(ledger)
    }

    /// Crash recovery: loads the valid frame prefix of the log at `path`,
    /// tolerating — and truncating away — a torn or corrupt *tail* frame
    /// (the on-disk effect of a crash mid-append). The truncation makes
    /// subsequent [`FileBlockStore::open`]/`append` safe. Corruption before
    /// the tail still fails: that is data loss, not a crash artefact.
    pub fn recover(path: &Path) -> Result<RecoveredLog> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RecoveredLog { blocks: Vec::new(), truncated_bytes: 0 });
            }
            Err(e) => return Err(e.into()),
        }
        let mut blocks = Vec::new();
        let mut pos = 0usize;
        while pos < buf.len() {
            let Some(frame) = Frame::split(&buf[pos..]) else {
                break; // torn header or payload at the tail
            };
            if !frame.crc_ok() {
                if pos + frame.len() == buf.len() {
                    break; // corrupt final frame: crash artefact
                }
                return Err(Error::Corruption(format!(
                    "block log {}: crc mismatch at offset {pos} (not the tail frame)",
                    path.display()
                )));
            }
            blocks.push(frame.decode()?);
            pos += frame.len();
        }
        let truncated_bytes = (buf.len() - pos) as u64;
        if truncated_bytes > 0 {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(pos as u64)?;
            f.sync_data()?;
        }
        Ok(RecoveredLog { blocks, truncated_bytes })
    }
}

/// Result of [`FileBlockStore::recover`].
#[derive(Debug)]
pub struct RecoveredLog {
    /// Blocks from the valid prefix, in append order.
    pub blocks: Vec<CommittedBlock>,
    /// Bytes of torn tail removed from the file (0 for a clean log).
    pub truncated_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::ledger::next_block;
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{
        ChannelId, ClientId, Key, Transaction, TxId, ValidationCode, Value, Version,
    };
    use std::time::Instant;

    fn tx(seed: u64) -> Transaction {
        Transaction {
            id: TxId(seed),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "cc".into(),
            rwset: rwset_from_keys(
                &[Key::composite("k", seed)],
                Version::GENESIS,
                &[Key::composite("k", seed)],
                &Value::from_i64(seed as i64),
            ),
            endorsements: vec![],
            created_at: Instant::now(),
        }
    }

    fn committed(block: Block) -> CommittedBlock {
        let n = block.txs.len();
        CommittedBlock::new(block, vec![ValidationCode::Valid; n]).unwrap()
    }

    fn tmpfile(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fabric-blocklog-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("blocks.log")
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn append_and_load() {
        let path = tmpfile("basic");
        let ledger = Ledger::new();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            for b in 0..4u64 {
                let cb = committed(next_block(&ledger, vec![tx(b * 2), tx(b * 2 + 1)]));
                ledger.append(cb.clone()).unwrap();
                store.append(&cb).unwrap();
            }
            store.sync().unwrap();
        }
        let blocks = FileBlockStore::load(&path).unwrap();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[3].block.header.number, 3);
        assert_eq!(blocks[0].block.txs[0].id, TxId(0));
        cleanup(&path);
    }

    #[test]
    fn load_into_ledger_verifies_chain() {
        let path = tmpfile("rebuild");
        let ledger = Ledger::new();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            for b in 0..3u64 {
                let cb = committed(next_block(&ledger, vec![tx(b)]));
                ledger.append(cb.clone()).unwrap();
                store.append(&cb).unwrap();
            }
        }
        let rebuilt = FileBlockStore::load_into_ledger(&path).unwrap();
        assert_eq!(rebuilt.height(), 3);
        rebuilt.verify_chain().unwrap();
        assert_eq!(rebuilt.tip_hash(), ledger.tip_hash());
        cleanup(&path);
    }

    #[test]
    fn missing_file_loads_empty() {
        let path = tmpfile("missing");
        assert!(FileBlockStore::load(&path).unwrap().is_empty());
        cleanup(&path);
    }

    #[test]
    fn corruption_is_detected() {
        let path = tmpfile("corrupt");
        let ledger = Ledger::new();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            let cb = committed(next_block(&ledger, vec![tx(1)]));
            store.append(&cb).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(FileBlockStore::load(&path), Err(Error::Corruption(_))));
        cleanup(&path);
    }

    #[test]
    fn truncation_is_detected() {
        let path = tmpfile("trunc");
        let ledger = Ledger::new();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            let cb = committed(next_block(&ledger, vec![tx(1)]));
            store.append(&cb).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(FileBlockStore::load(&path), Err(Error::Corruption(_))));
        cleanup(&path);
    }

    #[test]
    fn recover_truncates_torn_tail_and_resumes() {
        let path = tmpfile("recover");
        let ledger = Ledger::new();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            for b in 0..3u64 {
                let cb = committed(next_block(&ledger, vec![tx(b)]));
                ledger.append(cb.clone()).unwrap();
                store.append(&cb).unwrap();
            }
        }
        // Crash mid-append: the final frame is half-written.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let recovered = FileBlockStore::recover(&path).unwrap();
        assert_eq!(recovered.blocks.len(), 2);
        assert!(recovered.truncated_bytes > 0);

        // The truncated log is clean: plain load works and appending the
        // lost block again produces a fully valid log.
        let cb2 = ledger.get(2).unwrap();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            store.append(&cb2).unwrap();
        }
        let blocks = FileBlockStore::load(&path).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[2].block.header.number, 2);
        cleanup(&path);
    }

    #[test]
    fn recover_rejects_mid_log_corruption() {
        let path = tmpfile("recover-mid");
        let ledger = Ledger::new();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            for b in 0..3u64 {
                let cb = committed(next_block(&ledger, vec![tx(b)]));
                ledger.append(cb.clone()).unwrap();
                store.append(&cb).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF; // first frame payload
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(FileBlockStore::recover(&path), Err(Error::Corruption(_))));
        cleanup(&path);
    }

    #[test]
    fn reopen_appends_after_existing_blocks() {
        let path = tmpfile("reopen");
        let ledger = Ledger::new();
        let cb0 = committed(next_block(&ledger, vec![tx(0)]));
        ledger.append(cb0.clone()).unwrap();
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            store.append(&cb0).unwrap();
        }
        let cb1 = committed(next_block(&ledger, vec![tx(1)]));
        {
            let mut store = FileBlockStore::open(&path).unwrap();
            store.append(&cb1).unwrap();
        }
        let blocks = FileBlockStore::load(&path).unwrap();
        assert_eq!(blocks.len(), 2);
        cleanup(&path);
    }
}
