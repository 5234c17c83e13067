//! The peer's block file: the hash-chained ledger keeps only its tip block
//! and a per-block index in memory; every block lives in an append-only
//! file of crc-checked frames and is read back on demand.
//!
//! Appends verify linkage; the whole chain can be audited after the fact.
//! A ledger opened at a named path is durable and recovers itself from
//! that file after a crash.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use fabric_common::{BlockNum, Digest, Error, Result, TxId, ValidationCode};

use crate::block::{Block, CommittedBlock};
use crate::frame::{self, Frame};

/// A peer's local copy of the blockchain — Fabric's file-based block
/// store (paper §2).
///
/// Appends are checked: block numbers must be consecutive and each block's
/// `prev_hash` must equal the previous header's hash. Memory holds the tip
/// block (behind [`Arc`], so handing it back to the pipeline or out of
/// [`Ledger::get`] is a reference-count bump) and one small index entry
/// per block; every block is also one frame of a block file.
///
/// A ledger comes in two kinds, fixed by how it is built:
///
/// * [`Ledger::new`] is anonymous: each append *spills* the previous tip
///   into its file, so the tip itself is never written and `new` does no
///   I/O. The file is created by the first spill, in
///   [`std::env::temp_dir`], and unlinked at once, so it vanishes with the
///   ledger (or the process).
/// * [`Ledger::open`] is durable: its file lives at a named path, each
///   append writes and fsyncs the block's frame before it returns, and
///   reopening the path after a crash recovers the chain.
///
/// Reads of blocks below the tip ([`Ledger::get`], [`Ledger::for_each`],
/// [`Ledger::try_for_each`], [`Ledger::verify_chain`], [`Ledger::find_tx`],
/// [`Ledger::history_of`]) decode a fresh copy from the file with a
/// positional read under the index's read lock and check its crc.
/// Thread-safe; readers do not block each other.
///
/// Invariant: a written frame reads back as written. `get` and `for_each`
/// have no error path, so they panic — naming the block and its file
/// offset — on a frame that fails its crc or does not decode;
/// `try_for_each` and `verify_chain` report the same fault as
/// [`Error::Corruption`].
#[derive(Default)]
pub struct Ledger {
    chain: RwLock<Chain>,
}

/// Everything a ledger keeps in memory.
#[derive(Default)]
struct Chain {
    /// One entry per block, genesis first; the last one is the tip's.
    index: Vec<IndexEntry>,
    /// The newest block, also kept in memory when it is already written.
    tip: Option<Arc<CommittedBlock>>,
    /// The block file: opened by [`Ledger::open`], or created by an
    /// anonymous ledger's first spill.
    file: Option<File>,
    /// Bytes written to `file`: where the next frame goes.
    file_len: u64,
    /// Whether each append is written and synced at once (a ledger opened
    /// at a path).
    durable: bool,
}

/// What the ledger remembers of one block without reading it back.
#[derive(Clone, Copy)]
struct IndexEntry {
    /// Offset of the block's frame in the file (set when it is written).
    offset: u64,
    /// Length of the whole frame, header included (0 while unwritten).
    len: u32,
    /// The block header's hash.
    hash: Digest,
    /// Valid transactions in the block.
    valid: u32,
    /// All transactions in the block.
    txs: u32,
}

impl IndexEntry {
    /// The entry of `cb`, not yet written.
    fn of(cb: &CommittedBlock) -> Self {
        IndexEntry {
            offset: 0,
            len: 0,
            hash: cb.block.header.hash(),
            valid: cb.valid_count() as u32,
            txs: cb.block.txs.len() as u32,
        }
    }
}

/// Rejects a block whose transactions do not match its data hash.
fn check_data_hash(cb: &CommittedBlock) -> Result<()> {
    if cb.block.verify_data_hash() {
        return Ok(());
    }
    Err(Error::Corruption(format!(
        "block {}: data hash does not match transactions",
        cb.block.header.number
    )))
}

impl Chain {
    /// Rejects a block that is not the next one: out of turn, or not
    /// linked to the tip.
    fn check_link(&self, cb: &CommittedBlock) -> Result<()> {
        let expected_number = self.index.len() as BlockNum;
        if cb.block.header.number != expected_number {
            return Err(Error::InvalidState(format!(
                "append of block {} but chain height is {expected_number}",
                cb.block.header.number
            )));
        }
        let expected_prev = self.index.last().map_or(Digest::ZERO, |e| e.hash);
        if cb.block.header.prev_hash != expected_prev {
            return Err(Error::Corruption(format!(
                "block {}: prev_hash does not match chain tip",
                cb.block.header.number
            )));
        }
        Ok(())
    }

    /// Writes `cb` as the file's next frame (synced on a durable ledger)
    /// and returns its offset and length.
    fn write_frame(&mut self, cb: &CommittedBlock) -> Result<(u64, u32)> {
        let bytes = frame::encode(cb);
        let file = match &mut self.file {
            Some(file) => file,
            slot => slot.insert(open_anonymous_file()?),
        };
        let offset = self.file_len;
        file.write_all_at(&bytes, offset)?;
        if self.durable {
            file.sync_data()?;
        }
        self.file_len += bytes.len() as u64;
        Ok((offset, bytes.len() as u32))
    }

    /// Drops the tip from memory, writing it first unless it already is.
    fn spill_tip(&mut self) -> Result<()> {
        let Some(tip) = self.tip.take() else { return Ok(()) };
        if self.index.last().expect("a tip has an index entry").len > 0 {
            return Ok(());
        }
        match self.write_frame(&tip) {
            Ok((offset, len)) => {
                let entry = self.index.last_mut().expect("a tip has an index entry");
                (entry.offset, entry.len) = (offset, len);
                Ok(())
            }
            Err(e) => {
                self.tip = Some(tip);
                Err(e)
            }
        }
    }

    /// Block `n` (below the height): the tip itself, or a fresh copy read
    /// back from the file through `buf`.
    fn read(&self, n: BlockNum, buf: &mut Vec<u8>) -> Result<Arc<CommittedBlock>> {
        if n + 1 == self.index.len() as BlockNum {
            if let Some(tip) = &self.tip {
                return Ok(Arc::clone(tip));
            }
        }
        let entry = self.index[n as usize];
        let corrupt = |what: &str| {
            Error::Corruption(format!("ledger block {n} at offset {}: {what}", entry.offset))
        };
        let file = self.file.as_ref().expect("a written block has a file");
        buf.clear();
        buf.resize(entry.len as usize, 0);
        file.read_exact_at(buf, entry.offset).map_err(|e| corrupt(&e.to_string()))?;
        let frame = Frame::split(buf)
            .filter(|f| f.len() == buf.len())
            .ok_or_else(|| corrupt("frame length does not match the index"))?;
        if !frame.crc_ok() {
            return Err(corrupt("crc mismatch"));
        }
        let cb = frame.decode().map_err(|e| corrupt(&e.to_string()))?;
        if cb.block.header.number != n {
            return Err(corrupt(&format!("frame holds block {}", cb.block.header.number)));
        }
        Ok(Arc::new(cb))
    }
}

/// Creates an anonymous ledger's block file: a fresh file in the temp dir,
/// unlinked as soon as it is open, so only this handle reaches it.
fn open_anonymous_file() -> Result<File> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    loop {
        let path = std::env::temp_dir().join(format!(
            "fabric-ledger-{}-{}.blocks",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        match OpenOptions::new().read(true).write(true).create_new(true).open(&path) {
            Ok(file) => {
                std::fs::remove_file(&path)?;
                return Ok(file);
            }
            // Left behind by an earlier process with the same pid.
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Cuts the last `bytes` bytes (all, if the file is shorter) off the block
/// file at `path` and syncs it: what a crash that tore the final append
/// mid-write leaves on disk, for fault injection. [`Ledger::open`]
/// truncates such a file back to its last whole frame.
pub fn tear_block_file(path: &Path, bytes: u64) -> Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    let len = file.metadata()?.len();
    file.set_len(len.saturating_sub(bytes))?;
    file.sync_data()?;
    Ok(())
}

impl Ledger {
    /// Creates an empty anonymous ledger (no I/O: the block file comes
    /// with the first spill).
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the durable ledger whose block file is at `path`, creating an
    /// empty file if there is none, and returns it with the number of
    /// bytes of torn tail it cut off (0 for a file that ends in a whole
    /// frame).
    ///
    /// The frames are read one at a time; each must pass its crc and hold
    /// the next block, linked to the one before and matching its data
    /// hash. The last block becomes the tip. A final frame that is cut
    /// short or fails its crc is what a crash mid-append leaves behind: it
    /// is truncated off (and the truncation synced), so appends resume
    /// after the last whole block. Any other bad frame is data loss, not a
    /// crash artefact, and fails with [`Error::Corruption`] naming the
    /// block; the file is then left as it was.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, u64)> {
        let path = path.as_ref();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        // The file may be new: its directory entry must be durable too.
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
        File::open(dir)?.sync_all()?;
        let end = file.metadata()?.len();
        let mut chain = Chain { durable: true, ..Chain::default() };
        let mut header = [0u8; frame::HEADER_LEN];
        let mut buf = Vec::new();
        while end - chain.file_len >= header.len() as u64 {
            let pos = chain.file_len;
            let corrupt = |what: String| {
                Error::Corruption(format!(
                    "block file {}: block {} at offset {pos}: {what}",
                    path.display(),
                    chain.index.len()
                ))
            };
            file.read_exact_at(&mut header, pos)?;
            let len = frame::frame_len(&header);
            if end - pos < len {
                break; // cut short: the final frame, torn
            }
            buf.resize(len as usize, 0);
            file.read_exact_at(&mut buf, pos)?;
            let frame = Frame::split(&buf).expect("the buffer holds the whole frame");
            if !frame.crc_ok() {
                if pos + len == end {
                    break; // the final frame, torn
                }
                return Err(corrupt("crc mismatch (not the tail frame)".into()));
            }
            let cb = frame.decode().map_err(|e| corrupt(e.to_string()))?;
            check_data_hash(&cb)
                .and_then(|()| chain.check_link(&cb))
                .map_err(|e| corrupt(e.to_string()))?;
            let mut entry = IndexEntry::of(&cb);
            entry.offset = pos;
            entry.len = u32::try_from(len).map_err(|_| corrupt("frame over 4 GiB".into()))?;
            chain.index.push(entry);
            chain.tip = Some(Arc::new(cb));
            chain.file_len += len;
        }
        let torn = end - chain.file_len;
        if torn > 0 {
            file.set_len(chain.file_len)?;
            file.sync_data()?;
        }
        chain.file = Some(file);
        Ok((Ledger { chain: RwLock::new(chain) }, torn))
    }

    /// Appends a committed block after verifying chain linkage and the data
    /// hash, spilling the previous tip to the block file; a durable ledger
    /// writes and syncs the block itself before returning. The block is
    /// moved in once and returned as a shared handle.
    pub fn append(&self, cb: CommittedBlock) -> Result<Arc<CommittedBlock>> {
        check_data_hash(&cb)?;
        let mut entry = IndexEntry::of(&cb);
        let mut chain = self.chain.write();
        chain.check_link(&cb)?;
        chain.spill_tip()?;
        if chain.durable {
            (entry.offset, entry.len) = chain.write_frame(&cb)?;
        }
        let cb = Arc::new(cb);
        chain.index.push(entry);
        chain.tip = Some(Arc::clone(&cb));
        Ok(cb)
    }

    /// Number of blocks in the chain.
    pub fn height(&self) -> u64 {
        self.chain.read().index.len() as u64
    }

    /// The hash of the chain tip's header ([`Digest::ZERO`] when empty) —
    /// what the next block must link to.
    pub fn tip_hash(&self) -> Digest {
        self.chain.read().index.last().map_or(Digest::ZERO, |e| e.hash)
    }

    /// Shared handle to block `number`, if present: the tip itself, or a
    /// copy read back from the block file.
    ///
    /// # Panics
    /// If the block's frame fails its crc or does not decode.
    pub fn get(&self, number: BlockNum) -> Option<Arc<CommittedBlock>> {
        let chain = self.chain.read();
        if number >= chain.index.len() as BlockNum {
            return None;
        }
        Some(chain.read(number, &mut Vec::new()).unwrap_or_else(|e| panic!("{e}")))
    }

    /// Visits blocks `0..height` (the height when the walk starts) in
    /// order, each with the header hash its index entry holds, reading one
    /// block at a time under the read lock. Stops early when `f` returns
    /// `Ok(false)`, and at the first error, which it returns: `f`'s own, or
    /// [`Error::Corruption`] naming a block whose frame fails its crc or
    /// does not decode.
    pub fn try_for_each(
        &self,
        mut f: impl FnMut(&CommittedBlock, Digest) -> Result<bool>,
    ) -> Result<()> {
        let mut buf = Vec::new();
        for n in 0..self.height() {
            let (cb, hash) = {
                let chain = self.chain.read();
                (chain.read(n, &mut buf)?, chain.index[n as usize].hash)
            };
            if !f(&cb, hash)? {
                break;
            }
        }
        Ok(())
    }


    /// Full-chain audit: read every block back and recompute every linkage
    /// and data hash (and the header hash the index answers with).
    pub fn verify_chain(&self) -> Result<()> {
        let mut prev = Digest::ZERO;
        let mut i: BlockNum = 0;
        self.try_for_each(|cb, indexed| {
            if cb.block.header.prev_hash != prev {
                return Err(Error::Corruption(format!("block {i}: broken prev_hash link")));
            }
            if !cb.block.verify_data_hash() {
                return Err(Error::Corruption(format!("block {i}: data hash mismatch")));
            }
            prev = cb.block.header.hash();
            if prev != indexed {
                return Err(Error::Corruption(format!("block {i}: index hash mismatch")));
            }
            i += 1;
            Ok(true)
        })
    }

    /// Looks up the final validation code of a transaction anywhere in the
    /// chain (linear scan reading every block back; diagnostics and tests
    /// only).
    pub fn find_tx(&self, id: TxId) -> Option<(BlockNum, ValidationCode)> {
        let mut found = None;
        self.try_for_each(|cb, _| {
            found = cb
                .iter()
                .find(|(tx, _)| tx.id == id)
                .map(|(_, code)| (cb.block.header.number, code));
            Ok(found.is_none())
        })
        .unwrap_or_else(|e| panic!("{e}"));
        found
    }

    /// Totals of (valid, invalid) transactions across the whole chain,
    /// from the index.
    pub fn tx_totals(&self) -> (u64, u64) {
        let chain = self.chain.read();
        chain.index.iter().fold((0, 0), |(valid, invalid), e| {
            (valid + u64::from(e.valid), invalid + u64::from(e.txs - e.valid))
        })
    }

    /// Runs `f` over every committed block in order (the blocks below the
    /// height when the walk starts).
    ///
    /// # Panics
    /// If a block's frame fails its crc or does not decode.
    pub fn for_each(&self, mut f: impl FnMut(&CommittedBlock)) {
        self.try_for_each(|cb, _| {
            f(cb);
            Ok(true)
        })
        .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The full write history of `key` across the chain — Fabric's
    /// `GetHistoryForKey`. Returns one entry per *valid* transaction that
    /// wrote the key, oldest first: the committing block, the transaction
    /// id, and the written value (`None` = the key was deleted).
    pub fn history_of(&self, key: &fabric_common::Key) -> Vec<HistoryEntry> {
        let mut out = Vec::new();
        self.for_each(|cb| {
            for (tx, code) in cb.iter() {
                if !code.is_valid() {
                    continue;
                }
                if let Some(value) = tx.rwset.writes.value_of(key) {
                    out.push(HistoryEntry {
                        block: cb.block.header.number,
                        tx: tx.id,
                        value: value.cloned(),
                    });
                }
            }
        });
        out
    }
}

/// One write in a key's history (see [`Ledger::history_of`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Block that committed the write.
    pub block: BlockNum,
    /// The writing transaction.
    pub tx: TxId,
    /// The written value; `None` records a delete.
    pub value: Option<fabric_common::Value>,
}

impl std::fmt::Debug for Ledger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ledger(height={})", self.height())
    }
}

/// Convenience: builds the next block linked to this ledger's tip.
pub fn next_block(ledger: &Ledger, txs: Vec<fabric_common::Transaction>) -> Block {
    Block::build(ledger.height(), ledger.tip_hash(), txs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{ChannelId, ClientId, Key, Transaction, Value, Version};
    use std::path::PathBuf;
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

    #[test]
    fn append_and_audit() {
        let ledger = Ledger::new();
        for b in 0..5u64 {
            let block = next_block(&ledger, vec![tx(b * 2), tx(b * 2 + 1)]);
            ledger.append(committed(block)).unwrap();
        }
        assert_eq!(ledger.height(), 5);
        ledger.verify_chain().unwrap();
        assert_eq!(ledger.tx_totals(), (10, 0));
    }

    #[test]
    fn wrong_number_rejected() {
        let ledger = Ledger::new();
        let block = Block::build(3, Digest::ZERO, vec![]);
        assert!(ledger.append(committed(block)).is_err());
    }

    #[test]
    fn wrong_prev_hash_rejected() {
        let ledger = Ledger::new();
        ledger.append(committed(next_block(&ledger, vec![tx(1)]))).unwrap();
        // Forge a block 1 that links to ZERO instead of the tip.
        let forged = Block::build(1, Digest::ZERO, vec![tx(2)]);
        assert!(matches!(ledger.append(committed(forged)), Err(Error::Corruption(_))));
    }

    #[test]
    fn tampered_data_hash_rejected() {
        let ledger = Ledger::new();
        let mut block = next_block(&ledger, vec![tx(1)]);
        block.txs.push(tx(99)); // contents no longer match data_hash
        let cb = CommittedBlock::new(block, vec![ValidationCode::Valid; 2]).unwrap();
        assert!(matches!(ledger.append(cb), Err(Error::Corruption(_))));
    }

    #[test]
    fn find_tx_locates_codes() {
        let ledger = Ledger::new();
        let block = next_block(&ledger, vec![tx(10), tx(11)]);
        let cb = CommittedBlock::new(
            block,
            vec![ValidationCode::Valid, ValidationCode::MvccConflict],
        )
        .unwrap();
        ledger.append(cb).unwrap();
        assert_eq!(ledger.find_tx(TxId(10)), Some((0, ValidationCode::Valid)));
        assert_eq!(ledger.find_tx(TxId(11)), Some((0, ValidationCode::MvccConflict)));
        assert_eq!(ledger.find_tx(TxId(999)), None);
    }

    #[test]
    fn invalid_txs_are_still_stored() {
        // Paper §2.2.4: the ledger holds valid AND invalid transactions.
        let ledger = Ledger::new();
        let block = next_block(&ledger, vec![tx(1), tx(2), tx(3)]);
        let cb = CommittedBlock::new(
            block,
            vec![
                ValidationCode::Valid,
                ValidationCode::MvccConflict,
                ValidationCode::EndorsementFailure,
            ],
        )
        .unwrap();
        ledger.append(cb).unwrap();
        assert_eq!(ledger.tx_totals(), (1, 2));
        let stored = ledger.get(0).unwrap();
        assert_eq!(stored.block.txs.len(), 3);
    }

    #[test]
    fn get_out_of_range() {
        let ledger = Ledger::new();
        assert!(ledger.get(0).is_none());
        assert_eq!(ledger.tip_hash(), Digest::ZERO);
    }

    #[test]
    fn for_each_visits_in_order() {
        let ledger = Ledger::new();
        for b in 0..3u64 {
            ledger.append(committed(next_block(&ledger, vec![tx(b)]))).unwrap();
        }
        let mut numbers = Vec::new();
        ledger.for_each(|cb| numbers.push(cb.block.header.number));
        assert_eq!(numbers, vec![0, 1, 2]);
    }

    #[test]
    fn history_of_tracks_valid_writes_only() {
        use fabric_common::rwset::RwSetBuilder;
        let ledger = Ledger::new();

        let write_tx = |id: u64, key: &str, val: Option<i64>| {
            let mut b = RwSetBuilder::new();
            b.record_write(Key::from(key), val.map(Value::from_i64));
            Transaction {
                id: TxId(id),
                channel: ChannelId(0),
                client: ClientId(0),
                chaincode: "cc".into(),
                rwset: b.build(),
                endorsements: vec![],
                created_at: Instant::now(),
            }
        };
        // Block 0: valid write k=1, plus an INVALID write k=99.
        let b0 = next_block(&ledger, vec![write_tx(1, "k", Some(1)), write_tx(2, "k", Some(99))]);
        ledger
            .append(
                CommittedBlock::new(b0, vec![ValidationCode::Valid, ValidationCode::MvccConflict])
                    .unwrap(),
            )
            .unwrap();
        // Block 1: update then (block 2) delete.
        let b1 = next_block(&ledger, vec![write_tx(3, "k", Some(2))]);
        ledger.append(CommittedBlock::new(b1, vec![ValidationCode::Valid]).unwrap()).unwrap();
        let b2 = next_block(&ledger, vec![write_tx(4, "k", None)]);
        ledger.append(CommittedBlock::new(b2, vec![ValidationCode::Valid]).unwrap()).unwrap();

        let hist = ledger.history_of(&Key::from("k"));
        assert_eq!(hist.len(), 3, "invalid write excluded");
        assert_eq!(hist[0].block, 0);
        assert_eq!(hist[0].tx, TxId(1));
        assert_eq!(hist[0].value, Some(Value::from_i64(1)));
        assert_eq!(hist[1].value, Some(Value::from_i64(2)));
        assert_eq!(hist[2].value, None, "delete recorded");
        assert!(ledger.history_of(&Key::from("never")).is_empty());
    }

    #[test]
    fn concurrent_appends_stay_consistent() {
        // Appends are serialized by the write lock; readers walking the
        // chain (through the file and the tip) see a consistent prefix at
        // every moment, and every block they read links to the one before.
        let ledger = std::sync::Arc::new(Ledger::new());
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let l = std::sync::Arc::clone(&ledger);
                let done = std::sync::Arc::clone(&done);
                std::thread::spawn(move || {
                    let mut walks = 0u64;
                    while !done.load(std::sync::atomic::Ordering::Acquire) || walks == 0 {
                        let h = l.height();
                        if let Some(n) = h.checked_sub(1 + r) {
                            let cb = l.get(n).expect("below the height");
                            assert_eq!(cb.block.header.number, n);
                            assert_eq!(cb.block.txs[0].id, TxId(n));
                        }
                        let mut prev = Digest::ZERO;
                        let mut seen = 0u64;
                        l.for_each(|cb| {
                            assert_eq!(cb.block.header.number, seen);
                            assert_eq!(cb.block.header.prev_hash, prev);
                            prev = cb.block.header.hash();
                            seen += 1;
                        });
                        assert!(seen >= h, "a walk covers the height it started at");
                        walks += 1;
                    }
                })
            })
            .collect();
        for b in 0..200u64 {
            let block = next_block(&ledger, vec![tx(b)]);
            ledger.append(committed(block)).unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        let auditors: Vec<_> = (0..4)
            .map(|_| {
                let l = std::sync::Arc::clone(&ledger);
                std::thread::spawn(move || l.verify_chain().unwrap())
            })
            .collect();
        for a in auditors {
            a.join().unwrap();
        }
        assert_eq!(ledger.height(), 200);
    }

    #[test]
    fn new_does_no_io_and_the_tip_stays_in_memory() {
        let ledger = Ledger::new();
        assert!(ledger.chain.read().file.is_none());
        let first = ledger.append(committed(next_block(&ledger, vec![tx(0)]))).unwrap();
        assert!(ledger.chain.read().file.is_none(), "the only block is the tip");
        assert!(Arc::ptr_eq(&first, &ledger.get(0).unwrap()), "the tip is shared, not read back");
        ledger.append(committed(next_block(&ledger, vec![tx(1)]))).unwrap();
        assert!(ledger.chain.read().file.is_some(), "the second append spills the first block");
        assert!(!Arc::ptr_eq(&first, &ledger.get(0).unwrap()), "a spilled block is read back");
    }

    #[test]
    fn spilled_blocks_read_back_as_appended() {
        let ledger = Ledger::new();
        let mut appended = Vec::new();
        for b in 0..6u64 {
            let block = next_block(&ledger, vec![tx(b * 3), tx(b * 3 + 1), tx(b * 3 + 2)]);
            let codes = vec![ValidationCode::Valid, ValidationCode::MvccConflict, ValidationCode::Valid];
            appended.push(ledger.append(CommittedBlock::new(block, codes).unwrap()).unwrap());
        }
        for (n, want) in appended.iter().enumerate() {
            let got = ledger.get(n as BlockNum).unwrap();
            assert_eq!(got.block.header, want.block.header);
            assert_eq!(got.validity, want.validity);
            assert_eq!(got.block.txs.len(), want.block.txs.len());
            for (g, w) in got.block.txs.iter().zip(&want.block.txs) {
                assert_eq!((g.id, &g.rwset, &g.chaincode), (w.id, &w.rwset, &w.chaincode));
            }
        }
        assert_eq!(ledger.tx_totals(), (12, 6));
        assert_eq!(ledger.find_tx(TxId(4)), Some((1, ValidationCode::MvccConflict)));
        assert_eq!(ledger.tip_hash(), appended[5].block.header.hash());
        ledger.verify_chain().unwrap();
    }

    /// A ledger of three blocks whose block 1 has one payload byte flipped
    /// in the block file.
    fn ledger_with_flipped_byte_in_block_1() -> Ledger {
        let ledger = Ledger::new();
        for b in 0..3u64 {
            ledger.append(committed(next_block(&ledger, vec![tx(b)]))).unwrap();
        }
        {
            let chain = ledger.chain.read();
            let entry = chain.index[1];
            let file = chain.file.as_ref().unwrap();
            let at = entry.offset + u64::from(entry.len) / 2;
            let mut byte = [0u8];
            file.read_exact_at(&mut byte, at).unwrap();
            file.write_all_at(&[byte[0] ^ 0x01], at).unwrap();
        }
        ledger
    }

    #[test]
    fn flipped_byte_in_a_spilled_frame_fails_the_audit() {
        let ledger = ledger_with_flipped_byte_in_block_1();
        match ledger.verify_chain() {
            Err(Error::Corruption(msg)) => assert!(msg.contains("block 1"), "{msg}"),
            other => panic!("expected corruption, got {other:?}"),
        }
        // The intact blocks still read back.
        assert!(ledger.get(0).is_some());
        assert!(ledger.get(2).is_some());
    }

    #[test]
    #[should_panic(expected = "ledger block 1 at offset")]
    fn get_of_a_corrupt_spilled_frame_panics_naming_the_block() {
        ledger_with_flipped_byte_in_block_1().get(1);
    }

    /// A fresh block-file path under the temp dir (nothing there yet).
    fn block_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("fabric-ledger-test-{name}-{}.blocks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A durable ledger at a fresh path with `blocks` one-tx blocks,
    /// closed again; returns the path and the last block.
    fn durable(name: &str, blocks: u64) -> (PathBuf, CommittedBlock) {
        let path = block_path(name);
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn), (0, 0));
        let mut last = None;
        for b in 0..blocks {
            last = Some(ledger.append(committed(next_block(&ledger, vec![tx(b)]))).unwrap());
        }
        (path, CommittedBlock::clone(&last.unwrap()))
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
    }

    fn flip_byte(path: &Path, at: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[at] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
    }

    #[test]
    fn durable_append_writes_each_block_once_and_keeps_the_tip() {
        let path = block_path("durable");
        let (ledger, _) = Ledger::open(&path).unwrap();
        let first = ledger.append(committed(next_block(&ledger, vec![tx(0)]))).unwrap();
        let one = file_len(&path);
        assert!(one > 0, "a durable append writes the block before it returns");
        assert!(Arc::ptr_eq(&first, &ledger.get(0).unwrap()), "the tip stays in memory");
        ledger.append(committed(next_block(&ledger, vec![tx(1)]))).unwrap();
        let two = file_len(&path);
        assert!(two > one);
        let second = ledger.chain.read().index[1];
        assert_eq!((second.offset, second.offset + u64::from(second.len)), (one, two));
        assert_eq!(ledger.chain.read().index[0].len as u64, one, "the spill wrote nothing");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_and_reopen() {
        let (path, _) = durable("basic", 4);
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn), (4, 0));
        assert_eq!(ledger.get(3).unwrap().block.header.number, 3);
        assert_eq!(ledger.get(0).unwrap().block.txs[0].id, TxId(0));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_verifies_chain() {
        let (path, last) = durable("rebuild", 3);
        let (ledger, _) = Ledger::open(&path).unwrap();
        assert_eq!(ledger.height(), 3);
        ledger.verify_chain().unwrap();
        assert_eq!(ledger.tip_hash(), last.block.header.hash());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_opens_empty() {
        let path = block_path("missing");
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn, ledger.tip_hash()), (0, 0, Digest::ZERO));
        assert_eq!(file_len(&path), 0, "the file is created");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_final_frame_is_cut_off() {
        let (path, _) = durable("corrupt", 1);
        let len = file_len(&path);
        flip_byte(&path, len as usize / 2);
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn), (0, len), "the bad frame is reported, not served");
        assert_eq!(file_len(&path), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_byte_count_is_reported() {
        let (path, _) = durable("trunc", 1);
        let len = file_len(&path);
        tear_block_file(&path, 3).unwrap();
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert!(torn > 0);
        assert_eq!((ledger.height(), torn), (0, len - 3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_truncates_torn_tail_and_resumes() {
        let (path, lost) = durable("recover", 3);
        // Crash mid-append: the final frame is half-written.
        tear_block_file(&path, 5).unwrap();
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!(ledger.height(), 2);
        assert!(torn > 0);
        // The truncated file takes the lost block again, and a reopen then
        // sees the whole chain.
        ledger.append(lost).unwrap();
        drop(ledger);
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn), (3, 0));
        assert_eq!(ledger.get(2).unwrap().block.header.number, 2);
        ledger.verify_chain().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_rejects_mid_file_corruption() {
        let (path, _) = durable("recover-mid", 3);
        flip_byte(&path, 10); // block 0's payload
        let before = std::fs::read(&path).unwrap();
        match Ledger::open(&path) {
            Err(Error::Corruption(msg)) => assert!(msg.contains("block 0"), "{msg}"),
            other => panic!("expected corruption, got {:?}", other.map(|(l, t)| (l.height(), t))),
        }
        assert_eq!(std::fs::read(&path).unwrap(), before, "nothing truncated");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_rejects_a_whole_frame_out_of_turn() {
        // Two intact frames that both hold block 0: every crc passes, the
        // link check does not.
        let path = block_path("out-of-turn");
        let genesis = committed(next_block(&Ledger::new(), vec![tx(0)]));
        let frame = frame::encode(&genesis);
        std::fs::write(&path, [frame.as_slice(), &frame].concat()).unwrap();
        match Ledger::open(&path) {
            Err(Error::Corruption(msg)) => assert!(msg.contains("block 1"), "{msg}"),
            other => panic!("expected corruption, got {:?}", other.map(|(l, t)| (l.height(), t))),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_appends_after_existing_blocks() {
        let (path, _) = durable("reopen", 1);
        {
            let (ledger, _) = Ledger::open(&path).unwrap();
            ledger.append(committed(next_block(&ledger, vec![tx(1)]))).unwrap();
        }
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn), (2, 0));
        ledger.verify_chain().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
