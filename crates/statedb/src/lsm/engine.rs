//! The LSM engine: WAL + memtable + sorted runs + compaction, implementing
//! [`StateStore`].
//!
//! The memtable is the version-chain map the in-memory engine is made of
//! (`chain.rs`): every write since the last flush, as each key's trimmed
//! newest-first chain. A flush writes those chains to a new run; a
//! compaction merges every run's chains per key and trims them like any
//! chain. The memtable holds only facts newer than every run, and a newer
//! run only facts newer than an older one, so a read at height `h` walks
//! the memtable's chain and then each run's, newest first: the first fact
//! found is the newest, and the first at or below `h` answers the read.
//!
//! Durability protocol per block commit:
//!
//! 1. append the block's writes to the WAL (crc-framed, flushed),
//! 2. install them in the memtable under its per-shard locks,
//! 3. publish the block as last-committed (same visibility contract as the
//!    in-memory engine),
//! 4. if the memtable's byte count reached the threshold, flush it to a new
//!    SSTable (compacting when too many runs accumulate), persist a new
//!    MANIFEST and rotate the WAL. The runs are built under the commit lock
//!    only; readers are held off just while the new run list is swapped in
//!    and the memtable cleared.
//!
//! On reopen the engine loads the MANIFEST, opens the listed runs, replays
//! any WAL records newer than the last flushed block through the commit
//! path's install, and resumes exactly where it left off — including after
//! a crash mid-flush (the MANIFEST is replaced atomically via rename, so
//! either the old or the new table list is in effect, and the WAL covers
//! the difference).

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use fabric_common::{BlockNum, Error, Key, Result, StoreCounters, Version};
use fabric_trace::{EventKind, TraceSink};

use super::record::DiskEntry;
use super::sstable::{write_sstable, SsTableOptions, SsTableReader};
use super::wal::{replay, WalFaultPolicy, WalRecord, WalWriter};
use crate::chain::{
    newest_values, resolve_chain, trim_chain, Chain, ChainMap, Installed, ShardGroups, Watermark,
    DEFAULT_SHARDS,
};
use crate::pin::StateSnapshot;
use crate::store::{SnapshotGet, StateStore, VersionedValue, WriteBatch, WriteRef};

const MANIFEST: &str = "MANIFEST";
const WAL_FILE: &str = "wal.log";

/// Tuning knobs for the LSM engine.
#[derive(Clone)]
pub struct LsmConfig {
    /// Flush the memtable once its running byte count reaches this. The
    /// count is not the memtable's footprint: every write adds its key,
    /// its value and 24 bytes, and a write that replaces a key's unflushed
    /// newest fact gives back only that fact's value and 24 bytes — so each
    /// rewrite of a buffered key adds its key length again, and the count
    /// grows with the writes since the last flush, not with the keys held.
    pub memtable_max_bytes: usize,
    /// Merge all runs into one once this many have accumulated.
    pub compaction_threshold: usize,
    /// fsync the WAL on every commit (slower, strictly durable).
    pub sync_writes: bool,
    /// SSTable build options.
    pub sstable: SsTableOptions,
    /// Fault policy consulted on every WAL append (chaos testing seam);
    /// `None` disables injection.
    pub wal_faults: Option<Arc<dyn WalFaultPolicy>>,
    /// Recent versions retained per key for snapshot reads-at-height
    /// (clamped to ≥ 1; live pins extend retention past this regardless).
    pub retained_versions: usize,
}

impl fmt::Debug for LsmConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LsmConfig")
            .field("memtable_max_bytes", &self.memtable_max_bytes)
            .field("compaction_threshold", &self.compaction_threshold)
            .field("sync_writes", &self.sync_writes)
            .field("sstable", &self.sstable)
            .field("wal_faults", &self.wal_faults.as_ref().map(|_| "<policy>"))
            .field("retained_versions", &self.retained_versions)
            .finish()
    }
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_max_bytes: 4 * 1024 * 1024,
            compaction_threshold: 4,
            sync_writes: false,
            sstable: SsTableOptions::default(),
            wal_faults: None,
            retained_versions: 4,
        }
    }
}

/// The run list. Readers hold it for a whole read, so the memtable and
/// the runs they see are of one moment: a flush clears the memtable only
/// while holding it for writing.
struct Inner {
    /// Sorted runs, newest first.
    tables: Vec<Arc<SsTableReader>>,
    next_file_id: u64,
    /// Highest block already covered by the runs (WAL records at or below
    /// this are stale).
    flushed_block: Option<BlockNum>,
}

/// What only the committer touches; holding it is the commit ticket.
#[derive(Default)]
struct CommitState {
    groups: ShardGroups,
    /// The flush trigger's running count (see
    /// [`LsmConfig::memtable_max_bytes`]).
    memtable_bytes: usize,
}

/// Persistent LSM-backed state database.
pub struct LsmStateDb {
    dir: PathBuf,
    cfg: LsmConfig,
    inner: RwLock<Inner>,
    /// Every write since the last flush, as trimmed version chains.
    memtable: ChainMap,
    watermark: Watermark,
    wal: Mutex<WalWriter>,
    commit_lock: Mutex<CommitState>,
    /// Reusable list of the batched reads the memtable did not answer, so
    /// a warm engine batch-reads without allocating (see `take_pending`).
    read_scratch: Mutex<Vec<u32>>,
    counters: StoreCounters,
    sink: TraceSink,
}

impl LsmStateDb {
    /// Opens (or creates) an engine rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, cfg: LsmConfig) -> Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;

        let (tables, next_file_id, flushed_block) = Self::load_manifest(&dir)?;
        let records = replay(&dir.join(WAL_FILE))?;
        let mut wal = WalWriter::open(dir.join(WAL_FILE), cfg.sync_writes)?;
        wal.set_fault_policy(cfg.wal_faults.clone());
        let db = LsmStateDb {
            memtable: ChainMap::new(DEFAULT_SHARDS, cfg.retained_versions, true),
            dir,
            cfg,
            inner: RwLock::new(Inner { tables, next_file_id, flushed_block }),
            watermark: Watermark::new(flushed_block),
            wal: Mutex::new(wal),
            commit_lock: Mutex::new(CommitState::default()),
            read_scratch: Mutex::new(Vec::new()),
            counters: StoreCounters::new(),
            sink: TraceSink::disabled(),
        };

        // Replay WAL records newer than the flushed watermark through the
        // commit path's install, so the reopened engine resolves at-height
        // reads exactly like the one that crashed (modulo the pins, which
        // died with it).
        {
            let mut commit = db.commit_lock.lock();
            for rec in records.iter().filter(|r| flushed_block.is_none_or(|fb| r.block > fb)) {
                let writes = rec
                    .entries
                    .iter()
                    .map(|e| WriteRef { key: &e.key, value: e.value.as_ref(), tx: e.version.tx })
                    .collect();
                db.install_locked(&mut commit, &WriteBatch { block: rec.block, writes });
                db.watermark.publish(rec.block);
            }
        }
        Ok(db)
    }

    /// Attaches a flight-recorder sink; every group-commit WAL record
    /// emits one [`EventKind::WalRecord`] through it.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    fn load_manifest(dir: &Path) -> Result<(Vec<Arc<SsTableReader>>, u64, Option<BlockNum>)> {
        let path = dir.join(MANIFEST);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Vec::new(), 0, None));
            }
            Err(e) => return Err(e.into()),
        };
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != "fabric-lsm v1" {
            return Err(Error::Corruption(format!("bad manifest header: {header:?}")));
        }
        let next_file_id: u64 = lines
            .next()
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| Error::Corruption("manifest missing next_file_id".into()))?;
        let flushed_block = match lines.next() {
            Some("-") => None,
            Some(l) => Some(l.parse().map_err(|_| {
                Error::Corruption(format!("manifest bad flushed_block: {l:?}"))
            })?),
            None => return Err(Error::Corruption("manifest missing flushed_block".into())),
        };
        let mut tables = Vec::new();
        for name in lines {
            if name.is_empty() {
                continue;
            }
            tables.push(Arc::new(SsTableReader::open(dir.join(name))?));
        }
        Ok((tables, next_file_id, flushed_block))
    }

    fn write_manifest(dir: &Path, inner: &Inner) -> Result<()> {
        let mut text = String::from("fabric-lsm v1\n");
        text.push_str(&inner.next_file_id.to_string());
        text.push('\n');
        match inner.flushed_block {
            Some(b) => text.push_str(&b.to_string()),
            None => text.push('-'),
        }
        text.push('\n');
        for t in &inner.tables {
            let name = t
                .path()
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| Error::InvalidState("sstable path has no file name".into()))?;
            text.push_str(name);
            text.push('\n');
        }
        let tmp = dir.join("MANIFEST.tmp");
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, dir.join(MANIFEST))?;
        Ok(())
    }

    /// Installs `batch` into the memtable, trimming against the
    /// pre-publication floor (see `Watermark::gc_floor`), and moves the
    /// flush trigger's count. Caller holds the commit lock.
    fn install_locked(&self, commit: &mut CommitState, batch: &WriteBatch<'_>) -> Installed {
        let done = self.memtable.install(&mut commit.groups, batch, self.watermark.gc_floor());
        commit.memtable_bytes = commit.memtable_bytes + done.bytes_added - done.bytes_replaced;
        done
    }

    /// The current runs (newest first) and the next file id.
    fn runs(&self) -> (Vec<Arc<SsTableReader>>, u64) {
        let inner = self.inner.read();
        (inner.tables.clone(), inner.next_file_id)
    }

    /// Writes `entries` as run `next_id` and opens it.
    fn write_run(&self, next_id: &mut u64, entries: &[DiskEntry]) -> Result<Arc<SsTableReader>> {
        let path = self.dir.join(format!("sst-{:06}.sst", *next_id));
        *next_id += 1;
        write_sstable(&path, entries, &self.cfg.sstable)?;
        Ok(Arc::new(SsTableReader::open(&path)?))
    }

    /// Flushes the memtable (if non-empty) and compacts if needed.
    /// Caller holds the commit lock.
    fn flush_locked(&self, commit: &mut CommitState, current_block: BlockNum) -> Result<()> {
        if self.memtable.len() == 0 {
            return Ok(());
        }
        let mut entries: Vec<DiskEntry> = Vec::new();
        self.memtable.for_each(|key, chain| {
            entries.extend(chain.iter().map(|e| DiskEntry {
                key: key.clone(),
                value: e.value.clone(),
                version: e.version,
            }));
        });
        // A stable sort: each chain keeps its newest-first order.
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        let (mut tables, mut next_id) = self.runs();
        tables.insert(0, self.write_run(&mut next_id, &entries)?);
        let mut obsolete = Vec::new();
        if tables.len() > self.cfg.compaction_threshold {
            obsolete = tables.iter().map(|t| t.path().to_path_buf()).collect();
            tables = vec![self.compact(&tables, &mut next_id)?];
        }
        self.swap_runs(tables, next_id, Some(current_block), obsolete)?;
        commit.memtable_bytes = 0;

        // Rotate the WAL: everything it held is now in runs.
        let mut wal = self.wal.lock();
        let wal_path = wal.path().to_path_buf();
        // Replace the writer with a fresh one over a truncated file.
        std::fs::write(&wal_path, b"")?;
        *wal = WalWriter::open(&wal_path, self.cfg.sync_writes)?;
        wal.set_fault_policy(self.cfg.wal_faults.clone());
        Ok(())
    }

    /// Full-merge compaction of `tables` (newest first) into one new run:
    /// each key's chains are merged, a newer run's in front of an older
    /// one's, and trimmed like any chain against the current floor. A full
    /// merge is the bottom level, so a chain whose newest fact is a
    /// tombstone no pin can see goes entirely.
    fn compact(
        &self,
        tables: &[Arc<SsTableReader>],
        next_id: &mut u64,
    ) -> Result<Arc<SsTableReader>> {
        let mut merged: BTreeMap<Key, Chain> = BTreeMap::new();
        for table in tables {
            for (key, chain) in table.scan_chains()? {
                merged.entry(key).or_default().extend(chain);
            }
        }
        let floor = self.watermark.gc_floor();
        let mut trimmed = 0usize;
        let mut entries: Vec<DiskEntry> = Vec::with_capacity(merged.len());
        for (key, mut chain) in merged {
            let (dropped, dead) = trim_chain(&mut chain, floor, self.memtable.retained(), false);
            trimmed += dropped;
            if !dead {
                entries.extend(chain.into_iter().map(|e| DiskEntry {
                    key: key.clone(),
                    value: e.value,
                    version: e.version,
                }));
            }
        }
        if trimmed > 0 {
            self.counters.record_gc_trimmed(trimmed as u64);
        }
        self.write_run(next_id, &entries)
    }

    /// Swaps in the run list `tables` — and, for a flush of the memtable up
    /// to block `flushed`, clears the memtable in the same step — then
    /// persists the MANIFEST and deletes the `obsolete` run files, which it
    /// no longer lists.
    fn swap_runs(
        &self,
        tables: Vec<Arc<SsTableReader>>,
        next_file_id: u64,
        flushed: Option<BlockNum>,
        obsolete: Vec<PathBuf>,
    ) -> Result<()> {
        {
            let mut inner = self.inner.write();
            inner.tables = tables;
            inner.next_file_id = next_file_id;
            if flushed.is_some() {
                inner.flushed_block = flushed;
                self.memtable.clear();
            }
        }
        Self::write_manifest(&self.dir, &self.inner.read())?;
        for p in obsolete {
            let _ = std::fs::remove_file(p);
        }
        Ok(())
    }

    /// The cleared pending-read list, taken out of its slot so batched
    /// readers do not hold each other up while they probe the runs (put it
    /// back afterwards; a reader that finds the slot taken starts a new
    /// list).
    fn take_pending(&self) -> Vec<u32> {
        let mut pending = std::mem::take(&mut *self.read_scratch.lock());
        pending.clear();
        pending
    }

    /// Reads `key` at `height` (`BlockNum::MAX`: its newest fact): its
    /// memtable chain, then its run chains until one answers.
    fn resolve(&self, key: &Key, height: BlockNum) -> Result<SnapshotGet> {
        let inner = self.inner.read();
        let mut got = SnapshotGet::default();
        if !self.memtable.read(key, |c| c.is_some_and(|c| resolve_chain(c, height, &mut got))) {
            self.resolve_in_runs(&inner, key, height, &mut got)?;
        }
        Ok(got)
    }

    /// Feeds `key`'s run chains, newest run first, into a read at `height`
    /// until one answers it. Caller holds the inner lock.
    fn resolve_in_runs(
        &self,
        inner: &Inner,
        key: &Key,
        height: BlockNum,
        out: &mut SnapshotGet,
    ) -> Result<()> {
        for table in &inner.tables {
            if resolve_chain(&table.chain(key)?, height, out) {
                break;
            }
        }
        Ok(())
    }

    /// Every key in `[start, end)` (`end: None` is unbounded) with a value
    /// live at `height`, sorted by key: each key's memtable chain and then
    /// its run chains, newest run first, are fed into one read per key.
    fn scan_at(
        &self,
        start: &Key,
        end: Option<&Key>,
        height: BlockNum,
    ) -> Result<Vec<(Key, SnapshotGet)>> {
        let in_range = |k: &Key| k >= start && end.is_none_or(|e| k < e);
        let inner = self.inner.read();
        let mut reads: BTreeMap<Key, (SnapshotGet, bool)> = BTreeMap::new();
        self.memtable.for_each(|k, chain| {
            if in_range(k) {
                let (got, answered) = reads.entry(k.clone()).or_default();
                *answered = resolve_chain(chain, height, got);
            }
        });
        for table in &inner.tables {
            for (k, chain) in table.scan_chains()? {
                if in_range(&k) {
                    let (got, answered) = reads.entry(k).or_default();
                    if !*answered {
                        *answered = resolve_chain(&chain, height, got);
                    }
                }
            }
        }
        Ok(reads
            .into_iter()
            .filter_map(|(k, (got, _))| got.at_height.is_some().then_some((k, got)))
            .collect())
    }

    /// Length of `key`'s version chain in the memtable (diagnostics for GC
    /// tests; 0 when the memtable holds no write of the key).
    pub fn version_chain_len(&self, key: &Key) -> usize {
        self.memtable.chain_len(key)
    }

    /// Slots allocated for `key`'s memtable chain (0 when it has none).
    #[cfg(test)]
    pub(crate) fn version_chain_capacity(&self, key: &Key) -> usize {
        self.memtable.chain_capacity(key)
    }

    /// Number of live snapshot pins (diagnostics).
    pub fn live_pins(&self) -> usize {
        self.watermark.live_pins()
    }

    /// Number of sorted runs currently on disk (diagnostics).
    pub fn run_count(&self) -> usize {
        self.inner.read().tables.len()
    }

    /// Forces a memtable flush (testing/maintenance).
    pub fn force_flush(&self) -> Result<()> {
        let mut commit = self.commit_lock.lock();
        self.counters.record_commit_ticket();
        match self.watermark.committed() {
            Some(current) => self.flush_locked(&mut commit, current),
            None => Ok(()),
        }
    }
}

impl StateStore for LsmStateDb {
    fn get(&self, key: &Key) -> Result<Option<VersionedValue>> {
        self.counters.record_point_get();
        Ok(self.resolve(key, BlockNum::MAX)?.at_height)
    }

    fn apply_write_batch(&self, batch: &WriteBatch<'_>) -> Result<()> {
        let mut commit = self.commit_lock.lock();
        self.counters.record_commit_ticket();
        self.watermark.check_next(batch.block)?;

        // 1. Durable intent: the whole block as ONE group-commit WAL record
        //    — a single frame write and a single flush (plus one fsync when
        //    `sync_writes`), regardless of how many writes the block holds.
        let entries = batch
            .writes
            .iter()
            .map(|w| DiskEntry {
                key: w.key.clone(),
                value: w.value.cloned(),
                version: Version::new(batch.block, w.tx),
            })
            .collect();
        self.wal.lock().append(&WalRecord { block: batch.block, entries })?;
        self.counters.record_wal_record(self.cfg.sync_writes);
        if self.sink.is_enabled() {
            self.sink.emit(EventKind::WalRecord {
                block: batch.block,
                fsync: self.cfg.sync_writes,
            });
        }

        // 2. Visible state, under the memtable's per-shard locks.
        let done = self.install_locked(&mut commit, batch);
        if done.trimmed > 0 {
            self.counters.record_gc_trimmed(done.trimmed);
        }
        self.counters.record_block_applied(1);

        // 3. Publish.
        self.watermark.publish(batch.block);

        // 4. Maintenance.
        if commit.memtable_bytes >= self.cfg.memtable_max_bytes {
            self.flush_locked(&mut commit, batch.block)?;
        }

        // Telemetry gauges, refreshed once per applied block: the flush
        // trigger's count (post-flush), GC floor, live pins.
        self.counters.set_memtable_bytes(commit.memtable_bytes as u64);
        self.watermark.refresh_gauges(&self.counters);
        Ok(())
    }

    fn multi_get_versions_into(
        &self,
        keys: &[Key],
        out: &mut Vec<Option<Version>>,
    ) -> Result<()> {
        out.clear();
        out.resize(keys.len(), None);
        let mut pending = self.take_pending();
        let inner = self.inner.read();
        // A memtable chain answers even when its head is a tombstone (the
        // newest fact about the key is "absent"); only keys the memtable
        // does not hold fall through to the runs.
        self.memtable.read_many(keys, |i, chain| match chain {
            Some(c) => out[i] = c[0].value.as_ref().map(|_| c[0].version),
            None => pending.push(i as u32),
        });
        // The runs see the rest in key order: forward-moving sparse-index
        // walks.
        pending.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        for &i in pending.iter() {
            for table in &inner.tables {
                if let Some(e) = table.get(&keys[i as usize])? {
                    out[i as usize] = e.value.map(|_| e.version);
                    break;
                }
            }
        }
        *self.read_scratch.lock() = pending;
        self.counters.record_multi_get(keys.len() as u64);
        Ok(())
    }

    fn retained_versions(&self) -> usize {
        self.memtable.retained()
    }

    fn pin_snapshot(&self) -> StateSnapshot {
        self.watermark.pin(&self.counters)
    }

    fn pin_snapshot_at(&self, height: BlockNum) -> StateSnapshot {
        self.watermark.pin_at(height, &self.counters)
    }

    fn get_at(&self, key: &Key, height: BlockNum) -> Result<SnapshotGet> {
        self.counters.record_snapshot_read(1);
        self.resolve(key, height)
    }

    fn multi_get_at_into(
        &self,
        keys: &[Key],
        height: BlockNum,
        out: &mut Vec<SnapshotGet>,
    ) -> Result<()> {
        out.clear();
        out.resize(keys.len(), SnapshotGet::default());
        let mut pending = self.take_pending();
        let inner = self.inner.read();
        self.memtable.read_many(keys, |i, chain| {
            if !chain.is_some_and(|c| resolve_chain(c, height, &mut out[i])) {
                pending.push(i as u32);
            }
        });
        pending.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        for &i in pending.iter() {
            let i = i as usize;
            self.resolve_in_runs(&inner, &keys[i], height, &mut out[i])?;
        }
        *self.read_scratch.lock() = pending;
        self.counters.record_snapshot_read(keys.len() as u64);
        Ok(())
    }

    fn scan_range_at(
        &self,
        start: &Key,
        end: &Key,
        height: BlockNum,
    ) -> Result<Vec<(Key, SnapshotGet)>> {
        let out = self.scan_at(start, Some(end), height)?;
        self.counters.record_snapshot_read(out.len() as u64);
        Ok(out)
    }

    fn collect_garbage(&self) -> Result<usize> {
        // Trims the memtable's chains in place, and the runs' by compacting
        // them into one.
        let _commit = self.commit_lock.lock();
        self.counters.record_commit_ticket();
        let mut trimmed = self.memtable.sweep(self.watermark.gc_floor());
        if trimmed > 0 {
            self.counters.record_gc_trimmed(trimmed as u64);
        }
        let (tables, mut next_id) = self.runs();
        if !tables.is_empty() {
            let before = self.counters.snapshot().gc_trimmed_versions;
            let merged = self.compact(&tables, &mut next_id)?;
            trimmed += (self.counters.snapshot().gc_trimmed_versions - before) as usize;
            let obsolete = tables.iter().map(|t| t.path().to_path_buf()).collect();
            self.swap_runs(vec![merged], next_id, None, obsolete)?;
        }
        Ok(trimmed)
    }

    fn counters(&self) -> StoreCounters {
        self.counters.clone()
    }

    fn last_committed_block(&self) -> BlockNum {
        self.watermark.last_committed_block()
    }

    fn approximate_len(&self) -> usize {
        let inner = self.inner.read();
        self.memtable.len() + inner.tables.iter().map(|t| t.entry_count() as usize).sum::<usize>()
    }

    fn scan_range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, VersionedValue)>> {
        Ok(newest_values(self.scan_at(start, Some(end), BlockNum::MAX)?))
    }

    fn scan_all(&self) -> Result<Vec<(Key, VersionedValue)>> {
        Ok(newest_values(self.scan_at(&Key::from(""), None, BlockNum::MAX)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CommitWrite;
    use fabric_common::Value;

    fn k(i: u64) -> Key {
        Key::from(format!("key-{i:06}"))
    }
    fn v(n: i64) -> Value {
        Value::from_i64(n)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fabric-lsm-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_cfg() -> LsmConfig {
        LsmConfig {
            memtable_max_bytes: 2048, // tiny: force frequent flushes
            compaction_threshold: 3,
            ..LsmConfig::default()
        }
    }

    #[test]
    fn basic_put_get() {
        let dir = tmpdir("basic");
        let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
        db.apply_block(0, &[CommitWrite::put(k(1), v(10), 0)]).unwrap();
        let got = db.get(&k(1)).unwrap().unwrap();
        assert_eq!(got.value, v(10));
        assert_eq!(got.version, Version::new(0, 0));
        assert!(db.get(&k(99)).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_order_blocks_rejected() {
        let dir = tmpdir("order");
        let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
        assert!(db.apply_block(1, &[]).is_err());
        db.apply_block(0, &[]).unwrap();
        assert!(db.apply_block(0, &[]).is_err());
        assert!(db.apply_block(2, &[]).is_err());
        db.apply_block(1, &[]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn survives_reopen_without_flush() {
        let dir = tmpdir("reopen-wal");
        {
            let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
            db.apply_block(0, &[CommitWrite::put(k(1), v(1), 0)]).unwrap();
            db.apply_block(1, &[CommitWrite::put(k(2), v(2), 0)]).unwrap();
        }
        let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
        assert_eq!(db.last_committed_block(), 1);
        assert_eq!(db.get(&k(1)).unwrap().unwrap().value, v(1));
        assert_eq!(db.get(&k(2)).unwrap().unwrap().value, v(2));
        assert_eq!(db.get(&k(2)).unwrap().unwrap().version, Version::new(1, 0));
        // Engine keeps accepting blocks in order after reopen.
        db.apply_block(2, &[CommitWrite::put(k(3), v(3), 0)]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_and_reopen() {
        let dir = tmpdir("reopen-flush");
        {
            let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
            for b in 0..20u64 {
                let writes: Vec<CommitWrite> = (0..10)
                    .map(|i| CommitWrite::put(k(b * 10 + i), v((b * 10 + i) as i64), i as u32))
                    .collect();
                db.apply_block(b, &writes).unwrap();
            }
            assert!(db.run_count() >= 1, "tiny memtable must have flushed");
        }
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        assert_eq!(db.last_committed_block(), 19);
        for i in (0..200u64).step_by(17) {
            let got = db.get(&k(i)).unwrap().unwrap();
            assert_eq!(got.value, v(i as i64), "key {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overwrites_return_newest_across_runs() {
        let dir = tmpdir("overwrite");
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        // Write key 5 in many blocks, with filler to force flushes between.
        for b in 0..30u64 {
            let mut writes = vec![CommitWrite::put(k(5), v(b as i64), 0)];
            for i in 0..8 {
                writes.push(CommitWrite::put(k(1000 + b * 8 + i), v(0), 1 + i as u32));
            }
            db.apply_block(b, &writes).unwrap();
        }
        let got = db.get(&k(5)).unwrap().unwrap();
        assert_eq!(got.value, v(29));
        assert_eq!(got.version.block, 29);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deletes_survive_flush_and_reopen() {
        let dir = tmpdir("delete");
        {
            let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
            db.apply_block(0, &[CommitWrite::put(k(1), v(1), 0)]).unwrap();
            db.force_flush().unwrap();
            db.apply_block(1, &[CommitWrite::delete(k(1), 0)]).unwrap();
            assert!(db.get(&k(1)).unwrap().is_none(), "tombstone in memtable");
            db.force_flush().unwrap();
            assert!(db.get(&k(1)).unwrap().is_none(), "tombstone in run shadows older run");
        }
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        assert!(db.get(&k(1)).unwrap().is_none(), "tombstone after reopen");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_reduces_runs_and_preserves_data() {
        let dir = tmpdir("compact");
        let cfg = LsmConfig { compaction_threshold: 2, ..tiny_cfg() };
        let db = LsmStateDb::open(&dir, cfg.clone()).unwrap();
        for b in 0..40u64 {
            let writes: Vec<CommitWrite> = (0..10)
                .map(|i| CommitWrite::put(k((b * 10 + i) % 100), v(b as i64), i as u32))
                .collect();
            db.apply_block(b, &writes).unwrap();
        }
        assert!(db.run_count() <= cfg.compaction_threshold + 1);
        // Every key in 0..100 was last written by some block; check a few.
        for i in (0..100u64).step_by(11) {
            assert!(db.get(&k(i)).unwrap().is_some(), "key {i} lost in compaction");
        }
        // Reopen and verify again.
        drop(db);
        let db = LsmStateDb::open(&dir, cfg).unwrap();
        for i in (0..100u64).step_by(11) {
            assert!(db.get(&k(i)).unwrap().is_some(), "key {i} lost after reopen");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_tombstones() {
        let dir = tmpdir("compact-tomb");
        let cfg = LsmConfig { compaction_threshold: 1, ..tiny_cfg() };
        let db = LsmStateDb::open(&dir, cfg).unwrap();
        db.apply_block(0, &[CommitWrite::put(k(1), v(1), 0), CommitWrite::put(k(2), v(2), 1)])
            .unwrap();
        db.force_flush().unwrap();
        db.apply_block(1, &[CommitWrite::delete(k(1), 0)]).unwrap();
        db.force_flush().unwrap(); // triggers compaction (threshold 1)
        assert_eq!(db.run_count(), 1);
        assert!(db.get(&k(1)).unwrap().is_none());
        assert_eq!(db.get(&k(2)).unwrap().unwrap().value, v(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_returns_newest_version_across_flushes_and_compaction() {
        // Regression: a key rewritten in many blocks ends up in several
        // SSTable runs (and, past the threshold, in compacted ones); the
        // read path must always surface the newest version, never an older
        // run's copy.
        let dir = tmpdir("newest");
        let cfg = LsmConfig { compaction_threshold: 2, ..tiny_cfg() };
        let db = LsmStateDb::open(&dir, cfg.clone()).unwrap();
        let hot = k(7);
        for b in 0..12u64 {
            // The hot key plus filler so each flush produces a real run.
            let mut writes = vec![CommitWrite::put(hot.clone(), v(1000 + b as i64), 0)];
            writes.extend((0..8).map(|i| CommitWrite::put(k(100 + b * 8 + i), v(b as i64), 1 + i as u32)));
            db.apply_block(b, &writes).unwrap();
            db.force_flush().unwrap();
            let got = db.get(&hot).unwrap().unwrap();
            assert_eq!(got.value, v(1000 + b as i64), "stale read at block {b}");
            assert_eq!(got.version, Version::new(b, 0));
        }
        assert!(db.run_count() <= cfg.compaction_threshold + 1, "compaction ran");
        // Unflushed memtable overwrite beats every on-disk run.
        db.apply_block(12, &[CommitWrite::put(hot.clone(), v(9999), 0)]).unwrap();
        assert_eq!(db.get(&hot).unwrap().unwrap().value, v(9999));
        // And the newest version survives a reopen.
        drop(db);
        let db = LsmStateDb::open(&dir, cfg).unwrap();
        let got = db.get(&hot).unwrap().unwrap();
        assert_eq!(got.value, v(9999));
        assert_eq!(got.version, Version::new(12, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_engine_reopen() {
        let dir = tmpdir("empty");
        {
            let _db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
        }
        let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
        assert_eq!(db.last_committed_block(), 0);
        assert_eq!(db.approximate_len(), 0);
        db.apply_block(0, &[]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn works_behind_state_store_trait_object() {
        let dir = tmpdir("dyn");
        let db: Arc<dyn StateStore> =
            Arc::new(LsmStateDb::open(&dir, LsmConfig::default()).unwrap());
        db.apply_block(0, &[CommitWrite::put(k(1), v(1), 0)]).unwrap();
        assert_eq!(db.get(&k(1)).unwrap().unwrap().value, v(1));
        assert_eq!(db.last_committed_block(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_range_merges_runs_and_memtable() {
        let dir = tmpdir("scan");
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        // Older run: keys 0..10.
        let writes: Vec<CommitWrite> =
            (0..10).map(|i| CommitWrite::put(k(i), v(i as i64), i as u32)).collect();
        db.apply_block(0, &writes).unwrap();
        db.force_flush().unwrap();
        // Newer run: overwrite key 3, delete key 4.
        db.apply_block(
            1,
            &[CommitWrite::put(k(3), v(333), 0), CommitWrite::delete(k(4), 1)],
        )
        .unwrap();
        db.force_flush().unwrap();
        // Memtable: overwrite key 5, add key 100.
        db.apply_block(2, &[CommitWrite::put(k(5), v(555), 0), CommitWrite::put(k(100), v(1), 1)])
            .unwrap();

        let got = db.scan_range(&k(0), &k(999_999)).unwrap();
        let by_key: std::collections::HashMap<String, i64> = got
            .iter()
            .map(|(key, vv)| (key.to_string(), vv.value.as_i64().unwrap()))
            .collect();
        assert_eq!(by_key.len(), 10, "10 original - 1 deleted + 1 new");
        assert_eq!(by_key[&k(3).to_string()], 333, "newer run shadows older");
        assert!(!by_key.contains_key(&k(4).to_string()), "tombstone hides entry");
        assert_eq!(by_key[&k(5).to_string()], 555, "memtable shadows runs");
        assert_eq!(by_key[&k(100).to_string()], 1);
        // Sorted ascending.
        let keys: Vec<&String> = {
            let mut ks: Vec<&String> = by_key.keys().collect();
            ks.sort();
            ks
        };
        let got_keys: Vec<String> = got.iter().map(|(key, _)| key.to_string()).collect();
        assert_eq!(got_keys, keys.into_iter().cloned().collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_recovers_prefix() {
        let dir = tmpdir("torn");
        {
            let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
            db.apply_block(0, &[CommitWrite::put(k(1), v(1), 0)]).unwrap();
            db.apply_block(1, &[CommitWrite::put(k(2), v(2), 0)]).unwrap();
        }
        // Tear the WAL tail.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 4]).unwrap();

        let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
        assert_eq!(db.last_committed_block(), 0);
        assert_eq!(db.get(&k(1)).unwrap().unwrap().value, v(1));
        assert!(db.get(&k(2)).unwrap().is_none());
        // The engine continues from block 1.
        db.apply_block(1, &[CommitWrite::put(k(2), v(22), 0)]).unwrap();
        assert_eq!(db.get(&k(2)).unwrap().unwrap().value, v(22));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_torn_write_then_reopen_recovers() {
        use super::super::wal::{WalFaultPolicy, WalIoFault};

        /// Tears the append of one block part-way through its frame.
        struct TearBlock(BlockNum);
        impl WalFaultPolicy for TearBlock {
            fn on_append(&self, block: BlockNum) -> WalIoFault {
                if block == self.0 {
                    WalIoFault::TornWrite { keep: 11 }
                } else {
                    WalIoFault::None
                }
            }
        }

        let dir = tmpdir("inject-torn");
        {
            let cfg = LsmConfig { wal_faults: Some(Arc::new(TearBlock(2))), ..tiny_cfg() };
            let db = LsmStateDb::open(&dir, cfg).unwrap();
            db.apply_block(0, &[CommitWrite::put(k(1), v(1), 0)]).unwrap();
            db.apply_block(1, &[CommitWrite::put(k(2), v(2), 0)]).unwrap();
            // Block 2's WAL append tears mid-frame: the commit fails and
            // the process is modelled as crashed (db dropped below).
            let err = db.apply_block(2, &[CommitWrite::put(k(3), v(3), 0)]).unwrap_err();
            assert!(matches!(err, Error::Io(_)), "unexpected error: {err}");
        }
        // Recovery without the fault policy: the torn frame is discarded,
        // blocks 0–1 survive, and block 2 can be recommitted.
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        assert_eq!(db.last_committed_block(), 1);
        assert_eq!(db.get(&k(1)).unwrap().unwrap().value, v(1));
        assert_eq!(db.get(&k(2)).unwrap().unwrap().value, v(2));
        assert!(db.get(&k(3)).unwrap().is_none(), "torn block must not surface");
        db.apply_block(2, &[CommitWrite::put(k(3), v(33), 0)]).unwrap();
        assert_eq!(db.get(&k(3)).unwrap().unwrap().value, v(33));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_at_resolves_heights_across_memtable_and_history() {
        let dir = tmpdir("at-mem");
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        db.apply_block(0, &[CommitWrite::put(k(1), v(10), 0)]).unwrap();
        db.apply_block(1, &[CommitWrite::put(k(1), v(11), 0)]).unwrap();
        db.apply_block(2, &[CommitWrite::delete(k(1), 0)]).unwrap();

        let at0 = db.get_at(&k(1), 0).unwrap();
        assert_eq!(at0.at_height.as_ref().unwrap().value, v(10));
        assert!(at0.is_stale_at(0), "newer committed fact exists");
        let at1 = db.get_at(&k(1), 1).unwrap();
        assert_eq!(at1.at_height.as_ref().unwrap().value, v(11));
        let at2 = db.get_at(&k(1), 2).unwrap();
        assert!(at2.at_height.is_none(), "deleted as of height 2");
        assert_eq!(at2.newest, Some((Version::new(2, 0), None)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pinned_height_survives_flush_and_compaction() {
        let dir = tmpdir("at-pin");
        let cfg =
            LsmConfig { compaction_threshold: 1, retained_versions: 1, ..tiny_cfg() };
        let db = LsmStateDb::open(&dir, cfg).unwrap();
        db.apply_block(
            0,
            &[CommitWrite::put(k(1), v(10), 0), CommitWrite::put(k(2), v(20), 1)],
        )
        .unwrap();
        let snap = db.pin_snapshot();
        assert_eq!(snap.height(), 0);

        // Overwrite key 1 and delete key 2, forcing flushes (and, with
        // threshold 1, a compaction) in between.
        db.apply_block(
            1,
            &[CommitWrite::put(k(1), v(11), 0), CommitWrite::delete(k(2), 1)],
        )
        .unwrap();
        db.force_flush().unwrap();
        db.apply_block(2, &[CommitWrite::put(k(1), v(12), 0)]).unwrap();
        db.force_flush().unwrap();
        assert_eq!(db.run_count(), 1, "compaction ran");

        let at0 = db.get_at(&k(1), 0).unwrap();
        assert_eq!(
            at0.at_height.unwrap(),
            VersionedValue::new(v(10), Version::new(0, 0)),
            "pinned height resolves through history despite compaction"
        );
        let k2 = db.get_at(&k(2), 0).unwrap();
        assert_eq!(
            k2.at_height.unwrap().value,
            v(20),
            "key deleted after the pin is still visible at the pinned height"
        );

        // Dropping the pin and collecting garbage reclaims the history
        // (retained_versions = 1 keeps no extras).
        drop(snap);
        assert_eq!(db.live_pins(), 0);
        let trimmed = db.collect_garbage().unwrap();
        assert!(trimmed > 0, "quiescent sweep reclaims history");
        assert_eq!(db.version_chain_len(&k(1)), 0);
        assert_eq!(db.version_chain_len(&k(2)), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_rebuilds_history_from_wal_replay() {
        let dir = tmpdir("at-reopen");
        {
            let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
            db.apply_block(0, &[CommitWrite::put(k(1), v(10), 0)]).unwrap();
            db.apply_block(1, &[CommitWrite::put(k(1), v(11), 0)]).unwrap();
        }
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        let snap = db.pin_snapshot_at(0);
        let at0 = db.get_at(&k(1), snap.height()).unwrap();
        assert_eq!(at0.at_height.unwrap().value, v(10), "history rebuilt from WAL");
        assert_eq!(db.version_chain_len(&k(1)), 2, "both facts in one chain");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pins_resolve_exactly_across_three_flushes_and_a_compaction() {
        // Threshold 2: the third flush leaves three runs and compacts them.
        let dir = tmpdir("at-stages");
        let cfg = LsmConfig { compaction_threshold: 2, retained_versions: 1, ..tiny_cfg() };
        let db = LsmStateDb::open(&dir, cfg).unwrap();
        let hot = k(1);
        let mut block = 0u64;
        let mut write_hot = |db: &LsmStateDb| {
            db.apply_block(block, &[CommitWrite::put(hot.clone(), v(block as i64), 0)]).unwrap();
            block += 1;
        };
        let check = |db: &LsmStateDb, pins: &[StateSnapshot], step: &str| {
            for snap in pins {
                let h = snap.height();
                let got = db.get_at(&hot, h).unwrap();
                assert_eq!(
                    got.at_height,
                    Some(VersionedValue::new(v(h as i64), Version::new(h, 0))),
                    "pin {h} after {step}"
                );
                let newest = got.newest.as_ref().unwrap().0.block;
                assert_eq!(newest, db.last_committed_block(), "{step}");
                let mut many = Vec::new();
                db.multi_get_at_into(std::slice::from_ref(&hot), h, &mut many).unwrap();
                assert_eq!(many[0], got, "batched read of pin {h} after {step}");
                let scan = db.scan_range_at(&hot, &k(2), h).unwrap();
                assert_eq!(scan, vec![(hot.clone(), got)], "scan of pin {h} after {step}");
            }
        };
        let mut pins = Vec::new();
        for stage in 1..=3 {
            for _ in 0..3 {
                write_hot(&db);
            }
            pins.push(db.pin_snapshot());
            write_hot(&db);
            check(&db, &pins, &format!("stage {stage}'s writes"));
            db.force_flush().unwrap();
            check(&db, &pins, &format!("flush {stage}"));
        }
        assert_eq!(db.run_count(), 1, "the third flush compacted");
        write_hot(&db);
        check(&db, &pins, "a write after the compaction");
        drop(db);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unpinned_compaction_keeps_at_most_retained_facts_per_key() {
        let dir = tmpdir("compact-trim");
        let retained = 2;
        let cfg = LsmConfig { compaction_threshold: 1, retained_versions: retained, ..tiny_cfg() };
        let db = LsmStateDb::open(&dir, cfg).unwrap();
        for b in 0..12u64 {
            let mut writes = vec![CommitWrite::put(k(1), v(b as i64), 0)];
            writes.push(if b == 5 {
                CommitWrite::delete(k(2), 1)
            } else {
                CommitWrite::put(k(2), v(b as i64), 1)
            });
            db.apply_block(b, &writes).unwrap();
            if b % 3 == 2 {
                db.force_flush().unwrap();
            }
        }
        db.apply_block(12, &[CommitWrite::delete(k(2), 0)]).unwrap();
        db.force_flush().unwrap();
        assert_eq!(db.run_count(), 1);
        let run = Arc::clone(&db.inner.read().tables[0]);
        let hot = run.chain(&k(1)).unwrap();
        assert!(!hot.is_empty() && hot.len() <= retained, "run holds {} facts", hot.len());
        assert_eq!(hot[0].version, Version::new(11, 0));
        assert!(run.chain(&k(2)).unwrap().is_empty(), "a dead tombstone chain leaves the run");
        assert!(db.get(&k(2)).unwrap().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_writes_sorted_chains_and_resets_the_memtable() {
        let dir = tmpdir("flush-chains");
        let db = LsmStateDb::open(&dir, LsmConfig::default()).unwrap();
        for b in 0..3u64 {
            let writes: Vec<CommitWrite> =
                [9, 3, 6].iter().map(|&i| CommitWrite::put(k(i), v(b as i64), i as u32)).collect();
            db.apply_block(b, &writes).unwrap();
        }
        assert!(db.commit_lock.lock().memtable_bytes > 0);
        db.force_flush().unwrap();
        assert_eq!(db.memtable.len(), 0);
        assert_eq!(db.commit_lock.lock().memtable_bytes, 0);
        let run = Arc::clone(&db.inner.read().tables[0]);
        let order: Vec<(Key, BlockNum)> =
            run.scan_all().unwrap().into_iter().map(|e| (e.key, e.version.block)).collect();
        let want: Vec<(Key, BlockNum)> =
            [3, 6, 9].iter().flat_map(|&i| (0..3).rev().map(move |b| (k(i), b))).collect();
        assert_eq!(order, want, "key ascending, each chain newest first");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_cadence_matches_the_byte_count_of_every_write() {
        // The flush trigger counts key + value + 24 bytes per write and
        // gives back a replaced unflushed head's value + 24. The blocks at
        // which this fixed sequence changes the run count were recorded
        // from the one-fact-per-key memtable, whose count this keeps.
        let dir = tmpdir("cadence");
        let cfg =
            LsmConfig { memtable_max_bytes: 1024, compaction_threshold: 3, ..LsmConfig::default() };
        let db = LsmStateDb::open(&dir, cfg).unwrap();
        let mut changes = Vec::new();
        let mut runs = db.run_count();
        let mut x: u64 = 7;
        for b in 0..120u64 {
            let n = 1 + (b % 5) as usize;
            let writes: Vec<CommitWrite> = (0..n)
                .map(|i| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let key = Key::from(format!("key-{:03}", (x >> 33) % 24));
                    if (x >> 20).is_multiple_of(7) {
                        CommitWrite::delete(key, i as u32)
                    } else {
                        let len = ((x >> 40) % 13) as usize;
                        CommitWrite::put(key, Value::new(vec![b as u8; len]), i as u32)
                    }
                })
                .collect();
            db.apply_block(b, &writes).unwrap();
            if db.run_count() != runs {
                runs = db.run_count();
                changes.push((b, runs));
            }
        }
        assert_eq!(changes, [(18, 1), (37, 2), (58, 3), (79, 1), (101, 2), (118, 3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_range_at_reflects_pinned_height() {
        let dir = tmpdir("at-scan");
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        let writes: Vec<CommitWrite> =
            (0..5).map(|i| CommitWrite::put(k(i), v(i as i64), i as u32)).collect();
        db.apply_block(0, &writes).unwrap();
        db.force_flush().unwrap();
        let snap = db.pin_snapshot();

        // After the pin: delete key 1, rewrite key 2, create key 7.
        db.apply_block(
            1,
            &[
                CommitWrite::delete(k(1), 0),
                CommitWrite::put(k(2), v(222), 1),
                CommitWrite::put(k(7), v(7), 2),
            ],
        )
        .unwrap();

        let got = db.scan_range_at(&k(0), &k(999_999), snap.height()).unwrap();
        let pairs: Vec<(String, i64)> = got
            .iter()
            .map(|(key, g)| {
                (key.to_string(), g.at_height.as_ref().unwrap().value.as_i64().unwrap())
            })
            .collect();
        let want: Vec<(String, i64)> =
            (0..5).map(|i| (k(i).to_string(), i as i64)).collect();
        assert_eq!(pairs, want, "scan at pinned height sees only pre-pin state");
        assert!(
            got.iter().all(|(_, g)| g.at_height.as_ref().unwrap().version.block == 0),
            "no post-pin version leaks into the scan"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_reads_take_no_commit_ticket() {
        let dir = tmpdir("at-lockless");
        let db = LsmStateDb::open(&dir, tiny_cfg()).unwrap();
        db.apply_block(0, &[CommitWrite::put(k(1), v(10), 0)]).unwrap();
        let before = db.counters().snapshot();
        let snap = db.pin_snapshot();
        db.get_at(&k(1), snap.height()).unwrap();
        let mut out = Vec::new();
        db.multi_get_at_into(&[k(1)], snap.height(), &mut out).unwrap();
        db.scan_range_at(&k(0), &k(999_999), snap.height()).unwrap();
        let after = db.counters().snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.commit_ticket_acquisitions, 0, "reads are lockless");
        assert_eq!(delta.snapshot_pins, 1);
        assert_eq!(delta.snapshot_read_batches, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
