//! The [`StateStore`] trait: what every state-database engine must provide
//! to the peer pipeline.

use fabric_common::codec::Encoder;
use fabric_common::hash::Sha256;
use fabric_common::{BlockNum, Digest, Key, Result, StoreCounters, TxNum, Value, Version};

use crate::pin::StateSnapshot;

/// A value in the current state together with the version of the transaction
/// that wrote it — exactly Fabric's `(value, version-number)` pair
/// (paper §5.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// The stored value.
    pub value: Value,
    /// Version of the writing transaction.
    pub version: Version,
}

impl VersionedValue {
    /// Creates a versioned value.
    pub fn new(value: Value, version: Version) -> Self {
        VersionedValue { value, version }
    }
}

/// One write to install during a block commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitWrite {
    /// Key to write.
    pub key: Key,
    /// New value; `None` deletes the key.
    pub value: Option<Value>,
    /// Position of the writing transaction within the committing block;
    /// together with the block number this forms the new [`Version`].
    pub tx: TxNum,
}

impl CommitWrite {
    /// Creates a put.
    pub fn put(key: Key, value: Value, tx: TxNum) -> Self {
        CommitWrite { key, value: Some(value), tx }
    }

    /// Creates a delete.
    pub fn delete(key: Key, tx: TxNum) -> Self {
        CommitWrite { key, value: None, tx }
    }

    /// This write as a borrowed [`WriteRef`].
    pub fn as_write_ref(&self) -> WriteRef<'_> {
        WriteRef { key: &self.key, value: self.value.as_ref(), tx: self.tx }
    }
}

/// One write of a block commit, borrowing key and value from the block —
/// the zero-copy counterpart of [`CommitWrite`]. The committer assembles a
/// [`WriteBatch`] of these straight from the block's write sets without
/// cloning a single key or value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteRef<'a> {
    /// Key to write.
    pub key: &'a Key,
    /// New value; `None` deletes the key.
    pub value: Option<&'a Value>,
    /// Position of the writing transaction within the committing block.
    pub tx: TxNum,
}

/// A whole block's writes, assembled once and handed to
/// [`StateStore::apply_write_batch`] — the block-grained unit of the
/// batched commit path. Engines see every write of the block at once, so
/// they can group by shard (in-memory engine) or emit one group-commit WAL
/// record (LSM engine) instead of paying per-write synchronization.
#[derive(Debug, Clone)]
pub struct WriteBatch<'a> {
    /// The committing block number.
    pub block: BlockNum,
    /// All writes of the block's valid transactions, in block order.
    pub writes: Vec<WriteRef<'a>>,
}

impl<'a> WriteBatch<'a> {
    /// Creates an empty batch for `block`.
    pub fn new(block: BlockNum) -> Self {
        WriteBatch { block, writes: Vec::new() }
    }

    /// Creates an empty batch with room for `capacity` writes.
    pub fn with_capacity(block: BlockNum, capacity: usize) -> Self {
        WriteBatch { block, writes: Vec::with_capacity(capacity) }
    }

    /// Borrows a legacy owned write slice as a batch (the
    /// [`StateStore::apply_block`] compatibility path).
    pub fn from_writes(block: BlockNum, writes: &'a [CommitWrite]) -> Self {
        WriteBatch { block, writes: writes.iter().map(CommitWrite::as_write_ref).collect() }
    }

    /// Appends one write.
    pub fn push(&mut self, write: WriteRef<'a>) {
        self.writes.push(write);
    }

    /// Number of writes in the batch.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether the batch holds no writes.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

/// The result of one versioned read-at-height: everything a snapshot
/// reader needs to both *serve* a consistent value and *classify* its
/// freshness, resolved in a single walk of the key's version chain.
///
/// `at_height` is the live value as of the pinned block (`None` when the
/// key did not exist — or was deleted — at that height). `newest` is the
/// most recent committed fact about the key: its version and its value,
/// where a `None` value is a tombstone. Comparing `newest`'s block against
/// the pinned height is the Fabric++ staleness check; serving `at_height`
/// is the lockless-endorsement snapshot read. One chain resolution yields
/// both.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotGet {
    /// The value live at the pinned height, with the version that wrote it.
    pub at_height: Option<VersionedValue>,
    /// The newest committed fact: `(version, value)`, value `None` when
    /// the newest write is a delete. `None` when the key has never been
    /// written, or its tombstone chain has died.
    pub newest: Option<(Version, Option<Value>)>,
}

impl SnapshotGet {
    /// Whether the newest committed write postdates `height` — i.e. a
    /// commit has invalidated a snapshot pinned at `height` for this key.
    pub fn is_stale_at(&self, height: BlockNum) -> bool {
        matches!(self.newest, Some((v, _)) if v.block > height)
    }
}

/// A versioned key-value state database.
///
/// # Commit protocol
///
/// [`StateStore::apply_write_batch`] (and the [`StateStore::apply_block`]
/// compatibility wrapper over it) must:
///
/// 1. install every write with version `(block, write.tx)`, each key update
///    individually atomic (readers see either the old or the new versioned
///    value, never a torn pair), and
/// 2. only after *all* writes are installed, publish `block` as the new
///    [`StateStore::last_committed_block`].
///
/// This ordering is what makes the Fabric++ lock-free early-abort check
/// sound: a reader that pinned `last_committed_block = n` and then observes
/// a version with `block > n` knows a concurrent commit invalidated its
/// snapshot (paper §5.2.1); conversely a reader that pins `n` *after* the
/// publication is guaranteed to see all of block `n`'s writes.
///
/// Engines are free to install the writes of one batch concurrently (the
/// in-memory engine applies disjoint shards in parallel): the contract
/// constrains only per-key atomicity and the watermark publication, which
/// happens after every installer has finished.
///
/// Blocks must be applied in strictly increasing order starting from the
/// genesis block 0; engines reject gaps and replays with
/// [`fabric_common::Error::InvalidState`].
pub trait StateStore: Send + Sync {
    /// Point lookup: the current versioned value of `key`.
    fn get(&self, key: &Key) -> Result<Option<VersionedValue>>;

    /// Atomically commits a whole block's writes and publishes the block as
    /// the last committed one (see the trait-level commit protocol). The
    /// block-grained form lets engines batch their synchronization: one
    /// lock acquisition per shard, one WAL record per block.
    fn apply_write_batch(&self, batch: &WriteBatch<'_>) -> Result<()>;

    /// Compatibility wrapper: commits `writes` as a [`WriteBatch`]. Same
    /// contract as [`StateStore::apply_write_batch`].
    fn apply_block(&self, block: BlockNum, writes: &[CommitWrite]) -> Result<()> {
        self.apply_write_batch(&WriteBatch::from_writes(block, writes))
    }

    /// Batched version lookup: the current [`Version`] of every key in
    /// `keys`, in input order (`None` = key absent). One call per block is
    /// the validation path's whole read traffic — engines override the
    /// default per-key loop with real batching (one lock per shard, one
    /// bloom consult per key per run).
    fn multi_get_versions(&self, keys: &[Key]) -> Result<Vec<Option<Version>>> {
        let mut out = Vec::with_capacity(keys.len());
        self.multi_get_versions_into(keys, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`StateStore::multi_get_versions`]: clears
    /// `out` and fills it with one entry per key, reusing its capacity.
    ///
    /// Like point reads, the batch is not atomic with respect to a
    /// concurrent block commit; each returned version speaks for itself and
    /// the MVCC machinery decides what a mismatch means.
    fn multi_get_versions_into(
        &self,
        keys: &[Key],
        out: &mut Vec<Option<Version>>,
    ) -> Result<()> {
        out.clear();
        for key in keys {
            out.push(self.get(key)?.map(|vv| vv.version));
        }
        Ok(())
    }

    /// The engine's access counters (shared handles; see [`StoreCounters`]).
    /// The default returns fresh zeroed counters for engines that do not
    /// track access statistics.
    fn counters(&self) -> StoreCounters {
        StoreCounters::new()
    }

    /// How many versions per key the engine keeps beyond what live pins
    /// need: none, on every engine — pins alone decide what a chain holds.
    /// Always `1`; kept because the benchmark reports it.
    fn retained_versions(&self) -> usize {
        1
    }

    /// Pins a snapshot at the current commit watermark and returns the
    /// RAII guard. While the guard lives, reads at its height are exact:
    /// the epoch GC will not trim any chain entry the height resolves
    /// through.
    ///
    /// This is the lockless-endorsement entry point: pinning takes no
    /// commit ticket and never blocks a committer (Meir et al.,
    /// "Lockless Transaction Isolation in Hyperledger Fabric").
    fn pin_snapshot(&self) -> StateSnapshot {
        StateSnapshot::unregistered(self.last_committed_block())
    }

    /// Pins a snapshot at an explicit `height` (which must not exceed the
    /// current watermark). From registration on, the GC keeps what a read
    /// at `height` resolves through. A height already below the GC floor
    /// (the oldest live pin, else the watermark) may have lost facts
    /// before the pin arrived; a read there still says:
    ///
    /// * for a key not rewritten since `height`: its exact value (its
    ///   newest fact is at or below `height`, and a chain always keeps its
    ///   newest fact);
    /// * for a key rewritten after `height`: a `newest` above `height`,
    ///   so [`SnapshotGet::is_stale_at`] holds, whatever `at_height` says;
    /// * for a deleted key whose tombstone chain has died: absent.
    fn pin_snapshot_at(&self, height: BlockNum) -> StateSnapshot {
        StateSnapshot::unregistered(height)
    }

    /// Versioned point read: the key's value as of `height` plus its
    /// newest committed fact, in one chain resolution (see
    /// [`SnapshotGet`]). `height` should come from a live
    /// [`StateSnapshot`]; an unpinned height below the GC floor resolves
    /// as [`StateStore::pin_snapshot_at`] describes.
    ///
    /// The single-version default serves the current value: exact whenever
    /// the newest write predates `height` (the common quiescent case), and
    /// correctly flagged stale otherwise.
    fn get_at(&self, key: &Key, height: BlockNum) -> Result<SnapshotGet> {
        Ok(match self.get(key)? {
            None => SnapshotGet::default(),
            Some(vv) => {
                let newest = Some((vv.version, Some(vv.value.clone())));
                let at_height = (vv.version.block <= height).then_some(vv);
                SnapshotGet { at_height, newest }
            }
        })
    }

    /// Batched form of [`StateStore::get_at`]: clears `out` and fills it
    /// with one [`SnapshotGet`] per key, in input order, reusing its
    /// capacity. One call resolves a whole declared read set in a single
    /// engine round trip (one lock per touched shard, one probe pass per
    /// run), mirroring [`StateStore::multi_get_versions_into`].
    fn multi_get_at_into(
        &self,
        keys: &[Key],
        height: BlockNum,
        out: &mut Vec<SnapshotGet>,
    ) -> Result<()> {
        out.clear();
        for key in keys {
            out.push(self.get_at(key, height)?);
        }
        Ok(())
    }

    /// Range scan at a height: every key in `[start, end)` live at
    /// `height`, in ascending key order, each with its full
    /// [`SnapshotGet`] so the caller can classify staleness without a
    /// second pass. Keys created after `height` are not returned (they
    /// are phantoms to the snapshot); keys deleted after `height` are
    /// returned with their at-height value and a newer tombstone in
    /// `newest`.
    ///
    /// The single-version default scans current state and filters to
    /// entries whose version predates `height` — exact on quiescent
    /// stores, best-effort under concurrent commits.
    fn scan_range_at(
        &self,
        start: &Key,
        end: &Key,
        height: BlockNum,
    ) -> Result<Vec<(Key, SnapshotGet)>> {
        Ok(self
            .scan_range(start, end)?
            .into_iter()
            .filter(|(_, vv)| vv.version.block <= height)
            .map(|(k, vv)| {
                let newest = Some((vv.version, Some(vv.value.clone())));
                (k, SnapshotGet { at_height: Some(vv), newest })
            })
            .collect())
    }

    /// Epoch-GC sweep: trims every version chain down to what the current
    /// GC floor (oldest live pin, else the commit watermark) requires,
    /// returning the number of superseded versions dropped. Engines also trim incrementally on
    /// every commit (touched chains only); this full sweep exists for
    /// tests and for reclaiming after a burst of pins is released.
    fn collect_garbage(&self) -> Result<usize> {
        Ok(0)
    }

    /// The highest block whose writes are fully visible.
    fn last_committed_block(&self) -> BlockNum;

    /// Approximate number of live keys (diagnostics only).
    fn approximate_len(&self) -> usize;

    /// Range scan: all live keys in `[start, end)` with their versioned
    /// values, in ascending key order — Fabric's `GetStateByRange`.
    ///
    /// The scan is not atomic with respect to concurrent block commits;
    /// like point reads, each returned entry carries its version and the
    /// MVCC machinery (validation-phase checks, Fabric++ snapshot checks)
    /// decides whether the reading transaction survives.
    fn scan_range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, VersionedValue)>>;

    /// Every live entry, in ascending key order: the unbounded form of
    /// [`StateStore::scan_range`] (keys are arbitrary byte strings, so no
    /// `[start, end)` pair can express "everything"). Diagnostics and
    /// digesting only — not a hot-path API.
    fn scan_all(&self) -> Result<Vec<(Key, VersionedValue)>>;

    /// Content digest of the full current state: SHA-256 over every live
    /// `(key, value, version)` entry in ascending key order, each field
    /// length-prefixed.
    ///
    /// The digest is **engine-independent** — a [`crate::MemStateDb`], a
    /// [`crate::LsmStateDb`], and a store rebuilt from the ledger by
    /// recovery all hash to the same value when they hold the same state —
    /// which is exactly what lets determinism-conformance harnesses compare
    /// replicas that differ only in their storage engine. Quiescent states
    /// only: the scan underneath is not atomic against concurrent commits.
    fn state_digest(&self) -> Result<Digest> {
        let mut h = Sha256::new();
        let mut enc = Encoder::with_capacity(128);
        for (key, vv) in self.scan_all()? {
            enc.put_bytes(key.as_bytes());
            enc.put_bytes(vv.value.as_bytes());
            enc.put_u64(vv.version.block);
            enc.put_u32(vv.version.tx);
            h.update(enc.as_slice());
            enc = Encoder::with_capacity(128);
        }
        Ok(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_write_constructors() {
        let p = CommitWrite::put(Key::from("k"), Value::from_i64(1), 3);
        assert_eq!(p.value, Some(Value::from_i64(1)));
        assert_eq!(p.tx, 3);
        let d = CommitWrite::delete(Key::from("k"), 4);
        assert_eq!(d.value, None);
        assert_eq!(d.tx, 4);
    }

    #[test]
    fn versioned_value_holds_pair() {
        let vv = VersionedValue::new(Value::from_i64(7), Version::new(2, 1));
        assert_eq!(vv.value.as_i64(), Some(7));
        assert_eq!(vv.version, Version::new(2, 1));
    }

    #[test]
    fn write_batch_from_writes_borrows_all_entries() {
        let writes = vec![
            CommitWrite::put(Key::from("a"), Value::from_i64(1), 0),
            CommitWrite::delete(Key::from("b"), 2),
        ];
        let batch = WriteBatch::from_writes(7, &writes);
        assert_eq!(batch.block, 7);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.writes[0].key, &Key::from("a"));
        assert_eq!(batch.writes[0].value, Some(&Value::from_i64(1)));
        assert_eq!(batch.writes[0].tx, 0);
        assert_eq!(batch.writes[1].value, None);
        assert_eq!(batch.writes[1].tx, 2);
    }

    #[test]
    fn write_batch_push_builds_incrementally() {
        let key = Key::from("k");
        let value = Value::from_i64(9);
        let mut batch = WriteBatch::with_capacity(3, 4);
        assert!(batch.is_empty());
        batch.push(WriteRef { key: &key, value: Some(&value), tx: 1 });
        batch.push(WriteRef { key: &key, value: None, tx: 2 });
        assert_eq!(batch.len(), 2);
        let owned = CommitWrite::delete(key.clone(), 2);
        assert_eq!(batch.writes[1], owned.as_write_ref());
    }
}
