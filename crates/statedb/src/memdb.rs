//! Sharded in-memory multi-version state database.
//!
//! The default engine for benchmarks. It is the version-chain core the two
//! engines share (`chain.rs`) and nothing more: a sharded map from key to
//! newest-first version chain, a commit lock, and the commit watermark,
//! published *after* all of a block's writes are installed — the ordering
//! the Fabric++ lock-free early-abort check relies on (see the
//! [`StateStore`] commit protocol). Up to `retained_versions` recent
//! versions per key stay resolvable, so snapshot reads-at-height
//! ([`StateStore::get_at`] and friends) serve a consistent point-in-time
//! view without touching the commit ticket; the epoch GC — driven by the
//! commit watermark and the [`crate::PinRegistry`] of live snapshot pins —
//! trims chains on every commit so memory stays bounded under sustained
//! load.

use fabric_common::{BlockNum, Key, Result, StoreCounters, Value, Version};

use crate::chain::{newest_values, resolve_chain, ChainMap, ShardGroups, Watermark, DEFAULT_SHARDS};
use crate::pin::StateSnapshot;
use crate::store::{CommitWrite, SnapshotGet, StateStore, VersionedValue, WriteBatch};

/// Default number of recent versions retained per key. Enough that a
/// simulation pinned a few blocks behind a fast committer still resolves
/// without relying on its pin having been registered before the trims;
/// small enough that chain scans stay in one cache line's worth of
/// entries.
const DEFAULT_RETAINED: usize = 4;

/// Sharded in-memory versioned key-value store with per-key version chains.
pub struct MemStateDb {
    chains: ChainMap,
    watermark: Watermark,
    /// Serializes committers (one block at a time), independent of readers.
    /// Doubles as the commit path's reusable shard-grouping scratch:
    /// holding it *is* the commit ticket.
    commit_lock: parking_lot::Mutex<ShardGroups>,
    counters: StoreCounters,
}

impl Default for MemStateDb {
    fn default() -> Self {
        Self::new()
    }
}

impl MemStateDb {
    /// Creates an empty store with the default shard count and retention.
    pub fn new() -> Self {
        Self::with_config(DEFAULT_SHARDS, DEFAULT_RETAINED)
    }

    /// Creates an empty store with `shards` shards (power of two enforced).
    pub fn with_shards(shards: usize) -> Self {
        Self::with_config(shards, DEFAULT_RETAINED)
    }

    /// Creates an empty store retaining up to `retained` versions per key
    /// (clamped to ≥ 1; live pins extend retention past this regardless).
    pub fn with_retained_versions(retained: usize) -> Self {
        Self::with_config(DEFAULT_SHARDS, retained)
    }

    /// Creates an empty store with explicit shard count and per-key
    /// version retention.
    pub fn with_config(shards: usize, retained: usize) -> Self {
        MemStateDb {
            chains: ChainMap::new(shards, retained, false),
            watermark: Watermark::new(None),
            commit_lock: parking_lot::Mutex::new(ShardGroups::default()),
            counters: StoreCounters::new(),
        }
    }

    /// Convenience: creates a store and commits `initial` as genesis
    /// (block 0), with all values at [`Version::GENESIS`].
    pub fn with_genesis(initial: impl IntoIterator<Item = (Key, Value)>) -> Self {
        Self::with_genesis_retained(initial, DEFAULT_RETAINED)
    }

    /// [`MemStateDb::with_genesis`] with an explicit per-key version
    /// retention budget.
    pub fn with_genesis_retained(
        initial: impl IntoIterator<Item = (Key, Value)>,
        retained: usize,
    ) -> Self {
        let db = Self::with_config(DEFAULT_SHARDS, retained);
        let writes: Vec<CommitWrite> = initial
            .into_iter()
            .map(|(key, value)| CommitWrite::put(key, value, 0))
            .collect();
        db.apply_block(0, &writes).expect("genesis commit cannot fail on a fresh store");
        db
    }

    /// Length of `key`'s version chain (diagnostics for GC tests; 0 when
    /// the key holds no retained facts).
    pub fn version_chain_len(&self, key: &Key) -> usize {
        self.chains.chain_len(key)
    }

    /// Slots allocated for `key`'s version chain (0 when it has none).
    #[cfg(test)]
    pub(crate) fn version_chain_capacity(&self, key: &Key) -> usize {
        self.chains.chain_capacity(key)
    }

    /// Number of live snapshot pins (diagnostics).
    pub fn live_pins(&self) -> usize {
        self.watermark.live_pins()
    }
}

impl StateStore for MemStateDb {
    fn get(&self, key: &Key) -> Result<Option<VersionedValue>> {
        self.counters.record_point_get();
        Ok(self.chains.read(key, |chain| {
            let e = chain?.first()?;
            Some(VersionedValue::new(e.value.clone()?, e.version))
        }))
    }

    fn apply_write_batch(&self, batch: &WriteBatch<'_>) -> Result<()> {
        let mut groups = self.commit_lock.lock();
        self.counters.record_commit_ticket();
        self.watermark.check_next(batch.block)?;
        // The trim floor is computed before publication, so heights up to
        // the previous watermark that a racing reader may still pin stay
        // resolvable through this commit (see `Watermark::gc_floor`).
        let done = self.chains.install(&mut groups, batch, self.watermark.gc_floor());
        self.counters.record_block_applied(done.shards);
        if done.trimmed > 0 {
            self.counters.record_gc_trimmed(done.trimmed);
        }
        self.watermark.publish(batch.block);
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
        self.chains.read_many(keys, |i, chain| {
            out[i] = chain
                .and_then(|c| c.first())
                .and_then(|e| e.value.is_some().then_some(e.version));
        });
        self.counters.record_multi_get(keys.len() as u64);
        Ok(())
    }

    fn counters(&self) -> StoreCounters {
        self.counters.clone()
    }

    fn retained_versions(&self) -> usize {
        self.chains.retained()
    }

    fn pin_snapshot(&self) -> StateSnapshot {
        self.watermark.pin(&self.counters)
    }

    fn pin_snapshot_at(&self, height: BlockNum) -> StateSnapshot {
        self.watermark.pin_at(height, &self.counters)
    }

    fn get_at(&self, key: &Key, height: BlockNum) -> Result<SnapshotGet> {
        self.counters.record_snapshot_read(1);
        let mut got = SnapshotGet::default();
        self.chains.read(key, |chain| chain.map(|c| resolve_chain(c, height, &mut got)));
        Ok(got)
    }

    fn multi_get_at_into(
        &self,
        keys: &[Key],
        height: BlockNum,
        out: &mut Vec<SnapshotGet>,
    ) -> Result<()> {
        out.clear();
        out.resize(keys.len(), SnapshotGet::default());
        self.chains.read_many(keys, |i, chain| {
            if let Some(c) = chain {
                resolve_chain(c, height, &mut out[i]);
            }
        });
        self.counters.record_snapshot_read(keys.len() as u64);
        Ok(())
    }

    fn scan_range_at(
        &self,
        start: &Key,
        end: &Key,
        height: BlockNum,
    ) -> Result<Vec<(Key, SnapshotGet)>> {
        let out = self.scan_at(start, Some(end), height);
        self.counters.record_snapshot_read(out.len() as u64);
        Ok(out)
    }

    fn collect_garbage(&self) -> Result<usize> {
        // Full sweep: takes the commit ticket so the floor cannot move
        // mid-sweep (this is commit-side maintenance, not a read).
        let _ticket = self.commit_lock.lock();
        self.counters.record_commit_ticket();
        let trimmed = self.chains.sweep(self.watermark.gc_floor());
        if trimmed > 0 {
            self.counters.record_gc_trimmed(trimmed as u64);
        }
        Ok(trimmed)
    }

    fn last_committed_block(&self) -> BlockNum {
        self.watermark.last_committed_block()
    }

    fn approximate_len(&self) -> usize {
        let mut live = 0;
        self.chains.for_each(|_, c| live += usize::from(c[0].value.is_some()));
        live
    }

    fn scan_range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, VersionedValue)>> {
        Ok(newest_values(self.scan_at(start, Some(end), BlockNum::MAX)))
    }

    fn scan_all(&self) -> Result<Vec<(Key, VersionedValue)>> {
        Ok(newest_values(self.scan_at(&Key::from(""), None, BlockNum::MAX)))
    }
}

impl MemStateDb {
    /// Every key in `[start, end)` (`end: None` is unbounded) with a value
    /// live at `height`, sorted by key. Keys with no value at the height
    /// are invisible to the snapshot (created later, or dead by then).
    fn scan_at(&self, start: &Key, end: Option<&Key>, height: BlockNum) -> Vec<(Key, SnapshotGet)> {
        // Hash sharding has no key order; collect matches then sort.
        let mut out: Vec<(Key, SnapshotGet)> = Vec::new();
        self.chains.for_each(|k, chain| {
            if k >= start && end.is_none_or(|e| k < e) {
                let mut got = SnapshotGet::default();
                resolve_chain(chain, height, &mut got);
                if got.at_height.is_some() {
                    out.push((k.clone(), got));
                }
            }
        });
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LsmConfig, LsmStateDb};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: i64) -> Value {
        Value::from_i64(n)
    }

    #[test]
    fn genesis_and_get() {
        let db = MemStateDb::with_genesis([(k("a"), v(1)), (k("b"), v(2))]);
        let got = db.get(&k("a")).unwrap().unwrap();
        assert_eq!(got.value, v(1));
        assert_eq!(got.version, Version::GENESIS);
        assert!(db.get(&k("zzz")).unwrap().is_none());
        assert_eq!(db.approximate_len(), 2);
        assert_eq!(db.last_committed_block(), 0);
    }

    #[test]
    fn apply_block_updates_versions() {
        let db = MemStateDb::with_genesis([(k("a"), v(1))]);
        db.apply_block(1, &[CommitWrite::put(k("a"), v(10), 3)]).unwrap();
        let got = db.get(&k("a")).unwrap().unwrap();
        assert_eq!(got.value, v(10));
        assert_eq!(got.version, Version::new(1, 3));
        assert_eq!(db.last_committed_block(), 1);
    }

    #[test]
    fn deletes_remove_keys() {
        let db = MemStateDb::with_genesis([(k("a"), v(1)), (k("b"), v(2))]);
        db.apply_block(1, &[CommitWrite::delete(k("a"), 0)]).unwrap();
        assert!(db.get(&k("a")).unwrap().is_none());
        assert!(db.get(&k("b")).unwrap().is_some());
        assert_eq!(db.approximate_len(), 1);
    }

    #[test]
    fn out_of_order_blocks_rejected() {
        let db = MemStateDb::with_genesis([(k("a"), v(1))]);
        assert!(db.apply_block(2, &[]).is_err()); // gap
        assert!(db.apply_block(0, &[]).is_err()); // replay
        db.apply_block(1, &[]).unwrap();
        assert_eq!(db.last_committed_block(), 1);
    }

    #[test]
    fn first_block_must_be_zero() {
        let db = MemStateDb::new();
        assert!(db.apply_block(1, &[]).is_err());
        db.apply_block(0, &[]).unwrap();
        assert_eq!(db.last_committed_block(), 0);
    }

    #[test]
    fn empty_block_advances_watermark() {
        let db = MemStateDb::with_genesis([(k("a"), v(1))]);
        db.apply_block(1, &[]).unwrap();
        db.apply_block(2, &[]).unwrap();
        assert_eq!(db.last_committed_block(), 2);
        // Value still at genesis version.
        assert_eq!(db.get(&k("a")).unwrap().unwrap().version, Version::GENESIS);
    }

    #[test]
    fn concurrent_readers_never_see_future_watermark() {
        // The publication invariant: if a reader observes
        // last_committed_block == n, every write of block n is visible.
        let db = Arc::new(MemStateDb::with_genesis([(k("x"), v(0)), (k("y"), v(0))]));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let pinned = db.last_committed_block();
                        let x = db.get(&k("x")).unwrap().unwrap();
                        let y = db.get(&k("y")).unwrap().unwrap();
                        // Writes of blocks <= pinned must be visible: the
                        // versions can never lag behind the pinned block
                        // because each block rewrites both keys.
                        assert!(x.version.block >= pinned || pinned == 0);
                        assert!(y.version.block >= pinned || pinned == 0);
                    }
                })
            })
            .collect();

        for b in 1..200u64 {
            db.apply_block(
                b,
                &[
                    CommitWrite::put(k("x"), v(b as i64), 0),
                    CommitWrite::put(k("y"), v(b as i64), 1),
                ],
            )
            .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(db.last_committed_block(), 199);
    }

    #[test]
    fn many_keys_across_shards() {
        let db = MemStateDb::with_shards(8);
        let writes: Vec<CommitWrite> = (0..1000)
            .map(|i| CommitWrite::put(Key::composite("acct", i), v(i as i64), i as u32))
            .collect();
        db.apply_block(0, &writes).unwrap();
        assert_eq!(db.approximate_len(), 1000);
        for i in (0..1000).step_by(97) {
            let got = db.get(&Key::composite("acct", i)).unwrap().unwrap();
            assert_eq!(got.value, v(i as i64));
            assert_eq!(got.version, Version::new(0, i as u32));
        }
    }

    #[test]
    fn scan_range_returns_sorted_slice() {
        let db = MemStateDb::with_genesis([
            (k("acct:a"), v(1)),
            (k("acct:c"), v(3)),
            (k("acct:b"), v(2)),
            (k("other:z"), v(9)),
        ]);
        let got = db.scan_range(&k("acct:"), &k("acct:~")).unwrap();
        let names: Vec<String> = got.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["acct:a", "acct:b", "acct:c"]);
        assert_eq!(got[1].1.value, v(2));
        // Empty range.
        assert!(db.scan_range(&k("zzz"), &k("zzzz")).unwrap().is_empty());
        // End exclusive.
        let got = db.scan_range(&k("acct:a"), &k("acct:c")).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn scan_range_reflects_deletes() {
        let db = MemStateDb::with_genesis([(k("r:1"), v(1)), (k("r:2"), v(2))]);
        db.apply_block(1, &[CommitWrite::delete(k("r:1"), 0)]).unwrap();
        let got = db.scan_range(&k("r:"), &k("r:~")).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, k("r:2"));
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let db = MemStateDb::with_shards(5);
        assert_eq!(db.chains.shard_count(), 8);
        let db = MemStateDb::with_shards(0);
        assert_eq!(db.chains.shard_count(), 1);
    }

    #[test]
    fn get_at_resolves_historical_versions() {
        let db = MemStateDb::with_genesis_retained([(k("a"), v(10))], 8);
        db.apply_block(1, &[CommitWrite::put(k("a"), v(20), 0)]).unwrap();
        db.apply_block(2, &[CommitWrite::put(k("a"), v(30), 1)]).unwrap();

        let g0 = db.get_at(&k("a"), 0).unwrap();
        assert_eq!(g0.at_height.as_ref().unwrap().value, v(10));
        assert_eq!(g0.newest.as_ref().unwrap().0, Version::new(2, 1));
        assert!(g0.is_stale_at(0));

        let g1 = db.get_at(&k("a"), 1).unwrap();
        assert_eq!(g1.at_height.as_ref().unwrap().value, v(20));
        assert_eq!(g1.at_height.as_ref().unwrap().version, Version::new(1, 0));

        let g2 = db.get_at(&k("a"), 2).unwrap();
        assert_eq!(g2.at_height.as_ref().unwrap().value, v(30));
        assert!(!g2.is_stale_at(2));
    }

    #[test]
    fn get_at_sees_through_later_deletes_and_creates() {
        let db = MemStateDb::with_genesis_retained([(k("a"), v(1))], 8);
        db.apply_block(1, &[CommitWrite::delete(k("a"), 0), CommitWrite::put(k("b"), v(2), 1)])
            .unwrap();

        // Deleted after height 0: still visible at 0, newest is a tombstone.
        let ga = db.get_at(&k("a"), 0).unwrap();
        assert_eq!(ga.at_height.as_ref().unwrap().value, v(1));
        assert_eq!(ga.newest, Some((Version::new(1, 0), None)));
        // Created after height 0: invisible at 0, newest names the create.
        let gb = db.get_at(&k("b"), 0).unwrap();
        assert!(gb.at_height.is_none());
        assert_eq!(gb.newest.as_ref().unwrap().0, Version::new(1, 1));
        // At height 1 the delete and create are both visible.
        assert!(db.get_at(&k("a"), 1).unwrap().at_height.is_none());
        assert_eq!(db.get_at(&k("b"), 1).unwrap().at_height.as_ref().unwrap().value, v(2));
    }

    #[test]
    fn unpinned_chains_trim_to_retention_budget() {
        let db = MemStateDb::with_genesis_retained([(k("a"), v(0))], 2);
        for b in 1..10u64 {
            db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
        }
        assert!(db.version_chain_len(&k("a")) <= 2);
        assert!(db.counters().snapshot().gc_trimmed_versions > 0);
    }

    /// What the chain tests read of either engine.
    trait Chains: StateStore {
        fn chain_len(&self, key: &Key) -> usize;
        fn chain_capacity(&self, key: &Key) -> usize;
    }

    impl Chains for MemStateDb {
        fn chain_len(&self, key: &Key) -> usize {
            self.version_chain_len(key)
        }
        fn chain_capacity(&self, key: &Key) -> usize {
            self.version_chain_capacity(key)
        }
    }

    impl Chains for LsmStateDb {
        fn chain_len(&self, key: &Key) -> usize {
            self.version_chain_len(key)
        }
        fn chain_capacity(&self, key: &Key) -> usize {
            self.version_chain_capacity(key)
        }
    }

    /// Runs `body` on both engines, each retaining `retained` versions per
    /// key with `a = 0` committed as block 0: the in-memory store, and an
    /// LSM store whose memtable never flushes, so every chain stays in the
    /// shared chain map.
    fn on_both_engines(test: &str, retained: usize, body: impl Fn(&str, &dyn Chains)) {
        body("mem", &MemStateDb::with_genesis_retained([(k("a"), v(0))], retained));
        let dir = std::env::temp_dir()
            .join(format!("fabric-chains-{test}-{retained}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = LsmConfig {
            memtable_max_bytes: usize::MAX,
            retained_versions: retained,
            ..LsmConfig::default()
        };
        let lsm = LsmStateDb::open(&dir, cfg).unwrap();
        lsm.apply_block(0, &[CommitWrite::put(k("a"), v(0), 0)]).unwrap();
        body("lsm", &lsm);
        assert_eq!(lsm.run_count(), 0, "the memtable never flushed");
        drop(lsm);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unpinned_chain_capacity_stays_within_retention_plus_one() {
        for retained in [2, DEFAULT_RETAINED, 7] {
            on_both_engines("unpinned", retained, |engine, db| {
                for b in 1..=50u64 {
                    db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
                    assert!(db.chain_capacity(&k("a")) <= retained + 1, "{engine} block {b}");
                }
                assert_eq!(db.chain_len(&k("a")), retained, "{engine}");
            });
        }
        // One retained version still keeps the fact at the floor as well.
        on_both_engines("unpinned", 1, |engine, db| {
            for b in 1..=50u64 {
                db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
            }
            assert_eq!(db.chain_len(&k("a")), 2, "{engine}");
            assert_eq!(db.chain_capacity(&k("a")), 3, "{engine}");
        });
    }

    #[test]
    fn pinned_height_survives_gc_and_trim_resumes_after_drop() {
        let db = MemStateDb::with_genesis_retained([(k("a"), v(0))], 1);
        let snap = db.pin_snapshot();
        assert_eq!(snap.height(), 0);
        for b in 1..20u64 {
            db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
        }
        // The pinned genesis value is still exactly resolvable...
        let g = db.get_at(&k("a"), snap.height()).unwrap();
        assert_eq!(g.at_height.as_ref().unwrap().value, v(0));
        // ...which forces the chain to span back to the pin.
        assert!(db.version_chain_len(&k("a")) > 1);
        drop(snap);
        let trimmed = db.collect_garbage().unwrap();
        assert!(trimmed > 0);
        assert_eq!(db.version_chain_len(&k("a")), 1);
        assert_eq!(db.get(&k("a")).unwrap().unwrap().value, v(19));
    }

    #[test]
    fn pin_grown_chain_gives_back_its_capacity_when_trimmed() {
        // Retention 1: an unpinned chain needs max(1, 2) + 1 = 3 slots.
        on_both_engines("give-back", 1, |engine, db| {
            let snap = db.pin_snapshot();
            for b in 1..20u64 {
                db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
            }
            assert!(db.chain_capacity(&k("a")) >= 20, "{engine}: the pin grew the chain");
            drop(snap);
            db.collect_garbage().unwrap();
            assert!(db.chain_capacity(&k("a")) <= 3, "{engine}: GC keeps the pinned-era capacity");
            for b in 20..40u64 {
                db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
                assert!(db.chain_capacity(&k("a")) <= 3, "{engine} block {b}");
            }
            assert_eq!(db.get(&k("a")).unwrap().unwrap().value, v(39), "{engine}");
        });
    }

    #[test]
    fn dead_tombstone_chains_leave_the_map() {
        let db = MemStateDb::with_genesis_retained([(k("a"), v(1))], 4);
        db.apply_block(1, &[CommitWrite::delete(k("a"), 0)]).unwrap();
        // The tombstone is retained while the watermark floor allows pins
        // at height 0...
        assert_eq!(db.version_chain_len(&k("a")), 2);
        db.apply_block(2, &[]).unwrap();
        db.collect_garbage().unwrap();
        // ...and the whole chain disappears once no pin can see it.
        assert_eq!(db.version_chain_len(&k("a")), 0);
        assert_eq!(db.approximate_len(), 0);
    }

    #[test]
    fn snapshot_reads_take_no_commit_ticket() {
        let db = MemStateDb::with_genesis([(k("a"), v(1)), (k("b"), v(2))]);
        let before = db.counters().snapshot();
        let snap = db.pin_snapshot();
        let keys = [k("a"), k("b")];
        let mut out = Vec::new();
        db.multi_get_at_into(&keys, snap.height(), &mut out).unwrap();
        db.get_at(&k("a"), snap.height()).unwrap();
        db.scan_range_at(&k("a"), &k("c"), snap.height()).unwrap();
        let after = db.counters().snapshot().since(&before);
        assert_eq!(after.commit_ticket_acquisitions, 0);
        assert_eq!(after.snapshot_pins, 1);
        assert_eq!(after.snapshot_read_batches, 3);
    }
}
