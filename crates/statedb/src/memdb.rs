//! Sharded in-memory multi-version state database.
//!
//! The default engine for benchmarks: per-shard `RwLock`s keep point reads
//! and the per-key atomic updates of a block commit cheap and concurrent,
//! and an `AtomicU64` publishes the last committed block *after* all of a
//! block's writes are installed — the ordering the Fabric++ lock-free
//! early-abort check relies on (see the [`StateStore`] commit protocol).
//!
//! Each shard entry holds a small inline **version chain** (newest-first)
//! rather than a single versioned value: up to `retained_versions` recent
//! versions per key stay resolvable, so snapshot reads-at-height
//! ([`StateStore::get_at`] and friends) serve a consistent point-in-time
//! view without touching the commit ticket. An epoch GC — driven by the
//! commit watermark and the [`PinRegistry`] of live snapshot pins — trims
//! chains on every commit so memory stays bounded under sustained load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use fabric_common::{BlockNum, Error, Key, Result, StoreCounters, Value, Version};

use crate::pin::{PinRegistry, StateSnapshot};
use crate::store::{CommitWrite, SnapshotGet, StateStore, VersionedValue, WriteBatch};

const DEFAULT_SHARDS: usize = 64;

/// Default number of recent versions retained per key. Enough that a
/// simulation pinned a few blocks behind a fast committer still resolves
/// without relying on its pin having been registered before the trims;
/// small enough that chain scans stay in one cache line's worth of
/// entries.
const DEFAULT_RETAINED: usize = 4;

/// Blocks with at least this many writes fan their shard groups out over
/// scoped threads; smaller blocks install sequentially — thread spawn would
/// dominate, and the sequential path is allocation-free in the steady state
/// (asserted by `tests/batched_alloc.rs` and `tests/snapshot_alloc.rs`).
const PARALLEL_APPLY_MIN_WRITES: usize = 4096;

/// One committed fact in a key's version chain: the value written (or
/// `None` for a tombstone) and the version that wrote it.
#[derive(Debug, Clone)]
struct ChainEntry {
    value: Option<Value>,
    version: Version,
}

/// Newest-first chain of committed facts for one key. Invariant: never
/// empty (a chain with nothing left to say is removed from the shard map),
/// strictly decreasing versions.
type Chain = Vec<ChainEntry>;

/// Sharded in-memory versioned key-value store with per-key version chains.
pub struct MemStateDb {
    shards: Vec<RwLock<HashMap<Key, Chain>>>,
    /// Highest fully-visible block; `u64::MAX` encodes "nothing committed".
    last_block: AtomicU64,
    /// Serializes committers (one block at a time), independent of readers.
    /// Doubles as the batched commit path's reusable shard-grouping
    /// scratch: holding it *is* the commit ticket.
    commit_lock: parking_lot::Mutex<ShardGroups>,
    /// Reusable shard-grouping scratch for batched version reads.
    read_scratch: parking_lot::Mutex<ShardGroups>,
    /// Live snapshot pins: the epoch GC never trims below the oldest.
    pins: Arc<PinRegistry>,
    /// Versions retained per key beyond what live pins require (≥ 1).
    retained: usize,
    counters: StoreCounters,
}

/// Installs one write into a shard map: push the entry at the head of the
/// key's chain, trim what the floor and retention budget no longer need,
/// drop chains with nothing left to say. Returns the entries trimmed.
///
/// A full chain grows exactly to the slots an unpinned key needs, so an
/// unpinned key never holds more; only a live pin that keeps older facts
/// grows it further, by doubling, and `trim_chain` gives that back once
/// the pin is gone.
fn install_entry(
    shard: &mut HashMap<Key, Chain>,
    key: &Key,
    entry: ChainEntry,
    floor: BlockNum,
    retain: usize,
) -> u64 {
    let (trimmed, remove) = if let Some(chain) = shard.get_mut(key) {
        if chain.len() == chain.capacity() {
            let slots = unpinned_slots(retain);
            if chain.len() < slots {
                chain.reserve_exact(slots - chain.len());
            } else {
                chain.reserve(1);
            }
        }
        chain.insert(0, entry);
        let (dropped, dead) = trim_chain(chain, floor, retain);
        (dropped as u64, dead)
    } else {
        // A delete of a key with no retained facts has nothing to say: no
        // chain is created for it.
        if entry.value.is_some() {
            shard.insert(key.clone(), vec![entry]);
        }
        (0, false)
    };
    if remove {
        shard.remove(key);
    }
    trimmed
}

/// Per-shard index lists, reused across batches so a warm store groups
/// without allocating.
#[derive(Default)]
struct ShardGroups {
    groups: Vec<Vec<u32>>,
}

impl ShardGroups {
    /// Clears every group (keeping capacity) and ensures one group per
    /// shard exists.
    fn reset(&mut self, shards: usize) {
        if self.groups.len() < shards {
            self.groups.resize_with(shards, Vec::new);
        }
        for g in &mut self.groups {
            g.clear();
        }
    }
}

const NO_BLOCK: u64 = u64::MAX;

/// Trims `chain` (newest-first) to what the retention floor and the
/// per-key retention budget require: every entry down to the first one at
/// or below `floor` must stay (some live pin may resolve through it), and
/// up to `retain` recent entries stay regardless. Returns
/// `(entries dropped, whole chain dead)` — the chain is dead when its
/// newest fact is a tombstone no pin can still see, at which point the key
/// leaves the map entirely.
fn trim_chain(chain: &mut Chain, floor: BlockNum, retain: usize) -> (usize, bool) {
    let newest = &chain[0];
    if newest.value.is_none() && newest.version.block <= floor {
        return (chain.len(), true);
    }
    let keep = match chain.iter().position(|e| e.version.block <= floor) {
        Some(i) => retain.min(chain.len()).max(i + 1),
        // Every retained fact postdates the floor: all of them are the
        // first-at-or-below answer for some pinnable height.
        None => chain.len(),
    };
    let dropped = chain.len() - keep;
    chain.truncate(keep);
    // Give back what a pin grew: once the chain fits the unpinned budget
    // with room for the next fact, it needs no more than that budget. A
    // chain still at the budget keeps its slack, so a short pin does not
    // make every commit reallocate. Copied into a fresh buffer rather than
    // shrunk in place, like every long-lived buffer (DESIGN §6).
    let slots = unpinned_slots(retain);
    if keep < slots && chain.capacity() > slots {
        let mut exact = Vec::with_capacity(slots);
        exact.append(chain);
        *chain = exact;
    }
    (dropped, false)
}

/// Slots an unpinned chain needs: the facts `trim_chain` keeps plus the
/// incoming one — `retain` facts, but never fewer than two, because the
/// unpinned floor trails the committing block by one and the fact at the
/// floor must stay.
fn unpinned_slots(retain: usize) -> usize {
    retain.max(2) + 1
}

/// Resolves a chain into a [`SnapshotGet`] at `height`: the newest
/// committed fact plus the value live as of `height` (first entry at or
/// below the height; tombstones resolve to "absent").
fn resolve_chain(chain: &Chain, height: BlockNum) -> SnapshotGet {
    let newest = chain.first().map(|e| (e.version, e.value.clone()));
    let at_height = chain
        .iter()
        .find(|e| e.version.block <= height)
        .and_then(|e| e.value.clone().map(|v| VersionedValue::new(v, e.version)));
    SnapshotGet { at_height, newest }
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
        let shards = shards.next_power_of_two().max(1);
        MemStateDb {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            last_block: AtomicU64::new(NO_BLOCK),
            commit_lock: parking_lot::Mutex::new(ShardGroups::default()),
            read_scratch: parking_lot::Mutex::new(ShardGroups::default()),
            pins: Arc::new(PinRegistry::new()),
            retained: retained.max(1),
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
        self.shard_of(key).read().get(key).map_or(0, Vec::len)
    }

    /// Slots allocated for `key`'s version chain (0 when it has none).
    #[cfg(test)]
    fn version_chain_capacity(&self, key: &Key) -> usize {
        self.shard_of(key).read().get(key).map_or(0, Vec::capacity)
    }

    /// Number of live snapshot pins (diagnostics).
    pub fn live_pins(&self) -> usize {
        self.pins.live_pins()
    }

    fn shard_index(&self, key: &Key) -> usize {
        // FNV-1a over the key bytes; shard count is a power of two.
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in key.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        (h as usize) & (self.shards.len() - 1)
    }

    fn shard_of(&self, key: &Key) -> &RwLock<HashMap<Key, Chain>> {
        &self.shards[self.shard_index(key)]
    }

    /// The epoch-GC trim floor: the oldest height any live snapshot pins,
    /// clamped by the already-published watermark. Heights at or above the
    /// floor stay exactly resolvable; history below it may be trimmed.
    ///
    /// Clamping by the *pre-publication* watermark (not the committing
    /// block) closes the pin race: a reader that loads the watermark,
    /// registers its pin, and re-checks the watermark either sees it
    /// unchanged — in which case every commit that trims with a higher
    /// floor starts after the pin is visible — or retries at the new
    /// height.
    fn gc_floor(&self) -> BlockNum {
        let watermark = self.last_committed_block();
        self.pins.oldest().map_or(watermark, |p| p.min(watermark))
    }

    /// Refreshes the telemetry gauge cells (GC floor, live pins) after a
    /// block apply. Block granularity is all the windowed time-series
    /// layer samples at, so per-pin refreshes would be wasted stores.
    fn refresh_gauges(&self) {
        self.counters.set_gc_floor(self.gc_floor());
        self.counters.set_live_pins(self.pins.live_pins() as u64);
    }

    /// Installs the shard groups `start, start+stride, …` of `batch`. Each
    /// non-empty shard's write lock is taken exactly once, and distinct
    /// `(start, stride)` lanes touch disjoint shards, so lanes may run on
    /// separate threads under the commit lock's publication ordering.
    /// Newly superseded chain entries beyond what `floor` and the
    /// retention budget need are trimmed in the same pass; returns the
    /// number trimmed.
    fn install_shard_lane(
        &self,
        groups: &[Vec<u32>],
        batch: &WriteBatch<'_>,
        start: usize,
        stride: usize,
        floor: BlockNum,
    ) -> u64 {
        let mut trimmed = 0u64;
        for si in (start..groups.len()).step_by(stride) {
            let group = &groups[si];
            if group.is_empty() {
                continue;
            }
            let mut shard = self.shards[si].write();
            for &i in group {
                let w = &batch.writes[i as usize];
                let entry = ChainEntry {
                    value: w.value.cloned(),
                    version: Version::new(batch.block, w.tx),
                };
                trimmed += install_entry(&mut shard, w.key, entry, floor, self.retained);
            }
        }
        trimmed
    }
}

impl StateStore for MemStateDb {
    fn get(&self, key: &Key) -> Result<Option<VersionedValue>> {
        self.counters.record_point_get();
        Ok(self.shard_of(key).read().get(key).and_then(|chain| {
            let e = chain.first()?;
            Some(VersionedValue::new(e.value.clone()?, e.version))
        }))
    }

    fn apply_write_batch(&self, batch: &WriteBatch<'_>) -> Result<()> {
        let mut scratch = self.commit_lock.lock();
        self.counters.record_commit_ticket();
        let last = self.last_block.load(Ordering::Acquire);
        let expected = if last == NO_BLOCK { 0 } else { last + 1 };
        if batch.block != expected {
            return Err(Error::InvalidState(format!(
                "apply_block({}) out of order: expected block {expected}",
                batch.block
            )));
        }
        // The trim floor is computed before publication, so heights up to
        // the previous watermark that a racing reader may still pin stay
        // resolvable through this commit (see `gc_floor`).
        let floor = self.gc_floor();

        let nshards = self.shards.len();
        scratch.reset(nshards);
        for (i, w) in batch.writes.iter().enumerate() {
            scratch.groups[self.shard_index(w.key)].push(i as u32);
        }
        let groups = &scratch.groups[..nshards];
        let nonempty = groups.iter().filter(|g| !g.is_empty()).count();

        // Install each shard's group under a single write-lock acquisition;
        // large blocks spread independent shards over scoped threads.
        let threads = if batch.writes.len() >= PARALLEL_APPLY_MIN_WRITES {
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(nonempty).min(8)
        } else {
            1
        };
        let trimmed = if threads > 1 {
            let total = AtomicU64::new(0);
            std::thread::scope(|s| {
                for t in 1..threads {
                    let total = &total;
                    s.spawn(move || {
                        let n = self.install_shard_lane(groups, batch, t, threads, floor);
                        total.fetch_add(n, Ordering::Relaxed);
                    });
                }
                let n = self.install_shard_lane(groups, batch, 0, threads, floor);
                total.fetch_add(n, Ordering::Relaxed);
            });
            total.into_inner()
        } else {
            self.install_shard_lane(groups, batch, 0, 1, floor)
        };
        self.counters.record_block_applied(nonempty as u64);
        if trimmed > 0 {
            self.counters.record_gc_trimmed(trimmed);
        }

        // Publish only after every write is visible (release pairs with the
        // acquire in last_committed_block / snapshot pinning).
        self.last_block.store(batch.block, Ordering::Release);
        self.refresh_gauges();
        Ok(())
    }

    fn multi_get_versions_into(
        &self,
        keys: &[Key],
        out: &mut Vec<Option<Version>>,
    ) -> Result<()> {
        out.clear();
        out.resize(keys.len(), None);
        let nshards = self.shards.len();
        let mut scratch = self.read_scratch.lock();
        scratch.reset(nshards);
        for (i, key) in keys.iter().enumerate() {
            scratch.groups[self.shard_index(key)].push(i as u32);
        }
        // One read-lock acquisition per touched shard, results in input
        // order.
        for (si, group) in scratch.groups[..nshards].iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = self.shards[si].read();
            for &i in group {
                out[i as usize] = shard
                    .get(&keys[i as usize])
                    .and_then(|chain| chain.first())
                    .and_then(|e| e.value.is_some().then_some(e.version));
            }
        }
        self.counters.record_multi_get(keys.len() as u64);
        Ok(())
    }

    fn counters(&self) -> StoreCounters {
        self.counters.clone()
    }

    fn retained_versions(&self) -> usize {
        self.retained
    }

    fn pin_snapshot(&self) -> StateSnapshot {
        loop {
            let h = self.last_committed_block();
            self.pins.pin(h);
            // Re-check after the pin is visible to committers: if the
            // watermark moved, a commit may already have trimmed with a
            // floor above `h` — retry at the new height.
            if self.last_committed_block() == h {
                self.counters.record_snapshot_pin();
                return StateSnapshot::registered(h, Arc::clone(&self.pins));
            }
            self.pins.unpin(h);
        }
    }

    fn pin_snapshot_at(&self, height: BlockNum) -> StateSnapshot {
        self.pins.pin(height);
        self.counters.record_snapshot_pin();
        StateSnapshot::registered(height, Arc::clone(&self.pins))
    }

    fn get_at(&self, key: &Key, height: BlockNum) -> Result<SnapshotGet> {
        self.counters.record_snapshot_read(1);
        Ok(self
            .shard_of(key)
            .read()
            .get(key)
            .map_or_else(SnapshotGet::default, |chain| resolve_chain(chain, height)))
    }

    fn multi_get_at_into(
        &self,
        keys: &[Key],
        height: BlockNum,
        out: &mut Vec<SnapshotGet>,
    ) -> Result<()> {
        out.clear();
        out.resize(keys.len(), SnapshotGet::default());
        let nshards = self.shards.len();
        let mut scratch = self.read_scratch.lock();
        scratch.reset(nshards);
        for (i, key) in keys.iter().enumerate() {
            scratch.groups[self.shard_index(key)].push(i as u32);
        }
        for (si, group) in scratch.groups[..nshards].iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = self.shards[si].read();
            for &i in group {
                if let Some(chain) = shard.get(&keys[i as usize]) {
                    out[i as usize] = resolve_chain(chain, height);
                }
            }
        }
        self.counters.record_snapshot_read(keys.len() as u64);
        Ok(())
    }

    fn scan_range_at(
        &self,
        start: &Key,
        end: &Key,
        height: BlockNum,
    ) -> Result<Vec<(Key, SnapshotGet)>> {
        let mut out: Vec<(Key, SnapshotGet)> = Vec::new();
        for shard in self.shards.iter() {
            let guard = shard.read();
            for (k, chain) in guard.iter() {
                if k >= start && k < end {
                    let got = resolve_chain(chain, height);
                    // Keys with no value at the height are invisible to the
                    // snapshot (created later, or dead by then).
                    if got.at_height.is_some() {
                        out.push((k.clone(), got));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        self.counters.record_snapshot_read(out.len() as u64);
        Ok(out)
    }

    fn collect_garbage(&self) -> Result<usize> {
        // Full sweep: takes the commit ticket so the floor cannot move
        // mid-sweep (this is commit-side maintenance, not a read).
        let _ticket = self.commit_lock.lock();
        self.counters.record_commit_ticket();
        let floor = self.gc_floor();
        let mut trimmed = 0usize;
        for shard in self.shards.iter() {
            let mut guard = shard.write();
            guard.retain(|_, chain| {
                let (dropped, dead) = trim_chain(chain, floor, self.retained);
                trimmed += dropped;
                !dead
            });
        }
        if trimmed > 0 {
            self.counters.record_gc_trimmed(trimmed as u64);
        }
        Ok(trimmed)
    }

    fn last_committed_block(&self) -> BlockNum {
        let v = self.last_block.load(Ordering::Acquire);
        if v == NO_BLOCK {
            0
        } else {
            v
        }
    }

    fn approximate_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|c| c.first().is_some_and(|e| e.value.is_some()))
                    .count()
            })
            .sum()
    }

    fn scan_range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, VersionedValue)>> {
        // Hash sharding has no key order; collect matches then sort.
        let mut out: Vec<(Key, VersionedValue)> = Vec::new();
        for shard in self.shards.iter() {
            let guard = shard.read();
            for (k, chain) in guard.iter() {
                if k >= start && k < end {
                    if let Some(e) = chain.first() {
                        if let Some(v) = &e.value {
                            out.push((k.clone(), VersionedValue::new(v.clone(), e.version)));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }

    fn scan_all(&self) -> Result<Vec<(Key, VersionedValue)>> {
        let mut out: Vec<(Key, VersionedValue)> = Vec::new();
        for shard in self.shards.iter() {
            let guard = shard.read();
            out.extend(guard.iter().filter_map(|(k, chain)| {
                let e = chain.first()?;
                let v = e.value.as_ref()?;
                Some((k.clone(), VersionedValue::new(v.clone(), e.version)))
            }));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(db.shards.len(), 8);
        let db = MemStateDb::with_shards(0);
        assert_eq!(db.shards.len(), 1);
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

    #[test]
    fn unpinned_chain_capacity_stays_within_retention_plus_one() {
        for retained in [2, DEFAULT_RETAINED, 7] {
            let db = MemStateDb::with_genesis_retained([(k("a"), v(0))], retained);
            for b in 1..=50u64 {
                db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
                assert!(db.version_chain_capacity(&k("a")) <= retained + 1, "block {b}");
            }
            assert_eq!(db.version_chain_len(&k("a")), retained);
        }
        // One retained version still keeps the fact at the floor as well.
        let db = MemStateDb::with_genesis_retained([(k("a"), v(0))], 1);
        for b in 1..=50u64 {
            db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
        }
        assert_eq!(db.version_chain_len(&k("a")), 2);
        assert_eq!(db.version_chain_capacity(&k("a")), 3);
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
        let db = MemStateDb::with_genesis_retained([(k("a"), v(0))], 1);
        let snap = db.pin_snapshot();
        for b in 1..20u64 {
            db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
        }
        assert!(db.version_chain_capacity(&k("a")) >= 20, "the pin grew the chain");
        drop(snap);
        db.collect_garbage().unwrap();
        assert!(db.version_chain_capacity(&k("a")) <= 3, "GC keeps the pinned-era capacity");
        for b in 20..40u64 {
            db.apply_block(b, &[CommitWrite::put(k("a"), v(b as i64), 0)]).unwrap();
            assert!(db.version_chain_capacity(&k("a")) <= 3, "block {b}");
        }
        assert_eq!(db.get(&k("a")).unwrap().unwrap().value, v(39));
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
