//! The version-chain core both engines share.
//!
//! A key's committed facts live in a newest-first **version chain**. Pins
//! decide what stays: every fact a live snapshot pin may still read, and
//! nothing else. The epoch GC trims below the oldest pin, clamped by the
//! commit watermark ([`Watermark::gc_floor`]), so an unpinned chain holds
//! its newest fact and the fact at the floor, in two slots; a pin grows a
//! chain as far back as its height needs, until the pin is dropped.
//!
//! [`ChainMap`] is the sharded `HashMap<Key, Chain>` that holds the chains.
//! It is the whole state of [`crate::MemStateDb`] and the memtable of
//! [`crate::LsmStateDb`], whose sorted runs store the same trimmed chains
//! below it. [`Watermark`] is the commit-side protocol both engines follow:
//! blocks apply in order, every write of a block is installed before the
//! block is published, and a snapshot pin registers and then re-checks the
//! watermark.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use fabric_common::{BlockNum, Error, Key, Result, StoreCounters, Value, Version};

use crate::pin::{PinRegistry, StateSnapshot};
use crate::store::{SnapshotGet, VersionedValue, WriteBatch};

/// Shards of a [`ChainMap`].
pub(crate) const DEFAULT_SHARDS: usize = 64;

/// Blocks with at least this many writes fan their shard groups out over
/// scoped threads; smaller blocks install sequentially — thread spawn would
/// dominate, and the sequential path is allocation-free in the steady state
/// (asserted by `tests/batched_alloc.rs` and `tests/snapshot_alloc.rs`).
const PARALLEL_APPLY_MIN_WRITES: usize = 4096;

const NO_BLOCK: u64 = u64::MAX;

/// One committed fact in a key's version chain: the value written (or
/// `None` for a tombstone) and the version that wrote it.
#[derive(Debug, Clone)]
pub(crate) struct ChainEntry {
    pub(crate) value: Option<Value>,
    pub(crate) version: Version,
}

/// Newest-first chain of committed facts for one key. Invariant: never
/// empty (a chain with nothing left to say is removed from the shard map),
/// non-increasing versions.
pub(crate) type Chain = Vec<ChainEntry>;

/// Slots an unpinned chain holds: its newest fact and the fact at the GC
/// floor. The unpinned floor trails the committing block by one, so the
/// fact at the floor is the one a reader pinned at the last published
/// block resolves through.
const UNPINNED_SLOTS: usize = 2;

/// How many of `chain`'s newest-first facts a read at or above `floor` can
/// still need: every fact above the floor, and the first at or below it.
fn needed(chain: &[ChainEntry], floor: BlockNum) -> usize {
    chain.iter().position(|e| e.version.block <= floor).map_or(chain.len(), |i| i + 1)
}

/// Whether a chain whose newest fact is `newest` has nothing left to say
/// at or above `floor`: a tombstone no pin can see past. A chain that
/// `shadows` older layers (an LSM memtable chain above the runs) is never
/// dead: its tombstone must keep hiding the runs' facts until a
/// compaction drops them together.
fn is_dead(newest: &ChainEntry, floor: BlockNum, shadows: bool) -> bool {
    !shadows && newest.value.is_none() && newest.version.block <= floor
}

/// Truncates `chain` to its `keep` newest facts and returns how many it
/// dropped. Gives back what a pin grew: a chain left with room for the
/// next fact within [`UNPINNED_SLOTS`] needs no more than that. A chain
/// that still fills them keeps its slack, so a short pin does not make
/// every commit reallocate. Copied into a fresh buffer rather than shrunk
/// in place, like every long-lived buffer (DESIGN §6).
fn truncate_to(chain: &mut Chain, keep: usize) -> usize {
    let dropped = chain.len() - keep;
    chain.truncate(keep);
    if keep < UNPINNED_SLOTS && chain.capacity() > UNPINNED_SLOTS {
        let mut exact = Vec::with_capacity(UNPINNED_SLOTS);
        exact.append(chain);
        *chain = exact;
    }
    dropped
}

/// Trims `chain` (newest-first) to what live pins can still read: every
/// entry down to the first one at or below `floor` stays (some pin may
/// resolve through it), nothing older does. Returns `(entries dropped,
/// whole chain dead)`; a dead chain (see [`is_dead`]) leaves the map
/// entirely.
pub(crate) fn trim_chain(chain: &mut Chain, floor: BlockNum, shadows: bool) -> (usize, bool) {
    if is_dead(&chain[0], floor, shadows) {
        return (chain.len(), true);
    }
    (truncate_to(chain, needed(chain, floor)), false)
}

/// Feeds one newest-first chain into a read at `height`. Chains are fed
/// newest layer first (an LSM's memtable, then its runs from newest to
/// oldest), so the first fact fed is the newest committed one and the
/// first fact at or below `height` answers the read (a tombstone answers
/// "absent"). Returns whether the read is answered; an answered read needs
/// no older chain.
pub(crate) fn resolve_chain(chain: &[ChainEntry], height: BlockNum, out: &mut SnapshotGet) -> bool {
    if out.newest.is_none() {
        if let Some(e) = chain.first() {
            out.newest = Some((e.version, e.value.clone()));
        }
    }
    match chain.iter().find(|e| e.version.block <= height) {
        Some(e) => {
            out.at_height = e.value.clone().map(|v| VersionedValue::new(v, e.version));
            true
        }
        None => false,
    }
}

/// What installing a block's writes did: chain entries trimmed, shard
/// locks taken, and the memtable byte count's moves (see
/// [`ChainMap::install`]).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Installed {
    pub(crate) trimmed: u64,
    pub(crate) shards: u64,
    pub(crate) bytes_added: usize,
    pub(crate) bytes_replaced: usize,
}

impl Installed {
    fn merge(self, o: Installed) -> Installed {
        Installed {
            trimmed: self.trimmed + o.trimmed,
            shards: self.shards + o.shards,
            bytes_added: self.bytes_added + o.bytes_added,
            bytes_replaced: self.bytes_replaced + o.bytes_replaced,
        }
    }
}

/// Per-shard index lists, reused across batches so a warm store groups
/// without allocating.
#[derive(Default)]
pub(crate) struct ShardGroups {
    groups: Vec<Vec<u32>>,
}

/// Sharded map from key to version chain. Per-shard `RwLock`s keep point
/// reads and the per-key updates of a block commit cheap and concurrent.
pub(crate) struct ChainMap {
    shards: Vec<RwLock<HashMap<Key, Chain>>>,
    /// Reusable shard-grouping scratch for batched reads.
    read_scratch: Mutex<ShardGroups>,
    /// Whether the chains shadow older layers (see [`trim_chain`]).
    shadows: bool,
}

impl ChainMap {
    /// An empty map with `shards` shards (rounded up to a power of two).
    pub(crate) fn new(shards: usize, shadows: bool) -> Self {
        let shards = shards.next_power_of_two().max(1);
        ChainMap {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            read_scratch: Mutex::new(ShardGroups::default()),
            shadows,
        }
    }

    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Groups the positions of `keys` by shard in `scratch` (cleared
    /// first, keeping capacity); returns one group per shard.
    fn group<'s, 'k>(
        &self,
        scratch: &'s mut ShardGroups,
        keys: impl Iterator<Item = &'k Key>,
    ) -> &'s [Vec<u32>] {
        let groups = &mut scratch.groups;
        groups.resize_with(groups.len().max(self.shards.len()), Vec::new);
        groups.iter_mut().for_each(Vec::clear);
        for (i, key) in keys.enumerate() {
            groups[self.shard_index(key)].push(i as u32);
        }
        &groups[..self.shards.len()]
    }

    /// Calls `f` with `key`'s chain (if any) under its shard's read lock.
    pub(crate) fn read<R>(&self, key: &Key, f: impl FnOnce(Option<&Chain>) -> R) -> R {
        f(self.shards[self.shard_index(key)].read().get(key))
    }

    /// Calls `f(i, chain)` for every `keys[i]`, taking each touched shard's
    /// read lock once.
    pub(crate) fn read_many(&self, keys: &[Key], mut f: impl FnMut(usize, Option<&Chain>)) {
        let mut scratch = self.read_scratch.lock();
        let groups = self.group(&mut scratch, keys.iter());
        for (si, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = self.shards[si].read();
            for &i in group {
                f(i as usize, shard.get(&keys[i as usize]));
            }
        }
    }

    /// Calls `f` with every chain, one shard's read lock at a time (no key
    /// order).
    pub(crate) fn for_each(&self, mut f: impl FnMut(&Key, &Chain)) {
        for shard in &self.shards {
            for (k, chain) in shard.read().iter() {
                f(k, chain);
            }
        }
    }

    /// Installs `batch` as block `batch.block`, trimming each touched chain
    /// against `floor`. Each non-empty shard's write lock is taken once;
    /// large blocks spread disjoint shard lanes over scoped threads. The
    /// caller holds its commit lock (whose scratch `groups` is) and
    /// publishes the block only afterwards.
    ///
    /// The byte counts are what an LSM memtable's flush trigger counts: a
    /// write adds its key, value and 24 bytes; a write that replaces a
    /// chain's head gives back that head's value and 24 bytes (its key
    /// stays counted).
    pub(crate) fn install(
        &self,
        groups: &mut ShardGroups,
        batch: &WriteBatch<'_>,
        floor: BlockNum,
    ) -> Installed {
        let groups = self.group(groups, batch.writes.iter().map(|w| w.key));
        let threads = if batch.writes.len() >= PARALLEL_APPLY_MIN_WRITES {
            let nonempty = groups.iter().filter(|g| !g.is_empty()).count();
            std::thread::available_parallelism().map_or(1, |n| n.get()).min(nonempty).min(8)
        } else {
            1
        };
        if threads <= 1 {
            return self.install_lane(groups, batch, 0, 1, floor);
        }
        std::thread::scope(|s| {
            let lanes: Vec<_> = (1..threads)
                .map(|t| s.spawn(move || self.install_lane(groups, batch, t, threads, floor)))
                .collect();
            let own = self.install_lane(groups, batch, 0, threads, floor);
            lanes.into_iter().fold(own, |acc, h| acc.merge(h.join().expect("install lane")))
        })
    }

    /// Installs the shard groups `start, start+stride, …` of `batch`;
    /// distinct `(start, stride)` lanes touch disjoint shards.
    fn install_lane(
        &self,
        groups: &[Vec<u32>],
        batch: &WriteBatch<'_>,
        start: usize,
        stride: usize,
        floor: BlockNum,
    ) -> Installed {
        let mut done = Installed::default();
        for si in (start..groups.len()).step_by(stride) {
            let group = &groups[si];
            if group.is_empty() {
                continue;
            }
            done.shards += 1;
            let mut shard = self.shards[si].write();
            for &i in group {
                let w = &batch.writes[i as usize];
                done.bytes_added += w.key.len() + w.value.map_or(0, Value::len) + 24;
                let entry = ChainEntry {
                    value: w.value.cloned(),
                    version: Version::new(batch.block, w.tx),
                };
                let (trimmed, replaced) = self.install_entry(&mut shard, w.key, entry, floor);
                done.trimmed += trimmed;
                done.bytes_replaced += replaced;
            }
        }
        done
    }

    /// Installs one write into a shard map: trim what the incoming head
    /// makes unneeded, push it at the head of the key's chain, drop chains
    /// with nothing left to say. Returns the entries trimmed and the bytes
    /// of the head it replaced.
    ///
    /// Trimming first keeps an unpinned chain in its [`UNPINNED_SLOTS`]:
    /// the fact at the floor and the incoming one, so a steady-state
    /// install never reallocates. Only a live pin that keeps older facts
    /// grows a chain further, by doubling, and [`trim_chain`] gives that
    /// back once the pin is gone.
    fn install_entry(
        &self,
        shard: &mut HashMap<Key, Chain>,
        key: &Key,
        entry: ChainEntry,
        floor: BlockNum,
    ) -> (u64, usize) {
        let Some(chain) = shard.get_mut(key) else {
            // A delete of a key with no retained facts has nothing to say —
            // unless there are older layers for it to hide.
            if entry.value.is_some() || self.shadows {
                shard.insert(key.clone(), vec![entry]);
            }
            return (0, 0);
        };
        let replaced = chain[0].value.as_ref().map_or(0, Value::len) + 24;
        // The floor trails the committing block, so the incoming head sits
        // above it and every fact a pin needs below the head stays — except
        // in block 0, whose floor is 0: there the head alone answers.
        let keep = if entry.version.block > floor { needed(chain, floor) } else { 0 };
        let mut dropped = truncate_to(chain, keep);
        if chain.len() == chain.capacity() {
            if chain.len() < UNPINNED_SLOTS {
                chain.reserve_exact(UNPINNED_SLOTS - chain.len());
            } else {
                chain.reserve(1);
            }
        }
        chain.insert(0, entry);
        if is_dead(&chain[0], floor, self.shadows) {
            dropped += chain.len();
            shard.remove(key);
        }
        (dropped as u64, replaced)
    }

    /// Trims every chain against `floor`; returns the entries dropped.
    pub(crate) fn sweep(&self, floor: BlockNum) -> usize {
        let mut trimmed = 0usize;
        for shard in &self.shards {
            shard.write().retain(|_, chain| {
                let (dropped, dead) = trim_chain(chain, floor, self.shadows);
                trimmed += dropped;
                !dead
            });
        }
        trimmed
    }

    /// Removes every chain, keeping each shard's table allocation.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
    }

    /// Number of keys with a chain.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Length of `key`'s chain (0 when it has none).
    pub(crate) fn chain_len(&self, key: &Key) -> usize {
        self.read(key, |c| c.map_or(0, Vec::len))
    }

    /// Slots allocated for `key`'s chain (0 when it has none).
    #[cfg(test)]
    pub(crate) fn chain_capacity(&self, key: &Key) -> usize {
        self.read(key, |c| c.map_or(0, Vec::capacity))
    }
}

/// The commit watermark and the live snapshot pins: the publication and
/// pinning protocol of both engines.
pub(crate) struct Watermark {
    /// Highest fully-visible block; `NO_BLOCK` encodes "nothing committed".
    last_block: AtomicU64,
    /// Live snapshot pins: the epoch GC never trims below the oldest.
    pins: Arc<PinRegistry>,
}

impl Watermark {
    /// A watermark at `last` (`None`: nothing committed yet).
    pub(crate) fn new(last: Option<BlockNum>) -> Self {
        Watermark {
            last_block: AtomicU64::new(last.unwrap_or(NO_BLOCK)),
            pins: Arc::new(PinRegistry::new()),
        }
    }

    /// The last published block, `None` before the first.
    pub(crate) fn committed(&self) -> Option<BlockNum> {
        let v = self.last_block.load(Ordering::Acquire);
        (v != NO_BLOCK).then_some(v)
    }

    /// The last published block, 0 before the first.
    pub(crate) fn last_committed_block(&self) -> BlockNum {
        self.committed().unwrap_or(0)
    }

    /// Refuses any block but the next one. Caller holds its commit lock.
    pub(crate) fn check_next(&self, block: BlockNum) -> Result<()> {
        let expected = self.committed().map_or(0, |l| l + 1);
        if block != expected {
            return Err(Error::InvalidState(format!(
                "apply_block({block}) out of order: expected block {expected}"
            )));
        }
        Ok(())
    }

    /// Publishes `block`: every write of it must already be installed
    /// (release pairs with the acquire in `committed` and snapshot pinning).
    pub(crate) fn publish(&self, block: BlockNum) {
        self.last_block.store(block, Ordering::Release);
    }

    /// The epoch-GC trim floor: the oldest height any live snapshot pins,
    /// clamped by the already-published watermark. Heights at or above the
    /// floor stay exactly resolvable; older facts below it may be trimmed.
    ///
    /// Clamping by the *pre-publication* watermark (not the committing
    /// block) closes the pin race: a reader that loads the watermark,
    /// registers its pin, and re-checks the watermark either sees it
    /// unchanged — in which case every commit that trims with a higher
    /// floor starts after the pin is visible — or retries at the new
    /// height.
    pub(crate) fn gc_floor(&self) -> BlockNum {
        let watermark = self.last_committed_block();
        self.pins.oldest().map_or(watermark, |p| p.min(watermark))
    }

    /// Pins the current watermark.
    pub(crate) fn pin(&self, counters: &StoreCounters) -> StateSnapshot {
        loop {
            let h = self.last_committed_block();
            self.pins.pin(h);
            // Re-check after the pin is visible to committers: if the
            // watermark moved, a commit may already have trimmed with a
            // floor above `h` — retry at the new height.
            if self.last_committed_block() == h {
                counters.record_snapshot_pin();
                return StateSnapshot::registered(h, Arc::clone(&self.pins));
            }
            self.pins.unpin(h);
        }
    }

    /// Pins an explicit `height`.
    pub(crate) fn pin_at(&self, height: BlockNum, counters: &StoreCounters) -> StateSnapshot {
        self.pins.pin(height);
        counters.record_snapshot_pin();
        StateSnapshot::registered(height, Arc::clone(&self.pins))
    }

    /// Number of live snapshot pins.
    pub(crate) fn live_pins(&self) -> usize {
        self.pins.live_pins()
    }

    /// Refreshes the telemetry gauge cells (GC floor, live pins) after a
    /// block apply. Block granularity is all the windowed time-series
    /// layer samples at, so per-pin refreshes would be wasted stores.
    pub(crate) fn refresh_gauges(&self, counters: &StoreCounters) {
        counters.set_gc_floor(self.gc_floor());
        counters.set_live_pins(self.live_pins() as u64);
    }
}

/// The live value of each scanned key (read at `BlockNum::MAX`, the
/// newest fact).
pub(crate) fn newest_values(scan: Vec<(Key, SnapshotGet)>) -> Vec<(Key, VersionedValue)> {
    scan.into_iter().filter_map(|(k, g)| Some((k, g.at_height?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::CommitWrite;

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: i64) -> Value {
        Value::from_i64(n)
    }

    /// Installs `writes` as `block` into an LSM-style memtable map.
    fn install(map: &ChainMap, block: BlockNum, writes: &[CommitWrite]) -> Installed {
        let mut groups = ShardGroups::default();
        map.install(&mut groups, &WriteBatch::from_writes(block, writes), block.saturating_sub(1))
    }

    fn head(map: &ChainMap, key: &Key) -> Option<(Option<Value>, Version)> {
        map.read(key, |c| c.map(|c| (c[0].value.clone(), c[0].version)))
    }

    #[test]
    fn insert_and_get() {
        let map = ChainMap::new(8, true);
        install(&map, 0, &[CommitWrite::put(k("a"), v(1), 0)]);
        assert_eq!(head(&map, &k("a")), Some((Some(v(1)), Version::new(0, 0))));
        assert_eq!(head(&map, &k("b")), None);
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn newest_write_wins() {
        let map = ChainMap::new(8, true);
        install(&map, 0, &[CommitWrite::put(k("a"), v(1), 0)]);
        install(&map, 1, &[CommitWrite::put(k("a"), v(2), 0)]);
        assert_eq!(head(&map, &k("a")), Some((Some(v(2)), Version::new(1, 0))));
        assert_eq!(map.chain_len(&k("a")), 2);
        assert_eq!(map.len(), 1);
        let mut got = SnapshotGet::default();
        assert!(map.read(&k("a"), |c| resolve_chain(c.unwrap(), 0, &mut got)));
        assert_eq!(got.at_height, Some(VersionedValue::new(v(1), Version::new(0, 0))));
        assert_eq!(got.newest, Some((Version::new(1, 0), Some(v(2)))));
    }

    #[test]
    fn tombstone_is_distinct_from_absent() {
        // A map above older layers keeps a delete of a key it never held,
        // and keeps a dead tombstone at the head of its chain.
        let layered = ChainMap::new(8, true);
        install(&layered, 1, &[CommitWrite::delete(k("a"), 0)]);
        assert_eq!(head(&layered, &k("a")), Some((None, Version::new(1, 0))));
        layered.sweep(5);
        assert_eq!(head(&layered, &k("a")), Some((None, Version::new(1, 0))));
        assert_eq!(head(&layered, &k("never")), None);
        // The whole state drops both.
        let whole = ChainMap::new(8, false);
        install(&whole, 0, &[CommitWrite::put(k("b"), v(1), 0)]);
        install(&whole, 1, &[CommitWrite::delete(k("a"), 0), CommitWrite::delete(k("b"), 1)]);
        assert_eq!(head(&whole, &k("a")), None);
        assert_eq!(head(&whole, &k("b")), Some((None, Version::new(1, 1))));
        assert_eq!(whole.sweep(5), 2);
        assert_eq!(whole.len(), 0);
    }

    #[test]
    fn approx_bytes_tracks_replacements() {
        let map = ChainMap::new(8, true);
        let big = install(&map, 0, &[CommitWrite::put(k("a"), Value::new(vec![0u8; 100]), 0)]);
        assert_eq!((big.bytes_added, big.bytes_replaced), (1 + 100 + 24, 0));
        // A rewrite adds its key, value and 24 bytes and gives back the
        // replaced head's value and 24 bytes: the key stays counted twice.
        let small = install(&map, 1, &[CommitWrite::put(k("a"), Value::new(vec![0u8; 10]), 0)]);
        assert_eq!((small.bytes_added, small.bytes_replaced), (1 + 10 + 24, 100 + 24));
        // Two writes of one key in one block: the second replaces the first.
        let both = install(
            &map,
            2,
            &[CommitWrite::delete(k("b"), 0), CommitWrite::put(k("b"), v(7), 1)],
        );
        assert_eq!((both.bytes_added, both.bytes_replaced), ((1 + 24) + (1 + 8 + 24), 24));
    }
}
