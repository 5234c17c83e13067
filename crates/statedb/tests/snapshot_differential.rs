//! Differential property test for multi-version snapshot reads: both
//! engines against a naive full-copy oracle that clones the entire state
//! map after every block. Random interleavings of commits, snapshot pins,
//! reads-at-height, range scans, GC ticks, and (LSM) flushes must agree
//! with the oracle byte-for-byte at every *pinned* height — the trim rule
//! only guarantees exactness where a pin holds the history alive.

use std::collections::HashMap;
use std::sync::Arc;

use fabric_common::{Key, Value, Version};
use fabric_statedb::lsm::sstable::SsTableOptions;
use fabric_statedb::{
    CommitWrite, LsmConfig, LsmStateDb, MemStateDb, SnapshotGet, StateSnapshot, StateStore,
    VersionedValue,
};
use proptest::prelude::*;

const KEYS: u8 = 8;

fn key(id: u8) -> Key {
    Key::composite("k", (id % KEYS) as u64)
}

/// Per-block full copies of the state — the obviously-correct oracle the
/// multi-version read path must match.
#[derive(Default)]
struct Oracle {
    /// `snapshots[h]` is the complete state as of block `h`.
    snapshots: Vec<HashMap<Key, (Value, Version)>>,
    current: HashMap<Key, (Value, Version)>,
    /// Version of the newest fact per key, tombstones included — what
    /// the engines' staleness classification is measured against.
    latest: HashMap<Key, Version>,
}

impl Oracle {
    fn apply(&mut self, block: u64, writes: &[CommitWrite]) {
        for (slot, w) in writes.iter().enumerate() {
            let ver = Version::new(block, slot as u32);
            self.latest.insert(w.key.clone(), ver);
            match &w.value {
                Some(v) => {
                    self.current.insert(w.key.clone(), (v.clone(), ver));
                }
                None => {
                    self.current.remove(&w.key);
                }
            }
        }
        assert_eq!(self.snapshots.len() as u64, block);
        self.snapshots.push(self.current.clone());
    }

    /// What a snapshot read of `key` at height `h` must produce.
    fn expect(&self, key: &Key, h: u64) -> SnapshotGet {
        let at_height = self.snapshots[h as usize]
            .get(key)
            .map(|(v, ver)| VersionedValue::new(v.clone(), *ver));
        // `newest` is checked via classification only (see
        // `expect_stale`): an engine may legitimately forget a tombstone
        // older than every pin, and that never changes classification.
        SnapshotGet { at_height, newest: None }
    }

    /// Whether a read of `key` at height `h` must classify as stale:
    /// some fact newer than `h` exists, *except* the absent→absent case
    /// (created and deleted entirely after the snapshot, or a tombstone
    /// for a key that never lived), which classifies as Absent — exactly
    /// the [`fabric_statedb::SnapshotView`] classification validation
    /// relies on. Raw newest-fact knowledge may differ between engines
    /// here (a no-op delete leaves no chain in memory but a tombstone in
    /// the LSM memtable), so the comparison is at this semantic level.
    fn expect_stale(&self, key: &Key, h: u64) -> bool {
        let newer = self.latest.get(key).is_some_and(|v| v.block > h);
        let absent_both =
            !self.snapshots[h as usize].contains_key(key) && !self.current.contains_key(key);
        newer && !absent_both
    }

    fn expect_scan(&self, h: u64) -> Vec<(Key, VersionedValue)> {
        let mut out: Vec<(Key, VersionedValue)> = self.snapshots[h as usize]
            .iter()
            .map(|(k, (v, ver))| (k.clone(), VersionedValue::new(v.clone(), *ver)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Commit one block of (key, value-or-delete) writes.
    Commit(Vec<(u8, Option<i64>)>),
    /// Pin a snapshot at the current watermark.
    Pin,
    /// Drop pin `i % live` (no-op when none are live).
    Unpin(u8),
    /// Point-read every key at pin `i % live` and compare to the oracle.
    ReadAt(u8),
    /// Batched read of the whole key pool at pin `i % live`.
    ReadMany(u8),
    /// Range-scan at pin `i % live`.
    ScanAt(u8),
    /// A garbage-collection tick on both engines.
    Gc,
    /// Force an LSM memtable flush (memory engine: no-op).
    Flush,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => proptest::collection::vec(
            (any::<u8>(), proptest::option::of(-100i64..100)),
            0..6,
        )
        .prop_map(Step::Commit),
        2 => Just(Step::Pin),
        1 => any::<u8>().prop_map(Step::Unpin),
        3 => any::<u8>().prop_map(Step::ReadAt),
        2 => any::<u8>().prop_map(Step::ReadMany),
        2 => any::<u8>().prop_map(Step::ScanAt),
        1 => Just(Step::Gc),
        1 => Just(Step::Flush),
    ]
}

fn check_read(
    engine: &str,
    got: &SnapshotGet,
    oracle: &Oracle,
    k: &Key,
    h: u64,
) -> std::result::Result<(), TestCaseError> {
    let want = oracle.expect(k, h);
    prop_assert_eq!(
        &got.at_height,
        &want.at_height,
        "{} key {} at height {}",
        engine,
        k,
        h
    );
    // Classified staleness, as `SnapshotView::classify` resolves it: a
    // newer fact exists and the read is not absent-both-ways.
    let classified_stale = got
        .newest
        .as_ref()
        .is_some_and(|(v, val)| v.block > h && !(got.at_height.is_none() && val.is_none()));
    prop_assert_eq!(
        classified_stale,
        oracle.expect_stale(k, h),
        "{} key {} staleness at height {}",
        engine,
        k,
        h
    );
    Ok(())
}

fn tiny_cfg(retained: usize) -> LsmConfig {
    LsmConfig {
        memtable_max_bytes: 256, // flush constantly
        compaction_threshold: 2, // compact constantly
        retained_versions: retained,
        sstable: SsTableOptions { index_interval: 4, bloom_bits_per_key: 8 },
        ..LsmConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
    #[test]
    fn snapshot_reads_match_full_copy_oracle(
        steps in proptest::collection::vec(step_strategy(), 1..50),
        retained in 1usize..5,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "fabric-snapdiff-{}-{:x}",
            std::process::id(),
            suffix(&steps, retained),
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let mem = MemStateDb::with_retained_versions(retained);
        let lsm = LsmStateDb::open(&dir, tiny_cfg(retained)).unwrap();
        let mut oracle = Oracle::default();
        // Block 0 exists on every path: `last_committed_block` reports 0
        // both before and after it, so pinning is only meaningful once it
        // is in — commit it up front.
        let genesis: Vec<CommitWrite> =
            (0..KEYS).map(|i| CommitWrite::put(key(i), Value::from_i64(i as i64), i as u32)).collect();
        mem.apply_block(0, &genesis).unwrap();
        lsm.apply_block(0, &genesis).unwrap();
        oracle.apply(0, &genesis);
        let mut next_block = 1u64;

        // Live pins, kept pairwise (same height on both engines).
        let mut pins: Vec<(StateSnapshot, StateSnapshot)> = Vec::new();

        for step in &steps {
            match step {
                Step::Commit(ops) => {
                    let writes: Vec<CommitWrite> = ops
                        .iter()
                        .enumerate()
                        .map(|(tx, (id, val))| CommitWrite {
                            key: key(*id),
                            value: val.map(Value::from_i64),
                            tx: tx as u32,
                        })
                        .collect();
                    mem.apply_block(next_block, &writes).unwrap();
                    lsm.apply_block(next_block, &writes).unwrap();
                    oracle.apply(next_block, &writes);
                    next_block += 1;
                }
                Step::Pin => {
                    let pm = mem.pin_snapshot();
                    let pl = lsm.pin_snapshot();
                    prop_assert_eq!(pm.height(), next_block - 1);
                    prop_assert_eq!(pl.height(), next_block - 1);
                    pins.push((pm, pl));
                }
                Step::Unpin(i) => {
                    if !pins.is_empty() {
                        pins.remove(*i as usize % pins.len());
                    }
                }
                Step::ReadAt(i) => {
                    if let Some((pm, pl)) = pick(&pins, *i) {
                        let h = pm.height();
                        for id in 0..KEYS {
                            let k = key(id);
                            check_read("mem", &mem.get_at(&k, h).unwrap(), &oracle, &k, h)?;
                            prop_assert_eq!(pl.height(), h);
                            check_read("lsm", &lsm.get_at(&k, h).unwrap(), &oracle, &k, h)?;
                        }
                    }
                }
                Step::ReadMany(i) => {
                    if let Some((pm, _)) = pick(&pins, *i) {
                        let h = pm.height();
                        let keys: Vec<Key> = (0..KEYS).map(key).collect();
                        let mut mem_out = Vec::new();
                        let mut lsm_out = Vec::new();
                        mem.multi_get_at_into(&keys, h, &mut mem_out).unwrap();
                        lsm.multi_get_at_into(&keys, h, &mut lsm_out).unwrap();
                        for (k, (m, l)) in keys.iter().zip(mem_out.iter().zip(&lsm_out)) {
                            check_read("mem(batch)", m, &oracle, k, h)?;
                            check_read("lsm(batch)", l, &oracle, k, h)?;
                        }
                    }
                }
                Step::ScanAt(i) => {
                    if let Some((pm, _)) = pick(&pins, *i) {
                        let h = pm.height();
                        let lo = key(0);
                        let hi = Key::composite("k", KEYS as u64 + 1);
                        let want = oracle.expect_scan(h);
                        for (engine, got) in [
                            ("mem", mem.scan_range_at(&lo, &hi, h).unwrap()),
                            ("lsm", lsm.scan_range_at(&lo, &hi, h).unwrap()),
                        ] {
                            let got: Vec<(Key, VersionedValue)> = got
                                .into_iter()
                                .map(|(k, g)| (k, g.at_height.expect("scan returns live keys")))
                                .collect();
                            prop_assert_eq!(&got, &want, "{} scan at height {}", engine, h);
                        }
                    }
                }
                Step::Gc => {
                    mem.collect_garbage().unwrap();
                    lsm.collect_garbage().unwrap();
                }
                Step::Flush => lsm.force_flush().unwrap(),
            }
        }

        drop(pins);
        drop(lsm);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn pick(pins: &[(StateSnapshot, StateSnapshot)], i: u8) -> Option<&(StateSnapshot, StateSnapshot)> {
    if pins.is_empty() {
        None
    } else {
        Some(&pins[i as usize % pins.len()])
    }
}

/// Stable per-case directory suffix derived from the inputs.
fn suffix(steps: &[Step], retained: usize) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325 ^ retained as u64;
    for s in steps {
        let b = match s {
            Step::Commit(ops) => 1 + ops.len() as u64,
            Step::Pin => 101,
            Step::Unpin(i) => 211 + *i as u64,
            Step::ReadAt(i) => 307 + *i as u64,
            Step::ReadMany(i) => 401 + *i as u64,
            Step::ScanAt(i) => 503 + *i as u64,
            Step::Gc => 601,
            Step::Flush => 701,
        };
        h ^= b;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// GC pressure: a hot key rewritten every block, in three phases.
/// Unpinned, chains stay at the retention budget; with a live pin, facts
/// *below* the oldest pin are trimmed while the pinned height stays
/// exactly readable (facts above the floor are retained — the cost of an
/// old snapshot scales with commits since the pin, as in any MVCC
/// system); after the pin drops, a sweep reclaims the pinned-era history.
#[test]
fn gc_trims_to_oldest_live_pin_and_never_collects_it() {
    let dir = std::env::temp_dir()
        .join(format!("fabric-snapdiff-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let retained = 2;
    let mem = MemStateDb::with_retained_versions(retained);
    let lsm = LsmStateDb::open(&dir, tiny_cfg(retained)).unwrap();
    let hot = key(0);

    // Phase 1 — no pins: blocks 0..=50, chains hold the budget only.
    for b in 0..=50u64 {
        let writes = [CommitWrite::put(hot.clone(), Value::from_i64(b as i64), 0)];
        mem.apply_block(b, &writes).unwrap();
        lsm.apply_block(b, &writes).unwrap();
    }
    assert!(
        mem.version_chain_len(&hot) <= retained + 1,
        "unpinned mem chain blew the budget: {}",
        mem.version_chain_len(&hot)
    );
    assert!(
        lsm.version_chain_len(&hot) <= retained + 1,
        "unpinned lsm chain blew the budget: {}",
        lsm.version_chain_len(&hot)
    );

    // Phase 2 — pin at 50, then 50 more commits.
    let pin_mem = mem.pin_snapshot();
    let pin_lsm = lsm.pin_snapshot();
    assert_eq!(pin_mem.height(), 50);
    for b in 51..=100u64 {
        let writes = [CommitWrite::put(hot.clone(), Value::from_i64(b as i64), 0)];
        mem.apply_block(b, &writes).unwrap();
        lsm.apply_block(b, &writes).unwrap();

        // The pinned height stays exact on both engines...
        for (engine, got) in
            [("mem", mem.get_at(&hot, 50).unwrap()), ("lsm", lsm.get_at(&hot, 50).unwrap())]
        {
            let vv = got.at_height.unwrap_or_else(|| panic!("{engine}: pinned read lost"));
            assert_eq!(vv.value.as_i64(), Some(50), "{engine} at block {b}");
            assert_eq!(vv.version, Version::new(50, 0), "{engine} at block {b}");
        }
        // ...and the chain holds the facts the pin can still see plus a
        // trimmed tail below the floor — never the phase-1 history.
        let commits_since_pin = (b - 50) as usize;
        assert!(
            mem.version_chain_len(&hot) <= commits_since_pin + retained,
            "mem chain kept pre-pin history: {} at block {b}",
            mem.version_chain_len(&hot)
        );
        assert!(
            lsm.version_chain_len(&hot) <= commits_since_pin + retained,
            "lsm chain kept pre-pin history: {} at block {b}",
            lsm.version_chain_len(&hot)
        );
    }

    // Phase 3 — releasing the pins lets a sweep reclaim the history.
    drop(pin_mem);
    drop(pin_lsm);
    assert_eq!(mem.live_pins(), 0);
    assert_eq!(lsm.live_pins(), 0);
    mem.collect_garbage().unwrap();
    lsm.collect_garbage().unwrap();
    assert!(mem.version_chain_len(&hot) <= retained);
    assert!(lsm.version_chain_len(&hot) <= retained);
    // The current value is untouched by GC.
    assert_eq!(mem.get(&hot).unwrap().unwrap().value.as_i64(), Some(100));
    assert_eq!(lsm.get(&hot).unwrap().unwrap().value.as_i64(), Some(100));

    drop(lsm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The commit-concurrency contract, end to end: a committer thread slams
/// blocks while a reader pins snapshots and reads at height. Reads never
/// take the commit ticket, never observe torn mid-block state, and every
/// batch read is internally consistent with its pinned height.
#[test]
fn snapshot_reads_are_lockless_and_untorn_under_concurrent_commits() {
    let db = Arc::new(MemStateDb::with_retained_versions(4));
    // Two keys whose sum is invariant under every block (a transfer).
    let a = key(0);
    let b = key(1);
    db.apply_block(
        0,
        &[
            CommitWrite::put(a.clone(), Value::from_i64(500), 0),
            CommitWrite::put(b.clone(), Value::from_i64(500), 1),
        ],
    )
    .unwrap();

    let before = db.counters().snapshot();
    let committer = {
        let db = Arc::clone(&db);
        let (a, b) = (a.clone(), b.clone());
        std::thread::spawn(move || {
            for blk in 1..=400u64 {
                let amt = (blk % 50) as i64;
                db.apply_block(
                    blk,
                    &[
                        CommitWrite::put(a.clone(), Value::from_i64(500 - amt), 0),
                        CommitWrite::put(b.clone(), Value::from_i64(500 + amt), 1),
                    ],
                )
                .unwrap();
            }
        })
    };

    let keys = [a.clone(), b.clone()];
    let mut out = Vec::new();
    for _ in 0..2_000 {
        let snap = db.pin_snapshot();
        let h = snap.height();
        db.multi_get_at_into(&keys, h, &mut out).unwrap();
        let bal_a = out[0].at_height.as_ref().expect("key a live").value.as_i64().unwrap();
        let bal_b = out[1].at_height.as_ref().expect("key b live").value.as_i64().unwrap();
        assert_eq!(bal_a + bal_b, 1000, "torn read at height {h}");
        assert!(out[0].at_height.as_ref().unwrap().version.block <= h);
        assert!(out[1].at_height.as_ref().unwrap().version.block <= h);
    }
    committer.join().unwrap();

    let delta = db.counters().snapshot().since(&before);
    assert_eq!(
        delta.commit_ticket_acquisitions, 400,
        "snapshot reads took the commit ticket (only the 400 commits may)"
    );
    assert_eq!(delta.snapshot_pins, 2_000);
    assert_eq!(delta.snapshot_read_batches, 2_000);
}
