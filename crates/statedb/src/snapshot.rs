//! Simulation snapshots and the Fabric++ stale-read check.
//!
//! "At the start of the simulation phase, we first identify the block-ID of
//! the last block that made it into the ledger. [...] During the simulation
//! [...] no read must encounter a version-number containing a block-ID
//! higher than the last-block-ID" (paper §5.2.1, Figure 6).
//!
//! [`SnapshotView`] pins that last-block-ID at construction — through
//! [`StateStore::pin_snapshot`], so the engine's epoch GC keeps the height
//! resolvable — and serves every read *at* that height from the engine's
//! version chains: a simulation sees one consistent point-in-time state no
//! matter how many blocks commit underneath it, and never takes the commit
//! ticket to do so (Meir et al., "Lockless Transaction Isolation in
//! Hyperledger Fabric"). Each read still classifies against the newest
//! committed version: a version from a later block means a concurrent
//! validation phase already overwrote the value, the read set is doomed,
//! and the simulation can abort immediately instead of discovering the
//! conflict at validation time.

use std::sync::Arc;

use fabric_common::{BlockNum, Key, Result, Value, Version};

use crate::pin::StateSnapshot;
use crate::store::{SnapshotGet, StateStore, VersionedValue};

/// A stale snapshot read: the key's newest committed version postdates the
/// pinned block. Carries both the consistent at-height view (what the
/// snapshot serves) and the newest fact (what invalidated it), so callers
/// choose their poison: Fabric++ mode aborts on `newest_version`, vanilla
/// mode reads `at_height` and lets MVCC validation kill the transaction
/// later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaleInfo {
    /// The value as of the pinned height (`None`: the key did not exist
    /// at the snapshot — it was created by a later block).
    pub at_height: Option<VersionedValue>,
    /// The newest committed value (`None`: the newest write is a delete).
    pub newest_value: Option<Value>,
    /// The version of the newest committed write — the observation the
    /// Fabric++ early abort reports.
    pub newest_version: Version,
}

/// Outcome of a snapshot read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotRead {
    /// The key is absent at the snapshot and no concurrent commit
    /// interfered (a key created *and* deleted after the snapshot also
    /// classifies absent: validation would compare absent to absent).
    Absent,
    /// The value is visible and consistent with the snapshot: no commit
    /// past the pinned block has touched the key.
    Fresh(VersionedValue),
    /// A commit past the pinned block overwrote, created, or deleted the
    /// key: the simulation is operating on stale data (Fabric++ early
    /// abort), though the at-height view inside stays consistent.
    Stale(StaleInfo),
}

impl SnapshotRead {
    /// Whether this read invalidates the snapshot.
    pub fn is_stale(&self) -> bool {
        matches!(self, SnapshotRead::Stale(_))
    }
}

/// A read view over a [`StateStore`] pinned to the last committed block at
/// construction time. Dropping the view releases the pin.
#[derive(Clone)]
pub struct SnapshotView {
    store: Arc<dyn StateStore>,
    snapshot: StateSnapshot,
}

impl SnapshotView {
    /// Pins a snapshot at the store's current last committed block; the
    /// engine registers the pin so GC retains the height.
    pub fn pin(store: Arc<dyn StateStore>) -> Self {
        let snapshot = store.pin_snapshot();
        SnapshotView { store, snapshot }
    }

    /// Pins a snapshot at an explicit block. A block below the store's GC
    /// floor reads as [`StateStore::pin_snapshot_at`] says: a key not
    /// rewritten since `last_block` reads exactly; a key rewritten after it
    /// classifies as [`SnapshotRead::Stale`], unless the rewrite was a
    /// delete and its facts at `last_block` are gone; that key, and a
    /// deleted key whose tombstone chain has died, classify as
    /// [`SnapshotRead::Absent`].
    pub fn pin_at(store: Arc<dyn StateStore>, last_block: BlockNum) -> Self {
        let snapshot = store.pin_snapshot_at(last_block);
        SnapshotView { store, snapshot }
    }

    /// The pinned last-block-ID.
    pub fn last_block(&self) -> BlockNum {
        self.snapshot.height()
    }

    /// Classifies one engine read against the pinned block (see
    /// [`SnapshotRead`]). Pure bookkeeping on an already-resolved
    /// [`SnapshotGet`] — no store round trip.
    pub fn classify(&self, got: SnapshotGet) -> SnapshotRead {
        let h = self.snapshot.height();
        match got.newest {
            None => SnapshotRead::Absent,
            Some((ver, _)) if ver.block <= h => match got.at_height {
                Some(vv) => SnapshotRead::Fresh(vv),
                // Newest visible fact is a tombstone: absent at the height.
                None => SnapshotRead::Absent,
            },
            Some((ver, newest_value)) => {
                if got.at_height.is_none() && newest_value.is_none() {
                    // Created and deleted entirely after the snapshot: the
                    // snapshot and a validation-time read agree on absent.
                    SnapshotRead::Absent
                } else {
                    SnapshotRead::Stale(StaleInfo {
                        at_height: got.at_height,
                        newest_value,
                        newest_version: ver,
                    })
                }
            }
        }
    }

    /// Reads `key` at the pinned height, classifying the result.
    pub fn read(&self, key: &Key) -> Result<SnapshotRead> {
        let got = self.store.get_at(key, self.snapshot.height())?;
        Ok(self.classify(got))
    }

    /// Batched point reads: resolves every key of a declared read set at
    /// the pinned height in one engine round trip (one lock per touched
    /// shard / one probe pass per run — mirroring
    /// [`StateStore::multi_get_versions`]), classified in input order.
    pub fn read_many(&self, keys: &[Key]) -> Result<Vec<SnapshotRead>> {
        let mut scratch = Vec::with_capacity(keys.len());
        let mut out = Vec::with_capacity(keys.len());
        self.read_many_into(keys, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-free form of [`SnapshotView::read_many`]: `scratch`
    /// holds the raw engine results, `out` the classified reads; both are
    /// cleared and refilled, reusing their capacity.
    pub fn read_many_into(
        &self,
        keys: &[Key],
        scratch: &mut Vec<SnapshotGet>,
        out: &mut Vec<SnapshotRead>,
    ) -> Result<()> {
        self.store.multi_get_at_into(keys, self.snapshot.height(), scratch)?;
        out.clear();
        out.extend(scratch.drain(..).map(|got| self.classify(got)));
        Ok(())
    }

    /// Batched version read: the current version of every key in `keys`,
    /// in input order (`None` = absent) — one
    /// [`StateStore::multi_get_versions`] round trip.
    pub fn read_versions(&self, keys: &[Key]) -> Result<Vec<Option<Version>>> {
        self.store.multi_get_versions(keys)
    }

    /// Whether any of `keys` currently carries a version from a block newer
    /// than the snapshot — the batched form of the Fabric++ early-abort
    /// check, resolved in a single multi-get.
    pub fn any_stale(&self, keys: &[Key]) -> Result<bool> {
        Ok(self
            .store
            .multi_get_versions(keys)?
            .iter()
            .any(|v| v.is_some_and(|v| v.block > self.snapshot.height())))
    }

    /// Range scan over `[start, end)` **at the pinned height** (Fabric's
    /// `GetStateByRange`): returns exactly the keys live at the snapshot,
    /// so a scan racing a commit never mixes pre- and post-block entries.
    /// Every entry arrives with its newest version from the same engine
    /// pass, so staleness classification is a single batched sweep over
    /// the results — no per-entry store round trips.
    pub fn read_range(&self, start: &Key, end: &Key) -> Result<Vec<(Key, SnapshotRead)>> {
        Ok(self
            .store
            .scan_range_at(start, end, self.snapshot.height())?
            .into_iter()
            .map(|(k, got)| (k, self.classify(got)))
            .collect())
    }
}

impl std::fmt::Debug for SnapshotView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SnapshotView(last_block={})", self.snapshot.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memdb::MemStateDb;
    use crate::store::CommitWrite;
    use fabric_common::{Value, Version};

    fn k(s: &str) -> Key {
        Key::from(s)
    }
    fn v(n: i64) -> Value {
        Value::from_i64(n)
    }

    fn setup() -> Arc<MemStateDb> {
        Arc::new(MemStateDb::with_genesis([(k("balA"), v(70)), (k("balB"), v(80))]))
    }

    #[test]
    fn fresh_read_within_snapshot() {
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        assert_eq!(snap.last_block(), 0);
        match snap.read(&k("balA")).unwrap() {
            SnapshotRead::Fresh(vv) => {
                assert_eq!(vv.value, v(70));
                assert_eq!(vv.version, Version::GENESIS);
            }
            other => panic!("expected Fresh, got {other:?}"),
        }
    }

    #[test]
    fn absent_key() {
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        assert_eq!(snap.read(&k("ghost")).unwrap(), SnapshotRead::Absent);
    }

    #[test]
    fn paper_figure_6_scenario() {
        // Simulation pins last-block-ID = 4 (here: 0). A validation phase
        // commits block 1 updating balB. The simulation's later read of
        // balB must classify as stale; its earlier-read balA (untouched)
        // stays fresh.
        let db = setup();
        let snap = SnapshotView::pin(db.clone());

        // read balA=70, version block 0 → fresh
        assert!(!snap.read(&k("balA")).unwrap().is_stale());

        // Concurrent commit of block 1 updates balB to 100.
        db.apply_block(1, &[CommitWrite::put(k("balB"), v(100), 0)]).unwrap();

        // read balB → newest version block 1 > pinned 0 → stale → early
        // abort; the snapshot's own consistent view (80 at height 0) rides
        // along for vanilla-mode consumers.
        let r = snap.read(&k("balB")).unwrap();
        assert!(r.is_stale());
        match r {
            SnapshotRead::Stale(info) => {
                assert_eq!(info.newest_value, Some(v(100)));
                assert_eq!(info.newest_version, Version::new(1, 0));
                assert_eq!(info.at_height.unwrap().value, v(80));
            }
            _ => unreachable!(),
        }

        // balA was not touched by block 1 → still fresh under the snapshot.
        assert!(!snap.read(&k("balA")).unwrap().is_stale());
    }

    #[test]
    fn snapshot_pinned_after_commit_sees_new_state_as_fresh() {
        let db = setup();
        db.apply_block(1, &[CommitWrite::put(k("balA"), v(50), 0)]).unwrap();
        let snap = SnapshotView::pin(db.clone());
        assert_eq!(snap.last_block(), 1);
        match snap.read(&k("balA")).unwrap() {
            SnapshotRead::Fresh(vv) => assert_eq!(vv.value, v(50)),
            other => panic!("expected Fresh, got {other:?}"),
        }
    }

    #[test]
    fn pin_at_explicit_block() {
        let db = setup();
        db.apply_block(1, &[CommitWrite::put(k("balA"), v(50), 0)]).unwrap();
        // A snapshot artificially pinned *before* block 1 sees the new
        // value as stale — and still serves the height-0 value.
        let snap = SnapshotView::pin_at(db.clone(), 0);
        match snap.read(&k("balA")).unwrap() {
            SnapshotRead::Stale(info) => assert_eq!(info.at_height.unwrap().value, v(70)),
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn key_created_after_snapshot_is_stale_not_fresh() {
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        db.apply_block(1, &[CommitWrite::put(k("new"), v(1), 0)]).unwrap();
        // A newly created key carries block 1 > pinned 0: stale, with no
        // at-height value (it did not exist at the snapshot).
        match snap.read(&k("new")).unwrap() {
            SnapshotRead::Stale(info) => {
                assert_eq!(info.at_height, None);
                assert_eq!(info.newest_value, Some(v(1)));
            }
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn key_deleted_after_snapshot_is_stale_with_at_height_value() {
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        db.apply_block(1, &[CommitWrite::delete(k("balB"), 0)]).unwrap();
        match snap.read(&k("balB")).unwrap() {
            SnapshotRead::Stale(info) => {
                assert_eq!(info.at_height.unwrap().value, v(80));
                assert_eq!(info.newest_value, None);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_serves_consistent_values_under_commits() {
        // The lockless-endorsement property: the pinned view keeps serving
        // height-0 state no matter how many blocks land after it.
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        for b in 1..6u64 {
            db.apply_block(b, &[CommitWrite::put(k("balA"), v(b as i64), 0)]).unwrap();
        }
        match snap.read(&k("balA")).unwrap() {
            SnapshotRead::Stale(info) => {
                assert_eq!(info.at_height.unwrap().value, v(70));
                assert_eq!(info.newest_value, Some(v(5)));
            }
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn read_many_matches_point_reads_in_input_order() {
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        db.apply_block(1, &[CommitWrite::put(k("balB"), v(100), 0)]).unwrap();
        let keys = [k("balB"), k("ghost"), k("balA")];
        let batched = snap.read_many(&keys).unwrap();
        assert_eq!(batched.len(), 3);
        for (key, got) in keys.iter().zip(&batched) {
            assert_eq!(got, &snap.read(key).unwrap());
        }
        assert!(batched[0].is_stale());
        assert_eq!(batched[1], SnapshotRead::Absent);
        assert!(matches!(&batched[2], SnapshotRead::Fresh(vv) if vv.value == v(70)));
    }

    #[test]
    fn read_versions_returns_input_order_with_absent_as_none() {
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        let keys = [k("balB"), k("ghost"), k("balA")];
        let versions = snap.read_versions(&keys).unwrap();
        assert_eq!(versions, vec![Some(Version::GENESIS), None, Some(Version::GENESIS)]);
    }

    #[test]
    fn any_stale_detects_concurrent_commit_in_one_batch() {
        let db = setup();
        let snap = SnapshotView::pin(db.clone());
        let keys = [k("balA"), k("balB"), k("ghost")];
        assert!(!snap.any_stale(&keys).unwrap());

        db.apply_block(1, &[CommitWrite::put(k("balB"), v(100), 0)]).unwrap();
        assert!(snap.any_stale(&keys).unwrap(), "balB now carries block 1 > pinned 0");
        // A batch avoiding the overwritten key stays clean.
        assert!(!snap.any_stale(&[k("balA"), k("ghost")]).unwrap());
    }

    #[test]
    fn read_range_scans_at_height() {
        let db = Arc::new(MemStateDb::with_genesis([(k("r:1"), v(1)), (k("r:2"), v(2))]));
        let snap = SnapshotView::pin(db.clone());
        // Concurrent block: deletes r:1, rewrites r:2, creates r:3.
        db.apply_block(
            1,
            &[
                CommitWrite::delete(k("r:1"), 0),
                CommitWrite::put(k("r:2"), v(20), 1),
                CommitWrite::put(k("r:3"), v(3), 2),
            ],
        )
        .unwrap();
        let got = snap.read_range(&k("r:"), &k("r:~")).unwrap();
        // Exactly the height-0 keys, every post-block touch flagged stale.
        let names: Vec<String> = got.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(names, ["r:1", "r:2"]);
        for (_, read) in &got {
            assert!(read.is_stale());
        }
        match &got[0].1 {
            SnapshotRead::Stale(info) => {
                assert_eq!(info.at_height.as_ref().unwrap().value, v(1));
                assert_eq!(info.newest_value, None);
            }
            other => panic!("expected Stale, got {other:?}"),
        }
    }
}
