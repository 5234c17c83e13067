//! Asserts the snapshot read path's allocation contract: once buffers and
//! version chains have warmed up, repeat pin → versioned-read → unpin
//! cycles on `MemStateDb` perform **zero heap allocations** (release
//! builds; debug builds get a small bound for the standard library's debug
//! machinery) — even with commits interleaved between the reads. The same
//! read cycle on an `LsmStateDb` whose keys all sit in its memtable (the
//! chain map `MemStateDb` is made of) is held to the same bound; there the
//! commits themselves (a WAL record each) stay outside the measured
//! windows.
//!
//! This is the property the lockless-endorsement design rests on: an
//! endorser resolving a declared read set at a pinned height touches the
//! pin registry (warm sorted vec), the per-shard grouping scratch (warm),
//! the caller's output buffers (warm), and clones refcounted values — and
//! nothing else. The commit side was already gated by `batched_alloc.rs`;
//! here the same gate covers `pin_snapshot`, `get_at`, `multi_get_at_into`,
//! and the `SnapshotView` classification layer on top.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use fabric_common::{Key, Value};
use fabric_statedb::{
    CommitWrite, LsmConfig, LsmStateDb, MemStateDb, SnapshotGet, SnapshotRead, SnapshotView,
    StateStore, WriteBatch,
};

struct CountingAlloc;

// Per-thread counter (const-initialized TLS never allocates, so it is safe
// to touch from inside the allocator): each test measures only its own
// thread, so the other tests of this binary and libtest's bookkeeping
// cannot leak allocations into a measured window.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn assert_steady_state(allocated: u64, what: &str) {
    if cfg!(debug_assertions) {
        assert!(allocated < 10_000, "{what}: {allocated} allocations in debug steady state");
    } else {
        assert_eq!(allocated, 0, "{what}: steady-state snapshot reads must not allocate");
    }
}

const KEYS: usize = 256;
const WARM_BLOCKS: usize = 6;
const MEASURED_BLOCKS: usize = 8;

/// Every block rewrites the whole key set, pre-built off the clock.
fn build_blocks(keys: &[Key]) -> Vec<Vec<CommitWrite>> {
    (0..1 + WARM_BLOCKS + MEASURED_BLOCKS)
        .map(|b| {
            keys.iter()
                .enumerate()
                .map(|(i, k)| {
                    CommitWrite::put(k.clone(), Value::from_i64((b * KEYS + i) as i64), i as u32)
                })
                .collect()
        })
        .collect()
}

#[test]
fn steady_state_pinned_reads_under_commits_do_not_allocate() {
    let db = MemStateDb::with_shards(16);
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::composite("K", i as u64)).collect();
    let blocks = build_blocks(&keys);

    // Genesis creates every hash-map slot (allowed to allocate freely).
    db.apply_block(0, &blocks[0]).unwrap();
    let batches: Vec<WriteBatch<'_>> = blocks[1..]
        .iter()
        .enumerate()
        .map(|(j, writes)| WriteBatch::from_writes((j + 1) as u64, writes))
        .collect();

    let mut out: Vec<SnapshotGet> = Vec::new();
    let cycle = |batch: &WriteBatch<'_>, out: &mut Vec<SnapshotGet>| {
        db.apply_write_batch(batch).unwrap();
        let snap = db.pin_snapshot();
        let h = snap.height();
        db.multi_get_at_into(&keys, h, out).unwrap();
        // Point reads on the same pinned height.
        for key in keys.iter().step_by(64) {
            let got = db.get_at(key, h).unwrap();
            assert!(got.at_height.is_some());
        }
        h
        // `snap` drops here: unpin through the warm registry.
    };

    for batch in &batches[..WARM_BLOCKS] {
        cycle(batch, &mut out);
    }

    let before = allocations();
    let mut last = 0;
    for batch in &batches[WARM_BLOCKS..] {
        last = cycle(batch, &mut out);
    }
    let allocated = allocations() - before;

    // Sanity: the loop really pinned the final block and read its values.
    assert_eq!(last, (WARM_BLOCKS + MEASURED_BLOCKS) as u64);
    assert_eq!(out.len(), KEYS);
    assert!(out.iter().all(|g| g.at_height.is_some()), "all keys live at the pinned height");
    let expected0 = ((WARM_BLOCKS + MEASURED_BLOCKS) * KEYS) as i64;
    assert_eq!(out[0].at_height.as_ref().unwrap().value.as_i64(), Some(expected0));
    assert_steady_state(allocated, "pin + versioned multi-get under commits");
}

#[test]
fn steady_state_snapshot_view_classification_does_not_allocate() {
    let db: Arc<MemStateDb> = Arc::new(MemStateDb::with_shards(16));
    let store: Arc<dyn StateStore> = db.clone();
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::composite("K", i as u64)).collect();
    let blocks = build_blocks(&keys);

    db.apply_block(0, &blocks[0]).unwrap();
    let batches: Vec<WriteBatch<'_>> = blocks[1..]
        .iter()
        .enumerate()
        .map(|(j, writes)| WriteBatch::from_writes((j + 1) as u64, writes))
        .collect();

    let mut scratch: Vec<SnapshotGet> = Vec::new();
    let mut reads: Vec<SnapshotRead> = Vec::new();
    // Each cycle pins a view, reads the set fresh, lets a commit land
    // *under* the live view, and reads again — so the classification layer
    // exercises both the `Fresh` and the `Stale` arms every iteration.
    let mut cycle = |batch: &WriteBatch<'_>| -> (usize, usize) {
        let view = SnapshotView::pin(Arc::clone(&store));
        view.read_many_into(&keys, &mut scratch, &mut reads).unwrap();
        let fresh = reads.iter().filter(|r| matches!(r, SnapshotRead::Fresh(_))).count();
        db.apply_write_batch(batch).unwrap();
        view.read_many_into(&keys, &mut scratch, &mut reads).unwrap();
        let stale = reads.iter().filter(|r| r.is_stale()).count();
        (fresh, stale)
        // `view` drops here, releasing the pin before the next commit.
    };

    for batch in &batches[..WARM_BLOCKS] {
        cycle(batch);
    }

    let before = allocations();
    let mut totals = (0, 0);
    for batch in &batches[WARM_BLOCKS..] {
        let (f, s) = cycle(batch);
        totals.0 += f;
        totals.1 += s;
    }
    let allocated = allocations() - before;

    // Sanity: every measured cycle saw the full key set fresh before the
    // commit and stale after it.
    assert_eq!(totals, (MEASURED_BLOCKS * KEYS, MEASURED_BLOCKS * KEYS));
    assert_eq!(db.last_committed_block(), (WARM_BLOCKS + MEASURED_BLOCKS) as u64);
    assert_steady_state(allocated, "snapshot-view classification under commits");
}

#[test]
fn steady_state_lsm_memtable_reads_do_not_allocate() {
    let dir = std::env::temp_dir().join(format!("fabric-snapalloc-lsm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The memtable never flushes: every read is answered by its chains.
    let cfg = LsmConfig { memtable_max_bytes: usize::MAX, ..LsmConfig::default() };
    let db = Arc::new(LsmStateDb::open(&dir, cfg).unwrap());
    let store: Arc<dyn StateStore> = db.clone();
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::composite("K", i as u64)).collect();
    let blocks = build_blocks(&keys);

    db.apply_block(0, &blocks[0]).unwrap();
    let batches: Vec<WriteBatch<'_>> = blocks[1..]
        .iter()
        .enumerate()
        .map(|(j, writes)| WriteBatch::from_writes((j + 1) as u64, writes))
        .collect();

    let mut out: Vec<SnapshotGet> = Vec::new();
    let mut reads: Vec<SnapshotRead> = Vec::new();
    // One cycle: commit (unmeasured); pin, batch-read and point-read at
    // the pinned height, classify through a view (measured); commit under
    // the live view (unmeasured); classify again and unpin (measured).
    // Returns (allocations, fresh reads, stale reads).
    let mut cycle = |batch: &WriteBatch<'_>, next: &WriteBatch<'_>| -> (u64, usize, usize) {
        db.apply_write_batch(batch).unwrap();
        let before = allocations();
        let snap = db.pin_snapshot();
        db.multi_get_at_into(&keys, snap.height(), &mut out).unwrap();
        assert!(out.iter().all(|g| g.at_height.is_some()));
        for key in keys.iter().step_by(64) {
            assert!(db.get_at(key, snap.height()).unwrap().at_height.is_some());
        }
        drop(snap);
        let view = SnapshotView::pin(Arc::clone(&store));
        view.read_many_into(&keys, &mut out, &mut reads).unwrap();
        let fresh = reads.iter().filter(|r| matches!(r, SnapshotRead::Fresh(_))).count();
        let mut allocated = allocations() - before;
        db.apply_write_batch(next).unwrap();
        let before = allocations();
        view.read_many_into(&keys, &mut out, &mut reads).unwrap();
        let stale = reads.iter().filter(|r| r.is_stale()).count();
        drop(view);
        allocated += allocations() - before;
        (allocated, fresh, stale)
    };

    let pairs: Vec<(&WriteBatch<'_>, &WriteBatch<'_>)> =
        batches.iter().step_by(2).zip(batches.iter().skip(1).step_by(2)).collect();
    let (warm, measured) = pairs.split_at(WARM_BLOCKS / 2);
    for (batch, next) in warm {
        cycle(batch, next);
    }
    let mut total = (0, 0, 0);
    for (batch, next) in measured {
        let (a, f, s) = cycle(batch, next);
        total = (total.0 + a, total.1 + f, total.2 + s);
    }

    assert_eq!(db.run_count(), 0, "every key stayed in the memtable");
    assert_eq!(db.last_committed_block(), (WARM_BLOCKS + MEASURED_BLOCKS) as u64);
    assert_eq!((total.1, total.2), (measured.len() * KEYS, measured.len() * KEYS));
    drop(db);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_steady_state(total.0, "LSM memtable pin + versioned reads + classification");
}
