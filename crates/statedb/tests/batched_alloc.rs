//! Asserts the batched hot path's allocation contract: once the store's
//! shard-grouping scratch and the caller's output buffers have warmed up,
//! repeat `apply_write_batch` + `multi_get_versions_into` cycles on
//! `MemStateDb` perform **zero heap allocations** (release builds; debug
//! builds get a small bound for the standard library's debug machinery).
//!
//! The measured blocks rewrite a fixed key set, the way a hot working set
//! looks to a warm store: hash-map slots already exist, keys and values are
//! refcounted buffers, and the per-shard index groups retain their
//! capacity. Blocks stay below the engine's parallel-apply threshold —
//! spawning scoped threads allocates by design, so the sequential path is
//! the one held to zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fabric_common::{Key, Value, Version};
use fabric_statedb::{CommitWrite, MemStateDb, StateStore, WriteBatch};

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
        assert_eq!(allocated, 0, "{what}: steady-state batched loop must not allocate");
    }
}

const KEYS: usize = 512;
const WARM_BLOCKS: usize = 4;
const MEASURED_BLOCKS: usize = 8;

#[test]
fn steady_state_batched_commit_and_prefetch_do_not_allocate() {
    let db = MemStateDb::with_shards(16);
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::composite("K", i as u64)).collect();

    // Storage for every block's writes, built before measuring. Each block
    // rewrites the whole key set with fresh values.
    let blocks: Vec<Vec<CommitWrite>> = (0..1 + WARM_BLOCKS + MEASURED_BLOCKS)
        .map(|b| {
            keys.iter()
                .enumerate()
                .map(|(i, k)| {
                    CommitWrite::put(
                        k.clone(),
                        Value::from_i64((b * KEYS + i) as i64),
                        i as u32,
                    )
                })
                .collect()
        })
        .collect();

    // Genesis creates every hash-map slot (allowed to allocate freely).
    db.apply_block(0, &blocks[0]).unwrap();

    // Pre-assemble the batches so batch construction is off the clock too.
    let batches: Vec<WriteBatch<'_>> = blocks[1..]
        .iter()
        .enumerate()
        .map(|(j, writes)| WriteBatch::from_writes((j + 1) as u64, writes))
        .collect();

    let mut fetched: Vec<Option<Version>> = Vec::new();
    for batch in &batches[..WARM_BLOCKS] {
        db.apply_write_batch(batch).unwrap();
        db.multi_get_versions_into(&keys, &mut fetched).unwrap();
    }

    let before = allocations();
    for batch in &batches[WARM_BLOCKS..] {
        db.apply_write_batch(batch).unwrap();
        db.multi_get_versions_into(&keys, &mut fetched).unwrap();
    }
    let allocated = allocations() - before;

    // Sanity: the loop really ran and really committed.
    assert_eq!(db.last_committed_block(), (WARM_BLOCKS + MEASURED_BLOCKS) as u64);
    assert_eq!(fetched.len(), KEYS);
    assert!(fetched.iter().all(|v| v.is_some()), "all keys live after rewrites");
    assert_steady_state(allocated, "batched commit + prefetch");
}

#[test]
fn steady_state_multi_get_with_absent_keys_does_not_allocate() {
    // Absent keys exercise the `None` fill path; they must not cost
    // allocations either.
    let db = MemStateDb::with_shards(8);
    let live: Vec<CommitWrite> = (0..64)
        .map(|i| CommitWrite::put(Key::composite("live", i), Value::from_i64(i as i64), 0))
        .collect();
    db.apply_block(0, &live).unwrap();

    let probes: Vec<Key> = (0..128)
        .map(|i| {
            if i % 2 == 0 {
                Key::composite("live", i / 2)
            } else {
                Key::composite("ghost", i)
            }
        })
        .collect();

    let mut fetched: Vec<Option<Version>> = Vec::new();
    for _ in 0..4 {
        db.multi_get_versions_into(&probes, &mut fetched).unwrap();
    }
    let before = allocations();
    for _ in 0..8 {
        db.multi_get_versions_into(&probes, &mut fetched).unwrap();
    }
    let allocated = allocations() - before;

    assert_eq!(fetched.iter().filter(|v| v.is_some()).count(), 64);
    assert_eq!(fetched.iter().filter(|v| v.is_none()).count(), 64);
    assert_steady_state(allocated, "multi-get with absent keys");
}
