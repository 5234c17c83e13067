//! Asserts the residency contract of the version chains: with no live
//! pin, a key's chain holds its newest fact and the fact at the GC floor,
//! in two slots, however often the key is rewritten. Pins alone decide
//! what a chain keeps, so nothing else may.
//!
//! `KEYS` keys are committed as genesis, each into a one-slot chain, then
//! all of them are rewritten in each of `BLOCKS` blocks. The heap this
//! thread holds afterwards, less what it held after genesis, is what the
//! chains grew by. With the genesis slots, the chains' heap must stay
//! within `KEYS × 2` chain entries. The count is of requested layout
//! sizes, so the allocator's per-chunk overhead is not in it and the
//! bound needs no allowance for it. Both engines are held to it: the
//! in-memory store, and an LSM store whose memtable (the same chain map)
//! never flushes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use fabric_common::{Key, Value, Version};
use fabric_statedb::{CommitWrite, LsmConfig, LsmStateDb, MemStateDb, StateStore};

struct CountingAlloc;

// Live bytes per thread (const-initialized TLS never allocates, so it is
// safe to touch from inside the allocator): the other test of this binary
// cannot move the count.
thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(bytes: i64) {
    LIVE.with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Layout twin of one chain slot (the engines' private chain entry): the
/// value written, or `None` for a tombstone, and the version that wrote it.
#[allow(dead_code)]
struct ChainEntry {
    value: Option<Value>,
    version: Version,
}

/// Below the engines' parallel-apply threshold: every block installs on
/// this thread, so the count sees all of it.
const KEYS: usize = 1024;
const BLOCKS: u64 = 32;

/// Commits genesis and `BLOCKS` rewrites of every key; returns the chains'
/// heap: one slot per key after genesis plus what the rewrites added.
fn chain_heap_after_rewrites(db: &dyn StateStore) -> i64 {
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::composite("acct", i as u64)).collect();
    let block = |b: u64| -> Vec<CommitWrite> {
        let put = |(i, k): (usize, &Key)| {
            CommitWrite::put(k.clone(), Value::from_i64((b as usize * KEYS + i) as i64), i as u32)
        };
        keys.iter().enumerate().map(put).collect()
    };
    db.apply_block(0, &block(0)).unwrap();
    let after_genesis = live();
    for b in 1..=BLOCKS {
        db.apply_block(b, &block(b)).unwrap();
    }
    let grown = live() - after_genesis;
    (KEYS * size_of::<ChainEntry>()) as i64 + grown
}

fn assert_two_slots_per_key(engine: &str, chain_heap: i64) {
    let bound = (KEYS * 2 * size_of::<ChainEntry>()) as i64;
    assert!(
        chain_heap <= bound,
        "{engine}: unpinned chains hold {chain_heap} bytes, over {bound} (two slots per key)"
    );
}

#[test]
fn unpinned_mem_chains_stay_in_two_slots() {
    let db = MemStateDb::new();
    let heap = chain_heap_after_rewrites(&db);
    assert_eq!(db.version_chain_len(&Key::composite("acct", 7)), 2, "the rewrites landed");
    assert_two_slots_per_key("mem", heap);
}

#[test]
fn unpinned_lsm_memtable_chains_stay_in_two_slots() {
    let dir =
        std::env::temp_dir().join(format!("fabric-chain-residency-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LsmConfig { memtable_max_bytes: usize::MAX, ..LsmConfig::default() };
    let db = LsmStateDb::open(&dir, cfg).unwrap();
    let heap = chain_heap_after_rewrites(&db);
    assert_eq!(db.run_count(), 0, "the memtable never flushed");
    assert_eq!(db.version_chain_len(&Key::composite("acct", 7)), 2, "the rewrites landed");
    assert_two_slots_per_key("lsm", heap);
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}
