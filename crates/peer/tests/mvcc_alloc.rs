//! Asserts the MVCC validation hot path's allocation contract: with a warm
//! [`MvccScratch`] (key interner, probe list, version table, write bitset
//! all at capacity), validating block after block over a steady working
//! set performs **zero heap allocations** in release builds — the entire
//! phase runs on the reused scratch plus the store's own prefetch
//! machinery. Debug builds get a small bound for the standard library's
//! debug machinery.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    ChannelId, ClientId, Digest, Key, Transaction, TxId, Value, Version,
};
use fabric_ledger::Block;
use fabric_peer::validator::{mvcc_validate_traced, MvccScratch};
use fabric_statedb::{CommitWrite, MemStateDb, StateStore};
use fabric_trace::TraceSink;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn key(i: u64) -> Key {
    Key::composite("K", i)
}

/// A block of `txs` transactions, each reading 4 and writing 2 keys from a
/// fixed 256-key working set (reads claim genesis versions, so against a
/// static store every transaction without an in-block conflict is valid).
fn make_block(txs: usize) -> Block {
    let transactions: Vec<Transaction> = (0..txs)
        .map(|t| {
            let mut b = RwSetBuilder::new();
            for r in 0..4u64 {
                b.record_read(key((t as u64 * 7 + r * 31) % 256), Some(Version::GENESIS));
            }
            for w in 0..2u64 {
                b.record_write(
                    key((t as u64 * 13 + w * 97) % 256),
                    Some(Value::from_i64(t as i64)),
                );
            }
            Transaction {
                id: TxId::next(),
                channel: ChannelId(0),
                client: ClientId(0),
                chaincode: "cc".into(),
                rwset: b.build(),
                endorsements: vec![],
                created_at: Instant::now(),
            }
        })
        .collect();
    Block::build(1, Digest::ZERO, transactions)
}

#[test]
fn steady_state_mvcc_validation_does_not_allocate() {
    let store = MemStateDb::with_shards(8);
    let genesis: Vec<CommitWrite> =
        (0..256).map(|i| CommitWrite::put(key(i), Value::from_i64(0), 0)).collect();
    store.apply_block(0, &genesis).unwrap();

    let block = make_block(128);
    let endorsement_ok = vec![true; block.txs.len()];
    let mut scratch = MvccScratch::new();
    let mut codes = Vec::new();
    let sink = TraceSink::disabled();

    // Warm-up: interner, probe list, version table, bitset, codes vec all
    // reach steady capacity.
    for _ in 0..4 {
        mvcc_validate_traced(&block, &store, &endorsement_ok, &mut scratch, &mut codes, &sink)
            .unwrap();
    }
    let mix_before: usize = codes.iter().filter(|c| c.is_valid()).count();
    assert!(mix_before > 0 && mix_before < block.txs.len(), "both outcomes exercised");

    let before = allocations();
    for _ in 0..8 {
        mvcc_validate_traced(&block, &store, &endorsement_ok, &mut scratch, &mut codes, &sink)
            .unwrap();
    }
    let allocated = allocations() - before;

    assert_eq!(codes.len(), block.txs.len());
    assert_eq!(codes.iter().filter(|c| c.is_valid()).count(), mix_before);
    if cfg!(debug_assertions) {
        assert!(allocated < 10_000, "{allocated} allocations in debug steady state");
    } else {
        assert_eq!(allocated, 0, "warm MVCC validation must not allocate");
    }
}
