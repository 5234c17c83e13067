//! Asserts the residency contract of the ledger: it holds the tip block
//! and one index entry per block in memory, and nothing else. Every
//! earlier block lives in the block file, so a long chain costs the heap
//! what a short one does, plus a few dozen bytes per block.
//!
//! 64 blocks of 256 transactions are appended and the handles `append`
//! returns are dropped; the heap this thread still holds afterwards must
//! be at most one block plus 64 index entries. Recovery keeps the same
//! bound: a ledger reopened at its path and walked block by block holds no
//! more than that either.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use fabric_common::rwset::rwset_from_keys;
use fabric_common::{
    ChannelId, ClientId, Endorsement, Key, OrgId, PeerId, Signature, Transaction, TxId,
    ValidationCode, Value, Version,
};
use fabric_ledger::{Block, CommittedBlock, Ledger};

struct CountingAlloc;

// Live bytes per thread (const-initialized TLS never allocates, so it is
// safe to touch from inside the allocator): tests running beside this one
// in the same binary cannot move the count.
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

const BLOCKS: u64 = 64;
const TXS_PER_BLOCK: u64 = 256;

/// Generous bound on one index entry: offset, length, header hash and two
/// counts.
const INDEX_ENTRY_BYTES: i64 = 64;

fn tx(id: u64) -> Transaction {
    let rwset = rwset_from_keys(
        &[Key::composite("checking", id), Key::composite("savings", id)],
        Version::new(id, 0),
        &[Key::composite("checking", id)],
        &Value::from_i64(id as i64),
    );
    Transaction {
        id: TxId(id),
        channel: ChannelId(0),
        client: ClientId(id % 4),
        chaincode: "smallbank".into(),
        rwset,
        endorsements: (0..2)
            .map(|o| Endorsement {
                peer: PeerId(o),
                org: OrgId(o),
                signature: Signature([id as u8; 32]),
            })
            .collect(),
        created_at: Instant::now(),
    }
}

fn block(ledger: &Ledger, n: u64) -> CommittedBlock {
    let txs = (0..TXS_PER_BLOCK).map(|i| tx(n * TXS_PER_BLOCK + i)).collect();
    let block = Block::build(ledger.height(), ledger.tip_hash(), txs);
    let codes = (0..TXS_PER_BLOCK)
        .map(|i| if i % 7 == 0 { ValidationCode::MvccConflict } else { ValidationCode::Valid })
        .collect();
    CommittedBlock::new(block, codes).unwrap()
}

/// What block `n` costs the heap, shared handle included.
fn block_bytes_of(ledger: &Ledger, n: u64) -> i64 {
    let start = live();
    let cb = Arc::new(block(ledger, n));
    let bytes = live() - start;
    drop(cb);
    bytes
}

/// Asserts that `resident` bytes are at most one block of `block_bytes`
/// plus one index entry per block.
fn assert_tip_and_index(what: &str, resident: i64, block_bytes: i64) {
    let bound = block_bytes + BLOCKS as i64 * INDEX_ENTRY_BYTES;
    assert!(
        resident <= bound,
        "{what} ledger of {BLOCKS} blocks holds {resident} B; one block is {block_bytes} B, \
         so at most {bound} B may stay resident"
    );
}

#[test]
fn ledger_holds_the_tip_block_and_one_index_entry_per_block() {
    let before = live();
    let ledger = Ledger::new();
    let mut block_bytes = 0;
    for n in 0..BLOCKS {
        block_bytes = block_bytes.max(block_bytes_of(&ledger, n));
        drop(ledger.append(block(&ledger, n)).unwrap());
    }
    assert_eq!(ledger.height(), BLOCKS);
    assert_tip_and_index("an appended", live() - before, block_bytes);

    // Every block is still there, read back from the block file.
    let (valid, invalid) = ledger.tx_totals();
    assert_eq!(valid + invalid, BLOCKS * TXS_PER_BLOCK);
    ledger.verify_chain().unwrap();
    assert_eq!(ledger.get(3).unwrap().block.txs[5].id, TxId(3 * TXS_PER_BLOCK + 5));
}

#[test]
fn reopened_ledger_holds_the_tip_block_and_one_index_entry_per_block() {
    let path = std::env::temp_dir()
        .join(format!("fabric-ledger-residency-{}.blocks", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut block_bytes = 0;
    {
        let (ledger, _) = Ledger::open(&path).unwrap();
        for n in 0..BLOCKS {
            block_bytes = block_bytes.max(block_bytes_of(&ledger, n));
            drop(ledger.append(block(&ledger, n)).unwrap());
        }
    }

    // Recovery: reopen the file and walk every block, as a restarted peer
    // replaying its state does.
    let before = live();
    let (ledger, torn) = Ledger::open(&path).unwrap();
    assert_eq!((ledger.height(), torn), (BLOCKS, 0));
    assert_tip_and_index("a reopened", live() - before, block_bytes);
    let mut txs = 0;
    ledger
        .try_for_each(|cb, _| {
            txs += cb.block.txs.len() as u64;
            Ok(true)
        })
        .unwrap();
    assert_eq!(txs, BLOCKS * TXS_PER_BLOCK);
    assert_tip_and_index("a reopened and walked", live() - before, block_bytes);
    drop(ledger);
    std::fs::remove_file(&path).unwrap();
}
