//! The flight recorder's overhead contract (release builds): emitting
//! through an **enabled** bounded sink performs zero steady-state heap
//! allocations. Event payloads carry only `Copy` data plus refcounted
//! `Key` handles, the ring's slots are pre-allocated, and drop-oldest
//! overwrites recycle slots in place — so a traced MVCC validation pass
//! is exactly as allocation-free as the untraced one, and raw emission
//! into a wrapping ring allocates nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use fabricpp_suite::common::rwset::RwSetBuilder;
use fabricpp_suite::common::{
    BlockNum, ChannelId, ClientId, Digest, Key, Transaction, TxId, Value, Version,
};
use fabricpp_suite::ledger::Block;
use fabricpp_suite::peer::validator::{mvcc_validate_traced, MvccScratch};
use fabricpp_suite::statedb::{CommitWrite, MemStateDb, StateStore};
use fabricpp_suite::trace::{EventKind, TraceSink};

struct CountingAlloc;

// Per-thread counter (const-initialized TLS never allocates, so it is safe
// to touch from inside the allocator): each test measures only its own
// thread, so parallel test threads and libtest's own bookkeeping threads
// cannot leak allocations into another test's measured window.
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

fn key(i: u64) -> Key {
    Key::composite("K", i)
}

/// A block whose transactions mix valid and in-block-conflicting reads, so
/// the traced validation emits provenance events every pass.
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

/// The MVCC hot path with the recorder ENABLED: same zero-allocation
/// contract as the untraced `mvcc_alloc` test. The ring (capacity 256) is
/// deliberately smaller than the events a measurement pass emits, so the
/// drop-oldest overwrite path is exercised too.
#[test]
fn steady_state_traced_mvcc_validation_does_not_allocate() {
    let store = MemStateDb::with_shards(8);
    let genesis: Vec<CommitWrite> =
        (0..256).map(|i| CommitWrite::put(key(i), Value::from_i64(0), 0)).collect();
    store.apply_block(0, &genesis).unwrap();

    let block = make_block(128);
    let endorsement_ok = vec![true; block.txs.len()];
    let mut scratch = MvccScratch::new();
    let mut codes = Vec::new();
    let sink = TraceSink::bounded(256);

    // Warm-up: scratch tables and the ring's slots reach steady state.
    for _ in 0..4 {
        mvcc_validate_traced(&block, &store, &endorsement_ok, &mut scratch, &mut codes, &sink)
            .unwrap();
    }
    let conflicts = codes.iter().filter(|c| !c.is_valid()).count();
    assert!(conflicts > 0, "the workload must exercise the conflict emit path");
    assert!(sink.emitted() > 0, "the sink must actually be recording");

    let before = allocations();
    for _ in 0..8 {
        mvcc_validate_traced(&block, &store, &endorsement_ok, &mut scratch, &mut codes, &sink)
            .unwrap();
    }
    let allocated = allocations() - before;

    assert!(sink.dropped() > 0, "the ring must wrap so drop-oldest is measured");
    if cfg!(debug_assertions) {
        assert!(allocated < 10_000, "{allocated} allocations in debug steady state");
    } else {
        assert_eq!(allocated, 0, "traced MVCC validation must not allocate when warm");
    }
}

/// Raw emission into a wrapping ring: every lifecycle event shape, tens of
/// thousands of emits, zero allocations.
#[test]
fn raw_emit_into_wrapping_ring_does_not_allocate() {
    let sink = TraceSink::bounded(64);
    let k = Key::from("hot-key");

    // Warm-up: fill the ring past capacity once.
    for i in 0..128u64 {
        sink.emit(EventKind::TxCommitted { block: i as BlockNum, tx: TxId(i) });
    }

    let before = allocations();
    for i in 0..10_000u64 {
        sink.emit(EventKind::TxCommitted { block: i as BlockNum, tx: TxId(i) });
        sink.emit(EventKind::TxMvccConflict {
            block: i as BlockNum,
            tx: TxId(i),
            key: k.clone(),
            expected: Some(Version::new(i, 0)),
            observed: Some(Version::GENESIS),
            writer: Some(TxId(i + 1)),
        });
        sink.emit(EventKind::BlockCommitted {
            block: i as BlockNum,
            valid: 10,
            invalid: 2,
            writes: 20,
            dur_us: 5,
        });
    }
    let allocated = allocations() - before;

    assert_eq!(sink.dropped() + 64, sink.emitted(), "ring at capacity throughout");
    if cfg!(debug_assertions) {
        assert!(allocated < 10_000, "{allocated} allocations in debug steady state");
    } else {
        assert_eq!(allocated, 0, "emit into a warm ring must not allocate");
    }
}
