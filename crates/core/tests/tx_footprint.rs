//! Asserts the resident-footprint contract of an assembled transaction:
//! every heap buffer it owns holds exactly its payload. A committed
//! transaction lives in every peer's ledger until the run ends, so slack
//! left by `push`-grown vectors is paid once per transaction per peer.
//!
//! One fixed Smallbank SendPayment proposal (two reads, two writes) is
//! endorsed on two peers of different orgs and assembled; dropping the
//! transaction must free exactly the read and write entries, the
//! endorsements and the chaincode name — the keys and values are short
//! enough to live inline in their entries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

use fabric_common::rwset::{ReadEntry, WriteEntry};
use fabric_common::{
    ChannelId, ClientId, CostModel, Endorsement, Key, TransactionProposal, Value,
};
use fabric_net::LatencyModel;
use fabric_peer::chaincode::Chaincode;
use fabricpp::client::assemble_transaction;
use fabricpp::{chaincode_fn, NetworkBuilder};

struct CountingAlloc;

// Per-thread counters (const-initialized TLS never allocates, so it is
// safe to touch from inside the allocator): the network's own threads
// cannot leak frees into the measured drop.
thread_local! {
    static FREED_BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn count_free(bytes: usize) {
    FREED_BYTES.with(|c| c.set(c.get() + bytes as u64));
    FREES.with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_free(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn freed() -> (u64, u64) {
    (FREED_BYTES.with(Cell::get), FREES.with(Cell::get))
}

/// Smallbank's SendPayment: move `amount` between two checking accounts.
fn send_payment() -> Arc<dyn Chaincode> {
    chaincode_fn("smallbank", |ctx, args| {
        let from = Key::composite("checking", args[0].into());
        let to = Key::composite("checking", args[1].into());
        let amount = i64::from(args[2]);
        let a = ctx.get_i64(&from).map_err(|e| e.to_string())?.ok_or("no account")?;
        let b = ctx.get_i64(&to).map_err(|e| e.to_string())?.ok_or("no account")?;
        ctx.put_i64(from, a - amount);
        ctx.put_i64(to, b + amount);
        Ok(())
    })
}

#[test]
fn dropping_an_assembled_transaction_frees_exactly_its_payload() {
    let net = NetworkBuilder::new()
        .orgs(2)
        .peers_per_org(1)
        .cost(CostModel::raw())
        .latency(LatencyModel::zero())
        .deploy(send_payment())
        .genesis((0..8).map(|u| (Key::composite("checking", u), Value::from_i64(1_000))))
        .build()
        .unwrap();
    let peers = net.channel_peers(0);
    assert_eq!(peers.len(), 2);
    let proposal =
        TransactionProposal::new(ChannelId(0), ClientId(0), "smallbank", vec![3, 5, 10]);
    let responses = peers.iter().map(|p| p.endorse(&proposal).unwrap()).collect();
    let tx = assemble_transaction(&proposal, responses).unwrap();
    assert_eq!((tx.rwset.reads.len(), tx.rwset.writes.len(), tx.endorsements.len()), (2, 2, 2));

    let payload = tx.rwset.reads.len() * size_of::<ReadEntry>()
        + tx.rwset.writes.len() * size_of::<WriteEntry>()
        + tx.endorsements.len() * size_of::<Endorsement>()
        + tx.chaincode.len();
    let (bytes_before, frees_before) = freed();
    drop(tx);
    let (bytes_after, frees_after) = freed();
    assert_eq!(
        (bytes_after - bytes_before) as usize,
        payload,
        "a dropped transaction must free exactly its payload"
    );
    // One buffer each: reads, writes, endorsements, chaincode name.
    assert_eq!(frees_after - frees_before, 4);
    net.finish();
}
