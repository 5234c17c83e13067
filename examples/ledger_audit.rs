//! Ledger persistence and peer recovery: run a workload, persist every
//! committed block to an on-disk log, "crash", then rebuild the ledger and
//! the current state from the log alone — re-verifying hash-chain linkage,
//! data hashes, and even the recorded validation flags.
//!
//! ```bash
//! cargo run --release --example ledger_audit
//! ```

use fabric_chaos::{ChaosNet, FaultPlan};
use fabric_common::{Key, PipelineConfig, Value};
use fabric_ledger::FileBlockStore;
use fabric_peer::recovery;
use fabric_statedb::StateStore;
use fabricpp::chaincode_fn;

fn main() {
    let dir = std::env::temp_dir().join(format!("fabricpp-audit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let log_path = dir.join("blocks.log");

    let bump = chaincode_fn("bump", |ctx, args| {
        let k = Key::new(args.to_vec());
        let v = ctx.get_i64(&k).map_err(|e| e.to_string())?.unwrap_or(0);
        ctx.put_i64(k, v + 1);
        Ok(())
    });

    // Phase 1: run a Fabric++ network and persist its blocks.
    let mut net = ChaosNet::new(
        &PipelineConfig::fabric_pp(),
        2,
        1,
        vec![bump],
        &(0..8).map(|i| (Key::composite("ctr", i), Value::from_i64(0))).collect::<Vec<_>>(),
        FaultPlan::quiescent(0),
    )
    .expect("network");

    let mut store = FileBlockStore::open(&log_path).expect("block log");
    // Persist the genesis block the peers installed.
    store.append(&net.reporting_peer().ledger().get(0).unwrap()).unwrap();

    for round in 0..5u64 {
        for client in 0..6u64 {
            let target = Key::composite("ctr", (round + client) % 8);
            net.propose_and_submit(client, "bump", target.as_bytes().to_vec());
        }
        let n = net.cut_block().expect("cut").expect("block");
        let committed = net.reporting_peer().ledger().get(n).expect("committed block");
        store.append(&committed).unwrap();
        println!(
            "block {}: {} txs, {} valid",
            committed.block.header.number,
            committed.block.txs.len(),
            committed.valid_count()
        );
    }
    store.sync().unwrap();
    let live_tip = net.reporting_peer().ledger().tip_hash();
    drop(net); // "crash"

    // Phase 2: recover from the log alone, re-checking everything.
    println!("\nrecovering from {} …", log_path.display());
    let recovered = recovery::recover_from_log(&log_path, /* recheck_flags = */ true)
        .expect("recovery");
    recovered.ledger.verify_chain().expect("chain audit");
    assert_eq!(recovered.ledger.tip_hash(), live_tip, "recovered chain matches live tip");

    println!("recovered height: {}", recovered.ledger.height());
    let (valid, invalid) = recovered.ledger.tx_totals();
    println!("transactions:     {valid} valid, {invalid} invalid (all retained)");
    let mut total = 0i64;
    for i in 0..8u64 {
        let v = recovered
            .state
            .get(&Key::composite("ctr", i))
            .unwrap()
            .map(|vv| vv.value.as_i64().unwrap())
            .unwrap_or(0);
        total += v;
        println!("  ctr:{i} = {v}");
    }
    // `tx_totals` includes the genesis bootstrap transaction (TxId 0).
    let bumps = valid - 1;
    assert_eq!(total as u64, bumps, "every valid bump is reflected exactly once");
    println!("state rebuilt consistently: {total} bumps == {bumps} valid bump transactions");

    let _ = std::fs::remove_dir_all(&dir);
}
