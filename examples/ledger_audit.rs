//! Ledger persistence and peer recovery: run a workload whose peers keep
//! their ledgers as block files, "crash", then reopen the reporting peer's
//! own block file and rebuild the current state from it alone —
//! re-verifying every frame's crc, the hash-chain linkage, the data
//! hashes, and even the recorded validation flags.
//!
//! ```bash
//! cargo run --release --example ledger_audit
//! ```

use fabric_chaos::{ChaosNet, ChaosOptions, FaultPlan};
use fabric_common::{Key, PipelineConfig, Value};
use fabric_ledger::Ledger;
use fabric_peer::recovery;
use fabric_statedb::StateStore;
use fabricpp::chaincode_fn;

fn main() {
    let dir = std::env::temp_dir().join(format!("fabricpp-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let bump = chaincode_fn("bump", |ctx, args| {
        let k = Key::new(args.to_vec());
        let v = ctx.get_i64(&k).map_err(|e| e.to_string())?.unwrap_or(0);
        ctx.put_i64(k, v + 1);
        Ok(())
    });

    // Phase 1: run a Fabric++ network; every commit is fsynced to each
    // peer's block file under `dir`.
    let mut net = ChaosNet::with_options(
        &PipelineConfig::fabric_pp(),
        2,
        1,
        vec![bump],
        &(0..8).map(|i| (Key::composite("ctr", i), Value::from_i64(0))).collect::<Vec<_>>(),
        FaultPlan::quiescent(0),
        ChaosOptions { block_dir: Some(dir.clone()), ..ChaosOptions::default() },
    )
    .expect("network");

    for round in 0..5u64 {
        for client in 0..6u64 {
            let target = Key::composite("ctr", (round + client) % 8);
            net.propose_and_submit(client, "bump", target.as_bytes().to_vec());
        }
        let n = net.cut_block().expect("cut").expect("block");
        let committed = net.reporting_peer().ledger().get(n).expect("committed block");
        println!(
            "block {}: {} txs, {} valid",
            committed.block.header.number,
            committed.block.txs.len(),
            committed.valid_count()
        );
    }
    let reporting = net.reporting_peer().id();
    let live_tip = net.reporting_peer().ledger().tip_hash();
    drop(net); // "crash"

    // Phase 2: recover from the reporting peer's block file alone,
    // re-checking everything.
    let path = dir.join(format!("peer-{}.blocks", reporting.raw()));
    println!("\nrecovering from {} …", path.display());
    let (ledger, torn) = Ledger::open(&path).expect("reopen");
    assert_eq!(torn, 0, "a clean shutdown leaves no torn tail");
    ledger.verify_chain().expect("chain audit");
    assert_eq!(ledger.tip_hash(), live_tip, "recovered chain matches live tip");
    let state = recovery::replay(&ledger, /* recheck_flags = */ true).expect("recovery");

    println!("recovered height: {}", ledger.height());
    let (valid, invalid) = ledger.tx_totals();
    println!("transactions:     {valid} valid, {invalid} invalid (all retained)");
    let mut total = 0i64;
    for i in 0..8u64 {
        let v = state
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
