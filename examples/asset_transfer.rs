//! The paper's Appendix A running example, narrated step by step on the
//! deterministic single-threaded driver (a fault-free `ChaosNet`):
//! organizations A and B move money between `BalA` and `BalB`; a malicious
//! client tampers with a write set and is caught; a stale transaction
//! fails the serializability check.
//!
//! ```bash
//! cargo run --release --example asset_transfer
//! ```

use fabric_chaos::{ChaosNet, FaultPlan, ProposeOutcome};
use fabric_common::{Key, PipelineConfig, ValidationCode, Value, Version};
use fabricpp::chaincode_fn;

fn main() {
    let transfer = chaincode_fn("transfer", |ctx, args| {
        let amount = i64::from_le_bytes(args.try_into().map_err(|_| "bad args")?);
        let a = ctx.get_i64(&Key::from("BalA")).map_err(|e| e.to_string())?.ok_or("no BalA")?;
        let b = ctx.get_i64(&Key::from("BalB")).map_err(|e| e.to_string())?.ok_or("no BalB")?;
        ctx.put_i64(Key::from("BalA"), a - amount);
        ctx.put_i64(Key::from("BalB"), b + amount);
        Ok(())
    });

    let genesis = vec![
        (Key::from("BalA"), Value::from_i64(100)),
        (Key::from("BalB"), Value::from_i64(50)),
    ];
    let plan = FaultPlan::quiescent(0);
    let mut net = ChaosNet::new(&PipelineConfig::vanilla(), 2, 2, vec![transfer], &genesis, plan)
        .expect("network");

    println!("=== Simulation phase (paper Fig. 12) ===");
    println!("Initial state: BalA = 100, BalB = 50 (both at {})", Version::GENESIS);

    // T7: the honest transfer of 30.
    let t7 = match net.propose(1, "transfer", 30i64.to_le_bytes().to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected: {other:?}"),
    };
    println!(
        "T7 endorsed by {} peers; WS = {{BalA={}, BalB={}}}",
        t7.endorsements.len(),
        t7.rwset.writes.value_of(&Key::from("BalA")).unwrap().unwrap().as_i64().unwrap(),
        t7.rwset.writes.value_of(&Key::from("BalB")).unwrap().unwrap().as_i64().unwrap(),
    );

    // T8: the malicious client swaps in a tampered write set after
    // endorsement (BalA should have decreased!).
    let mut t8 = match net.propose(2, "transfer", 20i64.to_le_bytes().to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected: {other:?}"),
    };
    t8.rwset = fabric_common::rwset::rwset_from_keys(
        &[Key::from("BalA"), Key::from("BalB")],
        Version::GENESIS,
        &[Key::from("BalA"), Key::from("BalB")],
        &Value::from_i64(120),
    );
    println!("T8 endorsed, then TAMPERED: client claims WS = {{BalA=120, BalB=120}}");

    // T9: another transfer, simulated against the same pre-T7 state.
    let t9 = match net.propose(3, "transfer", 50i64.to_le_bytes().to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected: {other:?}"),
    };
    println!("T9 endorsed against the same (soon stale) state");

    println!("\n=== Ordering phase (paper Fig. 13): block = [T8, T7, T9] ===");
    net.submit(t8);
    net.submit(t7);
    net.submit(t9);

    println!("\n=== Validation & commit phase (paper Fig. 14) ===");
    let n = net.cut_block().expect("commit").expect("block");
    let block = net.reporting_peer().ledger().get(n).expect("committed block");
    for (tx, code) in block.iter() {
        let verdict = match code {
            ValidationCode::Valid => "VALID",
            ValidationCode::EndorsementFailure => "INVALID (endorsement signature mismatch)",
            ValidationCode::MvccConflict => "INVALID (stale read version)",
            other => panic!("unexpected code {other:?}"),
        };
        println!("  {}: {verdict}", tx.id);
    }

    let store = net.reporting_peer().store();
    let bal_a = store.get(&Key::from("BalA")).unwrap().unwrap();
    let bal_b = store.get(&Key::from("BalB")).unwrap().unwrap();
    println!(
        "\nFinal state: BalA = {} ({}), BalB = {} ({})",
        bal_a.value.as_i64().unwrap(),
        bal_a.version,
        bal_b.value.as_i64().unwrap(),
        bal_b.version,
    );
    assert_eq!(bal_a.value.as_i64(), Some(70));
    assert_eq!(bal_b.value.as_i64(), Some(80));

    let ledger = net.reporting_peer().ledger();
    ledger.verify_chain().expect("chain audit");
    let (valid, invalid) = ledger.tx_totals();
    println!(
        "Ledger: height {}, {valid} valid + {invalid} invalid transactions recorded",
        ledger.height()
    );
}
