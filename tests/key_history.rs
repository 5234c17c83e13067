//! `GetHistoryForKey` through the full pipeline: every valid write to a key
//! is recoverable from the ledger, in commit order, including deletes —
//! and invalid transactions leave no trace in the history.

use fabric_chaos::{ChaosNet, FaultPlan, ProposeOutcome};
use fabric_common::{Key, PipelineConfig, Value};
use fabricpp::chaincode_fn;

#[test]
fn key_history_tracks_the_full_lifecycle() {
    let set = chaincode_fn("set", |ctx, args| {
        let v = i64::from_le_bytes(args.try_into().map_err(|_| "bad args")?);
        // Read first so cross-block conflicts are possible.
        let _ = ctx.get_i64(&Key::from("asset")).map_err(|e| e.to_string())?;
        ctx.put_i64(Key::from("asset"), v);
        Ok(())
    });
    let del = chaincode_fn("del", |ctx, _| {
        ctx.delete(Key::from("asset"));
        Ok(())
    });

    let mut net = ChaosNet::new(
        &PipelineConfig::vanilla(),
        2,
        1,
        vec![set, del],
        &[(Key::from("asset"), Value::from_i64(0))],
        FaultPlan::quiescent(0),
    )
    .unwrap();

    // Block 1: set 10.
    let id1 = net.propose_and_submit(0, "set", 10i64.to_le_bytes().to_vec()).unwrap();
    net.cut_block().unwrap();
    // Block 2: one valid set 20 plus one STALE set 99 (endorsed earlier).
    let stale = match net.propose(1, "set", 99i64.to_le_bytes().to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    // Commit an intervening write so `stale` really is stale.
    let id2 = net.propose_and_submit(2, "set", 20i64.to_le_bytes().to_vec()).unwrap();
    net.cut_block().unwrap();
    net.submit(stale);
    net.cut_block().unwrap();
    // Block 4: delete.
    let id3 = net.propose_and_submit(3, "del", vec![]).unwrap();
    net.cut_block().unwrap();

    let ledger = net.reporting_peer().ledger();
    let hist = ledger.history_of(&Key::from("asset"));
    assert_eq!(hist.len(), 4, "stale write absent from history");
    // The bootstrap write rides in the genesis block under the reserved
    // id tx-0, so the key's history starts at block 0.
    assert_eq!(hist[0].tx, fabric_common::TxId(0));
    assert_eq!(hist[0].value, Some(Value::from_i64(0)));
    assert_eq!(hist[0].block, 0);
    assert_eq!(hist[1].tx, id1);
    assert_eq!(hist[1].value, Some(Value::from_i64(10)));
    assert_eq!(hist[1].block, 1);
    assert_eq!(hist[2].tx, id2);
    assert_eq!(hist[2].value, Some(Value::from_i64(20)));
    assert_eq!(hist[3].tx, id3);
    assert_eq!(hist[3].value, None, "delete is the final entry");

    // History agrees with the current state: key gone.
    assert!(net.reporting_peer().store().get(&Key::from("asset")).unwrap().is_none());
}
