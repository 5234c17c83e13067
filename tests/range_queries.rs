//! Range queries (`GetStateByRange`) through the full pipeline: a
//! range-scanning chaincode is endorsed, ordered, validated, and committed;
//! a committed change to any scanned entry invalidates the reader.

use fabric_chaos::{ChaosNet, FaultPlan, ProposeOutcome};
use fabric_common::{Key, PipelineConfig, ValidationCode, Value};
use fabricpp::chaincode_fn;

fn chaincodes() -> Vec<std::sync::Arc<dyn fabricpp_suite::peer::chaincode::Chaincode>> {
    // sum_range: writes the sum of every `acct:*` balance to `total`.
    let sum_range = chaincode_fn("sum_range", |ctx, _args| {
        let entries = ctx
            .get_range(&Key::from("acct:"), &Key::from("acct:~"))
            .map_err(|e| e.to_string())?;
        let total: i64 = entries.iter().filter_map(|(_, v)| v.as_i64()).sum();
        ctx.put_i64(Key::from("total"), total);
        Ok(())
    });
    // deposit: bumps one account.
    let deposit = chaincode_fn("deposit", |ctx, args| {
        let k = Key::new(args.to_vec());
        let v = ctx.get_i64(&k).map_err(|e| e.to_string())?.ok_or("missing account")?;
        ctx.put_i64(k, v + 100);
        Ok(())
    });
    vec![sum_range, deposit]
}

fn genesis() -> Vec<(Key, Value)> {
    (0..5).map(|i| (Key::composite("acct", i), Value::from_i64(10 * (i as i64 + 1)))).collect()
}

#[test]
fn range_scan_commits_and_reads_consistent_sum() {
    let mut net = ChaosNet::new(
        &PipelineConfig::fabric_pp(),
        2,
        2,
        chaincodes(),
        &genesis(),
        FaultPlan::quiescent(0),
    )
    .unwrap();
    net.propose_and_submit(0, "sum_range", vec![]).unwrap();
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(block.validity, vec![ValidationCode::Valid]);
    let total = net
        .reporting_peer()
        .store()
        .get(&Key::from("total"))
        .unwrap()
        .unwrap()
        .value
        .as_i64()
        .unwrap();
    assert_eq!(total, 10 + 20 + 30 + 40 + 50);
}

#[test]
fn committed_change_to_scanned_entry_invalidates_reader() {
    let mut net = ChaosNet::new(
        &PipelineConfig::vanilla(),
        2,
        1,
        chaincodes(),
        &genesis(),
        FaultPlan::quiescent(0),
    )
    .unwrap();

    // Endorse the range scan against the genesis state, but hold it back.
    let scan_tx = match net.propose(0, "sum_range", vec![]) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(scan_tx.rwset.reads.len(), 5, "every scanned key recorded");

    // A deposit to one scanned account commits first.
    net.propose_and_submit(1, "deposit", Key::composite("acct", 2).as_bytes().to_vec())
        .unwrap();
    net.cut_block().unwrap();

    // The held-back scan now fails the serializability check.
    net.submit(scan_tx);
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(block.validity, vec![ValidationCode::MvccConflict]);
    assert!(
        net.reporting_peer().store().get(&Key::from("total")).unwrap().is_none(),
        "stale scan's write discarded"
    );
}

#[test]
fn fabricpp_orderer_drops_stale_range_reader_early() {
    let mut net = ChaosNet::new(
        &PipelineConfig::fabric_pp(),
        2,
        1,
        chaincodes(),
        &genesis(),
        FaultPlan::quiescent(0),
    )
    .unwrap();
    let stale_scan = match net.propose(0, "sum_range", vec![]) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    net.propose_and_submit(1, "deposit", Key::composite("acct", 2).as_bytes().to_vec())
        .unwrap();
    net.cut_block().unwrap();
    // Fresh scan after the deposit.
    let fresh_scan = match net.propose(2, "sum_range", vec![]) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    net.submit(stale_scan);
    net.submit(fresh_scan);
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();
    // The within-block version-mismatch check drops the stale scan at
    // order time; the fresh one commits.
    assert_eq!(block.block.txs.len(), 1);
    assert_eq!(block.validity, vec![ValidationCode::Valid]);
    assert_eq!(net.stats().early_abort_version_mismatch, 1);
    let total = net
        .reporting_peer()
        .store()
        .get(&Key::from("total"))
        .unwrap()
        .unwrap()
        .value
        .as_i64()
        .unwrap();
    assert_eq!(total, 150 + 100, "fresh scan saw the deposit");
}
