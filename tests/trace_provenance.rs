//! Flight-recorder abort provenance, pinned against the paper's running
//! example (§4.1, Tables 1 & 2): `T1` updates `k1`; `T2`, `T3`, `T4` read
//! `k1` (and touch `k2`/`k3`/`k4`). Under vanilla Fabric in arrival order
//! only one of the four commits; under Fabric++ the reorderer finds a
//! conflict-free schedule and all four do. Every abort the pipeline
//! decides must surface in the trace with its offending key, expected vs.
//! observed version, and conflicting transaction — cross-checked against
//! the outcome counters.

use std::sync::Arc;

use fabric_chaos::{ChaosNet, ChaosOptions, FaultPlan, ProposeOutcome};
use fabric_common::{Key, PipelineConfig, ValidationCode, Value, Version};
use fabricpp::chaincode_fn;
use fabricpp_suite::trace::{EventKind, TraceSink};

/// One chaincode per transaction shape of the running example.
fn example_chaincodes() -> Vec<Arc<dyn fabricpp_suite::peer::chaincode::Chaincode>> {
    vec![
        // T1: blind update of k1.
        chaincode_fn("t1", |ctx, _| {
            ctx.put_i64(Key::from("k1"), 2);
            Ok(())
        }),
        // T2: reads k1 and k2, updates k2.
        chaincode_fn("t2", |ctx, _| {
            let _ = ctx.get_i64(&Key::from("k1")).map_err(|e| e.to_string())?;
            let _ = ctx.get_i64(&Key::from("k2")).map_err(|e| e.to_string())?;
            ctx.put_i64(Key::from("k2"), 2);
            Ok(())
        }),
        // T3: reads k1 and k3, updates k3.
        chaincode_fn("t3", |ctx, _| {
            let _ = ctx.get_i64(&Key::from("k1")).map_err(|e| e.to_string())?;
            let _ = ctx.get_i64(&Key::from("k3")).map_err(|e| e.to_string())?;
            ctx.put_i64(Key::from("k3"), 2);
            Ok(())
        }),
        // T4: reads k1 and k3, updates k4.
        chaincode_fn("t4", |ctx, _| {
            let _ = ctx.get_i64(&Key::from("k1")).map_err(|e| e.to_string())?;
            let _ = ctx.get_i64(&Key::from("k3")).map_err(|e| e.to_string())?;
            ctx.put_i64(Key::from("k4"), 2);
            Ok(())
        }),
    ]
}

fn example_genesis() -> Vec<(Key, Value)> {
    (1..=4).map(|i| (Key::from(format!("k{i}").as_str()), Value::from_i64(1))).collect()
}

/// A fault-free two-org network (one peer each) whose orderer, proposals,
/// and reporting peer all feed `sink`.
fn traced_net(
    config: &PipelineConfig,
    chaincodes: Vec<Arc<dyn fabricpp_suite::peer::chaincode::Chaincode>>,
    genesis: &[(Key, Value)],
    sink: TraceSink,
) -> ChaosNet {
    let opts = ChaosOptions { sink, ..ChaosOptions::default() };
    ChaosNet::with_options(config, 2, 1, chaincodes, genesis, FaultPlan::quiescent(0), opts)
        .unwrap()
}

fn endorse(net: &ChaosNet, client: u64, cc: &str) -> fabric_common::Transaction {
    match net.propose(client, cc, vec![]) {
        ProposeOutcome::Endorsed(tx) => *tx,
        other => panic!("{cc} must endorse, got {other:?}"),
    }
}

/// Label → count over the retained events, for counter cross-checks.
fn count(events: &[fabricpp_suite::trace::TraceEvent], label: &str) -> u64 {
    events.iter().filter(|e| e.kind.label() == label).count() as u64
}

/// Table 1: arrival order `T1 ⇒ T2 ⇒ T3 ⇒ T4` under vanilla Fabric. T1
/// commits; T2–T4 die in MVCC validation, each naming `k1`, the genesis
/// version they read, and T1 as the in-block conflicting writer.
#[test]
fn table_1_vanilla_mvcc_conflicts_carry_provenance() {
    let sink = TraceSink::bounded(1024);
    let mut net = traced_net(
        &PipelineConfig::vanilla(),
        example_chaincodes(),
        &example_genesis(),
        sink.clone(),
    );

    let txs: Vec<_> = (1..=4).map(|i| endorse(&net, i as u64, &format!("t{i}"))).collect();
    let t1_id = txs[0].id;
    let ids: Vec<_> = txs.iter().map(|t| t.id).collect();
    // The version of k1 every reader recorded (the genesis version).
    let k1_read = txs[1]
        .rwset
        .reads
        .entries()
        .iter()
        .find(|e| e.key == Key::from("k1"))
        .expect("T2 reads k1")
        .version;
    assert!(k1_read.is_some(), "genesis keys carry a version");

    for tx in txs {
        net.submit(tx);
    }
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(
        block.validity,
        vec![
            ValidationCode::Valid,        // T1
            ValidationCode::MvccConflict, // T2: k1 was updated in-block
            ValidationCode::MvccConflict, // T3
            ValidationCode::MvccConflict, // T4
        ],
        "Table 1: only one of the four is valid in arrival order"
    );

    let stats = net.stats();
    let events = sink.drain();

    // Each MVCC abort names k1, the stale genesis version, and T1.
    let conflicts: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TxMvccConflict { block, tx, key, expected, observed, writer } => {
                Some((*block, *tx, key.clone(), *expected, *observed, *writer))
            }
            _ => None,
        })
        .collect();
    assert_eq!(conflicts.len(), 3);
    for (i, (blk, tx, key, expected, observed, writer)) in conflicts.iter().enumerate() {
        assert_eq!(*blk, 1);
        assert_eq!(*tx, ids[i + 1], "aborts come in block order T2, T3, T4");
        assert_eq!(*key, Key::from("k1"), "the offending read is always k1");
        assert_eq!(*expected, None, "in-block conflict: no committed version yet");
        assert_eq!(*observed, k1_read, "the stale version each reader recorded");
        assert_eq!(*writer, Some(t1_id), "T1 is the conflicting writer");
    }

    // Exactly one commit event, naming T1.
    let committed: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TxCommitted { tx, .. } => Some(*tx),
            _ => None,
        })
        .collect();
    assert_eq!(committed, vec![t1_id]);

    // Counter cross-check: every counted outcome has its event.
    assert_eq!(stats.valid, 1);
    assert_eq!(stats.mvcc_conflict, 3);
    assert_eq!(count(&events, "mvcc_conflict"), stats.mvcc_conflict);
    assert_eq!(count(&events, "tx_committed"), stats.valid);
    assert_eq!(count(&events, "tx_submitted"), stats.submitted);
    assert_eq!(count(&events, "early_abort_cycle"), 0);
    assert_eq!(count(&events, "early_abort_version"), 0);
}

/// Table 2: the same four transactions under Fabric++. The reorderer
/// emits a conflict-free schedule (the paper's `T4 ⇒ T2 ⇒ T3 ⇒ T1` or an
/// equivalent), all four commit, and the trace shows a clean block with
/// zero abort events.
#[test]
fn table_2_fabricpp_rescues_all_four() {
    let sink = TraceSink::bounded(1024);
    let mut net = traced_net(
        &PipelineConfig::fabric_pp(),
        example_chaincodes(),
        &example_genesis(),
        sink.clone(),
    );

    for i in 1..=4u64 {
        let tx = endorse(&net, i, &format!("t{i}"));
        net.submit(tx);
    }
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(block.block.txs.len(), 4, "nothing early-aborted");
    assert_eq!(block.validity, vec![ValidationCode::Valid; 4], "Table 2: all four valid");

    let stats = net.stats();
    assert_eq!(stats.valid, 4);
    assert_eq!(stats.aborted(), 0);

    let events = sink.drain();
    assert_eq!(count(&events, "tx_committed"), 4);
    assert_eq!(count(&events, "mvcc_conflict"), 0);
    assert_eq!(count(&events, "early_abort_cycle"), 0);
    assert_eq!(count(&events, "early_abort_version"), 0);

    // The block-seal event records the reorder outcome: no conflict
    // cycle, nothing dropped.
    let sealed: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::BlockSealed { block, txs, early_aborted, sccs, .. } => {
                Some((*block, *txs, *early_aborted, *sccs))
            }
            _ => None,
        })
        .collect();
    assert_eq!(sealed, vec![(1, 4, 0, 0)]);
}

/// §5.2.2 provenance: two batched readers of `hot` at different versions.
/// The orderer drops the older reader, and the event names the offending
/// key, both versions, and the in-batch transaction that witnessed the
/// newer one.
#[test]
fn version_mismatch_event_names_key_versions_and_witness() {
    let bump = chaincode_fn("bump", |ctx, _| {
        let v = ctx.get_i64(&Key::from("hot")).map_err(|e| e.to_string())?.unwrap_or(0);
        ctx.put_i64(Key::from("hot"), v + 1);
        Ok(())
    });
    let reader = chaincode_fn("reader", |ctx, args| {
        let _ = ctx.get_i64(&Key::from("hot")).map_err(|e| e.to_string())?;
        ctx.put_i64(Key::new(args.to_vec()), 1);
        Ok(())
    });

    let sink = TraceSink::bounded(1024);
    let mut net = traced_net(
        &PipelineConfig::fabric_pp(),
        vec![bump, reader],
        &[(Key::from("hot"), Value::from_i64(0))],
        sink.clone(),
    );

    // T_old reads `hot` at genesis; a committed bump advances it to block
    // 1; T_new reads the bumped version. Both then batch together.
    let t_old = match net.propose(0, "reader", b"out-old".to_vec()) {
        ProposeOutcome::Endorsed(tx) => *tx,
        other => panic!("unexpected {other:?}"),
    };
    net.propose_and_submit(1, "bump", vec![]).unwrap();
    net.cut_block().unwrap();
    let t_new = match net.propose(2, "reader", b"out-new".to_vec()) {
        ProposeOutcome::Endorsed(tx) => *tx,
        other => panic!("unexpected {other:?}"),
    };

    let hot = Key::from("hot");
    let read_version = |tx: &fabric_common::Transaction| {
        tx.rwset.reads.entries().iter().find(|e| e.key == hot).expect("reads hot").version
    };
    let old_version = read_version(&t_old);
    let new_version = read_version(&t_new);
    assert_ne!(old_version, new_version);
    assert_eq!(new_version, Some(Version::new(1, 0)), "bumped in block 1");

    let (old_id, new_id) = (t_old.id, t_new.id);
    net.submit(t_old);
    net.submit(t_new);
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(block.block.txs.len(), 1, "older reader dropped before distribution");

    let stats = net.stats();
    assert_eq!(stats.early_abort_version_mismatch, 1);

    let events = sink.drain();
    let aborts: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TxEarlyAbortVersion { tx, key, expected, observed, conflicting } => {
                Some((*tx, key.clone(), *expected, *observed, *conflicting))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        aborts,
        vec![(old_id, hot, Version::new(1, 0), old_version, new_id)],
        "the event names the stale reader, the key, both versions, and the witness"
    );
    assert_eq!(count(&events, "early_abort_version"), stats.early_abort_version_mismatch);
}

/// §5.1 provenance: a two-transaction conflict cycle. One member is
/// aborted at order time; the event carries its SCC id and the cycle
/// size.
#[test]
fn cycle_abort_event_names_scc_and_size() {
    let swap = chaincode_fn("swap", |ctx, args| {
        let (r, w) = if args[0] == 0 { ("x", "y") } else { ("y", "x") };
        let v = ctx.get_i64(&Key::from(r)).map_err(|e| e.to_string())?.unwrap_or(0);
        ctx.put_i64(Key::from(w), v + 1);
        Ok(())
    });

    let sink = TraceSink::bounded(1024);
    let mut net = traced_net(
        &PipelineConfig::fabric_pp(),
        vec![swap],
        &[(Key::from("x"), Value::from_i64(1)), (Key::from("y"), Value::from_i64(2))],
        sink.clone(),
    );

    let ta = match net.propose(0, "swap", vec![0]) {
        ProposeOutcome::Endorsed(tx) => *tx,
        other => panic!("unexpected {other:?}"),
    };
    let tb = match net.propose(1, "swap", vec![1]) {
        ProposeOutcome::Endorsed(tx) => *tx,
        other => panic!("unexpected {other:?}"),
    };
    let (a_id, b_id) = (ta.id, tb.id);
    net.submit(ta);
    net.submit(tb);
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(block.block.txs.len(), 1, "one cycle member removed pre-distribution");

    let stats = net.stats();
    assert_eq!(stats.early_abort_cycle, 1);
    assert_eq!(stats.valid, 1);

    let events = sink.drain();
    let cycles: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::TxEarlyAbortCycle { tx, scc, scc_size } => Some((*tx, *scc, *scc_size)),
            _ => None,
        })
        .collect();
    assert_eq!(cycles.len(), 1);
    let (aborted_tx, _scc, scc_size) = cycles[0];
    assert!(aborted_tx == a_id || aborted_tx == b_id, "the victim is one of the two members");
    assert_eq!(scc_size, 2, "a two-transaction cycle");
    assert_eq!(count(&events, "early_abort_cycle"), stats.early_abort_cycle);

    // The seal event agrees: one SCC, one tx dropped.
    let sealed: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::BlockSealed { txs, early_aborted, sccs, .. } => {
                Some((*txs, *early_aborted, *sccs))
            }
            _ => None,
        })
        .collect();
    assert_eq!(sealed, vec![(1, 1, 1)]);
}
