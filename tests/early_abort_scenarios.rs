//! Scripted scenarios for each Fabric++ early-abort path (paper §5.2),
//! plus the paper's Figure 6 race, driven deterministically.

use std::sync::Arc;

use fabric_common::{
    ConcurrencyMode, CostModel, Key, OrgId, PeerId, PipelineConfig, SignerRegistry, SigningKey,
    ValidationCode, Value,
};
use fabric_statedb::{CommitWrite, MemStateDb, StateStore};
use fabric_chaos::{ChaosNet, FaultPlan, ProposeOutcome};
use fabricpp::chaincode_fn;
use fabricpp_suite::peer::chaincode::{Chaincode, ChaincodeRegistry, SimulationError};
use fabricpp_suite::peer::peer::Peer;
use fabricpp_suite::peer::validator::EndorsementPolicy;

fn read_both() -> Arc<dyn Chaincode> {
    chaincode_fn("read_both", |ctx, _args| {
        // Figure 6: read balA, then (after the concurrent commit) balB.
        let _ = ctx.get_i64(&Key::from("balA")).map_err(|e| e.to_string())?;
        let _ = ctx.get_i64(&Key::from("balB")).map_err(|e| e.to_string())?;
        ctx.put_i64(Key::from("out"), 1);
        Ok(())
    })
}

/// Paper Figure 6: a simulation pins last-block-ID = N, a concurrent
/// validation phase commits block N+1 touching a key the simulation reads
/// later → the simulation aborts at the read.
#[test]
fn figure_6_simulation_phase_early_abort() {
    // Drive the race deterministically with a chaincode that commits a
    // block between the two reads.
    let store = Arc::new(MemStateDb::with_genesis([
        (Key::from("balA"), Value::from_i64(70)),
        (Key::from("balB"), Value::from_i64(80)),
    ]));
    let store2 = Arc::clone(&store);

    let racing = chaincode_fn("racing", move |ctx, _args| {
        let a = ctx.get_i64(&Key::from("balA")).map_err(|e| e.to_string())?;
        assert_eq!(a, Some(70), "read before the commit is fresh");
        // The "validation phase" commits block 1 updating both balances.
        store2
            .apply_block(
                1,
                &[
                    CommitWrite::put(Key::from("balA"), Value::from_i64(50), 0),
                    CommitWrite::put(Key::from("balB"), Value::from_i64(100), 1),
                ],
            )
            .unwrap();
        // The next read must detect staleness (block 1 > snapshot 0).
        match ctx.get(&Key::from("balB")) {
            Err(SimulationError::StaleRead { key, snapshot_block, observed }) => {
                assert_eq!(key, Key::from("balB"));
                assert_eq!(snapshot_block, 0, "snapshot pinned before the commit");
                assert_eq!(observed, fabric_common::Version::new(1, 1));
                Err("aborted-as-expected".into())
            }
            other => Err(format!("expected stale read, got {other:?}")),
        }
    });

    let registry = SignerRegistry::new();
    let key = SigningKey::for_peer(PeerId(1), 1);
    registry.register(PeerId(1), key.clone());
    let mut ccs = ChaincodeRegistry::new();
    ccs.deploy("racing", racing);
    let peer = Peer::new(
        PeerId(1),
        OrgId(1),
        key,
        store,
        ccs,
        registry,
        EndorsementPolicy::any(),
        ConcurrencyMode::FineGrained,
        true,
        CostModel::raw(),
    );
    let proposal = fabric_common::TransactionProposal::new(
        fabric_common::ChannelId(0),
        fabric_common::ClientId(0),
        "racing",
        vec![],
    );
    // Even though the chaincode flattened the abort to a string, the
    // endorser surfaces the structured stale read: the client must be
    // "directly notified about the abort" (paper §5.2.1), and the flight
    // recorder needs the key/version provenance.
    match peer.endorse(&proposal) {
        Err(SimulationError::StaleRead { key, snapshot_block, observed }) => {
            assert_eq!(key, Key::from("balB"));
            assert_eq!(snapshot_block, 0);
            assert_eq!(observed, fabric_common::Version::new(1, 1));
        }
        other => panic!("unexpected: {other:?}"),
    }
}

/// Under the vanilla coarse lock the same interleaving is impossible: the
/// simulation would block validation, so reads are never stale *during*
/// simulation — they go stale while waiting in the orderer instead.
#[test]
fn coarse_lock_has_no_simulation_stale_reads() {
    let net = ChaosNet::new(
        &PipelineConfig::vanilla(),
        2,
        1,
        vec![read_both()],
        &[
            (Key::from("balA"), Value::from_i64(70)),
            (Key::from("balB"), Value::from_i64(80)),
        ],
        FaultPlan::quiescent(0),
    )
    .unwrap();
    for c in 0..5 {
        match net.propose(c, "read_both", vec![]) {
            ProposeOutcome::Endorsed(_) => {}
            other => panic!("vanilla simulation must never early-abort: {other:?}"),
        }
    }
    assert_eq!(net.stats().early_abort_simulation, 0);
}

/// §5.2.2: two transactions in one batch reading the same key at different
/// versions — the older reader is dropped by the orderer; the paper's
/// correction says explicitly it is the *former* (older) transaction.
#[test]
fn ordering_phase_version_mismatch_drops_older_reader() {
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

    let mut net = ChaosNet::new(
        &PipelineConfig::fabric_pp(),
        2,
        1,
        vec![bump, reader],
        &[(Key::from("hot"), Value::from_i64(0))],
        FaultPlan::quiescent(0),
    )
    .unwrap();

    // T_old reads `hot` at genesis.
    let t_old = match net.propose(0, "reader", b"out-old".to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };
    // A bump commits, advancing `hot` to block 1.
    net.propose_and_submit(1, "bump", vec![]).unwrap();
    net.cut_block().unwrap();
    // T_new reads `hot` at block 1.
    let t_new = match net.propose(2, "reader", b"out-new".to_vec()) {
        ProposeOutcome::Endorsed(tx) => tx,
        other => panic!("unexpected {other:?}"),
    };

    let (old_id, new_id) = (t_old.id, t_new.id);
    net.submit(t_old);
    net.submit(t_new);
    let n = net.cut_block().unwrap().expect("block");
    let block = net.reporting_peer().ledger().get(n).unwrap();

    assert_eq!(block.block.txs.len(), 1, "older reader dropped before distribution");
    assert_eq!(block.block.txs[0].id, new_id);
    assert_eq!(block.validity, vec![ValidationCode::Valid]);
    assert_eq!(net.stats().early_abort_version_mismatch, 1);
    assert!(net.reporting_peer().ledger().find_tx(old_id).is_none());
}

/// §5.1: cycle members are aborted in the ordering phase, before the block
/// ever ships — compare against vanilla where the same conflict is
/// detected only at validation on every peer.
#[test]
fn cycle_abort_happens_before_distribution() {
    let swap = chaincode_fn("swap", |ctx, args| {
        // Reads one key, writes the other.
        let (r, w) = if args[0] == 0 { ("x", "y") } else { ("y", "x") };
        let v = ctx.get_i64(&Key::from(r)).map_err(|e| e.to_string())?.unwrap_or(0);
        ctx.put_i64(Key::from(w), v + 1);
        Ok(())
    });
    let genesis = [
        (Key::from("x"), Value::from_i64(1)),
        (Key::from("y"), Value::from_i64(2)),
    ];

    // Fabric++: one of the two cycle members dies at order time.
    let quiet = || FaultPlan::quiescent(0);
    let mut pp =
        ChaosNet::new(&PipelineConfig::fabric_pp(), 2, 1, vec![swap.clone()], &genesis, quiet())
            .unwrap();
    pp.propose_and_submit(0, "swap", vec![0]).unwrap();
    pp.propose_and_submit(1, "swap", vec![1]).unwrap();
    let n = pp.cut_block().unwrap().expect("block");
    let block = pp.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(block.block.txs.len(), 1, "cycle member removed pre-distribution");
    assert_eq!(pp.stats().early_abort_cycle, 1);
    assert_eq!(pp.stats().valid, 1);

    // Vanilla: both ship; the second aborts at validation on every peer.
    let mut v =
        ChaosNet::new(&PipelineConfig::vanilla(), 2, 1, vec![swap], &genesis, quiet()).unwrap();
    v.propose_and_submit(0, "swap", vec![0]).unwrap();
    v.propose_and_submit(1, "swap", vec![1]).unwrap();
    let n = v.cut_block().unwrap().expect("block");
    let block = v.reporting_peer().ledger().get(n).unwrap();
    assert_eq!(block.block.txs.len(), 2, "vanilla ships doomed transactions");
    assert_eq!(block.valid_count(), 1);
    assert_eq!(v.stats().mvcc_conflict, 1);
}
