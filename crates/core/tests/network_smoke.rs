//! Threaded-network smoke tests for the core crate's public API surface:
//! builder validation, client retry plumbing, orderer telemetry,
//! multi-channel isolation, crash/restart, and block sharing.

use std::sync::Arc;
use std::time::Duration;

use fabric_common::{CostModel, Key, PipelineConfig, Value};
use fabric_net::LatencyModel;
use fabricpp::{chaincode_fn, NetworkBuilder, SubmitOutcome};

fn counter_chaincode() -> Arc<dyn fabric_peer::chaincode::Chaincode> {
    chaincode_fn("count", |ctx, args| {
        let k = Key::new(args.to_vec());
        let v = ctx.get_i64(&k).map_err(|e| e.to_string())?.unwrap_or(0);
        ctx.put_i64(k, v + 1);
        Ok(())
    })
}

fn fast_builder() -> NetworkBuilder {
    NetworkBuilder::new()
        .orgs(2)
        .peers_per_org(1)
        .cost(CostModel::raw())
        .latency(LatencyModel::zero())
        .deploy(counter_chaincode())
        .genesis([(Key::from("c"), Value::from_i64(0))])
}

#[test]
fn builder_rejects_degenerate_topologies() {
    assert!(NetworkBuilder::new().orgs(0).build().is_err());
    assert!(NetworkBuilder::new().peers_per_org(0).build().is_err());
    assert!(NetworkBuilder::new().channels(0).build().is_err());
    let mut bad = PipelineConfig::fabric_pp();
    bad.validation_workers = 0;
    assert!(NetworkBuilder::new().pipeline(bad).build().is_err());
}

#[test]
fn submit_outcomes_and_retry_plumbing() {
    let net = fast_builder().build().unwrap();
    let client = net.client(0);

    // Normal path: submitted without retries.
    let (outcome, retries) = client.submit_with_retry("count", b"c".to_vec(), 3);
    assert!(outcome.is_submitted());
    assert_eq!(retries, 0);

    // Unknown chaincode: rejected immediately, never retried.
    let (outcome, retries) = client.submit_with_retry("nope", vec![], 3);
    assert!(matches!(outcome, SubmitOutcome::Rejected(_)));
    assert_eq!(retries, 0);

    drop(client);
    let report = net.finish();
    assert_eq!(report.stats.submitted, 2);
    assert_eq!(report.stats.valid, 1);
}

#[test]
fn orderer_telemetry_reports_cut_reasons() {
    let net = fast_builder()
        .pipeline(PipelineConfig::fabric_pp().with_block_size(4))
        .build()
        .unwrap();
    let client = net.client(0);
    for i in 0..10u64 {
        client.submit("count", Key::composite("k", i).as_bytes().to_vec());
    }
    drop(client);
    let report = net.finish();
    let ord = report.orderer;
    assert!(ord.blocks >= 2, "10 txs at BS=4 must cut at least twice");
    assert!(ord.cut_tx_count >= 2, "count condition must have fired");
    assert_eq!(
        ord.blocks,
        ord.cut_tx_count + ord.cut_bytes + ord.cut_timeout + ord.cut_unique_keys + ord.cut_flush
    );
    assert_eq!(ord.txs_ordered, 10);
}

#[test]
fn channels_are_isolated() {
    let net = fast_builder().channels(2).build().unwrap();
    // Only channel 0 receives traffic.
    let client = net.client(0);
    for _ in 0..5 {
        client.submit("count", b"c".to_vec());
    }
    drop(client);

    // Channel 1's peers never see those transactions.
    let ch1_state = net.channel_peers(1)[0].store().clone();
    let report = net.finish();
    assert!(report.block_heights[0] > 1, "channel 0 advanced");
    assert_eq!(report.block_heights[1], 1, "channel 1 stayed at genesis");
    assert_eq!(
        ch1_state.get(&Key::from("c")).unwrap().unwrap().value,
        Value::from_i64(0),
        "channel 1 state untouched"
    );
}

#[test]
fn crash_and_restart_peer_mid_run_converges() {
    let net = fast_builder().peers_per_org(2).build().unwrap();
    let client = net.client(0);
    // Disjoint keys so nothing conflicts: every submission must commit.
    for i in 0..5u64 {
        client.submit("count", Key::composite("k", i).as_bytes().to_vec());
    }
    // Let the first batch reach the peers, then crash a gossip peer.
    std::thread::sleep(Duration::from_millis(50));
    net.crash_peer(0, 1);
    assert!(net.is_peer_down(0, 1));
    for i in 5..10u64 {
        client.submit("count", Key::composite("k", i).as_bytes().to_vec());
    }
    std::thread::sleep(Duration::from_millis(50));

    // Restart: recovery from its own chain + catch-up from the archive.
    net.restart_peer(0, 1).unwrap();
    assert!(!net.is_peer_down(0, 1));
    for i in 10..15u64 {
        client.submit("count", Key::composite("k", i).as_bytes().to_vec());
    }
    drop(client);

    let peers = net.channel_peers(0);
    let report = net.finish();
    assert_eq!(report.stats.valid, 15);
    let reference = &peers[0];
    for peer in &peers {
        assert_eq!(peer.ledger().tip_hash(), reference.ledger().tip_hash());
        peer.ledger().verify_chain().unwrap();
        for i in 0..15u64 {
            assert_eq!(
                peer.store().get(&Key::composite("k", i)).unwrap().unwrap().value,
                Value::from_i64(1),
                "restarted peer must converge to the same state"
            );
        }
    }
}

#[test]
fn restart_of_a_live_peer_is_refused() {
    // A live peer's thread may be committing on its current incarnation;
    // swapping a rebuilt one into the slot underneath it must not happen.
    let net = fast_builder().peers_per_org(2).build().unwrap();
    let client = net.client(0);
    client.submit("count", b"c".to_vec());
    drop(client);
    for idx in [0, 1] {
        let before = net.channel_peers(0);
        assert!(net.restart_peer(0, idx).is_err(), "peer {idx} is live");
        let after = net.channel_peers(0);
        assert!(Arc::ptr_eq(&before[idx], &after[idx]), "slot {idx} was swapped");
    }
    assert_eq!(net.finish().stats.valid, 1);
}

#[test]
fn every_peer_ledger_shares_one_copy_of_each_block() {
    // The orderer seals each block into one `Arc`: the archive, the direct
    // and gossip links and every peer's ledger hold that one allocation.
    let net = fast_builder()
        .peers_per_org(2)
        .pipeline(PipelineConfig::fabric_pp().with_block_size(4))
        .build()
        .unwrap();
    let client = net.client(0);
    for i in 0..12u64 {
        client.submit("count", Key::composite("k", i).as_bytes().to_vec());
    }
    drop(client);
    let peers = net.channel_peers(0);
    let height = net.finish().block_heights[0];
    assert!(height >= 4, "12 txs at BS=4 cut at least three blocks");
    for n in 1..height {
        let first = peers[0].ledger().get(n).unwrap();
        for peer in &peers[1..] {
            let other = peer.ledger().get(n).unwrap();
            assert!(Arc::ptr_eq(&first.block, &other.block), "block {n} was copied");
        }
    }
}

#[test]
fn unique_keys_cutting_condition_fires() {
    // Fabric++ batch-cutting condition (d): keys per block bounded.
    let mut pipeline = PipelineConfig::fabric_pp();
    pipeline.cutting.max_unique_keys = Some(6);
    pipeline.cutting.max_tx_count = 1000;
    pipeline.cutting.max_batch_wait = Duration::from_millis(200);
    let net = fast_builder().pipeline(pipeline).build().unwrap();
    let client = net.client(0);
    for i in 0..12u64 {
        // Each tx touches a distinct key → 6-key bound cuts every ~6 txs.
        client.submit("count", Key::composite("u", i).as_bytes().to_vec());
    }
    drop(client);
    let report = net.finish();
    assert!(
        report.orderer.cut_unique_keys >= 1,
        "unique-keys condition never fired: {:?}",
        report.orderer
    );
}
