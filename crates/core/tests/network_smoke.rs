//! Threaded-network smoke tests for the core crate's public API surface:
//! builder validation, client retry plumbing, orderer telemetry,
//! multi-channel isolation, and in-order block delivery and sharing.

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

/// Waits until every peer's ledger stands at one common height of at
/// least `min`, and returns it.
fn await_level(peers: &[Arc<fabric_peer::Peer>], min: u64) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let h = peers[0].ledger().height();
        if h >= min && peers.iter().all(|p| p.ledger().height() == h) {
            return h;
        }
        assert!(std::time::Instant::now() < deadline, "peers not level at height {min}+");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn every_peer_ledger_shares_one_copy_of_each_block() {
    // The orderer seals each block into one `Arc`: the direct and gossip
    // links and every peer's ledger tip hold that one allocation. Once the
    // next block commits everywhere, each ledger has spilled it to its
    // block file and dropped it, so no ledger keeps the delivered block
    // alive. Under LAN latency the gossip peers get each block a jittered
    // second hop later; their FIFO links must still hand over every block
    // once, in order.
    for latency in [LatencyModel::zero(), LatencyModel::lan()] {
        let net = fast_builder()
            .peers_per_org(2)
            .latency(latency.clone())
            .pipeline(PipelineConfig::fabric_pp().with_block_size(4))
            .build()
            .unwrap();
        let client = net.client(0);
        let peers = net.channel_peers(0);
        let mut delivered: Vec<(u64, std::sync::Weak<fabric_ledger::Block>)> = Vec::new();
        for round in 0..3u64 {
            for i in 0..4u64 {
                client.submit("count", Key::composite("k", round * 4 + i).as_bytes().to_vec());
            }
            // Each round cuts at least one block past the last tip seen.
            let min = delivered.last().map_or(1, |(n, _)| n + 1) + 1;
            let tip = await_level(&peers, min) - 1;
            let first = peers[0].ledger().get(tip).unwrap();
            for peer in &peers[1..] {
                let other = peer.ledger().get(tip).unwrap();
                assert!(
                    Arc::ptr_eq(&first.block, &other.block),
                    "{latency:?}: tip block {tip} was copied"
                );
            }
            for (n, block) in &delivered {
                assert!(
                    block.upgrade().is_none(),
                    "{latency:?}: block {n} still held after block {tip} committed everywhere"
                );
            }
            delivered.push((tip, Arc::downgrade(&first.block)));
        }
        drop(client);
        let height = net.finish().block_heights[0];
        assert!(height >= 4, "{latency:?}: 12 txs at BS=4 cut at least three blocks");
        for peer in &peers[1..] {
            assert_eq!(peer.ledger().height(), height, "{latency:?}: peer behind peer 0");
            assert_eq!(peer.ledger().tip_hash(), peers[0].ledger().tip_hash(), "{latency:?}");
        }
        for n in 0..height {
            let first = peers[0].ledger().get(n).unwrap();
            let ids: Vec<_> = first.block.txs.iter().map(|tx| tx.id).collect();
            for peer in &peers[1..] {
                let other = peer.ledger().get(n).unwrap();
                assert_eq!(
                    other.block.header.hash(),
                    first.block.header.hash(),
                    "{latency:?}: block {n}"
                );
                assert_eq!(other.validity, first.validity, "{latency:?}: block {n}");
                let other_ids: Vec<_> = other.block.txs.iter().map(|tx| tx.id).collect();
                assert_eq!(other_ids, ids, "{latency:?}: block {n}");
            }
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
