//! Quickstart: spin up a Fabric++ network, run a few transfers, inspect
//! the outcome.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```


use fabric_common::{Key, PipelineConfig, Value};
use fabricpp::{chaincode_fn, NetworkBuilder};

fn main() {
    // A tiny asset-transfer chaincode: args = [from u64][to u64][amount i64].
    let transfer = chaincode_fn("transfer", |ctx, args| {
        if args.len() != 24 {
            return Err("args must be 24 bytes".into());
        }
        let from = Key::composite("acct", u64::from_le_bytes(args[0..8].try_into().unwrap()));
        let to = Key::composite("acct", u64::from_le_bytes(args[8..16].try_into().unwrap()));
        let amount = i64::from_le_bytes(args[16..24].try_into().unwrap());
        let fb = ctx.get_i64(&from).map_err(|e| e.to_string())?.ok_or("unknown sender")?;
        let tb = ctx.get_i64(&to).map_err(|e| e.to_string())?.ok_or("unknown receiver")?;
        if fb < amount {
            return Err("insufficient funds".into());
        }
        ctx.put_i64(from, fb - amount);
        ctx.put_i64(to, tb + amount);
        Ok(())
    });

    // Two organizations with two peers each — the paper's topology — and
    // 100 accounts with 1000 units each.
    let net = NetworkBuilder::new()
        .orgs(2)
        .peers_per_org(2)
        .pipeline(PipelineConfig::fabric_pp())
        .deploy(transfer)
        .genesis((0..100).map(|i| (Key::composite("acct", i), Value::from_i64(1000))))
        .build()
        .expect("network construction");

    // Fire 200 transfers from 2 concurrent clients.
    let mut handles = Vec::new();
    for c in 0..2u64 {
        let client = net.client(0);
        handles.push(std::thread::spawn(move || {
            for i in 0..100u64 {
                let from = (c * 50 + i) % 100;
                let to = (from + 7) % 100;
                let mut args = Vec::with_capacity(24);
                args.extend_from_slice(&from.to_le_bytes());
                args.extend_from_slice(&to.to_le_bytes());
                args.extend_from_slice(&5i64.to_le_bytes());
                client.submit("transfer", args);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Drain the pipeline and print the report. The peer handles outlive
    // the network, so their final ledgers can be compared afterwards.
    let peers = net.channel_peers(0);
    let report = net.finish();
    println!("elapsed:          {:?}", report.elapsed);
    println!("submitted:        {}", report.stats.submitted);
    println!("valid:            {}", report.stats.valid);
    println!("aborted:          {}", report.stats.aborted());
    println!("chain height:     {}", report.block_heights[0]);
    println!("network messages: {} ({} bytes)", report.net_messages, report.net_bytes);
    println!("avg latency:      {:?}", report.latency.avg);
    assert_eq!(report.stats.finished(), report.stats.submitted);
    // Every peer received the same blocks in the same order.
    assert_eq!(peers.len(), 4);
    for peer in &peers {
        assert_eq!(peer.ledger().height(), report.block_heights[0]);
        assert_eq!(peer.ledger().tip_hash(), peers[0].ledger().tip_hash());
    }
}
