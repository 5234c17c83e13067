//! Cross-mode invariants: the four pipeline configurations of the paper's
//! Figure 10 breakdown, run on the same deterministic conflict-heavy
//! scenario. Fabric++ must never commit fewer transactions than vanilla,
//! and each optimization alone must sit between the two.

use std::sync::Arc;

use fabric_chaos::{ChaosNet, FaultPlan};
use fabric_common::{Key, PipelineConfig, Value};
use fabricpp::chaincode_fn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chaincode: read `n` accounts, write their sum to `n` other accounts.
fn rw_chaincode() -> Arc<dyn fabricpp_suite::peer::chaincode::Chaincode> {
    chaincode_fn("rw", |ctx, args| {
        let n = args[0] as usize;
        let id = |i: usize| u64::from_le_bytes(args[1 + 8 * i..9 + 8 * i].try_into().unwrap());
        let mut acc = 0i64;
        for i in 0..n {
            let k = Key::composite("a", id(i));
            acc += ctx.get_i64(&k).map_err(|e| e.to_string())?.ok_or("missing")?;
        }
        for i in n..2 * n {
            ctx.put_i64(Key::composite("a", id(i)), acc + i as i64);
        }
        Ok(())
    })
}

fn args(reads: &[u64], writes: &[u64]) -> Vec<u8> {
    let mut v = vec![reads.len() as u8];
    for id in reads.iter().chain(writes.iter()) {
        v.extend_from_slice(&id.to_le_bytes());
    }
    v
}

const ACCOUNTS: u64 = 60;
const HOT: u64 = 4;

fn genesis() -> Vec<(Key, Value)> {
    (0..ACCOUNTS).map(|i| (Key::composite("a", i), Value::from_i64(10))).collect()
}

/// Fires `batches × per_batch` hot-key transactions through one mode and
/// returns (valid, aborted) totals.
fn run_mode(cfg: &PipelineConfig, seed: u64) -> (u64, u64) {
    let mut net =
        ChaosNet::new(cfg, 2, 1, vec![rw_chaincode()], &genesis(), FaultPlan::quiescent(0))
            .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for _batch in 0..6 {
        for client in 0..20u64 {
            // Two reads, two writes; heavily skewed toward the hot set.
            let pick = |rng: &mut StdRng, hot_p: f64| -> u64 {
                if rng.random::<f64>() < hot_p {
                    rng.random_range(0..HOT)
                } else {
                    rng.random_range(HOT..ACCOUNTS)
                }
            };
            let reads = [pick(&mut rng, 0.6), pick(&mut rng, 0.6)];
            let writes = [pick(&mut rng, 0.3), pick(&mut rng, 0.3)];
            net.propose_and_submit(client, "rw", args(&reads, &writes));
        }
        net.cut_block().unwrap();
    }
    let s = net.stats();
    (s.valid, s.aborted())
}

#[test]
fn fabricpp_dominates_vanilla_on_conflict_heavy_load() {
    let (vanilla_valid, vanilla_aborted) = run_mode(&PipelineConfig::vanilla(), 99);
    let (pp_valid, pp_aborted) = run_mode(&PipelineConfig::fabric_pp(), 99);
    let (ro_valid, _) = run_mode(&PipelineConfig::reordering_only(), 99);

    // Every submission reaches an outcome in every mode.
    assert_eq!(vanilla_valid + vanilla_aborted, 120);
    assert_eq!(pp_valid + pp_aborted, 120);

    assert!(
        pp_valid > vanilla_valid,
        "fabric++ {pp_valid} must beat vanilla {vanilla_valid}"
    );
    assert!(
        ro_valid >= vanilla_valid,
        "reordering-only {ro_valid} must not lose to vanilla {vanilla_valid}"
    );
    // There must be real contention for the comparison to mean anything.
    assert!(vanilla_aborted > 10, "scenario must actually conflict");
}

#[test]
fn all_modes_preserve_pipeline_invariants() {
    for cfg in [
        PipelineConfig::vanilla(),
        PipelineConfig::reordering_only(),
        PipelineConfig::early_abort_only(),
        PipelineConfig::fabric_pp(),
    ] {
        let mut net =
            ChaosNet::new(&cfg, 2, 2, vec![rw_chaincode()], &genesis(), FaultPlan::quiescent(0))
                .unwrap();
        for client in 0..10u64 {
            net.propose_and_submit(client, "rw", args(&[client % 5], &[(client + 1) % 5]));
        }
        net.cut_block().unwrap();
        let s = net.stats();
        assert_eq!(s.finished(), s.submitted, "mode {}", cfg.mode_label());
        // All peers converge to the same chain.
        let tip = net.reporting_peer().ledger().tip_hash();
        for peer in net.peers() {
            assert_eq!(peer.ledger().tip_hash(), tip, "mode {}", cfg.mode_label());
            peer.ledger().verify_chain().unwrap();
        }
    }
}

#[test]
fn deterministic_chains_across_identical_runs() {
    let run = || {
        let mut net = ChaosNet::new(
            &PipelineConfig::fabric_pp(),
            2,
            1,
            vec![rw_chaincode()],
            &genesis(),
            FaultPlan::quiescent(0),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for client in 0..15u64 {
            let reads = [rng.random_range(0..ACCOUNTS)];
            let writes = [rng.random_range(0..ACCOUNTS)];
            net.propose_and_submit(client, "rw", args(&reads, &writes));
        }
        let n = net.cut_block().unwrap().expect("block");
        let block = net.reporting_peer().ledger().get(n).unwrap();
        (block.block.header.data_hash, block.valid_count())
    };
    // TxIds differ between runs (global counter), so data hashes differ,
    // but the committed *state* and valid counts must match.
    let (_, v1) = run();
    let (_, v2) = run();
    assert_eq!(v1, v2);
}
