//! Criterion benchmarks over whole pipeline phases, using the deterministic
//! single-threaded driver (a fault-free `ChaosNet`): endorsement
//! (simulation + signing), block ordering (arrival vs. reordered), and
//! block validation + commit. These decompose where time goes in an
//! end-to-end transaction, the simulator-level analogue of the paper's
//! Figure 1 observation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fabric_chaos::{ChaosNet, FaultPlan, ProposeOutcome};
use fabric_common::{CostModel, Key, PipelineConfig, Value};
use fabric_workloads::custom::CustomChaincode;
use fabric_workloads::{CustomConfig, CustomWorkload, WorkloadGen};

fn net(cfg: &PipelineConfig) -> (ChaosNet, CustomWorkload) {
    let wl_cfg = CustomConfig { accounts: 10_000, ..Default::default() };
    let genesis: Vec<(Key, Value)> = CustomWorkload::new(wl_cfg.clone()).genesis();
    let cc = vec![CustomChaincode::deployable()];
    let net = ChaosNet::new(cfg, 2, 2, cc, &genesis, FaultPlan::quiescent(0)).unwrap();
    (net, CustomWorkload::new(wl_cfg))
}

fn bench_endorsement(c: &mut Criterion) {
    // CostModel::raw() is used by ChaosNet: this measures the real pipeline
    // work (simulation + one HMAC per endorser), not the ECDSA stand-in.
    let (net, mut wl) = net(&PipelineConfig::fabric_pp());
    c.bench_function("endorse_custom_rw8", |b| {
        b.iter(|| match net.propose(0, "custom", black_box(wl.next_args())) {
            ProposeOutcome::Endorsed(tx) => tx,
            other => panic!("unexpected {other:?}"),
        })
    });
}

fn bench_block_commit(c: &mut Criterion) {
    let mut g = c.benchmark_group("order_validate_commit_256tx");
    g.sample_size(10);
    for (name, cfg) in [
        ("fabric", PipelineConfig::vanilla()),
        ("fabric++", PipelineConfig::fabric_pp()),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter_batched(
                || {
                    let (mut net, mut wl) = net(cfg);
                    for client in 0..256u64 {
                        net.propose_and_submit(client, "custom", wl.next_args());
                    }
                    net
                },
                |mut net| {
                    net.cut_block().unwrap();
                    net
                },
                criterion::BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

fn bench_cost_model_overhead(c: &mut Criterion) {
    // How much the default ECDSA-approximating cost model adds per
    // endorsement signature, relative to raw.
    let key = fabric_common::SigningKey::for_peer(fabric_common::PeerId(1), 1);
    let payload = vec![0u8; 400];
    let mut g = c.benchmark_group("endorsement_signature");
    let default_cost = CostModel::default();
    g.bench_function("raw", |b| b.iter(|| key.sign_iterated(black_box(&[&payload]), 1)));
    g.bench_function("paper_cost_model", |b| {
        b.iter(|| key.sign_iterated(black_box(&[&payload]), default_cost.sign_iterations))
    });
    g.finish();
}

criterion_group!(benches, bench_endorsement, bench_block_commit, bench_cost_model_overhead);
criterion_main!(benches);
