//! Criterion micro-benchmarks for the crypto substrate: SHA-256, HMAC
//! signatures, and the iterated cost-model signatures. These quantify the
//! "cryptographic computations" share of the pipeline the paper identifies
//! as dominant (§3 point (d), Figure 1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fabric_common::hash::sha256;
use fabric_common::{PeerId, SigningKey};

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 512, 4096, 65536] {
        let data = vec![0xabu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha256(black_box(d)))
        });
    }
    g.finish();
}

fn bench_hmac_sign_verify(c: &mut Criterion) {
    let key = SigningKey::for_peer(PeerId(1), 42);
    // A realistic endorsement payload: ~500 bytes of encoded rwset.
    let payload = vec![0x5au8; 500];

    c.bench_function("hmac_sign_500B", |b| {
        b.iter(|| key.sign_parts(&[black_box(&payload)]))
    });

    let sig = key.sign_parts(&[&payload]);
    c.bench_function("hmac_verify_500B", |b| {
        b.iter(|| key.verify_parts(&[black_box(&payload)], &sig))
    });
}

fn bench_cost_model_signature(c: &mut Criterion) {
    // The default CostModel runs 512 HMAC iterations to approximate ECDSA.
    let key = SigningKey::for_peer(PeerId(1), 42);
    let payload = vec![0x5au8; 500];
    let mut g = c.benchmark_group("sign_iterated");
    for iters in [1u32, 16, 64, 512] {
        g.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &n| {
            b.iter(|| key.sign_iterated(&[black_box(&payload)], n))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sha256, bench_hmac_sign_verify, bench_cost_model_signature);
criterion_main!(benches);
