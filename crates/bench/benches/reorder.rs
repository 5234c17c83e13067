//! Criterion micro-benchmarks for the reordering mechanism — the kernels
//! behind Figures 15 and 16 plus the per-phase costs of Algorithm 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
use fabric_common::{Key, Value, Version};
use fabric_reorder::tarjan::strongly_connected_components;
use fabric_reorder::{reorder, ConflictGraph, ReorderConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tx(reads: &[u64], writes: &[u64]) -> ReadWriteSet {
    let rk: Vec<Key> = reads.iter().map(|&i| Key::composite("K", i)).collect();
    let wk: Vec<Key> = writes.iter().map(|&i| Key::composite("K", i)).collect();
    rwset_from_keys(&rk, Version::GENESIS, &wk, &Value::from_i64(1))
}

/// The Figure 1/10 hot-block shape: 1024 txs, RW=8, HR=40%, HW=10%,
/// HSS=1% of 10k accounts.
fn hot_block(n: usize) -> Vec<ReadWriteSet> {
    let mut rng = StdRng::seed_from_u64(1);
    let pick = |rng: &mut StdRng, hot_p: f64| -> u64 {
        if rng.random::<f64>() < hot_p {
            rng.random_range(0..100)
        } else {
            rng.random_range(100..10_000)
        }
    };
    (0..n)
        .map(|_| {
            let reads: Vec<u64> = (0..8).map(|_| pick(&mut rng, 0.4)).collect();
            let writes: Vec<u64> = (0..8).map(|_| pick(&mut rng, 0.1)).collect();
            tx(&reads, &writes)
        })
        .collect()
}

/// Disjoint transactions: the no-conflict fast path.
fn disjoint_block(n: usize) -> Vec<ReadWriteSet> {
    (0..n as u64).map(|i| tx(&[2 * i], &[2 * i + 1])).collect()
}

/// One giant cycle (Figure 16's hardest point).
fn cycle_block(n: usize) -> Vec<ReadWriteSet> {
    (0..n as u64).map(|i| tx(&[i], &[(i + 1) % n as u64])).collect()
}

fn bench_conflict_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("conflict_graph");
    for (name, block) in [
        ("hot_1024", hot_block(1024)),
        ("disjoint_1024", disjoint_block(1024)),
    ] {
        let refs: Vec<&ReadWriteSet> = block.iter().collect();
        g.bench_with_input(BenchmarkId::new("inverted_index", name), &refs, |b, refs| {
            b.iter(|| ConflictGraph::build(black_box(refs)))
        });
        // The paper's bit-vector construction, for comparison (quadratic).
        if name == "disjoint_1024" {
            g.bench_with_input(BenchmarkId::new("bitset_paper", name), &refs, |b, refs| {
                b.iter(|| ConflictGraph::build_bitset(black_box(refs)))
            });
        }
    }
    g.finish();
}

fn bench_tarjan(c: &mut Criterion) {
    let block = hot_block(1024);
    let refs: Vec<&ReadWriteSet> = block.iter().collect();
    let cg = ConflictGraph::build(&refs);
    c.bench_function("tarjan_hot_1024", |b| {
        b.iter(|| strongly_connected_components(black_box(&cg)))
    });
}

fn bench_full_reorder(c: &mut Criterion) {
    let mut g = c.benchmark_group("reorder_full");
    g.sample_size(20);
    for (name, block) in [
        ("hot_1024", hot_block(1024)),
        ("disjoint_1024", disjoint_block(1024)),
        ("cycle_512", cycle_block(512)),
    ] {
        let refs: Vec<&ReadWriteSet> = block.iter().collect();
        g.bench_with_input(BenchmarkId::from_parameter(name), &refs, |b, refs| {
            b.iter(|| reorder(black_box(refs), &ReorderConfig::default()))
        });
    }
    g.finish();
}

fn bench_block_size_scaling(c: &mut Criterion) {
    // How reorder cost scales with the blocksize (context for Figure 7).
    let mut g = c.benchmark_group("reorder_by_blocksize");
    g.sample_size(20);
    for bs in [64usize, 256, 1024] {
        let block = hot_block(bs);
        let refs: Vec<&ReadWriteSet> = block.iter().collect();
        g.bench_with_input(BenchmarkId::from_parameter(bs), &refs, |b, refs| {
            b.iter(|| reorder(black_box(refs), &ReorderConfig::default()))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_conflict_graph,
    bench_tarjan,
    bench_full_reorder,
    bench_block_size_scaling
);
criterion_main!(benches);
