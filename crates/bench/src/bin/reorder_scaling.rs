//! **Reorder scaling** — ordering-stage throughput as the reorder worker
//! pool grows (workers ∈ {1, 2, 4, 8}).
//!
//! Fabric++ puts Algorithm 1 on the orderer's critical path; the
//! [`ReorderPipeline`] moves it onto worker threads so the cutter can keep
//! cutting batch *k+1* while batch *k* reorders, with only numbering and
//! hash chaining sequential. This sweep drives synthetic cut batches
//! (batch size × conflict rate grid) straight through pipeline + seal and
//! reports ordering throughput per worker count — on a multi-core box the
//! conflict-heavy points should scale with workers, on a single-core host
//! the columns are honest parity (extra workers time-slice one core).
//!
//! `--smoke` (used by CI) runs the differential gate only at a reduced
//! grid: for every worker count the pipelined block stream must be
//! **byte-identical** to the sequential `order_batch` path — same block
//! numbers, same header hashes (hence the same whole hash chain), same
//! transaction order, same early aborts.

use std::time::{Duration, Instant};

use fabric_bench::runner::print_row;
use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    default_reorder_workers, ChannelId, ClientId, Key, PipelineConfig, Transaction, TxId, Value,
    Version,
};
use fabric_ordering::{CutReason, OrderingService, PreparedBatch, ReorderPipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An endorsed-shaped transaction reading/writing the given key ids.
/// Reads all carry `Version::GENESIS` so the ordering-phase early abort
/// never fires and the sweep isolates the reordering cost.
fn mk_tx(reads: &[u64], writes: &[u64]) -> Transaction {
    let mut b = RwSetBuilder::new();
    for &k in reads {
        b.record_read(Key::composite("K", k), Some(Version::GENESIS));
    }
    for &k in writes {
        b.record_write(Key::composite("K", k), Some(Value::from_i64(1)));
    }
    Transaction {
        id: TxId::next(),
        channel: ChannelId(0),
        client: ClientId(0),
        chaincode: "cc".into(),
        rwset: b.build(),
        endorsements: vec![],
        created_at: Instant::now(),
    }
}

/// Synthetic cut batches: each transaction reads 4 and writes 4 keys;
/// with probability `conflict` a key comes from a 16-key hot set (dense
/// conflict cycles), otherwise from a large cold range (no conflicts).
fn make_batches(count: usize, batch_size: usize, conflict: f64, seed: u64) -> Vec<Vec<Transaction>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cold = 1_000u64;
    (0..count)
        .map(|_| {
            (0..batch_size)
                .map(|_| {
                    let mut pick = |rng: &mut StdRng| -> u64 {
                        if rng.random::<f64>() < conflict {
                            rng.random_range(0..16)
                        } else {
                            cold += 1;
                            cold
                        }
                    };
                    let reads: Vec<u64> = (0..4).map(|_| pick(&mut rng)).collect();
                    let writes: Vec<u64> = (0..4).map(|_| pick(&mut rng)).collect();
                    mk_tx(&reads, &writes)
                })
                .collect()
        })
        .collect()
}

/// Fingerprint of an ordered block stream: (number, header hash, tx ids,
/// early-aborted ids+codes) per block. Header hashes chain, so equal
/// fingerprints mean byte-identical chains.
type StreamPrint = Vec<(u64, String, Vec<u64>, usize)>;

fn seal_all(
    service: &mut OrderingService,
    prepared: impl IntoIterator<Item = PreparedBatch>,
    out: &mut StreamPrint,
) {
    for p in prepared {
        if let Some(ob) = service.seal(p.plan) {
            out.push((
                ob.block.header.number,
                format!("{:?}", ob.block.header.hash()),
                ob.block.txs.iter().map(|t| t.id.raw()).collect(),
                ob.early_aborted.len(),
            ));
        }
    }
}

fn run_pipelined(
    config: &PipelineConfig,
    batches: &[Vec<Transaction>],
    workers: usize,
) -> (Duration, StreamPrint) {
    let mut service = OrderingService::new(config);
    let mut pipeline = ReorderPipeline::new(service.batch_prep(), workers);
    let mut stream = StreamPrint::new();
    let t0 = Instant::now();
    for batch in batches {
        pipeline.submit(batch.clone(), CutReason::TxCount);
        seal_all(&mut service, pipeline.try_collect(), &mut stream);
    }
    seal_all(&mut service, pipeline.drain(), &mut stream);
    (t0.elapsed(), stream)
}

fn run_sequential(config: &PipelineConfig, batches: &[Vec<Transaction>]) -> (Duration, StreamPrint) {
    let mut service = OrderingService::new(config);
    let mut stream = StreamPrint::new();
    let t0 = Instant::now();
    for batch in batches {
        if let Some(ob) = service.order_batch(batch.clone()) {
            stream.push((
                ob.block.header.number,
                format!("{:?}", ob.block.header.hash()),
                ob.block.txs.iter().map(|t| t.id.raw()).collect(),
                ob.early_aborted.len(),
            ));
        }
    }
    (t0.elapsed(), stream)
}

/// The CI gate: at every worker count the pipelined block stream equals
/// the sequential one — block numbers, header hashes, transaction order,
/// early-abort counts.
fn differential_check(config: &PipelineConfig, sweep: &[usize]) {
    let batches = make_batches(12, 96, 0.5, 42);
    let (_, reference) = run_sequential(config, &batches);
    assert!(!reference.is_empty(), "differential input produces blocks");
    for &workers in sweep {
        let (_, pipelined) = run_pipelined(config, &batches, workers);
        assert_eq!(
            pipelined, reference,
            "pipelined block stream diverges from sequential at {workers} workers"
        );
    }
    fabric_bench::smoke::record(
        "reorder_scaling",
        "pipelined-vs-sequential",
        true,
        &format!("pipelined block stream == sequential order_batch at {sweep:?} workers"),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = PipelineConfig::fabric_pp();
    println!(
        "# knobs: reorder_workers(default)={} available_parallelism={}",
        config.reorder_workers,
        default_reorder_workers(),
    );
    let worker_sweep: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    differential_check(&config, worker_sweep);
    if smoke {
        // CI cares about the gate, not single-core timing noise.
        return;
    }

    let mut header = false;
    for &batch_size in &[256usize, 1024] {
        for &conflict in &[0.1f64, 0.5] {
            let batches = make_batches(24, batch_size, conflict, 7);
            let txs: usize = batches.iter().map(Vec::len).sum();
            let mut base_ms = 0.0;
            for &workers in worker_sweep {
                // Warm once (thread spawn, allocator), then measure.
                run_pipelined(&config, &batches, workers);
                let (elapsed, stream) = run_pipelined(&config, &batches, workers);
                let ms = elapsed.as_secs_f64() * 1e3;
                if workers == 1 {
                    base_ms = ms;
                }
                print_row(
                    &mut header,
                    &[
                        ("batch_size", batch_size.to_string()),
                        ("conflict", format!("{conflict:.1}")),
                        ("reorder_workers", workers.to_string()),
                        ("blocks", stream.len().to_string()),
                        ("order_ms", format!("{ms:.1}")),
                        ("ktps", format!("{:.1}", txs as f64 / elapsed.as_secs_f64() / 1e3)),
                        ("speedup_vs_1", format!("{:.2}", base_ms / ms)),
                    ],
                );
            }
        }
    }
}
