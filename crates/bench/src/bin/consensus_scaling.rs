//! **Consensus scaling** — ordering throughput as the single ordering
//! process is replaced by a replicated consensus group (replicas ∈
//! {1, 3, 5}).
//!
//! The paper treats the ordering service as a black box (§2); this sweep
//! opens it: each cut batch becomes one propose → prevote → precommit →
//! decide height across `n` deterministic replicas, every replica
//! recomputes the Fabric++ block plan (cutter + reorderer + early abort)
//! from its own copy of the batch, and every replica seals its own chain.
//! The overhead measured here is therefore the honest single-core cost of
//! replication: n× plan computation + n× sealing + O(n²) message routing
//! per height, time-sliced onto one core. On a real deployment the n
//! plan computations run on n machines; the interesting deltas are the
//! per-replica message counts and the decide latency in rounds, which
//! this sweep reports alongside wall time.
//!
//! `--smoke` (used by CI) runs the differential gate only: for every
//! replica count the decided block stream must be **byte-identical** to
//! the sequential `order_batch` path — same block numbers, same header
//! hashes (hence the same whole hash chain), same transaction order, same
//! early aborts. The gate outcome is recorded via `fabric_bench::smoke`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_bench::runner::print_row;
use fabric_bench::smoke;
use fabric_common::hash::Digest;
use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    ChannelId, ClientId, Key, PipelineConfig, Transaction, TxId, Value, Version,
};
use fabric_consensus::{GroupConfig, OrdererGroup};
use fabric_net::{FaultHook, LinkId, SendFault};
use fabric_ordering::OrderingService;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An endorsed-shaped transaction reading/writing the given key ids.
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

/// Synthetic cut batches: 4 reads and 4 writes per transaction, a 16-key
/// hot set with probability `conflict`.
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

/// Fault hook that delivers everything but counts consensus messages, so
/// the sweep can report messages per decided height.
struct CountingHook {
    consensus_msgs: AtomicU64,
}

impl FaultHook for CountingHook {
    fn on_send(&self, link: LinkId, _size: usize) -> SendFault {
        if link.is_consensus() {
            self.consensus_msgs.fetch_add(1, Ordering::Relaxed);
        }
        SendFault::Deliver
    }
}

/// Fingerprint of an ordered block stream: (number, header hash, tx ids,
/// early-abort count) per block. Header hashes chain, so equal
/// fingerprints mean byte-identical chains.
type StreamPrint = Vec<(u64, String, Vec<u64>, usize)>;

fn print_of(stream: &mut StreamPrint, ob: &fabric_ordering::OrderedBlock) {
    stream.push((
        ob.block.header.number,
        format!("{:?}", ob.block.header.hash()),
        ob.block.txs.iter().map(|t| t.id.raw()).collect(),
        ob.early_aborted.len(),
    ));
}

fn run_sequential(config: &PipelineConfig, batches: &[Vec<Transaction>]) -> (Duration, StreamPrint) {
    let mut service = OrderingService::new(config);
    let mut stream = StreamPrint::new();
    let t0 = Instant::now();
    for batch in batches {
        if let Some(ob) = service.order_batch(batch.clone()) {
            print_of(&mut stream, &ob);
        }
    }
    (t0.elapsed(), stream)
}

/// Runs the batch stream through an `n`-replica group; returns elapsed
/// time, the decided stream, and total consensus messages routed.
fn run_replicated(
    config: &PipelineConfig,
    batches: &[Vec<Transaction>],
    replicas: usize,
) -> (Duration, StreamPrint, u64) {
    let hook = Arc::new(CountingHook { consensus_msgs: AtomicU64::new(0) });
    let mut group = OrdererGroup::new(
        GroupConfig::new(replicas),
        config,
        0,
        Digest::ZERO,
        Arc::clone(&hook) as Arc<dyn FaultHook>,
    )
    .expect("static group config");
    let mut stream = StreamPrint::new();
    let t0 = Instant::now();
    for batch in batches {
        if let Some(ob) = group.decide_batch(batch.clone()).expect("clean net never loses quorum")
        {
            print_of(&mut stream, &ob);
        }
    }
    (t0.elapsed(), stream, hook.consensus_msgs.load(Ordering::Relaxed))
}

/// The CI gate: at every replica count the decided block stream equals
/// the sequential `order_batch` one — block numbers, header hashes,
/// transaction order, early-abort counts.
fn differential_check(config: &PipelineConfig, sweep: &[usize]) {
    let batches = make_batches(12, 96, 0.5, 42);
    let (_, reference) = run_sequential(config, &batches);
    assert!(!reference.is_empty(), "differential input produces blocks");
    for &replicas in sweep {
        let (_, decided, msgs) = run_replicated(config, &batches, replicas);
        assert_eq!(
            decided, reference,
            "replicated block stream diverges from sequential at {replicas} replicas"
        );
        if replicas == 1 {
            assert_eq!(msgs, 0, "a 1-replica group must send no consensus messages");
        }
    }
    smoke::record(
        "consensus_scaling",
        "replicated-vs-single",
        true,
        &format!(
            "decided stream byte-identical to order_batch at {sweep:?} replicas over {} batches",
            batches.len()
        ),
    );
}

fn main() {
    let smoke_only = std::env::args().any(|a| a == "--smoke");
    let config = PipelineConfig::fabric_pp();
    let replica_sweep: &[usize] = &[1, 3, 5];
    println!(
        "# knobs: quorum=majority timeout_ticks=2 replicas={replica_sweep:?} available_parallelism={}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    differential_check(&config, replica_sweep);
    if smoke_only {
        // CI cares about the gate, not single-core timing noise.
        return;
    }

    // Single-core parity note: all n replicas (plan computation, voting,
    // sealing) time-slice one core here, so order_ms grows ~linearly in n
    // by construction; msgs/height and rounds are the machine-independent
    // outputs.
    let mut header = false;
    for &batch_size in &[256usize, 1024] {
        for &conflict in &[0.1f64, 0.5] {
            let batches = make_batches(24, batch_size, conflict, 7);
            let txs: usize = batches.iter().map(Vec::len).sum();
            let mut base_ms = 0.0;
            for &replicas in replica_sweep {
                // Warm once (allocator, scratch), then measure.
                run_replicated(&config, &batches, replicas);
                let (elapsed, stream, msgs) = run_replicated(&config, &batches, replicas);
                let ms = elapsed.as_secs_f64() * 1e3;
                if replicas == 1 {
                    base_ms = ms;
                }
                print_row(
                    &mut header,
                    &[
                        ("batch_size", batch_size.to_string()),
                        ("conflict", format!("{conflict:.1}")),
                        ("replicas", replicas.to_string()),
                        ("blocks", stream.len().to_string()),
                        ("order_ms", format!("{ms:.1}")),
                        ("ktps", format!("{:.1}", txs as f64 / elapsed.as_secs_f64() / 1e3)),
                        ("msgs_per_height", format!("{:.1}", msgs as f64 / batches.len() as f64)),
                        ("overhead_vs_1", format!("{:.2}", ms / base_ms)),
                    ],
                );
            }
        }
    }
}
