//! **Commit scaling** — validate/commit hot-path throughput of the batched
//! state-access design against the per-key path it replaced, swept over
//! block size × write ratio × `MemStateDb` shard count.
//!
//! The *per-key* baseline is the pre-batching algorithm: one `store.get`
//! (one shard read-lock) per read entry during MVCC validation, then a
//! commit that clones every key and value into owned [`CommitWrite`]s.
//! The *batched* path is the shipped one: a single `multi_get_versions`
//! prefetch per block feeding the interned version table, then a
//! zero-clone [`WriteBatch`] of borrowed entries. Both install writes
//! through the same engine, so the speedup column isolates the read-path
//! batching plus the clone elimination — a lower bound on the gap to the
//! historical lock-per-write committer.
//!
//! `--smoke` (used by CI) runs only the differential gate at a reduced
//! grid: for every shard count the batched path must produce
//! **bit-identical** validation codes, post-state (values *and*
//! versions), and watermark as the per-key baseline — and the store
//! counters must show exactly one prefetch batch per block with zero
//! point gets.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use fabric_bench::runner::print_row;
use fabric_common::rwset::RwSetBuilder;
use fabric_common::{
    ChannelId, ClientId, Digest, Key, Transaction, TxId, ValidationCode, Value, Version,
};
use fabric_ledger::Block;
use fabric_peer::validator::{mvcc_validate_traced, MvccScratch};
use fabric_statedb::{CommitWrite, MemStateDb, StateStore, WriteBatch, WriteRef};
use fabric_trace::TraceSink;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn key(i: u64) -> Key {
    Key::composite("K", i)
}

/// Builds `count` blocks of `block_size` transactions over a working set
/// four times the block size. Each transaction performs 8 state accesses,
/// `write_ratio` of them writes; with probability `hot` a read key comes
/// from a 16-key hot set (the dedupe showcase: many transactions probing
/// the same keys), otherwise uniformly from the working set. Reads claim
/// the version the generator's model says the key will hold, so blocks
/// are mostly valid (modulo in-block conflicts, which both paths must
/// resolve identically).
fn make_blocks(
    count: usize,
    block_size: usize,
    write_ratio: f64,
    hot: f64,
    seed: u64,
) -> Vec<Block> {
    let mut rng = StdRng::seed_from_u64(seed);
    let working = (block_size * 4) as u64;
    let writes_per_tx = ((8.0 * write_ratio).round() as usize).clamp(1, 7);
    let reads_per_tx = 8 - writes_per_tx;

    // Model of the committed state, advanced with the same semantics the
    // oracle validator uses, so claimed read versions stay fresh.
    let mut model: HashMap<u64, Version> = (0..working).map(|i| (i, Version::GENESIS)).collect();

    (0..count)
        .map(|b| {
            let block_num = (b + 1) as u64;
            let mut staged: Vec<(u64, Version)> = Vec::new();
            let mut written_in_block: HashSet<u64> = HashSet::new();
            let txs: Vec<Transaction> = (0..block_size)
                .map(|tx_num| {
                    let mut bld = RwSetBuilder::new();
                    let mut reads = Vec::with_capacity(reads_per_tx);
                    for _ in 0..reads_per_tx {
                        let k = if rng.random::<f64>() < hot {
                            rng.random_range(0..16)
                        } else {
                            rng.random_range(0..working)
                        };
                        reads.push(k);
                        bld.record_read(key(k), model.get(&k).copied());
                    }
                    let mut writes = Vec::with_capacity(writes_per_tx);
                    for _ in 0..writes_per_tx {
                        let k = rng.random_range(0..working);
                        writes.push(k);
                        bld.record_write(key(k), Some(Value::from_i64((b * 8 + tx_num) as i64)));
                    }
                    // Valid iff no read hits an earlier in-block write.
                    if reads.iter().all(|k| !written_in_block.contains(k)) {
                        for &k in &writes {
                            written_in_block.insert(k);
                            staged.push((k, Version::new(block_num, tx_num as u32)));
                        }
                    }
                    Transaction {
                        id: TxId::next(),
                        channel: ChannelId(0),
                        client: ClientId(0),
                        chaincode: "cc".into(),
                        rwset: bld.build(),
                        endorsements: vec![],
                        created_at: Instant::now(),
                    }
                })
                .collect();
            for (k, v) in staged {
                model.insert(k, v);
            }
            Block::build(block_num, Digest::ZERO, txs)
        })
        .collect()
}

fn fresh_store(shards: usize, working: u64) -> MemStateDb {
    let db = MemStateDb::with_shards(shards);
    let genesis: Vec<CommitWrite> =
        (0..working).map(|i| CommitWrite::put(key(i), Value::from_i64(0), 0)).collect();
    db.apply_block(0, &genesis).expect("genesis");
    db
}

/// The pre-batching hot path: per-read point gets, `HashSet` in-block
/// conflict tracking, owned clones into the commit write list.
fn run_perkey(store: &MemStateDb, blocks: &[Block]) -> (Duration, Vec<Vec<ValidationCode>>) {
    let t0 = Instant::now();
    let mut all_codes = Vec::with_capacity(blocks.len());
    for block in blocks {
        let mut codes = Vec::with_capacity(block.txs.len());
        let mut written_in_block: HashSet<&Key> = HashSet::new();
        for tx in &block.txs {
            let valid = tx.rwset.reads.entries().iter().all(|e| {
                !written_in_block.contains(&e.key)
                    && store.get(&e.key).unwrap().map(|vv| vv.version) == e.version
            });
            if valid {
                for e in tx.rwset.writes.entries() {
                    written_in_block.insert(&e.key);
                }
                codes.push(ValidationCode::Valid);
            } else {
                codes.push(ValidationCode::MvccConflict);
            }
        }
        let mut writes: Vec<CommitWrite> = Vec::new();
        for (tx_num, (tx, code)) in block.txs.iter().zip(&codes).enumerate() {
            if code.is_valid() {
                for e in tx.rwset.writes.entries() {
                    writes.push(CommitWrite {
                        key: e.key.clone(),
                        value: e.value.clone(),
                        tx: tx_num as u32,
                    });
                }
            }
        }
        store.apply_block(block.header.number, &writes).unwrap();
        all_codes.push(codes);
    }
    (t0.elapsed(), all_codes)
}

/// The batched hot path exactly as the peer runs it: one multi-get
/// prefetch per block into a persistent [`MvccScratch`], zero-clone write
/// batch of borrowed entries.
fn run_batched(store: &MemStateDb, blocks: &[Block]) -> (Duration, Vec<Vec<ValidationCode>>) {
    let mut scratch = MvccScratch::new();
    let endorsement_ok: Vec<bool> =
        vec![true; blocks.iter().map(|b| b.txs.len()).max().unwrap_or(0)];
    let t0 = Instant::now();
    let mut all_codes = Vec::with_capacity(blocks.len());
    for block in blocks {
        let mut codes = Vec::with_capacity(block.txs.len());
        mvcc_validate_traced(
            block,
            store,
            &endorsement_ok[..block.txs.len()],
            &mut scratch,
            &mut codes,
            &TraceSink::disabled(),
        )
        .unwrap();
        let mut batch = WriteBatch::new(block.header.number);
        for (tx_num, (tx, code)) in block.txs.iter().zip(&codes).enumerate() {
            if code.is_valid() {
                for e in tx.rwset.writes.entries() {
                    batch.push(WriteRef {
                        key: &e.key,
                        value: e.value.as_ref(),
                        tx: tx_num as u32,
                    });
                }
            }
        }
        store.apply_write_batch(&batch).unwrap();
        drop(batch);
        all_codes.push(codes);
    }
    (t0.elapsed(), all_codes)
}

/// The CI gate: per-key and batched paths agree bit for bit — codes,
/// post-state, watermark — and the batched store's counters prove the
/// one-prefetch-per-block / zero-point-get contract held.
fn differential_check(shard_sweep: &[usize]) {
    let block_size = 128;
    let blocks = make_blocks(6, block_size, 0.5, 0.3, 42);
    let working = (block_size * 4) as u64;
    let lo = key(0);
    let hi = key(working + 1);
    for &shards in shard_sweep {
        let perkey_store = fresh_store(shards, working);
        let batched_store = fresh_store(shards, working);
        let (_, perkey_codes) = run_perkey(&perkey_store, &blocks);
        let base = batched_store.counters().snapshot();
        let (_, batched_codes) = run_batched(&batched_store, &blocks);
        let stats = batched_store.counters().snapshot().since(&base);
        assert_eq!(batched_codes, perkey_codes, "codes diverge at {shards} shards");
        let valid = batched_codes.iter().flatten().filter(|c| c.is_valid()).count();
        let invalid = batched_codes.iter().flatten().filter(|c| !c.is_valid()).count();
        assert!(
            valid > 0 && invalid > 0,
            "differential input exercises both outcomes (valid={valid} invalid={invalid})"
        );
        assert_eq!(
            batched_store.last_committed_block(),
            perkey_store.last_committed_block()
        );
        assert_eq!(
            batched_store.scan_range(&lo, &hi).unwrap(),
            perkey_store.scan_range(&lo, &hi).unwrap(),
            "post-state diverges at {shards} shards"
        );
        assert_eq!(stats.multi_get_batches, blocks.len() as u64, "one prefetch per block");
        assert_eq!(stats.point_gets, 0, "no per-read point gets on the batched path");
        assert!(stats.shard_lock_acquisitions <= (blocks.len() * shards) as u64);
    }
    fabric_bench::smoke::record(
        "commit_scaling",
        "batched-vs-per-key-oracle",
        true,
        &format!(
            "batched codes+post-state == per-key oracle at {shard_sweep:?} shards, \
             one prefetch per block, zero point gets"
        ),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shard_sweep: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    differential_check(shard_sweep);
    if smoke {
        // CI cares about the gate, not single-core timing noise.
        return;
    }

    let mut header = false;
    for &block_size in &[256usize, 1024] {
        for &write_ratio in &[0.25f64, 0.75] {
            for &hot in &[0.0f64, 0.9] {
                let blocks = make_blocks(24, block_size, write_ratio, hot, 7);
                let working = (block_size * 4) as u64;
                let txs = blocks.len() * block_size;
                for &shards in shard_sweep {
                    // Min of three runs each, fresh store per run: the
                    // first repetition doubles as warm-up and min filters
                    // out single-core scheduling noise.
                    let perkey = (0..3)
                        .map(|_| run_perkey(&fresh_store(shards, working), &blocks).0)
                        .min()
                        .unwrap();
                    let mut batched = Duration::MAX;
                    let mut stats = Default::default();
                    for _ in 0..3 {
                        let store = fresh_store(shards, working);
                        let base = store.counters().snapshot();
                        let (elapsed, _) = run_batched(&store, &blocks);
                        if elapsed < batched {
                            batched = elapsed;
                        }
                        stats = store.counters().snapshot().since(&base);
                    }
                    let perkey_ms = perkey.as_secs_f64() * 1e3;
                    let batched_ms = batched.as_secs_f64() * 1e3;
                    print_row(
                        &mut header,
                        &[
                            ("block_size", block_size.to_string()),
                            ("write_ratio", format!("{write_ratio:.2}")),
                            ("hot", format!("{hot:.1}")),
                            ("shards", shards.to_string()),
                            ("blocks", blocks.len().to_string()),
                            ("perkey_ms", format!("{perkey_ms:.1}")),
                            ("batched_ms", format!("{batched_ms:.1}")),
                            (
                                "ktps_batched",
                                format!("{:.1}", txs as f64 / batched.as_secs_f64() / 1e3),
                            ),
                            ("prefetch_keys_per_block", {
                                let blocks_applied = stats.blocks_applied.max(1);
                                format!(
                                    "{:.0}",
                                    stats.multi_get_keys as f64 / blocks_applied as f64
                                )
                            }),
                            ("speedup_vs_perkey", format!("{:.2}", perkey_ms / batched_ms)),
                        ],
                    );
                }
            }
        }
    }
}
