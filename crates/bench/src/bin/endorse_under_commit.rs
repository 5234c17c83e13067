//! **Endorse under commit** — lockless endorsement on the multi-version
//! store: endorsement throughput and tail latency while a committer
//! applies blocks to the same store as fast as it can.
//!
//! Vanilla Fabric serializes these phases behind a coarse state lock
//! (paper §4.2.1); the multi-version engines let every simulation pin a
//! snapshot-at-height and read version chains without ever taking the
//! commit ticket (Meir et al., "Lockless Transaction Isolation in
//! Hyperledger Fabric"). This sweep drives N endorser threads against one
//! full-speed committer thread and reports endorsements/s, p50/p99
//! simulation latency, early aborts, and — the locklessness receipt — the
//! store's commit-ticket counter, which must move only with the committed
//! blocks, never with the endorsements.
//!
//! `--smoke` (used by CI) runs the differential gates only:
//!
//! * **snapshot-vs-full-copy** (per engine): a workload commits under a
//!   full-copy oracle that clones the entire state map at every block;
//!   afterwards every `(key, height)` point read, batched read, and range
//!   scan must be byte-identical to the oracle's copy for that height —
//!   on both `MemStateDb` and `LsmStateDb`.
//! * **zero-ticket-endorsement**: a short endorse-under-commit burst in
//!   which the commit-ticket delta equals exactly the committed block
//!   count while thousands of endorsements run concurrently.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fabric_bench::runner::print_row;
use fabric_bench::{point_duration, smoke};
use fabric_common::{
    ChannelId, ClientId, ConcurrencyMode, CostModel, Key, PeerId, SigningKey,
    TransactionProposal, Value, Version,
};
use fabric_conformance::fixtures::{transfer_args, transfer_chaincode};
use fabric_peer::chaincode::{ChaincodeRegistry, SimulationError};
use fabric_peer::Endorser;
use fabric_statedb::{CommitWrite, LsmConfig, LsmStateDb, MemStateDb, SnapshotGet, StateStore};

const ACCOUNTS: u64 = 64;

fn acct(i: u64) -> Key {
    Key::composite("acct", i)
}

fn genesis_writes() -> Vec<CommitWrite> {
    (0..ACCOUNTS).map(|i| CommitWrite::put(acct(i), Value::from_i64(100), 0)).collect()
}

/// The transfers of block `b`, as validated commit writes: pure
/// arithmetic, so both engines and the oracle see the same stream.
fn block_writes(b: u64, balances: &mut HashMap<u64, i64>) -> Vec<CommitWrite> {
    let mut writes = Vec::new();
    for t in 0..8u64 {
        let from = (b * 7 + t * 3) % ACCOUNTS;
        let mut to = (from + 1 + (b + t) % (ACCOUNTS - 1)) % ACCOUNTS;
        if to == from {
            to = (to + 1) % ACCOUNTS;
        }
        *balances.entry(from).or_insert(100) -= 1;
        *balances.entry(to).or_insert(100) += 1;
        writes.push(CommitWrite::put(acct(from), Value::from_i64(balances[&from]), t as u32 * 2));
        writes.push(CommitWrite::put(acct(to), Value::from_i64(balances[&to]), t as u32 * 2 + 1));
    }
    writes
}

/// One full state copy per block: the brute-force baseline the versioned
/// read path must match byte for byte.
type FullCopy = HashMap<Key, (Value, Version)>;

fn apply_to_copy(copy: &mut FullCopy, block: u64, writes: &[CommitWrite]) {
    for w in writes {
        match &w.value {
            Some(v) => {
                copy.insert(w.key.clone(), (v.clone(), Version::new(block, w.tx)));
            }
            None => {
                copy.remove(&w.key);
            }
        }
    }
}

/// Commits `blocks` blocks to `store` while cloning the full state map at
/// every height, then checks every `(key, height)` point read, batched
/// read, and range scan against the copies. Returns the number of
/// point-read comparisons performed.
fn differential_against_full_copy(store: &dyn StateStore, blocks: u64) -> usize {
    let mut balances: HashMap<u64, i64> = HashMap::new();
    // Pin every height as it commits — the way a fleet of in-flight
    // endorsements would — and hold the pins across the whole workload, so
    // the epoch GC must keep all of it resolvable: pins decide what stays.
    let mut pinned: Vec<(fabric_statedb::StateSnapshot, FullCopy)> = Vec::new();

    let genesis = genesis_writes();
    store.apply_block(0, &genesis).unwrap();
    let mut copy = FullCopy::new();
    apply_to_copy(&mut copy, 0, &genesis);
    pinned.push((store.pin_snapshot(), copy.clone()));

    for b in 1..=blocks {
        let writes = block_writes(b, &mut balances);
        store.apply_block(b, &writes).unwrap();
        apply_to_copy(&mut copy, b, &writes);
        pinned.push((store.pin_snapshot(), copy.clone()));
    }

    let keys: Vec<Key> = (0..ACCOUNTS).map(acct).collect();
    let lo = Key::from("acct");
    let hi = Key::from("accu");
    let mut checked = 0usize;
    let mut batch: Vec<SnapshotGet> = Vec::new();
    for (snap, oracle) in &pinned {
        let h = snap.height();
        store.multi_get_at_into(&keys, h, &mut batch).unwrap();
        for (key, got) in keys.iter().zip(&batch) {
            let point = store.get_at(key, h).unwrap();
            assert_eq!(
                point.at_height, got.at_height,
                "engine disagrees with itself: get_at vs multi_get_at_into for {key:?} at {h}"
            );
            let expect = oracle.get(key);
            let actual = point.at_height.as_ref().map(|vv| (&vv.value, vv.version));
            assert_eq!(
                actual,
                expect.map(|(v, ver)| (v, *ver)),
                "snapshot read of {key:?} at height {h} diverges from the full copy"
            );
            checked += 1;
        }
        let scan = store.scan_range_at(&lo, &hi, h).unwrap();
        let mut scanned: Vec<(Key, Value, Version)> = scan
            .into_iter()
            .filter_map(|(k, g)| g.at_height.map(|vv| (k, vv.value, vv.version)))
            .collect();
        scanned.sort_by(|a, b| a.0.cmp(&b.0));
        let mut expected: Vec<(Key, Value, Version)> =
            oracle.iter().map(|(k, (v, ver))| (k.clone(), v.clone(), *ver)).collect();
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(scanned, expected, "range scan at height {h} diverges from the full copy");
    }
    checked
}

fn smoke_differential() {
    let blocks = 48u64;

    let mem = MemStateDb::with_shards(8);
    let checked = differential_against_full_copy(&mem, blocks);
    smoke::record(
        "endorse_under_commit",
        "snapshot-vs-full-copy-mem",
        true,
        &format!("{checked} point reads + {} range scans byte-identical under live pins", blocks + 1),
    );

    let dir = std::env::temp_dir()
        .join(format!("fabric-endorse-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = LsmConfig {
        memtable_max_bytes: 1 << 10, // force flushes + compactions mid-workload
        compaction_threshold: 2,
        ..LsmConfig::default()
    };
    let lsm = LsmStateDb::open(&dir, cfg).unwrap();
    let checked = differential_against_full_copy(&lsm, blocks);
    drop(lsm);
    let _ = std::fs::remove_dir_all(&dir);
    smoke::record(
        "endorse_under_commit",
        "snapshot-vs-full-copy-lsm",
        true,
        &format!(
            "{checked} point reads + {} range scans byte-identical across flush/compaction",
            blocks + 1
        ),
    );
}

/// Builds an endorser over `store` with the transfer chaincode deployed,
/// fine-grained concurrency (no state gate), and zero modeled crypto /
/// container cost so the sweep measures the read path itself.
fn mk_endorser(store: Arc<dyn StateStore>, early_abort: bool) -> Endorser {
    let mut registry = ChaincodeRegistry::new();
    registry.deploy("transfer", transfer_chaincode());
    Endorser::new(
        PeerId(0),
        fabric_common::OrgId(0),
        SigningKey::for_peer(PeerId(0), 1),
        store,
        registry,
        ConcurrencyMode::FineGrained,
        None,
        early_abort,
        CostModel::raw(),
    )
}

struct BurstResult {
    endorsed: u64,
    aborted: u64,
    blocks: u64,
    latencies_us: Vec<f64>,
    ticket_delta: u64,
    pin_delta: u64,
}

/// Runs `endorsers` endorser threads against one committer thread slamming
/// blocks into a shared `MemStateDb` for roughly `secs` seconds.
fn endorse_under_commit(endorsers: usize, secs: f64, early_abort: bool) -> BurstResult {
    let db = Arc::new(MemStateDb::with_genesis(
        (0..ACCOUNTS).map(|i| (acct(i), Value::from_i64(100))),
    ));
    let store: Arc<dyn StateStore> = db.clone();
    let before = db.counters().snapshot();
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        let committer = {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let committed = Arc::clone(&committed);
            scope.spawn(move || {
                let mut balances: HashMap<u64, i64> = HashMap::new();
                let mut b = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    let writes = block_writes(b, &mut balances);
                    db.apply_block(b, &writes).unwrap();
                    committed.fetch_add(1, Ordering::Relaxed);
                    b += 1;
                }
            })
        };

        let workers: Vec<_> = (0..endorsers)
            .map(|w| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let endorser = mk_endorser(store, early_abort);
                    let mut latencies_us = Vec::new();
                    let mut endorsed = 0u64;
                    let mut aborted = 0u64;
                    let mut i = w as u64;
                    while !stop.load(Ordering::Relaxed) {
                        let from = i % ACCOUNTS;
                        let to = (from + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
                        let proposal = TransactionProposal::new(
                            ChannelId(0),
                            ClientId(w as u64),
                            "transfer",
                            transfer_args(from, to, 1),
                        );
                        let t0 = Instant::now();
                        match endorser.simulate(&proposal) {
                            Ok(_) => endorsed += 1,
                            Err(SimulationError::StaleRead { .. }) => aborted += 1,
                            Err(e) => panic!("endorsement failed: {e:?}"),
                        }
                        latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        i += endorsers as u64;
                    }
                    (endorsed, aborted, latencies_us)
                })
            })
            .collect();

        std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        committer.join().unwrap();

        let mut endorsed = 0;
        let mut aborted = 0;
        let mut latencies_us = Vec::new();
        for w in workers {
            let (e, a, l) = w.join().unwrap();
            endorsed += e;
            aborted += a;
            latencies_us.extend(l);
        }
        latencies_us.sort_by(|a, b| a.total_cmp(b));
        let delta = db.counters().snapshot().since(&before);
        BurstResult {
            endorsed,
            aborted,
            blocks: committed.load(Ordering::Relaxed),
            latencies_us,
            ticket_delta: delta.commit_ticket_acquisitions,
            pin_delta: delta.snapshot_pins,
        }
    })
}

fn pctile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[i]
}

fn smoke_zero_ticket() {
    let r = endorse_under_commit(2, 0.3, true);
    assert!(r.blocks > 0, "the committer must actually commit blocks");
    assert!(r.endorsed + r.aborted > 0, "the endorsers must actually run");
    // The locklessness receipt: every commit-ticket acquisition belongs to
    // the committer; thousands of concurrent endorsements added none.
    assert_eq!(
        r.ticket_delta, r.blocks,
        "endorsements must not take the commit ticket (ticket delta {} vs {} blocks)",
        r.ticket_delta, r.blocks
    );
    assert_eq!(
        r.pin_delta,
        r.endorsed + r.aborted,
        "every simulation pins exactly one snapshot"
    );
    smoke::record(
        "endorse_under_commit",
        "zero-ticket-endorsement",
        true,
        &format!(
            "{} endorsements ({} early aborts) vs {} blocks: ticket delta == blocks",
            r.endorsed + r.aborted,
            r.aborted,
            r.blocks
        ),
    );
}

fn main() {
    let smoke_only = std::env::args().any(|a| a == "--smoke");
    smoke_differential();
    smoke_zero_ticket();
    if smoke_only {
        // CI cares about the gates, not single-core timing noise.
        return;
    }

    let secs = point_duration().as_secs_f64();
    println!(
        "# knobs: accounts={ACCOUNTS} cost=raw engine=mem committer=full-speed available_parallelism={}",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    // Single-core honesty: endorsers and the committer time-slice the same
    // cores here, so absolute eps is machine-bound; the machine-independent
    // outputs are the zero ticket delta and the p99-vs-commit-rate shape.
    let mut header = false;
    for &early_abort in &[true, false] {
        for &endorsers in &[1usize, 2, 4] {
            let r = endorse_under_commit(endorsers, secs, early_abort);
            let total = r.endorsed + r.aborted;
            print_row(
                &mut header,
                &[
                    ("endorsers", endorsers.to_string()),
                    ("early_abort", early_abort.to_string()),
                    ("secs", format!("{secs:.1}")),
                    ("endorsed", r.endorsed.to_string()),
                    ("eps", format!("{:.0}", total as f64 / secs)),
                    ("p50_us", format!("{:.1}", pctile(&r.latencies_us, 0.50))),
                    ("p99_us", format!("{:.1}", pctile(&r.latencies_us, 0.99))),
                    ("aborts", r.aborted.to_string()),
                    ("blocks", r.blocks.to_string()),
                    ("ticket_acq", r.ticket_delta.to_string()),
                    ("pins", r.pin_delta.to_string()),
                ],
            );
        }
    }
}
