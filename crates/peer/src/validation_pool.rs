//! Parallel endorsement-signature validation (Fabric's VSCC phase).
//!
//! The paper (§2.2.3, §4.2) identifies validation as the peer's CPU-bound
//! stage, and signature recomputation is its embarrassingly parallel part:
//! each transaction's check touches only immutable transaction bytes and
//! the channel-wide signer registry, never peer state. Real Fabric shards
//! exactly this work across a `validatorPoolSize` worker pool; here the
//! [`ValidationPool`] chunks a block's transactions across persistent
//! worker threads and reassembles the per-tx `Vec<bool>` consumed by
//! [`crate::validator::mvcc_validate`] — bit-for-bit identical to the
//! sequential [`crate::validator::check_endorsements`] path (asserted by a
//! differential property test below).
//!
//! The pool also enables commit/validate *pipelining*: because signature
//! checks need no state, block N+1's checks can run while block N's writes
//! are applied under the state gate (see `crates/core`'s peer loop). The
//! deterministic chaos harness sizes one shared pool from
//! `validation_workers` like the threaded runtime does, falling back to
//! [`ValidationPool::sequential`] (eager, on the caller's thread) at one
//! worker; either way the verdicts — and so schedules and digests — are
//! identical.

use std::ops::Range;
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};
use fabric_common::{default_validation_workers, CostModel, SignerRegistry, SubsystemGauges};
use fabric_ledger::Block;

use crate::validator::{check_endorsement, check_endorsements, EndorsementPolicy};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of validation workers shared by every peer of a
/// network (signature checking is stateless, so one pool serves all).
///
/// Dropping the pool disconnects the job channel and joins the workers.
pub struct ValidationPool {
    mode: Mode,
    gauges: Option<SubsystemGauges>,
}

enum Mode {
    /// Compute on the caller's thread, eagerly. Used by the deterministic
    /// single-threaded harnesses: no scheduling, no nondeterminism.
    Sequential,
    Threaded {
        jobs: Option<Sender<Job>>,
        workers: usize,
        handles: Vec<JoinHandle<()>>,
    },
}

impl ValidationPool {
    /// A pool that validates on the calling thread (deterministic mode).
    pub fn sequential() -> Self {
        ValidationPool { mode: Mode::Sequential, gauges: None }
    }

    /// Attaches telemetry gauges: every `check_endorsements` call bumps
    /// the VSCC started counter, every [`PendingChecks::wait`] the done
    /// counter, so the telemetry layer can report batches and in-flight
    /// depth per window. (A `PendingChecks` abandoned by a crashed peer
    /// never reports done — the batch stays visibly in flight.)
    pub fn with_gauges(mut self, gauges: SubsystemGauges) -> Self {
        self.gauges = Some(gauges);
        self
    }

    /// A pool with `workers` persistent threads (`0` = available
    /// parallelism, matching
    /// [`PipelineConfig::validation_workers`](fabric_common::PipelineConfig)'s
    /// default).
    pub fn threaded(workers: usize) -> Self {
        let workers = if workers == 0 { default_validation_workers() } else { workers };
        let (tx, rx) = unbounded::<Job>();
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("vscc-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn validation worker")
            })
            .collect();
        ValidationPool { mode: Mode::Threaded { jobs: Some(tx), workers, handles }, gauges: None }
    }

    /// Number of worker threads (1 for the sequential mode).
    pub fn workers(&self) -> usize {
        match &self.mode {
            Mode::Sequential => 1,
            Mode::Threaded { workers, .. } => *workers,
        }
    }

    /// Starts phase-1 validation of `block`: policy evaluation plus
    /// signature recomputation for every transaction, chunked across the
    /// workers. Returns immediately; [`PendingChecks::wait`] joins the
    /// results into the per-tx `Vec<bool>` for
    /// [`crate::validator::mvcc_validate`].
    pub fn check_endorsements(
        &self,
        block: &Arc<Block>,
        registry: &SignerRegistry,
        policy: &EndorsementPolicy,
        cost: CostModel,
    ) -> PendingChecks {
        let n = block.txs.len();
        if let Some(g) = &self.gauges {
            g.record_vscc_batch_started();
        }
        match &self.mode {
            Mode::Sequential => PendingChecks {
                len: n,
                inner: PendingInner::Ready(check_endorsements(block, registry, policy, cost)),
                gauges: self.gauges.clone(),
            },
            Mode::Threaded { jobs, workers, .. } => {
                if n == 0 {
                    return PendingChecks {
                        len: 0,
                        inner: PendingInner::Ready(Vec::new()),
                        gauges: self.gauges.clone(),
                    };
                }
                let jobs = jobs.as_ref().expect("job channel lives until drop");
                let ranges = chunk_ranges(n, *workers);
                let chunks = ranges.len();
                let (res_tx, res_rx) = unbounded::<(usize, Vec<bool>)>();
                for range in ranges {
                    let block = Arc::clone(block);
                    let registry = registry.clone();
                    let policy = policy.clone();
                    let res_tx = res_tx.clone();
                    let job: Job = Box::new(move || {
                        let out: Vec<bool> = block.txs[range.clone()]
                            .iter()
                            .map(|tx| check_endorsement(tx, &registry, &policy, cost))
                            .collect();
                        // The receiver may already be gone (pending checks
                        // dropped, e.g. peer crash mid-pipeline) — fine.
                        let _ = res_tx.send((range.start, out));
                    });
                    jobs.send(job).expect("workers outlive the pool handle");
                }
                PendingChecks {
                    len: n,
                    inner: PendingInner::Pending { chunks, results: res_rx },
                    gauges: self.gauges.clone(),
                }
            }
        }
    }
}

impl Drop for ValidationPool {
    fn drop(&mut self) {
        if let Mode::Threaded { jobs, handles, .. } = &mut self.mode {
            drop(jobs.take()); // disconnect → workers drain and exit
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// In-flight phase-1 validation of one block. Dropping it abandons the
/// results (outstanding worker jobs finish and discard their sends).
pub struct PendingChecks {
    len: usize,
    inner: PendingInner,
    gauges: Option<SubsystemGauges>,
}

enum PendingInner {
    Ready(Vec<bool>),
    Pending {
        chunks: usize,
        results: crossbeam::channel::Receiver<(usize, Vec<bool>)>,
    },
}

impl PendingChecks {
    /// Blocks until every chunk is validated and reassembles the per-tx
    /// result vector (index-aligned with `block.txs`).
    pub fn wait(self) -> Vec<bool> {
        let out = match self.inner {
            PendingInner::Ready(v) => v,
            PendingInner::Pending { chunks, results } => {
                let mut out = vec![false; self.len];
                for _ in 0..chunks {
                    let (start, chunk) =
                        results.recv().expect("validation worker died with jobs in flight");
                    out[start..start + chunk.len()].copy_from_slice(&chunk);
                }
                out
            }
        };
        if let Some(g) = &self.gauges {
            g.record_vscc_batch_done();
        }
        out
    }
}

/// Splits `0..n` into at most `workers` contiguous ranges of near-equal
/// length (the first `n % k` ranges get one extra element).
fn chunk_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
    let k = workers.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut ranges = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::mvcc_validate;
    use fabric_common::rwset::{rwset_from_keys, ReadWriteSet};
    use fabric_common::{
        ChannelId, ClientId, Digest, Endorsement, Key, OrgId, PeerId, SigningKey, Transaction,
        TxId, Value, Version,
    };
    use fabric_statedb::MemStateDb;
    use proptest::prelude::*;
    use std::time::Instant;

    #[test]
    fn chunk_ranges_cover_exactly_once() {
        for n in 0..40 {
            for workers in 1..10 {
                let ranges = chunk_ranges(n, workers);
                assert!(ranges.len() <= workers);
                let mut seen = 0;
                for r in &ranges {
                    assert_eq!(r.start, seen, "ranges contiguous from 0");
                    assert!(!r.is_empty());
                    seen = r.end;
                }
                assert_eq!(seen, n, "ranges cover 0..{n}");
            }
        }
    }

    #[test]
    fn chunk_ranges_balanced() {
        let ranges = chunk_ranges(10, 4);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
    }

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn registry() -> SignerRegistry {
        let registry = SignerRegistry::new();
        for p in 1..=4u64 {
            registry.register(PeerId(p), SigningKey::for_peer(PeerId(p), 9));
        }
        registry
    }

    fn policy() -> EndorsementPolicy {
        EndorsementPolicy::require_orgs(vec![OrgId(1), OrgId(2)])
    }

    /// A correctly endorsed transaction over `rwset`.
    fn endorsed_tx(rwset: ReadWriteSet) -> Transaction {
        let id = TxId::next();
        let payload = Transaction::signing_payload(id, ChannelId(0), "cc", &rwset);
        let endorsements = [(PeerId(1), OrgId(1)), (PeerId(3), OrgId(2))]
            .iter()
            .map(|&(peer, org)| Endorsement {
                peer,
                org,
                signature: SigningKey::for_peer(peer, 9).sign_iterated(&[&payload], 1),
            })
            .collect();
        Transaction {
            id,
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "cc".into(),
            rwset,
            endorsements,
            created_at: Instant::now(),
        }
    }

    /// Kinds of transactions the differential test mixes within one block.
    #[derive(Debug, Clone, Copy)]
    enum TxKind {
        /// Correctly endorsed, fresh read version.
        Good,
        /// Correctly endorsed but reading a stale version (MVCC conflict).
        Stale,
        /// Write set swapped after endorsement (signature mismatch).
        Tampered,
        /// Endorsements stripped entirely.
        Unendorsed,
    }

    fn mk_tx(kind: TxKind, key: u64) -> Transaction {
        let fresh = rwset_from_keys(
            &[k("balA")],
            Version::GENESIS,
            &[Key::composite("out", key)],
            &Value::from_i64(1),
        );
        match kind {
            TxKind::Good => endorsed_tx(fresh),
            TxKind::Stale => endorsed_tx(rwset_from_keys(
                &[k("balA")],
                Version::new(7, 0),
                &[Key::composite("out", key)],
                &Value::from_i64(1),
            )),
            TxKind::Tampered => {
                let mut tx = endorsed_tx(fresh);
                tx.rwset = rwset_from_keys(
                    &[k("balA")],
                    Version::GENESIS,
                    &[k("balA")],
                    &Value::from_i64(1_000_000),
                );
                tx
            }
            TxKind::Unendorsed => {
                let mut tx = endorsed_tx(fresh);
                tx.endorsements.clear();
                tx
            }
        }
    }

    fn kind_strategy() -> impl Strategy<Value = TxKind> {
        prop_oneof![
            Just(TxKind::Good),
            Just(TxKind::Stale),
            Just(TxKind::Tampered),
            Just(TxKind::Unendorsed),
        ]
    }

    #[test]
    fn threaded_pool_matches_sequential_on_empty_block() {
        let pool = ValidationPool::threaded(4);
        let block = Arc::new(Block::build(1, Digest::ZERO, vec![]));
        let got = pool.check_endorsements(&block, &registry(), &policy(), CostModel::raw()).wait();
        assert!(got.is_empty());
    }

    #[test]
    fn pool_survives_many_blocks() {
        // Persistent workers: results stay correct across repeated use.
        let pool = ValidationPool::threaded(3);
        let reg = registry();
        let pol = policy();
        for round in 0..10 {
            let txs: Vec<Transaction> =
                (0..round + 1).map(|i| mk_tx(TxKind::Good, i as u64)).collect();
            let block = Arc::new(Block::build(1, Digest::ZERO, txs));
            let got = pool.check_endorsements(&block, &reg, &pol, CostModel::raw()).wait();
            assert_eq!(got, vec![true; round + 1]);
        }
    }

    #[test]
    fn dropping_pending_checks_is_harmless() {
        let pool = ValidationPool::threaded(2);
        let txs: Vec<Transaction> = (0..8).map(|i| mk_tx(TxKind::Good, i)).collect();
        let block = Arc::new(Block::build(1, Digest::ZERO, txs));
        let pending = pool.check_endorsements(&block, &registry(), &policy(), CostModel::raw());
        drop(pending); // workers finish and discard their sends
        // The pool remains usable afterwards.
        let got = pool.check_endorsements(&block, &registry(), &policy(), CostModel::raw()).wait();
        assert_eq!(got.len(), 8);
    }

    #[test]
    fn sequential_mode_reports_one_worker_and_computes_eagerly() {
        let pool = ValidationPool::sequential();
        assert_eq!(pool.workers(), 1);
        let block = Arc::new(Block::build(1, Digest::ZERO, vec![mk_tx(TxKind::Good, 0)]));
        let got = pool.check_endorsements(&block, &registry(), &policy(), CostModel::raw()).wait();
        assert_eq!(got, vec![true]);
    }

    proptest! {
        /// Differential test (tentpole acceptance criterion): for randomized
        /// blocks mixing good / stale / tampered / unendorsed transactions,
        /// the threaded pool and the sequential path must produce identical
        /// endorsement bits AND identical final `Vec<ValidationCode>`.
        #[test]
        fn parallel_validation_matches_sequential(
            kinds in proptest::collection::vec(kind_strategy(), 0..24),
            workers in 1usize..6,
        ) {
            let txs: Vec<Transaction> =
                kinds.iter().enumerate().map(|(i, &kd)| mk_tx(kd, i as u64)).collect();
            let block = Arc::new(Block::build(1, Digest::ZERO, txs));
            let reg = registry();
            let pol = policy();
            let store = MemStateDb::with_genesis([(k("balA"), Value::from_i64(100))]);

            let sequential = check_endorsements(&block, &reg, &pol, CostModel::raw());
            let pool = ValidationPool::threaded(workers);
            let parallel =
                pool.check_endorsements(&block, &reg, &pol, CostModel::raw()).wait();
            prop_assert_eq!(&parallel, &sequential);

            let seq_codes = mvcc_validate(&block, &store, &sequential).unwrap();
            let par_codes = mvcc_validate(&block, &store, &parallel).unwrap();
            prop_assert_eq!(seq_codes, par_codes);
        }
    }
}
