//! The ordering service proper: policy application and block formation.
//!
//! Takes cut batches from the [`crate::BatchCutter`], optionally performs
//! the Fabric++ ordering-phase early abort and the Algorithm-1 reordering,
//! then forms a hash-chained [`Block`]. "It treats the transactions in a
//! black box fashion and does not inspect the transaction semantics" in
//! vanilla mode (paper Appendix A.2); in Fabric++ mode it does exactly the
//! opposite — that inspection is the point.
//!
//! The service is split into two stages so the reordering work can leave
//! the critical ordering path (see [`crate::pipeline`]):
//!
//! * [`BatchPrep::prepare`] — pure per-batch work (early abort, Algorithm
//!   1, schedule application). Stateless across batches, safe to run on
//!   worker threads, and allocation-free on a warm
//!   [`PrepScratch`] via [`BatchPrep::prepare_with`].
//! * [`OrderingService::seal`] — the sequential step: abort counters,
//!   empty-block suppression, block numbering and hash chaining.
//!
//! [`OrderingService::order_batch`] is exactly `prepare` + `seal` inline:
//! the sequential reference the pipeline's differential tests compare
//! against, byte for byte.

use std::time::{Duration, Instant};

use fabric_common::rwset::ReadWriteSet;
use fabric_common::{
    Digest, OrderingPolicy, PipelineConfig, Transaction, TxCounters, ValidationCode,
};
use fabric_ledger::Block;
use fabric_reorder::{reorder_with, ReorderConfig, ReorderOutput, ReorderScratch, ReorderStats};
use fabric_trace::{EventKind, TraceSink};

use crate::early_abort::{split_version_mismatches_traced, EarlyAbortScratch};

/// A block ready for distribution plus the transactions the orderer
/// removed from the pipeline (Fabric++ early aborts).
#[derive(Debug)]
pub struct OrderedBlock {
    /// The block to distribute to all peers.
    pub block: Block,
    /// Transactions aborted at order time, with their abort codes.
    pub early_aborted: Vec<(Transaction, ValidationCode)>,
    /// Reordering diagnostics (zeros under the arrival policy).
    pub reorder_stats: ReorderStats,
}

/// Reusable per-worker scratch for [`BatchPrep::prepare_with`]: the early
/// abort's interned newest-version table plus the reorderer's arena.
#[derive(Debug, Default)]
pub struct PrepScratch {
    early: EarlyAbortScratch,
    reorder: ReorderScratch,
    out: ReorderOutput,
}

/// The outcome of the per-batch stage, ready to be sealed into a block.
#[derive(Debug)]
pub struct BatchPlan {
    /// Surviving transactions in final (possibly reordered) block order.
    pub ordered: Vec<Transaction>,
    /// Transactions aborted at order time, with their abort codes.
    pub early_aborted: Vec<(Transaction, ValidationCode)>,
    /// Reordering diagnostics (zeros under the arrival policy).
    pub stats: ReorderStats,
    /// Time spent inside Algorithm 1 proper.
    pub reorder_elapsed: Duration,
    /// Time spent in the rest of the stage (early abort, partitioning).
    pub prepare_elapsed: Duration,
}

/// The stateless per-batch stage of the ordering service: early abort and
/// reordering, but no chain state. Cloneable so every reorder worker can
/// own one.
#[derive(Debug, Clone)]
pub struct BatchPrep {
    policy: OrderingPolicy,
    early_abort_ordering: bool,
    reorder_cfg: ReorderConfig,
    sink: TraceSink,
}

impl BatchPrep {
    /// Builds the stage from the pipeline configuration. All of
    /// [`ReorderConfig`] is plumbed from the config's knobs; cycle
    /// enumeration stays single-threaded here (the pipeline grants
    /// enumeration threads to its workers explicitly).
    pub fn new(cfg: &PipelineConfig) -> Self {
        BatchPrep {
            policy: cfg.ordering,
            early_abort_ordering: cfg.early_abort_ordering,
            reorder_cfg: ReorderConfig {
                max_cycles: cfg.max_cycles,
                max_scc_for_enumeration: cfg.max_scc_for_enumeration,
                enumeration_threads: 1,
            },
            sink: TraceSink::disabled(),
        }
    }

    /// Attaches a flight-recorder sink; order-phase aborts emit their
    /// provenance events through it. Clones of this stage (the reorder
    /// workers) share the same ring.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Grants this stage `threads` for parallel SCC cycle enumeration
    /// (identical output for any value; see
    /// [`ReorderConfig::enumeration_threads`]).
    pub fn with_enumeration_threads(mut self, threads: usize) -> Self {
        self.reorder_cfg.enumeration_threads = threads.max(1);
        self
    }

    /// The reorder configuration this stage runs with.
    pub fn reorder_config(&self) -> &ReorderConfig {
        &self.reorder_cfg
    }

    /// Runs the per-batch stage with a one-shot scratch.
    pub fn prepare(&self, batch: Vec<Transaction>) -> BatchPlan {
        let mut scratch = PrepScratch::default();
        self.prepare_with(batch, &mut scratch)
    }

    /// Runs the per-batch stage on a reusable `scratch` (the hot path of
    /// the reorder workers): within-block version-mismatch aborts if
    /// enabled, then — under [`OrderingPolicy::Reorder`] — conflict-cycle
    /// aborts plus serializable reordering.
    ///
    /// The plan is a pure function of `(self, batch)`; scratch state never
    /// leaks into the result.
    pub fn prepare_with(&self, batch: Vec<Transaction>, scratch: &mut PrepScratch) -> BatchPlan {
        let t_start = Instant::now();
        let mut early_aborted: Vec<(Transaction, ValidationCode)> = Vec::new();

        let survivors = if self.early_abort_ordering {
            let (survivors, mismatched) =
                split_version_mismatches_traced(batch, &mut scratch.early, &self.sink);
            early_aborted.extend(
                mismatched
                    .into_iter()
                    .map(|tx| (tx, ValidationCode::EarlyAbortVersionMismatch)),
            );
            survivors
        } else {
            batch
        };

        let mut stats = ReorderStats::default();
        let mut reorder_elapsed = Duration::ZERO;
        let ordered = match self.policy {
            OrderingPolicy::Arrival => survivors,
            OrderingPolicy::Reorder => {
                let sets: Vec<&ReadWriteSet> = survivors.iter().map(|t| &t.rwset).collect();
                let t_reorder = Instant::now();
                reorder_with(&sets, &self.reorder_cfg, &mut scratch.reorder, &mut scratch.out);
                reorder_elapsed = t_reorder.elapsed();
                stats = scratch.out.stats;
                // Partition: move aborted out, arrange the rest by schedule.
                let mut slots: Vec<Option<Transaction>> =
                    survivors.into_iter().map(Some).collect();
                for (&i, info) in scratch.out.aborted.iter().zip(&scratch.out.abort_sccs) {
                    let tx = slots[i].take().expect("abort index unique");
                    if self.sink.is_enabled() {
                        self.sink.emit(EventKind::TxEarlyAbortCycle {
                            tx: tx.id,
                            scc: info.scc,
                            scc_size: info.size,
                            fallback: stats.fallback_used,
                        });
                    }
                    early_aborted.push((tx, ValidationCode::EarlyAbortCycle));
                }
                scratch
                    .out
                    .schedule
                    .iter()
                    .map(|&i| slots[i].take().expect("schedule index unique"))
                    .collect()
            }
        };

        BatchPlan {
            ordered,
            early_aborted,
            stats,
            reorder_elapsed,
            prepare_elapsed: t_start.elapsed().saturating_sub(reorder_elapsed),
        }
    }
}

/// Stateful ordering service for one channel: consumes batches, emits
/// chained blocks.
pub struct OrderingService {
    prep: BatchPrep,
    next_block: u64,
    prev_hash: Digest,
    counters: Option<TxCounters>,
    sink: TraceSink,
}

impl OrderingService {
    /// Creates the service for a fresh chain (next block = 0, the genesis
    /// block of the channel's transaction chain).
    pub fn new(cfg: &PipelineConfig) -> Self {
        OrderingService {
            prep: BatchPrep::new(cfg),
            next_block: 0,
            prev_hash: Digest::ZERO,
            counters: None,
            sink: TraceSink::disabled(),
        }
    }

    /// Attaches outcome counters; early aborts will be recorded on them.
    pub fn with_counters(mut self, counters: TxCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Attaches a flight-recorder sink: sealed blocks emit
    /// [`EventKind::BlockSealed`] here, and the per-batch stage (and every
    /// worker clone taken via [`batch_prep`](Self::batch_prep) afterwards)
    /// emits order-phase abort provenance.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.prep = self.prep.with_trace(sink.clone());
        self.sink = sink;
        self
    }

    /// Starts the chain after an existing prefix (e.g. a genesis block that
    /// was installed out-of-band).
    pub fn resume_at(mut self, next_block: u64, prev_hash: Digest) -> Self {
        self.next_block = next_block;
        self.prev_hash = prev_hash;
        self
    }

    /// Number of the next block this service will emit.
    pub fn next_block_num(&self) -> u64 {
        self.next_block
    }

    /// A clone of the per-batch stage, for running it off-thread (the
    /// reorder pipeline); [`seal`](Self::seal) then applies the results
    /// here in cut order.
    pub fn batch_prep(&self) -> BatchPrep {
        self.prep.clone()
    }

    /// The sequential emission step: records early-abort counters, then
    /// forms the hash-chained block.
    ///
    /// Returns `None` when no transaction survives (empty batch, or early
    /// abort / cycle-breaking killed every member): empty blocks would
    /// consume block numbers, skew block-fill stats, and cost every peer a
    /// commit for nothing. Early-abort counters are still recorded; the
    /// chain position (`next_block`, `prev_hash`) is left untouched.
    ///
    /// Sealing plans in cut order reproduces the sequential
    /// [`order_batch`](Self::order_batch) block stream byte for byte: the
    /// plan is a pure function of the batch, and numbering/chaining happen
    /// only here.
    pub fn seal(&mut self, plan: BatchPlan) -> Option<OrderedBlock> {
        let BatchPlan { ordered, early_aborted, stats, reorder_elapsed, .. } = plan;
        if let Some(c) = &self.counters {
            for (_, code) in &early_aborted {
                c.record_outcome(*code);
            }
        }
        if ordered.is_empty() {
            return None;
        }
        let block = Block::build(self.next_block, self.prev_hash, ordered);
        self.next_block += 1;
        self.prev_hash = block.header.hash();
        if self.sink.is_enabled() {
            self.sink.emit(EventKind::BlockSealed {
                block: block.header.number,
                txs: block.txs.len() as u32,
                early_aborted: early_aborted.len() as u32,
                sccs: stats.nontrivial_sccs as u32,
                cycles: stats.cycles as u32,
                fallback: stats.fallback_used,
                reorder_us: reorder_elapsed.as_micros() as u64,
            });
        }
        Some(OrderedBlock { block, early_aborted, reorder_stats: stats })
    }

    /// Orders one cut batch into a block: [`BatchPrep::prepare`] +
    /// [`seal`](Self::seal) inline, bypassing the pipeline entirely.
    ///
    /// Under [`OrderingPolicy::Arrival`] the batch order is preserved
    /// verbatim. Under [`OrderingPolicy::Reorder`] the Fabric++ machinery
    /// runs: (optionally) within-block version-mismatch aborts, then
    /// conflict-cycle aborts plus serializable reordering.
    pub fn order_batch(&mut self, batch: Vec<Transaction>) -> Option<OrderedBlock> {
        let plan = self.prep.prepare(batch);
        self.seal(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::RwSetBuilder;
    use fabric_common::{ChannelId, ClientId, Key, TxId, Value, Version};
    use std::time::Instant;

    fn mk_tx(reads: &[(u64, Version)], writes: &[u64]) -> Transaction {
        let mut b = RwSetBuilder::new();
        for (k, v) in reads {
            b.record_read(Key::composite("K", *k), Some(*v));
        }
        for k in writes {
            b.record_write(Key::composite("K", *k), Some(Value::from_i64(1)));
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

    fn g() -> Version {
        Version::GENESIS
    }

    #[test]
    fn arrival_policy_preserves_order() {
        let mut svc = OrderingService::new(&PipelineConfig::vanilla());
        let txs: Vec<Transaction> = (0..5).map(|i| mk_tx(&[(i, g())], &[i + 100])).collect();
        let ids: Vec<TxId> = txs.iter().map(|t| t.id).collect();
        let ob = svc.order_batch(txs).expect("non-empty batch forms a block");
        assert_eq!(ob.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(), ids);
        assert!(ob.early_aborted.is_empty());
        assert_eq!(ob.reorder_stats, ReorderStats::default());
    }

    #[test]
    fn blocks_are_hash_chained() {
        let mut svc = OrderingService::new(&PipelineConfig::vanilla());
        let b0 = svc.order_batch(vec![mk_tx(&[(0, g())], &[1])]).expect("block");
        let b1 = svc.order_batch(vec![mk_tx(&[(2, g())], &[3])]).expect("block");
        assert_eq!(b0.block.header.number, 0);
        assert_eq!(b0.block.header.prev_hash, Digest::ZERO);
        assert_eq!(b1.block.header.number, 1);
        assert_eq!(b1.block.header.prev_hash, b0.block.header.hash());
        assert_eq!(svc.next_block_num(), 2);
    }

    #[test]
    fn reorder_policy_produces_serializable_block() {
        // Table 1 scenario: writer of k1 arrives first, readers after.
        let mut svc = OrderingService::new(&PipelineConfig::fabric_pp());
        let writer = mk_tx(&[], &[1]);
        let writer_id = writer.id;
        let readers: Vec<Transaction> =
            (0..3).map(|i| mk_tx(&[(1, g())], &[10 + i])).collect();
        let mut batch = vec![writer];
        batch.extend(readers);
        let ob = svc.order_batch(batch).expect("non-empty batch forms a block");
        assert_eq!(ob.block.txs.len(), 4);
        assert!(ob.early_aborted.is_empty());
        // Writer must now be last.
        assert_eq!(ob.block.txs.last().unwrap().id, writer_id);
    }

    #[test]
    fn cycle_members_early_aborted_with_code() {
        let mut svc = OrderingService::new(&PipelineConfig::fabric_pp());
        // 2-cycle: T0 reads K0 writes K1; T1 reads K1 writes K0.
        let t0 = mk_tx(&[(0, g())], &[1]);
        let t1 = mk_tx(&[(1, g())], &[0]);
        let t0_id = t0.id;
        // Plus a dependent writer/reader pair off the cycle: both survive.
        let writer = mk_tx(&[], &[5]);
        let reader = mk_tx(&[(5, g())], &[6]);
        let ob =
            svc.order_batch(vec![t0, t1, writer, reader]).expect("survivors form a block");
        assert_eq!(ob.block.txs.len(), 3);
        assert_eq!(ob.early_aborted.len(), 1);
        assert_eq!(ob.early_aborted[0].0.id, t0_id);
        assert_eq!(ob.early_aborted[0].1, ValidationCode::EarlyAbortCycle);
        assert_eq!(ob.reorder_stats.cycles, 1);
    }

    #[test]
    fn version_mismatch_aborted_before_reordering() {
        let mut svc = OrderingService::new(&PipelineConfig::fabric_pp());
        let old = mk_tx(&[(5, Version::new(1, 0))], &[6]);
        let new = mk_tx(&[(5, Version::new(2, 0))], &[7]);
        let old_id = old.id;
        let new_id = new.id;
        let ob = svc.order_batch(vec![old, new]).expect("survivors form a block");
        assert_eq!(ob.block.txs.len(), 1);
        assert_eq!(ob.block.txs[0].id, new_id);
        assert_eq!(ob.early_aborted.len(), 1);
        assert_eq!(ob.early_aborted[0].0.id, old_id);
        assert_eq!(ob.early_aborted[0].1, ValidationCode::EarlyAbortVersionMismatch);
    }

    #[test]
    fn vanilla_never_inspects_semantics() {
        // Even with version mismatches and cycles, vanilla ships everything.
        let mut svc = OrderingService::new(&PipelineConfig::vanilla());
        let batch = vec![
            mk_tx(&[(5, Version::new(1, 0))], &[6]),
            mk_tx(&[(5, Version::new(2, 0))], &[7]),
            mk_tx(&[(0, g())], &[1]),
            mk_tx(&[(1, g())], &[0]),
        ];
        let ob = svc.order_batch(batch).expect("non-empty batch forms a block");
        assert_eq!(ob.block.txs.len(), 4);
        assert!(ob.early_aborted.is_empty());
    }

    #[test]
    fn counters_record_early_aborts() {
        let counters = TxCounters::new();
        let mut svc =
            OrderingService::new(&PipelineConfig::fabric_pp()).with_counters(counters.clone());
        let batch = vec![
            mk_tx(&[(5, Version::new(1, 0))], &[6]),
            mk_tx(&[(5, Version::new(2, 0))], &[7]),
            mk_tx(&[(0, g())], &[1]),
            mk_tx(&[(1, g())], &[0]),
        ];
        svc.order_batch(batch);
        let s = counters.snapshot();
        assert_eq!(s.early_abort_version_mismatch, 1);
        assert_eq!(s.early_abort_cycle, 1);
    }

    #[test]
    fn traced_order_batch_emits_abort_provenance_then_seal() {
        let sink = TraceSink::bounded(64);
        let mut svc =
            OrderingService::new(&PipelineConfig::fabric_pp()).with_trace(sink.clone());
        let batch = vec![
            mk_tx(&[(5, Version::new(1, 0))], &[6]), // stale → version abort
            mk_tx(&[(5, Version::new(2, 0))], &[7]),
            mk_tx(&[(0, g())], &[1]), // 2-cycle with the next → cycle abort
            mk_tx(&[(1, g())], &[0]),
        ];
        let ob = svc.order_batch(batch).expect("survivors form a block");
        let events = sink.drain();
        let labels: Vec<&str> = events.iter().map(|e| e.kind.label()).collect();
        assert!(labels.contains(&"early_abort_version"));
        assert!(labels.contains(&"early_abort_cycle"));
        assert_eq!(*labels.last().unwrap(), "block_sealed");
        match &events.last().unwrap().kind {
            EventKind::BlockSealed { block, txs, early_aborted, .. } => {
                assert_eq!(*block, ob.block.header.number);
                assert_eq!(*txs, ob.block.txs.len() as u32);
                assert_eq!(*early_aborted, 2);
            }
            other => panic!("expected BlockSealed, got {other:?}"),
        }
    }

    #[test]
    fn untraced_order_batch_matches_traced_block_stream() {
        // Tracing must be observation-only: identical batches produce
        // byte-identical blocks with and without a sink attached.
        let mk_batch = || {
            vec![
                mk_tx(&[(5, Version::new(1, 0))], &[6]),
                mk_tx(&[(5, Version::new(2, 0))], &[7]),
                mk_tx(&[(0, g())], &[1]),
                mk_tx(&[(1, g())], &[0]),
            ]
        };
        let mut plain = OrderingService::new(&PipelineConfig::fabric_pp());
        let mut traced = OrderingService::new(&PipelineConfig::fabric_pp())
            .with_trace(TraceSink::bounded(64));
        // Same TxIds in both runs: clone the batch.
        let batch = mk_batch();
        let cloned = batch.clone();
        let a = plain.order_batch(batch).expect("block");
        let b = traced.order_batch(cloned).expect("block");
        assert_eq!(a.block.header.hash(), b.block.header.hash());
        assert_eq!(
            a.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>(),
            b.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_batch_forms_no_block() {
        let mut svc = OrderingService::new(&PipelineConfig::fabric_pp());
        assert!(svc.order_batch(vec![]).is_none());
        assert_eq!(svc.next_block_num(), 0, "suppressed batch consumes no block number");
        // The chain continues as if the empty batch never happened.
        let ob = svc.order_batch(vec![mk_tx(&[(0, g())], &[1])]).expect("block");
        assert_eq!(ob.block.header.number, 0);
        assert_eq!(ob.block.header.prev_hash, Digest::ZERO);
    }

    #[test]
    fn fully_early_aborted_batch_forms_no_block() {
        // Both members of a 2-cycle where each also read a stale version:
        // early abort kills everything, so no block may be shipped — but the
        // abort counters must still be recorded.
        let counters = TxCounters::new();
        let mut svc =
            OrderingService::new(&PipelineConfig::fabric_pp()).with_counters(counters.clone());
        // Cross-stale reads: each tx reads the newest version of one key but
        // a stale version of the other, so the mismatch rule dooms both.
        let stale_a = mk_tx(&[(0, Version::new(2, 0)), (1, Version::new(1, 0))], &[10]);
        let stale_b = mk_tx(&[(1, Version::new(2, 0)), (0, Version::new(1, 0))], &[11]);
        assert!(svc.order_batch(vec![stale_a, stale_b]).is_none());
        assert_eq!(svc.next_block_num(), 0);
        let s = counters.snapshot();
        assert_eq!(s.early_abort_version_mismatch, 2, "every killed tx is still counted");
    }

    #[test]
    fn resume_at_continues_chain() {
        let mut svc = OrderingService::new(&PipelineConfig::vanilla());
        let b0 = svc.order_batch(vec![mk_tx(&[(0, g())], &[1])]).expect("block");
        let mut resumed = OrderingService::new(&PipelineConfig::vanilla())
            .resume_at(1, b0.block.header.hash());
        let b1 = resumed.order_batch(vec![mk_tx(&[(2, g())], &[3])]).expect("block");
        assert_eq!(b1.block.header.number, 1);
        assert_eq!(b1.block.header.prev_hash, b0.block.header.hash());
    }

    #[test]
    fn reordering_only_mode_skips_version_mismatch_abort() {
        let mut svc = OrderingService::new(&PipelineConfig::reordering_only());
        let old = mk_tx(&[(5, Version::new(1, 0))], &[6]);
        let new = mk_tx(&[(5, Version::new(2, 0))], &[7]);
        let ob = svc.order_batch(vec![old, new]).expect("survivors form a block");
        // No within-block version abort in reordering-only mode.
        assert_eq!(ob.block.txs.len(), 2);
        assert!(ob.early_aborted.is_empty());
    }
}
