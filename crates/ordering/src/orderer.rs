//! The ordering service proper — the one orderer step every driver
//! runs: batch cutting, policy application and block formation.
//!
//! The service cuts with its own [`BatchCutter`], optionally performs the
//! Fabric++ ordering-phase early abort and the reordering, then forms a
//! hash-chained [`Block`]. "It treats the transactions in a black box
//! fashion and does not inspect the transaction semantics" in vanilla mode
//! (paper Appendix A.2); in Fabric++ mode it does exactly the opposite —
//! that inspection is the point.
//!
//! Each batch its cutter cuts goes through two steps, on the calling
//! thread, and comes back sealed in an `Arc<Block>`:
//!
//! * [`BatchPrep::prepare`] — pure per-batch work (early abort, reordering,
//!   schedule application). Stateless across batches; the service runs it
//!   allocation-free on its own warm scratch.
//! * [`OrderingService::seal`] — the chain step: abort counters,
//!   empty-block suppression, block numbering and hash chaining.
//!
//! The two steps stay public so a caller can time them apart (the staged
//! benchmark).

use std::sync::Arc;
use std::time::{Duration, Instant};

use fabric_common::rwset::ReadWriteSet;
use fabric_common::{
    Digest, OrderingPolicy, Phase, PhaseTimers, PipelineConfig, SubsystemGauges, Transaction,
    TxCounters, ValidationCode,
};
use fabric_ledger::Block;
use fabric_reorder::{reorder_with, ReorderConfig, ReorderResult, ReorderScratch, ReorderStats};
use fabric_trace::{EventKind, TraceSink};

use crate::cutter::{BatchCutter, CutReason};
use crate::early_abort::{split_version_mismatches_traced, EarlyAbortScratch};
use crate::stats::OrdererStats;

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

/// Reusable scratch for the prepare step: the early abort's interned
/// newest-version table plus the reorderer's arena. The
/// [`OrderingService`] owns one.
#[derive(Debug, Default)]
pub(crate) struct PrepScratch {
    early: EarlyAbortScratch,
    reorder: ReorderScratch,
    out: ReorderResult,
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
    /// Time spent inside the reorderer proper.
    pub reorder_elapsed: Duration,
}

/// The stateless per-batch stage of the ordering service: early abort and
/// reordering, but no chain state. Cloneable so a caller can prepare
/// plans outside the service (see [`OrderingService::batch_prep`]).
#[derive(Debug, Clone)]
pub struct BatchPrep {
    policy: OrderingPolicy,
    early_abort_ordering: bool,
    sink: TraceSink,
}

impl BatchPrep {
    /// Builds the stage from the pipeline configuration.
    pub fn new(cfg: &PipelineConfig) -> Self {
        BatchPrep {
            policy: cfg.ordering,
            early_abort_ordering: cfg.early_abort_ordering,
            sink: TraceSink::disabled(),
        }
    }

    /// Attaches a flight-recorder sink; order-phase aborts emit their
    /// provenance events through it. Clones of this stage share the same
    /// ring.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// The reorder configuration this stage runs with (field-less; see
    /// [`ReorderConfig`]).
    pub fn reorder_config(&self) -> &ReorderConfig {
        &ReorderConfig {}
    }

    /// Runs the per-batch stage with a one-shot scratch.
    pub fn prepare(&self, batch: Vec<Transaction>) -> BatchPlan {
        let mut scratch = PrepScratch::default();
        self.prepare_with(batch, &mut scratch)
    }

    /// Runs the per-batch stage on a reusable `scratch` (the hot path of
    /// every cut an [`OrderingService`] orders): within-block version-mismatch
    /// aborts if enabled, then — under [`OrderingPolicy::Reorder`] —
    /// conflict-cycle aborts plus serializable reordering.
    ///
    /// The plan is a pure function of `(self, batch)`; scratch state never
    /// leaks into the result.
    pub(crate) fn prepare_with(
        &self,
        batch: Vec<Transaction>,
        scratch: &mut PrepScratch,
    ) -> BatchPlan {
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
                reorder_with(&sets, &mut scratch.reorder, &mut scratch.out);
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
        }
    }
}

/// Stateful ordering service for one channel: cuts transactions into
/// batches, emits chained blocks.
pub struct OrderingService {
    cutter: BatchCutter,
    prep: BatchPrep,
    scratch: Box<PrepScratch>,
    next_block: u64,
    prev_hash: Digest,
    counters: Option<TxCounters>,
    stats: OrdererStats,
    timers: Option<PhaseTimers>,
    gauges: SubsystemGauges,
    sink: TraceSink,
}

impl OrderingService {
    /// Creates the service for a fresh chain (next block = 0, the genesis
    /// block of the channel's transaction chain) cutting at `cfg.cutting`.
    pub fn new(cfg: &PipelineConfig) -> Self {
        OrderingService {
            cutter: BatchCutter::new(cfg.cutting.clone()),
            prep: BatchPrep::new(cfg),
            scratch: Box::default(),
            next_block: 0,
            prev_hash: Digest::ZERO,
            counters: None,
            stats: OrdererStats::new(),
            timers: None,
            gauges: SubsystemGauges::new(),
            sink: TraceSink::disabled(),
        }
    }

    /// Attaches outcome counters; early aborts will be recorded on them.
    pub fn with_counters(mut self, counters: TxCounters) -> Self {
        self.counters = Some(counters);
        self
    }

    /// Shares `stats` as this service's cut counters (every channel of a
    /// run records on one set).
    pub fn with_stats(mut self, stats: OrdererStats) -> Self {
        self.stats = stats;
        self
    }

    /// Attaches phase timers: each cut records [`Phase::Reorder`] and,
    /// when it forms a block, [`Phase::Order`].
    pub fn with_phase_timers(mut self, timers: PhaseTimers) -> Self {
        self.timers = Some(timers);
        self
    }

    /// Shares `gauges`: the cutter's queue depth is published there after
    /// every push, timeout cut and flush.
    pub fn with_gauges(mut self, gauges: SubsystemGauges) -> Self {
        self.gauges = gauges;
        self
    }

    /// Attaches a flight-recorder sink: cuts and sealed blocks emit
    /// [`EventKind::BlockCut`] and [`EventKind::BlockSealed`] here, and the
    /// per-batch stage (and every clone taken via [`batch_prep`](Self::batch_prep)
    /// afterwards) emits order-phase abort provenance.
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

    /// The cutter holding the transactions not yet cut.
    pub fn cutter(&self) -> &BatchCutter {
        &self.cutter
    }

    /// Hands `tx` to the cutter at time `now` and returns the blocks
    /// sealed from the batches that cut (none, one, or two after a byte
    /// pre-cut; see [`BatchCutter::push`]), oldest first.
    pub fn push(&mut self, tx: Transaction, now: Instant) -> Vec<Arc<Block>> {
        let cuts = self.cutter.push(tx, now);
        let blocks = cuts.into_iter().filter_map(|(batch, why)| self.order(batch, why)).collect();
        self.gauges.set_cutter_queue(self.cutter.len() as u64);
        blocks
    }

    /// Cuts the pending batch if it is older than the batch timeout, and
    /// returns its sealed block.
    pub fn poll_timeout(&mut self, now: Instant) -> Option<Arc<Block>> {
        let (batch, why) = self.cutter.poll_timeout(now)?;
        let block = self.order(batch, why);
        self.gauges.set_cutter_queue(self.cutter.len() as u64);
        block
    }

    /// Cuts whatever is pending, whatever its size, and returns its sealed
    /// block.
    pub fn flush(&mut self) -> Option<Arc<Block>> {
        let block = self.cutter.flush().and_then(|(batch, why)| self.order(batch, why));
        self.gauges.set_cutter_queue(self.cutter.len() as u64);
        block
    }

    /// Orders one cut batch: emits [`EventKind::BlockCut`], prepares the
    /// batch on the service's scratch and seals it, records the phase
    /// times and the cut (or its suppression), and returns the block —
    /// sealed once, so every delivery and every peer's ledger share this
    /// one allocation — or `None` when early abort emptied the batch.
    fn order(&mut self, batch: Vec<Transaction>, reason: CutReason) -> Option<Arc<Block>> {
        if self.sink.is_enabled() {
            self.sink
                .emit(EventKind::BlockCut { reason: reason.trace_kind(), txs: batch.len() as u32 });
        }
        let batch_len = batch.len();
        let t0 = Instant::now();
        let plan = self.prep.prepare_with(batch, &mut self.scratch);
        let (reorder_elapsed, reorder_stats) = (plan.reorder_elapsed, plan.stats);
        let sealed = self.seal(plan);
        let elapsed = t0.elapsed();
        if let Some(t) = &self.timers {
            t.record(Phase::Reorder, reorder_elapsed);
        }
        self.stats.record_reorder(reorder_elapsed, &reorder_stats);
        let Some(ob) = sealed else {
            self.stats.record_empty_suppressed();
            return None;
        };
        if let Some(t) = &self.timers {
            t.record(Phase::Order, elapsed.saturating_sub(reorder_elapsed));
        }
        self.stats.record_cut(reason, batch_len);
        Some(Arc::new(ob.block))
    }

    /// A clone of the per-batch stage, for callers that prepare plans
    /// themselves (e.g. to time the two steps apart);
    /// [`seal`](Self::seal) then applies the plans here in cut order.
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
    /// Sealing plans in cut order reproduces the service's own block
    /// stream byte for byte: the plan is a pure function of the batch, and
    /// numbering/chaining happen only here.
    pub fn seal(&mut self, plan: BatchPlan) -> Option<OrderedBlock> {
        let BatchPlan { ordered, early_aborted, stats, reorder_elapsed } = plan;
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
                reorder_us: reorder_elapsed.as_micros() as u64,
            });
        }
        Some(OrderedBlock { block, early_aborted, reorder_stats: stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::RwSetBuilder;
    use fabric_common::{ChannelId, ClientId, Key, TxId, Value, Version};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
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

    /// Prepares `batch` on the service's own warm scratch and seals it:
    /// what every cut does, minus the cut's bookkeeping.
    fn order(svc: &mut OrderingService, batch: Vec<Transaction>) -> Option<OrderedBlock> {
        let plan = svc.prep.prepare_with(batch, &mut svc.scratch);
        svc.seal(plan)
    }

    fn g() -> Version {
        Version::GENESIS
    }

    #[test]
    fn arrival_policy_preserves_order() {
        let mut svc = OrderingService::new(&PipelineConfig::vanilla());
        let txs: Vec<Transaction> = (0..5).map(|i| mk_tx(&[(i, g())], &[i + 100])).collect();
        let ids: Vec<TxId> = txs.iter().map(|t| t.id).collect();
        let ob = order(&mut svc, txs).expect("non-empty batch forms a block");
        assert_eq!(ob.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(), ids);
        assert!(ob.early_aborted.is_empty());
        assert_eq!(ob.reorder_stats, ReorderStats::default());
    }

    #[test]
    fn arrival_policy_passes_through_unreordered() {
        // Several conflicting batches on a resumed chain, under the
        // Fabric++ config with reordering and early abort switched off:
        // every block keeps its batch's order whether it goes through
        // the service's own scratch or through a separately prepared plan and `seal`,
        // and each consumes one block number.
        let mut cfg = PipelineConfig::fabric_pp();
        cfg.ordering = OrderingPolicy::Arrival;
        cfg.early_abort_ordering = false;
        let mut svc = OrderingService::new(&cfg).resume_at(5, Digest::ZERO);
        for b in 0..4 {
            let txs: Vec<Transaction> =
                (0..5).map(|i| mk_tx(&[(i % 3, g())], &[(i + b) % 3, i + 100])).collect();
            let ids: Vec<TxId> = txs.iter().map(|t| t.id).collect();
            let ob = if b % 2 == 0 {
                order(&mut svc, txs)
            } else {
                let plan = svc.batch_prep().prepare(txs);
                svc.seal(plan)
            }
            .expect("non-empty batch forms a block");
            assert_eq!(ob.block.header.number, 5 + b);
            assert_eq!(ob.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(), ids);
            assert!(ob.early_aborted.is_empty());
            assert_eq!(ob.reorder_stats, ReorderStats::default());
        }
        assert_eq!(svc.next_block_num(), 9);
    }

    /// Seeded batches of 1 to 1 024 transactions over small key spaces.
    /// Read versions rise and fall from batch to batch, so anything a warm
    /// scratch kept from an earlier batch would change a later batch's
    /// aborts. Batch 30 is a cross-stale pair the early abort empties.
    fn varied_batches(seed: u64) -> Vec<Vec<Transaction>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batches: Vec<Vec<Transaction>> = (0..60)
            .map(|b| {
                let size = match b {
                    0 => 1,
                    17 | 45 => 1024,
                    _ => rng.random_range(2..161),
                };
                let keys = rng.random_range(4..257u64);
                (0..size)
                    .map(|_| {
                        let reads: Vec<(u64, Version)> = (0..rng.random_range(0..4))
                            .map(|_| {
                                (rng.random_range(0..keys), Version::new(rng.random_range(1..5u64), 0))
                            })
                            .collect();
                        let writes: Vec<u64> =
                            (0..rng.random_range(1..4)).map(|_| rng.random_range(0..keys)).collect();
                        mk_tx(&reads, &writes)
                    })
                    .collect()
            })
            .collect();
        batches[30] = vec![
            mk_tx(&[(0, Version::new(2, 0)), (1, Version::new(1, 0))], &[10]),
            mk_tx(&[(1, Version::new(2, 0)), (0, Version::new(1, 0))], &[11]),
        ];
        batches
    }

    #[test]
    fn warm_scratch_orders_like_fresh_prepare_across_varied_batches() {
        // One service reuses its scratch for every batch; the other seals
        // plans prepared on a fresh scratch each time. Both must emit the
        // same chain, the same tx order and the same early aborts.
        for (policy, early_abort) in [
            (OrderingPolicy::Arrival, false),
            (OrderingPolicy::Arrival, true),
            (OrderingPolicy::Reorder, false),
            (OrderingPolicy::Reorder, true),
        ] {
            let mut cfg = PipelineConfig::fabric_pp();
            cfg.ordering = policy;
            cfg.early_abort_ordering = early_abort;
            let mut warm = OrderingService::new(&cfg);
            let mut fresh = OrderingService::new(&cfg);
            let (mut blocks, mut aborted) = (0, 0);
            for (i, batch) in varied_batches(7).into_iter().enumerate() {
                let ctx = format!("{policy:?} early_abort={early_abort} batch {i}");
                let a = order(&mut warm, batch.clone());
                let b = fresh.seal(fresh.batch_prep().prepare(batch));
                let (a, b) = match (a, b) {
                    (Some(a), Some(b)) => (a, b),
                    (None, None) => {
                        assert!(early_abort && i == 30, "{ctx}: unexpected empty block");
                        continue;
                    }
                    _ => panic!("{ctx}: one side formed a block, the other did not"),
                };
                assert_eq!(a.block.header.hash(), b.block.header.hash(), "{ctx}");
                assert_eq!(
                    a.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(),
                    b.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(),
                    "{ctx}"
                );
                assert_eq!(
                    a.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>(),
                    b.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>(),
                    "{ctx}"
                );
                assert_eq!(a.reorder_stats, b.reorder_stats, "{ctx}");
                blocks += 1;
                aborted += a.early_aborted.len();
            }
            assert_eq!(blocks, if early_abort { 59 } else { 60 });
            let semantic = early_abort || policy == OrderingPolicy::Reorder;
            assert_eq!(aborted > 0, semantic, "{policy:?} early_abort={early_abort}");
            assert_eq!(warm.next_block_num(), fresh.next_block_num());
        }
    }

    #[test]
    fn blocks_are_hash_chained() {
        let mut svc = OrderingService::new(&PipelineConfig::vanilla());
        let b0 = order(&mut svc, vec![mk_tx(&[(0, g())], &[1])]).expect("block");
        let b1 = order(&mut svc, vec![mk_tx(&[(2, g())], &[3])]).expect("block");
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
        let ob = order(&mut svc, batch).expect("non-empty batch forms a block");
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
            order(&mut svc, vec![t0, t1, writer, reader]).expect("survivors form a block");
        assert_eq!(ob.block.txs.len(), 3);
        assert_eq!(ob.early_aborted.len(), 1);
        assert_eq!(ob.early_aborted[0].0.id, t0_id);
        assert_eq!(ob.early_aborted[0].1, ValidationCode::EarlyAbortCycle);
        assert_eq!(ob.reorder_stats.nontrivial_sccs, 1);
    }

    #[test]
    fn version_mismatch_aborted_before_reordering() {
        let mut svc = OrderingService::new(&PipelineConfig::fabric_pp());
        let old = mk_tx(&[(5, Version::new(1, 0))], &[6]);
        let new = mk_tx(&[(5, Version::new(2, 0))], &[7]);
        let old_id = old.id;
        let new_id = new.id;
        let ob = order(&mut svc, vec![old, new]).expect("survivors form a block");
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
        let ob = order(&mut svc, batch).expect("non-empty batch forms a block");
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
        order(&mut svc, batch);
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
        let ob = order(&mut svc, batch).expect("survivors form a block");
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
        let a = order(&mut plain, batch).expect("block");
        let b = order(&mut traced, cloned).expect("block");
        assert_eq!(a.block.header.hash(), b.block.header.hash());
        assert_eq!(
            a.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>(),
            b.early_aborted.iter().map(|(t, c)| (t.id, *c)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_batch_forms_no_block() {
        let mut svc = OrderingService::new(&PipelineConfig::fabric_pp());
        assert!(order(&mut svc, vec![]).is_none());
        assert_eq!(svc.next_block_num(), 0, "suppressed batch consumes no block number");
        // The chain continues as if the empty batch never happened.
        let ob = order(&mut svc, vec![mk_tx(&[(0, g())], &[1])]).expect("block");
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
        assert!(order(&mut svc, vec![stale_a, stale_b]).is_none());
        assert_eq!(svc.next_block_num(), 0);
        let s = counters.snapshot();
        assert_eq!(s.early_abort_version_mismatch, 2, "every killed tx is still counted");
    }

    #[test]
    fn resume_at_continues_chain() {
        let mut svc = OrderingService::new(&PipelineConfig::vanilla());
        let b0 = order(&mut svc, vec![mk_tx(&[(0, g())], &[1])]).expect("block");
        let mut resumed = OrderingService::new(&PipelineConfig::vanilla())
            .resume_at(1, b0.block.header.hash());
        let b1 = order(&mut resumed, vec![mk_tx(&[(2, g())], &[3])]).expect("block");
        assert_eq!(b1.block.header.number, 1);
        assert_eq!(b1.block.header.prev_hash, b0.block.header.hash());
    }

    #[test]
    fn reordering_only_mode_skips_version_mismatch_abort() {
        let mut svc = OrderingService::new(&PipelineConfig::reordering_only());
        let old = mk_tx(&[(5, Version::new(1, 0))], &[6]);
        let new = mk_tx(&[(5, Version::new(2, 0))], &[7]);
        let ob = order(&mut svc, vec![old, new]).expect("survivors form a block");
        // No within-block version abort in reordering-only mode.
        assert_eq!(ob.block.txs.len(), 2);
        assert!(ob.early_aborted.is_empty());
    }

    #[test]
    fn cuts_seal_blocks_and_keep_their_books() {
        // Count cuts at 2 with a 50 ms timeout: five pushes seal two
        // blocks, a poll past the timeout cuts the fifth tx, and a flush
        // of an empty cutter forms nothing. Each cut is traced, timed and
        // counted once, and the gauge follows the cutter's queue.
        let cfg = PipelineConfig::vanilla().with_block_size(2);
        let (sink, timers) = (TraceSink::bounded(64), PhaseTimers::new());
        let (stats, gauges) = (OrdererStats::new(), SubsystemGauges::new());
        let mut svc = OrderingService::new(&cfg)
            .with_stats(stats.clone())
            .with_trace(sink.clone())
            .with_phase_timers(timers.clone())
            .with_gauges(gauges.clone())
            .resume_at(1, Digest::ZERO);
        let t0 = Instant::now();
        let mut sealed = Vec::new();
        for i in 0..5 {
            sealed.extend(svc.push(mk_tx(&[], &[i]), t0));
            assert_eq!(gauges.snapshot().cutter_queue_txs, (i + 1) % 2);
        }
        assert_eq!(svc.cutter().len(), 1);
        assert!(svc.poll_timeout(t0).is_none(), "the batch is not yet old enough");
        let waited = cfg.cutting.max_batch_wait;
        assert_eq!(svc.cutter().time_to_timeout(t0), Some(waited));
        sealed.extend(svc.poll_timeout(t0 + waited));
        assert!(svc.flush().is_none(), "nothing left to flush");
        assert_eq!(gauges.snapshot().cutter_queue_txs, 0);

        let sizes: Vec<(u64, usize)> =
            sealed.iter().map(|b| (b.header.number, b.txs.len())).collect();
        assert_eq!(sizes, vec![(1, 2), (2, 2), (3, 1)]);
        let s = stats.snapshot();
        assert_eq!((s.cut_tx_count, s.cut_timeout, s.cut_flush, s.blocks), (2, 1, 0, 3));
        assert_eq!(s.txs_ordered, 5);
        assert_eq!(timers.recorder(Phase::Order).summary().count, 3);
        assert_eq!(timers.recorder(Phase::Reorder).summary().count, 3);
        let labels: Vec<&str> = sink.drain().iter().map(|e| e.kind.label()).collect();
        let cut_then_sealed = ["block_cut", "block_sealed"];
        assert_eq!(labels, cut_then_sealed.repeat(3));
    }

    #[test]
    fn a_cut_that_early_abort_empties_is_counted_not_sealed() {
        let (stats, timers) = (OrdererStats::new(), PhaseTimers::new());
        let mut svc = OrderingService::new(&PipelineConfig::fabric_pp())
            .with_stats(stats.clone())
            .with_phase_timers(timers.clone());
        svc.push(mk_tx(&[(0, Version::new(2, 0)), (1, Version::new(1, 0))], &[10]), Instant::now());
        svc.push(mk_tx(&[(1, Version::new(2, 0)), (0, Version::new(1, 0))], &[11]), Instant::now());
        assert!(svc.flush().is_none());
        let s = stats.snapshot();
        assert_eq!((s.empty_suppressed, s.blocks, s.cut_flush), (1, 0, 0));
        assert_eq!(timers.recorder(Phase::Reorder).summary().count, 1);
        assert_eq!(timers.recorder(Phase::Order).summary().count, 0);
        assert_eq!(svc.next_block_num(), 0);
    }
}
