//! [`OrdererGroup`]: a replicated ordering service over a deterministic,
//! fault-injectable transport.
//!
//! The group runs `n` [`Replica`]s in lockstep rounds on one thread. Per
//! cut batch (one consensus *height*) every live replica recomputes the
//! block plan from its own copy of the batch — reusing the stateless
//! [`BatchPrep::prepare_with`] stage, so the plan is a pure function of
//! the batch — and the view leader proposes the plan's digest. Messages
//! travel over a virtual wire where every per-destination copy consults a
//! [`FaultHook`] under a [`fabric_net::LinkId::between_replicas`] link id:
//! the chaos injector can drop, duplicate, delay, reorder, or partition
//! every consensus message with the same seeded determinism it applies to
//! block distribution. Logical ticks fire only when nothing is in flight,
//! so a (plan, seed, batch stream) triple replays byte-for-byte.
//!
//! `seal` happens exactly once per decided height on every replica's own
//! [`OrderingService`] in height order, so the hash chain, block
//! numbering, and empty-block suppression stay consistent across leader
//! changes; replicas that were down (or missed the decision) seal from the
//! decided-batch archive when they catch up — the state-transfer analogue.
//! A 1-replica group sends zero messages and consults the hook zero
//! times, which is what makes the single-orderer differential test exact.

use std::collections::VecDeque;
use std::sync::Arc;

use fabric_common::hash::{Digest, Sha256};
use fabric_common::{Error, PipelineConfig, Result, SubsystemGauges, Transaction, TxCounters};
use fabric_net::{FaultHook, LinkId, SendFault};
use fabric_ordering::{
    BatchPlan, BatchPrep, CutReason, OrderedBlock, OrdererStats, OrderingService, PrepScratch,
};
use fabric_trace::TraceSink;

use crate::messages::{Height, Msg, Payload};
use crate::replica::{QuorumRule, Replica, ReplicaConfig};

/// A scheduled orderer-replica crash, the consensus analogue of
/// [`fabric-chaos`'s peer `CrashPoint`]: the replica dies during height
/// `at_height` and restarts — with catch-up sealing from the decided-batch
/// archive — at the end of height `at_height + restart_after_heights - 1`
/// (`0` = never restarts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrdererCrash {
    /// Replica index, `0..n`.
    pub replica: u32,
    /// Consensus height during which the replica dies.
    pub at_height: u64,
    /// Heights after `at_height` at which it restarts (0 = never).
    pub restart_after_heights: u64,
    /// When true the crash fires right after the replica's *proposal* hits
    /// the wire — the classic "leader dies mid-height" scenario. When
    /// false it fires before the height starts (the replica misses the
    /// whole height).
    pub after_propose: bool,
}

/// A scheduled leader equivocation: at `at_height` the named replica's
/// proposal copies toward `victims` carry a corrupted plan digest (the
/// SHA-256 of the honest one). Victims recompute their own plan, see the
/// mismatch, and prevote nil — a forged digest can never gather honest
/// prevotes, so equivocation costs at most a view change, never a fork.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Equivocation {
    /// The equivocating replica (must be the height's leader for the
    /// corruption to reach a proposal).
    pub leader: u32,
    /// Consensus height the equivocation fires on.
    pub at_height: u64,
    /// Destination replicas that receive the corrupted digest.
    pub victims: Vec<u32>,
}

/// Static configuration of an [`OrdererGroup`].
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Number of replicas (1..=[`LinkId::MAX_CONSENSUS_REPLICAS`]).
    pub replicas: usize,
    /// Quorum rule.
    pub quorum: QuorumRule,
    /// Idle rounds in one view before replicas vote to change it.
    pub timeout_ticks: u32,
    /// Liveness bound: rounds per height before giving up with an error
    /// (e.g. when crashes leave less than a quorum alive).
    pub max_rounds: u32,
    /// Scheduled replica crashes.
    pub crashes: Vec<OrdererCrash>,
    /// Scheduled leader equivocations.
    pub equivocations: Vec<Equivocation>,
}

impl GroupConfig {
    /// Defaults: majority quorum, 2-tick view timeout, 256-round liveness
    /// bound, no scheduled faults.
    pub fn new(replicas: usize) -> Self {
        GroupConfig {
            replicas,
            quorum: QuorumRule::Majority,
            timeout_ticks: 2,
            max_rounds: 256,
            crashes: Vec::new(),
            equivocations: Vec::new(),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.replicas == 0 || self.replicas > LinkId::MAX_CONSENSUS_REPLICAS as usize {
            return Err(Error::Config(format!(
                "replica count {} outside 1..={}",
                self.replicas,
                LinkId::MAX_CONSENSUS_REPLICAS
            )));
        }
        if self.timeout_ticks == 0 {
            return Err(Error::Config("timeout_ticks must be at least 1".into()));
        }
        if self.max_rounds == 0 {
            return Err(Error::Config("max_rounds must be at least 1".into()));
        }
        for c in &self.crashes {
            if c.replica as usize >= self.replicas {
                return Err(Error::Config(format!(
                    "crash names replica {} of {}",
                    c.replica, self.replicas
                )));
            }
        }
        for e in &self.equivocations {
            if e.leader as usize >= self.replicas {
                return Err(Error::Config(format!(
                    "equivocation names replica {} of {}",
                    e.leader, self.replicas
                )));
            }
            if e.victims.is_empty() {
                return Err(Error::Config("equivocation with no victims is a no-op".into()));
            }
            if e.victims.iter().any(|v| *v as usize >= self.replicas) {
                return Err(Error::Config("equivocation victim out of range".into()));
            }
        }
        Ok(())
    }
}

/// Digest of a [`BatchPlan`]: the ordered survivor ids plus the
/// early-aborted (id, code) pairs. A pure function of the plan, which is
/// itself a pure function of the batch — so every honest replica derives
/// the same digest, and digest equality is plan equality.
pub fn plan_digest(plan: &BatchPlan) -> Digest {
    let mut h = Sha256::new();
    for tx in &plan.ordered {
        h.update(&tx.id.raw().to_le_bytes());
    }
    h.update(b"/early-aborted/");
    for (tx, code) in &plan.early_aborted {
        h.update(&tx.id.raw().to_le_bytes());
        h.update(&[*code as u8]);
    }
    h.finalize()
}

/// One replica slot: the consensus state machine plus this replica's own
/// sequential sealer and telemetry.
struct ReplicaSlot {
    replica: Replica,
    sealer: OrderingService,
    stats: OrdererStats,
    /// Consensus heights sealed through (decided heights only).
    sealed_height: u64,
    down: bool,
    /// This height's own plan, computed at `begin_height`; sealed on
    /// decide so the prepare work is not repeated.
    plan: Option<BatchPlan>,
    /// Messages hit by a `Delay` verdict; they arrive at the start of the
    /// next round (one logical spike), mirroring the peer-side harness.
    delayed: Vec<Msg>,
    /// Rolling hash over this replica's sealed block-header hashes — the
    /// cross-replica block-stream fingerprint.
    chain_hash: Digest,
}

/// An in-flight message copy on the virtual wire.
struct Env {
    from: usize,
    to: usize,
    msg: Msg,
}

/// An open reorder burst on one directed replica link (mirrors the
/// per-peer burst buffer of `fabric_chaos::ChaosNet`'s block delivery).
struct LinkBurst {
    from: usize,
    to: usize,
    held: Vec<Msg>,
    remaining: u32,
}

/// A replicated ordering service: `n` deterministic consensus replicas
/// agreeing on one block stream.
pub struct OrdererGroup {
    cfg: GroupConfig,
    prep: BatchPrep,
    scratch: PrepScratch,
    slots: Vec<ReplicaSlot>,
    wire: VecDeque<Env>,
    bursts: Vec<LinkBurst>,
    hook: Arc<dyn FaultHook>,
    next_height: Height,
    /// Every decided batch, in height order (height `h` at index `h - 1`):
    /// the archive lagging replicas seal from when they catch up.
    decided: Vec<Vec<Transaction>>,
    /// Telemetry gauge cells: wire messages, decided heights, and view
    /// changes land here for the windowed time-series layer. A detached
    /// default (nobody reading) costs one relaxed atomic per event.
    gauges: SubsystemGauges,
}

impl OrdererGroup {
    /// Builds a group whose replicas all seal chains starting at block
    /// `first_block` on top of `prev_hash`, consulting `hook` for every
    /// inter-replica message copy.
    pub fn new(
        cfg: GroupConfig,
        pipeline: &PipelineConfig,
        first_block: u64,
        prev_hash: Digest,
        hook: Arc<dyn FaultHook>,
    ) -> Result<Self> {
        Self::new_traced(cfg, pipeline, first_block, prev_hash, hook, None, TraceSink::disabled())
    }

    /// [`OrdererGroup::new`] with outcome counters (attached to replica
    /// 0's sealer only, so early aborts are recorded exactly once per
    /// decided height even across crash/restart) and a flight-recorder
    /// sink (consensus lifecycle events from every replica).
    pub fn new_traced(
        cfg: GroupConfig,
        pipeline: &PipelineConfig,
        first_block: u64,
        prev_hash: Digest,
        hook: Arc<dyn FaultHook>,
        counters: Option<TxCounters>,
        sink: TraceSink,
    ) -> Result<Self> {
        cfg.validate()?;
        let prep = BatchPrep::new(pipeline);
        let mut slots = Vec::with_capacity(cfg.replicas);
        for id in 0..cfg.replicas {
            let rcfg = ReplicaConfig {
                id: id as u32,
                n: cfg.replicas,
                quorum: cfg.quorum,
                timeout_ticks: cfg.timeout_ticks,
            };
            let mut sealer = OrderingService::new(pipeline).resume_at(first_block, prev_hash);
            if id == 0 {
                if let Some(c) = &counters {
                    sealer = sealer.with_counters(c.clone());
                }
            }
            slots.push(ReplicaSlot {
                replica: Replica::new(rcfg).with_trace(sink.clone()),
                sealer,
                stats: OrdererStats::new(),
                sealed_height: 0,
                down: false,
                plan: None,
                delayed: Vec::new(),
                chain_hash: Digest::ZERO,
            });
        }
        Ok(OrdererGroup {
            cfg,
            prep,
            scratch: PrepScratch::default(),
            slots,
            wire: VecDeque::new(),
            bursts: Vec::new(),
            hook,
            next_height: 1,
            decided: Vec::new(),
            gauges: SubsystemGauges::new(),
        })
    }

    /// Attaches telemetry gauge cells (shared with the network's telemetry
    /// hub): consensus wire messages, decided heights, and cumulative view
    /// changes are recorded through them.
    pub fn set_gauges(&mut self, gauges: SubsystemGauges) {
        self.gauges = gauges;
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.cfg.replicas
    }

    /// Whether replica `idx` is currently down.
    pub fn is_down(&self, idx: usize) -> bool {
        self.slots[idx].down
    }

    /// Consensus heights decided so far.
    pub fn heights_decided(&self) -> u64 {
        self.decided.len() as u64
    }

    /// Aggregate orderer telemetry: every replica's per-leader counters
    /// folded into one via [`OrdererStats::merge`].
    pub fn stats(&self) -> OrdererStats {
        let agg = OrdererStats::new();
        for s in &self.slots {
            agg.merge(&s.stats);
        }
        agg
    }

    /// Per-replica (leader-attributed) telemetry snapshots.
    pub fn per_leader_stats(&self) -> Vec<fabric_ordering::OrdererStatsSnapshot> {
        self.slots.iter().map(|s| s.stats.snapshot()).collect()
    }

    /// Block-stream fingerprints of all live replicas: `(replica, next
    /// block number, rolling hash over sealed header hashes)`. Identical
    /// tuples across replicas ⇔ byte-identical block streams.
    pub fn fingerprints(&self) -> Vec<(u32, u64, Digest)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.down)
            .map(|(i, s)| (i as u32, s.sealer.next_block_num(), s.chain_hash))
            .collect()
    }

    /// Runs one consensus height over `batch` and returns the decided,
    /// sealed block (`None` when the plan is empty — the height decides
    /// but seals no block, preserving empty-block suppression).
    ///
    /// Every live replica seals the decided plan on its own chain; the
    /// returned block is the lowest live replica's, after asserting all
    /// live replicas produced the identical block. Scheduled crashes,
    /// restarts, and equivocations fire here; an `Err` means liveness was
    /// lost (no quorum within `max_rounds`) or — never expected — safety.
    pub fn decide_batch(&mut self, batch: Vec<Transaction>) -> Result<Option<OrderedBlock>> {
        let height = self.next_height;
        self.next_height += 1;
        let n = self.slots.len();
        let crashes = self.cfg.crashes.clone();

        // Pre-propose crashes: the replica misses the height entirely.
        for c in &crashes {
            if c.at_height == height && !c.after_propose {
                let idx = c.replica as usize;
                if !self.slots[idx].down {
                    self.crash_slot(idx);
                }
            }
        }

        // Every live replica computes its own plan from its own copy of
        // the batch (the mempool model): prepare is stateless and pure, so
        // honest replicas derive identical digests.
        let txs_hint = batch.len() as u32;
        for idx in 0..n {
            if self.slots[idx].down {
                self.slots[idx].plan = None;
                continue;
            }
            let plan = self.prep.prepare_with(batch.clone(), &mut self.scratch);
            let digest = plan_digest(&plan);
            self.slots[idx].replica.begin_height(height, digest, txs_hint);
            self.slots[idx].plan = Some(plan);
        }

        // The round loop: deliver due messages, progress every replica,
        // expand new broadcasts through the fault hook; tick only when the
        // wire is silent. Ends when at least one replica decided and
        // nothing is in flight.
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            if rounds > self.cfg.max_rounds {
                return Err(Error::Config(format!(
                    "consensus height {height} undecided after {} rounds \
                     (quorum lost to crashes or partitions?)",
                    self.cfg.max_rounds
                )));
            }

            // Delayed messages arrive first: their spike is over.
            for idx in 0..n {
                if self.slots[idx].down {
                    continue;
                }
                let due = std::mem::take(&mut self.slots[idx].delayed);
                for m in due {
                    self.slots[idx].replica.receive(m);
                }
            }

            // Drain the wire in send order.
            let pending: Vec<Env> = self.wire.drain(..).collect();
            for env in pending {
                self.route(env);
            }

            // Progress every live replica; new broadcasts go on the wire.
            let mut emitted = false;
            for idx in 0..n {
                if self.slots[idx].down {
                    continue;
                }
                let outs = self.slots[idx].replica.progress();
                let proposed_now =
                    outs.iter().any(|m| matches!(m.payload, Payload::Proposal { .. }));
                for m in outs {
                    emitted = true;
                    self.broadcast(idx, m, height);
                }
                // Mid-height leader crash: the proposal made it onto the
                // wire, the process died right after.
                if proposed_now {
                    for c in &crashes {
                        if c.at_height == height
                            && c.after_propose
                            && c.replica as usize == idx
                            && !self.slots[idx].down
                        {
                            self.crash_slot(idx);
                        }
                    }
                }
            }

            let in_flight = !self.wire.is_empty()
                || self.slots.iter().any(|s| !s.down && !s.delayed.is_empty());
            let decided = self.slots.iter().any(|s| !s.down && s.replica.decided().is_some());
            if decided && !in_flight {
                break;
            }
            if !in_flight && !emitted {
                // Silent round. Flush any partial reorder bursts first (a
                // run-ending flush), then tick.
                if self.flush_bursts() {
                    continue;
                }
                for idx in 0..n {
                    if self.slots[idx].down {
                        continue;
                    }
                    let outs = self.slots[idx].replica.tick();
                    for m in outs {
                        self.broadcast(idx, m, height);
                    }
                }
            }
        }
        // Messages still held in unfinished bursts are stale once the
        // height ends (replicas ignore other heights); drop them.
        self.bursts.clear();
        self.wire.clear();

        // Telemetry: one decided height; view changes show up as the
        // decided view of the height (0 when the original leader carried).
        self.gauges.record_consensus_height();

        // Attribute the decided height to its leader's stats.
        let decided_view = self
            .slots
            .iter()
            .find_map(|s| if s.down { None } else { s.replica.decided_view() })
            .expect("loop broke with a decision");
        self.gauges.record_view_changes(decided_view);
        let leader = ((height + decided_view) % n as u64) as usize;
        {
            let probe = self
                .slots
                .iter()
                .find(|s| !s.down && s.plan.is_some())
                .expect("a live replica holds the plan");
            let plan = probe.plan.as_ref().unwrap();
            let stats = &self.slots[leader].stats;
            if plan.ordered.is_empty() {
                stats.record_empty_suppressed();
            } else {
                // The group decides batches its driver cut on demand.
                stats.record_cut(CutReason::Flush, batch.len());
            }
            stats.record_reorder(plan.reorder_elapsed, &plan.stats);
        }

        // Archive the decided batch, then seal on every live replica.
        self.decided.push(batch);
        debug_assert_eq!(self.decided.len() as u64, height);
        let mut canonical: Option<(usize, Option<OrderedBlock>)> = None;
        for idx in 0..n {
            if self.slots[idx].down {
                continue;
            }
            let sealed = self.seal_through(idx, height);
            match &mut canonical {
                None => canonical = Some((idx, sealed)),
                Some((first, reference)) => {
                    let same = match (&reference, &sealed) {
                        (None, None) => true,
                        (Some(a), Some(b)) => {
                            a.block.header.hash() == b.block.header.hash()
                                && a.block.txs.iter().map(|t| t.id).collect::<Vec<_>>()
                                    == b.block.txs.iter().map(|t| t.id).collect::<Vec<_>>()
                                && a.early_aborted
                                    .iter()
                                    .map(|(t, c)| (t.id, *c))
                                    .collect::<Vec<_>>()
                                    == b.early_aborted
                                        .iter()
                                        .map(|(t, c)| (t.id, *c))
                                        .collect::<Vec<_>>()
                        }
                        _ => false,
                    };
                    if !same {
                        return Err(Error::Config(format!(
                            "safety violation: replicas {first} and {idx} sealed \
                             different blocks at height {height}"
                        )));
                    }
                }
            }
        }

        // End-of-height restarts: recover the replica and catch it up by
        // sealing every decided height it missed from the archive.
        for c in &crashes {
            if c.restart_after_heights > 0
                && c.at_height + c.restart_after_heights == height + 1
            {
                let idx = c.replica as usize;
                if self.slots[idx].down {
                    self.slots[idx].down = false;
                    self.seal_through(idx, height);
                }
            }
        }

        Ok(canonical.expect("at least one live replica sealed").1)
    }

    /// Seals replica `idx`'s chain through decided height `target`,
    /// recomputing plans from the archive for any height it missed, and
    /// returns the block sealed *at* `target` (None = suppressed).
    fn seal_through(&mut self, idx: usize, target: u64) -> Option<OrderedBlock> {
        let mut result = None;
        while self.slots[idx].sealed_height < target {
            let h = self.slots[idx].sealed_height + 1;
            let plan = match self.slots[idx].plan.take_if(|_| h == target) {
                Some(plan) => plan,
                None => {
                    let batch = self.decided[(h - 1) as usize].clone();
                    self.prep.prepare_with(batch, &mut self.scratch)
                }
            };
            let sealed = self.slots[idx].sealer.seal(plan);
            if let Some(ob) = &sealed {
                let mut acc = Sha256::new();
                acc.update(self.slots[idx].chain_hash.as_bytes());
                acc.update(ob.block.header.hash().as_bytes());
                self.slots[idx].chain_hash = acc.finalize();
            }
            self.slots[idx].sealed_height = h;
            if h == target {
                result = sealed;
            }
        }
        result
    }

    /// Expands one broadcast into per-destination wire copies (ascending
    /// destination order, self excluded). Copies to a dead replica vanish
    /// without consulting the hook — messages to a dead process are lost,
    /// not faulted. Scheduled equivocations corrupt proposal copies toward
    /// their victims here, on the sender side.
    fn broadcast(&mut self, src: usize, msg: Msg, height: Height) {
        for dst in 0..self.slots.len() {
            if dst == src || self.slots[dst].down {
                continue;
            }
            let mut copy = msg;
            if let Payload::Proposal { plan } = msg.payload {
                let forged = self.cfg.equivocations.iter().any(|e| {
                    e.at_height == height
                        && e.leader as usize == src
                        && e.victims.contains(&(dst as u32))
                });
                if forged {
                    let mut h = Sha256::new();
                    h.update(plan.as_bytes());
                    copy.payload = Payload::Proposal { plan: h.finalize() };
                }
            }
            self.gauges.record_consensus_msg();
            self.wire.push_back(Env { from: src, to: dst, msg: copy });
        }
    }

    /// Delivers one wire copy through the fault hook (mirror of the
    /// peer-side `ChaosNet::deliver`, per directed replica link).
    fn route(&mut self, env: Env) {
        let Env { from, to, msg } = env;
        if self.slots[to].down {
            return;
        }
        // An open burst on this link absorbs without consulting the hook.
        if let Some(i) = self
            .bursts
            .iter()
            .position(|b| b.from == from && b.to == to && b.remaining > 0)
        {
            self.bursts[i].held.push(msg);
            self.bursts[i].remaining -= 1;
            if self.bursts[i].remaining == 0 {
                let mut held = std::mem::take(&mut self.bursts[i].held);
                held.reverse();
                for m in held {
                    self.slots[to].replica.receive(m);
                }
            }
            return;
        }
        let link = LinkId::between_replicas(from as u32, to as u32);
        match self.hook.on_send(link, msg.wire_size()) {
            SendFault::Deliver => self.slots[to].replica.receive(msg),
            SendFault::Drop => {}
            SendFault::Duplicate { extra } => {
                for _ in 0..=extra {
                    self.slots[to].replica.receive(msg);
                }
            }
            SendFault::Delay { .. } => self.slots[to].delayed.push(msg),
            SendFault::ReorderBurst { len } => {
                if len < 2 {
                    self.slots[to].replica.receive(msg);
                    return;
                }
                self.bursts.push(LinkBurst { from, to, held: vec![msg], remaining: len - 1 });
            }
        }
    }

    /// Releases every partially-filled burst in reverse order. Returns
    /// whether anything was delivered.
    fn flush_bursts(&mut self) -> bool {
        let mut flushed = false;
        for i in 0..self.bursts.len() {
            if self.bursts[i].held.is_empty() {
                continue;
            }
            let to = self.bursts[i].to;
            self.bursts[i].remaining = 0;
            let mut held = std::mem::take(&mut self.bursts[i].held);
            held.reverse();
            if !self.slots[to].down {
                for m in held {
                    self.slots[to].replica.receive(m);
                }
            }
            flushed = true;
        }
        self.bursts.clear();
        flushed
    }

    /// Kills replica `idx`: its delayed messages, plan, and any reorder
    /// bursts touching it die with the process. In-flight wire copies it
    /// already sent survive (they left the process before the crash).
    fn crash_slot(&mut self, idx: usize) {
        self.slots[idx].down = true;
        self.slots[idx].delayed.clear();
        self.slots[idx].plan = None;
        self.bursts.retain(|b| b.from != idx && b.to != idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::RwSetBuilder;
    use fabric_common::{ChannelId, ClientId, Key, TxId, Value, Version};
    use fabric_net::NoFaults;
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

    fn batch(n: u64) -> Vec<Transaction> {
        (0..n).map(|i| mk_tx(&[(i, Version::GENESIS)], &[i + 100])).collect()
    }

    fn group(cfg: GroupConfig) -> OrdererGroup {
        OrdererGroup::new(
            cfg,
            &PipelineConfig::fabric_pp(),
            0,
            Digest::ZERO,
            Arc::new(NoFaults),
        )
        .unwrap()
    }

    #[test]
    fn single_replica_matches_single_orderer_byte_for_byte() {
        let b = batch(6);
        let mut single = OrderingService::new(&PipelineConfig::fabric_pp());
        let mut g = group(GroupConfig::new(1));
        let expect = single.order_batch(b.clone()).unwrap();
        let got = g.decide_batch(b).unwrap().unwrap();
        assert_eq!(expect.block.header.hash(), got.block.header.hash());
        assert_eq!(
            expect.block.txs.iter().map(|t| t.id).collect::<Vec<_>>(),
            got.block.txs.iter().map(|t| t.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn three_replicas_agree_and_chain_blocks() {
        let mut g = group(GroupConfig::new(3));
        let b0 = g.decide_batch(batch(4)).unwrap().unwrap();
        let b1 = g.decide_batch(batch(4)).unwrap().unwrap();
        assert_eq!(b0.block.header.number, 0);
        assert_eq!(b1.block.header.number, 1);
        assert_eq!(b1.block.header.prev_hash, b0.block.header.hash());
        let fps = g.fingerprints();
        assert_eq!(fps.len(), 3);
        assert!(fps.iter().all(|(_, n, h)| (*n, *h) == (fps[0].1, fps[0].2)));
        assert_eq!(g.heights_decided(), 2);
    }

    #[test]
    fn empty_batch_decides_but_seals_nothing() {
        let mut g = group(GroupConfig::new(3));
        assert!(g.decide_batch(Vec::new()).unwrap().is_none());
        assert_eq!(g.heights_decided(), 1);
        let b = g.decide_batch(batch(2)).unwrap().unwrap();
        assert_eq!(b.block.header.number, 0, "suppressed height consumed no block number");
        assert_eq!(g.stats().snapshot().empty_suppressed, 1);
    }

    #[test]
    fn leader_crash_mid_height_converges_via_view_or_quorum() {
        // Height 1 of n=3 → leader is replica 1. It dies right after its
        // proposal hits the wire; the two survivors still reach quorum.
        let mut cfg = GroupConfig::new(3);
        cfg.crashes.push(OrdererCrash {
            replica: 1,
            at_height: 1,
            restart_after_heights: 1,
            after_propose: true,
        });
        let mut g = group(cfg);
        let b = g.decide_batch(batch(5)).unwrap().unwrap();
        assert_eq!(b.block.header.number, 0);
        // Restarted at end of height 1 and caught up by archive sealing.
        assert!(!g.is_down(1));
        let fps = g.fingerprints();
        assert_eq!(fps.len(), 3, "the crashed replica is back");
        assert!(fps.iter().all(|(_, n, h)| (*n, *h) == (fps[0].1, fps[0].2)));
        // The next height works with all three again.
        g.decide_batch(batch(3)).unwrap().unwrap();
    }

    #[test]
    fn leader_dead_before_proposing_forces_view_change() {
        // Height 1 leader (replica 1) is down for the whole height: the
        // group times out, moves to view 1 (leader 2), and decides there.
        let mut cfg = GroupConfig::new(3);
        cfg.crashes.push(OrdererCrash {
            replica: 1,
            at_height: 1,
            restart_after_heights: 2,
            after_propose: false,
        });
        let mut g = group(cfg);
        let b = g.decide_batch(batch(4)).unwrap().unwrap();
        assert_eq!(b.block.header.number, 0);
        assert!(g.is_down(1), "restart is one height later");
        let decided_view = g.slots[0].replica.decided_view().unwrap();
        assert!(decided_view >= 1, "a view change must have happened");
        g.decide_batch(batch(4)).unwrap().unwrap();
        assert!(!g.is_down(1));
        let fps = g.fingerprints();
        assert_eq!(fps.len(), 3);
        assert!(fps.iter().all(|(_, n, h)| (*n, *h) == (fps[0].1, fps[0].2)));
    }

    #[test]
    fn equivocation_never_forks_and_heals_by_view_change() {
        // Height 1 leader (replica 1) sends forged digests to BOTH
        // followers: no honest prevote quorum for the forgery is possible,
        // the view fails, and view 1's honest leader decides.
        let mut cfg = GroupConfig::new(3);
        cfg.equivocations.push(Equivocation {
            leader: 1,
            at_height: 1,
            victims: vec![0, 2],
        });
        let mut g = group(cfg);
        let b = g.decide_batch(batch(4)).unwrap().unwrap();
        assert_eq!(b.block.header.number, 0);
        let fps = g.fingerprints();
        assert!(fps.iter().all(|(_, n, h)| (*n, *h) == (fps[0].1, fps[0].2)));
        let decided_view = g.slots[0].replica.decided_view().unwrap();
        assert!(decided_view >= 1, "the equivocated view cannot decide");
    }

    #[test]
    fn partial_equivocation_is_outvoted_in_place() {
        // Only one victim: leader + the clean follower still form a
        // quorum for the honest digest — no view change needed.
        let mut cfg = GroupConfig::new(3);
        cfg.equivocations.push(Equivocation { leader: 1, at_height: 1, victims: vec![0] });
        let mut g = group(cfg);
        g.decide_batch(batch(4)).unwrap().unwrap();
        let decided_view = g.slots[2].replica.decided_view().unwrap();
        assert_eq!(decided_view, 0, "honest quorum decides in the original view");
    }

    #[test]
    fn quorum_loss_surfaces_as_liveness_error() {
        let mut cfg = GroupConfig::new(3);
        cfg.max_rounds = 32;
        cfg.crashes.push(OrdererCrash {
            replica: 0,
            at_height: 1,
            restart_after_heights: 0,
            after_propose: false,
        });
        cfg.crashes.push(OrdererCrash {
            replica: 1,
            at_height: 1,
            restart_after_heights: 0,
            after_propose: false,
        });
        let mut g = group(cfg);
        assert!(g.decide_batch(batch(3)).is_err(), "one of three cannot decide");
    }

    #[test]
    fn five_replicas_with_byzantine_quorum() {
        let mut cfg = GroupConfig::new(5);
        cfg.quorum = QuorumRule::Byzantine;
        let mut g = group(cfg);
        for _ in 0..3 {
            g.decide_batch(batch(4)).unwrap().unwrap();
        }
        let fps = g.fingerprints();
        assert_eq!(fps.len(), 5);
        assert!(fps.iter().all(|(_, n, h)| (*n, *h) == (fps[0].1, fps[0].2)));
    }

    #[test]
    fn per_leader_stats_merge_into_group_totals() {
        let mut g = group(GroupConfig::new(3));
        for _ in 0..4 {
            g.decide_batch(batch(3)).unwrap();
        }
        // Leaders rotate per height: 4 heights spread across 3 replicas.
        let per = g.per_leader_stats();
        let blocks: u64 = per.iter().map(|s| s.blocks).sum();
        assert_eq!(blocks, 4);
        assert!(per.iter().filter(|s| s.blocks > 0).count() >= 2, "leadership rotated");
        assert_eq!(g.stats().snapshot().blocks, 4);
        assert_eq!(g.stats().snapshot().txs_ordered, 12);
        assert_eq!(g.stats().snapshot().cut_flush, 4);
        assert_eq!(g.stats().snapshot().cut_tx_count, 0);
    }

    #[test]
    fn group_config_validation_rejects_nonsense() {
        assert!(group_err(GroupConfig { replicas: 0, ..GroupConfig::new(1) }));
        assert!(group_err(GroupConfig { timeout_ticks: 0, ..GroupConfig::new(3) }));
        let mut c = GroupConfig::new(3);
        c.crashes.push(OrdererCrash {
            replica: 7,
            at_height: 1,
            restart_after_heights: 1,
            after_propose: false,
        });
        assert!(group_err(c));
        let mut c = GroupConfig::new(3);
        c.equivocations.push(Equivocation { leader: 0, at_height: 1, victims: vec![] });
        assert!(group_err(c));
    }

    fn group_err(cfg: GroupConfig) -> bool {
        OrdererGroup::new(
            cfg,
            &PipelineConfig::fabric_pp(),
            0,
            Digest::ZERO,
            Arc::new(NoFaults),
        )
        .is_err()
    }

    #[test]
    fn restarted_follower_reseals_from_archive_to_the_same_fingerprint() {
        // A follower (never the leader here) catching up from the
        // decided-batch archive recomputes the plan once per missed
        // height; its chain fingerprint still matches byte-for-byte.
        let mut cfg = GroupConfig::new(3);
        cfg.crashes.push(OrdererCrash {
            replica: 2,
            at_height: 1,
            restart_after_heights: 2,
            after_propose: false,
        });
        let mut g = group(cfg);
        g.decide_batch(batch(4)).unwrap().unwrap();
        g.decide_batch(batch(4)).unwrap().unwrap();
        assert!(!g.is_down(2), "replica 2 restarted and caught up");
        let fps = g.fingerprints();
        assert_eq!(fps.len(), 3);
        assert!(fps.iter().all(|(_, n, h)| (*n, *h) == (fps[0].1, fps[0].2)));
    }

    #[test]
    fn plan_digest_is_a_pure_function_of_the_batch() {
        let prep = BatchPrep::new(&PipelineConfig::fabric_pp());
        let b = batch(5);
        let d1 = plan_digest(&prep.prepare(b.clone()));
        let d2 = plan_digest(&prep.prepare(b.clone()));
        assert_eq!(d1, d2);
        let d3 = plan_digest(&prep.prepare(batch(5)));
        assert_ne!(d1, d3, "different tx ids, different digest");
    }
}
