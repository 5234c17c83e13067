//! `ChaosNet`: the single-threaded, fully deterministic pipeline driver.
//!
//! Every phase is an explicit method call — [`ChaosNet::propose`]
//! (simulation), [`ChaosNet::submit`] (hand to the orderer's cutter),
//! [`ChaosNet::cut_block`] (delivery, validation and commit on every peer)
//! — so tests can script exact interleavings, e.g. "commit a block
//! between these two simulations", which the threaded runtime cannot
//! guarantee. Under [`FaultPlan::quiescent`] nothing is injected; the
//! paper's scripted scenarios (Appendix A, Tables 1 and 2, the §5.1 and
//! §5.2.2 early aborts) run that way.
//!
//! The net drives the threaded runtime's orderer and commit steps and
//! keeps only its own clock and transport. Its clock is the explicit
//! `cut_block`: submissions go through the same [`OrderingService`]
//! cutter, so a batch the spine's count, byte or unique-key thresholds cut
//! is sealed at once, and `cut_block` delivers it and then flushes the
//! rest; batch timeouts never fire. Its transport is a [`FaultInjector`]:
//! under any plan but the quiescent one each block is offered to every
//! peer individually and the injector's verdict decides whether that copy
//! is delivered, dropped, duplicated, deferred one round (a logical
//! latency spike), or absorbed into a reorder burst and released in
//! reverse order. [`Peer::process_block`] refuses a block out of turn, and
//! the net heals the refusal: a duplicate is ignored, a gap triggers
//! catch-up from the orderer's block archive. (The threaded runtime
//! panics instead: its FIFO links cannot produce either.)
//!
//! Scheduled faults from the plan are orchestrated here too: crash points
//! kill a peer right before their block is delivered (optionally tearing
//! its block file mid-append, see [`ChaosOptions::block_dir`]) and restart
//! it — through [`fabric_peer::recovery`] plus archive catch-up — a
//! configured number of blocks later, rebuilt through
//! [`PeerContext::restore_peer`]. That is all the harness owns: its
//! channel comes from [`assemble`] and its proposals go through
//! [`propose`], as on the threaded runtime.
//!
//! Because every step is driven by a plain method call on one thread, a
//! (plan, seed, workload) triple determines the entire run: the fault
//! schedule, each peer's commit sequence, and the final state. Tests
//! assert this via [`FaultInjector::schedule_digest`]. The one worker
//! knob, `validation_workers`, may fan signature checks out to helper
//! threads, but their verdicts are a pure function of the block, so the
//! run's observable bytes are identical at any setting; the conformance
//! harness verifies this byte-for-byte. Ordering always runs on the
//! calling thread.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use fabric_common::{
    ChannelId, ClientId, CostModel, Error, Key, PeerId, PipelineConfig, Result, Transaction,
    TransactionProposal, TxId, TxStats, Value,
};
use fabric_ledger::ledger::tear_block_file;
use fabric_ledger::{Block, Ledger};
use fabric_ordering::{OrdererStatsSnapshot, OrderingService};
use fabric_peer::chaincode::Chaincode;
use fabric_peer::peer::Peer;
use fabric_peer::validation_pool::ValidationPool;
use fabric_telemetry::{TelemetryConfig, TelemetrySeries};
use fabric_trace::TraceSink;
use fabricpp::channel::{assemble, PeerContext};
use fabricpp::client::{propose, ProposeOutcome};
use fabricpp::StateEngine;

use crate::injector::{FaultInjector, LinkId, SendFault};
use crate::invariants::{check_invariants, InvariantReport};
use crate::plan::FaultPlan;

struct Slot {
    peer: Arc<Peer>,
    down: bool,
    /// Blocks hit by a `Delay` verdict: they arrive at the start of the
    /// peer's next delivery round (one logical spike).
    delayed: Vec<Arc<Block>>,
    /// Blocks absorbed into an open reorder burst.
    burst: Vec<Arc<Block>>,
    /// Deliveries still to absorb before the burst flushes in reverse.
    burst_remaining: u32,
}

impl Slot {
    fn up(peer: Arc<Peer>) -> Self {
        Slot { peer, down: false, delayed: Vec::new(), burst: Vec::new(), burst_remaining: 0 }
    }
}

/// Non-semantic construction knobs for a [`ChaosNet`]: everything here
/// may change *how* a run executes (threading, storage engine, tracing,
/// telemetry, block files) but — by the determinism contract — never what
/// it computes. The conformance harness builds its replica matrix by
/// varying exactly these.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Flight-recorder sink, attached to the fault injector (every fault
    /// verdict mirrors into the trace), the orderer (cut, seal and
    /// order-phase abort provenance), proposals, and the reporting peer's
    /// validate/commit pipeline.
    /// Observation only (consulted strictly after verdicts are decided),
    /// so a traced run is byte-identical to an untraced one.
    pub sink: TraceSink,
    /// State-database engine backing every peer. `Lsm(dir)` opens one
    /// store per peer under `dir/peer-<id>`. Restarted peers always
    /// rebuild into memory (recovery replays the ledger), which is
    /// observationally identical: state digests are engine-independent.
    pub engine: StateEngine,
    /// `Some(cfg)`: attach the windowed time-series telemetry hub
    /// (logical-time windows over the run's counters and gauges; see
    /// `fabric-telemetry`). Observation only, like `sink`: a run with
    /// telemetry enabled is byte-identical to one without.
    pub telemetry: Option<TelemetryConfig>,
    /// `Some(dir)`: every peer's ledger is durable, opened at
    /// `dir/peer-<id>.blocks` when the peer is built (a fresh net needs
    /// no file there, or an empty one); each commit is written and
    /// fsynced to it, and a restarted peer recovers by reopening it,
    /// truncating a torn tail. Required by a plan whose crash points tear
    /// bytes off that file. `None`: anonymous ledgers, and a restarted
    /// peer recovers from its crashed incarnation's ledger.
    pub block_dir: Option<PathBuf>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            sink: TraceSink::disabled(),
            engine: StateEngine::Memory,
            telemetry: None,
            block_dir: None,
        }
    }
}

/// Deterministic (optionally fault-injecting) Fabric/Fabric++ instance.
pub struct ChaosNet {
    slots: Vec<Slot>,
    /// The orderer step the threaded runtime's orderer thread drives too.
    orderer: OrderingService,
    /// Blocks the cutter's thresholds sealed at submit time, in order;
    /// the next [`ChaosNet::cut_block`] delivers them.
    sealed: Vec<Arc<Block>>,
    /// Every delivered block, in order (block `n` at index `n - 1`). Each is
    /// sealed into one `Arc` that every delivery, duplicate and peer
    /// ledger shares.
    archive: Vec<Arc<Block>>,
    injector: Arc<FaultInjector>,
    /// Peer wiring shared with the threaded runtime, re-attached to every
    /// restarted peer.
    ctx: PeerContext,
    channel: ChannelId,
    block_dir: Option<PathBuf>,
}

impl ChaosNet {
    /// Builds a network of `orgs` × `peers_per_org` peers executing
    /// `plan`. Peer ids are assigned 1, 2, … in construction order, so a
    /// plan's crash points and partitions can name them directly; slot 0
    /// is the reporting peer.
    pub fn new(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
    ) -> Result<Self> {
        let opts = ChaosOptions::default();
        Self::with_options(config, orgs, peers_per_org, chaincodes, genesis, plan, opts)
    }

    /// [`ChaosNet::new`] with explicit non-semantic knobs (storage
    /// engine, trace sink, telemetry, block files) — the
    /// constructor the determinism-conformance harness varies its replica
    /// matrix over.
    pub fn with_options(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
        opts: ChaosOptions,
    ) -> Result<Self> {
        let ChaosOptions { sink, engine, telemetry, block_dir } = opts;
        config.validate()?;
        if orgs == 0 || peers_per_org == 0 {
            return Err(Error::Config("need at least one org and one peer".into()));
        }
        if block_dir.is_none() && plan.crashes.iter().any(|c| c.tear_bytes > 0) {
            return Err(Error::Config("a torn crash point needs a block_dir".into()));
        }
        // Peer ids run 1..=peers: a plan naming any other id would never fire.
        let peers = (orgs * peers_per_org) as u64;
        let named = plan.crashes.iter().map(|c| c.peer);
        let mut named = named.chain(plan.partitions.iter().flat_map(|p| p.peers.iter().copied()));
        if let Some(id) = named.find(|id| !(1..=peers).contains(id)) {
            return Err(Error::Config(format!("the plan names peer {id}; the net has 1..={peers}")));
        }
        if let Some(dir) = &block_dir {
            std::fs::create_dir_all(dir)?;
        }
        let injector = FaultInjector::new_traced(plan, sink.clone())?;
        // One signature-check pool shared across all peers (checking is
        // stateless); worker count is a non-semantic knob — validation
        // outcomes are identical at any setting.
        let pool = if config.validation_workers > 1 {
            ValidationPool::threaded(config.validation_workers)
        } else {
            ValidationPool::sequential()
        };
        let cost = CostModel::raw();
        let ctx = PeerContext::new(config, orgs, &chaincodes, cost, 1, pool, sink, telemetry);
        let ledger = |id| match &block_dir {
            Some(dir) => Ok(Arc::new(Ledger::open(Self::ledger_path(dir, id))?.0)),
            None => Ok(Arc::default()),
        };
        let (peers, orderer) =
            assemble(&ctx, config, peers_per_org, 1, &engine, genesis, ledger)?;
        ctx.connect_telemetry(vec![peers[0].store().counters()]);
        let slots = peers.into_iter().map(Slot::up).collect();
        Ok(ChaosNet {
            slots,
            orderer,
            sealed: Vec::new(),
            archive: Vec::new(),
            injector,
            ctx,
            channel: ChannelId(0),
            block_dir,
        })
    }

    /// Closes the telemetry tail window and returns the run's time series
    /// (`None` when telemetry was not enabled in [`ChaosOptions`]).
    /// Idempotent; call after the last block has been driven.
    pub fn telemetry_series(&self) -> Option<TelemetrySeries> {
        self.ctx.telemetry.finish()
    }

    /// The injector executing this run's plan (for event-log and
    /// schedule-digest assertions).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The ordering service's counters: one threshold cut per batch the
    /// cutter's thresholds cut, one flush cut per [`ChaosNet::cut_block`]
    /// that found transactions pending, and the batches early abort
    /// emptied.
    pub fn orderer_stats(&self) -> OrdererStatsSnapshot {
        self.ctx.orderer_stats.snapshot()
    }

    fn ledger_path(dir: &Path, id: PeerId) -> PathBuf {
        dir.join(format!("peer-{}.blocks", id.raw()))
    }

    /// Slot `idx`, or a config error naming it when the net has no such
    /// slot.
    fn slot_mut(&mut self, idx: usize) -> Result<&mut Slot> {
        let n = self.slots.len();
        self.slots
            .get_mut(idx)
            .ok_or_else(|| Error::Config(format!("no peer slot {idx}: the net has {n} slots")))
    }

    /// Simulation phase on the first live peer of each org.
    pub fn propose(&self, client: u64, chaincode: &str, args: Vec<u8>) -> ProposeOutcome {
        let proposal =
            TransactionProposal::new(self.channel, ClientId(client), chaincode, args);
        self.propose_proposal(proposal)
    }

    /// [`ChaosNet::propose`] with a caller-chosen transaction id instead
    /// of the process-global counter. Determinism harnesses that compare
    /// independent nets byte-for-byte use this so identical workloads
    /// yield identical ids (and hence identical block bytes) in every
    /// replica.
    pub fn propose_with_id(
        &self,
        id: TxId,
        client: u64,
        chaincode: &str,
        args: Vec<u8>,
    ) -> ProposeOutcome {
        let proposal =
            TransactionProposal::with_id(id, self.channel, ClientId(client), chaincode, args);
        self.propose_proposal(proposal)
    }

    fn propose_proposal(&self, proposal: TransactionProposal) -> ProposeOutcome {
        let per_org = self.slots.len() / self.ctx.policy.required_orgs().len();
        propose(&proposal, &self.ctx.counters, &self.ctx.sink, || {
            self.slots.chunks(per_org).map(|org| {
                let endorser = org.iter().find(|s| !s.down)?;
                Some(endorser.peer.endorse(&proposal))
            })
        })
    }

    /// Hands an endorsed transaction to the orderer's cutter. A batch the
    /// cutter's thresholds cut is sealed at once; the next
    /// [`ChaosNet::cut_block`] delivers it. The cutter never times out:
    /// the net polls no timeout.
    pub fn submit(&mut self, tx: Transaction) {
        let sealed = self.orderer.push(tx, Instant::now());
        self.sealed.extend(sealed);
    }

    /// Propose and, if endorsed, submit. Returns the tx id if it entered
    /// the pipeline.
    pub fn propose_and_submit(
        &mut self,
        client: u64,
        chaincode: &str,
        args: Vec<u8>,
    ) -> Option<TxId> {
        let outcome = self.propose(client, chaincode, args);
        self.submit_endorsed(outcome)
    }

    /// [`ChaosNet::propose_and_submit`] with a caller-chosen transaction
    /// id (see [`ChaosNet::propose_with_id`]).
    pub fn propose_and_submit_with_id(
        &mut self,
        id: TxId,
        client: u64,
        chaincode: &str,
        args: Vec<u8>,
    ) -> Option<TxId> {
        let outcome = self.propose_with_id(id, client, chaincode, args);
        self.submit_endorsed(outcome)
    }

    fn submit_endorsed(&mut self, outcome: ProposeOutcome) -> Option<TxId> {
        let ProposeOutcome::Endorsed(tx) = outcome else {
            return None;
        };
        let id = tx.id;
        self.submit(tx);
        Some(id)
    }

    /// Delivery: flushes whatever the orderer still has pending into one
    /// last block, then delivers every block sealed since the last call,
    /// in order — each archived, its scheduled crash points fired, offered
    /// to every peer through the injector, and due restarts fired.
    /// Returns the number of the last block delivered — read the committed
    /// block from a peer's ledger (`reporting_peer().ledger().get(n)`) —
    /// or `Ok(None)` when no block was sealed (nothing pending, which
    /// never reaches the orderer, or every batch fully early-aborted): no
    /// block is delivered, no block number is consumed, no crash/restart
    /// points fire, and the fault schedule stays deterministic per seed.
    pub fn cut_block(&mut self) -> Result<Option<u64>> {
        self.sealed.extend(self.orderer.flush());
        let crashes: Vec<_> = self.injector.plan().crashes.to_vec();
        let mut last = None;
        for block in std::mem::take(&mut self.sealed) {
            let num = block.header.number;
            self.archive.push(Arc::clone(&block));
            last = Some(num);

            // Scheduled crashes fire before delivery: the peer misses this
            // block entirely, like a process that died between cuts. A
            // plan's peer ids are checked at construction: peer `id` is
            // slot `id - 1`.
            for c in crashes.iter().filter(|c| c.at_block == num) {
                let idx = c.peer as usize - 1;
                if !self.slots[idx].down {
                    self.crash(idx)?;
                    if c.tear_bytes > 0 {
                        self.tear_block_log(idx, c.tear_bytes)?;
                    }
                }
            }

            for idx in 0..self.slots.len() {
                self.deliver(idx, Arc::clone(&block))?;
            }

            // Scheduled restarts fire after delivery, so a crash at block
            // `b` with `restart_after_blocks = r` misses exactly blocks
            // `b..b+r` before recovery and catch-up bring it back level.
            for c in &crashes {
                let due =
                    c.restart_after_blocks > 0 && c.at_block + c.restart_after_blocks == num + 1;
                if due && self.slots[c.peer as usize - 1].down {
                    self.restart(c.peer as usize - 1)?;
                }
            }
        }
        Ok(last)
    }

    /// Offers `block` to peer `idx` through the injector.
    fn deliver(&mut self, idx: usize, block: Arc<Block>) -> Result<()> {
        if self.slots[idx].down {
            return Ok(()); // messages to a dead process vanish
        }
        // Last round's delayed blocks arrive first: their spike is over.
        self.release(idx, false)?;
        // An open reorder burst absorbs deliveries without consulting the
        // injector, then flushes in reverse.
        let slot = &mut self.slots[idx];
        if slot.burst_remaining > 0 {
            slot.burst.push(block);
            slot.burst_remaining -= 1;
            if slot.burst_remaining == 0 {
                self.release(idx, true)?;
            }
            return Ok(());
        }
        let link = LinkId::from_orderer(slot.peer.id().raw() as u32);
        match self.injector.on_send(link) {
            SendFault::Deliver => self.apply(idx, block),
            SendFault::Drop => Ok(()),
            SendFault::Duplicate { extra } => {
                for _ in 0..=extra {
                    self.apply(idx, Arc::clone(&block))?;
                }
                Ok(())
            }
            SendFault::Delay { .. } => {
                self.slots[idx].delayed.push(block);
                Ok(())
            }
            SendFault::ReorderBurst { len } => {
                if len < 2 {
                    return self.apply(idx, block);
                }
                self.slots[idx].burst.push(block);
                self.slots[idx].burst_remaining = len - 1;
                Ok(())
            }
        }
    }

    /// Applies peer `idx`'s delayed blocks, then — with `close_burst` —
    /// closes its reorder burst and applies the absorbed blocks in
    /// reverse.
    fn release(&mut self, idx: usize, close_burst: bool) -> Result<()> {
        let slot = &mut self.slots[idx];
        let mut blocks = std::mem::take(&mut slot.delayed);
        if close_burst {
            slot.burst_remaining = 0;
            blocks.extend(std::mem::take(&mut slot.burst).into_iter().rev());
        }
        for b in blocks {
            self.apply(idx, b)?;
        }
        Ok(())
    }

    /// Commits `block` on peer `idx`, healing the peer's refusal of a
    /// block out of turn: a duplicate of a committed block is ignored, and
    /// a gap (an earlier block dropped or delayed past this one) is caught
    /// up from the archive, which holds everything up to this block.
    fn apply(&mut self, idx: usize, block: Arc<Block>) -> Result<()> {
        match self.slots[idx].peer.process_block(block) {
            Err(Error::BlockOutOfTurn { expected, received }) if received > expected => {
                self.catch_up(idx).map(drop)
            }
            Err(Error::BlockOutOfTurn { .. }) => Ok(()),
            other => other.map(drop),
        }
    }

    /// Replays archived blocks until peer `idx` is level with the orderer.
    fn catch_up(&mut self, idx: usize) -> Result<u64> {
        let mut applied = 0;
        loop {
            let next = self.slots[idx].peer.ledger().height() as usize;
            let Some(block) = self.archive.get(next - 1).map(Arc::clone) else {
                return Ok(applied);
            };
            self.slots[idx].peer.process_block(block)?;
            applied += 1;
        }
    }

    /// Crashes peer `idx`: it stops receiving blocks, and in-flight
    /// deliveries (delayed blocks, open bursts) are lost with the process.
    /// Its block file, if it keeps one, survives like a disk.
    pub fn crash(&mut self, idx: usize) -> Result<()> {
        let slot = self.slot_mut(idx)?;
        if slot.down {
            return Err(Error::Config(format!("peer slot {idx} is already down")));
        }
        slot.down = true;
        slot.delayed.clear();
        slot.burst.clear();
        slot.burst_remaining = 0;
        Ok(())
    }

    /// Tears `bytes` off the tail of a crashed peer's block file,
    /// simulating a crash that tore the last append mid-write (requires
    /// [`ChaosOptions::block_dir`]).
    pub fn tear_block_log(&mut self, idx: usize, bytes: u64) -> Result<()> {
        let slot = self.slot_mut(idx)?;
        if !slot.down {
            return Err(Error::Config("tear_block_log requires a crashed peer".into()));
        }
        let id = slot.peer.id();
        let dir = self
            .block_dir
            .as_ref()
            .ok_or_else(|| Error::Config("block files are not enabled".into()))?;
        tear_block_file(&Self::ledger_path(dir, id), bytes)
    }

    /// Restarts a crashed peer through [`PeerContext::restore_peer`] plus
    /// archive catch-up, and returns the number of blocks caught up. The
    /// peer recovers from its block file when it keeps one (reopened,
    /// which truncates a torn tail and fails on any other bad frame), and
    /// otherwise from its crashed incarnation's own ledger, shared after
    /// a full audit.
    pub fn restart(&mut self, idx: usize) -> Result<u64> {
        let slot = self.slot_mut(idx)?;
        if !slot.down {
            return Err(Error::Config("restart requires a crashed peer".into()));
        }
        let old = Arc::clone(&slot.peer);
        let ledger = match &self.block_dir {
            Some(dir) => Arc::new(Ledger::open(Self::ledger_path(dir, old.id()))?.0),
            None => {
                old.ledger().verify_chain()?;
                Arc::clone(old.ledger())
            }
        };
        self.slots[idx].peer = Arc::new(self.ctx.restore_peer(idx, &old, ledger)?);
        self.slots[idx].down = false;
        self.catch_up(idx)
    }

    /// Flushes every in-flight delivery (delayed blocks, open bursts) and
    /// catches every live peer up from the archive. Call before checking
    /// invariants — it is the logical-time analogue of the threaded
    /// network's drain-on-shutdown.
    pub fn settle(&mut self) -> Result<()> {
        for idx in 0..self.slots.len() {
            if !self.slots[idx].down {
                self.release(idx, true)?;
                self.catch_up(idx)?;
            }
        }
        Ok(())
    }

    /// Settles the network and runs the invariant sweep over live peers.
    pub fn check(&mut self) -> Result<InvariantReport> {
        self.settle()?;
        Ok(check_invariants(&self.live_peers()))
    }

    /// All peers, including crashed ones.
    pub fn peers(&self) -> Vec<Arc<Peer>> {
        self.slots.iter().map(|s| Arc::clone(&s.peer)).collect()
    }

    /// The reporting peer (slot 0): the one whose commits feed the outcome
    /// counters and the flight recorder.
    pub fn reporting_peer(&self) -> &Arc<Peer> {
        &self.slots[0].peer
    }

    /// Peers currently up.
    pub fn live_peers(&self) -> Vec<Arc<Peer>> {
        self.slots
            .iter()
            .filter(|s| !s.down)
            .map(|s| Arc::clone(&s.peer))
            .collect()
    }

    /// Whether peer slot `idx` is down.
    pub fn is_down(&self, idx: usize) -> bool {
        self.slots[idx].down
    }

    /// Number of submitted transactions the orderer has not cut yet.
    pub fn pending_count(&self) -> usize {
        self.orderer.cutter().len()
    }

    /// Blocks delivered so far (excluding genesis).
    pub fn blocks_cut(&self) -> u64 {
        self.archive.len() as u64
    }

    /// Outcome counters snapshot.
    pub fn stats(&self) -> TxStats {
        self.ctx.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::FaultEvent;
    use fabric_common::ValidationCode;
    use fabric_ledger::CommittedBlock;
    use fabricpp::chaincode_fn;

    fn transfer_chaincode() -> Arc<dyn Chaincode> {
        chaincode_fn("transfer", |ctx, args| {
            // args: 8 bytes from-account, 8 bytes to-account, 8 bytes amount
            if args.len() != 24 {
                return Err("bad args".into());
            }
            let from =
                Key::composite("acct", u64::from_le_bytes(args[0..8].try_into().unwrap()));
            let to =
                Key::composite("acct", u64::from_le_bytes(args[8..16].try_into().unwrap()));
            let amount = i64::from_le_bytes(args[16..24].try_into().unwrap());
            let fb = ctx.get_i64(&from).map_err(|e| e.to_string())?.ok_or("no from")?;
            let tb = ctx.get_i64(&to).map_err(|e| e.to_string())?.ok_or("no to")?;
            ctx.put_i64(from, fb - amount);
            ctx.put_i64(to, tb + amount);
            Ok(())
        })
    }

    fn args(from: u64, to: u64, amount: i64) -> Vec<u8> {
        let mut v = Vec::with_capacity(24);
        v.extend_from_slice(&from.to_le_bytes());
        v.extend_from_slice(&to.to_le_bytes());
        v.extend_from_slice(&amount.to_le_bytes());
        v
    }

    fn genesis(n: u64) -> Vec<(Key, Value)> {
        (0..n).map(|i| (Key::composite("acct", i), Value::from_i64(100))).collect()
    }

    /// A fault-free net of `orgs` × `per_org` peers over `accounts`
    /// accounts, running the transfer chaincode.
    fn quiet(cfg: PipelineConfig, orgs: usize, per_org: usize, accounts: u64) -> ChaosNet {
        let cc = vec![transfer_chaincode()];
        ChaosNet::new(&cfg, orgs, per_org, cc, &genesis(accounts), FaultPlan::quiescent(0))
            .unwrap()
    }

    /// A 2 × 2 net like [`quiet`] whose ledgers are block files under a
    /// fresh directory, which is returned with it.
    fn on_disk(cfg: PipelineConfig, plan: FaultPlan, accounts: u64, tag: &str) -> (ChaosNet, PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("fabric-chaosnet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ChaosOptions { block_dir: Some(dir.clone()), ..ChaosOptions::default() };
        let cc = vec![transfer_chaincode()];
        let net = ChaosNet::with_options(&cfg, 2, 2, cc, &genesis(accounts), plan, opts).unwrap();
        (net, dir)
    }

    /// Cuts a block and reads it back from the ledger of peer slot `idx`.
    fn cut_on(net: &mut ChaosNet, idx: usize) -> Arc<CommittedBlock> {
        let n = net.cut_block().unwrap().expect("block");
        net.peers()[idx].ledger().get(n).expect("committed")
    }

    fn cut(net: &mut ChaosNet) -> Arc<CommittedBlock> {
        cut_on(net, 0)
    }

    fn balance(peer: &Peer, acct: u64) -> i64 {
        let vv = peer.store().get(&Key::composite("acct", acct)).unwrap().unwrap();
        vv.value.as_i64().unwrap()
    }

    fn endorsed(outcome: ProposeOutcome) -> Transaction {
        match outcome {
            ProposeOutcome::Endorsed(tx) => tx,
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Peer `idx` matches the reporting peer: height, tip, and balances.
    fn assert_level(net: &ChaosNet, idx: usize, accounts: u64) {
        let (reference, peer) = (net.reporting_peer(), &net.peers()[idx]);
        assert_eq!(peer.ledger().height(), reference.ledger().height());
        assert_eq!(peer.ledger().tip_hash(), reference.ledger().tip_hash());
        peer.ledger().verify_chain().unwrap();
        for acct in 0..accounts {
            assert_eq!(balance(peer, acct), balance(reference, acct));
        }
    }

    fn run_workload(net: &mut ChaosNet, blocks: u64, accounts: u64) {
        let mut c = 0u64;
        for b in 0..blocks {
            for t in 0..3u64 {
                let from = (b * 3 + t) % accounts;
                let to = (from + 1) % accounts;
                net.propose_and_submit(c, "transfer", args(from, to, 1));
                c += 1;
            }
            net.cut_block().unwrap();
        }
    }

    #[test]
    fn happy_path_transfer() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 2, 4);
        net.propose_and_submit(0, "transfer", args(0, 1, 30)).unwrap();
        assert_eq!(cut(&mut net).validity, vec![ValidationCode::Valid]);
        assert_eq!(balance(net.reporting_peer(), 0), 70);
        assert_eq!(balance(net.reporting_peer(), 1), 130);
        // All peers agree.
        for peer in net.peers() {
            assert_eq!(peer.ledger().height(), 2);
            peer.ledger().verify_chain().unwrap();
        }
    }

    #[test]
    fn vanilla_conflicting_batch_loses_transactions() {
        // Two transfers touching account 0, simulated against the same
        // state, in one block: under vanilla arrival order the second dies.
        let mut net = quiet(PipelineConfig::vanilla(), 2, 1, 4);
        net.propose_and_submit(0, "transfer", args(0, 1, 10)).unwrap();
        net.propose_and_submit(1, "transfer", args(0, 2, 10)).unwrap();
        let block = cut(&mut net);
        assert_eq!(block.validity, vec![ValidationCode::Valid, ValidationCode::MvccConflict]);
        let s = net.stats();
        assert_eq!((s.valid, s.mvcc_conflict), (1, 1));
    }

    #[test]
    fn fabricpp_reorders_conflicting_batch() {
        // Both transfers read and write acct0: conflict edges both ways
        // form a 2-cycle, so Fabric++ aborts one at ORDER time and commits
        // the other; nothing reaches validation as a conflict.
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 1, 4);
        net.propose_and_submit(0, "transfer", args(0, 1, 10)).unwrap();
        net.propose_and_submit(1, "transfer", args(0, 2, 10)).unwrap();
        assert_eq!(cut(&mut net).validity, vec![ValidationCode::Valid]);
        let s = net.stats();
        assert_eq!((s.valid, s.early_abort_cycle, s.mvcc_conflict), (1, 1, 0));
    }

    #[test]
    fn fabricpp_reorders_read_after_write_to_success() {
        // A pure reader of acct0 and a writer of acct0 (no cycle): vanilla
        // arrival order (writer first) kills the reader; Fabric++ schedules
        // the reader first and both commit.
        let reader_cc = chaincode_fn("audit", |ctx, args| {
            let k = Key::composite("acct", u64::from_le_bytes(args.try_into().map_err(|_| "bad")?));
            let v = ctx.get_i64(&k).map_err(|e| e.to_string())?.ok_or("missing")?;
            ctx.put_i64(Key::from("audit-log"), v);
            Ok(())
        });
        let writer_cc = chaincode_fn("deposit", |ctx, args| {
            let k = Key::composite("acct", u64::from_le_bytes(args.try_into().map_err(|_| "bad")?));
            ctx.put_i64(k, 999);
            Ok(())
        });
        for (cfg, expect_valid) in
            [(PipelineConfig::vanilla(), 1usize), (PipelineConfig::fabric_pp(), 2usize)]
        {
            let ccs = vec![reader_cc.clone(), writer_cc.clone()];
            let plan = FaultPlan::quiescent(0);
            let mut net = ChaosNet::new(&cfg, 2, 1, ccs, &genesis(4), plan).unwrap();
            // Writer submitted FIRST (arrival order dooms the reader).
            net.propose_and_submit(0, "deposit", 0u64.to_le_bytes().to_vec()).unwrap();
            net.propose_and_submit(1, "audit", 0u64.to_le_bytes().to_vec()).unwrap();
            assert_eq!(cut(&mut net).valid_count(), expect_valid, "mode {}", cfg.mode_label());
        }
    }

    #[test]
    fn cross_block_stale_read_aborts_in_validation() {
        // Simulate tx A, commit a conflicting block, then submit A: its
        // read version is stale by commit time → MVCC abort (vanilla path).
        let mut net = quiet(PipelineConfig::vanilla(), 2, 1, 4);
        let stale_tx = endorsed(net.propose(0, "transfer", args(0, 1, 5)));
        net.propose_and_submit(1, "transfer", args(0, 2, 7)).unwrap();
        net.cut_block().unwrap();
        net.submit(stale_tx);
        assert_eq!(cut(&mut net).validity, vec![ValidationCode::MvccConflict]);
        assert_eq!(balance(net.reporting_peer(), 1), 100, "stale write discarded");
    }

    #[test]
    fn fabricpp_early_aborts_stale_simulation() {
        // Two endorsements of the same transfer straddling a commit land
        // in one batch: the orderer's version-mismatch check must drop the
        // older reader and keep the fresh one.
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 1, 4);
        let t_old = endorsed(net.propose(0, "transfer", args(0, 1, 5)));
        net.propose_and_submit(1, "transfer", args(0, 2, 7)).unwrap();
        net.cut_block().unwrap();
        let t_new = endorsed(net.propose(2, "transfer", args(0, 1, 5)));
        let (old_id, new_id) = (t_old.id, t_new.id);
        net.submit(t_old);
        net.submit(t_new);
        let block = cut(&mut net);
        assert_eq!(block.block.txs.len(), 1);
        assert_eq!(block.block.txs[0].id, new_id);
        assert_eq!(block.validity, vec![ValidationCode::Valid]);
        assert_eq!(net.stats().early_abort_version_mismatch, 1);
        assert!(net.reporting_peer().ledger().find_tx(old_id).is_none());
    }

    #[test]
    fn stats_account_every_submission() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 1, 10);
        for i in 0..5 {
            net.propose_and_submit(i, "transfer", args(i, i + 5, 1)).unwrap();
        }
        net.cut_block().unwrap();
        let s = net.stats();
        assert_eq!((s.submitted, s.finished()), (5, 5));
        assert_eq!(s.valid, 5, "disjoint transfers all commit");
    }

    #[test]
    fn crash_and_restart_converges_in_memory() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 2, 6);
        net.propose_and_submit(0, "transfer", args(0, 1, 10)).unwrap();
        net.cut_block().unwrap();

        // Crash a non-endorsing peer, commit two blocks it never sees.
        net.crash(1).unwrap();
        assert!(net.crash(1).is_err(), "already down");
        net.propose_and_submit(1, "transfer", args(2, 3, 5)).unwrap();
        net.cut_block().unwrap();
        net.propose_and_submit(2, "transfer", args(4, 5, 7)).unwrap();
        net.cut_block().unwrap();
        assert_eq!(net.peers()[1].ledger().height(), 2, "crashed peer misses blocks");

        assert_eq!(net.restart(1).unwrap(), 2, "both missed blocks caught up");
        assert!(net.restart(1).is_err(), "restarting a live peer is refused");
        assert_level(&net, 1, 6);
    }

    #[test]
    fn crash_with_torn_block_log_recovers_and_converges() {
        let plan = FaultPlan::quiescent(0);
        let (mut net, dir) = on_disk(PipelineConfig::vanilla(), plan, 6, "manual-torn");
        net.propose_and_submit(0, "transfer", args(0, 1, 10)).unwrap();
        net.cut_block().unwrap();
        net.propose_and_submit(1, "transfer", args(2, 3, 5)).unwrap();
        net.cut_block().unwrap();

        // Crash peer 3 and tear the tail of its block file, as if the
        // process died mid-append of block 2.
        assert!(net.tear_block_log(3, 9).is_err(), "only a crashed peer's log tears");
        net.crash(3).unwrap();
        net.tear_block_log(3, 9).unwrap();
        net.propose_and_submit(2, "transfer", args(4, 5, 7)).unwrap();
        net.cut_block().unwrap();

        // Restart: torn tail discarded, prefix replayed, archive catch-up
        // re-commits both the torn block and the missed one.
        assert_eq!(net.restart(3).unwrap(), 2);
        assert_level(&net, 3, 6);

        // The re-synced block file now reopens cleanly at full height.
        net.crash(3).unwrap();
        assert_eq!(net.restart(3).unwrap(), 0, "no catch-up needed after a clean crash");
        assert_level(&net, 3, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn endorsers_skip_crashed_peers() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 2, 4);
        // Peer 1 (org 1's first peer, the reporting slot) crashes; peer 2
        // of the same org takes over endorsement duty.
        net.crash(0).unwrap();
        net.propose_and_submit(0, "transfer", args(0, 1, 10)).unwrap();
        assert_eq!(cut_on(&mut net, 1).validity, vec![ValidationCode::Valid]);
        // Crash the whole org: proposals are rejected.
        net.crash(1).unwrap();
        match net.propose(1, "transfer", args(0, 1, 1)) {
            ProposeOutcome::Rejected(e) => assert!(e.contains("no live endorser"), "{e}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_cut_produces_no_block() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 1, 1, 1);
        let heights: Vec<u64> = net.peers().iter().map(|p| p.ledger().height()).collect();
        assert!(net.cut_block().unwrap().is_none(), "no empty block delivered");
        assert_eq!((net.pending_count(), net.blocks_cut()), (0, 0));
        for (peer, h) in net.peers().iter().zip(heights) {
            assert_eq!(peer.ledger().height(), h, "chain untouched by empty cut");
        }
        // The next real cut picks up block numbering with no gap.
        net.propose_and_submit(0, "transfer", args(0, 0, 0)).unwrap();
        assert_eq!(cut(&mut net).block.header.number, 1);
    }

    #[test]
    fn orderer_stats_count_one_flush_cut_per_block() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 2, 8);
        assert!(net.cut_block().unwrap().is_none(), "empty buffer");
        run_workload(&mut net, 6, 8);
        let s = net.orderer_stats();
        assert_eq!(net.blocks_cut(), 6);
        assert_eq!(s.blocks, net.blocks_cut());
        assert_eq!(s.cut_flush, net.blocks_cut());
        assert_eq!(s.txs_ordered, 18, "every submitted transfer reached the orderer");
        assert_eq!(s.empty_suppressed, 0, "an empty buffer never reaches the orderer");
    }

    /// Ten disjoint transfers, then one `cut_block`, under `cfg`: every
    /// peer's blocks since genesis, as transaction counts.
    fn cut_ten(cfg: PipelineConfig) -> (ChaosNet, Vec<Vec<usize>>) {
        let mut net = quiet(cfg, 2, 2, 20);
        for i in 0..10 {
            net.propose_and_submit(i, "transfer", args(i, i + 10, 1)).unwrap();
        }
        assert_eq!(net.cut_block().unwrap(), Some(3), "the last block delivered");
        assert_eq!(net.pending_count(), 0);
        let sizes = net
            .peers()
            .iter()
            .map(|p| {
                let ledger = p.ledger();
                (1..ledger.height()).map(|n| ledger.get(n).unwrap().block.txs.len()).collect()
            })
            .collect();
        (net, sizes)
    }

    #[test]
    fn cuts_where_the_spine_cuts() {
        // The spine's cutter thresholds hold here too: a full batch is
        // sealed at submit time, `cut_block` delivers it and flushes the
        // rest — by count, and by unique keys (each transfer touches 2).
        let (net, sizes) = cut_ten(PipelineConfig::fabric_pp().with_block_size(4));
        assert_eq!(sizes, vec![vec![4, 4, 2]; 4]);
        let s = net.orderer_stats();
        assert_eq!((s.cut_tx_count, s.cut_unique_keys, s.cut_flush, s.blocks), (2, 0, 1, 3));

        let mut cfg = PipelineConfig::fabric_pp();
        cfg.cutting.max_unique_keys = Some(8);
        let (net, sizes) = cut_ten(cfg);
        assert_eq!(sizes, vec![vec![4, 4, 2]; 4]);
        let s = net.orderer_stats();
        assert_eq!((s.cut_tx_count, s.cut_unique_keys, s.cut_flush, s.blocks), (0, 2, 1, 3));
        assert_eq!(net.stats().valid, 10, "disjoint transfers all commit");
    }

    #[test]
    fn quiescent_run_is_clean_and_conserves_money() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 2, 8);
        run_workload(&mut net, 6, 8);
        let report = net.check().unwrap();
        report.assert_ok();
        assert_eq!(report.peers_checked, 4);
        assert_eq!(net.injector().fault_count(), 0);
        // Transfers conserve the total balance.
        let total: i64 = (0..8).map(|i| balance(net.reporting_peer(), i)).sum();
        assert_eq!(total, 800);
    }

    #[test]
    fn chaotic_run_still_converges() {
        let mut net = ChaosNet::new(
            &PipelineConfig::fabric_pp(),
            2,
            2,
            vec![transfer_chaincode()],
            &genesis(8),
            FaultPlan::chaotic(42),
        )
        .unwrap();
        run_workload(&mut net, 12, 8);
        assert!(net.injector().fault_count() > 0, "chaos must actually fire");
        let report = net.check().unwrap();
        report.assert_ok();
    }

    #[test]
    fn scheduled_crash_and_restart_converges() {
        let plan = FaultPlan::quiescent(3).with_crash(2, 2, 2);
        let mut net = ChaosNet::new(
            &PipelineConfig::fabric_pp(),
            2,
            2,
            vec![transfer_chaincode()],
            &genesis(8),
            plan,
        )
        .unwrap();
        run_workload(&mut net, 2, 8);
        assert!(net.is_down(1), "peer 2 crashes at block 2");
        run_workload(&mut net, 2, 8);
        assert!(!net.is_down(1), "restarted after two blocks");
        net.check().unwrap().assert_ok();
    }

    #[test]
    fn torn_crash_recovers_from_disk() {
        let plan = FaultPlan::quiescent(4).with_torn_crash(3, 2, 1, 9);
        let (mut net, dir) = on_disk(PipelineConfig::vanilla(), plan, 8, "torn");
        run_workload(&mut net, 4, 8);
        net.check().unwrap().assert_ok();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_crash_plan_without_block_dir_is_rejected_up_front() {
        let plan = FaultPlan::quiescent(4).with_torn_crash(3, 2, 1, 9);
        let cc = vec![transfer_chaincode()];
        match ChaosNet::new(&PipelineConfig::vanilla(), 2, 2, cc, &genesis(8), plan) {
            Err(Error::Config(msg)) => assert!(msg.contains("block_dir"), "{msg}"),
            Err(e) => panic!("expected a config error, got {e}"),
            Ok(_) => panic!("a torn crash point without a block file was accepted"),
        }
    }

    #[test]
    fn out_of_range_slots_are_config_errors() {
        let mut net = quiet(PipelineConfig::fabric_pp(), 2, 2, 4);
        assert!(matches!(net.crash(99), Err(Error::Config(_))));
        assert!(matches!(net.restart(4), Err(Error::Config(_))));
        assert!(matches!(net.tear_block_log(99, 1), Err(Error::Config(_))));
    }

    #[test]
    fn plan_naming_a_missing_peer_is_rejected_up_front() {
        for plan in [
            FaultPlan::quiescent(4).with_crash(9, 2, 1),
            FaultPlan::quiescent(4).with_crash(0, 2, 1),
            FaultPlan::quiescent(4).with_partition(vec![3, 5], 0, 2),
        ] {
            let cc = vec![transfer_chaincode()];
            match ChaosNet::new(&PipelineConfig::fabric_pp(), 2, 2, cc, &genesis(8), plan) {
                Err(Error::Config(msg)) => assert!(msg.contains("names peer"), "{msg}"),
                Err(e) => panic!("expected a config error, got {e}"),
                Ok(_) => panic!("a plan naming a peer the net lacks was accepted"),
            }
        }
    }

    #[test]
    fn bad_frame_in_a_block_file_fails_restart_unless_it_is_the_tail() {
        let plan = FaultPlan::quiescent(0);
        let (mut net, dir) = on_disk(PipelineConfig::vanilla(), plan, 6, "corrupt");
        net.propose_and_submit(0, "transfer", args(0, 1, 10)).unwrap();
        net.cut_block().unwrap();
        net.propose_and_submit(1, "transfer", args(2, 3, 5)).unwrap();
        net.cut_block().unwrap();
        net.crash(3).unwrap();
        let path = dir.join("peer-4.blocks");
        let intact = std::fs::read(&path).unwrap();

        // A flipped byte in block 0's payload is data loss, not a torn
        // append: the restart fails, naming the block, and the file stays
        // as it was.
        let mut bytes = intact.clone();
        bytes[20] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match net.restart(3) {
            Err(Error::Corruption(msg)) => assert!(msg.contains("block 0"), "{msg}"),
            other => panic!("expected corruption, got {other:?}"),
        }
        assert!(net.is_down(3));
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "nothing truncated");

        // The same flip in the tail frame is what a torn append leaves: the
        // frame is cut off, and catch-up re-commits it and the missed block.
        let mut bytes = intact;
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        net.propose_and_submit(2, "transfer", args(4, 5, 7)).unwrap();
        net.cut_block().unwrap();
        assert_eq!(net.restart(3).unwrap(), 2);
        assert_level(&net, 3, 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partition_heals_and_network_converges() {
        // Peers 3 and 4 partitioned for blocks 1..4, healed afterwards.
        let plan = FaultPlan::quiescent(5).with_partition(vec![3, 4], 0, 3);
        let mut net = ChaosNet::new(
            &PipelineConfig::fabric_pp(),
            2,
            2,
            vec![transfer_chaincode()],
            &genesis(8),
            plan,
        )
        .unwrap();
        run_workload(&mut net, 3, 8);
        // Mid-partition: the cut-off peers are behind.
        let peers = net.peers();
        assert!(peers[2].ledger().height() < peers[0].ledger().height());
        run_workload(&mut net, 2, 8);
        let report = net.check().unwrap();
        report.assert_ok();
    }

    #[test]
    fn every_peer_ledger_shares_one_copy_of_each_block() {
        // Drops (gap healing), duplicates, delay spikes, reorder bursts and
        // a crash healed by restart plus archive catch-up: every path hands
        // a peer the archive's `Arc`, never a copy of the block, and every
        // peer reads back the same chain. Each ledger keeps only its tip in
        // memory, so the archive's `Arc` of an earlier block outlives every
        // ledger's hold on it.
        let plan = FaultPlan::chaotic(13).with_crash(2, 3, 2);
        let cfg = PipelineConfig::fabric_pp();
        let mut net =
            ChaosNet::new(&cfg, 2, 2, vec![transfer_chaincode()], &genesis(8), plan).unwrap();
        run_workload(&mut net, 16, 8);
        net.check().unwrap().assert_ok();
        assert!(!net.is_down(1), "the crashed peer restarted");
        let verdicts: Vec<SendFault> = net
            .injector()
            .events()
            .into_iter()
            .filter_map(|e| match e {
                FaultEvent::Net { verdict, .. } => Some(verdict),
                FaultEvent::Wal { .. } => None,
            })
            .collect();
        for (kind, fired) in [
            ("drop", verdicts.iter().any(|v| matches!(v, SendFault::Drop))),
            ("duplicate", verdicts.iter().any(|v| matches!(v, SendFault::Duplicate { .. }))),
            ("delay", verdicts.iter().any(|v| matches!(v, SendFault::Delay { .. }))),
            ("reorder", verdicts.iter().any(|v| matches!(v, SendFault::ReorderBurst { .. }))),
        ] {
            assert!(fired, "no {kind} fault fired");
        }
        let peers = net.peers();
        let tip = net.blocks_cut();
        for n in 0..=tip {
            let first = peers[0].ledger().get(n).unwrap();
            let ids: Vec<_> = first.block.txs.iter().map(|tx| tx.id).collect();
            for peer in &peers[1..] {
                let other = peer.ledger().get(n).unwrap();
                assert_eq!(other.block.header.hash(), first.block.header.hash(), "block {n}");
                assert_eq!(other.validity, first.validity, "block {n}");
                let other_ids: Vec<_> = other.block.txs.iter().map(|tx| tx.id).collect();
                assert_eq!(other_ids, ids, "block {n}");
            }
        }
        // Every ledger's tip is the archive's block itself...
        let archived_tip = &net.archive[tip as usize - 1];
        for peer in &peers {
            let held = peer.ledger().get(tip).unwrap();
            assert!(Arc::ptr_eq(&held.block, archived_tip), "tip block {tip} was copied");
        }
        // ...and every earlier block is spilled: no ledger still holds the
        // delivered `Arc`, only the archive and any link buffer do.
        for (i, block) in net.archive[..tip as usize - 1].iter().enumerate() {
            let buffered: usize = net
                .slots
                .iter()
                .flat_map(|s| s.delayed.iter().chain(&s.burst))
                .filter(|b| Arc::ptr_eq(b, block))
                .count();
            let n = i + 1;
            assert_eq!(
                Arc::strong_count(block),
                1 + buffered,
                "block {n} still held by a ledger after block {tip} committed everywhere"
            );
        }
    }

    #[test]
    fn same_seed_reruns_identically() {
        // Tx ids come from a process-global counter, so raw block hashes
        // differ between in-process runs; the determinism contract is the
        // fault schedule and the observable outcomes.
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut net = ChaosNet::new(
                    &PipelineConfig::fabric_pp(),
                    2,
                    2,
                    vec![transfer_chaincode()],
                    &genesis(8),
                    FaultPlan::chaotic(7),
                )
                .unwrap();
                run_workload(&mut net, 10, 8);
                net.check().unwrap().assert_ok();
                let state: Vec<_> = (0..8).map(|i| balance(net.reporting_peer(), i)).collect();
                (
                    net.injector().schedule_digest(),
                    net.injector().events(),
                    net.reporting_peer().ledger().height(),
                    state,
                )
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "fault schedules diverged");
        assert_eq!(runs[0].1, runs[1].1);
        assert_eq!(runs[0].2, runs[1].2, "heights diverged");
        assert_eq!(runs[0].3, runs[1].3, "final states diverged");
    }
}
