//! `ChaosNet`: a single-threaded, fully deterministic chaos harness.
//!
//! Structurally a sibling of [`fabricpp::SyncNet`], but block delivery
//! runs through a [`FaultInjector`]: each cut block is offered to every
//! peer individually and the injector's verdict decides whether that copy
//! is delivered, dropped, duplicated, deferred one round (a logical
//! latency spike), or absorbed into a reorder burst and released in
//! reverse order. Peers heal duplicates and gaps exactly like the
//! threaded runtime: a block below the chain height is ignored, a block
//! above it triggers catch-up from the orderer's block archive.
//!
//! Scheduled faults from the plan are orchestrated here too: crash points
//! kill a peer right before their block is cut (optionally tearing its
//! on-disk block log mid-append) and restart it — through
//! [`fabric_peer::recovery`] plus archive catch-up — a configured number
//! of blocks later.
//!
//! Because every step is driven by a plain method call on one thread, a
//! (plan, seed, workload) triple determines the entire run: the fault
//! schedule, each peer's commit sequence, and the final state. Tests
//! assert this via [`FaultInjector::schedule_digest`]. The worker knobs
//! (`validation_workers`, `reorder_workers`) may fan stages out to
//! helper threads, but both stages carry a determinism contract — their
//! outputs are pure functions of their inputs — so the run's observable
//! bytes are identical at any setting; the conformance harness verifies
//! this byte-for-byte.

use std::path::PathBuf;
use std::sync::Arc;

use fabric_common::{
    ChannelId, ClientId, CostModel, Error, Key, LatencyRecorder, OrgId, PeerId,
    PipelineConfig, Result, SignerRegistry, SigningKey, SubsystemGauges, Transaction,
    TransactionProposal, TxCounters, TxId, TxStats, ValidationCode, Value,
};
use fabric_telemetry::{TelemetryConfig, TelemetryHub, TelemetrySeries};
use fabric_consensus::{GroupConfig, OrdererGroup};
use fabric_ledger::{Block, FileBlockStore};
use fabric_net::{FaultHook, LinkId, SendFault};
use fabric_ordering::{CutReason, OrderingService, ReorderPipeline};
use fabric_peer::chaincode::{Chaincode, ChaincodeRegistry, SimulationError};
use fabric_peer::peer::Peer;
use fabric_peer::recovery;
use fabric_peer::validation_pool::ValidationPool;
use fabric_peer::validator::EndorsementPolicy;
use fabric_statedb::{LsmConfig, LsmStateDb, MemStateDb, StateStore};
use fabric_trace::TraceSink;
use fabricpp::client::assemble_transaction;
use fabricpp::sync::ProposeOutcome;
use fabricpp::StateEngine;

use crate::injector::FaultInjector;
use crate::invariants::{check_invariants, InvariantReport};
use crate::plan::FaultPlan;

struct Slot {
    peer: Arc<Peer>,
    down: bool,
    /// Blocks hit by a `Delay` verdict: they arrive at the start of the
    /// peer's next delivery round (one logical spike).
    delayed: Vec<Block>,
    /// Blocks absorbed into an open reorder burst.
    burst: Vec<Block>,
    /// Deliveries still to absorb before the burst flushes in reverse.
    burst_remaining: u32,
    log: Option<FileBlockStore>,
}

/// The ordering side of a [`ChaosNet`]: either the classic single
/// ordering process, or a replicated consensus group whose inter-replica
/// messages run through the same fault injector as block delivery.
enum OrdererBackend {
    /// One ordering process. Each batch runs through a
    /// [`ReorderPipeline`] sized by `PipelineConfig::reorder_workers`
    /// and is sealed on this thread. The pipeline's determinism contract
    /// (prepared plans are a pure function of the batch, independent of
    /// worker count) keeps schedule digests a pure function of (plan,
    /// seed, workload) at any worker setting — the conformance harness
    /// asserts exactly this.
    Single {
        orderer: OrderingService,
        pipeline: ReorderPipeline,
    },
    /// `n` consensus replicas deciding each batch before it is sealed
    /// (boxed: a group is an order of magnitude bigger than the single
    /// path).
    Replicated(Box<OrdererGroup>),
}

/// Non-semantic construction knobs for a [`ChaosNet`]: everything here
/// may change *how* a run executes (threading, storage engine, tracing,
/// consensus replication) but — by the determinism contract — never what
/// it computes. The conformance harness builds its replica matrix by
/// varying exactly these.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// `Some(n)`: replace the single ordering process with an `n`-replica
    /// consensus group (see [`ChaosNet::new_replicated`]). `None`: classic
    /// single orderer. Note that consensus replicas consume fault-injector
    /// dice rolls, so schedule digests are only comparable across replica
    /// counts under a quiescent plan.
    pub replicas: Option<usize>,
    /// Flight-recorder sink; observation only (attached strictly after
    /// verdicts are decided), so a traced run is byte-identical to an
    /// untraced one.
    pub sink: TraceSink,
    /// State-database engine backing every peer. `Lsm(dir)` opens one
    /// store per peer under `dir/peer-<id>`. Restarted peers always
    /// rebuild into memory (recovery replays the ledger), which is
    /// observationally identical: state digests are engine-independent.
    pub engine: StateEngine,
    /// `Some(n)`: every peer's store retains up to `n` committed versions
    /// per key for snapshot reads. `None`: engine default. Retention is
    /// non-semantic — it bounds how far back a pinned snapshot can live,
    /// never what a run computes.
    pub retained_versions: Option<usize>,
    /// `Some(cfg)`: attach the windowed time-series telemetry hub
    /// (logical-time windows over the run's counters and gauges; see
    /// `fabric-telemetry`). Observation only, like `sink`: a run with
    /// telemetry enabled is byte-identical to one without.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            replicas: None,
            sink: TraceSink::disabled(),
            engine: StateEngine::Memory,
            retained_versions: None,
            telemetry: None,
        }
    }
}

/// Deterministic fault-injecting Fabric/Fabric++ instance.
pub struct ChaosNet {
    slots: Vec<Slot>,
    orderer: OrdererBackend,
    pending: Vec<Transaction>,
    /// Every ordered block, in order (block `n` at index `n - 1`).
    archive: Vec<Block>,
    injector: Arc<FaultInjector>,
    counters: TxCounters,
    latency: LatencyRecorder,
    /// Flight-recorder sink; re-attached to the reporting peer on restart.
    sink: TraceSink,
    channel: ChannelId,
    orgs: usize,
    config: PipelineConfig,
    chaincodes: ChaincodeRegistry,
    registry: SignerRegistry,
    policy: EndorsementPolicy,
    /// Signature-check pool shared by every peer (and re-attached on
    /// restart), sized by `PipelineConfig::validation_workers`.
    pool: Arc<ValidationPool>,
    block_log_dir: Option<PathBuf>,
    /// Shared telemetry gauge cells (cutter queue, VSCC batches,
    /// consensus wire); re-attached to the reporting peer on restart.
    gauges: SubsystemGauges,
    /// Telemetry hub (disabled unless [`ChaosOptions::telemetry`]).
    hub: TelemetryHub,
}

impl ChaosNet {
    /// Builds a network of `orgs` × `peers_per_org` peers executing
    /// `plan`. Peer ids are assigned 1, 2, … in construction order, so a
    /// plan's crash points and partitions can name them directly.
    pub fn new(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
    ) -> Result<Self> {
        Self::build(config, orgs, peers_per_org, chaincodes, genesis, plan, ChaosOptions::default())
    }

    /// [`ChaosNet::new`] with explicit non-semantic knobs (storage
    /// engine, trace sink, consensus replication) — the constructor the
    /// determinism-conformance harness varies its replica matrix over.
    pub fn with_options(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
        opts: ChaosOptions,
    ) -> Result<Self> {
        Self::build(config, orgs, peers_per_org, chaincodes, genesis, plan, opts)
    }

    /// [`ChaosNet::new`] with a flight-recorder sink attached to the fault
    /// injector (every fault verdict mirrors into the trace) and to the
    /// reporting peer's validate/commit pipeline. Tracing is observation
    /// only: the sink is consulted strictly after each verdict is decided,
    /// so a traced run's schedule digest is identical to an untraced one.
    pub fn new_traced(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
        sink: TraceSink,
    ) -> Result<Self> {
        let opts = ChaosOptions { sink, ..ChaosOptions::default() };
        Self::build(config, orgs, peers_per_org, chaincodes, genesis, plan, opts)
    }

    /// [`ChaosNet::new`] with the single ordering process replaced by a
    /// group of `replicas` consensus replicas: each cut batch is decided
    /// by propose/vote/commit before it is sealed, every inter-replica
    /// message runs through this run's fault injector (under
    /// [`LinkId::between_replicas`] link ids), and the plan's
    /// `orderer_crashes` / `equivocations` fire inside the group.
    pub fn new_replicated(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
        replicas: usize,
    ) -> Result<Self> {
        let opts = ChaosOptions { replicas: Some(replicas), ..ChaosOptions::default() };
        Self::build(config, orgs, peers_per_org, chaincodes, genesis, plan, opts)
    }

    /// [`ChaosNet::new_replicated`] with a flight-recorder sink: fault
    /// verdicts, the reporting peer's pipeline, and every replica's
    /// consensus lifecycle (proposals, vote tallies, view changes,
    /// decides) mirror into the trace.
    #[allow(clippy::too_many_arguments)]
    pub fn new_replicated_traced(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
        replicas: usize,
        sink: TraceSink,
    ) -> Result<Self> {
        let opts =
            ChaosOptions { replicas: Some(replicas), sink, ..ChaosOptions::default() };
        Self::build(config, orgs, peers_per_org, chaincodes, genesis, plan, opts)
    }

    #[allow(clippy::too_many_arguments)]
    fn build(
        config: &PipelineConfig,
        orgs: usize,
        peers_per_org: usize,
        chaincodes: Vec<Arc<dyn Chaincode>>,
        genesis: &[(Key, Value)],
        plan: FaultPlan,
        opts: ChaosOptions,
    ) -> Result<Self> {
        let ChaosOptions { replicas, sink, engine, retained_versions, telemetry } = opts;
        config.validate()?;
        if orgs == 0 || peers_per_org == 0 {
            return Err(Error::Config("need at least one org and one peer".into()));
        }
        let injector = FaultInjector::new_traced(plan, sink.clone())?;
        let registry = SignerRegistry::new();
        let counters = TxCounters::new();
        let latency = LatencyRecorder::new();
        let mut cc_registry = ChaincodeRegistry::new();
        for cc in &chaincodes {
            cc_registry.deploy(cc.name().to_owned(), Arc::clone(cc));
        }
        let policy = EndorsementPolicy::require_orgs((1..=orgs as u64).map(OrgId).collect());
        // One signature-check pool shared across all peers (checking is
        // stateless); worker count is a non-semantic knob — validation
        // outcomes are identical at any setting.
        let gauges = SubsystemGauges::new();
        let hub = match &telemetry {
            Some(cfg) => TelemetryHub::with_config(*cfg),
            None => TelemetryHub::disabled(),
        };
        let pool = if config.validation_workers > 1 {
            Arc::new(ValidationPool::threaded(config.validation_workers).with_gauges(gauges.clone()))
        } else {
            Arc::new(ValidationPool::sequential().with_gauges(gauges.clone()))
        };
        gauges.set_validation_workers(pool.workers() as u64);

        let mut slots = Vec::new();
        let mut pid = 1u64;
        for org in 1..=orgs as u64 {
            for _ in 0..peers_per_org {
                let peer_id = PeerId(pid);
                pid += 1;
                let key = SigningKey::for_peer(peer_id, 1);
                registry.register(peer_id, key.clone());
                let store: Arc<dyn StateStore> = match &engine {
                    StateEngine::Memory => match retained_versions {
                        Some(n) => Arc::new(MemStateDb::with_retained_versions(n)),
                        None => Arc::new(MemStateDb::new()),
                    },
                    StateEngine::Lsm(dir) => {
                        let peer_dir = dir.join(format!("peer-{}", peer_id.raw()));
                        let cfg = match retained_versions {
                            Some(n) => {
                                LsmConfig { retained_versions: n, ..LsmConfig::default() }
                            }
                            None => LsmConfig::default(),
                        };
                        Arc::new(LsmStateDb::open(peer_dir, cfg)?)
                    }
                };
                let mut peer = Peer::new(
                    peer_id,
                    OrgId(org),
                    key,
                    store,
                    cc_registry.clone(),
                    registry.clone(),
                    policy.clone(),
                    config.concurrency,
                    config.early_abort_simulation,
                    CostModel::raw(),
                );
                peer = peer.with_validation_pool(Arc::clone(&pool));
                if slots.is_empty() {
                    peer = peer
                        .with_reporting(counters.clone(), latency.clone())
                        .with_trace(sink.clone())
                        .with_gauges(gauges.clone())
                        .with_telemetry(hub.clone());
                }
                peer.install_genesis(genesis)?;
                slots.push(Slot {
                    peer: Arc::new(peer),
                    down: false,
                    delayed: Vec::new(),
                    burst: Vec::new(),
                    burst_remaining: 0,
                    log: None,
                });
            }
        }
        let genesis_hash = slots[0].peer.ledger().tip_hash();
        let orderer = match replicas {
            None => {
                let orderer = OrderingService::new(config)
                    .with_counters(counters.clone())
                    .resume_at(1, genesis_hash);
                let pipeline =
                    ReorderPipeline::new(orderer.batch_prep(), config.reorder_workers);
                OrdererBackend::Single { orderer, pipeline }
            }
            Some(n) => {
                let mut gcfg = GroupConfig::new(n);
                gcfg.crashes = injector.plan().orderer_crashes.clone();
                gcfg.equivocations = injector.plan().equivocations.clone();
                let hook: Arc<dyn FaultHook> = Arc::clone(&injector) as Arc<dyn FaultHook>;
                let mut group = OrdererGroup::new_traced(
                    gcfg,
                    config,
                    1,
                    genesis_hash,
                    hook,
                    Some(counters.clone()),
                    sink.clone(),
                )?;
                group.set_gauges(gauges.clone());
                OrdererBackend::Replicated(Box::new(group))
            }
        };
        hub.connect(
            counters.clone(),
            latency.clone(),
            vec![slots[0].peer.store().counters()],
            gauges.clone(),
        );
        Ok(ChaosNet {
            slots,
            orderer,
            pending: Vec::new(),
            archive: Vec::new(),
            injector,
            counters,
            latency,
            sink,
            channel: ChannelId(0),
            orgs,
            config: config.clone(),
            chaincodes: cc_registry,
            registry,
            policy,
            pool,
            block_log_dir: None,
            gauges,
            hub,
        })
    }

    /// Closes the telemetry tail window and returns the run's time series
    /// (`None` when telemetry was not enabled in [`ChaosOptions`]).
    /// Idempotent; call after the last block has been driven.
    pub fn telemetry_series(&self) -> Option<TelemetrySeries> {
        self.hub.finish()
    }

    /// The injector executing this run's plan (for event-log and
    /// schedule-digest assertions).
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// The consensus group behind a replicated ordering service, or
    /// `None` when this net runs the classic single orderer.
    pub fn orderer_group(&self) -> Option<&OrdererGroup> {
        match &self.orderer {
            OrdererBackend::Single { .. } => None,
            OrdererBackend::Replicated(g) => Some(g.as_ref()),
        }
    }

    /// Enables on-disk block logs under `dir` (required for torn-crash
    /// points): current chains are written out, future commits appended.
    pub fn persist_blocks(&mut self, dir: impl Into<PathBuf>) -> Result<()> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for slot in &mut self.slots {
            let mut log = FileBlockStore::open(Self::log_path(&dir, slot.peer.id()))?;
            let mut blocks = Vec::new();
            slot.peer.ledger().for_each(|cb| blocks.push(cb.clone()));
            for cb in &blocks {
                log.append(cb)?;
            }
            log.sync()?;
            slot.log = Some(log);
        }
        self.block_log_dir = Some(dir);
        Ok(())
    }

    fn log_path(dir: &std::path::Path, id: PeerId) -> PathBuf {
        dir.join(format!("peer-{}.blocks", id.raw()))
    }

    fn slot_of(&self, peer: u64) -> Option<usize> {
        self.slots.iter().position(|s| s.peer.id().raw() == peer)
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
        self.counters.record_submitted();
        let per_org = self.slots.len() / self.orgs;
        let mut responses = Vec::new();
        for o in 0..self.orgs {
            let Some(endorser) = (o * per_org..(o + 1) * per_org)
                .find(|&i| !self.slots[i].down)
                .map(|i| &self.slots[i].peer)
            else {
                return ProposeOutcome::Rejected(format!("org {} has no live endorser", o + 1));
            };
            match endorser.endorse(&proposal) {
                Ok(r) => responses.push(r),
                Err(SimulationError::StaleRead { .. }) => {
                    self.counters.record_outcome(ValidationCode::EarlyAbortSimulation);
                    return ProposeOutcome::EarlyAborted(proposal.id);
                }
                Err(e) => return ProposeOutcome::Rejected(e.to_string()),
            }
        }
        match assemble_transaction(&proposal, responses) {
            Ok(tx) => ProposeOutcome::Endorsed(Box::new(tx)),
            Err(e) => ProposeOutcome::Rejected(e),
        }
    }

    /// Hands an endorsed transaction to the orderer's buffer.
    pub fn submit(&mut self, tx: Transaction) {
        self.pending.push(tx);
    }

    /// Propose and, if endorsed, submit.
    pub fn propose_and_submit(
        &mut self,
        client: u64,
        chaincode: &str,
        args: Vec<u8>,
    ) -> Option<TxId> {
        match self.propose(client, chaincode, args) {
            ProposeOutcome::Endorsed(tx) => {
                let id = tx.id;
                self.submit(*tx);
                Some(id)
            }
            _ => None,
        }
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
        match self.propose_with_id(id, client, chaincode, args) {
            ProposeOutcome::Endorsed(tx) => {
                let id = tx.id;
                self.submit(*tx);
                Some(id)
            }
            _ => None,
        }
    }

    /// Ordering + faulty delivery: cuts everything pending into one block,
    /// archives it, fires any crash points scheduled for it, offers it to
    /// every peer through the injector, and finally fires due restarts.
    /// Returns the cut block's number, or `Ok(None)` when the cut was
    /// suppressed (empty pending buffer or fully early-aborted batch): no
    /// block is delivered, no crash/restart points fire, and the fault
    /// schedule stays deterministic per seed.
    pub fn cut_block(&mut self) -> Result<Option<u64>> {
        // Queue depth at the cut: the deterministic harness's analogue of
        // the threaded runtime's cutter queue (observation only).
        self.gauges.set_cutter_queue(self.pending.len() as u64);
        let batch = std::mem::take(&mut self.pending);
        let ordered = match &mut self.orderer {
            // One submit, one drained plan, one seal. With
            // `reorder_workers <= 1` the pipeline runs the prepare stage
            // inline on this thread; with more it fans out — the
            // pipeline's determinism contract guarantees the drained plan
            // is byte-identical either way.
            OrdererBackend::Single { orderer, pipeline } => {
                pipeline.submit(batch, CutReason::Flush);
                let mut sealed = None;
                for prepared in pipeline.drain() {
                    sealed = orderer.seal(prepared.plan);
                }
                sealed
            }
            // Replicated: the batch becomes one consensus height; every
            // live replica seals the decided plan on its own chain and
            // the group asserts the chains are byte-identical. The
            // delivered block is the canonical (lowest live replica's)
            // one. An empty decision (suppressed block) still consumed a
            // height, keeping the consensus message schedule — and hence
            // the fault schedule — deterministic per seed.
            OrdererBackend::Replicated(group) => group.decide_batch(batch)?,
        };
        let Some(ordered) = ordered else {
            return Ok(None);
        };
        let block = ordered.block;
        let num = block.header.number;
        self.archive.push(block.clone());

        // Scheduled crashes fire before delivery: the peer misses this
        // block entirely, like a process that died between cuts.
        let crashes: Vec<_> = self.injector.plan().crashes.to_vec();
        for c in &crashes {
            if c.at_block == num {
                if let Some(idx) = self.slot_of(c.peer) {
                    if !self.slots[idx].down {
                        self.crash(idx)?;
                        if c.tear_bytes > 0 {
                            self.tear_block_log(idx, c.tear_bytes)?;
                        }
                    }
                }
            }
        }

        for idx in 0..self.slots.len() {
            self.deliver(idx, block.clone())?;
        }

        // Scheduled restarts fire after delivery, so a crash at block `b`
        // with `restart_after_blocks = r` misses exactly blocks `b..b+r`
        // before recovery and catch-up bring it back level.
        for c in &crashes {
            if c.restart_after_blocks > 0 && c.at_block + c.restart_after_blocks == num + 1 {
                if let Some(idx) = self.slot_of(c.peer) {
                    if self.slots[idx].down {
                        self.restart(idx)?;
                    }
                }
            }
        }
        Ok(Some(num))
    }

    /// Offers `block` to peer `idx` through the injector.
    fn deliver(&mut self, idx: usize, block: Block) -> Result<()> {
        if self.slots[idx].down {
            return Ok(()); // messages to a dead process vanish
        }
        // Last round's delayed blocks arrive first: their spike is over.
        let delayed = std::mem::take(&mut self.slots[idx].delayed);
        for b in delayed {
            self.apply(idx, b)?;
        }
        // An open reorder burst absorbs deliveries without consulting the
        // injector, then flushes in reverse (mirrors `FaultySender`).
        if self.slots[idx].burst_remaining > 0 {
            self.slots[idx].burst.push(block);
            self.slots[idx].burst_remaining -= 1;
            if self.slots[idx].burst_remaining == 0 {
                let mut burst = std::mem::take(&mut self.slots[idx].burst);
                burst.reverse();
                for b in burst {
                    self.apply(idx, b)?;
                }
            }
            return Ok(());
        }
        let link = LinkId::from_orderer(self.slots[idx].peer.id().raw() as u32);
        // Size proxy: transaction count (the injector decides by link and
        // sequence, not by payload size).
        match self.injector.on_send(link, block.txs.len()) {
            SendFault::Deliver => self.apply(idx, block),
            SendFault::Drop => Ok(()),
            SendFault::Duplicate { extra } => {
                for _ in 0..=extra {
                    self.apply(idx, block.clone())?;
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

    /// Commits `block` on peer `idx`, healing duplicates (already on the
    /// chain → ignored) and gaps (future block → archive catch-up).
    fn apply(&mut self, idx: usize, block: Block) -> Result<()> {
        let peer = Arc::clone(&self.slots[idx].peer);
        let height = peer.ledger().height();
        let num = block.header.number;
        if num < height {
            return Ok(()); // duplicate of a committed block
        }
        if num > height {
            // Gap: an earlier block was dropped/delayed past us. The
            // archive holds everything up to and including this block.
            self.catch_up(idx)?;
            return Ok(());
        }
        let committed = peer.process_block(block)?;
        if let Some(log) = &mut self.slots[idx].log {
            log.append(&committed)?;
            log.sync()?;
        }
        Ok(())
    }

    /// Replays archived blocks until peer `idx` is level with the orderer.
    fn catch_up(&mut self, idx: usize) -> Result<u64> {
        let peer = Arc::clone(&self.slots[idx].peer);
        let mut applied = 0;
        while (peer.ledger().height() as usize) <= self.archive.len() {
            let block = self.archive[peer.ledger().height() as usize - 1].clone();
            let committed = peer.process_block(block)?;
            if let Some(log) = &mut self.slots[idx].log {
                log.append(&committed)?;
                log.sync()?;
            }
            applied += 1;
        }
        Ok(applied)
    }

    /// Crashes peer `idx`: in-flight deliveries (delayed blocks, open
    /// bursts) are lost with the process, and its log handle is dropped.
    pub fn crash(&mut self, idx: usize) -> Result<()> {
        let slot = &mut self.slots[idx];
        if slot.down {
            return Err(Error::Config(format!("peer slot {idx} is already down")));
        }
        slot.down = true;
        slot.delayed.clear();
        slot.burst.clear();
        slot.burst_remaining = 0;
        slot.log = None;
        Ok(())
    }

    /// Tears `bytes` off the tail of a crashed peer's on-disk block log
    /// (requires [`ChaosNet::persist_blocks`]).
    pub fn tear_block_log(&mut self, idx: usize, bytes: u64) -> Result<()> {
        if !self.slots[idx].down {
            return Err(Error::Config("tear_block_log requires a crashed peer".into()));
        }
        let dir = self
            .block_log_dir
            .clone()
            .ok_or_else(|| Error::Config("block logs are not enabled".into()))?;
        let path = Self::log_path(&dir, self.slots[idx].peer.id());
        let len = std::fs::metadata(&path)?.len();
        let f = std::fs::OpenOptions::new().write(true).open(&path)?;
        f.set_len(len.saturating_sub(bytes))?;
        f.sync_data()?;
        Ok(())
    }

    /// Restarts a crashed peer through recovery (on-disk log if persisted,
    /// tolerating torn tails; in-memory ledger otherwise) plus archive
    /// catch-up. Returns the number of blocks caught up.
    pub fn restart(&mut self, idx: usize) -> Result<u64> {
        if !self.slots[idx].down {
            return Err(Error::Config("restart requires a crashed peer".into()));
        }
        let old = Arc::clone(&self.slots[idx].peer);
        let rec = match &self.block_log_dir {
            Some(dir) => {
                let path = Self::log_path(dir, old.id());
                recovery::recover_from_crashed_log(&path, true)?.0
            }
            None => {
                let mut blocks = Vec::new();
                old.ledger().for_each(|cb| blocks.push(cb.clone()));
                recovery::rebuild(blocks, true)?
            }
        };
        let key = SigningKey::for_peer(old.id(), 1);
        let mut peer = Peer::restore(
            old.id(),
            old.org(),
            key,
            Arc::clone(&rec.state) as Arc<dyn StateStore>,
            rec.ledger,
            self.chaincodes.clone(),
            self.registry.clone(),
            self.policy.clone(),
            self.config.concurrency,
            self.config.early_abort_simulation,
            CostModel::raw(),
        );
        peer = peer.with_validation_pool(Arc::clone(&self.pool));
        if idx == 0 {
            peer = peer
                .with_reporting(self.counters.clone(), self.latency.clone())
                .with_trace(self.sink.clone())
                .with_gauges(self.gauges.clone())
                .with_telemetry(self.hub.clone());
        }
        self.slots[idx].peer = Arc::new(peer);
        if let Some(dir) = &self.block_log_dir {
            let path = Self::log_path(dir, old.id());
            self.slots[idx].log = Some(FileBlockStore::open(&path)?);
        }
        self.slots[idx].down = false;
        self.catch_up(idx)
    }

    /// Flushes every in-flight delivery (delayed blocks, open bursts) and
    /// catches every live peer up from the archive. Call before checking
    /// invariants — it is the logical-time analogue of the threaded
    /// network's drain-on-shutdown.
    pub fn settle(&mut self) -> Result<()> {
        for idx in 0..self.slots.len() {
            if self.slots[idx].down {
                continue;
            }
            let delayed = std::mem::take(&mut self.slots[idx].delayed);
            for b in delayed {
                self.apply(idx, b)?;
            }
            let mut burst = std::mem::take(&mut self.slots[idx].burst);
            self.slots[idx].burst_remaining = 0;
            burst.reverse();
            for b in burst {
                self.apply(idx, b)?;
            }
            self.catch_up(idx)?;
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

    /// Blocks ordered so far (excluding genesis).
    pub fn blocks_cut(&self) -> u64 {
        self.archive.len() as u64
    }

    /// Outcome counters snapshot.
    pub fn stats(&self) -> TxStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricpp::chaincode_fn;

    fn transfer_chaincode() -> Arc<dyn Chaincode> {
        chaincode_fn("transfer", |ctx, args| {
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
    fn quiescent_run_is_clean_and_conserves_money() {
        let mut net = ChaosNet::new(
            &PipelineConfig::fabric_pp(),
            2,
            2,
            vec![transfer_chaincode()],
            &genesis(8),
            FaultPlan::quiescent(1),
        )
        .unwrap();
        run_workload(&mut net, 6, 8);
        let report = net.check().unwrap();
        report.assert_ok();
        assert_eq!(report.peers_checked, 4);
        assert_eq!(net.injector().fault_count(), 0);
        // Transfers conserve the total balance.
        let total: i64 = (0..8)
            .map(|i| {
                net.peers()[0]
                    .store()
                    .get(&Key::composite("acct", i))
                    .unwrap()
                    .unwrap()
                    .value
                    .as_i64()
                    .unwrap()
            })
            .sum();
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
        let dir = std::env::temp_dir()
            .join(format!("fabric-chaosnet-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = FaultPlan::quiescent(4).with_torn_crash(3, 2, 1, 9);
        let mut net = ChaosNet::new(
            &PipelineConfig::vanilla(),
            2,
            2,
            vec![transfer_chaincode()],
            &genesis(8),
            plan,
        )
        .unwrap();
        net.persist_blocks(&dir).unwrap();
        run_workload(&mut net, 4, 8);
        net.check().unwrap().assert_ok();
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
    fn replicated_orderer_converges_through_leader_crash() {
        // Three consensus replicas; the height-2 leader (replica (2+0)%3
        // = 2) dies right after proposing and restarts one height later.
        let plan = FaultPlan::quiescent(9).with_orderer_crash(2, 2, 1, true);
        let mut net = ChaosNet::new_replicated(
            &PipelineConfig::fabric_pp(),
            2,
            2,
            vec![transfer_chaincode()],
            &genesis(8),
            plan,
            3,
        )
        .unwrap();
        run_workload(&mut net, 5, 8);
        let report = net.check().unwrap();
        report.assert_ok();
        let group = net.orderer_group().unwrap();
        assert_eq!(group.replicas(), 3);
        assert_eq!(group.heights_decided(), 5);
        let fps = group.fingerprints();
        assert_eq!(fps.len(), 3, "the crashed replica restarted");
        assert!(
            fps.iter().all(|(_, n, h)| (*n, *h) == (fps[0].1, fps[0].2)),
            "replica block streams diverged: {fps:?}"
        );
        // Replica chains line up with what the peers committed.
        assert_eq!(fps[0].1, net.blocks_cut() + 1);
    }

    #[test]
    fn single_replica_group_matches_single_orderer_observables() {
        // The 1-replica group sends no messages and consults the injector
        // zero times, so a lossy plan produces the same schedule digest
        // and the same peer-visible outcome as the classic single path.
        let run = |replicated: bool| {
            let plan = FaultPlan::lossy(21);
            let cfg = PipelineConfig::fabric_pp();
            let cc = vec![transfer_chaincode()];
            let mut net = if replicated {
                ChaosNet::new_replicated(&cfg, 2, 2, cc, &genesis(8), plan, 1).unwrap()
            } else {
                ChaosNet::new(&cfg, 2, 2, cc, &genesis(8), plan).unwrap()
            };
            run_workload(&mut net, 8, 8);
            net.check().unwrap().assert_ok();
            let state: Vec<_> = (0..8)
                .map(|i| {
                    net.peers()[0]
                        .store()
                        .get(&Key::composite("acct", i))
                        .unwrap()
                        .unwrap()
                        .value
                        .as_i64()
                        .unwrap()
                })
                .collect();
            (net.injector().schedule_digest(), net.blocks_cut(), state)
        };
        let single = run(false);
        let replicated = run(true);
        assert_eq!(single.0, replicated.0, "schedule digests diverged");
        assert_eq!(single.1, replicated.1, "block counts diverged");
        assert_eq!(single.2, replicated.2, "final states diverged");
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
                let state: Vec<_> = (0..8)
                    .map(|i| {
                        net.peers()[0]
                            .store()
                            .get(&Key::composite("acct", i))
                            .unwrap()
                            .unwrap()
                            .value
                            .as_i64()
                            .unwrap()
                    })
                    .collect();
                (
                    net.injector().schedule_digest(),
                    net.injector().events(),
                    net.peers()[0].ledger().height(),
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
