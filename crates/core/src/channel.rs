//! One channel: its assembly ([`PeerContext::new`], [`assemble`]), shared
//! with `fabric_chaos::ChaosNet`, and the threaded runtime's scheduler
//! ([`ChannelRuntime`]); `ChaosNet` is the other scheduler. Both drive the
//! same orderer step ([`OrderingService`]: cut, prepare, seal, and the
//! cut's books) and the same commit step ([`Peer::process_block`], which
//! refuses a block out of turn); each keeps only its clock and its
//! transport.
//!
//! ```text
//!  clients ──(endorsed txs)──► orderer thread ──(blocks)──► peer threads
//!                              · batch cutting               · validate
//!                              · reorder / early abort       · commit
//! ```
//!
//! The runtime is fault-free by construction: every orderer → peer link is
//! a FIFO [`fabric_net::link`], so every peer receives the same blocks in
//! the same order (paper Appendix A.2), and the orderer's clock is the
//! cutter's batch timeout. A block arriving out of turn is a bug, and the
//! peer thread panics on the peer's refusal rather than healing it.
//! Injected faults, crashes and restarts are tested on `ChaosNet`.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;

use fabric_common::{
    ChannelId, ConcurrencyMode, CostModel, Key, LatencyRecorder, OrgId, PeerId, PhaseTimers,
    PipelineConfig, Result, SignerRegistry, SigningKey, StoreCounters, SubsystemGauges,
    Transaction, TxCounters, Value,
};
use fabric_telemetry::{TelemetryConfig, TelemetryHub};
use fabric_ledger::{Block, Ledger};
use fabric_net::{link, Broadcaster, DelayedSender, LatencyModel, NetStats};
use fabric_ordering::{OrderingService, OrdererStats};
use fabric_peer::chaincode::{Chaincode, ChaincodeRegistry};
use fabric_peer::peer::{genesis_block, PendingBlock, Peer};
use fabric_peer::recovery;
use fabric_peer::validation_pool::ValidationPool;
use fabric_peer::validator::EndorsementPolicy;
use fabric_statedb::{LsmConfig, LsmStateDb, MemStateDb, StateStore};
use fabric_trace::TraceSink;

use crate::network::StateEngine;

/// The channel-wide half of every peer's wiring: the pieces of
/// [`Peer::new`]'s signature that are not per-peer, the shared validation
/// pool, and the observers the reporting peer (slot 0) carries. Only the
/// chaos harness crashes peers, and it rebuilds them through
/// [`PeerContext::restore_peer`].
pub struct PeerContext {
    /// Deployed chaincodes.
    pub chaincodes: ChaincodeRegistry,
    /// Shared signer registry (public keys of every peer).
    pub registry: SignerRegistry,
    /// The channel's endorsement policy.
    pub policy: EndorsementPolicy,
    /// Concurrency mode (vanilla coarse lock vs. Fabric++ fine-grained).
    pub concurrency: ConcurrencyMode,
    /// Whether simulations early-abort on stale reads.
    pub early_abort_simulation: bool,
    /// Cryptographic cost model.
    pub cost: CostModel,
    /// Seed the deterministic per-peer signing keys were derived from.
    pub key_seed: u64,
    /// Shared endorsement-signature validation pool (one per network;
    /// signature checking is stateless, so all peers use the same workers).
    pub pool: Arc<ValidationPool>,
    /// Outcome counters the reporting peer records final verdicts on
    /// (blocks missed while it was down were never counted, so replaying
    /// them through its restored incarnation keeps the totals exact).
    pub counters: TxCounters,
    /// End-to-end latency of valid transactions, recorded by the
    /// reporting peer.
    pub latency: LatencyRecorder,
    /// Per-phase timers of the reporting peer (and the orderer).
    pub phase_timers: PhaseTimers,
    /// Cut counters every channel's ordering service records on.
    pub orderer_stats: OrdererStats,
    /// Flight-recorder sink (disabled unless tracing was enabled); the
    /// orderer emits cut/seal events and a restarted reporting peer is
    /// re-attached to it.
    pub sink: TraceSink,
    /// Shared telemetry gauge cells: the orderer publishes the cutter
    /// queue depth through them, and restarted peers are re-attached so
    /// their endorsements keep counting.
    pub gauges: SubsystemGauges,
    /// Telemetry hub (disabled unless telemetry was enabled); a restarted
    /// reporting peer is re-attached so logical time keeps advancing
    /// across the restart.
    pub telemetry: TelemetryHub,
}

impl PeerContext {
    /// A context for `orgs` organizations, each required by the policy,
    /// with `chaincodes` deployed, `pool` reporting to fresh gauges, fresh
    /// counters and recorders, and a telemetry hub when `telemetry` is set.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config: &PipelineConfig,
        orgs: usize,
        chaincodes: &[Arc<dyn Chaincode>],
        cost: CostModel,
        key_seed: u64,
        pool: ValidationPool,
        sink: TraceSink,
        telemetry: Option<TelemetryConfig>,
    ) -> Self {
        let mut registry = ChaincodeRegistry::new();
        for cc in chaincodes {
            registry.deploy(cc.name().to_owned(), Arc::clone(cc));
        }
        let gauges = SubsystemGauges::new();
        let pool = pool.with_gauges(gauges.clone());
        gauges.set_validation_workers(pool.workers() as u64);
        PeerContext {
            chaincodes: registry,
            registry: SignerRegistry::new(),
            policy: EndorsementPolicy::require_orgs((1..=orgs as u64).map(OrgId).collect()),
            concurrency: config.concurrency,
            early_abort_simulation: config.early_abort_simulation,
            cost,
            key_seed,
            pool: Arc::new(pool),
            counters: TxCounters::new(),
            latency: LatencyRecorder::new(),
            phase_timers: PhaseTimers::new(),
            orderer_stats: OrdererStats::new(),
            sink,
            gauges,
            telemetry: telemetry.map_or_else(TelemetryHub::disabled, TelemetryHub::with_config),
        }
    }

    /// Connects the telemetry hub to the reporting peers' `stores` once all
    /// channels exist, so its windows sum exactly to the run's totals.
    pub fn connect_telemetry(&self, stores: Vec<StoreCounters>) {
        let (counters, latency) = (self.counters.clone(), self.latency.clone());
        self.telemetry.connect(counters, latency, stores, self.gauges.clone());
    }

    /// Rebuilds the crashed peer `old` of slot `slot` around `ledger` —
    /// its block file reopened, or its own ledger when it kept no file —
    /// with the state [`fabric_peer::recovery::replay`] derives from it
    /// under full flag re-checking, and wires it like [`assemble`] does.
    /// The caller catches it up. The chaos harness is the one caller: the
    /// threaded runtime never crashes a peer.
    pub fn restore_peer(&self, slot: usize, old: &Peer, ledger: Arc<Ledger>) -> Result<Peer> {
        let state = recovery::replay(&ledger, true)?;
        let key = SigningKey::for_peer(old.id(), self.key_seed);
        Ok(self.attach(slot, self.build(old.id(), old.org(), key, state, ledger)))
    }

    fn build(
        &self,
        id: PeerId,
        org: OrgId,
        key: SigningKey,
        store: Arc<dyn StateStore>,
        ledger: Arc<Ledger>,
    ) -> Peer {
        Peer::new(
            id,
            org,
            key,
            store,
            self.chaincodes.clone(),
            self.registry.clone(),
            self.policy.clone(),
            self.concurrency,
            self.early_abort_simulation,
            self.cost,
        )
        .with_ledger(ledger)
    }

    fn attach(&self, slot: usize, peer: Peer) -> Peer {
        let peer = peer.with_validation_pool(Arc::clone(&self.pool));
        if slot != 0 {
            return peer;
        }
        peer.with_reporting(self.counters.clone(), self.latency.clone())
            .with_phase_timers(self.phase_timers.clone())
            .with_trace(self.sink.clone())
            .with_gauges(self.gauges.clone())
            .with_telemetry(self.telemetry.clone())
    }
}

/// Builds one channel: `peers_per_org` peers per organization of the
/// policy, ids from `first_id` in slot order (slot 0 reports). Each peer
/// gets a fresh `engine` store (an LSM one under `dir/peer-<id>`), the
/// empty ledger `ledger(id)` returns, a registered signing key, the shared
/// pool and — slot 0 only — the context's observers; all install one
/// shared genesis block. The ordering service cuts at `config`'s
/// thresholds, records on the context's observers, and resumes at their
/// tip.
pub fn assemble(
    ctx: &PeerContext,
    config: &PipelineConfig,
    peers_per_org: usize,
    first_id: u64,
    engine: &StateEngine,
    genesis: &[(Key, Value)],
    mut ledger: impl FnMut(PeerId) -> Result<Arc<Ledger>>,
) -> Result<(Vec<Arc<Peer>>, OrderingService)> {
    let genesis = genesis_block(genesis);
    let orgs = ctx.policy.required_orgs();
    let mut peers = Vec::with_capacity(orgs.len() * peers_per_org);
    for &org in orgs {
        for _ in 0..peers_per_org {
            let id = PeerId(first_id + peers.len() as u64);
            let store: Arc<dyn StateStore> = match engine {
                StateEngine::Memory => Arc::new(MemStateDb::new()),
                StateEngine::Lsm(dir) => {
                    Arc::new(LsmStateDb::open(dir.join(id.to_string()), LsmConfig::default())?)
                }
            };
            let key = SigningKey::for_peer(id, ctx.key_seed);
            ctx.registry.register(id, key.clone());
            let peer = ctx.attach(peers.len(), ctx.build(id, org, key, store, ledger(id)?));
            peer.install_genesis_block(Arc::clone(&genesis))?;
            peers.push(Arc::new(peer));
        }
    }
    let orderer = OrderingService::new(config)
        .with_counters(ctx.counters.clone())
        .with_stats(ctx.orderer_stats.clone())
        .with_phase_timers(ctx.phase_timers.clone())
        .with_gauges(ctx.gauges.clone())
        .with_trace(ctx.sink.clone())
        .resume_at(1, peers[0].ledger().tip_hash());
    Ok((peers, orderer))
}

/// A running channel: handles to its threads and its client-facing sender.
pub struct ChannelRuntime {
    id: ChannelId,
    /// Sender clients use to reach the orderer; cloned into ClientHandles.
    orderer_tx: Option<DelayedSender<Transaction>>,
    orderer_thread: Option<JoinHandle<()>>,
    peer_threads: Vec<JoinHandle<()>>,
    peers: Vec<Arc<Peer>>,
}

impl ChannelRuntime {
    /// Spawns the channel's orderer and peer threads over the `peers` and
    /// ordering `service` that [`assemble`] returned.
    pub fn spawn(
        id: ChannelId,
        peers: Vec<Arc<Peer>>,
        mut service: OrderingService,
        latency: LatencyModel,
        net_stats: NetStats,
    ) -> Self {
        // Client → orderer link.
        let (orderer_tx, orderer_rx) = link::<Transaction>(latency.clone(), net_stats.clone());

        // Orderer → peer links. The first peer of each org is a "direct"
        // receiver; remaining peers get the block via gossip (second hop).
        let mut direct = Vec::new();
        let mut gossip = Vec::new();
        let mut peer_threads = Vec::new();
        let mut seen_orgs = std::collections::HashSet::new();
        for peer in &peers {
            let (btx, brx) = link::<Arc<Block>>(latency.clone(), net_stats.clone());
            if seen_orgs.insert(peer.org()) {
                direct.push(btx);
            } else {
                gossip.push(btx);
            }
            let peer = Arc::clone(peer);
            peer_threads.push(std::thread::spawn(move || {
                // Commit/validate pipelining: while a block commits under
                // the state gate, the *next* block's endorsement-signature
                // checks already run on the validation pool (one-deep
                // lookahead; VSCC needs no peer state, see DESIGN.md §6).
                let mut staged: Option<PendingBlock> = None;
                loop {
                    let pending = match staged.take() {
                        Some(p) => p,
                        None => match brx.recv() {
                            Ok(block) => peer.begin_block_validation(block),
                            Err(_) => break,
                        },
                    };
                    if let Some(next) = brx.try_recv_ready() {
                        staged = Some(peer.begin_block_validation(next));
                    }
                    // The FIFO link delivers every block once and in order,
                    // so the peer's refusal of a block out of turn
                    // (`Error::BlockOutOfTurn`) is a bug, not a fault to heal.
                    if let Err(e) = peer.commit_validated(pending) {
                        panic!("peer {}: {e}: orderer/peer protocol violated", peer.id());
                    }
                }
            }));
        }
        let broadcaster = Broadcaster::new(direct, gossip);

        let orderer_thread = std::thread::spawn(move || {
            let poll = Duration::from_millis(10);
            // Each cut batch is prepared (early abort + reorder) and sealed
            // inside the service, before the next transaction is read: the
            // unique-keys cut keeps that to milliseconds, far below the
            // time between cuts.
            let send = |block: Arc<Block>| {
                broadcaster.broadcast(&block, block.byte_size());
            };
            loop {
                let wait = service
                    .cutter()
                    .time_to_timeout(Instant::now())
                    .map_or(poll, |t| t.min(poll).max(Duration::from_micros(100)));
                match orderer_rx.recv_timeout(wait) {
                    Ok(tx) => service.push(tx, Instant::now()).into_iter().for_each(&send),
                    Err(RecvTimeoutError::Timeout) => {
                        service.poll_timeout(Instant::now()).into_iter().for_each(&send)
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        service.flush().into_iter().for_each(&send);
                        // Returning drops the broadcaster, which disconnects
                        // the peers once they have drained their links.
                        break;
                    }
                }
            }
        });

        ChannelRuntime {
            id,
            orderer_tx: Some(orderer_tx),
            orderer_thread: Some(orderer_thread),
            peer_threads,
            peers,
        }
    }

    /// The channel id.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// The channel's peers, in slot order (slot 0 is the reporting peer).
    pub fn peers(&self) -> &[Arc<Peer>] {
        &self.peers
    }

    /// A sender clients use to submit endorsed transactions.
    pub fn orderer_sender(&self) -> DelayedSender<Transaction> {
        self.orderer_tx.as_ref().expect("channel already shut down").clone()
    }

    /// Shuts the channel down: drops the orderer sender (clients must have
    /// dropped theirs already), then waits for the orderer to flush and for
    /// every peer to drain its block queue. Every peer then holds the full
    /// chain.
    pub fn shutdown(&mut self) {
        self.orderer_tx = None;
        if let Some(h) = self.orderer_thread.take() {
            h.join().expect("orderer thread panicked");
        }
        for h in self.peer_threads.drain(..) {
            h.join().expect("peer thread panicked");
        }
    }
}

impl Drop for ChannelRuntime {
    fn drop(&mut self) {
        // Best-effort: if the user forgot to call shutdown, do it here.
        if self.orderer_thread.is_some() {
            self.shutdown();
        }
    }
}
