//! One channel's runtime: an ordering-service thread and one
//! validation/commit thread per peer, wired over the simulated network.
//!
//! ```text
//!  clients ──(endorsed txs)──► orderer thread ──(blocks)──► peer threads
//!                              · batch cutting               · validate
//!                              · reorder / early abort       · commit
//! ```
//!
//! The runtime is fault-free by construction: every orderer → peer link is
//! a FIFO [`fabric_net::link`], so every peer receives the same blocks in
//! the same order (paper Appendix A.2). A block arriving out of turn is a
//! bug, and the peer thread panics on it rather than healing it. Injected
//! faults, crashes and restarts are tested on the deterministic driver,
//! `fabric_chaos::ChaosNet`, which builds its peers through the same
//! [`PeerContext`].

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;

use fabric_common::{
    ChannelId, ConcurrencyMode, CostModel, Digest, LatencyRecorder, OrgId, PeerId, Phase,
    PhaseTimers, PipelineConfig, Result, SignerRegistry, SigningKey, SubsystemGauges, Transaction,
    TxCounters,
};
use fabric_telemetry::TelemetryHub;
use fabric_ledger::{Block, Ledger};
use fabric_net::{link, Broadcaster, DelayedSender, LatencyModel, NetStats};
use fabric_ordering::{BatchCutter, CutReason, OrderingService, OrdererStats};
use fabric_peer::chaincode::ChaincodeRegistry;
use fabric_peer::peer::{PendingBlock, Peer};
use fabric_peer::recovery;
use fabric_peer::validation_pool::ValidationPool;
use fabric_peer::validator::EndorsementPolicy;
use fabric_statedb::StateStore;
use fabric_trace::{EventKind, TraceSink};

/// The channel-wide half of every peer's wiring: the pieces of
/// [`Peer::new`]'s signature that are not per-peer, the shared validation
/// pool, and the observers the reporting peer (slot 0) carries. Both
/// drivers build their peers through [`PeerContext::new_peer`]: the
/// threaded runtime and the deterministic chaos harness. Only the chaos
/// harness crashes peers, and it rebuilds them through
/// [`PeerContext::restore_peer`].
#[derive(Clone)]
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
    /// Flight-recorder sink (disabled unless tracing was enabled); the
    /// orderer emits cut/seal events and a restarted reporting peer is
    /// re-attached to it.
    pub sink: TraceSink,
    /// Shared telemetry gauge cells: the orderer refreshes the cutter
    /// queue depth through them, and restarted peers are re-attached so
    /// their endorsements keep counting.
    pub gauges: SubsystemGauges,
    /// Telemetry hub (disabled unless telemetry was enabled); a restarted
    /// reporting peer is re-attached so logical time keeps advancing
    /// across the restart.
    pub telemetry: TelemetryHub,
}

impl PeerContext {
    /// Builds the peer for channel slot `slot` around a fresh `store` and
    /// an empty `ledger` (anonymous, or durable at the peer's block-file
    /// path): derives and registers its signing key, shares the validation
    /// pool, and — on slot 0, the reporting peer — attaches the counters,
    /// phase timers, sink, gauges and telemetry hub. Genesis is not
    /// installed.
    pub fn new_peer(
        &self,
        slot: usize,
        id: PeerId,
        org: OrgId,
        store: Arc<dyn StateStore>,
        ledger: Arc<Ledger>,
    ) -> Peer {
        let key = SigningKey::for_peer(id, self.key_seed);
        self.registry.register(id, key.clone());
        self.attach(slot, self.build(id, org, key, store, ledger))
    }

    /// Rebuilds the crashed peer `old` of slot `slot` around `ledger` —
    /// its block file reopened, or its own ledger when it kept no file —
    /// with the state [`fabric_peer::recovery::replay`] derives from it
    /// under full flag re-checking, and wires it exactly like
    /// [`PeerContext::new_peer`]. The caller catches it up. The chaos
    /// harness is the one caller: the threaded runtime never crashes a
    /// peer.
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
        Peer::restore(
            id,
            org,
            key,
            store,
            ledger,
            self.chaincodes.clone(),
            self.registry.clone(),
            self.policy.clone(),
            self.concurrency,
            self.early_abort_simulation,
            self.cost,
        )
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
    /// Spawns the channel's orderer and peer threads.
    ///
    /// `peers` must already have genesis installed; `genesis_hash` is their
    /// common chain tip (the orderer chains block 1 to it).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: ChannelId,
        config: &PipelineConfig,
        peers: Vec<Arc<Peer>>,
        genesis_hash: Digest,
        latency: LatencyModel,
        net_stats: NetStats,
        orderer_stats: OrdererStats,
        ctx: &PeerContext,
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
                    // so a block out of turn is a bug, not a fault to heal.
                    let (num, height) = (pending.number(), peer.ledger().height());
                    assert_eq!(
                        num, height,
                        "block {num} arrived at height {height}: orderer/peer protocol violated"
                    );
                    peer.commit_validated(pending)
                        .expect("block processing failed: orderer/peer protocol violated");
                }
            }));
        }
        let broadcaster = Broadcaster::new(direct, gossip);

        let mut service = OrderingService::new(config)
            .with_counters(ctx.counters.clone())
            .with_trace(ctx.sink.clone())
            .resume_at(1, genesis_hash);
        let mut cutter = BatchCutter::new(config.cutting.clone());
        let cut_sink = ctx.sink.clone();
        let cut_gauges = ctx.gauges.clone();
        let phase_timers = ctx.phase_timers.clone();

        let orderer_thread = std::thread::spawn(move || {
            let poll = Duration::from_millis(10);
            // Each cut batch is prepared (early abort + reorder) and sealed
            // right here, before the next transaction is read: the
            // unique-keys cut keeps that to milliseconds, far below the
            // time between cuts.
            let mut order = |batch: Vec<Transaction>, reason: CutReason| {
                if cut_sink.is_enabled() {
                    cut_sink.emit(EventKind::BlockCut {
                        reason: reason.trace_kind(),
                        txs: batch.len() as u32,
                    });
                }
                let batch_len = batch.len();
                let t0 = Instant::now();
                let ordered = service.order_batch(batch);
                let elapsed = t0.elapsed();
                let (reorder_elapsed, stats) = service.last_reorder();
                phase_timers.record(Phase::Reorder, reorder_elapsed);
                orderer_stats.record_reorder(reorder_elapsed, &stats);
                let Some(ob) = ordered else {
                    // Early abort emptied the whole batch: no block (its
                    // aborts are already on the counters).
                    orderer_stats.record_empty_suppressed();
                    return;
                };
                phase_timers.record(Phase::Order, elapsed.saturating_sub(reorder_elapsed));
                orderer_stats.record_cut(reason, batch_len);
                // Sealed once: from here on every link and every peer's
                // ledger share this one allocation.
                let block = Arc::new(ob.block);
                let size = block.byte_size();
                broadcaster.broadcast(&block, size);
            };
            loop {
                let wait = cutter
                    .time_to_timeout(Instant::now())
                    .map_or(poll, |t| t.min(poll).max(Duration::from_micros(100)));
                match orderer_rx.recv_timeout(wait) {
                    Ok(tx) => {
                        for (batch, reason) in cutter.push(tx, Instant::now()) {
                            order(batch, reason);
                        }
                        cut_gauges.set_cutter_queue(cutter.len() as u64);
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if let Some((batch, reason)) = cutter.poll_timeout(Instant::now()) {
                            order(batch, reason);
                            cut_gauges.set_cutter_queue(cutter.len() as u64);
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        if let Some((batch, reason)) = cutter.flush() {
                            order(batch, reason);
                        }
                        cut_gauges.set_cutter_queue(0);
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
