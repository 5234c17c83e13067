//! One channel's runtime: an ordering-service thread and one
//! validation/commit thread per peer, wired over the simulated network.
//!
//! ```text
//!  clients ──(endorsed txs)──► orderer thread ──(blocks)──► peer threads
//!                              · batch cutting               · validate
//!                              · reorder / early abort       · commit
//! ```
//!
//! The orderer guarantees every peer receives the same blocks in the same
//! order on a fault-free network; under an injected [`FaultHook`] the
//! delivery layer may drop, duplicate, delay, or reorder blocks, so each
//! peer thread defends itself: duplicates (block number below the chain
//! height) are discarded, and gaps are healed from the channel's *block
//! archive* — the orderer's authoritative record of every block it cut,
//! standing in for Fabric's ledger-sync ("state transfer") protocol.
//!
//! The runtime can also crash and restart individual peers mid-run: a
//! crashed peer discards everything it receives (a dead process reads no
//! packets); a restart rebuilds its state from its ledger through
//! [`fabric_peer::recovery`] and catches up from the archive.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::RecvTimeoutError;
use parking_lot::RwLock;

use fabric_common::{
    ChannelId, ConcurrencyMode, CostModel, Digest, Error, LatencyRecorder, OrgId, PeerId, Phase,
    PhaseTimers, PipelineConfig, Result, SignerRegistry, SigningKey, SubsystemGauges, Transaction,
    TxCounters,
};
use fabric_telemetry::TelemetryHub;
use fabric_ledger::Block;
use fabric_net::{
    link, DelayedSender, FaultHook, FaultyBroadcaster, LatencyModel, NetStats, NoFaults,
};
use fabric_ordering::{BatchCutter, OrderingService, OrdererStats, PreparedBatch, ReorderPipeline};
use fabric_peer::chaincode::ChaincodeRegistry;
use fabric_peer::peer::{PendingBlock, Peer};
use fabric_peer::recovery;
use fabric_peer::validation_pool::ValidationPool;
use fabric_peer::validator::EndorsementPolicy;
use fabric_statedb::StateStore;
use fabric_trace::{EventKind, TraceSink};

/// The channel-wide half of every peer's wiring: the pieces of
/// [`Peer::new`]'s signature that are not per-peer, the shared validation
/// pool, and the observers the reporting peer (slot 0) carries. Every
/// driver — the threaded runtime and the deterministic chaos harness —
/// builds and rebuilds its peers through [`PeerContext::new_peer`] and
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
    /// Builds the peer for channel slot `slot` around a fresh `store`:
    /// derives and registers its signing key, shares the validation pool,
    /// and — on slot 0, the reporting peer — attaches the counters, phase
    /// timers, sink, gauges and telemetry hub. Genesis is not installed.
    pub fn new_peer(
        &self,
        slot: usize,
        id: PeerId,
        org: OrgId,
        store: Arc<dyn StateStore>,
    ) -> Peer {
        let key = SigningKey::for_peer(id, self.key_seed);
        self.registry.register(id, key.clone());
        let peer = Peer::new(
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
        );
        self.attach(slot, peer)
    }

    /// Rebuilds the crashed peer `old` of slot `slot` through
    /// [`fabric_peer::recovery`] with full flag re-checking — from its
    /// on-disk block log when `log` is given (a torn tail is truncated
    /// off, so the file can be appended to again), from the dead
    /// incarnation's in-memory ledger otherwise — and wires it exactly like
    /// [`PeerContext::new_peer`]. The caller catches it up.
    pub fn restore_peer(&self, slot: usize, old: &Peer, log: Option<&Path>) -> Result<Peer> {
        let rec = match log {
            Some(path) => recovery::recover_from_crashed_log(path, true)?.0,
            None => {
                let mut blocks = Vec::new();
                old.ledger().for_each(|cb| blocks.push(cb.clone()));
                recovery::rebuild(blocks, true)?
            }
        };
        let peer = Peer::restore(
            old.id(),
            old.org(),
            SigningKey::for_peer(old.id(), self.key_seed),
            rec.state as Arc<dyn StateStore>,
            rec.ledger,
            self.chaincodes.clone(),
            self.registry.clone(),
            self.policy.clone(),
            self.concurrency,
            self.early_abort_simulation,
            self.cost,
        );
        Ok(self.attach(slot, peer))
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
    /// Swappable peer slots: a restart replaces the `Arc<Peer>` inside.
    slots: Vec<Arc<RwLock<Arc<Peer>>>>,
    /// Per-peer crashed flags; a down peer's thread discards deliveries.
    down: Vec<Arc<AtomicBool>>,
    /// Every block the orderer has cut, in order (block `n` at index
    /// `n - 1`); the source peers heal gaps and catch up from. Shares each
    /// block's one allocation with the links and the peers' ledgers.
    archive: Arc<RwLock<Vec<Arc<Block>>>>,
    ctx: PeerContext,
}

/// Replays archived blocks into `peer` until its chain is as long as the
/// archive. Returns how many blocks were applied.
pub fn catch_up_from_archive(peer: &Peer, archive: &RwLock<Vec<Arc<Block>>>) -> Result<u64> {
    let mut applied = 0;
    loop {
        // The ledger's height is the next block number it needs (genesis
        // is block 0, so height h means blocks 0..h are present).
        let next = peer.ledger().height();
        let block = {
            let a = archive.read();
            (next as usize)
                .checked_sub(1)
                .and_then(|i| a.get(i).map(Arc::clone))
        };
        match block {
            Some(b) => {
                peer.process_block(b)?;
                applied += 1;
            }
            None => return Ok(applied),
        }
    }
}

impl ChannelRuntime {
    /// Spawns the channel's orderer and peer threads.
    ///
    /// `peers` must already have genesis installed; `genesis_hash` is their
    /// common chain tip (the orderer chains block 1 to it). When
    /// `fault_hook` is given, every orderer → peer link consults it per
    /// block (see [`fabric_net::FaultySender`]).
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: ChannelId,
        config: &PipelineConfig,
        peers: Vec<Arc<Peer>>,
        genesis_hash: Digest,
        latency: LatencyModel,
        net_stats: NetStats,
        orderer_stats: OrdererStats,
        fault_hook: Option<Arc<dyn FaultHook>>,
        ctx: PeerContext,
    ) -> Self {
        // Client → orderer link.
        let (orderer_tx, orderer_rx) = link::<Transaction>(latency.clone(), net_stats.clone());

        let archive: Arc<RwLock<Vec<Arc<Block>>>> = Arc::new(RwLock::new(Vec::new()));

        // Orderer → peer links. The first peer of each org is a "direct"
        // receiver; remaining peers get the block via gossip (second hop).
        let mut direct = Vec::new();
        let mut gossip = Vec::new();
        let mut direct_ids = Vec::new();
        let mut gossip_ids = Vec::new();
        let mut peer_threads = Vec::new();
        let mut slots = Vec::new();
        let mut down = Vec::new();
        let mut seen_orgs = std::collections::HashSet::new();
        for peer in &peers {
            let (btx, brx) = link::<Arc<Block>>(latency.clone(), net_stats.clone());
            if seen_orgs.insert(peer.org()) {
                direct.push(btx);
                direct_ids.push(peer.id().raw() as u32);
            } else {
                gossip.push(btx);
                gossip_ids.push(peer.id().raw() as u32);
            }
            let slot = Arc::new(RwLock::new(Arc::clone(peer)));
            let down_flag = Arc::new(AtomicBool::new(false));
            slots.push(Arc::clone(&slot));
            down.push(Arc::clone(&down_flag));
            let archive = Arc::clone(&archive);
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
                            Ok(block) => slot.read().begin_block_validation(block),
                            Err(_) => break,
                        },
                    };
                    if let Some(next) = brx.try_recv_ready() {
                        staged = Some(slot.read().begin_block_validation(next));
                    }
                    if down_flag.load(Ordering::Acquire) {
                        // Crashed: the process is dead, the delivery is lost
                        // (the pending checks are simply abandoned).
                        continue;
                    }
                    let peer = Arc::clone(&slot.read());
                    let num = pending.number();
                    if num < peer.ledger().height() {
                        // Duplicate (or a block replayed after restart).
                        continue;
                    }
                    if num > peer.ledger().height() {
                        // Gap: earlier blocks were dropped or reordered
                        // past this one — heal from the archive.
                        catch_up_from_archive(&peer, &archive)
                            .expect("archive catch-up failed: orderer/peer protocol violated");
                    }
                    if num == peer.ledger().height() {
                        peer.commit_validated(pending).expect(
                            "block processing failed: orderer/peer protocol violated",
                        );
                    }
                }
            }));
        }
        let link_ids: Vec<u32> = direct_ids.into_iter().chain(gossip_ids).collect();
        let hook: Arc<dyn FaultHook> = fault_hook.unwrap_or_else(|| Arc::new(NoFaults));
        let broadcaster =
            FaultyBroadcaster::wrap(direct, gossip, hook, move |i| link_ids[i]);

        let mut service = OrderingService::new(config)
            .with_counters(ctx.counters.clone())
            .with_trace(ctx.sink.clone())
            .resume_at(1, genesis_hash);
        let mut cutter = BatchCutter::new(config.cutting.clone());
        let reorder_workers = config.reorder_workers;
        let cut_sink = ctx.sink.clone();
        let cut_gauges = ctx.gauges.clone();
        let phase_timers = ctx.phase_timers.clone();

        let orderer_archive = Arc::clone(&archive);
        let orderer_thread = std::thread::spawn(move || {
            let poll = Duration::from_millis(10);
            // Two-stage pipeline: the reorder workers run Algorithm 1 on
            // batch k while this thread keeps cutting batch k+1; prepared
            // plans come back strictly in cut order and only the sealing
            // step (numbering, hash chaining, broadcast) stays sequential,
            // so the block stream is byte-identical to calling
            // `order_batch` inline.
            let mut pipeline = ReorderPipeline::new(service.batch_prep(), reorder_workers);
            let record_cut = |batch: &[Transaction], reason: fabric_ordering::CutReason| {
                if cut_sink.is_enabled() {
                    cut_sink.emit(EventKind::BlockCut {
                        reason: reason.trace_kind(),
                        txs: batch.len() as u32,
                    });
                }
            };
            let seal = |prepared: PreparedBatch, service: &mut OrderingService| {
                let PreparedBatch { plan, reason, batch_len } = prepared;
                phase_timers.record(Phase::Reorder, plan.reorder_elapsed);
                orderer_stats.record_reorder(plan.reorder_elapsed, &plan.stats);
                let prepare_elapsed = plan.prepare_elapsed;
                let t0 = Instant::now();
                let Some(ob) = service.seal(plan) else {
                    // Early abort emptied the whole batch: no block (its
                    // aborts are already on the counters).
                    orderer_stats.record_empty_suppressed();
                    return;
                };
                phase_timers.record(Phase::Order, prepare_elapsed + t0.elapsed());
                orderer_stats.record_cut(reason, batch_len);
                // Sealed once: from here on the archive, every link and
                // every peer's ledger share this one allocation.
                let block = Arc::new(ob.block);
                let size = block.byte_size();
                // Archive before broadcast so a peer that sees the block
                // early (reordering) can always heal backwards from it.
                orderer_archive.write().push(Arc::clone(&block));
                broadcaster.broadcast(&block, size);
            };
            loop {
                let wait = cutter
                    .time_to_timeout(Instant::now())
                    .map_or(poll, |t| t.min(poll).max(Duration::from_micros(100)));
                match orderer_rx.recv_timeout(wait) {
                    Ok(tx) => {
                        for (batch, reason) in cutter.push(tx, Instant::now()) {
                            record_cut(&batch, reason);
                            pipeline.submit(batch, reason);
                        }
                        cut_gauges.set_cutter_queue(cutter.len() as u64);
                        for prepared in pipeline.try_collect() {
                            seal(prepared, &mut service);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if let Some((batch, reason)) = cutter.poll_timeout(Instant::now()) {
                            record_cut(&batch, reason);
                            pipeline.submit(batch, reason);
                            cut_gauges.set_cutter_queue(cutter.len() as u64);
                        }
                        for prepared in pipeline.try_collect() {
                            seal(prepared, &mut service);
                        }
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        if let Some((batch, reason)) = cutter.flush() {
                            record_cut(&batch, reason);
                            pipeline.submit(batch, reason);
                        }
                        cut_gauges.set_cutter_queue(0);
                        // Wait out every in-flight reorder, seal the tail
                        // in cut order, release any blocks held in partial
                        // reorder bursts, then disconnect the peers by
                        // dropping the broadcaster.
                        for prepared in pipeline.drain() {
                            seal(prepared, &mut service);
                        }
                        broadcaster.flush();
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
            slots,
            down,
            archive,
            ctx,
        }
    }

    /// The channel id.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// Snapshot of the channel's current peer objects (a restart swaps the
    /// object in its slot, so holders of an older snapshot keep the dead
    /// incarnation).
    pub fn peers(&self) -> Vec<Arc<Peer>> {
        self.slots.iter().map(|s| Arc::clone(&s.read())).collect()
    }

    /// Whether peer `idx` is currently crashed.
    pub fn is_down(&self, idx: usize) -> bool {
        self.down[idx].load(Ordering::Acquire)
    }

    /// Crashes peer `idx`: from now on every block delivered to it is
    /// discarded, exactly as if the process were dead. Its in-memory
    /// ledger plays the role of its persisted block log for a later
    /// [`ChannelRuntime::restart_peer`].
    pub fn crash_peer(&self, idx: usize) {
        self.down[idx].store(true, Ordering::Release);
    }

    /// Restarts a crashed peer: rebuilds it from its ledger (its simulated
    /// on-disk block log) through [`PeerContext::restore_peer`], swaps the
    /// new incarnation into the peer's slot, and catches it up from the
    /// block archive. Restarting a live peer is an error: its thread may
    /// still be committing on the current incarnation.
    ///
    /// Returns the number of blocks caught up.
    pub fn restart_peer(&self, idx: usize) -> Result<u64> {
        if !self.is_down(idx) {
            return Err(Error::Config("restart_peer requires a crashed peer".into()));
        }
        let old = Arc::clone(&self.slots[idx].read());
        let peer = Arc::new(self.ctx.restore_peer(idx, &old, None)?);
        *self.slots[idx].write() = Arc::clone(&peer);
        let applied = catch_up_from_archive(&peer, &self.archive)?;
        self.down[idx].store(false, Ordering::Release);
        Ok(applied)
    }

    /// A sender clients use to submit endorsed transactions.
    pub fn orderer_sender(&self) -> DelayedSender<Transaction> {
        self.orderer_tx.as_ref().expect("channel already shut down").clone()
    }

    /// Shuts the channel down: drops the orderer sender (clients must have
    /// dropped theirs already), waits for the orderer to flush and for all
    /// peers to drain their block queues, then runs a final archive
    /// catch-up so every live peer ends at the full chain height even if
    /// its last deliveries were dropped by fault injection.
    pub fn shutdown(&mut self) {
        self.orderer_tx = None;
        if let Some(h) = self.orderer_thread.take() {
            h.join().expect("orderer thread panicked");
        }
        for h in self.peer_threads.drain(..) {
            h.join().expect("peer thread panicked");
        }
        for (slot, down) in self.slots.iter().zip(&self.down) {
            if down.load(Ordering::Acquire) {
                continue; // still-crashed peers stay at their crash height
            }
            let peer = Arc::clone(&slot.read());
            catch_up_from_archive(&peer, &self.archive)
                .expect("final archive catch-up failed");
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
