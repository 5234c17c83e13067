//! One peer: state database, ledger, endorser, validation+commit loop.

use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use fabric_common::{
    ConcurrencyMode, CostModel, Error, LatencyRecorder, OrgId, PeerId, Phase, PhaseTimers, Result,
    SignerRegistry, SigningKey, SubsystemGauges, TransactionProposal, TxCounters, ValidationCode,
};
use fabric_telemetry::TelemetryHub;
use fabric_ledger::{Block, CommittedBlock, Ledger};
use fabric_statedb::{CommitWrite, StateStore};
use fabric_trace::{EventKind, TraceSink};

use crate::chaincode::{ChaincodeRegistry, SimulationError};
use crate::committer::commit_block_traced;
use crate::endorser::{EndorsementResponse, Endorser};
use crate::validation_pool::{PendingChecks, ValidationPool};
use crate::validator::{EndorsementPolicy, MvccScratch};

/// A full peer node.
///
/// Holds the local state database copy and ledger, simulates proposals
/// (through its [`Endorser`]), and validates + commits incoming blocks.
/// Under [`ConcurrencyMode::CoarseLock`] the peer owns the read/write gate
/// that serializes simulation against validation (paper §4.2.1); under
/// [`ConcurrencyMode::FineGrained`] the gate is gone and the lock-free
/// version-check protocol applies (paper §5.2.1).
pub struct Peer {
    id: PeerId,
    org: OrgId,
    store: Arc<dyn StateStore>,
    ledger: Arc<Ledger>,
    registry: SignerRegistry,
    policy: EndorsementPolicy,
    endorser: Endorser,
    gate: Option<Arc<RwLock<()>>>,
    cost: CostModel,
    /// Endorsement-signature validation pool; defaults to the sequential
    /// same-thread mode (deterministic harnesses), replaced by a shared
    /// threaded pool in the threaded network runtime.
    pool: Arc<ValidationPool>,
    /// Outcome counters; populated only on the designated reporting peer so
    /// network-wide numbers are not multiplied by the peer count.
    counters: Option<TxCounters>,
    latency: Option<LatencyRecorder>,
    /// Per-phase timers; reporting peer only, like `counters`.
    timers: Option<PhaseTimers>,
    /// Long-lived MVCC working state: blocks arrive in order, so the
    /// validator's interner, probe list, prefetch table, and write bitset
    /// are reused block after block (steady-state allocation-free).
    mvcc_scratch: Mutex<MvccScratch>,
    /// Flight-recorder sink; disabled by default. Like `counters`, only the
    /// reporting peer should carry an enabled sink, so network-wide event
    /// streams are not multiplied by the peer count.
    sink: TraceSink,
    /// Shared subsystem gauges; disabled (`None`) by default. Endorsements
    /// bump the endorsement counter the telemetry layer windows over.
    gauges: Option<SubsystemGauges>,
    /// Telemetry hub advanced one tick per committed block; reporting peer
    /// only, like `counters` — logical time must not be multiplied by the
    /// peer count. Disabled hubs are a branch-and-return.
    telemetry: TelemetryHub,
}

impl Peer {
    /// Creates a peer.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: PeerId,
        org: OrgId,
        key: SigningKey,
        store: Arc<dyn StateStore>,
        chaincodes: ChaincodeRegistry,
        registry: SignerRegistry,
        policy: EndorsementPolicy,
        mode: ConcurrencyMode,
        early_abort_simulation: bool,
        cost: CostModel,
    ) -> Self {
        let gate = match mode {
            ConcurrencyMode::CoarseLock => Some(Arc::new(RwLock::new(()))),
            ConcurrencyMode::FineGrained => None,
        };
        let endorser = Endorser::new(
            id,
            org,
            key,
            Arc::clone(&store),
            chaincodes,
            mode,
            gate.clone(),
            early_abort_simulation,
            cost,
        );
        Peer {
            id,
            org,
            store,
            ledger: Arc::new(Ledger::new()),
            registry,
            policy,
            endorser,
            gate,
            cost,
            pool: Arc::new(ValidationPool::sequential()),
            counters: None,
            latency: None,
            timers: None,
            mvcc_scratch: Mutex::new(MvccScratch::new()),
            sink: TraceSink::disabled(),
            gauges: None,
            telemetry: TelemetryHub::disabled(),
        }
    }

    /// Replaces the empty ledger [`Peer::new`] starts with by `ledger`:
    /// a block file opened at a named path, or — on restart, with the
    /// state [`crate::recovery`] replayed from it — the ledger a crashed
    /// peer left behind, so the peer resumes at that height.
    pub fn with_ledger(mut self, ledger: Arc<Ledger>) -> Self {
        self.ledger = ledger;
        self
    }

    /// Marks this peer as the network's reporting peer: it records final
    /// transaction outcomes and commit latencies.
    pub fn with_reporting(mut self, counters: TxCounters, latency: LatencyRecorder) -> Self {
        self.counters = Some(counters);
        self.latency = Some(latency);
        self
    }

    /// Replaces the validation pool (the threaded runtime shares one pool
    /// across all peers — signature checking is stateless).
    pub fn with_validation_pool(mut self, pool: Arc<ValidationPool>) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches per-phase timers; like [`Peer::with_reporting`], only the
    /// designated reporting peer gets them.
    pub fn with_phase_timers(mut self, timers: PhaseTimers) -> Self {
        self.timers = Some(timers);
        self
    }

    /// Attaches a flight-recorder sink: endorsements, per-block validation
    /// spans, MVCC-conflict provenance, and commit confirmations are
    /// recorded through it. Reporting peer only, like
    /// [`Peer::with_reporting`].
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.sink = sink;
        self
    }

    /// Attaches subsystem gauges: the peer bumps the endorsement counter
    /// per simulated proposal. Reporting peer only, like
    /// [`Peer::with_reporting`].
    pub fn with_gauges(mut self, gauges: SubsystemGauges) -> Self {
        self.gauges = Some(gauges);
        self
    }

    /// Attaches the telemetry hub: the peer advances the hub's logical
    /// clock by one tick per committed block. Reporting peer only, like
    /// [`Peer::with_reporting`] — windows are keyed to chain progress, not
    /// to per-replica duplicates of it.
    pub fn with_telemetry(mut self, hub: TelemetryHub) -> Self {
        self.telemetry = hub;
        self
    }

    /// The peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The peer's organization.
    pub fn org(&self) -> OrgId {
        self.org
    }

    /// The peer's ledger.
    pub fn ledger(&self) -> &Arc<Ledger> {
        &self.ledger
    }

    /// The peer's state database.
    pub fn store(&self) -> &Arc<dyn StateStore> {
        &self.store
    }

    /// Installs the genesis block: `initial` key/values become state block
    /// 0 and a block 0 carrying them as a bootstrap transaction anchors the
    /// ledger chain. Must be called exactly once, before any transaction
    /// block. Builds the block ([`genesis_block`]) and installs it through
    /// [`Peer::install_genesis_block`].
    ///
    /// The initial writes ride *inside* the genesis block (see
    /// [`genesis_transaction`]) so that the current state is a pure
    /// function of the ledger — a peer recovered from its block file alone
    /// (see [`crate::recovery`]) reproduces the bootstrap state too.
    pub fn install_genesis(
        &self,
        initial: &[(fabric_common::Key, fabric_common::Value)],
    ) -> Result<()> {
        self.install_genesis_block(genesis_block(initial))
    }

    /// Installs an already built genesis block: its bootstrap writes become
    /// state block 0 and the block anchors the ledger chain. A network
    /// builds one block per channel and hands every peer the same `Arc`.
    pub fn install_genesis_block(&self, genesis: Arc<Block>) -> Result<()> {
        let writes: Vec<CommitWrite> = genesis
            .txs
            .iter()
            .enumerate()
            .flat_map(|(tx_num, tx)| {
                tx.rwset.writes.entries().iter().map(move |e| CommitWrite {
                    key: e.key.clone(),
                    value: e.value.clone(),
                    tx: tx_num as fabric_common::TxNum,
                })
            })
            .collect();
        self.store.apply_block(0, &writes)?;
        let codes = vec![ValidationCode::Valid; genesis.txs.len()];
        self.ledger.append(CommittedBlock::new(genesis, codes)?)?;
        Ok(())
    }

    /// Simulation-phase entry point: simulate `proposal` and endorse it.
    pub fn endorse(
        &self,
        proposal: &TransactionProposal,
    ) -> std::result::Result<EndorsementResponse, SimulationError> {
        let t0 = Instant::now();
        let resp = self.endorser.simulate(proposal);
        if let Some(t) = &self.timers {
            t.record(Phase::Endorse, t0.elapsed());
        }
        if let Some(g) = &self.gauges {
            if resp.is_ok() {
                g.record_endorsement();
            }
        }
        if self.sink.is_enabled() {
            match &resp {
                Ok(_) => self.sink.emit(EventKind::TxEndorsed {
                    tx: proposal.id,
                    peer: self.id,
                    dur_us: t0.elapsed().as_micros() as u64,
                }),
                Err(SimulationError::StaleRead { key, snapshot_block, observed }) => {
                    self.sink.emit(EventKind::TxEarlyAbortSimulation {
                        tx: proposal.id,
                        key: key.clone(),
                        snapshot_block: *snapshot_block,
                        observed: *observed,
                    })
                }
                Err(_) => {}
            }
        }
        resp
    }

    /// Validation + commit of one block from the ordering service.
    ///
    /// Only the block numbered at the ledger height may commit: any other
    /// is refused with [`Error::BlockOutOfTurn`] before its signature
    /// checks start, leaving no event, timer sample or counter behind.
    ///
    /// Endorsement-signature checks (Fabric's VSCC) are pure CPU work over
    /// immutable bytes and run *before* the state gate is taken, as in
    /// Fabric v1.2; only the MVCC check + commit are serial with
    /// simulations under the vanilla coarse lock. Equivalent to
    /// [`Peer::begin_block_validation`] + [`Peer::commit_validated`] back to
    /// back — the threaded peer loop uses the split form to overlap block
    /// N+1's signature checks with block N's commit.
    ///
    /// A shared `Arc<Block>` is appended to the ledger as is, so peers fed
    /// the same handle share one copy of the block.
    pub fn process_block(&self, block: impl Into<Arc<Block>>) -> Result<Arc<CommittedBlock>> {
        let block = block.into();
        self.check_turn(block.header.number)?;
        self.commit_validated(self.begin_block_validation(block))
    }

    /// The turn rule: `Ok` iff block `number` is the next one this
    /// peer's ledger can commit.
    fn check_turn(&self, number: u64) -> Result<()> {
        let expected = self.ledger.height();
        if number == expected {
            Ok(())
        } else {
            Err(Error::BlockOutOfTurn { expected, received: number })
        }
    }

    /// Starts phase-1 validation (endorsement signatures) of `block` on the
    /// peer's validation pool and returns without waiting.
    ///
    /// This touches no peer state — only the channel-wide signer registry
    /// and policy — so it may run for block N+1 while block N is still
    /// committing under the state gate.
    pub fn begin_block_validation(&self, block: impl Into<Arc<Block>>) -> PendingBlock {
        let block = block.into();
        let checks = self.pool.check_endorsements(&block, &self.registry, &self.policy, self.cost);
        PendingBlock { block, checks, begun: Instant::now() }
    }

    /// Completes validation of a block started with
    /// [`Peer::begin_block_validation`]: join the signature checks, run the
    /// MVCC check under the state gate, commit. A block out of turn is
    /// refused (as by [`Peer::process_block`]) before the checks are
    /// joined; they are abandoned.
    pub fn commit_validated(&self, pending: PendingBlock) -> Result<Arc<CommittedBlock>> {
        self.check_turn(pending.number())?;
        let PendingBlock { block, checks, begun } = pending;
        let endorsement_ok = checks.wait();
        if let Some(t) = &self.timers {
            // Wall time from block arrival to the last signature verified —
            // under the threaded pool this overlaps the previous commit, so
            // it measures the pipeline's exposed VSCC latency.
            t.record(Phase::ValidateVscc, begun.elapsed());
        }
        if self.sink.is_enabled() {
            self.sink.emit(EventKind::BlockVscc {
                block: block.header.number,
                txs: block.txs.len() as u32,
                failures: endorsement_ok.iter().filter(|ok| !**ok).count() as u32,
                dur_us: begun.elapsed().as_micros() as u64,
            });
        }

        // Vanilla: "the block has to wait for the validation, as it has to
        // acquire an exclusive write lock on the current state".
        let _guard = self.gate.as_ref().map(|g| g.write());

        let t0 = Instant::now();
        let mut codes = Vec::with_capacity(block.txs.len());
        crate::validator::mvcc_validate_traced(
            &block,
            self.store.as_ref(),
            &endorsement_ok,
            &mut self.mvcc_scratch.lock(),
            &mut codes,
            &self.sink,
        )?;
        if let Some(t) = &self.timers {
            t.record(Phase::ValidateMvcc, t0.elapsed());
        }
        if self.sink.is_enabled() {
            let valid = codes.iter().filter(|c| c.is_valid()).count() as u32;
            self.sink.emit(EventKind::BlockMvcc {
                block: block.header.number,
                valid,
                invalid: codes.len() as u32 - valid,
                dur_us: t0.elapsed().as_micros() as u64,
            });
        }

        let t0 = Instant::now();
        let committed =
            commit_block_traced(block, codes, self.store.as_ref(), &self.ledger, &self.sink)?;
        if let Some(t) = &self.timers {
            t.record(Phase::Commit, t0.elapsed());
        }

        if let Some(counters) = &self.counters {
            let now = Instant::now();
            for (tx, code) in committed.iter() {
                counters.record_outcome(code);
                if code == ValidationCode::Valid {
                    if let Some(lat) = &self.latency {
                        lat.record(now.duration_since(tx.created_at));
                    }
                }
            }
        }
        // Advance logical time last, after every counter for this block has
        // landed, so a window closing here sees the block's full effect.
        self.telemetry.on_block_committed(committed.block.header.number);
        Ok(committed)
    }
}

/// A block whose endorsement-signature checks are in flight on the
/// validation pool, awaiting [`Peer::commit_validated`].
///
/// Dropping it (e.g. the target peer is down) simply abandons the checks.
pub struct PendingBlock {
    block: Arc<Block>,
    checks: PendingChecks,
    begun: Instant,
}

impl PendingBlock {
    /// The block under validation.
    pub fn block(&self) -> &Block {
        &self.block
    }

    /// The block's number.
    pub fn number(&self) -> u64 {
        self.block.header.number
    }
}

/// Block 0 of a channel bootstrapped with `initial`: one
/// [`genesis_transaction`], linked to [`fabric_common::Digest::ZERO`].
pub fn genesis_block(initial: &[(fabric_common::Key, fabric_common::Value)]) -> Arc<Block> {
    Arc::new(Block::build(0, fabric_common::Digest::ZERO, vec![genesis_transaction(initial)]))
}

/// The bootstrap transaction carried by the genesis block: a pure
/// write-set installing `initial`, under the reserved id `tx-0`
/// ([`fabric_common::TxId::next`] starts at 1, so the id never collides
/// with a real transaction).
///
/// Deterministic in `initial` — every peer bootstrapped with the same
/// key/values builds a byte-identical genesis block, so their chains agree
/// from block 0. The write set is built in one sort, so installing tens of
/// thousands of keys stays cheap.
pub fn genesis_transaction(
    initial: &[(fabric_common::Key, fabric_common::Value)],
) -> fabric_common::Transaction {
    let writes = fabric_common::rwset::WriteSet::from_writes(
        initial.iter().map(|(k, v)| (k.clone(), Some(v.clone()))),
    );
    fabric_common::Transaction {
        id: fabric_common::TxId(0),
        channel: fabric_common::ChannelId(0),
        client: fabric_common::ClientId(0),
        chaincode: "genesis".into(),
        rwset: fabric_common::rwset::ReadWriteSet { reads: Default::default(), writes },
        endorsements: vec![],
        created_at: Instant::now(),
    }
}

impl std::fmt::Debug for Peer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Peer({}, {}, ledger height {})", self.id, self.org, self.ledger.height())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{Chaincode, TxContext};
    use fabric_common::{ChannelId, ClientId, Endorsement, Key, Transaction, TxId, Value};
    use fabric_statedb::MemStateDb;

    struct Transfer;
    impl Chaincode for Transfer {
        fn invoke(&self, ctx: &mut TxContext, args: &[u8]) -> Result2 {
            let amount = i64::from_le_bytes(args.try_into().map_err(|_| "bad args")?);
            let a = ctx.get_i64(&Key::from("balA")).map_err(|e| e.to_string())?.ok_or("no balA")?;
            let b = ctx.get_i64(&Key::from("balB")).map_err(|e| e.to_string())?.ok_or("no balB")?;
            ctx.put_i64(Key::from("balA"), a - amount);
            ctx.put_i64(Key::from("balB"), b + amount);
            Ok(())
        }
    }
    type Result2 = std::result::Result<(), String>;

    fn mk_peer(id: u64, org: u64, registry: &SignerRegistry) -> Peer {
        mk_peer_on(id, org, registry, Arc::default(), Arc::new(MemStateDb::new()))
    }

    /// [`mk_peer`] around `ledger` and `store`.
    fn mk_peer_on(
        id: u64,
        org: u64,
        registry: &SignerRegistry,
        ledger: Arc<Ledger>,
        store: Arc<dyn fabric_statedb::StateStore>,
    ) -> Peer {
        let key = SigningKey::for_peer(PeerId(id), 11);
        registry.register(PeerId(id), key.clone());
        let mut ccs = ChaincodeRegistry::new();
        ccs.deploy("transfer", Arc::new(Transfer));
        Peer::new(
            PeerId(id),
            OrgId(org),
            key,
            store,
            ccs,
            registry.clone(),
            EndorsementPolicy::require_orgs(vec![OrgId(1), OrgId(2)]),
            ConcurrencyMode::FineGrained,
            true,
            CostModel::raw(),
        )
        .with_ledger(ledger)
    }

    fn genesis() -> Vec<(Key, Value)> {
        vec![
            (Key::from("balA"), Value::from_i64(100)),
            (Key::from("balB"), Value::from_i64(50)),
        ]
    }

    /// Full happy path over two orgs: the paper's running example in
    /// miniature.
    #[test]
    fn endorse_order_validate_commit_round_trip() {
        let registry = SignerRegistry::new();
        let peer_a = mk_peer(1, 1, &registry);
        let peer_b = mk_peer(2, 2, &registry);
        peer_a.install_genesis(&genesis()).unwrap();
        peer_b.install_genesis(&genesis()).unwrap();

        // Simulation phase on both endorsers.
        let proposal =
            TransactionProposal::new(ChannelId(0), ClientId(0), "transfer", 30i64.to_le_bytes().to_vec());
        let ra = peer_a.endorse(&proposal).unwrap();
        let rb = peer_b.endorse(&proposal).unwrap();
        assert_eq!(ra.rwset, rb.rwset, "deterministic chaincode");

        // Client assembles the transaction.
        let tx = Transaction {
            id: proposal.id,
            channel: proposal.channel,
            client: proposal.client,
            chaincode: proposal.chaincode.clone(),
            rwset: ra.rwset.clone(),
            endorsements: vec![ra.endorsement, rb.endorsement],
            created_at: proposal.created_at,
        };

        // Ordering phase: a block of one.
        let block = Block::build(1, peer_a.ledger().tip_hash(), vec![tx]);

        // Validation + commit on every peer.
        for peer in [&peer_a, &peer_b] {
            let committed = peer.process_block(block.clone()).unwrap();
            assert_eq!(committed.validity, vec![ValidationCode::Valid]);
            let bal_a = peer.store().get(&Key::from("balA")).unwrap().unwrap();
            assert_eq!(bal_a.value, Value::from_i64(70));
            assert_eq!(bal_a.version, fabric_common::Version::new(1, 0));
            assert_eq!(peer.ledger().height(), 2);
            peer.ledger().verify_chain().unwrap();
        }
    }

    #[test]
    fn reporting_peer_records_outcomes_and_latency() {
        let registry = SignerRegistry::new();
        let counters = TxCounters::new();
        let latency = LatencyRecorder::new();
        let peer = mk_peer(1, 1, &registry).with_reporting(counters.clone(), latency.clone());
        peer.install_genesis(&genesis()).unwrap();

        // A transaction with no endorsements: EndorsementFailure.
        let bad = Transaction {
            id: TxId::next(),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "transfer".into(),
            rwset: Default::default(),
            endorsements: vec![],
            created_at: Instant::now(),
        };
        let block = Block::build(1, peer.ledger().tip_hash(), vec![bad]);
        peer.process_block(block).unwrap();
        let s = counters.snapshot();
        assert_eq!(s.endorsement_failure, 1);
        assert_eq!(s.valid, 0);
        assert_eq!(latency.summary().count, 0, "latency only for valid txs");
    }

    #[test]
    fn non_reporting_peer_stays_silent() {
        let registry = SignerRegistry::new();
        let peer = mk_peer(1, 1, &registry);
        peer.install_genesis(&genesis()).unwrap();
        let block = Block::build(1, peer.ledger().tip_hash(), vec![]);
        peer.process_block(block).unwrap();
        // No counters attached — nothing to assert except absence of panic.
        assert_eq!(peer.ledger().height(), 2);
    }

    /// Crash/restart: a peer whose ledger is a block file commits a block,
    /// "crashes", is rebuilt from that file via [`crate::recovery`], and
    /// the restored peer keeps committing from its pre-crash height.
    #[test]
    fn restored_peer_resumes_from_recovered_state() {
        let path = std::env::temp_dir()
            .join(format!("fabric-peer-restore-{}.blocks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let registry = SignerRegistry::new();
        let (ledger, _) = Ledger::open(&path).unwrap();
        let peer_a =
            mk_peer_on(1, 1, &registry, Arc::new(ledger), Arc::new(MemStateDb::new()));
        let peer_b = mk_peer(2, 2, &registry);
        peer_a.install_genesis(&genesis()).unwrap();
        peer_b.install_genesis(&genesis()).unwrap();

        let mk_tx = |amount: i64| {
            let proposal = TransactionProposal::new(
                ChannelId(0),
                ClientId(0),
                "transfer",
                amount.to_le_bytes().to_vec(),
            );
            let ra = peer_a.endorse(&proposal).unwrap();
            let rb = peer_b.endorse(&proposal).unwrap();
            Transaction {
                id: proposal.id,
                channel: proposal.channel,
                client: proposal.client,
                chaincode: proposal.chaincode.clone(),
                rwset: ra.rwset.clone(),
                endorsements: vec![ra.endorsement, rb.endorsement],
                created_at: proposal.created_at,
            }
        };
        let block1 = Block::build(1, peer_a.ledger().tip_hash(), vec![mk_tx(30)]);
        for peer in [&peer_a, &peer_b] {
            peer.process_block(block1.clone()).unwrap();
        }

        // "Crash" peer_a and rebuild it from its block file alone.
        drop(peer_a);
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!(torn, 0);
        let ledger = Arc::new(ledger);
        let state = crate::recovery::replay(&ledger, true).unwrap();
        let restored = mk_peer_on(1, 1, &registry, ledger, state);
        assert_eq!(restored.ledger().height(), 2);
        assert_eq!(
            restored.store().get(&Key::from("balA")).unwrap().unwrap().value,
            Value::from_i64(70)
        );

        // The restored peer processes the next block identically to the
        // peer that never crashed.
        let proposal2 = TransactionProposal::new(
            ChannelId(0),
            ClientId(0),
            "transfer",
            5i64.to_le_bytes().to_vec(),
        );
        let r1 = restored.endorse(&proposal2).unwrap();
        let r2 = peer_b.endorse(&proposal2).unwrap();
        let tx2 = Transaction {
            id: proposal2.id,
            channel: proposal2.channel,
            client: proposal2.client,
            chaincode: proposal2.chaincode.clone(),
            rwset: r1.rwset.clone(),
            endorsements: vec![r1.endorsement, r2.endorsement],
            created_at: proposal2.created_at,
        };
        let block2 = Block::build(2, restored.ledger().tip_hash(), vec![tx2]);
        for peer in [&restored, &peer_b] {
            let committed = peer.process_block(block2.clone()).unwrap();
            assert_eq!(committed.validity, vec![ValidationCode::Valid]);
        }
        assert_eq!(restored.ledger().tip_hash(), peer_b.ledger().tip_hash());
        assert_eq!(
            restored.store().get(&Key::from("balA")).unwrap().unwrap().value,
            Value::from_i64(65)
        );
        restored.ledger().verify_chain().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// The split begin/commit API on a threaded pool commits exactly what
    /// `process_block` on the default sequential pool does — including when
    /// two blocks' signature checks are launched back to back (the
    /// pipelining shape of the threaded peer loop).
    #[test]
    fn pipelined_validation_matches_process_block() {
        let registry = SignerRegistry::new();
        let seq_peer = mk_peer(1, 1, &registry);
        let pipe_peer = mk_peer(2, 2, &registry)
            .with_validation_pool(Arc::new(crate::ValidationPool::threaded(2)));
        seq_peer.install_genesis(&genesis()).unwrap();
        pipe_peer.install_genesis(&genesis()).unwrap();

        // Hand-endorsed transactions (independent of either peer's state so
        // both peers see byte-identical blocks): tx1 reads+writes balA at
        // genesis, tx2 blind-writes balB.
        let mk_tx = |rwset: fabric_common::rwset::ReadWriteSet| {
            let id = TxId::next();
            let payload = Transaction::signing_payload(id, ChannelId(0), "transfer", &rwset);
            let endorsements = [(PeerId(1), OrgId(1)), (PeerId(2), OrgId(2))]
                .iter()
                .map(|&(p, org)| Endorsement {
                    peer: p,
                    org,
                    signature: SigningKey::for_peer(p, 11).sign_iterated(&[&payload], 1),
                })
                .collect();
            Transaction {
                id,
                channel: ChannelId(0),
                client: ClientId(0),
                chaincode: "transfer".into(),
                rwset,
                endorsements,
                created_at: Instant::now(),
            }
        };
        let tx1 = mk_tx(fabric_common::rwset::rwset_from_keys(
            &[Key::from("balA")],
            fabric_common::Version::GENESIS,
            &[Key::from("balA")],
            &Value::from_i64(70),
        ));
        let tx2 = mk_tx(fabric_common::rwset::rwset_from_keys(
            &[],
            fabric_common::Version::GENESIS,
            &[Key::from("balB")],
            &Value::from_i64(80),
        ));
        // Intra-block conflict: tx3 reads balA at the stale genesis version
        // after tx1 wrote it earlier in the same block.
        let tx3 = mk_tx(fabric_common::rwset::rwset_from_keys(
            &[Key::from("balA")],
            fabric_common::Version::GENESIS,
            &[Key::from("balB")],
            &Value::from_i64(99),
        ));
        let block1 = Block::build(1, seq_peer.ledger().tip_hash(), vec![tx1, tx3]);
        let c1 = seq_peer.process_block(block1.clone()).unwrap();
        let codes1 = vec![ValidationCode::Valid, ValidationCode::MvccConflict];
        assert_eq!(c1.validity, codes1);
        let block2 = Block::build(2, seq_peer.ledger().tip_hash(), vec![tx2]);
        seq_peer.process_block(block2.clone()).unwrap();

        // Pipelined peer: launch both blocks' checks, then commit in order.
        let p1 = pipe_peer.begin_block_validation(block1);
        let p2 = pipe_peer.begin_block_validation(block2);
        assert_eq!(p1.number(), 1);
        assert_eq!(p2.block().header.number, 2);
        let c1 = pipe_peer.commit_validated(p1).unwrap();
        let c2 = pipe_peer.commit_validated(p2).unwrap();
        assert_eq!(c1.validity, codes1);
        assert_eq!(c2.validity, vec![ValidationCode::Valid]);
        assert_eq!(pipe_peer.ledger().tip_hash(), seq_peer.ledger().tip_hash());
        for key in ["balA", "balB"] {
            assert_eq!(
                pipe_peer.store().get(&Key::from(key)).unwrap(),
                seq_peer.store().get(&Key::from(key)).unwrap(),
            );
        }
    }

    /// A block out of turn is refused before anything observes it: the
    /// reporting peer's trace and phase timers stay silent, the chain and
    /// state stay put, and the in-turn block still commits afterwards.
    #[test]
    fn out_of_turn_refusal_leaves_no_trace() {
        let registry = SignerRegistry::new();
        let sink = TraceSink::bounded(256);
        let timers = PhaseTimers::new();
        let peer = mk_peer(1, 1, &registry)
            .with_reporting(TxCounters::new(), LatencyRecorder::new())
            .with_phase_timers(timers.clone())
            .with_trace(sink.clone());
        let peer_b = mk_peer(2, 2, &registry);
        peer.install_genesis(&genesis()).unwrap();
        peer_b.install_genesis(&genesis()).unwrap();
        // An endorsed transfer reading `balA` at genesis: valid in block 1,
        // an MVCC conflict anywhere later.
        let proposal =
            TransactionProposal::new(ChannelId(0), ClientId(0), "transfer", 5i64.to_le_bytes().to_vec());
        let (ra, rb) = (peer.endorse(&proposal).unwrap(), peer_b.endorse(&proposal).unwrap());
        let tx = Transaction {
            id: proposal.id,
            channel: proposal.channel,
            client: proposal.client,
            chaincode: proposal.chaincode.clone(),
            rwset: ra.rwset,
            endorsements: vec![ra.endorsement, rb.endorsement],
            created_at: proposal.created_at,
        };
        let block1 = Arc::new(Block::build(1, peer.ledger().tip_hash(), vec![tx.clone()]));
        peer.process_block(Arc::clone(&block1)).unwrap();
        let block2 = Arc::new(Block::build(2, peer.ledger().tip_hash(), vec![tx.clone()]));
        let block3 = Arc::new(Block::build(3, block2.header.hash(), vec![tx]));

        sink.drain();
        let samples = |phase| timers.recorder(phase).summary().count;
        let before = (samples(Phase::ValidateVscc), samples(Phase::ValidateMvcc));
        let (height, tip) = (peer.ledger().height(), peer.ledger().tip_hash());
        let digest = peer.store().state_digest().unwrap();
        let refused = |got: Result<Arc<CommittedBlock>>, received: u64| match got {
            Err(Error::BlockOutOfTurn { expected: 2, received: r }) if r == received => {}
            other => panic!("block {received}: expected a turn refusal, got {other:?}"),
        };
        refused(peer.process_block(Arc::clone(&block1)), 1);
        refused(peer.process_block(Arc::clone(&block3)), 3);
        refused(peer.commit_validated(peer.begin_block_validation(Arc::clone(&block3))), 3);

        assert_eq!((peer.ledger().height(), peer.ledger().tip_hash()), (height, tip));
        assert_eq!(peer.store().state_digest().unwrap(), digest);
        assert_eq!((samples(Phase::ValidateVscc), samples(Phase::ValidateMvcc)), before);
        let events = sink.drain();
        for label in ["block_vscc", "block_mvcc", "mvcc_conflict"] {
            assert!(
                events.iter().all(|e| e.kind.label() != label),
                "a refused block emitted {label}"
            );
        }

        let committed = peer.process_block(block2).unwrap();
        assert_eq!(committed.validity, vec![ValidationCode::MvccConflict]);
        assert_eq!(peer.ledger().height(), 3);
        let labels: Vec<&str> = sink.drain().iter().map(|e| e.kind.label()).collect();
        assert!(labels.contains(&"block_vscc") && labels.contains(&"mvcc_conflict"), "{labels:?}");
    }

    #[test]
    fn forged_endorsement_rejected_at_validation() {
        let registry = SignerRegistry::new();
        let peer = mk_peer(1, 1, &registry);
        peer.install_genesis(&genesis()).unwrap();

        let proposal =
            TransactionProposal::new(ChannelId(0), ClientId(0), "transfer", 10i64.to_le_bytes().to_vec());
        let resp = peer.endorse(&proposal).unwrap();
        // Forge: swap the write set but keep the signature.
        let forged_rwset = fabric_common::rwset::rwset_from_keys(
            &[Key::from("balA")],
            fabric_common::Version::GENESIS,
            &[Key::from("balA")],
            &Value::from_i64(1_000_000),
        );
        let tx = Transaction {
            id: proposal.id,
            channel: proposal.channel,
            client: proposal.client,
            chaincode: proposal.chaincode.clone(),
            rwset: forged_rwset,
            endorsements: vec![
                resp.endorsement,
                Endorsement {
                    peer: PeerId(99),
                    org: OrgId(2),
                    signature: fabric_common::Signature([0; 32]),
                },
            ],
            created_at: proposal.created_at,
        };
        let block = Block::build(1, peer.ledger().tip_hash(), vec![tx]);
        let committed = peer.process_block(block).unwrap();
        assert_eq!(committed.validity, vec![ValidationCode::EndorsementFailure]);
        // State untouched.
        assert_eq!(
            peer.store().get(&Key::from("balA")).unwrap().unwrap().value,
            Value::from_i64(100)
        );
    }
}
