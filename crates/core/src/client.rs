//! The client side of the protocol (paper §2.2.1, Appendix A.1).
//!
//! A client forms a proposal, sends it to the endorsement peers (one per
//! organization under the default policy), waits for their simulations,
//! compares the returned read/write sets, assembles the transaction with
//! all signatures, and passes it to the ordering service.
//!
//! Every proposal takes this one step, [`propose`]; callers differ only in
//! the endorse walk they pass it: [`ClientHandle::submit`] simulates at
//! every organization at once — the last on the caller's own thread, each
//! other on a scoped thread — and `fabric_chaos::ChaosNet` walks live peers
//! in turn.
//!
//! Fabric++ addition: when an endorser early-aborts the simulation because
//! of a stale read, the client is "directly notif\[ied\] about the abort,
//! such that it can resubmit the proposal without delay" (paper §5.2.1) —
//! surfaced here as [`SubmitOutcome::EarlyAborted`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric_common::{
    ChannelId, ClientId, Endorsement, Transaction, TransactionProposal, TxCounters, TxId,
    ValidationCode,
};
use fabric_net::{DelayedSender, LatencyModel};
use fabric_peer::chaincode::SimulationError;
use fabric_trace::{EventKind, TraceSink};
use fabric_peer::endorser::EndorsementResponse;
use fabric_peer::peer::Peer;

/// Result of one [`ClientHandle::submit`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The transaction was endorsed and handed to the ordering service.
    /// Its final fate (valid / aborted) is decided downstream.
    Submitted(fabric_common::TxId),
    /// Fabric++: an endorser detected a stale read during simulation and
    /// aborted the proposal before it ever became a transaction.
    EarlyAborted(fabric_common::TxId),
    /// The proposal could not become a transaction: chaincode rejection,
    /// endorser disagreement, or a disconnected orderer.
    Rejected(String),
}

impl SubmitOutcome {
    /// Whether the transaction entered the ordering pipeline.
    pub fn is_submitted(&self) -> bool {
        matches!(self, SubmitOutcome::Submitted(_))
    }
}

/// Outcome of one proposal step ([`propose`]).
#[derive(Debug)]
pub enum ProposeOutcome {
    /// All endorsers agreed; the transaction is ready to submit.
    Endorsed(Transaction),
    /// Fabric++ simulation-phase early abort (stale read observed).
    EarlyAborted(TxId),
    /// Chaincode rejection, endorser disagreement, or an organization
    /// with no endorser to ask.
    Rejected(String),
}

/// The proposal step: counts and traces the submission (before anything
/// else), then runs `endorse`, a walk yielding per organization `Some`
/// endorsement result or `None` (no endorser to ask). The first failure
/// ends the walk: a stale read is a counted simulation-phase early abort,
/// anything else a rejection. The responses go to [`assemble_transaction`].
pub fn propose<I>(
    proposal: &TransactionProposal,
    counters: &TxCounters,
    sink: &TraceSink,
    endorse: impl FnOnce() -> I,
) -> ProposeOutcome
where
    I: IntoIterator<Item = Option<Result<EndorsementResponse, SimulationError>>>,
{
    counters.record_submitted();
    if sink.is_enabled() {
        sink.emit(EventKind::TxSubmitted {
            tx: proposal.id,
            channel: proposal.channel,
            client: proposal.client,
        });
    }
    let walk = endorse().into_iter();
    let mut responses = Vec::with_capacity(walk.size_hint().0);
    for (i, endorsed) in walk.enumerate() {
        match endorsed {
            Some(Ok(resp)) => responses.push(resp),
            Some(Err(SimulationError::StaleRead { .. })) => {
                counters.record_outcome(ValidationCode::EarlyAbortSimulation);
                return ProposeOutcome::EarlyAborted(proposal.id);
            }
            Some(Err(e)) => return ProposeOutcome::Rejected(e.to_string()),
            None => return ProposeOutcome::Rejected(format!("org {} has no live endorser", i + 1)),
        }
    }
    match assemble_transaction(proposal, responses) {
        Ok(tx) => ProposeOutcome::Endorsed(tx),
        Err(e) => ProposeOutcome::Rejected(e),
    }
}

/// Assembles a [`Transaction`] from endorsement responses, enforcing the
/// all-sets-equal rule (mismatching sets mean non-determinism or malice and
/// the client must not proceed — paper §2.2.1).
pub fn assemble_transaction(
    proposal: &TransactionProposal,
    responses: Vec<EndorsementResponse>,
) -> Result<Transaction, String> {
    // Exact size: the transaction lives on in every ledger that commits it.
    let mut endorsements: Vec<Endorsement> = Vec::with_capacity(responses.len());
    let mut iter = responses.into_iter();
    let first = iter.next().ok_or_else(|| "no endorsements collected".to_owned())?;
    endorsements.push(first.endorsement);
    for resp in iter {
        if resp.rwset != first.rwset {
            return Err("endorsers returned mismatching read/write sets".to_owned());
        }
        endorsements.push(resp.endorsement);
    }
    Ok(Transaction {
        id: proposal.id,
        channel: proposal.channel,
        client: proposal.client,
        chaincode: proposal.chaincode.clone(),
        rwset: first.rwset,
        endorsements,
        created_at: proposal.created_at,
    })
}

/// A client bound to one channel. Cheap to clone per firing thread.
pub struct ClientHandle {
    channel: ChannelId,
    client: ClientId,
    endorsers: Vec<Arc<Peer>>,
    orderer: DelayedSender<Transaction>,
    latency: LatencyModel,
    counters: TxCounters,
    sink: TraceSink,
    seq: Arc<AtomicU64>,
}

impl Clone for ClientHandle {
    fn clone(&self) -> Self {
        ClientHandle {
            channel: self.channel,
            client: self.client,
            endorsers: self.endorsers.clone(),
            orderer: self.orderer.clone(),
            latency: self.latency.clone(),
            counters: self.counters.clone(),
            sink: self.sink.clone(),
            seq: Arc::clone(&self.seq),
        }
    }
}

impl ClientHandle {
    pub(crate) fn new(
        channel: ChannelId,
        client: ClientId,
        endorsers: Vec<Arc<Peer>>,
        orderer: DelayedSender<Transaction>,
        latency: LatencyModel,
        counters: TxCounters,
        sink: TraceSink,
    ) -> Self {
        ClientHandle {
            channel,
            client,
            endorsers,
            orderer,
            latency,
            counters,
            sink,
            seq: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Returns a handle with a distinct client id (for per-thread clients).
    pub fn with_client_id(&self, id: u64) -> Self {
        let mut c = self.clone();
        c.client = ClientId(id);
        c
    }

    /// The channel this client fires into.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Fires one transaction proposal end-to-end through endorsement and
    /// hands the endorsed transaction to the ordering service.
    pub fn submit(&self, chaincode: &str, args: Vec<u8>) -> SubmitOutcome {
        let proposal =
            TransactionProposal::new(self.channel, self.client, chaincode, args);
        let outcome = propose(&proposal, &self.counters, &self.sink, || {
            // Client → endorsers hop (proposals travel in parallel; one hop
            // of latency covers the fan-out).
            self.net_sleep(64 + proposal.args.len());

            // "The endorsers now simulate the transaction proposal against
            // a local copy of the current state in parallel" (paper §2.2.1):
            // every organization but the last on a scoped thread, the last
            // on this one, so a proposal pays n − 1 spawns, not n.
            let results: Vec<Result<EndorsementResponse, SimulationError>> =
                std::thread::scope(|scope| {
                    let Some((last, others)) = self.endorsers.split_last() else {
                        return Vec::new();
                    };
                    let proposal = &proposal;
                    let handles: Vec<_> = others
                        .iter()
                        .map(|peer| scope.spawn(move || peer.endorse(proposal)))
                        .collect();
                    let own = last.endorse(proposal);
                    let joined = handles.into_iter().map(|h| h.join().expect("endorser panicked"));
                    joined.chain([own]).collect()
                });

            // Endorsers → client hop (responses carry the read/write sets),
            // taken only when every endorser succeeded.
            let all_ok = results.iter().all(Result::is_ok);
            if let Some(Ok(first)) = results.first().filter(|_| all_ok) {
                self.net_sleep(first.rwset.byte_size() + 40);
            }
            results.into_iter().map(Some)
        });
        let tx = match outcome {
            ProposeOutcome::Endorsed(tx) => tx,
            ProposeOutcome::EarlyAborted(id) => return SubmitOutcome::EarlyAborted(id),
            ProposeOutcome::Rejected(e) => return SubmitOutcome::Rejected(e),
        };

        let size = tx.byte_size();
        match self.orderer.send(tx, size, 1) {
            Ok(()) => SubmitOutcome::Submitted(proposal.id),
            Err(_) => SubmitOutcome::Rejected("ordering service disconnected".to_owned()),
        }
    }

    /// Fires a proposal and, on a Fabric++ simulation-phase early abort,
    /// immediately resubmits it — "we directly notify the corresponding
    /// client about the abort, such that it can resubmit the proposal
    /// without delay" (paper §5.2.1). Each retry is a *fresh* proposal
    /// (new id, new simulation against the now-current state); up to
    /// `max_retries` retries are attempted.
    ///
    /// Returns the final outcome plus the number of retries consumed.
    pub fn submit_with_retry(
        &self,
        chaincode: &str,
        args: Vec<u8>,
        max_retries: usize,
    ) -> (SubmitOutcome, usize) {
        let mut retries = 0;
        loop {
            let outcome = self.submit(chaincode, args.clone());
            match outcome {
                SubmitOutcome::EarlyAborted(_) if retries < max_retries => {
                    retries += 1;
                }
                other => return (other, retries),
            }
        }
    }

    fn net_sleep(&self, bytes: usize) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let d = self.latency.delay(bytes, 1, seq);
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

impl std::fmt::Debug for ClientHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ClientHandle({}, {}, {} endorsers)",
            self.client,
            self.channel,
            self.endorsers.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{assemble, PeerContext};
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{CostModel, Key, OrgId, PeerId, PipelineConfig, Signature, Value, Version};
    use fabric_peer::validation_pool::ValidationPool;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn response(v: i64) -> EndorsementResponse {
        EndorsementResponse {
            rwset: rwset_from_keys(
                &[Key::from("a")],
                Version::GENESIS,
                &[Key::from("a")],
                &Value::from_i64(v),
            ),
            endorsement: Endorsement {
                peer: PeerId(v as u64),
                org: OrgId(v as u64),
                signature: Signature([v as u8; 32]),
            },
        }
    }

    fn proposal() -> TransactionProposal {
        TransactionProposal::new(ChannelId(0), ClientId(0), "cc", vec![])
    }

    #[test]
    fn assemble_requires_matching_sets() {
        let p = proposal();
        let tx = assemble_transaction(&p, vec![response(1), {
            let mut r = response(2);
            r.rwset = response(1).rwset;
            r
        }])
        .unwrap();
        assert_eq!(tx.endorsements.len(), 2);
        assert_eq!(tx.id, p.id);

        let err = assemble_transaction(&p, vec![response(1), response(2)]).unwrap_err();
        assert!(err.contains("mismatching"));
    }

    #[test]
    fn assemble_holds_endorsements_at_exact_size() {
        for n in 1..=5 {
            let same = |v| EndorsementResponse { rwset: response(1).rwset, ..response(v) };
            let tx = assemble_transaction(&proposal(), (1..=n).map(same).collect()).unwrap();
            assert_eq!(tx.endorsements.len(), n as usize);
            assert_eq!(tx.endorsements.capacity(), n as usize);
        }
    }

    #[test]
    fn assemble_rejects_empty() {
        assert!(assemble_transaction(&proposal(), vec![]).is_err());
    }

    #[test]
    fn stale_read_at_the_second_org_early_aborts_and_ends_the_walk() {
        let (p, counters) = (proposal(), TxCounters::new());
        let stale = SimulationError::StaleRead {
            key: Key::from("a"),
            snapshot_block: 0,
            observed: Version::GENESIS,
        };
        let mut asked = 0;
        let walk = [Ok(response(1)), Err(stale), Ok(response(1))].into_iter().map(|r| {
            asked += 1;
            Some(r)
        });
        match propose(&p, &counters, &TraceSink::disabled(), || walk) {
            ProposeOutcome::EarlyAborted(id) => assert_eq!(id, p.id),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(asked, 2, "no org after the stale read is asked");
        let s = counters.snapshot();
        assert_eq!((s.submitted, s.early_abort_simulation, s.finished()), (1, 1, 1));
    }

    #[test]
    fn chaincode_errors_differing_sets_and_missing_orgs_reject() {
        let refused = Err(SimulationError::ChaincodeError("no funds".into()));
        for (second, text) in [
            (Some(refused), "chaincode error: no funds"),
            (Some(Ok(response(2))), "endorsers returned mismatching read/write sets"),
            (None, "org 2 has no live endorser"),
        ] {
            let counters = TxCounters::new();
            let walk = || [Some(Ok(response(1))), second];
            match propose(&proposal(), &counters, &TraceSink::disabled(), walk) {
                ProposeOutcome::Rejected(e) => assert_eq!(e, text),
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!((counters.snapshot().submitted, counters.snapshot().finished()), (1, 0));
        }
    }

    #[test]
    fn submission_is_traced_before_the_endorsers_events() {
        let (cfg, sink) = (PipelineConfig::fabric_pp(), TraceSink::bounded(64));
        let (cc, pool) = (crate::chaincode_fn("noop", |_, _| Ok(())), ValidationPool::sequential());
        let ctx = PeerContext::new(&cfg, 2, &[cc], CostModel::raw(), 1, pool, sink.clone(), None);
        let anonymous = |_| Ok(Arc::default());
        let (peers, _) =
            assemble(&ctx, &cfg, 1, 1, &crate::StateEngine::Memory, &[], anonymous).unwrap();
        let p = TransactionProposal::new(ChannelId(0), ClientId(0), "noop", vec![]);
        let walk = || peers.iter().map(|peer| Some(peer.endorse(&p)));
        assert!(matches!(propose(&p, &ctx.counters, &sink, walk), ProposeOutcome::Endorsed(_)));
        let kinds: Vec<EventKind> = sink.report().events.into_iter().map(|e| e.kind).collect();
        assert!(matches!(kinds[0], EventKind::TxSubmitted { tx, .. } if tx == p.id), "{kinds:?}");
        assert!(matches!(kinds[1], EventKind::TxEndorsed { tx, .. } if tx == p.id), "{kinds:?}");
        assert_eq!(kinds.len(), 2, "only the reporting peer traces: {kinds:?}");
    }

    /// A network of `orgs` organizations whose one chaincode, "where",
    /// logs the thread of every simulation.
    fn thread_logging_net(orgs: usize) -> (crate::FabricNetwork, Arc<Mutex<Vec<ThreadId>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&log);
        let cc = crate::chaincode_fn("where", move |ctx, _| {
            seen.lock().unwrap().push(std::thread::current().id());
            ctx.put_i64(Key::from("k"), 1);
            Ok(())
        });
        let net = crate::NetworkBuilder::new()
            .orgs(orgs)
            .cost(CostModel::raw())
            .latency(LatencyModel::zero())
            .deploy(cc)
            .build()
            .unwrap();
        (net, log)
    }

    #[test]
    fn submit_endorses_one_org_on_the_callers_thread() {
        for orgs in [1, 2] {
            let (net, log) = thread_logging_net(orgs);
            let client = net.client(0);
            for _ in 0..8 {
                log.lock().unwrap().clear();
                assert!(client.submit("where", vec![]).is_submitted());
                let threads = std::mem::take(&mut *log.lock().unwrap());
                assert_eq!(threads.len(), orgs, "one simulation per organization");
                let here = threads.iter().filter(|&&t| t == std::thread::current().id()).count();
                assert_eq!(here, 1, "{orgs} org(s): exactly one simulation on the caller's thread");
            }
            drop(client);
            net.finish();
        }
    }

    #[test]
    fn submit_keeps_endorsements_in_organization_order() {
        let (net, _) = thread_logging_net(3);
        let reporting = net.channel_peers(0).swap_remove(0);
        let client = net.client(0);
        let SubmitOutcome::Submitted(id) = client.submit("where", vec![]) else {
            panic!("not submitted")
        };
        drop(client);
        net.finish();
        let (n, code) = reporting.ledger().find_tx(id).expect("committed");
        assert!(code.is_valid());
        let block = reporting.ledger().get(n).unwrap();
        let (tx, _) = block.iter().find(|(tx, _)| tx.id == id).unwrap();
        let orgs: Vec<u64> = tx.endorsements.iter().map(|e| e.org.raw()).collect();
        assert_eq!(orgs, [1, 2, 3]);
    }

    #[test]
    fn submit_with_no_endorsers_rejects_and_counts() {
        let (orderer, _rx) = fabric_net::link(LatencyModel::zero(), fabric_net::NetStats::new());
        let counters = TxCounters::new();
        let client = ClientHandle::new(
            ChannelId(0),
            ClientId(0),
            Vec::new(),
            orderer,
            LatencyModel::zero(),
            counters.clone(),
            TraceSink::disabled(),
        );
        let rejected = SubmitOutcome::Rejected("no endorsements collected".into());
        assert_eq!(client.submit("cc", vec![]), rejected);
        assert_eq!((counters.snapshot().submitted, counters.snapshot().finished()), (1, 0));
    }

    #[test]
    fn outcome_predicates() {
        assert!(SubmitOutcome::Submitted(fabric_common::TxId(1)).is_submitted());
        assert!(!SubmitOutcome::EarlyAborted(fabric_common::TxId(1)).is_submitted());
        assert!(!SubmitOutcome::Rejected("x".into()).is_submitted());
    }
}
