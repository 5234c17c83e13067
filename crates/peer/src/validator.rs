//! The validation phase (paper §2.2.3, Appendix A.3).
//!
//! Two checks per transaction, in order:
//!
//! 1. **Endorsement policy evaluation** — recompute every endorsement
//!    signature over the canonical transaction bytes and check that the
//!    endorsing organizations satisfy the policy. Catches tampered
//!    read/write sets and missing endorsements (the paper's malicious `T8`).
//! 2. **Serializability conflict check** — every read-set entry's version
//!    must match the current state *including the writes of earlier valid
//!    transactions in the same block* (commits happen at block granularity,
//!    so within-block conflicts invalidate later readers).

use std::collections::HashSet;

use fabric_common::{
    BitSet, CostModel, Key, KeyTable, OrgId, Result, SignerRegistry, Transaction, TxId,
    ValidationCode, Version,
};
use fabric_ledger::Block;
use fabric_statedb::StateStore;
use fabric_trace::{EventKind, TraceSink};

/// An endorsement policy expression, mirroring Fabric's policy language:
/// organization principals combined with `AND`, `OR`, and `OutOf` (K-of-N).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyExpr {
    /// Satisfied by an endorsement from this organization.
    Org(OrgId),
    /// All sub-expressions must be satisfied.
    And(Vec<PolicyExpr>),
    /// At least one sub-expression must be satisfied.
    Or(Vec<PolicyExpr>),
    /// At least `k` of the sub-expressions must be satisfied
    /// (Fabric's `OutOf(k, …)`).
    OutOf(usize, Vec<PolicyExpr>),
}

impl PolicyExpr {
    /// Evaluates the expression against the set of endorsing orgs.
    pub fn eval(&self, have: &HashSet<OrgId>) -> bool {
        match self {
            PolicyExpr::Org(o) => have.contains(o),
            PolicyExpr::And(subs) => subs.iter().all(|s| s.eval(have)),
            PolicyExpr::Or(subs) => subs.iter().any(|s| s.eval(have)),
            PolicyExpr::OutOf(k, subs) => {
                subs.iter().filter(|s| s.eval(have)).count() >= *k
            }
        }
    }
}

/// Which organizations must have endorsed a transaction.
///
/// The default constructor mirrors the paper's policy ("at least one peer
/// of each involved organization has to simulate the transaction proposal",
/// §2.2.1); [`EndorsementPolicy::from_expr`] accepts the full
/// AND/OR/K-of-N language of real Fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndorsementPolicy {
    expr: Option<PolicyExpr>,
    required_orgs: Vec<OrgId>,
}

impl EndorsementPolicy {
    /// Requires an endorsement from every org in `orgs`.
    pub fn require_orgs(mut orgs: Vec<OrgId>) -> Self {
        orgs.sort_unstable();
        orgs.dedup();
        EndorsementPolicy { expr: None, required_orgs: orgs }
    }

    /// Requires any single endorsement (testing convenience).
    pub fn any() -> Self {
        EndorsementPolicy { expr: None, required_orgs: Vec::new() }
    }

    /// Builds a policy from a full [`PolicyExpr`].
    pub fn from_expr(expr: PolicyExpr) -> Self {
        EndorsementPolicy { expr: Some(expr), required_orgs: Vec::new() }
    }

    /// The required organizations, ascending (empty for expression-based
    /// policies).
    pub fn required_orgs(&self) -> &[OrgId] {
        &self.required_orgs
    }

    /// Whether `tx`'s endorsing orgs satisfy this policy.
    ///
    /// A transaction with no endorsements at all never satisfies any
    /// policy: an unendorsed read/write set carries no trust whatsoever.
    pub fn satisfied_by(&self, tx: &Transaction) -> bool {
        if tx.endorsements.is_empty() {
            return false;
        }
        let have: HashSet<OrgId> = tx.endorsements.iter().map(|e| e.org).collect();
        match &self.expr {
            Some(expr) => expr.eval(&have),
            None => self.required_orgs.iter().all(|o| have.contains(o)),
        }
    }
}

/// Phase 1 of validation — endorsement-policy evaluation (Fabric's VSCC):
/// recompute every signature and check the endorsing orgs. Pure CPU work
/// over immutable transaction bytes; in Fabric v1.2 this runs *without*
/// holding the state lock, so the peer performs it before acquiring the
/// coarse gate.
///
/// Returns, per transaction, whether the endorsement check passed.
pub fn check_endorsements(
    block: &Block,
    registry: &SignerRegistry,
    policy: &EndorsementPolicy,
    cost: CostModel,
) -> Vec<bool> {
    block.txs.iter().map(|tx| check_endorsement(tx, registry, policy, cost)).collect()
}

/// The per-transaction unit of phase 1: policy evaluation plus signature
/// recomputation for one transaction. [`check_endorsements`] maps this over
/// a block sequentially; [`crate::ValidationPool`] chunks it across worker
/// threads — both must agree bit-for-bit.
pub fn check_endorsement(
    tx: &Transaction,
    registry: &SignerRegistry,
    policy: &EndorsementPolicy,
    cost: CostModel,
) -> bool {
    policy.satisfied_by(tx) && verify_signatures(tx, registry, cost)
}

/// Reusable working state for [`mvcc_validate_traced`]: the key interner,
/// the deduped probe list, the prefetched version table, and the in-block
/// write bitset. All four retain their capacity across blocks, so a warm
/// validator runs the whole MVCC phase without allocating
/// (`tests/mvcc_alloc.rs` pins this down with a counting allocator).
#[derive(Default)]
pub struct MvccScratch {
    /// Dense key ids. Read keys are interned first (pass 1), so ids
    /// `0..probe_keys.len()` index both `probe_keys` and `fetched`; write
    /// keys interned in pass 2 extend the id space without disturbing that
    /// correspondence.
    keys: KeyTable,
    /// The block's distinct read keys, in id order.
    probe_keys: Vec<Key>,
    /// Pass-1 id of every read entry of every endorsed transaction, in
    /// scan order — pass 2 replays them instead of hashing each read key
    /// a second time.
    read_ids: Vec<u32>,
    /// Current store version per read-key id, filled by one batched
    /// multi-get.
    fetched: Vec<Option<Version>>,
    /// Key ids written by earlier *valid* transactions of this block.
    written: BitSet,
    /// Which valid transaction of this block wrote each key id — the
    /// conflicting witness for traced in-block MVCC conflicts. Maintained
    /// only when a sink is attached; entries are read only for ids whose
    /// `written` bit was set this block, so stale values are never seen.
    written_by: Vec<TxId>,
}

impl MvccScratch {
    /// Creates empty scratch state.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Phase 2 of validation — the MVCC serializability check against the
/// current state (Fabric's state validator). This is the part that must
/// be serial with commits (and, under the vanilla coarse lock, with
/// simulations).
///
/// `endorsement_ok` comes from [`check_endorsements`]; transactions that
/// failed it are marked [`ValidationCode::EndorsementFailure`] and do not
/// participate in the in-block write tracking.
///
/// Store access is batched: pass 1 dedupes the block's read keys, a single
/// [`StateStore::multi_get_versions_into`] call prefetches every current
/// version (one probe per *distinct* key, however many transactions read
/// it), and pass 2 — the sequential in-block dependency scan — runs
/// entirely against the cached table, tracking in-block writes in a dense
/// bitset keyed by interned id.
///
/// Abort provenance goes to `sink`: every transaction marked
/// [`ValidationCode::MvccConflict`] emits one
/// [`EventKind::TxMvccConflict`] naming the first offending read. A
/// conflict against an earlier valid transaction *in the same block*
/// carries `writer: Some(tx)` (and `expected: None` — the key's
/// post-commit version does not exist yet); a conflict against the store
/// carries the store's current version as `expected` and `writer: None`.
/// Endorsement failures emit [`EventKind::TxEndorsementFailed`].
///
/// A disabled `sink` yields the same codes with no witness bookkeeping.
pub fn mvcc_validate_traced(
    block: &Block,
    store: &dyn StateStore,
    endorsement_ok: &[bool],
    scratch: &mut MvccScratch,
    codes: &mut Vec<ValidationCode>,
    sink: &TraceSink,
) -> Result<()> {
    codes.clear();
    scratch.keys.clear();
    scratch.probe_keys.clear();
    scratch.read_ids.clear();
    scratch.written.clear_all();

    // Pass 1: dedupe read keys. Only reads are interned here, so a key is
    // new exactly when its id equals the probe list's length — ids and
    // probe positions stay in lockstep. The id of every read entry is
    // recorded in scan order so pass 2 never hashes a read key again.
    for (tx, &endorsed) in block.txs.iter().zip(endorsement_ok) {
        if !endorsed {
            continue;
        }
        for e in tx.rwset.reads.entries() {
            let id = scratch.keys.intern(&e.key);
            if id as usize == scratch.probe_keys.len() {
                scratch.probe_keys.push(e.key.clone());
            }
            scratch.read_ids.push(id);
        }
    }

    // The block's entire store read traffic: one batched prefetch.
    store.multi_get_versions_into(&scratch.probe_keys, &mut scratch.fetched)?;

    // Pass 2: sequential dependency scan against the cached version table.
    let traced = sink.is_enabled();
    let mut cursor = 0usize;
    for (tx, &endorsed) in block.txs.iter().zip(endorsement_ok) {
        if !endorsed {
            if traced {
                sink.emit(EventKind::TxEndorsementFailed {
                    block: block.header.number,
                    tx: tx.id,
                });
            }
            codes.push(ValidationCode::EndorsementFailure);
            continue;
        }
        let reads = tx.rwset.reads.entries();
        let ids = &scratch.read_ids[cursor..cursor + reads.len()];
        cursor += reads.len();
        let mut valid = true;
        for (e, &id) in reads.iter().zip(ids) {
            let id = id as usize;
            if id < scratch.written.capacity() && scratch.written.get(id) {
                // An earlier transaction in this very block updated the
                // key; this read's version necessarily predates it.
                valid = false;
                if traced {
                    sink.emit(EventKind::TxMvccConflict {
                        block: block.header.number,
                        tx: tx.id,
                        key: e.key.clone(),
                        expected: None,
                        observed: e.version,
                        writer: Some(scratch.written_by[id]),
                    });
                }
                break;
            }
            if scratch.fetched[id] != e.version {
                valid = false;
                if traced {
                    sink.emit(EventKind::TxMvccConflict {
                        block: block.header.number,
                        tx: tx.id,
                        key: e.key.clone(),
                        expected: scratch.fetched[id],
                        observed: e.version,
                        writer: None,
                    });
                }
                break;
            }
        }
        if valid {
            for e in tx.rwset.writes.entries() {
                let id = scratch.keys.intern(&e.key) as usize;
                if id >= scratch.written.capacity() {
                    scratch.written.grow(scratch.keys.len());
                }
                scratch.written.set(id);
                if traced {
                    if id >= scratch.written_by.len() {
                        scratch.written_by.resize(scratch.keys.len(), TxId(0));
                    }
                    scratch.written_by[id] = tx.id;
                }
            }
            codes.push(ValidationCode::Valid);
        } else {
            codes.push(ValidationCode::MvccConflict);
        }
    }
    Ok(())
}

/// Convenience wrapper over [`mvcc_validate_traced`] with fresh scratch
/// state and a disabled sink; pipeline callers that validate block after
/// block hold a long-lived [`MvccScratch`] instead.
pub fn mvcc_validate(
    block: &Block,
    store: &dyn StateStore,
    endorsement_ok: &[bool],
) -> Result<Vec<ValidationCode>> {
    let mut scratch = MvccScratch::new();
    let mut codes = Vec::with_capacity(block.txs.len());
    mvcc_validate_traced(
        block,
        store,
        endorsement_ok,
        &mut scratch,
        &mut codes,
        &TraceSink::disabled(),
    )?;
    Ok(codes)
}

/// Full validation: both phases back to back (single-threaded callers).
///
/// Returns one [`ValidationCode`] per transaction, parallel to
/// `block.txs`. Does not mutate the store — committing is the
/// [`crate::committer`]'s job.
pub fn validate_block(
    block: &Block,
    store: &dyn StateStore,
    registry: &SignerRegistry,
    policy: &EndorsementPolicy,
    cost: CostModel,
) -> Result<Vec<ValidationCode>> {
    let ok = check_endorsements(block, registry, policy, cost);
    mvcc_validate(block, store, &ok)
}

fn verify_signatures(tx: &Transaction, registry: &SignerRegistry, cost: CostModel) -> bool {
    let payload = tx.payload();
    tx.endorsements
        .iter()
        .all(|e| registry.verify_iterated(e.peer, &[&payload], &e.signature, cost.verify_iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::{rwset_from_keys, ReadWriteSet, RwSetBuilder};
    use fabric_common::{
        ChannelId, ClientId, Digest, Endorsement, PeerId, SigningKey, TxId, Value, Version,
    };
    use fabric_statedb::MemStateDb;
    use std::sync::Arc;
    use std::time::Instant;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    struct Harness {
        store: Arc<MemStateDb>,
        registry: SignerRegistry,
        policy: EndorsementPolicy,
    }

    impl Harness {
        fn new() -> Self {
            let store = Arc::new(MemStateDb::with_genesis([
                (k("balA"), Value::from_i64(100)),
                (k("balB"), Value::from_i64(50)),
            ]));
            let registry = SignerRegistry::new();
            for p in 1..=4u64 {
                registry.register(PeerId(p), SigningKey::for_peer(PeerId(p), 9));
            }
            Harness {
                store,
                registry,
                policy: EndorsementPolicy::require_orgs(vec![OrgId(1), OrgId(2)]),
            }
        }

        /// Builds a correctly endorsed transaction with the given rwset.
        fn tx(&self, rwset: ReadWriteSet) -> Transaction {
            let id = TxId::next();
            let payload = Transaction::signing_payload(id, ChannelId(0), "cc", &rwset);
            let endorsements = [(PeerId(1), OrgId(1)), (PeerId(3), OrgId(2))]
                .iter()
                .map(|&(peer, org)| Endorsement {
                    peer,
                    org,
                    signature: SigningKey::for_peer(peer, 9).sign_iterated(&[&payload], 1),
                })
                .collect();
            Transaction {
                id,
                channel: ChannelId(0),
                client: ClientId(0),
                chaincode: "cc".into(),
                rwset,
                endorsements,
                created_at: Instant::now(),
            }
        }

        fn validate(&self, txs: Vec<Transaction>) -> Vec<ValidationCode> {
            let block = Block::build(1, Digest::ZERO, txs);
            validate_block(&block, self.store.as_ref(), &self.registry, &self.policy, CostModel::raw())
                .unwrap()
        }
    }

    fn transfer_rwset(read_version: Version) -> ReadWriteSet {
        rwset_from_keys(
            &[k("balA"), k("balB")],
            read_version,
            &[k("balA"), k("balB")],
            &Value::from_i64(75),
        )
    }

    #[test]
    fn valid_transaction_passes() {
        let h = Harness::new();
        let tx = h.tx(transfer_rwset(Version::GENESIS));
        assert_eq!(h.validate(vec![tx]), vec![ValidationCode::Valid]);
    }

    #[test]
    fn stale_read_version_fails_mvcc() {
        let h = Harness::new();
        let tx = h.tx(transfer_rwset(Version::new(5, 0)));
        assert_eq!(h.validate(vec![tx]), vec![ValidationCode::MvccConflict]);
    }

    #[test]
    fn tampered_write_set_fails_endorsement() {
        let h = Harness::new();
        let mut tx = h.tx(transfer_rwset(Version::GENESIS));
        // Malicious client swaps the write set after endorsement (the
        // paper's T8).
        tx.rwset = rwset_from_keys(
            &[k("balA"), k("balB")],
            Version::GENESIS,
            &[k("balA")],
            &Value::from_i64(1_000_000),
        );
        assert_eq!(h.validate(vec![tx]), vec![ValidationCode::EndorsementFailure]);
    }

    #[test]
    fn missing_org_fails_policy() {
        let h = Harness::new();
        let mut tx = h.tx(transfer_rwset(Version::GENESIS));
        // Drop the org-2 endorsement.
        tx.endorsements.retain(|e| e.org == OrgId(1));
        // Signatures still valid, but the policy wants both orgs.
        assert_eq!(h.validate(vec![tx]), vec![ValidationCode::EndorsementFailure]);
    }

    #[test]
    fn no_endorsements_fails() {
        let h = Harness::new();
        let mut tx = h.tx(transfer_rwset(Version::GENESIS));
        tx.endorsements.clear();
        assert_eq!(h.validate(vec![tx]), vec![ValidationCode::EndorsementFailure]);
        // Even under the anything-goes policy.
        let block = Block::build(1, Digest::ZERO, vec![{
            let mut t = h.tx(transfer_rwset(Version::GENESIS));
            t.endorsements.clear();
            t
        }]);
        let codes = validate_block(
            &block,
            h.store.as_ref(),
            &h.registry,
            &EndorsementPolicy::any(),
            CostModel::raw(),
        )
        .unwrap();
        assert_eq!(codes, vec![ValidationCode::EndorsementFailure]);
    }

    #[test]
    fn within_block_conflict_invalidates_later_reader() {
        // Paper Table 1: T1 writes k1; later transactions in the same block
        // read k1 at the old version → invalid.
        let h = Harness::new();
        let writer = h.tx(rwset_from_keys(
            &[],
            Version::GENESIS,
            &[k("balA")],
            &Value::from_i64(1),
        ));
        let reader = h.tx(rwset_from_keys(
            &[k("balA")],
            Version::GENESIS,
            &[k("other")],
            &Value::from_i64(2),
        ));
        assert_eq!(
            h.validate(vec![writer, reader]),
            vec![ValidationCode::Valid, ValidationCode::MvccConflict]
        );
    }

    #[test]
    fn reader_before_writer_both_valid() {
        // The conflict-free order of Table 2: reader first.
        let h = Harness::new();
        let writer = h.tx(rwset_from_keys(
            &[],
            Version::GENESIS,
            &[k("balA")],
            &Value::from_i64(1),
        ));
        let reader = h.tx(rwset_from_keys(
            &[k("balA")],
            Version::GENESIS,
            &[k("other")],
            &Value::from_i64(2),
        ));
        assert_eq!(
            h.validate(vec![reader, writer]),
            vec![ValidationCode::Valid, ValidationCode::Valid]
        );
    }

    #[test]
    fn invalid_transactions_do_not_poison_in_block_state() {
        // An invalid writer's writes must NOT count for later conflicts.
        let h = Harness::new();
        let bad_writer = h.tx(rwset_from_keys(
            &[k("balA")],
            Version::new(9, 9), // stale → invalid
            &[k("balB")],
            &Value::from_i64(1),
        ));
        let reader = h.tx(rwset_from_keys(
            &[k("balB")],
            Version::GENESIS,
            &[],
            &Value::from_i64(0),
        ));
        assert_eq!(
            h.validate(vec![bad_writer, reader]),
            vec![ValidationCode::MvccConflict, ValidationCode::Valid]
        );
    }

    #[test]
    fn read_of_absent_key_validates_against_absence() {
        let h = Harness::new();
        let mut b = RwSetBuilder::new();
        b.record_read(k("ghost"), None);
        b.record_write(k("out"), Some(Value::from_i64(1)));
        let tx_absent = h.tx(b.build());
        assert_eq!(h.validate(vec![tx_absent]), vec![ValidationCode::Valid]);

        // Claiming a version for an absent key fails.
        let mut b = RwSetBuilder::new();
        b.record_read(k("ghost"), Some(Version::GENESIS));
        let tx_wrong = h.tx(b.build());
        assert_eq!(h.validate(vec![tx_wrong]), vec![ValidationCode::MvccConflict]);
    }

    #[test]
    fn policy_predicates() {
        let p = EndorsementPolicy::require_orgs(vec![OrgId(2), OrgId(1), OrgId(2)]);
        assert_eq!(p.required_orgs(), &[OrgId(1), OrgId(2)]);
        let h = Harness::new();
        let tx = h.tx(transfer_rwset(Version::GENESIS));
        assert!(p.satisfied_by(&tx));
        let p3 = EndorsementPolicy::require_orgs(vec![OrgId(1), OrgId(2), OrgId(3)]);
        assert!(!p3.satisfied_by(&tx));
        assert!(EndorsementPolicy::any().satisfied_by(&tx));
    }

    #[test]
    fn policy_expressions_evaluate_correctly() {
        use PolicyExpr::*;
        let have: HashSet<OrgId> = [OrgId(1), OrgId(3)].into_iter().collect();

        assert!(Org(OrgId(1)).eval(&have));
        assert!(!Org(OrgId(2)).eval(&have));
        assert!(And(vec![Org(OrgId(1)), Org(OrgId(3))]).eval(&have));
        assert!(!And(vec![Org(OrgId(1)), Org(OrgId(2))]).eval(&have));
        assert!(Or(vec![Org(OrgId(2)), Org(OrgId(3))]).eval(&have));
        assert!(!Or(vec![Org(OrgId(2)), Org(OrgId(4))]).eval(&have));
        // 2-of-3.
        let two_of_three =
            OutOf(2, vec![Org(OrgId(1)), Org(OrgId(2)), Org(OrgId(3))]);
        assert!(two_of_three.eval(&have));
        let two_of_three_miss =
            OutOf(2, vec![Org(OrgId(1)), Org(OrgId(2)), Org(OrgId(4))]);
        assert!(!two_of_three_miss.eval(&have));
        // Nested: (org1 AND (org2 OR org3)).
        let nested = And(vec![Org(OrgId(1)), Or(vec![Org(OrgId(2)), Org(OrgId(3))])]);
        assert!(nested.eval(&have));
        // Degenerate forms.
        assert!(And(vec![]).eval(&have), "empty AND is vacuously true");
        assert!(!Or(vec![]).eval(&have), "empty OR is false");
        assert!(OutOf(0, vec![]).eval(&have), "0-of-0 is satisfied");
    }

    #[test]
    fn expression_policy_in_validation() {
        let h = Harness::new();
        // Policy: org1 AND (org2 OR org3). Our harness endorses with
        // orgs 1 and 2 → satisfied.
        let policy = EndorsementPolicy::from_expr(PolicyExpr::And(vec![
            PolicyExpr::Org(OrgId(1)),
            PolicyExpr::Or(vec![PolicyExpr::Org(OrgId(2)), PolicyExpr::Org(OrgId(3))]),
        ]));
        let tx = h.tx(transfer_rwset(Version::GENESIS));
        assert!(policy.satisfied_by(&tx));
        let block = Block::build(1, Digest::ZERO, vec![tx]);
        let codes =
            validate_block(&block, h.store.as_ref(), &h.registry, &policy, CostModel::raw())
                .unwrap();
        assert_eq!(codes, vec![ValidationCode::Valid]);

        // Policy requiring 2-of-(org3, org4, org5) is NOT satisfied.
        let strict = EndorsementPolicy::from_expr(PolicyExpr::OutOf(
            2,
            vec![
                PolicyExpr::Org(OrgId(3)),
                PolicyExpr::Org(OrgId(4)),
                PolicyExpr::Org(OrgId(5)),
            ],
        ));
        let tx = h.tx(transfer_rwset(Version::GENESIS));
        let block = Block::build(1, Digest::ZERO, vec![tx]);
        let codes =
            validate_block(&block, h.store.as_ref(), &h.registry, &strict, CostModel::raw())
                .unwrap();
        assert_eq!(codes, vec![ValidationCode::EndorsementFailure]);
    }

    #[test]
    fn expression_policy_rejects_unendorsed() {
        let h = Harness::new();
        // Even a vacuously-true expression rejects an unendorsed tx.
        let policy = EndorsementPolicy::from_expr(PolicyExpr::And(vec![]));
        let mut tx = h.tx(transfer_rwset(Version::GENESIS));
        tx.endorsements.clear();
        assert!(!policy.satisfied_by(&tx));
    }

    #[test]
    fn paper_appendix_a3_running_example() {
        // Block with T8 (tampered), T7 (fine), T9 (stale after T7 commits —
        // here within the same block, reading keys T7 writes).
        let h = Harness::new();
        let t7 = h.tx(transfer_rwset(Version::GENESIS));
        let mut t8 = h.tx(transfer_rwset(Version::GENESIS));
        t8.rwset = rwset_from_keys(
            &[k("balA"), k("balB")],
            Version::GENESIS,
            &[k("balA"), k("balB")],
            &Value::from_i64(120),
        );
        let t9 = h.tx(transfer_rwset(Version::GENESIS));
        let codes = h.validate(vec![t8, t7, t9]);
        assert_eq!(
            codes,
            vec![
                ValidationCode::EndorsementFailure, // T8: signature mismatch
                ValidationCode::Valid,              // T7
                ValidationCode::MvccConflict,       // T9: read what T7 wrote
            ]
        );
    }
}
