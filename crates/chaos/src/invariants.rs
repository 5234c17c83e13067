//! End-of-run invariant checks over the surviving peers.
//!
//! A chaos run is only meaningful if violations are *detected*, so the
//! checks mirror the guarantees the paper's validation/commit pipeline is
//! supposed to give even under faults:
//!
//! 1. **Convergence** — every live peer holds the same chain height, the
//!    same tip hash, and a byte-identical state database.
//! 2. **Chain integrity** — each peer's hash chain verifies end to end
//!    (`previous_hash` links and recomputed data hashes).
//! 3. **Durability** — no committed transaction is lost: every tx id in
//!    the reference peer's ledger is found on every other peer, in the
//!    same block and with the same validation verdict.

use std::collections::HashMap;
use std::sync::Arc;

use fabric_common::hash::{Digest, Sha256};
use fabric_common::{BlockNum, Key, TxId, ValidationCode};
use fabric_peer::Peer;
use fabric_statedb::StateStore;

/// Outcome of a full invariant sweep. `violations` is empty iff the run
/// upheld every guarantee; the remaining fields are diagnostics.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Number of peers that took part in the check.
    pub peers_checked: usize,
    /// Chain height shared by all live peers (0 when none were checked).
    pub height: u64,
    /// State digest shared by all live peers.
    pub state_digest: Digest,
    /// Committed transactions (valid + invalid) on the reference peer.
    pub committed_txs: u64,
    /// Human-readable descriptions of every violated invariant.
    pub violations: Vec<String>,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with the full violation list unless the run was clean.
    pub fn assert_ok(&self) {
        assert!(self.ok(), "invariant violations: {:#?}", self.violations);
    }
}

/// Digest of a state store's full contents: every (key, value, version)
/// triple in key order. Keys are assumed shorter than 64 bytes of `0xFF`
/// (true for all workloads in this repo); `scan_range` is end-exclusive so
/// the upper sentinel itself is never observed.
pub fn state_digest(store: &dyn StateStore) -> Digest {
    let everything = store
        .scan_range(&Key::new(Vec::new()), &Key::new(vec![0xFF; 64]))
        .expect("full-range scan cannot fail on an open store");
    let mut h = Sha256::new();
    for (key, vv) in &everything {
        h.update(&(key.len() as u64).to_le_bytes());
        h.update(key.as_bytes());
        h.update(&(vv.value.len() as u64).to_le_bytes());
        h.update(vv.value.as_bytes());
        h.update(&vv.version.block.to_le_bytes());
        h.update(&vv.version.tx.to_le_bytes());
    }
    h.finalize()
}

/// Runs the full invariant sweep over `peers` (the live peers of one
/// channel; crashed-and-never-restarted peers must be excluded by the
/// caller). The first peer acts as the reference for durability checks.
pub fn check_invariants(peers: &[Arc<Peer>]) -> InvariantReport {
    let mut violations = Vec::new();

    let Some(reference) = peers.first() else {
        return InvariantReport {
            peers_checked: 0,
            height: 0,
            state_digest: Digest::ZERO,
            committed_txs: 0,
            violations: vec!["no live peers to check".into()],
        };
    };

    let ref_height = reference.ledger().height();
    let ref_tip = reference.ledger().tip_hash();
    let ref_state = state_digest(reference.store().as_ref());
    let (ref_valid, ref_invalid) = reference.ledger().tx_totals();

    for peer in peers {
        let who = format!("peer-{}", peer.id().raw());

        // 2. Chain integrity, independently per peer.
        if let Err(e) = peer.ledger().verify_chain() {
            violations.push(format!("{who}: hash chain broken: {e}"));
        }

        // 1. Convergence with the reference.
        let h = peer.ledger().height();
        if h != ref_height {
            violations.push(format!("{who}: height {h} != reference {ref_height}"));
        }
        let tip = peer.ledger().tip_hash();
        if tip != ref_tip {
            violations.push(format!(
                "{who}: tip {} != reference {}",
                tip.to_hex(),
                ref_tip.to_hex()
            ));
        }
        let state = state_digest(peer.store().as_ref());
        if state != ref_state {
            violations.push(format!(
                "{who}: state digest {} != reference {}",
                state.to_hex(),
                ref_state.to_hex()
            ));
        }
    }

    // 3. Durability: every committed tx on the reference exists everywhere,
    // in the same block with the same verdict. Heights already match (or
    // were flagged above), so a symmetric check adds nothing. Each peer's
    // chain is read once into a tx index (first occurrence wins, as in
    // `Ledger::find_tx`) rather than scanned once per reference tx.
    let indexes: Vec<HashMap<TxId, (BlockNum, ValidationCode)>> = peers[1..]
        .iter()
        .map(|peer| {
            let mut index = HashMap::new();
            peer.ledger().for_each(|cb| {
                for (tx, code) in cb.iter() {
                    index.entry(tx.id).or_insert((cb.block.header.number, code));
                }
            });
            index
        })
        .collect();
    reference.ledger().for_each(|cb| {
        for (tx, code) in cb.block.txs.iter().zip(&cb.validity) {
            for (peer, index) in peers[1..].iter().zip(&indexes) {
                match index.get(&tx.id).copied() {
                    None => violations.push(format!(
                        "peer-{}: committed tx-{} (block {}) lost",
                        peer.id().raw(),
                        tx.id.raw(),
                        cb.block.header.number
                    )),
                    Some((block, verdict)) => {
                        if block != cb.block.header.number || verdict != *code {
                            violations.push(format!(
                                "peer-{}: tx-{} at block {block} verdict {verdict:?}, \
                                 reference has block {} verdict {code:?}",
                                peer.id().raw(),
                                tx.id.raw(),
                                cb.block.header.number
                            ));
                        }
                    }
                }
            }
        }
    });

    InvariantReport {
        peers_checked: peers.len(),
        height: ref_height,
        state_digest: ref_state,
        committed_txs: ref_valid + ref_invalid,
        violations,
    }
}
