//! Ledger-replay serializability oracle.
//!
//! An independent, deliberately small check of what a peer committed. It
//! replays the peer's blocks, genesis first, against a single-version model
//! of the state — key → version of its last committed write — and applies
//! every `Valid` transaction's writes at `Version(block, position)`, the
//! version the committer stamps. At each transaction's position it asserts:
//!
//! * a `Valid` transaction's point reads all equal the model's current
//!   versions: it read exactly the state it commits on top of, so the
//!   committed history is conflict-serializable in block order;
//! * an `MvccConflict` transaction has at least one stale read: an MVCC
//!   abort must be justified.
//!
//! Other codes neither write nor are checked here. The oracle shares no
//! code with the peer's validator (no interned ids, no batched store
//! probes, no in-block write bitset), so a bug there cannot hide itself.

use std::collections::HashMap;
use std::fmt;

use fabric_common::{BlockNum, Key, TxId, TxNum, ValidationCode, Version};
use fabric_ledger::{CommittedBlock, Ledger};

/// The first transaction whose validation code the replay contradicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleViolation {
    /// Block holding the transaction.
    pub block: BlockNum,
    /// The transaction's position within the block.
    pub position: TxNum,
    /// The transaction.
    pub tx: TxId,
    /// What the replay found.
    pub reason: String,
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "block {} position {} ({}): {}", self.block, self.position, self.tx, self.reason)
    }
}

impl std::error::Error for OracleViolation {}

/// The single-version state model the replay runs against; empty, so
/// replay must start at the genesis block.
#[derive(Default)]
struct Replay {
    versions: HashMap<Key, Version>,
}

impl Replay {
    /// Checks every transaction of `cb` against the model, applying the
    /// valid ones' writes as it goes. Stops at the first violation.
    fn apply(&mut self, cb: &CommittedBlock) -> Result<(), OracleViolation> {
        let block = cb.block.header.number;
        for (position, (tx, code)) in cb.iter().enumerate() {
            let position = position as TxNum;
            let stale = tx
                .rwset
                .reads
                .entries()
                .iter()
                .find(|r| self.versions.get(&r.key).copied() != r.version);
            let violation = |reason: String| OracleViolation { block, position, tx: tx.id, reason };
            match code {
                ValidationCode::Valid => {
                    if let Some(r) = stale {
                        return Err(violation(format!(
                            "valid, but read {} at {} while the state holds {}",
                            r.key,
                            show(r.version),
                            show(self.versions.get(&r.key).copied())
                        )));
                    }
                    let version = Version::new(block, position);
                    for w in tx.rwset.writes.entries() {
                        match w.value {
                            Some(_) => self.versions.insert(w.key.clone(), version),
                            None => self.versions.remove(&w.key),
                        };
                    }
                }
                ValidationCode::MvccConflict if stale.is_none() => {
                    return Err(violation("mvcc_conflict, but every read is current".into()));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

fn show(version: Option<Version>) -> String {
    version.map_or_else(|| "absent".to_owned(), |v| v.to_string())
}

/// Replays `blocks` (genesis first, in ledger order) and returns the first
/// violation, if any.
pub fn check_blocks<'a>(
    blocks: impl IntoIterator<Item = &'a CommittedBlock>,
) -> Result<(), OracleViolation> {
    let mut replay = Replay::default();
    blocks.into_iter().try_for_each(|cb| replay.apply(cb))
}

/// [`check_blocks`] over a peer's whole ledger.
pub fn check_ledger(ledger: &Ledger) -> Result<(), OracleViolation> {
    let mut replay = Replay::default();
    let mut result = Ok(());
    ledger.for_each(|cb| {
        if result.is_ok() {
            result = replay.apply(cb);
        }
    });
    result
}
