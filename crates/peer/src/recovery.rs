//! Peer recovery: re-deriving the current state from the ledger.
//!
//! A Fabric peer's current state is a pure function of its ledger: replay
//! every block in order, apply the writes of the transactions flagged
//! valid. After a restart the ledger is the peer's block file reopened by
//! [`Ledger::open`] (which re-checks every frame's crc, link and data hash
//! and truncates a torn tail), or, when the peer kept no file, the crashed
//! incarnation's own ledger after [`Ledger::verify_chain`]. [`replay`]
//! rebuilds the state from it and can re-check the recorded validation
//! flags themselves (a recovering peer need not trust its own old flags:
//! the MVCC outcome is recomputable).

use std::sync::Arc;

use fabric_common::{Error, Result, TxNum, ValidationCode};
use fabric_ledger::{CommittedBlock, Ledger};
use fabric_statedb::{CommitWrite, MemStateDb, StateStore};

/// Rebuilds the current state by replaying every block of `ledger`,
/// walking it one block at a time, so a bad frame is an error, not a
/// panic.
///
/// When `recheck_flags` is set, the recorded MVCC validation flags are
/// recomputed against the rebuilt state and any disagreement is reported
/// as corruption. (Endorsement-policy flags are trusted: recomputing them
/// requires the signer registry, which a bare block file does not carry.)
pub fn replay(ledger: &Ledger, recheck_flags: bool) -> Result<Arc<MemStateDb>> {
    let state = Arc::new(MemStateDb::new());
    ledger.try_for_each(|cb, _| {
        if recheck_flags {
            recheck_block_flags(cb, &state)?;
        }
        let mut writes: Vec<CommitWrite> = Vec::new();
        for (tx_num, (tx, code)) in cb.iter().enumerate() {
            if !code.is_valid() {
                continue;
            }
            for e in tx.rwset.writes.entries() {
                writes.push(CommitWrite {
                    key: e.key.clone(),
                    value: e.value.clone(),
                    tx: tx_num as TxNum,
                });
            }
        }
        state.apply_block(cb.block.header.number, &writes)?;
        Ok(true)
    })?;
    Ok(state)
}

/// Recomputes the MVCC verdict of every transaction in `cb` against the
/// state as of the previous block and compares with the recorded flag.
fn recheck_block_flags(cb: &CommittedBlock, state: &MemStateDb) -> Result<()> {
    let mut written_in_block: std::collections::HashSet<&fabric_common::Key> =
        std::collections::HashSet::new();
    for (tx, recorded) in cb.iter() {
        // Only MVCC verdicts are recomputable offline; endorsement verdicts
        // are taken at face value (and an EndorsementFailure never applies
        // writes, so state replay stays correct either way).
        if recorded == ValidationCode::EndorsementFailure {
            continue;
        }
        let mut valid = true;
        for e in tx.rwset.reads.entries() {
            if written_in_block.contains(&e.key) {
                valid = false;
                break;
            }
            let current = state.get(&e.key)?.map(|vv| vv.version);
            if current != e.version {
                valid = false;
                break;
            }
        }
        let recomputed =
            if valid { ValidationCode::Valid } else { ValidationCode::MvccConflict };
        if recomputed.is_valid() != recorded.is_valid() {
            return Err(Error::Corruption(format!(
                "block {}, {}: recorded flag {:?} but replay computes {:?}",
                cb.block.header.number, tx.id, recorded, recomputed
            )));
        }
        if valid {
            for e in tx.rwset.writes.entries() {
                written_in_block.insert(&e.key);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{
        ChannelId, ClientId, Digest, Key, Transaction, TxId, Value, Version,
    };
    use fabric_ledger::Block;
    use std::path::{Path, PathBuf};
    use std::time::Instant;

    fn tx(read: Option<(&str, Version)>, write: (&str, i64)) -> Transaction {
        let reads: Vec<Key> = read.iter().map(|(k, _)| Key::from(*k)).collect();
        let version = read.map(|(_, v)| v).unwrap_or(Version::GENESIS);
        Transaction {
            id: TxId::next(),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "cc".into(),
            rwset: rwset_from_keys(
                &reads,
                version,
                &[Key::from(write.0)],
                &Value::from_i64(write.1),
            ),
            endorsements: vec![],
            created_at: Instant::now(),
        }
    }

    /// A consistent 3-block history: genesis, a valid write, then one valid
    /// and one genuinely-conflicting transaction.
    fn history() -> Vec<CommittedBlock> {
        let genesis = CommittedBlock::new(Block::build(0, Digest::ZERO, vec![]), vec![]).unwrap();
        let b1 = Block::build(
            1,
            genesis.block.header.hash(),
            vec![tx(None, ("a", 10)), tx(None, ("b", 20))],
        );
        let cb1 =
            CommittedBlock::new(b1, vec![ValidationCode::Valid, ValidationCode::Valid]).unwrap();
        let b2 = Block::build(
            2,
            cb1.block.header.hash(),
            vec![
                tx(Some(("a", Version::new(1, 0))), ("a", 11)), // fresh read
                tx(Some(("a", Version::GENESIS)), ("c", 1)),    // stale read
            ],
        );
        let cb2 = CommittedBlock::new(
            b2,
            vec![ValidationCode::Valid, ValidationCode::MvccConflict],
        )
        .unwrap();
        vec![genesis, cb1, cb2]
    }

    /// An anonymous ledger holding `blocks`.
    fn ledger_of(blocks: Vec<CommittedBlock>) -> Ledger {
        let ledger = Ledger::new();
        for cb in blocks {
            ledger.append(cb).unwrap();
        }
        ledger
    }

    /// A fresh block-file path under the temp dir (nothing there yet).
    fn block_path(name: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("fabric-recovery-{name}-{}.blocks", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Writes `blocks` to a durable ledger at `path` and closes it: the
    /// process "crashes" after its last append returned.
    fn persist(path: &Path, blocks: &[CommittedBlock]) {
        let (ledger, _) = Ledger::open(path).unwrap();
        for cb in blocks {
            ledger.append(cb.clone()).unwrap();
        }
    }

    fn value(state: &MemStateDb, key: &str) -> Option<(Value, Version)> {
        state.get(&Key::from(key)).unwrap().map(|vv| (vv.value, vv.version))
    }

    #[test]
    fn rebuild_reproduces_state() {
        let ledger = ledger_of(history());
        let state = replay(&ledger, false).unwrap();
        assert_eq!(value(&state, "a"), Some((Value::from_i64(11), Version::new(2, 0))));
        assert_eq!(value(&state, "b").unwrap().0, Value::from_i64(20));
        assert!(value(&state, "c").is_none(), "invalid tx not applied");
    }

    #[test]
    fn recheck_accepts_consistent_flags() {
        replay(&ledger_of(history()), true).unwrap();
    }

    #[test]
    fn recheck_detects_forged_valid_flag() {
        let mut blocks = history();
        // Flip the stale transaction's flag to Valid.
        blocks[2].validity[1] = ValidationCode::Valid;
        let err = replay(&ledger_of(blocks), true).err().expect("the recheck fails");
        assert!(matches!(err, Error::Corruption(_)), "got {err:?}");
    }

    #[test]
    fn recheck_detects_forged_invalid_flag() {
        let mut blocks = history();
        // Flip a genuinely valid transaction to MvccConflict.
        blocks[1].validity[0] = ValidationCode::MvccConflict;
        let err = replay(&ledger_of(blocks), true).err().expect("the recheck fails");
        assert!(matches!(err, Error::Corruption(_)));
    }

    #[test]
    fn round_trip_through_file_log() {
        let path = block_path("round-trip");
        persist(&path, &history());
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn), (3, 0));
        let state = replay(&ledger, true).unwrap();
        assert_eq!(value(&state, "a").unwrap().0, Value::from_i64(11));
        std::fs::remove_file(&path).unwrap();
    }

    /// Crash *before commit*: the ledger appended a block whose state
    /// writes never reached any persistent store (this suite's state DB is
    /// memory-only, exactly the paper's deployment shape — state is a cache
    /// over the ledger). Recovery must re-derive those writes from the
    /// block file alone, trusting no pre-crash state.
    #[test]
    fn crash_before_commit_replays_tip_block_writes() {
        let path = block_path("crash-pre-commit");
        let blocks = history();
        let tip_tx_ids: Vec<TxId> = blocks[2].block.txs.iter().map(|t| t.id).collect();
        // Block 2 is durable in the file but its writes were never applied
        // to any surviving state database.
        persist(&path, &blocks);
        let (ledger, _) = Ledger::open(&path).unwrap();
        assert_eq!(ledger.height(), 3);
        // The tip block's valid write (a=11 at version (2,0)) is present:
        // replay applied it from the file, not from any pre-crash state.
        let state = replay(&ledger, true).unwrap();
        assert_eq!(value(&state, "a"), Some((Value::from_i64(11), Version::new(2, 0))));
        // No committed transaction was lost.
        for id in tip_tx_ids {
            assert!(ledger.find_tx(id).is_some(), "tx {id} lost across crash");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Crash *mid block append*: the file ends in a torn frame. Reopening
    /// drops the torn tail and reports it, replay covers the clean prefix,
    /// and the ledger takes the missing block again.
    #[test]
    fn crash_mid_block_append_recovers_prefix_and_resumes() {
        let path = block_path("crash-mid-append");
        let blocks = history();
        persist(&path, &blocks);
        // Tear the final frame: chop bytes off the end of the file, as a
        // crash mid-write would.
        fabric_ledger::ledger::tear_block_file(&path, 7).unwrap();

        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert!(torn > 0, "torn tail must be reported");
        assert_eq!(ledger.height(), 2, "only the clean prefix replays");
        ledger.verify_chain().unwrap();
        let state = replay(&ledger, true).unwrap();
        assert_eq!(
            value(&state, "a"),
            Some((Value::from_i64(10), Version::new(1, 0))),
            "block 2's write must not survive the tear"
        );
        assert!(value(&state, "c").is_none());

        // The truncated file accepts the re-fetched block and a clean
        // reopen then sees the full chain.
        ledger.append(blocks[2].clone()).unwrap();
        drop(ledger);
        let (ledger, torn) = Ledger::open(&path).unwrap();
        assert_eq!((ledger.height(), torn), (3, 0));
        assert_eq!(value(&replay(&ledger, true).unwrap(), "a").unwrap().0, Value::from_i64(11));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_log_recovers_empty_peer() {
        let state = replay(&Ledger::new(), true).unwrap();
        assert_eq!(state.approximate_len(), 0);
    }
}
