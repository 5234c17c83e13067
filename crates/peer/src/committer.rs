//! The commit phase (paper §2.2.4).
//!
//! "Each peer appends the block, which contains both valid and invalid
//! transactions, to its local ledger. Additionally, each peer applies all
//! changes made by the valid transactions to its current state."

use std::sync::Arc;
use std::time::Instant;

use fabric_common::{Result, TxNum, ValidationCode};
use fabric_ledger::{Block, CommittedBlock, Ledger};
use fabric_statedb::{StateStore, WriteBatch, WriteRef};
use fabric_trace::{EventKind, TraceSink};

/// Applies a validated block: valid writes into `store` (atomically, with
/// versions `(block, tx)`), the whole block into `ledger`.
///
/// The write batch borrows keys and values straight out of the block's
/// write sets — no per-entry clone — and the block is never copied: the
/// ledger keeps the caller's shared `Arc<Block>` (a plain `Block` is
/// wrapped once), and the returned handle is a reference-count bump on
/// the ledger's entry.
pub fn commit_block(
    block: impl Into<Arc<Block>>,
    codes: Vec<ValidationCode>,
    store: &dyn StateStore,
    ledger: &Ledger,
) -> Result<Arc<CommittedBlock>> {
    commit_block_traced(block, codes, store, ledger, &TraceSink::disabled())
}

/// [`commit_block`] with flight-recorder events: one
/// [`EventKind::TxCommitted`] per valid transaction once the block's
/// writes are durably applied, then one [`EventKind::BlockCommitted`]
/// span covering the whole apply+append. A disabled `sink` makes this
/// exactly [`commit_block`].
pub fn commit_block_traced(
    block: impl Into<Arc<Block>>,
    codes: Vec<ValidationCode>,
    store: &dyn StateStore,
    ledger: &Ledger,
    sink: &TraceSink,
) -> Result<Arc<CommittedBlock>> {
    let t_start = Instant::now();
    let committed = CommittedBlock::new(block, codes)?;

    let mut batch = WriteBatch::new(committed.block.header.number);
    for (tx_num, (tx, code)) in committed.iter().enumerate() {
        if !code.is_valid() {
            continue;
        }
        for e in tx.rwset.writes.entries() {
            batch.push(WriteRef { key: &e.key, value: e.value.as_ref(), tx: tx_num as TxNum });
        }
    }
    let writes = batch.len() as u32;
    store.apply_write_batch(&batch)?;
    drop(batch);
    let handle = ledger.append(committed)?;
    if sink.is_enabled() {
        let number = handle.block.header.number;
        let mut valid = 0u32;
        for (tx, code) in handle.iter() {
            if code.is_valid() {
                valid += 1;
                sink.emit(EventKind::TxCommitted { block: number, tx: tx.id });
            }
        }
        sink.emit(EventKind::BlockCommitted {
            block: number,
            valid,
            invalid: handle.block.txs.len() as u32 - valid,
            writes,
            dur_us: t_start.elapsed().as_micros() as u64,
        });
    }
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::rwset_from_keys;
    use fabric_common::{ChannelId, ClientId, Key, Transaction, TxId, Value, Version};
    use fabric_statedb::MemStateDb;
    use std::sync::Arc;
    use std::time::Instant;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    fn tx(write_key: &str, value: i64) -> Transaction {
        Transaction {
            id: TxId::next(),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "cc".into(),
            rwset: rwset_from_keys(
                &[],
                Version::GENESIS,
                &[k(write_key)],
                &Value::from_i64(value),
            ),
            endorsements: vec![],
            created_at: Instant::now(),
        }
    }

    fn setup() -> (Arc<MemStateDb>, Ledger) {
        let store = Arc::new(MemStateDb::with_genesis([(k("a"), Value::from_i64(0))]));
        let ledger = Ledger::new();
        // Genesis ledger block matching state block 0.
        let genesis = Block::build(0, fabric_common::Digest::ZERO, vec![]);
        ledger.append(CommittedBlock::new(genesis, vec![]).unwrap()).unwrap();
        (store, ledger)
    }

    #[test]
    fn valid_writes_applied_with_correct_versions() {
        let (store, ledger) = setup();
        let block = Block::build(1, ledger.tip_hash(), vec![tx("a", 10), tx("b", 20)]);
        let committed = commit_block(
            block,
            vec![ValidationCode::Valid, ValidationCode::Valid],
            store.as_ref(),
            &ledger,
        )
        .unwrap();
        assert_eq!(committed.valid_count(), 2);
        let a = store.get(&k("a")).unwrap().unwrap();
        assert_eq!(a.value, Value::from_i64(10));
        assert_eq!(a.version, Version::new(1, 0));
        let b = store.get(&k("b")).unwrap().unwrap();
        assert_eq!(b.version, Version::new(1, 1));
        assert_eq!(ledger.height(), 2);
    }

    #[test]
    fn invalid_writes_discarded() {
        let (store, ledger) = setup();
        let block = Block::build(1, ledger.tip_hash(), vec![tx("a", 99), tx("b", 20)]);
        commit_block(
            block,
            vec![ValidationCode::MvccConflict, ValidationCode::Valid],
            store.as_ref(),
            &ledger,
        )
        .unwrap();
        // a untouched, b written.
        assert_eq!(store.get(&k("a")).unwrap().unwrap().value, Value::from_i64(0));
        assert_eq!(store.get(&k("b")).unwrap().unwrap().value, Value::from_i64(20));
        // Ledger still records both transactions.
        assert_eq!(ledger.get(1).unwrap().block.txs.len(), 2);
        assert_eq!(ledger.tx_totals(), (1, 1));
    }

    #[test]
    fn later_write_in_block_wins() {
        let (store, ledger) = setup();
        let block = Block::build(1, ledger.tip_hash(), vec![tx("a", 1), tx("a", 2)]);
        commit_block(
            block,
            vec![ValidationCode::Valid, ValidationCode::Valid],
            store.as_ref(),
            &ledger,
        )
        .unwrap();
        let a = store.get(&k("a")).unwrap().unwrap();
        assert_eq!(a.value, Value::from_i64(2));
        assert_eq!(a.version, Version::new(1, 1));
    }

    #[test]
    fn empty_block_advances_both_stores() {
        let (store, ledger) = setup();
        let block = Block::build(1, ledger.tip_hash(), vec![]);
        commit_block(block, vec![], store.as_ref(), &ledger).unwrap();
        assert_eq!(store.last_committed_block(), 1);
        assert_eq!(ledger.height(), 2);
    }

    #[test]
    fn mismatched_codes_rejected() {
        let (store, ledger) = setup();
        let block = Block::build(1, ledger.tip_hash(), vec![tx("a", 1)]);
        assert!(commit_block(block, vec![], store.as_ref(), &ledger).is_err());
    }
}
