//! Correctness checks run after every `finish()`. A failed check is a
//! failed operation: the run exits non-zero.

use std::sync::Arc;

use fabric_common::{Transaction, TxNum, ValidationCode};
use fabric_ledger::Ledger;
use fabric_peer::peer::Peer;
use fabric_statedb::{CommitWrite, MemStateDb, StateStore};
use fabricpp::RunReport;

use crate::json::Json;
use crate::load::OutcomeCounts;

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: &str) -> Check {
        Check {
            name,
            ok,
            detail: detail.to_owned(),
        }
    }

    fn result<T: std::fmt::Debug, E: std::fmt::Display>(
        name: &'static str,
        r: Result<T, E>,
    ) -> Check {
        match r {
            Ok(v) => Check {
                name,
                ok: true,
                detail: format!("{v:?}"),
            },
            Err(e) => Check {
                name,
                ok: false,
                detail: e.to_string(),
            },
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name)),
            ("ok", Json::Bool(self.ok)),
            ("detail", Json::str(self.detail.clone())),
        ])
    }
}

/// The writes a block commits: the write sets of its valid transactions, in
/// block order, each stamped with its transaction's position.
pub fn valid_writes(txs: &[Transaction], codes: &[ValidationCode]) -> Vec<CommitWrite> {
    let mut writes = Vec::new();
    for (tx_num, (tx, code)) in txs.iter().zip(codes).enumerate() {
        if code.is_valid() {
            for e in tx.rwset.writes.entries() {
                writes.push(CommitWrite {
                    key: e.key.clone(),
                    value: e.value.clone(),
                    tx: tx_num as TxNum,
                });
            }
        }
    }
    writes
}

/// Replays `ledger` — the write sets of valid transactions, in block order
/// — into a fresh in-memory store and returns its state digest.
pub fn replay_digest(ledger: &Ledger) -> fabric_common::Result<fabric_common::Digest> {
    let store = MemStateDb::new();
    let mut failure = None;
    ledger.for_each(|cb| {
        if failure.is_some() {
            return;
        }
        let writes = valid_writes(&cb.block.txs, &cb.validity);
        if let Err(e) = store.apply_block(cb.block.header.number, &writes) {
            failure = Some(e);
        }
    });
    match failure {
        Some(e) => Err(e),
        None => store.state_digest(),
    }
}

/// The checks every run makes once the network has finished: both peers
/// hold the same verified chain and the same state, that state is exactly
/// what the ledger's valid writes produce, and no proposal was lost.
pub fn after_finish(peers: &[Arc<Peer>], report: &RunReport, driver: &OutcomeCounts) -> Vec<Check> {
    let mut checks = Vec::new();
    let reporting = &peers[0];

    for peer in peers {
        checks.push(Check::result(
            "ledger verify_chain",
            peer.ledger().verify_chain(),
        ));
    }
    let same_chain = peers.iter().all(|p| {
        p.ledger().height() == reporting.ledger().height()
            && p.ledger().tip_hash() == reporting.ledger().tip_hash()
    });
    checks.push(Check::new(
        "peers agree on height and tip hash",
        same_chain,
        &format!("height {}", reporting.ledger().height()),
    ));

    match peers
        .iter()
        .map(|p| p.store().state_digest())
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(digests) => {
            checks.push(Check::new(
                "peers agree on state digest",
                digests.iter().all(|d| *d == digests[0]),
                &digests[0].to_hex(),
            ));
            let replayed = replay_digest(reporting.ledger());
            let matches = replayed.as_ref().is_ok_and(|d| *d == digests[0]);
            checks.push(Check::new(
                "ledger replay into a fresh MemStateDb reproduces the state digest",
                matches,
                &replayed.map_or_else(|e| e.to_string(), |d| d.to_hex()),
            ));
        }
        Err(e) => checks.push(Check::new(
            "peers agree on state digest",
            false,
            &e.to_string(),
        )),
    }

    // proposals = valid + sum of aborts by cause + client-side rejections.
    let s = &report.stats;
    checks.push(Check::new(
        "accounting: proposals = valid + aborts by cause + client-side rejections",
        driver.fired == s.submitted && s.submitted == s.finished() + driver.rejected(),
        &format!(
            "fired {} submitted {} valid {} aborted {} rejected {}",
            driver.fired,
            s.submitted,
            s.valid,
            s.aborted(),
            driver.rejected()
        ),
    ));
    checks.push(Check::new(
        "accounting: driver outcomes match the program's counters",
        driver.early_aborted == s.early_abort_simulation
            && driver.handed == s.finished() - s.early_abort_simulation,
        &format!(
            "handed {} early-aborted {}",
            driver.handed, driver.early_aborted
        ),
    ));
    // The ledger agrees with the counters (genesis carries one valid tx).
    let (valid, invalid) = reporting.ledger().tx_totals();
    checks.push(Check::new(
        "accounting: ledger totals match the program's counters",
        valid == s.valid + 1 && invalid == s.mvcc_conflict + s.endorsement_failure,
        &format!("ledger valid {valid} invalid {invalid}"),
    ));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_common::rwset::RwSetBuilder;
    use fabric_common::{ChannelId, ClientId, Digest, Key, TxId, Value};
    use fabric_ledger::{Block, CommittedBlock};

    fn tx(id: u64, key: &str, value: i64) -> Transaction {
        let mut b = RwSetBuilder::new();
        b.record_write(Key::from(key), Some(Value::from_i64(value)));
        Transaction {
            id: TxId(id),
            channel: ChannelId(0),
            client: ClientId(0),
            chaincode: "t".into(),
            rwset: b.build(),
            endorsements: vec![],
            created_at: std::time::Instant::now(),
        }
    }

    #[test]
    fn replay_applies_only_valid_writes_in_block_order() {
        let ledger = Ledger::new();
        let b0 = Block::build(0, Digest::ZERO, vec![tx(0, "a", 1), tx(1, "b", 1)]);
        let h0 = b0.header.hash();
        ledger
            .append(CommittedBlock::new(b0, vec![ValidationCode::Valid; 2]).unwrap())
            .unwrap();
        let b1 = Block::build(1, h0, vec![tx(2, "a", 2), tx(3, "b", 9)]);
        ledger
            .append(
                CommittedBlock::new(
                    b1,
                    vec![ValidationCode::Valid, ValidationCode::MvccConflict],
                )
                .unwrap(),
            )
            .unwrap();

        let expected = MemStateDb::new();
        expected
            .apply_block(
                0,
                &[
                    CommitWrite::put(Key::from("a"), Value::from_i64(1), 0),
                    CommitWrite::put(Key::from("b"), Value::from_i64(1), 1),
                ],
            )
            .unwrap();
        expected
            .apply_block(
                1,
                &[CommitWrite::put(Key::from("a"), Value::from_i64(2), 0)],
            )
            .unwrap();
        assert_eq!(
            replay_digest(&ledger).unwrap(),
            expected.state_digest().unwrap()
        );
    }
}
