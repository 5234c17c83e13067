//! The conformance fixture matrix: seeded workloads sized to finish in
//! well under a second each, covering the regimes where determinism bugs
//! hide — tiny runs (off-by-one in assembly), larger mixed runs (worker
//! pipelines actually engaged), conflict-heavy runs (the reorderer and
//! early-abort machinery dominate), and fault-schedule runs (delivery
//! order scrambled by the injector).
//!
//! Workloads are generated by pure arithmetic on the fixture parameters
//! — no RNG — and drive the net through
//! [`fabric_chaos::ChaosNet::propose_and_submit_with_id`] with explicit
//! transaction ids, so two independent nets running the same fixture
//! produce byte-identical blocks (the process-global id counter never
//! leaks into the stream).

use std::sync::Arc;

use fabric_chaos::plan::FaultPlan;
use fabric_chaos::ChaosNet;
use fabric_common::{Key, PipelineConfig, Result, TxId, Value};
use fabric_peer::chaincode::Chaincode;
use fabricpp::chaincode_fn_with_reads;

use crate::replica::ReplicaSpec;

/// Which fault plan a fixture runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// No faults: schedule digests are empty.
    Quiescent,
    /// `FaultPlan::chaotic(seed)`: drops, duplicates, delays, reorder
    /// bursts, crashes.
    Chaotic(u64),
}

/// One conformance workload: parameters fully determine every proposal.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// Fixture name (stable; used in gate names and reports).
    pub name: &'static str,
    /// Organizations in the net.
    pub orgs: usize,
    /// Peers per organization.
    pub peers_per_org: usize,
    /// Accounts seeded at genesis (balance 100 each).
    pub accounts: u64,
    /// Blocks to cut.
    pub blocks: u64,
    /// Transfers proposed per block.
    pub txs_per_block: u64,
    /// `0`: transfers spread across all accounts. `n > 0`: every
    /// transfer touches only the first `n` accounts — an adversarial
    /// conflict regime that keeps the reorderer and early-abort paths
    /// hot.
    pub hot_accounts: u64,
    /// The fault plan.
    pub plan: PlanKind,
}

impl Fixture {
    /// Tiny smoke workload: a handful of blocks, uniform access.
    pub fn small() -> Self {
        Fixture {
            name: "small",
            orgs: 2,
            peers_per_org: 2,
            accounts: 8,
            blocks: 4,
            txs_per_block: 3,
            hot_accounts: 0,
            plan: PlanKind::Quiescent,
        }
    }

    /// Larger mixed workload: enough transactions per block that the
    /// worker pipelines actually fan out.
    pub fn medium() -> Self {
        Fixture {
            name: "medium",
            orgs: 2,
            peers_per_org: 2,
            accounts: 32,
            blocks: 12,
            txs_per_block: 8,
            hot_accounts: 0,
            plan: PlanKind::Quiescent,
        }
    }

    /// Conflict-heavy workload: all transfers inside two hot accounts,
    /// so most of each block is cycles, early aborts, and reordering —
    /// the code paths most tempted by nondeterministic iteration.
    pub fn adversarial_conflict() -> Self {
        Fixture {
            name: "adversarial-conflict",
            orgs: 2,
            peers_per_org: 2,
            accounts: 16,
            blocks: 8,
            txs_per_block: 8,
            hot_accounts: 2,
            plan: PlanKind::Quiescent,
        }
    }

    /// Fault-schedule workload: the chaotic plan scrambles delivery
    /// (drops, duplicates, bursts, a crash/restart), and the artifacts
    /// must still come out byte-identical across the knob matrix.
    pub fn chaos_faulted() -> Self {
        Fixture {
            name: "chaos-faulted",
            orgs: 2,
            peers_per_org: 2,
            accounts: 16,
            blocks: 12,
            txs_per_block: 6,
            hot_accounts: 0,
            plan: PlanKind::Chaotic(42),
        }
    }

    /// The full fixture matrix, in run order.
    pub fn all() -> Vec<Fixture> {
        vec![
            Fixture::small(),
            Fixture::medium(),
            Fixture::adversarial_conflict(),
            Fixture::chaos_faulted(),
        ]
    }

    /// Pipeline configuration for this fixture; the spec overrides the
    /// worker knobs before the net is built.
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig::fabric_pp()
    }

    /// The fault plan instance.
    pub fn plan(&self) -> FaultPlan {
        match self.plan {
            PlanKind::Quiescent => FaultPlan::quiescent(1),
            PlanKind::Chaotic(seed) => FaultPlan::chaotic(seed),
        }
    }

    /// Genesis state: `accounts` accounts with balance 100.
    pub fn genesis(&self) -> Vec<(Key, Value)> {
        (0..self.accounts).map(|i| (Key::composite("acct", i), Value::from_i64(100))).collect()
    }

    /// The chaincode set (the standard transfer contract).
    pub fn chaincodes(&self) -> Vec<Arc<dyn Chaincode>> {
        vec![transfer_chaincode()]
    }

    /// The non-semantic knob matrix this fixture runs under. The first
    /// spec is the comparison baseline.
    pub fn specs(&self) -> Vec<ReplicaSpec> {
        vec![
            ReplicaSpec::baseline(),
            ReplicaSpec::workers("vw2", 2),
            ReplicaSpec::workers("vw4", 4),
            ReplicaSpec::traced(),
            ReplicaSpec::lsm(),
            // Windowed time-series telemetry attached: observation only,
            // so every artifact must match the baseline byte-for-byte.
            ReplicaSpec::telemetry(),
        ]
    }

    /// The `(from, to)` accounts of transfer `t` in block `b` — pure
    /// arithmetic, no RNG.
    fn endpoints(&self, b: u64, t: u64) -> (u64, u64) {
        let pool = if self.hot_accounts > 0 { self.hot_accounts } else { self.accounts };
        let i = b * self.txs_per_block + t;
        // Stride 5 is coprime with (and not ±1 of) every pool size used
        // by the fixtures, so uniform blocks spread across accounts
        // instead of funneling into one and aborting each other.
        let from = (i * 5 + b) % pool;
        let mut to = (from + 1 + i % (pool.max(2) - 1)) % pool;
        if to == from {
            to = (to + 1) % pool;
        }
        (from, to)
    }

    /// Drives the whole workload on `net`: proposes every transfer with
    /// its explicit id and cuts one block per round.
    pub fn drive(&self, net: &mut ChaosNet) -> Result<()> {
        let mut id = 1u64;
        for b in 0..self.blocks {
            for t in 0..self.txs_per_block {
                let (from, to) = self.endpoints(b, t);
                let client = b * self.txs_per_block + t;
                net.propose_and_submit_with_id(
                    TxId(id),
                    client,
                    "transfer",
                    transfer_args(from, to, 1),
                );
                id += 1;
            }
            net.cut_block()?;
        }
        Ok(())
    }
}

/// The 24-byte `(from, to, amount)` argument encoding the transfer
/// chaincode expects.
pub fn transfer_args(from: u64, to: u64, amount: i64) -> Vec<u8> {
    let mut v = Vec::with_capacity(24);
    v.extend_from_slice(&from.to_le_bytes());
    v.extend_from_slice(&to.to_le_bytes());
    v.extend_from_slice(&amount.to_le_bytes());
    v
}

/// The standard account-transfer chaincode (reads both balances, moves
/// `amount` from one to the other). Both accounts are named by the
/// arguments, so the read set is declared up front and the endorser
/// resolves it in a single engine round trip.
pub fn transfer_chaincode() -> Arc<dyn Chaincode> {
    chaincode_fn_with_reads(
        "transfer",
        |args| {
            (args.len() == 24).then(|| {
                vec![
                    Key::composite("acct", u64::from_le_bytes(args[0..8].try_into().unwrap())),
                    Key::composite("acct", u64::from_le_bytes(args[8..16].try_into().unwrap())),
                ]
            })
        },
        |ctx, args| {
            if args.len() != 24 {
                return Err("bad args".into());
            }
            let from =
                Key::composite("acct", u64::from_le_bytes(args[0..8].try_into().unwrap()));
            let to = Key::composite("acct", u64::from_le_bytes(args[8..16].try_into().unwrap()));
            let amount = i64::from_le_bytes(args[16..24].try_into().unwrap());
            let fb =
                ctx.get_i64(&from).map_err(|e| e.to_string())?.ok_or("no from account")?;
            let tb = ctx.get_i64(&to).map_err(|e| e.to_string())?.ok_or("no to account")?;
            ctx.put_i64(from, fb - amount);
            ctx.put_i64(to, tb + amount);
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_stay_in_pool_and_differ() {
        for fixture in Fixture::all() {
            let pool =
                if fixture.hot_accounts > 0 { fixture.hot_accounts } else { fixture.accounts };
            for b in 0..fixture.blocks {
                for t in 0..fixture.txs_per_block {
                    let (from, to) = fixture.endpoints(b, t);
                    assert!(from < pool && to < pool);
                    assert_ne!(from, to);
                }
            }
        }
    }

    #[test]
    fn adversarial_fixture_confines_access_to_hot_accounts() {
        let f = Fixture::adversarial_conflict();
        for b in 0..f.blocks {
            for t in 0..f.txs_per_block {
                let (from, to) = f.endpoints(b, t);
                assert!(from < f.hot_accounts && to < f.hot_accounts);
            }
        }
    }
}
