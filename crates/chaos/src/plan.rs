//! Declarative fault plans.
//!
//! A [`FaultPlan`] is pure data: probabilities for the random fault kinds,
//! plus explicitly scheduled partitions, crash points, and WAL faults.
//! Paired with a seed it fully determines a fault schedule — the
//! [`crate::FaultInjector`] turns the plan into per-message verdicts.

use std::time::Duration;

use fabric_common::{Error, Result};
use fabric_consensus::{Equivocation, OrdererCrash};
use fabric_net::LinkId;

/// A network partition over a set of peers, expressed as a per-link
/// message-count window: while the `nth` message on a link into the
/// partitioned set satisfies `from_nth <= nth < until_nth`, the message
/// is dropped. In the block-granular chaos harness each link carries one
/// message per block, so the window is effectively a block-number range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Raw peer ids (`PeerId::raw()`) cut off from the rest of the network.
    pub peers: Vec<u64>,
    /// First per-link message index (0-based) inside the partition.
    pub from_nth: u64,
    /// First per-link message index after the partition heals.
    pub until_nth: u64,
}

impl Partition {
    /// True when the `nth` message to `peer` falls inside the window.
    pub fn covers(&self, peer: u64, nth: u64) -> bool {
        self.peers.contains(&peer) && (self.from_nth..self.until_nth).contains(&nth)
    }
}

/// A scheduled peer crash: the peer dies just before block `at_block` is
/// delivered, optionally tearing the tail of its block file, and is
/// restarted (recovery + archive catch-up) `restart_after_blocks` blocks
/// later. `restart_after_blocks == 0` leaves the peer down until the
/// harness shuts down (it is then excluded from invariant checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Raw peer id (`PeerId::raw()`).
    pub peer: u64,
    /// Block number whose delivery the peer misses first.
    pub at_block: u64,
    /// Blocks after `at_block` at which the peer is restarted (0 = never).
    pub restart_after_blocks: u64,
    /// Bytes torn off the tail of the peer's block file while down,
    /// simulating a crash mid-append. A plan with any is accepted only by
    /// a net with a `ChaosOptions::block_dir`.
    pub tear_bytes: u64,
}

/// A scheduled write-ahead-log fault, applied through the injectable-IO
/// seam in the LSM WAL ([`fabric_statedb::WalFaultPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalFault {
    /// WAL block number the fault fires on.
    pub at_block: u64,
    /// Bytes of the record that reach disk (torn write). `0` keeps
    /// nothing; the append still reports success, like a lying disk cache.
    pub keep: usize,
}

/// A seedable description of which faults to inject and how often.
///
/// Probabilities are expressed per mille (0..=1000) and consulted once per
/// message send; at most one random fault fires per message. Partitions
/// take precedence over random faults on the links they cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the fault-decision RNG stream.
    pub seed: u64,
    /// Probability (per mille) a message is silently dropped.
    pub drop_per_mille: u32,
    /// Probability (per mille) a message is delivered twice.
    pub duplicate_per_mille: u32,
    /// Probability (per mille) a message suffers a latency spike.
    pub delay_per_mille: u32,
    /// Size of an injected latency spike, carried by the
    /// [`fabric_net::SendFault::Delay`] verdict; the deterministic harness
    /// defers the block one logical round instead.
    pub delay_spike: Duration,
    /// Probability (per mille) a message opens a reorder burst.
    pub reorder_per_mille: u32,
    /// Messages absorbed and released in reverse order per burst (>= 2).
    pub reorder_burst_len: u32,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
    /// Scheduled crash/restart points.
    pub crashes: Vec<CrashPoint>,
    /// Scheduled WAL IO faults.
    pub wal_faults: Vec<WalFault>,
    /// Scheduled orderer-replica crashes (replicated ordering only).
    pub orderer_crashes: Vec<OrdererCrash>,
    /// Scheduled leader equivocations (replicated ordering only).
    pub equivocations: Vec<Equivocation>,
}

impl FaultPlan {
    /// No faults at all — the control arm of every chaos matrix, and the
    /// plan scripted deterministic scenarios run [`crate::ChaosNet`] under:
    /// it logs no verdicts and emits no fault events.
    pub fn quiescent(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_per_mille: 0,
            duplicate_per_mille: 0,
            delay_per_mille: 0,
            delay_spike: Duration::from_millis(5),
            reorder_per_mille: 0,
            reorder_burst_len: 3,
            partitions: Vec::new(),
            crashes: Vec::new(),
            wal_faults: Vec::new(),
            orderer_crashes: Vec::new(),
            equivocations: Vec::new(),
        }
    }

    /// A mildly hostile network: occasional drops, duplicates, delays and
    /// reorder bursts, no scheduled faults.
    pub fn lossy(seed: u64) -> Self {
        FaultPlan {
            drop_per_mille: 100,
            duplicate_per_mille: 60,
            delay_per_mille: 60,
            reorder_per_mille: 40,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// An actively hostile network: heavy loss, duplication and reordering.
    pub fn chaotic(seed: u64) -> Self {
        FaultPlan {
            drop_per_mille: 250,
            duplicate_per_mille: 150,
            delay_per_mille: 150,
            reorder_per_mille: 100,
            reorder_burst_len: 4,
            ..FaultPlan::quiescent(seed)
        }
    }

    /// Adds a partition window (builder style).
    pub fn with_partition(mut self, peers: Vec<u64>, from_nth: u64, until_nth: u64) -> Self {
        self.partitions.push(Partition { peers, from_nth, until_nth });
        self
    }

    /// Adds a crash point (builder style).
    pub fn with_crash(mut self, peer: u64, at_block: u64, restart_after_blocks: u64) -> Self {
        self.crashes.push(CrashPoint { peer, at_block, restart_after_blocks, tear_bytes: 0 });
        self
    }

    /// Adds a crash point that also tears the tail of the peer's block file.
    pub fn with_torn_crash(
        mut self,
        peer: u64,
        at_block: u64,
        restart_after_blocks: u64,
        tear_bytes: u64,
    ) -> Self {
        self.crashes.push(CrashPoint { peer, at_block, restart_after_blocks, tear_bytes });
        self
    }

    /// Adds a WAL torn-write fault (builder style).
    pub fn with_wal_fault(mut self, at_block: u64, keep: usize) -> Self {
        self.wal_faults.push(WalFault { at_block, keep });
        self
    }

    /// Adds an orderer-replica crash (builder style). `after_propose`
    /// kills the replica right after its proposal hits the wire — the
    /// leader-dies-mid-height scenario; otherwise it misses the height
    /// entirely. Only meaningful with a replicated ordering service.
    pub fn with_orderer_crash(
        mut self,
        replica: u32,
        at_height: u64,
        restart_after_heights: u64,
        after_propose: bool,
    ) -> Self {
        self.orderer_crashes.push(OrdererCrash {
            replica,
            at_height,
            restart_after_heights,
            after_propose,
        });
        self
    }

    /// Adds a partition over orderer replicas (builder style): every
    /// consensus message into (or out of) the named replicas is dropped
    /// while the per-link message index is inside `from_nth..until_nth`.
    /// Replica indices are mapped to their [`LinkId::consensus_endpoint`]
    /// ids, so peer-side partitions are unaffected.
    pub fn with_orderer_partition(
        mut self,
        replicas: Vec<u32>,
        from_nth: u64,
        until_nth: u64,
    ) -> Self {
        let peers = replicas
            .into_iter()
            .map(|r| u64::from(LinkId::consensus_endpoint(r)))
            .collect();
        self.partitions.push(Partition { peers, from_nth, until_nth });
        self
    }

    /// Adds a leader equivocation (builder style): at `at_height` the
    /// named replica's proposal toward each victim carries a forged plan
    /// digest. Only meaningful with a replicated ordering service.
    pub fn with_equivocation(mut self, leader: u32, at_height: u64, victims: Vec<u32>) -> Self {
        self.equivocations.push(Equivocation { leader, at_height, victims });
        self
    }

    /// True when any fault source is configured.
    pub fn is_quiescent(&self) -> bool {
        self.drop_per_mille == 0
            && self.duplicate_per_mille == 0
            && self.delay_per_mille == 0
            && self.reorder_per_mille == 0
            && self.partitions.is_empty()
            && self.crashes.is_empty()
            && self.wal_faults.is_empty()
            && self.orderer_crashes.is_empty()
            && self.equivocations.is_empty()
    }

    /// Validates internal consistency. The sum of fault probabilities must
    /// not exceed 1000 per mille (they share a single dice roll), burst
    /// lengths must be at least 2, and partition windows must be non-empty.
    pub fn validate(&self) -> Result<()> {
        let total = self.drop_per_mille
            + self.duplicate_per_mille
            + self.delay_per_mille
            + self.reorder_per_mille;
        if total > 1000 {
            return Err(Error::Config(format!(
                "fault probabilities sum to {total} per mille (> 1000)"
            )));
        }
        if self.reorder_per_mille > 0 && self.reorder_burst_len < 2 {
            return Err(Error::Config("reorder_burst_len must be >= 2".into()));
        }
        for p in &self.partitions {
            if p.from_nth >= p.until_nth {
                return Err(Error::Config(format!(
                    "empty partition window {}..{}",
                    p.from_nth, p.until_nth
                )));
            }
            if p.peers.is_empty() {
                return Err(Error::Config("partition over an empty peer set".into()));
            }
        }
        for c in &self.crashes {
            if c.tear_bytes > 0 && c.restart_after_blocks == 0 {
                return Err(Error::Config(
                    "torn crash without a restart never exercises recovery".into(),
                ));
            }
        }
        for c in &self.orderer_crashes {
            if c.replica >= LinkId::MAX_CONSENSUS_REPLICAS {
                return Err(Error::Config(format!(
                    "orderer crash names replica {} outside the consensus endpoint range",
                    c.replica
                )));
            }
            if c.at_height == 0 {
                return Err(Error::Config("consensus heights start at 1".into()));
            }
        }
        for e in &self.equivocations {
            if e.victims.is_empty() {
                return Err(Error::Config("equivocation with no victims is a no-op".into()));
            }
            if e.at_height == 0 {
                return Err(Error::Config("consensus heights start at 1".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert!(FaultPlan::quiescent(1).validate().is_ok());
        assert!(FaultPlan::lossy(1).validate().is_ok());
        assert!(FaultPlan::chaotic(1).validate().is_ok());
        assert!(FaultPlan::quiescent(1).is_quiescent());
        assert!(!FaultPlan::lossy(1).is_quiescent());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let mut p = FaultPlan::quiescent(0);
        p.drop_per_mille = 600;
        p.duplicate_per_mille = 600;
        assert!(p.validate().is_err(), "probabilities over 1000");

        let mut p = FaultPlan::quiescent(0);
        p.reorder_per_mille = 10;
        p.reorder_burst_len = 1;
        assert!(p.validate().is_err(), "burst of one is a no-op");

        let p = FaultPlan::quiescent(0).with_partition(vec![1], 5, 5);
        assert!(p.validate().is_err(), "empty window");

        let p = FaultPlan::quiescent(0).with_partition(vec![], 0, 5);
        assert!(p.validate().is_err(), "empty peer set");

        let p = FaultPlan::quiescent(0).with_torn_crash(1, 2, 0, 9);
        assert!(p.validate().is_err(), "torn crash without restart");

        let p = FaultPlan::quiescent(0).with_orderer_crash(99, 1, 1, true);
        assert!(p.validate().is_err(), "replica outside the consensus range");

        let p = FaultPlan::quiescent(0).with_equivocation(0, 1, vec![]);
        assert!(p.validate().is_err(), "equivocation without victims");
    }

    #[test]
    fn orderer_faults_make_a_plan_non_quiescent() {
        let p = FaultPlan::quiescent(0).with_orderer_crash(1, 2, 1, true);
        assert!(!p.is_quiescent());
        assert!(p.validate().is_ok());

        let p = FaultPlan::quiescent(0).with_equivocation(1, 1, vec![0, 2]);
        assert!(!p.is_quiescent());
        assert!(p.validate().is_ok());

        // Orderer partitions map replica indices into the reserved
        // consensus endpoint range, away from peer ids.
        let p = FaultPlan::quiescent(0).with_orderer_partition(vec![0, 2], 0, 4);
        assert!(p.validate().is_ok());
        let ids = &p.partitions[0].peers;
        assert!(ids.iter().all(|id| *id >= u64::from(LinkId::CONSENSUS_BASE)));
    }

    #[test]
    fn partition_window_covers_expected_messages() {
        let p = Partition { peers: vec![3, 4], from_nth: 2, until_nth: 5 };
        assert!(!p.covers(3, 1));
        assert!(p.covers(3, 2));
        assert!(p.covers(4, 4));
        assert!(!p.covers(4, 5));
        assert!(!p.covers(9, 3), "peer outside the set");
    }
}
