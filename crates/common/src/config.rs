//! Pipeline configuration shared between the ordering service and the peers.
//!
//! The defaults reproduce the paper's system parameters (Table 5):
//! at most 1024 transactions per block, at most 2 MB per block, at most one
//! second to form a block, and — the Fabric++ addition, §5.1.2 condition
//! (d) — at most 16384 unique keys accessed per block.

use std::time::Duration;

use crate::error::{Error, Result};

/// When the ordering service "cuts" a batch into a block (paper §5.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockCuttingConfig {
    /// Condition (a): the batch contains this many transactions (the paper's
    /// `BS` knob, default 1024 per Table 5).
    pub max_tx_count: usize,
    /// Condition (b): the batch reached this size in bytes (default 2 MB).
    pub max_block_bytes: usize,
    /// Condition (c): this much time passed since the first transaction of
    /// the batch arrived (default 1 s).
    pub max_batch_wait: Duration,
    /// Condition (d), Fabric++ only: the batch accesses this many unique
    /// keys (default 16384). `None` disables the condition (vanilla Fabric).
    pub max_unique_keys: Option<usize>,
}

impl Default for BlockCuttingConfig {
    fn default() -> Self {
        BlockCuttingConfig {
            max_tx_count: 1024,
            max_block_bytes: 2 * 1024 * 1024,
            max_batch_wait: Duration::from_secs(1),
            max_unique_keys: Some(16384),
        }
    }
}

impl BlockCuttingConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.max_tx_count == 0 {
            return Err(Error::Config("max_tx_count must be at least 1".into()));
        }
        if self.max_block_bytes == 0 {
            return Err(Error::Config("max_block_bytes must be at least 1".into()));
        }
        if self.max_unique_keys == Some(0) {
            return Err(Error::Config("max_unique_keys, when set, must be at least 1".into()));
        }
        Ok(())
    }
}

/// How the ordering service arranges transactions inside a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingPolicy {
    /// Vanilla Fabric: transactions stay in arrival order; the orderer never
    /// inspects read/write sets (paper §2.2.2).
    Arrival,
    /// Fabric++: conflict-graph reordering per Algorithm 1; transactions on
    /// unbreakable conflict cycles are aborted at order time (paper §5.1).
    Reorder,
}

/// Concurrency control protecting the peer's current state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConcurrencyMode {
    /// Vanilla Fabric: a coarse read/write lock over the whole state;
    /// simulation holds read locks, block validation takes the write lock,
    /// so the two phases serialize (paper §4.2.1).
    CoarseLock,
    /// Fabric++: lock-free fine-grained control; simulation runs in parallel
    /// with validation and checks each read's version block-id against the
    /// snapshot's last block (paper §5.2.1, Figure 6).
    FineGrained,
}

/// Cost model for the cryptographic work that dominates Fabric's
/// performance profile (paper §3 point (d) and the Figure 1 observation
/// that blank and meaningful transactions achieve the same throughput).
///
/// Real Fabric signs with ECDSA (hundreds of microseconds per operation);
/// one of our HMAC-SHA256 signatures over a ~500-byte payload costs
/// ≈0.5 µs (≈0.2 µs per further iteration) with SHA-NI, so endorsers and
/// validators run the MAC `sign_iterations` / `verify_iterations` times to
/// restore the CPU-cost *shape*. Setting both to 1 measures the raw
/// pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// HMAC iterations per endorsement signature.
    pub sign_iterations: u32,
    /// HMAC iterations per signature verification.
    pub verify_iterations: u32,
    /// Simulated chaincode execution time per invocation (real Fabric runs
    /// chaincode in a Docker container; execution takes on the order of a
    /// millisecond). This window is also what gives the Fabric++
    /// simulation-phase early abort something to abort: a commit can land
    /// *during* the simulation.
    pub chaincode_delay: std::time::Duration,
}

impl Default for CostModel {
    fn default() -> Self {
        // ≈100–200 µs per signature op on commodity hardware: the ECDSA
        // ballpark of the paper's Xeon E5-2407 testbed. 512 iterations take
        // ≈100 µs on the SHA-NI compressor (`benches/crypto.rs`,
        // `sign_iterated/512`); CPUs without SHA-NI run the portable one,
        // six to nine times slower.
        CostModel {
            sign_iterations: 512,
            verify_iterations: 512,
            chaincode_delay: std::time::Duration::from_millis(1),
        }
    }
}

impl CostModel {
    /// No amplification: every crypto operation runs exactly once and
    /// chaincode executes instantly.
    pub fn raw() -> Self {
        CostModel {
            sign_iterations: 1,
            verify_iterations: 1,
            chaincode_delay: std::time::Duration::ZERO,
        }
    }
}

/// Full pipeline configuration: which Fabric++ optimizations are active.
///
/// The four corners of this space are exactly the four bars of the paper's
/// Figure 10 breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Block ordering policy (arrival vs. reordered).
    pub ordering: OrderingPolicy,
    /// Concurrency mode of the peers' state (coarse vs. fine-grained).
    pub concurrency: ConcurrencyMode,
    /// Fabric++ early abort in the *simulation* phase: abort a simulation
    /// the moment a read observes a version newer than its snapshot.
    /// Requires [`ConcurrencyMode::FineGrained`].
    pub early_abort_simulation: bool,
    /// Fabric++ early abort in the *ordering* phase: drop a transaction
    /// whose read version for some key mismatches another transaction's
    /// read of the same key within the block (paper §5.2.2).
    pub early_abort_ordering: bool,
    /// Batch cutting thresholds.
    pub cutting: BlockCuttingConfig,
    /// Safety bound on Johnson cycle enumeration in the reorderer; beyond
    /// this many cycles the reorderer falls back to its feedback-vertex-set
    /// cycle breaker (see `fabric-reorder`).
    pub max_cycles: usize,
    /// Strongly connected components larger than this skip Johnson cycle
    /// enumeration and go straight to the feedback-vertex-set fallback: a
    /// dense component of this size holds far more elementary cycles than
    /// any budget, so enumerating first only burns orderer time.
    pub max_scc_for_enumeration: usize,
    /// Worker threads in the peers' endorsement-signature validation pool
    /// (Fabric's VSCC — pure CPU work over immutable bytes, so it
    /// parallelizes freely). Defaults to the host's available parallelism.
    /// A non-semantic knob: validation outcomes are identical at any
    /// setting, and the deterministic harnesses honour it (ChaosNet sizes
    /// its shared pool from it; the conformance harness varies it and
    /// asserts byte-identical runs). With `1` the pool checks inline on
    /// the calling thread.
    pub validation_workers: usize,
    /// Worker threads in the ordering service's reorder stage: the cutter
    /// keeps cutting batch `k+1` while these workers run Algorithm 1 on
    /// batch `k`; block numbering and hash chaining happen at a sequential
    /// emission step, so the block stream is byte-identical to the
    /// sequential path. Defaults to the host's available parallelism. A
    /// non-semantic knob: ChaosNet drives its single-orderer path through
    /// a pipeline sized from it (with `1`, preparing inline on the calling
    /// thread), and schedule digests are unchanged at any setting — the
    /// conformance harness asserts this byte-for-byte.
    pub reorder_workers: usize,
}

/// The host's available parallelism (1 if it cannot be determined) — the
/// default for [`PipelineConfig::validation_workers`].
pub fn default_validation_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The host's available parallelism (1 if it cannot be determined) — the
/// default for [`PipelineConfig::reorder_workers`].
pub fn default_reorder_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Default bound on SCC size for Johnson cycle enumeration — the default
/// for [`PipelineConfig::max_scc_for_enumeration`].
pub const DEFAULT_MAX_SCC_FOR_ENUMERATION: usize = 128;

impl PipelineConfig {
    /// Vanilla Fabric v1.2: arrival order, coarse lock, no early abort,
    /// no unique-key cutting condition.
    pub fn vanilla() -> Self {
        PipelineConfig {
            ordering: OrderingPolicy::Arrival,
            concurrency: ConcurrencyMode::CoarseLock,
            early_abort_simulation: false,
            early_abort_ordering: false,
            cutting: BlockCuttingConfig { max_unique_keys: None, ..Default::default() },
            max_cycles: 4096,
            max_scc_for_enumeration: DEFAULT_MAX_SCC_FOR_ENUMERATION,
            validation_workers: default_validation_workers(),
            reorder_workers: default_reorder_workers(),
        }
    }

    /// Full Fabric++: reordering plus both early-abort mechanisms.
    pub fn fabric_pp() -> Self {
        PipelineConfig {
            ordering: OrderingPolicy::Reorder,
            concurrency: ConcurrencyMode::FineGrained,
            early_abort_simulation: true,
            early_abort_ordering: true,
            cutting: BlockCuttingConfig::default(),
            max_cycles: 4096,
            max_scc_for_enumeration: DEFAULT_MAX_SCC_FOR_ENUMERATION,
            validation_workers: default_validation_workers(),
            reorder_workers: default_reorder_workers(),
        }
    }

    /// Figure 10 middle bar: reordering only (no early abort anywhere else).
    pub fn reordering_only() -> Self {
        PipelineConfig {
            ordering: OrderingPolicy::Reorder,
            concurrency: ConcurrencyMode::CoarseLock,
            early_abort_simulation: false,
            early_abort_ordering: false,
            cutting: BlockCuttingConfig::default(),
            max_cycles: 4096,
            max_scc_for_enumeration: DEFAULT_MAX_SCC_FOR_ENUMERATION,
            validation_workers: default_validation_workers(),
            reorder_workers: default_reorder_workers(),
        }
    }

    /// Figure 10 middle bar: early abort only (arrival order preserved).
    pub fn early_abort_only() -> Self {
        PipelineConfig {
            ordering: OrderingPolicy::Arrival,
            concurrency: ConcurrencyMode::FineGrained,
            early_abort_simulation: true,
            early_abort_ordering: true,
            cutting: BlockCuttingConfig::default(),
            max_cycles: 4096,
            max_scc_for_enumeration: DEFAULT_MAX_SCC_FOR_ENUMERATION,
            validation_workers: default_validation_workers(),
            reorder_workers: default_reorder_workers(),
        }
    }

    /// Sets the block size (paper's `BS` knob) and returns `self`.
    pub fn with_block_size(mut self, bs: usize) -> Self {
        self.cutting.max_tx_count = bs;
        self
    }

    /// Sets the validation-pool worker count and returns `self`.
    pub fn with_validation_workers(mut self, workers: usize) -> Self {
        self.validation_workers = workers;
        self
    }

    /// Sets the reorder-stage worker count and returns `self`.
    pub fn with_reorder_workers(mut self, workers: usize) -> Self {
        self.reorder_workers = workers;
        self
    }

    /// Sets the SCC-size bound for cycle enumeration and returns `self`.
    pub fn with_max_scc_for_enumeration(mut self, bound: usize) -> Self {
        self.max_scc_for_enumeration = bound;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        self.cutting.validate()?;
        if self.validation_workers == 0 {
            return Err(Error::Config("validation_workers must be at least 1".into()));
        }
        if self.early_abort_simulation && self.concurrency == ConcurrencyMode::CoarseLock {
            return Err(Error::Config(
                "early_abort_simulation requires ConcurrencyMode::FineGrained: \
                 under the coarse lock, simulation cannot observe concurrent commits"
                    .into(),
            ));
        }
        if self.max_cycles == 0 {
            return Err(Error::Config("max_cycles must be at least 1".into()));
        }
        if self.max_scc_for_enumeration == 0 {
            return Err(Error::Config("max_scc_for_enumeration must be at least 1".into()));
        }
        if self.reorder_workers == 0 {
            return Err(Error::Config("reorder_workers must be at least 1".into()));
        }
        Ok(())
    }

    /// Human-readable mode label used in benchmark output.
    pub fn mode_label(&self) -> &'static str {
        match (self.ordering, self.early_abort_simulation || self.early_abort_ordering) {
            (OrderingPolicy::Arrival, false) => "fabric",
            (OrderingPolicy::Arrival, true) => "fabric++(early-abort)",
            (OrderingPolicy::Reorder, false) => "fabric++(reordering)",
            (OrderingPolicy::Reorder, true) => "fabric++",
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self::fabric_pp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table_5() {
        let c = BlockCuttingConfig::default();
        assert_eq!(c.max_tx_count, 1024);
        assert_eq!(c.max_block_bytes, 2 * 1024 * 1024);
        assert_eq!(c.max_batch_wait, Duration::from_secs(1));
        assert_eq!(c.max_unique_keys, Some(16384));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn vanilla_has_no_fabricpp_features() {
        let v = PipelineConfig::vanilla();
        assert_eq!(v.ordering, OrderingPolicy::Arrival);
        assert_eq!(v.concurrency, ConcurrencyMode::CoarseLock);
        assert!(!v.early_abort_simulation);
        assert!(!v.early_abort_ordering);
        assert_eq!(v.cutting.max_unique_keys, None);
        assert!(v.validate().is_ok());
        assert_eq!(v.mode_label(), "fabric");
    }

    #[test]
    fn fabric_pp_has_all_features() {
        let f = PipelineConfig::fabric_pp();
        assert_eq!(f.ordering, OrderingPolicy::Reorder);
        assert_eq!(f.concurrency, ConcurrencyMode::FineGrained);
        assert!(f.early_abort_simulation && f.early_abort_ordering);
        assert!(f.validate().is_ok());
        assert_eq!(f.mode_label(), "fabric++");
    }

    #[test]
    fn breakdown_modes_are_distinct() {
        let labels = [
            PipelineConfig::vanilla().mode_label(),
            PipelineConfig::reordering_only().mode_label(),
            PipelineConfig::early_abort_only().mode_label(),
            PipelineConfig::fabric_pp().mode_label(),
        ];
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 4);
        assert!(PipelineConfig::reordering_only().validate().is_ok());
        assert!(PipelineConfig::early_abort_only().validate().is_ok());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = PipelineConfig::vanilla();
        c.cutting.max_tx_count = 0;
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::vanilla();
        c.early_abort_simulation = true; // but coarse lock
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::fabric_pp();
        c.max_cycles = 0;
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::fabric_pp();
        c.cutting.max_unique_keys = Some(0);
        assert!(c.validate().is_err());

        let mut c = PipelineConfig::fabric_pp();
        c.cutting.max_block_bytes = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn with_block_size_sets_bs() {
        let c = PipelineConfig::fabric_pp().with_block_size(512);
        assert_eq!(c.cutting.max_tx_count, 512);
    }

    #[test]
    fn reorder_workers_default_and_knob() {
        let c = PipelineConfig::fabric_pp();
        assert_eq!(c.reorder_workers, default_reorder_workers());
        assert!(c.reorder_workers >= 1);
        assert_eq!(c.max_scc_for_enumeration, DEFAULT_MAX_SCC_FOR_ENUMERATION);
        let c = c.with_reorder_workers(4).with_max_scc_for_enumeration(64);
        assert_eq!(c.reorder_workers, 4);
        assert_eq!(c.max_scc_for_enumeration, 64);
        assert!(c.validate().is_ok());
        let zero = PipelineConfig::vanilla().with_reorder_workers(0);
        assert!(zero.validate().is_err());
        let zero = PipelineConfig::vanilla().with_max_scc_for_enumeration(0);
        assert!(zero.validate().is_err());
    }

    #[test]
    fn validation_workers_default_and_knob() {
        let c = PipelineConfig::fabric_pp();
        assert_eq!(c.validation_workers, default_validation_workers());
        assert!(c.validation_workers >= 1);
        let c = c.with_validation_workers(4);
        assert_eq!(c.validation_workers, 4);
        assert!(c.validate().is_ok());
        let zero = PipelineConfig::vanilla().with_validation_workers(0);
        assert!(zero.validate().is_err());
    }
}
