//! The replicated artifacts one conformance replica produces: everything
//! the determinism invariant promises will be byte-identical across
//! replicas that differ only in non-semantic knobs.

/// The reporting peer's full committed chain, genesis included: each
/// [`fabric_ledger::CommittedBlock`] in canonical storage encoding,
/// concatenated in chain order. Carries a block-offset index for
/// divergence localization.
pub const BLOCK_STREAM: &str = "block_stream";

/// SHA-256 over the reporting peer's final state, ascending-key
/// (engine-independent; see `fabric_statedb::StateStore::state_digest`).
pub const STATE_DIGEST: &str = "state_digest";

/// Chain height (`u64`) plus the tip block hash — the 40 bytes two
/// gossiping peers would exchange to decide whether they agree.
pub const CHAIN_FINGERPRINT: &str = "chain_fingerprint";

/// The fault injector's schedule digest: a hash of every fault decision
/// taken during the run, in order.
pub const SCHEDULE_DIGEST: &str = "schedule_digest";

/// The run's outcome counters (`fabric_common::TxStats::fields`), one
/// little-endian `u64` per field in declaration order.
pub const TX_STATS: &str = "tx_stats";

/// One named replicated artifact: a byte string plus, for the block
/// stream, an index of where each block's encoding starts.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Which artifact this is (one of the module's name constants).
    pub name: &'static str,
    /// The replicated bytes.
    pub bytes: Vec<u8>,
    /// `(block number, start offset)` per encoded block, in stream
    /// order; empty for artifacts that are not block streams.
    pub block_offsets: Vec<(u64, usize)>,
}

impl Artifact {
    /// An artifact with no internal block structure.
    pub fn flat(name: &'static str, bytes: Vec<u8>) -> Self {
        Artifact { name, bytes, block_offsets: Vec::new() }
    }

    /// The number of the block whose encoding contains byte `offset`,
    /// when this artifact carries a block index.
    pub fn block_of_offset(&self, offset: usize) -> Option<u64> {
        self.block_offsets
            .iter()
            .rev()
            .find(|(_, start)| *start <= offset)
            .map(|(num, _)| *num)
    }

    /// The start offset of block `num`'s encoding, when indexed.
    pub fn offset_of_block(&self, num: u64) -> Option<usize> {
        self.block_offsets.iter().find(|(n, _)| *n == num).map(|(_, s)| *s)
    }
}

/// Everything one conformance replica replicated, plus the knob settings
/// that produced it (the comparator uses those to tell a hash-map-order
/// bug from a worker-count-dependent one).
#[derive(Debug, Clone)]
pub struct ReplicaArtifacts {
    /// The replica's spec label (e.g. `baseline`, `vw4`, `lsm`).
    pub label: String,
    /// Validation-pool worker count the replica ran with.
    pub validation_workers: usize,
    /// The collected artifacts, in a fixed order.
    pub artifacts: Vec<Artifact>,
}

impl ReplicaArtifacts {
    /// Looks up an artifact by name.
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().find(|a| a.name == name)
    }

    /// Mutable lookup (corruption injection).
    pub fn artifact_mut(&mut self, name: &str) -> Option<&mut Artifact> {
        self.artifacts.iter_mut().find(|a| a.name == name)
    }

    /// Total replicated bytes across all artifacts.
    pub fn total_bytes(&self) -> usize {
        self.artifacts.iter().map(|a| a.bytes.len()).sum()
    }
}
