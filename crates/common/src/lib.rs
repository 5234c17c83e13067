//! # fabric-common
//!
//! Shared substrate for the Fabric++ reproduction (Sharma et al., SIGMOD'19:
//! *Blurring the Lines between Blockchains and Database Systems*).
//!
//! This crate provides the vocabulary types and low-level machinery that every
//! other crate in the workspace builds on:
//!
//! * [`ids`] — identifiers for transactions, blocks, peers, organizations,
//!   channels, and clients, plus the Fabric-style [`ids::Version`]
//!   `(block, tx)` pair attached to every committed value.
//! * [`rwset`] — read and write sets captured during chaincode simulation,
//!   with a canonical byte encoding used for endorsement signatures.
//! * [`hash`] — a from-scratch FIPS 180-4 SHA-256 implementation (no external
//!   crypto dependencies): a portable compressor, and a SHA-NI one picked at
//!   run time on x86-64 CPUs that have it, tested against the portable one
//!   and the standard test vectors. It holds the crate's only `unsafe` code.
//! * [`crypto`] — HMAC-SHA256 based endorsement signatures and the signer
//!   registry standing in for Fabric's X.509 MSP (see DESIGN.md §5 for why
//!   this substitution preserves the behaviour the paper measures). A
//!   [`SigningKey`] keeps the hash states left after absorbing its ipad and
//!   opad blocks, so each signature starts from them.
//! * [`bitset`] — the dynamic bit-vectors used by the reordering mechanism's
//!   conflict detection (paper §5.1.1 step 1).
//! * [`codec`] — minimal length-prefixed binary encoding helpers.
//! * [`crc`] — the slicing-by-8 CRC-32 (IEEE) that frames WAL records,
//!   SSTable footers and ledger block frames.
//! * [`intern`] — dense `u32` key interning shared by the ordering-phase
//!   early abort and the reorderer's conflict-graph build.
//! * [`metrics`] — atomic throughput counters and a latency recorder that
//!   reproduces the min/max/avg latency rows of the paper's Table 8.
//! * [`gauges`] — shared subsystem gauge cells (cutter queue, validation
//!   pool) sampled per window by the telemetry layer.
//! * [`prom`] — label escaping and family headers shared by the two
//!   Prometheus exporters.
//! * [`config`] — block-cutting and pipeline configuration shared between the
//!   ordering service and the peers.
//! * [`error`] — the common error type.

// `deny`, not `forbid`: the SHA-NI compressor in `hash` (and its one call
// site) is the single place that allows `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod codec;
pub mod crc;
pub mod config;
pub mod crypto;
pub mod error;
pub mod gauges;
pub mod hash;
pub mod ids;
pub mod intern;
pub mod metrics;
pub mod prom;
pub mod rwset;
pub mod tx;

pub use bitset::BitSet;
pub use crc::crc32;
pub use config::{
    default_validation_workers, BlockCuttingConfig, ConcurrencyMode, CostModel,
    OrderingPolicy, PipelineConfig,
};
pub use crypto::{Signature, SignerRegistry, SigningKey};
pub use error::{Error, Result};
pub use hash::{sha256, Digest};
pub use ids::{BlockNum, ChannelId, ClientId, Key, OrgId, PeerId, TxId, TxNum, Value, Version};
pub use intern::KeyTable;
pub use gauges::{GaugeStats, SubsystemGauges};
pub use metrics::{
    LatencyBaseline, LatencyRecorder, LatencySummary, Phase, PhaseSummary, PhaseTimers,
    StoreCounters, StoreStats, TxCounters, TxStats, WindowLatency,
};
pub use rwset::{ReadSet, ReadWriteSet, WriteSet};
pub use tx::{Endorsement, Transaction, TransactionProposal, ValidationCode};
