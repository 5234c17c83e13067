//! fabric-conformance: the multi-replica determinism conformance harness.
//!
//! The determinism invariant behind the whole stack — identical inputs
//! yield identical ledgers — is easy to state and easy to lose: one
//! hash-map iteration leaking into block assembly, one wall-clock value
//! serialized into replicated bytes, one worker-count-dependent merge,
//! and two replicas that "agree" on every invariant check still diverge
//! byte-for-byte. This crate turns the invariant into a harness:
//!
//! 1. [`fixtures`] defines seeded workloads (small, medium, an
//!    adversarial conflict-heavy one, and a chaos-faulted one) driven
//!    with *explicit* transaction ids, so independent runs produce
//!    byte-comparable blocks;
//! 2. [`replica`] runs one full pipeline (a [`fabric_chaos::ChaosNet`])
//!    per [`replica::ReplicaSpec`], varying only non-semantic knobs —
//!    validation workers, reorder workers, trace sink on/off, storage
//!    engine, consensus replication — and collects the replicated
//!    [`artifacts`]: serialized block stream, state digest, chain
//!    fingerprint, fault-schedule digest, and outcome counters;
//! 3. [`runner`] compares every replica against the baseline and, on
//!    mismatch, [`divergence`] localizes the first diverging artifact,
//!    block, and byte offset, with 16-byte hex context windows and a
//!    root-cause hint (length mismatch, hash-map iteration order,
//!    worker-count-dependent ordering, timestamp leakage);
//! 4. [`corrupt`] injects *known* nondeterminism bugs into collected
//!    artifacts so the harness can prove, in CI, that it would catch
//!    each class with the right localization and hint;
//! 5. [`oracle`] replays every replica's committed blocks against a
//!    single-version state model: byte-identical replicas could still
//!    agree on a wrong history, so each one must also be
//!    conflict-serializable in block order with every MVCC abort
//!    justified.

pub mod artifacts;
pub mod corrupt;
pub mod divergence;
pub mod fixtures;
pub mod oracle;
pub mod replica;
pub mod runner;

pub use artifacts::{
    Artifact, ReplicaArtifacts, BLOCK_STREAM, CHAIN_FINGERPRINT, SCHEDULE_DIGEST, STATE_DIGEST,
    TX_STATS,
};
pub use corrupt::Corruption;
pub use divergence::{compare_artifacts, Divergence, RootCauseHint};
pub use fixtures::{Fixture, PlanKind};
pub use oracle::OracleViolation;
pub use replica::{run_replica, EngineKind, ReplicaSpec};
pub use runner::{corruption_is_caught, run_all, run_fixture, FixtureReport};
