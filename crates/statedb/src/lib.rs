//! # fabric-statedb
//!
//! The *current state* database of a Fabric peer: a key-value store mapping
//! each key to a pair of value and version number, where the version is the
//! `(block, tx)` coordinate of the writing transaction (paper §2.1, §5.2.1).
//!
//! Two engines implement the common [`StateStore`] trait:
//!
//! * [`MemStateDb`] — a sharded in-memory store. This is the engine the
//!   benchmarks use: the paper shows Fabric's throughput is not storage
//!   bound, and an in-memory store keeps the measurement focused on the
//!   pipeline.
//! * [`LsmStateDb`] — a from-scratch log-structured merge engine
//!   (WAL → memtable → sorted-run files with bloom filters and sparse
//!   indexes, plus compaction). It stands in for the LevelDB instance the
//!   paper's deployment uses, demonstrating the identical pipeline on
//!   persistent storage and surviving crash/reopen.
//!
//! The trait's contract encodes the commit protocol both the vanilla and the
//! Fabric++ pipeline rely on: [`StateStore::apply_block`] installs all writes
//! of a block and only *then* publishes the new
//! [`StateStore::last_committed_block`], so a simulation snapshot taken at
//! block `n` can detect any value committed after it by checking
//! `version.block > n` — the Fabric++ early-abort test (paper Figure 6).
//!
//! Both engines are **multi-version**: a simulation that pins a
//! [`StateSnapshot`] reads a consistent point-in-time view at that height
//! ([`StateStore::get_at`], [`StateStore::multi_get_at_into`],
//! [`StateStore::scan_range_at`]) without ever taking the commit ticket —
//! the lockless-endorsement design of Meir et al. ("Lockless Transaction
//! Isolation in Hyperledger Fabric"). Pins decide what stays: an epoch GC
//! driven by the commit watermark and the [`PinRegistry`] of live pins
//! trims each key's chain to the facts a pin can still read, so an
//! unpinned key holds two facts — its newest and the one at the floor —
//! in the in-memory map, the LSM memtable and each LSM run alike.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
pub mod lsm;
pub mod memdb;
pub mod pin;
pub mod snapshot;
pub mod store;

pub use lsm::engine::{LsmConfig, LsmStateDb};
pub use lsm::wal::{WalFaultPolicy, WalIoFault};
pub use memdb::MemStateDb;
pub use pin::{PinRegistry, StateSnapshot};
pub use snapshot::{SnapshotRead, SnapshotView, StaleInfo};
pub use store::{
    CommitWrite, SnapshotGet, StateStore, VersionedValue, WriteBatch, WriteRef,
};
