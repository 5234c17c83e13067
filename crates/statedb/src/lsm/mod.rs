//! A from-scratch log-structured merge engine, standing in for the LevelDB
//! instance the paper's deployment uses as the current-state database
//! (paper §6.1: "Fabric is set up to use LevelDB as the current state
//! database").
//!
//! Architecture (write path left to right):
//!
//! ```text
//!  apply_block ──► WAL (crc-framed, fsync) ──► memtable: the shared
//!                                              version-chain map
//!                                                   │ full
//!                                                   ▼
//!                                       SSTable (sorted run of trimmed
//!                                        chains, sparse index + bloom)
//!                                                   │ too many runs
//!                                                   ▼
//!                                     full merge compaction (the trim)
//! ```
//!
//! * [`record`] — the shared on-disk entry encoding (key, tombstone tag,
//!   value, version) used by both the WAL and the SSTables. The version is
//!   first-class on disk: the state database must return `(value, version)`
//!   pairs for the MVCC checks, so the engine persists them.
//! * [`bloom`] — per-table bloom filters to skip runs on point reads.
//! * [`wal`] — the write-ahead log; one crc-framed record per block commit,
//!   torn tails tolerated on recovery.
//! * [`sstable`] — immutable sorted-run files of version chains with a
//!   sparse index.
//! * [`engine`] — [`engine::LsmStateDb`]: ties it together around the
//!   memtable — the version-chain map `MemStateDb` is made of — implements
//!   [`crate::StateStore`], recovers from crashes on reopen.

pub mod bloom;
pub mod engine;
pub mod record;
pub mod sstable;
pub mod wal;
