//! # fabric-ledger
//!
//! The blockchain itself: the hash-chained, append-only log of blocks that
//! every peer maintains. "Each peer appends the block, which contains both
//! valid and invalid transactions, to its local ledger" (paper §2.2.4) —
//! invalid transactions are recorded too, flagged per-transaction, exactly
//! as in Fabric.
//!
//! * [`block`] — block headers (number, previous-hash, data-hash), ordered
//!   blocks as emitted by the ordering service, and committed blocks
//!   carrying per-transaction validation flags.
//! * [`ledger`] — the peer's block file: linkage verification on append,
//!   the tip block and a per-block index in memory, every block in a file
//!   of crc-framed blocks read back on demand, and full-chain auditing.
//!   An anonymous ledger's file is an unlinked temp file; a ledger opened
//!   at a named path syncs every append and, reopened after a crash,
//!   re-checks every frame and truncates a torn tail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
mod frame;
pub mod ledger;

pub use block::{Block, BlockHeader, CommittedBlock};
pub use ledger::{HistoryEntry, Ledger};
