//! # fabric-peer
//!
//! Everything a Fabric peer does, for both the vanilla and the Fabric++
//! pipeline:
//!
//! * [`chaincode`] — the smart-contract abstraction: deterministic programs
//!   reading and writing the current state through a [`chaincode::TxContext`]
//!   that records the read/write sets (paper §2.2.1).
//! * [`endorser`] — the simulation phase: execute a proposal's chaincode
//!   against the local state, sign the resulting read/write set. In
//!   Fabric++ mode the simulation runs against a pinned snapshot with the
//!   lock-free stale-read check and aborts the moment a read is outdated
//!   (paper §5.2.1, Figure 6); in vanilla mode it holds the coarse state
//!   read-lock instead (paper §4.2.1).
//! * [`validator`] — the validation phase: endorsement-policy evaluation
//!   (signature recomputation) and the serializability conflict check
//!   against the current state plus earlier transactions in the same block
//!   (paper §2.2.3, Appendix A.3).
//! * [`committer`] — the commit phase: apply valid writes atomically, bump
//!   versions, append the block (valid and invalid transactions alike) to
//!   the ledger (paper §2.2.4).
//! * [`validation_pool`] — the parallel VSCC worker pool: chunks a block's
//!   endorsement-signature checks across persistent threads, bit-for-bit
//!   identical to the sequential path (and a sequential mode for the
//!   deterministic harnesses).
//! * [`peer`] — [`peer::Peer`] wires the pieces to one state database, one
//!   ledger, and one concurrency mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaincode;
pub mod committer;
pub mod endorser;
pub mod peer;
pub mod recovery;
pub mod validation_pool;
pub mod validator;

pub use chaincode::{Chaincode, ChaincodeRegistry, SimulationError, TxContext};
pub use endorser::{EndorsementResponse, Endorser};
pub use peer::{PendingBlock, Peer};
pub use validation_pool::{PendingChecks, ValidationPool};
pub use validator::{validate_block, EndorsementPolicy, PolicyExpr};
