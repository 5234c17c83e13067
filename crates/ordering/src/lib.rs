//! # fabric-ordering
//!
//! The ordering service: the trusted component that receives endorsed
//! transactions from clients, groups them into blocks, and distributes the
//! blocks to all peers (paper §2.2.2).
//!
//! * [`cutter`] — batch cutting. Vanilla Fabric cuts on (a) transaction
//!   count, (b) byte size, (c) elapsed time; Fabric++ adds (d) unique keys
//!   accessed, bounding the reordering cost (paper §5.1.2).
//! * [`early_abort`] — the Fabric++ ordering-phase early abort: two
//!   transactions in one block that read the same key at *different*
//!   versions cannot both commit; the one holding the older version is
//!   dropped before the block ships (paper §5.2.2 with the published
//!   correction).
//! * [`orderer`] — the [`orderer::OrderingService`], the orderer step both
//!   drivers run: it cuts, applies the configured policy (arrival order vs.
//!   reordering), performs the order-phase early aborts, emits hash-chained
//!   [`fabric_ledger::Block`]s and keeps each cut's books. Each cut batch
//!   is prepared ([`orderer::BatchPrep`]) and sealed on the thread that cut
//!   it: the unique-keys cut keeps the reorder step to a few milliseconds
//!   per block, far below the time between cuts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cutter;
pub mod early_abort;
pub mod orderer;
pub mod stats;

pub use cutter::{BatchCutter, CutReason};
pub use early_abort::EarlyAbortScratch;
pub use orderer::{BatchPlan, BatchPrep, OrderedBlock, OrderingService};
pub use stats::{OrdererStats, OrdererStatsSnapshot};
