//! fabric-chaos: deterministic fault injection for the Fabric++ stack.
//!
//! Everything here is seed-driven: a [`plan::FaultPlan`] plus a seed fully
//! determine the fault schedule, so any failing run replays exactly from
//! its seed. The subsystem has four parts:
//!
//! * [`rng`] — the dedicated chaos RNG (xorshift64*), kept separate from
//!   workload RNGs so fault decisions never perturb workload streams;
//! * [`plan`] / [`injector`] — declarative fault plans compiled into a
//!   [`injector::FaultInjector`] that decides a [`SendFault`] verdict per
//!   block delivery on a [`LinkId`] (network faults) and is the
//!   `fabric_statedb::WalFaultPolicy` (WAL IO faults), recording every
//!   decision in an event log whose digest is the determinism contract;
//! * [`invariants`] — post-run checks: state convergence across live
//!   peers, ledger hash-chain verification, and no-committed-tx-loss
//!   across crash/restart;
//! * [`harness`] — [`harness::ChaosNet`], the repository's one
//!   deterministic single-threaded pipeline driver: a network of peers
//!   whose ledgers are optionally durable block files
//!   ([`harness::ChaosOptions::block_dir`]), driven block-by-block under a
//!   fault plan, with crash/restart orchestration — a reopened block file
//!   or the crashed peer's own ledger, state replayed by
//!   `fabric_peer::recovery` — and archive catch-up. Under
//!   [`plan::FaultPlan::quiescent`] it is the scripted-scenario harness
//!   the paper's worked examples run on. Its one ordering service orders
//!   each cut batch through `fabricpp::channel::order_cut`, the function
//!   the threaded runtime's orderer thread calls.
//!
//! `ChaosNet` is the repository's only fault and crash driver. The
//! threaded runtime ([`fabricpp::NetworkBuilder`]) is fault-free by
//! construction: its FIFO links never lose, repeat or reorder a block, and
//! its peers never crash.

pub mod harness;
pub mod injector;
pub mod invariants;
pub mod plan;
pub mod rng;

pub use harness::{ChaosNet, ChaosOptions, ProposeOutcome};
pub use injector::{FaultEvent, FaultInjector, LinkId, SendFault};
pub use invariants::{check_invariants, state_digest, InvariantReport};
pub use plan::{CrashPoint, FaultPlan, Partition, WalFault};
pub use rng::ChaosRng;
