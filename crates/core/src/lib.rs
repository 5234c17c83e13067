//! # fabricpp
//!
//! The end-to-end system: Hyperledger Fabric v1.2's
//! simulate–order–validate–commit pipeline as a multi-threaded simulation,
//! plus the Fabric++ optimizations of Sharma et al. (SIGMOD'19) —
//! transaction reordering and early abort — switchable per
//! [`fabric_common::PipelineConfig`].
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use fabricpp::{NetworkBuilder, chaincode_fn};
//! use fabric_common::{Key, PipelineConfig, Value};
//!
//! // A chaincode: move 10 units from the key in args to "sink".
//! let transfer = chaincode_fn("transfer", |ctx, args| {
//!     let from = Key::new(args.to_vec());
//!     let bal = ctx.get_i64(&from).map_err(|e| e.to_string())?.unwrap_or(0);
//!     ctx.put_i64(from, bal - 10);
//!     let sink = ctx.get_i64(&Key::from("sink")).map_err(|e| e.to_string())?.unwrap_or(0);
//!     ctx.put_i64(Key::from("sink"), sink + 10);
//!     Ok(())
//! });
//!
//! let mut net = NetworkBuilder::new()
//!     .orgs(2)
//!     .peers_per_org(2)
//!     .pipeline(PipelineConfig::fabric_pp())
//!     .deploy(transfer)
//!     .genesis((0..4).map(|i| (Key::composite("acct", i), Value::from_i64(100))))
//!     .genesis([(Key::from("sink"), Value::from_i64(0))])
//!     .build()
//!     .unwrap();
//!
//! let client = net.client(0);
//! client.submit("transfer", b"acct:1".to_vec());
//! drop(client); // all clients must be gone before finish()
//! let report = net.finish();
//! assert_eq!(report.stats.submitted, 1);
//! ```
//!
//! ## Modules
//!
//! * [`client`] — the client side of the protocol: proposal →
//!   endorsement collection → read/write-set comparison → submission;
//!   [`client::propose`] is the one proposal step.
//! * [`channel`] — one channel: its assembly ([`channel::PeerContext`],
//!   [`channel::assemble`]) and the threaded runtime — an orderer thread
//!   plus one validation thread per peer, wired over the simulated network.
//! * [`network`] — [`NetworkBuilder`] / [`FabricNetwork`]: organizations,
//!   peers, channels, chaincode deployment, genesis state, reporting.
//!
//! The single-threaded, fully deterministic pipeline — used to script
//! exact scenarios such as the paper's Appendix A running example — is
//! `fabric_chaos::ChaosNet` under a quiescent fault plan: a second
//! scheduler over the same assembly, proposal, orderer and commit steps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod client;
pub mod network;

pub use client::{ClientHandle, SubmitOutcome};
pub use network::{FabricNetwork, NetworkBuilder, RunReport, StateEngine};

use std::sync::Arc;

use fabric_peer::chaincode::{Chaincode, TxContext};

/// Wraps a closure as a named [`Chaincode`] (the ergonomic way to define
/// contracts in examples and tests).
pub fn chaincode_fn<F>(name: &str, f: F) -> Arc<dyn Chaincode>
where
    F: Fn(&mut TxContext, &[u8]) -> Result<(), String> + Send + Sync + 'static,
{
    struct FnChaincode<F> {
        name: String,
        f: F,
    }
    impl<F> Chaincode for FnChaincode<F>
    where
        F: Fn(&mut TxContext, &[u8]) -> Result<(), String> + Send + Sync + 'static,
    {
        fn invoke(&self, ctx: &mut TxContext, args: &[u8]) -> Result<(), String> {
            (self.f)(ctx, args)
        }
        fn name(&self) -> &str {
            &self.name
        }
    }
    Arc::new(FnChaincode { name: name.to_owned(), f })
}

/// Like [`chaincode_fn`], but with a *declared read set*: `reads` names
/// the keys the invocation will read, computed from the arguments alone,
/// so the endorser can resolve the whole set in one engine round trip
/// before execution. Return `None` from `reads` when the set cannot be
/// determined for the given arguments.
pub fn chaincode_fn_with_reads<F, R>(name: &str, reads: R, f: F) -> Arc<dyn Chaincode>
where
    F: Fn(&mut TxContext, &[u8]) -> Result<(), String> + Send + Sync + 'static,
    R: Fn(&[u8]) -> Option<Vec<fabric_common::Key>> + Send + Sync + 'static,
{
    struct FnChaincodeWithReads<F, R> {
        name: String,
        f: F,
        reads: R,
    }
    impl<F, R> Chaincode for FnChaincodeWithReads<F, R>
    where
        F: Fn(&mut TxContext, &[u8]) -> Result<(), String> + Send + Sync + 'static,
        R: Fn(&[u8]) -> Option<Vec<fabric_common::Key>> + Send + Sync + 'static,
    {
        fn invoke(&self, ctx: &mut TxContext, args: &[u8]) -> Result<(), String> {
            (self.f)(ctx, args)
        }
        fn declared_reads(&self, args: &[u8]) -> Option<Vec<fabric_common::Key>> {
            (self.reads)(args)
        }
        fn name(&self) -> &str {
            &self.name
        }
    }
    Arc::new(FnChaincodeWithReads { name: name.to_owned(), f, reads })
}
