//! Root package of the Fabric++ reproduction workspace.
//!
//! Re-exports every workspace crate so the repository-level `examples/` and
//! `tests/` can exercise the full stack through a single dependency.

pub use fabric_chaos as chaos;
pub use fabric_common as common;
pub use fabric_ledger as ledger;
pub use fabric_net as net;
pub use fabric_ordering as ordering;
pub use fabric_peer as peer;
pub use fabric_reorder as reorder;
pub use fabric_statedb as statedb;
pub use fabric_telemetry as telemetry;
pub use fabric_trace as trace;
pub use fabric_workloads as workloads;
pub use fabricpp as fabric;
