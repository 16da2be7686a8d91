//! The simulated cluster communication fabric.
//!
//! The paper runs HUGE on a shared-nothing cluster (10–16 machines, 10 Gbps
//! Ethernet). This reproduction simulates that cluster inside one process:
//! every "machine" is a thread-hosted runtime holding its own graph
//! partition, and all cross-machine traffic goes through this crate, which
//!
//! * moves pushed batches between machines over channels ([`router`]) —
//!   through an unreliable [`link`] when a test injects transport faults,
//! * answers `GetNbrs` pulls against the owning partition ([`rpc`]),
//! * counts every byte and message per machine ([`stats`]), and
//! * converts the counted traffic into *modelled* communication time via a
//!   configurable bandwidth/latency model ([`NetworkModel`]), which is how
//!   the experiment harness reports the paper's `T_C` and `C` columns.
//!
//! The simulation preserves the behaviour that matters for the paper's
//! claims: pulling ships adjacency lists (bounded by the graph size and cut
//! by the cache) while pushing ships intermediate results (bounded by the
//! join sizes); local reads are free, remote reads are accounted.
//!
//! It also provides the [`kv`] module — an in-process stand-in for the
//! external key-value store (Cassandra) that BENU depends on, with a
//! configurable per-request overhead so that the "external store becomes the
//! bottleneck" effect is reproducible.

pub mod batch;
pub mod kv;
pub mod link;
pub mod network;
pub mod router;
pub mod rpc;
pub mod stats;

pub use batch::{ColBatch, RowBatch, Runs};
pub use kv::ExternalKvStore;
pub use link::{LinkFault, LinkFaultKind, TransportConfig};
pub use network::NetworkModel;
pub use router::{
    ControlEnvelope, ControlMsg, PushEnvelope, QueueAccounting, Router, RouterEndpoint,
};
pub use rpc::RpcFabric;
pub use stats::{ClusterStats, CommStats};

/// Identifier of a machine in the simulated cluster (re-exported from the
/// partitioning layer so every crate agrees on the type).
pub type MachineId = huge_graph::partition::MachineId;
