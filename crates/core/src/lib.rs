//! The HUGE compute engine: a pushing/pulling-hybrid, bounded-memory,
//! work-stealing subgraph enumeration runtime (§4–§5 of the paper).
//!
//! # Architecture
//!
//! A [`HugeCluster`] simulates a shared-nothing cluster of `k` machines
//! inside one process. Each machine is a thread-hosted
//! [`machine::MachineState`] owning
//!
//! * a hash partition of the data graph,
//! * a worker pool with intra-machine work stealing,
//! * an [LRBU cache](huge_cache::LrbuCache) for pulled adjacency lists,
//! * a router endpoint (pushing) and an RPC handle (pulling) from
//!   `huge-comm`, and
//! * a BFS/DFS-adaptive scheduler with bounded output queues whose
//!   *effective* capacities are governed at runtime by the per-run
//!   [`governor::MemoryGovernor`] when a
//!   [`ClusterConfig::memory_budget`](config::ClusterConfig) is set.
//!
//! A query is planned by `huge-plan` (Algorithm 1), translated into a
//! dataflow of `SCAN` / `PULL-EXTEND` / `PUSH-JOIN` / `SINK` operators
//! (Algorithm 2), and executed segment by segment: `PULL-EXTEND` chains run
//! under the adaptive scheduler with bounded queues (Algorithm 5), while
//! `PUSH-JOIN` shuffles its inputs through the router and joins them with a
//! Grace-style partitioned hash join that spills to disk beyond a
//! configurable buffer (§4.3).
//!
//! # Quick start
//!
//! ```
//! use huge_core::{ClusterConfig, HugeCluster, SinkMode};
//! use huge_graph::gen;
//! use huge_query::QueryGraph;
//!
//! let graph = gen::erdos_renyi(500, 2500, 42);
//! let cluster = HugeCluster::build(graph, ClusterConfig::new(2)).unwrap();
//! let report = cluster.run(&QueryGraph::triangle(), SinkMode::Count).unwrap();
//! assert!(report.matches > 0);
//! ```

pub mod cancel;
pub mod cluster;
pub mod config;
pub mod exec;
pub mod governor;
pub mod join;
pub mod machine;
pub mod memory;
pub mod operators;
pub mod pool;
pub mod report;
pub mod scheduler;

pub use cancel::{CancelCause, CancelToken};
pub use cluster::HugeCluster;
pub use config::{ClusterConfig, Fault, FaultSpec, LoadBalance, PanicPoint, SinkMode};
pub use exec::OpContext;
pub use governor::{MemoryGovernor, PressureLevel};
pub use huge_trace::{TraceConfig, TraceMode, TraceSegment, TraceSummary};
pub use report::{GovernorReport, JoinReport, MachineReport, RunOutcome, RunReport};

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// Planning failed.
    Plan(huge_plan::logical::PlanError),
    /// The graph could not be partitioned.
    Graph(huge_graph::GraphError),
    /// The configuration is invalid.
    Config(String),
    /// A worker thread panicked.
    WorkerPanic(String),
    /// A peer machine failed, aborting the run.
    Aborted(String),
    /// The run was cancelled through its [`CancelToken`]. The cluster-level
    /// error carries the partial-stats [`RunReport`]
    /// (`outcome == RunOutcome::Cancelled`); errors surfaced from inside a
    /// machine thread carry `None` — the cluster owns the stats.
    Cancelled(Option<Box<RunReport>>),
    /// The run outlived [`ClusterConfig::deadline`](config::ClusterConfig).
    /// Carries the partial-stats report at the cluster level, like
    /// [`EngineError::Cancelled`].
    DeadlineExceeded(Option<Box<RunReport>>),
    /// The unreliable transport exhausted its retransmit budget for an
    /// envelope (the injected loss rate exceeded what bounded retry can
    /// recover).
    Transport(String),
    /// Spilling to disk failed.
    Io(std::io::Error),
    /// One `PULL-EXTEND` input batch has, or expanded to, this many rows —
    /// more than the 32-bit row index of a batch can address. Lower
    /// [`ClusterConfig::batch_size`](config::ClusterConfig).
    BatchTooLarge(u64),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "planning error: {e}"),
            EngineError::Graph(e) => write!(f, "graph error: {e}"),
            EngineError::Config(msg) => write!(f, "configuration error: {msg}"),
            EngineError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            EngineError::Aborted(msg) => write!(f, "run aborted: {msg}"),
            EngineError::Cancelled(_) => write!(f, "run cancelled"),
            EngineError::DeadlineExceeded(_) => write!(f, "query deadline exceeded"),
            EngineError::Transport(msg) => write!(f, "transport failure: {msg}"),
            EngineError::Io(e) => write!(f, "io error: {e}"),
            EngineError::BatchTooLarge(rows) => write!(
                f,
                "an extend batch reached {rows} rows, past the 32-bit row index of a batch"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<huge_plan::logical::PlanError> for EngineError {
    fn from(e: huge_plan::logical::PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<huge_graph::GraphError> for EngineError {
    fn from(e: huge_graph::GraphError) -> Self {
        EngineError::Graph(e)
    }
}

impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Io(e)
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
