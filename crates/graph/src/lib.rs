//! Graph substrate for the HUGE subgraph-enumeration system.
//!
//! This crate provides everything the engine needs from the *data graph*
//! side of the problem:
//!
//! * [`Graph`] — an immutable, in-memory graph stored in compressed sparse
//!   row (CSR) form with sorted adjacency lists (required for the merge-based
//!   intersections used by the worst-case-optimal join operator).
//! * [`GraphBuilder`] and [`io`] — construction from edge lists, text files
//!   and programmatic insertion.
//! * [`partition`] — hash partitioning of a graph over `k` machines, as the
//!   paper does ("we randomly partition a data graph G in a distributed
//!   context", §2).
//! * [`gen`] — synthetic graph generators (Erdős–Rényi, Barabási–Albert,
//!   RMAT, grid) used as laptop-scale stand-ins for the paper's datasets.
//! * [`datasets`] — named dataset descriptors mirroring Table 3 of the paper
//!   (`GO-S`, `LJ-S`, …) at configurable scale.
//! * [`hash`] — the folded-multiply hasher for vertex-id keys.
//! * [`stats`] — degree statistics (average/max degree, triangles)
//!   used by the optimiser's cost model.

pub mod builder;
pub mod datasets;
pub mod gen;
pub mod graph;
pub mod hash;
pub mod io;
pub mod kernels;
pub mod partition;
pub mod stats;

pub use builder::GraphBuilder;
pub use datasets::{Dataset, DatasetKind};
pub use graph::{Graph, Interval, VertexId};
pub use hash::{IdBuildHasher, IdHasher, VertexMap};
pub use kernels::{HubBitmap, HubIndex, KernelKind, KernelTally};
pub use partition::{machine_of, mix, GraphPartition, PartitionMap, Partitioner};
pub use stats::GraphStats;

/// Errors produced while building, loading or partitioning graphs.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id outside the declared vertex range.
    VertexOutOfRange { vertex: u64, max: u64 },
    /// A self-loop was encountered and self-loops are not allowed.
    SelfLoop { vertex: u64 },
    /// The input file could not be read or parsed.
    Io(std::io::Error),
    /// A text line could not be parsed as an edge.
    Parse { line: usize, content: String },
    /// The requested partition count is invalid (zero).
    InvalidPartitionCount,
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, max } => {
                write!(f, "vertex {vertex} out of range (max {max})")
            }
            GraphError::SelfLoop { vertex } => write!(f, "self loop on vertex {vertex}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Parse { line, content } => {
                write!(f, "parse error at line {line}: {content:?}")
            }
            GraphError::InvalidPartitionCount => write!(f, "partition count must be non-zero"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
