//! Query-graph support for the HUGE subgraph-enumeration system.
//!
//! A *query graph* (also called a pattern) is the small graph whose
//! isomorphic embeddings in the data graph are to be enumerated. This crate
//! provides:
//!
//! * [`QueryGraph`] — a small, dense representation of query graphs with
//!   subgraph/merge operations as needed by the join-based framework (§3.1
//!   of the paper).
//! * [`patterns`] — the paper's benchmark queries `q1`–`q8` plus common
//!   building blocks (triangle, paths, stars, cliques, cycles).
//! * [`symmetry`] — automorphism enumeration and symmetry-breaking partial
//!   orders (the Grochow–Kellis method the paper cites \[28\]).
//! * [`naive`] — a sequential Ullmann-style backtracking enumerator used as
//!   ground truth by every test in the workspace.

pub mod naive;
pub mod patterns;
pub mod query;
pub mod symmetry;

pub use patterns::Pattern;
pub use query::{PartialOrder, QueryGraph, QueryVertex};
pub use symmetry::{automorphisms, symmetry_breaking_order};
