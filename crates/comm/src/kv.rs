//! An in-process stand-in for the external distributed key-value store
//! (Cassandra) that BENU depends on.
//!
//! The paper's diagnosis of BENU (§1) is that although pulling reduces the
//! communication *volume*, "the large overhead of pulling (and accessing
//! cached) data from the external key-value store" dominates the runtime.
//! To reproduce that effect without deploying Cassandra, this store serves
//! adjacency lists from the shared graph but charges a configurable
//! per-request and per-byte overhead to a virtual clock; baseline engines
//! add that clock to their reported execution time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use huge_graph::{Graph, VertexId};

/// Cost parameters of the simulated external store.
#[derive(Clone, Copy, Debug)]
pub struct KvStoreCost {
    /// Fixed cost per `get` request (network hop + server-side lookup +
    /// client-side deserialisation).
    pub per_request: Duration,
    /// Cost per byte of returned payload.
    pub per_byte: Duration,
}

impl Default for KvStoreCost {
    fn default() -> Self {
        // Roughly what a co-located Cassandra delivers for small reads:
        // a few hundred microseconds per request plus (de)serialisation.
        KvStoreCost {
            per_request: Duration::from_micros(300),
            per_byte: Duration::from_nanos(2),
        }
    }
}

/// The simulated external key-value store: key = vertex id, value = its
/// adjacency list.
pub struct ExternalKvStore {
    graph: Arc<Graph>,
    cost: KvStoreCost,
    requests: AtomicU64,
    bytes_served: AtomicU64,
    /// Accumulated overhead in nanoseconds.
    overhead_nanos: AtomicU64,
}

impl ExternalKvStore {
    /// Wraps a graph as the store's backing data.
    pub fn new(graph: Arc<Graph>, cost: KvStoreCost) -> Self {
        ExternalKvStore {
            graph,
            cost,
            requests: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            overhead_nanos: AtomicU64::new(0),
        }
    }

    /// Fetches the adjacency list of one vertex, charging one request.
    pub fn get(&self, v: VertexId) -> Vec<VertexId> {
        let nbrs = self.graph.neighbours(v).to_vec();
        self.charge(1, (nbrs.len() * std::mem::size_of::<VertexId>()) as u64);
        nbrs
    }

    fn charge(&self, requests: u64, bytes: u64) {
        self.requests.fetch_add(requests, Ordering::Relaxed);
        self.bytes_served.fetch_add(bytes, Ordering::Relaxed);
        let nanos = self.cost.per_request.as_nanos() as u64 * requests
            + self.cost.per_byte.as_nanos() as u64 * bytes;
        self.overhead_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Bytes served.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served.load(Ordering::Relaxed)
    }

    /// Total modelled overhead attributable to the external store.
    pub fn overhead(&self) -> Duration {
        Duration::from_nanos(self.overhead_nanos.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use huge_graph::gen;

    #[test]
    fn get_returns_correct_neighbours_and_charges() {
        let g = Arc::new(gen::cycle(10));
        let store = ExternalKvStore::new(Arc::clone(&g), KvStoreCost::default());
        let nbrs = store.get(0);
        assert_eq!(nbrs, vec![1, 9]);
        assert_eq!(store.requests(), 1);
        assert_eq!(store.bytes_served(), 8);
        assert!(store.overhead() >= Duration::from_micros(300));
    }

    #[test]
    fn overhead_scales_with_requests() {
        let g = Arc::new(gen::cycle(20));
        let store = ExternalKvStore::new(g, KvStoreCost::default());
        for v in 0..20 {
            store.get(v);
        }
        let o20 = store.overhead();
        assert!(o20 >= Duration::from_micros(300 * 20));
    }

    #[test]
    fn custom_cost_is_respected() {
        let g = Arc::new(gen::cycle(5));
        let store = ExternalKvStore::new(
            g,
            KvStoreCost {
                per_request: Duration::from_millis(1),
                per_byte: Duration::ZERO,
            },
        );
        store.get(1);
        store.get(2);
        assert_eq!(store.overhead(), Duration::from_millis(2));
    }
}
