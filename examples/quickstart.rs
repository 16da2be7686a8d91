//! Quickstart: enumerate a few patterns on a synthetic social graph.
//!
//! ```text
//! cargo run -p huge-examples --release --example quickstart
//! ```

use huge_core::{ClusterConfig, HugeCluster, SinkMode};
use huge_graph::gen;
use huge_query::Pattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A power-law graph standing in for a small social network.
    let graph = gen::barabasi_albert(20_000, 8, 42);
    println!(
        "data graph: {} vertices, {} edges, max degree {}",
        graph.num_vertices(),
        graph.num_edges(),
        graph.max_degree()
    );

    // A simulated 4-machine cluster with 2 workers per machine.
    let cluster = HugeCluster::build(graph, ClusterConfig::new(4).workers(2))?;

    for pattern in [
        Pattern::Triangle,
        Pattern::Square,
        Pattern::ChordalSquare,
        Pattern::FourClique,
    ] {
        let query = pattern.query_graph();
        let report = cluster.run(&query, SinkMode::Count)?;
        println!(
            "{:<22} {:>12} matches   T = {:>8.3}s  (compute {:.3}s, comm {:.3}s, {} KiB moved)",
            pattern.name(),
            report.matches,
            report.total_time().as_secs_f64(),
            report.compute_time.as_secs_f64(),
            report.comm_time.as_secs_f64(),
            report.comm_bytes / 1024
        );
    }

    // Collect a handful of concrete matches for inspection.
    let query = Pattern::Square.query_graph();
    let report = cluster.run(&query, SinkMode::Collect(3))?;
    println!("\nthree example squares (input vertex ids per query vertex v1..v4):");
    for m in &report.sample_matches {
        println!("  {m:?}");
    }
    Ok(())
}
