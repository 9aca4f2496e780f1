//! Contention-aware partitioning on the Instacart-like workload: run the
//! whole §4 pipeline (statistics → contention likelihood → star graph →
//! multilevel partitioning → hot lookup table), compare with Schism and
//! hash partitioning, then execute all three (a miniature Figures 7+8).
//! Each graph's build + partition wall time is printed next to its edge
//! count: §4.4's cost argument for the star over the clique.
//!
//! ```sh
//! cargo run --release --example instacart_partitioning
//! ```

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_partition::chiller_part::distributed_ratio;
use chiller_partition::{ChillerPartitioner, ContentionModel, LoadMetric, SchismPartitioner};
use chiller_workload::instacart::{self, InstacartConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let cfg = InstacartConfig::default();
    let k = 4usize;

    // The sampling statistics service output (§4.1).
    let trace = instacart::trace(&cfg, 4_000, 8_000_000);
    let model = ContentionModel::new(30_000.0, trace.window_ns as f64);

    // Chiller pipeline.
    let mut partitioner = ChillerPartitioner::new(k as u32, model);
    partitioner.load_metric = LoadMetric::Transactions;
    partitioner.hot_threshold = 0.05;
    partitioner.epsilon = 8.0;
    let started = Instant::now();
    let chiller = partitioner.partition(&trace);
    let star_time = started.elapsed();
    println!("== Chiller partitioning (§4) ==");
    println!(
        "star graph: {} vertices, {} edges; graph build + partition {:.1} ms",
        chiller.graph_vertices,
        chiller.graph_edges,
        star_time.as_secs_f64() * 1e3
    );
    println!("hot records (lookup-table entries): {}", chiller.num_hot());
    for (r, pc) in chiller.hot_likelihoods.iter().take(5) {
        println!(
            "  {r}: contention likelihood {pc:.3} → {:?}",
            chiller.hot_assignments[r]
        );
    }

    // Schism baseline.
    let started = Instant::now();
    let schism = SchismPartitioner::new(k as u32).partition(&trace);
    let clique_time = started.elapsed();
    println!("\n== Schism baseline ==");
    println!(
        "clique graph: {} vertices, {} edges; graph build + partition {:.1} ms",
        schism.graph_vertices,
        schism.graph_edges,
        clique_time.as_secs_f64() * 1e3
    );
    println!("lookup-table entries: {}", schism.lookup_entries());

    // Distributed-transaction ratios (Figure 8).
    let hash = HashPlacement::new(k as u32);
    println!("\n== Distributed-transaction ratio (Figure 8) ==");
    println!("hashing: {:.3}", distributed_ratio(&trace.txns, &hash));
    println!(
        "schism:  {:.3}",
        distributed_ratio(&trace.txns, &schism.into_placement())
    );
    println!(
        "chiller: {:.3}",
        distributed_ratio(&trace.txns, &chiller.into_lookup_table())
    );

    // Execute (Figure 7, one point).
    println!("\n== Execution at {k} partitions ==");
    let schism2 = SchismPartitioner::new(k as u32).partition(&trace);
    type Run = (
        &'static str,
        Arc<dyn Placement + Send + Sync>,
        Vec<RecordId>,
        Protocol,
    );
    let runs: Vec<Run> = vec![
        (
            "hashing",
            Arc::new(HashPlacement::new(k as u32)),
            vec![],
            Protocol::TwoPhaseLocking,
        ),
        (
            "schism",
            Arc::new(schism2.into_placement()),
            vec![],
            Protocol::TwoPhaseLocking,
        ),
        (
            "chiller",
            Arc::new(partitioner.partition(&trace).into_lookup_table()),
            chiller.hot_assignments.keys().copied().collect(),
            Protocol::Chiller,
        ),
    ];
    for (name, placement, hot, protocol) in runs {
        let mut sim = SimConfig::default();
        sim.engine.concurrency = 4;
        sim.seed = 3;
        let mut cluster = instacart::builder(&cfg, k, placement, hot, protocol, sim)
            .build()
            .unwrap();
        let report = cluster.run(RunSpec::millis(2, 10));
        println!("{name:>8}: {}", report.summary());
    }
    println!("\nChiller produces MORE distributed transactions than Schism yet runs");
    println!("faster — the paper's core claim: on fast networks, optimize for");
    println!("contention, not for transaction locality.");
}
