//! The paper's Figure 4 flight-booking transaction, end to end.
//!
//! Demonstrates the full Chiller pipeline on the paper's own running
//! example: the dependency graph (pk-deps vs v-deps), the run-time region
//! decision for a concrete instance, and an execution where hot flights are
//! updated in inner regions.
//!
//! ```sh
//! cargo run --release --example flight_booking
//! ```

use chiller::cluster::RunSpec;
use chiller::prelude::*;
use chiller_sproc::decide_regions;
use chiller_workload::flight::{self, FlightConfig};

fn main() {
    let proc = flight::booking_proc();

    println!("== Static analysis (§3.2) ==");
    println!("{proc:?}");
    println!(
        "pk-children of the flight read: {:?}",
        proc.graph.pk_children[0]
    );
    println!(
        "v-deps of the balance update:   {:?}\n",
        proc.graph.v_parents[4]
    );

    // Run-time decision for one instance (§3.3): the flight (and the seat
    // insert that pk-depends on it) is hot and lives on partition 1; the
    // customer and tax rows are elsewhere.
    println!("== Run-time region decision (§3.3) ==");
    let parts = [
        Some(PartitionId(1)), // flight
        Some(PartitionId(0)), // customer
        Some(PartitionId(2)), // tax
        Some(PartitionId(1)), // flight update
        Some(PartitionId(0)), // customer update
        Some(PartitionId(1)), // seat insert (same flight prefix)
    ];
    let hot = [true, false, false, true, false, false];
    let split = decide_regions(&proc, &parts, &hot);
    println!("inner host: {:?}", split.inner_host);
    println!("inner ops:  {:?}", split.inner_ops);
    println!("outer ops:  {:?}", split.outer_ops);
    println!("guards:     {:?}\n", split.guard_sites);

    println!("== Execution on a 4-node cluster ==");
    let cfg = FlightConfig {
        flights: 16,
        customers: 5_000,
        theta: 1.1,
        ..Default::default()
    };
    for protocol in [Protocol::Chiller, Protocol::TwoPhaseLocking] {
        let mut sim = SimConfig::default();
        sim.engine.concurrency = 4;
        sim.seed = 7;
        let mut cluster = flight::builder(&cfg, 4, protocol, sim).build().unwrap();
        let report = cluster.run(RunSpec::millis(1, 10));
        println!("{protocol:>8}: {}", report.summary());
    }
    println!("\nPopular flights are booked concurrently from every node; Chiller's");
    println!("inner region makes the flight-row contention span a local operation.");
}
